//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [fig3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|ext1|ext2|ext3|ext4|ext5|ext6|table1|breakeven|all]...
//!       [--scale smoke|quick|paper] [--seed N] [--seeds R] [--out DIR] [--workers W]
//!       [--adversary-fraction F] [--adversary-behavior B] [--attack-start MS]
//!       [--attack-factor K] [--churn-rate F] [--contact-plan FILE]
//! ```
//!
//! Markdown goes to stdout; CSVs and their machine-readable JSON twins are
//! written under `--out` (default `results/`). With `--seeds R` (R > 1)
//! every simulation figure is replicated over R seeds and reported as
//! mean ± 95% CI (analytical figures are seed-free and unaffected);
//! replicated output is the `{id}_ci.csv` aggregate only — no JSON twin,
//! so `xtask sweep-diff` applies to single-seed sweeps.
//! `--workers W` sizes the sweep executor's worker pool (`0` = the host's
//! available parallelism, the default) — a wall-clock knob only: every
//! output byte is identical for every value, which CI verifies by diffing
//! the JSON of a workers-1 run against a workers-auto run.
//!
//! `--adversary-fraction`, `--adversary-behavior` (honest, flooding,
//! silent-dropper, metadata-liar), `--attack-start` (ms),
//! `--attack-factor`, and `--churn-rate` inject adversarial behavior and
//! mass join/leave churn into every figure whose specs did not pin their
//! own (EXT5 pins its own sweep and is immune). Unlike `--workers` these
//! are **semantic** — they change results exactly like a seed does — but
//! under any fixed setting the worker count still cannot change a byte,
//! which is what the adversarial-smoke CI step verifies.
//! `--contact-plan FILE` loads a `.cp`-style scheduled-connectivity plan
//! (`node_a node_b t_start t_end` per line, seconds) and overlays it on
//! every figure whose specs did not pin their own — another semantic
//! knob. EXT6 pins its own duty-cycle sweep and is immune. All of these
//! travel to the sweep executor in one [`SweepConfig`]; bad override
//! values are rejected before any figure runs.
//!
//! The targets and seeds make one [`Plan`]: every distinct simulation runs
//! once, in one worker pool, and `repro` prints how many after its header.
//!
//! Unknown targets, unknown flags, and bad flag values exit 2. A failed
//! simulation gets one stderr line with its label and error, and the
//! targets that read it are not emitted; the others are. A failed
//! simulation or output write is reported as it happens, and the run then
//! exits 1. Run with `--release`; the paper scale sweeps take minutes.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use spms_kernel::SimTime;
use spms_net::ContactPlan;
use spms_workloads::{
    render_ascii_chart, render_csv, render_json, render_markdown, render_replicated_csv,
    render_replicated_markdown, replicate, AdversaryOverride, FigureResult, Plan, Rendered, Scale,
    SweepConfig,
};

struct Args {
    targets: BTreeSet<String>,
    plan: Plan,
    scale_name: String,
    seed: u64,
    out: PathBuf,
    sweep: SweepConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut targets = BTreeSet::new();
    let mut scale_name = "quick".to_string();
    let mut seed = 42u64;
    let mut seeds = 1usize;
    let mut out = PathBuf::from("results");
    let mut sweep = SweepConfig::auto();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => scale_name = value(&mut argv, &arg, "scale")?,
            "--workers" => sweep.workers = value(&mut argv, &arg, "worker count")?,
            "--seed" => seed = value(&mut argv, &arg, "seed")?,
            "--seeds" => seeds = value(&mut argv, &arg, "replication count")?,
            "--out" => out = value(&mut argv, &arg, "output directory")?,
            "--adversary-fraction" => {
                sweep.adversary.fraction = Some(value(&mut argv, &arg, "adversary fraction")?);
            }
            "--adversary-behavior" => {
                sweep.adversary.behavior = Some(value(&mut argv, &arg, "adversary behavior")?);
            }
            "--attack-start" => {
                let ms: String = value(&mut argv, &arg, "attack start")?;
                sweep.adversary.attack_start = Some(parse_attack_start(&ms)?);
            }
            "--attack-factor" => {
                sweep.adversary.attack_factor = Some(value(&mut argv, &arg, "attack factor")?);
            }
            "--contact-plan" => {
                let path: PathBuf = value(&mut argv, &arg, "contact plan path")?;
                sweep.contact_plan = Some(ContactPlan::load(&path)?);
            }
            "--churn-rate" => {
                sweep.adversary.churn_rate = Some(value(&mut argv, &arg, "churn rate")?);
            }
            "--help" | "-h" => {
                return Err("usage: repro [FIGURES|all] [--scale smoke|quick|paper] \
                            [--seed N] [--seeds R] [--out DIR] [--workers W] \
                            [--adversary-fraction F] \
                            [--adversary-behavior honest|flooding|silent-dropper|metadata-liar] \
                            [--attack-start MS] [--attack-factor K] [--churn-rate F] \
                            [--contact-plan FILE]"
                    .into())
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            other => {
                targets.insert(other.to_string());
            }
        }
    }
    if targets.is_empty() {
        targets.insert("all".to_string());
    }
    let scale = match scale_name.as_str() {
        "smoke" => Scale::smoke(),
        "quick" => Scale::quick(),
        "paper" => Scale::paper(),
        other => return Err(format!("unknown scale {other}")),
    };
    sweep
        .adversary
        .validate()
        .map_err(|e| format!("bad override: {e}"))?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let last = seed.checked_add(seeds as u64 - 1).ok_or_else(|| {
        format!(
            "--seed {seed} with --seeds {seeds} runs past the largest seed {}",
            u64::MAX
        )
    })?;
    let ids: Vec<&str> = targets.iter().map(String::as_str).collect();
    let plan = Plan::new(&ids, &scale, &(seed..=last).collect::<Vec<u64>>())?;
    Ok(Args {
        targets,
        plan,
        scale_name,
        seed,
        out,
        sweep,
    })
}

/// The value following `flag` on the command line, parsed as a `what`.
fn value<T: FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String>
where
    T::Err: Display,
{
    let text = argv.next().ok_or(format!("{flag} needs a value"))?;
    text.parse().map_err(|e| format!("bad {what}: {e}"))
}

/// Parses `--attack-start` milliseconds. Negative, non-finite and
/// out-of-range values are rejected here, because `SimTime` would silently
/// clamp them to 0 or to its largest value.
fn parse_attack_start(text: &str) -> Result<SimTime, String> {
    let ms: f64 = text.parse().map_err(|e| format!("bad attack start: {e}"))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(format!(
            "bad attack start: {ms} ms (must be finite and non-negative)"
        ));
    }
    if ms * 1e6 >= SimTime::MAX.as_nanos() as f64 {
        return Err(format!(
            "bad attack start: {text} ms is beyond the simulation clock's range \
             (about 1.8e13 ms)"
        ));
    }
    Ok(SimTime::from_millis_f64(ms))
}

/// The output directory, plus whether any simulation or write failed.
struct Output {
    dir: PathBuf,
    failed: Cell<bool>,
}

impl Output {
    fn emit(&self, fig: &FigureResult) {
        print!("{}", render_markdown(fig));
        println!("{}", render_ascii_chart(fig, 48));
        self.write(&format!("{}.csv", fig.id), &render_csv(fig));
        // The machine-readable twin CI diffs across sweep worker counts.
        self.write(&format!("{}.json", fig.id), &render_json(fig));
    }

    /// Emits one figure from its renders in seed order: as it is for a
    /// single render, aggregated over the seeds otherwise.
    fn emit_renders(&self, renders: &[FigureResult]) {
        if let [fig] = renders {
            return self.emit(fig);
        }
        let rep = replicate(renders).expect("every seed renders the same figure");
        print!("{}", render_replicated_markdown(&rep));
        self.write(&format!("{}_ci.csv", rep.id), &render_replicated_csv(&rep));
    }

    fn write(&self, name: &str, contents: &str) {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("warning: cannot create {}: {e}", self.dir.display());
            self.failed.set(true);
            return;
        }
        let path = self.dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("warning: cannot write {}: {e}", path.display());
            self.failed.set(true);
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let out = Output {
        dir: args.out.clone(),
        failed: Cell::new(false),
    };
    let sweep = &args.sweep;
    eprintln!(
        "repro: scale={} seed={} workers={} targets={:?}",
        args.scale_name,
        args.seed,
        if sweep.workers == 0 {
            "auto".to_string()
        } else {
            sweep.workers.to_string()
        },
        args.targets
    );
    if let Some(plan) = &sweep.contact_plan {
        eprintln!(
            "repro: contact-plan override: {} link(s), {} window(s) (semantic knob: \
             outputs differ by design)",
            plan.num_links(),
            plan.num_windows(),
        );
    }
    if sweep.adversary != AdversaryOverride::default() {
        eprintln!(
            "repro: adversary override: fraction={:?} behavior={:?} attack-start={:?} \
             attack-factor={:?} churn-rate={:?} (semantic knob: outputs differ by design)",
            sweep.adversary.fraction,
            sweep.adversary.behavior,
            sweep.adversary.attack_start,
            sweep.adversary.attack_factor,
            sweep.adversary.churn_rate,
        );
    }
    eprintln!("repro: {} simulations", args.plan.simulations());

    let outcome = args.plan.run(sweep);
    for (run, error) in &outcome.failed {
        eprintln!("repro: simulation {run} failed: {error}");
        out.failed.set(true);
    }
    for (id, rendered) in &outcome.targets {
        match rendered {
            Some(Rendered::Text(text)) => println!("{text}"),
            Some(Rendered::Figures(figures)) => {
                for renders in figures {
                    out.emit_renders(renders);
                }
            }
            None => eprintln!("repro: {id} not emitted: it reads a failed simulation"),
        }
    }
    if out.failed.get() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_start_rejects_values_sim_time_would_clamp() {
        assert_eq!(parse_attack_start("0"), Ok(SimTime::ZERO));
        assert_eq!(parse_attack_start("2.5"), Ok(SimTime::from_micros(2500)));
        for bad in ["-5", "nan", "inf", "-inf", "soon", "1e30"] {
            let err = parse_attack_start(bad).expect_err(bad);
            assert!(err.starts_with("bad attack start"), "{bad}: {err}");
        }
    }
}
