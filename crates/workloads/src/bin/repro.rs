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
//! travel to the figure generators in one [`SweepConfig`]; bad override
//! values are rejected before any figure runs.
//!
//! Unknown targets, unknown flags, and bad flag values exit 2. A failed
//! output write or replication is reported as it happens, and the run
//! then exits 1. Run with `--release`; the paper scale sweeps take
//! minutes.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::path::PathBuf;

use spms_kernel::SimTime;
use spms_net::ContactPlan;
use spms_workloads::figures;
use spms_workloads::{
    render_ascii_chart, render_csv, render_json, render_markdown, render_replicated_csv,
    render_replicated_markdown, replicate, AdversaryOverride, FigureResult, Scale, SweepConfig,
};

/// Every target `repro` accepts, space-separated.
const TARGETS: &str = "fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
                       ext1 ext2 ext3 ext4 ext5 ext6 table1 breakeven all";

struct Args {
    targets: BTreeSet<String>,
    scale: Scale,
    scale_name: String,
    seed: u64,
    seeds: usize,
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
            "--scale" => {
                scale_name = argv.next().ok_or("--scale needs a value")?;
            }
            "--workers" => {
                sweep.workers = argv
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--seeds" => {
                seeds = argv
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad replication count: {e}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--adversary-fraction" => {
                let v: f64 = argv
                    .next()
                    .ok_or("--adversary-fraction needs a value")?
                    .parse()
                    .map_err(|e| format!("bad adversary fraction: {e}"))?;
                sweep.adversary.fraction = Some(v);
            }
            "--adversary-behavior" => {
                sweep.adversary.behavior = Some(
                    argv.next()
                        .ok_or("--adversary-behavior needs a value")?
                        .parse()?,
                );
            }
            "--attack-start" => {
                let ms = argv.next().ok_or("--attack-start needs a value (ms)")?;
                sweep.adversary.attack_start = Some(parse_attack_start(&ms)?);
            }
            "--attack-factor" => {
                let k: u32 = argv
                    .next()
                    .ok_or("--attack-factor needs a value")?
                    .parse()
                    .map_err(|e| format!("bad attack factor: {e}"))?;
                sweep.adversary.attack_factor = Some(k);
            }
            "--contact-plan" => {
                let path = PathBuf::from(argv.next().ok_or("--contact-plan needs a file")?);
                sweep.contact_plan = Some(ContactPlan::load(&path)?);
            }
            "--churn-rate" => {
                let v: f64 = argv
                    .next()
                    .ok_or("--churn-rate needs a value")?
                    .parse()
                    .map_err(|e| format!("bad churn rate: {e}"))?;
                sweep.adversary.churn_rate = Some(v);
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
            other if TARGETS.split_whitespace().any(|t| t == other) => {
                targets.insert(other.to_string());
            }
            other => {
                return Err(format!("unknown target {other} (valid targets: {TARGETS})"));
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
    Ok(Args {
        targets,
        scale,
        scale_name,
        seed,
        seeds,
        out,
        sweep,
    })
}

/// Parses `--attack-start` milliseconds. Negative and non-finite values
/// are rejected here, because `SimTime` would silently clamp them to 0.
fn parse_attack_start(ms: &str) -> Result<SimTime, String> {
    let ms: f64 = ms.parse().map_err(|e| format!("bad attack start: {e}"))?;
    if !ms.is_finite() || ms < 0.0 {
        return Err(format!(
            "bad attack start: {ms} ms (must be finite and non-negative)"
        ));
    }
    Ok(SimTime::from_millis_f64(ms))
}

fn wants(targets: &BTreeSet<String>, id: &str) -> bool {
    targets.contains("all") || targets.contains(id)
}

/// The output directory, plus whether any write or replication failed.
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

/// Emits a simulation figure, replicated over `args.seeds` seeds when more
/// than one was requested.
fn emit_sim(args: &Args, out: &Output, generate: impl Fn(u64) -> FigureResult) {
    if args.seeds <= 1 {
        out.emit(&generate(args.seed));
        return;
    }
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| args.seed + i).collect();
    match replicate(&seeds, generate) {
        Ok(rep) => {
            print!("{}", render_replicated_markdown(&rep));
            out.write(&format!("{}_ci.csv", rep.id), &render_replicated_csv(&rep));
        }
        Err(e) => {
            eprintln!("replication failed: {e}");
            out.failed.set(true);
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
    let t = &args.targets;
    eprintln!(
        "repro: scale={} seed={} workers={} targets={:?}",
        args.scale_name,
        args.seed,
        if sweep.workers == 0 {
            "auto".to_string()
        } else {
            sweep.workers.to_string()
        },
        t
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

    if wants(t, "table1") {
        println!("{}", figures::table1());
    }
    if wants(t, "fig3") {
        out.emit(&figures::fig3(&args.scale));
    }
    if wants(t, "fig5") {
        out.emit(&figures::fig5(&args.scale));
    }
    // Paired generators share one sweep per call; under replication each
    // member re-runs the sweep, trading CPU for generator reuse.
    if wants(t, "fig6") || wants(t, "fig8") {
        if args.seeds <= 1 {
            let (f6, f8) = figures::fig6_fig8(&args.scale, args.seed, sweep);
            if wants(t, "fig6") {
                out.emit(&f6);
            }
            if wants(t, "fig8") {
                out.emit(&f8);
            }
        } else {
            if wants(t, "fig6") {
                emit_sim(&args, &out, |s| figures::fig6_fig8(&args.scale, s, sweep).0);
            }
            if wants(t, "fig8") {
                emit_sim(&args, &out, |s| figures::fig6_fig8(&args.scale, s, sweep).1);
            }
        }
    }
    if wants(t, "fig7") || wants(t, "fig9") {
        if args.seeds <= 1 {
            let (f7, f9) = figures::fig7_fig9(&args.scale, args.seed, sweep);
            if wants(t, "fig7") {
                out.emit(&f7);
            }
            if wants(t, "fig9") {
                out.emit(&f9);
            }
        } else {
            if wants(t, "fig7") {
                emit_sim(&args, &out, |s| figures::fig7_fig9(&args.scale, s, sweep).0);
            }
            if wants(t, "fig9") {
                emit_sim(&args, &out, |s| figures::fig7_fig9(&args.scale, s, sweep).1);
            }
        }
    }
    if wants(t, "fig10") {
        emit_sim(&args, &out, |s| figures::fig10(&args.scale, s, sweep));
    }
    if wants(t, "fig11") {
        emit_sim(&args, &out, |s| figures::fig11(&args.scale, s, sweep));
    }
    if wants(t, "fig12") {
        emit_sim(&args, &out, |s| figures::fig12(&args.scale, s, sweep));
    }
    if wants(t, "fig13") {
        emit_sim(&args, &out, |s| figures::fig13(&args.scale, s, sweep));
    }
    if wants(t, "ext1") {
        if args.seeds <= 1 {
            let (a, b) = figures::ext1(&args.scale, args.seed, sweep);
            out.emit(&a);
            out.emit(&b);
        } else {
            emit_sim(&args, &out, |s| figures::ext1(&args.scale, s, sweep).0);
            emit_sim(&args, &out, |s| figures::ext1(&args.scale, s, sweep).1);
        }
    }
    if wants(t, "ext2") {
        emit_sim(&args, &out, |s| figures::ext2(&args.scale, s, sweep));
    }
    if wants(t, "ext3") {
        emit_sim(&args, &out, |s| figures::ext3(&args.scale, s, sweep));
    }
    if wants(t, "ext4") {
        emit_sim(&args, &out, |s| figures::ext4(&args.scale, s, sweep));
    }
    if wants(t, "ext5") {
        emit_sim(&args, &out, |s| figures::ext5(&args.scale, s, sweep));
    }
    if wants(t, "ext6") {
        if args.seeds <= 1 {
            let (a, b) = figures::ext6(&args.scale, args.seed, sweep);
            out.emit(&a);
            out.emit(&b);
        } else {
            emit_sim(&args, &out, |s| figures::ext6(&args.scale, s, sweep).0);
            emit_sim(&args, &out, |s| figures::ext6(&args.scale, s, sweep).1);
        }
    }
    if wants(t, "breakeven") {
        println!("{}", figures::breakeven_report());
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
        for bad in ["-5", "nan", "inf", "-inf", "soon"] {
            let err = parse_attack_start(bad).expect_err(bad);
            assert!(err.starts_with("bad attack start"), "{bad}: {err}");
        }
    }
}
