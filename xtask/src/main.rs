//! Repo task runner (`cargo run -p xtask -- <command>`).
//!
//! * `collect --input <jsonl> --output <json>` — canonicalize the JSON
//!   lines the vendored criterion reporter appends (`CRITERION_JSON=...`)
//!   into a sorted, deduplicated `BENCH_*.json` document. Used to write
//!   `BENCH_smoke.json` in CI and to (re)seed the checked-in
//!   `BENCH_baseline.json`.
//! * `bench-gate --baseline <json> --current <json> [--threshold 1.25]
//!   [--ratio-num <id> --ratio-den <id> --ratio-max <f>]...` — the CI
//!   regression gate: every bench tracked in the baseline must be present
//!   in the current results and its `min_ns` must not exceed
//!   `baseline × threshold`. The optional ratio checks (the flag triple
//!   may repeat) are hardware independent — each constrains two benches
//!   *of the same run* (e.g. incremental DBF re-convergence ≤ 0.35× the
//!   full rebuild, and the incremental zone patch ≤ 0.35× the full
//!   indexed zone build — the repo's ≥~3× speedup acceptance criteria).
//!   Every gate is evaluated before the exit status is decided (a CI run
//!   reports the full scorecard, not the first breach), and when
//!   `$GITHUB_STEP_SUMMARY` is set the scorecard is appended there as a
//!   markdown table (gate, baseline, current, bound, pass/fail). Exits
//!   non-zero (failing the CI job) on any regression, missing bench, or
//!   ratio breach.
//!   Gates a runner cannot execute (the sharded/sequential ratios on a
//!   single-core machine) are declared with `--skip-ratio-num <id>
//!   --skip-ratio-den <id>` pairs (plus an optional `--skip-reason`):
//!   they never fail the run, but they show up in stdout and in the
//!   `$GITHUB_STEP_SUMMARY` scorecard as explicit `skipped` rows — a
//!   gate that never ran must be visibly absent, not silently green.
//! * `speedup-curve --input <json> --output <json> [--strict]` — derives
//!   the sharded-vs-sequential speedup curve from one bench run: every
//!   `routing/dbf_{delta,full}_{seq,sharded}_<n>` record is grouped by n
//!   and emitted as a `{n, seq_min_ns, sharded_min_ns, speedup}` row,
//!   sorted by n. A record whose twin is absent is **not** dropped: the
//!   row is emitted with explicit `"missing"` fields (a truncated bench
//!   run must be visible in the artifact, not silently thinner), and
//!   `--strict` turns any such row into a non-zero exit. CI uploads the
//!   result as the scaling artifact tracked by the ROADMAP's 10k-node
//!   target.
//! * `sweep-diff --a <dir> --b <dir> [--require <token>]...` — the
//!   sweep-determinism gate: both directories must hold the same set of
//!   `*.json` figure files (as written by the `repro` bin) with
//!   **byte-identical** contents. CI runs a figure sweep at 1 worker and
//!   at the runner's available parallelism and diffs the outputs — the
//!   parallel sweep executor may only change wall-clock time, never a
//!   result byte. Each (repeatable) `--require` token must appear
//!   somewhere in the compared JSON, so a gate can also prove the sweep
//!   actually exercised what it claims to (the adversarial-smoke step
//!   requires the `packets_dropped`/`bogus_advs` counters — a silently
//!   benign sweep would pass the byte-diff and still fail the gate).
//!   Exits non-zero on any missing file, content difference, or absent
//!   required token.
//!
//! The workspace is offline (no serde), so records are read with a tiny
//! scanner that understands exactly the flat objects the reporter emits.

use std::fmt::Write as _;
use std::process::ExitCode;

/// One benchmark measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Record {
    id: String,
    min_ns: u64,
    mean_ns: u64,
    samples: u64,
}

/// Extracts every flat `{...}` object from `text` (JSON lines or a JSON
/// array of such objects) and parses the bench fields. Later records win on
/// duplicate ids, so re-running a bench overrides its earlier line.
fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut records: Vec<Record> = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        let Some(close_rel) = object_end(&rest[open..]) else {
            return Err("unbalanced '{' in bench JSON".into());
        };
        let obj = &rest[open + 1..open + close_rel];
        rest = &rest[open + close_rel + 1..];
        let record = Record {
            id: string_field(obj, "id")
                .ok_or_else(|| format!("object without \"id\": {{{obj}}}"))?,
            min_ns: u64_field(obj, "min_ns")
                .ok_or_else(|| format!("object without \"min_ns\": {{{obj}}}"))?,
            mean_ns: u64_field(obj, "mean_ns")
                .ok_or_else(|| format!("object without \"mean_ns\": {{{obj}}}"))?,
            samples: u64_field(obj, "samples")
                .ok_or_else(|| format!("object without \"samples\": {{{obj}}}"))?,
        };
        records.retain(|r| r.id != record.id);
        records.push(record);
    }
    Ok(records)
}

/// Byte offset of the `}` closing the object `text` starts with, skipping
/// braces inside string literals (bench ids may contain `{}`).
fn object_end(text: &str) -> Option<usize> {
    debug_assert!(text.starts_with('{'));
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '}' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

/// `"key":"value"` lookup with `\"`/`\\` unescaping.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let tail = field_value(obj, key)?;
    let tail = tail.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = tail.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            _ => out.push(c),
        }
    }
    None
}

/// `"key":123` lookup.
fn u64_field(obj: &str, key: &str) -> Option<u64> {
    let digits: String = field_value(obj, key)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The text right after `"key":` (whitespace tolerated).
fn field_value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\"");
    let at = obj.find(&marker)?;
    let tail = obj[at + marker.len()..].trim_start();
    Some(tail.strip_prefix(':')?.trim_start())
}

/// Canonical document: a JSON array sorted by id, one record per line.
fn render(records: &[Record]) -> String {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut out = String::from("[\n");
    for (i, r) in sorted.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"id\":\"{}\",\"min_ns\":{},\"mean_ns\":{},\"samples\":{}}}{}",
            r.id.replace('\\', "\\\\").replace('"', "\\\""),
            r.min_ns,
            r.mean_ns,
            r.samples,
            if i + 1 == sorted.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    out
}

/// Gate verdict for one tracked bench.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok { ratio: f64 },
    Regressed { ratio: f64 },
    Missing,
}

/// Outcome of one same-run ratio constraint:
/// `current[num].min_ns / current[den].min_ns` must stay at or below
/// `max`. Hardware independent, unlike the absolute baseline comparison.
#[derive(Debug, PartialEq)]
struct RatioVerdict {
    num: String,
    den: String,
    max: f64,
    /// `None` when either bench is missing from the current results.
    ratio: Option<f64>,
}

impl RatioVerdict {
    fn pass(&self) -> bool {
        self.ratio.is_some_and(|r| r <= self.max)
    }
}

/// A ratio gate the runner declared it cannot execute (e.g. the
/// sharded/sequential gates on a single-core machine). Never failing,
/// but always reported: the scorecard shows an explicit `skipped` row.
#[derive(Debug, PartialEq)]
struct SkippedRatio {
    num: String,
    den: String,
    reason: String,
}

/// Evaluates one ratio constraint. Never fails early: a missing bench is a
/// failed verdict (`ratio: None`), so every gate in a run is always
/// evaluated and reported before the command exits non-zero.
fn check_ratio(current: &[Record], num: &str, den: &str, max: f64) -> RatioVerdict {
    let find = |id: &str| current.iter().find(|r| r.id == id);
    let ratio = match (find(num), find(den)) {
        (Some(n), Some(d)) => Some(n.min_ns as f64 / (d.min_ns as f64).max(1.0)),
        _ => None,
    };
    RatioVerdict {
        num: num.to_string(),
        den: den.to_string(),
        max,
        ratio,
    }
}

/// Compares current results against the baseline: every baseline bench is
/// tracked; `min_ns` may grow at most `threshold ×`.
fn gate(baseline: &[Record], current: &[Record], threshold: f64) -> Vec<(String, Verdict)> {
    baseline
        .iter()
        .map(|b| {
            let verdict = match current.iter().find(|c| c.id == b.id) {
                None => Verdict::Missing,
                Some(c) => {
                    let ratio = c.min_ns as f64 / (b.min_ns as f64).max(1.0);
                    if ratio > threshold {
                        Verdict::Regressed { ratio }
                    } else {
                        Verdict::Ok { ratio }
                    }
                }
            };
            (b.id.clone(), verdict)
        })
        .collect()
}

/// Renders every gate of one `bench-gate` run — the absolute per-bench
/// regression gates and the same-run ratio gates — as one GitHub-flavored
/// markdown table: the `$GITHUB_STEP_SUMMARY` payload.
fn markdown_summary(
    verdicts: &[(String, Verdict)],
    baseline: &[Record],
    current: &[Record],
    threshold: f64,
    ratios: &[RatioVerdict],
    skipped: &[SkippedRatio],
) -> String {
    let min_of = |records: &[Record], id: &str| {
        records
            .iter()
            .find(|r| r.id == id)
            .map(|r| format!("{} ns", r.min_ns))
    };
    let mut out = String::from("### bench-gate\n\n");
    out.push_str("| gate | baseline | current | bound | result |\n");
    out.push_str("|---|---:|---:|---:|:---:|\n");
    for (id, verdict) in verdicts {
        let base = min_of(baseline, id).unwrap_or_else(|| "—".into());
        let (cur, pass) = match verdict {
            Verdict::Ok { ratio } => (format!("{ratio:.2}× base"), true),
            Verdict::Regressed { ratio } => (format!("{ratio:.2}× base"), false),
            Verdict::Missing => ("missing".into(), false),
        };
        let cur = min_of(current, id).map_or(cur.clone(), |ns| format!("{ns} ({cur})"));
        let _ = writeln!(
            out,
            "| `{id}` | {base} | {cur} | ≤ {threshold:.2}× base | {} |",
            if pass { "✅" } else { "❌" }
        );
    }
    for r in ratios {
        let cur = r
            .ratio
            .map_or_else(|| "missing".into(), |x| format!("{x:.3}×"));
        let _ = writeln!(
            out,
            "| `{}` / `{}` | — | {cur} | ≤ {:.2}× | {} |",
            r.num,
            r.den,
            r.max,
            if r.pass() { "✅" } else { "❌" }
        );
    }
    for s in skipped {
        let _ = writeln!(
            out,
            "| `{}` / `{}` | — | not run | — | ⏭️ skipped ({}) |",
            s.num, s.den, s.reason
        );
    }
    out
}

fn read(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Name the input on parse failures too: "unbalanced '{'" without a
    // file name is useless when several CRITERION_JSON files are in play.
    let records = parse_records(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path} holds no bench records"));
    }
    Ok(records)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// All values of a repeatable flag, in order.
fn arg_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn run_collect(args: &[String]) -> Result<(), String> {
    let input = arg_value(args, "--input").ok_or("collect needs --input <jsonl>")?;
    let output = arg_value(args, "--output").ok_or("collect needs --output <json>")?;
    let records = read(&input)?;
    std::fs::write(&output, render(&records)).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("collected {} bench records into {output}", records.len());
    Ok(())
}

fn run_bench_gate(args: &[String]) -> Result<(), String> {
    let baseline_path =
        arg_value(args, "--baseline").ok_or("bench-gate needs --baseline <json>")?;
    let current_path = arg_value(args, "--current").ok_or("bench-gate needs --current <json>")?;
    let threshold: f64 = match arg_value(args, "--threshold") {
        Some(t) => t.parse().map_err(|e| format!("bad --threshold {t}: {e}"))?,
        None => 1.25,
    };
    if !(threshold.is_finite() && threshold >= 1.0) {
        return Err(format!("threshold {threshold} must be >= 1.0"));
    }
    let baseline = read(&baseline_path)?;
    let current = read(&current_path)?;
    let verdicts = gate(&baseline, &current, threshold);

    println!("bench-gate: {current_path} vs {baseline_path} (threshold {threshold:.2}×)");
    let mut failures = 0;
    for (id, verdict) in &verdicts {
        match verdict {
            Verdict::Ok { ratio } => println!("  ok        {ratio:>6.2}×  {id}"),
            Verdict::Regressed { ratio } => {
                failures += 1;
                println!("  REGRESSED {ratio:>6.2}×  {id}");
            }
            Verdict::Missing => {
                failures += 1;
                println!("  MISSING            {id}");
            }
        }
    }
    for c in &current {
        if !baseline.iter().any(|b| b.id == c.id) {
            println!("  untracked          {} (not in baseline)", c.id);
        }
    }
    // Ratio checks are repeatable: the i-th --ratio-num / --ratio-den /
    // --ratio-max form one constraint. A ragged specification must not
    // silently disable the hardware-independent gate.
    let nums = arg_values(args, "--ratio-num");
    let dens = arg_values(args, "--ratio-den");
    let maxes = arg_values(args, "--ratio-max");
    if nums.len() != dens.len() || nums.len() != maxes.len() {
        return Err(format!(
            "ratio checks need matching --ratio-num/--ratio-den/--ratio-max triples \
             (got {}/{}/{})",
            nums.len(),
            dens.len(),
            maxes.len()
        ));
    }
    // Every ratio gate is evaluated and reported before any failure exits
    // the command: a CI run shows the full scorecard, not the first breach.
    let mut ratio_failures = 0;
    let mut ratios = Vec::new();
    for ((num, den), max) in nums.iter().zip(&dens).zip(&maxes) {
        let max: f64 = max
            .parse()
            .map_err(|e| format!("bad --ratio-max {max}: {e}"))?;
        let verdict = check_ratio(&current, num, den, max);
        match (verdict.pass(), verdict.ratio) {
            (true, Some(ratio)) => {
                println!("  ratio ok  {ratio:>6.2}×  {num} / {den} (max {max:.2})");
            }
            (false, Some(ratio)) => {
                ratio_failures += 1;
                println!("  RATIO     {ratio:>6.2}×  {num} / {den} EXCEEDS max {max:.2}");
            }
            (_, None) => {
                ratio_failures += 1;
                println!("  RATIO missing bench  {num} / {den} (not in current results)");
            }
        }
        ratios.push(verdict);
    }
    // Declared-skipped ratio gates: reported (stdout + scorecard), never
    // failed. A ragged pair list is an error — a skip declaration that
    // silently dropped a gate would defeat its whole purpose.
    let skip_nums = arg_values(args, "--skip-ratio-num");
    let skip_dens = arg_values(args, "--skip-ratio-den");
    if skip_nums.len() != skip_dens.len() {
        return Err(format!(
            "skipped ratio gates need matching --skip-ratio-num/--skip-ratio-den pairs \
             (got {}/{})",
            skip_nums.len(),
            skip_dens.len()
        ));
    }
    let skip_reason =
        arg_value(args, "--skip-reason").unwrap_or_else(|| "not runnable on this runner".into());
    let skipped: Vec<SkippedRatio> = skip_nums
        .into_iter()
        .zip(skip_dens)
        .map(|(num, den)| SkippedRatio {
            num,
            den,
            reason: skip_reason.clone(),
        })
        .collect();
    for s in &skipped {
        println!("  ratio SKIPPED      {} / {} ({})", s.num, s.den, s.reason);
    }
    // On GitHub runners, mirror the full scorecard into the job summary.
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let table = markdown_summary(&verdicts, &baseline, &current, threshold, &ratios, &skipped);
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
            .and_then(|mut f| f.write_all(table.as_bytes()))
            .map_err(|e| format!("cannot append to GITHUB_STEP_SUMMARY {summary_path}: {e}"))?;
    }
    if failures > 0 || ratio_failures > 0 {
        return Err(format!(
            "{failures} of {} tracked benches regressed beyond {threshold:.2}× or went \
             missing, and {ratio_failures} of {} ratio gates failed. If this is an \
             intentional trade or a hardware change, refresh the baseline: \
             CRITERION_JSON=bench.jsonl cargo bench -p spms-bench && \
             cargo run -p xtask -- collect --input bench.jsonl --output BENCH_baseline.json",
            verdicts.len(),
            ratios.len()
        ));
    }
    println!(
        "all {} tracked benches and {} ratio gates within budget ({} ratio gates skipped)",
        verdicts.len(),
        ratios.len(),
        skipped.len()
    );
    Ok(())
}

/// One point of the sharded-vs-sequential speedup curve: the
/// `..._seq_<n>` / `..._sharded_<n>` records of one bench family at one
/// size. Either side may be absent (a truncated or partial bench run):
/// the point is still emitted, with its missing side explicit.
#[derive(Debug, PartialEq)]
struct SpeedupPoint {
    n: u64,
    seq_min_ns: Option<u64>,
    sharded_min_ns: Option<u64>,
}

impl SpeedupPoint {
    /// Sequential time over sharded time (> 1 means the threads win), or
    /// `None` when either twin is missing.
    fn speedup(&self) -> Option<f64> {
        match (self.seq_min_ns, self.sharded_min_ns) {
            (Some(seq), Some(sharded)) => Some(seq as f64 / (sharded as f64).max(1.0)),
            _ => None,
        }
    }

    /// `true` when both twins were measured.
    fn complete(&self) -> bool {
        self.seq_min_ns.is_some() && self.sharded_min_ns.is_some()
    }
}

/// Groups every `<prefix>_{seq,sharded}_<n>` record by n, sorted by n.
/// Records without a twin are **kept** as incomplete points — the curve
/// must show a truncated run as explicitly missing, never as merely
/// thinner.
fn speedup_points(records: &[Record], prefix: &str) -> Vec<SpeedupPoint> {
    let seq_marker = format!("{prefix}_seq_");
    let sharded_marker = format!("{prefix}_sharded_");
    let mut by_n: std::collections::BTreeMap<u64, SpeedupPoint> = std::collections::BTreeMap::new();
    for r in records {
        if let Some(n) = r.id.strip_prefix(&seq_marker).and_then(|s| s.parse().ok()) {
            by_n.entry(n)
                .or_insert(SpeedupPoint {
                    n,
                    seq_min_ns: None,
                    sharded_min_ns: None,
                })
                .seq_min_ns = Some(r.min_ns);
        } else if let Some(n) =
            r.id.strip_prefix(&sharded_marker)
                .and_then(|s| s.parse().ok())
        {
            by_n.entry(n)
                .or_insert(SpeedupPoint {
                    n,
                    seq_min_ns: None,
                    sharded_min_ns: None,
                })
                .sharded_min_ns = Some(r.min_ns);
        }
    }
    by_n.into_values().collect()
}

/// Renders the delta and full-rebuild speedup curves as one JSON document.
/// An unpaired point renders its absent side — and its speedup — as the
/// literal string `"missing"`.
fn render_speedup(delta: &[SpeedupPoint], full: &[SpeedupPoint]) -> String {
    let ns = |v: Option<u64>| v.map_or_else(|| "\"missing\"".into(), |x| x.to_string());
    let family = |points: &[SpeedupPoint]| {
        let mut out = String::from("[\n");
        for (i, p) in points.iter().enumerate() {
            let speedup = p
                .speedup()
                .map_or_else(|| "\"missing\"".into(), |s| format!("{s:.4}"));
            let _ = writeln!(
                out,
                "    {{\"n\":{},\"seq_min_ns\":{},\"sharded_min_ns\":{},\"speedup\":{}}}{}",
                p.n,
                ns(p.seq_min_ns),
                ns(p.sharded_min_ns),
                speedup,
                if i + 1 == points.len() { "" } else { "," }
            );
        }
        out.push_str("  ]");
        out
    };
    format!(
        "{{\n  \"delta\": {},\n  \"full\": {}\n}}\n",
        family(delta),
        family(full)
    )
}

fn run_speedup_curve(args: &[String]) -> Result<(), String> {
    let input = arg_value(args, "--input").ok_or("speedup-curve needs --input <json>")?;
    let output = arg_value(args, "--output").ok_or("speedup-curve needs --output <json>")?;
    let strict = args.iter().any(|a| a == "--strict");
    let records = read(&input)?;
    let delta = speedup_points(&records, "routing/dbf_delta");
    let full = speedup_points(&records, "routing/dbf_full");
    if delta.is_empty() && full.is_empty() {
        return Err(format!(
            "{input} holds no routing/dbf_{{delta,full}}_{{seq,sharded}}_<n> records"
        ));
    }
    std::fs::write(&output, render_speedup(&delta, &full))
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    let mut unpaired = Vec::new();
    for (name, points) in [("delta", &delta), ("full", &full)] {
        for p in points {
            let side = |v: Option<u64>| v.map_or_else(|| "MISSING".into(), |x| format!("{x} ns"));
            let speedup = p
                .speedup()
                .map_or_else(|| "missing".into(), |s| format!("{s:.2}×"));
            println!(
                "  {name:>5} n={:<6} seq {:>14}  sharded {:>14}  speedup {speedup}",
                p.n,
                side(p.seq_min_ns),
                side(p.sharded_min_ns),
            );
            if !p.complete() {
                let absent = if p.seq_min_ns.is_none() {
                    "seq"
                } else {
                    "sharded"
                };
                unpaired.push(format!("routing/dbf_{name}_{absent}_{}", p.n));
            }
        }
    }
    if !unpaired.is_empty() {
        let note = format!(
            "{} unpaired record(s) in {input} — missing twin(s): {}",
            unpaired.len(),
            unpaired.join(", ")
        );
        if strict {
            return Err(format!("{note} (--strict: a truncated bench run fails)"));
        }
        eprintln!("xtask: warning: {note}");
    }
    println!(
        "speedup curve ({} delta + {} full points, {} unpaired) written to {output}",
        delta.len(),
        full.len(),
        unpaired.len()
    );
    Ok(())
}

/// Sorted `*.json` file names directly inside `dir`.
fn json_files(dir: &str) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {dir}: {e}"))?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{dir} holds no .json figure files"));
    }
    Ok(names)
}

fn run_sweep_diff(args: &[String]) -> Result<(), String> {
    let dir_a = arg_value(args, "--a").ok_or("sweep-diff needs --a <dir>")?;
    let dir_b = arg_value(args, "--b").ok_or("sweep-diff needs --b <dir>")?;
    let required = arg_values(args, "--require");
    let names_a = json_files(&dir_a)?;
    let names_b = json_files(&dir_b)?;
    if names_a != names_b {
        return Err(format!(
            "figure sets differ: {dir_a} holds {names_a:?}, {dir_b} holds {names_b:?}"
        ));
    }
    println!("sweep-diff: {dir_a} vs {dir_b} ({} figures)", names_a.len());
    let mut differing = Vec::new();
    let mut corpus = String::new();
    for name in &names_a {
        let read = |dir: &str| {
            std::fs::read(std::path::Path::new(dir).join(name))
                .map_err(|e| format!("cannot read {dir}/{name}: {e}"))
        };
        let bytes_a = read(&dir_a)?;
        if bytes_a == read(&dir_b)? {
            println!("  identical  {name}");
        } else {
            println!("  DIFFERS    {name}");
            differing.push(name.clone());
        }
        corpus.push_str(&String::from_utf8_lossy(&bytes_a));
    }
    if !differing.is_empty() {
        return Err(format!(
            "{} of {} figures differ between the two sweeps ({}): the executor \
             must be byte-deterministic across worker counts",
            differing.len(),
            names_a.len(),
            differing.join(", ")
        ));
    }
    let absent: Vec<&String> = required.iter().filter(|t| !corpus.contains(*t)).collect();
    if !absent.is_empty() {
        return Err(format!(
            "required token(s) {absent:?} appear nowhere in the compared JSON: \
             the sweep did not exercise what this gate is meant to verify"
        ));
    }
    if !required.is_empty() {
        println!("all {} required tokens present", required.len());
    }
    println!("all {} figures byte-identical", names_a.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("collect") => run_collect(&args[1..]),
        Some("bench-gate") => run_bench_gate(&args[1..]),
        Some("speedup-curve") => run_speedup_curve(&args[1..]),
        Some("sweep-diff") => run_sweep_diff(&args[1..]),
        _ => Err(
            "usage: xtask <collect|bench-gate|speedup-curve|sweep-diff> [flags]\n\
                  \x20 collect       --input <jsonl> --output <json>\n\
                  \x20 bench-gate    --baseline <json> --current <json> [--threshold 1.25]\n\
                  \x20 speedup-curve --input <json> --output <json> [--strict]\n\
                  \x20 sweep-diff    --a <dir> --b <dir> [--require <token>]..."
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, min: u64) -> Record {
        Record {
            id: id.into(),
            min_ns: min,
            mean_ns: min + 10,
            samples: 20,
        }
    }

    #[test]
    fn parses_json_lines_and_arrays() {
        let jsonl = "{\"id\":\"a\",\"min_ns\":100,\"mean_ns\":110,\"samples\":20}\n\
                     {\"id\":\"b\",\"min_ns\":200,\"mean_ns\":220,\"samples\":20}\n";
        let from_lines = parse_records(jsonl).expect("records a and b parse from JSON lines");
        assert_eq!(from_lines.len(), 2);
        assert_eq!(from_lines[0].id, "a");
        assert_eq!(from_lines[1].min_ns, 200);
        // The canonical render round-trips.
        let from_array =
            parse_records(&render(&from_lines)).expect("rendered records a and b re-parse");
        assert_eq!(from_lines, from_array);
    }

    #[test]
    fn later_duplicate_records_win() {
        let text = "{\"id\":\"a\",\"min_ns\":100,\"mean_ns\":110,\"samples\":20}\n\
                    {\"id\":\"a\",\"min_ns\":90,\"mean_ns\":95,\"samples\":20}\n";
        let records = parse_records(text).expect("duplicate records of id a parse");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].min_ns, 90);
    }

    #[test]
    fn escaped_quotes_in_ids_survive() {
        let records = vec![rec("weird\"bench\\name", 5)];
        let parsed =
            parse_records(&render(&records)).expect("escaped bench id survives the round-trip");
        assert_eq!(parsed[0].id, "weird\"bench\\name");
    }

    #[test]
    fn braces_inside_ids_do_not_split_objects() {
        let records = vec![rec("routing/offer{k=2}", 5), rec("plain", 7)];
        let parsed = parse_records(&render(&records))
            .expect("braces inside record id routing/offer{k=2} re-parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, "plain");
        assert_eq!(parsed[1].id, "routing/offer{k=2}");
        assert_eq!(parsed[1].min_ns, 5);
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(parse_records("{\"id\":\"a\"}").is_err());
        assert!(parse_records("{\"min_ns\":1,\"mean_ns\":1,\"samples\":1}").is_err());
        assert!(parse_records("{\"id\":\"a\",\"min_ns\":1,\"mean_ns\":1,\"samples\":1").is_err());
    }

    #[test]
    fn render_sorts_by_id() {
        let out = render(&[rec("z", 1), rec("a", 2)]);
        let za = out.find("\"z\"").expect("record z rendered");
        let aa = out.find("\"a\"").expect("record a rendered");
        assert!(aa < za);
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond() {
        let baseline = vec![rec("a", 100), rec("b", 100), rec("c", 100)];
        let current = vec![rec("a", 124), rec("b", 126)];
        let verdicts = gate(&baseline, &current, 1.25);
        assert!(matches!(verdicts[0].1, Verdict::Ok { .. }));
        assert!(matches!(verdicts[1].1, Verdict::Regressed { .. }));
        assert!(matches!(verdicts[2].1, Verdict::Missing));
    }

    #[test]
    fn ratio_check_enforces_same_run_speedup() {
        let current = vec![rec("delta", 70), rec("full", 260)];
        assert!(check_ratio(&current, "delta", "full", 0.35).pass());
        assert!(!check_ratio(&current, "delta", "full", 0.25).pass());
        // A missing bench is a failed verdict, never a skipped one.
        let absent = check_ratio(&current, "absent", "full", 0.35);
        assert_eq!(absent.ratio, None);
        assert!(!absent.pass());
    }

    #[test]
    fn markdown_summary_tabulates_every_gate() {
        let baseline = vec![rec("a", 100), rec("gone", 100)];
        let current = vec![rec("a", 130), rec("soa", 43), rec("aos", 100)];
        let verdicts = gate(&baseline, &current, 1.25);
        let ratios = vec![
            check_ratio(&current, "soa", "aos", 0.6),
            check_ratio(&current, "soa", "absent", 0.6),
        ];
        let skipped = vec![SkippedRatio {
            num: "sharded".into(),
            den: "seq".into(),
            reason: "single-core runner".into(),
        }];
        let md = markdown_summary(&verdicts, &baseline, &current, 1.25, &ratios, &skipped);
        // One row per absolute gate and per ratio gate, pass or fail —
        // and one explicit row per declared-skipped gate, so a gate that
        // never ran cannot read as passing.
        assert!(md.contains("| `a` | 100 ns | 130 ns (1.30× base) | ≤ 1.25× base | ❌ |"));
        assert!(md.contains("| `gone` | 100 ns | missing | ≤ 1.25× base | ❌ |"));
        assert!(md.contains("| `soa` / `aos` | — | 0.430× | ≤ 0.60× | ✅ |"));
        assert!(md.contains("| `soa` / `absent` | — | missing | ≤ 0.60× | ❌ |"));
        assert!(md
            .contains("| `sharded` / `seq` | — | not run | — | ⏭️ skipped (single-core runner) |"));
    }

    #[test]
    fn skipped_ratio_gates_never_fail_but_ragged_pairs_do() {
        let dir = SweepDir::new(
            "skip-gate",
            &[(
                "bench.json",
                "[{\"id\":\"a\",\"min_ns\":100,\"mean_ns\":110,\"samples\":20}]",
            )],
        );
        let bench = format!("{}/bench.json", dir.path());
        let base: Vec<String> = [
            "--baseline",
            &bench,
            "--current",
            &bench,
            "--skip-ratio-num",
            "routing/dbf_delta_sharded_625",
            "--skip-ratio-den",
            "routing/dbf_delta_seq_625",
            "--skip-reason",
            "single-core runner",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        // The skipped gate is reported, not evaluated: the run passes even
        // though neither bench exists in the results.
        assert!(run_bench_gate(&base).is_ok());
        // A ragged declaration is an error — a silently dropped skip row
        // would defeat the whole point of declaring it.
        let mut ragged = base;
        ragged.push("--skip-ratio-num".into());
        ragged.push("routing/dbf_full_sharded_625".into());
        let err = run_bench_gate(&ragged).unwrap_err();
        assert!(err.contains("--skip-ratio-num/--skip-ratio-den"), "{err}");
    }

    #[test]
    fn speedup_points_pair_families_by_size() {
        let records = vec![
            rec("routing/dbf_delta_seq_1024", 300),
            rec("routing/dbf_delta_sharded_1024", 200),
            rec("routing/dbf_delta_seq_225", 90),
            rec("routing/dbf_delta_sharded_225", 100),
            rec("routing/dbf_delta_sharded_4096", 999), // no seq twin
            rec("routing/dbf_full_seq_625", 400),
            rec("unrelated/bench", 1),
        ];
        let delta = speedup_points(&records, "routing/dbf_delta");
        assert_eq!(
            delta,
            vec![
                SpeedupPoint {
                    n: 225,
                    seq_min_ns: Some(90),
                    sharded_min_ns: Some(100),
                },
                SpeedupPoint {
                    n: 1024,
                    seq_min_ns: Some(300),
                    sharded_min_ns: Some(200),
                },
                // The unpaired record is kept, its missing twin explicit.
                SpeedupPoint {
                    n: 4096,
                    seq_min_ns: None,
                    sharded_min_ns: Some(999),
                },
            ]
        );
        assert!((delta[1].speedup().expect("paired point") - 1.5).abs() < 1e-12);
        assert_eq!(delta[2].speedup(), None);
        // The full family holds one seq-only point — present, incomplete.
        let full = speedup_points(&records, "routing/dbf_full");
        assert_eq!(full.len(), 1);
        assert!(!full[0].complete());
        // The rendered document round-trips through the JSON scanner's
        // object grammar for complete rows and marks the ragged ones.
        let json = render_speedup(&delta, &full);
        assert!(json.contains("\"n\":1024"));
        assert!(json.contains("\"speedup\":1.5000"));
        assert!(json.contains("{\"n\":4096,\"seq_min_ns\":\"missing\",\"sharded_min_ns\":999,\"speedup\":\"missing\"}"));
        assert!(json.contains(
            "{\"n\":625,\"seq_min_ns\":400,\"sharded_min_ns\":\"missing\",\"speedup\":\"missing\"}"
        ));
    }

    #[test]
    fn ragged_speedup_sets_warn_by_default_and_fail_under_strict() {
        let complete = "{\"id\":\"routing/dbf_delta_seq_225\",\"min_ns\":90,\"mean_ns\":95,\"samples\":20}\n\
                        {\"id\":\"routing/dbf_delta_sharded_225\",\"min_ns\":45,\"mean_ns\":50,\"samples\":20}\n";
        let ragged = format!(
            "{complete}{{\"id\":\"routing/dbf_full_sharded_625\",\"min_ns\":70,\"mean_ns\":75,\"samples\":20}}\n"
        );
        let dir = SweepDir::new(
            "speedup-strict",
            &[("complete.jsonl", complete), ("ragged.jsonl", &ragged)],
        );
        let curve = |input: &str, strict: bool| {
            let mut args = vec![
                "--input".to_string(),
                format!("{}/{input}", dir.path()),
                "--output".to_string(),
                format!("{}/curve-{input}-{strict}.json", dir.path()),
            ];
            if strict {
                args.push("--strict".into());
            }
            run_speedup_curve(&args)
        };
        // A fully paired set passes even under --strict.
        assert!(curve("complete.jsonl", false).is_ok());
        assert!(curve("complete.jsonl", true).is_ok());
        // A ragged set still emits the curve (with explicit missing rows)
        // by default, but --strict turns it into a hard failure naming
        // the absent twin.
        assert!(curve("ragged.jsonl", false).is_ok());
        let written =
            std::fs::read_to_string(format!("{}/curve-ragged.jsonl-false.json", dir.path()))
                .expect("ragged curve file written");
        assert!(written.contains("\"missing\""), "{written}");
        let err = curve("ragged.jsonl", true).unwrap_err();
        assert!(err.contains("routing/dbf_full_seq_625"), "{err}");
        assert!(err.contains("--strict"), "{err}");
    }

    #[test]
    fn read_errors_name_the_input_file() {
        let dir = SweepDir::new(
            "read-errors",
            &[("truncated.jsonl", "{\"id\":\"a\",\"min_ns\":1,")],
        );
        let path = format!("{}/truncated.jsonl", dir.path());
        let err = read(&path).unwrap_err();
        assert!(
            err.contains("truncated.jsonl") && err.contains("unbalanced"),
            "a truncated CRITERION_JSON must fail naming the file: {err}"
        );
        let err = read("/nonexistent/bench.jsonl").unwrap_err();
        assert!(err.contains("/nonexistent/bench.jsonl"), "{err}");
    }

    #[test]
    fn repeated_flags_collect_in_order() {
        let args: Vec<String> = [
            "--ratio-num",
            "a",
            "--ratio-den",
            "b",
            "--ratio-max",
            "0.35",
            "--ratio-num",
            "c",
            "--ratio-den",
            "d",
            "--ratio-max",
            "0.5",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(arg_values(&args, "--ratio-num"), ["a", "c"]);
        assert_eq!(arg_values(&args, "--ratio-den"), ["b", "d"]);
        assert_eq!(arg_values(&args, "--ratio-max"), ["0.35", "0.5"]);
        assert!(arg_values(&args, "--absent").is_empty());
    }

    #[test]
    fn gate_tolerates_improvements_and_untracked_benches() {
        let baseline = vec![rec("a", 100)];
        let current = vec![rec("a", 10), rec("new", 999)];
        let verdicts = gate(&baseline, &current, 1.25);
        assert_eq!(verdicts.len(), 1, "untracked benches never gate");
        assert!(matches!(verdicts[0].1, Verdict::Ok { .. }));
    }

    /// Temp sweep directory populated with the given (name, contents)
    /// files; cleaned up on drop.
    struct SweepDir(std::path::PathBuf);

    impl SweepDir {
        fn new(tag: &str, files: &[(&str, &str)]) -> Self {
            let dir =
                std::env::temp_dir().join(format!("spms-xtask-sweep-{}-{tag}", std::process::id()));
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("cannot create sweep dir {}: {e}", dir.display()));
            for (name, contents) in files {
                std::fs::write(dir.join(name), contents)
                    .unwrap_or_else(|e| panic!("cannot write sweep file {name}: {e}"));
            }
            SweepDir(dir)
        }

        fn path(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for SweepDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn diff_args(a: &SweepDir, b: &SweepDir) -> Vec<String> {
        ["--a", &a.path(), "--b", &b.path()]
            .iter()
            .map(ToString::to_string)
            .collect()
    }

    #[test]
    fn sweep_diff_accepts_identical_directories() {
        let files = [("fig12.json", "{\"id\":\"fig12\"}\n"), ("fig6.json", "{}")];
        let a = SweepDir::new("eq-a", &files);
        let b = SweepDir::new("eq-b", &files);
        assert!(run_sweep_diff(&diff_args(&a, &b)).is_ok());
    }

    #[test]
    fn sweep_diff_rejects_content_and_set_differences() {
        let a = SweepDir::new("ne-a", &[("fig12.json", "{\"x\":1}"), ("fig6.json", "{}")]);
        let content = SweepDir::new("ne-b", &[("fig12.json", "{\"x\":2}"), ("fig6.json", "{}")]);
        let err = run_sweep_diff(&diff_args(&a, &content)).unwrap_err();
        assert!(err.contains("fig12.json"), "{err}");
        let missing = SweepDir::new("ne-c", &[("fig12.json", "{\"x\":1}")]);
        let err = run_sweep_diff(&diff_args(&a, &missing)).unwrap_err();
        assert!(err.contains("figure sets differ"), "{err}");
        // Non-JSON clutter (CSV twins) is ignored, not compared.
        let csv_a = SweepDir::new("csv-a", &[("fig12.json", "{}"), ("fig12.csv", "1,2")]);
        let csv_b = SweepDir::new("csv-b", &[("fig12.json", "{}"), ("fig12.csv", "3,4")]);
        assert!(run_sweep_diff(&diff_args(&csv_a, &csv_b)).is_ok());
    }

    #[test]
    fn sweep_diff_required_tokens_gate_the_corpus() {
        let files = [
            (
                "ext5.json",
                "{\"notes\":\"packets_dropped=9, bogus_advs=3\"}",
            ),
            ("fig6.json", "{}"),
        ];
        let a = SweepDir::new("req-a", &files);
        let b = SweepDir::new("req-b", &files);
        let mut args = diff_args(&a, &b);
        for token in ["packets_dropped", "bogus_advs"] {
            args.push("--require".into());
            args.push(token.into());
        }
        assert!(run_sweep_diff(&args).is_ok());
        // A token the sweep never produced fails the gate even though every
        // figure byte-matches.
        args.push("--require".into());
        args.push("churn_epochs".into());
        let err = run_sweep_diff(&args).unwrap_err();
        assert!(err.contains("churn_epochs"), "{err}");
    }

    #[test]
    fn sweep_diff_rejects_empty_or_absent_directories() {
        let a = SweepDir::new("empty-a", &[("fig12.json", "{}")]);
        let empty = SweepDir::new("empty-b", &[("readme.txt", "no json here")]);
        assert!(run_sweep_diff(&diff_args(&a, &empty)).is_err());
        let args: Vec<String> = ["--a", &a.path(), "--b", "/nonexistent-sweep-dir"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(run_sweep_diff(&args).is_err());
    }
}
