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
//! Every subcommand takes only `--flag value` pairs and knows its own
//! flags: any other argument, or a flag without a value, exits non-zero
//! naming it, so a misspelt option cannot silently weaken a gate.
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

/// A subcommand's `--flag value` pairs, in command-line order.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args` as `--flag value` pairs naming only `known` flags. Any
    /// other argument, or a flag followed by no value or by another flag,
    /// is an error naming it.
    fn parse(command: &str, args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!(
                    "{command}: unknown flag {flag} (it takes {})",
                    known.join(", ")
                ));
            }
            match rest.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((flag.clone(), value.clone()));
                }
                _ => return Err(format!("{command}: flag {flag} needs a value")),
            }
        }
        Ok(Flags(pairs))
    }

    /// The first value of `flag`.
    fn value(&self, flag: &str) -> Option<String> {
        self.values(flag).into_iter().next()
    }

    /// All values of a repeatable flag, in order.
    fn values(&self, flag: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.clone())
            .collect()
    }
}

fn run_collect(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("collect", args, &["--input", "--output"])?;
    let input = flags
        .value("--input")
        .ok_or("collect needs --input <jsonl>")?;
    let output = flags
        .value("--output")
        .ok_or("collect needs --output <json>")?;
    let records = read(&input)?;
    std::fs::write(&output, render(&records)).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("collected {} bench records into {output}", records.len());
    Ok(())
}

fn run_bench_gate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "bench-gate",
        args,
        &[
            "--baseline",
            "--current",
            "--threshold",
            "--ratio-num",
            "--ratio-den",
            "--ratio-max",
        ],
    )?;
    let baseline_path = flags
        .value("--baseline")
        .ok_or("bench-gate needs --baseline <json>")?;
    let current_path = flags
        .value("--current")
        .ok_or("bench-gate needs --current <json>")?;
    let threshold: f64 = match flags.value("--threshold") {
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
    let nums = flags.values("--ratio-num");
    let dens = flags.values("--ratio-den");
    let maxes = flags.values("--ratio-max");
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
    // On GitHub runners, mirror the full scorecard into the job summary.
    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let table = markdown_summary(&verdicts, &baseline, &current, threshold, &ratios);
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
        "all {} tracked benches and {} ratio gates within budget",
        verdicts.len(),
        ratios.len()
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
    let flags = Flags::parse("sweep-diff", args, &["--a", "--b", "--require"])?;
    let dir_a = flags.value("--a").ok_or("sweep-diff needs --a <dir>")?;
    let dir_b = flags.value("--b").ok_or("sweep-diff needs --b <dir>")?;
    let required = flags.values("--require");
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
        Some("sweep-diff") => run_sweep_diff(&args[1..]),
        _ => Err("usage: xtask <collect|bench-gate|sweep-diff> [flags]\n\
                  \x20 collect    --input <jsonl> --output <json>\n\
                  \x20 bench-gate --baseline <json> --current <json> [--threshold 1.25]\n\
                  \x20            [--ratio-num <id> --ratio-den <id> --ratio-max <f>]...\n\
                  \x20 sweep-diff --a <dir> --b <dir> [--require <token>]..."
            .into()),
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
        // A missing bench is a failed verdict, never a passing one.
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
        let md = markdown_summary(&verdicts, &baseline, &current, 1.25, &ratios);
        // One row per absolute gate and per ratio gate, pass or fail.
        assert!(md.contains("| `a` | 100 ns | 130 ns (1.30× base) | ≤ 1.25× base | ❌ |"));
        assert!(md.contains("| `gone` | 100 ns | missing | ≤ 1.25× base | ❌ |"));
        assert!(md.contains("| `soa` / `aos` | — | 0.430× | ≤ 0.60× | ✅ |"));
        assert!(md.contains("| `soa` / `absent` | — | missing | ≤ 0.60× | ❌ |"));
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
        let known = ["--ratio-num", "--ratio-den", "--ratio-max", "--absent"];
        let flags = Flags::parse("bench-gate", &args, &known).expect("known flags parse");
        assert_eq!(flags.values("--ratio-num"), ["a", "c"]);
        assert_eq!(flags.values("--ratio-den"), ["b", "d"]);
        assert_eq!(flags.values("--ratio-max"), ["0.35", "0.5"]);
        assert_eq!(flags.value("--ratio-max").as_deref(), Some("0.35"));
        assert!(flags.values("--absent").is_empty());
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn unknown_or_valueless_flags_are_rejected_by_name() {
        // A misspelt ratio bound must not drop its gate silently.
        let err = run_bench_gate(&strings(&[
            "--baseline",
            "BENCH_baseline.json",
            "--current",
            "BENCH_baseline.json",
            "--ratio-num",
            "a",
            "--ratio-den",
            "b",
            "--ratio-maxx",
            "0.3",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown flag --ratio-maxx"), "{err}");
        let err = run_bench_gate(&strings(&["--baseline", "b.json", "--threshold"])).unwrap_err();
        assert!(err.contains("flag --threshold needs a value"), "{err}");
        let err = run_bench_gate(&strings(&["--threshold", "--baseline", "b.json"])).unwrap_err();
        assert!(err.contains("flag --threshold needs a value"), "{err}");
        let err = run_sweep_diff(&strings(&["--a", "x", "--b", "y", "--requre", "x"])).unwrap_err();
        assert!(err.contains("unknown flag --requre"), "{err}");
        let err = run_sweep_diff(&strings(&["--a", "x", "stray"])).unwrap_err();
        assert!(err.contains("unknown flag stray"), "{err}");
        let err =
            run_collect(&strings(&["--input", "in.jsonl", "--ouput", "out.json"])).unwrap_err();
        assert!(err.contains("unknown flag --ouput"), "{err}");
        let err = run_collect(&strings(&["--input"])).unwrap_err();
        assert!(err.contains("flag --input needs a value"), "{err}");
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
