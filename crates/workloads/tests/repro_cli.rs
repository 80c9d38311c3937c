//! `repro`'s error paths and its simulation count, driven through the
//! built binary.
//!
//! Bad user input must end in one readable stderr line and exit 2 before
//! any figure runs — never a panic. A failed simulation or output write is
//! reported as it happens and turns the exit code to 1.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

/// A scratch file under the test target directory, unique per test.
fn scratch_file(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("scratch file is writable");
    path
}

/// Asserts the exit-2 contract and returns the single stderr line.
fn assert_rejected(args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a figure ran before the error"
    );
    stderr
}

#[test]
fn unknown_targets_flags_and_scales_exit_2() {
    let err = assert_rejected(&["fig99"]);
    assert!(err.contains("unknown target fig99"), "{err}");
    assert!(err.contains("fig12"), "names the valid targets: {err}");
    let err = assert_rejected(&["--bogus"]);
    assert!(err.contains("unknown flag --bogus"), "{err}");
    let err = assert_rejected(&["fig3", "--scale", "huge"]);
    assert!(err.contains("unknown scale huge"), "{err}");
}

#[test]
fn bad_adversary_churn_and_attack_values_exit_2() {
    for args in [
        &["fig12", "--adversary-fraction", "2"][..],
        &["fig12", "--adversary-fraction", "nan"],
        &["fig12", "--adversary-behavior", "sneaky"],
        &["fig12", "--churn-rate", "-1"],
        &[
            "fig12",
            "--adversary-fraction",
            "0.2",
            "--attack-factor",
            "0",
        ],
        &["fig12", "--attack-start", "-5"],
        &["fig12", "--attack-start", "nan"],
    ] {
        assert_rejected(args);
    }
}

#[test]
fn seed_ranges_past_the_largest_seed_exit_2() {
    let err = assert_rejected(&[
        "fig12",
        "--scale",
        "smoke",
        "--seed",
        "18446744073709551615",
        "--seeds",
        "2",
    ]);
    assert!(err.contains("--seeds 2"), "{err}");
}

#[test]
fn malformed_and_out_of_range_contact_plans_exit_2() {
    let malformed = scratch_file("malformed.cp", "0 1 2\n");
    let err = assert_rejected(&["fig3", "--contact-plan", malformed.to_str().unwrap()]);
    assert!(err.contains("line 1"), "{err}");
    // Both ends would saturate to the clock's maximum and the window
    // would silently vanish, leaving the link ungated.
    let far = scratch_file("far.cp", "0 1 2e10 3e10\n");
    let err = assert_rejected(&["fig3", "--contact-plan", far.to_str().unwrap()]);
    assert!(err.contains("line 1: start time"), "{err}");
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("missing.cp");
    assert_rejected(&["fig3", "--contact-plan", missing.to_str().unwrap()]);
}

#[test]
fn unwritable_output_warns_then_exits_1() {
    let file = scratch_file("not_a_dir", "");
    let out = repro(&["fig3", "--scale", "smoke", "--out", file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("warning: cannot create"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_contact_plan_beyond_the_topology_fails_its_runs_then_exits_1() {
    let plan = scratch_file("beyond.cp", "0 999 1 2\n");
    let plan = plan.to_str().unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("beyond");
    let dir = dir.to_str().unwrap();
    let out = repro(&[
        "fig10",
        "--scale",
        "smoke",
        "--contact-plan",
        plan,
        "--out",
        dir,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // Two node counts × two protocols × failure-free and failures.
    let failed = stderr
        .lines()
        .filter(|l| l.contains("contact plan names node n999"))
        .count();
    assert_eq!(failed, 8, "one line per failed run: {stderr}");
    assert!(out.stdout.is_empty(), "fig10 must not be emitted");

    // A target that reads no failed run is still emitted.
    let out = repro(&[
        "fig3",
        "fig12",
        "--scale",
        "smoke",
        "--contact-plan",
        plan,
        "--out",
        dir,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("fig3.json"),
        "fig3 must be written: {stderr}"
    );
    assert!(!stderr.contains("fig12.json"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("### fig3"));
}

#[test]
fn figures_sharing_a_sweep_run_it_once_per_seed() {
    // fig6 and fig8 read the failure-free node sweep, and fig10 reads it
    // again beside the failure sweep: 2 sweeps × 4 runs × 2 seeds.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shared");
    let out = repro(&[
        "fig6",
        "fig8",
        "fig10",
        "--scale",
        "smoke",
        "--seeds",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("repro: 16 simulations"), "{stderr}");
    for id in ["fig6", "fig8", "fig10"] {
        assert!(dir.join(format!("{id}_ci.csv")).is_file(), "{id}: {stderr}");
    }
}
