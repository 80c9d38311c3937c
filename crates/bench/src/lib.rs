//! Shared helpers for the SPMS benchmark harness.
//!
//! The `figures` bench renders every simulated paper artifact through the
//! sweep plan at a reduced scale, so the measurement loop stays tractable,
//! and prints the series it produced, so `cargo bench` doubles as a
//! figure-regeneration smoke pass. The full-scale regeneration lives in the
//! `repro` binary
//! (`cargo run --release -p spms-workloads --bin repro -- all --scale paper`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spms_workloads::{render_markdown, FigureResult, Plan, Rendered, Scale, SweepConfig};

/// Prints a regenerated figure to the bench log (once, outside the timed
/// loop).
pub fn show(fig: &FigureResult) {
    println!("{}", render_markdown(fig));
}

/// The scale benches run at.
#[must_use]
pub fn bench_scale() -> Scale {
    Scale::smoke()
}

/// The figures of the `repro` target `id`, rendered through the sweep plan
/// at the bench scale and seed 42.
///
/// # Panics
///
/// Panics if `id` names no target or one of its runs fails: bench inputs
/// are fixed, so either is a bug.
#[must_use]
pub fn render(id: &str, sweep: &SweepConfig) -> Vec<FigureResult> {
    let outcome = Plan::new(&[id], &bench_scale(), &[42])
        .expect("a target id")
        .run(sweep);
    assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
    outcome
        .targets
        .into_iter()
        .flat_map(|(_, rendered)| match rendered {
            Some(Rendered::Figures(figures)) => figures.into_iter().flatten().collect(),
            _ => Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_scale_is_valid() {
        assert!(super::bench_scale().validate().is_ok());
    }
}
