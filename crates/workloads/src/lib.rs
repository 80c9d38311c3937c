//! Workloads, experiments and figure regeneration for the SPMS
//! reproduction.
//!
//! This crate turns the `spms` engine into the paper's evaluation section:
//!
//! * [`traffic`] — builders for the two communication patterns of §5:
//!   all-to-all with Poisson arrivals, and cluster-based hierarchical
//!   traffic with 5% bystander interest,
//! * [`contact_plans`] — scheduled-connectivity generators (the
//!   satellite-pass backhaul and the inter-regional pipeline cut) feeding
//!   `SimConfig::contact_plan`,
//! * [`experiment`] — run specifications and the deterministic parallel
//!   sweep executor (a [`SweepConfig`]-sized worker pool whose results are
//!   byte-identical to the sequential path for any worker count, plus the
//!   sweep's adversary and contact-plan overrides),
//! * [`figures`] — one generator per paper figure (3, 5, 6–13), each
//!   returning a [`FigureResult`] with the same series the paper plots,
//!   plus the EXT1 (inter-zone) and EXT2 (network-lifetime) extension
//!   experiments,
//! * [`replication`] — multi-seed aggregation with Student-t 95%
//!   confidence intervals,
//! * [`report`] — markdown and CSV rendering for those results.
//!
//! The `repro` binary regenerates everything:
//!
//! ```text
//! cargo run --release -p spms-workloads --bin repro -- all --scale quick
//! cargo run --release -p spms-workloads --bin repro -- fig6 fig8 --scale paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contact_plans;
pub mod experiment;
pub mod figures;
pub mod replication;
pub mod report;
pub mod traffic;

pub use contact_plans::{interregional, satellite_passes};
pub use experiment::{
    run_specs_with, try_run_specs, AdversaryOverride, RunSpec, Scale, SweepConfig,
};
pub use figures::{FigureResult, SeriesData};
pub use replication::{
    render_replicated_csv, render_replicated_markdown, replicate, ReplicatedFigure,
    ReplicatedSeries,
};
pub use report::{render_ascii_chart, render_csv, render_json, render_markdown};
