//! One generator per paper figure.
//!
//! Every generator returns a [`FigureResult`] carrying the same series the
//! paper plots, plus notes comparing the measured shape against the paper's
//! claims. Every seeded generator runs its specs through the sweep
//! executor under the caller's [`SweepConfig`].

use spms::{ProtocolKind, RoutingMode, RunMetrics, SimConfig, TrafficPlan};
use spms_kernel::SimTime;
use spms_net::{placement, FailureConfig, MobilityConfig, Topology};

use crate::experiment::{run_specs_with, RunSpec, Scale, SweepConfig};
use crate::traffic;

/// One plotted series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesData {
    /// Legend label ("SPMS", "F-SPIN", …).
    pub name: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureResult {
    /// Short id ("fig6").
    pub id: &'static str,
    /// Human title matching the paper caption.
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// The series.
    pub series: Vec<SeriesData>,
    /// Shape observations (compared against the paper's claims).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// The series with the given name, if present.
    #[must_use]
    pub fn series_named(&self, name: &str) -> Option<&SeriesData> {
        self.series.iter().find(|s| s.name == name)
    }
}

fn grid(n: usize, spacing: f64) -> Topology {
    placement::square_grid(n, spacing).expect("scale validated perfect squares")
}

fn config(protocol: ProtocolKind, seed: u64, radius: f64) -> SimConfig {
    let mut c = SimConfig::paper_defaults(protocol, seed);
    c.zone_radius_m = radius;
    c
}

/// Percentage savings of `b` relative to `a` at each shared x, as
/// `(min%, max%)`.
fn savings_range(a: &SeriesData, b: &SeriesData) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for ((_, ya), (_, yb)) in a.points.iter().zip(b.points.iter()) {
        if *ya > 0.0 {
            let s = 100.0 * (1.0 - yb / ya);
            lo = lo.min(s);
            hi = hi.max(s);
        }
    }
    (lo, hi)
}

/// `x` rounded to a whole number as `{:.0}` prints it, except that a
/// value rounding to zero from below prints as "0", not "-0".
fn whole(x: f64) -> String {
    let text = format!("{x:.0}");
    if text == "-0" {
        "0".into()
    } else {
        text
    }
}

fn series_of(
    results: &[(String, RunMetrics)],
    name: &str,
    f: impl Fn(&RunMetrics) -> f64,
    xs: &[f64],
) -> SeriesData {
    let points = results
        .iter()
        .filter(|(label, _)| label.starts_with(name))
        .zip(xs.iter())
        .map(|((_, m), &x)| (x, f(m)))
        .collect();
    SeriesData {
        name: name.to_string(),
        points,
    }
}

// ---------------------------------------------------------------------
// Analytical figures.

/// Figure 3: analytical SPIN:SPMS delay ratio vs transmission radius.
#[must_use]
pub fn fig3(scale: &Scale) -> FigureResult {
    let density = 1.0 / (scale.spacing_m * scale.spacing_m);
    let radii: Vec<f64> = (1..=30).map(f64::from).collect();
    let s = spms_analysis::figures::fig3_series(&radii, density).expect("static inputs are valid");
    let last = s.points.last().map_or(0.0, |p| p.1);
    FigureResult {
        id: "fig3",
        title: "Ratio of end-to-end latency SPIN/SPMS vs transmission radius (analytical)".into(),
        x_label: "transmission radius (m)",
        y_label: "Delay_SPIN / Delay_SPMS",
        series: vec![SeriesData {
            name: "SPIN/SPMS".into(),
            points: s.points,
        }],
        notes: vec![
            format!("ratio approaches 3 from below (r=30m: {last:.3})"),
            "paper spot value at n1=45, ns=5: 2.7865 (reproduced by unit test)".into(),
        ],
    }
}

/// Figure 5: analytical SPIN:SPMS energy ratio vs transmission radius
/// (relay count on the unit grid).
#[must_use]
pub fn fig5(_scale: &Scale) -> FigureResult {
    let ks: Vec<u32> = (1..=12).collect();
    let s = spms_analysis::figures::fig5_series(&ks).expect("non-empty ks");
    let peak = s
        .points
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or((0.0, 0.0));
    FigureResult {
        id: "fig5",
        title: "Ratio of energy SPIN/SPMS vs radius of transmission (analytical)".into(),
        x_label: "radius of transmission (hops k)",
        y_label: "E_SPIN / E_SPMS",
        series: vec![SeriesData {
            name: "SPIN/SPMS".into(),
            points: s.points,
        }],
        notes: vec![
            format!(
                "SPMS saves energy throughout; peak ratio {:.2} at k={}",
                peak.1, peak.0
            ),
            "per the paper's own formula the ratio returns to parity near k = 1/f = 34".into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Simulation figures.

/// Shared sweep over node counts (static, failure-free): returns per-N
/// metrics for SPMS and SPIN.
fn node_sweep(
    scale: &Scale,
    seed: u64,
    sweep: &SweepConfig,
    failures: Option<FailureConfig>,
) -> Vec<(String, RunMetrics)> {
    let mut specs = Vec::new();
    for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
        for &n in &scale.node_counts {
            let mut c = config(protocol, seed ^ n as u64, 20.0);
            c.failures = failures;
            c.horizon = scale.horizon_for(n);
            let plan = traffic::all_to_all(
                n,
                scale.packets_per_node,
                scale.mean_gap,
                seed ^ (n as u64).rotate_left(17),
            )
            .expect("valid workload");
            specs.push(RunSpec {
                label: format!("{} n={n}", protocol.label()),
                config: c,
                topology: grid(n, scale.spacing_m),
                plan,
            });
        }
    }
    run_specs_with(specs, sweep)
}

/// Shared sweep over transmission radii at the scale's default node count.
fn radius_sweep(
    scale: &Scale,
    seed: u64,
    sweep: &SweepConfig,
    failures: Option<FailureConfig>,
    mobility: Option<MobilityConfig>,
    cluster: bool,
) -> Vec<(String, RunMetrics)> {
    let n = scale.default_nodes;
    let topo = grid(n, scale.spacing_m);
    let mut specs = Vec::new();
    for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
        for &r in &scale.radii_m {
            let mut c = config(protocol, seed ^ (r as u64) << 8, r);
            c.failures = failures;
            c.mobility = mobility;
            c.horizon = scale.horizon_for(n);
            if mobility.is_some() && protocol == ProtocolKind::Spms {
                // Mobility runs charge SPMS its routing-table formation
                // (§5.1.3: "The energy expended in SPMS in forming routing
                // tables is included in the energy measurement"). Epoch
                // re-convergence is incremental: only the zones the moved
                // nodes touched exchange delta vectors, and only those
                // bytes are charged.
                c.routing_mode = RoutingMode::Distributed;
                c.incremental_routing = true;
            }
            let plan: TrafficPlan = if cluster {
                traffic::cluster_hierarchical(
                    &topo,
                    &c.radio,
                    r,
                    scale.packets_per_node,
                    scale.mean_gap,
                    0.05,
                    seed ^ 0xC0FFEE,
                )
                .expect("valid cluster workload")
            } else {
                traffic::all_to_all(n, scale.packets_per_node, scale.mean_gap, seed ^ 0xBEEF)
                    .expect("valid workload")
            };
            specs.push(RunSpec {
                label: format!("{} r={r}", protocol.label()),
                config: c,
                topology: topo.clone(),
                plan,
            });
        }
    }
    run_specs_with(specs, sweep)
}

/// Figures 6 and 8: energy per packet and average delay vs node count
/// (static failure-free, radius 20 m).
#[must_use]
pub fn fig6_fig8(scale: &Scale, seed: u64, sweep: &SweepConfig) -> (FigureResult, FigureResult) {
    let results = node_sweep(scale, seed, sweep, None);
    let xs: Vec<f64> = scale.node_counts.iter().map(|&n| n as f64).collect();
    let spms_e = series_of(&results, "SPMS", RunMetrics::energy_per_packet_uj, &xs);
    let spin_e = series_of(&results, "SPIN", RunMetrics::energy_per_packet_uj, &xs);
    let (lo, hi) = savings_range(&spin_e, &spms_e);
    let fig6 = FigureResult {
        id: "fig6",
        title: "Energy consumed by SPIN and SPMS with varying number of sensor nodes \
                (radius 20 m)"
            .into(),
        x_label: "number of nodes",
        y_label: "energy per packet (µJ)",
        series: vec![spms_e, spin_e],
        notes: vec![
            format!("SPMS saves {}%–{}% (paper: 26%–43%)", whole(lo), whole(hi)),
            "gap widens with network size, as in the paper".into(),
        ],
    };
    let spms_d = series_of(&results, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let spin_d = series_of(&results, "SPIN", RunMetrics::avg_delay_ms, &xs);
    let speedups: Vec<f64> = spin_d
        .points
        .iter()
        .zip(spms_d.points.iter())
        .filter(|(_, (_, y))| *y > 0.0)
        .map(|((_, a), (_, b))| a / b)
        .collect();
    let avg_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let fig8 = FigureResult {
        id: "fig8",
        title: "End-to-end delay with varying number of nodes (radius 20 m)".into(),
        x_label: "number of nodes",
        y_label: "delay (ms/packet)",
        series: vec![spms_d, spin_d],
        notes: vec![format!(
            "SPIN/SPMS delay ratio averages {avg_speedup:.1}× (paper: ≈10×)"
        )],
    };
    (fig6, fig8)
}

/// Figures 7 and 9: energy per packet and average delay vs transmission
/// radius (static failure-free, N = default).
#[must_use]
pub fn fig7_fig9(scale: &Scale, seed: u64, sweep: &SweepConfig) -> (FigureResult, FigureResult) {
    let results = radius_sweep(scale, seed, sweep, None, None, false);
    let xs = scale.radii_m.clone();
    let spms_e = series_of(&results, "SPMS", RunMetrics::energy_per_packet_uj, &xs);
    let spin_e = series_of(&results, "SPIN", RunMetrics::energy_per_packet_uj, &xs);
    let (lo, hi) = savings_range(&spin_e, &spms_e);
    let fig7 = FigureResult {
        id: "fig7",
        title: format!(
            "Energy consumed by SPIN and SPMS with different transmission radii \
             (nodes = {})",
            scale.default_nodes
        ),
        x_label: "radius of transmission (m)",
        y_label: "energy per packet (µJ)",
        series: vec![spms_e, spin_e],
        notes: vec![format!(
            "SPMS advantage grows with radius: savings {}%–{}% across the sweep",
            whole(lo),
            whole(hi)
        )],
    };
    let spms_d = series_of(&results, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let spin_d = series_of(&results, "SPIN", RunMetrics::avg_delay_ms, &xs);
    let fig9 = FigureResult {
        id: "fig9",
        title: format!(
            "End-to-end delay variation with transmission radius (nodes = {})",
            scale.default_nodes
        ),
        x_label: "radius of transmission (m)",
        y_label: "delay (ms/packet)",
        series: vec![spms_d, spin_d],
        notes: vec![
            "SPMS below SPIN at every radius".into(),
            "hop-count reduction dominates at small radii; the paper's G·n² \
             contention model makes delay rise again at large radii"
                .into(),
        ],
    };
    (fig7, fig9)
}

/// Figure 10: delay vs node count with transient failures — four series
/// (SPMS, F-SPMS, SPIN, F-SPIN).
#[must_use]
pub fn fig10(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let ff = node_sweep(scale, seed, sweep, None);
    let f = node_sweep(scale, seed, sweep, Some(FailureConfig::paper_defaults()));
    let xs: Vec<f64> = scale.node_counts.iter().map(|&n| n as f64).collect();
    let spms = series_of(&ff, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let spin = series_of(&ff, "SPIN", RunMetrics::avg_delay_ms, &xs);
    let mut fspms = series_of(&f, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let mut fspin = series_of(&f, "SPIN", RunMetrics::avg_delay_ms, &xs);
    fspms.name = "F-SPMS".into();
    fspin.name = "F-SPIN".into();
    let bump = |ff: &SeriesData, f: &SeriesData| -> f64 {
        ff.points
            .iter()
            .zip(f.points.iter())
            .map(|((_, a), (_, b))| b - a)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let notes = vec![
        format!(
            "failures add up to {:.1} ms (SPMS) / {:.1} ms (SPIN) of delay",
            bump(&spms, &fspms),
            bump(&spin, &fspin)
        ),
        "failure/failure-free gap grows with network size, as in the paper".into(),
    ];
    FigureResult {
        id: "fig10",
        title: "End-to-end delay with varying number of nodes for static nodes with \
                transient failures"
            .into(),
        x_label: "number of nodes",
        y_label: "delay (ms/packet)",
        series: vec![spms, fspms, spin, fspin],
        notes,
    }
}

/// Figure 11: delay vs transmission radius with transient failures.
#[must_use]
pub fn fig11(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let ff = radius_sweep(scale, seed, sweep, None, None, false);
    let f = radius_sweep(
        scale,
        seed,
        sweep,
        Some(FailureConfig::paper_defaults()),
        None,
        false,
    );
    let xs = scale.radii_m.clone();
    let spms = series_of(&ff, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let spin = series_of(&ff, "SPIN", RunMetrics::avg_delay_ms, &xs);
    let mut fspms = series_of(&f, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let mut fspin = series_of(&f, "SPIN", RunMetrics::avg_delay_ms, &xs);
    fspms.name = "F-SPMS".into();
    fspin.name = "F-SPIN".into();
    FigureResult {
        id: "fig11",
        title: "End-to-end delay with transmission radius for static nodes with \
                transient failures"
            .into(),
        x_label: "radius of transmission (m)",
        y_label: "delay (ms/packet)",
        series: vec![spms, fspms, spin, fspin],
        notes: vec![
            "failure curves sit above failure-free counterparts; the gap grows \
             with radius as relay chains lengthen (paper §5.1.2)"
                .into(),
        ],
    }
}

/// The mobility configuration used by Figure 12 (the paper does not publish
/// its values): an epoch every ~80 packet births relocating 5% of the
/// nodes. §5.1.3's own break-even analysis says ≥ ~239 packets must flow
/// between epochs for SPMS to win at the reference zone; 80 packets sits
/// below that at the largest radii (visible erosion, the paper's 5–21%
/// regime) while keeping SPMS ahead at moderate ones.
#[must_use]
pub fn fig12_mobility(scale: &Scale) -> MobilityConfig {
    MobilityConfig::new(scale.mean_gap * 80, 0.05).expect("static config is valid")
}

/// Figure 12: energy vs transmission radius under mobility (all-to-all).
/// SPMS runs distributed Bellman-Ford and is charged for every
/// re-convergence.
#[must_use]
pub fn fig12(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let results = radius_sweep(scale, seed, sweep, None, Some(fig12_mobility(scale)), false);
    let xs = scale.radii_m.clone();
    let spms = series_of(&results, "SPMS", RunMetrics::energy_per_packet_uj, &xs);
    let spin = series_of(&results, "SPIN", RunMetrics::energy_per_packet_uj, &xs);
    let (lo, hi) = savings_range(&spin, &spms);
    let routing_share: Vec<f64> = results
        .iter()
        .filter(|(l, _)| l.starts_with("SPMS"))
        .map(|(_, m)| {
            100.0 * m.energy.get(spms_phy::EnergyCategory::Routing).value()
                / m.energy.total().value().max(f64::MIN_POSITIVE)
        })
        .collect();
    let max_share = routing_share.iter().fold(0.0f64, |a, &b| a.max(b));
    let (delta_execs, total_execs) =
        results
            .iter()
            .filter(|(l, _)| l.starts_with("SPMS"))
            .fold((0, 0), |(d, t), (_, m)| {
                (
                    d + m.routing.incremental_executions,
                    t + m.routing.executions,
                )
            });
    let (zone_patches, zone_rows) = results
        .iter()
        .filter(|(l, _)| l.starts_with("SPMS"))
        .fold((0, 0), |(p, r), (_, m)| {
            (p + m.routing.zone_patches, r + m.routing.zone_rows_patched)
        });
    let (sharded_execs, batch_windows, coalesced) = results
        .iter()
        .filter(|(l, _)| l.starts_with("SPMS"))
        .fold((0, 0, 0), |(s, w, c), (_, m)| {
            (
                s + m.routing.sharded_executions,
                w + m.routing.batch_windows,
                c + m.routing.epochs_coalesced,
            )
        });
    FigureResult {
        id: "fig12",
        title: "Energy consumed with transmission radius for mobile nodes in \
                all-to-all communication"
            .into(),
        x_label: "radius of transmission (m)",
        y_label: "energy per packet (µJ)",
        series: vec![spms, spin],
        notes: vec![
            format!(
                "SPMS saves {}%–{}% under mobility (paper: 5%–21%)",
                whole(lo),
                whole(hi)
            ),
            format!("DBF re-execution accounts for up to {max_share:.0}% of SPMS energy"),
            format!(
                "{delta_execs} of {total_execs} DBF executions were incremental \
                 delta re-convergences"
            ),
            format!(
                "{zone_patches} mobility epochs patched the zone table in place \
                 ({zone_rows} rows rebuilt vs a full O(n²) build per epoch)"
            ),
            format!(
                "{sharded_execs} delta re-convergences ran through the zone-shard \
                 planner over {batch_windows} batching windows \
                 ({coalesced} epochs coalesced at batch_epochs = 1)"
            ),
        ],
    }
}

/// Figure 13: energy vs transmission radius for cluster-based hierarchical
/// communication, failure-free and with failures.
#[must_use]
pub fn fig13(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let ff = radius_sweep(scale, seed, sweep, None, None, true);
    let f = radius_sweep(
        scale,
        seed,
        sweep,
        Some(FailureConfig::paper_defaults()),
        None,
        true,
    );
    let xs = scale.radii_m.clone();
    let spms = series_of(&ff, "SPMS", RunMetrics::energy_per_packet_uj, &xs);
    let spin = series_of(&ff, "SPIN", RunMetrics::energy_per_packet_uj, &xs);
    let mut fspms = series_of(&f, "SPMS", RunMetrics::energy_per_packet_uj, &xs);
    let mut fspin = series_of(&f, "SPIN", RunMetrics::energy_per_packet_uj, &xs);
    fspms.name = "F-SPMS".into();
    fspin.name = "F-SPIN".into();
    let (lo, hi) = savings_range(&spin, &spms);
    FigureResult {
        id: "fig13",
        title: "Energy consumed with transmission radius for cluster-based \
                hierarchical communication"
            .into(),
        x_label: "radius of transmission (m)",
        y_label: "energy per packet (µJ)",
        series: vec![spms, spin, fspms, fspin],
        notes: vec![
            format!(
                "SPMS saves {}%–{}% failure-free (paper: 35%–59%)",
                whole(lo),
                whole(hi)
            ),
            "failure runs consume more energy than failure-free runs".into(),
        ],
    }
}

/// EXT1 (the paper's §6 future work, implemented here): inter-zone
/// dissemination on a pipeline field — a line of motes with the source at
/// one end, sinks at the other, and **no interested node in between**.
///
/// Sweeps the pipeline length and compares:
/// * `SPMS-IZ` — the bordercast + inter-zone REQ extension;
/// * `SPMS-IZ+cache` — the same plus relay caching/serve-from-cache;
/// * `FLOOD` — the only baseline that also delivers;
/// * `SPMS` — shown to confirm the motivating gap (delivery drops to zero
///   once the sink leaves the source's zone).
///
/// Returns (delivery-ratio figure, energy-per-delivery figure). The energy
/// figure omits protocols/points with zero deliveries.
#[must_use]
pub fn ext1(scale: &Scale, seed: u64, sweep: &SweepConfig) -> (FigureResult, FigureResult) {
    let lengths: &[usize] = if scale.node_counts.len() >= 4 {
        &[9, 13, 17, 21, 25]
    } else {
        &[9, 17, 25]
    };
    let items = scale.packets_per_node.min(4);
    let mut specs = Vec::new();
    for &(label, protocol, caching) in &[
        ("SPMS-IZ", ProtocolKind::SpmsIz, false),
        ("SPMS-IZ+cache", ProtocolKind::SpmsIz, true),
        ("FLOOD", ProtocolKind::Flooding, false),
        ("SPMS", ProtocolKind::Spms, false),
    ] {
        for &len in lengths {
            let mut c = config(protocol, seed ^ (len as u64) << 4, 20.0);
            c.relay_caching = caching;
            c.serve_from_cache = caching;
            c.horizon = SimTime::from_secs(120);
            let sink = spms_net::NodeId::new(len as u32 - 1);
            let plan = traffic::pipeline(spms_net::NodeId::new(0), &[sink], items, scale.mean_gap)
                .expect("valid pipeline workload");
            specs.push(RunSpec {
                label: format!("{label} len={len}"),
                config: c,
                topology: placement::grid(len, 1, scale.spacing_m).expect("valid line"),
                plan,
            });
        }
    }
    let results = run_specs_with(specs, sweep);
    let xs: Vec<f64> = lengths
        .iter()
        .map(|&l| (l as f64 - 1.0) * scale.spacing_m)
        .collect();
    let names = ["SPMS-IZ+cache", "SPMS-IZ", "FLOOD", "SPMS"];
    // `series_of` matches by prefix, so test the longer name first and
    // filter exact-prefix collisions via the label format "{name} len=".
    let pick = |name: &str, f: &dyn Fn(&RunMetrics) -> f64| SeriesData {
        name: name.to_string(),
        points: results
            .iter()
            .filter(|(label, _)| label.rsplit_once(" len=").map(|(p, _)| p) == Some(name))
            .zip(xs.iter())
            .map(|((_, m), &x)| (x, f(m)))
            .collect(),
    };
    let ratio_series: Vec<SeriesData> = names
        .iter()
        .map(|n| pick(n, &|m: &RunMetrics| m.delivery_ratio()))
        .collect();
    let iz_full = ratio_series[1].points.iter().all(|&(_, y)| y == 1.0);
    let spms_gap = ratio_series[3]
        .points
        .iter()
        .filter(|&&(x, _)| x > 20.0)
        .all(|&(_, y)| y == 0.0);
    let ext1a = FigureResult {
        id: "ext1a",
        title: "EXT1: delivery ratio vs pipeline length (source and sinks in \
                separate zones, uninterested middle)"
            .into(),
        x_label: "pipeline length (m)",
        y_label: "delivery ratio",
        series: ratio_series,
        notes: vec![
            format!("SPMS-IZ delivers everywhere: {iz_full}"),
            format!("base SPMS delivers nothing beyond one zone: {spms_gap}"),
        ],
    };
    let energy_series: Vec<SeriesData> = names
        .iter()
        .map(|n| {
            let mut s = pick(n, &|m: &RunMetrics| {
                if m.deliveries == 0 {
                    f64::NAN
                } else {
                    m.energy.total().value() / m.deliveries as f64
                }
            });
            s.points.retain(|p| p.1.is_finite());
            s
        })
        .filter(|s| !s.points.is_empty())
        .collect();
    let cheaper = {
        let iz = energy_series.iter().find(|s| s.name == "SPMS-IZ");
        let fl = energy_series.iter().find(|s| s.name == "FLOOD");
        match (iz, fl) {
            (Some(iz), Some(fl)) => iz
                .points
                .iter()
                .zip(fl.points.iter())
                .all(|((_, a), (_, b))| a < b),
            _ => false,
        }
    };
    let model = spms_analysis::InterZoneModel::mica2_instance();
    let predicted: Vec<String> = lengths
        .iter()
        .map(|&l| format!("{:.1}×@{}n", model.ratio(l as u32), l))
        .collect();
    let ext1b = FigureResult {
        id: "ext1b",
        title: "EXT1: energy per delivered item vs pipeline length".into(),
        x_label: "pipeline length (m)",
        y_label: "energy per delivery (µJ)",
        series: energy_series,
        notes: vec![
            format!("bordercast pull beats flooding at every length: {cheaper}"),
            format!(
                "closed-form FLOOD/IZ ratio (spms-analysis MICA2 instance): {}",
                predicted.join(", ")
            ),
        ],
    };
    (ext1a, ext1b)
}

/// EXT2 (no paper figure): network-lifetime view of the energy results.
///
/// The paper reports *network-total* energy, but sensor-network lifetime
/// is set by the **hottest battery**. Using the engine's per-node energy
/// accounting, this figure sweeps the transmission radius (all-to-all
/// workload, as Figure 7) and plots the hottest node's energy per packet
/// for SPMS and SPIN, with max-to-mean imbalance in the notes. SPIN
/// serves every requester with a maximum-power unicast from the holder,
/// so its hottest node runs away with the radius; SPMS spreads the load
/// across relays.
#[must_use]
pub fn ext2(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let results = radius_sweep(scale, seed, sweep, None, None, false);
    let xs = scale.radii_m.clone();
    let hottest_per_packet = |m: &RunMetrics| {
        if m.packets_generated == 0 {
            0.0
        } else {
            m.per_node_energy_uj.iter().cloned().fold(0.0, f64::max) / m.packets_generated as f64
        }
    };
    let spms_hot = series_of(&results, "SPMS", hottest_per_packet, &xs);
    let spin_hot = series_of(&results, "SPIN", hottest_per_packet, &xs);
    let (lo, hi) = savings_range(&spin_hot, &spms_hot);
    let imbalance = |name: &str| {
        let vals: Vec<f64> = results
            .iter()
            .filter(|(label, _)| label.starts_with(name))
            .map(|(_, m)| m.energy_imbalance())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let mut spms_hot = spms_hot;
    let mut spin_hot = spin_hot;
    spms_hot.name = "SPMS hottest".into();
    spin_hot.name = "SPIN hottest".into();
    FigureResult {
        id: "ext2",
        title: "EXT2: hottest-node energy per packet vs transmission radius \
                (network-lifetime view of Figure 7)"
            .into(),
        x_label: "radius of transmission (m)",
        y_label: "hottest node energy per packet (µJ)",
        series: vec![spms_hot, spin_hot],
        notes: vec![
            format!(
                "hottest-battery savings of SPMS over SPIN: {}%–{}%",
                whole(lo),
                whole(hi)
            ),
            format!(
                "mean max-to-mean imbalance: SPMS {:.1}×, SPIN {:.1}×",
                imbalance("SPMS"),
                imbalance("SPIN")
            ),
        ],
    }
}

/// EXT3 (no paper figure): deliveries before battery exhaustion vs
/// per-node battery capacity — the "energy aware" title made literal.
///
/// Every node gets the same finite budget (`SimConfig::
/// battery_capacity_uj`); depleted nodes die permanently. Under a
/// sustained all-to-all stream, the plotted series show how much useful
/// work each protocol extracts from the same total battery: SPMS's
/// low-power multi-hop spends roughly an order of magnitude less per
/// delivery, so its curve dominates SPIN's at every capacity.
#[must_use]
pub fn ext3(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let n = 25usize; // 5×5 grid: lifetime runs execute to total exhaustion
    let capacities = [1.0f64, 2.0, 4.0, 8.0, 16.0];
    let packets = scale.packets_per_node.max(6);
    let mut specs = Vec::new();
    for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
        for &cap in &capacities {
            let mut c = config(protocol, seed ^ (cap as u64) << 3, 20.0);
            c.battery_capacity_uj = Some(cap);
            c.horizon = SimTime::from_secs(300);
            let plan = traffic::all_to_all(n, packets, SimTime::from_millis(300), seed ^ 0xBA77)
                .expect("valid workload");
            specs.push(RunSpec {
                label: format!("{} cap={cap}", protocol.label()),
                config: c,
                topology: placement::grid(5, 5, scale.spacing_m).expect("5×5 grid"),
                plan,
            });
        }
    }
    let results = run_specs_with(specs, sweep);
    let xs: Vec<f64> = capacities.to_vec();
    let spms = series_of(&results, "SPMS", |m| m.deliveries as f64, &xs);
    let spin = series_of(&results, "SPIN", |m| m.deliveries as f64, &xs);
    let advantage: Vec<f64> = spms
        .points
        .iter()
        .zip(spin.points.iter())
        .filter(|(_, (_, b))| *b > 0.0)
        .map(|((_, a), (_, b))| a / b)
        .collect();
    let mean_adv = advantage.iter().sum::<f64>() / advantage.len().max(1) as f64;
    let first_deaths: Vec<String> = results
        .iter()
        .filter(|(label, _)| label.ends_with("cap=4"))
        .map(|(label, m)| {
            format!(
                "{}: first death {}",
                label,
                m.first_death_at
                    .map_or("never".to_string(), |t| format!("{t}"))
            )
        })
        .collect();
    FigureResult {
        id: "ext3",
        title: "EXT3: deliveries before battery exhaustion vs per-node capacity \
                (25 nodes, sustained all-to-all)"
            .into(),
        x_label: "battery capacity (µJ/node)",
        y_label: "deliveries completed",
        series: vec![spms, spin],
        notes: vec![
            format!("SPMS delivers {mean_adv:.1}× more from the same batteries"),
            first_deaths.join("; "),
        ],
    }
}

/// EXT4 (no paper figure): the high-rate many-flow regime — every node a
/// concurrent Poisson source ([`traffic::many_flows`]), arrival gap swept
/// from relaxed to saturating. This is the event-queue stress workload:
/// at the tightest gap the engine's pending-event population and
/// same-instant tie traffic peak. The plotted series are deliveries and
/// engine events processed per generated packet.
#[must_use]
pub fn ext4(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    let n = 25usize; // 5×5 grid keeps the saturating sweep CI-sized
    let gaps_us = [2000.0f64, 500.0, 100.0, 25.0];
    let packets = scale.packets_per_node.max(4);
    let mut specs = Vec::new();
    for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
        for &gap in &gaps_us {
            let mut c = config(protocol, seed ^ (gap as u64) << 2, 20.0);
            c.horizon = scale.horizon_for(n);
            let plan =
                traffic::many_flows(n, packets, SimTime::from_micros(gap as u64), seed ^ 0xEF04)
                    .expect("valid many-flow workload");
            specs.push(RunSpec {
                label: format!("{} gap={gap}", protocol.label()),
                config: c,
                topology: placement::grid(5, 5, scale.spacing_m).expect("5×5 grid"),
                plan,
            });
        }
    }
    let results = run_specs_with(specs, sweep);
    let xs: Vec<f64> = gaps_us.to_vec();
    let deliveries = |m: &RunMetrics| m.deliveries as f64;
    let events_per_packet = |m: &RunMetrics| {
        if m.packets_generated == 0 {
            0.0
        } else {
            m.events_processed as f64 / m.packets_generated as f64
        }
    };
    let mut spms_del = series_of(&results, "SPMS", deliveries, &xs);
    let mut spin_del = series_of(&results, "SPIN", deliveries, &xs);
    spms_del.name = "SPMS deliveries".into();
    spin_del.name = "SPIN deliveries".into();
    let mut spms_ev = series_of(&results, "SPMS", events_per_packet, &xs);
    let mut spin_ev = series_of(&results, "SPIN", events_per_packet, &xs);
    spms_ev.name = "SPMS events/packet".into();
    spin_ev.name = "SPIN events/packet".into();
    let total_events: u64 = results.iter().map(|(_, m)| m.events_processed).sum();
    let peak_ev = spms_ev
        .points
        .iter()
        .chain(spin_ev.points.iter())
        .map(|&(_, y)| y)
        .fold(0.0, f64::max);
    FigureResult {
        id: "ext4",
        title: "EXT4: many concurrent flows at shrinking arrival gaps \
                (25 nodes, one Poisson source per node)"
            .into(),
        x_label: "mean arrival gap (µs, log-spaced)",
        y_label: "deliveries / engine events per packet",
        series: vec![spms_del, spin_del, spms_ev, spin_ev],
        notes: vec![
            format!("{total_events} engine events across the sweep (kernel-independent)"),
            format!("peak event amplification: {peak_ev:.0} engine events per generated packet"),
        ],
    }
}

/// EXT5 (no paper figure): delivery ratio and energy per packet vs
/// adversary fraction, per protocol — the robustness counterpart of the
/// failure figures. A seeded roster of flooding attackers (bogus zone-wide
/// ADVs for data they never serve, `attack_factor` per first-seen item,
/// every received packet swallowed) is grown from 0 to the sweep's top
/// fraction. Flooding and SPIN lose exactly the swallowed receivers; SPMS
/// additionally pays REQ/τDAT failovers for requests lured to attackers.
///
/// Every spec pins its own [`spms::AdversaryConfig`], so the figure is
/// immune to [`SweepConfig::adversary`] (the `--adversary-*` flags) —
/// which is what lets the adversarial-smoke CI step byte-diff its JSON
/// across `--workers` while still sweeping fractions *inside* the figure.
#[must_use]
pub fn ext5(scale: &Scale, seed: u64, sweep: &SweepConfig) -> FigureResult {
    // A 5×5 grid as EXT3/EXT4. Two fractions at smoke scale (the CI
    // adversarial-smoke sweep), a five-point curve at quick/paper scale.
    let n = 25usize;
    let fractions: Vec<f64> = if scale.node_counts.len() <= 2 {
        vec![0.0, 0.2]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.4]
    };
    let packets = scale.packets_per_node.max(2);
    let protocols = [
        ProtocolKind::Flooding,
        ProtocolKind::Spin,
        ProtocolKind::Spms,
    ];
    let mut specs = Vec::new();
    for protocol in protocols {
        for &fraction in &fractions {
            let mut c = config(protocol, seed ^ ((fraction * 100.0) as u64) << 3, 20.0);
            c.adversary = Some(spms::AdversaryConfig {
                fraction,
                behavior: spms::NodeBehavior::Flooding,
                attack_start: SimTime::ZERO,
                attack_factor: 3,
                explicit: None,
            });
            c.horizon = scale.horizon_for(n);
            let plan = traffic::all_to_all(n, packets, scale.mean_gap, seed ^ 0xADF5)
                .expect("valid workload");
            specs.push(RunSpec {
                label: format!("{} f={fraction}", protocol.label()),
                config: c,
                topology: placement::grid(5, 5, scale.spacing_m).expect("5×5 grid"),
                plan,
            });
        }
    }
    let results = run_specs_with(specs, sweep);
    let xs: Vec<f64> = fractions.clone();
    let mut series = Vec::new();
    for protocol in protocols {
        let name = protocol.label();
        let mut delivery = series_of(&results, name, RunMetrics::delivery_ratio, &xs);
        delivery.name = format!("{name} delivery");
        series.push(delivery);
    }
    for protocol in protocols {
        let name = protocol.label();
        let mut energy = series_of(&results, name, RunMetrics::energy_per_packet_uj, &xs);
        energy.name = format!("{name} energy");
        series.push(energy);
    }
    let dropped: u64 = results
        .iter()
        .map(|(_, m)| m.adversary.packets_dropped)
        .sum();
    let bogus: u64 = results.iter().map(|(_, m)| m.adversary.bogus_advs).sum();
    let adversaries: u64 = results.iter().map(|(_, m)| m.adversary.adversaries).sum();
    FigureResult {
        id: "ext5",
        title: format!(
            "EXT5: delivery ratio and energy per packet vs adversary fraction \
             (25 nodes, flooding attackers ×3, fractions up to {:.1})",
            fractions.last().copied().unwrap_or(0.0)
        ),
        x_label: "adversary fraction",
        y_label: "delivery ratio / energy per packet (µJ)",
        series,
        notes: vec![
            format!(
                "{adversaries} adversaries fielded across the sweep: packets_dropped={dropped}, \
                 bogus_advs={bogus} (byte-checked by the adversarial-smoke CI step)"
            ),
            "every spec pins its own AdversaryConfig, so the figure is immune to the \
             process-wide --adversary-* override"
                .into(),
        ],
    }
}

/// EXT6 (no paper figure): scheduled connectivity — delivery ratio and
/// energy per delivered item vs contact duty cycle, per protocol.
///
/// The 5×5 field is split by a satellite-pass backhaul
/// ([`crate::contact_plans::satellite_passes`]): every link crossing the
/// vertical seam is up only for the first `duty × period` of each pass
/// period, while both halves keep their full local connectivity. At
/// `duty = 1` the plan gates but never drops, reproducing the ungated
/// field; as the duty cycle shrinks, items born while the seam is down
/// never cross it, so delivery degrades toward the intra-half ceiling.
///
/// Every spec pins its own [`SimConfig::contact_plan`], so the figure is
/// immune to [`SweepConfig::contact_plan`] (the `--contact-plan` flag) —
/// which is what lets the sweep-smoke CI step byte-diff its JSON across
/// `--workers` while still sweeping duty cycles *inside* the figure.
/// Returns (delivery-ratio figure, energy-per-delivery figure).
#[must_use]
pub fn ext6(scale: &Scale, seed: u64, sweep: &SweepConfig) -> (FigureResult, FigureResult) {
    // A 5×5 grid as EXT3–EXT5. Two duty cycles at smoke scale (the CI
    // sweep-smoke step), a five-point curve at quick/paper scale.
    let side = 5usize;
    let n = side * side;
    let duties: Vec<f64> = if scale.node_counts.len() <= 2 {
        vec![0.3, 1.0]
    } else {
        vec![0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let period = scale.mean_gap * 5;
    let horizon = scale.horizon_for(n);
    let packets = scale.packets_per_node.max(2);
    let protocols = [
        ProtocolKind::Flooding,
        ProtocolKind::Spin,
        ProtocolKind::Spms,
    ];
    let mut specs = Vec::new();
    for protocol in protocols {
        for &duty in &duties {
            let mut c = config(protocol, seed ^ ((duty * 100.0) as u64) << 3, 20.0);
            c.horizon = horizon;
            c.contact_plan = Some(
                crate::contact_plans::satellite_passes(side, period, duty, horizon)
                    .expect("valid pass schedule"),
            );
            let plan = traffic::all_to_all(n, packets, scale.mean_gap, seed ^ 0xC067)
                .expect("valid workload");
            specs.push(RunSpec {
                label: format!("{} d={duty}", protocol.label()),
                config: c,
                topology: placement::grid(side, side, scale.spacing_m).expect("5×5 grid"),
                plan,
            });
        }
    }
    let results = run_specs_with(specs, sweep);
    // Labels are "{name} d={duty}"; match on the full prefix so FLOOD
    // cannot swallow a future FLOOD-variant the way bare prefixes would.
    let pick = |name: &str, f: &dyn Fn(&RunMetrics) -> f64| SeriesData {
        name: name.to_string(),
        points: results
            .iter()
            .filter(|(label, _)| label.rsplit_once(" d=").map(|(p, _)| p) == Some(name))
            .zip(duties.iter())
            .map(|((_, m), &x)| (x, f(m)))
            .collect(),
    };
    let delivery_series: Vec<SeriesData> = protocols
        .iter()
        .map(|p| pick(p.label(), &RunMetrics::delivery_ratio))
        .collect();
    let epochs: u64 = results.iter().map(|(_, m)| m.routing.contact_epochs).sum();
    let ups: u64 = results
        .iter()
        .map(|(_, m)| m.routing.contact_links_up)
        .sum();
    let downs: u64 = results
        .iter()
        .map(|(_, m)| m.routing.contact_links_down)
        .sum();
    let ext6a = FigureResult {
        id: "ext6a",
        title: format!(
            "EXT6: delivery ratio vs contact duty cycle (25 nodes, satellite-pass \
             backhaul across the seam, period {period})"
        ),
        x_label: "contact duty cycle",
        y_label: "delivery ratio",
        series: delivery_series,
        notes: vec![
            format!(
                "scheduled connectivity exercised across the sweep: contact_epochs={epochs}, \
                 contact_links_up={ups}, contact_links_down={downs} (byte-checked by the \
                 sweep-smoke CI step)"
            ),
            "every spec pins its own SimConfig::contact_plan, so the figure is immune to \
             the process-wide --contact-plan override"
                .into(),
        ],
    };
    let energy_series: Vec<SeriesData> = protocols
        .iter()
        .map(|p| {
            let mut s = pick(p.label(), &|m: &RunMetrics| {
                if m.deliveries == 0 {
                    f64::NAN
                } else {
                    m.energy.total().value() / m.deliveries as f64
                }
            });
            s.points.retain(|p| p.1.is_finite());
            s
        })
        .filter(|s| !s.points.is_empty())
        .collect();
    let scheduled: Vec<String> = duties
        .iter()
        .map(|&d| {
            let plan = crate::contact_plans::satellite_passes(side, period, d, horizon)
                .expect("valid pass schedule");
            let got = plan.duty_cycle(
                spms_net::NodeId::new(0),
                spms_net::NodeId::new(side as u32 / 2),
                horizon,
            );
            format!("{d}→{got:.3}")
        })
        .collect();
    let ext6b = FigureResult {
        id: "ext6b",
        title: "EXT6: energy per delivered item vs contact duty cycle".into(),
        x_label: "contact duty cycle",
        y_label: "energy per delivery (µJ)",
        series: energy_series,
        notes: vec![format!(
            "requested → scheduled seam duty cycle: {}",
            scheduled.join(", ")
        )],
    };
    (ext6a, ext6b)
}

/// Table 1 as a rendered parameter listing.
#[must_use]
pub fn table1() -> String {
    let c = SimConfig::paper_defaults(ProtocolKind::Spms, 0);
    let radio = &c.radio;
    let mut out = String::from("Table 1: simulation parameters\n");
    out.push_str(&format!(
        "  packet arrivals          Poisson, mean 1/ms per node\n\
         \x20 failure inter-arrival    {} (mean)\n\
         \x20 MTTR                     10ms (uniform 5..15ms)\n\
         \x20 processing time          {}\n\
         \x20 slot time                {} x {} slots\n\
         \x20 time of transmission    {}/byte\n\
         \x20 sizes ADV/REQ/DATA       {}/{}/{} bytes (DATA:REQ = {})\n",
        SimTime::from_millis(50),
        c.proc_delay,
        c.mac.slot_time,
        c.mac.num_slots,
        c.mac.tx_per_byte,
        c.sizes.adv,
        c.sizes.req,
        c.sizes.data,
        c.sizes.data / c.sizes.req,
    ));
    out.push_str("  power levels (mW @ m):  ");
    for level in radio.levels() {
        out.push_str(&format!(
            " {:.4}@{:.2}",
            radio.power_mw(level),
            radio.range_m(level)
        ));
    }
    out.push('\n');
    out
}

/// The §5.1.3 break-even analysis, rendered.
#[must_use]
pub fn breakeven_report() -> String {
    let inst = spms_analysis::BreakevenInstance::mica2_reference();
    match inst.packets_needed() {
        Ok(pkts) => format!(
            "Mobility break-even: one DBF re-execution costs {:.1} µJ; SPMS saves \
             {:.3} µJ/packet ({:.3} vs {:.3}), so ≥ {:.2} packets must flow between \
             mobility events (paper reports 239.18 for its instance).\n",
            inst.dbf_energy_uj(),
            inst.spin_per_packet_uj - inst.spms_per_packet_uj,
            inst.spin_per_packet_uj,
            inst.spms_per_packet_uj,
            pkts
        ),
        Err(e) => format!("break-even analysis failed: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::AdversaryOverride;

    #[test]
    fn whole_numbers_never_print_negative_zero() {
        assert_eq!(whole(-0.3), "0");
        assert_eq!(whole(-0.6), "-1");
        assert_eq!(whole(42.4), "42");
    }

    #[test]
    fn fig3_and_fig5_are_cheap_and_labelled() {
        let scale = Scale::smoke();
        let f3 = fig3(&scale);
        assert_eq!(f3.series.len(), 1);
        assert_eq!(f3.series[0].points.len(), 30);
        let f5 = fig5(&scale);
        assert!(f5.series[0].points.iter().all(|p| p.1 >= 1.0));
    }

    #[test]
    fn fig6_fig8_shapes_hold_at_smoke_scale() {
        let scale = Scale::smoke();
        let (f6, f8) = fig6_fig8(&scale, 1, &SweepConfig::auto());
        let spms = f6.series_named("SPMS").unwrap();
        let spin = f6.series_named("SPIN").unwrap();
        // SPMS uses less energy per packet at every network size.
        for (a, b) in spms.points.iter().zip(spin.points.iter()) {
            assert!(a.1 < b.1, "SPMS {a:?} must beat SPIN {b:?}");
        }
        // SPMS is faster at every network size.
        let spms_d = f8.series_named("SPMS").unwrap();
        let spin_d = f8.series_named("SPIN").unwrap();
        for (a, b) in spms_d.points.iter().zip(spin_d.points.iter()) {
            assert!(a.1 < b.1, "SPMS delay {a:?} must beat SPIN {b:?}");
        }
    }

    #[test]
    fn ext4_many_flow_figure_is_worker_independent() {
        let scale = Scale::smoke();
        let sequential = ext4(&scale, 3, &SweepConfig::with_workers(1));
        assert_eq!(sequential.series.len(), 4);
        for s in &sequential.series {
            assert_eq!(s.points.len(), 4, "one point per arrival gap");
        }
        assert!(
            sequential.notes.iter().any(|n| n.contains("engine events")),
            "notes must surface the event volume: {:?}",
            sequential.notes
        );
        // Every series point, title, and note is identical on a pool.
        assert_eq!(ext4(&scale, 3, &SweepConfig::with_workers(2)), sequential);
    }

    #[test]
    fn table1_and_breakeven_render() {
        let t = table1();
        assert!(t.contains("3.1622"));
        assert!(t.contains("DATA:REQ = 20"));
        let b = breakeven_report();
        assert!(b.contains("packets"));
    }

    #[test]
    fn fig12_notes_surface_the_routing_counters() {
        // The fig12 sweep is where every incremental-routing substrate
        // meets the paper's mobility workload: its notes must surface the
        // zone-patch, shard-planner and epoch-batching counters with the
        // values the runs actually recorded.
        let scale = Scale::smoke();
        let sweep = SweepConfig::auto();
        let results = radius_sweep(&scale, 7, &sweep, None, Some(fig12_mobility(&scale)), false);
        let spms: Vec<&RunMetrics> = results
            .iter()
            .filter(|(l, _)| l.starts_with("SPMS"))
            .map(|(_, m)| m)
            .collect();
        let epochs: u64 = spms.iter().map(|m| m.mobility_epochs).sum();
        assert!(epochs > 0, "the sweep must exercise mobility");
        // Every SPMS mobility run re-converges through the shard planner
        // once per epoch at the default batch_epochs = 1.
        for m in &spms {
            assert_eq!(m.routing.zone_patches, m.mobility_epochs);
            assert_eq!(m.routing.incremental_executions, m.mobility_epochs);
            assert_eq!(m.routing.sharded_executions, m.mobility_epochs);
            assert_eq!(m.routing.batch_windows, m.mobility_epochs);
            assert_eq!(m.routing.epochs_coalesced, 0);
        }
        let fig = fig12(&scale, 7, &sweep);
        let sharded: u64 = spms.iter().map(|m| m.routing.sharded_executions).sum();
        let windows: u64 = spms.iter().map(|m| m.routing.batch_windows).sum();
        let patches: u64 = spms.iter().map(|m| m.routing.zone_patches).sum();
        assert!(
            fig.notes
                .iter()
                .any(|n| n.contains(&format!("{sharded} delta re-convergences"))
                    && n.contains(&format!("{windows} batching windows"))),
            "shard/batch counters missing from notes: {:?}",
            fig.notes
        );
        assert!(
            fig.notes
                .iter()
                .any(|n| n.contains(&format!("{patches} mobility epochs patched"))),
            "zone-patch counter missing from notes: {:?}",
            fig.notes
        );
    }

    #[test]
    fn ext1_delivery_and_energy_shapes_hold() {
        let scale = Scale::smoke();
        let (a, b) = ext1(&scale, 3, &SweepConfig::auto());
        // Delivery: SPMS-IZ and FLOOD full, base SPMS empty beyond a zone.
        let ratio =
            |fig: &FigureResult, name: &str| fig.series_named(name).unwrap().points.to_vec();
        assert!(ratio(&a, "SPMS-IZ").iter().all(|&(_, y)| y == 1.0));
        assert!(ratio(&a, "FLOOD").iter().all(|&(_, y)| y == 1.0));
        assert!(ratio(&a, "SPMS")
            .iter()
            .all(|&(x, y)| x <= 20.0 || y == 0.0));
        // Energy: IZ below flooding at every shared length.
        let iz = ratio(&b, "SPMS-IZ");
        let fl = ratio(&b, "FLOOD");
        for ((_, e_iz), (_, e_fl)) in iz.iter().zip(fl.iter()) {
            assert!(e_iz < e_fl, "IZ {e_iz} vs FLOOD {e_fl}");
        }
        assert!(b.notes.iter().any(|n| n.contains("closed-form")));
    }

    #[test]
    fn ext3_lifetime_curves_dominate() {
        let scale = Scale::smoke();
        let f = ext3(&scale, 5, &SweepConfig::auto());
        let spms = f.series_named("SPMS").unwrap();
        let spin = f.series_named("SPIN").unwrap();
        assert_eq!(spms.points.len(), 5);
        for ((cap, a), (_, b)) in spms.points.iter().zip(spin.points.iter()) {
            assert!(a > b, "cap {cap}: SPMS {a} must beat SPIN {b}");
        }
        // More battery, more work.
        assert!(spms.points.windows(2).all(|w| w[1].1 >= w[0].1));
        assert!(f.notes.iter().any(|n| n.contains("×")));
    }

    #[test]
    fn ext5_adversary_figure_degrades_delivery_and_is_knob_independent() {
        let scale = Scale::smoke();
        let base = ext5(&scale, 9, &SweepConfig::auto());
        assert_eq!(base.series.len(), 6, "delivery + energy per protocol");
        for s in &base.series {
            assert_eq!(s.points.len(), 2, "smoke scale sweeps two fractions");
        }
        // Adversaries are interested receivers that swallow instead of
        // delivering: every protocol's attacked delivery ratio must sit
        // strictly below its benign baseline.
        for name in ["FLOOD delivery", "SPIN delivery", "SPMS delivery"] {
            let s = base.series_named(name).unwrap();
            let benign = s.points[0].1;
            let attacked = s.points[1].1;
            assert!(benign > 0.0, "{name}: benign runs must deliver");
            assert!(
                attacked < benign,
                "{name}: attacked {attacked} must degrade below benign {benign}"
            );
        }
        assert!(
            base.notes
                .iter()
                .any(|n| n.contains("packets_dropped") && n.contains("bogus_advs")),
            "notes must surface the adversary counters: {:?}",
            base.notes
        );
        // Adversaries and churn are semantic knobs; the worker pool stays
        // wall-clock-only even under attack. Every spec pins its own
        // adversary, so a sweep-level override must leave the figure alone.
        assert_eq!(ext5(&scale, 9, &SweepConfig::with_workers(1)), base);
        let attacked = SweepConfig {
            adversary: AdversaryOverride {
                fraction: Some(0.5),
                behavior: Some(spms::NodeBehavior::SilentDropper),
                ..AdversaryOverride::default()
            },
            ..SweepConfig::auto()
        };
        assert_eq!(ext5(&scale, 9, &attacked), base, "pinned specs are immune");
    }

    #[test]
    fn ext6_contact_figure_degrades_delivery_and_is_knob_independent() {
        let scale = Scale::smoke();
        let (base, energy) = ext6(&scale, 11, &SweepConfig::auto());
        assert_eq!(base.series.len(), 3, "delivery per protocol");
        for s in &base.series {
            assert_eq!(s.points.len(), 2, "smoke scale sweeps two duty cycles");
        }
        // Items born while the seam is down never cross it: every
        // protocol's duty-cycled delivery ratio must sit strictly below
        // its full-duty baseline (the last point, duty = 1).
        for name in ["FLOOD", "SPIN", "SPMS"] {
            let s = base.series_named(name).unwrap();
            let gated = s.points[0].1;
            let full = s.points[1].1;
            assert!(full > 0.0, "{name}: full-duty runs must deliver");
            assert!(
                gated < full,
                "{name}: duty-cycled {gated} must degrade below full-duty {full}"
            );
        }
        assert!(
            base.notes.iter().any(|n| n.contains("contact_epochs=")
                && n.contains("contact_links_up=")
                && n.contains("contact_links_down=")),
            "notes must surface the contact counters: {:?}",
            base.notes
        );
        // The sweep actually flipped links (a plan-free sweep would pass
        // the byte-diff and still be meaningless).
        assert!(
            base.notes
                .iter()
                .any(|n| n.contains("contact_epochs=") && !n.contains("contact_epochs=0,")),
            "the sweep must fire contact epochs: {:?}",
            base.notes
        );
        assert!(
            energy.notes.iter().any(|n| n.contains("duty cycle")),
            "energy notes must round-trip the schedule: {:?}",
            energy.notes
        );
        // The contact plan is a semantic knob; the worker pool stays
        // wall-clock-only even under scheduled connectivity. Every spec
        // pins its own plan, so a sweep-level plan that severs a link for
        // the whole run must leave the figure alone.
        let sequential = ext6(&scale, 11, &SweepConfig::with_workers(1));
        assert_eq!(sequential, (base.clone(), energy.clone()));
        let severed = SweepConfig {
            contact_plan: Some(spms_net::ContactPlan::parse("0 1 1000000 1000001\n").unwrap()),
            ..SweepConfig::auto()
        };
        assert_eq!(
            ext6(&scale, 11, &severed),
            (base, energy),
            "pinned specs are immune"
        );
    }

    #[test]
    fn ext2_hottest_node_favors_spms() {
        let scale = Scale::smoke();
        let f = ext2(&scale, 4, &SweepConfig::auto());
        let spms = f.series_named("SPMS hottest").unwrap();
        let spin = f.series_named("SPIN hottest").unwrap();
        assert_eq!(spms.points.len(), scale.radii_m.len());
        for ((_, a), (_, b)) in spms.points.iter().zip(spin.points.iter()) {
            assert!(a > &0.0);
            assert!(a <= b, "SPMS hottest {a} must not exceed SPIN's {b}");
        }
        assert!(f.notes.iter().any(|n| n.contains("imbalance")));
    }
}
