//! Figure generation as one sweep plan: a [`Sweep`] expands to
//! [`RunSpec`]s, each row of [`TARGETS`] renders from the runs of the
//! sweeps it names (never seeing a seed or a [`SweepConfig`]), and a
//! [`Plan`] runs every distinct `(seed, sweep)` of its targets once, in one
//! [`try_run_specs`] call, sliced back by spec index. Each figure is a
//! [`FigureResult`] with the series the paper plots and notes comparing
//! the measured shape against the paper's claims.

use std::collections::BTreeMap;

use spms::{ProtocolKind, RoutingMode, RunMetrics, SimConfig, TrafficPlan};
use spms_kernel::SimTime;
use spms_net::{placement, FailureConfig, MobilityConfig, Topology};

use crate::experiment::{try_run_specs, RunSpec, Scale, SweepConfig};
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

/// The runs of one sweep in spec order, as `(label, metrics)`.
pub type Runs = [(String, RunMetrics)];

/// A named set of runs that one or more figures read.
///
/// Every spec derives its randomness from the seed it is expanded at, so a
/// `(seed, sweep)` key names its runs completely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sweep {
    /// Node counts, failure-free (Figs. 6, 8 and 10).
    Nodes,
    /// Node counts with transient failures (Fig. 10).
    NodesFailures,
    /// Transmission radii, failure-free (Figs. 7, 9, 11 and EXT2).
    Radii,
    /// Transmission radii with transient failures (Fig. 11).
    RadiiFailures,
    /// Transmission radii under mobility, SPMS on DBF (Fig. 12).
    RadiiMobility,
    /// Transmission radii, cluster traffic, failure-free (Fig. 13).
    ClusterRadii,
    /// Transmission radii, cluster traffic, with failures (Fig. 13).
    ClusterRadiiFailures,
    /// EXT1's pipeline lengths.
    PipelineLengths,
    /// EXT3's battery capacities.
    Capacities,
    /// EXT4's arrival gaps.
    ArrivalGaps,
    /// EXT5's adversary fractions.
    AdversaryFractions,
    /// EXT6's contact duty cycles.
    DutyCycles,
}

impl Sweep {
    /// The sweep's runs at `scale` and `seed`, in the order its renderers
    /// read them.
    #[must_use]
    pub fn specs(self, scale: &Scale, seed: u64) -> Vec<RunSpec> {
        let failures = matches!(
            self,
            Sweep::NodesFailures | Sweep::RadiiFailures | Sweep::ClusterRadiiFailures
        )
        .then(FailureConfig::paper_defaults);
        let mut specs = Vec::new();
        match self {
            Sweep::Nodes | Sweep::NodesFailures => {
                for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
                    for &n in &scale.node_counts {
                        let mut c = config(protocol, seed ^ n as u64, 20.0);
                        c.failures = failures;
                        c.horizon = scale.horizon_for(n);
                        let (packets, gap) = (scale.packets_per_node, scale.mean_gap);
                        let plan_seed = seed ^ (n as u64).rotate_left(17);
                        let plan = traffic::all_to_all(n, packets, gap, plan_seed)
                            .expect("valid workload");
                        specs.push(RunSpec {
                            label: format!("{} n={n}", protocol.label()),
                            config: c,
                            topology: grid(n, scale.spacing_m),
                            plan,
                        });
                    }
                }
            }
            Sweep::Radii
            | Sweep::RadiiFailures
            | Sweep::RadiiMobility
            | Sweep::ClusterRadii
            | Sweep::ClusterRadiiFailures => {
                let mobility = (self == Sweep::RadiiMobility).then(|| fig12_mobility(scale));
                let cluster = matches!(self, Sweep::ClusterRadii | Sweep::ClusterRadiiFailures);
                let n = scale.default_nodes;
                let topo = grid(n, scale.spacing_m);
                for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
                    for &r in &scale.radii_m {
                        let mut c = config(protocol, seed ^ (r as u64) << 8, r);
                        c.failures = failures;
                        c.mobility = mobility;
                        c.horizon = scale.horizon_for(n);
                        if mobility.is_some() && protocol == ProtocolKind::Spms {
                            // Mobility runs charge SPMS its routing-table
                            // formation (§5.1.3: "The energy expended in
                            // SPMS in forming routing tables is included in
                            // the energy measurement"). Epoch re-convergence
                            // is incremental: only the zones the moved nodes
                            // touched exchange delta vectors, and only those
                            // bytes are charged.
                            c.routing_mode = RoutingMode::Distributed;
                            c.incremental_routing = true;
                        }
                        let (packets, gap) = (scale.packets_per_node, scale.mean_gap);
                        let plan: TrafficPlan = if cluster {
                            let radio = &c.radio;
                            traffic::cluster_hierarchical(
                                &topo,
                                radio,
                                r,
                                packets,
                                gap,
                                0.05,
                                seed ^ 0xC0FFEE,
                            )
                            .expect("valid cluster workload")
                        } else {
                            traffic::all_to_all(n, packets, gap, seed ^ 0xBEEF)
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
            }
            Sweep::PipelineLengths => {
                let items = scale.packets_per_node.min(4);
                for &(label, protocol, caching) in &[
                    ("SPMS-IZ", ProtocolKind::SpmsIz, false),
                    ("SPMS-IZ+cache", ProtocolKind::SpmsIz, true),
                    ("FLOOD", ProtocolKind::Flooding, false),
                    ("SPMS", ProtocolKind::Spms, false),
                ] {
                    for len in self.xs(scale) {
                        let len = len as usize;
                        let mut c = config(protocol, seed ^ (len as u64) << 4, 20.0);
                        c.relay_caching = caching;
                        c.serve_from_cache = caching;
                        c.horizon = SimTime::from_secs(120);
                        let source = spms_net::NodeId::new(0);
                        let sink = spms_net::NodeId::new(len as u32 - 1);
                        let plan = traffic::pipeline(source, &[sink], items, scale.mean_gap)
                            .expect("valid pipeline workload");
                        specs.push(RunSpec {
                            label: format!("{label} len={len}"),
                            config: c,
                            topology: placement::grid(len, 1, scale.spacing_m).expect("valid line"),
                            plan,
                        });
                    }
                }
            }
            Sweep::Capacities => {
                let n = 25usize; // 5×5 grid: lifetime runs execute to total exhaustion
                let packets = scale.packets_per_node.max(6);
                for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
                    for cap in self.xs(scale) {
                        let mut c = config(protocol, seed ^ (cap as u64) << 3, 20.0);
                        c.battery_capacity_uj = Some(cap);
                        c.horizon = SimTime::from_secs(300);
                        let gap = SimTime::from_millis(300);
                        let plan = traffic::all_to_all(n, packets, gap, seed ^ 0xBA77)
                            .expect("valid workload");
                        specs.push(RunSpec {
                            label: format!("{} cap={cap}", protocol.label()),
                            config: c,
                            topology: placement::grid(5, 5, scale.spacing_m).expect("5×5 grid"),
                            plan,
                        });
                    }
                }
            }
            Sweep::ArrivalGaps => {
                let n = 25usize; // 5×5 grid keeps the saturating sweep CI-sized
                let packets = scale.packets_per_node.max(4);
                for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
                    for gap in self.xs(scale) {
                        let mut c = config(protocol, seed ^ (gap as u64) << 2, 20.0);
                        c.horizon = scale.horizon_for(n);
                        let mean = SimTime::from_micros(gap as u64);
                        let plan = traffic::many_flows(n, packets, mean, seed ^ 0xEF04)
                            .expect("valid many-flow workload");
                        specs.push(RunSpec {
                            label: format!("{} gap={gap}", protocol.label()),
                            config: c,
                            topology: placement::grid(5, 5, scale.spacing_m).expect("5×5 grid"),
                            plan,
                        });
                    }
                }
            }
            Sweep::AdversaryFractions => {
                // A 5×5 grid as EXT3/EXT4; every spec pins its own
                // adversary.
                let n = 25usize;
                let packets = scale.packets_per_node.max(2);
                for protocol in ROBUSTNESS_PROTOCOLS {
                    for fraction in self.xs(scale) {
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
            }
            Sweep::DutyCycles => {
                // A 5×5 grid as EXT3–EXT5; every spec pins its own contact
                // plan.
                let (side, n) = (5usize, 25);
                let (period, horizon) = pass_schedule(scale);
                let packets = scale.packets_per_node.max(2);
                for protocol in ROBUSTNESS_PROTOCOLS {
                    for duty in self.xs(scale) {
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
                            topology: placement::grid(side, side, scale.spacing_m)
                                .expect("5×5 grid"),
                            plan,
                        });
                    }
                }
            }
        }
        specs
    }

    /// The sweep's x values at `scale`, one run per protocol each. EXT5 and
    /// EXT6 sweep two points at smoke scale (the CI sweep smoke) and five at
    /// quick/paper scale; EXT1 sweeps five pipeline lengths (nodes) at
    /// paper scale and three below.
    fn xs(self, scale: &Scale) -> Vec<f64> {
        let (smoke, paper) = (scale.node_counts.len() <= 2, scale.node_counts.len() >= 4);
        match self {
            Sweep::PipelineLengths if paper => vec![9.0, 13.0, 17.0, 21.0, 25.0],
            Sweep::PipelineLengths => vec![9.0, 17.0, 25.0],
            Sweep::Capacities => vec![1.0, 2.0, 4.0, 8.0, 16.0],
            Sweep::ArrivalGaps => vec![2000.0, 500.0, 100.0, 25.0],
            Sweep::AdversaryFractions if smoke => vec![0.0, 0.2],
            Sweep::AdversaryFractions => vec![0.0, 0.1, 0.2, 0.3, 0.4],
            Sweep::DutyCycles if smoke => vec![0.3, 1.0],
            Sweep::DutyCycles => vec![0.2, 0.4, 0.6, 0.8, 1.0],
            Sweep::Nodes | Sweep::NodesFailures => {
                scale.node_counts.iter().map(|&n| n as f64).collect()
            }
            _ => scale.radii_m.clone(), // the radius sweeps
        }
    }
}

/// What a target renders from.
#[derive(Clone, Copy, Debug)]
pub enum Render {
    /// Seed-free text, printed as-is (Table 1, the break-even report).
    Text(fn() -> String),
    /// Figures from the scale and the runs of [`Target::sweeps`], in order.
    Figures(fn(&Scale, &[&Runs]) -> Vec<FigureResult>),
}

/// One `repro` target: a row of [`TARGETS`].
#[derive(Clone, Copy, Debug)]
pub struct Target {
    /// The id `repro` accepts ("fig6").
    pub id: &'static str,
    /// The sweeps the target reads; none for a seed-free target.
    pub sweeps: &'static [Sweep],
    /// How the target renders.
    pub render: Render,
}

/// Every `repro` target, in output order.
#[rustfmt::skip]
pub static TARGETS: [Target; 18] = [
    Target { id: "table1", sweeps: &[], render: Render::Text(table1) },
    Target { id: "fig3", sweeps: &[], render: Render::Figures(|s, _| vec![fig3(s)]) },
    Target { id: "fig5", sweeps: &[], render: Render::Figures(|_, _| vec![fig5()]) },
    Target { id: "fig6", sweeps: &[Sweep::Nodes], render: Render::Figures(|s, r| vec![fig6(s, r[0])]) },
    Target { id: "fig8", sweeps: &[Sweep::Nodes], render: Render::Figures(|s, r| vec![fig8(s, r[0])]) },
    Target { id: "fig7", sweeps: &[Sweep::Radii], render: Render::Figures(|s, r| vec![fig7(s, r[0])]) },
    Target { id: "fig9", sweeps: &[Sweep::Radii], render: Render::Figures(|s, r| vec![fig9(s, r[0])]) },
    Target { id: "fig10", sweeps: &[Sweep::Nodes, Sweep::NodesFailures], render: Render::Figures(|s, r| vec![fig10(s, r[0], r[1])]) },
    Target { id: "fig11", sweeps: &[Sweep::Radii, Sweep::RadiiFailures], render: Render::Figures(|s, r| vec![fig11(s, r[0], r[1])]) },
    Target { id: "fig12", sweeps: &[Sweep::RadiiMobility], render: Render::Figures(|s, r| vec![fig12(s, r[0])]) },
    Target { id: "fig13", sweeps: &[Sweep::ClusterRadii, Sweep::ClusterRadiiFailures], render: Render::Figures(|s, r| vec![fig13(s, r[0], r[1])]) },
    Target { id: "ext1", sweeps: &[Sweep::PipelineLengths], render: Render::Figures(|s, r| ext1(s, r[0])) },
    Target { id: "ext2", sweeps: &[Sweep::Radii], render: Render::Figures(|s, r| vec![ext2(s, r[0])]) },
    Target { id: "ext3", sweeps: &[Sweep::Capacities], render: Render::Figures(|s, r| vec![ext3(s, r[0])]) },
    Target { id: "ext4", sweeps: &[Sweep::ArrivalGaps], render: Render::Figures(|s, r| vec![ext4(s, r[0])]) },
    Target { id: "ext5", sweeps: &[Sweep::AdversaryFractions], render: Render::Figures(|s, r| vec![ext5(s, r[0])]) },
    Target { id: "ext6", sweeps: &[Sweep::DutyCycles], render: Render::Figures(|s, r| ext6(s, r[0])) },
    Target { id: "breakeven", sweeps: &[], render: Render::Text(breakeven_report) },
];

/// A target's output.
#[derive(Clone, Debug, PartialEq)]
pub enum Rendered {
    /// Plain text.
    Text(String),
    /// Each figure of the target with its renders in seed order: one per
    /// seed, or a single one for a seed-free target.
    Figures(Vec<Vec<FigureResult>>),
}

/// What running a [`Plan`] produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every failed run in plan order: its label, sweep and seed, and the
    /// engine error or panic message.
    pub failed: Vec<(String, String)>,
    /// Each requested target in [`TARGETS`] order with its output, or
    /// `None` when it reads a failed run.
    pub targets: Vec<(&'static str, Option<Rendered>)>,
}

/// The sweep plan of one invocation: the requested targets, and the specs
/// of every distinct `(seed, sweep)` key they read, each expanded once.
#[derive(Clone, Debug)]
pub struct Plan {
    scale: Scale,
    seeds: Vec<u64>,
    targets: Vec<&'static Target>,
    /// The specs of each distinct key, in key (plan) order.
    sweeps: BTreeMap<(u64, Sweep), Vec<RunSpec>>,
}

/// Each key's runs, or `None` if one of them failed.
type RunsByKey = BTreeMap<(u64, Sweep), Option<Vec<(String, RunMetrics)>>>;

impl Plan {
    /// Plans the targets named by `ids` (`"all"` names every target) at
    /// `scale`, for every seed in `seeds`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid targets if an id is unknown, or
    /// one if `seeds` is empty.
    pub fn new(ids: &[&str], scale: &Scale, seeds: &[u64]) -> Result<Plan, String> {
        let known = |id: &str| id == "all" || TARGETS.iter().any(|t| t.id == id);
        if let Some(bad) = ids.iter().find(|&&id| !known(id)) {
            let valid = TARGETS.map(|t| t.id).join(" ");
            return Err(format!("unknown target {bad} (valid targets: {valid} all)"));
        }
        if seeds.is_empty() {
            return Err("need at least one seed".into());
        }
        let named = |t: &&Target| ids.iter().any(|&id| id == "all" || id == t.id);
        let targets: Vec<&'static Target> = TARGETS.iter().filter(named).collect();
        let mut sweeps = BTreeMap::new();
        for &seed in seeds {
            for &sweep in targets.iter().flat_map(|t| t.sweeps) {
                sweeps
                    .entry((seed, sweep))
                    .or_insert_with(|| sweep.specs(scale, seed));
            }
        }
        Ok(Plan {
            scale: scale.clone(),
            seeds: seeds.to_vec(),
            targets,
            sweeps,
        })
    }

    /// The number of simulations the plan runs: one per distinct spec.
    #[must_use]
    pub fn simulations(&self) -> usize {
        self.sweeps.values().map(Vec::len).sum()
    }

    /// Runs every spec in one [`try_run_specs`] call under `sweep`, then
    /// renders each target once per seed (once in all when it reads no
    /// sweep). A target that reads a failed run is not rendered.
    #[must_use]
    pub fn run(mut self, sweep: &SweepConfig) -> Outcome {
        let sweeps = std::mem::take(&mut self.sweeps);
        let counts: Vec<_> = sweeps.iter().map(|(&k, s)| (k, s.len())).collect();
        let specs = sweeps.into_values().flatten().collect();
        let mut outcomes = try_run_specs(specs, sweep).into_iter();
        let mut failed = Vec::new();
        let mut runs = RunsByKey::new();
        for ((seed, sweep), count) in counts {
            let mut ok = Vec::with_capacity(count);
            for (label, outcome) in outcomes.by_ref().take(count) {
                match outcome {
                    Ok(metrics) => ok.push((label, metrics)),
                    Err(e) => failed.push((format!("{label} ({sweep:?} sweep, seed {seed})"), e)),
                }
            }
            runs.insert((seed, sweep), (ok.len() == count).then_some(ok));
        }
        let targets = self
            .targets
            .iter()
            .map(|t| (t.id, self.render(t, &runs)))
            .collect();
        Outcome { failed, targets }
    }

    /// `target`'s output, or `None` when it reads a key with a failed run.
    fn render(&self, target: &Target, runs: &RunsByKey) -> Option<Rendered> {
        let render = match target.render {
            Render::Text(text) => return Some(Rendered::Text(text())),
            Render::Figures(render) => render,
        };
        let seeds = if target.sweeps.is_empty() {
            &self.seeds[..1]
        } else {
            &self.seeds
        };
        let mut figures: Vec<Vec<FigureResult>> = Vec::new();
        for &seed in seeds {
            let inputs: Vec<&Runs> = target
                .sweeps
                .iter()
                .map(|&sweep| runs[&(seed, sweep)].as_deref())
                .collect::<Option<_>>()?;
            let rendered = render(&self.scale, &inputs);
            figures.resize_with(rendered.len(), Vec::new);
            for (renders, figure) in figures.iter_mut().zip(rendered) {
                renders.push(figure);
            }
        }
        Some(Rendered::Figures(figures))
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

/// The series `name` over the runs labelled `"{name} {x-key}={x}"` (every
/// spec label has that shape), with the x values `xs` in run order. The
/// whole name must match: "SPMS-IZ" must not pick up "SPMS-IZ+cache" runs.
fn series_of(results: &Runs, name: &str, f: impl Fn(&RunMetrics) -> f64, xs: &[f64]) -> SeriesData {
    let points = results
        .iter()
        .filter(|(label, _)| label.rsplit_once(' ').map(|(p, _)| p) == Some(name))
        .zip(xs.iter())
        .map(|((_, m), &x)| (x, f(m)))
        .collect();
    SeriesData {
        name: name.to_string(),
        points,
    }
}

/// The `names` series of energy per delivered item, leaving out the
/// points that delivered nothing and then the series left empty.
fn energy_per_delivery(results: &Runs, names: &[&str], xs: &[f64]) -> Vec<SeriesData> {
    // A run without deliveries divides to a non-finite value.
    let energy = |m: &RunMetrics| m.energy.total().value() / m.deliveries as f64;
    let mut series: Vec<SeriesData> = names
        .iter()
        .map(|n| series_of(results, n, energy, xs))
        .collect();
    for s in &mut series {
        s.points.retain(|p| p.1.is_finite());
    }
    series.retain(|s| !s.points.is_empty());
    series
}

/// The sum of `count` over `results`.
fn total(results: &Runs, count: fn(&RunMetrics) -> u64) -> u64 {
    results.iter().map(|(_, m)| count(m)).sum()
}

// ---------------------------------------------------------------------
// Analytical figures.

/// Figure 3: analytical SPIN:SPMS delay ratio vs transmission radius.
fn fig3(scale: &Scale) -> FigureResult {
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
fn fig5() -> FigureResult {
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

/// Figure 6: energy per packet vs node count (static failure-free, radius
/// 20 m).
fn fig6(scale: &Scale, nodes: &Runs) -> FigureResult {
    let xs = Sweep::Nodes.xs(scale);
    let spms = series_of(nodes, "SPMS", RunMetrics::energy_per_packet_uj, &xs);
    let spin = series_of(nodes, "SPIN", RunMetrics::energy_per_packet_uj, &xs);
    let (lo, hi) = savings_range(&spin, &spms);
    FigureResult {
        id: "fig6",
        title: "Energy consumed by SPIN and SPMS with varying number of sensor nodes \
                (radius 20 m)"
            .into(),
        x_label: "number of nodes",
        y_label: "energy per packet (µJ)",
        series: vec![spms, spin],
        notes: vec![
            format!("SPMS saves {}%–{}% (paper: 26%–43%)", whole(lo), whole(hi)),
            "gap widens with network size, as in the paper".into(),
        ],
    }
}

/// Figure 8: average delay vs node count (static failure-free, radius
/// 20 m).
fn fig8(scale: &Scale, nodes: &Runs) -> FigureResult {
    let xs = Sweep::Nodes.xs(scale);
    let spms = series_of(nodes, "SPMS", RunMetrics::avg_delay_ms, &xs);
    let spin = series_of(nodes, "SPIN", RunMetrics::avg_delay_ms, &xs);
    let speedups: Vec<f64> = spin
        .points
        .iter()
        .zip(spms.points.iter())
        .filter(|(_, (_, y))| *y > 0.0)
        .map(|((_, a), (_, b))| a / b)
        .collect();
    let avg_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    FigureResult {
        id: "fig8",
        title: "End-to-end delay with varying number of nodes (radius 20 m)".into(),
        x_label: "number of nodes",
        y_label: "delay (ms/packet)",
        series: vec![spms, spin],
        notes: vec![format!(
            "SPIN/SPMS delay ratio averages {avg_speedup:.1}× (paper: ≈10×)"
        )],
    }
}

/// Figure 7: energy per packet vs transmission radius (static
/// failure-free, N = default).
fn fig7(scale: &Scale, radii: &Runs) -> FigureResult {
    let xs = &scale.radii_m;
    let spms = series_of(radii, "SPMS", RunMetrics::energy_per_packet_uj, xs);
    let spin = series_of(radii, "SPIN", RunMetrics::energy_per_packet_uj, xs);
    let (lo, hi) = savings_range(&spin, &spms);
    FigureResult {
        id: "fig7",
        title: format!(
            "Energy consumed by SPIN and SPMS with different transmission radii \
             (nodes = {})",
            scale.default_nodes
        ),
        x_label: "radius of transmission (m)",
        y_label: "energy per packet (µJ)",
        series: vec![spms, spin],
        notes: vec![format!(
            "SPMS advantage grows with radius: savings {}%–{}% across the sweep",
            whole(lo),
            whole(hi)
        )],
    }
}

/// Figure 9: average delay vs transmission radius (static failure-free,
/// N = default).
fn fig9(scale: &Scale, radii: &Runs) -> FigureResult {
    let xs = &scale.radii_m;
    let spms = series_of(radii, "SPMS", RunMetrics::avg_delay_ms, xs);
    let spin = series_of(radii, "SPIN", RunMetrics::avg_delay_ms, xs);
    FigureResult {
        id: "fig9",
        title: format!(
            "End-to-end delay variation with transmission radius (nodes = {})",
            scale.default_nodes
        ),
        x_label: "radius of transmission (m)",
        y_label: "delay (ms/packet)",
        series: vec![spms, spin],
        notes: vec![
            "SPMS below SPIN at every radius".into(),
            "hop-count reduction dominates at small radii; the paper's G·n² \
             contention model makes delay rise again at large radii"
                .into(),
        ],
    }
}

/// SPMS, F-SPMS, SPIN and F-SPIN series of `metric` from failure-free
/// runs `ff` and failure runs `f` (Figs. 10, 11 and 13).
fn failure_series(
    ff: &Runs,
    f: &Runs,
    metric: fn(&RunMetrics) -> f64,
    xs: &[f64],
) -> [SeriesData; 4] {
    let spms = series_of(ff, "SPMS", metric, xs);
    let spin = series_of(ff, "SPIN", metric, xs);
    let mut fspms = series_of(f, "SPMS", metric, xs);
    let mut fspin = series_of(f, "SPIN", metric, xs);
    fspms.name = "F-SPMS".into();
    fspin.name = "F-SPIN".into();
    [spms, fspms, spin, fspin]
}

/// Figure 10: delay vs node count with transient failures — four series
/// (SPMS, F-SPMS, SPIN, F-SPIN).
fn fig10(scale: &Scale, ff: &Runs, f: &Runs) -> FigureResult {
    let [spms, fspms, spin, fspin] =
        failure_series(ff, f, RunMetrics::avg_delay_ms, &Sweep::Nodes.xs(scale));
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
fn fig11(scale: &Scale, ff: &Runs, f: &Runs) -> FigureResult {
    FigureResult {
        id: "fig11",
        title: "End-to-end delay with transmission radius for static nodes with \
                transient failures"
            .into(),
        x_label: "radius of transmission (m)",
        y_label: "delay (ms/packet)",
        series: failure_series(ff, f, RunMetrics::avg_delay_ms, &scale.radii_m).into(),
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
fn fig12(scale: &Scale, results: &Runs) -> FigureResult {
    let xs = &scale.radii_m;
    let spms = series_of(results, "SPMS", RunMetrics::energy_per_packet_uj, xs);
    let spin = series_of(results, "SPIN", RunMetrics::energy_per_packet_uj, xs);
    let (lo, hi) = savings_range(&spin, &spms);
    let spms_runs = || results.iter().filter(|(l, _)| l.starts_with("SPMS"));
    let max_share = spms_runs()
        .map(|(_, m)| {
            100.0 * m.energy.get(spms_phy::EnergyCategory::Routing).value()
                / m.energy.total().value().max(f64::MIN_POSITIVE)
        })
        .fold(0.0f64, f64::max);
    let spms_total =
        |count: fn(&RunMetrics) -> u64| -> u64 { spms_runs().map(|(_, m)| count(m)).sum() };
    let delta_execs = spms_total(|m| m.routing.incremental_executions);
    let total_execs = spms_total(|m| m.routing.executions);
    let zone_patches = spms_total(|m| m.routing.zone_patches);
    let zone_rows = spms_total(|m| m.routing.zone_rows_patched);
    let sharded_execs = spms_total(|m| m.routing.sharded_executions);
    let batch_windows = spms_total(|m| m.routing.batch_windows);
    let coalesced = spms_total(|m| m.routing.epochs_coalesced);
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
            // The wording names the batching window the engine no longer
            // has; it stays so that the figure JSON is byte-identical
            // across versions.
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
fn fig13(scale: &Scale, ff: &Runs, f: &Runs) -> FigureResult {
    let energy = RunMetrics::energy_per_packet_uj;
    let [spms, fspms, spin, fspin] = failure_series(ff, f, energy, &scale.radii_m);
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
/// Returns the delivery-ratio figure, then the energy-per-delivery figure.
/// The energy figure omits protocols/points with zero deliveries.
fn ext1(scale: &Scale, results: &Runs) -> Vec<FigureResult> {
    let lengths = Sweep::PipelineLengths.xs(scale);
    let xs: Vec<f64> = lengths
        .iter()
        .map(|&l| (l - 1.0) * scale.spacing_m)
        .collect();
    let names = ["SPMS-IZ+cache", "SPMS-IZ", "FLOOD", "SPMS"];
    let ratio_series: Vec<SeriesData> = names
        .iter()
        .map(|n| series_of(results, n, RunMetrics::delivery_ratio, &xs))
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
    let energy_series = energy_per_delivery(results, &names, &xs);
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
    vec![ext1a, ext1b]
}

/// EXT2 (no paper figure): network-lifetime view of the energy results.
///
/// The paper reports *network-total* energy, but sensor-network lifetime
/// is set by the **hottest battery**. Using the engine's per-node energy
/// accounting, this figure reads Figure 7's radius sweep (all-to-all
/// workload) and plots the hottest node's energy per packet for SPMS and
/// SPIN, with max-to-mean imbalance in the notes. SPIN serves every
/// requester with a maximum-power unicast from the holder, so its hottest
/// node runs away with the radius; SPMS spreads the load across relays.
fn ext2(scale: &Scale, results: &Runs) -> FigureResult {
    let xs = &scale.radii_m;
    let hottest_per_packet = |m: &RunMetrics| {
        if m.packets_generated == 0 {
            0.0
        } else {
            m.per_node_energy_uj.iter().cloned().fold(0.0, f64::max) / m.packets_generated as f64
        }
    };
    let mut spms_hot = series_of(results, "SPMS", hottest_per_packet, xs);
    let mut spin_hot = series_of(results, "SPIN", hottest_per_packet, xs);
    let (lo, hi) = savings_range(&spin_hot, &spms_hot);
    let imbalance = |name: &str| {
        let vals: Vec<f64> = results
            .iter()
            .filter(|(label, _)| label.starts_with(name))
            .map(|(_, m)| m.energy_imbalance())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
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
fn ext3(scale: &Scale, results: &Runs) -> FigureResult {
    let xs = Sweep::Capacities.xs(scale);
    let spms = series_of(results, "SPMS", |m| m.deliveries as f64, &xs);
    let spin = series_of(results, "SPIN", |m| m.deliveries as f64, &xs);
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
fn ext4(scale: &Scale, results: &Runs) -> FigureResult {
    let xs = &Sweep::ArrivalGaps.xs(scale);
    let deliveries = |m: &RunMetrics| m.deliveries as f64;
    let events_per_packet = |m: &RunMetrics| {
        if m.packets_generated == 0 {
            0.0
        } else {
            m.events_processed as f64 / m.packets_generated as f64
        }
    };
    let mut spms_del = series_of(results, "SPMS", deliveries, xs);
    let mut spin_del = series_of(results, "SPIN", deliveries, xs);
    spms_del.name = "SPMS deliveries".into();
    spin_del.name = "SPIN deliveries".into();
    let mut spms_ev = series_of(results, "SPMS", events_per_packet, xs);
    let mut spin_ev = series_of(results, "SPIN", events_per_packet, xs);
    spms_ev.name = "SPMS events/packet".into();
    spin_ev.name = "SPIN events/packet".into();
    let total_events = total(results, |m| m.events_processed);
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

/// The protocols EXT5 and EXT6 compare, in series order.
const ROBUSTNESS_PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Flooding,
    ProtocolKind::Spin,
    ProtocolKind::Spms,
];

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
/// which is what lets the CI sweep smoke byte-diff its JSON across
/// `--workers` while still sweeping fractions *inside* the figure.
fn ext5(scale: &Scale, results: &Runs) -> FigureResult {
    let fractions = Sweep::AdversaryFractions.xs(scale);
    let mut series = Vec::new();
    let mut add = |what: &str, metric: fn(&RunMetrics) -> f64| {
        for protocol in ROBUSTNESS_PROTOCOLS {
            let mut s = series_of(results, protocol.label(), metric, &fractions);
            s.name = format!("{} {what}", protocol.label());
            series.push(s);
        }
    };
    add("delivery", RunMetrics::delivery_ratio);
    add("energy", RunMetrics::energy_per_packet_uj);
    let dropped = total(results, |m| m.adversary.packets_dropped);
    let bogus = total(results, |m| m.adversary.bogus_advs);
    let adversaries = total(results, |m| m.adversary.adversaries);
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

/// EXT6's satellite-pass period and run horizon at `scale`.
fn pass_schedule(scale: &Scale) -> (SimTime, SimTime) {
    (scale.mean_gap * 5, scale.horizon_for(25))
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
/// which is what lets the CI sweep smoke byte-diff its JSON across
/// `--workers` while still sweeping duty cycles *inside* the figure.
/// Returns the delivery-ratio figure, then the energy-per-delivery figure.
fn ext6(scale: &Scale, results: &Runs) -> Vec<FigureResult> {
    let duties = Sweep::DutyCycles.xs(scale);
    let (period, horizon) = pass_schedule(scale);
    let names = ROBUSTNESS_PROTOCOLS.map(|p| p.label());
    let delivery_series: Vec<SeriesData> = names
        .iter()
        .map(|n| series_of(results, n, RunMetrics::delivery_ratio, &duties))
        .collect();
    let epochs = total(results, |m| m.routing.contact_epochs);
    let ups = total(results, |m| m.routing.contact_links_up);
    let downs = total(results, |m| m.routing.contact_links_down);
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
    let energy_series = energy_per_delivery(results, &names, &duties);
    let scheduled: Vec<String> = duties
        .iter()
        .map(|&d| {
            let plan = crate::contact_plans::satellite_passes(5, period, d, horizon)
                .expect("valid pass schedule");
            let got = plan.duty_cycle(
                spms_net::NodeId::new(0),
                spms_net::NodeId::new(5 / 2),
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
    vec![ext6a, ext6b]
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

    /// The output of the single target `id` at smoke scale and `seed`,
    /// through the plan.
    fn render(id: &str, seed: u64, sweep: &SweepConfig) -> Rendered {
        let outcome = Plan::new(&[id], &Scale::smoke(), &[seed])
            .unwrap()
            .run(sweep);
        assert_eq!(outcome.failed, [], "{id}");
        let mut targets = outcome.targets;
        assert_eq!(targets.len(), 1, "{id}");
        let (got, rendered) = targets.remove(0);
        assert_eq!(got, id);
        rendered.expect("no run failed")
    }

    /// The figures of the single target `id` at smoke scale and `seed`,
    /// one render each.
    fn figures(id: &str, seed: u64, sweep: &SweepConfig) -> Vec<FigureResult> {
        let Rendered::Figures(figures) = render(id, seed, sweep) else {
            panic!("{id} renders text");
        };
        figures.into_iter().flatten().collect()
    }

    fn figure(id: &str, seed: u64, sweep: &SweepConfig) -> FigureResult {
        let mut figures = figures(id, seed, sweep);
        assert_eq!(figures.len(), 1, "{id}");
        figures.remove(0)
    }

    #[test]
    fn whole_numbers_never_print_negative_zero() {
        assert_eq!(whole(-0.3), "0");
        assert_eq!(whole(-0.6), "-1");
        assert_eq!(whole(42.4), "42");
    }

    #[test]
    fn all_expands_to_each_distinct_run_once() {
        // Figs. 6/8/10 share one node sweep and Figs. 7/9/11/EXT2 one
        // radius sweep; the plan expands each once per seed. Expansion
        // alone runs no simulation.
        for (scale, per_seed) in [
            (Scale::smoke(), 70),
            (Scale::quick(), 102),
            (Scale::paper(), 148),
        ] {
            let one = Plan::new(&["all"], &scale, &[42]).unwrap();
            assert_eq!(one.simulations(), per_seed);
            let two = Plan::new(&["all"], &scale, &[42, 43]).unwrap();
            assert_eq!(two.simulations(), 2 * per_seed);
        }
        let shared = Plan::new(&["fig6", "fig8", "fig10"], &Scale::smoke(), &[1, 2]).unwrap();
        assert_eq!(shared.simulations(), 16);
        let seed_free = Plan::new(&["table1", "fig3", "fig5"], &Scale::paper(), &[1]).unwrap();
        assert_eq!(seed_free.simulations(), 0);
    }

    #[test]
    fn unknown_targets_and_empty_seed_lists_are_rejected() {
        let err = Plan::new(&["fig6", "fig99"], &Scale::smoke(), &[1]).unwrap_err();
        assert!(err.contains("unknown target fig99"), "{err}");
        assert!(err.contains("fig12") && err.contains("all"), "{err}");
        assert!(Plan::new(&["fig6"], &Scale::smoke(), &[]).is_err());
    }

    #[test]
    fn targets_render_in_table_order_whatever_the_request_order() {
        let ids: Vec<&str> = Plan::new(&["breakeven", "fig5", "table1"], &Scale::smoke(), &[1])
            .unwrap()
            .run(&SweepConfig::with_workers(1))
            .targets
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, ["table1", "fig5", "breakeven"]);
    }

    #[test]
    fn a_failed_run_withholds_only_the_targets_that_read_it() {
        // The override names a node no figure's topology has, so every
        // spec that takes it fails; EXT6 pins its own plans and fig3 runs
        // nothing.
        let sweep = SweepConfig {
            contact_plan: Some(spms_net::ContactPlan::parse("0 999 1 2\n").unwrap()),
            ..SweepConfig::auto()
        };
        let outcome = Plan::new(&["fig3", "fig12", "ext6"], &Scale::smoke(), &[7])
            .unwrap()
            .run(&sweep);
        let runs: Vec<&str> = outcome.failed.iter().map(|(run, _)| run.as_str()).collect();
        assert_eq!(
            runs,
            ["SPMS r=10", "SPMS r=20", "SPIN r=10", "SPIN r=20"]
                .map(|label| format!("{label} (RadiiMobility sweep, seed 7)"))
        );
        for (run, error) in &outcome.failed {
            assert!(
                error.contains("contact plan names node n999"),
                "{run}: {error}"
            );
        }
        let emitted: Vec<(&str, bool)> = outcome
            .targets
            .iter()
            .map(|(id, rendered)| (*id, rendered.is_some()))
            .collect();
        assert_eq!(emitted, [("fig3", true), ("fig12", false), ("ext6", true)]);
    }

    #[test]
    fn fig3_and_fig5_are_cheap_and_labelled() {
        let sweep = SweepConfig::auto();
        let f3 = figure("fig3", 1, &sweep);
        assert_eq!(f3.series.len(), 1);
        assert_eq!(f3.series[0].points.len(), 30);
        let f5 = figure("fig5", 1, &sweep);
        assert!(f5.series[0].points.iter().all(|p| p.1 >= 1.0));
    }

    #[test]
    fn fig6_fig8_shapes_hold_at_smoke_scale() {
        let sweep = SweepConfig::auto();
        let f6 = figure("fig6", 1, &sweep);
        let spms = f6.series_named("SPMS").unwrap();
        let spin = f6.series_named("SPIN").unwrap();
        // SPMS uses less energy per packet at every network size.
        for (a, b) in spms.points.iter().zip(spin.points.iter()) {
            assert!(a.1 < b.1, "SPMS {a:?} must beat SPIN {b:?}");
        }
        // SPMS is faster at every network size.
        let f8 = figure("fig8", 1, &sweep);
        let spms_d = f8.series_named("SPMS").unwrap();
        let spin_d = f8.series_named("SPIN").unwrap();
        for (a, b) in spms_d.points.iter().zip(spin_d.points.iter()) {
            assert!(a.1 < b.1, "SPMS delay {a:?} must beat SPIN {b:?}");
        }
    }

    #[test]
    fn ext4_many_flow_figure_is_worker_independent() {
        let sequential = figure("ext4", 3, &SweepConfig::with_workers(1));
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
        assert_eq!(figure("ext4", 3, &SweepConfig::with_workers(2)), sequential);
    }

    #[test]
    fn table1_and_breakeven_render() {
        let sweep = SweepConfig::auto();
        let Rendered::Text(t) = render("table1", 1, &sweep) else {
            panic!("table1 renders text");
        };
        assert!(t.contains("3.1622"));
        assert!(t.contains("DATA:REQ = 20"));
        let Rendered::Text(b) = render("breakeven", 1, &sweep) else {
            panic!("breakeven renders text");
        };
        assert!(b.contains("packets"));
    }

    #[test]
    fn fig12_notes_surface_the_routing_counters() {
        // The fig12 sweep is where every incremental-routing substrate
        // meets the paper's mobility workload: its notes must surface the
        // zone-patch, shard-planner and window counters with the values
        // the runs actually recorded.
        let scale = Scale::smoke();
        let sweep = SweepConfig::auto();
        let results = try_run_specs(Sweep::RadiiMobility.specs(&scale, 7), &sweep);
        let spms: Vec<&RunMetrics> = results
            .iter()
            .filter(|(l, _)| l.starts_with("SPMS"))
            .map(|(_, m)| m.as_ref().unwrap())
            .collect();
        let epochs: u64 = spms.iter().map(|m| m.mobility_epochs).sum();
        assert!(epochs > 0, "the sweep must exercise mobility");
        // Every SPMS mobility run re-converges through the shard planner
        // once per epoch.
        for m in &spms {
            assert_eq!(m.routing.zone_patches, m.mobility_epochs);
            assert_eq!(m.routing.incremental_executions, m.mobility_epochs);
            assert_eq!(m.routing.sharded_executions, m.mobility_epochs);
            assert_eq!(m.routing.batch_windows, m.mobility_epochs);
            assert_eq!(m.routing.epochs_coalesced, 0);
        }
        let fig = figure("fig12", 7, &sweep);
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
        let [a, b] = <[_; 2]>::try_from(figures("ext1", 3, &SweepConfig::auto())).unwrap();
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
        let f = figure("ext3", 5, &SweepConfig::auto());
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
        let base = figure("ext5", 9, &SweepConfig::auto());
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
        assert_eq!(figure("ext5", 9, &SweepConfig::with_workers(1)), base);
        let attacked = SweepConfig {
            adversary: AdversaryOverride {
                fraction: Some(0.5),
                behavior: Some(spms::NodeBehavior::SilentDropper),
                ..AdversaryOverride::default()
            },
            ..SweepConfig::auto()
        };
        assert_eq!(
            figure("ext5", 9, &attacked),
            base,
            "pinned specs are immune"
        );
    }

    #[test]
    fn ext6_contact_figure_degrades_delivery_and_is_knob_independent() {
        let both = figures("ext6", 11, &SweepConfig::auto());
        let [base, energy] = <[_; 2]>::try_from(both.clone()).unwrap();
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
        assert_eq!(figures("ext6", 11, &SweepConfig::with_workers(1)), both);
        let severed = SweepConfig {
            contact_plan: Some(spms_net::ContactPlan::parse("0 1 1000000 1000001\n").unwrap()),
            ..SweepConfig::auto()
        };
        assert_eq!(
            figures("ext6", 11, &severed),
            both,
            "pinned specs are immune"
        );
    }

    #[test]
    fn ext2_hottest_node_favors_spms() {
        let f = figure("ext2", 4, &SweepConfig::auto());
        let spms = f.series_named("SPMS hottest").unwrap();
        let spin = f.series_named("SPIN hottest").unwrap();
        assert_eq!(spms.points.len(), Scale::smoke().radii_m.len());
        for ((_, a), (_, b)) in spms.points.iter().zip(spin.points.iter()) {
            assert!(a > &0.0);
            assert!(a <= b, "SPMS hottest {a} must not exceed SPIN's {b}");
        }
        assert!(f.notes.iter().any(|n| n.contains("imbalance")));
    }
}
