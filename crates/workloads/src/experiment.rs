//! Experiment specifications and the deterministic parallel sweep
//! executor.
//!
//! Every paper figure reads parameter sweeps: vectors of [`RunSpec`]s, each
//! an independently deterministic simulation (all randomness comes from the
//! spec's config seed). [`try_run_specs`] executes them on a scoped-thread
//! worker pool ([`SweepConfig`]): workers claim specs from a shared index
//! and scatter results back **by spec index**, so the output order and
//! every [`RunMetrics`] byte are identical to the sequential path for any
//! worker count — thread count is a wall-clock knob, never a semantic one
//! (property-tested in `tests/sweep.rs`). A spec that fails (engine error
//! or panic) gets its own error in its own slot and can neither poison nor
//! reorder its siblings. A figure [`crate::figures::Plan`] is one call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use spms::{AdversaryConfig, NodeBehavior, RunMetrics, SimConfig, Simulation, TrafficPlan};
use spms_kernel::SimTime;
use spms_net::{ChurnConfig, ContactPlan, Topology};

/// Experiment scale: the paper's full parameter grid, or a laptop-friendly
/// subset for CI and Criterion benches.
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    /// Node counts for the N sweeps (perfect squares; the paper uses
    /// 25–225 at uniform density).
    pub node_counts: Vec<usize>,
    /// Transmission radii for the radius sweeps (m).
    pub radii_m: Vec<f64>,
    /// Packets generated per node (Table 1 workload: 10).
    pub packets_per_node: u32,
    /// Node count used by radius sweeps (paper: 169).
    pub default_nodes: usize,
    /// Grid spacing (m); 5 m keeps the paper's n1 ≈ 45, ns = 5 densities.
    pub spacing_m: f64,
    /// Mean network-wide gap between packet births. Chosen so each item's
    /// dissemination largely completes before the next begins — the
    /// unsaturated regime the paper's measured delays imply. The
    /// event-driven kernel makes idle time free.
    pub mean_gap: SimTime,
}

impl Scale {
    /// The paper's full grid.
    #[must_use]
    pub fn paper() -> Self {
        Scale {
            node_counts: vec![25, 49, 100, 169, 225],
            radii_m: vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            packets_per_node: 10,
            default_nodes: 169,
            spacing_m: 5.0,
            mean_gap: SimTime::from_secs(5),
        }
    }

    /// A reduced grid with the same shape (minutes instead of tens of
    /// minutes; used by the Criterion benches and CI).
    #[must_use]
    pub fn quick() -> Self {
        Scale {
            node_counts: vec![25, 49, 81],
            radii_m: vec![10.0, 15.0, 20.0],
            packets_per_node: 2,
            default_nodes: 49,
            spacing_m: 5.0,
            mean_gap: SimTime::from_millis(1500),
        }
    }

    /// A minimal grid for smoke tests.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            node_counts: vec![16, 25],
            radii_m: vec![10.0, 20.0],
            packets_per_node: 1,
            default_nodes: 25,
            spacing_m: 5.0,
            mean_gap: SimTime::from_millis(400),
        }
    }

    /// A horizon comfortably beyond the whole paced workload for `n` nodes.
    #[must_use]
    pub fn horizon_for(&self, n: usize) -> SimTime {
        let total_packets = n as u64 * u64::from(self.packets_per_node);
        self.mean_gap * (2 * total_packets + 50) + SimTime::from_secs(60)
    }

    /// Validates the scale.
    ///
    /// # Errors
    ///
    /// Returns a message if any sweep list is empty, a node count is not a
    /// perfect square, or the spacing is invalid.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_counts.is_empty() || self.radii_m.is_empty() {
            return Err("sweep lists must be non-empty".into());
        }
        for &n in &self.node_counts {
            let side = (n as f64).sqrt().round() as usize;
            if side * side != n {
                return Err(format!("{n} is not a perfect square"));
            }
        }
        if self.packets_per_node == 0 {
            return Err("packets_per_node must be positive".into());
        }
        if !self.spacing_m.is_finite() || self.spacing_m <= 0.0 {
            return Err(format!("bad spacing {}", self.spacing_m));
        }
        Ok(())
    }
}

/// One run to execute: a labelled (config, topology, plan) triple.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Label carried into the results (e.g. "SPMS n=169 r=20").
    pub label: String,
    /// Simulation configuration.
    pub config: SimConfig,
    /// The network.
    pub topology: Topology,
    /// The traffic.
    pub plan: TrafficPlan,
}

/// Sweep-executor configuration: the worker pool plus the semantic
/// overrides every spec of the sweep picks up.
///
/// Passed by reference to [`try_run_specs`] and
/// [`crate::figures::Plan::run`], so two sweeps in one process can run side
/// by side under different settings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepConfig {
    /// Worker threads claiming specs; `0` resolves to the host's available
    /// parallelism. Purely a wall-clock knob — results are byte-identical
    /// for every value, because each run is a pure function of its spec
    /// and results land in slots keyed by spec index, not completion time.
    pub workers: usize,
    /// Adversary/churn override (the `repro` bin's `--adversary-*` and
    /// `--churn-rate` flags). A **semantic** knob: it changes results like
    /// a seed. It fills only specs whose config left `adversary` / `churn`
    /// unset, so figures that pin their own (EXT5) are immune.
    pub adversary: AdversaryOverride,
    /// Contact-plan override (the `repro` bin's `--contact-plan` flag),
    /// another **semantic** knob. It fills only specs whose config left
    /// `contact_plan` unset, so figures that pin their own (EXT6) are
    /// immune.
    pub contact_plan: Option<ContactPlan>,
}

impl SweepConfig {
    /// Auto-sized pool (`workers = 0`: the host's available parallelism),
    /// no overrides.
    #[must_use]
    pub fn auto() -> Self {
        Self::default()
    }

    /// A fixed-size pool (`1` = the sequential reference path, inline on
    /// the calling thread), no overrides.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        SweepConfig {
            workers,
            ..Self::default()
        }
    }

    /// The thread count a `jobs`-spec sweep actually runs with.
    fn resolved(&self, jobs: usize) -> usize {
        let workers = match self.workers {
            0 => spms_kernel::host_parallelism(),
            w => w,
        };
        workers.clamp(1, jobs.max(1))
    }
}

/// Adversary/churn override for a sweep ([`SweepConfig::adversary`]).
/// Every field left `None` keeps the documented default.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdversaryOverride {
    /// Adversary fraction; `Some` activates the adversary subsystem for
    /// every spec that did not configure its own.
    pub fraction: Option<f64>,
    /// Behavior the adversaries run (default flooding attacker).
    pub behavior: Option<NodeBehavior>,
    /// When the attack window opens (default: the start of the run).
    pub attack_start: Option<SimTime>,
    /// Bogus ADVs per first-seen item for flooding attackers.
    pub attack_factor: Option<u32>,
    /// Churn fraction per epoch; `Some` activates mass join/leave churn
    /// (at [`AdversaryOverride::DEFAULT_CHURN_INTERVAL`]) for every spec
    /// that did not configure its own.
    pub churn_rate: Option<f64>,
}

impl AdversaryOverride {
    /// Epoch interval used when churn is activated by `churn_rate` alone.
    pub const DEFAULT_CHURN_INTERVAL: SimTime = SimTime::from_millis(400);

    /// The adversary config this override fills in, if it sets a fraction.
    fn adversary(&self) -> Option<AdversaryConfig> {
        self.fraction.map(|fraction| AdversaryConfig {
            fraction,
            behavior: self.behavior.unwrap_or(NodeBehavior::Flooding),
            attack_start: self.attack_start.unwrap_or(SimTime::ZERO),
            attack_factor: self.attack_factor.unwrap_or(2),
            explicit: None,
        })
    }

    /// Fills `config`'s unset `adversary` / `churn` slots from this
    /// override. Callers check the values up front with
    /// [`AdversaryOverride::validate`]; `Simulation::new` checks them
    /// again, so an unchecked bad override fails its spec with a message
    /// instead of panicking.
    pub fn apply(&self, config: &mut SimConfig) {
        if config.adversary.is_none() {
            config.adversary = self.adversary();
        }
        if config.churn.is_none() {
            if let Some(fraction) = self.churn_rate {
                config.churn = Some(ChurnConfig {
                    interval: Self::DEFAULT_CHURN_INTERVAL,
                    fraction,
                });
            }
        }
    }

    /// Checks the values [`AdversaryOverride::apply`] would fill in, with
    /// the same rules the engine enforces on them.
    ///
    /// # Errors
    ///
    /// Returns the adversary or churn config's own message: a fraction or
    /// churn rate outside `[0, 1]` (NaN included), or a zero attack factor.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(adversary) = self.adversary() {
            adversary.validate()?;
        }
        if let Some(rate) = self.churn_rate {
            ChurnConfig::new(Self::DEFAULT_CHURN_INTERVAL, rate)?;
        }
        Ok(())
    }
}

/// The DBF shard count each of `workers` concurrent simulations gets on a
/// host with `host` hardware threads: an even share, at least one, so
/// sweep workers times pool threads stay within the host.
fn dbf_shards_per_run(host: usize, workers: usize) -> usize {
    (host / workers.max(1)).max(1)
}

/// Runs one spec under the sweep's overrides, containing failures: an
/// engine error or a panic inside the run becomes an `Err` carrying the
/// message, so one bad spec can never poison, reorder, or abort its
/// siblings. A spec that left `dbf_shards` unset (`0`) gets `dbf_shards`,
/// the sweep's per-run share of the host.
fn run_one(spec: &RunSpec, sweep: &SweepConfig, dbf_shards: usize) -> Result<RunMetrics, String> {
    let run = || {
        let mut config = spec.config.clone();
        sweep.adversary.apply(&mut config);
        if config.contact_plan.is_none() {
            config.contact_plan = sweep.contact_plan.clone();
        }
        if config.dbf_shards == 0 {
            config.dbf_shards = dbf_shards;
        }
        Simulation::run_with(config, spec.topology.clone(), spec.plan.clone())
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(metrics)) => Ok(metrics),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(panic_text(payload.as_ref())),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "spec panicked".into()
    }
}

/// Runs every spec on a [`SweepConfig`]-sized worker pool, preserving
/// input order and containing per-spec failures to their own slot.
///
/// Workers claim specs from a shared atomic index and keep their results
/// in worker-local buffers; after the scope joins, results scatter into
/// the output by spec index. No slot is ever shared between workers, so
/// there is nothing to lock, nothing to poison, and nothing whose order
/// depends on scheduling.
#[must_use]
pub fn try_run_specs(
    specs: Vec<RunSpec>,
    sweep: &SweepConfig,
) -> Vec<(String, Result<RunMetrics, String>)> {
    let workers = sweep.resolved(specs.len());
    let dbf_shards = dbf_shards_per_run(spms_kernel::host_parallelism(), workers);
    let mut outcomes: Vec<Option<Result<RunMetrics, String>>> = Vec::new();
    outcomes.resize_with(specs.len(), || None);
    if workers <= 1 {
        // The sequential reference path every pool size must reproduce.
        for (slot, spec) in specs.iter().enumerate() {
            outcomes[slot] = Some(run_one(spec, sweep, dbf_shards));
        }
    } else {
        let next = AtomicUsize::new(0);
        let specs_ref = &specs;
        std::thread::scope(|scope| {
            let pool: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut claimed: Vec<(usize, Result<RunMetrics, String>)> = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            if slot >= specs_ref.len() {
                                break;
                            }
                            claimed.push((slot, run_one(&specs_ref[slot], sweep, dbf_shards)));
                        }
                        claimed
                    })
                })
                .collect();
            for worker in pool {
                let claimed = worker.join().expect("run_one contains spec panics");
                for (slot, outcome) in claimed {
                    outcomes[slot] = Some(outcome);
                }
            }
        });
    }
    specs
        .into_iter()
        .zip(outcomes)
        .map(|(spec, outcome)| {
            (
                spec.label,
                outcome.expect("every slot is claimed exactly once"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::single_source;
    use spms::ProtocolKind;
    use spms_kernel::SimTime;
    use spms_net::{placement, NodeId};

    #[test]
    fn scales_are_valid() {
        assert!(Scale::paper().validate().is_ok());
        assert!(Scale::quick().validate().is_ok());
        assert!(Scale::smoke().validate().is_ok());
        let mut bad = Scale::quick();
        bad.node_counts = vec![26];
        assert!(bad.validate().is_err());
        let mut bad = Scale::quick();
        bad.radii_m.clear();
        assert!(bad.validate().is_err());
    }

    fn mk(
        topo: &spms_net::Topology,
        plan: &TrafficPlan,
        label: &str,
        protocol: ProtocolKind,
    ) -> RunSpec {
        RunSpec {
            label: label.to_string(),
            config: SimConfig::paper_defaults(protocol, 11),
            topology: topo.clone(),
            plan: plan.clone(),
        }
    }

    #[test]
    fn run_specs_preserves_order_and_determinism() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let plan = single_source(NodeId::new(4), 1, SimTime::ZERO).unwrap();
        let specs = vec![
            mk(&topo, &plan, "a", ProtocolKind::Spms),
            mk(&topo, &plan, "b", ProtocolKind::Spin),
            mk(&topo, &plan, "c", ProtocolKind::Spms),
        ];
        let out = try_run_specs(specs, &SweepConfig::auto());
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, "a");
        assert_eq!(out[1].0, "b");
        assert_eq!(out[2].0, "c");
        // Identical specs give identical metrics regardless of scheduling.
        assert_eq!(out[0].1, out[2].1);
        assert_eq!(out[0].1.as_ref().unwrap().deliveries, 8);
    }

    #[test]
    fn adversary_override_fills_only_unset_slots() {
        // Untouched by default.
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
        AdversaryOverride::default().apply(&mut config);
        assert_eq!(config.adversary, None);
        assert_eq!(config.churn, None);

        // Fills both slots, with documented defaults for unset fields.
        let over = AdversaryOverride {
            fraction: Some(0.2),
            churn_rate: Some(0.1),
            ..AdversaryOverride::default()
        };
        over.apply(&mut config);
        let adv = config.adversary.clone().expect("adversary filled");
        assert_eq!(adv.fraction, 0.2);
        assert_eq!(adv.behavior, spms::NodeBehavior::Flooding);
        assert_eq!(adv.attack_start, SimTime::ZERO);
        assert_eq!(adv.attack_factor, 2);
        assert_eq!(adv.explicit, None);
        let churn = config.churn.expect("churn filled");
        assert_eq!(churn.interval, AdversaryOverride::DEFAULT_CHURN_INTERVAL);
        assert_eq!(churn.fraction, 0.1);
        assert!(config.validate().is_ok(), "filled defaults must validate");

        // Specs that pin their own settings are immune (EXT5's guarantee).
        let mut pinned = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
        pinned.adversary =
            Some(AdversaryConfig::new(spms::NodeBehavior::SilentDropper, 0.5).unwrap());
        pinned.churn = Some(ChurnConfig::new(SimTime::from_millis(40), 0.25).unwrap());
        let before = pinned.clone();
        over.apply(&mut pinned);
        assert_eq!(pinned.adversary, before.adversary);
        assert_eq!(pinned.churn, before.churn);
    }

    #[test]
    fn bad_adversary_overrides_are_rejected_up_front() {
        let over = |fraction, attack_factor, churn_rate| AdversaryOverride {
            fraction,
            attack_factor,
            churn_rate,
            ..AdversaryOverride::default()
        };
        assert_eq!(AdversaryOverride::default().validate(), Ok(()));
        assert_eq!(over(Some(0.2), Some(3), Some(0.25)).validate(), Ok(()));
        // An attack factor without a fraction activates nothing.
        assert_eq!(over(None, Some(0), None).validate(), Ok(()));
        for (bad, want) in [
            (
                over(Some(2.0), None, None),
                "adversary fraction 2 outside [0, 1]",
            ),
            (
                over(Some(f64::NAN), None, None),
                "adversary fraction NaN outside [0, 1]",
            ),
            (
                over(None, None, Some(-1.0)),
                "churn fraction -1 outside [0, 1]",
            ),
            (
                over(Some(0.2), Some(0), None),
                "attack_factor must be at least 1",
            ),
        ] {
            assert_eq!(bad.validate(), Err(want.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn worker_counts_resolve_sanely() {
        assert_eq!(SweepConfig::default(), SweepConfig::auto());
        assert_eq!(SweepConfig::with_workers(3).resolved(10), 3);
        // Never more workers than specs, never fewer than one.
        assert_eq!(SweepConfig::with_workers(8).resolved(2), 2);
        assert_eq!(SweepConfig::with_workers(5).resolved(0), 1);
        assert!(SweepConfig::auto().resolved(64) >= 1);
    }

    #[test]
    fn dbf_shards_split_the_host_between_sweep_workers() {
        // One simulation keeps the whole host; concurrent ones share it.
        assert_eq!(dbf_shards_per_run(2, 1), 2);
        assert_eq!(dbf_shards_per_run(2, 2), 1);
        assert_eq!(dbf_shards_per_run(8, 2), 4);
        assert_eq!(dbf_shards_per_run(8, 3), 2);
        // Never zero shards: more workers than threads still get one each.
        assert_eq!(dbf_shards_per_run(2, 4), 1);
        assert_eq!(dbf_shards_per_run(1, 1), 1);
        assert_eq!(dbf_shards_per_run(4, 0), 4);
        for host in 1..=16 {
            for workers in 1..=16 {
                let shards = dbf_shards_per_run(host, workers);
                assert!(shards >= 1);
                assert!(
                    workers * shards <= host.max(workers),
                    "{workers} workers × {shards} shards on {host} threads"
                );
            }
        }
    }

    #[test]
    fn failed_specs_do_not_poison_or_reorder_siblings() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let plan = single_source(NodeId::new(4), 1, SimTime::ZERO).unwrap();
        // An out-of-range generator node makes the engine reject the spec.
        let bad_plan = single_source(NodeId::new(99), 1, SimTime::ZERO).unwrap();
        let specs = vec![
            mk(&topo, &plan, "good-0", ProtocolKind::Spms),
            RunSpec {
                plan: bad_plan,
                ..mk(&topo, &plan, "bad", ProtocolKind::Spms)
            },
            mk(&topo, &plan, "good-2", ProtocolKind::Spms),
        ];
        for workers in [1usize, 2, 4] {
            let out = try_run_specs(specs.clone(), &SweepConfig::with_workers(workers));
            let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, ["good-0", "bad", "good-2"], "{workers} workers");
            assert!(out[1].1.is_err(), "{workers} workers: bad spec must fail");
            let good = out[0].1.as_ref().unwrap();
            assert_eq!(good, out[2].1.as_ref().unwrap(), "{workers} workers");
            assert_eq!(good.deliveries, 8, "{workers} workers");
        }
    }

    #[test]
    fn every_failed_spec_reports_its_own_error() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let plan = single_source(NodeId::new(4), 1, SimTime::ZERO).unwrap();
        let bad = |label: &str, source: u32| RunSpec {
            plan: single_source(NodeId::new(source), 1, SimTime::ZERO).unwrap(),
            ..mk(&topo, &plan, label, ProtocolKind::Spms)
        };
        let specs = vec![
            mk(&topo, &plan, "good", ProtocolKind::Spms),
            bad("bad-early", 97),
            bad("bad-late", 99),
        ];
        for workers in [1usize, 2] {
            let out = try_run_specs(specs.clone(), &SweepConfig::with_workers(workers));
            assert!(out[0].1.is_ok(), "{workers} workers");
            // Each failure names its own out-of-range source, not the
            // first failure's.
            for (slot, node) in [(1, "n97"), (2, "n99")] {
                let err = out[slot].1.as_ref().expect_err("bad spec must fail");
                assert!(err.contains(node), "{workers} workers, slot {slot}: {err}");
            }
        }
    }
}
