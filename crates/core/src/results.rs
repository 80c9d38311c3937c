//! Run metrics: everything the paper's figures are computed from.

use spms_kernel::stats::{Counter, Tally};
use spms_kernel::SimTime;
use spms_phy::EnergyBreakdown;

/// Aggregate routing-protocol cost over a run (initial formation plus every
/// mobility re-execution).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutingCost {
    /// DBF executions (1 for static runs in distributed mode).
    pub executions: u64,
    /// How many of those executions were incremental delta re-convergences
    /// (scoped to the zones a mobility or failure event touched) rather
    /// than full from-scratch rebuilds.
    pub incremental_executions: u64,
    /// Delta re-convergences run through the zone-shard planner, which
    /// no longer exists: every exchange runs on the calling thread, so
    /// this always equals [`RoutingCost::incremental_executions`]
    /// (asserted in tests). It is kept so that `RunMetrics` and fig12's
    /// planner note stay byte-identical until the figure JSON is
    /// re-baselined.
    pub sharded_executions: u64,
    /// Re-convergence windows. Every epoch and every liveness flip
    /// re-converges on its own, so this always equals
    /// [`RoutingCost::incremental_executions`]. It is kept so that
    /// `RunMetrics` and fig12's planner note stay byte-identical across
    /// versions.
    pub batch_windows: u64,
    /// Mobility epochs whose re-convergence was deferred into a later
    /// window. Always 0, since no epoch is deferred; kept so that
    /// `RunMetrics` and fig12's note stay byte-identical across versions.
    pub epochs_coalesced: u64,
    /// Mobility epochs whose zone table was patched in place
    /// (`ZoneTable::patch` over the spatial grid) instead of rebuilt
    /// from scratch.
    pub zone_patches: u64,
    /// Zone rows (link lists + density counts) those patches rebuilt — the
    /// O(k) work actually done where a full build touches all `n` rows per
    /// epoch.
    pub zone_rows_patched: u64,
    /// Liveness flips (failures, repairs, battery deaths, churn cohorts)
    /// re-converged incrementally, one delta re-convergence each. Zero
    /// without `SimConfig::incremental_routing` in distributed mode, where
    /// flips ride out on alternative routes until the next rebuild; the
    /// field keeps its name so that `RunMetrics` stays byte-identical
    /// across versions.
    pub liveness_deltas: u64,
    /// Contact-plan epochs applied (scheduled window boundaries reached).
    /// Counts *plan events*, not rows or threads: byte-identical across
    /// sweep workers.
    pub contact_epochs: u64,
    /// Scheduled link up-flips applied (window opens after `t = 0`).
    pub contact_links_up: u64,
    /// Scheduled link down-flips applied (window closes).
    pub contact_links_down: u64,
    /// Total synchronous rounds.
    pub rounds: u64,
    /// Total vector broadcasts.
    pub messages: u64,
    /// Total bytes on air.
    pub bytes: u64,
    /// Total data-plane pause spent waiting for convergence.
    pub converge_time: SimTime,
}

/// Message counters by kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// ADV broadcasts transmitted.
    pub adv: Counter,
    /// REQ transmissions (including relay forwards).
    pub req: Counter,
    /// DATA transmissions (including relay forwards).
    pub data: Counter,
    /// Frames lost to dead transmitters/receivers or stale links.
    pub dropped: Counter,
}

impl MessageCounts {
    /// Total protocol transmissions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.adv.value() + self.req.value() + self.data.value()
    }
}

/// Adversary and churn counters for one run.
///
/// Like every other field of [`RunMetrics`] these are **semantic**
/// quantities: byte-identical across sweep worker pools
/// (checked by `tests/integration_adversarial.rs`), and changed only by
/// the seed and the adversary/churn configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Nodes running an adversarial [`crate::NodeBehavior`].
    pub adversaries: u64,
    /// Packets swallowed by adversaries instead of being processed.
    pub packets_dropped: u64,
    /// Bogus ADV broadcasts transmitted by flooding attackers and
    /// metadata liars.
    pub bogus_advs: u64,
    /// Churn epochs applied.
    pub churn_epochs: u64,
    /// Departed nodes that rejoined at a churn epoch.
    pub churn_joins: u64,
    /// Alive nodes that left at a churn epoch.
    pub churn_leaves: u64,
    /// Churn epochs whose re-convergence was deferred into a later
    /// window. Always 0, since every cohort re-converges at once; kept so
    /// that `RunMetrics` stays byte-identical across versions.
    pub churn_coalesced: u64,
}

/// The result of one simulation run.
///
/// # Example
///
/// ```no_run
/// use spms::{RunMetrics, SimConfig, ProtocolKind};
/// # fn run(config: SimConfig) -> RunMetrics { unimplemented!() }
/// let metrics = run(SimConfig::paper_defaults(ProtocolKind::Spms, 1));
/// println!(
///     "{}: {:.1} µJ/packet, {:.2} ms avg delay",
///     metrics.protocol,
///     metrics.energy_per_packet_uj(),
///     metrics.delay_ms.mean()
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Protocol label ("SPIN", "SPMS", "FLOOD").
    pub protocol: &'static str,
    /// Network size.
    pub nodes: usize,
    /// The experiment's transmission radius (m).
    pub zone_radius_m: f64,
    /// Data items generated.
    pub packets_generated: u64,
    /// Deliveries a perfect run would make.
    pub deliveries_expected: u64,
    /// Deliveries made.
    pub deliveries: u64,
    /// Duplicate data receptions (implosion measure).
    pub duplicates: u64,
    /// Items whose retry ladders gave up at least once.
    pub abandonments: u64,
    /// Per-delivery end-to-end delay (ms), measured from the source's ADV
    /// transmission to data reception, as in §5.1.
    pub delay_ms: Tally,
    /// Network-wide energy, categorized.
    pub energy: EnergyBreakdown,
    /// Message counters.
    pub messages: MessageCounts,
    /// Routing (DBF) cost, all-zero for SPIN/flooding or oracle mode.
    pub routing: RoutingCost,
    /// Per-frame MAC queueing delay (ms) — diagnostic for the delay gap.
    pub mac_queue_wait_ms: Tally,
    /// Failures injected (failure runs).
    pub failures_injected: u64,
    /// Mobility epochs applied (mobility runs).
    pub mobility_epochs: u64,
    /// Adversary and churn counters (all-zero for benign runs).
    pub adversary: AdversaryStats,
    /// Simulated time at which the run ended.
    pub finished_at: SimTime,
    /// Events processed by the kernel.
    pub events_processed: u64,
    /// Per-node total energy (µJ), indexed by node id — the load
    /// distribution behind [`RunMetrics::energy`]'s network total (e.g.
    /// for hot-spot heatmaps; SPMS concentrates load on relays near the
    /// source, SPIN on every zone member).
    pub per_node_energy_uj: Vec<f64>,
    /// Nodes that permanently died of battery depletion (only nonzero when
    /// `SimConfig::battery_capacity_uj` is set).
    pub nodes_dead: u64,
    /// Time of the first battery death — the classic network-lifetime
    /// metric (`None` = everyone survived).
    pub first_death_at: Option<SimTime>,
}

impl RunMetrics {
    /// Average network energy per generated packet, µJ — the y-axis of the
    /// paper's Figures 6, 7, 12 and 13.
    #[must_use]
    pub fn energy_per_packet_uj(&self) -> f64 {
        if self.packets_generated == 0 {
            0.0
        } else {
            self.energy.total().value() / self.packets_generated as f64
        }
    }

    /// Fraction of expected deliveries made.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.deliveries_expected == 0 {
            1.0
        } else {
            self.deliveries as f64 / self.deliveries_expected as f64
        }
    }

    /// Average end-to-end delay in ms — the y-axis of Figures 8–11.
    #[must_use]
    pub fn avg_delay_ms(&self) -> f64 {
        self.delay_ms.mean()
    }

    /// Max-to-mean ratio of per-node energy — a load-imbalance indicator
    /// (1.0 = perfectly even; large = hot spots). Returns 0.0 for runs
    /// that consumed no energy.
    #[must_use]
    pub fn energy_imbalance(&self) -> f64 {
        let n = self.per_node_energy_uj.len();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = self.per_node_energy_uj.iter().sum();
        if sum <= 0.0 {
            return 0.0;
        }
        let max = self
            .per_node_energy_uj
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        max / (sum / n as f64)
    }

    /// One-line summary for logs and examples.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: n={} r={:.0}m pkts={} delivered={}/{} ({:.1}%) dup={} \
             energy/pkt={:.2}µJ delay={:.2}ms (p_max {:.2}ms)",
            self.protocol,
            self.nodes,
            self.zone_radius_m,
            self.packets_generated,
            self.deliveries,
            self.deliveries_expected,
            100.0 * self.delivery_ratio(),
            self.duplicates,
            self.energy_per_packet_uj(),
            self.avg_delay_ms(),
            self.delay_ms.max().unwrap_or(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_phy::{EnergyCategory, MicroJoules};

    fn metrics() -> RunMetrics {
        let mut energy = EnergyBreakdown::new();
        energy.charge(EnergyCategory::Data, MicroJoules::new(100.0));
        let mut delay = Tally::new();
        delay.record(2.0);
        delay.record(4.0);
        RunMetrics {
            protocol: "SPMS",
            nodes: 9,
            zone_radius_m: 20.0,
            packets_generated: 10,
            deliveries_expected: 80,
            deliveries: 80,
            duplicates: 3,
            abandonments: 0,
            delay_ms: delay,
            energy,
            messages: MessageCounts::default(),
            routing: RoutingCost::default(),
            mac_queue_wait_ms: Tally::new(),
            failures_injected: 0,
            mobility_epochs: 0,
            adversary: AdversaryStats::default(),
            finished_at: SimTime::from_millis(50),
            events_processed: 1234,
            per_node_energy_uj: vec![10.0, 30.0, 20.0, 40.0],
            nodes_dead: 0,
            first_death_at: None,
        }
    }

    #[test]
    fn derived_quantities() {
        let m = metrics();
        assert_eq!(m.energy_per_packet_uj(), 10.0);
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.avg_delay_ms(), 3.0);
    }

    #[test]
    fn zero_packet_run_is_safe() {
        let mut m = metrics();
        m.packets_generated = 0;
        m.deliveries_expected = 0;
        assert_eq!(m.energy_per_packet_uj(), 0.0);
        assert_eq!(m.delivery_ratio(), 1.0);
    }

    #[test]
    fn summary_mentions_key_figures() {
        let s = metrics().summary();
        assert!(s.contains("SPMS"));
        assert!(s.contains("80/80"));
        assert!(s.contains("µJ"));
    }

    #[test]
    fn energy_imbalance_is_max_over_mean() {
        let m = metrics();
        // mean 25, max 40.
        assert!((m.energy_imbalance() - 40.0 / 25.0).abs() < 1e-12);
        let mut flat = metrics();
        flat.per_node_energy_uj = vec![5.0; 8];
        assert!((flat.energy_imbalance() - 1.0).abs() < 1e-12);
        let mut empty = metrics();
        empty.per_node_energy_uj.clear();
        assert_eq!(empty.energy_imbalance(), 0.0);
        let mut zero = metrics();
        zero.per_node_energy_uj = vec![0.0; 4];
        assert_eq!(zero.energy_imbalance(), 0.0);
    }

    #[test]
    fn message_totals() {
        let mut mc = MessageCounts::default();
        mc.adv.add(5);
        mc.req.add(3);
        mc.data.add(2);
        mc.dropped.add(1);
        assert_eq!(mc.total(), 10);
    }
}
