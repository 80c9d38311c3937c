//! Failure-injection integration tests: the F-SPMS/F-SPIN behavior of
//! §5.1.2 — transient node failures with exponential inter-arrival and
//! uniform repair.

use spms::{ProtocolKind, RoutingMode, SimConfig, Simulation};
use spms_kernel::SimTime;
use spms_net::{placement, ChurnConfig, FailureConfig, MobilityConfig};
use spms_workloads::traffic;

fn run_with_failures(
    protocol: ProtocolKind,
    failures: Option<FailureConfig>,
    seed: u64,
) -> spms::RunMetrics {
    let topo = placement::grid(5, 5, 5.0).unwrap();
    let mut config = SimConfig::paper_defaults(protocol, seed);
    config.failures = failures;
    let plan = traffic::all_to_all(25, 2, SimTime::from_millis(250), seed).unwrap();
    Simulation::run_with(config, topo, plan).unwrap()
}

#[test]
fn failures_are_injected_and_recovered() {
    let m = run_with_failures(ProtocolKind::Spms, Some(FailureConfig::paper_defaults()), 1);
    assert!(m.failures_injected > 0, "the schedule must fire");
    // Transient failures with MTTR 10 ms must not prevent near-complete
    // delivery: recovery paths (SCONE failover, re-REQ on repair) exist.
    assert!(
        m.delivery_ratio() > 0.95,
        "delivery ratio {} too low",
        m.delivery_ratio()
    );
}

#[test]
fn spin_also_survives_failures_via_readvertisement() {
    let m = run_with_failures(ProtocolKind::Spin, Some(FailureConfig::paper_defaults()), 2);
    assert!(m.failures_injected > 0);
    assert!(
        m.delivery_ratio() > 0.9,
        "delivery ratio {}",
        m.delivery_ratio()
    );
}

#[test]
fn failures_increase_average_delay() {
    // Averaged over several seeds to smooth the stochastic failure
    // placement — the paper's Figure 10 claim.
    let mut ff = 0.0;
    let mut f = 0.0;
    for seed in [3, 4, 5, 6] {
        ff += run_with_failures(ProtocolKind::Spms, None, seed).avg_delay_ms();
        f += run_with_failures(
            ProtocolKind::Spms,
            Some(FailureConfig::paper_defaults()),
            seed,
        )
        .avg_delay_ms();
    }
    assert!(
        f > ff * 0.99,
        "failure-case delay {f:.2} should not undercut failure-free {ff:.2}"
    );
}

#[test]
fn heavier_failure_rates_hurt_more() {
    let light = FailureConfig {
        mean_interarrival: SimTime::from_millis(200),
        ..FailureConfig::paper_defaults()
    };
    let heavy = FailureConfig {
        mean_interarrival: SimTime::from_millis(10),
        ..FailureConfig::paper_defaults()
    };
    let m_light = run_with_failures(ProtocolKind::Spms, Some(light), 7);
    let m_heavy = run_with_failures(ProtocolKind::Spms, Some(heavy), 7);
    assert!(m_heavy.failures_injected > m_light.failures_injected);
    // More failures → more dropped frames (cancelled transfers).
    assert!(
        m_heavy.messages.dropped.value() >= m_light.messages.dropped.value(),
        "heavy {} vs light {}",
        m_heavy.messages.dropped.value(),
        m_light.messages.dropped.value()
    );
}

#[test]
fn failure_runs_are_deterministic() {
    let a = run_with_failures(
        ProtocolKind::Spms,
        Some(FailureConfig::paper_defaults()),
        42,
    );
    let b = run_with_failures(
        ProtocolKind::Spms,
        Some(FailureConfig::paper_defaults()),
        42,
    );
    assert_eq!(a, b);
}

#[test]
fn mass_departures_and_rejoins_run_to_completion() {
    // ISSUE 8 heavy churn at its extreme: EVERY live node leaves at each
    // churn epoch and the departed cohort rejoins at the next — the field
    // repeatedly empties and refills. The run must still terminate, count
    // whole cohorts, and replay byte-for-byte from its seed.
    let run = || {
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 11);
        config.churn = Some(ChurnConfig::new(SimTime::from_millis(60), 1.0).unwrap());
        config.horizon = SimTime::from_secs(2);
        let plan = traffic::all_to_all(25, 2, SimTime::from_millis(250), 11).unwrap();
        Simulation::run_with(config, topo, plan).unwrap()
    };
    let m = run();
    assert!(m.adversary.churn_epochs >= 2, "leave and rejoin must fire");
    assert!(
        m.adversary.churn_leaves >= 25,
        "a full cohort must depart ({} leaves)",
        m.adversary.churn_leaves
    );
    assert!(m.adversary.churn_joins >= 25, "the cohort must rejoin");
    assert_eq!(m, run(), "mass churn must be deterministic");
}

#[test]
fn churn_epochs_match_all_pairs_zone_rebuilds() {
    // Cohort-sized joins/leaves per epoch, on top of mobility and
    // failures, must leave the incremental zone engine bit-identical to
    // the all-pairs reference build: runs with `incremental_zones` on and
    // off may differ only in the zone-patch accounting itself.
    let run = |incremental_zones: bool| {
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 19);
        config.routing_mode = RoutingMode::Distributed;
        config.mobility = Some(MobilityConfig::new(SimTime::from_millis(50), 0.1).unwrap());
        config.failures = Some(FailureConfig::paper_defaults());
        config.churn = Some(ChurnConfig::new(SimTime::from_millis(80), 0.4).unwrap());
        config.incremental_zones = incremental_zones;
        config.horizon = SimTime::from_secs(2);
        let plan = traffic::all_to_all(25, 2, SimTime::from_millis(250), 19).unwrap();
        Simulation::run_with(config, topo, plan).unwrap()
    };
    let incremental = run(true);
    assert!(incremental.adversary.churn_epochs > 0, "churn must fire");
    assert!(
        incremental.routing.liveness_deltas > 0,
        "cohorts must re-converge"
    );
    let mut reference = run(false);
    reference.routing.zone_patches = incremental.routing.zone_patches;
    reference.routing.zone_rows_patched = incremental.routing.zone_rows_patched;
    assert_eq!(
        incremental, reference,
        "cohort churn diverged from all-pairs zone rebuilds"
    );
}

#[test]
fn deeper_originator_stacks_tolerate_more() {
    // §3.2: "Maintaining n entries for each destination enables the
    // protocol to tolerate concurrent failures of n intermediate nodes."
    let heavy = FailureConfig {
        mean_interarrival: SimTime::from_millis(15),
        ..FailureConfig::paper_defaults()
    };
    let topo = placement::grid(5, 5, 5.0).unwrap();
    let plan = traffic::all_to_all(25, 2, SimTime::from_millis(250), 9).unwrap();

    let mut shallow = SimConfig::paper_defaults(ProtocolKind::Spms, 9);
    shallow.failures = Some(heavy);
    shallow.scones_kept = 0;
    shallow.k_routes = 1;
    let mut deep = shallow.clone();
    deep.scones_kept = 2;
    deep.k_routes = 3;

    let m_shallow = Simulation::run_with(shallow, topo.clone(), plan.clone()).unwrap();
    let m_deep = Simulation::run_with(deep, topo, plan).unwrap();
    assert!(
        m_deep.delivery_ratio() >= m_shallow.delivery_ratio(),
        "deep {} vs shallow {}",
        m_deep.delivery_ratio(),
        m_shallow.delivery_ratio()
    );
}
