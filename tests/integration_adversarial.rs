//! Adversarial-behavior and heavy-churn robustness suite.
//!
//! Three layers:
//!
//! 1. **Knob matrix** — adversary/churn are *semantic* knobs (they change
//!    results like a seed does), but under any fixed adversarial setting
//!    the wall-clock knobs (table layout, DBF shards, sweep workers) still
//!    cannot change a single byte of [`spms::RunMetrics`], including the
//!    [`spms::AdversaryStats`] counters.
//! 2. **Seeded proptest fuzzer** — random schedules of all five semantic
//!    knobs at once (mobility, failures, churn, adversaries, and a contact
//!    plan) drive the incremental zone engine against the full-rebuild
//!    oracle: runs with `incremental_zones` on and off must agree on every
//!    metric except the zone-patch accounting itself.
//! 3. **Minimized fuzz corpus** — fixed schedules distilled from the
//!    fuzzer, each pinned to a distinct delta-path branch (all five knobs
//!    firing in one run, full-cohort leave/rejoin, dormant-then-active
//!    liars, flooding storms under sharded relaxation).

use proptest::prelude::*;

use spms::{
    AdversaryConfig, NodeBehavior, ProtocolKind, RoutingMode, RunMetrics, SimConfig, Simulation,
    TableLayout,
};
use spms_kernel::SimTime;
use spms_net::{
    placement, ChurnConfig, ContactPlan, ContactWindow, FailureConfig, MobilityConfig, NodeId,
};
use spms_workloads::traffic;

/// A full-featured adversarial run: distributed routing, mobility,
/// failures, churn, and a roster of attackers drawn from the master seed.
fn adversarial_config(seed: u64, behavior: NodeBehavior, fraction: f64) -> SimConfig {
    let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, seed);
    config.routing_mode = RoutingMode::Distributed;
    config.mobility = Some(MobilityConfig::new(SimTime::from_millis(40), 0.1).unwrap());
    config.failures = Some(FailureConfig {
        mean_interarrival: SimTime::from_millis(20),
        repair_min: SimTime::from_millis(10),
        repair_max: SimTime::from_millis(30),
    });
    config.churn = Some(ChurnConfig::new(SimTime::from_millis(50), 0.25).unwrap());
    config.adversary = Some(AdversaryConfig {
        fraction,
        behavior,
        attack_start: SimTime::ZERO,
        attack_factor: 2,
        explicit: None,
    });
    config.horizon = SimTime::from_secs(2);
    config
}

/// A contact plan on the 4×4 grid `run` builds. Each `(node, down,
/// start_ms, len_ms)` draw gates the link from `node` to its right
/// neighbor (its lower one when `down`), wrapping around the edge, and
/// holds it up over `[start_ms, start_ms + len_ms)`.
fn grid_contact_plan(windows: &[(u32, bool, u64, u64)]) -> ContactPlan {
    ContactPlan::from_windows(windows.iter().map(|&(node, down, start_ms, len_ms)| {
        let (row, col) = (node / 4, node % 4);
        let other = if down {
            (row + 1) % 4 * 4 + col
        } else {
            row * 4 + (col + 1) % 4
        };
        ContactWindow {
            a: NodeId::new(node),
            b: NodeId::new(other),
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(start_ms + len_ms),
        }
    }))
    .expect("grid links are never self-links and never run backwards")
}

fn run(config: SimConfig, seed: u64) -> RunMetrics {
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let plan = traffic::all_to_all(16, 2, SimTime::from_millis(200), seed).unwrap();
    Simulation::run_with(config, topo, plan).unwrap()
}

#[test]
fn wall_clock_knobs_cannot_change_adversarial_results() {
    // The full matrix from the determinism suite, replayed under attack:
    // 2 table layouts x shards {1, auto, 16} must all produce the
    // reference bytes, AdversaryStats included.
    let seed = 61;
    let reference = run(adversarial_config(seed, NodeBehavior::Flooding, 0.25), seed);
    assert!(reference.adversary.adversaries > 0, "roster must be drawn");
    assert!(reference.adversary.packets_dropped > 0, "attack must bite");
    assert!(reference.adversary.bogus_advs > 0, "flooders must flood");
    assert!(reference.adversary.churn_epochs > 0, "churn must fire");
    for layout in [TableLayout::Soa, TableLayout::Aos] {
        for shards in [1usize, 0, 16] {
            let mut config = adversarial_config(seed, NodeBehavior::Flooding, 0.25);
            config.table_layout = layout;
            config.dbf_shards = shards;
            let got = run(config, seed);
            assert_eq!(got, reference, "layout={layout:?} shards={shards}");
        }
    }
}

#[test]
fn sweep_workers_cannot_change_adversarial_results() {
    // The sweep executor processes adversarial specs too: 1 worker (the
    // sequential reference), auto, and a deliberately excessive pool must
    // emit byte-identical label/metrics pairs.
    use spms_workloads::{try_run_specs, RunSpec, SweepConfig};
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let plan = traffic::all_to_all(16, 1, SimTime::from_millis(200), 71).unwrap();
    let spec = |label: &str, behavior, fraction| RunSpec {
        label: label.into(),
        config: adversarial_config(71, behavior, fraction),
        topology: topo.clone(),
        plan: plan.clone(),
    };
    let specs = vec![
        spec("honest", NodeBehavior::Honest, 0.0),
        spec("flood", NodeBehavior::Flooding, 0.2),
        spec("drop", NodeBehavior::SilentDropper, 0.2),
        spec("liar", NodeBehavior::MetadataLiar, 0.2),
    ];
    let reference = try_run_specs(specs.clone(), &SweepConfig::with_workers(1));
    let metrics = |slot: usize| reference[slot].1.as_ref().expect("adversarial spec runs");
    assert_eq!(metrics(0).adversary.adversaries, 0);
    assert!(metrics(1).adversary.bogus_advs > 0);
    for workers in [0usize, 16] {
        let got = try_run_specs(specs.clone(), &SweepConfig::with_workers(workers));
        assert_eq!(got, reference, "workers = {workers}");
    }
}

/// Runs with `incremental_zones` on and off must agree on everything
/// except the zone-patch accounting the incremental path itself reports.
fn assert_matches_full_rebuild_oracle(config: &SimConfig, seed: u64) {
    let mut incremental = config.clone();
    incremental.incremental_zones = true;
    let mut full = config.clone();
    full.incremental_zones = false;
    let a = run(incremental, seed);
    let mut b = run(full, seed);
    b.routing.zone_patches = a.routing.zone_patches;
    b.routing.zone_rows_patched = a.routing.zone_rows_patched;
    assert_eq!(a, b, "incremental zone engine diverged from full rebuilds");
}

proptest! {
    // Fixed seed + bounded case count: tier-1 must explore the same cases
    // on every run, on every machine.
    #![proptest_config(ProptestConfig {
        cases: 12,
        rng_seed: 0x0000_D8F1_2008,
        ..ProptestConfig::default()
    })]

    /// The robustness fuzzer: random adversary/churn schedules, layered
    /// on mobility, failures and a random contact plan, keep the
    /// incremental zone engine bit-identical to the full-rebuild oracle,
    /// and every schedule replays byte-for-byte from its seed.
    #[test]
    fn random_adversary_schedules_match_the_oracle(
        seed in 0u64..1_000,
        behavior_ix in 0usize..4,
        fraction in 0.0f64..0.5,
        churn_fraction in 0.05f64..1.0,
        churn_interval_ms in 30u64..120,
        attack_start_ms in 0u64..500,
        attack_factor in 1u32..4,
        contact_windows in prop::collection::vec(
            (0u32..16, any::<bool>(), 0u64..1_500, 50u64..500),
            1..4,
        ),
    ) {
        let behavior = [
            NodeBehavior::Honest,
            NodeBehavior::Flooding,
            NodeBehavior::SilentDropper,
            NodeBehavior::MetadataLiar,
        ][behavior_ix];
        let mut config = adversarial_config(seed, behavior, fraction);
        config.adversary = Some(AdversaryConfig {
            fraction,
            behavior,
            attack_start: SimTime::from_millis(attack_start_ms),
            attack_factor,
            explicit: None,
        });
        config.churn =
            Some(ChurnConfig::new(SimTime::from_millis(churn_interval_ms), churn_fraction)
                .unwrap());
        config.contact_plan = Some(grid_contact_plan(&contact_windows));
        let a = run(config.clone(), seed);
        let b = run(config.clone(), seed);
        prop_assert_eq!(&a, &b, "same schedule, same bytes");
        assert_matches_full_rebuild_oracle(&config, seed);
    }
}

// ---------------------------------------------------------------------------
// Minimized fuzz corpus: each schedule below was distilled from the
// proptest fuzzer and pinned because it exercises a delta-path branch the
// others miss. They are plain regression tests so a future change that
// breaks one branch fails with a readable name instead of a shrink log.
// ---------------------------------------------------------------------------

#[test]
fn corpus_five_semantic_knobs_with_silent_droppers() {
    // Every semantic knob in one schedule: mobility epochs, failures,
    // churn cohorts, silent droppers and contact-plan flips all re-converge
    // routing through the same engine paths within one run.
    let mut config = adversarial_config(17, NodeBehavior::SilentDropper, 0.25);
    config.contact_plan = Some(grid_contact_plan(&[
        (5, false, 100, 400),
        (9, true, 300, 900),
        (2, false, 0, 250),
    ]));
    let m = run(config.clone(), 17);
    assert!(m.mobility_epochs > 0, "mobility must fire");
    assert!(m.failures_injected > 0, "failures must fire");
    assert!(m.adversary.churn_epochs > 0, "churn must fire");
    assert!(m.adversary.packets_dropped > 0, "droppers must bite");
    assert!(m.routing.contact_epochs > 0, "the contact plan must fire");
    assert_eq!(m.adversary.bogus_advs, 0, "droppers never advertise");
    assert_eq!(m.adversary.churn_coalesced, 0);
    assert_eq!(m.routing.epochs_coalesced, 0);
    assert_eq!(m.routing.batch_windows, m.routing.incremental_executions);
    assert_matches_full_rebuild_oracle(&config, 17);
}

#[test]
fn corpus_full_cohort_leave_and_rejoin() {
    // churn fraction 1.0: every live node leaves in one epoch (the empty
    // field) and the departed cohort rejoins in the next — the two edge
    // cases of the cohort-delta path in one schedule.
    let mut config = adversarial_config(5, NodeBehavior::Honest, 0.0);
    config.failures = None; // isolate churn as the only liveness source
    config.churn = Some(ChurnConfig::new(SimTime::from_millis(60), 1.0).unwrap());
    let m = run(config.clone(), 5);
    assert!(
        m.adversary.churn_epochs >= 2,
        "leave and rejoin must both fire"
    );
    assert!(
        m.adversary.churn_leaves >= m.adversary.churn_joins,
        "every rejoin is preceded by a departure"
    );
    assert!(m.adversary.churn_leaves >= 16, "a whole cohort must depart");
    assert_matches_full_rebuild_oracle(&config, 5);
}

#[test]
fn corpus_dormant_then_active_metadata_liars() {
    // attack_start mid-run: the roster exists from t=0 but the liars stay
    // byte-honest until the switch flips, then start forging ADVs.
    let mut config = adversarial_config(23, NodeBehavior::MetadataLiar, 0.3);
    if let Some(adv) = &mut config.adversary {
        adv.attack_start = SimTime::from_millis(600);
    }
    let m = run(config.clone(), 23);
    assert!(m.adversary.adversaries > 0);
    assert!(
        m.adversary.packets_dropped > 0,
        "liars drop what they forge"
    );
    assert_matches_full_rebuild_oracle(&config, 23);
}

#[test]
fn corpus_flooding_storm_under_sharded_relaxation() {
    // The heaviest composite: flooding attackers at factor 3, churn, and
    // 16 DBF shards — the branch where adversarial traffic, cohort deltas
    // and the sharded relaxation planner all meet.
    let mut config = adversarial_config(41, NodeBehavior::Flooding, 0.3);
    if let Some(adv) = &mut config.adversary {
        adv.attack_factor = 3;
    }
    config.dbf_shards = 16;
    let m = run(config.clone(), 41);
    assert!(m.adversary.bogus_advs > 0);
    assert_eq!(
        m.adversary.bogus_advs % 3,
        0,
        "storms come in factor-sized bursts"
    );
    assert_matches_full_rebuild_oracle(&config, 41);
}

#[test]
fn adversary_fractions_degrade_delivery_monotonically_enough() {
    // The EXT5 claim at test scale: a quarter of the field dropping
    // traffic cannot *improve* delivery for any protocol.
    for protocol in [
        ProtocolKind::Flooding,
        ProtocolKind::Spin,
        ProtocolKind::Spms,
    ] {
        let benign = {
            let mut c = SimConfig::paper_defaults(protocol, 13);
            c.horizon = SimTime::from_secs(2);
            run(c, 13)
        };
        let attacked = {
            let mut c = SimConfig::paper_defaults(protocol, 13);
            c.horizon = SimTime::from_secs(2);
            c.adversary = Some(AdversaryConfig::new(NodeBehavior::SilentDropper, 0.25).unwrap());
            run(c, 13)
        };
        assert!(
            attacked.delivery_ratio() <= benign.delivery_ratio(),
            "{protocol}: attacked {} vs benign {}",
            attacked.delivery_ratio(),
            benign.delivery_ratio()
        );
    }
}
