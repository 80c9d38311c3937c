//! Recorded integer counters of small runs, one per protocol kind and
//! interest pattern, plus one under Table 1's transient failures and one
//! under flooding attackers, and five SPMS runs on distributed DBF routing.
//!
//! The values were recorded from the engine as it stood before its
//! delivery path skipped hook calls that change nothing, so any change to
//! the event flow shows up here as a changed count. perfbench never runs
//! SPIN-BC, relay caching, SPMS-IZ, flooding or a `PerMeta` interest plan,
//! so its digests cannot catch such a change on those paths.
//!
//! The distributed-routing values were recorded before DBF exchanges
//! stopped re-offering routes a sender had already broadcast. They pin the
//! routing accounting under the paths perfbench never takes: liveness
//! flips, churn cohorts, contact plans and the all-pairs zone rebuild.
//!
//! Only integers are pinned: energies and delays are floats whose printed
//! form could differ with the host's libm.

use spms::{
    AdversaryConfig, NodeBehavior, ProtocolKind, RoutingMode, RunMetrics, SimConfig, Simulation,
    TrafficPlan,
};
use spms_kernel::SimTime;
use spms_net::{placement, ChurnConfig, ContactPlan, FailureConfig, MobilityConfig, Topology};
use spms_phy::RadioProfile;
use spms_workloads::traffic;

/// The protocol variants the engine can run.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Spin,
    SpinBc,
    Spms,
    SpmsRelayCaching,
    SpmsIz,
    Flooding,
}

const VARIANTS: [Variant; 6] = [
    Variant::Spin,
    Variant::SpinBc,
    Variant::Spms,
    Variant::SpmsRelayCaching,
    Variant::SpmsIz,
    Variant::Flooding,
];

fn config(variant: Variant, seed: u64) -> SimConfig {
    let protocol = match variant {
        Variant::Spin | Variant::SpinBc => ProtocolKind::Spin,
        Variant::Spms | Variant::SpmsRelayCaching => ProtocolKind::Spms,
        Variant::SpmsIz => ProtocolKind::SpmsIz,
        Variant::Flooding => ProtocolKind::Flooding,
    };
    let mut config = SimConfig::paper_defaults(protocol, seed);
    config.spin_broadcast_data = matches!(variant, Variant::SpinBc);
    config.relay_caching = matches!(variant, Variant::SpmsRelayCaching);
    config
}

/// A 7 × 7 grid at 5 m spacing: 30 m across, so 20 m zones do not cover
/// the field and items cross zone boundaries.
fn field() -> Topology {
    placement::grid(7, 7, 5.0).unwrap()
}

fn all_to_all(seed: u64) -> TrafficPlan {
    traffic::all_to_all(49, 1, SimTime::from_millis(50), seed).unwrap()
}

fn cluster(topo: &Topology, seed: u64) -> TrafficPlan {
    traffic::cluster_hierarchical(
        topo,
        &RadioProfile::mica2(),
        20.0,
        2,
        SimTime::from_millis(100),
        0.05,
        seed,
    )
    .unwrap()
}

/// `events_processed`, `deliveries`, `deliveries_expected`, `duplicates`,
/// `abandonments`, and the ADV, REQ, DATA and dropped message counts.
fn counts(m: &RunMetrics) -> [u64; 9] {
    [
        m.events_processed,
        m.deliveries,
        m.deliveries_expected,
        m.duplicates,
        m.abandonments,
        m.messages.adv.value(),
        m.messages.req.value(),
        m.messages.data.value(),
        m.messages.dropped.value(),
    ]
}

fn check(runs: &[(&str, RunMetrics)], recorded: &[[u64; 9]]) {
    assert_eq!(runs.len(), recorded.len());
    let got: Vec<[u64; 9]> = runs.iter().map(|(_, m)| counts(m)).collect();
    for ((name, _), (got, want)) in runs.iter().zip(got.iter().zip(recorded)) {
        assert_eq!(got, want, "{name}; all counts: {got:?}");
    }
}

#[test]
fn all_to_all_counts_match_recorded_values() {
    let runs: Vec<(&str, RunMetrics)> = VARIANTS
        .iter()
        .map(|&v| {
            let m = Simulation::run_with(config(v, 42), field(), all_to_all(42)).unwrap();
            (variant_name(v), m)
        })
        .collect();
    check(&runs, &ALL_TO_ALL);
}

#[test]
fn cluster_counts_match_recorded_values() {
    let topo = field();
    let runs: Vec<(&str, RunMetrics)> = VARIANTS
        .iter()
        .map(|&v| {
            let m = Simulation::run_with(config(v, 7), topo.clone(), cluster(&topo, 7)).unwrap();
            (variant_name(v), m)
        })
        .collect();
    check(&runs, &CLUSTER);
}

#[test]
fn failure_and_attack_counts_match_recorded_values() {
    let mut failing = config(Variant::Spms, 11);
    failing.failures = Some(FailureConfig::paper_defaults());
    let mut attacked = config(Variant::Spms, 13);
    attacked.adversary = Some(AdversaryConfig::new(NodeBehavior::Flooding, 0.2).unwrap());
    let runs = [
        (
            "SPMS, Table 1 failures",
            Simulation::run_with(failing, field(), all_to_all(11)).unwrap(),
        ),
        (
            "SPMS, flooding attackers",
            Simulation::run_with(attacked, field(), all_to_all(13)).unwrap(),
        ),
    ];
    assert!(runs[0].1.failures_injected > 0);
    assert!(runs[1].1.adversary.bogus_advs > 0);
    check(&runs, &FAILURE_AND_ATTACK);
}

/// `RoutingCost`'s executions, incremental executions, liveness deltas,
/// zone rows patched, contact epochs, rounds, messages and bytes, then
/// `events_processed` and the ADV, REQ, DATA and dropped message counts.
fn routing_counts(m: &RunMetrics) -> [u64; 13] {
    let r = &m.routing;
    [
        r.executions,
        r.incremental_executions,
        r.liveness_deltas,
        r.zone_rows_patched,
        r.contact_epochs,
        r.rounds,
        r.messages,
        r.bytes,
        m.events_processed,
        m.messages.adv.value(),
        m.messages.req.value(),
        m.messages.data.value(),
        m.messages.dropped.value(),
    ]
}

#[test]
fn distributed_routing_counts_match_recorded_values() {
    let distributed = |seed: u64| {
        let mut config = config(Variant::Spms, seed);
        config.routing_mode = RoutingMode::Distributed;
        config.horizon = SimTime::from_secs(4);
        config
    };
    let mobile = |seed: u64, incremental_zones: bool| {
        let mut config = distributed(seed);
        config.mobility = Some(MobilityConfig::new(SimTime::from_millis(150), 0.1).unwrap());
        config.incremental_zones = incremental_zones;
        config
    };
    let mut churned = distributed(23);
    churned.failures = Some(FailureConfig::paper_defaults());
    churned.churn = Some(ChurnConfig::new(SimTime::from_millis(200), 0.25).unwrap());
    let mut scheduled = distributed(29);
    // Links along row 0, down column 3 and across the centre, each up
    // for part of the run.
    scheduled.contact_plan = Some(
        ContactPlan::parse("0 1 0.1 0.9\n3 10 0 0.6\n17 24 0.4 1.5\n24 25 0.2 2.0\n").unwrap(),
    );
    let run = |config: SimConfig| {
        let seed = config.seed;
        Simulation::run_with(config, field(), all_to_all(seed)).unwrap()
    };
    let runs = [
        ("static rebuild", run(distributed(17))),
        ("mobility, incremental zones", run(mobile(19, true))),
        ("mobility, all-pairs zones", run(mobile(19, false))),
        ("Table 1 failures and churn", run(churned)),
        ("contact plan", run(scheduled)),
    ];
    assert!(runs[1].1.routing.zone_rows_patched > 0);
    assert!(runs[3].1.routing.liveness_deltas > 0);
    assert!(runs[4].1.routing.contact_epochs > 0);
    let got: Vec<[u64; 13]> = runs.iter().map(|(_, m)| routing_counts(m)).collect();
    for ((name, _), (got, want)) in runs.iter().zip(got.iter().zip(&DISTRIBUTED_ROUTING)) {
        assert_eq!(got, want, "{name}; all counts: {got:?}");
    }
}

fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Spin => "SPIN",
        Variant::SpinBc => "SPIN-BC",
        Variant::Spms => "SPMS",
        Variant::SpmsRelayCaching => "SPMS, relay caching",
        Variant::SpmsIz => "SPMS-IZ",
        Variant::Flooding => "flooding",
    }
}

/// In `VARIANTS` order.
const ALL_TO_ALL: [[u64; 9]; 6] = [
    [9506, 2352, 2352, 0, 0, 2401, 2352, 2352, 0],
    [7657, 2352, 2352, 9988, 0, 2401, 2352, 503, 0],
    [18313, 2352, 2352, 341, 12, 2401, 3779, 3779, 0],
    [18315, 2352, 2352, 419, 28, 2401, 3744, 3744, 0],
    [43342, 2352, 2352, 3916, 876, 4689, 13391, 13391, 0],
    [2450, 2352, 2352, 63308, 0, 0, 0, 2401, 0],
];

/// In `VARIANTS` order.
const CLUSTER: [[u64; 9]; 6] = [
    [1076, 220, 220, 0, 0, 318, 220, 220, 0],
    [3248, 220, 220, 0, 0, 2618, 220, 92, 0],
    [1925, 220, 220, 0, 0, 318, 544, 544, 0],
    [2191, 220, 220, 0, 0, 583, 545, 545, 0],
    [6574, 220, 220, 0, 0, 4957, 553, 553, 0],
    [4900, 220, 220, 126616, 0, 0, 0, 4802, 0],
];

const FAILURE_AND_ATTACK: [[u64; 9]; 2] = [
    [20890, 2352, 2352, 693, 38, 2401, 5091, 5000, 73],
    [20219, 1269, 2352, 30, 1218, 2234, 6546, 1461, 0],
];

/// In `distributed_routing_counts_match_recorded_values` order.
const DISTRIBUTED_ROUTING: [[u64; 13]; 5] = [
    [1, 0, 0, 0, 0, 6, 245, 27290, 19323, 2401, 4213, 4213, 0],
    [
        27, 26, 0, 1274, 0, 196, 6903, 513850, 41476, 2092, 16804, 7277, 5780,
    ],
    [
        27, 26, 0, 0, 0, 196, 6903, 513850, 41476, 2092, 16804, 7277, 5780,
    ],
    [
        129, 128, 128, 0, 0, 842, 14777, 444194, 11238, 650, 4140, 1927, 2115,
    ],
    [
        8, 7, 0, 0, 7, 50, 1946, 119524, 44787, 2391, 16084, 13597, 86,
    ],
];
