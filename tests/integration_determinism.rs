//! Reproducibility guarantees: a run is a pure function of its config and
//! seed, and no wall-clock knob (sweep workers) can change a byte of its
//! `RunMetrics`. Checked across subsystem combinations.

use spms::{ProtocolKind, RoutingMode, SimConfig, Simulation};
use spms_kernel::SimTime;
use spms_net::{placement, FailureConfig, MobilityConfig};
use spms_workloads::traffic;

fn full_featured_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, seed);
    config.failures = Some(FailureConfig::paper_defaults());
    config.mobility = Some(MobilityConfig::new(SimTime::from_millis(400), 0.1).unwrap());
    config.routing_mode = RoutingMode::Distributed;
    config.trace_capacity = Some(64);
    config
}

fn run_full(seed: u64) -> spms::RunMetrics {
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let plan = traffic::all_to_all(16, 2, SimTime::from_millis(200), seed).unwrap();
    Simulation::run_with(full_featured_config(seed), topo, plan).unwrap()
}

#[test]
fn identical_seeds_identical_runs_with_everything_enabled() {
    // Failures + mobility + distributed routing + tracing all at once.
    let a = run_full(1234);
    let b = run_full(1234);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_details_not_guarantees() {
    let a = run_full(1);
    let b = run_full(2);
    // Stochastic details differ…
    assert_ne!(
        (a.events_processed, a.failures_injected),
        (b.events_processed, b.failures_injected)
    );
    // …but both runs complete with high delivery.
    assert!(a.delivery_ratio() > 0.85);
    assert!(b.delivery_ratio() > 0.85);
}

#[test]
fn parallel_sweep_equals_sequential_runs() {
    use spms_workloads::{try_run_specs, RunSpec, SweepConfig};
    let topo = placement::grid(3, 3, 5.0).unwrap();
    let plan = traffic::all_to_all(9, 1, SimTime::from_millis(200), 3).unwrap();
    let spec = |label: &str| RunSpec {
        label: label.into(),
        config: SimConfig::paper_defaults(ProtocolKind::Spms, 3),
        topology: topo.clone(),
        plan: plan.clone(),
    };
    let parallel = try_run_specs(vec![spec("x"), spec("y"), spec("z")], &SweepConfig::auto());
    let sequential =
        Simulation::run_with(SimConfig::paper_defaults(ProtocolKind::Spms, 3), topo, plan).unwrap();
    for (_, m) in parallel {
        assert_eq!(m, Ok(sequential.clone()));
    }
}

#[test]
fn sweep_worker_count_cannot_change_results() {
    // A mixed-protocol mini-sweep through the executor at 1 worker (the
    // sequential reference), the host's available parallelism, and a
    // deliberately excessive pool: labels, order, and every RunMetrics
    // byte must be identical — the worker pool is a wall-clock knob, never
    // a semantic one.
    use spms_workloads::{try_run_specs, RunSpec, SweepConfig};
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let plan = traffic::all_to_all(16, 1, SimTime::from_millis(200), 5).unwrap();
    let spec = |label: &str, protocol, seed| {
        let mut config = full_featured_config(seed);
        config.protocol = protocol;
        RunSpec {
            label: label.into(),
            config,
            topology: topo.clone(),
            plan: plan.clone(),
        }
    };
    let specs = vec![
        spec("spms", ProtocolKind::Spms, 21),
        spec("spin", ProtocolKind::Spin, 22),
        spec("flood", ProtocolKind::Flooding, 23),
        spec("spms-again", ProtocolKind::Spms, 21),
    ];
    let reference = try_run_specs(specs.clone(), &SweepConfig::with_workers(1));
    assert!(reference[0].1.is_ok());
    assert_eq!(reference[0].1, reference[3].1, "same spec, same bytes");
    for workers in [0usize, 16] {
        let got = try_run_specs(specs.clone(), &SweepConfig::with_workers(workers));
        assert_eq!(got, reference, "workers = {workers}");
    }
}

#[test]
fn seed_controls_every_stochastic_subsystem() {
    // Two configs differing ONLY in seed must diverge in MAC backoffs
    // (reflected in queue-wait statistics) even with no failures/mobility.
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let plan = traffic::all_to_all(16, 1, SimTime::from_millis(200), 9).unwrap();
    let run = |seed| {
        Simulation::run_with(
            SimConfig::paper_defaults(ProtocolKind::Spms, seed),
            topo.clone(),
            plan.clone(),
        )
        .unwrap()
    };
    let a = run(100);
    let b = run(101);
    assert_ne!(
        a.delay_ms, b.delay_ms,
        "different seeds must perturb MAC backoff timing"
    );
    // But structural outcomes agree.
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.messages.adv.value(), b.messages.adv.value());
}

#[test]
fn timeouts_resolve_identically_for_identical_deployments() {
    let topo = placement::grid(5, 5, 5.0).unwrap();
    let plan = traffic::single_source(spms_net::NodeId::new(12), 1, SimTime::ZERO).unwrap();
    let sim1 = Simulation::new(
        SimConfig::paper_defaults(ProtocolKind::Spms, 1),
        topo.clone(),
        plan.clone(),
    )
    .unwrap();
    let sim2 = Simulation::new(
        SimConfig::paper_defaults(ProtocolKind::Spms, 99),
        topo,
        plan,
    )
    .unwrap();
    // Timeout resolution is seed-independent (it derives from topology).
    assert_eq!(sim1.timeouts(), sim2.timeouts());
    assert!(sim1.timeouts().dat > sim1.timeouts().adv);
}
