//! Differential sweep-equivalence suite for the parallel experiment
//! executor.
//!
//! Two claims, mirroring the style of the routing layer's
//! differential-oracle harness:
//!
//! 1. **Worker count cannot change results.** For random `RunSpec`
//!    vectors, running the sweep at 1 worker (the sequential reference
//!    path, inline on the calling thread), 2 workers, the host's
//!    available parallelism (`0`), and a deliberately excessive 16
//!    workers produces byte-identical `Vec<(String, RunMetrics)>` —
//!    labels, order, and every metrics field.
//! 2. **A failed spec cannot poison or reorder its siblings.** A spec the
//!    engine rejects — or one that panics outright mid-run — fails only
//!    its own slot: every sibling still lands in input order with the
//!    metrics a clean sweep produces, and `run_specs_with` reports the
//!    first failure in *input* order, not completion order.
//! 3. **A sweep's overrides stay its own.** Two sweeps with different
//!    semantic overrides, run at the same time in one process, each match
//!    their own single-worker run.

use std::sync::Barrier;

use proptest::prelude::*;
use spms::{NodeBehavior, ProtocolKind, SimConfig, TrafficPlan};
use spms_kernel::SimTime;
use spms_net::{placement, ContactPlan, NodeId, Topology};
use spms_workloads::traffic;
use spms_workloads::{run_specs_with, try_run_specs, AdversaryOverride, RunSpec, SweepConfig};

fn spec(
    topo: &Topology,
    label: &str,
    protocol: ProtocolKind,
    seed: u64,
    plan: TrafficPlan,
) -> RunSpec {
    RunSpec {
        label: label.to_string(),
        config: SimConfig::paper_defaults(protocol, seed),
        topology: topo.clone(),
        plan,
    }
}

/// A spec whose run **panics** (rather than returning an error): a
/// zero-capacity trace ring slips past `SimConfig::validate` and trips
/// the kernel's `Trace::bounded` assertion mid-construction. The executor
/// must contain that unwind to the spec's own slot.
fn panicking_spec(topo: &Topology, label: &str, plan: TrafficPlan) -> RunSpec {
    let mut spec = spec(topo, label, ProtocolKind::Spms, 7, plan);
    spec.config.trace_capacity = Some(0);
    spec
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in
    // CI (each case runs up to 5 specs × 4 worker counts of simulation).
    #![proptest_config(ProptestConfig {
        cases: 6,
        rng_seed: 0x0000_D8F1_2006,
        ..ProptestConfig::default()
    })]

    /// Random spec vectors across protocols, seeds, and workloads: every
    /// worker count reproduces the 1-worker reference byte for byte.
    #[test]
    fn worker_count_cannot_change_sweep_results(
        raw in prop::collection::vec((0u8..3, 0u64..1_000, 1u32..3, 0u16..9), 1..5),
    ) {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let specs: Vec<RunSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(proto, seed, items, source))| {
                let protocol = match proto {
                    0 => ProtocolKind::Spms,
                    1 => ProtocolKind::Spin,
                    _ => ProtocolKind::Flooding,
                };
                let plan = traffic::single_source(
                    NodeId::new(u32::from(source)),
                    items,
                    SimTime::from_millis(100),
                )
                .unwrap();
                spec(&topo, &format!("spec-{i}"), protocol, seed, plan)
            })
            .collect();
        let reference = run_specs_with(specs.clone(), &SweepConfig::with_workers(1));
        for workers in [2usize, 0, 16] {
            let got = run_specs_with(specs.clone(), &SweepConfig::with_workers(workers));
            prop_assert_eq!(&got, &reference, "workers = {} diverged", workers);
        }
    }
}

#[test]
fn a_panicking_spec_does_not_poison_or_reorder_its_siblings() {
    let topo = placement::grid(3, 3, 5.0).unwrap();
    let plan = traffic::single_source(NodeId::new(4), 1, SimTime::ZERO).unwrap();
    let clean = vec![
        spec(&topo, "good-0", ProtocolKind::Spms, 7, plan.clone()),
        spec(&topo, "good-2", ProtocolKind::Spin, 8, plan.clone()),
        spec(&topo, "good-3", ProtocolKind::Spms, 9, plan.clone()),
    ];
    let reference = run_specs_with(clean.clone(), &SweepConfig::with_workers(1));

    // The same siblings with a panicking spec spliced in at index 1.
    let mut poisoned = clean;
    poisoned.insert(1, panicking_spec(&topo, "boom", plan));
    for workers in [1usize, 2, 4] {
        let out = try_run_specs(poisoned.clone(), &SweepConfig::with_workers(workers));
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["good-0", "boom", "good-2", "good-3"],
            "{workers} workers: order must survive the panic"
        );
        assert!(
            out[1].1.is_err(),
            "{workers} workers: the panicking spec must fail its own slot"
        );
        for (slot, reference_slot) in [(0usize, 0usize), (2, 1), (3, 2)] {
            let got = out[slot].1.as_ref().expect("sibling must succeed");
            assert_eq!(
                got, &reference[reference_slot].1,
                "{workers} workers: sibling {slot} diverged from the clean sweep"
            );
        }
    }
}

#[test]
fn run_specs_with_reports_the_first_panicking_spec_in_input_order() {
    let topo = placement::grid(3, 3, 5.0).unwrap();
    let plan = traffic::single_source(NodeId::new(4), 1, SimTime::ZERO).unwrap();
    let specs = vec![
        spec(&topo, "good", ProtocolKind::Spms, 7, plan.clone()),
        panicking_spec(&topo, "boom-early", plan.clone()),
        panicking_spec(&topo, "boom-late", plan),
    ];
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_specs_with(specs, &SweepConfig::with_workers(4))
    }))
    .expect_err("a sweep with failing specs must fail");
    let text = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        text.contains("boom-early"),
        "the sweep must name the first failed spec in input order: {text}"
    );
}

#[test]
fn concurrent_sweeps_keep_their_own_overrides() {
    let topo = placement::grid(3, 3, 5.0).unwrap();
    let plan = traffic::single_source(NodeId::new(0), 2, SimTime::from_millis(100)).unwrap();
    let specs: Vec<RunSpec> = (0..4u64)
        .map(|i| {
            let label = format!("spec-{i}");
            spec(&topo, &label, ProtocolKind::Spms, 20 + i, plan.clone())
        })
        .collect();
    let attacked = SweepConfig {
        workers: 2,
        adversary: AdversaryOverride {
            fraction: Some(0.25),
            behavior: Some(NodeBehavior::SilentDropper),
            ..AdversaryOverride::default()
        },
        ..SweepConfig::default()
    };
    // Every link of the source opens only long after the horizon.
    let cut: String = (1..9).map(|n| format!("0 {n} 100000 100001\n")).collect();
    let severed = SweepConfig {
        workers: 2,
        contact_plan: Some(ContactPlan::parse(&cut).unwrap()),
        ..SweepConfig::default()
    };

    let start = Barrier::new(2);
    let run = |sweep: &SweepConfig| {
        start.wait();
        run_specs_with(specs.clone(), sweep)
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run(&attacked));
        let b = scope.spawn(|| run(&severed));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (sweep, got) in [(&attacked, &a), (&severed, &b)] {
        let sequential = SweepConfig {
            workers: 1,
            ..sweep.clone()
        };
        assert_eq!(got, &run_specs_with(specs.clone(), &sequential));
    }
    // Each override took effect in its own sweep and nowhere else.
    for (_, m) in &a {
        assert!(m.adversary.adversaries > 0 && m.deliveries > 0, "{m:?}");
    }
    for (_, m) in &b {
        assert!(m.adversary.adversaries == 0 && m.deliveries == 0, "{m:?}");
    }
}
