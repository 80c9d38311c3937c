//! Differential sweep-equivalence suite for the parallel experiment
//! executor.
//!
//! Three claims, mirroring the style of the routing layer's
//! differential-oracle harness:
//!
//! 1. **Worker count cannot change results.** For random `RunSpec`
//!    vectors, running the sweep at 1 worker (the sequential reference
//!    path, inline on the calling thread), 2 workers, the host's
//!    available parallelism (`0`), and a deliberately excessive 16
//!    workers produces byte-identical `(label, outcome)` vectors — labels,
//!    order, and every metrics field.
//! 2. **A failed spec cannot poison or reorder its siblings.** A spec the
//!    engine rejects — or one that panics outright mid-run — fails only
//!    its own slot, with its own message: every sibling still lands in
//!    input order with the metrics a clean sweep produces.
//! 3. **A sweep's overrides stay its own.** Two sweeps with different
//!    semantic overrides, run at the same time in one process, each match
//!    their own single-worker run.

use std::sync::Barrier;

use proptest::prelude::*;
use spms::{NodeBehavior, ProtocolKind, SimConfig, TrafficPlan};
use spms_kernel::SimTime;
use spms_net::{placement, ContactPlan, NodeId, Topology};
use spms_workloads::traffic;
use spms_workloads::{try_run_specs, AdversaryOverride, RunSpec, SweepConfig};

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
        let reference = try_run_specs(specs.clone(), &SweepConfig::with_workers(1));
        prop_assert!(reference.iter().all(|(_, outcome)| outcome.is_ok()));
        for workers in [2usize, 0, 16] {
            let got = try_run_specs(specs.clone(), &SweepConfig::with_workers(workers));
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
    let reference = try_run_specs(clean.clone(), &SweepConfig::with_workers(1));

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
                got,
                reference[reference_slot]
                    .1
                    .as_ref()
                    .expect("clean spec runs"),
                "{workers} workers: sibling {slot} diverged from the clean sweep"
            );
        }
    }
}

#[test]
fn every_panicking_spec_reports_its_own_panic_message() {
    let topo = placement::grid(3, 3, 5.0).unwrap();
    let plan = traffic::single_source(NodeId::new(4), 1, SimTime::ZERO).unwrap();
    // An engine error and a panic side by side: each slot carries its
    // own message, the panic's payload text included.
    let rejected = RunSpec {
        plan: traffic::single_source(NodeId::new(99), 1, SimTime::ZERO).unwrap(),
        ..spec(&topo, "rejected", ProtocolKind::Spms, 7, plan.clone())
    };
    let specs = vec![
        spec(&topo, "good", ProtocolKind::Spms, 7, plan.clone()),
        panicking_spec(&topo, "boom-early", plan.clone()),
        rejected,
        panicking_spec(&topo, "boom-late", plan),
    ];
    let out = try_run_specs(specs, &SweepConfig::with_workers(4));
    assert!(out[0].1.is_ok());
    let error = |slot: usize| out[slot].1.clone().expect_err("the spec must fail");
    assert!(error(2).contains("n99"), "{}", error(2));
    for slot in [1, 3] {
        let text = error(slot);
        assert!(!text.is_empty() && text != error(2), "slot {slot}: {text}");
        assert_eq!(text, error(1), "both panics trip the same assertion");
    }
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
        try_run_specs(specs.clone(), sweep)
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
        assert_eq!(got, &try_run_specs(specs.clone(), &sequential));
    }
    // Each override took effect in its own sweep and nowhere else.
    for (_, m) in &a {
        let m = m.as_ref().expect("attacked spec runs");
        assert!(m.adversary.adversaries > 0 && m.deliveries > 0, "{m:?}");
    }
    for (_, m) in &b {
        let m = m.as_ref().expect("severed spec runs");
        assert!(m.adversary.adversaries == 0 && m.deliveries == 0, "{m:?}");
    }
}
