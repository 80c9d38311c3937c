//! Steady-state zone re-convergence under mobility at the paper's reference
//! scale (n = 169, 20 m zones): incremental delta-DBF versus the full
//! rebuild.
//!
//! The scenario is the routing hot path ROADMAP names: one node moves, the
//! zone table is rebuilt, and routing must re-converge before data flows.
//! The incremental bench ping-pongs the node between two positions so every
//! iteration measures exactly one single-node-move re-convergence on a
//! warm, already-converged engine — the steady state a mobility-heavy
//! workload lives in. Both sides run the same per-destination exchange,
//! the full rebuild over every destination and the incremental one over
//! the 73 of 169 the move touches (about half the route plane), so the
//! acceptance target for this pair is incremental ≤ 0.75× of
//! `reconverge_full_single_move_169`; re-converging every destination
//! would read about 1×.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_net::{placement, NodeId, Point, Topology, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::DbfEngine;

/// The moved node: the center of the 13×13 grid (worst case — its zone is
/// the densest).
const MOVED: NodeId = NodeId::new(84);

fn reference_field() -> (Topology, ZoneTable, ZoneTable) {
    let mut topo = placement::grid(13, 13, 5.0).unwrap();
    let radio = RadioProfile::mica2();
    let before = ZoneTable::build(&topo, &radio, 20.0);
    // A two-cell hop: far enough to change the zone, near enough that the
    // old and new zones overlap — the common mobility case.
    topo.move_node(MOVED, Point::new(37.5, 42.5));
    let after = ZoneTable::build(&topo, &radio, 20.0);
    (topo, before, after)
}

fn bench_full_rebuild(c: &mut Criterion) {
    let (_topo, before, after) = reference_field();
    let alive = vec![true; after.len()];
    let mut dbf = DbfEngine::new(&before, 2);
    dbf.run_to_convergence(&before);
    let mut forward = true;
    c.bench_function("routing/reconverge_full_single_move_169", |b| {
        b.iter(|| {
            let zones = if forward { &after } else { &before };
            forward = !forward;
            std::hint::black_box(dbf.rebuild_sharded(zones, &alive))
        })
    });
}

fn bench_incremental(c: &mut Criterion) {
    let (_topo, before, after) = reference_field();
    let alive = vec![true; after.len()];
    let mut dbf = DbfEngine::new(&before, 2);
    dbf.run_to_convergence(&before);
    let mut forward = true;
    c.bench_function("routing/reconverge_delta_single_move_169", |b| {
        b.iter(|| {
            let (old, new) = if forward {
                (&before, &after)
            } else {
                (&after, &before)
            };
            forward = !forward;
            std::hint::black_box(dbf.update_topology(old, new, &[MOVED], &alive))
        })
    });
}

fn bench_failure_invalidation(c: &mut Criterion) {
    let (_topo, before, _after) = reference_field();
    let mut alive = vec![true; before.len()];
    let mut dbf = DbfEngine::new(&before, 2);
    dbf.run_to_convergence(&before);
    let mut up = false;
    c.bench_function("routing/reconverge_delta_kill_revive_169", |b| {
        b.iter(|| {
            alive[MOVED.index()] = up;
            up = !up;
            std::hint::black_box(dbf.invalidate_zone(&before, &[MOVED], &alive))
        })
    });
}

criterion_group!(
    benches,
    bench_full_rebuild,
    bench_incremental,
    bench_failure_invalidation
);
criterion_main!(benches);
