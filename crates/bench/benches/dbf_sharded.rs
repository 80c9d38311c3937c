//! Zone-sharded delta re-convergence at growing scale:
//! n = 225 / 625 / 1024 / 4096 / 10000 (the paper's 13×13 field is only
//! 169 nodes; the top sizes are the ROADMAP's 10k-node scale target).
//!
//! The scenario is the mobility hot path: zone maintenance is down to
//! ~105 µs per epoch, so the delta-DBF exchange itself is the dominant
//! mobility cost. One epoch relocates eight nodes spread across
//! the field — enough disjoint dirty zones for the run planner to have
//! real work everywhere — and the engines re-converge it:
//!
//! * `dbf_delta_seq_n` — a one-shard engine (every exchange inline),
//! * `dbf_delta_sharded_n` — an engine at the host's available parallelism
//!   (a heavy exchange cut into contiguous runs of destinations, the first
//!   on the calling thread and each other on a scoped thread spawned once
//!   per exchange; bit-identical tables and stats, proptested; only
//!   wall-clock may differ),
//! * `dbf_full_seq_n` / `dbf_full_sharded_n` — the from-scratch rebuild
//!   (`DbfEngine::rebuild_sharded`) on a one-shard engine versus an engine
//!   at the host's available parallelism (a heavy round's receiver
//!   ranges run the same way, on threads spawned for that round).
//!
//! CI's hardware-independent ratio gates pin sharded ≤ 0.7× one-shard at
//! n = 625 for both the delta exchange and the full rebuild, and ≤ 0.8×
//! at n = 1024 for the delta (see `xtask bench-gate`) — ≥ ~1.4× from a
//! 2-core runner; wider machines only widen the margin. `xtask
//! speedup-curve` turns the per-size seq/sharded pairs into the
//! speedup-curve JSON CI uploads as an artifact. On a single-core host the
//! engine resolves to one shard, so both sides of each pair run all
//! their work inline and the ratios are only meaningful where parallelism
//! exists (the CI step reports those gates as explicitly skipped when
//! `nproc` is 1).

use criterion::{criterion_group, criterion_main, Criterion};
use spms_net::{placement, NodeId, Point, Topology, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::DbfEngine;

const RADIUS_M: f64 = 20.0;
const SPACING_M: f64 = 5.0;

/// Eight movers spread across the field: quarter-grid anchor points, so
/// their zones are pairwise disjoint at every benched size.
fn movers(side: usize) -> Vec<NodeId> {
    let q = side / 4;
    let h = side / 2;
    [
        (q, q),
        (q, h),
        (q, 3 * q),
        (h, q),
        (h, 3 * q),
        (3 * q, q),
        (3 * q, h),
        (3 * q, 3 * q),
    ]
    .iter()
    .map(|&(c, r)| NodeId::new((r * side + c) as u32))
    .collect()
}

/// The epoch: every mover hops ~1.5 cells diagonally (old and new zones
/// overlap — the common mobility case), yielding the before/after zone
/// tables the ping-ponged `update_topology` calls swap between.
fn before_after(side: usize) -> (Vec<NodeId>, ZoneTable, ZoneTable) {
    let mut topo: Topology = placement::grid(side, side, SPACING_M).unwrap();
    let radio = RadioProfile::mica2();
    let moved = movers(side);
    let before = ZoneTable::build(&topo, &radio, RADIUS_M);
    for &m in &moved {
        let p = topo.position(m);
        topo.move_node(m, Point::new(p.x + 7.5, p.y + 12.5));
    }
    let after = ZoneTable::build(&topo, &radio, RADIUS_M);
    (moved, before, after)
}

fn shard_count() -> usize {
    spms_kernel::host_parallelism()
}

fn bench_delta_paths(c: &mut Criterion) {
    for side in [15usize, 25, 32, 64, 100] {
        let n = side * side;
        let (moved, before, after) = before_after(side);
        let alive = vec![true; n];

        let mut seq = DbfEngine::new(&before, 2);
        seq.run_to_convergence(&before);
        let mut forward = true;
        c.bench_function(&format!("routing/dbf_delta_seq_{n}"), |b| {
            b.iter(|| {
                let (old, new) = if forward {
                    (&before, &after)
                } else {
                    (&after, &before)
                };
                forward = !forward;
                std::hint::black_box(seq.update_topology(old, new, &moved, &alive))
            })
        });

        let mut sharded = DbfEngine::new(&before, 2).with_shards(shard_count());
        sharded.run_to_convergence(&before);
        let mut forward = true;
        c.bench_function(&format!("routing/dbf_delta_sharded_{n}"), |b| {
            b.iter(|| {
                let (old, new) = if forward {
                    (&before, &after)
                } else {
                    (&after, &before)
                };
                forward = !forward;
                std::hint::black_box(sharded.update_topology(old, new, &moved, &alive))
            })
        });
    }
}

fn bench_full_rebuild(c: &mut Criterion) {
    // The from-scratch rebuild at the gated sizes. Engines persist across
    // iterations (warm arenas), exactly like the `dbf_convergence` bench:
    // the representative cost is reset + re-convergence, not allocation.
    for side in [15usize, 25] {
        let n = side * side;
        let topo: Topology = placement::grid(side, side, SPACING_M).unwrap();
        let radio = RadioProfile::mica2();
        let zones = ZoneTable::build(&topo, &radio, RADIUS_M);
        let alive = vec![true; n];

        let mut seq = DbfEngine::new(&zones, 2);
        c.bench_function(&format!("routing/dbf_full_seq_{n}"), |b| {
            b.iter(|| std::hint::black_box(seq.rebuild_sharded(&zones, &alive)))
        });

        let mut sharded = DbfEngine::new(&zones, 2).with_shards(shard_count());
        c.bench_function(&format!("routing/dbf_full_sharded_{n}"), |b| {
            b.iter(|| std::hint::black_box(sharded.rebuild_sharded(&zones, &alive)))
        });
    }
}

criterion_group!(benches, bench_delta_paths, bench_full_rebuild);
criterion_main!(benches);
