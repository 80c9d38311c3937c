//! Microbenchmarks of the simulation substrates: event queue, PRNG,
//! zone construction, Dijkstra oracle, oracle routing tables and
//! distributed Bellman-Ford convergence. These bound how large a sensor
//! field the simulator can handle.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_kernel::{EventQueue, SimRng, SimTime};
use spms_net::{dijkstra, placement, NodeId, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{oracle_tables, DbfEngine, RouteEntry, RoutingTable};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            let mut rng = SimRng::new(1);
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos(rng.next_u64() >> 40), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("kernel/rng_exponential_100k", |b| {
        let mut rng = SimRng::new(2);
        let mean = SimTime::from_millis(50);
        b.iter(|| {
            let mut acc = SimTime::ZERO;
            for _ in 0..100_000 {
                acc = acc.saturating_add(rng.exponential(mean));
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_zones(c: &mut Criterion) {
    let topo = placement::grid(15, 15, 5.0).unwrap();
    let radio = RadioProfile::mica2();
    c.bench_function("net/zone_table_225_nodes", |b| {
        b.iter(|| std::hint::black_box(ZoneTable::build(&topo, &radio, 20.0)))
    });
}

fn bench_dijkstra(c: &mut Criterion) {
    let topo = placement::grid(13, 13, 5.0).unwrap();
    let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
    c.bench_function("net/dijkstra_center_169_nodes", |b| {
        b.iter(|| std::hint::black_box(dijkstra(&zones, NodeId::new(84))))
    });
}

fn bench_dbf(c: &mut Criterion) {
    let topo = placement::grid(13, 13, 5.0).unwrap();
    let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
    // The engine persists across rebuilds in the simulation, so the
    // representative cost is reset + re-convergence on a warm arena, not
    // construction from nothing.
    let mut dbf = DbfEngine::new(&zones, 2);
    let alive = vec![true; zones.len()];
    c.bench_function("routing/dbf_convergence_169_nodes", |b| {
        b.iter(|| std::hint::black_box(dbf.rebuild_sharded(&zones, &alive)))
    });
}

/// Oracle-mode routing set-up on the inputs of
/// `routing/dbf_convergence_169_nodes`, so one run compares the oracle
/// tables with the exchange whose fixpoint they stand in for.
fn bench_oracle(c: &mut Criterion) {
    let topo = placement::grid(13, 13, 5.0).unwrap();
    let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
    c.bench_function("routing/oracle_tables_169_nodes", |b| {
        b.iter(|| std::hint::black_box(oracle_tables(&zones, 2)))
    });
}

/// The offer/lookup churn at a typical zone size (45 destinations, k = 2,
/// repeated replace/improve offers) — the per-offer path of full DBF
/// rounds (delta rounds run the same block kernel on their route plane,
/// without the table lookup).
fn churn(table: &mut RoutingTable) -> usize {
    table.clear();
    for round in 0..8u32 {
        for d in 0..45u32 {
            for via in 0..4u32 {
                table.offer(
                    NodeId::new(d),
                    RouteEntry {
                        via: NodeId::new(100 + via),
                        cost: f64::from((round + via + d) % 7) + 0.5,
                        hops: 1 + (via + round) % 4,
                    },
                );
            }
        }
    }
    table.len()
}

/// The same per-entry churn as [`churn`], delivered the way the DBF inner
/// loops actually deliver it: one ascending-destination vector per
/// (round, via), offered through an ascending cursor (`offer_ascending`),
/// so each lookup of a destination the table does not hold yet searches
/// only past the previous hit.
fn churn_ascending(table: &mut RoutingTable) -> usize {
    table.clear();
    for round in 0..8u32 {
        for via in 0..4u32 {
            let mut cursor = 0usize;
            for d in 0..45u32 {
                table.offer_ascending(
                    NodeId::new(d),
                    RouteEntry {
                        via: NodeId::new(100 + via),
                        cost: f64::from((round + via + d) % 7) + 0.5,
                        hops: 1 + (via + round) % 4,
                    },
                    &mut cursor,
                );
            }
        }
    }
    table.len()
}

fn bench_table_churn(c: &mut Criterion) {
    c.bench_function("routing/table_offer_soa_churn_45_dests", |b| {
        let mut table = RoutingTable::new(2);
        b.iter(|| std::hint::black_box(churn(&mut table)))
    });
}

fn bench_table_vector_replay(c: &mut Criterion) {
    c.bench_function("routing/table_offer_soa_ascending_45_dests", |b| {
        let mut table = RoutingTable::new(2);
        b.iter(|| std::hint::black_box(churn_ascending(&mut table)))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_zones,
    bench_dijkstra,
    bench_dbf,
    bench_oracle,
    bench_table_churn,
    bench_table_vector_replay
);
criterion_main!(benches);
