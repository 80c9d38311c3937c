//! Layout-differential harness: the SoA relaxation arena against the AoS
//! oracle.
//!
//! The AoS layout is the original flat `[RouteEntry]` block arena, kept
//! verbatim as the reference implementation. The SoA layout re-stores the
//! same tables as parallel cost/next-hop/hops planes plus a direct-map
//! destination index, and re-implements the relaxation kernel against
//! them. These suites hold the two observationally identical:
//!
//! 1. **Table-level lockstep replay** — random operation sequences
//!    (offers, ascending-cursor vector replays, single and batched
//!    destination removals, next-hop purges, clears) applied to one table
//!    per layout, asserting identical return values and bit-identical
//!    tables after **every** operation. Offered costs are quantized onto
//!    a sub-epsilon lattice so sequences repeatedly land inside the
//!    non-transitive tie window of the epsilon comparator — the regime
//!    where the replace-arm and insert-arm rank rules disagree and a
//!    kernel shortcut would diverge.
//! 2. **Engine-level end-to-end differential** — a 169-node field driven
//!    through the DBF round loop in both snapshot modes (full rebuild,
//!    batched delta) at one shard and at four, under both layouts,
//!    asserting byte-identical [`DbfStats`] and bit-identical tables at
//!    every checkpoint, anchored to [`reference_rebuild`].

use proptest::prelude::*;
use spms_net::{placement, NodeId, Point, SpatialGrid, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{reference_rebuild, DbfEngine, DbfStats, RouteEntry, RoutingTable, TableLayout};

/// One table operation, decoded from raw proptest draws.
#[derive(Clone, Debug)]
enum Op {
    /// A single route offer.
    Offer(u32, RouteEntry),
    /// A whole ascending distance vector replayed through one cursor.
    OfferVector(Vec<u32>, RouteEntry),
    RemoveDest(u32),
    RemoveDests(Vec<u32>),
    PurgeVia(u32),
    Clear,
}

/// Builds an entry whose cost sits on a half-epsilon lattice: offers
/// regularly collide inside the `COST_EPS` tie window, exercising the
/// non-transitive comparator edge the SoA kernel must replicate exactly.
fn entry(via: u8, cq: u8, eq: u8, hops: u8) -> RouteEntry {
    RouteEntry {
        via: NodeId::new(100 + u32::from(via % 6)),
        cost: f64::from(cq % 5) * 0.5 + f64::from(eq % 4) * 0.6e-12,
        hops: 1 + u32::from(hops % 4),
    }
}

/// A sorted, distinct destination set derived from one seed draw.
fn dest_set(d: u16, len: u8) -> Vec<u32> {
    let mut v: Vec<u32> = (0..u32::from(len % 7) + 1)
        .map(|i| (u32::from(d) + i * 5) % 64)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn decode_ops(raw: &[(u8, u16, u8, u8, u8, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, d, via, cq, eq, hops)| match kind % 8 {
            0..=2 => Op::Offer(u32::from(d) % 64, entry(via, cq, eq, hops)),
            3 | 4 => Op::OfferVector(dest_set(d, via), entry(via, cq, eq, hops)),
            5 => Op::RemoveDest(u32::from(d) % 64),
            6 => Op::RemoveDests(dest_set(d, via)),
            _ => {
                if cq % 4 == 0 {
                    Op::Clear
                } else {
                    Op::PurgeVia(100 + u32::from(via % 6))
                }
            }
        })
        .collect()
}

/// Applies one op and folds every boolean/count it returns into one word,
/// so the two layouts' observable effects can be compared exactly.
fn apply(table: &mut RoutingTable, op: &Op) -> u64 {
    match op {
        Op::Offer(d, e) => u64::from(table.offer(NodeId::new(*d), *e)),
        Op::OfferVector(dests, e) => {
            let mut cursor = 0usize;
            let mut acc = 0u64;
            for &d in dests {
                acc =
                    (acc << 1) | u64::from(table.offer_ascending(NodeId::new(d), *e, &mut cursor));
            }
            acc
        }
        Op::RemoveDest(d) => u64::from(table.remove_dest(NodeId::new(*d))),
        Op::RemoveDests(ds) => {
            let ids: Vec<NodeId> = ds.iter().map(|&d| NodeId::new(d)).collect();
            table.remove_dests(&ids) as u64
        }
        Op::PurgeVia(v) => u64::from(table.purge_via(NodeId::new(*v))),
        Op::Clear => {
            table.clear();
            0
        }
    }
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    #![proptest_config(ProptestConfig {
        cases: 24,
        rng_seed: 0x0000_1A70_2004,
        ..ProptestConfig::default()
    })]

    /// Identical operation sequences leave the SoA arena bit-identical to
    /// the AoS oracle after every single step, for every `k` (k = 2 takes
    /// the unrolled kernel, other k the generic plane kernel).
    #[test]
    fn lockstep_replay_is_bit_identical(
        k in 1usize..4,
        raw_ops in prop::collection::vec(
            (0u8..16, 0u16..256, 0u8..12, 0u8..10, 0u8..8, 0u8..8),
            1..40,
        ),
    ) {
        let ops = decode_ops(&raw_ops);
        let mut soa = RoutingTable::with_layout(k, TableLayout::Soa);
        let mut aos = RoutingTable::with_layout(k, TableLayout::Aos);
        for (step, op) in ops.iter().enumerate() {
            let got = apply(&mut soa, op);
            let want = apply(&mut aos, op);
            prop_assert_eq!(
                got, want,
                "step {}: layouts disagreed on the result of {:?}", step, op
            );
            prop_assert_eq!(
                &soa, &aos,
                "step {}: tables diverged after {:?}", step, op
            );
            prop_assert_eq!(soa.total_entries(), aos.total_entries());
        }
        // Read API agrees destination by destination, and a layout
        // round-trip preserves the table exactly.
        for d in 0..64u32 {
            let d = NodeId::new(d);
            prop_assert_eq!(soa.best(d), aos.best(d));
            prop_assert!(soa.routes_to(d) == aos.routes_to(d));
        }
        let mut round_trip = soa.clone();
        round_trip.convert_layout(TableLayout::Aos);
        prop_assert_eq!(&round_trip, &aos);
        round_trip.convert_layout(TableLayout::Soa);
        prop_assert_eq!(&round_trip, &soa);
    }
}

/// Asserts two engines hold bit-identical tables at every node.
fn assert_tables_match(soa: &DbfEngine, aos: &DbfEngine, n: usize, context: &str) {
    assert_eq!(soa.table_layout(), TableLayout::Soa, "{context}");
    assert_eq!(aos.table_layout(), TableLayout::Aos, "{context}");
    for i in 0..n {
        let node = NodeId::new(i as u32);
        assert_eq!(
            soa.table(node),
            aos.table(node),
            "{context}: layouts diverged at node {node}"
        );
    }
}

/// Runs one closure against both engines and asserts byte-identical stats.
fn step_both(
    soa: &mut DbfEngine,
    aos: &mut DbfEngine,
    context: &str,
    mut f: impl FnMut(&mut DbfEngine) -> DbfStats,
) {
    let got = f(soa);
    let want = f(aos);
    assert_eq!(got, want, "{context}: stats diverged");
}

/// Asserts an engine holds the reference rebuild's tables at every node.
fn assert_matches_reference(engine: &DbfEngine, want: &[RoutingTable], context: &str) {
    for (i, want) in want.iter().enumerate() {
        let node = NodeId::new(i as u32);
        assert_eq!(
            engine.table(node),
            want,
            "{context}: diverged from the reference at node {node}"
        );
    }
}

/// The end-to-end differential at the paper's 169-node scale: the DBF
/// round loop, in full and delta mode, at one shard (every round inline)
/// and at four (heavy rounds on threads), produces byte-identical stats
/// and bit-identical tables under both arena layouts — equal to the
/// reference rebuild's.
#[test]
fn dbf_loops_are_bit_identical_across_layouts_169_nodes() {
    let mut topo = placement::grid(13, 13, 5.0).unwrap();
    let n = topo.len();
    let radio = RadioProfile::mica2();
    let radius = 20.0;
    let mut grid = SpatialGrid::for_radius(&topo, radius);
    let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, radius);
    let mut alive = vec![true; n];

    let k = 2;
    let mut one_soa = DbfEngine::new(&zones, k).with_table_layout(TableLayout::Soa);
    let mut one_aos = DbfEngine::new(&zones, k).with_table_layout(TableLayout::Aos);
    let mut sh_soa = DbfEngine::new(&zones, k)
        .with_shards(4)
        .with_table_layout(TableLayout::Soa);
    let mut sh_aos = DbfEngine::new(&zones, k)
        .with_shards(4)
        .with_table_layout(TableLayout::Aos);

    // Full mode, one shard and four, against the reference.
    let (want_tables, want) = reference_rebuild(&zones, k, &alive);
    for (label, soa, aos) in [
        ("one-shard full", &mut one_soa, &mut one_aos),
        ("sharded full", &mut sh_soa, &mut sh_aos),
    ] {
        step_both(soa, aos, label, |e| {
            let got = e.rebuild_sharded(&zones, &alive);
            assert_eq!(got, want, "{label}: stats diverged from the reference");
            got
        });
        assert_tables_match(soa, aos, n, label);
        assert_matches_reference(soa, &want_tables, label);
    }

    // A multi-node topology change: three movers patched through one
    // delta plus two silent liveness flips — the workload of delta mode.
    let movers: Vec<NodeId> = [5u32, 84, 130].into_iter().map(NodeId::new).collect();
    for (i, &node) in movers.iter().enumerate() {
        let field = topo.field();
        let to = Point::new(
            field.width * (0.2 + 0.3 * i as f64),
            field.height * (0.7 - 0.2 * i as f64),
        );
        topo.move_node(node, to);
        grid.move_node(node, topo.position(node));
    }
    let delta = zones.apply_moves(&topo, &radio, &grid, &movers);
    alive[40] = false;
    alive[77] = false;
    let silent = vec![NodeId::new(40), NodeId::new(77)];

    // Delta mode, one shard and four: identical stats everywhere, and the
    // reference's tables under the patched zones.
    let (want_tables, _) = reference_rebuild(&zones, k, &alive);
    let mut delta_want: Option<DbfStats> = None;
    for (label, soa, aos) in [
        ("one-shard delta", &mut one_soa, &mut one_aos),
        ("sharded delta", &mut sh_soa, &mut sh_aos),
    ] {
        step_both(soa, aos, label, |e| {
            let got = e.apply_zone_delta(&zones, &delta, &silent, &alive);
            let want = delta_want.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "{label}: stats diverged from one shard");
            got
        });
        assert_tables_match(soa, aos, n, label);
        assert_matches_reference(soa, &want_tables, label);
    }
}
