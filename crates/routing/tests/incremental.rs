//! Property-based equivalence of the incremental delta-DBF against the
//! full-rebuild reference oracle.
//!
//! An incremental engine survives an arbitrary sequence of topology events
//! (node moves, failures, repairs), re-converging only the affected zones
//! after each one. After every event its tables must be **exactly** equal
//! to the from-scratch [`reference_rebuild`] — the delta exchange
//! restricted to the invalidated destinations replays the same relaxation
//! the full rebuild would, so even the floating-point sums agree bit for
//! bit. A centralized Dijkstra cross-check (with tolerance)
//! guards against both distributed paths drifting together.

use proptest::prelude::*;
use spms_net::{placement, NodeId, Point, SpatialGrid, Topology, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{oracle_tables_masked, reference_rebuild, DbfEngine};

/// One topology event, decoded from raw proptest draws.
#[derive(Clone, Copy, Debug)]
enum Op {
    Move(usize, f64, f64),
    Kill(usize),
    Revive(usize),
}

fn decode_ops(raw: &[(u8, u16, f64, f64)], n: usize) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, node, x, y)| {
            let node = node as usize % n;
            match kind % 3 {
                0 => Op::Move(node, x, y),
                1 => Op::Kill(node),
                _ => Op::Revive(node),
            }
        })
        .collect()
}

fn build_zones(topo: &Topology, radius: f64) -> ZoneTable {
    ZoneTable::build(topo, &RadioProfile::mica2(), radius)
}

/// Asserts exact table equality between the incremental engine and a
/// from-scratch rebuild, and tolerant agreement with the Dijkstra oracle.
fn assert_matches_reference(
    dbf: &DbfEngine,
    zones: &ZoneTable,
    alive: &[bool],
    context: &str,
) -> Result<(), TestCaseError> {
    let (reference, _) = reference_rebuild(zones, dbf.k(), alive);
    let oracle = oracle_tables_masked(zones, dbf.k(), alive);
    for (i, want) in oracle.iter().enumerate() {
        let node = NodeId::new(i as u32);
        prop_assert_eq!(
            dbf.table(node),
            &reference[i],
            "{}: node {} diverged from the full rebuild",
            context,
            node
        );
        let got = dbf.table(node);
        let gd: Vec<NodeId> = got.destinations().collect();
        let wd: Vec<NodeId> = want.destinations().collect();
        prop_assert_eq!(gd, wd, "{}: node {} oracle destination sets", context, node);
        for d in want.destinations() {
            let a = want.routes_to(d);
            let b = got.routes_to(d);
            prop_assert_eq!(a.len(), b.len(), "{}: node {} dest {}", context, node, d);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.via, y.via, "{}: node {} dest {}", context, node, d);
                prop_assert_eq!(x.hops, y.hops, "{}: node {} dest {}", context, node, d);
                prop_assert!(
                    (x.cost - y.cost).abs() < 1e-9,
                    "{}: node {} dest {}: oracle {} vs dbf {}",
                    context,
                    node,
                    d,
                    x.cost,
                    y.cost
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    #![proptest_config(ProptestConfig {
        cases: 24,
        rng_seed: 0x0000_D8F1_2004,
        ..ProptestConfig::default()
    })]

    /// Random move/kill/revive sequences: after every event the incremental
    /// engine equals a from-scratch masked rebuild exactly.
    #[test]
    fn event_sequences_match_from_scratch_rebuild(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        k in 1usize..4,
        raw_ops in prop::collection::vec((0u8..6, 0u16..64, 0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let ops = decode_ops(&raw_ops, n);
        let mut zones = build_zones(&topo, radius);
        let mut alive = vec![true; n];
        let mut dbf = DbfEngine::new(&zones, k);
        dbf.run_to_convergence(&zones);

        for (step, op) in ops.iter().enumerate() {
            let context = format!("step {step} ({op:?})");
            match *op {
                Op::Move(node, fx, fy) => {
                    let field = topo.field();
                    let dest = Point::new(fx * field.width, fy * field.height);
                    topo.move_node(NodeId::new(node as u32), dest);
                    let new_zones = build_zones(&topo, radius);
                    let old_zones = std::mem::replace(&mut zones, new_zones);
                    dbf.update_topology(
                        &old_zones,
                        &zones,
                        &[NodeId::new(node as u32)],
                        &alive,
                    );
                }
                Op::Kill(node) => {
                    // Killing a dead node is a (legal) no-op invalidation.
                    alive[node] = false;
                    dbf.invalidate_zone(&zones, &[NodeId::new(node as u32)], &alive);
                }
                Op::Revive(node) => {
                    alive[node] = true;
                    dbf.invalidate_zone(&zones, &[NodeId::new(node as u32)], &alive);
                }
            }
            assert_matches_reference(&dbf, &zones, &alive, &context)?;
        }
    }

    /// Liveness flips that are *not* reported when they happen (the
    /// simulation rides out failures on alternative routes) but are folded
    /// into the `changed` set of the next topology update still land on the
    /// from-scratch rebuild, even batched together with a move.
    #[test]
    fn batched_liveness_flips_reported_at_next_update_match_rebuild(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        raw_ops in prop::collection::vec((0u8..6, 0u16..64, 0.0f64..1.0, 0.0f64..1.0), 2..10),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let ops = decode_ops(&raw_ops, n);
        let mut zones = build_zones(&topo, radius);
        let mut alive = vec![true; n];
        let mut dbf = DbfEngine::new(&zones, 2);
        dbf.run_to_convergence(&zones);
        let mut unreported: Vec<NodeId> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Move(node, fx, fy) => {
                    let field = topo.field();
                    topo.move_node(
                        NodeId::new(node as u32),
                        Point::new(fx * field.width, fy * field.height),
                    );
                    let new_zones = build_zones(&topo, radius);
                    let old_zones = std::mem::replace(&mut zones, new_zones);
                    let mut changed = vec![NodeId::new(node as u32)];
                    changed.append(&mut unreported);
                    changed.dedup();
                    dbf.update_topology(&old_zones, &zones, &changed, &alive);
                    assert_matches_reference(
                        &dbf,
                        &zones,
                        &alive,
                        &format!("step {step} (batched {changed:?})"),
                    )?;
                }
                // Silent flips: applied to the mask, reported later.
                Op::Kill(node) => {
                    alive[node] = false;
                    unreported.push(NodeId::new(node as u32));
                }
                Op::Revive(node) => {
                    alive[node] = true;
                    unreported.push(NodeId::new(node as u32));
                }
            }
        }
        if !unreported.is_empty() {
            unreported.dedup();
            dbf.invalidate_zone(&zones, &unreported, &alive);
            assert_matches_reference(&dbf, &zones, &alive, "final flush")?;
        }
    }

    /// The fully incremental stack: zones maintained **in place** by
    /// `ZoneTable::apply_moves` over a spatial grid (no old zone table
    /// ever exists), routing re-converged from the resulting `ZoneDelta`
    /// via `apply_zone_delta`, with kills/revives ridden out silently and
    /// folded in at the next move — after every event the tables equal a
    /// from-scratch masked rebuild exactly. This mirrors the simulation
    /// engine's `incremental_zones` + `incremental_routing` epoch path.
    #[test]
    fn patched_zone_sequences_match_from_scratch_rebuild(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        k in 1usize..4,
        raw_ops in prop::collection::vec((0u8..6, 0u16..64, 0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let ops = decode_ops(&raw_ops, n);
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::build(&topo, radius);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, radius);
        let mut alive = vec![true; n];
        let mut dbf = DbfEngine::new(&zones, k);
        dbf.run_to_convergence(&zones);
        let mut unreported: Vec<NodeId> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Move(node, fx, fy) => {
                    let field = topo.field();
                    let moved = NodeId::new(node as u32);
                    topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
                    grid.move_node(moved, topo.position(moved));
                    let delta = zones.apply_moves(&topo, &radio, &grid, &[moved]);
                    prop_assert_eq!(
                        &zones,
                        &ZoneTable::build(&topo, &radio, radius),
                        "step {}: zone patch diverged",
                        step
                    );
                    unreported.dedup();
                    dbf.apply_zone_delta(&zones, &delta, &unreported, &alive);
                    unreported.clear();
                    assert_matches_reference(
                        &dbf,
                        &zones,
                        &alive,
                        &format!("step {step} (patched move of {moved})"),
                    )?;
                }
                // Silent flips: applied to the mask, folded in at the next
                // zone patch.
                Op::Kill(node) => {
                    alive[node] = false;
                    unreported.push(NodeId::new(node as u32));
                }
                Op::Revive(node) => {
                    alive[node] = true;
                    unreported.push(NodeId::new(node as u32));
                }
            }
        }
        if !unreported.is_empty() {
            unreported.dedup();
            dbf.invalidate_zone(&zones, &unreported, &alive);
            assert_matches_reference(&dbf, &zones, &alive, "final flush")?;
        }
    }

    /// Heavy churn: whole cohorts leave or rejoin at once (the mass
    /// join/leave mode of the adversarial-churn subsystem). Each epoch
    /// flips a cohort-sized slice of the mask and invalidates it in ONE
    /// call — exactly how the simulation engine queues one liveness delta
    /// per churn cohort — and after every epoch the tables equal a
    /// from-scratch masked rebuild.
    #[test]
    fn cohort_kill_revive_matches_rebuild(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        k in 1usize..4,
        epochs in prop::collection::vec(
            (prop::collection::vec(0u16..64, 1..12), any::<bool>()),
            1..6,
        ),
    ) {
        let topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let zones = build_zones(&topo, radius);
        let mut alive = vec![true; n];
        let mut dbf = DbfEngine::new(&zones, k);
        dbf.run_to_convergence(&zones);
        for (step, (raw, kill)) in epochs.iter().enumerate() {
            let mut cohort: Vec<NodeId> = raw
                .iter()
                .map(|&r| NodeId::new(u32::from(r) % n as u32))
                .collect();
            cohort.sort_unstable();
            cohort.dedup();
            for &c in &cohort {
                alive[c.index()] = !kill;
            }
            dbf.invalidate_zone(&zones, &cohort, &alive);
            assert_matches_reference(
                &dbf,
                &zones,
                &alive,
                &format!("epoch {step} (kill={kill}, cohort of {})", cohort.len()),
            )?;
        }
    }

    /// The delta run's byte accounting stays internally consistent across
    /// arbitrary single events.
    #[test]
    fn delta_stats_account_bytes_per_node(
        cols in 3usize..8,
        node in 0u16..64,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let mut topo = placement::grid(cols, 3, 5.0).unwrap();
        let n = topo.len();
        let moved = NodeId::new(node as usize as u32 % n as u32);
        let old_zones = build_zones(&topo, 20.0);
        let mut dbf = DbfEngine::new(&old_zones, 2);
        dbf.run_to_convergence(&old_zones);
        let field = topo.field();
        topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
        let new_zones = build_zones(&topo, 20.0);
        let alive = vec![true; n];
        let stats = dbf.update_topology(&old_zones, &new_zones, &[moved], &alive);
        prop_assert_eq!(stats.per_node_bytes.iter().sum::<u64>(), stats.bytes_total);
        prop_assert!(stats.entries_sent >= stats.messages);
        prop_assert!(stats.rounds >= 1);
        let header = u64::from(spms_routing::DbfWireFormat::default().header_bytes);
        prop_assert!(stats.bytes_total >= stats.messages * header);
    }
}

#[test]
fn full_cohort_leave_then_rejoin_matches_rebuild() -> Result<(), TestCaseError> {
    // The two edge cases of the cohort path pinned deterministically: the
    // ENTIRE field dies in one epoch (no alive node holds a single route),
    // then the entire field rejoins — both must land exactly on the
    // from-scratch masked rebuild.
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let n = topo.len();
    let zones = build_zones(&topo, 20.0);
    let everyone: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
    let mut dbf = DbfEngine::new(&zones, 2);
    dbf.run_to_convergence(&zones);

    let dead = vec![false; n];
    dbf.invalidate_zone(&zones, &everyone, &dead);
    assert_matches_reference(&dbf, &zones, &dead, "empty field")?;
    for node in &everyone {
        assert_eq!(
            dbf.table(*node).destinations().count(),
            0,
            "dead node {node} still holds routes"
        );
    }

    let alive = vec![true; n];
    dbf.invalidate_zone(&zones, &everyone, &alive);
    assert_matches_reference(&dbf, &zones, &alive, "full rejoin")?;
    Ok(())
}
