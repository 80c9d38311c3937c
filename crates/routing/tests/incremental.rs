//! Property-based equivalence of the DBF engine against the sequential
//! full-rebuild reference oracle.
//!
//! An engine survives an arbitrary sequence of topology events (node moves,
//! failures, repairs), re-converging only the affected zones after each
//! one — or after several at once, with liveness flips reported late. Every
//! zone change reaches it as one `ZoneDelta`: patched in place by
//! `ZoneTable::patch`, or taken with `ZoneDelta::between` two whole tables.
//! After every event its tables must be **exactly** equal to the
//! from-scratch [`reference_rebuild`] — the delta exchange restricted to the
//! invalidated destinations replays the same relaxation the full rebuild
//! would, so even the floating-point sums agree bit for bit — and every
//! full rebuild must equal it in its stats too. A centralized Dijkstra
//! cross-check (with tolerance) guards against both distributed paths
//! drifting together.

use proptest::prelude::*;
use spms_net::{placement, NodeId, Point, SpatialGrid, Topology, ZoneDelta, ZoneTable};
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

/// An engine entering through a full rebuild that must already equal the
/// reference byte for byte.
fn rebuilt_engine(zones: &ZoneTable, k: usize, alive: &[bool]) -> Result<DbfEngine, TestCaseError> {
    let (_, want) = reference_rebuild(zones, k, alive);
    let mut engine = DbfEngine::new(zones, k);
    let got = engine.rebuild_sharded(zones, alive);
    prop_assert_eq!(&got, &want, "initial rebuild stats");
    Ok(engine)
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
                    let delta =
                        ZoneDelta::between(&old_zones, &zones, &[NodeId::new(node as u32)]);
                    dbf.apply_zone_delta(&zones, &delta, &[], &alive);
                }
                Op::Kill(node) => {
                    // Killing a dead node is a (legal) no-op invalidation.
                    alive[node] = false;
                    let flipped = [NodeId::new(node as u32)];
                    dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &flipped, &alive);
                }
                Op::Revive(node) => {
                    alive[node] = true;
                    let flipped = [NodeId::new(node as u32)];
                    dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &flipped, &alive);
                }
            }
            assert_matches_reference(&dbf, &zones, &alive, &context)?;
        }
    }

    /// Liveness flips that are *not* reported when they happen but are
    /// folded into the `changed` set of the next topology update still land
    /// on the from-scratch rebuild, even batched together with a move.
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
                    let delta = ZoneDelta::between(&old_zones, &zones, &changed);
                    dbf.apply_zone_delta(&zones, &delta, &[], &alive);
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
            dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &unreported, &alive);
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
            dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &unreported, &alive);
            assert_matches_reference(&dbf, &zones, &alive, "final flush")?;
        }
    }

    /// Heavy churn: whole cohorts leave or rejoin at once (the mass
    /// join/leave mode of the adversarial-churn subsystem). Each epoch
    /// flips a cohort-sized slice of the mask and invalidates it in ONE
    /// call — exactly how the simulation engine re-converges one churn
    /// cohort — and after every epoch the tables equal a from-scratch
    /// masked rebuild.
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
            dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &cohort, &alive);
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
        let delta = ZoneDelta::between(&old_zones, &new_zones, &[moved]);
        let stats = dbf.apply_zone_delta(&new_zones, &delta, &[], &alive);
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
    dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &everyone, &dead);
    assert_matches_reference(&dbf, &zones, &dead, "empty field")?;
    for node in &everyone {
        assert_eq!(
            dbf.table(*node).destinations().count(),
            0,
            "dead node {node} still holds routes"
        );
    }

    let alive = vec![true; n];
    dbf.apply_zone_delta(&zones, &ZoneDelta::default(), &everyone, &alive);
    assert_matches_reference(&dbf, &zones, &alive, "full rejoin")?;
    Ok(())
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    #![proptest_config(ProptestConfig {
        cases: 16,
        rng_seed: 0x0000_D8F1_2004,
        ..ProptestConfig::default()
    })]

    /// Random event sequences grouped into windows: movers relocate as
    /// they come and patch the zone table through one `apply_moves` at the
    /// window's end; kills and revives stay silent until then. Every
    /// re-convergence must land on the reference exactly.
    #[test]
    fn multi_event_patches_match_the_reference(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        k in 1usize..4,
        window in 1usize..4,
        raw_ops in prop::collection::vec((0u8..6, 0u16..64, 0.0f64..1.0, 0.0f64..1.0), 2..10),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let ops = decode_ops(&raw_ops, n);
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::for_radius(&topo, radius);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, radius);
        let mut alive = vec![true; n];
        let mut engine = rebuilt_engine(&zones, k, &alive)?;

        // The window: movers relocate now and patch the zones at the
        // flush, liveness flips wait in `silent`, and everything
        // re-converges at once.
        let mut movers: Vec<NodeId> = Vec::new();
        let mut silent: Vec<NodeId> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Move(node, fx, fy) => {
                    let field = topo.field();
                    let moved = NodeId::new(node as u32);
                    topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
                    grid.move_node(moved, topo.position(moved));
                    movers.push(moved);
                }
                Op::Kill(node) => {
                    alive[node] = false;
                    silent.push(NodeId::new(node as u32));
                }
                Op::Revive(node) => {
                    alive[node] = true;
                    silent.push(NodeId::new(node as u32));
                }
            }
            let window_full = (step + 1) % window == 0;
            let last = step + 1 == ops.len();
            if !(window_full || last) {
                continue;
            }
            if movers.is_empty() && silent.is_empty() {
                continue; // nothing happened since the last flush
            }
            movers.sort_unstable();
            movers.dedup();
            silent.sort_unstable();
            silent.dedup();
            let delta = zones.apply_moves(&topo, &radio, &grid, &movers);
            movers.clear();
            engine.apply_zone_delta(&zones, &delta, &silent, &alive);
            silent.clear();
            let context = format!("flush after step {step} ({op:?})");
            assert_matches_reference(&engine, &zones, &alive, &context)?;
        }
    }

    /// One delta across several events: `ZoneDelta::between` the table
    /// from the *window start* — several moves stale — and the current one,
    /// over the deduped union of every changed node since. Out-and-back
    /// moves and movers-meeting-movers are all in range of the random
    /// walk; every flush must land on the reference exactly.
    #[test]
    fn deltas_across_several_events_match_the_reference(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        window in 2usize..5,
        raw_ops in prop::collection::vec((0u8..6, 0u16..64, 0.0f64..1.0, 0.0f64..1.0), 3..12),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let ops = decode_ops(&raw_ops, n);
        let mut zones = build_zones(&topo, radius);
        let mut alive = vec![true; n];
        let mut engine = rebuilt_engine(&zones, 2, &alive)?;

        // Window state: the zone table as of the window start plus the
        // union of everything that changed since.
        let mut window_start = zones.clone();
        let mut changed: Vec<NodeId> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Move(node, fx, fy) => {
                    let field = topo.field();
                    let moved = NodeId::new(node as u32);
                    topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
                    zones = build_zones(&topo, radius);
                    changed.push(moved);
                }
                Op::Kill(node) => {
                    alive[node] = false;
                    changed.push(NodeId::new(node as u32));
                }
                Op::Revive(node) => {
                    alive[node] = true;
                    changed.push(NodeId::new(node as u32));
                }
            }
            let window_full = (step + 1) % window == 0;
            let last = step + 1 == ops.len();
            if !(window_full || last) || changed.is_empty() {
                continue;
            }
            changed.sort_unstable();
            changed.dedup();
            let delta = ZoneDelta::between(&window_start, &zones, &changed);
            engine.apply_zone_delta(&zones, &delta, &[], &alive);
            changed.clear();
            window_start = zones.clone();
            let context = format!("stale-window flush after step {step} ({op:?})");
            assert_matches_reference(&engine, &zones, &alive, &context)?;
        }
    }

    /// Liveness flips alone (only kills/revives, no moves) re-converge
    /// through the default delta and `also_changed`, and still land on the
    /// reference.
    #[test]
    fn liveness_flips_alone_reconverge_through_the_default_delta(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        flips in prop::collection::vec((0u8..2, 0u16..64), 1..6),
    ) {
        let topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let radio = RadioProfile::mica2();
        let grid = SpatialGrid::for_radius(&topo, radius);
        let zones = ZoneTable::build_indexed(&topo, &radio, &grid, radius);
        let mut alive = vec![true; n];
        let mut engine = rebuilt_engine(&zones, 2, &alive)?;

        let mut silent: Vec<NodeId> = Vec::new();
        for &(kind, node) in &flips {
            let node = node as usize % n;
            alive[node] = kind == 1;
            silent.push(NodeId::new(node as u32));
        }
        silent.sort_unstable();
        silent.dedup();
        engine.apply_zone_delta(&zones, &ZoneDelta::default(), &silent, &alive);
        assert_matches_reference(&engine, &zones, &alive, "silent flush")?;
    }

    /// The full rebuild against the reference directly: random fields,
    /// radii, k and liveness masks. Tables and stats must be
    /// bit-identical to [`reference_rebuild`] — and a
    /// rebuild over an engine converged on another world must scrub every
    /// trace of the stale state.
    #[test]
    fn full_rebuild_matches_the_reference_tables_and_stats(
        cols in 3usize..8,
        rows in 2usize..6,
        radius in 12.0f64..24.0,
        k in 1usize..4,
        dead in prop::collection::vec(0u16..64, 0..5),
        mover in 0u16..64,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let mut alive = vec![true; n];
        for d in &dead {
            alive[*d as usize % n] = false;
        }

        let zones = build_zones(&topo, radius);
        let mut engine = rebuilt_engine(&zones, k, &alive)?;
        assert_matches_reference(&engine, &zones, &alive, "fresh rebuild")?;

        // Perturb the world, then rebuild from scratch over the now stale
        // engine: the rebuild must depend only on its inputs.
        let moved = NodeId::new(mover as u32 % n as u32);
        let field = topo.field();
        topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
        let new_zones = build_zones(&topo, radius);
        let (_, want) = reference_rebuild(&new_zones, k, &alive);
        let got = engine.rebuild_sharded(&new_zones, &alive);
        prop_assert_eq!(&got, &want, "stale rebuild stats");
        assert_matches_reference(&engine, &new_zones, &alive, "post-move rebuild")?;
    }

    /// Dropping an engine mid-sequence and rebuilding a fresh one
    /// must not leak stale round data into the replacement: at every step
    /// the engine agrees with the reference, whether it survived from the
    /// previous step or was just recreated.
    #[test]
    fn engine_drop_and_rebuild_mid_sequence_keeps_the_chain_exact(
        cols in 4usize..8,
        rows in 3usize..6,
        steps in prop::collection::vec((0u16..64, 0.0f64..1.0, 0.0f64..1.0, any::<bool>()), 3..8),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let mut zones = build_zones(&topo, 20.0);
        let alive = vec![true; n];
        let mut engine = rebuilt_engine(&zones, 2, &alive)?;

        for (step, &(node, fx, fy, recycle)) in steps.iter().enumerate() {
            let moved = NodeId::new(node as u32 % n as u32);
            let field = topo.field();
            topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
            let new_zones = build_zones(&topo, 20.0);
            let delta = ZoneDelta::between(&zones, &new_zones, &[moved]);
            engine.apply_zone_delta(&new_zones, &delta, &[], &alive);
            zones = new_zones;
            let context = format!("step {step}");
            assert_matches_reference(&engine, &zones, &alive, &context)?;
            if recycle {
                // Mid-simulation engine teardown: the replacement starts
                // cold from a full rebuild of the current world.
                engine = rebuilt_engine(&zones, 2, &alive)?;
                assert_matches_reference(
                    &engine,
                    &zones,
                    &alive,
                    &format!("post-recycle at step {step}"),
                )?;
            }
        }
    }
}
