//! Differential harness for the DBF engine against the sequential
//! reference rebuild.
//!
//! Every property drives one engine through random move/kill/revive
//! sequences (with liveness flips reported late and several events
//! re-converged at once), in both exchange kinds:
//!
//! * **full** — [`DbfEngine::rebuild_sharded`] must equal the sequential
//!   [`reference_rebuild`] bit for bit, tables *and* stats;
//! * **delta** — every re-convergence must land on the reference's tables
//!   exactly.

use proptest::prelude::*;
use spms_net::{placement, NodeId, Point, SpatialGrid, ZoneDelta, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{reference_rebuild, DbfEngine};

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

/// An empty delta: a re-convergence that moved nobody.
fn empty_delta() -> ZoneDelta {
    ZoneDelta {
        moves: Vec::new(),
        changed_nodes: Vec::new(),
    }
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

/// Asserts the engine equals the from-scratch reference bit for bit.
fn assert_matches_reference(
    engine: &DbfEngine,
    zones: &ZoneTable,
    alive: &[bool],
    context: &str,
) -> Result<(), TestCaseError> {
    let (want, _) = reference_rebuild(zones, engine.k(), alive);
    for (i, want) in want.iter().enumerate() {
        let node = NodeId::new(i as u32);
        prop_assert_eq!(
            engine.table(node),
            want,
            "{}: diverged from the reference at node {}",
            context,
            node
        );
    }
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
    fn batched_windows_reach_the_root_oracle(
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

    /// `update_topology` across several events at once: one call whose
    /// `old_zones` is the table from the *window start* — several moves
    /// stale — with the deduped union of every changed node since. Out-and-back
    /// moves and movers-meeting-movers are all in range of the random
    /// walk; every flush must land on the reference exactly.
    #[test]
    fn window_stale_old_tables_flush_to_the_root_oracle(
        cols in 3usize..7,
        rows in 2usize..5,
        radius in 12.0f64..24.0,
        window in 2usize..5,
        raw_ops in prop::collection::vec((0u8..6, 0u16..64, 0.0f64..1.0, 0.0f64..1.0), 3..12),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let ops = decode_ops(&raw_ops, n);
        let radio = RadioProfile::mica2();
        let mut zones = ZoneTable::build(&topo, &radio, radius);
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
                    zones = ZoneTable::build(&topo, &radio, radius);
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
            engine.update_topology(&window_start, &zones, &changed, &alive);
            changed.clear();
            window_start = zones.clone();
            let context = format!("stale-window flush after step {step} ({op:?})");
            assert_matches_reference(&engine, &zones, &alive, &context)?;
        }
    }

    /// Liveness flips alone (only kills/revives, no moves) re-converge
    /// through an empty delta and `also_changed`, and still land on the
    /// reference — the degenerate delta of a mobility-free window.
    #[test]
    fn silent_windows_flush_through_an_empty_delta(
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
        engine.apply_zone_delta(&zones, &empty_delta(), &silent, &alive);
        assert_matches_reference(&engine, &zones, &alive, "silent flush")?;
    }

    /// The full rebuild against the reference directly: random fields,
    /// radii, k and liveness masks. Tables and stats must be
    /// bit-identical to [`reference_rebuild`] — and a
    /// rebuild over an engine converged on another world must scrub every
    /// trace of the stale state.
    #[test]
    fn sharded_full_rebuild_matches_the_root_oracle(
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
        let radio = RadioProfile::mica2();
        let mut alive = vec![true; n];
        for d in &dead {
            alive[*d as usize % n] = false;
        }

        let zones = ZoneTable::build(&topo, &radio, radius);
        let mut engine = rebuilt_engine(&zones, k, &alive)?;
        assert_matches_reference(&engine, &zones, &alive, "fresh rebuild")?;

        // Perturb the world, then rebuild from scratch over the now stale
        // engine: the rebuild must depend only on its inputs.
        let moved = NodeId::new(mover as u32 % n as u32);
        let field = topo.field();
        topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
        let new_zones = ZoneTable::build(&topo, &radio, radius);
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
        let radio = RadioProfile::mica2();
        let mut zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; n];
        let mut engine = rebuilt_engine(&zones, 2, &alive)?;

        for (step, &(node, fx, fy, recycle)) in steps.iter().enumerate() {
            let moved = NodeId::new(node as u32 % n as u32);
            let field = topo.field();
            topo.move_node(moved, Point::new(fx * field.width, fy * field.height));
            let new_zones = ZoneTable::build(&topo, &radio, 20.0);
            engine.update_topology(&zones, &new_zones, &[moved], &alive);
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
