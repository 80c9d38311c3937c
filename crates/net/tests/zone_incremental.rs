//! Property-based equivalence of incremental zone maintenance against the
//! all-pairs reference build.
//!
//! Four claims, each asserted with `ZoneTable`'s derived `PartialEq` so
//! the match is **bit-identical** (same rows, same order, same link
//! weights, same density counts — even the floating-point distances):
//!
//! 1. `ZoneTable::build_indexed` (spatial-grid candidates) equals
//!    `ZoneTable::build` (all-pairs scan) on any topology and radius.
//! 2. `ZoneTable::apply_moves` patched across an arbitrary sequence of
//!    mobility epochs equals a from-scratch build of the final topology —
//!    after *every* epoch, not just the last.
//! 3. The `ZoneDelta` a patch returns names every row that differs from
//!    the pre-move table (nothing outside `changed_nodes` changed).
//! 4. `ZoneTable::patch` across epochs of moves *and* link flips under a
//!    gate, with zone radii on both sides of the radio's reach, equals the
//!    gated reference build, and its delta equals `ZoneDelta::between`
//!    the tables before and after the epoch.
//!
//! The move generator deliberately produces repeated moves of the same
//! node, moves across grid-cell boundaries, and moves that empty or fill
//! cells (destinations are uniform over the field, so small fields hit all
//! three constantly); targeted deterministic tests below pin each case.

use proptest::prelude::*;
use spms_net::{
    placement, LinkGate, MobilityEpoch, MobilityProcess, NodeId, Point, SpatialGrid, ZoneDelta,
    ZoneTable,
};
use spms_phy::RadioProfile;

/// Applies one epoch of `moves` to topology + grid and patches `zones`,
/// returning the delta's changed set for inspection.
fn apply_epoch(
    topo: &mut spms_net::Topology,
    grid: &mut SpatialGrid,
    zones: &mut ZoneTable,
    radio: &RadioProfile,
    moves: &[(NodeId, Point)],
) -> Vec<NodeId> {
    let epoch = MobilityEpoch {
        at: spms_kernel::SimTime::ZERO,
        moves: moves.to_vec(),
    };
    MobilityProcess::apply_indexed(&epoch, topo, grid);
    let moved: Vec<NodeId> = moves.iter().map(|&(n, _)| n).collect();
    zones.apply_moves(topo, radio, grid, &moved).changed_nodes
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    #![proptest_config(ProptestConfig {
        cases: 32,
        rng_seed: 0x0000_D8F1_2005,
        ..ProptestConfig::default()
    })]

    /// The grid-indexed build is the all-pairs build, bit for bit, across
    /// field shapes and radii (including radii beyond the radio's reach
    /// and cells larger than the field).
    #[test]
    fn indexed_build_matches_reference(
        cols in 2usize..9,
        rows in 2usize..6,
        spacing in 3.0f64..9.0,
        radius in 6.0f64..120.0,
    ) {
        let topo = placement::grid(cols, rows, spacing).unwrap();
        let radio = RadioProfile::mica2();
        let grid = SpatialGrid::build(&topo, radius);
        prop_assert_eq!(
            ZoneTable::build_indexed(&topo, &radio, &grid, radius),
            ZoneTable::build(&topo, &radio, radius)
        );
    }

    /// Arbitrary mobility-epoch sequences (1–3 moves each, uniform
    /// destinations, repeats allowed): after every epoch the patched table
    /// equals a from-scratch reference build, and rows outside the
    /// reported `changed_nodes` are untouched from the previous state.
    #[test]
    fn epoch_sequences_patch_to_the_reference(
        cols in 2usize..8,
        rows in 2usize..5,
        radius in 8.0f64..26.0,
        raw_epochs in prop::collection::vec(
            prop::collection::vec((0u16..64, 0.0f64..1.0, 0.0f64..1.0), 1..4),
            1..8,
        ),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len();
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::build(&topo, radius);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, radius);
        let field = topo.field();

        for (step, raw) in raw_epochs.iter().enumerate() {
            // Distinct nodes in id order, as MobilityProcess guarantees.
            let mut moves: Vec<(NodeId, Point)> = raw
                .iter()
                .map(|&(node, fx, fy)| {
                    (
                        NodeId::new(node as u32 % n as u32),
                        Point::new(fx * field.width, fy * field.height),
                    )
                })
                .collect();
            moves.sort_by_key(|&(node, _)| node);
            moves.dedup_by_key(|&mut (node, _)| node);

            let before = zones.clone();
            let changed = apply_epoch(&mut topo, &mut grid, &mut zones, &radio, &moves);
            prop_assert_eq!(
                &zones,
                &ZoneTable::build(&topo, &radio, radius),
                "step {}: patched table diverged from the reference build",
                step
            );
            // The delta is sound: every row outside it is untouched.
            for i in 0..n {
                let node = NodeId::new(i as u32);
                if !changed.contains(&node) {
                    prop_assert_eq!(
                        zones.links(node),
                        before.links(node),
                        "step {}: unreported row {} changed",
                        step,
                        node
                    );
                }
            }
        }
    }

    /// Random epochs of moves and link flips (1–3 events each) under a
    /// gate, on MICA2 or on a radio that reaches only 12 m, with zone radii
    /// on both sides of the radio's reach: after every epoch the patched
    /// table equals a from-scratch gated build, and the patch's delta
    /// equals `ZoneDelta::between` the tables before and after it — the
    /// delta the all-pairs reference path builds.
    #[test]
    fn move_and_flip_epochs_patch_to_the_gated_reference(
        cols in 2usize..8,
        rows in 2usize..5,
        radius in 6.0f64..30.0,
        short_reach in any::<bool>(),
        raw_epochs in prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), 0u16..64, 0u16..64, 0.0f64..1.0, 0.0f64..1.0),
                1..4,
            ),
            1..8,
        ),
    ) {
        let mut topo = placement::grid(cols, rows, 5.0).unwrap();
        let n = topo.len() as u32;
        let radio = if short_reach {
            RadioProfile::new(vec![1.0, 0.5], vec![12.0, 6.0]).unwrap()
        } else {
            RadioProfile::mica2()
        };
        let mut grid = SpatialGrid::for_radius(&topo, radius);
        let mut gate = LinkGate::all_up();
        let mut zones = ZoneTable::build_indexed_gated(&topo, &radio, &grid, radius, Some(&gate));
        let field = topo.field();

        for (step, raw) in raw_epochs.iter().enumerate() {
            // A flip names both endpoints, a move its node, as the engine
            // reports them.
            let mut changed = Vec::new();
            for &(flip, a, b, fx, fy) in raw {
                let a = NodeId::new(u32::from(a) % n);
                if flip {
                    let b = NodeId::new(u32::from(b) % n);
                    if a != b {
                        gate.set(a, b, !gate.is_up(a, b));
                        changed.extend([a, b]);
                    }
                } else {
                    topo.move_node(a, Point::new(fx * field.width, fy * field.height));
                    grid.move_node(a, topo.position(a));
                    changed.push(a);
                }
            }
            changed.sort_unstable();
            changed.dedup();

            let before = zones.clone();
            let delta = zones.patch(&topo, &radio, &grid, Some(&gate), &changed);
            prop_assert_eq!(
                &zones,
                &ZoneTable::build_gated(&topo, &radio, radius, Some(&gate)),
                "step {}: patched table diverged from the gated reference build",
                step
            );
            prop_assert_eq!(
                &delta,
                &ZoneDelta::between(&before, &zones, &changed),
                "step {}: patch and reference deltas differ",
                step
            );
        }
    }

    /// The same node moved over and over (the paper's ping-ponging mobile
    /// mote) never accumulates drift: each patch still lands exactly on
    /// the reference build.
    #[test]
    fn repeated_moves_of_one_node_stay_exact(
        node in 0u16..25,
        hops in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..10),
    ) {
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::build(&topo, 10.0);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 10.0);
        let field = topo.field();
        let m = NodeId::new(u32::from(node) % 25);
        for &(fx, fy) in &hops {
            let dest = Point::new(fx * field.width, fy * field.height);
            apply_epoch(&mut topo, &mut grid, &mut zones, &radio, &[(m, dest)]);
            prop_assert_eq!(&zones, &ZoneTable::build(&topo, &radio, 10.0));
        }
    }
}

#[test]
fn cross_cell_ping_pong_empties_and_refills_cells() {
    // 2×1 line, 4 m cells: node 1 starts alone in cell (1,0). Bouncing it
    // between the two cells empties and refills its bucket every hop, and
    // each hop crosses a grid-cell boundary.
    let mut topo = placement::grid(2, 1, 5.0).unwrap();
    let radio = RadioProfile::mica2();
    let mut grid = SpatialGrid::build(&topo, 4.0);
    let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 4.0);
    let near = Point::new(0.5, 0.0);
    let far = Point::new(5.0, 0.0);
    for hop in 0..6 {
        let dest = if hop % 2 == 0 { near } else { far };
        let epoch = MobilityEpoch {
            at: spms_kernel::SimTime::ZERO,
            moves: vec![(NodeId::new(1), dest)],
        };
        MobilityProcess::apply_indexed(&epoch, &mut topo, &mut grid);
        let delta = zones.apply_moves(&topo, &radio, &grid, &[NodeId::new(1)]);
        assert_eq!(zones, ZoneTable::build(&topo, &radio, 4.0), "hop {hop}");
        // Both nodes' rows flip between linked and unlinked states.
        assert!(delta.changed_nodes.contains(&NodeId::new(1)));
        assert_eq!(zones.in_zone(NodeId::new(0), NodeId::new(1)), hop % 2 == 0);
    }
}

#[test]
fn move_within_one_cell_patches_only_the_neighborhood() {
    // 13×13 grid, 20 m cells: nudging a corner node inside its own cell
    // must rebuild only rows near the corner, not the opposite side.
    let mut topo = placement::grid(13, 13, 5.0).unwrap();
    let radio = RadioProfile::mica2();
    let mut grid = SpatialGrid::build(&topo, 20.0);
    let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
    let epoch = MobilityEpoch {
        at: spms_kernel::SimTime::ZERO,
        moves: vec![(NodeId::new(0), Point::new(2.0, 1.0))],
    };
    MobilityProcess::apply_indexed(&epoch, &mut topo, &mut grid);
    let delta = zones.apply_moves(&topo, &radio, &grid, &[NodeId::new(0)]);
    assert_eq!(zones, ZoneTable::build(&topo, &radio, 20.0));
    assert!(
        delta.rows_patched() < topo.len() / 2,
        "corner nudge rebuilt {} of {} rows",
        delta.rows_patched(),
        topo.len()
    );
    assert!(!delta.changed_nodes.contains(&NodeId::new(168)));
}
