//! Zone computation: the weighted graph the routing layer operates on.

use spms_phy::{PowerLevel, RadioProfile};

use crate::{LinkGate, NodeId, SpatialGrid, Topology};

/// One link from a node to a zone neighbor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZoneLink {
    /// The neighbor's id.
    pub neighbor: NodeId,
    /// Distance in metres.
    pub distance_m: f64,
    /// The cheapest power level that reaches the neighbor.
    pub level: PowerLevel,
    /// Link weight for shortest-path routing: the transmit power (mW) of
    /// `level`. The paper: "the weight w on an edge (i,j) denotes the
    /// minimum power at which i needs to transmit to reach j".
    pub weight: f64,
}

/// Per-node zone neighbor lists plus the per-level density counts the MAC
/// model needs.
///
/// A *zone* is "the region that the node can reach by transmitting at the
/// maximum power level" — here parameterized by the experiment's
/// transmission radius, which selects that maximum level from the radio's
/// table. The table is patched whenever nodes move or links flip.
///
/// # Example
///
/// ```
/// use spms_net::{placement, NodeId, ZoneTable};
/// use spms_phy::RadioProfile;
///
/// let topo = placement::grid(13, 13, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let center = NodeId::new(6 * 13 + 6);
/// // Grid neighbors 5 m away are reached at the cheapest level.
/// let cheapest = zones
///     .links(center)
///     .iter()
///     .filter(|l| l.level.index() == 4)
///     .count();
/// assert_eq!(cheapest, 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ZoneTable {
    zone_radius_m: f64,
    adv_level: PowerLevel,
    links: Vec<Vec<ZoneLink>>,
    /// `level_counts[node][level]` = number of nodes (including the node
    /// itself) within that level's range — the MAC contention `n`.
    level_counts: Vec<Vec<u32>>,
}

/// One changed node plus its zone neighbors *before* the change.
///
/// A node is *changed* when it moved or when one of its links flipped
/// under the [`LinkGate`]. The routing layer needs the pre-change
/// adjacency to retire state the new zone table can no longer justify: the
/// changed node and its old neighbors may still hold routes to each other,
/// and nothing in the new table names that stale pairing.
#[derive(Clone, Debug, PartialEq)]
pub struct MovedZone {
    /// The changed node.
    pub node: NodeId,
    /// Its zone neighbors before the change, in id order.
    pub old_neighbors: Vec<NodeId>,
}

/// A zone change as the routing layer sees it: which rows the change can
/// touch and the pre-change adjacency of each changed node.
///
/// [`ZoneTable::patch`] returns one for an in-place patch, and
/// [`ZoneDelta::between`] builds the same one from the tables before and
/// after the change; both name the rows by one rule. The default delta
/// names nothing: a change that leaves every zone row as it was, such as a
/// liveness flip.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ZoneDelta {
    /// One record per changed node, in the order they were reported.
    pub moves: Vec<MovedZone>,
    /// The changed nodes and every node linked to one of them before or
    /// after the change, in ascending id order. A row changes only when
    /// one of its links does, and a link changes only when an endpoint is
    /// a changed node, so no other row can differ. Every route to a
    /// destination runs through its zone neighbors, so these are also
    /// exactly the destinations the routing layer must re-converge.
    pub changed_nodes: Vec<NodeId>,
}

impl ZoneDelta {
    /// The delta of a change to the nodes in `changed`, given the whole
    /// table before (`old`) and after (`new`) it: the delta
    /// [`ZoneTable::patch`] returns for the same change. The all-pairs
    /// reference path, which rebuilds the table at every change, builds
    /// its delta here.
    ///
    /// # Panics
    ///
    /// Panics if the tables disagree on the node count.
    #[must_use]
    pub fn between(old: &ZoneTable, new: &ZoneTable, changed: &[NodeId]) -> Self {
        assert_eq!(old.len(), new.len(), "zone table length mismatch");
        let moves = changed.iter().map(|&c| old.moved_zone(c)).collect();
        expand(moves, new)
    }

    /// Number of zone rows the change can touch (out of `n` in the table).
    #[must_use]
    pub fn rows_patched(&self) -> usize {
        self.changed_nodes.len()
    }
}

/// Names the rows a change touches: each changed node of `moves` and every
/// node linked to one of them before (its recorded old neighbors) or after
/// (its row in `new`, which must already hold the changed rows' new state)
/// the change. The one rule behind [`ZoneTable::patch`] and
/// [`ZoneDelta::between`].
fn expand(moves: Vec<MovedZone>, new: &ZoneTable) -> ZoneDelta {
    let mut hit = vec![false; new.len()];
    for mv in &moves {
        hit[mv.node.index()] = true;
        for &a in &mv.old_neighbors {
            hit[a.index()] = true;
        }
        for link in new.links(mv.node) {
            hit[link.neighbor.index()] = true;
        }
    }
    let changed_nodes = (0..hit.len())
        .filter(|&i| hit[i])
        .map(|i| NodeId::new(i as u32))
        .collect();
    ZoneDelta {
        moves,
        changed_nodes,
    }
}

/// Recomputes `node`'s zone links and per-level density counts from a
/// candidate set, writing into `row`/`counts` (cleared first).
///
/// `candidates` must be a superset of every node within `zone_radius_m` of
/// `node`, sorted ascending — rows inherit that order, which the binary
/// search in [`ZoneTable::link_to`] relies on. Candidates outside the
/// radius are distance-filtered here, so a grid's whole-cell supersets are
/// fine. The arithmetic is identical to the all-pairs reference build, so
/// tables assembled from either path compare equal bit for bit.
///
/// `gate` is the scheduled-connectivity filter ([`LinkGate`]): a gated-down
/// neighbor vanishes from both the links row and the density counts — for
/// this node, it might as well be out of radio range. `None` means every
/// link is up (the classic geometry-only table).
#[allow(clippy::too_many_arguments)] // private kernel shared by every build and patch path
fn compute_row(
    topology: &Topology,
    radio: &RadioProfile,
    zone_radius_m: f64,
    gate: Option<&LinkGate>,
    node: NodeId,
    candidates: &[NodeId],
    row: &mut Vec<ZoneLink>,
    counts: &mut [u32],
) {
    row.clear();
    counts.fill(0);
    let pa = topology.position(node);
    for &b in candidates {
        if let Some(g) = gate {
            if !g.is_up(node, b) {
                continue;
            }
        }
        let d = pa.distance(topology.position(b));
        // The contention domain is capped at the zone radius: only zone
        // members participate in the protocol with this node, which is
        // also what makes the paper's n1 ≈ 45 at a 20 m radius. Neighbors
        // beyond the radio's absolute reach contribute nothing even inside
        // the configured radius.
        if d > zone_radius_m {
            continue;
        }
        let Some(level) = radio.level_for_distance(d) else {
            continue;
        };
        // A node within level ℓ's range is also within the range of every
        // stronger level. Counts include self at d = 0; links do not.
        for count in &mut counts[..=level.index()] {
            *count += 1;
        }
        if b != node {
            row.push(ZoneLink {
                neighbor: b,
                distance_m: d,
                level,
                weight: radio.power_mw(level),
            });
        }
    }
}

impl ZoneTable {
    /// Expected zone population for pre-sizing link rows: the field's mean
    /// density over a zone-radius disc, capped at the node count.
    fn row_capacity(topology: &Topology, zone_radius_m: f64) -> usize {
        let expected = std::f64::consts::PI * zone_radius_m * zone_radius_m * topology.density();
        (expected.ceil() as usize).min(topology.len())
    }

    /// Builds zone tables for every node by the all-pairs distance pass —
    /// O(n²), kept as the reference oracle the indexed and incremental
    /// paths are property-tested against.
    ///
    /// `zone_radius_m` is the experiment's transmission radius; the ADV
    /// broadcast level is the cheapest level covering it (saturating at the
    /// radio's maximum). Neighbors beyond the radio's absolute reach are
    /// excluded even if inside the configured radius.
    #[must_use]
    pub fn build(topology: &Topology, radio: &RadioProfile, zone_radius_m: f64) -> Self {
        Self::build_gated(topology, radio, zone_radius_m, None)
    }

    /// [`ZoneTable::build`] under a [`LinkGate`]: gated-down links are
    /// excluded from adjacency rows and density counts exactly as if the
    /// endpoints were out of range. `None` reproduces the ungated build bit
    /// for bit.
    #[must_use]
    pub fn build_gated(
        topology: &Topology,
        radio: &RadioProfile,
        zone_radius_m: f64,
        gate: Option<&LinkGate>,
    ) -> Self {
        let n = topology.len();
        let all: Vec<NodeId> = topology.nodes().collect();
        let cap = Self::row_capacity(topology, zone_radius_m);
        let mut links = Vec::with_capacity(n);
        let mut level_counts = vec![vec![0u32; radio.num_levels()]; n];
        for a in topology.nodes() {
            let mut row = Vec::with_capacity(cap);
            compute_row(
                topology,
                radio,
                zone_radius_m,
                gate,
                a,
                &all,
                &mut row,
                &mut level_counts[a.index()],
            );
            links.push(row);
        }
        ZoneTable {
            zone_radius_m,
            adv_level: radio.level_for_radius_saturating(zone_radius_m),
            links,
            level_counts,
        }
    }

    /// Builds the same table as [`ZoneTable::build`] — bit for bit — but
    /// sources each node's candidate neighbors from a [`SpatialGrid`]
    /// instead of scanning all `n` positions: O(n·k) for zone population
    /// `k` when the grid's cell size is the zone radius.
    ///
    /// # Panics
    ///
    /// Panics if the grid tracks a different node count than `topology`.
    ///
    /// # Example
    ///
    /// ```
    /// use spms_net::{placement, SpatialGrid, ZoneTable};
    /// use spms_phy::RadioProfile;
    ///
    /// let topo = placement::grid(13, 13, 5.0).unwrap();
    /// let radio = RadioProfile::mica2();
    /// let grid = SpatialGrid::build(&topo, 20.0);
    /// let indexed = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
    /// assert_eq!(indexed, ZoneTable::build(&topo, &radio, 20.0));
    /// ```
    #[must_use]
    pub fn build_indexed(
        topology: &Topology,
        radio: &RadioProfile,
        grid: &SpatialGrid,
        zone_radius_m: f64,
    ) -> Self {
        Self::build_indexed_gated(topology, radio, grid, zone_radius_m, None)
    }

    /// [`ZoneTable::build_indexed`] under a [`LinkGate`] — bit-identical to
    /// [`ZoneTable::build_gated`] with the same gate.
    ///
    /// # Panics
    ///
    /// Panics if the grid tracks a different node count than `topology`.
    #[must_use]
    pub fn build_indexed_gated(
        topology: &Topology,
        radio: &RadioProfile,
        grid: &SpatialGrid,
        zone_radius_m: f64,
        gate: Option<&LinkGate>,
    ) -> Self {
        assert_eq!(grid.len(), topology.len(), "grid/topology length mismatch");
        let n = topology.len();
        let cap = Self::row_capacity(topology, zone_radius_m);
        let mut links = Vec::with_capacity(n);
        let mut level_counts = vec![vec![0u32; radio.num_levels()]; n];
        let mut candidates = Vec::with_capacity(cap);
        for a in topology.nodes() {
            grid.candidates_within(topology.position(a), zone_radius_m, &mut candidates);
            let mut row = Vec::with_capacity(cap);
            compute_row(
                topology,
                radio,
                zone_radius_m,
                gate,
                a,
                &candidates,
                &mut row,
                &mut level_counts[a.index()],
            );
            links.push(row);
        }
        ZoneTable {
            zone_radius_m,
            adv_level: radio.level_for_radius_saturating(zone_radius_m),
            links,
            level_counts,
        }
    }

    /// Patches the table in place after the nodes in `moved` relocated:
    /// [`ZoneTable::patch`] with every link up.
    ///
    /// # Panics
    ///
    /// Panics if the table, topology, and grid disagree on the node count.
    pub fn apply_moves(
        &mut self,
        topology: &Topology,
        radio: &RadioProfile,
        grid: &SpatialGrid,
        moved: &[NodeId],
    ) -> ZoneDelta {
        self.patch(topology, radio, grid, None, moved)
    }

    /// Patches the table in place after a change to the nodes in
    /// `changed`, re-deriving **only** the rows the change can touch, and
    /// returns the [`ZoneDelta`] naming them, ready to feed the routing
    /// layer's incremental re-convergence.
    ///
    /// `changed` must name every node that moved and both endpoints of
    /// every link that flipped under `gate` since the table was last built
    /// or patched. `topology`, `grid` and `gate` must already reflect the
    /// **new** state (see [`MobilityProcess::apply_indexed`]); this table
    /// still holds the old one. The patch records the changed nodes' rows,
    /// re-derives them, then re-derives once the row of every node linked
    /// to a changed node before or after the change. Everything else is
    /// untouched — a single-node move costs O(k²) row work instead of the
    /// O(n²) full build — and the result is bit-identical to a
    /// from-scratch [`ZoneTable::build_gated`] of the new state
    /// (property-tested).
    ///
    /// [`MobilityProcess::apply_indexed`]: crate::MobilityProcess::apply_indexed
    ///
    /// # Panics
    ///
    /// Panics if the table, topology, and grid disagree on the node count.
    pub fn patch(
        &mut self,
        topology: &Topology,
        radio: &RadioProfile,
        grid: &SpatialGrid,
        gate: Option<&LinkGate>,
        changed: &[NodeId],
    ) -> ZoneDelta {
        let n = self.links.len();
        assert_eq!(topology.len(), n, "table/topology length mismatch");
        assert_eq!(grid.len(), n, "table/grid length mismatch");
        let moves = changed.iter().map(|&c| self.moved_zone(c)).collect();
        let mut fresh = vec![false; n];
        let mut candidates = Vec::new();
        for &c in changed {
            self.derive_row(topology, radio, grid, gate, c, &mut candidates);
            fresh[c.index()] = true;
        }
        let delta = expand(moves, self);
        for &a in &delta.changed_nodes {
            if !fresh[a.index()] {
                self.derive_row(topology, radio, grid, gate, a, &mut candidates);
            }
        }
        delta
    }

    /// `node`'s record before a change: its current zone neighbors.
    fn moved_zone(&self, node: NodeId) -> MovedZone {
        MovedZone {
            node,
            old_neighbors: self.links[node.index()]
                .iter()
                .map(|l| l.neighbor)
                .collect(),
        }
    }

    /// Re-derives `node`'s row and density counts from the grid, exactly as
    /// [`ZoneTable::build_indexed_gated`] does.
    fn derive_row(
        &mut self,
        topology: &Topology,
        radio: &RadioProfile,
        grid: &SpatialGrid,
        gate: Option<&LinkGate>,
        node: NodeId,
        candidates: &mut Vec<NodeId>,
    ) {
        let i = node.index();
        grid.candidates_within(topology.position(node), self.zone_radius_m, candidates);
        compute_row(
            topology,
            radio,
            self.zone_radius_m,
            gate,
            node,
            candidates,
            &mut self.links[i],
            &mut self.level_counts[i],
        );
    }

    /// The configured zone (transmission) radius in metres.
    #[must_use]
    pub fn zone_radius_m(&self) -> f64 {
        self.zone_radius_m
    }

    /// The power level used for zone-wide (ADV) broadcasts.
    #[must_use]
    pub fn adv_level(&self) -> PowerLevel {
        self.adv_level
    }

    /// Number of nodes in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` when the table is empty (never, for a valid topology).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The zone links of `node` (its zone neighbors), in id order.
    #[must_use]
    pub fn links(&self, node: NodeId) -> &[ZoneLink] {
        &self.links[node.index()]
    }

    /// Looks up the link from `node` to `neighbor`, if the latter is a zone
    /// neighbor. Links are stored in neighbor-id order, so this is a binary
    /// search.
    #[must_use]
    pub fn link_to(&self, node: NodeId, neighbor: NodeId) -> Option<&ZoneLink> {
        let row = &self.links[node.index()];
        row.binary_search_by(|l| l.neighbor.cmp(&neighbor))
            .ok()
            .map(|i| &row[i])
    }

    /// `true` if `b` is in `a`'s zone. Symmetric for a shared radio profile.
    #[must_use]
    pub fn in_zone(&self, a: NodeId, b: NodeId) -> bool {
        self.link_to(a, b).is_some()
    }

    /// Zone size of `node` **including itself** — the paper's `n1` when the
    /// radius is the zone radius.
    #[must_use]
    pub fn zone_size(&self, node: NodeId) -> usize {
        self.links[node.index()].len() + 1
    }

    /// Number of nodes (including self) within `level`'s range of `node` —
    /// the `n` in the MAC contention term `G·n²`.
    #[must_use]
    pub fn density_at_level(&self, node: NodeId, level: PowerLevel) -> u32 {
        self.level_counts[node.index()][level.index()]
    }

    /// Mean zone size across nodes (including self) — reported by
    /// experiments for context.
    #[must_use]
    pub fn mean_zone_size(&self) -> f64 {
        let total: usize = (0..self.links.len()).map(|i| self.links[i].len() + 1).sum();
        total as f64 / self.links.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;

    fn zones_13x13() -> (Topology, ZoneTable) {
        let topo = placement::grid(13, 13, 5.0).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
        (topo, zones)
    }

    #[test]
    fn adv_level_matches_radius() {
        let (_, zones) = zones_13x13();
        // 20 m radius needs level index 2 (22.86 m).
        assert_eq!(zones.adv_level().index(), 2);
        assert_eq!(zones.zone_radius_m(), 20.0);
    }

    #[test]
    fn links_are_sorted_and_binary_lookup_agrees_with_scan() {
        let (topo, zones) = zones_13x13();
        for a in topo.nodes() {
            let row = zones.links(a);
            assert!(
                row.windows(2).all(|w| w[0].neighbor < w[1].neighbor),
                "{a}: links must stay in neighbor-id order for binary search"
            );
            for b in topo.nodes() {
                let scanned = row.iter().find(|l| l.neighbor == b);
                assert_eq!(
                    zones.link_to(a, b).map(|l| l.neighbor),
                    scanned.map(|l| l.neighbor)
                );
            }
        }
    }

    #[test]
    fn zone_membership_is_symmetric() {
        let (topo, zones) = zones_13x13();
        for a in topo.nodes() {
            for l in zones.links(a) {
                assert!(
                    zones.in_zone(l.neighbor, a),
                    "{a}↔{} asymmetric",
                    l.neighbor
                );
            }
        }
    }

    #[test]
    fn links_exclude_self_and_far_nodes() {
        let (topo, zones) = zones_13x13();
        let corner = NodeId::new(0);
        for l in zones.links(corner) {
            assert_ne!(l.neighbor, corner);
            assert!(l.distance_m <= 20.0);
            assert!(topo.distance(corner, l.neighbor) <= 20.0);
        }
    }

    #[test]
    fn center_densities_match_paper_analysis() {
        let (_, zones) = zones_13x13();
        let center = NodeId::new(6 * 13 + 6);
        let radio = RadioProfile::mica2();
        // ns (lowest level, 5.48 m): self + 4 orthogonal neighbors.
        assert_eq!(zones.density_at_level(center, radio.min_power_level()), 5);
        // n at the ADV level (22.86 m) ≈ the paper's n1 = 45.
        let n1 = zones.density_at_level(center, radio.level(2).unwrap());
        assert!((41..=57).contains(&n1), "n1 = {n1}");
        // Stronger levels see at least as many nodes.
        let counts: Vec<u32> = radio
            .levels()
            .map(|l| zones.density_at_level(center, l))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
    }

    #[test]
    fn weights_are_min_power_to_reach() {
        let (_, zones) = zones_13x13();
        let center = NodeId::new(6 * 13 + 6);
        let radio = RadioProfile::mica2();
        for l in zones.links(center) {
            assert_eq!(l.weight, radio.power_mw(l.level));
            assert!(radio.range_m(l.level) >= l.distance_m);
            // The next level down (if any) must NOT reach.
            if let Some(cheaper) = radio.level(l.level.index() + 1) {
                assert!(radio.range_m(cheaper) < l.distance_m);
            }
        }
    }

    #[test]
    fn zone_size_includes_self() {
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
        assert_eq!(zones.zone_size(NodeId::new(0)), 2);
        assert_eq!(zones.links(NodeId::new(0)).len(), 1);
        assert!(zones.mean_zone_size() > 1.9);
    }

    #[test]
    fn indexed_build_is_bit_identical_to_reference() {
        for radius in [5.0, 12.5, 20.0, 150.0] {
            let topo = placement::grid(7, 5, 5.0).unwrap();
            let radio = RadioProfile::mica2();
            let grid = SpatialGrid::build(&topo, radius);
            assert_eq!(
                ZoneTable::build_indexed(&topo, &radio, &grid, radius),
                ZoneTable::build(&topo, &radio, radius),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn apply_moves_patches_to_the_full_rebuild() {
        let mut topo = placement::grid(7, 7, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::build(&topo, 20.0);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
        // A two-cell hop by the center node.
        let moved = NodeId::new(24);
        topo.move_node(moved, crate::Point::new(2.5, 2.5));
        grid.move_node(moved, topo.position(moved));
        let delta = zones.apply_moves(&topo, &radio, &grid, &[moved]);
        assert_eq!(zones, ZoneTable::build(&topo, &radio, 20.0));
        // The delta names the moved node, is sorted, and is a strict
        // subset of the field.
        assert!(delta.changed_nodes.contains(&moved));
        assert!(delta.changed_nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(delta.rows_patched() < topo.len());
        assert_eq!(delta.moves.len(), 1);
        assert_eq!(delta.moves[0].node, moved);
        assert!(!delta.moves[0].old_neighbors.is_empty());
    }

    #[test]
    fn indexed_build_over_adaptive_grids_matches_at_the_crossover_sizes() {
        // The sizes around the old n ≈ 400 crossover where the fixed-cell
        // grid lost to the all-pairs build: the adaptive grid must stay
        // bit-identical to the reference whichever sizing it picks.
        let radio = RadioProfile::mica2();
        for side in [13usize, 15, 20, 25] {
            let topo = placement::grid(side, side, 5.0).unwrap();
            let grid = SpatialGrid::for_radius(&topo, 20.0);
            assert_eq!(
                ZoneTable::build_indexed(&topo, &radio, &grid, 20.0),
                ZoneTable::build(&topo, &radio, 20.0),
                "n = {}",
                side * side
            );
        }
    }

    #[test]
    fn apply_moves_tracks_the_reference_across_an_adaptive_grid() {
        // Patching over the degenerate single-cell grid (small field) must
        // be as bit-identical as over a pruning grid.
        let mut topo = placement::grid(9, 9, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::for_radius(&topo, 20.0);
        assert_eq!(grid.dims(), (1, 1), "small field collapses");
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
        let moved = NodeId::new(40);
        topo.move_node(moved, crate::Point::new(1.0, 38.0));
        grid.move_node(moved, topo.position(moved));
        zones.apply_moves(&topo, &radio, &grid, &[moved]);
        assert_eq!(zones, ZoneTable::build(&topo, &radio, 20.0));
    }

    #[test]
    fn apply_moves_with_no_moves_changes_nothing() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let grid = SpatialGrid::build(&topo, 20.0);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
        let before = zones.clone();
        let delta = zones.apply_moves(&topo, &radio, &grid, &[]);
        assert_eq!(zones, before);
        assert_eq!(delta.rows_patched(), 0);
        assert!(delta.moves.is_empty());
    }

    #[test]
    fn gated_builds_drop_links_and_densities_consistently() {
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let grid = SpatialGrid::for_radius(&topo, 20.0);
        let mut gate = crate::LinkGate::all_up();
        let (a, b) = (NodeId::new(12), NodeId::new(13));
        gate.set(a, b, false);
        let gated = ZoneTable::build_gated(&topo, &radio, 20.0, Some(&gate));
        let open = ZoneTable::build(&topo, &radio, 20.0);
        assert!(open.in_zone(a, b));
        assert!(!gated.in_zone(a, b), "gated-down link vanishes");
        assert!(!gated.in_zone(b, a), "symmetrically");
        // Densities shrink by exactly the gated neighbor, both sides.
        for &(x, y) in &[(a, b), (b, a)] {
            let lvl = open.link_to(x, y).unwrap().level;
            assert_eq!(
                gated.density_at_level(x, lvl) + 1,
                open.density_at_level(x, lvl)
            );
        }
        // All build paths agree under the same gate.
        assert_eq!(
            ZoneTable::build_indexed_gated(&topo, &radio, &grid, 20.0, Some(&gate)),
            gated
        );
        // A `None` gate and an all-up gate are both the classic table.
        assert_eq!(
            ZoneTable::build_gated(&topo, &radio, 20.0, Some(&crate::LinkGate::all_up())),
            open
        );
    }

    #[test]
    fn link_flips_patch_to_the_gated_rebuild() {
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let grid = SpatialGrid::for_radius(&topo, 20.0);
        let mut gate = crate::LinkGate::all_up();
        let mut zones = ZoneTable::build_indexed_gated(&topo, &radio, &grid, 20.0, Some(&gate));
        let (a, b) = (NodeId::new(6), NodeId::new(7));
        let old_a: Vec<NodeId> = zones.links(a).iter().map(|l| l.neighbor).collect();

        // Down-flip: patched table equals a gated rebuild; the delta names
        // the endpoints, their old and new neighborhoods, and carries the
        // pre-flip rows as move records.
        gate.set(a, b, false);
        let before = zones.clone();
        let delta = zones.patch(&topo, &radio, &grid, Some(&gate), &[a, b]);
        assert_eq!(
            zones,
            ZoneTable::build_gated(&topo, &radio, 20.0, Some(&gate))
        );
        assert_eq!(delta, ZoneDelta::between(&before, &zones, &[a, b]));
        assert!(delta.changed_nodes.contains(&a));
        assert!(delta.changed_nodes.contains(&b));
        assert!(delta.changed_nodes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(delta.moves.len(), 2);
        assert_eq!(delta.moves[0].node, a);
        assert_eq!(delta.moves[0].old_neighbors, old_a, "pre-flip row");
        assert!(delta.moves[1].old_neighbors.contains(&a));

        // Up-flip restores the ungated table exactly.
        gate.set(a, b, true);
        zones.patch(&topo, &radio, &grid, Some(&gate), &[a, b]);
        assert_eq!(zones, ZoneTable::build(&topo, &radio, 20.0));
    }

    #[test]
    fn gated_moves_track_the_gated_rebuild() {
        // Mobility on a gated table: the patched result must equal the
        // gated reference rebuild of the new topology, and the gated-down
        // neighbor must not leak into `changed_nodes`.
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let mut grid = SpatialGrid::for_radius(&topo, 20.0);
        let mut gate = crate::LinkGate::all_up();
        let mover = NodeId::new(12);
        let partner = NodeId::new(13);
        gate.set(mover, partner, false);
        let mut zones = ZoneTable::build_indexed_gated(&topo, &radio, &grid, 20.0, Some(&gate));
        topo.move_node(mover, crate::Point::new(16.0, 11.0));
        grid.move_node(mover, topo.position(mover));
        let delta = zones.patch(&topo, &radio, &grid, Some(&gate), &[mover]);
        assert_eq!(
            zones,
            ZoneTable::build_gated(&topo, &radio, 20.0, Some(&gate))
        );
        assert!(
            !delta.changed_nodes.contains(&partner),
            "gated-down neighbor's row cannot have changed"
        );
    }

    #[test]
    fn radius_beyond_radio_reach_drops_links() {
        // Two nodes 100 m apart: inside a 150 m configured radius but beyond
        // the radio's 91.44 m maximum: no link.
        let topo = Topology::new(
            vec![crate::Point::new(0.0, 0.0), crate::Point::new(100.0, 0.0)],
            crate::Field::new(100.0, 10.0).unwrap(),
        )
        .unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 150.0);
        assert!(zones.links(NodeId::new(0)).is_empty());
        assert_eq!(zones.adv_level().index(), 0);
    }
}
