//! Uniform spatial-hash grid over the sensor field.
//!
//! Zone maintenance needs one query, many times: "which nodes sit within
//! one zone radius of this point?". Scanning all `n` positions makes every
//! zone rebuild O(n²); bucketing nodes into square cells whose side is the
//! zone radius bounds the search to the 3×3 cell neighborhood of the query
//! point, so the same rebuild touches only the O(k) actual candidates.
//!
//! Cell sizing is radius-adaptive: [`SpatialGrid::for_radius`] uses cells
//! of the query radius only when the field is wide enough for the 3×3
//! query window to actually prune, and otherwise collapses to a single
//! cell so queries degenerate to the (sort-free) all-pairs scan — the
//! small-field regime where a non-pruning grid used to cost more than it
//! saved. [`SpatialGrid::build`] keeps the explicit cell size for callers
//! that want one.
//!
//! The grid is a plain acceleration structure: it holds node ids bucketed
//! by position and nothing else. [`ZoneTable::build_indexed`] and
//! [`ZoneTable::patch`] consume it; the simulation engine keeps it in
//! sync with mobility by calling [`SpatialGrid::move_node`] for every
//! relocation (see [`MobilityProcess::apply_indexed`]).
//!
//! Determinism: cell buckets are kept sorted by node id and candidate
//! queries return ids in ascending order, so everything built from a grid
//! query is independent of insertion history.
//!
//! [`ZoneTable::build_indexed`]: crate::ZoneTable::build_indexed
//! [`ZoneTable::patch`]: crate::ZoneTable::patch
//! [`MobilityProcess::apply_indexed`]: crate::MobilityProcess::apply_indexed
//!
//! # Example
//!
//! ```
//! use spms_net::{placement, NodeId, SpatialGrid};
//!
//! let topo = placement::grid(13, 13, 5.0).unwrap();
//! let grid = SpatialGrid::build(&topo, 20.0);
//! let mut near = Vec::new();
//! let corner = NodeId::new(0);
//! grid.candidates_within(topo.position(corner), 20.0, &mut near);
//! // Superset of the true 20 m neighborhood, a fraction of the field.
//! assert!(near.len() < topo.len());
//! assert!(near.contains(&corner));
//! ```

use crate::{NodeId, Point, Topology};

/// A uniform grid of square cells bucketing node ids by position.
#[derive(Clone, Debug, PartialEq)]
pub struct SpatialGrid {
    cell_m: f64,
    cols: usize,
    rows: usize,
    /// `cells[cy * cols + cx]` = ids in that cell, ascending.
    cells: Vec<Vec<NodeId>>,
    /// Linear cell index currently holding each node.
    cell_of: Vec<u32>,
}

/// Minimum cells per axis for the grid to actually prune: a radius query
/// spans up to 3 cells per axis, so below 5 the query window covers most
/// of the field and the grid only adds bucket-gather and sort overhead on
/// top of the same distance checks — the small-n regime where the indexed
/// zone build used to lose to the all-pairs scan.
const MIN_PRUNING_CELLS: usize = 5;

impl SpatialGrid {
    /// Builds a grid over `topology`'s field with square cells of side
    /// `cell_m` (use the zone radius, so a radius query never needs more
    /// than the 3×3 neighborhood).
    ///
    /// # Panics
    ///
    /// Panics unless `cell_m` is positive and finite (the engine validates
    /// the zone radius before building a grid).
    #[must_use]
    pub fn build(topology: &Topology, cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "bad spatial grid cell size {cell_m}"
        );
        let field = topology.field();
        let cols = ((field.width / cell_m).ceil() as usize).max(1);
        let rows = ((field.height / cell_m).ceil() as usize).max(1);
        let mut grid = SpatialGrid {
            cell_m,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            cell_of: vec![0; topology.len()],
        };
        // Nodes iterate in id order, so pushes keep every bucket sorted.
        for node in topology.nodes() {
            let cell = grid.cell_index(topology.position(node));
            grid.cell_of[node.index()] = cell as u32;
            grid.cells[cell].push(node);
        }
        grid
    }

    /// Builds the grid that serves `radius_m` queries best: cells of the
    /// query radius when **either** axis is long enough for the 3-cell
    /// query window to prune, otherwise one cell spanning the whole field.
    /// An elongated field (say a pipeline 10 cells long and 1 tall) keeps
    /// its radius cells — pruning along the long axis is exactly what a
    /// line deployment needs — while a compact small field collapses.
    ///
    /// The degenerate single-cell grid is deliberate, not a failure mode:
    /// on a small field every radius query window covers most of the cells
    /// anyway, so the grid gathers ~all `n` ids *and* pays a sort to
    /// restore id order — measurably slower than the all-pairs scan below
    /// n ≈ 400 (see ROADMAP). With one cell, [`SpatialGrid::candidates_within`]
    /// returns the single already-sorted bucket without sorting, which is
    /// exactly the all-pairs candidate enumeration; the indexed zone build
    /// then matches the reference build's cost instead of losing to it,
    /// while large fields keep the O(n·k) pruning.
    ///
    /// # Panics
    ///
    /// Panics unless `radius_m` is positive and finite.
    #[must_use]
    pub fn for_radius(topology: &Topology, radius_m: f64) -> Self {
        assert!(
            radius_m.is_finite() && radius_m > 0.0,
            "bad spatial grid query radius {radius_m}"
        );
        let field = topology.field();
        let cols = ((field.width / radius_m).ceil() as usize).max(1);
        let rows = ((field.height / radius_m).ceil() as usize).max(1);
        let cell_m = if cols < MIN_PRUNING_CELLS && rows < MIN_PRUNING_CELLS {
            field.width.max(field.height).max(radius_m)
        } else {
            radius_m
        };
        Self::build(topology, cell_m)
    }

    /// The cell side length in metres.
    #[must_use]
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Grid dimensions as `(cols, rows)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Number of nodes tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cell_of.len()
    }

    /// `false` — grids are built from topologies, which are never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cell_of.is_empty()
    }

    /// Column index of an x coordinate, clamped into the grid: the `as`
    /// cast saturates negatives to 0 (radius queries probe past the edges)
    /// and the `min` catches the rightmost edge, where `width / cell_m`
    /// lands exactly on `cols`.
    fn col(&self, x: f64) -> usize {
        ((x / self.cell_m) as usize).min(self.cols - 1)
    }

    /// Row index of a y coordinate, clamped into the grid.
    fn row(&self, y: f64) -> usize {
        ((y / self.cell_m) as usize).min(self.rows - 1)
    }

    /// Linear cell index holding point `p`.
    fn cell_index(&self, p: Point) -> usize {
        self.row(p.y) * self.cols + self.col(p.x)
    }

    /// Re-buckets `node` after it moved to `to`. O(cell population) for the
    /// sorted remove/insert; a move within one cell is free.
    ///
    /// # Panics
    ///
    /// Panics if the buckets disagree with the per-node cell record — that
    /// would mean the grid drifted out of sync with the topology, which
    /// must surface immediately rather than corrupt candidate queries.
    pub fn move_node(&mut self, node: NodeId, to: Point) {
        let new_cell = self.cell_index(to);
        let old_cell = self.cell_of[node.index()] as usize;
        if new_cell == old_cell {
            return;
        }
        // Both searches assert the buckets and `cell_of` agree: a desync
        // must fail loudly here, not silently corrupt candidate queries.
        let bucket = &mut self.cells[old_cell];
        let at = bucket
            .binary_search(&node)
            .expect("node missing from its recorded grid cell");
        bucket.remove(at);
        let bucket = &mut self.cells[new_cell];
        let at = bucket
            .binary_search(&node)
            .expect_err("node already present in its destination grid cell");
        bucket.insert(at, node);
        self.cell_of[node.index()] = new_cell as u32;
    }

    /// Collects into `out` every node bucketed within `radius` of `center`
    /// — a **superset** of the true Euclidean neighborhood (whole cells are
    /// taken; callers still distance-filter). Ids come back ascending and
    /// distinct. `out` is cleared first so hot loops can reuse one buffer.
    pub fn candidates_within(&self, center: Point, radius: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let c0 = self.col(center.x - radius);
        let c1 = self.col(center.x + radius);
        let r0 = self.row(center.y - radius);
        let r1 = self.row(center.y + radius);
        for cy in r0..=r1 {
            for cx in c0..=c1 {
                out.extend_from_slice(&self.cells[cy * self.cols + cx]);
            }
        }
        if r0 == r1 && c0 == c1 {
            return; // a single bucket is already id-sorted
        }
        // Buckets are id-sorted but concatenation is not; one unstable sort
        // over the O(k) candidates restores the global order determinism
        // (and the zone tables' sorted-row invariant) relies on.
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;

    fn grid_13() -> (Topology, SpatialGrid) {
        let topo = placement::grid(13, 13, 5.0).unwrap();
        let grid = SpatialGrid::build(&topo, 20.0);
        (topo, grid)
    }

    #[test]
    fn build_buckets_every_node_once() {
        let (topo, grid) = grid_13();
        let total: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(total, topo.len());
        assert_eq!(grid.len(), topo.len());
        assert!(!grid.is_empty());
        // 60 m field at 20 m cells → 3×3 cells.
        assert_eq!(grid.dims(), (3, 3));
        assert_eq!(grid.cell_m(), 20.0);
    }

    #[test]
    fn candidates_cover_the_true_neighborhood() {
        let (topo, grid) = grid_13();
        let mut cand = Vec::new();
        for node in topo.nodes() {
            let center = topo.position(node);
            grid.candidates_within(center, 20.0, &mut cand);
            for want in topo.nodes_within(center, 20.0) {
                assert!(cand.contains(&want), "{node}: missing {want}");
            }
            assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        }
    }

    #[test]
    fn candidates_prune_far_cells() {
        let (topo, grid) = grid_13();
        let mut cand = Vec::new();
        // A corner query must not see the opposite corner's cell.
        grid.candidates_within(topo.position(NodeId::new(0)), 20.0, &mut cand);
        assert!(!cand.contains(&NodeId::new(168)));
        assert!(cand.len() < topo.len());
    }

    #[test]
    fn move_node_rebuckets_and_requeries() {
        let (mut topo, mut grid) = grid_13();
        let node = NodeId::new(0);
        let dest = Point::new(60.0, 60.0); // opposite corner, clamped edge
        topo.move_node(node, dest);
        grid.move_node(node, topo.position(node));
        let mut cand = Vec::new();
        grid.candidates_within(Point::new(60.0, 60.0), 5.0, &mut cand);
        assert!(cand.contains(&node));
        grid.candidates_within(Point::new(0.0, 0.0), 5.0, &mut cand);
        assert!(!cand.contains(&node));
        let total: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(total, topo.len());
    }

    #[test]
    fn move_within_cell_is_a_no_op() {
        let (mut topo, mut grid) = grid_13();
        let before = grid.clone();
        let node = NodeId::new(84);
        topo.move_node(node, Point::new(31.0, 31.0)); // same 20 m cell
        grid.move_node(node, topo.position(node));
        assert_eq!(grid, before);
    }

    #[test]
    fn emptying_and_filling_a_cell_round_trips() {
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let mut grid = SpatialGrid::build(&topo, 4.0);
        // Node 1 starts alone at (5, 0) in cell (1, 0); move it into node
        // 0's cell and back.
        grid.move_node(NodeId::new(1), Point::new(0.5, 0.0));
        let mut cand = Vec::new();
        grid.candidates_within(Point::new(5.0, 0.0), 1.0, &mut cand);
        assert!(cand.is_empty(), "old cell emptied");
        grid.move_node(NodeId::new(1), Point::new(5.0, 0.0));
        grid.candidates_within(Point::new(5.0, 0.0), 1.0, &mut cand);
        assert_eq!(cand, vec![NodeId::new(1)], "cell refilled");
    }

    #[test]
    fn cell_larger_than_field_degenerates_to_one_bucket() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let grid = SpatialGrid::build(&topo, 1000.0);
        assert_eq!(grid.dims(), (1, 1));
        let mut cand = Vec::new();
        grid.candidates_within(Point::new(0.0, 0.0), 1.0, &mut cand);
        assert_eq!(cand.len(), topo.len());
    }

    #[test]
    #[should_panic(expected = "bad spatial grid cell size")]
    fn zero_cell_size_panics() {
        let topo = placement::grid(2, 2, 5.0).unwrap();
        let _ = SpatialGrid::build(&topo, 0.0);
    }

    #[test]
    #[should_panic(expected = "bad spatial grid query radius")]
    fn bad_radius_panics() {
        let topo = placement::grid(2, 2, 5.0).unwrap();
        let _ = SpatialGrid::for_radius(&topo, f64::NAN);
    }

    #[test]
    fn for_radius_collapses_small_fields_to_one_cell() {
        // 13×13 at 5 m spacing = a 60 m field: 3 cells per axis at a 20 m
        // radius cannot prune, so the adaptive grid degenerates to a single
        // already-sorted bucket and queries skip the sort entirely.
        let topo = placement::grid(13, 13, 5.0).unwrap();
        let grid = SpatialGrid::for_radius(&topo, 20.0);
        assert_eq!(grid.dims(), (1, 1));
        let mut cand = Vec::new();
        grid.candidates_within(topo.position(NodeId::new(0)), 20.0, &mut cand);
        assert_eq!(cand.len(), topo.len(), "degenerate grid scans everyone");
        assert!(cand.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn for_radius_keeps_radius_cells_on_elongated_fields() {
        // A pipeline: 40×2 at 5 m spacing = 195 m × 5 m. The y axis can
        // never prune, but the x axis prunes hard — the grid must keep its
        // radius cells instead of collapsing to an all-pairs scan.
        let topo = placement::grid(40, 2, 5.0).unwrap();
        let grid = SpatialGrid::for_radius(&topo, 20.0);
        assert_eq!(grid.dims(), (10, 1));
        let mut cand = Vec::new();
        grid.candidates_within(topo.position(NodeId::new(0)), 20.0, &mut cand);
        assert!(
            cand.len() < topo.len() / 2,
            "end-of-line query must prune most of the pipeline"
        );
    }

    #[test]
    fn for_radius_keeps_pruning_cells_on_large_fields() {
        // 25×25 at 5 m = a 120 m field: 6 cells per axis prune for real.
        let topo = placement::grid(25, 25, 5.0).unwrap();
        let grid = SpatialGrid::for_radius(&topo, 20.0);
        assert_eq!(grid.dims(), (6, 6));
        assert_eq!(grid.cell_m(), 20.0);
        let mut cand = Vec::new();
        grid.candidates_within(topo.position(NodeId::new(0)), 20.0, &mut cand);
        assert!(cand.len() < topo.len(), "corner query must prune");
    }
}
