//! Centralized shortest-path oracle.
//!
//! The distributed Bellman-Ford implementation in `spms-routing` must agree
//! with a trusted oracle; this module provides that oracle (Dijkstra over
//! the zone graph). It is also used by tests and by the "oracle routing"
//! fast path for failure-free static experiments where simulating the DBF
//! message exchange adds runtime without changing results.
//!
//! The search itself is [`ZoneSearch`]; [`dijkstra`] and
//! [`dijkstra_masked`] are dense, one-destination views of it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{NodeId, ZoneTable};

/// The tie window on path costs (mW): two costs within `COST_EPS` of each
/// other are equal, and the tie breaks toward fewer hops, then the smaller
/// next-hop id. Floating-point sums of the same link weights can differ in
/// the last bit depending on the path.
///
/// The window makes route order transitive only when near-tie costs
/// cluster: every two costs are either within `COST_EPS` of each other or
/// more than `2·COST_EPS` apart. Costs chained in smaller steps can tie `a`
/// with `b` and `b` with `c` while `a` beats `c`. [`ZoneSearch`] and the
/// routing tables of `spms-routing` break ties with this one window, so
/// the Dijkstra oracle and the distributed exchange pick the same routes;
/// their costs agree to within the window.
pub const COST_EPS: f64 = 1e-12;

/// Cost of the best path from a node to a destination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathCost {
    /// Sum of link weights (mW) along the path.
    pub cost: f64,
    /// Number of hops.
    pub hops: u32,
    /// The first hop to take from the node toward the destination.
    pub next_hop: NodeId,
}

/// The local id of a node the current search has not numbered.
const NONE: u32 = u32::MAX;

/// A numbered node's best path toward the destination so far: `next` is
/// the local id of its first hop, [`NONE`] while it is unreached.
#[derive(Clone, Copy, Debug)]
struct Label {
    cost: f64,
    hops: u32,
    next: u32,
}

/// The label of a node no path has reached yet. Its infinite cost loses to
/// every finite candidate.
const UNREACHED: Label = Label {
    cost: f64::INFINITY,
    hops: u32::MAX,
    next: NONE,
};

#[derive(Clone, Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    hops: u32,
    /// Local id.
    node: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (cost, hops, node id) — node id is the deterministic
        // tie-break so equal-cost routes resolve identically on every run.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.hops.cmp(&self.hops))
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra toward one destination at a time, over the destination's zone,
/// with its buffers reused from one destination to the next.
///
/// [`ZoneSearch::run`] finds, for every node in `dest`'s zone, the cheapest
/// path **to** `dest` whose intermediate nodes also have `dest` in their
/// zone. The constraint mirrors the protocol: a node only maintains routes
/// for destinations inside its own zone, so a usable relay must know the
/// destination too. Zone membership is symmetric (one radio profile, one
/// radius), so those relays are exactly `dest`'s zone neighbors: the search
/// numbers `dest` and its alive zone neighbors with local ids, in ascending
/// node id, and runs on those. Testing whether a node may relay is one load
/// of its local id, and a search allocates nothing once the buffers have
/// grown to the largest zone.
///
/// Ties between equal-cost paths (within [`COST_EPS`]) break toward fewer
/// hops, then the smaller first hop. Local ids ascend with node ids, so
/// they break every tie exactly as node ids would.
///
/// # Example
///
/// ```
/// use spms_net::{placement, NodeId, ZoneSearch, ZoneTable};
/// use spms_phy::RadioProfile;
///
/// let topo = placement::grid(5, 1, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let mut search = ZoneSearch::default();
/// search.run(&zones, NodeId::new(0), &[true; 5]);
/// // The node 4 hops away pays four 5 m hops at the cheapest level.
/// let (cost, hops) = search.distance(NodeId::new(4)).unwrap();
/// assert_eq!(hops, 4);
/// assert!((cost - 4.0 * 0.0125).abs() < 1e-12);
/// assert_eq!(search.distance(NodeId::new(0)), Some((0.0, 0)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ZoneSearch {
    /// `local[a]`: node `a`'s local id in the current search, or [`NONE`].
    local: Vec<u32>,
    /// The numbered nodes, by local id.
    nodes: Vec<NodeId>,
    /// Each numbered node's best path so far, by local id.
    labels: Vec<Label>,
    heap: BinaryHeap<HeapEntry>,
}

impl ZoneSearch {
    /// Searches the cheapest paths to `dest` from every node in its zone.
    /// Dead nodes are skipped as sources and relays, and a dead `dest`
    /// yields no paths at all — the centralized counterpart of the masked
    /// distributed exchange. The results replace those of the previous
    /// search; read them with [`ZoneSearch::distance`].
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the zone table.
    pub fn run(&mut self, zones: &ZoneTable, dest: NodeId, alive: &[bool]) {
        let n = zones.len();
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        for u in &self.nodes {
            self.local[u.index()] = NONE;
        }
        self.local.resize(n, NONE);
        self.nodes.clear();
        self.labels.clear();
        self.heap.clear();
        if !alive[dest.index()] {
            return;
        }
        // Number `dest` and its alive zone neighbors in ascending id; the
        // links arrive in neighbor id order, so `dest` slots in at its rank.
        let links = zones.links(dest);
        let rank = links.partition_point(|l| l.neighbor < dest);
        let members = links[..rank].iter().map(|l| l.neighbor);
        let members = members
            .chain(std::iter::once(dest))
            .chain(links[rank..].iter().map(|l| l.neighbor));
        for u in members {
            if alive[u.index()] {
                self.local[u.index()] = self.nodes.len() as u32;
                self.nodes.push(u);
            }
        }
        self.labels.resize(self.nodes.len(), UNREACHED);

        // Work outward from the destination over symmetric links. When a
        // node u is relaxed from a settled node v, u's first hop is v —
        // the destination itself for its direct neighbors.
        let d = self.local[dest.index()];
        self.labels[d as usize] = Label {
            cost: 0.0,
            hops: 0,
            next: d,
        };
        self.heap.push(HeapEntry {
            cost: 0.0,
            hops: 0,
            node: d,
        });
        while let Some(HeapEntry { cost, hops, node }) = self.heap.pop() {
            if cost > self.labels[node as usize].cost + COST_EPS {
                continue; // stale entry
            }
            for link in zones.links(self.nodes[node as usize]) {
                // Relay constraint: only `dest` and the alive nodes with
                // `dest` in their zone are numbered.
                let u = self.local[link.neighbor.index()];
                if u == NONE {
                    continue;
                }
                let cand_cost = cost + link.weight;
                let cand_hops = hops + 1;
                let cur = &mut self.labels[u as usize];
                let better = cand_cost < cur.cost - COST_EPS
                    || ((cand_cost - cur.cost).abs() <= COST_EPS
                        && (cand_hops, node) < (cur.hops, cur.next));
                if better {
                    *cur = Label {
                        cost: cand_cost,
                        hops: cand_hops,
                        next: node,
                    };
                    self.heap.push(HeapEntry {
                        cost: cand_cost,
                        hops: cand_hops,
                        node: u,
                    });
                }
            }
        }
    }

    /// The cheapest path the last [`ZoneSearch::run`] found from `node` to
    /// its destination, as `(cost, hops)`: `(0.0, 0)` for the destination
    /// itself, `None` for a node with no path (dead, outside the zone, or
    /// partitioned within it).
    #[inline]
    #[must_use]
    pub fn distance(&self, node: NodeId) -> Option<(f64, u32)> {
        match self.local.get(node.index()) {
            Some(&u) if u != NONE => {
                let label = self.labels[u as usize];
                (label.next != NONE).then_some((label.cost, label.hops))
            }
            _ => None,
        }
    }
}

/// Computes, for every node in `dest`'s zone, the cheapest path **to**
/// `dest` constrained to intermediate nodes that also have `dest` in their
/// zone — one [`ZoneSearch`], laid out densely.
///
/// Returns a dense vector indexed by node: `None` for nodes with no path
/// (outside the zone, or partitioned within it) and for `dest` itself.
///
/// Ties between equal-cost paths break toward fewer hops, then the smaller
/// node id — the same rule the distributed implementation uses, so the two
/// choose the same routes. Their costs agree to within [`COST_EPS`], not
/// always bit for bit: where paths tie within the window, the two can keep
/// different ones, whose sums of link weights differ in the last bits.
///
/// # Example
///
/// ```
/// use spms_net::{dijkstra, placement, NodeId, ZoneTable};
/// use spms_phy::RadioProfile;
///
/// let topo = placement::grid(5, 1, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let to_first = dijkstra(&zones, NodeId::new(0));
/// // The node 4 hops away routes through its 5 m neighbor.
/// let pc = to_first[4].unwrap();
/// assert_eq!(pc.hops, 4);
/// assert_eq!(pc.next_hop, NodeId::new(3));
/// ```
#[must_use]
pub fn dijkstra(zones: &ZoneTable, dest: NodeId) -> Vec<Option<PathCost>> {
    dijkstra_masked(zones, dest, &vec![true; zones.len()])
}

/// [`dijkstra`] with a liveness mask: dead nodes are skipped as sources,
/// relays, and destination (a dead destination yields no routes at all) —
/// the centralized counterpart of the masked distributed exchange.
///
/// # Panics
///
/// Panics if the mask length does not match the zone table.
#[must_use]
pub fn dijkstra_masked(zones: &ZoneTable, dest: NodeId, alive: &[bool]) -> Vec<Option<PathCost>> {
    let mut search = ZoneSearch::default();
    search.run(zones, dest, alive);
    let mut best = vec![None; zones.len()];
    for (&u, label) in search.nodes.iter().zip(&search.labels) {
        // The destination's self-entry is an artifact of the search;
        // callers want per-source routes only.
        if u != dest && label.next != NONE {
            best[u.index()] = Some(PathCost {
                cost: label.cost,
                hops: label.hops,
                next_hop: search.nodes[label.next as usize],
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;
    use spms_phy::RadioProfile;

    fn zones(cols: usize, rows: usize, radius: f64) -> ZoneTable {
        let topo = placement::grid(cols, rows, 5.0).unwrap();
        ZoneTable::build(&topo, &RadioProfile::mica2(), radius)
    }

    #[test]
    fn line_routes_hop_by_hop() {
        let z = zones(5, 1, 20.0);
        let to0 = dijkstra(&z, NodeId::new(0));
        for (i, slot) in to0.iter().enumerate().skip(1) {
            let pc = slot.unwrap();
            assert_eq!(pc.hops as usize, i);
            assert_eq!(pc.next_hop, NodeId::new(i as u32 - 1));
            // Cost = i × min power.
            assert!((pc.cost - 0.0125 * i as f64).abs() < 1e-9);
        }
        assert!(to0[0].is_none(), "no self route");
    }

    #[test]
    fn multihop_beats_direct_in_cost() {
        let z = zones(5, 1, 20.0);
        let to0 = dijkstra(&z, NodeId::new(0));
        let four_hops = to0[4].unwrap().cost;
        // Direct at 20 m needs level 3 power (0.1995 mW) — more than 4 min
        // hops (4 × 0.0125 = 0.05 mW).
        assert!(four_hops < 0.1995);
    }

    #[test]
    fn out_of_zone_nodes_have_no_route() {
        let z = zones(9, 1, 20.0);
        let to0 = dijkstra(&z, NodeId::new(0));
        // Node 8 is 40 m away: outside node 0's 20 m zone.
        assert!(to0[8].is_none());
        assert!(to0[4].is_some());
        assert!(to0[5].is_none());
    }

    #[test]
    fn ties_break_deterministically() {
        // Square grid: two equal-cost two-hop routes exist between diagonal
        // neighbors; the tie must resolve to the lower-id relay.
        let z = zones(2, 2, 20.0);
        let to3 = dijkstra(&z, NodeId::new(3));
        let via = to3[0].unwrap().next_hop;
        assert_eq!(via, NodeId::new(1), "ties should pick the lower relay id");
    }

    #[test]
    fn direct_neighbor_routes_directly() {
        let z = zones(3, 1, 20.0);
        let to0 = dijkstra(&z, NodeId::new(0));
        assert_eq!(to0[1].unwrap().next_hop, NodeId::new(0));
        assert_eq!(to0[1].unwrap().hops, 1);
    }

    #[test]
    fn masked_search_avoids_dead_relays() {
        let z = zones(3, 1, 20.0);
        let mut alive = vec![true; 3];
        alive[1] = false;
        let to0 = dijkstra_masked(&z, NodeId::new(0), &alive);
        // Node 2 still reaches node 0 directly (10 m), never via dead node 1.
        let pc = to0[2].unwrap();
        assert_eq!(pc.next_hop, NodeId::new(0));
        assert_eq!(pc.hops, 1);
        assert!(to0[1].is_none(), "dead nodes hold no routes");
        // A dead destination yields nothing.
        let to1 = dijkstra_masked(&z, NodeId::new(1), &alive);
        assert!(to1.iter().all(Option::is_none));
    }

    #[test]
    fn oracle_is_deterministic() {
        let z = zones(7, 7, 20.0);
        let a = dijkstra(&z, NodeId::new(24));
        let b = dijkstra(&z, NodeId::new(24));
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (None, None) => {}
                (Some(p), Some(q)) => {
                    assert_eq!(p.next_hop, q.next_hop);
                    assert_eq!(p.hops, q.hops);
                    assert!((p.cost - q.cost).abs() < 1e-15);
                }
                _ => panic!("mismatch"),
            }
        }
    }
}
