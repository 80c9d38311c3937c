//! The reference constructions of the converged routing tables.
//!
//! For every destination `d`, a converged DBF gives each node `a` one entry
//! per zone neighbor `j`: cost `w(a,j) + dist(j,d)` where `dist` is the
//! zone-constrained shortest-path cost. Building the same tables from the
//! Dijkstra oracle provides (a) an independent implementation to test the
//! distributed exchange against, and (b) a fast path for static failure-free
//! experiments where simulating the message exchange changes nothing.
//!
//! [`reference_rebuild`] is the other reference: the sequential full DBF
//! rebuild, round by round over whole vectors, with its message
//! accounting — the crate's only whole-vector round loop. It shares no code
//! with [`crate::DbfEngine`]'s per-destination exchange beyond
//! [`RoutingTable`], so every engine execution is property-tested against
//! it exactly: a full rebuild's tables and [`DbfStats`] alike, a delta
//! exchange's tables.

use spms_net::{dijkstra_masked, NodeId, ZoneTable};

use crate::{DbfStats, DbfWireFormat, RouteEntry, RoutingTable};

/// Builds the routing table of every node directly from the shortest-path
/// oracle, keeping `k` alternatives per destination.
///
/// The result is exactly what [`crate::DbfEngine::run_to_convergence`]
/// produces (verified by property tests), at `O(n · zone·log zone)` cost
/// without simulating message rounds.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// use spms_net::{placement, NodeId, ZoneTable};
/// use spms_phy::RadioProfile;
/// use spms_routing::oracle_tables;
///
/// let topo = placement::grid(5, 1, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let tables = oracle_tables(&zones, 2);
/// assert_eq!(
///     tables[4].best(NodeId::new(0)).unwrap().via,
///     NodeId::new(3)
/// );
/// ```
#[must_use]
pub fn oracle_tables(zones: &ZoneTable, k: usize) -> Vec<RoutingTable> {
    oracle_tables_masked(zones, k, &vec![true; zones.len()])
}

/// [`oracle_tables`] with a liveness mask: dead nodes get empty tables,
/// hold no routes, and relay nothing — the centralized reference for the
/// masked and incremental DBF paths.
///
/// # Panics
///
/// Panics if `k == 0` or the mask length does not match.
#[must_use]
pub fn oracle_tables_masked(zones: &ZoneTable, k: usize, alive: &[bool]) -> Vec<RoutingTable> {
    assert!(k > 0, "k must be at least 1");
    let n = zones.len();
    assert_eq!(alive.len(), n, "alive mask length mismatch");
    let mut tables: Vec<RoutingTable> = (0..n).map(|_| RoutingTable::new(k)).collect();

    for d_idx in 0..n {
        if !alive[d_idx] {
            continue; // nobody routes to a dead destination
        }
        let dest = NodeId::new(d_idx as u32);
        let dist = dijkstra_masked(zones, dest, alive);
        for (a_idx, table) in tables.iter_mut().enumerate() {
            if a_idx == d_idx || !alive[a_idx] {
                continue;
            }
            let a = NodeId::new(a_idx as u32);
            // Only nodes with `dest` in their zone maintain routes to it.
            if !zones.in_zone(a, dest) {
                continue;
            }
            for link in zones.links(a) {
                let j = link.neighbor;
                if !alive[j.index()] {
                    continue;
                }
                let (tail_cost, tail_hops) = if j == dest {
                    (0.0, 0)
                } else {
                    match dist[j.index()] {
                        Some(pc) => (pc.cost, pc.hops),
                        None => continue, // j cannot reach dest
                    }
                };
                table.offer(
                    dest,
                    RouteEntry {
                        via: j,
                        cost: link.weight + tail_cost,
                        hops: tail_hops + 1,
                    },
                );
            }
        }
    }
    tables
}

/// The sequential full DBF rebuild — the paper's "re-execution of the DBF"
/// over the alive nodes, simulated round by round: every table starts with
/// its direct routes, every alive node broadcasts its whole vector in round
/// one, and after that every node whose table changed in the previous round
/// does. Vectors within a round are snapshotted first, so the exchange is
/// order-independent and deterministic. Returns the converged tables
/// (indexed by node) and the exchange's cost, priced with
/// [`DbfWireFormat::default`].
///
/// This is the reference [`crate::DbfEngine::rebuild_sharded`] must equal
/// bit for bit, stats included, although the engine converges one
/// destination at a time and derives these whole-vector stats from its
/// per-destination rounds; it is also the fixpoint every incremental
/// re-convergence must reach.
///
/// # Panics
///
/// Panics if `k == 0`, if the alive mask length does not match, or if the
/// exchange fails to converge within a generous bound (which would indicate
/// a negative-cost or bookkeeping bug, as positive-weight DBF always
/// converges).
///
/// # Example
///
/// ```
/// use spms_net::{placement, ZoneTable};
/// use spms_phy::RadioProfile;
/// use spms_routing::{reference_rebuild, DbfEngine};
///
/// let topo = placement::grid(4, 4, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let alive = vec![true; zones.len()];
/// let (tables, stats) = reference_rebuild(&zones, 2, &alive);
/// let mut dbf = DbfEngine::new(&zones, 2);
/// assert_eq!(dbf.rebuild_sharded(&zones, &alive), stats);
/// assert_eq!(dbf.into_tables(), tables);
/// ```
#[must_use]
pub fn reference_rebuild(
    zones: &ZoneTable,
    k: usize,
    alive: &[bool],
) -> (Vec<RoutingTable>, DbfStats) {
    assert!(k > 0, "k must be at least 1");
    let n = zones.len();
    assert_eq!(alive.len(), n, "alive mask length mismatch");
    let mut tables: Vec<RoutingTable> = (0..n).map(|_| RoutingTable::new(k)).collect();
    for a in 0..n {
        if !alive[a] {
            continue;
        }
        let node = NodeId::new(a as u32);
        // Zone links arrive in neighbor-id order, so the direct seeds
        // replay through one ascending cursor per table.
        let mut cursor = 0usize;
        for link in zones.links(node) {
            if !alive[link.neighbor.index()] {
                continue;
            }
            tables[a].offer_ascending(
                link.neighbor,
                RouteEntry {
                    via: link.neighbor,
                    cost: link.weight,
                    hops: 1,
                },
                &mut cursor,
            );
        }
    }

    let wire = DbfWireFormat::default();
    let mut stats = DbfStats {
        per_node_bytes: vec![0; n],
        ..DbfStats::default()
    };
    let mut pending = alive.to_vec();
    let mut vectors: Vec<(NodeId, f64, u32)> = Vec::new();
    let mut senders: Vec<(NodeId, u32, u32)> = Vec::new();
    // Positive weights: path costs strictly increase with hops, so
    // convergence takes at most diameter+2 rounds; n+4 is a safe bound.
    let max_rounds = (n as u32).max(8) + 4;

    for _round in 0..max_rounds {
        stats.rounds += 1;
        if pending.iter().all(|&p| !p) {
            return (tables, stats); // quiescent: nobody has updates to send
        }
        // Snapshot the vectors of every broadcasting node into a flat arena.
        vectors.clear();
        senders.clear();
        for i in 0..n {
            if !(pending[i] && alive[i]) {
                continue;
            }
            let start = vectors.len() as u32;
            tables[i].append_vector(&mut vectors);
            senders.push((NodeId::new(i as u32), start, vectors.len() as u32));
        }
        let mut next_pending = vec![false; n];
        for &(from, start, end) in &senders {
            let entries = &vectors[start as usize..end as usize];
            stats.messages += 1;
            stats.entries_sent += entries.len() as u64;
            let bytes = u64::from(wire.message_bytes(entries.len()));
            stats.bytes_total += bytes;
            stats.per_node_bytes[from.index()] += bytes;
            for link in zones.links(from) {
                let to = link.neighbor;
                if !alive[to.index()] {
                    continue;
                }
                if apply_entries(
                    &mut tables[to.index()],
                    to,
                    from,
                    link.weight,
                    entries,
                    zones,
                ) {
                    next_pending[to.index()] = true;
                }
            }
        }
        pending = next_pending;
    }
    panic!("DBF failed to converge within {max_rounds} rounds");
}

/// Relaxes the table of `at` with one received vector: routes via the
/// sender `from` at link weight `w`, scoped to `at`'s own zone. Returns
/// `true` if the table changed.
fn apply_entries(
    table: &mut RoutingTable,
    at: NodeId,
    from: NodeId,
    w: f64,
    entries: &[(NodeId, f64, u32)],
    zones: &ZoneTable,
) -> bool {
    let mut changed = false;
    for &(dest, cost, hops) in entries {
        if dest == at {
            continue;
        }
        // Zone scoping: `at` only maintains destinations in its own zone.
        if !zones.in_zone(at, dest) {
            continue;
        }
        changed |= table.offer(
            dest,
            RouteEntry {
                via: from,
                cost: w + cost,
                hops: hops + 1,
            },
        );
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbfEngine;
    use spms_net::{dijkstra, placement};
    use spms_phy::RadioProfile;

    fn zones(cols: usize, rows: usize, radius: f64) -> ZoneTable {
        let topo = placement::grid(cols, rows, 5.0).unwrap();
        ZoneTable::build(&topo, &RadioProfile::mica2(), radius)
    }

    /// Structural agreement between the distributed and centralized builds.
    fn assert_tables_agree(zones: &ZoneTable, k: usize) {
        let oracle = oracle_tables(zones, k);
        let mut dbf = DbfEngine::new(zones, k);
        dbf.run_to_convergence(zones);
        for (i, a) in oracle.iter().enumerate() {
            let node = NodeId::new(i as u32);
            let b = dbf.table(node);
            let da: Vec<NodeId> = a.destinations().collect();
            let db: Vec<NodeId> = b.destinations().collect();
            assert_eq!(da, db, "node {node}: destination sets differ");
            for d in da {
                let ra = a.routes_to(d);
                let rb = b.routes_to(d);
                assert_eq!(ra.len(), rb.len(), "node {node} dest {d}: route counts");
                for (x, y) in ra.iter().zip(rb.iter()) {
                    assert_eq!(x.via, y.via, "node {node} dest {d}");
                    assert_eq!(x.hops, y.hops, "node {node} dest {d}");
                    assert!(
                        (x.cost - y.cost).abs() < 1e-9,
                        "node {node} dest {d}: {} vs {}",
                        x.cost,
                        y.cost
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_matches_dbf_on_line() {
        assert_tables_agree(&zones(6, 1, 20.0), 2);
    }

    #[test]
    fn oracle_matches_dbf_on_grid() {
        assert_tables_agree(&zones(5, 5, 20.0), 2);
    }

    #[test]
    fn oracle_matches_dbf_with_k3() {
        assert_tables_agree(&zones(4, 4, 20.0), 3);
    }

    #[test]
    fn oracle_matches_dbf_small_radius() {
        // 10 m zones: sparser graphs, fewer relays.
        assert_tables_agree(&zones(5, 5, 10.0), 2);
    }

    #[test]
    fn masked_oracle_matches_masked_dbf() {
        let z = zones(5, 5, 20.0);
        let mut alive = vec![true; z.len()];
        alive[12] = false;
        alive[3] = false;
        let oracle = oracle_tables_masked(&z, 2, &alive);
        let mut dbf = DbfEngine::new(&z, 2);
        dbf.rebuild_sharded(&z, &alive);
        for (i, want) in oracle.iter().enumerate() {
            let node = NodeId::new(i as u32);
            let got = dbf.table(node);
            let wd: Vec<NodeId> = want.destinations().collect();
            let gd: Vec<NodeId> = got.destinations().collect();
            assert_eq!(wd, gd, "node {node}: destination sets differ");
            for d in wd {
                for (x, y) in want.routes_to(d).iter().zip(got.routes_to(d)) {
                    assert_eq!(x.via, y.via, "node {node} dest {d}");
                    assert_eq!(x.hops, y.hops, "node {node} dest {d}");
                    assert!((x.cost - y.cost).abs() < 1e-9, "node {node} dest {d}");
                }
            }
        }
        assert!(oracle[12].is_empty(), "dead nodes hold no routes");
    }

    #[test]
    fn oracle_best_equals_dijkstra_cost() {
        let z = zones(5, 5, 20.0);
        let tables = oracle_tables(&z, 2);
        for d_idx in 0..z.len() {
            let dest = NodeId::new(d_idx as u32);
            let dist = dijkstra(&z, dest);
            for (a_idx, table) in tables.iter().enumerate() {
                if let Some(best) = table.best(dest) {
                    let want = dist[a_idx].expect("route implies reachable");
                    assert!(
                        (best.cost - want.cost).abs() < 1e-9,
                        "node {a_idx} → {dest}"
                    );
                    assert_eq!(best.hops, want.hops);
                }
            }
        }
    }
}
