//! The distributed Bellman-Ford exchange.
//!
//! DBF runs in synchronous rounds: every node whose table changed since its
//! last broadcast sends its distance vector to its zone neighbors (at the
//! zone/ADV power level); receivers relax their tables; the exchange
//! quiesces when a round produces no changes. The paper quotes the classic
//! `O(n·e)` convergence bound and argues zone sizes (5–50 nodes) keep it
//! affordable — our stats let experiments verify that claim directly.
//!
//! # One exchange
//!
//! Every exchange converges a set of *scoped* destinations from empty route
//! blocks. An entry for destination `d` only ever lands in a route to `d`,
//! so destinations never interact, and the exchange converges them one at
//! a time. While it runs, the routes to the scoped destinations live in a
//! dense *route plane* rather than in the tables: each destination owns a
//! contiguous run of `k`-slot blocks, one per zone link of it in link
//! order, destinations in id order. A destination's rounds run over a local
//! adjacency built once for it — each alive maintainer's alive zone
//! neighbors that maintain the destination too — so no offer leaves its
//! scope. Its direct routes are seeded first; then each round counts the
//! destination's changed blocks (its *dirty* slots), snapshots in ascending
//! maintainer id those whose best route is news, and offers them along that
//! adjacency; an inlined test turns away the offers the block kernel would
//! reject before calling it. After quiescence each alive maintainer's table
//! drops its scoped destinations and takes the converged blocks in one
//! in-place merge.
//!
//! # Two accountings
//!
//! The two kinds of exchange differ in what they scope and in what their
//! broadcasts carry, and only [`DbfStats`] see the second. Both derive
//! their stats from the per-(round, maintainer) counts of dirty blocks.
//! The exchange's rounds count from 0, its round 0 broadcasting the direct
//! routes; full rounds count from 1, so full round `r` carries the news of
//! exchange round `r − 1`.
//!
//! * **Delta** ([`DbfEngine::apply_zone_delta`]) — real distance-vector
//!   deployments propagate triggered *deltas*, not full vectors. A
//!   topology event scopes only the destinations it can actually affect
//!   and wipes their routes at their old maintainers. A node's round-`r`
//!   message carries its changed routes to every destination still
//!   converging in round `r`, so it carries one entry per dirty block.
//! * **Full** ([`DbfEngine::rebuild_sharded`], and
//!   [`DbfEngine::run_to_convergence`] through it) — the paper's
//!   "re-execution of the DBF": every table is cleared and every
//!   destination scoped, and every message carries its sender's whole
//!   table. In full round 1 every alive node broadcasts, empty table or
//!   not; in full round `r ≥ 2` every node with at least one dirty block in
//!   exchange round `r − 1` does. A whole table holds a route to each of
//!   the node's alive zone neighbors, a count fixed from the reset to
//!   quiescence. With `R` non-empty exchange rounds, the rebuild takes
//!   `1 + max(R, 1)` full rounds, the last one silent, when any node is
//!   alive, and one silent round when none is.
//!
//! The full accounting is exact: tables and stats equal those of the
//! whole-vector round loop of [`crate::reference_rebuild`], bit for bit.
//! That loop starts from the direct routes; in each round every flagged
//! node broadcasts its whole vector, and every receiver relaxes the
//! entries for destinations in its own zone and is flagged if its table
//! changed. Round for round, the two offer the same routes:
//!
//! * A flagged node's entry for `d` is news only if its block for `d`
//!   changed in the round before, so a full round offers exactly what
//!   the matching round of the exchange snapshots, and flags exactly the
//!   nodes with a dirty block in the next one.
//! * Both offer to each block in ascending sender order.
//! * Zone scoping produces the same (sender, receiver, destination)
//!   triples as the per-destination adjacency: the sender and the
//!   receiver are zone neighbors, both maintain `d`, and both are alive.
//! * Both start with the direct routes in empty blocks, and both use the
//!   same block kernel.
//!
//! # News only
//!
//! Receivers are offered only *news*. A broadcast is counted whole, but a
//! dirty block whose best `(cost, hops)` is bit-identical to the one it
//! offered earlier in the same exchange offers nothing. RIP's triggered
//! updates skip the same waste, carrying only the routes whose route-change
//! flag is set (RFC 2453, §3.10.1). This is exact because every exchange
//! starts from empty plane blocks: each sender's best only improves, so
//! each offer a receiver gets from one sender improves on the previous one,
//! and an offer the receiver has already relaxed can neither enter its
//! block nor move it. That needs a transitive route order: every two route
//! costs either within the tables' tie window (`COST_EPS`) of each other or
//! more than twice the window apart. The Dijkstra oracle and DBF already
//! rely on the same precondition to agree; the `table` module's proptests
//! pin the kernel side of it.
//!
//! Every exchange runs on the calling thread: the paper's zones and fields
//! (at most 225 nodes) keep an exchange small, and splitting one across
//! threads showed no resolvable gain on a figure run.
//! [`crate::reference_rebuild`] shares no code with the exchange beyond
//! [`RoutingTable`] and is the reference both accountings are
//! property-tested against.
//!
//! The incremental scheme leans on a structural fact of zone routing: a
//! node only maintains destinations inside its own zone, and every relay on
//! a path toward destination `d` must itself maintain `d` — so every route
//! to `d` stays within `d`'s direct zone neighborhood. A node event (move,
//! link flip, failure, repair) can therefore only disturb routes to the
//! destinations adjacent to it (under the old or new zone table), and those
//! routes only live at those destinations' direct neighbors. Every zone
//! change reaches the engine as one [`ZoneDelta`], whose `changed_nodes`
//! `spms-net` names by one rule for the in-place patch and the all-pairs
//! reference alike; a liveness flip changes no zone row and reaches it as
//! the default delta plus the flipped nodes. Wiping and reseeding that
//! bounded set, then re-running the exchange restricted to it, provably
//! reaches the same fixpoint as a from-scratch rebuild — bit-for-bit, which
//! the `incremental` proptest suite asserts.

use spms_net::{NodeId, ZoneDelta, ZoneTable};

use crate::table::{is_news, offer_block_soa, offer_block_soa2, offer_rejected, UNSENT, VACANT};
use crate::{DbfWireFormat, RouteEntry, RoutingTable, TableLayout};

/// Cost accounting for one DBF execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DbfStats {
    /// Synchronous rounds until quiescence (including the final silent one).
    pub rounds: u32,
    /// Vector broadcasts sent.
    pub messages: u64,
    /// Total vector entries across all broadcasts.
    pub entries_sent: u64,
    /// Total bytes on air, per [`DbfWireFormat::default`].
    pub bytes_total: u64,
    /// Bytes broadcast by each node (for per-node energy charging).
    pub per_node_bytes: Vec<u64>,
}

impl DbfStats {
    /// Empty stats for an `n`-node exchange.
    fn new(n: usize) -> Self {
        DbfStats {
            per_node_bytes: vec![0; n],
            ..DbfStats::default()
        }
    }

    /// Accounts one broadcast of `entries` vector entries by `from`.
    fn count(&mut self, from: NodeId, entries: usize) {
        let bytes = u64::from(DbfWireFormat::default().message_bytes(entries));
        self.messages += 1;
        self.entries_sent += entries as u64;
        self.bytes_total += bytes;
        self.per_node_bytes[from.index()] += bytes;
    }
}

/// The local id of a node outside the set being numbered.
const NONE: u32 = u32::MAX;

/// The convergence bound for an `n`-node exchange. Positive weights: path
/// costs strictly increase with hops, so convergence takes at most
/// diameter + 2 rounds; `n + 4` is a safe bound.
fn max_rounds(n: usize) -> u32 {
    (n as u32).max(8) + 4
}

/// An exchange's scoped destinations and route-plane layout, fixed for the
/// exchange.
#[derive(Clone, Debug, Default)]
struct Scope {
    /// The scoped destinations, in id order.
    dests: Vec<NodeId>,
    /// `dests[di]` owns the plane slots `first[di]..first[di + 1]`: one
    /// per zone link of it, in link (= neighbor id) order.
    first: Vec<u32>,
    /// The maintainers — every node with a slot — in order of first
    /// appearance; a maintainer's index here is its *exchange id*.
    nodes: Vec<NodeId>,
    /// The exchange id of each slot's maintainer.
    slot_node: Vec<u32>,
    /// Maintainer `nodes[x]` holds `row_slots[row[x]..row[x + 1]]`, as
    /// `(slot, scoped-destination index)` pairs, destinations ascending.
    row: Vec<u32>,
    row_slots: Vec<(u32, u32)>,
    /// `local[a]`: node `a`'s exchange id while [`Scope::lay_out`] runs,
    /// [`NONE`] otherwise.
    local: Vec<u32>,
}

impl Scope {
    /// Collects the destinations of the `affected` mask and numbers one
    /// slot per (affected destination, maintainer) pair — the maintainers
    /// of `d` are exactly `d`'s zone neighbors under `zones` —
    /// destination-major, then indexes the slots by maintainer.
    fn lay_out(&mut self, zones: &ZoneTable, affected: &[bool]) {
        let n = zones.len();
        self.local.resize(n, NONE);
        self.dests.clear();
        self.dests.extend(
            (0..n)
                .filter(|&i| affected[i])
                .map(|i| NodeId::new(i as u32)),
        );
        // Number the slots and count each maintainer's ...
        self.first.clear();
        self.nodes.clear();
        self.slot_node.clear();
        self.row.clear();
        for &d in &self.dests {
            self.first.push(self.slot_node.len() as u32);
            for link in zones.links(d) {
                let a = link.neighbor;
                if self.local[a.index()] == NONE {
                    self.local[a.index()] = self.nodes.len() as u32;
                    self.nodes.push(a);
                    self.row.push(0);
                }
                let x = self.local[a.index()];
                self.row[x as usize] += 1;
                self.slot_node.push(x);
            }
        }
        let slots = self.slot_node.len() as u32;
        self.first.push(slots);
        for &a in &self.nodes {
            self.local[a.index()] = NONE;
        }
        // ... turn the counts into row ends, then fill every row from its
        // end, destinations descending, which leaves `row[x]` at the row's
        // start.
        let mut end = 0;
        for r in &mut self.row {
            end += *r;
            *r = end;
        }
        self.row.push(end);
        self.row_slots.clear();
        self.row_slots.resize(slots as usize, (0, 0));
        for di in (0..self.dests.len()).rev() {
            for slot in self.slots(di) {
                let x = self.slot_node[slot] as usize;
                self.row[x] -= 1;
                self.row_slots[self.row[x] as usize] = (slot as u32, di as u32);
            }
        }
    }

    /// The plane slots of `dests[di]`.
    fn slots(&self, di: usize) -> std::ops::Range<usize> {
        self.first[di] as usize..self.first[di + 1] as usize
    }
}

/// The exchange's route plane: one `k`-slot block per scope slot, best
/// first, in the tables' struct-of-arrays layout.
#[derive(Clone, Debug, Default)]
struct Plane {
    /// Route slots per block.
    k: usize,
    /// Live routes per slot (`<= k`).
    lens: Vec<u32>,
    /// Per-slot change since its maintainer's last broadcast.
    dirty: Vec<bool>,
    via: Vec<NodeId>,
    cost: Vec<f64>,
    hops: Vec<u32>,
}

impl Plane {
    /// Empties `slots` blocks of `k` slots. Route slots past a block's
    /// live prefix are never read, so they keep whatever they held.
    fn reset(&mut self, slots: usize, k: usize) {
        self.k = k;
        self.lens.clear();
        self.lens.resize(slots, 0);
        self.dirty.clear();
        self.dirty.resize(slots, false);
        self.via.resize(slots * k, VACANT.via);
        self.cost.resize(slots * k, VACANT.cost);
        self.hops.resize(slots * k, VACANT.hops);
    }

    /// Offers `route` to the block at `s` with the tables' block kernel,
    /// behind [`offer_rejected`]; a change sets the slot's dirty bit.
    #[inline(always)]
    fn offer(&mut self, s: usize, route: RouteEntry) {
        let k = self.k;
        let len = self.lens[s] as usize;
        let (changed, len) = if k == 2 {
            let b = s * 2;
            if offer_rejected(&self.via[b..b + 2], &self.cost[b..b + 2], len, &route) {
                return;
            }
            offer_block_soa2(
                &mut self.via[b..b + 2],
                &mut self.cost[b..b + 2],
                &mut self.hops[b..b + 2],
                len,
                route,
            )
        } else {
            let b = s * k;
            if offer_rejected(&self.via[b..b + k], &self.cost[b..b + k], len, &route) {
                return;
            }
            offer_block_soa(
                &mut self.via[b..b + k],
                &mut self.cost[b..b + k],
                &mut self.hops[b..b + k],
                len,
                route,
            )
        };
        self.lens[s] = len as u32;
        self.dirty[s] |= changed;
    }
}

/// An exchange's reusable per-destination buffers. The adjacency and
/// snapshot are rebuilt for each destination; the counts accumulate over
/// the exchange.
#[derive(Clone, Debug, Default)]
struct DestBufs {
    /// `local[a]`: alive node `a`'s block index among the current
    /// destination's zone links, or [`NONE`]. All [`NONE`] between
    /// destinations.
    local: Vec<u32>,
    /// The current destination's adjacency: the maintainer of block `i`
    /// offers to `adj[adj_start[i]..adj_start[i + 1]]`, as (receiver
    /// block, sender's link weight) pairs in receiver id order. Entries
    /// past the last end are scratch.
    adj_start: Vec<u32>,
    adj: Vec<(u32, f64)>,
    /// The best `(cost, hops)` each block of the current destination last
    /// offered, or [`UNSENT`].
    sent: Vec<(f64, u32)>,
    /// A round's news: (sender block, best cost, best hops) of the dirty
    /// blocks whose best changed since their last offer, senders
    /// ascending.
    snap: Vec<(u32, f64, u32)>,
    /// Dirty blocks each maintainer broadcast per round over the exchange's
    /// destinations: `counts[r * nodes + x]` for exchange id `x`. Grown
    /// one round at a time, so it holds exactly the non-empty rounds.
    counts: Vec<u32>,
    /// Write-back buffers.
    row: RowBlocks,
}

/// One maintainer's scoped destinations and converged blocks, gathered
/// from the plane for [`RoutingTable::splice`].
#[derive(Clone, Debug, Default)]
struct RowBlocks {
    dests: Vec<NodeId>,
    lens: Vec<u32>,
    via: Vec<NodeId>,
    cost: Vec<f64>,
    hops: Vec<u32>,
}

impl RowBlocks {
    /// Trades `table`'s routes to maintainer `x`'s scoped destinations for
    /// their converged blocks in `plane`, in one merge.
    fn write_back(&mut self, scope: &Scope, x: usize, plane: &Plane, table: &mut RoutingTable) {
        let k = plane.k;
        self.dests.clear();
        self.lens.clear();
        self.via.clear();
        self.cost.clear();
        self.hops.clear();
        for &(slot, di) in &scope.row_slots[scope.row[x] as usize..scope.row[x + 1] as usize] {
            let s = slot as usize;
            self.dests.push(scope.dests[di as usize]);
            self.lens.push(plane.lens[s]);
            self.via.extend_from_slice(&plane.via[s * k..(s + 1) * k]);
            self.cost.extend_from_slice(&plane.cost[s * k..(s + 1) * k]);
            self.hops.extend_from_slice(&plane.hops[s * k..(s + 1) * k]);
        }
        table.splice(&self.dests, &self.lens, &self.via, &self.cost, &self.hops);
    }
}

/// Reusable buffers for the exchange, hoisted out of it so steady-state
/// exchanges allocate nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// All-alive mask for [`DbfEngine::run_to_convergence`].
    all_alive: Vec<bool>,
    /// Membership bitmap for the scoped destination set.
    affected: Vec<bool>,
    /// The scoped destinations and plane layout.
    scope: Scope,
    /// The routes to the scoped destinations.
    plane: Plane,
    /// The per-destination buffers.
    dest: DestBufs,
    /// Snapshot entries offered to receivers so far; the unit tests compare
    /// it with [`DbfStats::entries_sent`] to see that only news is relaxed.
    relaxed: u64,
}

impl Scratch {
    /// The exchange's non-empty rounds: those in which some block was
    /// dirty.
    fn rounds_spoken(&self) -> usize {
        self.dest
            .counts
            .len()
            .checked_div(self.scope.nodes.len())
            .unwrap_or(0)
    }
}

/// The distributed Bellman-Ford engine: one routing table per node.
///
/// # Example
///
/// ```
/// use spms_net::{placement, NodeId, ZoneTable};
/// use spms_phy::RadioProfile;
/// use spms_routing::DbfEngine;
///
/// let topo = placement::grid(3, 3, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let mut dbf = DbfEngine::new(&zones, 2);
/// dbf.run_to_convergence(&zones);
/// // The corner reaches the opposite corner through an adjacent node.
/// let best = dbf.table(NodeId::new(0)).best(NodeId::new(8)).unwrap();
/// assert!(best.hops >= 2);
/// ```
#[derive(Clone, Debug)]
pub struct DbfEngine {
    tables: Vec<RoutingTable>,
    k: usize,
    scratch: Scratch,
}

impl DbfEngine {
    /// Creates an engine with one empty routing table per zone node,
    /// keeping `k` alternatives per destination. It holds no routes until
    /// the first rebuild ([`DbfEngine::rebuild_sharded`] or
    /// [`DbfEngine::run_to_convergence`]), which installs the direct routes
    /// and runs the rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(zones: &ZoneTable, k: usize) -> Self {
        DbfEngine {
            tables: (0..zones.len()).map(|_| RoutingTable::new(k)).collect(),
            k,
            scratch: Scratch::default(),
        }
    }

    /// Returns the engine unchanged: every exchange runs on the calling
    /// thread. Kept only because the `perfbench` harness still calls it;
    /// nothing in the workspace does.
    #[must_use]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Returns the engine unchanged: routing tables have one layout,
    /// [`TableLayout::Soa`]. Kept only because the `perfbench` harness
    /// still calls it; nothing in the workspace does.
    #[must_use]
    pub fn with_table_layout(self, _layout: TableLayout) -> Self {
        self
    }

    /// The number of route alternatives kept per destination.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The full rebuild, skipping dead nodes — the paper's "re-execution of
    /// the DBF" after mobility or failure: every table is cleared and every
    /// destination re-converged from its direct routes, accounted as
    /// whole-vector rounds (see the module docs). Tables **and** stats are
    /// bit-identical to [`crate::reference_rebuild`] (property-tested). The
    /// engine has no shards; the name stays only because the `perfbench`
    /// harness calls it.
    ///
    /// # Panics
    ///
    /// Panics if the alive mask length does not match, or if the exchange
    /// fails to converge within a generous bound (which would indicate a
    /// negative-cost or bookkeeping bug, as positive-weight DBF always
    /// converges).
    pub fn rebuild_sharded(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        let n = zones.len();
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        for table in &mut self.tables {
            table.clear();
        }
        let mut affected = std::mem::take(&mut self.scratch.affected);
        affected.clear();
        affected.resize(n, true);
        self.scratch.scope.lay_out(zones, &affected);
        self.scratch.affected = affected;
        self.converge(zones, alive);

        let s = &self.scratch;
        let mut stats = DbfStats::new(n);
        stats.rounds = 1;
        if !alive.contains(&true) {
            return stats; // one silent round
        }
        stats.rounds += s.rounds_spoken().max(1) as u32;
        // Every message carries its sender's whole table. In the first
        // round every alive node broadcasts ...
        for (a, table) in self.tables.iter().enumerate() {
            if alive[a] {
                stats.count(NodeId::new(a as u32), table.len());
            }
        }
        // ... and in round `r ≥ 2` every node with a dirty block in
        // exchange round `r − 1`.
        let nodes = s.scope.nodes.len();
        for (i, &c) in s.dest.counts.iter().enumerate().skip(nodes) {
            if c > 0 {
                let a = s.scope.nodes[i % nodes];
                stats.count(a, self.tables[a.index()].len());
            }
        }
        stats
    }

    /// The routing table of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn table(&self, node: NodeId) -> &RoutingTable {
        &self.tables[node.index()]
    }

    /// Consumes the engine, yielding all tables indexed by node — a final
    /// snapshot for analysis. This ends the engine's life on purpose: the
    /// tables leave the incremental machinery (route plane, scratch)
    /// behind, so they must not be fed back into another exchange.
    #[must_use]
    pub fn into_tables(self) -> Vec<RoutingTable> {
        self.tables
    }

    /// The full rebuild with every node alive: clears every table first,
    /// whatever it held, then re-converges every destination, accounted as
    /// whole-vector rounds in which round one has every node broadcast its
    /// whole table (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the exchange fails to converge (see
    /// [`DbfEngine::rebuild_sharded`]).
    pub fn run_to_convergence(&mut self, zones: &ZoneTable) -> DbfStats {
        let mut all_alive = std::mem::take(&mut self.scratch.all_alive);
        all_alive.clear();
        all_alive.resize(zones.len(), true);
        let stats = self.rebuild_sharded(zones, &all_alive);
        self.scratch.all_alive = all_alive;
        stats
    }

    /// Incrementally re-converges after a topology change; the engine's
    /// only incremental entry. `delta` names the zone change, as
    /// [`ZoneTable::patch`] returns it or [`ZoneDelta::between`] builds it
    /// from the tables before and after, and `zones` is the table after
    /// it. `also_changed` names the nodes whose liveness flipped since the
    /// last convergence, which changes no zone row: a liveness flip alone
    /// passes [`ZoneDelta::default`]. `alive` is the current mask.
    ///
    /// Only the delta's `changed_nodes` and the flipped nodes' zones can
    /// have gained, lost, or re-priced routes — every route to a
    /// destination runs through that destination's direct neighbors. Those
    /// destinations are invalidated at their maintainers, direct routes are
    /// reseeded, and the delta exchange re-converges just that slice of the
    /// network. Tables end bit-identical to a from-scratch
    /// [`crate::reference_rebuild`] under `zones` (property-tested), at a
    /// fraction of the cost.
    ///
    /// # Panics
    ///
    /// Panics if the zone table and alive mask disagree on the node count,
    /// or if the exchange fails to converge within the same bound as the
    /// full rebuild.
    pub fn apply_zone_delta(
        &mut self,
        zones: &ZoneTable,
        delta: &ZoneDelta,
        also_changed: &[NodeId],
        alive: &[bool],
    ) -> DbfStats {
        let n = zones.len();
        assert_eq!(alive.len(), n, "alive mask length mismatch");

        // Affected destinations: the rows the zone change touched, plus
        // each flipped node and its (unchanged) zone.
        let mut affected = std::mem::take(&mut self.scratch.affected);
        affected.clear();
        affected.resize(n, false);
        for &c in &delta.changed_nodes {
            affected[c.index()] = true;
        }
        for &c in also_changed {
            affected[c.index()] = true;
            for link in zones.links(c) {
                affected[link.neighbor.index()] = true;
            }
        }
        self.scratch.scope.lay_out(zones, &affected);

        // A changed node that is down holds no routes at all.
        for c in delta
            .moves
            .iter()
            .map(|mv| mv.node)
            .chain(also_changed.iter().copied())
        {
            if !alive[c.index()] {
                self.tables[c.index()].clear();
            }
        }

        // Old maintainers may hold routes the new adjacency no longer
        // justifies. A link is lost only when an endpoint is a changed
        // node, so each stale pairing is between a changed node and one of
        // its pre-change neighbors — exactly what the delta recorded. Each
        // side's route to the other goes, unless the write-back replaces
        // it.
        for mv in &delta.moves {
            let m = mv.node;
            for &a in &mv.old_neighbors {
                if alive[a.index()] && !maintains(zones, &affected, a, m) {
                    self.tables[a.index()].remove_dest(m);
                }
                if alive[m.index()] && !maintains(zones, &affected, m, a) {
                    self.tables[m.index()].remove_dest(a);
                }
            }
        }
        self.scratch.affected = affected;

        self.converge(zones, alive);
        let s = &self.scratch;
        let nodes = s.scope.nodes.len();
        let mut stats = DbfStats::new(n);
        // Rounds: one per non-empty snapshot of the longest destination,
        // plus the final silent one. Each message carries one entry per
        // dirty block.
        stats.rounds = 1 + s.rounds_spoken() as u32;
        for (i, &c) in s.dest.counts.iter().enumerate() {
            if c > 0 {
                stats.count(s.scope.nodes[i % nodes], c as usize);
            }
        }
        stats
    }

    /// The exchange every execution runs. Expects `scratch.scope` laid out
    /// under the current zones (and, for a delta exchange, the stale
    /// pairings already wiped): empties every plane block, converges the
    /// routes to each alive scoped destination on its own plane slots, and
    /// writes the converged blocks back. The write-back
    /// replaces each alive maintainer's routes to its scoped destinations
    /// in one merge, so the tables are never wiped separately; no exchange
    /// step reads those routes from the tables.
    fn converge(&mut self, zones: &ZoneTable, alive: &[bool]) {
        let s = &mut self.scratch;
        s.plane.reset(s.scope.slot_node.len(), self.k);
        s.dest.local.resize(zones.len(), NONE);
        s.dest.counts.clear();
        for di in 0..s.scope.dests.len() {
            // Nobody routes to a dead destination.
            if alive[s.scope.dests[di].index()] {
                s.relaxed += converge_dest(zones, alive, &s.scope, di, &mut s.plane, &mut s.dest);
            }
        }
        // Every alive maintainer trades its routes to its scoped
        // destinations for the converged blocks.
        for (x, &a) in s.scope.nodes.iter().enumerate() {
            if alive[a.index()] {
                let table = &mut self.tables[a.index()];
                s.dest.row.write_back(&s.scope, x, &s.plane, table);
            }
        }
    }
}

/// Whether `a` maintains the affected destination `d` under `zones` (the
/// new zones), which makes the write-back replace its routes to `d`.
fn maintains(zones: &ZoneTable, affected: &[bool], a: NodeId, d: NodeId) -> bool {
    affected[d.index()] && zones.link_to(d, a).is_some()
}

/// Converges the routes to `d = scope.dests[di]` on its plane blocks —
/// block `i` holds the routes of `d`'s `i`-th zone neighbor — from empty
/// blocks: reseeds the surviving direct routes, then runs synchronous
/// rounds until no block changes. Counts the entries each maintainer
/// sends per round into `bufs.counts`, and returns the snapshot entries
/// offered to receivers.
fn converge_dest(
    zones: &ZoneTable,
    alive: &[bool],
    scope: &Scope,
    di: usize,
    plane: &mut Plane,
    bufs: &mut DestBufs,
) -> u64 {
    let d = scope.dests[di];
    let links = zones.links(d);
    let b = scope.slots(di).start;
    // The local adjacency: each alive maintainer's alive zone neighbors
    // that maintain `d` too, in neighbor id order. Only alive maintainers
    // get a local id, so one load answers both questions. Whether a zone
    // neighbor maintains `d` follows no pattern a branch predictor learns,
    // so every candidate is written and only the hits advance the end.
    for (i, link) in links.iter().enumerate() {
        if alive[link.neighbor.index()] {
            bufs.local[link.neighbor.index()] = i as u32;
        }
    }
    bufs.adj_start.clear();
    bufs.adj_start.push(0);
    let mut end = 0usize;
    for link in links {
        if bufs.local[link.neighbor.index()] != NONE {
            let hops = zones.links(link.neighbor);
            if bufs.adj.len() < end + hops.len() {
                bufs.adj.resize(end + hops.len(), (NONE, 0.0));
            }
            for hop in hops {
                let j = bufs.local[hop.neighbor.index()];
                bufs.adj[end] = (j, hop.weight);
                end += usize::from(j != NONE);
            }
        }
        bufs.adj_start.push(end as u32);
    }
    for link in links {
        bufs.local[link.neighbor.index()] = NONE;
    }

    // Reseed the surviving direct routes. Link weights are symmetric
    // (shared radio profile), so the d→a weight doubles as a's direct cost
    // to d.
    for (i, link) in links.iter().enumerate() {
        if alive[link.neighbor.index()] {
            let direct = RouteEntry {
                via: d,
                cost: link.weight,
                hops: 1,
            };
            plane.offer(b + i, direct);
        }
    }

    let nodes = scope.nodes.len();
    let k = plane.k;
    let max_rounds = max_rounds(zones.len()) as usize;
    bufs.sent.clear();
    bufs.sent.resize(links.len(), UNSENT);
    let mut relaxed = 0u64;
    let mut round = 0usize;
    loop {
        // Every dirty block broadcasts its best route and is counted; its
        // bit is cleared, so this round's offers are next round's news.
        // Only a best that differs from the block's previous offer enters
        // the snapshot: the neighbors have already relaxed that one.
        let row = round * nodes;
        let mut spoke = false;
        bufs.snap.clear();
        for i in 0..links.len() {
            let s = b + i;
            if std::mem::take(&mut plane.dirty[s]) {
                if !spoke {
                    spoke = true;
                    if bufs.counts.len() < row + nodes {
                        bufs.counts.resize(row + nodes, 0);
                    }
                }
                bufs.counts[row + scope.slot_node[s] as usize] += 1;
                let best = (plane.cost[s * k], plane.hops[s * k]);
                if is_news(best, bufs.sent[i]) {
                    bufs.sent[i] = best;
                    bufs.snap.push((i as u32, best.0, best.1));
                }
            }
        }
        if !spoke {
            return relaxed;
        }
        relaxed += bufs.snap.len() as u64;
        round += 1;
        assert!(
            round < max_rounds,
            "DBF failed to converge within {max_rounds} rounds"
        );
        // Offers reach each block in ascending sender id, the snapshot's
        // order.
        for &(i, cost, hops) in &bufs.snap {
            let via = links[i as usize].neighbor;
            let adj = &bufs.adj
                [bufs.adj_start[i as usize] as usize..bufs.adj_start[i as usize + 1] as usize];
            for &(j, weight) in adj {
                let route = RouteEntry {
                    via,
                    cost: weight + cost,
                    hops: hops + 1,
                };
                plane.offer(b + j as usize, route);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_rebuild;
    use spms_net::placement;
    use spms_phy::RadioProfile;

    fn zones(cols: usize, rows: usize) -> ZoneTable {
        let topo = placement::grid(cols, rows, 5.0).unwrap();
        ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0)
    }

    /// Asserts `dbf`'s tables equal the reference rebuild's, node by node.
    fn assert_tables_match(dbf: &DbfEngine, want: &[RoutingTable], context: &str) {
        assert_eq!(dbf.tables.len(), want.len(), "{context}: node count");
        for (i, want) in want.iter().enumerate() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), want, "{context}: node {node}");
        }
    }

    #[test]
    fn line_converges_to_min_hop_chain() {
        let z = zones(5, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        let stats = dbf.run_to_convergence(&z);
        assert!(stats.messages > 0);
        let t4 = dbf.table(NodeId::new(4));
        let best = t4.best(NodeId::new(0)).unwrap();
        assert_eq!(best.via, NodeId::new(3));
        assert_eq!(best.hops, 4);
        assert!((best.cost - 0.05).abs() < 1e-9);
    }

    #[test]
    fn new_engine_holds_no_routes_until_the_first_rebuild() {
        let z = zones(3, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        for node in 0..3 {
            assert!(dbf.table(NodeId::new(node)).is_empty(), "n{node}");
        }
        // The first rebuild installs the direct route to every zone
        // neighbor.
        dbf.run_to_convergence(&z);
        let t0 = dbf.table(NodeId::new(0));
        for dest in [NodeId::new(1), NodeId::new(2)] {
            assert!(
                t0.routes_to(dest)
                    .into_iter()
                    .any(|r| r.via == dest && r.hops == 1),
                "direct route to {dest}"
            );
        }
    }

    #[test]
    fn second_route_provides_failover() {
        // 3×3 grid: center-to-corner has two equal shortest paths, so k=2
        // tables hold a genuine alternative.
        let z = zones(3, 3);
        let mut dbf = DbfEngine::new(&z, 2);
        dbf.run_to_convergence(&z);
        let t0 = dbf.table(NodeId::new(0));
        let routes = t0.routes_to(NodeId::new(8));
        assert_eq!(routes.len(), 2);
        assert_ne!(routes.get(0).unwrap().via, routes.get(1).unwrap().via);
    }

    #[test]
    fn masked_run_ignores_dead_nodes() {
        let z = zones(3, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        let mut alive = vec![true; 3];
        alive[1] = false;
        dbf.rebuild_sharded(&z, &alive);
        let t0 = dbf.table(NodeId::new(0));
        // Node 2 is still reachable directly (10 m), never via dead node 1.
        let best = t0.best(NodeId::new(2)).unwrap();
        assert_eq!(best.via, NodeId::new(2));
        assert_eq!(t0.routes_to(NodeId::new(2)).len(), 1);
        assert!(t0.best(NodeId::new(1)).is_none());
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let z = zones(4, 4);
        let mut dbf = DbfEngine::new(&z, 2);
        let stats = dbf.run_to_convergence(&z);
        assert_eq!(stats.per_node_bytes.len(), 16);
        let per_node_sum: u64 = stats.per_node_bytes.iter().sum();
        assert_eq!(per_node_sum, stats.bytes_total);
        assert!(stats.entries_sent >= stats.messages); // vectors are non-trivial
        let wire = DbfWireFormat::default();
        assert!(stats.bytes_total >= stats.messages * u64::from(wire.header_bytes));
        // Convergence should be far below the panic bound.
        assert!(stats.rounds <= 8, "rounds = {}", stats.rounds);
    }

    #[test]
    fn rerun_after_reset_is_idempotent() {
        let z = zones(4, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        dbf.run_to_convergence(&z);
        let before = dbf.table(NodeId::new(0)).clone();
        dbf.rebuild_sharded(&z, &[true; 4]);
        assert_eq!(*dbf.table(NodeId::new(0)), before);
    }

    #[test]
    fn no_op_invalidation_quiesces_in_one_silent_round() {
        let z = zones(4, 4);
        let mut dbf = DbfEngine::new(&z, 2);
        dbf.run_to_convergence(&z);
        // "Invalidate" a node that did not actually change: the wipe and
        // reseed re-derive the same tables and the exchange stays local.
        let alive = vec![true; z.len()];
        let stats = dbf.apply_zone_delta(&z, &ZoneDelta::default(), &[NodeId::new(5)], &alive);
        let (want, _) = reference_rebuild(&z, 2, &alive);
        assert_tables_match(&dbf, &want, "no-op invalidation");
        // Far cheaper than the full rebuild's all-nodes rounds.
        assert!(stats.messages < (z.len() as u64) * u64::from(stats.rounds));
    }

    #[test]
    fn kill_and_revive_match_full_rebuild() {
        let z = zones(5, 5);
        let mut dbf = DbfEngine::new(&z, 2);
        dbf.run_to_convergence(&z);
        let mut alive = vec![true; z.len()];

        alive[12] = false; // kill the center
        dbf.apply_zone_delta(&z, &ZoneDelta::default(), &[NodeId::new(12)], &alive);
        let (want, _) = reference_rebuild(&z, 2, &alive);
        assert_tables_match(&dbf, &want, "dead");

        alive[12] = true; // and bring it back
        dbf.apply_zone_delta(&z, &ZoneDelta::default(), &[NodeId::new(12)], &alive);
        let (want, _) = reference_rebuild(&z, 2, &alive);
        assert_tables_match(&dbf, &want, "back");
    }

    #[test]
    fn single_move_matches_full_rebuild() {
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&old_zones, 2);
        dbf.run_to_convergence(&old_zones);

        let moved = NodeId::new(7);
        topo.move_node(moved, spms_net::Point::new(19.0, 17.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];
        let delta = ZoneDelta::between(&old_zones, &new_zones, &[moved]);
        let stats = dbf.apply_zone_delta(&new_zones, &delta, &[], &alive);
        assert!(stats.messages > 0);
        assert!(stats.bytes_total > 0);
        assert_eq!(
            stats.per_node_bytes.iter().sum::<u64>(),
            stats.bytes_total,
            "per-node byte accounting must add up"
        );

        let (want, _) = reference_rebuild(&new_zones, 2, &alive);
        assert_tables_match(&dbf, &want, "single move");
    }

    #[test]
    fn zone_delta_path_matches_full_rebuild() {
        // The in-place variant: zones patched by `apply_moves`, routing
        // re-converged from the ZoneDelta (no old zone table anywhere),
        // with a silent liveness flip folded in on top.
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let mut grid = spms_net::SpatialGrid::build(&topo, 20.0);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
        let mut dbf = DbfEngine::new(&zones, 2);
        dbf.run_to_convergence(&zones);

        let moved = NodeId::new(7);
        let mut alive = vec![true; zones.len()];
        alive[18] = false; // silent flip, reported via `also_changed`
        topo.move_node(moved, spms_net::Point::new(19.0, 17.0));
        grid.move_node(moved, topo.position(moved));
        let delta = zones.apply_moves(&topo, &radio, &grid, &[moved]);
        let stats = dbf.apply_zone_delta(&zones, &delta, &[NodeId::new(18)], &alive);
        assert!(stats.messages > 0);
        assert_eq!(stats.per_node_bytes.iter().sum::<u64>(), stats.bytes_total);

        let (want, _) = reference_rebuild(&zones, 2, &alive);
        assert_tables_match(&dbf, &want, "zone delta");
    }

    /// Asserts a fresh engine's full rebuild over `alive` equals the
    /// reference rebuild, tables and stats.
    fn assert_rebuild_matches(z: &ZoneTable, k: usize, alive: &[bool], context: &str) {
        let (want_tables, want) = reference_rebuild(z, k, alive);
        let mut dbf = DbfEngine::new(z, k);
        assert_eq!(dbf.rebuild_sharded(z, alive), want, "{context}");
        assert_tables_match(&dbf, &want_tables, context);
    }

    #[test]
    fn sharded_full_rebuild_matches_sequential_tables_and_stats() {
        // The full rebuild must agree with the sequential reference on
        // every table AND every stats field, dead nodes included, up to
        // the paper's n = 169, for the k = 2 block kernel and the generic
        // one (k = 1, 3).
        for k in [1, 2, 3] {
            for (side, dead) in [(6, &[14usize, 15][..]), (13, &[])] {
                let z = zones(side, side);
                let mut alive = vec![true; z.len()];
                for &d in dead {
                    alive[d] = false;
                }
                assert_rebuild_matches(&z, k, &alive, &format!("k = {k}, {side}×{side}"));
            }
        }
    }

    #[test]
    fn rebuild_sharded_without_shards_is_the_sequential_rebuild() {
        // Every round runs on the calling thread and lands on the reference
        // rebuild exactly, stats included.
        let z = zones(4, 4);
        let alive = vec![true; z.len()];
        let mut dbf = DbfEngine::new(&z, 2);
        let got = dbf.rebuild_sharded(&z, &alive);
        let (want_tables, want) = reference_rebuild(&z, 2, &alive);
        assert_eq!(got, want);
        assert_tables_match(&dbf, &want_tables, "one thread");
    }

    #[test]
    fn full_rebuild_edge_cases_match_the_reference() {
        let z = zones(13, 1);
        let n = z.len();
        // Nobody alive: one silent round, no messages.
        let dead = vec![false; n];
        let (_, want) = reference_rebuild(&z, 2, &dead);
        assert_eq!((want.rounds, want.messages), (1, 0));
        assert_rebuild_matches(&z, 2, &dead, "all dead");
        // One node alive: it broadcasts its empty table once.
        let mut one = vec![false; n];
        one[6] = true;
        let (_, want) = reference_rebuild(&z, 2, &one);
        assert_eq!((want.rounds, want.messages, want.entries_sent), (2, 1, 0));
        assert_rebuild_matches(&z, 2, &one, "one alive");
        // Node 0 alive among live nodes, but with every zone neighbor
        // dead: it still broadcasts its empty table in round one.
        let mut cut_off = vec![true; n];
        for link in z.links(NodeId::new(0)) {
            cut_off[link.neighbor.index()] = false;
        }
        assert!(cut_off[0] && cut_off.iter().filter(|&&a| a).count() > 2);
        assert_rebuild_matches(&z, 2, &cut_off, "isolated alive node");
    }

    #[test]
    fn rebuild_sharded_resets_stale_state_first() {
        // Rebuilding over an engine converged on another world (a moved
        // node, a dead node) starts from scratch: the result only depends
        // on the inputs, exactly like the reference rebuild.
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let stale = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&stale, 2);
        let mut alive = vec![true; stale.len()];
        alive[6] = false;
        dbf.rebuild_sharded(&stale, &alive);

        topo.move_node(NodeId::new(12), spms_net::Point::new(1.0, 19.0));
        let zones = ZoneTable::build(&topo, &radio, 20.0);
        alive[6] = true;
        let got = dbf.rebuild_sharded(&zones, &alive);
        let (want_tables, want) = reference_rebuild(&zones, 2, &alive);
        assert_eq!(got, want);
        assert_tables_match(&dbf, &want_tables, "stale rebuild");
        // And the engine is cleanly converged: nothing left to say.
        assert!(!dbf.scratch.plane.dirty.contains(&true));
    }

    #[test]
    fn delta_costs_less_than_full_rebuild() {
        let mut topo = placement::grid(7, 7, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&old_zones, 2);
        dbf.run_to_convergence(&old_zones);

        let moved = NodeId::new(3);
        topo.move_node(moved, spms_net::Point::new(30.0, 30.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];
        let delta = ZoneDelta::between(&old_zones, &new_zones, &[moved]);
        let stats = dbf.apply_zone_delta(&new_zones, &delta, &[], &alive);

        let (_, full_stats) = reference_rebuild(&new_zones, 2, &alive);
        assert!(
            stats.entries_sent < full_stats.entries_sent / 2,
            "delta {} vs full {}",
            stats.entries_sent,
            full_stats.entries_sent
        );
        assert!(stats.bytes_total < full_stats.bytes_total);
    }

    /// `(rounds, messages, entries_sent, bytes_total, Σ i·per_node_bytes[i])`.
    fn accounting(stats: &DbfStats) -> (u32, u64, u64, u64, u64) {
        let weighted = stats
            .per_node_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| i as u64 * b)
            .sum();
        (
            stats.rounds,
            stats.messages,
            stats.entries_sent,
            stats.bytes_total,
            weighted,
        )
    }

    /// One exchange of [`scripted_13x13`]: its stats and the snapshot
    /// entries it relaxed.
    struct Scripted {
        stats: DbfStats,
        relaxed: u64,
    }

    /// Runs a scripted 13×13, k = 2 sequence on one engine: the full
    /// rebuild, the five-mover move below, a kill and revive of node 84,
    /// and a three-mover in-place zone patch. Returns every exchange, then
    /// the engine with the final zones and alive mask.
    fn scripted_13x13() -> (Vec<Scripted>, DbfEngine, ZoneTable, Vec<bool>) {
        fn step(dbf: &mut DbfEngine, run: impl FnOnce(&mut DbfEngine) -> DbfStats) -> Scripted {
            let relaxed = dbf.scratch.relaxed;
            let stats = run(dbf);
            Scripted {
                stats,
                relaxed: dbf.scratch.relaxed - relaxed,
            }
        }
        let mut topo = placement::grid(13, 13, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let movers: Vec<NodeId> = [15u32, 60, 84, 120, 150]
            .iter()
            .map(|&i| NodeId::new(i))
            .collect();
        for (j, &m) in movers.iter().enumerate() {
            let p = topo.position(m);
            topo.move_node(
                m,
                spms_net::Point::new(p.x + 7.5, (j as f64).mul_add(2.5, p.y)),
            );
        }
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let mut alive = vec![true; new_zones.len()];
        let mut dbf = DbfEngine::new(&old_zones, 2);
        let mut got = vec![step(&mut dbf, |dbf| {
            dbf.rebuild_sharded(&old_zones, &alive)
        })];
        got.push(step(&mut dbf, |dbf| {
            let delta = ZoneDelta::between(&old_zones, &new_zones, &movers);
            dbf.apply_zone_delta(&new_zones, &delta, &[], &alive)
        }));
        for up in [false, true] {
            alive[84] = up;
            got.push(step(&mut dbf, |dbf| {
                dbf.apply_zone_delta(
                    &new_zones,
                    &ZoneDelta::default(),
                    &[NodeId::new(84)],
                    &alive,
                )
            }));
        }
        let mut grid = spms_net::SpatialGrid::build(&topo, 20.0);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
        let trio = [NodeId::new(30), NodeId::new(97), NodeId::new(140)];
        for (j, &m) in trio.iter().enumerate() {
            let p = topo.position(m);
            topo.move_node(m, spms_net::Point::new(p.x - 6.0, p.y + 4.0 + j as f64));
            grid.move_node(m, topo.position(m));
        }
        let delta = zones.apply_moves(&topo, &radio, &grid, &trio);
        got.push(step(&mut dbf, |dbf| {
            dbf.apply_zone_delta(&zones, &delta, &[], &alive)
        }));
        (got, dbf, zones, alive)
    }

    #[test]
    fn delta_accounting_matches_recorded_values() {
        // Absolute stats of every exchange of the scripted 13×13 sequence.
        // The values were recorded from independent, node-major
        // implementations of the exchange — the full rebuild's from a
        // whole-vector round loop — so they pin each accounting itself,
        // not just its agreement with another path.
        let want = [
            (6, 845, 30_700, 124_490, 10_457_160),
            (7, 860, 18_021, 73_804, 6_239_820),
            (7, 720, 6_502, 27_448, 2_642_956),
            (7, 729, 6_839, 28_814, 2_767_864),
            (7, 860, 15_087, 62_068, 5_437_910),
        ];
        let (exchanges, dbf, zones, alive) = scripted_13x13();
        let got: Vec<_> = exchanges.iter().map(|x| accounting(&x.stats)).collect();
        assert_eq!(got, want);
        let (want_tables, _) = reference_rebuild(&zones, 2, &alive);
        assert_tables_match(&dbf, &want_tables, "scripted sequence");
    }

    #[test]
    fn exchanges_relax_fewer_entries_than_they_send() {
        // A re-broadcast best route is counted in the stats but not offered
        // again: in the full rebuild and in every delta exchange of the
        // scripted sequence, fewer entries reach relaxation than the
        // broadcasts carry.
        let (exchanges, ..) = scripted_13x13();
        for (i, x) in exchanges.iter().enumerate() {
            assert!(
                0 < x.relaxed && x.relaxed < x.stats.entries_sent,
                "exchange {i}: relaxed {} of {} sent",
                x.relaxed,
                x.stats.entries_sent
            );
        }
    }

    #[test]
    fn epochs_and_clones_match_the_reference() {
        // Ping-pong re-convergence re-enters the exchange many times on one
        // engine, and a clone carries on from its state: after every
        // epoch the tables equal the reference rebuild's, and the clone
        // and the original report the same stats for the next one.
        let mut topo = placement::grid(13, 13, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let zones_a = ZoneTable::build(&topo, &radio, 20.0);
        let movers: Vec<NodeId> = [15u32, 60, 84].iter().map(|&i| NodeId::new(i)).collect();
        for &m in &movers {
            let p = topo.position(m);
            topo.move_node(m, spms_net::Point::new(p.x + 7.5, p.y + 2.5));
        }
        let zones_b = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; zones_a.len()];
        let (want_a, _) = reference_rebuild(&zones_a, 2, &alive);
        let (want_b, _) = reference_rebuild(&zones_b, 2, &alive);

        let mut dbf = DbfEngine::new(&zones_a, 2);
        dbf.rebuild_sharded(&zones_a, &alive);
        let mut flips = [(&zones_a, &zones_b, &want_b), (&zones_b, &zones_a, &want_a)]
            .into_iter()
            .cycle();
        for epoch in 0..10 {
            let (from, to, want) = flips.next().unwrap();
            dbf.apply_zone_delta(to, &ZoneDelta::between(from, to, &movers), &[], &alive);
            assert_tables_match(&dbf, want, &format!("epoch {epoch}"));
        }

        let mut clone = dbf.clone();
        assert_tables_match(&clone, &want_a, "clone");
        let delta = ZoneDelta::between(&zones_a, &zones_b, &movers);
        let got_clone = clone.apply_zone_delta(&zones_b, &delta, &[], &alive);
        let got_orig = dbf.apply_zone_delta(&zones_b, &delta, &[], &alive);
        assert_eq!(got_clone, got_orig);
        assert!(got_clone.messages > 0);
        assert_tables_match(&clone, &want_b, "clone after its own epoch");
    }
}
