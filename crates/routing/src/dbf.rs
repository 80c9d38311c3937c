//! The distributed Bellman-Ford exchange.
//!
//! DBF runs in synchronous rounds: every node whose table changed since its
//! last broadcast sends its distance vector to its zone neighbors (at the
//! zone/ADV power level); receivers relax their tables; the exchange
//! quiesces when a round produces no changes. The paper quotes the classic
//! `O(n·e)` convergence bound and argues zone sizes (5–50 nodes) keep it
//! affordable — our stats let experiments verify that claim directly.
//!
//! Exchanges come in two kinds:
//!
//! * **Full** ([`DbfEngine::rebuild_sharded`]) — the paper's
//!   "re-execution of the DBF": every table is cleared, direct routes are
//!   reinstalled, and every node broadcasts its whole vector in round one;
//!   after that, every node whose table changed broadcasts its whole vector
//!   again. [`DbfEngine::run_to_convergence`] is the same rebuild with
//!   every node alive. A whole vector couples every destination its sender
//!   knows, so each round relaxes the previous round's snapshot over
//!   contiguous receiver id ranges: one range, `0..n`, run inline, unless
//!   the engine has more than one shard ([`DbfEngine::with_shards`]) and
//!   the round is heavy enough to pay for threads; then the ranges are cut
//!   to balance relaxation load, the first runs on the calling thread and
//!   each other on a scoped thread of its own, all joined before the round
//!   ends. A range walks the snapshot in sender order, clips each
//!   sender's zone links to its own ids, relaxes, and flattens its own
//!   changed nodes into its share of the next snapshot; the shares
//!   concatenate in id order.
//! * **Delta** ([`DbfEngine::update_topology`] /
//!   [`DbfEngine::invalidate_zone`] / [`DbfEngine::apply_zone_delta`]) —
//!   real distance-vector deployments propagate triggered *deltas*, not
//!   full vectors. A topology event invalidates only the destinations it
//!   can actually affect, reseeds their direct routes, and re-converges
//!   with vectors that carry only the changed entries. A delta entry for
//!   destination `d` only ever lands in a route to `d`, so destinations
//!   never interact, and the exchange converges them one at a time. While
//!   it runs, the routes to the affected destinations live in a dense
//!   *route plane* rather than in the tables: each destination owns a
//!   contiguous run of `k`-slot blocks, one per zone link of it in link
//!   order, destinations in id order. A destination's rounds run over a
//!   local adjacency built once per exchange — each alive maintainer's
//!   alive zone neighbors that maintain the destination too — so no offer
//!   leaves its scope. A round counts the destination's changed blocks
//!   (its *dirty* slots), snapshots in ascending maintainer id those whose
//!   best route is news, and offers them along that adjacency; an inlined
//!   test turns away the offers the block kernel would reject before
//!   calling it. A sharded engine cuts a heavy exchange into contiguous
//!   runs of destinations and runs them the same way, one set of threads
//!   per exchange. After quiescence each maintainer's table drops its
//!   affected destinations and takes the converged blocks in one in-place
//!   merge — on the run's thread, inside the run that holds all of the
//!   maintainer's affected destinations, if one does. [`DbfStats`] are
//!   integer sums over per-(round, node) entry counts: a node's round-`r`
//!   message carries its changed routes to every destination still
//!   converging in round `r`.
//!
//! Both kinds relax only *news*. A broadcast is counted whole, so
//! [`DbfStats`] tally every entry it carries, but receivers are offered
//! only the entries whose best `(cost, hops)` differs from what that
//! sender broadcast earlier in the same exchange: a flagged node of a full
//! round puts only its changed entries into the snapshot, and a dirty
//! block of a delta round whose best is unchanged since its last snapshot
//! offers nothing. RIP's triggered updates skip the same waste, carrying
//! only the routes whose route-change flag is set (RFC 2453, §3.10.1).
//! This is exact because every exchange starts from reset tables or from
//! empty plane blocks: each sender's best only improves, so each offer a
//! receiver gets from one sender improves on the previous one, and an
//! offer the receiver has already relaxed can neither enter its block nor
//! move it. That needs a transitive route order: every two route costs
//! either within the tables' tie window (`COST_EPS`) of each other or
//! more than twice the window apart. The Dijkstra oracle and DBF already
//! rely on the same precondition to agree; the `table` module's proptests
//! pin the kernel side of it.
//!
//! Every receiver relaxes its vectors (full) or offers (delta) in
//! ascending sender order however the work is cut, and a node's table or
//! plane slots are only ever touched by the range or run that owns them,
//! so tables and [`DbfStats`] are bit-identical for every shard count.
//! Thread count can never change routing results, only wall-clock time.
//! The sequential full rebuild [`crate::reference_rebuild`] shares no code
//! with either kind and is the reference both are property-tested
//! against.
//!
//! The incremental scheme leans on a structural fact of zone routing: a
//! node only maintains destinations inside its own zone, and every relay on
//! a path toward destination `d` must itself maintain `d` — so every route
//! to `d` stays within `d`'s direct zone neighborhood. A node event (move,
//! failure, repair) can therefore only disturb routes to the destinations
//! adjacent to it (under the old or new zone table), and those routes only
//! live at those destinations' direct neighbors. Wiping and reseeding that
//! bounded set, then re-running the exchange restricted to it, provably
//! reaches the same fixpoint as a from-scratch rebuild — bit-for-bit, which
//! the `incremental` proptest suite asserts.

use spms_net::{NodeId, ZoneDelta, ZoneTable};

/// Minimum load before work is cut into pieces that run on threads of
/// their own; lighter work runs inline, away from a thread spawn. The unit
/// is (entry, receiver) pairs. A full round's load is its own: each
/// broadcaster's news entries times its zone links (dead receivers
/// included, which only a failure-masked rebuild has). A
/// delta exchange's is Σ `m²` over its alive affected destinations, `m`
/// being a destination's maintainer count: the pairs of one round in which
/// every maintainer of every destination speaks. Measured on a 2-vCPU Xeon
/// VM, a two-shard engine that threads every piece against one that never
/// does, alternated per exchange over ten sessions (delta exchanges of
/// 1–24 movers and full rebuilds, 4×4 to 25×25 grids at 7.5–20 m radius):
/// between 8,000 and 10,000 units the threaded engine took 1.04× the
/// inline time on delta exchanges and 1.21× on full rounds, between
/// 10,000 and 12,000 units 0.95× and 0.71×. Purely a scheduling choice:
/// the executed relaxation is identical either way.
const SHARD_MIN_LOAD: u64 = 10_000;

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

/// One full-round snapshot entry: `(destination id, best cost, best hops)`.
type Entry = (u32, f64, u32);

/// The local id of a node outside the set being numbered.
const NONE: u32 = u32::MAX;

/// The convergence bound for an `n`-node exchange. Positive weights: path
/// costs strictly increase with hops, so convergence takes at most
/// diameter + 2 rounds; `n + 4` is a safe bound.
fn max_rounds(n: usize) -> u32 {
    (n as u32).max(8) + 4
}

/// A delta exchange's affected destinations and route-plane layout, fixed
/// for the exchange.
#[derive(Clone, Debug, Default)]
struct Scope {
    /// The affected destinations, in id order.
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
    /// `(slot, affected-destination index)` pairs, destinations ascending.
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
            for slot in self.first[di]..self.first[di + 1] {
                let x = self.slot_node[slot as usize] as usize;
                self.row[x] -= 1;
                self.row_slots[self.row[x] as usize] = (slot, di as u32);
            }
        }
    }

    /// The plane slots of `dests[lo..hi]`.
    fn slots(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        self.first[lo] as usize..self.first[hi] as usize
    }
}

/// The delta exchange's route plane: one `k`-slot block per scope slot,
/// best first, in the tables' SoA layout.
#[derive(Clone, Debug, Default)]
struct Plane {
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
        self.lens.clear();
        self.lens.resize(slots, 0);
        self.dirty.clear();
        self.dirty.resize(slots, false);
        self.via.resize(slots * k, VACANT.via);
        self.cost.resize(slots * k, VACANT.cost);
        self.hops.resize(slots * k, VACANT.hops);
    }
}

/// The plane slots `base..base + lens.len()`, borrowed by one destination
/// run.
struct PlaneMut<'a> {
    base: usize,
    k: usize,
    lens: &'a mut [u32],
    dirty: &'a mut [bool],
    via: &'a mut [NodeId],
    cost: &'a mut [f64],
    hops: &'a mut [u32],
}

impl<'a> PlaneMut<'a> {
    fn new(plane: &'a mut Plane, k: usize) -> Self {
        PlaneMut {
            base: 0,
            k,
            lens: &mut plane.lens,
            dirty: &mut plane.dirty,
            via: &mut plane.via,
            cost: &mut plane.cost,
            hops: &mut plane.hops,
        }
    }

    /// Splits off the first `slots` slots.
    fn split_at(self, slots: usize) -> (Self, Self) {
        let k = self.k;
        let (lens, lens_rest) = self.lens.split_at_mut(slots);
        let (dirty, dirty_rest) = self.dirty.split_at_mut(slots);
        let (via, via_rest) = self.via.split_at_mut(slots * k);
        let (cost, cost_rest) = self.cost.split_at_mut(slots * k);
        let (hops, hops_rest) = self.hops.split_at_mut(slots * k);
        (
            PlaneMut {
                base: self.base,
                k,
                lens,
                dirty,
                via,
                cost,
                hops,
            },
            PlaneMut {
                base: self.base + slots,
                k,
                lens: lens_rest,
                dirty: dirty_rest,
                via: via_rest,
                cost: cost_rest,
                hops: hops_rest,
            },
        )
    }

    /// Offers `route` to the block at `s` (relative to `base`) with the
    /// tables' block kernel, behind [`offer_rejected`]; a change sets the
    /// slot's dirty bit.
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

/// One destination run's reusable buffers. The adjacency and snapshot
/// are rebuilt for each destination; the counts accumulate over the run.
#[derive(Clone, Debug, Default)]
struct DestRun {
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
    /// Entries each maintainer sent per round over the run's
    /// destinations: `counts[r * nodes + x]` for exchange id `x`.
    counts: Vec<u32>,
    /// Snapshot entries offered to receivers (see [`Scratch::relaxed`]).
    relaxed: u64,
    /// The tables, by exchange id, of the maintainers whose affected
    /// destinations all lie in this run, borrowed for a threaded exchange.
    owned: Vec<(u32, RoutingTable)>,
    /// Write-back buffers.
    row: RowBlocks,
}

/// One maintainer's affected destinations and converged blocks, gathered
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
    /// Trades `table`'s routes to maintainer `x`'s affected destinations
    /// for their converged blocks in `plane`, in one merge.
    fn write_back(
        &mut self,
        scope: &Scope,
        x: usize,
        plane: &PlaneMut<'_>,
        table: &mut RoutingTable,
    ) {
        let k = plane.k;
        self.dests.clear();
        self.lens.clear();
        self.via.clear();
        self.cost.clear();
        self.hops.clear();
        for &(slot, di) in &scope.row_slots[scope.row[x] as usize..scope.row[x + 1] as usize] {
            let s = slot as usize - plane.base;
            self.dests.push(scope.dests[di as usize]);
            self.lens.push(plane.lens[s]);
            self.via.extend_from_slice(&plane.via[s * k..(s + 1) * k]);
            self.cost.extend_from_slice(&plane.cost[s * k..(s + 1) * k]);
            self.hops.extend_from_slice(&plane.hops[s * k..(s + 1) * k]);
        }
        table.splice(&self.dests, &self.lens, &self.via, &self.cost, &self.hops);
    }
}

/// Reusable buffers for the synchronous exchange, hoisted out of the round
/// loop so steady-state inline rounds allocate nothing (a threaded round
/// allocates only its short task list and its threads).
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Full rounds: the nodes that broadcast next — every alive node in
    /// the first round, then every node whose table changed.
    flags: Vec<bool>,
    /// Full rounds: the round's snapshot, every broadcast entry that is
    /// news, flattened.
    snap_entries: Vec<Entry>,
    /// Full rounds: `(sender, start, end)` ranges into `snap_entries`, one
    /// per broadcaster (empty when it had no news), in sender order.
    snap_from: Vec<(NodeId, u32, u32)>,
    /// Full rounds: the best `(cost, hops)` each node last broadcast per
    /// destination, [`UNSENT`] before its first broadcast; node `a`'s
    /// entries are `sent[sent_start[a]..sent_start[a + 1]]`, aligned with
    /// its table's positions (fixed from the reset to quiescence). As
    /// large as all tables together, so it is released after each full
    /// exchange rather than kept between them.
    sent: Vec<(f64, u32)>,
    sent_start: Vec<u32>,
    /// Threaded full rounds: each receiver range's share of the next
    /// snapshot's entries.
    range_entries: Vec<Vec<Entry>>,
    /// Threaded full rounds: each receiver range's share of the next
    /// snapshot's senders (ranges relative to its own entry buffer until
    /// concatenation rebases them).
    range_from: Vec<Vec<(NodeId, u32, u32)>>,
    /// The planners' balancing weights: per receiver in a full round (the
    /// entries addressed to it), per affected destination in a delta
    /// exchange.
    load: Vec<u64>,
    /// Receiver range boundary node ids of a full round, or destination
    /// run boundary indices into the scope's destinations of a delta
    /// exchange (`bounds[i]..bounds[i+1]`).
    bounds: Vec<usize>,
    /// All-alive mask for [`DbfEngine::run_to_convergence`].
    all_alive: Vec<bool>,
    /// Membership bitmap for the affected destination set.
    affected: Vec<bool>,
    /// Delta exchanges: the affected destinations and plane layout.
    scope: Scope,
    /// Delta exchanges: the routes to the affected destinations.
    plane: Plane,
    /// Delta exchanges: one scratch per destination run.
    runs: Vec<DestRun>,
    /// Rounds and exchanges handed to [`run_split`] so far; the unit
    /// tests read it to tell threaded work from inline work.
    threaded: u64,
    /// Snapshot entries offered to receivers so far, full rounds and delta
    /// exchanges alike; the unit tests compare it with
    /// [`DbfStats::entries_sent`] to see that only news is relaxed.
    relaxed: u64,
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
    /// The most pieces heavy work is cut into — receiver ranges of a full
    /// round, destination runs of a delta exchange; `1` runs everything
    /// inline. Bit-identical for every value.
    shards: usize,
    scratch: Scratch,
}

impl DbfEngine {
    /// Creates a one-shard engine with one empty routing table per zone
    /// node, keeping `k` alternatives per destination. It holds no routes
    /// until the first rebuild ([`DbfEngine::rebuild_sharded`] or
    /// [`DbfEngine::run_to_convergence`]), which installs the direct
    /// routes and runs the rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(zones: &ZoneTable, k: usize) -> Self {
        DbfEngine {
            tables: (0..zones.len()).map(|_| RoutingTable::new(k)).collect(),
            k,
            shards: 1,
            scratch: Scratch::default(),
        }
    }

    /// Lets heavy work run on up to `shards` threads: a heavy full round is
    /// cut into at most `shards` receiver ranges of balanced relaxation
    /// load, a heavy delta exchange into at most `shards` runs of
    /// destinations; the first piece runs on the calling thread and each
    /// other piece on a scoped thread spawned for it. `1` (the default)
    /// runs everything inline and never spawns a thread. Tables and stats
    /// are bit-identical for every shard count (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shards must be at least 1");
        self.shards = shards;
        self
    }

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Stores every routing table in `layout` ([`TableLayout::Soa`] planes
    /// by default). The AoS layout is the differential oracle: the layout
    /// proptest suites replay identical exchanges through both arenas and
    /// assert bit-identical tables and [`DbfStats`]. Like the shard count,
    /// the layout can never change routing results, only wall-clock time.
    #[must_use]
    pub fn with_table_layout(mut self, layout: TableLayout) -> Self {
        for table in &mut self.tables {
            table.convert_layout(layout);
        }
        self
    }

    /// The arena layout the engine's tables are stored in.
    #[must_use]
    pub fn table_layout(&self) -> TableLayout {
        self.tables
            .first()
            .map_or_else(TableLayout::default, RoutingTable::layout)
    }

    /// The number of route alternatives kept per destination.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Clears every table and reinstalls the direct routes between alive
    /// zone neighbors — the starting point of a full rebuild.
    fn reset(&mut self, zones: &ZoneTable, alive: &[bool]) {
        assert_eq!(alive.len(), zones.len(), "alive mask length mismatch");
        for table in &mut self.tables {
            table.clear();
        }
        for a in 0..zones.len() {
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
                self.tables[a].offer_ascending(
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
    }

    /// The full rebuild, skipping dead nodes — the paper's "re-execution of
    /// the DBF" after mobility or failure: every table is cleared, direct
    /// routes are reinstalled, and full-vector rounds run to quiescence
    /// across the configured shard count. Tables **and** stats are
    /// bit-identical to [`crate::reference_rebuild`] for every shard count
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the alive mask length does not match, or if the exchange
    /// fails to converge within a generous bound (which would indicate a
    /// negative-cost or bookkeeping bug, as positive-weight DBF always
    /// converges).
    pub fn rebuild_sharded(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        self.reset(zones, alive);
        self.run_rounds(zones, alive)
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

    /// The full rebuild with every node alive: resets every table to its
    /// direct routes first, whatever it held, then runs full-vector rounds
    /// until quiescence, round one having every node broadcast its whole
    /// vector. The reset is what makes news-only relaxation exact (see the
    /// module docs).
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

    /// Incrementally re-converges after a node liveness event (failure or
    /// repair) without touching zones the event cannot reach. `changed`
    /// names the nodes whose liveness flipped; `alive` is the new mask.
    /// Equivalent to [`DbfEngine::update_topology`] with identical old and
    /// new zone tables.
    pub fn invalidate_zone(
        &mut self,
        zones: &ZoneTable,
        changed: &[NodeId],
        alive: &[bool],
    ) -> DbfStats {
        self.update_topology(zones, zones, changed, alive)
    }

    /// Incrementally re-converges after a topology change: `changed` names
    /// the nodes that moved (or whose liveness flipped), `old_zones` /
    /// `new_zones` are the zone tables before and after the event, and
    /// `alive` is the current liveness mask.
    ///
    /// Only the destinations a changed node is adjacent to (under either
    /// zone table) can have gained, lost, or re-priced routes — every route
    /// to a destination runs through that destination's direct neighbors.
    /// Those destinations are invalidated at their maintainers, direct
    /// routes are reseeded, and the delta exchange re-converges just that
    /// slice of the network. Tables end bit-identical to a from-scratch
    /// [`crate::reference_rebuild`] (property-tested), at a fraction of the
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if the zone tables or the alive mask disagree on the node
    /// count, or if the exchange fails to converge within the same bound as
    /// the full rebuild.
    pub fn update_topology(
        &mut self,
        old_zones: &ZoneTable,
        new_zones: &ZoneTable,
        changed: &[NodeId],
        alive: &[bool],
    ) -> DbfStats {
        let n = new_zones.len();
        assert_eq!(old_zones.len(), n, "zone table length mismatch");
        assert_eq!(alive.len(), n, "alive mask length mismatch");

        // Affected destinations: each changed node and everything adjacent
        // to it before or after the event.
        let mut affected = std::mem::take(&mut self.scratch.affected);
        affected.clear();
        affected.resize(n, false);
        for &c in changed {
            affected[c.index()] = true;
            for link in old_zones.links(c) {
                affected[link.neighbor.index()] = true;
            }
            for link in new_zones.links(c) {
                affected[link.neighbor.index()] = true;
            }
        }
        self.scratch.scope.lay_out(new_zones, &affected);

        // A changed node that is down holds no routes at all.
        for &c in changed {
            if !alive[c.index()] {
                self.tables[c.index()].clear();
            }
        }

        // Old maintainers may hold routes the new adjacency no longer
        // justifies: wipe the affected destinations at their *old* zone
        // neighbors, unless the write-back replaces those routes anyway —
        // that is, unless they are new zone neighbors too (both link lists
        // ascend by neighbor id, so one cursor walks them together).
        for &d in &self.scratch.scope.dests {
            let new_links = new_zones.links(d);
            let mut j = 0;
            for link in old_zones.links(d) {
                let a = link.neighbor;
                while j < new_links.len() && new_links[j].neighbor < a {
                    j += 1;
                }
                let maintains = new_links.get(j).is_some_and(|l| l.neighbor == a);
                if alive[a.index()] && !maintains {
                    self.tables[a.index()].remove_dest(d);
                }
            }
        }
        self.scratch.affected = affected;

        self.reconverge_affected(new_zones, alive)
    }

    /// Incrementally re-converges after an **in-place** zone patch
    /// ([`ZoneTable::apply_moves`]): the old zone table no longer exists,
    /// so the pre-move adjacency needed to retire stale routes comes from
    /// the [`ZoneDelta`] instead. `also_changed` names nodes whose
    /// liveness flipped since the last convergence without a zone change
    /// (their zones are invalidated under the current — unchanged — table,
    /// as [`DbfEngine::invalidate_zone`] would); `alive` is the current
    /// mask. Tables end bit-identical to a from-scratch rebuild under the
    /// patched zones (property-tested alongside
    /// [`DbfEngine::update_topology`]).
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

        // Affected destinations: the patch already rebuilt the rows of
        // every moved node and everyone inside its old or new zone —
        // `changed_nodes` is exactly that set. Liveness flips add their
        // own (unchanged) zones.
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

        // The old-adjacency wipe `update_topology` reads from `old_zones`:
        // for non-moved pairs the old and new maintainer sets coincide
        // (their mutual distances did not change), so the only stale state
        // the new table cannot name is between a moved node and its
        // pre-move neighbors — exactly what the delta recorded. Pairs the
        // write-back replaces are skipped.
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

        self.reconverge_affected(zones, alive)
    }

    /// Shared tail of the incremental paths. Expects `scratch.scope` laid
    /// out under the **new** zones (and any old-adjacency wipes already
    /// done): empties every plane block, converges the routes to every
    /// affected destination on its own plane slots (in destination runs on
    /// threads of their own when the exchange is heavy and the engine
    /// sharded), writes the converged blocks back, and sums the runs'
    /// per-(round, node) entry counts into the stats. The write-back
    /// replaces each alive maintainer's routes to its affected destinations
    /// in one merge, so the tables are never wiped separately; no exchange
    /// step reads those routes from the tables. When runs are threaded, a
    /// run merges the maintainers whose affected destinations all lie in
    /// it; the rest merge after the runs are joined.
    fn reconverge_affected(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        let n = zones.len();
        let k = self.k;
        let mut s = std::mem::take(&mut self.scratch);
        s.plane.reset(s.scope.slot_node.len(), k);
        plan_runs(alive, &s.scope, self.shards, &mut s.load, &mut s.bounds);
        let runs = s.bounds.len() - 1;
        if s.runs.len() < runs {
            s.runs.resize_with(runs, DestRun::default);
        }
        for run in &mut s.runs[..runs] {
            run.local.resize(n, NONE);
            run.counts.clear();
        }
        let exchange = Exchange {
            zones,
            alive,
            scope: &s.scope,
            max_rounds: max_rounds(n),
        };
        let mut plane = PlaneMut::new(&mut s.plane, k);
        if runs == 1 {
            converge_run(
                &exchange,
                0..s.scope.dests.len(),
                &mut plane,
                &mut s.runs[0],
            );
        } else {
            // A maintainer whose affected destinations all lie in one run
            // is written back by that run as soon as it has converged: the
            // run borrows the table until the runs are joined.
            for (x, &a) in s.scope.nodes.iter().enumerate() {
                if let Some(r) = owner(&s.scope, &s.bounds, x).filter(|_| alive[a.index()]) {
                    let table =
                        std::mem::replace(&mut self.tables[a.index()], RoutingTable::new(k));
                    s.runs[r].owned.push((x as u32, table));
                }
            }
            s.threaded += 1;
            let mut tasks = Vec::with_capacity(runs);
            for (w, run) in s.bounds.windows(2).zip(&mut s.runs) {
                let (mine, rest) = plane.split_at(s.scope.slots(w[0], w[1]).len());
                plane = rest;
                tasks.push((w[0]..w[1], mine, run));
            }
            run_split(&mut tasks, |(dests, plane, run)| {
                converge_run(&exchange, dests.clone(), plane, run);
                for (x, table) in &mut run.owned {
                    run.row
                        .write_back(exchange.scope, *x as usize, plane, table);
                }
            });
            drop(tasks);
            for run in &mut s.runs[..runs] {
                for (x, table) in run.owned.drain(..) {
                    self.tables[s.scope.nodes[x as usize].index()] = table;
                }
            }
        }
        // Write back the rest: every other alive maintainer trades its
        // routes to its affected destinations for the converged blocks.
        let plane = PlaneMut::new(&mut s.plane, k);
        for (x, &a) in s.scope.nodes.iter().enumerate() {
            if alive[a.index()] && (runs == 1 || owner(&s.scope, &s.bounds, x).is_none()) {
                let table = &mut self.tables[a.index()];
                s.runs[0].row.write_back(&s.scope, x, &plane, table);
            }
        }

        for run in &mut s.runs[..runs] {
            s.relaxed += std::mem::take(&mut run.relaxed);
        }
        // Sum the runs' counts: a node's round-`r` message carries its
        // entries for every destination, whichever run converged it.
        let (head, tail) = s.runs[..runs].split_first_mut().expect("one run");
        for run in tail {
            if head.counts.len() < run.counts.len() {
                head.counts.resize(run.counts.len(), 0);
            }
            for (sum, &c) in head.counts.iter_mut().zip(&run.counts) {
                *sum += c;
            }
        }
        let nodes = s.scope.nodes.len();
        let mut stats = DbfStats::new(n);
        // Rounds: one per non-empty snapshot of the longest destination,
        // plus the final silent one.
        stats.rounds = 1 + head.counts.len().checked_div(nodes).unwrap_or(0) as u32;
        for (i, &c) in head.counts.iter().enumerate() {
            if c > 0 {
                stats.count(s.scope.nodes[i % nodes], c as usize);
            }
        }
        self.scratch = s;
        stats
    }

    /// The full round loop, run to quiescence from freshly reset tables.
    /// Each round relaxes the current snapshot over the planned receiver
    /// ranges, then flattens each range's flagged nodes into the next
    /// snapshot: inline, straight into the snapshot buffers, for one range;
    /// on threads of their own, into per-range buffers concatenated in id
    /// order, for more. A flagged node broadcasts its whole vector, but only
    /// the entries that are news against its previous broadcast enter the
    /// snapshot. It starts from an empty snapshot with every alive node
    /// flagged, so its first pass only flattens round one's broadcasters.
    /// The exchange quiesces after a round in which no node had anything to
    /// send (counted: the final silent round).
    fn run_rounds(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        let n = zones.len();
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        let mut stats = DbfStats::new(n);
        let mut s = std::mem::take(&mut self.scratch);
        s.flags.clear();
        s.flags.extend_from_slice(alive);
        s.snap_entries.clear();
        s.snap_from.clear();
        // Relaxation never adds a destination to a reset table, so every
        // table keeps its positions until quiescence.
        s.sent_start.clear();
        s.sent_start.push(0);
        let mut total = 0u32;
        for table in &self.tables {
            total += table.len() as u32;
            s.sent_start.push(total);
        }
        s.sent.clear();
        s.sent.resize(total as usize, UNSENT);
        let max_rounds = max_rounds(n);
        for _round in 0..max_rounds {
            plan_ranges(zones, &s.snap_from, self.shards, &mut s.load, &mut s.bounds);
            let ranges = s.bounds.len() - 1;
            let round = Round {
                zones,
                alive,
                entries: &s.snap_entries,
                from: &s.snap_from,
            };
            s.relaxed += s.snap_entries.len() as u64;
            let had = if ranges == 1 {
                let mut range = RangeTask {
                    lo: 0,
                    flags: &mut s.flags,
                    tables: &mut self.tables,
                    sent_start: &s.sent_start,
                    sent: &mut s.sent,
                };
                relax_range(&round, &mut range);
                // Relaxation has read the snapshot: flatten over it.
                s.snap_entries.clear();
                s.snap_from.clear();
                flatten_range(&mut range, &mut s.snap_entries, &mut s.snap_from)
            } else {
                s.threaded += 1;
                if s.range_entries.len() < ranges {
                    s.range_entries.resize_with(ranges, Vec::new);
                    s.range_from.resize_with(ranges, Vec::new);
                }
                let mut tasks = Vec::with_capacity(ranges);
                let mut tables = self.tables.as_mut_slice();
                let mut flags = s.flags.as_mut_slice();
                let mut sent = s.sent.as_mut_slice();
                for ((w, entries), from) in s
                    .bounds
                    .windows(2)
                    .zip(&mut s.range_entries)
                    .zip(&mut s.range_from)
                {
                    let len = w[1] - w[0];
                    let sent_len = (s.sent_start[w[1]] - s.sent_start[w[0]]) as usize;
                    let (tables_mine, tables_rest) = std::mem::take(&mut tables).split_at_mut(len);
                    let (flags_mine, flags_rest) = std::mem::take(&mut flags).split_at_mut(len);
                    let (sent_mine, sent_rest) = std::mem::take(&mut sent).split_at_mut(sent_len);
                    tables = tables_rest;
                    flags = flags_rest;
                    sent = sent_rest;
                    let range = RangeTask {
                        lo: w[0],
                        flags: flags_mine,
                        tables: tables_mine,
                        sent_start: &s.sent_start[w[0]..=w[1]],
                        sent: sent_mine,
                    };
                    entries.clear();
                    from.clear();
                    tasks.push((range, entries, from, false));
                }
                // A range flattens as soon as its own relaxation is done,
                // while other ranges may still be reading the snapshot.
                run_split(&mut tasks, |(range, entries, from, had)| {
                    relax_range(&round, range);
                    *had = flatten_range(range, entries, from);
                });
                let had = tasks.iter().any(|task| task.3);
                drop(tasks);
                s.snap_entries.clear();
                s.snap_from.clear();
                for (entries, from) in s.range_entries[..ranges].iter().zip(&s.range_from) {
                    let base = s.snap_entries.len() as u32;
                    s.snap_entries.extend_from_slice(entries);
                    s.snap_from
                        .extend(from.iter().map(|&(f, a, b)| (f, a + base, b + base)));
                }
                had
            };
            stats.rounds += 1;
            if !had {
                s.sent = Vec::new();
                self.scratch = s;
                return stats; // quiescent: nobody has updates to send
            }
            // Every broadcaster sent its whole vector, news or not. All
            // sums are integers, so the accounting is independent of how
            // the round was cut.
            for &(from, _, _) in &s.snap_from {
                stats.count(from, self.tables[from.index()].len());
            }
        }
        panic!("DBF failed to converge within {max_rounds} rounds");
    }
}

/// Whether `a` maintains the affected destination `d` under `zones` (the
/// new zones), which makes the write-back replace its routes to `d`.
fn maintains(zones: &ZoneTable, affected: &[bool], a: NodeId, d: NodeId) -> bool {
    affected[d.index()] && zones.link_to(d, a).is_some()
}

/// The destination run (`bounds[r]..bounds[r + 1]`) holding every affected
/// destination of maintainer `x`, if one run holds them all.
fn owner(scope: &Scope, bounds: &[usize], x: usize) -> Option<usize> {
    let row = &scope.row_slots[scope.row[x] as usize..scope.row[x + 1] as usize];
    let run = |di: u32| bounds.partition_point(|&b| b <= di as usize) - 1;
    let first = run(row.first()?.1);
    (run(row.last()?.1) == first).then_some(first)
}

/// Cuts the receiver id space `0..n` for one full round into `bounds`
/// when the engine is sharded. Each sender's id carries the pairs its
/// broadcast offers, its news entries times its zone links, in place of
/// the receivers that relax them: that keeps this serial step O(senders)
/// rather than O(links). A sender's receivers lie near it in id order on a
/// grid, and anywhere on a field whose ids ignore position; either way a
/// cut that balances senders balances receivers closely. The weights only
/// steer the cut: each range relaxes its own receivers exactly.
fn plan_ranges(
    zones: &ZoneTable,
    snap_from: &[(NodeId, u32, u32)],
    shards: usize,
    load: &mut Vec<u64>,
    bounds: &mut Vec<usize>,
) {
    let n = zones.len();
    load.clear();
    if shards > 1 {
        load.resize(n, 0);
        for &(from, start, end) in snap_from {
            load[from.index()] = u64::from(end - start) * zones.links(from).len() as u64;
        }
    }
    cut(load, n, shards, bounds);
}

/// Cuts a delta exchange's destinations `0..scope.dests.len()` into
/// destination runs in `bounds`, weighing each alive destination by `m²`
/// for its `m` maintainers when the engine is sharded.
fn plan_runs(
    alive: &[bool],
    scope: &Scope,
    shards: usize,
    load: &mut Vec<u64>,
    bounds: &mut Vec<usize>,
) {
    load.clear();
    if shards > 1 {
        load.extend(scope.dests.iter().enumerate().map(|(di, d)| {
            let m = scope.slots(di, di + 1).len() as u64;
            if alive[d.index()] {
                m * m
            } else {
                0
            }
        }));
    }
    cut(load, scope.dests.len(), shards, bounds);
}

/// Cuts `0..len` into `bounds` (`bounds[i]..bounds[i + 1]`): one piece,
/// unless the per-index `load` (empty on a one-shard engine) totals at
/// least [`SHARD_MIN_LOAD`]; then at most `shards` contiguous pieces of
/// ≈ equal load.
fn cut(load: &[u64], len: usize, shards: usize, bounds: &mut Vec<usize>) {
    bounds.clear();
    bounds.push(0);
    let total: u64 = load.iter().sum();
    if total >= SHARD_MIN_LOAD {
        let target = total.div_ceil(shards as u64);
        let mut acc = 0u64;
        for (i, &l) in load.iter().enumerate() {
            acc += l;
            if acc >= target && bounds.len() < shards && i + 1 < len {
                bounds.push(i + 1);
                acc = 0;
            }
        }
    }
    bounds.push(len);
}

/// Runs `f` once on every task: the first on the calling thread, the
/// others on whichever thread takes them first from a shared queue, the
/// caller or one of the scoped threads spawned for them (one per task
/// past the first). A caller whose spawned threads are slow to start,
/// say on a busy core, takes their pieces over instead of waiting.
/// Returns once every task has finished; a panicking task then panics the
/// caller.
fn run_split<T: Send>(tasks: &mut [T], f: impl Fn(&mut T) + Sync) {
    let spawned = tasks.len().saturating_sub(1);
    let mut queue = tasks.iter_mut();
    let Some(first) = queue.next() else {
        return;
    };
    // The lock is held only to take a task, never while one runs, so a
    // panicking task cannot poison it.
    let queue = std::sync::Mutex::new(queue);
    let take = || queue.lock().expect("never held by a task").next();
    let drain = || {
        while let Some(task) = take() {
            f(task);
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(drain);
        }
        f(first);
        drain();
    });
}

/// The read-only inputs every destination run of a delta exchange shares.
struct Exchange<'a> {
    zones: &'a ZoneTable,
    alive: &'a [bool],
    scope: &'a Scope,
    max_rounds: u32,
}

/// Converges the routes to the alive destinations among
/// `scope.dests[dests]`, one destination at a time, on the run's plane
/// slots, counting the entries each maintainer sends per round into
/// `run.counts`.
fn converge_run(
    x: &Exchange<'_>,
    dests: std::ops::Range<usize>,
    plane: &mut PlaneMut<'_>,
    run: &mut DestRun,
) {
    for di in dests {
        if x.alive[x.scope.dests[di].index()] {
            converge_dest(x, di, plane, run); // nobody routes to a dead destination
        }
    }
}

/// Converges the routes to `d = scope.dests[di]` on its plane blocks —
/// block `i` holds the routes of `d`'s `i`-th zone neighbor — from empty
/// blocks: reseeds the surviving direct routes, then runs synchronous
/// rounds until no block changes.
fn converge_dest(x: &Exchange<'_>, di: usize, plane: &mut PlaneMut<'_>, run: &mut DestRun) {
    let d = x.scope.dests[di];
    let links = x.zones.links(d);
    let slots = x.scope.slots(di, di + 1);
    let b = slots.start - plane.base;
    // The local adjacency: each alive maintainer's alive zone neighbors
    // that maintain `d` too, in neighbor id order. Only alive maintainers
    // get a local id, so one load answers both questions. Whether a zone
    // neighbor maintains `d` follows no pattern a branch predictor learns,
    // so every candidate is written and only the hits advance the end.
    for (i, link) in links.iter().enumerate() {
        if x.alive[link.neighbor.index()] {
            run.local[link.neighbor.index()] = i as u32;
        }
    }
    run.adj_start.clear();
    run.adj_start.push(0);
    let mut end = 0usize;
    for link in links {
        if run.local[link.neighbor.index()] != NONE {
            let hops = x.zones.links(link.neighbor);
            if run.adj.len() < end + hops.len() {
                run.adj.resize(end + hops.len(), (NONE, 0.0));
            }
            for hop in hops {
                let j = run.local[hop.neighbor.index()];
                run.adj[end] = (j, hop.weight);
                end += usize::from(j != NONE);
            }
        }
        run.adj_start.push(end as u32);
    }
    for link in links {
        run.local[link.neighbor.index()] = NONE;
    }

    // Reseed the surviving direct routes. Link weights are symmetric
    // (shared radio profile), so the d→a weight doubles as a's direct cost
    // to d.
    for (i, link) in links.iter().enumerate() {
        if x.alive[link.neighbor.index()] {
            let direct = RouteEntry {
                via: d,
                cost: link.weight,
                hops: 1,
            };
            plane.offer(b + i, direct);
        }
    }

    let nodes = x.scope.nodes.len();
    let k = plane.k;
    run.sent.clear();
    run.sent.resize(links.len(), UNSENT);
    let mut round = 0usize;
    loop {
        // Every dirty block broadcasts its best route and is counted; its
        // bit is cleared, so this round's offers are next round's news.
        // Only a best that differs from the block's previous offer enters
        // the snapshot: the neighbors have already relaxed that one.
        let row = round * nodes;
        let mut spoke = false;
        run.snap.clear();
        for i in 0..links.len() {
            let s = b + i;
            if std::mem::take(&mut plane.dirty[s]) {
                if !spoke {
                    spoke = true;
                    if run.counts.len() < row + nodes {
                        run.counts.resize(row + nodes, 0);
                    }
                }
                run.counts[row + x.scope.slot_node[slots.start + i] as usize] += 1;
                let best = (plane.cost[s * k], plane.hops[s * k]);
                if is_news(best, run.sent[i]) {
                    run.sent[i] = best;
                    run.snap.push((i as u32, best.0, best.1));
                }
            }
        }
        if !spoke {
            return;
        }
        run.relaxed += run.snap.len() as u64;
        round += 1;
        assert!(
            round < x.max_rounds as usize,
            "DBF failed to converge within {} rounds",
            x.max_rounds
        );
        // Offers reach each block in ascending sender id, the snapshot's
        // order.
        for &(i, cost, hops) in &run.snap {
            let via = links[i as usize].neighbor;
            let adj = &run.adj
                [run.adj_start[i as usize] as usize..run.adj_start[i as usize + 1] as usize];
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

/// The read-only inputs every receiver range of a full round shares.
struct Round<'a> {
    zones: &'a ZoneTable,
    alive: &'a [bool],
    /// The round's snapshot entries.
    entries: &'a [Entry],
    /// The round's `(sender, start, end)` ranges, in sender order.
    from: &'a [(NodeId, u32, u32)],
}

/// One receiver range `lo..lo + flags.len()` of a full round: its
/// disjoint slices of the per-node state.
struct RangeTask<'a> {
    lo: usize,
    flags: &'a mut [bool],
    tables: &'a mut [RoutingTable],
    /// The range's [`Scratch::sent_start`] entries, one past its last node
    /// included: node `lo + off` owns
    /// `sent[sent_start[off] - sent_start[0]..sent_start[off + 1] - sent_start[0]]`.
    sent_start: &'a [u32],
    sent: &'a mut [(f64, u32)],
}

/// Relaxes every vector of the round's snapshot at the range's receivers.
/// Senders are walked in snapshot (= id) order and each sender's zone
/// links, sorted by neighbor id, are clipped to the range, so every
/// receiver replays its vectors in exactly the order a single range
/// delivers them.
fn relax_range(round: &Round<'_>, t: &mut RangeTask<'_>) {
    let lo = t.lo;
    let hi = lo + t.flags.len();
    for &(from, start, end) in round.from {
        if start == end {
            continue; // a broadcast with no news
        }
        let entries = &round.entries[start as usize..end as usize];
        let links = round.zones.links(from);
        let first = links.partition_point(|l| l.neighbor.index() < lo);
        let last = first + links[first..].partition_point(|l| l.neighbor.index() < hi);
        for link in &links[first..last] {
            let to = link.neighbor;
            if !round.alive[to.index()] {
                continue;
            }
            let off = to.index() - lo;
            let table = &mut t.tables[off];
            // Zone scoping: `to` only maintains destinations in its own
            // zone. Vectors carry their destinations in ascending id
            // order, and `to`'s zone links ascend by neighbor id, so one
            // merge cursor finds each entry's link (`to` is never its own
            // neighbor, so self-routes find none); an ascending offer
            // cursor replays them into the table.
            let zone = round.zones.links(to);
            let mut z = 0usize;
            let mut cursor = 0usize;
            for &(dest, cost, hops) in entries {
                while z < zone.len() && zone[z].neighbor.raw() < dest {
                    z += 1;
                }
                if z == zone.len() {
                    break; // past `to`'s last zone neighbor
                }
                if zone[z].neighbor.raw() != dest {
                    continue;
                }
                let route = RouteEntry {
                    via: from,
                    cost: link.weight + cost,
                    hops: hops + 1,
                };
                if table.offer_ascending(zone[z].neighbor, route, &mut cursor) {
                    t.flags[off] = true;
                }
            }
        }
    }
}

/// Appends the news in the vectors of the range's flagged nodes, in id
/// order, to `entries` / `from` (the next snapshot or the range's share of
/// it), records it as sent, and clears their flags. Returns whether any
/// node had something to send.
fn flatten_range(
    t: &mut RangeTask<'_>,
    entries: &mut Vec<Entry>,
    from: &mut Vec<(NodeId, u32, u32)>,
) -> bool {
    let mut had = false;
    let base = t.sent_start[0];
    for off in 0..t.flags.len() {
        // Only alive nodes are ever flagged. A flagged node sends its
        // whole vector, empty or not, and gets a range even without news.
        if !std::mem::take(&mut t.flags[off]) {
            continue;
        }
        had = true;
        let start = entries.len() as u32;
        let sent = (t.sent_start[off] - base) as usize..(t.sent_start[off + 1] - base) as usize;
        t.tables[off].append_news(entries, &mut t.sent[sent]);
        from.push((
            NodeId::new((t.lo + off) as u32),
            start,
            entries.len() as u32,
        ));
    }
    had
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
        let stats = dbf.invalidate_zone(&z, &[NodeId::new(5)], &alive);
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
        dbf.invalidate_zone(&z, &[NodeId::new(12)], &alive);
        let (want, _) = reference_rebuild(&z, 2, &alive);
        assert_tables_match(&dbf, &want, "dead");

        alive[12] = true; // and bring it back
        dbf.invalidate_zone(&z, &[NodeId::new(12)], &alive);
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
        let stats = dbf.update_topology(&old_zones, &new_zones, &[moved], &alive);
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

    #[test]
    fn sharded_delta_matches_sequential_tables_and_stats() {
        // The same move replayed on engines with 1, 2 and 8 shards must
        // agree on every stats field, and every table must equal the
        // reference rebuild's — thread count can never change results.
        let mut topo = placement::grid(7, 7, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let moved = NodeId::new(24);
        topo.move_node(moved, spms_net::Point::new(3.0, 29.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];
        let (want_tables, _) = reference_rebuild(&new_zones, 2, &alive);

        let mut want = None;
        for shards in [1usize, 2, 8] {
            let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(shards);
            assert_eq!(sharded.shards(), shards);
            sharded.run_to_convergence(&old_zones);
            let got = sharded.update_topology(&old_zones, &new_zones, &[moved], &alive);
            assert!(got.messages > 0);
            let want = want.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "stats diverged at {shards} shards");
            assert_tables_match(&sharded, &want_tables, &format!("{shards} shards"));
        }
    }

    #[test]
    fn sharded_kill_and_revive_match_full_rebuild() {
        let z = zones(6, 6);
        let mut dbf = DbfEngine::new(&z, 2).with_shards(4);
        dbf.run_to_convergence(&z);
        let mut alive = vec![true; z.len()];
        for flip in [false, true] {
            alive[14] = flip;
            dbf.invalidate_zone(&z, &[NodeId::new(14)], &alive);
            let (want, _) = reference_rebuild(&z, 2, &alive);
            assert_tables_match(&dbf, &want, &format!("up={flip}"));
        }
    }

    #[test]
    #[should_panic(expected = "shards must be at least 1")]
    fn zero_shards_panics() {
        let z = zones(3, 3);
        let _ = DbfEngine::new(&z, 2).with_shards(0);
    }

    #[test]
    fn sharded_full_rebuild_matches_sequential_tables_and_stats() {
        // The full rebuild must agree with the reference on every table
        // AND every stats field, dead nodes included, for shard counts
        // below, at, and above the busy-range count.
        let z = zones(6, 6);
        let mut alive = vec![true; z.len()];
        alive[14] = false;
        alive[15] = false;
        let (want_tables, want) = reference_rebuild(&z, 2, &alive);
        for shards in [1usize, 2, 8, 64] {
            let mut sharded = DbfEngine::new(&z, 2).with_shards(shards);
            let got = sharded.rebuild_sharded(&z, &alive);
            assert_eq!(got, want, "stats diverged at {shards} shards");
            assert_tables_match(&sharded, &want_tables, &format!("{shards} shards"));
        }
    }

    #[test]
    fn sharded_paths_at_paper_scale_match_sequential() {
        // At the paper's n = 169 the loads clear SHARD_MIN_LOAD, so this
        // differential cuts the full rebuild into threaded receiver ranges
        // and a multi-mover delta re-convergence into threaded destination
        // runs — not just the inline piece the small-grid tests reach.
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
        let alive = vec![true; new_zones.len()];

        let (_, full_want) = reference_rebuild(&old_zones, 2, &alive);
        let (new_tables, _) = reference_rebuild(&new_zones, 2, &alive);
        let mut one = DbfEngine::new(&old_zones, 2);
        one.rebuild_sharded(&old_zones, &alive);
        let delta_want = one.update_topology(&old_zones, &new_zones, &movers, &alive);
        assert_eq!(one.scratch.threaded, 0, "a one-shard engine never threads");

        for shards in [2usize, 8] {
            let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(shards);
            let full_got = sharded.rebuild_sharded(&old_zones, &alive);
            assert_eq!(full_got, full_want, "full stats diverged at {shards}");
            let full_threaded = sharded.scratch.threaded;
            assert!(
                full_threaded > 0,
                "{shards} shards: the full rebuild must thread its heavy rounds"
            );
            let delta_got = sharded.update_topology(&old_zones, &new_zones, &movers, &alive);
            assert_eq!(delta_got, delta_want, "delta stats diverged at {shards}");
            assert_eq!(
                sharded.scratch.threaded,
                full_threaded + 1,
                "{shards} shards: the delta exchange must thread its runs"
            );
            assert_tables_match(&sharded, &new_tables, &format!("{shards} shards"));
        }
    }

    #[test]
    fn rebuild_sharded_without_shards_is_the_sequential_rebuild() {
        // A default (one-shard) engine runs every round inline and lands
        // on the reference rebuild exactly, stats included.
        let z = zones(4, 4);
        let alive = vec![true; z.len()];
        let mut dbf = DbfEngine::new(&z, 2);
        let got = dbf.rebuild_sharded(&z, &alive);
        let (want_tables, want) = reference_rebuild(&z, 2, &alive);
        assert_eq!(got, want);
        assert_tables_match(&dbf, &want_tables, "one shard");
    }

    #[test]
    fn rebuild_sharded_resets_stale_state_first() {
        // Rebuilding over an engine converged on another world (a moved
        // node, a dead node) starts from scratch: the result only depends
        // on the inputs, exactly like the reference rebuild.
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let stale = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&stale, 2).with_shards(4);
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
        assert!(dbf.scratch.flags.iter().all(|&flag| !flag));
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
        let delta = dbf.update_topology(&old_zones, &new_zones, &[moved], &alive);

        let (_, full_stats) = reference_rebuild(&new_zones, 2, &alive);
        assert!(
            delta.entries_sent < full_stats.entries_sent / 2,
            "delta {} vs full {}",
            delta.entries_sent,
            full_stats.entries_sent
        );
        assert!(delta.bytes_total < full_stats.bytes_total);
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

    /// One exchange of [`scripted_13x13`]: its stats, the snapshot entries
    /// it relaxed, and the rounds or exchanges it handed to [`run_split`].
    struct Scripted {
        stats: DbfStats,
        relaxed: u64,
        threaded: u64,
    }

    /// Runs a scripted 13×13, k = 2 sequence on an engine with `shards`
    /// shards: the full rebuild, the five-mover move below, a kill and
    /// revive of node 84, and a three-mover in-place zone patch. Returns
    /// every exchange, then the engine with the final zones and alive
    /// mask.
    fn scripted_13x13(shards: usize) -> (Vec<Scripted>, DbfEngine, ZoneTable, Vec<bool>) {
        fn step(dbf: &mut DbfEngine, run: impl FnOnce(&mut DbfEngine) -> DbfStats) -> Scripted {
            let (relaxed, threaded) = (dbf.scratch.relaxed, dbf.scratch.threaded);
            let stats = run(dbf);
            Scripted {
                stats,
                relaxed: dbf.scratch.relaxed - relaxed,
                threaded: dbf.scratch.threaded - threaded,
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
        let mut dbf = DbfEngine::new(&old_zones, 2).with_shards(shards);
        let mut got = vec![step(&mut dbf, |dbf| {
            dbf.rebuild_sharded(&old_zones, &alive)
        })];
        got.push(step(&mut dbf, |dbf| {
            dbf.update_topology(&old_zones, &new_zones, &movers, &alive)
        }));
        for up in [false, true] {
            alive[84] = up;
            got.push(step(&mut dbf, |dbf| {
                dbf.invalidate_zone(&new_zones, &[NodeId::new(84)], &alive)
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
        // Absolute delta stats of the scripted 13×13 sequence's delta
        // exchanges. The values were recorded from an independent,
        // node-major implementation of the exchange, so they pin the
        // accounting itself, not just its agreement across shard counts;
        // the 4-shard engine runs every exchange in threaded destination
        // runs.
        let want = [
            (7, 860, 18_021, 73_804, 6_239_820),
            (7, 720, 6_502, 27_448, 2_642_956),
            (7, 729, 6_839, 28_814, 2_767_864),
            (7, 860, 15_087, 62_068, 5_437_910),
        ];
        for shards in [1usize, 4] {
            let (exchanges, dbf, zones, alive) = scripted_13x13(shards);
            let deltas = &exchanges[1..];
            let got: Vec<_> = deltas.iter().map(|x| accounting(&x.stats)).collect();
            assert_eq!(got, want, "{shards} shards");
            let delta_threaded: u64 = deltas.iter().map(|x| x.threaded).sum();
            let expected = if shards > 1 { want.len() as u64 } else { 0 };
            assert_eq!(delta_threaded, expected, "{shards} shards");
            let (want_tables, _) = reference_rebuild(&zones, 2, &alive);
            assert_tables_match(&dbf, &want_tables, &format!("{shards} shards"));
        }
    }

    #[test]
    fn exchanges_relax_fewer_entries_than_they_send() {
        // A re-broadcast best route is counted in the stats but not offered
        // again: in the full rebuild and in every delta exchange of the
        // scripted sequence, fewer entries reach relaxation than the
        // broadcasts carry, inline and threaded alike.
        for shards in [1usize, 4] {
            let (exchanges, ..) = scripted_13x13(shards);
            for (i, x) in exchanges.iter().enumerate() {
                assert!(
                    0 < x.relaxed && x.relaxed < x.stats.entries_sent,
                    "{shards} shards, exchange {i}: relaxed {} of {} sent",
                    x.relaxed,
                    x.stats.entries_sent
                );
            }
        }
    }

    #[test]
    fn sub_threshold_rounds_stay_inline_and_never_start_the_pool() {
        // On a 5-node line every full-rebuild round and the delta exchange
        // are far below SHARD_MIN_LOAD, so even a widely-sharded engine
        // must keep the whole exchange on the calling thread — no thread
        // spawned — and still land byte-identical to a one-shard engine
        // and the reference.
        let mut topo = placement::grid(5, 1, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let moved = NodeId::new(2);
        topo.move_node(moved, spms_net::Point::new(11.0, 4.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];

        let (_, full_want) = reference_rebuild(&old_zones, 2, &alive);
        let (new_tables, _) = reference_rebuild(&new_zones, 2, &alive);
        let mut one = DbfEngine::new(&old_zones, 2);
        one.rebuild_sharded(&old_zones, &alive);
        let delta_want = one.update_topology(&old_zones, &new_zones, &[moved], &alive);

        let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(8);
        let full_got = sharded.rebuild_sharded(&old_zones, &alive);
        assert_eq!(full_got, full_want);
        let delta_got = sharded.update_topology(&old_zones, &new_zones, &[moved], &alive);
        assert_eq!(delta_got, delta_want);
        assert_eq!(
            sharded.scratch.threaded, 0,
            "sub-threshold rounds must not spawn threads"
        );
        assert_tables_match(&sharded, &new_tables, "8 shards");
    }

    #[test]
    fn sharded_epochs_and_clones_match_the_one_shard_replay() {
        // Ping-pong re-convergence re-enters the exchange many times on
        // one threaded engine, and a clone carries on from its state: every
        // step lands where the one-shard replay does.
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

        let mut one = DbfEngine::new(&zones_a, 2);
        one.rebuild_sharded(&zones_a, &alive);
        let mut sharded = DbfEngine::new(&zones_a, 2).with_shards(4);
        sharded.rebuild_sharded(&zones_a, &alive);

        let mut flips = [(&zones_a, &zones_b), (&zones_b, &zones_a)]
            .into_iter()
            .cycle();
        for epoch in 0..10 {
            let (from, to) = flips.next().unwrap();
            let want = one.update_topology(from, to, &movers, &alive);
            let got = sharded.update_topology(from, to, &movers, &alive);
            assert_eq!(got, want, "epoch {epoch}");
        }

        let mut clone = sharded.clone();
        let (want_a, _) = reference_rebuild(&zones_a, 2, &alive);
        assert_tables_match(&clone, &want_a, "clone");
        let before = clone.scratch.threaded;
        let want = one.update_topology(&zones_a, &zones_b, &movers, &alive);
        let got_clone = clone.update_topology(&zones_a, &zones_b, &movers, &alive);
        let got_orig = sharded.update_topology(&zones_a, &zones_b, &movers, &alive);
        assert_eq!(got_clone, want);
        assert_eq!(got_orig, want);
        assert!(
            clone.scratch.threaded > before,
            "the clone's exchange threads"
        );
    }

    #[test]
    fn threaded_engine_is_send_and_sync() {
        // The workload sweeps move engines across threads.
        fn check<T: Send + Sync>(_: &T) {}
        let z = zones(13, 13);
        let alive = vec![true; z.len()];
        let mut dbf = DbfEngine::new(&z, 2).with_shards(4);
        dbf.rebuild_sharded(&z, &alive);
        assert!(dbf.scratch.threaded > 0);
        check(&dbf);
    }

    #[test]
    fn run_split_runs_every_task_exactly_once() {
        for tasks in [0usize, 1, 2, 5] {
            let mut hits = vec![(0u32, None); tasks];
            run_split(&mut hits, |(hit, thread)| {
                *hit += 1;
                *thread = Some(std::thread::current().id());
            });
            assert!(hits.iter().all(|&(hit, _)| hit == 1), "{tasks} tasks");
            // The first task runs on the caller; the others on whichever
            // thread takes them first.
            if let Some(&(_, first)) = hits.first() {
                assert_eq!(first, Some(std::thread::current().id()));
            }
        }
    }

    #[test]
    fn run_split_panics_only_after_every_task_finished() {
        // Spawned task 1 panics; tasks 2 and 3 only finish once it has
        // started to, so they are still running when it panics. Both must
        // be done when the panic reaches the caller.
        use std::sync::atomic::{AtomicBool, Ordering};
        let panicking = AtomicBool::new(false);
        let mut tasks: Vec<(usize, bool)> = (0..4).map(|i| (i, false)).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_split(&mut tasks, |(i, done)| {
                if *i == 1 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("task 1");
                }
                while *i > 1 && !panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                *done = true;
            });
        }));
        assert!(caught.is_err(), "a task's panic reaches the caller");
        for &(i, done) in &tasks {
            assert_eq!(done, i != 1, "task {i}");
        }
    }

    #[test]
    fn cut_is_one_piece_below_the_threshold_and_at_most_shards_above() {
        let mut bounds = Vec::new();
        // A one-shard engine's planners leave the load empty.
        cut(&[], 40, 8, &mut bounds);
        assert_eq!(bounds, [0, 40]);
        let below = vec![(SHARD_MIN_LOAD - 1) / 10; 10];
        cut(&below, below.len(), 4, &mut bounds);
        assert_eq!(bounds, [0, 10]);
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for case in 0..500 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let len = 1 + (rng % 40) as usize;
            let shards = 1 + (rng >> 8) as usize % 8;
            let load: Vec<u64> = (0..len)
                .map(|i| (rng >> (i % 48)) % (2 * SHARD_MIN_LOAD / len as u64))
                .collect();
            cut(&load, len, shards, &mut bounds);
            let context = format!("case {case}: {load:?} at {shards} shards");
            assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, len), "{context}");
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{context}");
            let total: u64 = load.iter().sum();
            if total < SHARD_MIN_LOAD {
                assert_eq!(bounds.len(), 2, "{context}");
            } else {
                assert!(bounds.len() - 1 <= shards, "{context}");
                // A piece closes once it holds its share, unless it would
                // take the last index.
                let share = total.div_ceil(shards as u64);
                if shards > 1 && load[..len - 1].iter().sum::<u64>() >= share {
                    assert!(bounds.len() > 2, "{context}");
                }
            }
        }
    }
}
