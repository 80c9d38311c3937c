//! The distributed Bellman-Ford exchange.
//!
//! DBF runs in synchronous rounds: every node whose table changed since its
//! last broadcast sends its distance vector to its zone neighbors (at the
//! zone/ADV power level); receivers relax their tables; the exchange
//! quiesces when a round produces no changes. The paper quotes the classic
//! `O(n·e)` convergence bound and argues zone sizes (5–50 nodes) keep it
//! affordable — our stats let experiments verify that claim directly.
//!
//! One round loop runs every exchange, in one of two snapshot modes:
//!
//! * **Full** ([`DbfEngine::rebuild_sharded`]) — the paper's
//!   "re-execution of the DBF": every table is cleared, direct routes are
//!   reinstalled, and every node broadcasts its whole vector in round one;
//!   after that, every node whose table changed broadcasts its whole vector
//!   again. [`DbfEngine::run_to_convergence`] runs the same rounds from the
//!   current tables.
//! * **Delta** ([`DbfEngine::update_topology`] /
//!   [`DbfEngine::invalidate_zone`] / [`DbfEngine::apply_zone_delta`]) —
//!   real distance-vector deployments propagate triggered *deltas*, not
//!   full vectors. A topology event invalidates only the destinations it
//!   can actually affect, reseeds their direct routes, and re-converges
//!   with vectors that carry only the changed entries. While the exchange
//!   runs, the routes to those destinations live in a dense *route plane*
//!   rather than in the tables: one `k`-slot block per (maintainer,
//!   affected destination) pair, numbered node-major with destinations in
//!   ascending order. The zone scoping map holds each pair's slot id, so
//!   one load both checks scope and finds the block. A block that changes
//!   sets its slot's *dirty bit*: the destinations its node advertises in
//!   the next round. After quiescence each maintainer's table drops its
//!   affected destinations and takes the converged blocks in one in-place
//!   merge.
//!
//! Each round relaxes the previous round's snapshot over contiguous
//! receiver id ranges. There is one range, `0..n`, run inline, unless the
//! engine has more than one shard ([`DbfEngine::with_shards`]) and the
//! round is heavy enough to pay the handoff; then the ranges are cut to
//! balance relaxation load and run on the engine's persistent
//! [`WorkerPool`]. A range walks the snapshot in sender order, clips each
//! sender's zone links to its own ids, relaxes, and then flattens its own
//! changed nodes into its share of the next snapshot; the shares
//! concatenate in id order. A node's table (full mode) or plane slots
//! (delta mode) are only ever touched by the range that owns its id, and
//! every receiver replays its vectors in sender order however the ids are
//! cut, so tables and [`DbfStats`] are bit-identical for every shard count.
//! Thread count can never change routing results, only wall-clock time.
//! The sequential full rebuild [`crate::reference_rebuild`] shares no code
//! with this loop and is the reference both modes are property-tested
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

use std::sync::Arc;

use spms_net::{NodeId, ZoneDelta, ZoneTable};

/// Minimum total relaxation load (vector entries addressed to alive
/// receivers this round, counted once per receiver) before a round is cut
/// into ranges for the persistent worker pool; lighter rounds run inline.
/// A delta convergence tapers — the last few rounds carry a handful of
/// entries — and those stay inline, away from the pool's handoff (one
/// mutex/condvar round trip, ≈ 5 µs). Replaying perfbench `mobility`'s
/// delta exchanges (seed 42, 3 fields × 40 epochs, 2-vCPU Xeon VM) costs
/// ≈ 0.01 µs per (entry, receiver) pair, so 256 pairs are a few µs of
/// work, about one handoff: where splitting starts to pay is unmeasured.
/// Purely a scheduling choice: the executed relaxation is identical
/// either way.
const SHARD_MIN_LOAD: u64 = 256;

use crate::pool::WorkerPool;
use crate::table::{offer_block_soa, offer_block_soa2, VACANT};
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

/// Round mode of [`DbfEngine::run_rounds`]: every flagged node sends its
/// whole vector (an empty table still sends an empty one), and a receiver
/// whose table changes is flagged for the next round. Zone scoping is
/// [`ZoneTable::in_zone`].
const FULL: bool = true;

/// Round mode of [`DbfEngine::run_rounds`]: every flagged node sends the
/// best routes of its dirty plane slots, and a receiver block that changes
/// sets its dirty bit and flags its node. Zone scoping is the scope's slot
/// map.
const DELTA: bool = false;

/// One snapshot entry, `(key, best cost, best hops)`: the key is the
/// destination's id in full rounds and its affected-destination index in
/// delta rounds.
type Entry = (u32, f64, u32);

/// [`Scope::slot_of`] for a node that does not maintain the destination.
const NO_SLOT: u32 = u32::MAX;

/// Vector entries per branch-free scope gather in a delta relaxation (a
/// chunk's entry offsets fit a `u8`).
const GATHER: usize = 64;

/// A delta exchange's affected destinations and route-plane layout, fixed
/// for the exchange.
#[derive(Clone, Debug, Default)]
struct Scope {
    /// The affected destinations, in id order.
    dests: Vec<NodeId>,
    /// `slot_of[a * dests.len() + di]` — node `a`'s plane slot for affected
    /// destination `di`, or [`NO_SLOT`] when `a` does not maintain it under
    /// the new zones. Precomputing the zone scoping once per event turns
    /// the per-entry check on the delta hot path into one load, which also
    /// locates the block.
    slot_of: Vec<u32>,
    /// Node `a`'s slots are `row[a]..row[a + 1]`, destinations ascending.
    row: Vec<u32>,
    /// The affected-destination index of each slot.
    slot_dest: Vec<u32>,
}

impl Scope {
    /// Collects the destinations of the `affected` mask and numbers one
    /// slot per (maintainer, affected destination) pair — the maintainers
    /// of `d` are exactly `d`'s zone neighbors under `zones` — node-major,
    /// destinations ascending.
    fn lay_out(&mut self, zones: &ZoneTable, affected: &[bool]) {
        let n = zones.len();
        self.dests.clear();
        self.dests.extend(
            (0..n)
                .filter(|&i| affected[i])
                .map(|i| NodeId::new(i as u32)),
        );
        let nd = self.dests.len();
        self.slot_of.clear();
        self.slot_of.resize(n * nd, NO_SLOT);
        // Count each node's slots and turn the counts into row ends ...
        self.row.clear();
        self.row.resize(n + 1, 0);
        for &d in &self.dests {
            for link in zones.links(d) {
                self.row[link.neighbor.index()] += 1;
            }
        }
        let mut end = 0;
        for r in &mut self.row[..n] {
            end += *r;
            *r = end;
        }
        self.row[n] = end;
        // ... then fill every row from its end, destinations descending,
        // which leaves `row[a]` at the row's start.
        self.slot_dest.clear();
        self.slot_dest.resize(end as usize, 0);
        for (di, &d) in self.dests.iter().enumerate().rev() {
            for link in zones.links(d) {
                let a = link.neighbor.index();
                self.row[a] -= 1;
                let slot = self.row[a];
                self.slot_of[a * nd + di] = slot;
                self.slot_dest[slot as usize] = di as u32;
            }
        }
    }

    /// Whether node `a` maintains `d` as an affected destination, which
    /// makes the write-back replace its routes to `d`.
    fn maintains(&self, a: usize, d: NodeId) -> bool {
        self.dests
            .binary_search(&d)
            .is_ok_and(|di| self.slot_of[a * self.dests.len() + di] != NO_SLOT)
    }
}

/// The delta exchange's route plane: one `k`-slot block per scope slot,
/// best first, in the tables' SoA layout.
#[derive(Clone, Debug, Default)]
struct Plane {
    /// Live routes per slot (`<= k`).
    lens: Vec<u32>,
    /// Per-slot change since its node's last broadcast.
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

/// The plane slots `base..base + lens.len()`, borrowed by one receiver
/// range.
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

    /// Offers `route` to global slot `slot` with the tables' block kernel;
    /// a change sets the slot's dirty bit. Returns whether the block
    /// changed.
    #[inline]
    fn offer(&mut self, slot: usize, route: RouteEntry) -> bool {
        let s = slot - self.base;
        let k = self.k;
        let len = self.lens[s] as usize;
        let (changed, len) = if k == 2 {
            let b = s * 2;
            offer_block_soa2(
                &mut self.via[b..b + 2],
                &mut self.cost[b..b + 2],
                &mut self.hops[b..b + 2],
                len,
                route,
            )
        } else {
            let b = s * k;
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
        changed
    }
}

/// Reusable buffers for the synchronous exchange, hoisted out of the round
/// loop so steady-state inline rounds allocate nothing (a pooled round
/// allocates only its short task list).
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// The nodes that broadcast next: every alive node in a full
    /// exchange's first round, the reseeded maintainers in a delta
    /// exchange's, then every node whose table (full) or plane slots
    /// (delta) changed.
    flags: Vec<bool>,
    /// The round's snapshot: every entry broadcast, flattened.
    snap_entries: Vec<Entry>,
    /// `(sender, start, end)` ranges into `snap_entries`, in sender order.
    snap_from: Vec<(NodeId, u32, u32)>,
    /// Pooled rounds: each receiver range's share of the next snapshot's
    /// entries.
    range_entries: Vec<Vec<Entry>>,
    /// Pooled rounds: each receiver range's share of the next snapshot's
    /// senders (ranges relative to its own entry buffer until
    /// concatenation rebases them).
    range_from: Vec<Vec<(NodeId, u32, u32)>>,
    /// Per-receiver relaxation load (entries addressed to it this round) —
    /// the range planner's balancing weight.
    load: Vec<u64>,
    /// Receiver range boundary node ids (`bounds[i]..bounds[i+1]`).
    bounds: Vec<usize>,
    /// All-alive mask for [`DbfEngine::run_to_convergence`].
    all_alive: Vec<bool>,
    /// Membership bitmap for the affected destination set.
    affected: Vec<bool>,
    /// Delta exchanges: the affected destinations and plane layout.
    scope: Scope,
    /// Delta exchanges: the routes to the affected destinations.
    plane: Plane,
    /// Write-back destination list, reused across maintainers.
    row_dests: Vec<NodeId>,
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
#[derive(Debug)]
pub struct DbfEngine {
    tables: Vec<RoutingTable>,
    k: usize,
    /// The most receiver ranges a heavy round is cut into; `1` runs every
    /// round inline. Bit-identical for every value.
    shards: usize,
    /// The persistent worker pool (`shards - 1` parked threads; the
    /// dispatching thread is the remaining shard), spun up lazily the
    /// first time a round is heavy enough to split and reused for every
    /// round, epoch, and rebuild after that. Dropped with the engine,
    /// which joins the workers.
    pool: Option<Arc<WorkerPool>>,
    scratch: Scratch,
}

impl Clone for DbfEngine {
    /// Clones the routing state; the clone gets no pool and spins up its
    /// own on first use. Worker threads are wall-clock machinery, not
    /// routing state — sharing them would serialize two engines against
    /// each other, and cloning them would leak idle threads for clones
    /// that never re-converge.
    fn clone(&self) -> Self {
        DbfEngine {
            tables: self.tables.clone(),
            k: self.k,
            shards: self.shards,
            pool: None,
            scratch: self.scratch.clone(),
        }
    }
}

impl DbfEngine {
    /// Creates a one-shard engine with direct (one-hop) routes installed
    /// for every zone link, keeping `k` alternatives per destination.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(zones: &ZoneTable, k: usize) -> Self {
        let mut engine = DbfEngine {
            tables: (0..zones.len()).map(|_| RoutingTable::new(k)).collect(),
            k,
            shards: 1,
            pool: None,
            scratch: Scratch::default(),
        };
        engine.reset(zones, &vec![true; zones.len()]);
        engine
    }

    /// Lets a heavy round run on up to `shards` threads: it is cut into at
    /// most `shards` receiver ranges of balanced relaxation load, run on
    /// the engine's worker pool. `1` (the default) runs every round inline
    /// and never starts the pool. Tables and stats are bit-identical for
    /// every shard count (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shards must be at least 1");
        self.shards = shards;
        self.pool = None;
        self
    }

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether the persistent worker pool has been spun up. Observability
    /// for the inline-dispatch taper: an engine whose every round stays
    /// under the pool's load threshold must never start worker threads
    /// (pinned by tests), so light workloads on a sharded engine pay
    /// exactly what a one-shard engine pays.
    #[must_use]
    pub fn pool_started(&self) -> bool {
        self.pool.is_some()
    }

    /// The persistent pool, spun up on first use with `shards - 1` worker
    /// threads (the dispatching thread acts as the final shard). Returns
    /// a clone of the handle so callers can dispatch while `self`'s
    /// fields are mutably borrowed; the `Arc` is an ownership detail, not
    /// a sharing mechanism — each engine has its own pool.
    fn pool(&mut self) -> Arc<WorkerPool> {
        debug_assert!(
            self.shards >= 2,
            "pooled dispatch needs at least two shards"
        );
        let workers = self.shards - 1;
        Arc::clone(
            self.pool
                .get_or_insert_with(|| Arc::new(WorkerPool::new(workers))),
        )
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
        self.run_rounds::<FULL>(zones, alive)
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

    /// Runs full-vector rounds until quiescence with every node alive,
    /// starting from the current tables: round one has every node
    /// broadcast its whole vector.
    ///
    /// # Panics
    ///
    /// Panics if the exchange fails to converge (see
    /// [`DbfEngine::rebuild_sharded`]).
    pub fn run_to_convergence(&mut self, zones: &ZoneTable) -> DbfStats {
        let mut all_alive = std::mem::take(&mut self.scratch.all_alive);
        all_alive.clear();
        all_alive.resize(zones.len(), true);
        let stats = self.run_rounds::<FULL>(zones, &all_alive);
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
        self.scratch.affected = affected;

        // A changed node that is down holds no routes at all.
        for &c in changed {
            if !alive[c.index()] {
                self.tables[c.index()].clear();
            }
        }

        // Old maintainers may hold routes the new adjacency no longer
        // justifies: wipe the affected destinations at their *old* zone
        // neighbors, unless the write-back replaces those routes anyway.
        let scope = &self.scratch.scope;
        for &d in &scope.dests {
            for link in old_zones.links(d) {
                let a = link.neighbor.index();
                if alive[a] && !scope.maintains(a, d) {
                    self.tables[a].remove_dest(d);
                }
            }
        }

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
        self.scratch.affected = affected;

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
        let scope = &self.scratch.scope;
        for mv in &delta.moves {
            let m = mv.node.index();
            for &a in &mv.old_neighbors {
                if alive[a.index()] && !scope.maintains(a.index(), mv.node) {
                    self.tables[a.index()].remove_dest(mv.node);
                }
                if alive[m] && !scope.maintains(m, a) {
                    self.tables[m].remove_dest(a);
                }
            }
        }

        self.reconverge_affected(zones, alive)
    }

    /// Shared tail of the incremental paths. Expects `scratch.scope` laid
    /// out under the **new** zones (and any old-adjacency wipes already
    /// done): empties every plane block, reseeds the surviving direct
    /// routes into the plane, re-converges with delta rounds, and writes
    /// the converged blocks back. The write-back replaces each alive
    /// maintainer's routes to its affected destinations in one merge, so
    /// the tables are never wiped separately; no exchange step reads those
    /// routes from the tables.
    fn reconverge_affected(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        let n = zones.len();
        let k = self.k;
        let s = &mut self.scratch;
        s.plane.reset(s.scope.slot_dest.len(), k);
        s.flags.clear();
        s.flags.resize(n, false);
        // Reseed the surviving direct routes. Link weights are symmetric
        // (shared radio profile), so the d→a weight doubles as a's direct
        // cost to d.
        let nd = s.scope.dests.len();
        let mut plane = PlaneMut::new(&mut s.plane, k);
        for (di, &d) in s.scope.dests.iter().enumerate() {
            if !alive[d.index()] {
                continue; // nobody routes to a dead destination
            }
            for link in zones.links(d) {
                let a = link.neighbor.index();
                if !alive[a] {
                    continue;
                }
                let direct = RouteEntry {
                    via: d,
                    cost: link.weight,
                    hops: 1,
                };
                if plane.offer(s.scope.slot_of[a * nd + di] as usize, direct) {
                    s.flags[a] = true;
                }
            }
        }

        let stats = self.run_rounds::<DELTA>(zones, alive);

        // Write back: every alive maintainer trades its routes to its
        // affected destinations for the converged blocks.
        let s = &mut self.scratch;
        for (a, row) in s.scope.row.windows(2).enumerate() {
            let (lo, hi) = (row[0] as usize, row[1] as usize);
            if lo == hi || !alive[a] {
                continue;
            }
            s.row_dests.clear();
            s.row_dests.extend(
                s.scope.slot_dest[lo..hi]
                    .iter()
                    .map(|&di| s.scope.dests[di as usize]),
            );
            self.tables[a].splice(
                &s.row_dests,
                &s.plane.lens[lo..hi],
                &s.plane.via[lo * k..hi * k],
                &s.plane.cost[lo * k..hi * k],
                &s.plane.hops[lo * k..hi * k],
            );
        }
        stats
    }

    /// The DBF round loop, run to quiescence in mode [`FULL`] or
    /// [`DELTA`]. Each round relaxes the current snapshot over the planned
    /// receiver ranges, then flattens each range's flagged nodes into the
    /// next snapshot: inline, straight into the snapshot buffers, for one
    /// range; on the worker pool, into per-range buffers concatenated in
    /// id order, for more. It starts from an empty snapshot, so its first
    /// pass only flattens round one's broadcasters: every alive node in
    /// full mode (`flags` = `alive`), the maintainers
    /// [`DbfEngine::reconverge_affected`] reseeded in delta mode. The
    /// exchange quiesces after a round in which no node had anything to
    /// send (counted: the final silent round).
    fn run_rounds<const MODE: bool>(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        let n = zones.len();
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        let wire = DbfWireFormat::default();
        let mut stats = DbfStats {
            per_node_bytes: vec![0; n],
            ..DbfStats::default()
        };
        let mut s = std::mem::take(&mut self.scratch);
        if MODE == FULL {
            s.flags.clear();
            s.flags.extend_from_slice(alive);
        }
        s.snap_entries.clear();
        s.snap_from.clear();
        // Positive weights: path costs strictly increase with hops, so
        // convergence takes at most diameter+2 rounds; n+4 is a safe bound.
        let max_rounds = (n as u32).max(8) + 4;
        for _round in 0..max_rounds {
            plan_ranges(
                zones,
                alive,
                &s.snap_from,
                self.shards,
                &mut s.load,
                &mut s.bounds,
            );
            let ranges = s.bounds.len() - 1;
            let round = Round {
                zones,
                alive,
                entries: &s.snap_entries,
                from: &s.snap_from,
                scope: &s.scope,
            };
            let mut plane = PlaneMut::new(&mut s.plane, self.k);
            let had = if ranges == 1 {
                let mut range = RangeTask {
                    lo: 0,
                    flags: &mut s.flags,
                    tables: &mut self.tables,
                    plane,
                };
                relax_range::<MODE>(&round, &mut range);
                // Relaxation has read the snapshot: flatten over it.
                s.snap_entries.clear();
                s.snap_from.clear();
                flatten_range::<MODE>(&s.scope, &mut range, &mut s.snap_entries, &mut s.snap_from)
            } else {
                let pool = self.pool();
                if s.range_entries.len() < ranges {
                    s.range_entries.resize_with(ranges, Vec::new);
                    s.range_from.resize_with(ranges, Vec::new);
                }
                let mut tasks = Vec::with_capacity(ranges);
                let mut tables = self.tables.as_mut_slice();
                let mut flags = s.flags.as_mut_slice();
                for ((w, entries), from) in s
                    .bounds
                    .windows(2)
                    .zip(&mut s.range_entries)
                    .zip(&mut s.range_from)
                {
                    let len = w[1] - w[0];
                    let (tables_mine, tables_rest) = std::mem::take(&mut tables).split_at_mut(len);
                    let (flags_mine, flags_rest) = std::mem::take(&mut flags).split_at_mut(len);
                    tables = tables_rest;
                    flags = flags_rest;
                    // Full rounds leave the plane alone.
                    let slots = if MODE == FULL {
                        0
                    } else {
                        (s.scope.row[w[1]] - s.scope.row[w[0]]) as usize
                    };
                    let (plane_mine, plane_rest) = plane.split_at(slots);
                    plane = plane_rest;
                    let range = RangeTask {
                        lo: w[0],
                        flags: flags_mine,
                        tables: tables_mine,
                        plane: plane_mine,
                    };
                    entries.clear();
                    from.clear();
                    tasks.push((range, entries, from, false));
                }
                // A range flattens as soon as its own relaxation is done,
                // while other ranges may still be reading the snapshot.
                let scope = &s.scope;
                pool.run(&mut tasks, |(range, entries, from, had)| {
                    relax_range::<MODE>(&round, range);
                    *had = flatten_range::<MODE>(scope, range, entries, from);
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
                self.scratch = s;
                return stats; // quiescent: nobody has updates to send
            }
            // All sums are integers, so the accounting is independent of
            // how the round was cut.
            for &(from, start, end) in &s.snap_from {
                let len = (end - start) as usize;
                stats.messages += 1;
                stats.entries_sent += len as u64;
                let bytes = u64::from(wire.message_bytes(len));
                stats.bytes_total += bytes;
                stats.per_node_bytes[from.index()] += bytes;
            }
        }
        panic!("DBF failed to converge within {max_rounds} rounds");
    }
}

/// Cuts the receiver id space `0..n` for one round into `bounds`
/// (`bounds[i]..bounds[i+1]`). One range `0..n` unless `shards > 1` and
/// the round's total relaxation load (entries addressed to alive
/// receivers) reaches [`SHARD_MIN_LOAD`]; then at most `shards` contiguous
/// ranges of ≈ equal load.
fn plan_ranges(
    zones: &ZoneTable,
    alive: &[bool],
    snap_from: &[(NodeId, u32, u32)],
    shards: usize,
    load: &mut Vec<u64>,
    bounds: &mut Vec<usize>,
) {
    let n = alive.len();
    bounds.clear();
    bounds.push(0);
    if shards > 1 {
        load.clear();
        load.resize(n, 0);
        let mut total = 0u64;
        for &(from, start, end) in snap_from {
            let len = u64::from(end - start);
            for link in zones.links(from) {
                let to = link.neighbor.index();
                if alive[to] {
                    load[to] += len;
                    total += len;
                }
            }
        }
        if total >= SHARD_MIN_LOAD {
            let target = total.div_ceil(shards as u64);
            let mut acc = 0u64;
            for (i, &l) in load.iter().enumerate() {
                acc += l;
                if acc >= target && bounds.len() < shards && i + 1 < n {
                    bounds.push(i + 1);
                    acc = 0;
                }
            }
        }
    }
    bounds.push(n);
}

/// The read-only inputs every receiver range of a round shares.
struct Round<'a> {
    zones: &'a ZoneTable,
    alive: &'a [bool],
    /// The round's snapshot entries.
    entries: &'a [Entry],
    /// The round's `(sender, start, end)` ranges, in sender order.
    from: &'a [(NodeId, u32, u32)],
    /// Delta rounds: the exchange's scoping and plane layout.
    scope: &'a Scope,
}

/// One receiver range `lo..lo + flags.len()` of a round: its disjoint
/// slices of the per-node state.
struct RangeTask<'a> {
    lo: usize,
    flags: &'a mut [bool],
    /// Full rounds relax into the range's tables.
    tables: &'a mut [RoutingTable],
    /// Delta rounds relax into the range's plane slots.
    plane: PlaneMut<'a>,
}

/// Relaxes every vector of the round's snapshot at the range's receivers.
/// Senders are walked in snapshot (= id) order and each sender's zone
/// links, sorted by neighbor id, are clipped to the range, so every
/// receiver replays its vectors in exactly the order a single range
/// delivers them. `MODE` ([`FULL`] or [`DELTA`]) is fixed at compile time,
/// keeping the mode test out of the per-entry loop.
fn relax_range<const MODE: bool>(round: &Round<'_>, t: &mut RangeTask<'_>) {
    let lo = t.lo;
    let hi = lo + t.flags.len();
    let nd = round.scope.dests.len();
    for &(from, start, end) in round.from {
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
            if MODE == FULL {
                let table = &mut t.tables[off];
                // Vectors carry their destinations in ascending id order,
                // so each one replays through one ascending offer cursor.
                let mut cursor = 0usize;
                for &(dest, cost, hops) in entries {
                    let dest = NodeId::new(dest);
                    // Zone scoping: `to` only maintains destinations in
                    // its own zone.
                    if dest == to || !round.zones.in_zone(to, dest) {
                        continue;
                    }
                    let route = RouteEntry {
                        via: from,
                        cost: link.weight + cost,
                        hops: hops + 1,
                    };
                    if table.offer_ascending(dest, route, &mut cursor) {
                        t.flags[off] = true;
                    }
                }
            } else {
                // Zone scoping and block lookup in one load from `to`'s row
                // of the slot map (a node never links to itself, so
                // self-routes have no slot). About a third of the entries
                // fall outside `to`'s zone in no pattern a branch predictor
                // learns, so each chunk first gathers its in-scope entries
                // without branching and then offers only those.
                let slots = &round.scope.slot_of[to.index() * nd..(to.index() + 1) * nd];
                for chunk in entries.chunks(GATHER) {
                    let mut hits = [0u8; GATHER];
                    let mut len = 0;
                    for (i, &(di, _, _)) in chunk.iter().enumerate() {
                        hits[len] = i as u8;
                        len += usize::from(slots[di as usize] != NO_SLOT);
                    }
                    for &i in &hits[..len] {
                        let (di, cost, hops) = chunk[usize::from(i)];
                        let route = RouteEntry {
                            via: from,
                            cost: link.weight + cost,
                            hops: hops + 1,
                        };
                        if t.plane.offer(slots[di as usize] as usize, route) {
                            t.flags[off] = true;
                        }
                    }
                }
            }
        }
    }
}

/// Appends the broadcasts of the range's flagged nodes, in id order, to
/// `entries` / `from` (the next snapshot or the range's share of it) and
/// resets their change state. Returns whether any node had something to
/// send.
fn flatten_range<const MODE: bool>(
    scope: &Scope,
    t: &mut RangeTask<'_>,
    entries: &mut Vec<Entry>,
    from: &mut Vec<(NodeId, u32, u32)>,
) -> bool {
    let mut had = false;
    for off in 0..t.flags.len() {
        // Only alive nodes are ever flagged. A flagged node sends its whole
        // vector, empty or not, in full mode, and its dirty slots' best
        // routes in delta mode — at least one, as plane blocks only gain
        // routes during an exchange.
        if !std::mem::take(&mut t.flags[off]) {
            continue;
        }
        had = true;
        let i = t.lo + off;
        let start = entries.len() as u32;
        if MODE == FULL {
            t.tables[off].append_vector(entries);
        } else {
            let p = &mut t.plane;
            for slot in scope.row[i] as usize..scope.row[i + 1] as usize {
                let s = slot - p.base;
                if std::mem::take(&mut p.dirty[s]) {
                    entries.push((scope.slot_dest[slot], p.cost[s * p.k], p.hops[s * p.k]));
                }
            }
        }
        from.push((NodeId::new(i as u32), start, entries.len() as u32));
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
    fn direct_routes_exist_before_any_exchange() {
        let z = zones(3, 1);
        let dbf = DbfEngine::new(&z, 2);
        let t0 = dbf.table(NodeId::new(0));
        assert_eq!(t0.best(NodeId::new(1)).unwrap().hops, 1);
        assert_eq!(t0.best(NodeId::new(2)).unwrap().hops, 1);
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
        // At the paper's n = 169 the round loads clear the pool-dispatch
        // threshold, so this differential cuts both the full rebuild and a
        // multi-mover delta re-convergence into pooled receiver ranges —
        // not just the inline range the small-grid tests reach.
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
        assert!(
            delta_want.entries_sent > 1024,
            "the delta must be heavy enough to engage the pool (sent {})",
            delta_want.entries_sent
        );
        assert!(
            !one.pool_started(),
            "a one-shard engine never starts a pool"
        );

        for shards in [2usize, 8] {
            let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(shards);
            let full_got = sharded.rebuild_sharded(&old_zones, &alive);
            assert_eq!(full_got, full_want, "full stats diverged at {shards}");
            let delta_got = sharded.update_topology(&old_zones, &new_zones, &movers, &alive);
            assert_eq!(delta_got, delta_want, "delta stats diverged at {shards}");
            assert!(
                sharded.pool_started(),
                "{shards} shards: a paper-scale run must engage the worker pool"
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

    #[test]
    fn sub_threshold_rounds_stay_inline_and_never_start_the_pool() {
        // On a 5-node line every delta and full-rebuild round is far below
        // SHARD_MIN_LOAD, so even a widely-sharded engine must keep the
        // whole exchange on the calling thread — no worker threads
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
        assert!(
            !sharded.pool_started(),
            "sub-threshold rounds must not spin up the worker pool"
        );
        assert_tables_match(&sharded, &new_tables, "8 shards");
    }

    #[test]
    fn pool_persists_across_epochs_and_clones_start_fresh() {
        // The pool is created lazily on the first heavy round, then
        // reused for every subsequent epoch (ping-pong re-convergence
        // below re-enters the round loop many times on the same engine).
        // A cloned engine shares tables but never threads: it lazily
        // builds its own pool.
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
        assert!(sharded.pool_started(), "a 169-node rebuild is pool work");

        // Ten ping-pong epochs on the same engine: same parked workers,
        // same fixpoints as the one-shard replay at every step.
        let mut flips = [(&zones_a, &zones_b), (&zones_b, &zones_a)]
            .into_iter()
            .cycle();
        for epoch in 0..10 {
            let (from, to) = flips.next().unwrap();
            let want = one.update_topology(from, to, &movers, &alive);
            let got = sharded.update_topology(from, to, &movers, &alive);
            assert_eq!(got, want, "epoch {epoch}");
        }

        let clone = sharded.clone();
        assert!(
            !clone.pool_started(),
            "a cloned engine must not share or inherit worker threads"
        );
        let (want_a, _) = reference_rebuild(&zones_a, 2, &alive);
        assert_tables_match(&clone, &want_a, "clone");
        // The clone converges independently — spinning up its own pool —
        // while the original keeps working. Drop order between the two
        // pools is then arbitrary, which is the point.
        let mut clone = clone;
        let want = one.update_topology(&zones_a, &zones_b, &movers, &alive);
        let got_clone = clone.update_topology(&zones_a, &zones_b, &movers, &alive);
        let got_orig = sharded.update_topology(&zones_a, &zones_b, &movers, &alive);
        assert_eq!(got_clone, want);
        assert_eq!(got_orig, want);
        assert!(clone.pool_started());
    }

    #[test]
    fn engine_with_live_pool_is_send_and_sync() {
        // The workload sweeps move engines across threads; the pool
        // handle must not cost the engine its auto traits.
        fn check<T: Send + Sync>(_: &T) {}
        let z = zones(13, 13);
        let alive = vec![true; z.len()];
        let mut dbf = DbfEngine::new(&z, 2).with_shards(4);
        dbf.rebuild_sharded(&z, &alive);
        assert!(dbf.pool_started());
        check(&dbf);
    }
}
