//! Per-node routing tables with k next-hop alternatives per destination.
//!
//! Storage is a dense arena rather than a per-entry map: a sorted vector of
//! destinations plus a flat arena with exactly `k` route slots per
//! destination. Zone sizes are small (the paper works with 5–50 nodes per
//! zone), so binary search over the destination vector beats pointer-chasing
//! a tree, and the arena is reused across rebuilds without reallocating
//! (`clear` keeps capacity).
//!
//! The arena itself comes in two layouts selected by [`TableLayout`]:
//!
//! - **SoA** (the default): three parallel planes — a contiguous `f64` cost
//!   plane, a `NodeId` next-hop plane, and a `u32` hop-count plane — so the
//!   relaxation scan in [`RoutingTable::offer`] walks a flat numeric strip
//!   with no struct-stride gathers, and `remove_dests` compacts all planes
//!   in lockstep with three `copy_within` calls per surviving row.
//! - **AoS**: the original flat `[RouteEntry]` block layout, kept intact as
//!   the differential oracle. The layout proptests replay identical
//!   offer/remove/churn sequences against both arenas and assert
//!   bit-identical tables (same playbook as the DBF oracle chain).
//!
//! Because entries no longer sit contiguously in one buffer, the read API
//! hands out routes **by value** (`RouteEntry` is `Copy`): [`RoutingTable::best`]
//! returns `Option<RouteEntry>` and [`RoutingTable::routes_to`] returns a
//! [`Routes`] view instead of a slice.

use spms_net::NodeId;

/// One route alternative: reach the destination through neighbor `via` at
/// total cost `cost` over `hops` hops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteEntry {
    /// The next-hop zone neighbor.
    pub via: NodeId,
    /// Total path cost (sum of per-link minimum transmit powers, mW).
    pub cost: f64,
    /// Path length in hops.
    pub hops: u32,
}

/// Unoccupied arena slot. Never observable through the public API: only the
/// first `lens[i]` slots of a destination's `k`-slot block are live.
pub(crate) const VACANT: RouteEntry = RouteEntry {
    via: NodeId::new(u32::MAX),
    cost: f64::INFINITY,
    hops: u32::MAX,
};

/// Costs within this distance are ties (floating-point sums of identical
/// link weights can differ by an ULP depending on the path); ties break
/// toward fewer hops, then the smaller neighbor id — the same rule as the
/// Dijkstra oracle.
///
/// The tie window makes route order transitive only when near-tie costs
/// cluster: every two route costs are either within `COST_EPS` of each
/// other or more than `2·COST_EPS` apart. Costs chained in smaller steps
/// can tie `a` with `b` and `b` with `c` while `a` beats `c`. Two results
/// rely on that precondition: the Dijkstra oracle and DBF agree exactly,
/// and a DBF exchange may skip re-offering a route it already offered
/// (the news-only rule, stated in the `dbf` module docs).
const COST_EPS: f64 = 1e-12;

/// The best `(cost, hops)` a DBF sender has not broadcast yet: no real
/// route carries it, so [`is_news`] holds for every first broadcast.
pub(crate) const UNSENT: (f64, u32) = (VACANT.cost, VACANT.hops);

/// Whether a best route `(cost, hops)` is news against the one its sender
/// last broadcast, `sent`: anything not bit-identical is. Re-offering a
/// bit-identical route repeats an offer its receivers have already
/// relaxed.
#[inline(always)]
pub(crate) fn is_news(best: (f64, u32), sent: (f64, u32)) -> bool {
    best.0.to_bits() != sent.0.to_bits() || best.1 != sent.1
}

/// Strict route order: cost (with the epsilon tie window), then hops, then
/// neighbor id. Total on distinct-via entries.
fn route_cmp(a: &RouteEntry, b: &RouteEntry) -> std::cmp::Ordering {
    if (a.cost - b.cost).abs() <= COST_EPS {
        a.hops.cmp(&b.hops).then_with(|| a.via.cmp(&b.via))
    } else {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// `true` when two entries are indistinguishable under the epsilon rule —
/// an offer replacing an entry with an indistinguishable one is not a
/// change (and must not trigger another broadcast round).
fn route_eq(a: &RouteEntry, b: &RouteEntry) -> bool {
    a.via == b.via && a.hops == b.hops && (a.cost - b.cost).abs() <= COST_EPS
}

/// Scalar twin of `route_cmp(..) == Ordering::Less` for the plane kernel:
/// `true` when the entry `(cost, hops, via)` orders strictly before
/// `entry`. Must stay semantically identical to `route_cmp` — the layout
/// differential suite holds the two arenas bit-identical.
#[inline(always)]
fn plane_less(cost: f64, hops: u32, via: NodeId, entry: &RouteEntry) -> bool {
    let d = cost - entry.cost;
    if d.abs() <= COST_EPS {
        hops < entry.hops || (hops == entry.hops && via < entry.via)
    } else {
        // NaN costs fall here with both comparisons false — the same
        // "unordered means equal" behavior as route_cmp's partial_cmp.
        d < 0.0
    }
}

/// Physical arena layout of a [`RoutingTable`], selected per table (and, at
/// the simulation level, by `SimConfig::table_layout`).
///
/// The layouts are observationally identical — the layout-differential
/// proptest suite replays identical operation sequences against both and
/// asserts bit-identical tables — so this is purely a performance knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TableLayout {
    /// Struct-of-arrays planes (cost / next-hop / hops): the branch-light
    /// relaxation kernel. The default.
    #[default]
    Soa,
    /// Array-of-structs flat `RouteEntry` blocks: the original layout,
    /// retained as the differential oracle.
    Aos,
}

/// The slot storage behind a [`RoutingTable`]: `k` slots per destination,
/// best-first, in one of the two [`TableLayout`]s.
#[derive(Clone)]
enum Arena {
    /// Flat `RouteEntry` blocks.
    Aos { slots: Vec<RouteEntry> },
    /// Parallel planes, index-aligned with each other, plus a direct-map
    /// destination index.
    Soa {
        via: Vec<NodeId>,
        cost: Vec<f64>,
        hops: Vec<u32>,
        /// Destination index plane: `slot_of[dest.index()]` is the
        /// destination's arena position **plus one** (`0` = absent), so the
        /// hot relaxation path replaces the per-offer binary search with a
        /// single load. Destinations are node ids, so this plane is
        /// `O(max id)` words per table — `O(n)` at the simulator's scales,
        /// where every table already holds `O(zone)` route slots.
        slot_of: Vec<u32>,
    },
}

impl Arena {
    fn empty(layout: TableLayout) -> Self {
        match layout {
            TableLayout::Aos => Arena::Aos { slots: Vec::new() },
            TableLayout::Soa => Arena::Soa {
                via: Vec::new(),
                cost: Vec::new(),
                hops: Vec::new(),
                slot_of: Vec::new(),
            },
        }
    }

    fn layout(&self) -> TableLayout {
        match self {
            Arena::Aos { .. } => TableLayout::Aos,
            Arena::Soa { .. } => TableLayout::Soa,
        }
    }

    /// The entry at flat slot index `idx` (live or vacant), by value.
    #[inline]
    fn entry(&self, idx: usize) -> RouteEntry {
        match self {
            Arena::Aos { slots } => slots[idx],
            Arena::Soa {
                via, cost, hops, ..
            } => RouteEntry {
                via: via[idx],
                cost: cost[idx],
                hops: hops[idx],
            },
        }
    }

    #[inline]
    fn write(&mut self, idx: usize, e: RouteEntry) {
        match self {
            Arena::Aos { slots } => slots[idx] = e,
            Arena::Soa {
                via, cost, hops, ..
            } => {
                via[idx] = e.via;
                cost[idx] = e.cost;
                hops[idx] = e.hops;
            }
        }
    }

    /// Splices `k` vacant slots in at flat index `base` (new destination).
    fn splice_vacant(&mut self, base: usize, k: usize) {
        match self {
            Arena::Aos { slots } => {
                slots.splice(base..base, std::iter::repeat_n(VACANT, k));
            }
            Arena::Soa {
                via, cost, hops, ..
            } => {
                via.splice(base..base, std::iter::repeat_n(VACANT.via, k));
                cost.splice(base..base, std::iter::repeat_n(VACANT.cost, k));
                hops.splice(base..base, std::iter::repeat_n(VACANT.hops, k));
            }
        }
    }

    /// Copies the `k`-slot block at `src` over the block at `dst`
    /// (lockstep across planes in the SoA layout).
    fn copy_block(&mut self, src: usize, dst: usize, k: usize) {
        match self {
            Arena::Aos { slots } => slots.copy_within(src..src + k, dst),
            Arena::Soa {
                via, cost, hops, ..
            } => {
                via.copy_within(src..src + k, dst);
                cost.copy_within(src..src + k, dst);
                hops.copy_within(src..src + k, dst);
            }
        }
    }

    /// Removes the `k`-slot block at `base`, shifting later blocks down.
    fn drain_block(&mut self, base: usize, k: usize) {
        match self {
            Arena::Aos { slots } => {
                slots.drain(base..base + k);
            }
            Arena::Soa {
                via, cost, hops, ..
            } => {
                via.drain(base..base + k);
                cost.drain(base..base + k);
                hops.drain(base..base + k);
            }
        }
    }

    /// Truncates or extends (with vacant slots) to `n` slots.
    fn resize(&mut self, n: usize) {
        match self {
            Arena::Aos { slots } => slots.resize(n, VACANT),
            Arena::Soa {
                via, cost, hops, ..
            } => {
                via.resize(n, VACANT.via);
                cost.resize(n, VACANT.cost);
                hops.resize(n, VACANT.hops);
            }
        }
    }

    /// Clears all slots, keeping capacity (rebuilds do not reallocate).
    fn clear(&mut self) {
        match self {
            Arena::Aos { slots } => slots.clear(),
            Arena::Soa {
                via,
                cost,
                hops,
                slot_of,
            } => {
                via.clear();
                cost.clear();
                hops.clear();
                // An empty index plane means "every destination absent";
                // inserts re-grow it (zero-filled) on demand, so clearing
                // beats an O(max id) memset per rebuild.
                slot_of.clear();
            }
        }
    }
}

/// The k-slot block merge shared by `offer` and `offer_ascending`, AoS
/// layout. `block` is the destination's full `k`-slot block, `len` its live
/// prefix. Returns `(changed, new_len)`.
///
/// This is the **oracle kernel** — byte-for-byte the pre-SoA behavior. Note
/// the asymmetric rank computation: the replace arm counts lesser entries
/// over the whole live prefix (excluding the replaced slot) while the
/// insert arm stops at the first non-lesser entry. Under the non-transitive
/// epsilon comparator those can differ for costs spaced ~`COST_EPS` apart,
/// so [`offer_block_soa`] replicates each arm exactly rather than sharing
/// one rank routine.
fn offer_block_aos(block: &mut [RouteEntry], len: usize, entry: RouteEntry) -> (bool, usize) {
    let k = block.len();
    let existing = block[..len].iter().position(|e| e.via == entry.via);

    match existing {
        Some(i) => {
            // Insertion index of `entry` among the other len-1 entries.
            let j = block[..len]
                .iter()
                .enumerate()
                .filter(|&(u, _)| u != i)
                .filter(|&(_, e)| route_cmp(e, &entry) == std::cmp::Ordering::Less)
                .count();
            if j == i && route_eq(&block[i], &entry) {
                return (false, len);
            }
            if j <= i {
                block[j..=i].rotate_right(1);
            } else {
                block[i..=j].rotate_left(1);
            }
            block[j] = entry;
            (true, len)
        }
        None => {
            let j = block[..len]
                .iter()
                .take_while(|e| route_cmp(e, &entry) == std::cmp::Ordering::Less)
                .count();
            if len < k {
                block[j..=len].rotate_right(1);
                block[j] = entry;
                (true, len + 1)
            } else if j == k {
                (false, len) // worse than every retained alternative
            } else {
                block[j..k].rotate_right(1);
                block[j] = entry;
                (true, len)
            }
        }
    }
}

/// The SoA twin of [`offer_block_aos`]: the same branch structure executed
/// against the parallel planes as tight scalar loops. The existing-via scan
/// reads only the `u32` next-hop plane; the rank pass compares against the
/// contiguous `f64` cost strip. Each arm mirrors its AoS counterpart's
/// exact rank semantics (full count vs first-non-less early exit) so the
/// two layouts stay bit-identical. The delta DBF exchange runs it on its
/// own route plane, too.
pub(crate) fn offer_block_soa(
    via: &mut [NodeId],
    cost: &mut [f64],
    hops: &mut [u32],
    len: usize,
    entry: RouteEntry,
) -> (bool, usize) {
    let k = via.len();
    let mut existing = len;
    for (u, &v) in via[..len].iter().enumerate() {
        if v == entry.via {
            existing = u;
            break;
        }
    }

    if existing < len {
        let i = existing;
        // Insertion index among the other len-1 entries: branch-free
        // accumulation over the cost strip.
        let mut j = 0usize;
        for u in 0..len {
            j += usize::from(u != i && plane_less(cost[u], hops[u], via[u], &entry));
        }
        if j == i && hops[i] == entry.hops && (cost[i] - entry.cost).abs() <= COST_EPS {
            return (false, len);
        }
        if j <= i {
            via[j..=i].rotate_right(1);
            cost[j..=i].rotate_right(1);
            hops[j..=i].rotate_right(1);
        } else {
            via[i..=j].rotate_left(1);
            cost[i..=j].rotate_left(1);
            hops[i..=j].rotate_left(1);
        }
        via[j] = entry.via;
        cost[j] = entry.cost;
        hops[j] = entry.hops;
        (true, len)
    } else {
        let mut j = 0usize;
        while j < len && plane_less(cost[j], hops[j], via[j], &entry) {
            j += 1;
        }
        if len < k {
            via[j..=len].rotate_right(1);
            cost[j..=len].rotate_right(1);
            hops[j..=len].rotate_right(1);
            via[j] = entry.via;
            cost[j] = entry.cost;
            hops[j] = entry.hops;
            (true, len + 1)
        } else if j == k {
            (false, len) // worse than every retained alternative
        } else {
            via[j..k].rotate_right(1);
            cost[j..k].rotate_right(1);
            hops[j..k].rotate_right(1);
            via[j] = entry.via;
            cost[j] = entry.cost;
            hops[j] = entry.hops;
            (true, len)
        }
    }
}

/// [`offer_block_soa`] unrolled for `k == 2`, the paper's configuration.
/// Every arm is a hand-expansion of the generic code at `len ∈ {0, 1, 2}`
/// — same existing-via scan, same asymmetric rank rules, same rotations —
/// which the layout differential suite pins against the AoS oracle.
#[inline(always)]
pub(crate) fn offer_block_soa2(
    via: &mut [NodeId],
    cost: &mut [f64],
    hops: &mut [u32],
    len: usize,
    e: RouteEntry,
) -> (bool, usize) {
    if len == 0 {
        via[0] = e.via;
        cost[0] = e.cost;
        hops[0] = e.hops;
        return (true, 1);
    }
    let v0 = via[0];
    if len == 1 {
        if v0 == e.via {
            // Replace the only entry (rank stays 0): a no-change offer
            // must not report a change.
            if hops[0] == e.hops && (cost[0] - e.cost).abs() <= COST_EPS {
                return (false, 1);
            }
            cost[0] = e.cost;
            hops[0] = e.hops;
            return (true, 1);
        }
        if plane_less(cost[0], hops[0], v0, &e) {
            via[1] = e.via;
            cost[1] = e.cost;
            hops[1] = e.hops;
        } else {
            via[1] = v0;
            cost[1] = cost[0];
            hops[1] = hops[0];
            via[0] = e.via;
            cost[0] = e.cost;
            hops[0] = e.hops;
        }
        return (true, 2);
    }
    // len == 2: both slots live.
    let v1 = via[1];
    if v0 == e.via {
        // Replacing the best: rank among {slot 1} decides stay-or-swap.
        if !plane_less(cost[1], hops[1], v1, &e) {
            if hops[0] == e.hops && (cost[0] - e.cost).abs() <= COST_EPS {
                return (false, 2);
            }
            cost[0] = e.cost;
            hops[0] = e.hops;
        } else {
            via[0] = v1;
            cost[0] = cost[1];
            hops[0] = hops[1];
            via[1] = e.via;
            cost[1] = e.cost;
            hops[1] = e.hops;
        }
        (true, 2)
    } else if v1 == e.via {
        // Replacing the alternative: rank among {slot 0}.
        if plane_less(cost[0], hops[0], v0, &e) {
            if hops[1] == e.hops && (cost[1] - e.cost).abs() <= COST_EPS {
                return (false, 2);
            }
            cost[1] = e.cost;
            hops[1] = e.hops;
        } else {
            via[1] = v0;
            cost[1] = cost[0];
            hops[1] = hops[0];
            via[0] = e.via;
            cost[0] = e.cost;
            hops[0] = e.hops;
        }
        (true, 2)
    } else if !plane_less(cost[0], hops[0], v0, &e) {
        // New neighbor ranked best: old best becomes the alternative, the
        // old alternative is evicted.
        via[1] = v0;
        cost[1] = cost[0];
        hops[1] = hops[0];
        via[0] = e.via;
        cost[0] = e.cost;
        hops[0] = e.hops;
        (true, 2)
    } else if !plane_less(cost[1], hops[1], v1, &e) {
        // New neighbor evicts the alternative.
        via[1] = e.via;
        cost[1] = e.cost;
        hops[1] = e.hops;
        (true, 2)
    } else {
        (false, 2) // worse than both retained alternatives
    }
}

/// Whether [`offer_block_soa`] (or [`offer_block_soa2`]) would turn
/// `entry` away untouched for the simplest reason: the block is full, no
/// slot holds `entry.via`, and every slot orders strictly before it on
/// cost alone (`cost[u] - entry.cost < -COST_EPS`, the comparison
/// `plane_less` itself evaluates). `via`/`cost` are the whole `k`-slot
/// block and `len` its live prefix. Every condition is evaluated (`&`, not
/// `&&`) over all `k` slots, so slots past a short block's live prefix are
/// read but cannot matter. A NaN cost makes its comparison false, so such
/// an offer is never rejected here and falls through to the kernel.
#[inline(always)]
pub(crate) fn offer_rejected(via: &[NodeId], cost: &[f64], len: usize, entry: &RouteEntry) -> bool {
    let mut rejected = len == via.len();
    for (&v, &c) in via.iter().zip(cost) {
        rejected &= (v != entry.via) & (c - entry.cost < -COST_EPS);
    }
    rejected
}

/// A node's routing table: for each in-zone destination, up to `k` route
/// alternatives sorted best-first.
///
/// Entries are keyed by next-hop neighbor: at most one entry per `via` per
/// destination, mirroring the paper's "cost of going to the destination
/// through each of its neighbors" (truncated to the best `k`).
///
/// # Example
///
/// ```
/// use spms_net::NodeId;
/// use spms_routing::{RouteEntry, RoutingTable, TableLayout};
///
/// let mut t = RoutingTable::new(2); // SoA planes by default
/// let d = NodeId::new(9);
/// t.offer(d, RouteEntry { via: NodeId::new(1), cost: 0.5, hops: 2 });
/// t.offer(d, RouteEntry { via: NodeId::new(2), cost: 0.2, hops: 3 });
/// assert_eq!(t.best(d).unwrap().via, NodeId::new(2));
/// assert_eq!(t.alternative(d, 1).unwrap().via, NodeId::new(1));
///
/// // The AoS oracle builds the identical table from the same offers.
/// let mut oracle = RoutingTable::with_layout(2, TableLayout::Aos);
/// oracle.offer(d, RouteEntry { via: NodeId::new(1), cost: 0.5, hops: 2 });
/// oracle.offer(d, RouteEntry { via: NodeId::new(2), cost: 0.2, hops: 3 });
/// assert_eq!(t, oracle);
/// ```
#[derive(Clone)]
pub struct RoutingTable {
    /// Destinations with at least one route, sorted by id.
    dests: Vec<NodeId>,
    /// Live routes per destination (`lens[i] <= k`).
    lens: Vec<u32>,
    /// The slot storage: `k` slots per destination, best-first.
    arena: Arena,
    k: usize,
}

impl RoutingTable {
    /// Creates an empty table keeping at most `k` alternatives per
    /// destination, in the default (SoA) layout.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self::with_layout(k, TableLayout::default())
    }

    /// Creates an empty table in an explicit arena layout.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_layout(k: usize, layout: TableLayout) -> Self {
        assert!(k > 0, "k must be at least 1");
        RoutingTable {
            dests: Vec::new(),
            lens: Vec::new(),
            arena: Arena::empty(layout),
            k,
        }
    }

    /// The configured number of alternatives.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The arena layout this table currently stores routes in.
    #[must_use]
    pub fn layout(&self) -> TableLayout {
        self.arena.layout()
    }

    /// Re-stores the table's contents in `layout` (no-op when already
    /// there). Logical content is preserved exactly; only the physical
    /// arena changes.
    pub fn convert_layout(&mut self, layout: TableLayout) {
        if self.arena.layout() == layout {
            return;
        }
        let total = self.dests.len() * self.k;
        let mut next = Arena::empty(layout);
        match &mut next {
            Arena::Aos { slots } => slots.reserve(total),
            Arena::Soa {
                via, cost, hops, ..
            } => {
                via.reserve(total);
                cost.reserve(total);
                hops.reserve(total);
            }
        }
        for idx in 0..total {
            let e = self.arena.entry(idx);
            match &mut next {
                Arena::Aos { slots } => slots.push(e),
                Arena::Soa {
                    via, cost, hops, ..
                } => {
                    via.push(e.via);
                    cost.push(e.cost);
                    hops.push(e.hops);
                }
            }
        }
        self.arena = next;
        self.reindex(&[]);
    }

    /// Index of `dest` in the arena, if present. The SoA arena answers from
    /// its destination index plane in one load; the AoS oracle keeps the
    /// original binary search.
    #[inline]
    fn pos(&self, dest: NodeId) -> Option<usize> {
        match &self.arena {
            Arena::Soa { slot_of, .. } => match slot_of.get(dest.index()) {
                Some(&s) if s != 0 => Some((s - 1) as usize),
                _ => None,
            },
            Arena::Aos { .. } => self.dests.binary_search(&dest).ok(),
        }
    }

    /// Offers a route to `dest`; returns `true` if the table changed (the
    /// trigger condition for re-broadcasting a distance vector).
    ///
    /// If an entry via the same neighbor exists it is replaced when the new
    /// route differs (distance vectors report the neighbor's current truth,
    /// not an improvement offer); the block stays sorted and truncated to
    /// `k`. An offer that does not make the top `k` is not a change — it
    /// must not trigger another broadcast round, or the exchange would
    /// never quiesce.
    #[inline]
    pub fn offer(&mut self, dest: NodeId, entry: RouteEntry) -> bool {
        // Hot path: the SoA index plane resolves a known destination in one
        // load. Misses (and the AoS oracle) fall through to the binary
        // search, which doubles as the insertion point.
        if let Arena::Soa { slot_of, .. } = &self.arena {
            if let Some(&s) = slot_of.get(dest.index()) {
                if s != 0 {
                    return self.offer_at((s - 1) as usize, entry);
                }
            }
        }
        let pos = match self.dests.binary_search(&dest) {
            Ok(p) => p,
            Err(p) => {
                self.insert_dest_at(p, dest);
                p
            }
        };
        self.offer_at(pos, entry)
    }

    /// [`RoutingTable::offer`] with the destination binary search hoisted
    /// out of the k-slot scan and bounded below by an ascending cursor.
    ///
    /// Distance-vector replay offers a vector's entries in destination-id
    /// order (tables iterate in id order and delta vectors come from
    /// ordered sets), so a receiver applying one vector can carry a cursor:
    /// each lookup searches only the destinations **past the previous
    /// hit** instead of the whole array — the dominant per-entry cost of
    /// the DBF inner loop shrinks with every entry applied. Reset the
    /// cursor to `0` at the start of every vector. The table mutation is
    /// exactly `offer`'s (shared block merge), so results are identical
    /// entry for entry.
    ///
    /// Destinations offered through one cursor must arrive in strictly
    /// ascending id order (debug-asserted).
    #[inline]
    pub fn offer_ascending(&mut self, dest: NodeId, entry: RouteEntry, cursor: &mut usize) -> bool {
        let lb = (*cursor).min(self.dests.len());
        debug_assert!(
            lb == 0 || self.dests[lb - 1] < dest,
            "offer_ascending needs strictly ascending destinations per cursor"
        );
        // Known destinations resolve through the SoA index plane exactly as
        // in `offer`; the cursor still advances so later misses search only
        // past this hit.
        if let Arena::Soa { slot_of, .. } = &self.arena {
            if let Some(&s) = slot_of.get(dest.index()) {
                if s != 0 {
                    let pos = (s - 1) as usize;
                    *cursor = pos + 1;
                    return self.offer_at(pos, entry);
                }
            }
        }
        let pos = match self.dests[lb..].binary_search(&dest) {
            Ok(p) => lb + p,
            Err(p) => {
                let p = lb + p;
                self.insert_dest_at(p, dest);
                p
            }
        };
        *cursor = pos + 1;
        self.offer_at(pos, entry)
    }

    /// Inserts an empty `k`-slot block for `dest` at arena position `p`.
    fn insert_dest_at(&mut self, p: usize, dest: NodeId) {
        let k = self.k;
        self.dests.insert(p, dest);
        self.lens.insert(p, 0);
        self.arena.splice_vacant(p * k, k);
        if let Arena::Soa { slot_of, .. } = &mut self.arena {
            let i = dest.index();
            if slot_of.len() <= i {
                slot_of.resize(i + 1, 0);
            }
            slot_of[i] = (p + 1) as u32;
            // Everything after the insertion point shifted up one row —
            // same O(tail) the `Vec::insert`s above already pay.
            for d in &self.dests[p + 1..] {
                slot_of[d.index()] += 1;
            }
        }
    }

    /// The k-slot block merge shared by [`RoutingTable::offer`] and
    /// [`RoutingTable::offer_ascending`]: dispatches once on the arena
    /// layout, then runs the layout's kernel on the block at `pos`.
    #[inline]
    fn offer_at(&mut self, pos: usize, entry: RouteEntry) -> bool {
        let k = self.k;
        let base = pos * k;
        let len = self.lens[pos] as usize;
        let (changed, new_len) = match &mut self.arena {
            Arena::Aos { slots } => offer_block_aos(&mut slots[base..base + k], len, entry),
            // The k dispatch happens here, outside the generic kernel, so
            // the hot k = 2 case inlines without dragging the generic body
            // along.
            Arena::Soa {
                via, cost, hops, ..
            } if k == 2 => offer_block_soa2(
                &mut via[base..base + 2],
                &mut cost[base..base + 2],
                &mut hops[base..base + 2],
                len,
                entry,
            ),
            Arena::Soa {
                via, cost, hops, ..
            } => offer_block_soa(
                &mut via[base..base + k],
                &mut cost[base..base + k],
                &mut hops[base..base + k],
                len,
                entry,
            ),
        };
        self.lens[pos] = new_len as u32;
        changed
    }

    /// The best route to `dest`, if any.
    #[must_use]
    pub fn best(&self, dest: NodeId) -> Option<RouteEntry> {
        let p = self.pos(dest)?;
        (self.lens[p] > 0).then(|| self.arena.entry(p * self.k))
    }

    /// The `i`-th best route to `dest` (0 = best).
    #[must_use]
    pub fn alternative(&self, dest: NodeId, i: usize) -> Option<RouteEntry> {
        let p = self.pos(dest)?;
        (i < self.lens[p] as usize).then(|| self.arena.entry(p * self.k + i))
    }

    /// All alternatives to `dest`, best first, as a by-value view.
    #[must_use]
    pub fn routes_to(&self, dest: NodeId) -> Routes<'_> {
        match self.pos(dest) {
            Some(p) => Routes {
                table: self,
                base: p * self.k,
                len: self.lens[p] as usize,
            },
            None => Routes {
                table: self,
                base: 0,
                len: 0,
            },
        }
    }

    /// The best route to `dest` that does not go through `avoid` — the
    /// lookup used when a next hop is suspected failed.
    #[must_use]
    pub fn best_avoiding(&self, dest: NodeId, avoid: NodeId) -> Option<RouteEntry> {
        self.routes_to(dest).iter().find(|e| e.via != avoid)
    }

    /// Destinations with at least one route, in id order.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dests.iter().copied()
    }

    /// `(destination, routes)` pairs in id order — the arena walk used to
    /// build distance vectors without per-destination lookups.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Routes<'_>)> + '_ {
        self.dests.iter().enumerate().map(move |(p, &d)| {
            (
                d,
                Routes {
                    table: self,
                    base: p * self.k,
                    len: self.lens[p] as usize,
                },
            )
        })
    }

    /// Appends `(dest, best_cost, best_hops)` for every destination to
    /// `out` — the whole-table flattening the DBF snapshot loops use to
    /// build full distance vectors. The destination is stored as any type
    /// built from its raw id (`NodeId` or a bare `u32`). In the SoA layout
    /// this walks the cost and hops planes directly (stride `k`) without
    /// materializing `RouteEntry` values; in AoS it reads the first slot
    /// per block.
    pub fn append_vector<D: From<u32>>(&self, out: &mut Vec<(D, f64, u32)>) {
        let k = self.k;
        match &self.arena {
            Arena::Aos { slots } => out.extend(self.dests.iter().enumerate().map(|(p, &d)| {
                let e = slots[p * k];
                (D::from(d.raw()), e.cost, e.hops)
            })),
            Arena::Soa { cost, hops, .. } => out.extend(
                self.dests
                    .iter()
                    .enumerate()
                    .map(|(p, &d)| (D::from(d.raw()), cost[p * k], hops[p * k])),
            ),
        }
    }

    /// [`RoutingTable::append_vector`] restricted to news: appends
    /// `(dest, best_cost, best_hops)` only for the destinations whose best
    /// [`is_news`] against `sent[p]`, the best last broadcast for table
    /// position `p`, and records it there.
    ///
    /// # Panics
    ///
    /// Panics unless `sent` has one entry per destination.
    pub(crate) fn append_news(&self, out: &mut Vec<(u32, f64, u32)>, sent: &mut [(f64, u32)]) {
        assert_eq!(
            sent.len(),
            self.dests.len(),
            "one sent route per destination"
        );
        let k = self.k;
        let mut push = |p: usize, best: (f64, u32)| {
            if is_news(best, sent[p]) {
                sent[p] = best;
                out.push((self.dests[p].raw(), best.0, best.1));
            }
        };
        match &self.arena {
            Arena::Aos { slots } => {
                for p in 0..self.dests.len() {
                    let e = slots[p * k];
                    push(p, (e.cost, e.hops));
                }
            }
            Arena::Soa { cost, hops, .. } => {
                for p in 0..self.dests.len() {
                    push(p, (cost[p * k], hops[p * k]));
                }
            }
        }
    }

    /// Number of destinations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// `true` when no destinations are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// Total entries across destinations (for wire-size accounting).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Removes every route whose next hop is `via`; returns `true` if
    /// anything was removed. Destinations left with no routes are dropped.
    pub fn purge_via(&mut self, via: NodeId) -> bool {
        let mut changed = false;
        for p in (0..self.dests.len()).rev() {
            let base = p * self.k;
            let len = self.lens[p] as usize;
            let mut kept = 0;
            for i in 0..len {
                let e = self.arena.entry(base + i);
                if e.via != via {
                    if kept != i {
                        self.arena.write(base + kept, e);
                    }
                    kept += 1;
                }
            }
            if kept == len {
                continue;
            }
            changed = true;
            for i in kept..len {
                self.arena.write(base + i, VACANT);
            }
            self.lens[p] = kept as u32;
            if kept == 0 {
                self.remove_at(p);
            }
        }
        changed
    }

    /// Removes every route to `dest`; returns `true` if the destination was
    /// present. Used by the incremental DBF to invalidate the routes a
    /// topology change may have broken before re-converging them.
    pub fn remove_dest(&mut self, dest: NodeId) -> bool {
        match self.pos(dest) {
            Some(p) => {
                self.remove_at(p);
                true
            }
            None => false,
        }
    }

    /// Removes every route to each destination in `dests` — which must be
    /// sorted ascending and distinct — in **one** compaction pass over the
    /// arena; returns how many destinations were actually present.
    /// Repeated [`RoutingTable::remove_dest`] calls would shift the arena
    /// once per destination. All planes compact in lockstep in the SoA
    /// layout. The incremental DBF's write-back runs the same compaction
    /// before merging in its converged routes.
    pub fn remove_dests(&mut self, dests: &[NodeId]) -> usize {
        let kept = self.compact_out(dests);
        let removed = self.dests.len() - kept;
        self.resize_rows(kept);
        if removed > 0 {
            self.reindex(dests);
        }
        removed
    }

    /// Replaces the routes to each destination in `dests` — sorted
    /// ascending and distinct — with the matching block of the given
    /// planes: destination `dests[i]` gets the `lens[i]` live routes at
    /// `via`/`cost`/`hops[i * k..]`, best first, and ends absent when
    /// `lens[i]` is zero. Equivalent to [`RoutingTable::remove_dests`]
    /// followed by offering each block's routes, in one in-place merge:
    /// the surviving rows compact down, then the merge runs from the back.
    /// Allocates nothing once the table has held as many rows.
    pub(crate) fn splice(
        &mut self,
        dests: &[NodeId],
        lens: &[u32],
        via: &[NodeId],
        cost: &[f64],
        hops: &[u32],
    ) {
        let k = self.k;
        debug_assert!(
            lens.len() == dests.len()
                && [via.len(), cost.len(), hops.len()] == [dests.len() * k; 3],
            "one k-slot block per destination"
        );
        let kept = self.compact_out(dests);
        let added = lens.iter().filter(|&&l| l > 0).count();
        self.resize_rows(kept + added);
        // Merge from the back: a surviving row only ever moves up, into a
        // row the merge has already passed.
        let mut old = kept;
        let mut new = dests.len();
        for w in (0..kept + added).rev() {
            while new > 0 && lens[new - 1] == 0 {
                new -= 1;
            }
            if new > 0 && (old == 0 || dests[new - 1] > self.dests[old - 1]) {
                new -= 1;
                let len = lens[new] as usize;
                self.dests[w] = dests[new];
                self.lens[w] = len as u32;
                for i in 0..len {
                    let at = new * k + i;
                    self.arena.write(
                        w * k + i,
                        RouteEntry {
                            via: via[at],
                            cost: cost[at],
                            hops: hops[at],
                        },
                    );
                }
            } else {
                old -= 1;
                if old != w {
                    self.dests[w] = self.dests[old];
                    self.lens[w] = self.lens[old];
                    self.arena.copy_block(old * k, w * k, k);
                }
            }
        }
        self.reindex(dests);
    }

    /// Compacts the rows of every destination not in `dests` (sorted
    /// ascending, distinct) to the front, in order, and returns how many
    /// there are. Rows past that count are stale until resized away.
    fn compact_out(&mut self, dests: &[NodeId]) -> usize {
        debug_assert!(
            dests.windows(2).all(|w| w[0] < w[1]),
            "the destination set must be sorted and distinct"
        );
        let k = self.k;
        let mut kept = 0usize;
        let mut cursor = 0usize;
        for p in 0..self.dests.len() {
            let d = self.dests[p];
            while cursor < dests.len() && dests[cursor] < d {
                cursor += 1;
            }
            if cursor < dests.len() && dests[cursor] == d {
                continue; // dropped: later rows compact over it
            }
            if kept != p {
                self.dests[kept] = d;
                self.lens[kept] = self.lens[p];
                self.arena.copy_block(p * k, kept * k, k);
            }
            kept += 1;
        }
        kept
    }

    /// Truncates or extends (with vacant rows) the table to `rows`
    /// destination rows, without touching the index plane.
    fn resize_rows(&mut self, rows: usize) {
        self.dests.resize(rows, VACANT.via);
        self.lens.resize(rows, 0);
        self.arena.resize(rows * self.k);
    }

    /// Rewrites the SoA destination index plane after a batch change of
    /// rows (no-op in AoS): clears the entries of `dropped`, every
    /// destination that may have lost its row, and re-points every current
    /// row. Costs O(rows), not O(max id), and allocates nothing once the
    /// plane has grown.
    fn reindex(&mut self, dropped: &[NodeId]) {
        if let Arena::Soa { slot_of, .. } = &mut self.arena {
            for d in dropped {
                if let Some(s) = slot_of.get_mut(d.index()) {
                    *s = 0;
                }
            }
            if let Some(last) = self.dests.last() {
                if slot_of.len() <= last.index() {
                    slot_of.resize(last.index() + 1, 0);
                }
            }
            for (p, d) in self.dests.iter().enumerate() {
                slot_of[d.index()] = (p + 1) as u32;
            }
        }
    }

    fn remove_at(&mut self, p: usize) {
        let dest = self.dests.remove(p);
        self.lens.remove(p);
        self.arena.drain_block(p * self.k, self.k);
        if let Arena::Soa { slot_of, .. } = &mut self.arena {
            slot_of[dest.index()] = 0;
            for d in &self.dests[p..] {
                slot_of[d.index()] -= 1;
            }
        }
    }

    /// Clears the table (used when DBF re-executes from scratch). Keeps the
    /// arena's capacity so rebuilds do not reallocate, and keeps the
    /// configured layout.
    pub fn clear(&mut self) {
        self.dests.clear();
        self.lens.clear();
        self.arena.clear();
    }
}

impl PartialEq for RoutingTable {
    /// Live entries only, layout-blind: a SoA table equals the AoS table
    /// holding the same routes (vacant arena slots never affect equality).
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.dests == other.dests
            && self.lens == other.lens
            && self.iter().zip(other.iter()).all(|(a, b)| a.1 == b.1)
    }
}

impl std::fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        for (d, routes) in self.iter() {
            m.entry(&d, &routes);
        }
        m.finish()
    }
}

/// A borrowed, by-value view of one destination's live routes, best first.
///
/// The SoA arena has no contiguous `[RouteEntry]` to hand out, so this view
/// replaces the slice the pre-SoA `routes_to` returned: it is `Copy`,
/// iterates `RouteEntry` **values**, and compares layout-blind (a view into
/// a SoA table equals the view of the same routes in an AoS table).
#[derive(Clone, Copy)]
pub struct Routes<'a> {
    table: &'a RoutingTable,
    base: usize,
    len: usize,
}

impl Routes<'_> {
    /// Number of live routes in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the destination has no routes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th best route (0 = best), if live.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<RouteEntry> {
        (i < self.len).then(|| self.table.arena.entry(self.base + i))
    }

    /// Iterates the live routes by value, best first.
    #[must_use]
    pub fn iter(&self) -> RoutesIter<'_> {
        RoutesIter {
            routes: *self,
            front: 0,
        }
    }

    /// Collects the live routes into a `Vec` (for slice-style access such
    /// as `windows`).
    #[must_use]
    pub fn to_vec(&self) -> Vec<RouteEntry> {
        self.iter().collect()
    }
}

impl PartialEq for Routes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Routes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Routes<'a> {
    type Item = RouteEntry;
    type IntoIter = RoutesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        RoutesIter {
            routes: self,
            front: 0,
        }
    }
}

impl<'a> IntoIterator for &Routes<'a> {
    type Item = RouteEntry;
    type IntoIter = RoutesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        RoutesIter {
            routes: *self,
            front: 0,
        }
    }
}

/// Iterator over a [`Routes`] view, yielding `RouteEntry` values.
pub struct RoutesIter<'a> {
    routes: Routes<'a>,
    front: usize,
}

impl Iterator for RoutesIter<'_> {
    type Item = RouteEntry;

    fn next(&mut self) -> Option<RouteEntry> {
        let e = self.routes.get(self.front)?;
        self.front += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.routes.len - self.front;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for RoutesIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [TableLayout; 2] = [TableLayout::Soa, TableLayout::Aos];

    fn e(via: u32, cost: f64, hops: u32) -> RouteEntry {
        RouteEntry {
            via: NodeId::new(via),
            cost,
            hops,
        }
    }

    #[test]
    fn soa_is_the_default_layout() {
        assert_eq!(TableLayout::default(), TableLayout::Soa);
        assert_eq!(RoutingTable::new(2).layout(), TableLayout::Soa);
        assert_eq!(
            RoutingTable::with_layout(2, TableLayout::Aos).layout(),
            TableLayout::Aos
        );
    }

    #[test]
    fn keeps_best_k_sorted() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            let d = NodeId::new(100);
            assert!(t.offer(d, e(1, 3.0, 1)));
            assert!(t.offer(d, e(2, 1.0, 2)));
            assert!(t.offer(d, e(3, 2.0, 2)));
            assert_eq!(t.routes_to(d).len(), 2);
            assert_eq!(t.best(d).unwrap().via, NodeId::new(2));
            assert_eq!(t.alternative(d, 1).unwrap().via, NodeId::new(3));
            assert!(t.alternative(d, 2).is_none());
        }
    }

    #[test]
    fn replaces_route_via_same_neighbor() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            let d = NodeId::new(5);
            assert!(t.offer(d, e(1, 3.0, 2)));
            // Same neighbor, same route: no change.
            assert!(!t.offer(d, e(1, 3.0, 2)));
            // Same neighbor, worse cost: replaced (vector reports current
            // truth).
            assert!(t.offer(d, e(1, 4.0, 2)));
            assert_eq!(t.best(d).unwrap().cost, 4.0);
            // And improvement also replaces.
            assert!(t.offer(d, e(1, 2.0, 2)));
            assert_eq!(t.best(d).unwrap().cost, 2.0);
            assert_eq!(t.routes_to(d).len(), 1);
        }
    }

    #[test]
    fn tie_breaks_on_hops_then_id() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(3, layout);
            let d = NodeId::new(7);
            t.offer(d, e(9, 1.0, 3));
            t.offer(d, e(4, 1.0, 2));
            t.offer(d, e(2, 1.0, 3));
            let vias: Vec<u32> = t.routes_to(d).iter().map(|r| r.via.raw()).collect();
            assert_eq!(vias, vec![4, 2, 9]);
        }
    }

    #[test]
    fn best_avoiding_skips_failed_neighbor() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            let d = NodeId::new(7);
            t.offer(d, e(1, 1.0, 1));
            t.offer(d, e(2, 2.0, 2));
            assert_eq!(
                t.best_avoiding(d, NodeId::new(1)).unwrap().via,
                NodeId::new(2)
            );
            assert!(t.best_avoiding(d, NodeId::new(1)).is_some());
            t.purge_via(NodeId::new(2));
            assert!(t.best_avoiding(d, NodeId::new(1)).is_none());
        }
    }

    #[test]
    fn purge_via_drops_empty_destinations() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            t.offer(NodeId::new(7), e(1, 1.0, 1));
            t.offer(NodeId::new(8), e(1, 1.0, 1));
            t.offer(NodeId::new(8), e(2, 2.0, 2));
            assert!(t.purge_via(NodeId::new(1)));
            assert_eq!(t.len(), 1);
            assert!(t.best(NodeId::new(7)).is_none());
            assert_eq!(t.best(NodeId::new(8)).unwrap().via, NodeId::new(2));
            assert!(!t.purge_via(NodeId::new(9)));
        }
    }

    #[test]
    fn accounting_helpers() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            assert!(t.is_empty());
            t.offer(NodeId::new(1), e(2, 1.0, 1));
            t.offer(NodeId::new(3), e(2, 1.0, 1));
            t.offer(NodeId::new(3), e(4, 2.0, 2));
            assert_eq!(t.len(), 2);
            assert_eq!(t.total_entries(), 3);
            let dests: Vec<u32> = t.destinations().map(NodeId::raw).collect();
            assert_eq!(dests, vec![1, 3]);
            t.clear();
            assert!(t.is_empty());
            assert_eq!(t.layout(), layout, "clear keeps the layout");
        }
    }

    #[test]
    fn remove_dest_drops_only_that_destination() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            t.offer(NodeId::new(1), e(2, 1.0, 1));
            t.offer(NodeId::new(3), e(2, 1.0, 1));
            assert!(t.remove_dest(NodeId::new(1)));
            assert!(!t.remove_dest(NodeId::new(1)));
            assert!(t.best(NodeId::new(1)).is_none());
            assert_eq!(t.best(NodeId::new(3)).unwrap().via, NodeId::new(2));
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn remove_dests_compacts_in_one_pass() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            for d in [1u32, 3, 5, 7, 9] {
                t.offer(NodeId::new(d), e(2, f64::from(d), 1));
                t.offer(NodeId::new(d), e(4, f64::from(d) + 1.0, 2));
            }
            // Mixed present/absent targets; the absent ones count for
            // nothing.
            let removed = t.remove_dests(&[NodeId::new(3), NodeId::new(4), NodeId::new(9)]);
            assert_eq!(removed, 2);
            assert_eq!(t.len(), 3);
            for d in [1u32, 5, 7] {
                assert_eq!(t.best(NodeId::new(d)).unwrap().cost, f64::from(d));
                assert_eq!(t.routes_to(NodeId::new(d)).len(), 2);
            }
            assert!(t.best(NodeId::new(3)).is_none());
            assert!(t.best(NodeId::new(9)).is_none());
            // Equivalent to the per-destination removals, bit for bit.
            let mut one_by_one = RoutingTable::with_layout(2, layout);
            for d in [1u32, 5, 7] {
                one_by_one.offer(NodeId::new(d), e(2, f64::from(d), 1));
                one_by_one.offer(NodeId::new(d), e(4, f64::from(d) + 1.0, 2));
            }
            assert_eq!(t, one_by_one);
            assert_eq!(t.remove_dests(&[]), 0);
            assert_eq!(t.len(), 3);
        }
    }

    #[test]
    fn splice_equals_remove_then_offer() {
        // Blocks for 2 (new, before every row), 3 (present, emptied), 4
        // (new, mid-table), 7 (present, replaced) and 11 (new, past the
        // end): the merge must land on what a wipe and fresh offers build.
        let dests: Vec<NodeId> = [2u32, 3, 4, 7, 11].map(NodeId::new).to_vec();
        let lens = [1u32, 0, 2, 1, 2];
        let blocks = [
            [e(6, 0.5, 1), VACANT],
            [VACANT, VACANT],
            [e(1, 1.5, 2), e(8, 2.5, 3)],
            [e(2, 0.25, 1), VACANT],
            [e(3, 3.0, 2), e(4, 3.0, 3)],
        ];
        let via: Vec<NodeId> = blocks.iter().flatten().map(|r| r.via).collect();
        let cost: Vec<f64> = blocks.iter().flatten().map(|r| r.cost).collect();
        let hops: Vec<u32> = blocks.iter().flatten().map(|r| r.hops).collect();
        for layout in BOTH {
            for present in [&[][..], &[1u32, 3, 5, 7, 9][..], &[3u32, 7][..]] {
                let mut spliced = RoutingTable::with_layout(2, layout);
                for &d in present {
                    spliced.offer(NodeId::new(d), e(2, f64::from(d), 1));
                    spliced.offer(NodeId::new(d), e(4, f64::from(d) + 1.0, 2));
                }
                let mut want = spliced.clone();
                want.remove_dests(&dests);
                for (i, &d) in dests.iter().enumerate() {
                    for route in &blocks[i][..lens[i] as usize] {
                        want.offer(d, *route);
                    }
                }
                spliced.splice(&dests, &lens, &via, &cost, &hops);
                assert_eq!(spliced, want, "{layout:?} over {present:?}");
                // The index plane follows the moved rows: lookups and
                // later offers behave alike.
                for d in 0..12u32 {
                    let d = NodeId::new(d);
                    assert_eq!(spliced.best(d), want.best(d), "{layout:?}: best {d}");
                    assert_eq!(
                        spliced.offer(d, e(5, 0.1, 1)),
                        want.offer(d, e(5, 0.1, 1)),
                        "{layout:?}: offer {d}"
                    );
                }
                assert_eq!(spliced, want);
            }
        }
    }

    #[test]
    fn arena_iter_matches_lookups() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            t.offer(NodeId::new(4), e(1, 2.0, 1));
            t.offer(NodeId::new(4), e(3, 1.0, 1));
            t.offer(NodeId::new(9), e(1, 5.0, 2));
            let flat: Vec<(NodeId, usize)> = t.iter().map(|(d, rs)| (d, rs.len())).collect();
            assert_eq!(flat, vec![(NodeId::new(4), 2), (NodeId::new(9), 1)]);
            for (d, rs) in t.iter() {
                assert_eq!(rs, t.routes_to(d));
            }
        }
    }

    #[test]
    fn append_vector_flattens_best_routes() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            t.offer(NodeId::new(4), e(1, 2.0, 1));
            t.offer(NodeId::new(4), e(3, 1.0, 1));
            t.offer(NodeId::new(9), e(1, 5.0, 2));
            let mut flat = vec![(NodeId::new(0), 0.0, 0)]; // appends, not overwrites
            t.append_vector(&mut flat);
            assert_eq!(
                flat[1..],
                [(NodeId::new(4), 1.0, 1), (NodeId::new(9), 5.0, 2)]
            );
        }
    }

    #[test]
    fn equality_ignores_vacant_slots() {
        for layout in BOTH {
            // Build the same logical table along two different histories, so
            // the vacant arena slots hold different garbage.
            let mut a = RoutingTable::with_layout(2, layout);
            a.offer(NodeId::new(7), e(1, 1.0, 1));
            a.offer(NodeId::new(7), e(2, 2.0, 2));
            a.purge_via(NodeId::new(2));
            let mut b = RoutingTable::with_layout(2, layout);
            b.offer(NodeId::new(7), e(1, 1.0, 1));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn equality_is_layout_blind() {
        let mut soa = RoutingTable::new(2);
        let mut aos = RoutingTable::with_layout(2, TableLayout::Aos);
        for t in [&mut soa, &mut aos] {
            t.offer(NodeId::new(7), e(1, 1.0, 1));
            t.offer(NodeId::new(7), e(2, 2.0, 2));
            t.offer(NodeId::new(9), e(2, 4.0, 3));
        }
        assert_eq!(soa, aos);
        aos.offer(NodeId::new(9), e(1, 3.0, 1));
        assert_ne!(soa, aos);
    }

    #[test]
    fn convert_layout_preserves_contents() {
        let mut t = RoutingTable::new(3);
        for d in [2u32, 5, 9] {
            for via in 1..=4u32 {
                t.offer(NodeId::new(d), e(via, f64::from(via * d % 7) + 0.5, via));
            }
        }
        let original = t.clone();
        t.convert_layout(TableLayout::Aos);
        assert_eq!(t.layout(), TableLayout::Aos);
        assert_eq!(t, original);
        t.convert_layout(TableLayout::Aos); // no-op
        assert_eq!(t.layout(), TableLayout::Aos);
        t.convert_layout(TableLayout::Soa);
        assert_eq!(t.layout(), TableLayout::Soa);
        assert_eq!(t, original);
        // The round-tripped table keeps behaving identically.
        let mut twin = original.clone();
        assert_eq!(
            t.offer(NodeId::new(5), e(9, 0.1, 1)),
            twin.offer(NodeId::new(5), e(9, 0.1, 1))
        );
        assert_eq!(t, twin);
    }

    #[test]
    fn worse_offer_outside_top_k_is_not_a_change() {
        for layout in BOTH {
            let mut t = RoutingTable::with_layout(2, layout);
            let d = NodeId::new(3);
            assert!(t.offer(d, e(1, 1.0, 1)));
            assert!(t.offer(d, e(2, 2.0, 1)));
            assert!(!t.offer(d, e(5, 9.0, 1)), "does not make the top 2");
            assert_eq!(t.routes_to(d).len(), 2);
            // But an improving third neighbor displaces the second.
            assert!(t.offer(d, e(5, 1.5, 1)));
            let vias: Vec<u32> = t.routes_to(d).iter().map(|r| r.via.raw()).collect();
            assert_eq!(vias, vec![1, 5]);
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = RoutingTable::new(0);
    }

    #[test]
    fn offer_ascending_replays_identically_to_offer() {
        // Three "vectors" (ascending dests each), with replacements,
        // displacements and new destinations mixed in — the cursor path
        // must land on exactly the table the plain offers build.
        let vectors: [&[(u32, RouteEntry)]; 3] = [
            &[(2, e(1, 3.0, 2)), (5, e(1, 1.0, 1)), (9, e(1, 2.0, 2))],
            &[(2, e(2, 2.5, 2)), (3, e(2, 1.0, 1)), (9, e(2, 1.5, 1))],
            &[(2, e(1, 2.0, 2)), (5, e(3, 0.5, 1)), (7, e(3, 4.0, 3))],
        ];
        for layout in BOTH {
            let mut plain = RoutingTable::with_layout(2, layout);
            let mut cursored = RoutingTable::with_layout(2, layout);
            for vector in vectors {
                let mut cursor = 0usize;
                for &(d, entry) in vector {
                    let a = plain.offer(NodeId::new(d), entry);
                    let b = cursored.offer_ascending(NodeId::new(d), entry, &mut cursor);
                    assert_eq!(a, b, "changed-flag must agree at dest {d}");
                }
            }
            assert_eq!(plain, cursored);
        }
    }

    #[test]
    fn layouts_agree_on_epsilon_tie_windows() {
        // Costs spaced ~COST_EPS apart exercise the non-transitive epsilon
        // comparator, where the replace arm's full-count rank and the
        // insert arm's early-exit rank can legitimately differ — the SoA
        // kernel must reproduce both arms exactly.
        let base = 1.0f64;
        let offers: Vec<(u32, RouteEntry)> = (0..6u32)
            .flat_map(|round| {
                (1..=4u32).map(move |via| {
                    (
                        7u32,
                        e(
                            via,
                            base + f64::from((round * 4 + via) % 5) * (COST_EPS * 0.6),
                            1 + (via + round) % 3,
                        ),
                    )
                })
            })
            .collect();
        let mut soa = RoutingTable::new(2);
        let mut aos = RoutingTable::with_layout(2, TableLayout::Aos);
        for &(d, entry) in &offers {
            let a = soa.offer(NodeId::new(d), entry);
            let b = aos.offer(NodeId::new(d), entry);
            assert_eq!(a, b, "changed flags diverged on {entry:?}");
            assert_eq!(soa, aos, "tables diverged after {entry:?}");
        }
    }

    /// Slot cost offsets from an offer's cost: well clear of, just beyond,
    /// at and within the `COST_EPS` tie window on either side, and NaN.
    const OFFSETS: [f64; 11] = [
        -1.0,
        -2.0 * COST_EPS,
        -1.5 * COST_EPS,
        -COST_EPS,
        -0.5 * COST_EPS,
        0.0,
        0.5 * COST_EPS,
        COST_EPS,
        1.5 * COST_EPS,
        1.0,
        f64::NAN,
    ];

    proptest::proptest! {
        // Cases are microseconds each; enough of them that every pairing
        // of a matched next hop with each offset bucket comes up.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Whenever the reject test turns an offer away, both SoA block
        /// kernels agree: they report no change and leave the block bit for
        /// bit as it was.
        #[test]
        fn offer_rejected_never_disagrees_with_the_kernels(
            k in 1usize..5,
            len in 0usize..5,
            slots in proptest::prop::collection::vec((0u32..6, 0..OFFSETS.len(), 1u32..4), 4),
            offer_via in 0u32..6,
            offer_cost in 0usize..4,
            offer_hops in 1u32..4,
        ) {
            let len = len.min(k);
            let offer_cost = [0.0, 0.05, 1.0, f64::NAN][offer_cost];
            let entry = e(offer_via, offer_cost, offer_hops);
            // At `0.0` the offsets are exact; elsewhere they round.
            let anchor = if offer_cost.is_nan() { 1.0 } else { offer_cost };
            let (mut via, mut cost, mut hops) = (Vec::new(), Vec::new(), Vec::new());
            for (u, &(v, off, h)) in slots[..k].iter().enumerate() {
                // A block holds at most one route per next hop.
                let v = NodeId::new(v);
                via.push(if via.contains(&v) { NodeId::new(100 + u as u32) } else { v });
                cost.push(anchor + OFFSETS[off]);
                hops.push(h);
            }
            if offer_rejected(&via, &cost, len, &entry) {
                let bits = |c: &[f64]| c.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let (mut v, mut c, mut h) = (via.clone(), cost.clone(), hops.clone());
                let mut runs = vec![offer_block_soa(&mut v, &mut c, &mut h, len, entry)];
                let mut blocks = vec![(v, c, h)];
                if k == 2 {
                    let (mut v, mut c, mut h) = (via.clone(), cost.clone(), hops.clone());
                    runs.push(offer_block_soa2(&mut v, &mut c, &mut h, len, entry));
                    blocks.push((v, c, h));
                }
                for (got, (v, c, h)) in runs.into_iter().zip(blocks) {
                    proptest::prop_assert_eq!(got, (false, len));
                    proptest::prop_assert_eq!(&v, &via);
                    proptest::prop_assert_eq!(bits(&c), bits(&cost));
                    proptest::prop_assert_eq!(&h, &hops);
                }
            }
        }
    }

    /// Cost offsets inside one tie level: every two within `COST_EPS`.
    const JITTER: [f64; 3] = [0.0, 0.25 * COST_EPS, -0.25 * COST_EPS];

    /// A block kernel's signature: `offer_block_soa` or `offer_block_soa2`.
    type Kernel = fn(&mut [NodeId], &mut [f64], &mut [u32], usize, RouteEntry) -> (bool, usize);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The premise of DBF's news-only rule. Costs sit on levels
        /// `3·COST_EPS` apart, each jittered by at most `COST_EPS / 4`, so
        /// two costs are tied or more than `2·COST_EPS` apart. Each via's
        /// successive offers to one block only improve: a lower level, or
        /// the same level with fewer hops. Then re-offering each via's last
        /// entry reports no change and leaves the block as it was, in the
        /// generic SoA kernel, the `k = 2` kernel and both table layouts.
        #[test]
        fn re_offers_after_improving_offers_change_nothing(
            k in 1usize..5,
            draws in proptest::prop::collection::vec(
                (0u32..5, 0u32..6, 0..JITTER.len(), 1u32..5),
                1..24,
            ),
        ) {
            // Each via's routes, worst first (level, then hops, descending),
            // one per (level, hops); the draws' via order interleaves them.
            let mut routes: Vec<Vec<RouteEntry>> = vec![Vec::new(); 5];
            for (via, list) in routes.iter_mut().enumerate() {
                let mut mine: Vec<_> = draws
                    .iter()
                    .filter(|d| d.0 as usize == via)
                    .map(|&(_, level, jitter, hops)| (level, hops, jitter))
                    .collect();
                mine.sort_by_key(|r| std::cmp::Reverse((r.0, r.1)));
                mine.dedup_by_key(|r| (r.0, r.1));
                list.extend(mine.into_iter().map(|(level, hops, jitter)| {
                    let cost = f64::from(level).mul_add(3.0 * COST_EPS, 1.0) + JITTER[jitter];
                    e(via as u32, cost, hops)
                }));
            }
            let mut next = [0usize; 5];
            let mut offers = Vec::new();
            for &(via, ..) in &draws {
                let v = via as usize;
                if let Some(&route) = routes[v].get(next[v]) {
                    offers.push(route);
                    next[v] += 1;
                }
            }
            let last: Vec<RouteEntry> = routes.iter().filter_map(|r| r.last().copied()).collect();

            let d = NodeId::new(9);
            for layout in BOTH {
                let mut table = RoutingTable::with_layout(k, layout);
                for &route in &offers {
                    table.offer(d, route);
                }
                let before = table.clone();
                for &route in &last {
                    proptest::prop_assert!(!table.offer(d, route), "{layout:?} k={k}: {route:?}");
                }
                proptest::prop_assert_eq!(&table, &before);
            }
            let mut kernels: Vec<Kernel> = vec![offer_block_soa];
            if k == 2 {
                kernels.push(offer_block_soa2);
            }
            for kernel in kernels {
                let mut via = vec![VACANT.via; k];
                let mut cost = vec![VACANT.cost; k];
                let mut hops = vec![VACANT.hops; k];
                let mut len = 0;
                for &route in &offers {
                    len = kernel(&mut via, &mut cost, &mut hops, len, route).1;
                }
                let block = (via.clone(), cost.clone(), hops.clone());
                for &route in &last {
                    let got = kernel(&mut via, &mut cost, &mut hops, len, route);
                    proptest::prop_assert_eq!(got, (false, len));
                }
                proptest::prop_assert_eq!((via, cost, hops), block);
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn offer_ascending_rejects_unsorted_destinations() {
        let mut t = RoutingTable::new(2);
        let mut cursor = 0usize;
        t.offer_ascending(NodeId::new(9), e(1, 1.0, 1), &mut cursor);
        t.offer_ascending(NodeId::new(3), e(1, 1.0, 1), &mut cursor);
    }
}
