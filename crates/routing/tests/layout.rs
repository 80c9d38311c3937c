//! The routing table against an array-of-structs reference model.
//!
//! [`RoutingTable`] stores each destination's `k` route slots as parallel
//! cost / next-hop / hops planes behind a direct-map destination index,
//! merged by a generic block kernel and by one unrolled for `k = 2`. The
//! model here is the table's original layout: destinations in id order,
//! each with a flat `[RouteEntry]` block, merged by one kernel written
//! straight from the route order (cost within an epsilon tie window, then
//! hops, then next-hop id), with no index and no unrolling.
//!
//! Random operation sequences (offers, ascending-cursor vector replays,
//! destination removals, clears) run through the table and the model in
//! lockstep, and their return values and contents must agree bit for bit
//! after **every** operation. Offered costs sit on a sub-epsilon lattice,
//! so sequences keep landing inside the non-transitive tie window of the
//! epsilon comparator: the regime where the replace arm's and the insert
//! arm's rank rules disagree and a kernel shortcut would diverge.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::prelude::*;
use spms_net::NodeId;
use spms_routing::{RouteEntry, RoutingTable};

/// Costs within this distance tie: the table's own tie window.
const COST_EPS: f64 = 1e-12;

/// Filler for the unoccupied slots of a model block; never compared.
const VACANT: RouteEntry = RouteEntry {
    via: NodeId::new(u32::MAX),
    cost: f64::INFINITY,
    hops: u32::MAX,
};

/// Strict route order: cost (with the epsilon tie window), then hops, then
/// neighbor id. Total on distinct-via entries.
fn route_cmp(a: &RouteEntry, b: &RouteEntry) -> Ordering {
    if (a.cost - b.cost).abs() <= COST_EPS {
        a.hops.cmp(&b.hops).then_with(|| a.via.cmp(&b.via))
    } else {
        a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal)
    }
}

/// `true` when two entries are indistinguishable under the epsilon rule:
/// replacing one with the other is not a change.
fn route_eq(a: &RouteEntry, b: &RouteEntry) -> bool {
    a.via == b.via && a.hops == b.hops && (a.cost - b.cost).abs() <= COST_EPS
}

/// The model's block merge. `block` is one destination's `k`-slot block
/// and `len` its live prefix; returns `(changed, new_len)`. The replace
/// arm counts the entries that order before the offer over the whole live
/// prefix (excluding the replaced slot); the insert arm stops at the first
/// entry that does not. The table's kernels must reproduce both arms.
fn offer_block(block: &mut [RouteEntry], len: usize, entry: RouteEntry) -> (bool, usize) {
    let k = block.len();
    match block[..len].iter().position(|e| e.via == entry.via) {
        Some(i) => {
            // Insertion index of `entry` among the other len-1 entries.
            let j = block[..len]
                .iter()
                .enumerate()
                .filter(|&(u, e)| u != i && route_cmp(e, &entry) == Ordering::Less)
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
                .take_while(|e| route_cmp(e, &entry) == Ordering::Less)
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

/// The reference table: a `k`-slot block and its live length per
/// destination, in id order.
struct Model {
    k: usize,
    rows: BTreeMap<NodeId, (Vec<RouteEntry>, usize)>,
}

impl Model {
    fn new(k: usize) -> Self {
        Model {
            k,
            rows: BTreeMap::new(),
        }
    }

    fn offer(&mut self, dest: NodeId, entry: RouteEntry) -> bool {
        let k = self.k;
        let (block, len) = self
            .rows
            .entry(dest)
            .or_insert_with(|| (vec![VACANT; k], 0));
        let (changed, new_len) = offer_block(block, *len, entry);
        *len = new_len;
        changed
    }

    fn routes_to(&self, dest: NodeId) -> &[RouteEntry] {
        self.rows
            .get(&dest)
            .map_or(&[], |(block, len)| &block[..*len])
    }
}

/// A route as exact bits `(via, cost bits, hops)`, so `-0.0`/`0.0` or NaN
/// costs cannot compare equal by accident.
type Bits = (u32, u64, u32);

fn bits(e: RouteEntry) -> Bits {
    (e.via.raw(), e.cost.to_bits(), e.hops)
}

/// Every destination with its live routes, best first, as exact bits.
fn table_rows(table: &RoutingTable) -> Vec<(u32, Vec<Bits>)> {
    table
        .iter()
        .map(|(d, routes)| (d.raw(), routes.iter().map(bits).collect()))
        .collect()
}

fn model_rows(model: &Model) -> Vec<(u32, Vec<Bits>)> {
    model
        .rows
        .iter()
        .map(|(d, (block, len))| (d.raw(), block[..*len].iter().copied().map(bits).collect()))
        .collect()
}

/// One table operation, decoded from raw proptest draws.
#[derive(Clone, Debug)]
enum Op {
    /// A single route offer.
    Offer(u32, RouteEntry),
    /// A whole ascending distance vector replayed through one cursor.
    OfferVector(Vec<u32>, RouteEntry),
    RemoveDest(u32),
    Clear,
}

/// Destinations the ops draw from. A small pool makes each block receive
/// many offers, which is where the kernels' rank rules matter.
const DESTS: u32 = 8;

/// Builds an entry whose cost sits on one of two levels 0.5 apart, plus a
/// lattice of 0.6·`COST_EPS` steps: offers regularly collide inside the
/// tie window, exercising the non-transitive comparator edge the table's
/// kernels must replicate exactly.
fn entry(via: u8, cq: u8, eq: u8, hops: u8) -> RouteEntry {
    RouteEntry {
        via: NodeId::new(100 + u32::from(via % 6)),
        cost: f64::from(cq % 2) * 0.5 + f64::from(eq % 4) * 0.6e-12,
        hops: 1 + u32::from(hops % 4),
    }
}

/// A sorted, distinct destination set derived from one seed draw.
fn dest_set(d: u16, len: u8) -> Vec<u32> {
    let mut v: Vec<u32> = (0..u32::from(len % 7) + 1)
        .map(|i| (u32::from(d) + i * 5) % DESTS)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn decode_ops(raw: &[(u8, u16, u8, u8, u8, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, d, via, cq, eq, hops)| match kind % 8 {
            0..=2 => Op::Offer(u32::from(d) % DESTS, entry(via, cq, eq, hops)),
            3 | 4 => Op::OfferVector(dest_set(d, via), entry(via, cq, eq, hops)),
            5 | 6 => Op::RemoveDest(u32::from(d) % DESTS),
            _ if cq % 4 == 0 => Op::Clear,
            _ => Op::Offer(u32::from(d) % DESTS, entry(via, cq, eq, hops)),
        })
        .collect()
}

/// Applies one op to the table and to the model and folds every boolean
/// each returns into one word, so their observable effects compare
/// exactly.
fn apply(table: &mut RoutingTable, model: &mut Model, op: &Op) -> (u64, u64) {
    match op {
        Op::Offer(d, e) => {
            let d = NodeId::new(*d);
            (u64::from(table.offer(d, *e)), u64::from(model.offer(d, *e)))
        }
        Op::OfferVector(dests, e) => {
            let mut cursor = 0usize;
            let (mut got, mut want) = (0u64, 0u64);
            for &d in dests {
                let d = NodeId::new(d);
                got = (got << 1) | u64::from(table.offer_ascending(d, *e, &mut cursor));
                want = (want << 1) | u64::from(model.offer(d, *e));
            }
            (got, want)
        }
        Op::RemoveDest(d) => {
            let d = NodeId::new(*d);
            (
                u64::from(table.remove_dest(d)),
                u64::from(model.rows.remove(&d).is_some()),
            )
        }
        Op::Clear => {
            table.clear();
            model.rows.clear();
            (0, 0)
        }
    }
}

/// Replays `ops` through a fresh table and model at `k`, comparing after
/// every op, then compares the lookups destination by destination.
fn lockstep(k: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut table = RoutingTable::new(k);
    let mut model = Model::new(k);
    for (step, op) in ops.iter().enumerate() {
        let (got, want) = apply(&mut table, &mut model, op);
        prop_assert_eq!(
            got,
            want,
            "k={} step {}: the table and the model disagreed on the result of {:?}",
            k,
            step,
            op
        );
        prop_assert_eq!(
            table_rows(&table),
            model_rows(&model),
            "k={} step {}: the table diverged from the model after {:?}",
            k,
            step,
            op
        );
    }
    prop_assert_eq!(table.len(), model.rows.len());
    for d in 0..2 * DESTS {
        let d = NodeId::new(d);
        let want = model.routes_to(d);
        prop_assert_eq!(table.best(d).map(bits), want.first().copied().map(bits));
        prop_assert_eq!(
            table.routes_to(d).iter().map(bits).collect::<Vec<_>>(),
            want.iter().copied().map(bits).collect::<Vec<_>>()
        );
        let avoid = NodeId::new(100 + d.raw() % 6);
        prop_assert_eq!(
            table.best_avoiding(d, avoid).map(bits),
            want.iter().find(|e| e.via != avoid).copied().map(bits)
        );
    }
    Ok(())
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    // A case takes microseconds. With this seed, a wrong insert rank in
    // the generic kernel and a replace offer wrongly reported as a change
    // in the k = 2 kernel each fail within the first 100 cases.
    #![proptest_config(ProptestConfig {
        cases: 1024,
        rng_seed: 0x0000_1A70_2004,
        ..ProptestConfig::default()
    })]

    /// Identical operation sequences leave the table bit-identical to the
    /// model after every single step, for every `k` (k = 2 takes the
    /// unrolled kernel, other k the generic one).
    #[test]
    fn lockstep_replay_is_bit_identical(
        k in 1usize..4,
        raw_ops in prop::collection::vec(
            (0u8..16, 0u16..256, 0u8..12, 0u8..10, 0u8..8, 0u8..8),
            1..40,
        ),
    ) {
        lockstep(k, &decode_ops(&raw_ops))?;
    }
}

/// One fixed lockstep case: 24 offers to one destination through four
/// next hops, with costs spaced 0.6·`COST_EPS` apart, so the replace arm's
/// full-count rank and the insert arm's early-exit rank keep meeting
/// inside the tie window.
#[test]
fn epsilon_tie_window_offers_match_the_model() {
    let ops: Vec<Op> = (0..6u32)
        .flat_map(|round| {
            (1..=4u32).map(move |via| {
                let step = f64::from((round * 4 + via) % 5) * (COST_EPS * 0.6);
                Op::Offer(
                    7,
                    RouteEntry {
                        via: NodeId::new(via),
                        cost: 1.0 + step,
                        hops: 1 + (via + round) % 3,
                    },
                )
            })
        })
        .collect();
    for k in 1..=4 {
        if let Err(e) = lockstep(k, &ops) {
            panic!("{e}");
        }
    }
}
