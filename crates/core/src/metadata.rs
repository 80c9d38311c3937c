//! Metadata descriptors and per-node data stores.
//!
//! SPIN's key idea, inherited by SPMS, is that "nodes name their data using
//! high-level data descriptors, called meta-data" and negotiate over those
//! descriptors before moving the (much larger) data. We model a metadata
//! descriptor as an opaque 64-bit id that encodes the originating node and a
//! per-source sequence number — sufficient for the negotiation semantics
//! (identity and deduplication), with the payload represented only by its
//! size.

use std::fmt;

use spms_net::NodeId;

/// A metadata descriptor: identifies one data item network-wide.
///
/// # Example
///
/// ```
/// use spms::MetaId;
/// use spms_net::NodeId;
///
/// let meta = MetaId::new(NodeId::new(3), 7);
/// assert_eq!(meta.source(), NodeId::new(3));
/// assert_eq!(meta.seq(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetaId(u64);

impl MetaId {
    /// Creates a descriptor for the `seq`-th item generated by `source`.
    #[must_use]
    pub const fn new(source: NodeId, seq: u32) -> Self {
        MetaId(((source.raw() as u64) << 32) | seq as u64)
    }

    /// The node that generated the data item.
    #[must_use]
    pub const fn source(self) -> NodeId {
        NodeId::new((self.0 >> 32) as u32)
    }

    /// The per-source sequence number.
    #[must_use]
    pub const fn seq(self) -> u32 {
        self.0 as u32
    }

    /// The raw 64-bit encoding.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for MetaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.source().raw(), self.seq())
    }
}

impl fmt::Display for MetaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.source().raw(), self.seq())
    }
}

/// The dense layout of a [`DataStore`]: source-major rows of `stride`
/// 64-bit words, one row per source the node has touched, allocated on
/// first touch. Word `i` of a row is found with two loads and no search.
#[derive(Clone, Default)]
struct Rows {
    /// `row_of[s]` is one plus the row of source `s`, or zero when the
    /// node has not touched `s`. It reaches only as far as the highest
    /// source touched.
    row_of: Vec<u32>,
    /// Rows allocated so far.
    count: usize,
    /// Words per row. It covers the largest word index used and at least
    /// doubles when it grows (a relayout), so relayouts stay amortised and
    /// a row holds at most twice the words that index needs.
    stride: usize,
    /// `count × stride` words, row after row.
    words: Vec<u64>,
}

impl Rows {
    /// Word `i` of `source`'s row, if the node touched `source`.
    fn get(&self, source: NodeId, i: usize) -> Option<u64> {
        let row = *self.row_of.get(source.index())? as usize;
        (row != 0 && i < self.stride).then(|| self.words[(row - 1) * self.stride + i])
    }

    /// Word `i` of `source`'s row, allocating the row on first touch and
    /// relaying every row out when `i` is past the stride.
    fn get_or_alloc(&mut self, source: NodeId, i: usize) -> &mut u64 {
        if i >= self.stride {
            let stride = (i + 1).max(2 * self.stride);
            let mut wide = Vec::with_capacity(self.count * stride);
            let mut narrow = std::mem::take(&mut self.words).into_iter();
            for _ in 0..self.count {
                wide.extend(narrow.by_ref().take(self.stride));
                wide.resize(wide.len() + stride - self.stride, 0);
            }
            self.words = wide;
            self.stride = stride;
        }
        let s = source.index();
        if s >= self.row_of.len() {
            self.row_of.resize(s + 1, 0);
        }
        if self.row_of[s] == 0 {
            self.count += 1;
            self.row_of[s] = u32::try_from(self.count).expect("one row per source id");
            self.words.resize(self.count * self.stride, 0);
        }
        let row = self.row_of[s] as usize - 1;
        &mut self.words[row * self.stride + i]
    }

    /// The rows with their source, in source order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, &[u64])> + '_ {
        let stride = self.stride;
        self.row_of
            .iter()
            .enumerate()
            .filter(|&(_, &row)| row != 0)
            .map(move |(s, &row)| {
                let start = (row as usize - 1) * stride;
                (NodeId::new(s as u32), &self.words[start..start + stride])
            })
    }
}

/// A set of data items: the items a node holds, or any other per-node
/// set of items.
///
/// Layout: source-major rows, one per source the node has touched,
/// allocated on first touch. A row holds one bit per sequence number in
/// 64-bit words; the words per row cover the largest sequence number
/// inserted and at least double when they no longer do (a relayout).
/// Memory is one `u32` per source id up to the highest source touched,
/// plus one row per touched source of at most twice the words its largest
/// sequence number needs: proportional to the sources and items a node
/// touches, as sequence numbers count up from zero per source.
///
/// Iteration is in `MetaId` order, and equality is set equality whatever
/// order the rows were allocated in.
///
/// # Example
///
/// ```
/// use spms::{DataStore, MetaId};
/// use spms_net::NodeId;
///
/// let mut store = DataStore::new();
/// let m = MetaId::new(NodeId::new(1), 0);
/// assert!(store.insert(m));
/// assert!(!store.insert(m)); // duplicate
/// assert!(store.contains(m));
/// ```
#[derive(Clone, Default)]
pub struct DataStore {
    /// Bit `seq % 64` of word `seq / 64` of a row is set when the store
    /// holds item `seq` of the row's source.
    rows: Rows,
    len: usize,
}

impl DataStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Adds an item; returns `false` if it was already present.
    pub fn insert(&mut self, meta: MetaId) -> bool {
        let seq = meta.seq() as usize;
        let word = self.rows.get_or_alloc(meta.source(), seq / 64);
        let bit = 1u64 << (seq % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// `true` if the node holds the item.
    #[must_use]
    pub fn contains(&self, meta: MetaId) -> bool {
        let seq = meta.seq() as usize;
        self.rows
            .get(meta.source(), seq / 64)
            .is_some_and(|word| word >> (seq % 64) & 1 == 1)
    }

    /// Number of items held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the store holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over held items in id order.
    pub fn iter(&self) -> impl Iterator<Item = MetaId> + '_ {
        self.rows.iter().flat_map(|(source, words)| {
            (0..words.len() * 64)
                .filter(move |&seq| words[seq / 64] >> (seq % 64) & 1 == 1)
                .map(move |seq| MetaId::new(source, seq as u32))
        })
    }
}

impl PartialEq for DataStore {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for DataStore {}

impl fmt::Debug for DataStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Which nodes still want each item of a traffic plan: one bit row per
/// item, item-major, so the bits of all the nodes one broadcast reaches
/// for its item share a few cache lines.
///
/// Items are numbered densely by source: source `s` owns ids
/// `first[s]..first[s + 1]`, and item `(s, seq)` has id `first[s] + seq`.
/// A `MetaId` whose `seq` is past its source's item count has no id. Rows
/// start empty. Memory is `items × ⌈nodes / 64⌉` words.
#[derive(Debug)]
pub(crate) struct Wanting {
    /// `first[s]` is the first id of source `s`; `first[nodes]` is the
    /// item count.
    first: Vec<usize>,
    nodes: usize,
    /// Words per row.
    words: usize,
    /// `items × words` words, row after row; bit `v % 64` of word
    /// `v / 64` of a row is node `v`'s.
    bits: Vec<u64>,
}

impl Wanting {
    /// Empty rows for `nodes` nodes and one item per entry of `sources`
    /// (every source below `nodes`).
    pub(crate) fn new(nodes: usize, sources: impl IntoIterator<Item = NodeId>) -> Self {
        let mut first = vec![0; nodes + 1];
        for source in sources {
            first[source.index() + 1] += 1;
        }
        for s in 0..nodes {
            first[s + 1] += first[s];
        }
        let words = nodes.div_ceil(64);
        Wanting {
            bits: vec![0; first[nodes] * words],
            first,
            nodes,
            words,
        }
    }

    /// The id of `meta`, if it has one.
    pub(crate) fn item(&self, meta: MetaId) -> Option<usize> {
        let s = meta.source().index();
        let (&start, &end) = (self.first.get(s)?, self.first.get(s + 1)?);
        let id = start.checked_add(meta.seq() as usize)?;
        (id < end).then_some(id)
    }

    /// Marks every node as wanting `item`.
    pub(crate) fn insert_all(&mut self, item: usize) {
        let row = &mut self.bits[item * self.words..(item + 1) * self.words];
        row.fill(u64::MAX);
        if self.nodes % 64 != 0 {
            row[self.words - 1] = (1u64 << (self.nodes % 64)) - 1;
        }
    }

    /// Marks `node` as wanting `item`.
    pub(crate) fn insert(&mut self, item: usize, node: NodeId) {
        let word = self.word(item, node);
        self.bits[word] |= 1u64 << (node.index() % 64);
    }

    /// `node` no longer wants `item`.
    pub(crate) fn remove(&mut self, item: usize, node: NodeId) {
        let word = self.word(item, node);
        self.bits[word] &= !(1u64 << (node.index() % 64));
    }

    /// `true` while `node` wants `item`.
    pub(crate) fn contains(&self, item: usize, node: NodeId) -> bool {
        self.bits[self.word(item, node)] >> (node.index() % 64) & 1 == 1
    }

    fn word(&self, item: usize, node: NodeId) -> usize {
        debug_assert!(node.index() < self.nodes, "{node} is past the rows");
        item * self.words + node.index() / 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn meta_id_roundtrips() {
        let m = MetaId::new(NodeId::new(1234), 99);
        assert_eq!(m.source(), NodeId::new(1234));
        assert_eq!(m.seq(), 99);
        assert_eq!(MetaId::new(m.source(), m.seq()), m);
    }

    #[test]
    fn meta_ids_are_unique_per_source_seq() {
        let a = MetaId::new(NodeId::new(1), 0);
        let b = MetaId::new(NodeId::new(0), 1);
        let c = MetaId::new(NodeId::new(1), 1);
        assert_ne!(a.raw(), b.raw());
        assert_ne!(a.raw(), c.raw());
        assert_ne!(b.raw(), c.raw());
    }

    #[test]
    fn meta_display_shows_source_and_seq() {
        let m = MetaId::new(NodeId::new(5), 2);
        assert_eq!(format!("{m}"), "m5.2");
    }

    #[test]
    fn store_insert_and_query() {
        let mut s = DataStore::new();
        assert!(s.is_empty());
        let m1 = MetaId::new(NodeId::new(0), 0);
        let m2 = MetaId::new(NodeId::new(0), 1);
        assert!(s.insert(m1));
        assert!(s.insert(m2));
        assert!(!s.insert(m1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(m1) && s.contains(m2));
        let all: Vec<MetaId> = s.iter().collect();
        assert_eq!(all, vec![m1, m2]);
    }

    #[test]
    fn one_source_allocates_one_row() {
        // The items `single_source(NodeId::new(224), 1_000, …)` generates.
        let items = (0..1_000).map(|seq| MetaId::new(NodeId::new(224), seq));
        let mut store = DataStore::new();
        for meta in items {
            assert!(store.insert(meta));
        }
        assert_eq!(store.rows.count, 1);
        assert_eq!(store.len(), 1_000);
        // The row has at most twice the words the largest seq needs.
        assert_eq!(store.rows.words.len(), store.rows.stride);
        assert!(store.rows.stride < 2 * 1_000_usize.div_ceil(64));
    }

    #[test]
    fn store_equality_is_set_equality() {
        let m = |source, seq| MetaId::new(NodeId::new(source), seq);
        let mut a = DataStore::new();
        for meta in [m(7, 130), m(2, 200), m(2, 5)] {
            a.insert(meta);
        }
        let mut b = DataStore::new();
        for meta in [m(2, 5), m(2, 200), m(7, 130)] {
            b.insert(meta);
        }
        // Rows were allocated in opposite orders, and the strides differ.
        assert_ne!(a.rows.row_of[2], b.rows.row_of[2]);
        assert_ne!(a.rows.stride, b.rows.stride);
        assert_eq!(a, b);
        b.insert(m(0, 0));
        assert_ne!(a, b);
        a.insert(m(0, 1));
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn wanting_ids_are_dense_per_source() {
        // Sources 2, 0, 2, 3, 2 in generation order over 5 nodes: source 0
        // owns id 0, source 2 ids 1..4, source 3 id 4.
        let sources = [2, 0, 2, 3, 2].map(NodeId::new);
        let wanting = Wanting::new(5, sources);
        let id = |s, seq| wanting.item(MetaId::new(NodeId::new(s), seq));
        assert_eq!(id(0, 0), Some(0));
        assert_eq!((id(2, 0), id(2, 1), id(2, 2)), (Some(1), Some(2), Some(3)));
        assert_eq!(id(3, 0), Some(4));
        // Past a source's count, at a source with no items, past the
        // topology, and at the largest sequence number: no id.
        assert_eq!(id(0, 1), None);
        assert_eq!(id(1, 0), None);
        assert_eq!(id(2, 3), None);
        assert_eq!(id(4, 0), None);
        assert_eq!(id(99, 0), None);
        assert_eq!(id(3, u32::MAX), None);
        assert_eq!(wanting.bits.len(), 5);
    }

    #[test]
    fn wanting_rows_track_nodes_per_item() {
        // 130 nodes: three words per row, the last one partial.
        let mut wanting = Wanting::new(130, [0, 0, 7].map(NodeId::new));
        let node = NodeId::new;
        assert!((0..3).all(|item| (0..130).all(|v| !wanting.contains(item, node(v)))));
        wanting.insert_all(1);
        wanting.remove(1, node(0));
        wanting.insert(2, node(129));
        wanting.insert(2, node(64));
        wanting.remove(2, node(64));
        for v in 0..130 {
            assert!(!wanting.contains(0, node(v)), "item 0 stays empty");
            assert_eq!(wanting.contains(1, node(v)), v != 0, "item 1, node {v}");
            assert_eq!(wanting.contains(2, node(v)), v == 129, "item 2, node {v}");
        }
        // No bit past the last node is set.
        assert_eq!(wanting.bits[5], 0b11);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            rng_seed: 0x5EED_0F41_1ED0_0004,
            ..ProptestConfig::default()
        })]
        /// Random inserts and lookups over sources 0..300 and sequence
        /// numbers 0..200 (those past 64 force stride relayouts) agree with
        /// a `BTreeSet`: length, membership, and iteration in `MetaId`
        /// order. A third of the operations pick an item already inserted,
        /// and a third another item of its source.
        #[test]
        fn dense_layout_matches_ordered_models(
            ops in prop::collection::vec((0u8..3, 0u32..300, 0u32..200, any::<u32>()), 1..300)
        ) {
            let mut store = DataStore::new();
            let mut model = BTreeSet::<MetaId>::new();
            for (op, source, seq, value) in ops {
                let held = model.iter().nth(value as usize % (model.len() + 1));
                let meta = match (value % 3, held) {
                    (0, Some(&held)) => held,
                    (1, Some(&held)) => MetaId::new(held.source(), seq),
                    _ => MetaId::new(NodeId::new(source), seq),
                };
                if op == 0 {
                    prop_assert_eq!(store.insert(meta), model.insert(meta));
                } else {
                    prop_assert_eq!(store.contains(meta), model.contains(&meta));
                }
                prop_assert_eq!(store.len(), model.len());
                prop_assert!(store.iter().eq(model.iter().copied()));
            }
        }
    }
}
