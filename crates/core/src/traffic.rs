//! Traffic plans: who generates what, when, and who wants it.
//!
//! The engine consumes a fully materialized [`TrafficPlan`]; the
//! `spms-workloads` crate builds plans for the paper's two communication
//! patterns (all-to-all and cluster-based hierarchical).

use std::collections::{BTreeMap, BTreeSet};

use spms_kernel::SimTime;
use spms_net::NodeId;

use crate::MetaId;

/// One data-item generation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Generation {
    /// When the source creates the item.
    pub at: SimTime,
    /// The generating node.
    pub source: NodeId,
    /// The item's descriptor (must have `meta.source() == source`).
    pub meta: MetaId,
}

/// Which nodes want which data items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interest {
    /// Every node wants every item it did not generate (the all-to-all
    /// pattern of §5.1).
    AllNodes,
    /// An explicit per-item set of interested nodes (the cluster pattern of
    /// §5.2: the cluster head plus 5%-sampled bystanders).
    PerMeta(BTreeMap<MetaId, BTreeSet<NodeId>>),
}

impl Interest {
    /// `true` if `node` wants `meta`.
    #[must_use]
    pub fn interested(&self, node: NodeId, meta: MetaId) -> bool {
        match self {
            Interest::AllNodes => node != meta.source(),
            Interest::PerMeta(map) => map
                .get(&meta)
                .is_some_and(|set| set.contains(&node) && node != meta.source()),
        }
    }

    /// Number of interested nodes for `meta` in a network of `num_nodes`.
    #[must_use]
    pub fn count(&self, meta: MetaId, num_nodes: usize) -> u64 {
        match self {
            Interest::AllNodes => (num_nodes - 1) as u64,
            Interest::PerMeta(map) => map.get(&meta).map_or(0, |set| {
                set.iter().filter(|&&n| n != meta.source()).count() as u64
            }),
        }
    }
}

/// A complete traffic description for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficPlan {
    /// Generation events, sorted by time.
    pub generations: Vec<Generation>,
    /// The interest relation.
    pub interest: Interest,
}

impl TrafficPlan {
    /// Creates a plan, validating ordering and descriptor consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if generations are unsorted, contain duplicate
    /// descriptors, a descriptor's source does not match the generating
    /// node, or a source does not number its items 0, 1, 2, … (per-node
    /// item state is sized by the largest sequence number).
    pub fn new(generations: Vec<Generation>, interest: Interest) -> Result<Self, String> {
        let mut seen = BTreeSet::new();
        let mut items = BTreeMap::<NodeId, u32>::new();
        for pair in generations.windows(2) {
            if pair[0].at > pair[1].at {
                return Err("generations must be sorted by time".into());
            }
        }
        for g in &generations {
            if g.meta.source() != g.source {
                return Err(format!(
                    "meta {} generated by wrong node {}",
                    g.meta, g.source
                ));
            }
            if !seen.insert(g.meta) {
                return Err(format!("duplicate meta {}", g.meta));
            }
            *items.entry(g.source).or_default() += 1;
        }
        // With no duplicates, every seq below its source's item count
        // means each source numbers its items 0, 1, 2, … without gaps.
        for g in &generations {
            let count = items[&g.source];
            if g.meta.seq() >= count {
                return Err(format!(
                    "meta {}: node {} generates {count} items, numbered from 0",
                    g.meta, g.source
                ));
            }
        }
        Ok(TrafficPlan {
            generations,
            interest,
        })
    }

    /// Number of generation events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.generations.len()
    }

    /// `true` when the plan generates nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.generations.is_empty()
    }

    /// Total deliveries a perfect protocol would make in a network of
    /// `num_nodes` nodes.
    #[must_use]
    pub fn expected_deliveries(&self, num_nodes: usize) -> u64 {
        self.generations
            .iter()
            .map(|g| self.interest.count(g.meta, num_nodes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(at_ms: u64, src: u32, seq: u32) -> Generation {
        Generation {
            at: SimTime::from_millis(at_ms),
            source: NodeId::new(src),
            meta: MetaId::new(NodeId::new(src), seq),
        }
    }

    #[test]
    fn all_nodes_interest_excludes_source() {
        let i = Interest::AllNodes;
        let m = MetaId::new(NodeId::new(3), 0);
        assert!(!i.interested(NodeId::new(3), m));
        assert!(i.interested(NodeId::new(4), m));
        assert_eq!(i.count(m, 10), 9);
    }

    #[test]
    fn per_meta_interest_is_explicit() {
        let m = MetaId::new(NodeId::new(0), 0);
        let mut map = BTreeMap::new();
        map.insert(m, BTreeSet::from([NodeId::new(0), NodeId::new(2)]));
        let i = Interest::PerMeta(map);
        // The source never counts, even if listed.
        assert!(!i.interested(NodeId::new(0), m));
        assert!(i.interested(NodeId::new(2), m));
        assert!(!i.interested(NodeId::new(1), m));
        assert_eq!(i.count(m, 10), 1);
        // Unknown meta: nobody wants it.
        assert_eq!(i.count(MetaId::new(NodeId::new(9), 9), 10), 0);
    }

    #[test]
    fn plan_validation() {
        assert!(TrafficPlan::new(vec![gen(0, 1, 0), gen(1, 2, 0)], Interest::AllNodes).is_ok());
        // Unsorted.
        assert!(TrafficPlan::new(vec![gen(2, 1, 0), gen(1, 2, 0)], Interest::AllNodes).is_err());
        // Duplicate meta.
        assert!(TrafficPlan::new(vec![gen(0, 1, 0), gen(1, 1, 0)], Interest::AllNodes).is_err());
        // Wrong source.
        let bad = Generation {
            at: SimTime::ZERO,
            source: NodeId::new(2),
            meta: MetaId::new(NodeId::new(1), 0),
        };
        assert!(TrafficPlan::new(vec![bad], Interest::AllNodes).is_err());
        // Sequence numbers count up from zero per source, in any order.
        assert!(TrafficPlan::new(vec![gen(0, 1, 1), gen(1, 1, 0)], Interest::AllNodes).is_ok());
        assert!(TrafficPlan::new(vec![gen(0, 1, 1)], Interest::AllNodes).is_err());
        let gap = vec![gen(0, 1, 0), gen(1, 1, u32::MAX)];
        assert!(TrafficPlan::new(gap, Interest::AllNodes).is_err());
    }

    #[test]
    fn expected_deliveries_sums_interest() {
        let plan = TrafficPlan::new(vec![gen(0, 1, 0), gen(1, 2, 0)], Interest::AllNodes).unwrap();
        assert_eq!(plan.expected_deliveries(5), 8);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }
}
