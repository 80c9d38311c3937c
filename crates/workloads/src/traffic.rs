//! Traffic-plan builders for the paper's communication patterns.

use std::collections::{BTreeMap, BTreeSet};

use spms::{Generation, Interest, MetaId, TrafficPlan};
use spms_kernel::{PoissonProcess, SimRng, SimTime};
use spms_net::{NodeId, Point, Topology, ZoneTable};
use spms_phy::RadioProfile;

/// Builds the §5.1 all-to-all workload: every node generates
/// `packets_per_node` items and every other node wants every item.
///
/// Arrivals form one network-wide Poisson process with the given mean gap
/// (Table 1's "λ (Packet Arrivals)"), with sources assigned round-robin so
/// every node contributes equally. The gap controls the offered load: the
/// figure experiments choose it large enough that the network operates in
/// the paper's unsaturated regime (their measured delays — tens of
/// milliseconds — are only reachable when items do not all contend at
/// once), while the kernel's event-driven clock makes long quiet periods
/// free.
///
/// # Errors
///
/// Returns a message if `packets_per_node == 0` or `num_nodes == 0`.
///
/// # Example
///
/// ```
/// use spms_workloads::traffic::all_to_all;
/// use spms_kernel::SimTime;
///
/// let plan = all_to_all(9, 2, SimTime::from_millis(1), 7).unwrap();
/// assert_eq!(plan.len(), 18);
/// assert_eq!(plan.expected_deliveries(9), 18 * 8);
/// ```
pub fn all_to_all(
    num_nodes: usize,
    packets_per_node: u32,
    mean_gap: SimTime,
    seed: u64,
) -> Result<TrafficPlan, String> {
    if packets_per_node == 0 {
        return Err("packets_per_node must be positive".into());
    }
    if num_nodes == 0 {
        return Err("need at least one node".into());
    }
    let root = SimRng::new(seed);
    let process = PoissonProcess::new(root.derive(0xA11), mean_gap);
    let total = num_nodes * packets_per_node as usize;
    let mut generations = Vec::with_capacity(total);
    for (k, at) in process.take(total).enumerate() {
        let source = NodeId::new((k % num_nodes) as u32);
        generations.push(Generation {
            at,
            source,
            meta: MetaId::new(source, (k / num_nodes) as u32),
        });
    }
    TrafficPlan::new(generations, Interest::AllNodes)
}

/// Builds the high-rate many-flow workload: every node runs its **own**
/// independent Poisson arrival process (one flow per node), all flows
/// active concurrently from t = 0, and every other node wants every item.
///
/// Unlike [`all_to_all`] — one network-wide process with round-robin
/// sources, so the event queue holds one generation at a time — this plan
/// front-loads `num_nodes` interleaved flows whose arrivals collide within
/// microseconds of each other. It is the event-queue stress regime: many
/// near-simultaneous timers, deep pending-event populations, and heavy
/// same-instant FIFO traffic (see the EXT4 figure).
///
/// Generations are merged across flows into one global `(time, source)`
/// order, so the plan — and every run of it — is deterministic.
///
/// # Errors
///
/// Returns a message if `packets_per_node == 0` or `num_nodes == 0`.
///
/// # Example
///
/// ```
/// use spms_workloads::traffic::many_flows;
/// use spms_kernel::SimTime;
///
/// let plan = many_flows(9, 3, SimTime::from_micros(500), 7).unwrap();
/// assert_eq!(plan.len(), 27);
/// assert_eq!(plan.expected_deliveries(9), 27 * 8);
/// ```
pub fn many_flows(
    num_nodes: usize,
    packets_per_node: u32,
    mean_gap: SimTime,
    seed: u64,
) -> Result<TrafficPlan, String> {
    if packets_per_node == 0 {
        return Err("packets_per_node must be positive".into());
    }
    if num_nodes == 0 {
        return Err("need at least one node".into());
    }
    let root = SimRng::new(seed);
    let mut generations = Vec::with_capacity(num_nodes * packets_per_node as usize);
    for node in 0..num_nodes {
        let source = NodeId::new(node as u32);
        let process = PoissonProcess::new(root.derive(0xF10 + node as u64), mean_gap);
        for (k, at) in process.take(packets_per_node as usize).enumerate() {
            generations.push(Generation {
                at,
                source,
                meta: MetaId::new(source, k as u32),
            });
        }
    }
    // Stable merge into global time order; equal instants resolve by the
    // flow id so the plan is independent of the per-flow loop order.
    generations.sort_by_key(|g| (g.at, g.source));
    TrafficPlan::new(generations, Interest::AllNodes)
}

/// Cluster assignment for the §5.2 hierarchical workload: the field is
/// partitioned into square cells with side equal to the cluster radius;
/// the node nearest each populated cell's center is its head.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// head\[i\] = the cluster head responsible for node i.
    pub head_of: Vec<NodeId>,
    /// The distinct heads, in id order.
    pub heads: Vec<NodeId>,
}

/// Computes the clustering.
///
/// # Errors
///
/// Returns a message if `cluster_radius_m` is not positive and finite.
pub fn cluster_assignment(
    topology: &Topology,
    cluster_radius_m: f64,
) -> Result<Clustering, String> {
    if !cluster_radius_m.is_finite() || cluster_radius_m <= 0.0 {
        return Err(format!("bad cluster radius {cluster_radius_m}"));
    }
    let cell = cluster_radius_m;
    // Group nodes by cell.
    let mut cells: BTreeMap<(i64, i64), Vec<NodeId>> = BTreeMap::new();
    for node in topology.nodes() {
        let p = topology.position(node);
        let key = ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        cells.entry(key).or_default().push(node);
    }
    let mut head_of = vec![NodeId::new(0); topology.len()];
    let mut heads = Vec::new();
    for ((cx, cy), members) in &cells {
        let center = Point::new((*cx as f64 + 0.5) * cell, (*cy as f64 + 0.5) * cell);
        let head = *members
            .iter()
            .min_by(|a, b| {
                let da = topology.position(**a).distance_sq(center);
                let db = topology.position(**b).distance_sq(center);
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.cmp(b))
            })
            .expect("cells are non-empty");
        heads.push(head);
        for m in members {
            head_of[m.index()] = head;
        }
    }
    heads.sort_unstable();
    heads.dedup();
    Ok(Clustering { head_of, heads })
}

/// Builds the §5.2 cluster-based hierarchical workload: each generated item
/// is wanted by the source's cluster head, and by each other node in the
/// source's zone independently with probability `bystander_prob` (the
/// paper's 5%).
///
/// # Errors
///
/// Returns a message on invalid parameters.
pub fn cluster_hierarchical(
    topology: &Topology,
    radio: &RadioProfile,
    zone_radius_m: f64,
    packets_per_node: u32,
    mean_interarrival: SimTime,
    bystander_prob: f64,
    seed: u64,
) -> Result<TrafficPlan, String> {
    if packets_per_node == 0 {
        return Err("packets_per_node must be positive".into());
    }
    if !(0.0..=1.0).contains(&bystander_prob) {
        return Err(format!("bad bystander probability {bystander_prob}"));
    }
    let clustering = cluster_assignment(topology, zone_radius_m)?;
    let zones = ZoneTable::build(topology, radio, zone_radius_m);
    let root = SimRng::new(seed);
    let mut interest_rng = root.derive(0xC1);
    let num_nodes = topology.len();
    let total = num_nodes * packets_per_node as usize;
    let process = PoissonProcess::new(root.derive(0xA11), mean_interarrival);
    let mut generations = Vec::with_capacity(total);
    let mut interest: BTreeMap<MetaId, BTreeSet<NodeId>> = BTreeMap::new();
    for (k, at) in process.take(total).enumerate() {
        let source = NodeId::new((k % num_nodes) as u32);
        let meta = MetaId::new(source, (k / num_nodes) as u32);
        let mut wanted = BTreeSet::new();
        wanted.insert(clustering.head_of[source.index()]);
        for link in zones.links(source) {
            if interest_rng.chance(bystander_prob) {
                wanted.insert(link.neighbor);
            }
        }
        wanted.remove(&source);
        interest.insert(meta, wanted);
        generations.push(Generation { at, source, meta });
    }
    TrafficPlan::new(generations, Interest::PerMeta(interest))
}

/// A single-source broadcast plan (used by examples and integration tests).
///
/// # Errors
///
/// Returns a message if `items == 0`.
pub fn single_source(source: NodeId, items: u32, spacing: SimTime) -> Result<TrafficPlan, String> {
    if items == 0 {
        return Err("items must be positive".into());
    }
    let generations = (0..items)
        .map(|i| Generation {
            at: spacing * u64::from(i),
            source,
            meta: MetaId::new(source, i),
        })
        .collect();
    TrafficPlan::new(generations, Interest::AllNodes)
}

/// The inter-zone pipeline workload (the §6 future-work scenario): one
/// source generates `items` items and only the listed `sinks` want them —
/// every node in between is an uninterested bystander, so base SPMS/SPIN
/// cannot carry the data across zone boundaries.
///
/// # Errors
///
/// Returns a message if `items == 0`, `sinks` is empty, or a sink equals
/// the source.
///
/// # Example
///
/// ```
/// use spms_workloads::traffic::pipeline;
/// use spms_kernel::SimTime;
/// use spms_net::NodeId;
///
/// let plan = pipeline(NodeId::new(0), &[NodeId::new(24)], 2, SimTime::from_millis(5))?;
/// assert_eq!(plan.expected_deliveries(25), 2);
/// # Ok::<(), String>(())
/// ```
pub fn pipeline(
    source: NodeId,
    sinks: &[NodeId],
    items: u32,
    spacing: SimTime,
) -> Result<TrafficPlan, String> {
    if items == 0 {
        return Err("items must be positive".into());
    }
    if sinks.is_empty() {
        return Err("need at least one sink".into());
    }
    if sinks.contains(&source) {
        return Err("a sink cannot be the source".into());
    }
    let sink_set: BTreeSet<NodeId> = sinks.iter().copied().collect();
    let mut map = BTreeMap::new();
    let generations = (0..items)
        .map(|i| {
            let meta = MetaId::new(source, i);
            map.insert(meta, sink_set.clone());
            Generation {
                at: spacing * u64::from(i),
                source,
                meta,
            }
        })
        .collect();
    TrafficPlan::new(generations, Interest::PerMeta(map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_net::placement;

    #[test]
    fn all_to_all_counts_and_determinism() {
        let a = all_to_all(25, 10, SimTime::from_millis(1), 42).unwrap();
        let b = all_to_all(25, 10, SimTime::from_millis(1), 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 250);
        assert_eq!(a.expected_deliveries(25), 250 * 24);
        assert!(all_to_all(25, 0, SimTime::from_millis(1), 42).is_err());
    }

    #[test]
    fn all_to_all_is_time_sorted_with_unique_metas() {
        let plan = all_to_all(10, 5, SimTime::from_millis(1), 7).unwrap();
        let mut prev = SimTime::ZERO;
        let mut metas = BTreeSet::new();
        for g in &plan.generations {
            assert!(g.at >= prev);
            prev = g.at;
            assert!(metas.insert(g.meta));
            assert_eq!(g.meta.source(), g.source);
        }
    }

    #[test]
    fn many_flows_interleaves_concurrent_sources() {
        let a = many_flows(10, 5, SimTime::from_micros(500), 11).unwrap();
        let b = many_flows(10, 5, SimTime::from_micros(500), 11).unwrap();
        assert_eq!(a, b, "deterministic for a fixed seed");
        assert_eq!(a.len(), 50);
        assert_eq!(a.expected_deliveries(10), 50 * 9);
        // Global time order with unique metas.
        let mut prev = SimTime::ZERO;
        let mut metas = BTreeSet::new();
        for g in &a.generations {
            assert!(g.at >= prev);
            prev = g.at;
            assert!(metas.insert(g.meta));
        }
        // The flows genuinely interleave: the first 10 arrivals must come
        // from more than one source (all processes start at t = 0).
        let head_sources: BTreeSet<NodeId> =
            a.generations.iter().take(10).map(|g| g.source).collect();
        assert!(head_sources.len() > 1, "flows must overlap in time");
        assert!(many_flows(0, 1, SimTime::from_micros(500), 1).is_err());
        assert!(many_flows(10, 0, SimTime::from_micros(500), 1).is_err());
    }

    #[test]
    fn clustering_covers_every_node() {
        let topo = placement::grid(10, 10, 5.0).unwrap();
        let c = cluster_assignment(&topo, 20.0).unwrap();
        assert_eq!(c.head_of.len(), 100);
        assert!(!c.heads.is_empty());
        // Every node's head is a head.
        for h in &c.head_of {
            assert!(c.heads.contains(h));
        }
        // Heads lead their own cluster.
        for h in &c.heads {
            assert_eq!(c.head_of[h.index()], *h);
        }
    }

    #[test]
    fn cluster_plan_targets_heads_plus_bystanders() {
        let topo = placement::grid(10, 10, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let plan =
            cluster_hierarchical(&topo, &radio, 20.0, 1, SimTime::from_millis(1), 0.05, 3).unwrap();
        assert_eq!(plan.len(), 100);
        let clustering = cluster_assignment(&topo, 20.0).unwrap();
        let Interest::PerMeta(map) = &plan.interest else {
            panic!("cluster interest must be explicit");
        };
        for g in &plan.generations {
            let wanted = &map[&g.meta];
            let head = clustering.head_of[g.source.index()];
            // The head is interested unless the source IS the head.
            if head != g.source {
                assert!(wanted.contains(&head), "head of {} missing", g.source);
            }
            assert!(!wanted.contains(&g.source));
        }
        // Expected deliveries: ≥ 1 head per item for non-head sources.
        assert!(plan.expected_deliveries(100) >= 90);
    }

    #[test]
    fn cluster_bystander_rate_close_to_probability() {
        let topo = placement::grid(13, 13, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let plan =
            cluster_hierarchical(&topo, &radio, 20.0, 2, SimTime::from_millis(1), 0.05, 9).unwrap();
        let Interest::PerMeta(map) = &plan.interest else {
            panic!()
        };
        // Average interested-set size ≈ 1 head + 5% of ~44 zone neighbors.
        let total: usize = map.values().map(BTreeSet::len).sum();
        let avg = total as f64 / map.len() as f64;
        assert!(
            (1.5..5.5).contains(&avg),
            "avg interest set size {avg} (expect ≈ 3.2)"
        );
    }

    #[test]
    fn cluster_plan_validates_inputs() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        assert!(
            cluster_hierarchical(&topo, &radio, 20.0, 0, SimTime::from_millis(1), 0.05, 1).is_err()
        );
        assert!(
            cluster_hierarchical(&topo, &radio, 20.0, 1, SimTime::from_millis(1), 1.5, 1).is_err()
        );
        assert!(cluster_assignment(&topo, 0.0).is_err());
    }

    #[test]
    fn single_source_plan() {
        let plan = single_source(NodeId::new(3), 4, SimTime::from_millis(2)).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.generations[3].at, SimTime::from_millis(6));
        assert!(single_source(NodeId::new(0), 0, SimTime::ZERO).is_err());
    }
}
