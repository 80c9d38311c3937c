//! The discrete-event simulation engine.
//!
//! The engine owns the network state (topology, zones, routing tables,
//! per-node protocol machines, energy meters, radio queues) and drives it
//! from a single deterministic event queue. Protocol code never touches
//! energy, queues or randomness — it appends [`Action`]s to a sink and the
//! engine performs them — so SPIN, SPMS and flooding are measured by
//! exactly the same rules.
//!
//! Event flow for one transmission: a protocol appends `Action::Send` to
//! the engine's action buffer; the engine computes the MAC access delay
//! (`G·n²` + backoff at the frame's power level), reserves the node's
//! half-duplex radio, charges transmit energy, parks the frame in a slab
//! of in-flight frames and schedules a `Deliver` event carrying only its
//! slot, at the end of the on-air time; at delivery, the frame leaves the
//! slab, and each recipient is charged receive energy, checked against
//! its battery and offered to its adversary policy, and then its protocol
//! handler runs (after `Tproc`), possibly producing more sends.
//!
//! A plain ADV skips the handler at a recipient that does not want its
//! item or has already reported it delivered, since the handler would
//! change nothing there (the [`Protocol::on_packet`] contract). The
//! engine keeps one bit row per generated item over the nodes that still
//! want it: filled when the item is created, a node's bit cleared when it
//! reports the delivery. Rows are item-major, so the bits of every node a
//! broadcast reaches for one item share a few cache lines. Skipped calls
//! are the ones that append nothing, and no event's time or order
//! changes, so results are the same as with every handler run.

use std::collections::BTreeMap;

use spms_kernel::stats::Tally;
use spms_kernel::trace::Trace;
use spms_kernel::{EventQueue, SimRng, SimTime};
use spms_mac::HalfDuplexQueue;
use spms_net::{
    ChurnEpoch, ChurnProcess, ContactEpoch, ContactProcess, FailureProcess, LinkGate,
    MobilityEpoch, MobilityProcess, NodeId, SpatialGrid, Topology, ZoneDelta, ZoneTable,
};
use spms_phy::{EnergyCategory, EnergyMeter, MicroJoules};
use spms_routing::{oracle_tables, DbfEngine, DbfWireFormat, RoutingTable};

use crate::metadata::Wanting;
use crate::{
    Action, Addressee, AdversaryStats, DataStore, Interest, MessageCounts, MetaId, NodeBehavior,
    NodeProtocol, NodeView, OutFrame, Packet, PacketKind, Payload, Protocol, ProtocolKind,
    RoutingCost, RoutingMode, RunMetrics, SimConfig, SpmsParams, TimerKind, TrafficPlan,
};

/// Engine events.
#[derive(Clone, Debug)]
enum Event {
    /// Process generation `i` of the traffic plan.
    Generate(usize),
    /// A frame finishes transmission and reaches its recipients. The
    /// frame waits in `Simulation::in_flight` at this slot.
    Deliver(u32),
    /// A protocol timer fires.
    Timer {
        node: NodeId,
        meta: MetaId,
        kind: TimerKind,
        gen: u32,
    },
    /// A node fails for `down_for`.
    Fail { node: NodeId, down_for: SimTime },
    /// A node repairs (guarded by the failure generation).
    Repair { node: NodeId, gen: u32 },
    /// Draw the next failure from the injection process.
    DrawFailure,
    /// Apply the staged mobility epoch.
    MobilityEpoch,
    /// Apply the staged churn epoch (mass join/leave cohort).
    ChurnEpoch,
    /// Apply the staged contact-plan epoch (scheduled link flips). Every
    /// flip sharing a timestamp rides in one event, so a window boundary
    /// is applied atomically.
    ContactEpoch,
}

/// How a mobility or contact epoch changed the zone table — what
/// [`Simulation::reroute`] hands the routing layer.
enum ZoneChange {
    /// Patched in place (`incremental_zones`): the patch's delta names the
    /// rebuilt rows and each relocated node's pre-move adjacency.
    Patched(ZoneDelta),
    /// Rebuilt all-pairs (the reference path): the table it replaced and
    /// the nodes whose links changed.
    Rebuilt {
        old: ZoneTable,
        changed: Vec<NodeId>,
    },
}

/// A configured, runnable simulation.
///
/// # Example
///
/// ```
/// use spms::{Interest, ProtocolKind, SimConfig, Simulation, TrafficPlan, Generation, MetaId};
/// use spms_kernel::SimTime;
/// use spms_net::{placement, NodeId};
///
/// let topo = placement::grid(3, 3, 5.0).unwrap();
/// let source = NodeId::new(4);
/// let plan = TrafficPlan::new(
///     vec![Generation { at: SimTime::ZERO, source, meta: MetaId::new(source, 0) }],
///     Interest::AllNodes,
/// ).unwrap();
/// let config = SimConfig::paper_defaults(ProtocolKind::Spms, 7);
/// let metrics = Simulation::new(config, topo, plan).unwrap().run();
/// assert_eq!(metrics.deliveries, 8); // everyone else got the item
/// ```
pub struct Simulation {
    config: SimConfig,
    plan: TrafficPlan,
    topology: Topology,
    /// Spatial-hash index over the node positions (cell size = zone
    /// radius), kept in sync with mobility so zone maintenance only ever
    /// examines the 3×3 cell neighborhood of a position.
    grid: SpatialGrid,
    zones: ZoneTable,
    tables: Vec<RoutingTable>,
    /// The persistent distributed-routing engine (Distributed mode only).
    /// Owning it across events is what makes incremental re-convergence
    /// possible: its tables and triggered-update state survive mobility
    /// epochs instead of being rebuilt from scratch.
    dbf: Option<DbfEngine>,
    protocols: Vec<NodeProtocol>,
    /// The sink protocol hooks append to. `run_hook` takes it out of
    /// `self` for one call and puts it back emptied, so its allocation is
    /// reused and a hook run while actions are performed gets its own.
    actions: Vec<Action>,
    /// Reused buffer of a broadcast's recipients (`handle_deliver`).
    recipients: Vec<NodeId>,
    /// Frames on the air, each parked at the slot its `Deliver` event
    /// carries, so heap entries stay small.
    in_flight: Vec<Option<OutFrame>>,
    /// Free `in_flight` slots, the last freed reused first.
    free_slots: Vec<u32>,
    /// Per generated item, the nodes that want it and have not reported
    /// it delivered. A plain ADV runs the protocol hook only there.
    wanting: Wanting,
    alive: Vec<bool>,
    down_gen: Vec<u32>,
    queues: Vec<HalfDuplexQueue>,
    meters: Vec<EnergyMeter>,
    events: EventQueue<Event>,
    now: SimTime,
    timeouts: crate::Timeouts,
    pause_until: SimTime,

    rng_mac: SimRng,
    failure_proc: Option<FailureProcess>,
    mobility_proc: Option<MobilityProcess>,
    staged_epoch: Option<MobilityEpoch>,
    churn_proc: Option<ChurnProcess>,
    staged_churn: Option<ChurnEpoch>,
    /// Scheduled-connectivity state (`SimConfig::contact_plan`): the gate
    /// holding current link states and the window-boundary walker. The
    /// zone table is built and patched under this gate, so a down link
    /// vanishes from adjacency and MAC densities alike.
    contact_gate: Option<LinkGate>,
    contact_proc: Option<ContactProcess>,
    staged_contact: Option<ContactEpoch>,
    /// Per-node behavior policy. All-`Honest` for benign runs; adversarial
    /// entries are picked by sub-stream 4 of the master seed (or the
    /// explicit set), so adding adversaries never perturbs the failure,
    /// mobility, churn, or MAC draws.
    behaviors: Vec<NodeBehavior>,
    /// Per-adversary first-seen metadata — bounds bogus-ADV storms to
    /// `attack_factor` per (adversary, item) and keeps attack traffic from
    /// echoing off other adversaries forever.
    adversary_seen: Vec<DataStore>,
    winding_down: bool,
    /// Pending Generate/Deliver/Timer events — the protocol's own activity.
    /// When it hits zero with all generations processed, nothing can revive
    /// the run (infrastructure chains only reschedule themselves), so the
    /// engine winds down even if some deliveries never settled.
    protocol_pending: u64,

    // Measurement state.
    meta_adv_at: BTreeMap<MetaId, SimTime>,
    meta_birth: BTreeMap<MetaId, SimTime>,
    /// Per node, the items whose delivery or abandonment was recorded.
    settled: Vec<DataStore>,
    outstanding: u64,
    generated: u64,
    expected: u64,
    deliveries: u64,
    duplicates: u64,
    abandonments: u64,
    delay: Tally,
    mac_wait: Tally,
    msg: MessageCounts,
    routing_cost: RoutingCost,
    failures_injected: u64,
    mobility_epochs: u64,
    adversary_stats: AdversaryStats,
    events_processed: u64,
    nodes_dead: u64,
    first_death_at: Option<SimTime>,
    trace: Trace,
}

impl Simulation {
    /// Builds a simulation.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is invalid or the plan
    /// references nodes outside the topology.
    pub fn new(config: SimConfig, topology: Topology, plan: TrafficPlan) -> Result<Self, String> {
        config.validate()?;
        let n = topology.len();
        for g in &plan.generations {
            if g.source.index() >= n {
                return Err(format!("generation source {} out of range", g.source));
            }
        }
        if let Interest::PerMeta(map) = &plan.interest {
            for (meta, nodes) in map {
                if let Some(&max) = nodes.last() {
                    if max.index() >= n {
                        return Err(format!(
                            "interest in {meta} names node {max}, topology has {n} nodes"
                        ));
                    }
                }
            }
        }
        // Scheduled connectivity: the plan's gate filters every zone build
        // and patch from here on, so the initial table (and the timeouts
        // resolved from it) already reflect which links are up at t = 0.
        let contact_gate = match &config.contact_plan {
            Some(plan) => {
                if let Some(max) = plan.max_node() {
                    if max.index() >= n {
                        return Err(format!(
                            "contact plan names node {max}, topology has {n} nodes"
                        ));
                    }
                }
                Some(plan.initial_gate())
            }
            None => None,
        };
        let contact_proc = config.contact_plan.as_ref().map(ContactProcess::new);
        // Radius-adaptive cells: on fields too small for a zone-radius
        // grid to prune, the grid collapses to one cell and candidate
        // queries become the plain (sort-free) scan, so the indexed zone
        // build no longer loses to the all-pairs reference at small n.
        let grid = SpatialGrid::for_radius(&topology, config.zone_radius_m);
        let zones = if config.incremental_zones {
            ZoneTable::build_indexed_gated(
                &topology,
                &config.radio,
                &grid,
                config.zone_radius_m,
                contact_gate.as_ref(),
            )
        } else {
            // The all-pairs reference build — bit-identical (see the
            // `spms-net` proptests), just O(n²).
            ZoneTable::build_gated(
                &topology,
                &config.radio,
                config.zone_radius_m,
                contact_gate.as_ref(),
            )
        };
        let timeouts = config.timeout_policy.resolve(
            config.protocol,
            &zones,
            &config.radio,
            &config.mac,
            config.contention,
            &config.sizes,
            config.proc_delay,
        );

        let root = SimRng::new(config.seed);
        let rng_mac = root.derive(3);
        let failure_proc = config
            .failures
            .map(|f| FailureProcess::new(f, root.derive(1)));
        let mobility_proc = config
            .mobility
            .map(|m| MobilityProcess::new(m, root.derive(2)));

        // Adversary roster: explicit set, or a seeded draw from the
        // dedicated sub-stream (4). Either way the roster is fixed at build
        // time — `attack_start` only gates when the behaviors *act*.
        let mut behaviors = vec![NodeBehavior::Honest; n];
        let mut adversaries = 0u64;
        if let Some(adv) = &config.adversary {
            if adv.behavior.is_adversarial() {
                let picked: Vec<usize> = match &adv.explicit {
                    Some(nodes) => {
                        for node in nodes {
                            if node.index() >= n {
                                return Err(format!("explicit adversary {node} out of range"));
                            }
                        }
                        nodes.iter().map(|node| node.index()).collect()
                    }
                    None => {
                        let count = if adv.fraction == 0.0 {
                            0
                        } else {
                            ((adv.fraction * n as f64).round() as usize).clamp(1, n)
                        };
                        root.derive(4).choose_indices(n, count)
                    }
                };
                for i in picked {
                    if behaviors[i] == NodeBehavior::Honest {
                        adversaries += 1;
                    }
                    behaviors[i] = adv.behavior;
                }
            }
        }
        let churn_proc = config.churn.map(|c| ChurnProcess::new(c, root.derive(5)));

        // Bordercast TTL: explicit, or auto-sized so every reachable node
        // hears the query (the zone overlay's eccentricity).
        let iz_ttl = if config.protocol == ProtocolKind::SpmsIz {
            config.interzone.ttl.unwrap_or_else(|| {
                spms_interzone::overlay::PreciseOverlay::build(&zones).suggested_ttl()
            })
        } else {
            0
        };
        let protocols: Vec<NodeProtocol> = (0..n)
            .map(|_| match config.protocol {
                ProtocolKind::Spin => {
                    let node = crate::spin::SpinNode::new(
                        config.spin_req_suppression,
                        config.max_attempts,
                    );
                    NodeProtocol::Spin(if config.spin_broadcast_data {
                        node.with_broadcast_data()
                    } else {
                        node
                    })
                }
                ProtocolKind::Spms => {
                    NodeProtocol::Spms(crate::spms_proto::SpmsNode::new(SpmsParams {
                        scones_kept: config.scones_kept,
                        max_attempts: config.max_attempts,
                        relay_caching: config.relay_caching,
                        serve_from_cache: config.serve_from_cache,
                    }))
                }
                ProtocolKind::SpmsIz => NodeProtocol::SpmsIz(crate::interzone::SpmsIzNode::new(
                    SpmsParams {
                        scones_kept: config.scones_kept,
                        max_attempts: config.max_attempts,
                        relay_caching: config.relay_caching,
                        serve_from_cache: config.serve_from_cache,
                    },
                    crate::interzone::IzResolved {
                        ttl: iz_ttl,
                        paths_kept: config.interzone.paths_kept,
                        max_attempts: config.max_attempts,
                    },
                )),
                ProtocolKind::Flooding => {
                    NodeProtocol::Flooding(crate::flooding::FloodingNode::new())
                }
            })
            .collect();

        let trace = match config.trace_capacity {
            Some(cap) => Trace::bounded(cap),
            None => Trace::disabled(),
        };

        let mut sim = Simulation {
            tables: (0..n).map(|_| RoutingTable::new(config.k_routes)).collect(),
            dbf: None,
            protocols,
            actions: Vec::new(),
            recipients: Vec::new(),
            in_flight: Vec::new(),
            free_slots: Vec::new(),
            wanting: Wanting::new(n, plan.generations.iter().map(|g| g.source)),
            alive: vec![true; n],
            down_gen: vec![0; n],
            queues: vec![HalfDuplexQueue::new(); n],
            meters: vec![EnergyMeter::new(); n],
            events: EventQueue::with_capacity(1024),
            now: SimTime::ZERO,
            timeouts,
            pause_until: SimTime::ZERO,
            rng_mac,
            failure_proc,
            mobility_proc,
            staged_epoch: None,
            churn_proc,
            staged_churn: None,
            contact_gate,
            contact_proc,
            staged_contact: None,
            behaviors,
            adversary_seen: vec![DataStore::new(); n],
            winding_down: false,
            protocol_pending: 0,
            meta_adv_at: BTreeMap::new(),
            meta_birth: BTreeMap::new(),
            settled: vec![DataStore::new(); n],
            outstanding: 0,
            generated: 0,
            expected: 0,
            deliveries: 0,
            duplicates: 0,
            abandonments: 0,
            delay: Tally::new(),
            mac_wait: Tally::new(),
            msg: MessageCounts::default(),
            routing_cost: RoutingCost::default(),
            failures_injected: 0,
            mobility_epochs: 0,
            adversary_stats: AdversaryStats {
                adversaries,
                ..AdversaryStats::default()
            },
            events_processed: 0,
            nodes_dead: 0,
            first_death_at: None,
            trace,
            config,
            plan,
            topology,
            grid,
            zones,
        };

        sim.build_routing();

        for (i, g) in sim.plan.generations.iter().enumerate() {
            sim.events.schedule(g.at, Event::Generate(i));
            sim.protocol_pending += 1;
        }
        if sim.failure_proc.is_some() {
            sim.events.schedule(SimTime::ZERO, Event::DrawFailure);
        }
        if sim.mobility_proc.is_some() {
            sim.stage_next_epoch();
        }
        if sim.churn_proc.is_some() {
            sim.stage_next_churn();
        }
        if sim.contact_proc.is_some() {
            sim.stage_next_contact();
        }
        Ok(sim)
    }

    /// Convenience: build and run in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::new`] errors.
    pub fn run_with(
        config: SimConfig,
        topology: Topology,
        plan: TrafficPlan,
    ) -> Result<RunMetrics, String> {
        Ok(Simulation::new(config, topology, plan)?.run())
    }

    /// The resolved τADV/τDAT for this deployment.
    #[must_use]
    pub fn timeouts(&self) -> crate::Timeouts {
        self.timeouts
    }

    /// The engine trace (enabled via `SimConfig::trace_capacity`).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs to completion and returns the metrics.
    ///
    /// The run ends when the horizon is reached or — the normal case — when
    /// every expected delivery has settled *and* all in-flight events have
    /// drained. Once deliveries settle, the failure and mobility processes
    /// stop scheduling new events ("winding down"), so the drain is bounded:
    /// protocol retries are attempt-limited and every other event chain is
    /// finite.
    #[must_use]
    pub fn run(self) -> RunMetrics {
        self.run_traced().0
    }

    /// Runs to completion, returning the metrics **and** the engine trace
    /// (useful for debugging protocol behavior; enable tracing via
    /// [`SimConfig::trace_capacity`] or the trace comes back empty).
    #[must_use]
    pub fn run_traced(mut self) -> (RunMetrics, Trace) {
        while let Some((t, ev)) = self.events.pop() {
            if t > self.config.horizon {
                break;
            }
            self.now = t;
            self.events_processed += 1;
            if matches!(
                ev,
                Event::Generate(_) | Event::Deliver(_) | Event::Timer { .. }
            ) {
                self.protocol_pending -= 1;
            }
            self.handle(ev);
            if !self.winding_down
                && self.generated == self.plan.generations.len() as u64
                && (self.outstanding == 0 || self.protocol_pending == 0)
            {
                self.winding_down = true;
            }
        }
        let trace = std::mem::replace(&mut self.trace, Trace::disabled());
        (self.into_metrics(), trace)
    }

    // ------------------------------------------------------------------
    // Routing.

    /// (Re)builds routing tables from scratch. SPIN and flooding keep empty
    /// tables; SPMS uses the configured mode. In Distributed mode the
    /// persistent [`DbfEngine`] is reset and fully re-converged
    /// ([`DbfEngine::rebuild_sharded`], bit-identical to the sequential
    /// reference rebuild) — the path that [`Simulation::reroute`] replaces
    /// with a delta re-convergence when `config.incremental_routing` is
    /// set.
    fn build_routing(&mut self) {
        if !matches!(
            self.config.protocol,
            ProtocolKind::Spms | ProtocolKind::SpmsIz
        ) {
            return;
        }
        match self.config.routing_mode {
            RoutingMode::Oracle => {
                // Deliberately unmasked: the oracle is a static routing
                // fabric installed instantly and for free, and nothing
                // triggers an Oracle rebuild when a node repairs — masking
                // here would strand repaired nodes (empty tables, no
                // inbound routes) until the next mobility epoch. Liveness
                // is enforced where it belongs: the engine drops frames
                // to/from dead nodes at delivery time and protocols fail
                // over to their alternative routes, the paper's model.
                self.tables = oracle_tables(&self.zones, self.config.k_routes);
                self.dbf = None;
            }
            RoutingMode::Distributed => {
                let mut dbf = self
                    .dbf
                    .take()
                    .unwrap_or_else(|| DbfEngine::new(&self.zones, self.config.k_routes));
                // The full rebuild: every destination re-converged from
                // cleared tables, bit-identical (tables and stats) to the
                // sequential reference rebuild.
                let stats = dbf.rebuild_sharded(&self.zones, &self.alive);
                self.dbf = Some(dbf);
                self.charge_dbf_run(&stats, false);
            }
        }
    }

    /// The routing reaction to a mobility or contact epoch, after the zone
    /// table has absorbed it: with `incremental_routing` the persistent
    /// engine re-converges only what `change` disturbed, otherwise routing
    /// is rebuilt from scratch; then every alive protocol sees its new
    /// routes. "As nodes move, the routing tables have to be modified and
    /// no packet transfer can take place until the routing tables
    /// converge" — both DBF paths charge the convergence pause.
    fn reroute(&mut self, change: ZoneChange) {
        match self.dbf.as_mut() {
            Some(dbf) if self.config.incremental_routing => {
                let stats = match &change {
                    ZoneChange::Patched(delta) => {
                        dbf.apply_zone_delta(&self.zones, delta, &[], &self.alive)
                    }
                    ZoneChange::Rebuilt { old, changed } => {
                        dbf.update_topology(old, &self.zones, changed, &self.alive)
                    }
                };
                self.charge_dbf_run(&stats, true);
            }
            _ => self.build_routing(),
        }
        for i in 0..self.protocols.len() {
            if !self.alive[i] {
                continue;
            }
            let node = NodeId::new(i as u32);
            self.run_hook(node, SimTime::ZERO, |p, v, out| p.on_routes_rebuilt(v, out));
        }
    }

    /// Rebuilds the zone table all-pairs under the current gate (the
    /// reference path, `incremental_zones = false`) and returns the table
    /// it replaced.
    fn rebuild_zones(&mut self) -> ZoneTable {
        let new_zones = ZoneTable::build_gated(
            &self.topology,
            &self.config.radio,
            self.config.zone_radius_m,
            self.contact_gate.as_ref(),
        );
        std::mem::replace(&mut self.zones, new_zones)
    }

    /// Charges a DBF execution's per-node broadcast energy (at the zone/ADV
    /// power level) to the Routing category, pauses the data plane until
    /// the exchange converges, and folds the stats into the run totals.
    fn charge_dbf_run(&mut self, stats: &spms_routing::DbfStats, incremental: bool) {
        let adv_level = self.zones.adv_level();
        let power = self.config.radio.power_mw(adv_level);
        for (i, &bytes) in stats.per_node_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let air = self.config.mac.tx_duration(bytes as u32);
            self.meters[i].charge(
                EnergyCategory::Routing,
                MicroJoules::from_power_duration(power, air),
            );
        }
        // Convergence pause: data transfer waits for the exchange ("the
        // nodes start transmitting after the routing converges"). One round
        // ≈ one max-power channel access plus the mean vector's air time.
        let max_density = (0..self.zones.len())
            .map(|i| {
                self.zones
                    .density_at_level(NodeId::new(i as u32), adv_level)
            })
            .max()
            .unwrap_or(1) as usize;
        let avg_entries = stats.entries_sent.checked_div(stats.messages).unwrap_or(0) as usize;
        let wire = DbfWireFormat::default();
        let round_time = self.config.mac.quadratic_term(max_density)
            + self.config.mac.tx_duration(wire.message_bytes(avg_entries));
        let converge = round_time * u64::from(stats.rounds);
        // Pauses only ever extend: a cheap delta re-convergence landing
        // inside a longer still-running exchange must not release data
        // traffic early.
        self.pause_until = self.pause_until.max(self.now + converge);
        self.routing_cost.executions += 1;
        self.routing_cost.incremental_executions += u64::from(incremental);
        // Kept equal to `incremental_executions` until the figure JSON is
        // re-baselined without it.
        self.routing_cost.sharded_executions += u64::from(incremental);
        self.routing_cost.batch_windows += u64::from(incremental);
        self.routing_cost.rounds += u64::from(stats.rounds);
        self.routing_cost.messages += stats.messages;
        self.routing_cost.bytes += stats.bytes_total;
        self.routing_cost.converge_time += converge;
        self.trace.record_with(self.now, "dbf", || {
            format!(
                "DBF{}: {} rounds, {} msgs, {} B, pause {}",
                if incremental { " (delta)" } else { "" },
                stats.rounds,
                stats.messages,
                stats.bytes_total,
                converge
            )
        });
    }

    // ------------------------------------------------------------------
    // Event handling.

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Generate(i) => self.handle_generate(i),
            Event::Deliver(slot) => {
                let frame = self.in_flight[slot as usize]
                    .take()
                    .expect("a delivered frame is parked");
                self.free_slots.push(slot);
                self.handle_deliver(frame);
            }
            Event::Timer {
                node,
                meta,
                kind,
                gen,
            } => self.handle_timer(node, meta, kind, gen),
            Event::Fail { node, down_for } => self.handle_fail(node, down_for),
            Event::Repair { node, gen } => self.handle_repair(node, gen),
            Event::DrawFailure => self.handle_draw_failure(),
            Event::MobilityEpoch => self.handle_mobility_epoch(),
            Event::ChurnEpoch => self.handle_churn_epoch(),
            Event::ContactEpoch => self.handle_contact_epoch(),
        }
    }

    fn handle_generate(&mut self, i: usize) {
        let g = self.plan.generations[i];
        self.generated += 1;
        if !self.alive[g.source.index()] {
            // The source is down; the item is never created (counted as
            // generated for progress, but no deliveries are expected).
            self.trace.record_with(self.now, "gen", || {
                format!("{} lost: source {} down", g.meta, g.source)
            });
            return;
        }
        self.meta_birth.insert(g.meta, self.now);
        if let Some(item) = self.wanting.item(g.meta) {
            match &self.plan.interest {
                Interest::AllNodes => self.wanting.insert_all(item),
                Interest::PerMeta(map) => {
                    for &node in map.get(&g.meta).into_iter().flatten() {
                        self.wanting.insert(item, node);
                    }
                }
            }
            self.wanting.remove(item, g.source);
        }
        let want = self.plan.interest.count(g.meta, self.topology.len());
        self.outstanding += want;
        self.expected += want;
        self.run_hook(g.source, SimTime::ZERO, |p, v, out| {
            p.on_generate(v, g.meta, out);
        });
    }

    fn handle_deliver(&mut self, frame: OutFrame) {
        let from = frame.packet.from;
        if !self.alive[from.index()] {
            // §5.1.2: "any scheduled packet transfer is cancelled".
            self.msg.dropped.incr();
            return;
        }
        let kind = frame.packet.kind();
        let bytes = self.config.sizes.bytes(kind);
        let rx_energy = MicroJoules::from_power_duration(
            self.config.radio.rx_power_mw(),
            self.config.mac.tx_duration(bytes),
        );
        // A plain ADV's wanting row, looked up once per frame.
        let row = match frame.packet.payload {
            Payload::Adv => self.wanting.item(frame.packet.meta),
            _ => None,
        };
        match frame.to {
            Addressee::Broadcast => {
                // All alive zone neighbors within the frame's power range
                // participate (ADV is how they learn about data).
                let mut recipients = std::mem::take(&mut self.recipients);
                recipients.clear();
                recipients.extend(
                    self.zones
                        .links(from)
                        .iter()
                        .filter(|l| frame.level.index() <= l.level.index())
                        .map(|l| l.neighbor)
                        .filter(|nb| self.alive[nb.index()]),
                );
                for &nb in &recipients {
                    self.meters[nb.index()].charge(EnergyCategory::Receive, rx_energy);
                    self.check_battery(nb);
                    if self.alive[nb.index()] {
                        self.dispatch_packet(nb, &frame.packet, row);
                    }
                }
                self.recipients = recipients;
            }
            Addressee::Unicast(dest) => {
                let reachable = self
                    .zones
                    .link_to(from, dest)
                    .is_some_and(|l| frame.level.index() <= l.level.index());
                if reachable && self.alive[dest.index()] {
                    self.meters[dest.index()].charge(EnergyCategory::Receive, rx_energy);
                    self.check_battery(dest);
                    if self.alive[dest.index()] {
                        self.dispatch_packet(dest, &frame.packet, row);
                    }
                } else {
                    // Dead receiver ("any received message is dropped") or
                    // stale link after mobility.
                    self.msg.dropped.incr();
                }
            }
        }
    }

    /// Offers `packet` to the receiver's adversary policy, then to its
    /// protocol. `row` is the wanting row of a plain ADV's item: a plain
    /// ADV changes nothing at a node that does not want the item or has
    /// reported it delivered (the `Protocol::on_packet` contract), so the
    /// hook runs only where the node's bit is set, and the bit implies
    /// interest. Any other packet runs the hook with the plan's interest.
    fn dispatch_packet(&mut self, receiver: NodeId, packet: &Packet, row: Option<usize>) {
        if self.adversary_intercepts(receiver, packet) {
            return;
        }
        let interested = match row {
            Some(item) if !self.wanting.contains(item, receiver) => return,
            Some(_) => true,
            None => self.plan.interest.interested(receiver, packet.meta),
        };
        self.run_hook(receiver, self.config.proc_delay, |p, v, out| {
            p.on_packet(v, packet, interested, out);
        });
    }

    /// `true` when `node` runs an adversarial policy whose attack window
    /// has opened.
    fn adversary_active(&self, node: NodeId) -> bool {
        self.behaviors[node.index()].is_adversarial()
            && self
                .config
                .adversary
                .as_ref()
                .is_some_and(|a| self.now >= a.attack_start)
    }

    /// Runs the receiver's adversarial policy on an incoming packet.
    /// Returns `true` when the packet was consumed by the adversary — the
    /// honest protocol machine must not see it. All three behaviors swallow
    /// the packet; flooding attackers and metadata liars additionally
    /// broadcast bogus zone-wide ADVs (for data they will never serve), each
    /// at most once per (adversary, item) so attack storms stay bounded and
    /// can never echo between adversaries.
    fn adversary_intercepts(&mut self, receiver: NodeId, packet: &Packet) -> bool {
        if !self.adversary_active(receiver) {
            return false;
        }
        let behavior = self.behaviors[receiver.index()];
        let attack_factor = self
            .config
            .adversary
            .as_ref()
            .map_or(1, |a| a.attack_factor);
        let first_seen = self.adversary_seen[receiver.index()].insert(packet.meta);
        let bogus = match behavior {
            NodeBehavior::Honest | NodeBehavior::SilentDropper => 0,
            NodeBehavior::Flooding => {
                if first_seen {
                    attack_factor
                } else {
                    0
                }
            }
            // The liar re-advertises metadata it heard advertised but does
            // not hold, luring REQs it will swallow.
            NodeBehavior::MetadataLiar => u32::from(first_seen && packet.kind() == PacketKind::Adv),
        };
        self.adversary_stats.packets_dropped += 1;
        self.adversary_stats.bogus_advs += u64::from(bogus);
        let meta = packet.meta;
        for _ in 0..bogus {
            let frame = OutFrame {
                to: Addressee::Broadcast,
                level: self.zones.adv_level(),
                packet: Packet {
                    meta,
                    from: receiver,
                    payload: Payload::Adv,
                },
            };
            self.transmit(receiver, frame, self.config.proc_delay);
        }
        self.trace.record_with(self.now, "adv", || {
            format!("{receiver} ({behavior}) swallowed {meta} ({bogus} bogus ADVs)")
        });
        true
    }

    fn handle_timer(&mut self, node: NodeId, meta: MetaId, kind: TimerKind, gen: u32) {
        if !self.alive[node.index()] {
            return; // timers are implicitly cancelled while down
        }
        if self.adversary_active(node) {
            return; // adversaries let their honest-era timers rot
        }
        self.run_hook(node, SimTime::ZERO, |p, v, out| {
            p.on_timer(v, meta, kind, gen, out);
        });
    }

    fn handle_fail(&mut self, node: NodeId, down_for: SimTime) {
        if !self.alive[node.index()] {
            return; // already down; ignore overlapping failure
        }
        self.alive[node.index()] = false;
        self.down_gen[node.index()] += 1;
        self.queues[node.index()].cancel_pending(self.now);
        self.protocols[node.index()].on_failed();
        self.failures_injected += 1;
        self.trace
            .record_with(self.now, "fail", || format!("{node} down for {down_for}"));
        self.reconverge_after_liveness_flips(&[node]);
        self.events.schedule(
            self.now + down_for,
            Event::Repair {
                node,
                gen: self.down_gen[node.index()],
            },
        );
    }

    /// Routing reaction to liveness flips (failures, repairs, battery
    /// deaths, churn cohorts). A flip changes no zone row, so with
    /// `incremental_routing` the persistent engine invalidates just the
    /// flipped nodes' zones and re-converges them at once; the protocols
    /// meanwhile fail over on their alternative routes, the paper's model.
    /// Without incremental routing the flip is ridden out until the next
    /// full rebuild.
    fn reconverge_after_liveness_flips(&mut self, nodes: &[NodeId]) {
        if !self.config.incremental_routing {
            return;
        }
        let Some(dbf) = self.dbf.as_mut() else {
            return;
        };
        let stats = dbf.invalidate_zone(&self.zones, nodes, &self.alive);
        self.routing_cost.liveness_deltas += 1;
        self.charge_dbf_run(&stats, true);
    }

    fn handle_repair(&mut self, node: NodeId, gen: u32) {
        if self.alive[node.index()] || self.down_gen[node.index()] != gen {
            return;
        }
        self.alive[node.index()] = true;
        self.trace
            .record_with(self.now, "fail", || format!("{node} repaired"));
        self.reconverge_after_liveness_flips(&[node]);
        self.run_hook(node, SimTime::ZERO, |p, v, out| p.on_repaired(v, out));
    }

    fn handle_draw_failure(&mut self) {
        if self.winding_down {
            return;
        }
        let n = self.topology.len();
        let Some(proc) = self.failure_proc.as_mut() else {
            return;
        };
        let e = proc.next_event(n);
        if e.at > self.config.horizon {
            return; // stop the chain
        }
        self.events.schedule(
            e.at,
            Event::Fail {
                node: e.node,
                down_for: e.down_for,
            },
        );
        self.events.schedule(e.at, Event::DrawFailure);
    }

    fn stage_next_epoch(&mut self) {
        if self.winding_down {
            return;
        }
        let Some(proc) = self.mobility_proc.as_mut() else {
            return;
        };
        let epoch = proc.next_epoch(self.now, &self.topology);
        if epoch.at > self.config.horizon {
            return;
        }
        self.events.schedule(epoch.at, Event::MobilityEpoch);
        self.staged_epoch = Some(epoch);
    }

    fn handle_mobility_epoch(&mut self) {
        let Some(epoch) = self.staged_epoch.take() else {
            return;
        };
        MobilityProcess::apply_indexed(&epoch, &mut self.topology, &mut self.grid);
        self.mobility_epochs += 1;
        self.trace.record_with(self.now, "move", || {
            format!("mobility epoch: {} nodes moved", epoch.moves.len())
        });
        let moved: Vec<NodeId> = epoch.moves.iter().map(|&(node, _)| node).collect();
        // Zone state always updates first: MAC densities and delivery
        // reachability must track real positions.
        let change = if self.config.incremental_zones {
            // Patch only the zone rows the epoch perturbed; the returned
            // delta names exactly the nodes routing must re-converge for.
            let delta = self.zones.apply_moves_gated(
                &self.topology,
                &self.config.radio,
                &self.grid,
                self.contact_gate.as_ref(),
                &moved,
            );
            self.routing_cost.zone_patches += 1;
            self.routing_cost.zone_rows_patched += delta.rows_patched() as u64;
            self.trace.record_with(self.now, "move", || {
                format!(
                    "zone patch: {} of {} rows rebuilt",
                    delta.rows_patched(),
                    self.topology.len()
                )
            });
            ZoneChange::Patched(delta)
        } else {
            ZoneChange::Rebuilt {
                old: self.rebuild_zones(),
                changed: moved,
            }
        };
        self.reroute(change);
        self.stage_next_epoch();
    }

    fn stage_next_churn(&mut self) {
        if self.winding_down {
            return;
        }
        let n = self.topology.len();
        let Some(proc) = self.churn_proc.as_mut() else {
            return;
        };
        let epoch = proc.next_epoch(self.now, n);
        if epoch.at > self.config.horizon {
            return;
        }
        self.events.schedule(epoch.at, Event::ChurnEpoch);
        self.staged_churn = Some(epoch);
    }

    /// Applies the staged churn epoch: every cohort member toggles liveness
    /// — alive nodes leave (exactly like a failure, but with no scheduled
    /// repair), departed nodes rejoin. Battery-depleted nodes are skipped:
    /// those deaths are permanent. The whole cohort re-converges as **one**
    /// liveness flip, the heavy-churn stress case for the incremental DBF.
    fn handle_churn_epoch(&mut self) {
        let Some(epoch) = self.staged_churn.take() else {
            return;
        };
        self.adversary_stats.churn_epochs += 1;
        let mut flips: Vec<NodeId> = Vec::with_capacity(epoch.cohort.len());
        let mut joiners: Vec<NodeId> = Vec::new();
        for &node in &epoch.cohort {
            let i = node.index();
            if !self.alive[i] && self.battery_depleted(node) {
                continue;
            }
            // Bumping the generation invalidates any scheduled Repair, so a
            // churned node cannot be resurrected (or double-toggled) by a
            // stale failure-process event.
            self.down_gen[i] += 1;
            if self.alive[i] {
                self.alive[i] = false;
                self.queues[i].cancel_pending(self.now);
                self.protocols[i].on_failed();
                self.adversary_stats.churn_leaves += 1;
            } else {
                self.alive[i] = true;
                self.adversary_stats.churn_joins += 1;
                joiners.push(node);
            }
            flips.push(node);
        }
        let (left, joined) = (flips.len() - joiners.len(), joiners.len());
        self.trace.record_with(self.now, "churn", || {
            format!("churn epoch: {left} left, {joined} rejoined")
        });
        if !flips.is_empty() {
            self.reconverge_after_liveness_flips(&flips);
        }
        for node in joiners {
            self.run_hook(node, SimTime::ZERO, |p, v, out| p.on_repaired(v, out));
        }
        self.stage_next_churn();
    }

    fn stage_next_contact(&mut self) {
        if self.winding_down {
            return;
        }
        let Some(proc) = self.contact_proc.as_mut() else {
            return;
        };
        let Some(epoch) = proc.next_epoch() else {
            return;
        };
        if epoch.at > self.config.horizon {
            return;
        }
        self.events.schedule(epoch.at, Event::ContactEpoch);
        self.staged_contact = Some(epoch);
    }

    /// Applies the staged contact-plan epoch: every link flip at this
    /// timestamp lands on the gate, the affected zone rows are patched (or
    /// the table rebuilt, on the reference path), and routing re-converges
    /// through the same [`Simulation::reroute`] step mobility epochs use —
    /// so the DBF and oracle paths treat a scheduled window boundary
    /// exactly like a mobility epoch.
    fn handle_contact_epoch(&mut self) {
        let Some(epoch) = self.staged_contact.take() else {
            return;
        };
        let gate = self
            .contact_gate
            .as_mut()
            .expect("contact events require a gate");
        let mut endpoints: Vec<NodeId> = Vec::with_capacity(epoch.flips.len() * 2);
        let (mut ups, mut downs) = (0u64, 0u64);
        for flip in &epoch.flips {
            gate.set(flip.a, flip.b, flip.up);
            endpoints.extend([flip.a, flip.b]);
            if flip.up {
                ups += 1;
            } else {
                downs += 1;
            }
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        // Counts plan events — identical whatever the wall-clock knobs.
        self.routing_cost.contact_epochs += 1;
        self.routing_cost.contact_links_up += ups;
        self.routing_cost.contact_links_down += downs;
        self.trace.record_with(self.now, "contact", || {
            format!("contact epoch: {ups} links up, {downs} links down")
        });
        let change = if self.config.incremental_zones {
            // Patch only the endpoint rows; the delta mirrors a mobility
            // patch (pre-flip adjacency as move records, changed rows
            // pre-expanded), so the DBF delta path retires the stale
            // pairings exactly as the full-rebuild oracle would.
            ZoneChange::Patched(self.zones.apply_link_flips(
                &self.topology,
                &self.config.radio,
                &self.grid,
                self.contact_gate.as_ref().expect("gate installed above"),
                &endpoints,
            ))
        } else {
            ZoneChange::Rebuilt {
                old: self.rebuild_zones(),
                changed: endpoints,
            }
        };
        self.reroute(change);
        self.stage_next_contact();
    }

    // ------------------------------------------------------------------
    // Actions.

    /// `true` when `node` has spent its whole battery budget — such deaths
    /// are permanent and churn must not revive them.
    fn battery_depleted(&self, node: NodeId) -> bool {
        self.config
            .battery_capacity_uj
            .is_some_and(|cap| self.meters[node.index()].breakdown().total().value() >= cap)
    }

    /// Remaining battery fraction of `node` (1.0 without a budget).
    fn battery_frac(&self, node: NodeId) -> f64 {
        match self.config.battery_capacity_uj {
            None => 1.0,
            Some(cap) => {
                let spent = self.meters[node.index()].breakdown().total().value();
                ((cap - spent) / cap).max(0.0)
            }
        }
    }

    /// Runs one protocol hook on `node` and performs the actions it
    /// appended, in push order, `extra` after now.
    fn run_hook<F>(&mut self, node: NodeId, extra: SimTime, hook: F)
    where
        F: FnOnce(&mut NodeProtocol, &NodeView<'_>, &mut Vec<Action>),
    {
        let mut out = std::mem::take(&mut self.actions);
        let view = NodeView {
            node,
            now: self.now,
            zones: &self.zones,
            routing: match &self.dbf {
                Some(dbf) => dbf.table(node),
                None => &self.tables[node.index()],
            },
            timeouts: self.timeouts,
            battery_frac: self.battery_frac(node),
            low_battery_threshold: self.config.low_battery_threshold,
        };
        hook(&mut self.protocols[node.index()], &view, &mut out);
        self.process_actions(node, &mut out, extra);
        self.actions = out;
    }

    /// Checks `node` against its battery budget after an energy charge;
    /// a depleted node dies permanently (no repair is scheduled).
    fn check_battery(&mut self, node: NodeId) {
        let Some(cap) = self.config.battery_capacity_uj else {
            return;
        };
        if !self.alive[node.index()] {
            return;
        }
        let spent = self.meters[node.index()].breakdown().total().value();
        if spent < cap {
            return;
        }
        self.alive[node.index()] = false;
        self.down_gen[node.index()] += 1;
        self.queues[node.index()].cancel_pending(self.now);
        self.protocols[node.index()].on_failed();
        self.nodes_dead += 1;
        if self.first_death_at.is_none() {
            self.first_death_at = Some(self.now);
        }
        self.trace
            .record_with(self.now, "dead", || format!("{node} battery depleted"));
        self.reconverge_after_liveness_flips(&[node]);
    }

    /// Performs and drains `actions` in push order.
    fn process_actions(&mut self, node: NodeId, actions: &mut Vec<Action>, extra: SimTime) {
        for action in actions.drain(..) {
            match action {
                Action::Send(frame) => self.transmit(node, frame, extra),
                Action::SetTimer {
                    meta,
                    kind,
                    gen,
                    after,
                } => {
                    self.events.schedule(
                        self.now + extra + after,
                        Event::Timer {
                            node,
                            meta,
                            kind,
                            gen,
                        },
                    );
                    self.protocol_pending += 1;
                }
                Action::Delivered { meta } => self.record_delivery(node, meta),
                Action::Abandoned { meta } => self.record_abandon(node, meta),
                Action::Duplicate { .. } => self.duplicates += 1,
            }
        }
    }

    fn transmit(&mut self, node: NodeId, frame: OutFrame, extra: SimTime) {
        debug_assert_eq!(frame.packet.from, node, "frames must be sent as self");
        let kind = frame.packet.kind();
        let bytes = self.config.sizes.bytes(kind);
        let density = self.zones.density_at_level(node, frame.level) as usize;
        let access =
            self.config
                .contention
                .access_delay(&self.config.mac, density, &mut self.rng_mac);
        let tx_time = self.config.mac.tx_duration(bytes);
        let request_at = (self.now + extra).max(self.pause_until);
        let res = self.queues[node.index()].reserve(request_at, access, tx_time);
        self.mac_wait.record(res.queue_wait.as_millis_f64());
        let power = self.config.radio.power_mw(frame.level);
        self.meters[node.index()].charge(
            kind.energy_category(),
            MicroJoules::from_power_duration(power, tx_time),
        );
        self.check_battery(node);
        match kind {
            PacketKind::Adv => {
                self.msg.adv.incr();
                // Delay is measured "from the time the ADV packet is sent
                // out by the source" (§5.1): record the source's first ADV.
                let meta = frame.packet.meta;
                if frame.packet.from == meta.source() {
                    self.meta_adv_at.entry(meta).or_insert(res.starts);
                }
            }
            PacketKind::Req => self.msg.req.incr(),
            PacketKind::Data => self.msg.data.incr(),
        }
        self.trace.record_with(self.now, "tx", || {
            format!(
                "{} {:?} {} -> {:?} @{} (starts {}, ends {})",
                frame.packet.meta, kind, node, frame.to, frame.level, res.starts, res.ends
            )
        });
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.in_flight[slot as usize] = Some(frame);
                slot
            }
            None => {
                self.in_flight.push(Some(frame));
                u32::try_from(self.in_flight.len() - 1).expect("in-flight frames fit u32 slots")
            }
        };
        self.events.schedule(res.ends, Event::Deliver(slot));
        self.protocol_pending += 1;
    }

    fn record_delivery(&mut self, node: NodeId, meta: MetaId) {
        let reference = self
            .meta_adv_at
            .get(&meta)
            .or_else(|| self.meta_birth.get(&meta))
            .copied()
            .unwrap_or(self.now);
        self.delay
            .record(self.now.saturating_sub(reference).as_millis_f64());
        self.deliveries += 1;
        if let Some(item) = self.wanting.item(meta) {
            self.wanting.remove(item, node);
        }
        if self.settled[node.index()].insert(meta) {
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        self.trace
            .record_with(self.now, "rx", || format!("{meta} delivered at {node}"));
    }

    fn record_abandon(&mut self, node: NodeId, meta: MetaId) {
        self.abandonments += 1;
        if self.settled[node.index()].insert(meta) {
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        self.trace
            .record_with(self.now, "rx", || format!("{meta} abandoned at {node}"));
    }

    fn into_metrics(mut self) -> RunMetrics {
        // Optional idle-listening accounting: every node's radio draws the
        // configured power for the whole run (slower dissemination ⇒ more
        // idle energy).
        if let Some(p) = self.config.idle_listening_mw {
            let idle = MicroJoules::from_power_duration(p, self.now);
            for m in &mut self.meters {
                m.charge(EnergyCategory::Idle, idle);
            }
        }
        let mut energy = spms_phy::EnergyBreakdown::new();
        let mut per_node_energy_uj = Vec::with_capacity(self.meters.len());
        for m in &self.meters {
            energy.merge(m.breakdown());
            per_node_energy_uj.push(m.breakdown().total().value());
        }
        RunMetrics {
            protocol: self.config.protocol.label(),
            nodes: self.topology.len(),
            zone_radius_m: self.config.zone_radius_m,
            packets_generated: self.generated,
            deliveries_expected: self.expected,
            deliveries: self.deliveries,
            duplicates: self.duplicates,
            abandonments: self.abandonments,
            delay_ms: self.delay,
            energy,
            messages: self.msg,
            routing: self.routing_cost,
            mac_queue_wait_ms: self.mac_wait,
            failures_injected: self.failures_injected,
            mobility_epochs: self.mobility_epochs,
            adversary: self.adversary_stats,
            finished_at: self.now,
            events_processed: self.events_processed,
            per_node_energy_uj,
            nodes_dead: self.nodes_dead,
            first_death_at: self.first_death_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdversaryConfig, Generation, Interest};
    use spms_net::placement;

    fn single_source_plan(source: u32, items: u32) -> TrafficPlan {
        let src = NodeId::new(source);
        let generations = (0..items)
            .map(|i| Generation {
                at: SimTime::from_millis(u64::from(i)),
                source: src,
                meta: MetaId::new(src, i),
            })
            .collect();
        TrafficPlan::new(generations, Interest::AllNodes).unwrap()
    }

    fn run(protocol: ProtocolKind, seed: u64) -> RunMetrics {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let config = SimConfig::paper_defaults(protocol, seed);
        Simulation::run_with(config, topo, single_source_plan(4, 1)).unwrap()
    }

    #[test]
    fn spms_delivers_to_all_interested() {
        let m = run(ProtocolKind::Spms, 1);
        assert_eq!(m.deliveries_expected, 8);
        assert_eq!(m.deliveries, 8);
        assert_eq!(m.delivery_ratio(), 1.0);
        assert!(m.delay_ms.count() == 8);
        assert!(m.energy.total().value() > 0.0);
    }

    #[test]
    fn spin_delivers_to_all_interested() {
        let m = run(ProtocolKind::Spin, 1);
        assert_eq!(m.deliveries, 8);
        assert_eq!(m.messages.adv.value(), 9, "each holder advertises once");
    }

    #[test]
    fn flooding_delivers_with_duplicates() {
        let m = run(ProtocolKind::Flooding, 1);
        assert_eq!(m.deliveries, 8);
        assert!(m.duplicates > 0, "flooding must show implosion");
    }

    #[test]
    fn spms_uses_less_energy_than_spin() {
        let spin = run(ProtocolKind::Spin, 1);
        let spms = run(ProtocolKind::Spms, 1);
        assert!(
            spms.energy.total() < spin.energy.total(),
            "SPMS {} vs SPIN {}",
            spms.energy.total(),
            spin.energy.total()
        );
    }

    #[test]
    fn identical_seeds_give_identical_metrics() {
        let a = run(ProtocolKind::Spms, 42);
        let b = run(ProtocolKind::Spms, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_still_deliver() {
        for seed in [7, 8, 9] {
            let m = run(ProtocolKind::Spms, seed);
            assert_eq!(m.delivery_ratio(), 1.0, "seed {seed}");
        }
    }

    #[test]
    fn distributed_routing_charges_energy_and_pauses() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 3);
        config.routing_mode = RoutingMode::Distributed;
        let m = Simulation::run_with(config, topo, single_source_plan(4, 1)).unwrap();
        assert_eq!(m.routing.executions, 1);
        assert!(m.routing.messages > 0);
        assert!(m.energy.get(EnergyCategory::Routing).value() > 0.0);
        assert_eq!(m.deliveries, 8);
    }

    #[test]
    fn incremental_mobility_rebuild_is_cheaper_than_full() {
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let plan = single_source_plan(12, 3);
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 11);
        config.routing_mode = RoutingMode::Distributed;
        config.mobility =
            Some(spms_net::MobilityConfig::new(SimTime::from_millis(30), 0.1).unwrap());
        config.incremental_routing = true;
        let incremental = Simulation::run_with(config.clone(), topo.clone(), plan.clone()).unwrap();
        config.incremental_routing = false;
        let full = Simulation::run_with(config, topo, plan).unwrap();

        assert!(incremental.mobility_epochs > 0, "epochs must fire");
        assert_eq!(
            incremental.routing.incremental_executions, incremental.mobility_epochs,
            "every epoch re-converges incrementally"
        );
        // The shard and window counters stay in `RunMetrics` at fixed
        // relations to the re-convergence count.
        assert_eq!(
            incremental.routing.sharded_executions,
            incremental.routing.incremental_executions
        );
        assert_eq!(
            incremental.routing.batch_windows,
            incremental.routing.incremental_executions
        );
        assert_eq!(incremental.routing.epochs_coalesced, 0);
        assert_eq!(
            incremental.routing.executions,
            1 + incremental.mobility_epochs
        );
        assert_eq!(full.routing.incremental_executions, 0);
        assert_eq!(incremental.mobility_epochs, full.mobility_epochs);
        assert!(
            incremental.routing.bytes < full.routing.bytes,
            "delta vectors must shrink the wire cost: {} vs {}",
            incremental.routing.bytes,
            full.routing.bytes
        );
        assert_eq!(incremental.deliveries, incremental.deliveries_expected);
    }

    #[test]
    fn incremental_zone_patches_match_the_reference_rebuild() {
        // Same seed, zones patched in place vs rebuilt all-pairs every
        // epoch: the patched table is bit-identical, so the runs must agree
        // on everything — deliveries, messages, energy, even the DBF
        // re-convergence traffic — except the zone-patch counters.
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let plan = single_source_plan(12, 3);
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 21);
        config.routing_mode = RoutingMode::Distributed;
        config.mobility =
            Some(spms_net::MobilityConfig::new(SimTime::from_millis(30), 0.1).unwrap());
        let patched = Simulation::run_with(config.clone(), topo.clone(), plan.clone()).unwrap();
        config.incremental_zones = false;
        let reference = Simulation::run_with(config, topo, plan).unwrap();

        assert!(patched.mobility_epochs > 0, "epochs must fire");
        assert_eq!(patched.routing.zone_patches, patched.mobility_epochs);
        assert!(patched.routing.zone_rows_patched > 0);
        // On this tiny field one zone spans everything, so a patch may
        // touch every row — but never more than a full rebuild would.
        assert!(
            patched.routing.zone_rows_patched <= patched.mobility_epochs * patched.nodes as u64,
            "patches must not touch more rows than full rebuilds"
        );
        assert_eq!(reference.routing.zone_patches, 0);
        let mut want = reference.clone();
        want.routing.zone_patches = patched.routing.zone_patches;
        want.routing.zone_rows_patched = patched.routing.zone_rows_patched;
        assert_eq!(patched, want);
    }

    fn silent_failure_config(seed: u64) -> SimConfig {
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, seed);
        config.routing_mode = RoutingMode::Distributed;
        config.mobility =
            Some(spms_net::MobilityConfig::new(SimTime::from_millis(40), 0.1).unwrap());
        config.failures = Some(spms_net::FailureConfig {
            mean_interarrival: SimTime::from_millis(20),
            repair_min: SimTime::from_millis(10),
            repair_max: SimTime::from_millis(30),
        });
        config.horizon = SimTime::from_secs(2);
        config
    }

    #[test]
    fn silent_failures_queue_liveness_deltas_into_the_window() {
        // Every failure and repair re-converges its zones at once, so no
        // stale next-hop survives past the flip itself — on a quiet field
        // it would otherwise linger until the next mobility epoch.
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let config = silent_failure_config(17);
        let m = Simulation::run_with(config, topo, single_source_plan(5, 3)).unwrap();
        assert!(m.mobility_epochs > 0);
        assert!(m.failures_injected > 0);
        assert!(m.routing.liveness_deltas > 0, "flips must queue deltas");
        assert_eq!(
            m.routing.incremental_executions,
            m.mobility_epochs + m.routing.liveness_deltas,
            "every epoch and every flip re-converges on its own"
        );
        assert_eq!(m.routing.batch_windows, m.routing.incremental_executions);
        assert_eq!(m.routing.executions, 1 + m.routing.incremental_executions);
    }

    #[test]
    fn failure_reconvergence_repairs_routes_incrementally() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 13);
        config.routing_mode = RoutingMode::Distributed;
        config.failures = Some(spms_net::FailureConfig {
            mean_interarrival: SimTime::from_millis(5),
            repair_min: SimTime::from_millis(5),
            repair_max: SimTime::from_millis(15),
        });
        config.horizon = SimTime::from_secs(2);
        let m = Simulation::run_with(config, topo, single_source_plan(4, 1)).unwrap();
        assert!(m.failures_injected > 0);
        assert!(
            m.routing.incremental_executions > 0,
            "liveness flips must trigger delta re-convergence"
        );
        assert!(m.energy.get(EnergyCategory::Routing).value() > 0.0);
    }

    #[test]
    fn dead_source_generates_nothing() {
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 4);
        // Inject a guaranteed immediate failure by making the mean tiny and
        // the repair long; node selection is random over 2 nodes, so use a
        // seed that hits the source. (Checked: seed 1 fails node 0 first.)
        config.failures = Some(spms_net::FailureConfig {
            mean_interarrival: SimTime::from_micros(100),
            repair_min: SimTime::from_secs(500),
            repair_max: SimTime::from_secs(600),
        });
        config.horizon = SimTime::from_millis(50);
        let plan = single_source_plan(0, 1);
        let m = Simulation::run_with(config, topo, plan).unwrap();
        // Either the source died before generating (no expectations) or it
        // generated and the other node died (undeliverable); both end by
        // horizon without panicking.
        assert!(m.failures_injected >= 1);
    }

    #[test]
    fn energy_breakdown_has_all_protocol_phases() {
        let m = run(ProtocolKind::Spms, 5);
        assert!(m.energy.get(EnergyCategory::Adv).value() > 0.0);
        assert!(m.energy.get(EnergyCategory::Req).value() > 0.0);
        assert!(m.energy.get(EnergyCategory::Data).value() > 0.0);
        assert!(m.energy.get(EnergyCategory::Receive).value() > 0.0);
    }

    #[test]
    fn idle_listening_charges_every_node() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 8);
        config.idle_listening_mw = Some(0.0125);
        let with_idle =
            Simulation::run_with(config, topo.clone(), single_source_plan(4, 1)).unwrap();
        let without = run(ProtocolKind::Spms, 8);
        assert!(with_idle.energy.get(EnergyCategory::Idle).value() > 0.0);
        assert_eq!(without.energy.get(EnergyCategory::Idle).value(), 0.0);
        assert!(with_idle.energy.total() > without.energy.total());
        // Idle accounting must not change protocol behavior.
        assert_eq!(with_idle.deliveries, without.deliveries);
        assert_eq!(with_idle.messages, without.messages);
    }

    #[test]
    fn spin_bc_reduces_data_transmissions() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spin, 9);
        config.spin_broadcast_data = true;
        let bc = Simulation::run_with(config, topo, single_source_plan(4, 1)).unwrap();
        let pp = run(ProtocolKind::Spin, 9);
        assert_eq!(bc.deliveries, 8);
        assert!(
            bc.messages.data.value() < pp.messages.data.value(),
            "BC {} vs PP {}",
            bc.messages.data.value(),
            pp.messages.data.value()
        );
    }

    #[test]
    fn trace_records_when_enabled() {
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 6);
        config.trace_capacity = Some(256);
        let sim = Simulation::new(config, topo, single_source_plan(0, 1)).unwrap();
        let trace_enabled = sim.trace().is_enabled();
        assert!(trace_enabled);
        let m = sim.run();
        assert_eq!(m.deliveries, 1);
    }

    #[test]
    fn run_traced_returns_the_event_log() {
        let topo = placement::grid(3, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 6);
        config.trace_capacity = Some(1024);
        let sim = Simulation::new(config, topo, single_source_plan(0, 1)).unwrap();
        let (m, trace) = sim.run_traced();
        assert_eq!(m.deliveries, 2);
        assert!(trace.events().len() > 4, "tx + rx events expected");
        assert!(trace.with_tag("tx").count() as u64 >= m.messages.adv.value());
        assert_eq!(trace.with_tag("rx").count() as u64, m.deliveries);
        // Timestamps are monotone.
        let times: Vec<_> = trace.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn silent_droppers_swallow_packets_deterministically() {
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let plan = single_source_plan(5, 2);
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 33);
        config.adversary = Some(AdversaryConfig::new(NodeBehavior::SilentDropper, 0.25).unwrap());
        let a = Simulation::run_with(config.clone(), topo.clone(), plan.clone()).unwrap();
        let b = Simulation::run_with(config, topo.clone(), plan.clone()).unwrap();
        assert_eq!(a, b, "the roster is seeded from the master seed");
        assert_eq!(a.adversary.adversaries, 4, "round(0.25 * 16)");
        assert!(a.adversary.packets_dropped > 0);
        assert_eq!(a.adversary.bogus_advs, 0, "droppers stay silent");
        let honest = Simulation::run_with(
            SimConfig::paper_defaults(ProtocolKind::Spms, 33),
            topo,
            plan,
        )
        .unwrap();
        assert_eq!(honest.adversary, AdversaryStats::default());
        assert!(a.deliveries <= honest.deliveries);
    }

    #[test]
    fn flooding_attackers_emit_bogus_advs_only_after_attack_start() {
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let plan = single_source_plan(5, 2);
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 33);
        let mut adv = AdversaryConfig::new(NodeBehavior::Flooding, 0.25).unwrap();
        adv.attack_factor = 3;
        config.adversary = Some(adv);
        let m = Simulation::run_with(config.clone(), topo.clone(), plan.clone()).unwrap();
        assert!(m.adversary.packets_dropped > 0);
        assert!(m.adversary.bogus_advs > 0);
        assert_eq!(
            m.adversary.bogus_advs % 3,
            0,
            "attack_factor bogus ADVs per first-seen item"
        );
        // Pushing attack_start past the horizon keeps the roster but never
        // opens the attack window: byte-identical to the honest run except
        // for the roster count.
        config.adversary.as_mut().unwrap().attack_start = SimTime::from_secs(10_000);
        let dormant = Simulation::run_with(config, topo.clone(), plan.clone()).unwrap();
        let honest = Simulation::run_with(
            SimConfig::paper_defaults(ProtocolKind::Spms, 33),
            topo,
            plan,
        )
        .unwrap();
        let mut want = honest.clone();
        want.adversary.adversaries = dormant.adversary.adversaries;
        assert_eq!(dormant, want);
    }

    #[test]
    fn explicit_adversary_rosters_are_range_checked() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
        let mut adv = AdversaryConfig::new(NodeBehavior::SilentDropper, 0.0).unwrap();
        adv.explicit = Some(vec![NodeId::new(99)]);
        config.adversary = Some(adv);
        let err = Simulation::new(config.clone(), topo.clone(), single_source_plan(4, 1));
        assert!(err.is_err(), "out-of-range explicit adversary must fail");
        config.adversary.as_mut().unwrap().explicit = Some(vec![NodeId::new(3)]);
        let m = Simulation::run_with(config, topo, single_source_plan(4, 1)).unwrap();
        assert_eq!(m.adversary.adversaries, 1);
        assert!(m.adversary.packets_dropped > 0);
    }

    #[test]
    fn churn_epochs_toggle_cohorts_and_queue_one_delta_each() {
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let plan = single_source_plan(5, 3);
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 29);
        config.routing_mode = RoutingMode::Distributed;
        config.churn = Some(spms_net::ChurnConfig::new(SimTime::from_millis(40), 0.25).unwrap());
        config.horizon = SimTime::from_secs(2);
        let a = Simulation::run_with(config.clone(), topo.clone(), plan.clone()).unwrap();
        let b = Simulation::run_with(config, topo, plan).unwrap();
        assert_eq!(a, b, "churn is seeded from the master seed");
        assert!(a.adversary.churn_epochs > 0);
        assert!(
            a.adversary.churn_leaves > 0,
            "early cohorts tear nodes down"
        );
        assert!(a.adversary.churn_joins > 0, "later cohorts revive them");
        assert_eq!(
            a.routing.liveness_deltas, a.adversary.churn_epochs,
            "each cohort lands as one liveness delta"
        );
        assert_eq!(a.adversary.churn_coalesced, 0, "no cohort is deferred");
    }

    fn contact_plan(text: &str) -> spms_net::ContactPlan {
        spms_net::ContactPlan::parse(text).unwrap()
    }

    #[test]
    fn gated_down_links_block_delivery() {
        // Two nodes, the only link scheduled to be up from 500 s on: the
        // item generated at t = 0 can never be delivered, and the run still
        // terminates.
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 3);
        config.contact_plan = Some(contact_plan("0 1 500 600\n"));
        let m = Simulation::run_with(config, topo.clone(), single_source_plan(0, 1)).unwrap();
        assert_eq!(m.deliveries, 0, "no link, no delivery");
        assert_eq!(m.messages.data.value(), 0);
        // The already-staged open boundary still fires; once the run is
        // winding down the chain stops (like mobility), so the 600 s close
        // is never staged.
        assert_eq!(m.routing.contact_epochs, 1);
        assert_eq!(m.routing.contact_links_up, 1);
        assert_eq!(m.routing.contact_links_down, 0);
        // The same run without the plan delivers.
        let open = Simulation::run_with(
            SimConfig::paper_defaults(ProtocolKind::Spms, 3),
            topo,
            single_source_plan(0, 1),
        )
        .unwrap();
        assert_eq!(open.deliveries, 1);
        assert_eq!(open.routing.contact_epochs, 0);
    }

    #[test]
    fn windows_open_at_zero_start_up_and_close_on_schedule() {
        // Link up over [0, 50 ms): the t = 0 generation delivers through
        // it, then the close boundary fires as one contact epoch.
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 3);
        config.contact_plan = Some(contact_plan("0 1 0 0.05\n"));
        let m = Simulation::run_with(config, topo, single_source_plan(0, 1)).unwrap();
        assert_eq!(m.deliveries, 1, "window covers the exchange");
        assert_eq!(m.routing.contact_epochs, 1, "only the close boundary");
        assert_eq!(
            m.routing.contact_links_up, 0,
            "t = 0 opens fold into the initial gate"
        );
        assert_eq!(m.routing.contact_links_down, 1);
    }

    #[test]
    fn contact_plans_are_range_checked() {
        let topo = placement::grid(2, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 3);
        config.contact_plan = Some(contact_plan("0 7 1 2\n"));
        let err = match Simulation::new(config, topo, single_source_plan(0, 1)) {
            Err(e) => e,
            Ok(_) => panic!("out-of-range contact plan must fail"),
        };
        assert!(err.contains("contact plan names node n7"), "{err}");
    }

    #[test]
    fn interest_plans_are_range_checked() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let source = NodeId::new(4);
        let meta = MetaId::new(source, 0);
        let plan = |nodes: [u32; 2]| {
            let wanted = nodes.into_iter().map(NodeId::new).collect();
            TrafficPlan::new(
                vec![Generation {
                    at: SimTime::ZERO,
                    source,
                    meta,
                }],
                Interest::PerMeta(BTreeMap::from([(meta, wanted)])),
            )
            .unwrap()
        };
        let config = SimConfig::paper_defaults(ProtocolKind::Spms, 3);
        let err = match Simulation::new(config.clone(), topo.clone(), plan([0, 999])) {
            Err(e) => e,
            Ok(_) => panic!("out-of-range interest must fail"),
        };
        assert_eq!(
            err,
            "interest in m4.0 names node n999, topology has 9 nodes"
        );
        let m = Simulation::run_with(config, topo, plan([0, 8])).unwrap();
        assert_eq!((m.deliveries, m.deliveries_expected), (2, 2));
    }

    #[test]
    fn events_stay_small() {
        // In-flight frames wait in the engine's slab, so the largest event
        // is a timer and a heap sift moves few bytes.
        assert!(std::mem::size_of::<Event>() <= 24);
    }

    #[test]
    fn contact_runs_are_identical_across_zone_maintenance_paths() {
        // Scheduled flips through the incremental patcher vs the all-pairs
        // reference rebuild: byte-identical RunMetrics, including the DBF
        // delta traffic (contact counters count plan events, not rows).
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let plan = single_source_plan(5, 3);
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, 19);
        config.routing_mode = RoutingMode::Distributed;
        config.contact_plan = Some(contact_plan(
            "5 6 0 0.2\n5 6 0.5 0.8\n9 10 0.1 0.6\n0 1 0.3 0.4\n",
        ));
        let incremental = Simulation::run_with(config.clone(), topo.clone(), plan.clone()).unwrap();
        config.incremental_zones = false;
        let reference = Simulation::run_with(config, topo, plan).unwrap();
        assert!(incremental.routing.contact_epochs > 0);
        assert_eq!(incremental, reference);
    }

    #[test]
    fn spms_iz_delivers_and_is_labelled() {
        let topo = placement::grid(3, 3, 5.0).unwrap();
        let config = SimConfig::paper_defaults(ProtocolKind::SpmsIz, 2);
        let m = Simulation::run_with(config, topo, single_source_plan(4, 1)).unwrap();
        assert_eq!(m.deliveries, 8, "single-zone field behaves like base SPMS");
        assert_eq!(m.protocol, "SPMS-IZ");
    }

    #[test]
    fn spms_iz_explicit_ttl_and_paths_are_validated() {
        let mut config = SimConfig::paper_defaults(ProtocolKind::SpmsIz, 2);
        config.interzone.paths_kept = 0;
        assert!(config.validate().is_err());
        config.interzone.paths_kept = 3;
        config.interzone.ttl = Some(7);
        assert!(config.validate().is_ok());
    }
}
