//! The SPMS protocol (§3 of the paper): Shortest Path Minded SPIN.
//!
//! SPMS keeps SPIN's metadata negotiation but moves REQ and DATA over the
//! zone's shortest (least-energy) paths at the lowest possible power
//! levels, and adds a failover mechanism:
//!
//! * **Waiting rule** — a node hearing an ADV from a node that is *not* its
//!   next-hop neighbor starts τADV, expecting a closer relay to obtain and
//!   re-advertise the data first ("every node should request the data from
//!   nodes which are close by"). When a closer ADV arrives, it requests
//!   directly; when the timer fires, it sends the REQ to its PRONE along
//!   the shortest path.
//! * **PRONE/SCONE** — per item, the destination keeps an originator stack:
//!   the closest advertiser heard (PRONE), the previous one (SCONE), and —
//!   when `scones_kept > 1` — older ones below. All stack members are zone
//!   neighbors, so a direct (higher-power) transmission is always possible.
//! * **Failover ladder** (τDAT expiries, matching §3.4/§3.5):
//!   1. after a failed *multi-hop* REQ to PRONE → REQ **directly** to PRONE
//!      at the power its distance requires (paper's failure case 1);
//!   2. after a failed *direct* REQ → pop the stack and REQ directly to the
//!      SCONE (failure case 2), and so on down the stack;
//!   3. when the stack is exhausted after `max_attempts` tries, the item is
//!      abandoned until a new ADV revives it (bounded liveness; the paper
//!      leaves this case implicit).
//! * **Re-advertisement** — every node advertises data it obtains exactly
//!   once in its zone, which is both how data crosses zones and what makes
//!   the relay caching of §6 (future work, implemented here behind
//!   `relay_caching`) useful.
//!
//! Relays forward REQ packets along their own shortest paths, recording the
//! route; DATA retraces it ("the data is sent in exactly the same manner as
//! the received request"). With `serve_from_cache`, a relay already holding
//! the data answers instead of forwarding.

use std::collections::BTreeMap;

use spms_net::NodeId;
use spms_routing::RouteEntry;

use crate::protocol::is_next_hop;
use crate::{
    Action, Addressee, DataStore, MetaId, NodeView, OutFrame, Packet, Payload, Protocol, TimerKind,
};

/// Maximum REQ record-route length; REQs exceeding it are dropped (the
/// requester's τDAT recovers). Zone diameters in practice are ≤ 10 hops.
const MAX_PATH: usize = 24;

/// Where the destination currently is in the negotiation for one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetaState {
    /// No REQ activity yet (or revived after abandonment).
    Fresh,
    /// τADV armed, hoping a closer node advertises.
    WaitingAdv,
    /// REQ sent, τDAT armed.
    WaitingData,
    /// Actively given up until a new ADV arrives.
    GivenUp,
}

/// Negotiation state of one item the node wants and does not hold. It
/// lives from the first wanted ADV (or SPMS-IZ's remote query) until the
/// node stores the item.
#[derive(Clone, Debug)]
struct SpmsEntry {
    state: MetaState,
    /// Originator stack, closest-first: `[0]` is the PRONE, `[1]` the
    /// SCONE, … All are zone neighbors (we heard their ADV directly).
    originators: Vec<NodeId>,
    /// Ladder position: which stack index the last REQ targeted.
    ladder_idx: usize,
    /// Whether the last REQ was multi-hop (next failover step is then a
    /// direct REQ to the same target).
    last_was_multihop: bool,
    attempts: u32,
    adv_gen: u32,
    dat_gen: u32,
}

impl SpmsEntry {
    fn new() -> Self {
        SpmsEntry {
            state: MetaState::Fresh,
            originators: Vec::new(),
            ladder_idx: 0,
            last_was_multihop: false,
            attempts: 0,
            adv_gen: 0,
            dat_gen: 0,
        }
    }

    /// Sends a REQ to `target` (multi-hop via the routing table when
    /// `multihop`, direct at the link's power otherwise) and arms τDAT.
    fn send_req(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        target: NodeId,
        multihop: bool,
        out: &mut Vec<Action>,
    ) -> bool {
        let payload = Payload::Req {
            origin: view.node,
            target,
            path: vec![view.node],
        };
        let frame = if multihop {
            let Some(route) = view.routing.best(target) else {
                return false;
            };
            let Some(level) = view.link_level(route.via) else {
                return false;
            };
            OutFrame {
                to: Addressee::Unicast(route.via),
                level,
                packet: Packet {
                    meta,
                    from: view.node,
                    payload,
                },
            }
        } else {
            // Direct transmission "using a higher transmission power" — the
            // cheapest level that reaches the target, which exists because
            // originators are zone neighbors.
            let Some(level) = view.link_level(target) else {
                return false;
            };
            OutFrame {
                to: Addressee::Unicast(target),
                level,
                packet: Packet {
                    meta,
                    from: view.node,
                    payload,
                },
            }
        };
        self.state = MetaState::WaitingData;
        self.last_was_multihop = multihop;
        self.attempts += 1;
        self.dat_gen += 1;
        out.push(Action::Send(frame));
        out.push(Action::SetTimer {
            meta,
            kind: TimerKind::DataWait,
            gen: self.dat_gen,
            after: view.timeouts.dat,
        });
        true
    }
}

/// Tunables lifted from [`crate::SimConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpmsParams {
    /// Originator stack depth: PRONE plus this many SCONEs.
    pub scones_kept: usize,
    /// Retry budget before abandoning until the next ADV.
    pub max_attempts: u32,
    /// Cache data at pure relays (paper §6 future work).
    pub relay_caching: bool,
    /// Relays holding the data answer REQs instead of forwarding.
    pub serve_from_cache: bool,
}

impl Default for SpmsParams {
    fn default() -> Self {
        SpmsParams {
            scones_kept: 1,
            max_attempts: 4,
            relay_caching: false,
            serve_from_cache: false,
        }
    }
}

/// SPMS protocol state for one node.
#[derive(Clone, Debug)]
pub struct SpmsNode {
    store: DataStore,
    /// Negotiation state of the items this node wants and does not hold,
    /// in `MetaId` order: an entry is created once interest in an unheld
    /// item is known and dropped when the node stores the item, so memory
    /// follows the items in flight. Timers are only armed for these items,
    /// and the failure hooks walk these entries.
    pending: BTreeMap<MetaId, SpmsEntry>,
    params: SpmsParams,
}

impl SpmsNode {
    /// Creates a node.
    #[must_use]
    pub fn new(params: SpmsParams) -> Self {
        SpmsNode {
            store: DataStore::new(),
            pending: BTreeMap::new(),
            params,
        }
    }

    /// Number of data items held.
    #[must_use]
    pub fn items_held(&self) -> usize {
        self.store.len()
    }

    /// The current PRONE for `meta`, if any (visible for tests/examples).
    ///
    /// `None` once the node stores the item: its negotiation is over and
    /// its originator stack is gone.
    #[must_use]
    pub fn prone(&self, meta: MetaId) -> Option<NodeId> {
        self.pending.get(&meta)?.originators.first().copied()
    }

    /// The current SCONE for `meta`, if any.
    ///
    /// `None` once the node stores the item, as for [`SpmsNode::prone`].
    #[must_use]
    pub fn scone(&self, meta: MetaId) -> Option<NodeId> {
        self.pending.get(&meta)?.originators.get(1).copied()
    }

    /// Items this node wants but does not hold, in `MetaId` order.
    pub(crate) fn unresolved(&self) -> impl Iterator<Item = MetaId> + '_ {
        self.pending.keys().copied()
    }

    /// The entry of an item this node wants but does not hold, created on
    /// first use.
    fn wanted_entry(&mut self, meta: MetaId) -> &mut SpmsEntry {
        debug_assert!(!self.store.contains(meta), "{meta} is already held");
        self.pending.entry(meta).or_insert_with(SpmsEntry::new)
    }

    /// Stacks advertiser `from`, not on the originator stack yet, whose
    /// best route is `from_route`; returns `true` if `from` became the new
    /// PRONE.
    ///
    /// §3.4: "If the destination node receives an ADV packet from a closer
    /// node, then it sets the PRONE to be the closer node and the SCONE to
    /// be the PRONE from the earlier stage." Keeping the stack sorted by
    /// route cost generalizes that rule to deeper stacks.
    fn stack_originator(
        entry: &mut SpmsEntry,
        view: &NodeView<'_>,
        from: NodeId,
        from_route: Option<RouteEntry>,
        cap: usize,
    ) -> bool {
        let cost = |n: NodeId| view.route_cost(n).unwrap_or(f64::INFINITY);
        let c_new = from_route.map_or(f64::INFINITY, |r| r.cost);
        let pos = entry
            .originators
            .iter()
            .position(|&o| c_new < cost(o))
            .unwrap_or(entry.originators.len());
        entry.originators.insert(pos, from);
        entry.originators.truncate(cap + 1);
        pos == 0
    }

    /// Marks this node interested in `meta` without requiring an ADV — the
    /// inter-zone extension registers interest when the query arrives via a
    /// bordercast relay that does not itself hold the data.
    pub(crate) fn mark_interested(&mut self, meta: MetaId) {
        self.wanted_entry(meta);
    }

    /// Serves `meta` back along the recorded REQ path.
    pub(crate) fn serve_path(
        &self,
        view: &NodeView<'_>,
        meta: MetaId,
        path: &[NodeId],
        out: &mut Vec<Action>,
    ) {
        let (Some(&origin), Some((&next, before))) = (path.first(), path.split_last()) else {
            return;
        };
        // The hops after `next`, back to the origin.
        let route: Vec<NodeId> = before.iter().rev().copied().collect();
        if let Some(frame) = view.unicast(
            next,
            meta,
            Payload::Data {
                dest: origin,
                route,
            },
        ) {
            out.push(Action::Send(frame));
        }
        // If `next` is no longer a zone neighbor (it moved), the frame is
        // unbuildable and the requester's τDAT recovers.
    }

    /// Consumes a data item at this node. `interested` is the engine's
    /// interest flag for this node — authoritative even when no ADV was
    /// heard first (e.g. data cached out of a passing inter-zone transfer).
    fn accept_data(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        interested: bool,
        out: &mut Vec<Action>,
    ) {
        if !self.store.insert(meta) {
            out.push(Action::Duplicate { meta });
            return;
        }
        // Holding the item ends its negotiation (timers for held items are
        // ignored); an item pending here was wanted whatever `interested`
        // says.
        if self.pending.remove(&meta).is_some() || interested {
            out.push(Action::Delivered { meta });
        }
        // "The SPMS protocol requires a node to advertise its own data as
        // well as all received data once amongst its neighbors": an item
        // is stored once, so it is advertised once.
        out.push(Action::Send(view.adv_frame(meta)));
    }

    /// Handles an ADV for an item this node wants but lacks.
    fn handle_wanted_adv(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        from: NodeId,
        out: &mut Vec<Action>,
    ) {
        let cap = self.params.scones_kept;
        let entry = self.wanted_entry(meta);
        // One lookup of the advertiser's route serves both the stack's cost
        // ranking and the next-hop test below. Neither needs it for an
        // advertiser already stacked while a REQ is outstanding.
        let stacked = entry.originators.contains(&from);
        let from_route = (!stacked || entry.state != MetaState::WaitingData)
            .then(|| view.routing.best(from))
            .flatten();
        let new_prone = if stacked {
            entry.originators.first() == Some(&from)
        } else {
            Self::stack_originator(entry, view, from, from_route, cap)
        };
        let next_hop = is_next_hop(from_route, from);
        match entry.state {
            MetaState::Fresh | MetaState::GivenUp => {
                entry.attempts = 0;
                entry.ladder_idx = 0;
                if next_hop {
                    // Adjacent advertiser: request immediately (§3.3 case I,
                    // node B; and node C once B re-advertises).
                    entry.send_req(view, meta, from, false, out);
                } else {
                    // Non-adjacent: wait for a closer relay's ADV.
                    entry.state = MetaState::WaitingAdv;
                    entry.adv_gen += 1;
                    out.push(Action::SetTimer {
                        meta,
                        kind: TimerKind::AdvWait,
                        gen: entry.adv_gen,
                        after: view.timeouts.adv,
                    });
                }
            }
            MetaState::WaitingAdv => {
                if next_hop {
                    // The closer ADV arrived: cancel τADV, request directly
                    // (§3.3 case I, node C).
                    entry.adv_gen += 1;
                    entry.ladder_idx = 0;
                    entry.send_req(view, meta, from, false, out);
                } else if new_prone {
                    // Closer but still not adjacent: restart τADV (§3.5:
                    // "C on receiving the ADV packet from r1 resets its
                    // timer τADV and sets its PRONE to r1").
                    entry.adv_gen += 1;
                    out.push(Action::SetTimer {
                        meta,
                        kind: TimerKind::AdvWait,
                        gen: entry.adv_gen,
                        after: view.timeouts.adv,
                    });
                }
            }
            MetaState::WaitingData => {
                // REQ outstanding; the stack update above already recorded
                // the new originator for failover.
            }
        }
    }
}

impl Protocol for SpmsNode {
    fn on_generate(&mut self, view: &NodeView<'_>, meta: MetaId, out: &mut Vec<Action>) {
        // An item is stored once, so it is advertised once.
        if self.store.insert(meta) {
            self.pending.remove(&meta);
            out.push(Action::Send(view.adv_frame(meta)));
        }
    }

    fn on_packet(
        &mut self,
        view: &NodeView<'_>,
        packet: &Packet,
        interested: bool,
        out: &mut Vec<Action>,
    ) {
        let meta = packet.meta;
        match &packet.payload {
            Payload::Adv => {
                if self.store.contains(meta) || !interested {
                    return;
                }
                self.handle_wanted_adv(view, meta, packet.from, out);
            }
            Payload::Req {
                origin,
                target,
                path,
            } => {
                if *target == view.node {
                    if self.store.contains(meta) {
                        self.serve_path(view, meta, path, out);
                    }
                    // A target without the data stays silent; the
                    // requester's τDAT escalates to its SCONE.
                    return;
                }
                // Relay duty. §3.1 resource adaptation: a low-battery
                // node declines third-party forwarding; the requester's
                // τDAT ladder routes around it (direct REQ at higher
                // power).
                if view.declines_forwarding() {
                    return;
                }
                if self.params.serve_from_cache && self.store.contains(meta) {
                    // Serve as if we were the target; the route back starts
                    // at the previous hop.
                    self.serve_path(view, meta, path, out);
                    return;
                }
                if path.len() >= MAX_PATH {
                    return; // drop: pathological route
                }
                let Some(route) = view.routing.best(*target) else {
                    return; // no route (topology changed): drop
                };
                // Avoid bouncing straight back to the previous hop when an
                // alternative exists.
                let via = if Some(&route.via) == path.last() {
                    match view.routing.best_avoiding(*target, route.via) {
                        Some(alt) => alt.via,
                        None => route.via,
                    }
                } else {
                    route.via
                };
                let mut new_path = Vec::with_capacity(path.len() + 1);
                new_path.extend_from_slice(path);
                new_path.push(view.node);
                if let Some(frame) = view.unicast(
                    via,
                    meta,
                    Payload::Req {
                        origin: *origin,
                        target: *target,
                        path: new_path,
                    },
                ) {
                    out.push(Action::Send(frame));
                }
            }
            Payload::Data { dest, route } => {
                if route.is_empty() || *dest == view.node {
                    self.accept_data(view, meta, interested, out);
                    return;
                }
                // Relay: forward along the recorded route.
                let next = route[0];
                let rest = route[1..].to_vec();
                if let Some(frame) = view.unicast(
                    next,
                    meta,
                    Payload::Data {
                        dest: *dest,
                        route: rest,
                    },
                ) {
                    out.push(Action::Send(frame));
                }
                if self.params.relay_caching && !self.store.contains(meta) {
                    // §6 future work: cache at routing relays and advertise,
                    // improving fault tolerance. An interested relay counts
                    // as delivered — the data reached it, however it came.
                    self.accept_data(view, meta, interested, out);
                }
            }
            // Inter-zone packets are handled by the SPMS-IZ wrapper
            // ([`crate::interzone::SpmsIzNode`]); the base protocol ignores
            // them.
            Payload::IzAdv { .. } | Payload::IzReq { .. } => {}
        }
    }

    fn on_timer(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        kind: TimerKind,
        gen: u32,
        out: &mut Vec<Action>,
    ) {
        // A held item has no entry: its negotiation is over.
        let Some(entry) = self.pending.get_mut(&meta) else {
            return;
        };
        match kind {
            TimerKind::AdvWait => {
                if entry.adv_gen != gen || entry.state != MetaState::WaitingAdv {
                    return;
                }
                // §3.2: on τADV expiry the destination requests from the
                // PRONE through the shortest route.
                let Some(&target) = entry.originators.first() else {
                    entry.state = MetaState::Fresh;
                    return;
                };
                entry.ladder_idx = 0;
                if !entry.send_req(view, meta, target, true, out) {
                    // No route at all: give up until the next ADV.
                    entry.state = MetaState::GivenUp;
                    out.push(Action::Abandoned { meta });
                }
            }
            TimerKind::DataWait => {
                if entry.dat_gen != gen || entry.state != MetaState::WaitingData {
                    return;
                }
                if entry.attempts >= self.params.max_attempts {
                    entry.state = MetaState::GivenUp;
                    out.push(Action::Abandoned { meta });
                    return;
                }
                // Failover ladder.
                let (target, multihop) = if entry.last_was_multihop {
                    // Case 1: the multi-hop path failed; go direct to the
                    // same PRONE at higher power.
                    match entry.originators.get(entry.ladder_idx) {
                        Some(&t) => (t, false),
                        None => {
                            entry.state = MetaState::GivenUp;
                            out.push(Action::Abandoned { meta });
                            return;
                        }
                    }
                } else {
                    // Case 2: a direct REQ failed; fail over to the next
                    // originator down the stack (SCONE, then older ones).
                    entry.ladder_idx += 1;
                    match entry.originators.get(entry.ladder_idx) {
                        Some(&t) => (t, false),
                        None => {
                            entry.state = MetaState::GivenUp;
                            out.push(Action::Abandoned { meta });
                            return;
                        }
                    }
                };
                if !entry.send_req(view, meta, target, multihop, out) {
                    entry.state = MetaState::GivenUp;
                    out.push(Action::Abandoned { meta });
                }
            }
        }
    }

    fn on_failed(&mut self) {
        // Transient failure: cached data survives; every timer and
        // outstanding exchange is invalidated. Timers exist only for
        // pending items.
        for entry in self.pending.values_mut() {
            entry.adv_gen += 1;
            entry.dat_gen += 1;
            if matches!(entry.state, MetaState::WaitingAdv | MetaState::WaitingData) {
                entry.state = MetaState::Fresh;
            }
        }
    }

    fn on_repaired(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        // Resume items with a known originator by re-entering the ladder,
        // in `MetaId` order.
        for (&meta, entry) in &mut self.pending {
            let (MetaState::Fresh, Some(&target)) = (entry.state, entry.originators.first()) else {
                continue;
            };
            entry.attempts = 0;
            entry.ladder_idx = 0;
            let multihop = !view.is_next_hop_neighbor(target);
            entry.send_req(view, meta, target, multihop, out);
        }
    }

    // `on_routes_rebuilt` keeps the default: pending exchanges keep their
    // timers, and expiries re-route with the new tables.

    fn has_data(&self, meta: MetaId) -> bool {
        self.store.contains(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        armed_timers, assert_appends_only, assert_delivered_items_held,
        assert_plain_advs_change_nothing, collect, sink_prefix,
    };
    use crate::{PacketKind, Timeouts};
    use proptest::prelude::*;
    use spms_kernel::SimTime;
    use spms_net::{placement, ZoneTable};
    use spms_phy::RadioProfile;
    use spms_routing::{oracle_tables, RoutingTable};
    use std::collections::BTreeSet;

    /// 5-node line, 5 m spacing, 20 m zones: everyone is in everyone's
    /// zone; shortest paths go hop by hop.
    fn fixture() -> (ZoneTable, Vec<RoutingTable>) {
        let topo = placement::grid(5, 1, 5.0).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
        let tables = oracle_tables(&zones, 2);
        (zones, tables)
    }

    fn view<'a>(zones: &'a ZoneTable, routing: &'a RoutingTable, node: u32) -> NodeView<'a> {
        NodeView {
            node: NodeId::new(node),
            now: SimTime::ZERO,
            zones,
            routing,
            timeouts: Timeouts {
                adv: SimTime::from_millis(1),
                dat: SimTime::from_millis_f64(2.5),
            },
            battery_frac: 1.0,
            low_battery_threshold: 0.0,
        }
    }

    fn meta() -> MetaId {
        MetaId::new(NodeId::new(0), 0)
    }

    fn adv_from(from: u32) -> Packet {
        Packet {
            meta: meta(),
            from: NodeId::new(from),
            payload: Payload::Adv,
        }
    }

    fn sends(actions: &[Action]) -> Vec<&OutFrame> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn adjacent_adv_requests_immediately_at_min_power() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[1], 1);
        let actions = collect(|out| n.on_packet(&v, &adv_from(0), true, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].packet.kind(), PacketKind::Req);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(0)));
        // 5 m neighbor: minimum power level.
        assert_eq!(s[0].level.index(), 4);
        assert_eq!(n.prone(meta()), Some(NodeId::new(0)));
    }

    #[test]
    fn distant_adv_waits_for_closer_advertiser() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        // Node 3 hears the source (node 0) 15 m away: not adjacent.
        let v = view(&zones, &tables[3], 3);
        let actions = collect(|out| n.on_packet(&v, &adv_from(0), true, out));
        assert!(sends(&actions).is_empty(), "must not request yet");
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::AdvWait,
                ..
            }
        )));
        assert_eq!(n.prone(meta()), Some(NodeId::new(0)));
    }

    #[test]
    fn closer_adv_updates_prone_and_scone() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[3], 3);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new()); // 15 m away
        let actions = collect(|out| n.on_packet(&v, &adv_from(1), true, out)); // 10 m: closer, not adjacent
        assert_eq!(n.prone(meta()), Some(NodeId::new(1)));
        assert_eq!(n.scone(meta()), Some(NodeId::new(0)));
        // τADV restarted.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::AdvWait,
                gen: 2,
                ..
            }
        )));
        // Adjacent ADV triggers the REQ and cancels the wait.
        let actions = collect(|out| n.on_packet(&v, &adv_from(2), true, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(2)));
        assert_eq!(n.prone(meta()), Some(NodeId::new(2)));
    }

    #[test]
    fn advwait_expiry_requests_prone_via_shortest_path() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[3], 3);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new());
        let actions = collect(|out| n.on_timer(&v, meta(), TimerKind::AdvWait, 1, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        // REQ to PRONE (node 0) goes to the next hop (node 2), destined 0.
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(2)));
        match &s[0].packet.payload {
            Payload::Req {
                origin,
                target,
                path,
            } => {
                assert_eq!(*origin, NodeId::new(3));
                assert_eq!(*target, NodeId::new(0));
                assert_eq!(path.as_slice(), &[NodeId::new(3)]);
            }
            other => panic!("expected REQ, got {other:?}"),
        }
    }

    #[test]
    fn relay_forwards_req_and_target_serves_reverse_path() {
        let (zones, tables) = fixture();
        let m = meta();
        // Relay node 2 forwards node 3's REQ toward node 0.
        let mut relay = SpmsNode::new(SpmsParams::default());
        let v2 = view(&zones, &tables[2], 2);
        let req = Packet {
            meta: m,
            from: NodeId::new(3),
            payload: Payload::Req {
                origin: NodeId::new(3),
                target: NodeId::new(0),
                path: vec![NodeId::new(3)],
            },
        };
        let actions = collect(|out| relay.on_packet(&v2, &req, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(1)));
        let fwd_path = match &s[0].packet.payload {
            Payload::Req { path, .. } => path.clone(),
            other => panic!("expected REQ, got {other:?}"),
        };
        assert_eq!(fwd_path, vec![NodeId::new(3), NodeId::new(2)]);

        // The source serves along the reverse of the recorded path.
        let mut src = SpmsNode::new(SpmsParams::default());
        let v0 = view(&zones, &tables[0], 0);
        src.on_generate(&v0, m, &mut Vec::new());
        let req_at_src = Packet {
            meta: m,
            from: NodeId::new(1),
            payload: Payload::Req {
                origin: NodeId::new(3),
                target: NodeId::new(0),
                path: vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)],
            },
        };
        let actions = collect(|out| src.on_packet(&v0, &req_at_src, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].packet.kind(), PacketKind::Data);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(1)));
        match &s[0].packet.payload {
            Payload::Data { dest, route } => {
                assert_eq!(*dest, NodeId::new(3));
                assert_eq!(route.as_slice(), &[NodeId::new(2), NodeId::new(3)]);
            }
            other => panic!("expected DATA, got {other:?}"),
        }
    }

    #[test]
    fn data_relay_forwards_and_final_hop_delivers() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut relay = SpmsNode::new(SpmsParams::default());
        let v2 = view(&zones, &tables[2], 2);
        let data = Packet {
            meta: m,
            from: NodeId::new(1),
            payload: Payload::Data {
                dest: NodeId::new(3),
                route: vec![NodeId::new(3)],
            },
        };
        // Wait: route[0] is the next hop from the perspective of the
        // *transmitter*. Node 2 receives with route = [3]: forwards to 3.
        let actions = collect(|out| relay.on_packet(&v2, &data, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(3)));
        assert!(!relay.has_data(m), "plain relays do not cache");

        // Final consumer.
        let mut dest = SpmsNode::new(SpmsParams::default());
        let v3 = view(&zones, &tables[3], 3);
        dest.on_packet(&v3, &adv_from(0), true, &mut Vec::new()); // register interest
        let final_data = Packet {
            meta: m,
            from: NodeId::new(2),
            payload: Payload::Data {
                dest: NodeId::new(3),
                route: vec![],
            },
        };
        let actions = collect(|out| dest.on_packet(&v3, &final_data, true, out));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Delivered { .. })));
        // Re-advertisement duty.
        assert!(actions.iter().any(|a| matches!(a, Action::Send(f)
            if f.packet.kind() == PacketKind::Adv)));
        assert!(dest.has_data(m));
    }

    #[test]
    fn relay_caching_stores_and_advertises() {
        let (zones, tables) = fixture();
        let mut relay = SpmsNode::new(SpmsParams {
            relay_caching: true,
            ..SpmsParams::default()
        });
        let v2 = view(&zones, &tables[2], 2);
        let data = Packet {
            meta: meta(),
            from: NodeId::new(1),
            payload: Payload::Data {
                dest: NodeId::new(3),
                route: vec![NodeId::new(3)],
            },
        };
        let actions = collect(|out| relay.on_packet(&v2, &data, false, out));
        assert!(relay.has_data(meta()));
        let kinds: Vec<PacketKind> = sends(&actions).iter().map(|f| f.packet.kind()).collect();
        assert!(kinds.contains(&PacketKind::Data));
        assert!(kinds.contains(&PacketKind::Adv));
    }

    #[test]
    fn failure_case1_multihop_timeout_goes_direct_to_prone() {
        // §3.5 case 1: r2 (the relay) failed before advertising; C's τADV
        // expired, its multi-hop REQ through r2 died, τDAT expires → direct
        // REQ to PRONE at higher power.
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[3], 3);
        n.on_packet(&v, &adv_from(1), true, &mut Vec::new()); // PRONE = 1 (10 m, not adjacent)
        n.on_timer(&v, meta(), TimerKind::AdvWait, 1, &mut Vec::new()); // multi-hop REQ sent
        let actions = collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, 1, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(1)));
        // Direct to a 10 m target: level index 3 — higher power than the
        // min-level hops the multi-hop path used.
        assert_eq!(s[0].level.index(), 3);
    }

    #[test]
    fn failure_case2_direct_timeout_fails_over_to_scone() {
        // §3.5 case 2: r2 advertised then failed; C's direct REQ to r2 times
        // out → REQ directly to the SCONE.
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[3], 3);
        n.on_packet(&v, &adv_from(1), true, &mut Vec::new()); // originators: [1]
        n.on_packet(&v, &adv_from(2), true, &mut Vec::new()); // adjacent → direct REQ to 2; stack [2, 1]
        assert_eq!(n.prone(meta()), Some(NodeId::new(2)));
        assert_eq!(n.scone(meta()), Some(NodeId::new(1)));
        let actions = collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, 1, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(1)), "SCONE next");
        assert!(matches!(s[0].packet.payload, Payload::Req { .. }));
    }

    #[test]
    fn ladder_abandons_after_max_attempts_and_revives_on_adv() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams {
            max_attempts: 2,
            ..SpmsParams::default()
        });
        let v = view(&zones, &tables[1], 1);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new()); // direct REQ (attempt 1)
        let a2 = collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, 1, out)); // attempt 2? stack exhausted
                                                                                     // Stack is [0] only; direct REQ failed; no SCONE → abandoned.
        assert!(a2.iter().any(|a| matches!(a, Action::Abandoned { .. })));
        // A new ADV revives the item.
        let a3 = collect(|out| n.on_packet(&v, &adv_from(2), true, out));
        assert!(!sends(&a3).is_empty());
    }

    #[test]
    fn serve_from_cache_short_circuits_relay() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut relay = SpmsNode::new(SpmsParams {
            serve_from_cache: true,
            ..SpmsParams::default()
        });
        let v2 = view(&zones, &tables[2], 2);
        relay.on_generate(&v2, MetaId::new(NodeId::new(2), 0), &mut Vec::new()); // unrelated
                                                                                 // Give the relay the data via relay-path consumption.
        let own = Packet {
            meta: m,
            from: NodeId::new(1),
            payload: Payload::Data {
                dest: NodeId::new(2),
                route: vec![],
            },
        };
        relay.on_packet(&v2, &own, false, &mut Vec::new());
        assert!(relay.has_data(m));
        let req = Packet {
            meta: m,
            from: NodeId::new(3),
            payload: Payload::Req {
                origin: NodeId::new(3),
                target: NodeId::new(0),
                path: vec![NodeId::new(3)],
            },
        };
        let actions = collect(|out| relay.on_packet(&v2, &req, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].packet.kind(), PacketKind::Data);
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(3)));
    }

    #[test]
    fn failed_node_forgets_inflight_but_keeps_data() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[1], 1);
        n.on_generate(&v, m, &mut Vec::new());
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new());
        n.on_failed();
        assert!(n.has_data(m), "transient failures keep the store");
        // Old timer generations are stale after failure.
        assert!(collect(|out| n.on_timer(&v, m, TimerKind::DataWait, 1, out)).is_empty());
    }

    #[test]
    fn repair_rerequests_pending_items() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[3], 3);
        n.on_packet(&v, &adv_from(1), true, &mut Vec::new()); // waiting, PRONE=1
        n.on_failed();
        let actions = collect(|out| n.on_repaired(&v, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].packet.payload, Payload::Req { .. }));
    }

    #[test]
    fn uninterested_nodes_ignore_advs() {
        let (zones, tables) = fixture();
        let mut n = SpmsNode::new(SpmsParams::default());
        let v = view(&zones, &tables[1], 1);
        assert!(collect(|out| n.on_packet(&v, &adv_from(0), false, out)).is_empty());
        assert_eq!(n.prone(meta()), None);
    }

    #[test]
    fn plain_advs_change_nothing_where_the_engine_skips_them() {
        let (zones, tables) = fixture();
        let advertisers = [0, 2, 3, 4].map(NodeId::new);
        for relay_caching in [false, true] {
            let mut n = SpmsNode::new(SpmsParams {
                relay_caching,
                ..SpmsParams::default()
            });
            let v = view(&zones, &tables[1], 1);
            assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, false);
            n.on_packet(&v, &adv_from(0), true, &mut Vec::new());
            let got = assert_delivered_items_held(&mut n, |n, out| {
                n.on_packet(&v, &data_for(meta(), 0, 1), true, out);
            });
            assert!(got.contains(&Action::Delivered { meta: meta() }));
            for interested in [true, false] {
                assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, interested);
            }
        }
        // A caching relay that wanted the item reports it delivered as it
        // forwards it, and holds it from then on.
        let mut relay = SpmsNode::new(SpmsParams {
            relay_caching: true,
            ..SpmsParams::default()
        });
        let v = view(&zones, &tables[2], 2);
        let through = Packet {
            meta: meta(),
            from: NodeId::new(1),
            payload: Payload::Data {
                dest: NodeId::new(4),
                route: vec![NodeId::new(3), NodeId::new(4)],
            },
        };
        let got = assert_delivered_items_held(&mut relay, |n, out| {
            n.on_packet(&v, &through, true, out);
        });
        assert!(got.contains(&Action::Delivered { meta: meta() }));
        assert_plain_advs_change_nothing(&mut relay, &v, meta(), &advertisers, true);
    }

    #[test]
    fn low_battery_node_refuses_relay_duty_but_serves_as_target() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut n = SpmsNode::new(SpmsParams::default());
        let mut low = view(&zones, &tables[2], 2);
        low.battery_frac = 0.1;
        low.low_battery_threshold = 0.2;
        assert!(low.declines_forwarding());
        // Third-party REQ relay: refused (§3.1).
        let relay_req = Packet {
            meta: m,
            from: NodeId::new(3),
            payload: Payload::Req {
                origin: NodeId::new(3),
                target: NodeId::new(0),
                path: vec![NodeId::new(3)],
            },
        };
        assert!(sends(&collect(|out| n.on_packet(&low, &relay_req, false, out))).is_empty());
        // A REQ addressed to this node is first-party duty: served.
        n.on_generate(&low, m, &mut Vec::new());
        let own_req = Packet {
            meta: m,
            from: NodeId::new(3),
            payload: Payload::Req {
                origin: NodeId::new(3),
                target: NodeId::new(2),
                path: vec![NodeId::new(3)],
            },
        };
        let s_own = collect(|out| n.on_packet(&low, &own_req, false, out));
        assert!(sends(&s_own)
            .iter()
            .any(|f| f.packet.kind() == PacketKind::Data));
    }

    fn data_for(meta: MetaId, from: u32, dest: u32) -> Packet {
        Packet {
            meta,
            from: NodeId::new(from),
            payload: Payload::Data {
                dest: NodeId::new(dest),
                route: vec![],
            },
        }
    }

    fn adv_for(meta: MetaId, from: u32) -> Packet {
        Packet {
            meta,
            from: NodeId::new(from),
            payload: Payload::Adv,
        }
    }

    fn req_metas(actions: &[Action]) -> Vec<MetaId> {
        sends(actions)
            .iter()
            .filter(|f| matches!(f.packet.payload, Payload::Req { .. }))
            .map(|f| f.packet.meta)
            .collect()
    }

    const ITEMS: u32 = 30;

    /// Driver item `i`; spreading items over sources makes `MetaId` order
    /// differ from `i` order.
    fn item(i: u32) -> MetaId {
        MetaId::new(NodeId::new(i % 5), i / 5)
    }

    /// The fixed interest pattern of the driver (the engine's interest is a
    /// function of node and item).
    fn wants(i: u32) -> bool {
        i % 4 != 3
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            rng_seed: 0x5EED_0F41_1ED0_0001,
            ..ProptestConfig::default()
        })]
        /// Random ADV/DATA/timer/fail/repair steps at node 3 of the line:
        /// after each, the pending entries are exactly "interest heard and
        /// not held", repair REQs leave in `MetaId` order, and no timer
        /// armed before the last failure fires.
        #[test]
        fn failure_hooks_walk_exactly_the_unresolved_items(
            steps in prop::collection::vec((0u8..6, 0u32..ITEMS, 0u32..64), 1..80)
        ) {
            let (zones, tables) = fixture();
            let v = view(&zones, &tables[3], 3);
            let advertisers = [0u32, 1, 2, 4];
            let mut n = SpmsNode::new(SpmsParams::default());
            let (mut wanted, mut held) = (BTreeSet::new(), BTreeSet::new());
            let mut armed = Vec::<(MetaId, TimerKind, u32)>::new();
            let (mut ever, mut stale) = (Vec::new(), Vec::new());
            let mut up = true;
            for (kind, i, aux) in steps {
                let meta = item(i);
                let actions = match (kind, up) {
                    (0 | 1, true) => {
                        if wants(i) {
                            wanted.insert(meta);
                        }
                        let from = advertisers[aux as usize % advertisers.len()];
                        collect(|out| n.on_packet(&v, &adv_for(meta, from), wants(i), out))
                    }
                    (2, true) => {
                        held.insert(meta);
                        collect(|out| n.on_packet(&v, &data_for(meta, 2, 3), wants(i), out))
                    }
                    (3, true) if !armed.is_empty() => {
                        let (m, k, g) = armed.remove(aux as usize % armed.len());
                        collect(|out| n.on_timer(&v, m, k, g, out))
                    }
                    (4, true) => {
                        n.on_failed();
                        stale.clone_from(&ever);
                        up = false;
                        Vec::new()
                    }
                    (5, false) => {
                        let actions = collect(|out| n.on_repaired(&v, out));
                        let reqs = req_metas(&actions);
                        prop_assert!(
                            reqs.windows(2).all(|w| w[0] < w[1]),
                            "repair REQs out of MetaId order: {reqs:?}"
                        );
                        up = true;
                        actions
                    }
                    // A down node hears nothing; a flip to its current
                    // state is a no-op in the engine.
                    _ => continue,
                };
                armed.extend(armed_timers(&actions));
                ever.extend(armed_timers(&actions));
                let model: BTreeSet<MetaId> = wanted.difference(&held).copied().collect();
                prop_assert_eq!(n.unresolved().collect::<BTreeSet<_>>(), model);
                let mut probe = n.clone();
                for &(m, k, g) in &stale {
                    let fired = collect(|out| probe.on_timer(&v, m, k, g, out));
                    prop_assert!(
                        fired.is_empty(),
                        "pre-failure timer {m} {k:?} gen {g} fired: {fired:?}"
                    );
                }
            }
        }
    }

    /// A node that negotiated and stored items keeps no entry for them,
    /// and every timer it armed before the DATA, τADV and τDAT alike, fires
    /// silently after it. Even items wait on τADV for node 0's ADV (15 m
    /// away) when the DATA arrives, odd ones on τDAT after node 2's. A
    /// caching relay drops its entry when it caches the item it forwards.
    #[test]
    fn stored_items_keep_no_negotiation_state() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[3], 3);
        let mut n = SpmsNode::new(SpmsParams::default());
        let mut armed = Vec::new();
        for seq in 0..40 {
            let m = MetaId::new(NodeId::new(0), seq);
            armed.extend(collect(|out| n.on_packet(&v, &adv_for(m, 0), true, out)));
            if seq % 2 == 1 {
                armed.extend(collect(|out| n.on_packet(&v, &adv_for(m, 2), true, out)));
            }
            let got = collect(|out| n.on_packet(&v, &data_for(m, 2, 3), true, out));
            assert!(got.contains(&Action::Delivered { meta: m }));
        }
        assert_eq!(n.items_held(), 40);
        assert!(n.pending.is_empty(), "{} entries left", n.pending.len());
        let armed: Vec<_> = armed_timers(&armed).collect();
        let count = |kind| armed.iter().filter(|t| t.1 == kind).count();
        assert_eq!(
            (count(TimerKind::AdvWait), count(TimerKind::DataWait)),
            (40, 20)
        );
        for (m, k, g) in armed {
            let fired = collect(|out| n.on_timer(&v, m, k, g, out));
            assert!(fired.is_empty(), "{m} {k:?} gen {g} fired: {fired:?}");
        }

        let mut relay = SpmsNode::new(SpmsParams {
            relay_caching: true,
            ..SpmsParams::default()
        });
        let v = view(&zones, &tables[2], 2);
        relay.on_packet(&v, &adv_from(0), true, &mut Vec::new());
        assert_eq!(relay.unresolved().collect::<Vec<_>>(), [meta()]);
        let through = Packet {
            meta: meta(),
            from: NodeId::new(1),
            payload: Payload::Data {
                dest: NodeId::new(4),
                route: vec![NodeId::new(3), NodeId::new(4)],
            },
        };
        relay.on_packet(&v, &through, true, &mut Vec::new());
        assert!(relay.has_data(meta()));
        assert!(relay.pending.is_empty());
    }

    #[test]
    fn prone_and_scone_end_with_the_negotiation() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[3], 3);
        let mut n = SpmsNode::new(SpmsParams::default());
        n.on_packet(&v, &adv_from(1), true, &mut Vec::new());
        n.on_packet(&v, &adv_from(2), true, &mut Vec::new());
        assert_eq!(
            (n.prone(meta()), n.scone(meta())),
            (Some(NodeId::new(2)), Some(NodeId::new(1)))
        );
        n.on_packet(&v, &data_for(meta(), 2, 3), true, &mut Vec::new());
        assert!(n.has_data(meta()));
        assert_eq!((n.prone(meta()), n.scone(meta())), (None, None));
    }

    #[test]
    fn repair_rerequests_only_waiting_items_in_meta_order() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[3], 3);
        let mut n = SpmsNode::new(SpmsParams::default());
        for seq in 0..50 {
            let m = MetaId::new(NodeId::new(seq % 2 * 4), seq);
            n.on_packet(&v, &adv_for(m, 2), true, &mut Vec::new());
            let got = collect(|out| n.on_packet(&v, &data_for(m, 2, 3), true, out));
            assert!(got.iter().any(|a| matches!(a, Action::Delivered { .. })));
        }
        // Pending items interleave with the held ones in `MetaId` order,
        // and the WaitingAdv item is both created first and ordered last.
        let waiting_adv = MetaId::new(NodeId::new(4), 70);
        let waiting_data = MetaId::new(NodeId::new(1), 0);
        let given_up = MetaId::new(NodeId::new(0), 99);
        n.on_packet(&v, &adv_for(waiting_adv, 0), true, &mut Vec::new()); // 15 m: τADV
        n.on_packet(&v, &adv_for(waiting_data, 2), true, &mut Vec::new()); // adjacent: REQ
        n.on_packet(&v, &adv_for(given_up, 2), true, &mut Vec::new());
        let abandoned = collect(|out| n.on_timer(&v, given_up, TimerKind::DataWait, 1, out));
        assert!(abandoned
            .iter()
            .any(|a| matches!(a, Action::Abandoned { .. })));
        assert_eq!(n.items_held(), 50);

        n.on_failed();
        let actions = collect(|out| n.on_repaired(&v, out));
        assert_eq!(req_metas(&actions), [waiting_data, waiting_adv]);
        let targets: Vec<NodeId> = sends(&actions)
            .iter()
            .filter_map(|f| match f.packet.payload {
                Payload::Req { target, .. } => Some(target),
                _ => None,
            })
            .collect();
        assert_eq!(targets, [NodeId::new(2), NodeId::new(0)]);
    }

    #[test]
    fn hooks_only_append_to_the_sink() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[3], 3);
        let prefix = sink_prefix(&v);
        let mut n = SpmsNode::new(SpmsParams {
            serve_from_cache: true,
            ..SpmsParams::default()
        });
        let (m, own, other) = (meta(), MetaId::new(NodeId::new(3), 0), item(1));
        let req = |meta, target| Packet {
            meta,
            from: NodeId::new(4),
            payload: Payload::Req {
                origin: NodeId::new(4),
                target: NodeId::new(target),
                path: vec![NodeId::new(4)],
            },
        };
        let mut appended = vec![
            assert_appends_only(&mut n, &prefix, |n, out| n.on_generate(&v, own, out)),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &adv_from(0), true, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &adv_from(2), true, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_timer(&v, m, TimerKind::DataWait, 1, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &req(own, 3), false, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &req(other, 0), false, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &adv_for(other, 2), true, out);
            }),
        ];
        n.on_failed();
        appended.extend([
            assert_appends_only(&mut n, &prefix, |n, out| n.on_repaired(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_routes_rebuilt(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &data_for(m, 2, 3), true, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &req(m, 0), false, out);
            }),
        ]);
        let busy = appended.iter().filter(|a| !a.is_empty()).count();
        assert_eq!(busy, appended.len() - 1, "every hook but the reroute acts");
    }
}
