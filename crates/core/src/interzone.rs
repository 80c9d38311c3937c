//! SPMS-IZ: the paper's §6 inter-zone dissemination extension.
//!
//! Base SPMS only crosses zone boundaries when an *interested* node in the
//! overlap obtains the data and re-advertises it. §6 proposes the missing
//! case — "disseminate data when the source and the destination are in
//! separate zones with no interested nodes in the intermediate zones" —
//! using the zone routing of Haas & Pearlman (the paper's reference \[4\]).
//! SPMS-IZ implements that proposal on top of the unchanged base protocol:
//!
//! * **Bordercast query.** The source's advertisement becomes an
//!   [`Payload::IzAdv`] carrying a TTL and a border-relay record route.
//!   Nodes that extend the previous transmitter's coverage (see
//!   [`spms_interzone::is_border_relay`]) re-broadcast the query once per
//!   item, TTL permitting — whether or not they are interested. Interior
//!   nodes never relay, which keeps the query far cheaper than flooding.
//! * **Intra-zone fast path.** A query heard *directly from the source* is
//!   treated exactly like a plain ADV, so nodes in the source's own zone
//!   run the unmodified SPMS negotiation (waiting rule, PRONE/SCONE,
//!   shortest-path REQ).
//! * **Inter-zone request.** An interested node in a remote zone waits
//!   τADV for a local advertiser (a cached holder, or a neighbor that got
//!   the data) and then sends an [`Payload::IzReq`] back along the reversed
//!   border path. Each leg between consecutive border relays travels over
//!   the intra-zone shortest paths at the lowest power, exactly like a base
//!   SPMS REQ; the node-level route is recorded and the DATA retraces it.
//! * **Fault tolerance.** Duplicate queries arriving over different border
//!   chains give the destination *path diversity*: up to `paths_kept`
//!   distinct border paths are remembered, and each τDAT expiry rotates to
//!   the next one (the inter-zone analogue of the PRONE/SCONE ladder).
//!   With `relay_caching` enabled, data crossing a zone leaves copies at
//!   the relays, which then advertise locally and serve later requesters —
//!   the synergy §6 anticipates between its two proposals.

use std::collections::BTreeMap;

use spms_interzone::is_border_relay;
use spms_net::NodeId;

use crate::{
    Action, Addressee, MetaId, NodeView, OutFrame, Packet, Payload, Protocol, SpmsNode, SpmsParams,
    TimerKind,
};

/// Generation namespace for inter-zone timers. Base-SPMS timers for the
/// same item use small per-entry counters; offsetting the inter-zone
/// generations keeps the two state machines' timers from colliding.
const IZ_GEN_BASE: u32 = 0x8000_0000;

/// Maximum node-level record route of an inter-zone REQ: a handful of zone
/// legs, each a handful of intra-zone hops. Longer paths indicate a routing
/// pathology; dropping lets the requester's τDAT rotate paths.
const MAX_IZ_PATH: usize = 64;

/// Resolved inter-zone tunables (TTL already concrete).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IzResolved {
    /// Bordercast rebroadcast budget in zone hops.
    pub ttl: u32,
    /// Distinct border paths remembered per item.
    pub paths_kept: usize,
    /// Inter-zone REQ retry budget before abandoning until a new query.
    pub max_attempts: u32,
}

/// Where the inter-zone machinery stands for one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IzState {
    /// Not engaged (base SPMS may still be negotiating locally).
    Idle,
    /// τADV armed, hoping a local advertiser appears first.
    WaitingAdv,
    /// Inter-zone REQ sent, τDAT armed.
    WaitingData,
    /// Out of retries until a new query arrives.
    GivenUp,
}

/// Per-item inter-zone destination state. An entry is only created for an
/// item the base node has registered as unresolved, and once the item is
/// held only `paths` is read again.
#[derive(Clone, Debug)]
struct IzEntry {
    /// Border paths from the source (each starts with the source id),
    /// shortest first, deduplicated, truncated to `paths_kept`.
    paths: Vec<Vec<NodeId>>,
    /// Rotation cursor into `paths` for retries.
    next_path: usize,
    attempts: u32,
    state: IzState,
    adv_gen: u32,
    dat_gen: u32,
}

impl IzEntry {
    fn new() -> Self {
        IzEntry {
            paths: Vec::new(),
            next_path: 0,
            attempts: 0,
            state: IzState::Idle,
            adv_gen: 0,
            dat_gen: 0,
        }
    }

    /// Records a border path, keeping the list sorted by length and capped.
    fn record_path(&mut self, path: Vec<NodeId>, cap: usize) {
        if self.paths.contains(&path) {
            return;
        }
        let pos = self
            .paths
            .iter()
            .position(|p| path.len() < p.len())
            .unwrap_or(self.paths.len());
        self.paths.insert(pos, path);
        self.paths.truncate(cap.max(1));
    }
}

/// SPMS-IZ protocol state for one node: the unmodified base [`SpmsNode`]
/// plus the bordercast/inter-zone request machinery.
#[derive(Clone, Debug)]
pub struct SpmsIzNode {
    inner: SpmsNode,
    iz: BTreeMap<MetaId, IzEntry>,
    /// Bordercast dedup: the highest TTL this node has re-broadcast per
    /// item. A node relays again only when a *fresher* copy (higher
    /// remaining TTL) arrives — required because the first copy heard
    /// usually travelled via near relays and carries a TTL consumed in
    /// small spatial strides; the fresher copy re-enables the optimal
    /// zone-hop chain the TTL bound was computed for.
    relayed: BTreeMap<MetaId, u32>,
    params: IzResolved,
}

impl SpmsIzNode {
    /// Creates a node with base-SPMS and inter-zone tunables.
    #[must_use]
    pub fn new(base: SpmsParams, params: IzResolved) -> Self {
        SpmsIzNode {
            inner: SpmsNode::new(base),
            iz: BTreeMap::new(),
            relayed: BTreeMap::new(),
            params,
        }
    }

    /// The wrapped base-SPMS state (PRONE/SCONE inspection in tests).
    #[must_use]
    pub fn base(&self) -> &SpmsNode {
        &self.inner
    }

    /// The border paths currently remembered for `meta`, shortest first.
    #[must_use]
    pub fn paths(&self, meta: MetaId) -> &[Vec<NodeId>] {
        self.iz.get(&meta).map_or(&[], |e| e.paths.as_slice())
    }

    /// `true` once this node has re-broadcast the query for `meta`.
    #[must_use]
    pub fn has_relayed(&self, meta: MetaId) -> bool {
        self.relayed.contains_key(&meta)
    }

    /// Broadcasts the bordercast query continuation for `meta`.
    fn relay_query(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        ttl: u32,
        path: &[NodeId],
        out: &mut Vec<Action>,
    ) {
        self.relayed.insert(meta, ttl - 1);
        let mut forward = path.to_vec();
        forward.push(view.node);
        out.push(Action::Send(OutFrame {
            to: Addressee::Broadcast,
            level: view.zones.adv_level(),
            packet: Packet {
                meta,
                from: view.node,
                payload: Payload::IzAdv {
                    ttl: ttl - 1,
                    path: forward,
                },
            },
        }));
    }

    /// Launches (or re-launches) the inter-zone REQ along the next stored
    /// border path. Returns `false` when no usable path exists.
    fn send_iz_req(&mut self, view: &NodeView<'_>, meta: MetaId, out: &mut Vec<Action>) -> bool {
        let entry = self.iz.get_mut(&meta).expect("iz entry exists");
        if entry.paths.is_empty() {
            return false;
        }
        let path = entry.paths[entry.next_path % entry.paths.len()].clone();
        // Waypoints back toward the source, skipping ourselves (we may be a
        // border relay on our own stored path).
        let mut legs: Vec<NodeId> = path
            .iter()
            .rev()
            .copied()
            .filter(|&n| n != view.node)
            .collect();
        if legs.is_empty() {
            return false;
        }
        let first = legs[0];
        let Some(route) = view.routing.best(first) else {
            return false;
        };
        let Some(level) = view.link_level(route.via) else {
            return false;
        };
        // The first waypoint is popped by its receiver, so if the next hop
        // *is* the waypoint the packet still carries it — uniform handling.
        let zone_legs = legs.len() as u64;
        let frame = OutFrame {
            to: Addressee::Unicast(route.via),
            level,
            packet: Packet {
                meta,
                from: view.node,
                payload: Payload::IzReq {
                    origin: view.node,
                    legs: std::mem::take(&mut legs),
                    path: vec![view.node],
                },
            },
        };
        entry.state = IzState::WaitingData;
        entry.attempts += 1;
        entry.dat_gen += 1;
        let gen = IZ_GEN_BASE + entry.dat_gen;
        out.push(Action::Send(frame));
        // One τDAT per zone leg: an inter-zone round trip crosses each leg
        // twice but the legs pipeline, so leg count (plus one for the local
        // leg) is the right scale.
        out.push(Action::SetTimer {
            meta,
            kind: TimerKind::DataWait,
            gen,
            after: view.timeouts.dat * (zone_legs + 1),
        });
        true
    }

    /// Handles a bordercast query arriving at this node.
    #[allow(clippy::too_many_arguments)] // private dispatch of one packet's fields
    fn handle_iz_adv(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        from: NodeId,
        ttl: u32,
        path: &[NodeId],
        interested: bool,
        out: &mut Vec<Action>,
    ) {
        // Border-relay duty first: independent of interest — that is the
        // whole point of the extension. Holders do not relay; they already
        // advertise locally (plain ADV) when they obtain the data.
        let fresher = self
            .relayed
            .get(&meta)
            .is_none_or(|&sent| ttl.saturating_sub(1) > sent);
        // §3.1 resource adaptation: low-battery nodes decline bordercast
        // relay duty (other border relays usually cover the gap).
        if ttl > 0
            && fresher
            && !view.declines_forwarding()
            && !self.inner.has_data(meta)
            && !path.contains(&view.node)
            && is_border_relay(view.zones, from, view.node)
        {
            self.relay_query(view, meta, ttl, path, out);
        }

        if !interested || self.inner.has_data(meta) {
            return;
        }
        if path.len() == 1 {
            // Heard straight from the source: the transmitter holds the
            // data, so the unmodified intra-zone negotiation applies.
            let as_adv = Packet {
                meta,
                from,
                payload: Payload::Adv,
            };
            self.inner.on_packet(view, &as_adv, true, out);
            return;
        }
        // Remote query: remember the border path and engage (unless the
        // base protocol already heard a local advertiser).
        self.inner.mark_interested(meta);
        let cap = self.params.paths_kept;
        let entry = self.iz.entry(meta).or_insert_with(IzEntry::new);
        entry.record_path(path.to_vec(), cap);
        if self.inner.prone(meta).is_some() {
            return; // local negotiation in progress
        }
        if matches!(entry.state, IzState::Idle | IzState::GivenUp) {
            entry.state = IzState::WaitingAdv;
            entry.attempts = 0;
            entry.adv_gen += 1;
            out.push(Action::SetTimer {
                meta,
                kind: TimerKind::AdvWait,
                gen: IZ_GEN_BASE + entry.adv_gen,
                after: view.timeouts.adv,
            });
        }
    }

    /// Handles an inter-zone REQ travelling back toward the source.
    fn handle_iz_req(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        origin: NodeId,
        legs: &[NodeId],
        path: &[NodeId],
        out: &mut Vec<Action>,
    ) {
        if path.len() >= MAX_IZ_PATH {
            return; // pathological route; the origin's τDAT rotates paths
        }
        if self.inner.has_data(meta) {
            // Source — or a cached holder met on the way: serve straight
            // back along the recorded node-level route.
            self.inner.serve_path(view, meta, path, out);
            return;
        }
        if view.declines_forwarding() && origin != view.node {
            return; // §3.1: decline third-party forwarding when low
        }
        // Advance the waypoint list if we are the current waypoint.
        let remaining: &[NodeId] = match legs.split_first() {
            Some((&head, rest)) if head == view.node => rest,
            _ => legs,
        };
        let Some(&target) = remaining.first() else {
            return; // reached the final waypoint without data: stay silent
        };
        let Some(route) = view.routing.best(target) else {
            return; // no intra-zone route (mobility/failure): drop
        };
        let via = if Some(&route.via) == path.last() {
            match view.routing.best_avoiding(target, route.via) {
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
            Payload::IzReq {
                origin,
                legs: remaining.to_vec(),
                path: new_path,
            },
        ) {
            out.push(Action::Send(frame));
        }
    }

    /// Inter-zone timer handling (generation already de-namespaced).
    fn on_iz_timer(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        kind: TimerKind,
        raw_gen: u32,
        out: &mut Vec<Action>,
    ) {
        if self.inner.has_data(meta) {
            return;
        }
        let Some(entry) = self.iz.get_mut(&meta) else {
            return;
        };
        match kind {
            TimerKind::AdvWait => {
                if entry.adv_gen != raw_gen || entry.state != IzState::WaitingAdv {
                    return;
                }
                if self.inner.prone(meta).is_some() {
                    // A local advertiser appeared; let base SPMS finish.
                    entry.state = IzState::Idle;
                    return;
                }
                if !self.send_iz_req(view, meta, out) {
                    let entry = self.iz.get_mut(&meta).expect("entry");
                    entry.state = IzState::GivenUp;
                    out.push(Action::Abandoned { meta });
                }
            }
            TimerKind::DataWait => {
                if entry.dat_gen != raw_gen || entry.state != IzState::WaitingData {
                    return;
                }
                if entry.attempts >= self.params.max_attempts {
                    entry.state = IzState::GivenUp;
                    out.push(Action::Abandoned { meta });
                    return;
                }
                entry.next_path += 1; // rotate to the next border path
                if !self.send_iz_req(view, meta, out) {
                    let entry = self.iz.get_mut(&meta).expect("entry");
                    entry.state = IzState::GivenUp;
                    out.push(Action::Abandoned { meta });
                }
            }
        }
    }
}

impl Protocol for SpmsIzNode {
    fn on_generate(&mut self, view: &NodeView<'_>, meta: MetaId, out: &mut Vec<Action>) {
        // The base protocol stores the item and advertises once; upgrade
        // that advertisement into the bordercast query so it can cross
        // zones. Re-advertisements by later holders stay zone-local.
        let start = out.len();
        self.inner.on_generate(view, meta, out);
        for action in &mut out[start..] {
            if let Action::Send(frame) = action {
                if frame.packet.payload == Payload::Adv {
                    frame.packet.payload = Payload::IzAdv {
                        ttl: self.params.ttl,
                        path: vec![view.node],
                    };
                }
            }
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
            Payload::IzAdv { ttl, path } => {
                self.handle_iz_adv(view, meta, packet.from, *ttl, path, interested, out);
            }
            Payload::IzReq { origin, legs, path } => {
                self.handle_iz_req(view, meta, *origin, legs, path, out);
            }
            _ => {
                // Plain ADV/REQ/DATA: the unmodified base protocol. DATA
                // acceptance also satisfies any pending inter-zone wait
                // (checked lazily when its timers fire).
                self.inner.on_packet(view, packet, interested, out);
            }
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
        if gen >= IZ_GEN_BASE {
            self.on_iz_timer(view, meta, kind, gen - IZ_GEN_BASE, out);
        } else {
            self.inner.on_timer(view, meta, kind, gen, out);
        }
    }

    fn on_failed(&mut self) {
        self.inner.on_failed();
        // Inter-zone timers, like base ones, exist only for unresolved items.
        for meta in self.inner.unresolved() {
            let Some(entry) = self.iz.get_mut(meta) else {
                continue;
            };
            entry.adv_gen += 1;
            entry.dat_gen += 1;
            if matches!(entry.state, IzState::WaitingAdv | IzState::WaitingData) {
                entry.state = IzState::Idle;
            }
        }
    }

    fn on_repaired(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        self.inner.on_repaired(view, out);
        // Resume inter-zone pulls for items the base protocol cannot serve
        // locally (no known originator).
        let pending: Vec<MetaId> = self
            .inner
            .unresolved()
            .iter()
            .copied()
            .filter(|&meta| {
                self.iz
                    .get(&meta)
                    .is_some_and(|e| e.state == IzState::Idle && !e.paths.is_empty())
                    && self.inner.prone(meta).is_none()
            })
            .collect();
        for meta in pending {
            {
                let entry = self.iz.get_mut(&meta).expect("entry");
                entry.attempts = 0;
            }
            self.send_iz_req(view, meta, out);
        }
    }

    fn on_routes_rebuilt(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        // Stored border paths may have broken; retries rotate through the
        // survivors. Allow queries to be relayed again under the new
        // topology so fresh paths can form.
        self.relayed.clear();
        self.inner.on_routes_rebuilt(view, out);
    }

    fn has_data(&self, meta: MetaId) -> bool {
        self.inner.has_data(meta)
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

    /// 13-node line, 5 m spacing, 20 m zones: node 0 and node 12 are 60 m
    /// apart — separate zones with several border relays between them.
    fn fixture() -> (ZoneTable, Vec<RoutingTable>) {
        let topo = placement::grid(13, 1, 5.0).unwrap();
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

    fn params() -> IzResolved {
        IzResolved {
            ttl: 4,
            paths_kept: 2,
            max_attempts: 4,
        }
    }

    fn node() -> SpmsIzNode {
        SpmsIzNode::new(SpmsParams::default(), params())
    }

    fn meta() -> MetaId {
        MetaId::new(NodeId::new(0), 0)
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
    fn generate_upgrades_adv_to_bordercast_query() {
        let (zones, tables) = fixture();
        let mut src = node();
        let v = view(&zones, &tables[0], 0);
        let actions = collect(|out| src.on_generate(&v, meta(), out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].to, Addressee::Broadcast);
        assert_eq!(s[0].packet.kind(), PacketKind::Adv);
        match &s[0].packet.payload {
            Payload::IzAdv { ttl, path } => {
                assert_eq!(*ttl, 4);
                assert_eq!(path.as_slice(), &[NodeId::new(0)]);
            }
            other => panic!("expected IzAdv, got {other:?}"),
        }
        assert!(src.has_data(meta()));
    }

    #[test]
    fn border_relay_rebroadcasts_with_decremented_ttl() {
        let (zones, tables) = fixture();
        // Node 4 (20 m from node 0) extends coverage: must relay.
        let mut relay = node();
        let v = view(&zones, &tables[4], 4);
        let q = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::IzAdv {
                ttl: 4,
                path: vec![NodeId::new(0)],
            },
        };
        let actions = collect(|out| relay.on_packet(&v, &q, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1, "uninterested border node still relays");
        match &s[0].packet.payload {
            Payload::IzAdv { ttl, path } => {
                assert_eq!(*ttl, 3);
                assert_eq!(path.as_slice(), &[NodeId::new(0), NodeId::new(4)]);
            }
            other => panic!("expected IzAdv, got {other:?}"),
        }
        assert!(relay.has_relayed(meta()));
        // Dedup: the same query heard again is not relayed twice.
        let again = collect(|out| relay.on_packet(&v, &q, false, out));
        assert!(sends(&again).is_empty());
    }

    #[test]
    fn fresher_ttl_triggers_a_re_relay() {
        // A node that relayed a stale (low-TTL) copy must relay again when
        // the optimal chain's fresher copy arrives, or long fields become
        // timing-dependent (the wave dies when near relays win the race).
        let (zones, tables) = fixture();
        let mut relay = node();
        let v = view(&zones, &tables[4], 4);
        let stale = Packet {
            meta: meta(),
            from: NodeId::new(3),
            payload: Payload::IzAdv {
                ttl: 1,
                path: vec![NodeId::new(0), NodeId::new(3)],
            },
        };
        let first = collect(|out| relay.on_packet(&v, &stale, false, out));
        assert_eq!(sends(&first).len(), 1, "stale copy still relays once");
        let fresh = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::IzAdv {
                ttl: 4,
                path: vec![NodeId::new(0)],
            },
        };
        let second = collect(|out| relay.on_packet(&v, &fresh, false, out));
        let s = sends(&second);
        assert_eq!(s.len(), 1, "fresher TTL must re-relay");
        match &s[0].packet.payload {
            Payload::IzAdv { ttl, .. } => assert_eq!(*ttl, 3),
            other => panic!("expected IzAdv, got {other:?}"),
        }
        // Equal-or-worse TTL afterwards: silent.
        let worse = collect(|out| relay.on_packet(&v, &fresh, false, out));
        assert!(sends(&worse).is_empty());
    }

    #[test]
    fn ttl_zero_stops_the_query() {
        let (zones, tables) = fixture();
        let mut relay = node();
        let v = view(&zones, &tables[4], 4);
        let q = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::IzAdv {
                ttl: 0,
                path: vec![NodeId::new(0)],
            },
        };
        assert!(sends(&collect(|out| relay.on_packet(&v, &q, false, out))).is_empty());
        assert!(!relay.has_relayed(meta()));
    }

    #[test]
    fn interior_node_does_not_relay() {
        let (zones, tables) = fixture();
        // Node 2 hears node 4's rebroadcast but everything node 2 covers,
        // node 4 already covered further out… check via border predicate:
        // node 2's zone ⊆ node 4's ∪ node 0's? Node 2 reaches 0..6; node 4
        // reaches 0..8 — no gain from node 2 after node 4 transmitted.
        let mut n2 = node();
        let v = view(&zones, &tables[2], 2);
        let q = Packet {
            meta: meta(),
            from: NodeId::new(4),
            payload: Payload::IzAdv {
                ttl: 3,
                path: vec![NodeId::new(0), NodeId::new(4)],
            },
        };
        let actions = collect(|out| n2.on_packet(&v, &q, false, out));
        assert!(
            sends(&actions).is_empty(),
            "node 2 adds no coverage beyond node 4"
        );
    }

    #[test]
    fn source_zone_destination_uses_base_negotiation() {
        let (zones, tables) = fixture();
        // Node 1 hears the query directly from the source: base SPMS rules
        // (adjacent advertiser → immediate direct REQ).
        let mut n1 = node();
        let v = view(&zones, &tables[1], 1);
        let q = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::IzAdv {
                ttl: 4,
                path: vec![NodeId::new(0)],
            },
        };
        let actions = collect(|out| n1.on_packet(&v, &q, true, out));
        let s = sends(&actions);
        assert!(s
            .iter()
            .any(|f| matches!(f.packet.payload, Payload::Req { .. })));
        assert_eq!(n1.base().prone(meta()), Some(NodeId::new(0)));
    }

    #[test]
    fn remote_destination_waits_then_pulls_over_border_path() {
        let (zones, tables) = fixture();
        // Node 12 hears the query relayed by node 8 (path 0→4→8).
        let mut dest = node();
        let v = view(&zones, &tables[12], 12);
        let q = Packet {
            meta: meta(),
            from: NodeId::new(8),
            payload: Payload::IzAdv {
                ttl: 2,
                path: vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
            },
        };
        let actions = collect(|out| dest.on_packet(&v, &q, true, out));
        // It waits τADV first (a local holder may advertise).
        assert!(sends(&actions)
            .iter()
            .all(|f| !matches!(f.packet.payload, Payload::IzReq { .. })));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer { kind: TimerKind::AdvWait, gen, .. } if *gen >= IZ_GEN_BASE
        )));
        assert_eq!(dest.paths(meta()).len(), 1);

        // τADV expires with no local ADV: the inter-zone REQ launches.
        let actions =
            collect(|out| dest.on_timer(&v, meta(), TimerKind::AdvWait, IZ_GEN_BASE + 1, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        match &s[0].packet.payload {
            Payload::IzReq { origin, legs, path } => {
                assert_eq!(*origin, NodeId::new(12));
                assert_eq!(
                    legs.as_slice(),
                    &[NodeId::new(8), NodeId::new(4), NodeId::new(0)],
                    "reversed border path"
                );
                assert_eq!(path.as_slice(), &[NodeId::new(12)]);
            }
            other => panic!("expected IzReq, got {other:?}"),
        }
        // τDAT scaled by the number of zone legs.
        let timer = actions.iter().find_map(|a| match a {
            Action::SetTimer {
                kind: TimerKind::DataWait,
                after,
                ..
            } => Some(*after),
            _ => None,
        });
        assert_eq!(timer, Some(SimTime::from_millis_f64(2.5) * 4u64));
    }

    #[test]
    fn waypoints_pop_and_source_serves_reverse_route() {
        let (zones, tables) = fixture();
        let m = meta();
        // Waypoint node 8 receives the REQ addressed to it: pops itself and
        // forwards toward node 4.
        let mut w = node();
        let v8 = view(&zones, &tables[8], 8);
        let req = Packet {
            meta: m,
            from: NodeId::new(9),
            payload: Payload::IzReq {
                origin: NodeId::new(12),
                legs: vec![NodeId::new(8), NodeId::new(4), NodeId::new(0)],
                path: vec![NodeId::new(12), NodeId::new(9)],
            },
        };
        let actions = collect(|out| w.on_packet(&v8, &req, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        match &s[0].packet.payload {
            Payload::IzReq { legs, path, .. } => {
                assert_eq!(legs.as_slice(), &[NodeId::new(4), NodeId::new(0)]);
                assert_eq!(
                    path.as_slice(),
                    &[NodeId::new(12), NodeId::new(9), NodeId::new(8)]
                );
            }
            other => panic!("expected IzReq, got {other:?}"),
        }

        // The source holds the data and serves the full reverse route.
        let mut src = node();
        let v0 = view(&zones, &tables[0], 0);
        src.on_generate(&v0, m, &mut Vec::new());
        let full_path: Vec<NodeId> = [12u32, 9, 8, 6, 4, 2]
            .iter()
            .map(|&i| NodeId::new(i))
            .collect();
        let req_at_src = Packet {
            meta: m,
            from: NodeId::new(2),
            payload: Payload::IzReq {
                origin: NodeId::new(12),
                legs: vec![NodeId::new(0)],
                path: full_path.clone(),
            },
        };
        let actions = collect(|out| src.on_packet(&v0, &req_at_src, false, out));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        match &s[0].packet.payload {
            Payload::Data { dest, route } => {
                assert_eq!(*dest, NodeId::new(12));
                let expect: Vec<NodeId> = full_path.iter().rev().skip(1).copied().collect();
                assert_eq!(route.as_slice(), expect.as_slice());
            }
            other => panic!("expected DATA, got {other:?}"),
        }
        assert_eq!(s[0].to, Addressee::Unicast(NodeId::new(2)));
    }

    #[test]
    fn cached_holder_on_path_serves_early() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut holder = SpmsIzNode::new(
            SpmsParams {
                relay_caching: true,
                ..SpmsParams::default()
            },
            params(),
        );
        let v4 = view(&zones, &tables[4], 4);
        // Give node 4 the data via a relayed DATA packet (caching on).
        let data = Packet {
            meta: m,
            from: NodeId::new(3),
            payload: Payload::Data {
                dest: NodeId::new(5),
                route: vec![NodeId::new(5)],
            },
        };
        holder.on_packet(&v4, &data, false, &mut Vec::new());
        assert!(holder.has_data(m));
        // A later inter-zone REQ passing through is served immediately.
        let req = Packet {
            meta: m,
            from: NodeId::new(6),
            payload: Payload::IzReq {
                origin: NodeId::new(12),
                legs: vec![NodeId::new(4), NodeId::new(0)],
                path: vec![NodeId::new(12), NodeId::new(8), NodeId::new(6)],
            },
        };
        let actions = collect(|out| holder.on_packet(&v4, &req, false, out));
        let s = sends(&actions);
        assert!(
            s.iter().any(|f| f.packet.kind() == PacketKind::Data),
            "cached holder must answer instead of forwarding"
        );
        assert!(
            !s.iter()
                .any(|f| matches!(f.packet.payload, Payload::IzReq { .. })),
            "no forwarding past a holder"
        );
    }

    #[test]
    fn dat_timeout_rotates_paths_then_abandons() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut dest = SpmsIzNode::new(
            SpmsParams::default(),
            IzResolved {
                ttl: 4,
                paths_kept: 2,
                max_attempts: 2,
            },
        );
        let v = view(&zones, &tables[12], 12);
        // Two distinct border paths arrive.
        for (from, path) in [
            (8u32, vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)]),
            (9u32, vec![NodeId::new(0), NodeId::new(5), NodeId::new(9)]),
        ] {
            let q = Packet {
                meta: m,
                from: NodeId::new(from),
                payload: Payload::IzAdv { ttl: 2, path },
            };
            dest.on_packet(&v, &q, true, &mut Vec::new());
        }
        assert_eq!(dest.paths(m).len(), 2);
        // Engage: τADV expiry → REQ along path 1 (attempt 1).
        let a1 = collect(|out| dest.on_timer(&v, m, TimerKind::AdvWait, IZ_GEN_BASE + 1, out));
        let first_legs = match &sends(&a1)[0].packet.payload {
            Payload::IzReq { legs, .. } => legs.clone(),
            other => panic!("{other:?}"),
        };
        // τDAT expiry → rotate to the second path (attempt 2).
        let a2 = collect(|out| dest.on_timer(&v, m, TimerKind::DataWait, IZ_GEN_BASE + 1, out));
        let second_legs = match &sends(&a2)[0].packet.payload {
            Payload::IzReq { legs, .. } => legs.clone(),
            other => panic!("{other:?}"),
        };
        assert_ne!(first_legs, second_legs, "retry must try the other path");
        // Third expiry: retry budget exhausted → abandoned.
        let a3 = collect(|out| dest.on_timer(&v, m, TimerKind::DataWait, IZ_GEN_BASE + 2, out));
        assert!(a3.iter().any(|a| matches!(a, Action::Abandoned { .. })));
        // A fresh query revives the machinery.
        let q = Packet {
            meta: m,
            from: NodeId::new(8),
            payload: Payload::IzAdv {
                ttl: 2,
                path: vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
            },
        };
        let revived = collect(|out| dest.on_packet(&v, &q, true, out));
        assert!(revived.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::AdvWait,
                ..
            }
        )));
    }

    #[test]
    fn local_adv_preempts_interzone_pull() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut dest = node();
        let v = view(&zones, &tables[12], 12);
        let q = Packet {
            meta: m,
            from: NodeId::new(8),
            payload: Payload::IzAdv {
                ttl: 2,
                path: vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
            },
        };
        dest.on_packet(&v, &q, true, &mut Vec::new());
        // A plain ADV from an adjacent holder (node 11, cached) arrives
        // before τADV expires.
        let adv = Packet {
            meta: m,
            from: NodeId::new(11),
            payload: Payload::Adv,
        };
        let actions = collect(|out| dest.on_packet(&v, &adv, true, out));
        assert!(sends(&actions)
            .iter()
            .any(|f| matches!(f.packet.payload, Payload::Req { .. })));
        // The inter-zone τADV expiry now stands down.
        let after = collect(|out| dest.on_timer(&v, m, TimerKind::AdvWait, IZ_GEN_BASE + 1, out));
        assert!(sends(&after).is_empty(), "base negotiation owns the item");
    }

    #[test]
    fn failure_invalidates_timers_and_repair_resumes() {
        let (zones, tables) = fixture();
        let m = meta();
        let mut dest = node();
        let v = view(&zones, &tables[12], 12);
        let q = Packet {
            meta: m,
            from: NodeId::new(8),
            payload: Payload::IzAdv {
                ttl: 2,
                path: vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
            },
        };
        dest.on_packet(&v, &q, true, &mut Vec::new());
        dest.on_timer(&v, m, TimerKind::AdvWait, IZ_GEN_BASE + 1, &mut Vec::new()); // REQ out
        dest.on_failed();
        // Stale τDAT is ignored.
        assert!(
            collect(|out| dest.on_timer(&v, m, TimerKind::DataWait, IZ_GEN_BASE + 1, out))
                .is_empty()
        );
        // Repair relaunches the pull.
        let actions = collect(|out| dest.on_repaired(&v, out));
        assert!(sends(&actions)
            .iter()
            .any(|f| matches!(f.packet.payload, Payload::IzReq { .. })));
    }

    #[test]
    fn plain_advs_change_nothing_where_the_engine_skips_them() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[1], 1);
        let advertisers = [0, 2, 3].map(NodeId::new);
        let mut n = node();
        assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, false);
        // The source's query, heard directly, runs the base negotiation;
        // the DATA that answers the REQ reports the item delivered.
        let query = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::IzAdv {
                ttl: 4,
                path: vec![NodeId::new(0)],
            },
        };
        n.on_packet(&v, &query, true, &mut Vec::new());
        let data = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::Data {
                dest: NodeId::new(1),
                route: vec![],
            },
        };
        let got = assert_delivered_items_held(&mut n, |n, out| n.on_packet(&v, &data, true, out));
        assert!(got.contains(&Action::Delivered { meta: meta() }));
        for interested in [true, false] {
            assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, interested);
        }
    }

    #[test]
    fn query_loops_are_cut_by_path_membership() {
        let (zones, tables) = fixture();
        let mut relay = node();
        let v = view(&zones, &tables[4], 4);
        // A (malformed) query that already lists node 4 must not be relayed
        // again even though the dedup set is empty.
        let q = Packet {
            meta: meta(),
            from: NodeId::new(8),
            payload: Payload::IzAdv {
                ttl: 3,
                path: vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
            },
        };
        assert!(sends(&collect(|out| relay.on_packet(&v, &q, false, out))).is_empty());
    }

    #[test]
    fn routes_rebuilt_clears_relay_dedup() {
        let (zones, tables) = fixture();
        let mut relay = node();
        let v = view(&zones, &tables[4], 4);
        let q = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::IzAdv {
                ttl: 4,
                path: vec![NodeId::new(0)],
            },
        };
        relay.on_packet(&v, &q, false, &mut Vec::new());
        assert!(relay.has_relayed(meta()));
        relay.on_routes_rebuilt(&v, &mut Vec::new());
        assert!(!relay.has_relayed(meta()));
    }

    /// Metas of the repair REQs matching `is_kind`, which must ascend.
    fn ascending_reqs(actions: &[Action], is_kind: fn(&Payload) -> bool) -> bool {
        let metas: Vec<MetaId> = sends(actions)
            .iter()
            .filter(|f| is_kind(&f.packet.payload))
            .map(|f| f.packet.meta)
            .collect();
        metas.windows(2).all(|w| w[0] < w[1])
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            rng_seed: 0x5EED_0F41_1ED0_0003,
            ..ProptestConfig::default()
        })]
        /// Random local ADV, direct and remote bordercast query, DATA,
        /// timer, fail and repair steps at the far end of the line: after
        /// each, the base node's `unresolved` is "interest heard and not
        /// held" and covers every base and inter-zone entry of an unheld
        /// item, repair REQs of each kind leave in `MetaId` order, and no
        /// timer armed before the last failure fires.
        #[test]
        fn failure_hooks_walk_exactly_the_unresolved_items(
            steps in prop::collection::vec((0u8..7, 0u32..30, 0u32..64), 1..80)
        ) {
            let (zones, tables) = fixture();
            let v = view(&zones, &tables[12], 12);
            let remote = [
                vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
                vec![NodeId::new(0), NodeId::new(5), NodeId::new(9)],
            ];
            let mut n = node();
            let (mut wanted, mut held) = (BTreeSet::new(), BTreeSet::new());
            let mut armed = Vec::<(MetaId, TimerKind, u32)>::new();
            let (mut ever, mut stale) = (Vec::new(), Vec::new());
            let mut up = true;
            for (kind, i, aux) in steps {
                // Items spread over sources, so `MetaId` order is not `i`
                // order; every fourth item is unwanted.
                let meta = MetaId::new(NodeId::new(i % 5), i / 5);
                let wants = i % 4 != 3;
                let local = NodeId::new(8 + aux % 4);
                let packet = |from: NodeId, payload: Payload| Packet { meta, from, payload };
                let actions = match (kind, up) {
                    (0..=2, true) => {
                        if wants {
                            wanted.insert(meta);
                        }
                        let p = match kind {
                            0 => packet(local, Payload::Adv),
                            1 => packet(local, Payload::IzAdv { ttl: 2, path: vec![local] }),
                            _ => {
                                let path = remote[aux as usize % 2].clone();
                                packet(*path.last().unwrap(), Payload::IzAdv { ttl: 2, path })
                            }
                        };
                        collect(|out| n.on_packet(&v, &p, wants, out))
                    }
                    (3, true) => {
                        held.insert(meta);
                        let data = Payload::Data { dest: NodeId::new(12), route: vec![] };
                        collect(|out| n.on_packet(&v, &packet(local, data), wants, out))
                    }
                    (4, true) if !armed.is_empty() => {
                        let (m, k, g) = armed.remove(aux as usize % armed.len());
                        collect(|out| n.on_timer(&v, m, k, g, out))
                    }
                    (5, true) => {
                        n.on_failed();
                        stale.clone_from(&ever);
                        up = false;
                        Vec::new()
                    }
                    (6, false) => {
                        let actions = collect(|out| n.on_repaired(&v, out));
                        prop_assert!(
                            ascending_reqs(&actions, |p| matches!(p, Payload::Req { .. })),
                            "base repair REQs out of MetaId order"
                        );
                        prop_assert!(
                            ascending_reqs(&actions, |p| matches!(p, Payload::IzReq { .. })),
                            "inter-zone repair REQs out of MetaId order"
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
                let unresolved = n.inner.unresolved();
                let model: BTreeSet<MetaId> = wanted.difference(&held).copied().collect();
                prop_assert_eq!(unresolved, &model);
                prop_assert_eq!(&n.inner.unheld_entries(), unresolved);
                let unheld_iz: BTreeSet<MetaId> =
                    n.iz.keys().copied().filter(|&m| !n.has_data(m)).collect();
                prop_assert!(unheld_iz.is_subset(unresolved), "{unheld_iz:?} ⊄ {unresolved:?}");
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

    #[test]
    fn hooks_only_append_to_the_sink() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[12], 12);
        // Its ADV must come through `on_generate` unrewritten.
        let prefix = sink_prefix(&v);
        assert!(matches!(&prefix[0], Action::Send(f) if f.packet.payload == Payload::Adv));
        let (m, own) = (meta(), MetaId::new(NodeId::new(12), 0));
        let query = Packet {
            meta: m,
            from: NodeId::new(8),
            payload: Payload::IzAdv {
                ttl: 2,
                path: vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)],
            },
        };
        let pull = Packet {
            meta: own,
            from: NodeId::new(11),
            payload: Payload::IzReq {
                origin: NodeId::new(0),
                legs: vec![NodeId::new(12)],
                path: vec![
                    NodeId::new(0),
                    NodeId::new(4),
                    NodeId::new(8),
                    NodeId::new(11),
                ],
            },
        };
        let adv = Packet {
            meta: m,
            from: NodeId::new(11),
            payload: Payload::Adv,
        };
        let mut n = node();
        let generated = assert_appends_only(&mut n, &prefix, |n, out| n.on_generate(&v, own, out));
        assert!(matches!(&generated[..], [Action::Send(f)]
            if matches!(f.packet.payload, Payload::IzAdv { .. })));
        let mut appended = vec![
            assert_appends_only(&mut n, &prefix, |n, out| n.on_packet(&v, &query, true, out)),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_timer(&v, m, TimerKind::AdvWait, IZ_GEN_BASE + 1, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_timer(&v, m, TimerKind::DataWait, IZ_GEN_BASE + 1, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_packet(&v, &pull, false, out)),
        ];
        n.on_failed();
        appended.extend([
            assert_appends_only(&mut n, &prefix, |n, out| n.on_repaired(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_routes_rebuilt(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_packet(&v, &adv, true, out)),
        ]);
        let quiet: Vec<usize> = (0..appended.len())
            .filter(|&i| appended[i].is_empty())
            .collect();
        assert_eq!(quiet, [5], "only the reroute appends nothing");
    }
}
