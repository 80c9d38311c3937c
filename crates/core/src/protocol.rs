//! The protocol abstraction the simulation engine drives.
//!
//! A protocol implementation is a pure state machine: handlers receive a
//! read-only [`NodeView`] of the node's environment and append [`Action`]s
//! to a caller-owned sink. The engine performs the actions (transmissions,
//! timers, delivery bookkeeping), which keeps energy and delay accounting
//! uniform across SPIN, SPMS and flooding, and keeps protocol code
//! deterministic and unit-testable without an engine.

use spms_kernel::SimTime;
use spms_net::{NodeId, ZoneTable};
use spms_phy::PowerLevel;
use spms_routing::{RouteEntry, RoutingTable};

use crate::{Addressee, MetaId, OutFrame, Packet, Payload, Timeouts};

/// The two protocol timers of SPMS (SPIN reuses `DataWait` as its REQ
/// suppression/retry window).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// τADV — waiting for a closer node's advertisement.
    AdvWait,
    /// τDAT — waiting for data after a REQ.
    DataWait,
}

/// What a protocol asks the engine to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Transmit a frame.
    Send(OutFrame),
    /// Arm a timer for `(meta, kind)`; it fires with the given generation,
    /// and the protocol ignores firings whose generation is stale
    /// (cancellation is lazy).
    SetTimer {
        /// The item the timer concerns.
        meta: MetaId,
        /// Which timer.
        kind: TimerKind,
        /// Generation captured at arm time.
        gen: u32,
        /// Delay from now.
        after: SimTime,
    },
    /// The node obtained a data item it was interested in (records the
    /// delivery and its latency).
    ///
    /// Contract: a protocol pushes it only once it holds the item
    /// ([`Protocol::has_data`] is `true` from then on, as stores never
    /// shrink), so the engine may stop offering the node plain ADVs for
    /// the item (see [`Protocol::on_packet`]).
    Delivered {
        /// The delivered item.
        meta: MetaId,
    },
    /// The node stopped actively retrying for an item (liveness
    /// bookkeeping; a later ADV may still revive it and deliver).
    Abandoned {
        /// The abandoned item.
        meta: MetaId,
    },
    /// A duplicate data reception (energy already charged; counted as
    /// protocol overhead, SPIN's "implosion").
    Duplicate {
        /// The duplicated item.
        meta: MetaId,
    },
}

/// Whether `best`, the best route to `to`, makes `to` a next-hop
/// neighbor: a direct single hop.
pub(crate) fn is_next_hop(best: Option<RouteEntry>, to: NodeId) -> bool {
    best.is_some_and(|r| r.hops == 1 && r.via == to)
}

/// Read-only view of a node's environment during a handler call.
pub struct NodeView<'a> {
    /// The node the handler runs on.
    pub node: NodeId,
    /// Current simulation time.
    pub now: SimTime,
    /// Zone tables (current topology).
    pub zones: &'a ZoneTable,
    /// The node's routing table (empty for SPIN/flooding).
    pub routing: &'a RoutingTable,
    /// Resolved τADV/τDAT.
    pub timeouts: Timeouts,
    /// Remaining battery as a fraction of capacity (1.0 when the run has
    /// no battery budget). §3.1: nodes monitor resource availability and
    /// adapt their dissemination activities.
    pub battery_frac: f64,
    /// The §3.1 adaptation threshold: below this fraction the node
    /// declines third-party forwarding duty (0.0 = never decline).
    pub low_battery_threshold: f64,
}

impl<'a> NodeView<'a> {
    /// `true` when §3.1 resource adaptation tells this node to decline
    /// third-party forwarding (its own exchanges continue regardless).
    #[must_use]
    pub fn declines_forwarding(&self) -> bool {
        self.battery_frac < self.low_battery_threshold
    }

    /// The cheapest power level reaching zone neighbor `to`, if it is one.
    #[must_use]
    pub fn link_level(&self, to: NodeId) -> Option<PowerLevel> {
        self.zones.link_to(self.node, to).map(|l| l.level)
    }

    /// `true` if the best route to `to` is a direct single hop — the
    /// paper's "next hop neighbor" test that decides between requesting
    /// immediately and waiting τADV.
    #[must_use]
    pub fn is_next_hop_neighbor(&self, to: NodeId) -> bool {
        is_next_hop(self.routing.best(to), to)
    }

    /// Cost of the best route to `to` (`None` when unknown).
    #[must_use]
    pub fn route_cost(&self, to: NodeId) -> Option<f64> {
        self.routing.best(to).map(|r| r.cost)
    }

    /// Builds a zone-wide ADV broadcast frame.
    #[must_use]
    pub fn adv_frame(&self, meta: MetaId) -> OutFrame {
        OutFrame {
            to: Addressee::Broadcast,
            level: self.zones.adv_level(),
            packet: Packet {
                meta,
                from: self.node,
                payload: Payload::Adv,
            },
        }
    }

    /// Builds a unicast frame to `to` at the cheapest level that reaches it,
    /// or `None` if `to` is not a zone neighbor (e.g. it moved away).
    #[must_use]
    pub fn unicast(&self, to: NodeId, meta: MetaId, payload: Payload) -> Option<OutFrame> {
        let level = self.link_level(to)?;
        Some(OutFrame {
            to: Addressee::Unicast(to),
            level,
            packet: Packet {
                meta,
                from: self.node,
                payload,
            },
        })
    }
}

/// A dissemination protocol as a deterministic state machine.
///
/// Sink contract: every hook that produces actions appends them to `out`,
/// a buffer its caller owns and may pass in non-empty. A hook only
/// appends: it never clears, reorders or reads the actions already in
/// `out`. The engine performs the actions in push order.
pub trait Protocol {
    /// The node generated a new data item (it becomes the source).
    fn on_generate(&mut self, view: &NodeView<'_>, meta: MetaId, out: &mut Vec<Action>);

    /// A packet arrived. `interested` says whether this node wants the
    /// packet's item (computed by the engine from the traffic plan).
    ///
    /// Skip contract: a plain ADV ([`Payload::Adv`]) appends
    /// nothing and changes no state when `interested` is `false` or the
    /// node holds the item. The engine relies on it: it offers a plain ADV
    /// only to nodes that want the item and have not pushed
    /// [`Action::Delivered`] for it, and passes `interested = true` there.
    fn on_packet(
        &mut self,
        view: &NodeView<'_>,
        packet: &Packet,
        interested: bool,
        out: &mut Vec<Action>,
    );

    /// A timer fired. Stale generations must be ignored.
    fn on_timer(
        &mut self,
        view: &NodeView<'_>,
        meta: MetaId,
        kind: TimerKind,
        gen: u32,
        out: &mut Vec<Action>,
    );

    /// The node failed: in-flight negotiation state is invalidated (data
    /// survives — failures are transient).
    ///
    /// Cost contract: the work grows with the node's unresolved items (the
    /// ones it wants but does not hold), not with the items it holds.
    fn on_failed(&mut self);

    /// The node recovered; it may resume pending exchanges.
    ///
    /// Cost contract: as for [`Protocol::on_failed`], the work grows with
    /// the node's unresolved items, not with the items it holds.
    fn on_repaired(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>);

    /// Routing tables were rebuilt (after mobility). Default: no reaction;
    /// pending timers pick up the new routes when they fire.
    fn on_routes_rebuilt(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        let _ = (view, out);
    }

    /// `true` if the node holds the item (used by tests and the engine's
    /// settlement accounting).
    fn has_data(&self, meta: MetaId) -> bool;
}

/// Monomorphic protocol dispatch (avoids per-node boxing in the hot loop).
#[derive(Clone, Debug)]
pub enum NodeProtocol {
    /// SPIN baseline.
    Spin(crate::spin::SpinNode),
    /// SPMS.
    Spms(crate::spms_proto::SpmsNode),
    /// SPMS with the §6 inter-zone extension.
    SpmsIz(crate::interzone::SpmsIzNode),
    /// Flooding baseline.
    Flooding(crate::flooding::FloodingNode),
}

impl Protocol for NodeProtocol {
    fn on_generate(&mut self, view: &NodeView<'_>, meta: MetaId, out: &mut Vec<Action>) {
        match self {
            NodeProtocol::Spin(p) => p.on_generate(view, meta, out),
            NodeProtocol::Spms(p) => p.on_generate(view, meta, out),
            NodeProtocol::SpmsIz(p) => p.on_generate(view, meta, out),
            NodeProtocol::Flooding(p) => p.on_generate(view, meta, out),
        }
    }

    fn on_packet(
        &mut self,
        view: &NodeView<'_>,
        packet: &Packet,
        interested: bool,
        out: &mut Vec<Action>,
    ) {
        match self {
            NodeProtocol::Spin(p) => p.on_packet(view, packet, interested, out),
            NodeProtocol::Spms(p) => p.on_packet(view, packet, interested, out),
            NodeProtocol::SpmsIz(p) => p.on_packet(view, packet, interested, out),
            NodeProtocol::Flooding(p) => p.on_packet(view, packet, interested, out),
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
        match self {
            NodeProtocol::Spin(p) => p.on_timer(view, meta, kind, gen, out),
            NodeProtocol::Spms(p) => p.on_timer(view, meta, kind, gen, out),
            NodeProtocol::SpmsIz(p) => p.on_timer(view, meta, kind, gen, out),
            NodeProtocol::Flooding(p) => p.on_timer(view, meta, kind, gen, out),
        }
    }

    fn on_failed(&mut self) {
        match self {
            NodeProtocol::Spin(p) => p.on_failed(),
            NodeProtocol::Spms(p) => p.on_failed(),
            NodeProtocol::SpmsIz(p) => p.on_failed(),
            NodeProtocol::Flooding(p) => p.on_failed(),
        }
    }

    fn on_repaired(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        match self {
            NodeProtocol::Spin(p) => p.on_repaired(view, out),
            NodeProtocol::Spms(p) => p.on_repaired(view, out),
            NodeProtocol::SpmsIz(p) => p.on_repaired(view, out),
            NodeProtocol::Flooding(p) => p.on_repaired(view, out),
        }
    }

    fn on_routes_rebuilt(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        match self {
            NodeProtocol::Spin(p) => p.on_routes_rebuilt(view, out),
            NodeProtocol::Spms(p) => p.on_routes_rebuilt(view, out),
            NodeProtocol::SpmsIz(p) => p.on_routes_rebuilt(view, out),
            NodeProtocol::Flooding(p) => p.on_routes_rebuilt(view, out),
        }
    }

    fn has_data(&self, meta: MetaId) -> bool {
        match self {
            NodeProtocol::Spin(p) => p.has_data(meta),
            NodeProtocol::Spms(p) => p.has_data(meta),
            NodeProtocol::SpmsIz(p) => p.has_data(meta),
            NodeProtocol::Flooding(p) => p.has_data(meta),
        }
    }
}

/// Runs `hook` on an empty sink and returns the actions it appended.
#[cfg(test)]
pub(crate) fn collect(hook: impl FnOnce(&mut Vec<Action>)) -> Vec<Action> {
    let mut out = Vec::new();
    hook(&mut out);
    out
}

/// Actions a sink already holds when a sink-contract check calls a hook:
/// an ADV (which SPMS-IZ's `on_generate` must not rewrite), a timer and a
/// delivery of an item no test node touches.
#[cfg(test)]
pub(crate) fn sink_prefix(view: &NodeView<'_>) -> Vec<Action> {
    let meta = MetaId::new(view.node, 999);
    vec![
        Action::Send(view.adv_frame(meta)),
        Action::SetTimer {
            meta,
            kind: TimerKind::DataWait,
            gen: 7,
            after: SimTime::from_millis(3),
        },
        Action::Delivered { meta },
    ]
}

/// Calls `hook` on `node` with a sink holding `prefix`, and on a clone of
/// `node` with an empty sink; asserts that the hook left `prefix` as it
/// was and appended exactly what it appended to the empty sink. Returns
/// the appended actions.
#[cfg(test)]
pub(crate) fn assert_appends_only<P: Protocol + Clone>(
    node: &mut P,
    prefix: &[Action],
    hook: impl Fn(&mut P, &mut Vec<Action>),
) -> Vec<Action> {
    let fresh = collect(|out| hook(&mut node.clone(), out));
    let mut out = prefix.to_vec();
    hook(node, &mut out);
    assert_eq!(
        &out[..prefix.len()],
        prefix,
        "the hook changed earlier actions"
    );
    assert_eq!(
        &out[prefix.len()..],
        fresh.as_slice(),
        "the hook appended other actions"
    );
    fresh
}

/// Offers `node` a plain ADV for `meta` from each of `advertisers` in turn
/// and asserts that none appends an action or changes the node's `Debug`
/// rendering: the ADVs the engine does not deliver to a protocol at all.
#[cfg(test)]
pub(crate) fn assert_plain_advs_change_nothing<P: Protocol + std::fmt::Debug>(
    node: &mut P,
    view: &NodeView<'_>,
    meta: MetaId,
    advertisers: &[NodeId],
    interested: bool,
) {
    let before = format!("{node:?}");
    for &from in advertisers {
        let adv = Packet {
            meta,
            from,
            payload: Payload::Adv,
        };
        let appended = collect(|out| node.on_packet(view, &adv, interested, out));
        assert!(
            appended.is_empty(),
            "an ADV from {from} appended {appended:?}"
        );
        assert_eq!(
            format!("{node:?}"),
            before,
            "an ADV from {from} changed the node"
        );
    }
}

/// Runs `hook` on `node` with an empty sink and asserts that the node
/// holds every item the hook reported `Delivered`. Returns the appended
/// actions.
#[cfg(test)]
pub(crate) fn assert_delivered_items_held<P: Protocol>(
    node: &mut P,
    hook: impl FnOnce(&mut P, &mut Vec<Action>),
) -> Vec<Action> {
    let appended = collect(|out| hook(node, out));
    for action in &appended {
        if let Action::Delivered { meta } = action {
            assert!(node.has_data(*meta), "{meta} delivered but not held");
        }
    }
    appended
}

/// The timers `actions` arm, as `(meta, kind, generation)`.
#[cfg(test)]
pub(crate) fn armed_timers(
    actions: &[Action],
) -> impl Iterator<Item = (MetaId, TimerKind, u32)> + '_ {
    actions.iter().filter_map(|a| match a {
        Action::SetTimer {
            meta, kind, gen, ..
        } => Some((*meta, *kind, *gen)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_net::placement;
    use spms_phy::RadioProfile;
    use spms_routing::oracle_tables;

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
                dat: SimTime::from_millis(2),
            },
            battery_frac: 1.0,
            low_battery_threshold: 0.0,
        }
    }

    #[test]
    fn next_hop_neighbor_test_matches_paper_semantics() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[0], 0);
        // Node 1 is 5 m away: direct next hop.
        assert!(v.is_next_hop_neighbor(NodeId::new(1)));
        // Node 3 is 15 m away: reachable but best route is multi-hop.
        assert!(!v.is_next_hop_neighbor(NodeId::new(3)));
        assert!(v.route_cost(NodeId::new(3)).unwrap() > 0.0);
    }

    #[test]
    fn adv_frame_is_zone_broadcast_at_adv_level() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[0], 0);
        let meta = MetaId::new(NodeId::new(0), 0);
        let f = v.adv_frame(meta);
        assert_eq!(f.to, Addressee::Broadcast);
        assert_eq!(f.level, zones.adv_level());
        assert_eq!(f.packet.kind(), crate::PacketKind::Adv);
    }

    #[test]
    fn unicast_uses_cheapest_covering_level() {
        let (zones, tables) = fixture();
        let v = view(&zones, &tables[0], 0);
        let meta = MetaId::new(NodeId::new(0), 0);
        let f = v
            .unicast(
                NodeId::new(1),
                meta,
                Payload::Data {
                    dest: NodeId::new(1),
                    route: vec![],
                },
            )
            .unwrap();
        // 5 m → the minimum power level (index 4).
        assert_eq!(f.level.index(), 4);
        // 20 m neighbor → level index 2.
        let f2 = v.unicast(NodeId::new(4), meta, Payload::Adv).unwrap();
        assert_eq!(f2.level.index(), 2);
        // Out-of-zone target: no frame.
        assert!(v.unicast(NodeId::new(99), meta, Payload::Adv).is_none());
    }
}
