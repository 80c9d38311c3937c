//! The SPIN baseline (Heinzelman, Kulik, Balakrishnan — point-to-point
//! variant, as the paper describes it).
//!
//! Every packet is transmitted at the single zone power level. The state
//! machine per data item:
//!
//! 1. A node with new data broadcasts **ADV** to its zone.
//! 2. A node hearing an ADV for data it needs sends **REQ** to the
//!    advertiser (unicast, same power level).
//! 3. The advertiser answers each REQ with a unicast **DATA**.
//! 4. A node that obtains data re-advertises it once in its own zone, which
//!    is how data crosses zone boundaries.
//!
//! SPIN has no routing state and — in Heinzelman et al.'s SPIN-PP, which
//! the paper baselines against — **no timers**: a node simply sends a REQ
//! to every advertiser it hears while it still lacks the data, which also
//! provides its (partial, emergent) fault tolerance ("the nodes which have
//! the data re-advertise and the nodes which could not get the data
//! eventually get the data from them"). That is the default here
//! (`suppression = false`); the cost is SPIN's characteristic request/data
//! implosion, which the run metrics count as duplicates.
//!
//! `suppression = true` selects a politer ablation variant: after sending a
//! REQ, further ADVs for the item are ignored for one τDAT window, and a
//! retry timer re-requests round-robin from known advertisers. The ablation
//! bench compares the two.

use std::collections::BTreeMap;

use crate::{Action, DataStore, MetaId, NodeView, Packet, Payload, Protocol, TimerKind};

/// Negotiation state of one item the node wants and does not hold. It
/// lives from the first wanted ADV until the node stores the item.
#[derive(Clone, Debug, Default)]
struct SpinEntry {
    /// Advertisers heard so far, in arrival order (deduplicated).
    advertisers: Vec<spms_net::NodeId>,
    /// Index of the next advertiser to try on retry.
    next_advertiser: usize,
    /// An outstanding REQ suppresses further REQs until τDAT fires.
    req_outstanding: bool,
    /// Timer generation for lazy cancellation.
    dat_gen: u32,
    /// REQs sent so far (bounds the autonomous retry chain).
    attempts: u32,
    /// Whether this item's retry chain was abandoned (revived by new ADVs).
    abandoned: bool,
}

impl SpinEntry {
    /// Sends a REQ to `to`; in the suppressed variant also arms the
    /// retry/suppression timer (pure SPIN-PP has no timers).
    fn request_from(
        &mut self,
        suppression: bool,
        view: &NodeView<'_>,
        meta: MetaId,
        to: spms_net::NodeId,
        out: &mut Vec<Action>,
    ) {
        // SPIN transmits everything at the zone power level, including REQs
        // (it has no routing tables to pick anything lower).
        let frame = crate::OutFrame {
            to: crate::Addressee::Unicast(to),
            level: view.zones.adv_level(),
            packet: Packet {
                meta,
                from: view.node,
                payload: Payload::Req {
                    origin: view.node,
                    target: to,
                    path: vec![view.node],
                },
            },
        };
        self.attempts += 1;
        out.push(Action::Send(frame));
        if suppression {
            self.req_outstanding = true;
            self.dat_gen += 1;
            out.push(Action::SetTimer {
                meta,
                kind: TimerKind::DataWait,
                gen: self.dat_gen,
                after: view.timeouts.dat,
            });
        }
    }
}

/// SPIN protocol state for one node.
#[derive(Clone, Debug)]
pub struct SpinNode {
    store: DataStore,
    /// Negotiation state of the items this node wants and does not hold,
    /// in `MetaId` order: an entry is created by the first wanted ADV and
    /// dropped when the node stores the item, so memory follows the items
    /// in flight. The failure hooks walk these entries.
    pending: BTreeMap<MetaId, SpinEntry>,
    suppression: bool,
    max_attempts: u32,
    /// SPIN-BC mode: answer the first REQ with a zone-wide DATA broadcast
    /// serving every requester at once (Heinzelman et al.'s broadcast
    /// variant), instead of one unicast per REQ.
    broadcast_data: bool,
    /// Items already served by broadcast (BC mode de-duplication).
    served_broadcast: DataStore,
}

impl SpinNode {
    /// Creates a node (point-to-point DATA, as the paper describes).
    ///
    /// `suppression` enables the REQ suppression window; `max_attempts`
    /// bounds autonomous retries (new ADVs always revive an item).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`: a node must be allowed the REQ that
    /// a fresh ADV triggers.
    #[must_use]
    pub fn new(suppression: bool, max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "max_attempts must be at least 1");
        SpinNode {
            store: DataStore::new(),
            pending: BTreeMap::new(),
            suppression,
            max_attempts,
            broadcast_data: false,
            served_broadcast: DataStore::new(),
        }
    }

    /// Switches the node to SPIN-BC (broadcast DATA) mode.
    #[must_use]
    pub fn with_broadcast_data(mut self) -> Self {
        self.broadcast_data = true;
        self
    }

    /// Number of data items held.
    #[must_use]
    pub fn items_held(&self) -> usize {
        self.store.len()
    }
}

impl Protocol for SpinNode {
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
                let entry = self.pending.entry(meta).or_default();
                // Each holder advertises once, so a repeated ADV from the
                // same node only occurs after its repair; either way, one
                // REQ per advertiser suffices in pure SPIN.
                if entry.advertisers.contains(&packet.from) {
                    return;
                }
                entry.advertisers.push(packet.from);
                let suppressed = self.suppression && entry.req_outstanding;
                if !suppressed {
                    // A fresh ADV revives an abandoned item.
                    entry.abandoned = false;
                    entry.attempts = entry.attempts.min(self.max_attempts - 1);
                    entry.request_from(self.suppression, view, meta, packet.from, out);
                }
            }
            Payload::Req { origin, .. } => {
                // SPIN is single-hop: every REQ we receive targets us.
                if self.store.contains(meta) {
                    if self.broadcast_data {
                        // SPIN-BC: one zone-wide DATA serves all requesters.
                        if self.served_broadcast.insert(meta) {
                            out.push(Action::Send(crate::OutFrame {
                                to: crate::Addressee::Broadcast,
                                level: view.zones.adv_level(),
                                packet: Packet {
                                    meta,
                                    from: view.node,
                                    payload: Payload::Data {
                                        dest: view.node, // ignored for broadcast
                                        route: vec![],
                                    },
                                },
                            }));
                        }
                        return;
                    }
                    let frame = crate::OutFrame {
                        to: crate::Addressee::Unicast(*origin),
                        level: view.zones.adv_level(),
                        packet: Packet {
                            meta,
                            from: view.node,
                            payload: Payload::Data {
                                dest: *origin,
                                route: vec![],
                            },
                        },
                    };
                    out.push(Action::Send(frame));
                }
            }
            Payload::Data { .. } => {
                if self.store.insert(meta) {
                    // Holding the item ends its negotiation; the holder
                    // re-advertises it once.
                    self.pending.remove(&meta);
                    if interested {
                        out.push(Action::Delivered { meta });
                    }
                    out.push(Action::Send(view.adv_frame(meta)));
                } else {
                    out.push(Action::Duplicate { meta });
                }
            }
            // Inter-zone packets belong to SPMS-IZ runs; a SPIN node never
            // participates in one.
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
        if kind != TimerKind::DataWait {
            return;
        }
        // A held item has no entry: its negotiation is over.
        let Some(entry) = self.pending.get_mut(&meta) else {
            return;
        };
        if entry.dat_gen != gen {
            return; // stale
        }
        entry.req_outstanding = false;
        if entry.attempts >= self.max_attempts {
            if !entry.abandoned {
                entry.abandoned = true;
                out.push(Action::Abandoned { meta });
            }
            return;
        }
        // Retry from the next known advertiser (round robin).
        if entry.advertisers.is_empty() {
            return;
        }
        entry.next_advertiser = (entry.next_advertiser + 1) % entry.advertisers.len();
        let to = entry.advertisers[entry.next_advertiser];
        entry.request_from(self.suppression, view, meta, to, out);
    }

    fn on_failed(&mut self) {
        // Transient failure: the data store survives; in-flight negotiation
        // is invalidated (timers become stale, outstanding REQs forgotten).
        for entry in self.pending.values_mut() {
            entry.dat_gen += 1;
            entry.req_outstanding = false;
        }
    }

    fn on_repaired(&mut self, view: &NodeView<'_>, out: &mut Vec<Action>) {
        // Resume pending items that already know an advertiser, in
        // `MetaId` order.
        for (&meta, entry) in &mut self.pending {
            let n = entry.advertisers.len();
            if !entry.abandoned && n > 0 {
                let to = entry.advertisers[entry.next_advertiser % n];
                entry.request_from(self.suppression, view, meta, to, out);
            }
        }
    }

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
    use crate::{Addressee, PacketKind, Timeouts};
    use proptest::prelude::*;
    use spms_kernel::SimTime;
    use spms_net::{placement, NodeId, ZoneTable};
    use spms_phy::RadioProfile;
    use spms_routing::RoutingTable;
    use std::collections::BTreeSet;

    fn fixture() -> (ZoneTable, RoutingTable) {
        let topo = placement::grid(3, 1, 5.0).unwrap();
        (
            ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0),
            RoutingTable::new(2),
        )
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

    fn data_from(from: u32, dest: u32) -> Packet {
        Packet {
            meta: meta(),
            from: NodeId::new(from),
            payload: Payload::Data {
                dest: NodeId::new(dest),
                route: vec![],
            },
        }
    }

    #[test]
    fn generate_stores_and_advertises_once() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 0);
        let actions = collect(|out| n.on_generate(&v, meta(), out));
        assert_eq!(actions.len(), 1);
        assert!(matches!(&actions[0], Action::Send(f) if f.packet.kind() == PacketKind::Adv));
        assert!(n.has_data(meta()));
        // Regenerating the same item does not re-advertise.
        assert!(collect(|out| n.on_generate(&v, meta(), out)).is_empty());
    }

    #[test]
    fn adv_triggers_req_when_interested() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 1);
        let actions = collect(|out| n.on_packet(&v, &adv_from(0), true, out));
        let send = actions.iter().find_map(|a| match a {
            Action::Send(f) => Some(f),
            _ => None,
        });
        let f = send.expect("REQ sent");
        assert_eq!(f.packet.kind(), PacketKind::Req);
        assert_eq!(f.to, Addressee::Unicast(NodeId::new(0)));
        // SPIN transmits at the zone level, never lower.
        assert_eq!(f.level, zones.adv_level());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::DataWait,
                ..
            }
        )));
    }

    #[test]
    fn adv_ignored_when_uninterested_or_holding() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 1);
        assert!(collect(|out| n.on_packet(&v, &adv_from(0), false, out)).is_empty());
        n.on_generate(&v, meta(), &mut Vec::new());
        assert!(collect(|out| n.on_packet(&v, &adv_from(0), true, out)).is_empty());
    }

    /// The engine's skip contract on one SPIN node: plain ADVs from
    /// several advertisers change nothing while the node is uninterested,
    /// the DATA that reports the item delivered leaves it held, and from
    /// then on plain ADVs change nothing either.
    fn check_skip_contract(mut n: SpinNode) {
        let (zones, routing) = fixture();
        let v = view(&zones, &routing, 1);
        let advertisers = [0, 2, 0].map(NodeId::new);
        assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, false);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new());
        let got = assert_delivered_items_held(&mut n, |n, out| {
            n.on_packet(&v, &data_from(0, 1), true, out);
        });
        assert!(got.contains(&Action::Delivered { meta: meta() }));
        for interested in [true, false] {
            assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, interested);
        }
    }

    #[test]
    fn spin_plain_advs_change_nothing_where_the_engine_skips_them() {
        check_skip_contract(SpinNode::new(true, 4));
        check_skip_contract(SpinNode::new(false, 4));
    }

    #[test]
    fn spin_bc_plain_advs_change_nothing_where_the_engine_skips_them() {
        check_skip_contract(SpinNode::new(true, 4).with_broadcast_data());
    }

    #[test]
    fn suppression_window_blocks_second_req() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 1);
        assert!(!collect(|out| n.on_packet(&v, &adv_from(0), true, out)).is_empty());
        // Second ADV while REQ outstanding: suppressed.
        assert!(collect(|out| n.on_packet(&v, &adv_from(2), true, out)).is_empty());
        // Without suppression, each ADV triggers a REQ (implosion).
        let mut loud = SpinNode::new(false, 4);
        assert!(!collect(|out| loud.on_packet(&v, &adv_from(0), true, out)).is_empty());
        assert!(!collect(|out| loud.on_packet(&v, &adv_from(2), true, out)).is_empty());
    }

    #[test]
    fn req_answered_only_with_data_held() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 0);
        let req = Packet {
            meta: meta(),
            from: NodeId::new(1),
            payload: Payload::Req {
                origin: NodeId::new(1),
                target: NodeId::new(0),
                path: vec![NodeId::new(1)],
            },
        };
        assert!(collect(|out| n.on_packet(&v, &req, false, out)).is_empty());
        n.on_generate(&v, meta(), &mut Vec::new());
        let actions = collect(|out| n.on_packet(&v, &req, false, out));
        assert!(matches!(&actions[0], Action::Send(f)
            if f.packet.kind() == PacketKind::Data && f.to == Addressee::Unicast(NodeId::new(1))));
    }

    #[test]
    fn data_delivers_and_readvertises() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 1);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new());
        let actions = collect(|out| n.on_packet(&v, &data_from(0, 1), true, out));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Delivered { .. })));
        assert!(actions.iter().any(|a| matches!(a, Action::Send(f)
            if f.packet.kind() == PacketKind::Adv)));
        // A second copy counts as a duplicate.
        let dup = collect(|out| n.on_packet(&v, &data_from(2, 1), true, out));
        assert!(matches!(dup[0], Action::Duplicate { .. }));
    }

    #[test]
    fn timer_retries_next_advertiser_then_abandons() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 2);
        let v = view(&zones, &routing, 1);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new()); // attempt 1, advertisers=[0]
        n.on_packet(&v, &adv_from(2), true, &mut Vec::new()); // suppressed, advertisers=[0,2]
        let gen1 = 1;
        let actions = collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, gen1, out));
        // attempt 2: retry to the other advertiser (round robin).
        let f = actions
            .iter()
            .find_map(|a| match a {
                Action::Send(f) => Some(f),
                _ => None,
            })
            .expect("retry REQ");
        assert_eq!(f.to, Addressee::Unicast(NodeId::new(2)));
        // Next expiry exceeds max_attempts → abandoned.
        let actions = collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, 2, out));
        assert!(matches!(actions[0], Action::Abandoned { .. }));
        // Stale timer generations are ignored.
        assert!(collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, 1, out)).is_empty());
    }

    #[test]
    fn spin_bc_broadcasts_data_once() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4).with_broadcast_data();
        let v = view(&zones, &routing, 0);
        n.on_generate(&v, meta(), &mut Vec::new());
        let req = |from: u32| Packet {
            meta: meta(),
            from: NodeId::new(from),
            payload: Payload::Req {
                origin: NodeId::new(from),
                target: NodeId::new(0),
                path: vec![NodeId::new(from)],
            },
        };
        let first = collect(|out| n.on_packet(&v, &req(1), false, out));
        assert!(matches!(&first[0], Action::Send(f)
            if f.packet.kind() == PacketKind::Data && f.to == Addressee::Broadcast));
        // The second REQ is already covered by the broadcast.
        assert!(collect(|out| n.on_packet(&v, &req(2), false, out)).is_empty());
    }

    #[test]
    fn failure_invalidates_inflight_and_repair_rerequests() {
        let (zones, routing) = fixture();
        let mut n = SpinNode::new(true, 4);
        let v = view(&zones, &routing, 1);
        n.on_packet(&v, &adv_from(0), true, &mut Vec::new());
        n.on_failed();
        // The pre-failure timer generation is now stale.
        assert!(collect(|out| n.on_timer(&v, meta(), TimerKind::DataWait, 1, out)).is_empty());
        let actions = collect(|out| n.on_repaired(&v, out));
        assert!(actions.iter().any(|a| matches!(a, Action::Send(f)
            if f.packet.kind() == PacketKind::Req)));
    }

    #[test]
    #[should_panic(expected = "max_attempts must be at least 1")]
    fn zero_attempt_budget_is_rejected() {
        let _ = SpinNode::new(true, 0);
    }

    /// A node that heard two ADVs for each of 40 items and then stored it
    /// keeps no entry for them, and the τDAT timers it armed before the
    /// DATA fire silently after it (the suppressed variant arms them; pure
    /// SPIN-PP arms none).
    #[test]
    fn stored_items_keep_no_negotiation_state() {
        let (zones, routing) = fixture();
        let v = view(&zones, &routing, 1);
        for suppression in [true, false] {
            let mut n = SpinNode::new(suppression, 4);
            let mut actions = Vec::new();
            for seq in 0..40 {
                let meta = MetaId::new(NodeId::new(0), seq);
                for from in [0, 2].map(NodeId::new) {
                    let adv = Packet {
                        meta,
                        from,
                        payload: Payload::Adv,
                    };
                    n.on_packet(&v, &adv, true, &mut actions);
                }
                let data = Packet {
                    meta,
                    ..data_from(0, 1)
                };
                let got = collect(|out| n.on_packet(&v, &data, true, out));
                assert!(got.contains(&Action::Delivered { meta }));
            }
            assert_eq!(n.items_held(), 40);
            assert!(n.pending.is_empty(), "{} entries left", n.pending.len());
            let armed: Vec<_> = armed_timers(&actions).collect();
            assert_eq!(armed.len(), if suppression { 40 } else { 0 });
            for (m, k, g) in armed {
                let fired = collect(|out| n.on_timer(&v, m, k, g, out));
                assert!(fired.is_empty(), "{m} {k:?} gen {g} fired: {fired:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            rng_seed: 0x5EED_0F41_1ED0_0002,
            ..ProptestConfig::default()
        })]
        /// Random ADV/DATA/timer/fail/repair steps at the middle node, with
        /// and without REQ suppression: after each, the pending entries are
        /// exactly "interest heard and not held", repair REQs leave in
        /// `MetaId` order, and no timer armed before the last failure
        /// fires.
        #[test]
        fn failure_hooks_walk_exactly_the_unresolved_items(
            suppression in any::<bool>(),
            steps in prop::collection::vec((0u8..6, 0u32..30, 0u32..64), 1..80)
        ) {
            let (zones, routing) = fixture();
            let v = view(&zones, &routing, 1);
            let mut n = SpinNode::new(suppression, 3);
            let (mut wanted, mut held) = (BTreeSet::new(), BTreeSet::new());
            let mut armed = Vec::<(MetaId, TimerKind, u32)>::new();
            let (mut ever, mut stale) = (Vec::new(), Vec::new());
            let mut up = true;
            for (kind, i, aux) in steps {
                // Items spread over sources, so `MetaId` order is not `i`
                // order; every fourth item is unwanted.
                let meta = MetaId::new(NodeId::new(i % 3), i / 3);
                let wants = i % 4 != 3;
                let from = NodeId::new(if aux % 2 == 0 { 0 } else { 2 });
                let actions = match (kind, up) {
                    (0 | 1, true) => {
                        if wants {
                            wanted.insert(meta);
                        }
                        let adv = Packet { meta, from, payload: Payload::Adv };
                        collect(|out| n.on_packet(&v, &adv, wants, out))
                    }
                    (2, true) => {
                        held.insert(meta);
                        let data = Packet {
                            meta,
                            from,
                            payload: Payload::Data { dest: NodeId::new(1), route: vec![] },
                        };
                        collect(|out| n.on_packet(&v, &data, wants, out))
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
                        let reqs: Vec<MetaId> = actions
                            .iter()
                            .filter_map(|a| match a {
                                Action::Send(f) if f.packet.kind() == PacketKind::Req => {
                                    Some(f.packet.meta)
                                }
                                _ => None,
                            })
                            .collect();
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
                let pending: BTreeSet<MetaId> = n.pending.keys().copied().collect();
                prop_assert_eq!(pending, model);
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
        let (zones, routing) = fixture();
        let v = view(&zones, &routing, 1);
        let prefix = sink_prefix(&v);
        let own = MetaId::new(NodeId::new(1), 0);
        let req = |meta| Packet {
            meta,
            from: NodeId::new(0),
            payload: Payload::Req {
                origin: NodeId::new(0),
                target: NodeId::new(1),
                path: vec![NodeId::new(0)],
            },
        };
        let mut n = SpinNode::new(true, 4);
        let mut appended = vec![
            assert_appends_only(&mut n, &prefix, |n, out| n.on_generate(&v, own, out)),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &adv_from(0), true, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &adv_from(2), true, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_timer(&v, meta(), TimerKind::DataWait, 1, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &req(own), false, out);
            }),
        ];
        n.on_failed();
        appended.extend([
            assert_appends_only(&mut n, &prefix, |n, out| n.on_repaired(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_routes_rebuilt(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &data_from(0, 1), true, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_packet(&v, &data_from(2, 1), true, out);
            }),
        ]);
        let mut bc = SpinNode::new(false, 4).with_broadcast_data();
        bc.on_generate(&v, own, &mut Vec::new());
        appended.push(assert_appends_only(&mut bc, &prefix, |n, out| {
            n.on_packet(&v, &req(own), false, out);
        }));
        let quiet: Vec<usize> = (0..appended.len())
            .filter(|&i| appended[i].is_empty())
            .collect();
        // The suppressed second ADV and the reroute append nothing.
        assert_eq!(quiet, [2, 6]);
    }
}
