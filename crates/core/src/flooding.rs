//! Classic flooding — the strawman baseline the paper's introduction
//! motivates against.
//!
//! "The baseline protocol can be considered to be flooding or broadcast,
//! where each node retransmits the data it receives to all its neighbors
//! … However, it results in data implosion with the destination getting
//! multiple data packets from multiple paths." There is no negotiation:
//! full DATA packets are broadcast zone-wide and rebroadcast once per node.

use crate::{
    Action, Addressee, DataStore, MetaId, NodeView, OutFrame, Packet, Payload, Protocol, TimerKind,
};

/// Flooding protocol state for one node: a node rebroadcasts exactly the
/// items it stores, once, when it first stores them.
#[derive(Clone, Debug, Default)]
pub struct FloodingNode {
    store: DataStore,
}

impl FloodingNode {
    /// Creates a node.
    #[must_use]
    pub fn new() -> Self {
        FloodingNode::default()
    }

    /// Number of data items held.
    #[must_use]
    pub fn items_held(&self) -> usize {
        self.store.len()
    }

    fn broadcast_data(view: &NodeView<'_>, meta: MetaId) -> Action {
        Action::Send(OutFrame {
            to: Addressee::Broadcast,
            level: view.zones.adv_level(),
            packet: Packet {
                meta,
                from: view.node,
                payload: Payload::Data {
                    dest: view.node, // ignored for broadcasts
                    route: vec![],
                },
            },
        })
    }
}

impl Protocol for FloodingNode {
    fn on_generate(&mut self, view: &NodeView<'_>, meta: MetaId, out: &mut Vec<Action>) {
        if self.store.insert(meta) {
            out.push(Self::broadcast_data(view, meta));
        }
    }

    fn on_packet(
        &mut self,
        view: &NodeView<'_>,
        packet: &Packet,
        interested: bool,
        out: &mut Vec<Action>,
    ) {
        if !matches!(packet.payload, Payload::Data { .. }) {
            return; // flooding has no ADV/REQ
        }
        let meta = packet.meta;
        if self.store.insert(meta) {
            if interested {
                out.push(Action::Delivered { meta });
            }
            out.push(Self::broadcast_data(view, meta));
        } else {
            // The implosion the paper's introduction describes.
            out.push(Action::Duplicate { meta });
        }
    }

    fn on_timer(
        &mut self,
        _view: &NodeView<'_>,
        _meta: MetaId,
        _kind: TimerKind,
        _gen: u32,
        _out: &mut Vec<Action>,
    ) {
        // Flooding uses no timers.
    }

    fn on_failed(&mut self) {}

    fn on_repaired(&mut self, _view: &NodeView<'_>, _out: &mut Vec<Action>) {}

    fn has_data(&self, meta: MetaId) -> bool {
        self.store.contains(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        assert_appends_only, assert_delivered_items_held, assert_plain_advs_change_nothing,
        collect, sink_prefix,
    };
    use crate::{PacketKind, Timeouts};
    use spms_kernel::SimTime;
    use spms_net::{placement, NodeId, ZoneTable};
    use spms_phy::RadioProfile;
    use spms_routing::RoutingTable;

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
                dat: SimTime::from_millis(2),
            },
            battery_frac: 1.0,
            low_battery_threshold: 0.0,
        }
    }

    fn meta() -> MetaId {
        MetaId::new(NodeId::new(0), 0)
    }

    #[test]
    fn generate_broadcasts_full_data() {
        let (zones, routing) = fixture();
        let mut n = FloodingNode::new();
        let v = view(&zones, &routing, 0);
        let actions = collect(|out| n.on_generate(&v, meta(), out));
        assert_eq!(actions.len(), 1);
        assert!(matches!(&actions[0], Action::Send(f)
            if f.packet.kind() == PacketKind::Data && f.to == Addressee::Broadcast));
    }

    #[test]
    fn first_copy_delivers_and_rebroadcasts_once() {
        let (zones, routing) = fixture();
        let mut n = FloodingNode::new();
        let v = view(&zones, &routing, 1);
        let data = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::Data {
                dest: NodeId::new(0),
                route: vec![],
            },
        };
        let actions = collect(|out| n.on_packet(&v, &data, true, out));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Delivered { .. })));
        assert!(actions.iter().any(|a| matches!(a, Action::Send(_))));
        // Second copy: duplicate, no rebroadcast.
        let again = collect(|out| n.on_packet(&v, &data, true, out));
        assert_eq!(again.len(), 1);
        assert!(matches!(again[0], Action::Duplicate { .. }));
    }

    #[test]
    fn ignores_control_packets_and_timers() {
        let (zones, routing) = fixture();
        let mut n = FloodingNode::new();
        let v = view(&zones, &routing, 1);
        let adv = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::Adv,
        };
        assert!(collect(|out| n.on_packet(&v, &adv, true, out)).is_empty());
        assert!(collect(|out| n.on_timer(&v, meta(), TimerKind::AdvWait, 1, out)).is_empty());
        assert!(collect(|out| n.on_repaired(&v, out)).is_empty());
    }

    #[test]
    fn plain_advs_change_nothing_where_the_engine_skips_them() {
        let (zones, routing) = fixture();
        let v = view(&zones, &routing, 1);
        let advertisers = [0, 2].map(NodeId::new);
        let mut n = FloodingNode::new();
        assert_plain_advs_change_nothing(&mut n, &v, meta(), &advertisers, false);
        let data = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::Data {
                dest: NodeId::new(0),
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
    fn hooks_only_append_to_the_sink() {
        let (zones, routing) = fixture();
        let v = view(&zones, &routing, 1);
        let prefix = sink_prefix(&v);
        let data = Packet {
            meta: meta(),
            from: NodeId::new(0),
            payload: Payload::Data {
                dest: NodeId::new(0),
                route: vec![],
            },
        };
        let mut n = FloodingNode::new();
        let own = MetaId::new(NodeId::new(1), 0);
        let appended = [
            assert_appends_only(&mut n, &prefix, |n, out| n.on_generate(&v, own, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_packet(&v, &data, true, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_packet(&v, &data, true, out)),
            assert_appends_only(&mut n, &prefix, |n, out| {
                n.on_timer(&v, meta(), TimerKind::AdvWait, 1, out);
            }),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_repaired(&v, out)),
            assert_appends_only(&mut n, &prefix, |n, out| n.on_routes_rebuilt(&v, out)),
        ];
        let lens: Vec<usize> = appended.iter().map(Vec::len).collect();
        assert_eq!(lens, [1, 2, 1, 0, 0, 0]);
    }
}
