//! Microbenchmark of the failure hooks: one `on_failed` + `on_repaired`
//! flip of an SPMS node that holds N delivered items and still waits on
//! 4. The hooks' cost contract is that the work follows the unresolved
//! items, not the held ones, so the CI ratio gate holds
//! `core/failure_flip_1690 / core/failure_flip_400` at ≤ 1.5. 1,690 is
//! the most items a node tracks at paper scale.
//!
//! One sample times a batch of flips, long enough (≥ 50 µs) for the
//! timer to resolve it.

use criterion::{criterion_group, criterion_main, Criterion};
use spms::{Action, MetaId, NodeView, Packet, Payload, Protocol, SpmsNode, SpmsParams, Timeouts};
use spms_kernel::SimTime;
use spms_net::{placement, NodeId, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{oracle_tables, RoutingTable};

/// Items still in flight at the flipped node.
const PENDING: u32 = 4;

/// Flips per timed sample.
const FLIPS_PER_SAMPLE: u32 = 100;

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

fn packet(meta: MetaId, from: u32, payload: Payload) -> Packet {
    Packet {
        meta,
        from: NodeId::new(from),
        payload,
    }
}

/// Node 3 of a 5-node line after `held` ADV + DATA deliveries and
/// [`PENDING`] ADVs still awaiting DATA, the items interleaved in
/// `MetaId` order.
fn node_holding(view: &NodeView<'_>, held: u32) -> SpmsNode {
    let mut node = SpmsNode::new(SpmsParams::default());
    let data = Payload::Data {
        dest: NodeId::new(3),
        route: vec![],
    };
    let stride = held / PENDING;
    for seq in 0..held + PENDING {
        let meta = MetaId::new(NodeId::new(seq % 5), seq);
        node.on_packet(view, &packet(meta, 2, Payload::Adv), true, &mut Vec::new());
        let pending = seq % (stride + 1) == stride;
        if !pending {
            node.on_packet(view, &packet(meta, 2, data.clone()), true, &mut Vec::new());
        }
    }
    assert_eq!(node.items_held(), held as usize);
    node
}

fn bench_failure_flip(c: &mut Criterion) {
    let topo = placement::grid(5, 1, 5.0).expect("line topology");
    let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
    let tables = oracle_tables(&zones, 2);
    let view = view(&zones, &tables[3], 3);
    for held in [400, 1690] {
        let mut node = node_holding(&view, held);
        // One sink reused across flips, as the engine reuses its own.
        let mut actions = Vec::new();
        c.bench_function(&format!("core/failure_flip_{held}"), |b| {
            b.iter(|| {
                let mut reqs = 0;
                for _ in 0..FLIPS_PER_SAMPLE {
                    node.on_failed();
                    actions.clear();
                    node.on_repaired(&view, &mut actions);
                    reqs += actions
                        .iter()
                        .filter(|a| matches!(a, Action::Send(_)))
                        .count();
                }
                assert_eq!(reqs, (PENDING * FLIPS_PER_SAMPLE) as usize);
                reqs
            })
        });
    }
}

criterion_group!(benches, bench_failure_flip);
criterion_main!(benches);
