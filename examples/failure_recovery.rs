//! The paper's Figure 2 failure walkthrough, step by step.
//!
//! Topology: `A — r1 — r2 — C` in a line (5 m apart, all in each other's
//! zone). This example drives the SPMS state machine directly — the same
//! code the simulator runs — to show the PRONE/SCONE bookkeeping and the
//! failover ladder of §3.4/§3.5.
//!
//! ```text
//! cargo run -p spms-workloads --example failure_recovery
//! ```

use spms::{
    Action, MetaId, NodeView, Packet, Payload, Protocol, SpmsNode, SpmsParams, Timeouts, TimerKind,
};
use spms_kernel::SimTime;
use spms_net::{placement, NodeId, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{oracle_tables, RoutingTable};

/// Prints the actions a hook appended, emptying the sink for the next one.
fn show(actions: &mut Vec<Action>) {
    for a in actions.drain(..) {
        match a {
            Action::Send(f) => println!(
                "      -> sends {:?} to {:?} at {}",
                f.packet.kind(),
                f.to,
                f.level
            ),
            Action::SetTimer { kind, after, .. } => {
                println!("      -> arms {kind:?} for {after}");
            }
            Action::Delivered { meta } => println!("      -> DELIVERED {meta}"),
            Action::Abandoned { meta } => println!("      -> abandoned {meta}"),
            Action::Duplicate { meta } => println!("      -> duplicate {meta}"),
        }
    }
}

fn main() -> Result<(), String> {
    let topo = placement::grid(4, 1, 5.0)?;
    let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
    let tables: Vec<RoutingTable> = oracle_tables(&zones, 2);
    let a = NodeId::new(0);
    let r1 = NodeId::new(1);
    let r2 = NodeId::new(2);
    let c = NodeId::new(3);
    let meta = MetaId::new(a, 0);
    let timeouts = Timeouts {
        adv: SimTime::from_millis(1),
        dat: SimTime::from_millis_f64(2.5),
    };
    let view_c = NodeView {
        node: c,
        now: SimTime::ZERO,
        zones: &zones,
        routing: &tables[c.index()],
        timeouts,
        battery_frac: 1.0,
        low_battery_threshold: 0.0,
    };
    let adv_from = |from: NodeId| Packet {
        meta,
        from,
        payload: Payload::Adv,
    };
    let mut out = Vec::new();

    println!("Figure 2 topology: A(n0) — r1(n1) — r2(n2) — C(n3), 5 m hops\n");

    // ---------------------------------------------------------------
    println!("Case 2 of §3.5: r2 advertises, then fails");
    let mut node_c = SpmsNode::new(SpmsParams::default());

    println!("  C hears A's ADV (15 m away, not a next-hop neighbor):");
    node_c.on_packet(&view_c, &adv_from(a), true, &mut out);
    show(&mut out);
    println!(
        "      PRONE = {:?}, SCONE = {:?}",
        node_c.prone(meta),
        node_c.scone(meta)
    );

    println!("  C hears r1's ADV (closer, still not adjacent → τADV restarts):");
    node_c.on_packet(&view_c, &adv_from(r1), true, &mut out);
    show(&mut out);
    println!(
        "      PRONE = {:?}, SCONE = {:?}",
        node_c.prone(meta),
        node_c.scone(meta)
    );

    println!("  C hears r2's ADV (adjacent → request immediately):");
    node_c.on_packet(&view_c, &adv_from(r2), true, &mut out);
    show(&mut out);
    println!(
        "      PRONE = {:?}, SCONE = {:?}",
        node_c.prone(meta),
        node_c.scone(meta)
    );

    println!("  r2 has failed; C's τDAT expires → fail over to the SCONE (r1), direct:");
    node_c.on_timer(&view_c, meta, TimerKind::DataWait, 1, &mut out);
    show(&mut out);

    // ---------------------------------------------------------------
    println!("\nCase 1 of §3.5: r2 fails before advertising");
    let mut node_c = SpmsNode::new(SpmsParams::default());

    println!("  C hears r1's ADV only (r2 is down):");
    node_c.on_packet(&view_c, &adv_from(r1), true, &mut out);
    show(&mut out);

    println!("  τADV expires → REQ to PRONE r1 along the shortest path (via r2, dead):");
    node_c.on_timer(&view_c, meta, TimerKind::AdvWait, 1, &mut out);
    show(&mut out);

    println!("  τDAT expires → REQ directly to PRONE r1 at higher power:");
    node_c.on_timer(&view_c, meta, TimerKind::DataWait, 1, &mut out);
    show(&mut out);

    println!("  r1 serves; C receives the data:");
    let data = Packet {
        meta,
        from: r1,
        payload: Payload::Data {
            dest: c,
            route: vec![],
        },
    };
    node_c.on_packet(&view_c, &data, true, &mut out);
    show(&mut out);
    println!("\nC holds the data: {}", node_c.has_data(meta));
    Ok(())
}
