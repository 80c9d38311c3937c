//! Routing-layer integration: the distributed Bellman-Ford agrees with the
//! centralized oracle on real topologies, and its cost scales the way §3.2
//! argues.

use spms_kernel::SimRng;
use spms_net::{dijkstra, placement, NodeId, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{oracle_tables, DbfEngine};

fn zones_for(cols: usize, rows: usize, radius: f64) -> ZoneTable {
    let topo = placement::grid(cols, rows, 5.0).unwrap();
    ZoneTable::build(&topo, &RadioProfile::mica2(), radius)
}

#[test]
fn dbf_matches_oracle_on_the_reference_grid() {
    let zones = zones_for(7, 7, 20.0);
    let mut dbf = DbfEngine::new(&zones, 2);
    dbf.run_to_convergence(&zones);
    let oracle = oracle_tables(&zones, 2);
    for (i, table) in oracle.iter().enumerate() {
        let node = NodeId::new(i as u32);
        for dest in table.destinations() {
            let want = table.best(dest).unwrap();
            let got = dbf
                .table(node)
                .best(dest)
                .unwrap_or_else(|| panic!("{node} lost route to {dest}"));
            assert_eq!(got.via, want.via, "{node}→{dest}");
            assert!((got.cost - want.cost).abs() < 1e-9);
        }
    }
}

#[test]
fn dbf_matches_oracle_on_random_topologies() {
    for seed in 0..5u64 {
        let mut rng = SimRng::new(seed);
        let topo = placement::uniform_random(40, 5.0, &mut rng).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
        let mut dbf = DbfEngine::new(&zones, 2);
        dbf.run_to_convergence(&zones);
        let oracle = oracle_tables(&zones, 2);
        for (i, table) in oracle.iter().enumerate() {
            let node = NodeId::new(i as u32);
            let want: Vec<NodeId> = table.destinations().collect();
            let got: Vec<NodeId> = dbf.table(node).destinations().collect();
            assert_eq!(want, got, "seed {seed}, node {node}: destination sets");
            for dest in want {
                let a = table.best(dest).unwrap();
                let b = dbf.table(node).best(dest).unwrap();
                assert!((a.cost - b.cost).abs() < 1e-9, "seed {seed}: {node}→{dest}");
            }
        }
    }
}

#[test]
fn convergence_cost_grows_with_zone_size() {
    // §3.2: "as the transmission radius increases … the overhead of the
    // Bellman-Ford algorithm increases."
    let small = zones_for(9, 9, 10.0);
    let large = zones_for(9, 9, 25.0);
    let mut dbf_s = DbfEngine::new(&small, 2);
    let mut dbf_l = DbfEngine::new(&large, 2);
    let cost_s = dbf_s.run_to_convergence(&small);
    let cost_l = dbf_l.run_to_convergence(&large);
    assert!(cost_l.bytes_total > cost_s.bytes_total);
    assert!(cost_l.entries_sent > cost_s.entries_sent);
}

#[test]
fn next_hop_graph_toward_any_destination_is_loop_free() {
    // Following best-route next hops toward a destination must terminate —
    // the property SPMS forwarding relies on.
    let zones = zones_for(6, 6, 20.0);
    let tables = oracle_tables(&zones, 2);
    for dest_idx in 0..zones.len() {
        let dest = NodeId::new(dest_idx as u32);
        for start_idx in 0..zones.len() {
            let mut cur = NodeId::new(start_idx as u32);
            let mut hops = 0;
            while cur != dest {
                let Some(route) = tables[cur.index()].best(dest) else {
                    break; // out of zone: no route expected
                };
                cur = route.via;
                hops += 1;
                assert!(hops <= zones.len(), "loop toward {dest} from {start_idx}");
            }
        }
    }
}

#[test]
fn shortest_paths_prefer_minimum_power_chains() {
    // On the grid, the cheapest route between distant zone members uses
    // 5 m (minimum-power) hops exclusively.
    let zones = zones_for(5, 1, 20.0);
    let dist = dijkstra(&zones, NodeId::new(0));
    let pc = dist[4].unwrap();
    let min_power = RadioProfile::mica2().power_mw(RadioProfile::mica2().min_power_level());
    assert!((pc.cost - 4.0 * min_power).abs() < 1e-12);
}

#[test]
fn masked_reruns_reflect_failed_relays() {
    let zones = zones_for(5, 1, 20.0);
    let mut alive = vec![true; 5];
    alive[2] = false; // the middle relay is down
    let mut dbf = DbfEngine::new(&zones, 2);
    dbf.rebuild_sharded(&zones, &alive);
    // Node 0 still reaches node 4 (20 m apart: direct at max level) but no
    // route may pass through the dead node 2.
    let best = dbf.table(NodeId::new(0)).best(NodeId::new(4)).unwrap();
    let mut cur = NodeId::new(0);
    let mut path = vec![cur];
    while cur != NodeId::new(4) {
        cur = dbf.table(cur).best(NodeId::new(4)).unwrap().via;
        path.push(cur);
        assert!(path.len() <= 6);
    }
    assert!(
        !path.contains(&NodeId::new(2)),
        "path {path:?} uses the dead relay"
    );
    assert!(best.cost > 0.0);
}
