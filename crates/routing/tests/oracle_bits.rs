//! The Dijkstra oracle's tables, pinned bit for bit.
//!
//! Every other oracle test compares route costs within `1e-9`, so none of
//! them sees a change in the last bit of a cost. This one hashes the
//! `Debug` rendering of [`oracle_tables_masked`] with FNV-1a: `f64`'s
//! `Debug` output round-trips, so the rendering names every bit of every
//! cost, next to each route's destination, next hop and hop count. The
//! fields are fixed `placement::uniform_random` draws — 25, 64 and 100
//! nodes at 5 m mean spacing, zone radii 5, 10, 20 and 30 m, `k` = 1, 2
//! and 3, once with every node alive and once with every seventh node
//! dead. The digests were recorded from the dense per-destination Dijkstra
//! construction the oracle replaced; any change to the search's tie rules,
//! its relaxation order or the block kernel's offer order moves them.

use std::fmt::{self, Write};

use spms_kernel::SimRng;
use spms_net::{placement, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::oracle_tables_masked;

/// `(nodes, zone radius in m, digest)`: one digest per field and radius,
/// over the six builds `k` = 1, 2, 3 × (all alive, every seventh dead).
const RECORDED: [(usize, f64, u64); 12] = [
    (25, 5.0, 0xfd93_ff09_5ffb_16b5),
    (25, 10.0, 0x5484_d72b_8655_413c),
    (25, 20.0, 0xe57d_30d7_7a60_2889),
    (25, 30.0, 0xb2ec_7e47_ee88_62e1),
    (64, 5.0, 0xb714_5bc8_454f_5f37),
    (64, 10.0, 0xb41e_9911_20e0_090a),
    (64, 20.0, 0x15ba_5719_f253_286a),
    (64, 30.0, 0x7559_0b79_b36a_fdf4),
    (100, 5.0, 0xafbc_7064_879f_4f3b),
    (100, 10.0, 0x79e2_e308_b7c9_3d3c),
    (100, 20.0, 0x662e_e7e8_c143_8c60),
    (100, 30.0, 0x6648_9eeb_c00e_6dbb),
];

/// 64-bit FNV-1a over everything written to it.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(n: usize, radius: f64) -> u64 {
    let topo = placement::uniform_random(n, 5.0, &mut SimRng::new(19)).unwrap();
    let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), radius);
    let all_alive = vec![true; n];
    let some_dead: Vec<bool> = (0..n).map(|i| i % 7 != 3).collect();
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for k in 1..=3 {
        for alive in [&all_alive, &some_dead] {
            write!(h, "{:?}", oracle_tables_masked(&zones, k, alive)).unwrap();
        }
    }
    h.0
}

#[test]
fn oracle_tables_keep_their_recorded_bits() {
    let mut moved = Vec::new();
    for &(n, radius, recorded) in &RECORDED {
        let got = digest(n, radius);
        if got != recorded {
            moved.push(format!(
                "n = {n}, r = {radius} m: {got:#018x}, recorded {recorded:#018x}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "oracle tables changed bits:\n{}",
        moved.join("\n")
    );
}
