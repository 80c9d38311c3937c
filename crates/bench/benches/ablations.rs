//! Ablation benches for the simulator's modelling choices: k routes and
//! SCONE depth, relay caching, MAC contention, the τADV factor, the SPIN
//! baseline variant, and idle-listening accounting.
//!
//! Each ablation runs the same workload under configuration variants and
//! prints the outcome deltas (delivery, energy, delay) before timing one
//! representative configuration. The printed tables are the scientific
//! payload; the timings confirm none of the variants is pathologically
//! slow.

use criterion::{criterion_group, criterion_main, Criterion};
use spms::{ProtocolKind, SimConfig, Simulation, TimeoutPolicy};
use spms_kernel::SimTime;
use spms_mac::ContentionModel;
use spms_net::{placement, FailureConfig};
use spms_workloads::traffic;

fn workload(seed: u64) -> (spms_net::Topology, spms::TrafficPlan) {
    let topo = placement::grid(5, 5, 5.0).unwrap();
    let plan = traffic::all_to_all(25, 2, SimTime::from_millis(300), seed).unwrap();
    (topo, plan)
}

fn run(config: SimConfig) -> spms::RunMetrics {
    let (topo, plan) = workload(config.seed);
    Simulation::run_with(config, topo, plan).unwrap()
}

fn print_row(label: &str, m: &spms::RunMetrics) {
    println!(
        "  {label:<28} delivery {:>6.1}%  dup {:>5}  energy {:>8.2} µJ/pkt  delay {:>8.2} ms",
        100.0 * m.delivery_ratio(),
        m.duplicates,
        m.energy_per_packet_uj(),
        m.avg_delay_ms()
    );
}

/// k-route / SCONE depth under heavy transient failures (§3.2: "n entries
/// tolerate n concurrent failures").
fn ablation_kroutes() {
    println!("\n== ablation: k routes × SCONE depth under heavy failures ==");
    for (k, scones) in [(1usize, 0usize), (2, 1), (3, 2)] {
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spms, 7);
        c.k_routes = k;
        c.scones_kept = scones;
        c.failures = Some(FailureConfig {
            mean_interarrival: SimTime::from_millis(15),
            ..FailureConfig::paper_defaults()
        });
        let m = run(c);
        print_row(&format!("k={k}, scones={scones}"), &m);
    }
}

/// Relay caching and serve-from-cache (§6 future work).
fn ablation_relay_cache() {
    println!("\n== ablation: relay caching (paper §6 future work) ==");
    for (caching, serve) in [(false, false), (true, false), (true, true)] {
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spms, 8);
        c.relay_caching = caching;
        c.serve_from_cache = serve;
        c.failures = Some(FailureConfig::paper_defaults());
        let m = run(c);
        print_row(&format!("cache={caching}, serve={serve}"), &m);
    }
}

/// MAC contention models: the §4 analytical quadratic law vs the Table 1
/// slotted backoff.
fn ablation_mac() {
    println!("\n== ablation: MAC contention model (SPMS vs SPIN delay) ==");
    for model in [
        ContentionModel::Quadratic,
        ContentionModel::QuadraticWithBackoff,
        ContentionModel::BackoffOnly,
    ] {
        for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
            let mut c = SimConfig::paper_defaults(protocol, 9);
            c.contention = model;
            let m = run(c);
            print_row(&format!("{} / {}", model.label(), m.protocol), &m);
        }
    }
}

/// τADV sensitivity: the "wait for a closer advertiser" heuristic.
fn ablation_adv_wait() {
    println!("\n== ablation: τADV factor (SPMS waiting heuristic) ==");
    for factor in [0.25, 1.25, 4.0] {
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spms, 10);
        c.timeout_policy = TimeoutPolicy::Adaptive {
            adv_factor: factor,
            dat_factor: 2.0,
        };
        let m = run(c);
        print_row(&format!("adv_factor={factor}"), &m);
    }
}

/// SPIN baseline variants: pure SPIN-PP, suppressed/retry, and SPIN-BC
/// (broadcast DATA).
fn ablation_spin_variants() {
    println!("\n== ablation: SPIN baseline variant ==");
    for (suppression, broadcast, label) in [
        (false, false, "pure SPIN-PP"),
        (true, false, "suppressed + retry"),
        (true, true, "SPIN-BC (broadcast DATA)"),
    ] {
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spin, 11);
        c.spin_req_suppression = suppression;
        c.spin_broadcast_data = broadcast;
        let m = run(c);
        print_row(label, &m);
    }
}

/// Idle-listening accounting: real motes pay receive-level power whenever
/// the radio is on, compressing protocol-level energy ratios toward the
/// paper's published 26–43% band.
fn ablation_idle_listening() {
    println!("\n== ablation: idle-listening accounting (SPMS vs SPIN ratio) ==");
    for idle in [None, Some(0.0125), Some(0.05)] {
        let mut ratio_at = Vec::new();
        for protocol in [ProtocolKind::Spin, ProtocolKind::Spms] {
            let mut c = SimConfig::paper_defaults(protocol, 13);
            c.idle_listening_mw = idle;
            ratio_at.push(run(c).energy_per_packet_uj());
        }
        let savings = 100.0 * (1.0 - ratio_at[1] / ratio_at[0]);
        println!(
            "  idle={:<12} SPIN {:>8.2} µJ/pkt, SPMS {:>8.2} µJ/pkt, savings {savings:>5.1}%",
            idle.map_or("off".to_string(), |p| format!("{p} mW")),
            ratio_at[0],
            ratio_at[1]
        );
    }
}

fn bench(c: &mut Criterion) {
    ablation_kroutes();
    ablation_relay_cache();
    ablation_mac();
    ablation_adv_wait();
    ablation_spin_variants();
    ablation_idle_listening();

    c.bench_function("ablation_reference_run", |b| {
        b.iter(|| {
            let config = SimConfig::paper_defaults(ProtocolKind::Spms, 12);
            std::hint::black_box(run(config))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
