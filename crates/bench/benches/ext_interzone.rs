//! EXT1: the §6 inter-zone dissemination extension — delivery and energy
//! on pipeline fields where base SPMS cannot deliver at all, plus TTL and
//! path-diversity ablations.

use criterion::{criterion_group, criterion_main, Criterion};
use spms::{ProtocolKind, SimConfig, Simulation};
use spms_bench::{bench_scale, show};
use spms_kernel::SimTime;
use spms_net::{placement, FailureConfig, NodeId};
use spms_workloads::{figures, traffic, SweepConfig};

fn pipeline_run(
    ttl: Option<u32>,
    paths_kept: usize,
    failures: bool,
    seed: u64,
) -> spms::RunMetrics {
    let topo = placement::grid(25, 1, 5.0).unwrap();
    let mut c = SimConfig::paper_defaults(ProtocolKind::SpmsIz, seed);
    c.interzone.ttl = ttl;
    c.interzone.paths_kept = paths_kept;
    c.horizon = SimTime::from_secs(120);
    if failures {
        c.failures = Some(FailureConfig {
            mean_interarrival: SimTime::from_millis(50),
            repair_min: SimTime::from_millis(5),
            repair_max: SimTime::from_millis(15),
        });
        c.max_attempts = 8;
    }
    let plan = traffic::pipeline(
        NodeId::new(0),
        &[NodeId::new(24)],
        2,
        SimTime::from_millis(500),
    )
    .unwrap();
    Simulation::run_with(c, topo, plan).unwrap()
}

/// Bordercast TTL sensitivity: too small strands the sink, auto covers it.
fn ablation_ttl() {
    println!("\n== ablation: bordercast TTL on the 120 m pipeline ==");
    for (label, ttl) in [
        ("ttl=1", Some(1)),
        ("ttl=3", Some(3)),
        ("ttl=5", Some(5)),
        ("auto (eccentricity)", None),
    ] {
        let m = pipeline_run(ttl, 2, false, 11);
        println!(
            "  {label:<22} delivery {:>5.1}%  ADVs {:>4}  energy {:>8.3} µJ",
            100.0 * m.delivery_ratio(),
            m.messages.adv.value(),
            m.energy.total().value(),
        );
    }
}

/// Path diversity under transient failures: more remembered border paths
/// give the τDAT rotation more alternatives.
fn ablation_paths() {
    println!("\n== ablation: inter-zone path diversity under failures ==");
    for paths in [1usize, 2, 4] {
        let mut delivered = 0u64;
        let mut expected = 0u64;
        for seed in 0..8u64 {
            let m = pipeline_run(None, paths, true, 100 + seed);
            delivered += m.deliveries;
            expected += m.deliveries_expected;
        }
        println!("  paths_kept={paths}   delivered {delivered}/{expected} across 8 seeds");
    }
}

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    let (a, b) = figures::ext1(&scale, 42, &sweep);
    show(&a);
    show(&b);
    ablation_ttl();
    ablation_paths();
    c.bench_function("ext1_interzone_pipeline", |bch| {
        bch.iter(|| std::hint::black_box(pipeline_run(None, 2, false, 42)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
