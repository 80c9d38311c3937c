//! Figure 10: delay vs node count with transient failures (F-SPMS/F-SPIN
//! against their failure-free baselines).

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    show(&figures::fig10(&scale, 42, &sweep));
    c.bench_function("fig10_failures_vs_nodes", |b| {
        b.iter(|| std::hint::black_box(figures::fig10(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
