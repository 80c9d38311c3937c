//! Figure 13: energy vs transmission radius for cluster-based hierarchical
//! communication, failure-free and with transient failures.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    show(&figures::fig13(&scale, 42, &sweep));
    c.bench_function("fig13_cluster", |b| {
        b.iter(|| std::hint::black_box(figures::fig13(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
