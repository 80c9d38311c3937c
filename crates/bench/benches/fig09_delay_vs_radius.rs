//! Figure 9: simulated end-to-end delay vs transmission radius.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    let (_, f9) = figures::fig7_fig9(&scale, 42, &sweep);
    show(&f9);
    c.bench_function("fig09_delay_vs_radius", |b| {
        b.iter(|| std::hint::black_box(figures::fig7_fig9(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
