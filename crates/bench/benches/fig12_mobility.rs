//! Figure 12: energy vs transmission radius under mobility, with SPMS
//! charged for every distributed Bellman-Ford re-execution.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    show(&figures::fig12(&scale, 42, &sweep));
    c.bench_function("fig12_mobility", |b| {
        b.iter(|| std::hint::black_box(figures::fig12(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
