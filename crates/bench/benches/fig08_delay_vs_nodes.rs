//! Figure 8: simulated end-to-end delay vs node count.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    let (_, f8) = figures::fig6_fig8(&scale, 42, &sweep);
    show(&f8);
    c.bench_function("fig08_delay_vs_nodes", |b| {
        b.iter(|| std::hint::black_box(figures::fig6_fig8(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
