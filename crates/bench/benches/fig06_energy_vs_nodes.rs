//! Figure 6: simulated energy per packet vs node count (SPMS vs SPIN,
//! static failure-free, radius 20 m).

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    let (f6, _) = figures::fig6_fig8(&scale, 42, &sweep);
    show(&f6);
    c.bench_function("fig06_energy_vs_nodes", |b| {
        b.iter(|| std::hint::black_box(figures::fig6_fig8(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
