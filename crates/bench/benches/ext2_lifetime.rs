//! EXT2: the network-lifetime view — hottest-node energy per packet vs
//! transmission radius, built on the engine's per-node energy accounting.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{bench_scale, show};
use spms_workloads::{figures, SweepConfig};

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let sweep = SweepConfig::auto();
    show(&figures::ext2(&scale, 42, &sweep));
    show(&figures::ext3(&scale, 42, &sweep));
    c.bench_function("ext2_lifetime", |b| {
        b.iter(|| std::hint::black_box(figures::ext2(&scale, 42, &sweep)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
