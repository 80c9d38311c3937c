//! Every simulated `repro` target at smoke scale, timed through the sweep
//! plan: one bench id per target, each plan running only the sweeps its
//! target reads. Each target's figures are printed once before it is
//! timed, so `cargo bench` doubles as a figure-regeneration smoke pass.

use criterion::{criterion_group, criterion_main, Criterion};
use spms_bench::{render, show};
use spms_workloads::figures::TARGETS;
use spms_workloads::SweepConfig;

fn bench(c: &mut Criterion) {
    let sweep = SweepConfig::auto();
    for target in TARGETS.iter().filter(|t| !t.sweeps.is_empty()) {
        render(target.id, &sweep).iter().for_each(show);
        c.bench_function(target.id, |b| {
            b.iter(|| std::hint::black_box(render(target.id, &sweep)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
