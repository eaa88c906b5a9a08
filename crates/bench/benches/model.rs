//! Performance-model microbenchmarks: the per-candidate evaluation cost
//! charged by the planner.

use criterion::{criterion_group, criterion_main, Criterion};
use tahoe_hms::presets;
use tahoe_memprof::Calibration;
use tahoe_perfmodel::{dram_benefit_ns, predicted_mem_time_ns, Demand};

fn bench_model(c: &mut Criterion) {
    let dram = presets::dram(1 << 28);
    let nvm = presets::optane_pmm(1 << 34);
    let calib = Calibration::identity(2.3, 9.5);
    let d = Demand {
        loads: 1.3e6,
        stores: 0.7e6,
        active_ns: 4.2e7,
        concurrency: 9.0,
    };
    c.bench_function("dram_benefit", |b| {
        b.iter(|| dram_benefit_ns(std::hint::black_box(&d), &nvm, &dram, &calib, true))
    });
    c.bench_function("predicted_mem_time", |b| {
        b.iter(|| predicted_mem_time_ns(std::hint::black_box(&d), &nvm, &calib, true))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_model
}
criterion_main!(benches);
