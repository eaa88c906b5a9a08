//! Set-up microbenchmarks: what a measured Tahoe run of `plan_heavy`
//! pays before its first task, split where the run splits it.
//!
//! A run allocates on the calling thread; then a helper thread fills
//! the arenas while the calling thread plans and lays the graph out.
//! Only the first half is on the call's critical path while the fill
//! is the longer of the two. Timing the halves apart pins a set-up
//! regression to its layer:
//!
//! | case                              | what one iteration does |
//! |-----------------------------------|-------------------------|
//! | `prepare/plan_heavy/alloc`        | validate, map the arenas, allocate 8192 × 8 KiB on NVM, price every access, share the heap — and drop it all, as a run does after its wall |
//! | `prepare/plan_heavy/plan+layout`  | the one `Planner` (values, the knapsack, the rotation planner, lowering, the audit), then `GraphLayout::new` over a copy of the prices |
//!
//! The app is `benchmark/src/gen.rs`'s `plan_heavy` shape (a fixed deal
//! instead of the seeded one) on the benchmark's pinned calibration:
//! the presets, both correction factors 1, DRAM a quarter of the
//! footprint.

use criterion::{criterion_group, criterion_main, Criterion};
use tahoe_core::app::{App, AppBuilder};
use tahoe_core::config::Platform;
use tahoe_core::engine::GraphLayout;
use tahoe_core::measured::{MeasuredRuntime, Planner};
use tahoe_core::policy::PolicyKind;
use tahoe_hms::{presets, SharedHms};
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};

/// 8192 objects of 8 KiB, half updated and half read, a quarter
/// touched in each of six windows, the rest in every third.
fn plan_heavy() -> App {
    const OBJECTS: usize = 8192;
    const SIZE: u64 = 8 << 10;
    let mut b = AppBuilder::new("plan_heavy");
    let ids: Vec<_> = (0..OBJECTS)
        .map(|i| b.object(&format!("p{i}"), SIZE))
        .collect();
    let class = b.class("short");
    for w in 0..6u32 {
        if w > 0 {
            b.next_window();
        }
        for (i, &id) in ids.iter().enumerate() {
            let s = i * 2_654_435_761 % OBJECTS;
            if !s.is_multiple_of(4) && s as u32 % 3 != w % 3 {
                continue;
            }
            let t = b.task(class);
            match s % 2 {
                0 => t.update_streaming(id, SIZE / 64),
                _ => t.read_streaming(id, SIZE / 64),
            }
            .submit();
        }
    }
    b.build()
}

fn bench_prepare(c: &mut Criterion) {
    let app = plan_heavy();
    let (dram, nvm) = (app.footprint() / 4, 2 * app.footprint());
    let mut cal = WallClockCalibration::synthetic(dram, nvm);
    (cal.dram, cal.nvm) = (presets::dram(dram), presets::optane_pmm(nvm));
    let rt = MeasuredRuntime::new(Platform::optane(dram, nvm), WallClockConfig::smoke());
    let policy = PolicyKind::tahoe();

    let mut g = c.benchmark_group("prepare");
    g.bench_function("plan_heavy/alloc", |b| {
        b.iter(|| {
            let a = rt.allocate(&app, &policy, &cal).expect("allocates");
            (SharedHms::new(a.hms), a.prices)
        })
    });
    let a = rt.allocate(&app, &policy, &cal).expect("allocates");
    let planner = Planner {
        app: &app,
        policy: &policy,
        config: &a.config,
        prices: &a.prices,
        workers: 1,
        spare_core: true,
    };
    g.bench_function("plan_heavy/plan+layout", |b| {
        b.iter(|| {
            let plan = planner.audited(a.initial_tiers.clone());
            let layout = GraphLayout::new(&app.graph, a.ids.clone(), a.prices.clone());
            (plan.expect("audits clean").plan.steps.len(), layout)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_prepare
}
criterion_main!(benches);
