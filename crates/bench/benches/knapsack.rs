//! Placement-solver microbenchmarks: the per-plan decision cost, which
//! the runtime pays before any task of a window can be placed.
//!
//! `knapsack::solve_exact` sweeps `items × (⌊width / gcd⌋ + 1)` cells
//! (minus the unreachable band, see the `knapsack` module docs), so the
//! cases below differ by cell count, not only by item count:
//!
//! | case                       | gcd | cells per solve |
//! |----------------------------|-----|-----------------|
//! | `exact/1024` (random sizes, ⅓ footprint) | 1 | ≈ 8.4 M (1024 × 8193) |
//! | `exact/1024-page-multiple` (4–64 KiB, 8 MiB) | 4 | ≈ 2.1 M (1024 × 2049) |
//! | `exact/8192x8KiB` (`plan_heavy`: 16 MiB)  | 4 | ≈ 16.8 M (8192 × 2049) |
//! | `solve/8192x8KiB` (the same call through `solve`) | — | 0: certified |
//!
//! `solve/8192x8KiB` is the call a Tahoe prepare of `plan_heavy` makes:
//! its budget is filled exactly by a density prefix that is strictly
//! denser than the rest, so `knapsack::solve` certifies greedy's answer
//! and builds no table — one sort of the 8192 items instead of the DP.
//!
//! `mck3/*` is `solve_mck` over DRAM / CXL / NVM with a CXL tier of the
//! DRAM budget's size (a quarter of the footprint each), at the item
//! counts of the benchmark's `stream_bw`, `mixed_skew` and `plan_heavy`
//! workloads; its DP grid is capped at `MCK_MAX_DP_CELLS` states, so the
//! cost is ≈ items × 33–66 k cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tahoe_hms::ObjectId;
use tahoe_placement::{knapsack, solve_mck, Item, MckItem};

/// Deterministic pseudo-random stream (xorshift).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// `n` items with sizes from `size` and random values.
fn items(n: u32, seed: u64, size: impl Fn(u64) -> u64) -> Vec<Item> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|i| Item {
            id: ObjectId(i),
            size: size(next()),
            value: (next() % 1_000_000) as f64,
        })
        .collect()
}

fn random_size(raw: u64) -> u64 {
    (raw % (8 << 20)) + 4096
}

fn bench_knapsack(c: &mut Criterion) {
    let mut g = c.benchmark_group("knapsack");
    for n in [16u32, 64, 256, 1024] {
        let its = items(n, 0xfeed, random_size);
        let cap: u64 = its.iter().map(|i| i.size).sum::<u64>() / 3;
        g.bench_with_input(BenchmarkId::new("exact", n), &its, |b, its| {
            b.iter(|| knapsack::solve_exact(std::hint::black_box(its), cap))
        });
        g.bench_with_input(BenchmarkId::new("greedy", n), &its, |b, its| {
            b.iter(|| knapsack::solve_greedy(std::hint::black_box(its), cap))
        });
    }
    let pages = items(1024, 0xfeed, |raw| 4096 * (1 + raw % 16));
    g.bench_function("exact/1024-page-multiple", |b| {
        b.iter(|| knapsack::solve_exact(std::hint::black_box(&pages), 8 << 20))
    });
    let chunks = items(8192, 0xfeed, |_| 8192);
    g.bench_function("exact/8192x8KiB", |b| {
        b.iter(|| knapsack::solve_exact(std::hint::black_box(&chunks), 16 << 20))
    });
    g.bench_function("solve/8192x8KiB", |b| {
        b.iter(|| knapsack::solve(std::hint::black_box(&chunks), 16 << 20))
    });
    g.finish();
}

fn bench_mck3(c: &mut Criterion) {
    let mut g = c.benchmark_group("mck3");
    g.sample_size(10);
    for n in [96u32, 160, 8192] {
        let size = move |raw: u64| match n {
            96 => 1 << 20,
            160 => (40 << 10) + raw % (2460 << 10),
            _ => 8192,
        };
        // CXL recovers a varying share of what DRAM would save.
        let mut share = xorshift(0xc0ffee);
        let its: Vec<MckItem> = items(n, 0xfeed, size)
            .into_iter()
            .map(|it| MckItem {
                id: it.id,
                size: it.size,
                values: vec![it.value, it.value * (share() % 100) as f64 / 100.0, 0.0],
            })
            .collect();
        let budget: u64 = its.iter().map(|i| i.size).sum::<u64>() / 4;
        let caps = [budget, budget, u64::MAX];
        g.bench_with_input(BenchmarkId::from_parameter(n), &its, |b, its| {
            b.iter(|| solve_mck(std::hint::black_box(its), &caps))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_knapsack, bench_mck3
}
criterion_main!(benches);
