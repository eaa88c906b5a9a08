//! Page-release microbenchmark: what a batch of freed objects costs to
//! hand back to the kernel, the arenas' side of a migration's free.
//!
//! Each iteration faults in 256 × 8 KiB ranges of a huge-page arena
//! (`plan_heavy`'s object size, one 2 MiB release batch) and releases
//! them with `sys::release`: `batched` makes one `process_madvise` for
//! all 256 where the kernel takes it, `per-range` one `madvise` each.
//! A second thread streams through another part of the same mapping
//! meanwhile, as a worker does during a run, so every release that
//! changes the page tables also interrupts a core that has them cached.
//! Both cases pay the same faults; the difference is the release.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tahoe_realmem::sys::{self, Mapping, ReleasePath};

const RANGES: usize = 256;
const RANGE: usize = 8 << 10;
/// Released ranges sit one per 32 KiB of the first 8 MiB.
const STRIDE: usize = 32 << 10;
/// The streaming thread reads the 4 MiB after them.
const STREAM: usize = 4 << 20;

/// Fault in every page of `ranges`, then release them along `path`.
fn touch_and_release(m: &Mapping, ranges: &[(usize, usize)], path: ReleasePath) -> u64 {
    let ps = sys::page_size() as usize;
    for &(at, len) in ranges {
        for page in (at..at + len).step_by(ps) {
            // SAFETY: every range lies inside the mapping (built below).
            unsafe { m.as_ptr().add(page).write_volatile(1) };
        }
    }
    // SAFETY: the streaming thread touches only the part of the mapping
    // after the released ranges, and nothing else refers to them.
    unsafe { sys::release(m, ranges, path) }
}

fn bench_release(c: &mut Criterion) {
    let len = RANGES * STRIDE + STREAM;
    let m = sys::map_aligned(len, sys::HUGE_PAGE).expect("map the arena");
    sys::advise_huge_pages(&m);
    let ranges: Vec<(usize, usize)> = (0..RANGES).map(|i| (i * STRIDE, RANGE)).collect();
    let stop = AtomicBool::new(false);
    // The mapping's base as an address, so the streaming thread can
    // borrow it without the mapping being `Sync`.
    let stream_at = m.as_ptr() as usize + RANGES * STRIDE;
    std::thread::scope(|s| {
        s.spawn(|| {
            // SAFETY: the last `STREAM` bytes of the mapping, which no
            // release touches; the mapping outlives this scope.
            let view = unsafe { std::slice::from_raw_parts_mut(stream_at as *mut u8, STREAM) };
            let mut round = 0u8;
            while !stop.load(Ordering::Relaxed) {
                round = round.wrapping_add(1);
                view.fill(round);
                std::hint::black_box(&view);
            }
        });
        let mut g = c.benchmark_group("release");
        for (name, path) in [
            ("batched", ReleasePath::Batched),
            ("per-range", ReleasePath::PerRange),
        ] {
            let calls = touch_and_release(&m, &ranges, path);
            println!("{name}: {calls} release calls for {RANGES} ranges");
            g.bench_with_input(BenchmarkId::new(name, RANGES), &ranges, |b, ranges| {
                b.iter(|| touch_and_release(&m, std::hint::black_box(ranges), path))
            });
        }
        g.finish();
        stop.store(true, Ordering::Relaxed);
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_release
}
criterion_main!(benches);
