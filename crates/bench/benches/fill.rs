//! Object-fill microbenchmark: the seeded init every measured run and
//! every served graph pays before its first task.
//!
//! Each shape is a benchmark workload's object set: `plan_heavy`'s
//! 8192 × 8 KiB, a 16 × 256 KiB tenant graph and `stream_bw`'s
//! 96 × 1 MiB. `one-chain` fills the buffers one `init_fill` after
//! another; `interleaved` is `init_fill_all`, several objects' chains
//! in flight at once. Buffers are touched once before timing, so both
//! pay the same (zero) faults and the difference is the chain.

use criterion::{criterion_group, criterion_main, Criterion};
use tahoe_realmem::traffic::{init_fill, init_fill_all};

const SHAPES: [(&str, usize, usize); 3] = [
    ("8192x8KiB", 8192, 8 << 10),
    ("16x256KiB", 16, 256 << 10),
    ("96x1MiB", 96, 1 << 20),
];

fn bench_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("fill");
    for (shape, count, len) in SHAPES {
        let mut bufs: Vec<Vec<u8>> = (0..count).map(|_| vec![1u8; len]).collect();
        g.bench_function(&format!("one-chain/{shape}"), |b| {
            b.iter(|| {
                bufs.iter_mut()
                    .enumerate()
                    .fold(0u64, |acc, (i, buf)| acc ^ init_fill(buf, i as u64))
            })
        });
        g.bench_function(&format!("interleaved/{shape}"), |b| {
            b.iter(|| {
                let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
                init_fill_all(&mut views, |i| i as u64)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fill
}
criterion_main!(benches);
