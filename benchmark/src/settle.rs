//! Bring the machine into its steady two-core state before measuring.
//!
//! On the 2-vCPU sandbox this benchmark was built on, the host packs an
//! idle guest's vCPUs together: after a few idle minutes one busy thread
//! runs ~25 % faster than in steady state, but a second busy thread slows
//! both (two spinning threads each took 1.3–2.5× the solo time). A Tahoe
//! run — the only policy with a busy second thread, the spin-pacing
//! migrator — then measures ~8 % slower against NVM-only
//! (`realmem.copy_wall_ms` 43 ms instead of the 24 ms the throttle
//! allows), until some two-thread load makes the host spread the vCPUs;
//! the benchmark's own mostly single-threaded load took two minutes to do
//! that. The state then holds for at least twenty minutes of runs.
//!
//! So every run first checks whether `nproc` busy threads run as fast as
//! one, and keeps all cores busy until they do (or a cap is reached). In
//! the steady state the check costs a fifth of a second.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One measurement slice.
const SLICE: Duration = Duration::from_millis(100);

/// Busy time between two checks while the machine is not settled.
const PUSH: Duration = Duration::from_millis(500);

/// Give up after this long; the run proceeds and records the ratio.
const CAP: Duration = Duration::from_secs(6);

/// `nproc` threads count as settled when each does at least this share
/// of the work a lone thread does in the same time.
const SETTLED: f64 = 0.9;

/// Units of dependent integer work done in `d`.
fn work_for(d: Duration) -> u64 {
    let t0 = Instant::now();
    let mut units = 0u64;
    let mut x = 1u64;
    while t0.elapsed() < d {
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        units += 1;
    }
    black_box(x);
    units
}

/// The least work any of `threads` threads gets done when all run for
/// `d` at once.
fn work_together(threads: usize, d: Duration) -> u64 {
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    work_for(d)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("settle thread"))
            .min()
            .unwrap_or(0)
    })
}

/// What [`settle`] saw, for `inputs`.
pub struct Settled {
    /// Per-thread work with all cores busy ÷ work of one thread alone,
    /// at the first check and at the last.
    pub first_share: f64,
    pub last_share: f64,
    pub seconds: f64,
}

/// Keep `nproc` threads busy until each runs about as fast as one alone.
pub fn settle(nproc: usize) -> Settled {
    let t0 = Instant::now();
    if nproc < 2 {
        return Settled {
            first_share: 1.0,
            last_share: 1.0,
            seconds: 0.0,
        };
    }
    let check = || {
        let alone = work_for(SLICE).max(1);
        work_together(nproc, SLICE) as f64 / alone as f64
    };
    let first_share = check();
    let mut last_share = first_share;
    while last_share < SETTLED && t0.elapsed() < CAP {
        work_together(nproc, PUSH);
        last_share = check();
    }
    Settled {
        first_share,
        last_share,
        seconds: t0.elapsed().as_secs_f64(),
    }
}
