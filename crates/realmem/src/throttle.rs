//! Wall-clock pacing: the primitive behind software NVM emulation.
//!
//! Quartz-style emulation slows memory down by injecting delay; without
//! root, performance counters, or a second NUMA node the portable
//! equivalent is *pacing*: do the work at full speed, then spin-wait
//! until the elapsed wall time matches what the modelled device would
//! have taken. Spinning (rather than `sleep`) keeps the sub-microsecond
//! injections honest — OS sleep granularity is orders of magnitude too
//! coarse for per-chunk device latencies.
//!
//! The copy engine's deadlines are another matter: a chunk of a
//! throttled copy is paced over tens to hundreds of microseconds, on a
//! helper thread whose whole point is to leave the cores to the
//! workers. It *sleeps* toward its cumulative deadline
//! ([`sleep_toward`]) and spins only the last [`SPIN_TAIL_NS`] of a
//! copy, so an oversleep is absorbed by the next chunk and the copy
//! still ends on its modelled time. A wait shorter than a sleep's own
//! overshoot is not slept at all: a copy that short (one 256 KiB chunk
//! out of Optane, any 8 KiB object) is spun end to end, as it always
//! was.

use std::time::{Duration, Instant};

/// What an OS sleep may overshoot by (timer slack plus the wake-up):
/// the stretch before a copy's final deadline that is spun, not slept,
/// and the shortest wait worth sleeping.
pub const SPIN_TAIL_NS: f64 = 60_000.0;

/// Sleep until `deadline_ns` nanoseconds have elapsed since `start`,
/// giving the core away; wakes at the deadline or, by the scheduler's
/// granularity, somewhat after. Returns the nanoseconds spent — 0 when
/// the deadline is less than [`SPIN_TAIL_NS`] away (or past): such a
/// wait is left to whoever paces next.
pub fn sleep_toward(start: Instant, deadline_ns: f64) -> f64 {
    let entered = start.elapsed().as_nanos() as f64;
    if deadline_ns - entered < SPIN_TAIL_NS {
        return 0.0;
    }
    std::thread::sleep(Duration::from_nanos((deadline_ns - entered) as u64));
    start.elapsed().as_nanos() as f64 - entered
}

/// Spin until `deadline_ns` nanoseconds have elapsed since `start`.
/// Returns the nanoseconds actually spent spinning (0 when the deadline
/// had already passed).
pub fn pace_until(start: Instant, deadline_ns: f64) -> f64 {
    let entered = start.elapsed().as_nanos() as f64;
    if entered >= deadline_ns {
        return 0.0;
    }
    loop {
        std::hint::spin_loop();
        let now = start.elapsed().as_nanos() as f64;
        if now >= deadline_ns {
            return now - entered;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_reaches_the_deadline() {
        let start = Instant::now();
        let spun = pace_until(start, 200_000.0); // 200 µs
        let elapsed = start.elapsed().as_nanos() as f64;
        assert!(elapsed >= 200_000.0, "elapsed {elapsed}");
        assert!(spun > 0.0);
    }

    #[test]
    fn past_deadline_is_free() {
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(pace_until(start, 10.0), 0.0);
        assert_eq!(sleep_toward(start, 10.0), 0.0);
        // Nor is a wait shorter than a sleep's own overshoot slept.
        assert_eq!(sleep_toward(Instant::now(), SPIN_TAIL_NS / 2.0), 0.0);
    }

    #[test]
    fn sleeping_reaches_the_deadline() {
        let start = Instant::now();
        let slept = sleep_toward(start, 300_000.0);
        assert!(slept > 0.0);
        assert!(start.elapsed().as_nanos() as f64 >= 300_000.0);
    }
}
