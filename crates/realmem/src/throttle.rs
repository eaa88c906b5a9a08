//! Wall-clock pacing: the primitive behind software NVM emulation.
//!
//! Quartz-style emulation slows memory down by injecting delay; without
//! root, performance counters, or a second NUMA node the portable
//! equivalent is *pacing*: do the work at full speed, then spin-wait
//! until the elapsed wall time matches what the modelled device would
//! have taken. Spinning (rather than `sleep`) keeps the sub-microsecond
//! injections honest — OS sleep granularity is orders of magnitude too
//! coarse for per-chunk device latencies.

use std::time::Instant;

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
    }
}
