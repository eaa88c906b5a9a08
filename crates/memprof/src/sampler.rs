//! Emulation of a sampling performance counter (PEBS/IBS style).
//!
//! A real sampling counter captures one out of every `interval` qualifying
//! events, and some fraction of events escape attribution entirely
//! (skid, buffer overflows, unmappable addresses). The runtime multiplies
//! sample counts back by the interval to estimate totals, so the estimate
//! is unbiased up to the *capture ratio* — a systematic undercount that
//! the paper's calibrated constant factors absorb.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tahoe_hms::{AccessProfile, Ns, TierSpec};

/// Configuration of the emulated sampling counter.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Sampling interval: one of every `interval` events is captured.
    /// The paper uses an interval of 1000 CPU cycles.
    pub interval: u64,
    /// Fraction of events that are attributable at all (captures PEBS
    /// skid and unmappable samples). 1.0 = perfect attribution.
    pub capture_ratio: f64,
    /// Relative jitter of the duty-cycle (active time) measurement.
    pub time_jitter: f64,
    /// RNG seed (profiling runs are deterministic per seed).
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: 1000,
            capture_ratio: 0.85,
            time_jitter: 0.05,
            seed: 0x7a40e,
        }
    }
}

/// What the profiler observed about one task's traffic to one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledObservation {
    /// Estimated cache-line loads (samples × interval ÷ capture losses).
    pub est_loads: f64,
    /// Estimated cache-line stores.
    pub est_stores: f64,
    /// Estimated time the object was actively being accessed
    /// (the `#samples_with_accesses / #samples × phase_time` term of the
    /// paper's bandwidth-consumption equation), in ns.
    pub est_active_ns: Ns,
    /// Estimated memory-level concurrency of the access stream: how many
    /// accesses were in flight on average, inferred from counts × the
    /// resident tier's latency over the active time (1.0 = a fully
    /// dependent chain). Task-parallel kernels overlap their misses; the
    /// latency-benefit model must not price overlapped misses as if they
    /// were serialized.
    pub est_concurrency: f64,
    /// Raw number of samples attributed to the object.
    pub samples: u64,
}

impl SampledObservation {
    /// Estimated total accesses.
    pub fn est_accesses(&self) -> f64 {
        self.est_loads + self.est_stores
    }

    /// Estimated bytes moved.
    pub fn est_bytes(&self) -> f64 {
        self.est_accesses() * tahoe_hms::CACHELINE as f64
    }
}

/// The emulated sampling profiler.
#[derive(Debug)]
pub struct Sampler {
    cfg: SamplerConfig,
    rng: StdRng,
}

impl Sampler {
    /// A sampler with the given configuration.
    pub fn new(cfg: SamplerConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Sampler { cfg, rng }
    }

    /// Sample a true event count: `Binomial(truth, capture/interval)`
    /// approximated by its mean plus a Bernoulli on the fractional part —
    /// cheap, deterministic per seed, and within one sample of exact.
    fn sample_events(&mut self, truth: u64) -> u64 {
        let expect = truth as f64 * self.cfg.capture_ratio / self.cfg.interval as f64;
        let base = expect.floor();
        let frac = expect - base;
        let extra = if self.rng.random::<f64>() < frac {
            1
        } else {
            0
        };
        base as u64 + extra
    }

    /// Observe one task's ground-truth traffic to one object, given the
    /// ground-truth *active time* of that traffic (time the accesses
    /// occupied main memory — the simulator knows it exactly; hardware
    /// only knows it up to sampling jitter) and the tier the object was
    /// resident on while being profiled (needed to infer concurrency from
    /// the counts and the active time).
    pub fn observe(
        &mut self,
        truth: &AccessProfile,
        true_active_ns: Ns,
        resident: &TierSpec,
    ) -> SampledObservation {
        let load_samples = self.sample_events(truth.loads);
        let store_samples = self.sample_events(truth.stores);
        // The runtime scales samples back up by the interval; the capture
        // ratio is *unknown* to it (that is what CF_bw/CF_lat correct).
        let est_loads = (load_samples * self.cfg.interval) as f64;
        let est_stores = (store_samples * self.cfg.interval) as f64;
        let jitter = 1.0 + self.cfg.time_jitter * (self.rng.random::<f64>() * 2.0 - 1.0);
        let est_active_ns = (true_active_ns * jitter).max(0.0);
        // Concurrency = serialized latency demand over observed active
        // time: 1 for dependent chains, ≈MLP for prefetched streams.
        let serialized = est_loads * resident.read_lat_ns + est_stores * resident.write_lat_ns;
        let est_concurrency = if est_active_ns > 0.0 {
            (serialized / est_active_ns).max(1.0)
        } else {
            1.0
        };
        SampledObservation {
            est_loads,
            est_stores,
            est_active_ns,
            est_concurrency,
            samples: load_samples + store_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::presets;

    fn dram() -> TierSpec {
        presets::dram(1 << 30)
    }

    fn sampler(interval: u64, capture: f64) -> Sampler {
        Sampler::new(SamplerConfig {
            interval,
            capture_ratio: capture,
            time_jitter: 0.0,
            seed: 42,
        })
    }

    #[test]
    fn perfect_sampler_recovers_counts() {
        let mut s = sampler(1, 1.0);
        let truth = AccessProfile::streaming(12345, 678);
        let obs = s.observe(&truth, 1000.0, &dram());
        assert_eq!(obs.est_loads, 12345.0);
        assert_eq!(obs.est_stores, 678.0);
        assert_eq!(obs.est_active_ns, 1000.0);
    }

    #[test]
    fn estimates_are_near_truth_for_large_counts() {
        let mut s = sampler(1000, 1.0);
        let truth = AccessProfile::streaming(10_000_000, 5_000_000);
        let obs = s.observe(&truth, 1.0e6, &dram());
        let rel_l = (obs.est_loads - 1.0e7).abs() / 1.0e7;
        let rel_s = (obs.est_stores - 5.0e6).abs() / 5.0e6;
        assert!(rel_l < 1e-3, "load estimate off by {rel_l}");
        assert!(rel_s < 1e-3, "store estimate off by {rel_s}");
    }

    #[test]
    fn capture_ratio_biases_low() {
        let mut s = sampler(1000, 0.8);
        let truth = AccessProfile::streaming(10_000_000, 0);
        let obs = s.observe(&truth, 1.0e6, &dram());
        // Expect roughly 80% of truth.
        let ratio = obs.est_loads / 1.0e7;
        assert!((ratio - 0.8).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn small_counts_sample_to_zero_or_one() {
        let mut s = sampler(1000, 1.0);
        // 10 accesses with interval 1000: expectation 0.01 samples.
        let truth = AccessProfile::streaming(10, 0);
        let obs = s.observe(&truth, 100.0, &dram());
        assert!(obs.samples <= 1);
    }

    #[test]
    fn bandwidth_estimate_matches_eq1() {
        let mut s = sampler(1, 1.0);
        // 1e6 lines = 64 MB active for 6.4e6 ns → 10 GB/s.
        let truth = AccessProfile::streaming(1_000_000, 0);
        let obs = s.observe(&truth, 6.4e6, &dram());
        // Eq. (1): accessed bytes over the actively-accessed time.
        assert!((obs.est_bytes() / obs.est_active_ns - 10.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = SamplerConfig::default();
        let truth = AccessProfile::streaming(123_456, 7_890);
        let a = Sampler::new(cfg.clone()).observe(&truth, 5.0e5, &dram());
        let b = Sampler::new(cfg).observe(&truth, 5.0e5, &dram());
        assert_eq!(a, b);
    }
}
