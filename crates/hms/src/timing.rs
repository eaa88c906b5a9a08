//! Roofline-style memory timing model.
//!
//! The paper's central empirical observation is that data objects differ in
//! *why* NVM hurts them: objects touched by streams of independent accesses
//! are limited by **bandwidth**, objects touched by dependent chains
//! (pointer chasing) are limited by **latency**, and many fall in between.
//! This module encodes that distinction as a two-term roofline:
//!
//! ```text
//! t_bw  = loads·CL / read_bw  +  stores·CL / write_bw          (transfer)
//! t_lat = (loads·read_lat + stores·write_lat) / MLP            (serialization)
//! t     = max(t_bw, t_lat)
//! ```
//!
//! `MLP` (memory-level parallelism) is the average number of outstanding
//! misses the access pattern sustains: 1.0 for a pure dependent chain,
//! 8–16 for hardware-prefetched streams. High-MLP profiles hit the
//! bandwidth roof; MLP≈1 profiles are latency-serialized — precisely the
//! two sensitivity classes the paper's placement model distinguishes.

use crate::tier::TierSpec;
use crate::{Ns, CACHELINE};

/// Main-memory access profile of one task (or of one task's traffic to one
/// data object).
///
/// Counts are accesses that *miss the cache hierarchy* and reach main
/// memory — the quantity the paper samples with performance counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Cache-line loads served by main memory.
    pub loads: u64,
    /// Cache-line stores served by main memory.
    pub stores: u64,
    /// Average memory-level parallelism of the access stream (>= 1).
    pub mlp: f64,
}

impl AccessProfile {
    /// A profile with no main-memory traffic.
    pub const EMPTY: AccessProfile = AccessProfile {
        loads: 0,
        stores: 0,
        mlp: 1.0,
    };

    /// Construct a profile, clamping MLP to at least 1.
    pub fn new(loads: u64, stores: u64, mlp: f64) -> Self {
        AccessProfile {
            loads,
            stores,
            mlp: mlp.max(1.0),
        }
    }

    /// A streaming profile (high MLP): bandwidth-bound on slow memory.
    pub fn streaming(loads: u64, stores: u64) -> Self {
        Self::new(loads, stores, 16.0)
    }

    /// A dependent-chain profile (MLP = 1): latency-bound on slow memory.
    pub fn pointer_chase(loads: u64) -> Self {
        Self::new(loads, 0, 1.0)
    }

    /// Total main-memory accesses.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total bytes moved to/from main memory.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.accesses() * CACHELINE
    }

    /// Scale the access counts by `frac` (used when chunking objects).
    pub fn scale(&self, frac: f64) -> AccessProfile {
        AccessProfile::new(
            (self.loads as f64 * frac).round() as u64,
            (self.stores as f64 * frac).round() as u64,
            self.mlp,
        )
    }

    /// Bandwidth-roof time on `tier`, in ns.
    pub fn transfer_time_ns(&self, tier: &TierSpec) -> Ns {
        let cl = CACHELINE as f64;
        self.loads as f64 * cl / tier.read_bw_gbps + self.stores as f64 * cl / tier.write_bw_gbps
    }

    /// Latency-serialization time on `tier`, in ns.
    pub fn serialization_time_ns(&self, tier: &TierSpec) -> Ns {
        (self.loads as f64 * tier.read_lat_ns + self.stores as f64 * tier.write_lat_ns)
            / self.mlp.max(1.0)
    }

    /// Memory time of this profile on `tier`: the roofline maximum of the
    /// transfer and serialization terms.
    pub fn mem_time_ns(&self, tier: &TierSpec) -> Ns {
        self.transfer_time_ns(tier)
            .max(self.serialization_time_ns(tier))
    }

    /// Whether this profile is bandwidth-limited (vs latency-limited) on
    /// `tier`.
    pub fn bandwidth_limited_on(&self, tier: &TierSpec) -> bool {
        self.transfer_time_ns(tier) >= self.serialization_time_ns(tier)
    }

    /// Achieved bandwidth on `tier` in GB/s, `bytes / mem_time`.
    pub fn achieved_bw_gbps(&self, tier: &TierSpec) -> f64 {
        let t = self.mem_time_ns(tier);
        if t == 0.0 {
            0.0
        } else {
            self.bytes() as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn dram() -> TierSpec {
        presets::dram(1 << 30)
    }

    #[test]
    fn empty_profile_takes_no_time() {
        assert_eq!(AccessProfile::EMPTY.mem_time_ns(&dram()), 0.0);
        assert_eq!(AccessProfile::EMPTY.bytes(), 0);
    }

    #[test]
    fn streaming_profile_is_bandwidth_limited() {
        let p = AccessProfile::streaming(1_000_000, 0);
        assert!(p.bandwidth_limited_on(&dram()));
        // 64 MB at 10 GB/s = 6.4 ms.
        let t = p.mem_time_ns(&dram());
        assert!((t - 6.4e6).abs() / 6.4e6 < 1e-9, "t = {t}");
    }

    #[test]
    fn pointer_chase_is_latency_limited() {
        let p = AccessProfile::pointer_chase(1_000_000);
        assert!(!p.bandwidth_limited_on(&dram()));
        // 1e6 dependent loads at 10 ns = 10 ms.
        let t = p.mem_time_ns(&dram());
        assert!((t - 1.0e7).abs() / 1.0e7 < 1e-9, "t = {t}");
    }

    #[test]
    fn halving_bandwidth_doubles_streaming_time_but_not_chase_time() {
        // Use a 40 ns base latency so the chase's bandwidth demand
        // (64 B / 40 ns = 1.6 GB/s) stays below the halved roof; at DRAM's
        // 10 ns a dependent chain genuinely crosses the roofline, which is
        // the model behaving correctly, not the property under test.
        let base = dram().scale_latency(4.0).unwrap();
        let half = base.scale_bandwidth(0.5).unwrap();
        let stream = AccessProfile::streaming(1_000_000, 500_000);
        let chase = AccessProfile::pointer_chase(1_000_000);
        assert!(
            (stream.mem_time_ns(&half) / stream.mem_time_ns(&base) - 2.0).abs() < 1e-9,
            "streaming should scale with bandwidth"
        );
        assert!(
            (chase.mem_time_ns(&half) / chase.mem_time_ns(&base) - 1.0).abs() < 1e-9,
            "pointer chase should not care about bandwidth"
        );
    }

    #[test]
    fn quadrupling_latency_hits_chase_but_not_stream() {
        let lat4 = dram().scale_latency(4.0).unwrap();
        let stream = AccessProfile::streaming(1_000_000, 500_000);
        let chase = AccessProfile::pointer_chase(1_000_000);
        assert!(
            (chase.mem_time_ns(&lat4) / chase.mem_time_ns(&dram()) - 4.0).abs() < 1e-9,
            "pointer chase should scale with latency"
        );
        assert!(
            (stream.mem_time_ns(&lat4) / stream.mem_time_ns(&dram()) - 1.0).abs() < 1e-9,
            "streaming should not care about latency (still below the roof)"
        );
    }

    #[test]
    fn write_asymmetry_matters() {
        let optane = presets::optane_pmm(1 << 30);
        let reads = AccessProfile::streaming(1_000_000, 0);
        let writes = AccessProfile::streaming(0, 1_000_000);
        // Optane write bandwidth (1.3 GB/s) << read bandwidth (3.9 GB/s).
        assert!(writes.mem_time_ns(&optane) > 2.5 * reads.mem_time_ns(&optane));
    }

    #[test]
    fn scale_halves_counts() {
        let p = AccessProfile::new(100, 50, 4.0).scale(0.5);
        assert_eq!(p.loads, 50);
        assert_eq!(p.stores, 25);
        assert!((p.mlp - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mlp_is_clamped() {
        let p = AccessProfile::new(10, 10, 0.0);
        assert!((p.mlp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn achieved_bw_never_exceeds_peak() {
        let tiers = [
            dram(),
            presets::optane_pmm(1 << 30),
            presets::pcram(1 << 30),
        ];
        for tier in &tiers {
            for mlp in [1.0, 2.0, 8.0, 32.0] {
                let p = AccessProfile::new(10_000, 5_000, mlp);
                let peak = tier.read_bw_gbps.max(tier.write_bw_gbps);
                assert!(
                    p.achieved_bw_gbps(tier) <= peak + 1e-9,
                    "achieved {} > peak {} on {}",
                    p.achieved_bw_gbps(tier),
                    peak,
                    tier.name
                );
            }
        }
    }
}
