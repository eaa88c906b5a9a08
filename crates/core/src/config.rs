//! Platform and runtime configuration.

use tahoe_hms::{presets, HmsConfig, HmsError, TierId, TierSpec};

/// The simulated hardware platform: the ordered tier list (fastest
/// first, at least two — the first tier's capacity is the scarce fast
/// budget, the last is the spill tier) plus the copy engine.
#[derive(Debug, Clone)]
pub struct Platform {
    tiers: Vec<TierSpec>,
    /// Copy-channel (helper thread) bandwidth in GB/s. The paper's
    /// migrations run over ordinary memcpy; a mid-range value between the
    /// two tiers' bandwidths is the realistic default.
    pub copy_bw_gbps: f64,
}

impl Platform {
    /// A two-tier platform from explicit tier specs.
    pub fn new(dram: TierSpec, nvm: TierSpec, copy_bw_gbps: f64) -> Self {
        Platform {
            tiers: vec![dram, nvm],
            copy_bw_gbps,
        }
    }

    /// Insert a middle tier just above the spill tier, after any
    /// existing middle tiers (so calls list them fastest-first).
    pub fn with_mid_tier(mut self, spec: TierSpec) -> Self {
        self.tiers.insert(self.tiers.len() - 1, spec);
        self
    }

    /// Three-tier DRAM / CXL / Optane-PMM platform. CXL sits between the
    /// endpoints on latency and inverts Optane's bandwidth asymmetry
    /// (symmetric 2.5 GB/s vs Optane's 3.9 read / 1.3 write), so
    /// latency-bound and write-heavy objects that miss the DRAM budget
    /// prefer the middle tier while read-streaming objects still favor
    /// Optane.
    pub fn optane_cxl(dram_capacity: u64, cxl_capacity: u64, nvm_capacity: u64) -> Self {
        Platform::optane(dram_capacity, nvm_capacity).with_mid_tier(presets::cxl(cxl_capacity))
    }

    /// Number of tiers (≥ 2).
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The full ordered tier list, fastest first.
    pub fn tier_specs(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// The fastest tier (DRAM; capacity = the scarce fast-tier budget).
    pub fn fastest(&self) -> &TierSpec {
        &self.tiers[0]
    }

    /// The spill tier (NVM): the last, slowest, largest tier.
    pub fn spill(&self) -> &TierSpec {
        &self.tiers[self.tiers.len() - 1]
    }

    /// Index of the spill tier.
    pub fn last_tier(&self) -> TierId {
        TierId((self.tiers.len() - 1) as u8)
    }

    /// Quartz-style bandwidth-limited NVM: `bw_frac` of DRAM bandwidth.
    /// Fails on a non-positive or non-finite fraction.
    pub fn emulated_bw(
        bw_frac: f64,
        dram_capacity: u64,
        nvm_capacity: u64,
    ) -> Result<Self, HmsError> {
        let dram = presets::dram(dram_capacity);
        let nvm = presets::emulated_bw(bw_frac, nvm_capacity)?;
        let copy = presets::copy_channel_gbps(&dram, &nvm);
        Ok(Platform::new(dram, nvm, copy))
    }

    /// Quartz-style latency-limited NVM: `lat_mult` × DRAM latency.
    /// Fails on a non-positive or non-finite multiplier.
    pub fn emulated_lat(
        lat_mult: f64,
        dram_capacity: u64,
        nvm_capacity: u64,
    ) -> Result<Self, HmsError> {
        let dram = presets::dram(dram_capacity);
        let nvm = presets::emulated_lat(lat_mult, nvm_capacity)?;
        let copy = presets::copy_channel_gbps(&dram, &nvm);
        Ok(Platform::new(dram, nvm, copy))
    }

    /// Optane-PMM-like platform.
    pub fn optane(dram_capacity: u64, nvm_capacity: u64) -> Self {
        let dram = presets::dram(dram_capacity);
        let nvm = presets::optane_pmm(nvm_capacity);
        let copy = presets::copy_channel_gbps(&dram, &nvm);
        Platform::new(dram, nvm, copy)
    }

    /// The HMS configuration for this platform. Fails if any tier spec
    /// or the copy bandwidth fails validation.
    pub fn hms_config(&self) -> Result<HmsConfig, HmsError> {
        HmsConfig::with_tiers(self.tiers.clone(), self.copy_bw_gbps)
    }

    /// A copy with a different DRAM capacity (sensitivity sweeps).
    pub fn with_dram_capacity(&self, capacity: u64) -> Self {
        let mut p = self.clone();
        p.tiers[0].capacity = capacity;
        p
    }

    /// A copy with a different spill-tier capacity.
    pub fn with_spill_capacity(&self, capacity: u64) -> Self {
        let mut p = self.clone();
        let last = p.tiers.len() - 1;
        p.tiers[last].capacity = capacity;
        p
    }
}

/// Completed instances of a task class before its profile is trusted
/// (PAPER.md §1 step 1, "a few executions"): the virtual driver's
/// per-class profiling quota and the per-class quota of the wall-clock
/// engine's [`ClassQuota`](crate::engine::ClassQuota).
pub const MIN_CLASS_INSTANCES: u32 = 1;

/// Windows the virtual driver spends profiling before it computes a
/// plan (the paper profiles the first two iterations).
pub const PROFILE_WINDOWS: u32 = 2;

/// Chunk size of the virtual driver's large-object decomposition
/// (`TahoeOptions::chunking`), bytes.
pub const CHUNK_BYTES: u64 = 512 << 10;

/// Runtime configuration shared by all policies.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of simulated workers.
    pub workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { workers: 4 }
    }
}

impl RuntimeConfig {
    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulated_platforms_have_sane_copy_bandwidth() {
        let p = Platform::emulated_bw(0.5, 1 << 20, 1 << 30).unwrap();
        assert!(p.copy_bw_gbps > 0.0);
        assert!(p.copy_bw_gbps <= p.fastest().read_bw_gbps);
        let q = Platform::emulated_lat(4.0, 1 << 20, 1 << 30).unwrap();
        assert!(q.copy_bw_gbps > 0.0);
        assert!(Platform::emulated_bw(-0.5, 1 << 20, 1 << 30).is_err());
        assert!(Platform::emulated_lat(0.0, 1 << 20, 1 << 30).is_err());
    }

    #[test]
    fn with_dram_capacity_only_changes_capacity() {
        let p = Platform::optane(1 << 20, 1 << 30);
        let q = p.with_dram_capacity(1 << 22);
        assert_eq!(q.fastest().capacity, 1 << 22);
        assert_eq!(q.fastest().read_lat_ns, p.fastest().read_lat_ns);
        assert_eq!(q.spill(), p.spill());
    }

    #[test]
    fn three_tier_platform_builds_an_ordered_hms_config() {
        let p = Platform::optane_cxl(1 << 20, 4 << 20, 1 << 30);
        assert_eq!(p.n_tiers(), 3);
        let specs = p.tier_specs();
        assert_eq!(specs[0].name, "DRAM");
        assert_eq!(specs[1].name, "CXL");
        assert_eq!(specs[2].name, "Optane PMM");
        let cfg = p.hms_config().unwrap();
        assert_eq!(cfg.n_tiers(), 3);
        assert_eq!(cfg.tier_specs()[1].name, "CXL");
        // Two-tier platforms are unchanged by the generalization.
        let two = Platform::optane(1 << 20, 1 << 30);
        assert_eq!(two.n_tiers(), 2);
        assert_eq!(two.hms_config().unwrap().n_tiers(), 2);
    }

    #[test]
    fn default_config_matches_paper_choices() {
        assert_eq!(RuntimeConfig::default().workers, 4);
        assert_eq!(PROFILE_WINDOWS, 2);
        assert_eq!(CHUNK_BYTES, 512 << 10);
        assert_eq!(tahoe_memprof::SamplerConfig::default().interval, 1000);
    }
}
