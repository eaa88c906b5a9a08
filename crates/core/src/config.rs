//! Platform and runtime configuration.

use tahoe_hms::{presets, HmsConfig, HmsError, TierSpec};
use tahoe_memprof::SamplerConfig;
use tahoe_perfmodel::ModelParams;

/// Which substrate a run executes on.
///
/// `Virtual` is the simulator: tiers are bookkeeping, time is modelled.
/// `Measured` backs both tiers with `mmap` arenas (`tahoe-realmem`),
/// executes real memory traffic, and reports wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeMode {
    /// Virtual-time simulation (the default everywhere it isn't stated).
    #[default]
    Virtual,
    /// Real buffers, wall-clock timing, software-emulated NVM.
    Measured,
}

impl std::fmt::Display for RuntimeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeMode::Virtual => write!(f, "virtual"),
            RuntimeMode::Measured => write!(f, "measured"),
        }
    }
}

/// The simulated hardware platform: an ordered tier list plus the copy
/// engine. `dram` is the fastest tier, `nvm` the slowest (spill) tier,
/// and `mids` holds any middle tiers (e.g. CXL-attached memory) in
/// fastest-first order between them.
#[derive(Debug, Clone)]
pub struct Platform {
    /// DRAM tier spec (capacity = the scarce fast-tier budget).
    pub dram: TierSpec,
    /// NVM tier spec.
    pub nvm: TierSpec,
    /// Middle tiers between DRAM and NVM, fastest first. Empty for the
    /// classic two-tier platforms.
    pub mids: Vec<TierSpec>,
    /// Copy-channel (helper thread) bandwidth in GB/s. The paper's
    /// migrations run over ordinary memcpy; a mid-range value between the
    /// two tiers' bandwidths is the realistic default.
    pub copy_bw_gbps: f64,
}

impl Platform {
    /// A two-tier platform from explicit tier specs.
    pub fn new(dram: TierSpec, nvm: TierSpec, copy_bw_gbps: f64) -> Self {
        Platform {
            dram,
            nvm,
            mids: Vec::new(),
            copy_bw_gbps,
        }
    }

    /// Insert a middle tier after any existing middle tiers (so calls
    /// list tiers fastest-first, matching the ordered tier list).
    pub fn with_mid_tier(mut self, spec: TierSpec) -> Self {
        self.mids.push(spec);
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

    /// Number of tiers (2 + middle tiers).
    pub fn n_tiers(&self) -> usize {
        2 + self.mids.len()
    }

    /// The full ordered tier list, fastest first.
    pub fn tier_specs(&self) -> Vec<TierSpec> {
        let mut v = Vec::with_capacity(self.n_tiers());
        v.push(self.dram.clone());
        v.extend(self.mids.iter().cloned());
        v.push(self.nvm.clone());
        v
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
        let copy = nvm.write_bw_gbps.min(dram.read_bw_gbps) * 0.8;
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
        let copy = nvm.write_bw_gbps.min(dram.read_bw_gbps) * 0.8;
        Ok(Platform::new(dram, nvm, copy))
    }

    /// Optane-PMM-like platform.
    pub fn optane(dram_capacity: u64, nvm_capacity: u64) -> Self {
        let dram = presets::dram(dram_capacity);
        let nvm = presets::optane_pmm(nvm_capacity);
        let copy = nvm.write_bw_gbps.min(dram.read_bw_gbps) * 0.8;
        Platform::new(dram, nvm, copy)
    }

    /// The HMS configuration for this platform. Fails if any tier spec
    /// or the copy bandwidth fails validation.
    pub fn hms_config(&self) -> Result<HmsConfig, HmsError> {
        if self.mids.is_empty() {
            HmsConfig::new(self.dram.clone(), self.nvm.clone(), self.copy_bw_gbps)
        } else {
            HmsConfig::with_tiers(self.tier_specs(), self.copy_bw_gbps)
        }
    }

    /// A copy with a different DRAM capacity (sensitivity sweeps).
    pub fn with_dram_capacity(&self, capacity: u64) -> Self {
        let mut p = self.clone();
        p.dram = p.dram.with_capacity(capacity);
        p
    }
}

/// Completed instances of a task class before its profile is trusted
/// (PAPER.md §1 step 1, "a few executions"): the default of
/// [`RuntimeConfig::min_class_instances`] and the per-class quota of the
/// wall-clock engine's [`ClassQuota`](crate::engine::ClassQuota).
pub const MIN_CLASS_INSTANCES: u32 = 1;

/// Runtime configuration shared by all policies.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of simulated workers.
    pub workers: usize,
    /// Windows spent profiling before the plan is computed (the paper
    /// profiles the first two iterations).
    pub profile_windows: u32,
    /// Minimum profiled instances per task class before its profile is
    /// trusted.
    pub min_class_instances: u32,
    /// Model thresholds/knobs.
    pub model: ModelParams,
    /// Sampling profiler configuration.
    pub sampler: SamplerConfig,
    /// Chunk size for large-object decomposition, bytes.
    pub chunk_size: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            profile_windows: 2,
            min_class_instances: MIN_CLASS_INSTANCES,
            model: ModelParams::default(),
            sampler: SamplerConfig::default(),
            chunk_size: 512 << 10,
        }
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
        assert!(p.copy_bw_gbps <= p.dram.read_bw_gbps);
        let q = Platform::emulated_lat(4.0, 1 << 20, 1 << 30).unwrap();
        assert!(q.copy_bw_gbps > 0.0);
        assert!(Platform::emulated_bw(-0.5, 1 << 20, 1 << 30).is_err());
        assert!(Platform::emulated_lat(0.0, 1 << 20, 1 << 30).is_err());
    }

    #[test]
    fn runtime_mode_displays() {
        assert_eq!(RuntimeMode::Virtual.to_string(), "virtual");
        assert_eq!(RuntimeMode::Measured.to_string(), "measured");
        assert_eq!(RuntimeMode::default(), RuntimeMode::Virtual);
    }

    #[test]
    fn with_dram_capacity_only_changes_capacity() {
        let p = Platform::optane(1 << 20, 1 << 30);
        let q = p.with_dram_capacity(1 << 22);
        assert_eq!(q.dram.capacity, 1 << 22);
        assert_eq!(q.dram.read_lat_ns, p.dram.read_lat_ns);
        assert_eq!(q.nvm.capacity, p.nvm.capacity);
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
        let c = RuntimeConfig::default();
        assert_eq!(c.profile_windows, 2);
        assert_eq!(c.sampler.interval, 1000);
    }
}
