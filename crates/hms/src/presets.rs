//! Device presets for the memory technologies the paper family tabulates.
//!
//! The numbers come from the published NVM characteristics table that both
//! the SC paper and its journal sibling reproduce (NVMDB survey for
//! STT-RAM/PCRAM/ReRAM; the UCSD Optane PMM characterization for Optane):
//!
//! | Device   | read lat | write lat | read BW    | write BW  |
//! |----------|---------:|----------:|-----------:|----------:|
//! | DRAM     | 10 ns    | 10 ns     | 10 GB/s    | 9 GB/s    |
//! | CXL      | 85 ns    | 85 ns     | 2.5 GB/s   | 2.5 GB/s  |
//! | STT-RAM  | 60 ns    | 80 ns     | 0.8 GB/s   | 0.6 GB/s  |
//! | PCRAM    | 100 ns   | 1000 ns   | 0.5 GB/s   | 0.3 GB/s  |
//! | ReRAM    | 300 ns   | 3000 ns   | 0.06 GB/s  | 0.005 GB/s|
//! | Optane   | 250 ns   | 150 ns    | 3.9 GB/s   | 1.3 GB/s  |
//!
//! PCRAM/ReRAM latencies are midpoints of the published ranges; the CXL
//! row is a DDR expander behind a narrow link (added latency from the
//! published ~70–90 ns round-trip characterizations, bandwidth scaled to
//! this table's single-channel DDR baseline). Presets take an explicit
//! capacity because the capacity ratio between DRAM and NVM is an
//! experimental variable, not a device property. See `TIERS.md` at the
//! repo root for how these fields feed the performance model.

use crate::error::HmsError;
use crate::tier::TierSpec;

/// DDR4-class DRAM: the fast tier reference point.
pub fn dram(capacity: u64) -> TierSpec {
    TierSpec {
        name: "DRAM".into(),
        read_lat_ns: 10.0,
        write_lat_ns: 10.0,
        read_bw_gbps: 10.0,
        write_bw_gbps: 9.0,
        capacity,
    }
}

/// CXL-attached DDR memory expander: a *middle* tier between DRAM and
/// NVM. Device latency is symmetric (it is ordinary DRAM behind a
/// serial link; the published characterizations put the added
/// round-trip at ~70–90 ns), and bandwidth is link-bound rather than
/// media-bound, so reads and writes see the same ceiling.
///
/// Relative to Optane this inverts both sensitivities: much lower read
/// latency (85 vs 250 ns) but lower read bandwidth (2.5 vs 3.9 GB/s) —
/// latency-bound data wants CXL while read-streaming data still prefers
/// Optane, which is exactly what makes a 3-tier plan beat both 2-tier
/// configurations on mixed workloads.
pub fn cxl(capacity: u64) -> TierSpec {
    TierSpec {
        name: "CXL".into(),
        read_lat_ns: 85.0,
        write_lat_ns: 85.0,
        read_bw_gbps: 2.5,
        write_bw_gbps: 2.5,
        capacity,
    }
}

/// STT-RAM per the ITRS'13 projection used in the paper's table.
pub fn stt_ram(capacity: u64) -> TierSpec {
    TierSpec {
        name: "STT-RAM".into(),
        read_lat_ns: 60.0,
        write_lat_ns: 80.0,
        read_bw_gbps: 0.8,
        write_bw_gbps: 0.6,
        capacity,
    }
}

/// Phase-change memory (PCRAM); write latency is strongly asymmetric.
pub fn pcram(capacity: u64) -> TierSpec {
    TierSpec {
        name: "PCRAM".into(),
        read_lat_ns: 100.0,
        write_lat_ns: 1000.0,
        read_bw_gbps: 0.5,
        write_bw_gbps: 0.3,
        capacity,
    }
}

/// Resistive RAM (ReRAM); the most bandwidth-starved candidate.
pub fn reram(capacity: u64) -> TierSpec {
    TierSpec {
        name: "ReRAM".into(),
        read_lat_ns: 300.0,
        write_lat_ns: 3000.0,
        read_bw_gbps: 0.06,
        write_bw_gbps: 0.005,
        capacity,
    }
}

/// Intel Optane DC PMM (App-Direct-mode NUMA-node view).
///
/// Note the *reversed* latency asymmetry (writes appear faster than reads
/// because of the iMC write buffering) and the read/write bandwidth gap —
/// this preset is what makes the read/write-distinction ablation (E10)
/// meaningful.
pub fn optane_pmm(capacity: u64) -> TierSpec {
    TierSpec {
        name: "Optane PMM".into(),
        read_lat_ns: 250.0,
        write_lat_ns: 150.0,
        read_bw_gbps: 3.9,
        write_bw_gbps: 1.3,
        capacity,
    }
}

/// Quartz-style emulated NVM: DRAM with bandwidth scaled to `bw_frac` of
/// DRAM's (latency unchanged). `emulated_bw(0.5, c)` is the paper's
/// "1/2 DRAM BW" configuration. Fails on a non-positive or non-finite
/// fraction.
pub fn emulated_bw(bw_frac: f64, capacity: u64) -> Result<TierSpec, HmsError> {
    let mut t = dram(capacity).scale_bandwidth(bw_frac)?;
    t.name = format!("NVM({}x BW)", bw_frac);
    Ok(t)
}

/// Quartz-style emulated NVM: DRAM with latency scaled by `lat_mult`
/// (bandwidth unchanged). `emulated_lat(4.0, c)` is "4x DRAM latency".
/// Fails on a non-positive or non-finite multiplier.
pub fn emulated_lat(lat_mult: f64, capacity: u64) -> Result<TierSpec, HmsError> {
    let mut t = dram(capacity).scale_latency(lat_mult)?;
    t.name = format!("NVM({}x LAT)", lat_mult);
    Ok(t)
}

/// NUMA-remote-node emulation as used for the paper's strong-scaling runs:
/// 60% of DRAM bandwidth and 1.89x DRAM latency. Infallible — the scale
/// factors are compile-time constants.
pub fn numa_remote(capacity: u64) -> TierSpec {
    let d = dram(capacity);
    TierSpec {
        name: "NVM(NUMA-remote)".into(),
        read_lat_ns: d.read_lat_ns * 1.89,
        write_lat_ns: d.write_lat_ns * 1.89,
        read_bw_gbps: d.read_bw_gbps * 0.6,
        write_bw_gbps: d.write_bw_gbps * 0.6,
        capacity,
    }
}

/// The simulator's scalar copy channel: the *demotion* direction
/// (`dram` → `nvm`) of the derived copy matrix, [`TierSpec::copy_bw_to`],
/// which the virtual-time `Platform` applies to both directions of the
/// fastest↔spill pair. The wall-clock path does not call this: it runs
/// on [`HmsConfig::derived`](crate::HmsConfig::derived), where the
/// promotion direction has its own, faster cell.
pub fn copy_channel_gbps(dram: &TierSpec, nvm: &TierSpec) -> f64 {
    dram.copy_bw_to(nvm)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every named device preset.
    fn all_nvm_presets(capacity: u64) -> Vec<TierSpec> {
        vec![
            stt_ram(capacity),
            pcram(capacity),
            reram(capacity),
            optane_pmm(capacity),
        ]
    }

    #[test]
    fn all_presets_validate() {
        let cap = 1 << 30;
        for spec in all_nvm_presets(cap).iter().chain([&dram(cap)]) {
            spec.validate().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(spec.capacity, cap);
        }
    }

    #[test]
    fn copy_channel_is_the_demotion_cell_of_the_derived_matrix() {
        use crate::{HmsConfig, TierId};
        let d = dram(1 << 20);
        for nvm in all_nvm_presets(1 << 30) {
            let cfg = HmsConfig::derived(vec![d.clone(), nvm.clone()]).unwrap();
            let scalar = copy_channel_gbps(&d, &nvm);
            assert_eq!(
                scalar,
                cfg.copy_bw_between(TierId::FASTEST, cfg.last_tier())
            );
            // The pre-rule spelling, bit for bit.
            assert_eq!(scalar, nvm.write_bw_gbps.min(d.read_bw_gbps) * 0.8);
        }
    }

    #[test]
    fn nvm_presets_are_slower_than_dram() {
        let cap = 1 << 30;
        let d = dram(cap);
        for spec in all_nvm_presets(cap) {
            assert!(
                spec.read_lat_ns > d.read_lat_ns,
                "{} read latency should exceed DRAM",
                spec.name
            );
            assert!(
                spec.read_bw_gbps < d.read_bw_gbps,
                "{} read bandwidth should be below DRAM",
                spec.name
            );
        }
    }

    #[test]
    fn cxl_sits_between_dram_and_optane_on_latency() {
        let c = cxl(1 << 30);
        c.validate().unwrap();
        let d = dram(1);
        let o = optane_pmm(1);
        assert!(d.read_lat_ns < c.read_lat_ns && c.read_lat_ns < o.read_lat_ns);
        // The inversion that makes the middle tier interesting: CXL wins
        // on latency, Optane wins on read bandwidth.
        assert!(c.read_bw_gbps < o.read_bw_gbps);
        assert!(c.write_bw_gbps > o.write_bw_gbps);
    }

    #[test]
    fn optane_write_latency_is_below_read() {
        let o = optane_pmm(1);
        assert!(o.write_lat_ns < o.read_lat_ns);
        assert!(o.write_bw_gbps < o.read_bw_gbps);
    }

    #[test]
    fn emulated_bw_halves_only_bandwidth() {
        let e = emulated_bw(0.5, 1 << 20).unwrap();
        let d = dram(1 << 20);
        assert!((e.read_bw_gbps - d.read_bw_gbps / 2.0).abs() < 1e-12);
        assert!((e.read_lat_ns - d.read_lat_ns).abs() < 1e-12);
    }

    #[test]
    fn emulated_lat_scales_only_latency() {
        let e = emulated_lat(8.0, 1 << 20).unwrap();
        let d = dram(1 << 20);
        assert!((e.read_lat_ns - 80.0).abs() < 1e-12);
        assert!((e.write_bw_gbps - d.write_bw_gbps).abs() < 1e-12);
    }

    #[test]
    fn emulated_presets_reject_bad_factors() {
        assert!(emulated_bw(0.0, 1 << 20).is_err());
        assert!(emulated_lat(f64::NAN, 1 << 20).is_err());
    }

    #[test]
    fn numa_remote_matches_published_point() {
        let e = numa_remote(1 << 20);
        assert!((e.read_bw_gbps - 6.0).abs() < 1e-9);
        assert!((e.read_lat_ns - 18.9).abs() < 1e-9);
    }
}
