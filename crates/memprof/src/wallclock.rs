//! Wall-clock calibration: fit a [`TierSpec`] from *measured* kernels.
//!
//! The virtual-time calibration in [`crate::calibrate`] works on modelled
//! numbers; this module is its measured-mode sibling. It runs the
//! executable STREAM-triad and pointer-chase kernels from
//! [`crate::kernels`] over caller-provided buffers — in measured mode
//! those are slices of the `mmap` tier arenas — and fits a device spec
//! plus the paper's `CF_bw`/`CF_lat` correction factors from the
//! wall-clock timings:
//!
//! * sustained bandwidth from the triad's bytes-per-nanosecond,
//! * dependent-access latency from the chase's nanoseconds-per-load,
//! * `CF_bw` / `CF_lat` as measured time over the analytic model's
//!   prediction on the *fitted* spec — the residual the roofline model
//!   cannot express on this machine.
//!
//! The module takes plain `&mut [u8]` buffers rather than arena types so
//! it has no dependency on `tahoe-realmem`; any memory works, which is
//! also what makes the fit testable on heap buffers.

use std::time::Instant;

use tahoe_hms::{HmsError, TierSpec, CACHELINE};

use crate::kernels;

/// Sizing knobs for one wall-clock measurement pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallClockConfig {
    /// `f64` elements per STREAM array (three arrays are carved from the
    /// buffer).
    pub stream_elems: usize,
    /// Nodes in the pointer-chase cycle.
    pub chase_nodes: usize,
    /// Dependent loads timed over the cycle.
    pub chase_steps: u64,
    /// Triad repetitions (timings are averaged over all of them).
    pub iters: u32,
}

impl WallClockConfig {
    /// Small-but-honest sizing for CI smoke runs: ~1.5 MB of streams +
    /// a 256 KB chase working set, well past L2 on any modern core.
    pub fn smoke() -> Self {
        WallClockConfig {
            stream_elems: 1 << 16,
            chase_nodes: 1 << 15,
            chase_steps: 300_000,
            iters: 4,
        }
    }

    /// Full calibration sizing (~24 MB streams, 8 MB chase).
    pub fn full() -> Self {
        WallClockConfig {
            stream_elems: 1 << 20,
            chase_nodes: 1 << 20,
            chase_steps: 2_000_000,
            iters: 8,
        }
    }

    /// Bytes of buffer [`measure_tier`] needs for this sizing (plus
    /// alignment slack).
    pub fn required_bytes(&self) -> u64 {
        (3 * self.stream_elems * 8 + self.chase_nodes * 8 + 64) as u64
    }
}

/// Raw wall-clock numbers from one tier's kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredTier {
    /// Sustained triad bandwidth, GB/s (== bytes/ns).
    pub stream_bw_gbps: f64,
    /// Per-dependent-load latency, ns.
    pub chase_lat_ns: f64,
    /// Total wall time of the timed triad iterations, ns.
    pub stream_wall_ns: f64,
    /// Total wall time of the timed chase, ns.
    pub chase_wall_ns: f64,
}

/// Run both kernels over `buf` and measure. The buffer is carved into
/// three triad arrays and one chase cycle; it must hold
/// [`WallClockConfig::required_bytes`]. Returns an error only when the
/// buffer is too small.
pub fn measure_tier(buf: &mut [u8], cfg: &WallClockConfig) -> Result<MeasuredTier, String> {
    if (buf.len() as u64) < cfg.required_bytes() {
        return Err(format!(
            "calibration buffer too small: {} < {} bytes",
            buf.len(),
            cfg.required_bytes()
        ));
    }
    // Aligned f64 view over the raw bytes (arena offsets are not
    // guaranteed 8-byte aligned; align_to sheds the ragged edges).
    // SAFETY: f64 tolerates any bit pattern and the aligned middle is
    // properly aligned by construction.
    #[allow(unsafe_code)]
    let (_, words, _) = unsafe { buf.align_to_mut::<f64>() };
    let n = cfg.stream_elems;
    let (abc, rest) = words.split_at_mut(3 * n);
    let (a, bc) = abc.split_at_mut(n);
    let (b, c) = bc.split_at_mut(n);

    // Deterministic non-trivial operands.
    for (i, x) in b.iter_mut().enumerate() {
        *x = (i % 1013) as f64 * 0.5;
    }
    for (i, x) in c.iter_mut().enumerate() {
        *x = (i % 911) as f64 * 0.25;
    }

    // Warm-up pass faults the pages in; not timed.
    kernels::run_stream_triad(a, b, c, 3.0);
    let start = Instant::now();
    for _ in 0..cfg.iters.max(1) {
        kernels::run_stream_triad(a, b, c, 3.0);
    }
    let stream_wall_ns = (start.elapsed().as_nanos() as f64).max(1.0);
    // Triad traffic: per element, 16 B read (b, c) + 8 B write (a). The
    // read-for-ownership of `a` is not counted, matching STREAM's own
    // accounting.
    let bytes = cfg.iters.max(1) as u64 * 24 * n as u64;
    let stream_bw_gbps = bytes as f64 / stream_wall_ns;

    // Chase cycle lives in the remaining words, bit-cast to u64 indices.
    // SAFETY: same-size plain-old-data reinterpretation.
    #[allow(unsafe_code)]
    let (_, chase_words, _) = unsafe { rest.align_to_mut::<u64>() };
    let nodes = cfg.chase_nodes.min(chase_words.len());
    let cycle = kernels::chase_cycle(nodes, 0xC0FFEE);
    chase_words[..nodes].copy_from_slice(&cycle);
    let chase_region = &chase_words[..nodes];
    // Short warm-up, then the timed dependent chain.
    kernels::run_pchase(chase_region, (cfg.chase_steps / 10).max(1));
    let start = Instant::now();
    kernels::run_pchase(chase_region, cfg.chase_steps.max(1));
    let chase_wall_ns = (start.elapsed().as_nanos() as f64).max(1.0);
    let chase_lat_ns = chase_wall_ns / cfg.chase_steps.max(1) as f64;

    Ok(MeasuredTier {
        stream_bw_gbps,
        chase_lat_ns,
        stream_wall_ns,
        chase_wall_ns,
    })
}

/// Fit a symmetric [`TierSpec`] from measured kernel numbers. The
/// kernels cannot separate read from write behaviour without hardware
/// counters, so the fitted spec is symmetric; asymmetry enters through
/// [`derive_scaled_spec`].
pub fn fit_tier_spec(
    name: &str,
    measured: &MeasuredTier,
    capacity: u64,
) -> Result<TierSpec, HmsError> {
    let spec = TierSpec::symmetric(
        name,
        measured.chase_lat_ns.max(1e-3),
        measured.stream_bw_gbps.max(1e-6),
        capacity,
    );
    spec.validate()?;
    Ok(spec)
}

/// Derive an emulated-NVM spec from a fitted DRAM spec by transplanting
/// a reference preset's DRAM→NVM ratios: the *shape* of the slowdown
/// comes from the device table, the *absolute scale* from this machine.
pub fn derive_scaled_spec(
    fitted_dram: &TierSpec,
    reference_dram: &TierSpec,
    reference_nvm: &TierSpec,
    capacity: u64,
) -> TierSpec {
    TierSpec {
        name: format!("{} (measured-scaled)", reference_nvm.name),
        read_lat_ns: fitted_dram.read_lat_ns
            * (reference_nvm.read_lat_ns / reference_dram.read_lat_ns),
        write_lat_ns: fitted_dram.write_lat_ns
            * (reference_nvm.write_lat_ns / reference_dram.write_lat_ns),
        read_bw_gbps: fitted_dram.read_bw_gbps
            * (reference_nvm.read_bw_gbps / reference_dram.read_bw_gbps),
        write_bw_gbps: fitted_dram.write_bw_gbps
            * (reference_nvm.write_bw_gbps / reference_dram.write_bw_gbps),
        capacity,
    }
}

/// A complete measured-mode calibration: fitted specs plus the paper's
/// correction factors.
#[derive(Debug, Clone, PartialEq)]
pub struct WallClockCalibration {
    /// Fitted fast-tier spec (capacity is the caller's budget).
    pub dram: TierSpec,
    /// Derived slow-tier spec.
    pub nvm: TierSpec,
    /// Measured STREAM time ÷ model-predicted time on the fitted spec.
    pub cf_bw: f64,
    /// Measured chase time ÷ (steps × fitted latency).
    pub cf_lat: f64,
    /// The raw measurement the fit came from.
    pub measured: MeasuredTier,
}

impl WallClockCalibration {
    /// A synthetic calibration — no kernel measurement, the same on
    /// every machine: DRAM at 10 GB/s / 100 ns, NVM 3× slower on both
    /// axes, correction factors 1.0. Only the capacities shape a run.
    /// For tests, doc examples and machine-independent artifacts.
    pub fn synthetic(dram_capacity: u64, nvm_capacity: u64) -> Self {
        WallClockCalibration {
            dram: TierSpec::symmetric("dram", 100.0, 10.0, dram_capacity),
            nvm: TierSpec::symmetric("nvm", 300.0, 3.0, nvm_capacity),
            cf_bw: 1.0,
            cf_lat: 1.0,
            measured: MeasuredTier {
                stream_bw_gbps: 10.0,
                chase_lat_ns: 100.0,
                stream_wall_ns: 1000.0,
                chase_wall_ns: 1000.0,
            },
        }
    }
}

/// Fit everything from one tier measurement: spec, derived NVM spec, and
/// the correction factors closing the loop between the measurement and
/// the analytic model evaluated on the fitted spec.
pub fn fit_calibration(
    measured: &MeasuredTier,
    cfg: &WallClockConfig,
    reference_dram: &TierSpec,
    reference_nvm: &TierSpec,
    dram_capacity: u64,
    nvm_capacity: u64,
) -> Result<WallClockCalibration, HmsError> {
    let dram = fit_tier_spec("DRAM (measured)", measured, dram_capacity)?;
    let nvm = derive_scaled_spec(&dram, reference_dram, reference_nvm, nvm_capacity);
    nvm.validate()?;

    // CF_bw: what the roofline model predicts for the triad's profile on
    // the fitted spec, against the wall clock.
    let lines_per_array = (cfg.stream_elems as u64 * 8).div_ceil(CACHELINE);
    let triad_profile = kernels::stream_triad(lines_per_array);
    let predicted_stream = triad_profile.mem_time_ns(&dram) * cfg.iters.max(1) as f64;
    let cf_bw = if predicted_stream > 0.0 {
        measured.stream_wall_ns / predicted_stream
    } else {
        1.0
    };

    let predicted_chase = cfg.chase_steps.max(1) as f64 * dram.read_lat_ns;
    let cf_lat = if predicted_chase > 0.0 {
        measured.chase_wall_ns / predicted_chase
    } else {
        1.0
    };

    Ok(WallClockCalibration {
        dram,
        nvm,
        cf_bw,
        cf_lat,
        measured: *measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::presets;

    fn tiny() -> WallClockConfig {
        WallClockConfig {
            stream_elems: 1 << 12,
            chase_nodes: 1 << 10,
            chase_steps: 20_000,
            iters: 2,
        }
    }

    #[test]
    fn measure_produces_positive_finite_numbers() {
        let cfg = tiny();
        let mut buf = vec![0u8; cfg.required_bytes() as usize];
        let m = measure_tier(&mut buf, &cfg).unwrap();
        assert!(m.stream_bw_gbps > 0.0 && m.stream_bw_gbps.is_finite());
        assert!(m.chase_lat_ns > 0.0 && m.chase_lat_ns.is_finite());
        assert!(m.stream_wall_ns > 0.0 && m.chase_wall_ns > 0.0);
    }

    #[test]
    fn too_small_buffer_is_rejected() {
        let cfg = tiny();
        let mut buf = vec![0u8; 16];
        assert!(measure_tier(&mut buf, &cfg).is_err());
    }

    #[test]
    fn fitted_spec_validates_and_mirrors_measurement() {
        let m = MeasuredTier {
            stream_bw_gbps: 12.5,
            chase_lat_ns: 85.0,
            stream_wall_ns: 1e6,
            chase_wall_ns: 1e6,
        };
        let s = fit_tier_spec("t", &m, 1 << 20).unwrap();
        assert_eq!(s.read_bw_gbps, 12.5);
        assert_eq!(s.read_lat_ns, 85.0);
        assert_eq!(s.read_lat_ns, s.write_lat_ns);
        s.validate().unwrap();
    }

    #[test]
    fn derived_spec_keeps_preset_ratios() {
        let fitted = TierSpec::symmetric("m", 50.0, 20.0, 1 << 20);
        let rd = presets::dram(1 << 20);
        let rn = presets::optane_pmm(1 << 20);
        let nvm = derive_scaled_spec(&fitted, &rd, &rn, 1 << 22);
        // Optane read BW is 0.39x DRAM's; the derived spec preserves it.
        assert!((nvm.read_bw_gbps / fitted.read_bw_gbps - 0.39).abs() < 1e-9);
        assert!((nvm.read_lat_ns / fitted.read_lat_ns - 25.0).abs() < 1e-9);
        assert_eq!(nvm.capacity, 1 << 22);
        nvm.validate().unwrap();
    }

    #[test]
    fn end_to_end_fit_on_heap_buffers() {
        let cfg = tiny();
        let mut buf = vec![0u8; cfg.required_bytes() as usize];
        let m = measure_tier(&mut buf, &cfg).unwrap();
        let cal = fit_calibration(
            &m,
            &cfg,
            &presets::dram(1 << 20),
            &presets::optane_pmm(1 << 20),
            1 << 20,
            1 << 22,
        )
        .unwrap();
        cal.dram.validate().unwrap();
        cal.nvm.validate().unwrap();
        assert!(cal.cf_bw > 0.0 && cal.cf_bw.is_finite());
        assert!(cal.cf_lat > 0.0 && cal.cf_lat.is_finite());
        // The derived NVM must be strictly slower than the fitted DRAM.
        assert!(cal.nvm.read_bw_gbps < cal.dram.read_bw_gbps);
        assert!(cal.nvm.read_lat_ns > cal.dram.read_lat_ns);
    }
}
