//! DRAM-placement benefit: the paper's Eqs. 2–5.

use tahoe_hms::{Ns, TierSpec};
use tahoe_memprof::Calibration;

use crate::demand::Demand;

/// Full benefit of holding an object's traffic in DRAM for one horizon:
/// the roofline-time difference between serving the demand from NVM and
/// from DRAM (see [`crate::predict::predicted_mem_time_ns`]). For
/// bandwidth-classified demand this reduces to the bandwidth model
/// (Eq. 4), for dependent chains to the latency model (Eq. 5), and for
/// the mixed band it avoids the over-prediction a bare `max(Eq.4, Eq.5)`
/// gives to streams whose misses overlap. `distinguish_rw = false` is
/// the read/write-blind ablation: all traffic at read cost (Eqs. 2–3).
pub fn dram_benefit_ns(
    d: &Demand,
    nvm: &TierSpec,
    dram: &TierSpec,
    calib: &Calibration,
    distinguish_rw: bool,
) -> Ns {
    crate::predict::predicted_mem_time_ns(d, nvm, calib, distinguish_rw)
        - crate::predict::predicted_mem_time_ns(d, dram, calib, distinguish_rw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::{classify, Sensitivity};
    use tahoe_hms::{presets, CACHELINE};

    // The paper's single-effect models, the references the roofline
    // benefit is checked against.

    /// Bandwidth-model benefit with separate load/store terms (Eq. 4):
    /// time to stream the traffic at NVM's read/write bandwidths minus the
    /// time at DRAM's, corrected by `CF_bw`.
    fn benefit_bw_ns(d: &Demand, nvm: &TierSpec, dram: &TierSpec, calib: &Calibration) -> Ns {
        let cl = CACHELINE as f64;
        let nvm_time = d.loads * cl / nvm.read_bw_gbps + d.stores * cl / nvm.write_bw_gbps;
        let dram_time = (d.loads + d.stores) * cl / dram.read_bw_gbps;
        (nvm_time - dram_time) * calib.cf_bw
    }

    /// Latency-model benefit with separate load/store terms (Eq. 5),
    /// divided by the demand's estimated memory-level concurrency: misses
    /// that overlap in flight only pay their latency once per `concurrency`
    /// accesses, so pricing them serialized would overestimate the benefit
    /// of streaming traffic that lands in the latency/mixed band.
    fn benefit_lat_ns(d: &Demand, nvm: &TierSpec, dram: &TierSpec, calib: &Calibration) -> Ns {
        let nvm_time = d.loads * nvm.read_lat_ns + d.stores * nvm.write_lat_ns;
        let dram_time = (d.loads + d.stores) * dram.read_lat_ns;
        (nvm_time - dram_time) * calib.cf_lat / d.concurrency.max(1.0)
    }

    fn setup() -> (TierSpec, TierSpec, Calibration) {
        let dram = presets::dram(1 << 30);
        let nvm = presets::optane_pmm(1 << 30);
        let calib = Calibration::identity(3.0, 9.5);
        (dram, nvm, calib)
    }

    fn streaming(loads: f64, stores: f64) -> Demand {
        // Saturating: tiny active time → classified bandwidth-sensitive.
        Demand {
            loads,
            stores,
            active_ns: (loads + stores) * 64.0 / 3.0, // exactly NVM peak
            concurrency: 16.0,
        }
    }

    fn chasing(loads: f64) -> Demand {
        // Very long active time → far below peak → latency-sensitive.
        Demand {
            loads,
            stores: 0.0,
            active_ns: loads * 1000.0,
            concurrency: 1.0,
        }
    }

    #[test]
    fn benefit_positive_when_nvm_slower() {
        let (dram, nvm, calib) = setup();
        let d = streaming(1.0e6, 5.0e5);
        assert!(dram_benefit_ns(&d, &nvm, &dram, &calib, true) > 0.0);
        let d = chasing(1.0e6);
        assert!(dram_benefit_ns(&d, &nvm, &dram, &calib, true) > 0.0);
    }

    #[test]
    fn benefit_zero_when_tiers_identical() {
        let dram = presets::dram(1 << 30);
        let calib = Calibration::identity(9.5, 9.5);
        // Write traffic prices differently (9 vs 10 GB/s) even on "DRAM
        // as NVM", so use pure loads for an exact zero.
        let d = Demand {
            loads: 1.0e6,
            stores: 0.0,
            active_ns: 6.4e6,
            ..Demand::ZERO
        };
        let b = dram_benefit_ns(&d, &dram, &dram, &calib, true);
        assert!(b.abs() < 1e-6, "b = {b}");
    }

    #[test]
    fn store_heavy_traffic_benefits_more_on_asymmetric_nvm() {
        let (dram, nvm, calib) = setup();
        // Same access count; one all-loads, one all-stores. Optane writes
        // at 1.3 GB/s vs reads at 3.9 GB/s ⇒ store benefit must be larger.
        let loads = benefit_bw_ns(&streaming(1.0e6, 0.0), &nvm, &dram, &calib);
        let stores = benefit_bw_ns(&streaming(0.0, 1.0e6), &nvm, &dram, &calib);
        assert!(stores > 2.0 * loads, "stores {stores} vs loads {loads}");
    }

    #[test]
    fn blind_model_misprices_stores() {
        let (dram, nvm, calib) = setup();
        let d = streaming(0.0, 1.0e6);
        let seeing = dram_benefit_ns(&d, &nvm, &dram, &calib, true);
        let blind = dram_benefit_ns(&d, &nvm, &dram, &calib, false);
        // The blind model prices stores at the (faster) read bandwidth and
        // therefore underestimates the benefit on Optane.
        assert!(blind < seeing);
    }

    #[test]
    fn mixed_takes_max_of_models() {
        let (dram, nvm, calib) = setup();
        // Mid-band demand: consumed bw = 50% of peak.
        let d = Demand {
            loads: 1.0e6,
            stores: 0.0,
            active_ns: 1.0e6 * 64.0 / 1.5,
            concurrency: 4.0,
        };
        assert_eq!(classify(&d, calib.nvm_peak_bw_gbps), Sensitivity::Mixed);
        // The roofline benefit is bounded by both single-effect models'
        // NVM terms and is positive here.
        let got = dram_benefit_ns(&d, &nvm, &dram, &calib, true);
        assert!(got > 0.0);
        let bw = benefit_bw_ns(&d, &nvm, &dram, &calib);
        let lat = benefit_lat_ns(&d, &nvm, &dram, &calib);
        assert!(got <= bw.max(lat) + 1e-9, "got {got}, bw {bw}, lat {lat}");
    }

    #[test]
    fn cf_scales_benefit_linearly() {
        let (dram, nvm, mut calib) = setup();
        let d = streaming(1.0e6, 0.0);
        let b1 = benefit_bw_ns(&d, &nvm, &dram, &calib);
        calib.cf_bw = 2.0;
        let b2 = benefit_bw_ns(&d, &nvm, &dram, &calib);
        assert!((b2 / b1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_zero_benefit() {
        let (dram, nvm, calib) = setup();
        assert_eq!(
            dram_benefit_ns(&Demand::ZERO, &nvm, &dram, &calib, true),
            0.0
        );
    }
}
