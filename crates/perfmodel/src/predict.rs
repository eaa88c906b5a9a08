//! Predicted memory time of estimated traffic on a tier.
//!
//! Used when comparing placement plans: the planner prices each object's
//! horizon traffic on DRAM and on NVM with the *corrected* models and
//! keeps whichever plan predicts the smaller total. The prediction is a
//! roofline over the calibrated bandwidth and latency terms — the same
//! structure as the ground-truth model, but driven by sampled counts and
//! the calibration constants instead of true counts and true MLP.

use tahoe_hms::{Ns, TierSpec, CACHELINE};
use tahoe_memprof::Calibration;

use crate::demand::Demand;

/// Predicted time to serve `d` from `tier`. `distinguish_rw` prices
/// loads and stores separately (Eqs. 4–5); `false` is the read/write-blind
/// ablation, which prices every access at read cost (Eqs. 2–3).
pub fn predicted_mem_time_ns(
    d: &Demand,
    tier: &TierSpec,
    calib: &Calibration,
    distinguish_rw: bool,
) -> Ns {
    let cl = CACHELINE as f64;
    let conc = d.concurrency.max(1.0);
    let (bw_term, lat_term) = if distinguish_rw {
        (
            (d.loads * cl / tier.read_bw_gbps + d.stores * cl / tier.write_bw_gbps) * calib.cf_bw,
            (d.loads * tier.read_lat_ns + d.stores * tier.write_lat_ns) * calib.cf_lat / conc,
        )
    } else {
        (
            d.accesses() * cl / tier.read_bw_gbps * calib.cf_bw,
            d.accesses() * tier.read_lat_ns * calib.cf_lat / conc,
        )
    };
    // Roofline: the concurrency-damped latency term only binds when the
    // access stream cannot keep the pipes full.
    bw_term.max(lat_term)
}

/// Predicted *saving* of serving `d` from DRAM rather than NVM (may be
/// negative if the models disagree; the planner clamps).
pub fn predicted_saving_ns(
    d: &Demand,
    nvm: &TierSpec,
    dram: &TierSpec,
    calib: &Calibration,
    distinguish_rw: bool,
) -> Ns {
    predicted_mem_time_ns(d, nvm, calib, distinguish_rw)
        - predicted_mem_time_ns(d, dram, calib, distinguish_rw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::presets;

    fn calib() -> Calibration {
        Calibration::identity(3.0, 9.5)
    }

    #[test]
    fn bandwidth_demand_prices_at_bandwidth() {
        let dram = presets::dram(1 << 30);
        let d = Demand {
            loads: 1.0e6,
            stores: 0.0,
            active_ns: 1.0e6 * 64.0 / 3.0, // at NVM peak → bandwidth class
            concurrency: 16.0,
        };
        let t = predicted_mem_time_ns(&d, &dram, &calib(), true);
        assert!((t - 6.4e6).abs() / 6.4e6 < 1e-9);
    }

    #[test]
    fn latency_demand_prices_at_latency() {
        let nvm = presets::optane_pmm(1 << 30);
        let d = Demand {
            loads: 1.0e6,
            stores: 0.0,
            active_ns: 1.0e9, // 0.064 GB/s — far below peak → latency class
            concurrency: 1.0,
        };
        let t = predicted_mem_time_ns(&d, &nvm, &calib(), true);
        assert!((t - 2.5e8).abs() / 2.5e8 < 1e-9); // 1e6 × 250 ns
    }

    #[test]
    fn saving_positive_on_slower_nvm() {
        let dram = presets::dram(1 << 30);
        let nvm = presets::emulated_bw(0.25, 1 << 30).unwrap();
        let d = Demand {
            loads: 2.0e6,
            stores: 1.0e6,
            active_ns: 3.0e6 * 64.0 / 2.4, // at the slow peak
            concurrency: 16.0,
        };
        let c = Calibration::identity(2.4, 9.5);
        assert!(predicted_saving_ns(&d, &nvm, &dram, &c, true) > 0.0);
    }

    #[test]
    fn blind_prediction_ignores_write_penalty() {
        let nvm = presets::optane_pmm(1 << 30);
        let d = Demand {
            loads: 0.0,
            stores: 1.0e6,
            active_ns: 1.0e6 * 64.0 / 3.0,
            concurrency: 16.0,
        };
        let seeing = predicted_mem_time_ns(&d, &nvm, &calib(), true);
        let blind = predicted_mem_time_ns(&d, &nvm, &calib(), false);
        assert!(
            seeing > 2.0 * blind,
            "store traffic must look much slower to the rw-aware model"
        );
    }
}
