//! The models' fixed thresholds: the paper's published values.

/// Fraction of NVM peak bandwidth at or above which an object's traffic
/// is classified bandwidth-sensitive (the paper's `t1 = 80%`).
pub const T_HIGH: f64 = 0.8;

/// Fraction at or below which it is latency-sensitive (`t2 = 10%`).
pub const T_LOW: f64 = 0.1;

/// Relative per-window performance drift that re-arms profiling (the
/// paper re-profiles on >10% variation).
pub const VARIATION_THRESHOLD: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, predicted_mem_time_ns, Demand};
    use tahoe_hms::presets;
    use tahoe_memprof::Calibration;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(T_HIGH, 0.8);
        assert_eq!(T_LOW, 0.1);
        assert_eq!(VARIATION_THRESHOLD, 0.10);
    }

    /// The read/write-blind ablation flips only the pricing switch: a
    /// store costs what a load does, and the classification thresholds
    /// are the same for both models.
    #[test]
    fn ablation_flag() {
        let nvm = presets::optane_pmm(1 << 30);
        let calib = Calibration::identity(3.0, 9.5);
        let loads = Demand {
            loads: 1.0e6,
            stores: 0.0,
            active_ns: 1.0e6,
            concurrency: 16.0,
        };
        let stores = Demand {
            loads: 0.0,
            stores: 1.0e6,
            ..loads
        };
        let blind = |d| predicted_mem_time_ns(&d, &nvm, &calib, false);
        assert_eq!(blind(stores), blind(loads));
        let aware = |d| predicted_mem_time_ns(&d, &nvm, &calib, true);
        assert!(aware(stores) > aware(loads));
        assert_eq!(classify(&stores, 3.0), classify(&loads, 3.0));
    }
}
