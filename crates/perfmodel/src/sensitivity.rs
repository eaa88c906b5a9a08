//! Bandwidth- vs latency-sensitivity classification.

use crate::demand::Demand;
use crate::params::{T_HIGH, T_LOW};

/// Why a data object's traffic suffers on NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensitivity {
    /// Streaming-like: limited by NVM's lower bandwidth.
    Bandwidth,
    /// Dependent-chain-like: limited by NVM's longer latency.
    Latency,
    /// In between: benefit is the max of the two models.
    Mixed,
}

/// Classify `demand` against the NVM peak bandwidth (the paper's rule:
/// consumed BW ≥ t1·peak ⇒ bandwidth-sensitive; ≤ t2·peak ⇒
/// latency-sensitive; otherwise mixed).
pub fn classify(demand: &Demand, nvm_peak_bw_gbps: f64) -> Sensitivity {
    let bw = demand.consumed_bw_gbps();
    if bw >= T_HIGH * nvm_peak_bw_gbps {
        Sensitivity::Bandwidth
    } else if bw <= T_LOW * nvm_peak_bw_gbps {
        Sensitivity::Latency
    } else {
        Sensitivity::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand_with_bw(gbps: f64) -> Demand {
        // bytes/active = gbps → choose active = 1e6 ns, bytes = gbps*1e6.
        let bytes = gbps * 1.0e6;
        Demand {
            loads: bytes / 64.0,
            stores: 0.0,
            active_ns: 1.0e6,
            ..Demand::ZERO
        }
    }

    #[test]
    fn high_consumption_is_bandwidth_sensitive() {
        assert_eq!(classify(&demand_with_bw(4.0), 4.0), Sensitivity::Bandwidth);
        assert_eq!(classify(&demand_with_bw(3.3), 4.0), Sensitivity::Bandwidth);
    }

    #[test]
    fn low_consumption_is_latency_sensitive() {
        assert_eq!(classify(&demand_with_bw(0.3), 4.0), Sensitivity::Latency);
        assert_eq!(classify(&Demand::ZERO, 4.0), Sensitivity::Latency);
    }

    #[test]
    fn middle_band_is_mixed() {
        assert_eq!(classify(&demand_with_bw(2.0), 4.0), Sensitivity::Mixed);
    }

    #[test]
    fn thresholds_are_inclusive() {
        // exactly t1·peak → bandwidth; exactly t2·peak → latency.
        assert_eq!(classify(&demand_with_bw(3.2), 4.0), Sensitivity::Bandwidth);
        assert_eq!(classify(&demand_with_bw(0.4), 4.0), Sensitivity::Latency);
    }
}
