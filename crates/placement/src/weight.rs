//! Assembling knapsack items from model outputs.
//!
//! The paper's per-object weight is `w = BFT − COST − extra_COST`:
//! predicted DRAM benefit, minus the (overlap-credited) cost of promoting
//! the object if it is not already resident, minus the cost of evicting
//! victims when DRAM is under pressure. Eviction victims are only known
//! after the knapsack has chosen a set, so — like the paper, which prices
//! eviction per-phase against the previously decided placement — we
//! charge each non-resident candidate an eviction term proportional to
//! how full DRAM currently is.

use tahoe_hms::{Ns, ObjectId, TierSpec};
use tahoe_memprof::Calibration;
use tahoe_perfmodel::{cost, dram_benefit_ns, Demand};

use crate::knapsack::Item;

/// A candidate object for one planning horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectCandidate {
    /// Object id.
    pub id: ObjectId,
    /// Size in bytes.
    pub size: u64,
    /// Estimated traffic over the horizon.
    pub demand: Demand,
    /// Whether the object is DRAM-resident at the horizon's start.
    pub resident: bool,
}

/// Everything needed to price candidates.
#[derive(Debug, Clone)]
pub struct WeighCtx {
    /// NVM tier spec.
    pub nvm: TierSpec,
    /// DRAM tier spec.
    pub dram: TierSpec,
    /// Platform calibration.
    pub calib: Calibration,
    /// Whether the benefit model prices loads and stores separately
    /// (`false`: the read/write-blind ablation).
    pub distinguish_rw: bool,
    /// Copy-channel bandwidth, GB/s.
    pub copy_bw_gbps: f64,
    /// Expected overlap credit per migration, ns (how much copy time the
    /// helper thread typically hides; the planner learns it from the
    /// previous window's measured overlap).
    pub overlap_credit_ns: Ns,
    /// Current DRAM occupancy fraction in `[0, 1]` (drives the eviction
    /// term for non-resident candidates).
    pub dram_pressure: f64,
}

impl WeighCtx {
    /// Price one candidate into a knapsack item.
    pub fn weigh(&self, c: &ObjectCandidate) -> Item {
        let benefit = dram_benefit_ns(
            &c.demand,
            &self.nvm,
            &self.dram,
            &self.calib,
            self.distinguish_rw,
        );
        let move_cost = if c.resident {
            0.0
        } else {
            let promote =
                cost::migration_cost_ns(c.size, self.copy_bw_gbps, self.overlap_credit_ns);
            // Eviction pressure: when DRAM is nearly full, promoting this
            // object forces roughly `size` victim bytes out too.
            let evict = self.dram_pressure.clamp(0.0, 1.0) * c.size as f64 / self.copy_bw_gbps;
            promote + evict
        };
        Item {
            id: c.id,
            size: c.size,
            value: benefit - move_cost,
        }
    }

    /// Price a whole slate of candidates.
    pub fn weigh_all(&self, cands: &[ObjectCandidate]) -> Vec<Item> {
        cands.iter().map(|c| self.weigh(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::presets;

    fn ctx(pressure: f64) -> WeighCtx {
        WeighCtx {
            nvm: presets::optane_pmm(1 << 34),
            dram: presets::dram(1 << 28),
            calib: Calibration::identity(3.0, 9.5),
            distinguish_rw: true,
            copy_bw_gbps: 5.0,
            overlap_credit_ns: 0.0,
            dram_pressure: pressure,
        }
    }

    fn hot_candidate(id: u32, resident: bool) -> ObjectCandidate {
        ObjectCandidate {
            id: ObjectId(id),
            size: 1 << 20,
            demand: Demand {
                loads: 1.0e7,
                stores: 5.0e6,
                active_ns: 1.5e7 * 64.0 / 3.0, // at NVM peak → BW-sensitive
                concurrency: 16.0,
            },
            resident,
        }
    }

    fn cold_candidate(id: u32) -> ObjectCandidate {
        ObjectCandidate {
            id: ObjectId(id),
            size: 1 << 26,
            demand: Demand {
                loads: 10.0,
                stores: 0.0,
                active_ns: 1.0e6,
                ..Demand::ZERO
            },
            resident: false,
        }
    }

    #[test]
    fn hot_objects_get_positive_weight() {
        let it = ctx(0.0).weigh(&hot_candidate(0, false));
        assert!(it.value > 0.0);
    }

    #[test]
    fn cold_objects_do_not_justify_migration() {
        let it = ctx(0.0).weigh(&cold_candidate(0));
        assert!(it.value < 0.0, "value = {}", it.value);
    }

    #[test]
    fn resident_objects_weigh_more_than_identical_nonresident() {
        let c = ctx(0.0);
        let stay = c.weigh(&hot_candidate(0, true));
        let come = c.weigh(&hot_candidate(0, false));
        assert!(stay.value > come.value);
    }

    #[test]
    fn pressure_penalizes_incoming_objects() {
        let relaxed = ctx(0.0).weigh(&hot_candidate(0, false));
        let squeezed = ctx(1.0).weigh(&hot_candidate(0, false));
        assert!(squeezed.value < relaxed.value);
        // But pressure never affects residents.
        let r0 = ctx(0.0).weigh(&hot_candidate(0, true));
        let r1 = ctx(1.0).weigh(&hot_candidate(0, true));
        assert_eq!(r0.value, r1.value);
    }

    #[test]
    fn overlap_credit_reduces_cost() {
        let mut c = ctx(0.0);
        let before = c.weigh(&hot_candidate(0, false));
        c.overlap_credit_ns = 1.0e12; // everything hidden
        let after = c.weigh(&hot_candidate(0, false));
        assert!(after.value > before.value);
        // Fully credited promotion equals the resident weight.
        let resident = c.weigh(&hot_candidate(0, true));
        assert!((after.value - resident.value).abs() < 1e-9);
    }
}
