//! Aggregated, *estimated* memory demand of one data object over one
//! planning horizon (a window or the whole run).

use tahoe_hms::{Ns, CACHELINE};
use tahoe_memprof::ObjClassStats;

/// Estimated traffic to one object over a planning horizon, assembled
/// from profiled per-(class, object) statistics times the number of task
/// instances in the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Demand {
    /// Estimated cache-line loads.
    pub loads: f64,
    /// Estimated cache-line stores.
    pub stores: f64,
    /// Estimated time the object is actively accessed, ns.
    pub active_ns: Ns,
    /// Access-weighted estimated memory-level concurrency (≥ 1); 1.0 for
    /// fully dependent chains, ≈MLP for prefetched streams. Damps the
    /// latency-benefit model so overlapped misses are not priced as
    /// serialized ones.
    pub concurrency: f64,
}

impl Demand {
    /// No traffic.
    pub const ZERO: Demand = Demand {
        loads: 0.0,
        stores: 0.0,
        active_ns: 0.0,
        concurrency: 1.0,
    };

    /// Demand of `instances` task instances with the given per-instance
    /// profile statistics.
    pub fn from_stats(stats: &ObjClassStats, instances: u64) -> Self {
        let n = instances as f64;
        Demand {
            loads: stats.mean_loads * n,
            stores: stats.mean_stores * n,
            active_ns: stats.mean_active_ns * n,
            concurrency: stats.mean_concurrency.max(1.0),
        }
    }

    /// Total estimated accesses.
    pub fn accesses(&self) -> f64 {
        self.loads + self.stores
    }

    /// Total estimated bytes.
    pub fn bytes(&self) -> f64 {
        self.accesses() * CACHELINE as f64
    }

    /// Consumed bandwidth in GB/s (the paper's Eq. 1 numerator over its
    /// denominator).
    pub fn consumed_bw_gbps(&self) -> f64 {
        if self.active_ns <= 0.0 {
            0.0
        } else {
            self.bytes() / self.active_ns
        }
    }

    /// Element-wise sum (concurrency combines access-weighted).
    pub fn add(&self, other: &Demand) -> Demand {
        let a = self.accesses();
        let b = other.accesses();
        let concurrency = if a + b > 0.0 {
            (self.concurrency * a + other.concurrency * b) / (a + b)
        } else {
            1.0
        };
        Demand {
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            active_ns: self.active_ns + other.active_ns,
            concurrency,
        }
    }

    /// Scale all components (chunking: a 1/k chunk carries ~1/k of the
    /// object's traffic).
    pub fn scale(&self, f: f64) -> Demand {
        Demand {
            loads: self.loads * f,
            stores: self.stores * f,
            active_ns: self.active_ns * f,
            concurrency: self.concurrency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_stats_multiplies_by_instances() {
        let s = ObjClassStats {
            mean_loads: 100.0,
            mean_stores: 50.0,
            mean_active_ns: 10.0,
            mean_concurrency: 8.0,
            instances: 2,
        };
        let d = Demand::from_stats(&s, 10);
        assert_eq!(d.loads, 1000.0);
        assert_eq!(d.stores, 500.0);
        assert_eq!(d.active_ns, 100.0);
        assert_eq!(d.accesses(), 1500.0);
        assert_eq!(d.bytes(), 1500.0 * 64.0);
    }

    #[test]
    fn consumed_bw() {
        let d = Demand {
            loads: 1.0e6,
            stores: 0.0,
            active_ns: 6.4e6,
            ..Demand::ZERO
        };
        assert!((d.consumed_bw_gbps() - 10.0).abs() < 1e-9);
        assert_eq!(Demand::ZERO.consumed_bw_gbps(), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let a = Demand {
            loads: 10.0,
            stores: 4.0,
            active_ns: 2.0,
            ..Demand::ZERO
        };
        let b = a.scale(0.5);
        assert_eq!(b.loads, 5.0);
        let c = a.add(&b);
        assert_eq!(c.loads, 15.0);
        assert_eq!(c.stores, 6.0);
        assert_eq!(Demand::ZERO.accesses(), 0.0);
    }
}
