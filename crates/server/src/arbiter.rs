//! Cross-tenant DRAM arbitration: pure quota math.
//!
//! The server's admission path calls [`quotas`] every time a graph is
//! admitted: given the global DRAM budget and each tenant's weight,
//! declared demand and activity, it returns the per-tenant byte quotas
//! the knapsack planner and the preemption pass enforce. Keeping the
//! math pure (no locks, no server state) makes the fairness properties
//! unit-testable in isolation:
//!
//! * **Feasibility** — quotas never sum to more than the budget.
//! * **Starvation-freeness** — every *active* tenant with nonzero
//!   weight receives at least its weighted floor, so a noisy neighbour
//!   can never arbitrate an active tenant down to zero.
//! * **Work conservation** — bytes not needed by one tenant (demand
//!   below its share) flow to tenants that do need them under
//!   [`QuotaPolicy::DemandProportional`].
//!
//! Inactive tenants get a quota of zero: their DRAM-resident objects
//! are fair game for preemption (demotion to NVM) the moment an active
//! tenant needs the space. *When* a tenant counts as inactive is
//! [`Activity::is_active`]'s to say: idleness starts one own-graph
//! latency after the tenant's last graph finished, not at the instant
//! it finished — a closed loop's submit→wait gap is not departure.

use tahoe_hms::Ns;

/// How the arbiter splits the DRAM budget across active tenants.
#[derive(Debug, Clone, PartialEq)]
pub enum QuotaPolicy {
    /// Fixed weighted shares: active tenant `i` gets
    /// `budget * w_i / Σ w` regardless of how much it can use.
    Static,
    /// Weighted floors plus demand-proportional distribution of the
    /// rest: active tenant `i` is guaranteed
    /// `floor_frac * budget * w_i / Σ w`, and the remaining
    /// `(1 - floor_frac) * budget` is split in proportion to declared
    /// demand (bytes of objects whose DRAM residence has positive
    /// predicted value). `floor_frac` is clamped to `[0, 1]`.
    DemandProportional {
        /// Fraction of the budget reserved as guaranteed floors.
        floor_frac: f64,
    },
}

/// What the server knows about a tenant's presence when it arbitrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// A graph of the tenant is dispatched.
    pub busy: bool,
    /// A graph of the tenant waits behind the dispatched one.
    pub queued: bool,
    /// `(finished_ns, latency_ns)` of the tenant's last finished graph:
    /// when it finished on the server clock and its submit→finish
    /// latency. `None` until one has finished.
    pub last_graph: Option<(Ns, Ns)>,
}

impl Activity {
    /// Whether the tenant holds a quota at `now`: while busy or queued,
    /// and for one grace period after its last graph finished. The
    /// grace is that graph's own submit→finish latency — an observed
    /// quantity that scales with the tenant's graphs and the server's
    /// load, where any constant would be wrong for some tenant: a
    /// closed-loop client resubmits within microseconds, far inside
    /// it, so its quota (and the hot set placed under it) survives the
    /// gap; a tenant that leaves is reclaimed by the first admission
    /// after one graph's worth of silence.
    pub fn is_active(&self, now: Ns) -> bool {
        self.busy
            || self.queued
            || self
                .last_graph
                .is_some_and(|(finished, latency)| now - finished < latency)
    }
}

/// One tenant's standing at arbitration time.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantDemand {
    /// Static share weight (from registration).
    pub weight: f64,
    /// Bytes of objects whose DRAM residence the planner values.
    pub demand: u64,
    /// Whether the tenant holds a claim on the budget
    /// ([`Activity::is_active`]: running, queued, or only just idle).
    pub active: bool,
}

/// Per-tenant DRAM quotas in bytes. Inactive or zero-weight tenants
/// get zero; the result always satisfies `sum(quotas) <= budget`.
pub fn quotas(policy: &QuotaPolicy, budget: u64, tenants: &[TenantDemand]) -> Vec<u64> {
    let mut q = vec![0u64; tenants.len()];
    let weight_sum: f64 = tenants
        .iter()
        .filter(|t| t.active && t.weight > 0.0)
        .map(|t| t.weight)
        .sum();
    if weight_sum <= 0.0 {
        return q;
    }
    let share = |w: f64| budget as f64 * w / weight_sum;
    match policy {
        QuotaPolicy::Static => {
            for (qi, t) in q.iter_mut().zip(tenants) {
                if t.active && t.weight > 0.0 {
                    *qi = share(t.weight) as u64;
                }
            }
        }
        QuotaPolicy::DemandProportional { floor_frac } => {
            let ff = floor_frac.clamp(0.0, 1.0);
            let floor_total: f64 = budget as f64 * ff;
            let leftover = budget as f64 - floor_total;
            let demand_sum: f64 = tenants
                .iter()
                .filter(|t| t.active && t.weight > 0.0)
                .map(|t| t.demand as f64)
                .sum();
            for (qi, t) in q.iter_mut().zip(tenants) {
                if !(t.active && t.weight > 0.0) {
                    continue;
                }
                let floor = floor_total * t.weight / weight_sum;
                let extra = if demand_sum > 0.0 {
                    leftover * t.demand as f64 / demand_sum
                } else {
                    // Nobody declared demand: fall back to weights so
                    // the budget is not wasted.
                    leftover * t.weight / weight_sum
                };
                *qi = (floor + extra) as u64;
            }
        }
    }
    // Truncation keeps each quota at or below its real-valued share,
    // but guard against accumulated floating-point excess anyway.
    let mut total: u64 = q.iter().sum();
    while total > budget {
        let i = q
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .expect("nonempty");
        let cut = (total - budget).min(q[i]);
        q[i] -= cut;
        total -= cut;
    }
    q
}

/// Jain's fairness index over per-tenant allocations or rates:
/// `(Σx)² / (n · Σx²)`. Ranges from `1/n` (one tenant gets
/// everything) to `1.0` (perfectly equal); an empty or all-zero input
/// is perfectly fair by convention.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(weight: f64, demand: u64, active: bool) -> TenantDemand {
        TenantDemand {
            weight,
            demand,
            active,
        }
    }

    const BUDGET: u64 = 1 << 20;

    #[test]
    fn quotas_never_exceed_budget() {
        for policy in [
            QuotaPolicy::Static,
            QuotaPolicy::DemandProportional { floor_frac: 0.5 },
            QuotaPolicy::DemandProportional { floor_frac: 0.0 },
            QuotaPolicy::DemandProportional { floor_frac: 1.0 },
        ] {
            for n in 1..7 {
                let tenants: Vec<TenantDemand> = (0..n)
                    .map(|i| t(1.0 + i as f64, (i as u64) * 100_000, i % 3 != 2))
                    .collect();
                let q = quotas(&policy, BUDGET, &tenants);
                assert!(
                    q.iter().sum::<u64>() <= BUDGET,
                    "{policy:?} with {n} tenants oversubscribed: {q:?}"
                );
            }
        }
    }

    #[test]
    fn static_split_is_weight_proportional() {
        let q = quotas(
            &QuotaPolicy::Static,
            BUDGET,
            &[t(1.0, 0, true), t(3.0, 0, true)],
        );
        assert_eq!(q[0], BUDGET / 4);
        assert_eq!(q[1], 3 * (BUDGET / 4));
    }

    #[test]
    fn inactive_and_zero_weight_tenants_get_zero() {
        for policy in [
            QuotaPolicy::Static,
            QuotaPolicy::DemandProportional { floor_frac: 0.5 },
        ] {
            let q = quotas(
                &policy,
                BUDGET,
                &[t(1.0, 500, false), t(0.0, 500, true), t(1.0, 500, true)],
            );
            assert_eq!(q[0], 0, "inactive tenant must hold no quota");
            assert_eq!(q[1], 0, "zero-weight tenant must hold no quota");
            assert!(q[2] > 0);
        }
    }

    #[test]
    fn demand_proportional_respects_floors() {
        // Starvation-freeness: tenant 0 declares no demand but is
        // active, so it keeps its weighted floor; the greedy tenant
        // cannot take it.
        let q = quotas(
            &QuotaPolicy::DemandProportional { floor_frac: 0.5 },
            BUDGET,
            &[t(1.0, 0, true), t(1.0, u64::MAX / 2, true)],
        );
        let floor_each = (BUDGET as f64 * 0.5 / 2.0) as u64;
        assert!(
            q[0] >= floor_each,
            "active tenant starved below its floor: {} < {floor_each}",
            q[0]
        );
        assert!(q[1] > q[0], "demand must attract the leftover");
    }

    #[test]
    fn demand_proportional_splits_leftover_by_demand() {
        let q = quotas(
            &QuotaPolicy::DemandProportional { floor_frac: 0.0 },
            BUDGET,
            &[t(1.0, 100, true), t(1.0, 300, true)],
        );
        // No floors: pure demand split, 1:3.
        assert_eq!(q[0], BUDGET / 4);
        assert_eq!(q[1], 3 * (BUDGET / 4));
    }

    #[test]
    fn zero_total_demand_falls_back_to_weights() {
        let q = quotas(
            &QuotaPolicy::DemandProportional { floor_frac: 0.25 },
            BUDGET,
            &[t(1.0, 0, true), t(1.0, 0, true)],
        );
        assert_eq!(q[0], BUDGET / 2);
        assert_eq!(q[1], BUDGET / 2);
    }

    #[test]
    fn activity_lasts_one_own_latency_past_the_last_graph() {
        let idle = Activity {
            busy: false,
            queued: false,
            last_graph: None,
        };
        // Never completed anything and nothing in flight: no claim.
        assert!(!idle.is_active(0.0) && !idle.is_active(1e9));
        // Busy or queued: active whatever the clock says.
        let busy = Activity { busy: true, ..idle };
        let queued = Activity {
            queued: true,
            ..idle
        };
        assert!(busy.is_active(1e12) && queued.is_active(1e12));
        // Finished at t = 1000 after a 400 ns graph: the claim lasts
        // until t = 1400, exclusive.
        let done = Activity {
            last_graph: Some((1000.0, 400.0)),
            ..idle
        };
        assert!(done.is_active(1000.0) && done.is_active(1399.0));
        assert!(!done.is_active(1400.0) && !done.is_active(5000.0));
        // The grace is the tenant's own: a slower graph holds longer.
        let slow = Activity {
            last_graph: Some((1000.0, 4000.0)),
            ..idle
        };
        assert!(slow.is_active(4999.0) && !slow.is_active(5000.0));
    }

    #[test]
    fn all_inactive_means_all_zero() {
        let q = quotas(
            &QuotaPolicy::Static,
            BUDGET,
            &[t(1.0, 10, false), t(2.0, 10, false)],
        );
        assert_eq!(q, vec![0, 0]);
    }

    #[test]
    fn jain_bounds_and_known_points() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything: J = 1/n.
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let j = jain(&[1.0, 2.0, 3.0, 4.0]);
        assert!(j > 0.25 && j < 1.0, "mid fairness must be interior: {j}");
    }
}
