//! Local (per-window) and global (cross-window) placement search.
//!
//! The paper computes both: the local search picks the best DRAM set for
//! every window separately (adapting to phase behaviour at the price of
//! more migrations), the global search treats the whole run as one
//! horizon (at most one migration per object, but a compromise
//! placement). The runtime compares the predicted net gains and enforces
//! the winner.

use std::collections::BTreeSet;

use tahoe_hms::ObjectId;
use tahoe_perfmodel::Demand;

use crate::knapsack::solve;
use crate::plan::{Plan, PlanKind, WindowPlan};
use crate::weight::{ObjectCandidate, WeighCtx};

/// Demand of every object in one window: `(id, size, demand)`.
pub type WindowDemand = Vec<(ObjectId, u64, Demand)>;

/// Per-window local search. `initial_dram` is the DRAM set in force when
/// the plan starts executing. The weigh context's residency and pressure
/// fields are updated as the search walks the windows.
pub fn local_plan(
    windows: &[WindowDemand],
    initial_dram: &BTreeSet<ObjectId>,
    dram_capacity: u64,
    ctx: &WeighCtx,
) -> Plan {
    let mut current: BTreeSet<ObjectId> = initial_dram.clone();
    let mut plans = Vec::with_capacity(windows.len());
    let mut total_gain = 0.0;
    for (w, demands) in windows.iter().enumerate() {
        let occupied: u64 = demands
            .iter()
            .filter(|(id, _, _)| current.contains(id))
            .map(|(_, size, _)| *size)
            .sum();
        let mut ctx_w = ctx.clone();
        ctx_w.dram_pressure = if dram_capacity == 0 {
            1.0
        } else {
            (occupied as f64 / dram_capacity as f64).min(1.0)
        };
        let cands: Vec<ObjectCandidate> = demands
            .iter()
            .map(|&(id, size, demand)| ObjectCandidate {
                id,
                size,
                demand,
                resident: current.contains(&id),
            })
            .collect();
        let items = ctx_w.weigh_all(&cands);
        let sol = solve(&items, dram_capacity);
        let target: BTreeSet<ObjectId> = sol.chosen.iter().copied().collect();
        let promote: Vec<ObjectId> = target.difference(&current).copied().collect();
        // Objects only leave DRAM to make room; objects outside this
        // window's demand keep their residency.
        let evict: Vec<ObjectId> = current
            .iter()
            .filter(|id| demands.iter().any(|(d, _, _)| d == *id) && !target.contains(*id))
            .copied()
            .collect();
        for id in &evict {
            current.remove(id);
        }
        for id in &promote {
            current.insert(*id);
        }
        total_gain += sol.total_value;
        plans.push(WindowPlan {
            window: w as u32,
            dram_set: target,
            promote,
            evict,
            predicted_gain_ns: sol.total_value,
        });
    }
    Plan {
        kind: PlanKind::Local,
        windows: plans,
        predicted_gain_ns: total_gain,
    }
}

/// Cross-window global search: sum each object's demand over all windows
/// and solve one knapsack; the chosen set is enforced at the start and
/// never changes.
pub fn global_plan(
    windows: &[WindowDemand],
    initial_dram: &BTreeSet<ObjectId>,
    dram_capacity: u64,
    ctx: &WeighCtx,
) -> Plan {
    use std::collections::BTreeMap;
    if windows.is_empty() {
        return Plan {
            kind: PlanKind::Global,
            windows: Vec::new(),
            predicted_gain_ns: 0.0,
        };
    }
    let mut agg: BTreeMap<ObjectId, (u64, Demand)> = BTreeMap::new();
    for demands in windows {
        for &(id, size, demand) in demands {
            let e = agg.entry(id).or_insert((size, Demand::ZERO));
            e.0 = e.0.max(size);
            e.1 = e.1.add(&demand);
        }
    }
    let cands: Vec<ObjectCandidate> = agg
        .iter()
        .map(|(&id, &(size, demand))| ObjectCandidate {
            id,
            size,
            demand,
            resident: initial_dram.contains(&id),
        })
        .collect();
    let items = ctx.weigh_all(&cands);
    let sol = solve(&items, dram_capacity);
    let target: BTreeSet<ObjectId> = sol.chosen.iter().copied().collect();
    let promote: Vec<ObjectId> = target.difference(initial_dram).copied().collect();
    let evict: Vec<ObjectId> = initial_dram
        .iter()
        .filter(|id| agg.contains_key(id) && !target.contains(*id))
        .copied()
        .collect();
    let first = WindowPlan {
        window: 0,
        dram_set: target.clone(),
        promote,
        evict,
        predicted_gain_ns: sol.total_value,
    };
    // Later windows keep the same set, no transitions.
    let mut plan_windows = vec![first];
    for w in 1..windows.len() {
        plan_windows.push(WindowPlan {
            window: w as u32,
            dram_set: target.clone(),
            promote: Vec::new(),
            evict: Vec::new(),
            predicted_gain_ns: 0.0,
        });
    }
    Plan {
        kind: PlanKind::Global,
        windows: plan_windows,
        predicted_gain_ns: sol.total_value,
    }
}

/// Compute both plans and keep the one with the larger predicted gain
/// (ties go to global, which migrates less).
pub fn choose_plan(
    windows: &[WindowDemand],
    initial_dram: &BTreeSet<ObjectId>,
    dram_capacity: u64,
    ctx: &WeighCtx,
) -> Plan {
    let local = local_plan(windows, initial_dram, dram_capacity, ctx);
    let global = global_plan(windows, initial_dram, dram_capacity, ctx);
    // Near-ties go to global (fewer migrations); the epsilon absorbs
    // floating-point association differences between the two sums.
    let eps = 1e-9 * global.predicted_gain_ns.abs().max(1.0);
    if local.predicted_gain_ns > global.predicted_gain_ns + eps {
        local
    } else {
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::presets;
    use tahoe_memprof::Calibration;

    fn ctx() -> WeighCtx {
        WeighCtx {
            nvm: presets::optane_pmm(1 << 34),
            dram: presets::dram(1 << 28),
            calib: Calibration::identity(3.0, 9.5),
            distinguish_rw: true,
            copy_bw_gbps: 5.0,
            overlap_credit_ns: 0.0,
            dram_pressure: 0.0,
        }
    }

    /// Bandwidth-saturating demand worth migrating for.
    fn hot() -> Demand {
        Demand {
            loads: 1.0e8,
            stores: 5.0e7,
            active_ns: 1.5e8 * 64.0 / 3.0,
            concurrency: 16.0,
        }
    }

    fn cold() -> Demand {
        Demand {
            loads: 1000.0,
            stores: 0.0,
            active_ns: 1.0e6,
            ..Demand::ZERO
        }
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn global_plan_picks_hottest_objects_once() {
        // Two objects hot in every window, one cold; DRAM fits two.
        let o = |i| ObjectId(i);
        let w: WindowDemand = vec![(o(0), MB, hot()), (o(1), MB, hot()), (o(2), MB, cold())];
        let windows = vec![w.clone(), w.clone(), w];
        let plan = global_plan(&windows, &BTreeSet::new(), 2 * MB, &ctx());
        assert_eq!(plan.kind, PlanKind::Global);
        let set = plan.dram_set_for(0).unwrap();
        assert!(set.contains(&o(0)) && set.contains(&o(1)));
        assert!(!set.contains(&o(2)));
        // Only the first window migrates.
        assert_eq!(plan.migration_count(), 2);
        assert_eq!(plan.windows.len(), 3);
    }

    #[test]
    fn local_plan_adapts_to_phase_change() {
        // Window 0 is hot on object 0; window 1 is hot on object 1. DRAM
        // fits only one object.
        let o = |i| ObjectId(i);
        let w0: WindowDemand = vec![(o(0), MB, hot()), (o(1), MB, cold())];
        let w1: WindowDemand = vec![(o(0), MB, cold()), (o(1), MB, hot())];
        let plan = local_plan(&[w0, w1], &BTreeSet::new(), MB, &ctx());
        assert!(plan.windows[0].dram_set.contains(&o(0)));
        assert!(plan.windows[1].dram_set.contains(&o(1)));
        // Window 1 must evict 0 and promote 1.
        assert_eq!(plan.windows[1].promote, vec![o(1)]);
        assert_eq!(plan.windows[1].evict, vec![o(0)]);
    }

    #[test]
    fn stable_workload_prefers_global() {
        let o = |i| ObjectId(i);
        let w: WindowDemand = vec![(o(0), MB, hot()), (o(1), MB, hot())];
        let windows = vec![w.clone(), w.clone(), w.clone(), w];
        let plan = choose_plan(&windows, &BTreeSet::new(), 2 * MB, &ctx());
        // Same set every window → global's single migration wins (gain is
        // equal or better because residents weigh more than movers).
        assert_eq!(plan.kind, PlanKind::Global);
    }

    #[test]
    fn phased_workload_prefers_local() {
        let o = |i| ObjectId(i);
        // Strongly alternating phases, small DRAM.
        let w0: WindowDemand = vec![(o(0), MB, hot()), (o(1), MB, cold())];
        let w1: WindowDemand = vec![(o(0), MB, cold()), (o(1), MB, hot())];
        let windows = vec![w0.clone(), w1.clone(), w0.clone(), w1, w0];
        let plan = choose_plan(&windows, &BTreeSet::new(), MB, &ctx());
        assert_eq!(plan.kind, PlanKind::Local);
    }

    #[test]
    fn initial_residency_counts() {
        let o = |i| ObjectId(i);
        let w: WindowDemand = vec![(o(0), MB, hot())];
        let initial: BTreeSet<ObjectId> = [o(0)].into_iter().collect();
        let plan = global_plan(&[w], &initial, 2 * MB, &ctx());
        // Already resident: chosen, but no migration needed.
        assert!(plan.dram_set_for(0).unwrap().contains(&o(0)));
        assert_eq!(plan.migration_count(), 0);
    }

    #[test]
    fn empty_windows_give_empty_plan() {
        let plan = choose_plan(&[], &BTreeSet::new(), MB, &ctx());
        assert_eq!(plan.windows.len(), 0);
        assert_eq!(plan.predicted_gain_ns, 0.0);
    }
}
