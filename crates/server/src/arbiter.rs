//! Cross-tenant DRAM arbitration: pure quota math.
//!
//! The server's admission path calls [`quotas`] every time a graph is
//! admitted: given the global DRAM budget and each tenant's weight,
//! valued objects and activity, it returns the per-tenant byte quotas
//! the knapsack planner and the preemption pass enforce. Keeping the
//! math pure (no locks, no server state) makes the fairness properties
//! unit-testable in isolation:
//!
//! * **Feasibility** — quotas never sum to more than the budget.
//! * **Starvation-freeness** — every *active* tenant with nonzero
//!   weight receives at least its weighted floor, so a noisy neighbour
//!   can never arbitrate an active tenant down to zero.
//! * **Work conservation** — under [`QuotaPolicy::DemandProportional`]
//!   the bytes above the floors go to the objects that save the most
//!   per byte, whichever active tenant owns them; bytes no object can
//!   use are split by weight.
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
    /// Weighted floors plus a value-ordered leftover: active tenant `i`
    /// is guaranteed `floor_frac * budget * w_i / Σ w`, which its own
    /// densest objects fill first. The rest of the budget goes object
    /// by object, highest modelled value per byte first, over every
    /// active tenant's remaining objects; taking an object raises its
    /// tenant's quota by what the object needs beyond that tenant's
    /// unused floor. Equal densities go first to the tenant holding the
    /// fewest quota bytes per unit weight, and bytes no object can use
    /// are split by weight. `floor_frac` is clamped to `[0, 1]`.
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
pub struct TenantDemand<'a> {
    /// Static share weight (from registration).
    pub weight: f64,
    /// The objects whose DRAM residence the planner values, as
    /// `(bytes, modelled value)` pairs, densest (value per byte) first —
    /// the order [`by_density`] gives them.
    pub objects: &'a [(u64, f64)],
    /// Whether the tenant holds a claim on the budget
    /// ([`Activity::is_active`]: running, queued, or only just idle).
    pub active: bool,
}

/// A tenant's objects as [`TenantDemand::objects`] takes them: the
/// `(bytes, value)` pairs of positive value and size, in descending
/// value per byte (equal densities keep their index order).
pub fn by_density(sizes: &[u64], values: &[f64]) -> Vec<(u64, f64)> {
    let mut objects: Vec<(u64, f64)> = sizes
        .iter()
        .zip(values)
        .filter(|(&bytes, &value)| bytes > 0 && value > 0.0)
        .map(|(&bytes, &value)| (bytes, value))
        .collect();
    objects.sort_by(|a, b| density(*b).total_cmp(&density(*a)));
    objects
}

fn density((bytes, value): (u64, f64)) -> f64 {
    value / bytes as f64
}

/// Per-tenant DRAM quotas in bytes. Inactive or zero-weight tenants
/// get zero; the result always satisfies `sum(quotas) <= budget`.
pub fn quotas(policy: &QuotaPolicy, budget: u64, tenants: &[TenantDemand]) -> Vec<u64> {
    let QuotaPolicy::DemandProportional { floor_frac } = *policy;
    let mut q = value_ordered(budget, floor_frac, tenants, |_, _, _| {});
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

/// The tenants that hold a claim: active, with positive weight.
struct Live {
    ids: Vec<usize>,
    weight_sum: f64,
}

impl Live {
    fn new(tenants: &[TenantDemand]) -> Self {
        let ids: Vec<usize> = (0..tenants.len())
            .filter(|&i| tenants[i].active && tenants[i].weight > 0.0)
            .collect();
        let weight_sum = ids.iter().map(|&i| tenants[i].weight).sum();
        Live { ids, weight_sum }
    }

    /// A tenant of `weight`'s share of `amount` bytes, truncated.
    fn share(&self, amount: f64, weight: f64) -> u64 {
        (amount * weight / self.weight_sum) as u64
    }
}

/// [`QuotaPolicy::DemandProportional`]'s rule. `took(tenant, object,
/// paid)` hears of each object the rule covers, in the order it covers
/// them, with the bytes the leftover paid for it (0 inside the floor).
fn value_ordered(
    budget: u64,
    floor_frac: f64,
    tenants: &[TenantDemand],
    mut took: impl FnMut(usize, usize, u64),
) -> Vec<u64> {
    let live = Live::new(tenants);
    let mut q = vec![0u64; tenants.len()];
    // `used[i]`: bytes of tenant i's covered objects; `next[i]`: its
    // first object the rule has not yet looked at.
    let mut used = vec![0u64; tenants.len()];
    let mut next = vec![0usize; tenants.len()];

    // Floors, each filled by its tenant's densest objects while they fit.
    let floor_total = budget as f64 * floor_frac.clamp(0.0, 1.0);
    for &i in &live.ids {
        q[i] = live.share(floor_total, tenants[i].weight);
        while let Some(&(bytes, _)) = tenants[i].objects.get(next[i]) {
            if used[i] + bytes > q[i] {
                break;
            }
            used[i] += bytes;
            took(i, next[i], 0);
            next[i] += 1;
        }
    }

    // The leftover, densest object first across tenants; a tie goes to
    // the tenant with the fewest quota bytes per unit weight (then the
    // lowest index). An object that does not fit is passed over.
    let mut left = budget.saturating_sub(q.iter().sum());
    let per_weight = |q: &[u64], i: usize| q[i] as f64 / tenants[i].weight;
    loop {
        let head = |i: usize| density(tenants[i].objects[next[i]]);
        let pick = live
            .ids
            .iter()
            .copied()
            .filter(|&i| next[i] < tenants[i].objects.len())
            .max_by(|&a, &b| {
                head(a)
                    .total_cmp(&head(b))
                    .then(per_weight(&q, b).total_cmp(&per_weight(&q, a)))
                    .then(b.cmp(&a))
            });
        let Some(i) = pick else { break };
        let bytes = tenants[i].objects[next[i]].0;
        let paid = (used[i] + bytes).saturating_sub(q[i]);
        if paid <= left {
            q[i] += paid;
            left -= paid;
            used[i] += bytes;
            took(i, next[i], paid);
        }
        next[i] += 1;
    }

    // Bytes no object can use: split by weight.
    for &i in &live.ids {
        q[i] += live.share(left as f64, tenants[i].weight);
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
    use proptest::prelude::*;

    fn t(weight: f64, objects: &[(u64, f64)], active: bool) -> TenantDemand<'_> {
        TenantDemand {
            weight,
            objects,
            active,
        }
    }

    const BUDGET: u64 = 1 << 20;
    const KIB: u64 = 1 << 10;

    #[test]
    fn quotas_never_exceed_budget() {
        let objects: Vec<Vec<(u64, f64)>> =
            (0..7).map(|i| vec![(100_000, 1.0 + i as f64); i]).collect();
        for policy in [
            QuotaPolicy::DemandProportional { floor_frac: 0.5 },
            QuotaPolicy::DemandProportional { floor_frac: 0.0 },
            QuotaPolicy::DemandProportional { floor_frac: 1.0 },
        ] {
            for n in 1..7 {
                let tenants: Vec<TenantDemand> = (0..n)
                    .map(|i| t(1.0 + i as f64, &objects[i], i % 3 != 2))
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
    fn inactive_and_zero_weight_tenants_get_zero() {
        let one = [(500, 1.0)];
        for floor_frac in [0.0, 0.5, 1.0] {
            let q = quotas(
                &QuotaPolicy::DemandProportional { floor_frac },
                BUDGET,
                &[t(1.0, &one, false), t(0.0, &one, true), t(1.0, &one, true)],
            );
            assert_eq!(q[0], 0, "inactive tenant must hold no quota");
            assert_eq!(q[1], 0, "zero-weight tenant must hold no quota");
            assert!(q[2] > 0);
        }
    }

    #[test]
    fn demand_proportional_respects_floors() {
        // Starvation-freeness: tenant 0 declares no objects but is
        // active, so it keeps its weighted floor; the greedy tenant
        // cannot take it.
        let greedy = vec![(64 * KIB, 1.0); 64];
        let q = quotas(
            &QuotaPolicy::DemandProportional { floor_frac: 0.5 },
            BUDGET,
            &[t(1.0, &[], true), t(1.0, &greedy, true)],
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
    fn leftover_goes_to_the_densest_objects() {
        // No floors. Tenant 1's big object saves the most per byte, then
        // tenant 0's; tenant 1's small one saves almost nothing.
        let (a, b) = (
            [(256 * KIB, 300.0)],
            [(512 * KIB, 1000.0), (256 * KIB, 1.0)],
        );
        let policy = QuotaPolicy::DemandProportional { floor_frac: 0.0 };
        let tenants = [t(1.0, &a, true), t(1.0, &b, true)];
        // A split by bytes would give tenant 0 a quarter (192 KiB) and
        // tenant 1 three quarters (576 KiB): neither dense object fits.
        assert_eq!(
            quotas(&policy, 768 * KIB, &tenants),
            vec![256 * KIB, 512 * KIB]
        );
        // 128 KiB too few for tenant 0's object: after the big one, no
        // object fits the 128 KiB left, which is split by weight.
        assert_eq!(
            quotas(&policy, 640 * KIB, &tenants),
            vec![64 * KIB, 576 * KIB]
        );
    }

    /// `serve_mix`'s shape: weights 2/1/1, each tenant 16 × 256 KiB of
    /// which four hot objects (1 MiB) save far more than the twelve cold
    /// ones, and a 3 MiB budget. Split by declared bytes, the leftover
    /// gave 1.25 / 0.875 / 0.875 MiB: tenants 1 and 2 left a hot object
    /// on NVM while tenant 0 bought a cold one.
    #[test]
    fn every_hot_set_is_covered_before_any_cold_object() {
        let mut objects = vec![(256 * KIB, 200_000.0); 4];
        objects.extend([(256 * KIB, 10_000.0); 12]);
        let tenants = [
            t(2.0, &objects, true),
            t(1.0, &objects, true),
            t(1.0, &objects, true),
        ];
        let q = quotas(
            &QuotaPolicy::DemandProportional { floor_frac: 0.5 },
            3 << 20,
            &tenants,
        );
        for (i, qi) in q.iter().enumerate() {
            assert!(*qi >= 1 << 20, "tenant {i}'s hot set is uncovered: {q:?}");
        }
    }

    #[test]
    fn zero_total_demand_falls_back_to_weights() {
        let q = quotas(
            &QuotaPolicy::DemandProportional { floor_frac: 0.25 },
            BUDGET,
            &[t(1.0, &[], true), t(1.0, &[], true)],
        );
        assert_eq!(q[0], BUDGET / 2);
        assert_eq!(q[1], BUDGET / 2);
    }

    /// A random tenant for the property tests: weight (sometimes 0),
    /// activity, and objects from few sizes and values, so equal
    /// densities within and across tenants are common.
    fn tenant() -> impl Strategy<Value = (f64, bool, Vec<(u64, f64)>)> {
        (
            0u32..4,
            proptest::bool::ANY,
            proptest::collection::vec((1u64..5, 1u32..5), 0..10),
        )
            .prop_map(|(w, active, objects)| {
                let sizes: Vec<u64> = objects.iter().map(|o| o.0 * 64 * KIB).collect();
                let values: Vec<f64> = objects.iter().map(|o| o.1 as f64 * 1e3).collect();
                (w as f64 / 2.0, active, by_density(&sizes, &values))
            })
    }

    /// Debug builds run a sample; `--release` (a CI step) the full count.
    const fn cases(release: u32) -> u32 {
        if cfg!(debug_assertions) {
            release / 8
        } else {
            release
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(2048)))]

        #[test]
        fn value_ordered_quotas_hold_their_properties(
            spec in proptest::collection::vec(tenant(), 1..6),
            budget_kib in 0u64..4096,
            floor_pick in 0usize..5,
        ) {
            let budget = budget_kib * KIB;
            let floor_frac = [0.0, 0.25, 0.5, 0.9, 1.0][floor_pick];
            let tenants: Vec<TenantDemand> =
                spec.iter().map(|(w, a, o)| t(*w, o, *a)).collect();
            let mut covered: Vec<Vec<bool>> =
                spec.iter().map(|s| vec![false; s.2.len()]).collect();
            let mut paid_order = Vec::new();
            let q = value_ordered(budget, floor_frac, &tenants, |i, k, paid| {
                covered[i][k] = true;
                if paid > 0 {
                    paid_order.push(density(tenants[i].objects[k]));
                }
            });
            let policy = QuotaPolicy::DemandProportional { floor_frac };
            prop_assert_eq!(&q, &quotas(&policy, budget, &tenants));
            let total: u64 = q.iter().sum();
            prop_assert!(total <= budget, "{q:?} oversubscribes {budget}");
            // The leftover pays for objects densest first.
            prop_assert!(paid_order.windows(2).all(|w| w[0] >= w[1]), "{paid_order:?}");

            let live = Live::new(&tenants);
            for (i, tn) in tenants.iter().enumerate() {
                if !live.ids.contains(&i) {
                    prop_assert_eq!(q[i], 0, "tenant {} holds no claim", i);
                    continue;
                }
                let floor = (budget as f64 * floor_frac * tn.weight / live.weight_sum) as u64;
                prop_assert!(q[i] >= floor, "tenant {i}: {} below its floor {floor}", q[i]);
                let used: u64 = tn.objects.iter().zip(&covered[i])
                    .filter(|(_, c)| **c).map(|(o, _)| o.0).sum();
                prop_assert!(used <= q[i], "tenant {i} covers {used} > quota {}", q[i]);
                // No uncovered object would still fit its tenant's quota
                // plus the unassigned bytes: so none that would fit is
                // denser than one the leftover paid for, and the weight
                // split hands out only bytes no object could use.
                for (k, &o) in tn.objects.iter().enumerate() {
                    prop_assert!(
                        covered[i][k] || used + o.0 > q[i] + (budget - total),
                        "tenant {i}'s object {k} {o:?} is uncovered but fits: {q:?}"
                    );
                }
            }
        }

        /// Identical objects everywhere (`serve_mix`'s hot sets,
        /// `exp tenant`'s pieces): no tenant ends more than one object
        /// per unit weight ahead of a tenant still missing one. Each
        /// whole-byte truncation (floor, weight split) adds a byte.
        #[test]
        fn equal_densities_are_shared_by_quota_per_weight(
            spec in proptest::collection::vec((1u32..5, proptest::bool::ANY, 0usize..9), 1..6),
            size_kib in 1u64..300,
            budget_kib in 0u64..4096,
            floor_pick in 0usize..5,
        ) {
            let (budget, size) = (budget_kib * KIB, size_kib * KIB);
            let floor_frac = [0.0, 0.25, 0.5, 0.9, 1.0][floor_pick];
            let objects: Vec<Vec<(u64, f64)>> =
                spec.iter().map(|s| vec![(size, 1.0); s.2]).collect();
            let tenants: Vec<TenantDemand> = spec
                .iter()
                .zip(&objects)
                .map(|(s, o)| t(s.0 as f64 / 2.0, o, s.1))
                .collect();
            let q = quotas(&QuotaPolicy::DemandProportional { floor_frac }, budget, &tenants);
            let live = Live::new(&tenants);
            for &i in &live.ids {
                for &j in &live.ids {
                    let (wi, wj) = (tenants[i].weight, tenants[j].weight);
                    let j_missing = q[j] / size < tenants[j].objects.len() as u64;
                    let ahead = q[i] as f64 / wi - q[j] as f64 / wj;
                    prop_assert!(
                        !j_missing || ahead <= size as f64 / wi + 2.0 / wj + 1e-6,
                        "tenant {i} is {ahead} bytes per weight ahead of {j}: {q:?}"
                    );
                }
            }
        }
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
        let ten = [(10, 1.0)];
        for floor_frac in [0.0, 0.5, 1.0] {
            let q = quotas(
                &QuotaPolicy::DemandProportional { floor_frac },
                BUDGET,
                &[t(1.0, &ten, false), t(2.0, &ten, false)],
            );
            assert_eq!(q, vec![0, 0]);
        }
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
