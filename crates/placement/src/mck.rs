//! Multiple-choice knapsack (MCK): N-tier generalization of the 0/1
//! placement knapsack.
//!
//! With two tiers, placement is a 0/1 choice — in DRAM or not — and the
//! binary solvers in [`crate::knapsack`] / [`crate::bnb`] apply. With an
//! ordered tier list (DRAM, CXL, …, NVM) every object must pick *exactly
//! one* tier: that is the multiple-choice knapsack. Each [`MckItem`]
//! carries one value per tier (`values[t]` = modelled nanoseconds saved
//! by placing the object on tier `t` instead of the slowest tier, so the
//! last entry is conventionally `0`), and the solver maximizes total
//! value subject to each *paid* tier's byte capacity. The last tier is
//! the spill tier and is never capacity-constrained — exactly like the
//! binary formulation, where NVM absorbs whatever DRAM rejects.
//!
//! Three solvers are provided and cross-checked by property tests:
//!
//! * [`solve_mck_dp`] — dynamic programming over the paid tiers'
//!   capacities, with per-dimension capacity scaling so the table stays
//!   bounded (exact at unit grain, conservative above it);
//! * [`solve_mck_bnb`] — exact depth-first branch-and-bound on the
//!   unscaled instance, for small item counts;
//! * [`solve_mck_greedy`] — density-ordered upgrade loop that respects
//!   every paid tier's capacity by construction.
//!
//! [`solve_mck`] runs all of them and keeps the best plan. At `N = 2` it
//! instead *delegates* to the binary [`crate::knapsack::solve`], so
//! two-tier plans are bit-identical to what the existing solver produces
//! — the N-tier path is a strict generalization, not a reimplementation.
//!
//! Cost: the DP visits `items × Π(width_d + 1)` cells (the product is
//! capped at [`MCK_MAX_DP_CELLS`]) with one add-and-compare per tier,
//! keeping two value rows and ⌈log₂ tiers⌉ bits (rounded up to a power
//! of two: 2 bits for 3 or 4 tiers) of `choice` per (item, cell). Ties
//! resolve to the spill tier first, then to the faster tier, by strict
//! `>`. The greedy pops moves off a max-heap instead of rescanning every
//! item per move.
//!
//! # Example: a 3-tier toy instance
//!
//! DRAM holds 64 bytes, CXL 128, NVM spills. The streaming object wants
//! DRAM badly (CXL barely helps a bandwidth-bound access pattern), the
//! latency-bound object is nearly as happy on CXL as on DRAM, and the
//! cold object matters little anywhere:
//!
//! ```
//! use tahoe_hms::ObjectId;
//! use tahoe_placement::{solve_mck, MckItem};
//!
//! let items = vec![
//!     // values[t] = ns saved on tier t vs the slowest tier.
//!     MckItem { id: ObjectId(0), size: 64, values: vec![90.0, 40.0, 0.0] },
//!     MckItem { id: ObjectId(1), size: 64, values: vec![80.0, 70.0, 0.0] },
//!     MckItem { id: ObjectId(2), size: 128, values: vec![30.0, 5.0, 0.0] },
//! ];
//! let plan = solve_mck(&items, &[64, 128, u64::MAX]).unwrap();
//! // The streaming object takes DRAM, the latency-bound one settles for
//! // CXL (70 of its 80), and the cold one spills to NVM.
//! assert_eq!(plan.tiers, vec![0, 1, 2]);
//! assert!((plan.total_value - 160.0).abs() < 1e-9);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tahoe_hms::ObjectId;

use crate::knapsack::{self, Item};

/// One placement candidate: an object with one value per tier.
#[derive(Debug, Clone, PartialEq)]
pub struct MckItem {
    /// The object this item places.
    pub id: ObjectId,
    /// Object size in bytes.
    pub size: u64,
    /// `values[t]` = benefit of placing the object on tier `t`
    /// (modelled ns saved vs the slowest tier; the last entry is
    /// conventionally `0`). Length must equal the tier count.
    pub values: Vec<f64>,
}

/// A complete N-tier placement: one tier per item.
#[derive(Debug, Clone, PartialEq)]
pub struct MckAssignment {
    /// `tiers[i]` = tier index assigned to `items[i]`.
    pub tiers: Vec<u8>,
    /// Sum of each item's value on its assigned tier.
    pub total_value: f64,
    /// Bytes assigned to each tier.
    pub per_tier_bytes: Vec<u64>,
}

impl MckAssignment {
    fn from_tiers(items: &[MckItem], n: usize, tiers: Vec<u8>) -> Self {
        let mut per_tier_bytes = vec![0u64; n];
        let mut total_value = 0.0;
        for (item, &t) in items.iter().zip(&tiers) {
            per_tier_bytes[t as usize] += item.size;
            total_value += item.values[t as usize];
        }
        MckAssignment {
            tiers,
            total_value,
            per_tier_bytes,
        }
    }

    /// Ids assigned to tier `t`, ascending.
    pub fn objects_on(&self, items: &[MckItem], t: u8) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = items
            .iter()
            .zip(&self.tiers)
            .filter(|(_, &at)| at == t)
            .map(|(item, _)| item.id)
            .collect();
        v.sort();
        v
    }

    /// Whether every *paid* tier (all but the last) fits its capacity.
    pub fn respects(&self, caps: &[u64]) -> bool {
        self.per_tier_bytes
            .iter()
            .zip(caps)
            .take(self.per_tier_bytes.len().saturating_sub(1))
            .all(|(used, cap)| used <= cap)
    }
}

/// Cap on the DP table size (total cells across all paid dimensions).
/// With two paid tiers (a 3-tier system) this is a ~255×255 grid.
pub const MCK_MAX_DP_CELLS: usize = 1 << 16;

/// Item-count limit for the exact branch-and-bound: above this the
/// search space (tiers^items) is too large and [`solve_mck_bnb`]
/// returns `None`.
pub const MCK_BNB_ITEM_LIMIT: usize = 16;

fn validate(items: &[MckItem], caps: &[u64]) -> Result<usize, String> {
    let n = caps.len();
    if n < 2 {
        return Err(format!("MCK needs at least 2 tiers, got {n}"));
    }
    for item in items {
        if item.values.len() != n {
            return Err(format!(
                "item {:?} has {} values for {n} tiers",
                item.id,
                item.values.len()
            ));
        }
        if item.size == 0 {
            return Err(format!("item {:?} has zero size", item.id));
        }
        if item.values.iter().any(|v| !v.is_finite()) {
            return Err(format!("item {:?} has a non-finite value", item.id));
        }
    }
    Ok(n)
}

/// Solve the N-tier placement, keeping the best plan across solvers.
///
/// At `caps.len() == 2` this delegates to the binary
/// [`crate::knapsack::solve`] on `values[0] − values[1]`, producing
/// plans bit-identical to the existing two-tier solver. Above that it
/// runs [`solve_mck_greedy`], [`solve_mck_dp`], [`solve_mck_bnb`] (when
/// small enough), *and* the binary restriction to `{tier 0, spill}` —
/// so an N-tier plan never scores below the best two-tier plan of the
/// same instance.
///
/// The last capacity entry is the spill tier and is not enforced.
pub fn solve_mck(items: &[MckItem], caps: &[u64]) -> Result<MckAssignment, String> {
    let n = validate(items, caps)?;
    if n == 2 {
        return Ok(binary_restriction(items, caps, n));
    }
    let mut best = greedy(items, caps, n);
    let dp = dp(items, caps, n);
    if dp.total_value > best.total_value {
        best = dp;
    }
    if let Some(bnb) = bnb(items, caps, n) {
        if bnb.total_value > best.total_value {
            best = bnb;
        }
    }
    let binary = binary_restriction(items, caps, n);
    if binary.total_value > best.total_value {
        best = binary;
    }
    debug_assert!(best.respects(caps));
    Ok(best)
}

/// The binary sub-problem: tier 0 vs the spill tier, middle tiers
/// ignored. This *is* the existing two-tier plan when `n == 2`, and a
/// lower bound for the N-tier optimum otherwise.
fn binary_restriction(items: &[MckItem], caps: &[u64], n: usize) -> MckAssignment {
    let last = (n - 1) as u8;
    let bin_items: Vec<Item> = items
        .iter()
        .map(|it| Item {
            id: it.id,
            size: it.size,
            value: it.values[0] - it.values[n - 1],
        })
        .collect();
    let sol = knapsack::solve(&bin_items, caps[0]);
    let tiers = items
        .iter()
        .map(|it| {
            if sol.chosen.binary_search(&it.id).is_ok() {
                0
            } else {
                last
            }
        })
        .collect();
    let mut out = MckAssignment::from_tiers(items, n, tiers);
    // Carry the binary solver's own float accumulation through, so the
    // N = 2 delegation is bit-identical to the two-tier plan (re-summing
    // per item could differ in the last ulp). Mathematically:
    // Σ_chosen v0 + Σ_unchosen v_last = Σ_chosen (v0 − v_last) + Σ v_last.
    let spill_total: f64 = items.iter().map(|it| it.values[n - 1]).sum();
    out.total_value = sol.total_value + spill_total;
    out
}

/// A candidate upgrade of `item` from tier `from` to paid tier `to`.
/// Ordered so the heap's maximum is the densest move, then the lowest
/// item, then the fastest destination.
struct Move {
    density: f64,
    item: usize,
    from: u8,
    to: u8,
}

impl PartialEq for Move {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Move {}

impl Ord for Move {
    fn cmp(&self, other: &Self) -> Ordering {
        // Densities are positive and never NaN, so `total_cmp` agrees
        // with `>` / `==`.
        self.density
            .total_cmp(&other.density)
            .then_with(|| other.item.cmp(&self.item))
            .then_with(|| other.to.cmp(&self.to))
    }
}

impl PartialOrd for Move {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Density-greedy upgrade loop.
///
/// Every item starts on the spill tier; the best feasible upgrade by
/// value-gain density (gain per byte; ties to the lower item, then the
/// faster tier) is applied repeatedly until no upgrade fits or pays.
/// Items may climb through several tiers as capacity allows. Paid-tier
/// capacities are respected by construction: a move is only applied
/// when the destination tier has room.
pub fn solve_mck_greedy(items: &[MckItem], caps: &[u64]) -> Result<MckAssignment, String> {
    Ok(greedy(items, caps, validate(items, caps)?))
}

fn greedy(items: &[MckItem], caps: &[u64], n: usize) -> MckAssignment {
    let last = (n - 1) as u8;
    let mut tiers = vec![last; items.len()];
    let mut used = vec![0u64; n];
    // Every paying move of an item off its current tier is either in the
    // heap or parked on its destination's `blocked` list; a parked move
    // cannot fit again until something leaves that tier.
    let mut heap = BinaryHeap::new();
    let mut blocked: Vec<Vec<Move>> = (0..n - 1).map(|_| Vec::new()).collect();
    let push_moves = |heap: &mut BinaryHeap<Move>, item: usize, from: u8| {
        let it = &items[item];
        for to in (0..last).filter(|&to| to != from) {
            let gain = it.values[to as usize] - it.values[from as usize];
            if gain > 0.0 {
                let density = gain / it.size as f64;
                heap.push(Move {
                    density,
                    item,
                    from,
                    to,
                });
            }
        }
    };
    for item in 0..items.len() {
        push_moves(&mut heap, item, last);
    }
    // Each applied move strictly raises its item's value, so an item
    // never returns to a tier it left: `from` alone tells a live move
    // from a stale one, and the loop terminates.
    while let Some(mv) = heap.pop() {
        let (size, to) = (items[mv.item].size, mv.to as usize);
        if tiers[mv.item] != mv.from {
            continue;
        }
        if used[to] + size > caps[to] {
            blocked[to].push(mv);
            continue;
        }
        used[to] += size;
        tiers[mv.item] = mv.to;
        if mv.from != last {
            used[mv.from as usize] -= size;
            heap.extend(blocked[mv.from as usize].drain(..));
        }
        push_moves(&mut heap, mv.item, mv.to);
    }
    let out = MckAssignment::from_tiers(items, n, tiers);
    debug_assert!(out.respects(caps));
    out
}

/// `best[j] = max(best[j], from[j] + value)`, recording `tier` in
/// `pick[j]` where the candidate is strictly better.
fn relax(from: &[f64], best: &mut [f64], pick: &mut [u8], value: f64, tier: u8) {
    for ((best, pick), from) in best.iter_mut().zip(pick).zip(from) {
        let cand = from + value;
        if cand > *best {
            *best = cand;
            *pick = tier;
        }
    }
}

/// Dynamic programming over the paid tiers' capacities.
///
/// Each paid tier is one DP dimension. Capacities are scaled per
/// dimension so the total cell count stays under [`MCK_MAX_DP_CELLS`]:
/// item sizes round *up* to grain units and capacities round *down*, so
/// any DP-feasible plan is feasible for the true instance (the same
/// conservative scaling as the binary [`crate::knapsack::solve_exact`]).
/// At unit grain the DP is exact.
pub fn solve_mck_dp(items: &[MckItem], caps: &[u64]) -> Result<MckAssignment, String> {
    Ok(dp(items, caps, validate(items, caps)?))
}

fn dp(items: &[MckItem], caps: &[u64], n: usize) -> MckAssignment {
    let paid = n - 1;
    let last = (n - 1) as u8;

    // Per-dimension grain: double the widest dimension until the table
    // fits.
    let mut grains = vec![1u64; paid];
    let widths = |grains: &[u64]| -> Vec<u64> { (0..paid).map(|d| caps[d] / grains[d]).collect() };
    let cells = |w: &[u64]| -> u128 { w.iter().map(|&x| x as u128 + 1).product() };
    let mut w = widths(&grains);
    while cells(&w) > MCK_MAX_DP_CELLS as u128 {
        let widest = (0..paid).max_by_key(|&d| w[d]).expect("paid >= 1");
        grains[widest] *= 2;
        w = widths(&grains);
    }
    let widths: Vec<usize> = w.iter().map(|&x| x as usize).collect();
    let cells = widths.iter().map(|&x| x + 1).product::<usize>();
    // Mixed-radix strides: state = Σ_d digit[d] · stride[d].
    let mut strides = vec![0usize; paid];
    let mut acc = 1usize;
    for d in 0..paid {
        strides[d] = acc;
        acc *= widths[d] + 1;
    }
    // `choice` packs one tier index per (item, state), each item's row
    // starting on a word boundary.
    let bits = (n - 1).ilog2() as usize + 1; // ⌈log₂ n⌉ for n ≥ 2 …
    let bits = bits.next_power_of_two(); // … widened so entries never straddle words
    let per_word = 64 / bits;
    let row_words = cells.div_ceil(per_word);
    // Rounded-up per-dimension unit needs, `paid` per item.
    let needs: Vec<u64> = items
        .iter()
        .flat_map(|it| grains.iter().map(|&g| it.size.div_ceil(g)))
        .collect();

    let mut dp = vec![0.0f64; cells];
    let mut next = vec![0.0f64; cells];
    let mut pick = vec![last; cells];
    let mut choice = vec![0u64; row_words * items.len()];
    // States with equal higher digits are contiguous runs along
    // dimension 0; each candidate tier relaxes a whole run at once.
    let run = widths[0] + 1;
    let mut digits = vec![0usize; paid];
    for (k, item) in items.iter().enumerate() {
        for base in (0..cells).step_by(run) {
            let (best, pick) = (&mut next[base..base + run], &mut pick[base..base + run]);
            // Default: spill tier, free in every paid dimension.
            for (best, from) in best.iter_mut().zip(&dp[base..base + run]) {
                *best = from + item.values[n - 1];
            }
            pick.fill(last);
            // Tier 0 shifts within the run; tier d ≥ 1 reads the run
            // `need` digits down dimension d, when there is one.
            let need = &needs[k * paid..(k + 1) * paid];
            if need[0] < run as u64 {
                let (shift, from) = (need[0] as usize, &dp[base..base + run]);
                let (best, pick) = (&mut best[shift..], &mut pick[shift..]);
                relax(from, best, pick, item.values[0], 0);
            }
            for d in (1..paid).filter(|&d| need[d] <= digits[d] as u64) {
                let from = &dp[base - need[d] as usize * strides[d]..][..run];
                relax(from, best, pick, item.values[d], d as u8);
            }
            // Odometer step over the higher digits.
            for d in 1..paid {
                digits[d] += 1;
                if digits[d] <= widths[d] {
                    break;
                }
                digits[d] = 0;
            }
        }
        let row = &mut choice[k * row_words..(k + 1) * row_words];
        for (word, picks) in row.iter_mut().zip(pick.chunks(per_word)) {
            *word = picks
                .iter()
                .enumerate()
                .fold(0, |w, (j, &p)| w | (p as u64) << (j * bits));
        }
        std::mem::swap(&mut dp, &mut next);
    }

    // Reconstruct from the full-capacity state.
    let mut tiers = vec![last; items.len()];
    let mut s = cells - 1;
    for k in (0..items.len()).rev() {
        let word = choice[k * row_words + s / per_word];
        let d = (word >> (s % per_word * bits)) as usize & ((1 << bits) - 1);
        tiers[k] = d as u8;
        if d < paid {
            s -= needs[k * paid + d] as usize * strides[d];
        }
    }
    let out = MckAssignment::from_tiers(items, n, tiers);
    debug_assert!(out.respects(caps));
    out
}

/// Exact depth-first branch-and-bound on the unscaled instance.
///
/// Items are explored in input order; per item the tiers are tried
/// best-value first. The admissible bound is the current value plus
/// every remaining item's best value (capacities ignored), so pruning
/// is sound. Returns `Ok(None)` above [`MCK_BNB_ITEM_LIMIT`] items.
pub fn solve_mck_bnb(items: &[MckItem], caps: &[u64]) -> Result<Option<MckAssignment>, String> {
    Ok(bnb(items, caps, validate(items, caps)?))
}

fn bnb(items: &[MckItem], caps: &[u64], n: usize) -> Option<MckAssignment> {
    if items.len() > MCK_BNB_ITEM_LIMIT {
        return None;
    }
    let last = (n - 1) as u8;
    // Suffix sums of per-item best values: the optimistic completion.
    let best_per_item: Vec<f64> = items
        .iter()
        .map(|it| it.values.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let mut optimistic = vec![0.0; items.len() + 1];
    for k in (0..items.len()).rev() {
        optimistic[k] = optimistic[k + 1] + best_per_item[k];
    }
    // Per-item tier order, best value first (deterministic tiebreak on
    // the tier index).
    let tier_orders: Vec<Vec<u8>> = items
        .iter()
        .map(|it| {
            let mut order: Vec<u8> = (0..n as u8).collect();
            order.sort_by(|&a, &b| {
                it.values[b as usize]
                    .partial_cmp(&it.values[a as usize])
                    .expect("finite values")
                    .then(a.cmp(&b))
            });
            order
        })
        .collect();

    struct Search<'a> {
        items: &'a [MckItem],
        caps: &'a [u64],
        paid: usize,
        optimistic: &'a [f64],
        tier_orders: &'a [Vec<u8>],
        assign: Vec<u8>,
        used: Vec<u64>,
        best_value: f64,
        best_assign: Vec<u8>,
    }

    impl Search<'_> {
        fn dfs(&mut self, k: usize, value: f64) {
            if k == self.items.len() {
                if value > self.best_value {
                    self.best_value = value;
                    self.best_assign = self.assign.clone();
                }
                return;
            }
            if value + self.optimistic[k] <= self.best_value {
                return;
            }
            let size = self.items[k].size;
            for ti in 0..self.tier_orders[k].len() {
                let t = self.tier_orders[k][ti];
                let d = t as usize;
                if d < self.paid && self.used[d] + size > self.caps[d] {
                    continue;
                }
                self.used[d] += size;
                self.assign[k] = t;
                self.dfs(k + 1, value + self.items[k].values[d]);
                self.used[d] -= size;
            }
        }
    }

    let mut search = Search {
        items,
        caps,
        paid: n - 1,
        optimistic: &optimistic,
        tier_orders: &tier_orders,
        assign: vec![last; items.len()],
        used: vec![0; n],
        best_value: f64::NEG_INFINITY,
        best_assign: vec![last; items.len()],
    };
    search.dfs(0, 0.0);
    let out = MckAssignment::from_tiers(items, n, search.best_assign);
    debug_assert!(out.respects(caps));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(i: u32, size: u64, values: &[f64]) -> MckItem {
        MckItem {
            id: ObjectId(i),
            size,
            values: values.to_vec(),
        }
    }

    #[test]
    fn toy_three_tier_instance_places_by_sensitivity() {
        let items = vec![
            item(0, 64, &[90.0, 40.0, 0.0]),
            item(1, 64, &[80.0, 70.0, 0.0]),
            item(2, 128, &[30.0, 5.0, 0.0]),
        ];
        for sol in [
            solve_mck(&items, &[64, 128, u64::MAX]).unwrap(),
            solve_mck_dp(&items, &[64, 128, u64::MAX]).unwrap(),
            solve_mck_bnb(&items, &[64, 128, u64::MAX])
                .unwrap()
                .unwrap(),
        ] {
            assert_eq!(sol.tiers, vec![0, 1, 2]);
            assert!((sol.total_value - 160.0).abs() < 1e-9);
            assert_eq!(sol.per_tier_bytes, vec![64, 64, 128]);
        }
    }

    #[test]
    fn two_tier_delegates_to_binary_solver() {
        let items = vec![
            item(0, 10, &[5.0, 0.0]),
            item(1, 10, &[9.0, 0.0]),
            item(2, 10, &[1.0, 0.0]),
        ];
        let bin: Vec<Item> = items
            .iter()
            .map(|it| Item {
                id: it.id,
                size: it.size,
                value: it.values[0],
            })
            .collect();
        let expect = knapsack::solve(&bin, 20);
        let got = solve_mck(&items, &[20, u64::MAX]).unwrap();
        assert_eq!(got.objects_on(&items, 0), expect.chosen);
        assert_eq!(got.total_value, expect.total_value);
        assert_eq!(got.per_tier_bytes[0], expect.total_size);
    }

    #[test]
    fn greedy_climbs_through_tiers_as_capacity_allows() {
        // One item, huge middle tier, tiny DRAM: it should end on the
        // best tier it fits, not the first upgrade found.
        let items = vec![item(0, 100, &[50.0, 20.0, 0.0])];
        let sol = solve_mck_greedy(&items, &[64, 1024, u64::MAX]).unwrap();
        assert_eq!(sol.tiers, vec![1]);
        let sol = solve_mck_greedy(&items, &[128, 1024, u64::MAX]).unwrap();
        assert_eq!(sol.tiers, vec![0]);
    }

    #[test]
    fn spill_tier_is_unbounded() {
        let items = vec![item(0, 1 << 40, &[1.0, 0.5, 0.0])];
        let sol = solve_mck(&items, &[16, 16, 1]).unwrap();
        assert_eq!(sol.tiers, vec![2]);
        assert!(sol.respects(&[16, 16, 1]));
    }

    #[test]
    fn invalid_inputs_are_errors() {
        assert!(solve_mck(&[item(0, 8, &[1.0])], &[64]).is_err());
        assert!(solve_mck(&[item(0, 8, &[1.0, 0.0])], &[64, 64, 64]).is_err());
        assert!(solve_mck(&[item(0, 0, &[1.0, 0.0, 0.0])], &[64, 64, 64]).is_err());
        assert!(solve_mck(&[item(0, 8, &[f64::NAN, 0.0, 0.0])], &[64, 64, 64]).is_err());
    }

    #[test]
    fn bnb_bails_over_the_item_limit() {
        let items: Vec<MckItem> = (0..MCK_BNB_ITEM_LIMIT as u32 + 1)
            .map(|i| item(i, 8, &[1.0, 0.5, 0.0]))
            .collect();
        assert!(solve_mck_bnb(&items, &[64, 64, u64::MAX])
            .unwrap()
            .is_none());
        // solve_mck still works through the other solvers.
        assert!(solve_mck(&items, &[64, 64, u64::MAX]).is_ok());
    }

    #[test]
    fn dp_scales_capacity_conservatively() {
        // Capacities far above the cell budget force a coarse grain; the
        // result must stay feasible.
        let items: Vec<MckItem> = (0..10)
            .map(|i| item(i, (i as u64 + 1) << 20, &[10.0 - i as f64, 3.0, 0.0]))
            .collect();
        let caps = [16u64 << 20, 64 << 20, u64::MAX];
        let sol = solve_mck_dp(&items, &caps).unwrap();
        assert!(sol.respects(&caps));
        let exact = solve_mck_bnb(&items, &caps).unwrap().unwrap();
        assert!(sol.total_value <= exact.total_value + 1e-9);
    }
}
