//! 0/1 knapsack solvers.
//!
//! Sizes are bytes (u64), values are predicted nanoseconds saved (f64).
//! The exact solver scales sizes *up* to a grain so the DP table stays
//! small; rounding up can only under-fill the knapsack, never overflow
//! DRAM — an admissible approximation for a memory budget.
//!
//! # Solver cost
//!
//! With `grain = max(1, capacity / 8192)`, `need_i = ⌈size_i / grain⌉`,
//! `width = ⌊capacity / grain⌋` (8192..16383 columns once the capacity
//! exceeds 8192 bytes) and `g = gcd(need_i)`, [`solve_exact`] sweeps at
//! most `items × (⌊width / g⌋ + 1)` cells — every reachable budget is a
//! multiple of `g`, so equal chunks or page-multiple sizes shrink the
//! table by `g` while coprime sizes leave it as it was. Columns below
//! `width − Σ later needs` cannot be reached by the reconstruction and
//! are skipped (the *band*). The working set is two value rows plus one
//! take *bit* per (item, column): `items × ⌈(⌊width/g⌋ + 1) / 64⌉ × 8`
//! bytes, 2 MiB for 8192 equal items at a quarter of their footprint.
//!
//! Tie-break contract: an item is taken at a column only when that is
//! *strictly* better than leaving it, so among equal-valued alternatives
//! the earlier item wins, and `total_value` is summed over the chosen
//! items from the last to the first. Digest-gated baselines pin both.
//!
//! # When the DP runs
//!
//! [`solve`] races the DP, [`solve_greedy`] and (up to
//! [`BNB_ITEM_LIMIT`] eligible items) branch-and-bound, each replacing
//! the answer so far only when strictly better. Before that it tries a
//! *certificate*. Take the eligible items densest first (ties by id)
//! and stop at the first that does not fit. The prefix must fill
//! `capacity` exactly or take every item, and a cut density `λ` between
//! its last item and the first one left out must give every taken item
//! a reduced value `value − λ·size` above a margin `δ`, and every other
//! item one below `−δ`. Then every other set that fits is worth at
//! least `δ` less (Dantzig's LP bound): the prefix is the unique
//! optimum, and greedy's answer. With `δ` above the rounding error of
//! any `n`-term sum, no float comparison of the race can disagree, so
//! the certificate returns the race's answer bit for bit without
//! building the table. That is the DP's last-to-first sum when the
//! prefix fits at the DP's grain (the DP finds it too), unless greedy's
//! density-order sum is strictly greater; and greedy's sum when it does
//! not (the DP's rounding leaves it short). A fractional break item, a
//! tie at the cut, or a small item set runs the race. `plan_heavy`'s
//! 8192 × 8 KiB at a quarter budget is certified (its hot quarter fills
//! the budget and is worth strictly more per byte than the rest): one
//! sort instead of an 8192 × 2049-cell table.

use tahoe_hms::ObjectId;

use crate::bnb::BNB_ITEM_LIMIT;

/// One candidate object (or chunk) for DRAM residence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Object this item stands for.
    pub id: ObjectId,
    /// Bytes it would occupy in DRAM.
    pub size: u64,
    /// Net predicted value of keeping it in DRAM, in ns saved.
    pub value: f64,
}

/// Result of a solve: which ids were chosen and the totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chosen ids, ascending.
    pub chosen: Vec<ObjectId>,
    /// Sum of chosen values.
    pub total_value: f64,
    /// Sum of chosen (true, unscaled) sizes.
    pub total_size: u64,
}

impl Solution {
    /// The empty solution.
    pub fn empty() -> Self {
        Solution {
            chosen: Vec::new(),
            total_value: 0.0,
            total_size: 0,
        }
    }

    /// Whether `id` was chosen.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.chosen.binary_search(&id).is_ok()
    }
}

/// Maximum number of DP columns the exact solver will allocate; above
/// this, sizes are scaled to a coarser grain.
const MAX_DP_WIDTH: u64 = 8192;

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One item over 64 columns: `new[w] = max(old[w], old[w − need] + value)`
/// with `below = old[w − need]`, returning bit `w` set where the item is
/// taken (strictly better). Reads one row and writes the other, so no
/// iteration depends on another and the loop vectorises; the 0/1 bytes
/// are gathered eight at a time by a multiply that lands byte `k`'s low
/// bit on bit `56 + k`.
fn relax64(below: &[f64], old: &[f64], new: &mut [f64], value: f64) -> u64 {
    let (below, old, new) = (&below[..64], &old[..64], &mut new[..64]);
    let mut taken = [0u8; 64];
    for w in 0..64 {
        let cand = below[w] + value;
        let take = cand > old[w];
        new[w] = if take { cand } else { old[w] };
        taken[w] = take as u8;
    }
    let mut bits = 0u64;
    for (k, bytes) in taken.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(bytes.try_into().expect("chunk of 8"));
        bits |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    bits
}

/// Exact 0/1 knapsack by dynamic programming over scaled capacity.
///
/// Items with non-positive value or zero size are never chosen; items
/// larger than the capacity are skipped. `grain` is chosen so the DP
/// width is at most `MAX_DP_WIDTH`; item sizes round *up* to the grain.
/// See the module docs for the cost and the tie-break contract.
pub fn solve_exact(items: &[Item], capacity: u64) -> Solution {
    let grain = (capacity / MAX_DP_WIDTH).max(1);
    // Floor, to stay within capacity.
    let width = (capacity / grain) as usize;
    // Each candidate with its need in grains; one that rounds up past
    // the width can never be taken.
    let mut eligible: Vec<(&Item, usize)> = items
        .iter()
        .filter(|it| eligible(it, capacity))
        .map(|it| (it, it.size.div_ceil(grain) as usize))
        .filter(|&(_, need)| need <= width)
        .collect();
    if eligible.is_empty() {
        return Solution::empty();
    }
    // Every reachable budget is a multiple of the needs' gcd: solve in
    // those units.
    let unit = eligible.iter().fold(0, |g, &(_, need)| gcd(g, need));
    let width = width / unit;
    // `later`: Σ needs of the items after the current one; `pad`: the
    // largest need.
    let (mut later, mut pad) = (0, 0);
    for (_, need) in &mut eligible {
        *need /= unit;
        later += *need;
        pad = pad.max(*need);
    }
    // Rows hold `words × 64` columns behind `pad` cells of −∞, so a read
    // of `old[w − need]` below column 0 yields a candidate that never
    // wins and the sweep has no edge cases.
    let words = width / 64 + 1;
    let mut old = vec![0.0f64; pad + words * 64];
    old[..pad].fill(f64::NEG_INFINITY);
    let mut new = old.clone();
    let mut take = vec![0u64; words * eligible.len()];
    for (row, &(it, need)) in take.chunks_exact_mut(words).zip(&eligible) {
        // The reconstruction reaches this item with at least
        // `width − later` budget left; lower columns (of this row and,
        // inductively, of every earlier one it reads) are never used, so
        // they may hold stale values.
        later -= need;
        let first = width.saturating_sub(later) / 64;
        for (k, word) in row.iter_mut().enumerate().skip(first) {
            let at = pad + 64 * k;
            *word = relax64(&old[at - need..], &old[at..], &mut new[at..], it.value);
        }
        std::mem::swap(&mut old, &mut new);
    }
    // Best budget is the full width (dp is monotone in w).
    let mut w = width;
    let mut chosen = Vec::new();
    let mut total_size = 0u64;
    let mut total_value = 0.0;
    for (row, &(it, need)) in take.chunks_exact(words).zip(&eligible).rev() {
        if row[w / 64] >> (w % 64) & 1 == 1 {
            chosen.push(it.id);
            total_size += it.size;
            total_value += it.value;
            w -= need;
        }
    }
    chosen.sort_unstable();
    Solution {
        chosen,
        total_value,
        total_size,
    }
}

/// Whether `it` can be chosen at all: positive value, a non-zero size
/// within `capacity`.
fn eligible(it: &Item, capacity: u64) -> bool {
    it.value > 0.0 && it.size > 0 && it.size <= capacity
}

/// Indices of the eligible items, densest first, ties by id: the order
/// greedy takes them in.
fn density_order(items: &[Item], capacity: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&i| eligible(&items[i], capacity))
        .collect();
    let density = |i: usize| items[i].value / items[i].size as f64;
    order.sort_by(|&a, &b| {
        density(b)
            .partial_cmp(&density(a))
            .expect("densities are finite")
            .then(items[a].id.cmp(&items[b].id))
    });
    order
}

/// Greedy over `order`: take each item that still fits. Also returns the
/// length of the prefix of `order` taken before the first item skipped.
fn take_in_order(items: &[Item], order: &[usize], capacity: u64) -> (Solution, usize) {
    let mut remaining = capacity;
    let mut prefix = None;
    let mut chosen = Vec::new();
    let mut total_size = 0u64;
    let mut total_value = 0.0;
    for (k, it) in order.iter().map(|&i| &items[i]).enumerate() {
        if it.size <= remaining {
            remaining -= it.size;
            chosen.push(it.id);
            total_size += it.size;
            total_value += it.value;
        } else if prefix.is_none() {
            prefix = Some(k);
        }
    }
    chosen.sort_unstable();
    let solution = Solution {
        chosen,
        total_value,
        total_size,
    };
    (solution, prefix.unwrap_or(order.len()))
}

/// Greedy by value density (value per byte): take the densest items
/// that still fit. On its own it has no approximation bound — with
/// capacity 10, a 1-byte item worth 2 goes first and shuts out a 10-byte
/// item worth 10 (only the better of it and the best single item is
/// within half the optimum) — so it is a companion in [`solve`]'s race,
/// and its answer when the certificate proves it optimal.
pub fn solve_greedy(items: &[Item], capacity: u64) -> Solution {
    take_in_order(items, &density_order(items, capacity), capacity).0
}

/// Greedy's answer, with the `total_value` the race reports for its
/// set, when the LP bound proves it the unique optimum by a margin no
/// rounding can close (see the module docs); `None` when the race must
/// run.
fn certified(items: &[Item], capacity: u64) -> Option<Solution> {
    // Up to its limit branch-and-bound joins the race, summing in its own
    // order; those sets are small enough to race.
    let n = items.iter().filter(|it| eligible(it, capacity)).count();
    if n <= BNB_ITEM_LIMIT {
        return None;
    }
    let order = density_order(items, capacity);
    let (greedy, prefix) = take_in_order(items, &order, capacity);
    // Greedy must have taken a prefix, not skipped an item and gone on.
    if prefix != greedy.chosen.len() {
        return None;
    }
    // The cut: between the last item taken and the first left out, which
    // needs the prefix to fill the budget; 0 when nothing is left out.
    let cut = if prefix == n {
        0.0
    } else if greedy.total_size == capacity {
        let density = |k: usize| items[order[k]].value / items[order[k]].size as f64;
        (density(prefix - 1) + density(prefix)) / 2.0
    } else {
        return None;
    };
    // Any other set that fits is worth at least `margin` less; a sum of
    // at most `n` positive terms is off by under `n·ε/2` of it, and the
    // race compares two such sums.
    let margin = order
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let reduced = items[i].value - cut * items[i].size as f64;
            if k < prefix {
                reduced
            } else {
                -reduced
            }
        })
        .fold(f64::INFINITY, f64::min);
    if margin <= 2.0 * n as f64 * f64::EPSILON * greedy.total_value {
        return None;
    }
    let grain = (capacity / MAX_DP_WIDTH).max(1);
    let needs: u64 = order[..prefix]
        .iter()
        .map(|&i| items[i].size.div_ceil(grain))
        .sum();
    if needs > capacity / grain {
        // The DP cannot fit the prefix, so it returns less; greedy wins.
        return Some(greedy);
    }
    // The DP returns the prefix too, summed from the last item to the
    // first; greedy replaces it only when its own sum is strictly greater.
    let mut taken = vec![false; items.len()];
    for &i in &order[..prefix] {
        taken[i] = true;
    }
    let dp_sum = items
        .iter()
        .zip(&taken)
        .rev()
        .filter(|&(_, &t)| t)
        .fold(0.0, |sum, (it, _)| sum + it.value);
    if greedy.total_value > dp_sum {
        Some(greedy)
    } else {
        Some(Solution {
            total_value: dp_sum,
            ..greedy
        })
    }
}

/// Solve, preferring the best of branch-and-bound (exact on unscaled
/// sizes, for small candidate sets), exact-DP (scaled sizes) and greedy
/// — or greedy's answer alone when the certificate proves it optimal.
pub fn solve(items: &[Item], capacity: u64) -> Solution {
    certified(items, capacity).unwrap_or_else(|| race(items, capacity))
}

/// The DP, greedy and (up to its limit) branch-and-bound, each replacing
/// the answer so far only when strictly better.
fn race(items: &[Item], capacity: u64) -> Solution {
    let mut best = solve_exact(items, capacity);
    let greedy = solve_greedy(items, capacity);
    if greedy.total_value > best.total_value {
        best = greedy;
    }
    if let Some(bnb) = crate::bnb::solve_bnb(items, capacity) {
        if bnb.total_value > best.total_value {
            best = bnb;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u32, size: u64, value: f64) -> Item {
        Item {
            id: ObjectId(id),
            size,
            value,
        }
    }

    #[test]
    fn picks_best_pair_over_greedy_trap() {
        // Greedy-by-density takes item 0 (density 3) and blocks the
        // optimal {1, 2}.
        let items = [item(0, 6, 18.0), item(1, 5, 14.0), item(2, 5, 14.0)];
        let s = solve_exact(&items, 10);
        assert_eq!(s.chosen, vec![ObjectId(1), ObjectId(2)]);
        assert!((s.total_value - 28.0).abs() < 1e-9);
        assert_eq!(s.total_size, 10);
        // And solve() must agree.
        assert_eq!(solve(&items, 10), s);
    }

    #[test]
    fn respects_capacity_exactly() {
        let items = [item(0, 4, 10.0), item(1, 4, 10.0), item(2, 4, 10.0)];
        let s = solve(&items, 8);
        assert_eq!(s.chosen.len(), 2);
        assert!(s.total_size <= 8);
    }

    #[test]
    fn skips_non_positive_values() {
        let items = [item(0, 4, -5.0), item(1, 4, 0.0), item(2, 4, 1.0)];
        let s = solve(&items, 100);
        assert_eq!(s.chosen, vec![ObjectId(2)]);
    }

    #[test]
    fn skips_oversized_items() {
        let items = [item(0, 200, 1000.0), item(1, 10, 1.0)];
        let s = solve(&items, 100);
        assert_eq!(s.chosen, vec![ObjectId(1)]);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(solve(&[], 100), Solution::empty());
        assert_eq!(solve(&[item(0, 1, 1.0)], 0), Solution::empty());
    }

    #[test]
    fn greedy_matches_exact_on_uniform_sizes() {
        let items: Vec<Item> = (0..20).map(|i| item(i, 10, (i + 1) as f64)).collect();
        let e = solve_exact(&items, 100);
        let g = solve_greedy(&items, 100);
        assert!((e.total_value - g.total_value).abs() < 1e-9);
        assert_eq!(e.chosen.len(), 10);
    }

    #[test]
    fn scaling_never_overflows_capacity() {
        // Capacity far above MAX_DP_WIDTH forces grain > 1.
        let cap: u64 = 1 << 28; // 256 MB
        let items: Vec<Item> = (0..50)
            .map(|i| item(i, (i as u64 + 1) * 3_000_001, (i + 1) as f64))
            .collect();
        let s = solve_exact(&items, cap);
        assert!(s.total_size <= cap, "{} > {}", s.total_size, cap);
    }

    #[test]
    fn solution_contains() {
        let s = solve(&[item(3, 1, 5.0), item(7, 1, 5.0)], 10);
        assert!(s.contains(ObjectId(3)));
        assert!(s.contains(ObjectId(7)));
        assert!(!s.contains(ObjectId(5)));
    }

    #[test]
    fn single_item_exact_fit() {
        let s = solve(&[item(0, 100, 1.0)], 100);
        assert_eq!(s.chosen, vec![ObjectId(0)]);
        assert_eq!(s.total_size, 100);
    }

    #[test]
    fn greedy_has_no_approximation_bound() {
        let items = [item(0, 1, 2.0), item(1, 10, 10.0)];
        assert_eq!(solve_greedy(&items, 10).total_value, 2.0);
        assert_eq!(solve(&items, 10).total_value, 10.0);
    }

    fn assert_solves_as_the_race(items: &[Item], capacity: u64) {
        let (got, want) = (solve(items, capacity), race(items, capacity));
        assert_eq!(got.chosen, want.chosen);
        assert_eq!(got.total_value.to_bits(), want.total_value.to_bits());
        assert_eq!(got.total_size, want.total_size);
    }

    /// 8192 × 8 KiB, the `i % 4 == 0` quarter worth 3 (and a little by
    /// index, so no two values tie), the rest `rest(i)`.
    fn chunks(rest: impl Fn(u32) -> f64) -> Vec<Item> {
        (0..8192)
            .map(|i| {
                let value = if i % 4 == 0 {
                    3.0 + f64::from(i) * 1e-6
                } else {
                    rest(i)
                };
                item(i, 8192, value)
            })
            .collect()
    }

    #[test]
    fn certificate_fires_on_a_hot_quarter_of_equal_chunks() {
        let capacity = 16 << 20;
        let items = chunks(|i| 1.0 + f64::from(i) * 1e-6);
        let s = certified(&items, capacity).expect("the quarter fills the budget");
        assert_eq!(
            s.chosen,
            (0..8192).step_by(4).map(ObjectId).collect::<Vec<_>>()
        );
        assert_solves_as_the_race(&items, capacity);
        // Every item fits: nothing is left out, so no cut is needed.
        assert!(certified(&items, 8192 * 8192).is_some());
        assert_solves_as_the_race(&items, 8192 * 8192);
    }

    #[test]
    fn certificate_declines_a_tie_at_the_cut() {
        // The budget holds 16 of the 24 items worth 2: the cut is a tie.
        let items: Vec<Item> = (0..64)
            .map(|i| item(i, 8192, if i < 24 { 2.0 } else { 1.0 }))
            .collect();
        assert_eq!(certified(&items, 16 * 8192), None);
        assert_solves_as_the_race(&items, 16 * 8192);
        // At three quarters of 8192 chunks the cut falls in a class.
        let items = chunks(|i| 1.0 + f64::from(i % 7));
        assert_eq!(certified(&items, 48 << 20), None);
    }

    #[test]
    fn certificate_declines_a_fractional_break_item() {
        // 33 items of 3 bytes fill 99 of 100: the 34th would be split.
        let items: Vec<Item> = (0..64).map(|i| item(i, 3, 64.0 - f64::from(i))).collect();
        assert_eq!(certified(&items, 100), None);
        assert_solves_as_the_race(&items, 100);
        // Greedy skips the 50-byte item and fills the budget with 2-byte
        // ones: full, but not a prefix.
        let mut items: Vec<Item> = (0..64)
            .map(|i| item(i, 2, 0.1 * f64::from(64 - i)))
            .collect();
        (items[0].size, items[0].value) = (60, 600.0);
        (items[1].size, items[1].value) = (50, 450.0);
        assert_eq!(solve_greedy(&items, 100).total_size, 100);
        assert_eq!(certified(&items, 100), None);
        assert_solves_as_the_race(&items, 100);
    }

    #[test]
    fn certificate_declines_a_gap_rounding_can_hide() {
        // Every item fits, but the last adds less than an ulp of the sum:
        // the DP does not take it, and the race keeps the DP's answer.
        let mut items: Vec<Item> = (0..64).map(|i| item(i, 8, 1e6)).collect();
        items[63].value = 1e-20;
        assert_eq!(certified(&items, 1 << 20), None);
        assert_solves_as_the_race(&items, 1 << 20);
    }
}
