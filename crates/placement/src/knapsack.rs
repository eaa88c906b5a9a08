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

use tahoe_hms::ObjectId;

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
        .filter(|it| it.value > 0.0 && it.size > 0 && it.size <= capacity)
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

/// Greedy by value density (value per byte), the classic 1/2-approximation
/// companion. Used as a cross-check and as a fast path for huge item
/// sets.
pub fn solve_greedy(items: &[Item], capacity: u64) -> Solution {
    let mut eligible: Vec<&Item> = items
        .iter()
        .filter(|it| it.value > 0.0 && it.size > 0 && it.size <= capacity)
        .collect();
    eligible.sort_by(|a, b| {
        let da = a.value / a.size as f64;
        let db = b.value / b.size as f64;
        db.partial_cmp(&da)
            .expect("densities are finite")
            .then(a.id.cmp(&b.id))
    });
    let mut remaining = capacity;
    let mut chosen = Vec::new();
    let mut total_size = 0u64;
    let mut total_value = 0.0;
    for it in eligible {
        if it.size <= remaining {
            remaining -= it.size;
            chosen.push(it.id);
            total_size += it.size;
            total_value += it.value;
        }
    }
    chosen.sort_unstable();
    Solution {
        chosen,
        total_value,
        total_size,
    }
}

/// Solve, preferring the best of branch-and-bound (exact on unscaled
/// sizes, for small candidate sets), exact-DP (scaled sizes) and greedy.
pub fn solve(items: &[Item], capacity: u64) -> Solution {
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
}
