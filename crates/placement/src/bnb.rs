//! Branch-and-bound 0/1 knapsack: exact on *unscaled* sizes.
//!
//! The DP solver scales sizes to a grain to bound its table; for small
//! candidate sets (a handful of target objects per window, the paper's
//! common case) branch-and-bound is exact without any scaling and is
//! used as the cross-check of record. The bound is the classic
//! fractional (Dantzig) relaxation over density-sorted items.

use tahoe_hms::ObjectId;

use crate::knapsack::{Item, Solution};

/// Maximum number of eligible items for which the exact search runs;
/// beyond this the caller should use the DP/greedy path.
pub const BNB_ITEM_LIMIT: usize = 40;

struct Search<'a> {
    items: &'a [SortedItem],
    best_value: f64,
    best_mask: u64,
}

#[derive(Clone, Copy)]
struct SortedItem {
    id: ObjectId,
    size: u64,
    value: f64,
    original: usize,
}

impl Search<'_> {
    /// Dantzig upper bound for the subproblem starting at `idx` with
    /// `room` bytes left: take whole items greedily by density, then a
    /// fractional piece of the first that does not fit.
    fn upper_bound(&self, idx: usize, room: u64, value: f64) -> f64 {
        let mut bound = value;
        let mut room = room;
        for it in &self.items[idx..] {
            if it.size <= room {
                room -= it.size;
                bound += it.value;
            } else {
                bound += it.value * room as f64 / it.size as f64;
                break;
            }
        }
        bound
    }

    fn branch(&mut self, idx: usize, room: u64, value: f64, mask: u64) {
        if value > self.best_value {
            self.best_value = value;
            self.best_mask = mask;
        }
        if idx >= self.items.len() {
            return;
        }
        if self.upper_bound(idx, room, value) <= self.best_value {
            return; // prune
        }
        let it = self.items[idx];
        // Include first (density order makes inclusion the promising arm).
        if it.size <= room {
            self.branch(idx + 1, room - it.size, value + it.value, mask | (1 << idx));
        }
        // Exclude.
        self.branch(idx + 1, room, value, mask);
    }
}

/// Exact 0/1 knapsack by branch-and-bound. Returns `None` when more than
/// [`BNB_ITEM_LIMIT`] items are eligible (use the DP path instead).
pub fn solve_bnb(items: &[Item], capacity: u64) -> Option<Solution> {
    let mut eligible: Vec<SortedItem> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.value > 0.0 && it.size > 0 && it.size <= capacity)
        .map(|(original, it)| SortedItem {
            id: it.id,
            size: it.size,
            value: it.value,
            original,
        })
        .collect();
    if eligible.len() > BNB_ITEM_LIMIT {
        return None;
    }
    if eligible.is_empty() || capacity == 0 {
        return Some(Solution::empty());
    }
    // Density order for tight Dantzig bounds.
    eligible.sort_by(|a, b| {
        let da = a.value / a.size as f64;
        let db = b.value / b.size as f64;
        db.partial_cmp(&da)
            .expect("densities are finite")
            .then(a.original.cmp(&b.original))
    });
    let mut search = Search {
        items: &eligible,
        best_value: 0.0,
        best_mask: 0,
    };
    search.branch(0, capacity, 0.0, 0);

    let mut chosen = Vec::new();
    let mut total_size = 0;
    let mut total_value = 0.0;
    for (i, it) in eligible.iter().enumerate() {
        if search.best_mask & (1 << i) != 0 {
            chosen.push(it.id);
            total_size += it.size;
            total_value += it.value;
        }
    }
    chosen.sort_unstable();
    Some(Solution {
        chosen,
        total_value,
        total_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack;

    fn item(id: u32, size: u64, value: f64) -> Item {
        Item {
            id: ObjectId(id),
            size,
            value,
        }
    }

    #[test]
    fn solves_the_greedy_trap_exactly() {
        let items = [item(0, 6, 18.0), item(1, 5, 14.0), item(2, 5, 14.0)];
        let s = solve_bnb(&items, 10).unwrap();
        assert_eq!(s.chosen, vec![ObjectId(1), ObjectId(2)]);
        assert!((s.total_value - 28.0).abs() < 1e-9);
    }

    #[test]
    fn matches_dp_on_aligned_sizes() {
        // Sizes far below the DP scaling threshold → both exact.
        let items: Vec<Item> = (0..12)
            .map(|i| item(i, (i as u64 % 5 + 1) * 7, ((i * 13) % 29 + 1) as f64))
            .collect();
        for cap in [10u64, 40, 80, 200] {
            let dp = knapsack::solve_exact(&items, cap);
            let bb = solve_bnb(&items, cap).unwrap();
            assert!(
                (dp.total_value - bb.total_value).abs() < 1e-9,
                "cap {cap}: dp {} vs bnb {}",
                dp.total_value,
                bb.total_value
            );
        }
    }

    #[test]
    fn beats_or_ties_scaled_dp_on_huge_capacities() {
        // Capacity above the DP's grain threshold: the DP may under-fill,
        // branch-and-bound stays exact.
        let cap: u64 = 1 << 26;
        let items: Vec<Item> = (0..20)
            .map(|i| item(i, (i as u64 + 1) * 3_000_001, (i + 1) as f64))
            .collect();
        let dp = knapsack::solve(&items, cap);
        let bb = solve_bnb(&items, cap).unwrap();
        assert!(bb.total_value >= dp.total_value - 1e-9);
        assert!(bb.total_size <= cap);
    }

    #[test]
    fn declines_oversized_problems() {
        let items: Vec<Item> = (0..60).map(|i| item(i, 10, 1.0)).collect();
        assert!(solve_bnb(&items, 100).is_none());
    }

    #[test]
    fn empty_and_degenerate() {
        assert_eq!(solve_bnb(&[], 100).unwrap(), Solution::empty());
        let only_bad = [item(0, 5, -1.0), item(1, 1000, 5.0)];
        assert_eq!(solve_bnb(&only_bad, 100).unwrap(), Solution::empty());
    }
}
