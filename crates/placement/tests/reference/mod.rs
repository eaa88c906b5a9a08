//! Reference solvers: the straightforward loops `knapsack::solve_exact`,
//! `solve_mck_dp` and `solve_mck_greedy` ran before they were optimised
//! (one `bool` / `u8` table entry per cell, a `div` + `mod` per cell per
//! dimension, a full rescan per greedy move), and the race
//! `knapsack::solve` ran before it learned to certify greedy's answer.
//! They define the contract — chosen set, accumulation order, strict-`>`
//! tie-breaks — the shipping solvers must reproduce bit for bit, and
//! exist only as test oracles.

use tahoe_hms::ObjectId;
use tahoe_placement::mck::MCK_MAX_DP_CELLS;
use tahoe_placement::{knapsack, solve_bnb, Item, MckItem, Solution};

const MAX_DP_WIDTH: u64 = 8192;

pub fn solve_exact(items: &[Item], capacity: u64) -> Solution {
    let eligible: Vec<&Item> = items
        .iter()
        .filter(|it| it.value > 0.0 && it.size > 0 && it.size <= capacity)
        .collect();
    if eligible.is_empty() || capacity == 0 {
        return Solution::empty();
    }
    let grain = (capacity / MAX_DP_WIDTH).max(1);
    let width = (capacity / grain) as usize;
    let mut dp = vec![0.0f64; width + 1];
    let mut take = vec![false; (width + 1) * eligible.len()];
    for (i, it) in eligible.iter().enumerate() {
        let need = it.size.div_ceil(grain) as usize;
        if need > width {
            continue;
        }
        for w in (need..=width).rev() {
            let cand = dp[w - need] + it.value;
            if cand > dp[w] {
                dp[w] = cand;
                take[i * (width + 1) + w] = true;
            }
        }
    }
    let mut w = width;
    let mut chosen: Vec<ObjectId> = Vec::new();
    let mut total_size = 0u64;
    let mut total_value = 0.0;
    for (i, it) in eligible.iter().enumerate().rev() {
        if take[i * (width + 1) + w] {
            chosen.push(it.id);
            total_size += it.size;
            total_value += it.value;
            w -= it.size.div_ceil(grain) as usize;
        }
    }
    chosen.sort_unstable();
    Solution {
        chosen,
        total_value,
        total_size,
    }
}

/// The DP, greedy and (up to its item limit) branch-and-bound, each
/// replacing the answer so far only when strictly better.
pub fn solve_race(items: &[Item], capacity: u64) -> Solution {
    let mut best = solve_exact(items, capacity);
    let greedy = knapsack::solve_greedy(items, capacity);
    if greedy.total_value > best.total_value {
        best = greedy;
    }
    if let Some(bnb) = solve_bnb(items, capacity) {
        if bnb.total_value > best.total_value {
            best = bnb;
        }
    }
    best
}

/// Tier per item, as `solve_mck_greedy` assigned them.
pub fn mck_greedy(items: &[MckItem], caps: &[u64]) -> Vec<u8> {
    let n = caps.len();
    let last = (n - 1) as u8;
    let mut tiers = vec![last; items.len()];
    let mut used = vec![0u64; n];
    used[n - 1] = items.iter().map(|it| it.size).sum();
    let max_moves = items.len() * n * 4;
    for _ in 0..max_moves {
        let mut best: Option<(f64, usize, u8)> = None; // (density, item, tier)
        for (i, item) in items.iter().enumerate() {
            let cur = tiers[i] as usize;
            for t in 0..n - 1 {
                if t == cur || used[t] + item.size > caps[t] {
                    continue;
                }
                let gain = item.values[t] - item.values[cur];
                if gain <= 0.0 {
                    continue;
                }
                let density = gain / item.size as f64;
                let better = match &best {
                    None => true,
                    Some((bd, bi, bt)) => {
                        density > *bd
                            || (density == *bd && (i < *bi || (i == *bi && (t as u8) < *bt)))
                    }
                };
                if better {
                    best = Some((density, i, t as u8));
                }
            }
        }
        match best {
            Some((_, i, t)) => {
                let size = items[i].size;
                used[tiers[i] as usize] -= size;
                used[t as usize] += size;
                tiers[i] = t;
            }
            None => break,
        }
    }
    tiers
}

/// Tier per item, as `solve_mck_dp` assigned them.
pub fn mck_dp(items: &[MckItem], caps: &[u64]) -> Vec<u8> {
    let n = caps.len();
    let paid = n - 1;
    let last = (n - 1) as u8;
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
    let mut strides = vec![0usize; paid];
    let mut acc = 1usize;
    for d in 0..paid {
        strides[d] = acc;
        acc *= widths[d] + 1;
    }
    let needs: Vec<Vec<u64>> = items
        .iter()
        .map(|it| (0..paid).map(|d| it.size.div_ceil(grains[d])).collect())
        .collect();

    let mut dp = vec![0.0f64; cells];
    let mut choice = vec![0u8; cells * items.len()];
    let mut next = vec![0.0f64; cells];
    for (k, item) in items.iter().enumerate() {
        let row = &mut choice[k * cells..(k + 1) * cells];
        for s in 0..cells {
            let mut best = dp[s] + item.values[n - 1];
            let mut pick = last;
            for d in 0..paid {
                let digit = (s / strides[d]) % (widths[d] + 1);
                let need = needs[k][d];
                if (digit as u64) < need {
                    continue;
                }
                let cand = dp[s - (need as usize) * strides[d]] + item.values[d];
                if cand > best {
                    best = cand;
                    pick = d as u8;
                }
            }
            next[s] = best;
            row[s] = pick;
        }
        std::mem::swap(&mut dp, &mut next);
    }

    let mut tiers = vec![last; items.len()];
    let mut s = cells - 1;
    for k in (0..items.len()).rev() {
        let pick = choice[k * cells + s];
        tiers[k] = pick;
        if (pick as usize) < paid {
            let d = pick as usize;
            s -= (needs[k][d] as usize) * strides[d];
        }
    }
    tiers
}
