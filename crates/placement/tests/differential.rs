//! Differential tests: the optimised solvers against the retained
//! reference loops in `reference/`.
//!
//! `knapsack::solve_exact` and `knapsack::solve` must return the
//! reference DP's and the reference race's `Solution` bit for bit
//! (`chosen`, `total_value.to_bits()`, `total_size`), and
//! `solve_mck_dp` / `solve_mck_greedy` the reference's tier per item —
//! on the shapes that stress each shortcut: uniform and page-multiple
//! sizes (large gcd), random sizes (gcd 1), values with many exact ties,
//! non-positive values, and capacities from 0 to twice the footprint
//! (empty band to full band); for `solve`'s certificate also equal sizes
//! in value classes with the budget at a class boundary (it fires) or
//! inside a class (it must fall back). A mismatch here means a
//! digest-gated baseline would change: fix the solver, do not re-bless.

mod reference;

use proptest::prelude::*;

use tahoe_hms::ObjectId;
use tahoe_placement::{knapsack, solve_mck_dp, solve_mck_greedy, Item, MckItem, Solution};

/// Sizes by shape: 0 uniform, 1 page multiples, 2 random.
fn size(shape: u32, raw: u64) -> u64 {
    match shape {
        0 => 8192,
        1 => 4096 * (1 + raw % 64),
        _ => 1 + raw % (1 << 20),
    }
}

/// Values by shape: 0 four distinct values (many exact ties), 1 a mix
/// with zeros and negatives, 2 random.
fn value(shape: u32, raw: u64) -> f64 {
    match shape {
        0 => [0.1, 0.7, 1.3, 2.9][(raw % 4) as usize],
        1 => (raw % 7) as f64 - 3.0,
        _ => (raw % 1_000_000) as f64 / 7.0,
    }
}

/// Capacities 0, 1, below the smallest item, ¼, 1× and 2× the footprint.
fn capacities(sizes: impl Iterator<Item = u64> + Clone) -> [u64; 6] {
    let total: u64 = sizes.clone().sum();
    let min = sizes.min().unwrap_or(1);
    [0, 1, min - 1, total / 4, total, 2 * total]
}

fn binary_items(max: usize) -> impl Strategy<Value = Vec<Item>> {
    let raw = proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..max + 1);
    (0u32..3, 0u32..3, raw).prop_map(|(size_shape, value_shape, raw)| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (s, v))| Item {
                id: ObjectId(i as u32),
                size: size(size_shape, s),
                value: value(value_shape, v),
            })
            .collect()
    })
}

fn mck_items(max: usize, tiers: usize) -> impl Strategy<Value = Vec<MckItem>> {
    let raw = proptest::collection::vec(
        (
            0u64..u64::MAX,
            proptest::collection::vec(0u64..u64::MAX, tiers..tiers + 1),
        ),
        1..max + 1,
    );
    (0u32..3, 0u32..3, raw).prop_map(|(size_shape, value_shape, raw)| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (s, vs))| MckItem {
                id: ObjectId(i as u32),
                size: size(size_shape, s),
                values: vs.into_iter().map(|v| value(value_shape, v)).collect(),
            })
            .collect()
    })
}

fn assert_bit_identical(got: &Solution, want: &Solution, capacity: u64) {
    assert_eq!(got.chosen, want.chosen, "capacity {capacity}");
    assert_eq!(
        got.total_value.to_bits(),
        want.total_value.to_bits(),
        "capacity {capacity}: {} vs {}",
        got.total_value,
        want.total_value
    );
    assert_eq!(got.total_size, want.total_size, "capacity {capacity}");
}

fn assert_same_solution(items: &[Item], capacity: u64) {
    let want = reference::solve_exact(items, capacity);
    assert_bit_identical(&knapsack::solve_exact(items, capacity), &want, capacity);
}

fn assert_same_race(items: &[Item], capacity: u64) {
    let want = reference::solve_race(items, capacity);
    assert_bit_identical(&knapsack::solve(items, capacity), &want, capacity);
}

/// Equal 8 KiB items, item `i` in value class `class[i]` worth
/// `worth[class[i]]` (distinct), and for each class the bytes of the
/// classes worth more: the budgets at the class boundaries.
fn classed(class: &[usize], worth: &[f64]) -> (Vec<Item>, Vec<u64>) {
    const SIZE: u64 = 8192;
    let items: Vec<Item> = class
        .iter()
        .enumerate()
        .map(|(i, &c)| Item {
            id: ObjectId(i as u32),
            size: SIZE,
            value: worth[c],
        })
        .collect();
    let above = |v: f64| SIZE * class.iter().filter(|&&c| worth[c] > v).count() as u64;
    let boundaries = worth.iter().map(|&v| above(v)).collect();
    (items, boundaries)
}

/// Two to five class values, distinct: running sums of random steps.
fn class_worth() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u64..1_000_000, 2..6).prop_map(|steps| {
        let sums = steps.into_iter().scan(0, |sum, step| {
            *sum += step;
            Some(*sum as f64 / 7.0)
        });
        sums.collect()
    })
}

/// One capacity of the grid per paid tier, so tight and slack tiers meet.
fn assert_same_assignment(items: &[MckItem], grid_picks: &[usize]) {
    let grid = capacities(items.iter().map(|it| it.size));
    let mut caps: Vec<u64> = grid_picks.iter().map(|&g| grid[g]).collect();
    caps.push(u64::MAX);
    let dp = solve_mck_dp(items, &caps).unwrap();
    assert_eq!(
        dp.tiers,
        reference::mck_dp(items, &caps),
        "dp, caps {caps:?}"
    );
    let greedy = solve_mck_greedy(items, &caps).unwrap();
    assert_eq!(
        greedy.tiers,
        reference::mck_greedy(items, &caps),
        "greedy, caps {caps:?}"
    );
}

/// The unoptimised reference loops are slow in a debug build: a quick
/// pass there, the full sweep under `--release` (which CI also runs —
/// the vectorised loops are what ships).
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 16
    } else {
        release
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(512)))]

    #[test]
    fn solve_exact_is_bit_identical_to_the_reference(items in binary_items(96)) {
        for capacity in capacities(items.iter().map(|it| it.size)) {
            assert_same_solution(&items, capacity);
        }
    }

    #[test]
    fn solve_is_bit_identical_to_the_reference_race(items in binary_items(96)) {
        for capacity in capacities(items.iter().map(|it| it.size)) {
            assert_same_race(&items, capacity);
        }
    }
}

proptest! {
    // The reference DP sweeps 8193 columns per item at every budget.
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// A budget at a class boundary is filled exactly by the classes
    /// worth more, strictly denser than the rest: the certificate fires.
    /// One item more cuts into a class of equal values (unless that
    /// class holds one item): the certificate must decline.
    #[test]
    fn solve_matches_the_race_at_and_past_a_class_boundary(
        worth in class_worth(),
        class in proptest::collection::vec(0usize..5, 41..128),
    ) {
        let class: Vec<usize> = class.into_iter().map(|c| c % worth.len()).collect();
        let (items, boundaries) = classed(&class, &worth);
        for capacity in boundaries {
            assert_same_race(&items, capacity);
            assert_same_race(&items, capacity + 8192);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn mck_solvers_match_the_reference_at_three_tiers(
        items in mck_items(24, 3),
        grid_picks in proptest::collection::vec(0usize..6, 2..3),
    ) {
        assert_same_assignment(&items, &grid_picks);
    }

    #[test]
    fn mck_solvers_match_the_reference_at_four_tiers(
        items in mck_items(24, 4),
        grid_picks in proptest::collection::vec(0usize..6, 3..4),
    ) {
        assert_same_assignment(&items, &grid_picks);
    }
}

/// The tie-break contract the digest-gated baselines rest on: with equal
/// sizes the optimum is "the most valuable quarter", and among items of
/// equal value the strict-`>` DP keeps the earliest.
#[test]
fn equal_sizes_choose_the_top_quarter_lowest_index_first() {
    let n = 8192u32;
    // 1/8 of the items are worth 3, 1/4 are worth 2, the rest 1.
    let worth = |i: u32| match i.wrapping_mul(2_654_435_761) >> 29 {
        0 => 3.0,
        1 | 2 => 2.0,
        _ => 1.0,
    };
    let items: Vec<Item> = (0..n)
        .map(|i| Item {
            id: ObjectId(i),
            size: 8192,
            value: worth(i),
        })
        .collect();
    let capacity = u64::from(n) * 8192 / 4;

    let mut by_value: Vec<u32> = (0..n).collect();
    by_value.sort_by(|&a, &b| worth(b).total_cmp(&worth(a)).then(a.cmp(&b)));
    let mut want: Vec<ObjectId> = by_value[..n as usize / 4]
        .iter()
        .map(|&i| ObjectId(i))
        .collect();
    want.sort_unstable();
    let worth_at_least = |v: f64| (0..n).filter(|&i| worth(i) >= v).count();
    assert!(
        worth_at_least(3.0) < want.len() && want.len() < worth_at_least(2.0),
        "the quarter must cut through a run of equal values"
    );

    let got = knapsack::solve_exact(&items, capacity);
    assert_eq!(got.chosen, want);
    assert_eq!(got.total_size, capacity);
}
