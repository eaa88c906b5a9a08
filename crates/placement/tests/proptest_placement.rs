//! Property tests for the placement engine: solver laws and plan-shape
//! invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;

use tahoe_hms::{presets, ObjectId};
use tahoe_memprof::Calibration;
use tahoe_perfmodel::Demand;
use tahoe_placement::{global_plan, knapsack, local_plan, Item, WeighCtx};

fn item_strategy(id: u32) -> impl Strategy<Value = Item> {
    (1u64..1_000_000, -1.0e6f64..1.0e6).prop_map(move |(size, value)| Item {
        id: ObjectId(id),
        size,
        value,
    })
}

fn items_strategy(n: usize) -> impl Strategy<Value = Vec<Item>> {
    (0..n as u32)
        .map(item_strategy)
        .collect::<Vec<_>>()
        .prop_map(|v| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn knapsack_never_overflows_and_never_picks_nonpositive(
        items in items_strategy(24),
        capacity in 1u64..4_000_000,
    ) {
        for sol in [knapsack::solve_exact(&items, capacity),
                    knapsack::solve_greedy(&items, capacity),
                    knapsack::solve(&items, capacity)] {
            prop_assert!(sol.total_size <= capacity);
            let mut value_check = 0.0;
            let mut size_check = 0u64;
            for id in &sol.chosen {
                let it = items.iter().find(|i| i.id == *id).expect("chosen item exists");
                prop_assert!(it.value > 0.0, "chose non-positive item");
                prop_assert!(it.size <= capacity);
                value_check += it.value;
                size_check += it.size;
            }
            prop_assert!((value_check - sol.total_value).abs() < 1e-6);
            prop_assert_eq!(size_check, sol.total_size);
        }
    }

    #[test]
    fn exact_at_least_greedy(
        items in items_strategy(20),
        capacity in 1u64..4_000_000,
    ) {
        // With the capacity-scaling grain the DP is exact up to rounding;
        // solve() takes the max, so it must always dominate greedy.
        let combined = knapsack::solve(&items, capacity);
        let greedy = knapsack::solve_greedy(&items, capacity);
        prop_assert!(combined.total_value >= greedy.total_value - 1e-9);
    }

    #[test]
    fn exact_is_optimal_for_small_sets(
        items in items_strategy(10),
        capacity in 1u64..2_000_000,
    ) {
        // Brute-force reference over all 2^n subsets.
        let n = items.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let mut size = 0u64;
            let mut value = 0.0;
            for (i, it) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    size += it.size;
                    value += it.value;
                }
            }
            if size <= capacity && value > best {
                best = value;
            }
        }
        let sol = knapsack::solve(&items, capacity);
        // The DP scales sizes up to a grain, so it may under-fill
        // slightly; it must reach at least the greedy bound and never
        // exceed true optimum.
        prop_assert!(sol.total_value <= best + 1e-6);
        // For capacities below the scaling threshold the DP is exact.
        if capacity <= 8192 {
            prop_assert!((sol.total_value - best).abs() < 1e-6);
        }
    }
}

fn demand_strategy() -> impl Strategy<Value = Demand> {
    (0.0f64..1e6, 0.0f64..1e6, 1.0f64..1e7, 1.0f64..16.0).prop_map(
        |(loads, stores, active_ns, concurrency)| Demand {
            loads,
            stores,
            active_ns,
            concurrency,
        },
    )
}

fn ctx() -> WeighCtx {
    WeighCtx {
        nvm: presets::optane_pmm(1 << 34),
        dram: presets::dram(1 << 28),
        calib: Calibration::identity(2.3, 9.5),
        distinguish_rw: true,
        copy_bw_gbps: 5.0,
        overlap_credit_ns: 1000.0,
        dram_pressure: 0.3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plans_respect_capacity_and_transition_consistency(
        demands in proptest::collection::vec(
            (1u64..500_000, demand_strategy()),
            1..12
        ),
        windows in 1usize..5,
        capacity in 100_000u64..2_000_000,
    ) {
        let wd: Vec<Vec<(ObjectId, u64, Demand)>> = (0..windows)
            .map(|_| {
                demands
                    .iter()
                    .enumerate()
                    .map(|(i, &(size, d))| (ObjectId(i as u32), size, d))
                    .collect()
            })
            .collect();
        let initial = BTreeSet::new();
        for plan in [
            local_plan(&wd, &initial, capacity, &ctx()),
            global_plan(&wd, &initial, capacity, &ctx()),
        ] {
            prop_assert_eq!(plan.windows.len(), windows);
            let mut resident: BTreeSet<ObjectId> = initial.clone();
            for pw in &plan.windows {
                // The planned DRAM set fits.
                let bytes: u64 = pw
                    .dram_set
                    .iter()
                    .map(|o| demands[o.index()].0)
                    .sum();
                prop_assert!(bytes <= capacity, "planned set overflows DRAM");
                // Transitions are consistent with the running set.
                for p in &pw.promote {
                    prop_assert!(!resident.contains(p), "promoting a resident");
                    resident.insert(*p);
                }
                for e in &pw.evict {
                    prop_assert!(resident.contains(e), "evicting a non-resident");
                    resident.remove(e);
                }
                prop_assert!(pw.dram_set.is_subset(&resident));
            }
        }
    }

    #[test]
    fn global_plan_migrates_at_most_once_per_object(
        demands in proptest::collection::vec(
            (1u64..500_000, demand_strategy()),
            1..12
        ),
        windows in 1usize..5,
    ) {
        let wd: Vec<Vec<(ObjectId, u64, Demand)>> = (0..windows)
            .map(|_| {
                demands
                    .iter()
                    .enumerate()
                    .map(|(i, &(size, d))| (ObjectId(i as u32), size, d))
                    .collect()
            })
            .collect();
        let plan = global_plan(&wd, &BTreeSet::new(), 1 << 20, &ctx());
        prop_assert!(plan.migration_count() <= demands.len());
        // All transitions happen at the first window.
        for pw in plan.windows.iter().skip(1) {
            prop_assert!(pw.promote.is_empty() && pw.evict.is_empty());
        }
    }
}
