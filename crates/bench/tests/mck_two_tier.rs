//! The multiple-choice knapsack must be a strict generalization: on a
//! two-tier platform it must reproduce the binary knapsack's plan *bit
//! for bit* — same chosen set, same float total — for every workload
//! in the suite, not just for random property-test instances. Any
//! drift here would silently change the committed experiment tables.

use tahoe_core::measured::mck_items_for;
use tahoe_placement::{solve, solve_mck, Item};
use tahoe_workloads::{all_workloads, Scale};

#[test]
fn mck_at_two_tiers_matches_the_binary_plan_on_every_workload() {
    let apps = all_workloads(Scale::Test);
    assert_eq!(apps.len(), 12, "the suite is twelve workloads");
    for app in &apps {
        let platform =
            tahoe_core::prelude::Platform::emulated_bw(0.25, app.footprint() / 4, u64::MAX / 4)
                .expect("valid platform");
        let specs = platform.tier_specs();
        let items = mck_items_for(app, specs);
        let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
        let plan = solve_mck(&items, &caps).expect("two-tier MCK solves");

        let binary: Vec<Item> = items
            .iter()
            .map(|it| Item {
                id: it.id,
                size: it.size,
                value: it.values[0] - it.values[1],
            })
            .collect();
        let expect = solve(&binary, caps[0]);

        assert_eq!(
            plan.objects_on(&items, 0),
            expect.chosen,
            "{}: MCK DRAM set diverged from the binary solver",
            app.name
        );
        assert_eq!(
            plan.total_value.to_bits(),
            expect.total_value.to_bits(),
            "{}: MCK total value {} not bit-identical to binary {}",
            app.name,
            plan.total_value,
            expect.total_value
        );
        assert_eq!(
            plan.per_tier_bytes[0], expect.total_size,
            "{}: DRAM bytes diverged",
            app.name
        );
    }
}
