//! Property tests for the static plan auditor against the real solver
//! stack: every solver-produced migration plan — DP, branch-and-bound,
//! greedy, and the combined `solve_mck` (which covers the binary
//! restriction at two tiers) — must audit *clean* on every workload in
//! the suite, at both 2- and 3-tier depth. And the acceptance is
//! tight: a single adversarial edit to an accepted plan (inflate one
//! object's size, undeclare one racing access, retarget one move,
//! duplicate one step) must flip the verdict with the matching typed
//! diagnostic.

use proptest::prelude::*;

use tahoe_core::measured::{mck_items_for, promotion_plan};
use tahoe_core::prelude::Platform;
use tahoe_core::{audit_plan, App, ExtraAccess, MigrationPlan, PlanContext, PlanStep};
use tahoe_core::{SanitizeReport, ViolationKind};
use tahoe_hms::TierSpec;
use tahoe_placement::{solve_mck, solve_mck_bnb, solve_mck_dp, solve_mck_greedy};
use tahoe_workloads::{all_workloads, Scale};

/// Preset tier specs for one workload at the requested depth.
fn specs_for(app: &App, tiers: usize) -> Vec<TierSpec> {
    let fp = app.footprint();
    let dram = (fp / 4).max(1 << 20);
    let platform = if tiers >= 3 {
        Platform::optane_cxl(dram, fp / 2, 4 * fp)
    } else {
        Platform::optane(dram, 4 * fp)
    };
    platform.tier_specs().to_vec()
}

/// Solve the placement with the chosen solver and lower it to the
/// promote-from-spill migration plan the runtime would execute
/// (`window: 0` on every step: due from the first barrier on).
fn solver_plan(app: &App, specs: &[TierSpec], solver: usize) -> (MigrationPlan, PlanContext) {
    let items = mck_items_for(app, specs);
    let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
    let assignment = match solver {
        0 => solve_mck_dp(&items, &caps).expect("dp solves"),
        // B&B bails out on wide instances; the combined solver is the
        // fallback the runtime itself uses.
        1 => solve_mck_bnb(&items, &caps)
            .expect("bnb solves")
            .unwrap_or_else(|| solve_mck(&items, &caps).expect("mck solves")),
        2 => solve_mck_greedy(&items, &caps).expect("greedy solves"),
        _ => solve_mck(&items, &caps).expect("mck solves"),
    };
    let spill = vec![(specs.len() - 1) as u8; app.objects.len()];
    let plan = promotion_plan(&items, spill, &assignment.tiers);
    let ctx = PlanContext::new(app.objects.iter().map(|o| o.size).collect());
    (plan, ctx)
}

fn audit(app: &App, plan: &MigrationPlan, specs: &[TierSpec], ctx: &PlanContext) -> SanitizeReport {
    audit_plan(&app.graph, plan, specs, ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Acceptance: every solver × workload × tier depth yields a plan
    /// the auditor certifies sound.
    #[test]
    fn auditor_accepts_every_solver_plan(
        workload in 0usize..12,
        tiers in 2usize..4,
        solver in 0usize..4,
    ) {
        let app = &all_workloads(Scale::Test)[workload];
        let specs = specs_for(app, tiers);
        let (plan, ctx) = solver_plan(app, &specs, solver);
        let rep = audit(app, &plan, &specs, &ctx);
        prop_assert!(
            rep.is_clean(),
            "{} ({tiers} tiers, solver {solver}): {:?}",
            app.name,
            rep.violations
        );
    }

    /// Rejection: one edit to an accepted plan or its context must be
    /// caught with the matching diagnostic, never absorbed.
    #[test]
    fn auditor_rejects_single_edit_mutations(
        workload in 0usize..12,
        tiers in 2usize..4,
        mutation in 0usize..4,
    ) {
        let app = &all_workloads(Scale::Test)[workload];
        let specs = specs_for(app, tiers);
        let (mut plan, mut ctx) = solver_plan(app, &specs, 3);
        if plan.steps.is_empty() {
            // Degenerate instance: nothing to mutate.
            return Ok(());
        }
        let step = plan.steps[0];
        let expect = match mutation {
            0 => {
                // Inflate the moved object past its destination tier:
                // the step must overflow the capacity ledger.
                let mut sizes: Vec<u64> = app.objects.iter().map(|o| o.size).collect();
                sizes[step.object as usize] += specs[step.to_tier as usize].capacity + 1;
                ctx = PlanContext::new(sizes);
                ViolationKind::PlanOverCapacity
            }
            1 => {
                // Undeclare one access concurrent with the move — the
                // ordering that made the plan schedule-universally safe
                // is gone for that access.
                let racer = app.graph.tasks().len() as u32 - 1;
                ctx = ctx.with_extra(vec![ExtraAccess {
                    task: racer,
                    object: step.object,
                    writes: false,
                }]);
                ViolationKind::PlanMoveRace
            }
            2 => {
                // Retarget one move off the tier list.
                plan.steps[0].to_tier = specs.len() as u8 + 5;
                ViolationKind::PlanUnknownTier
            }
            _ => {
                // Move the same object twice in one window.
                plan.steps.push(PlanStep {
                    object: step.object,
                    to_tier: (specs.len() - 1) as u8,
                    window: step.window,
                });
                ViolationKind::PlanDoubleMove
            }
        };
        let rep = audit(app, &plan, &specs, &ctx);
        prop_assert!(
            rep.count(expect) > 0,
            "{} ({tiers} tiers, mutation {mutation}): expected {expect:?}, got {:?}",
            app.name,
            rep.violations
        );
    }
}
