//! Static migration-plan auditor: a symbolic executor that proves (or
//! refutes) the soundness of a placement plan before a single byte
//! moves.
//!
//! The MCK solver emits a *plan* — an initial placement plus timed
//! tier-to-tier moves — and until now the runtime trusted it blindly.
//! This pass replays the plan symbolically against the task graph and
//! the ordered tier list and reports, through the same
//! [`SanitizeReport`] machinery as the graph verifier:
//!
//! * **Capacity feasibility** ([`ViolationKind::PlanOverCapacity`]):
//!   every paid tier stays within capacity at every prefix of the plan
//!   schedule, *including the transient double-residency of the
//!   two-phase copy* (an object occupies both source and destination
//!   until the move commits), and every copy finds a *contiguous hole*
//!   in its destination's best-fit allocator, replayed as the runtime
//!   drives it — bytes that fit but are fragmented are reported too.
//!   The last tier is the unbounded spill tier, matching the knapsack
//!   convention.
//! * **Schedule-universal migration safety**
//!   ([`ViolationKind::PlanMoveRace`]): a move issued at window `w` is
//!   safe against an access iff the access is barrier-ordered before it
//!   (its task's window precedes `w` in the happens-before relation) or
//!   the access is *declared* — the lock-free pin/move protocol
//!   serializes declared accesses against moves under every legal
//!   interleaving, the exact invariant [`crate::mcheck`] certifies
//!   exhaustively. Undeclared accesses carry no pin, so a move
//!   unordered against one races it under *some* schedule.
//! * **Target validity** ([`ViolationKind::PlanUnknownTier`]): initial
//!   tiers and step targets index into the configured tier list.
//! * **Liveness** ([`ViolationKind::PlanDeadObject`],
//!   [`ViolationKind::PlanDoubleMove`]): no step moves an object that
//!   was never allocated or is freed before the step's window, and no
//!   object moves twice within one window (the second copy would race
//!   the first).
//! * **Cost non-regression** ([`ViolationKind::PlanCostRegression`]):
//!   the contention-free modelled memory time of the run, each window
//!   priced under the placement in force in that window, must not
//!   exceed the no-plan baseline (the initial placement throughout).
//!   [`audit_plan`] prices with the pure `mem_time_ns` model;
//!   [`audit_plan_priced`] reads the planner's own per-access table (the
//!   wall-clock runtime's `cf`-corrected prices), so a solver-produced
//!   plan always passes the pricing it was solved under; a hand-edited
//!   plan that demotes hot objects, or a rotation that evicts an object
//!   at the barrier before its use, is rejected.

use std::collections::HashMap;

use tahoe_hms::alloc::TierAllocator;
use tahoe_hms::TierSpec;
use tahoe_taskrt::{TaskAccess, TaskGraph};

use crate::dynamic::ExtraAccess;
use crate::hb::HappensBefore;
use crate::report::{SanitizeReport, Violation, ViolationKind};

/// One planned migration: move `object` to `to_tier`, no earlier than
/// the barrier that opens `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// App index of the object to move.
    pub object: u32,
    /// Destination tier (index into the ordered tier list).
    pub to_tier: u8,
    /// The move is issued when this window opens or at any point after
    /// (the engine holds a plan back until its profiling quota is met);
    /// every task of earlier windows is barrier-ordered before the copy.
    pub window: u32,
}

/// A full migration plan: where every object starts and every move the
/// runtime will issue. This is the unit the auditor certifies and the
/// shape replanning (ROADMAP item 5) will mutate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Initial tier of object `i` (index into the ordered tier list).
    pub initial_tiers: Vec<u8>,
    /// Timed moves; within one window, vector order is issue order.
    pub steps: Vec<PlanStep>,
}

impl MigrationPlan {
    /// A no-move plan with every object on `tier`.
    pub fn resident(n_objects: usize, tier: u8) -> Self {
        MigrationPlan {
            initial_tiers: vec![tier; n_objects],
            steps: Vec::new(),
        }
    }

    /// Replay the plan over `n_objects` objects and `n_tiers` tiers in
    /// the order it executes. This is the one reading of a plan: the
    /// auditor's capacity and cost passes, the engine's executed ==
    /// audited check and the model audit all go through it.
    pub fn replay(&self, n_objects: usize, n_tiers: usize) -> PlanReplay<'_> {
        let spill = n_tiers.saturating_sub(1) as u8;
        // An object the plan does not place, or places on a tier that
        // does not exist (reported separately), sits on the spill tier.
        let tiers = (0..n_objects)
            .map(|o| match self.initial_tiers.get(o) {
                Some(&t) if (t as usize) < n_tiers => t,
                _ => spill,
            })
            .collect();
        let mut steps: Vec<&PlanStep> = self
            .steps
            .iter()
            .filter(|s| (s.object as usize) < n_objects && (s.to_tier as usize) < n_tiers)
            .collect();
        // Stable: within one window, vector order is issue order.
        steps.sort_by_key(|s| s.window);
        PlanReplay {
            steps,
            next: 0,
            tiers,
        }
    }

    /// Where every object sits once the whole plan has executed.
    pub fn final_tiers(&self, n_tiers: usize) -> Vec<u8> {
        let mut replay = self.replay(self.initial_tiers.len(), n_tiers);
        while replay.step().is_some() {}
        replay.tiers
    }

    /// `out[i]`: the plan has object `i` on `tier` at some point — it
    /// starts there or a step moves it there. (A rotated object is
    /// planned into DRAM and may well end the run on NVM.)
    pub fn planned_onto(&self, tier: u8) -> Vec<bool> {
        let mut on: Vec<bool> = self.initial_tiers.iter().map(|&t| t == tier).collect();
        for s in self.steps.iter().filter(|s| s.to_tier == tier) {
            if let Some(o) = on.get_mut(s.object as usize) {
                *o = true;
            }
        }
        on
    }
}

/// A [`MigrationPlan`] being replayed in execution order: steps sorted
/// by window, vector order within one; steps naming an object or a tier
/// that does not exist are left out (the auditor reports them).
#[derive(Debug)]
pub struct PlanReplay<'a> {
    steps: Vec<&'a PlanStep>,
    next: usize,
    tiers: Vec<u8>,
}

impl<'a> PlanReplay<'a> {
    /// The placement after the steps applied so far.
    pub fn tiers(&self) -> &[u8] {
        &self.tiers
    }

    /// Apply the next step; returns it with the tier its object left.
    pub fn step(&mut self) -> Option<(&'a PlanStep, u8)> {
        let s = *self.steps.get(self.next)?;
        self.next += 1;
        let from = std::mem::replace(&mut self.tiers[s.object as usize], s.to_tier);
        Some((s, from))
    }

    /// Apply every step due by `window` and return the placement in
    /// force in that window. A step is in force from the window it is
    /// issued at: for the objects a sound rotation moves — idle in that
    /// window — this equals "in place when the next window opens", and
    /// an eviction issued at the barrier before a use is priced as the
    /// eviction it is.
    pub fn advance_to(&mut self, window: u32) -> &[u8] {
        while self
            .steps
            .get(self.next)
            .is_some_and(|s| s.window <= window)
        {
            self.step();
        }
        &self.tiers
    }
}

/// The paid tiers' allocators as the runtime drives them (best fit,
/// [`TierAllocator`]), and where each object sits in them.
struct Holes {
    tiers: Vec<TierAllocator>,
    addr: Vec<Option<u64>>,
}

impl Holes {
    fn new(paid: &[TierSpec], n_objects: usize) -> Self {
        Holes {
            tiers: paid
                .iter()
                .map(|s| TierAllocator::new(s.capacity))
                .collect(),
            addr: vec![None; n_objects],
        }
    }

    /// Place object `o` on tier `t`; `false` if it finds no hole there.
    /// The spill tier and empty objects take no hole.
    fn alloc(&mut self, o: usize, t: u8, size: u64) -> bool {
        match self.tiers.get_mut(t as usize) {
            Some(tier) if size > 0 => {
                self.addr[o] = tier.alloc(size);
                self.addr[o].is_some()
            }
            _ => true,
        }
    }

    /// Move object `o` from `from` to `to` as a two-phase copy does:
    /// reserve the destination, then free the source. `false` if the
    /// destination has no hole for it.
    fn copy(&mut self, o: usize, from: u8, to: u8, size: u64) -> bool {
        let source = self.addr[o].take();
        if !self.alloc(o, to, size) {
            return false;
        }
        if let (Some(at), Some(tier)) = (source, self.tiers.get_mut(from as usize)) {
            tier.free(at);
        }
        true
    }
}

/// Allocation- and execution-side facts the plan alone cannot know.
#[derive(Debug, Clone, Default)]
pub struct PlanContext {
    /// Size of object `i` in bytes; a step on an index past the end
    /// moves an object that was never allocated.
    pub object_sizes: Vec<u64>,
    /// `object index → window`: the object is freed before this window
    /// starts, so a move issued at that window or later copies dead
    /// memory.
    pub freed_before_window: HashMap<u32, u32>,
    /// Undeclared accesses known statically (sanitizer feedback or
    /// fixture injection). Declared accesses are pinned and therefore
    /// move-safe; these are not.
    pub extra: Vec<ExtraAccess>,
}

impl PlanContext {
    /// Context for an app whose objects all live for the whole run and
    /// whose tasks touch only what they declare.
    pub fn new(object_sizes: Vec<u64>) -> Self {
        PlanContext {
            object_sizes,
            ..Default::default()
        }
    }

    /// Mark object `object` as freed before window `window`.
    pub fn free_before_window(mut self, object: u32, window: u32) -> Self {
        self.freed_before_window.insert(object, window);
        self
    }

    /// Add undeclared accesses the dynamic layer knows about.
    pub fn with_extra(mut self, extra: Vec<ExtraAccess>) -> Self {
        self.extra = extra;
        self
    }
}

/// Audit `plan` for `g` over the ordered tier list `specs` (fastest
/// first, last = unbounded spill tier) and return the canonical report.
/// The cost check prices each access with the pure model on each spec.
pub fn audit_plan(
    g: &TaskGraph,
    plan: &MigrationPlan,
    specs: &[TierSpec],
    ctx: &PlanContext,
) -> SanitizeReport {
    audit(g, plan, specs, ctx, |_, a, t| {
        a.profile.mem_time_ns(&specs[t])
    })
}

/// [`audit_plan`] with the cost check reading `prices`, slot-major:
/// `prices[slot * specs.len() + t]` is the access in `slot` (the graph's
/// accesses numbered in task order) on tier `t` — the table the planner
/// priced the plan with.
///
/// # Panics
///
/// If `prices` does not hold one price per access per tier.
pub fn audit_plan_priced(
    g: &TaskGraph,
    plan: &MigrationPlan,
    specs: &[TierSpec],
    ctx: &PlanContext,
    prices: &[f64],
) -> SanitizeReport {
    let slots: usize = g.tasks().iter().map(|t| t.accesses.len()).sum();
    assert_eq!(
        prices.len(),
        slots * specs.len(),
        "one price per access per tier"
    );
    audit(g, plan, specs, ctx, |slot, _, t| {
        prices[slot * specs.len() + t]
    })
}

/// The audit, with `price(slot, access, tier)` the cost check's price of
/// the access in `slot` on `tier`.
fn audit(
    g: &TaskGraph,
    plan: &MigrationPlan,
    specs: &[TierSpec],
    ctx: &PlanContext,
    price: impl Fn(usize, &TaskAccess, usize) -> f64,
) -> SanitizeReport {
    let n_tiers = specs.len();
    let n_objects = ctx.object_sizes.len();
    let mut violations = Vec::new();

    // ---- target-tier validity ----------------------------------------
    for (obj, &t) in plan.initial_tiers.iter().enumerate() {
        if (t as usize) >= n_tiers {
            violations.push(Violation {
                kind: ViolationKind::PlanUnknownTier,
                task: None,
                object: Some(obj as u32),
                detail: format!(
                    "initial placement puts object {obj} on tier {t}, but only {n_tiers} tiers are configured"
                ),
            });
        }
    }
    for s in &plan.steps {
        if (s.to_tier as usize) >= n_tiers {
            violations.push(Violation {
                kind: ViolationKind::PlanUnknownTier,
                task: None,
                object: Some(s.object),
                detail: format!(
                    "step moves object {} to tier {}, but only {n_tiers} tiers are configured",
                    s.object, s.to_tier
                ),
            });
        }
    }

    // ---- dead objects ------------------------------------------------
    for s in &plan.steps {
        if (s.object as usize) >= n_objects {
            violations.push(Violation {
                kind: ViolationKind::PlanDeadObject,
                task: None,
                object: Some(s.object),
                detail: format!(
                    "step moves object {}, which was never allocated (only {n_objects} objects exist)",
                    s.object
                ),
            });
        } else if let Some(&freed) = ctx.freed_before_window.get(&s.object) {
            if s.window >= freed {
                violations.push(Violation {
                    kind: ViolationKind::PlanDeadObject,
                    task: None,
                    object: Some(s.object),
                    detail: format!(
                        "step at window {} moves object {}, freed before window {freed}",
                        s.window, s.object
                    ),
                });
            }
        }
    }

    // ---- double moves within one window ------------------------------
    {
        let mut seen: HashMap<(u32, u32), u8> = HashMap::new();
        for s in &plan.steps {
            if let Some(&first_to) = seen.get(&(s.object, s.window)) {
                violations.push(Violation {
                    kind: ViolationKind::PlanDoubleMove,
                    task: None,
                    object: Some(s.object),
                    detail: format!(
                        "object {} moved twice in window {} (to tier {first_to}, then tier {}): the second copy races the first",
                        s.object, s.window, s.to_tier
                    ),
                });
            } else {
                seen.insert((s.object, s.window), s.to_tier);
            }
        }
    }

    // ---- per-prefix capacity feasibility -----------------------------
    // Symbolically replay the schedule: steps execute in (window, issue
    // order). An object occupies its destination *and* its source while
    // the two-phase copy is in flight, so the destination is charged
    // before the source is released. The spill tier (last) is never
    // capacity-constrained.
    //
    // Bytes that fit a tier need not make a hole there: alongside the
    // byte count, every paid tier's allocator is replayed as the runtime
    // drives it — the initial placement in object order (the order
    // objects are allocated in), then each copy reserving its
    // destination before its source is freed — and a copy whose bytes
    // fit but which finds no contiguous hole is over capacity too.
    // After the first such copy the runtime's placement and the plan's
    // part ways, so the hole replay stops there.
    if n_tiers > 0 {
        let spill = (n_tiers - 1) as u8;
        let mut replay = plan.replay(n_objects, n_tiers);
        let mut usage = vec![0u64; n_tiers];
        let mut holes = Some(Holes::new(&specs[..n_tiers - 1], n_objects));
        for (o, &t) in replay.tiers().iter().enumerate() {
            let size = ctx.object_sizes[o];
            usage[t as usize] += size;
            if holes.as_mut().is_some_and(|h| !h.alloc(o, t, size)) {
                holes = None; // over by bytes: reported below
            }
        }
        let flag_over = |tier: usize, used: u64, when: String, violations: &mut Vec<Violation>| {
            violations.push(Violation {
                kind: ViolationKind::PlanOverCapacity,
                task: None,
                object: None,
                detail: format!(
                    "tier {tier} ({}) holds {used} B but caps at {} B {when}",
                    specs[tier].name, specs[tier].capacity
                ),
            });
        };
        for (t, spec) in specs.iter().enumerate().take(n_tiers - 1) {
            if usage[t] > spec.capacity {
                flag_over(
                    t,
                    usage[t],
                    "in the initial placement".to_string(),
                    &mut violations,
                );
            }
        }
        while let Some((s, from)) = replay.step() {
            if from == s.to_tier {
                continue; // no-op move: nothing is copied
            }
            let size = ctx.object_sizes[s.object as usize];
            usage[s.to_tier as usize] += size;
            let while_copying = || {
                format!(
                    "while copying object {} from tier {from} (window {})",
                    s.object, s.window
                )
            };
            let to = s.to_tier as usize;
            let over = s.to_tier != spill && usage[to] > specs[to].capacity;
            if over {
                flag_over(to, usage[to], while_copying(), &mut violations);
            }
            if let Some(h) = &mut holes {
                if !h.copy(s.object as usize, from, s.to_tier, size) {
                    if !over {
                        let alloc = &h.tiers[to];
                        violations.push(Violation {
                            kind: ViolationKind::PlanOverCapacity,
                            task: None,
                            object: Some(s.object),
                            detail: format!(
                                "tier {to} ({}) has {} B free but no {size} B hole \
                                 (largest {} B): fragmented {}",
                                specs[to].name,
                                alloc.free_bytes(),
                                alloc.largest_free_block(),
                                while_copying()
                            ),
                        });
                    }
                    holes = None;
                }
            }
            usage[from as usize] -= size;
        }
    }

    // ---- schedule-universal migration safety -------------------------
    // A move at window w is barrier-ordered after every task of windows
    // < w. Declared accesses of any window are pinned, so the word
    // protocol serializes them against the copy (certified exhaustively
    // by the mcheck pass). Undeclared accesses in windows >= w have
    // neither ordering nor pin: the copy races them under some legal
    // schedule.
    if !ctx.extra.is_empty() {
        let hb = HappensBefore::from_graph(g);
        for s in &plan.steps {
            for e in &ctx.extra {
                if e.object != s.object || (e.task as usize) >= hb.len() {
                    continue;
                }
                if hb.window(tahoe_taskrt::TaskId(e.task)) >= s.window {
                    violations.push(Violation {
                        kind: ViolationKind::PlanMoveRace,
                        task: Some(e.task),
                        object: Some(s.object),
                        detail: format!(
                            "move of object {} at window {} races t{}'s undeclared {} (no pin, no ordering path)",
                            s.object,
                            s.window,
                            e.task,
                            if e.writes { "write" } else { "read" },
                        ),
                    });
                }
            }
        }
    }

    // ---- modelled-cost non-regression --------------------------------
    // Price what executes: each window's accesses under the placement
    // in force in that window, against the same accesses under the
    // initial placement, at the per-access prices the MCK items were
    // built from. A plan that makes the modelled run *slower* is
    // feasible but counterproductive — a mutated or stale plan, or a
    // rotation that evicts an object ahead of its use.
    if n_tiers > 0 {
        let mut replay = plan.replay(n_objects, n_tiers);
        let initial = replay.tiers().to_vec();
        let spill = n_tiers - 1;
        let on = |tiers: &[u8], obj: usize| tiers.get(obj).map_or(spill, |&t| t as usize);
        let (mut before, mut after) = (0.0, 0.0);
        let mut slot = 0;
        // Tasks are stored in window order.
        for t in g.tasks() {
            let in_force = replay.advance_to(t.window);
            for a in &t.accesses {
                let obj = a.object.index();
                before += price(slot, a, on(&initial, obj));
                after += price(slot, a, on(in_force, obj));
                slot += 1;
            }
        }
        if after > before * (1.0 + 1e-9) {
            violations.push(Violation {
                kind: ViolationKind::PlanCostRegression,
                task: None,
                object: None,
                detail: format!(
                    "plan regresses modelled memory time: {after:.1} ns with the plan vs {before:.1} ns without"
                ),
            });
        }
    }

    SanitizeReport::new(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::{AccessProfile, ObjectId};
    use tahoe_taskrt::{AccessMode, TaskAccess};

    fn specs2(dram_cap: u64) -> Vec<TierSpec> {
        vec![
            TierSpec::symmetric("DRAM", 80.0, 30.0, dram_cap),
            TierSpec::symmetric("NVM", 300.0, 5.0, 1 << 40),
        ]
    }

    fn acc(o: u32) -> TaskAccess {
        TaskAccess::new(
            ObjectId(o),
            AccessMode::ReadWrite,
            AccessProfile::streaming(1 << 16, 1 << 10),
        )
    }

    /// Two windows, two objects, every access declared.
    fn two_window_app() -> TaskGraph {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        g.add_task(c, vec![acc(0), acc(1)], 1.0);
        g.mark_window();
        g.add_task(c, vec![acc(0)], 1.0);
        g.add_task(c, vec![acc(1)], 1.0);
        g
    }

    #[test]
    fn solver_shaped_plan_is_clean() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![4096, 4096]);
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![
                PlanStep {
                    object: 0,
                    to_tier: 0,
                    window: 1,
                },
                PlanStep {
                    object: 1,
                    to_tier: 0,
                    window: 1,
                },
            ],
        };
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    }

    #[test]
    fn no_move_plan_is_clean() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![4096, 4096]);
        let r = audit_plan(&g, &MigrationPlan::resident(2, 1), &specs2(1 << 20), &ctx);
        assert!(r.is_clean());
    }

    #[test]
    fn flags_over_capacity_step_and_initial() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![60 << 10, 60 << 10]);
        // DRAM holds 80 KiB; each object is 60 KiB. Moving both in
        // overflows on the second step.
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![
                PlanStep {
                    object: 0,
                    to_tier: 0,
                    window: 1,
                },
                PlanStep {
                    object: 1,
                    to_tier: 0,
                    window: 1,
                },
            ],
        };
        let r = audit_plan(&g, &plan, &specs2(80 << 10), &ctx);
        assert_eq!(r.count(ViolationKind::PlanOverCapacity), 1);
        // An initial placement that already overflows is flagged too.
        let r2 = audit_plan(&g, &MigrationPlan::resident(2, 0), &specs2(80 << 10), &ctx);
        assert_eq!(r2.count(ViolationKind::PlanOverCapacity), 1);
        assert!(r2.violations[0].detail.contains("initial placement"));
    }

    #[test]
    fn transient_double_residency_is_charged() {
        // A swap whose *final* state fits but whose copies transiently
        // overflow: each paid slot fits exactly one object.
        let mut g = TaskGraph::new();
        let c = g.class("x");
        g.add_task(c, vec![acc(0), acc(1)], 1.0);
        g.mark_window();
        g.add_task(c, vec![acc(0), acc(1)], 1.0);
        let specs = vec![
            TierSpec::symmetric("DRAM", 80.0, 30.0, 4096),
            TierSpec::symmetric("CXL", 150.0, 15.0, 8192),
            TierSpec::symmetric("NVM", 300.0, 5.0, 1 << 40),
        ];
        let ctx = PlanContext::new(vec![4096, 4096]);
        let plan = MigrationPlan {
            initial_tiers: vec![0, 1],
            // Move o1 CXL->DRAM while o0 still resides in DRAM: the
            // copy holds both in DRAM at once.
            steps: vec![
                PlanStep {
                    object: 1,
                    to_tier: 0,
                    window: 1,
                },
                PlanStep {
                    object: 0,
                    to_tier: 1,
                    window: 1,
                },
            ],
        };
        let r = audit_plan(&g, &plan, &specs, &ctx);
        assert_eq!(r.count(ViolationKind::PlanOverCapacity), 1);
        assert!(r.violations[0].detail.contains("while copying"));
        // The reverse issue order evicts before promoting: clean.
        let mut rev = plan.clone();
        rev.steps.reverse();
        assert!(audit_plan(&g, &rev, &specs, &ctx).is_clean());
    }

    /// Three objects, and bytes that always fit: two 100 B objects fill
    /// a 300 B tier from the bottom, the first leaves, and a 200 B one
    /// arrives — 200 B free, in two 100 B holes. The runtime's
    /// allocator would refuse the copy; so does the audit, naming
    /// fragmentation. Evicting the second one too makes a hole: clean.
    #[test]
    fn flags_a_copy_whose_bytes_fit_but_whose_hole_does_not() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        g.add_task(c, vec![acc(0), acc(1)], 1.0);
        g.mark_window();
        g.add_task(c, vec![acc(2)], 1.0);
        let ctx = PlanContext::new(vec![100, 100, 200]);
        let step = |object, to_tier| PlanStep {
            object,
            to_tier,
            window: 1,
        };
        let plan = MigrationPlan {
            initial_tiers: vec![0, 0, 1],
            steps: vec![step(0, 1), step(2, 0)],
        };
        let r = audit_plan(&g, &plan, &specs2(300), &ctx);
        assert_eq!(r.count(ViolationKind::PlanOverCapacity), 1, "{r:?}");
        assert_eq!(r.violations.len(), 1);
        let detail = &r.violations[0].detail;
        assert!(detail.contains("no 200 B hole"), "{detail}");
        assert!(detail.contains("fragmented"), "{detail}");
        assert_eq!(r.violations[0].object, Some(2));
        // Both leave first: one 300 B hole.
        let mut roomy = plan.clone();
        roomy.steps.insert(1, step(1, 1));
        let r = audit_plan(&g, &roomy, &specs2(300), &ctx);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn flags_unknown_tier() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![4096, 4096]);
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![PlanStep {
                object: 0,
                to_tier: 7,
                window: 1,
            }],
        };
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(r.count(ViolationKind::PlanUnknownTier), 1);
        assert_eq!(r.violations[0].object, Some(0));
    }

    #[test]
    fn flags_dead_object_moves() {
        let g = two_window_app();
        // Never-allocated object.
        let ctx = PlanContext::new(vec![4096, 4096]);
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![PlanStep {
                object: 9,
                to_tier: 0,
                window: 1,
            }],
        };
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(r.count(ViolationKind::PlanDeadObject), 1);
        // Freed-before-window object.
        let ctx2 = PlanContext::new(vec![4096, 4096]).free_before_window(0, 1);
        let plan2 = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![PlanStep {
                object: 0,
                to_tier: 0,
                window: 1,
            }],
        };
        let r2 = audit_plan(&g, &plan2, &specs2(1 << 20), &ctx2);
        assert_eq!(r2.count(ViolationKind::PlanDeadObject), 1);
        // A move strictly before the free is legal.
        let plan3 = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![PlanStep {
                object: 0,
                to_tier: 0,
                window: 0,
            }],
        };
        let r3 = audit_plan(&g, &plan3, &specs2(1 << 20), &ctx2);
        assert_eq!(r3.count(ViolationKind::PlanDeadObject), 0);
    }

    #[test]
    fn flags_double_move_in_one_window() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![4096, 4096]);
        let step = |to: u8, w: u32| PlanStep {
            object: 0,
            to_tier: to,
            window: w,
        };
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![step(0, 1), step(1, 1)],
        };
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(r.count(ViolationKind::PlanDoubleMove), 1);
        // Same object, different windows: legal replanning.
        let plan2 = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![step(0, 0), step(1, 1)],
        };
        let r2 = audit_plan(&g, &plan2, &specs2(1 << 20), &ctx);
        assert_eq!(r2.count(ViolationKind::PlanDoubleMove), 0);
    }

    #[test]
    fn flags_move_racing_undeclared_access() {
        let g = two_window_app();
        // t1 (window 1) also touches object 1 without declaring it.
        let ctx = PlanContext::new(vec![4096, 4096]).with_extra(vec![ExtraAccess {
            task: 1,
            object: 1,
            writes: false,
        }]);
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![PlanStep {
                object: 1,
                to_tier: 0,
                window: 1,
            }],
        };
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(r.count(ViolationKind::PlanMoveRace), 1);
        assert_eq!(r.violations[0].task, Some(1));
        // The same undeclared access in window 0 is barrier-ordered
        // before a window-1 move: clean.
        let ctx2 = PlanContext::new(vec![4096, 4096]).with_extra(vec![ExtraAccess {
            task: 0,
            object: 1,
            writes: true,
        }]);
        let r2 = audit_plan(&g, &plan, &specs2(1 << 20), &ctx2);
        assert_eq!(r2.count(ViolationKind::PlanMoveRace), 0);
        // Declared accesses never race: t1/t2 read objects 0 and 1 in
        // window 1 while the plan moves both there, and the pin
        // protocol covers them (the clean-plan test above).
    }

    #[test]
    fn flags_cost_regression() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![4096, 4096]);
        // Demote a hot object from DRAM to NVM: feasible, but slower.
        let plan = MigrationPlan {
            initial_tiers: vec![0, 0],
            steps: vec![PlanStep {
                object: 0,
                to_tier: 1,
                window: 1,
            }],
        };
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(r.count(ViolationKind::PlanCostRegression), 1);
        assert!(r.violations[0].detail.contains("regresses"));

        // The same verdict from the model's prices as a table; none from
        // a table in which NVM is as fast as DRAM.
        let specs = specs2(1 << 20);
        let accesses = g.tasks().iter().flat_map(|t| &t.accesses);
        let model: Vec<f64> = accesses
            .flat_map(|a| specs.iter().map(|s| a.profile.mem_time_ns(s)))
            .collect();
        assert_eq!(audit_plan_priced(&g, &plan, &specs, &ctx, &model), r);
        let flat: Vec<f64> = model.chunks(2).flat_map(|p| [p[0], p[0]]).collect();
        assert!(audit_plan_priced(&g, &plan, &specs, &ctx, &flat).is_clean());
    }

    /// The final placement equals the initial one, so pricing the final
    /// placement over the whole run certified this plan; pricing each
    /// window under the placement in force does not.
    #[test]
    fn flags_an_eviction_at_the_barrier_before_the_only_use() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        g.add_task(c, vec![acc(1)], 1.0);
        g.mark_window();
        g.add_task(c, vec![acc(0)], 1.0); // object 0's only use
        g.mark_window();
        g.add_task(c, vec![acc(1)], 1.0);
        let ctx = PlanContext::new(vec![4096, 4096]);
        let step = |to_tier, window| PlanStep {
            object: 0,
            to_tier,
            window,
        };
        let plan = MigrationPlan {
            initial_tiers: vec![0, 1],
            steps: vec![step(1, 1), step(0, 2)],
        };
        assert_eq!(plan.final_tiers(2), plan.initial_tiers);
        let r = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(r.count(ViolationKind::PlanCostRegression), 1);
        // Evicted while idle and back before the use: nothing regresses.
        let idle = MigrationPlan {
            initial_tiers: vec![0, 1],
            steps: vec![step(1, 0), step(0, 1)],
        };
        assert!(audit_plan(&g, &idle, &specs2(1 << 20), &ctx).is_clean());
    }

    #[test]
    fn replay_orders_by_window_whatever_the_vector_order() {
        let step = |object, to_tier, window| PlanStep {
            object,
            to_tier,
            window,
        };
        // Written out of window order, with one step on an object that
        // does not exist.
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![step(0, 1, 2), step(9, 0, 0), step(0, 0, 0), step(1, 0, 1)],
        };
        let mut replay = plan.replay(2, 2);
        assert_eq!(replay.tiers(), [1, 1]);
        assert_eq!(replay.advance_to(0), [0, 1]);
        assert_eq!(replay.advance_to(1), [0, 0]);
        assert_eq!(replay.step(), Some((&plan.steps[0], 0)));
        assert_eq!(replay.step(), None);
        assert_eq!(plan.final_tiers(2), [1, 0]);
        assert_eq!(plan.planned_onto(0), [true, true]);
        assert_eq!(plan.planned_onto(1), [true, true]);
        assert_eq!(MigrationPlan::resident(2, 1).planned_onto(0), [false; 2]);
    }

    #[test]
    fn report_is_deterministic() {
        let g = two_window_app();
        let ctx = PlanContext::new(vec![4096, 4096]);
        let plan = MigrationPlan {
            initial_tiers: vec![1, 1],
            steps: vec![
                PlanStep {
                    object: 9,
                    to_tier: 7,
                    window: 1,
                },
                PlanStep {
                    object: 0,
                    to_tier: 0,
                    window: 1,
                },
            ],
        };
        let a = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        let b = audit_plan(&g, &plan, &specs2(1 << 20), &ctx);
        assert_eq!(a, b);
        assert_eq!(a.count(ViolationKind::PlanUnknownTier), 1);
        assert_eq!(a.count(ViolationKind::PlanDeadObject), 1);
    }
}
