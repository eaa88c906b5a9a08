//! Property tests for the per-window planner ([`tahoe_placement::rotation`]).
//!
//! For random sizes, values and touch patterns, each of the two
//! schedules — early and late fetch lead — lowered the way the runtime
//! lowers it (the initial set at window 0, then each window's evictions
//! followed by its promotions) must
//!
//! * pass the static plan auditor (capacity at every prefix with the
//!   copy's double residency, a hole for every copy, no double move, no
//!   cost regression);
//! * replay through the fast tier's real allocator with no failed
//!   allocation;
//! * evict only objects the window does not touch, and only to make
//!   room for a promotion of the same window;
//! * fetch, after window 0, an object the window does not touch (early)
//!   or one whose touch run the window opens (late);
//! * keep every window's copy time inside the time that hides it, over
//!   the workers: the window's modelled duration under the placement in
//!   force (early), or the slow-tier delay of the tasks a late fetch
//!   does not hold back (late);
//! * be worth what the planner says it is worth.
//!
//! The planner must pick the form worth more and replace the global
//! plan only by the stated margin; the global plan must stand where a
//! rotation cannot pay: every window alike, or no core for the copies
//! to overlap on.

use proptest::prelude::*;

use tahoe_hms::alloc::TierAllocator;
use tahoe_hms::{AccessProfile, ObjectId, TierSpec};
use tahoe_placement::rotation::MIN_GAIN;
use tahoe_placement::{
    follow, plan_rotation, solve_mck, CopyRate, Lead, MckItem, Rotation, RotationInput, Schedule,
    Touch,
};
use tahoe_sanitize::plan::{audit_plan, MigrationPlan, PlanContext, PlanStep};
use tahoe_taskrt::{AccessMode, TaskAccess, TaskGraph};

/// A random planning problem, owned.
#[derive(Debug, Clone)]
struct Problem {
    sizes: Vec<u64>,
    touches: Vec<Vec<Touch>>,
    spill_window_ns: Vec<f64>,
    capacity: u64,
    promote: CopyRate,
    evict: CopyRate,
    workers: usize,
}

impl Problem {
    /// The global plan: the binary knapsack over whole-run values.
    fn global(&self) -> Vec<bool> {
        let items: Vec<MckItem> = (0..self.sizes.len())
            .map(|i| MckItem {
                id: ObjectId(i as u32),
                size: self.sizes[i],
                values: vec![self.touches[i].iter().map(|t| t.saved_ns).sum(), 0.0],
            })
            .collect();
        let solved = solve_mck(&items, &[self.capacity, u64::MAX]).expect("solves");
        solved.tiers.iter().map(|&t| t == 0).collect()
    }

    fn input<'a>(&'a self, global: &'a [bool], overlap: bool) -> RotationInput<'a> {
        RotationInput {
            sizes: &self.sizes,
            touches: &self.touches,
            spill_window_ns: &self.spill_window_ns,
            capacity: self.capacity,
            global,
            promote: self.promote,
            evict: self.evict,
            workers: self.workers,
            overlap,
        }
    }

    fn plan(&self, global: &[bool], overlap: bool) -> Rotation {
        plan_rotation(&self.input(global, overlap))
    }

    fn touch(&self, object: u32, window: usize) -> Option<&Touch> {
        let row = &self.touches[object as usize];
        row.iter().find(|t| t.window as usize == window)
    }

    fn touched(&self, object: u32, window: usize) -> bool {
        self.touch(object, window).is_some()
    }

    /// Ns saved in `window` by the objects `resident` there.
    fn saved(&self, window: usize, resident: &[bool]) -> f64 {
        (0..self.sizes.len() as u32)
            .filter(|&i| resident[i as usize])
            .filter_map(|i| self.touch(i, window))
            .map(|t| t.saved_ns)
            .sum()
    }
}

/// Up to 24 objects over 3–8 windows. Values and copy times are of one
/// magnitude, so budgets bind in some cases and not in others, and the
/// sizes vary enough for the allocator's holes to matter.
fn problems() -> impl Strategy<Value = Problem> {
    (
        proptest::collection::vec(
            (
                1u64..65,
                proptest::collection::vec((0u32..4, 0.0f64..100.0), 8..9),
            ),
            1..25,
        ),
        3usize..9,
        1u64..400,
        (0.2f64..8.0, 0.2f64..8.0, 0.0f64..4.0),
        1usize..4,
    )
        .prop_map(|(objects, windows, capacity, (up, down, lat), workers)| {
            let mut spill_window_ns = vec![0.0; windows];
            let (mut sizes, mut touches) = (Vec::new(), Vec::new());
            for (size, cells) in objects {
                sizes.push(size);
                // A cell touches its window one time in two; one in four
                // of those saves nothing (touched, but no faster in DRAM).
                // Each touch is one task on the object alone, so what
                // deferring it holds back is its own delay.
                let row: Vec<Touch> = (0u32..)
                    .zip(&cells[..windows])
                    .filter(|(_, (kind, _))| *kind >= 2)
                    .map(|(window, &(kind, v))| {
                        let saved_ns = if kind == 3 { v * size as f64 } else { 0.0 };
                        Touch {
                            window,
                            saved_ns,
                            held_ns: saved_ns,
                        }
                    })
                    .collect();
                for t in &row {
                    spill_window_ns[t.window as usize] += 1.5 * t.saved_ns + 10.0;
                }
                touches.push(row);
            }
            Problem {
                sizes,
                touches,
                spill_window_ns,
                capacity,
                promote: CopyRate {
                    gbps: up,
                    latency_ns: lat,
                },
                evict: CopyRate {
                    gbps: down,
                    latency_ns: lat,
                },
                workers,
            }
        })
}

/// Lower a schedule the way `tahoe_core::measured::rotation_plan` does.
fn lower(p: &Problem, s: &Schedule) -> MigrationPlan {
    let step = |object, to_tier, window| PlanStep {
        object,
        to_tier,
        window,
    };
    let mut steps: Vec<PlanStep> = s.initial.iter().map(|&o| step(o, 0, 0)).collect();
    for (u, moves) in s.windows.iter().enumerate() {
        steps.extend(moves.evict.iter().map(|&o| step(o, 1, u as u32)));
        steps.extend(moves.promote.iter().map(|&o| step(o, 0, u as u32)));
    }
    MigrationPlan {
        initial_tiers: vec![1; p.sizes.len()],
        steps,
    }
}

/// One task per (object, window) touch; the profile does not matter to
/// the checks made here beyond DRAM being the faster tier.
fn graph(p: &Problem) -> TaskGraph {
    let mut g = TaskGraph::new();
    let c = g.class("touch");
    for w in 0..p.spill_window_ns.len() {
        if w > 0 {
            g.mark_window();
        }
        for o in (0..p.sizes.len() as u32).filter(|&o| p.touched(o, w)) {
            let profile = AccessProfile::streaming(1 << 10, 1 << 8);
            let access = TaskAccess::new(ObjectId(o), AccessMode::ReadWrite, profile);
            g.add_task(c, vec![access], 1.0);
        }
    }
    g
}

/// Every property of one form's schedule, checked by replaying it;
/// `value` is what the planner says it is worth.
fn check_schedule(p: &Problem, s: &Schedule, value: f64) -> Result<(), TestCaseError> {
    let n_windows = p.spill_window_ns.len();
    prop_assert_eq!(s.windows.len(), n_windows);
    prop_assert_eq!(&s.windows[0], &Default::default());
    if s.lead == Lead::Early {
        prop_assert_eq!(&s.windows[n_windows - 1], &Default::default());
    }

    let specs = [
        TierSpec::symmetric("DRAM", 80.0, 30.0, p.capacity),
        TierSpec::symmetric("NVM", 300.0, 5.0, u64::MAX),
    ];
    let plan = lower(p, s);
    let audit = audit_plan(&graph(p), &plan, &specs, &PlanContext::new(p.sizes.clone()));
    prop_assert!(audit.is_clean(), "{:?}", audit.violations);

    // The copy engine's view: every promotion finds a hole.
    let mut dram = TierAllocator::new(p.capacity);
    let mut addr = vec![None; p.sizes.len()];
    for step in &plan.steps {
        let o = step.object as usize;
        if step.to_tier == 0 {
            let at = dram.alloc(p.sizes[o]);
            prop_assert!(at.is_some(), "no hole for {:?}", step);
            addr[o] = at;
        } else {
            let at = addr[o].take().expect("evicts a resident");
            prop_assert_eq!(dram.free(at), Some(p.sizes[o]));
        }
    }

    let mut resident = vec![false; p.sizes.len()];
    for &o in &s.initial {
        resident[o as usize] = true;
    }
    let weight = |u: usize| if u == 0 { 0.5 } else { 1.0 };
    let mut replayed = 0.0;
    for (u, moves) in s.windows.iter().enumerate() {
        // What hides the window's copies: its modelled duration under the
        // placement in force (early), the slow-tier delay of its other
        // tasks (late).
        let hiding = match s.lead {
            Lead::Early => p.spill_window_ns[u] - p.saved(u, &resident),
            Lead::Late => p.saved(u, &vec![true; p.sizes.len()]) - p.saved(u, &resident),
        };
        prop_assert!(
            moves.evict.is_empty() || !moves.promote.is_empty(),
            "window {u} evicts {:?} for nothing",
            moves.evict
        );
        let mut copy_ns = 0.0;
        for &o in &moves.evict {
            prop_assert!(!p.touched(o, u), "window {u} evicts {o}, which it touches");
            prop_assert!(resident[o as usize]);
            resident[o as usize] = false;
            copy_ns += p.evict.ns(p.sizes[o as usize]);
        }
        let mut held_back = 0.0;
        for &o in &moves.promote {
            match s.lead {
                Lead::Early => {
                    prop_assert!(
                        !p.touched(o, u),
                        "window {u} fetches {o} early, but uses it"
                    )
                }
                Lead::Late => {
                    let t = p.touch(o, u);
                    prop_assert!(t.is_some(), "window {u} fetches {o} late, but idle");
                    prop_assert!(!p.touched(o, u - 1), "{o}'s touch run opens before {u}");
                    held_back += t.unwrap().held_ns;
                }
            }
            prop_assert!(!resident[o as usize]);
            resident[o as usize] = true;
            copy_ns += p.promote.ns(p.sizes[o as usize]);
        }
        let budget = (hiding - held_back) / p.workers as f64;
        prop_assert!(
            copy_ns <= budget.max(0.0) * (1.0 + 1e-12),
            "window {u}: {copy_ns} ns of copies in {budget} ns of hiding time"
        );
        replayed += weight(u) * p.saved(u, &resident);
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    prop_assert!(close(replayed, value), "{replayed} vs {value}");
    Ok(())
}

/// The planner's verdict against both forms and the global plan.
fn check_verdict(p: &Problem, global: &[bool], r: &Rotation) -> Result<(), TestCaseError> {
    let input = p.input(global, true);
    let (early, late) = (follow(&input, Lead::Early), follow(&input, Lead::Late));
    check_schedule(p, &early.1, early.0)?;
    check_schedule(p, &late.1, late.0)?;
    prop_assert_eq!((early.1.lead, late.1.lead), (Lead::Early, Lead::Late));

    let weight = |u: usize| if u == 0 { 0.5 } else { 1.0 };
    let global_value: f64 = (0..p.spill_window_ns.len())
        .map(|u| weight(u) * p.saved(u, global))
        .sum();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    prop_assert!(close(global_value, r.values.global_ns));
    prop_assert!(r.values.global_ns <= r.values.oracle_ns * (1.0 + 1e-9));
    let best = if late.0 > early.0 { late } else { early };
    match &r.schedule {
        Some(s) => {
            prop_assert_eq!(s, &best.1, "the form worth more runs");
            prop_assert_eq!(r.values.chosen_ns, best.0);
            prop_assert!(r.values.chosen_ns > r.values.global_ns * (1.0 + MIN_GAIN));
            prop_assert!(r.values.chosen_ns <= r.values.oracle_ns * (1.0 + 1e-9));
        }
        None => {
            prop_assert_eq!(r.values.chosen_ns, r.values.global_ns);
            prop_assert!(best.0 <= r.values.global_ns * (1.0 + MIN_GAIN));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both forms are safe, hidden and on the allocator; the better one
    /// runs, by the margin.
    #[test]
    fn a_rotating_schedule_is_safe_hidden_and_worth_it(p in problems()) {
        let global = p.global();
        let r = p.plan(&global, true);
        check_verdict(&p, &global, &r)?;
    }

    #[test]
    fn without_overlap_the_global_plan_stands(p in problems()) {
        let global = p.global();
        let r = p.plan(&global, false);
        prop_assert!(r.schedule.is_none());
        prop_assert_eq!(r.values.chosen_ns, r.values.global_ns);
    }

    /// Every object touched in every window, each window like the last:
    /// there is nothing to follow.
    #[test]
    fn identical_windows_keep_the_global_plan(p in problems()) {
        let windows = p.spill_window_ns.len() as u32;
        let mut p = p;
        for row in &mut p.touches {
            let t = row.first().copied().unwrap_or(Touch {
                window: 0,
                saved_ns: 1.0,
                held_ns: 1.0,
            });
            *row = (0..windows).map(|window| Touch { window, ..t }).collect();
        }
        let global = p.global();
        prop_assert!(p.plan(&global, true).schedule.is_none());
    }
}

/// `stream_bw`'s shape: 32 triads over 96 equal blocks, DRAM holds 24,
/// ten windows. A triad updates `a` (worth 854 µs a touch) and reads
/// `b`, `c` (164 µs each); every fourth triad runs every window, the
/// rest every fourth. The steady state the paper's look-ahead buys:
/// the 8 hot `a`, this window's 6 cold `a`, the next window's 6 being
/// fetched, and 4 hot `b`/`c` on what is left. Fetching in the window
/// of use would hold a whole triad back per fetch; the early lead wins.
#[test]
fn stream_shaped_run_rotates_six_blocks_a_window() {
    const BLOCK: u64 = 1 << 20;
    const WINDOWS: u32 = 10;
    const TRIAD_NS: f64 = 1613e3;
    let (update, read) = (854e3, 164e3);
    let mut touches = Vec::new();
    let mut spill_window_ns = vec![0.0; WINDOWS as usize];
    for t in 0..32u32 {
        let hot = t % 4 == 0;
        let runs = |w: &u32| hot || (t / 4) % 4 == w % 4;
        for saved_ns in [update, read, read] {
            let row = (0..WINDOWS).filter(runs).map(|window| Touch {
                window,
                saved_ns,
                held_ns: update + 2.0 * read,
            });
            touches.push(row.collect());
        }
        for w in (0..WINDOWS).filter(runs) {
            spill_window_ns[w as usize] += TRIAD_NS;
        }
    }
    let p = Problem {
        sizes: vec![BLOCK; 96],
        touches,
        spill_window_ns,
        capacity: 24 * BLOCK,
        promote: CopyRate {
            gbps: 3.12,
            latency_ns: 250.0,
        },
        evict: CopyRate {
            gbps: 1.04,
            latency_ns: 150.0,
        },
        workers: 1,
    };
    let global = p.global();
    // 8 hot `a` and the 16 most-touched cold `a`.
    assert!((0..96).all(|i| !global[i] || i % 3 == 0));
    let r = p.plan(&global, true);
    check_verdict(&p, &global, &r).expect("the schedule holds every property");
    let s = r.schedule.expect("following the cold triads pays");
    assert_eq!(s.lead, Lead::Early);
    assert_eq!(s.initial.len(), 24);
    for (u, moves) in s.windows.iter().enumerate() {
        let expect = if (1..9).contains(&u) { 6 } else { 0 };
        assert_eq!((moves.evict.len(), moves.promote.len()), (expect, expect));
        // Only cold `a` blocks rotate.
        let rotated = moves.evict.iter().chain(&moves.promote);
        assert!(rotated.clone().all(|o| o % 3 == 0 && (o / 3) % 4 != 0));
    }
    let all: f64 = p.touches.iter().flatten().map(|t| t.saved_ns).sum();
    let share = |ns: f64| (ns / all * 1e3).round() / 1e3;
    assert_eq!(share(r.values.global_ns), 0.604);
    assert_eq!(share(r.values.chosen_ns), 0.724);
    assert_eq!(share(r.values.oracle_ns), 0.822);
    let late = follow(&p.input(&global, true), Lead::Late);
    assert!(late.0 < r.values.chosen_ns, "late {}", share(late.0));
    // Two workers halve what a window can hide: three fetches fit, not six.
    let two = Problem { workers: 2, ..p }.plan(&global, true);
    let s = two.schedule.expect("still pays");
    assert_eq!(
        (s.windows[1].evict.len(), s.windows[1].promote.len()),
        (3, 3)
    );
}

/// Three 100 B blocks sit side by side in a 400 B fast tier, and their
/// intervals end together. A 200 B block is fetched: evicting the middle
/// one frees its bytes, but no hole of them — the byte count asks for
/// one eviction, the allocator for two.
#[test]
fn a_fetch_evicts_until_the_allocator_finds_it_a_hole() {
    let touch = |window, saved_ns| Touch {
        window,
        saved_ns,
        held_ns: saved_ns,
    };
    // Blocks 0–2 are worth keeping in windows 0–1 only; block 0 is
    // touched again (for nothing) in window 3 and block 2 in window 4,
    // so block 1 goes first and block 2 next. Block 3 is used in
    // window 3 and fetched, early, at window 2.
    let p = Problem {
        sizes: vec![100, 100, 100, 200],
        touches: vec![
            vec![touch(0, 400.0), touch(1, 400.0), touch(3, 0.0)],
            vec![touch(0, 400.0), touch(1, 400.0)],
            vec![touch(0, 400.0), touch(1, 400.0), touch(4, 0.0)],
            vec![touch(3, 4000.0)],
        ],
        spill_window_ns: vec![1e6; 5],
        capacity: 400,
        promote: CopyRate {
            gbps: 1.0,
            latency_ns: 0.0,
        },
        evict: CopyRate {
            gbps: 1.0,
            latency_ns: 0.0,
        },
        workers: 1,
    };
    let global = vec![true, true, true, false];
    let (value, s) = follow(&p.input(&global, true), Lead::Early);
    check_schedule(&p, &s, value).expect("holds every property");
    assert_eq!(s.initial, [0, 1, 2]);
    assert_eq!(s.windows[2].promote, [3]);
    assert_eq!(s.windows[2].evict, [1, 2]);
}
