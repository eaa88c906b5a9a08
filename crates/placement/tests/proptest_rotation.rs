//! Property tests for the per-window planner ([`tahoe_placement::rotation`]).
//!
//! For random sizes, values and touch patterns, a rotating schedule —
//! lowered the way the runtime lowers it: the initial set at window 0,
//! then each window's evictions followed by its promotions — must
//!
//! * pass the static plan auditor (capacity at every prefix with the
//!   copy's double residency, no double move, no cost regression);
//! * move, after window 0, only objects the window does not touch;
//! * evict only to make room for a promotion of the same window;
//! * keep every window's copy time inside that window's budget;
//! * be worth what the planner says it is worth, and more than the
//!   global plan by the stated margin.
//!
//! And the global plan must stand where a rotation cannot pay: every
//! window alike, or no core for the copies to overlap on.

use proptest::prelude::*;

use tahoe_hms::{AccessProfile, ObjectId, TierSpec};
use tahoe_placement::rotation::MIN_GAIN;
use tahoe_placement::{
    plan_rotation, solve_mck, CopyRate, MckItem, Rotation, RotationInput, Schedule,
};
use tahoe_sanitize::plan::{audit_plan, MigrationPlan, PlanContext, PlanStep};
use tahoe_taskrt::{AccessMode, TaskAccess, TaskGraph};

/// A random planning problem, owned.
#[derive(Debug, Clone)]
struct Problem {
    sizes: Vec<u64>,
    touches: Vec<Vec<(u32, f64)>>,
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
                values: vec![self.touches[i].iter().map(|t| t.1).sum(), 0.0],
            })
            .collect();
        let solved = solve_mck(&items, &[self.capacity, u64::MAX]).expect("solves");
        solved.tiers.iter().map(|&t| t == 0).collect()
    }

    fn plan(&self, global: &[bool], overlap: bool) -> Rotation {
        plan_rotation(&RotationInput {
            sizes: &self.sizes,
            touches: &self.touches,
            spill_window_ns: &self.spill_window_ns,
            capacity: self.capacity,
            global,
            promote: self.promote,
            evict: self.evict,
            workers: self.workers,
            overlap,
        })
    }

    fn touched(&self, object: u32, window: usize) -> bool {
        self.touches[object as usize]
            .iter()
            .any(|t| t.0 as usize == window)
    }

    /// Ns saved in `window` by the objects `resident` there.
    fn saved(&self, window: usize, resident: &[bool]) -> f64 {
        let hit = |(i, t): (usize, &Vec<(u32, f64)>)| {
            let here = t.iter().find(|t| t.0 as usize == window && resident[i]);
            here.map_or(0.0, |t| t.1)
        };
        self.touches.iter().enumerate().map(hit).sum()
    }
}

/// Up to 24 objects over 3–8 windows. Values and copy times are of one
/// magnitude, so budgets bind in some cases and not in others (about
/// three cases in ten rotate, moving 2–25 objects).
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
                let row: Vec<(u32, f64)> = (0u32..)
                    .zip(&cells[..windows])
                    .filter(|(_, (kind, _))| *kind >= 2)
                    .map(|(w, &(kind, v))| (w, if kind == 3 { v * size as f64 } else { 0.0 }))
                    .collect();
                for &(w, v) in &row {
                    spill_window_ns[w as usize] += 1.5 * v + 10.0;
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

/// Every property of a rotating schedule, checked by replaying it.
fn check_schedule(p: &Problem, global: &[bool], r: &Rotation) -> Result<(), TestCaseError> {
    let Some(s) = &r.schedule else {
        prop_assert_eq!(r.values.chosen_ns, r.values.global_ns);
        return Ok(());
    };
    let n_windows = p.spill_window_ns.len();
    prop_assert_eq!(s.windows.len(), n_windows);
    prop_assert_eq!(&s.windows[0], &Default::default());
    prop_assert_eq!(&s.windows[n_windows - 1], &Default::default());

    let specs = [
        TierSpec::symmetric("DRAM", 80.0, 30.0, p.capacity),
        TierSpec::symmetric("NVM", 300.0, 5.0, u64::MAX),
    ];
    let audit = audit_plan(
        &graph(p),
        &lower(p, s),
        &specs,
        &PlanContext::new(p.sizes.clone()),
    );
    prop_assert!(audit.is_clean(), "{:?}", audit.violations);

    let mut resident = vec![false; p.sizes.len()];
    for &o in &s.initial {
        resident[o as usize] = true;
    }
    let weight = |u: usize| if u == 0 { 0.5 } else { 1.0 };
    let mut value = 0.0;
    let mut global_value = 0.0;
    for (u, moves) in s.windows.iter().enumerate() {
        let saved = p.saved(u, &resident);
        value += weight(u) * saved;
        global_value += weight(u) * p.saved(u, global);
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
        for &o in &moves.promote {
            prop_assert!(!p.touched(o, u), "window {u} fetches {o}, which it touches");
            prop_assert!(!resident[o as usize]);
            resident[o as usize] = true;
            copy_ns += p.promote.ns(p.sizes[o as usize]);
        }
        let budget = (p.spill_window_ns[u] - saved) / p.workers as f64;
        prop_assert!(
            copy_ns <= budget * (1.0 + 1e-12),
            "window {u}: {copy_ns} ns of copies in a {budget} ns window"
        );
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    prop_assert!(
        close(value, r.values.chosen_ns),
        "{value} vs {:?}",
        r.values
    );
    prop_assert!(close(global_value, r.values.global_ns));
    prop_assert!(r.values.chosen_ns > r.values.global_ns * (1.0 + MIN_GAIN));
    prop_assert!(r.values.chosen_ns <= r.values.oracle_ns * (1.0 + 1e-9));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_rotating_schedule_is_safe_hidden_and_worth_it(p in problems()) {
        let global = p.global();
        let r = p.plan(&global, true);
        prop_assert!(r.values.global_ns <= r.values.oracle_ns * (1.0 + 1e-9));
        check_schedule(&p, &global, &r)?;
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
            let v = row.first().map_or(1.0, |t| t.1);
            *row = (0..windows).map(|w| (w, v)).collect();
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
/// fetched, and 4 hot `b`/`c` on what is left.
#[test]
fn stream_shaped_run_rotates_six_blocks_a_window() {
    const BLOCK: u64 = 1 << 20;
    const WINDOWS: u32 = 10;
    let (update, read) = (854e3, 164e3);
    let mut touches = Vec::new();
    let mut spill_window_ns = vec![0.0; WINDOWS as usize];
    for t in 0..32u32 {
        let hot = t % 4 == 0;
        let runs = |w: &u32| hot || (t / 4) % 4 == w % 4;
        for saved in [update, read, read] {
            touches.push((0..WINDOWS).filter(runs).map(|w| (w, saved)).collect());
        }
        for w in (0..WINDOWS).filter(runs) {
            spill_window_ns[w as usize] += 1613e3;
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
    check_schedule(&p, &global, &r).expect("the schedule holds every property");
    let s = r.schedule.expect("following the cold triads pays");
    assert_eq!(s.initial.len(), 24);
    for (u, moves) in s.windows.iter().enumerate() {
        let expect = if (1..9).contains(&u) { 6 } else { 0 };
        assert_eq!((moves.evict.len(), moves.promote.len()), (expect, expect));
        // Only cold `a` blocks rotate.
        let rotated = moves.evict.iter().chain(&moves.promote);
        assert!(rotated.clone().all(|o| o % 3 == 0 && (o / 3) % 4 != 0));
    }
    let all: f64 = p.touches.iter().flatten().map(|t| t.1).sum();
    let share = |ns: f64| (ns / all * 1e3).round() / 1e3;
    assert_eq!(share(r.values.global_ns), 0.604);
    assert_eq!(share(r.values.chosen_ns), 0.724);
    assert_eq!(share(r.values.oracle_ns), 0.822);
    // Two workers halve what a window can hide: three fetches fit, not six.
    let two = Problem { workers: 2, ..p }.plan(&global, true);
    let s = two.schedule.expect("still pays");
    assert_eq!(
        (s.windows[1].evict.len(), s.windows[1].promote.len()),
        (3, 3)
    );
}
