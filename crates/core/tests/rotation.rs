//! A rotating plan, executed: evictions and promotions go out at every
//! window's barrier while the workers run — one window ahead of use
//! (`stream_bw` in small) or in the window of use, its tasks on the
//! fetched objects deferred (`mixed_skew` in small) — and the answer,
//! the placement and the stall accounting come out as if they had not.
//! Judged from outside, through the report and the sanitizer.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use tahoe_core::app::{App, AppBuilder};
use tahoe_core::config::Platform;
use tahoe_core::engine::SanitizeHook;
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::policy::PolicyKind;
use tahoe_core::ParallelPolicyReport;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_sanitize::AccessSanitizer;

const BLOCK: u64 = 16 << 10;
const TRIADS: usize = 16;
const WINDOWS: u32 = 8;
/// DRAM holds a quarter of the 48 blocks.
const DRAM_BLOCKS: usize = TRIADS * 3 / 4;

/// `stream_bw` in small: every fourth triad is hot (runs every window),
/// a cold triad runs every fourth window, phases staggered so every
/// window runs three of them. A triad streams four times through `a`
/// (update) and once through `b` and `c` (read): following the cold
/// `a` blocks is worth a fifth more than any static placement, and a
/// window is long enough to hide its three rotations at four workers.
fn rotating_app() -> App {
    let mut b = AppBuilder::new("rotation-test");
    let blocks: Vec<_> = (0..TRIADS)
        .map(|t| ["a", "b", "c"].map(|n| b.object(&format!("{n}{t}"), BLOCK)))
        .collect();
    let class = b.class("triad");
    let lines = BLOCK / 64;
    for w in 0..WINDOWS {
        if w > 0 {
            b.next_window();
        }
        for (t, [a, bb, c]) in blocks.iter().enumerate() {
            if t % 4 == 0 || (t / 4) as u32 % 4 == w % 4 {
                b.task(class)
                    .read_streaming(*bb, lines)
                    .read_streaming(*c, lines)
                    .update_streaming(*a, 4 * lines)
                    .submit();
            }
        }
    }
    b.build()
}

fn setup() -> (App, MeasuredRuntime, WallClockCalibration) {
    let app = rotating_app();
    let cal = WallClockCalibration::synthetic(DRAM_BLOCKS as u64 * BLOCK, 4 * app.footprint());
    let rt = MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke());
    (app, rt, cal)
}

/// One Tahoe run with a core granted to the migration thread, whatever
/// this machine has: the plan rotates at every worker count. A run that
/// does not come back within a minute fails instead of hanging.
fn run_hooked<S: SanitizeHook + Sync>(workers: usize, seed: u64, hook: &S) -> ParallelPolicyReport {
    let (app, rt, cal) = setup();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let policy = PolicyKind::tahoe();
            let _ = tx.send(rt.run_policy_hooked(&app, &policy, &cal, workers, seed, true, hook));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a rotating run must not hang")
            .expect("tahoe run");
        assert_eq!(report.checksum, reference_checksum_seeded(&app, seed));
        report
    })
}

/// What the planner promised is what ran.
fn assert_rotated(r: &ParallelPolicyReport, what: &str) {
    let worth = r.plan_value.expect("two tiers: the plan is priced");
    assert!(
        worth.chosen_ns > 1.03 * worth.global_ns && worth.chosen_ns <= worth.oracle_ns,
        "{what}: {worth:?}"
    );
    assert_eq!(r.plan_steps_skipped, 0, "{what}: executed == audited");
    assert_eq!(r.migrations_skipped, 0, "{what}: no step was moot");
    assert!(r.migration.evictions > 0, "{what}: nothing rotated");
    assert_eq!(
        r.migration.promotions,
        r.migration.evictions + DRAM_BLOCKS as u64,
        "{what}: every eviction made room for one fetch"
    );
    // DRAM ends full: an eviction only ever makes room.
    assert_eq!(
        r.final_tier_objects,
        [DRAM_BLOCKS, 3 * TRIADS - DRAM_BLOCKS],
        "{what}"
    );
    // Only idle objects move, so a worker waits only for a copy that
    // ran late; far from the whole run even on a crowded machine.
    assert!(
        r.gate_wait_ns <= 0.25 * r.wall_ns * r.workers as f64,
        "{what}: waited {} ns of {} ns",
        r.gate_wait_ns,
        r.wall_ns
    );
}

#[test]
fn a_rotating_plan_executes_as_audited_at_any_worker_count() {
    for workers in [1usize, 2, 4] {
        for seed in [1u64, 2, 3] {
            let r = run_hooked(workers, seed, &tahoe_core::engine::NoSanitize);
            assert_rotated(&r, &format!("{workers} workers, seed {seed}"));
        }
    }
}

/// No copy starts on a pinned object and no access meets one mid-move,
/// with two workers racing the migration thread through every barrier.
#[test]
fn a_rotating_run_is_clean_under_the_access_sanitizer() {
    let hook = Arc::new(AccessSanitizer::from_graph(&rotating_app().graph));
    let r = run_hooked(2, 5, &hook);
    assert_rotated(&r, "sanitized");
    let hook = Arc::try_unwrap(hook).expect("the run dropped its move observer");
    let report = hook.finish();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.accesses_checked > 0);
}

/// The entry point that observes the machine: clean either way, and
/// rotating exactly when a core is left for the migration thread.
#[test]
fn run_policy_sanitized_rotates_where_the_machine_has_a_core_to_spare() {
    let (app, rt, cal) = setup();
    let (r, sanitize) = rt
        .run_policy_sanitized(&app, &PolicyKind::tahoe(), &cal, 1, 7, &[])
        .expect("sanitized run");
    assert_eq!(r.checksum, reference_checksum_seeded(&app, 7));
    assert!(sanitize.is_clean(), "{:?}", sanitize.violations);
    assert_eq!(r.plan_steps_skipped, 0);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus > 1 {
        assert_rotated(&r, "one worker, a core to spare");
    } else {
        let worth = r.plan_value.expect("priced");
        assert_eq!(worth.chosen_ns, worth.global_ns);
        assert_eq!(r.migration.evictions, 0, "one CPU: the global plan");
    }
}

/// `mixed_skew` in small: 40 objects on a 16–256 KiB size ladder in
/// groups of eight; slot `j` of group `g` is read-streamed, updated or
/// pointer-chased twelve passes a touch (so a window's slow-tier delay
/// hides its fetches even split four ways), in 8, 4, 2 or 1 of 8
/// windows (staggered by group, so every window carries the same load).
/// A one-touch object fetched one window ahead holds DRAM for a window
/// it does not use; the planner fetches such objects in their window of
/// use, behind the window's other tasks, on holes the allocator finds.
fn ladder_app() -> App {
    const OBJECTS: usize = 40;
    const MODES: [u8; 8] = [0, 1, 2, 0, 1, 0, 1, 2];
    const TOUCHES: [u32; 8] = [8, 1, 4, 2, 1, 8, 2, 4];
    let ladder = |i: usize| {
        let bytes = (16u64 << 10) as f64 * 16f64.powf(i as f64 / (OBJECTS - 1) as f64);
        ((bytes / 4096.0).round() as u64) * 4096
    };
    let mut slots: Vec<(usize, usize)> = (0..OBJECTS / 8)
        .flat_map(|g| (0..8).map(move |j| (g, j)))
        .collect();
    slots.sort_by_key(|&(g, j)| (j, g));
    let mut b = AppBuilder::new("ladder-test");
    let objects: Vec<_> = slots
        .into_iter()
        .map(|(g, j)| {
            let bytes = ladder(8 * g + (j + g) % 8);
            (g, j, bytes, b.object(&format!("g{g}s{j}"), bytes))
        })
        .collect();
    let class = b.class("touch");
    for w in 0..8u32 {
        if w > 0 {
            b.next_window();
        }
        for &(g, j, bytes, id) in &objects {
            if !(w + g as u32).is_multiple_of(8 / TOUCHES[(j + 5 * g) % 8]) {
                continue;
            }
            let (t, lines) = (b.task(class), 12 * bytes / 64);
            match MODES[(j + 3 * g) % 8] {
                0 => t.read_streaming(id, lines),
                1 => t.update_streaming(id, lines),
                _ => t.read_chasing(id, lines / 8),
            }
            .submit();
        }
    }
    b.build()
}

/// [`run_hooked`] for [`ladder_app`], DRAM a quarter of its footprint.
fn run_ladder<S: SanitizeHook + Sync>(
    app: &App,
    workers: usize,
    seed: u64,
    hook: &S,
) -> ParallelPolicyReport {
    let cal = WallClockCalibration::synthetic(app.footprint() / 4, 4 * app.footprint());
    let rt = MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke());
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let policy = PolicyKind::tahoe();
            let _ = tx.send(rt.run_policy_hooked(app, &policy, &cal, workers, seed, true, hook));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a rotating run must not hang")
            .expect("tahoe run");
        assert_eq!(report.checksum, reference_checksum_seeded(app, seed));
        report
    })
}

/// Fetched in the window of use: the plan that ran is the late one, it
/// ran as audited, and its tasks on the fetched objects were deferred.
fn assert_fetched_late(r: &ParallelPolicyReport, what: &str) {
    let worth = r.plan_value.expect("two tiers: the plan is priced");
    assert!(
        worth.chosen_ns > 1.03 * worth.global_ns,
        "{what}: {worth:?}"
    );
    assert_eq!(r.plan_steps_skipped, 0, "{what}: executed == audited");
    assert_eq!(r.migrations_skipped, 0, "{what}: every copy found a hole");
    assert!(r.late_fetches > 0, "{what}: no fetch in its window of use");
    assert!(r.deferred_tasks > 0, "{what}: nothing was deferred");
    assert!(r.migration.evictions > 0, "{what}: nothing rotated");
}

#[test]
fn a_late_fetching_plan_executes_as_audited_at_any_worker_count() {
    let app = ladder_app();
    for workers in [1usize, 2, 4] {
        for seed in [1u64, 2, 3] {
            let r = run_ladder(&app, workers, seed, &tahoe_core::engine::NoSanitize);
            assert_fetched_late(&r, &format!("{workers} workers, seed {seed}"));
        }
    }
}

/// A deferred task that still meets its copy waits on the pin: no
/// access meets an object mid-move, no copy starts on a pinned one.
#[test]
fn a_late_fetching_run_is_clean_under_the_access_sanitizer() {
    let app = ladder_app();
    let hook = Arc::new(AccessSanitizer::from_graph(&app.graph));
    let r = run_ladder(&app, 2, 5, &hook);
    assert_fetched_late(&r, "sanitized");
    let hook = Arc::try_unwrap(hook).expect("the run dropped its move observer");
    let report = hook.finish();
    assert!(report.is_clean(), "{:?}", report.violations);

    // The entry point that observes the machine, at two workers: clean,
    // and late-fetching exactly when a core is left for the migrator.
    let cal = WallClockCalibration::synthetic(app.footprint() / 4, 4 * app.footprint());
    let rt = MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke());
    let (r, sanitize) = rt
        .run_policy_sanitized(&app, &PolicyKind::tahoe(), &cal, 2, 7, &[])
        .expect("sanitized run");
    assert_eq!(r.checksum, reference_checksum_seeded(&app, 7));
    assert!(sanitize.is_clean(), "{:?}", sanitize.violations);
    assert_eq!(r.plan_steps_skipped, 0);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus > 2 {
        assert_fetched_late(&r, "two workers, a core to spare");
    } else {
        assert_eq!(r.late_fetches, 0, "no core to spare: the global plan");
    }
}
