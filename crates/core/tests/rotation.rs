//! A rotating plan, executed: evictions and look-ahead promotions go
//! out at every window's barrier while the workers run, and the answer,
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
