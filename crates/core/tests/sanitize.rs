//! Integration tests for the sanitized parallel measured mode.
//!
//! Correct workloads must produce *zero* violations at every worker
//! count and seed — and the sanitized run must still reproduce the
//! reference checksum bit for bit. Buggy workloads (write-under-read
//! declarations, undeclared extra accesses) must produce an *exact*,
//! schedule-independent violation set; the fuzzer in `tahoe-bench`
//! gates on the same property across its whole sweep.

use tahoe_core::app::{App, AppBuilder};
use tahoe_core::config::Platform;
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::policy::PolicyKind;
use tahoe_core::{ExtraAccess, ViolationKind};
use tahoe_hms::AccessProfile;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_obs::{Emitter, Metrics};
use tahoe_taskrt::AccessMode;

fn runtime() -> MeasuredRuntime {
    MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke())
}

fn stream_app(blocks: u32, block_bytes: u64, windows: u32) -> App {
    let mut b = AppBuilder::new("sanitize-test");
    let a: Vec<_> = (0..blocks)
        .map(|i| b.object(&format!("a{i}"), block_bytes))
        .collect();
    let bb: Vec<_> = (0..blocks)
        .map(|i| b.object(&format!("b{i}"), block_bytes))
        .collect();
    let c = b.class("triad");
    for w in 0..windows {
        if w > 0 {
            b.next_window();
        }
        for i in 0..blocks as usize {
            b.task(c)
                .read_streaming(bb[i], 64)
                .update_streaming(a[i], 64)
                .submit();
        }
    }
    b.build()
}

#[test]
fn correct_workload_is_clean_at_every_worker_count_and_seed() {
    let app = stream_app(4, 8 << 10, 3);
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
    let rt = runtime();
    // 12 tasks x 2 accesses per run.
    let expect_checked = 24;
    for workers in [1usize, 2, 4] {
        for seed in [0u64, 7, 42] {
            let (report, sanitize) = rt
                .run_policy_sanitized(&app, &PolicyKind::tahoe(), &cal, workers, seed, &[])
                .expect("sanitized run");
            assert!(
                sanitize.is_clean(),
                "violations at {workers} workers seed {seed}: {:?}",
                sanitize.violations
            );
            assert_eq!(sanitize.accesses_checked, expect_checked);
            assert_eq!(
                report.checksum,
                reference_checksum_seeded(&app, seed),
                "sanitize mode changed the answer at {workers} workers seed {seed}"
            );
        }
    }
}

/// A task declares `Read` on an object its profile stores to: the
/// dependence tracker derived reader edges only, so the hidden write
/// races every other toucher with no ordering path.
fn write_under_read_app() -> App {
    let mut b = AppBuilder::new("fixture-wur");
    let x = b.object("x", 8 << 10);
    let c = b.class("reader");
    // "Reader" that sneaks 8 store lines per access.
    b.task(c)
        .access(x, AccessMode::Read, AccessProfile::streaming(64, 8))
        .submit();
    // Honest reader, unordered against the hidden writer.
    b.task(c)
        .access(x, AccessMode::Read, AccessProfile::streaming(64, 0))
        .submit();
    b.build()
}

#[test]
fn write_under_read_fixture_yields_exact_violations() {
    let app = write_under_read_app();
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint, 4 * footprint);
    let rt = runtime();
    // One worker: the hidden write must not become a *real* concurrent
    // race on live buffers; the sanitizer still reports it because the
    // scan is over declarations, not schedules.
    let (_, sanitize) = rt
        .run_policy_sanitized(&app, &PolicyKind::DramOnly, &cal, 1, 0, &[])
        .expect("sanitized run");
    assert_eq!(sanitize.count(ViolationKind::WriteUnderRead), 1);
    assert_eq!(sanitize.count(ViolationKind::UnorderedConflict), 1);
    assert_eq!(sanitize.violations.len(), 2, "{:?}", sanitize.violations);
}

#[test]
fn undeclared_extra_access_fixture_is_exact_and_schedule_independent() {
    // Two tasks on disjoint objects; task 0 claims to also write task
    // 1's object without declaring it. Extra accesses never touch real
    // memory, so this is safe at any worker count — and the report must
    // be identical at every one.
    let mut b = AppBuilder::new("fixture-undeclared");
    let x = b.object("x", 8 << 10);
    let y = b.object("y", 8 << 10);
    let c = b.class("w");
    b.task(c).write_streaming(x, 64).submit();
    b.task(c).write_streaming(y, 64).submit();
    let app = b.build();
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint, 4 * footprint);
    let rt = runtime();
    let extra = [ExtraAccess {
        task: 0,
        object: 1,
        writes: true,
    }];
    let mut reports = Vec::new();
    for workers in [1usize, 2, 4] {
        let (_, sanitize) = rt
            .run_policy_sanitized(&app, &PolicyKind::DramOnly, &cal, workers, 0, &extra)
            .expect("sanitized run");
        assert_eq!(sanitize.count(ViolationKind::UndeclaredAccess), 1);
        assert_eq!(sanitize.count(ViolationKind::UnorderedConflict), 1);
        assert_eq!(sanitize.violations.len(), 2);
        reports.push(sanitize);
    }
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

#[test]
fn violations_reach_events_and_metrics() {
    let app = write_under_read_app();
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint, 4 * footprint);
    let (emitter, buffer) = Emitter::buffered();
    let metrics = Metrics::enabled();
    let rt = runtime().with_observability(emitter, metrics.clone());
    let (_, sanitize) = rt
        .run_policy_sanitized(&app, &PolicyKind::DramOnly, &cal, 1, 0, &[])
        .expect("sanitized run");
    assert_eq!(sanitize.violations.len(), 2);
    let events = buffer.drain();
    let mut kinds: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            tahoe_obs::Event::SanitizeViolation { kind, .. } => Some(kind.clone()),
            _ => None,
        })
        .collect();
    kinds.sort();
    assert_eq!(kinds, ["unordered_conflict", "write_under_read"]);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("sanitize.violations.write_under_read"),
        Some(1)
    );
    assert_eq!(
        snap.counter("sanitize.violations.unordered_conflict"),
        Some(1)
    );
    assert_eq!(snap.counter("sanitize.accesses_checked"), Some(2));
}
