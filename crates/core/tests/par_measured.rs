//! Stress suite for the parallel measured runtime: worker counts ×
//! seeds, every run's checksum must equal the sequential heap-buffer
//! reference bit for bit, and Tahoe at ≥2 workers must report nonzero
//! overlapped migration time whenever migrations occurred.

use tahoe_core::app::{App, AppBuilder};
use tahoe_core::config::Platform;
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::policy::PolicyKind;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};

/// A blocked triad over three arrays: window w's task i reads b[i], c[i]
/// and writes a[i] — the stream workload's shape, rebuilt here because
/// the workloads crate sits above core.
fn triad_app(blocks: u32, block_bytes: u64, windows: u32) -> App {
    let mut b = AppBuilder::new("stress-triad");
    let a: Vec<_> = (0..blocks)
        .map(|i| b.object(&format!("a{i}"), block_bytes))
        .collect();
    let bv: Vec<_> = (0..blocks)
        .map(|i| b.object(&format!("b{i}"), block_bytes))
        .collect();
    let cv: Vec<_> = (0..blocks)
        .map(|i| b.object(&format!("c{i}"), block_bytes))
        .collect();
    let class = b.class("triad");
    for w in 0..windows {
        if w > 0 {
            b.next_window();
        }
        for i in 0..blocks as usize {
            b.task(class)
                .read_streaming(bv[i], 64)
                .read_streaming(cv[i], 64)
                .write_streaming(a[i], 64)
                .submit();
        }
    }
    b.build()
}

fn runtime() -> MeasuredRuntime {
    MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke())
}

#[test]
fn parallel_suite_is_deterministic_across_workers_and_seeds() {
    let app = triad_app(4, 16 << 10, 4);
    let footprint = app.footprint();
    // DRAM holds ~a quarter of the footprint: Tahoe has real pressure
    // and its plan promotes a strict subset.
    let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
    let rt = runtime();

    for &run_seed in &[0u64, 42, 0xDEAD_BEEF] {
        let expect = reference_checksum_seeded(&app, run_seed);
        for &workers in &[1usize, 2, 4] {
            for policy in [
                PolicyKind::DramOnly,
                PolicyKind::NvmOnly,
                PolicyKind::FirstTouch,
                PolicyKind::tahoe(),
            ] {
                let r = rt
                    .run_policy_parallel(&app, &policy, &cal, workers, run_seed)
                    .expect("parallel run");
                assert_eq!(
                    r.checksum, expect,
                    "policy {} diverged at {workers} workers, seed {run_seed:#x}",
                    r.policy
                );
                assert_eq!(r.workers, workers);
                assert!(r.bytes_touched > 0);
            }
        }
    }
}

#[test]
fn tahoe_overlap_is_nonzero_with_multiple_workers() {
    let app = triad_app(4, 32 << 10, 4);
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
    let rt = runtime();

    for &workers in &[2usize, 4] {
        let r = rt
            .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, workers, 1)
            .expect("parallel tahoe");
        assert_eq!(r.checksum, reference_checksum_seeded(&app, 1));
        assert!(
            r.migration.count > 0,
            "the Tahoe plan must migrate under DRAM pressure"
        );
        assert!(
            r.migration.overlapped_ns > 0.0,
            "background copies at {workers} workers must overlap execution \
             (stats: {:?})",
            r.migration
        );
        assert!(
            r.migration.pct_overlap() > 0.0,
            "pct_overlap must be nonzero when migrations occurred"
        );
        // Overlap accounting is internally consistent.
        let total = r.migration.overlapped_ns + r.migration.exposed_ns;
        assert!(r.migration.pct_overlap() <= 100.0 + 1e-9);
        assert!(total > 0.0);
    }
}

#[test]
fn bytes_touched_is_fixed_by_the_graph() {
    let app = triad_app(2, 8 << 10, 3);
    // The init fill walks every object once, and each access walks its
    // whole object once more.
    let tasks = app.graph.tasks();
    let expect: u64 = app
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let accesses = tasks
                .iter()
                .flat_map(|t| &t.accesses)
                .filter(|a| a.object.index() == i)
                .count() as u64;
            o.size * (1 + accesses)
        })
        .sum();
    let cal = WallClockCalibration::synthetic(app.footprint() / 4, 4 * app.footprint());
    let rt = runtime();
    for workers in [1, 2] {
        for policy in [PolicyKind::NvmOnly, PolicyKind::tahoe()] {
            let r = rt
                .run_policy_parallel(&app, &policy, &cal, workers, 0)
                .expect("parallel run");
            assert_eq!(r.bytes_touched, expect, "{} at {workers} workers", r.policy);
        }
    }
}

#[test]
fn parallel_report_fields_are_consistent() {
    let app = triad_app(2, 8 << 10, 2);
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint, 4 * footprint);
    let rt = runtime();
    let r = rt
        .run_policy_parallel(&app, &PolicyKind::DramOnly, &cal, 2, 0)
        .expect("dram-only parallel");
    // DRAM-only never migrates; its report must say so everywhere.
    assert_eq!(r.migrations, 0);
    assert_eq!(r.migration.count, 0);
    assert_eq!(r.migrated_bytes, 0);
    // No migrations at all reads as 100% overlapped by convention.
    assert_eq!(r.migration.pct_overlap(), 100.0);
    assert!(r.throughput_gbps > 0.0);
    assert_eq!(r.final_tier_objects[0], app.objects.len());
}

#[test]
fn contention_counters_stay_silent_without_migrations() {
    let app = triad_app(4, 16 << 10, 4);
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint, 4 * footprint);
    let rt = runtime();
    let r = rt
        .run_policy_parallel(&app, &PolicyKind::DramOnly, &cal, 4, 0)
        .expect("dram-only parallel");
    // Without a migration there is nothing to wait for: workers never
    // park and never observe a mid-move object. (CAS retries are not
    // asserted zero — two workers pinning disjoint objects in the same
    // shard can still collide benignly.)
    assert_eq!(r.contention.move_waits, 0, "{:?}", r.contention);
    assert_eq!(r.contention.parks, 0, "{:?}", r.contention);
}

#[test]
fn results_are_deterministic_while_contention_is_not() {
    let app = triad_app(4, 32 << 10, 4);
    let footprint = app.footprint();
    let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
    let rt = runtime();
    // Contention counters (CAS retries, parks, waits) are a property of
    // the schedule, not the results: two runs of the same (policy,
    // workers, seed) may count differently, but their checksums and
    // migration decisions must be bit-identical regardless.
    let a = rt
        .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, 4, 1)
        .expect("parallel tahoe");
    let b = rt
        .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, 4, 1)
        .expect("parallel tahoe");
    assert!(a.migration.count > 0);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.checksum, reference_checksum_seeded(&app, 1));
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.migrated_bytes, b.migrated_bytes);
}
