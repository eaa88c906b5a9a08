//! The plan release: Tahoe's audited plan goes to the migration thread
//! when every task class has its quota of completed instances —
//! mid-window, exactly once — and what then executes is what was
//! audited. Judged from outside, through the event stream and the
//! report.

use std::sync::mpsc;
use std::time::Duration;

use tahoe_core::app::{App, AppBuilder};
use tahoe_core::config::{Platform, MIN_CLASS_INSTANCES};
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::policy::PolicyKind;
use tahoe_core::{ModelAudit, ParallelPolicyReport};
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_obs::{Emitter, Event, Metrics};
use tahoe_taskrt::TaskId;

/// Synthetic calibration (no kernel measurement): NVM 3× slower than
/// DRAM, DRAM capped at `dram_cap`.
fn cal_with(app: &App, dram_cap: u64) -> WallClockCalibration {
    WallClockCalibration::synthetic(dram_cap, 4 * app.footprint())
}

/// DRAM holds a third of the footprint: the plan promotes a strict
/// subset.
fn cal_for(app: &App) -> WallClockCalibration {
    cal_with(app, app.footprint() / 3)
}

fn runtime() -> MeasuredRuntime {
    MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke())
}

/// `windows` windows of `blocks` independent "update" tasks over their
/// own block, then — from window `gather_from` on — one "gather" task
/// reading every block, which the derived dependences order after all
/// of its window's updates.
fn two_class_app(blocks: usize, windows: u32, gather_from: u32) -> (App, Vec<TaskId>) {
    let mut b = AppBuilder::new("release-test");
    let objs: Vec<_> = (0..blocks)
        .map(|i| b.object(&format!("o{i}"), 32 << 10))
        .collect();
    let (update, gather) = (b.class("update"), b.class("gather"));
    let mut gathers = Vec::new();
    for w in 0..windows {
        if w > 0 {
            b.next_window();
        }
        for &o in &objs {
            b.task(update).update_streaming(o, 128).submit();
        }
        if w >= gather_from {
            let mut t = b.task(gather);
            for &o in &objs {
                t = t.read_streaming(o, 64);
            }
            gathers.push(t.submit());
        }
    }
    (b.build(), gathers)
}

/// One observed Tahoe run: the report and the merged event stream. A
/// run that does not come back within a minute fails the test instead
/// of hanging it.
fn observed_tahoe(app: &App, workers: usize, seed: u64) -> (ParallelPolicyReport, Vec<Event>) {
    let (emitter, buffer) = Emitter::buffered();
    let rt = runtime().with_observability(emitter, Metrics::enabled());
    let cal = cal_for(app);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = tx.send(rt.run_policy_parallel(app, &PolicyKind::tahoe(), &cal, workers, seed));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the run must finish: a missed release may not hang it")
            .expect("tahoe run");
        assert_eq!(report.checksum, reference_checksum_seeded(app, seed));
        (report, buffer.drain())
    })
}

/// The one `ProfilingClosed` of a run, as `(t, window)`.
fn release_of(events: &[Event]) -> (f64, u32) {
    let closed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::ProfilingClosed { t, window } => Some((*t, *window)),
            _ => None,
        })
        .collect();
    assert_eq!(closed.len(), 1, "the plan is released exactly once");
    closed[0]
}

/// Completion stamps of the run's tasks, as `(task, t)`.
fn completions(events: &[Event]) -> Vec<(u32, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::WorkerTask { t, task, .. } => Some((*task, *t)),
            _ => None,
        })
        .collect()
}

/// `(issued_at, copy start)` of every committed migration.
fn moves(events: &[Event]) -> Vec<(f64, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::MigrationIssued { t, start, .. } => Some((*t, *start)),
            _ => None,
        })
        .collect()
}

/// What ran is what was audited, each step handed over once.
fn assert_plan_executed(r: &ParallelPolicyReport) {
    assert!(r.migrations > 0, "the plan must promote under pressure");
    assert_eq!(r.migrations_skipped, 0, "a step enqueued twice is moot");
    assert_eq!(r.plan_steps_skipped, 0, "executed == audited");
    assert_eq!(r.migrations as usize, r.final_tier_objects[0]);
    let (released, placed) = (r.released_at_ns.unwrap(), r.placed_at_ns.unwrap());
    assert!(released <= placed && placed > 0.0);
}

#[test]
fn release_fires_once_and_only_after_every_class_met_its_quota() {
    let (app, _) = two_class_app(6, 4, 0);
    for workers in [1usize, 2, 4] {
        let (r, events) = observed_tahoe(&app, workers, 3);
        assert_plan_executed(&r);
        let (t_release, window) = release_of(&events);
        assert_eq!(window, 0, "mid-window 0, not at a later barrier");
        assert_eq!(r.released_at_ns, Some(t_release));
        // Every class had its quota of completed instances by then …
        for class in 0..app.graph.class_count() {
            let done = completions(&events)
                .iter()
                .filter(|&&(task, t)| {
                    app.graph.task(TaskId(task)).class.index() == class && t <= t_release
                })
                .count();
            assert!(
                done >= MIN_CLASS_INSTANCES as usize,
                "class {class} had {done} instances at release ({workers} workers)"
            );
        }
        // … and no step reached the migrator before.
        for (issued_at, _) in moves(&events) {
            assert!(issued_at >= t_release, "{workers} workers");
        }
    }
}

#[test]
fn a_two_class_graph_releases_on_the_slower_class() {
    // The gather task runs after every update of its window, so its
    // class is the last to report.
    let (app, gathers) = two_class_app(6, 3, 0);
    let (r, events) = observed_tahoe(&app, 2, 5);
    assert_plan_executed(&r);
    let (t_release, _) = release_of(&events);
    let t_gather = completions(&events)
        .iter()
        .find(|(task, _)| *task == gathers[0].0)
        .expect("the first gather ran")
        .1;
    assert!(
        t_release >= t_gather,
        "released at {t_release} before the slow class reported at {t_gather}"
    );
}

#[test]
fn a_class_absent_from_the_first_window_does_not_hold_the_release() {
    // "gather" has no instance in window 0: its quota there is
    // min(MIN_CLASS_INSTANCES, 0), so the updates alone release.
    let (app, _) = two_class_app(6, 3, 1);
    let (r, events) = observed_tahoe(&app, 2, 7);
    assert_plan_executed(&r);
    assert_eq!(release_of(&events).1, 0);
}

#[test]
fn a_single_window_graph_profiles_before_it_moves() {
    let (app, _) = two_class_app(6, 1, 0);
    let (r, events) = observed_tahoe(&app, 2, 9);
    assert_plan_executed(&r);
    let first_done = completions(&events)
        .iter()
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    for (_, start) in moves(&events) {
        assert!(start >= first_done, "a copy started before any task ran");
    }
    let on_nvm: u64 = r.access_timing.iter().map(|a| a.nvm_samples).sum();
    assert!(on_nvm >= 1, "the profiled instances ran on NVM");
}

#[test]
fn suite_workloads_execute_every_audited_step() {
    use tahoe_workloads::{cg, stream, Scale};
    for app in [stream::app(Scale::Test), cg::app(Scale::Test)] {
        let cal = cal_with(&app, app.footprint() / 4);
        for workers in [1usize, 2, 4] {
            let metrics = Metrics::enabled();
            let r = runtime()
                .with_observability(Emitter::disabled(), metrics.clone())
                .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, workers, 0)
                .expect("tahoe run");
            assert_eq!(r.checksum, reference_checksum_seeded(&app, 0));
            assert_plan_executed(&r);
            assert_eq!(
                metrics.snapshot().counter("core.plan_steps_skipped"),
                Some(0),
                "{} at {workers} workers",
                app.name
            );
        }
    }
}

/// The plan's promotions read Optane and write DRAM, so they land
/// sooner than the symmetric channel — both directions at Optane's
/// *write* rate — could have carried them: judged per copy, because
/// release → last commit also holds the idle migration thread's wake-up
/// and a wait for one task's pin, each of which can outlast all twelve
/// copies on a busy two-core host and neither of which is the channel's.
#[test]
fn the_plan_is_placed_faster_than_the_symmetric_channel_allowed() {
    use tahoe_hms::presets;
    let app = tahoe_workloads::stream::app(tahoe_workloads::Scale::Bench);
    let (dram, nvm) = (app.footprint() / 4, 4 * app.footprint());
    let cal = WallClockCalibration {
        dram: presets::dram(dram),
        nvm: presets::optane_pmm(nvm),
        ..WallClockCalibration::synthetic(dram, nvm)
    };
    let promotion_gbps = cal.nvm.copy_bw_to(&cal.dram);
    let symmetric_gbps = presets::copy_channel_gbps(&cal.dram, &cal.nvm);
    let (tx, rx) = mpsc::channel();
    let (app, cal) = (&app, &cal);
    std::thread::scope(|s| {
        // `move`: a failed assertion in there drops `tx` and fails the
        // test at once instead of after the watchdog's minute.
        s.spawn(move || {
            let (emitter, buffer) = Emitter::buffered();
            let rt = MeasuredRuntime::new(Platform::optane(dram, nvm), WallClockConfig::smoke())
                .with_observability(emitter, Metrics::enabled());
            // Median copy time over what the symmetric channel needed for
            // the same bytes; up to three tries absorb a run whose
            // migration thread shared its core.
            let mut ratios: Vec<f64> = Vec::new();
            while ratios.len() < 3 && ratios.last().is_none_or(|r| *r >= 1.0) {
                let r = rt
                    .run_policy_parallel(app, &PolicyKind::tahoe(), cal, 1, 0)
                    .expect("tahoe run");
                assert_eq!(r.checksum, reference_checksum_seeded(app, 0));
                assert_plan_executed(&r);
                assert_eq!(r.migration.evictions, 0, "the plan only promotes");
                let mut copies: Vec<f64> = buffer
                    .drain()
                    .iter()
                    .filter_map(|e| match e {
                        Event::MigrationIssued {
                            bytes,
                            start,
                            finish,
                            ..
                        } => {
                            let took = finish - start;
                            let floor = *bytes as f64 / promotion_gbps;
                            assert!(
                                took >= floor,
                                "a {took} ns copy beat its {floor} ns throttle"
                            );
                            Some(took / (*bytes as f64 / symmetric_gbps))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(copies.len() as u64, r.migrations);
                copies.sort_by(f64::total_cmp);
                ratios.push(copies[copies.len() / 2]);
            }
            let _ = tx.send(ratios);
        });
        let ratios = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("three stream runs must finish");
        assert!(
            ratios.last().is_some_and(|r| *r < 1.0),
            "median promotion over what {symmetric_gbps} GB/s needs for its bytes: {ratios:?}"
        );
    });
}

#[test]
fn the_smoke_stream_stays_auditable() {
    // The model audit of `exp blame --smoke`: everything fits the 1 MiB
    // DRAM floor, so all 12 blocks are promoted — and each must still be
    // seen on NVM first.
    let app = tahoe_workloads::stream::app(tahoe_workloads::Scale::Test);
    let (emitter, buffer) = Emitter::buffered();
    let rt = runtime().with_observability(emitter, Metrics::enabled());
    let r = rt
        .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal_with(&app, 1 << 20), 2, 0)
        .expect("observed run");
    assert_eq!(r.checksum, reference_checksum_seeded(&app, 0));
    assert!(r.migrations > 0);
    let audit = ModelAudit::new(&app, &r.access_timing, &buffer.drain());
    assert_eq!(audit.rows.len(), app.objects.len(), "every block is priced");
    assert!(audit.audited >= 1, "no object ran on both tiers");
}
