//! End-to-end observability of a wall-clock run: every JSONL line
//! parses, the Chrome trace draws one span per task on its worker's
//! track and one per migration on the copy track, and the event stream,
//! the metrics snapshot and the run report agree.

use tahoe_core::engine::NoSanitize;
use tahoe_core::measured::MeasuredRuntime;
use tahoe_core::prelude::*;
use tahoe_core::ParallelPolicyReport;
use tahoe_hms::presets;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_obs::{json, Emitter, Event, Metrics, MetricsSnapshot};
use tahoe_workloads::{stream, Scale};

/// One observed Tahoe run of STREAM at test scale with the plan pinned:
/// preset calibration, one worker, no spare core for the migration
/// thread. Returns the task count with the report, the event stream and
/// the metrics snapshot.
fn observed_stream() -> (u64, ParallelPolicyReport, Vec<Event>, MetricsSnapshot) {
    let app = stream::app(Scale::Test);
    let (dram, nvm) = (app.footprint() / 4, 2 * app.footprint());
    let mut cal = WallClockCalibration::synthetic(dram, nvm);
    cal.dram = presets::dram(dram);
    cal.nvm = presets::optane_pmm(nvm);
    let (emitter, buffer) = Emitter::buffered();
    let metrics = Metrics::enabled();
    let report = MeasuredRuntime::new(Platform::optane(dram, nvm), WallClockConfig::smoke())
        .with_observability(emitter, metrics.clone())
        .run_policy_hooked(&app, &PolicyKind::tahoe(), &cal, 1, 0, false, &NoSanitize)
        .expect("observed run");
    assert!(
        report.migration.count >= 1,
        "the pinned plan must migrate something"
    );
    (
        app.graph.len() as u64,
        report,
        buffer.drain(),
        metrics.snapshot(),
    )
}

fn count(events: &[Event], kind: &str) -> u64 {
    events.iter().filter(|e| e.kind() == kind).count() as u64
}

#[test]
fn jsonl_lines_parse_and_are_time_ordered_per_kind() {
    let (_, _, events, _) = observed_stream();
    let jsonl = tahoe_obs::to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    for line in jsonl.lines() {
        let v = json::parse(line).expect("every line is one JSON object");
        let ev = v.get("ev").and_then(|t| t.as_str()).expect("ev tag");
        assert!(!ev.is_empty());
        assert!(v.get("t").and_then(|t| t.as_f64()).is_some(), "t stamp");
    }
    // The recorder drain merges its lanes by timestamp, and the events
    // emitted directly (arena mapping) go out in the order they happen.
    for kind in tahoe_obs::Event::KINDS {
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.kind() == *kind)
            .map(Event::timestamp)
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{kind}: {ts:?}");
    }
}

#[test]
fn chrome_trace_has_task_spans_and_a_migration_event() {
    let (tasks, report, events, _) = observed_stream();
    let trace = json::parse(&tahoe_obs::to_chrome_trace(&events)).expect("valid JSON");
    let records = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // Every entry carries the trace_event envelope fields.
    for e in records {
        assert!(e.get("ph").and_then(|v| v.as_str()).is_some(), "ph");
        assert!(e.get("name").and_then(|v| v.as_str()).is_some(), "name");
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap();
        if ph != "M" {
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some(), "ts");
        }
    }
    let spans = |cat: &str| -> Vec<f64> {
        records
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && e.get("cat").and_then(|v| v.as_str()) == Some(cat)
            })
            .map(|e| e.get("tid").and_then(|v| v.as_f64()).expect("tid"))
            .collect()
    };
    // One worker: its spans are on tid 0, the copy track is tid 1.
    let task_tids = spans("task");
    assert_eq!(task_tids.len() as u64, tasks, "one span per executed task");
    assert!(task_tids.iter().all(|&tid| tid == 0.0), "{task_tids:?}");
    let copy_tids = spans("migration");
    assert_eq!(copy_tids.len() as u64, report.migration.count);
    assert!(copy_tids.iter().all(|&tid| tid == 1.0), "{copy_tids:?}");
}

#[test]
fn events_metrics_and_report_agree() {
    let (tasks, report, events, metrics) = observed_stream();
    assert_eq!(count(&events, "worker_task"), tasks);
    for kind in ["migration_issued", "migration_completed", "real_copy_done"] {
        assert_eq!(count(&events, kind), report.migration.count, "{kind}");
    }
    let gate_wait: f64 = events
        .iter()
        .map(|e| match e {
            Event::WorkerTask { gate_wait_ns, .. } => *gate_wait_ns,
            _ => 0.0,
        })
        .sum();
    assert_eq!(gate_wait, report.gate_wait_ns);
    // The recorder's histograms and counters land in the snapshot.
    let task_ns = metrics.histogram("task_ns").expect("task latency digest");
    assert_eq!(task_ns.count, tasks);
    assert_eq!(metrics.counter("obs.ring_dropped"), Some(0));
    assert_eq!(report.obs_ring_dropped, 0);
}

/// A copy's `real_copy_done` is emitted by the migration thread beside
/// its `migration_completed`, on the same clock and the same recorder
/// lane: the two carry one timestamp.
#[test]
fn every_real_copy_done_shares_its_migration_completed_clock() {
    let (_, _, events, _) = observed_stream();
    let done: Vec<(f64, u32)> = events
        .iter()
        .filter_map(|e| match *e {
            Event::MigrationCompleted { t, object, .. } => Some((t, object)),
            _ => None,
        })
        .collect();
    let copied: Vec<(f64, u32)> = events
        .iter()
        .filter_map(|e| match *e {
            Event::RealCopyDone { t, object, .. } => Some((t, object)),
            _ => None,
        })
        .collect();
    assert!(!done.is_empty());
    assert_eq!(done, copied);
}
