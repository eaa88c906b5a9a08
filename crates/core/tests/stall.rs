//! A forced migration stall, followed through every place that reports
//! it: the pin is the engine's one data-readiness wait, so the report,
//! the event stream, the critical path and the blame table must all see
//! the same nanoseconds — and a task that never blocked must carry
//! exactly zero.

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use tahoe_core::app::{App, AppBuilder};
use tahoe_core::config::Platform;
use tahoe_core::engine::SanitizeHook;
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::policy::PolicyKind;
use tahoe_hms::MoveObserver;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_obs::{Emitter, Event, Metrics};
use tahoe_taskrt::TaskId;

/// App object 0: the only object the plan can promote.
const HOT: u32 = 0;
/// How long the migration thread holds [`HOT`] `MOVING` before it even
/// starts copying — ten times what the assertions ask for.
const HOLD: Duration = Duration::from_millis(20);
const STALL_FLOOR_NS: f64 = 2e6;

/// Four windows of two independent tasks: one updates the hot object,
/// one reads a cold object too large for DRAM. Returns the app and the
/// cold task of window 1.
fn hot_cold_app() -> (App, TaskId) {
    let mut b = AppBuilder::new("stall-test");
    let hot = b.object("hot", 64 << 10);
    let cold = b.object("cold", 128 << 10);
    let c = b.class("step");
    let mut hold_at = None;
    for w in 0..4 {
        if w > 0 {
            b.next_window();
        }
        b.task(c).update_streaming(hot, 64).submit();
        let cold_task = b.task(c).read_streaming(cold, 64).submit();
        if w == 1 {
            hold_at = Some(cold_task);
        }
    }
    (b.build(), hold_at.expect("window 1 exists"))
}

/// Forces the interleaving: the worker stops inside `hold_at` — a task
/// that pins only the cold object, after the plan's release in window 0
/// — until the migration thread has claimed the hot object `MOVING`;
/// the migration thread then keeps it `MOVING` for [`HOLD`] (the move
/// observer runs between `begin_move_blocking`'s claim and the copy,
/// `commit_move` follows). The one worker's next hot task, at most two
/// tasks later, blocks in its pin for the rest of the hold.
struct StallOnHot {
    hold_at: u32,
    claimed: Arc<(Mutex<bool>, Condvar)>,
}

impl SanitizeHook for StallOnHot {
    const ENABLED: bool = true;

    fn on_access(&self, task: u32, _access: usize, _object: u32, _mid_move: bool) {
        if task != self.hold_at {
            return;
        }
        let (claimed, cv) = &*self.claimed;
        // A plan that never moves the hot object times out here and
        // fails the assertions below instead of hanging.
        let _ = cv
            .wait_timeout_while(
                claimed.lock().expect("claimed flag"),
                Duration::from_secs(10),
                |claimed| !*claimed,
            )
            .expect("claimed flag");
    }

    fn move_observer(&self) -> Option<MoveObserver> {
        let claimed = Arc::clone(&self.claimed);
        Some(Box::new(move |_object, _pins| {
            *claimed.0.lock().expect("claimed flag") = true;
            claimed.1.notify_all();
            std::thread::sleep(HOLD);
        }))
    }
}

#[test]
fn a_forced_stall_is_the_same_number_everywhere() {
    let (app, hold_at) = hot_cold_app();
    // DRAM fits the hot object and not the cold one.
    let cal = WallClockCalibration::synthetic(96 << 10, 4 * app.footprint());
    let (emitter, buffer) = Emitter::buffered();
    let rt = MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke())
        .with_observability(emitter, Metrics::enabled());
    let hook = StallOnHot {
        hold_at: hold_at.0,
        claimed: Arc::default(),
    };
    let (tx, rx) = mpsc::channel();
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            let _ =
                tx.send(rt.run_policy_hooked(&app, &PolicyKind::tahoe(), &cal, 1, 11, true, &hook));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a stalled task must not hang the run")
            .expect("tahoe run")
    });
    assert_eq!(report.checksum, reference_checksum_seeded(&app, 11));
    assert_eq!(report.migrations, 1, "the plan promotes the hot object");

    // The report sees the stall …
    assert!(
        report.gate_wait_ns >= STALL_FLOOR_NS,
        "report.gate_wait_ns = {}",
        report.gate_wait_ns
    );
    // … as exactly the sum of what the tasks' events carry …
    let waits: Vec<(u32, f64)> = buffer
        .drain()
        .iter()
        .filter_map(|e| match e {
            Event::WorkerTask {
                task, gate_wait_ns, ..
            } => Some((*task, *gate_wait_ns)),
            _ => None,
        })
        .collect();
    assert_eq!(waits.len(), app.graph.len());
    assert_eq!(
        waits.iter().map(|(_, w)| w).sum::<f64>(),
        report.gate_wait_ns
    );
    // … and a task that did not touch the moved object never blocked.
    for (task, wait) in &waits {
        let spec = app.graph.task(TaskId(*task));
        if spec.accesses.iter().all(|a| a.object.0 != HOT) {
            assert_eq!(*wait, 0.0, "task {task} never needed the hot object");
        }
    }

    // One worker: the stalled task is on the critical path.
    let crit = report.crit.as_ref().expect("observed runs carry a digest");
    assert!(
        crit.stall_ns >= STALL_FLOOR_NS,
        "crit.stall_ns = {}",
        crit.stall_ns
    );
    // The blame table charges the wait to the copy that caused it.
    let hot = crit
        .blame
        .entries()
        .find(|e| e.object == HOT)
        .expect("the moved object is blamed");
    assert!(hot.gate_wait_ns > 0.0, "{hot:?}");
    let attributed: f64 = crit.blame.entries().map(|e| e.gate_wait_ns).sum();
    assert!(
        (attributed + crit.blame.unattributed_wait_ns - report.gate_wait_ns).abs()
            <= 1e-6 * report.gate_wait_ns
    );
}
