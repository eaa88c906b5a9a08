//! The batch-facing vocabulary of the work-stealing executor: the
//! (vestigial) [`DataGate`] readiness hook, one run's [`WsStats`], and
//! [`WsExecutor`], the gate-less entry point examples and tests use.
//!
//! The scheduler itself lives in [`crate::pool`]; a batch run is one
//! scoped job on it ([`crate::pool::run_scoped`]).

use std::sync::Arc;
use std::time::Duration;

use crate::graph::TaskGraph;
use crate::pool::{run_scoped, JobSpec};
use crate::task::TaskSpec;

/// Statistics of one real-parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WsStats {
    /// Tasks executed (equals the graph size unless the run failed).
    pub tasks_executed: u64,
    /// Successful steals between workers.
    pub steals: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Total wall-clock ns workers spent blocked in the [`DataGate`]
    /// (summed across workers) — zero under [`NoGate`], which is what
    /// every job passes.
    pub gate_wait_ns: f64,
    /// Roots the `on_window` hook deferred behind their windows' others.
    pub deferred: u64,
}

/// A data-readiness gate consulted before each task runs.
///
/// No runtime in this repository installs one: the wall-clock engine's
/// only data-readiness wait is the pin
/// (`tahoe_hms::SharedHms::pin_for_task`, which must wait anyway to
/// resolve the pin/claim race), and every job passes [`NoGate`]. The
/// trait, [`NoGate`], [`JobSpec::gate`] and [`WsStats::gate_wait_ns`]
/// survive only because the frozen `benchmark/src/probes.rs` writes
/// `gate: Arc::new(NoGate)` in a `JobSpec` literal; the `benchmark` PR
/// that rewrites that literal deletes all four (DESIGN.md decision 11).
pub trait DataGate: Sync {
    /// Block until `task`'s data is safe to access; return ns waited.
    fn wait_ready(&self, task: &TaskSpec) -> f64;
}

/// The trivial gate: data is always ready (pure compute graphs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoGate;

impl DataGate for NoGate {
    fn wait_ready(&self, _task: &TaskSpec) -> f64 {
        0.0
    }
}

/// A work-stealing executor with a fixed number of OS threads.
#[derive(Debug)]
pub struct WsExecutor {
    threads: usize,
}

impl WsExecutor {
    /// An executor with `threads` worker threads (`0` runs with 1).
    pub fn new(threads: usize) -> Self {
        WsExecutor { threads }
    }

    /// Execute every task of `graph`, calling `work(task)` exactly once
    /// per task, respecting all derived dependences and window
    /// barriers. A panic in `work` is re-raised here once the run has
    /// wound down.
    ///
    /// `work` receives the [`TaskSpec`] and dispatches on class/accesses;
    /// shared state belongs to the caller (use atomics or locks — the
    /// executor only guarantees ordering along dependence edges).
    pub fn run<F>(&self, graph: &TaskGraph, work: F) -> WsStats
    where
        F: Fn(&TaskSpec) + Sync,
    {
        let spec = JobSpec {
            tag: 0,
            graph,
            gate: Arc::new(NoGate),
            work: Arc::new(|_, _, t: &TaskSpec| work(t)),
            on_window: None,
            on_done: None,
        };
        run_scoped(self.threads, None, &tahoe_obs::Metrics::disabled(), spec)
            .unwrap_or_else(|panic| panic!("{panic}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::TaskPool;
    use crate::task::{AccessMode, TaskAccess};
    use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
    use tahoe_hms::{AccessProfile, ObjectId};
    use tahoe_obs::{FlightRecorder, Metrics};

    fn inout(o: u32) -> TaskAccess {
        TaskAccess::new(ObjectId(o), AccessMode::ReadWrite, AccessProfile::EMPTY)
    }

    fn wr(o: u32) -> TaskAccess {
        TaskAccess::new(ObjectId(o), AccessMode::Write, AccessProfile::EMPTY)
    }

    fn rd(o: u32) -> TaskAccess {
        TaskAccess::new(ObjectId(o), AccessMode::Read, AccessProfile::EMPTY)
    }

    /// `n` independent tasks.
    fn wide(n: u32) -> TaskGraph {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..n {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        g
    }

    /// One scoped job over `graph`: what `WsExecutor::run` submits, with
    /// the gate, recorder and metrics a batch run attaches.
    fn scoped<'a>(
        threads: usize,
        graph: &'a TaskGraph,
        gate: Arc<dyn DataGate + Send + Sync + 'a>,
        recorder: Option<&FlightRecorder>,
        metrics: &Metrics,
        work: impl Fn(usize, &TaskSpec) + Send + Sync + 'a,
    ) -> WsStats {
        let spec = JobSpec {
            tag: 0,
            graph,
            gate,
            work: Arc::new(move |w, _, t: &TaskSpec| work(w, t)),
            on_window: None,
            on_done: None,
        };
        run_scoped(threads, recorder, metrics, spec).expect("no task panics")
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..200 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        let count = AtomicU64::new(0);
        let stats = WsExecutor::new(4).run(&g, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 200);
        assert_eq!(stats.tasks_executed, 200);
    }

    #[test]
    fn chain_order_is_respected() {
        // Each task appends its id; the chain forces total order.
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for _ in 0..64 {
            g.add_task(c, vec![inout(0)], 0.0);
        }
        let log = parking_lot::Mutex::new(Vec::new());
        WsExecutor::new(4).run(&g, |t| {
            log.lock().push(t.id.0);
        });
        let log = log.into_inner();
        let expect: Vec<u32> = (0..64).collect();
        assert_eq!(log, expect);
    }

    #[test]
    fn reduction_tree_computes_correct_sum() {
        // 16 leaves write their value to distinct objects; a join task
        // reads all and a final value is accumulated via dependences.
        let mut g = TaskGraph::new();
        let c = g.class("leaf");
        let j = g.class("join");
        for i in 0..16 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        let accesses: Vec<TaskAccess> = (0..16).map(rd).collect();
        g.add_task(j, accesses, 0.0);

        let cells: Vec<AtomicI64> = (0..16).map(|_| AtomicI64::new(0)).collect();
        let total = AtomicI64::new(-1);
        WsExecutor::new(8).run(&g, |t| {
            if t.class.0 == 0 {
                // leaf i writes i+1 into its cell
                let obj = t.accesses[0].object.0 as usize;
                cells[obj].store(obj as i64 + 1, Ordering::Release);
            } else {
                let sum: i64 = cells.iter().map(|c| c.load(Ordering::Acquire)).sum();
                total.store(sum, Ordering::Release);
            }
        });
        // 1 + 2 + ... + 16 = 136; visible because the join task depends on
        // every leaf.
        assert_eq!(total.load(Ordering::Acquire), 136);
    }

    #[test]
    fn single_thread_still_completes_diamonds() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        g.add_task(c, vec![wr(0)], 0.0);
        g.add_task(c, vec![rd(0), wr(1)], 0.0);
        g.add_task(c, vec![rd(0), wr(2)], 0.0);
        g.add_task(c, vec![rd(1), rd(2)], 0.0);
        let count = AtomicU64::new(0);
        let stats = WsExecutor::new(1).run(&g, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.tasks_executed, 4);
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let g = TaskGraph::new();
        let stats = WsExecutor::new(4).run(&g, |_| panic!("no tasks"));
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn metrics_record_per_run_aggregates() {
        let g = wide(50);
        let m = Metrics::enabled();
        let stats = scoped(4, &g, Arc::new(NoGate), None, &m, |_, _| {});
        let snap = m.snapshot();
        assert_eq!(snap.counter("wsexec.tasks"), Some(50));
        assert_eq!(snap.counter("wsexec.runs"), Some(1));
        assert_eq!(snap.counter("wsexec.steals"), Some(stats.steals));
        assert!(snap.gauge("wsexec.elapsed_ns").unwrap() > 0.0);
    }

    #[test]
    fn zero_threads_clamps_to_one_and_counts() {
        let g = wide(10);
        let m = Metrics::enabled();
        let worker_seen = AtomicU64::new(0);
        let stats = scoped(0, &g, Arc::new(NoGate), None, &m, |w, _| {
            worker_seen.fetch_max(w as u64, Ordering::Relaxed);
        });
        assert_eq!(stats.tasks_executed, 10);
        assert_eq!(worker_seen.load(Ordering::Relaxed), 0, "one worker ran");
        assert_eq!(m.snapshot().counter("wsexec.threads_clamped"), Some(1));
        assert_eq!(WsExecutor::new(0).run(&g, |_| {}).tasks_executed, 10);
        // The long-lived pool clamps by the same rule and reports it.
        let pool = TaskPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.shutdown().threads_clamped);
        // A sane request must not trip the counter.
        let m2 = Metrics::enabled();
        scoped(2, &g, Arc::new(NoGate), None, &m2, |_, _| {});
        assert_eq!(m2.snapshot().counter("wsexec.threads_clamped"), None);
        assert!(!TaskPool::new(2).shutdown().threads_clamped);
    }

    #[test]
    fn gate_runs_before_every_task_and_waits_are_summed() {
        struct CountingGate {
            calls: AtomicU64,
        }
        impl DataGate for CountingGate {
            fn wait_ready(&self, _t: &TaskSpec) -> f64 {
                self.calls.fetch_add(1, Ordering::Relaxed);
                5.0
            }
        }
        let g = wide(20);
        let gate = Arc::new(CountingGate {
            calls: AtomicU64::new(0),
        });
        let metrics = Metrics::disabled();
        let stats = scoped(4, &g, gate.clone(), None, &metrics, |_, _| {});
        assert_eq!(gate.calls.load(Ordering::Relaxed), 20);
        assert_eq!(stats.gate_wait_ns, 100.0);
    }

    #[test]
    fn worker_index_is_in_range() {
        let g = wide(100);
        let bad = AtomicU64::new(0);
        scoped(
            3,
            &g,
            Arc::new(NoGate),
            None,
            &Metrics::disabled(),
            |w, _| {
                if w >= 3 {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn traced_run_records_one_steal_sample_per_steal() {
        // Roots come off the injector, so any nonempty graph steals at
        // least once, and every steal records exactly one sample — on a
        // scoped run and on the long-lived pool alike.
        let check = |rec: &FlightRecorder, steals: u64| {
            let cap = rec.drain();
            assert_eq!(cap.total_dropped, 0);
            assert!(steals > 0);
            let (_, data) = cap
                .hists
                .iter()
                .find(|(k, _)| *k == "steal_ns")
                .expect("steal_ns histogram present");
            assert_eq!(data.count(), steals);
            assert!(data.summary().max >= 1.0, "searches take nonzero time");
        };
        let g = wide(200);
        let rec = FlightRecorder::new(4, 1 << 12, &["steal_ns"]);
        let metrics = Metrics::disabled();
        let stats = scoped(4, &g, Arc::new(NoGate), Some(&rec), &metrics, |_, _| {});
        check(&rec, stats.steals);

        let rec = Arc::new(FlightRecorder::new(4, 1, &["steal_ns"]));
        let pool = TaskPool::with_recorder(4, Some(Arc::clone(&rec)));
        pool.submit(JobSpec {
            tag: 0,
            graph: Arc::new(g),
            gate: Arc::new(NoGate),
            work: Arc::new(|_, _, _| {}),
            on_window: None,
            on_done: None,
        })
        .wait();
        check(&rec, pool.shutdown().steals);
    }

    /// A run that does not come back within a minute fails the test
    /// instead of hanging it.
    #[test]
    fn panicking_task_is_reraised_not_hung() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ran = AtomicU64::new(0);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                WsExecutor::new(2).run(&wide(64), |t| {
                    if t.id.0 == 5 {
                        panic!("boom");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let _ = tx.send((outcome.is_err(), ran.load(Ordering::Relaxed)));
        });
        let (raised, ran) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a panicking task must not hang the run");
        assert!(raised, "the panic reaches the caller");
        assert!(ran < 64, "the panicking task did not count as run");
    }

    #[test]
    fn wide_graph_uses_parallelism_without_double_execution() {
        // 1000 independent tasks each flip a dedicated flag; any double
        // execution would flip one back.
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..1000 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        let flags: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        WsExecutor::new(8).run(&g, |t| {
            flags[t.accesses[0].object.0 as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }
}
