//! Property tests for the task runtime: dependence derivation must yield
//! sound DAGs, the virtual-time scheduler must obey scheduling laws, and
//! the real executor must agree with both.

// The cross-check tests walk (task, task) index pairs over several
// parallel structures at once; explicit indices are the clearer idiom.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use std::sync::Arc;
use tahoe_hms::{AccessProfile, ObjectId};

use tahoe_taskrt::wsexec::WsExecutor;
use tahoe_taskrt::{
    AccessMode, JobSpec, NoGate, NullHooks, SimScheduler, TaskAccess, TaskGraph, TaskId, TaskPool,
    TaskSpec,
};

/// A compact description of a random task: which objects it touches and
/// how.
#[derive(Debug, Clone)]
struct RandTask {
    accesses: Vec<(u8, u8)>, // (object 0..6, mode 0..3)
    compute: u32,
}

fn task_strategy() -> impl Strategy<Value = RandTask> {
    (
        proptest::collection::vec((0u8..6, 0u8..3), 1..4),
        1u32..1000,
    )
        .prop_map(|(accesses, compute)| RandTask { accesses, compute })
}

fn accesses_of(t: &RandTask) -> Vec<TaskAccess> {
    t.accesses
        .iter()
        .map(|&(o, m)| {
            let mode = match m {
                0 => AccessMode::Read,
                1 => AccessMode::Write,
                _ => AccessMode::ReadWrite,
            };
            TaskAccess::new(ObjectId(o as u32), mode, AccessProfile::streaming(16, 8))
        })
        .collect()
}

fn build_graph(tasks: &[RandTask]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let c = g.class("rand");
    for t in tasks {
        g.add_task(c, accesses_of(t), t.compute as f64);
    }
    g
}

/// A graph cut into windows at the tasks whose draw is 0.
fn windowed_graph(tasks: &[(RandTask, u8)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let c = g.class("rand");
    for (i, (t, barrier)) in tasks.iter().enumerate() {
        if *barrier == 0 && i > 0 {
            g.mark_window();
        }
        g.add_task(c, accesses_of(t), t.compute as f64);
    }
    g
}

/// The objects (of 0..6) a window's deferral mask names.
fn masked(mask: u8) -> Vec<ObjectId> {
    (0..6)
        .filter(|k| mask & (1 << k) != 0)
        .map(ObjectId)
        .collect()
}

/// Per window: its undeferred roots, and the roots held back behind
/// them (none when no root is left to wait for).
fn deferred_roots(g: &TaskGraph, masks: &[u8]) -> Vec<(Vec<TaskId>, Vec<TaskId>)> {
    (0..g.window_count())
        .map(|w| {
            let defer = masked(masks[w as usize]);
            let tasks = g.window_tasks(w);
            let first = tasks.first().map_or(0, |t| t.index());
            let roots = tasks
                .into_iter()
                .filter(|&t| g.preds(t).iter().all(|p| p.index() < first));
            let (held, others): (Vec<TaskId>, Vec<TaskId>) = roots.partition(|&t| {
                let task = g.task(t);
                task.accesses.iter().any(|a| defer.contains(&a.object))
            });
            if others.is_empty() {
                (held, Vec::new())
            } else {
                (others, held)
            }
        })
        .collect()
}

/// What one run under a deferring hook did.
struct DeferredRun {
    /// Dependences or barriers seen broken.
    violations: u32,
    /// Every task ran exactly once.
    ran_once: bool,
    /// Roots the pool held back.
    deferred: u64,
    /// Tasks in the order they started.
    order: Vec<TaskId>,
}

/// Run `g` as one scoped job on `workers`, deferring by window per
/// `masks` (no hook at all for `None`).
fn run_deferring(g: &TaskGraph, workers: usize, masks: Option<Vec<u8>>) -> DeferredRun {
    use std::sync::atomic::{AtomicU32, Ordering};
    let ran: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
    let done_in: Vec<AtomicU32> = (0..g.window_count()).map(|_| AtomicU32::new(0)).collect();
    let violations = AtomicU32::new(0);
    let order = parking_lot::Mutex::new(Vec::new());
    let sizes: Vec<u32> = (0..g.window_count())
        .map(|w| g.window_tasks(w).len() as u32)
        .collect();
    let on_window = masks.map(|masks| {
        let (done_in, violations) = (&done_in, &violations);
        let sizes = &sizes;
        Box::new(move |w: u32| {
            let w = w as usize;
            // Entering `w`: every earlier window is done, `w` untouched.
            let earlier = (0..w).all(|v| done_in[v].load(Ordering::Acquire) == sizes[v]);
            if !earlier || done_in[w].load(Ordering::Acquire) != 0 {
                violations.fetch_add(1, Ordering::Relaxed);
            }
            masked(masks[w])
        }) as Box<tahoe_taskrt::pool::WindowHook<'_>>
    });
    let stats = tahoe_taskrt::run_scoped(
        workers,
        None,
        &tahoe_obs::Metrics::disabled(),
        JobSpec {
            tag: 0,
            graph: g,
            gate: Arc::new(NoGate),
            work: Arc::new(|_, _, task: &TaskSpec| {
                order.lock().push(task.id);
                if g.preds(task.id)
                    .iter()
                    .any(|p| ran[p.index()].load(Ordering::Acquire) == 0)
                {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                ran[task.id.index()].fetch_add(1, Ordering::Release);
                done_in[task.window as usize].fetch_add(1, Ordering::Release);
            }),
            on_window,
            on_done: None,
        },
    )
    .expect("no task panics");
    DeferredRun {
        violations: violations.load(Ordering::Relaxed),
        ran_once: ran.iter().all(|r| r.load(Ordering::Relaxed) == 1),
        deferred: stats.deferred,
        order: order.into_inner(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn derived_graphs_are_acyclic(tasks in proptest::collection::vec(task_strategy(), 1..60)) {
        let g = build_graph(&tasks);
        prop_assert!(g.verify_acyclic().is_ok());
    }

    #[test]
    fn scheduler_obeys_lower_bounds(
        tasks in proptest::collection::vec(task_strategy(), 1..60),
        workers in 1usize..8,
    ) {
        let g = build_graph(&tasks);
        let stats = SimScheduler::new(workers).run(&g, &mut NullHooks);
        let cp = g.critical_path_ns(|t| t.compute_ns);
        let work = g.total_work_ns(|t| t.compute_ns);
        // Makespan can never beat the critical path nor work/P.
        prop_assert!(stats.makespan_ns >= cp - 1e-6);
        prop_assert!(stats.makespan_ns >= work / workers as f64 - 1e-6);
        // Greedy list scheduling is within Graham's 2x bound of the
        // trivial lower bound max(cp, work/P).
        let lb = cp.max(work / workers as f64);
        prop_assert!(
            stats.makespan_ns <= 2.0 * lb + 1e-6,
            "makespan {} exceeds Graham bound (lb {})",
            stats.makespan_ns,
            lb
        );
        // Work conservation.
        let busy: f64 = stats.busy_ns.iter().sum();
        prop_assert!((busy - work).abs() < 1e-6);
        prop_assert_eq!(stats.tasks_executed as usize, g.len());
    }

    #[test]
    fn more_workers_never_hurt(
        tasks in proptest::collection::vec(task_strategy(), 1..50),
    ) {
        let g = build_graph(&tasks);
        let m1 = SimScheduler::new(1).run(&g, &mut NullHooks).makespan_ns;
        let m4 = SimScheduler::new(4).run(&g, &mut NullHooks).makespan_ns;
        // FIFO list scheduling on a DAG: not theoretically monotone in
        // general, but with identical dispatch order and no hooks it is
        // here; allow a tiny epsilon.
        prop_assert!(m4 <= m1 + 1e-6, "4 workers {m4} vs 1 worker {m1}");
    }

    // The one work-stealing loop, under both ownerships: a scoped batch
    // run (`WsExecutor::run`) and one job on the long-lived pool. The
    // graph is cut into windows at random barriers.
    #[test]
    fn ws_executor_runs_every_task_once_respecting_deps(
        tasks in proptest::collection::vec((task_strategy(), 0u8..5), 1..40),
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let g = Arc::new(windowed_graph(&tasks));
        let windows = g.window_count() as usize;

        // Per run: how often each task ran, how many tasks of each
        // window finished, when each window's hook fired.
        struct Seen {
            ran: Vec<AtomicU32>,
            done_in: Vec<AtomicU32>,
            entered: Vec<AtomicU32>,
            violations: AtomicU32,
        }
        let seen = || Arc::new(Seen {
            ran: (0..g.len()).map(|_| AtomicU32::new(0)).collect(),
            done_in: (0..windows).map(|_| AtomicU32::new(0)).collect(),
            entered: (0..windows).map(|_| AtomicU32::new(0)).collect(),
            violations: AtomicU32::new(0),
        });
        let work = |g: &TaskGraph, s: &Seen, task: &TaskSpec| {
            // All predecessors must have completed.
            for p in g.preds(task.id) {
                if s.ran[p.index()].load(Ordering::Acquire) == 0 {
                    s.violations.fetch_add(1, Ordering::Relaxed);
                }
            }
            s.ran[task.id.index()].fetch_add(1, Ordering::Release);
            s.done_in[task.window as usize].fetch_add(1, Ordering::Release);
        };

        let batch = seen();
        WsExecutor::new(4).run(&g, |task| work(&g, &batch, task));

        let pooled = seen();
        let sizes: Vec<u32> = (0..g.window_count()).map(|w| g.window_tasks(w).len() as u32).collect();
        let (in_work, in_hook, graph) = (Arc::clone(&pooled), Arc::clone(&pooled), Arc::clone(&g));
        let pool = TaskPool::new(4);
        pool.submit(JobSpec {
            tag: 0,
            graph: Arc::clone(&g),
            gate: Arc::new(NoGate),
            work: Arc::new(move |_, _, task| {
                // The task's window was entered first.
                let w = task.window as usize;
                if in_work.entered[w].load(Ordering::Acquire) != 1 {
                    in_work.violations.fetch_add(1, Ordering::Relaxed);
                }
                work(&graph, &in_work, task);
            }),
            // Entering `w`: every task of `w - 1` is done, none of `w` is.
            on_window: Some(Box::new(move |w| {
                let w = w as usize;
                if (w > 0 && in_hook.done_in[w - 1].load(Ordering::Acquire) != sizes[w - 1])
                    || in_hook.done_in[w].load(Ordering::Acquire) != 0
                {
                    in_hook.violations.fetch_add(1, Ordering::Relaxed);
                }
                in_hook.entered[w].fetch_add(1, Ordering::Release);
                Vec::new()
            })),
            on_done: None,
        })
        .wait();
        pool.shutdown();

        for s in [&batch, &pooled] {
            prop_assert_eq!(s.violations.load(Ordering::Relaxed), 0, "dependence or barrier violated");
            prop_assert!(s.ran.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
        prop_assert!(pooled.entered.iter().all(|e| e.load(Ordering::Relaxed) == 1), "every window's hook, the first's too");
    }

    // Deferred roots, at 1, 2 and 4 workers: every task runs once, every
    // dependence and barrier holds, and the pool counts what it held
    // back. At one worker, a window's deferred roots start after all of
    // its other roots.
    #[test]
    fn deferred_roots_run_once_after_their_windows_other_roots(
        tasks in proptest::collection::vec((task_strategy(), 0u8..5), 1..40),
        masks in proptest::collection::vec(0u8..64, 40..41),
    ) {
        let g = windowed_graph(&tasks);
        let expect = deferred_roots(&g, &masks);
        for workers in [1usize, 2, 4] {
            let run = run_deferring(&g, workers, Some(masks.clone()));
            prop_assert_eq!(run.violations, 0, "dependence or barrier violated at {} workers", workers);
            prop_assert!(run.ran_once, "a task ran twice or never at {} workers", workers);
            let held: usize = expect.iter().map(|(_, held)| held.len()).sum();
            prop_assert_eq!(run.deferred, held as u64);
            if workers == 1 {
                let at = |t: TaskId| run.order.iter().position(|&o| o == t).expect("ran");
                for (others, held) in &expect {
                    for &d in held {
                        prop_assert!(
                            others.iter().all(|&o| at(o) < at(d)),
                            "deferred root {:?} started before one of {:?}", d, others
                        );
                    }
                }
            }
        }
    }

    // A hook that defers nothing changes nothing: at one worker the
    // execution order is the hook-less one, task for task.
    #[test]
    fn deferring_nothing_keeps_the_execution_order(
        tasks in proptest::collection::vec((task_strategy(), 0u8..5), 1..40),
    ) {
        let g = windowed_graph(&tasks);
        let plain = run_deferring(&g, 1, None);
        let hooked = run_deferring(&g, 1, Some(vec![0; 40]));
        prop_assert_eq!(&plain.order, &hooked.order);
        prop_assert_eq!(hooked.deferred, 0);
    }

    // Every root of every window deferred: there is nothing to wait for,
    // so they all go at once, and the run completes.
    #[test]
    fn a_window_of_deferred_roots_runs(
        tasks in proptest::collection::vec((task_strategy(), 0u8..5), 1..40),
        workers in 1usize..5,
    ) {
        let g = windowed_graph(&tasks);
        let run = run_deferring(&g, workers, Some(vec![63; 40]));
        prop_assert_eq!(run.violations, 0);
        prop_assert!(run.ran_once);
        prop_assert_eq!(run.deferred, 0, "nothing was held back");
    }

    // Cross-check against the sanitizer's independently built
    // happens-before closure: the bitset ancestor rows must agree exactly
    // with plain BFS reachability over the derived dependence edges.
    #[test]
    fn happens_before_closure_matches_bfs_reachability(
        tasks in proptest::collection::vec(task_strategy(), 1..40),
    ) {
        let g = build_graph(&tasks);
        let hb = tahoe_sanitize::HappensBefore::from_graph(&g);
        let n = g.len();
        // Reference closure: BFS from every task along predecessor edges.
        let mut reach = vec![vec![false; n]; n];
        for t in 0..n {
            let mut stack: Vec<usize> = g.preds(tahoe_taskrt::TaskId(t as u32))
                .iter().map(|p| p.index()).collect();
            while let Some(p) = stack.pop() {
                if !reach[t][p] {
                    reach[t][p] = true;
                    stack.extend(g.preds(tahoe_taskrt::TaskId(p as u32)).iter().map(|q| q.index()));
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    hb.happens_before(tahoe_taskrt::TaskId(a as u32), tahoe_taskrt::TaskId(b as u32)),
                    reach[b][a],
                    "hb({}, {}) disagrees with BFS reachability", a, b
                );
            }
        }
    }

    // Soundness of dependence derivation, judged by the sanitizer: every
    // declared pair that conflicts on an object (at least one writer)
    // must come out *ordered* in the happens-before relation — the exact
    // property the dynamic race detector relies on.
    #[test]
    fn derived_deps_order_every_declared_conflict(
        tasks in proptest::collection::vec(task_strategy(), 1..40),
    ) {
        let g = build_graph(&tasks);
        let hb = tahoe_sanitize::HappensBefore::from_graph(&g);
        let writes = |m: u8| m == 1 || m == 2; // Write | ReadWrite
        for (i, a) in tasks.iter().enumerate() {
            for (j, b) in tasks.iter().enumerate().skip(i + 1) {
                let conflict = a.accesses.iter().any(|&(oa, ma)|
                    b.accesses.iter().any(|&(ob, mb)| oa == ob && (writes(ma) || writes(mb))));
                if conflict {
                    prop_assert!(
                        hb.ordered(tahoe_taskrt::TaskId(i as u32), tahoe_taskrt::TaskId(j as u32)),
                        "conflicting tasks {} and {} are unordered", i, j
                    );
                }
            }
        }
    }

    // Window barriers order tasks across windows even with no dependence
    // path between them.
    #[test]
    fn window_barriers_order_cross_window_tasks(
        sizes in proptest::collection::vec(1usize..6, 2..5),
    ) {
        let mut g = TaskGraph::new();
        let c = g.class("w");
        let mut window_of = Vec::new();
        for (w, &n) in sizes.iter().enumerate() {
            for k in 0..n {
                // Disjoint objects: no dependence edges at all.
                g.add_task(
                    c,
                    vec![TaskAccess::new(
                        ObjectId((w * 8 + k) as u32),
                        AccessMode::ReadWrite,
                        AccessProfile::EMPTY,
                    )],
                    1.0,
                );
                window_of.push(w as u32);
            }
            if w + 1 < sizes.len() {
                g.mark_window();
            }
        }
        let hb = tahoe_sanitize::HappensBefore::from_graph(&g);
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (ta, tb) = (tahoe_taskrt::TaskId(a as u32), tahoe_taskrt::TaskId(b as u32));
                prop_assert_eq!(
                    hb.happens_before(ta, tb),
                    window_of[a] < window_of[b],
                    "window ordering wrong for tasks {} (w{}) and {} (w{})",
                    a, window_of[a], b, window_of[b]
                );
            }
        }
    }

    #[test]
    fn windows_partition_all_tasks(
        sizes in proptest::collection::vec(1usize..10, 1..8),
    ) {
        let mut g = TaskGraph::new();
        let c = g.class("w");
        for (w, &n) in sizes.iter().enumerate() {
            for _ in 0..n {
                g.add_task(
                    c,
                    vec![TaskAccess::new(
                        ObjectId(0),
                        AccessMode::ReadWrite,
                        AccessProfile::EMPTY,
                    )],
                    1.0,
                );
            }
            if w + 1 < sizes.len() {
                g.mark_window();
            }
        }
        prop_assert_eq!(g.window_count() as usize, sizes.len());
        let mut total = 0;
        for w in 0..g.window_count() {
            let tasks = g.window_tasks(w);
            prop_assert_eq!(tasks.len(), sizes[w as usize]);
            total += tasks.len();
        }
        prop_assert_eq!(total, g.len());
    }
}
