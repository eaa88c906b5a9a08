//! The work-stealing loop: workers executing many task graphs at once.
//!
//! This module holds the only scheduler in the repository. Workers run
//! one Chase–Lev loop — local deque, then the shared injector, then
//! peers — over *jobs*: each [`JobSpec`] carries its own graph,
//! [`DataGate`], work closure and a caller-chosen `tag` (the tenant id
//! in the server), and ready tasks of all active jobs interleave on the
//! shared deques. Window barriers are *per job*: the worker that
//! retires a job's last task of window `w` opens the job's next window
//! (running its `on_window` hook — the plan hand-off point) and seeds
//! that window's roots, while tasks of other jobs keep flowing around
//! it. The hook (which also runs for the first window, on submission)
//! may name objects whose roots start last: those roots are *deferred*,
//! published by the worker that takes the window's last other root —
//! so tasks whose data is already in place run while copies land.
//!
//! The loop is generic over how its threads and job state are owned:
//!
//! * [`TaskPool`] spawns long-lived threads over `'static` jobs held by
//!   `Arc` — the multi-tenant server's shape, where one tenant's
//!   barrier never stalls another tenant's ready tasks.
//! * [`run_scoped`] runs one job on scoped threads that borrow its
//!   state, so its closures keep borrowing the caller's — a batch run
//!   (and [`crate::wsexec::WsExecutor::run`]) is exactly one such job.
//!
//! Dependence counting uses release/acquire atomics: the decrement a
//! finishing task performs on each same-window successor's pending
//! count releases its writes, and the worker that drops the count to
//! zero (and will run the successor) acquires them.
//!
//! A task whose gate or work closure panics fails its job instead of
//! hanging it: the loop contains the unwind, retires the job's
//! remaining tasks without running them, and reports the
//! [`TaskPanic`] through `on_done`, [`JobHandle::failure`] and
//! [`run_scoped`]'s result.

use std::any::Any;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Stealer, Worker};
use crossbeam::utils::Backoff;
use tahoe_hms::ObjectId;
use tahoe_obs::{FlightRecorder, Metrics};

use crate::graph::TaskGraph;
use crate::task::{TaskId, TaskSpec};
use crate::wsexec::{DataGate, WsStats};

/// One schedulable unit: a task of a specific job, and whether taking
/// it counts toward publishing the job's deferred roots (it is an
/// undeferred root of a window that holds some back). `J` points at
/// the job's state: an `Arc` on the long-lived pool, a borrow in a
/// scoped run.
type Unit<J> = (J, TaskId, bool);

/// How a [`TaskPool`] holds a job.
type PoolJob = Arc<JobState<'static, Arc<TaskGraph>>>;

/// Work closure: `(worker index, job tag, task)`. The tag is the
/// caller's routing key — the multi-tenant server passes the tenant id,
/// so every executed task knows which tenant it ran for.
pub type PoolWork<'a> = dyn Fn(usize, u32, &TaskSpec) + Send + Sync + 'a;

/// Per-window hook, called when the job enters the given window — the
/// first on the submitting thread, every later one on the worker that
/// crosses the barrier into it — unless the job has failed. It returns
/// the objects (any order) whose tasks should start last: the window's
/// roots that declare any of them are *deferred*, published only once
/// every other root of the window has been taken (at once if there is
/// no other).
pub type WindowHook<'a> = dyn Fn(u32) -> Vec<ObjectId> + Send + Sync + 'a;

/// Completion hook; receives the job's failure, if any.
pub type DoneHook<'a> = dyn FnOnce(Option<&TaskPanic>) + Send + 'a;

/// Why a job failed: the first of its tasks whose gate or work closure
/// panicked. The job's later tasks were retired without running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The task that panicked.
    pub task: TaskId,
    /// The panic message (empty for a non-string payload).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task.0, self.message)
    }
}

/// A task graph submission. `G` is how the job holds its graph: an
/// `Arc` on the long-lived pool, a borrow under [`run_scoped`].
pub struct JobSpec<'a, G = Arc<TaskGraph>> {
    /// Caller's routing key, handed to every `work` call (tenant id).
    pub tag: u32,
    /// The graph to execute, window barriers respected per job.
    pub graph: G,
    /// Data-readiness gate consulted before every task.
    pub gate: Arc<dyn DataGate + Send + Sync + 'a>,
    /// Per-task work closure.
    pub work: Arc<PoolWork<'a>>,
    /// Barrier hook: runs when the job enters window `w` (the first
    /// window included), before that window's roots are published, and
    /// names the objects whose roots wait for the others. Migration
    /// plans are handed over here. Must not panic.
    pub on_window: Option<Box<WindowHook<'a>>>,
    /// Completion hook: runs exactly once, on the worker that retires
    /// the job's last task, before `JobHandle::wait` unblocks. Must not
    /// panic.
    pub on_done: Option<Box<DoneHook<'a>>>,
}

/// Internal per-job execution state.
struct JobState<'a, G> {
    tag: u32,
    graph: G,
    gate: Arc<dyn DataGate + Send + Sync + 'a>,
    work: Arc<PoolWork<'a>>,
    on_window: Option<Box<WindowHook<'a>>>,
    on_done: Mutex<Option<Box<DoneHook<'a>>>>,
    /// Pending same-window predecessor counts, indexed by task.
    pending: Vec<AtomicU32>,
    /// End of the open window: tasks are stored in window order, so
    /// every task below this index is in the open window or a closed
    /// one.
    opened: AtomicUsize,
    /// Tasks left in the open window.
    remaining: AtomicUsize,
    /// The open window's deferred roots, until `holding` reaches zero.
    deferred: Mutex<Vec<TaskId>>,
    /// Undeferred roots of the open window not yet taken while
    /// `deferred` waits on them.
    holding: AtomicUsize,
    /// Roots deferred over the job's life.
    deferred_total: AtomicU64,
    /// Summed gate wait, whole ns.
    gate_wait: AtomicU64,
    /// Set by the first task that panics.
    failed: OnceLock<TaskPanic>,
    /// Completion flag + wakeup for `JobHandle::wait`.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl<'a, G: Deref<Target = TaskGraph>> JobState<'a, G> {
    fn new(spec: JobSpec<'a, G>) -> Self {
        JobState {
            pending: (0..spec.graph.len()).map(|_| AtomicU32::new(0)).collect(),
            tag: spec.tag,
            graph: spec.graph,
            gate: spec.gate,
            work: spec.work,
            on_window: spec.on_window,
            on_done: Mutex::new(spec.on_done),
            opened: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            deferred: Mutex::new(Vec::new()),
            holding: AtomicUsize::new(0),
            deferred_total: AtomicU64::new(0),
            gate_wait: AtomicU64::new(0),
            failed: OnceLock::new(),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }
}

/// Handle to one job submitted to a [`TaskPool`].
pub struct JobHandle {
    state: PoolJob,
}

impl JobHandle {
    /// Block until the job's last task retired (and its `on_done` hook
    /// returned).
    pub fn wait(&self) {
        let mut done = self.state.done.lock().expect("job done flag");
        while !*done {
            done = self.state.done_cv.wait(done).expect("job done flag");
        }
    }

    /// The panic that failed the job, if one did.
    pub fn failure(&self) -> Option<&TaskPanic> {
        self.state.failed.get()
    }

    /// Total wall-clock ns this job's tasks spent blocked in the gate.
    pub fn gate_wait_ns(&self) -> f64 {
        self.state.gate_wait.load(Ordering::Relaxed) as f64
    }

    /// The job's routing tag.
    pub fn tag(&self) -> u32 {
        self.state.tag
    }
}

/// Aggregate statistics over the pool's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed across all jobs.
    pub tasks_executed: u64,
    /// Successful steals (injector or peer acquisitions).
    pub steals: u64,
    /// Jobs retired (failed ones included).
    pub jobs_completed: u64,
    /// Whether 0 workers were requested and the pool ran with 1.
    pub threads_clamped: bool,
}

/// Longest an idle worker sleeps before looking for work again: the
/// backstop behind [`Idle`]'s wake-ups.
const IDLE_BACKSTOP: Duration = Duration::from_micros(200);

/// An event count idle workers sleep on. Whoever makes work stealable
/// bumps the epoch and wakes the sleepers; a worker reads the epoch
/// before its last look for work and sleeps only while it is unchanged,
/// so a push between that look and the sleep cannot be missed.
struct Idle {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Idle {
    fn new() -> Self {
        Idle {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The epoch to hand [`Idle::sleep`]; read before the last look
    /// for work.
    fn key(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Sleep until the epoch moves past `key`, at most the backstop.
    fn sleep(&self, key: u64) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        if self.epoch.load(Ordering::SeqCst) == key {
            let _ = self.wake.wait_timeout(guard, IDLE_BACKSTOP);
        } else {
            drop(guard);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Work became stealable (or the loop is ending): move the epoch
    /// and wake every sleeper.
    fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            self.wake.notify_all();
        }
    }

    /// [`Idle::notify`] only if a worker is asleep: for local pushes,
    /// which the pushing worker runs itself if nobody steals them.
    fn notify_sleepers(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.notify();
        }
    }
}

/// The state every worker of one loop shares.
struct Shared<J> {
    injector: Injector<Unit<J>>,
    stealers: Vec<Stealer<Unit<J>>>,
    clamped: bool,
    /// Workers leave once this is set and no job is active.
    shutdown: AtomicBool,
    active_jobs: AtomicUsize,
    idle: Idle,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    jobs_completed: AtomicU64,
}

impl<'a, G, J> Shared<J>
where
    G: Deref<Target = TaskGraph> + 'a,
    J: Deref<Target = JobState<'a, G>> + Clone,
{
    /// The shared state and one local deque per worker. `threads == 0`
    /// (e.g. a miscomputed `cores - N`) is clamped to one worker with a
    /// warning on stderr rather than panicking — a degraded run beats an
    /// aborted one — and the clamp is reported in the stats.
    fn new(threads: usize) -> (Self, Vec<Worker<Unit<J>>>) {
        if threads == 0 {
            eprintln!("taskrt: 0 worker threads requested; clamping to 1");
        }
        let locals: Vec<_> = (0..threads.max(1)).map(|_| Worker::new_lifo()).collect();
        let shared = Shared {
            injector: Injector::new(),
            stealers: locals.iter().map(Worker::stealer).collect(),
            clamped: threads == 0,
            shutdown: AtomicBool::new(false),
            active_jobs: AtomicUsize::new(0),
            idle: Idle::new(),
            tasks_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
        };
        (shared, locals)
    }

    /// Make a job runnable: its first window's roots become stealable.
    /// An empty graph retires here, on the caller (hooks still run).
    fn submit(&self, job: &J) {
        self.active_jobs.fetch_add(1, Ordering::AcqRel);
        self.advance(job);
    }

    /// One worker: local deque first, then the injector, then peers.
    ///
    /// Every successful steal (injector or peer acquisition; local pops
    /// are excluded) is counted, and with a recorder attached the
    /// wall-clock ns the search took goes to the `steal_ns` histogram
    /// on this worker's lane. The search timestamp is only taken then,
    /// so the untraced hot path pays nothing for the tap.
    fn worker_loop(&self, me: usize, local: Worker<Unit<J>>, recorder: Option<&FlightRecorder>) {
        let backoff = Backoff::new();
        loop {
            let mut unit = self.find(me, &local, recorder);
            // The one idle rule: bounded spin, then yield, then sleep
            // until work is pushed (at most the backstop) — a server's
            // idle worker must not burn a core, nor a batch worker
            // compete with the migrator. The epoch is read before the
            // last look, so a push after that look ends the sleep.
            let mut sleep_key = None;
            if unit.is_none() && backoff.is_completed() {
                sleep_key = Some(self.idle.key());
                unit = self.find(me, &local, recorder);
            }
            match unit {
                Some((job, tid, holds)) => {
                    backoff.reset();
                    if holds {
                        self.took_holding_root(&job);
                    }
                    self.run_task(me, job, tid, &local);
                }
                None => {
                    if self.shutdown.load(Ordering::Acquire)
                        && self.active_jobs.load(Ordering::Acquire) == 0
                    {
                        break;
                    }
                    match sleep_key {
                        Some(key) => self.idle.sleep(key),
                        None => backoff.snooze(),
                    }
                }
            }
        }
    }

    /// The next unit for worker `me`: its own deque, then the injector,
    /// then its peers.
    fn find(
        &self,
        me: usize,
        local: &Worker<Unit<J>>,
        recorder: Option<&FlightRecorder>,
    ) -> Option<Unit<J>> {
        local.pop().or_else(|| {
            let search_t0 = recorder.map(|_| Instant::now());
            std::iter::repeat_with(|| {
                self.injector.steal_batch_and_pop(local).or_else(|| {
                    self.stealers
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != me)
                        .map(|(_, s)| s.steal())
                        .collect()
                })
            })
            .find(|s| !s.is_retry())
            .and_then(|s| s.success())
            .inspect(|_| {
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let (Some(rec), Some(t0)) = (recorder, search_t0) {
                    rec.record(me, "steal_ns", t0.elapsed().as_nanos() as f64);
                }
            })
        })
    }

    fn run_task(&self, me: usize, job: J, tid: TaskId, local: &Worker<Unit<J>>) {
        let spec = job.graph.task(tid);
        // A failed job's remaining tasks retire without running. The
        // unwind is contained here so the countdown below always runs;
        // nothing the panicking task half-did is presented as a result.
        if job.failed.get().is_none() {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let waited = job.gate.wait_ready(spec);
                if waited > 0.0 {
                    job.gate_wait.fetch_add(waited as u64, Ordering::Relaxed);
                }
                (job.work)(me, job.tag, spec);
            }));
            match ran {
                Ok(()) => {
                    self.tasks_executed.fetch_add(1, Ordering::Relaxed);
                }
                Err(payload) => {
                    let _ = job.failed.set(TaskPanic {
                        task: tid,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        let window_end = job.opened.load(Ordering::Relaxed);
        for &s in job.graph.succs(tid) {
            // A later window's successor is seeded when its window
            // opens. Otherwise release our writes; the zero-observer
            // acquires them before running `s`.
            if s.index() < window_end && job.pending[s.index()].fetch_sub(1, Ordering::AcqRel) == 1
            {
                local.push((job.clone(), s, false));
                self.idle.notify_sleepers();
            }
        }
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.advance(&job);
        }
    }

    /// An undeferred root of a window holding deferred roots back was
    /// taken; the worker that takes the last one publishes them.
    fn took_holding_root(&self, job: &J) {
        if job.holding.fetch_sub(1, Ordering::AcqRel) == 1 {
            let held = std::mem::take(&mut *job.deferred.lock().expect("deferred roots"));
            for t in held {
                self.injector.push((job.clone(), t, false));
            }
            self.idle.notify();
        }
    }

    /// Cross the job's window barrier: open its next window (the
    /// `on_window` hook, then that window's roots — the deferred ones
    /// held back) or retire the job. Only the submitter and then the
    /// worker that retired a window's last task get here, so this is
    /// single-threaded per job.
    fn advance(&self, job: &J) {
        let tasks = job.graph.tasks();
        let start = job.opened.load(Ordering::Relaxed);
        let Some(first) = tasks.get(start) else {
            return self.retire(job);
        };
        let len = tasks[start..]
            .iter()
            .take_while(|t| t.window == first.window)
            .count();
        job.opened.store(start + len, Ordering::Relaxed);
        let mut defer = match &job.on_window {
            Some(cb) if job.failed.get().is_none() => cb(first.window),
            _ => Vec::new(),
        };
        defer.sort_unstable();
        let deferred = |t: &TaskSpec| {
            let mut objects = t.accesses.iter().map(|a| &a.object);
            !defer.is_empty() && objects.any(|o| defer.binary_search(o).is_ok())
        };
        // Edges point forward, so a predecessor is in this window iff
        // its index is at least `start`; earlier windows are satisfied
        // by the barrier.
        let (mut roots, mut held) = (Vec::new(), Vec::new());
        for t in &tasks[start..start + len] {
            let preds = job.graph.preds(t.id);
            let p = preds.iter().filter(|p| p.index() >= start).count();
            job.pending[t.id.index()].store(p as u32, Ordering::Relaxed);
            match p {
                0 if deferred(t) => held.push(t.id),
                0 => roots.push(t.id),
                _ => {}
            }
        }
        job.remaining.store(len, Ordering::Release);
        // With no other root to wait for, the deferred ones go now.
        if roots.is_empty() {
            std::mem::swap(&mut roots, &mut held);
        }
        let holds = !held.is_empty();
        if holds {
            job.deferred_total
                .fetch_add(held.len() as u64, Ordering::Relaxed);
            *job.deferred.lock().expect("deferred roots") = held;
            job.holding.store(roots.len(), Ordering::Release);
        }
        for t in roots {
            self.injector.push((job.clone(), t, holds));
        }
        self.idle.notify();
    }

    /// No windows left: run `on_done`, then wake the waiters (and, once
    /// the loop is shutting down, the idle workers, so they leave now).
    fn retire(&self, job: &JobState<'a, G>) {
        if let Some(cb) = job.on_done.lock().expect("on_done slot").take() {
            cb(job.failed.get());
        }
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.active_jobs.fetch_sub(1, Ordering::AcqRel);
        if self.shutdown.load(Ordering::Acquire) {
            self.idle.notify();
        }
        *job.done.lock().expect("job done flag") = true;
        job.done_cv.notify_all();
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// A long-lived multi-graph work-stealing pool.
///
/// Workers are real OS threads spawned at construction and joined at
/// [`shutdown`](TaskPool::shutdown); submissions interleave freely.
pub struct TaskPool {
    shared: Arc<Shared<PoolJob>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl TaskPool {
    /// A pool with `threads` workers (`0` clamps to 1 and is reported
    /// in [`PoolStats::threads_clamped`]).
    pub fn new(threads: usize) -> Self {
        Self::with_recorder(threads, None)
    }

    /// [`new`](Self::new) with a flight recorder of at least `threads`
    /// lanes: worker `i` records every steal's search time into lane
    /// `i`'s `steal_ns` histogram. Drain it after
    /// [`shutdown`](Self::shutdown).
    pub fn with_recorder(threads: usize, recorder: Option<Arc<FlightRecorder>>) -> Self {
        let (shared, locals) = Shared::new(threads);
        let shared = Arc::new(shared);
        let threads = locals
            .into_iter()
            .enumerate()
            .map(|(me, local)| {
                let shared = Arc::clone(&shared);
                let recorder = recorder.clone();
                std::thread::Builder::new()
                    .name(format!("tahoe-pool-{me}"))
                    .spawn(move || shared.worker_loop(me, local, recorder.as_deref()))
                    .expect("spawn pool worker")
            })
            .collect();
        TaskPool { shared, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Jobs submitted but not yet completed.
    pub fn active_jobs(&self) -> usize {
        self.shared.active_jobs.load(Ordering::Acquire)
    }

    /// Submit a job; its first window's roots become stealable
    /// immediately.
    ///
    /// An empty graph completes synchronously (hooks still run).
    pub fn submit(&self, spec: JobSpec<'static>) -> JobHandle {
        let state = Arc::new(JobState::new(spec));
        self.shared.submit(&state);
        JobHandle { state }
    }

    /// Stop the workers and return lifetime statistics.
    ///
    /// The workers drain all active jobs first, so no submitted work is
    /// abandoned.
    pub fn shutdown(self) -> PoolStats {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle.notify();
        for h in self.threads {
            let _ = h.join();
        }
        PoolStats {
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            jobs_completed: self.shared.jobs_completed.load(Ordering::Relaxed),
            threads_clamped: self.shared.clamped,
        }
    }
}

/// Run one job to completion on `threads` scoped workers — the batch
/// shape of the loop: the job's closures may borrow from the caller,
/// and the threads are gone when this returns.
///
/// `recorder` (lanes `0..threads`) receives the `steal_ns` samples;
/// `metrics` the per-run `wsexec.*` aggregates, folded in once after the
/// workers join. Returns the panic of the first task that failed the
/// job, if one did.
pub fn run_scoped<'a, G: Deref<Target = TaskGraph> + Send + Sync>(
    threads: usize,
    recorder: Option<&FlightRecorder>,
    metrics: &Metrics,
    spec: JobSpec<'a, G>,
) -> Result<WsStats, TaskPanic> {
    let started = Instant::now();
    let job = JobState::new(spec);
    let (shared, locals) = Shared::new(threads);
    shared.submit(&&job);
    // One job, already submitted: the workers leave when it retires.
    shared.shutdown.store(true, Ordering::Release);
    std::thread::scope(|scope| {
        for (me, local) in locals.into_iter().enumerate() {
            let shared = &shared;
            scope.spawn(move || shared.worker_loop(me, local, recorder));
        }
    });
    let stats = WsStats {
        tasks_executed: shared.tasks_executed.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
        gate_wait_ns: job.gate_wait.load(Ordering::Relaxed) as f64,
        deferred: job.deferred_total.load(Ordering::Relaxed),
    };
    if shared.clamped {
        metrics.inc("wsexec.threads_clamped");
    }
    metrics.add("wsexec.tasks", stats.tasks_executed);
    metrics.add("wsexec.steals", stats.steals);
    metrics.inc("wsexec.runs");
    metrics.gauge_add("wsexec.elapsed_ns", stats.elapsed.as_nanos() as f64);
    metrics.gauge_add("wsexec.gate_wait_ns", stats.gate_wait_ns);
    match job.failed.get() {
        Some(panic) => Err(panic.clone()),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AccessMode, TaskAccess};
    use crate::wsexec::NoGate;
    use std::sync::atomic::AtomicI64;
    use tahoe_hms::{AccessProfile, ObjectId};

    fn wr(o: u32) -> TaskAccess {
        TaskAccess::new(ObjectId(o), AccessMode::Write, AccessProfile::EMPTY)
    }

    fn rd(o: u32) -> TaskAccess {
        TaskAccess::new(ObjectId(o), AccessMode::Read, AccessProfile::EMPTY)
    }

    fn job(graph: TaskGraph, tag: u32, work: Arc<PoolWork<'static>>) -> JobSpec<'static> {
        JobSpec {
            tag,
            graph: Arc::new(graph),
            gate: Arc::new(NoGate),
            work,
            on_window: None,
            on_done: None,
        }
    }

    #[test]
    fn two_jobs_interleave_and_both_complete() {
        let pool = TaskPool::new(2);
        let counts: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        let counts = Arc::new(counts);
        let handles: Vec<JobHandle> = (0..2u32)
            .map(|tag| {
                let mut g = TaskGraph::new();
                let c = g.class("x");
                for i in 0..100 {
                    g.add_task(c, vec![wr(i)], 0.0);
                }
                let counts = Arc::clone(&counts);
                pool.submit(job(
                    g,
                    tag,
                    Arc::new(move |_, t, _| {
                        counts[t as usize].fetch_add(1, Ordering::Relaxed);
                    }),
                ))
            })
            .collect();
        for h in &handles {
            h.wait();
        }
        assert_eq!(counts[0].load(Ordering::Relaxed), 100);
        assert_eq!(counts[1].load(Ordering::Relaxed), 100);
        let stats = pool.shutdown();
        assert_eq!(stats.tasks_executed, 200);
        assert_eq!(stats.jobs_completed, 2);
    }

    #[test]
    fn tag_reaches_every_work_call() {
        let pool = TaskPool::new(2);
        let bad = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..50 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        let bad2 = Arc::clone(&bad);
        let h = pool.submit(job(
            g,
            7,
            Arc::new(move |_, tag, _| {
                if tag != 7 {
                    bad2.fetch_add(1, Ordering::Relaxed);
                }
            }),
        ));
        h.wait();
        assert_eq!(h.tag(), 7);
        assert_eq!(bad.load(Ordering::Relaxed), 0);
        pool.shutdown();
    }

    #[test]
    fn dependence_chain_order_is_respected() {
        let pool = TaskPool::new(4);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for _ in 0..64 {
            // Read-write on one object: a total chain.
            g.add_task(
                c,
                vec![TaskAccess::new(
                    ObjectId(0),
                    AccessMode::ReadWrite,
                    AccessProfile::EMPTY,
                )],
                0.0,
            );
        }
        let log2 = Arc::clone(&log);
        let h = pool.submit(job(
            g,
            0,
            Arc::new(move |_, _, t| {
                log2.lock().push(t.id.0);
            }),
        ));
        h.wait();
        let expect: Vec<u32> = (0..64).collect();
        assert_eq!(*log.lock(), expect);
        pool.shutdown();
    }

    #[test]
    fn window_barrier_is_per_job_and_on_window_fires() {
        let pool = TaskPool::new(4);
        // Job with 3 windows of 8 tasks; each window reads the previous
        // window's objects.
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..8 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        g.mark_window();
        for i in 0..8 {
            g.add_task(c, vec![rd(i), wr(8 + i)], 0.0);
        }
        g.mark_window();
        for i in 0..8 {
            g.add_task(c, vec![rd(8 + i), wr(16 + i)], 0.0);
        }
        let windows_seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let order_ok = Arc::new(AtomicU64::new(1));
        let max_done_window = Arc::new(AtomicI64::new(-1));
        let ws = Arc::clone(&windows_seen);
        let windows_seen2 = Arc::clone(&windows_seen);
        let ok = Arc::clone(&order_ok);
        let mx = Arc::clone(&max_done_window);
        let h = pool.submit(JobSpec {
            tag: 0,
            graph: Arc::new(g),
            gate: Arc::new(NoGate),
            work: Arc::new(move |_, _, t| {
                // A task runs in the last window the hook entered: never
                // before its window opened, never after the next one did.
                let entered = ws.lock().len() as i64;
                if t.window as i64 != entered - 1 {
                    ok.store(0, Ordering::Relaxed);
                }
                mx.fetch_max(t.window as i64, Ordering::Relaxed);
            }),
            on_window: Some(Box::new(move |w| {
                windows_seen.lock().push(w);
                Vec::new()
            })),
            on_done: None,
        });
        h.wait();
        assert_eq!(order_ok.load(Ordering::Relaxed), 1, "barrier violated");
        assert_eq!(max_done_window.load(Ordering::Relaxed), 2);
        assert_eq!(
            *windows_seen2.lock(),
            [0, 1, 2],
            "every window, the first too"
        );
        pool.shutdown();
    }

    #[test]
    fn on_done_runs_before_wait_returns() {
        let pool = TaskPool::new(2);
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..10 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let h = pool.submit(JobSpec {
            tag: 0,
            graph: Arc::new(g),
            gate: Arc::new(NoGate),
            work: Arc::new(|_, _, _| {}),
            on_window: None,
            on_done: Some(Box::new(move |_| {
                f2.store(1, Ordering::Release);
            })),
        });
        h.wait();
        assert_eq!(flag.load(Ordering::Acquire), 1);
        pool.shutdown();
    }

    #[test]
    fn empty_graph_completes_synchronously() {
        let pool = TaskPool::new(1);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&done);
        let h = pool.submit(JobSpec {
            on_done: Some(Box::new(move |_| {
                d2.store(1, Ordering::Release);
            })),
            ..job(TaskGraph::new(), 0, Arc::new(|_, _, _| {}))
        });
        // The hook ran inside `submit`, before anyone waited.
        assert_eq!(done.load(Ordering::Acquire), 1);
        h.wait();
        let stats = pool.shutdown();
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn gate_waits_are_summed_per_job() {
        struct FixedGate;
        impl DataGate for FixedGate {
            fn wait_ready(&self, _t: &TaskSpec) -> f64 {
                3.0
            }
        }
        let pool = TaskPool::new(2);
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..20 {
            g.add_task(c, vec![wr(i)], 0.0);
        }
        let h = pool.submit(JobSpec {
            tag: 0,
            graph: Arc::new(g),
            gate: Arc::new(FixedGate),
            work: Arc::new(|_, _, _| {}),
            on_window: None,
            on_done: None,
        });
        h.wait();
        assert_eq!(h.gate_wait_ns(), 60.0);
        pool.shutdown();
    }

    #[test]
    fn many_jobs_from_many_submitter_threads() {
        let pool = Arc::new(TaskPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for tag in 0..8u32 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..4 {
                        let mut g = TaskGraph::new();
                        let c = g.class("x");
                        for i in 0..25 {
                            g.add_task(c, vec![wr(i)], 0.0);
                        }
                        let total = Arc::clone(&total);
                        let h = pool.submit(JobSpec {
                            tag,
                            graph: Arc::new(g),
                            gate: Arc::new(NoGate),
                            work: Arc::new(move |_, _, _| {
                                total.fetch_add(1, Ordering::Relaxed);
                            }),
                            on_window: None,
                            on_done: None,
                        });
                        h.wait();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 4 * 25);
        let stats = Arc::try_unwrap(pool).ok().expect("sole owner").shutdown();
        assert_eq!(stats.jobs_completed, 32);
    }

    /// Lost-wakeup stress: four threads each submit a job and wait for
    /// it, 10 000 jobs per pool of 1–4 workers, so workers fall idle
    /// between jobs and are woken by submissions and by barriers
    /// crossed on a peer. Every task runs once, every job retires and
    /// shutdown returns — inside a minute.
    #[test]
    fn idle_workers_wake_for_every_submission() {
        const JOBS: u64 = 10_000;
        const SUBMITTERS: u64 = 4;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            for workers in 1..=4 {
                let pool = TaskPool::new(workers);
                let ran = Arc::new(AtomicU64::new(0));
                std::thread::scope(|scope| {
                    for _ in 0..SUBMITTERS {
                        let (pool, ran) = (&pool, &ran);
                        scope.spawn(move || {
                            for _ in 0..JOBS / SUBMITTERS {
                                // Two windows of three independent tasks.
                                let mut g = TaskGraph::new();
                                let c = g.class("x");
                                for w in 0..2 {
                                    if w > 0 {
                                        g.mark_window();
                                    }
                                    for i in 0..3 {
                                        g.add_task(c, vec![wr(i)], 0.0);
                                    }
                                }
                                let ran = Arc::clone(ran);
                                pool.submit(job(
                                    g,
                                    0,
                                    Arc::new(move |_, _, _| {
                                        ran.fetch_add(1, Ordering::Relaxed);
                                    }),
                                ))
                                .wait();
                            }
                        });
                    }
                });
                let stats = pool.shutdown();
                seen.push((workers, ran.load(Ordering::Relaxed), stats));
            }
            let _ = tx.send(seen);
        });
        let seen = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("an idle worker missed its wake-up and the pool hung");
        for (workers, ran, stats) in seen {
            assert_eq!(ran, 6 * JOBS, "{workers} workers");
            assert_eq!(stats.tasks_executed, 6 * JOBS, "{workers} workers");
            assert_eq!(stats.jobs_completed, JOBS, "{workers} workers");
        }
    }

    /// A job whose task 5 panics still retires: `on_done` sees the
    /// failure, `wait` returns (a run that does not come back within a
    /// minute fails the test instead of hanging it), the dependent
    /// tasks never ran, and the pool keeps serving.
    #[test]
    fn panicking_task_fails_its_job_and_the_pool_keeps_serving() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = TaskPool::new(2);
            // Tasks 0..32 are independent; 32..64 each read object 5.
            let mut g = TaskGraph::new();
            let c = g.class("x");
            for i in 0..32 {
                g.add_task(c, vec![wr(i)], 0.0);
            }
            for i in 32..64 {
                g.add_task(c, vec![rd(5), wr(i)], 0.0);
            }
            let dependents_ran = Arc::new(AtomicU64::new(0));
            let seen = Arc::new(Mutex::new(None));
            let (ran, slot) = (Arc::clone(&dependents_ran), Arc::clone(&seen));
            let h = pool.submit(JobSpec {
                tag: 0,
                graph: Arc::new(g),
                gate: Arc::new(NoGate),
                work: Arc::new(move |_, _, t| {
                    if t.id.0 == 5 {
                        panic!("boom at {}", t.id.0);
                    }
                    if t.id.0 >= 32 {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                }),
                on_window: None,
                on_done: Some(Box::new(move |failure| {
                    *slot.lock().unwrap() = failure.cloned();
                })),
            });
            h.wait();
            let failure = h.failure().cloned();
            let from_hook = seen.lock().unwrap().clone();
            // The next job on the same pool is unaffected.
            let next = pool.submit(job(TaskGraph::new(), 1, Arc::new(|_, _, _| {})));
            next.wait();
            let ok = next.failure().is_none();
            let stats = pool.shutdown();
            let dependents = dependents_ran.load(Ordering::Relaxed);
            let _ = tx.send((failure, from_hook, ok, stats, dependents));
        });
        let (failure, from_hook, next_ok, stats, dependents) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a panicking task must not hang the job");
        let failure = failure.expect("the job is marked failed");
        assert_eq!(failure.task, TaskId(5));
        assert_eq!(failure.to_string(), "task 5 panicked: boom at 5");
        assert_eq!(from_hook, Some(failure), "on_done sees the failure");
        assert_eq!(dependents, 0, "tasks after the panic are not run");
        assert!(stats.tasks_executed < 64);
        assert_eq!(stats.jobs_completed, 2);
        assert!(next_ok);
    }
}
