//! The wall-clock engine's batch run: work-stealing execution with
//! overlapped background migration.
//!
//! [`crate::measured`] prepares a run (allocation, placement, audited
//! plan) and [`crate::engine`] knows what a task does on real memory;
//! this module is the *runtime shape* of the paper around them: the
//! graph is one job on the work-stealing loop ([`tahoe_taskrt::pool`],
//! scoped workers, a barrier per window), running entirely from NVM
//! until every task class
//! has its quota of completed instances ([`ClassQuota`]); the worker
//! whose completion meets it hands the audited plan's `window: 0`
//! steps to a
//! dedicated migration thread ([`tahoe_realmem::BackgroundMigrator`]),
//! which copies while the rest of that window and every later one
//! execute, and each later window's steps — a rotating plan's
//! evictions and its promotions, one window ahead of use or in the
//! window of use — follow at that window's barrier: the paper's
//! profile-then-migrate-proactively with its
//! computation/data-movement
//! overlap, measured in wall-clock time. Every measured run goes
//! through here; `run_policy` is this run at one worker and seed 0.
//!
//! **Data in place first.** The barrier hook also tells the pool which
//! roots to *defer*: those declaring an object a step moves as the
//! window opens (for the first window, the release's steps). They are
//! published once every other root of the window has been taken, so
//! the copies land while tasks whose data is already in place run. A
//! deferred task that still meets its copy waits on the pin, or its
//! copy waits for it; nothing else changes. The first window defers
//! nothing if some task class would be left without an instance that
//! can finish ahead of the deferred ones — the release waits for one of
//! each.
//!
//! **Determinism of results, not schedules.** Worker interleavings vary
//! run to run, but the final answer cannot: the task graph's derived
//! dependences order every pair of conflicting accesses, the traffic
//! kernels are pure functions of buffer contents and seed, and
//! migrations are byte-preserving copies fenced against concurrent
//! access (pin ↔ mid-move discipline in [`tahoe_hms::SharedHms`]). Each
//! access's checksum lands in a dedicated slot, and the slots are
//! re-folded in the canonical order of
//! [`reference_checksum_seeded`](crate::measured::reference_checksum_seeded)
//! — so a parallel run at any worker count must match the sequential
//! heap-buffer reference bit for bit.
//!
//! **Overlap accounting.** Every committed migration carries wall-clock
//! `issued_at`/`start`/`finish` stamps plus `needed_at` — the first
//! moment a worker actually blocked on the moving object (stamped by
//! the blocked pin, the engine's one data-readiness wait). Copy time
//! before `needed_at` was hidden behind execution; time after it was
//! exposed. The aggregated [`MigrationStats::pct_overlap`] is the number
//! the paper's Tahoe design lives or dies by; the worker-side view of
//! the same stalls is [`ParallelPolicyReport::gate_wait_ns`].
//!
//! # Example: a parallel measured run
//!
//! A synthetic calibration (no kernel measurement) keeps the example
//! fast and hardware-independent; real runs get one from
//! [`MeasuredRuntime::calibrate`].
//!
//! ```
//! use tahoe_core::app::AppBuilder;
//! use tahoe_core::config::Platform;
//! use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
//! use tahoe_core::policy::PolicyKind;
//! use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
//!
//! // Two tasks ping-ponging two 8 KiB objects (a real dependence chain).
//! let mut b = AppBuilder::new("doc");
//! let x = b.object("x", 8 << 10);
//! let y = b.object("y", 8 << 10);
//! let c = b.class("copy");
//! b.task(c).read_streaming(x, 64).write_streaming(y, 64).submit();
//! b.task(c).read_streaming(y, 64).write_streaming(x, 64).submit();
//! let app = b.build();
//!
//! let cal = WallClockCalibration::synthetic(1 << 22, 1 << 24);
//! let rt = MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke());
//! let report = rt
//!     .run_policy_parallel(&app, &PolicyKind::DramOnly, &cal, 2, 0)
//!     .unwrap();
//! // Two workers, real threads — and still bit-identical to the
//! // sequential heap-buffer reference.
//! assert_eq!(report.checksum, reference_checksum_seeded(&app, 0));
//! assert_eq!(report.workers, 2);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tahoe_hms::{MigrationStats, Ns, ObjectId, SharedHms, TierId};
use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_obs::{BlameTable, CritPath, CritPathDigest, Emitter, Event, FlightRecorder};
use tahoe_realmem::BackgroundMigrator;
use tahoe_sanitize::{
    AccessSanitizer, ExtraAccess, MigrationPlan, NoSanitize, SanitizeHook, SanitizeReport,
    ViolationKind,
};
use tahoe_taskrt::{run_scoped, JobSpec, NoGate, TaskGraph, TaskSpec};

use crate::app::App;
pub use crate::engine::AccessTierTiming;
use crate::engine::{ClassQuota, GraphLayout, GraphRun};
use crate::measured::{migrator_has_a_core, MeasuredRuntime};
use crate::policy::PolicyKind;

/// Histogram keys the parallel runtime records (per worker lane, merged
/// at drain): task wall time, migration-gate waits, steal-search time,
/// and background-copy chunk time.
const HIST_KEYS: &[&str] = &["gate_wait_ns", "mig_chunk_ns", "steal_ns", "task_ns"];

/// One policy's measured outcome at a given worker count — the single
/// report of every wall-clock run (`run_policy` is one worker, seed 0).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelPolicyReport {
    /// Policy display name.
    pub policy: String,
    /// Worker threads the executor ran.
    pub workers: usize,
    /// Run seed that parameterized the traffic.
    pub run_seed: u64,
    /// Wall-clock time of the execution phase, ns (init + windows;
    /// excludes setup, calibration, and post-run migration drain).
    pub wall_ns: f64,
    /// Of `wall_ns`, the seeded fill that writes every object before
    /// the first task: the run's first touch of its arenas.
    pub init_ns: f64,
    /// Summed task wall time (pin to unpin) of each window, ns, indexed
    /// by window. At one worker, `init_ns` plus these sums falls short
    /// of `wall_ns` only by the run's start-up (layout, thread spawns)
    /// and the scheduler.
    pub window_task_ns: Vec<f64>,
    /// Bytes of object data walked by the traffic kernels.
    pub bytes_touched: u64,
    /// `bytes_touched / wall_ns` (== GB/s).
    pub throughput_gbps: f64,
    /// Re-fold of every access checksum in canonical (reference) order.
    pub checksum: u64,
    /// Physical inter-tier copies (background + any synchronous).
    pub migrations: u64,
    /// Bytes those copies moved.
    pub migrated_bytes: u64,
    /// Wall-clock ns spent inside the throttled copy engine.
    pub copy_wall_ns: f64,
    /// The part of `copy_wall_ns` the engine spent pacing to the
    /// modelled bandwidth; the rest is the host's own `memcpy` and
    /// first-touch page faults. A copy whose throttle share is near
    /// zero is host-bound: a faster modelled channel would not shorten
    /// it.
    pub copy_throttle_ns: f64,
    /// Share of `wall_ns` the migration thread kept a core busy:
    /// `(copy_wall_ns − copy_throttle_ns) / wall_ns`. Pacing sleeps, so
    /// the throttled part of a copy gives the core back.
    pub migrator_busy_share: f64,
    /// Tier arenas of the run that took the huge-page advice (0 where
    /// the host refuses it: 4 KiB pages throughout).
    pub huge_page_arenas: u64,
    /// Modelled value of the global plan, of the plan that ran and of
    /// the free-migration per-window bound
    /// ([`tahoe_placement::PlanValues`]); the plan rotated iff `chosen`
    /// exceeds `global`. `None` unless Tahoe planned over two tiers.
    pub plan_value: Option<tahoe_placement::PlanValues>,
    /// Wall-clock overlap accounting of the background migrations.
    pub migration: MigrationStats,
    /// Migration requests that were moot (already resident, no space).
    pub migrations_skipped: u64,
    /// Executed ≠ audited: objects that did not end on the tier the
    /// audited plan put them on, or skipped requests if there were
    /// more of those. 0 on every sound run; also counted in the
    /// `core.plan_steps_skipped` metric.
    pub plan_steps_skipped: u64,
    /// When the plan was released to the migration thread — the
    /// completion that met the last class quota — on the run's event
    /// clock, ns. `None` when the plan has no steps.
    pub released_at_ns: Option<Ns>,
    /// When the last migration committed, same clock: the placement the
    /// plan describes holds from here on. `placed_at_ns −
    /// released_at_ns` is the time to placement. `None` without
    /// migrations.
    pub placed_at_ns: Option<Ns>,
    /// Wall-clock ns workers spent blocked waiting for in-flight
    /// migrations before their pins were granted — the worker-side view
    /// of the exposed latency, and by construction the sum of every
    /// `WorkerTask` event's `gate_wait_ns`.
    pub gate_wait_ns: f64,
    /// Successful work steals between workers.
    pub steals: u64,
    /// Roots started after their window's other roots had been taken,
    /// because a step issued as the window opened (the release's, in
    /// the first window) moves one of their objects.
    pub deferred_tasks: u64,
    /// Plan steps at a window `u ≥ 1` on an object a task of `u`
    /// declares: fetches issued in their window of use (a late-lead
    /// rotation's), not one window ahead of it.
    pub late_fetches: u64,
    /// Objects resident on each tier (fastest first) when the run
    /// finished. Length = tier count; `[0]` is the DRAM-resident count.
    pub final_tier_objects: Vec<usize>,
    /// Per-object wall-clock access timing split by the tier the access
    /// hit (indexed like `app.objects`). Always populated — two relaxed
    /// atomic adds per access.
    pub access_timing: Vec<AccessTierTiming>,
    /// Events dropped because a flight-recorder ring filled (0 when
    /// unobserved or never saturated).
    pub obs_ring_dropped: u64,
    /// Contention counters of the lock-free pin/move state machines
    /// (CAS retries, shard parks/unparks, mid-move waits).
    pub contention: tahoe_hms::ContentionStats,
    /// Causal-profile digest: critical path and exposed-stall blame
    /// reconstructed from the merged flight-recorder stream. `None` on
    /// unobserved runs (no recorder).
    pub crit: Option<CritPathDigest>,
}

impl MeasuredRuntime {
    /// Execute `app` under `policy` with `workers` work-stealing worker
    /// threads and the background migration engine, on arena-backed
    /// objects with the given calibration.
    ///
    /// The returned checksum must equal
    /// [`reference_checksum_seeded(app, run_seed)`](crate::measured::reference_checksum_seeded)
    /// bit for bit — any worker count, any policy, any schedule.
    pub fn run_policy_parallel(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
        workers: usize,
        run_seed: u64,
    ) -> Result<ParallelPolicyReport, String> {
        // `NoSanitize` has `ENABLED = false`: every hook call below is an
        // empty inlined function behind `if S::ENABLED`, so this path
        // compiles to exactly the pre-sanitizer runtime — no shadow
        // state, no per-access branches on live data.
        let spare_core = migrator_has_a_core(workers);
        self.run_policy_hooked(app, policy, cal, workers, run_seed, spare_core, &NoSanitize)
    }

    /// Like [`run_policy_parallel`](Self::run_policy_parallel), but with
    /// the dynamic access sanitizer shadowing every memory access.
    ///
    /// Every access a worker performs is checked against the declared
    /// task graph: it must be covered by a declaration on its task, a
    /// `Read` declaration must never store, and the object must not be
    /// mid-migration (the pin discipline makes that impossible unless
    /// the runtime itself is broken — which is exactly what the check
    /// would catch). The migration engine's move-start events are
    /// observed too, flagging any copy that begins while the object has
    /// live pins. `extra` registers accesses the *application claims to
    /// perform beyond its declarations* (committed buggy fixtures use
    /// this); they are checked and fed to the schedule-independent race
    /// scan without touching real memory.
    ///
    /// Returns the normal report plus the [`SanitizeReport`]; violations
    /// are also emitted as `sanitize_violation` events and counted in
    /// `sanitize.violations.*` metrics.
    pub fn run_policy_sanitized(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
        workers: usize,
        run_seed: u64,
        extra: &[ExtraAccess],
    ) -> Result<(ParallelPolicyReport, SanitizeReport), String> {
        let mut san = AccessSanitizer::from_graph(&app.graph);
        for e in extra {
            san.note_extra_access(e);
        }
        let hook = Arc::new(san);
        let spare_core = migrator_has_a_core(workers);
        let report =
            self.run_policy_hooked(app, policy, cal, workers, run_seed, spare_core, &hook)?;
        // The move observer's Arc clone died with the SharedHms inside
        // the impl; ours is the last reference.
        let san = Arc::try_unwrap(hook).map_err(|_| "sanitizer still referenced after run")?;
        let sanitize = san.finish();
        for v in &sanitize.violations {
            self.emitter.emit(|| Event::SanitizeViolation {
                t: report.wall_ns,
                kind: v.kind.tag().to_string(),
                task: v.task.unwrap_or(u32::MAX),
                object: v.object.unwrap_or(u32::MAX),
                detail: v.detail.clone(),
            });
        }
        for kind in ViolationKind::ALL {
            let n = sanitize.count(kind);
            if n > 0 {
                self.metrics.add(kind.counter_key(), n);
            }
        }
        self.metrics
            .add("sanitize.accesses_checked", sanitize.accesses_checked);
        Ok((report, sanitize))
    }

    /// [`run_policy_parallel`](Self::run_policy_parallel) with `hook`
    /// called before every access (and its move observer, if any,
    /// installed on the migration engine): the seam the sanitizer uses,
    /// and the one a test injects a fault or a stall through.
    ///
    /// `spare_core` says whether the migration thread has a core of its
    /// own. The other entry points observe it (`workers` against
    /// `available_parallelism`); a test states it, so that what it
    /// checks does not depend on the machine it runs on. Without one,
    /// copies issued after window 0 cannot hide behind execution and
    /// Tahoe runs its global plan.
    #[allow(clippy::too_many_arguments)]
    pub fn run_policy_hooked<S: SanitizeHook>(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
        workers: usize,
        run_seed: u64,
        spare_core: bool,
        hook: &S,
    ) -> Result<ParallelPolicyReport, String> {
        let prepared = self.prepare(app, policy, cal, workers, spare_core)?;
        let targets = prepared.target_tiers();
        let (config, plan, plan_values) = (prepared.config, prepared.plan, prepared.plan_values);
        let plan_value = prepared.plan_worth;
        let nw = workers.max(1);

        // The flight recorder exists only when someone is listening:
        // lanes 0..nw are the workers, lane nw the migration thread,
        // lane nw+1 the driver (placement decisions). Hot-path emission
        // is then an SPSC ring push — no global lock. No lane can drop:
        // a worker may emit every task and the release, the migration
        // thread three events a step, the driver one an object.
        let recorder = (self.emitter.enabled() || self.metrics.is_enabled()).then(|| {
            let mut lanes = vec![app.graph.len() + 1; nw];
            lanes.extend([3 * plan.steps.len(), app.objects.len()]);
            FlightRecorder::with_capacities(&lanes, HIST_KEYS)
        });

        let start = Instant::now();
        let shared = Arc::new(SharedHms::new(prepared.hms));
        let layout = Arc::new(GraphLayout::new(&app.graph, prepared.ids, prepared.prices));
        // Init traffic runs here, before the workers spin up.
        let init_t0 = Instant::now();
        let run = Arc::new(GraphRun::start(
            Arc::clone(&shared),
            Arc::clone(&layout),
            run_seed,
        )?);
        let init_ns = init_t0.elapsed().as_nanos() as f64;
        let window_task_ns: Vec<AtomicU64> = (0..app.graph.window_count())
            .map(|_| AtomicU64::new(0))
            .collect();

        // Register before the migrator spawns so no move-start can slip
        // past the sanitizer's pinned-copy check.
        if S::ENABLED {
            if let Some(obs) = hook.move_observer() {
                shared.set_move_observer(obs);
            }
        }
        // The migration thread writes its own recorder lane, merged into
        // the emitter at drain. Without a recorder the emitter is
        // disabled: nothing listens.
        let migrator = BackgroundMigrator::spawn(
            Arc::clone(&shared),
            prepared.copy_cfgs,
            Emitter::disabled(),
            recorder.as_ref().map(|r| r.handle(nw)),
            None,
        );
        let emit = |lane: usize, ev: Event| {
            if let Some(rec) = &recorder {
                let _ = rec.emit(lane, ev);
            }
        };

        // Stamp every decision the planner took — promoted to DRAM or
        // not — with its predicted benefit; the audit pairs these with
        // measured per-access deltas. The plan exists before the first
        // task runs, so the stamps do too.
        if let Some(values) = &plan_values {
            let t = shared.now_ns();
            // Chosen = planned into DRAM, not resident at exit: a
            // rotated object ends the run wherever its last move left it.
            let planned = plan.planned_onto(TierId::FASTEST.0);
            for (i, spec) in app.objects.iter().enumerate() {
                let (predicted, chosen) = (values[i], planned[i]);
                if chosen || predicted > 0.0 {
                    emit(
                        nw + 1,
                        Event::PlacementDecision {
                            t,
                            object: i as u32,
                            bytes: spec.size,
                            predicted_benefit_ns: predicted,
                            chosen,
                        },
                    );
                }
            }
        }

        // The plan the auditor certified is the plan that runs: steps go
        // to the migration thread, which copies while tasks execute, in
        // the (window, issue) order the audit replayed.
        let issue = |windows: std::ops::RangeInclusive<u32>| {
            for w in windows {
                for step in plan.steps.iter().filter(|s| s.window == w) {
                    migrator.enqueue(layout.ids()[step.object as usize], TierId(step.to_tier));
                }
            }
        };
        // Profiling ends by class quota, mid-window: the worker whose
        // completion meets it hands over every step due so far; steps of
        // windows that open later go out at their barrier. Either way
        // the tasks on the objects a window's steps move start after the
        // window's other roots, which hide the copies.
        let (defer, late_fetches) = deferrals(&app.graph, &plan);
        let quota = if plan.steps.is_empty() {
            ClassQuota::met()
        } else {
            ClassQuota::new(&app.graph)
        };
        let released_at: OnceLock<Ns> = OnceLock::new();
        // After a task error the rest of the graph retires unexecuted.
        let first_error: OnceLock<String> = OnceLock::new();

        // The whole graph is one job on the work-stealing loop.
        let job = JobSpec {
            // Single-tenant runtime: tenant 0.
            tag: 0,
            graph: &app.graph,
            gate: Arc::new(NoGate),
            work: Arc::new(|worker: usize, tenant: u32, task: &TaskSpec| {
                if first_error.get().is_some() {
                    return;
                }
                let out = match run.run_task(task, hook) {
                    Ok(out) => out,
                    Err(e) => {
                        let _ = first_error.set(e);
                        return;
                    }
                };
                window_task_ns[task.window as usize]
                    .fetch_add(out.wall_ns as u64, Ordering::Relaxed);
                if let Some(rec) = &recorder {
                    rec.record(worker, "task_ns", out.wall_ns);
                    if out.gate_wait_ns > 0.0 {
                        rec.record(worker, "gate_wait_ns", out.gate_wait_ns);
                    }
                }
                emit(worker, out.worker_task(tenant, worker, task));
                if quota.task_done(task.class) {
                    let t = shared.now_ns();
                    issue(0..=task.window);
                    released_at.set(t).expect("the quota is met once");
                    emit(
                        worker,
                        Event::ProfilingClosed {
                            t,
                            window: task.window,
                        },
                    );
                }
            }),
            on_window: Some(Box::new(|w| {
                if quota.is_met() {
                    issue(w..=w);
                }
                // A barrier is where this worker gives up its core once:
                // with no core to spare (workers + the migration thread
                // > CPUs) that is when the copies queued so far get to
                // run, instead of waiting behind a worker that never
                // blocks.
                std::thread::yield_now();
                defer.get(w as usize).cloned().unwrap_or_default()
            })),
            on_done: None,
        };
        let ran = run_scoped(workers, recorder.as_ref(), &self.metrics, job)
            .map_err(|panic| panic.to_string());
        let ws = match first_error.into_inner().map_or(ran, Err) {
            Ok(stats) => stats,
            Err(e) => {
                migrator.cancel();
                migrator.finish();
                return Err(e);
            }
        };
        // Execution-phase stamp on the event clock (the epoch the
        // recorder's timestamps share), before the post-run drain.
        let exec_wall_ns = shared.now_ns();
        let wall_ns = (start.elapsed().as_nanos() as f64).max(1.0);

        // Close the migration queue; anything still copying completes
        // (with no consumer left to block, it counts as fully hidden).
        let mig = migrator.finish();
        let checksum = run.checksum();
        let bytes_touched = run.bytes_touched();
        let access_timing = run.access_timing();
        let gate_wait_ns = run.gate_wait_ns();
        drop(run);
        let shared = Arc::try_unwrap(shared).map_err(|_| "migration thread still holds hms")?;
        let contention = shared.contention();
        contention.fold_into(&self.metrics);
        let hms = shared.into_inner();

        // ---- flight-recorder drain -----------------------------------
        // All producers (workers, migrator) have joined; drain the rings
        // into one timestamp-merged stream, append it to the shared
        // emitter, and fold the per-lane histograms into metrics.
        let mut obs_ring_dropped = 0u64;
        let mut crit: Option<CritPathDigest> = None;
        if let Some(rec) = &recorder {
            let cap = rec.drain();
            obs_ring_dropped = cap.total_dropped;
            // Causal profile: reconstruct the critical path and the
            // exposed-stall blame table from the merged stream before
            // it is handed to the emitter. Copies label objects by HMS
            // id, placement decisions by app index; `prepare` allocates
            // app objects in order into a fresh heap, so the two agree.
            let path = CritPath::from_events(&cap.events);
            let mut digest = CritPathDigest::new(&path, BlameTable::from_events(&cap.events));
            digest.exec_wall_ns = exec_wall_ns;
            crit = Some(digest);
            self.emitter.emit_many(cap.events);
            for (key, data) in &cap.hists {
                self.metrics.hist_fold(key, data);
            }
        }
        // Surfaced even when zero, so artifacts can assert "no drops"
        // instead of inferring it from a missing counter key.
        self.metrics.add("obs.ring_dropped", obs_ring_dropped);

        let stats = hms.backend_stats();
        // Executed == audited: every object must sit where the audited
        // plan put it. A skipped request or a fragmented destination
        // shows up here instead of as a quietly slower run.
        let mut final_tier_objects = vec![0usize; config.n_tiers()];
        let mut off_target = 0u64;
        for (id, &target) in layout.ids().iter().zip(&targets) {
            let t = hms.tier_of(*id).map_err(|e| e.to_string())?;
            final_tier_objects[t.index()] += 1;
            off_target += u64::from(t.0 != target);
        }
        let plan_steps_skipped = off_target.max(mig.skipped);
        self.metrics
            .add("core.plan_steps_skipped", plan_steps_skipped);
        let placed_at_ns = mig.records.iter().map(|r| r.finish).reduce(f64::max);
        Ok(ParallelPolicyReport {
            policy: policy.name(),
            workers: nw,
            run_seed,
            wall_ns,
            init_ns,
            window_task_ns: window_task_ns
                .iter()
                .map(|ns| ns.load(Ordering::Relaxed) as f64)
                .collect(),
            bytes_touched,
            throughput_gbps: bytes_touched as f64 / wall_ns,
            checksum,
            migrations: stats.copies,
            migrated_bytes: stats.copied_bytes,
            copy_wall_ns: stats.copy_wall_ns,
            copy_throttle_ns: stats.copy_throttle_ns,
            migrator_busy_share: (stats.copy_wall_ns - stats.copy_throttle_ns).max(0.0) / wall_ns,
            huge_page_arenas: stats.huge_page_arenas,
            plan_value,
            migration: mig.stats,
            migrations_skipped: mig.skipped,
            plan_steps_skipped,
            released_at_ns: released_at.get().copied(),
            placed_at_ns,
            gate_wait_ns,
            steals: ws.steals,
            deferred_tasks: ws.deferred,
            late_fetches,
            final_tier_objects,
            access_timing,
            obs_ring_dropped,
            contention,
            crit,
        })
    }
}

/// Per window, the objects whose roots the pool starts last there —
/// those the plan's steps move as the window opens; for the first
/// window, the release's — and how many steps are late fetches (at a
/// window `u ≥ 1`, on an object `u` declares).
///
/// The first window defers nothing if that would leave a task class
/// with no instance able to finish before the deferred roots start: the
/// release waits for an instance of every class, and must not wait for
/// them.
fn deferrals(graph: &TaskGraph, plan: &MigrationPlan) -> (Vec<Vec<ObjectId>>, u64) {
    let tasks = graph.tasks();
    let first = tasks.first().map_or(0, |t| t.window);
    let last = plan.steps.iter().map(|s| s.window + 1);
    let n_windows = last.fold(graph.window_count(), u32::max) as usize;
    let mut moved = vec![Vec::new(); n_windows];
    for s in &plan.steps {
        moved[s.window.max(first) as usize].push(ObjectId(s.object));
    }
    for m in &mut moved {
        m.sort_unstable();
        m.dedup();
    }
    // The objects of `t` among the sorted `objects`.
    let among = |t: &'_ TaskSpec, objects: &'_ [ObjectId]| {
        let declared = t.accesses.iter().map(|a| a.object);
        declared
            .filter(|o| objects.binary_search(o).is_ok())
            .collect::<Vec<_>>()
    };

    let mut late = Vec::new();
    for t in tasks.iter().filter(|t| t.window > first) {
        let hits = among(t, &moved[t.window as usize]);
        late.extend(hits.into_iter().map(|o| (t.window, o)));
    }
    late.sort_unstable();
    late.dedup();

    // `held[t]`: a first-window task that cannot run before the deferred
    // roots do — one of them, or downstream of one (edges point forward,
    // so its predecessors are settled by then).
    let mut held = vec![false; tasks.len()];
    let mut free_instance = vec![None; graph.class_count()];
    for t in tasks.iter().take_while(|t| t.window == first) {
        let preds = graph.preds(t.id);
        held[t.id.index()] = match preds {
            [] => !among(t, &moved[first as usize]).is_empty(),
            _ => preds.iter().any(|p| held[p.index()]),
        };
        let free = free_instance[t.class.index()].get_or_insert(false);
        *free |= !held[t.id.index()];
    }
    if free_instance.contains(&Some(false)) {
        moved[first as usize].clear();
    }
    (moved, late.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::measured::reference_checksum_seeded;

    fn stream_app(blocks: u32, block_bytes: u64, windows: u32) -> App {
        let mut b = AppBuilder::new("par-test");
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

    fn runtime() -> MeasuredRuntime {
        MeasuredRuntime::new(
            crate::config::Platform::optane(1 << 22, 1 << 24),
            tahoe_memprof::wallclock::WallClockConfig::smoke(),
        )
    }

    #[test]
    fn parallel_checksum_matches_reference_for_every_policy() {
        let app = stream_app(4, 16 << 10, 3);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
        let rt = runtime();
        let expect = reference_checksum_seeded(&app, 0);
        for policy in [
            PolicyKind::DramOnly,
            PolicyKind::NvmOnly,
            PolicyKind::FirstTouch,
            PolicyKind::tahoe(),
        ] {
            let r = rt
                .run_policy_parallel(&app, &policy, &cal, 2, 0)
                .expect("parallel run");
            assert_eq!(
                r.checksum, expect,
                "policy {} diverged from the reference",
                r.policy
            );
        }
    }

    /// The fill and each window's task time are layers of the run's
    /// wall clock: at one worker they fit inside it, none is empty.
    #[test]
    fn init_and_window_task_times_sit_inside_the_wall_clock() {
        let app = stream_app(4, 16 << 10, 3);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
        for policy in [PolicyKind::DramOnly, PolicyKind::tahoe()] {
            let r = runtime()
                .run_policy_parallel(&app, &policy, &cal, 1, 0)
                .expect("parallel run");
            assert_eq!(r.window_task_ns.len(), 3, "{}", r.policy);
            assert!(r.init_ns > 0.0, "{}", r.policy);
            assert!(r.window_task_ns.iter().all(|&ns| ns > 0.0), "{}", r.policy);
            let tiled = r.init_ns + r.window_task_ns.iter().sum::<f64>();
            assert!(tiled <= r.wall_ns, "{}: {tiled} > {}", r.policy, r.wall_ns);
        }
    }

    #[test]
    fn tahoe_parallel_migrates_in_background() {
        let app = stream_app(4, 32 << 10, 4);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 3, 4 * footprint);
        let rt = runtime();
        let r = rt
            .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, 2, 7)
            .expect("parallel tahoe");
        assert_eq!(r.checksum, reference_checksum_seeded(&app, 7));
        assert!(r.migration.count > 0, "plan must trigger migrations");
        assert_eq!(r.migrations, r.migration.count, "backend saw each copy");
        assert!(
            (0.0..=r.copy_wall_ns).contains(&r.copy_throttle_ns),
            "throttle {} ns is a share of copy wall {} ns",
            r.copy_throttle_ns,
            r.copy_wall_ns
        );
        assert!(r.final_tier_objects[0] > 0, "promoted objects end in DRAM");
        assert!(
            r.migration.overlapped_ns + r.migration.exposed_ns > 0.0,
            "wall-clock accounting must be populated"
        );
    }

    /// Three tiers at two workers: what ran is what was audited. At the
    /// parent of this test's commit the parallel path executed the
    /// plan's DRAM-vs-rest projection and left the middle tier empty.
    #[test]
    fn three_tier_parallel_run_executes_the_audited_plan() {
        // Two streamed blocks plus four pointer-chased indices of 32 KiB:
        // DRAM holds two objects, CXL (low latency, modest bandwidth)
        // another two — the chased ones that miss DRAM want it.
        let mut b = AppBuilder::new("par-3tier");
        let blocks: Vec<_> = (0..2)
            .map(|i| b.object(&format!("a{i}"), 32 << 10))
            .collect();
        let idx: Vec<_> = (0..4)
            .map(|i| b.object(&format!("idx{i}"), 32 << 10))
            .collect();
        let c = b.class("step");
        for w in 0..4 {
            if w > 0 {
                b.next_window();
            }
            for a in &blocks {
                b.task(c).update_streaming(*a, 512).submit();
            }
            for i in &idx {
                b.task(c).read_chasing(*i, 64).submit();
            }
        }
        let app = b.build();
        // The spill tier keeps Optane's shape against the scaled CXL
        // (850 ns / 2.5 GB/s): far higher latency, a little more
        // bandwidth.
        let mut cal = WallClockCalibration::synthetic(64 << 10, 4 * app.footprint());
        cal.nvm.read_lat_ns = 3000.0;
        let rt = MeasuredRuntime::new(
            crate::config::Platform::optane_cxl(64 << 10, 64 << 10, 1 << 24),
            tahoe_memprof::wallclock::WallClockConfig::smoke(),
        );
        let policy = PolicyKind::tahoe();

        let prepared = rt
            .prepare(&app, &policy, &cal, 2, true)
            .expect("plan audits clean");
        let mut planned = vec![0usize; 3];
        for t in prepared.target_tiers() {
            planned[t as usize] += 1;
        }
        drop(prepared);
        assert!(
            planned[1] > 0,
            "the plan must use the middle tier: {planned:?}"
        );

        let r = rt
            .run_policy_parallel(&app, &policy, &cal, 2, 9)
            .expect("3-tier parallel tahoe");
        assert_eq!(r.checksum, reference_checksum_seeded(&app, 9));
        assert_eq!(r.final_tier_objects, planned, "executed == audited");
        assert_eq!(r.migrations_skipped, 0);
        assert_eq!(r.migrations as usize, planned[0] + planned[1]);
    }

    #[test]
    fn observed_run_carries_a_reconciling_crit_digest() {
        let app = stream_app(4, 32 << 10, 4);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 3, 4 * footprint);
        let (emitter, _buf) = Emitter::buffered();
        let metrics = tahoe_obs::Metrics::enabled();
        let rt = runtime().with_observability(emitter, metrics.clone());
        let r = rt
            .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, 2, 7)
            .expect("observed parallel tahoe");
        let crit = r.crit.as_ref().expect("observed runs carry a digest");

        // The chain tiles its interval and reaches back to the start of
        // execution: it may miss only the earliest task's head start,
        // which is shorter than that task (the recorded maximum is
        // truncated to whole ns).
        assert!(crit.crit_total_ns > 0.0);
        assert!(
            (crit.crit_total_ns - (crit.compute_ns + crit.stall_ns + crit.idle_ns)).abs()
                < 1e-6 * crit.crit_total_ns.max(1.0)
        );
        let histograms = metrics.snapshot().histograms;
        let longest_task = histograms.iter().find(|(k, _)| k == "task_ns");
        let longest_task = longest_task.expect("task_ns digest").1.max;
        assert!(
            crit.span_ns - crit.crit_total_ns <= longest_task + 1.0,
            "critical path ({} ns) stops {} ns short of the observed span ({} ns), longer than any task ({} ns)",
            crit.crit_total_ns,
            crit.span_ns - crit.crit_total_ns,
            crit.span_ns,
            longest_task
        );
        assert!(crit.exec_wall_ns >= crit.span_ns);

        // Blame reconciles with the engine's own overlap accounting:
        // same records, same arithmetic.
        assert!(r.migration.count > 0, "plan must trigger migrations");
        assert!(
            (crit.blame.pct_overlap() - r.migration.pct_overlap()).abs() <= 1.0,
            "blame overlap {} vs engine overlap {}",
            crit.blame.pct_overlap(),
            r.migration.pct_overlap()
        );
        let blamed_migrations: u64 = crit.blame.entries().map(|e| e.migrations).sum();
        assert_eq!(blamed_migrations, r.migration.count);
        // Every waited nanosecond the engine reports lands in the blame
        // table: on the copies in flight during it, or unattributed.
        let attributed_wait_ns: f64 = crit.blame.entries().map(|e| e.gate_wait_ns).sum();
        assert!(
            (attributed_wait_ns + crit.blame.unattributed_wait_ns - r.gate_wait_ns).abs()
                <= 1e-6 * r.gate_wait_ns.max(1.0),
            "blame {attributed_wait_ns} + {} vs engine {}",
            crit.blame.unattributed_wait_ns,
            r.gate_wait_ns
        );

        // Unobserved runs carry no digest.
        let plain = runtime()
            .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, 2, 7)
            .expect("unobserved run");
        assert!(plain.crit.is_none());
    }

    /// The recorder's lanes are sized from the run: a one-worker run of
    /// more tasks than a 16 Ki-slot ring holds records every one of
    /// them, and the critical path over the whole stream still tiles.
    #[test]
    fn an_observed_run_of_many_tasks_drops_no_event() {
        const TASKS: usize = (1 << 14) + 1000;
        let mut b = AppBuilder::new("many-tasks");
        let objects: Vec<_> = (0..64).map(|i| b.object(&format!("o{i}"), 4096)).collect();
        let c = b.class("touch");
        for t in 0..TASKS {
            if t > 0 && t % (TASKS / 4) == 0 {
                b.next_window();
            }
            b.task(c).read_streaming(objects[t % 64], 1).submit();
        }
        let app = b.build();
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
        let (emitter, buf) = Emitter::buffered();
        let metrics = tahoe_obs::Metrics::enabled();
        let rt = runtime().with_observability(emitter, metrics.clone());
        let r = rt
            .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, 1, 3)
            .expect("observed run");
        assert_eq!(r.checksum, reference_checksum_seeded(&app, 3));
        assert_eq!(r.obs_ring_dropped, 0);
        let events = buf.drain();
        let worker_tasks = events
            .iter()
            .filter(|e| matches!(e, Event::WorkerTask { .. }))
            .count();
        assert_eq!(worker_tasks, TASKS);
        assert!(r.migrations > 0, "the migration lane is used too");

        let crit = r.crit.as_ref().expect("observed runs carry a digest");
        assert!(
            (crit.crit_total_ns - (crit.compute_ns + crit.stall_ns + crit.idle_ns)).abs()
                < 1e-6 * crit.crit_total_ns.max(1.0)
        );
        let histograms = metrics.snapshot().histograms;
        let longest_task = histograms.iter().find(|(k, _)| k == "task_ns");
        let longest_task = longest_task.expect("task_ns digest").1.max;
        assert!(crit.span_ns - crit.crit_total_ns <= longest_task + 1.0);
    }

    /// A task that panics mid-run (here: inside the sanitizer hook, with
    /// its objects pinned) fails the run with an error naming the task,
    /// the migration thread joined — inside a minute, not never.
    #[test]
    fn panicking_task_returns_an_error_instead_of_hanging() {
        struct PanicOn(u32);
        impl SanitizeHook for PanicOn {
            const ENABLED: bool = true;
            fn on_access(&self, task: u32, _access: usize, _object: u32, _mid_move: bool) {
                assert_ne!(task, self.0, "injected fault");
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let app = stream_app(4, 16 << 10, 3);
            let footprint = app.footprint();
            let cal = WallClockCalibration::synthetic(footprint / 3, 4 * footprint);
            let rt = runtime();
            let policy = PolicyKind::tahoe();
            let _ = tx.send(rt.run_policy_hooked(&app, &policy, &cal, 2, 0, true, &PanicOn(5)));
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a panicking task must not hang the run")
            .expect_err("the run fails");
        assert!(err.starts_with("task 5 panicked"), "{err}");
        assert!(err.contains("injected fault"), "{err}");
    }

    #[test]
    fn worker_counts_do_not_change_the_answer() {
        let app = stream_app(4, 8 << 10, 3);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 4, 4 * footprint);
        let rt = runtime();
        let expect = reference_checksum_seeded(&app, 3);
        for workers in [1, 2, 4] {
            let r = rt
                .run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, workers, 3)
                .expect("parallel run");
            assert_eq!(r.checksum, expect, "diverged at {workers} workers");
        }
    }
}
