//! Task-parallel runtime substrate for the Tahoe reproduction.
//!
//! The SC 2018 paper targets *task-parallel programs*: computation is
//! decomposed into tasks that declare which data objects they read and
//! write (OmpSs/StarPU/OpenMP-`depend` style), the runtime derives the
//! task DAG from those declarations, and a pool of workers executes ready
//! tasks. The paper's data-management runtime is a layer *inside* such a
//! host runtime — it needs task classes, declared accesses and visibility
//! into the ready queue (look-ahead) to plan placements and prefetch data.
//! No off-the-shelf host runtime exposes those hooks, so this crate builds
//! one:
//!
//! * [`task`] / [`graph`] — data-annotated tasks, task classes, and a task
//!   graph that derives RAW/WAR/WAW dependences from declared accesses
//!   ([`deps`]).
//! * [`simsched`] — a deterministic event-driven multi-worker scheduler
//!   over virtual time. Task durations are supplied by a
//!   [`simsched::SchedulerHooks`] implementation (the Tahoe policy layer),
//!   so placement decisions feed straight back into the schedule.
//! * [`pool`] — the real work-stealing loop (crossbeam deques, real
//!   threads): workers executing many tagged task graphs concurrently
//!   with per-job window barriers, as a long-lived [`TaskPool`] (the
//!   multi-tenant server) or as one scoped job ([`run_scoped`], a batch
//!   run).
//! * [`wsexec`] — the [`DataGate`] readiness hook, [`WsStats`], and
//!   [`WsExecutor`], the gate-less scoped job the examples and tests
//!   use to show the same task graphs execute correctly under genuine
//!   parallelism.
//! * [`lookahead`] — deterministic extraction of the "soon-to-run" task
//!   window the proactive migration planner consumes.

// Pure graph/scheduling logic: nothing here touches raw memory, so the
// whole crate stays safe by construction.
#![forbid(unsafe_code)]

pub mod deps;
pub mod graph;
pub mod lookahead;
pub mod pool;
pub mod simsched;
pub mod stats;
pub mod task;
pub mod wsexec;

pub use graph::TaskGraph;
pub use pool::{run_scoped, JobHandle, JobSpec, PoolStats, TaskPanic, TaskPool};
pub use simsched::{NullHooks, SchedulerHooks, SimScheduler};
pub use stats::SchedStats;
pub use task::{AccessMode, TaskAccess, TaskClassId, TaskId, TaskSpec};
pub use wsexec::{DataGate, NoGate, WsExecutor, WsStats};
