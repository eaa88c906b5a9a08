//! Task-graph race detector and dynamic access sanitizer.
//!
//! The measured runtime's correctness rests on *declared* footprints: the
//! dependence tracker derives the task DAG from in/out/inout annotations,
//! the pin/mid-move discipline in [`tahoe_hms::SharedHms`] assumes tasks
//! touch only what they pinned, and the background migrator assumes it
//! never copies bytes a task is using. Nothing enforced those invariants
//! — a workload that under-declares its footprint or a migrator bug that
//! moves a pinned object would silently corrupt results.
//!
//! This crate verifies them with two passes:
//!
//! * **Static graph verifier** ([`verify`]): consumes a task graph before
//!   execution and reports structural defects — dependency cycles
//!   (deadlock), conflicting same-object accesses with no ordering path
//!   (declared race), accesses to objects never allocated or already
//!   freed (use-after-free), footprints exceeding total tier capacity
//!   (infeasible plan), and declared-but-never-executed accesses (dead
//!   declarations).
//!
//! * **Dynamic access sanitizer** ([`dynamic`]): shadows every object
//!   access of a run with a happens-before check derived from the
//!   declared DAG ([`hb::HappensBefore`] — per-task ancestor bitsets, the
//!   dense-DAG equivalent of a vector clock), flagging undeclared
//!   accesses, writes under `Read` declarations, accesses to mid-move
//!   objects, and migrator copies of pinned objects.
//!
//! * **Plan auditor** ([`plan`]): symbolically executes a migration
//!   plan against the task graph and the ordered tier list, proving
//!   per-prefix capacity feasibility (with transient double-residency),
//!   schedule-universal migration safety, target-tier validity,
//!   liveness of moved objects, and modelled-cost non-regression —
//!   rejecting an unsound plan in microseconds, before a byte moves.
//!
//! * **Protocol model checker** ([`mcheck`]): exhaustively explores
//!   every bounded interleaving of the lock-free pin/move word protocol
//!   (`tahoe_hms::lockfree::word`) with N pinners and a migrator,
//!   certifying that pins drain, epochs are monotonic, no pin survives
//!   a committed move, and no wake-up is lost — the invariant the plan
//!   auditor's move-safety rule leans on.
//!
//! Violations are typed ([`ViolationKind`]) and summarized in a
//! [`SanitizeReport`] whose ordering and counts are deterministic across
//! schedules, worker counts and seeds — the property the schedule fuzzer
//! (`exp sanitize`) and the plan-audit gate (`exp verify`) gate on.

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod hb;
pub mod mcheck;
pub mod plan;
pub mod report;
pub mod verify;

pub use dynamic::{AccessSanitizer, ExtraAccess, NoSanitize, SanitizeHook};
pub use hb::HappensBefore;
pub use mcheck::{BugInjection, McheckConfig, McheckReport};
pub use plan::{audit_plan, audit_plan_priced, MigrationPlan, PlanContext, PlanReplay, PlanStep};
pub use report::{SanitizeReport, Violation, ViolationKind};
pub use verify::{find_cycle, verify_graph, StaticContext};
