//! # Tahoe: runtime data management on NVM-based heterogeneous memory for
//! # task-parallel programs
//!
//! This crate is the reproduction's core: the runtime that decides *which
//! data objects live in DRAM* while a task-parallel program executes over
//! a DRAM+NVM heterogeneous memory system, reproducing the system of
//! Wu, Ren and Li (SC 2018).
//!
//! ## Pipeline
//!
//! 1. **Profile** — during the first execution windows, a sampling
//!    profiler attributes loads/stores to (task class × data object)
//!    pairs ([`tahoe_memprof`]).
//! 2. **Model** — per-object demand is classified bandwidth- vs
//!    latency-sensitive and priced with calibrated benefit/cost equations
//!    ([`tahoe_perfmodel`]).
//! 3. **Decide** — a 0/1 knapsack picks the DRAM set, per window (local
//!    search) and for the whole run (global search); the better predicted
//!    plan wins ([`tahoe_placement`]).
//! 4. **Enforce** — a helper-thread copy channel migrates objects
//!    proactively at window boundaries, overlapping copies with task
//!    execution; tasks stall only if they reach an object whose promotion
//!    is still in flight ([`tahoe_hms::migrate`]).
//! 5. **Adapt** — if per-window performance drifts beyond the paper's
//!    10 % ([`tahoe_perfmodel::VARIATION_THRESHOLD`]), profiling is
//!    re-armed and the plan recomputed.
//!
//! ## Entry points
//!
//! * [`app::AppBuilder`] — declare data objects and data-annotated tasks.
//! * [`policy::PolicyKind`] — select DRAM-only / NVM-only / first-touch /
//!   hardware-cache / offline-static / Tahoe (with ablation switches in
//!   [`policy::TahoeOptions`]).
//! * [`runtime::Runtime`] — run an [`app::App`] under a policy on a
//!   platform and get a [`report::RunReport`]. Its [`RuntimeConfig`]
//!   sets only the worker count: the model thresholds and the chunk
//!   size ([`config::CHUNK_BYTES`]) are fixed.
//! * [`MeasuredRuntime::with_observability`](measured::MeasuredRuntime::with_observability)
//!   — a wall-clock run with the structured observability layer on: the
//!   typed event stream (exportable as JSONL or a Chrome/Perfetto trace)
//!   and a metrics snapshot of the measured layers. The virtual-time
//!   [`runtime::Runtime`] records nothing beyond its report.
//! * [`MeasuredRuntime::run_policy_sanitized`](measured::MeasuredRuntime::run_policy_sanitized)
//!   — a parallel measured run with the [`tahoe_sanitize`] access
//!   sanitizer shadowing every access (happens-before race scan,
//!   undeclared-access / write-under-read / mid-move checks); the
//!   plain parallel path compiles the checks away entirely.
//!
//! ```
//! use tahoe_core::prelude::*;
//!
//! let mut b = AppBuilder::new("triad");
//! let a = b.object("a", 1 << 20);
//! let x = b.object("x", 1 << 20);
//! let c = b.class("triad");
//! for _ in 0..4 {
//!     b.task(c)
//!         .read_streaming(x, 16384)
//!         .write_streaming(a, 16384)
//!         .compute_us(5.0)
//!         .submit();
//!     b.next_window();
//! }
//! let app = b.build();
//! let platform = Platform::emulated_bw(0.5, 256 << 10, 64 << 20).unwrap();
//! let report = Runtime::new(platform, RuntimeConfig::default())
//!     .run(&app, &PolicyKind::tahoe());
//! assert!(report.makespan_ns > 0.0);
//! ```

// Unsafe is the exception here, not the rule: only the engine's two
// sites that hand raw arena memory to the traffic kernels (and the
// calibration scratch buffer) may use it, each behind a scoped
// `#[allow(unsafe_code)]` with a SAFETY comment.
#![deny(unsafe_code)]

pub mod app;
pub mod audit;
pub mod config;
pub mod driver;
pub mod engine;
pub mod hwcache;
pub mod measured;
pub mod overhead;
pub mod parallel;
pub mod policy;
pub mod report;
pub mod runtime;

pub use app::{App, AppBuilder, ObjectSpec, TaskBuilder};
pub use audit::{ModelAudit, ObjectAudit};
pub use config::{Platform, RuntimeConfig};
pub use measured::MeasuredRuntime;
pub use parallel::{AccessTierTiming, ParallelPolicyReport};
pub use policy::{PolicyKind, TahoeOptions};
pub use report::RunReport;
pub use runtime::Runtime;
pub use tahoe_sanitize::{
    audit_plan, ExtraAccess, MigrationPlan, PlanContext, PlanStep, SanitizeReport, Violation,
    ViolationKind,
};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::app::{App, AppBuilder};
    pub use crate::config::{Platform, RuntimeConfig};
    pub use crate::measured::MeasuredRuntime;
    pub use crate::policy::{PolicyKind, TahoeOptions};
    pub use crate::report::RunReport;
    pub use crate::runtime::Runtime;
    pub use tahoe_hms::{presets, TierId};
}
