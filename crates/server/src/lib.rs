//! Multi-tenant runtime server for the Tahoe reproduction.
//!
//! Everything below the server is single-tenant: one app, one run, one
//! report. Production NVM/DRAM machines are shared — many jobs from
//! many owners arrive continuously and compete for the *same* DRAM.
//! This crate adds that missing layer:
//!
//! * [`server`] — the long-lived [`TahoeServer`]: one shared
//!   work-stealing [`tahoe_taskrt::TaskPool`], one shared
//!   [`tahoe_hms::SharedHms`] whose DRAM capacity is the global
//!   budget, one background migration engine. Tenants register once
//!   and submit graph executions concurrently through
//!   [`TenantHandle`]s; admission control queues or sheds when a
//!   tenant outruns itself.
//! * [`arbiter`] — pure cross-tenant quota math (guaranteed weighted
//!   floors with the rest of the budget handed out object by object,
//!   highest modelled value per byte first, across the active tenants)
//!   plus the Jain fairness index; the preemption
//!   pass demotes only objects held *above* their owner's quota, so
//!   active tenants are starvation-free.
//! * [`namespace`] — per-tenant object namespaces; a graph naming an
//!   object outside its tenant's declared set is rejected at
//!   admission, before anything is allocated or scheduled.
//! * [`driver`] — closed-loop (fixed count or timed) and open-loop
//!   submission drivers for experiments.
//! * [`compose`] — interleave tenant apps into one graph for the
//!   access sanitizer's schedule fuzz.
//! * [`telemetry`] — the live telemetry plane: a std-`TcpListener`
//!   Prometheus-style `/metrics` endpoint serving per-tenant counters,
//!   quota state and the rolling migration blame top-K (fed by the
//!   engine's commit observer), with optional periodic JSONL snapshot
//!   journaling. Idle-state counters match the eventual
//!   [`ServerReport`] bit for bit.
//!
//! Determinism survives multi-tenancy: each tenant's per-graph
//! checksum is bit-identical to the same app running alone, whatever
//! the contention, preemption or interleaving — the fairness bench
//! gates on it.
//!
//! # Quick start
//!
//! ```
//! use tahoe_core::app::AppBuilder;
//! use tahoe_core::measured::reference_checksum_seeded;
//! use tahoe_memprof::wallclock::WallClockCalibration;
//! use tahoe_obs::{Emitter, Metrics};
//! use tahoe_server::{
//!     ArbiterMode, QuotaPolicy, ServerConfig, Submission, TahoeServer, TenantSpec,
//! };
//!
//! fn make_app(name: &str) -> tahoe_core::app::App {
//!     let mut b = AppBuilder::new(name);
//!     let x = b.object("x", 8 << 10);
//!     let y = b.object("y", 8 << 10);
//!     let c = b.class("step");
//!     b.task(c).read_streaming(x, 32).write_streaming(y, 32).submit();
//!     b.task(c).update_streaming(y, 32).submit();
//!     b.build()
//! }
//!
//! // Synthetic calibration: DRAM 10 GB/s / 100 ns, NVM 3x slower.
//! let cal = WallClockCalibration::synthetic(1 << 20, 1 << 24);
//! let server = TahoeServer::new(
//!     ServerConfig {
//!         workers: 2,
//!         dram_budget: 24 << 10,
//!         nvm_capacity: 1 << 24,
//!         mode: ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 }),
//!         max_queue: 2,
//!     },
//!     cal,
//!     Emitter::disabled(),
//!     Metrics::disabled(),
//! )
//! .unwrap();
//!
//! // Two tenants share the pool and the DRAM budget.
//! let t0 = server.register_tenant(TenantSpec::new("alice", 1.0), make_app("a")).unwrap();
//! let t1 = server.register_tenant(TenantSpec::new("bob", 1.0), make_app("b")).unwrap();
//! let (s0, s1) = (t0.submit(7), t1.submit(9));
//! let (o0, o1) = (s0.ticket().unwrap().wait(), s1.ticket().unwrap().wait());
//!
//! // Shared and contended — yet bit-identical to running alone.
//! assert_eq!(o0.checksum, reference_checksum_seeded(&make_app("a"), 7));
//! assert_eq!(o1.checksum, reference_checksum_seeded(&make_app("b"), 9));
//! let report = server.shutdown();
//! assert_eq!(report.completed_total(), 2);
//! ```

// Tasks touch raw arena memory only inside `tahoe_core::engine`; the
// server itself needs no unsafe.
#![forbid(unsafe_code)]

pub mod arbiter;
pub mod compose;
pub mod driver;
pub mod namespace;
pub mod server;
pub mod telemetry;

pub use arbiter::{jain, QuotaPolicy, TenantDemand};
pub use compose::interleave;
pub use namespace::AdmitError;
pub use server::{
    ArbiterMode, GraphOutcome, GraphTicket, ServerConfig, ServerReport, Submission, TahoeServer,
    TenantHandle, TenantReport, TenantSpec,
};
pub use telemetry::{TelemetryConfig, TelemetryHandle};
