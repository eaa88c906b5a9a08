//! # Structured observability for the Tahoe runtime
//!
//! The runtime's value is in its *decisions* — profile, classify,
//! knapsack-place, proactively migrate, replan on drift. This crate makes
//! every one of those decisions visible as data rather than end-of-run
//! aggregates:
//!
//! * [`event::Event`] — a typed, wall-clock-stamped event stream
//!   covering task execution, migrations, placement decisions, arena
//!   mapping, calibration, sanitizer findings and server admission.
//! * [`emit::Emitter`] — the cheap, clonable handle instrumented code
//!   emits through. A disabled emitter costs one branch per call site and
//!   never constructs the event; an enabled one appends to a lock-cheap
//!   shared buffer (usable from the work-stealing executor's threads),
//!   which [`emit::EventBuffer::drain`] empties into a `Vec<Event>`.
//! * [`metrics::Metrics`] — a registry of monotonic counters, gauges and
//!   latency histograms keyed by static names, snapshot into
//!   [`metrics::MetricsSnapshot`].
//! * [`hist::Histogram`] — fixed-size log2-bucketed latency histograms
//!   with commutative merge and p50/p90/p99/max digests.
//! * [`recorder::FlightRecorder`] — per-worker lock-free SPSC event rings
//!   plus per-lane histograms for the parallel measured runtime's hot
//!   path; drained into a deterministic timestamp-merged stream that
//!   feeds the same exporters.
//! * [`export`] — two exporters: JSONL (one event per line, fixed field
//!   order — byte-identical for identical event streams) and
//!   Chrome `trace_event` JSON loadable in `chrome://tracing` / Perfetto,
//!   with flow arrows linking each migration span to the stall it
//!   unblocks.
//! * [`critpath`] / [`blame`] — the causal profiler: critical-path
//!   reconstruction and exposed-stall blame attribution from the same
//!   merged stream. [`BlameTable`] is also the server's live blame
//!   table, fed one committed copy at a time.
//! * [`json`] — the one compact JSON writer behind the JSONL, trace,
//!   metrics and server telemetry lines, plus a minimal parser used by
//!   tests and tools to validate them without external dependencies.
//!
//! The crate has zero dependencies so every layer of the workspace
//! (memory substrate, task runtime, profiler, policy driver) can depend
//! on it without cycles.

// Unsafe is confined to the flight recorder's SPSC ring (`recorder`);
// every site carries a scoped `#[allow(unsafe_code)]` + SAFETY comment.
#![deny(unsafe_code)]

pub mod blame;
pub mod critpath;
pub mod emit;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use blame::{BlameEntry, BlameTable};
pub use critpath::{CritPath, CritPathDigest, Segment, SegmentKind};
pub use emit::{Emitter, EventBuffer};
pub use event::{Event, Tier};
pub use export::{to_chrome_trace, to_jsonl};
pub use hist::{HistData, HistSummary, Histogram};
pub use metrics::{Metrics, MetricsSnapshot};
pub use recorder::{FlightCapture, FlightHandle, FlightRecorder};
