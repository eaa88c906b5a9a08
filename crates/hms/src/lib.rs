//! Heterogeneous memory substrate (HMS) for the Tahoe reproduction.
//!
//! The SC 2018 paper evaluates on emulated NVM (Quartz, NUMA-based
//! emulation) and, in the journal follow-up, on Intel Optane PMM. None of
//! those are available here, so this crate provides the substitute: a
//! *virtual-time* tiered memory system (an ordered tier list, fastest
//! first; the paper's DRAM + NVM is its two-entry case) whose knobs are
//! exactly the knobs the emulators expose — per-tier read/write latency
//! and bandwidth, capacity, and a finite migration copy bandwidth.
//!
//! The crate provides:
//!
//! * [`TierSpec`] / [`TierId`] — device models with read/write asymmetry
//!   and their index in the tier list (the one tier vocabulary; the
//!   two-name [`TierKind`] is an argument shorthand for the list's ends),
//!   plus presets for DRAM, STT-RAM, PCRAM, ReRAM and Optane PMM in
//!   [`presets`], and Quartz-style scaled-DRAM emulation points.
//! * [`Hms`] — an object-granularity memory manager over the tiers with
//!   a real best-fit free-list allocator per tier ([`alloc::TierAllocator`]),
//!   so capacity pressure, fallback allocation and fragmentation behave
//!   like a real runtime's DRAM arena.
//! * [`timing`] — the roofline-style timing model that converts a task's
//!   main-memory access profile into virtual nanoseconds on a given tier.
//!   This is what makes data objects *bandwidth-sensitive* or
//!   *latency-sensitive*, the distinction the paper's placement decisions
//!   hinge on.
//! * [`migrate`] — a single-channel asynchronous copy engine with overlap
//!   accounting, modelling the helper thread that migrates objects between
//!   tiers concurrently with task execution.
//!
//! Virtual time is carried as `f64` **nanoseconds** ([`Ns`]); with that
//! unit, a bandwidth of 1 GB/s is numerically 1 byte/ns, which keeps the
//! arithmetic in the timing model free of unit conversions.

// Raw object pointers cross this crate's pin/move API; every unsafe
// operation must sit in an explicit `unsafe` block with a SAFETY
// justification, even inside `unsafe fn` bodies.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod backend;
pub mod error;
pub mod lockfree;
pub mod memory;
pub mod migrate;
pub mod object;
pub mod presets;
pub mod sync;
pub mod tier;
pub mod timing;
pub mod wear;

pub use backend::{BackendStats, CopyOutcome, TierBackend, VirtualBackend};
pub use error::HmsError;
pub use memory::{Hms, HmsConfig, MoveTicket};
pub use migrate::{CopyChannel, MigrationRecord, MigrationStats};
pub use object::{ObjectId, ObjectMeta};
pub use sync::{ContentionStats, MoveObserver, PinnedObject, SharedHms, StartedMove, TaskPins};
pub use tier::{TierId, TierKind, TierRef, TierSpec};
pub use timing::AccessProfile;
pub use wear::WearStats;

/// Virtual time in nanoseconds.
///
/// All simulated durations and instants in the workspace use this unit.
/// 1 GB/s of bandwidth equals exactly 1 byte per nanosecond.
pub type Ns = f64;

/// Cache line size used throughout the models, in bytes.
///
/// The paper's profiling step counts cache-line-granularity main-memory
/// accesses; 64 B is the line size on every platform the paper uses.
pub const CACHELINE: u64 = 64;
