//! Real-memory backend for the Tahoe reproduction.
//!
//! The rest of the workspace simulates a two-tier memory in virtual
//! time; this crate supplies the *physical* substrate the paper actually
//! ran on, scaled to what an unprivileged single-node machine can do:
//!
//! * [`MmapArena`] — per-tier, 2 MiB-aligned, capacity-tracked arenas on
//!   raw `mmap`/`munmap`, advised to use transparent huge pages, with
//!   `madvise` residency hints ([`arena`], [`sys`]).
//! * Software NVM emulation — a throttled inter-tier copy engine
//!   (rate-limited `memcpy` in bounded chunks with injected per-migration
//!   device latency, [`copy`]) and wall-clock access pacing
//!   ([`throttle`]).
//! * Best-effort NUMA binding via raw `mbind` when a second node exists,
//!   degrading gracefully to pure emulation when it doesn't ([`numa`]).
//! * [`RealBackend`] — the `tahoe_hms::TierBackend` implementation tying
//!   the above together, with arena/copy events on `tahoe-obs`.
//! * [`BackgroundMigrator`] — the paper's helper thread: a dedicated OS
//!   thread draining a migration queue with cancellable throttled copies
//!   over a `tahoe_hms::SharedHms`, overlapping data movement with task
//!   execution ([`migrator`]).
//! * Deterministic traffic synthesis ([`traffic`]) so measured-mode runs
//!   produce checksums comparable bit-for-bit against a reference
//!   execution on plain heap buffers.
//!
//! No external crates: the few syscalls used are declared directly in
//! [`sys`] (std already links libc).

// This crate owns the raw mmap/FFI surface; every unsafe operation must
// sit in an explicit `unsafe` block with its own SAFETY justification,
// even inside `unsafe fn` bodies.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod backend;
pub mod copy;
pub mod migrator;
pub mod numa;
pub mod sys;
pub mod throttle;
pub mod traffic;

pub use arena::MmapArena;
pub use backend::RealBackend;
pub use copy::{throttled_copy, throttled_copy_cancellable, CopyConfig};
pub use migrator::{BackgroundMigrator, MigrationObserver, MigrationRequest, MigratorReport};
pub use numa::NumaTopology;
