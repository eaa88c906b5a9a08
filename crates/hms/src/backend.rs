//! Pluggable physical substrate behind the object manager.
//!
//! [`Hms`](crate::Hms) tracks *where* objects live; a [`TierBackend`]
//! decides what a tier's address space *is*. The default
//! [`VirtualBackend`] backs tiers with nothing at all — addresses are
//! bookkeeping and copies are free, which is exactly what the
//! virtual-time simulator wants. `tahoe-realmem` provides the second
//! implementation: per-tier `mmap` arenas where an object's address is a
//! real offset into a mapped region and a migration is a rate-limited
//! physical `memcpy`.
//!
//! The trait is deliberately narrow: the allocator stays in `Hms` (both
//! substrates share the same best-fit address discipline), and the
//! backend only has to translate `(tier, addr)` to bytes and execute
//! inter-tier copies.

use crate::tier::TierId;

/// What one inter-tier copy cost on the backing substrate.
///
/// The virtual backend reports zeros (its copies are accounted in
/// virtual time by the migration engine, not here); real backends report
/// measured wall-clock numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CopyOutcome {
    /// Bytes physically copied.
    pub bytes: u64,
    /// Wall-clock nanoseconds the copy took, including throttling.
    pub wall_ns: f64,
    /// Of `wall_ns`, nanoseconds spent waiting on the rate limiter and
    /// the injected device latency (0 for an unthrottled copy).
    pub throttle_ns: f64,
    /// Bounded-size chunks the copy was split into.
    pub chunks: u32,
}

/// Cumulative backend-side statistics, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendStats {
    /// Whether the backend maps real memory (false for the virtual one).
    pub is_real: bool,
    /// Inter-tier copies executed.
    pub copies: u64,
    /// Bytes physically moved between tiers.
    pub copied_bytes: u64,
    /// Total wall-clock ns spent in copies.
    pub copy_wall_ns: f64,
    /// Of that, ns spent throttling (rate limit + injected latency).
    pub copy_throttle_ns: f64,
    /// Tier arenas the kernel let use transparent huge pages (0 on the
    /// virtual substrate, or where the host refuses the advice).
    pub huge_page_arenas: u64,
    /// System calls that handed freed pages back to the kernel: one per
    /// batch where the kernel takes a vectored release, else one per
    /// range.
    pub release_calls: u64,
    /// Page ranges those calls released (`released_ranges /
    /// release_calls` is the batch factor).
    pub released_ranges: u64,
}

/// A physical (or null) substrate for the ordered tier list.
///
/// Addresses handed to the backend are the allocator's tier-local byte
/// offsets in `[0, capacity)`; a real backend resolves them against its
/// per-tier mapping.
///
/// The trait requires `Send` so an [`Hms`](crate::Hms) holding a boxed
/// backend can be shared across worker threads behind a lock (see
/// [`crate::sync::SharedHms`]); the `mmap` backend's mappings are plain
/// owned memory, so this costs real implementations nothing.
pub trait TierBackend: std::fmt::Debug + Send {
    /// Short substrate name for reports (`"virtual"`, `"mmap"`).
    fn name(&self) -> &'static str;

    /// Resolve `len` bytes at tier-local `addr` to a raw pointer, or
    /// `None` if the backend has no bytes (virtual substrate) or the
    /// range is out of bounds.
    fn data_ptr(&mut self, tier: TierId, addr: u64, len: u64) -> Option<*mut u8>;

    /// An object was allocated at `[addr, addr+len)` on `tier`.
    fn on_alloc(&mut self, _tier: TierId, _addr: u64, _len: u64) {}

    /// An object at `[addr, addr+len)` on `tier` was freed.
    fn on_free(&mut self, _tier: TierId, _addr: u64, _len: u64) {}

    /// Copy `len` object bytes from `(from, from_addr)` to
    /// `(to, to_addr)` — called by [`Hms::move_object`](crate::Hms)
    /// after the destination block is reserved and before the source is
    /// released, so both ranges are live for the duration of the copy.
    fn copy(
        &mut self,
        _object: u32,
        _from: TierId,
        _from_addr: u64,
        _to: TierId,
        _to_addr: u64,
        len: u64,
    ) -> CopyOutcome {
        CopyOutcome {
            bytes: len,
            ..CopyOutcome::default()
        }
    }

    /// A copy that was executed *outside* the backend — the background
    /// migration engine copies through raw arena pointers while the HMS
    /// lock is released, then reports the outcome here on commit so
    /// stats and events stay complete. The default ignores it (the
    /// virtual substrate has no bytes to copy in the first place).
    fn record_external_copy(
        &mut self,
        _object: u32,
        _from: TierId,
        _to: TierId,
        _outcome: &CopyOutcome,
    ) {
    }

    /// Cumulative statistics.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// The null substrate: tiers are pure bookkeeping, copies are free.
///
/// This is the simulator's backend — migration cost is modelled in
/// virtual time by [`crate::migrate::CopyChannel`], not paid here.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualBackend;

impl TierBackend for VirtualBackend {
    fn name(&self) -> &'static str {
        "virtual"
    }

    fn data_ptr(&mut self, _tier: TierId, _addr: u64, _len: u64) -> Option<*mut u8> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_backend_has_no_bytes_and_free_copies() {
        let mut b = VirtualBackend;
        assert_eq!(b.name(), "virtual");
        assert!(b.data_ptr(TierId(0), 0, 64).is_none());
        let out = b.copy(0, TierId(1), 0, TierId(0), 0, 4096);
        assert_eq!(out.bytes, 4096);
        assert_eq!(out.wall_ns, 0.0);
        assert!(!b.stats().is_real);
    }
}
