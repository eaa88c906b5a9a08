//! Per-tier `mmap` arenas.
//!
//! One [`MmapArena`] backs one tier: a single page-aligned anonymous
//! mapping sized to the tier's capacity. Address translation is trivial
//! by design — the HMS allocator hands out tier-local byte offsets in
//! `[0, capacity)`, and the arena resolves them against its base
//! pointer. Allocation policy stays in `tahoe_hms::alloc::TierAllocator`;
//! the arena only owns the bytes and the residency hints.

use tahoe_hms::TierId;

use crate::sys::{self, Advice, Mapping};

/// A page-aligned, capacity-tracked mapping backing one memory tier.
#[derive(Debug)]
pub struct MmapArena {
    tier: TierId,
    label: String,
    mapping: Mapping,
    capacity: u64,
    /// Bytes currently covered by live allocations (hint bookkeeping).
    live_bytes: u64,
    numa_node: i64,
}

impl MmapArena {
    /// Map an arena of at least `capacity` bytes for the tier at index
    /// `tier`, with a human-readable `label` (the tier spec's device
    /// name). The mapped length is `capacity` rounded up to a whole
    /// page.
    pub fn new(tier: TierId, label: &str, capacity: u64) -> Result<Self, String> {
        if capacity == 0 {
            return Err(format!("{label} arena capacity must be nonzero"));
        }
        let ps = sys::page_size();
        let mapped = capacity.div_ceil(ps) * ps;
        let mapping =
            sys::map_anonymous(mapped as usize).map_err(|e| format!("{label} arena: {e}"))?;
        Ok(MmapArena {
            tier,
            label: label.to_string(),
            mapping,
            capacity,
            live_bytes: 0,
            numa_node: -1,
        })
    }

    /// Index of the tier this arena backs.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Human-readable device label of the tier this arena backs.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Usable capacity in bytes (what the allocator sees).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Mapped length in bytes (capacity rounded to pages).
    pub fn mapped_len(&self) -> u64 {
        self.mapping.len() as u64
    }

    /// Bytes currently spanned by live allocations.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// NUMA node the arena is bound to, `-1` when unbound (emulation).
    pub fn numa_node(&self) -> i64 {
        self.numa_node
    }

    /// Record the NUMA node this arena's pages were bound to.
    pub(crate) fn set_numa_node(&mut self, node: i64) {
        self.numa_node = node;
    }

    /// Base pointer of the mapping (for NUMA binding of whole arenas).
    pub(crate) fn base_ptr(&self) -> *mut u8 {
        self.mapping.as_ptr()
    }

    /// Resolve `len` bytes at tier-local offset `addr`, or `None` when
    /// the range exceeds the capacity.
    pub fn data_ptr(&self, addr: u64, len: u64) -> Option<*mut u8> {
        if addr.checked_add(len)? > self.capacity {
            return None;
        }
        // SAFETY: the range was just bounds-checked against the mapping.
        Some(unsafe { self.mapping.as_ptr().add(addr as usize) })
    }

    /// A live allocation appeared at `[addr, addr+len)`: pre-fault hint.
    pub fn on_alloc(&mut self, addr: u64, len: u64) {
        self.live_bytes = self.live_bytes.saturating_add(len);
        sys::advise(&self.mapping, addr as usize, len as usize, Advice::WillNeed);
    }

    /// The allocation at `[addr, addr+len)` was freed: let the kernel
    /// reclaim the physical pages (the mapping itself stays).
    pub fn on_free(&mut self, addr: u64, len: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(len);
        sys::advise(&self.mapping, addr as usize, len as usize, Advice::DontNeed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_maps_page_rounded_capacity() {
        let a = MmapArena::new(TierId(0), "DRAM", 10_000).unwrap();
        assert_eq!(a.capacity(), 10_000);
        assert!(a.mapped_len() >= 10_000);
        assert_eq!(a.mapped_len() % sys::page_size(), 0);
        assert_eq!(a.numa_node(), -1);
    }

    #[test]
    fn data_ptr_bounds_checks() {
        let a = MmapArena::new(TierId(1), "NVM", 4096).unwrap();
        assert!(a.data_ptr(0, 4096).is_some());
        assert!(a.data_ptr(4096, 1).is_none());
        assert!(a.data_ptr(1, 4096).is_none());
        assert!(a.data_ptr(u64::MAX, 2).is_none());
    }

    #[test]
    fn bytes_are_writable_and_stable_across_hints() {
        let mut a = MmapArena::new(TierId(0), "DRAM", 1 << 16).unwrap();
        a.on_alloc(0, 1 << 12);
        let p = a.data_ptr(100, 8).unwrap();
        // SAFETY: `data_ptr` bounds-checked 8 writable bytes at `p`.
        unsafe {
            p.write_bytes(0x5A, 8);
            assert_eq!(*p, 0x5A);
        }
        // Freeing a *different* range must not clobber live data.
        a.on_alloc(1 << 12, 1 << 12);
        a.on_free(1 << 12, 1 << 12);
        // SAFETY: same in-bounds pointer; the arena mapping is still live.
        unsafe {
            assert_eq!(*p, 0x5A);
        }
        assert_eq!(a.live_bytes(), 1 << 12);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(MmapArena::new(TierId(1), "CXL", 0).is_err());
    }

    #[test]
    fn indexed_arena_carries_tier_and_label() {
        let a = MmapArena::new(TierId(1), "CXL", 4096).unwrap();
        assert_eq!(a.tier(), TierId(1));
        assert_eq!(a.label(), "CXL");
    }
}
