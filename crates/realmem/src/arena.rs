//! Per-tier `mmap` arenas.
//!
//! One [`MmapArena`] backs one tier: a single page-aligned anonymous
//! mapping sized to the tier's capacity. Address translation is trivial
//! by design — the HMS allocator hands out tier-local byte offsets in
//! `[0, capacity)`, and the arena resolves them against its base
//! pointer. Allocation policy stays in `tahoe_hms::alloc::TierAllocator`;
//! the arena only owns the bytes and the residency hints.
//!
//! **Huge pages, one rule for every arena.** Each mapping starts on a
//! 2 MiB boundary and is advised `MADV_HUGEPAGE`, so first touch faults
//! a 2 MiB page at a time instead of 512 small ones and the TLB covers
//! the arena with a few entries. Every tier of every backend and the
//! calibration scratch arena take the same rule, so no policy gets a
//! page size another does not, and the calibration measures the memory
//! the runs use. A refused advice (THP `never`, `EINVAL`) leaves
//! today's 4 KiB arena. The length stays page-rounded: padding a small
//! arena to 2 MiB would fault a whole huge page for a partial tail.

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
    /// Whether the kernel took the huge-page advice.
    huge_pages: bool,
}

impl MmapArena {
    /// Map an arena of at least `capacity` bytes for the tier at index
    /// `tier`, with a human-readable `label` (the tier spec's device
    /// name). The mapped length is `capacity` rounded up to a whole
    /// page; the base is 2 MiB-aligned and the mapping advised to use
    /// huge pages where the host's THP mode honours the advice.
    pub fn new(tier: TierId, label: &str, capacity: u64) -> Result<Self, String> {
        Self::map(tier, label, capacity, sys::thp_mode().honours_advice())
    }

    /// [`MmapArena::new`], advising huge pages only if `ask_huge`: the
    /// arena a refused advice leaves.
    pub(crate) fn map(
        tier: TierId,
        label: &str,
        capacity: u64,
        ask_huge: bool,
    ) -> Result<Self, String> {
        if capacity == 0 {
            return Err(format!("{label} arena capacity must be nonzero"));
        }
        let len = usize::try_from(capacity).map_err(|e| format!("{label} arena: {e}"))?;
        let mapping =
            sys::map_aligned(len, sys::HUGE_PAGE).map_err(|e| format!("{label} arena: {e}"))?;
        let huge_pages = ask_huge && sys::advise(&mapping, 0, mapping.len(), Advice::HugePage);
        Ok(MmapArena {
            tier,
            label: label.to_string(),
            mapping,
            capacity,
            live_bytes: 0,
            numa_node: -1,
            huge_pages,
        })
    }

    /// Whether the arena took the huge-page advice (`false`: 4 KiB
    /// pages throughout).
    pub fn huge_pages(&self) -> bool {
        self.huge_pages
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
    /// reclaim the physical pages (the mapping itself stays). On every
    /// tier: a range inside a huge page splits it and returns its 4 KiB
    /// pages, so resident memory stays what is live.
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

    /// The arena's whole capacity as bytes. The slice is not tied to a
    /// borrow of the arena, so hints can be issued while it is held.
    fn bytes(a: &MmapArena) -> &'static mut [u8] {
        let p = a.data_ptr(0, a.capacity()).unwrap();
        // SAFETY: `data_ptr` bounds-checked `capacity` writable bytes;
        // every test drops its arena only after its last use of them.
        unsafe { std::slice::from_raw_parts_mut(p, a.capacity() as usize) }
    }

    /// `AnonHugePages` of the `/proc/self/smaps` entry holding `addr`,
    /// KiB; `None` where smaps is unreadable.
    fn anon_huge_kib(addr: usize) -> Option<u64> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_once(' ').and_then(|(r, _)| r.split_once('-'));
            if let Some((lo, hi)) = range {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if let Some(kib) = line.strip_prefix("AnonHugePages:").filter(|_| inside) {
                return kib.trim().trim_end_matches("kB").trim().parse().ok();
            }
        }
        None
    }

    #[test]
    fn arena_base_is_huge_page_aligned() {
        for capacity in [4096, 10_000, 3 << 20, 4 << 20] {
            let a = MmapArena::new(TierId(0), "DRAM", capacity).unwrap();
            assert_eq!(a.base_ptr() as usize % sys::HUGE_PAGE, 0, "{capacity} B");
        }
    }

    #[test]
    fn touched_arena_is_backed_by_huge_pages() {
        let mode = sys::thp_mode();
        if !mode.honours_advice() {
            println!("skipped: THP mode is `{}`", mode.label());
            return;
        }
        let a = MmapArena::new(TierId(0), "DRAM", 4 << 20).unwrap();
        assert!(a.huge_pages(), "THP `{}` refused the advice", mode.label());
        bytes(&a).fill(0x3C);
        let Some(kib) = anon_huge_kib(a.base_ptr() as usize) else {
            println!("skipped: /proc/self/smaps is unreadable");
            return;
        };
        assert!(kib > 0, "a touched 4 MiB arena has no huge page");
    }

    /// The split path: a free inside a huge page returns its 4 KiB
    /// pages and nothing around them.
    #[test]
    fn freeing_inside_a_huge_page_keeps_its_neighbours() {
        let mut a = MmapArena::new(TierId(0), "DRAM", 4 << 20).unwrap();
        a.on_alloc(0, 4 << 20);
        let all = bytes(&a);
        all.fill(0xA5);
        let (at, len) = (1usize << 20, 64usize << 10);
        a.on_free(at as u64, len as u64);
        assert!(
            all[..at].iter().all(|&b| b == 0xA5),
            "bytes before the hole"
        );
        assert!(all[at + len..].iter().all(|&b| b == 0xA5), "bytes after it");
        a.on_alloc(at as u64, len as u64);
        assert!(
            all[at..at + len].iter().all(|&b| b == 0),
            "a reallocated range reads back as fresh memory"
        );
    }

    #[test]
    fn sub_huge_page_arena_is_not_padded_and_works() {
        let mut a = MmapArena::new(TierId(1), "NVM", 100 << 10).unwrap();
        assert_eq!(a.mapped_len(), 100 << 10, "no padding to 2 MiB");
        a.on_alloc(0, 100 << 10);
        let all = bytes(&a);
        all.fill(0x11);
        a.on_free(8 << 10, 8 << 10);
        assert!(all[..8 << 10].iter().all(|&b| b == 0x11));
        assert!(all[16 << 10..].iter().all(|&b| b == 0x11));
    }

    #[test]
    fn a_refused_advice_leaves_a_working_small_page_arena() {
        let mut a = MmapArena::map(TierId(0), "DRAM", 4 << 20, false).unwrap();
        assert!(!a.huge_pages());
        a.on_alloc(0, 4 << 20);
        let all = bytes(&a);
        all.fill(0x77);
        a.on_free(0, 64 << 10);
        assert!(all[64 << 10..].iter().all(|&b| b == 0x77));
        assert!(all[..64 << 10].iter().all(|&b| b == 0));
        if let Some(kib) = anon_huge_kib(a.base_ptr() as usize) {
            // Under THP `always` the kernel may still use huge pages.
            if sys::thp_mode() != sys::ThpMode::Always {
                assert_eq!(kib, 0, "an unadvised arena got huge pages");
            }
        }
    }
}
