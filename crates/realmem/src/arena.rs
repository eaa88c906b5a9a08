//! Per-tier `mmap` arenas.
//!
//! One [`MmapArena`] backs one tier: a single page-aligned anonymous
//! mapping sized to the tier's capacity. Address translation is trivial
//! by design — the HMS allocator hands out tier-local byte offsets in
//! `[0, capacity)`, and the arena resolves them against its base
//! pointer. Allocation policy stays in `tahoe_hms::alloc::TierAllocator`;
//! the arena only owns the bytes, the huge-page advice and the release
//! of freed pages.
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
//!
//! **Freed pages go back in batches.** A free hands the kernel only the
//! whole pages inside the freed range — bytes sharing a page with a
//! neighbour are zeroed in place, so the neighbour keeps its bytes —
//! and not at once: they join a pending batch that one
//! `process_madvise(MADV_DONTNEED)` releases ([`sys::release`]), so one
//! system call and one TLB shootdown cover many objects. A batch goes
//! when it holds [`sys::HUGE_PAGE`] bytes (the most resident memory can
//! exceed live memory by; the ranges then fit one call's
//! [`sys::MAX_IOV`]), and before an
//! allocation reuses any of its bytes, so a reallocated range reads
//! back as fresh zeroed memory and no later release can zap it. The
//! mapping's `munmap` covers whatever is pending when the arena drops.

use tahoe_hms::TierId;

use crate::sys::{self, Mapping, ReleasePath};

// Every pending range holds at least a 4 KiB page, so a batch below
// `HUGE_PAGE` bytes is within the ranges one vectored call takes.
const _: () = assert!(sys::HUGE_PAGE / 4096 <= sys::MAX_IOV);

/// What one free or allocation handed back to the kernel: the system
/// calls made and the ranges they released (both 0 while a batch fills).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Released {
    /// Release system calls made.
    pub calls: u64,
    /// Page ranges those calls released.
    pub ranges: u64,
}

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
    /// Whole pages of freed ranges not yet released, `(offset, len)`.
    pending: Vec<(usize, usize)>,
    /// Bytes in `pending`.
    pending_bytes: usize,
    /// How a batch goes back to the kernel; the property test drives
    /// both paths.
    #[cfg(test)]
    release_path: ReleasePath,
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
        let huge_pages = ask_huge && sys::advise_huge_pages(&mapping);
        Ok(MmapArena {
            tier,
            label: label.to_string(),
            mapping,
            capacity,
            live_bytes: 0,
            numa_node: -1,
            huge_pages,
            pending: Vec::new(),
            pending_bytes: 0,
            #[cfg(test)]
            release_path: ReleasePath::Batched,
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

    /// Bytes of freed whole pages waiting for the next release (at most
    /// [`sys::HUGE_PAGE`]).
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes as u64
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

    /// A live allocation appeared at `[addr, addr+len)`. If any of its
    /// bytes wait in the pending batch, the batch is released first.
    pub fn on_alloc(&mut self, addr: u64, len: u64) -> Released {
        self.live_bytes = self.live_bytes.saturating_add(len);
        let (lo, hi) = (addr as usize, addr.saturating_add(len) as usize);
        if self.pending.iter().any(|&(at, n)| at < hi && lo < at + n) {
            self.release()
        } else {
            Released::default()
        }
    }

    /// The allocation at `[addr, addr+len)` was freed: its whole pages
    /// join the pending batch and its bytes on pages shared with a
    /// neighbour are zeroed. Releases the batch once it is full. The
    /// range must be one the allocator has just freed: nothing may
    /// access its bytes any more.
    pub fn on_free(&mut self, addr: u64, len: u64) -> Released {
        self.live_bytes = self.live_bytes.saturating_sub(len);
        let Some(base) = self.data_ptr(addr, len) else {
            debug_assert!(false, "free of [{addr}, +{len}) beyond the arena");
            return Released::default();
        };
        let ps = sys::page_size() as usize;
        let (lo, hi) = (addr as usize, (addr + len) as usize);
        let start = lo.next_multiple_of(ps).min(hi);
        let end = (hi / ps * ps).max(start);
        // SAFETY: `[lo, start)` and `[end, hi)` lie inside the freed
        // range, which `data_ptr` bounds-checked and no live object holds.
        unsafe {
            base.write_bytes(0, start - lo);
            base.add(end - lo).write_bytes(0, hi - end);
        }
        if end > start {
            self.pending.push((start, end - start));
            self.pending_bytes += end - start;
        }
        if self.pending_bytes >= sys::HUGE_PAGE {
            self.release()
        } else {
            Released::default()
        }
    }

    /// Hand the pending batch back to the kernel.
    fn release(&mut self) -> Released {
        #[cfg(test)]
        let path = self.release_path;
        #[cfg(not(test))]
        let path = ReleasePath::Batched;
        // SAFETY: every pending range is whole pages inside a freed
        // range that no allocation has reused since (`on_alloc` releases
        // the batch before handing out any of its bytes), so no object
        // lives there and nothing may access it.
        let calls = unsafe { sys::release(&self.mapping, &self.pending, path) };
        let ranges = self.pending.len() as u64;
        self.pending.clear();
        self.pending_bytes = 0;
        Released { calls, ranges }
    }

    /// Release every batch range by range, as a kernel that refuses the
    /// batched call does.
    #[cfg(test)]
    pub(crate) fn release_per_range(&mut self) {
        self.release_path = ReleasePath::PerRange;
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
        assert_eq!(a.pending_bytes(), 64 << 10, "a free waits for its batch");
        // Reusing part of the pending range releases the whole batch
        // first: the freed bytes read zero once released and on reuse.
        let released = a.on_alloc(0, 4 << 10);
        assert_eq!((released.ranges, a.pending_bytes()), (1, 0));
        assert!(all[..64 << 10].iter().all(|&b| b == 0));
        if let Some(kib) = anon_huge_kib(a.base_ptr() as usize) {
            // Under THP `always` the kernel may still use huge pages.
            if sys::thp_mode() != sys::ThpMode::Always {
                assert_eq!(kib, 0, "an unadvised arena got huge pages");
            }
        }
    }

    /// 256 frees of 8 KiB fill one 2 MiB batch: the first 255 release
    /// nothing, the 256th releases all of them in one call (one per
    /// range where the kernel refuses the batched call), and only the
    /// freed ranges read zero.
    #[test]
    fn a_full_batch_is_released_at_once() {
        let mut a = MmapArena::new(TierId(1), "NVM", 8 << 20).unwrap();
        a.on_alloc(0, 8 << 20);
        let all = bytes(&a);
        all.fill(0x42);
        let (len, stride) = (8usize << 10, 16usize << 10);
        for i in 0..255 {
            assert_eq!(
                a.on_free((i * stride) as u64, len as u64),
                Released::default()
            );
        }
        assert_eq!(a.pending_bytes(), 255 * len as u64);
        assert!(all.iter().all(|&b| b == 0x42), "nothing released yet");
        let released = a.on_free((255 * stride) as u64, len as u64);
        assert_eq!(released.ranges, 256);
        assert!(sys::batched_calls_ok(released.calls, 256), "{released:?}");
        assert_eq!(a.pending_bytes(), 0);
        for i in 0..256 {
            let at = i * stride;
            assert!(all[at..at + len].iter().all(|&b| b == 0), "range {i}");
            assert!(all[at + len..at + stride].iter().all(|&b| b == 0x42));
        }
    }

    /// A free whose pages it shares with live neighbours zeroes its own
    /// bytes and releases no page: the neighbours keep theirs.
    #[test]
    fn a_free_sharing_pages_zeroes_only_its_own_bytes() {
        let mut a = MmapArena::new(TierId(1), "NVM", 1 << 20).unwrap();
        let all = bytes(&a);
        for (i, at) in [0usize, 5000, 10_000].into_iter().enumerate() {
            a.on_alloc(at as u64, 5000);
            all[at..at + 5000].fill(i as u8 + 1);
        }
        a.on_free(5000, 5000);
        assert!(all[..5000].iter().all(|&b| b == 1), "object 0");
        assert!(all[5000..10_000].iter().all(|&b| b == 0), "the freed one");
        assert!(all[10_000..15_000].iter().all(|&b| b == 3), "object 2");
        assert_eq!(a.pending_bytes(), 0, "it covers no whole page");
    }

    /// One random alloc/free sequence on a `TierAllocator`-driven arena.
    /// Every allocation is filled with its own byte; after every step
    /// each live allocation reads its byte, a fresh one reads zero, and
    /// at most one huge page of freed memory waits. Returns the arena's
    /// final bytes and the ranges released.
    fn run_sequence(
        ops: &[(bool, u64, bool)],
        per_range: bool,
    ) -> Result<(Vec<u8>, u64), proptest::TestCaseError> {
        use proptest::prop_assert;
        const CAPACITY: u64 = 8 << 20;
        let mut arena = MmapArena::new(TierId(1), "NVM", CAPACITY).unwrap();
        if per_range {
            arena.release_per_range();
        }
        let mut alloc = tahoe_hms::alloc::TierAllocator::new(CAPACITY);
        let all = bytes(&arena);
        let mut live: Vec<(usize, usize, u8)> = Vec::new();
        let mut ranges = 0;
        for (step, &(free, size, page_multiple)) in ops.iter().enumerate() {
            let size = if page_multiple {
                size.next_multiple_of(sys::page_size())
            } else {
                size
            };
            if free && !live.is_empty() {
                let (at, len, _) = live.swap_remove(size as usize % live.len());
                alloc.free(at as u64).unwrap();
                ranges += arena.on_free(at as u64, len as u64).ranges;
            } else if let Some(at) = alloc.alloc(size) {
                let (at, len) = (at as usize, size as usize);
                ranges += arena.on_alloc(at as u64, size).ranges;
                prop_assert!(all[at..at + len] == vec![0; len][..], "step {step}: reuse");
                let fill = step as u8 | 1;
                all[at..at + len].fill(fill);
                live.push((at, len, fill));
            }
            for &(at, len, fill) in &live {
                prop_assert!(all[at..at + len] == vec![fill; len][..], "step {step}");
            }
            prop_assert!(arena.pending_bytes() < sys::HUGE_PAGE as u64);
        }
        Ok((all.to_vec(), ranges))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn random_alloc_free_sequences_keep_every_live_byte(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 1u64..300_000, proptest::bool::ANY),
                1..120,
            ),
        ) {
            let (batched, batched_ranges) = run_sequence(&ops, false)?;
            let (per_range, per_range_ranges) = run_sequence(&ops, true)?;
            proptest::prop_assert_eq!(batched_ranges, per_range_ranges);
            proptest::prop_assert!(batched == per_range, "the two release paths differ");
        }
    }
}
