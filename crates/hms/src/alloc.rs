//! Best-fit free-list allocator for one tier's address space.
//!
//! The paper's runtime manages the scarce DRAM tier with a user-level
//! allocation service ("bounds the memory allocation within the DRAM space
//! allowance"). This module is that service: a contiguous address space
//! `[0, capacity)` carved by a best-fit free list with eager coalescing.
//! It is deliberately a real allocator — capacity pressure, fallback and
//! fragmentation in the experiments come from here, not from a counter.

use std::collections::BTreeMap;

/// A best-fit, eagerly-coalescing free-list allocator over a virtual
/// address range `[0, capacity)`.
#[derive(Debug, Clone)]
pub struct TierAllocator {
    capacity: u64,
    /// Free blocks keyed by start address, value = length. Invariants:
    /// blocks are disjoint, sorted (by key), and never adjacent (adjacent
    /// blocks are coalesced on free).
    free: BTreeMap<u64, u64>,
    /// Live allocations keyed by start address, value = length.
    live: BTreeMap<u64, u64>,
    used: u64,
    /// Total number of successful allocations over the lifetime.
    pub alloc_count: u64,
    /// Total number of frees over the lifetime.
    pub free_count: u64,
}

impl TierAllocator {
    /// Create an allocator over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        TierAllocator {
            capacity,
            free,
            live: BTreeMap::new(),
            used: 0,
            alloc_count: 0,
            free_count: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (may be fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Size of the largest contiguous free block.
    pub fn largest_free_block(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Allocate `size` bytes; returns the block's start address.
    ///
    /// Best-fit: the smallest free block that fits is chosen, splitting
    /// from its low end. Returns `None` if no block fits (including
    /// `size == 0`, which is rejected).
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        // Smallest block with len >= size; tie broken by lowest address
        // (iteration order is address order, and `<` keeps the first).
        let mut best: Option<(u64, u64)> = None;
        for (&addr, &len) in &self.free {
            if len >= size && best.is_none_or(|(_, blen)| len < blen) {
                best = Some((addr, len));
                if len == size {
                    break; // perfect fit cannot be beaten
                }
            }
        }
        let (addr, len) = best?;
        self.free.remove(&addr);
        if len > size {
            self.free.insert(addr + size, len - size);
        }
        self.live.insert(addr, size);
        self.used += size;
        self.alloc_count += 1;
        Some(addr)
    }

    /// Free the allocation starting at `addr`. Returns the block length,
    /// or `None` if `addr` is not a live allocation.
    pub fn free(&mut self, addr: u64) -> Option<u64> {
        let size = self.live.remove(&addr)?;
        self.used -= size;
        self.free_count += 1;
        // Coalesce with the predecessor if it abuts this block.
        let mut start = addr;
        let mut len = size;
        if let Some((&paddr, &plen)) = self.free.range(..addr).next_back() {
            if paddr + plen == addr {
                self.free.remove(&paddr);
                start = paddr;
                len += plen;
            }
        }
        // Coalesce with the successor if this block abuts it.
        if let Some((&naddr, &nlen)) = self.free.range(addr + size..).next() {
            if addr + size == naddr {
                self.free.remove(&naddr);
                len += nlen;
            }
        }
        self.free.insert(start, len);
        Some(size)
    }

    /// Number of free blocks (a proxy for fragmentation).
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Check internal invariants; used by tests and property tests.
    ///
    /// Verifies: accounting adds up, free blocks are disjoint and
    /// non-adjacent, live blocks are disjoint from each other and from
    /// free blocks, and everything lies within `[0, capacity)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let free_total: u64 = self.free.values().sum();
        let live_total: u64 = self.live.values().sum();
        if free_total + live_total != self.capacity {
            return Err(format!(
                "accounting mismatch: free {free_total} + live {live_total} != cap {}",
                self.capacity
            ));
        }
        if live_total != self.used {
            return Err("used counter out of sync".into());
        }
        // Merge both maps into a single address-ordered sequence and check
        // for exact tiling of the address space.
        let mut blocks: Vec<(u64, u64, bool)> = self
            .free
            .iter()
            .map(|(&a, &l)| (a, l, true))
            .chain(self.live.iter().map(|(&a, &l)| (a, l, false)))
            .collect();
        blocks.sort_unstable();
        let mut cursor = 0;
        let mut prev_free = false;
        for (addr, len, is_free) in blocks {
            if addr != cursor {
                return Err(format!("gap or overlap at {addr} (cursor {cursor})"));
            }
            if len == 0 {
                return Err(format!("zero-length block at {addr}"));
            }
            if is_free && prev_free {
                return Err(format!("uncoalesced adjacent free blocks at {addr}"));
            }
            prev_free = is_free;
            cursor = addr + len;
        }
        if cursor != self.capacity {
            return Err(format!(
                "blocks end at {cursor}, capacity {}",
                self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_is_empty() {
        let a = TierAllocator::new(1024);
        assert_eq!(a.used(), 0);
        assert_eq!(a.free_bytes(), 1024);
        assert_eq!(a.largest_free_block(), 1024);
        assert_eq!(a.free_blocks(), 1);
        a.check_invariants().unwrap();
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut a = TierAllocator::new(1024);
        let p = a.alloc(100).unwrap();
        assert_eq!(a.used(), 100);
        a.check_invariants().unwrap();
        assert_eq!(a.free(p), Some(100));
        assert_eq!(a.used(), 0);
        assert_eq!(a.largest_free_block(), 1024);
        a.check_invariants().unwrap();
    }

    #[test]
    fn zero_size_alloc_rejected() {
        let mut a = TierAllocator::new(1024);
        assert_eq!(a.alloc(0), None);
    }

    #[test]
    fn oversize_alloc_rejected() {
        let mut a = TierAllocator::new(1024);
        assert_eq!(a.alloc(2048), None);
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = TierAllocator::new(1024);
        let p = a.alloc(64).unwrap();
        assert!(a.free(p).is_some());
        assert!(a.free(p).is_none());
        a.check_invariants().unwrap();
    }

    #[test]
    fn best_fit_prefers_tightest_block() {
        let mut a = TierAllocator::new(1000);
        // Carve free blocks of sizes 100 and 50 separated by live blocks.
        let p1 = a.alloc(100).unwrap(); // [0,100)
        let _p2 = a.alloc(10).unwrap(); // [100,110)
        let p3 = a.alloc(50).unwrap(); // [110,160)
        let _p4 = a.alloc(840).unwrap(); // rest
        a.free(p1);
        a.free(p3);
        a.check_invariants().unwrap();
        // A 40-byte request must come from the 50-byte hole, not the 100.
        let q = a.alloc(40).unwrap();
        assert_eq!(q, 110);
        a.check_invariants().unwrap();
    }

    #[test]
    fn coalescing_restores_single_block() {
        let mut a = TierAllocator::new(300);
        let p1 = a.alloc(100).unwrap();
        let p2 = a.alloc(100).unwrap();
        let p3 = a.alloc(100).unwrap();
        // Free middle, then neighbours: ends as one block.
        a.free(p2);
        assert_eq!(a.free_blocks(), 1);
        a.free(p1);
        assert_eq!(a.free_blocks(), 1, "left coalesce failed");
        a.free(p3);
        assert_eq!(a.free_blocks(), 1, "right coalesce failed");
        assert_eq!(a.largest_free_block(), 300);
        a.check_invariants().unwrap();
    }

    #[test]
    fn fragmentation_visible_after_interleaved_frees() {
        let mut a = TierAllocator::new(400);
        let mut ptrs = Vec::new();
        for _ in 0..4 {
            ptrs.push(a.alloc(100).unwrap());
        }
        // Free blocks 0 and 2: 200 free bytes but largest block 100.
        a.free(ptrs[0]);
        a.free(ptrs[2]);
        assert_eq!(a.free_bytes(), 200);
        assert_eq!(a.largest_free_block(), 100);
        // 200 bytes are free, but no 150-byte request fits.
        assert_eq!(a.alloc(150), None);
        assert_eq!(a.alloc(100), Some(0));
        a.check_invariants().unwrap();
    }

    #[test]
    fn exact_fill_leaves_no_free_block() {
        let mut a = TierAllocator::new(256);
        let _ = a.alloc(256).unwrap();
        assert_eq!(a.free_bytes(), 0);
        assert_eq!(a.free_blocks(), 0);
        assert_eq!(a.largest_free_block(), 0);
        a.check_invariants().unwrap();
    }
}
