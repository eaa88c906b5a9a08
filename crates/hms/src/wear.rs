//! Write-endurance (wear) accounting.
//!
//! PCM/ReRAM-class NVM has finite write endurance (10⁶–10⁸ cycles per
//! cell), so a data-management runtime affects device *lifetime*, not
//! just performance: keeping write-hot objects in DRAM shelters the NVM
//! from their stores, while migrations add copy writes of their own.
//! This module tallies bytes written from both sources, split into the
//! fastest tier (DRAM, which does not wear) versus every slower tier, so
//! runs can report NVM write traffic and the write-shielding ratio.

use crate::tier::TierId;

/// Bytes written to DRAM (tier 0) versus the slower tiers, split by
/// cause.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearStats {
    /// Application store traffic that landed in DRAM.
    pub dram_store_bytes: u64,
    /// Application store traffic that landed in NVM.
    pub nvm_store_bytes: u64,
    /// Migration copy traffic written into DRAM (promotions).
    pub dram_copy_bytes: u64,
    /// Migration copy traffic written into NVM (evictions).
    pub nvm_copy_bytes: u64,
}

impl WearStats {
    /// Record application stores of `bytes` to `tier`.
    pub fn record_stores(&mut self, tier: TierId, bytes: u64) {
        if tier == TierId::FASTEST {
            self.dram_store_bytes += bytes;
        } else {
            self.nvm_store_bytes += bytes;
        }
    }

    /// Record a migration writing `bytes` into `dest`.
    pub fn record_copy(&mut self, dest: TierId, bytes: u64) {
        if dest == TierId::FASTEST {
            self.dram_copy_bytes += bytes;
        } else {
            self.nvm_copy_bytes += bytes;
        }
    }

    /// Total bytes written to NVM (stores + eviction copies) — the
    /// quantity endurance budgets are written against.
    pub fn nvm_written_bytes(&self) -> u64 {
        self.nvm_store_bytes + self.nvm_copy_bytes
    }

    /// Total application store bytes regardless of tier.
    pub fn total_store_bytes(&self) -> u64 {
        self.dram_store_bytes + self.nvm_store_bytes
    }

    /// Fraction of application store traffic shielded from the NVM by
    /// DRAM placement, in `[0, 1]`. 1.0 = every store landed in DRAM.
    pub fn write_shielding(&self) -> f64 {
        let total = self.total_store_bytes();
        if total == 0 {
            return 1.0;
        }
        self.dram_store_bytes as f64 / total as f64
    }

    /// NVM write amplification: NVM bytes written per application store
    /// byte (can exceed 1 when eviction copies dominate, or be far below
    /// 1 when DRAM shields stores).
    pub fn nvm_write_amplification(&self) -> f64 {
        let total = self.total_store_bytes();
        if total == 0 {
            return 0.0;
        }
        self.nvm_written_bytes() as f64 / total as f64
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &WearStats) {
        self.dram_store_bytes += other.dram_store_bytes;
        self.nvm_store_bytes += other.nvm_store_bytes;
        self.dram_copy_bytes += other.dram_copy_bytes;
        self.nvm_copy_bytes += other.nvm_copy_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRAM: TierId = TierId(0);
    const NVM: TierId = TierId(1);

    #[test]
    fn stores_split_by_tier() {
        let mut w = WearStats::default();
        w.record_stores(DRAM, 100);
        w.record_stores(NVM, 300);
        assert_eq!(w.total_store_bytes(), 400);
        assert_eq!(w.nvm_written_bytes(), 300);
        assert!((w.write_shielding() - 0.25).abs() < 1e-12);
        assert!((w.nvm_write_amplification() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn copies_count_against_destination() {
        let mut w = WearStats::default();
        w.record_copy(DRAM, 1000); // promotion
        w.record_copy(NVM, 500); // eviction
        assert_eq!(w.dram_copy_bytes, 1000);
        assert_eq!(w.nvm_copy_bytes, 500);
        assert_eq!(w.nvm_written_bytes(), 500);
    }

    #[test]
    fn eviction_heavy_run_amplifies() {
        let mut w = WearStats::default();
        w.record_stores(DRAM, 100);
        w.record_copy(NVM, 400);
        assert!(w.nvm_write_amplification() > 1.0);
    }

    #[test]
    fn empty_run_is_fully_shielded() {
        let w = WearStats::default();
        assert_eq!(w.write_shielding(), 1.0);
        assert_eq!(w.nvm_write_amplification(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = WearStats::default();
        a.record_stores(NVM, 10);
        let mut b = WearStats::default();
        b.record_stores(NVM, 30);
        b.record_copy(DRAM, 5);
        a.merge(&b);
        assert_eq!(a.nvm_store_bytes, 40);
        assert_eq!(a.dram_copy_bytes, 5);
    }
}
