//! Asynchronous migration engine with overlap accounting.
//!
//! The paper hides migration cost behind computation: a helper thread
//! drains a FIFO of migration requests while worker threads keep executing
//! tasks, and the runtime only stalls if a task becomes ready before the
//! migration of one of its objects has finished. This module models that
//! helper thread as a single *copy channel* with finite bandwidth: requests
//! are serviced in issue order, each occupying the channel for
//! `bytes / copy_bw` virtual nanoseconds.
//!
//! Overlap accounting mirrors the paper's "%overlap" table: for each
//! migration we record how much of its duration was hidden behind
//! execution (the consumer task had not become ready yet) versus *exposed*
//! (a task sat waiting for the copy to finish).

use crate::object::ObjectId;
use crate::tier::TierId;
use crate::Ns;

/// A single-bandwidth copy channel between the tiers, serviced FIFO.
#[derive(Debug, Clone)]
pub struct CopyChannel {
    copy_bw_gbps: f64,
    free_at: Ns,
}

impl CopyChannel {
    /// Create a channel with the given copy bandwidth (GB/s).
    pub fn new(copy_bw_gbps: f64) -> Self {
        assert!(copy_bw_gbps > 0.0, "copy bandwidth must be positive");
        CopyChannel {
            copy_bw_gbps,
            free_at: 0.0,
        }
    }

    /// Copy bandwidth in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.copy_bw_gbps
    }

    /// Time at which the channel becomes idle.
    pub fn free_at(&self) -> Ns {
        self.free_at
    }

    /// Duration a copy of `bytes` occupies the channel.
    pub fn copy_duration_ns(&self, bytes: u64) -> Ns {
        bytes as f64 / self.copy_bw_gbps
    }

    /// Schedule a copy of `bytes` issued at `issue`: it starts when both
    /// the request has been issued and the channel is free, and runs to
    /// completion. Returns `(start, finish)` and advances the channel.
    pub fn schedule(&mut self, bytes: u64, issue: Ns) -> (Ns, Ns) {
        let start = issue.max(self.free_at);
        let finish = start + self.copy_duration_ns(bytes);
        self.free_at = finish;
        (start, finish)
    }

    /// Reset the channel to idle at time zero (new simulation run).
    pub fn reset(&mut self) {
        self.free_at = 0.0;
    }
}

/// Record of one completed (scheduled) migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Object (or chunk) that moved.
    pub object: ObjectId,
    /// Bytes moved.
    pub bytes: u64,
    /// Source tier.
    pub from: TierId,
    /// Destination tier.
    pub to: TierId,
    /// Virtual time the request was issued by the planner.
    pub issued_at: Ns,
    /// Virtual time the copy started on the channel.
    pub start: Ns,
    /// Virtual time the copy finished.
    pub finish: Ns,
    /// Virtual time the first consumer needed the object (if any). Set by
    /// the runtime when the consuming task becomes ready.
    pub needed_at: Option<Ns>,
}

impl MigrationRecord {
    /// Portion of the copy hidden behind execution: the part that
    /// completed before the consumer needed the data (entire copy when no
    /// consumer waited).
    pub fn overlapped_ns(&self) -> Ns {
        let dur = self.finish - self.start;
        match self.needed_at {
            None => dur,
            Some(need) => (need.min(self.finish) - self.start).max(0.0).min(dur),
        }
    }

    /// Portion of the copy a consumer task had to wait for.
    pub fn exposed_ns(&self) -> Ns {
        let dur = self.finish - self.start;
        dur - self.overlapped_ns()
    }
}

/// Aggregated migration statistics (the paper's migration table: number of
/// migrations, migrated data size, % overlapped).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationStats {
    /// Number of migrations performed.
    pub count: u64,
    /// Total bytes migrated.
    pub bytes: u64,
    /// Total channel time hidden behind execution.
    pub overlapped_ns: Ns,
    /// Total channel time tasks waited on.
    pub exposed_ns: Ns,
    /// Migrations to a slower tier (evictions).
    pub evictions: u64,
    /// Migrations to a faster tier (promotions).
    pub promotions: u64,
}

impl MigrationStats {
    /// Fold one record into the statistics.
    pub fn record(&mut self, rec: &MigrationRecord) {
        self.count += 1;
        self.bytes += rec.bytes;
        self.overlapped_ns += rec.overlapped_ns();
        self.exposed_ns += rec.exposed_ns();
        if rec.to < rec.from {
            self.promotions += 1;
        } else {
            self.evictions += 1;
        }
    }

    /// Percentage of migration time that was overlapped with execution.
    pub fn pct_overlap(&self) -> f64 {
        let total = self.overlapped_ns + self.exposed_ns;
        if total == 0.0 {
            100.0
        } else {
            100.0 * self.overlapped_ns / total
        }
    }

    /// Migrated volume in MB.
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1.0e6
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &MigrationStats) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.overlapped_ns += other.overlapped_ns;
        self.exposed_ns += other.exposed_ns;
        self.evictions += other.evictions;
        self.promotions += other.promotions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: Ns, finish: Ns, needed_at: Option<Ns>) -> MigrationRecord {
        MigrationRecord {
            object: ObjectId(0),
            bytes: 1000,
            from: TierId(1),
            to: TierId(0),
            issued_at: start,
            start,
            finish,
            needed_at,
        }
    }

    #[test]
    fn channel_serializes_requests() {
        let mut ch = CopyChannel::new(1.0); // 1 GB/s = 1 byte/ns
        let (s1, f1) = ch.schedule(1000, 0.0);
        assert_eq!((s1, f1), (0.0, 1000.0));
        // Second request issued while busy waits for the channel.
        let (s2, f2) = ch.schedule(500, 100.0);
        assert_eq!((s2, f2), (1000.0, 1500.0));
        // Request issued after idle starts immediately.
        let (s3, f3) = ch.schedule(100, 2000.0);
        assert_eq!((s3, f3), (2000.0, 2100.0));
    }

    #[test]
    fn copy_duration_scales_inverse_bandwidth() {
        let fast = CopyChannel::new(10.0);
        let slow = CopyChannel::new(2.5);
        assert!((fast.copy_duration_ns(4000) - 400.0).abs() < 1e-9);
        assert!((slow.copy_duration_ns(4000) - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn fully_hidden_migration_is_100_pct_overlap() {
        // Consumer needed the data after the copy finished.
        let r = rec(0.0, 1000.0, Some(5000.0));
        assert_eq!(r.overlapped_ns(), 1000.0);
        assert_eq!(r.exposed_ns(), 0.0);
    }

    #[test]
    fn unconsumed_migration_counts_as_hidden() {
        let r = rec(0.0, 1000.0, None);
        assert_eq!(r.exposed_ns(), 0.0);
    }

    #[test]
    fn fully_exposed_migration() {
        // Consumer was already waiting when the copy started.
        let r = rec(200.0, 1200.0, Some(200.0));
        assert_eq!(r.overlapped_ns(), 0.0);
        assert_eq!(r.exposed_ns(), 1000.0);
    }

    #[test]
    fn partially_exposed_migration() {
        let r = rec(0.0, 1000.0, Some(600.0));
        assert_eq!(r.overlapped_ns(), 600.0);
        assert_eq!(r.exposed_ns(), 400.0);
    }

    #[test]
    fn stats_aggregate_and_percentage() {
        let mut st = MigrationStats::default();
        st.record(&rec(0.0, 1000.0, Some(600.0))); // 600 hidden / 400 exposed
        st.record(&rec(0.0, 1000.0, None)); // fully hidden
        assert_eq!(st.count, 2);
        assert_eq!(st.bytes, 2000);
        assert_eq!(st.promotions, 2);
        assert!((st.pct_overlap() - 80.0).abs() < 1e-9);
        // Direction, not destination, classifies: spill → middle is a
        // promotion, fastest → middle an eviction.
        let hop = |from, to| MigrationRecord {
            from: TierId(from),
            to: TierId(to),
            ..rec(0.0, 10.0, None)
        };
        st.record(&hop(2, 1));
        st.record(&hop(0, 1));
        assert_eq!((st.promotions, st.evictions), (3, 1));
    }

    #[test]
    fn stats_merge() {
        let mut a = MigrationStats::default();
        a.record(&rec(0.0, 100.0, None));
        let mut b = MigrationStats::default();
        b.record(&rec(0.0, 300.0, Some(0.0)));
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert!((a.pct_overlap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_report_full_overlap() {
        assert_eq!(MigrationStats::default().pct_overlap(), 100.0);
    }
}
