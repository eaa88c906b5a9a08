//! Run reports: what one policy run measured.

use tahoe_hms::{MigrationStats, Ns, WearStats};
use tahoe_placement::PlanKind;

use crate::overhead::OverheadLedger;

/// Everything measured during one policy run of one application.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Policy display name.
    pub policy: String,
    /// Completion time (virtual ns).
    pub makespan_ns: Ns,
    /// Worker utilization in `[0, 1]`.
    pub utilization: f64,
    /// Total task dispatch stalls (exposed migration cost), ns.
    pub stall_ns: Ns,
    /// Migration statistics (count, bytes, overlap).
    pub migrations: MigrationStats,
    /// Runtime overhead charged (profiling, sync, planning).
    pub overhead: OverheadLedger,
    /// Which plan kind won (Tahoe only).
    pub plan_kind: Option<PlanKind>,
    /// Number of re-profiling events triggered by workload variation.
    pub replans: u32,
    /// Promotions that failed (destination full/fragmented) and were
    /// skipped.
    pub failed_promotions: u32,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Number of execution windows.
    pub windows: u32,
    /// Objects resident in DRAM at the end of the run.
    pub final_dram_objects: usize,
    /// Write-endurance tally (NVM lifetime proxy).
    pub wear: WearStats,
}

impl RunReport {
    /// This run's slowdown relative to a baseline makespan (1.0 = equal).
    pub fn slowdown_vs(&self, baseline_makespan_ns: Ns) -> f64 {
        if baseline_makespan_ns <= 0.0 {
            f64::NAN
        } else {
            self.makespan_ns / baseline_makespan_ns
        }
    }

    /// Percentage of migration time overlapped with execution.
    pub fn pct_overlap(&self) -> f64 {
        self.migrations.pct_overlap()
    }

    /// Runtime overhead as % of makespan.
    pub fn overhead_pct(&self) -> f64 {
        self.overhead.pct_of(self.makespan_ns)
    }

    /// Fraction of application store traffic shielded from NVM.
    pub fn write_shielding(&self) -> f64 {
        self.wear.write_shielding()
    }

    /// How much of the NVM↔DRAM gap this run recovered:
    /// `(nvm − this) / (nvm − dram)`, in `[−∞, 1]`; 1.0 means DRAM-equal.
    pub fn gap_recovery(&self, dram_only_ns: Ns, nvm_only_ns: Ns) -> f64 {
        let gap = nvm_only_ns - dram_only_ns;
        if gap <= 0.0 {
            return 1.0;
        }
        (nvm_only_ns - self.makespan_ns) / gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: f64) -> RunReport {
        RunReport {
            app: "x".into(),
            policy: "p".into(),
            makespan_ns: makespan,
            utilization: 0.5,
            stall_ns: 0.0,
            migrations: MigrationStats::default(),
            overhead: OverheadLedger::default(),
            plan_kind: None,
            replans: 0,
            failed_promotions: 0,
            tasks: 1,
            windows: 1,
            final_dram_objects: 0,
            wear: WearStats::default(),
        }
    }

    #[test]
    fn slowdown_and_recovery() {
        let r = report(120.0);
        assert!((r.slowdown_vs(100.0) - 1.2).abs() < 1e-12);
        // dram 100, nvm 200: at 120 we recovered 80% of the gap.
        assert!((r.gap_recovery(100.0, 200.0) - 0.8).abs() < 1e-12);
        // Degenerate gap.
        assert_eq!(report(100.0).gap_recovery(100.0, 100.0), 1.0);
    }
}
