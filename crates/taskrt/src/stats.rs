//! Schedule statistics emitted by the simulators.

use tahoe_hms::Ns;

/// Statistics of one scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedStats {
    /// Completion time of the last task (virtual ns).
    pub makespan_ns: Ns,
    /// Busy time per worker.
    pub busy_ns: Vec<Ns>,
    /// Total time tasks spent stalled at dispatch (e.g. waiting for a
    /// migration to finish) — the *exposed* data-movement cost.
    pub stall_ns: Ns,
    /// Number of tasks executed.
    pub tasks_executed: u64,
}

impl SchedStats {
    /// Fresh stats for `workers` workers.
    pub fn new(workers: usize) -> Self {
        SchedStats {
            makespan_ns: 0.0,
            busy_ns: vec![0.0; workers],
            stall_ns: 0.0,
            tasks_executed: 0,
        }
    }

    /// Fraction of worker-time spent executing tasks, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            return 0.0;
        }
        let busy: f64 = self.busy_ns.iter().sum();
        busy / (self.makespan_ns * self.busy_ns.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut s = SchedStats::new(2);
        s.makespan_ns = 100.0;
        s.busy_ns = vec![100.0, 50.0];
        assert!((s.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_makespan_utilization_is_zero() {
        let s = SchedStats::new(4);
        assert_eq!(s.utilization(), 0.0);
    }
}
