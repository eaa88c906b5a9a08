//! Migration cost: the paper's Eq. 6.

use tahoe_hms::Ns;

/// Cost charged against a migration decision: the copy time not hidden
/// behind execution, `max(bytes/copy_bw − overlap, 0)`.
pub fn migration_cost_ns(bytes: u64, copy_bw_gbps: f64, overlap_ns: Ns) -> Ns {
    assert!(copy_bw_gbps > 0.0, "copy bandwidth must be positive");
    (bytes as f64 / copy_bw_gbps - overlap_ns).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unoverlapped_cost_is_copy_time() {
        // 5 GB/s = 5 bytes/ns; 1000 bytes → 200 ns.
        assert!((migration_cost_ns(1000, 5.0, 0.0) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn full_overlap_makes_cost_zero() {
        assert_eq!(migration_cost_ns(1000, 5.0, 200.0), 0.0);
        assert_eq!(migration_cost_ns(1000, 5.0, 1.0e9), 0.0);
    }

    #[test]
    fn partial_overlap_subtracts() {
        assert!((migration_cost_ns(1000, 5.0, 150.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_zero_cost() {
        assert_eq!(migration_cost_ns(0, 5.0, 0.0), 0.0);
    }
}
