//! Error type for heterogeneous-memory operations.

use crate::object::ObjectId;
use crate::tier::TierId;
use std::fmt;

/// Errors produced by the HMS object manager and allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HmsError {
    /// The requested tier cannot hold the allocation (and fallback was not
    /// permitted or also failed).
    OutOfMemory {
        /// Tier that was asked for the bytes.
        tier: TierId,
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free block currently available in that tier.
        largest_free: u64,
    },
    /// An operation referenced an object id that is not live.
    NoSuchObject(ObjectId),
    /// The object is already resident on the requested tier.
    AlreadyResident(ObjectId, TierId),
    /// An allocation of zero bytes was requested.
    ZeroSizeAllocation,
    /// The object is pinned (tasks using it are in flight) and cannot be
    /// migrated or freed.
    Pinned(ObjectId),
    /// The object is mid-migration (a two-phase move was begun and not
    /// yet committed or aborted); it cannot be pinned, freed, or moved
    /// again until the in-flight move resolves.
    Moving(ObjectId),
    /// A tier specification failed validation (non-positive latency or
    /// bandwidth, zero capacity, non-finite scale factor, ...).
    InvalidSpec {
        /// Device name of the offending spec.
        name: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A memory-system configuration failed validation.
    InvalidConfig(String),
}

impl fmt::Display for HmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmsError::OutOfMemory {
                tier,
                requested,
                largest_free,
            } => write!(
                f,
                "out of memory on {tier}: requested {requested} B, largest free block {largest_free} B"
            ),
            HmsError::NoSuchObject(id) => write!(f, "no such object: {id:?}"),
            HmsError::AlreadyResident(id, tier) => {
                write!(f, "object {id:?} already resident on {tier}")
            }
            HmsError::ZeroSizeAllocation => write!(f, "zero-size allocation"),
            HmsError::Pinned(id) => write!(f, "object {id:?} is pinned by in-flight tasks"),
            HmsError::Moving(id) => write!(f, "object {id:?} is mid-migration"),
            HmsError::InvalidSpec { name, reason } => {
                write!(f, "invalid tier spec {name}: {reason}")
            }
            HmsError::InvalidConfig(reason) => write!(f, "invalid HMS configuration: {reason}"),
        }
    }
}

impl std::error::Error for HmsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HmsError::OutOfMemory {
            tier: TierId(1),
            requested: 128,
            largest_free: 64,
        };
        let s = e.to_string();
        assert!(s.contains("tier1") && s.contains("128") && s.contains("64"));
        assert!(HmsError::ZeroSizeAllocation.to_string().contains("zero"));
        let e = HmsError::InvalidSpec {
            name: "PCRAM".into(),
            reason: "latencies must be positive".into(),
        };
        assert!(e.to_string().contains("PCRAM") && e.to_string().contains("positive"));
        assert!(HmsError::InvalidConfig("copy bandwidth".into())
            .to_string()
            .contains("copy bandwidth"));
    }
}
