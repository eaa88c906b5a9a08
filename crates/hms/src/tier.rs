//! Memory tier identities and device specifications.

use std::fmt;

use crate::error::HmsError;

/// Index of one tier in the ordered tier list, fastest first.
///
/// Tier 0 is always the fastest, smallest tier (DRAM) and the highest
/// index is the slowest, largest tier (the spill tier, NVM in the
/// paper's setup). Middle indices are intermediate tiers such as
/// CXL-attached memory. This is the only tier vocabulary the workspace
/// stores, returns, records or emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TierId(pub u8);

impl TierId {
    /// The fastest tier (always index 0; DRAM in every preset).
    pub const FASTEST: TierId = TierId(0);

    /// The tier's position in the ordered list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The observability label of this tier in an `n_tiers` list — the
    /// one place a tier index becomes a [`tahoe_obs::Tier`]. The ends of
    /// the list keep the names every two-tier stream has always used;
    /// middle tiers are named by index.
    pub fn label(self, n_tiers: usize) -> tahoe_obs::Tier {
        if self.0 == 0 {
            tahoe_obs::Tier::Dram
        } else if self.index() + 1 == n_tiers {
            tahoe_obs::Tier::Nvm
        } else {
            tahoe_obs::Tier::Mid(self.0)
        }
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Two-name shorthand for the ends of the tier list, accepted wherever a
/// tier is an *argument*: `Dram` is tier 0, `Nvm` the spill (last) tier
/// of whatever list the callee is configured with. It is never stored,
/// returned or emitted — [`TierRef::resolve`] turns it into the
/// [`TierId`] everything else speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// The fastest tier.
    Dram,
    /// The spill tier.
    Nvm,
}

/// Something that names a tier of an `n_tiers`-long list: a [`TierId`]
/// (itself) or the [`TierKind`] shorthand.
pub trait TierRef: Copy {
    /// The index this names in a list of `n_tiers` tiers.
    fn resolve(self, n_tiers: usize) -> TierId;
}

impl TierRef for TierId {
    #[inline]
    fn resolve(self, _n_tiers: usize) -> TierId {
        self
    }
}

impl TierRef for TierKind {
    #[inline]
    fn resolve(self, n_tiers: usize) -> TierId {
        match self {
            TierKind::Dram => TierId::FASTEST,
            TierKind::Nvm => TierId((n_tiers - 1) as u8),
        }
    }
}

/// Performance and capacity specification of one memory tier.
///
/// Latencies are per *dependent* cache-line access; bandwidths are the
/// sustainable sequential rates. Read and write are kept separate because
/// every candidate NVM technology is read/write-asymmetric — the paper's
/// models split `#load` and `#store` terms for exactly this reason.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable device name (e.g. `"DRAM"`, `"Optane PMM"`).
    pub name: String,
    /// Latency of a dependent read, in nanoseconds.
    pub read_lat_ns: f64,
    /// Latency of a dependent write, in nanoseconds.
    pub write_lat_ns: f64,
    /// Sustained read bandwidth, in GB/s (== bytes/ns).
    pub read_bw_gbps: f64,
    /// Sustained write bandwidth, in GB/s (== bytes/ns).
    pub write_bw_gbps: f64,
    /// Usable capacity in bytes.
    pub capacity: u64,
}

impl TierSpec {
    /// Create a spec with symmetric read/write behaviour.
    pub fn symmetric(name: &str, lat_ns: f64, bw_gbps: f64, capacity: u64) -> Self {
        TierSpec {
            name: name.to_string(),
            read_lat_ns: lat_ns,
            write_lat_ns: lat_ns,
            read_bw_gbps: bw_gbps,
            write_bw_gbps: bw_gbps,
            capacity,
        }
    }

    /// Return a copy with a different capacity.
    pub fn with_capacity(&self, capacity: u64) -> Self {
        TierSpec {
            capacity,
            ..self.clone()
        }
    }

    /// Return a copy with bandwidth scaled by `frac` (Quartz-style
    /// bandwidth throttling, e.g. `frac = 0.5` models "1/2 DRAM BW").
    ///
    /// Fails on a non-positive or non-finite fraction.
    pub fn scale_bandwidth(&self, frac: f64) -> Result<Self, HmsError> {
        if !(frac > 0.0 && frac.is_finite()) {
            return Err(HmsError::InvalidSpec {
                name: self.name.clone(),
                reason: format!("bandwidth fraction must be positive and finite, got {frac}"),
            });
        }
        Ok(TierSpec {
            name: format!("{} x{:.3}BW", self.name, frac),
            read_bw_gbps: self.read_bw_gbps * frac,
            write_bw_gbps: self.write_bw_gbps * frac,
            ..self.clone()
        })
    }

    /// Return a copy with latency scaled by `mult` (Quartz-style latency
    /// injection, e.g. `mult = 4.0` models "4x DRAM latency").
    ///
    /// Fails on a non-positive or non-finite multiplier.
    pub fn scale_latency(&self, mult: f64) -> Result<Self, HmsError> {
        if !(mult > 0.0 && mult.is_finite()) {
            return Err(HmsError::InvalidSpec {
                name: self.name.clone(),
                reason: format!("latency multiplier must be positive and finite, got {mult}"),
            });
        }
        Ok(TierSpec {
            name: format!("{} x{:.3}LAT", self.name, mult),
            read_lat_ns: self.read_lat_ns * mult,
            write_lat_ns: self.write_lat_ns * mult,
            ..self.clone()
        })
    }

    /// Geometric-mean bandwidth across reads and writes, used as the
    /// single-number "peak bandwidth" in sensitivity thresholds.
    pub fn mean_bw_gbps(&self) -> f64 {
        (self.read_bw_gbps * self.write_bw_gbps).sqrt()
    }

    /// The copy rule: modelled bandwidth, GB/s, of a helper-thread copy
    /// *out of* this tier *into* `dst`. The copy streams reads from the
    /// source and writes to the destination, so the slower side of that
    /// pipe bounds it, derated to 80 % for the copy loop's own
    /// overhead. Direction matters on a read/write-asymmetric device: a
    /// promotion out of Optane runs at its 3.9 GB/s read side, a
    /// demotion into it at its 1.3 GB/s write side.
    pub fn copy_bw_to(&self, dst: &TierSpec) -> f64 {
        0.8 * self.read_bw_gbps.min(dst.write_bw_gbps)
    }

    /// Start-up latency, ns, of a copy out of this tier into `dst`: the
    /// slower of the source's read and the destination's write latency
    /// (`max`, not the sum — the first read and the first write-back are
    /// pipelined, so only the slower is exposed). A copy never writes
    /// its source nor reads its destination.
    pub fn copy_lat_to(&self, dst: &TierSpec) -> f64 {
        self.read_lat_ns.max(dst.write_lat_ns)
    }

    /// Ratio of write latency to read latency (1.0 for symmetric devices).
    pub fn write_read_lat_ratio(&self) -> f64 {
        self.write_lat_ns / self.read_lat_ns
    }

    /// Validate that the spec is physically sensible.
    pub fn validate(&self) -> Result<(), HmsError> {
        let fail = |reason: &str| {
            Err(HmsError::InvalidSpec {
                name: self.name.clone(),
                reason: reason.to_string(),
            })
        };
        if !(self.read_lat_ns > 0.0 && self.write_lat_ns > 0.0) {
            return fail("latencies must be positive");
        }
        if !(self.read_bw_gbps > 0.0 && self.write_bw_gbps > 0.0) {
            return fail("bandwidths must be positive");
        }
        if ![
            self.read_lat_ns,
            self.write_lat_ns,
            self.read_bw_gbps,
            self.write_bw_gbps,
        ]
        .iter()
        .all(|x| x.is_finite())
        {
            return fail("latencies and bandwidths must be finite");
        }
        if self.capacity == 0 {
            return fail("capacity must be nonzero");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(TierId(3).to_string(), "tier3");
        // Labels keep the two-tier names at the ends of any list and
        // index the middle.
        assert_eq!(TierId(0).label(2).to_string(), "dram");
        assert_eq!(TierId(1).label(2).to_string(), "nvm");
        assert_eq!(TierId(1).label(3).to_string(), "tier1");
        assert_eq!(TierId(2).label(4).to_string(), "tier2");
    }

    #[test]
    fn tier_id_kind_round_trip() {
        use tahoe_obs::Tier;
        for n in 2..5 {
            let (fast, spill) = (TierKind::Dram.resolve(n), TierKind::Nvm.resolve(n));
            assert_eq!((fast, spill), (TierId(0), TierId((n - 1) as u8)));
            assert_eq!((fast.label(n), spill.label(n)), (Tier::Dram, Tier::Nvm));
            assert_eq!(TierId(1).resolve(n), TierId(1));
        }
        assert_eq!(TierId(1).label(3), Tier::Mid(1));
        assert_eq!(TierId(1).index(), 1);
        assert_eq!(TierId::FASTEST, TierId(0));
    }

    #[test]
    fn symmetric_spec_round_trip() {
        let s = TierSpec::symmetric("t", 10.0, 10.0, 1 << 30);
        assert_eq!(s.read_lat_ns, s.write_lat_ns);
        assert_eq!(s.read_bw_gbps, s.write_bw_gbps);
        assert!((s.write_read_lat_ratio() - 1.0).abs() < 1e-12);
        s.validate().unwrap();
    }

    #[test]
    fn bandwidth_scaling_halves_both_directions() {
        let s = TierSpec::symmetric("t", 10.0, 10.0, 1 << 30)
            .scale_bandwidth(0.5)
            .unwrap();
        assert!((s.read_bw_gbps - 5.0).abs() < 1e-12);
        assert!((s.write_bw_gbps - 5.0).abs() < 1e-12);
        // Latency untouched.
        assert!((s.read_lat_ns - 10.0).abs() < 1e-12);
    }

    #[test]
    fn latency_scaling_multiplies_both_directions() {
        let s = TierSpec::symmetric("t", 10.0, 10.0, 1 << 30)
            .scale_latency(4.0)
            .unwrap();
        assert!((s.read_lat_ns - 40.0).abs() < 1e-12);
        assert!((s.write_lat_ns - 40.0).abs() < 1e-12);
        assert!((s.read_bw_gbps - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mean_bw_is_geometric() {
        let s = TierSpec {
            name: "x".into(),
            read_lat_ns: 1.0,
            write_lat_ns: 1.0,
            read_bw_gbps: 4.0,
            write_bw_gbps: 1.0,
            capacity: 1,
        };
        assert!((s.mean_bw_gbps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut s = TierSpec::symmetric("t", 10.0, 10.0, 1 << 20);
        s.capacity = 0;
        assert!(s.validate().is_err());
        let mut s2 = TierSpec::symmetric("t", 0.0, 10.0, 1);
        s2.read_lat_ns = 0.0;
        assert!(s2.validate().is_err());
    }

    #[test]
    fn bad_scale_factors_are_errors_not_panics() {
        let s = TierSpec::symmetric("t", 10.0, 10.0, 1 << 20);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(s.scale_bandwidth(bad).is_err(), "frac {bad}");
            assert!(s.scale_latency(bad).is_err(), "mult {bad}");
        }
        match s.scale_bandwidth(-2.0).unwrap_err() {
            crate::HmsError::InvalidSpec { name, reason } => {
                assert_eq!(name, "t");
                assert!(reason.contains("positive"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
