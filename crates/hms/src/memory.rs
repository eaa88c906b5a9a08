//! The heterogeneous memory manager: object-granularity placement over
//! an ordered list of memory tiers, each backed by a real allocator.
//!
//! The paper's HMS is a DRAM/NVM pair; this module generalizes it to N
//! ordered tiers (fastest first), with the two-tier [`TierKind`] API
//! preserved as a facade: `Dram` is tier 0 and `Nvm` is the *last*
//! tier, so existing two-tier callers (the virtual simulator, the
//! parallel measured path, the background migrator) compile and behave
//! unchanged while N-tier callers address tiers by [`TierId`].

use std::collections::HashMap;

use crate::alloc::TierAllocator;
use crate::backend::{BackendStats, CopyOutcome, TierBackend, VirtualBackend};
use crate::error::HmsError;
use crate::object::{ObjectId, ObjectMeta};
use crate::tier::{TierId, TierKind, TierSpec};

/// Configuration of the tiered memory system.
///
/// The ordered tier list is `[dram, mids…, nvm]` — `dram` is always the
/// fastest tier and `nvm` the slowest (the spill tier). `mids` is empty
/// in the classic two-tier setup; a 3-tier DRAM/CXL/NVM platform puts
/// the CXL spec there.
#[derive(Debug, Clone)]
pub struct HmsConfig {
    /// Fast-tier device model (tier 0).
    pub dram: TierSpec,
    /// Slow-tier device model (the last tier; the spill tier).
    pub nvm: TierSpec,
    /// Bandwidth of the DRAM↔spill inter-tier copy engine (helper
    /// thread), GB/s. Per-pair bandwidths, when configured, live in the
    /// copy matrix and are read through [`HmsConfig::copy_bw_between`].
    pub copy_bw_gbps: f64,
    /// Middle tiers between `dram` and `nvm`, fastest first (empty in
    /// the two-tier setup).
    pub mids: Vec<TierSpec>,
    /// Row-major n×n copy-bandwidth matrix, GB/s: entry `[from][to]` is
    /// the modelled bandwidth of a `from`→`to` migration. `None` falls
    /// back to the scalar `copy_bw_gbps` for every pair.
    copy_matrix: Option<Vec<f64>>,
}

impl HmsConfig {
    /// Convenience constructor for the classic two-tier system,
    /// validating both tiers and the copy engine's bandwidth.
    pub fn new(dram: TierSpec, nvm: TierSpec, copy_bw_gbps: f64) -> Result<Self, HmsError> {
        dram.validate()?;
        nvm.validate()?;
        if !(copy_bw_gbps > 0.0 && copy_bw_gbps.is_finite()) {
            return Err(HmsError::InvalidConfig(format!(
                "copy bandwidth must be positive and finite, got {copy_bw_gbps} GB/s"
            )));
        }
        Ok(HmsConfig {
            dram,
            nvm,
            copy_bw_gbps,
            mids: Vec::new(),
            copy_matrix: None,
        })
    }

    /// Construct an N-tier system from an ordered tier list (fastest
    /// first, at least two tiers). `copy_bw_gbps` sets the DRAM↔spill
    /// pair; every other pair's copy bandwidth defaults to
    /// `0.8 × min(src read BW, dst write BW)` — the copy streams out of
    /// the source and into the destination, so the slower side of that
    /// pipe bounds it (the same derivation the two-tier presets use).
    pub fn with_tiers(mut tiers: Vec<TierSpec>, copy_bw_gbps: f64) -> Result<Self, HmsError> {
        if tiers.len() < 2 {
            return Err(HmsError::InvalidConfig(format!(
                "a tier list needs at least 2 tiers, got {}",
                tiers.len()
            )));
        }
        if tiers.len() > u8::MAX as usize {
            return Err(HmsError::InvalidConfig(format!(
                "at most {} tiers are supported, got {}",
                u8::MAX,
                tiers.len()
            )));
        }
        for t in &tiers {
            t.validate()?;
        }
        let nvm = tiers.pop().expect("len >= 2");
        let dram = tiers.remove(0);
        let mids = tiers;
        let mut cfg = HmsConfig::new(dram, nvm, copy_bw_gbps)?;
        cfg.mids = mids;
        let n = cfg.n_tiers();
        let mut matrix = vec![0.0; n * n];
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let src = cfg.tier_spec_at(TierId(from as u8));
                let dst = cfg.tier_spec_at(TierId(to as u8));
                matrix[from * n + to] = 0.8 * src.read_bw_gbps.min(dst.write_bw_gbps);
            }
        }
        matrix[n - 1] = copy_bw_gbps; // [0][last]
        matrix[(n - 1) * n] = copy_bw_gbps; // [last][0]
        cfg.copy_matrix = Some(matrix);
        Ok(cfg)
    }

    /// Number of tiers (≥ 2).
    pub fn n_tiers(&self) -> usize {
        2 + self.mids.len()
    }

    /// The ordered tier list, fastest first.
    pub fn tier_specs(&self) -> Vec<&TierSpec> {
        let mut v = Vec::with_capacity(self.n_tiers());
        v.push(&self.dram);
        v.extend(self.mids.iter());
        v.push(&self.nvm);
        v
    }

    /// The spec of the tier at `id`. Panics on an out-of-range index.
    pub fn tier_spec_at(&self, id: TierId) -> &TierSpec {
        let i = id.index();
        let n = self.n_tiers();
        assert!(i < n, "tier index {i} out of range (n_tiers = {n})");
        if i == 0 {
            &self.dram
        } else if i == n - 1 {
            &self.nvm
        } else {
            &self.mids[i - 1]
        }
    }

    /// The [`TierId`] a two-tier [`TierKind`] maps to in this config.
    pub fn tier_id(&self, kind: TierKind) -> TierId {
        TierId::from_kind(kind, self.n_tiers())
    }

    /// The last (slowest, spill) tier.
    pub fn last_tier(&self) -> TierId {
        TierId((self.n_tiers() - 1) as u8)
    }

    /// Modelled copy bandwidth of a `from`→`to` migration, GB/s. Falls
    /// back to the scalar `copy_bw_gbps` when no matrix is configured.
    pub fn copy_bw_between(&self, from: TierId, to: TierId) -> f64 {
        match &self.copy_matrix {
            Some(m) => {
                let n = self.n_tiers();
                assert!(
                    from.index() < n && to.index() < n,
                    "tier index out of range"
                );
                m[from.index() * n + to.index()]
            }
            None => self.copy_bw_gbps,
        }
    }

    /// Override one pair's copy bandwidth (builds the matrix from the
    /// scalar default on first use).
    pub fn set_copy_bw(&mut self, from: TierId, to: TierId, bw_gbps: f64) -> Result<(), HmsError> {
        if !(bw_gbps > 0.0 && bw_gbps.is_finite()) {
            return Err(HmsError::InvalidConfig(format!(
                "copy bandwidth must be positive and finite, got {bw_gbps} GB/s"
            )));
        }
        let n = self.n_tiers();
        if from.index() >= n || to.index() >= n {
            return Err(HmsError::InvalidConfig(format!(
                "tier pair ({from}, {to}) out of range for {n} tiers"
            )));
        }
        let m = self
            .copy_matrix
            .get_or_insert_with(|| vec![self.copy_bw_gbps; n * n]);
        m[from.index() * n + to.index()] = bw_gbps;
        Ok(())
    }

    /// The spec of one tier through the two-tier facade.
    pub fn tier(&self, kind: TierKind) -> &TierSpec {
        match kind {
            TierKind::Dram => &self.dram,
            TierKind::Nvm => &self.nvm,
        }
    }
}

/// Gauge names for up to four middle tiers (the metrics registry keys on
/// `&'static str`; platforms with more middle tiers than this publish
/// gauges for the first four only).
const MID_CAPACITY_GAUGES: [&str; 4] = [
    "hms.tier1.capacity_bytes",
    "hms.tier2.capacity_bytes",
    "hms.tier3.capacity_bytes",
    "hms.tier4.capacity_bytes",
];
const MID_USED_GAUGES: [&str; 4] = [
    "hms.tier1.used_bytes",
    "hms.tier2.used_bytes",
    "hms.tier3.used_bytes",
    "hms.tier4.used_bytes",
];

/// Where each live object currently resides, with allocator state.
#[derive(Debug)]
struct ObjectRecord {
    meta: ObjectMeta,
    tier: TierId,
    addr: u64,
    /// Number of in-flight tasks touching the object (pins block moves).
    pins: u32,
    /// A two-phase move is in flight: destination reserved, copy running
    /// outside the lock. Blocks pin/free/move until resolved.
    moving: bool,
}

/// An in-flight two-phase migration: the destination block is reserved
/// and the source is still live, but the bytes have not moved yet.
///
/// Produced by [`Hms::begin_move_to`]; the holder copies the bytes itself
/// (typically off-thread through [`Hms::move_ptrs`]) and must resolve
/// the ticket with exactly one of [`Hms::commit_move`] /
/// [`Hms::abort_move`] — dropping it leaks the destination reservation
/// and leaves the object marked mid-move.
#[derive(Debug)]
#[must_use = "resolve with commit_move or abort_move"]
pub struct MoveTicket {
    object: ObjectId,
    from: TierId,
    from_addr: u64,
    to: TierId,
    to_addr: u64,
    size: u64,
}

impl MoveTicket {
    /// Object being moved.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Source tier through the two-tier facade (middle tiers present as
    /// NVM); [`MoveTicket::from_tier`] has the exact index.
    pub fn from(&self) -> TierKind {
        self.from.kind()
    }

    /// Destination tier through the two-tier facade.
    pub fn to(&self) -> TierKind {
        self.to.kind()
    }

    /// Exact source tier index.
    pub fn from_tier(&self) -> TierId {
        self.from
    }

    /// Exact destination tier index.
    pub fn to_tier(&self) -> TierId {
        self.to
    }

    /// Bytes to move.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Snapshot of tier residency, for assertions and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencySnapshot {
    /// Objects currently in DRAM (tier 0).
    pub dram: Vec<ObjectId>,
    /// Objects currently in NVM (the last tier).
    pub nvm: Vec<ObjectId>,
    /// Objects on middle tiers, ascending (empty in two-tier configs).
    pub mid: Vec<ObjectId>,
    /// Bytes used in DRAM.
    pub dram_used: u64,
    /// Bytes used in NVM.
    pub nvm_used: u64,
    /// Bytes used across all middle tiers.
    pub mid_used: u64,
}

/// The heterogeneous memory system: object table plus one allocator per
/// tier.
///
/// This is the paper's user-level DRAM management service generalized to
/// every tier. All placement changes go through [`Hms::move_object`] /
/// [`Hms::move_object_to`], which enforce pinning (never move an object
/// while a task that declared it is in flight) and capacity (allocation
/// in the destination must succeed before the source copy is released).
#[derive(Debug)]
pub struct Hms {
    config: HmsConfig,
    /// One allocator per tier, fastest first.
    tiers: Vec<TierAllocator>,
    objects: HashMap<ObjectId, ObjectRecord>,
    next_id: u32,
    /// Count of failed DRAM allocations that fell back to a slower tier.
    pub dram_fallbacks: u64,
    metrics: tahoe_obs::Metrics,
    backend: Box<dyn TierBackend>,
}

impl Hms {
    /// Create an empty memory system.
    pub fn new(config: HmsConfig) -> Self {
        let tiers = config
            .tier_specs()
            .iter()
            .map(|spec| TierAllocator::new(spec.capacity))
            .collect();
        Hms {
            config,
            tiers,
            objects: HashMap::new(),
            next_id: 0,
            dram_fallbacks: 0,
            metrics: tahoe_obs::Metrics::disabled(),
            backend: Box::new(VirtualBackend),
        }
    }

    /// Replace the physical substrate. Must be called before any
    /// allocation so the backend sees every live range; the default is
    /// the bookkeeping-only [`VirtualBackend`].
    pub fn set_backend(&mut self, backend: Box<dyn TierBackend>) {
        debug_assert!(
            self.objects.is_empty(),
            "backend must be installed before the first allocation"
        );
        self.backend = backend;
    }

    /// Name of the installed substrate (`"virtual"`, `"mmap"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Cumulative substrate-side statistics.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// The live bytes of an object on a real substrate, or `Ok(None)` on
    /// the virtual one. The slice aliases the tier arena; it is valid
    /// until the object is moved or freed.
    pub fn object_bytes(&mut self, id: ObjectId) -> Result<Option<&mut [u8]>, HmsError> {
        let (tier, addr, size) = {
            let rec = self.objects.get(&id).ok_or(HmsError::NoSuchObject(id))?;
            (rec.tier, rec.addr, rec.meta.size)
        };
        match self.backend.data_ptr(tier, addr, size) {
            // SAFETY: the backend guarantees `size` bytes at the returned
            // pointer, and the borrow of `self` prevents a concurrent
            // move/free from invalidating the mapping.
            Some(p) => Ok(Some(unsafe {
                std::slice::from_raw_parts_mut(p, size as usize)
            })),
            None => Ok(None),
        }
    }

    /// Attach a metrics registry. Capacities are published immediately as
    /// gauges; occupancy gauges (`hms.<tier>.used_bytes`) and transition
    /// counters (`hms.moves`, `hms.allocs`, `hms.dram_fallbacks`) update
    /// as the object table changes. Middle tiers publish under
    /// `hms.tier<i>.*`.
    pub fn set_metrics(&mut self, metrics: tahoe_obs::Metrics) {
        self.metrics = metrics;
        self.metrics
            .gauge_set("hms.dram.capacity_bytes", self.config.dram.capacity as f64);
        self.metrics
            .gauge_set("hms.nvm.capacity_bytes", self.config.nvm.capacity as f64);
        for (i, spec) in self.config.mids.iter().enumerate() {
            if let Some(name) = MID_CAPACITY_GAUGES.get(i) {
                self.metrics.gauge_set(name, spec.capacity as f64);
            }
        }
        self.publish_occupancy();
    }

    fn publish_occupancy(&self) {
        let last = self.tiers.len() - 1;
        self.metrics
            .gauge_set("hms.dram.used_bytes", self.tiers[0].used() as f64);
        self.metrics
            .gauge_set("hms.nvm.used_bytes", self.tiers[last].used() as f64);
        for i in 1..last {
            if let Some(name) = MID_USED_GAUGES.get(i - 1) {
                self.metrics.gauge_set(name, self.tiers[i].used() as f64);
            }
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &HmsConfig {
        &self.config
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The device spec of `kind`.
    pub fn tier_spec(&self, kind: TierKind) -> &TierSpec {
        self.config.tier(kind)
    }

    fn to_id(&self, kind: TierKind) -> TierId {
        self.config.tier_id(kind)
    }

    fn allocator(&mut self, tier: TierId) -> &mut TierAllocator {
        &mut self.tiers[tier.index()]
    }

    fn allocator_ref(&self, tier: TierId) -> &TierAllocator {
        &self.tiers[tier.index()]
    }

    /// Allocate a new data object on `preferred`, falling back to the
    /// other tier if `fallback` is set and the preferred tier is full
    /// (the paper's default: everything that does not fit in DRAM starts
    /// in NVM). Two-tier facade over [`Hms::alloc_object_on`].
    pub fn alloc_object(
        &mut self,
        name: &str,
        size: u64,
        preferred: TierKind,
        fallback: bool,
    ) -> Result<ObjectId, HmsError> {
        let preferred = self.to_id(preferred);
        self.alloc_object_on(name, size, preferred, fallback)
    }

    /// Allocate a new data object on tier `preferred`. With `fallback`
    /// the allocation cascades: first every *slower* tier in order
    /// (spill down, the paper's overflow direction), then faster tiers
    /// (a full slow tier overflows upward rather than failing).
    pub fn alloc_object_on(
        &mut self,
        name: &str,
        size: u64,
        preferred: TierId,
        fallback: bool,
    ) -> Result<ObjectId, HmsError> {
        if size == 0 {
            return Err(HmsError::ZeroSizeAllocation);
        }
        let n = self.tiers.len();
        assert!(preferred.index() < n, "tier {preferred} out of range");
        let mut placed = None;
        if let Some(addr) = self.allocator(preferred).alloc(size) {
            placed = Some((preferred, addr));
        } else if fallback {
            if preferred == TierId::FASTEST {
                self.dram_fallbacks += 1;
                self.metrics.inc("hms.dram_fallbacks");
            }
            // Slower tiers first, then faster ones.
            let order = (preferred.index() + 1..n).chain((0..preferred.index()).rev());
            let mut last_tried = preferred;
            for i in order {
                let t = TierId(i as u8);
                last_tried = t;
                if let Some(addr) = self.allocator(t).alloc(size) {
                    placed = Some((t, addr));
                    break;
                }
            }
            if placed.is_none() {
                return Err(HmsError::OutOfMemory {
                    tier: last_tried.kind(),
                    requested: size,
                    largest_free: self.allocator_ref(last_tried).largest_free_block(),
                });
            }
        } else {
            return Err(HmsError::OutOfMemory {
                tier: preferred.kind(),
                requested: size,
                largest_free: self.allocator_ref(preferred).largest_free_block(),
            });
        }
        let (tier, addr) = placed.expect("placed or returned above");
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.objects.insert(
            id,
            ObjectRecord {
                meta: ObjectMeta {
                    id,
                    name: name.to_string(),
                    size,
                    chunk_of: None,
                },
                tier,
                addr,
                pins: 0,
                moving: false,
            },
        );
        self.backend.on_alloc(tier, addr, size);
        self.metrics.inc("hms.allocs");
        self.publish_occupancy();
        Ok(id)
    }

    /// Register a chunk object (metadata bookkeeping for large-object
    /// decomposition). The chunk is allocated like a normal object.
    pub fn alloc_chunk(
        &mut self,
        parent: ObjectId,
        index: u32,
        name: &str,
        size: u64,
        preferred: TierKind,
        fallback: bool,
    ) -> Result<ObjectId, HmsError> {
        let id = self.alloc_object(name, size, preferred, fallback)?;
        if let Some(rec) = self.objects.get_mut(&id) {
            rec.meta.chunk_of = Some((parent, index));
        }
        Ok(id)
    }

    /// Free an object. Fails if pinned or mid-move.
    pub fn free_object(&mut self, id: ObjectId) -> Result<(), HmsError> {
        let rec = self.objects.get(&id).ok_or(HmsError::NoSuchObject(id))?;
        if rec.pins > 0 {
            return Err(HmsError::Pinned(id));
        }
        if rec.moving {
            return Err(HmsError::Moving(id));
        }
        let rec = self.objects.remove(&id).expect("checked above");
        self.allocator(rec.tier)
            .free(rec.addr)
            .expect("object address must be live in its tier allocator");
        self.backend.on_free(rec.tier, rec.addr, rec.meta.size);
        self.metrics.inc("hms.frees");
        self.publish_occupancy();
        Ok(())
    }

    /// Current tier of an object through the two-tier facade (middle
    /// tiers present as NVM); [`Hms::tier_index_of`] has the exact index.
    pub fn tier_of(&self, id: ObjectId) -> Result<TierKind, HmsError> {
        self.tier_index_of(id).map(TierId::kind)
    }

    /// Exact tier index of an object.
    pub fn tier_index_of(&self, id: ObjectId) -> Result<TierId, HmsError> {
        self.objects
            .get(&id)
            .map(|r| r.tier)
            .ok_or(HmsError::NoSuchObject(id))
    }

    /// Metadata of an object.
    pub fn meta(&self, id: ObjectId) -> Result<&ObjectMeta, HmsError> {
        self.objects
            .get(&id)
            .map(|r| &r.meta)
            .ok_or(HmsError::NoSuchObject(id))
    }

    /// Size of an object in bytes.
    pub fn size_of(&self, id: ObjectId) -> Result<u64, HmsError> {
        self.meta(id).map(|m| m.size)
    }

    /// Pin an object against migration (a task that declared it started).
    /// Fails while a two-phase move of the object is in flight — the
    /// bytes are mid-copy and must not be touched (callers that want to
    /// wait instead of fail go through [`crate::sync::SharedHms`]).
    pub fn pin(&mut self, id: ObjectId) -> Result<(), HmsError> {
        let rec = self
            .objects
            .get_mut(&id)
            .ok_or(HmsError::NoSuchObject(id))?;
        if rec.moving {
            return Err(HmsError::Moving(id));
        }
        rec.pins += 1;
        Ok(())
    }

    /// Release one pin.
    pub fn unpin(&mut self, id: ObjectId) -> Result<(), HmsError> {
        let rec = self
            .objects
            .get_mut(&id)
            .ok_or(HmsError::NoSuchObject(id))?;
        debug_assert!(rec.pins > 0, "unbalanced unpin of {id:?}");
        rec.pins = rec.pins.saturating_sub(1);
        Ok(())
    }

    /// Number of pins currently held on `id`.
    pub fn pin_count(&self, id: ObjectId) -> Result<u32, HmsError> {
        self.objects
            .get(&id)
            .map(|r| r.pins)
            .ok_or(HmsError::NoSuchObject(id))
    }

    /// Move an object to `to`, synchronously. Two-tier facade over
    /// [`Hms::move_object_to`].
    pub fn move_object(&mut self, id: ObjectId, to: TierKind) -> Result<u64, HmsError> {
        let to = self.to_id(to);
        self.move_object_to(id, to)
    }

    /// Move an object to the tier at `to`, synchronously. Returns the
    /// number of bytes moved.
    ///
    /// The destination allocation is obtained before the source is freed,
    /// as a real runtime must (the copy needs both resident). Fails if the
    /// object is pinned, mid-move, missing, already there, or the
    /// destination can't hold it.
    pub fn move_object_to(&mut self, id: ObjectId, to: TierId) -> Result<u64, HmsError> {
        let ticket = self.begin_move_to(id, to)?;
        // Physical copy while both ranges are reserved: destination is
        // allocated, source not yet released.
        self.backend.copy(
            id.0,
            ticket.from,
            ticket.from_addr,
            ticket.to,
            ticket.to_addr,
            ticket.size,
        );
        Ok(self.finish_move(ticket))
    }

    /// Phase one of a two-phase move: reserve the destination and mark
    /// the object mid-move, without copying anything.
    ///
    /// This is what the background migration engine uses — it holds the
    /// HMS lock only for this reservation, performs the (long, throttled)
    /// copy through [`Hms::move_ptrs`] with the lock released, and
    /// retakes it for [`Hms::commit_move`]. While the ticket is
    /// outstanding the object rejects pins, frees, and further moves, so
    /// no task can observe half-copied bytes.
    pub fn begin_move_to(&mut self, id: ObjectId, to: TierId) -> Result<MoveTicket, HmsError> {
        assert!(to.index() < self.tiers.len(), "tier {to} out of range");
        let (size, from, from_addr, pins, moving) = {
            let rec = self.objects.get(&id).ok_or(HmsError::NoSuchObject(id))?;
            (rec.meta.size, rec.tier, rec.addr, rec.pins, rec.moving)
        };
        if from == to {
            return Err(HmsError::AlreadyResident(id, to.kind()));
        }
        if pins > 0 {
            return Err(HmsError::Pinned(id));
        }
        if moving {
            return Err(HmsError::Moving(id));
        }
        let to_addr = self
            .allocator(to)
            .alloc(size)
            .ok_or_else(|| HmsError::OutOfMemory {
                tier: to.kind(),
                requested: size,
                largest_free: self.allocator_ref(to).largest_free_block(),
            })?;
        self.backend.on_alloc(to, to_addr, size);
        self.objects.get_mut(&id).expect("checked above").moving = true;
        Ok(MoveTicket {
            object: id,
            from,
            from_addr,
            to,
            to_addr,
            size,
        })
    }

    /// Resolve the source and destination of an in-flight move to raw
    /// pointers, or `None` on a byte-less (virtual) substrate.
    ///
    /// The ranges stay valid while the ticket is outstanding: the source
    /// cannot be freed or remapped (the object is marked mid-move) and
    /// the destination block is reserved in its allocator.
    pub fn move_ptrs(&mut self, ticket: &MoveTicket) -> Option<(*mut u8, *mut u8)> {
        let src = self
            .backend
            .data_ptr(ticket.from, ticket.from_addr, ticket.size)?;
        let dst = self
            .backend
            .data_ptr(ticket.to, ticket.to_addr, ticket.size)?;
        Some((src, dst))
    }

    /// Phase two of a two-phase move: the bytes have been copied by the
    /// ticket holder — release the source, flip residency, and fold the
    /// copy's measured cost into the backend's statistics. Returns the
    /// bytes moved.
    pub fn commit_move(&mut self, ticket: MoveTicket, outcome: &CopyOutcome) -> u64 {
        self.backend
            .record_external_copy(ticket.object.0, ticket.from, ticket.to, outcome);
        self.finish_move(ticket)
    }

    /// Abandon an in-flight move (cancellation): release the destination
    /// reservation and clear the mid-move mark. The object stays where
    /// it was; partially copied destination bytes are discarded.
    pub fn abort_move(&mut self, ticket: MoveTicket) {
        self.allocator(ticket.to)
            .free(ticket.to_addr)
            .expect("ticket destination must be live");
        self.backend.on_free(ticket.to, ticket.to_addr, ticket.size);
        self.objects
            .get_mut(&ticket.object)
            .expect("ticket object must be live")
            .moving = false;
        self.publish_occupancy();
    }

    /// Whether a two-phase move of `id` is currently in flight.
    pub fn is_moving(&self, id: ObjectId) -> Result<bool, HmsError> {
        self.objects
            .get(&id)
            .map(|r| r.moving)
            .ok_or(HmsError::NoSuchObject(id))
    }

    /// Shared tail of a completed move: free the source, update the
    /// record, publish metrics.
    fn finish_move(&mut self, ticket: MoveTicket) -> u64 {
        self.allocator(ticket.from)
            .free(ticket.from_addr)
            .expect("source address must be live");
        self.backend
            .on_free(ticket.from, ticket.from_addr, ticket.size);
        let rec = self
            .objects
            .get_mut(&ticket.object)
            .expect("ticket object must be live");
        rec.tier = ticket.to;
        rec.addr = ticket.to_addr;
        rec.moving = false;
        self.metrics.inc("hms.moves");
        self.metrics.add("hms.moved_bytes", ticket.size);
        self.publish_occupancy();
        ticket.size
    }

    /// Resolve an object's live bytes to a raw pointer (null on the
    /// byte-less virtual substrate) with its length and current tier.
    /// Unlike [`Hms::object_bytes`] this hands out a raw pointer, for
    /// callers that manage aliasing themselves (the measured engine pins
    /// objects and lets concurrent readers share the range without
    /// materializing overlapping `&mut`s).
    pub fn object_ptr(&mut self, id: ObjectId) -> Result<(*mut u8, u64, TierId), HmsError> {
        let rec = self.objects.get(&id).ok_or(HmsError::NoSuchObject(id))?;
        let (tier, addr, size) = (rec.tier, rec.addr, rec.meta.size);
        let ptr = self.backend.data_ptr(tier, addr, size);
        Ok((ptr.unwrap_or(std::ptr::null_mut()), size, tier))
    }

    /// Whether `bytes` more would fit on `tier` right now.
    pub fn can_fit(&self, tier: TierKind, bytes: u64) -> bool {
        self.can_fit_at(self.to_id(tier), bytes)
    }

    /// Whether `bytes` more would fit on the tier at `tier` right now.
    pub fn can_fit_at(&self, tier: TierId, bytes: u64) -> bool {
        self.allocator_ref(tier).can_fit(bytes)
    }

    /// Bytes used on `tier`.
    pub fn used(&self, tier: TierKind) -> u64 {
        self.used_at(self.to_id(tier))
    }

    /// Bytes used on the tier at `tier`.
    pub fn used_at(&self, tier: TierId) -> u64 {
        self.allocator_ref(tier).used()
    }

    /// Bytes free on `tier`.
    pub fn free_bytes(&self, tier: TierKind) -> u64 {
        self.free_bytes_at(self.to_id(tier))
    }

    /// Bytes free on the tier at `tier`.
    pub fn free_bytes_at(&self, tier: TierId) -> u64 {
        self.allocator_ref(tier).free_bytes()
    }

    /// External fragmentation of `tier`.
    pub fn fragmentation(&self, tier: TierKind) -> f64 {
        self.allocator_ref(self.to_id(tier)).fragmentation()
    }

    /// One past the highest object id ever allocated (ids are dense and
    /// never reused, so every live id is below this watermark). The
    /// shared wrapper's slot table syncs against it.
    pub fn peak_object_id(&self) -> u32 {
        self.next_id
    }

    /// Ids of all live objects, ascending.
    pub fn live_objects(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.objects.keys().copied().collect();
        v.sort();
        v
    }

    /// Ids of objects resident on `tier`, ascending. Through the facade
    /// `Dram` means tier 0 and `Nvm` the last tier — objects on middle
    /// tiers appear in neither view (use [`Hms::objects_on_tier`]).
    pub fn objects_on(&self, tier: TierKind) -> Vec<ObjectId> {
        self.objects_on_tier(self.to_id(tier))
    }

    /// Ids of objects resident on the tier at `tier`, ascending.
    pub fn objects_on_tier(&self, tier: TierId) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self
            .objects
            .iter()
            .filter(|(_, r)| r.tier == tier)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Residency snapshot for reporting.
    pub fn snapshot(&self) -> ResidencySnapshot {
        let last = self.config.last_tier();
        let mut mid: Vec<ObjectId> = self
            .objects
            .iter()
            .filter(|(_, r)| r.tier != TierId::FASTEST && r.tier != last)
            .map(|(id, _)| *id)
            .collect();
        mid.sort();
        let mid_used = (1..self.tiers.len() - 1)
            .map(|i| self.tiers[i].used())
            .sum();
        ResidencySnapshot {
            dram: self.objects_on_tier(TierId::FASTEST),
            nvm: self.objects_on_tier(last),
            mid,
            dram_used: self.used_at(TierId::FASTEST),
            nvm_used: self.used_at(last),
            mid_used,
        }
    }

    /// Total footprint of live objects.
    pub fn footprint(&self) -> u64 {
        self.objects.values().map(|r| r.meta.size).sum()
    }

    /// Check cross-structure invariants (object table vs allocators).
    pub fn check_invariants(&self) -> Result<(), String> {
        for alloc in &self.tiers {
            alloc.check_invariants()?;
        }
        let mut per_tier = vec![0u64; self.tiers.len()];
        for rec in self.objects.values() {
            per_tier[rec.tier.index()] += rec.meta.size;
        }
        for (i, (bytes, alloc)) in per_tier.iter().zip(self.tiers.iter()).enumerate() {
            if *bytes != alloc.used() {
                return Err(format!(
                    "tier{i} object bytes {bytes} != allocator used {}",
                    alloc.used()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn small_hms(dram_cap: u64, nvm_cap: u64) -> Hms {
        Hms::new(
            HmsConfig::new(presets::dram(dram_cap), presets::optane_pmm(nvm_cap), 5.0)
                .expect("valid test config"),
        )
    }

    fn three_tier_hms(dram_cap: u64, mid_cap: u64, nvm_cap: u64) -> Hms {
        Hms::new(
            HmsConfig::with_tiers(
                vec![
                    presets::dram(dram_cap),
                    presets::cxl(mid_cap),
                    presets::optane_pmm(nvm_cap),
                ],
                5.0,
            )
            .expect("valid 3-tier config"),
        )
    }

    #[test]
    fn alloc_prefers_requested_tier() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 512, TierKind::Dram, true).unwrap();
        assert_eq!(h.tier_of(a).unwrap(), TierKind::Dram);
        assert_eq!(h.used(TierKind::Dram), 512);
        h.check_invariants().unwrap();
    }

    #[test]
    fn dram_overflow_falls_back_to_nvm() {
        let mut h = small_hms(1024, 4096);
        let _a = h.alloc_object("a", 1000, TierKind::Dram, true).unwrap();
        let b = h.alloc_object("b", 512, TierKind::Dram, true).unwrap();
        assert_eq!(h.tier_of(b).unwrap(), TierKind::Nvm);
        assert_eq!(h.dram_fallbacks, 1);
        h.check_invariants().unwrap();
    }

    #[test]
    fn no_fallback_errors_out() {
        let mut h = small_hms(1024, 4096);
        let _a = h.alloc_object("a", 1000, TierKind::Dram, false).unwrap();
        let err = h.alloc_object("b", 512, TierKind::Dram, false).unwrap_err();
        assert!(matches!(
            err,
            HmsError::OutOfMemory {
                tier: TierKind::Dram,
                ..
            }
        ));
    }

    #[test]
    fn both_tiers_full_is_oom() {
        let mut h = small_hms(64, 64);
        let _ = h.alloc_object("a", 64, TierKind::Dram, true).unwrap();
        let _ = h.alloc_object("b", 64, TierKind::Nvm, true).unwrap();
        assert!(h.alloc_object("c", 1, TierKind::Dram, true).is_err());
    }

    #[test]
    fn move_object_updates_residency_and_accounting() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 256, TierKind::Nvm, false).unwrap();
        let moved = h.move_object(a, TierKind::Dram).unwrap();
        assert_eq!(moved, 256);
        assert_eq!(h.tier_of(a).unwrap(), TierKind::Dram);
        assert_eq!(h.used(TierKind::Nvm), 0);
        assert_eq!(h.used(TierKind::Dram), 256);
        h.check_invariants().unwrap();
    }

    #[test]
    fn move_to_same_tier_is_error() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 64, TierKind::Dram, false).unwrap();
        assert_eq!(
            h.move_object(a, TierKind::Dram),
            Err(HmsError::AlreadyResident(a, TierKind::Dram))
        );
    }

    #[test]
    fn move_respects_destination_capacity() {
        let mut h = small_hms(100, 4096);
        let big = h.alloc_object("big", 512, TierKind::Nvm, false).unwrap();
        let err = h.move_object(big, TierKind::Dram).unwrap_err();
        assert!(matches!(
            err,
            HmsError::OutOfMemory {
                tier: TierKind::Dram,
                ..
            }
        ));
        // Object must still be intact in NVM after the failed move.
        assert_eq!(h.tier_of(big).unwrap(), TierKind::Nvm);
        h.check_invariants().unwrap();
    }

    #[test]
    fn pinned_object_cannot_move_or_free() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 64, TierKind::Nvm, false).unwrap();
        h.pin(a).unwrap();
        assert_eq!(h.move_object(a, TierKind::Dram), Err(HmsError::Pinned(a)));
        assert_eq!(h.free_object(a), Err(HmsError::Pinned(a)));
        h.unpin(a).unwrap();
        assert!(h.move_object(a, TierKind::Dram).is_ok());
        h.check_invariants().unwrap();
    }

    #[test]
    fn pin_is_counted() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 64, TierKind::Nvm, false).unwrap();
        h.pin(a).unwrap();
        h.pin(a).unwrap();
        assert_eq!(h.pin_count(a).unwrap(), 2);
        h.unpin(a).unwrap();
        assert_eq!(h.pin_count(a).unwrap(), 1);
        // Still pinned by one task.
        assert_eq!(h.move_object(a, TierKind::Dram), Err(HmsError::Pinned(a)));
    }

    #[test]
    fn free_returns_bytes_to_tier() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 300, TierKind::Dram, false).unwrap();
        h.free_object(a).unwrap();
        assert_eq!(h.used(TierKind::Dram), 0);
        assert!(matches!(h.tier_of(a), Err(HmsError::NoSuchObject(_))));
        h.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_partitions_objects() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 100, TierKind::Dram, false).unwrap();
        let b = h.alloc_object("b", 200, TierKind::Nvm, false).unwrap();
        let snap = h.snapshot();
        assert_eq!(snap.dram, vec![a]);
        assert_eq!(snap.nvm, vec![b]);
        assert!(snap.mid.is_empty());
        assert_eq!(snap.dram_used, 100);
        assert_eq!(snap.nvm_used, 200);
        assert_eq!(snap.mid_used, 0);
        assert_eq!(h.footprint(), 300);
    }

    #[test]
    fn chunk_allocation_links_parent() {
        let mut h = small_hms(1024, 4096);
        let parent = h.alloc_object("p", 512, TierKind::Nvm, false).unwrap();
        let c = h
            .alloc_chunk(parent, 3, "p[3]", 128, TierKind::Nvm, false)
            .unwrap();
        assert_eq!(h.meta(c).unwrap().chunk_of, Some((parent, 3)));
        assert!(h.meta(c).unwrap().is_chunk());
    }

    #[test]
    fn config_rejects_bad_specs_and_copy_bw() {
        let d = presets::dram(1024);
        let n = presets::optane_pmm(4096);
        assert!(matches!(
            HmsConfig::new(d.clone().with_capacity(0), n.clone(), 5.0),
            Err(HmsError::InvalidSpec { .. })
        ));
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                HmsConfig::new(d.clone(), n.clone(), bad),
                Err(HmsError::InvalidConfig(_))
            ));
        }
        assert!(HmsConfig::new(d, n, 5.0).is_ok());
    }

    #[test]
    fn default_backend_is_virtual() {
        let mut h = small_hms(1024, 4096);
        assert_eq!(h.backend_name(), "virtual");
        assert!(!h.backend_stats().is_real);
        let a = h.alloc_object("a", 64, TierKind::Dram, false).unwrap();
        assert!(h.object_bytes(a).unwrap().is_none());
    }

    #[test]
    fn zero_size_rejected() {
        let mut h = small_hms(1024, 4096);
        assert_eq!(
            h.alloc_object("z", 0, TierKind::Dram, true),
            Err(HmsError::ZeroSizeAllocation)
        );
    }

    #[test]
    fn two_phase_move_reserves_then_commits() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 256, TierKind::Nvm, false).unwrap();
        let t = h.begin_move_to(a, TierId::FASTEST).unwrap();
        assert_eq!(
            (t.object(), t.from(), t.to(), t.size()),
            (a, TierKind::Nvm, TierKind::Dram, 256)
        );
        assert!(h.is_moving(a).unwrap());
        // Mid-move the object rejects pins, frees, and further moves.
        assert_eq!(h.pin(a), Err(HmsError::Moving(a)));
        assert_eq!(h.free_object(a), Err(HmsError::Moving(a)));
        assert_eq!(h.move_object(a, TierKind::Dram), Err(HmsError::Moving(a)));
        // Both ranges reserved while the ticket is outstanding.
        assert_eq!(h.used(TierKind::Dram), 256);
        assert_eq!(h.used(TierKind::Nvm), 256);
        let moved = h.commit_move(t, &crate::CopyOutcome::default());
        assert_eq!(moved, 256);
        assert!(!h.is_moving(a).unwrap());
        assert_eq!(h.tier_of(a).unwrap(), TierKind::Dram);
        assert_eq!(h.used(TierKind::Nvm), 0);
        h.check_invariants().unwrap();
    }

    #[test]
    fn aborted_two_phase_move_restores_state() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 256, TierKind::Nvm, false).unwrap();
        let t = h.begin_move_to(a, TierId::FASTEST).unwrap();
        h.abort_move(t);
        assert!(!h.is_moving(a).unwrap());
        assert_eq!(h.tier_of(a).unwrap(), TierKind::Nvm);
        assert_eq!(h.used(TierKind::Dram), 0);
        h.check_invariants().unwrap();
        // The object is movable again after the abort.
        assert!(h.move_object(a, TierKind::Dram).is_ok());
    }

    #[test]
    fn metrics_track_occupancy_and_transitions() {
        let mut h = small_hms(1024, 4096);
        let m = tahoe_obs::Metrics::enabled();
        h.set_metrics(m.clone());
        let a = h.alloc_object("a", 300, TierKind::Nvm, false).unwrap();
        h.move_object(a, TierKind::Dram).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.counter("hms.allocs"), Some(1));
        assert_eq!(snap.counter("hms.moves"), Some(1));
        assert_eq!(snap.counter("hms.moved_bytes"), Some(300));
        assert_eq!(snap.gauge("hms.dram.used_bytes"), Some(300.0));
        assert_eq!(snap.gauge("hms.nvm.used_bytes"), Some(0.0));
        assert_eq!(snap.gauge("hms.dram.capacity_bytes"), Some(1024.0));
        h.free_object(a).unwrap();
        assert_eq!(m.snapshot().gauge("hms.dram.used_bytes"), Some(0.0));
    }

    // --- N-tier behaviour ------------------------------------------------

    #[test]
    fn three_tier_config_exposes_ordered_specs() {
        let cfg = HmsConfig::with_tiers(
            vec![
                presets::dram(1024),
                presets::cxl(2048),
                presets::optane_pmm(4096),
            ],
            5.0,
        )
        .unwrap();
        assert_eq!(cfg.n_tiers(), 3);
        assert_eq!(cfg.tier_spec_at(TierId(0)).name, "DRAM");
        assert_eq!(cfg.tier_spec_at(TierId(1)).name, "CXL");
        assert_eq!(cfg.tier_spec_at(TierId(2)).name, "Optane PMM");
        assert_eq!(cfg.tier_id(TierKind::Dram), TierId(0));
        assert_eq!(cfg.tier_id(TierKind::Nvm), TierId(2));
        assert_eq!(cfg.last_tier(), TierId(2));
        // DRAM↔spill keeps the explicit scalar; other pairs are derived.
        assert_eq!(cfg.copy_bw_between(TierId(0), TierId(2)), 5.0);
        assert_eq!(cfg.copy_bw_between(TierId(2), TierId(0)), 5.0);
        let d_to_c = cfg.copy_bw_between(TierId(0), TierId(1));
        assert!(d_to_c > 0.0 && d_to_c.is_finite());
        // CXL write BW bounds the DRAM→CXL copy pipe.
        let cxl = presets::cxl(2048);
        assert!((d_to_c - 0.8 * cxl.write_bw_gbps.min(presets::dram(1).read_bw_gbps)).abs() < 1e-9);
    }

    #[test]
    fn with_tiers_rejects_degenerate_lists() {
        assert!(HmsConfig::with_tiers(vec![presets::dram(1024)], 5.0).is_err());
        assert!(HmsConfig::with_tiers(vec![], 5.0).is_err());
    }

    #[test]
    fn alloc_cascades_down_then_up_across_three_tiers() {
        let mut h = three_tier_hms(100, 100, 64);
        // Fill DRAM; next preferred-DRAM alloc lands on the middle tier.
        let _a = h.alloc_object_on("a", 100, TierId(0), true).unwrap();
        let b = h.alloc_object_on("b", 60, TierId(0), true).unwrap();
        assert_eq!(h.tier_index_of(b).unwrap(), TierId(1));
        assert_eq!(h.dram_fallbacks, 1);
        // Middle tier nearly full: the next one spills to NVM.
        let c = h.alloc_object_on("c", 60, TierId(0), true).unwrap();
        assert_eq!(h.tier_index_of(c).unwrap(), TierId(2));
        // The spill tier is full now (60 of 64): preferring it overflows
        // *upward* to the middle tier rather than failing.
        let d = h.alloc_object_on("d", 30, TierId(2), true).unwrap();
        assert_eq!(h.tier_index_of(d).unwrap(), TierId(1));
        h.check_invariants().unwrap();
    }

    #[test]
    fn mid_tier_presents_as_nvm_through_the_facade() {
        let mut h = three_tier_hms(1024, 1024, 1024);
        let m = h.alloc_object_on("m", 64, TierId(1), false).unwrap();
        assert_eq!(h.tier_index_of(m).unwrap(), TierId(1));
        assert_eq!(h.tier_of(m).unwrap(), TierKind::Nvm);
        // Facade views see tier 0 and the *last* tier only.
        assert!(h.objects_on(TierKind::Dram).is_empty());
        assert!(h.objects_on(TierKind::Nvm).is_empty());
        assert_eq!(h.objects_on_tier(TierId(1)), vec![m]);
        let snap = h.snapshot();
        assert_eq!(snap.mid, vec![m]);
        assert_eq!(snap.mid_used, 64);
    }

    #[test]
    fn tier_to_tier_moves_walk_the_ladder() {
        let mut h = three_tier_hms(1024, 1024, 1024);
        let a = h.alloc_object_on("a", 256, TierId(2), false).unwrap();
        assert_eq!(h.move_object_to(a, TierId(1)).unwrap(), 256);
        assert_eq!(h.tier_index_of(a).unwrap(), TierId(1));
        assert_eq!(h.used_at(TierId(2)), 0);
        assert_eq!(h.used_at(TierId(1)), 256);
        let t = h.begin_move_to(a, TierId(0)).unwrap();
        assert_eq!((t.from_tier(), t.to_tier()), (TierId(1), TierId(0)));
        let moved = h.commit_move(t, &crate::CopyOutcome::default());
        assert_eq!(moved, 256);
        assert_eq!(h.tier_index_of(a).unwrap(), TierId(0));
        assert_eq!(
            h.move_object_to(a, TierId(0)),
            Err(HmsError::AlreadyResident(a, TierKind::Dram))
        );
        h.check_invariants().unwrap();
    }

    #[test]
    fn copy_bw_override_is_per_pair() {
        let mut cfg = HmsConfig::with_tiers(
            vec![
                presets::dram(1024),
                presets::cxl(2048),
                presets::optane_pmm(4096),
            ],
            5.0,
        )
        .unwrap();
        cfg.set_copy_bw(TierId(1), TierId(2), 1.25).unwrap();
        assert_eq!(cfg.copy_bw_between(TierId(1), TierId(2)), 1.25);
        assert_eq!(cfg.copy_bw_between(TierId(0), TierId(2)), 5.0);
        assert!(cfg.set_copy_bw(TierId(0), TierId(3), 1.0).is_err());
        assert!(cfg.set_copy_bw(TierId(0), TierId(1), f64::NAN).is_err());
    }
}
