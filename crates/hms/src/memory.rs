//! The heterogeneous memory manager: object-granularity placement over
//! an ordered list of memory tiers, each backed by a real allocator.
//!
//! The paper's HMS is a DRAM/NVM pair; here it is the two-entry case of
//! an ordered tier list (fastest first). Every operation names a tier
//! by [`TierId`]; callers that only ever mean "the fast end" or "the
//! spill end" may pass the [`TierKind`](crate::TierKind) shorthand,
//! which [`TierRef`] resolves against the configured list on entry.

use std::collections::HashMap;

use crate::alloc::TierAllocator;
use crate::backend::{BackendStats, CopyOutcome, TierBackend, VirtualBackend};
use crate::error::HmsError;
use crate::object::{ObjectId, ObjectMeta};
use crate::tier::{TierId, TierRef, TierSpec};

/// Configuration of the tiered memory system: the ordered tier list
/// (fastest first, at least two — the first is the scarce fast tier,
/// the last the spill tier) and the copy engine's per-pair bandwidths.
#[derive(Debug, Clone)]
pub struct HmsConfig {
    tiers: Vec<TierSpec>,
    /// Row-major n×n copy-bandwidth matrix, GB/s: entry `[from][to]` is
    /// the modelled bandwidth of a `from`→`to` migration (the diagonal
    /// is unused).
    copy_matrix: Vec<f64>,
}

impl HmsConfig {
    /// The classic two-tier system: [`HmsConfig::with_tiers`] over
    /// `[dram, nvm]`.
    pub fn new(dram: TierSpec, nvm: TierSpec, copy_bw_gbps: f64) -> Result<Self, HmsError> {
        Self::with_tiers(vec![dram, nvm], copy_bw_gbps)
    }

    /// Construct a system from an ordered tier list (fastest first, at
    /// least two tiers), validating every spec. Every ordered pair's
    /// copy bandwidth is the one direction-aware rule,
    /// [`TierSpec::copy_bw_to`]: `0.8 × min(src read BW, dst write BW)`.
    /// This is what the wall-clock runtime runs on.
    pub fn derived(tiers: Vec<TierSpec>) -> Result<Self, HmsError> {
        let n = tiers.len();
        if n < 2 {
            return Err(HmsError::InvalidConfig(format!(
                "a tier list needs at least 2 tiers, got {n}"
            )));
        }
        if n > u8::MAX as usize {
            return Err(HmsError::InvalidConfig(format!(
                "at most {} tiers are supported, got {n}",
                u8::MAX
            )));
        }
        for t in &tiers {
            t.validate()?;
        }
        let mut copy_matrix = vec![0.0; n * n];
        for (from, src) in tiers.iter().enumerate() {
            for (to, dst) in tiers.iter().enumerate() {
                if from != to {
                    copy_matrix[from * n + to] = src.copy_bw_to(dst);
                }
            }
        }
        Ok(HmsConfig { tiers, copy_matrix })
    }

    /// [`HmsConfig::derived`] with the fastest↔spill pair overridden, in
    /// both directions, by the scalar `copy_bw_gbps` — the symmetric
    /// copy channel the virtual-time simulator models (and tests that
    /// want a round number).
    pub fn with_tiers(tiers: Vec<TierSpec>, copy_bw_gbps: f64) -> Result<Self, HmsError> {
        let mut cfg = Self::derived(tiers)?;
        let (fastest, spill) = (TierId::FASTEST, cfg.last_tier());
        cfg.set_copy_bw(fastest, spill, copy_bw_gbps)?;
        cfg.set_copy_bw(spill, fastest, copy_bw_gbps)?;
        Ok(cfg)
    }

    /// Number of tiers (≥ 2).
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The ordered tier list, fastest first.
    pub fn tier_specs(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// The spec of the tier at `id`. Panics on an out-of-range index.
    pub fn tier_spec_at(&self, id: TierId) -> &TierSpec {
        &self.tiers[id.index()]
    }

    /// The fastest tier's spec (tier 0; its capacity is the scarce
    /// budget placement fights over).
    pub fn fastest(&self) -> &TierSpec {
        &self.tiers[0]
    }

    /// The spill tier's spec (the last, slowest, largest tier).
    pub fn spill(&self) -> &TierSpec {
        &self.tiers[self.tiers.len() - 1]
    }

    /// The last (slowest, spill) tier.
    pub fn last_tier(&self) -> TierId {
        TierId((self.n_tiers() - 1) as u8)
    }

    /// Modelled copy bandwidth of a `from`→`to` migration, GB/s.
    pub fn copy_bw_between(&self, from: TierId, to: TierId) -> f64 {
        let n = self.n_tiers();
        assert!(
            from.index() < n && to.index() < n,
            "tier index out of range"
        );
        self.copy_matrix[from.index() * n + to.index()]
    }

    /// Override one pair's copy bandwidth.
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
        self.copy_matrix[from.index() * n + to.index()] = bw_gbps;
        Ok(())
    }
}

/// Where each live object currently resides, with allocator state.
#[derive(Debug)]
struct ObjectRecord {
    meta: ObjectMeta,
    tier: TierId,
    addr: u64,
    /// A two-phase move is in flight: destination reserved, copy running
    /// outside the lock. Blocks free/move until resolved.
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

    /// Source tier.
    pub fn from_tier(&self) -> TierId {
        self.from
    }

    /// Destination tier.
    pub fn to_tier(&self) -> TierId {
        self.to
    }

    /// Bytes to move.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// The heterogeneous memory system: object table plus one allocator per
/// tier.
///
/// This is the paper's user-level DRAM management service generalized to
/// every tier. All placement changes go through [`Hms::move_object`]
/// (or its two-phase form), which enforces capacity (allocation in the
/// destination must succeed before the source copy is released). Pinning
/// — never move an object while a task that declared it is in flight —
/// lives in the packed state words of [`crate::sync::SharedHms`].
#[derive(Debug)]
pub struct Hms {
    config: HmsConfig,
    /// One allocator per tier, fastest first.
    tiers: Vec<TierAllocator>,
    objects: HashMap<ObjectId, ObjectRecord>,
    next_id: u32,
    /// Count of failed tier-0 allocations that fell back to a slower tier.
    pub dram_fallbacks: u64,
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

    /// The configuration this system was built with.
    pub fn config(&self) -> &HmsConfig {
        &self.config
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The device spec of `tier`.
    pub fn tier_spec(&self, tier: impl TierRef) -> &TierSpec {
        self.config.tier_spec_at(self.resolve(tier))
    }

    /// The one entry point of the [`TierRef`] shorthand into this heap.
    fn resolve(&self, tier: impl TierRef) -> TierId {
        let id = tier.resolve(self.tiers.len());
        assert!(id.index() < self.tiers.len(), "tier {id} out of range");
        id
    }

    fn allocator(&mut self, tier: TierId) -> &mut TierAllocator {
        &mut self.tiers[tier.index()]
    }

    fn allocator_ref(&self, tier: TierId) -> &TierAllocator {
        &self.tiers[tier.index()]
    }

    /// Allocate a new data object on tier `preferred`. With `fallback`
    /// the allocation cascades: first every *slower* tier in order
    /// (spill down, the paper's overflow direction: everything that
    /// does not fit in DRAM starts in NVM), then faster tiers (a full
    /// slow tier overflows upward rather than failing).
    pub fn alloc_object(
        &mut self,
        name: &str,
        size: u64,
        preferred: impl TierRef,
        fallback: bool,
    ) -> Result<ObjectId, HmsError> {
        let preferred = self.resolve(preferred);
        self.alloc_resolved(name, size, preferred, fallback)
    }

    /// [`Hms::alloc_object`] past the shorthand: one non-generic body,
    /// compiled here rather than once per caller crate and argument type.
    fn alloc_resolved(
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
        let mut placed = None;
        if let Some(addr) = self.allocator(preferred).alloc(size) {
            placed = Some((preferred, addr));
        } else if fallback {
            if preferred == TierId::FASTEST {
                self.dram_fallbacks += 1;
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
                    tier: last_tried,
                    requested: size,
                    largest_free: self.allocator_ref(last_tried).largest_free_block(),
                });
            }
        } else {
            return Err(HmsError::OutOfMemory {
                tier: preferred,
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
                moving: false,
            },
        );
        self.backend.on_alloc(tier, addr, size);
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
        preferred: impl TierRef,
        fallback: bool,
    ) -> Result<ObjectId, HmsError> {
        let id = self.alloc_object(name, size, preferred, fallback)?;
        if let Some(rec) = self.objects.get_mut(&id) {
            rec.meta.chunk_of = Some((parent, index));
        }
        Ok(id)
    }

    /// Free an object. Fails mid-move.
    pub fn free_object(&mut self, id: ObjectId) -> Result<(), HmsError> {
        let rec = self.objects.get(&id).ok_or(HmsError::NoSuchObject(id))?;
        if rec.moving {
            return Err(HmsError::Moving(id));
        }
        let rec = self.objects.remove(&id).expect("checked above");
        self.allocator(rec.tier)
            .free(rec.addr)
            .expect("object address must be live in its tier allocator");
        self.backend.on_free(rec.tier, rec.addr, rec.meta.size);
        Ok(())
    }

    /// Current tier of an object.
    pub fn tier_of(&self, id: ObjectId) -> Result<TierId, HmsError> {
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

    /// Move an object to tier `to`, synchronously. Returns the number
    /// of bytes moved.
    ///
    /// The destination allocation is obtained before the source is freed,
    /// as a real runtime must (the copy needs both resident). Fails if the
    /// object is mid-move, missing, already there, or the destination
    /// can't hold it.
    pub fn move_object(&mut self, id: ObjectId, to: impl TierRef) -> Result<u64, HmsError> {
        let ticket = self.begin_move_to(id, self.resolve(to))?;
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
    /// outstanding the object rejects frees and further moves (and
    /// [`crate::sync::SharedHms`] rejects pins), so no task can observe
    /// half-copied bytes.
    pub fn begin_move_to(&mut self, id: ObjectId, to: TierId) -> Result<MoveTicket, HmsError> {
        assert!(to.index() < self.tiers.len(), "tier {to} out of range");
        let (size, from, from_addr, moving) = {
            let rec = self.objects.get(&id).ok_or(HmsError::NoSuchObject(id))?;
            (rec.meta.size, rec.tier, rec.addr, rec.moving)
        };
        if from == to {
            return Err(HmsError::AlreadyResident(id, to));
        }
        if moving {
            return Err(HmsError::Moving(id));
        }
        let to_addr = self
            .allocator(to)
            .alloc(size)
            .ok_or_else(|| HmsError::OutOfMemory {
                tier: to,
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
        self.backend.record_external_copy(outcome);
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
    }

    /// Whether a two-phase move of `id` is currently in flight.
    pub fn is_moving(&self, id: ObjectId) -> Result<bool, HmsError> {
        self.objects
            .get(&id)
            .map(|r| r.moving)
            .ok_or(HmsError::NoSuchObject(id))
    }

    /// Shared tail of a completed move: free the source, update the
    /// record.
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
    pub fn can_fit(&self, tier: impl TierRef, bytes: u64) -> bool {
        self.allocator_ref(self.resolve(tier)).can_fit(bytes)
    }

    /// Bytes used on `tier`.
    pub fn used(&self, tier: impl TierRef) -> u64 {
        self.allocator_ref(self.resolve(tier)).used()
    }

    /// Bytes free on `tier`.
    pub fn free_bytes(&self, tier: impl TierRef) -> u64 {
        self.allocator_ref(self.resolve(tier)).free_bytes()
    }

    /// External fragmentation of `tier`.
    pub fn fragmentation(&self, tier: impl TierRef) -> f64 {
        self.allocator_ref(self.resolve(tier)).fragmentation()
    }

    /// One past the highest object id ever allocated (ids are dense and
    /// never reused, so every live id is below this watermark). The
    /// shared wrapper's slot table syncs against it.
    pub fn peak_object_id(&self) -> u32 {
        self.next_id
    }

    /// Ids of objects resident on `tier`, ascending.
    pub fn objects_on(&self, tier: impl TierRef) -> Vec<ObjectId> {
        let tier = self.resolve(tier);
        let mut v: Vec<ObjectId> = self
            .objects
            .iter()
            .filter(|(_, r)| r.tier == tier)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
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
    use crate::tier::TierKind;

    /// The two tiers of [`small_hms`].
    const DRAM: TierId = TierId(0);
    const NVM: TierId = TierId(1);

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
        let a = h.alloc_object("a", 512, DRAM, true).unwrap();
        assert_eq!(h.tier_of(a).unwrap(), DRAM);
        assert_eq!(h.used(DRAM), 512);
        h.check_invariants().unwrap();
    }

    #[test]
    fn dram_overflow_falls_back_to_nvm() {
        let mut h = small_hms(1024, 4096);
        let _a = h.alloc_object("a", 1000, DRAM, true).unwrap();
        let b = h.alloc_object("b", 512, DRAM, true).unwrap();
        assert_eq!(h.tier_of(b).unwrap(), NVM);
        assert_eq!(h.dram_fallbacks, 1);
        h.check_invariants().unwrap();
    }

    #[test]
    fn no_fallback_errors_out() {
        let mut h = small_hms(1024, 4096);
        let _a = h.alloc_object("a", 1000, DRAM, false).unwrap();
        let err = h.alloc_object("b", 512, DRAM, false).unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { tier: DRAM, .. }));
    }

    #[test]
    fn both_tiers_full_is_oom() {
        let mut h = small_hms(64, 64);
        let _ = h.alloc_object("a", 64, DRAM, true).unwrap();
        let _ = h.alloc_object("b", 64, NVM, true).unwrap();
        assert!(h.alloc_object("c", 1, DRAM, true).is_err());
    }

    #[test]
    fn move_object_updates_residency_and_accounting() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 256, NVM, false).unwrap();
        let moved = h.move_object(a, DRAM).unwrap();
        assert_eq!(moved, 256);
        assert_eq!(h.tier_of(a).unwrap(), DRAM);
        assert_eq!(h.used(NVM), 0);
        assert_eq!(h.used(DRAM), 256);
        h.check_invariants().unwrap();
    }

    #[test]
    fn move_to_same_tier_is_error() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 64, DRAM, false).unwrap();
        assert_eq!(
            h.move_object(a, DRAM),
            Err(HmsError::AlreadyResident(a, DRAM))
        );
    }

    #[test]
    fn move_respects_destination_capacity() {
        let mut h = small_hms(100, 4096);
        let big = h.alloc_object("big", 512, NVM, false).unwrap();
        let err = h.move_object(big, DRAM).unwrap_err();
        assert!(matches!(err, HmsError::OutOfMemory { tier: DRAM, .. }));
        // Object must still be intact in NVM after the failed move.
        assert_eq!(h.tier_of(big).unwrap(), NVM);
        h.check_invariants().unwrap();
    }

    #[test]
    fn free_returns_bytes_to_tier() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 300, DRAM, false).unwrap();
        h.free_object(a).unwrap();
        assert_eq!(h.used(DRAM), 0);
        assert!(matches!(h.tier_of(a), Err(HmsError::NoSuchObject(_))));
        h.check_invariants().unwrap();
    }

    #[test]
    fn objects_on_partitions_objects() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 100, DRAM, false).unwrap();
        let b = h.alloc_object("b", 200, NVM, false).unwrap();
        assert_eq!(h.objects_on(DRAM), vec![a]);
        assert_eq!(h.objects_on(NVM), vec![b]);
        assert_eq!((h.used(DRAM), h.used(NVM)), (100, 200));
        assert_eq!(h.footprint(), 300);
    }

    #[test]
    fn chunk_allocation_links_parent() {
        let mut h = small_hms(1024, 4096);
        let parent = h.alloc_object("p", 512, NVM, false).unwrap();
        let c = h.alloc_chunk(parent, 3, "p[3]", 128, NVM, false).unwrap();
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
        let a = h.alloc_object("a", 64, DRAM, false).unwrap();
        assert!(h.object_bytes(a).unwrap().is_none());
    }

    #[test]
    fn zero_size_rejected() {
        let mut h = small_hms(1024, 4096);
        assert_eq!(
            h.alloc_object("z", 0, DRAM, true),
            Err(HmsError::ZeroSizeAllocation)
        );
    }

    #[test]
    fn two_phase_move_reserves_then_commits() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 256, NVM, false).unwrap();
        let t = h.begin_move_to(a, TierId::FASTEST).unwrap();
        assert_eq!(
            (t.object(), t.from_tier(), t.to_tier(), t.size()),
            (a, NVM, DRAM, 256)
        );
        assert!(h.is_moving(a).unwrap());
        // Mid-move the object rejects frees and further moves.
        assert_eq!(h.free_object(a), Err(HmsError::Moving(a)));
        assert_eq!(h.move_object(a, DRAM), Err(HmsError::Moving(a)));
        // Both ranges reserved while the ticket is outstanding.
        assert_eq!(h.used(DRAM), 256);
        assert_eq!(h.used(NVM), 256);
        let moved = h.commit_move(t, &crate::CopyOutcome::default());
        assert_eq!(moved, 256);
        assert!(!h.is_moving(a).unwrap());
        assert_eq!(h.tier_of(a).unwrap(), DRAM);
        assert_eq!(h.used(NVM), 0);
        h.check_invariants().unwrap();
    }

    #[test]
    fn aborted_two_phase_move_restores_state() {
        let mut h = small_hms(1024, 4096);
        let a = h.alloc_object("a", 256, NVM, false).unwrap();
        let t = h.begin_move_to(a, TierId::FASTEST).unwrap();
        h.abort_move(t);
        assert!(!h.is_moving(a).unwrap());
        assert_eq!(h.tier_of(a).unwrap(), NVM);
        assert_eq!(h.used(DRAM), 0);
        h.check_invariants().unwrap();
        // The object is movable again after the abort.
        assert!(h.move_object(a, DRAM).is_ok());
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
        assert_eq!(cfg.last_tier(), TierId(2));
        assert_eq!(
            (&cfg.fastest().name[..], &cfg.spill().name[..]),
            ("DRAM", "Optane PMM")
        );
        // DRAM↔spill keeps the explicit scalar; other pairs are derived.
        assert_eq!(cfg.copy_bw_between(TierId(0), TierId(2)), 5.0);
        assert_eq!(cfg.copy_bw_between(TierId(2), TierId(0)), 5.0);
        let d_to_c = cfg.copy_bw_between(TierId(0), TierId(1));
        assert!(d_to_c > 0.0 && d_to_c.is_finite());
        // CXL write BW bounds the DRAM→CXL copy pipe.
        let cxl = presets::cxl(2048);
        assert!((d_to_c - 0.8 * cxl.write_bw_gbps.min(presets::dram(1).read_bw_gbps)).abs() < 1e-9);
    }

    /// 2-, 3- and 4-tier lists over read/write-asymmetric devices.
    fn tier_lists() -> Vec<Vec<TierSpec>> {
        vec![
            vec![presets::dram(1024), presets::optane_pmm(4096)],
            vec![
                presets::dram(1024),
                presets::cxl(2048),
                presets::optane_pmm(4096),
            ],
            vec![
                presets::dram(1024),
                presets::cxl(2048),
                presets::stt_ram(4096),
                presets::pcram(8192),
            ],
        ]
    }

    #[test]
    fn derived_matrix_is_the_copy_rule_for_every_ordered_pair() {
        for tiers in tier_lists() {
            let cfg = HmsConfig::derived(tiers.clone()).unwrap();
            for (from, src) in tiers.iter().enumerate() {
                for (to, dst) in tiers.iter().enumerate() {
                    if from == to {
                        continue;
                    }
                    let bw = cfg.copy_bw_between(TierId(from as u8), TierId(to as u8));
                    assert_eq!(bw, 0.8 * src.read_bw_gbps.min(dst.write_bw_gbps));
                    assert_eq!(bw, src.copy_bw_to(dst));
                }
            }
        }
        // The asymmetry the rule exists for: a promotion out of Optane
        // reads it (3.9 GB/s), a demotion writes it (1.3 GB/s).
        let cfg = HmsConfig::derived(tier_lists().remove(0)).unwrap();
        let up = cfg.copy_bw_between(TierId(1), TierId(0));
        let down = cfg.copy_bw_between(TierId(0), TierId(1));
        assert!((up - 3.12).abs() < 1e-12 && (down - 1.04).abs() < 1e-12);
    }

    #[test]
    fn with_tiers_is_derived_plus_a_symmetric_fastest_spill_override() {
        for tiers in tier_lists() {
            let n = tiers.len();
            let derived = HmsConfig::derived(tiers.clone()).unwrap();
            let cfg = HmsConfig::with_tiers(tiers, 5.0).unwrap();
            for from in 0..n {
                for to in 0..n {
                    let (f, t) = (TierId(from as u8), TierId(to as u8));
                    let ends = (from.min(to), from.max(to)) == (0, n - 1);
                    let want = if ends {
                        5.0
                    } else {
                        derived.copy_bw_between(f, t)
                    };
                    assert_eq!(cfg.copy_bw_between(f, t), want, "{n} tiers, {f}→{t}");
                }
            }
        }
        assert!(HmsConfig::with_tiers(tier_lists().remove(0), 0.0).is_err());
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
        let _a = h.alloc_object("a", 100, TierId(0), true).unwrap();
        let b = h.alloc_object("b", 60, TierId(0), true).unwrap();
        assert_eq!(h.tier_of(b).unwrap(), TierId(1));
        assert_eq!(h.dram_fallbacks, 1);
        // Middle tier nearly full: the next one spills to NVM.
        let c = h.alloc_object("c", 60, TierId(0), true).unwrap();
        assert_eq!(h.tier_of(c).unwrap(), TierId(2));
        // The spill tier is full now (60 of 64): preferring it overflows
        // *upward* to the middle tier rather than failing.
        let d = h.alloc_object("d", 30, TierId(2), true).unwrap();
        assert_eq!(h.tier_of(d).unwrap(), TierId(1));
        h.check_invariants().unwrap();
    }

    #[test]
    fn a_middle_tier_is_a_tier_like_any_other() {
        let mut h = three_tier_hms(1024, 64, 1024);
        let m = h.alloc_object("m", 64, TierId(1), false).unwrap();
        assert_eq!(h.tier_of(m).unwrap(), TierId(1));
        assert!(h.objects_on(TierId(0)).is_empty());
        assert_eq!(h.objects_on(TierId(1)), vec![m]);
        assert!(h.objects_on(TierId(2)).is_empty());
        assert_eq!(h.used(TierId(1)), 64);
        // A full middle tier says so by its own index, not the spill's.
        assert_eq!(
            h.alloc_object("n", 1, TierId(1), false),
            Err(HmsError::OutOfMemory {
                tier: TierId(1),
                requested: 1,
                largest_free: 0,
            })
        );
    }

    #[test]
    fn shorthand_names_the_ends_of_two_three_and_four_tier_heaps() {
        for n in 2..=4usize {
            let mut tiers = vec![presets::dram(1024)];
            tiers.extend((2..n).map(|_| presets::cxl(1024)));
            tiers.push(presets::optane_pmm(1024));
            let mut h = Hms::new(HmsConfig::with_tiers(tiers, 5.0).unwrap());
            let last = TierId((n - 1) as u8);
            let x = h.alloc_object("x", 64, TierKind::Nvm, false).unwrap();
            assert_eq!(h.tier_of(x).unwrap(), last);
            assert_eq!(h.used(TierKind::Nvm), h.used(last));
            assert_eq!(h.tier_spec(TierKind::Nvm), h.config().spill());
            h.move_object(x, TierKind::Dram).unwrap();
            assert_eq!(h.tier_of(x).unwrap(), TierId(0));
            assert_eq!(h.objects_on(TierKind::Dram), h.objects_on(TierId(0)));
            assert_eq!(h.free_bytes(TierKind::Dram), h.free_bytes(TierId(0)));
        }
    }

    #[test]
    fn tier_to_tier_moves_walk_the_ladder() {
        let mut h = three_tier_hms(1024, 1024, 1024);
        let a = h.alloc_object("a", 256, TierId(2), false).unwrap();
        assert_eq!(h.move_object(a, TierId(1)).unwrap(), 256);
        assert_eq!(h.tier_of(a).unwrap(), TierId(1));
        assert_eq!(h.used(TierId(2)), 0);
        assert_eq!(h.used(TierId(1)), 256);
        let t = h.begin_move_to(a, TierId(0)).unwrap();
        assert_eq!((t.from_tier(), t.to_tier()), (TierId(1), TierId(0)));
        let moved = h.commit_move(t, &crate::CopyOutcome::default());
        assert_eq!(moved, 256);
        assert_eq!(h.tier_of(a).unwrap(), TierId(0));
        assert_eq!(
            h.move_object(a, TierId(0)),
            Err(HmsError::AlreadyResident(a, TierId(0)))
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
