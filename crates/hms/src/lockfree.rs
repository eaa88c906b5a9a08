//! Lock-free building blocks for [`crate::sync::SharedHms`]: the packed
//! per-object state word, the sharded slot table, and the per-shard
//! event-count parker.
//!
//! The parallel measured runtime showed *negative* scaling when every
//! pin/unpin funneled through one `Mutex+Condvar`: with short tasks the
//! lock hand-off and `notify_all` storms dominate the runtime's own
//! bookkeeping, which the paper requires to stay off the critical path.
//! The replacement makes the hot path a single CAS on a per-object
//! `AtomicU64` and reserves blocking for the two genuinely blocking
//! edges (worker needs a mid-move object; migrator waits for pins).
//!
//! # The packed state word
//!
//! ```text
//!  63            32 31     19  18   17   16  15            0
//! ┌────────────────┬─────────┬────┬────┬────┬───────────────┐
//! │   move epoch   │ (unused)│ WT │ PK │ MV │   pin count   │
//! └────────────────┴─────────┴────┴────┴────┴───────────────┘
//! ```
//!
//! * **pin count** — live pins; grows only while `MV` is clear.
//! * **MV (moving)** — a two-phase move is in flight; rejects pins.
//! * **PK (parked)** — the migrator is parked waiting for pins to
//!   drain; an unpin-to-zero must wake the shard.
//! * **WT (waiters)** — ≥1 worker is parked waiting for the move to
//!   end; the commit/abort must wake the shard.
//! * **move epoch** — bumped on every move completion; doubles as the
//!   ticket generation for ABA protection and introspection.
//!
//! All transitions are expressed as pure `word::*` functions over the
//! packed value so that the legality rules (no pin while moving, no
//! double begin, no completion with live pins) are property-testable
//! without threads; the atomic code CAS-loops those functions.

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::object::ObjectId;

/// Pure transition algebra over the packed per-object state word.
pub mod word {
    /// Mask of the pin-count field (bits 0..=15).
    pub const PIN_MASK: u64 = 0xFFFF;
    /// A two-phase move is in flight.
    pub const MOVING: u64 = 1 << 16;
    /// The migrator is parked waiting for pins to drain.
    pub const PARKED: u64 = 1 << 17;
    /// At least one worker is parked waiting for the move to end.
    pub const WAITERS: u64 = 1 << 18;
    /// One increment of the move-epoch field (bits 32..=63).
    pub const EPOCH_ONE: u64 = 1 << 32;

    /// Why a transition is illegal from the given word.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WordError {
        /// Pin attempted while a move is in flight.
        Moving,
        /// Pin count would overflow its 16-bit field.
        PinOverflow,
        /// Unpin with no pins outstanding.
        NotPinned,
        /// Move begun while pins are live.
        Pinned(u32),
        /// Move begun while one is already in flight (double begin).
        AlreadyMoving,
        /// Move completed that was never begun (double commit/abort).
        NotMoving,
    }

    /// Live pins encoded in `w`.
    pub fn pins(w: u64) -> u32 {
        (w & PIN_MASK) as u32
    }

    /// Move epoch encoded in `w`.
    pub fn epoch(w: u64) -> u32 {
        (w >> 32) as u32
    }

    /// Whether a move is in flight.
    pub fn is_moving(w: u64) -> bool {
        w & MOVING != 0
    }

    /// Whether the migrator is parked on this object.
    pub fn is_parked(w: u64) -> bool {
        w & PARKED != 0
    }

    /// Whether workers are parked on this object.
    pub fn has_waiters(w: u64) -> bool {
        w & WAITERS != 0
    }

    /// Build a word from its fields (test/diagnostic constructor).
    pub fn pack(pins: u16, moving: bool, parked: bool, waiters: bool, epoch: u32) -> u64 {
        u64::from(pins)
            | if moving { MOVING } else { 0 }
            | if parked { PARKED } else { 0 }
            | if waiters { WAITERS } else { 0 }
            | (u64::from(epoch) << 32)
    }

    /// Split a word back into `(pins, moving, parked, waiters, epoch)`.
    pub fn unpack(w: u64) -> (u16, bool, bool, bool, u32) {
        (
            (w & PIN_MASK) as u16,
            is_moving(w),
            is_parked(w),
            has_waiters(w),
            epoch(w),
        )
    }

    /// Take one pin. Illegal while a move is in flight.
    pub fn pin(w: u64) -> Result<u64, WordError> {
        if is_moving(w) {
            return Err(WordError::Moving);
        }
        if w & PIN_MASK == PIN_MASK {
            return Err(WordError::PinOverflow);
        }
        Ok(w + 1)
    }

    /// Release one pin. Illegal with none outstanding.
    pub fn unpin(w: u64) -> Result<u64, WordError> {
        if w & PIN_MASK == 0 {
            return Err(WordError::NotPinned);
        }
        Ok(w - 1)
    }

    /// Claim the object for a two-phase move: requires zero pins and no
    /// move in flight; consumes any `PARKED` announcement (the claimant
    /// is the parked migrator itself).
    pub fn begin_move(w: u64) -> Result<u64, WordError> {
        if is_moving(w) {
            return Err(WordError::AlreadyMoving);
        }
        let p = pins(w);
        if p > 0 {
            return Err(WordError::Pinned(p));
        }
        Ok((w & !PARKED) | MOVING)
    }

    /// Complete (commit or abort) the in-flight move: clears the move
    /// and waiter bits and bumps the epoch. Illegal when no move is in
    /// flight or pins are live (pins cannot grow while `MOVING`, so live
    /// pins here mean state corruption).
    pub fn end_move(w: u64) -> Result<u64, WordError> {
        if !is_moving(w) {
            return Err(WordError::NotMoving);
        }
        if pins(w) > 0 {
            return Err(WordError::Pinned(pins(w)));
        }
        Ok((w & !(MOVING | PARKED | WAITERS)).wrapping_add(EPOCH_ONE))
    }

    /// Announce the migrator is parking on this word.
    pub fn set_parked(w: u64) -> u64 {
        w | PARKED
    }

    /// Announce a worker is parking on this word.
    pub fn set_waiters(w: u64) -> u64 {
        w | WAITERS
    }
}

/// Contention counters for the lock-free paths; every substrate folds
/// them into its metrics under the same `hms.*` keys
/// ([`ContentionStats::fold_into`]).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ContentionStats {
    /// Failed CAS attempts on pin/unpin/move transitions.
    pub pin_cas_retries: u64,
    /// Times any thread parked on a shard event-count.
    pub parks: u64,
    /// Times a state transition woke a shard with live waiters.
    pub unparks: u64,
    /// Times a worker found a needed object mid-move (the paper's
    /// exposed-migration edge).
    pub move_waits: u64,
}

impl ContentionStats {
    /// Add the counters to `metrics` as `hms.pin_cas_retries`,
    /// `hms.parks`, `hms.unparks` and `hms.move_waits`, so a scaling
    /// regression is diagnosable from a batch run's artifacts and a
    /// served tenant's alike.
    pub fn fold_into(&self, metrics: &tahoe_obs::Metrics) {
        metrics.add("hms.pin_cas_retries", self.pin_cas_retries);
        metrics.add("hms.parks", self.parks);
        metrics.add("hms.unparks", self.unparks);
        metrics.add("hms.move_waits", self.move_waits);
    }
}

/// Internal atomic counterparts of [`ContentionStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub pin_cas_retries: AtomicU64,
    pub parks: AtomicU64,
    pub unparks: AtomicU64,
    pub move_waits: AtomicU64,
}

impl Counters {
    pub fn snapshot(&self) -> ContentionStats {
        ContentionStats {
            pin_cas_retries: self.pin_cas_retries.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            move_waits: self.move_waits.load(Ordering::Relaxed),
        }
    }
}

/// A per-shard event-count: blocked threads park here instead of on one
/// global condvar, so an unpin on shard A never wakes waiters of shard B.
///
/// The missed-wakeup protocol is the classic event-count: a waiter reads
/// the sequence number under the lock, re-checks its predicate, and only
/// then sleeps; a notifier bumps the sequence under the same lock, so
/// the state change it published (a SeqCst CAS on the slot word) is
/// either seen by the waiter's re-check or ordered before a wakeup. All
/// parks are additionally timed as a belt-and-braces backstop (and to
/// poll migration cancel flags).
#[derive(Debug, Default)]
pub(crate) struct Parker {
    seq: Mutex<u64>,
    cv: Condvar,
    waiters: AtomicU32,
}

impl Parker {
    /// Park the calling thread while `blocked()` holds, until notified
    /// or `timeout` elapses. `blocked` must load the guarding atomic
    /// with `SeqCst` to pair with the notifier's transition.
    pub fn park_while(&self, timeout: Duration, blocked: impl Fn() -> bool) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut seq = self.seq.lock().unwrap_or_else(PoisonError::into_inner);
        let entered = *seq;
        while blocked() && *seq == entered {
            let (guard, timed_out) = self
                .cv
                .wait_timeout(seq, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            seq = guard;
            if timed_out.timed_out() {
                break;
            }
        }
        drop(seq);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake every thread parked on this shard. Returns whether anyone
    /// was (possibly) woken; with no waiters this is a single load.
    pub fn notify(&self) -> bool {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return false;
        }
        {
            let mut seq = self.seq.lock().unwrap_or_else(PoisonError::into_inner);
            *seq = seq.wrapping_add(1);
        }
        self.cv.notify_all();
        true
    }
}

/// log2 of the shard count.
pub(crate) const SHARD_BITS: u32 = 4;
/// Number of shards (power of two; objects stripe round-robin by id).
pub(crate) const NSHARDS: usize = 1 << SHARD_BITS;
const CHUNK_BITS: u32 = 6;
/// Slots per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;
/// Chunks per shard (bounds the table at `NSHARDS·MAX_CHUNKS·CHUNK` =
/// 1Mi objects — far above any workload here).
const MAX_CHUNKS: usize = 1 << 10;

/// Per-object entry of the sharded table: the CAS state word plus a
/// location cache so the pin hot path never touches the inner [`Mutex`].
///
/// The location fields (`ptr`, `len`, `tier`, `live`) are only written
/// under the slow-path inner lock (table sync, move commit) and
/// published by the subsequent `SeqCst` transition on `state`, which the
/// pinning CAS synchronizes with — a successful pin therefore reads a
/// consistent location.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Packed state word; see [`word`].
    pub state: AtomicU64,
    /// Cached base pointer of the object's live bytes (null on byte-less
    /// substrates).
    pub ptr: AtomicPtr<u8>,
    /// Cached object size in bytes.
    pub len: AtomicU64,
    /// Cached residency tier (a [`crate::TierId`] index, fastest = 0).
    pub tier: AtomicU32,
    /// Whether the object is live (0 after free, before alloc sync).
    pub live: AtomicU32,
    /// First wall-clock ns (f64 bits) a worker blocked needing the
    /// object during the current move; 0 = never.
    pub needed_at: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            state: AtomicU64::new(0),
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicU64::new(0),
            tier: AtomicU32::new(0),
            live: AtomicU32::new(0),
            needed_at: AtomicU64::new(0),
        }
    }
}

struct SlotChunk {
    slots: [Slot; CHUNK],
}

impl SlotChunk {
    fn boxed() -> Box<Self> {
        Box::new(SlotChunk {
            slots: std::array::from_fn(|_| Slot::empty()),
        })
    }
}

/// One shard: an append-only chunked slot array readers traverse
/// lock-free, a grow lock serializing (rare) insertions, and the parker
/// for every thread blocked on this shard's objects.
pub(crate) struct Shard {
    chunks: [AtomicPtr<SlotChunk>; MAX_CHUNKS],
    grow: Mutex<()>,
    pub parker: Parker,
}

impl Shard {
    fn new() -> Self {
        Shard {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            grow: Mutex::new(()),
            parker: Parker::default(),
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        for chunk in &self.chunks {
            let p = chunk.swap(std::ptr::null_mut(), Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: chunks are only ever created via
                // `SlotChunk::boxed` and published once; we own the
                // shard exclusively in drop.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// The sharded object table: dense object ids stripe across
/// [`NSHARDS`] power-of-two shards (`shard = id & mask`), and within a
/// shard land in append-only chunks, so lookups are wait-free and
/// insertion only ever takes its own shard's grow lock.
pub(crate) struct ShardedTable {
    shards: Box<[Shard]>,
}

impl ShardedTable {
    pub fn new() -> Self {
        ShardedTable {
            shards: (0..NSHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// The shard that owns `id`.
    pub fn shard(&self, id: ObjectId) -> &Shard {
        &self.shards[id.0 as usize & (NSHARDS - 1)]
    }

    fn coords(id: ObjectId) -> (usize, usize, usize) {
        let shard = id.0 as usize & (NSHARDS - 1);
        let idx = id.0 as usize >> SHARD_BITS;
        (shard, idx >> CHUNK_BITS, idx & (CHUNK - 1))
    }

    /// Wait-free slot lookup; `None` until the id has been synced in.
    pub fn slot(&self, id: ObjectId) -> Option<&Slot> {
        let (shard, chunk, off) = Self::coords(id);
        if chunk >= MAX_CHUNKS {
            return None;
        }
        let p = self.shards[shard].chunks[chunk].load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer was published with Release by
        // `ensure_slot` and is never freed before the table drops.
        Some(unsafe { &(*p).slots[off] })
    }

    /// Slot for `id`, allocating its chunk under the shard's grow lock
    /// if needed. Panics past the (enormous) table capacity.
    pub fn ensure_slot(&self, id: ObjectId) -> &Slot {
        let (shard, chunk, off) = Self::coords(id);
        assert!(chunk < MAX_CHUNKS, "object table capacity exceeded");
        let cell = &self.shards[shard].chunks[chunk];
        let mut p = cell.load(Ordering::Acquire);
        if p.is_null() {
            let _g = self.shards[shard]
                .grow
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            p = cell.load(Ordering::Acquire);
            if p.is_null() {
                p = Box::into_raw(SlotChunk::boxed());
                cell.store(p, Ordering::Release);
            }
        }
        // SAFETY: non-null chunk pointers live until the table drops.
        unsafe { &(*p).slots[off] }
    }
}

#[cfg(test)]
mod tests {
    use super::word::*;
    use super::*;

    #[test]
    fn word_pack_unpack_round_trips() {
        for &(p, m, pk, wt, e) in &[
            (0u16, false, false, false, 0u32),
            (3, false, true, false, 7),
            (0, true, false, true, u32::MAX),
            (u16::MAX, false, false, false, 1),
        ] {
            let w = pack(p, m, pk, wt, e);
            assert_eq!(unpack(w), (p, m, pk, wt, e));
        }
    }

    #[test]
    fn word_rejects_illegal_transitions() {
        let moving = pack(0, true, false, false, 0);
        assert_eq!(pin(moving), Err(WordError::Moving));
        assert_eq!(begin_move(moving), Err(WordError::AlreadyMoving));
        let pinned = pack(2, false, false, false, 0);
        assert_eq!(begin_move(pinned), Err(WordError::Pinned(2)));
        assert_eq!(end_move(pinned), Err(WordError::NotMoving));
        assert_eq!(
            unpin(pack(0, false, false, false, 0)),
            Err(WordError::NotPinned)
        );
        assert_eq!(
            pin(pack(u16::MAX, false, false, false, 0)),
            Err(WordError::PinOverflow)
        );
    }

    #[test]
    fn word_move_cycle_bumps_epoch_and_clears_flags() {
        let w = pack(0, false, true, false, 4);
        let w = begin_move(w).unwrap();
        assert!(is_moving(w) && !is_parked(w));
        let w = set_waiters(w);
        let w = end_move(w).unwrap();
        assert_eq!(unpack(w), (0, false, false, false, 5));
    }

    #[test]
    fn parker_notify_without_waiters_is_free() {
        let p = Parker::default();
        assert!(!p.notify());
    }

    #[test]
    fn parker_wakes_a_parked_thread() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let p = Arc::new(Parker::default());
        let flag = Arc::new(AtomicBool::new(true));
        let (p2, f2) = (Arc::clone(&p), Arc::clone(&flag));
        let t = std::thread::spawn(move || {
            while f2.load(Ordering::SeqCst) {
                p2.park_while(Duration::from_secs(5), || f2.load(Ordering::SeqCst));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(false, Ordering::SeqCst);
        p.notify();
        t.join().unwrap();
    }

    #[test]
    fn table_slots_are_stable_and_sharded() {
        let t = ShardedTable::new();
        assert!(t.slot(ObjectId(0)).is_none());
        let a = t.ensure_slot(ObjectId(0)) as *const Slot;
        let b = t.ensure_slot(ObjectId(NSHARDS as u32)) as *const Slot;
        assert_ne!(a, b, "same shard, distinct slots");
        assert_eq!(t.ensure_slot(ObjectId(0)) as *const Slot, a);
        assert_eq!(t.slot(ObjectId(0)).unwrap() as *const Slot, a);
        // Ids one apart land on different shards.
        let s0 = t.shard(ObjectId(0)) as *const Shard;
        let s1 = t.shard(ObjectId(1)) as *const Shard;
        assert_ne!(s0, s1);
    }
}
