//! Thread-safe sharing of one [`Hms`] between task workers and the
//! background migration engine.
//!
//! The measured runtime's parallel mode has two kinds of threads touching
//! the object table concurrently:
//!
//! * **workers** pin a task's objects, resolve them to raw arena bytes,
//!   and run the traffic kernels *outside* any lock;
//! * **the migration thread** begins a two-phase move, performs the long
//!   throttled copy *outside* any lock, and commits the residency flip.
//!
//! Since PR 6 the arbitration is lock-free on the hot path. Every object
//! owns a packed `AtomicU64` state word ([`crate::lockfree::word`]) in a
//! sharded slot table: workers pin and unpin with a single CAS, and the
//! word's `MOVING` bit is the mid-move fence. The slot also caches the
//! object's resolved location (pointer, length, tier), so the pin path
//! never touches a mutex. Blocking is reserved for the two genuinely
//! blocking edges, and parks on the object's *shard* event-count rather
//! than one global condvar:
//!
//! * a worker that needs an object **mid-move** parks until the move
//!   commits (the executor must not run a task while its data is being
//!   copied) — the first such wait stamps the migration's `needed_at`,
//!   which is exactly the paper's exposed-vs-overlapped boundary;
//! * the migration thread that finds its object **pinned** sets the
//!   `PARKED` bit and parks until an unpin drains the count to zero
//!   (never move bytes a task is touching).
//!
//! Deadlock-freedom: both waits happen while holding *no* pins and no
//! tickets. Workers pin all-or-nothing — if the migrator claims `MOVING`
//! mid-acquisition they roll their pins back and re-wait — and the
//! single migrator owns at most one ticket and never waits while holding
//! it (`commit_move`/`abort_move` never block), so every wait is
//! resolved by a thread that itself never blocks on the waiter.
//!
//! The inner `Mutex<Hms>` survives only for the *slow* paths — the
//! allocator bookkeeping of a move's reserve/commit/abort, and the
//! [`SharedHms::with`] escape hatch for setup and reporting. No worker
//! takes it during a run, so a worker panic can no longer convoy the
//! whole pool behind a poisoned table lock; pins themselves are released
//! by [`TaskPins`]' RAII drop even when the holder panics.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::backend::CopyOutcome;
use crate::error::HmsError;
use crate::lockfree::{word, Counters, ShardedTable, Slot};
use crate::memory::Hms;
use crate::migrate::MigrationRecord;
use crate::object::ObjectId;
use crate::tier::TierId;
use crate::Ns;

pub use crate::lockfree::ContentionStats;

/// One object pinned for a task and resolved to raw bytes.
///
/// Created and consumed on the same worker thread; the pointer stays
/// valid until the owning [`TaskPins`] drops because the pin blocks
/// moves and frees, and arenas never remap.
#[derive(Debug)]
pub struct PinnedObject {
    /// The pinned object.
    pub id: ObjectId,
    /// Tier the object resides on for the duration of the pin.
    pub tier: TierId,
    ptr: *mut u8,
    len: u64,
}

impl PinnedObject {
    /// Raw base pointer of the object's live bytes.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Object size in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the object is empty (it never is; allocation rejects 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The set of objects one task pinned, plus how long it had to wait for
/// in-flight migrations before it could start.
///
/// RAII: dropping releases every pin (and wakes a parked migrator), so
/// a worker panic unwinding through a task body cannot leak a pin and
/// wedge the migration engine.
#[derive(Debug)]
#[must_use = "pins release on drop; binding to _ releases them immediately"]
pub struct TaskPins<'h> {
    shared: &'h SharedHms,
    /// One entry per requested object, in request order.
    pub objects: Vec<PinnedObject>,
    /// Wall-clock ns spent blocked on mid-move objects before pinning;
    /// exactly `0.0` when nothing blocked (no clock is read until
    /// something does).
    pub waited_ns: Ns,
}

impl Drop for TaskPins<'_> {
    fn drop(&mut self) {
        for o in &self.objects {
            self.shared.unpin_one(o.id);
        }
    }
}

/// A begun background migration: ticket plus resolved raw pointers.
///
/// Produced by [`SharedHms::begin_move_blocking`] on the migration
/// thread, which copies `size` bytes from `src` to `dst` with no lock
/// held and then resolves via [`SharedHms::commit_move`] or
/// [`SharedHms::abort_move`].
#[derive(Debug)]
#[must_use = "resolve with commit_move or abort_move"]
pub struct StartedMove {
    ticket: crate::memory::MoveTicket,
    /// Source bytes (live until commit/abort).
    pub src: *const u8,
    /// Destination bytes (reserved until commit/abort).
    pub dst: *mut u8,
    /// Wall-clock ns the request was issued.
    pub issued_at: Ns,
    /// Wall-clock ns the move began (destination reserved).
    pub started_at: Ns,
}

impl StartedMove {
    /// Bytes to copy.
    pub fn size(&self) -> u64 {
        self.ticket.size()
    }

    /// The object being moved.
    pub fn object(&self) -> ObjectId {
        self.ticket.object()
    }

    /// Source tier (selects the copy engine's per-pair throttle).
    pub fn from_tier(&self) -> TierId {
        self.ticket.from_tier()
    }

    /// Destination tier.
    pub fn to_tier(&self) -> TierId {
        self.ticket.to_tier()
    }
}

/// Callback invoked when a background migration actually starts:
/// `(object, pin count at start)`. Installed by sanitize mode to catch a
/// migrator copying bytes a task is using (the count is 0 whenever the
/// pin/mid-move discipline holds). Must not call back into the
/// [`SharedHms`] that invokes it.
pub type MoveObserver = Box<dyn Fn(ObjectId, u64) + Send + Sync>;

/// A [`Hms`] shareable across worker threads and one migration thread.
///
/// **Lock poisoning.** Workers never take the inner mutex during a run,
/// but a closure passed to [`SharedHms::with`] can still panic while
/// holding it. Every mutation under the lock is complete before any
/// panic-capable call, so the state is consistent at every unlock
/// point; the wrapper therefore *recovers* the guard instead of
/// cascading the panic, and counts the recovery
/// ([`SharedHms::poisoned`]) the same way the obs emitter degrades
/// since PR 4.
pub struct SharedHms {
    /// Slow-path allocator/bookkeeping state (setup, reporting, and the
    /// reserve/commit/abort edges of a move).
    inner: Mutex<Hms>,
    /// Lock-free per-object state words + location caches.
    table: ShardedTable,
    /// Object-id watermark already mirrored into the slot table (ids
    /// are dense, so this is just the synced prefix length).
    synced: AtomicU32,
    epoch: Instant,
    /// Times a poisoned lock was recovered instead of panicking.
    poisoned: AtomicU64,
    /// Migration-start observer (sanitize mode), if installed.
    move_observer: Mutex<Option<MoveObserver>>,
    counters: Counters,
}

impl std::fmt::Debug for SharedHms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedHms")
            .field("synced", &self.synced)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

/// How long a blocked migration re-checks its cancel flag while parked
/// waiting for pins to drain.
const CANCEL_POLL: Duration = Duration::from_millis(20);

/// Backstop timeout for workers parked on a mid-move object (they are
/// notified on commit/abort; the timeout only covers lost races).
const PARK_POLL: Duration = Duration::from_millis(5);

/// Outcome of a single pin attempt on one object.
enum PinBlock {
    /// The object went mid-move under us; roll back and re-wait.
    Moving,
    /// A real error (missing object, saturated pin field).
    Hard(HmsError),
}

impl SharedHms {
    /// Wrap an [`Hms`] (with its backend already installed and objects
    /// allocated) for shared use.
    pub fn new(hms: Hms) -> Self {
        let sh = SharedHms {
            table: ShardedTable::new(),
            synced: AtomicU32::new(0),
            inner: Mutex::new(hms),
            epoch: Instant::now(),
            poisoned: AtomicU64::new(0),
            move_observer: Mutex::new(None),
            counters: Counters::default(),
        };
        // Mirror any pre-allocated objects into the slot table.
        sh.with(|_| {});
        sh
    }

    /// Acquire the inner lock, recovering (and counting) a poisoned
    /// guard instead of propagating the panic.
    fn lock_inner(&self) -> MutexGuard<'_, Hms> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(e) => {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                e.into_inner()
            }
        }
    }

    /// Times a poisoned lock was recovered (a `with` closure panicked
    /// while holding it). Nonzero means a thread died, not that the
    /// table is inconsistent.
    pub fn poisoned(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Snapshot of the lock-free paths' contention counters.
    pub fn contention(&self) -> ContentionStats {
        self.counters.snapshot()
    }

    /// Install a migration-start observer (sanitize mode). The callback
    /// runs on the migration thread with no lock held.
    pub fn set_move_observer(&self, obs: MoveObserver) {
        *self
            .move_observer
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(obs);
    }

    /// Whether a background migration of `id` is currently in flight
    /// (begun, not yet committed or aborted). Lock-free: one load of
    /// the object's state word.
    pub fn is_mid_move(&self, id: ObjectId) -> bool {
        self.table
            .slot(id)
            .is_some_and(|s| word::is_moving(s.state.load(Ordering::SeqCst)))
    }

    /// Every object currently mid-move, ascending.
    pub fn mid_move_objects(&self) -> Vec<ObjectId> {
        let peak = self.synced.load(Ordering::Acquire);
        (0..peak)
            .map(ObjectId)
            .filter(|id| self.is_mid_move(*id))
            .collect()
    }

    /// Live pins currently held on `id` (0 for unknown objects).
    pub fn pin_count(&self, id: ObjectId) -> u32 {
        self.table
            .slot(id)
            .map_or(0, |s| word::pins(s.state.load(Ordering::SeqCst)))
    }

    /// Wall-clock ns since this wrapper was created — the time axis of
    /// every [`MigrationRecord`] it produces.
    pub fn now_ns(&self) -> Ns {
        self.ns_at(Instant::now())
    }

    /// `at` on the [`SharedHms::now_ns`] clock, for a caller that has
    /// read the clock already.
    pub fn ns_at(&self, at: Instant) -> Ns {
        at.saturating_duration_since(self.epoch).as_nanos() as f64
    }

    /// Run `f` with exclusive access to the underlying [`Hms`] (setup,
    /// final reporting), then re-mirror the object table into the
    /// lock-free slots — `f` may have allocated, freed or moved objects
    /// behind the slot caches. Must not race live pin holders (the
    /// measured runtime only calls this outside task windows).
    pub fn with<R>(&self, f: impl FnOnce(&mut Hms) -> R) -> R {
        let mut hms = self.lock_inner();
        let r = f(&mut hms);
        self.refresh_slots(&mut hms);
        r
    }

    /// Unwrap the inner [`Hms`] (after all threads are joined).
    pub fn into_inner(self) -> Hms {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirror liveness and resolved locations of every object into the
    /// slot table. Caller holds the inner lock.
    fn refresh_slots(&self, hms: &mut Hms) {
        let peak = hms.peak_object_id();
        for raw in 0..peak {
            let id = ObjectId(raw);
            let slot = self.table.ensure_slot(id);
            match hms.object_ptr(id) {
                // The pointer is null on a byte-less (virtual) substrate.
                Ok((ptr, len, tier)) => {
                    slot.ptr.store(ptr, Ordering::SeqCst);
                    slot.len.store(len, Ordering::SeqCst);
                    slot.tier.store(u32::from(tier.0), Ordering::SeqCst);
                    slot.live.store(1, Ordering::SeqCst);
                }
                Err(_) => slot.live.store(0, Ordering::SeqCst),
            }
        }
        self.synced.store(peak, Ordering::Release);
    }

    /// Slot for `id`, syncing the table from the inner [`Hms`] if the
    /// id is newer than the mirrored prefix.
    fn slot_or_sync(&self, id: ObjectId) -> Result<&Slot, HmsError> {
        if id.0 >= self.synced.load(Ordering::Acquire) {
            let mut hms = self.lock_inner();
            self.refresh_slots(&mut hms);
        }
        match self.table.slot(id) {
            Some(s) if s.live.load(Ordering::SeqCst) == 1 => Ok(s),
            _ => Err(HmsError::NoSuchObject(id)),
        }
    }

    /// Park until `id` is not mid-move, stamping the migration's
    /// `needed_at` on first block. Returns the wall-clock ns spent
    /// blocked — exactly `0.0`, with no clock read, when the object was
    /// not moving. No-op for unknown objects (pinning reports those).
    fn wait_not_moving(&self, id: ObjectId) -> Ns {
        let Some(slot) = self.table.slot(id) else {
            return 0.0;
        };
        let mut blocked_at: Option<Ns> = None;
        loop {
            let w = slot.state.load(Ordering::SeqCst);
            if !word::is_moving(w) {
                return blocked_at.map_or(0.0, |t0| self.now_ns() - t0);
            }
            let now = self.now_ns();
            if blocked_at.is_none() {
                blocked_at = Some(now);
                self.counters.move_waits.fetch_add(1, Ordering::Relaxed);
            }
            // Stamp the first wall-clock instant anyone needed the
            // object: the paper's exposed-migration boundary.
            let _ = slot.needed_at.compare_exchange(
                0,
                now.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            if !word::has_waiters(w)
                && slot
                    .state
                    .compare_exchange(w, word::set_waiters(w), Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
            {
                self.counters
                    .pin_cas_retries
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.counters.parks.fetch_add(1, Ordering::Relaxed);
            self.table.shard(id).parker.park_while(PARK_POLL, || {
                word::is_moving(slot.state.load(Ordering::SeqCst))
            });
        }
    }

    /// One CAS pin attempt on `id`.
    fn try_pin(&self, id: ObjectId) -> Result<(), PinBlock> {
        let slot = match self.slot_or_sync(id) {
            Ok(s) => s,
            Err(e) => return Err(PinBlock::Hard(e)),
        };
        loop {
            let w = slot.state.load(Ordering::SeqCst);
            match word::pin(w) {
                Ok(nw) => {
                    if slot
                        .state
                        .compare_exchange(w, nw, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return Ok(());
                    }
                    self.counters
                        .pin_cas_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(word::WordError::Moving) => return Err(PinBlock::Moving),
                // A 16-bit pin field saturating means a task leak, not
                // a placement problem; surface it as the pinned error.
                Err(_) => return Err(PinBlock::Hard(HmsError::Pinned(id))),
            }
        }
    }

    /// Release one pin on `id`, waking a parked migrator when the count
    /// drains to zero.
    fn unpin_one(&self, id: ObjectId) {
        let Some(slot) = self.table.slot(id) else {
            debug_assert!(false, "unpin of unknown {id:?}");
            return;
        };
        loop {
            let w = slot.state.load(Ordering::SeqCst);
            match word::unpin(w) {
                Ok(nw) => {
                    if slot
                        .state
                        .compare_exchange(w, nw, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        if word::pins(nw) == 0
                            && word::is_parked(nw)
                            && self.table.shard(id).parker.notify()
                        {
                            self.counters.unparks.fetch_add(1, Ordering::Relaxed);
                        }
                        return;
                    }
                    self.counters
                        .pin_cas_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    debug_assert!(false, "unbalanced unpin of {id:?}");
                    return;
                }
            }
        }
    }

    /// Pin every object in `ids` for one task and resolve each to raw
    /// bytes, waiting out any in-flight migration of them first. This is
    /// the one data-readiness wait of the wall-clock engine: a task is
    /// data-ready exactly when its pins are granted.
    ///
    /// All-or-nothing without a lock: the task first waits (holding no
    /// pins) until none of its objects is mid-move, then CAS-pins each;
    /// if the migrator claims one mid-acquisition the partial pins are
    /// rolled back and the wait restarts, so a task never holds a pin
    /// while blocked and cannot deadlock against the migration thread
    /// waiting for pins to drain.
    pub fn pin_for_task(&self, ids: &[ObjectId]) -> Result<TaskPins<'_>, HmsError> {
        let mut waited_ns = 0.0;
        'acquire: loop {
            for id in ids {
                waited_ns += self.wait_not_moving(*id);
            }
            for (i, id) in ids.iter().enumerate() {
                match self.try_pin(*id) {
                    Ok(()) => {}
                    Err(PinBlock::Moving) => {
                        for done in &ids[..i] {
                            self.unpin_one(*done);
                        }
                        continue 'acquire;
                    }
                    Err(PinBlock::Hard(e)) => {
                        for done in &ids[..i] {
                            self.unpin_one(*done);
                        }
                        return Err(e);
                    }
                }
            }
            break;
        }
        // Every id is pinned: locations in the slot caches are fenced
        // against moves until the pins drop.
        let mut objects = Vec::with_capacity(ids.len());
        for id in ids {
            let slot = self.table.slot(*id).expect("pinned object has a slot");
            let ptr = slot.ptr.load(Ordering::SeqCst);
            if ptr.is_null() {
                // Byte-less substrate: same contract as the old
                // `object_ptr` resolution failure.
                for done in ids {
                    self.unpin_one(*done);
                }
                return Err(HmsError::NoSuchObject(*id));
            }
            objects.push(PinnedObject {
                id: *id,
                tier: TierId(slot.tier.load(Ordering::SeqCst) as u8),
                ptr,
                len: slot.len.load(Ordering::SeqCst),
            });
        }
        Ok(TaskPins {
            shared: self,
            objects,
            waited_ns,
        })
    }

    /// Begin a background migration of `id` to `to`, parking until its
    /// pin count drains first.
    ///
    /// Returns `Ok(None)` when the move is moot (already resident, no
    /// destination space, byte-less substrate) or when `cancel` was set
    /// while waiting — the engine skips and moves on. Errors are real
    /// table inconsistencies.
    pub fn begin_move_blocking(
        &self,
        id: ObjectId,
        to: TierId,
        cancel: &AtomicBool,
    ) -> Result<Option<StartedMove>, HmsError> {
        let issued_at = self.now_ns();
        let slot = self.slot_or_sync(id)?;
        loop {
            if cancel.load(Ordering::Relaxed) {
                self.clear_parked(slot);
                return Ok(None);
            }
            let w = slot.state.load(Ordering::SeqCst);
            match word::begin_move(w) {
                Ok(nw) => {
                    if slot
                        .state
                        .compare_exchange(w, nw, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                    self.counters
                        .pin_cas_retries
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(word::WordError::Pinned(_)) => {
                    if !word::is_parked(w)
                        && slot
                            .state
                            .compare_exchange(
                                w,
                                word::set_parked(w),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_err()
                    {
                        self.counters
                            .pin_cas_retries
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.counters.parks.fetch_add(1, Ordering::Relaxed);
                    self.table.shard(id).parker.park_while(CANCEL_POLL, || {
                        word::pins(slot.state.load(Ordering::SeqCst)) > 0
                    });
                }
                // A second in-flight move of the same object means two
                // migrators — a wiring bug, not a race to wait out.
                Err(word::WordError::AlreadyMoving) => return Err(HmsError::Moving(id)),
                Err(_) => unreachable!("begin_move only fails Pinned/AlreadyMoving"),
            }
        }
        // `MOVING` is claimed: no pins exist and none can be taken.
        // Reserve the destination under the inner (slow-path) lock.
        let mut hms = self.lock_inner();
        match hms.begin_move_to(id, to) {
            Ok(ticket) => match hms.move_ptrs(&ticket) {
                Some((src, dst)) => {
                    let started_at = self.now_ns();
                    drop(hms);
                    // Report the start with no lock held so the
                    // observer cannot deadlock against us.
                    if let Some(obs) = self
                        .move_observer
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .as_ref()
                    {
                        obs(id, u64::from(word::pins(slot.state.load(Ordering::SeqCst))));
                    }
                    Ok(Some(StartedMove {
                        ticket,
                        src,
                        dst,
                        issued_at,
                        started_at,
                    }))
                }
                None => {
                    hms.abort_move(ticket);
                    drop(hms);
                    self.release_move(id);
                    Ok(None)
                }
            },
            Err(HmsError::AlreadyResident(..)) | Err(HmsError::OutOfMemory { .. }) => {
                drop(hms);
                self.release_move(id);
                Ok(None)
            }
            Err(e) => {
                drop(hms);
                self.release_move(id);
                Err(e)
            }
        }
    }

    /// Commit a background migration whose bytes have been copied:
    /// flip residency, refresh the slot's location cache, wake waiting
    /// workers, and return the wall-clock [`MigrationRecord`] (with
    /// `needed_at` stamped if any worker blocked on it).
    pub fn commit_move(&self, started: StartedMove, outcome: &CopyOutcome) -> MigrationRecord {
        let object = started.ticket.object();
        let (from, to, bytes) = (
            started.ticket.from_tier(),
            started.ticket.to_tier(),
            started.ticket.size(),
        );
        let slot = self.table.slot(object).expect("moved object has a slot");
        let mut hms = self.lock_inner();
        hms.commit_move(started.ticket, outcome);
        if let Ok((ptr, len, tier)) = hms.object_ptr(object) {
            slot.ptr.store(ptr, Ordering::SeqCst);
            slot.len.store(len, Ordering::SeqCst);
            slot.tier.store(u32::from(tier.0), Ordering::SeqCst);
        }
        drop(hms);
        let needed_bits = slot.needed_at.swap(0, Ordering::Relaxed);
        // Stamp before waking the waiters: a woken worker may preempt
        // this thread, and the copy did not take that long.
        let finish = self.now_ns();
        self.release_move(object);
        MigrationRecord {
            object,
            bytes,
            from,
            to,
            issued_at: started.issued_at,
            start: started.started_at,
            finish,
            needed_at: (needed_bits != 0).then(|| f64::from_bits(needed_bits)),
        }
    }

    /// Abandon a begun migration (cancellation mid-copy): the object
    /// stays put, the destination reservation is released, and waiting
    /// workers are woken.
    pub fn abort_move(&self, started: StartedMove) {
        let object = started.ticket.object();
        let mut hms = self.lock_inner();
        hms.abort_move(started.ticket);
        drop(hms);
        if let Some(slot) = self.table.slot(object) {
            slot.needed_at.store(0, Ordering::Relaxed);
        }
        self.release_move(object);
    }

    /// Complete the in-flight move on `id`'s state word (epoch bump)
    /// and wake every worker parked on it.
    fn release_move(&self, id: ObjectId) {
        let slot = self.table.slot(id).expect("released move has a slot");
        loop {
            let w = slot.state.load(Ordering::SeqCst);
            let nw = word::end_move(w).expect("release requires an in-flight move");
            if slot
                .state
                .compare_exchange(w, nw, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                if word::has_waiters(w) && self.table.shard(id).parker.notify() {
                    self.counters.unparks.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            self.counters
                .pin_cas_retries
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop a stale `PARKED` announcement (cancelled before claiming).
    fn clear_parked(&self, slot: &Slot) {
        loop {
            let w = slot.state.load(Ordering::SeqCst);
            if !word::is_parked(w)
                || slot
                    .state
                    .compare_exchange(w, w & !word::PARKED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return;
            }
        }
    }
}

// SAFETY: `PinnedObject`/`StartedMove` carry raw pointers but are created
// and consumed on a single thread; they are deliberately !Send by default
// and we do not override that. `SharedHms` itself is Send + Sync because
// `Hms: Send` (the backend trait requires it), the slot table only holds
// atomics, and all non-atomic interior access goes through the mutexes.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::HmsConfig;
    use crate::presets;
    use crate::tier::TierKind;
    use std::sync::Arc;

    // A minimal byte-backed test substrate (heap, not mmap — tahoe-realmem
    // sits above this crate).
    #[derive(Debug)]
    struct HeapBackend {
        dram: Vec<u8>,
        nvm: Vec<u8>,
        stats: crate::BackendStats,
    }

    impl HeapBackend {
        fn new(dram: usize, nvm: usize) -> Self {
            HeapBackend {
                dram: vec![0; dram],
                nvm: vec![0; nvm],
                stats: crate::BackendStats {
                    is_real: true,
                    ..Default::default()
                },
            }
        }
    }

    impl crate::TierBackend for HeapBackend {
        fn name(&self) -> &'static str {
            "heap-test"
        }

        fn data_ptr(&mut self, tier: TierId, addr: u64, len: u64) -> Option<*mut u8> {
            let buf = match tier {
                TierId(0) => &mut self.dram,
                _ => &mut self.nvm,
            };
            if addr.checked_add(len)? > buf.len() as u64 {
                return None;
            }
            // SAFETY: the range was just bounds-checked against the buffer.
            Some(unsafe { buf.as_mut_ptr().add(addr as usize) })
        }

        fn record_external_copy(&mut self, outcome: &CopyOutcome) {
            self.stats.copies += 1;
            self.stats.copied_bytes += outcome.bytes;
            self.stats.copy_wall_ns += outcome.wall_ns;
        }

        fn stats(&self) -> crate::BackendStats {
            self.stats
        }
    }

    fn shared(dram: u64, nvm: u64) -> SharedHms {
        let config = HmsConfig::new(presets::dram(dram), presets::optane_pmm(nvm), 5.0).unwrap();
        let mut hms = Hms::new(config);
        hms.set_backend(Box::new(HeapBackend::new(dram as usize, nvm as usize)));
        SharedHms::new(hms)
    }

    #[test]
    fn pin_resolves_bytes_and_blocks_migration() {
        let sh = shared(1 << 16, 1 << 18);
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let pins = sh.pin_for_task(&[id]).unwrap();
        assert_eq!(pins.objects.len(), 1);
        assert_eq!(pins.objects[0].tier, TierId(1));
        assert_eq!(pins.objects[0].len(), 4096);
        assert_eq!(pins.waited_ns, 0.0, "nothing blocked: exactly zero");
        assert_eq!(sh.pin_count(id), 1);
        // A pinned object rejects a (cancelled) migration outright.
        let cancel = AtomicBool::new(true);
        assert!(sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .is_none());
        drop(pins);
        assert_eq!(sh.pin_count(id), 0);
    }

    #[test]
    fn background_move_carries_bytes_and_records_overlap() {
        let sh = Arc::new(shared(1 << 16, 1 << 18));
        let id = sh.with(|h| h.alloc_object("x", 8192, TierKind::Nvm, false).unwrap());
        // Fill through a pin so the copy has recognizable contents.
        let pins = sh.pin_for_task(&[id]).unwrap();
        // SAFETY: the pin guarantees 8192 exclusive writable bytes.
        unsafe { pins.objects[0].as_ptr().write_bytes(0xCD, 8192) };
        drop(pins);

        let cancel = AtomicBool::new(false);
        let sm = sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .expect("move must start");
        // Mid-move, pins must wait — emulate a worker on another thread.
        let sh2 = Arc::clone(&sh);
        let waiter = std::thread::spawn(move || {
            let pins = sh2.pin_for_task(&[id]).unwrap();
            let tier = pins.objects[0].tier;
            // SAFETY: the pin guarantees the object's bytes are readable.
            let first = unsafe { *pins.objects[0].as_ptr() };
            let waited = pins.waited_ns;
            drop(pins);
            (tier, first, waited)
        });
        // Give the waiter time to block, then finish the copy.
        std::thread::sleep(Duration::from_millis(20));
        // SAFETY: `begin_move_blocking` resolved both disjoint ranges and
        // fenced the object until commit.
        unsafe { std::ptr::copy_nonoverlapping(sm.src, sm.dst, sm.size() as usize) };
        let rec = sh.commit_move(
            sm,
            &CopyOutcome {
                bytes: 8192,
                wall_ns: 100.0,
                throttle_ns: 0.0,
                chunks: 1,
            },
        );
        let (tier, first, waited) = waiter.join().unwrap();
        assert_eq!(tier, TierId::FASTEST, "waiter must see post-move residency");
        assert_eq!(first, 0xCD, "bytes must have physically moved");
        assert!(waited > 0.0, "waiter must have measured its block");
        assert_eq!(rec.object, id);
        assert!(rec.needed_at.is_some(), "blocked pin must stamp needed_at");
        assert!(rec.finish >= rec.start && rec.start >= rec.issued_at);
        let stats = sh.with(|h| h.backend_stats());
        assert_eq!(stats.copies, 1);
        assert_eq!(stats.copied_bytes, 8192);
        let c = sh.contention();
        assert!(c.move_waits >= 1, "blocked pin must count a move wait");
        assert!(c.parks >= 1, "blocked pin must park, not spin");
    }

    /// The record's `finish` is taken before the waiters are woken, so
    /// no waiter can observe the move ended earlier than it "finished"
    /// (a stamp taken after the wake slips by however long the woken
    /// worker keeps the migrator off the core).
    #[test]
    fn commit_stamps_finish_before_waking_waiters() {
        let sh = Arc::new(shared(1 << 16, 1 << 18));
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let cancel = AtomicBool::new(false);
        let sm = sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .expect("move must start");
        let sh2 = Arc::clone(&sh);
        let waiter = std::thread::spawn(move || {
            let pins = sh2.pin_for_task(&[id]).unwrap();
            (sh2.now_ns(), pins.waited_ns)
        });
        // Commit only once the waiter is known to be blocked on the move.
        while sh.contention().move_waits == 0 {
            std::thread::yield_now();
        }
        let rec = sh.commit_move(sm, &CopyOutcome::default());
        let (seen_ended_at, waited) = waiter.join().unwrap();
        assert!(
            rec.finish <= seen_ended_at,
            "finish {} after the waiter saw the move end at {seen_ended_at}",
            rec.finish
        );
        assert!(waited > 0.0, "the waiter blocked");
        assert!(rec.needed_at.is_some_and(|n| n <= rec.finish));
    }

    #[test]
    fn begin_move_waits_for_pins_and_honors_cancel() {
        let sh = shared(1 << 16, 1 << 18);
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let _pins = sh.pin_for_task(&[id]).unwrap();
        let cancel = AtomicBool::new(true);
        // Pinned + cancelled: returns None instead of waiting forever.
        assert!(sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .is_none());
    }

    #[test]
    fn begin_move_parks_until_pins_drain() {
        let sh = Arc::new(shared(1 << 16, 1 << 18));
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let pins = sh.pin_for_task(&[id]).unwrap();
        let sh2 = Arc::clone(&sh);
        let mover = std::thread::spawn(move || {
            let cancel = AtomicBool::new(false);
            let sm = sh2
                .begin_move_blocking(id, TierId::FASTEST, &cancel)
                .unwrap()
                .expect("move must start once pins drain");
            sh2.abort_move(sm);
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(pins); // unpin-to-zero must wake the parked migrator
        mover.join().unwrap();
        assert_eq!(sh.pin_count(id), 0);
        let c = sh.contention();
        assert!(c.parks >= 1, "pinned begin_move must park");
    }

    #[test]
    fn aborted_move_leaves_object_in_place() {
        let sh = shared(1 << 16, 1 << 18);
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let cancel = AtomicBool::new(false);
        let sm = sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .unwrap();
        sh.abort_move(sm);
        sh.with(|h| {
            assert_eq!(h.tier_of(id).unwrap(), TierId(1));
            assert!(!h.is_moving(id).unwrap());
            assert_eq!(h.used(TierKind::Dram), 0, "reservation released");
        });
        assert!(!sh.is_mid_move(id));
    }

    #[test]
    fn moot_moves_are_skipped() {
        let sh = shared(1 << 12, 1 << 18);
        let cancel = AtomicBool::new(false);
        let there = sh.with(|h| h.alloc_object("d", 1024, TierKind::Dram, false).unwrap());
        assert!(sh
            .begin_move_blocking(there, TierId::FASTEST, &cancel)
            .unwrap()
            .is_none());
        let big = sh.with(|h| {
            h.alloc_object("big", 1 << 14, TierKind::Nvm, false)
                .unwrap()
        });
        // 16 KiB cannot fit the 4 KiB DRAM tier: skipped, not an error.
        assert!(sh
            .begin_move_blocking(big, TierId::FASTEST, &cancel)
            .unwrap()
            .is_none());
        // Both skips fully released the move state.
        assert!(!sh.is_mid_move(there) && !sh.is_mid_move(big));
        let _ = sh.pin_for_task(&[there, big]).unwrap();
    }

    #[test]
    fn mid_move_introspection_tracks_inflight_set() {
        let sh = shared(1 << 16, 1 << 18);
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        assert!(!sh.is_mid_move(id));
        assert!(sh.mid_move_objects().is_empty());
        let cancel = AtomicBool::new(false);
        let sm = sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .unwrap();
        assert!(sh.is_mid_move(id));
        assert_eq!(sh.mid_move_objects(), vec![id]);
        sh.abort_move(sm);
        assert!(!sh.is_mid_move(id), "abort clears the in-flight state");
    }

    #[test]
    fn move_observer_sees_each_start_with_zero_pins() {
        let sh = shared(1 << 16, 1 << 18);
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let starts = Arc::new(AtomicU64::new(0));
        let max_pins = Arc::new(AtomicU64::new(0));
        let (s2, p2) = (Arc::clone(&starts), Arc::clone(&max_pins));
        sh.set_move_observer(Box::new(move |_id, pins| {
            s2.fetch_add(1, Ordering::Relaxed);
            p2.fetch_max(pins, Ordering::Relaxed);
        }));
        let cancel = AtomicBool::new(false);
        let sm = sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .unwrap();
        sh.abort_move(sm);
        assert_eq!(starts.load(Ordering::Relaxed), 1);
        assert_eq!(
            max_pins.load(Ordering::Relaxed),
            0,
            "the correct migrator never starts a move with live pins"
        );
    }

    #[test]
    fn panicking_pin_holder_releases_pins() {
        let sh = Arc::new(shared(1 << 16, 1 << 18));
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        let sh2 = Arc::clone(&sh);
        let _ = std::thread::spawn(move || {
            let _pins = sh2.pin_for_task(&[id]).unwrap();
            panic!("worker died mid-task");
        })
        .join();
        // The RAII guard unwound: no leaked pin can wedge the migrator.
        assert_eq!(sh.pin_count(id), 0);
        let cancel = AtomicBool::new(false);
        let sm = sh
            .begin_move_blocking(id, TierId::FASTEST, &cancel)
            .unwrap()
            .expect("migration proceeds after the panicked worker");
        sh.abort_move(sm);
    }

    #[test]
    fn poisoned_lock_degrades_to_counted_recovery() {
        let sh = Arc::new(shared(1 << 16, 1 << 18));
        let id = sh.with(|h| h.alloc_object("x", 4096, TierKind::Nvm, false).unwrap());
        // A thread panics while holding the inner lock.
        let sh2 = Arc::clone(&sh);
        let _ = std::thread::spawn(move || {
            sh2.with(|_h| panic!("died holding the hms lock"));
        })
        .join();
        // Workers never take the inner lock, so pinning is entirely
        // unaffected by the poisoning.
        let pins = sh.pin_for_task(&[id]).expect("pin after poison");
        assert_eq!(pins.objects.len(), 1);
        drop(pins);
        // The next slow-path lock recovers the (consistent) state and
        // counts the recovery instead of cascading the panic.
        sh.with(|h| h.check_invariants().expect("table consistent"));
        assert!(sh.poisoned() >= 1, "recovery must be counted");
        assert_eq!(sh.pin_count(id), 0);
        // And the consuming path recovers too.
        let sh = Arc::try_unwrap(sh).expect("sole owner");
        let _hms = sh.into_inner();
    }
}
