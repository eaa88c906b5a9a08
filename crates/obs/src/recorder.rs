//! The flight recorder: lock-free per-lane event rings + latency
//! histograms, drained into one deterministic merged stream.
//!
//! The buffered [`Emitter`](crate::emit::Emitter) is a single
//! mutex-protected vector — fine for setup-time and low-volume
//! producers, contended by every worker and the background migrator of
//! a batch run. The [`FlightRecorder`] removes that lock from the
//! hot path: each producer thread owns a *lane* holding a fixed-capacity
//! SPSC ring buffer (allocation-free push, explicit drop counter when
//! full) and a set of pre-registered log2 [`Histogram`]s. After the
//! producers quiesce, [`FlightRecorder::drain`] merges every lane into a
//! single event stream ordered by `(timestamp, lane, ring sequence)` —
//! a total order independent of which lane drained first, so two runs
//! that recorded the same events render byte-identical JSONL whatever
//! the drain schedule was.
//!
//! # Producer contract
//!
//! Lanes are single-producer: at most one thread pushes to a given lane
//! at a time. The parallel runtime maps worker *i* to lane *i* (the
//! executor pins worker indices to OS threads for a run), the background
//! migrator to its own lane (via a [`FlightHandle`] moved into the
//! thread), and the driver to a final lane. [`FlightRecorder::drain`] is
//! single-consumer and must run after the producers stopped (workers
//! joined, migrator finished).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::event::Event;
use crate::hist::{HistData, Histogram};

/// One producer lane: an SPSC ring of events plus per-key histograms.
struct Lane {
    slots: Box<[UnsafeCell<MaybeUninit<Event>>]>,
    /// Next write position (producer-owned; consumer reads with Acquire).
    head: AtomicUsize,
    /// Next read position (consumer-owned; producer reads with Acquire).
    tail: AtomicUsize,
    /// Events rejected because the ring was full.
    dropped: AtomicU64,
    /// One histogram per registered key, same order as the key slice.
    hists: Box<[Histogram]>,
}

// SAFETY: the ring is safe to share across threads under the module's
// SPSC contract — one producer thread per lane, one consumer, each slot
// written (head Release) strictly before it is read (head Acquire) and
// read strictly before it is overwritten (tail Release/Acquire). `Event`
// holds no heap data, so slots abandoned in the ring at drop are
// trivially forgotten.
#[allow(unsafe_code)]
unsafe impl Send for Lane {}
#[allow(unsafe_code)]
unsafe impl Sync for Lane {}

impl Lane {
    fn new(capacity: usize, n_hists: usize) -> Lane {
        let cap = capacity.max(1);
        Lane {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            hists: (0..n_hists).map(|_| Histogram::new()).collect(),
        }
    }

    /// Producer side. Returns false (and counts a drop) when full.
    fn push(&self, ev: Event) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: single producer per lane (module contract); the slot at
        // `head` is not readable until the Release store below, and the
        // capacity check above proves the consumer is done with it.
        #[allow(unsafe_code)]
        unsafe {
            (*self.slots[head % self.slots.len()].get()).write(ev);
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side.
    fn pop(&self) -> Option<Event> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        // SAFETY: single consumer (module contract); the Acquire load of
        // `head` above synchronizes with the producer's Release store, so
        // the slot at `tail` is fully written.
        #[allow(unsafe_code)]
        let ev = unsafe { (*self.slots[tail % self.slots.len()].get()).assume_init_read() };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Some(ev)
    }
}

/// Central registry of per-producer lanes. See the module docs for the
/// producer contract.
pub struct FlightRecorder {
    lanes: Vec<Arc<Lane>>,
    keys: &'static [&'static str],
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("lanes", &self.lanes.len())
            .field("keys", &self.keys)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `lanes` producer lanes, each holding an event
    /// ring of `capacity` slots and one histogram per key in
    /// `hist_keys`.
    pub fn new(lanes: usize, capacity: usize, hist_keys: &'static [&'static str]) -> Self {
        Self::with_capacities(&vec![capacity; lanes.max(1)], hist_keys)
    }

    /// A recorder with one lane per entry of `capacities`, lane `i`'s
    /// event ring holding `capacities[i]` slots, and one histogram per
    /// key in `hist_keys` on each.
    pub fn with_capacities(capacities: &[usize], hist_keys: &'static [&'static str]) -> Self {
        FlightRecorder {
            lanes: capacities
                .iter()
                .map(|&capacity| Arc::new(Lane::new(capacity, hist_keys.len())))
                .collect(),
            keys: hist_keys,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Push one event onto `lane`'s ring. Returns false (and counts the
    /// drop) when the ring is full. Caller must be `lane`'s sole
    /// producer.
    #[inline]
    pub fn emit(&self, lane: usize, ev: Event) -> bool {
        self.lanes[lane].push(ev)
    }

    /// Record `ns` into `lane`'s histogram for `key`. Unregistered keys
    /// are ignored (the key set is fixed at construction).
    #[inline]
    pub fn record(&self, lane: usize, key: &'static str, ns: f64) {
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.lanes[lane].hists[i].record(ns);
        }
    }

    /// A detachable producer handle for `lane` (for threads that outlive
    /// borrows of the recorder, e.g. the background migrator). The
    /// single-producer contract transfers to the handle holder.
    pub fn handle(&self, lane: usize) -> FlightHandle {
        FlightHandle {
            lane: Arc::clone(&self.lanes[lane]),
            keys: self.keys,
        }
    }

    /// Total events dropped across all lanes so far.
    pub fn dropped(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Drain every lane and merge into one deterministic stream.
    ///
    /// Must run single-threaded after all producers quiesced. Events are
    /// ordered by `(timestamp, lane, ring sequence)` — NaN-free total
    /// order via `f64::total_cmp` — so the merged stream is a pure
    /// function of what was recorded, not of drain scheduling.
    /// Histograms are merged bucket-wise per key; empty keys are
    /// omitted.
    pub fn drain(&self) -> FlightCapture {
        let mut entries: Vec<(f64, usize, usize, Event)> = Vec::new();
        let mut lane_dropped = Vec::with_capacity(self.lanes.len());
        for (li, lane) in self.lanes.iter().enumerate() {
            let mut seq = 0usize;
            while let Some(ev) = lane.pop() {
                entries.push((ev.timestamp(), li, seq, ev));
                seq += 1;
            }
            lane_dropped.push(lane.dropped.load(Ordering::Relaxed));
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let events = entries.into_iter().map(|(_, _, _, ev)| ev).collect();

        let mut hists: Vec<(&'static str, HistData)> = Vec::new();
        for (ki, &key) in self.keys.iter().enumerate() {
            let mut merged = HistData::default();
            for lane in &self.lanes {
                merged.merge(&lane.hists[ki].data());
            }
            if !merged.is_empty() {
                hists.push((key, merged));
            }
        }

        let total_dropped = lane_dropped.iter().sum();
        FlightCapture {
            events,
            hists,
            lane_dropped,
            total_dropped,
        }
    }
}

/// Producer handle bound to one lane, usable from a thread the recorder
/// itself cannot be borrowed into.
pub struct FlightHandle {
    lane: Arc<Lane>,
    keys: &'static [&'static str],
}

impl std::fmt::Debug for FlightHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightHandle").finish()
    }
}

impl FlightHandle {
    /// Push one event onto the lane's ring (see [`FlightRecorder::emit`]).
    #[inline]
    pub fn emit(&self, ev: Event) -> bool {
        self.lane.push(ev)
    }

    /// Record into the lane's histogram for `key` (see
    /// [`FlightRecorder::record`]).
    #[inline]
    pub fn record(&self, key: &'static str, ns: f64) {
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            self.lane.hists[i].record(ns);
        }
    }
}

/// Everything a [`FlightRecorder::drain`] produced.
#[derive(Debug)]
pub struct FlightCapture {
    /// All lanes' events, merged in `(timestamp, lane, sequence)` order.
    pub events: Vec<Event>,
    /// Merged histogram data per registered key (empty keys omitted).
    pub hists: Vec<(&'static str, HistData)>,
    /// Events dropped per lane (ring full).
    pub lane_dropped: Vec<u64>,
    /// Sum of `lane_dropped`.
    pub total_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(t: f64, window: u32) -> Event {
        Event::ProfilingClosed { t, window }
    }

    #[test]
    fn push_pop_roundtrip_in_order() {
        let rec = FlightRecorder::new(1, 8, &[]);
        for i in 0..5 {
            assert!(rec.emit(0, ws(i as f64, i)));
        }
        let cap = rec.drain();
        assert_eq!(cap.events.len(), 5);
        for (i, e) in cap.events.iter().enumerate() {
            assert_eq!(*e, ws(i as f64, i as u32));
        }
        assert_eq!(cap.total_dropped, 0);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let rec = FlightRecorder::new(1, 4, &[]);
        for i in 0..10 {
            rec.emit(0, ws(i as f64, i));
        }
        assert_eq!(rec.dropped(), 6);
        let cap = rec.drain();
        // The first 4 events survive (drops are new arrivals, not
        // overwrites: the surviving prefix stays intact).
        assert_eq!(cap.events.len(), 4);
        assert_eq!(cap.events[0], ws(0.0, 0));
        assert_eq!(cap.lane_dropped, vec![6]);
        assert_eq!(cap.total_dropped, 6);
    }

    #[test]
    fn each_lane_holds_its_own_capacity() {
        let rec = FlightRecorder::with_capacities(&[2, 5], &[]);
        for i in 0..5 {
            rec.emit(0, ws(i as f64, i));
            rec.emit(1, ws(i as f64, i));
        }
        let cap = rec.drain();
        assert_eq!(cap.lane_dropped, vec![3, 0]);
        assert_eq!(cap.events.len(), 7);
    }

    #[test]
    fn ring_wraps_after_partial_drain() {
        let rec = FlightRecorder::new(1, 4, &[]);
        for round in 0..5u32 {
            for i in 0..4u32 {
                assert!(rec.emit(0, ws((round * 4 + i) as f64, i)));
            }
            let cap = rec.drain();
            assert_eq!(cap.events.len(), 4);
        }
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn merge_orders_by_timestamp_then_lane() {
        let rec = FlightRecorder::new(3, 8, &[]);
        rec.emit(2, ws(1.0, 20));
        rec.emit(0, ws(3.0, 0));
        rec.emit(1, ws(1.0, 10));
        rec.emit(1, ws(2.0, 11));
        let cap = rec.drain();
        let windows: Vec<u32> = cap
            .events
            .iter()
            .map(|e| match e {
                Event::ProfilingClosed { window, .. } => *window,
                _ => unreachable!(),
            })
            .collect();
        // t=1.0: lane 1 before lane 2; then t=2.0, t=3.0.
        assert_eq!(windows, vec![10, 20, 11, 0]);
    }

    #[test]
    fn histograms_register_and_merge_across_lanes() {
        let rec = FlightRecorder::new(2, 8, &["task_ns", "gate_wait_ns"]);
        rec.record(0, "task_ns", 100.0);
        rec.record(1, "task_ns", 200.0);
        rec.record(0, "unregistered", 5.0); // silently ignored
        let cap = rec.drain();
        assert_eq!(cap.hists.len(), 1, "empty keys are omitted");
        let (key, data) = &cap.hists[0];
        assert_eq!(*key, "task_ns");
        assert_eq!(data.count(), 2);
        assert_eq!(data.max, 200);
    }

    #[test]
    fn concurrent_producers_one_lane_each() {
        let rec = FlightRecorder::new(4, 1024, &["task_ns"]);
        std::thread::scope(|s| {
            for lane in 0..4usize {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..500u32 {
                        rec.emit(lane, ws((lane * 1000 + i as usize) as f64, i));
                        rec.record(lane, "task_ns", i as f64);
                    }
                });
            }
        });
        let cap = rec.drain();
        assert_eq!(cap.events.len(), 2000);
        assert_eq!(cap.total_dropped, 0);
        assert_eq!(cap.hists[0].1.count(), 2000);
        // Timestamps are globally sorted.
        let ts: Vec<f64> = cap.events.iter().map(|e| e.timestamp()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn handle_feeds_the_same_lane() {
        let rec = FlightRecorder::new(2, 8, &["mig_chunk_ns"]);
        let h = rec.handle(1);
        let joined = std::thread::spawn(move || {
            h.emit(ws(9.0, 1));
            h.record("mig_chunk_ns", 50.0);
        });
        joined.join().unwrap();
        let cap = rec.drain();
        assert_eq!(cap.events, vec![ws(9.0, 1)]);
        assert_eq!(cap.hists[0].1.count(), 1);
    }
}
