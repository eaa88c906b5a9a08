//! Determinism guarantee of the flight recorder's drain: for a fixed
//! seeded event set, the merged stream and the histogram summaries are
//! byte-identical regardless of how many worker lanes the events were
//! spread across (1, 2 or 4) and regardless of the order in which the
//! producing threads happen to finish. This is the property the JSONL
//! byte-determinism story for parallel runs rests on.

use std::sync::{Arc, Barrier};

use tahoe_obs::{Event, FlightRecorder, HistSummary};

const KEYS: &[&str] = &["task_ns", "gate_wait_ns"];

/// Seeded event set with strictly increasing, distinct timestamps so the
/// merged order is a pure function of the set, not the lane partition.
fn seeded_events(seed: u64, n: u32) -> Vec<(f64, Event, f64)> {
    let mut state = seed | 1;
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            // xorshift64*: deterministic, no external RNG needed.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            t += 1.0 + (r % 1000) as f64; // strictly increasing
            let wall = 10.0 + (r % 100_000) as f64;
            let ev = Event::WorkerTask {
                t,
                tenant: 0,
                worker: 0, // rewritten per lane below
                task: i,
                window: 0,
                wall_ns: wall,
                gate_wait_ns: 0.0,
            };
            (t, ev, wall)
        })
        .collect()
}

/// Fill a recorder with the seeded set partitioned round-robin over
/// `lanes` producer threads, each started behind a barrier and given a
/// per-thread busy delay so completion order varies, then drain.
fn run(seed: u64, lanes: usize, delay_rounds: &[u32]) -> (Vec<Event>, Vec<(String, HistSummary)>) {
    let events = seeded_events(seed, 512);
    let rec = Arc::new(FlightRecorder::new(lanes, 1 << 12, KEYS));
    let barrier = Arc::new(Barrier::new(lanes));
    std::thread::scope(|s| {
        for lane in 0..lanes {
            let rec = Arc::clone(&rec);
            let barrier = Arc::clone(&barrier);
            let mine: Vec<(f64, Event, f64)> = events
                .iter()
                .enumerate()
                .filter(|(i, _)| i % lanes == lane)
                .map(|(_, e)| e.clone())
                .collect();
            let spin = delay_rounds[lane % delay_rounds.len()];
            s.spawn(move || {
                barrier.wait();
                // Vary completion order across configurations.
                let mut acc = 0u64;
                for i in 0..spin {
                    acc = acc.wrapping_add(i as u64).rotate_left(7);
                }
                std::hint::black_box(acc);
                let h = rec.handle(lane);
                for (_, ev, wall) in mine {
                    h.record("task_ns", wall);
                    assert!(h.emit(ev), "ring must not overflow in this test");
                }
            });
        }
    });
    let cap = rec.drain();
    assert_eq!(cap.total_dropped, 0);
    let hists = cap
        .hists
        .iter()
        .map(|(k, d)| (k.to_string(), d.summary()))
        .collect();
    (cap.events, hists)
}

#[test]
fn merged_stream_identical_across_lane_counts_and_finish_orders() {
    let seed = 0x5EED_CAFE;
    // Reference: single lane, no contention.
    let (ref_events, ref_hists) = run(seed, 1, &[0]);
    assert_eq!(ref_events.len(), 512);
    // Timestamps must come out sorted.
    for w in ref_events.windows(2) {
        assert!(w[0].timestamp() <= w[1].timestamp());
    }
    for lanes in [2usize, 4] {
        // Two delay profiles per lane count: fast-first and slow-first
        // thread completion.
        for delays in [
            &[0u32, 200_000, 50_000, 400_000][..],
            &[400_000, 0, 200_000, 50_000][..],
        ] {
            let (events, hists) = run(seed, lanes, delays);
            assert_eq!(
                events, ref_events,
                "merged stream must not depend on lane count ({lanes}) or finish order"
            );
            assert_eq!(
                hists, ref_hists,
                "histogram summaries must not depend on lane count ({lanes}) or finish order"
            );
        }
    }
}

#[test]
fn repeated_drains_of_identical_fills_are_identical() {
    let a = run(0xABCD_EF01, 4, &[0, 100_000, 0, 100_000]);
    let b = run(0xABCD_EF01, 4, &[100_000, 0, 100_000, 0]);
    assert_eq!(a, b);
}

/// Like [`run`] but with a deliberately tiny ring, so every lane
/// overflows. Returns the capture so callers can inspect the drop
/// accounting alongside the surviving stream.
fn run_overflowing(seed: u64, lanes: usize, capacity: usize) -> tahoe_obs::FlightCapture {
    let events = seeded_events(seed, 512);
    let rec = Arc::new(FlightRecorder::new(lanes, capacity, KEYS));
    let barrier = Arc::new(Barrier::new(lanes));
    std::thread::scope(|s| {
        for lane in 0..lanes {
            let rec = Arc::clone(&rec);
            let barrier = Arc::clone(&barrier);
            let mine: Vec<(f64, Event, f64)> = events
                .iter()
                .enumerate()
                .filter(|(i, _)| i % lanes == lane)
                .map(|(_, e)| e.clone())
                .collect();
            s.spawn(move || {
                barrier.wait();
                let h = rec.handle(lane);
                for (_, ev, wall) in mine {
                    // Histograms are bounded state, not ring slots: they
                    // must keep recording even when the ring is full.
                    h.record("task_ns", wall);
                    h.emit(ev);
                }
            });
        }
    });
    rec.drain()
}

#[test]
fn overflow_counts_drops_and_keeps_the_surviving_prefix_deterministic() {
    let seed = 0x0F10_57A7;
    let cap_a = run_overflowing(seed, 4, 16);
    let cap_b = run_overflowing(seed, 4, 16);

    // 512 events round-robin over 4 lanes = 128 per lane; 16 survive in
    // each ring, the 112 rejected arrivals are counted, none lost
    // silently.
    assert_eq!(cap_a.lane_dropped, vec![112, 112, 112, 112]);
    assert_eq!(cap_a.total_dropped, 448);
    assert_eq!(cap_a.events.len(), 512 - 448);

    // Drops reject *new* arrivals, so each lane keeps its earliest
    // events; the merged survivor stream is still (t, lane, seq)-sorted
    // and identical run-to-run.
    for w in cap_a.events.windows(2) {
        assert!(w[0].timestamp() <= w[1].timestamp());
    }
    assert_eq!(cap_a.events, cap_b.events);
    assert_eq!(cap_a.lane_dropped, cap_b.lane_dropped);

    // The survivors are exactly the seeded set's first 16 per lane.
    let all = seeded_events(seed, 512);
    let mut expect: Vec<Event> = Vec::new();
    for lane in 0..4usize {
        expect.extend(
            all.iter()
                .enumerate()
                .filter(|(i, _)| i % 4 == lane)
                .take(16)
                .map(|(_, (_, e, _))| e.clone()),
        );
    }
    expect.sort_by(|a, b| a.timestamp().total_cmp(&b.timestamp()));
    // Seeded timestamps are distinct, so timestamp order is total here.
    assert_eq!(cap_a.events, expect);

    // Histogram recording is independent of ring occupancy: all 512
    // samples landed even though 448 events were dropped.
    let task = cap_a
        .hists
        .iter()
        .find(|(k, _)| *k == "task_ns")
        .expect("registered key");
    assert_eq!(task.1.count(), 512);
}

#[test]
fn histogram_merge_handles_empty_and_saturated_lanes() {
    // Lane 0 records nothing; lane 1 records into a saturated ring
    // (capacity 1); lane 2 records normally with room to spare. The
    // merged per-key histograms must equal a single-lane reference fill
    // of the same samples.
    let rec = FlightRecorder::new(3, 1, KEYS);
    let samples: Vec<f64> = (0..200).map(|i| 1.0 + (i * 37 % 9973) as f64).collect();
    let h1 = rec.handle(1);
    let h2 = rec.handle(2);
    for (i, &s) in samples.iter().enumerate() {
        let h = if i % 2 == 0 { &h1 } else { &h2 };
        h.record("task_ns", s);
        h.emit(Event::ProfilingClosed {
            t: i as f64,
            window: i as u32,
        });
    }
    // Unregistered keys stay ignored even on saturated lanes.
    h1.record("no_such_key", 1.0);
    let cap = rec.drain();
    assert!(cap.total_dropped > 0, "capacity 1 must saturate");

    let reference = {
        let r = FlightRecorder::new(1, 1, KEYS);
        let h = r.handle(0);
        for &s in &samples {
            h.record("task_ns", s);
        }
        r.drain()
    };
    let merged = cap.hists.iter().find(|(k, _)| *k == "task_ns").unwrap();
    let want = reference
        .hists
        .iter()
        .find(|(k, _)| *k == "task_ns")
        .unwrap();
    assert_eq!(merged.1, want.1, "merge(empty, a, b) == fill(a ++ b)");
    assert_eq!(merged.1.count(), 200);
    // "gate_wait_ns" was registered but never recorded: empty per-key
    // histograms are omitted from the capture entirely.
    assert!(cap.hists.iter().all(|(k, _)| *k != "gate_wait_ns"));
}
