//! The background migration engine: the paper's helper thread.
//!
//! Tahoe overlaps data movement with computation by handing migration
//! decisions to a dedicated thread that copies objects between tiers
//! while workers keep executing tasks. [`BackgroundMigrator`] is that
//! thread for measured mode: it drains a queue of migration requests,
//! performs each as a two-phase move on a [`SharedHms`] (reserve →
//! throttled copy outside the lock → commit), and produces wall-clock
//! [`MigrationRecord`]s whose `needed_at` stamps come from workers that
//! actually blocked — the ground truth behind the paper's
//! overlapped-vs-exposed migration cost split.
//!
//! Shutdown is cooperative: [`BackgroundMigrator::finish`] closes the
//! queue and joins (all queued moves complete), while
//! [`BackgroundMigrator::cancel`] raises the cancel flag so the engine
//! aborts mid-copy within one chunk and skips the rest of the queue.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use tahoe_hms::{MigrationRecord, MigrationStats, ObjectId, SharedHms, TierId};
use tahoe_obs::{Emitter, Event, FlightHandle};

use crate::copy::{throttled_copy_observed, CopyConfig};

/// Callback invoked by the engine thread for every *committed*
/// migration, with the final [`MigrationRecord`] (stamps, tiers,
/// `needed_at`). Runs on the engine thread right after commit — keep it
/// cheap (a counter fold, a board update); long work belongs in a
/// drain-time consumer. Skipped and cancelled requests do not fire it.
pub type MigrationObserver = Arc<dyn Fn(&MigrationRecord) + Send + Sync>;

/// One queued migration: move `object` to tier `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// Object to migrate.
    pub object: ObjectId,
    /// Destination tier.
    pub to: TierId,
}

/// What the migration thread did, returned by
/// [`BackgroundMigrator::finish`].
#[derive(Debug, Default, Clone)]
pub struct MigratorReport {
    /// Aggregate overlap accounting over all committed migrations.
    pub stats: MigrationStats,
    /// Every committed migration, in completion order.
    pub records: Vec<MigrationRecord>,
    /// Requests that were moot (already resident, destination full) or
    /// failed to begin.
    pub skipped: u64,
    /// Requests abandoned because the cancel flag was raised (including
    /// copies aborted mid-flight).
    pub cancelled: u64,
}

/// Handle to the background migration thread.
///
/// Created by [`BackgroundMigrator::spawn`]; requests flow in through
/// [`enqueue`](BackgroundMigrator::enqueue) and the final
/// [`MigratorReport`] comes out of [`finish`](BackgroundMigrator::finish).
#[derive(Debug)]
pub struct BackgroundMigrator {
    tx: mpsc::Sender<MigrationRequest>,
    pending: Arc<AtomicUsize>,
    cancel: Arc<AtomicBool>,
    handle: JoinHandle<MigratorReport>,
}

impl BackgroundMigrator {
    /// Start the migration thread over `shared`, throttling each copy
    /// with its (src, dst) pair's entry of `copy_cfgs` (row-major n×n
    /// over `shared`'s tiers, as [`crate::RealBackend::copy_configs`]
    /// returns it).
    ///
    /// Each committed migration is reported as a `migration_issued` span,
    /// a `migration_completed` instant and the copy's `real_copy_done`,
    /// all on the shared store's clock ([`SharedHms::now_ns`]): to the
    /// lock-free `flight` lane when one is given (merged into the shared
    /// stream at drain time; each copy chunk's wall time also lands in
    /// the lane's `mig_chunk_ns` histogram), else to `emitter`. A
    /// per-commit `observer` lets live consumers (the server's telemetry
    /// blame table) see each committed record as it happens instead of
    /// waiting for [`finish`](Self::finish).
    pub fn spawn(
        shared: Arc<SharedHms>,
        copy_cfgs: Vec<CopyConfig>,
        emitter: Emitter,
        flight: Option<FlightHandle>,
        observer: Option<MigrationObserver>,
    ) -> Self {
        let n = shared.with(|h| h.n_tiers());
        assert_eq!(copy_cfgs.len(), n * n, "one copy config per tier pair");
        let copy_cfg = move |from: TierId, to: TierId| copy_cfgs[from.index() * n + to.index()];
        let (tx, rx) = mpsc::channel::<MigrationRequest>();
        let pending = Arc::new(AtomicUsize::new(0));
        let cancel = Arc::new(AtomicBool::new(false));
        let (p, c) = (Arc::clone(&pending), Arc::clone(&cancel));
        let handle = std::thread::Builder::new()
            .name("tahoe-migrator".into())
            .spawn(move || run_engine(shared, rx, n, copy_cfg, emitter, flight, observer, p, c))
            .expect("spawn migration thread");
        BackgroundMigrator {
            tx,
            pending,
            cancel,
            handle,
        }
    }

    /// Queue one migration. Requests are processed in order by the
    /// single engine thread (the paper's copy channel is sequential).
    pub fn enqueue(&self, object: ObjectId, to: TierId) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        // A closed channel only happens after finish(), which consumes
        // self; unwrap communicates the invariant.
        self.tx
            .send(MigrationRequest { object, to })
            .expect("migration engine alive");
    }

    /// Number of requests enqueued but not yet resolved.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Block until every queued request has been resolved (committed,
    /// skipped, or cancelled). Workers keep running while this waits —
    /// it is for synchronization points like end-of-run.
    pub fn drain(&self) {
        while self.pending() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Raise the cancel flag: the engine aborts any in-flight copy at
    /// the next chunk boundary and skips everything still queued.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Close the queue, let the engine resolve everything still queued,
    /// and return its report. (Call [`cancel`](Self::cancel) first for a
    /// fast shutdown.)
    pub fn finish(self) -> MigratorReport {
        drop(self.tx);
        self.handle.join().expect("migration thread panicked")
    }
}

#[allow(clippy::too_many_arguments)]
fn run_engine(
    shared: Arc<SharedHms>,
    rx: mpsc::Receiver<MigrationRequest>,
    n_tiers: usize,
    copy_cfg: impl Fn(TierId, TierId) -> CopyConfig,
    emitter: Emitter,
    flight: Option<FlightHandle>,
    observer: Option<MigrationObserver>,
    pending: Arc<AtomicUsize>,
    cancel: Arc<AtomicBool>,
) -> MigratorReport {
    let mut report = MigratorReport::default();
    for req in rx {
        if cancel.load(Ordering::Relaxed) {
            report.cancelled += 1;
            pending.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        match shared.begin_move_blocking(req.object, req.to, &cancel) {
            Ok(Some(started)) => {
                // The long copy runs with no lock held: workers execute
                // and pin other objects concurrently; only this object
                // is fenced (mid-move) until commit.
                let copy_cfg = copy_cfg(started.from_tier(), started.to_tier());
                // SAFETY: `begin_move_blocking` resolved both ranges
                // inside their arenas and fenced the object, so the
                // source cannot be freed or written and the destination
                // reservation is exclusive until commit/abort.
                let (outcome, completed) = unsafe {
                    throttled_copy_observed(
                        started.src,
                        started.dst,
                        started.size(),
                        &copy_cfg,
                        &cancel,
                        &mut |ns| {
                            if let Some(f) = &flight {
                                f.record("mig_chunk_ns", ns);
                            }
                        },
                    )
                };
                if completed {
                    let rec = shared.commit_move(started, &outcome);
                    let (from, to) = (rec.from.label(n_tiers), rec.to.label(n_tiers));
                    let events = [
                        Event::MigrationIssued {
                            t: rec.issued_at,
                            object: rec.object.0,
                            bytes: rec.bytes,
                            from,
                            to,
                            start: rec.start,
                            finish: rec.finish,
                            queue_depth: pending.load(Ordering::SeqCst) as u32 - 1,
                        },
                        Event::MigrationCompleted {
                            t: rec.finish,
                            object: rec.object.0,
                            bytes: rec.bytes,
                            overlap_ns: rec.overlapped_ns(),
                        },
                        Event::RealCopyDone {
                            t: rec.finish,
                            object: rec.object.0,
                            bytes: outcome.bytes,
                            from,
                            to,
                            wall_ns: outcome.wall_ns,
                            throttle_ns: outcome.throttle_ns,
                            chunks: outcome.chunks,
                        },
                    ];
                    for ev in events {
                        match &flight {
                            Some(f) => {
                                f.emit(ev);
                            }
                            None => emitter.emit(|| ev),
                        }
                    }
                    if let Some(obs) = &observer {
                        obs(&rec);
                    }
                    report.stats.record(&rec);
                    report.records.push(rec);
                } else {
                    shared.abort_move(started);
                    report.cancelled += 1;
                }
            }
            Ok(None) => {
                if cancel.load(Ordering::Relaxed) {
                    report.cancelled += 1;
                } else {
                    report.skipped += 1;
                }
            }
            Err(_) => report.skipped += 1,
        }
        pending.fetch_sub(1, Ordering::SeqCst);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::{presets, Hms, HmsConfig};

    use crate::backend::RealBackend;

    fn shared(dram: u64, nvm: u64) -> Arc<SharedHms> {
        let config = HmsConfig::new(presets::dram(dram), presets::optane_pmm(nvm), 5.0).unwrap();
        let backend = RealBackend::new(&config).unwrap();
        let mut hms = Hms::new(config);
        hms.set_backend(Box::new(backend));
        Arc::new(SharedHms::new(hms))
    }

    #[test]
    fn queued_moves_commit_and_carry_bytes() {
        let sh = shared(1 << 20, 1 << 22);
        let a = sh.with(|h| h.alloc_object("a", 64 << 10, TierId(1), false).unwrap());
        let b = sh.with(|h| h.alloc_object("b", 32 << 10, TierId(1), false).unwrap());
        let pins = sh.pin_for_task(&[a]).unwrap();
        // SAFETY: the pin guarantees 64 KiB of exclusive writable bytes.
        unsafe { pins.objects[0].as_ptr().write_bytes(0x5A, 64 << 10) };
        drop(pins);

        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            vec![CopyConfig::unthrottled(); 4],
            Emitter::disabled(),
            None,
            None,
        );
        eng.enqueue(a, TierId::FASTEST);
        eng.enqueue(b, TierId::FASTEST);
        eng.drain();
        assert_eq!(eng.pending(), 0);
        let report = eng.finish();
        assert_eq!(report.stats.count, 2);
        assert_eq!(report.stats.bytes, (64 << 10) + (32 << 10));
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.cancelled, 0);

        let sh = Arc::try_unwrap(sh).expect("engine joined");
        let mut hms = sh.into_inner();
        assert_eq!(hms.tier_of(a).unwrap(), TierId::FASTEST);
        assert_eq!(hms.tier_of(b).unwrap(), TierId::FASTEST);
        let bytes = hms.object_bytes(a).unwrap().expect("real backend");
        assert!(bytes.iter().all(|&x| x == 0x5A), "bytes moved intact");
        // External copies must land in backend stats like in-band ones.
        assert_eq!(hms.backend_stats().copies, 2);
    }

    /// [`RealBackend`] minus the free hook: a freed range keeps its
    /// physical pages, so a copy into a range that was used before pays
    /// no first-touch faults and its wall time is the throttle's.
    #[derive(Debug)]
    struct KeepPages(RealBackend);

    impl tahoe_hms::TierBackend for KeepPages {
        fn name(&self) -> &'static str {
            "mmap-keep-pages"
        }

        fn data_ptr(&mut self, tier: TierId, addr: u64, len: u64) -> Option<*mut u8> {
            self.0.data_ptr(tier, addr, len)
        }

        fn copy(
            &mut self,
            object: u32,
            from: TierId,
            from_addr: u64,
            to: TierId,
            to_addr: u64,
            len: u64,
        ) -> tahoe_hms::CopyOutcome {
            self.0.copy(object, from, from_addr, to, to_addr, len)
        }
    }

    /// The engine copies each direction at its own cell of the derived
    /// matrix: out of Optane at its read side, into it at its write side.
    #[test]
    fn promotions_run_at_the_read_rate_demotions_at_the_write_rate() {
        const BYTES: u64 = 4 << 20;
        const ROUNDS: usize = 4;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let config =
                HmsConfig::derived(vec![presets::dram(8 << 20), presets::optane_pmm(16 << 20)])
                    .unwrap();
            let (up_bw, down_bw) = (
                config.copy_bw_between(TierId(1), TierId(0)),
                config.copy_bw_between(TierId(0), TierId(1)),
            );
            let backend = RealBackend::new(&config).unwrap();
            let copy_cfgs = backend.copy_configs();
            let mut hms = Hms::new(config);
            hms.set_backend(Box::new(KeepPages(backend)));
            let a = hms.alloc_object("a", BYTES, TierId(1), false).unwrap();
            let sh = Arc::new(SharedHms::new(hms));
            let eng = BackgroundMigrator::spawn(sh, copy_cfgs, Emitter::disabled(), None, None);
            // Round 0 touches both destinations' pages for the first time
            // and is not judged; the allocator hands the same ranges back
            // every round after.
            for _ in 0..ROUNDS {
                eng.enqueue(a, TierId::FASTEST);
                eng.enqueue(a, TierId(1));
            }
            let _ = tx.send((eng.finish(), up_bw, down_bw));
        });
        let (report, up_bw, down_bw) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("eight 4 MiB copies must not hang");
        assert!((up_bw - 3.12).abs() < 1e-9 && (down_bw - 1.04).abs() < 1e-9);
        assert_eq!(report.records.len(), 2 * ROUNDS);
        let (up_floor, down_floor) = (BYTES as f64 / up_bw, BYTES as f64 / down_bw);
        let (mut up, mut down) = (f64::INFINITY, f64::INFINITY);
        for r in &report.records[2..] {
            let took = r.finish - r.start;
            if r.to == TierId::FASTEST {
                assert!(took >= up_floor, "promotion {took} ns < {up_floor} ns");
                up = up.min(took);
            } else {
                assert!(took >= down_floor, "demotion {took} ns < {down_floor} ns");
                down = down.min(took);
            }
        }
        // The best of three: a descheduled engine thread may stretch one.
        assert!(
            up <= 1.5 * up_floor,
            "promotion took {up} ns, modelled {up_floor} ns"
        );
        assert!(down / up >= 2.5, "demotion {down} ns vs promotion {up} ns");
    }

    #[test]
    fn moot_requests_are_skipped_not_fatal() {
        let sh = shared(1 << 16, 1 << 20);
        let d = sh.with(|h| h.alloc_object("d", 4096, TierId(0), false).unwrap());
        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            vec![CopyConfig::unthrottled(); 4],
            Emitter::disabled(),
            None,
            None,
        );
        eng.enqueue(d, TierId::FASTEST); // already there
        let report = eng.finish();
        assert_eq!(report.skipped, 1);
        assert_eq!(report.stats.count, 0);
    }

    #[test]
    fn cancel_abandons_the_queue() {
        let sh = shared(1 << 20, 1 << 22);
        let a = sh.with(|h| h.alloc_object("a", 256 << 10, TierId(1), false).unwrap());
        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            // Slow enough (0.005 GB/s ⇒ ~52 ms for 256 KiB) that cancel
            // lands mid-copy even when a loaded host oversleeps the 1 ms
            // below several times over; 4 KiB chunks (≈ 0.8 ms each)
            // bound the abort latency.
            vec![
                CopyConfig {
                    bandwidth_gbps: 0.005,
                    latency_ns: 0.0,
                    chunk_bytes: 4096,
                };
                4
            ],
            Emitter::disabled(),
            None,
            None,
        );
        eng.enqueue(a, TierId::FASTEST);
        std::thread::sleep(Duration::from_millis(1));
        eng.cancel();
        let report = eng.finish();
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.stats.count, 0);
        sh.with(|h| {
            assert_eq!(h.tier_of(a).unwrap(), TierId(1), "aborted move stays put");
            assert!(!h.is_moving(a).unwrap());
        });
    }

    #[test]
    fn traced_migrator_routes_events_and_chunk_times_to_the_flight_lane() {
        use std::sync::Arc as StdArc;
        let rec = StdArc::new(tahoe_obs::FlightRecorder::new(
            1,
            1 << 10,
            &["mig_chunk_ns"],
        ));
        let sh = shared(1 << 20, 1 << 22);
        let a = sh.with(|h| h.alloc_object("a", 16 << 10, TierId(1), false).unwrap());
        let (emitter, buffer) = Emitter::buffered();
        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            vec![
                CopyConfig {
                    bandwidth_gbps: f64::INFINITY,
                    latency_ns: 0.0,
                    chunk_bytes: 4096,
                };
                4
            ],
            emitter,
            Some(rec.handle(0)),
            None,
        );
        eng.enqueue(a, TierId::FASTEST);
        let report = eng.finish();
        assert_eq!(report.stats.count, 1);
        // Events went to the flight lane, not the emitter.
        assert!(buffer.is_empty());
        let cap = rec.drain();
        let kinds: Vec<&str> = cap.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"migration_issued"));
        assert!(kinds.contains(&"migration_completed"));
        let (_, chunks) = cap
            .hists
            .iter()
            .find(|(k, _)| *k == "mig_chunk_ns")
            .expect("chunk histogram recorded");
        assert_eq!(chunks.count(), 4, "16 KiB / 4 KiB chunks");
    }

    #[test]
    fn observer_sees_each_committed_record_but_not_skips() {
        let sh = shared(1 << 20, 1 << 22);
        let a = sh.with(|h| h.alloc_object("a", 16 << 10, TierId(1), false).unwrap());
        let d = sh.with(|h| h.alloc_object("d", 4096, TierId(0), false).unwrap());
        let seen: Arc<std::sync::Mutex<Vec<(u32, u64)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            vec![CopyConfig::unthrottled(); 4],
            Emitter::disabled(),
            None,
            Some(Arc::new(move |rec: &MigrationRecord| {
                sink.lock().unwrap().push((rec.object.0, rec.bytes));
            })),
        );
        eng.enqueue(a, TierId::FASTEST);
        eng.enqueue(d, TierId::FASTEST); // moot: already resident
        let report = eng.finish();
        assert_eq!(report.stats.count, 1);
        assert_eq!(report.skipped, 1);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.as_slice(), &[(a.0, 16 << 10)]);
    }

    #[test]
    fn committed_moves_emit_migration_events() {
        let (emitter, buffer) = Emitter::buffered();
        let sh = shared(1 << 20, 1 << 22);
        let a = sh.with(|h| h.alloc_object("a", 8 << 10, TierId(1), false).unwrap());
        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            vec![CopyConfig::unthrottled(); 4],
            emitter,
            None,
            None,
        );
        eng.enqueue(a, TierId::FASTEST);
        let report = eng.finish();
        assert_eq!(report.stats.count, 1);
        let events = buffer.drain();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            ["migration_issued", "migration_completed", "real_copy_done"]
        );
        // The copy is reported on the commit's clock.
        assert_eq!(events[2].timestamp(), events[1].timestamp());
    }

    #[test]
    fn a_three_tier_climb_is_recorded_with_exact_tiers() {
        let config = HmsConfig::with_tiers(
            vec![
                presets::dram(1 << 20),
                presets::cxl(1 << 20),
                presets::optane_pmm(1 << 22),
            ],
            5.0,
        )
        .unwrap();
        let backend = RealBackend::new(&config).unwrap();
        let mut hms = Hms::new(config);
        hms.set_backend(Box::new(backend));
        let a = hms.alloc_object("a", 8 << 10, TierId(2), false).unwrap();
        let sh = Arc::new(SharedHms::new(hms));
        let (emitter, buffer) = Emitter::buffered();
        let eng = BackgroundMigrator::spawn(
            Arc::clone(&sh),
            vec![CopyConfig::unthrottled(); 9],
            emitter,
            None,
            None,
        );
        eng.enqueue(a, TierId(1)); // spill → middle
        eng.enqueue(a, TierId::FASTEST); // middle → fastest
        let report = eng.finish();
        let hops: Vec<_> = report.records.iter().map(|r| (r.from, r.to)).collect();
        assert_eq!(
            hops,
            vec![(TierId(2), TierId(1)), (TierId(1), TierId(0))],
            "records carry the exact tiers"
        );
        assert_eq!((report.stats.promotions, report.stats.evictions), (2, 0));
        let events = buffer.drain();
        let issued: Vec<String> = events
            .iter()
            .filter(|e| e.kind() == "migration_issued")
            .map(tahoe_obs::export::event_to_json)
            .collect();
        assert!(
            issued[0].contains("\"from\":\"nvm\",\"to\":\"tier1\""),
            "{}",
            issued[0]
        );
        assert!(
            issued[1].contains("\"from\":\"tier1\",\"to\":\"dram\""),
            "{}",
            issued[1]
        );
        // The middle-tier destination is its own blame cell, apart from
        // the same object's later move to tier 0.
        let blame = tahoe_obs::BlameTable::from_events(&events);
        let mut cells: Vec<_> = blame.entries().map(|e| (e.object, e.tier)).collect();
        cells.sort();
        assert_eq!(
            cells,
            vec![(a.0, tahoe_obs::Tier::Dram), (a.0, tahoe_obs::Tier::Mid(1))]
        );
    }
}
