//! Property tests for the lock-free packed per-object state word and a
//! multi-thread hammer over the shared pin/move machinery.
//!
//! The word's transition legality (no pin while moving, no double
//! begin/commit, no completion with live pins) is what makes the CAS
//! loops in `SharedHms` safe; these properties pin it down over the
//! whole packed domain, not just the handful of states unit tests reach.

use proptest::prelude::*;

use tahoe_hms::lockfree::word;

/// Any u16, endpoints included (the vendored ranges are half-open).
fn bits16() -> impl Strategy<Value = u16> {
    (0u32..65_536).prop_map(|v| v as u16)
}

/// Any u32, endpoints included.
fn bits32() -> impl Strategy<Value = u32> {
    (0u64..(1u64 << 32)).prop_map(|v| v as u32)
}

/// An arbitrary-but-valid packed word: pins and a move never coexist
/// (the machine can't reach that state), flags and epoch free.
fn word_strategy() -> impl Strategy<Value = u64> {
    (
        bits16(),
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        bits32(),
    )
        .prop_map(|(pins, moving, parked, waiters, epoch)| {
            let pins = if moving { 0 } else { pins };
            word::pack(pins, moving, parked, waiters, epoch)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pack_unpack_round_trips(
        pins in bits16(),
        moving in proptest::bool::ANY,
        parked in proptest::bool::ANY,
        waiters in proptest::bool::ANY,
        epoch in bits32(),
    ) {
        let w = word::pack(pins, moving, parked, waiters, epoch);
        prop_assert_eq!(word::unpack(w), (pins, moving, parked, waiters, epoch));
        prop_assert_eq!(word::pins(w), u32::from(pins));
        prop_assert_eq!(word::epoch(w), epoch);
        prop_assert_eq!(word::is_moving(w), moving);
    }

    #[test]
    fn transitions_respect_the_state_machine(w in word_strategy()) {
        // Pin: legal iff not moving and not saturated; adds exactly one.
        match word::pin(w) {
            Ok(nw) => {
                prop_assert!(!word::is_moving(w));
                prop_assert_eq!(word::pins(nw), word::pins(w) + 1);
                prop_assert_eq!(word::epoch(nw), word::epoch(w));
            }
            Err(word::WordError::Moving) => prop_assert!(word::is_moving(w)),
            Err(word::WordError::PinOverflow) => {
                prop_assert_eq!(word::pins(w), u32::from(u16::MAX))
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected pin error {e:?}"))),
        }
        // Unpin: legal iff pins are live; removes exactly one.
        match word::unpin(w) {
            Ok(nw) => prop_assert_eq!(word::pins(nw), word::pins(w) - 1),
            Err(e) => {
                prop_assert_eq!(e, word::WordError::NotPinned);
                prop_assert_eq!(word::pins(w), 0);
            }
        }
        // Begin: rejects live pins (pin-while-moving's dual) and double
        // begins; on success the word is moving with the parked
        // announcement consumed and the epoch unchanged.
        match word::begin_move(w) {
            Ok(nw) => {
                prop_assert_eq!(word::pins(w), 0);
                prop_assert!(!word::is_moving(w));
                prop_assert!(word::is_moving(nw) && !word::is_parked(nw));
                prop_assert_eq!(word::epoch(nw), word::epoch(w));
            }
            Err(word::WordError::AlreadyMoving) => prop_assert!(word::is_moving(w)),
            Err(word::WordError::Pinned(p)) => prop_assert_eq!(p, word::pins(w)),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected begin error {e:?}"))),
        }
        // End (commit/abort): legal only mid-move; clears every move
        // flag and bumps the epoch by exactly one.
        match word::end_move(w) {
            Ok(nw) => {
                prop_assert!(word::is_moving(w));
                prop_assert!(!word::is_moving(nw) && !word::is_parked(nw) && !word::has_waiters(nw));
                prop_assert_eq!(word::epoch(nw), word::epoch(w).wrapping_add(1));
                prop_assert_eq!(word::pins(nw), 0);
            }
            Err(e) => {
                prop_assert_eq!(e, word::WordError::NotMoving);
                prop_assert!(!word::is_moving(w));
            }
        }
    }

    #[test]
    fn double_commit_is_rejected(w in word_strategy()) {
        // Whatever state we start from, a completed move cannot complete
        // again without an interleaved begin.
        if let Ok(done) = word::end_move(w) {
            prop_assert_eq!(word::end_move(done), Err(word::WordError::NotMoving));
        }
    }

    #[test]
    fn full_move_cycle_is_an_epoch_increment(w in word_strategy()) {
        if word::is_moving(w) || word::pins(w) > 0 {
            return Ok(());
        }
        let moved = word::begin_move(w).unwrap();
        prop_assert_eq!(word::pin(moved), Err(word::WordError::Moving));
        let done = word::end_move(word::set_waiters(moved)).unwrap();
        prop_assert_eq!(word::epoch(done), word::epoch(w).wrapping_add(1));
        // And the object is pinnable again.
        prop_assert!(word::pin(done).is_ok());
    }
}

mod hammer {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use tahoe_hms::{presets, Hms, HmsConfig, SharedHms, TierId, TierKind};

    #[derive(Debug)]
    struct HeapBackend {
        dram: Vec<u8>,
        nvm: Vec<u8>,
    }

    impl tahoe_hms::TierBackend for HeapBackend {
        fn name(&self) -> &'static str {
            "heap-hammer"
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

        fn stats(&self) -> tahoe_hms::BackendStats {
            tahoe_hms::BackendStats {
                is_real: true,
                ..Default::default()
            }
        }
    }

    /// Many threads pin/unpin overlapping object sets while a migrator
    /// thread bounces one object between tiers: afterwards every pin
    /// count must be zero and the table consistent.
    #[test]
    fn concurrent_pins_drain_to_zero() {
        let dram = 1 << 20;
        let nvm = 1 << 21;
        let config = HmsConfig::new(presets::dram(dram), presets::optane_pmm(nvm), 5.0).unwrap();
        let mut hms = Hms::new(config);
        hms.set_backend(Box::new(HeapBackend {
            dram: vec![0; dram as usize],
            nvm: vec![0; nvm as usize],
        }));
        let mut ids = Vec::new();
        let sh = {
            for i in 0..16 {
                ids.push(
                    hms.alloc_object(&format!("o{i}"), 4096, TierKind::Nvm, false)
                        .unwrap(),
                );
            }
            Arc::new(SharedHms::new(hms))
        };

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        // 6 pinner threads over overlapping triples.
        for t in 0..6usize {
            let sh = Arc::clone(&sh);
            let ids = ids.clone();
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    let set = [ids[k % 16], ids[(k + 5) % 16], ids[(k + 11) % 16]];
                    let pins = sh.pin_for_task(&set).expect("pin");
                    std::hint::black_box(&pins.objects);
                    drop(pins);
                    k = k.wrapping_add(1);
                }
            }));
        }
        // One migrator bouncing object 0 between tiers.
        {
            let sh = Arc::clone(&sh);
            let id = ids[0];
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let cancel = AtomicBool::new(false);
                let mut to = TierId::FASTEST;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(Some(sm)) = sh.begin_move_blocking(id, to, &cancel) {
                        // SAFETY: the ticket fences both disjoint ranges.
                        unsafe {
                            std::ptr::copy_nonoverlapping(sm.src, sm.dst, sm.size() as usize)
                        };
                        let _ = sh.commit_move(
                            sm,
                            &tahoe_hms::CopyOutcome {
                                bytes: 4096,
                                wall_ns: 1.0,
                                throttle_ns: 0.0,
                                chunks: 1,
                            },
                        );
                    }
                    // Two tiers: bounce between 0 and 1.
                    to = TierId(1 - to.0);
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().expect("hammer thread");
        }
        for id in &ids {
            assert_eq!(sh.pin_count(*id), 0, "pins must drain to zero");
        }
        assert!(sh.mid_move_objects().is_empty(), "no move left in flight");
        let sh = Arc::try_unwrap(sh).expect("sole owner");
        let hms = sh.into_inner();
        hms.check_invariants()
            .expect("table consistent after hammer");
    }
}
