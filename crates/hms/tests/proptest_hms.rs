//! Property tests for the memory substrate: the allocator must keep its
//! invariants under arbitrary alloc/free/move interleavings, and the
//! timing model must respect basic monotonicity laws.

use proptest::prelude::*;

use tahoe_hms::alloc::TierAllocator;
use tahoe_hms::{presets, AccessProfile, Hms, HmsConfig, TierId, TierKind};

/// One step of allocator abuse.
#[derive(Debug, Clone)]
enum Step {
    Alloc(u64),
    FreeNth(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..50_000).prop_map(Step::Alloc),
        (0usize..64).prop_map(Step::FreeNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn allocator_invariants_hold_under_any_interleaving(
        steps in proptest::collection::vec(step_strategy(), 1..120),
        capacity in 10_000u64..1_000_000,
    ) {
        let mut a = TierAllocator::new(capacity);
        let mut live: Vec<u64> = Vec::new();
        for step in steps {
            match step {
                Step::Alloc(size) => {
                    if let Some(addr) = a.alloc(size) {
                        live.push(addr);
                    }
                }
                Step::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        prop_assert!(a.free(addr).is_some());
                    }
                }
            }
            a.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
        }
        // Freeing everything restores a single maximal block.
        for addr in live {
            a.free(addr);
        }
        prop_assert_eq!(a.used(), 0);
        prop_assert_eq!(a.largest_free_block(), capacity);
        prop_assert_eq!(a.free_blocks(), 1);
    }

    #[test]
    fn allocations_never_exceed_capacity(
        sizes in proptest::collection::vec(1u64..100_000, 1..100),
        capacity in 50_000u64..500_000,
    ) {
        let mut a = TierAllocator::new(capacity);
        for s in sizes {
            let _ = a.alloc(s);
            prop_assert!(a.used() <= capacity);
        }
        a.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("invariant violated: {e}"))
        })?;
    }

    #[test]
    fn hms_moves_preserve_accounting(
        sizes in proptest::collection::vec(1u64..10_000, 1..40),
        moves in proptest::collection::vec((0usize..40, proptest::bool::ANY), 0..80),
    ) {
        let total: u64 = sizes.iter().sum();
        let mut hms = Hms::new(
            HmsConfig::new(
                presets::dram(total + 1024),
                presets::optane_pmm(total * 2 + 1024),
                5.0,
            )
            .expect("valid config"),
        );
        let ids: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                hms.alloc_object(&format!("o{i}"), s, TierKind::Nvm, false)
                    .expect("fits")
            })
            .collect();
        for (n, to_dram) in moves {
            let id = ids[n % ids.len()];
            let target = if to_dram { TierKind::Dram } else { TierKind::Nvm };
            let _ = hms.move_object(id, target); // AlreadyResident is fine
            hms.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
        }
        prop_assert_eq!(hms.footprint(), total);
        prop_assert_eq!(
            hms.used(TierKind::Dram) + hms.used(TierKind::Nvm),
            total
        );
    }

    #[test]
    fn tier_of_and_objects_on_agree_on_every_tier_of_an_n_tier_heap(
        n in 3usize..5,
        sizes in proptest::collection::vec(1u64..10_000, 1..24),
        moves in proptest::collection::vec((0usize..24, 0u8..4), 0..60),
    ) {
        let total: u64 = sizes.iter().sum();
        let mut tiers = vec![presets::dram(total / 2 + 1024)];
        tiers.extend((2..n).map(|_| presets::cxl(total / 2 + 1024)));
        tiers.push(presets::optane_pmm(total * 2 + 1024));
        let mut hms = Hms::new(HmsConfig::with_tiers(tiers, 5.0).expect("valid config"));
        let ids: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                // Spread the start over the list; a full tier spills down.
                hms.alloc_object(&format!("o{i}"), s, TierId((i % n) as u8), true)
                    .expect("fits somewhere")
            })
            .collect();
        for (k, to) in moves {
            // AlreadyResident / OutOfMemory leave the object where it was.
            let _ = hms.move_object(ids[k % ids.len()], TierId(to % n as u8));
            hms.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
        }
        let mut seen = 0;
        for t in (0..n as u8).map(TierId) {
            let on = hms.objects_on(t);
            seen += on.len();
            for &id in &ids {
                prop_assert_eq!(hms.tier_of(id) == Ok(t), on.contains(&id), "{:?} on {}", id, t);
            }
            prop_assert_eq!(hms.used(t), on.iter().map(|&id| hms.size_of(id).unwrap()).sum::<u64>());
        }
        prop_assert_eq!(seen, ids.len(), "the per-tier views partition the live set");
    }

    #[test]
    fn mem_time_is_monotone_in_traffic(
        loads in 0u64..1_000_000,
        stores in 0u64..1_000_000,
        extra in 1u64..100_000,
        mlp in 1.0f64..32.0,
    ) {
        let tier = presets::optane_pmm(1 << 30);
        let base = AccessProfile::new(loads, stores, mlp);
        let more_loads = AccessProfile::new(loads + extra, stores, mlp);
        let more_stores = AccessProfile::new(loads, stores + extra, mlp);
        prop_assert!(more_loads.mem_time_ns(&tier) >= base.mem_time_ns(&tier));
        prop_assert!(more_stores.mem_time_ns(&tier) >= base.mem_time_ns(&tier));
    }

    #[test]
    fn mem_time_decreases_with_mlp_and_bandwidth(
        loads in 1u64..1_000_000,
        stores in 0u64..1_000_000,
        mlp in 1.0f64..16.0,
    ) {
        let tier = presets::pcram(1 << 30);
        let low = AccessProfile::new(loads, stores, mlp);
        let high = AccessProfile::new(loads, stores, mlp * 2.0);
        prop_assert!(high.mem_time_ns(&tier) <= low.mem_time_ns(&tier) + 1e-9);
        let faster = tier.scale_bandwidth(2.0).unwrap();
        prop_assert!(low.mem_time_ns(&faster) <= low.mem_time_ns(&tier) + 1e-9);
    }

    #[test]
    fn slower_device_never_faster(
        loads in 0u64..500_000,
        stores in 0u64..500_000,
        mlp in 1.0f64..32.0,
        bw_frac in 0.1f64..1.0,
        lat_mult in 1.0f64..10.0,
    ) {
        let dram = presets::dram(1 << 30);
        let slow = dram
            .scale_bandwidth(bw_frac)
            .unwrap()
            .scale_latency(lat_mult)
            .unwrap();
        let p = AccessProfile::new(loads, stores, mlp);
        prop_assert!(p.mem_time_ns(&slow) >= p.mem_time_ns(&dram) - 1e-9);
    }
}
