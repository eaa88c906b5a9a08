//! Measured-mode acceptance: every supported policy runs end-to-end on
//! `mmap` arena-backed objects, and the traffic it generates is
//! bit-for-bit identical to a reference execution on plain heap buffers
//! (checked via the run checksum, which covers every byte read and
//! written).

use tahoe_core::engine::AccessPrices;
use tahoe_core::measured::{reference_checksum, reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::prelude::*;
use tahoe_memprof::wallclock::WallClockConfig;
use tahoe_realmem::traffic;

/// A small but non-trivial app: four objects, mixed access kinds, four
/// windows, with a DRAM budget that forces real placement decisions.
fn test_app() -> App {
    let mut b = AppBuilder::new("measured-accept");
    let hot = b.object("hot", 96 << 10);
    let warm = b.object("warm", 96 << 10);
    let cold = b.object("cold", 160 << 10);
    let idx = b.object("idx", 64 << 10);
    let c = b.class("step");
    for _ in 0..4 {
        b.task(c)
            .update_streaming(hot, 1536)
            .read_streaming(cold, 512)
            .compute_us(1.0)
            .submit();
        b.task(c)
            .read_streaming(hot, 1536)
            .write_streaming(warm, 1536)
            .submit();
        b.task(c).read_chasing(idx, 256).submit();
        b.next_window();
    }
    b.build()
}

/// `run_policy` is the engine at one worker and seed 0: the report must
/// agree with the explicit call on everything a schedule cannot change.
fn assert_is_engine_at_one_worker(
    rt: &MeasuredRuntime,
    app: &App,
    policy: &PolicyKind,
    cal: &tahoe_memprof::wallclock::WallClockCalibration,
    seq: &tahoe_core::ParallelPolicyReport,
) {
    let par = rt
        .run_policy_parallel(app, policy, cal, 1, 0)
        .expect("parallel run");
    assert_eq!((seq.workers, seq.run_seed), (1, 0), "{}", seq.policy);
    assert_eq!(par.checksum, seq.checksum, "{}", seq.policy);
    assert_eq!(par.migrations, seq.migrations, "{}", seq.policy);
    assert_eq!(
        par.final_tier_objects, seq.final_tier_objects,
        "{}",
        seq.policy
    );
}

fn platform(app: &App) -> Platform {
    // DRAM holds roughly half the footprint.
    Platform::emulated_bw(0.25, app.footprint() / 2, 4 * app.footprint()).expect("valid platform")
}

#[test]
fn all_policies_match_the_reference_bit_for_bit() {
    let app = test_app();
    let rt = MeasuredRuntime::new(platform(&app), WallClockConfig::smoke());
    let cal = rt.calibrate().expect("calibration runs unprivileged");
    assert!(cal.dram.read_bw_gbps > 0.0);
    assert!(cal.nvm.read_bw_gbps < cal.dram.read_bw_gbps);

    let expected = reference_checksum(&app);
    for policy in [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ] {
        let r = rt.run_policy(&app, &policy, &cal).expect("policy runs");
        assert_eq!(
            r.checksum, expected,
            "{}: measured traffic must equal the reference bit for bit",
            r.policy
        );
        assert!(r.wall_ns > 0.0, "{}: wall clock advanced", r.policy);
        assert!(r.bytes_touched > 0, "{}: traffic flowed", r.policy);
        if policy == PolicyKind::DramOnly {
            assert_eq!(
                r.final_tier_objects,
                [app.objects.len(), 0],
                "DRAM-only is the no-budget bound: everything ends on tier 0"
            );
        }
        assert_is_engine_at_one_worker(&rt, &app, &policy, &cal, &r);
    }
}

/// NVM-only runs the same accesses as DRAM-only plus, on each, the
/// injected difference between the fitted devices. Judged on that
/// delay, not on two noisy wall clocks: the fitted NVM must price this
/// app's accesses above DRAM, every NVM-only access must have paced at
/// least its share (the pacing spins to its deadline), and DRAM-only
/// must have injected nothing. Only a broken emulation fails this.
#[test]
fn nvm_emulation_is_slower_than_dram() {
    let app = test_app();
    let rt = MeasuredRuntime::new(platform(&app), WallClockConfig::smoke());
    let cal = rt.calibrate().expect("calibration runs unprivileged");
    let specs = [cal.dram.clone(), cal.nvm.clone()];
    let prices = AccessPrices::new(&app.graph, &specs, Some(&cal));
    let accesses: u64 = app
        .graph
        .tasks()
        .iter()
        .map(|t| t.accesses.len() as u64)
        .sum();
    let delay_ns: f64 = (0..accesses as usize)
        .map(|slot| prices.delay_ns(slot, TierId(1)))
        .sum();
    assert!(delay_ns > 0.0, "the fitted NVM prices no access above DRAM");

    let nvm = rt
        .run_policy(&app, &PolicyKind::NvmOnly, &cal)
        .expect("runs");
    let on_nvm_ns: f64 = nvm.access_timing.iter().map(|t| t.nvm_ns).sum();
    let nvm_samples: u64 = nvm.access_timing.iter().map(|t| t.nvm_samples).sum();
    assert_eq!(nvm_samples, accesses, "every NVM-only access hit NVM");
    // The sums add the same terms in another order: allow round-off.
    assert!(
        on_nvm_ns >= delay_ns * (1.0 - 1e-9),
        "NVM accesses took {on_nvm_ns} ns, less than the {delay_ns} ns injected delay"
    );
    assert!(nvm.wall_ns >= on_nvm_ns);

    let dram = rt
        .run_policy(&app, &PolicyKind::DramOnly, &cal)
        .expect("runs");
    let dram_samples: u64 = dram.access_timing.iter().map(|t| t.dram_samples).sum();
    assert_eq!(
        dram_samples, accesses,
        "every DRAM-only access hit DRAM: no delay"
    );
}

#[test]
fn tahoe_migrates_and_still_matches_reference() {
    let app = test_app();
    let rt = MeasuredRuntime::new(platform(&app), WallClockConfig::smoke());
    let cal = rt.calibrate().expect("calibration runs unprivileged");
    let r = rt
        .run_policy(&app, &PolicyKind::tahoe(), &cal)
        .expect("tahoe runs");
    assert!(
        r.migrations > 0,
        "tahoe must physically migrate its DRAM plan in"
    );
    assert!(r.migrated_bytes > 0);
    assert!(r.final_tier_objects[0] > 0);
    assert_eq!(r.checksum, reference_checksum(&app));
}

#[test]
fn three_tier_platform_runs_every_policy_bit_for_bit() {
    let app = test_app();
    // DRAM holds one hot object, CXL adds room for one more, the rest
    // spills to emulated Optane.
    let p = Platform::optane_cxl(112 << 10, 256 << 10, 4 * app.footprint());
    let rt = MeasuredRuntime::new(p, WallClockConfig::smoke());
    let cal = rt.calibrate().expect("calibration runs unprivileged");
    let expected = reference_checksum(&app);
    for policy in [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ] {
        let r = rt.run_policy(&app, &policy, &cal).expect("policy runs");
        assert_eq!(
            r.checksum, expected,
            "{}: 3-tier measured traffic must equal the reference",
            r.policy
        );
        assert_eq!(r.final_tier_objects.len(), 3, "{}", r.policy);
        assert_eq!(
            r.final_tier_objects.iter().sum::<usize>(),
            app.objects.len(),
            "{}: every object sits on exactly one tier",
            r.policy
        );
        assert_is_engine_at_one_worker(&rt, &app, &policy, &cal, &r);
    }
    let tahoe = rt
        .run_policy(&app, &PolicyKind::tahoe(), &cal)
        .expect("tahoe runs");
    assert!(tahoe.migrations > 0, "tahoe migrates its N-tier plan in");
}

#[test]
fn unsupported_policies_are_rejected() {
    let app = test_app();
    let rt = MeasuredRuntime::new(platform(&app), WallClockConfig::smoke());
    let cal = rt.calibrate().expect("calibration runs unprivileged");
    let err = rt
        .run_policy(&app, &PolicyKind::HwCache, &cal)
        .expect_err("hardware-cache is simulator-only");
    assert!(err.contains("not supported"), "got: {err}");
}

/// The reference checksum, folded here one object and one access at a
/// time with this file's own copies of the seed and fold formulas, so
/// the canonical order is pinned apart from the interleaved fill.
fn folded_by_hand(app: &App, run_seed: u64) -> u64 {
    let golden = 0x9e37_79b9_7f4a_7c15u64;
    let fold = |acc: u64, x: u64| acc.rotate_left(7) ^ x;
    let site_seed = |task: u32, access: usize| {
        let mut z = ((task as u64) << 20)
            ^ access as u64
            ^ 0xA5A5_0000_0000
            ^ run_seed.wrapping_mul(golden);
        z = z.wrapping_add(golden);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut buffers: Vec<Vec<u8>> = app
        .objects
        .iter()
        .map(|o| vec![0; o.size as usize])
        .collect();
    let mut checksum = 0;
    for (i, buf) in buffers.iter_mut().enumerate() {
        let seed = i as u64 ^ run_seed.wrapping_mul(golden);
        checksum = fold(checksum, traffic::init_fill(buf, seed));
    }
    for w in 0..app.windows() {
        for tid in app.graph.window_tasks(w) {
            for (ai, a) in app.graph.task(tid).accesses.iter().enumerate() {
                let buf = &mut buffers[a.object.index()];
                let c = traffic::run_access(
                    buf,
                    a.profile.loads,
                    a.profile.stores,
                    site_seed(tid.0, ai),
                );
                checksum = fold(checksum, c);
            }
        }
    }
    checksum
}

#[test]
fn reference_checksum_folds_objects_then_accesses_in_canonical_order() {
    // Nine objects of uneven, mostly non-word lengths: the interleaved
    // fill's lanes end at different words and each takes a second object.
    let mut b = AppBuilder::new("odd-sizes");
    let objs: Vec<_> = [1003u64, 5, 4099, 8, 24 << 10, 17, 640, 3, 9001]
        .iter()
        .enumerate()
        .map(|(i, &size)| b.object(&format!("o{i}"), size))
        .collect();
    let c = b.class("step");
    for w in 0..3 {
        for (i, &o) in objs.iter().enumerate() {
            let next = objs[(i + w + 1) % objs.len()];
            match (i + w) % 3 {
                0 => b
                    .task(c)
                    .update_streaming(o, 16)
                    .read_streaming(next, 8)
                    .submit(),
                1 => b
                    .task(c)
                    .write_streaming(o, 16)
                    .read_chasing(next, 4)
                    .submit(),
                _ => b
                    .task(c)
                    .read_streaming(o, 16)
                    .write_streaming(next, 8)
                    .submit(),
            };
        }
        b.next_window();
    }
    let odd = b.build();
    for app in [&odd, &test_app()] {
        for run_seed in [0, 7, 1 << 40] {
            assert_eq!(
                reference_checksum_seeded(app, run_seed),
                folded_by_hand(app, run_seed),
                "{} at run seed {run_seed}",
                app.name
            );
        }
    }
}
