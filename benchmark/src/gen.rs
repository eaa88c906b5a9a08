//! Seeded input generators and the pinned calibration.
//!
//! `--seed` drives everything here; the runtime only ever sees the
//! generated [`App`]s. The generators are *stratified*: the multiset of
//! sizes, modes and touch counts is the same for every seed and the seed
//! only decides which object gets which, so two seeds give statistically
//! the same problem (the driver measures run-to-run spread across seeds)
//! while the concrete instance — and every checksum — differs.

use tahoe_core::app::{App, AppBuilder};
use tahoe_hms::{presets, ObjectId};
use tahoe_memprof::wallclock::{MeasuredTier, WallClockCalibration};

/// Cache line, bytes (the unit `AppBuilder` counts accesses in).
const LINE: u64 = 64;

/// SplitMix64: the generators' only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7A68_6F65_5F62_6E63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The one calibration every timed run uses: the DRAM and Optane presets
/// with both correction factors at 1, so every injected NVM delay is the
/// same number on every machine, run and commit. `dram_budget` is the
/// fast-tier capacity the knapsack plans against.
pub fn pinned_calibration(dram_budget: u64, nvm_capacity: u64) -> WallClockCalibration {
    let dram = presets::dram(dram_budget);
    WallClockCalibration {
        measured: MeasuredTier {
            stream_bw_gbps: dram.read_bw_gbps,
            chase_lat_ns: dram.read_lat_ns,
            stream_wall_ns: 1.0,
            chase_wall_ns: 1.0,
        },
        dram,
        nvm: presets::optane_pmm(nvm_capacity),
        cf_bw: 1.0,
        cf_lat: 1.0,
    }
}

/// DRAM budget of every workload: a quarter of the footprint, no floor.
pub fn dram_budget(footprint: u64) -> u64 {
    footprint / 4
}

/// A generated batch input.
pub struct Generated {
    pub app: App,
    /// Seed of the traffic contents (`run_policy_parallel`'s `run_seed`).
    pub run_seed: u64,
}

/// How one object of `mixed_skew` is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Update,
    Chase,
}

/// `stream_bw`: 32 triads over 96 equal 1 MiB blocks, 10 windows.
/// Triad `t` reads `b_t`, `c_t` and updates `a_t`. Every fourth triad is
/// hot (runs every window, so a quarter of the blocks is streamed every
/// window); a cold triad runs every fourth window. Blocks are allocated
/// triad by triad, so hot and cold interleave in allocation order and
/// first-touch's DRAM quarter is one quarter hot. The seed picks which
/// residue class is hot (and the traffic contents); the rest is fixed,
/// so every seed poses the same problem to every policy.
pub fn stream_bw(seed: u64) -> Generated {
    const TRIADS: usize = 32;
    const BLOCK: u64 = 1 << 20;
    const WINDOWS: u32 = 10;
    let mut rng = Rng::new(seed);
    let hot_class = rng.below(4) as usize;
    let mut b = AppBuilder::new("stream_bw");
    let blocks: Vec<[ObjectId; 3]> = (0..TRIADS)
        .map(|t| {
            [
                b.object(&format!("a{t}"), BLOCK),
                b.object(&format!("b{t}"), BLOCK),
                b.object(&format!("c{t}"), BLOCK),
            ]
        })
        .collect();
    let class = b.class("triad");
    let lines = BLOCK / LINE;
    for w in 0..WINDOWS {
        if w > 0 {
            b.next_window();
        }
        for (t, [a, bb, c]) in blocks.iter().enumerate() {
            let hot = t % 4 == hot_class;
            // Cold triads are spread over the four window phases by
            // `t / 4`, so every window runs the same number of them.
            if hot || (t / 4) as u32 % 4 == w % 4 {
                b.task(class)
                    .read_streaming(*bb, lines)
                    .read_streaming(*c, lines)
                    .update_streaming(*a, lines)
                    .submit();
            }
        }
    }
    Generated {
        app: b.build(),
        run_seed: rng.next_u64(),
    }
}

/// `mixed_skew`: `MIXED_OBJECTS` objects on a log-uniform size ladder
/// (40 KiB–2.5 MiB, ~95 MiB in all), each read-streamed, update-streamed
/// or pointer-chased, touched in 8, 4, 2 or 1 of 8 windows.
///
/// The ladder is cut into groups of eight neighbouring sizes. Slot `j` of
/// group `g` has a fixed mode and touch count, rotated from group to
/// group so size, mode and frequency are mutually independent; the seed
/// decides which of the group's eight (similar) sizes each slot gets and
/// in which order groups are allocated within a slot class. Every seed
/// therefore has the same joint distribution — and nearly the same
/// totals — in a different instance.
pub fn mixed_skew(seed: u64) -> Generated {
    const WINDOWS: u32 = 8;
    const MODES: [Mode; 8] = [
        Mode::Read,
        Mode::Update,
        Mode::Chase,
        Mode::Read,
        Mode::Update,
        Mode::Read,
        Mode::Update,
        Mode::Chase,
    ];
    const TOUCHES: [u32; 8] = [8, 1, 4, 2, 1, 8, 2, 4];
    let mut rng = Rng::new(seed);
    let groups = MIXED_OBJECTS / 8;
    let ladder = |i: usize| {
        // 40 KiB × 64^(i/(n-1)), rounded to 4 KiB.
        let exp = i as f64 / (MIXED_OBJECTS - 1) as f64;
        let bytes = (40u64 << 10) as f64 * 64f64.powf(exp);
        ((bytes / 4096.0).round() as u64) * 4096
    };
    let mode = |g: usize, j: usize| MODES[(j + 3 * g) % 8];
    let touches = |g: usize, j: usize| TOUCHES[(j + 5 * g) % 8];
    // Every (group, slot) with the size the seed deals it and a random
    // key for the allocation order.
    let mut slots = Vec::with_capacity(MIXED_OBJECTS);
    for g in 0..groups {
        let mut deal: [usize; 8] = std::array::from_fn(|k| k);
        rng.shuffle(&mut deal);
        for (j, k) in deal.into_iter().enumerate() {
            slots.push((g, j, ladder(8 * g + k), rng.next_u64()));
        }
    }
    // Allocation order: slot class by slot class, groups shuffled within
    // a class — so first-touch's DRAM prefix always holds the same mix.
    slots.sort_by_key(|&(_, j, _, key)| (j, key));
    let mut b = AppBuilder::new("mixed_skew");
    let objects: Vec<_> = slots
        .into_iter()
        .map(|(g, j, bytes, _)| (g, j, bytes, b.object(&format!("g{g}s{j}"), bytes)))
        .collect();
    let class = b.class("touch");
    for w in 0..WINDOWS {
        if w > 0 {
            b.next_window();
        }
        for &(g, j, bytes, id) in &objects {
            // Touched k windows of 8: every (8/k)-th window, staggered
            // by group so every window carries the same load.
            let period = WINDOWS / touches(g, j);
            if !(w + g as u32).is_multiple_of(period) {
                continue;
            }
            let lines = bytes / LINE;
            let t = b.task(class);
            match mode(g, j) {
                Mode::Read => t.read_streaming(id, lines),
                Mode::Update => t.update_streaming(id, lines),
                // A dependent chain over an eighth of the lines: the
                // latency-bound class of the paper's model.
                Mode::Chase => t.read_chasing(id, lines / 8),
            }
            .submit();
        }
    }
    Generated {
        app: b.build(),
        run_seed: rng.next_u64(),
    }
}

/// Objects of `mixed_skew` (a multiple of eight).
pub const MIXED_OBJECTS: usize = 160;

/// `plan_heavy`: 8192 objects × 8 KiB and 24 576 short tasks in 6
/// windows. Each window touches half the objects once (4096 tasks);
/// which half, and whether the touch is a read or an update, comes from
/// a seeded permutation with fixed counts.
pub fn plan_heavy(seed: u64) -> Generated {
    const OBJECTS: usize = 8192;
    const SIZE: u64 = 8 << 10;
    const WINDOWS: u32 = 6;
    let mut rng = Rng::new(seed);
    let mut b = AppBuilder::new("plan_heavy");
    let ids: Vec<ObjectId> = (0..OBJECTS)
        .map(|i| b.object(&format!("p{i}"), SIZE))
        .collect();
    // Half the objects are updated, half read; a quarter is hot (every
    // window), the rest cold (every third window, staggered).
    let mut slot: Vec<usize> = (0..OBJECTS).collect();
    rng.shuffle(&mut slot);
    let class = b.class("short");
    let lines = SIZE / LINE;
    for w in 0..WINDOWS {
        if w > 0 {
            b.next_window();
        }
        for (i, &s) in slot.iter().enumerate() {
            let hot = s % 4 == 0;
            if !(hot || s as u32 % 3 == w % 3) {
                continue;
            }
            let t = b.task(class);
            if s % 2 == 0 {
                t.update_streaming(ids[i], lines)
            } else {
                t.read_streaming(ids[i], lines)
            }
            .submit();
        }
    }
    Generated {
        app: b.build(),
        run_seed: rng.next_u64(),
    }
}

/// One `serve_mix` tenant: 16 × 256 KiB objects, four windows. Each
/// quartet of objects (in allocation order) has one hot object, updated
/// in every window, at a position the seed picks; the other three are
/// each read in one window. First-touch's DRAM quarter is thus always
/// one hot object and three cold ones.
pub fn tenant_app(seed: u64, tenant: u32) -> App {
    const QUARTETS: usize = 4;
    const SIZE: u64 = 256 << 10;
    const WINDOWS: u32 = 4;
    let mut rng = Rng::new(seed ^ (0x5E57 + tenant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut b = AppBuilder::new(&format!("tenant{tenant}"));
    let ids: Vec<ObjectId> = (0..4 * QUARTETS)
        .map(|i| b.object(&format!("s{i}"), SIZE))
        .collect();
    let hot: Vec<usize> = (0..QUARTETS).map(|_| rng.below(4) as usize).collect();
    let class = b.class("serve");
    let lines = SIZE / LINE;
    for w in 0..WINDOWS {
        if w > 0 {
            b.next_window();
        }
        for (q, &h) in hot.iter().enumerate() {
            b.task(class)
                .update_streaming(ids[4 * q + h], lines)
                .submit();
            // The quartet's three cold objects take windows q, q+1, q+2
            // (mod 4) in turn, so every window reads three objects.
            for (n, k) in (0..4).filter(|k| *k != h).enumerate() {
                if (q + n) as u32 % WINDOWS == w {
                    b.task(class).read_streaming(ids[4 * q + k], lines).submit();
                }
            }
        }
    }
    b.build()
}

/// Seed of tenant `tenant`'s `n`-th graph.
pub fn graph_seed(seed: u64, tenant: u32, n: u64) -> u64 {
    let mut rng = Rng::new(seed ^ ((tenant as u64) << 48) ^ n);
    rng.next_u64()
}

/// Order-sensitive digest of an app's shape (objects, sizes, tasks,
/// accesses): what "same seed → same app" is checked against.
pub fn app_digest(app: &App) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for o in &app.objects {
        eat(o.size);
    }
    for t in app.graph.tasks() {
        eat(t.window as u64);
        for a in &t.accesses {
            eat(a.object.0 as u64);
            eat(a.profile.loads);
            eat(a.profile.stores);
            eat(a.profile.mlp.to_bits());
        }
    }
    h
}
