//! Batch workloads: set-up, then paired-policy rounds.
//!
//! A round calls `run_policy_parallel` once per policy — DRAM-only,
//! NVM-only, first-touch, Tahoe — rotating the order every round.
//! Absolute metrics are medians over rounds; ratios are medians of
//! *per-round* ratios, so machine drift slower than a round cancels.
//! Each call is timed from outside; nothing here reaches into the
//! runtime.

use std::time::{Duration, Instant};

use tahoe_core::app::App;
use tahoe_core::config::Platform;
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::parallel::ParallelPolicyReport;
use tahoe_core::policy::PolicyKind;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};

use crate::gen::{self, Generated};
use crate::run::{Samples, Tally};
use crate::spans::Tracer;

/// Index of Tahoe in [`policies`]; the order is DRAM-only, NVM-only,
/// first-touch, Tahoe.
pub const TAHOE: usize = 3;

/// Span-name suffix of each policy.
pub const POLICY_TAGS: [&str; 4] = ["dram_only", "nvm_only", "first_touch", "tahoe"];

pub fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ]
}

/// No timed sample is shorter than this; faster calls are batched.
pub const MIN_SAMPLE: Duration = Duration::from_millis(100);

/// Worker threads of every policy run and of the server pool: one core
/// is left for the spin-pacing migration thread.
pub fn worker_budget() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.saturating_sub(1).max(1))
}

/// Everything a timed round needs, built by [`setup_once`].
pub struct Prepared {
    pub app: App,
    pub run_seed: u64,
    pub rt: MeasuredRuntime,
    pub cal: WallClockCalibration,
    pub workers: usize,
    /// `reference_checksum_seeded(app, run_seed)`.
    pub reference: u64,
    /// Back-to-back calls per timed sample of each policy, so none is
    /// under [`MIN_SAMPLE`] (1 for the batch workloads).
    pub reps: [usize; 4],
    /// Sustained triad rate of this machine right now (set-up's
    /// calibration pass); a yardstick, not an input to any timed run.
    pub yardstick_gbps: f64,
}

impl Prepared {
    pub fn dram_budget(&self) -> u64 {
        self.cal.dram.capacity
    }
}

pub fn generate(workload: &str, seed: u64) -> Option<Generated> {
    match workload {
        "stream_bw" => Some(gen::stream_bw(seed)),
        "mixed_skew" => Some(gen::mixed_skew(seed)),
        "plan_heavy" => Some(gen::plan_heavy(seed)),
        _ => None,
    }
}

/// One timed sample of one policy: `reps[k]` calls back to back.
pub struct PolicySample {
    /// Mean execution-phase wall per call, ms (`wall_ns`).
    pub wall_ms: f64,
    /// Mean duration of the whole call, ms (arenas + alloc + model +
    /// solve + audit + run + teardown).
    pub call_ms: f64,
    pub report: ParallelPolicyReport,
}

/// Run policy `k` `p.reps[k]` times. A call that errors or whose checksum
/// differs from the reference counts as failed and voids the sample.
pub fn sample_policy(
    p: &Prepared,
    rt: &MeasuredRuntime,
    k: usize,
    round: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Option<PolicySample> {
    let policy = &policies()[k];
    let name = format!("core.run_policy_parallel.{}", POLICY_TAGS[k]);
    let (mut wall, mut call) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..p.reps[k] {
        let span = tr.begin(&name, round);
        let t0 = Instant::now();
        let r = rt.run_policy_parallel(&p.app, policy, &p.cal, p.workers, p.run_seed);
        call += t0.elapsed().as_secs_f64() * 1e3;
        tr.end(span);
        tally.attempted += 1;
        match r {
            Ok(r) if r.checksum == p.reference => {
                wall += r.wall_ns / 1e6;
                last = Some(r);
            }
            Ok(r) => {
                tally.fail(format!(
                    "{}: checksum {:016x} != reference {:016x}",
                    name, r.checksum, p.reference
                ));
                return None;
            }
            Err(e) => {
                tally.fail(format!("{name}: {e}"));
                return None;
            }
        }
    }
    let n = p.reps[k] as f64;
    Some(PolicySample {
        wall_ms: wall / n,
        call_ms: call / n,
        report: last?,
    })
}

/// One round: every policy once, order rotated by `round`. Pushes the
/// round's samples (end-to-end and the per-layer numbers that fall out
/// of the reports) unless an operation failed.
pub fn round(p: &Prepared, round: u64, tr: &mut Tracer, tally: &mut Tally, s: &mut Samples) {
    let mut got: [Option<PolicySample>; 4] = [None, None, None, None];
    for i in 0..4 {
        let k = (round as usize + i) % 4;
        got[k] = sample_policy(p, &p.rt, k, round, tr, tally);
    }
    let [Some(d), Some(n), Some(f), Some(t)] = got else {
        return;
    };
    s.push("tahoe_run_ms", t.wall_ms);
    s.push("nvm_only_run_ms", n.wall_ms);
    s.push("first_touch_run_ms", f.wall_ms);
    s.push("tahoe_over_dram", t.wall_ms / d.wall_ms);
    s.push("tahoe_over_nvm", t.wall_ms / n.wall_ms);
    s.push("graph_p50_ms", t.call_ms);
    s.push("core.dram_only_run_ms", d.wall_ms);
    s.push("core.tahoe_over_first_touch", t.wall_ms / f.wall_ms);
    s.push(
        "core.gap_recovery",
        (n.wall_ms - t.wall_ms) / (n.wall_ms - d.wall_ms),
    );
    s.push("core.prepare_ms", t.call_ms - t.wall_ms);
    s.push("core.exec_wall_ms", t.wall_ms);
    push_tahoe_layers(&t.report, s);
}

/// Per-layer numbers a Tahoe [`ParallelPolicyReport`] carries.
fn push_tahoe_layers(r: &ParallelPolicyReport, s: &mut Samples) {
    const MIB: f64 = (1u64 << 20) as f64;
    s.push("core.overlap_pct", r.migration.pct_overlap());
    s.push("core.exposed_ms", r.migration.exposed_ns / 1e6);
    s.push("core.gate_wait_ms", r.gate_wait_ns / 1e6);
    let (mut dram_ns, mut nvm_ns, mut dram_n, mut nvm_n) = (0.0, 0.0, 0u64, 0u64);
    for a in &r.access_timing {
        dram_ns += a.dram_ns;
        nvm_ns += a.nvm_ns;
        dram_n += a.dram_samples;
        nvm_n += a.nvm_samples;
    }
    s.push("core.dram_access_ms", dram_ns / 1e6);
    s.push("core.nvm_access_ms", nvm_ns / 1e6);
    s.push(
        "core.dram_hit_share",
        dram_n as f64 / (dram_n + nvm_n).max(1) as f64,
    );
    s.push("realmem.migrations", r.migrations as f64);
    s.push("realmem.migrated_mib", r.migrated_bytes as f64 / MIB);
    s.push("realmem.copy_wall_ms", r.copy_wall_ns / 1e6);
    s.push("realmem.skipped", r.migrations_skipped as f64);
    s.push("taskrt.steals", r.steals as f64);
    s.push("hms.pin_cas_retries", r.contention.pin_cas_retries as f64);
    s.push("hms.parks", r.contention.parks as f64);
    s.push("hms.move_waits", r.contention.move_waits as f64);
}

/// Everything before the first timed round, once: generate the input,
/// build the runtime, calibrate (for the yardstick only), compute the
/// reference checksum, preflight the Tahoe plan, and run one discarded
/// warm-up round.
pub fn setup_once(
    input: Generated,
    tr: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
) -> Result<Prepared, String> {
    let Generated { app, run_seed } = input;
    let (_, workers) = worker_budget();
    let footprint = app.footprint();
    let budget = gen::dram_budget(footprint);
    let nvm_capacity = 2 * footprint;
    let cal = gen::pinned_calibration(budget, nvm_capacity);
    let rt = MeasuredRuntime::new(
        Platform::optane(budget, nvm_capacity),
        WallClockConfig::full(),
    );

    let fitted = tr.scope("memprof.calibrate", 0, |_| rt.calibrate())?;

    let reference = tr.scope("core.reference_checksum", 0, |_| {
        reference_checksum_seeded(&app, run_seed)
    });

    // The preflight a careful caller runs: the same audit the runtime
    // enforces, with the full diagnostic set.
    let audit = tr.scope("core.verify_plan", 0, |_| {
        rt.verify_plan(&app, &PolicyKind::tahoe(), &cal)
    })?;
    s.push("sanitize.violations", audit.violations.len() as f64);

    let mut p = Prepared {
        app,
        run_seed,
        rt,
        cal,
        workers,
        reference,
        reps: [1; 4],
        yardstick_gbps: fitted.measured.stream_bw_gbps,
    };
    // Warm-up round, discarded; it also sizes each policy's batching
    // factor from how long one call took.
    for k in 0..4 {
        if let Some(w) = sample_policy(&p, &p.rt, k, 0, tr, tally) {
            let per_sample = MIN_SAMPLE.as_secs_f64() * 1e3 / w.call_ms;
            p.reps[k] = per_sample.ceil().max(1.0) as usize;
        }
    }
    Ok(p)
}

/// Run rounds until `window` has passed since `start` (the last round
/// may not start if half of it would fall outside).
pub fn rounds_until(
    p: &Prepared,
    start: Instant,
    window: Duration,
    tr: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
) -> u64 {
    let mut n = 0u64;
    let mut last = Duration::ZERO;
    while start.elapsed() + last / 2 < window {
        let t0 = Instant::now();
        round(p, n + 1, tr, tally, s);
        last = t0.elapsed();
        n += 1;
    }
    n
}
