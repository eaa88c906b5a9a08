//! Measured-mode execution: the policy drivers on real memory.
//!
//! [`MeasuredRuntime`] swaps the virtual-time simulator for a physical
//! substrate:
//!
//! 1. **Calibrate** — map a scratch `mmap` arena, run the executable
//!    STREAM/pointer-chase kernels on it, and fit a `TierSpec` plus
//!    `CF_bw`/`CF_lat` from the wall-clock numbers
//!    ([`tahoe_memprof::wallclock`]). The NVM spec is the fitted DRAM
//!    spec scaled by the reference platform's DRAM→NVM ratios.
//! 2. **Prepare** — allocate every app object in [`RealBackend`]-backed
//!    arenas on its policy-chosen tier ([`MeasuredRuntime::allocate`]);
//!    then, while another thread fills the arenas, solve Tahoe's
//!    placement ([`Planner`]) and refuse to run unless the static
//!    auditor certifies the resulting
//!    [`MigrationPlan`]: the global plan (one knapsack over whole-run
//!    values, every step at `window: 0`) or, where the model says it
//!    pays and the machine can hide the copies, a per-window rotation
//!    ([`tahoe_placement::rotation`], lowered by [`rotation_plan`]).
//!    The wall-clock engine ([`crate::parallel`] over the
//!    [`crate::engine`] task kernel) then executes exactly that plan —
//!    its `window: 0` steps released once every task class has run its
//!    quota of instances, each later window's steps at that window's
//!    barrier: each declared access walks the object's live bytes at
//!    native speed, and residence on a slow tier injects the
//!    cf-corrected model *difference* to the fast device (Quartz-style
//!    delay injection), read from the [`AccessPrices`] that priced the plan.
//! 3. **Compare** — every access folds into a run checksum that is a
//!    pure function of the deterministic traffic, so a reference
//!    execution on plain heap buffers ([`reference_checksum`]) must
//!    match bit for bit, whatever the policy or substrate.
//!
//! Only the four headline policies run in measured mode (DRAM-only,
//! NVM-only, first-touch, Tahoe); the cache/oracle baselines are
//! simulator-only by construction.

use tahoe_hms::{Hms, HmsConfig, ObjectId, TierId, TierSpec};
use tahoe_memprof::wallclock::{
    derive_scaled_spec, fit_calibration, measure_tier, WallClockCalibration, WallClockConfig,
};
use tahoe_obs::{Emitter, Event, Metrics};
use tahoe_placement::{
    plan_rotation, solve_mck, CopyRate, MckAssignment, MckItem, PlanValues, RotationInput, Schedule,
};
use tahoe_realmem::{traffic, CopyConfig, MmapArena, RealBackend};
use tahoe_sanitize::{audit_plan_priced, MigrationPlan, PlanContext, PlanStep, SanitizeReport};

use crate::app::App;
use crate::config::Platform;
use crate::engine::AccessPrices;
use crate::parallel::ParallelPolicyReport;
use crate::policy::{PolicyKind, TahoeOptions};

/// Deterministic per-site seed (splitmix64 of a site key), parameterized
/// by a run seed so the stress suite can vary the traffic contents.
/// `run_seed == 0` reproduces the historical unseeded site key exactly,
/// so existing artifacts stay comparable.
pub(crate) fn site_seed(run_seed: u64, task: u32, access: usize) -> u64 {
    let mut z = ((task as u64) << 20)
        ^ access as u64
        ^ 0xA5A5_0000_0000
        ^ run_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical checksum fold. Not commutative — equality with the
/// reference requires folding in the canonical order (object inits,
/// then windows → window tasks → accesses).
pub(crate) fn fold(acc: u64, x: u64) -> u64 {
    acc.rotate_left(7) ^ x
}

/// The half of a measured run's set-up that must precede its first
/// byte: the derived HMS configuration, the backend-loaded [`Hms`] with
/// every object allocated per the policy's initial placement, the
/// app-order → HMS object id map, the copy-engine throttles (for the
/// background migration thread) and the prices every plan and every
/// injected delay read.
pub struct Allocated {
    /// The tier list the run's heap was built from, fastest first.
    pub config: HmsConfig,
    /// The heap, a [`RealBackend`] installed and every object allocated.
    pub hms: Hms,
    /// HMS id of app object `i`.
    pub ids: Vec<ObjectId>,
    /// Row-major per-(src, dst) copy throttles of the backend.
    pub copy_cfgs: Vec<CopyConfig>,
    /// Where the allocator placed every object, by tier index: where
    /// the plan starts.
    pub initial_tiers: Vec<u8>,
    /// The plan's prices, cf-corrected: also the delay the engine injects.
    pub prices: AccessPrices,
}

/// The other half: what the run executes, decided from the allocation
/// without touching it, so that it can be worked out while the arenas
/// fill (a run) or after them ([`MeasuredRuntime::verify_plan`]) by
/// the one [`Planner`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Where the allocator placed every object plus the moves to issue
    /// once the plan is released (no steps for the static policies).
    /// This is the value the auditor certifies *and* the value the
    /// engine's window loop reads its moves from.
    pub plan: MigrationPlan,
    /// Tahoe's per-object knapsack value of DRAM residence (predicted
    /// ns saved over the whole run); `None` for non-Tahoe policies.
    /// This is the prediction the model-accuracy audit scores.
    pub plan_values: Option<Vec<f64>>,
    /// Modelled value of the global plan, the plan chosen and the
    /// free-migration bound; `None` unless Tahoe plans over two tiers.
    pub plan_worth: Option<PlanValues>,
}

/// Everything a run's plan is a function of. Pure: it reads no clock,
/// no heap and no machine property (`spare_core` is observed by its
/// caller), so the plan it makes does not depend on where or when it
/// runs.
pub struct Planner<'a> {
    /// The app planned for.
    pub app: &'a App,
    /// Its policy: Tahoe plans, every other policy stays put.
    pub policy: &'a PolicyKind,
    /// The allocation's tier list.
    pub config: &'a HmsConfig,
    /// The allocation's prices.
    pub prices: &'a AccessPrices,
    /// How many threads share a window's work.
    pub workers: usize,
    /// Whether the migration thread has a core of its own, so that
    /// copies issued after window 0 can hide behind it.
    pub spare_core: bool,
}

impl Planner<'_> {
    /// The plan from `initial_tiers`. Tahoe's global plan: the value of
    /// residence on each tier per object over the whole run, from the
    /// ground-truth profiles on the fitted specs; the multiple-choice
    /// knapsack assigns every object one tier (at two tiers it *is* the
    /// 0/1 knapsack, bit for bit), and every object not already there
    /// moves once the engine's class quota releases the plan. At two
    /// tiers the per-window local search is held against it and the
    /// better plan, by the model, runs; at more the global plan stands.
    /// Every other policy stays where it was allocated.
    pub fn plan(&self, initial_tiers: Vec<u8>) -> Result<RunPlan, String> {
        let (app, config) = (self.app, self.config);
        if !matches!(self.policy, PolicyKind::Tahoe(_)) {
            return Ok(RunPlan {
                plan: MigrationPlan {
                    initial_tiers,
                    steps: Vec::new(),
                },
                plan_values: None,
                plan_worth: None,
            });
        }
        let specs = config.tier_specs();
        let mut values = self.prices.values(app);
        let plan_values = values.per_tier.iter().map(|v| v[0]).collect();
        let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
        let items = mck_items(app, std::mem::take(&mut values.per_tier));
        let assignment = solve_mck(&items, &caps)?;
        let rotation = (specs.len() == 2).then(|| {
            let (fast, slow) = (TierId::FASTEST, config.last_tier());
            let rate = |from: TierId, to: TierId| CopyRate {
                gbps: config.copy_bw_between(from, to),
                latency_ns: specs[from.index()].copy_lat_to(&specs[to.index()]),
            };
            let sizes: Vec<u64> = app.objects.iter().map(|o| o.size).collect();
            let global: Vec<bool> = assignment.tiers.iter().map(|&t| t == 0).collect();
            plan_rotation(&RotationInput {
                sizes: &sizes,
                touches: &values.touches,
                spill_window_ns: &values.spill_window_ns,
                capacity: caps[0],
                global: &global,
                promote: rate(slow, fast),
                evict: rate(fast, slow),
                workers: self.workers,
                overlap: self.spare_core,
            })
        });
        let plan = match rotation.as_ref().and_then(|r| r.schedule.as_ref()) {
            Some(schedule) => rotation_plan(initial_tiers, schedule),
            None => promotion_plan(&items, initial_tiers, &assignment.tiers),
        };
        Ok(RunPlan {
            plan,
            plan_values: Some(plan_values),
            plan_worth: rotation.map(|r| r.values),
        })
    }

    /// [`Planner::plan`], refused unless the static auditor certifies
    /// it sound. Every wall-clock run's plan passes through here before
    /// its first task, so no unsound plan can reach the executor.
    pub fn audited(&self, initial_tiers: Vec<u8>) -> Result<RunPlan, String> {
        let planned = self.plan(initial_tiers)?;
        let report = audit(self.app, self.config, self.prices, &planned.plan);
        refuse_unsound(self.policy, &report)?;
        Ok(planned)
    }
}

/// The static plan auditor's report on `plan`, its cost check at the
/// prices the plan was solved with.
fn audit(
    app: &App,
    config: &HmsConfig,
    prices: &AccessPrices,
    plan: &MigrationPlan,
) -> SanitizeReport {
    let ctx = PlanContext::new(app.objects.iter().map(|o| o.size).collect());
    audit_plan_priced(
        &app.graph,
        plan,
        config.tier_specs(),
        &ctx,
        prices.slot_major(),
    )
}

/// `Err` naming `policy` and the violations unless `report` is clean.
fn refuse_unsound(policy: &PolicyKind, report: &SanitizeReport) -> Result<(), String> {
    if report.is_clean() {
        return Ok(());
    }
    let kinds: Vec<String> = report
        .by_kind()
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(tag, n)| format!("{tag}={n}"))
        .collect();
    Err(format!(
        "refusing to run {}: plan audit found {} violation(s) [{}]; first: {}",
        policy.name(),
        report.violations.len(),
        kinds.join(", "),
        report.violations[0].detail
    ))
}

/// Whether the migration thread of a run at `workers` workers has a
/// core of its own, so that its copies overlap the tasks instead of
/// taking their place.
pub(crate) fn migrator_has_a_core(workers: usize) -> bool {
    workers.max(1) < std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seed for object `i`'s initialization fill. `run_seed == 0` reproduces
/// the historical per-object seed (`i` itself).
pub(crate) fn init_seed(run_seed: u64, object: usize) -> u64 {
    object as u64 ^ run_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Measured-mode runtime: a reference platform (capacities + device
/// ratios) plus kernel sizing.
#[derive(Debug, Clone)]
pub struct MeasuredRuntime {
    pub(crate) platform: Platform,
    pub(crate) kernel_cfg: WallClockConfig,
    pub(crate) emitter: Emitter,
    pub(crate) metrics: Metrics,
}

impl MeasuredRuntime {
    /// Build a measured runtime over `platform`. The platform's tier
    /// *capacities* and its DRAM→NVM performance *ratios* are used; its
    /// absolute numbers are replaced by the calibration fit.
    pub fn new(platform: Platform, kernel_cfg: WallClockConfig) -> Self {
        MeasuredRuntime {
            platform,
            kernel_cfg,
            emitter: Emitter::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attach an event emitter and metrics registry.
    pub fn with_observability(mut self, emitter: Emitter, metrics: Metrics) -> Self {
        self.emitter = emitter;
        self.metrics = metrics;
        self
    }

    /// Run the wall-clock calibration pass on a scratch `mmap` arena.
    pub fn calibrate(&self) -> Result<WallClockCalibration, String> {
        let bytes = self.kernel_cfg.required_bytes();
        let arena = MmapArena::new(TierId::FASTEST, "calibration scratch", bytes)?;
        let ptr = arena
            .data_ptr(0, bytes)
            .ok_or_else(|| "scratch arena too small".to_string())?;
        // SAFETY: the arena maps at least `bytes` writable bytes and
        // lives until after the measurement returns.
        #[allow(unsafe_code)]
        let buf = unsafe { std::slice::from_raw_parts_mut(ptr, bytes as usize) };
        let measured = measure_tier(buf, &self.kernel_cfg)?;
        let cal = fit_calibration(
            &measured,
            &self.kernel_cfg,
            self.platform.fastest(),
            self.platform.spill(),
            self.platform.fastest().capacity,
            self.platform.spill().capacity,
        )
        .map_err(|e| e.to_string())?;
        // The calibration fits the two ends of the tier list.
        let n = self.platform.n_tiers();
        for (tier, spec) in [
            (TierId::FASTEST, &cal.dram),
            (self.platform.last_tier(), &cal.nvm),
        ] {
            let (bw_r, bw_w, lat) = (spec.read_bw_gbps, spec.write_bw_gbps, spec.read_lat_ns);
            self.emitter.emit(|| Event::TierFitted {
                t: 0.0,
                tier: tier.label(n),
                read_bw_gbps: bw_r,
                write_bw_gbps: bw_w,
                read_lat_ns: lat,
            });
        }
        self.metrics.gauge_set("measured.cf_bw", cal.cf_bw);
        self.metrics.gauge_set("measured.cf_lat", cal.cf_lat);
        Ok(cal)
    }

    /// The set-up of a measured policy run up to its first byte:
    /// validate, derive the HMS configuration, install a
    /// [`RealBackend`], allocate every object on its policy-chosen tier
    /// and price every access. What the run executes is then decided by
    /// a [`Planner`] over the result.
    pub fn allocate(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<Allocated, String> {
        let preferred = match policy {
            // First-touch fills DRAM in allocation order and spills.
            PolicyKind::DramOnly | PolicyKind::FirstTouch => TierId::FASTEST,
            // Tahoe starts NVM-resident and migrates once every task class
            // has been profiled. Its ablation switches belong to the
            // virtual-time driver; the wall-clock engine runs the full
            // policy only.
            PolicyKind::NvmOnly => self.platform.last_tier(),
            PolicyKind::Tahoe(o) if *o == TahoeOptions::default() => self.platform.last_tier(),
            other => {
                return Err(format!(
                    "policy {} is not supported in measured mode",
                    other.name()
                ))
            }
        };
        app.validate()?;
        let footprint = app.footprint();

        // Capacity handling mirrors the virtual driver: DRAM-only is the
        // no-budget upper bound; everything else must at least fit in
        // NVM.
        let mut dram_spec = cal.dram.clone();
        let mut nvm_spec = cal.nvm.clone();
        if matches!(policy, PolicyKind::DramOnly) {
            dram_spec.capacity = dram_spec.capacity.max(footprint);
        }
        nvm_spec.capacity = nvm_spec.capacity.max(2 * footprint);
        // Middle tiers get the same treatment as NVM: the fitted DRAM
        // spec scaled by the reference preset's ratios, at the platform's
        // middle-tier capacity.
        let reference = self.platform.tier_specs();
        let mut specs = Vec::with_capacity(reference.len());
        specs.push(dram_spec);
        for mid in &reference[1..reference.len() - 1] {
            specs.push(derive_scaled_spec(
                &cal.dram,
                &reference[0],
                mid,
                mid.capacity,
            ));
        }
        specs.push(nvm_spec);
        // Every ordered pair copies at the one direction-aware rule: a
        // promotion reads NVM and writes DRAM, a demotion the reverse.
        let config = HmsConfig::derived(specs).map_err(|e| e.to_string())?;

        let backend =
            RealBackend::with_observability(&config, self.emitter.clone(), self.metrics.clone())?;
        let copy_cfgs = backend.copy_configs();
        let mut hms = Hms::new(config.clone());
        hms.set_backend(Box::new(backend));

        let fallback = !matches!(policy, PolicyKind::DramOnly);
        let mut ids: Vec<ObjectId> = Vec::with_capacity(app.objects.len());
        let mut initial_tiers: Vec<u8> = Vec::with_capacity(app.objects.len());
        for spec in &app.objects {
            let id = hms
                .alloc_object(&spec.name, spec.size, preferred, fallback)
                .map_err(|e| format!("alloc {}: {e}", spec.name))?;
            // Where the allocator actually placed it.
            initial_tiers.push(hms.tier_of(id).map_err(|e| e.to_string())?.0);
            ids.push(id);
        }

        // The delay the engine injects, and the price of every plan.
        let prices = AccessPrices::new(&app.graph, config.tier_specs(), Some(cal));
        Ok(Allocated {
            config,
            hms,
            ids,
            copy_cfgs,
            initial_tiers,
            prices,
        })
    }

    /// Pre-flight a policy's migration plan without executing anything:
    /// allocate exactly as a real run would (same allocator decisions),
    /// plan with the same [`Planner`] and return the static auditor's
    /// report. Every run enforces the same audit internally, erroring
    /// on an unsound plan; this entry point exposes the full diagnostic
    /// set.
    ///
    /// The plan depends on the worker count (a window shared by more
    /// workers hides less copy time) and on whether this machine has a
    /// core left for the migration thread; what is preflighted here is
    /// the *one-worker* plan. A run at another worker count may carry a
    /// different plan — and audits that plan itself before its first
    /// task, whatever was preflighted.
    pub fn verify_plan(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<SanitizeReport, String> {
        let Allocated {
            config,
            initial_tiers,
            prices,
            ..
        } = self.allocate(app, policy, cal)?;
        let planner = Planner {
            app,
            policy,
            config: &config,
            prices: &prices,
            workers: 1,
            spare_core: migrator_has_a_core(1),
        };
        let planned = planner.plan(initial_tiers)?;
        Ok(audit(app, &config, &prices, &planned.plan))
    }

    /// Execute `app` under `policy` on arena-backed objects with the
    /// given calibration: the wall-clock engine at one worker, folding
    /// the historical seed-0 traffic. Unsupported policies (cache/oracle
    /// baselines) return an error.
    pub fn run_policy(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<ParallelPolicyReport, String> {
        self.run_policy_parallel(app, policy, cal, 1, 0)
    }
}

/// One knapsack item per app object from its per-tier value row.
fn mck_items(app: &App, values: Vec<Vec<f64>>) -> Vec<MckItem> {
    app.objects
        .iter()
        .zip(values)
        .enumerate()
        .map(|(i, (o, values))| MckItem {
            id: ObjectId(i as u32),
            size: o.size,
            values,
        })
        .collect()
}

/// Build multiple-choice knapsack items for `app` over an ordered tier
/// list (fastest first): `values[t]` = modelled ns saved over the whole
/// run by residence on tier `t` instead of the slowest tier (the last
/// entry is therefore 0). Pure model — no wall-clock correction — so
/// the numbers are deterministic across machines and usable in
/// self-validated artifacts.
pub fn mck_items_for(app: &App, specs: &[TierSpec]) -> Vec<MckItem> {
    let prices = AccessPrices::new(&app.graph, specs, None);
    mck_items(app, prices.values(app).per_tier)
}

/// Per-object latency-boundedness on `spec`: `true` when most of the
/// object's modelled access time comes from latency-limited
/// (dependent-load) accesses rather than bandwidth-limited streams.
/// This is the classification under which a middle tier like CXL — low
/// latency, modest bandwidth — wins over NVM.
pub fn object_latency_bound(app: &App, spec: &TierSpec) -> Vec<bool> {
    // Each access's time, counted only on the side it is limited by.
    let side = |cf_bw, cf_lat| {
        let mut cal = WallClockCalibration::synthetic(0, 0);
        (cal.cf_bw, cal.cf_lat) = (cf_bw, cf_lat);
        let prices = AccessPrices::new(&app.graph, std::slice::from_ref(spec), Some(&cal));
        let mut sums = vec![0.0f64; app.objects.len()];
        for (a, p) in prices.rows(&app.graph) {
            sums[a.object.index()] += p[0];
        }
        sums
    };
    let (lat, bw) = (side(0.0, 1.0), side(1.0, 0.0));
    lat.iter().zip(&bw).map(|(l, b)| l > b).collect()
}

/// Solve the placement over an ordered tier list and price the result:
/// the multiple-choice knapsack assignment plus the modelled run cost
/// under it. With two specs this is exactly the binary Tahoe plan (the
/// solver delegates), so `modelled_plan` prices 3-tier and 2-tier
/// configurations on an equal footing.
pub fn modelled_plan(app: &App, specs: &[TierSpec]) -> Result<(MckAssignment, f64), String> {
    let prices = AccessPrices::new(&app.graph, specs, None);
    let items = mck_items(app, prices.values(app).per_tier);
    let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
    let plan = solve_mck(&items, &caps)?;
    let total = prices.rows(&app.graph).fold(0.0, |t, (a, p)| {
        t + p[plan.tiers[a.object.index()] as usize]
    });
    Ok((plan, total))
}

/// Lower a solver assignment to the migration plan the engine executes:
/// every object whose assigned tier differs from `initial_tiers` (the
/// spill tier throughout, for a plan that is only audited) moves there
/// in one step at `window: 0` — due from the first barrier, issued when
/// the engine's [`ClassQuota`](crate::engine::ClassQuota) releases the
/// plan. Steps are ordered by descending value per byte on the assigned
/// tier, ties by object index: the order is deterministic and the copy
/// channel's first milliseconds carry the most valuable bytes.
pub fn promotion_plan(
    items: &[MckItem],
    initial_tiers: Vec<u8>,
    assignment: &[u8],
) -> MigrationPlan {
    let density = |i: usize| items[i].values[assignment[i] as usize] / items[i].size.max(1) as f64;
    let mut moved: Vec<usize> = (0..assignment.len())
        .filter(|&i| assignment[i] != initial_tiers[i])
        .collect();
    moved.sort_by(|&a, &b| density(b).total_cmp(&density(a)).then(a.cmp(&b)));
    let steps = moved
        .into_iter()
        .map(|i| PlanStep {
            object: i as u32,
            to_tier: assignment[i],
            window: 0,
        })
        .collect();
    MigrationPlan {
        initial_tiers,
        steps,
    }
}

/// Lower a rotating [`Schedule`] over two tiers to the migration plan
/// the engine executes, in the order the planner replayed the fast
/// tier's allocator: its initial set at `window: 0` (released by the
/// class quota, like the global plan's, and in that plan's order), then
/// for each later window `u` its evictions followed by its promotions
/// at `window: u` — handed to the migration thread at `u`'s barrier.
/// An early schedule's promotions are in place when window `u + 1`
/// opens; a late one's land while `u`'s other tasks run.
pub fn rotation_plan(initial_tiers: Vec<u8>, schedule: &Schedule) -> MigrationPlan {
    let (fast, slow) = (TierId::FASTEST.0, 1);
    let initial = schedule.initial.iter().map(|&object| (object, fast, 0));
    let later = schedule.windows.iter().zip(0u32..).flat_map(|(moves, w)| {
        let evictions = moves.evict.iter().map(move |&object| (object, slow, w));
        evictions.chain(moves.promote.iter().map(move |&object| (object, fast, w)))
    });
    let steps = initial
        .chain(later)
        .filter(|&(object, to_tier, window)| {
            window > 0 || initial_tiers[object as usize] != to_tier
        })
        .map(|(object, to_tier, window)| PlanStep {
            object,
            to_tier,
            window,
        })
        .collect();
    MigrationPlan {
        initial_tiers,
        steps,
    }
}

/// Execute the app's traffic on plain heap buffers, no tiers, no pacing:
/// the ground truth every measured policy run must match bit for bit.
pub fn reference_checksum(app: &App) -> u64 {
    reference_checksum_seeded(app, 0)
}

/// [`reference_checksum`] with a run seed varying the traffic contents
/// (the parallel stress suite runs several seeds; `run_seed == 0` is the
/// historical stream).
///
/// The fold order — object inits first, then windows → window tasks →
/// accesses — is the *canonical* checksum order: the parallel runtime
/// executes in whatever order its workers race to, but re-folds its
/// per-access checksums in this exact order, so equality here is
/// bit-for-bit regardless of schedule.
pub fn reference_checksum_seeded(app: &App, run_seed: u64) -> u64 {
    let mut buffers: Vec<Vec<u8>> = app
        .objects
        .iter()
        .map(|o| vec![0u8; o.size as usize])
        .collect();
    let mut views: Vec<&mut [u8]> = buffers.iter_mut().map(Vec::as_mut_slice).collect();
    let mut checksum = traffic::init_fill_all(&mut views, |i| init_seed(run_seed, i))
        .into_iter()
        .fold(0, fold);
    for w in 0..app.windows() {
        for tid in app.graph.window_tasks(w) {
            let task = app.graph.task(tid);
            for (ai, access) in task.accesses.iter().enumerate() {
                let buf = &mut buffers[access.object.index()];
                let c = traffic::run_access(
                    buf,
                    access.profile.loads,
                    access.profile.stores,
                    site_seed(run_seed, tid.0, ai),
                );
                checksum = fold(checksum, c);
            }
        }
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_across_sites() {
        assert_ne!(site_seed(0, 0, 0), site_seed(0, 0, 1));
        assert_ne!(site_seed(0, 0, 0), site_seed(0, 1, 0));
    }

    /// `benchmark/src/gen.rs`'s `stream_bw`, shape only (hot class 0):
    /// 32 triads over 96 blocks of 1 MiB, ten windows, every fourth
    /// triad hot, the rest every fourth window.
    fn stream_bw_shaped() -> App {
        const BLOCK: u64 = 1 << 20;
        let mut b = crate::app::AppBuilder::new("stream-shaped");
        let blocks: Vec<_> = (0..32)
            .map(|t| ["a", "b", "c"].map(|n| b.object(&format!("{n}{t}"), BLOCK)))
            .collect();
        let class = b.class("triad");
        for w in 0..10u32 {
            if w > 0 {
                b.next_window();
            }
            for (t, [a, bb, c]) in blocks.iter().enumerate() {
                if t % 4 == 0 || (t / 4) as u32 % 4 == w % 4 {
                    b.task(class)
                        .read_streaming(*bb, BLOCK / 64)
                        .read_streaming(*c, BLOCK / 64)
                        .update_streaming(*a, BLOCK / 64)
                        .submit();
                }
            }
        }
        b.build()
    }

    /// The benchmark's pinned calibration: the presets, both correction
    /// factors 1, DRAM a quarter of the footprint.
    fn pinned(app: &App) -> (MeasuredRuntime, WallClockCalibration) {
        use tahoe_hms::presets;
        let (dram, nvm) = (app.footprint() / 4, 2 * app.footprint());
        let mut cal = WallClockCalibration::synthetic(dram, nvm);
        cal.dram = presets::dram(dram);
        cal.nvm = presets::optane_pmm(nvm);
        let rt = MeasuredRuntime::new(
            Platform::optane(dram, nvm),
            tahoe_memprof::wallclock::WallClockConfig::smoke(),
        );
        (rt, cal)
    }

    /// ROADMAP item 2(a)'s table for `stream_bw`, re-derived: the static
    /// plan captures 0.640 of the modelled saving (0.604 with window 0
    /// at half), a free-migration per-window oracle 0.822, and the
    /// rotation that real copy rates and one window of look-ahead allow
    /// 0.724 — 24 promotions at the release, then 6 evictions and 6
    /// promotions at each of eight barriers: 120 MiB moved for 24.
    #[test]
    fn stream_bw_shape_rotates_six_blocks_a_window() {
        let app = stream_bw_shaped();
        let (rt, cal) = pinned(&app);
        let policy = PolicyKind::tahoe();
        let Allocated {
            config,
            initial_tiers,
            prices,
            ..
        } = rt.allocate(&app, &policy, &cal).expect("allocates");
        let planner = |spare_core| Planner {
            app: &app,
            policy: &policy,
            config: &config,
            prices: &prices,
            workers: 1,
            spare_core,
        };
        let prepared = planner(true)
            .audited(initial_tiers.clone())
            .expect("audits clean");
        let per_window = |w: u32, to: u8| {
            let at = prepared.plan.steps.iter().filter(|s| s.window == w);
            at.filter(|s| s.to_tier == to).count()
        };
        assert_eq!((per_window(0, 0), per_window(0, 1)), (24, 0));
        for w in 1..9 {
            assert_eq!((per_window(w, 0), per_window(w, 1)), (6, 6), "window {w}");
            // A window's evictions are issued before its promotions.
            let at: Vec<_> = prepared
                .plan
                .steps
                .iter()
                .filter(|s| s.window == w)
                .collect();
            assert!(at[..6].iter().all(|s| s.to_tier == 1));
        }
        assert_eq!(prepared.plan.steps.len(), 24 + 8 * 12);
        let target = prepared.plan.final_tiers(config.n_tiers());
        assert_eq!(target.iter().filter(|&&t| t == 0).count(), 24);

        let all: f64 = prepared.plan_values.as_ref().unwrap().iter().sum();
        let share = |ns: f64| (ns / all * 1e3).round() / 1e3;
        let worth = prepared.plan_worth.expect("two tiers");
        assert_eq!(share(worth.global_ns), 0.604);
        assert_eq!(share(worth.chosen_ns), 0.724);
        assert_eq!(share(worth.oracle_ns), 0.822);

        // Without a core for the migration thread nothing hides a copy:
        // the global plan, step for step.
        let global = planner(false).audited(initial_tiers).expect("clean");
        let specs = config.tier_specs();
        let items = mck_items(&app, prices.values(&app).per_tier);
        let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
        let assignment = solve_mck(&items, &caps).unwrap();
        assert_eq!(share(assignment.total_value), 0.640);
        let expect = promotion_plan(&items, vec![1; items.len()], &assignment.tiers);
        assert_eq!(global.plan, expect);
        assert_eq!(global.plan_worth.unwrap().chosen_ns, worth.global_ns);
    }

    /// `benchmark/src/gen.rs`'s `mixed_skew`, shape only (no seeded
    /// deal): 160 objects on a 40 KiB–2.5 MiB ladder in groups of eight,
    /// slot `j` of group `g` read-streamed, updated or pointer-chased and
    /// touched in 8, 4, 2 or 1 of 8 windows, staggered by group.
    fn mixed_skew_shaped() -> App {
        const OBJECTS: usize = 160;
        const MODES: [u8; 8] = [0, 1, 2, 0, 1, 0, 1, 2];
        const TOUCHES: [u32; 8] = [8, 1, 4, 2, 1, 8, 2, 4];
        let ladder = |i: usize| {
            let bytes = (40u64 << 10) as f64 * 64f64.powf(i as f64 / (OBJECTS - 1) as f64);
            ((bytes / 4096.0).round() as u64) * 4096
        };
        let mut slots: Vec<(usize, usize)> = (0..OBJECTS / 8)
            .flat_map(|g| (0..8).map(move |j| (g, j)))
            .collect();
        slots.sort_by_key(|&(g, j)| (j, g));
        let mut b = crate::app::AppBuilder::new("mixed-shaped");
        let objects: Vec<_> = slots
            .into_iter()
            .map(|(g, j)| {
                let bytes = ladder(8 * g + (j + g) % 8);
                (g, j, bytes, b.object(&format!("g{g}s{j}"), bytes))
            })
            .collect();
        let class = b.class("touch");
        for w in 0..8u32 {
            if w > 0 {
                b.next_window();
            }
            for &(g, j, bytes, id) in &objects {
                if !(w + g as u32).is_multiple_of(8 / TOUCHES[(j + 5 * g) % 8]) {
                    continue;
                }
                let (t, lines) = (b.task(class), bytes / 64);
                match MODES[(j + 3 * g) % 8] {
                    0 => t.read_streaming(id, lines),
                    1 => t.update_streaming(id, lines),
                    _ => t.read_chasing(id, lines / 8),
                }
                .submit();
            }
        }
        b.build()
    }

    /// DESIGN.md decision 14's table, re-derived by the code. One-touch
    /// and few-touch objects of many sizes: fetched one window ahead,
    /// each holds DRAM for a window it does not use, and the early lead
    /// loses to the global plan (0.574 vs 0.585, window 0 at half);
    /// fetched in its window of use, within the slow-tier delay of that
    /// window's other tasks and on holes the real allocator finds, it
    /// beats it by more than the 3 % rule (0.633).
    #[test]
    fn mixed_skew_shape_fetches_in_the_window_of_use() {
        use tahoe_placement::{follow, Lead};
        let app = mixed_skew_shaped();
        let (rt, cal) = pinned(&app);
        let policy = PolicyKind::tahoe();
        let Allocated {
            config,
            initial_tiers,
            prices,
            ..
        } = rt.allocate(&app, &policy, &cal).expect("allocates");
        let planner = |spare_core| Planner {
            app: &app,
            policy: &policy,
            config: &config,
            prices: &prices,
            workers: 1,
            spare_core,
        };
        let prepared = planner(true)
            .audited(initial_tiers.clone())
            .expect("audits clean");
        let all: f64 = prepared.plan_values.as_ref().unwrap().iter().sum();
        let share = |ns: f64| (ns / all * 1e3).round() / 1e3;
        let worth = prepared.plan_worth.expect("two tiers");
        assert_eq!(share(worth.global_ns), 0.585);
        assert_eq!(share(worth.chosen_ns), 0.633);
        assert_eq!(share(worth.oracle_ns), 0.774);

        // Both leads, on the planner's own input: the late one runs.
        let specs = config.tier_specs();
        let values = prices.values(&app);
        let sizes: Vec<u64> = app.objects.iter().map(|o| o.size).collect();
        let items = mck_items(&app, values.per_tier.clone());
        let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
        let assignment = solve_mck(&items, &caps).unwrap();
        let global: Vec<bool> = assignment.tiers.iter().map(|&t| t == 0).collect();
        let rate = |from: TierId, to: TierId| CopyRate {
            gbps: config.copy_bw_between(from, to),
            latency_ns: specs[from.index()].copy_lat_to(&specs[to.index()]),
        };
        let input = RotationInput {
            sizes: &sizes,
            touches: &values.touches,
            spill_window_ns: &values.spill_window_ns,
            capacity: caps[0],
            global: &global,
            promote: rate(TierId(1), TierId(0)),
            evict: rate(TierId(0), TierId(1)),
            workers: 1,
            overlap: true,
        };
        let (early, late) = (follow(&input, Lead::Early), follow(&input, Lead::Late));
        assert_eq!(share(early.0), 0.574, "one window ahead loses");
        assert_eq!(late.0, worth.chosen_ns);
        // Every promotion after window 0 is of an object its window
        // uses: 87 of them, and 210 copies, 92 MiB, in all.
        let touched_in = |o: u32, w: u32| {
            let row = &values.touches[o as usize];
            row.iter().any(|t| t.window == w)
        };
        let steps = &prepared.plan.steps;
        let fetches: Vec<_> = steps
            .iter()
            .filter(|s| s.window > 0 && s.to_tier == 0)
            .collect();
        assert!(fetches.iter().all(|s| touched_in(s.object, s.window)));
        assert_eq!((fetches.len(), steps.len()), (87, 210));
        let moved: u64 = steps.iter().map(|s| sizes[s.object as usize]).sum();
        assert_eq!(moved >> 20, 92);

        // Without a core for the migration thread: the global plan, step
        // for step.
        let static_plan = planner(false).audited(initial_tiers).expect("clean");
        let expect = promotion_plan(&items, vec![1; items.len()], &assignment.tiers);
        assert_eq!(static_plan.plan, expect);
    }

    /// `benchmark/src/gen.rs`'s `plan_heavy`, shape only (a fixed
    /// deal): 8192 objects of 8 KiB, half updated and half read, a
    /// quarter touched in each of six windows, the rest in every third.
    fn plan_heavy_shaped() -> App {
        const OBJECTS: usize = 8192;
        const SIZE: u64 = 8 << 10;
        let mut b = crate::app::AppBuilder::new("plan-heavy-shaped");
        let ids: Vec<_> = (0..OBJECTS)
            .map(|i| b.object(&format!("p{i}"), SIZE))
            .collect();
        let class = b.class("short");
        for w in 0..6u32 {
            if w > 0 {
                b.next_window();
            }
            for (i, &id) in ids.iter().enumerate() {
                // A fixed shuffle of the object's role.
                let s = i * 2_654_435_761 % OBJECTS;
                if !s.is_multiple_of(4) && s as u32 % 3 != w % 3 {
                    continue;
                }
                let t = b.task(class);
                match s % 2 {
                    0 => t.update_streaming(id, SIZE / 64),
                    _ => t.read_streaming(id, SIZE / 64),
                }
                .submit();
            }
        }
        b.build()
    }

    /// The plan a run makes while a helper thread fills the arenas is
    /// the plan made from the same allocation with nothing beside it
    /// (the path of `verify_plan`) bit for bit: steps,
    /// per-object values and the modelled plan values — rotating or
    /// not, on the three benchmark shapes that plan differently.
    #[test]
    fn the_overlapped_plan_is_the_synchronous_plan() {
        let bits = |v: &Option<Vec<f64>>| -> Vec<u64> {
            v.iter().flatten().map(|x| x.to_bits()).collect()
        };
        let worth_bits = |w: Option<PlanValues>| {
            w.map(|w| [w.global_ns, w.chosen_ns, w.oracle_ns].map(f64::to_bits))
        };
        let policy = PolicyKind::tahoe();
        for app in [stream_bw_shaped(), mixed_skew_shaped(), plan_heavy_shaped()] {
            let (rt, cal) = pinned(&app);
            for spare_core in [true, false] {
                let run = rt
                    .start(&app, &policy, &cal, 1, 0, spare_core)
                    .expect("audits clean");
                let Allocated {
                    config,
                    initial_tiers,
                    prices,
                    ..
                } = rt.allocate(&app, &policy, &cal).expect("allocates");
                let planner = Planner {
                    app: &app,
                    policy: &policy,
                    config: &config,
                    prices: &prices,
                    workers: 1,
                    spare_core,
                };
                let sync = planner.plan(initial_tiers).expect("plans");
                let at = format!("{} spare_core={spare_core}", app.name);
                assert!(!run.planned.plan.steps.is_empty(), "{at}");
                assert_eq!(run.planned.plan, sync.plan, "{at}");
                assert_eq!(
                    bits(&run.planned.plan_values),
                    bits(&sync.plan_values),
                    "{at}"
                );
                assert!(sync.plan_values.is_some(), "{at}");
                let worth = worth_bits(run.planned.plan_worth);
                assert_eq!(worth, worth_bits(sync.plan_worth), "{at}");
                assert!(worth.is_some(), "{at}");
            }
        }
    }

    #[test]
    fn rotation_plan_issues_each_windows_evictions_first() {
        use tahoe_placement::{Lead, WindowMoves};
        let moves = |evict: &[u32], promote: &[u32]| WindowMoves {
            evict: evict.to_vec(),
            promote: promote.to_vec(),
        };
        let schedule = Schedule {
            lead: Lead::Early,
            initial: vec![3, 1],
            windows: vec![moves(&[], &[]), moves(&[3], &[2]), moves(&[], &[])],
        };
        let plan = rotation_plan(vec![1; 4], &schedule);
        let steps: Vec<_> = plan
            .steps
            .iter()
            .map(|s| (s.object, s.to_tier, s.window))
            .collect();
        // Window 0 in the schedule's order — the order the planner
        // replayed the allocator in — then window 1: out before in.
        assert_eq!(steps, [(3, 0, 0), (1, 0, 0), (3, 1, 1), (2, 0, 1)]);
        assert_eq!(plan.final_tiers(2), [1, 0, 0, 1]);
    }

    /// Under a calibration whose correction factors differ, a swap of a
    /// streamed object for a chased one regresses by the pure model and
    /// not by the planner's prices (and the reverse swap the other way
    /// round): the runtime's audit must take the planner's side.
    #[test]
    fn the_runtime_audits_at_the_planners_prices() {
        use tahoe_hms::presets;
        use tahoe_sanitize::ViolationKind;
        const SIZE: u64 = 64 << 10;
        let mut b = crate::app::AppBuilder::new("swap");
        let (streamed, chased) = (b.object("streamed", SIZE), b.object("chased", SIZE));
        let c = b.class("step");
        b.task(c).read_streaming(streamed, SIZE / 64).submit();
        b.task(c).read_chasing(chased, SIZE / 64 / 32).submit();
        let app = b.build();
        let (dram, nvm) = (2 * app.footprint(), 2 * app.footprint());
        let mut cal = WallClockCalibration::synthetic(dram, nvm);
        (cal.dram, cal.nvm) = (presets::dram(dram), presets::optane_pmm(nvm));
        (cal.cf_bw, cal.cf_lat) = (0.1, 10.0);
        let rt = MeasuredRuntime::new(
            Platform::optane(dram, nvm),
            tahoe_memprof::wallclock::WallClockConfig::smoke(),
        );
        let Allocated { config, prices, .. } = rt
            .allocate(&app, &PolicyKind::NvmOnly, &cal)
            .expect("allocates");
        let specs = config.tier_specs().to_vec();
        let ctx = PlanContext::new(vec![SIZE; 2]);
        // `out` leaves DRAM for NVM, then `into` takes its place.
        let swap = |out: u32, into: u32| MigrationPlan {
            initial_tiers: if out == 0 { vec![0, 1] } else { vec![1, 0] },
            steps: vec![
                PlanStep {
                    object: out,
                    to_tier: 1,
                    window: 0,
                },
                PlanStep {
                    object: into,
                    to_tier: 0,
                    window: 0,
                },
            ],
        };
        let regresses = |r: &SanitizeReport| {
            assert!(r
                .violations
                .iter()
                .all(|v| v.kind == ViolationKind::PlanCostRegression));
            !r.is_clean()
        };
        for (plan, pure_regresses) in [(swap(0, 1), true), (swap(1, 0), false)] {
            let pure = tahoe_sanitize::audit_plan(&app.graph, &plan, &specs, &ctx);
            assert_eq!(regresses(&pure), pure_regresses, "{:?}", pure.violations);
            // The planner's verdict: the run at its own prices.
            let cost = |tiers: &[u8]| -> f64 {
                let rows = prices.rows(&app.graph);
                rows.map(|(a, p)| p[tiers[a.object.index()] as usize]).sum()
            };
            let planner_regresses = cost(&plan.final_tiers(2)) > cost(&plan.initial_tiers);
            assert_ne!(
                planner_regresses, pure_regresses,
                "the pricings must disagree"
            );
            let report = audit(&app, &config, &prices, &plan);
            assert_eq!(
                regresses(&report),
                planner_regresses,
                "{:?}",
                report.violations
            );
        }
    }

    #[test]
    fn reference_checksum_is_deterministic() {
        let mut b = crate::app::AppBuilder::new("t");
        let x = b.object("x", 4096);
        let y = b.object("y", 8192);
        let c = b.class("step");
        b.task(c)
            .read_streaming(x, 64)
            .write_streaming(y, 128)
            .submit();
        b.next_window();
        b.task(c).update_streaming(y, 128).submit();
        let app = b.build();
        assert_eq!(reference_checksum(&app), reference_checksum(&app));
    }
}
