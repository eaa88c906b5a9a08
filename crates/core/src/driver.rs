//! The policy driver: a [`SchedulerHooks`] implementation that injects
//! data-placement behaviour into the virtual-time schedule.
//!
//! One driver instance runs one (application × policy × platform)
//! combination. For the Tahoe policy it implements the full pipeline —
//! profile during the first windows, calibrated models, knapsack plans,
//! helper-thread migration with per-task stalls, adaptivity — while the
//! baselines reduce to fixed placements or the hardware-cache timing
//! model.
//!
//! ## Identifier spaces
//!
//! The application graph names objects with *app ids* (`ObjectId(i)` =
//! `app.objects[i]`). The memory system assigns its own *unit ids* when
//! objects (or their chunks) are allocated. `units[i]` maps app object
//! `i` to its memory units: one id normally, several when the chunking
//! optimization split a large array. Profiling and demand estimation work
//! at app-object granularity (that is what address-to-object mapping
//! gives the paper's profiler); placement, migration and residency work
//! at unit granularity.

use std::collections::{BTreeSet, HashMap};

use tahoe_hms::{
    migrate::{CopyChannel, MigrationRecord, MigrationStats},
    Hms, Ns, ObjectId, TierId,
};
use tahoe_memprof::{calibrate::calibrate, Calibration, ProfileDb, Sampler, SamplerConfig};
use tahoe_perfmodel::{Demand, VARIATION_THRESHOLD};
use tahoe_placement::{global_plan, local_plan, search::WindowDemand, Plan, PlanKind, WeighCtx};
use tahoe_taskrt::{SchedulerHooks, TaskSpec};

use crate::app::App;
use crate::config::{Platform, CHUNK_BYTES, MIN_CLASS_INSTANCES, PROFILE_WINDOWS};
use crate::hwcache::cached_mem_time_ns;
use crate::overhead::{
    OverheadLedger, PLAN_COST_PER_CANDIDATE_NS, PROFILING_TASK_INFLATION, SYNC_COST_PER_TASK_NS,
};
use crate::policy::{PolicyKind, TahoeOptions};

/// In-flight promotion of one memory unit.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    record: usize,
    finish: Ns,
}

/// The fast tier every placement decision here is about. The driver is
/// the paper's two-ended model: objects live on DRAM or on the spill
/// tier ([`Driver::spill`]); middle tiers of the platform stay empty.
const DRAM: TierId = TierId::FASTEST;

/// The policy driver (see module docs).
pub struct Driver<'a> {
    app: &'a App,
    policy: PolicyKind,
    platform: Platform,
    /// The memory system (tiers sized per policy).
    pub hms: Hms,
    /// App object index → memory unit ids (1 normally, >1 when chunked).
    units: Vec<Vec<ObjectId>>,
    /// Unit id → app object index (for reverse lookups).
    unit_parent: HashMap<ObjectId, usize>,
    channel: CopyChannel,
    records: Vec<MigrationRecord>,
    inflight: HashMap<ObjectId, Inflight>,
    /// Promotions whose copy has finished but whose residency flip is
    /// still to be applied, sorted by finish time.
    matured: Vec<(Ns, ObjectId)>,
    /// When synchronous (non-proactive) migration blocks the whole run
    /// until this instant.
    block_until: Ns,
    sampler: Sampler,
    db: ProfileDb,
    calib: Calibration,
    plan: Option<Plan>,
    /// Windows `< profiling_until` are profiled.
    profiling_until: u32,
    window_started_at: Vec<(u32, Ns)>,
    /// One-shot planning cost to charge at the next dispatch.
    pending_plan_cost: Ns,
    /// First window by which migration traffic has settled; the
    /// variation detector only compares windows after this point, so a
    /// duration change *caused by* enforcement is not mistaken for
    /// workload variation.
    quiet_since: u32,
    /// Statistics.
    pub overhead: OverheadLedger,
    /// Replans triggered by workload variation.
    pub replans: u32,
    /// Promotions skipped because the destination could not hold them.
    pub failed_promotions: u32,
    /// Write-endurance tally (stores per tier + migration copies).
    pub wear: tahoe_hms::WearStats,
    footprint: u64,
}

impl<'a> Driver<'a> {
    /// Build a driver: allocates every object per the policy's initial
    /// placement.
    pub fn new(app: &'a App, platform: &Platform, policy: PolicyKind) -> Self {
        let footprint = app.footprint();
        // The bounds policies must be able to hold everything in one tier.
        let plat = match policy {
            PolicyKind::DramOnly => {
                platform.with_dram_capacity(platform.fastest().capacity.max(footprint))
            }
            _ => platform.with_spill_capacity(platform.spill().capacity.max(footprint * 2)),
        };
        let mut hms = Hms::new(plat.hms_config().expect("platform already validated"));
        let spill = hms.config().last_tier();

        let opts = match &policy {
            PolicyKind::Tahoe(o) => Some(o.clone()),
            _ => None,
        };

        // ---- initial placement -----------------------------------------
        // Memory-unit descriptors: one per object, or one per chunk when
        // the chunking optimization splits a large array. Initial
        // placement then works at unit granularity — the compiler's
        // analysis of a regularly accessed array is equally valid for a
        // prefix of it, so chunkable arrays larger than DRAM can still
        // contribute their hottest chunks.
        let mut unit_descs: Vec<(usize, u64, String)> = Vec::new();
        for (i, spec) in app.objects.iter().enumerate() {
            let chunk = opts
                .as_ref()
                .filter(|o| o.chunking && spec.chunkable && spec.size > CHUNK_BYTES)
                .map(|_| CHUNK_BYTES);
            match chunk {
                Some(chunk_size) => {
                    let n = spec.size.div_ceil(chunk_size);
                    let mut remaining = spec.size;
                    for k in 0..n {
                        let this = remaining.min(chunk_size);
                        remaining -= this;
                        unit_descs.push((i, this, format!("{}[{}]", spec.name, k)));
                    }
                }
                None => unit_descs.push((i, spec.size, spec.name.clone())),
            }
        }
        let unit_tiers = Self::initial_unit_tiers(app, &plat, spill, &policy, &unit_descs);
        let mut units: Vec<Vec<ObjectId>> = vec![Vec::new(); app.objects.len()];
        let mut unit_parent = HashMap::new();
        for ((parent, size, name), tier) in unit_descs.iter().zip(unit_tiers) {
            let id = hms
                .alloc_object(name, *size, tier, true)
                .expect("initial allocation failed");
            unit_parent.insert(id, *parent);
            units[*parent].push(id);
        }

        // ---- offline calibration (Tahoe only needs it, harmless else) --
        let sampler = SamplerConfig::default();
        let calib = calibrate(plat.fastest(), plat.spill(), &sampler);

        let profiling_until = match &policy {
            PolicyKind::Tahoe(_) => PROFILE_WINDOWS,
            _ => 0,
        };

        Driver {
            app,
            policy,
            channel: CopyChannel::new(plat.copy_bw_gbps),
            platform: plat,
            hms,
            units,
            unit_parent,
            records: Vec::new(),
            inflight: HashMap::new(),
            matured: Vec::new(),
            block_until: 0.0,
            sampler: Sampler::new(sampler),
            db: ProfileDb::new(),
            calib,
            plan: None,
            profiling_until,
            window_started_at: Vec::new(),
            quiet_since: 0,
            pending_plan_cost: 0.0,
            overhead: OverheadLedger::default(),
            replans: 0,
            failed_promotions: 0,
            wear: tahoe_hms::WearStats::default(),
            footprint,
        }
    }

    /// The spill tier: where everything outside the DRAM budget lives.
    fn spill(&self) -> TierId {
        self.hms.config().last_tier()
    }

    /// Initial tier of each memory unit under `policy`. `unit_descs` is
    /// `(parent object index, unit size, name)` per unit.
    fn initial_unit_tiers(
        app: &App,
        platform: &Platform,
        spill: TierId,
        policy: &PolicyKind,
        unit_descs: &[(usize, u64, String)],
    ) -> Vec<TierId> {
        let per_parent = |tiers: Vec<TierId>| -> Vec<TierId> {
            unit_descs.iter().map(|&(p, _, _)| tiers[p]).collect()
        };
        let n = app.objects.len();
        match policy {
            PolicyKind::DramOnly => vec![DRAM; unit_descs.len()],
            PolicyKind::NvmOnly | PolicyKind::HwCache => vec![spill; unit_descs.len()],
            PolicyKind::FirstTouch => {
                // Allocation-order fill with fallback happens naturally at
                // alloc time: ask for DRAM, overflow goes to NVM.
                vec![DRAM; unit_descs.len()]
            }
            PolicyKind::StaticOffline => {
                per_parent(Self::offline_static_tiers(app, platform, spill))
            }
            PolicyKind::Pinned(objs) => per_parent(
                (0..n)
                    .map(|i| {
                        if objs.contains(&ObjectId(i as u32)) {
                            DRAM
                        } else {
                            spill
                        }
                    })
                    .collect(),
            ),
            PolicyKind::Tahoe(o) => {
                if o.initial_placement {
                    Self::compiler_initial_unit_tiers(app, platform, spill, unit_descs)
                } else {
                    vec![spill; unit_descs.len()]
                }
            }
        }
    }

    /// X-Mem-like oracle: perfect whole-run profile, one knapsack with
    /// the *true* DRAM saving as value, no migration cost.
    fn offline_static_tiers(app: &App, platform: &Platform, spill: TierId) -> Vec<TierId> {
        use tahoe_placement::{solve, Item};
        let mut true_saving = vec![0.0f64; app.objects.len()];
        for t in app.graph.tasks() {
            for a in &t.accesses {
                true_saving[a.object.index()] += a.profile.mem_time_ns(platform.spill())
                    - a.profile.mem_time_ns(platform.fastest());
            }
        }
        let items: Vec<Item> = app
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| Item {
                id: ObjectId(i as u32),
                size: o.size,
                value: true_saving[i],
            })
            .collect();
        let sol = solve(&items, platform.fastest().capacity);
        (0..app.objects.len())
            .map(|i| {
                if sol.contains(ObjectId(i as u32)) {
                    DRAM
                } else {
                    spill
                }
            })
            .collect()
    }

    /// The paper's compiler-analysis initial placement: rank memory units
    /// by their parent object's estimated references per byte and fill
    /// DRAM greedily. Objects without a compiler estimate
    /// (`est_refs == None`) cannot be placed initially and start in NVM.
    fn compiler_initial_unit_tiers(
        app: &App,
        platform: &Platform,
        spill: TierId,
        unit_descs: &[(usize, u64, String)],
    ) -> Vec<TierId> {
        let mut ranked: Vec<(usize, f64)> = unit_descs
            .iter()
            .enumerate()
            .filter_map(|(u, &(p, _, _))| {
                let o = &app.objects[p];
                o.est_refs.map(|r| (u, r / o.size as f64))
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("densities are finite")
                .then(a.0.cmp(&b.0))
        });
        let mut budget = platform.fastest().capacity;
        let mut tiers = vec![spill; unit_descs.len()];
        for (u, _) in ranked {
            let size = unit_descs[u].1;
            if size <= budget {
                budget -= size;
                tiers[u] = DRAM;
            }
        }
        tiers
    }

    /// Memory units of an accessed app object.
    fn units_of(&self, app_obj: ObjectId) -> &[ObjectId] {
        &self.units[app_obj.index()]
    }

    /// Ground-truth memory time of one access under current residency.
    fn access_time_ns(&self, access: &tahoe_taskrt::TaskAccess) -> Ns {
        match &self.policy {
            PolicyKind::HwCache => cached_mem_time_ns(
                &access.profile,
                self.platform.fastest(),
                self.platform.spill(),
                self.platform.fastest().capacity,
                self.footprint,
            ),
            _ => {
                let units = self.units_of(access.object);
                if units.len() == 1 {
                    let tier = self.hms.tier_of(units[0]).expect("unit is live");
                    access.profile.mem_time_ns(self.hms.tier_spec(tier))
                } else {
                    // Chunked: traffic splits pro rata by chunk size.
                    let total: u64 = units
                        .iter()
                        .map(|u| self.hms.size_of(*u).expect("unit is live"))
                        .sum();
                    units
                        .iter()
                        .map(|&u| {
                            let sz = self.hms.size_of(u).expect("unit is live");
                            let tier = self.hms.tier_of(u).expect("unit is live");
                            access
                                .profile
                                .scale(sz as f64 / total as f64)
                                .mem_time_ns(self.hms.tier_spec(tier))
                        })
                        .sum()
                }
            }
        }
    }

    /// Ground-truth duration of `task` (no overheads).
    fn base_duration_ns(&self, task: &TaskSpec) -> Ns {
        task.compute_ns
            + task
                .accesses
                .iter()
                .map(|a| self.access_time_ns(a))
                .sum::<f64>()
    }

    /// Apply residency flips for promotions whose copy finished by `now`.
    ///
    /// An apply can fail if DRAM is still full (the eviction that frees
    /// its space happens at the next window boundary — promotions issued
    /// one window early hit this). Failed applies stay queued and retry
    /// on the next call; `failed_promotions` counts the retries.
    fn apply_matured(&mut self, now: Ns) {
        let due: Vec<(Ns, ObjectId)> = {
            let mut due = Vec::new();
            let mut i = 0;
            while i < self.matured.len() {
                if self.matured[i].0 <= now {
                    due.push(self.matured.remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for (finish, unit) in due {
            if self.hms.move_object(unit, DRAM).is_ok() {
                self.inflight.remove(&unit);
            } else {
                // Destination full or fragmented: retry after the next
                // transition frees space.
                self.failed_promotions += 1;
                self.matured.push((finish, unit));
            }
        }
        self.matured
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    }

    /// Profile one task (Tahoe profiling windows).
    fn profile_task(&mut self, task: &TaskSpec) {
        self.db.record_instance(task.class);
        for a in &task.accesses {
            let true_active = self.access_time_ns(a);
            // The tier the object resides on while profiled — the
            // reference point for the concurrency estimate. Chunked
            // objects use their first unit's tier (chunks start together).
            let tier = self
                .hms
                .tier_of(self.units_of(a.object)[0])
                .expect("unit is live");
            let spec = self.hms.tier_spec(tier).clone();
            let obs = self.sampler.observe(&a.profile, true_active, &spec);
            self.db.record(task.class, a.object, &obs);
        }
    }

    /// Estimated per-window demand of every app object, windows
    /// `from..count`, at app-object granularity.
    fn estimated_window_demands(&self, from: u32) -> Vec<Vec<(ObjectId, u64, Demand)>> {
        let count = self.app.graph.window_count();
        let mut out = Vec::with_capacity((count - from) as usize);
        for w in from..count {
            let mut per_obj: HashMap<ObjectId, Demand> = HashMap::new();
            for t in self.app.graph.window_tasks(w) {
                let task = self.app.graph.task(t);
                for a in &task.accesses {
                    if let Some(stats) = self.db.get(task.class, a.object) {
                        let d = Demand::from_stats(&stats, 1);
                        let e = per_obj.entry(a.object).or_insert(Demand::ZERO);
                        *e = e.add(&d);
                    }
                }
            }
            let mut v: Vec<(ObjectId, u64, Demand)> = per_obj
                .into_iter()
                .map(|(o, d)| (o, self.app.objects[o.index()].size, d))
                .collect();
            v.sort_by_key(|(o, _, _)| *o);
            out.push(v);
        }
        out
    }

    /// Translate app-object demands to memory-unit candidates (chunks get
    /// a pro-rata share of the parent's demand).
    fn to_unit_demands(&self, windows: Vec<Vec<(ObjectId, u64, Demand)>>) -> Vec<WindowDemand> {
        windows
            .into_iter()
            .map(|wd| {
                let mut out: WindowDemand = Vec::new();
                for (app_obj, size, demand) in wd {
                    let units = self.units_of(app_obj);
                    if units.len() == 1 {
                        out.push((units[0], size, demand));
                    } else {
                        let total: u64 = units
                            .iter()
                            .map(|u| self.hms.size_of(*u).expect("unit is live"))
                            .sum();
                        for &u in units {
                            let sz = self.hms.size_of(u).expect("unit is live");
                            out.push((u, sz, demand.scale(sz as f64 / total as f64)));
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// Mean profiled window duration, ns (the planner's estimate of how
    /// much execution is available to hide copies behind).
    fn mean_window_duration_ns(&self) -> Ns {
        if self.window_started_at.len() < 2 {
            return 0.0;
        }
        let n = self.window_started_at.len();
        let span = self.window_started_at[n - 1].1 - self.window_started_at[0].1;
        span / (n - 1) as f64
    }

    /// Channel-serialization penalty of a plan: every window's migration
    /// bytes share one copy channel, so copy time beyond what one window
    /// of execution can hide is exposed — regardless of what the per-
    /// object weights assumed. (The per-object knapsack weights cannot
    /// see this shared-resource effect; the paper's benefit-vs-cost rule
    /// is enforced here, at plan granularity.)
    fn channel_penalty_ns(&self, plan: &Plan, overlap_budget_ns: Ns) -> Ns {
        plan.windows
            .iter()
            .map(|pw| {
                let bytes: u64 = pw
                    .promote
                    .iter()
                    .chain(pw.evict.iter())
                    .map(|&u| self.hms.size_of(u).unwrap_or(0))
                    .sum();
                (bytes as f64 / self.platform.copy_bw_gbps - overlap_budget_ns).max(0.0)
            })
            .sum()
    }

    /// Compute the placement plan at window `w` (profiling just ended or a
    /// replan triggered).
    fn compute_plan(&mut self, w: u32, opts: &TahoeOptions) {
        let demands = self.to_unit_demands(self.estimated_window_demands(w));
        if demands.is_empty() {
            return;
        }
        let candidate_count: usize = demands.iter().map(|d| d.len()).sum();
        let initial: BTreeSet<ObjectId> = self.hms.objects_on(DRAM).into_iter().collect();

        let mean_window_ns = self.mean_window_duration_ns();
        let mean_copy_ns = {
            let total: u64 = demands
                .first()
                .map(|d| d.iter().map(|(_, s, _)| *s).sum())
                .unwrap_or(0);
            let n = demands.first().map(|d| d.len()).unwrap_or(1).max(1);
            (total as f64 / n as f64) / self.platform.copy_bw_gbps
        };
        let ctx = WeighCtx {
            nvm: self.platform.spill().clone(),
            dram: self.platform.fastest().clone(),
            calib: self.calib,
            distinguish_rw: opts.distinguish_rw,
            copy_bw_gbps: self.platform.copy_bw_gbps,
            // The helper thread can hide at most a fraction of one
            // window of execution per migration.
            overlap_credit_ns: if opts.proactive {
                (0.75 * mean_copy_ns).min(0.25 * mean_window_ns)
            } else {
                0.0
            },
            dram_pressure: self.hms.used(DRAM) as f64
                / self.platform.fastest().capacity.max(1) as f64,
        };
        let cap = self.platform.fastest().capacity;

        // A plan's knapsack gain includes the benefit of objects that are
        // *already* resident — which doing nothing collects too. Score
        // plans by their gain over that baseline, minus the channel-
        // serialization penalty; enforce only when strictly better.
        let baseline: Ns = demands
            .iter()
            .map(|wd| {
                wd.iter()
                    .filter(|(id, _, _)| initial.contains(id))
                    .map(|&(id, size, demand)| {
                        ctx.weigh(&tahoe_placement::ObjectCandidate {
                            id,
                            size,
                            demand,
                            resident: true,
                        })
                        .value
                        .max(0.0)
                    })
                    .sum::<f64>()
            })
            .sum();
        let overlap_budget = if opts.proactive { mean_window_ns } else { 0.0 };
        let mut best: Option<(Ns, Plan)> = None;
        let mut consider = |plan: Plan, this: &Self| {
            let score =
                plan.predicted_gain_ns - this.channel_penalty_ns(&plan, overlap_budget) - baseline;
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, plan));
            }
        };
        // Global first: on equal scores the strict comparison keeps the
        // plan with fewer migrations.
        if opts.global_search {
            consider(global_plan(&demands, &initial, cap, &ctx), self);
        }
        if opts.local_search {
            consider(local_plan(&demands, &initial, cap, &ctx), self);
        }
        self.pending_plan_cost += candidate_count as f64 * PLAN_COST_PER_CANDIDATE_NS;
        // Hysteresis: a plan must beat staying put by a meaningful margin
        // (2% of the baseline's value plus a 10 µs floor), otherwise the
        // churn costs more than sampling noise-sized "gains" are worth.
        let margin = 0.02 * baseline + 10_000.0;
        self.plan = Some(match best {
            Some((score, mut plan)) if score > margin => {
                // Window indices in the plan are relative to `w`.
                for pw in &mut plan.windows {
                    pw.window += w;
                }
                plan
            }
            // No plan beats staying put: freeze the current placement (an
            // empty plan, so enforcement is a no-op but planning does not
            // re-run every window).
            _ => Plan {
                kind: PlanKind::Global,
                windows: Vec::new(),
                predicted_gain_ns: 0.0,
            },
        });
    }

    /// Enforce the plan's transitions at the boundary of window `w`, and
    /// pre-issue the *next* window's promotions when data dependences
    /// allow (the paper's `mem_comp_overlap`: a migration is triggered at
    /// the earliest phase boundary after the object's last write, so the
    /// copy overlaps a whole window of execution).
    fn enforce_window(&mut self, w: u32, now: Ns, opts: &TahoeOptions) {
        self.apply_matured(now);
        let Some(plan) = &self.plan else { return };
        let mut promote_early: Vec<ObjectId> = Vec::new();
        if opts.proactive {
            if let Some(next) = plan.windows.iter().find(|pw| pw.window == w + 1) {
                // An object written during window `w` cannot be copied
                // early (the copy would go stale); reads are fine — the
                // NVM copy stays authoritative until the flip applies.
                let written: std::collections::HashSet<usize> = self
                    .app
                    .graph
                    .window_tasks(w)
                    .iter()
                    .flat_map(|&t| self.app.graph.task(t).accesses.iter())
                    .filter(|a| a.mode.writes())
                    .map(|a| a.object.index())
                    .collect();
                promote_early = next
                    .promote
                    .iter()
                    .copied()
                    .filter(|u| {
                        self.unit_parent
                            .get(u)
                            .is_none_or(|parent| !written.contains(parent))
                    })
                    .collect();
            }
        }
        let Some(pw) = plan.windows.iter().find(|pw| pw.window == w) else {
            // No transitions this window; still pre-issue next window's.
            for unit in promote_early {
                self.issue_promotion(unit, now, opts);
            }
            return;
        };
        let evict = pw.evict.clone();
        let promote = pw.promote.clone();
        let spill = self.spill();
        if !evict.is_empty() || !promote.is_empty() {
            self.quiet_since = w + 1;
        }

        // Evictions first: they free the space promotions need. The copy
        // is charged on the channel; residency flips immediately (the
        // data stays readable from either location during the copy).
        for unit in evict {
            if self.hms.tier_of(unit) != Ok(DRAM) {
                continue;
            }
            let bytes = self.hms.size_of(unit).expect("unit is live");
            if self.hms.move_object(unit, spill).is_err() {
                continue;
            }
            let (start, finish) = self.channel.schedule(bytes, now);
            self.wear.record_copy(spill, bytes);
            self.records.push(MigrationRecord {
                object: unit,
                bytes,
                from: DRAM,
                to: spill,
                issued_at: now,
                start,
                finish,
                needed_at: None,
            });
            if !opts.proactive {
                self.block_until = self.block_until.max(finish);
            }
        }

        // Promotions in first-use order (the look-ahead): tasks of this
        // window in dispatch order define when each object is first
        // needed, so the helper thread copies the soonest-needed object
        // first.
        let window_tasks = self.app.graph.window_tasks(w);
        let la = tahoe_taskrt::lookahead::Lookahead::new(opts.lookahead.max(1));
        let first_use = la.objects_in_window(&self.app.graph, &window_tasks);
        let rank = |unit: ObjectId| -> usize {
            let parent = self.unit_parent.get(&unit).copied();
            first_use
                .iter()
                .position(|(o, _)| Some(o.index()) == parent)
                .unwrap_or(usize::MAX)
        };
        let mut ordered = promote;
        ordered.sort_by_key(|&u| (rank(u), u));
        for unit in ordered {
            self.issue_promotion(unit, now, opts);
        }
        // Next window's promotions copy behind this window's execution.
        for unit in promote_early {
            self.issue_promotion(unit, now, opts);
        }
        self.matured
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    }

    /// Schedule one NVM→DRAM promotion on the copy channel.
    fn issue_promotion(&mut self, unit: ObjectId, now: Ns, opts: &TahoeOptions) {
        let spill = self.spill();
        if self.hms.tier_of(unit) != Ok(spill) || self.inflight.contains_key(&unit) {
            return;
        }
        let bytes = self.hms.size_of(unit).expect("unit is live");
        let (start, finish) = self.channel.schedule(bytes, now);
        self.wear.record_copy(DRAM, bytes);
        self.records.push(MigrationRecord {
            object: unit,
            bytes,
            from: spill,
            to: DRAM,
            issued_at: now,
            start,
            finish,
            needed_at: None,
        });
        let record = self.records.len() - 1;
        self.inflight.insert(unit, Inflight { record, finish });
        self.matured.push((finish, unit));
        if !opts.proactive {
            self.block_until = self.block_until.max(finish);
            // Synchronous migration is fully exposed.
            self.records[record].needed_at = Some(now);
        }
    }

    /// Adaptivity: detect per-window drift and re-arm profiling.
    fn check_variation(&mut self, w: u32) {
        if self.plan.is_none() || self.window_started_at.len() < 3 {
            return;
        }
        let n = self.window_started_at.len();
        // Both compared windows must postdate the last enforcement
        // transition — a drop caused by our own migrations is success,
        // not workload variation.
        if self.window_started_at[n - 3].0 < self.quiet_since {
            return;
        }
        let d1 = self.window_started_at[n - 1].1 - self.window_started_at[n - 2].1;
        let d0 = self.window_started_at[n - 2].1 - self.window_started_at[n - 3].1;
        if d0 > 0.0 && ((d1 - d0) / d0).abs() > VARIATION_THRESHOLD {
            // Re-profile the next PROFILE_WINDOWS windows, then replan.
            self.db.clear();
            self.plan = None;
            self.profiling_until = w + PROFILE_WINDOWS;
            // Profiling inflation changes window durations too; wait for
            // it to pass before measuring variation again.
            self.quiet_since = self.profiling_until + 1;
            self.replans += 1;
        }
    }

    /// Final migration statistics.
    pub fn migration_stats(&self) -> MigrationStats {
        let mut st = MigrationStats::default();
        for r in &self.records {
            st.record(r);
        }
        st
    }

    /// Units currently in DRAM (for reports).
    pub fn dram_units(&self) -> usize {
        self.hms.objects_on(DRAM).len()
    }

    /// The chosen plan kind, if a plan was computed.
    pub fn plan_kind(&self) -> Option<PlanKind> {
        self.plan.as_ref().map(|p| p.kind)
    }
}

impl SchedulerHooks for Driver<'_> {
    fn task_duration_ns(&mut self, task: &TaskSpec, start: Ns) -> Ns {
        self.apply_matured(start);
        // Endurance accounting: each access's store bytes wear the tier
        // the object currently resides on (HwCache writes through to NVM
        // eventually; charge NVM, its backing store).
        for a in &task.accesses {
            let bytes = a.profile.stores * tahoe_hms::CACHELINE;
            if bytes > 0 {
                let tier = match self.policy {
                    PolicyKind::HwCache => self.spill(),
                    _ => self
                        .hms
                        .tier_of(self.units_of(a.object)[0])
                        .expect("unit is live"),
                };
                self.wear.record_stores(tier, bytes);
            }
        }
        let mut dur = self.base_duration_ns(task);
        if let PolicyKind::Tahoe(_) = self.policy {
            self.overhead.sync_ns += SYNC_COST_PER_TASK_NS;
            dur += SYNC_COST_PER_TASK_NS;
            // Profile during the profiling windows — and any instance of
            // a class that has not yet met its quota (task classes can
            // first appear long after startup; the paper profiles a few
            // instances of *each class*, whenever they arrive).
            if task.window < self.profiling_until
                || !self.db.is_profiled(task.class, MIN_CLASS_INSTANCES)
            {
                self.profile_task(task);
                let extra = dur * PROFILING_TASK_INFLATION;
                self.overhead.profiling_ns += extra;
                dur += extra;
            }
        }
        dur
    }

    fn task_earliest_start(&mut self, task: &TaskSpec, now: Ns) -> Ns {
        self.apply_matured(now);
        let mut earliest = now.max(self.block_until);
        // Charge any pending planning cost to the next dispatch.
        if self.pending_plan_cost > 0.0 {
            earliest += self.pending_plan_cost;
            self.overhead.planning_ns += self.pending_plan_cost;
            self.pending_plan_cost = 0.0;
        }
        // Wait for in-flight promotions of objects this task *writes*:
        // writing mid-copy would leave a stale DRAM copy. Pure readers
        // proceed against the still-authoritative NVM copy (the paper's
        // dependence rule: migration respects writers, reads are safe).
        let mut needed: Vec<usize> = Vec::new();
        for a in &task.accesses {
            if !a.mode.writes() {
                continue;
            }
            for &unit in self.units_of(a.object) {
                if let Some(inf) = self.inflight.get(&unit) {
                    if inf.finish > earliest {
                        earliest = inf.finish;
                    }
                    needed.push(inf.record);
                }
            }
        }
        for record in needed {
            let rec = &mut self.records[record];
            rec.needed_at = Some(rec.needed_at.map_or(now, |t: f64| t.min(now)));
        }
        earliest
    }

    fn on_window_start(&mut self, w: u32, now: Ns) {
        self.window_started_at.push((w, now));
        let PolicyKind::Tahoe(opts) = self.policy.clone() else {
            return;
        };
        // A window introducing a task class the current plan has never
        // seen invalidates the plan: its objects were invisible to the
        // demand estimate. Profile this window (the class-quota rule in
        // `task_duration_ns` does it) and replan at the next boundary.
        if self.plan.is_some() {
            let unseen = self
                .app
                .graph
                .window_tasks(w)
                .iter()
                .any(|&t| self.db.instances_of(self.app.graph.task(t).class) == 0);
            if unseen {
                self.plan = None;
                self.profiling_until = self.profiling_until.max(w + 1);
                self.quiet_since = self.profiling_until + 1;
                self.replans += 1;
            }
        }
        self.check_variation(w);
        if self.plan.is_none() && w >= self.profiling_until {
            self.compute_plan(w, &opts);
        }
        if self.plan.is_some() {
            self.enforce_window(w, now, &opts);
        }
    }

    fn on_task_finish(&mut self, _task: &TaskSpec, finish: Ns) {
        self.apply_matured(finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;

    fn two_object_app(windows: u32) -> App {
        let mut b = AppBuilder::new("t");
        let hot = b.object("hot", 1 << 20);
        let cold = b.object("cold", 1 << 20);
        b.set_est_refs(hot, 1.0e8);
        b.set_est_refs(cold, 1.0e3);
        let c = b.class("sweep");
        for w in 0..windows {
            b.task(c)
                .read_streaming(hot, 100_000)
                .write_streaming(hot, 50_000)
                .read_streaming(cold, 10)
                .compute_us(1.0)
                .submit();
            if w + 1 < windows {
                b.next_window();
            }
        }
        b.build()
    }

    fn platform() -> Platform {
        Platform::emulated_bw(0.25, 1 << 20, 1 << 30).unwrap()
    }

    #[test]
    fn dram_only_places_everything_in_dram() {
        let app = two_object_app(3);
        let d = Driver::new(&app, &platform(), PolicyKind::DramOnly);
        assert_eq!(d.hms.objects_on(DRAM).len(), 2);
        assert_eq!(d.hms.objects_on(TierId(1)).len(), 0);
    }

    #[test]
    fn nvm_only_places_everything_in_nvm() {
        let app = two_object_app(3);
        let d = Driver::new(&app, &platform(), PolicyKind::NvmOnly);
        assert_eq!(d.hms.objects_on(TierId(1)).len(), 2);
    }

    #[test]
    fn first_touch_fills_dram_then_overflows() {
        let app = two_object_app(3); // 2 MB footprint, 1 MB DRAM
        let d = Driver::new(&app, &platform(), PolicyKind::FirstTouch);
        assert_eq!(d.hms.objects_on(DRAM).len(), 1);
        assert_eq!(d.hms.objects_on(TierId(1)).len(), 1);
        assert_eq!(d.hms.dram_fallbacks, 1);
    }

    #[test]
    fn static_offline_picks_the_hot_object() {
        let app = two_object_app(3);
        let d = Driver::new(&app, &platform(), PolicyKind::StaticOffline);
        let dram = d.hms.objects_on(DRAM);
        assert_eq!(dram.len(), 1);
        // Object 0 ("hot") must be the chosen one.
        assert_eq!(d.unit_parent[&dram[0]], 0);
    }

    #[test]
    fn tahoe_initial_placement_uses_compiler_estimates() {
        let app = two_object_app(3);
        let d = Driver::new(&app, &platform(), PolicyKind::tahoe());
        let dram = d.hms.objects_on(DRAM);
        assert_eq!(dram.len(), 1);
        assert_eq!(d.unit_parent[&dram[0]], 0, "the hot object");
    }

    #[test]
    fn tahoe_without_initial_placement_starts_in_nvm() {
        let app = two_object_app(3);
        let o = TahoeOptions {
            initial_placement: false,
            ..TahoeOptions::default()
        };
        let d = Driver::new(&app, &platform(), PolicyKind::Tahoe(o));
        assert_eq!(d.hms.objects_on(DRAM).len(), 0);
    }

    #[test]
    fn chunking_materializes_chunks() {
        let mut b = AppBuilder::new("t");
        let big = b.object_chunkable("big", 2 * CHUNK_BYTES + CHUNK_BYTES / 2);
        let c = b.class("s");
        b.task(c).read_streaming(big, 1000).submit();
        let app = b.build();
        let d = Driver::new(&app, &platform(), PolicyKind::tahoe());
        assert_eq!(d.units[0].len(), 3); // 512 + 512 + 256 KiB
        let total: u64 = d.units[0].iter().map(|&u| d.hms.size_of(u).unwrap()).sum();
        assert_eq!(total, 1280 << 10);
    }
}
