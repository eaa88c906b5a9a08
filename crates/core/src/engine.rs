//! The wall-clock execution engine's task kernel: the one copy of
//! "run a data-annotated task on real memory".
//!
//! Every measured execution — `run_policy` (one worker),
//! `run_policy_parallel` (one [`tahoe_taskrt::run_scoped`] job) and the
//! multi-tenant server (jobs on a shared [`tahoe_taskrt::TaskPool`]) —
//! runs its tasks through [`GraphRun::run_task`]: pin the task's objects
//! (the one data-readiness wait: the pin is granted once none of them is
//! mid-migration), run each declared access as real traffic at native
//! speed, inject the Quartz-style delay of the tier the object sits on,
//! record the access checksum in its slot, unpin. The callers differ
//! only in who owns the workers; what a task *does* lives here.
//!
//! * [`GraphLayout`] — what is fixed about one app on one memory system:
//!   the HMS id of every object, each task's pin set and checksum slots,
//!   and the [`AccessPrices`] its delays and every plan's values are
//!   read from. Built once (per run, or per registered tenant).
//! * [`GraphRun`] — one execution of that graph: seeded object
//!   initialisation, the checksum slots, the task kernel, the summed
//!   pin wait and the canonical [`GraphRun::checksum`].
//! * [`ClassQuota`] — when profiling ends: the completion that gives
//!   the last task class its quota of instances releases the audited
//!   plan to the migration thread, mid-window.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tahoe_hms::{Ns, ObjectId, SharedHms, TierId, TierSpec};
use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_obs::Event;
use tahoe_placement::Touch;
use tahoe_realmem::traffic;
// Part of `run_task`'s signature, so callers need not depend on the
// sanitizer crate to name the no-op hook.
pub use tahoe_sanitize::{NoSanitize, SanitizeHook};
use tahoe_taskrt::{TaskAccess, TaskClassId, TaskGraph, TaskSpec};

use crate::app::App;
use crate::config::MIN_CLASS_INSTANCES;
use crate::measured::{fold, init_seed, site_seed};

/// When the profiling phase ends: the paper profiles each task *class*
/// for a few executions and then migrates for the tasks still to come,
/// so the audited plan is released by the completion that gives the
/// last class its [`MIN_CLASS_INSTANCES`]-th instance — mid-window,
/// while the rest of that window keeps running — not at a window count.
///
/// A class's quota is `min(MIN_CLASS_INSTANCES, its instances in the
/// windows opened so far)`. Windows are barriers, so every class of the
/// first window that has tasks meets that quota by the window's end at
/// the latest: the release always falls inside that window, classes
/// that first appear later never hold it, and the quotas are a pure
/// function of the graph.
#[derive(Debug)]
pub struct ClassQuota {
    /// Instances class `c` still owes.
    owed: Vec<AtomicU32>,
    /// Classes still owing; 0 once the plan is released (and from the
    /// start when there is nothing to release).
    classes_owing: AtomicUsize,
}

impl ClassQuota {
    /// Quotas over `graph`'s first window that has tasks.
    pub fn new(graph: &TaskGraph) -> Self {
        // Tasks are stored in submission order, so windows only grow.
        let tasks = graph.tasks();
        let mut owed = vec![0u32; graph.class_count()];
        for t in tasks.iter().take_while(|t| t.window == tasks[0].window) {
            let o = &mut owed[t.class.index()];
            *o = (*o + 1).min(MIN_CLASS_INSTANCES);
        }
        ClassQuota {
            classes_owing: AtomicUsize::new(owed.iter().filter(|&&o| o > 0).count()),
            owed: owed.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// A quota that is already met: a run with no plan steps has
    /// nothing to release and pays one relaxed load per task.
    pub fn met() -> Self {
        ClassQuota {
            owed: Vec::new(),
            classes_owing: AtomicUsize::new(0),
        }
    }

    /// Whether every class has met its quota.
    pub fn is_met(&self) -> bool {
        self.classes_owing.load(Ordering::Relaxed) == 0
    }

    /// Count one completed instance of `class`. Returns `true` to
    /// exactly one caller: the one whose completion meets the last
    /// open quota, and who therefore releases the plan.
    ///
    /// The counters publish no data — the plan is immutable and the
    /// migrator's queue synchronises its own hand-off — so `Relaxed`
    /// suffices; each read-modify-write still has a single winner.
    pub fn task_done(&self, class: TaskClassId) -> bool {
        if self.is_met() {
            return false;
        }
        let paid_last =
            self.owed[class.index()]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |o| o.checked_sub(1))
                == Ok(1);
        paid_last && self.classes_owing.fetch_sub(1, Ordering::Relaxed) == 1
    }
}

/// What each access of a graph costs on each tier: the only place the
/// wall-clock side evaluates the model. Rows are the checksum slots of
/// [`GraphLayout`], the graph's accesses in task order.
#[derive(Debug, Clone)]
pub struct AccessPrices {
    /// Tiers priced, fastest first.
    tiers: usize,
    /// `ns[slot * tiers + t]`: the access in `slot` on tier `t`, ns.
    ns: Vec<f64>,
}

impl AccessPrices {
    /// Price every access of `graph` on every tier of `specs` (fastest
    /// first): memory time, times `cal`'s correction factor for the side
    /// of the roofline the access is on (`None`: the pure model).
    pub fn new(graph: &TaskGraph, specs: &[TierSpec], cal: Option<&WallClockCalibration>) -> Self {
        let slots: usize = graph.tasks().iter().map(|t| t.accesses.len()).sum();
        let mut ns = Vec::with_capacity(slots * specs.len());
        for a in graph.tasks().iter().flat_map(|t| &t.accesses) {
            for spec in specs {
                let cf = match cal {
                    None => 1.0,
                    Some(c) if a.profile.bandwidth_limited_on(spec) => c.cf_bw,
                    Some(c) => c.cf_lat,
                };
                ns.push(a.profile.mem_time_ns(spec) * cf);
            }
        }
        AccessPrices {
            tiers: specs.len(),
            ns,
        }
    }

    /// Every price, slot-major: `[slot * tiers + t]` is the access in
    /// `slot` on tier `t` — what the plan auditor's cost check reads.
    pub fn slot_major(&self) -> &[f64] {
        &self.ns
    }

    /// The delay [`GraphRun::run_task`] injects for the access in `slot`
    /// on `tier`: its price there less its price on the fastest tier, ≥ 0.
    pub fn delay_ns(&self, slot: usize, tier: TierId) -> f64 {
        let p = &self.ns[slot * self.tiers..][..self.tiers];
        (p[tier.index()] - p[0]).max(0.0)
    }

    /// The accesses of `graph`, the graph the table prices, in slot
    /// order, each with its prices.
    pub fn rows<'a>(
        &'a self,
        graph: &'a TaskGraph,
    ) -> impl Iterator<Item = (&'a TaskAccess, &'a [f64])> {
        let accesses = graph.tasks().iter().flat_map(|t| &t.accesses);
        accesses.zip(self.ns.chunks_exact(self.tiers))
    }

    /// What residence is worth to each object of `app`, whose graph the
    /// table prices, in one pass.
    pub fn values(&self, app: &App) -> ResidenceValues {
        let (graph, objects, last) = (&app.graph, app.objects.len(), self.tiers - 1);
        let mut per_tier = vec![vec![0.0f64; self.tiers]; objects];
        let mut touches: Vec<Vec<Touch>> = vec![Vec::new(); objects];
        let mut spill_window_ns = vec![0.0f64; graph.window_count() as usize];
        // `credited[i]`: the last task (+ 1) whose delay object `i`'s row
        // holds, so a task declaring an object twice counts once.
        let mut credited = vec![0usize; objects];
        // What residence on tier `t` saves an access over the slowest.
        let saved = |p: &[f64], t: usize| (p[last] - p[t]).max(0.0);
        let mut rows = self.ns.chunks_exact(self.tiers);
        // Tasks are stored in window order, so each row's windows ascend.
        for t in graph.tasks() {
            let task_prices = rows.clone().take(t.accesses.len());
            let task_delay: f64 = task_prices.map(|p| saved(p, 0)).sum();
            for (a, p) in t.accesses.iter().zip(rows.by_ref()) {
                let i = a.object.index();
                for (ti, v) in per_tier[i][..last].iter_mut().enumerate() {
                    *v += saved(p, ti);
                }
                spill_window_ns[t.window as usize] += p[last];
                let row = &mut touches[i];
                match row.last_mut() {
                    Some(touch) if touch.window == t.window => touch.saved_ns += saved(p, 0),
                    _ => row.push(Touch {
                        window: t.window,
                        saved_ns: saved(p, 0),
                        held_ns: 0.0,
                    }),
                }
                if credited[i] != t.id.index() + 1 {
                    credited[i] = t.id.index() + 1;
                    row.last_mut().expect("pushed above").held_ns += task_delay;
                }
            }
        }
        ResidenceValues {
            per_tier,
            touches,
            spill_window_ns,
        }
    }
}

/// What residence is worth to each object, by one [`AccessPrices`]: the
/// knapsack and the arbiter decide from the whole-run values, the
/// per-window planner ([`tahoe_placement::rotation`]) from the touches.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidenceValues {
    /// `per_tier[i][t]`: ns saved over the whole run by object `i` on
    /// tier `t` instead of the slowest tier, so the last column is 0.
    pub per_tier: Vec<Vec<f64>>,
    /// `touches[i]`: one [`Touch`] per window in which a task declares
    /// object `i`, windows ascending — ns saved by residence on the
    /// fastest tier instead of the slowest (summing to `per_tier[i][0]`),
    /// and the same saving over every access of the tasks declaring it.
    pub touches: Vec<Vec<Touch>>,
    /// Modelled memory time of each window with every object on the
    /// slowest tier, ns.
    pub spill_window_ns: Vec<f64>,
}

/// Per-(object, tier) wall-clock access timing, accumulated by the
/// workers during a measured run. The model-accuracy audit compares
/// `mean_nvm_ns - mean_dram_ns` (measured per-access saving of DRAM
/// residence) against the planner's prediction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessTierTiming {
    /// Total wall ns of accesses that hit the object on DRAM.
    pub dram_ns: f64,
    /// Number of those accesses.
    pub dram_samples: u64,
    /// Total wall ns of accesses that hit the object on a slower tier
    /// (includes the injected Quartz-style delay).
    pub nvm_ns: f64,
    /// Number of those accesses.
    pub nvm_samples: u64,
}

impl AccessTierTiming {
    /// Mean wall ns per DRAM access, if any were observed.
    pub fn mean_dram_ns(&self) -> Option<f64> {
        (self.dram_samples > 0).then(|| self.dram_ns / self.dram_samples as f64)
    }

    /// Mean wall ns per slower-tier access, if any were observed.
    pub fn mean_nvm_ns(&self) -> Option<f64> {
        (self.nvm_samples > 0).then(|| self.nvm_ns / self.nvm_samples as f64)
    }

    /// Measured per-access saving of DRAM over slower residence, ns —
    /// requires samples on both sides (Tahoe's promoted objects have
    /// both: NVM during profiling, DRAM after migration).
    pub fn measured_saving_ns(&self) -> Option<f64> {
        Some(self.mean_nvm_ns()? - self.mean_dram_ns()?)
    }
}

/// What is fixed about one app on one memory system.
#[derive(Debug)]
pub struct GraphLayout {
    /// HMS id of app object `i`.
    ids: Vec<ObjectId>,
    /// First checksum slot of each task. Slots are numbered in the
    /// canonical fold order of
    /// [`reference_checksum_seeded`](crate::measured::reference_checksum_seeded)
    /// (windows → window tasks → accesses), so folding them by index
    /// *is* the canonical re-fold.
    slot_base: Vec<usize>,
    /// Every task's pin set — the HMS ids of its objects, declaration
    /// order, deduplicated — back to back; task `t` owns
    /// `pin_ids[pin_base[t]..pin_base[t + 1]]`.
    pin_ids: Vec<ObjectId>,
    pin_base: Vec<usize>,
    /// Per checksum slot (= per access, so its length is the slot
    /// count): the index of the access's object within its task's pin
    /// set.
    access_pin: Vec<u32>,
    /// Accesses to app object `i` over the whole graph.
    accesses: Vec<u64>,
    /// Every slot's price on every tier: the delay model of
    /// [`GraphRun::run_task`].
    prices: AccessPrices,
}

impl GraphLayout {
    /// Lay out `graph` over the objects `ids` (indexed like the app's
    /// objects), its accesses priced by `prices` (built from `graph`).
    pub fn new(graph: &TaskGraph, ids: Vec<ObjectId>, prices: AccessPrices) -> Self {
        // Tasks are stored in window order (windows only grow at
        // submission), so one pass in task order numbers the slots in
        // the canonical order.
        let mut slot_base = Vec::with_capacity(graph.len());
        let mut pin_base = Vec::with_capacity(graph.len() + 1);
        let mut pin_ids = Vec::new();
        let mut access_pin = Vec::new();
        let mut accesses = vec![0; ids.len()];
        for task in graph.tasks() {
            slot_base.push(access_pin.len());
            pin_base.push(pin_ids.len());
            let objects = task.objects();
            pin_ids.extend(objects.iter().map(|o| ids[o.index()]));
            // Distinct `ObjectId`s (a `u32`) bound a pin set's size.
            access_pin.extend(task.accesses.iter().map(|a| {
                accesses[a.object.index()] += 1;
                let at = objects.iter().position(|o| *o == a.object);
                at.expect("objects() covers every access") as u32
            }));
        }
        pin_base.push(pin_ids.len());
        assert_eq!(prices.ns.len(), access_pin.len() * prices.tiers);
        GraphLayout {
            ids,
            slot_base,
            pin_ids,
            pin_base,
            access_pin,
            accesses,
            prices,
        }
    }

    /// HMS ids of the app's objects, in app order.
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }
}

/// What one executed task cost, for the caller's event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOutcome {
    /// Completion stamp on the shared HMS clock, ns.
    pub t: Ns,
    /// Wall-clock ns from pin to unpin.
    pub wall_ns: f64,
    /// Of that, ns spent blocked on in-flight migrations before the
    /// pins were granted; exactly `0.0` when nothing blocked.
    pub gate_wait_ns: f64,
}

impl TaskOutcome {
    /// The task's span on the event stream, for `worker`'s lane.
    pub fn worker_task(&self, tenant: u32, worker: usize, task: &TaskSpec) -> Event {
        Event::WorkerTask {
            t: self.t,
            tenant,
            worker: worker as u32,
            task: task.id.0,
            window: task.window,
            wall_ns: self.wall_ns,
            gate_wait_ns: self.gate_wait_ns,
        }
    }
}

/// One execution of a laid-out graph on a [`SharedHms`].
///
/// Workers fill the checksum slots in whatever order they race to;
/// [`GraphRun::checksum`] folds them in the canonical order, so the
/// result equals the sequential heap reference bit for bit at any
/// worker count, under any schedule and any migration plan.
#[derive(Debug)]
pub struct GraphRun {
    shared: Arc<SharedHms>,
    layout: Arc<GraphLayout>,
    run_seed: u64,
    init_sums: Vec<u64>,
    slots: Vec<AtomicU64>,
    /// Each object's size times one more than its access count: the
    /// init fill plus every access walks the whole object.
    bytes_touched: u64,
    /// Summed [`TaskOutcome::gate_wait_ns`], whole ns.
    gate_wait: AtomicU64,
    /// Access wall ns and sample counts per object: entry `2i` is DRAM,
    /// `2i + 1` any slower tier. Two relaxed adds per access.
    acc_ns: Vec<AtomicU64>,
    acc_n: Vec<AtomicU64>,
}

impl GraphRun {
    /// Begin an execution: (re-)initialise every object with the seeded
    /// deterministic fill — real traffic, the first touch the policies
    /// differ on — so each run starts from the bytes a solo run would.
    /// One [`traffic::init_fill_all`] fills every object, several
    /// objects' chains at once, on the calling thread.
    ///
    /// No task of an earlier run over the same objects may still be
    /// executing (runs of one layout are serialised by their driver).
    pub fn start(
        shared: Arc<SharedHms>,
        layout: Arc<GraphLayout>,
        run_seed: u64,
    ) -> Result<Self, String> {
        let (init_sums, bytes) = {
            let pins = shared
                .pin_for_task(&layout.ids)
                .map_err(|e| format!("pin objects for init: {e}"))?;
            // SAFETY: the pin blocks moves and frees, the arenas never
            // remap, distinct objects never share a byte, and no task of
            // this graph runs before `start` returns while runs over the
            // same objects are serialised — these are the only live
            // references to the objects' bytes.
            #[allow(unsafe_code)]
            let mut bufs: Vec<&mut [u8]> = pins
                .objects
                .iter()
                .map(|pin| unsafe { std::slice::from_raw_parts_mut(pin.as_ptr(), pin.len()) })
                .collect();
            let bytes = bufs
                .iter()
                .zip(&layout.accesses)
                .map(|(b, n)| b.len() as u64 * (1 + n))
                .sum::<u64>();
            (
                traffic::init_fill_all(&mut bufs, |i| init_seed(run_seed, i)),
                bytes,
            )
        };
        let atomics = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Ok(GraphRun {
            slots: atomics(layout.access_pin.len()),
            acc_ns: atomics(2 * layout.ids.len()),
            acc_n: atomics(2 * layout.ids.len()),
            bytes_touched: bytes,
            gate_wait: AtomicU64::new(0),
            shared,
            layout,
            run_seed,
            init_sums,
        })
    }

    /// Execute one task: pin its objects (waiting out any in-flight
    /// migration of them), run every declared access, unpin.
    ///
    /// Each access runs at native speed; residence on any tier slower
    /// than DRAM then injects the price *difference* between that device
    /// and the fast one ([`AccessPrices::delay_ns`], Quartz-style). Injecting
    /// the delta rather than flooring to an absolute model time keeps
    /// the asymmetry honest whatever the native kernels cost.
    pub fn run_task<S: SanitizeHook>(
        &self,
        task: &TaskSpec,
        hook: &S,
    ) -> Result<TaskOutcome, String> {
        let t0 = Instant::now();
        let l = &*self.layout;
        let ti = task.id.index();
        let slot_base = l.slot_base[ti];
        let pin_set = &l.pin_ids[l.pin_base[ti]..l.pin_base[ti + 1]];
        let pins = self
            .shared
            .pin_for_task(pin_set)
            .map_err(|e| format!("pin task {}: {e}", task.id.0))?;
        for (ai, access) in task.accesses.iter().enumerate() {
            let object = access.object.index();
            let pin = &pins.objects[l.access_pin[slot_base + ai] as usize];
            let inject_ns = l.prices.delay_ns(slot_base + ai, pin.tier);
            if S::ENABLED {
                hook.on_access(
                    task.id.0,
                    ai,
                    object as u32,
                    self.shared.is_mid_move(pin.id),
                );
            }
            let a_t0 = Instant::now();
            // SAFETY: the pin blocks moves and frees for the whole task,
            // the arenas never remap, and writes are exclusive by the
            // graph's derived dependences (a writer's task is ordered
            // against every other toucher of the object); graphs sharing
            // one `SharedHms` reach disjoint objects.
            #[allow(unsafe_code)]
            let c = unsafe {
                traffic::run_access_ptr(
                    pin.as_ptr(),
                    pin.len(),
                    access.profile.loads,
                    access.profile.stores,
                    site_seed(self.run_seed, task.id.0, ai),
                )
            };
            self.slots[slot_base + ai].store(c, Ordering::Release);
            if inject_ns > 0.0 {
                tahoe_realmem::throttle::pace_until(Instant::now(), inject_ns);
            }
            // Charge the access (kernel + injected delay) to the side
            // it actually hit.
            let side = 2 * object + usize::from(pin.tier != TierId::FASTEST);
            self.acc_ns[side].fetch_add(a_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.acc_n[side].fetch_add(1, Ordering::Relaxed);
        }
        let gate_wait_ns = pins.waited_ns;
        // RAII unpin: releases every pin even if a kernel above panicked
        // and we unwound past this point.
        drop(pins);
        if gate_wait_ns > 0.0 {
            // A statistic, publishing nothing; waits are whole ns.
            self.gate_wait
                .fetch_add(gate_wait_ns as u64, Ordering::Relaxed);
        }
        Ok(TaskOutcome {
            t: self.shared.now_ns(),
            wall_ns: t0.elapsed().as_nanos() as f64,
            gate_wait_ns,
        })
    }

    /// The run's checksum: object inits, then every access slot, folded
    /// in the canonical order. Call after every task has run.
    pub fn checksum(&self) -> u64 {
        let inits = self.init_sums.iter().copied();
        let accesses = self.slots.iter().map(|s| s.load(Ordering::Acquire));
        inits.chain(accesses).fold(0, fold)
    }

    /// Bytes of object data the run walks (init fill + every access),
    /// fixed by the graph and the object sizes.
    pub fn bytes_touched(&self) -> u64 {
        self.bytes_touched
    }

    /// Wall-clock ns tasks have spent blocked on in-flight migrations
    /// so far: the sum of every [`TaskOutcome::gate_wait_ns`] returned.
    pub fn gate_wait_ns(&self) -> f64 {
        self.gate_wait.load(Ordering::Relaxed) as f64
    }

    /// Per-object access timing, indexed like the app's objects.
    pub fn access_timing(&self) -> Vec<AccessTierTiming> {
        let ns = |i: usize| self.acc_ns[i].load(Ordering::Relaxed) as f64;
        let n = |i: usize| self.acc_n[i].load(Ordering::Relaxed);
        (0..self.layout.ids.len())
            .map(|i| AccessTierTiming {
                dram_ns: ns(2 * i),
                dram_samples: n(2 * i),
                nvm_ns: ns(2 * i + 1),
                nvm_samples: n(2 * i + 1),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use tahoe_hms::AccessProfile;
    use tahoe_taskrt::AccessMode;

    /// `per_window[w][c]` tasks of class `c` in window `w`.
    fn graph(per_window: &[&[usize]]) -> (TaskGraph, Vec<TaskClassId>) {
        let mut g = TaskGraph::new();
        let classes: Vec<_> = (0..per_window[0].len())
            .map(|c| g.class(&format!("c{c}")))
            .collect();
        for (w, counts) in per_window.iter().enumerate() {
            if w > 0 {
                g.mark_window();
            }
            for (c, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    let a = TaskAccess::new(ObjectId(0), AccessMode::Read, AccessProfile::EMPTY);
                    g.add_task(classes[c], vec![a], 0.0);
                }
            }
        }
        (g, classes)
    }

    #[test]
    fn layout_states_each_task_pin_set_once() {
        let mut g = TaskGraph::new();
        let c = g.class("c");
        let access = |o| TaskAccess::new(ObjectId(o), AccessMode::Read, AccessProfile::EMPTY);
        g.add_task(c, vec![access(2), access(0), access(2)], 0.0);
        g.mark_window();
        g.add_task(c, vec![access(1)], 0.0);
        // App object `i` lives at HMS id `10 + i`.
        let ids = (10..13).map(ObjectId).collect();
        let config = crate::config::Platform::optane(1 << 20, 1 << 22)
            .hms_config()
            .unwrap();
        let cal = WallClockCalibration::synthetic(1 << 20, 1 << 22);
        let prices = AccessPrices::new(&g, config.tier_specs(), Some(&cal));
        let l = GraphLayout::new(&g, ids, prices);
        // Declaration order, deduplicated, back to back.
        assert_eq!(l.pin_ids, [ObjectId(12), ObjectId(10), ObjectId(11)]);
        assert_eq!(l.pin_base, [0, 2, 3]);
        // Each access finds its object within its task's pin set.
        assert_eq!(l.access_pin, [0, 1, 0, 0]);
        assert_eq!(l.slot_base, [0, 3]);
    }

    /// One price per access: the whole-run values are the per-window
    /// savings' column sums, and the spill times add up to the all-NVM
    /// run.
    #[test]
    fn windowed_values_sum_to_the_whole_run_values() {
        let mut b = crate::app::AppBuilder::new("t");
        let x = b.object("x", 64 << 10);
        let y = b.object("y", 32 << 10);
        b.object("idle", 4096);
        let c = b.class("step");
        b.task(c)
            .read_streaming(x, 512)
            .update_streaming(y, 256)
            .submit();
        b.task(c).read_chasing(x, 64).submit();
        b.next_window();
        b.next_window();
        b.task(c).update_streaming(x, 1024).submit();
        let app = b.build();
        let cal = WallClockCalibration::synthetic(1 << 20, 1 << 22);
        let specs = [cal.dram.clone(), cal.nvm.clone()];
        let prices = AccessPrices::new(&app.graph, &specs, Some(&cal));
        let values = prices.values(&app);
        // Touched windows only, ascending; two tasks of one window fold.
        let windows = |i: usize| {
            let row = values.touches[i].iter();
            row.map(|t| t.window).collect::<Vec<_>>()
        };
        assert_eq!(
            (windows(0), windows(1), windows(2)),
            (vec![0, 2], vec![0], vec![])
        );
        // A row's held delay is that of every task declaring the object,
        // over all their accesses: window 0's two tasks for `x`, the
        // first for `y`. Slots 0 and 1 are task 0's, 2 task 1's, 3 task
        // 2's.
        let delay = |slots: std::ops::Range<usize>| -> f64 {
            slots.map(|s| prices.delay_ns(s, TierId(1))).sum()
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.max(1.0);
        assert!(close(values.touches[0][0].held_ns, delay(0..3)));
        assert!(close(values.touches[1][0].held_ns, delay(0..2)));
        assert!(close(values.touches[0][1].held_ns, delay(3..4)));
        for (i, row) in values.touches.iter().enumerate() {
            let sum: f64 = row.iter().map(|t| t.saved_ns).sum();
            assert!(close(sum, values.per_tier[i][0]), "object {i}");
            assert_eq!(values.per_tier[i][1], 0.0);
        }
        assert_eq!(values.spill_window_ns.len(), 3);
        assert_eq!(values.spill_window_ns[1], 0.0);
        let all_nvm: f64 = values.spill_window_ns.iter().sum();
        let expect: f64 = prices.rows(&app.graph).map(|(_, p)| p[1]).sum();
        assert!(close(all_nvm, expect));
    }

    #[test]
    fn quota_releases_on_the_slower_class() {
        let (g, c) = graph(&[&[4, 1]]);
        let q = ClassQuota::new(&g);
        assert!(!q.is_met());
        for _ in 0..4 {
            assert!(!q.task_done(c[0]), "class 1 has not run yet");
        }
        assert!(q.task_done(c[1]), "the last class to report releases");
        assert!(q.is_met());
        assert!(!q.task_done(c[0]), "released once, never again");
        assert!(!q.task_done(c[1]));
    }

    #[test]
    fn quota_is_the_min_of_the_constant_and_what_the_first_window_has() {
        // Class 1 runs once in the first window with tasks, class 2 only
        // later: neither can hold the release past that window.
        let (g, c) = graph(&[&[0, 0, 0], &[8, 1, 0], &[8, 8, 8]]);
        let q = ClassQuota::new(&g);
        let mut releases = 0;
        for class in std::iter::repeat_n(c[0], 8).chain([c[1]]) {
            releases += usize::from(q.task_done(class));
        }
        assert_eq!(releases, 1, "every first-window task ran");
        assert!(q.is_met());
        // Nothing to release: met from the start.
        assert!(ClassQuota::met().is_met());
        assert!(ClassQuota::new(&TaskGraph::new()).is_met());
    }

    #[test]
    fn exactly_one_concurrent_completion_releases() {
        for workers in [1usize, 2, 4] {
            let (g, c) = graph(&[&[64, 64, 64]]);
            let q = ClassQuota::new(&g);
            let gate = Barrier::new(workers);
            let releases: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|me| {
                        let (q, c, gate) = (&q, &c, &gate);
                        s.spawn(move || {
                            gate.wait();
                            (0..192)
                                .filter(|i| i % workers == me)
                                .filter(|i| q.task_done(c[i % 3]))
                                .count()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(releases, 1, "{workers} workers");
            assert!(q.is_met());
        }
    }
}
