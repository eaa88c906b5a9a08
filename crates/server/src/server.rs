//! The multi-tenant runtime server.
//!
//! One [`TahoeServer`] owns the process-wide runtime resources: a
//! shared [`TaskPool`] of workers, one [`SharedHms`] two-tier memory
//! system whose DRAM capacity is the *global* budget, and one
//! background migration engine. Tenants register once with an
//! [`App`] — their objects are allocated NVM-resident for the server's
//! lifetime — and then submit graph executions through their
//! [`TenantHandle`], concurrently with every other tenant.
//!
//! **Admission control.** Each submission passes through the arbiter
//! under one lock: per-tenant DRAM quotas are recomputed over the
//! currently *active* tenants ([`arbiter::quotas`]; a tenant is active
//! while a graph of its runs or queues and for one own-graph latency
//! after its last one finished — [`arbiter::Activity`]), the tenant's own
//! objects are re-planned with the knapsack solver against its quota,
//! and the resulting tier moves are handed to the FIFO migration
//! engine — space-freeing demotions strictly before the promotions
//! that need the space. A tenant whose previous graph is still running
//! queues (bounded by [`ServerConfig::max_queue`]) or is shed.
//!
//! **Preemption.** Quota modes may demote *other* tenants' DRAM
//! residents, but only objects held above their owner's current quota
//! — an idle tenant's quota is zero, so its cached hot set is
//! reclaimed when an active tenant needs the bytes, while an active
//! tenant can never be pushed below its guaranteed floor
//! (starvation-freeness, tested in [`crate::arbiter`]). Idleness starts
//! one submit→finish latency of the tenant's own last graph after that
//! graph finished, not at the instant it finished: a closed-loop client
//! is between graphs for microseconds on every cycle, and a quota
//! zeroed there lets every admission in the gap preempt a hot set that
//! is bought back one graph later.
//!
//! **Determinism.** Every graph execution re-initializes the tenant's
//! objects from the seeded fill and folds per-access checksums in the
//! canonical order of
//! [`reference_checksum_seeded`](tahoe_core::measured::reference_checksum_seeded)
//! — so a tenant's result under full cross-tenant contention, arbitrary
//! preemption and any worker interleaving is bit-identical to the same
//! app running alone.
//!
//! **Failure.** A graph whose task panics does not hang its ticket or
//! its tenant: the pool fails the job, the ticket is fulfilled with
//! [`GraphOutcome::failed`] set (and no checksum), `server.graphs_failed`
//! counts it, and the tenant's next queued graph is dispatched.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tahoe_core::app::App;
use tahoe_core::engine::{AccessPrices, GraphLayout, GraphRun, NoSanitize};
use tahoe_hms::{
    ContentionStats, Hms, HmsConfig, MigrationRecord, MigrationStats, Ns, ObjectId, SharedHms,
    TierId,
};
use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_obs::{
    json, BlameEntry, BlameTable, Emitter, Event, FlightRecorder, HistData, Histogram, Metrics,
};
use tahoe_placement::Item;
use tahoe_realmem::{BackgroundMigrator, RealBackend};
use tahoe_taskrt::{JobSpec, NoGate, TaskGraph, TaskPanic, TaskPool, TaskSpec};

use crate::arbiter::{self, Activity, QuotaPolicy, TenantDemand};
use crate::namespace::{self, AdmitError, Namespace};

/// How the server arbitrates the shared DRAM budget across tenants.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbiterMode {
    /// Quota-arbitrated: per-tenant quotas from [`arbiter::quotas`],
    /// enforced by the admission knapsack and over-quota preemption.
    Quota(QuotaPolicy),
    /// No arbitration: each admission may grab whatever DRAM is free
    /// (first come, first served — the rich-get-richer baseline the
    /// fairness bench compares against). No preemption ever happens.
    FreeForAll,
}

/// Server construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Worker threads in the shared pool (0 clamps to 1).
    pub workers: usize,
    /// Global DRAM budget in bytes, shared by all tenants.
    pub dram_budget: u64,
    /// NVM capacity in bytes; every tenant's full footprint must fit.
    pub nvm_capacity: u64,
    /// DRAM arbitration mode.
    pub mode: ArbiterMode,
    /// Graphs a tenant may hold queued behind a running one before
    /// further submissions are shed.
    pub max_queue: usize,
}

/// Registration-time description of a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (reports, traces).
    pub name: String,
    /// Arbitration weight (relative DRAM share).
    pub weight: f64,
}

impl TenantSpec {
    /// A tenant with the given name and weight.
    pub fn new(name: &str, weight: f64) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight,
        }
    }
}

/// Immutable per-tenant state fixed at registration.
struct TenantInfo {
    id: u32,
    name: String,
    weight: f64,
    graph: Arc<TaskGraph>,
    /// Global hms ids (by the tenant's local object index), checksum
    /// slots and delay model every execution of the graph shares.
    layout: Arc<GraphLayout>,
    sizes: Vec<u64>,
    /// Predicted whole-run value of DRAM residence per object.
    values: Vec<f64>,
    /// The objects with positive value as `(bytes, value)`, densest
    /// first: what the arbiter hands the leftover budget out by. Boxed:
    /// a `Vec`'s extra word moves this struct's `Arc` into a larger
    /// malloc class, which cost `serve_mix` 4 MiB of peak RSS in heap
    /// layout alone (DESIGN.md decision 21).
    demand: Box<[(u64, f64)]>,
}

/// Completed-execution record delivered through a [`GraphTicket`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphOutcome {
    /// Tenant that ran the graph.
    pub tenant: u32,
    /// Server-wide submission sequence number.
    pub graph: u64,
    /// Seed that parameterized the traffic.
    pub run_seed: u64,
    /// Canonical re-fold of every access checksum; must equal
    /// [`reference_checksum_seeded`](tahoe_core::measured::reference_checksum_seeded)
    /// for the tenant's app and seed. 0 when the graph [`failed`](Self::failed).
    pub checksum: u64,
    /// Why the graph did not run to completion (a task panicked); its
    /// partial results are discarded.
    pub failed: Option<String>,
    /// Submission wall time (server epoch, ns).
    pub submitted_ns: Ns,
    /// Admission wall time, ns.
    pub admitted_ns: Ns,
    /// Completion wall time, ns.
    pub finished_ns: Ns,
    /// `finished - submitted`: the latency the tenant observed.
    pub latency_ns: Ns,
    /// `admitted - submitted`: time spent queued behind the tenant's
    /// own previous graph.
    pub queue_wait_ns: Ns,
}

#[derive(Default)]
struct TicketCell {
    slot: Mutex<Option<GraphOutcome>>,
    cv: Condvar,
}

impl TicketCell {
    fn fulfil(&self, outcome: GraphOutcome) {
        let mut slot = self.slot.lock().expect("ticket slot");
        *slot = Some(outcome);
        self.cv.notify_all();
    }
}

/// Handle to one accepted (admitted or queued) graph submission.
pub struct GraphTicket {
    cell: Arc<TicketCell>,
}

impl GraphTicket {
    /// Block until the graph completed; returns its outcome.
    pub fn wait(&self) -> GraphOutcome {
        let mut slot = self.cell.slot.lock().expect("ticket slot");
        loop {
            if let Some(o) = slot.as_ref() {
                return o.clone();
            }
            slot = self.cell.cv.wait(slot).expect("ticket slot");
        }
    }
}

/// Result of [`TenantHandle::submit`].
pub enum Submission {
    /// Dispatched immediately.
    Admitted(GraphTicket),
    /// Accepted but queued behind the tenant's running graph.
    Queued(GraphTicket),
    /// Rejected: the tenant's queue was full.
    Shed {
        /// Tenant whose submission was shed.
        tenant: u32,
        /// Sequence number the submission would have had.
        graph: u64,
    },
}

impl Submission {
    /// The ticket, unless the submission was shed.
    pub fn ticket(&self) -> Option<&GraphTicket> {
        match self {
            Submission::Admitted(t) | Submission::Queued(t) => Some(t),
            Submission::Shed { .. } => None,
        }
    }

    /// Whether the submission was rejected.
    pub fn is_shed(&self) -> bool {
        matches!(self, Submission::Shed { .. })
    }
}

struct Pending {
    seq: u64,
    run_seed: u64,
    submitted_ns: Ns,
    ticket: Arc<TicketCell>,
}

/// Everything admission needs to hand a graph to the pool, computed
/// under the server lock but executed outside it (object init and
/// pool submission can block on in-flight migrations).
struct DispatchPlan {
    info: Arc<TenantInfo>,
    seq: u64,
    run_seed: u64,
    submitted_ns: Ns,
    ticket: Arc<TicketCell>,
    quota: u64,
}

struct TenantState {
    info: Arc<TenantInfo>,
    /// A graph of this tenant is currently dispatched.
    busy: bool,
    queue: VecDeque<Pending>,
    /// Local indices of objects the arbiter intends DRAM-resident.
    /// Intent, not ground truth: the invariant is that the sum of
    /// planned bytes across tenants never exceeds the budget, and
    /// every planned transition was enqueued to the FIFO migration
    /// engine with demotions ahead of the promotions they make room
    /// for — so the engine can always honour the intent.
    planned: BTreeSet<usize>,
    /// `(finished_ns, latency_ns)` of the last finished graph: the
    /// tenant keeps its quota for that long after going idle
    /// ([`Activity::is_active`]).
    last_graph: Option<(Ns, Ns)>,
    submitted: u64,
    completed: u64,
    shed: u64,
    /// Objects of *this* tenant demoted by other tenants' admissions.
    preempted: u64,
    promoted_bytes: u64,
    demoted_bytes: u64,
    last_quota: u64,
    hist: Histogram,
    latencies: Vec<f64>,
}

fn planned_bytes(t: &TenantState) -> u64 {
    t.planned.iter().map(|&i| t.info.sizes[i]).sum()
}

struct Inner {
    tenants: Vec<TenantState>,
    namespace: Namespace,
    seq: u64,
}

pub(crate) struct ServerShared {
    cfg: ServerConfig,
    cal: WallClockCalibration,
    hms_cfg: HmsConfig,
    hms: Arc<SharedHms>,
    emitter: Emitter,
    metrics: Metrics,
    pool: Mutex<Option<TaskPool>>,
    /// The pool's steal-search histogram (one lane per worker), kept
    /// only when metrics are on; folded into them at shutdown.
    steal_tap: Option<Arc<FlightRecorder>>,
    migrator: Mutex<Option<BackgroundMigrator>>,
    /// Rolling per-(object, tier) blame, fed by the migration engine's
    /// commit observer — readable while the server runs.
    blame: Arc<Mutex<BlameTable>>,
    inner: Mutex<Inner>,
}

/// Per-tenant slice of the final [`ServerReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Registration name.
    pub name: String,
    /// Arbitration weight.
    pub weight: f64,
    /// Graphs submitted (including shed ones).
    pub submitted: u64,
    /// Graphs run to completion.
    pub completed: u64,
    /// Submissions rejected with a full queue.
    pub shed: u64,
    /// This tenant's objects demoted by other tenants' admissions.
    pub preempted: u64,
    /// Bytes promoted to DRAM for this tenant.
    pub promoted_bytes: u64,
    /// Bytes demoted to NVM (self-demotions plus preemptions).
    pub demoted_bytes: u64,
    /// DRAM quota at the last arbitration this tenant saw.
    pub last_quota: u64,
    /// The tenant's objects (its own indices, ascending) resident in
    /// DRAM once the migration engine had drained at shutdown.
    pub dram_objects: Vec<u32>,
    /// Exact end-to-end latency of every completed graph, ns.
    pub latencies_ns: Vec<f64>,
    /// Log-bucketed digest of the same latencies (mergeable across
    /// runs, same shape the flight-recorder histograms use).
    pub hist: HistData,
}

/// Lifetime summary returned by [`TahoeServer::shutdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// One entry per registered tenant.
    pub tenants: Vec<TenantReport>,
    /// Shared pool statistics.
    pub pool: tahoe_taskrt::PoolStats,
    /// Wall-clock overlap accounting of all migrations.
    pub migration: MigrationStats,
    /// Migration requests that were moot (already resident, no space).
    pub migrations_skipped: u64,
    /// Lock-free pin/move contention counters.
    pub contention: ContentionStats,
    /// Server lifetime, ns.
    pub wall_ns: Ns,
}

impl ServerReport {
    /// Total graphs completed across tenants.
    pub fn completed_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total preemption demotions suffered across tenants.
    pub fn preempted_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.preempted).sum()
    }

    /// Total shed submissions across tenants.
    pub fn shed_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Jain fairness index over per-tenant completion counts.
    pub fn jain_by_completions(&self) -> f64 {
        let xs: Vec<f64> = self.tenants.iter().map(|t| t.completed as f64).collect();
        arbiter::jain(&xs)
    }
}

/// The long-lived multi-tenant runtime server.
pub struct TahoeServer {
    pub(crate) sh: Arc<ServerShared>,
}

/// A tenant's submission interface. Clone-free by design: one handle
/// per tenant, shareable by reference across driver threads.
pub struct TenantHandle {
    sh: Arc<ServerShared>,
    tenant: u32,
}

impl TahoeServer {
    /// Build the server: shared worker pool, shared two-tier memory
    /// (DRAM capacity = `cfg.dram_budget`, NVM = `cfg.nvm_capacity`)
    /// and the background migration engine, all tagged observability
    /// through `emitter`/`metrics`.
    pub fn new(
        cfg: ServerConfig,
        cal: WallClockCalibration,
        emitter: Emitter,
        metrics: Metrics,
    ) -> Result<Self, String> {
        let mut dram = cal.dram.clone();
        dram.capacity = cfg.dram_budget;
        let mut nvm = cal.nvm.clone();
        nvm.capacity = cfg.nvm_capacity;
        let hms_cfg = HmsConfig::derived(vec![dram, nvm]).map_err(|e| e.to_string())?;
        let backend = RealBackend::with_observability(&hms_cfg, emitter.clone(), metrics.clone())?;
        let copy_cfgs = backend.copy_configs();
        let mut hms = Hms::new(hms_cfg.clone());
        hms.set_backend(Box::new(backend));
        let hms = Arc::new(SharedHms::new(hms));
        // The engine's commit observer feeds the live blame table: the
        // telemetry plane sees each migration's overlap split the
        // moment it commits, not at shutdown.
        let blame = Arc::new(Mutex::new(BlameTable::default()));
        let table = Arc::clone(&blame);
        let n_tiers = hms_cfg.n_tiers();
        let migrator = BackgroundMigrator::spawn(
            Arc::clone(&hms),
            copy_cfgs,
            emitter.clone(),
            None,
            Some(Arc::new(move |rec: &MigrationRecord| {
                record_commit(&table, n_tiers, rec)
            })),
        );
        let steal_tap = metrics
            .is_enabled()
            .then(|| Arc::new(FlightRecorder::new(cfg.workers, 1, &["steal_ns"])));
        let pool = TaskPool::with_recorder(cfg.workers, steal_tap.clone());
        Ok(TahoeServer {
            sh: Arc::new(ServerShared {
                cfg,
                cal,
                hms_cfg,
                hms,
                emitter,
                metrics,
                pool: Mutex::new(Some(pool)),
                steal_tap,
                migrator: Mutex::new(Some(migrator)),
                blame,
                inner: Mutex::new(Inner {
                    tenants: Vec::new(),
                    namespace: Namespace::new(),
                    seq: 0,
                }),
            }),
        })
    }

    /// Register a tenant. Validates the app against the tenant's own
    /// namespace (any access outside it — the only way to name another
    /// tenant's memory — is rejected here, before anything is
    /// allocated or scheduled) and allocates its objects NVM-resident
    /// for the server's lifetime.
    pub fn register_tenant(&self, spec: TenantSpec, app: App) -> Result<TenantHandle, AdmitError> {
        let mut inner = self.sh.inner.lock().expect("server state");
        let tid = inner.tenants.len() as u32;
        namespace::validate_app(tid, &app)?;
        let mut ids: Vec<ObjectId> = Vec::with_capacity(app.objects.len());
        let mut fail: Option<AdmitError> = None;
        self.sh.hms.with(|hms| {
            for spec in &app.objects {
                match hms.alloc_object(
                    &format!("t{tid}.{}", spec.name),
                    spec.size,
                    self.sh.hms_cfg.last_tier(),
                    false,
                ) {
                    Ok(id) => ids.push(id),
                    Err(e) => {
                        fail = Some(AdmitError::AllocFailed {
                            tenant: tid,
                            object: spec.name.clone(),
                            detail: e.to_string(),
                        });
                        break;
                    }
                }
            }
            if fail.is_some() {
                // Roll back the partial registration.
                for id in &ids {
                    let _ = hms.free_object(*id);
                }
            }
        });
        if let Some(e) = fail {
            return Err(e);
        }
        inner.namespace.register(tid, &ids);

        // Predicted value of DRAM residence per object, as the single-
        // tenant planner prices it: by the delays the tasks will suffer.
        let prices =
            AccessPrices::new(&app.graph, self.sh.hms_cfg.tier_specs(), Some(&self.sh.cal));
        let values = prices.values(&app).per_tier;
        let values: Vec<f64> = values.iter().map(|v| v[0]).collect();
        let sizes: Vec<u64> = app.objects.iter().map(|o| o.size).collect();
        let demand = arbiter::by_density(&sizes, &values).into_boxed_slice();
        let layout = GraphLayout::new(&app.graph, ids, prices);
        let info = Arc::new(TenantInfo {
            id: tid,
            name: spec.name,
            weight: spec.weight,
            graph: Arc::new(app.graph),
            layout: Arc::new(layout),
            sizes,
            values,
            demand,
        });
        inner.tenants.push(TenantState {
            info,
            busy: false,
            queue: VecDeque::new(),
            planned: BTreeSet::new(),
            last_graph: None,
            submitted: 0,
            completed: 0,
            shed: 0,
            preempted: 0,
            promoted_bytes: 0,
            demoted_bytes: 0,
            last_quota: 0,
            hist: Histogram::new(),
            latencies: Vec::new(),
        });
        Ok(TenantHandle {
            sh: Arc::clone(&self.sh),
            tenant: tid,
        })
    }

    /// Number of registered tenants.
    pub fn tenants(&self) -> usize {
        self.sh.inner.lock().expect("server state").tenants.len()
    }

    /// Drain all in-flight and queued graphs, stop the pool and the
    /// migration engine, and return the lifetime report.
    pub fn shutdown(self) -> ServerReport {
        loop {
            let idle = {
                let inner = self.sh.inner.lock().expect("server state");
                inner.tenants.iter().all(|t| !t.busy && t.queue.is_empty())
            };
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let pool = self
            .sh
            .pool
            .lock()
            .expect("pool slot")
            .take()
            .expect("pool live until shutdown");
        let pool_stats = pool.shutdown();
        if pool_stats.threads_clamped {
            self.sh.metrics.inc("wsexec.threads_clamped");
        }
        if let Some(tap) = &self.sh.steal_tap {
            for (key, data) in &tap.drain().hists {
                self.sh.metrics.hist_fold(key, data);
            }
        }
        let mig = self
            .sh
            .migrator
            .lock()
            .expect("migrator slot")
            .take()
            .expect("migrator live until shutdown")
            .finish();
        let contention = self.sh.hms.contention();
        contention.fold_into(&self.sh.metrics);
        let wall_ns = self.sh.hms.now_ns();
        let inner = self.sh.inner.lock().expect("server state");
        let tenants = inner
            .tenants
            .iter()
            .map(|t| TenantReport {
                tenant: t.info.id,
                name: t.info.name.clone(),
                weight: t.info.weight,
                submitted: t.submitted,
                completed: t.completed,
                shed: t.shed,
                preempted: t.preempted,
                promoted_bytes: t.promoted_bytes,
                demoted_bytes: t.demoted_bytes,
                last_quota: t.last_quota,
                dram_objects: self.sh.hms.with(|hms| {
                    (0..t.info.sizes.len() as u32)
                        .filter(|&i| {
                            hms.tier_of(t.info.layout.ids()[i as usize]) == Ok(TierId::FASTEST)
                        })
                        .collect()
                }),
                latencies_ns: t.latencies.clone(),
                hist: t.hist.data(),
            })
            .collect();
        ServerReport {
            tenants,
            pool: pool_stats,
            migration: mig.stats,
            migrations_skipped: mig.skipped,
            contention,
            wall_ns,
        }
    }
}

impl TenantHandle {
    /// This handle's tenant id.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Submit one graph execution with the given traffic seed.
    ///
    /// Per-tenant executions are serialized (cross-tenant concurrency
    /// is the server's parallelism axis): if the tenant's previous
    /// graph is still running the submission queues, and once the
    /// queue holds [`ServerConfig::max_queue`] entries it is shed.
    ///
    /// An admitted graph's seeded init fill
    /// ([`GraphRun::start`](tahoe_core::engine::GraphRun::start), one
    /// pass over every object of the tenant) runs on the caller's
    /// thread before this returns; a queued graph's runs on the pool
    /// worker that finishes the tenant's previous graph.
    pub fn submit(&self, run_seed: u64) -> Submission {
        let submitted_ns = self.sh.hms.now_ns();
        let tid = self.tenant as usize;
        let (plan, cell) = {
            let mut inner = self.sh.inner.lock().expect("server state");
            inner.seq += 1;
            let seq = inner.seq;
            inner.tenants[tid].submitted += 1;
            let cell = Arc::new(TicketCell::default());
            let pend = Pending {
                seq,
                run_seed,
                submitted_ns,
                ticket: Arc::clone(&cell),
            };
            if inner.tenants[tid].busy {
                if inner.tenants[tid].queue.len() >= self.sh.cfg.max_queue {
                    inner.tenants[tid].shed += 1;
                    let queued = inner.tenants[tid].queue.len() as u32;
                    let (t, tenant) = (self.sh.hms.now_ns(), self.tenant);
                    self.sh.emitter.emit(|| Event::GraphShed {
                        t,
                        tenant,
                        graph: seq,
                        queued,
                    });
                    self.sh.metrics.add("server.graphs_shed", 1);
                    return Submission::Shed {
                        tenant: self.tenant,
                        graph: seq,
                    };
                }
                inner.tenants[tid].queue.push_back(pend);
                return Submission::Queued(GraphTicket { cell });
            }
            (self.sh.admit_locked(&mut inner, tid, pend), cell)
        };
        dispatch(&self.sh, plan);
        Submission::Admitted(GraphTicket { cell })
    }
}

/// Escape a tenant name for embedding in a Prometheus label value:
/// backslash escapes for `"`, `\` and newline, `\uXXXX` for every other
/// control character — so a hostile name cannot break the
/// one-sample-per-line exposition. (The journal's JSON goes through
/// `tahoe_obs::json`.)
fn label_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One [`TENANT_SERIES`] row.
type TenantSeries = (&'static str, &'static str, fn(&TenantState) -> u64);

/// The per-tenant counters both telemetry renderings list, in order, as
/// (key, `counter` or `gauge`, value): the `/metrics` family is
/// `tahoe_tenant_<key>`, plus `_total` for a counter, and the journal
/// field is `<key>`. Values are the same u64s the end-of-run
/// [`TenantReport`] snapshots — integer-formatted, so a scrape taken
/// while the server is idle matches the report bit for bit.
const TENANT_SERIES: [TenantSeries; 7] = [
    ("submitted", "counter", |t| t.submitted),
    ("completed", "counter", |t| t.completed),
    ("shed", "counter", |t| t.shed),
    ("preempted", "counter", |t| t.preempted),
    ("promoted_bytes", "counter", |t| t.promoted_bytes),
    ("demoted_bytes", "counter", |t| t.demoted_bytes),
    ("quota_bytes", "gauge", |t| t.last_quota),
];

/// One [`BLAME_SERIES`] row.
type BlameSeries = (&'static str, fn(&BlameEntry) -> f64);

/// The per-(object, tier) blame counters both telemetry renderings list,
/// in order, as (key, value): the `/metrics` family is
/// `tahoe_blame_<key>_total` and the journal field is `<key>`. The two
/// counts print as integers (exact below 2^53).
const BLAME_SERIES: [BlameSeries; 4] = [
    ("migrations", |e| e.migrations as f64),
    ("bytes", |e| e.bytes as f64),
    ("overlapped_ns", |e| e.overlapped_ns),
    ("exposed_ns", |e| e.exposed_ns),
];

/// Fold one committed copy into the live blame table, its destination
/// labelled against the server's `n_tiers`.
fn record_commit(blame: &Mutex<BlameTable>, n_tiers: usize, rec: &MigrationRecord) {
    blame.lock().expect("blame table").record_copy(
        rec.object.0,
        rec.to.label(n_tiers),
        rec.bytes,
        rec.overlapped_ns(),
        rec.exposed_ns(),
    );
}

impl ServerShared {
    /// Render the Prometheus-style text exposition served on the
    /// telemetry endpoint's `/metrics` path: per-tenant counters and
    /// quota state (bit-identical to what the final [`ServerReport`]
    /// will carry for the same instant), latency digests, server-wide
    /// totals, and the rolling blame top-`blame_top_k`.
    pub(crate) fn telemetry_text(&self, blame_top_k: usize) -> String {
        use std::fmt::Write as _;
        let now = self.hms.now_ns();
        let inner = self.inner.lock().expect("server state");
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE tahoe_server_uptime_ns gauge");
        let _ = writeln!(out, "tahoe_server_uptime_ns {now}");
        let _ = writeln!(out, "# TYPE tahoe_server_tenants gauge");
        let _ = writeln!(out, "tahoe_server_tenants {}", inner.tenants.len());

        for (key, kind, get) in TENANT_SERIES {
            let total = if kind == "counter" { "_total" } else { "" };
            let _ = writeln!(out, "# TYPE tahoe_tenant_{key}{total} {kind}");
            for t in &inner.tenants {
                let _ = writeln!(
                    out,
                    "tahoe_tenant_{key}{total}{{tenant=\"{}\",name=\"{}\"}} {}",
                    t.info.id,
                    label_escape(&t.info.name),
                    get(t)
                );
            }
        }

        // Latency digests from the same log-bucketed histograms the
        // report embeds.
        let _ = writeln!(out, "# TYPE tahoe_tenant_latency_ns summary");
        for t in &inner.tenants {
            let s = t.hist.data().summary();
            let labels = format!(
                "tenant=\"{}\",name=\"{}\"",
                t.info.id,
                label_escape(&t.info.name)
            );
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                let _ = writeln!(
                    out,
                    "tahoe_tenant_latency_ns{{{labels},quantile=\"{q}\"}} {v}"
                );
            }
            let _ = writeln!(out, "tahoe_tenant_latency_ns_count{{{labels}}} {}", s.count);
            let _ = writeln!(out, "tahoe_tenant_latency_ns_max{{{labels}}} {}", s.max);
        }
        drop(inner);

        // Rolling blame top-K: worst exposed stall time first, labelled
        // by global HMS object id and destination tier.
        let top = self.blame.lock().expect("blame table").top_k(blame_top_k);
        for (key, get) in BLAME_SERIES {
            let _ = writeln!(out, "# TYPE tahoe_blame_{key}_total counter");
            for e in &top {
                let _ = writeln!(
                    out,
                    "tahoe_blame_{key}_total{{object=\"{}\",tier=\"{}\"}} {}",
                    e.object,
                    e.tier,
                    get(e)
                );
            }
        }
        out
    }

    /// One JSONL snapshot line for the telemetry journal: the same
    /// per-tenant counters and blame top-K as the text exposition, as a
    /// single self-contained JSON object.
    pub(crate) fn telemetry_json(&self, blame_top_k: usize) -> String {
        let now = self.hms.now_ns();
        let top = self.blame.lock().expect("blame table").top_k(blame_top_k);
        json::object(|w| {
            w.field("schema", "tahoe-telemetry/v1").field("t_ns", now);
            let mut tenants = w.array("tenants");
            for t in &self.inner.lock().expect("server state").tenants {
                let s = t.hist.data().summary();
                let mut o = tenants.object(None);
                o.field("tenant", t.info.id).field("name", &t.info.name);
                for (key, _, get) in TENANT_SERIES {
                    o.field(key, get(t));
                }
                o.field("latency_p50_ns", s.p50)
                    .field("latency_p99_ns", s.p99);
            }
            drop(tenants);
            let mut blame = w.array("blame");
            for e in &top {
                let mut o = blame.object(None);
                o.field("object", e.object).field("tier", e.tier);
                for (key, get) in BLAME_SERIES {
                    o.field(key, get(e));
                }
            }
        })
    }

    /// Arbitrate and plan one admission. Caller holds the server lock
    /// and has verified the tenant is not busy; this marks it busy,
    /// recomputes quotas, re-plans the tenant's placement within its
    /// quota, preempts over-quota victims if allowed, and enqueues the
    /// ordered move list to the FIFO migration engine — all under the
    /// lock, so concurrent admissions observe consistent intent and
    /// the engine sees space-freeing demotions before the promotions
    /// that rely on them.
    fn admit_locked(&self, inner: &mut Inner, tid: usize, pend: Pending) -> DispatchPlan {
        inner.tenants[tid].busy = true;
        let budget = self.cfg.dram_budget;
        let now = self.hms.now_ns();
        let total_planned: u64 = inner.tenants.iter().map(planned_bytes).sum();
        let mut free = budget.saturating_sub(total_planned);
        let quotas: Option<Vec<u64>> = match &self.cfg.mode {
            ArbiterMode::Quota(policy) => {
                let demands: Vec<TenantDemand> = inner
                    .tenants
                    .iter()
                    .map(|t| TenantDemand {
                        weight: t.info.weight,
                        objects: &t.info.demand,
                        active: Activity {
                            busy: t.busy,
                            queued: !t.queue.is_empty(),
                            last_graph: t.last_graph,
                        }
                        .is_active(now),
                    })
                    .collect();
                let q = arbiter::quotas(policy, budget, &demands);
                for (i, t) in inner.tenants.iter_mut().enumerate() {
                    if q[i] != t.last_quota {
                        t.last_quota = q[i];
                        let (tenant, demand) = (t.info.id, &t.info.demand);
                        self.emitter.emit(|| Event::TenantQuota {
                            t: now,
                            tenant,
                            quota_bytes: q[i],
                            demand_bytes: demand.iter().map(|o| o.0).sum(),
                        });
                    }
                }
                Some(q)
            }
            ArbiterMode::FreeForAll => None,
        };
        let info = Arc::clone(&inner.tenants[tid].info);
        let cap = match &quotas {
            Some(q) => q[tid],
            // Free-for-all: keep what you have, grab what's free.
            None => planned_bytes(&inner.tenants[tid]) + free,
        };
        let items: Vec<Item> = info
            .sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| Item {
                id: ObjectId(i as u32),
                size,
                value: info.values[i],
            })
            .collect();
        let solution = tahoe_placement::solve(&items, cap);
        let chosen: BTreeSet<usize> = solution.chosen.iter().map(|o| o.index()).collect();
        let (dram, nvm) = (TierId::FASTEST, self.hms_cfg.last_tier());
        let mut moves: Vec<(ObjectId, TierId)> = Vec::new();

        // Self-demotions: planned residents the new plan dropped.
        let drops: Vec<usize> = inner.tenants[tid]
            .planned
            .iter()
            .copied()
            .filter(|i| !chosen.contains(i))
            .collect();
        for i in drops {
            inner.tenants[tid].planned.remove(&i);
            inner.tenants[tid].demoted_bytes += info.sizes[i];
            free += info.sizes[i];
            moves.push((info.layout.ids()[i], nvm));
        }

        // Promotions, highest predicted value first; under quota modes
        // make room by preempting objects other tenants hold above
        // their own quota (lowest-value victim first), otherwise drop
        // promotions that do not fit.
        let mut promote: Vec<usize> = chosen
            .iter()
            .copied()
            .filter(|i| !inner.tenants[tid].planned.contains(i))
            .collect();
        promote.sort_by(|a, b| {
            info.values[*b]
                .partial_cmp(&info.values[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in promote {
            let sz = info.sizes[i];
            if let Some(q) = &quotas {
                while free < sz {
                    let mut best: Option<(usize, usize, f64)> = None;
                    for (j, t) in inner.tenants.iter().enumerate() {
                        if j == tid || planned_bytes(t) <= q[j] {
                            continue;
                        }
                        for &oi in &t.planned {
                            let v = t.info.values[oi];
                            if best.is_none_or(|(_, _, bv)| v < bv) {
                                best = Some((j, oi, v));
                            }
                        }
                    }
                    let Some((j, oi, _)) = best else { break };
                    let victim = &mut inner.tenants[j];
                    victim.planned.remove(&oi);
                    victim.preempted += 1;
                    let bytes = victim.info.sizes[oi];
                    victim.demoted_bytes += bytes;
                    free += bytes;
                    moves.push((victim.info.layout.ids()[oi], nvm));
                    let tenant = victim.info.id;
                    self.emitter.emit(|| Event::TenantPreempt {
                        t: now,
                        tenant,
                        object: oi as u32,
                        bytes,
                    });
                    self.metrics.add("server.preemptions", 1);
                }
            }
            if free >= sz {
                inner.tenants[tid].planned.insert(i);
                inner.tenants[tid].promoted_bytes += sz;
                free -= sz;
                moves.push((info.layout.ids()[i], dram));
            }
        }

        if !moves.is_empty() {
            let mig = self.migrator.lock().expect("migrator slot");
            let mig = mig.as_ref().expect("migrator live until shutdown");
            for (id, tier) in &moves {
                mig.enqueue(*id, *tier);
            }
        }
        DispatchPlan {
            info,
            seq: pend.seq,
            run_seed: pend.run_seed,
            submitted_ns: pend.submitted_ns,
            ticket: pend.ticket,
            quota: cap,
        }
    }
}

/// Execute an admission plan: emit the admission event, re-initialize
/// the tenant's objects with the seeded deterministic fill, and hand
/// the graph to the shared pool. Runs outside the server lock (the
/// init fill and pool hand-off may block briefly on in-flight
/// migrations of the same objects).
fn dispatch(sh: &Arc<ServerShared>, plan: DispatchPlan) {
    let DispatchPlan {
        info,
        seq,
        run_seed,
        submitted_ns,
        ticket,
        quota,
    } = plan;
    let tenant = info.id;
    let admitted_ns = sh.hms.now_ns();
    let queue_wait_ns = (admitted_ns - submitted_ns).max(0.0);
    sh.emitter.emit(|| Event::GraphAdmitted {
        t: admitted_ns,
        tenant,
        graph: seq,
        queue_wait_ns,
        quota_bytes: quota,
    });

    // Seeded re-init: every execution starts from the same fill a solo
    // run would, so the canonical checksum is comparable run to run.
    // Per-tenant serialization plus cross-tenant disjointness (the
    // namespace check at admission) make this graph the only toucher of
    // its objects.
    let run = Arc::new(
        GraphRun::start(Arc::clone(&sh.hms), Arc::clone(&info.layout), run_seed)
            .expect("tenant objects are never freed"),
    );

    let work = {
        let sh = Arc::clone(sh);
        let run = Arc::clone(&run);
        Arc::new(move |worker: usize, tag: u32, task: &TaskSpec| {
            let out = run
                .run_task(task, &NoSanitize)
                .expect("tenant objects are never freed");
            sh.emitter.emit(|| out.worker_task(tag, worker, task));
        })
    };

    let on_done = {
        let sh = Arc::clone(sh);
        let run = Arc::clone(&run);
        Box::new(move |failure: Option<&TaskPanic>| {
            // A failed graph's partial checksum is never a result.
            let failed = failure.map(ToString::to_string);
            let checksum = if failed.is_some() { 0 } else { run.checksum() };
            let finished_ns = sh.hms.now_ns();
            let latency_ns = (finished_ns - submitted_ns).max(0.0);
            let wall_ns = (finished_ns - admitted_ns).max(0.0);
            sh.emitter.emit(|| Event::GraphDone {
                t: finished_ns,
                tenant,
                graph: seq,
                latency_ns,
                wall_ns,
            });
            let counter = match failed {
                Some(_) => "server.graphs_failed",
                None => "server.graphs_completed",
            };
            sh.metrics.add(counter, 1);
            let next = {
                let mut inner = sh.inner.lock().expect("server state");
                {
                    let st = &mut inner.tenants[tenant as usize];
                    if failed.is_none() {
                        st.completed += 1;
                        st.latencies.push(latency_ns);
                        st.hist.record(latency_ns);
                    }
                    st.busy = false;
                    st.last_graph = Some((finished_ns, latency_ns));
                }
                let pend = inner.tenants[tenant as usize].queue.pop_front();
                pend.map(|p| sh.admit_locked(&mut inner, tenant as usize, p))
            };
            // Fulfil before dispatching the next queued graph so a
            // closed-loop submitter wakes as soon as its result exists.
            ticket.fulfil(GraphOutcome {
                tenant,
                graph: seq,
                run_seed,
                checksum,
                failed,
                submitted_ns,
                admitted_ns,
                finished_ns,
                latency_ns,
                queue_wait_ns,
            });
            if let Some(p) = next {
                dispatch(&sh, p);
            }
        })
    };

    let job = JobSpec {
        tag: tenant,
        graph: Arc::clone(&info.graph),
        gate: Arc::new(NoGate),
        work,
        on_window: None,
        on_done: Some(on_done),
    };
    let pool = sh.pool.lock().expect("pool slot");
    pool.as_ref().expect("pool live until shutdown").submit(job);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_core::app::AppBuilder;

    #[test]
    fn hostile_tenant_name_breaks_neither_exposition_nor_journal() {
        let cal = WallClockCalibration::synthetic(1 << 20, 1 << 24);
        let cfg = ServerConfig {
            workers: 1,
            dram_budget: 64 << 10,
            nvm_capacity: 1 << 24,
            mode: ArbiterMode::FreeForAll,
            max_queue: 1,
        };
        let srv =
            TahoeServer::new(cfg, cal, Emitter::disabled(), Metrics::disabled()).expect("server");
        let name = "a\"b\nc\r\u{1}";
        let mut b = AppBuilder::new("t");
        let x = b.object("x", 4096);
        let c = b.class("step");
        b.task(c).update_streaming(x, 8).submit();
        let handle = srv
            .register_tenant(TenantSpec::new(name, 1.0), b.build())
            .expect("register");
        handle.submit(1).ticket().expect("admitted").wait();

        // Every exposition line is a comment or `name{labels} value`
        // whose label section closes its quotes and whose value parses.
        let text = srv.sh.telemetry_text(4);
        let mut labelled = 0;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
            if let Some((_, labels)) = series.split_once('{') {
                let labels = labels.strip_suffix('}').expect("labels close");
                let unescaped = labels.replace("\\\\", "").replace("\\\"", "");
                assert_eq!(unescaped.matches('"').count() % 2, 0, "{line:?}");
                labelled += 1;
            }
        }
        assert!(labelled > 0, "tenant series present");

        // The journal snapshot is one line, valid JSON, and round-trips
        // the name exactly.
        let json = srv.sh.telemetry_json(4);
        assert_eq!(json.lines().count(), 1);
        let doc = tahoe_obs::json::parse(&json).expect("journal line parses");
        let tenants = doc
            .get("tenants")
            .and_then(|t| t.as_array())
            .expect("tenants");
        assert_eq!(tenants[0].get("name").and_then(|n| n.as_str()), Some(name));
        srv.shutdown();
    }

    /// The `/metrics` text and one journal line, byte for byte, for two
    /// tenants (the second with a hostile name) holding distinct counter
    /// values, one latency sample each and two blame lines. The uptime
    /// sample and `t_ns` read the clock and are left out.
    #[test]
    fn telemetry_exposition_and_journal_are_pinned() {
        let cal = WallClockCalibration::synthetic(1 << 20, 1 << 24);
        let cfg = ServerConfig {
            workers: 1,
            dram_budget: 64 << 10,
            nvm_capacity: 1 << 24,
            mode: ArbiterMode::FreeForAll,
            max_queue: 1,
        };
        let srv =
            TahoeServer::new(cfg, cal, Emitter::disabled(), Metrics::disabled()).expect("server");
        for name in ["plain", "a\"b\\\nc\r\u{1}"] {
            let mut b = AppBuilder::new("t");
            let x = b.object("x", 4096);
            let c = b.class("step");
            b.task(c).update_streaming(x, 8).submit();
            srv.register_tenant(TenantSpec::new(name, 1.0), b.build())
                .expect("register");
        }
        for (k, t) in srv.sh.inner.lock().unwrap().tenants.iter_mut().enumerate() {
            let base = 10 * k as u64;
            t.submitted = base + 1;
            t.completed = base + 2;
            t.shed = base + 3;
            t.preempted = base + 4;
            t.promoted_bytes = base + 5;
            t.demoted_bytes = base + 6;
            t.last_quota = base + 7;
            t.hist.record(1000.0 * (k + 1) as f64);
        }
        for (object, to, needed) in [(3, 0, 40.0), (5, 1, 90.0)] {
            let rec = MigrationRecord {
                object: ObjectId(object),
                bytes: 4096,
                from: TierId(1 - to),
                to: TierId(to),
                issued_at: 0.0,
                start: 0.0,
                finish: 100.0,
                needed_at: Some(needed),
            };
            record_commit(&srv.sh.blame, 2, &rec);
        }

        let text: String = srv
            .sh
            .telemetry_text(10)
            .lines()
            .filter(|l| !l.starts_with("tahoe_server_uptime_ns "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(text, PINNED_TEXT, "\n{text}");
        let json = srv.sh.telemetry_json(10);
        let (head, rest) = json.split_once(",\"t_ns\":").expect("t_ns");
        let json = format!("{head}{}", &rest[rest.find(',').expect("after t_ns")..]);
        assert_eq!(json, PINNED_JSON, "\n{json}");
        srv.shutdown();
    }

    const PINNED_TEXT: &str = r#"# TYPE tahoe_server_uptime_ns gauge
# TYPE tahoe_server_tenants gauge
tahoe_server_tenants 2
# TYPE tahoe_tenant_submitted_total counter
tahoe_tenant_submitted_total{tenant="0",name="plain"} 1
tahoe_tenant_submitted_total{tenant="1",name="a\"b\\\nc\u000d\u0001"} 11
# TYPE tahoe_tenant_completed_total counter
tahoe_tenant_completed_total{tenant="0",name="plain"} 2
tahoe_tenant_completed_total{tenant="1",name="a\"b\\\nc\u000d\u0001"} 12
# TYPE tahoe_tenant_shed_total counter
tahoe_tenant_shed_total{tenant="0",name="plain"} 3
tahoe_tenant_shed_total{tenant="1",name="a\"b\\\nc\u000d\u0001"} 13
# TYPE tahoe_tenant_preempted_total counter
tahoe_tenant_preempted_total{tenant="0",name="plain"} 4
tahoe_tenant_preempted_total{tenant="1",name="a\"b\\\nc\u000d\u0001"} 14
# TYPE tahoe_tenant_promoted_bytes_total counter
tahoe_tenant_promoted_bytes_total{tenant="0",name="plain"} 5
tahoe_tenant_promoted_bytes_total{tenant="1",name="a\"b\\\nc\u000d\u0001"} 15
# TYPE tahoe_tenant_demoted_bytes_total counter
tahoe_tenant_demoted_bytes_total{tenant="0",name="plain"} 6
tahoe_tenant_demoted_bytes_total{tenant="1",name="a\"b\\\nc\u000d\u0001"} 16
# TYPE tahoe_tenant_quota_bytes gauge
tahoe_tenant_quota_bytes{tenant="0",name="plain"} 7
tahoe_tenant_quota_bytes{tenant="1",name="a\"b\\\nc\u000d\u0001"} 17
# TYPE tahoe_tenant_latency_ns summary
tahoe_tenant_latency_ns{tenant="0",name="plain",quantile="0.5"} 768
tahoe_tenant_latency_ns{tenant="0",name="plain",quantile="0.9"} 768
tahoe_tenant_latency_ns{tenant="0",name="plain",quantile="0.99"} 768
tahoe_tenant_latency_ns_count{tenant="0",name="plain"} 1
tahoe_tenant_latency_ns_max{tenant="0",name="plain"} 1000
tahoe_tenant_latency_ns{tenant="1",name="a\"b\\\nc\u000d\u0001",quantile="0.5"} 1536
tahoe_tenant_latency_ns{tenant="1",name="a\"b\\\nc\u000d\u0001",quantile="0.9"} 1536
tahoe_tenant_latency_ns{tenant="1",name="a\"b\\\nc\u000d\u0001",quantile="0.99"} 1536
tahoe_tenant_latency_ns_count{tenant="1",name="a\"b\\\nc\u000d\u0001"} 1
tahoe_tenant_latency_ns_max{tenant="1",name="a\"b\\\nc\u000d\u0001"} 2000
# TYPE tahoe_blame_migrations_total counter
tahoe_blame_migrations_total{object="3",tier="dram"} 1
tahoe_blame_migrations_total{object="5",tier="nvm"} 1
# TYPE tahoe_blame_bytes_total counter
tahoe_blame_bytes_total{object="3",tier="dram"} 4096
tahoe_blame_bytes_total{object="5",tier="nvm"} 4096
# TYPE tahoe_blame_overlapped_ns_total counter
tahoe_blame_overlapped_ns_total{object="3",tier="dram"} 40
tahoe_blame_overlapped_ns_total{object="5",tier="nvm"} 90
# TYPE tahoe_blame_exposed_ns_total counter
tahoe_blame_exposed_ns_total{object="3",tier="dram"} 60
tahoe_blame_exposed_ns_total{object="5",tier="nvm"} 10
"#;
    const PINNED_JSON: &str = r#"{"schema":"tahoe-telemetry/v1","tenants":[{"tenant":0,"name":"plain","submitted":1,"completed":2,"shed":3,"preempted":4,"promoted_bytes":5,"demoted_bytes":6,"quota_bytes":7,"latency_p50_ns":768,"latency_p99_ns":768},{"tenant":1,"name":"a\"b\\\nc\r\u0001","submitted":11,"completed":12,"shed":13,"preempted":14,"promoted_bytes":15,"demoted_bytes":16,"quota_bytes":17,"latency_p50_ns":1536,"latency_p99_ns":1536}],"blame":[{"object":3,"tier":"dram","migrations":1,"bytes":4096,"overlapped_ns":40,"exposed_ns":60},{"object":5,"tier":"nvm","migrations":1,"bytes":4096,"overlapped_ns":90,"exposed_ns":10}]}"#;
}
