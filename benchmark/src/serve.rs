//! `serve_mix`: three closed-loop tenants on one `TahoeServer`.
//!
//! Each tenant has one client thread that submits a graph, blocks until
//! its outcome arrives, and submits the next — one graph in flight per
//! tenant. Tenant 2 goes idle for the middle third of the serving
//! window, so idle decay, preemption of its cached DRAM and re-promotion
//! on return all happen. The batch-shaped end-to-end metrics come from a
//! stand-in: tenant 0's app alone through `run_policy_parallel`, in the
//! same paired rounds as the batch workloads, before the server phase.

use std::time::{Duration, Instant};

use tahoe_core::measured::reference_checksum_seeded;
use tahoe_obs::{Emitter, Metrics};
use tahoe_server::{ArbiterMode, QuotaPolicy, ServerConfig, TahoeServer, TenantHandle, TenantSpec};

use crate::batch::{self, Prepared};
use crate::gen::{self, Generated};
use crate::json::J;
use crate::run::{set_up, RunConfig, Samples, Tally, TRACED_ROUNDS_SHARE};
use crate::spans::Tracer;
use crate::stats;

const TENANTS: usize = 3;
const WEIGHTS: [f64; TENANTS] = [2.0, 1.0, 1.0];

/// Distinct run seeds a tenant cycles through; every one has its solo
/// reference checksum computed in set-up.
const SEEDS_PER_TENANT: usize = 8;

/// Share of the measuring window the stand-in rounds take; the server
/// phase takes the rest.
const STAND_IN_SHARE: f64 = 0.4;

/// Samples required beyond the tail percentile of graph latency.
const TAIL_BEYOND: usize = 100;

struct Serving {
    server: TahoeServer,
    handles: Vec<TenantHandle>,
    /// `(run seed, solo reference checksum)` per tenant.
    seeds: Vec<Vec<(u64, u64)>>,
    stand_in: Prepared,
}

fn setup_once(
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
) -> Result<Serving, String> {
    let (_, workers) = batch::worker_budget();
    // The stand-in: tenant 0's app, alone, through the batch engine.
    let t0 = Instant::now();
    let app0 = tr.scope("gen.app", 0, |_| gen::tenant_app(seed, 0));
    s.push("taskrt.graph_build_ms", t0.elapsed().as_secs_f64() * 1e3);
    let stand_in = batch::setup_once(
        Generated {
            app: app0,
            run_seed: gen::graph_seed(seed, 0, 0),
        },
        tr,
        tally,
        s,
    )?;

    let apps: Vec<_> = (0..TENANTS as u32)
        .map(|t| gen::tenant_app(seed, t))
        .collect();
    let seeds: Vec<Vec<(u64, u64)>> = tr.scope("core.reference_checksum", 0, |_| {
        apps.iter()
            .enumerate()
            .map(|(t, app)| {
                (0..SEEDS_PER_TENANT as u64)
                    .map(|n| {
                        let rs = gen::graph_seed(seed, t as u32, n);
                        (rs, reference_checksum_seeded(app, rs))
                    })
                    .collect()
            })
            .collect()
    });

    let combined: u64 = apps.iter().map(|a| a.footprint()).sum();
    let budget = gen::dram_budget(combined);
    let nvm_capacity = 2 * combined;
    let server = tr.scope("server.new", 0, |_| {
        TahoeServer::new(
            ServerConfig {
                workers,
                dram_budget: budget,
                nvm_capacity,
                mode: ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 }),
                max_queue: 1,
            },
            gen::pinned_calibration(budget, nvm_capacity),
            Emitter::disabled(),
            Metrics::disabled(),
        )
    })?;
    let t0 = Instant::now();
    let handles = tr.scope("server.register", 0, |_| {
        apps.into_iter()
            .enumerate()
            .map(|(t, app)| {
                server
                    .register_tenant(TenantSpec::new(&format!("tenant{t}"), WEIGHTS[t]), app)
                    .map_err(|e| format!("register tenant {t}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    s.push("server.register_ms", t0.elapsed().as_secs_f64() * 1e3);

    // Warm-up: one graph per tenant, discarded (but still checked).
    let mut warm = Vec::new();
    for (t, h) in handles.iter().enumerate() {
        let mut c = Client::new(t, tr.fork());
        c.one_graph(h, &seeds[t], 0);
        warm.push(c);
    }
    for c in warm {
        c.fold_failures(tally);
        tr.adopt(c.tr);
    }
    Ok(Serving {
        server,
        handles,
        seeds,
        stand_in,
    })
}

/// What one client thread saw.
struct Client {
    tenant: usize,
    tr: Tracer,
    graphs: u64,
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    submit_us: Vec<f64>,
    failures: Vec<String>,
}

impl Client {
    fn new(tenant: usize, tr: Tracer) -> Self {
        Client {
            tenant,
            tr,
            graphs: 0,
            latency_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            submit_us: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Submit the tenant's `n`-th graph and block for its outcome.
    fn one_graph(&mut self, h: &TenantHandle, seeds: &[(u64, u64)], n: u64) {
        let (run_seed, reference) = seeds[n as usize % seeds.len()];
        // Spans of one graph share an id: tenant in the top bits.
        let run_id = ((self.tenant as u64 + 1) << 32) | n;
        self.graphs += 1;
        let span = self.tr.begin("server.submit", run_id);
        let t0 = Instant::now();
        let sub = h.submit(run_seed);
        self.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.tr.end(span);
        let Some(ticket) = sub.ticket() else {
            self.failures
                .push(format!("tenant {} graph {n}: shed", self.tenant));
            return;
        };
        let span = self.tr.begin("server.wait", run_id);
        let out = ticket.wait();
        self.tr.end(span);
        if out.checksum != reference {
            self.failures.push(format!(
                "tenant {} graph {n}: checksum {:016x} != solo reference {reference:016x}",
                self.tenant, out.checksum
            ));
            return;
        }
        self.latency_ms.push(out.latency_ns / 1e6);
        self.queue_wait_ms.push(out.queue_wait_ns / 1e6);
    }

    fn fold_failures(&self, tally: &mut Tally) {
        tally.attempted += self.graphs;
        for f in &self.failures {
            tally.fail(f.clone());
        }
    }
}

/// The closed loop: every tenant's client runs until `window` is over;
/// tenant 2 sleeps through the middle third.
fn serve_phase(sv: &Serving, window: Duration, tr: &mut Tracer) -> Vec<Client> {
    let start = Instant::now();
    let third = window / 3;
    std::thread::scope(|scope| {
        let joins: Vec<_> = sv
            .handles
            .iter()
            .enumerate()
            .map(|(t, h)| {
                let mut c = Client::new(t, tr.fork());
                let seeds = &sv.seeds[t];
                scope.spawn(move || {
                    let mut n = 1u64;
                    loop {
                        let el = start.elapsed();
                        if el >= window {
                            break;
                        }
                        if t == 2 && el >= third && el < 2 * third {
                            std::thread::sleep(2 * third - el);
                            continue;
                        }
                        c.one_graph(h, seeds, n);
                        n += 1;
                    }
                    c
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    })
}

/// The stand-in (for the probes and `inputs`), its round count, and the
/// serving phase's own `inputs` fields.
pub type Served = (Prepared, u64, Vec<(&'static str, J)>);

pub fn run(
    cfg: &RunConfig,
    window: Duration,
    tr: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
) -> Result<Served, String> {
    let sv = set_up(tr, s, |tr, s, old: Option<Serving>| {
        if let Some(old) = old {
            // Only the last set-up's server serves.
            old.server.shutdown();
        }
        setup_once(cfg.seed, tr, tally, s)
    })?;

    // Stand-in rounds, then the server phase. The traced pass shortens
    // both to leave room for the probes.
    let window = if cfg.trace {
        window.mul_f64(TRACED_ROUNDS_SHARE)
    } else {
        window
    };
    let stand_in_window = window.mul_f64(STAND_IN_SHARE);
    let start = Instant::now();
    let span = tr.begin("rounds", 0);
    let rounds = batch::rounds_until(&sv.stand_in, start, stand_in_window, tr, tally, s);
    tr.end(span);

    let serve_window = window - stand_in_window;
    let span = tr.begin("serve", 0);
    let t0 = Instant::now();
    let clients = serve_phase(&sv, serve_window, tr);
    let serve_secs = t0.elapsed().as_secs_f64();
    let mut latency = Vec::new();
    let mut queue_wait = Vec::new();
    let mut per_tenant = Vec::new();
    for c in clients {
        c.fold_failures(tally);
        per_tenant.push(J::num(c.latency_ms.len() as f64));
        latency.extend_from_slice(&c.latency_ms);
        queue_wait.extend_from_slice(&c.queue_wait_ms);
        for &u in &c.submit_us {
            s.push("server.submit_us", u);
        }
        tr.adopt(c.tr);
    }
    tr.end(span);

    let Serving {
        server,
        handles,
        stand_in,
        ..
    } = sv;
    drop(handles);
    let t0 = Instant::now();
    let report = tr.scope("server.shutdown", 0, |_| server.shutdown());
    s.push("server.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);

    // Per-graph judgement over all tenants. p95 needs TAIL_BEYOND samples
    // behind it; a window too short for that (tests) falls back to the
    // highest percentile ten samples support, then to the maximum.
    let sorted = stats::sorted(&latency);
    let tail = stats::percentile_with_beyond(&sorted, 0.95, TAIL_BEYOND)
        .or_else(|| stats::highest_supported_percentile(&sorted, 10).map(|(_, v)| v))
        .or(sorted.last().copied());
    if let Some(t) = tail {
        s.set("graph_p95_ms", t);
    }
    s.replace("graph_p50_ms", sorted);
    s.set("server.queue_wait_p50_ms", stats::median(&queue_wait));

    const MIB: f64 = (1u64 << 20) as f64;
    let sum = |f: fn(&tahoe_server::TenantReport) -> u64| -> f64 {
        report.tenants.iter().map(f).sum::<u64>() as f64
    };
    s.push("server.preempted", report.preempted_total() as f64);
    s.push("server.shed", report.shed_total() as f64);
    s.push("server.promoted_mib", sum(|t| t.promoted_bytes) / MIB);
    s.push("server.demoted_mib", sum(|t| t.demoted_bytes) / MIB);
    s.push("server.jain", report.jain_by_completions());
    s.push("server.graphs_per_s", latency.len() as f64 / serve_secs);
    // Contention of the shared heap under three tenants replaces the
    // stand-in's single-tenant counters.
    for (name, v) in [
        ("hms.pin_cas_retries", report.contention.pin_cas_retries),
        ("hms.parks", report.contention.parks),
        ("hms.move_waits", report.contention.move_waits),
    ] {
        s.set(name, v as f64);
    }

    let extra = vec![
        ("tenants", J::num(TENANTS as f64)),
        (
            "tenant_weights",
            J::Arr(WEIGHTS.iter().map(|w| J::num(*w)).collect()),
        ),
        ("loop", J::str("closed, one graph in flight per tenant")),
        ("graphs", J::num(latency.len() as f64)),
        ("graphs_per_tenant", J::Arr(per_tenant)),
        ("serve_seconds", J::num(serve_secs)),
        ("server_migrations", J::num(report.migration.count as f64)),
    ];
    Ok((stand_in, rounds, extra))
}
