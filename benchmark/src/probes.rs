//! The traced pass: everything that is measured per layer rather than
//! end to end. Probes call one layer's public functions in isolation;
//! none runs inside a timed round, and each timed sample is batched up to
//! at least [`MIN_SAMPLE`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use tahoe_core::app::AppBuilder;
use tahoe_core::config::{Platform, RuntimeConfig};
use tahoe_core::measured::{mck_items_for, reference_checksum};
use tahoe_core::policy::PolicyKind;
use tahoe_core::runtime::Runtime;
use tahoe_hms::{presets, Hms, HmsConfig, ObjectId, SharedHms, TierKind, TierSpec};
use tahoe_obs::{CritPath, Emitter, Event, Metrics};
use tahoe_placement::solve_mck;
use tahoe_realmem::{traffic, RealBackend};
use tahoe_sanitize::{audit_plan, MigrationPlan, PlanContext, PlanStep};
use tahoe_taskrt::{JobSpec, NoGate, TaskGraph, TaskPool, WsExecutor};

use crate::batch::{self, Prepared, MIN_SAMPLE, TAHOE};
use crate::run::{Samples, Tally};
use crate::spans::Tracer;

/// Timed samples per probe; the reported value is their median.
const PROBE_SAMPLES: usize = 3;

/// A probe whose samples have already taken this long takes no more
/// (one `solve_mck` over three tiers of `plan_heavy` runs for seconds).
const PROBE_BUDGET: Duration = Duration::from_millis(600);

/// Observed/plain Tahoe pairs behind `obs.trace_overhead_pct`.
const OBS_PAIRS: u64 = 4;

/// Call `f` back to back until [`MIN_SAMPLE`] has passed; seconds per
/// call.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let el = t0.elapsed();
        if el >= MIN_SAMPLE {
            return el.as_secs_f64() / calls as f64;
        }
    }
}

/// One probe: up to `PROBE_SAMPLES` batched samples of `f` inside a
/// `probe.<what>` span, each turned into the metric's unit by `unit`.
fn probe(
    tr: &mut Tracer,
    s: &mut Samples,
    what: &str,
    metric: &'static str,
    unit: impl Fn(f64) -> f64,
    mut f: impl FnMut(),
) {
    tr.scope(&format!("probe.{what}"), 0, |_| {
        let t0 = Instant::now();
        for _ in 0..PROBE_SAMPLES {
            s.push(metric, unit(secs_per_call(&mut f)));
            if t0.elapsed() >= PROBE_BUDGET {
                break;
            }
        }
    });
}

/// The two-tier heap configuration the runtime derives from a pair of
/// specs (copy engine at 0.8 of the slower endpoint, as `prepare` does).
fn hms_config(dram: TierSpec, nvm: TierSpec) -> Result<HmsConfig, String> {
    let copy_bw = nvm.write_bw_gbps.min(dram.read_bw_gbps) * 0.8;
    HmsConfig::new(dram, nvm, copy_bw).map_err(|e| e.to_string())
}

/// A small real-memory heap for the hms/realmem probes.
fn probe_hms(dram: u64, nvm: u64) -> Result<Hms, String> {
    let config = hms_config(presets::dram(dram), presets::optane_pmm(nvm))?;
    let backend = RealBackend::new(&config)?;
    let mut hms = Hms::new(config);
    hms.set_backend(Box::new(backend));
    Ok(hms)
}

/// Everything the traced pass adds after the rounds.
pub fn traced_pass(p: &Prepared, tr: &mut Tracer, tally: &mut Tally, s: &mut Samples) {
    tr.scope("obs", 0, |tr| observed_pairs(p, tr, tally, s));
    tr.scope("sim", 0, |_| simulate(p, s));
    tr.scope("core.run_sequential", 0, |_| sequential(p, tally, s));
    tr.scope("probes", 0, |tr| {
        if let Err(e) = layer_probes(p, tr, s) {
            tally.attempted += 1;
            tally.fail(format!("probe: {e}"));
        }
    });
}

/// Tahoe with and without the flight recorder attached, alternating
/// which goes first.
fn observed_pairs(p: &Prepared, tr: &mut Tracer, tally: &mut Tally, s: &mut Samples) {
    let (emitter, buffer) = Emitter::buffered();
    let observed = p.rt.clone().with_observability(emitter, Metrics::enabled());
    for pair in 0..OBS_PAIRS {
        let run_id = 1000 + pair;
        let mut plain = None;
        let mut seen = None;
        for half in 0..2 {
            if (pair + half) % 2 == 0 {
                plain = batch::sample_policy(p, &p.rt, TAHOE, run_id, tr, tally);
            } else {
                seen = batch::sample_policy(p, &observed, TAHOE, run_id, tr, tally);
                let t0 = Instant::now();
                let events = buffer.drain();
                s.push("obs.drain_ms", t0.elapsed().as_secs_f64() * 1e3);
                let t0 = Instant::now();
                let path = CritPath::from_events(&events);
                s.push("obs.critpath_ms", t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(path);
            }
        }
        let (Some(plain), Some(seen)) = (plain, seen) else {
            continue;
        };
        s.push(
            "obs.trace_overhead_pct",
            (seen.call_ms / plain.call_ms - 1.0) * 100.0,
        );
        s.push("obs.ring_dropped", seen.report.obs_ring_dropped as f64);
        if let Some(c) = &seen.report.crit {
            let total = c.crit_total_ns.max(1.0);
            s.push("obs.crit_compute_share", c.compute_ns / total);
            s.push("obs.crit_stall_share", c.stall_ns / total);
            s.push("obs.crit_idle_share", c.idle_ns / total);
        }
    }
}

/// The virtual-time model on the same app: deterministic, so its ratios
/// must repeat exactly; only the host time it takes is a measurement.
fn simulate(p: &Prepared, s: &mut Samples) {
    let platform = Platform::optane(p.dram_budget(), p.cal.nvm.capacity);
    let sim = Runtime::new(platform, RuntimeConfig::default().with_workers(p.workers));
    let mut tahoe = 0.0;
    let host = secs_per_call(|| tahoe = sim.run(&p.app, &PolicyKind::tahoe()).makespan_ns);
    let dram = sim.run(&p.app, &PolicyKind::DramOnly).makespan_ns;
    let nvm = sim.run(&p.app, &PolicyKind::NvmOnly).makespan_ns;
    s.push("core.sim_host_ms", host * 1e3);
    s.push("core.sim_tahoe_slowdown", tahoe / dram);
    s.push("core.sim_gap_recovery", (nvm - tahoe) / (nvm - dram));
}

/// The sequential measured path (`run_policy`), which folds the
/// historical seed-0 traffic.
fn sequential(p: &Prepared, tally: &mut Tally, s: &mut Samples) {
    let reference = reference_checksum(&p.app);
    tally.attempted += 1;
    match p.rt.run_policy(&p.app, &PolicyKind::tahoe(), &p.cal) {
        Ok(r) if r.checksum == reference => s.push("core.seq_tahoe_run_ms", r.wall_ns / 1e6),
        Ok(r) => tally.fail(format!(
            "core.run_sequential: checksum {:016x} != reference {reference:016x}",
            r.checksum
        )),
        Err(e) => tally.fail(format!("core.run_sequential: {e}")),
    }
}

fn layer_probes(p: &Prepared, tr: &mut Tracer, s: &mut Samples) -> Result<(), String> {
    const MIB: u64 = 1 << 20;
    let ms = |secs: f64| secs * 1e3;
    let us = |secs: f64| secs * 1e6;

    // ---- memprof ------------------------------------------------------
    let mut stream = Vec::new();
    probe(
        tr,
        s,
        "memprof.calibrate",
        "memprof.calibrate_ms",
        ms,
        || {
            if let Ok(c) = p.rt.calibrate() {
                stream.push(c.measured.stream_bw_gbps);
            }
        },
    );
    for g in stream {
        s.push("memprof.stream_gbps", g);
    }

    // ---- perfmodel ----------------------------------------------------
    // The two-tier specs the timed runs execute under.
    let specs = [p.cal.dram.clone(), p.cal.nvm.clone()];
    let pairs: usize = p.app.graph.tasks().iter().map(|t| t.accesses.len()).sum();
    let per_pair = |secs: f64| secs * 1e9 / pairs.max(1) as f64;
    probe(
        tr,
        s,
        "perfmodel.mck_items_for",
        "perfmodel.benefit_ns_per_pair",
        per_pair,
        || {
            std::hint::black_box(mck_items_for(&p.app, &specs));
        },
    );

    // ---- placement ----------------------------------------------------
    let items = mck_items_for(&p.app, &specs);
    let caps = [p.cal.dram.capacity, p.cal.nvm.capacity];
    s.push("placement.items", items.len() as f64);
    probe(
        tr,
        s,
        "placement.solve_mck",
        "placement.solve_ms",
        ms,
        || {
            std::hint::black_box(solve_mck(&items, &caps).is_ok());
        },
    );
    let plan = solve_mck(&items, &caps)?;
    let all_value: f64 = items.iter().map(|i| i.values[0]).sum();
    s.push(
        "placement.value_share",
        plan.total_value / all_value.max(1.0),
    );
    s.push(
        "placement.dram_fill_share",
        plan.per_tier_bytes[0] as f64 / caps[0].max(1) as f64,
    );
    // The same objects with a CXL tier of the DRAM budget's size between.
    let specs3 = [
        p.cal.dram.clone(),
        presets::cxl(p.cal.dram.capacity),
        p.cal.nvm.clone(),
    ];
    let items3 = mck_items_for(&p.app, &specs3);
    let caps3 = [caps[0], caps[0], caps[1]];
    probe(
        tr,
        s,
        "placement.solve_mck3",
        "placement.solve_mck3_ms",
        ms,
        || {
            std::hint::black_box(solve_mck(&items3, &caps3).is_ok());
        },
    );

    // ---- sanitize -----------------------------------------------------
    // The plan Tahoe executes: everything starts on NVM, the chosen set
    // moves to DRAM at the profiling boundary.
    let boundary = p.app.windows().saturating_sub(1).min(2);
    let migration = MigrationPlan {
        initial_tiers: vec![1; items.len()],
        steps: plan
            .tiers
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == 0)
            .map(|(i, _)| PlanStep {
                object: i as u32,
                to_tier: 0,
                window: boundary,
            })
            .collect(),
    };
    let ctx = PlanContext::new(p.app.objects.iter().map(|o| o.size).collect());
    s.push("sanitize.audit_steps", migration.steps.len() as f64);
    let mut violations = 0usize;
    probe(
        tr,
        s,
        "sanitize.audit_plan",
        "sanitize.audit_plan_ms",
        ms,
        || {
            violations = audit_plan(&p.app.graph, &migration, &specs, &ctx)
                .violations
                .len();
        },
    );
    s.push("sanitize.violations", violations as f64);

    // ---- hms ----------------------------------------------------------
    {
        let mut hms = probe_hms(MIB, 16 * MIB)?;
        let ids: Vec<ObjectId> = (0..64)
            .map(|i| hms.alloc_object(&format!("pin{i}"), 4096, TierKind::Nvm, false))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let shared = SharedHms::new(hms);
        let per_pin = |secs: f64| secs * 1e9 / ids.len() as f64;
        probe(
            tr,
            s,
            "hms.pin_for_task",
            "hms.pin_unpin_ns",
            per_pin,
            || {
                for id in &ids {
                    drop(std::hint::black_box(shared.pin_for_task(&[*id])));
                }
            },
        );
        let mut hms = shared.into_inner();
        let per_alloc = |secs: f64| secs * 1e6 / 64.0;
        probe(tr, s, "hms.alloc_object", "hms.alloc_us", per_alloc, || {
            let got: Vec<ObjectId> = (0..64)
                .filter_map(|_| hms.alloc_object("a", 8192, TierKind::Nvm, false).ok())
                .collect();
            for id in got {
                let _ = hms.free_object(id);
            }
        });
    }

    // ---- realmem ------------------------------------------------------
    {
        let mut hms = probe_hms(8 * MIB, 16 * MIB)?;
        let big = hms
            .alloc_object("copy4m", 4 * MIB, TierKind::Nvm, false)
            .map_err(|e| e.to_string())?;
        let small = hms
            .alloc_object("copy4k", 4096, TierKind::Nvm, false)
            .map_err(|e| e.to_string())?;
        // Each call moves the object up and back: two copies.
        let gbps = |secs: f64| 2.0 * (4 * MIB) as f64 / (secs * 1e9);
        probe(
            tr,
            s,
            "realmem.copy_4mib",
            "realmem.copy_gbps",
            gbps,
            || {
                let _ = hms.move_object(big, TierKind::Dram);
                let _ = hms.move_object(big, TierKind::Nvm);
            },
        );
        let per_copy = |secs: f64| secs * 1e6 / 2.0;
        probe(
            tr,
            s,
            "realmem.copy_4kib",
            "realmem.copy_fixed_us",
            per_copy,
            || {
                let _ = hms.move_object(small, TierKind::Dram);
                let _ = hms.move_object(small, TierKind::Nvm);
            },
        );
    }
    {
        let mut buf = vec![0u8; (32 * MIB) as usize];
        traffic::init_fill(&mut buf, 1);
        let gbps = |secs: f64| buf.len() as f64 / (secs * 1e9);
        probe(
            tr,
            s,
            "realmem.stream_read",
            "realmem.read_gbps",
            gbps,
            || {
                std::hint::black_box(traffic::stream_read(&buf));
            },
        );
        let len = buf.len() as f64;
        let gbps = |secs: f64| len / (secs * 1e9);
        probe(
            tr,
            s,
            "realmem.stream_write",
            "realmem.write_gbps",
            gbps,
            || {
                std::hint::black_box(traffic::stream_write(&mut buf, 2));
            },
        );
    }
    {
        // The arenas one policy run maps: DRAM budget + 2x footprint.
        let config = hms_config(p.cal.dram.clone(), p.cal.nvm.clone())?;
        probe(
            tr,
            s,
            "realmem.arena_map",
            "realmem.arena_map_ms",
            ms,
            || {
                drop(std::hint::black_box(RealBackend::new(&config)));
            },
        );
    }

    // ---- taskrt -------------------------------------------------------
    let tasks = p.app.graph.len().max(1);
    let per_task = |secs: f64| secs * 1e9 / tasks as f64;
    let exec = WsExecutor::new(p.workers);
    probe(
        tr,
        s,
        "taskrt.wsexec_run",
        "taskrt.dispatch_ns",
        per_task,
        || {
            exec.run(&p.app.graph, |t| {
                std::hint::black_box(t.id);
            });
        },
    );
    {
        let graph = Arc::new(empty_job_graph());
        let pool = TaskPool::new(p.workers);
        probe(
            tr,
            s,
            "taskrt.pool_submit",
            "taskrt.pool_job_us",
            us,
            || {
                pool.submit(JobSpec {
                    tag: 0,
                    graph: Arc::clone(&graph),
                    gate: Arc::new(NoGate),
                    work: Arc::new(|_, _, t| {
                        std::hint::black_box(t.id);
                    }),
                    on_window: None,
                    on_done: None,
                })
                .wait();
            },
        );
        pool.shutdown();
    }

    // ---- obs ----------------------------------------------------------
    {
        const EVENTS: u32 = 10_000;
        let per_event = |secs: f64| secs * 1e9 / EVENTS as f64;
        probe(tr, s, "obs.emit", "obs.emit_ns", per_event, || {
            let (emitter, buffer) = Emitter::buffered();
            for i in 0..EVENTS {
                emitter.emit(|| Event::WorkerTask {
                    t: i as f64,
                    tenant: 0,
                    worker: 0,
                    task: i,
                    window: 0,
                    wall_ns: 1.0,
                    gate_wait_ns: 0.0,
                });
            }
            std::hint::black_box(buffer.len());
        });
    }
    Ok(())
}

/// A 16-task, two-window graph with no memory traffic: what a pool job
/// costs when the work is free.
fn empty_job_graph() -> TaskGraph {
    let mut b = AppBuilder::new("pool_job");
    let objs: Vec<ObjectId> = (0..8).map(|i| b.object(&format!("j{i}"), 64)).collect();
    let c = b.class("noop");
    for w in 0..2 {
        if w > 0 {
            b.next_window();
        }
        for o in &objs {
            b.task(c).update_streaming(*o, 1).submit();
        }
    }
    b.build().graph
}
