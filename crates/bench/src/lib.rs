//! Experiment harness: regenerates every table and figure of the
//! reproduction (E1–E12 in `DESIGN.md` / `EXPERIMENTS.md`).
//!
//! Each `eN()` function prints the same rows/series the paper's
//! corresponding table or figure reports, against the simulated platform.
//! Run them through the `exp` binary:
//!
//! ```sh
//! cargo run -p tahoe-bench --release --bin exp -- all
//! cargo run -p tahoe-bench --release --bin exp -- e4
//! ```

// The harness only drives the runtime crates; it never needs raw memory.
#![forbid(unsafe_code)]

use tahoe_core::prelude::*;
use tahoe_core::TahoeOptions;
use tahoe_hms::ObjectId;
use tahoe_workloads::{all_workloads, cg, stream, Scale};

pub mod gate;

/// DRAM budget used throughout the main experiments: a quarter of the
/// application footprint (the paper's DRAM ≪ footprint regime).
pub fn dram_budget(app: &App) -> u64 {
    (app.footprint() / 4).max(1 << 20)
}

/// Platform with bandwidth-limited NVM (`frac` of DRAM bandwidth).
pub fn platform_bw(app: &App, frac: f64) -> Platform {
    Platform::emulated_bw(frac, dram_budget(app), 4 * app.footprint()).expect("valid fraction")
}

/// Platform with latency-limited NVM (`mult` × DRAM latency).
pub fn platform_lat(app: &App, mult: f64) -> Platform {
    Platform::emulated_lat(mult, dram_budget(app), 4 * app.footprint()).expect("valid multiplier")
}

/// Optane-PMM-like platform.
pub fn platform_optane(app: &App) -> Platform {
    Platform::optane(dram_budget(app), 4 * app.footprint())
}

fn rt(platform: Platform) -> Runtime {
    Runtime::new(platform, RuntimeConfig::default())
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Parse a comma-separated numeric list from env var `name`, falling
/// back to `default` when unset. Lets CI jobs widen an experiment's
/// matrix (e.g. the stress-fuzz schedule sweep) without a code change.
fn env_list<T>(name: &str, default: &[T]) -> Result<Vec<T>, String>
where
    T: std::str::FromStr + Copy,
    <T as std::str::FromStr>::Err: std::fmt::Display,
{
    match std::env::var(name) {
        Ok(raw) => {
            let v = raw
                .split(',')
                .map(|s| s.trim())
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<T>().map_err(|e| format!("{name}={raw}: {e}")))
                .collect::<Result<Vec<T>, String>>()?;
            if v.is_empty() {
                return Err(format!("{name} set but empty"));
            }
            Ok(v)
        }
        Err(_) => Ok(default.to_vec()),
    }
}

/// E1 — NVM-only slowdown vs DRAM-only under bandwidth-limited NVM
/// (paper's "performance on NVM with various bandwidth" figure).
pub fn e1() {
    banner("E1  NVM-only slowdown, bandwidth-limited NVM (vs DRAM-only)");
    println!(
        "{:<10} {:>8} {:>8} {:>8}",
        "workload", "1/2 BW", "1/4 BW", "1/8 BW"
    );
    for app in all_workloads(Scale::Bench) {
        print!("{:<10}", app.name);
        for frac in [0.5, 0.25, 0.125] {
            let r = rt(platform_bw(&app, frac));
            let d = r.run(&app, &PolicyKind::DramOnly);
            let n = r.run(&app, &PolicyKind::NvmOnly);
            print!(" {:>7.2}x", n.slowdown_vs(d.makespan_ns));
        }
        println!();
    }
}

/// E2 — NVM-only slowdown under latency-limited NVM.
pub fn e2() {
    banner("E2  NVM-only slowdown, latency-limited NVM (vs DRAM-only)");
    println!(
        "{:<10} {:>8} {:>8} {:>8}",
        "workload", "2x LAT", "4x LAT", "8x LAT"
    );
    for app in all_workloads(Scale::Bench) {
        print!("{:<10}", app.name);
        for mult in [2.0, 4.0, 8.0] {
            let r = rt(platform_lat(&app, mult));
            let d = r.run(&app, &PolicyKind::DramOnly);
            let n = r.run(&app, &PolicyKind::NvmOnly);
            print!(" {:>7.2}x", n.slowdown_vs(d.makespan_ns));
        }
        println!();
    }
}

/// E3 — per-object placement motivation on CG: which single object group
/// in DRAM bridges how much of the gap, under bandwidth- vs
/// latency-limited NVM (the paper's lhs/rhs/in_buffer study).
pub fn e3() {
    banner("E3  Which object in DRAM? (CG, normalized to DRAM-only)");
    let app = cg::app(Scale::Bench);
    let groups: Vec<(&str, Vec<ObjectId>)> = {
        let by_prefix = |p: &str| {
            app.objects
                .iter()
                .enumerate()
                .filter(|(_, o)| o.name.starts_with(p))
                .map(|(i, _)| ObjectId(i as u32))
                .collect::<Vec<_>>()
        };
        vec![
            ("A (matrix)", by_prefix("A")),
            ("p (gathered)", by_prefix("p")),
            ("x+q+r", {
                let mut v = by_prefix("x");
                v.extend(by_prefix("q"));
                v.extend(by_prefix("r"));
                v
            }),
        ]
    };
    println!("{:<14} {:>10} {:>10}", "in DRAM", "1/2 BW", "4x LAT");
    for make in [
        ("NVM-only", None),
        ("A (matrix)", Some(0)),
        ("p (gathered)", Some(1)),
        ("x+q+r", Some(2)),
    ] {
        print!("{:<14}", make.0);
        for plat in [platform_bw(&app, 0.5), platform_lat(&app, 4.0)] {
            // The pinned platform must hold the group: give DRAM exactly
            // the group's bytes (the paper pins one object at a time).
            let policy = match make.1 {
                None => PolicyKind::NvmOnly,
                Some(g) => PolicyKind::Pinned(groups[g].1.clone()),
            };
            let sized = match make.1 {
                None => plat.clone(),
                Some(g) => {
                    let bytes: u64 = groups[g]
                        .1
                        .iter()
                        .map(|o| app.objects[o.index()].size)
                        .sum();
                    plat.with_dram_capacity(bytes.max(1 << 20))
                }
            };
            let r = rt(sized);
            let d = r.run(&app, &PolicyKind::DramOnly);
            let x = r.run(&app, &policy);
            print!(" {:>9.2}x", x.slowdown_vs(d.makespan_ns));
        }
        println!();
    }
}

/// All-policy comparison on one platform (core of E4/E5/E10).
fn policy_table(title: &str, mk: impl Fn(&App) -> Platform, extra_tahoe: &[(String, PolicyKind)]) {
    banner(title);
    print!(
        "{:<10} {:>8} {:>9} {:>9} {:>8} {:>7}",
        "workload", "NVM-only", "1st-touch", "hw-cache", "static", "tahoe"
    );
    for (name, _) in extra_tahoe {
        print!(" {:>12}", name);
    }
    println!("   (slowdown vs DRAM-only)");
    let mut geo = vec![1.0f64; 5 + extra_tahoe.len()];
    let mut napps = 0u32;
    for app in all_workloads(Scale::Bench) {
        let r = rt(mk(&app));
        let d = r.run(&app, &PolicyKind::DramOnly);
        print!("{:<10}", app.name);
        let mut policies: Vec<PolicyKind> = vec![
            PolicyKind::NvmOnly,
            PolicyKind::FirstTouch,
            PolicyKind::HwCache,
            PolicyKind::StaticOffline,
            PolicyKind::tahoe(),
        ];
        policies.extend(extra_tahoe.iter().map(|(_, p)| p.clone()));
        for (i, p) in policies.iter().enumerate() {
            let rep = r.run(&app, p);
            let s = rep.slowdown_vs(d.makespan_ns);
            geo[i] *= s;
            let w = [8, 9, 9, 8, 7][i.min(4)].max(if i >= 5 { 12 } else { 0 });
            print!(" {:>w$.2}", s, w = w);
        }
        println!();
        napps += 1;
    }
    print!("{:<10}", "geomean");
    for (i, g) in geo.iter().enumerate() {
        let w = [8, 9, 9, 8, 7][i.min(4)].max(if i >= 5 { 12 } else { 0 });
        print!(" {:>w$.2}", g.powf(1.0 / napps as f64), w = w);
    }
    println!();
}

/// E4 — the main comparison under bandwidth-limited NVM (1/2 DRAM BW).
pub fn e4() {
    policy_table(
        "E4  Main comparison, NVM = 1/2 DRAM bandwidth",
        |app| platform_bw(app, 0.5),
        &[],
    );
}

/// E5 — the main comparison under latency-limited NVM (4x DRAM latency).
pub fn e5() {
    policy_table(
        "E5  Main comparison, NVM = 4x DRAM latency",
        |app| platform_lat(app, 4.0),
        &[],
    );
}

/// E6 — contribution of the four techniques (global search, +local,
/// +chunking, +initial placement), cumulative, bandwidth-limited NVM.
pub fn e6() {
    banner("E6  Technique contributions (cumulative makespan reduction, 1/2 BW)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "none", "+global", "+local", "+chunk", "+initial"
    );
    for app in all_workloads(Scale::Bench) {
        let r = rt(platform_bw(&app, 0.5));
        let d = r.run(&app, &PolicyKind::DramOnly).makespan_ns;
        let stages: Vec<TahoeOptions> = {
            let base = TahoeOptions {
                local_search: false,
                global_search: false,
                chunking: false,
                initial_placement: false,
                proactive: true,
                distinguish_rw: true,
                adaptive: true,
                lookahead: 16,
            };
            let mut v = vec![base.clone()];
            let mut s = base;
            s.global_search = true;
            v.push(s.clone());
            s.local_search = true;
            v.push(s.clone());
            s.chunking = true;
            v.push(s.clone());
            s.initial_placement = true;
            v.push(s);
            v
        };
        print!("{:<10}", app.name);
        for o in stages {
            let rep = r.run(&app, &PolicyKind::Tahoe(o));
            print!(" {:>9.2}x", rep.makespan_ns / d);
        }
        println!();
    }
}

/// E7 — migration statistics table (count, MB, pure runtime %, %overlap),
/// bandwidth-limited NVM. Shown twice: with the paper's initial placement
/// (which the paper itself observes usually matches the global plan, so
/// few migrations remain) and without it (all data starts in NVM, so the
/// migrations the planner *would* do become visible).
pub fn e7() {
    banner("E7  Migration details under Tahoe (NVM = 1/2 DRAM bandwidth)");
    println!(
        "{:<10} | {:^31} | {:^40}",
        "workload", "with initial placement", "all data starts in NVM"
    );
    println!(
        "{:<10} | {:>5} {:>10} {:>6} {:>6} | {:>5} {:>10} {:>6} {:>6} {:>7}",
        "", "migr", "moved(MB)", "cost%", "ovlp%", "migr", "moved(MB)", "cost%", "ovlp%", "replans"
    );
    for app in all_workloads(Scale::Bench) {
        let r = rt(platform_bw(&app, 0.5));
        let a = r.run(&app, &PolicyKind::tahoe());
        let o = TahoeOptions {
            initial_placement: false,
            ..TahoeOptions::default()
        };
        let b = r.run(&app, &PolicyKind::Tahoe(o));
        println!(
            "{:<10} | {:>5} {:>10.1} {:>6.2} {:>6.1} | {:>5} {:>10.1} {:>6.2} {:>6.1} {:>7}",
            app.name,
            a.migrations.count,
            a.migrations.megabytes(),
            a.overhead_pct(),
            a.pct_overlap(),
            b.migrations.count,
            b.migrations.megabytes(),
            b.overhead_pct(),
            b.pct_overlap(),
            b.replans
        );
    }
}

/// E8 — DRAM-size sensitivity: Tahoe vs bounds as the DRAM budget shrinks.
pub fn e8() {
    banner("E8  DRAM-size sensitivity (slowdown vs DRAM-only, 1/2 BW NVM)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "NVM-only", "1/16", "1/8", "1/4", "1/2"
    );
    for app in all_workloads(Scale::Bench) {
        let foot = app.footprint();
        print!("{:<10}", app.name);
        let base = rt(platform_bw(&app, 0.5));
        let d = base.run(&app, &PolicyKind::DramOnly);
        let n = base.run(&app, &PolicyKind::NvmOnly);
        print!(" {:>8.2}x", n.slowdown_vs(d.makespan_ns));
        for denom in [16u64, 8, 4, 2] {
            let plat = platform_bw(&app, 0.5).with_dram_capacity((foot / denom).max(1 << 20));
            let rep = rt(plat).run(&app, &PolicyKind::tahoe());
            print!(" {:>8.2}x", rep.slowdown_vs(d.makespan_ns));
        }
        println!();
    }
}

/// E9 — scaling with worker count on CG (the paper's strong-scaling
/// figure, reinterpreted for a shared-memory task runtime).
pub fn e9() {
    banner("E9  Worker scaling on CG (NUMA-remote-style NVM)");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>10}",
        "workers", "DRAM-only", "tahoe", "NVM-only", "tahoe/DRAM"
    );
    let app = cg::app(Scale::Bench);
    for workers in [1usize, 2, 4, 8, 16, 32] {
        let plat = Platform::new(
            tahoe_hms::presets::dram(dram_budget(&app)),
            tahoe_hms::presets::numa_remote(4 * app.footprint()),
            5.0,
        );
        let r = Runtime::new(plat, RuntimeConfig::default().with_workers(workers));
        let d = r.run(&app, &PolicyKind::DramOnly);
        let t = r.run(&app, &PolicyKind::tahoe());
        let n = r.run(&app, &PolicyKind::NvmOnly);
        println!(
            "{:<8} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>9.2}x",
            workers,
            d.makespan_ns / 1e6,
            t.makespan_ns / 1e6,
            n.makespan_ns / 1e6,
            t.slowdown_vs(d.makespan_ns)
        );
    }
}

/// E10 — Optane-PMM platform with the read/write-distinction ablation
/// (the journal paper's "w. drw vs w.o drw" figure). Both ablation
/// columns start all data in NVM so the *model's* decisions — not the
/// model-free initial placement — determine the outcome.
pub fn e10() {
    let w_rw = PolicyKind::Tahoe(TahoeOptions {
        initial_placement: false,
        ..TahoeOptions::default()
    });
    let wo_rw = PolicyKind::Tahoe(TahoeOptions {
        initial_placement: false,
        distinguish_rw: false,
        ..TahoeOptions::default()
    });
    policy_table(
        "E10  Optane PMM platform, read/write-distinction ablation (no-init variants)",
        platform_optane,
        &[
            ("tahoe-ni w.rw".to_string(), w_rw),
            ("tahoe-ni wo.rw".to_string(), wo_rw),
        ],
    );
}

/// E11 — proactive-migration ablation: overlapped vs synchronous copies.
pub fn e11() {
    banner("E11  Proactive vs synchronous migration (1/2 BW NVM, no initial placement)");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10}",
        "workload", "proactive", "synchronous", "pro ovlp%", "sync ovlp%"
    );
    for app in all_workloads(Scale::Bench) {
        let r = rt(platform_bw(&app, 0.5));
        let pro = TahoeOptions {
            initial_placement: false, // force migrations to exist
            ..TahoeOptions::default()
        };
        let sync = TahoeOptions {
            proactive: false,
            ..pro.clone()
        };
        let a = r.run(&app, &PolicyKind::Tahoe(pro));
        let b = r.run(&app, &PolicyKind::Tahoe(sync));
        println!(
            "{:<10} {:>10.2}ms {:>10.2}ms {:>10.1} {:>10.1}",
            app.name,
            a.makespan_ns / 1e6,
            b.makespan_ns / 1e6,
            a.pct_overlap(),
            b.pct_overlap()
        );
    }
}

/// E12 — look-ahead depth sensitivity.
pub fn e12() {
    banner("E12  Look-ahead depth sensitivity (makespan, 1/2 BW NVM, no initial placement)");
    print!("{:<10}", "workload");
    for d in [1usize, 4, 16, 64] {
        print!(" {:>9}", format!("depth {d}"));
    }
    println!();
    for app in all_workloads(Scale::Bench) {
        let r = rt(platform_bw(&app, 0.5));
        print!("{:<10}", app.name);
        for depth in [1usize, 4, 16, 64] {
            let o = TahoeOptions {
                initial_placement: false,
                lookahead: depth,
                ..TahoeOptions::default()
            };
            let rep = r.run(&app, &PolicyKind::Tahoe(o));
            print!(" {:>7.2}ms", rep.makespan_ns / 1e6);
        }
        println!();
    }
}

/// E13 — NVM write-endurance extension: store traffic shielded from the
/// NVM and write amplification per policy (Optane platform). Not a paper
/// figure; an extension natural to PCM-class endurance budgets.
pub fn e13() {
    banner("E13  NVM write traffic and shielding (Optane platform)");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "workload", "NVM MB (1st)", "NVM MB (tahoe)", "shield(1st)", "shield(tahoe)"
    );
    for app in all_workloads(Scale::Bench) {
        let r = rt(platform_optane(&app));
        let ft = r.run(&app, &PolicyKind::FirstTouch);
        let th = r.run(&app, &PolicyKind::tahoe());
        println!(
            "{:<10} {:>14.1} {:>14.1} {:>11.0}% {:>11.0}%",
            app.name,
            ft.wear.nvm_written_bytes() as f64 / 1e6,
            th.wear.nvm_written_bytes() as f64 / 1e6,
            100.0 * ft.write_shielding(),
            100.0 * th.write_shielding(),
        );
    }
}

/// Observability artifact: run STREAM at test scale with the full
/// observability layer on, check the capture is well-formed and
/// deterministic, and write the machine-diffable artifact (JSONL event
/// stream, Chrome/Perfetto trace, metrics JSON) under `dir`.
///
/// Used by the CI bench-smoke job; any malformed or non-deterministic
/// output is an error, not a warning.
pub fn obs_artifact(dir: &str) -> Result<(), String> {
    use tahoe_obs::{json, Event};

    banner("OBS  observability artifact (stream @ test scale, all data starts in NVM)");
    let app = stream::app(Scale::Test);
    // 1/8-bandwidth NVM: at test scale the promotion gain must clear the
    // replanning hysteresis margin, which it does not at milder ratios.
    let r = rt(platform_bw(&app, 0.125));
    // No initial placement: the planner must visibly migrate the hot
    // blocks, so the artifact exercises the migration events too.
    let policy = PolicyKind::Tahoe(TahoeOptions {
        initial_placement: false,
        ..TahoeOptions::default()
    });
    let (report, capture) = r.run_observed(&app, &policy);
    let (_, again) = r.run_observed(&app, &policy);

    let jsonl = capture.to_jsonl();
    if jsonl != again.to_jsonl() {
        return Err("observed runs are not byte-identical".into());
    }
    for (i, line) in jsonl.lines().enumerate() {
        let v = json::parse(line).map_err(|e| format!("events.jsonl line {}: {e}", i + 1))?;
        if v.get("ev").and_then(|t| t.as_str()).is_none() {
            return Err(format!("events.jsonl line {} lacks an `ev` tag", i + 1));
        }
    }
    if !capture
        .events
        .iter()
        .any(|e| matches!(e, Event::MigrationIssued { .. }))
    {
        return Err("expected at least one migration event".into());
    }
    let trace = capture.to_chrome_trace();
    json::parse(&trace).map_err(|e| format!("trace.json: {e}"))?;
    let metrics = report.metrics.to_json();
    json::parse(&metrics).map_err(|e| format!("metrics.json: {e}"))?;

    // BENCH_obs.json: the gate-comparable digest of the capture. The
    // simulated run is deterministic (checked above), so the gate may
    // demand exact equality against the committed baseline.
    let mut by_kind = std::collections::BTreeMap::<&str, u64>::new();
    for e in &capture.events {
        *by_kind.entry(e.kind()).or_insert(0) += 1;
    }
    let mut summary = String::new();
    summary.push_str("{\n  \"schema\": \"tahoe-bench-obs/v1\",\n");
    summary.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"footprint_bytes\": {}, \"windows\": {}, \"tasks\": {}}},\n",
        app.name,
        app.footprint(),
        app.windows(),
        report.tasks
    ));
    summary.push_str(&format!(
        "  \"events\": {{\"total\": {}, \"by_kind\": {{",
        capture.events.len()
    ));
    for (i, (kind, n)) in by_kind.iter().enumerate() {
        summary.push_str(&format!("{}\"{kind}\": {n}", if i > 0 { ", " } else { "" }));
    }
    summary.push_str("}},\n");
    // The simulated path records through an unbounded buffer, so the
    // drop counter must read zero; surfacing it here lets the gate
    // assert "no drops" instead of inferring it from an absent key.
    summary.push_str(&format!(
        "  \"makespan_ns\": {:.1},\n  \"migrations\": {},\n  \"ring_dropped\": {}\n}}\n",
        report.makespan_ns,
        report.migrations.count,
        report.metrics.counter("obs.ring_dropped").unwrap_or(0)
    ));
    json::parse(&summary).map_err(|e| format!("BENCH_obs.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    for (name, text) in [
        ("events.jsonl", &jsonl),
        ("trace.json", &trace),
        ("metrics.json", &metrics),
        ("BENCH_obs.json", &summary),
    ] {
        std::fs::write(path.join(name), text).map_err(|e| format!("write {name}: {e}"))?;
    }
    println!(
        "{} events, {} counters, {} tasks, makespan {:.3}ms -> {dir}/",
        capture.events.len(),
        report.metrics.counters.len(),
        report.tasks,
        report.makespan_ns / 1e6
    );
    Ok(())
}

/// `exp audit`: the model-accuracy audit. Calibrates the machine, runs
/// the parallel measured Tahoe policy with the flight recorder on, pairs
/// every placement decision's predicted per-access saving with the
/// measured NVM-vs-DRAM wall-clock delta, probes the recorder's
/// self-overhead, and writes a machine-readable `BENCH_audit.json`.
pub fn audit(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::MeasuredRuntime;
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::json;

    banner(if smoke {
        "AUDIT model accuracy (smoke): predicted vs measured placement benefit"
    } else {
        "AUDIT model accuracy: predicted vs measured placement benefit"
    });
    let (app, cfg, workers, reps) = if smoke {
        (
            stream::app(Scale::Test),
            WallClockConfig::smoke(),
            2usize,
            3u32,
        )
    } else {
        (stream::app(Scale::Bench), WallClockConfig::full(), 4, 3)
    };
    let platform = platform_bw(&app, 0.25);
    let rt = MeasuredRuntime::new(platform, cfg);
    let cal = rt.calibrate()?;
    println!(
        "  fitted DRAM {:.2} GB/s / {:.1} ns, emulated NVM {:.2} GB/s / {:.1} ns, cf_bw {:.3}, cf_lat {:.3}",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    );

    let run_seed = 0u64;
    let audit = rt.run_model_audit(&app, &cal, workers, run_seed)?;
    let probe = rt.probe_obs_overhead(&app, &cal, workers, run_seed, reps)?;

    println!(
        "  {:<8} {:>10} {:>7} {:>9} {:>13} {:>13} {:>9} {:>5}",
        "object", "bytes", "chosen", "accesses", "pred ns/acc", "meas ns/acc", "ape%", "sign"
    );
    for r in &audit.rows {
        println!(
            "  {:<8} {:>10} {:>7} {:>9} {:>13.1} {:>13} {:>9} {:>5}",
            r.name,
            r.bytes,
            r.chosen,
            r.accesses,
            r.predicted_saving_ns,
            r.measured_saving_ns
                .map_or("-".to_string(), |v| format!("{v:.1}")),
            r.ape_pct.map_or("-".to_string(), |v| format!("{v:.1}")),
            r.sign_agrees.map_or("-", |s| if s { "+" } else { "-" })
        );
    }
    println!(
        "  audited {} objects: MAPE {:.1}%, sign agreement {:.1}%, {} migrations, wall {:.3} ms",
        audit.audited,
        audit.mape_pct,
        audit.sign_agreement_pct,
        audit.migrations,
        audit.wall_ns / 1e6
    );
    for (key, h) in &audit.hists {
        println!(
            "  hist {:<14} n={:<7} p50={:<10.0} p90={:<10.0} p99={:<10.0} max={:.0} ns",
            key, h.count, h.p50, h.p90, h.p99, h.max
        );
    }
    println!(
        "  obs overhead: off {:.3} ms, on {:.3} ms -> {:.2}% (best of {})",
        probe.off_wall_ns / 1e6,
        probe.on_wall_ns / 1e6,
        probe.overhead_pct,
        probe.reps
    );

    // ---- acceptance invariants ------------------------------------
    if audit.audited == 0 {
        return Err("no object was auditable (no DRAM/NVM sample pair)".into());
    }
    if audit.migrations == 0 {
        return Err("tahoe performed no migrations; audit exercises nothing".into());
    }
    if !audit.hists.iter().any(|(k, _)| k == "task_ns") {
        return Err("flight recorder produced no task latency digest".into());
    }

    // ---- BENCH_audit.json ------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-audit/v1\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        smoke
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"footprint_bytes\": {}, \"windows\": {}, \"tasks\": {}}},\n",
        app.name,
        app.footprint(),
        app.windows(),
        app.graph.len()
    ));
    out.push_str(&format!(
        "  \"calibration\": {{\"dram_bw_gbps\": {:.6}, \"dram_lat_ns\": {:.6}, \"nvm_bw_gbps\": {:.6}, \"nvm_lat_ns\": {:.6}, \"cf_bw\": {:.6}, \"cf_lat\": {:.6}}},\n",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    ));
    out.push_str(&format!(
        "  \"audit\": {{\"policy\": \"{}\", \"workers\": {}, \"run_seed\": {}, \"audited\": {}, \"mape_pct\": {:.6}, \"sign_agreement_pct\": {:.6}, \"migrations\": {}, \"wall_ns\": {:.1}}},\n",
        audit.policy,
        audit.workers,
        audit.run_seed,
        audit.audited,
        audit.mape_pct,
        audit.sign_agreement_pct,
        audit.migrations,
        audit.wall_ns
    ));
    out.push_str("  \"objects\": [\n");
    for (i, r) in audit.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"object\": {}, \"name\": \"{}\", \"bytes\": {}, \"chosen\": {}, \"accesses\": {}, \"predicted_saving_ns\": {:.6}, \"measured_saving_ns\": {}, \"ape_pct\": {}, \"sign_agrees\": {}}}{}\n",
            r.object,
            r.name,
            r.bytes,
            r.chosen,
            r.accesses,
            r.predicted_saving_ns,
            r.measured_saving_ns
                .map_or("null".to_string(), |v| format!("{v:.6}")),
            r.ape_pct.map_or("null".to_string(), |v| format!("{v:.6}")),
            r.sign_agrees
                .map_or("null".to_string(), |b| b.to_string()),
            if i + 1 < audit.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"histograms\": {");
    for (i, (key, h)) in audit.hists.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{}\": {{\"count\": {}, \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}, \"max\": {:.6}}}",
            if i > 0 { ", " } else { "" },
            key,
            h.count,
            h.p50,
            h.p90,
            h.p99,
            h.max
        ));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "  \"overhead\": {{\"off_wall_ns\": {:.1}, \"on_wall_ns\": {:.1}, \"overhead_pct\": {:.6}, \"reps\": {}}}\n}}\n",
        probe.off_wall_ns, probe.on_wall_ns, probe.overhead_pct, probe.reps
    ));
    json::parse(&out).map_err(|e| format!("BENCH_audit.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_audit.json"), &out)
        .map_err(|e| format!("write BENCH_audit.json: {e}"))?;
    println!("  -> {dir}/BENCH_audit.json");
    Ok(())
}

/// The `"tiers"` block of a `tahoe-bench-real/v2` artifact: the
/// platform's ordered tier list with each tier's *preset* name and
/// reference device numbers. This is the v2 fix for the v1 artifact
/// labelling the slow tier "NVM" unconditionally — rows now carry the
/// actual preset name ("NVM(0.25x BW)", "CXL", "Optane PMM", ...).
fn tiers_json(specs: &[tahoe_hms::TierSpec]) -> String {
    let mut out = String::from("  \"tiers\": [\n");
    for (i, s) in specs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"index\": {i}, \"name\": \"{}\", \"read_bw_gbps\": {:.6}, \"write_bw_gbps\": {:.6}, \"read_lat_ns\": {:.6}, \"write_lat_ns\": {:.6}, \"capacity_bytes\": {}}}{}\n",
            s.name,
            s.read_bw_gbps,
            s.write_bw_gbps,
            s.read_lat_ns,
            s.write_lat_ns,
            s.capacity,
            if i + 1 < specs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out
}

/// The `"policies"` block of a `tahoe-bench-real/v2` artifact.
fn policies_json(reports: &[tahoe_core::parallel::ParallelPolicyReport]) -> String {
    let mut out = String::from("  \"policies\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let per_tier = r
            .final_tier_objects
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"wall_ns\": {:.1}, \"bytes_touched\": {}, \"throughput_gbps\": {:.6}, \"checksum\": \"{:016x}\", \"migrations\": {}, \"migrated_bytes\": {}, \"copy_wall_ns\": {:.1}, \"final_dram_objects\": {}, \"final_tier_objects\": [{}]}}{}\n",
            r.policy,
            r.wall_ns,
            r.bytes_touched,
            r.throughput_gbps,
            r.checksum,
            r.migrations,
            r.migrated_bytes,
            r.copy_wall_ns,
            r.final_dram_objects,
            per_tier,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out
}

/// `exp real [--tiers N]`: the measured-mode experiment. Calibrates the
/// machine, runs the headline policies on `mmap`-arena-backed objects
/// with software-emulated slow tiers, checks the acceptance invariants
/// (every policy's traffic matches the heap reference bit for bit;
/// DRAM-only throughput is at least slow-tier-only throughput), and
/// writes a machine-readable `BENCH_real.json` (schema
/// `tahoe-bench-real/v2`) to `dir`.
///
/// `tiers == 2` is the classic DRAM + emulated-NVM sweep on the stream
/// workload. `tiers == 3` runs the CG workload on a DRAM / CXL / Optane
/// platform sized so the gathered (latency-bound) vector blocks
/// overflow the DRAM budget: the artifact's self-validated `plan` and
/// `modelled` blocks demonstrate the middle tier winning for
/// latency-bound objects and the 3-tier plan beating both 2-tier
/// configurations (DRAM+NVM and DRAM+CXL) on modelled runtime.
pub fn real(smoke: bool, tiers: usize, dir: &str) -> Result<(), String> {
    match tiers {
        2 => real_two(smoke, dir),
        3 => real_three(smoke, dir),
        other => Err(format!("exp real supports --tiers 2 or 3, got {other}")),
    }
}

fn real_two(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::{reference_checksum, MeasuredRuntime};
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::json;

    banner(if smoke {
        "REAL measured mode (smoke): mmap arenas + wall-clock calibration"
    } else {
        "REAL measured mode: mmap arenas + wall-clock calibration"
    });
    let (app, cfg, reps) = if smoke {
        (stream::app(Scale::Test), WallClockConfig::smoke(), 2)
    } else {
        (stream::app(Scale::Bench), WallClockConfig::full(), 3)
    };
    let platform = platform_bw(&app, 0.25);
    let tier_list = platform.tier_specs();
    let rt = MeasuredRuntime::new(platform, cfg);
    let cal = rt.calibrate()?;
    println!(
        "  fitted DRAM {:.2} GB/s / {:.1} ns, emulated NVM {:.2} GB/s / {:.1} ns, cf_bw {:.3}, cf_lat {:.3}",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    );

    let reference = reference_checksum(&app);
    let policies = [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ];
    // Wall clocks are noisy; keep each policy's best-of-`reps` run.
    let mut reports = Vec::with_capacity(policies.len());
    for p in &policies {
        let mut best = rt.run_policy(&app, p, &cal)?;
        for _ in 1..reps {
            let r = rt.run_policy(&app, p, &cal)?;
            if r.wall_ns < best.wall_ns {
                best = r;
            }
        }
        println!(
            "  {:<12} {:>9.3} ms  {:>7.2} GB/s  {} migrations ({} KiB)",
            best.policy,
            best.wall_ns / 1e6,
            best.throughput_gbps,
            best.migrations,
            best.migrated_bytes >> 10
        );
        reports.push(best);
    }

    // ---- acceptance invariants ------------------------------------
    for r in &reports {
        if r.checksum != reference {
            return Err(format!(
                "{}: checksum {:016x} != reference {reference:016x}",
                r.policy, r.checksum
            ));
        }
    }
    let thr = |name: &str| {
        reports
            .iter()
            .find(|r| r.policy == name)
            .map(|r| r.throughput_gbps)
            .expect("policy present")
    };
    let (dram_thr, nvm_thr) = (thr("DRAM-only"), thr("NVM-only"));
    if dram_thr < nvm_thr {
        return Err(format!(
            "DRAM-only throughput {dram_thr:.3} GB/s below NVM-emulated {nvm_thr:.3} GB/s"
        ));
    }

    // ---- BENCH_real.json -------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-real/v2\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        smoke
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"footprint_bytes\": {}, \"windows\": {}}},\n",
        app.name,
        app.footprint(),
        app.windows()
    ));
    out.push_str(&format!(
        "  \"calibration\": {{\"dram_bw_gbps\": {:.6}, \"dram_lat_ns\": {:.6}, \"nvm_bw_gbps\": {:.6}, \"nvm_lat_ns\": {:.6}, \"cf_bw\": {:.6}, \"cf_lat\": {:.6}}},\n",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    ));
    out.push_str(&tiers_json(&tier_list));
    out.push_str(&policies_json(&reports));
    out.push_str(&format!(
        "  \"consistency\": {{\"reference_checksum\": \"{reference:016x}\", \"all_policies_match_reference\": true, \"dram_throughput_ge_nvm\": true}}\n}}\n"
    ));
    json::parse(&out).map_err(|e| format!("BENCH_real.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_real.json"), &out)
        .map_err(|e| format!("write BENCH_real.json: {e}"))?;
    println!("  -> {dir}/BENCH_real.json");
    Ok(())
}

/// The 3-tier sweep behind `exp real --tiers 3`: CG on DRAM / CXL /
/// Optane. Capacities are sized off the footprint so the gathered
/// (latency-bound) `p` blocks overflow DRAM: `dram = 5/8` of the
/// p-vector bytes (two of four blocks fit), `cxl = footprint/5`
/// (holds every vector block that misses DRAM, but not a matrix
/// block), `nvm = 4×footprint` (spill).
///
/// Two self-validated demonstrations ride in the artifact:
///
/// 1. **plan** — the deterministic (calibration-free) MCK plan over the
///    preset tier specs puts at least one latency-bound object on the
///    middle tier: CXL's 85 ns beats Optane's 250 ns for the gathers,
///    while the streaming matrix reads stay on Optane (3.9 GB/s read
///    beats CXL's symmetric 2.5 GB/s).
/// 2. **modelled** — the 3-tier plan's modelled runtime beats the best
///    2-tier plan on *both* degenerate platforms (DRAM+Optane and
///    DRAM+CXL) with the same DRAM budget.
/// 3. **sweep** — growing the CXL tier through four capacities
///    (half / headline / double / quadruple) must monotonically
///    improve (never worsen) the modelled runtime: the knapsack only
///    relaxes as the middle tier grows.
///
/// The measured run then executes all four headline policies on the
/// real 3-tier arena stack and checks the usual bit-for-bit reference
/// checksums, plus that measured Tahoe actually lands objects on the
/// middle tier and migrates.
fn real_three(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::{
        modelled_plan, object_latency_bound, reference_checksum, MeasuredRuntime,
    };
    use tahoe_hms::presets;
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::json;

    banner(if smoke {
        "REAL measured mode, 3 tiers (smoke): DRAM / CXL / Optane on CG"
    } else {
        "REAL measured mode, 3 tiers: DRAM / CXL / Optane on CG"
    });
    let (app, cfg, reps) = if smoke {
        (cg::app(Scale::Test), WallClockConfig::smoke(), 2)
    } else {
        (cg::app(Scale::Bench), WallClockConfig::full(), 3)
    };
    let footprint = app.footprint();
    let p_total = footprint / 20; // the four gathered p-blocks
    let dram_cap = p_total * 5 / 8;
    let cxl_cap = footprint / 5;
    let nvm_cap = 4 * footprint;
    let platform = Platform::optane_cxl(dram_cap, cxl_cap, nvm_cap);
    let tier_list = platform.tier_specs();

    // ---- deterministic modelled plan (calibration-free) -------------
    let (plan3, t3_ns) = modelled_plan(&app, &tier_list)?;
    let (_, t2_nvm_ns) = modelled_plan(&app, &Platform::optane(dram_cap, nvm_cap).tier_specs())?;
    let (_, t2_cxl_ns) = modelled_plan(&app, &[presets::dram(dram_cap), presets::cxl(nvm_cap)])?;
    // Latency- vs bandwidth-bound classification on the spill tier: the
    // tier an object must escape is the one whose roofline matters.
    let lat_bound = object_latency_bound(&app, &tier_list[2]);
    let mid_objects: Vec<usize> = plan3
        .tiers
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == 1)
        .map(|(i, _)| i)
        .collect();
    let mid_lat_bound = mid_objects.iter().filter(|&&i| lat_bound[i]).count();
    println!(
        "  modelled: 3-tier {:.3} ms vs 2-tier DRAM+Optane {:.3} ms, DRAM+CXL {:.3} ms",
        t3_ns / 1e6,
        t2_nvm_ns / 1e6,
        t2_cxl_ns / 1e6
    );
    println!(
        "  plan: {} objects on CXL ({} latency-bound), {} on DRAM, {} on Optane",
        mid_objects.len(),
        mid_lat_bound,
        plan3.tiers.iter().filter(|t| **t == 0).count(),
        plan3.tiers.iter().filter(|t| **t == 2).count()
    );
    if mid_objects.is_empty() {
        return Err("3-tier plan left the middle tier empty".into());
    }
    if mid_lat_bound == 0 {
        return Err("no latency-bound object won the middle tier".into());
    }
    let eps = 1.0 + 1e-9;
    if t3_ns > t2_nvm_ns * eps {
        return Err(format!(
            "3-tier modelled runtime {t3_ns:.1} ns worse than 2-tier DRAM+Optane {t2_nvm_ns:.1} ns"
        ));
    }
    if t3_ns > t2_cxl_ns * eps {
        return Err(format!(
            "3-tier modelled runtime {t3_ns:.1} ns worse than 2-tier DRAM+CXL {t2_cxl_ns:.1} ns"
        ));
    }

    // ---- middle-tier capacity sweep (deterministic) -----------------
    // Grow the CXL tier through 4 sizes around the headline capacity.
    // More middle-tier room can only relax the knapsack, so the
    // modelled runtime must be non-increasing along the sweep — the
    // calibration-free counterpart of the paper's capacity-sensitivity
    // study, and the check that the solver actually uses the room.
    struct SweepRow {
        cxl_cap: u64,
        modelled_ns: f64,
        mid_objects: usize,
    }
    let mut sweep_rows: Vec<SweepRow> = Vec::new();
    for cap in [cxl_cap / 2, cxl_cap, 2 * cxl_cap, 4 * cxl_cap] {
        let specs = Platform::optane_cxl(dram_cap, cap, nvm_cap).tier_specs();
        let (plan, ns) = modelled_plan(&app, &specs)?;
        let mid_objects = plan.tiers.iter().filter(|t| **t == 1).count();
        if let Some(prev) = sweep_rows.last() {
            if ns > prev.modelled_ns * eps {
                return Err(format!(
                    "middle-tier sweep is not monotone: {} B -> {:.1} ns after {} B -> {:.1} ns",
                    cap, ns, prev.cxl_cap, prev.modelled_ns
                ));
            }
        }
        println!(
            "  sweep: CXL {:>10} B -> modelled {:.3} ms, {} objects on the middle tier",
            cap,
            ns / 1e6,
            mid_objects
        );
        sweep_rows.push(SweepRow {
            cxl_cap: cap,
            modelled_ns: ns,
            mid_objects,
        });
    }

    // ---- measured run on the 3-tier arena stack ---------------------
    let rt = MeasuredRuntime::new(platform, cfg);
    let cal = rt.calibrate()?;
    println!(
        "  fitted DRAM {:.2} GB/s / {:.1} ns, emulated slow tier {:.2} GB/s / {:.1} ns, cf_bw {:.3}, cf_lat {:.3}",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    );
    let reference = reference_checksum(&app);
    let policies = [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ];
    let mut reports = Vec::with_capacity(policies.len());
    for p in &policies {
        let mut best = rt.run_policy(&app, p, &cal)?;
        for _ in 1..reps {
            let r = rt.run_policy(&app, p, &cal)?;
            if r.wall_ns < best.wall_ns {
                best = r;
            }
        }
        let per_tier = best
            .final_tier_objects
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "  {:<12} {:>9.3} ms  {:>7.2} GB/s  {} migrations ({} KiB)  tiers {}",
            best.policy,
            best.wall_ns / 1e6,
            best.throughput_gbps,
            best.migrations,
            best.migrated_bytes >> 10,
            per_tier
        );
        reports.push(best);
    }

    // ---- acceptance invariants --------------------------------------
    for r in &reports {
        if r.checksum != reference {
            return Err(format!(
                "{}: checksum {:016x} != reference {reference:016x}",
                r.policy, r.checksum
            ));
        }
    }
    let find = |name: &str| {
        reports
            .iter()
            .find(|r| r.policy == name)
            .expect("policy present")
    };
    let (dram_thr, nvm_thr) = (
        find("DRAM-only").throughput_gbps,
        find("NVM-only").throughput_gbps,
    );
    if dram_thr < nvm_thr {
        return Err(format!(
            "DRAM-only throughput {dram_thr:.3} GB/s below slow-tier-only {nvm_thr:.3} GB/s"
        ));
    }
    let tahoe = find(&PolicyKind::tahoe().name());
    if tahoe.migrations == 0 {
        return Err("3-tier Tahoe performed no migrations".into());
    }
    if tahoe.final_tier_objects.len() != 3 || tahoe.final_tier_objects[1] == 0 {
        return Err(format!(
            "measured Tahoe left the middle tier empty: {:?}",
            tahoe.final_tier_objects
        ));
    }

    // ---- BENCH_real.json --------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-real/v2\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        smoke
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"footprint_bytes\": {}, \"windows\": {}}},\n",
        app.name,
        footprint,
        app.windows()
    ));
    out.push_str(&format!(
        "  \"calibration\": {{\"dram_bw_gbps\": {:.6}, \"dram_lat_ns\": {:.6}, \"nvm_bw_gbps\": {:.6}, \"nvm_lat_ns\": {:.6}, \"cf_bw\": {:.6}, \"cf_lat\": {:.6}}},\n",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    ));
    out.push_str(&tiers_json(&tier_list));
    out.push_str(&policies_json(&reports));
    out.push_str("  \"plan\": [\n");
    for (i, o) in app.objects.iter().enumerate() {
        let t = plan3.tiers[i] as usize;
        out.push_str(&format!(
            "    {{\"object\": {i}, \"name\": \"{}\", \"bytes\": {}, \"tier\": {t}, \"tier_name\": \"{}\", \"latency_bound\": {}}}{}\n",
            o.name,
            o.size,
            tier_list[t].name,
            lat_bound[i],
            if i + 1 < app.objects.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"modelled\": {{\"tahoe3_ns\": {:.6}, \"two_tier_dram_nvm_ns\": {:.6}, \"two_tier_dram_cxl_ns\": {:.6}, \"mid_tier_objects\": {}, \"mid_tier_latency_bound_objects\": {}}},\n",
        t3_ns,
        t2_nvm_ns,
        t2_cxl_ns,
        mid_objects.len(),
        mid_lat_bound
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, r) in sweep_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cxl_capacity_bytes\": {}, \"modelled_ns\": {:.6}, \"mid_tier_objects\": {}}}{}\n",
            r.cxl_cap,
            r.modelled_ns,
            r.mid_objects,
            if i + 1 < sweep_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"consistency\": {{\"reference_checksum\": \"{reference:016x}\", \"all_policies_match_reference\": true, \"dram_throughput_ge_nvm\": true, \"mid_tier_wins_latency_bound\": true, \"three_tier_beats_both_two_tier\": true, \"tahoe_uses_mid_tier\": true, \"sweep_monotone\": true}}\n}}\n"
    ));
    json::parse(&out).map_err(|e| format!("BENCH_real.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_real.json"), &out)
        .map_err(|e| format!("write BENCH_real.json: {e}"))?;
    println!("  -> {dir}/BENCH_real.json");
    Ok(())
}

/// `exp par`: the parallel measured-mode experiment. Calibrates once,
/// then runs the headline policies at several worker counts with the
/// work-stealing executor and the background migration thread, checks
/// the acceptance invariants (every run's checksum equals the sequential
/// heap reference bit for bit; Tahoe at ≥2 workers reports nonzero
/// overlapped migration time whenever it migrated), and writes a
/// machine-readable `BENCH_par.json` to `dir`.
pub fn par(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::{reference_checksum, MeasuredRuntime};
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::json;

    banner(if smoke {
        "PAR parallel measured mode (smoke): work-stealing + background migration"
    } else {
        "PAR parallel measured mode: work-stealing + background migration"
    });
    let (app, cfg, worker_counts): (_, _, &[usize]) = if smoke {
        (
            stream::app(Scale::Test),
            WallClockConfig::smoke(),
            &[1, 2, 4],
        )
    } else {
        (
            stream::app(Scale::Bench),
            WallClockConfig::full(),
            &[1, 2, 4, 8],
        )
    };
    let platform = platform_bw(&app, 0.25);
    let rt = MeasuredRuntime::new(platform, cfg);
    let cal = rt.calibrate()?;
    println!(
        "  fitted DRAM {:.2} GB/s / {:.1} ns, emulated NVM {:.2} GB/s / {:.1} ns, cf_bw {:.3}, cf_lat {:.3}",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    );

    let reference = reference_checksum(&app);
    let policies = [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ];

    println!(
        "  {:<12} {:>7} {:>10} {:>8} {:>10} {:>6} {:>9} {:>9}",
        "policy", "threads", "wall ms", "speedup", "GB/s", "migr", "%overlap", "gate ms"
    );
    let mut runs = Vec::new();
    for p in &policies {
        let mut base_wall = None;
        for &workers in worker_counts {
            let r = rt.run_policy_parallel(&app, p, &cal, workers, 0)?;
            if r.workers == 1 {
                base_wall = Some(r.wall_ns);
            }
            // Parallel speedup over this policy's own 1-worker run:
            // wall(1w)/wall(Nw). The compare_par gate band enforces the
            // DRAM-only scaling floor on multi-core machines.
            let speedup = base_wall.map_or(1.0, |b| b / r.wall_ns);
            println!(
                "  {:<12} {:>7} {:>10.3} {:>7.2}x {:>10.2} {:>6} {:>8.1}% {:>9.3}",
                r.policy,
                r.workers,
                r.wall_ns / 1e6,
                speedup,
                r.throughput_gbps,
                r.migration.count,
                r.migration.pct_overlap(),
                r.gate_wait_ns / 1e6
            );
            runs.push(r);
        }
    }

    // ---- acceptance invariants ------------------------------------
    for r in &runs {
        if r.checksum != reference {
            return Err(format!(
                "{} @ {} workers: checksum {:016x} != reference {reference:016x}",
                r.policy, r.workers, r.checksum
            ));
        }
    }
    let tahoe_name = PolicyKind::tahoe().name();
    let tahoe_overlapped = runs
        .iter()
        .filter(|r| r.policy == tahoe_name && r.workers >= 2 && r.migration.count > 0)
        .all(|r| r.migration.overlapped_ns > 0.0);
    if !tahoe_overlapped {
        return Err(
            "Tahoe at >=2 workers migrated but reported zero overlapped copy time".to_string(),
        );
    }
    let tahoe_migrated = runs
        .iter()
        .any(|r| r.policy == tahoe_name && r.workers >= 2 && r.migration.count > 0);
    if !tahoe_migrated {
        return Err("Tahoe at >=2 workers performed no migrations at all".to_string());
    }

    // ---- BENCH_par.json --------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-par/v1\",\n");
    // The CPU count travels with the artifact: the benchgate only holds
    // the scaling band against runs from machines that can scale.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"cpus\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        cpus,
        smoke
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"footprint_bytes\": {}, \"windows\": {}, \"tasks\": {}}},\n",
        app.name,
        app.footprint(),
        app.windows(),
        app.graph.len()
    ));
    out.push_str(&format!(
        "  \"calibration\": {{\"dram_bw_gbps\": {:.6}, \"dram_lat_ns\": {:.6}, \"nvm_bw_gbps\": {:.6}, \"nvm_lat_ns\": {:.6}, \"cf_bw\": {:.6}, \"cf_lat\": {:.6}}},\n",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let base = runs
            .iter()
            .find(|b| b.policy == r.policy && b.workers == 1)
            .map_or(r.wall_ns, |b| b.wall_ns);
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"workers\": {}, \"wall_ns\": {:.1}, \"speedup\": {:.6}, \"bytes_touched\": {}, \"throughput_gbps\": {:.6}, \"checksum\": \"{:016x}\", \"migrations\": {}, \"migrated_bytes\": {}, \"copy_wall_ns\": {:.1}, \"overlapped_ns\": {:.1}, \"exposed_ns\": {:.1}, \"pct_overlap\": {:.3}, \"gate_wait_ns\": {:.1}, \"steals\": {}, \"cas_retries\": {}, \"parks\": {}, \"unparks\": {}, \"final_dram_objects\": {}}}{}\n",
            r.policy,
            r.workers,
            r.wall_ns,
            base / r.wall_ns,
            r.bytes_touched,
            r.throughput_gbps,
            r.checksum,
            r.migration.count,
            r.migration.bytes,
            r.copy_wall_ns,
            r.migration.overlapped_ns,
            r.migration.exposed_ns,
            r.migration.pct_overlap(),
            r.gate_wait_ns,
            r.steals,
            r.contention.pin_cas_retries,
            r.contention.parks,
            r.contention.unparks,
            r.final_dram_objects,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"consistency\": {{\"reference_checksum\": \"{reference:016x}\", \"all_runs_match_reference\": true, \"tahoe_multiworker_overlapped\": true}}\n}}\n"
    ));
    json::parse(&out).map_err(|e| format!("BENCH_par.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_par.json"), &out)
        .map_err(|e| format!("write BENCH_par.json: {e}"))?;
    println!("  -> {dir}/BENCH_par.json");
    Ok(())
}

/// One raw `GET /metrics` over a std `TcpStream` — no curl, no client
/// crate; the same access path the CI endpoint smoke test uses.
fn scrape_metrics(addr: std::net::SocketAddr) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    if !head.lines().next().unwrap_or("").contains("200") {
        return Err(format!(
            "non-200 response: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    Ok(body.to_string())
}

/// `exp blame`: the causal-profiler artifact. Runs the parallel measured
/// Tahoe policy with the flight recorder on, reconstructs the critical
/// path and the exposed-stall blame table from the merged event stream,
/// prices COZ-style what-if estimates in the CF-free model, then boots a
/// small two-tenant server and scrapes its live telemetry plane. Every
/// claim is self-validated before `BENCH_blame.json` (schema
/// `tahoe-bench-blame/v1`) is written:
///
/// * critical-path segments tile their interval exactly and land within
///   5% of the observed execution span;
/// * the blame table's aggregate `%overlap` reconciles with the
///   migration engine's own [`MigrationStats::pct_overlap`] within 1%;
/// * what-if savings agree in sign with the knapsack's predicted
///   benefits on every object the planner priced;
/// * the flight recorder dropped zero events;
/// * the telemetry scrape's completion counters equal the shutdown
///   report bit for bit (skipped gracefully where loopback sockets are
///   unavailable).
///
/// [`MigrationStats::pct_overlap`]: tahoe_hms::MigrationStats::pct_overlap
pub fn blame(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::{json, Emitter, Metrics};
    use tahoe_server::{
        ArbiterMode, QuotaPolicy, ServerConfig, TahoeServer, TelemetryConfig, TenantSpec,
    };

    banner(if smoke {
        "BLAME causal profiler (smoke): critical path + stall blame + live telemetry"
    } else {
        "BLAME causal profiler: critical path + stall blame + live telemetry"
    });
    let (app, cfg, workers) = if smoke {
        (stream::app(Scale::Test), WallClockConfig::smoke(), 2)
    } else {
        (stream::app(Scale::Bench), WallClockConfig::full(), 4)
    };
    let seed = 7u64;
    let platform = platform_bw(&app, 0.25);
    let (emitter, _buf) = Emitter::buffered();
    let rt = MeasuredRuntime::new(platform, cfg).with_observability(emitter, Metrics::enabled());
    let cal = rt.calibrate()?;
    println!(
        "  fitted DRAM {:.2} GB/s / {:.1} ns, emulated NVM {:.2} GB/s / {:.1} ns",
        cal.dram.read_bw_gbps, cal.dram.read_lat_ns, cal.nvm.read_bw_gbps, cal.nvm.read_lat_ns
    );

    let r = rt.run_policy_parallel(&app, &PolicyKind::tahoe(), &cal, workers, seed)?;
    let reference = reference_checksum_seeded(&app, seed);
    if r.checksum != reference {
        return Err(format!(
            "checksum {:016x} != reference {reference:016x}",
            r.checksum
        ));
    }
    let crit = r
        .crit
        .as_ref()
        .ok_or("observed run produced no crit digest")?;

    println!(
        "  critical path {:.3} ms = compute {:.3} + stall {:.3} + idle {:.3} ({} segments, {} tasks; span {:.3} ms, delta {:.2}%)",
        crit.crit_total_ns / 1e6,
        crit.compute_ns / 1e6,
        crit.stall_ns / 1e6,
        crit.idle_ns / 1e6,
        crit.segments,
        crit.tasks_on_path,
        crit.span_ns / 1e6,
        crit.crit_vs_span_pct
    );
    println!(
        "  {:<7} {:>5} {:>5} {:>12} {:>12} {:>12} {:>7}",
        "object", "tier", "migr", "exposed ms", "overlap ms", "gate ms", "chosen"
    );
    for e in crit.blame.iter().take(8) {
        println!(
            "  {:<7} {:>5} {:>5} {:>12.3} {:>12.3} {:>12.3} {:>7}",
            e.object,
            e.tier.tag(),
            e.migrations,
            e.exposed_ns / 1e6,
            e.overlapped_ns / 1e6,
            e.gate_wait_ns / 1e6,
            e.chosen
        );
    }

    // ---- acceptance invariants ------------------------------------
    if r.obs_ring_dropped != 0 {
        return Err(format!(
            "flight recorder dropped {} events; blame is incomplete",
            r.obs_ring_dropped
        ));
    }
    let tiling = crit.compute_ns + crit.stall_ns + crit.idle_ns;
    if (crit.crit_total_ns - tiling).abs() > 1e-6 * crit.crit_total_ns.max(1.0) {
        return Err(format!(
            "chain does not tile its interval: {} vs {} + {} + {}",
            crit.crit_total_ns, crit.compute_ns, crit.stall_ns, crit.idle_ns
        ));
    }
    if crit.crit_vs_span_pct > 5.0 {
        return Err(format!(
            "critical path {:.1} ns strayed {:.2}% from the observed span {:.1} ns (band 5%)",
            crit.crit_total_ns, crit.crit_vs_span_pct, crit.span_ns
        ));
    }
    if r.migration.count == 0 {
        return Err("the plan triggered no migrations: nothing to blame".into());
    }
    let overlap_delta = (crit.blame_pct_overlap - r.migration.pct_overlap()).abs();
    if overlap_delta > 1.0 {
        return Err(format!(
            "blame overlap {:.3}% vs engine overlap {:.3}% (band 1%)",
            crit.blame_pct_overlap,
            r.migration.pct_overlap()
        ));
    }
    let blamed_migrations: u64 = crit.blame.iter().map(|e| e.migrations).sum();
    if blamed_migrations != r.migration.count {
        return Err(format!(
            "blame table covers {blamed_migrations} migrations, engine committed {}",
            r.migration.count
        ));
    }
    let whatif_checked = crit
        .whatif
        .iter()
        .filter(|w| w.predicted_benefit_ns != 0.0)
        .count();
    let whatif_agreeing = crit
        .whatif
        .iter()
        .filter(|w| w.predicted_benefit_ns != 0.0 && w.sign_agrees)
        .count();
    if whatif_agreeing != whatif_checked {
        return Err(format!(
            "what-if sign agreement {whatif_agreeing}/{whatif_checked}: model and knapsack disagree"
        ));
    }
    for w in &crit.whatif {
        if w.whatif_wall_ns > crit.exec_wall_ns {
            return Err(format!(
                "what-if wall {} ns exceeds the measured wall {} ns",
                w.whatif_wall_ns, crit.exec_wall_ns
            ));
        }
        if w.modelled_saving_ns < 0.0 {
            return Err(format!(
                "object {}: DRAM residence cannot cost time in the model ({} ns)",
                w.object, w.modelled_saving_ns
            ));
        }
    }
    println!(
        "  reconciliation: blame overlap {:.2}% vs engine {:.2}% (delta {:.3}%), {} what-if estimates, {}/{} signs agree",
        crit.blame_pct_overlap,
        r.migration.pct_overlap(),
        overlap_delta,
        crit.whatif.len(),
        whatif_agreeing,
        whatif_checked
    );

    // ---- live telemetry plane ---------------------------------------
    // A small two-tenant server: the same counters the shutdown report
    // snapshots must be scrapeable over HTTP while the server is idle.
    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    let mk_tenant_app = |name: &str| {
        let mut b = AppBuilder::new(name);
        let x = b.object("x", 8 << 10);
        let y = b.object("y", 8 << 10);
        let c = b.class("step");
        b.task(c)
            .read_streaming(x, 32)
            .write_streaming(y, 32)
            .submit();
        b.task(c).update_streaming(y, 32).submit();
        b.build()
    };
    let srv = TahoeServer::new(
        ServerConfig {
            workers: 2,
            dram_budget: 24 << 10,
            nvm_capacity: 1 << 24,
            mode: ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 }),
            max_queue: 2,
        },
        cal.clone(),
        Emitter::disabled(),
        Metrics::disabled(),
    )
    .map_err(|e| format!("server boot: {e}"))?;
    let t0 = srv
        .register_tenant(TenantSpec::new("alice", 1.0), mk_tenant_app("a"))
        .map_err(|e| format!("register alice: {e}"))?;
    let t1 = srv
        .register_tenant(TenantSpec::new("bob", 1.0), mk_tenant_app("b"))
        .map_err(|e| format!("register bob: {e}"))?;
    let tele = srv
        .serve_telemetry(TelemetryConfig {
            journal: Some(path.join("telemetry.jsonl")),
            ..TelemetryConfig::default()
        })
        .ok();
    let (o0, o1) = (
        t0.submit(7).ticket().ok_or("alice shed")?.wait(),
        t1.submit(9).ticket().ok_or("bob shed")?.wait(),
    );
    if o0.checksum != reference_checksum_seeded(&mk_tenant_app("a"), 7)
        || o1.checksum != reference_checksum_seeded(&mk_tenant_app("b"), 9)
    {
        return Err("tenant checksum diverged from its solo reference".into());
    }
    let scrape = tele.as_ref().map(|h| scrape_metrics(h.addr()));
    let telemetry_served = scrape.as_ref().is_some_and(|s| s.is_ok());
    let scraped_body = match scrape {
        Some(Ok(body)) => body,
        Some(Err(e)) => {
            println!("  telemetry scrape unavailable ({e}); recording served=false");
            String::new()
        }
        None => {
            println!("  telemetry endpoint could not bind; recording served=false");
            String::new()
        }
    };
    if let Some(h) = tele {
        h.stop();
    }
    let sreport = srv.shutdown();
    let blame_lines = scraped_body
        .lines()
        .filter(|l| l.starts_with("tahoe_blame_"))
        .count();
    let scrape_matches = telemetry_served;
    if telemetry_served {
        // Bit-for-bit: the scraped integer strings must equal the
        // shutdown report's counters.
        for t in &sreport.tenants {
            for (family, want) in [
                ("tahoe_tenant_submitted_total", t.submitted),
                ("tahoe_tenant_completed_total", t.completed),
                ("tahoe_tenant_shed_total", t.shed),
            ] {
                let needle = format!(
                    "{family}{{tenant=\"{}\",name=\"{}\"}} {want}",
                    t.tenant, t.name
                );
                if !scraped_body.lines().any(|l| l == needle) {
                    return Err(format!("scrape missing exact sample `{needle}`"));
                }
            }
        }
        println!(
            "  telemetry: scrape matches the shutdown report on {} tenants; {blame_lines} blame samples",
            sreport.tenants.len()
        );
    }

    // ---- BENCH_blame.json -------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-blame/v1\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"cpus\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        cpus,
        smoke
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"footprint_bytes\": {}, \"windows\": {}, \"tasks\": {}}},\n",
        app.name,
        app.footprint(),
        app.windows(),
        app.graph.len()
    ));
    out.push_str(&format!(
        "  \"calibration\": {{\"dram_bw_gbps\": {:.6}, \"dram_lat_ns\": {:.6}, \"nvm_bw_gbps\": {:.6}, \"nvm_lat_ns\": {:.6}, \"cf_bw\": {:.6}, \"cf_lat\": {:.6}}},\n",
        cal.dram.read_bw_gbps,
        cal.dram.read_lat_ns,
        cal.nvm.read_bw_gbps,
        cal.nvm.read_lat_ns,
        cal.cf_bw,
        cal.cf_lat
    ));
    out.push_str(&format!(
        "  \"run\": {{\"policy\": \"{}\", \"workers\": {}, \"seed\": {seed}, \"wall_ns\": {:.1}, \"checksum\": \"{:016x}\", \"migrations\": {}, \"migrated_bytes\": {}, \"pct_overlap\": {:.6}, \"gate_wait_ns\": {:.1}, \"ring_dropped\": {}}},\n",
        r.policy,
        r.workers,
        r.wall_ns,
        r.checksum,
        r.migration.count,
        r.migration.bytes,
        r.migration.pct_overlap(),
        r.gate_wait_ns,
        r.obs_ring_dropped
    ));
    out.push_str(&format!(
        "  \"critpath\": {{\"crit_total_ns\": {:.1}, \"span_ns\": {:.1}, \"exec_wall_ns\": {:.1}, \"compute_ns\": {:.1}, \"stall_ns\": {:.1}, \"idle_ns\": {:.1}, \"segments\": {}, \"tasks_on_path\": {}, \"crit_vs_span_pct\": {:.6}}},\n",
        crit.crit_total_ns,
        crit.span_ns,
        crit.exec_wall_ns,
        crit.compute_ns,
        crit.stall_ns,
        crit.idle_ns,
        crit.segments,
        crit.tasks_on_path,
        crit.crit_vs_span_pct
    ));
    out.push_str("  \"blame\": [\n");
    for (i, e) in crit.blame.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"object\": {}, \"tier\": \"{}\", \"migrations\": {}, \"bytes\": {}, \"overlapped_ns\": {:.1}, \"exposed_ns\": {:.1}, \"gate_wait_ns\": {:.1}, \"chosen\": {}, \"predicted_benefit_ns\": {:.1}}}{}\n",
            e.object,
            e.tier.tag(),
            e.migrations,
            e.bytes,
            e.overlapped_ns,
            e.exposed_ns,
            e.gate_wait_ns,
            e.chosen,
            e.predicted_benefit_ns,
            if i + 1 < crit.blame.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"reconciliation\": {{\"blame_pct_overlap\": {:.6}, \"engine_pct_overlap\": {:.6}, \"delta_pct\": {:.6}, \"blamed_migrations\": {blamed_migrations}, \"engine_migrations\": {}, \"unattributed_wait_ns\": {:.1}}},\n",
        crit.blame_pct_overlap,
        r.migration.pct_overlap(),
        overlap_delta,
        r.migration.count,
        crit.unattributed_wait_ns
    ));
    out.push_str("  \"whatif\": [\n");
    for (i, w) in crit.whatif.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"object\": {}, \"exposed_ns\": {:.1}, \"whatif_wall_ns\": {:.1}, \"modelled_saving_ns\": {:.1}, \"predicted_benefit_ns\": {:.1}, \"sign_agrees\": {}}}{}\n",
            w.object,
            w.exposed_ns,
            w.whatif_wall_ns,
            w.modelled_saving_ns,
            w.predicted_benefit_ns,
            w.sign_agrees,
            if i + 1 < crit.whatif.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"telemetry\": {{\"served\": {telemetry_served}, \"scrape_matches_report\": {scrape_matches}, \"tenants\": {}, \"completed_total\": {}, \"blame_samples\": {blame_lines}}},\n",
        sreport.tenants.len(),
        sreport.completed_total()
    ));
    out.push_str(&format!(
        "  \"consistency\": {{\"checksum_matches_reference\": true, \"crit_band_pct\": 5.0, \"overlap_band_pct\": 1.0, \"blame_covers_all_migrations\": true, \"whatif_checked\": {whatif_checked}, \"whatif_agreeing\": {whatif_agreeing}, \"ring_dropped\": {}}}\n}}\n",
        r.obs_ring_dropped
    ));
    json::parse(&out).map_err(|e| format!("BENCH_blame.json self-check: {e}"))?;

    std::fs::write(path.join("BENCH_blame.json"), &out)
        .map_err(|e| format!("write BENCH_blame.json: {e}"))?;
    println!("  -> {dir}/BENCH_blame.json");
    Ok(())
}

/// Exact-count check: every violation kind in `rep` must carry exactly
/// the expected count (kinds absent from `expected` must be zero).
fn sanitize_counts_match(
    rep: &tahoe_core::SanitizeReport,
    expected: &[(&'static str, u64)],
) -> bool {
    rep.by_kind().iter().all(|(tag, n)| {
        let want = expected
            .iter()
            .find(|(t, _)| t == tag)
            .map_or(0, |(_, c)| *c);
        *n == want
    })
}

/// `exp sanitize`: the task-graph race detector + access sanitizer with
/// schedule fuzzing. Three passes:
///
/// 1. **Static** — the graph verifier must find nothing wrong with any
///    real workload's declared DAG, and the plan auditor must find the
///    solver's own migration plan sound for each graph (the two-tenant
///    interleave included).
/// 2. **Fuzz** — correct workloads execute in sanitize mode across
///    worker counts × seeds; every run must report *zero* violations
///    and still reproduce the sequential reference checksum.
/// 3. **Fixtures** — the committed buggy workloads must produce their
///    *exact* expected violation sets, identically at every allowed
///    worker count and seed (schedule independence).
///
/// Any deviation is an error; the summary lands in
/// `BENCH_sanitize.json`, gated by `benchgate` with exact equality.
pub fn sanitize(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
    use tahoe_core::SanitizeReport;
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::json;
    use tahoe_sanitize::{verify_graph, StaticContext};
    use tahoe_workloads::fixtures::all_fixtures;

    banner(if smoke {
        "SANITIZE race detector + access sanitizer (smoke): fuzz + fixtures"
    } else {
        "SANITIZE race detector + access sanitizer: fuzz + fixtures"
    });
    let mk_cfg = || {
        if smoke {
            WallClockConfig::smoke()
        } else {
            WallClockConfig::full()
        }
    };
    let static_ctx = |app: &App| {
        let plat = platform_bw(app, 0.25);
        StaticContext::new(
            app.objects.iter().map(|o| o.size).collect(),
            plat.dram.capacity,
            plat.nvm.capacity,
        )
    };

    // Two-tenant interleaving: the server's cross-tenant composition as
    // one ordinary graph, so the schedule fuzz covers tasks of
    // different tenants sharing windows (and workers) on disjoint
    // objects — a window barrier leaking across tenants or a dependence
    // miscounted between interleaved tasks shows up as a violation.
    let two_tenant = {
        let (a, b) = if smoke {
            (stream::app(Scale::Test), stream::app(Scale::Test))
        } else {
            (stream::app(Scale::Test), cg::app(Scale::Test))
        };
        tahoe_server::interleave(&[(&a, "t0"), (&b, "t1")])
    };

    // ---- pass 1: static graph verification + plan audit -------------
    // The static pass is two verifiers deep: the graph checker, and the
    // plan auditor over the solver's own migration plan for the same
    // platform — including the cross-tenant interleave, where a move
    // scheduled against one tenant's windows could race the other's.
    let mut static_verified = 0u64;
    let mut plans_audited = 0u64;
    for app in all_workloads(Scale::Test)
        .iter()
        .chain(std::iter::once(&two_tenant))
    {
        let rep = verify_graph(&app.graph, &static_ctx(app));
        if !rep.is_clean() {
            return Err(format!(
                "static verifier flagged correct workload {}: {:?}",
                app.name, rep.violations
            ));
        }
        static_verified += 1;
        audit_solver_plan(app, &platform_bw(app, 0.25).tier_specs())?;
        plans_audited += 1;
    }
    println!(
        "  static: {static_verified} workload graphs verified clean, {plans_audited} solver plans audited sound"
    );

    // ---- pass 2: schedule fuzz over correct workloads ----------------
    let apps: Vec<App> = if smoke {
        vec![stream::app(Scale::Test), two_tenant]
    } else {
        vec![stream::app(Scale::Bench), cg::app(Scale::Test), two_tenant]
    };
    // CI's stress-fuzz job widens the schedule matrix (8 workers, more
    // seeds) through these env overrides without a separate code path.
    let worker_counts: Vec<usize> = env_list("SANITIZE_FUZZ_WORKERS", &[1, 2, 4])?;
    let seeds: Vec<u64> = env_list("SANITIZE_FUZZ_SEEDS", &[0, 1, 2])?;
    let (worker_counts, seeds) = (&worker_counts[..], &seeds[..]);
    let mut fuzz_runs = 0u64;
    let mut accesses_checked = 0u64;
    for app in &apps {
        let rt = MeasuredRuntime::new(platform_bw(app, 0.25), mk_cfg());
        let cal = rt.calibrate()?;
        for &workers in worker_counts {
            for &seed in seeds {
                let (rep, san) =
                    rt.run_policy_sanitized(app, &PolicyKind::tahoe(), &cal, workers, seed, &[])?;
                if !san.is_clean() {
                    return Err(format!(
                        "{} @ {workers} workers seed {seed}: sanitizer flagged a correct workload: {:?}",
                        app.name, san.violations
                    ));
                }
                let want = reference_checksum_seeded(app, seed);
                if rep.checksum != want {
                    return Err(format!(
                        "{} @ {workers} workers seed {seed}: checksum {:016x} != reference {want:016x} under sanitize mode",
                        app.name, rep.checksum
                    ));
                }
                fuzz_runs += 1;
                accesses_checked += san.accesses_checked;
            }
        }
        println!(
            "  fuzz: {:<10} clean across {:?} workers x {:?} seeds",
            app.name, worker_counts, seeds
        );
    }

    // ---- pass 3: committed buggy fixtures ----------------------------
    struct FixtureRow {
        name: &'static str,
        runs: u64,
        static_match: bool,
        dynamic_match: bool,
        by_kind: Vec<(&'static str, u64)>,
    }
    let fixture_seeds: &[u64] = &[0, 1];
    let mut rows = Vec::new();
    for f in all_fixtures() {
        let srep = verify_graph(&f.app.graph, &static_ctx(&f.app));
        let static_match = sanitize_counts_match(&srep, &f.expected_static);
        let rt = MeasuredRuntime::new(platform_bw(&f.app, 0.25), mk_cfg());
        let cal = rt.calibrate()?;
        let allowed: Vec<usize> = worker_counts
            .iter()
            .copied()
            .filter(|w| *w <= f.max_workers)
            .collect();
        let mut dynamic_match = true;
        let mut first: Option<SanitizeReport> = None;
        let mut runs = 0u64;
        for &workers in &allowed {
            for &seed in fixture_seeds {
                let (_, san) = rt.run_policy_sanitized(
                    &f.app,
                    &PolicyKind::DramOnly,
                    &cal,
                    workers,
                    seed,
                    &f.extra,
                )?;
                if !sanitize_counts_match(&san, &f.expected_dynamic) {
                    dynamic_match = false;
                }
                match &first {
                    None => first = Some(san),
                    // Schedule independence: byte-identical reports at
                    // every worker count and seed.
                    Some(prev) if *prev != san => dynamic_match = false,
                    Some(_) => {}
                }
                runs += 1;
            }
        }
        let rep = first.ok_or_else(|| format!("fixture {} never ran", f.name))?;
        println!(
            "  fixture: {:<20} {} runs, static {}, dynamic {} ({} violations)",
            f.name,
            runs,
            if static_match { "ok" } else { "MISMATCH" },
            if dynamic_match { "ok" } else { "MISMATCH" },
            rep.violations.len() + srep.violations.len()
        );
        if !static_match || !dynamic_match {
            return Err(format!(
                "fixture {} deviated from its expected violation set: static {:?}, dynamic {:?}",
                f.name, srep.violations, rep.violations
            ));
        }
        let mut by_kind = srep.by_kind();
        for (i, (_, n)) in rep.by_kind().into_iter().enumerate() {
            by_kind[i].1 += n;
        }
        rows.push(FixtureRow {
            name: f.name,
            runs,
            static_match,
            dynamic_match,
            by_kind,
        });
    }

    // ---- BENCH_sanitize.json -----------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-sanitize/v1\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        smoke
    ));
    out.push_str(&format!(
        "  \"static\": {{\"workloads_verified\": {static_verified}, \"plans_audited\": {plans_audited}, \"clean\": true}},\n"
    ));
    let fmt_list = |v: &[u64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!(
        "  \"fuzz\": {{\"workloads\": {}, \"workers\": [{}], \"seeds\": [{}], \"runs\": {fuzz_runs}, \"accesses_checked\": {accesses_checked}, \"clean\": true}},\n",
        apps.len(),
        fmt_list(&worker_counts.iter().map(|w| *w as u64).collect::<Vec<_>>()),
        fmt_list(seeds)
    ));
    out.push_str("  \"fixtures\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"runs\": {}, \"static_match\": {}, \"dynamic_match\": {}, \"violations\": {{",
            r.name, r.runs, r.static_match, r.dynamic_match
        ));
        for (j, (tag, n)) in r.by_kind.iter().enumerate() {
            out.push_str(&format!("{}\"{tag}\": {n}", if j > 0 { ", " } else { "" }));
        }
        out.push_str(&format!(
            "}}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"consistency\": {\"correct_workloads_clean\": true, \"fixtures_exact\": true}\n}\n",
    );
    json::parse(&out).map_err(|e| format!("BENCH_sanitize.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_sanitize.json"), &out)
        .map_err(|e| format!("write BENCH_sanitize.json: {e}"))?;
    println!(
        "  {} fuzz runs clean ({} accesses shadowed), {} fixtures exact -> {dir}/BENCH_sanitize.json",
        fuzz_runs,
        accesses_checked,
        rows.len()
    );
    Ok(())
}

/// The migration plan a solver assignment implies under the Tahoe
/// convention: every object starts on the slowest (spill) tier and is
/// promoted to its assigned tier at the same profile-window boundary
/// `run_policy*` migrates at.
fn assignment_plan(app: &App, tiers: &[u8], n_tiers: usize) -> tahoe_core::MigrationPlan {
    let last = (n_tiers - 1) as u8;
    let boundary = tahoe_core::engine::profile_boundary(app.windows());
    tahoe_core::MigrationPlan {
        initial_tiers: vec![last; app.objects.len()],
        steps: tiers
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != last)
            .map(|(i, &t)| tahoe_core::PlanStep {
                object: i as u32,
                to_tier: t,
                window: boundary,
            })
            .collect(),
    }
}

/// Solve the placement over `specs` and run the static plan auditor on
/// the implied migration plan; errs if the auditor flags anything.
/// Returns the number of migration steps the audited plan carries.
fn audit_solver_plan(app: &App, specs: &[tahoe_hms::TierSpec]) -> Result<u64, String> {
    use tahoe_core::measured::modelled_plan;
    let (assignment, _) = modelled_plan(app, specs)?;
    let plan = assignment_plan(app, &assignment.tiers, specs.len());
    let ctx = tahoe_core::PlanContext::new(app.objects.iter().map(|o| o.size).collect());
    let rep = tahoe_core::audit_plan(&app.graph, &plan, specs, &ctx);
    if !rep.is_clean() {
        return Err(format!(
            "{} ({} tiers): solver-produced plan failed its own audit: {:?}",
            app.name,
            specs.len(),
            rep.violations
        ));
    }
    Ok(plan.steps.len() as u64)
}

/// `exp verify`: the static plan-soundness auditor and the lock-free
/// pin/move protocol model checker, as one self-validated artifact.
/// Four passes:
///
/// 1. **Plans** — every workload's solver-produced migration plan (the
///    multiple-choice knapsack over preset 2- and 3-tier platforms)
///    must audit clean: per-prefix tier capacity, schedule-universal
///    move safety, target validity, object liveness, no double moves,
///    and modelled-cost non-regression. Pure model, no calibration —
///    the counts are identical on every machine.
/// 2. **Preflight** — [`MeasuredRuntime::verify_plan`] (the same audit
///    `run_policy`/`run_policy_parallel` enforce before executing
///    anything) must pass for every headline policy over the real
///    allocator's placements.
/// 3. **Fixtures** — the committed buggy plans must reproduce their
///    *exact* expected diagnostic sets, nothing more, nothing less.
/// 4. **Mcheck** — the bounded exhaustive interleaving checker
///    certifies the pin/move word protocol clean at *pinned*
///    explored-state counts, and each of the four injected protocol
///    bugs (dropped wakes, unannounced park, pin through MOVING) is
///    caught.
///
/// The summary lands in `BENCH_verify.json`
/// (`tahoe-bench-verify/v1`), gated by `benchgate` with exact equality.
pub fn verify(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_core::measured::MeasuredRuntime;
    use tahoe_memprof::wallclock::WallClockConfig;
    use tahoe_obs::json;
    use tahoe_sanitize::mcheck::{certify, check};
    use tahoe_sanitize::McheckConfig;
    use tahoe_workloads::fixtures::all_plan_fixtures;

    banner(if smoke {
        "VERIFY plan auditor + protocol model checker (smoke)"
    } else {
        "VERIFY plan auditor + protocol model checker"
    });

    // ---- pass 1: solver plans audit clean ---------------------------
    let apps = all_workloads(Scale::Test);
    let mut plans_audited = 0u64;
    let mut steps_total = 0u64;
    for app in &apps {
        let fp = app.footprint();
        let two = Platform::optane(dram_budget(app), 4 * fp).tier_specs();
        let three = Platform::optane_cxl(dram_budget(app), fp / 2, 4 * fp).tier_specs();
        for specs in [&two, &three] {
            steps_total += audit_solver_plan(app, specs)?;
            plans_audited += 1;
        }
    }
    println!(
        "  plans: {plans_audited} solver plans over {} workloads audited sound ({steps_total} migration steps)",
        apps.len()
    );

    // ---- pass 2: measured-run preflight ------------------------------
    let preflight_apps: Vec<App> = if smoke {
        vec![stream::app(Scale::Test), cg::app(Scale::Test)]
    } else {
        all_workloads(Scale::Test)
    };
    let policies = [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::tahoe(),
    ];
    let mut preflight_runs = 0u64;
    for app in &preflight_apps {
        let cfg = if smoke {
            WallClockConfig::smoke()
        } else {
            WallClockConfig::full()
        };
        let rt = MeasuredRuntime::new(platform_bw(app, 0.25), cfg);
        let cal = rt.calibrate()?;
        for p in &policies {
            let rep = rt.verify_plan(app, p, &cal)?;
            if !rep.is_clean() {
                return Err(format!(
                    "{} under {}: preflight audit flagged the runtime's own plan: {:?}",
                    app.name,
                    p.name(),
                    rep.violations
                ));
            }
            preflight_runs += 1;
        }
    }
    println!(
        "  preflight: {preflight_runs} policy plans over {} workloads verified clean",
        preflight_apps.len()
    );

    // ---- pass 3: committed buggy-plan fixtures -----------------------
    struct FixtureRow {
        name: &'static str,
        by_kind: Vec<(&'static str, u64)>,
    }
    let mut rows = Vec::new();
    for f in all_plan_fixtures() {
        let rep = tahoe_core::audit_plan(&f.app.graph, &f.plan, &f.specs, &f.context());
        let got: Vec<(&'static str, u64)> =
            rep.by_kind().into_iter().filter(|&(_, n)| n > 0).collect();
        println!(
            "  fixture: {:<26} {} violation(s), {}",
            f.name,
            rep.violations.len(),
            if got == f.expected_audit {
                "exact"
            } else {
                "MISMATCH"
            }
        );
        if got != f.expected_audit {
            return Err(format!(
                "plan fixture {} deviated from its expected diagnostic set: want {:?}, got {:?}",
                f.name, f.expected_audit, rep.violations
            ));
        }
        rows.push(FixtureRow {
            name: f.name,
            by_kind: rep.by_kind(),
        });
    }

    // ---- pass 4: protocol model checker ------------------------------
    let sweep = certify();
    for r in &sweep {
        if !r.ok() {
            return Err(format!(
                "protocol certification failed at {} pinners: {:?} ({} deadlocks)",
                r.config.pinners, r.violations, r.deadlocks
            ));
        }
        println!(
            "  mcheck: {} pinners x {} moves certified clean — {} states, {} transitions",
            r.config.pinners, r.config.moves, r.states, r.transitions
        );
    }
    // Negative controls: each seeded protocol bug must be caught, or
    // the checker's clean verdicts above mean nothing.
    let bug_configs: Vec<(&str, McheckConfig)> = {
        let base = McheckConfig::new(2, 1, 1);
        let with = |f: fn(&mut McheckConfig)| {
            let mut c = base;
            f(&mut c);
            c
        };
        vec![
            ("skip_unpin_wake", with(|c| c.bugs.skip_unpin_wake = true)),
            (
                "skip_release_wake",
                with(|c| c.bugs.skip_release_wake = true),
            ),
            ("skip_parked_bit", with(|c| c.bugs.skip_parked_bit = true)),
            (
                "pin_ignores_moving",
                with(|c| c.bugs.pin_ignores_moving = true),
            ),
        ]
    };
    let bugs_injected = bug_configs.len() as u64;
    let mut bugs_caught = 0u64;
    for (name, cfg) in &bug_configs {
        let r = check(*cfg);
        if r.ok() {
            return Err(format!(
                "injected protocol bug `{name}` escaped the model checker"
            ));
        }
        bugs_caught += 1;
    }
    println!("  mcheck: {bugs_caught}/{bugs_injected} injected protocol bugs caught");

    // ---- BENCH_verify.json -------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-verify/v1\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        smoke
    ));
    out.push_str(&format!(
        "  \"plans\": {{\"workloads\": {}, \"tier_depths\": [2, 3], \"audited\": {plans_audited}, \"steps_total\": {steps_total}, \"clean\": true}},\n",
        apps.len()
    ));
    out.push_str(&format!(
        "  \"preflight\": {{\"workloads\": {}, \"policies\": {}, \"runs\": {preflight_runs}, \"clean\": true}},\n",
        preflight_apps.len(),
        policies.len()
    ));
    out.push_str("  \"fixtures\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"violations\": {{",
            r.name
        ));
        for (j, (tag, n)) in r.by_kind.iter().enumerate() {
            out.push_str(&format!("{}\"{tag}\": {n}", if j > 0 { ", " } else { "" }));
        }
        out.push_str(&format!(
            "}}, \"exact\": true}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"mcheck\": {\"configs\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pinners\": {}, \"pin_cycles\": {}, \"moves\": {}, \"states\": {}, \"transitions\": {}, \"terminals\": {}, \"deadlocks\": {}}}{}\n",
            r.config.pinners,
            r.config.pin_cycles,
            r.config.moves,
            r.states,
            r.transitions,
            r.terminals,
            r.deadlocks,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ], \"bugs_injected\": {bugs_injected}, \"bugs_caught\": {bugs_caught}, \"clean\": true}},\n"
    ));
    out.push_str(
        "  \"consistency\": {\"solver_plans_clean\": true, \"preflight_clean\": true, \"fixtures_exact\": true, \"protocol_certified\": true, \"bugs_all_caught\": true}\n}\n",
    );
    json::parse(&out).map_err(|e| format!("BENCH_verify.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_verify.json"), &out)
        .map_err(|e| format!("write BENCH_verify.json: {e}"))?;
    println!(
        "  {plans_audited} plans + {preflight_runs} preflights clean, {} fixtures exact, protocol certified -> {dir}/BENCH_verify.json",
        rows.len()
    );
    Ok(())
}

/// Geometry of the multi-tenant fairness bench: every tenant runs the
/// same app shape, so solo references and cross-tenant comparisons are
/// apples-to-apples.
struct TenantGeometry {
    /// Hot objects per tenant (each updated in full by every task).
    pieces: u32,
    /// Size of each hot object.
    piece_bytes: u64,
    windows: u32,
    tasks_per_window: u32,
    /// Pure compute per task, microseconds (spin-paced). Sized so a
    /// graph's compute is about twice its full-NVM inject: memory
    /// placement decides the latency spread, while the compute floor
    /// keeps free-for-all's cheap winner graphs from inflating its
    /// aggregate throughput.
    compute_us: f64,
    /// Closed-loop window, milliseconds (time-bounded so fast tenants
    /// never exit early and relieve the losers).
    run_ms: u64,
    /// Solo graphs the cold tenant runs before the actives join.
    warmup_graphs: usize,
    /// Open-loop burst length for the admission-control phase.
    burst: usize,
}

impl TenantGeometry {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                pieces: 4,
                piece_bytes: 256 << 10,
                windows: 3,
                tasks_per_window: 2,
                compute_us: 1900.0,
                run_ms: 300,
                warmup_graphs: 2,
                burst: 6,
            }
        } else {
            Self {
                pieces: 4,
                piece_bytes: 256 << 10,
                windows: 4,
                tasks_per_window: 3,
                compute_us: 1900.0,
                run_ms: 700,
                warmup_graphs: 2,
                burst: 6,
            }
        }
    }

    /// One tenant's hot-set size.
    fn hot_bytes(&self) -> u64 {
        self.pieces as u64 * self.piece_bytes
    }

    /// Global DRAM budget: half the combined active hot sets (4 active
    /// tenants, budget = 2 hot sets) plus a little allocator slack —
    /// enough that the quota arbiter gives every active tenant half its
    /// pieces, while free-for-all lets two tenants take everything.
    fn dram_budget(&self) -> u64 {
        2 * self.hot_bytes() + 2048
    }

    /// The per-tenant app: `pieces` equally-hot objects, every task
    /// streams an update over all of them plus a compute phase.
    fn app(&self, name: &str) -> App {
        let mut b = AppBuilder::new(name);
        let ids: Vec<ObjectId> = (0..self.pieces)
            .map(|i| b.object(&format!("hot{i}"), self.piece_bytes))
            .collect();
        let c = b.class("work");
        let lines = self.piece_bytes / 64;
        for w in 0..self.windows {
            if w > 0 {
                b.next_window();
            }
            for _ in 0..self.tasks_per_window {
                let mut tb = b.task(c).compute_us(self.compute_us);
                for id in &ids {
                    tb = tb.update_streaming(*id, lines);
                }
                tb.submit();
            }
        }
        b.build()
    }
}

/// Nearest-rank percentile over an already-sorted sample.
fn pctile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-tenant digest of one arbitration mode's run.
struct TenantRow {
    tenant: u32,
    name: String,
    role: &'static str,
    graphs: u64,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    preempted: u64,
    shed: u64,
    quota_bytes: u64,
    promoted_bytes: u64,
    demoted_bytes: u64,
}

/// Whole-mode digest: aggregate throughput, fairness, and per-tenant rows.
struct TenantModeStats {
    mode: &'static str,
    wall_ms: f64,
    aggregate_gps: f64,
    jain: f64,
    worst_p99_ms: f64,
    preempted: u64,
    shed: u64,
    checksums_ok: bool,
}

/// Run one arbitration mode end-to-end: a cold tenant warms up solo
/// (promoting its whole hot set), four active tenants then drive the
/// server closed-loop at saturation, and — in quota mode — one tenant
/// bursts past the queue bound so admission control sheds.
fn tenant_mode(
    mode_name: &'static str,
    mode: tahoe_server::ArbiterMode,
    geo: &TenantGeometry,
    base_seed: u64,
) -> Result<(TenantModeStats, Vec<TenantRow>), String> {
    use tahoe_core::measured::reference_checksum_seeded;
    use tahoe_hms::TierSpec;
    use tahoe_memprof::wallclock::{MeasuredTier, WallClockCalibration};
    use tahoe_obs::{Emitter, Metrics};
    use tahoe_server::{driver, jain, ServerConfig, TahoeServer, TenantSpec};

    // Synthetic calibration — machine-independent and strongly
    // NVM-bound: DRAM 10 GB/s / 100 ns, NVM 0.25 GB/s / 500 ns, so a
    // full hot-set update on NVM injects ~40x the DRAM memory time and
    // the placement decision, not scheduler noise, sets the latency
    // spread between the modes: the structural p99 gap must dwarf the
    // multi-ms OS scheduling jitter of a loaded CI box.
    let cal = WallClockCalibration {
        dram: TierSpec::symmetric("dram", 100.0, 10.0, 1 << 20),
        nvm: TierSpec::symmetric("nvm", 500.0, 0.25, 1 << 26),
        cf_bw: 1.0,
        cf_lat: 1.0,
        measured: MeasuredTier {
            stream_bw_gbps: 10.0,
            chase_lat_ns: 100.0,
            stream_wall_ns: 1000.0,
            chase_wall_ns: 1000.0,
        },
    };
    let srv = TahoeServer::new(
        ServerConfig {
            workers: 2,
            dram_budget: geo.dram_budget(),
            nvm_capacity: 1 << 26,
            mode,
            max_queue: 2,
        },
        cal,
        Emitter::disabled(),
        Metrics::disabled(),
    )?;

    // Tenant 0 is the cold tenant; 1..=4 are the active fleet.
    let names: Vec<String> = std::iter::once("cold".to_string())
        .chain((1..=4).map(|i| format!("t{i}")))
        .collect();
    let handles: Vec<_> = names
        .iter()
        .map(|n| {
            srv.register_tenant(TenantSpec::new(n, 1.0), geo.app(n))
                .map_err(|e| format!("register {n}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let refs: Vec<u64> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            reference_checksum_seeded(
                &geo.app(&names[i]),
                driver::tenant_seed(base_seed, h.tenant()),
            )
        })
        .collect();

    // Phase 1: the cold tenant runs alone and wins the whole budget.
    let cold_out = driver::warmup(&handles[0], geo.warmup_graphs, base_seed);

    // Phase 2: saturating closed loop across the four active tenants,
    // pipelined two-deep (every tenant stays busy-or-queued, so the
    // arbiter sees a stable active set) and time-bounded (fast tenants
    // keep submitting instead of finishing early and handing the
    // losers an uncontended tail).
    let actives: Vec<&_> = handles[1..].iter().collect();
    let t0 = std::time::Instant::now();
    let outcomes = driver::closed_loop_timed(
        &actives,
        std::time::Duration::from_millis(geo.run_ms),
        2,
        base_seed,
    );
    let wall_ns = t0.elapsed().as_nanos() as f64;

    // Phase 3 (quota mode only): open-loop burst past the queue bound.
    let burst_out = if geo.burst > 0 && mode_name == "quota" {
        let seed = driver::tenant_seed(base_seed, handles[1].tenant());
        Some(driver::burst(&handles[1], geo.burst, seed))
    } else {
        None
    };

    let report = srv.shutdown();

    // Validate every checksum against its tenant's solo reference.
    let mut checksums_ok = true;
    for o in cold_out
        .iter()
        .chain(outcomes.iter())
        .chain(burst_out.iter().flat_map(|(v, _)| v.iter()))
    {
        if o.checksum != refs[o.tenant as usize] {
            checksums_ok = false;
        }
    }

    // Per-active-tenant latency samples from the contended phase only
    // (exact values; the per-tenant histogram digests in the report
    // stay available for observability).
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    let mut worst_p99_ms = 0.0f64;
    for (i, t) in report.tenants.iter().enumerate() {
        let role = if i == 0 { "cold" } else { "active" };
        let mut lat: Vec<f64> = if i == 0 {
            cold_out.iter().map(|o| o.latency_ns).collect()
        } else {
            outcomes
                .iter()
                .filter(|o| o.tenant == t.tenant)
                .map(|o| o.latency_ns)
                .collect()
        };
        lat.sort_by(|a, b| a.total_cmp(b));
        let mean_ns = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
        let p99_ms = pctile(&lat, 0.99) / 1e6;
        if i > 0 {
            rates.push(1e9 / mean_ns.max(1.0));
            worst_p99_ms = worst_p99_ms.max(p99_ms);
        }
        rows.push(TenantRow {
            tenant: t.tenant,
            name: t.name.clone(),
            role,
            graphs: lat.len() as u64,
            p50_ms: pctile(&lat, 0.50) / 1e6,
            p99_ms,
            mean_ms: mean_ns / 1e6,
            preempted: t.preempted,
            shed: t.shed,
            quota_bytes: t.last_quota,
            promoted_bytes: t.promoted_bytes,
            demoted_bytes: t.demoted_bytes,
        });
    }
    let stats = TenantModeStats {
        mode: mode_name,
        wall_ms: wall_ns / 1e6,
        aggregate_gps: outcomes.len() as f64 / (wall_ns / 1e9),
        jain: jain(&rates),
        worst_p99_ms,
        preempted: report.preempted_total(),
        shed: report.shed_total(),
        checksums_ok,
    };
    Ok((stats, rows))
}

/// TENANT — the multi-tenant fairness experiment (`exp tenant`).
///
/// Five tenants share one server: a cold tenant warms its hot set into
/// DRAM and goes idle, then four active tenants drive the server
/// closed-loop at saturation. The same load runs twice — once under
/// the cross-tenant quota arbiter (demand-proportional with 50%
/// weighted floors), once under free-for-all (keep-what-you-have,
/// never preempt) — and the run self-validates the arbiter's case:
///
/// 1. every graph's checksum is bit-identical to the tenant running
///    alone (determinism survives contention and preemption),
/// 2. quota mode beats free-for-all on the worst per-tenant p99,
/// 3. aggregate throughput gives up at most 10% for that fairness,
/// 4. the Jain index across active tenants' service rates is ≥ 0.9,
/// 5. the arbiter preempted the cold tenant's DRAM (and free-for-all
///    never preempts),
/// 6. an open-loop burst past the queue bound sheds at admission.
///
/// The digest lands in `BENCH_tenant.json` (schema
/// `tahoe-bench-tenant/v1`), gated by `benchgate`.
pub fn tenant(smoke: bool, dir: &str) -> Result<(), String> {
    use tahoe_obs::json;
    use tahoe_server::{ArbiterMode, QuotaPolicy};

    banner(if smoke {
        "TENANT multi-tenant fairness (smoke): quota arbiter vs free-for-all"
    } else {
        "TENANT multi-tenant fairness: quota arbiter vs free-for-all"
    });
    let geo = TenantGeometry::new(smoke);
    let base_seed = 40;
    let quota = ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 });
    let modes = [
        tenant_mode("quota", quota, &geo, base_seed)?,
        tenant_mode("free_for_all", ArbiterMode::FreeForAll, &geo, base_seed)?,
    ];

    for (stats, rows) in &modes {
        println!(
            "  {:<13} wall {:>8.1} ms  agg {:>6.1} graphs/s  jain {:.3}  worst p99 {:>8.2} ms  preempted {}  shed {}",
            stats.mode, stats.wall_ms, stats.aggregate_gps, stats.jain, stats.worst_p99_ms,
            stats.preempted, stats.shed
        );
        for r in rows {
            println!(
                "    {:<6} {:<7} graphs {:>2}  p50 {:>8.2} ms  p99 {:>8.2} ms  quota {:>7} B  prom {:>7} B  dem {:>7} B",
                r.name, r.role, r.graphs, r.p50_ms, r.p99_ms, r.quota_bytes,
                r.promoted_bytes, r.demoted_bytes
            );
        }
    }

    // ---- self-validation: the quota arbiter must earn its keep ------
    let (q, f) = (&modes[0].0, &modes[1].0);
    let checksums_match_solo = q.checksums_ok && f.checksums_ok;
    if !checksums_match_solo {
        return Err("a tenant checksum diverged from its solo reference".into());
    }
    if q.worst_p99_ms >= f.worst_p99_ms {
        return Err(format!(
            "quota worst p99 {:.2} ms does not beat free-for-all {:.2} ms",
            q.worst_p99_ms, f.worst_p99_ms
        ));
    }
    if q.aggregate_gps < 0.9 * f.aggregate_gps {
        return Err(format!(
            "quota aggregate throughput {:.1} graphs/s gave up more than 10% vs free-for-all {:.1}",
            q.aggregate_gps, f.aggregate_gps
        ));
    }
    if q.jain < 0.9 {
        return Err(format!(
            "quota Jain index {:.3} below the 0.9 floor",
            q.jain
        ));
    }
    if q.preempted == 0 {
        return Err("quota mode never preempted the cold tenant".into());
    }
    if f.preempted != 0 {
        return Err(format!("free-for-all preempted {} times", f.preempted));
    }
    if q.shed == 0 {
        return Err("the burst past the queue bound shed nothing".into());
    }

    // ---- BENCH_tenant.json ------------------------------------------
    let topo = tahoe_realmem::numa::probe();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tahoe-bench-tenant/v1\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"arch\": \"{}\", \"os\": \"{}\", \"numa_nodes\": {}, \"cpus\": {}, \"smoke\": {}}},\n",
        std::env::consts::ARCH,
        std::env::consts::OS,
        topo.nodes,
        cpus,
        smoke
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"active_tenants\": 4, \"cold_tenants\": 1, \"pieces\": {}, \"piece_bytes\": {}, \"windows\": {}, \"tasks_per_window\": {}, \"compute_us\": {:.1}, \"run_ms\": {}, \"warmup_graphs\": {}, \"burst\": {}, \"dram_budget\": {}}},\n",
        geo.pieces, geo.piece_bytes, geo.windows, geo.tasks_per_window, geo.compute_us,
        geo.run_ms, geo.warmup_graphs, geo.burst, geo.dram_budget()
    ));
    out.push_str(
        "  \"calibration\": {\"dram_gbps\": 10.0, \"nvm_gbps\": 0.25, \"dram_lat_ns\": 100.0, \"nvm_lat_ns\": 500.0},\n",
    );
    out.push_str("  \"modes\": [\n");
    for (mi, (stats, rows)) in modes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"wall_ms\": {:.3}, \"aggregate_graphs_per_s\": {:.3}, \"jain\": {:.4}, \"worst_p99_ms\": {:.3}, \"preempted\": {}, \"shed\": {}, \"checksums_match_solo\": {}, \"tenants\": [\n",
            stats.mode, stats.wall_ms, stats.aggregate_gps, stats.jain, stats.worst_p99_ms,
            stats.preempted, stats.shed, stats.checksums_ok
        ));
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"tenant\": {}, \"name\": \"{}\", \"role\": \"{}\", \"graphs\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \"preempted\": {}, \"shed\": {}, \"quota_bytes\": {}, \"promoted_bytes\": {}, \"demoted_bytes\": {}}}{}\n",
                r.tenant, r.name, r.role, r.graphs, r.p50_ms, r.p99_ms, r.mean_ms,
                r.preempted, r.shed, r.quota_bytes, r.promoted_bytes, r.demoted_bytes,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if mi + 1 < modes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"consistency\": {{\"checksums_match_solo\": true, \"quota_beats_ffa_worst_p99\": true, \"throughput_within_10pct\": true, \"jain_quota_ge_090\": true, \"quota_preempts\": true, \"ffa_never_preempts\": true, \"burst_sheds\": true, \"quota_worst_p99_ms\": {:.3}, \"ffa_worst_p99_ms\": {:.3}, \"throughput_ratio\": {:.4}}}\n}}\n",
        q.worst_p99_ms,
        f.worst_p99_ms,
        q.aggregate_gps / f.aggregate_gps
    ));
    json::parse(&out).map_err(|e| format!("BENCH_tenant.json self-check: {e}"))?;

    let path = std::path::Path::new(dir);
    std::fs::create_dir_all(path).map_err(|e| format!("create {dir}: {e}"))?;
    std::fs::write(path.join("BENCH_tenant.json"), &out)
        .map_err(|e| format!("write BENCH_tenant.json: {e}"))?;
    println!(
        "  quota beats free-for-all on worst p99 ({:.2} vs {:.2} ms), jain {:.3} -> {dir}/BENCH_tenant.json",
        q.worst_p99_ms, f.worst_p99_ms, q.jain
    );
    Ok(())
}

/// Run every experiment in order.
pub fn all() {
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
    e13();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_workloads::stream;

    #[test]
    fn platform_builders_scale_with_app() {
        let app = stream::app(Scale::Test);
        let p = platform_bw(&app, 0.5);
        assert!(p.dram.capacity >= 1 << 20);
        assert!(p.nvm.capacity >= app.footprint());
        let q = platform_lat(&app, 4.0);
        assert!(q.nvm.read_lat_ns > q.dram.read_lat_ns);
    }

    #[test]
    fn dram_budget_is_quarter_footprint() {
        let app = stream::app(Scale::Bench);
        assert_eq!(dram_budget(&app), app.footprint() / 4);
    }
}
