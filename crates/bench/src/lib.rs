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

use std::path::{Path, PathBuf};

use tahoe_core::engine::NoSanitize;
use tahoe_core::measured::{
    mck_items_for, modelled_plan, object_latency_bound, promotion_plan, reference_checksum,
    reference_checksum_seeded, MeasuredRuntime,
};
use tahoe_core::prelude::*;
use tahoe_core::{ModelAudit, TahoeOptions};
use tahoe_hms::ObjectId;
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_obs::json::{self, Value};
use tahoe_obs::{Emitter, Event, Metrics};
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

/// Banner and wall-clock probe sizing of an artifact run, at CI scale
/// (`smoke`) or full scale.
fn artifact_banner(title: &str, smoke: bool) -> WallClockConfig {
    banner(&format!("{title}{}", if smoke { " (smoke)" } else { "" }));
    if smoke {
        WallClockConfig::smoke()
    } else {
        WallClockConfig::full()
    }
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

// ---- gated artifacts --------------------------------------------------
//
// Each `exp <kind>` below builds its `BENCH_*.json` as a `Value` whose
// health flags are computed, not asserted; `produce` writes it and lets
// the band table in `gate.rs` decide whether the run passed.

/// `{"key": value, ...}` with every value converted through
/// `Value::from`; `obj!(base; ...)` adds the fields to an object.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        obj!(Value::object::<&str>([]); $($key: $value),*)
    };
    ($base:expr; $($key:literal: $value:expr),* $(,)?) => {{
        let mut doc = $base;
        if let Value::Object(map) = &mut doc {
            $(map.insert($key.to_string(), Value::from($value));)*
        }
        doc
    }};
}

fn hex(x: u64) -> Value {
    format!("{x:016x}").into()
}

/// The `machine` block.
fn machine_json(smoke: bool) -> Value {
    obj! {
        "arch": std::env::consts::ARCH,
        "os": std::env::consts::OS,
        "numa_nodes": tahoe_realmem::numa::probe().nodes,
        "smoke": smoke,
    }
}

fn workload_json(app: &App) -> Value {
    obj! {
        "name": app.name.as_str(),
        "footprint_bytes": app.footprint(),
        "windows": app.windows(),
        "tasks": app.graph.len(),
    }
}

/// `{"total": n, "by_kind": {kind: count, ...}}` of an event stream.
fn events_json(events: &[Event]) -> Value {
    let mut by_kind = std::collections::BTreeMap::<&str, u64>::new();
    for e in events {
        *by_kind.entry(e.kind()).or_insert(0) += 1;
    }
    obj! {
        "total": events.len(),
        "by_kind": Value::object(by_kind.into_iter().map(|(k, n)| (k, n.into()))),
    }
}

/// The four policies every measured artifact compares, fast bound first.
fn headline_policies() -> [PolicyKind; 4] {
    use PolicyKind::{DramOnly, FirstTouch, NvmOnly};
    [DramOnly, NvmOnly, FirstTouch, PolicyKind::tahoe()]
}

/// What the measured-mode artifacts share: one app on a calibrated
/// wall-clock runtime, at CI scale (`smoke`) or full scale.
struct Measured {
    smoke: bool,
    app: App,
    tiers: Vec<tahoe_hms::TierSpec>,
    rt: MeasuredRuntime,
    cal: WallClockCalibration,
}

impl Measured {
    fn start(
        title: &str,
        smoke: bool,
        app: fn(Scale) -> App,
        platform: impl FnOnce(&App) -> Platform,
        observe: Option<(Emitter, Metrics)>,
    ) -> Result<Self, String> {
        let cfg = artifact_banner(title, smoke);
        let app = app(if smoke { Scale::Test } else { Scale::Bench });
        let platform = platform(&app);
        let tiers = platform.tier_specs().to_vec();
        let mut rt = MeasuredRuntime::new(platform, cfg);
        if let Some((emitter, metrics)) = observe {
            rt = rt.with_observability(emitter, metrics);
        }
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
        Ok(Measured {
            smoke,
            app,
            tiers,
            rt,
            cal,
        })
    }

    /// The `machine` / `workload` / `calibration` preamble.
    fn head(&self) -> Value {
        let cal = &self.cal;
        obj! {
            "machine": machine_json(self.smoke),
            "workload": workload_json(&self.app),
            "calibration": obj! {
                "dram_bw_gbps": Value::fixed(cal.dram.read_bw_gbps, 6),
                "dram_lat_ns": Value::fixed(cal.dram.read_lat_ns, 6),
                "nvm_bw_gbps": Value::fixed(cal.nvm.read_bw_gbps, 6),
                "nvm_lat_ns": Value::fixed(cal.nvm.read_lat_ns, 6),
                "cf_bw": Value::fixed(cal.cf_bw, 6),
                "cf_lat": Value::fixed(cal.cf_lat, 6),
            },
        }
    }
}

/// Observability artifact: one observed wall-clock Tahoe run of STREAM
/// at test scale, made twice, and the first run's capture (JSONL event
/// stream, Chrome/Perfetto trace, metrics JSON) written under `dir`.
/// Three inputs are pinned so the plan, and with it every event count,
/// is the same on every host: a preset calibration (nothing measured),
/// one worker, and no spare core for the migration thread (the global
/// plan). The digest holds the counts, which the gate compares exactly;
/// timestamps are measurements and stay out of it. A capture that does
/// not parse is an error.
fn obs_artifact(_smoke: bool, dir: &Path) -> Result<Value, String> {
    banner(
        "OBS  observability artifact (observed wall-clock tahoe, stream @ test scale, 1 worker)",
    );
    let app = stream::app(Scale::Test);
    let (dram, nvm) = (app.footprint() / 4, 2 * app.footprint());
    let mut cal = WallClockCalibration::synthetic(dram, nvm);
    cal.dram = tahoe_hms::presets::dram(dram);
    cal.nvm = tahoe_hms::presets::optane_pmm(nvm);
    let rt = MeasuredRuntime::new(Platform::optane(dram, nvm), WallClockConfig::smoke());
    let observed = || {
        let (emitter, buffer) = Emitter::buffered();
        let metrics = Metrics::enabled();
        let r = rt
            .clone()
            .with_observability(emitter, metrics.clone())
            .run_policy_hooked(&app, &PolicyKind::tahoe(), &cal, 1, 0, false, &NoSanitize)?;
        Ok::<_, String>((r, buffer.drain(), metrics.snapshot()))
    };
    let (report, events, metrics) = observed()?;
    let (_, again, _) = observed()?;

    let jsonl = tahoe_obs::to_jsonl(&events);
    for (i, line) in jsonl.lines().enumerate() {
        let v = json::parse(line).map_err(|e| format!("events.jsonl line {}: {e}", i + 1))?;
        if v.get("ev").and_then(|t| t.as_str()).is_none() || v.get("t").is_none() {
            return Err(format!("events.jsonl line {} lacks `ev` or `t`", i + 1));
        }
    }
    let trace = tahoe_obs::to_chrome_trace(&events);
    json::parse(&trace).map_err(|e| format!("trace.json: {e}"))?;
    let metrics = metrics.to_json();
    json::parse(&metrics).map_err(|e| format!("metrics.json: {e}"))?;
    for (name, text) in [
        ("events.jsonl", &jsonl),
        ("trace.json", &trace),
        ("metrics.json", &metrics),
    ] {
        std::fs::write(dir.join(name), text).map_err(|e| format!("write {name}: {e}"))?;
    }

    println!(
        "  {} events ({} on the rerun), {} tasks, {} migrations, wall {:.3} ms",
        events.len(),
        again.len(),
        app.graph.len(),
        report.migration.count,
        report.wall_ns / 1e6
    );
    Ok(obj! {
        "workload": workload_json(&app),
        "events": events_json(&events),
        "rerun_events": events_json(&again),
        "migrations": report.migration.count,
        "ring_dropped": report.obs_ring_dropped,
        "plan_steps_skipped": report.plan_steps_skipped,
        "checksum": hex(report.checksum),
        "reference_checksum": hex(reference_checksum(&app)),
    })
}

/// `exp real [--tiers N]`: the measured-mode experiment. Runs each
/// headline policy once at each worker count (smoke 1/2/4, full
/// 1/2/4/8) on the work-stealing pool with the background migration
/// thread, over `mmap`-arena-backed objects with software-emulated slow
/// tiers, and returns the `tahoe-bench-real/v3` document: the preamble,
/// the tier list by *preset* name, one row per run, and the flags every
/// real-mode run owes — every run's traffic matches the heap reference
/// bit for bit, DRAM-only throughput is at least slow-tier-only at one
/// worker, and every multi-worker Tahoe run that migrated hid some copy
/// time.
fn real_doc(m: &Measured) -> Result<Value, String> {
    let worker_counts: &[usize] = if m.smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let reference = reference_checksum(&m.app);
    println!(
        "  {:<12} {:>7} {:>10} {:>10} {:>6} {:>6} {:>7} {:>9} {:>9}  objects per tier",
        "policy", "threads", "wall ms", "GB/s", "migr", "evict", "plan x", "%overlap", "gate ms"
    );
    let mut runs = Vec::new();
    for policy in &headline_policies() {
        for &workers in worker_counts {
            let r =
                m.rt.run_policy_parallel(&m.app, policy, &m.cal, workers, 0)?;
            // Modelled value of the plan that ran over the global
            // plan's: above 1 where the plan rotates.
            let plan_x = r.plan_value.map_or("-".to_string(), |v| {
                format!("{:.3}", v.chosen_ns / v.global_ns.max(1.0))
            });
            println!(
                "  {:<12} {:>7} {:>10.3} {:>10.2} {:>6} {:>6} {:>7} {:>8.1}% {:>9.3}  {:?}",
                r.policy,
                r.workers,
                r.wall_ns / 1e6,
                r.throughput_gbps,
                r.migration.count,
                r.migration.evictions,
                plan_x,
                r.migration.pct_overlap(),
                r.gate_wait_ns / 1e6,
                r.final_tier_objects
            );
            runs.push(r);
        }
    }
    let tiers = m.tiers.iter().enumerate().map(|(i, s)| {
        obj! {
            "index": i,
            "name": s.name.as_str(),
            "read_bw_gbps": Value::fixed(s.read_bw_gbps, 6),
            "write_bw_gbps": Value::fixed(s.write_bw_gbps, 6),
            "read_lat_ns": Value::fixed(s.read_lat_ns, 6),
            "write_lat_ns": Value::fixed(s.write_lat_ns, 6),
            "capacity_bytes": s.capacity,
        }
    });
    let rows = runs.iter().map(|r| {
        obj! {
            "policy": r.policy.as_str(),
            "workers": r.workers,
            "wall_ns": Value::fixed(r.wall_ns, 1),
            // The seeded fill, then each window's summed task time.
            "init_ns": Value::fixed(r.init_ns, 1),
            "window_task_ns": Value::array(r.window_task_ns.iter().map(|&ns| Value::fixed(ns, 1))),
            "bytes_touched": r.bytes_touched,
            "throughput_gbps": Value::fixed(r.throughput_gbps, 6),
            "checksum": hex(r.checksum),
            "migrations": r.migration.count,
            "migrated_bytes": r.migration.bytes,
            "copy_wall_ns": Value::fixed(r.copy_wall_ns, 1),
            "copy_throttle_ns": Value::fixed(r.copy_throttle_ns, 1),
            "migrator_busy_share": Value::fixed(r.migrator_busy_share, 6),
            "promotions": r.migration.promotions,
            "evictions": r.migration.evictions,
            // Fetches issued in their window of use, and the tasks
            // started after their window's others to let them land.
            "late_fetches": r.late_fetches,
            "deferred_tasks": r.deferred_tasks,
            // Modelled value of the global plan, the plan that ran and
            // the free-migration bound (null where no plan is priced).
            "plan_value_global_ns": r.plan_value.map(|v| Value::fixed(v.global_ns, 1)),
            "plan_value_chosen_ns": r.plan_value.map(|v| Value::fixed(v.chosen_ns, 1)),
            "plan_value_oracle_ns": r.plan_value.map(|v| Value::fixed(v.oracle_ns, 1)),
            "overlapped_ns": Value::fixed(r.migration.overlapped_ns, 1),
            "exposed_ns": Value::fixed(r.migration.exposed_ns, 1),
            "pct_overlap": Value::fixed(r.migration.pct_overlap(), 3),
            "gate_wait_ns": Value::fixed(r.gate_wait_ns, 1),
            "steals": r.steals,
            "cas_retries": r.contention.pin_cas_retries,
            "parks": r.contention.parks,
            "unparks": r.contention.unparks,
            "final_dram_objects": r.final_tier_objects[0],
            "final_tier_objects": Value::array(r.final_tier_objects.iter().copied()),
            // Time to placement (null for the policies with no plan).
            "released_at_ns": r.released_at_ns.map(|t| Value::fixed(t, 1)),
            "placed_at_ns": r.placed_at_ns.map(|t| Value::fixed(t, 1)),
            "plan_steps_skipped": r.plan_steps_skipped,
        }
    });
    // Every run maps one arena per tier; the fewest that got huge pages.
    let thp_mode = tahoe_realmem::sys::thp_mode().label();
    let huge_page_arenas = runs.iter().map(|r| r.huge_page_arenas).min().unwrap_or(0);
    println!(
        "  THP mode {thp_mode}: {huge_page_arenas} of {} arenas per run on huge pages",
        m.tiers.len()
    );
    // Each policy's first run is its one-worker run.
    let (dram, nvm) = (&runs[0], &runs[worker_counts.len()]);
    let tahoe_name = PolicyKind::tahoe().name();
    Ok(obj!(m.head();
        "inputs": obj! {
            "thp_mode": thp_mode,
            "huge_page_arenas": huge_page_arenas,
            "arenas_per_run": m.tiers.len(),
        },
        "tiers": Value::array(tiers),
        "runs": Value::array(rows),
        "consistency": obj! {
            "reference_checksum": hex(reference),
            "all_runs_match_reference": runs.iter().all(|r| r.checksum == reference),
            "dram_throughput_ge_nvm": dram.throughput_gbps >= nvm.throughput_gbps,
            // Every multi-worker Tahoe run that migrated hid some copy time.
            "tahoe_multiworker_overlapped": runs
                .iter()
                .filter(|r| r.policy == tahoe_name && r.workers >= 2 && r.migration.count > 0)
                .all(|r| r.migration.overlapped_ns > 0.0),
        },
    ))
}

/// `--tiers 2`: the classic DRAM + emulated-NVM sweep on stream.
fn real_two(smoke: bool, _dir: &Path) -> Result<Value, String> {
    real_doc(&Measured::start(
        "REAL measured mode: mmap arenas + wall-clock calibration",
        smoke,
        stream::app,
        |app| platform_bw(app, 0.25),
        None,
    )?)
}

/// `--tiers 3`: CG on DRAM / CXL / Optane. Capacities are sized off the
/// footprint so the gathered (latency-bound) `p` blocks overflow DRAM:
/// `dram = 5/8` of the p-vector bytes (two of four blocks fit),
/// `cxl = footprint/5` (holds every vector block that misses DRAM, but
/// not a matrix block), `nvm = 4×footprint` (spill). On top of the
/// measured run the artifact carries three calibration-free blocks:
///
/// * **plan** — the MCK plan over the preset tier specs: CXL's 85 ns
///   beats Optane's 250 ns for the gathers, while the streaming matrix
///   reads stay on Optane (3.9 GB/s read beats CXL's symmetric 2.5);
/// * **modelled** — the 3-tier plan's modelled runtime against the best
///   2-tier plan on both degenerate platforms with the same DRAM budget;
/// * **sweep** — the CXL tier grown through four capacities (half /
///   headline / double / quadruple): more middle-tier room only relaxes
///   the knapsack, so the modelled runtime must never worsen.
fn real_three(smoke: bool, _dir: &Path) -> Result<Value, String> {
    use tahoe_hms::presets;

    // (dram, cxl, nvm) capacities for a footprint; p_total = footprint/20
    // is the four gathered p-blocks.
    let caps = |footprint: u64| (footprint / 20 * 5 / 8, footprint / 5, 4 * footprint);
    let m = Measured::start(
        "REAL measured mode, 3 tiers: DRAM / CXL / Optane on CG",
        smoke,
        cg::app,
        |app| {
            let (dram, cxl, nvm) = caps(app.footprint());
            Platform::optane_cxl(dram, cxl, nvm)
        },
        None,
    )?;
    let (app, (dram_cap, cxl_cap, nvm_cap)) = (&m.app, caps(m.app.footprint()));

    let (plan3, t3_ns) = modelled_plan(app, &m.tiers)?;
    let (_, t2_nvm_ns) = modelled_plan(app, Platform::optane(dram_cap, nvm_cap).tier_specs())?;
    let (_, t2_cxl_ns) = modelled_plan(app, &[presets::dram(dram_cap), presets::cxl(nvm_cap)])?;
    // Latency- vs bandwidth-bound classification on the spill tier: the
    // tier an object must escape is the one whose roofline matters.
    let lat_bound = object_latency_bound(app, &m.tiers[2]);
    let on_tier = |tiers: &[u8], t: u8| tiers.iter().filter(|x| **x == t).count();
    let mid_objects = on_tier(&plan3.tiers, 1);
    let mid_lat_bound = (0..app.objects.len())
        .filter(|&i| plan3.tiers[i] == 1 && lat_bound[i])
        .count();
    println!(
        "  modelled: 3-tier {:.3} ms vs 2-tier DRAM+Optane {:.3} ms, DRAM+CXL {:.3} ms",
        t3_ns / 1e6,
        t2_nvm_ns / 1e6,
        t2_cxl_ns / 1e6
    );
    println!(
        "  plan: {mid_objects} objects on CXL ({mid_lat_bound} latency-bound), {} on DRAM, {} on Optane",
        on_tier(&plan3.tiers, 0),
        on_tier(&plan3.tiers, 2)
    );

    let mut sweep = Vec::new();
    for cap in [cxl_cap / 2, cxl_cap, 2 * cxl_cap, 4 * cxl_cap] {
        let platform = Platform::optane_cxl(dram_cap, cap, nvm_cap);
        let (plan, ns) = modelled_plan(app, platform.tier_specs())?;
        let mid = on_tier(&plan.tiers, 1);
        println!(
            "  sweep: CXL {cap:>10} B -> modelled {:.3} ms, {mid} objects on the middle tier",
            ns / 1e6
        );
        sweep.push((cap, ns, mid));
    }

    let doc = real_doc(&m)?;
    let plan = app.objects.iter().enumerate().map(|(i, o)| {
        let t = plan3.tiers[i] as usize;
        obj! {
            "object": i,
            "name": o.name.as_str(),
            "bytes": o.size,
            "tier": t,
            "tier_name": m.tiers[t].name.as_str(),
            "latency_bound": lat_bound[i],
        }
    });
    let sweep_rows = sweep.iter().map(|&(cap, ns, mid)| {
        obj! {
            "cxl_capacity_bytes": cap,
            "modelled_ns": Value::fixed(ns, 6),
            "mid_tier_objects": mid,
        }
    });
    let eps = 1.0 + 1e-9;
    let tahoe_mid = gate::nums(&doc, "runs[policy=tahoe].final_tier_objects[1]")?;
    let consistency = obj!(doc.get("consistency").cloned().unwrap_or(Value::Null);
        "mid_tier_wins_latency_bound": mid_lat_bound >= 1,
        "three_tier_beats_both_two_tier": t3_ns <= t2_nvm_ns * eps && t3_ns <= t2_cxl_ns * eps,
        "tahoe_uses_mid_tier": tahoe_mid.iter().all(|&n| n >= 1.0),
        "sweep_monotone": sweep.windows(2).all(|p| p[1].1 <= p[0].1 * eps),
    );
    Ok(obj!(doc;
        "plan": Value::array(plan),
        "modelled": obj! {
            "tahoe3_ns": Value::fixed(t3_ns, 6),
            "two_tier_dram_nvm_ns": Value::fixed(t2_nvm_ns, 6),
            "two_tier_dram_cxl_ns": Value::fixed(t2_cxl_ns, 6),
            "mid_tier_objects": mid_objects,
            "mid_tier_latency_bound_objects": mid_lat_bound,
        },
        "sweep": Value::array(sweep_rows),
        "consistency": consistency,
    ))
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

/// `exp blame`: the causal-profiler and model-audit artifact. Runs the
/// parallel measured Tahoe policy once with the flight recorder on,
/// reconstructs the critical path and the exposed-stall blame table from
/// the merged event stream, audits the planner's predictions against the
/// same run's access timing, counts its events by kind, then boots a
/// small two-tenant server and scrapes its live telemetry plane (skipped
/// gracefully where loopback sockets are unavailable), journalling it to
/// `dir/telemetry.jsonl`.
fn blame(smoke: bool, dir: &Path) -> Result<Value, String> {
    use tahoe_server::{
        ArbiterMode, QuotaPolicy, ServerConfig, TahoeServer, TelemetryConfig, TenantSpec,
    };

    let (emitter, buffer) = Emitter::buffered();
    let metrics = Metrics::enabled();
    let m = Measured::start(
        "BLAME causal profiler + model audit: critical path, stall blame, live telemetry",
        smoke,
        stream::app,
        |app| platform_bw(app, 0.25),
        Some((emitter, metrics.clone())),
    )?;
    // The calibration's events are not the run's.
    buffer.drain();
    let (workers, seed) = (if smoke { 2 } else { 4 }, 7);
    let r =
        m.rt.run_policy_parallel(&m.app, &PolicyKind::tahoe(), &m.cal, workers, seed)?;
    let events = buffer.drain();
    let reference = reference_checksum_seeded(&m.app, seed);
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
    for e in crit.blame.top_k(8) {
        println!(
            "  {:<7} {:>5} {:>5} {:>12.3} {:>12.3} {:>12.3} {:>7}",
            e.object,
            e.tier,
            e.migrations,
            e.exposed_ns / 1e6,
            e.overlapped_ns / 1e6,
            e.gate_wait_ns / 1e6,
            e.chosen
        );
    }
    let overlap_delta = (crit.blame.pct_overlap() - r.migration.pct_overlap()).abs();
    let blamed_migrations: u64 = crit.blame.entries().map(|e| e.migrations).sum();
    println!(
        "  reconciliation: blame overlap {:.2}% vs engine {:.2}% (delta {:.3}%)",
        crit.blame.pct_overlap(),
        r.migration.pct_overlap(),
        overlap_delta
    );

    // ---- model audit ------------------------------------------------
    // The same run's placement decisions against its access timing.
    let audit = ModelAudit::new(&m.app, &r.access_timing, &events);
    println!(
        "  {:<8} {:>10} {:>7} {:>9} {:>13} {:>13} {:>9} {:>5}",
        "object", "bytes", "chosen", "accesses", "pred ns/acc", "meas ns/acc", "ape%", "sign"
    );
    let or_dash = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
    for o in &audit.rows {
        println!(
            "  {:<8} {:>10} {:>7} {:>9} {:>13.1} {:>13} {:>9} {:>5}",
            o.name,
            o.bytes,
            o.chosen,
            o.accesses,
            o.predicted_saving_ns,
            or_dash(o.measured_saving_ns),
            or_dash(o.ape_pct),
            o.sign_agrees.map_or("-", |s| if s { "+" } else { "-" })
        );
    }
    println!(
        "  audited {} objects: median APE {:.1}%, sign agreement {:.1}%",
        audit.audited, audit.median_ape_pct, audit.sign_agreement_pct
    );
    let recorded = events_json(&events);
    let by_kind = recorded.get("by_kind").map_or(String::new(), Value::write);
    print!("  recorded {} events by kind: {by_kind}", events.len());
    let mut hists = metrics.snapshot().histograms;
    hists.retain(|(_, h)| h.count > 0);
    for (key, h) in &hists {
        println!(
            "  hist {:<14} n={:<7} p50={:<10.0} p90={:<10.0} p99={:<10.0} max={:.0} ns",
            key, h.count, h.p50, h.p90, h.p99, h.max
        );
    }

    // ---- live telemetry plane ---------------------------------------
    // A small two-tenant server: the same counters the shutdown report
    // snapshots must be scrapeable over HTTP while the server is idle.
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
        m.cal.clone(),
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
    let journal = dir.join("telemetry.jsonl");
    let tele = srv
        .serve_telemetry(TelemetryConfig {
            journal: Some(journal.clone()),
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
    let scraped_body = tele.as_ref().and_then(|h| scrape_metrics(h.addr()).ok());
    if scraped_body.is_none() {
        println!("  telemetry endpoint unavailable (bind or scrape); recording served=false");
    }
    if let Some(h) = tele {
        h.stop();
    }
    let sreport = srv.shutdown();
    let body = scraped_body.as_deref().unwrap_or("");
    let blame_lines = body
        .lines()
        .filter(|l| l.starts_with("tahoe_blame_"))
        .count();
    // Bit-for-bit: the scraped integer strings must equal the shutdown
    // report's counters.
    let samples = sreport.tenants.iter().flat_map(|t| {
        [
            ("tahoe_tenant_submitted_total", t.submitted),
            ("tahoe_tenant_completed_total", t.completed),
            ("tahoe_tenant_shed_total", t.shed),
        ]
        .map(|(family, want)| {
            format!(
                "{family}{{tenant=\"{}\",name=\"{}\"}} {want}",
                t.tenant, t.name
            )
        })
    });
    let missing: Vec<String> = samples
        .filter(|sample| !body.lines().any(|l| l == sample))
        .collect();
    let scrape_matches = scraped_body.is_some() && missing.is_empty();
    if scraped_body.is_some() {
        // The journal is schema-tagged JSONL, one snapshot per line.
        let text = std::fs::read_to_string(&journal)
            .map_err(|e| format!("read {}: {e}", journal.display()))?;
        let tagged = |l: &str| {
            let schema = json::parse(l).ok()?.get("schema")?.as_str()?.to_string();
            (schema == "tahoe-telemetry/v1").then_some(())
        };
        if text.lines().count() < 2 || !text.lines().all(|l| tagged(l).is_some()) {
            return Err(format!(
                "{} is not >= 2 tagged snapshots",
                journal.display()
            ));
        }
        println!(
            "  telemetry: {} tenants scraped, shutdown-report samples missing from the scrape: {missing:?}; {blame_lines} blame samples",
            sreport.tenants.len()
        );
    }

    let blame_rows = crit.blame.top_k(usize::MAX).into_iter().map(|e| {
        obj! {
            "object": e.object,
            "tier": e.tier.to_string(),
            "migrations": e.migrations,
            "bytes": e.bytes,
            "overlapped_ns": Value::fixed(e.overlapped_ns, 1),
            "exposed_ns": Value::fixed(e.exposed_ns, 1),
            "gate_wait_ns": Value::fixed(e.gate_wait_ns, 1),
            "chosen": e.chosen,
            "predicted_benefit_ns": Value::fixed(e.predicted_benefit_ns, 1),
        }
    });
    let objects = audit.rows.iter().map(|o| {
        obj! {
            "object": o.object,
            "name": o.name.as_str(),
            "bytes": o.bytes,
            "chosen": o.chosen,
            "accesses": o.accesses,
            "predicted_saving_ns": Value::fixed(o.predicted_saving_ns, 6),
            "measured_saving_ns": o.measured_saving_ns.map(|v| Value::fixed(v, 6)),
            "ape_pct": o.ape_pct.map(|v| Value::fixed(v, 6)),
            "sign_agrees": o.sign_agrees,
        }
    });
    let histograms = hists.iter().map(|(key, h)| {
        let digest = obj! {
            "count": h.count,
            "p50": Value::fixed(h.p50, 6),
            "p90": Value::fixed(h.p90, 6),
            "p99": Value::fixed(h.p99, 6),
            "max": Value::fixed(h.max, 6),
        };
        (key.as_str(), digest)
    });
    Ok(obj!(m.head();
        "run": obj! {
            "policy": r.policy.as_str(),
            "workers": r.workers,
            "seed": seed,
            "wall_ns": Value::fixed(r.wall_ns, 1),
            "checksum": hex(r.checksum),
            "migrations": r.migration.count,
            "migrated_bytes": r.migration.bytes,
            "copy_wall_ns": Value::fixed(r.copy_wall_ns, 1),
            "copy_throttle_ns": Value::fixed(r.copy_throttle_ns, 1),
            "pct_overlap": Value::fixed(r.migration.pct_overlap(), 6),
            "gate_wait_ns": Value::fixed(r.gate_wait_ns, 1),
            "ring_dropped": r.obs_ring_dropped,
            "released_at_ns": r.released_at_ns.map(|t| Value::fixed(t, 1)),
            "placed_at_ns": r.placed_at_ns.map(|t| Value::fixed(t, 1)),
            "plan_steps_skipped": r.plan_steps_skipped,
        },
        "critpath": obj! {
            "crit_total_ns": Value::fixed(crit.crit_total_ns, 1),
            "span_ns": Value::fixed(crit.span_ns, 1),
            "exec_wall_ns": Value::fixed(crit.exec_wall_ns, 1),
            "compute_ns": Value::fixed(crit.compute_ns, 1),
            "stall_ns": Value::fixed(crit.stall_ns, 1),
            "idle_ns": Value::fixed(crit.idle_ns, 1),
            "segments": crit.segments,
            "tasks_on_path": crit.tasks_on_path,
            "crit_vs_span_pct": Value::fixed(crit.crit_vs_span_pct, 6),
        },
        "blame": Value::array(blame_rows),
        "reconciliation": obj! {
            "blame_pct_overlap": Value::fixed(crit.blame.pct_overlap(), 6),
            "engine_pct_overlap": Value::fixed(r.migration.pct_overlap(), 6),
            "delta_pct": Value::fixed(overlap_delta, 6),
            "blamed_migrations": blamed_migrations,
            "engine_migrations": r.migration.count,
            "unattributed_wait_ns": Value::fixed(crit.blame.unattributed_wait_ns, 1),
        },
        "audit": obj! {
            "audited": audit.audited,
            "median_ape_pct": Value::fixed(audit.median_ape_pct, 6),
            "sign_agreement_pct": Value::fixed(audit.sign_agreement_pct, 6),
        },
        "objects": Value::array(objects),
        "events": recorded,
        "histograms": Value::object(histograms),
        "telemetry": obj! {
            "served": scraped_body.is_some(),
            "scrape_matches_report": scrape_matches,
            "tenants": sreport.tenants.len(),
            "completed_total": sreport.completed_total(),
            "blame_samples": blame_lines,
        },
        "consistency": obj! {
            "checksum_matches_reference": r.checksum == reference,
            "blame_covers_all_migrations": blamed_migrations == r.migration.count,
        },
    ))
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

/// `{"kind": count, ...}` for a report's canonical per-kind counts.
fn by_kind_json(by_kind: &[(&'static str, u64)]) -> Value {
    Value::object(by_kind.iter().map(|&(tag, n)| (tag, n.into())))
}

/// `exp sanitize`: the task-graph race detector + access sanitizer with
/// schedule fuzzing. Three passes:
///
/// 1. **Static** — the graph verifier over every real workload's
///    declared DAG and the plan auditor over the solver's own migration
///    plan for each graph (the two-tenant interleave included).
/// 2. **Fuzz** — correct workloads execute in sanitize mode across
///    worker counts × seeds, checked against the sequential reference.
/// 3. **Fixtures** — the committed buggy workloads against their
///    *exact* expected violation sets, at every allowed worker count and
///    seed (schedule independence).
fn sanitize(smoke: bool, _dir: &Path) -> Result<Value, String> {
    use tahoe_core::SanitizeReport;
    use tahoe_sanitize::{verify_graph, StaticContext};
    use tahoe_workloads::fixtures::all_fixtures;

    let cfg = artifact_banner(
        "SANITIZE race detector + access sanitizer: fuzz + fixtures",
        smoke,
    );
    let static_ctx = |app: &App| {
        let plat = platform_bw(app, 0.25);
        StaticContext::new(
            app.objects.iter().map(|o| o.size).collect(),
            plat.fastest().capacity,
            plat.spill().capacity,
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
    // The interleave matters to the plan auditor too: a move scheduled
    // against one tenant's windows could race the other's.
    let (mut static_verified, mut static_clean) = (0u64, true);
    for app in all_workloads(Scale::Test)
        .iter()
        .chain(std::iter::once(&two_tenant))
    {
        let rep = verify_graph(&app.graph, &static_ctx(app));
        if !rep.is_clean() {
            eprintln!(
                "  static verifier flagged correct workload {}: {:?}",
                app.name, rep.violations
            );
        }
        let (_, plan_clean) = audit_solver_plan(app, platform_bw(app, 0.25).tier_specs())?;
        static_clean &= rep.is_clean() && plan_clean;
        static_verified += 1;
    }
    println!("  static: {static_verified} workload graphs verified + solver plans audited");

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
    let (mut fuzz_runs, mut accesses_checked, mut fuzz_clean) = (0u64, 0u64, true);
    for app in &apps {
        let rt = MeasuredRuntime::new(platform_bw(app, 0.25), cfg);
        let cal = rt.calibrate()?;
        for &workers in &worker_counts {
            for &seed in &seeds {
                let (rep, san) =
                    rt.run_policy_sanitized(app, &PolicyKind::tahoe(), &cal, workers, seed, &[])?;
                let want = reference_checksum_seeded(app, seed);
                if !san.is_clean() || rep.checksum != want {
                    eprintln!(
                        "  {} @ {workers} workers seed {seed}: checksum {:016x} vs reference {want:016x}, violations {:?}",
                        app.name, rep.checksum, san.violations
                    );
                    fuzz_clean = false;
                }
                fuzz_runs += 1;
                accesses_checked += san.accesses_checked;
            }
        }
        println!(
            "  fuzz: {:<10} across {:?} workers x {:?} seeds",
            app.name, worker_counts, seeds
        );
    }

    // ---- pass 3: committed buggy fixtures ----------------------------
    let fixture_seeds: &[u64] = &[0, 1];
    let mut rows = Vec::new();
    let mut fixtures_exact = true;
    for f in all_fixtures() {
        let srep = verify_graph(&f.app.graph, &static_ctx(&f.app));
        let static_match = sanitize_counts_match(&srep, &f.expected_static);
        let rt = MeasuredRuntime::new(platform_bw(&f.app, 0.25), cfg);
        let cal = rt.calibrate()?;
        let mut dynamic_match = true;
        let mut first: Option<SanitizeReport> = None;
        let mut runs = 0u64;
        for &workers in worker_counts.iter().filter(|w| **w <= f.max_workers) {
            for &seed in fixture_seeds {
                let (_, san) = rt.run_policy_sanitized(
                    &f.app,
                    &PolicyKind::DramOnly,
                    &cal,
                    workers,
                    seed,
                    &f.extra,
                )?;
                // Schedule independence: the expected counts, and
                // byte-identical reports at every worker count and seed.
                dynamic_match &= sanitize_counts_match(&san, &f.expected_dynamic)
                    && first.as_ref().is_none_or(|prev| *prev == san);
                first.get_or_insert(san);
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
            eprintln!(
                "  fixture {} deviated from its expected violation set: static {:?}, dynamic {:?}",
                f.name, srep.violations, rep.violations
            );
            fixtures_exact = false;
        }
        let mut by_kind = srep.by_kind();
        for (i, (_, n)) in rep.by_kind().into_iter().enumerate() {
            by_kind[i].1 += n;
        }
        rows.push(obj! {
            "name": f.name,
            "runs": runs,
            "static_match": static_match,
            "dynamic_match": dynamic_match,
            "violations": by_kind_json(&by_kind),
        });
    }
    println!(
        "  {fuzz_runs} fuzz runs ({accesses_checked} accesses shadowed), {} fixtures",
        rows.len()
    );
    Ok(obj! {
        "machine": machine_json(smoke),
        "static": obj! {
            "workloads_verified": static_verified,
            "plans_audited": static_verified,
            "clean": static_clean,
        },
        "fuzz": obj! {
            "workloads": apps.len(),
            "workers": Value::array(worker_counts),
            "seeds": Value::array(seeds),
            "runs": fuzz_runs,
            "accesses_checked": accesses_checked,
            "clean": fuzz_clean,
        },
        "fixtures": Value::array(rows),
        "consistency": obj! {
            "correct_workloads_clean": static_clean && fuzz_clean,
            "fixtures_exact": fixtures_exact,
        },
    })
}

/// Solve the placement over `specs` and run the static plan auditor on
/// the migration plan it implies under the Tahoe convention (every
/// object starts on the spill tier; [`promotion_plan`] is the lowering
/// `run_policy*` executes). Returns the number of migration steps the
/// audited plan carries and whether the auditor found it sound.
fn audit_solver_plan(app: &App, specs: &[tahoe_hms::TierSpec]) -> Result<(u64, bool), String> {
    let items = mck_items_for(app, specs);
    let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
    let assignment = tahoe_placement::solve_mck(&items, &caps)?;
    let spill = vec![(specs.len() - 1) as u8; app.objects.len()];
    let plan = promotion_plan(&items, spill, &assignment.tiers);
    let ctx = tahoe_core::PlanContext::new(app.objects.iter().map(|o| o.size).collect());
    let rep = tahoe_core::audit_plan(&app.graph, &plan, specs, &ctx);
    if !rep.is_clean() {
        eprintln!(
            "  {} ({} tiers): solver-produced plan failed its own audit: {:?}",
            app.name,
            specs.len(),
            rep.violations
        );
    }
    Ok((plan.steps.len() as u64, rep.is_clean()))
}

/// `exp verify`: the static plan-soundness auditor and the lock-free
/// pin/move protocol model checker. Four passes, all pure functions of
/// the code (no wall clocks), so the counts are identical on every
/// machine:
///
/// 1. **Plans** — every workload's solver-produced migration plan (the
///    multiple-choice knapsack over preset 2- and 3-tier platforms)
///    through the auditor: per-prefix tier capacity, schedule-universal
///    move safety, target validity, object liveness, no double moves,
///    and modelled-cost non-regression.
/// 2. **Preflight** — [`MeasuredRuntime::verify_plan`] (the same audit
///    `run_policy`/`run_policy_parallel` enforce before executing
///    anything) for every headline policy over the real allocator's
///    placements.
/// 3. **Fixtures** — the committed buggy plans against their *exact*
///    expected diagnostic sets.
/// 4. **Mcheck** — the bounded exhaustive interleaving checker over the
///    pin/move word protocol at *pinned* explored-state counts, plus
///    four injected protocol bugs (dropped wakes, unannounced park, pin
///    through MOVING) it must catch.
fn verify(smoke: bool, _dir: &Path) -> Result<Value, String> {
    use tahoe_sanitize::mcheck::{certify, check};
    use tahoe_sanitize::McheckConfig;
    use tahoe_workloads::fixtures::all_plan_fixtures;

    let cfg = artifact_banner("VERIFY plan auditor + protocol model checker", smoke);

    // ---- pass 1: solver plans ----------------------------------------
    let apps = all_workloads(Scale::Test);
    let (mut plans_audited, mut steps_total, mut plans_clean) = (0u64, 0u64, true);
    for app in &apps {
        let fp = app.footprint();
        let two = Platform::optane(dram_budget(app), 4 * fp);
        let three = Platform::optane_cxl(dram_budget(app), fp / 2, 4 * fp);
        for platform in [&two, &three] {
            let (steps, clean) = audit_solver_plan(app, platform.tier_specs())?;
            steps_total += steps;
            plans_clean &= clean;
            plans_audited += 1;
        }
    }
    println!(
        "  plans: {plans_audited} solver plans over {} workloads audited ({steps_total} migration steps)",
        apps.len()
    );

    // ---- pass 2: measured-run preflight ------------------------------
    let preflight_apps: Vec<App> = if smoke {
        vec![stream::app(Scale::Test), cg::app(Scale::Test)]
    } else {
        all_workloads(Scale::Test)
    };
    let policies = headline_policies();
    let (mut preflight_runs, mut preflight_clean) = (0u64, true);
    for app in &preflight_apps {
        let rt = MeasuredRuntime::new(platform_bw(app, 0.25), cfg);
        let cal = rt.calibrate()?;
        for p in &policies {
            let rep = rt.verify_plan(app, p, &cal)?;
            if !rep.is_clean() {
                eprintln!(
                    "  {} under {}: preflight audit flagged the runtime's own plan: {:?}",
                    app.name,
                    p.name(),
                    rep.violations
                );
                preflight_clean = false;
            }
            preflight_runs += 1;
        }
    }
    println!(
        "  preflight: {preflight_runs} policy plans over {} workloads verified",
        preflight_apps.len()
    );

    // ---- pass 3: committed buggy-plan fixtures -----------------------
    let mut rows = Vec::new();
    let mut fixtures_exact = true;
    for f in all_plan_fixtures() {
        let rep = tahoe_core::audit_plan(&f.app.graph, &f.plan, &f.specs, &f.context());
        let got: Vec<(&'static str, u64)> =
            rep.by_kind().into_iter().filter(|&(_, n)| n > 0).collect();
        let exact = got == f.expected_audit;
        println!(
            "  fixture: {:<26} {} violation(s), {}",
            f.name,
            rep.violations.len(),
            if exact { "exact" } else { "MISMATCH" }
        );
        if !exact {
            eprintln!(
                "  plan fixture {} deviated from its expected diagnostic set: want {:?}, got {:?}",
                f.name, f.expected_audit, rep.violations
            );
            fixtures_exact = false;
        }
        rows.push(obj! {
            "name": f.name,
            "violations": by_kind_json(&rep.by_kind()),
            "exact": exact,
        });
    }

    // ---- pass 4: protocol model checker ------------------------------
    let sweep = certify();
    for r in &sweep {
        println!(
            "  mcheck: {} pinners x {} moves {} — {} states, {} transitions, {:?} ({} deadlocks)",
            r.config.pinners,
            r.config.moves,
            if r.ok() { "certified clean" } else { "FAILED" },
            r.states,
            r.transitions,
            r.violations,
            r.deadlocks
        );
    }
    let protocol_certified = sweep.iter().all(|r| r.ok());
    // Negative controls: each seeded protocol bug must be caught, or
    // the checker's clean verdicts above mean nothing.
    type Bug = (&'static str, fn(&mut McheckConfig));
    let bugs: [Bug; 4] = [
        ("skip_unpin_wake", |c| c.bugs.skip_unpin_wake = true),
        ("skip_release_wake", |c| c.bugs.skip_release_wake = true),
        ("skip_parked_bit", |c| c.bugs.skip_parked_bit = true),
        ("pin_ignores_moving", |c| c.bugs.pin_ignores_moving = true),
    ];
    let mut bugs_caught = 0usize;
    for (name, inject) in bugs {
        let mut cfg = McheckConfig::new(2, 1, 1);
        inject(&mut cfg);
        if check(cfg).ok() {
            eprintln!("  injected protocol bug `{name}` escaped the model checker");
        } else {
            bugs_caught += 1;
        }
    }
    println!(
        "  mcheck: {bugs_caught}/{} injected protocol bugs caught",
        bugs.len()
    );
    let bugs_all_caught = bugs_caught == bugs.len();

    let configs = sweep.iter().map(|r| {
        obj! {
            "pinners": r.config.pinners,
            "pin_cycles": u32::from(r.config.pin_cycles),
            "moves": u32::from(r.config.moves),
            "states": r.states,
            "transitions": r.transitions,
            "terminals": r.terminals,
            "deadlocks": r.deadlocks,
        }
    });
    Ok(obj! {
        "machine": machine_json(smoke),
        "plans": obj! {
            "workloads": apps.len(),
            "tier_depths": Value::array([2u32, 3]),
            "audited": plans_audited,
            "steps_total": steps_total,
            "clean": plans_clean,
        },
        "preflight": obj! {
            "workloads": preflight_apps.len(),
            "policies": policies.len(),
            "runs": preflight_runs,
            "clean": preflight_clean,
        },
        "fixtures": Value::array(rows),
        "mcheck": obj! {
            "configs": Value::array(configs),
            "bugs_injected": bugs.len(),
            "bugs_caught": bugs_caught,
            "clean": protocol_certified && bugs_all_caught,
        },
        "consistency": obj! {
            "solver_plans_clean": plans_clean,
            "preflight_clean": preflight_clean,
            "fixtures_exact": fixtures_exact,
            "protocol_certified": protocol_certified,
            "bugs_all_caught": bugs_all_caught,
        },
    })
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
        Self {
            pieces: 4,
            piece_bytes: 256 << 10,
            windows: if smoke { 3 } else { 4 },
            tasks_per_window: if smoke { 2 } else { 3 },
            compute_us: 1900.0,
            run_ms: if smoke { 300 } else { 700 },
            warmup_graphs: 2,
            burst: 6,
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

/// Run one arbitration mode end-to-end and return its `modes[]` block:
/// a cold tenant warms up solo (promoting its whole hot set), four
/// active tenants then drive the server closed-loop at saturation, and
/// — in quota mode — one tenant bursts past the queue bound so
/// admission control sheds.
fn tenant_mode(
    mode_name: &'static str,
    mode: tahoe_server::ArbiterMode,
    geo: &TenantGeometry,
    base_seed: u64,
) -> Result<Value, String> {
    use tahoe_hms::TierSpec;
    use tahoe_server::{driver, jain, ServerConfig, TahoeServer, TenantSpec};

    // Synthetic calibration — machine-independent and strongly
    // NVM-bound: DRAM 10 GB/s / 100 ns, NVM 0.25 GB/s / 500 ns, so a
    // full hot-set update on NVM injects ~40x the DRAM memory time and
    // the placement decision, not scheduler noise, sets the latency
    // spread between the modes: the structural p99 gap must dwarf the
    // multi-ms OS scheduling jitter of a loaded CI box.
    let mut cal = WallClockCalibration::synthetic(1 << 20, 1 << 26);
    cal.nvm = TierSpec::symmetric("nvm", 500.0, 0.25, 1 << 26);
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

    // Every checksum against its tenant's solo reference.
    let checksums_ok = cold_out
        .iter()
        .chain(outcomes.iter())
        .chain(burst_out.iter().flat_map(|(v, _)| v.iter()))
        .all(|o| o.checksum == refs[o.tenant as usize]);

    // Per-active-tenant latency samples from the contended phase only
    // (exact values; the per-tenant histogram digests in the report
    // stay available for observability).
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    let mut worst_p99_ms = 0.0f64;
    for (i, t) in report.tenants.iter().enumerate() {
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
        let (p50_ms, p99_ms) = (pctile(&lat, 0.50) / 1e6, pctile(&lat, 0.99) / 1e6);
        if i > 0 {
            rates.push(1e9 / mean_ns.max(1.0));
            worst_p99_ms = worst_p99_ms.max(p99_ms);
        }
        let role = if i == 0 { "cold" } else { "active" };
        println!(
            "    {:<6} {role:<7} graphs {:>2}  p50 {p50_ms:>8.2} ms  p99 {p99_ms:>8.2} ms  quota {:>7} B  prom {:>7} B  dem {:>7} B",
            t.name,
            lat.len(),
            t.last_quota,
            t.promoted_bytes,
            t.demoted_bytes
        );
        rows.push(obj! {
            "tenant": t.tenant,
            "name": t.name.as_str(),
            "role": role,
            "graphs": lat.len(),
            "p50_ms": Value::fixed(p50_ms, 3),
            "p99_ms": Value::fixed(p99_ms, 3),
            "mean_ms": Value::fixed(mean_ns / 1e6, 3),
            "preempted": t.preempted,
            "shed": t.shed,
            "quota_bytes": t.last_quota,
            "promoted_bytes": t.promoted_bytes,
            "demoted_bytes": t.demoted_bytes,
        });
    }
    let aggregate_gps = outcomes.len() as f64 / (wall_ns / 1e9);
    println!(
        "  {mode_name:<13} wall {:>8.1} ms  agg {aggregate_gps:>6.1} graphs/s  jain {:.3}  worst p99 {worst_p99_ms:>8.2} ms  preempted {}  shed {}",
        wall_ns / 1e6,
        jain(&rates),
        report.preempted_total(),
        report.shed_total()
    );
    Ok(obj! {
        "mode": mode_name,
        "wall_ms": Value::fixed(wall_ns / 1e6, 3),
        "aggregate_graphs_per_s": Value::fixed(aggregate_gps, 3),
        "jain": Value::fixed(jain(&rates), 4),
        "worst_p99_ms": Value::fixed(worst_p99_ms, 3),
        "preempted": report.preempted_total(),
        "shed": report.shed_total(),
        "checksums_match_solo": checksums_ok,
        "tenants": Value::array(rows),
    })
}

/// TENANT — the multi-tenant fairness experiment (`exp tenant`).
///
/// Five tenants share one server: a cold tenant warms its hot set into
/// DRAM and goes idle, then four active tenants drive the server
/// closed-loop at saturation. The same load runs twice — once under
/// the cross-tenant quota arbiter (demand-proportional with 50%
/// weighted floors), once under free-for-all (keep-what-you-have,
/// never preempt) — and the `consistency` flags state the arbiter's
/// case: checksums bit-identical to each tenant running alone, a better
/// worst per-tenant p99 for at most 10% of the aggregate throughput, a
/// Jain index ≥ 0.9 across the active tenants' service rates, the cold
/// tenant's DRAM preempted (never under free-for-all), and an open-loop
/// burst past the queue bound shed at admission.
fn tenant(smoke: bool, _dir: &Path) -> Result<Value, String> {
    use tahoe_server::{ArbiterMode, QuotaPolicy};

    artifact_banner(
        "TENANT multi-tenant fairness: quota arbiter vs free-for-all",
        smoke,
    );
    let geo = TenantGeometry::new(smoke);
    let base_seed = 40;
    let quota = ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 });
    let q = tenant_mode("quota", quota, &geo, base_seed)?;
    let f = tenant_mode("free_for_all", ArbiterMode::FreeForAll, &geo, base_seed)?;

    // The flags judge the numbers as recorded (at artifact precision),
    // so the gate re-deriving them from the same fields cannot disagree.
    let num = |mode: &Value, key: &str| mode.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let solo = |mode: &Value| mode.get("checksums_match_solo") == Some(&true.into());
    let (q_p99, f_p99) = (num(&q, "worst_p99_ms"), num(&f, "worst_p99_ms"));
    let throughput_ratio = num(&q, "aggregate_graphs_per_s") / num(&f, "aggregate_graphs_per_s");
    let consistency = obj! {
        "checksums_match_solo": solo(&q) && solo(&f),
        "quota_beats_ffa_worst_p99": q_p99 < f_p99,
        "throughput_within_10pct": throughput_ratio >= 0.9,
        "jain_quota_ge_090": num(&q, "jain") >= 0.9,
        "quota_preempts": num(&q, "preempted") >= 1.0,
        "ffa_never_preempts": num(&f, "preempted") == 0.0,
        "burst_sheds": num(&q, "shed") >= 1.0,
        "quota_worst_p99_ms": Value::fixed(q_p99, 3),
        "ffa_worst_p99_ms": Value::fixed(f_p99, 3),
        "throughput_ratio": Value::fixed(throughput_ratio, 4),
    };
    println!(
        "  quota vs free-for-all worst p99: {q_p99:.2} vs {f_p99:.2} ms, jain {:.3}",
        num(&q, "jain")
    );
    Ok(obj! {
        "machine": machine_json(smoke),
        "workload": obj! {
            "active_tenants": 4u32,
            "cold_tenants": 1u32,
            "pieces": geo.pieces,
            "piece_bytes": geo.piece_bytes,
            "windows": geo.windows,
            "tasks_per_window": geo.tasks_per_window,
            "compute_us": Value::fixed(geo.compute_us, 1),
            "run_ms": geo.run_ms,
            "warmup_graphs": geo.warmup_graphs,
            "burst": geo.burst,
            "dram_budget": geo.dram_budget(),
        },
        "calibration": obj! {
            "dram_gbps": 10.0,
            "nvm_gbps": 0.25,
            "dram_lat_ns": 100.0,
            "nvm_lat_ns": 500.0,
        },
        "modes": Value::array([q, f]),
        "consistency": consistency,
    })
}

/// Builds one artifact: `(smoke, output directory) -> document`.
type RunFn = fn(bool, &Path) -> Result<Value, String>;

/// Every gated artifact: `(kind, schema, run, file name)`. `exp <kind>`
/// tags the document `run` builds with `schema` and writes it to
/// `target/<kind>-artifact/<file name>`; `exp bless` copies that to
/// `baselines/BENCH_<kind>.smoke.json`.
#[rustfmt::skip]
pub static ARTIFACTS: &[(&str, &str, RunFn, &str)] = &[
    ("obs", "tahoe-bench-obs/v2", obs_artifact, "BENCH_obs.json"),
    ("real", "tahoe-bench-real/v3", real_two, "BENCH_real.json"),
    ("real3", "tahoe-bench-real/v3", real_three, "BENCH_real.json"),
    ("sanitize", "tahoe-bench-sanitize/v1", sanitize, "BENCH_sanitize.json"),
    ("verify", "tahoe-bench-verify/v1", verify, "BENCH_verify.json"),
    ("tenant", "tahoe-bench-tenant/v1", tenant, "BENCH_tenant.json"),
    ("blame", "tahoe-bench-blame/v2", blame, "BENCH_blame.json"),
];

/// Run artifact `kind`, write it under `out` (default
/// `target/<kind>-artifact`) and judge it by the band table's
/// baseline-free rows. The artifact is written even when a row fails,
/// so CI can upload what failed. Returns the artifact's path.
pub fn produce(kind: &str, smoke: bool, out: Option<&str>) -> Result<PathBuf, String> {
    let (_, schema, run, file) = ARTIFACTS
        .iter()
        .find(|a| a.0 == kind)
        .ok_or_else(|| format!("unknown experiment: {kind}"))?;
    let dir = PathBuf::from(out.map_or_else(|| format!("target/{kind}-artifact"), String::from));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let doc = obj!(run(smoke, &dir)?; "schema": *schema);
    let path = dir.join(file);
    std::fs::write(&path, doc.write()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  -> {}", path.display());
    let mut failures = Vec::new();
    for (band, verdict) in gate::check(None, &doc)? {
        match verdict {
            gate::Verdict::Pass => {}
            gate::Verdict::Vacuous(why) => println!("  vacuous ({why}): {}", band.label()),
            gate::Verdict::Fail(messages) => failures.extend(messages),
        }
    }
    if failures.is_empty() {
        Ok(path)
    } else {
        Err(format!(
            "{kind} artifact fails its bands:\n  - {}",
            failures.join("\n  - ")
        ))
    }
}

/// `exp bless [kind...]`: regenerate the smoke artifacts (all, or the
/// named kinds) and install them as the committed baselines.
pub fn bless(kinds: &[String]) -> Result<(), String> {
    let all: Vec<String> = ARTIFACTS.iter().map(|a| a.0.to_string()).collect();
    for kind in if kinds.is_empty() { &all } else { kinds } {
        let baseline = format!("baselines/BENCH_{kind}.smoke.json");
        std::fs::copy(produce(kind, true, None)?, &baseline)
            .map_err(|e| format!("install {baseline}: {e}"))?;
        println!("  blessed {baseline}");
    }
    Ok(())
}

/// The virtual-time experiments `exp eN` regenerates, in order.
#[rustfmt::skip]
pub static EXPERIMENTS: &[(&str, fn())] = &[
    ("e1", e1), ("e2", e2), ("e3", e3), ("e4", e4), ("e5", e5), ("e6", e6), ("e7", e7),
    ("e8", e8), ("e9", e9), ("e10", e10), ("e11", e11), ("e12", e12), ("e13", e13),
];

/// Run every experiment in order.
pub fn all() {
    for (_, run) in EXPERIMENTS {
        run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_workloads::stream;

    #[test]
    fn platform_builders_scale_with_app() {
        let app = stream::app(Scale::Test);
        let p = platform_bw(&app, 0.5);
        assert!(p.fastest().capacity >= 1 << 20);
        assert!(p.spill().capacity >= app.footprint());
        let q = platform_lat(&app, 4.0);
        assert!(q.spill().read_lat_ns > q.fastest().read_lat_ns);
    }

    #[test]
    fn band_table_and_artifact_table_cover_the_same_schemas() {
        for (kind, schema, ..) in ARTIFACTS {
            assert!(
                gate::BANDS.iter().any(|b| b.schema == *schema),
                "artifact `{kind}` writes `{schema}`, which has no band rows"
            );
        }
        for bands in gate::BANDS {
            assert!(
                ARTIFACTS.iter().any(|a| a.1 == bands.schema),
                "band rows for `{}`, which no artifact writes",
                bands.schema
            );
        }
    }

    /// Every artifact kind has a committed baseline, and every baseline
    /// names a kind that still exists: a deleted artifact's baseline
    /// does not linger.
    #[test]
    fn artifacts_and_baselines_agree() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let mut baselines: Vec<String> = std::fs::read_dir(&dir)
            .expect("baselines/ is readable")
            .map(|e| {
                e.expect("directory entry")
                    .file_name()
                    .into_string()
                    .unwrap()
            })
            .filter_map(|name| {
                let kind = name.strip_prefix("BENCH_")?.strip_suffix(".smoke.json")?;
                Some(kind.to_string())
            })
            .collect();
        baselines.sort();
        let mut kinds: Vec<String> = ARTIFACTS.iter().map(|a| a.0.to_string()).collect();
        kinds.sort();
        assert_eq!(
            baselines, kinds,
            "baselines/BENCH_<kind>.smoke.json vs ARTIFACTS"
        );
    }

    #[test]
    fn a_quote_in_a_workload_name_still_parses() {
        let mut b = AppBuilder::new("str\"eam\\");
        let x = b.object("x", 64);
        let c = b.class("c");
        b.task(c).read_streaming(x, 1).submit();
        let text = workload_json(&b.build()).write();
        let parsed = json::parse(&text).expect("artifact text parses");
        assert_eq!(
            parsed.get("name").and_then(Value::as_str),
            Some("str\"eam\\")
        );
    }

    #[test]
    fn dram_budget_is_quarter_footprint() {
        let app = stream::app(Scale::Bench);
        assert_eq!(dram_budget(&app), app.footprint() / 4);
    }
}
