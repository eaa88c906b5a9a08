//! One run of one workload: set-up, timed rounds, one JSON result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::batch::{self, Prepared};
use crate::json::J;
use crate::manifest::{self, Metric};
use crate::spans::{self, Tracer};
use crate::stats::{self, Stat};
use crate::{gen, probes, serve, settle};

/// How often set-up is repeated in one run; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Share of its window the traced pass spends on rounds; the rest goes
/// to the observed pairs, the simulator and the probes.
pub const TRACED_ROUNDS_SHARE: f64 = 0.4;

/// The shortest measuring window a caller may ask for, seconds. (The
/// committed `run_seconds` is far above it; tests go down to it.)
pub const MIN_SECONDS: f64 = 1.0;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// Raw samples per metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Replace whatever was sampled under `name`.
    pub fn replace(&mut self, name: &'static str, values: Vec<f64>) {
        self.0.insert(name, values);
    }

    /// Replace whatever was sampled under `name` by the single value `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.replace(name, vec![v]);
    }

    pub fn stats(&self) -> BTreeMap<&'static str, Stat> {
        self.0.iter().map(|(k, v)| (*k, Stat::of(v))).collect()
    }
}

/// What one run produced.
pub struct Outcome {
    pub config: RunConfig,
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, Stat>,
    /// Per-layer metrics this run has no value for, with the reason.
    pub not_measured: Vec<(&'static str, String)>,
    pub inputs: J,
    pub trace: Option<J>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self
                .metrics
                .get("sanitize.violations")
                .map_or(0.0, |s| s.value)
                == 0.0
    }

    fn reported(&self) -> &'static [Metric] {
        if self.config.trace {
            manifest::PER_LAYER
        } else {
            manifest::END_TO_END
        }
    }

    /// The contract's last line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`. A per-layer metric this workload does not
    /// produce reads 0 here and is named in the result file.
    pub fn result_line(&self) -> String {
        let metrics = self
            .reported()
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).map_or(0.0, |s| s.value);
                (
                    m.name.to_string(),
                    J::obj([("value", J::num(v)), ("unit", J::str(m.unit))]),
                )
            })
            .collect();
        J::obj([
            ("correct", J::Bool(self.correct())),
            ("attempted", J::num(self.tally.attempted as f64)),
            ("failed", J::num(self.tally.failed as f64)),
            ("metrics", J::Obj(metrics)),
        ])
        .compact()
    }

    /// The full record: every metric with median, quartiles, extremes and
    /// `n`, the inputs, failures and what was not measured.
    pub fn detail(&self) -> J {
        let unit = |name: &str| {
            manifest::END_TO_END
                .iter()
                .chain(manifest::PER_LAYER)
                .find(|m| m.name == name)
                .map_or("", |m| m.unit)
        };
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    J::obj([
                        ("value", J::num(s.value)),
                        ("unit", J::str(unit(name))),
                        ("q1", J::num(s.q1)),
                        ("q3", J::num(s.q3)),
                        ("min", J::num(s.min)),
                        ("max", J::num(s.max)),
                        ("n", J::num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        let failed_share = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        J::obj([
            ("workload", J::str(&self.config.workload)),
            ("seed", J::num(self.config.seed as f64)),
            ("seconds", J::num(self.config.seconds)),
            ("trace", J::Bool(self.config.trace)),
            ("correct", J::Bool(self.correct())),
            ("attempted", J::num(self.tally.attempted as f64)),
            ("failed", J::num(self.tally.failed as f64)),
            ("failed_share", J::num(failed_share)),
            (
                "failures",
                J::Arr(self.tally.reasons.iter().map(|r| J::str(r)).collect()),
            ),
            ("inputs", self.inputs.clone()),
            ("metrics", J::Obj(metrics)),
            (
                "not_measured",
                J::Obj(
                    self.not_measured
                        .iter()
                        .map(|(k, why)| (k.to_string(), J::str(why)))
                        .collect(),
                ),
            ),
        ])
    }

    /// A table for people, on stderr.
    pub fn print_table(&self) {
        eprintln!(
            "{} seed {} {:.0} s trace {}: attempted {} failed {}",
            self.config.workload,
            self.config.seed,
            self.config.seconds,
            self.config.trace as u8,
            self.tally.attempted,
            self.tally.failed
        );
        for m in self.reported() {
            match self.metrics.get(m.name) {
                Some(s) => eprintln!(
                    "  {:<32} {:>12.4} {:<6} q1 {:<10.4} q3 {:<10.4} min {:<10.4} max {:<10.4} n {}",
                    m.name, s.value, m.unit, s.q1, s.q3, s.min, s.max, s.n
                ),
                None => eprintln!("  {:<32} not measured", m.name),
            }
        }
        for r in &self.tally.reasons {
            eprintln!("  failed: {r}");
        }
    }
}

/// Where result files and `trace.json` go: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// What the run ran on and with: recorded, never acted on.
fn inputs(cfg: &RunConfig, p: &Prepared, rounds: u64, extra: Vec<(&'static str, J)>) -> J {
    let (nproc, workers) = batch::worker_budget();
    let hex = |x: u64| J::str(&format!("{x:016x}"));
    let mut fields = vec![
        ("nproc", J::num(nproc as f64)),
        ("workers", J::num(workers as f64)),
        ("loadavg", J::str(&read_trimmed("/proc/loadavg"))),
        (
            "host_l3",
            J::str(&read_trimmed(
                "/sys/devices/system/cpu/cpu0/cache/index3/size",
            )),
        ),
        ("yardstick_stream_gbps", J::num(p.yardstick_gbps)),
        ("seed", J::num(cfg.seed as f64)),
        ("run_seed", hex(p.run_seed)),
        ("app_digest", hex(gen::app_digest(&p.app))),
        ("reference_checksum", hex(p.reference)),
        ("objects", J::num(p.app.objects.len() as f64)),
        ("tasks", J::num(p.app.graph.len() as f64)),
        ("windows", J::num(p.app.windows() as f64)),
        ("footprint_bytes", J::num(p.app.footprint() as f64)),
        ("dram_budget_bytes", J::num(p.dram_budget() as f64)),
        (
            "calls_per_sample",
            J::Arr(p.reps.iter().map(|r| J::num(*r as f64)).collect()),
        ),
        ("rounds", J::num(rounds as f64)),
        (
            "calibration",
            J::str("pinned: presets::dram / presets::optane_pmm, cf_bw = cf_lat = 1"),
        ),
    ];
    fields.extend(extra);
    J::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Set up [`SETUPS`] times over and keep the last: `once` gets the
/// previous set-up to dispose of inside the next one's clock, as a
/// restart would. Each pass is one `setup` span and one `setup_s` sample.
pub fn set_up<T>(
    tr: &mut Tracer,
    s: &mut Samples,
    mut once: impl FnMut(&mut Tracer, &mut Samples, Option<T>) -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let span = tr.begin("setup", i as u64);
        let next = once(tr, s, kept.take())?;
        tr.end(span);
        s.push("setup_s", t0.elapsed().as_secs_f64());
        kept = Some(next);
    }
    Ok(kept.expect("SETUPS > 0"))
}

/// Run one workload as configured and return what it measured.
pub fn run_one(cfg: &RunConfig) -> Result<Outcome, String> {
    if manifest::workload(&cfg.workload).is_none() {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if cfg.seconds.is_nan() || cfg.seconds < MIN_SECONDS {
        return Err(format!("--seconds must be at least {MIN_SECONDS}"));
    }
    let mut tr = Tracer::new(cfg.trace);
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let window = Duration::from_secs_f64(cfg.seconds);
    let settled = tr.scope("settle", 0, |_| settle::settle(batch::worker_budget().0));

    let (prepared, rounds, mut extra_inputs) = if cfg.workload == "serve_mix" {
        serve::run(cfg, window, &mut tr, &mut tally, &mut s)?
    } else {
        let p = set_up(&mut tr, &mut s, |tr, s, _| {
            let t = Instant::now();
            let input = tr.scope("gen.app", 0, |_| batch::generate(&cfg.workload, cfg.seed));
            s.push("taskrt.graph_build_ms", t.elapsed().as_secs_f64() * 1e3);
            let input = input.ok_or_else(|| format!("no generator for {}", cfg.workload))?;
            batch::setup_once(input, tr, &mut tally, s)
        })?;
        let round_window = if cfg.trace {
            window.mul_f64(TRACED_ROUNDS_SHARE)
        } else {
            window
        };
        let start = Instant::now();
        let span = tr.begin("rounds", 0);
        let rounds = batch::rounds_until(&p, start, round_window, &mut tr, &mut tally, &mut s);
        tr.end(span);
        (p, rounds, Vec::new())
    };

    if cfg.trace {
        probes::traced_pass(&prepared, &mut tr, &mut tally, &mut s);
    }

    // One graph in flight and a few dozen samples carry no tail: on the
    // batch workloads the tail metric is the median, with `n` stated.
    if s.get("graph_p95_ms").is_empty() {
        let p50 = stats::median(s.get("graph_p50_ms"));
        s.push("graph_p95_ms", p50);
    }
    s.push("peak_rss_mib", peak_rss_mib());
    // A count that must be zero: report every violation seen, not the
    // median of the audits.
    let violations: f64 = s.get("sanitize.violations").iter().sum();
    s.set("sanitize.violations", violations);

    let span = tr.begin("report", 0);
    extra_inputs.extend([
        ("settle_seconds", J::num(settled.seconds)),
        ("settle_first_share", J::num(settled.first_share)),
        ("settle_last_share", J::num(settled.last_share)),
    ]);
    let mut metrics = s.stats();
    let inputs = inputs(cfg, &prepared, rounds, extra_inputs);
    drop(prepared);
    tr.end(span);

    let trace = cfg.trace.then(|| {
        let wall = tr.wall_ns();
        metrics.insert(
            "trace.untiled_share",
            Stat::single(spans::untiled_share(tr.spans(), wall)),
        );
        spans::to_json(tr.spans(), wall)
    });
    let mut not_measured = Vec::new();
    if cfg.trace {
        for m in manifest::PER_LAYER {
            if !metrics.contains_key(m.name) {
                let why = if m.name.starts_with("server.") {
                    "only serve_mix runs a server"
                } else {
                    "no sample was taken in this run"
                };
                not_measured.push((m.name, why.to_string()));
            }
        }
    } else {
        for m in manifest::END_TO_END {
            if !metrics.contains_key(m.name) {
                tally.fail(format!("end-to-end metric {} has no sample", m.name));
            }
        }
    }
    Ok(Outcome {
        config: cfg.clone(),
        tally,
        metrics,
        not_measured,
        inputs,
        trace,
    })
}

/// Write the result file (and `trace.json` of a traced run) under
/// `benchmark/out/`.
pub fn write_files(o: &Outcome) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-trace{}", o.config.workload, o.config.trace as u8);
    std::fs::write(dir.join(format!("result-{stem}.json")), o.detail().pretty())?;
    if let Some(t) = &o.trace {
        std::fs::write(dir.join("trace.json"), t.pretty())?;
    }
    Ok(())
}
