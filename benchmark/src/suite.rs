//! Whole-suite commands: `run` (every workload, several runs), `aa`
//! (the same code measured in two alternating sets — the noise floor the
//! bounds are judged against) and `compare` (two suite files, one row per
//! workload × metric).

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::J;
use crate::manifest::{END_TO_END, WORKLOADS};
use crate::stats;

/// End-to-end values of one workload over several runs.
#[derive(Debug, Default, Clone)]
pub struct WorkloadRuns {
    /// Metric name → one value per run.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// `failed / attempted` per run.
    pub failed_share: Vec<f64>,
}

/// Workload name → its runs.
pub type Suite = BTreeMap<String, WorkloadRuns>;

/// Run one workload once, untraced, in a fresh process of this same
/// binary, and fold its result line into `into`.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    into: &mut WorkloadRuns,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["one", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    let v = J::parse(line)?;
    let num = |k: &str| {
        v.get(k)
            .and_then(J::as_f64)
            .ok_or(format!("result lacks {k}"))
    };
    into.failed_share
        .push(num("failed")? / num("attempted")?.max(1.0));
    let metrics = v.get("metrics").ok_or("result lacks metrics")?;
    for m in END_TO_END {
        let x = metrics
            .get(m.name)
            .and_then(|e| e.get("value"))
            .and_then(J::as_f64)
            .ok_or(format!("result lacks {}", m.name))?;
        into.metrics.entry(m.name.to_string()).or_default().push(x);
    }
    Ok(())
}

fn suite_json(suite: &Suite) -> J {
    J::Obj(
        suite
            .iter()
            .map(|(w, r)| {
                let nums = |v: &[f64]| J::Arr(v.iter().map(|x| J::num(*x)).collect());
                (
                    w.clone(),
                    J::obj([
                        ("failed_share", nums(&r.failed_share)),
                        (
                            "metrics",
                            J::Obj(
                                r.metrics
                                    .iter()
                                    .map(|(k, v)| (k.clone(), nums(v)))
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

fn suite_from_json(v: &J) -> Result<Suite, String> {
    let nums = |a: &J| -> Result<Vec<f64>, String> {
        a.as_arr()
            .ok_or("expected an array")?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| "expected a number".to_string()))
            .collect()
    };
    let mut suite = Suite::new();
    for (w, r) in v.fields() {
        let mut runs = WorkloadRuns {
            failed_share: nums(r.get("failed_share").ok_or("no failed_share")?)?,
            ..Default::default()
        };
        for (k, a) in r.get("metrics").ok_or("no metrics")?.fields() {
            runs.metrics.insert(k.clone(), nums(a)?);
        }
        suite.insert(w.clone(), runs);
    }
    Ok(suite)
}

/// Read a suite from a file written by `run` — or one set of a
/// `NOISE.json`, addressed as `NOISE.json#0`.
pub fn load_suite(spec: &str) -> Result<Suite, String> {
    let (path, set) = match spec.split_once('#') {
        Some((p, s)) => (p, Some(s.parse::<usize>().map_err(|e| e.to_string())?)),
        None => (spec, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = J::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let body = match set {
        Some(i) => v
            .get("sets")
            .and_then(J::as_arr)
            .and_then(|s| s.get(i))
            .ok_or(format!("{path} has no set {i}"))?,
        None => v
            .get("workloads")
            .ok_or(format!("{path} has no workloads"))?,
    };
    suite_from_json(body)
}

/// `benchmark run`: every workload `runs` times, seeds `seed..`.
pub fn run(runs: u64, seconds: u64, seed: u64, out: &str) -> Result<(), String> {
    let mut suite = Suite::new();
    for i in 0..runs {
        for w in WORKLOADS {
            eprintln!("run {}/{runs}: {}", i + 1, w.name);
            child_run(
                w.name,
                seed + i,
                seconds,
                suite.entry(w.name.into()).or_default(),
            )?;
        }
    }
    let doc = J::obj([
        ("schema", J::str("tahoe-benchmark-suite/v1")),
        ("seconds", J::num(seconds as f64)),
        ("runs", J::num(runs as f64)),
        ("workloads", suite_json(&suite)),
    ]);
    std::fs::write(out, doc.pretty()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn summary(v: &[f64]) -> J {
    let [q1, q2, q3] = stats::quartiles(v);
    let s = stats::sorted(v);
    let range = s.last().zip(s.first()).map_or(0.0, |(hi, lo)| hi - lo);
    J::obj([
        ("median", J::num(q2)),
        ("q1", J::num(q1)),
        ("q3", J::num(q3)),
        ("spread", J::num(stats::spread(v))),
        (
            "range_share",
            J::num(if q2 == 0.0 { 0.0 } else { range / q2.abs() }),
        ),
    ])
}

/// `benchmark aa`: the untraced suite in `sets` alternating sets of
/// `runs` runs each, every run on its own seed. Writes `NOISE.json` —
/// measurements only, so it stays true when a bound moves — and errors
/// (non-zero exit) if two sets of the same code disagree by more
/// than a metric's bound, or a set's own quartile spread exceeds it
/// (`setup_s` is judged on disagreement only, as the driver does).
pub fn aa(sets: u64, runs: u64, seconds: u64, seed: u64, out: &str) -> Result<(), String> {
    let mut all: Vec<Suite> = vec![Suite::new(); sets as usize];
    for i in 0..runs {
        for (k, set) in all.iter_mut().enumerate() {
            for w in WORKLOADS {
                eprintln!("aa run {}/{runs} set {k}: {}", i + 1, w.name);
                let seed = seed + i * sets + k as u64;
                child_run(w.name, seed, seconds, set.entry(w.name.into()).or_default())?;
            }
        }
    }
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let per_set: Vec<&[f64]> = all
                .iter()
                .map(|s| s[w.name].metrics[m.name].as_slice())
                .collect();
            let medians: Vec<f64> = per_set.iter().map(|v| stats::median(v)).collect();
            // Worst pairwise worsening between sets (all metrics are
            // lower-is-better), as a share of the better median.
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(0.0, f64::max);
            let disagreement = if lo > 0.0 { hi / lo - 1.0 } else { 0.0 };
            let spread = per_set.iter().map(|v| stats::spread(v)).fold(0.0, f64::max);
            let spread_ok = m.name == "setup_s" || spread <= m.bound;
            let ok = disagreement <= m.bound && spread_ok;
            if !ok {
                broken.push(format!(
                    "{} {}: spread {:.4} disagreement {:.4} bound {}",
                    w.name, m.name, spread, disagreement, m.bound
                ));
            }
            rows.push(J::obj([
                ("workload", J::str(w.name)),
                ("metric", J::str(m.name)),
                ("unit", J::str(m.unit)),
                ("sets", J::Arr(per_set.iter().map(|v| summary(v)).collect())),
                ("disagreement", J::num(disagreement)),
                ("widest_spread", J::num(spread)),
            ]));
        }
    }
    let failed: f64 = all
        .iter()
        .flat_map(|s| s.values())
        .flat_map(|r| r.failed_share.iter())
        .sum();
    if failed > 0.0 {
        broken.push(format!("operations failed (summed failed share {failed})"));
    }
    let doc = J::obj([
        ("schema", J::str("tahoe-benchmark-noise/v1")),
        ("seconds", J::num(seconds as f64)),
        ("runs_per_set", J::num(runs as f64)),
        ("first_seed", J::num(seed as f64)),
        ("rows", J::Arr(rows)),
        ("sets", J::Arr(all.iter().map(suite_json).collect())),
    ]);
    std::fs::write(out, doc.pretty()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two sets of the same code disagree:\n  {}",
            broken.join("\n  ")
        ))
    }
}

/// Verdict of one comparison row.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound: the data cannot
    /// say "unchanged".
    Unresolved,
}

/// Judge `b` against base `a` for a lower-is-better metric.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
    let spread = stats::spread(a).max(stats::spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if ratio - 1.0 > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, ratio, spread)
}

/// `benchmark compare <a> <b>`: is `b` worse than base `a`? Returns
/// whether any row is `worse`.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (sa, sb) = (load_suite(a)?, load_suite(b)?);
    let mut any_worse = false;
    println!(
        "{:<11} {:<20} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base (a)", "b", "b/a", "spread", "bound"
    );
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (sa.get(w.name), sb.get(w.name)) else {
            println!("{:<11} missing from one side", w.name);
            continue;
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                println!("{:<11} {:<20} missing from one side", w.name, m.name);
                continue;
            };
            let (verdict, ratio, spread) = judge(va, vb, m.bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<11} {:<20} {:>12.4} {:>12.4} {:>8.4} {:>7.4} {:>6}  {}",
                w.name,
                m.name,
                stats::median(va),
                stats::median(vb),
                ratio,
                spread,
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (
            stats::median(&ra.failed_share),
            stats::median(&rb.failed_share),
        );
        let worse = fb > fa;
        any_worse |= worse;
        println!(
            "{:<11} {:<20} {:>12.6} {:>12.6} {:>8} {:>7} {:>6}  {}",
            w.name,
            "failed_share",
            fa,
            fb,
            "-",
            "-",
            "0",
            if worse { "worse" } else { "ok" }
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.4, 100.1, 99.8];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let wild = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&base, &same, 0.10).0, Verdict::Ok);
        let (v, ratio, _) = judge(&base, &slow, 0.10);
        assert_eq!(v, Verdict::Worse);
        assert!((ratio - 1.2).abs() < 1e-9);
        // Faster is never worse.
        assert_eq!(judge(&slow, &base, 0.10).0, Verdict::Ok);
        // Spread wider than the bound: cannot say.
        assert_eq!(judge(&base, &wild, 0.10).0, Verdict::Unresolved);
    }

    #[test]
    fn suite_files_round_trip() {
        let mut suite = Suite::new();
        let r = suite.entry("stream_bw".into()).or_default();
        r.failed_share = vec![0.0, 0.0];
        r.metrics.insert("tahoe_run_ms".into(), vec![1.5, 2.5]);
        let back = suite_from_json(&J::parse(&suite_json(&suite).pretty()).unwrap()).unwrap();
        assert_eq!(back["stream_bw"].metrics["tahoe_run_ms"], vec![1.5, 2.5]);
        assert_eq!(back["stream_bw"].failed_share, vec![0.0, 0.0]);
    }
}
