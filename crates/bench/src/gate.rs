//! Regression gate: one declarative band table ([`BANDS`]) and one
//! interpreter ([`check`]) over `BENCH_*.json` artifacts.
//!
//! Each row states one invariant once: the artifact's `schema`, a JSON
//! path (or a small named derivation), an operator, a tolerance, a
//! precondition and the message to print when it fails. `exp <kind>`
//! runs the rows that need no baseline on the artifact it just built —
//! that decides its exit status — and `benchgate` runs the same table
//! against a committed baseline under `baselines/`. A row whose
//! precondition does not hold is reported *vacuous*, never silently
//! passed. The rationale per row is the table itself, rendered into
//! `EXPERIMENTS.md` § "Regression gate" (a unit test holds the two
//! together).

use tahoe_obs::json::Value;

/// The quantity a band judges. Paths are dotted; a segment may carry a
/// selector — `runs[*]` (every element), `tiers[1]` (one element),
/// `modes[mode=quota]` (elements whose field equals the value),
/// `runs[policy=tahoe,workers=1]` (elements matching every condition) —
/// and a trailing `.#` is an array's length. A multi-valued quantity
/// must satisfy the band at every value.
pub enum What {
    /// Each of these paths, judged alike.
    Paths(&'static [&'static str]),
    /// Ratios `next / previous` along a multi-valued numeric path.
    Steps(&'static str),
    /// A named derivation over the whole document.
    Derived(&'static str, fn(&Value) -> Result<Vec<f64>, String>),
}

/// What a band compares against.
pub enum Tol {
    Num(f64),
    Str(&'static str),
    /// Another path in the same document, times a factor.
    Fresh(&'static str, f64),
    /// The same quantity in the baseline, exactly.
    Base,
    /// The same quantity in the baseline, to this relative tolerance.
    BaseRel(f64),
    /// A described function of the same quantity in the baseline.
    BaseFn(&'static str, fn(f64) -> f64),
}

pub enum Op {
    IsTrue,
    In(&'static [&'static str]),
    Eq(Tol),
    Ne(Tol),
    Lt(Tol),
    Le(Tol),
    Ge(Tol),
    Gt(Tol),
}

/// A precondition; when it does not hold the row is vacuous.
pub enum When {
    /// The document (and the baseline, if the row reads it) has this path.
    Has(&'static str),
    /// This flag is true.
    IsTrue(&'static str),
}

/// One row of the band table. `why` is the failure message: `{p}` is
/// the concrete path, `{v}` the fresh value, `{b}` what it was held to.
pub struct Band {
    pub what: What,
    pub op: Op,
    pub when: &'static [When],
    pub why: &'static str,
}

const fn band(what: What, op: Op, why: &'static str) -> Band {
    Band {
        what,
        op,
        when: &[],
        why,
    }
}

/// How one row fared.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Pass,
    /// One message per value that broke the band.
    Fail(Vec<String>),
    /// The row judged nothing, and why.
    Vacuous(String),
}

use Op::{Eq, Ge, Gt, In, Le, Lt, Ne};
use Tol::{Base, BaseFn, BaseRel, Fresh, Num, Str};
use What::{Derived, Paths, Steps};
use When::Has;

const FLAG: &str = "fresh `{p}` is false";
const REFERENCE: &str = "`{p}` is {v}, the sequential heap reference is {b}";

/// One artifact schema's rows. `exp <kind>` judges the artifact it just
/// built by both lists (less the rows that read a baseline); `benchgate`
/// by `gate` only — the `exp_only` rows read fields a hand-reduced or
/// older artifact may lack, and never were the gate's to judge.
pub struct Bands {
    pub schema: &'static str,
    pub gate: &'static [Band],
    pub exp_only: &'static [Band],
}

/// Every invariant held over the artifacts, each stated once.
#[rustfmt::skip]
pub static BANDS: &[Bands] = &[
    Bands { schema: "tahoe-bench-obs/v2", gate: &[
        // The calibration, the worker count and the plan are pinned, so
        // every count is too; timestamps are measurements, not recorded.
        band(Paths(&["workload.name", "workload.footprint_bytes", "workload.windows",
             "workload.tasks", "events.total", "events.by_kind"]), Eq(Base),
             "obs digest field `{p}` changed: baseline {b} vs fresh {v}"),
        band(Paths(&["rerun_events"]), Eq(Fresh("events", 1.0)),
             "the second observed run recorded {v}, the first {b}"),
        band(Paths(&["events.by_kind.worker_task"]), Eq(Fresh("workload.tasks", 1.0)),
             "{v} worker_task events for {b} tasks"),
        band(Paths(&["events.by_kind.migration_issued", "events.by_kind.migration_completed",
             "events.by_kind.real_copy_done"]), Eq(Fresh("migrations", 1.0)),
             "`{p}` is {v}, the run committed {b} migrations"),
        band(Paths(&["migrations"]), Ge(Num(1.0)), "expected at least one migration"),
        // A saturated recorder silently truncates the stream every
        // downstream consumer (exporters, crit-path, blame) trusts.
        band(Paths(&["ring_dropped"]), Eq(Num(0.0)),
             "flight recorder dropped {v} events during the obs artifact run"),
        band(Paths(&["plan_steps_skipped"]), Eq(Num(0.0)),
             "`{p}`: {v} objects ended off the tier the audited plan put them on"),
        band(Paths(&["checksum"]), Eq(Fresh("reference_checksum", 1.0)), REFERENCE),
    ], exp_only: &[
    ]},
    Bands { schema: "tahoe-bench-real/v3", gate: &[
        band(Paths(&["consistency.all_runs_match_reference", "consistency.dram_throughput_ge_nvm",
             "consistency.tahoe_multiworker_overlapped"]), Op::IsTrue, FLAG),
        // Throughputs are compared at one worker: whether a device's
        // bandwidth scales with threads is the device's property, and
        // the host's, not the code's.
        band(Paths(&["runs[policy=DRAM-only,workers=1].throughput_gbps"]),
             Ge(Fresh("runs[policy=NVM-only,workers=1].throughput_gbps", 1.0)),
             "DRAM-only throughput {v} GB/s below NVM-emulated {b} GB/s"),
        // Absolute throughputs are machine-dependent; the injected
        // slowdown ratio is portable within a generous band.
        band(Derived("nvm_slowdown", nvm_slowdown),
             Ge(BaseFn("max(1, baseline / 2.5)", |b| (b / 2.5).max(1.0))),
             "NVM slowdown ratio {v} below the band's lower edge {b}"),
        band(Derived("nvm_slowdown", nvm_slowdown), Le(BaseFn("baseline × 2.5", |b| b * 2.5)),
             "NVM slowdown ratio {v} above the band's upper edge {b}"),
        band(Paths(&["runs[policy=tahoe].migrations"]), Ge(Num(1.0)),
             "`{p}`: tahoe performed no migrations"),
        band(Derived("tahoe_multiworker_best_overlap", tahoe_best_overlap),
             Ge(BaseFn("0.2 × baseline", |b| b * 0.2)),
             "best tahoe overlap {v}% collapsed below {b}%"),
        // ---- 3-tier sweep (`--tiers 3`): the middle tier's case ----
        band(Paths(&["consistency.mid_tier_wins_latency_bound",
             "consistency.three_tier_beats_both_two_tier", "consistency.tahoe_uses_mid_tier"]),
             Op::IsTrue, FLAG).when(&[Has("modelled")]),
        band(Paths(&["modelled.tahoe3_ns"]), Le(Fresh("modelled.two_tier_dram_nvm_ns", 1.0 + 1e-9)),
             "3-tier modelled runtime {v} ns worse than 2-tier DRAM+NVM {b} ns")
             .when(&[Has("modelled")]),
        band(Paths(&["modelled.tahoe3_ns"]), Le(Fresh("modelled.two_tier_dram_cxl_ns", 1.0 + 1e-9)),
             "3-tier modelled runtime {v} ns worse than 2-tier DRAM+CXL {b} ns")
             .when(&[Has("modelled")]),
        band(Paths(&["modelled.mid_tier_objects"]), Ge(Num(1.0)),
             "3-tier plan left the middle tier empty").when(&[Has("modelled")]),
        band(Paths(&["modelled.mid_tier_latency_bound_objects"]), Ge(Num(1.0)),
             "no latency-bound object won the middle tier").when(&[Has("modelled")]),
        // Calibration-free, so reproduced to round-off.
        band(Paths(&["modelled.tahoe3_ns", "modelled.two_tier_dram_nvm_ns",
             "modelled.two_tier_dram_cxl_ns", "modelled.mid_tier_objects",
             "modelled.mid_tier_latency_bound_objects"]), Eq(BaseRel(1e-9)),
             "deterministic `{p}` drifted: baseline {b} vs fresh {v}").when(&[Has("modelled")]),
        band(Paths(&["consistency.sweep_monotone"]), Op::IsTrue, FLAG).when(&[Has("sweep")]),
        band(Paths(&["sweep.#"]), Ge(Num(4.0)),
             "middle-tier sweep covers only {v} capacities (need >= {b})").when(&[Has("sweep")]),
        // More middle-tier room only relaxes the knapsack; re-derived
        // from the raw rows, never trusted from the flag.
        band(Steps("sweep[*].modelled_ns"), Le(Num(1.0 + 1e-9)),
             "middle-tier sweep not monotone: `{p}` grows the modelled runtime {v}x")
             .when(&[Has("sweep")]),
        band(Paths(&["sweep[*].cxl_capacity_bytes", "sweep[*].mid_tier_objects",
             "sweep[*].modelled_ns"]), Eq(BaseRel(1e-9)),
             "deterministic `{p}` drifted: baseline {b} vs fresh {v}").when(&[Has("sweep")]),
    ], exp_only: &[
        band(Paths(&["runs[*].checksum"]), Eq(Fresh("consistency.reference_checksum", 1.0)),
             REFERENCE),
        band(Paths(&["runs[policy=DRAM-only,workers=1].wall_ns",
             "runs[policy=NVM-only,workers=1].wall_ns", "runs[policy=first-touch,workers=1].wall_ns",
             "runs[policy=tahoe,workers=1].wall_ns", "runs[*].wall_ns", "runs[*].bytes_touched",
             "tiers[*].capacity_bytes"]), Gt(Num(0.0)),
             "`{p}` is {v}: the run exercised nothing"),
        band(Derived("worker_counts", worker_counts), Ge(Num(2.0)),
             "only {v} distinct worker counts ran"),
        band(Paths(&["runs[*].pct_overlap", "runs[*].cas_retries", "runs[*].parks",
             "runs[*].unparks"]), Ge(Num(0.0)), "`{p}` is {v}"),
        band(Paths(&["runs[*].pct_overlap"]), Le(Num(100.0)), "`{p}` is {v}%"),
        band(Paths(&["runs[*].plan_steps_skipped"]), Eq(Num(0.0)),
             "`{p}`: {v} objects ended off the tier the audited plan put them on"),
        band(Paths(&["tiers[0].name"]), Eq(Str("DRAM")), "fastest tier is `{v}`"),
        // Rows carry the preset's name, not a fixed label.
        band(Paths(&["tiers[1].name"]), Ne(Str("NVM")),
             "slow tier carries the hardcoded label `{v}`"),
        band(Paths(&["runs[*].final_tier_objects.#"]), Eq(Fresh("tiers.#", 1.0)),
             "`{p}` is {v} but the platform has {b} tiers"),
        band(Steps("sweep[*].cxl_capacity_bytes"), Gt(Num(1.0)),
             "`{p}`: sweep capacities must grow").when(&[Has("sweep")]),
        band(Paths(&["tiers.#"]), Eq(Num(3.0)), "3-tier sweep ran on {v} tiers")
             .when(&[Has("modelled")]),
        band(Paths(&["tiers[1].name"]), Eq(Str("CXL")), "middle tier is `{v}`")
             .when(&[Has("modelled")]),
        band(Paths(&["runs[policy=tahoe].final_tier_objects[1]"]), Ge(Num(1.0)),
             "measured Tahoe left the middle tier empty").when(&[Has("modelled")]),
    ]},
    Bands { schema: "tahoe-bench-sanitize/v1", gate: &[
        band(Paths(&["static.clean", "fuzz.clean", "fixtures[*].static_match",
             "fixtures[*].dynamic_match", "consistency.correct_workloads_clean",
             "consistency.fixtures_exact"]), Op::IsTrue, FLAG),
        // Violation sets are schedule-independent by construction.
        band(Paths(&["static", "fuzz", "fixtures"]), Eq(Base),
             "sanitize digest `{p}` changed: baseline {b} vs fresh {v}"),
    ], exp_only: &[
        band(Paths(&["static.workloads_verified", "fuzz.accesses_checked", "fixtures[*].runs"]),
             Ge(Num(1.0)), "`{p}` is {v}: the pass exercised nothing"),
        band(Paths(&["fixtures.#"]), Ge(Num(4.0)), "only {v} buggy fixtures ran"),
        band(Derived("fuzz_grid_gap", fuzz_grid_gap), Eq(Num(0.0)),
             "fuzz runs miss the workloads × workers × seeds grid by {v}"),
    ]},
    Bands { schema: "tahoe-bench-verify/v1", gate: &[
        band(Paths(&["plans.clean", "preflight.clean", "mcheck.clean", "fixtures[*].exact",
             "consistency.solver_plans_clean", "consistency.preflight_clean",
             "consistency.fixtures_exact", "consistency.protocol_certified",
             "consistency.bugs_all_caught"]), Op::IsTrue, FLAG),
        // Pure functions of the code: `mcheck.configs[*].states` /
        // `transitions` pin the certification sweep's state space.
        band(Paths(&["plans", "preflight", "fixtures", "mcheck"]), Eq(Base),
             "verify digest `{p}` changed: baseline {b} vs fresh {v}"),
    ], exp_only: &[
    ]},
    Bands { schema: "tahoe-bench-tenant/v1", gate: &[
        band(Paths(&["consistency.checksums_match_solo", "consistency.quota_beats_ffa_worst_p99",
             "consistency.throughput_within_10pct", "consistency.jain_quota_ge_090",
             "consistency.quota_preempts", "consistency.ffa_never_preempts",
             "consistency.burst_sheds"]), Op::IsTrue, FLAG),
        // The arbiter's case, re-derived from the per-mode numbers.
        band(Paths(&["modes[mode=quota].worst_p99_ms"]),
             Lt(Fresh("modes[mode=free_for_all].worst_p99_ms", 1.0)),
             "quota worst p99 {v} ms does not beat free-for-all {b} ms"),
        band(Paths(&["modes[mode=quota].aggregate_graphs_per_s"]),
             Ge(Fresh("modes[mode=free_for_all].aggregate_graphs_per_s", 0.9)),
             "quota throughput {v} graphs/s retains less than 90% of free-for-all's"),
        band(Paths(&["modes[mode=quota].jain"]),
             Ge(BaseFn("max(0.9, baseline − 0.05)", |b| 0.9_f64.max(b - 0.05))),
             "quota Jain index {v} below floor {b}"),
        band(Paths(&["modes[mode=quota].preempted"]), Ge(Num(1.0)),
             "quota mode performed no preemptions"),
        band(Paths(&["modes[mode=free_for_all].preempted"]), Eq(Num(0.0)),
             "free-for-all mode preempted {v} times"),
        band(Paths(&["modes[mode=quota].shed"]), Ge(Num(1.0)), "quota burst shed nothing"),
    ], exp_only: &[
        band(Paths(&["modes[*].checksums_match_solo"]), Op::IsTrue, FLAG),
        band(Paths(&["modes.#"]), Eq(Num(2.0)),
             "{v} arbitration modes ran, want quota and free-for-all"),
        band(Derived("malformed_tenant_rows", malformed_tenant_rows), Eq(Num(0.0)),
             "{v} modes or tenant rows malformed (want 1 cold + 4 active, p99 >= p50 >= 0)"),
    ]},
    Bands { schema: "tahoe-bench-blame/v2", gate: &[
        band(Paths(&["consistency.checksum_matches_reference",
             "consistency.blame_covers_all_migrations"]), Op::IsTrue, FLAG),
        band(Paths(&["workload.name"]), Eq(Base),
             "workload changed under the baseline: {b} vs {v}"),
        // Every band is re-derived from the fresh numbers. The chain
        // stops at a task every other span overlaps, so it misses at
        // most the earliest task's head start: less than the longest
        // task (+1 ns, the recorded maximum being truncated).
        band(Derived("crit_gap_past_longest_task_ns", crit_gap_past_longest_task), Le(Num(1.0)),
             "critical path stops {v} ns further short of the span than the longest task lasts (band {b} ns)"),
        band(Derived("overlap_delta_pct", overlap_delta_pct), Le(Num(1.0)),
             "blame overlap is {v} points off the engine overlap (band {b})"),
        band(Paths(&["run.migrations", "audit.audited"]), Ge(Num(1.0)),
             "`{p}` is {v}: the run exercised nothing"),
        band(Paths(&["reconciliation.blamed_migrations"]),
             Eq(Fresh("reconciliation.engine_migrations", 1.0)),
             "blame table covers {v} migrations, engine committed {b}"),
        band(Paths(&["run.ring_dropped"]), Eq(Num(0.0)),
             "flight recorder dropped {v} events; the blame table is incomplete"),
        // The recorder's cost as a count: the graph and the plan fix how
        // many events of each kind the observed run records.
        band(Paths(&["events.by_kind"]), Eq(Base),
             "recorded `{p}` changed: baseline {b} vs fresh {v}"),
        // Wall clocks are noisy: headroom over the baseline, but
        // catch a model that has come apart.
        band(Paths(&["audit.median_ape_pct"]),
             Le(BaseFn("max(2 × baseline, baseline + 25)", |b| (b * 2.0).max(b + 25.0))),
             "median APE {v}% exceeds limit {b}%"),
        band(Paths(&["audit.sign_agreement_pct"]),
             Ge(BaseFn("max(baseline − 25, 50)", |b| (b - 25.0).max(50.0))),
             "sign agreement {v}% below floor {b}%"),
        // The plane may be unavailable (no loopback sockets).
        band(Paths(&["telemetry.scrape_matches_report"]), Op::IsTrue,
             "telemetry served but its scrape diverged from the shutdown report")
             .when(&[When::IsTrue("telemetry.served")]),
    ], exp_only: &[
        band(Derived("tiling_error", tiling_error), Le(Num(1e-6)),
             "chain does not tile its interval: compute + stall + idle off by {v} (relative)"),
        band(Paths(&["critpath.exec_wall_ns"]), Ge(Fresh("critpath.span_ns", 1.0)),
             "execution wall {v} ns shorter than the observed span {b} ns"),
        band(Paths(&["critpath.span_ns", "blame[*].bytes"]), Gt(Num(0.0)), "`{p}` is {v}"),
        band(Derived("blame_row_migrations", blame_row_migrations),
             Eq(Fresh("reconciliation.engine_migrations", 1.0)),
             "blame rows sum to {v} migrations, engine committed {b}"),
        band(Paths(&["blame[*].tier"]), In(&["dram", "nvm"]), "`{p}` is `{v}`"),
        band(Paths(&["run.plan_steps_skipped"]), Eq(Num(0.0)),
             "`{p}`: {v} objects ended off the tier the audited plan put them on"),
        band(Paths(&["histograms.task_ns.count"]), Ge(Num(1.0)),
             "flight recorder produced no task latency digest"),
        band(Paths(&["audit.sign_agreement_pct"]), Le(Num(100.0)), "`{p}` is {v}%"),
        band(Derived("unsound_object_rows", unsound_audit_rows), Eq(Num(0.0)),
             "{v} object rows disagree with `audit.audited` or lack a positive prediction"),
    ]},
];

/// Nodes a dotted path selects, each with its concrete path.
fn resolve<'v>(root: &'v Value, path: &str) -> Result<Vec<(String, &'v Value)>, String> {
    let mut cur = vec![(String::new(), root)];
    for seg in path.split('.') {
        let (key, sel) = match seg.split_once('[') {
            Some((key, rest)) => (key, Some(rest.trim_end_matches(']'))),
            None => (seg, None),
        };
        let mut next = Vec::new();
        for (at, node) in cur {
            let child = node
                .get(key)
                .ok_or_else(|| format!("missing field `{path}`"))?;
            let at = format!("{at}{}{key}", if at.is_empty() { "" } else { "." });
            let Some(sel) = sel else {
                next.push((at, child));
                continue;
            };
            let items = child
                .as_array()
                .ok_or_else(|| format!("field `{at}` is not an array"))?;
            let found = next.len();
            next.extend(
                items
                    .iter()
                    .enumerate()
                    .filter(|(i, item)| {
                        if !sel.contains('=') {
                            return sel == "*" || sel.parse() == Ok(*i);
                        }
                        sel.split(',').all(|cond| {
                            let (k, want) = cond.split_once('=').unwrap_or((cond, ""));
                            item.get(k).is_some_and(|v| match v {
                                Value::Number(n) => want.parse() == Ok(*n),
                                other => other.as_str() == Some(want),
                            })
                        })
                    })
                    .map(|(i, item)| (format!("{at}[{i}]"), item)),
            );
            if sel != "*" && next.len() == found {
                return Err(format!("`{at}[{sel}]` missing from `{path}`"));
            }
        }
        cur = next;
    }
    Ok(cur)
}

/// The values at `path` (a trailing `.#` takes array lengths).
fn values(doc: &Value, path: &str) -> Result<Vec<(String, Value)>, String> {
    let Some(arrays) = path.strip_suffix(".#") else {
        let nodes = resolve(doc, path)?;
        return Ok(nodes.into_iter().map(|(at, v)| (at, v.clone())).collect());
    };
    resolve(doc, arrays)?
        .into_iter()
        .map(|(at, v)| match v.as_array() {
            Some(items) => Ok((format!("{at}.#"), items.len().into())),
            None => Err(format!("field `{at}` is not an array")),
        })
        .collect()
}

fn number(at: &str, v: &Value) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("field `{at}` is not a number"))
}

/// The numbers at `path`; a non-number there is an error.
pub fn nums(doc: &Value, path: &str) -> Result<Vec<f64>, String> {
    let found = values(doc, path)?;
    found.iter().map(|(at, v)| number(at, v)).collect()
}

fn measure(doc: &Value, what: &What) -> Result<Vec<(String, Value)>, String> {
    match what {
        Paths(paths) => {
            let per_path: Result<Vec<_>, _> = paths.iter().map(|p| values(doc, p)).collect();
            Ok(per_path?.into_iter().flatten().collect())
        }
        Steps(path) => Ok(nums(doc, path)?
            .windows(2)
            .enumerate()
            .map(|(i, p)| (format!("{path} step {}", i + 1), (p[1] / p[0]).into()))
            .collect()),
        Derived(name, f) => Ok(f(doc)?
            .into_iter()
            .map(|x| (name.to_string(), x.into()))
            .collect()),
    }
}

impl Op {
    fn tol(&self) -> Option<&Tol> {
        match self {
            Op::IsTrue | In(_) => None,
            Eq(t) | Ne(t) | Lt(t) | Le(t) | Ge(t) | Gt(t) => Some(t),
        }
    }

    fn reads_baseline(&self) -> bool {
        matches!(self.tol(), Some(Base | BaseRel(_) | BaseFn(..)))
    }
}

impl When {
    /// Why the precondition does not hold on `docs` (the fresh document,
    /// then the baseline if the row reads it), if it does not.
    fn unmet(&self, docs: &[&Value]) -> Option<String> {
        match self {
            Has(p) => docs
                .iter()
                .position(|d| resolve(d, p).is_err())
                .map(|i| format!("{} `{p}`", ["no", "baseline has no"][i])),
            When::IsTrue(p) => match resolve(docs[0], p).ok().and_then(|n| n[0].1.as_bool()) {
                Some(true) => None,
                _ => Some(format!("{}=false", p.rsplit('.').next().unwrap_or(p))),
            },
        }
    }
}

/// Render a value for a failure message; inequality bands round to
/// three decimals, equality bands print exactly.
fn show(v: &Value, exact: bool) -> String {
    match v {
        Value::Number(n) if !exact => ((n * 1e3).round() / 1e3).to_string(),
        Value::Number(n) => n.to_string(),
        Value::String(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

impl Band {
    const fn when(self, when: &'static [When]) -> Band {
        Band { when, ..self }
    }

    fn judge(&self, baseline: Option<&Value>, fresh: &Value) -> Result<Verdict, String> {
        let baseline = baseline.filter(|_| self.op.reads_baseline());
        let docs: Vec<&Value> = std::iter::once(fresh).chain(baseline).collect();
        if let Some(reason) = self.when.iter().find_map(|w| w.unmet(&docs)) {
            return Ok(Verdict::Vacuous(reason));
        }
        let got = measure(fresh, &self.what)?;
        if got.is_empty() {
            return Ok(Verdict::Vacuous("n=0".into()));
        }
        let base = baseline.map(|b| measure(b, &self.what)).transpose()?;
        if let Some(base) = base.as_ref().filter(|b| b.len() != got.len()) {
            return Ok(Verdict::Fail(vec![format!(
                "`{}` length changed: baseline {} rows vs fresh {}",
                got[0].0,
                base.len(),
                got.len()
            )]));
        }
        let exact = matches!(self.op, Eq(_) | Ne(_));
        let mut failures = Vec::new();
        for (i, (at, v)) in got.iter().enumerate() {
            let reference = match self.op.tol() {
                None => Value::Null,
                Some(Num(x)) => (*x).into(),
                Some(Str(s)) => (*s).into(),
                Some(Fresh(p, k)) => match &values(fresh, p)?[..] {
                    [(_, Value::Number(n))] => (n * k).into(),
                    [(_, other)] => other.clone(),
                    _ => return Err(format!("`{p}` is not a single value")),
                },
                Some(Base | BaseRel(_)) => base.as_ref().expect("baseline measured")[i].1.clone(),
                Some(BaseFn(_, f)) => {
                    let (b_at, b) = &base.as_ref().expect("baseline measured")[i];
                    f(number(b_at, b)?).into()
                }
            };
            let cmp = |ok: fn(f64, f64) -> bool| -> Result<bool, String> {
                Ok(ok(number(at, v)?, number("the bound", &reference)?))
            };
            let holds = match &self.op {
                Op::IsTrue => v
                    .as_bool()
                    .ok_or_else(|| format!("field `{at}` is not a bool"))?,
                In(set) => v.as_str().is_some_and(|s| set.contains(&s)),
                Eq(BaseRel(tol)) => {
                    let (f, b) = (number(at, v)?, number(at, &reference)?);
                    (f - b).abs() <= tol * b.abs().max(1.0)
                }
                Eq(_) => *v == reference,
                Ne(_) => *v != reference,
                Lt(_) => cmp(|f, b| f < b)?,
                Le(_) => cmp(|f, b| f <= b)?,
                Ge(_) => cmp(|f, b| f >= b)?,
                Gt(_) => cmp(|f, b| f > b)?,
            };
            if !holds {
                failures.push(
                    self.why
                        .replace("{p}", at)
                        .replace("{v}", &show(v, exact))
                        .replace("{b}", &show(&reference, exact)),
                );
            }
        }
        Ok(if failures.is_empty() {
            Verdict::Pass
        } else {
            Verdict::Fail(failures)
        })
    }

    /// The row's cells after the schema: quantity, op, tolerance,
    /// precondition, message.
    fn cells(&self, exp_only: bool) -> [String; 5] {
        let code = |p: &&str| format!("`{p}`");
        let what = match &self.what {
            Paths(paths) => paths.iter().map(code).collect::<Vec<_>>().join(", "),
            Steps(path) => format!("steps of `{path}`"),
            Derived(name, _) => format!("*{name}*"),
        };
        let op = match &self.op {
            Op::IsTrue => "is true",
            In(_) => "in",
            Eq(_) => "=",
            Ne(_) => "≠",
            Lt(_) => "<",
            Le(_) => "≤",
            Ge(_) => "≥",
            Gt(_) => ">",
        };
        let tol = match (&self.op, self.op.tol()) {
            (In(set), _) => set.join(" / "),
            (_, None) => String::new(),
            (_, Some(Num(x))) => x.to_string(),
            (_, Some(Str(s))) => format!("\"{s}\""),
            (_, Some(Fresh(p, k))) if *k == 1.0 => code(p),
            (_, Some(Fresh(p, k))) => format!("{k} × `{p}`"),
            (_, Some(Base)) => "baseline".into(),
            (_, Some(BaseRel(tol))) => format!("baseline ± {tol:e} relative"),
            (_, Some(BaseFn(doc, _))) => (*doc).into(),
        };
        let scope = exp_only.then(|| "`exp` only".to_string());
        let when: Vec<String> = scope
            .into_iter()
            .chain(self.when.iter().map(|w| match w {
                Has(p) => format!("has `{p}`"),
                When::IsTrue(p) => format!("`{p}`"),
            }))
            .collect();
        [what, op.into(), tol, when.join(", "), self.why.into()]
    }

    /// `quantity op tolerance`, for one-line-per-row reports.
    pub fn label(&self) -> String {
        self.cells(false)[..3].join(" ").trim_end().to_string()
    }
}

fn schema_of(v: &Value) -> Result<&str, String> {
    let schema = v.get("schema").ok_or("missing field `schema`")?;
    Ok(schema.as_str().ok_or("field `schema` is not a string")?)
}

/// Judge `fresh` by its schema's rows: with a `baseline` (which must
/// carry the same `schema` tag) the `gate` rows; without one, every row
/// that reads no baseline. Structural problems (schema mismatch, a
/// missing or mistyped field) are `Err`.
pub fn check(
    baseline: Option<&Value>,
    fresh: &Value,
) -> Result<Vec<(&'static Band, Verdict)>, String> {
    let fs = schema_of(fresh)?;
    if let Some(bs) = baseline.map(schema_of).transpose()?.filter(|bs| *bs != fs) {
        return Err(format!("schema mismatch: baseline `{bs}` vs fresh `{fs}`"));
    }
    let bands = BANDS
        .iter()
        .find(|b| b.schema == fs)
        .ok_or_else(|| format!("unknown artifact schema `{fs}`"))?;
    let exp_only = bands.exp_only.iter().filter(|_| baseline.is_none());
    let in_scope = |row: &&Band| baseline.is_some() || !row.op.reads_baseline();
    let rows = bands.gate.iter().chain(exp_only).filter(in_scope);
    rows.map(|row| Ok((row, row.judge(baseline, fresh)?)))
        .collect()
}

// ---- named derivations the table references -------------------------

/// DRAM-only over NVM-only throughput at one worker, floored at 1.
fn nvm_slowdown(v: &Value) -> Result<Vec<f64>, String> {
    let dram = nums(v, "runs[policy=DRAM-only,workers=1].throughput_gbps")?[0];
    let nvm = nums(v, "runs[policy=NVM-only,workers=1].throughput_gbps")?[0];
    Ok(vec![(dram / nvm.max(f64::MIN_POSITIVE)).max(1.0)])
}

/// Best `pct_overlap` of any tahoe run at >= 2 workers; 0 when there is
/// none.
fn tahoe_best_overlap(v: &Value) -> Result<Vec<f64>, String> {
    let get = |r: &Value, k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let runs = resolve(v, "runs[policy=tahoe]")?;
    let multiworker = runs.iter().filter(|(_, r)| get(r, "workers") >= 2.0);
    Ok(vec![multiworker
        .map(|(_, r)| get(r, "pct_overlap"))
        .fold(0.0, f64::max)])
}

/// How many distinct worker counts ran.
fn worker_counts(v: &Value) -> Result<Vec<f64>, String> {
    let mut workers = nums(v, "runs[*].workers")?;
    workers.sort_by(f64::total_cmp);
    workers.dedup();
    Ok(vec![workers.len() as f64])
}

/// Audited object rows (non-null `ape_pct`) must number `audit.audited`
/// and each pair a positive prediction with a measurement.
fn unsound_audit_rows(v: &Value) -> Result<Vec<f64>, String> {
    let rows = resolve(v, "objects[*]")?;
    let audited: Vec<_> = rows
        .iter()
        .filter(|(_, o)| o.get("ape_pct").is_some_and(|a| *a != Value::Null))
        .collect();
    let unpaired = audited.iter().filter(|(_, o)| {
        let num = |k| o.get(k).and_then(Value::as_f64);
        num("predicted_saving_ns").is_none_or(|p| p <= 0.0) || num("measured_saving_ns").is_none()
    });
    let miscount = (audited.len() as f64 - nums(v, "audit.audited")?[0]).abs();
    Ok(vec![miscount + unpaired.count() as f64])
}

/// Fuzz runs short of (or beyond) workloads × workers × seeds.
fn fuzz_grid_gap(v: &Value) -> Result<Vec<f64>, String> {
    let n = |p| Ok::<_, String>(nums(v, p)?[0]);
    let grid = n("fuzz.workloads")? * n("fuzz.workers.#")? * n("fuzz.seeds.#")?;
    Ok(vec![n("fuzz.runs")? - grid])
}

/// Blame-side aggregate `%overlap` against the migration engine's.
fn overlap_delta_pct(v: &Value) -> Result<Vec<f64>, String> {
    let blame = nums(v, "reconciliation.blame_pct_overlap")?[0];
    Ok(vec![(blame
        - nums(v, "reconciliation.engine_pct_overlap")?[0])
        .abs()])
}

/// How much further short of the observed span the critical path stops
/// than the longest task lasts.
fn crit_gap_past_longest_task(v: &Value) -> Result<Vec<f64>, String> {
    let n = |p| Ok::<_, String>(nums(v, p)?[0]);
    let gap = n("critpath.span_ns")? - n("critpath.crit_total_ns")?;
    Ok(vec![gap - n("histograms.task_ns.max")?])
}

/// Relative gap between the critical path and compute + stall + idle.
fn tiling_error(v: &Value) -> Result<Vec<f64>, String> {
    let n = |p| Ok::<_, String>(nums(v, p)?[0]);
    let total = n("critpath.crit_total_ns")?;
    let parts = n("critpath.compute_ns")? + n("critpath.stall_ns")? + n("critpath.idle_ns")?;
    Ok(vec![(total - parts).abs() / total.max(1.0)])
}

fn blame_row_migrations(v: &Value) -> Result<Vec<f64>, String> {
    Ok(vec![nums(v, "blame[*].migrations")?.iter().sum()])
}

/// Modes whose tenants are not one cold + four active, plus tenant rows
/// without a graph or with `p99 < p50` or `p50 < 0`.
fn malformed_tenant_rows(v: &Value) -> Result<Vec<f64>, String> {
    let mut bad = 0usize;
    for (at, _) in resolve(v, "modes[*]")? {
        let roles = values(v, &format!("{at}.tenants[*].role"))?;
        let count = |role| {
            roles
                .iter()
                .filter(|(_, r)| r.as_str() == Some(role))
                .count()
        };
        bad += usize::from(count("cold") != 1 || count("active") != 4);
        let col = |k| nums(v, &format!("{at}.tenants[*].{k}"));
        let (graphs, p50, p99) = (col("graphs")?, col("p50_ms")?, col("p99_ms")?);
        bad += (0..graphs.len())
            .filter(|&i| graphs[i] < 1.0 || p50[i] < 0.0 || p99[i] < p50[i])
            .count();
    }
    Ok(vec![bad as f64])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_obs::json;

    /// [`BANDS`] as the markdown table `EXPERIMENTS.md` § "Regression gate"
    /// carries verbatim.
    fn bands_markdown() -> String {
        let mut out = String::from(
            "| schema | quantity | op | tolerance | precondition | failure message |\n|---|---|---|---|---|---|\n",
        );
        for bands in BANDS {
            let rows = bands.gate.iter().map(|r| (r, false));
            for (row, exp_only) in rows.chain(bands.exp_only.iter().map(|r| (r, true))) {
                let cells = row.cells(exp_only).join(" | ");
                out.push_str(&format!("| `{}` | {cells} |\n", bands.schema));
            }
        }
        out
    }

    /// [`check`] over raw JSON text, reduced to the violations found (an
    /// empty vector means the gate passes).
    fn compare_text(baseline: &str, fresh: &str) -> Result<Vec<String>, String> {
        let b = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
        let f = json::parse(fresh).map_err(|e| format!("fresh: {e}"))?;
        let verdicts = check(Some(&b), &f)?;
        Ok(verdicts
            .into_iter()
            .filter_map(|(_, v)| match v {
                Verdict::Fail(messages) => Some(messages),
                _ => None,
            })
            .flatten()
            .collect())
    }

    fn obs_doc(total: u64) -> String {
        obs_doc_drops(total, 0)
    }

    fn obs_doc_drops(total: u64, dropped: u64) -> String {
        let events = format!(
            r#"{{"total": {total}, "by_kind": {{"migration_completed": 3, "migration_issued": 3,
                "real_copy_done": 3, "worker_task": 16}}}}"#
        );
        format!(
            r#"{{"schema": "tahoe-bench-obs/v2",
                "workload": {{"name": "stream", "footprint_bytes": 786432, "windows": 4, "tasks": 16}},
                "events": {events}, "rerun_events": {events},
                "migrations": 3, "ring_dropped": {dropped}, "plan_steps_skipped": 0,
                "checksum": "b7bb3763b09dd546", "reference_checksum": "b7bb3763b09dd546"}}"#
        )
    }

    /// `doc` with `change` applied to the value at `path` (dotted object
    /// keys and array indices): one injected regression.
    fn edit_with(doc: &str, path: &str, change: impl FnOnce(&mut Value)) -> String {
        let mut root = json::parse(doc).expect("fixture parses");
        let mut node = &mut root;
        for seg in path.split('.') {
            node = match node {
                Value::Object(fields) => fields.get_mut(seg),
                Value::Array(items) => seg.parse().ok().and_then(|i: usize| items.get_mut(i)),
                _ => None,
            }
            .unwrap_or_else(|| panic!("`{path}` is not in the fixture"));
        }
        change(node);
        root.write()
    }

    /// `doc` with the value at `path` replaced by `value`.
    fn edit(doc: &str, path: &str, value: impl Into<Value>) -> String {
        edit_with(doc, path, |node| *node = value.into())
    }

    /// A blame artifact whose every band holds: a 1.2 ms span the chain
    /// covers but for a 40 µs head start, against a 0.3 ms longest task.
    fn healthy_blame_doc() -> String {
        r#"{"schema": "tahoe-bench-blame/v2",
            "machine": {"arch": "x86_64", "os": "linux", "numa_nodes": 1, "smoke": true},
            "workload": {"name": "stream", "footprint_bytes": 786432, "windows": 4, "tasks": 16},
            "run": {"policy": "tahoe", "workers": 2, "seed": 7, "wall_ns": 3.2e6,
                    "checksum": "261b4ff712b71cae", "migrations": 12, "migrated_bytes": 786432,
                    "pct_overlap": 100.0, "gate_wait_ns": 2724.0, "ring_dropped": 0,
                    "plan_steps_skipped": 0},
            "critpath": {"crit_total_ns": 1.16e6, "span_ns": 1.2e6, "exec_wall_ns": 1.4e6,
                         "compute_ns": 1.0e6, "stall_ns": 2763.0, "idle_ns": 157237.0,
                         "segments": 41, "tasks_on_path": 14, "crit_vs_span_pct": 3.333333},
            "blame": [{"object": 0, "tier": "dram", "migrations": 12, "bytes": 786432,
                       "overlapped_ns": 4.6e4, "exposed_ns": 0.0, "gate_wait_ns": 0.0,
                       "chosen": true, "predicted_benefit_ns": 79872.1}],
            "reconciliation": {"blame_pct_overlap": 99.8, "engine_pct_overlap": 100.0,
                               "delta_pct": 0.2, "blamed_migrations": 12,
                               "engine_migrations": 12, "unattributed_wait_ns": 3154.0},
            "audit": {"audited": 2, "median_ape_pct": 40.0, "sign_agreement_pct": 100.0},
            "objects": [
              {"object": 0, "name": "a0", "bytes": 65536, "chosen": true, "accesses": 4,
               "predicted_saving_ns": 120.0, "measured_saving_ns": 100.0, "ape_pct": 20.0,
               "sign_agrees": true},
              {"object": 1, "name": "a1", "bytes": 65536, "chosen": true, "accesses": 4,
               "predicted_saving_ns": 140.0, "measured_saving_ns": 100.0, "ape_pct": 40.0,
               "sign_agrees": true},
              {"object": 2, "name": "b0", "bytes": 65536, "chosen": true, "accesses": 4,
               "predicted_saving_ns": 120.0, "measured_saving_ns": null, "ape_pct": null,
               "sign_agrees": null}],
            "events": {"total": 55, "by_kind": {"arena_mapped": 2, "migration_completed": 12,
                       "migration_issued": 12, "placement_decision": 12, "profiling_closed": 1,
                       "worker_task": 16}},
            "histograms": {"task_ns": {"count": 16, "p50": 6.0e4, "p90": 2.5e5, "p99": 3.0e5,
                                       "max": 3.0e5}},
            "telemetry": {"served": true, "scrape_matches_report": true,
                          "tenants": 2, "completed_total": 2, "blame_samples": 20},
            "consistency": {"checksum_matches_reference": true,
                            "blame_covers_all_migrations": true}}"#
            .to_string()
    }

    /// One `runs[]` row of a real artifact; `tiers` is its final object
    /// count per tier.
    fn real_row(
        policy: &str,
        workers: u32,
        throughput: f64,
        mig: (u64, f64),
        tiers: &str,
    ) -> String {
        let (migrations, overlap) = mig;
        format!(
            r#"{{"policy": "{policy}", "workers": {workers}, "wall_ns": 2.0e6,
                "bytes_touched": 16777216, "throughput_gbps": {throughput},
                "checksum": "261b4ff712b71cae", "migrations": {migrations},
                "pct_overlap": {overlap}, "cas_retries": 0, "parks": 0, "unparks": 0,
                "plan_steps_skipped": 0, "final_tier_objects": {tiers}}}"#
        )
    }

    /// A v3 real artifact: DRAM-only, NVM-only and first-touch at one
    /// worker, Tahoe at one and two (`tahoe_2w` is the 2-worker run's
    /// migrations and overlap). With `modelled` it carries the 3-tier
    /// plan/modelled/sweep blocks of a `--tiers 3` run.
    fn real_doc(
        dram_thr: f64,
        nvm_thr: f64,
        tahoe_2w: (u64, f64),
        modelled: Option<(f64, f64, f64, u64, u64)>,
        flags_true: bool,
    ) -> String {
        let runs = [
            real_row("DRAM-only", 1, dram_thr, (0, 100.0), "[20, 0, 0]"),
            real_row("NVM-only", 1, nvm_thr, (0, 100.0), "[0, 0, 20]"),
            real_row("first-touch", 1, dram_thr, (0, 100.0), "[2, 0, 18]"),
            real_row("tahoe", 1, dram_thr, (3, 100.0), "[2, 14, 4]"),
            real_row("tahoe", 2, dram_thr, tahoe_2w, "[2, 14, 4]"),
        ]
        .join(",");
        let mut extra = String::new();
        let mut flags = format!(
            r#""reference_checksum": "261b4ff712b71cae", "all_runs_match_reference": {flags_true},
               "dram_throughput_ge_nvm": true, "tahoe_multiworker_overlapped": true"#
        );
        if let Some((t3, t2n, t2c, mid, midlat)) = modelled {
            // The sweep rows shrink from t3 as the CXL tier doubles.
            extra = format!(
                r#""plan": [{{"object": 0, "name": "p0", "bytes": 16384, "tier": 1, "tier_name": "CXL", "latency_bound": true}}],
                   "modelled": {{"tahoe3_ns": {t3}, "two_tier_dram_nvm_ns": {t2n}, "two_tier_dram_cxl_ns": {t2c},
                                 "mid_tier_objects": {mid}, "mid_tier_latency_bound_objects": {midlat}}},
                   "sweep": [
                     {{"cxl_capacity_bytes": 131072, "modelled_ns": {a}, "mid_tier_objects": 8}},
                     {{"cxl_capacity_bytes": 262144, "modelled_ns": {t3}, "mid_tier_objects": {mid}}},
                     {{"cxl_capacity_bytes": 524288, "modelled_ns": {b}, "mid_tier_objects": 16}},
                     {{"cxl_capacity_bytes": 1048576, "modelled_ns": {c}, "mid_tier_objects": 18}}
                   ],"#,
                a = t3 * 1.25,
                b = t3 * 0.875,
                c = t3 * 0.75
            );
            flags.push_str(&format!(
                r#", "mid_tier_wins_latency_bound": {flags_true}, "three_tier_beats_both_two_tier": {flags_true}, "tahoe_uses_mid_tier": {flags_true}, "sweep_monotone": {flags_true}"#
            ));
        }
        format!(
            r#"{{"schema": "tahoe-bench-real/v3",
                "tiers": [
                  {{"index": 0, "name": "DRAM", "capacity_bytes": 40960}},
                  {{"index": 1, "name": "CXL", "capacity_bytes": 262144}},
                  {{"index": 2, "name": "Optane PMM", "capacity_bytes": 5242880}}
                ],
                "runs": [{runs}],
                {extra}
                "consistency": {{{flags}}}}}"#
        )
    }

    /// A two-tier real artifact with these one-worker throughputs.
    fn two_tier(dram_thr: f64, nvm_thr: f64) -> String {
        real_doc(dram_thr, nvm_thr, (4, 60.0), None, true)
    }

    fn healthy_real3_doc() -> String {
        real_doc(
            7.0,
            3.0,
            (4, 60.0),
            Some((2.3e6, 2.9e6, 2.9e6, 14, 2)),
            true,
        )
    }

    /// Every violation `check` finds in `fresh`: against `baseline`
    /// (the `benchgate` rows), or on its own (the `exp` rows).
    fn failures(baseline: Option<&str>, fresh: &str) -> Vec<String> {
        let baseline = baseline.map(|b| json::parse(b).unwrap());
        let verdicts = check(baseline.as_ref(), &json::parse(fresh).unwrap()).unwrap();
        let failed = verdicts.into_iter().filter_map(|(_, v)| match v {
            Verdict::Fail(messages) => Some(messages),
            _ => None,
        });
        failed.flatten().collect()
    }

    fn sanitize_doc(accesses: u64, wur: u64, fixtures_exact: bool) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-sanitize/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "smoke": true}},
                "static": {{"workloads_verified": 12, "plans_audited": 12, "clean": true}},
                "fuzz": {{"workloads": 1, "workers": [1, 2, 4], "seeds": [0, 1, 2],
                          "runs": 9, "accesses_checked": {accesses}, "clean": true}},
                "fixtures": [
                  {{"name": "hidden_writer", "runs": 2, "static_match": true, "dynamic_match": {fixtures_exact},
                    "violations": {{"unordered_conflict": 1, "write_under_read": {wur}}}}},
                  {{"name": "racy_reduction", "runs": 2, "static_match": true, "dynamic_match": true,
                    "violations": {{"unordered_conflict": 3, "write_under_read": 3}}}},
                  {{"name": "undeclared_neighbor", "runs": 6, "static_match": true, "dynamic_match": true,
                    "violations": {{"undeclared_access": 1, "unordered_conflict": 1}}}},
                  {{"name": "stale_annotation", "runs": 6, "static_match": true, "dynamic_match": true,
                    "violations": {{"dead_declaration": 1}}}}
                ],
                "consistency": {{"correct_workloads_clean": true, "fixtures_exact": {fixtures_exact}}}}}"#
        )
    }

    /// A verify artifact with a tunable pinned state count, fixture
    /// diagnostic count, and health flags.
    fn verify_doc(states2: u64, race_count: u64, flags_true: bool) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-verify/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "smoke": true}},
                "plans": {{"workloads": 12, "tier_depths": [2, 3], "audited": 24, "steps_total": 61, "clean": true}},
                "preflight": {{"workloads": 2, "policies": 4, "runs": 8, "clean": true}},
                "fixtures": [
                  {{"name": "plan_move_races_reader", "violations": {{"plan_move_race": {race_count}}}, "exact": true}}
                ],
                "mcheck": {{"configs": [
                  {{"pinners": 2, "pin_cycles": 2, "moves": 2, "states": {states2}, "transitions": 560, "terminals": 1, "deadlocks": 0}},
                  {{"pinners": 3, "pin_cycles": 2, "moves": 2, "states": 1031, "transitions": 2040, "terminals": 1, "deadlocks": 0}}
                ], "bugs_injected": 4, "bugs_caught": 4, "clean": true}},
                "consistency": {{"solver_plans_clean": true, "preflight_clean": true, "fixtures_exact": {flags_true}, "protocol_certified": {flags_true}, "bugs_all_caught": true}}}}"#
        )
    }

    fn healthy_verify_doc() -> String {
        verify_doc(320, 1, true)
    }

    /// A tenant artifact with tunable quota-side numbers; the
    /// free-for-all side stays fixed (worst p99 12 ms, 90 graphs/s,
    /// zero preemptions) unless `ffa_preempted` says otherwise.
    #[allow(clippy::too_many_arguments)]
    fn tenant_doc(
        q_jain: f64,
        q_p99: f64,
        q_thr: f64,
        q_preempted: u64,
        q_shed: u64,
        ffa_preempted: u64,
        flags_true: bool,
    ) -> String {
        // One cold and four active tenants, p50 <= p99 in every row.
        let tenants = (0..5)
            .map(|i| {
                let role = if i == 0 { "cold" } else { "active" };
                format!(r#"{{"tenant": {i}, "role": "{role}", "graphs": 4, "p50_ms": 5.0, "p99_ms": 7.5}}"#)
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"{{"schema": "tahoe-bench-tenant/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "cpus": 2, "smoke": true}},
                "modes": [
                  {{"mode": "quota", "wall_ms": 50.0, "aggregate_graphs_per_s": {q_thr},
                    "jain": {q_jain}, "worst_p99_ms": {q_p99}, "preempted": {q_preempted}, "shed": {q_shed},
                    "checksums_match_solo": true, "tenants": [{tenants}]}},
                  {{"mode": "free_for_all", "wall_ms": 50.0, "aggregate_graphs_per_s": 90.0,
                    "jain": 0.85, "worst_p99_ms": 12.0, "preempted": {ffa_preempted}, "shed": 0,
                    "checksums_match_solo": true, "tenants": [{tenants}]}}
                ],
                "consistency": {{"checksums_match_solo": {flags_true}, "quota_beats_ffa_worst_p99": {flags_true},
                                 "throughput_within_10pct": {flags_true}, "jain_quota_ge_090": {flags_true},
                                 "quota_preempts": {flags_true}, "ffa_never_preempts": {flags_true},
                                 "burst_sheds": {flags_true}}}}}"#
        )
    }

    fn healthy_tenant_doc() -> String {
        tenant_doc(0.98, 8.0, 88.0, 2, 3, 0, true)
    }

    #[test]
    fn experiments_md_carries_the_band_table_verbatim() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = doc
            .split_once("## Regression gate")
            .map_or("", |(_, rest)| rest.split("\n## ").next().unwrap_or(""));
        let table = bands_markdown();
        assert!(
            section.contains(&table),
            "EXPERIMENTS.md § \"Regression gate\" must carry this table verbatim:\n{table}"
        );
    }

    #[test]
    fn rows_that_judge_nothing_say_so() {
        let vacuous = |doc: &str, label: &str| {
            let doc = json::parse(doc).unwrap();
            let rows = check(Some(&doc), &doc).unwrap();
            let row = rows.iter().find(|(band, _)| band.label().contains(label));
            match row.map(|(_, verdict)| verdict) {
                Some(Verdict::Vacuous(why)) => why.clone(),
                other => panic!("`{label}`: expected a vacuous row, got {other:?}"),
            }
        };
        // A two-tier run has no 3-tier blocks, and a plane that could
        // not bind has no scrape to compare.
        let two = two_tier(8.0, 2.0);
        assert_eq!(vacuous(&two, "modelled.mid_tier_objects"), "no `modelled`");
        let unserved = edit(&healthy_blame_doc(), "telemetry.served", false);
        assert_eq!(vacuous(&unserved, "scrape_matches_report"), "served=false");
    }

    #[test]
    fn identical_artifacts_pass_every_schema() {
        for doc in [
            obs_doc(40),
            two_tier(8.0, 2.0),
            healthy_real3_doc(),
            sanitize_doc(216, 1, true),
            healthy_verify_doc(),
            healthy_tenant_doc(),
            healthy_blame_doc(),
        ] {
            let v = compare_text(&doc, &doc).expect("well-formed");
            assert!(v.is_empty(), "unexpected violations: {v:?}");
        }
    }

    /// The fixtures also carry every field the `exp` rows read, and
    /// break none of them.
    #[test]
    fn healthy_fixtures_pass_their_exp_rows() {
        for doc in [
            obs_doc(40),
            two_tier(8.0, 2.0),
            healthy_real3_doc(),
            sanitize_doc(216, 1, true),
            healthy_verify_doc(),
            healthy_tenant_doc(),
            healthy_blame_doc(),
        ] {
            let v = failures(None, &doc);
            assert!(v.is_empty(), "unexpected violations: {v:?}");
        }
    }

    #[test]
    fn verify_gate_pins_the_whole_digest() {
        let base = healthy_verify_doc();
        // A drifted explored-state count is the canary for any change
        // to the word algebra, the protocol model, or the checker.
        let v = compare_text(&base, &verify_doc(321, 1, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("`mcheck` changed")), "{v:?}");
        // A fixture whose diagnostic set drifted fails exactly.
        let v = compare_text(&base, &verify_doc(320, 2, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("`fixtures` changed")), "{v:?}");
        // Self-reported health flags must hold on the fresh artifact.
        let v = compare_text(&base, &verify_doc(320, 1, false)).unwrap();
        assert!(
            v.iter()
                .any(|m| m.contains("`consistency.protocol_certified` is false")),
            "{v:?}"
        );
    }

    #[test]
    fn blame_gate_rederives_every_band() {
        let base = healthy_blame_doc();
        let gate = |fresh: String| compare_text(&base, &fresh).unwrap();
        // A chain that bottomed out early: 0.5 ms of the span uncovered,
        // against a 0.3 ms longest task.
        let v = gate(edit(&base, "critpath.crit_total_ns", 0.7e6));
        assert!(
            v.iter().any(|m| m.contains("further short of the span")),
            "{v:?}"
        );
        // ...which a short span may leave uncovered in any share, as
        // long as it is shorter than a task (here 20 %).
        let v = gate(edit(&base, "critpath.crit_total_ns", 0.96e6));
        assert!(v.is_empty(), "{v:?}");
        // Blame overlap diverging from the engine's by more than 1 point
        // fails, re-derived from the numbers (the delta field says 0.2).
        let v = gate(edit(&base, "reconciliation.blame_pct_overlap", 95.0));
        assert!(v.iter().any(|m| m.contains("engine overlap")), "{v:?}");
        // A blame table that lost migrations fails.
        let v = gate(edit(&base, "reconciliation.blamed_migrations", 9u64));
        assert!(v.iter().any(|m| m.contains("engine committed")), "{v:?}");
        // Recorder drops invalidate the whole profile.
        let v = gate(edit(&base, "run.ring_dropped", 5u64));
        assert!(v.iter().any(|m| m.contains("dropped")), "{v:?}");
        // A served-but-divergent telemetry plane fails...
        let v = gate(edit(&base, "telemetry.scrape_matches_report", false));
        assert!(v.iter().any(|m| m.contains("telemetry served")), "{v:?}");
        // ...but a plane that could not bind at all is tolerated.
        let unserved = edit(&base, "telemetry.served", false);
        let v = gate(edit(&unserved, "telemetry.scrape_matches_report", false));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn blame_gate_catches_model_regressions() {
        let base = healthy_blame_doc();
        let gate = |fresh: String| compare_text(&base, &fresh).unwrap();
        // A median APE past max(2x, +25) of the baseline's 40 % fails...
        let v = gate(edit(&base, "audit.median_ape_pct", 90.0));
        assert!(v.iter().any(|m| m.contains("median APE")), "{v:?}");
        // ...but headroom within the band passes.
        let v = gate(edit(&base, "audit.median_ape_pct", 64.0));
        assert!(v.is_empty(), "{v:?}");
        // Sign agreement collapsing fails.
        let v = gate(edit(&base, "audit.sign_agreement_pct", 40.0));
        assert!(v.iter().any(|m| m.contains("sign agreement")), "{v:?}");
        // So does a run that audited nothing.
        let v = gate(edit(&base, "audit.audited", 0u64));
        assert!(
            v.iter().any(|m| m.contains("`audit.audited` is 0")),
            "{v:?}"
        );
        // One event more or fewer of any kind is a recorder that changed
        // what it records.
        let v = gate(edit(&base, "events.by_kind.worker_task", 17u64));
        assert!(
            v.iter().any(|m| m.contains("`events.by_kind` changed")),
            "{v:?}"
        );
        let v = gate(edit(&base, "events.by_kind.migration_issued", 11u64));
        assert!(
            v.iter().any(|m| m.contains("`events.by_kind` changed")),
            "{v:?}"
        );
        // The `exp` rows: object rows that disagree with the count, and
        // a run whose recorder kept no task digest.
        let v = failures(None, &edit(&base, "audit.audited", 3u64));
        assert!(
            v.iter().any(|m| m.contains("object rows disagree")),
            "{v:?}"
        );
        let v = failures(None, &edit(&base, "histograms.task_ns.count", 0u64));
        assert!(
            v.iter().any(|m| m.contains("no task latency digest")),
            "{v:?}"
        );
    }

    #[test]
    fn tenant_gate_rederives_the_arbiter_case() {
        let base = healthy_tenant_doc();
        // Fairness collapse: jain below both the absolute floor and the
        // baseline band.
        let v = compare_text(&base, &tenant_doc(0.7, 8.0, 88.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("Jain index")), "{v:?}");
        // Jain above the absolute floor but collapsed vs baseline 0.98.
        let v = compare_text(&base, &tenant_doc(0.91, 8.0, 88.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("Jain index")), "{v:?}");
        // Worst p99 no longer beats free-for-all's 12 ms.
        let v = compare_text(&base, &tenant_doc(0.98, 13.0, 88.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("does not beat")), "{v:?}");
        // Aggregate throughput gives up more than 10% vs 90 graphs/s.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 70.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("retains less than")), "{v:?}");
        // The arbiter stopped preempting / the burst stopped shedding.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 0, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("no preemptions")), "{v:?}");
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 2, 0, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("shed nothing")), "{v:?}");
        // Free-for-all preempting means the baseline policy is broken.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 2, 3, 1, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("free-for-all mode")), "{v:?}");
        // A fresh run that failed its own self-validation always fails.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 2, 3, 0, false)).unwrap();
        assert!(
            v.iter()
                .any(|m| m.contains("consistency.checksums_match_solo")),
            "{v:?}"
        );
    }

    #[test]
    fn sanitize_gate_demands_exact_violation_sets() {
        // A changed fixture violation count is a digest change.
        let v = compare_text(&sanitize_doc(216, 1, true), &sanitize_doc(216, 2, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("fixtures")), "{v:?}");
        // Shadowed-access coverage shrinking is a digest change too.
        let v = compare_text(&sanitize_doc(216, 1, true), &sanitize_doc(215, 1, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("fuzz")), "{v:?}");
        // A fresh run that failed its own exactness check always fails.
        let v = compare_text(&sanitize_doc(216, 1, true), &sanitize_doc(216, 1, false)).unwrap();
        assert!(v.iter().any(|m| m.contains("fixtures_exact")), "{v:?}");
    }

    #[test]
    fn schema_mismatch_is_a_structural_error() {
        let err = compare_text(&obs_doc(40), &two_tier(8.0, 2.0)).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn obs_gate_demands_exact_equality() {
        let v = compare_text(&obs_doc(40), &obs_doc(41)).unwrap();
        assert!(v.iter().any(|m| m.contains("events.total")), "{v:?}");
        let more = edit(&obs_doc(40), "events.by_kind.migration_issued", 4u64);
        let v = compare_text(&obs_doc(40), &more).unwrap();
        assert!(v.iter().any(|m| m.contains("events.by_kind")), "{v:?}");
        // A nonzero drop counter fails even if both sides agree on it.
        let v = compare_text(&obs_doc_drops(40, 3), &obs_doc_drops(40, 3)).unwrap();
        assert!(v.iter().any(|m| m.contains("dropped 3 events")), "{v:?}");
    }

    #[test]
    fn real_gate_catches_ratio_drift_and_inversion() {
        // Baseline ratio 4.0; fresh ratio 16.0 breaks the 2.5x band.
        let v = compare_text(&two_tier(8.0, 2.0), &two_tier(16.0, 1.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("slowdown ratio")), "{v:?}");
        // DRAM slower than emulated NVM is always wrong.
        let v = compare_text(&two_tier(8.0, 2.0), &two_tier(2.0, 3.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("below NVM-emulated")), "{v:?}");
        // Mild drift within the band passes.
        let v = compare_text(&two_tier(8.0, 2.0), &two_tier(8.0, 3.0)).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // Only the one-worker rows are compared: a 2-worker DRAM-only
        // run slower than NVM-only judges the host, not the code.
        let slow = json::parse(&real_row("DRAM-only", 2, 1.0, (0, 100.0), "[20, 0, 0]")).unwrap();
        let with_slow = edit_with(&two_tier(8.0, 2.0), "runs", |runs| {
            if let Value::Array(runs) = runs {
                runs.push(slow);
            }
        });
        let v = compare_text(&two_tier(8.0, 2.0), &with_slow).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    /// Every run's checksum is judged, at every worker count.
    #[test]
    fn real_gate_judges_every_runs_checksum() {
        let base = two_tier(8.0, 2.0);
        let wrong = edit(&base, "runs.4.checksum", "00000000deadbeef");
        assert_eq!(
            nums(&json::parse(&wrong).unwrap(), "runs[4].workers"),
            Ok(vec![2.0])
        );
        let v = failures(None, &wrong);
        assert!(
            v.iter()
                .any(|m| m.contains("`runs[4].checksum` is 00000000deadbeef")),
            "{v:?}"
        );
        // So does the flag `exp` computes, under `benchgate` too.
        let flagged = edit(&base, "consistency.all_runs_match_reference", false);
        let v = compare_text(&base, &flagged).unwrap();
        assert!(
            v.iter().any(|m| m.contains("all_runs_match_reference")),
            "{v:?}"
        );
        // A run whose objects ended off the audited plan's tiers fails.
        let v = failures(None, &edit(&base, "runs.4.plan_steps_skipped", 1u64));
        assert!(v.iter().any(|m| m.contains("ended off the tier")), "{v:?}");
    }

    #[test]
    fn real_v3_artifacts_pass() {
        // v3 vs v3, with and without the 3-tier blocks.
        for doc in [two_tier(8.0, 2.0), healthy_real3_doc()] {
            let v = compare_text(&doc, &doc).expect("well-formed");
            assert!(v.is_empty(), "unexpected violations: {v:?}");
        }
    }

    #[test]
    fn real3_sweep_gate_rederives_monotonicity() {
        let base = healthy_real3_doc();
        // A sweep row that worsens as the middle tier grows fails the
        // re-derived monotonicity check (t3*0.75 is the largest-cap row).
        let fresh = base.replace("\"modelled_ns\": 1725000", "\"modelled_ns\": 99725000");
        assert_ne!(base, fresh, "fixture row not found");
        let v = compare_text(&base, &fresh).unwrap();
        assert!(v.iter().any(|m| m.contains("not monotone")), "{v:?}");
        // A deterministic sweep number drifting from the baseline fails
        // even while staying monotone.
        let fresh = base.replace("\"modelled_ns\": 2012500", "\"modelled_ns\": 2012400");
        assert_ne!(base, fresh, "fixture row not found");
        let v = compare_text(&base, &fresh).unwrap();
        assert!(
            v.iter().any(|m| m.contains("sweep[2].modelled_ns")),
            "{v:?}"
        );
    }

    #[test]
    fn real3_gate_rederives_the_middle_tier_case() {
        let base = healthy_real3_doc();
        let real3 =
            |modelled, flags_true| real_doc(7.0, 3.0, (4, 60.0), Some(modelled), flags_true);
        // 3-tier modelled runtime losing to a 2-tier degeneration fails.
        let v = compare_text(&base, &real3((3.0e6, 2.9e6, 2.9e6, 14, 2), true)).unwrap();
        assert!(v.iter().any(|m| m.contains("worse than 2-tier")), "{v:?}");
        // An empty middle tier, or one without a latency-bound winner, fails.
        let v = compare_text(&base, &real3((2.3e6, 2.9e6, 2.9e6, 0, 0), true)).unwrap();
        assert!(v.iter().any(|m| m.contains("middle tier empty")), "{v:?}");
        let v = compare_text(&base, &real3((2.3e6, 2.9e6, 2.9e6, 14, 0), true)).unwrap();
        assert!(v.iter().any(|m| m.contains("latency-bound")), "{v:?}");
        // The modelled numbers are deterministic: drift vs baseline fails.
        let v = compare_text(&base, &real3((2.2e6, 2.9e6, 2.9e6, 14, 2), true)).unwrap();
        assert!(v.iter().any(|m| m.contains("drifted")), "{v:?}");
        // A fresh run that failed its own self-validation always fails.
        let v = compare_text(&base, &real3((2.3e6, 2.9e6, 2.9e6, 14, 2), false)).unwrap();
        assert!(v.iter().any(|m| m.contains("tahoe_uses_mid_tier")), "{v:?}");
        // Measured Tahoe at two workers leaving the middle tier empty
        // fails the `exp` row.
        let v = failures(None, &edit(&base, "runs.4.final_tier_objects.1", 0u64));
        assert!(
            v.iter()
                .any(|m| m.contains("measured Tahoe left the middle tier empty")),
            "{v:?}"
        );
    }

    /// The rows `exp par` used to own: multi-worker Tahoe must migrate
    /// and keep its overlap.
    #[test]
    fn par_gate_catches_overlap_collapse_and_lost_migrations() {
        let base = two_tier(8.0, 2.0);
        let tahoe_2w = |mig| real_doc(8.0, 2.0, mig, None, true);
        let v = compare_text(&base, &tahoe_2w((4, 5.0))).unwrap();
        assert!(v.iter().any(|m| m.contains("collapsed")), "{v:?}");
        let v = compare_text(&base, &tahoe_2w((0, 60.0))).unwrap();
        assert!(
            v.iter()
                .any(|m| m.contains("`runs[4].migrations`: tahoe performed no migrations")),
            "{v:?}"
        );
        // Retaining 20% of baseline overlap is enough.
        let v = compare_text(&base, &tahoe_2w((4, 13.0))).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // A multi-worker run that migrated but hid nothing fails its flag.
        let hid_nothing = edit(&base, "consistency.tahoe_multiworker_overlapped", false);
        let v = compare_text(&base, &hid_nothing).unwrap();
        assert!(
            v.iter().any(|m| m.contains("tahoe_multiworker_overlapped")),
            "{v:?}"
        );
    }

    /// Every row the tests above do not break, broken once: a gate row
    /// against its healthy fixture as the baseline, an `exp` row alone.
    #[test]
    fn every_other_row_fails_when_its_property_is_false() {
        let (real, real3, blame) = (two_tier(8.0, 2.0), healthy_real3_doc(), healthy_blame_doc());
        let (sanitize, tenant) = (sanitize_doc(216, 1, true), healthy_tenant_doc());
        let obs = obs_doc(40);
        let real3_sweep = edit_with(&real3, "sweep", |rows| {
            if let Value::Array(rows) = rows {
                rows.pop();
            }
        });
        let two_tiers = edit_with(&real3, "tiers", |tiers| {
            if let Value::Array(tiers) = tiers {
                tiers.remove(1);
            }
        });
        let three_modes = edit_with(&tenant, "modes", |modes| {
            if let Value::Array(modes) = modes {
                modes.push(modes[0].clone());
            }
        });
        // (gate row?, baseline, broken fresh document, expected message)
        #[rustfmt::skip]
        let cases: Vec<(bool, &str, String, &str)> = vec![
            (true, &obs, edit(&obs, "migrations", 0u64), "expected at least one migration"),
            (true, &obs, edit(&obs, "rerun_events.total", 41u64), "the second observed run"),
            (true, &obs, edit(&obs, "events.by_kind.worker_task", 15u64),
             "15 worker_task events for 16 tasks"),
            (true, &obs, edit(&obs, "events.by_kind.real_copy_done", 2u64),
             "`events.by_kind.real_copy_done` is 2, the run committed 3"),
            (true, &obs, edit(&obs, "plan_steps_skipped", 1u64), "ended off the tier"),
            (true, &obs, edit(&obs, "checksum", "00"), "the sequential heap reference"),
            (true, &real, edit(&real, "consistency.dram_throughput_ge_nvm", false),
             "`consistency.dram_throughput_ge_nvm` is false"),
            // 8 / 6 GB/s is below max(1, 4 / 2.5).
            (true, &real, edit(&real, "runs.1.throughput_gbps", 6.0), "below the band's lower edge"),
            (false, &real, edit(&real, "runs.2.wall_ns", 0.0), "`runs[2].wall_ns` is 0"),
            (false, &real, edit(&real, "runs.4.workers", 1u64), "only 1 distinct worker counts"),
            (false, &real, edit(&real, "runs.4.pct_overlap", -1.0), "`runs[4].pct_overlap` is -1"),
            (false, &real, edit(&real, "runs.4.pct_overlap", 101.0), "`runs[4].pct_overlap` is 101%"),
            (false, &real, edit(&real, "runs.0.parks", -1.0), "`runs[0].parks` is -1"),
            (false, &real, edit(&real, "tiers.0.name", "HBM"), "fastest tier is `HBM`"),
            (false, &real, edit(&real, "tiers.1.name", "NVM"), "hardcoded label `NVM`"),
            (false, &real, edit(&real, "runs.0.final_tier_objects", Value::array([20u64, 0])),
             "platform has 3 tiers"),
            (true, &real3, edit(&real3, "consistency.sweep_monotone", false),
             "`consistency.sweep_monotone` is false"),
            (true, &real3, real3_sweep, "sweep covers only 3 capacities"),
            (true, &real3, edit(&real3, "modelled.two_tier_dram_nvm_ns", 2.2e6),
             "worse than 2-tier DRAM+NVM"),
            (true, &real3, edit(&real3, "modelled.two_tier_dram_cxl_ns", 2.2e6),
             "worse than 2-tier DRAM+CXL"),
            (true, &real3, edit(&real3, "modelled.two_tier_dram_cxl_ns", 2.91e6),
             "deterministic `modelled.two_tier_dram_cxl_ns` drifted"),
            (false, &real3, edit(&real3, "sweep.1.cxl_capacity_bytes", 131072u64),
             "sweep capacities must grow"),
            (false, &real3, two_tiers, "3-tier sweep ran on 2 tiers"),
            (false, &real3, edit(&real3, "tiers.1.name", "Optane"), "middle tier is `Optane`"),
            (false, &sanitize, edit(&sanitize, "static.workloads_verified", 0u64),
             "`static.workloads_verified` is 0"),
            (false, &sanitize, edit(&sanitize, "fixtures", Value::array([] as [Value; 0])),
             "only 0 buggy fixtures ran"),
            (false, &sanitize, edit(&sanitize, "fuzz.runs", 8u64), "grid by -1"),
            (false, &tenant, edit(&tenant, "modes.1.checksums_match_solo", false),
             "`modes[1].checksums_match_solo` is false"),
            (false, &tenant, three_modes, "3 arbitration modes ran"),
            (false, &tenant, edit(&tenant, "modes.0.tenants.2.p99_ms", 4.0),
             "1 modes or tenant rows malformed"),
            (false, &tenant, edit(&tenant, "modes.1.tenants.0.role", "active"),
             "1 modes or tenant rows malformed"),
            (true, &blame, edit(&blame, "consistency.checksum_matches_reference", false),
             "`consistency.checksum_matches_reference` is false"),
            (true, &blame, edit(&blame, "workload.name", "cg"), "workload changed under the baseline"),
            (true, &blame, edit(&blame, "run.migrations", 0u64), "`run.migrations` is 0"),
            (false, &blame, edit(&blame, "critpath.idle_ns", 0.0), "chain does not tile"),
            (false, &blame, edit(&blame, "critpath.exec_wall_ns", 1.0e6),
             "shorter than the observed span"),
            (false, &blame, edit(&blame, "blame.0.bytes", 0u64), "`blame[0].bytes` is 0"),
            (false, &blame, edit(&blame, "blame.0.migrations", 11u64), "blame rows sum to 11"),
            (false, &blame, edit(&blame, "blame.0.tier", "cxl"), "`blame[0].tier` is `cxl`"),
            (false, &blame, edit(&blame, "run.plan_steps_skipped", 2u64), "ended off the tier"),
            (false, &blame, edit(&blame, "audit.sign_agreement_pct", 101.0),
             "`audit.sign_agreement_pct` is 101%"),
        ];
        for (gate, base, fresh, want) in &cases {
            let v = if *gate {
                compare_text(base, fresh).unwrap()
            } else {
                failures(None, fresh)
            };
            assert!(
                v.iter().any(|m| m.contains(want)),
                "want `{want}`, got {v:?}"
            );
        }
    }

    #[test]
    fn missing_fields_are_structural_errors() {
        let err = compare_text(
            r#"{"schema": "tahoe-bench-blame/v2"}"#,
            r#"{"schema": "tahoe-bench-blame/v2"}"#,
        )
        .unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }
}
