//! Model-accuracy audit and observability self-overhead probe.
//!
//! The Tahoe planner earns its migrations with *predictions*: per-object
//! knapsack values derived from the analytic cost model on the fitted
//! tier specs. [`MeasuredRuntime::run_model_audit`] closes the loop — it
//! runs the parallel measured Tahoe policy, pairs every placement
//! decision's predicted per-access saving with the *measured* per-access
//! wall-clock delta between the object's NVM and DRAM residence phases,
//! and reports per-object absolute percentage error plus two aggregates:
//!
//! * **MAPE** — mean absolute percentage error of predicted vs measured
//!   per-access saving over the audited objects;
//! * **sign agreement** — the fraction of audited objects where the
//!   measured saving is actually positive (the model predicted a benefit
//!   and a benefit materialized). Sign agreement is the property the
//!   knapsack's *ranking* depends on; MAPE bounds the magnitude error.
//!
//! Only Tahoe's *chosen* objects are auditable: Tahoe starts everything
//! on NVM and promotes the chosen set once every task class has run
//! its quota of instances, so exactly those objects can accumulate
//! access samples on both tiers.
//!
//! [`MeasuredRuntime::probe_obs_overhead`] answers the other question an
//! always-on flight recorder raises: what does recording cost? It runs
//! the same seeded workload with observability fully off and fully on
//! (emitter + metrics + recorder) and reports the relative wall-clock
//! delta of the best-of-N runs.

use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_obs::{Emitter, HistSummary, Metrics};

use crate::app::App;
use crate::measured::{reference_checksum_seeded, MeasuredRuntime};
use crate::policy::PolicyKind;

/// One object's predicted-vs-measured row in the audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectAudit {
    /// App object index.
    pub object: u32,
    /// Object name (from the app).
    pub name: String,
    /// Object size in bytes.
    pub bytes: u64,
    /// Whether the knapsack promoted the object to DRAM.
    pub chosen: bool,
    /// Accesses the task graph makes to the object.
    pub accesses: u64,
    /// Model-predicted per-access saving of DRAM residence, ns.
    pub predicted_saving_ns: f64,
    /// Measured per-access saving (mean NVM wall − mean DRAM wall), ns;
    /// `None` when the object never ran on both tiers.
    pub measured_saving_ns: Option<f64>,
    /// Absolute percentage error of the prediction (denominator floored
    /// at 1 ns to keep near-zero measurements from exploding the ratio).
    pub ape_pct: Option<f64>,
    /// Whether the measured saving is positive, i.e. the predicted
    /// benefit had the right sign.
    pub sign_agrees: Option<bool>,
}

/// The full audit of one parallel measured Tahoe run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAudit {
    /// Policy audited (always Tahoe's display name).
    pub policy: String,
    /// Worker threads the run used.
    pub workers: usize,
    /// Run seed that parameterized the traffic.
    pub run_seed: u64,
    /// Every object the planner stamped a decision on.
    pub rows: Vec<ObjectAudit>,
    /// Rows with both a positive prediction and a measurement.
    pub audited: usize,
    /// Mean absolute percentage error over the audited rows.
    pub mape_pct: f64,
    /// Percentage of audited rows whose measured saving is positive.
    pub sign_agreement_pct: f64,
    /// Physical migrations the run performed.
    pub migrations: u64,
    /// Wall-clock time of the run, ns.
    pub wall_ns: f64,
    /// Latency-histogram digests from the run's flight recorder
    /// (task_ns, gate_wait_ns, steal_ns, mig_chunk_ns — empty keys are
    /// omitted).
    pub hists: Vec<(String, HistSummary)>,
}

/// Result of the observability self-overhead probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOverhead {
    /// Best-of-reps wall time with observability off, ns.
    pub off_wall_ns: f64,
    /// Best-of-reps wall time with emitter + metrics + recorder on, ns.
    pub on_wall_ns: f64,
    /// `(on − off) / off`, as a percentage, floored at 0.
    pub overhead_pct: f64,
    /// Repetitions per side.
    pub reps: u32,
}

impl MeasuredRuntime {
    /// Run the parallel measured Tahoe policy and score the cost model's
    /// placement predictions against measured per-access wall-clock
    /// deltas. Fails if the run's checksum diverges from the sequential
    /// reference (an audit of a wrong run is worthless).
    pub fn run_model_audit(
        &self,
        app: &App,
        cal: &WallClockCalibration,
        workers: usize,
        run_seed: u64,
    ) -> Result<ModelAudit, String> {
        let policy = PolicyKind::tahoe();
        // The plan (chosen set + per-object predicted values) from the
        // same preparation path the run will take.
        let spare_core = crate::measured::migrator_has_a_core(workers);
        let prepared = self.prepare(app, &policy, cal, workers, spare_core)?;
        // Planned into DRAM at some point: a rotated object — resident
        // on both tiers in steady state, the audit's best rows — ends
        // the run on NVM.
        let chosen = prepared.plan.planned_onto(0);
        let values = prepared
            .plan_values
            .clone()
            .ok_or("tahoe preparation must produce plan values")?;
        drop(prepared);

        let mut accesses = vec![0u64; app.objects.len()];
        for t in app.graph.tasks() {
            for a in &t.accesses {
                accesses[a.object.index()] += 1;
            }
        }

        // Run with metrics (and therefore the flight recorder) on, so
        // the audit artifact carries the latency digests.
        let metrics = Metrics::enabled();
        let rt = self
            .clone()
            .with_observability(self.emitter.clone(), metrics.clone());
        let report = rt.run_policy_parallel(app, &policy, cal, workers, run_seed)?;
        let expect = reference_checksum_seeded(app, run_seed);
        if report.checksum != expect {
            return Err(format!(
                "audit run checksum {:#x} diverged from reference {:#x}",
                report.checksum, expect
            ));
        }

        let mut rows = Vec::new();
        let mut ape_sum = 0.0;
        let mut signs = 0usize;
        let mut audited = 0usize;
        for (i, spec) in app.objects.iter().enumerate() {
            let predicted_total = values[i];
            if !chosen[i] && predicted_total <= 0.0 {
                continue;
            }
            let predicted = if accesses[i] > 0 {
                predicted_total / accesses[i] as f64
            } else {
                0.0
            };
            let measured = report.access_timing[i].measured_saving_ns();
            let (ape_pct, sign_agrees) = match measured {
                Some(meas) if predicted > 0.0 => {
                    let ape = (predicted - meas).abs() / meas.abs().max(1.0) * 100.0;
                    audited += 1;
                    ape_sum += ape;
                    if meas > 0.0 {
                        signs += 1;
                    }
                    (Some(ape), Some(meas > 0.0))
                }
                _ => (None, None),
            };
            rows.push(ObjectAudit {
                object: i as u32,
                name: spec.name.clone(),
                bytes: spec.size,
                chosen: chosen[i],
                accesses: accesses[i],
                predicted_saving_ns: predicted,
                measured_saving_ns: measured,
                ape_pct,
                sign_agrees,
            });
        }

        let hists = metrics
            .snapshot()
            .histograms
            .into_iter()
            .filter(|(_, s)| s.count > 0)
            .collect();
        Ok(ModelAudit {
            policy: report.policy,
            workers: report.workers,
            run_seed,
            rows,
            audited,
            mape_pct: if audited > 0 {
                ape_sum / audited as f64
            } else {
                0.0
            },
            sign_agreement_pct: if audited > 0 {
                signs as f64 / audited as f64 * 100.0
            } else {
                0.0
            },
            migrations: report.migrations,
            wall_ns: report.wall_ns,
            hists,
        })
    }

    /// Measure the flight recorder's self-overhead: the same seeded
    /// parallel Tahoe run with observability fully off vs fully on
    /// (buffered emitter + metrics + recorder), `reps` times each,
    /// comparing best-of-reps wall time. Best-of is the standard
    /// noise-rejection for short wall-clock probes.
    pub fn probe_obs_overhead(
        &self,
        app: &App,
        cal: &WallClockCalibration,
        workers: usize,
        run_seed: u64,
        reps: u32,
    ) -> Result<ObsOverhead, String> {
        let reps = reps.max(1);
        let policy = PolicyKind::tahoe();
        let off_rt = self
            .clone()
            .with_observability(Emitter::disabled(), Metrics::disabled());
        let (on_emitter, on_buffer) = Emitter::buffered();
        let on_rt = self
            .clone()
            .with_observability(on_emitter, Metrics::enabled());

        let mut best_off = f64::INFINITY;
        let mut best_on = f64::INFINITY;
        for _ in 0..reps {
            let off = off_rt.run_policy_parallel(app, &policy, cal, workers, run_seed)?;
            best_off = best_off.min(off.wall_ns);
            let on = on_rt.run_policy_parallel(app, &policy, cal, workers, run_seed)?;
            best_on = best_on.min(on.wall_ns);
            // Keep the buffer from growing across reps; the recording
            // cost (ring pushes, drain, append) is still paid in full
            // inside the timed region.
            let _ = on_buffer.drain();
        }
        Ok(ObsOverhead {
            off_wall_ns: best_off,
            on_wall_ns: best_on,
            overhead_pct: ((best_on - best_off) / best_off * 100.0).max(0.0),
            reps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::config::Platform;
    use tahoe_memprof::wallclock::WallClockConfig;

    fn stream_app(blocks: u32, block_bytes: u64, windows: u32) -> crate::app::App {
        let mut b = AppBuilder::new("audit-test");
        let a: Vec<_> = (0..blocks)
            .map(|i| b.object(&format!("a{i}"), block_bytes))
            .collect();
        let bb: Vec<_> = (0..blocks)
            .map(|i| b.object(&format!("b{i}"), block_bytes))
            .collect();
        let c = b.class("triad");
        for w in 0..windows {
            if w > 0 {
                b.next_window();
            }
            for i in 0..blocks as usize {
                b.task(c)
                    .read_streaming(bb[i], 64)
                    .update_streaming(a[i], 64)
                    .submit();
            }
        }
        b.build()
    }

    fn runtime() -> MeasuredRuntime {
        MeasuredRuntime::new(Platform::optane(1 << 22, 1 << 24), WallClockConfig::smoke())
    }

    #[test]
    fn audit_pairs_predictions_with_measurements() {
        let app = stream_app(4, 32 << 10, 5);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 3, 4 * footprint);
        // A promoted object is auditable once it was accessed on both
        // tiers, i.e. the migration thread got a core before the last
        // window. On a harness running sibling tests on every core one
        // short run can miss that; several in a row cannot.
        let audit = (0..5)
            .map(|_| {
                let audit = runtime()
                    .run_model_audit(&app, &cal, 2, 11)
                    .expect("audit run");
                assert!(audit.migrations > 0, "tahoe must migrate under pressure");
                assert!(!audit.rows.is_empty());
                audit
            })
            .find(|audit| audit.audited >= 1)
            .expect("chosen objects must be auditable");
        // Audited rows are exactly the ones with both sides present.
        for row in &audit.rows {
            assert_eq!(row.ape_pct.is_some(), row.sign_agrees.is_some());
            if row.ape_pct.is_some() {
                assert!(row.predicted_saving_ns > 0.0);
                assert!(row.measured_saving_ns.is_some());
            }
        }
        assert!(audit.mape_pct.is_finite() && audit.mape_pct >= 0.0);
        assert!((0.0..=100.0).contains(&audit.sign_agreement_pct));
        // The run's latency digests ride along.
        assert!(
            audit.hists.iter().any(|(k, _)| k == "task_ns"),
            "task_ns digest present, got {:?}",
            audit.hists.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }

    #[test]
    fn audit_is_deterministic_in_its_pairing() {
        let app = stream_app(3, 16 << 10, 4);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 3, 4 * footprint);
        let rt = runtime();
        let a = rt.run_model_audit(&app, &cal, 2, 5).expect("audit a");
        let b = rt.run_model_audit(&app, &cal, 2, 5).expect("audit b");
        // Predictions and the chosen set are pure functions of the app
        // and calibration; only the measured side carries noise.
        let pa: Vec<_> = a
            .rows
            .iter()
            .map(|r| (r.object, r.chosen, r.predicted_saving_ns))
            .collect();
        let pb: Vec<_> = b
            .rows
            .iter()
            .map(|r| (r.object, r.chosen, r.predicted_saving_ns))
            .collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn overhead_probe_reports_sane_numbers() {
        let app = stream_app(3, 16 << 10, 3);
        let footprint = app.footprint();
        let cal = WallClockCalibration::synthetic(footprint / 3, 4 * footprint);
        let probe = runtime()
            .probe_obs_overhead(&app, &cal, 2, 0, 2)
            .expect("probe");
        assert!(probe.off_wall_ns > 0.0);
        assert!(probe.on_wall_ns > 0.0);
        assert!(probe.overhead_pct >= 0.0);
        assert_eq!(probe.reps, 2);
    }
}
