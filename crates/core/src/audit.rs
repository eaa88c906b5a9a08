//! Model-accuracy audit: the cost model's placement predictions against
//! the wall clock of the run they placed.
//!
//! The Tahoe planner earns its migrations with *predictions*: per-object
//! knapsack values derived from the analytic cost model on the fitted
//! tier specs. An observed wall-clock run (a
//! [`MeasuredRuntime`](crate::measured::MeasuredRuntime) with an emitter
//! or metrics attached) stamps one
//! [`Event::PlacementDecision`] per object the planner priced — chosen,
//! or with a positive predicted benefit — and every run times each
//! access per (object, tier) ([`AccessTierTiming`]). [`ModelAudit::new`]
//! pairs the two, running nothing of its own: per object, the predicted
//! per-access saving against the *measured* per-access wall-clock delta
//! between the object's NVM and DRAM residence phases, plus two
//! aggregates:
//!
//! * **median APE** — the median absolute percentage error of predicted
//!   vs measured per-access saving over the audited objects. One object
//!   whose few DRAM accesses caught a descheduling can read an APE in
//!   the tens of thousands of percent; it cannot move a median past its
//!   neighbours;
//! * **sign agreement** — the fraction of audited objects where the
//!   measured saving is actually positive (the model predicted a benefit
//!   and a benefit materialized). Sign agreement is the property the
//!   knapsack's *ranking* depends on; the median APE bounds the
//!   magnitude error.
//!
//! Only Tahoe's *chosen* objects are auditable: Tahoe starts everything
//! on NVM and promotes the chosen set once every task class has run
//! its quota of instances, so exactly those objects can accumulate
//! access samples on both tiers.

use tahoe_obs::Event;

use crate::app::App;
use crate::parallel::AccessTierTiming;

/// One object's predicted-vs-measured row in the audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectAudit {
    /// App object index.
    pub object: u32,
    /// Object name (from the app).
    pub name: String,
    /// Object size in bytes.
    pub bytes: u64,
    /// Whether the plan moves the object into DRAM at some point.
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

/// The audit of one observed run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAudit {
    /// One row per object the planner stamped a decision on, in object
    /// order.
    pub rows: Vec<ObjectAudit>,
    /// Rows with both a positive prediction and a measurement.
    pub audited: usize,
    /// Median absolute percentage error over the audited rows (0 when
    /// none is audited).
    pub median_ape_pct: f64,
    /// Percentage of audited rows whose measured saving is positive.
    pub sign_agreement_pct: f64,
}

impl ModelAudit {
    /// Pair the `PlacementDecision`s among one run's `events` with that
    /// run's `access_timing` (its report's, indexed like `app.objects`).
    /// A run with no decisions — unobserved, or not Tahoe — audits
    /// nothing.
    pub fn new(app: &App, access_timing: &[AccessTierTiming], events: &[Event]) -> ModelAudit {
        let mut decisions = vec![None; app.objects.len()];
        for e in events {
            if let Event::PlacementDecision {
                object,
                predicted_benefit_ns,
                chosen,
                ..
            } = *e
            {
                if let Some(d) = decisions.get_mut(object as usize) {
                    *d = Some((predicted_benefit_ns, chosen));
                }
            }
        }
        let mut accesses = vec![0u64; app.objects.len()];
        for t in app.graph.tasks() {
            for a in &t.accesses {
                accesses[a.object.index()] += 1;
            }
        }

        let rows: Vec<ObjectAudit> = app
            .objects
            .iter()
            .enumerate()
            .filter_map(|(i, spec)| {
                let (predicted_total, chosen) = decisions[i]?;
                let predicted = if accesses[i] > 0 {
                    predicted_total / accesses[i] as f64
                } else {
                    0.0
                };
                let measured = access_timing
                    .get(i)
                    .and_then(AccessTierTiming::measured_saving_ns);
                let paired = measured.filter(|_| predicted > 0.0);
                Some(ObjectAudit {
                    object: i as u32,
                    name: spec.name.clone(),
                    bytes: spec.size,
                    chosen,
                    accesses: accesses[i],
                    predicted_saving_ns: predicted,
                    measured_saving_ns: measured,
                    ape_pct: paired.map(|m| (predicted - m).abs() / m.abs().max(1.0) * 100.0),
                    sign_agrees: paired.map(|m| m > 0.0),
                })
            })
            .collect();

        let mut apes: Vec<f64> = rows.iter().filter_map(|r| r.ape_pct).collect();
        apes.sort_by(f64::total_cmp);
        let audited = apes.len();
        let median_ape_pct = match audited {
            0 => 0.0,
            n if n % 2 == 1 => apes[n / 2],
            n => (apes[n / 2 - 1] + apes[n / 2]) / 2.0,
        };
        let signs = rows.iter().filter(|r| r.sign_agrees == Some(true)).count();
        ModelAudit {
            rows,
            audited,
            median_ape_pct,
            sign_agreement_pct: if audited > 0 {
                signs as f64 / audited as f64 * 100.0
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;

    fn stream_app(blocks: u32, block_bytes: u64, windows: u32) -> App {
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

    fn decision(object: u32, predicted_benefit_ns: f64, chosen: bool) -> Event {
        Event::PlacementDecision {
            t: 0.0,
            object,
            bytes: 4096,
            predicted_benefit_ns,
            chosen,
        }
    }

    /// `nvm` ns per NVM access and `dram` per DRAM access, ten of each.
    fn timed(nvm: f64, dram: f64) -> AccessTierTiming {
        AccessTierTiming {
            dram_ns: 10.0 * dram,
            dram_samples: 10,
            nvm_ns: 10.0 * nvm,
            nvm_samples: 10,
        }
    }

    /// Each of the four `a` blocks is accessed once per window, so over
    /// two windows a predicted total of 200 ns is 100 ns per access.
    #[test]
    fn audit_pairs_predictions_with_measurements() {
        let app = stream_app(4, 4096, 2);
        let mut timing = vec![AccessTierTiming::default(); app.objects.len()];
        // Measured savings 100, 80, 1 and −50 ns per access.
        timing[0] = timed(150.0, 50.0);
        timing[1] = timed(130.0, 50.0);
        timing[2] = timed(51.0, 50.0);
        timing[3] = timed(50.0, 100.0);
        // Object 4 only ran on NVM; object 5 has no decision.
        timing[4].nvm_samples = 3;
        timing[5] = timed(150.0, 50.0);
        let events: Vec<Event> = (0..5).map(|i| decision(i, 200.0, true)).collect();

        let audit = ModelAudit::new(&app, &timing, &events);
        let objects: Vec<u32> = audit.rows.iter().map(|r| r.object).collect();
        assert_eq!(objects, [0, 1, 2, 3, 4], "one row per decision");
        assert!(audit.rows.iter().all(|r| r.predicted_saving_ns == 100.0));
        // APEs 0, 25, 9 900 and 300 %: the outlier moves the mean to
        // 2 556 % but the median only to (25 + 300) / 2.
        assert_eq!(audit.audited, 4);
        assert_eq!(audit.median_ape_pct, 162.5);
        assert_eq!(audit.sign_agreement_pct, 75.0);
        let unpaired = &audit.rows[4];
        assert_eq!(
            (
                unpaired.measured_saving_ns,
                unpaired.ape_pct,
                unpaired.sign_agrees
            ),
            (None, None, None)
        );
        // Audited rows are exactly the ones with both sides present.
        for row in &audit.rows {
            assert_eq!(row.ape_pct.is_some(), row.sign_agrees.is_some());
        }
        // No decisions, nothing audited.
        let empty = ModelAudit::new(&app, &timing, &[]);
        assert_eq!((empty.rows.len(), empty.audited), (0, 0));
        assert_eq!(empty.median_ape_pct, 0.0);
    }

    /// The audit is keyed by object, not by stream position: the merged
    /// recorder stream interleaves the driver lane's decisions with
    /// every other lane's events, in timestamp order.
    #[test]
    fn audit_is_deterministic_in_its_pairing() {
        let app = stream_app(3, 4096, 2);
        let timing: Vec<_> = (0..app.objects.len())
            .map(|i| timed(100.0 + 10.0 * i as f64, 50.0))
            .collect();
        let decisions: Vec<Event> = (0..4)
            .map(|i| decision(i, 150.0 * (i + 1) as f64, i < 3))
            .collect();
        let audit = ModelAudit::new(&app, &timing, &decisions);
        assert_eq!(audit.rows.len(), 4);
        assert!(!audit.rows[3].chosen, "priced but not chosen is a row too");

        let task = Event::WorkerTask {
            t: 1.0,
            tenant: 0,
            worker: 1,
            task: 0,
            window: 0,
            wall_ns: 10.0,
            gate_wait_ns: 0.0,
        };
        let mut shuffled: Vec<Event> = decisions.iter().rev().cloned().collect();
        shuffled.insert(2, task);
        assert_eq!(ModelAudit::new(&app, &timing, &shuffled), audit);
    }
}
