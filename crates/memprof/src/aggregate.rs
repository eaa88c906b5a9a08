//! The profile database: per-(task class × data object) statistics.
//!
//! A task-parallel run creates thousands of task instances but only a
//! handful of task *classes*. The paper profiles the first few instances
//! of each class and reuses the averaged profile for every later
//! instance. `ProfileDb` is that store.

use std::collections::HashMap;

use tahoe_hms::{Ns, ObjectId};
use tahoe_taskrt::TaskClassId;

use crate::sampler::SampledObservation;

/// Accumulated observations for one (class, object) pair.
#[derive(Debug, Clone, Default, PartialEq)]
struct Acc {
    sum_loads: f64,
    sum_stores: f64,
    sum_active_ns: f64,
    /// Access-weighted concurrency numerator (Σ concurrency × accesses).
    sum_conc_weighted: f64,
    sum_accesses: f64,
    instances: u32,
}

/// Averaged per-(class, object) statistics handed to the models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjClassStats {
    /// Mean estimated cache-line loads per task instance.
    pub mean_loads: f64,
    /// Mean estimated cache-line stores per task instance.
    pub mean_stores: f64,
    /// Mean estimated active (memory-occupied) time per instance, ns.
    pub mean_active_ns: Ns,
    /// Access-weighted mean concurrency of the traffic (≥ 1).
    pub mean_concurrency: f64,
    /// Number of instances folded in.
    pub instances: u32,
}

/// Profile store keyed by (task class, data object).
#[derive(Debug, Default)]
pub struct ProfileDb {
    map: HashMap<(TaskClassId, ObjectId), Acc>,
    class_instances: HashMap<TaskClassId, u32>,
}

impl ProfileDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that one more instance of `class` has been profiled (called
    /// once per task, independent of how many objects it touches).
    pub fn record_instance(&mut self, class: TaskClassId) {
        *self.class_instances.entry(class).or_insert(0) += 1;
    }

    /// Fold one observation of `class` touching `object` into the store.
    pub fn record(&mut self, class: TaskClassId, object: ObjectId, obs: &SampledObservation) {
        let acc = self.map.entry((class, object)).or_default();
        acc.sum_loads += obs.est_loads;
        acc.sum_stores += obs.est_stores;
        acc.sum_active_ns += obs.est_active_ns;
        acc.sum_conc_weighted += obs.est_concurrency * obs.est_accesses();
        acc.sum_accesses += obs.est_accesses();
        acc.instances += 1;
    }

    /// Averaged stats for `(class, object)`, if any instance was seen.
    pub fn get(&self, class: TaskClassId, object: ObjectId) -> Option<ObjClassStats> {
        self.map.get(&(class, object)).map(|acc| {
            let n = acc.instances as f64;
            ObjClassStats {
                mean_loads: acc.sum_loads / n,
                mean_stores: acc.sum_stores / n,
                mean_active_ns: acc.sum_active_ns / n,
                mean_concurrency: if acc.sum_accesses > 0.0 {
                    (acc.sum_conc_weighted / acc.sum_accesses).max(1.0)
                } else {
                    1.0
                },
                instances: acc.instances,
            }
        })
    }

    /// Number of profiled instances of `class`.
    pub fn instances_of(&self, class: TaskClassId) -> u32 {
        self.class_instances.get(&class).copied().unwrap_or(0)
    }

    /// Whether `class` has been profiled at least `min_instances` times
    /// (the paper profiles a few instances per class, then stops).
    pub fn is_profiled(&self, class: TaskClassId, min_instances: u32) -> bool {
        self.instances_of(class) >= min_instances
    }

    /// Every object with any recorded traffic, ascending.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.map.keys().map(|&(_, o)| o).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Every (class, object) pair recorded, sorted.
    pub fn pairs(&self) -> Vec<(TaskClassId, ObjectId)> {
        let mut v: Vec<(TaskClassId, ObjectId)> = self.map.keys().copied().collect();
        v.sort();
        v
    }

    /// Clear everything (re-profiling after workload variation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.class_instances.clear();
    }

    /// Number of (class, object) entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(loads: f64, stores: f64, active: f64) -> SampledObservation {
        SampledObservation {
            est_loads: loads,
            est_stores: stores,
            est_active_ns: active,
            est_concurrency: 4.0,
            samples: 1,
        }
    }

    const C: TaskClassId = TaskClassId(0);
    const D: TaskClassId = TaskClassId(1);
    const O: ObjectId = ObjectId(0);
    const P: ObjectId = ObjectId(1);

    #[test]
    fn averages_over_instances() {
        let mut db = ProfileDb::new();
        db.record(C, O, &obs(100.0, 50.0, 1000.0));
        db.record(C, O, &obs(300.0, 150.0, 3000.0));
        let s = db.get(C, O).unwrap();
        assert_eq!(s.instances, 2);
        assert!((s.mean_loads - 200.0).abs() < 1e-12);
        assert!((s.mean_stores - 100.0).abs() < 1e-12);
        assert!((s.mean_active_ns - 2000.0).abs() < 1e-12);
    }

    #[test]
    fn pairs_are_independent() {
        let mut db = ProfileDb::new();
        db.record(C, O, &obs(10.0, 0.0, 10.0));
        db.record(C, P, &obs(20.0, 0.0, 10.0));
        db.record(D, O, &obs(30.0, 0.0, 10.0));
        assert_eq!(db.len(), 3);
        assert!((db.get(C, P).unwrap().mean_loads - 20.0).abs() < 1e-12);
        assert!((db.get(D, O).unwrap().mean_loads - 30.0).abs() < 1e-12);
        assert!(db.get(D, P).is_none());
        assert_eq!(db.objects(), vec![O, P]);
    }

    #[test]
    fn instance_counting_gates_profiling() {
        let mut db = ProfileDb::new();
        assert!(!db.is_profiled(C, 2));
        db.record_instance(C);
        assert!(!db.is_profiled(C, 2));
        db.record_instance(C);
        assert!(db.is_profiled(C, 2));
        assert_eq!(db.instances_of(C), 2);
        assert_eq!(db.instances_of(D), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut db = ProfileDb::new();
        db.record(C, O, &obs(1.0, 1.0, 1.0));
        db.record_instance(C);
        db.clear();
        assert!(db.is_empty());
        assert_eq!(db.instances_of(C), 0);
    }
}
