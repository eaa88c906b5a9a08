//! Metrics registry: monotonic counters, gauges and latency histograms,
//! keyed by `&'static str` names.
//!
//! Same enable/disable shape as [`crate::emit::Emitter`]: a disabled
//! registry is a `None` and every call is one branch. Keys are static
//! strings agreed on by the instrumented crates (see the README's metric
//! table — e.g. the lock-free `SharedHms` contention family
//! `hms.pin_cas_retries` / `hms.parks` / `hms.unparks` /
//! `hms.move_waits` added by the parallel measured runtime); storage is
//! `BTreeMap` so snapshots iterate in a deterministic order without a
//! sort pass.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::{HistData, HistSummary};

#[derive(Debug, Default)]
struct MetricsShared {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    hists: Mutex<BTreeMap<&'static str, HistData>>,
}

/// Clonable metrics handle shared across the instrumented crates.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    shared: Option<Arc<MetricsShared>>,
}

impl Metrics {
    /// A registry that records nothing (one branch per call site).
    pub fn disabled() -> Self {
        Metrics { shared: None }
    }

    /// A live registry.
    pub fn enabled() -> Self {
        Metrics {
            shared: Some(Arc::new(MetricsShared::default())),
        }
    }

    /// Whether values are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Increment a monotonic counter by one.
    #[inline]
    pub fn inc(&self, key: &'static str) {
        self.add(key, 1);
    }

    /// Increment a monotonic counter by `n`.
    #[inline]
    pub fn add(&self, key: &'static str, n: u64) {
        if let Some(shared) = &self.shared {
            *shared
                .counters
                .lock()
                .expect("metrics counters poisoned")
                .entry(key)
                .or_insert(0) += n;
        }
    }

    /// Set a gauge to an absolute value.
    #[inline]
    pub fn gauge_set(&self, key: &'static str, value: f64) {
        if let Some(shared) = &self.shared {
            shared
                .gauges
                .lock()
                .expect("metrics gauges poisoned")
                .insert(key, value);
        }
    }

    /// Add a delta to a gauge (missing gauges start at zero).
    #[inline]
    pub fn gauge_add(&self, key: &'static str, delta: f64) {
        if let Some(shared) = &self.shared {
            *shared
                .gauges
                .lock()
                .expect("metrics gauges poisoned")
                .entry(key)
                .or_insert(0.0) += delta;
        }
    }

    /// Fold a pre-merged histogram snapshot (e.g. a flight-recorder
    /// drain) into a named histogram. Bucket-wise addition, so fold order
    /// never changes the result.
    pub fn hist_fold(&self, key: &'static str, data: &HistData) {
        if let Some(shared) = &self.shared {
            shared
                .hists
                .lock()
                .expect("metrics hists poisoned")
                .entry(key)
                .or_default()
                .merge(data);
        }
    }

    /// Snapshot every recorded value. A disabled registry snapshots empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.shared {
            None => MetricsSnapshot::default(),
            Some(shared) => MetricsSnapshot {
                counters: shared
                    .counters
                    .lock()
                    .expect("metrics counters poisoned")
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
                gauges: shared
                    .gauges
                    .lock()
                    .expect("metrics gauges poisoned")
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
                histograms: shared
                    .hists
                    .lock()
                    .expect("metrics hists poisoned")
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.summary()))
                    .collect(),
            },
        }
    }
}

/// A point-in-time copy of a [`Metrics`] registry, sorted by key.
///
/// Embedded in run reports; `Default` (all empty) is what unobserved runs
/// carry, so reports stay cheap when nothing was recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Latency-histogram digests (p50/p90/p99/max), sorted by name.
    pub histograms: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Look up a counter by name.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Look up a histogram digest by name.
    pub fn histogram(&self, key: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Deterministic JSON rendering (keys already sorted, fields in fixed
    /// order) — this is the machine-diffable artifact CI archives.
    pub fn to_json(&self) -> String {
        crate::json::object(|w| {
            let mut counters = w.object("counters");
            for (k, v) in &self.counters {
                counters.field(k, v);
            }
            drop(counters);
            let mut gauges = w.object("gauges");
            for (k, v) in &self.gauges {
                gauges.field(k, v);
            }
            drop(gauges);
            let mut hists = w.object("histograms");
            for (k, s) in &self.histograms {
                hists
                    .object(k.as_str())
                    .field("count", s.count)
                    .field("p50", s.p50)
                    .field("p90", s.p90)
                    .field("p99", s.p99)
                    .field("max", s.max);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled();
        m.inc("a");
        m.gauge_set("b", 1.0);
        assert!(!m.is_enabled());
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::enabled();
        m.inc("migrations");
        m.add("migrations", 2);
        m.add("bytes", 4096);
        let snap = m.snapshot();
        assert_eq!(snap.counter("migrations"), Some(3));
        assert_eq!(snap.counter("bytes"), Some(4096));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauges_set_and_add() {
        let m = Metrics::enabled();
        m.gauge_set("occ", 0.5);
        m.gauge_set("occ", 0.75);
        m.gauge_add("delta", 1.0);
        m.gauge_add("delta", 0.5);
        let snap = m.snapshot();
        assert_eq!(snap.gauge("occ"), Some(0.75));
        assert_eq!(snap.gauge("delta"), Some(1.5));
    }

    #[test]
    fn clones_share_storage() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m.inc("x");
        m2.inc("x");
        assert_eq!(m.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn snapshot_keys_sorted_and_json_deterministic() {
        let m = Metrics::enabled();
        m.inc("zeta");
        m.inc("alpha");
        m.gauge_set("g", 2.5);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        assert_eq!(snap.counters[1].0, "zeta");
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{\"alpha\":1,\"zeta\":1},\"gauges\":{\"g\":2.5},\"histograms\":{}}"
        );
        assert_eq!(snap.to_json(), m.snapshot().to_json());
    }

    #[test]
    fn snapshot_json_is_pinned() {
        let m = Metrics::enabled();
        m.add("realmem.migrations", 34);
        m.inc("obs.ring_dropped");
        m.gauge_set("core.overlap_pct", 91.25);
        m.gauge_set("hms.balance", -1.5);
        let mut h = HistData::default();
        h.record(100.0);
        h.record(10_000.0);
        m.hist_fold("task_ns", &h);
        assert_eq!(
            m.snapshot().to_json(),
            "{\"counters\":{\"obs.ring_dropped\":1,\"realmem.migrations\":34},\
             \"gauges\":{\"core.overlap_pct\":91.25,\"hms.balance\":-1.5},\
             \"histograms\":{\"task_ns\":{\"count\":2,\"p50\":96,\"p90\":10000,\"p99\":10000,\"max\":10000}}}"
        );
    }

    #[test]
    fn empty_snapshot_json() {
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn histograms_record_fold_and_export() {
        let m = Metrics::enabled();
        let mut lane = HistData::default();
        lane.record(100.0);
        lane.record(100.0);
        m.hist_fold("task_ns", &lane);
        let mut extra = HistData::default();
        extra.record(10_000.0);
        m.hist_fold("task_ns", &extra);
        let snap = m.snapshot();
        let s = snap.histogram("task_ns").expect("histogram recorded");
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 10_000.0);
        assert_eq!(snap.histogram("missing"), None);
        assert!(!snap.is_empty());
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{\
             \"task_ns\":{\"count\":3,\"p50\":96,\"p90\":10000,\"p99\":10000,\"max\":10000}}}"
        );
        // Disabled registries ignore histogram calls too.
        let d = Metrics::disabled();
        d.hist_fold("task_ns", &extra);
        assert!(d.snapshot().is_empty());
    }
}
