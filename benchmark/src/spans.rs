//! The benchmark's own spans: one around every call into a layer, kept
//! in memory and written out at exit. A layer's self time is its span
//! minus the part of it its children cover; the share of the traced wall
//! no top-level span covers is `trace.untiled_share`.

use std::time::Instant;

use crate::json::J;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (a round, a graph) share this.
    pub run_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Single-threaded span recorder with a parent stack. Threads that need
/// their own spans record into a [`Tracer::fork`] and are merged back
/// with [`Tracer::adopt`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Wall time since the tracer (or the one it was forked from) was
    /// created, ns: the clock every span is stamped with.
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, run_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.wall_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run_id,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span (and any span opened inside it and left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.wall_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, run_id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name, run_id);
        let r = f(self);
        self.end(id);
        r
    }

    /// A recorder for another thread: same clock, empty span list. Its
    /// top-level spans become children of this tracer's innermost open
    /// span when adopted.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Merge a forked recorder's spans under the innermost open span.
    pub fn adopt(&mut self, child: Tracer) {
        let base = self.spans.len();
        let under = self.stack.last().copied();
        for mut s in child.spans {
            s.parent = s.parent.map(|p| p + base).or(under);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals` (they may overlap: client
/// threads run concurrently under one parent).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                kids[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| s.dur_ns() - union_ns(k))
        .collect()
}

/// Share of `wall_ns` that no top-level span covers.
pub fn untiled_share(spans: &[Span], wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    let mut tops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns.min(wall_ns)))
        .collect();
    1.0 - union_ns(&mut tops) as f64 / wall_ns as f64
}

/// Self time summed by span name, ns, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64, usize)> {
    let selfs = self_times(spans);
    let mut by: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    for (s, t) in spans.iter().zip(selfs) {
        let e = by.entry(&s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    let mut v: Vec<(String, u64, usize)> = by
        .into_iter()
        .map(|(k, (t, n))| (k.to_string(), t, n))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// `trace.json`: every span plus the per-name self-time table.
pub fn to_json(spans: &[Span], wall_ns: u64) -> J {
    let span_rows = spans
        .iter()
        .map(|s| {
            J::obj([
                ("name", J::str(&s.name)),
                ("start_ns", J::num(s.start_ns as f64)),
                ("end_ns", J::num(s.end_ns as f64)),
                ("parent", s.parent.map_or(J::Null, |p| J::num(p as f64))),
                ("run_id", J::num(s.run_id as f64)),
            ])
        })
        .collect();
    let self_rows = self_time_by_name(spans)
        .into_iter()
        .map(|(name, ns, n)| {
            J::obj([
                ("name", J::str(&name)),
                ("self_ms", J::num(ns as f64 / 1e6)),
                ("spans", J::num(n as f64)),
            ])
        })
        .collect();
    J::obj([
        ("wall_ns", J::num(wall_ns as f64)),
        ("untiled_share", J::num(untiled_share(spans, wall_ns))),
        ("self_time", J::Arr(self_rows)),
        ("spans", J::Arr(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: s,
            end_ns: e,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(&mut [(3, 4), (0, 10)]), 10);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Two concurrent grandchildren-free children overlapping.
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        // root: 100 - union([10,40],[30,60]) = 100 - 50.
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
        let by = self_time_by_name(&spans);
        assert_eq!(by[0], ("root".to_string(), 50, 1));
        assert_eq!(by.iter().map(|r| r.1).sum::<u64>(), 110);
    }

    #[test]
    fn tiling_counts_only_top_level_coverage() {
        let spans = vec![
            span("setup", 0, 40, None),
            span("child", 5, 10, Some(0)),
            span("rounds", 50, 100, None),
        ];
        assert!((untiled_share(&spans, 100) - 0.10).abs() < 1e-12);
        assert_eq!(untiled_share(&[], 0), 0.0);
        assert_eq!(untiled_share(&[], 10), 1.0);
    }

    #[test]
    fn tracer_nests_forks_and_is_free_when_off() {
        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let mut child = t.fork();
        child.scope("thread", 8, |c| c.scope("inner", 8, |_| ()));
        t.scope("mid", 7, |_| ());
        t.adopt(child);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].name, "mid");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].name.as_str(), s[2].parent), ("thread", Some(0)));
        assert_eq!((s[3].name.as_str(), s[3].parent), ("inner", Some(2)));
        assert!(s[0].end_ns >= s[3].end_ns);
        assert_eq!(s[2].run_id, 8);
    }
}
