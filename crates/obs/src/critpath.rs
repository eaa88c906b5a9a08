//! Critical-path reconstruction over the merged flight-recorder stream.
//!
//! The parallel measured runtime emits one [`Event::WorkerTask`] span per
//! executed task (finish-stamped, with its wall time and the gate wait at
//! the span's head) and one [`Event::MigrationIssued`] span per committed
//! background copy. From that deterministic merged stream this module
//! rebuilds the run's **critical path**: the longest chain of
//! mutually-ordered task spans, walked backward from the last finish,
//! with each chain link classified as *compute* (the task's kernels),
//! *stall* (the gate wait at its head, blamed on the in-flight migration
//! that unblocked it) or *idle* (a gap between one link's start and its
//! predecessor's finish — dependency or scheduler latency the chain
//! exposes).
//!
//! The invariants the smoke bench gates on: the chain's segments tile the
//! interval they cover exactly (`compute + stall + idle == last − first`
//! by construction), and the chain reaches back to the start of
//! execution instead of bottoming out early. It stops at a task that
//! every other span overlaps, so it can miss only the earliest task's
//! head start (thread start-up skew): the observed span (first task
//! start → last task finish) exceeds the chain by less than that task's
//! length, and so by less than the longest task's.

use crate::blame::BlameTable;
use crate::event::{Event, Ns};

/// What a critical-path segment spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A task's kernels were running on the chain.
    Compute,
    /// The chain's task sat in the data gate waiting for a migration.
    Stall,
    /// Gap between a chain task's start and its predecessor's finish.
    Idle,
}

/// One segment of the reconstructed critical path (chronological).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Classification of the time.
    pub kind: SegmentKind,
    /// Segment start, wall ns since the run's epoch.
    pub start: Ns,
    /// Segment end, wall ns since the run's epoch.
    pub end: Ns,
    /// Worker that ran the task (`u32::MAX` for idle segments).
    pub worker: u32,
    /// Task on the chain (`u32::MAX` for idle segments).
    pub task: u32,
    /// For stall segments: the migrating object blamed for the wait
    /// (the in-flight copy overlapping the stall, preferring the one
    /// whose finish unblocked it). `None` when no copy overlapped.
    pub object: Option<u32>,
}

/// The reconstructed critical path of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CritPath {
    /// Chain segments in chronological order; they tile
    /// `[first_ns, last_ns]` without gaps or overlap.
    pub segments: Vec<Segment>,
    /// Start of the chain (first chain task's start).
    pub first_ns: Ns,
    /// End of the chain (last task finish in the stream).
    pub last_ns: Ns,
    /// Earliest task start observed anywhere (`<= first_ns`).
    pub span_start_ns: Ns,
    /// Total compute ns on the chain.
    pub compute_ns: Ns,
    /// Total gate-wait ns on the chain.
    pub stall_ns: Ns,
    /// Total gap ns on the chain.
    pub idle_ns: Ns,
    /// Task spans on the chain.
    pub tasks_on_path: usize,
}

impl CritPath {
    /// Chain length: `last_ns - first_ns`, which equals
    /// `compute_ns + stall_ns + idle_ns` by construction.
    pub fn total_ns(&self) -> Ns {
        (self.last_ns - self.first_ns).max(0.0)
    }

    /// Observed execution span: earliest task start to last task finish.
    pub fn span_ns(&self) -> Ns {
        (self.last_ns - self.span_start_ns).max(0.0)
    }

    /// Reconstruct the critical path from a merged event stream.
    ///
    /// Only `worker_task` and `migration_issued` events participate;
    /// everything else is ignored, so the same stream that feeds the
    /// exporters feeds this. An empty stream yields a zeroed path.
    pub fn from_events(events: &[Event]) -> CritPath {
        struct Span {
            start: Ns,
            end: Ns,
            gate: Ns,
            worker: u32,
            task: u32,
        }
        let mut spans: Vec<Span> = Vec::new();
        let mut migs: Vec<(u32, Ns, Ns)> = Vec::new(); // (object, start, finish)
        for e in events {
            match *e {
                Event::WorkerTask {
                    t,
                    worker,
                    task,
                    wall_ns,
                    gate_wait_ns,
                    ..
                } => {
                    let wall = wall_ns.max(0.0);
                    spans.push(Span {
                        start: t - wall,
                        end: t,
                        gate: gate_wait_ns.clamp(0.0, wall),
                        worker,
                        task,
                    });
                }
                Event::MigrationIssued {
                    object,
                    start,
                    finish,
                    ..
                } => migs.push((object, start, finish)),
                _ => {}
            }
        }
        if spans.is_empty() {
            return CritPath::default();
        }
        migs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let span_start_ns = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let last_ns = spans
            .iter()
            .map(|s| s.end)
            .fold(f64::NEG_INFINITY, f64::max);

        // Backward greedy chain: repeatedly pick the latest-finishing
        // span that ends at or before the cursor (the predecessor that
        // kept the chain busy longest). Sorting by end descending makes
        // this a single forward scan — a span skipped because it ends
        // after the cursor can never qualify later (the cursor only
        // moves earlier).
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by(|&a, &b| {
            spans[b]
                .end
                .total_cmp(&spans[a].end)
                .then(spans[b].start.total_cmp(&spans[a].start))
                .then(spans[a].task.cmp(&spans[b].task))
        });

        let mut path = CritPath {
            segments: Vec::new(),
            first_ns: last_ns,
            last_ns,
            span_start_ns,
            ..CritPath::default()
        };
        let mut cursor = last_ns;
        for &i in &order {
            let s = &spans[i];
            if s.end > cursor {
                continue;
            }
            if s.end < cursor {
                path.idle_ns += cursor - s.end;
                path.segments.push(Segment {
                    kind: SegmentKind::Idle,
                    start: s.end,
                    end: cursor,
                    worker: u32::MAX,
                    task: u32::MAX,
                    object: None,
                });
            }
            let gate_end = s.start + s.gate;
            if s.end > gate_end {
                path.compute_ns += s.end - gate_end;
                path.segments.push(Segment {
                    kind: SegmentKind::Compute,
                    start: gate_end,
                    end: s.end,
                    worker: s.worker,
                    task: s.task,
                    object: None,
                });
            }
            if s.gate > 0.0 {
                path.stall_ns += s.gate;
                path.segments.push(Segment {
                    kind: SegmentKind::Stall,
                    start: s.start,
                    end: gate_end,
                    worker: s.worker,
                    task: s.task,
                    object: blame_object(&migs, s.start, gate_end),
                });
            }
            cursor = s.start;
            path.first_ns = s.start;
            path.tasks_on_path += 1;
        }
        path.segments.reverse();
        path
    }
}

/// The migrating object a stall interval `[s, e]` is blamed on: prefer
/// the copy whose *finish* falls inside the stall (that finish is what
/// unblocked the gate; latest such finish wins), otherwise the
/// overlapping copy with the largest overlap. Ties break toward the
/// smallest object id so attribution is deterministic.
pub fn blame_object(migs: &[(u32, Ns, Ns)], s: Ns, e: Ns) -> Option<u32> {
    let mut unblocker: Option<(Ns, u32)> = None;
    let mut widest: Option<(Ns, u32)> = None;
    for &(object, m_start, m_finish) in migs {
        let overlap = m_finish.min(e) - m_start.max(s);
        if overlap <= 0.0 {
            continue;
        }
        if m_finish > s && m_finish <= e {
            let better = match unblocker {
                None => true,
                Some((t, o)) => m_finish > t || (m_finish == t && object < o),
            };
            if better {
                unblocker = Some((m_finish, object));
            }
        }
        let better = match widest {
            None => true,
            Some((w, o)) => overlap > w || (overlap == w && object < o),
        };
        if better {
            widest = Some((overlap, object));
        }
    }
    unblocker.or(widest).map(|(_, o)| o)
}

/// Per-run causal-profile digest embedded in run reports: critical-path
/// totals and the exposed-stall blame table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CritPathDigest {
    /// Chain length (`compute + stall + idle`).
    pub crit_total_ns: Ns,
    /// Observed execution span (first task start → last task finish).
    pub span_ns: Ns,
    /// Execution-phase wall clock stamped by the runtime (epoch →
    /// windows joined); 0 when the runtime did not fill it.
    pub exec_wall_ns: Ns,
    /// Compute ns on the chain.
    pub compute_ns: Ns,
    /// Gate-wait ns on the chain.
    pub stall_ns: Ns,
    /// Gap ns on the chain.
    pub idle_ns: Ns,
    /// Number of chain segments.
    pub segments: usize,
    /// Task spans on the chain.
    pub tasks_on_path: usize,
    /// `100 * |crit_total - span| / span` (0 when the span is empty).
    pub crit_vs_span_pct: f64,
    /// The run's exposed-stall blame table; its `pct_overlap()` must
    /// reconcile with `MigrationStats::pct_overlap` (same records, same
    /// arithmetic).
    pub blame: BlameTable,
}

impl CritPathDigest {
    /// Fold a reconstructed path and blame table into a digest. The
    /// runtime fills `exec_wall_ns` afterwards.
    pub fn new(path: &CritPath, blame: BlameTable) -> Self {
        let span = path.span_ns();
        let crit = path.total_ns();
        CritPathDigest {
            crit_total_ns: crit,
            span_ns: span,
            exec_wall_ns: 0.0,
            compute_ns: path.compute_ns,
            stall_ns: path.stall_ns,
            idle_ns: path.idle_ns,
            segments: path.segments.len(),
            tasks_on_path: path.tasks_on_path,
            crit_vs_span_pct: if span > 0.0 {
                100.0 * (crit - span).abs() / span
            } else {
                0.0
            },
            blame,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tier;

    fn task(t_finish: f64, wall: f64, gate: f64, worker: u32, task: u32) -> Event {
        Event::WorkerTask {
            t: t_finish,
            tenant: 0,
            worker,
            task,
            window: 0,
            wall_ns: wall,
            gate_wait_ns: gate,
        }
    }

    fn mig(object: u32, start: f64, finish: f64) -> Event {
        Event::MigrationIssued {
            t: start,
            object,
            bytes: 4096,
            from: Tier::Nvm,
            to: Tier::Dram,
            start,
            finish,
            queue_depth: 0,
        }
    }

    #[test]
    fn empty_stream_yields_zeroed_path() {
        let p = CritPath::from_events(&[]);
        assert_eq!(p.segments.len(), 0);
        assert_eq!(p.total_ns(), 0.0);
        assert_eq!(p.span_ns(), 0.0);
    }

    #[test]
    fn single_task_is_one_compute_segment() {
        let p = CritPath::from_events(&[task(100.0, 80.0, 0.0, 0, 1)]);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.segments[0].kind, SegmentKind::Compute);
        assert_eq!(p.total_ns(), 80.0);
        assert_eq!(p.compute_ns, 80.0);
        assert_eq!(p.tasks_on_path, 1);
    }

    #[test]
    fn chain_tiles_the_interval_exactly() {
        // Two workers: w0 runs [0,100]; w1 runs [10,60]; then the chain
        // tail [110,200] with a 10ns gap after w0's task.
        let events = vec![
            task(100.0, 100.0, 0.0, 0, 1),
            task(60.0, 50.0, 0.0, 1, 2),
            task(200.0, 90.0, 0.0, 0, 3),
        ];
        let p = CritPath::from_events(&events);
        // Chain: task 3 [110,200], idle [100,110], task 1 [0,100].
        assert_eq!(p.tasks_on_path, 2);
        assert_eq!(p.first_ns, 0.0);
        assert_eq!(p.last_ns, 200.0);
        assert!((p.compute_ns - 190.0).abs() < 1e-9);
        assert!((p.idle_ns - 10.0).abs() < 1e-9);
        assert!((p.compute_ns + p.stall_ns + p.idle_ns - p.total_ns()).abs() < 1e-9);
        // Segments are chronological and gap-free.
        for w in p.segments.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-9);
        }
    }

    #[test]
    fn stall_segments_blame_the_unblocking_migration() {
        // Task finishes at 300 after 200ns wall, first 50 of which is a
        // gate wait [100,150]; object 7's copy finishes at 140 (inside
        // the stall), object 9's runs past it.
        let events = vec![
            mig(9, 90.0, 400.0),
            mig(7, 80.0, 140.0),
            task(300.0, 200.0, 50.0, 0, 1),
        ];
        let p = CritPath::from_events(&events);
        let stall = p
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::Stall)
            .expect("one stall segment");
        assert_eq!(stall.object, Some(7), "unblocking finish wins");
        assert!((p.stall_ns - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stall_without_overlapping_copy_is_unattributed() {
        let events = vec![task(300.0, 200.0, 50.0, 0, 1), mig(3, 400.0, 500.0)];
        let p = CritPath::from_events(&events);
        let stall = p
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::Stall)
            .expect("stall segment");
        assert_eq!(stall.object, None);
    }

    /// The chain stops at a task every other span overlaps, so it can
    /// miss only the earliest task's head start — thread start-up skew,
    /// never longer than that task — however large a share of a short
    /// span that is.
    #[test]
    fn the_chain_misses_at_most_the_first_tasks_head_start() {
        const MS: f64 = 1e6;
        // Worker 1 starts 1 ms after worker 0, whose first task is
        // still running then; the chain bottoms out at worker 1's task.
        let events = vec![
            task(1.2 * MS, 1.2 * MS, 0.0, 0, 1),
            task(3.0 * MS, 2.0 * MS, 0.0, 1, 2),
        ];
        let p = CritPath::from_events(&events);
        let longest_task = 2.0 * MS;
        let gap = p.span_ns() - p.total_ns();
        assert_eq!(gap, 1.0 * MS);
        let d = CritPathDigest::new(&p, crate::blame::BlameTable::from_events(&events));
        assert!(d.crit_vs_span_pct > 5.0, "{}", d.crit_vs_span_pct);
        assert!(gap <= longest_task, "the property holds");
        // A chain that bottomed out early, at 2.5 ms, leaves more of the
        // span uncovered than any task is long.
        let truncated = CritPath {
            first_ns: 2.5 * MS,
            ..p
        };
        assert!(truncated.span_ns() - truncated.total_ns() > longest_task);
    }

    #[test]
    fn digest_reconciles_totals_and_band() {
        let events = vec![
            task(100.0, 100.0, 0.0, 0, 1),
            task(220.0, 110.0, 20.0, 1, 2),
            mig(4, 95.0, 125.0),
        ];
        let path = CritPath::from_events(&events);
        let blame = crate::blame::BlameTable::from_events(&events);
        let d = CritPathDigest::new(&path, blame);
        assert!((d.crit_total_ns - (d.compute_ns + d.stall_ns + d.idle_ns)).abs() < 1e-9);
        assert!(d.crit_vs_span_pct < 1e-9, "chain covers the whole span");
        assert_eq!(d.tasks_on_path, 2);
    }
}
