//! Happens-before relation over a task DAG.
//!
//! Dependence edges always point forward in submission order (the
//! tracker derives every edge from an earlier task's access), so the
//! transitive closure can be computed in one forward sweep:
//! task `t`'s *ancestor set* is the union of each predecessor's ancestor
//! set plus the predecessor itself. Ancestor sets are dense bitsets —
//! the DAG analogue of a vector clock, collapsed to one bit per task
//! since task ids totally order submission.
//!
//! The parallel measured runtime additionally executes window by window
//! with a barrier between windows, so tasks in different windows are
//! ordered even without a dependence path; [`HappensBefore::from_graph`]
//! bakes that in, while [`HappensBefore::from_edges`] (used by the
//! dependence-tracker cross-check) is edges-only.

use tahoe_taskrt::{TaskGraph, TaskId};

/// Precomputed happens-before relation for `n` tasks.
#[derive(Debug, Clone)]
pub struct HappensBefore {
    words: usize,
    /// `n * words` bitset: row `t` holds every task that happens-before
    /// `t` through dependence edges (transitively), excluding `t`.
    anc: Vec<u64>,
    /// Window of each task; differing windows order tasks via the
    /// inter-window barrier. Empty when built edges-only.
    window: Vec<u32>,
}

impl HappensBefore {
    /// Build from a task graph, including window-barrier ordering.
    pub fn from_graph(g: &TaskGraph) -> Self {
        let n = g.len();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for t in g.tasks() {
            preds[t.id.index()] = g.preds(t.id).iter().map(|p| p.0).collect();
        }
        let window = g.tasks().iter().map(|t| t.window).collect();
        Self::build(n, &preds, window)
    }

    /// Build from raw forward edges `(from, to)` with `from < to`, no
    /// window barriers. Panics on a backward or self edge — such a graph
    /// is cyclic and has no happens-before relation (run
    /// [`crate::find_cycle`] first).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(
                a < b && (b as usize) < n,
                "happens-before requires forward edges within bounds"
            );
            preds[b as usize].push(a);
        }
        Self::build(n, &preds, vec![0; n])
    }

    fn build(n: usize, preds: &[Vec<u32>], window: Vec<u32>) -> Self {
        let words = n.div_ceil(64);
        let mut anc = vec![0u64; n * words];
        for (t, preds_t) in preds.iter().enumerate() {
            // Predecessors have smaller ids, so their rows are final and
            // live entirely before row `t` in the flat vec.
            let (done, rest) = anc.split_at_mut(t * words);
            let row_t = &mut rest[..words];
            for &p in preds_t {
                let p = p as usize;
                let row_p = &done[p * words..(p + 1) * words];
                for (w, bits) in row_t.iter_mut().enumerate() {
                    *bits |= row_p[w];
                }
                row_t[p / 64] |= 1u64 << (p % 64);
            }
        }
        HappensBefore { words, anc, window }
    }

    /// Number of tasks the relation covers.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether `a` happens-before `b` (strict: `a != b`).
    pub fn happens_before(&self, a: TaskId, b: TaskId) -> bool {
        if a == b {
            return false;
        }
        let (ai, bi) = (a.index(), b.index());
        if self.window[ai] != self.window[bi] {
            // The inter-window barrier orders them.
            return self.window[ai] < self.window[bi];
        }
        self.anc[bi * self.words + ai / 64] & (1u64 << (ai % 64)) != 0
    }

    /// Whether the pair is ordered either way.
    pub fn ordered(&self, a: TaskId, b: TaskId) -> bool {
        self.happens_before(a, b) || self.happens_before(b, a)
    }

    /// Window of task `t` (0 for relations built edges-only). The plan
    /// auditor uses this to order plan steps — issued at a window
    /// boundary — against accesses of earlier windows.
    pub fn window(&self, t: TaskId) -> u32 {
        self.window[t.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn transitive_closure_over_a_chain() {
        let hb = HappensBefore::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(hb.happens_before(t(0), t(2)), "closure must be transitive");
        assert!(hb.ordered(t(0), t(1)));
        assert!(!hb.happens_before(t(2), t(0)));
        assert!(!hb.happens_before(t(1), t(1)), "strict relation");
    }

    #[test]
    fn diamond_leaves_siblings_unordered() {
        let hb = HappensBefore::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(!hb.ordered(t(1), t(2)));
        assert!(hb.happens_before(t(0), t(3)));
    }

    #[test]
    fn windows_act_as_barriers_in_graph_form() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        use tahoe_hms::{AccessProfile, ObjectId};
        use tahoe_taskrt::{AccessMode, TaskAccess};
        let acc = |o: u32| {
            TaskAccess::new(
                ObjectId(o),
                AccessMode::Write,
                AccessProfile::streaming(8, 8),
            )
        };
        let t0 = g.add_task(c, vec![acc(0)], 1.0);
        g.mark_window();
        let t1 = g.add_task(c, vec![acc(1)], 1.0);
        // Disjoint objects: no dependence edge, but the window barrier
        // still orders them.
        assert!(g.preds(t1).is_empty());
        let hb = HappensBefore::from_graph(&g);
        assert!(hb.happens_before(t0, t1));
        assert!(!hb.happens_before(t1, t0));
    }

    #[test]
    fn wide_graphs_cross_word_boundaries() {
        // 0 -> 70 -> 130: ancestor bits live in different u64 words.
        let hb = HappensBefore::from_edges(131, &[(0, 70), (70, 130)]);
        assert!(hb.happens_before(t(0), t(130)));
        assert!(!hb.ordered(t(1), t(130)));
        assert_eq!(hb.len(), 131);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_edge_panics() {
        let _ = HappensBefore::from_edges(2, &[(1, 1)]);
    }
}
