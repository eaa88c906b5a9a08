//! The task graph: tasks, derived dependences, classes and windows.

use std::collections::HashMap;

use tahoe_hms::{Ns, ObjectId};

use crate::deps::DepTracker;
use crate::task::{TaskAccess, TaskClassId, TaskId, TaskSpec};

/// A data-flow task graph under construction and execution.
///
/// Tasks are submitted in program order; dependences are derived from the
/// declared accesses (see [`crate::deps`]). The graph also tracks
/// *windows* — iteration boundaries of the application's outer loop. The
/// paper's runtime plans placement per window: profiling runs during the
/// first windows and the chosen plan is enforced at later window starts.
#[derive(Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
    succs: Vec<Vec<TaskId>>,
    preds: Vec<Vec<TaskId>>,
    class_names: Vec<String>,
    class_by_name: HashMap<String, TaskClassId>,
    tracker: DepTracker,
    current_window: u32,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a task class by name (same name → same class id).
    pub fn class(&mut self, name: &str) -> TaskClassId {
        if let Some(&id) = self.class_by_name.get(name) {
            return id;
        }
        let id = TaskClassId(self.class_names.len() as u32);
        self.class_names.push(name.to_string());
        self.class_by_name.insert(name.to_string(), id);
        id
    }

    /// Name of a class.
    pub fn class_name(&self, id: TaskClassId) -> &str {
        &self.class_names[id.index()]
    }

    /// Number of interned classes.
    pub fn class_count(&self) -> usize {
        self.class_names.len()
    }

    /// Submit a task; dependences on earlier tasks are derived from
    /// `accesses`. Returns the new task's id.
    pub fn add_task(
        &mut self,
        class: TaskClassId,
        accesses: Vec<TaskAccess>,
        compute_ns: Ns,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        let mut deps: Vec<TaskId> = Vec::new();
        for a in &accesses {
            deps.extend(self.tracker.record(id, a.object, a.mode));
        }
        deps.sort_unstable();
        deps.dedup();
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        for &d in &deps {
            self.succs[d.index()].push(id);
            self.preds[id.index()].push(d);
        }
        self.tasks.push(TaskSpec {
            id,
            class,
            accesses,
            compute_ns,
            window: self.current_window,
        });
        id
    }

    /// Close the current window; subsequently submitted tasks belong to
    /// the next one.
    pub fn mark_window(&mut self) {
        self.current_window += 1;
    }

    /// Number of windows present (at least 1 once a task exists).
    pub fn window_count(&self) -> u32 {
        if self.tasks.is_empty() {
            0
        } else {
            self.current_window + 1
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with id `t`.
    pub fn task(&self, t: TaskId) -> &TaskSpec {
        &self.tasks[t.index()]
    }

    /// All tasks in submission order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Successor tasks of `t`.
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        &self.succs[t.index()]
    }

    /// Predecessor tasks of `t`.
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.preds[t.index()]
    }

    /// Tasks with no predecessors (initially ready).
    pub fn roots(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| self.preds[t.id.index()].is_empty())
            .map(|t| t.id)
            .collect()
    }

    /// Tasks belonging to window `w`, in submission order.
    pub fn window_tasks(&self, w: u32) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| t.window == w)
            .map(|t| t.id)
            .collect()
    }

    /// Every distinct object referenced by any task.
    pub fn referenced_objects(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = Vec::new();
        for t in &self.tasks {
            for a in &t.accesses {
                if !v.contains(&a.object) {
                    v.push(a.object);
                }
            }
        }
        v.sort();
        v
    }

    /// Verify the graph is a DAG (edges must point forward). Returns the
    /// offending edge if not.
    pub fn verify_acyclic(&self) -> Result<(), (TaskId, TaskId)> {
        for (i, succs) in self.succs.iter().enumerate() {
            for &s in succs {
                if s.index() <= i {
                    return Err((TaskId(i as u32), s));
                }
            }
        }
        Ok(())
    }

    /// Critical-path length under a per-task duration function, in ns.
    ///
    /// This is the makespan lower bound with unlimited workers; the
    /// scheduler's makespan can be checked against it.
    pub fn critical_path_ns<F>(&self, mut duration: F) -> Ns
    where
        F: FnMut(&TaskSpec) -> Ns,
    {
        let mut finish = vec![0.0f64; self.tasks.len()];
        let mut best: Ns = 0.0;
        for t in &self.tasks {
            let start = self.preds[t.id.index()]
                .iter()
                .map(|p| finish[p.index()])
                .fold(0.0f64, f64::max);
            let f = start + duration(t);
            finish[t.id.index()] = f;
            best = best.max(f);
        }
        best
    }

    /// Sum of all task durations (sequential-execution time).
    pub fn total_work_ns<F>(&self, duration: F) -> Ns
    where
        F: FnMut(&TaskSpec) -> Ns,
    {
        self.tasks.iter().map(duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::AccessMode;
    use tahoe_hms::AccessProfile;

    fn acc(o: u32, mode: AccessMode) -> TaskAccess {
        TaskAccess::new(ObjectId(o), mode, AccessProfile::streaming(10, 5))
    }

    #[test]
    fn chain_from_inout_accesses() {
        let mut g = TaskGraph::new();
        let c = g.class("step");
        let t0 = g.add_task(c, vec![acc(0, AccessMode::ReadWrite)], 1.0);
        let t1 = g.add_task(c, vec![acc(0, AccessMode::ReadWrite)], 1.0);
        let t2 = g.add_task(c, vec![acc(0, AccessMode::ReadWrite)], 1.0);
        assert_eq!(g.preds(t1), &[t0]);
        assert_eq!(g.preds(t2), &[t1]);
        assert_eq!(g.succs(t0), &[t1]);
        assert_eq!(g.roots(), vec![t0]);
        g.verify_acyclic().unwrap();
    }

    #[test]
    fn fork_join_shape() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        let w = g.add_task(c, vec![acc(0, AccessMode::Write)], 1.0);
        let r1 = g.add_task(c, vec![acc(0, AccessMode::Read)], 1.0);
        let r2 = g.add_task(c, vec![acc(0, AccessMode::Read)], 1.0);
        let j = g.add_task(c, vec![acc(0, AccessMode::Write)], 1.0);
        assert_eq!(g.succs(w), &[r1, r2, j][..3].to_vec());
        assert_eq!(g.preds(j), &[w, r1, r2]);
        // The two readers are mutually independent.
        assert!(!g.preds(r2).contains(&r1));
        g.verify_acyclic().unwrap();
    }

    #[test]
    fn class_interning_is_stable() {
        let mut g = TaskGraph::new();
        let a = g.class("gemm");
        let b = g.class("trsm");
        let a2 = g.class("gemm");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(g.class_name(a), "gemm");
        assert_eq!(g.class_count(), 2);
    }

    #[test]
    fn windows_partition_tasks() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        let t0 = g.add_task(c, vec![acc(0, AccessMode::ReadWrite)], 1.0);
        g.mark_window();
        let t1 = g.add_task(c, vec![acc(0, AccessMode::ReadWrite)], 1.0);
        let t2 = g.add_task(c, vec![acc(1, AccessMode::Write)], 1.0);
        assert_eq!(g.window_count(), 2);
        assert_eq!(g.window_tasks(0), vec![t0]);
        assert_eq!(g.window_tasks(1), vec![t1, t2]);
        assert_eq!(g.task(t1).window, 1);
    }

    #[test]
    fn critical_path_of_chain_is_total_work() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for _ in 0..5 {
            g.add_task(c, vec![acc(0, AccessMode::ReadWrite)], 10.0);
        }
        let cp = g.critical_path_ns(|t| t.compute_ns);
        assert!((cp - 50.0).abs() < 1e-9);
        assert!((g.total_work_ns(|t| t.compute_ns) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_of_fan_is_one_task() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        for i in 0..8 {
            g.add_task(c, vec![acc(i, AccessMode::Write)], 10.0);
        }
        assert!((g.critical_path_ns(|t| t.compute_ns) - 10.0).abs() < 1e-9);
        assert!((g.total_work_ns(|t| t.compute_ns) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn referenced_objects_sorted_unique() {
        let mut g = TaskGraph::new();
        let c = g.class("x");
        g.add_task(
            c,
            vec![acc(3, AccessMode::Write), acc(1, AccessMode::Read)],
            1.0,
        );
        g.add_task(c, vec![acc(1, AccessMode::Read)], 1.0);
        assert_eq!(g.referenced_objects(), vec![ObjectId(1), ObjectId(3)]);
    }

    #[test]
    fn empty_graph_properties() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.window_count(), 0);
        assert_eq!(g.critical_path_ns(|t| t.compute_ns), 0.0);
        g.verify_acyclic().unwrap();
    }
}
