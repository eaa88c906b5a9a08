//! Application description: data objects plus a data-annotated task graph.
//!
//! This mirrors the programming interface of the paper's runtime: data
//! objects are registered through a `malloc`-style call before the main
//! loop, tasks declare their accesses (the task-parallel analogue of the
//! paper's phase/data-object annotations), and iteration boundaries are
//! marked so the runtime can plan per window.

use tahoe_hms::{AccessProfile, Ns, ObjectId};
use tahoe_taskrt::{AccessMode, TaskAccess, TaskClassId, TaskGraph, TaskId};

/// Specification of one target data object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// Name for reports.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Whether the object is a flat, regularly accessed array that the
    /// chunking optimization may decompose (the paper only chunks such
    /// objects).
    pub chunkable: bool,
    /// Compiler-estimated number of memory references (the paper's
    /// symbolic-formula analysis), used by the initial-placement
    /// heuristic. `None` when the analysis cannot see the count.
    pub est_refs: Option<f64>,
}

/// A complete application: objects + task graph.
#[derive(Debug)]
pub struct App {
    /// Application name (reports, harness tables).
    pub name: String,
    /// Data objects; `ObjectId(i)` in the graph refers to `objects[i]`.
    pub objects: Vec<ObjectSpec>,
    /// The task graph with derived dependences and window marks.
    pub graph: TaskGraph,
}

impl App {
    /// Total bytes of all data objects.
    pub fn footprint(&self) -> u64 {
        self.objects.iter().map(|o| o.size).sum()
    }

    /// Number of execution windows.
    pub fn windows(&self) -> u32 {
        self.graph.window_count()
    }

    /// Sanity-check that every task references declared objects.
    pub fn validate(&self) -> Result<(), String> {
        for t in self.graph.tasks() {
            for a in &t.accesses {
                if a.object.index() >= self.objects.len() {
                    return Err(format!("{:?} references undeclared {:?}", t.id, a.object));
                }
            }
        }
        self.graph
            .verify_acyclic()
            .map_err(|(a, b)| format!("cycle via {a:?} -> {b:?}"))
    }
}

/// Builder for [`App`].
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    objects: Vec<ObjectSpec>,
    graph: TaskGraph,
}

impl AppBuilder {
    /// Start building an application.
    pub fn new(name: &str) -> Self {
        AppBuilder {
            name: name.to_string(),
            objects: Vec::new(),
            graph: TaskGraph::new(),
        }
    }

    /// Register a data object (defaults: not chunkable, no compiler
    /// estimate).
    pub fn object(&mut self, name: &str, size: u64) -> ObjectId {
        self.object_spec(ObjectSpec {
            name: name.to_string(),
            size,
            chunkable: false,
            est_refs: None,
        })
    }

    /// Register a chunkable (flat-array) data object.
    pub fn object_chunkable(&mut self, name: &str, size: u64) -> ObjectId {
        self.object_spec(ObjectSpec {
            name: name.to_string(),
            size,
            chunkable: true,
            est_refs: None,
        })
    }

    /// Register an object with a full spec.
    pub fn object_spec(&mut self, spec: ObjectSpec) -> ObjectId {
        assert!(spec.size > 0, "objects must have nonzero size");
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(spec);
        id
    }

    /// Set the compiler reference estimate of an existing object.
    pub fn set_est_refs(&mut self, id: ObjectId, refs: f64) {
        self.objects[id.index()].est_refs = Some(refs);
    }

    /// Intern a task class.
    pub fn class(&mut self, name: &str) -> TaskClassId {
        self.graph.class(name)
    }

    /// Begin describing a task of `class`.
    pub fn task(&mut self, class: TaskClassId) -> TaskBuilder<'_> {
        TaskBuilder {
            app: self,
            class,
            accesses: Vec::new(),
            compute_ns: 0.0,
        }
    }

    /// Close the current window (iteration boundary).
    pub fn next_window(&mut self) {
        self.graph.mark_window();
    }

    /// Finish building; validates the application.
    pub fn build(self) -> App {
        let app = App {
            name: self.name,
            objects: self.objects,
            graph: self.graph,
        };
        app.validate().expect("invalid application");
        app
    }
}

/// Fluent description of one task.
#[derive(Debug)]
pub struct TaskBuilder<'a> {
    app: &'a mut AppBuilder,
    class: TaskClassId,
    accesses: Vec<TaskAccess>,
    compute_ns: Ns,
}

impl TaskBuilder<'_> {
    /// Declare an access with an explicit profile.
    pub fn access(mut self, object: ObjectId, mode: AccessMode, profile: AccessProfile) -> Self {
        self.accesses.push(TaskAccess::new(object, mode, profile));
        self
    }

    /// Streaming read of `lines` cache lines.
    pub fn read_streaming(self, object: ObjectId, lines: u64) -> Self {
        self.access(object, AccessMode::Read, AccessProfile::streaming(lines, 0))
    }

    /// Streaming write of `lines` cache lines.
    pub fn write_streaming(self, object: ObjectId, lines: u64) -> Self {
        self.access(
            object,
            AccessMode::Write,
            AccessProfile::streaming(0, lines),
        )
    }

    /// Streaming update (read-modify-write) touching `lines` lines each
    /// way.
    pub fn update_streaming(self, object: ObjectId, lines: u64) -> Self {
        self.access(
            object,
            AccessMode::ReadWrite,
            AccessProfile::streaming(lines, lines),
        )
    }

    /// Dependent-chain read of `lines` lines (pointer chasing).
    pub fn read_chasing(self, object: ObjectId, lines: u64) -> Self {
        self.access(
            object,
            AccessMode::Read,
            AccessProfile::pointer_chase(lines),
        )
    }

    /// Pure compute time in nanoseconds.
    pub fn compute_ns(mut self, ns: Ns) -> Self {
        self.compute_ns = ns;
        self
    }

    /// Pure compute time in microseconds.
    pub fn compute_us(self, us: f64) -> Self {
        self.compute_ns(us * 1e3)
    }

    /// Submit the task to the graph; returns its id.
    pub fn submit(self) -> TaskId {
        self.app
            .graph
            .add_task(self.class, self.accesses, self.compute_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_object_ids() {
        let mut b = AppBuilder::new("t");
        let a = b.object("a", 10);
        let c = b.object("b", 20);
        assert_eq!(a, ObjectId(0));
        assert_eq!(c, ObjectId(1));
    }

    #[test]
    fn build_small_app() {
        let mut b = AppBuilder::new("t");
        let x = b.object("x", 4096);
        let y = b.object_chunkable("y", 8192);
        let c = b.class("step");
        let t0 = b
            .task(c)
            .read_streaming(x, 64)
            .write_streaming(y, 64)
            .compute_us(1.0)
            .submit();
        b.next_window();
        let t1 = b.task(c).update_streaming(y, 32).submit();
        let app = b.build();
        assert_eq!(app.footprint(), 12288);
        assert_eq!(app.windows(), 2);
        assert_eq!(app.graph.preds(t1), &[t0]);
        assert!(app.objects[y.index()].chunkable);
        assert!(!app.objects[x.index()].chunkable);
        app.validate().unwrap();
    }

    #[test]
    fn est_refs_settable() {
        let mut b = AppBuilder::new("t");
        let x = b.object("x", 4096);
        b.set_est_refs(x, 1.0e6);
        let c = b.class("s");
        b.task(c).read_streaming(x, 1).submit();
        let app = b.build();
        assert_eq!(app.objects[0].est_refs, Some(1.0e6));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_size_object_panics() {
        let mut b = AppBuilder::new("t");
        b.object("bad", 0);
    }

    #[test]
    fn chasing_access_has_unit_mlp() {
        let mut b = AppBuilder::new("t");
        let x = b.object("x", 4096);
        let c = b.class("s");
        b.task(c).read_chasing(x, 100).submit();
        let app = b.build();
        let acc = &app.graph.task(TaskId(0)).accesses[0];
        assert_eq!(acc.profile.mlp, 1.0);
        assert_eq!(acc.profile.loads, 100);
    }
}
