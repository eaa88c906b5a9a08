//! Task identities, classes, and data-access declarations.

use std::fmt;

use tahoe_hms::{AccessProfile, Ns, ObjectId};

/// Identifier of a task instance (dense, in submission order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index form for dense tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Identifier of a *task class*: tasks created from the same task function
/// with the same access structure.
///
/// The paper profiles a handful of instances per class and reuses the
/// profile for every other instance — task-parallel programs create far
/// too many task instances to profile each one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskClassId(pub u32);

impl TaskClassId {
    /// Index form for dense tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// How a task uses a data object, in OmpSs/OpenMP-`depend` terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// `in` — the task only reads the object.
    Read,
    /// `out` — the task overwrites the object without reading it.
    Write,
    /// `inout` — the task reads and writes the object.
    ReadWrite,
}

impl AccessMode {
    /// Whether this access reads the object (RAW source).
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether this access writes the object (WAR/WAW source).
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// One declared access of a task to a data object, together with the
/// ground-truth main-memory traffic the access generates.
///
/// The `profile` is the *actual* behaviour of the task (what hardware
/// would do); the profiler in `tahoe-memprof` only ever sees a sampled,
/// noisy view of it, exactly as performance counters only see a sampled
/// view of real traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskAccess {
    /// The object touched.
    pub object: ObjectId,
    /// Declared direction (drives dependence derivation).
    pub mode: AccessMode,
    /// Ground-truth main-memory traffic of this task to this object.
    pub profile: AccessProfile,
}

impl TaskAccess {
    /// Convenience constructor.
    pub fn new(object: ObjectId, mode: AccessMode, profile: AccessProfile) -> Self {
        TaskAccess {
            object,
            mode,
            profile,
        }
    }
}

/// A task instance: class, declared accesses, and pure-compute time.
///
/// `compute_ns` is the time the task spends off main memory (arithmetic
/// and cache-resident work); the memory component of the task's duration
/// is derived at schedule time from the access profiles and the current
/// placement of each object.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Instance id, assigned by the graph in submission order.
    pub id: TaskId,
    /// Task class (shared profile identity).
    pub class: TaskClassId,
    /// Declared data accesses.
    pub accesses: Vec<TaskAccess>,
    /// Pure compute time in virtual ns.
    pub compute_ns: Ns,
    /// Execution window (iteration) this task belongs to.
    pub window: u32,
}

impl TaskSpec {
    /// All objects the task touches, in declaration order (deduplicated).
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut seen = Vec::new();
        for a in &self.accesses {
            if !seen.contains(&a.object) {
                seen.push(a.object);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::Read.reads() && !AccessMode::Read.writes());
        assert!(!AccessMode::Write.reads() && AccessMode::Write.writes());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
    }

    #[test]
    fn objects_deduplicates_preserving_order() {
        let o1 = ObjectId(1);
        let o2 = ObjectId(2);
        let t = TaskSpec {
            id: TaskId(0),
            class: TaskClassId(0),
            accesses: vec![
                TaskAccess::new(o2, AccessMode::Read, AccessProfile::streaming(10, 0)),
                TaskAccess::new(o1, AccessMode::Write, AccessProfile::streaming(0, 5)),
                TaskAccess::new(o2, AccessMode::Read, AccessProfile::streaming(3, 0)),
            ],
            compute_ns: 0.0,
            window: 0,
        };
        assert_eq!(t.objects(), vec![o2, o1]);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", TaskId(3)), "task#3");
        assert_eq!(format!("{:?}", TaskClassId(1)), "class#1");
    }
}
