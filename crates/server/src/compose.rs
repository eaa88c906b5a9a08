//! Composing tenant apps into one interleaved application.
//!
//! The access sanitizer's schedule fuzz checks *single* task graphs;
//! [`interleave`] builds the multi-tenant analogue as one app: the
//! parts' objects are renamed into disjoint namespaces and their
//! windows are zipped together, so tasks of different tenants share
//! windows (and therefore workers) while never sharing objects. Any
//! cross-tenant race the shared pool could expose — a window barrier
//! leaking across jobs, a dependence miscounted between interleaved
//! tasks — becomes an ordinary sanitizer violation on the composed
//! graph.
//!
//! Only access-derived dependences are replayed; explicit
//! [`TaskGraph::add_dep`](tahoe_taskrt::TaskGraph::add_dep) edges
//! (which no bundled workload adds) are not preserved.

use tahoe_core::app::{App, AppBuilder, ObjectSpec};
use tahoe_hms::ObjectId;

/// Merge `parts` into one app: objects prefixed and kept disjoint,
/// same-index windows executed together. Panics if `parts` is empty.
pub fn interleave(parts: &[(&App, &str)]) -> App {
    assert!(!parts.is_empty(), "interleave needs at least one app");
    let mut b = AppBuilder::new("interleaved");
    let obj_maps: Vec<Vec<ObjectId>> = parts
        .iter()
        .map(|(app, prefix)| {
            app.objects
                .iter()
                .map(|o| {
                    b.object_spec(ObjectSpec {
                        name: format!("{prefix}.{}", o.name),
                        size: o.size,
                        chunkable: o.chunkable,
                        est_refs: o.est_refs,
                    })
                })
                .collect()
        })
        .collect();
    let max_windows = parts.iter().map(|(a, _)| a.windows()).max().unwrap_or(1);
    for w in 0..max_windows {
        if w > 0 {
            b.next_window();
        }
        for (pi, (app, prefix)) in parts.iter().enumerate() {
            if w >= app.windows() {
                continue;
            }
            for tid in app.graph.window_tasks(w) {
                let task = app.graph.task(tid);
                let class = b.class(&format!("{prefix}.{}", app.graph.class_name(task.class)));
                let mut tb = b.task(class).compute_ns(task.compute_ns);
                for a in &task.accesses {
                    tb = tb.access(obj_maps[pi][a.object.index()], a.mode, a.profile);
                }
                tb.submit();
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_core::app::AppBuilder;

    fn tiny(name: &str, objects: u32, windows: u32) -> App {
        let mut b = AppBuilder::new(name);
        let ids: Vec<ObjectId> = (0..objects)
            .map(|i| b.object(&format!("o{i}"), 4096))
            .collect();
        let c = b.class("step");
        for w in 0..windows {
            if w > 0 {
                b.next_window();
            }
            for id in &ids {
                b.task(c).update_streaming(*id, 16).submit();
            }
        }
        b.build()
    }

    #[test]
    fn objects_are_disjoint_and_prefixed() {
        let a = tiny("a", 2, 1);
        let b2 = tiny("b", 3, 1);
        let merged = interleave(&[(&a, "t0"), (&b2, "t1")]);
        assert_eq!(merged.objects.len(), 5);
        assert_eq!(merged.objects[0].name, "t0.o0");
        assert_eq!(merged.objects[2].name, "t1.o0");
        merged.validate().expect("valid composition");
    }

    #[test]
    fn windows_zip_and_task_counts_add() {
        let a = tiny("a", 2, 3);
        let b2 = tiny("b", 1, 2);
        let merged = interleave(&[(&a, "t0"), (&b2, "t1")]);
        assert_eq!(merged.windows(), 3);
        // Window 0 and 1 hold both parts' tasks; window 2 only part a.
        assert_eq!(merged.graph.window_tasks(0).len(), 3);
        assert_eq!(merged.graph.window_tasks(1).len(), 3);
        assert_eq!(merged.graph.window_tasks(2).len(), 2);
        assert_eq!(merged.graph.len(), 8);
    }

    #[test]
    fn cross_part_tasks_share_no_objects() {
        let a = tiny("a", 2, 2);
        let b2 = tiny("b", 2, 2);
        let merged = interleave(&[(&a, "t0"), (&b2, "t1")]);
        // Part boundaries: objects 0..2 belong to t0, 2..4 to t1. Every
        // task must stay inside one side.
        for t in merged.graph.tasks() {
            let sides: Vec<bool> = t
                .accesses
                .iter()
                .map(|acc| acc.object.index() >= 2)
                .collect();
            assert!(
                sides.iter().all(|&s| s == sides[0]),
                "task {:?} straddles tenants",
                t.id
            );
        }
    }
}
