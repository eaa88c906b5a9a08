//! Per-tenant object namespaces over the shared memory system.
//!
//! Every tenant describes its graph against its *own* dense object ids
//! (`ObjectId(0..n)` indexing its `App::objects`); the server maps
//! those to the global [`tahoe_hms::ObjectId`]s its objects got at
//! registration through the tenant's own `GraphLayout`. The shared
//! `Hms` never hands out an id twice, so no global id has two owners.
//! Isolation is enforced *at admission time*: a graph that references
//! an object index outside the tenant's declared set — the only way a
//! tenant could name another tenant's memory, since the global ids are
//! never exposed — is rejected with [`AdmitError::ForeignObject`]
//! before anything is allocated or scheduled. Nothing about a buggy or
//! malicious tenant graph can reach the runtime data path.

use std::fmt;

use tahoe_core::app::App;

/// Why a tenant registration or submission was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// A task references an object index the tenant never declared —
    /// in a multi-tenant server that is an attempted cross-tenant
    /// reference, rejected before allocation or scheduling.
    ForeignObject {
        /// Offending tenant.
        tenant: u32,
        /// Task whose access list names the foreign object.
        task: u32,
        /// The undeclared object index.
        object: u32,
        /// How many objects the tenant actually declared.
        owned: usize,
    },
    /// Backing allocation failed (NVM capacity exhausted).
    AllocFailed {
        /// Offending tenant.
        tenant: u32,
        /// Object name that failed to allocate.
        object: String,
        /// Allocator message.
        detail: String,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::ForeignObject {
                tenant,
                task,
                object,
                owned,
            } => write!(
                f,
                "tenant {tenant}: task {task} references object {object} \
                 outside the tenant's namespace ({owned} objects declared); \
                 rejected at admission"
            ),
            AdmitError::AllocFailed {
                tenant,
                object,
                detail,
            } => write!(f, "tenant {tenant}: allocating {object:?} failed: {detail}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Admission-time validation of a tenant's application against its own
/// namespace: every declared access must target one of the tenant's
/// `owned` object indices.
pub fn validate_app(tenant: u32, app: &App) -> Result<(), AdmitError> {
    let owned = app.objects.len();
    for t in app.graph.tasks() {
        for a in &t.accesses {
            if a.object.index() >= owned {
                return Err(AdmitError::ForeignObject {
                    tenant,
                    task: t.id.0,
                    object: a.object.0,
                    owned,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_core::app::AppBuilder;
    use tahoe_hms::{AccessProfile, ObjectId};
    use tahoe_taskrt::{AccessMode, TaskAccess, TaskGraph};

    #[test]
    fn valid_app_passes() {
        let mut b = AppBuilder::new("ok");
        let x = b.object("x", 4096);
        let c = b.class("s");
        b.task(c).read_streaming(x, 8).submit();
        validate_app(0, &b.build()).expect("valid app");
    }

    #[test]
    fn foreign_object_reference_is_rejected() {
        // Bypass the builder (which validates) to model a malicious or
        // buggy tenant handing over a graph that names object 99 while
        // declaring a single object.
        let mut graph = TaskGraph::new();
        let c = graph.class("evil");
        graph.add_task(
            c,
            vec![TaskAccess::new(
                ObjectId(99),
                AccessMode::Write,
                AccessProfile::streaming(0, 8),
            )],
            0.0,
        );
        let app = App {
            name: "evil".into(),
            objects: vec![tahoe_core::app::ObjectSpec {
                name: "only".into(),
                size: 4096,
                chunkable: false,
                est_refs: None,
            }],
            graph,
        };
        let err = validate_app(3, &app).expect_err("must reject");
        assert_eq!(
            err,
            AdmitError::ForeignObject {
                tenant: 3,
                task: 0,
                object: 99,
                owned: 1,
            }
        );
        assert!(err.to_string().contains("rejected at admission"));
    }
}
