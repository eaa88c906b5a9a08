//! The typed runtime event stream.
//!
//! Every event carries a timestamp `t`: wall-clock nanoseconds since the
//! epoch of the run (or server) that emitted it. Which events a run
//! emits, and how many of each, follows from its plan; the timestamps
//! and durations are measurements.

use crate::json::{Scalar, Writer};

/// Nanoseconds (mirrors `tahoe_hms::Ns` without the dependency).
pub type Ns = f64;

/// Which memory tier an event refers to, named by its place in the
/// ordered tier list: the fastest tier, the slowest (spill) tier, or a
/// middle tier by index.
///
/// This crate sits below every other workspace crate, so it cannot name
/// `tahoe_hms::TierId`; `TierId::label` is the one place an index
/// becomes a `Tier`. The derived order is fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The fastest, smallest tier (index 0).
    Dram,
    /// A middle tier (e.g. CXL), by its index in the tier list (≥ 1).
    Mid(u8),
    /// The slowest, largest tier (the last index).
    Nvm,
}

/// The stable lowercase tag the exporters write: `dram`, `tier<i>`,
/// `nvm` — a two-tier stream never contains a `tier<i>`.
impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Dram => f.write_str("dram"),
            Tier::Mid(i) => write!(f, "tier{i}"),
            Tier::Nvm => f.write_str("nvm"),
        }
    }
}

/// Tiers go on the wire as their tags.
impl Scalar for Tier {
    fn write_json(&self, out: &mut String) {
        self.to_string().write_json(out);
    }
}

/// Declares [`Event`] from one table: each variant's doc, tag and fields
/// (a leading `t: Ns`, then the rest in wire order). The enum, its
/// [`kind`](Event::kind) / [`timestamp`](Event::timestamp) and the JSONL
/// field writer are all generated from it, so the wire format is stated
/// once.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $(#[$tmeta:meta])*
                    t: Ns,
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $(
                $(#[$vmeta])*
                $variant {
                    $(#[$tmeta])*
                    t: Ns,
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )*
        }

        impl Event {
            /// Every kind tag, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$($tag),*];

            /// The event's timestamp, ns since its run's epoch.
            pub fn timestamp(&self) -> Ns {
                match *self {
                    $(Event::$variant { t, .. })|* => t,
                }
            }

            /// Stable snake_case tag naming the event kind (the JSONL `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }

            /// Write the variant's fields after `t`, in declaration order.
            pub(crate) fn write_fields(&self, w: &mut Writer<'_>) {
                match self {
                    $(Event::$variant { $($field,)* .. } => {
                        $(w.field(stringify!($field), $field);)*
                    })*
                }
            }
        }
    };
}

events! {
    /// One structured runtime event.
    ///
    /// Integer ids are the runtime's own (task id, task class id, app object
    /// or memory-unit id); the exporters carry them through unchanged.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// The migration thread carried out one queued move: a complete
        /// span from the copy's `start` to its `finish`.
        MigrationIssued = "migration_issued" {
            /// When the move was requested.
            t: Ns,
            /// Memory unit that moves.
            object: u32,
            /// Bytes to copy.
            bytes: u64,
            /// Source tier.
            from: Tier,
            /// Destination tier.
            to: Tier,
            /// When the copy started.
            start: Ns,
            /// When the copy finished.
            finish: Ns,
            /// Requests still queued behind this one when it committed.
            queue_depth: u32,
        },
        /// A move committed: the object now resides on its destination.
        MigrationCompleted = "migration_completed" {
            /// When the move committed.
            t: Ns,
            /// Memory unit that moved.
            object: u32,
            /// Bytes copied.
            bytes: u64,
            /// Copy time hidden behind execution, ns.
            overlap_ns: Ns,
        },
        /// Every task class met its profiling quota and the plan went to
        /// the migration thread.
        ProfilingClosed = "profiling_closed" {
            /// When the quota was met.
            t: Ns,
            /// Window of the task whose completion met it.
            window: u32,
        },
        /// A real (`mmap`) tier arena was mapped.
        ArenaMapped = "arena_mapped" {
            /// Wall-clock ns since the run's epoch.
            t: Ns,
            /// Tier the arena backs.
            tier: Tier,
            /// Mapped bytes (page-rounded capacity).
            bytes: u64,
            /// NUMA node the arena was bound to, or -1 when binding was
            /// unavailable and the system fell back to pure emulation.
            numa_node: i64,
        },
        /// A physical inter-tier copy completed on the real substrate.
        RealCopyDone = "real_copy_done" {
            /// Wall-clock ns since the run's epoch (at completion).
            t: Ns,
            /// Memory unit that moved.
            object: u32,
            /// Bytes physically copied.
            bytes: u64,
            /// Source tier.
            from: Tier,
            /// Destination tier.
            to: Tier,
            /// Wall-clock ns the copy took, including throttling.
            wall_ns: Ns,
            /// Of that, ns spent in the rate limiter and injected latency.
            throttle_ns: Ns,
            /// Bounded-size chunks the copy was split into.
            chunks: u32,
        },
        /// A worker thread completed one task in the parallel measured
        /// runtime. One complete span per task (emitted at finish; start is
        /// `t - wall_ns`), tagged with the worker that ran it so the trace
        /// exporter can lay tasks out one track per worker, and with the
        /// tenant the task ran for so multi-tenant server traces show which
        /// client occupied each worker lane (single-tenant runs use 0).
        WorkerTask = "worker_task" {
            /// Wall-clock ns since the run's epoch, at task finish.
            t: Ns,
            /// Tenant the task belongs to (0 for single-tenant runs).
            tenant: u32,
            /// Worker thread index (0-based).
            worker: u32,
            /// Task id.
            task: u32,
            /// Execution window.
            window: u32,
            /// Wall-clock ns the task ran (kernels + injected pacing).
            wall_ns: Ns,
            /// Of that, wall-clock ns spent blocked on in-flight migrations
            /// before the task could pin its objects (exposed latency).
            gate_wait_ns: Ns,
        },
        /// The Tahoe planner's verdict on one object, stamped with the
        /// model-predicted benefit of DRAM residence — the prediction side
        /// of the model-accuracy audit (`exp blame` pairs it with measured
        /// per-access wall-clock deltas).
        PlacementDecision = "placement_decision" {
            /// Wall-clock ns since the run's epoch (plan hand-off time).
            t: Ns,
            /// App object the decision is about.
            object: u32,
            /// Object size in bytes (the knapsack weight).
            bytes: u64,
            /// Model-predicted total saving of DRAM residence over the run,
            /// ns (the knapsack value; ≥ 0 by construction).
            predicted_benefit_ns: Ns,
            /// Whether the plan promotes the object to DRAM.
            chosen: bool,
        },
        /// The access sanitizer flagged a violation of the declared-footprint
        /// discipline (race, undeclared access, mid-move access, pinned
        /// copy, …). `kind` is the stable `ViolationKind` tag from
        /// `tahoe-sanitize`; this crate sits below it, so the tag travels as
        /// a string.
        SanitizeViolation = "sanitize_violation" {
            /// Wall-clock ns since the run's epoch (at detection).
            t: Ns,
            /// Stable snake_case violation-kind tag (e.g.
            /// `"unordered_conflict"`).
            kind: String,
            /// Offending task id, or `u32::MAX` when not task-attributable.
            task: u32,
            /// Offending app object, or `u32::MAX` when not
            /// object-attributable.
            object: u32,
            /// Human-readable description of the finding.
            detail: String,
        },
        /// Calibration fitted a tier spec from measured kernel numbers.
        TierFitted = "tier_fitted" {
            /// Wall-clock ns since the run's epoch.
            t: Ns,
            /// Tier the fitted spec describes.
            tier: Tier,
            /// Fitted sustained read bandwidth, GB/s.
            read_bw_gbps: f64,
            /// Fitted sustained write bandwidth, GB/s.
            write_bw_gbps: f64,
            /// Fitted dependent-read latency, ns.
            read_lat_ns: f64,
        },
        /// The multi-tenant server admitted one graph submission past
        /// admission control and handed it to the shared worker pool.
        GraphAdmitted = "graph_admitted" {
            /// Wall-clock ns since the server's epoch.
            t: Ns,
            /// Tenant that submitted the graph.
            tenant: u32,
            /// Per-tenant graph sequence number.
            graph: u64,
            /// Wall-clock ns the submission waited in the tenant's queue
            /// before admission (0 when admitted immediately).
            queue_wait_ns: Ns,
            /// DRAM quota granted to the tenant at admission time, bytes.
            quota_bytes: u64,
        },
        /// A tenant's admitted graph ran to completion on the shared pool.
        GraphDone = "graph_done" {
            /// Wall-clock ns since the server's epoch, at completion.
            t: Ns,
            /// Tenant the graph belongs to.
            tenant: u32,
            /// Per-tenant graph sequence number.
            graph: u64,
            /// Submission-to-completion wall latency, ns (includes queueing).
            latency_ns: Ns,
            /// Admission-to-completion execution wall time, ns.
            wall_ns: Ns,
        },
        /// Admission control shed a submission instead of queueing it (the
        /// tenant's pending queue was already at its configured depth).
        GraphShed = "graph_shed" {
            /// Wall-clock ns since the server's epoch.
            t: Ns,
            /// Tenant whose submission was shed.
            tenant: u32,
            /// Per-tenant graph sequence number of the shed submission.
            graph: u64,
            /// Submissions already queued for the tenant when it was shed.
            queued: u32,
        },
        /// The cross-tenant arbiter recomputed one tenant's DRAM quota.
        TenantQuota = "tenant_quota" {
            /// Wall-clock ns since the server's epoch.
            t: Ns,
            /// Tenant the quota applies to.
            tenant: u32,
            /// Granted DRAM quota, bytes.
            quota_bytes: u64,
            /// The tenant's declared DRAM demand: bytes of the
            /// positive-value objects the arbiter ranks by value per byte.
            demand_bytes: u64,
        },
        /// The arbiter preempted one DRAM-resident object of a tenant,
        /// demoting it back to NVM to make room under the new quotas.
        TenantPreempt = "tenant_preempt" {
            /// Wall-clock ns since the server's epoch (at enqueue of the
            /// demotion; the background migrator performs the copy).
            t: Ns,
            /// Tenant that lost DRAM residency (the preemption victim).
            tenant: u32,
            /// Global HMS object id that was demoted.
            object: u32,
            /// Size of the demoted object, bytes.
            bytes: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_and_kinds_are_consistent() {
        let e = Event::ProfilingClosed { t: 42.0, window: 3 };
        assert_eq!(e.timestamp(), 42.0);
        assert_eq!(e.kind(), "profiling_closed");
        let e = Event::MigrationCompleted {
            t: 7.0,
            object: 1,
            bytes: 64,
            overlap_ns: 3.0,
        };
        assert_eq!(e.timestamp(), 7.0);
        assert_eq!(e.kind(), "migration_completed");
        let e = Event::ArenaMapped {
            t: 1.0,
            tier: Tier::Dram,
            bytes: 4096,
            numa_node: -1,
        };
        assert_eq!(e.timestamp(), 1.0);
        assert_eq!(e.kind(), "arena_mapped");
        let e = Event::TierFitted {
            t: 2.0,
            tier: Tier::Nvm,
            read_bw_gbps: 4.0,
            write_bw_gbps: 3.0,
            read_lat_ns: 90.0,
        };
        assert_eq!(e.kind(), "tier_fitted");
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(Tier::Dram.to_string(), "dram");
        assert_eq!(Tier::Mid(1).to_string(), "tier1");
        assert_eq!(Tier::Nvm.to_string(), "nvm");
        assert!(Tier::Dram < Tier::Mid(1) && Tier::Mid(2) < Tier::Nvm);
    }
}
