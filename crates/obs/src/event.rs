//! The typed runtime event stream.
//!
//! Every event carries a virtual-time timestamp `t` in nanoseconds (the
//! simulator's clock, not wall time), so identical seeded runs produce
//! identical streams — the determinism tests and the CI artifact diff
//! depend on that.

use crate::json::{Scalar, Writer};

/// Virtual nanoseconds (mirrors `tahoe_hms::Ns` without the dependency).
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

/// Why the driver re-armed profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanReason {
    /// Window durations drifted beyond the variation threshold.
    Drift,
    /// A window introduced a task class the plan had never seen.
    UnseenClass,
}

impl ReplanReason {
    /// Stable lowercase tag used by the exporters.
    pub fn tag(self) -> &'static str {
        match self {
            ReplanReason::Drift => "drift",
            ReplanReason::UnseenClass => "unseen_class",
        }
    }
}

/// Which overhead bucket a charge went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadKind {
    /// Sampling-counter collection inflation.
    Profiling,
    /// Helper-thread queue synchronization.
    Sync,
    /// Model evaluation + knapsack planning.
    Planning,
}

impl OverheadKind {
    /// Stable lowercase tag used by the exporters.
    pub fn tag(self) -> &'static str {
        match self {
            OverheadKind::Profiling => "profiling",
            OverheadKind::Sync => "sync",
            OverheadKind::Planning => "planning",
        }
    }
}

/// Tiers, replan reasons and overhead kinds go on the wire as their tags.
impl Scalar for Tier {
    fn write_json(&self, out: &mut String) {
        self.to_string().write_json(out);
    }
}

impl Scalar for ReplanReason {
    fn write_json(&self, out: &mut String) {
        self.tag().write_json(out);
    }
}

impl Scalar for OverheadKind {
    fn write_json(&self, out: &mut String) {
        self.tag().write_json(out);
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

            /// The event's virtual timestamp.
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
        /// A task began executing.
        TaskStart = "task_start" {
            /// Virtual time.
            t: Ns,
            /// Task id.
            task: u32,
            /// Task class id.
            class: u32,
            /// Execution window.
            window: u32,
        },
        /// A task finished executing.
        TaskFinish = "task_finish" {
            /// Virtual time.
            t: Ns,
            /// Task id.
            task: u32,
            /// Task class id.
            class: u32,
            /// Execution window.
            window: u32,
        },
        /// A ready task waited on the policy layer before starting (exposed
        /// migration cost, planning charge, or synchronous-migration block).
        DispatchStall = "dispatch_stall" {
            /// Virtual time the task could otherwise have started.
            t: Ns,
            /// Task id.
            task: u32,
            /// How long it waited, ns.
            stall_ns: Ns,
        },
        /// First task of an execution window started.
        WindowStart = "window_start" {
            /// Virtual time.
            t: Ns,
            /// Window index.
            window: u32,
        },
        /// Per-tier occupancy sampled at a window boundary.
        TierSample = "tier_sample" {
            /// Virtual time.
            t: Ns,
            /// Window index.
            window: u32,
            /// Bytes used in DRAM.
            dram_used: u64,
            /// DRAM capacity in bytes.
            dram_capacity: u64,
            /// Bytes used in NVM.
            nvm_used: u64,
            /// NVM capacity in bytes.
            nvm_capacity: u64,
            /// Promotions currently in flight on the copy channel.
            inflight: u32,
        },
        /// The driver put a migration on the copy channel.
        MigrationIssued = "migration_issued" {
            /// Virtual time of the request.
            t: Ns,
            /// Memory unit that moves.
            object: u32,
            /// Bytes to copy.
            bytes: u64,
            /// Source tier.
            from: Tier,
            /// Destination tier.
            to: Tier,
            /// When the copy starts on the (FIFO) channel.
            start: Ns,
            /// When the copy finishes.
            finish: Ns,
            /// Promotions already in flight when this one was issued.
            queue_depth: u32,
        },
        /// A promotion's copy finished and its residency flip was applied.
        MigrationCompleted = "migration_completed" {
            /// Virtual time the flip applied.
            t: Ns,
            /// Memory unit that moved.
            object: u32,
            /// Bytes copied.
            bytes: u64,
            /// Channel time hidden behind execution, ns.
            overlap_ns: Ns,
        },
        /// A matured promotion could not be applied (destination still full);
        /// it stays queued and retries.
        MigrationDeferred = "migration_deferred" {
            /// Virtual time of the failed apply.
            t: Ns,
            /// Memory unit whose flip was deferred.
            object: u32,
        },
        /// Profiling was armed: windows `< until_window` will be profiled.
        ProfilingArmed = "profiling_armed" {
            /// Virtual time.
            t: Ns,
            /// Window at which profiling was armed.
            window: u32,
            /// First window that will not be profiled.
            until_window: u32,
        },
        /// Profiling closed and planning ran on the learned profile.
        ProfilingClosed = "profiling_closed" {
            /// Virtual time.
            t: Ns,
            /// Window at which the profile was consumed.
            window: u32,
        },
        /// The planner computed (or declined) a placement plan.
        PlanComputed = "plan_computed" {
            /// Virtual time.
            t: Ns,
            /// Window the plan starts at.
            window: u32,
            /// `"global"` or `"local"` — which search produced the winner.
            kind: &'static str,
            /// Candidate (object × window) pairs weighed.
            candidates: u32,
            /// Transitions the accepted plan schedules.
            migrations: u32,
            /// The winner's predicted knapsack gain, ns.
            predicted_gain_ns: Ns,
            /// Do-nothing baseline value the plan had to beat, ns.
            baseline_ns: Ns,
            /// Whether the plan beat the hysteresis margin (false = placement
            /// frozen instead).
            accepted: bool,
        },
        /// Workload variation (or an unseen class) re-armed profiling.
        ReplanTriggered = "replan_triggered" {
            /// Virtual time.
            t: Ns,
            /// Window at which the trigger fired.
            window: u32,
            /// What tripped it.
            reason: ReplanReason,
        },
        /// A one-shot overhead charge was applied to the timeline.
        OverheadCharged = "overhead_charged" {
            /// Virtual time of the charge.
            t: Ns,
            /// Which bucket.
            kind: OverheadKind,
            /// Nanoseconds charged.
            ns: Ns,
        },
        /// A real (`mmap`) tier arena was mapped. `t` is wall-clock ns since
        /// the measured run's epoch; real-substrate events use wall time on
        /// the same axis the virtual events use virtual time.
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
            /// The tenant's declared DRAM demand (bytes of positive-value
            /// objects) the demand-proportional split saw.
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
        let e = Event::WindowStart { t: 42.0, window: 3 };
        assert_eq!(e.timestamp(), 42.0);
        assert_eq!(e.kind(), "window_start");
        let e = Event::MigrationDeferred { t: 7.0, object: 1 };
        assert_eq!(e.timestamp(), 7.0);
        assert_eq!(e.kind(), "migration_deferred");
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
        assert_eq!(ReplanReason::Drift.tag(), "drift");
        assert_eq!(ReplanReason::UnseenClass.tag(), "unseen_class");
        assert_eq!(OverheadKind::Planning.tag(), "planning");
    }
}
