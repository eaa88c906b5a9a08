//! Violation taxonomy and the deterministic sanitize report.

/// Classification of a sanitizer finding.
///
/// The first five kinds are produced by the static graph verifier
/// ([`crate::verify`]); the next four by the dynamic access sanitizer
/// ([`crate::dynamic`]); the final six by the static plan auditor
/// ([`crate::plan`]). Tags are stable snake_case strings used in obs
/// events, `BENCH_sanitize.json`, `BENCH_verify.json` and the benchgate
/// schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// The graph's dependence edges form a cycle: execution would
    /// deadlock with every task waiting on the others.
    DependencyCycle,
    /// Two tasks access the same object, at least one writes, and no
    /// happens-before path orders them: a declared race.
    UnorderedConflict,
    /// A task accesses an object that was never allocated or was freed
    /// before the task's window.
    UseAfterFree,
    /// The live footprint exceeds the combined capacity of both tiers:
    /// no placement can run this plan.
    InfeasibleFootprint,
    /// An access was declared but carries no memory traffic: it orders
    /// the graph without ever executing (stale annotation).
    DeadDeclaration,
    /// A task touched an object it never declared, so the dependence
    /// tracker derived no ordering for it.
    UndeclaredAccess,
    /// A task stores to an object it declared `Read`: the tracker
    /// derived reader edges only, so the writes are unordered.
    WriteUnderRead,
    /// A task accessed an object while a background migration of it was
    /// in flight (`begin_move` without `commit_move`).
    MidMoveAccess,
    /// The migrator started copying an object that still had live pins.
    PinnedCopy,
    /// A plan step (or the initial placement) overflows a paid tier's
    /// capacity at some point of the plan schedule, counting the
    /// transient double-residency of the two-phase copy.
    PlanOverCapacity,
    /// A planned move is not happens-before-ordered against an
    /// undeclared access of the same object: under some legal
    /// interleaving the copy races the access.
    PlanMoveRace,
    /// A plan step targets a tier index outside the configured tier
    /// list.
    PlanUnknownTier,
    /// A plan step moves an object that was never allocated or is freed
    /// before the step's window.
    PlanDeadObject,
    /// A plan moves the same object more than once within one window:
    /// the second move races the first's two-phase copy.
    PlanDoubleMove,
    /// The plan's modelled (contention-free) runtime exceeds the
    /// no-plan baseline: the plan is feasible but counterproductive.
    PlanCostRegression,
}

/// One table names every kind twice — its tag and its metrics counter —
/// so a kind added without both fails to compile (the matches are
/// exhaustive) instead of silently counting under a catch-all key.
macro_rules! kind_names {
    ($($variant:ident => $tag:literal,)*) => {
        /// Stable snake_case tag.
        pub fn tag(&self) -> &'static str {
            match self {
                $(ViolationKind::$variant => $tag,)*
            }
        }

        /// Metrics counter the kind is counted under:
        /// `sanitize.violations.<tag>` (the registry keys on
        /// `&'static str`).
        pub fn counter_key(&self) -> &'static str {
            match self {
                $(ViolationKind::$variant => concat!("sanitize.violations.", $tag),)*
            }
        }
    };
}

impl ViolationKind {
    /// Every kind, in canonical (report/JSON) order.
    pub const ALL: [ViolationKind; 15] = [
        ViolationKind::DependencyCycle,
        ViolationKind::UnorderedConflict,
        ViolationKind::UseAfterFree,
        ViolationKind::InfeasibleFootprint,
        ViolationKind::DeadDeclaration,
        ViolationKind::UndeclaredAccess,
        ViolationKind::WriteUnderRead,
        ViolationKind::MidMoveAccess,
        ViolationKind::PinnedCopy,
        ViolationKind::PlanOverCapacity,
        ViolationKind::PlanMoveRace,
        ViolationKind::PlanUnknownTier,
        ViolationKind::PlanDeadObject,
        ViolationKind::PlanDoubleMove,
        ViolationKind::PlanCostRegression,
    ];

    kind_names! {
        DependencyCycle => "dependency_cycle",
        UnorderedConflict => "unordered_conflict",
        UseAfterFree => "use_after_free",
        InfeasibleFootprint => "infeasible_footprint",
        DeadDeclaration => "dead_declaration",
        UndeclaredAccess => "undeclared_access",
        WriteUnderRead => "write_under_read",
        MidMoveAccess => "mid_move_access",
        PinnedCopy => "pinned_copy",
        PlanOverCapacity => "plan_over_capacity",
        PlanMoveRace => "plan_move_race",
        PlanUnknownTier => "plan_unknown_tier",
        PlanDeadObject => "plan_dead_object",
        PlanDoubleMove => "plan_double_move",
        PlanCostRegression => "plan_cost_regression",
    }
}

/// One sanitizer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What class of defect this is.
    pub kind: ViolationKind,
    /// Offending task id, when the defect is attributable to one task
    /// (for pair defects: the later task in submission order, so the
    /// attribution is schedule-independent).
    pub task: Option<u32>,
    /// Offending object (app index), when object-attributable.
    pub object: Option<u32>,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    fn sort_key(&self) -> (ViolationKind, u32, u32, &str) {
        (
            self.kind,
            self.task.unwrap_or(u32::MAX),
            self.object.unwrap_or(u32::MAX),
            &self.detail,
        )
    }
}

/// Deterministic summary of a sanitize pass.
///
/// Violations are kept in canonical order (kind, task, object, detail),
/// so two runs of the same workload — at any worker count, under any
/// schedule — produce identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// All findings, canonically ordered.
    pub violations: Vec<Violation>,
    /// Accesses the dynamic sanitizer shadowed (0 for static-only runs).
    pub accesses_checked: u64,
}

impl SanitizeReport {
    /// A report with the given findings, canonically sorted.
    pub fn new(mut violations: Vec<Violation>) -> Self {
        violations.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        SanitizeReport {
            violations,
            accesses_checked: 0,
        }
    }

    /// Whether the pass found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of findings of one kind.
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.violations.iter().filter(|v| v.kind == kind).count() as u64
    }

    /// `(tag, count)` for every kind in canonical order, zeros included
    /// (fixed keys make exact-equality gating trivial).
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        ViolationKind::ALL
            .iter()
            .map(|k| (k.tag(), self.count(*k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(kind: ViolationKind, task: u32, object: u32) -> Violation {
        Violation {
            kind,
            task: Some(task),
            object: Some(object),
            detail: format!("{} t{task} o{object}", kind.tag()),
        }
    }

    #[test]
    fn tags_are_unique_and_snake_case() {
        let tags: Vec<_> = ViolationKind::ALL.iter().map(|k| k.tag()).collect();
        let mut dedup = tags.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ViolationKind::ALL.len());
        for t in tags {
            assert!(t.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn every_kind_has_its_own_counter_key() {
        let keys: std::collections::BTreeSet<_> =
            ViolationKind::ALL.iter().map(|k| k.counter_key()).collect();
        assert_eq!(keys.len(), ViolationKind::ALL.len(), "keys are distinct");
        for k in ViolationKind::ALL {
            assert_eq!(
                k.counter_key(),
                format!("sanitize.violations.{}", k.tag()),
                "the key is the tag under the violations namespace, never a catch-all"
            );
        }
    }

    #[test]
    fn report_orders_canonically_regardless_of_insertion() {
        let a = SanitizeReport::new(vec![
            v(ViolationKind::WriteUnderRead, 3, 0),
            v(ViolationKind::UnorderedConflict, 1, 2),
            v(ViolationKind::UnorderedConflict, 1, 0),
        ]);
        let b = SanitizeReport::new(vec![
            v(ViolationKind::UnorderedConflict, 1, 0),
            v(ViolationKind::WriteUnderRead, 3, 0),
            v(ViolationKind::UnorderedConflict, 1, 2),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.violations[0].kind, ViolationKind::UnorderedConflict);
        assert_eq!(a.count(ViolationKind::UnorderedConflict), 2);
        assert!(!a.is_clean());
    }

    #[test]
    fn by_kind_has_fixed_keys_with_zeros() {
        let r = SanitizeReport::default();
        let counts = r.by_kind();
        assert_eq!(counts.len(), 15);
        assert!(counts.iter().all(|(_, n)| *n == 0));
        assert_eq!(counts[0].0, "dependency_cycle");
        assert_eq!(counts[9].0, "plan_over_capacity");
        assert_eq!(counts[14].0, "plan_cost_regression");
    }
}
