//! Placement policies: the paper's system and every baseline it is
//! compared against.

/// Ablation and feature switches of the Tahoe policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TahoeOptions {
    /// Consider per-window local search.
    pub local_search: bool,
    /// Consider cross-window global search.
    pub global_search: bool,
    /// Decompose chunkable objects larger than the chunk size.
    pub chunking: bool,
    /// Use compiler-estimate-driven initial placement instead of starting
    /// everything in NVM.
    pub initial_placement: bool,
    /// Proactive (helper-thread, overlapped) migration; when off,
    /// migrations are synchronous and fully exposed.
    pub proactive: bool,
    /// Distinguish loads from stores in the models (Eqs. 4–5 vs 2–3).
    pub distinguish_rw: bool,
    /// Look-ahead depth (tasks) for ordering proactive migrations.
    pub lookahead: usize,
}

impl Default for TahoeOptions {
    fn default() -> Self {
        TahoeOptions {
            local_search: true,
            global_search: true,
            chunking: true,
            initial_placement: true,
            proactive: true,
            distinguish_rw: true,
            lookahead: 16,
        }
    }
}

/// A data-placement policy.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Everything in DRAM (upper bound; ignores the DRAM budget).
    DramOnly,
    /// Everything in NVM (lower bound).
    NvmOnly,
    /// Allocation-order fill: DRAM until full, then NVM; never migrate.
    FirstTouch,
    /// DRAM as a hardware-managed cache in front of NVM (Optane "Memory
    /// Mode" / DRAM-cache baseline). No application knowledge.
    HwCache,
    /// Offline-profiled static placement (X-Mem-like): perfect profile of
    /// the whole run, one knapsack, objects placed before execution, no
    /// migration, no adaptation.
    StaticOffline,
    /// Pin an explicit set of app objects in DRAM (rest in NVM), never
    /// migrate — the per-object placement-motivation experiment.
    Pinned(Vec<tahoe_hms::ObjectId>),
    /// The paper's runtime.
    Tahoe(TahoeOptions),
}

impl PolicyKind {
    /// The full Tahoe policy with default options.
    pub fn tahoe() -> Self {
        PolicyKind::Tahoe(TahoeOptions::default())
    }

    /// Short display name for tables.
    pub fn name(&self) -> String {
        match self {
            PolicyKind::DramOnly => "DRAM-only".into(),
            PolicyKind::NvmOnly => "NVM-only".into(),
            PolicyKind::FirstTouch => "first-touch".into(),
            PolicyKind::HwCache => "hw-cache".into(),
            PolicyKind::StaticOffline => "static-offline".into(),
            PolicyKind::Pinned(objs) => format!("pinned({})", objs.len()),
            PolicyKind::Tahoe(o) => {
                let mut name = String::from("tahoe");
                for (on, tag) in [
                    (o.local_search, "-local"),
                    (o.global_search, "-global"),
                    (o.chunking, "-chunk"),
                    (o.initial_placement, "-init"),
                    (o.proactive, "-proactive"),
                    (o.distinguish_rw, "-rw"),
                ] {
                    if !on {
                        name.push_str(tag);
                    }
                }
                if o.lookahead != TahoeOptions::default().lookahead {
                    name.push_str(&format!("-la{}", o.lookahead));
                }
                name
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let opts = TahoeOptions {
            proactive: false,
            ..TahoeOptions::default()
        };
        let shallow = TahoeOptions {
            lookahead: 1,
            ..TahoeOptions::default()
        };
        let names = [
            PolicyKind::DramOnly.name(),
            PolicyKind::NvmOnly.name(),
            PolicyKind::FirstTouch.name(),
            PolicyKind::HwCache.name(),
            PolicyKind::StaticOffline.name(),
            PolicyKind::tahoe().name(),
            PolicyKind::Tahoe(opts).name(),
            PolicyKind::Tahoe(shallow).name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(PolicyKind::tahoe().name(), "tahoe");
    }

    #[test]
    fn ablated_name_mentions_the_switch() {
        let o = TahoeOptions {
            distinguish_rw: false,
            ..TahoeOptions::default()
        };
        assert!(PolicyKind::Tahoe(o).name().contains("-rw"));
    }
}
