//! The runtime facade: run an application under a policy and report.

use tahoe_taskrt::SimScheduler;

use crate::app::App;
use crate::config::{Platform, RuntimeConfig};
use crate::driver::Driver;
use crate::policy::PolicyKind;
use crate::report::RunReport;

/// Runs applications on a platform under selectable policies.
#[derive(Debug, Clone)]
pub struct Runtime {
    platform: Platform,
    config: RuntimeConfig,
}

impl Runtime {
    /// A runtime for `platform` with `config`.
    pub fn new(platform: Platform, config: RuntimeConfig) -> Self {
        Runtime { platform, config }
    }

    /// Execute `app` under `policy` and collect the report.
    pub fn run(&self, app: &App, policy: &PolicyKind) -> RunReport {
        app.validate().expect("invalid application");
        let mut driver = Driver::new(app, &self.platform, policy.clone());
        let stats = SimScheduler::new(self.config.workers).run(&app.graph, &mut driver);
        RunReport {
            app: app.name.clone(),
            policy: policy.name(),
            makespan_ns: stats.makespan_ns,
            utilization: stats.utilization(),
            stall_ns: stats.stall_ns,
            migrations: driver.migration_stats(),
            overhead: driver.overhead,
            plan_kind: driver.plan_kind(),
            replans: driver.replans,
            failed_promotions: driver.failed_promotions,
            tasks: stats.tasks_executed,
            windows: app.windows(),
            final_dram_objects: driver.dram_units(),
            wear: driver.wear,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::policy::TahoeOptions;

    /// A bandwidth-bound iterative app: one hot streamed array that does
    /// not fit DRAM together with a cold one.
    fn streaming_app(iters: u32) -> App {
        let mut b = AppBuilder::new("stream");
        let hot = b.object("hot", 1 << 20);
        let cold = b.object("cold", 1 << 20);
        b.set_est_refs(hot, 1.0e7);
        b.set_est_refs(cold, 1.0e2);
        let c = b.class("sweep");
        for w in 0..iters {
            for _ in 0..4 {
                b.task(c)
                    .update_streaming(hot, 50_000)
                    .read_streaming(cold, 16)
                    .compute_us(2.0)
                    .submit();
            }
            if w + 1 < iters {
                b.next_window();
            }
        }
        b.build()
    }

    /// A latency-bound app: pointer chasing through a linked structure.
    fn chasing_app(iters: u32) -> App {
        let mut b = AppBuilder::new("chase");
        let heap = b.object("heap", 1 << 20);
        b.set_est_refs(heap, 1.0e6);
        let c = b.class("walk");
        for w in 0..iters {
            for _ in 0..4 {
                b.task(c)
                    .read_chasing(heap, 20_000)
                    .compute_us(1.0)
                    .submit();
            }
            if w + 1 < iters {
                b.next_window();
            }
        }
        b.build()
    }

    fn platform() -> Platform {
        Platform::emulated_bw(0.25, 1 << 20, 1 << 30).unwrap()
    }

    fn rt() -> Runtime {
        Runtime::new(platform(), RuntimeConfig::default())
    }

    #[test]
    fn bounds_order_dram_fastest_nvm_slowest() {
        let app = streaming_app(6);
        let rt = rt();
        let dram = rt.run(&app, &PolicyKind::DramOnly);
        let nvm = rt.run(&app, &PolicyKind::NvmOnly);
        assert!(
            nvm.makespan_ns > 1.5 * dram.makespan_ns,
            "quarter-bandwidth NVM must hurt a streaming app: {} vs {}",
            nvm.makespan_ns,
            dram.makespan_ns
        );
    }

    #[test]
    fn tahoe_lands_between_bounds_and_close_to_dram() {
        let app = streaming_app(8);
        let rt = rt();
        let dram = rt.run(&app, &PolicyKind::DramOnly);
        let nvm = rt.run(&app, &PolicyKind::NvmOnly);
        let tahoe = rt.run(&app, &PolicyKind::tahoe());
        assert!(tahoe.makespan_ns < nvm.makespan_ns, "must beat NVM-only");
        assert!(tahoe.makespan_ns >= dram.makespan_ns * 0.999);
        let recovery = tahoe.gap_recovery(dram.makespan_ns, nvm.makespan_ns);
        assert!(
            recovery > 0.5,
            "expected to recover most of the gap, got {recovery}"
        );
    }

    #[test]
    fn tahoe_beats_nvm_on_latency_bound_app() {
        let app = chasing_app(8);
        let rt = Runtime::new(
            Platform::emulated_lat(4.0, 1 << 20, 1 << 30).unwrap(),
            RuntimeConfig::default(),
        );
        let dram = rt.run(&app, &PolicyKind::DramOnly);
        let nvm = rt.run(&app, &PolicyKind::NvmOnly);
        let tahoe = rt.run(&app, &PolicyKind::tahoe());
        assert!(nvm.makespan_ns > 2.0 * dram.makespan_ns);
        assert!(tahoe.gap_recovery(dram.makespan_ns, nvm.makespan_ns) > 0.5);
    }

    #[test]
    fn migrations_happen_and_are_reported() {
        // Start everything in NVM (no initial placement) so Tahoe must
        // migrate the hot object.
        let app = streaming_app(8);
        let rt = rt();
        let opts = TahoeOptions {
            initial_placement: false,
            ..TahoeOptions::default()
        };
        let rep = rt.run(&app, &PolicyKind::Tahoe(opts));
        assert!(rep.migrations.count >= 1, "expected at least one migration");
        assert!(rep.migrations.bytes >= 1 << 20);
        assert!(rep.final_dram_objects >= 1);
    }

    #[test]
    fn overhead_is_small() {
        let app = streaming_app(10);
        let rep = rt().run(&app, &PolicyKind::tahoe());
        assert!(
            rep.overhead_pct() < 5.0,
            "runtime overhead {}% too large",
            rep.overhead_pct()
        );
    }

    #[test]
    fn all_policies_complete_all_tasks() {
        let app = streaming_app(4);
        let rt = rt();
        for policy in [
            PolicyKind::DramOnly,
            PolicyKind::NvmOnly,
            PolicyKind::FirstTouch,
            PolicyKind::HwCache,
            PolicyKind::StaticOffline,
            PolicyKind::tahoe(),
        ] {
            let rep = rt.run(&app, &policy);
            assert_eq!(rep.tasks, app.graph.len() as u64, "{}", rep.policy);
            assert!(rep.makespan_ns > 0.0);
        }
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let app = streaming_app(6);
        let rt = rt();
        let a = rt.run(&app, &PolicyKind::tahoe());
        let b = rt.run(&app, &PolicyKind::tahoe());
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn wear_accounting_shields_stores_placed_in_dram() {
        let app = streaming_app(6);
        let rt = rt();
        let dram = rt.run(&app, &PolicyKind::DramOnly);
        let nvm = rt.run(&app, &PolicyKind::NvmOnly);
        // All stores land on the resident tier.
        assert_eq!(dram.wear.nvm_store_bytes, 0);
        assert_eq!(nvm.wear.dram_store_bytes, 0);
        assert_eq!(dram.write_shielding(), 1.0);
        assert_eq!(nvm.write_shielding(), 0.0);
        // Both see the same total store traffic.
        assert_eq!(dram.wear.total_store_bytes(), nvm.wear.total_store_bytes());
        // Tahoe shelters the hot (store-heavy) object: high shielding.
        let tahoe = rt.run(&app, &PolicyKind::tahoe());
        assert!(
            tahoe.write_shielding() > 0.9,
            "shielding {}",
            tahoe.write_shielding()
        );
    }

    #[test]
    fn proactive_overlaps_migrations() {
        let app = streaming_app(10);
        let rt = rt();
        let mut opts = TahoeOptions {
            initial_placement: false,
            ..TahoeOptions::default()
        };
        let pro = rt.run(&app, &PolicyKind::Tahoe(opts.clone()));
        opts.proactive = false;
        let sync = rt.run(&app, &PolicyKind::Tahoe(opts));
        if pro.migrations.count > 0 && sync.migrations.count > 0 {
            assert!(
                pro.pct_overlap() >= sync.pct_overlap(),
                "proactive {} should overlap at least as much as sync {}",
                pro.pct_overlap(),
                sync.pct_overlap()
            );
        }
        assert!(pro.makespan_ns <= sync.makespan_ns * 1.001);
    }
}
