//! Property tests for the performance models.

use proptest::prelude::*;

use tahoe_hms::presets;
use tahoe_memprof::Calibration;
use tahoe_perfmodel::{
    classify, dram_benefit_ns, migration_cost_ns, predicted_mem_time_ns, Demand, Sensitivity,
    T_HIGH, T_LOW,
};

fn demand_strategy() -> impl Strategy<Value = Demand> {
    (0.0f64..1e7, 0.0f64..1e7, 1.0f64..1e8, 1.0f64..32.0).prop_map(
        |(loads, stores, active_ns, concurrency)| Demand {
            loads,
            stores,
            active_ns,
            concurrency,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn benefit_nonnegative_when_nvm_uniformly_slower(
        d in demand_strategy(),
        bw_frac in 0.05f64..1.0,
        lat_mult in 1.0f64..20.0,
    ) {
        let dram = presets::dram(1 << 30);
        let nvm = dram
            .scale_bandwidth(bw_frac)
            .unwrap()
            .scale_latency(lat_mult)
            .unwrap();
        let calib = Calibration::identity(2.0, 9.5);
        let b = dram_benefit_ns(&d, &nvm, &dram, &calib, true);
        prop_assert!(b >= -1e-6, "negative benefit {b} on uniformly slower NVM");
    }

    #[test]
    fn predicted_time_monotone_in_demand(
        d in demand_strategy(),
        extra in 1.0f64..1e6,
    ) {
        let nvm = presets::optane_pmm(1 << 30);
        let calib = Calibration::identity(2.3, 9.5);
        let mut bigger = d;
        bigger.loads += extra;
        prop_assert!(
            predicted_mem_time_ns(&bigger, &nvm, &calib, true)
                >= predicted_mem_time_ns(&d, &nvm, &calib, true) - 1e-9
        );
        let mut more_stores = d;
        more_stores.stores += extra;
        prop_assert!(
            predicted_mem_time_ns(&more_stores, &nvm, &calib, true)
                >= predicted_mem_time_ns(&d, &nvm, &calib, true) - 1e-9
        );
    }

    #[test]
    fn higher_concurrency_never_predicts_slower(
        d in demand_strategy(),
        boost in 1.0f64..8.0,
    ) {
        let nvm = presets::pcram(1 << 30);
        let calib = Calibration::identity(0.4, 9.5);
        let mut faster = d;
        faster.concurrency = d.concurrency * boost;
        prop_assert!(
            predicted_mem_time_ns(&faster, &nvm, &calib, true)
                <= predicted_mem_time_ns(&d, &nvm, &calib, true) + 1e-9
        );
    }

    #[test]
    fn classification_is_total_and_threshold_consistent(
        d in demand_strategy(),
        peak in 0.1f64..20.0,
    ) {
        let class = classify(&d, peak);
        let bw = d.consumed_bw_gbps();
        match class {
            Sensitivity::Bandwidth => prop_assert!(bw >= T_HIGH * peak - 1e-9),
            Sensitivity::Latency => prop_assert!(bw <= T_LOW * peak + 1e-9),
            Sensitivity::Mixed => {
                prop_assert!(bw > T_LOW * peak - 1e-9);
                prop_assert!(bw < T_HIGH * peak + 1e-9);
            }
        }
    }

    #[test]
    fn migration_cost_laws(
        bytes in 0u64..100_000_000,
        copy_bw in 0.1f64..20.0,
        overlap in 0.0f64..1e9,
    ) {
        let c = migration_cost_ns(bytes, copy_bw, overlap);
        prop_assert!(c >= 0.0);
        prop_assert!(c <= bytes as f64 / copy_bw + 1e-9);
        // More overlap can only reduce cost.
        let c2 = migration_cost_ns(bytes, copy_bw, overlap + 1000.0);
        prop_assert!(c2 <= c + 1e-9);
    }

    #[test]
    fn demand_add_preserves_totals_and_mean_concurrency_bounds(
        a in demand_strategy(),
        b in demand_strategy(),
    ) {
        let c = a.add(&b);
        prop_assert!((c.loads - a.loads - b.loads).abs() < 1e-6);
        prop_assert!((c.stores - a.stores - b.stores).abs() < 1e-6);
        let lo = a.concurrency.min(b.concurrency);
        let hi = a.concurrency.max(b.concurrency);
        prop_assert!(c.concurrency >= lo - 1e-9 && c.concurrency <= hi + 1e-9);
    }

    #[test]
    fn scaling_demand_scales_prediction(
        d in demand_strategy(),
        f in 0.1f64..1.0,
    ) {
        let nvm = presets::optane_pmm(1 << 30);
        let calib = Calibration::identity(2.3, 9.5);
        let whole = predicted_mem_time_ns(&d, &nvm, &calib, true);
        let part = predicted_mem_time_ns(&d.scale(f), &nvm, &calib, true);
        prop_assert!((part - whole * f).abs() <= 1e-6 * whole.max(1.0));
    }
}
