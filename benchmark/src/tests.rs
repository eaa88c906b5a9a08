//! Cross-module tests: generator determinism, the pinned calibration,
//! and a short smoke of every workload.

use tahoe_core::measured::reference_checksum_seeded;

use crate::manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{run_one, RunConfig};
use crate::{batch, gen};

#[test]
fn same_seed_same_input_other_seed_other_input() {
    for w in ["stream_bw", "mixed_skew", "plan_heavy"] {
        let (a, b, c) = (
            batch::generate(w, 7).unwrap(),
            batch::generate(w, 7).unwrap(),
            batch::generate(w, 8).unwrap(),
        );
        assert_eq!(gen::app_digest(&a.app), gen::app_digest(&b.app), "{w}");
        assert_eq!(a.run_seed, b.run_seed, "{w}");
        assert_ne!(a.run_seed, c.run_seed, "{w}");
        // Same multiset of sizes whatever the seed: the footprint (and
        // with it the DRAM budget) is not a random variable.
        assert_eq!(a.app.footprint(), c.app.footprint(), "{w}");
        assert_eq!(a.app.graph.len(), c.app.graph.len(), "{w}");
    }
    // The shape itself moves with the seed where the generator draws it.
    let (a, c) = (gen::mixed_skew(7), gen::mixed_skew(8));
    assert_ne!(gen::app_digest(&a.app), gen::app_digest(&c.app));
    let (t, u) = (gen::tenant_app(7, 0), gen::tenant_app(7, 0));
    assert_eq!(gen::app_digest(&t), gen::app_digest(&u));
    assert_ne!(gen::graph_seed(7, 0, 1), gen::graph_seed(7, 1, 1));
    assert_ne!(gen::graph_seed(7, 0, 1), gen::graph_seed(7, 0, 2));
}

#[test]
fn reference_checksum_follows_the_seed() {
    let a = gen::tenant_app(3, 1);
    let (s1, s2) = (gen::graph_seed(3, 1, 0), gen::graph_seed(3, 1, 1));
    assert_eq!(
        reference_checksum_seeded(&a, s1),
        reference_checksum_seeded(&gen::tenant_app(3, 1), s1)
    );
    assert_ne!(
        reference_checksum_seeded(&a, s1),
        reference_checksum_seeded(&a, s2)
    );
}

#[test]
fn workload_shapes_are_the_documented_ones() {
    let s = gen::stream_bw(1).app;
    assert_eq!((s.objects.len(), s.windows()), (96, 10));
    assert_eq!(s.footprint(), 96 << 20);
    // 8 hot triads every window + 6 of the 24 cold ones.
    assert_eq!(s.graph.len(), 140);
    let m = gen::mixed_skew(1).app;
    assert_eq!(m.objects.len(), gen::MIXED_OBJECTS);
    let (lo, hi) = m.objects.iter().fold((u64::MAX, 0), |(lo, hi), o| {
        (lo.min(o.size), hi.max(o.size))
    });
    assert_eq!((lo, hi), (40 << 10, 2560 << 10));
    let p = gen::plan_heavy(1).app;
    assert_eq!((p.objects.len(), p.graph.len()), (8192, 24_576));
    assert_eq!(p.footprint(), 64 << 20);
    let t = gen::tenant_app(1, 2);
    assert_eq!((t.objects.len(), t.footprint()), (16, 4 << 20));
}

#[test]
fn pinned_calibration_is_valid_and_fixed() {
    let cal = gen::pinned_calibration(24 << 20, 192 << 20);
    cal.dram.validate().unwrap();
    cal.nvm.validate().unwrap();
    assert_eq!((cal.cf_bw, cal.cf_lat), (1.0, 1.0));
    assert_eq!(cal.dram.capacity, 24 << 20);
    assert_eq!(cal, gen::pinned_calibration(24 << 20, 192 << 20));
    // Optane's asymmetry is what mixed_skew leans on.
    assert!(cal.nvm.write_bw_gbps < cal.nvm.read_bw_gbps);
    assert!(cal.nvm.read_bw_gbps < cal.dram.read_bw_gbps);
    assert_eq!(gen::dram_budget(96 << 20), 24 << 20);
}

/// Two seconds of each workload: every operation must succeed and every
/// promised metric must come out.
fn smoke(workload: &str, trace: bool) {
    let o = run_one(&RunConfig {
        workload: workload.into(),
        seed: 11,
        seconds: 2.0,
        trace,
    })
    .unwrap();
    assert_eq!(o.tally.failed, 0, "{workload}: {:?}", o.tally.reasons);
    assert!(o.tally.attempted >= 1);
    assert!(o.correct());
    let line = crate::json::J::parse(&o.result_line()).unwrap();
    let metrics = line.get("metrics").unwrap();
    let want = if trace { PER_LAYER } else { END_TO_END };
    assert_eq!(metrics.fields().len(), want.len());
    for m in want {
        let v = metrics.get(m.name).and_then(|e| e.get("value"));
        assert!(
            v.and_then(|v| v.as_f64()).is_some(),
            "{workload}: {}",
            m.name
        );
    }
    if !trace {
        for m in END_TO_END {
            assert!(o.metrics[m.name].value > 0.0, "{workload}: {} is 0", m.name);
        }
    } else {
        assert_eq!(o.metrics["sanitize.violations"].value, 0.0);
        for (name, why) in &o.not_measured {
            assert!(
                name.starts_with("server.") && workload != "serve_mix",
                "{workload}: {name} not measured: {why}"
            );
        }
    }
}

#[test]
fn smoke_stream_bw() {
    smoke("stream_bw", false);
}

#[test]
fn smoke_mixed_skew() {
    smoke("mixed_skew", false);
}

#[test]
fn smoke_plan_heavy() {
    smoke("plan_heavy", false);
}

#[test]
fn smoke_serve_mix() {
    smoke("serve_mix", false);
}

#[test]
fn smoke_traced_serve_mix_measures_every_layer() {
    smoke("serve_mix", true);
}

#[test]
fn workloads_are_the_four_named() {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        ["stream_bw", "mixed_skew", "plan_heavy", "serve_mix"]
    );
    assert!(run_one(&RunConfig {
        workload: "nope".into(),
        seed: 1,
        seconds: 2.0,
        trace: false
    })
    .is_err());
}
