//! One price per access: the table the engine injects its delays from
//! is the table both planners value residence by, and its one pass
//! reproduces, bit for bit, the two model passes it replaced (kept here
//! as the reference).

use proptest::prelude::*;
use tahoe_core::engine::{AccessPrices, GraphLayout};
use tahoe_core::prelude::*;
use tahoe_hms::{presets, ObjectId, TierSpec};
use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_placement::Touch;
use tahoe_taskrt::TaskAccess;

/// The model as the wall-clock side priced an access before the table:
/// memory time on `spec`, scaled by the correction factor of the side
/// of the roofline the access is on.
fn model_ns(a: &TaskAccess, spec: &TierSpec, cal: Option<&WallClockCalibration>) -> f64 {
    let cf = match cal {
        None => 1.0,
        Some(c) if a.profile.bandwidth_limited_on(spec) => c.cf_bw,
        Some(c) => c.cf_lat,
    };
    a.profile.mem_time_ns(spec) * cf
}

/// The whole-run values, one model pass.
fn reference_whole_run(
    app: &App,
    specs: &[TierSpec],
    cal: Option<&WallClockCalibration>,
) -> Vec<Vec<f64>> {
    let n = specs.len();
    let mut values = vec![vec![0.0f64; n]; app.objects.len()];
    for t in app.graph.tasks() {
        for a in &t.accesses {
            let on_last = model_ns(a, &specs[n - 1], cal);
            for (ti, spec) in specs.iter().enumerate().take(n - 1) {
                values[a.object.index()][ti] += (on_last - model_ns(a, spec, cal)).max(0.0);
            }
        }
    }
    values
}

/// The per-window values, a second model pass.
fn reference_by_window(
    app: &App,
    specs: &[TierSpec],
    cal: Option<&WallClockCalibration>,
) -> (Vec<Vec<Touch>>, Vec<f64>) {
    let (fastest, slowest) = (&specs[0], &specs[specs.len() - 1]);
    let mut touches: Vec<Vec<Touch>> = vec![Vec::new(); app.objects.len()];
    let mut spill_window_ns = vec![0.0f64; app.windows() as usize];
    let mut credited = vec![0usize; app.objects.len()];
    let price = |a: &TaskAccess| {
        let on_last = model_ns(a, slowest, cal);
        (on_last, (on_last - model_ns(a, fastest, cal)).max(0.0))
    };
    for t in app.graph.tasks() {
        let task_delay: f64 = t.accesses.iter().map(|a| price(a).1).sum();
        for a in &t.accesses {
            let (on_last, saved) = price(a);
            spill_window_ns[t.window as usize] += on_last;
            let row = &mut touches[a.object.index()];
            match row.last_mut() {
                Some(touch) if touch.window == t.window => touch.saved_ns += saved,
                _ => row.push(Touch {
                    window: t.window,
                    saved_ns: saved,
                    held_ns: 0.0,
                }),
            }
            if credited[a.object.index()] != t.id.index() + 1 {
                credited[a.object.index()] = t.id.index() + 1;
                row.last_mut().expect("pushed above").held_ns += task_delay;
            }
        }
    }
    (touches, spill_window_ns)
}

/// One declared access: object, kind (read / write / update stream,
/// chase), cache lines.
type Access = (usize, u8, u64);

/// An app over `objects` 64 KiB objects; each task opens a new window
/// first when its flag is set.
fn app(objects: usize, tasks: &[(bool, Vec<Access>)]) -> App {
    let mut b = AppBuilder::new("priced");
    let ids: Vec<_> = (0..objects)
        .map(|i| b.object(&format!("o{i}"), 64 << 10))
        .collect();
    let c = b.class("c");
    for (next_window, accesses) in tasks {
        if *next_window {
            b.next_window();
        }
        let mut t = b.task(c);
        for &(o, kind, lines) in accesses {
            let o = ids[o % objects];
            t = match kind {
                0 => t.read_streaming(o, lines),
                1 => t.write_streaming(o, lines),
                2 => t.update_streaming(o, lines),
                _ => t.read_chasing(o, lines),
            };
        }
        t.submit();
    }
    b.build()
}

/// Two- and three-tier lists, fastest first.
fn specs(which: u8) -> Vec<TierSpec> {
    let cal = WallClockCalibration::synthetic(1 << 20, 1 << 24);
    match which {
        0 => vec![presets::dram(1 << 20), presets::optane_pmm(1 << 24)],
        1 => vec![cal.dram, cal.nvm],
        _ => vec![
            presets::dram(1 << 20),
            presets::cxl(1 << 22),
            presets::optane_pmm(1 << 24),
        ],
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_table_prices_the_delay_and_both_planners(
        objects in 1usize..6,
        tasks in proptest::collection::vec(
            (
                proptest::bool::ANY,
                proptest::collection::vec((0usize..6, 0u8..4, 1u64..1025), 0..4),
            ),
            0..24,
        ),
        which in 0u8..3,
        calibrated in proptest::bool::ANY,
        cf in (0.25f64..4.0, 0.25f64..4.0),
    ) {
        let app = app(objects, &tasks);
        let specs = specs(which);
        let cal = calibrated.then(|| {
            let mut cal = WallClockCalibration::synthetic(1 << 20, 1 << 24);
            (cal.cf_bw, cal.cf_lat) = cf;
            cal
        });
        let prices = AccessPrices::new(&app.graph, &specs, cal.as_ref());
        // The table a layout of the graph accepts: one row per slot.
        let ids = (0..objects as u32).map(ObjectId).collect();
        GraphLayout::new(&app.graph, ids, prices.clone());

        // The delay `run_task` injects is the model's difference, on
        // every tier, for every slot (slots: accesses in task order).
        let accesses = app.graph.tasks().iter().flat_map(|t| &t.accesses);
        let last = TierId(specs.len() as u8 - 1);
        let mut delay_by_object = vec![0.0f64; objects];
        for (slot, a) in accesses.enumerate() {
            for (t, spec) in specs.iter().enumerate() {
                let model = (model_ns(a, spec, cal.as_ref()) - model_ns(a, &specs[0], cal.as_ref())).max(0.0);
                let injected = prices.delay_ns(slot, TierId(t as u8));
                prop_assert_eq!(injected.to_bits(), model.to_bits(), "slot {} tier {}", slot, t);
            }
            delay_by_object[a.object.index()] += prices.delay_ns(slot, last);
        }

        // The planners' values: the same pass, bit for bit, as the two
        // it replaced, and DRAM's column is the slow tier's delay.
        let values = prices.values(&app);
        let whole = reference_whole_run(&app, &specs, cal.as_ref());
        let (touches, spill) = reference_by_window(&app, &specs, cal.as_ref());
        for (i, (row, expect)) in values.per_tier.iter().zip(&whole).enumerate() {
            prop_assert_eq!(bits(row), bits(expect), "object {}", i);
            prop_assert_eq!(row[0].to_bits(), delay_by_object[i].to_bits(), "object {}", i);
        }
        prop_assert_eq!(values.touches.len(), touches.len());
        for (got, expect) in values.touches.iter().zip(&touches) {
            let key = |row: &[Touch]| {
                row.iter()
                    .map(|t| (t.window, t.saved_ns.to_bits(), t.held_ns.to_bits()))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(key(got), key(expect));
        }
        prop_assert_eq!(bits(&values.spill_window_ns), bits(&spill));
    }
}
