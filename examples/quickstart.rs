//! Quickstart: declare objects and tasks, run Tahoe against the bounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tahoe_repro::prelude::*;

fn main() {
    // An iterative kernel: a hot streamed array, a cold history array,
    // and a pointer-chased index — the three behaviours the runtime must
    // tell apart.
    let mut b = AppBuilder::new("quickstart");
    let hot = b.object_chunkable("hot", 3 << 20);
    let cold = b.object("cold", 2 << 20);
    let index = b.object("index", 1 << 20);
    b.set_est_refs(hot, 3.2e6);
    // hot (3 MB) cannot fit the 2 MB DRAM whole: only chunked placement helps.
    b.set_est_refs(cold, 1.0e3);
    b.set_est_refs(index, 4.8e5);

    let sweep = b.class("sweep");
    let walk = b.class("walk");
    let iters = 10;
    for w in 0..iters {
        for _ in 0..4 {
            b.task(sweep)
                .update_streaming(hot, 8_000)
                .read_streaming(cold, 64)
                .compute_us(5.0)
                .submit();
            b.task(walk)
                .read_chasing(index, 1_200)
                .compute_us(2.0)
                .submit();
        }
        if w + 1 < iters {
            b.next_window();
        }
    }
    let app = b.build();

    // DRAM holds 2 MB of the 5 MB footprint; NVM is Optane-like.
    let platform = Platform::optane(2 << 20, 1 << 30);
    let rt = Runtime::new(platform, RuntimeConfig::default());

    println!(
        "app: {} ({} tasks, {} windows, {:.1} MB footprint)\n",
        app.name,
        app.graph.len(),
        app.windows(),
        app.footprint() as f64 / 1e6
    );
    println!(
        "{:<16} {:>12} {:>10} {:>8} {:>10} {:>9}",
        "policy", "makespan(ms)", "vs DRAM", "migr", "overlap%", "ovhd%"
    );

    let dram = rt.run(&app, &PolicyKind::DramOnly);
    let policies = [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::FirstTouch,
        PolicyKind::HwCache,
        PolicyKind::StaticOffline,
        PolicyKind::tahoe(),
    ];
    for p in &policies {
        let r = rt.run(&app, p);
        println!(
            "{:<16} {:>12.3} {:>10.2} {:>8} {:>10.1} {:>9.2}",
            r.policy,
            r.makespan_ns / 1e6,
            r.slowdown_vs(dram.makespan_ns),
            r.migrations.count,
            r.pct_overlap(),
            r.overhead_pct(),
        );
    }

    let tahoe = rt.run(&app, &PolicyKind::tahoe());
    let nvm = rt.run(&app, &PolicyKind::NvmOnly);
    println!(
        "\nTahoe recovered {:.0}% of the DRAM↔NVM gap.",
        100.0 * tahoe.gap_recovery(dram.makespan_ns, nvm.makespan_ns)
    );
}
