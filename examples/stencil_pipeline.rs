//! Heat-diffusion pipeline across NVM technologies.
//!
//! Runs the 2-D Jacobi stencil workload on every NVM device preset and on
//! Quartz-style emulation points, printing the DRAM-normalized slowdowns
//! with and without the Tahoe runtime — the "which memory could we ship
//! with?" question an HPC operator would ask.
//!
//! ```sh
//! cargo run --release --example stencil_pipeline
//! ```

use tahoe_repro::hms::presets;
use tahoe_repro::prelude::*;
use tahoe_repro::workloads::stencil;

fn main() {
    let app = stencil::app(Scale::Bench);
    let dram_budget = app.footprint() / 4;
    println!(
        "stencil: {} tasks, {} windows, {:.1} MB footprint, DRAM budget {:.1} MB\n",
        app.graph.len(),
        app.windows(),
        app.footprint() as f64 / 1e6,
        dram_budget as f64 / 1e6
    );

    let nvm_cap = 4 * app.footprint();
    let devices = [
        presets::stt_ram(nvm_cap),
        presets::pcram(nvm_cap),
        presets::reram(nvm_cap),
        presets::optane_pmm(nvm_cap),
        presets::emulated_bw(0.5, nvm_cap).unwrap(),
        presets::emulated_lat(4.0, nvm_cap).unwrap(),
    ];

    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>10}",
        "NVM device", "NVM-only", "tahoe", "recovered%", "migrations"
    );
    for nvm in devices {
        let dram = presets::dram(dram_budget);
        let copy = presets::copy_channel_gbps(&dram, &nvm);
        let platform = Platform::new(dram, nvm.clone(), copy);
        let rt = Runtime::new(platform, RuntimeConfig::default());

        let d = rt.run(&app, &PolicyKind::DramOnly);
        let n = rt.run(&app, &PolicyKind::NvmOnly);
        let t = rt.run(&app, &PolicyKind::tahoe());
        println!(
            "{:<18} {:>9.2}x {:>9.2}x {:>11.0}% {:>10}",
            nvm.name,
            n.slowdown_vs(d.makespan_ns),
            t.slowdown_vs(d.makespan_ns),
            100.0 * t.gap_recovery(d.makespan_ns, n.makespan_ns),
            t.migrations.count,
        );
    }
}
