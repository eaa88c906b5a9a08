//! # tahoe-repro
//!
//! A from-scratch Rust reproduction of *"Runtime Data Management on
//! Non-Volatile Memory-Based Heterogeneous Memory for Task-Parallel
//! Programs"* (Wu, Ren, Li — SC 2018): a runtime that transparently
//! decides which data objects of a task-parallel program live in the
//! small/fast DRAM tier and which in the large/slow NVM tier, using
//! online sampled profiling, calibrated analytic models, knapsack
//! placement and proactive (overlapped) migration.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`hms`] (tahoe-hms) | two-tier memory substrate: device models, allocator, timing, migration channel |
//! | [`taskrt`] (tahoe-taskrt) | task graphs with derived dependences, virtual-time scheduler, real work-stealing executor |
//! | [`memprof`] (tahoe-memprof) | sampling-profiler emulation and platform calibration |
//! | [`perfmodel`] (tahoe-perfmodel) | sensitivity classification, benefit/cost equations, time prediction |
//! | [`placement`] (tahoe-placement) | knapsack solvers, local/global search |
//! | [`core`] (tahoe-core) | the Tahoe runtime and every baseline policy |
//! | [`workloads`] (tahoe-workloads) | ten task-parallel evaluation workloads |
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the reproduction results. The
//! experiment harness lives in `crates/bench` (`cargo run -p tahoe-bench
//! --release --bin exp -- all`).

pub use tahoe_core as core;
pub use tahoe_hms as hms;
pub use tahoe_memprof as memprof;
pub use tahoe_perfmodel as perfmodel;
pub use tahoe_placement as placement;
pub use tahoe_taskrt as taskrt;
pub use tahoe_workloads as workloads;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use tahoe_core::prelude::*;
    pub use tahoe_workloads::Scale;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let p = Platform::optane(1 << 20, 1 << 30);
        let _rt = Runtime::new(p, RuntimeConfig::default());
    }
}
