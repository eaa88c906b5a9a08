//! Analytic performance models of the Tahoe reproduction.
//!
//! These are the paper's lightweight equations, evaluated on *profiled
//! estimates* (not ground truth):
//!
//! 1. **Bandwidth consumption** (Eq. 1) — bytes accessed over active time,
//!    computed by the profiler; reproduced here as the input to
//!    sensitivity classification.
//! 2. **Sensitivity classification** — consumed bandwidth ≥ `t1`·peak(NVM)
//!    ⇒ bandwidth-sensitive; ≤ `t2`·peak ⇒ latency-sensitive; otherwise
//!    mixed (the benefit is the max of both models).
//! 3. **DRAM benefit** (Eqs. 4–5) — predicted time saved by serving the
//!    traffic from DRAM instead of NVM, with **separate load and store
//!    terms** because NVM is read/write-asymmetric, each corrected by the
//!    calibrated constant factor. The read/write-blind variants (Eqs. 2–3)
//!    are also provided for the ablation experiment.
//! 4. **Migration cost** (Eq. 6) — copy time minus the part that overlaps
//!    with execution, floored at zero.
//! 5. **Task-time prediction** — roofline combination of the corrected
//!    bandwidth and latency terms, used to compare placement plans.

// Pure arithmetic over profiled estimates: safe by construction.
#![forbid(unsafe_code)]

pub mod benefit;
pub mod cost;
pub mod demand;
pub mod params;
pub mod predict;
pub mod sensitivity;

pub use benefit::dram_benefit_ns;
pub use cost::migration_cost_ns;
pub use demand::Demand;
pub use params::{T_HIGH, T_LOW, VARIATION_THRESHOLD};
pub use predict::predicted_mem_time_ns;
pub use sensitivity::{classify, Sensitivity};
