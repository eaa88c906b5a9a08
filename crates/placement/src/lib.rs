//! Data-placement decision engine.
//!
//! Given per-object demand estimates, migration costs and the DRAM
//! capacity, choosing which objects to keep in DRAM is a 0/1 knapsack
//! over net weights `w = benefit − migration_cost − eviction_cost`
//! (the paper's formulation). This crate provides:
//!
//! * [`knapsack`] — an exact dynamic-programming solver and a
//!   density-greedy fallback, cross-checked against each other by
//!   property tests. The DP scales sizes up to a *grain* (at most 16383
//!   columns), divides them by their *gcd* (equal chunks collapse to one
//!   unit each) and skips the *band* of columns no reconstruction can
//!   reach; it keeps one take bit per cell. Its tie-break contract —
//!   strict `>`, earlier item wins — is what the digest-gated baselines
//!   pin; `tests/differential.rs` checks it against the plain loops.
//!   [`knapsack::solve`] skips the DP when the LP bound proves the
//!   density-greedy prefix the unique optimum, returning the same bits.
//! * [`weight`] — assembly of knapsack items from model outputs,
//!   including the paper's treatment of already-resident objects (no
//!   promotion cost) and of eviction pressure.
//! * [`search`] — the two planning strategies the paper combines:
//!   *per-window local search* (best placement for each execution window,
//!   more migrations) and *cross-window global search* (one placement for
//!   the whole run, at most one migration per object), and the predicted-
//!   gain comparison that picks between them.
//! * [`rotation`] — the per-window local search of the wall-clock
//!   runtime: residency *intervals* chosen against the global plan,
//!   each fetched one window ahead or in its first window, on a replay
//!   of the fast tier's real allocator, within the copy time each
//!   window can hide.
//! * [`mck`] — the N-tier generalization: a multiple-choice knapsack
//!   where each object picks exactly one tier of an ordered tier list
//!   (DRAM / CXL / … / NVM) under per-tier capacities. At two tiers it
//!   delegates to [`knapsack::solve`], so binary plans are unchanged.

// Pure combinatorial-optimization logic: no raw-memory access anywhere.
#![forbid(unsafe_code)]

pub mod bnb;
pub mod knapsack;
pub mod mck;
pub mod plan;
pub mod rotation;
pub mod search;
pub mod weight;

pub use bnb::solve_bnb;
pub use knapsack::{solve, Item, Solution};
pub use mck::{solve_mck, solve_mck_bnb, solve_mck_dp, solve_mck_greedy, MckAssignment, MckItem};
pub use plan::{Plan, PlanKind, WindowPlan};
pub use rotation::{
    follow, plan_rotation, CopyRate, Lead, PlanValues, Rotation, RotationInput, Schedule, Touch,
    WindowMoves,
};
pub use search::{choose_plan, global_plan, local_plan};
pub use weight::{ObjectCandidate, WeighCtx};
