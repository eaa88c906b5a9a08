//! Submission drivers for experiments: closed-loop and open-loop
//! tenant load generators over [`TenantHandle`]s.
//!
//! The fairness bench runs both shapes: closed-loop (each tenant
//! resubmits the moment its previous graph completes — the saturating
//! steady state where arbitration matters most) and a back-to-back
//! open-loop burst (submissions arrive regardless of completion, so a
//! bounded queue must shed).

use crate::server::{GraphOutcome, Submission, TenantHandle};

/// Per-tenant deterministic seed for driver-submitted graphs: every
/// graph of a tenant uses the same seed, so each outcome's checksum
/// can be validated against the tenant's solo reference directly.
pub fn tenant_seed(base_seed: u64, tenant: u32) -> u64 {
    base_seed.wrapping_add(tenant as u64)
}

/// Closed-loop drive: one submitter thread per handle, each running
/// `graphs` back-to-back submit→wait cycles with
/// [`tenant_seed`]`(base_seed, tenant)`. Returns every outcome
/// (completion order within a tenant, tenants interleaved
/// arbitrarily). Closed-loop submissions are never shed: a tenant
/// only submits once its previous graph finished.
pub fn closed_loop(handles: &[&TenantHandle], graphs: usize, base_seed: u64) -> Vec<GraphOutcome> {
    let mut out = Vec::with_capacity(handles.len() * graphs);
    std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .iter()
            .map(|h| {
                scope.spawn(move || {
                    let seed = tenant_seed(base_seed, h.tenant());
                    let mut mine = Vec::with_capacity(graphs);
                    for _ in 0..graphs {
                        match h.submit(seed) {
                            Submission::Admitted(t) | Submission::Queued(t) => mine.push(t.wait()),
                            Submission::Shed { tenant, graph } => {
                                unreachable!("closed-loop shed: tenant {tenant} graph {graph}")
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        for j in joins {
            out.extend(j.join().expect("driver thread"));
        }
    });
    out
}

/// Time-bounded pipelined closed loop: every tenant keeps `depth`
/// submissions in flight and resubmits on each completion until
/// `duration` elapses, then drains what is still in flight. Unlike a
/// fixed-graph-count loop, fast tenants never exit early — slow
/// tenants stay contended for the whole window, so per-tenant latency
/// distributions reflect sustained sharing rather than a tail where
/// the winners already left. Requires `depth - 1 <=` the server's
/// `max_queue` — within that bound a submission is never shed, and the
/// driver panics if one is.
pub fn closed_loop_timed(
    handles: &[&TenantHandle],
    duration: std::time::Duration,
    depth: usize,
    base_seed: u64,
) -> Vec<GraphOutcome> {
    assert!(depth >= 1, "pipeline depth must be at least 1");
    let deadline = std::time::Instant::now() + duration;
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .iter()
            .map(|h| {
                scope.spawn(move || {
                    let seed = tenant_seed(base_seed, h.tenant());
                    let submit = || match h.submit(seed) {
                        Submission::Admitted(t) | Submission::Queued(t) => t,
                        Submission::Shed { tenant, .. } => unreachable!(
                            "timed-loop shed: tenant {tenant} \
                             (depth exceeds the server's queue bound?)"
                        ),
                    };
                    let mut inflight: std::collections::VecDeque<_> =
                        (0..depth).map(|_| submit()).collect();
                    let mut mine = Vec::new();
                    while let Some(t) = inflight.pop_front() {
                        mine.push(t.wait());
                        if std::time::Instant::now() < deadline {
                            inflight.push_back(submit());
                        }
                    }
                    mine
                })
            })
            .collect();
        for j in joins {
            out.extend(j.join().expect("driver thread"));
        }
    });
    out
}

/// Open-loop burst: submit `graphs` executions back-to-back without
/// waiting, then wait for everything that was accepted. Returns the
/// accepted outcomes and the number of submissions that were shed by
/// admission control.
pub fn burst(handle: &TenantHandle, graphs: usize, seed: u64) -> (Vec<GraphOutcome>, u64) {
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..graphs {
        match handle.submit(seed) {
            Submission::Admitted(t) | Submission::Queued(t) => tickets.push(t),
            Submission::Shed { .. } => shed += 1,
        }
    }
    (tickets.iter().map(|t| t.wait()).collect(), shed)
}

/// Warm a tenant up: run `graphs` solo submit→wait cycles so its
/// admission plan (and DRAM residency) reflects a running tenant
/// before other tenants join.
pub fn warmup(handle: &TenantHandle, graphs: usize, base_seed: u64) -> Vec<GraphOutcome> {
    let seed = tenant_seed(base_seed, handle.tenant());
    (0..graphs)
        .map(|_| {
            handle
                .submit(seed)
                .ticket()
                .expect("warmup never sheds: tenant is idle")
                .wait()
        })
        .collect()
}
