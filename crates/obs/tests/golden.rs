//! Golden-file guard for the JSONL wire format.
//!
//! A fixed event sequence covering every variant must serialize to
//! exactly `tests/golden/events.jsonl`. Any change to field names, field
//! order or number formatting shows up as a diff here — downstream
//! consumers (the CI artifact diff, external tooling) parse these lines,
//! so format changes must be deliberate. To re-bless after an intended
//! change, update the golden file to the `got` output the failure prints.

use tahoe_obs::{to_chrome_trace, to_jsonl, Event, Tier};

/// One event of every kind, with values exercising the number formatter
/// (integral floats, fractional floats, zero).
fn golden_events() -> Vec<Event> {
    vec![
        Event::ProfilingClosed {
            t: 3600.0,
            window: 2,
        },
        Event::MigrationIssued {
            t: 3600.0,
            object: 7,
            bytes: 65536,
            from: Tier::Nvm,
            to: Tier::Dram,
            start: 3600.0,
            finish: 68136.0,
            queue_depth: 0,
        },
        Event::MigrationCompleted {
            t: 70000.0,
            object: 7,
            bytes: 65536,
            overlap_ns: 64536.0,
        },
        Event::ArenaMapped {
            t: 0.0,
            tier: Tier::Nvm,
            bytes: 3145728,
            numa_node: -1,
        },
        Event::TierFitted {
            t: 100000.0,
            tier: Tier::Dram,
            read_bw_gbps: 12.5,
            write_bw_gbps: 9.75,
            read_lat_ns: 87.0,
        },
        Event::RealCopyDone {
            t: 110000.0,
            object: 7,
            bytes: 65536,
            from: Tier::Nvm,
            to: Tier::Dram,
            wall_ns: 1940.5,
            throttle_ns: 320.25,
            chunks: 16,
        },
        Event::WorkerTask {
            t: 120000.0,
            tenant: 1,
            worker: 2,
            task: 42,
            window: 6,
            wall_ns: 1525.25,
            gate_wait_ns: 0.0,
        },
        Event::PlacementDecision {
            t: 130000.0,
            object: 7,
            bytes: 65536,
            predicted_benefit_ns: 41250.75,
            chosen: true,
        },
        Event::SanitizeViolation {
            t: 140000.0,
            kind: "write_under_read".to_string(),
            task: 42,
            object: 7,
            detail: "t42 access #0 stores 8 lines to object 7 declared read-only".to_string(),
        },
        Event::GraphAdmitted {
            t: 150000.0,
            tenant: 1,
            graph: 3,
            queue_wait_ns: 2200.5,
            quota_bytes: 131072,
        },
        Event::TenantQuota {
            t: 150000.0,
            tenant: 1,
            quota_bytes: 131072,
            demand_bytes: 262144,
        },
        Event::TenantPreempt {
            t: 151000.0,
            tenant: 0,
            object: 9,
            bytes: 65536,
        },
        Event::GraphShed {
            t: 152000.0,
            tenant: 2,
            graph: 4,
            queued: 2,
        },
        Event::GraphDone {
            t: 160000.0,
            tenant: 1,
            graph: 3,
            latency_ns: 12000.75,
            wall_ns: 9800.0,
        },
    ]
}

#[test]
fn jsonl_matches_golden_file() {
    let got = to_jsonl(&golden_events());
    // `BLESS=1 cargo test -p tahoe-obs --test golden` rewrites the file.
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/events.jsonl");
        std::fs::write(path, &got).expect("bless golden file");
        return;
    }
    let want = include_str!("golden/events.jsonl");
    assert_eq!(
        got, want,
        "JSONL wire format drifted from tests/golden/events.jsonl; \
         if the change is intended, re-bless the golden file"
    );
}

/// A tiny fixed scenario for the Chrome-trace golden: two workers, one
/// migration whose finish unblocks worker 1's gate wait — so the golden
/// pins the `"X"` span layout, the instant, the metadata records *and*
/// the `"s"`/`"f"` flow pair linking the copy channel to the stall.
fn trace_events() -> Vec<Event> {
    vec![
        Event::ProfilingClosed { t: 0.0, window: 0 },
        Event::MigrationIssued {
            t: 100.0,
            object: 3,
            bytes: 4096,
            from: Tier::Nvm,
            to: Tier::Dram,
            start: 100.0,
            finish: 1600.0,
            queue_depth: 1,
        },
        Event::WorkerTask {
            t: 2000.0,
            tenant: 0,
            worker: 0,
            task: 1,
            window: 0,
            wall_ns: 1800.0,
            gate_wait_ns: 0.0,
        },
        Event::WorkerTask {
            t: 4000.0,
            tenant: 0,
            worker: 1,
            task: 2,
            window: 0,
            wall_ns: 3000.0,
            gate_wait_ns: 750.0,
        },
        Event::MigrationCompleted {
            t: 1600.0,
            object: 3,
            bytes: 4096,
            overlap_ns: 1200.0,
        },
    ]
}

#[test]
fn chrome_trace_matches_golden_file() {
    let got = to_chrome_trace(&trace_events());
    // `BLESS=1 cargo test -p tahoe-obs --test golden` rewrites the file.
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.json");
        std::fs::write(path, &got).expect("bless golden file");
        return;
    }
    let want = include_str!("golden/trace.json");
    assert_eq!(
        got, want,
        "Chrome trace format drifted from tests/golden/trace.json; \
         if the change is intended, re-bless the golden file"
    );
}

#[test]
fn golden_covers_every_event_kind() {
    let mut kinds: Vec<&str> = golden_events().iter().map(|e| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut declared = Event::KINDS.to_vec();
    declared.sort_unstable();
    assert_eq!(kinds, declared, "one golden line per Event variant");
}
