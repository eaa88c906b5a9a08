//! End-to-end multi-tenant server tests: isolation at admission,
//! bit-exact determinism under cross-tenant contention, preemption of
//! cold tenants, and admission-control shedding.

use tahoe_core::app::{App, AppBuilder, ObjectSpec};
use tahoe_core::config::Platform;
use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::policy::PolicyKind;
use tahoe_hms::{AccessProfile, ObjectId};
use tahoe_memprof::wallclock::{WallClockCalibration, WallClockConfig};
use tahoe_obs::{Emitter, Metrics};
use tahoe_server::{
    driver, AdmitError, ArbiterMode, QuotaPolicy, ServerConfig, TahoeServer, TelemetryConfig,
    TenantSpec,
};
use tahoe_taskrt::{AccessMode, TaskAccess, TaskGraph};

fn cal() -> WallClockCalibration {
    WallClockCalibration::synthetic(1 << 20, 1 << 24)
}

fn config(mode: ArbiterMode, dram_budget: u64, max_queue: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        dram_budget,
        nvm_capacity: 1 << 24,
        mode,
        max_queue,
    }
}

fn quota_mode() -> ArbiterMode {
    ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 })
}

/// A tenant app: one hot object touched by every task plus `cold`
/// rarely-touched objects, across `windows` windows of `tasks_per_w`
/// tasks.
fn tenant_app(name: &str, hot_bytes: u64, cold: u32, windows: u32, tasks_per_w: u32) -> App {
    let mut b = AppBuilder::new(name);
    let hot = b.object("hot", hot_bytes);
    let colds: Vec<ObjectId> = (0..cold)
        .map(|i| b.object(&format!("cold{i}"), hot_bytes))
        .collect();
    let c = b.class("work");
    for w in 0..windows {
        if w > 0 {
            b.next_window();
        }
        for t in 0..tasks_per_w {
            let mut tb = b.task(c).update_streaming(hot, 256);
            if t == 0 {
                if let Some(cid) = colds.get((w as usize) % colds.len().max(1)) {
                    tb = tb.read_streaming(*cid, 16);
                }
            }
            tb.submit();
        }
    }
    b.build()
}

fn server(cfg: ServerConfig) -> TahoeServer {
    TahoeServer::new(cfg, cal(), Emitter::disabled(), Metrics::disabled()).expect("server")
}

#[test]
fn foreign_object_reference_is_rejected_at_admission() {
    let srv = server(config(quota_mode(), 64 << 10, 1));
    // A well-behaved tenant registers fine.
    let good = srv
        .register_tenant(
            TenantSpec::new("good", 1.0),
            tenant_app("good", 8 << 10, 1, 2, 2),
        )
        .expect("valid tenant");

    // A malicious/buggy tenant hands over a graph referencing object
    // index 42 while declaring a single object — the only way to name
    // another tenant's memory, since global ids are never exposed.
    let mut graph = TaskGraph::new();
    let c = graph.class("evil");
    graph.add_task(
        c,
        vec![TaskAccess::new(
            ObjectId(42),
            AccessMode::Write,
            AccessProfile::streaming(0, 64),
        )],
        0.0,
    );
    let evil = App {
        name: "evil".into(),
        objects: vec![ObjectSpec {
            name: "only".into(),
            size: 4096,
            chunkable: false,
            est_refs: None,
        }],
        graph,
    };
    let err = match srv.register_tenant(TenantSpec::new("evil", 1.0), evil) {
        Err(e) => e,
        Ok(_) => panic!("foreign reference must be rejected"),
    };
    assert!(
        matches!(
            err,
            AdmitError::ForeignObject {
                object: 42,
                owned: 1,
                ..
            }
        ),
        "wrong rejection: {err}"
    );

    // The rejection left no trace: the good tenant still runs and its
    // result is still bit-exact.
    let outcome = good.submit(5).ticket().expect("admitted").wait();
    assert_eq!(
        outcome.checksum,
        reference_checksum_seeded(&tenant_app("good", 8 << 10, 1, 2, 2), 5)
    );
    let report = srv.shutdown();
    assert_eq!(report.tenants.len(), 1, "evil tenant was never registered");
    assert_eq!(report.completed_total(), 1);
}

#[test]
fn checksums_under_contention_match_solo_references() {
    // Budget fits roughly half the hot sets: constant arbitration,
    // migration and preemption while three tenants run closed-loop.
    let hot = 16 << 10;
    let srv = server(config(quota_mode(), 2 * hot + 4096, 2));
    let apps: Vec<App> = (0..3)
        .map(|i| tenant_app(&format!("t{i}"), hot, 2, 3, 2))
        .collect();
    let handles: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(i, _)| {
            srv.register_tenant(
                TenantSpec::new(&format!("t{i}"), 1.0),
                tenant_app(&format!("t{i}"), hot, 2, 3, 2),
            )
            .expect("register")
        })
        .collect();
    let refs: Vec<u64> = handles
        .iter()
        .zip(&apps)
        .map(|(h, app)| reference_checksum_seeded(app, driver::tenant_seed(11, h.tenant())))
        .collect();

    // The batch engine runs the same task kernel: tenant 0's app alone
    // through `run_policy_parallel` folds to the same checksum.
    let solo = MeasuredRuntime::new(Platform::optane(1 << 20, 1 << 24), WallClockConfig::smoke())
        .run_policy_parallel(
            &apps[0],
            &PolicyKind::tahoe(),
            &cal(),
            2,
            driver::tenant_seed(11, 0),
        )
        .expect("solo batch run");
    assert_eq!(solo.checksum, refs[0]);

    let outcomes = driver::closed_loop(&handles.iter().collect::<Vec<_>>(), 4, 11);
    assert_eq!(outcomes.len(), 12);
    for o in &outcomes {
        assert_eq!(
            o.checksum, refs[o.tenant as usize],
            "tenant {} graph {} diverged from its solo reference",
            o.tenant, o.graph
        );
    }
    let report = srv.shutdown();
    assert_eq!(report.completed_total(), 12);
    for t in &report.tenants {
        assert_eq!(t.completed, 4);
        assert_eq!(t.shed, 0, "closed loop never sheds");
        assert_eq!(t.latencies_ns.len(), 4);
        assert_eq!(t.hist.count(), 4);
    }
}

/// Run `f` on its own thread; a server that hangs fails the test after
/// a minute instead of hanging the suite.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the server must make progress")
}

#[test]
fn idle_tenant_hot_set_is_preempted_by_active_tenant() {
    // Budget holds exactly one hot object: whoever is active should
    // own it, and an idle tenant's cached copy must be demoted.
    let hot = 16 << 10;
    let report = within_a_minute(move || {
        let srv = server(config(quota_mode(), hot + 2048, 1));
        let a = srv
            .register_tenant(TenantSpec::new("a", 1.0), tenant_app("a", hot, 1, 2, 2))
            .expect("register a");
        let b = srv
            .register_tenant(TenantSpec::new("b", 1.0), tenant_app("b", hot, 1, 2, 2))
            .expect("register b");

        // Tenant a runs alone: as the only active tenant it gets the
        // whole budget and promotes its hot object...
        let a_out = driver::warmup(&a, 2, 3);
        let idle_since = std::time::Instant::now();
        // ...then goes idle. It keeps its claim for one latency of its
        // last graph (stamped before `idle_since`, so the wall clock
        // here over-covers it); tenant b keeps submitting until that has
        // lapsed, whatever the schedule...
        let grace_ns = a_out.last().expect("two graphs").latency_ns;
        let mut b_out = driver::warmup(&b, 1, 3);
        while idle_since.elapsed().as_nanos() as f64 <= grace_ns {
            b_out.extend(driver::warmup(&b, 1, 3));
        }
        // ...and the admissions after that must reclaim the DRAM.
        b_out.extend(driver::warmup(&b, 2, 3));
        let reference =
            reference_checksum_seeded(&tenant_app("b", hot, 1, 2, 2), driver::tenant_seed(3, 1));
        for o in &b_out {
            assert_eq!(o.checksum, reference);
        }
        srv.shutdown()
    });
    let ta = &report.tenants[0];
    assert!(
        ta.promoted_bytes >= hot,
        "solo warmup must promote a's hot object (promoted {})",
        ta.promoted_bytes
    );
    assert!(
        report.preempted_total() >= 1,
        "b's admission must preempt idle a's DRAM residents"
    );
    let tb = &report.tenants[1];
    assert!(
        tb.promoted_bytes >= hot,
        "b must win the DRAM once a is idle (promoted {})",
        tb.promoted_bytes
    );
}

/// One hot object every task updates and one smaller cold one read once
/// a window: the hot object alone fits a three-way quota, both fit a
/// two-way one.
fn hot_cold_app(name: &str, hot_bytes: u64, cold_bytes: u64) -> App {
    let mut b = AppBuilder::new(name);
    let hot = b.object("hot", hot_bytes);
    let cold = b.object("cold", cold_bytes);
    let c = b.class("work");
    for w in 0..4 {
        if w > 0 {
            b.next_window();
        }
        for t in 0..4 {
            let mut tb = b.task(c).update_streaming(hot, 1024);
            if t == 0 {
                tb = tb.read_streaming(cold, 16);
            }
            tb.submit();
        }
    }
    b.build()
}

/// Three closed-loop tenants whose hot sets fill the budget: the hot
/// data is bought once, not once per graph. Before the arbiter kept a
/// tenant active across its submit→wait gap, every admission that fell
/// into another tenant's gap took that tenant's hot object for its own
/// cold one and gave it back a graph later — promoted bytes and
/// preemptions grew with the number of graphs served.
#[test]
fn closed_loop_tenants_buy_their_hot_sets_once() {
    const TENANTS: usize = 3;
    const GRAPHS: usize = 50;
    let (hot, cold) = (16u64 << 10, 8u64 << 10);
    // Three-way quota: hot + 1 KiB. Two-way: 1.5 × that, hot + cold fit.
    let budget = TENANTS as u64 * (hot + 1024);
    let serve = move || {
        // One worker: the grace is one graph long, and with both of a
        // CI runner's cores spin-pacing emulated NVM delays a client
        // thread can wait a whole scheduler slice — longer than that —
        // for the CPU to resubmit on.
        let srv = server(ServerConfig {
            workers: 1,
            ..config(quota_mode(), budget, 1)
        });
        let handles: Vec<_> = (0..TENANTS)
            .map(|i| {
                let name = format!("c{i}");
                srv.register_tenant(TenantSpec::new(&name, 1.0), hot_cold_app(&name, hot, cold))
                    .expect("register")
            })
            .collect();
        let outcomes = driver::closed_loop(&handles.iter().collect::<Vec<_>>(), GRAPHS, 29);
        drop(handles);
        (outcomes, srv.shutdown())
    };
    // A client the host keeps off the CPU for longer than one graph
    // *has* left, as far as the server can tell, and is rightly
    // reclaimed; on a loaded runner that can happen. The claim is about
    // clients that resubmit, so a second and third try are allowed —
    // before the change every try read 36–72 preemptions.
    let mut seen = Vec::new();
    for _ in 0..3 {
        let (outcomes, report) = within_a_minute(serve);
        assert_eq!(outcomes.len(), TENANTS * GRAPHS);
        for o in &outcomes {
            let app = hot_cold_app(&format!("c{}", o.tenant), hot, cold);
            assert_eq!(
                o.checksum,
                reference_checksum_seeded(&app, driver::tenant_seed(29, o.tenant)),
                "tenant {} graph {} diverged from its solo reference",
                o.tenant,
                o.graph
            );
        }
        let promoted: u64 = report.tenants.iter().map(|t| t.promoted_bytes).sum();
        let preempted = report.preempted_total();
        if promoted <= 4 * TENANTS as u64 * hot && preempted <= TENANTS as u64 {
            return;
        }
        seen.push((promoted, preempted));
    }
    panic!(
        "(promoted bytes, preemptions) per try {seen:?}: {} graphs, {TENANTS} tenants that \
         never left, a {} byte combined hot set",
        TENANTS * GRAPHS,
        TENANTS as u64 * hot
    );
}

/// A served tenant's metrics carry the same `hms.*` contention keys a
/// batch run's do, and they are the report's own counters.
#[test]
fn shutdown_folds_the_contention_counters_into_metrics() {
    let metrics = Metrics::enabled();
    let srv = TahoeServer::new(
        config(quota_mode(), 64 << 10, 1),
        cal(),
        Emitter::disabled(),
        metrics.clone(),
    )
    .expect("server");
    let t = srv
        .register_tenant(
            TenantSpec::new("t", 1.0),
            tenant_app("t", 16 << 10, 1, 2, 2),
        )
        .expect("register");
    driver::warmup(&t, 2, 3);
    let report = srv.shutdown();
    let snap = metrics.snapshot();
    let c = report.contention;
    for (key, value) in [
        ("hms.pin_cas_retries", c.pin_cas_retries),
        ("hms.parks", c.parks),
        ("hms.unparks", c.unparks),
        ("hms.move_waits", c.move_waits),
    ] {
        assert_eq!(snap.counter(key), Some(value), "{key}");
    }
}

#[test]
fn full_queue_sheds_and_counts() {
    let srv = server(config(quota_mode(), 32 << 10, 1));
    let h = srv
        .register_tenant(
            TenantSpec::new("bursty", 1.0),
            tenant_app("bursty", 16 << 10, 1, 3, 4),
        )
        .expect("register");
    // Back-to-back burst of 5 with a queue bound of 1: one runs, one
    // queues, the rest shed at admission.
    let (done, shed) = driver::burst(&h, 5, 1);
    assert!(shed >= 1, "burst past the queue bound must shed");
    assert_eq!(done.len() as u64 + shed, 5);
    let report = srv.shutdown();
    let t = &report.tenants[0];
    assert_eq!(t.submitted, 5);
    assert_eq!(t.shed, shed);
    assert_eq!(t.completed, done.len() as u64);
    assert_eq!(report.shed_total(), shed);
}

#[test]
fn free_for_all_mode_never_preempts_but_still_validates() {
    let hot = 16 << 10;
    let srv = server(config(ArbiterMode::FreeForAll, hot + 2048, 2));
    let apps: Vec<App> = (0..2)
        .map(|i| tenant_app(&format!("f{i}"), hot, 1, 2, 2))
        .collect();
    let handles: Vec<_> = (0..2)
        .map(|i| {
            srv.register_tenant(
                TenantSpec::new(&format!("f{i}"), 1.0),
                tenant_app(&format!("f{i}"), hot, 1, 2, 2),
            )
            .expect("register")
        })
        .collect();
    let outcomes = driver::closed_loop(&handles.iter().collect::<Vec<_>>(), 3, 21);
    for o in &outcomes {
        assert_eq!(
            o.checksum,
            reference_checksum_seeded(&apps[o.tenant as usize], driver::tenant_seed(21, o.tenant)),
            "free-for-all still deterministic"
        );
    }
    let report = srv.shutdown();
    assert_eq!(report.preempted_total(), 0, "free-for-all never preempts");
    assert_eq!(report.completed_total(), 6);
}

#[test]
fn submission_sequence_numbers_are_unique_and_outcomes_consistent() {
    let srv = server(config(quota_mode(), 48 << 10, 2));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            srv.register_tenant(
                TenantSpec::new(&format!("s{i}"), 1.0 + i as f64),
                tenant_app(&format!("s{i}"), 8 << 10, 1, 2, 2),
            )
            .expect("register")
        })
        .collect();
    let outcomes = driver::closed_loop(&handles.iter().collect::<Vec<_>>(), 3, 0);
    let mut seqs: Vec<u64> = outcomes.iter().map(|o| o.graph).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), 9, "sequence numbers are globally unique");
    for o in &outcomes {
        assert!(o.latency_ns >= o.queue_wait_ns);
        assert!(o.finished_ns >= o.admitted_ns);
        assert!(o.admitted_ns >= o.submitted_ns);
    }
    srv.shutdown();
}

/// One raw-HTTP request over a std `TcpStream` — the test doubles as
/// proof the endpoint needs no client library (no curl in CI).
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect telemetry endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn telemetry_scrape_matches_shutdown_report_bit_for_bit() {
    let srv = server(config(quota_mode(), 48 << 10, 2));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            srv.register_tenant(
                TenantSpec::new(&format!("tele{i}"), 1.0),
                tenant_app(&format!("tele{i}"), 8 << 10, 1, 2, 2),
            )
            .expect("register")
        })
        .collect();

    let journal =
        std::env::temp_dir().join(format!("tahoe-telemetry-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let tele = match srv.serve_telemetry(TelemetryConfig {
        journal: Some(journal.clone()),
        ..TelemetryConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => {
            // Sandboxes without loopback sockets: the plane is optional
            // there, so the test is too.
            eprintln!("skipping: cannot bind telemetry endpoint: {e}");
            srv.shutdown();
            return;
        }
    };
    let addr = tele.addr();

    // Run work to completion; every counter below settles synchronously
    // at admission/completion, so the post-wait scrape is stable.
    let outcomes = driver::closed_loop(&handles.iter().collect::<Vec<_>>(), 3, 17);
    assert_eq!(outcomes.len(), 6);

    let (status, body) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "status line: {status}");
    let (nf_status, _) = scrape(addr, "/nope");
    assert!(nf_status.contains("404"), "status line: {nf_status}");

    // Parse the exposition: `name{labels} value` per sample line.
    let samples: std::collections::HashMap<&str, &str> = body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    assert_eq!(samples["tahoe_server_tenants"], "2");

    tele.stop();
    let report = srv.shutdown();

    // Bit-for-bit: the scraped integer strings equal the report's u64s.
    for t in &report.tenants {
        let labels = format!("{{tenant=\"{}\",name=\"{}\"}}", t.tenant, t.name);
        let get = |family: &str| -> u64 {
            let key = format!("{family}{labels}");
            samples
                .get(key.as_str())
                .unwrap_or_else(|| panic!("missing sample {key}"))
                .parse()
                .expect("integer sample")
        };
        assert_eq!(get("tahoe_tenant_submitted_total"), t.submitted);
        assert_eq!(get("tahoe_tenant_completed_total"), t.completed);
        assert_eq!(get("tahoe_tenant_shed_total"), t.shed);
        assert_eq!(get("tahoe_tenant_preempted_total"), t.preempted);
        assert_eq!(get("tahoe_tenant_promoted_bytes_total"), t.promoted_bytes);
        assert_eq!(get("tahoe_tenant_demoted_bytes_total"), t.demoted_bytes);
        assert_eq!(get("tahoe_tenant_quota_bytes"), t.last_quota);
        assert_eq!(
            get("tahoe_tenant_latency_ns_count"),
            t.completed,
            "latency summary count tracks completions"
        );
    }

    // The journal got at least the immediate first snapshot plus the
    // final one at stop, every line a self-identifying JSON object.
    let journal_text = std::fs::read_to_string(&journal).expect("journal written");
    let lines: Vec<&str> = journal_text.lines().collect();
    assert!(lines.len() >= 2, "first + final snapshot at minimum");
    for line in &lines {
        assert!(
            line.starts_with("{\"schema\":\"tahoe-telemetry/v1\""),
            "journal line is a schema-tagged object: {line}"
        );
        assert!(line.ends_with('}'), "journal line is complete: {line}");
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn queued_submission_runs_after_the_busy_graph() {
    let srv = server(config(quota_mode(), 32 << 10, 2));
    let h = srv
        .register_tenant(TenantSpec::new("q", 1.0), tenant_app("q", 8 << 10, 1, 3, 3))
        .expect("register");
    let first = h.submit(1);
    let second = h.submit(1);
    // The second submission either queued behind the first or (if the
    // first finished already) was admitted; both must complete.
    assert!(!second.is_shed());
    let o1 = first.ticket().expect("first").wait();
    let o2 = second.ticket().expect("second").wait();
    assert_eq!(o1.checksum, o2.checksum, "same seed, same result");
    assert!(o2.finished_ns >= o1.finished_ns);
    let report = srv.shutdown();
    assert_eq!(report.tenants[0].completed, 2);
}

/// `serve_mix`'s tenant shape: 16 × 256 KiB objects in four quartets;
/// each quartet's one hot object is updated in every window of four,
/// its three cold ones are read once each.
fn quartet_app(name: &str, tenant: usize) -> (App, Vec<u32>) {
    const SIZE: u64 = 256 << 10;
    let mut b = AppBuilder::new(name);
    let ids: Vec<ObjectId> = (0..16).map(|i| b.object(&format!("s{i}"), SIZE)).collect();
    let hot: Vec<u32> = (0..4).map(|q| 4 * q + (q + tenant as u32) % 4).collect();
    let c = b.class("serve");
    for w in 0..4u32 {
        if w > 0 {
            b.next_window();
        }
        for q in 0..4u32 {
            let h = hot[q as usize];
            b.task(c)
                .update_streaming(ids[h as usize], SIZE / 64)
                .submit();
            let cold = (4 * q..4 * q + 4)
                .filter(|&k| k != h)
                .nth(((w + q) % 4) as usize);
            if let Some(k) = cold {
                b.task(c)
                    .read_streaming(ids[k as usize], SIZE / 64)
                    .submit();
            }
        }
    }
    (b.build(), hot)
}

/// Weights 2/1/1 and a 3 MiB budget over three 4 MiB tenants with a
/// 1 MiB hot set each. Splitting what the floors leave by declared
/// bytes gave tenants 1 and 2 0.875 MiB each, one hot object short;
/// handed out by value per byte, it covers every hot set.
#[test]
fn every_tenant_keeps_its_hot_set_in_dram() {
    const ROUNDS: u64 = 3;
    let weights = [2.0, 1.0, 1.0];
    let report = within_a_minute(move || {
        // One worker, so the test judges placement, not the host.
        let srv = server(ServerConfig {
            workers: 1,
            ..config(quota_mode(), 3 << 20, 1)
        });
        let handles: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let name = format!("m{i}");
                srv.register_tenant(TenantSpec::new(&name, w), quartet_app(&name, i).0)
                    .expect("register")
            })
            .collect();
        // Every tenant submits, then all wait: from the second round on
        // each admission sees all three active.
        for round in 0..ROUNDS {
            let subs: Vec<_> = handles.iter().map(|h| h.submit(round)).collect();
            for (i, s) in subs.iter().enumerate() {
                let o = s.ticket().expect("admitted or queued").wait();
                let app = quartet_app(&format!("m{i}"), i).0;
                assert_eq!(o.checksum, reference_checksum_seeded(&app, round));
            }
        }
        drop(handles);
        srv.shutdown()
    });
    for (i, t) in report.tenants.iter().enumerate() {
        let hot = quartet_app(&t.name, i).1;
        assert!(
            t.last_quota >= 1 << 20,
            "tenant {i}'s quota {} is below its 1 MiB hot set",
            t.last_quota
        );
        assert!(
            hot.iter().all(|h| t.dram_objects.contains(h)),
            "tenant {i}'s hot objects {hot:?} are not all in DRAM: {:?}",
            t.dram_objects
        );
    }
}
