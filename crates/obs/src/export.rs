//! Exporters: deterministic JSONL and Chrome `trace_event` JSON.
//!
//! **JSONL** is the machine-readable artifact: one event per line with a
//! fixed field order (`ev` first, `t` second, then the variant's fields
//! in the order the `events!` table in [`crate::event`] declares them),
//! written by [`crate::json::object`]. Floats go through Rust's
//! shortest-roundtrip `Display` (non-finite ones as `null`), so one event
//! stream always serializes to the same bytes.
//!
//! **Chrome trace** targets `chrome://tracing` / [Perfetto]. Worker-task
//! spans become `"X"` complete events on the track of the worker that ran
//! them, migrations become `"X"` spans on a dedicated copy-channel track,
//! and the profiling-closed marker becomes an `"i"` instant. When a
//! worker-task span opens with a gate wait that a migration's finish
//! unblocked, the exporter adds an `"s"`/`"f"` flow pair from the copy
//! channel to the stalled worker lane so exposed stalls are visually
//! traceable to the copy that caused them. Timestamps convert from ns to
//! the format's µs.
//!
//! [Perfetto]: https://ui.perfetto.dev

use crate::emit::Sink;
use crate::event::Event;
use crate::json::{self, Writer};

/// Serialize one event as a single JSON object: `ev`, `t`, then the
/// variant's fields in declaration order.
pub fn event_to_json(e: &Event) -> String {
    json::object(|w| {
        w.field("ev", e.kind()).field("t", e.timestamp());
        e.write_fields(w);
    })
}

/// Render an event stream as JSONL: one event per line, trailing newline
/// after every line, empty string for an empty stream.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// A [`Sink`] that appends JSONL lines to any `io::Write` target.
pub struct JsonlSink<W: std::io::Write> {
    writer: W,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Unwrap the writer (after flushing yourself if needed).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> Sink for JsonlSink<W> {
    fn accept(&mut self, event: &Event) {
        let _ = writeln!(self.writer, "{}", event_to_json(event));
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

const NS_PER_US: f64 = 1_000.0;

/// Open one trace record in the `traceEvents` array with its `name`,
/// `cat` and `ph`; the caller writes the rest.
fn record<'w>(evs: &'w mut Writer<'_>, name: &str, cat: &str, ph: &str) -> Writer<'w> {
    let mut rec = evs.object(None);
    rec.field("name", name).field("cat", cat).field("ph", ph);
    rec
}

fn push_meta(evs: &mut Writer<'_>, tid: usize, name: &str) {
    let mut rec = evs.object(None);
    rec.field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", tid);
    rec.object("args").field("name", name);
}

/// Render an event stream as Chrome `trace_event` JSON
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` or Perfetto.
///
/// Track layout: tid 0..N-1 are the worker lanes carrying task spans;
/// the copy channel's migration spans and the instant markers go on two
/// tids after the last lane.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut n_lanes = 0;
    for e in events {
        if let Event::WorkerTask { worker, .. } = *e {
            n_lanes = n_lanes.max(worker as usize + 1);
        }
    }
    let migration_tid = n_lanes;
    let marker_tid = n_lanes + 1;

    // Copy intervals for flow-arrow pairing: a gate wait is linked to
    // the migration whose finish fell inside it (that finish is what
    // opened the gate).
    let mut migs: Vec<(u32, f64)> = Vec::new(); // (object, finish)
    for e in events {
        if let Event::MigrationIssued { object, finish, .. } = *e {
            migs.push((object, finish));
        }
    }
    let mut flow_id = 0usize;

    json::object(|w| {
        let mut evs = w.array("traceEvents");
        for lane in 0..n_lanes {
            push_meta(&mut evs, lane, &format!("worker {lane}"));
        }
        push_meta(&mut evs, migration_tid, "copy channel");
        push_meta(&mut evs, marker_tid, "runtime markers");

        for e in events {
            match *e {
                Event::WorkerTask {
                    t,
                    tenant,
                    worker,
                    task,
                    window,
                    wall_ns,
                    gate_wait_ns,
                } => {
                    let name = format!("T{tenant} task {task} w{window}");
                    let mut rec = record(&mut evs, &name, "task", "X");
                    rec.field("pid", 1)
                        .field("tid", worker)
                        .field("ts", (t - wall_ns) / NS_PER_US)
                        .field("dur", wall_ns / NS_PER_US);
                    rec.object("args")
                        .field("tenant", tenant)
                        .field("task", task)
                        .field("window", window)
                        .field("gate_wait_ns", gate_wait_ns);
                    drop(rec);
                    // Flow arrow: copy-channel finish -> gate-wait end on
                    // the stalled worker lane. Latest finish inside the
                    // stall wins; smallest object id breaks ties.
                    let gate = gate_wait_ns.clamp(0.0, wall_ns.max(0.0));
                    let stall_start = t - wall_ns.max(0.0);
                    let stall_end = stall_start + gate;
                    if gate > 0.0 {
                        let mut unblocker: Option<(f64, u32)> = None;
                        for &(object, m_finish) in &migs {
                            if m_finish > stall_start && m_finish <= stall_end {
                                let better = match unblocker {
                                    None => true,
                                    Some((f, o)) => m_finish > f || (m_finish == f && object < o),
                                };
                                if better {
                                    unblocker = Some((m_finish, object));
                                }
                            }
                        }
                        if let Some((m_finish, object)) = unblocker {
                            flow_id += 1;
                            let name = format!("unblock obj {object}");
                            record(&mut evs, &name, "flow", "s")
                                .field("id", flow_id)
                                .field("pid", 1)
                                .field("tid", migration_tid)
                                .field("ts", m_finish / NS_PER_US);
                            record(&mut evs, &name, "flow", "f")
                                .field("bp", "e")
                                .field("id", flow_id)
                                .field("pid", 1)
                                .field("tid", worker)
                                .field("ts", stall_end / NS_PER_US);
                        }
                    }
                }
                Event::MigrationIssued {
                    object,
                    bytes,
                    from,
                    to,
                    start,
                    finish,
                    ..
                } => {
                    let name = format!("migrate obj {object} ({from}->{to})");
                    let mut rec = record(&mut evs, &name, "migration", "X");
                    rec.field("pid", 1)
                        .field("tid", migration_tid)
                        .field("ts", start / NS_PER_US)
                        .field("dur", (finish - start) / NS_PER_US);
                    rec.object("args")
                        .field("object", object)
                        .field("bytes", bytes);
                }
                Event::ProfilingClosed { t, window } => {
                    let name = format!("profiling closed w{window}");
                    record(&mut evs, &name, "profiling", "i")
                        .field("pid", 1)
                        .field("tid", marker_tid)
                        .field("ts", t / NS_PER_US)
                        .field("s", "t");
                }
                _ => {}
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tier;

    fn sample_events() -> Vec<Event> {
        let task = |t: f64, worker: u32, task: u32| Event::WorkerTask {
            t,
            tenant: 0,
            worker,
            task,
            window: 0,
            wall_ns: t,
            gate_wait_ns: 0.0,
        };
        vec![
            Event::ProfilingClosed { t: 0.0, window: 0 },
            Event::MigrationIssued {
                t: 50.0,
                object: 7,
                bytes: 4096,
                from: Tier::Nvm,
                to: Tier::Dram,
                start: 50.0,
                finish: 150.0,
                queue_depth: 0,
            },
            task(100.0, 0, 1),
            task(120.0, 1, 2),
            Event::MigrationCompleted {
                t: 150.0,
                object: 7,
                bytes: 4096,
                overlap_ns: 100.0,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_line_per_event_with_fixed_fields() {
        let jsonl = to_jsonl(&sample_events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"ev\":\"profiling_closed\",\"t\":0,\"window\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"ev\":\"migration_issued\",\"t\":50,\"object\":7,\"bytes\":4096,\"from\":\"nvm\",\"to\":\"dram\",\"start\":50,\"finish\":150,\"queue_depth\":0}"
        );
        assert_eq!(
            lines[2],
            "{\"ev\":\"worker_task\",\"t\":100,\"tenant\":0,\"worker\":0,\"task\":1,\"window\":0,\"wall_ns\":100,\"gate_wait_ns\":0}"
        );
    }

    #[test]
    fn real_substrate_events_serialize() {
        let line = event_to_json(&Event::RealCopyDone {
            t: 10.0,
            object: 3,
            bytes: 1 << 16,
            from: Tier::Nvm,
            to: Tier::Dram,
            wall_ns: 2000.0,
            throttle_ns: 1500.0,
            chunks: 4,
        });
        assert_eq!(
            line,
            "{\"ev\":\"real_copy_done\",\"t\":10,\"object\":3,\"bytes\":65536,\"from\":\"nvm\",\"to\":\"dram\",\"wall_ns\":2000,\"throttle_ns\":1500,\"chunks\":4}"
        );
        let line = event_to_json(&Event::ArenaMapped {
            t: 0.0,
            tier: Tier::Dram,
            bytes: 4096,
            numa_node: -1,
        });
        assert!(line.contains("\"numa_node\":-1"), "{line}");
        crate::json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn worker_task_serializes_and_gets_its_own_trace_lane() {
        let e = Event::WorkerTask {
            t: 5000.0,
            tenant: 7,
            worker: 3,
            task: 9,
            window: 2,
            wall_ns: 4000.0,
            gate_wait_ns: 250.0,
        };
        assert_eq!(
            event_to_json(&e),
            "{\"ev\":\"worker_task\",\"t\":5000,\"tenant\":7,\"worker\":3,\"task\":9,\"window\":2,\"wall_ns\":4000,\"gate_wait_ns\":250}"
        );
        let trace = to_chrome_trace(&[e]);
        let parsed = crate::json::parse(&trace).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        // Worker 3 forces lanes 0..=3 plus the migration + marker tracks.
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .count();
        assert_eq!(metas, 6);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .expect("one task span");
        assert_eq!(span.get("tid").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(span.get("ts").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(span.get("dur").and_then(|v| v.as_f64()), Some(4.0));
        // The worker lane span names and tags the tenant the task ran
        // for, so multi-tenant server traces are readable per client.
        assert_eq!(
            span.get("name").and_then(|v| v.as_str()),
            Some("T7 task 9 w2")
        );
        let args = span.get("args").expect("span args");
        assert_eq!(args.get("tenant").and_then(|v| v.as_f64()), Some(7.0));
    }

    #[test]
    fn tenant_events_serialize() {
        let line = event_to_json(&Event::GraphAdmitted {
            t: 10.0,
            tenant: 2,
            graph: 5,
            queue_wait_ns: 1500.0,
            quota_bytes: 65536,
        });
        assert_eq!(
            line,
            "{\"ev\":\"graph_admitted\",\"t\":10,\"tenant\":2,\"graph\":5,\"queue_wait_ns\":1500,\"quota_bytes\":65536}"
        );
        let line = event_to_json(&Event::GraphDone {
            t: 20.0,
            tenant: 2,
            graph: 5,
            latency_ns: 9000.5,
            wall_ns: 7500.0,
        });
        assert_eq!(
            line,
            "{\"ev\":\"graph_done\",\"t\":20,\"tenant\":2,\"graph\":5,\"latency_ns\":9000.5,\"wall_ns\":7500}"
        );
        let line = event_to_json(&Event::GraphShed {
            t: 30.0,
            tenant: 1,
            graph: 6,
            queued: 2,
        });
        assert_eq!(
            line,
            "{\"ev\":\"graph_shed\",\"t\":30,\"tenant\":1,\"graph\":6,\"queued\":2}"
        );
        let line = event_to_json(&Event::TenantQuota {
            t: 40.0,
            tenant: 0,
            quota_bytes: 131072,
            demand_bytes: 262144,
        });
        assert_eq!(
            line,
            "{\"ev\":\"tenant_quota\",\"t\":40,\"tenant\":0,\"quota_bytes\":131072,\"demand_bytes\":262144}"
        );
        let line = event_to_json(&Event::TenantPreempt {
            t: 50.0,
            tenant: 3,
            object: 12,
            bytes: 65536,
        });
        assert_eq!(
            line,
            "{\"ev\":\"tenant_preempt\",\"t\":50,\"tenant\":3,\"object\":12,\"bytes\":65536}"
        );
        crate::json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn sanitize_violation_serializes_with_escaped_detail() {
        let line = event_to_json(&Event::SanitizeViolation {
            t: 7.0,
            kind: "write_under_read".to_string(),
            task: 3,
            object: 1,
            detail: "t3 stores to \"obj\"".to_string(),
        });
        assert_eq!(
            line,
            "{\"ev\":\"sanitize_violation\",\"t\":7,\"kind\":\"write_under_read\",\"task\":3,\"object\":1,\"detail\":\"t3 stores to \\\"obj\\\"\"}"
        );
        crate::json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = event_to_json(&Event::MigrationCompleted {
                t: 1.0,
                object: 2,
                bytes: 64,
                overlap_ns: x,
            });
            let v = crate::json::parse(&line).expect("the line stays valid JSON");
            assert_eq!(
                v.get("overlap_ns"),
                Some(&crate::json::Value::Null),
                "{line}"
            );
        }
    }

    #[test]
    fn jsonl_is_deterministic() {
        let events = sample_events();
        assert_eq!(to_jsonl(&events), to_jsonl(&events));
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        for e in sample_events() {
            sink.accept(&e);
        }
        sink.flush();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text, to_jsonl(&sample_events()));
    }

    #[test]
    fn lane_assignment_packs_concurrent_spans() {
        // Two overlapping spans run on workers 0 and 2: two lanes, named
        // by the worker; a later span of worker 0 reuses lane 0. Worker 2
        // implies lanes 0..=2, then the copy and marker tracks.
        let task = |t: f64, worker: u32| Event::WorkerTask {
            t,
            tenant: 0,
            worker,
            task: worker,
            window: 0,
            wall_ns: 10.0,
            gate_wait_ns: 0.0,
        };
        let trace = to_chrome_trace(&[task(10.0, 0), task(5.0, 2), task(20.0, 0)]);
        let parsed = crate::json::parse(&trace).expect("valid JSON");
        let records = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        let lanes: Vec<Option<f64>> = records
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .map(|e| e.get("tid").and_then(|v| v.as_f64()))
            .collect();
        assert_eq!(lanes, [Some(0.0), Some(2.0), Some(0.0)]);
        let tracks = records
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .count();
        assert_eq!(tracks, 5);
    }

    #[test]
    fn chrome_trace_has_spans_and_instants() {
        let trace = to_chrome_trace(&sample_events());
        let parsed = crate::json::parse(&trace).expect("trace must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let mut task_spans = 0;
        let mut migration_spans = 0;
        let mut instants = 0;
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
            match ph {
                "X" => {
                    assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
                    assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
                    match ev.get("cat").and_then(|v| v.as_str()) {
                        Some("task") => task_spans += 1,
                        Some("migration") => migration_spans += 1,
                        other => panic!("unexpected X category {other:?}"),
                    }
                }
                "i" => instants += 1,
                "M" | "s" | "f" => {}
                other => panic!("unexpected ph {other:?}"),
            }
            assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        }
        assert_eq!(task_spans, 2);
        assert_eq!(migration_spans, 1);
        assert!(instants >= 1);
    }

    #[test]
    fn flow_pair_links_migration_finish_to_the_stall_it_unblocks() {
        // Worker 0 runs [1000, 3000] and spends its first 500ns in the
        // gate; object 7's copy finishes at 1400, inside that stall.
        let events = vec![
            Event::MigrationIssued {
                t: 200.0,
                object: 7,
                bytes: 4096,
                from: Tier::Nvm,
                to: Tier::Dram,
                start: 200.0,
                finish: 1400.0,
                queue_depth: 0,
            },
            Event::WorkerTask {
                t: 3000.0,
                tenant: 0,
                worker: 0,
                task: 4,
                window: 1,
                wall_ns: 2000.0,
                gate_wait_ns: 500.0,
            },
        ];
        let trace = to_chrome_trace(&events);
        let parsed = crate::json::parse(&trace).expect("valid JSON");
        let tev = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        let start = tev
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("s"))
            .expect("flow start");
        let finish = tev
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("f"))
            .expect("flow finish");
        // Same id, copy channel -> stalled worker lane, ns -> µs.
        assert_eq!(
            start.get("id").and_then(|v| v.as_f64()),
            finish.get("id").and_then(|v| v.as_f64())
        );
        assert_eq!(start.get("tid").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(start.get("ts").and_then(|v| v.as_f64()), Some(1.4));
        assert_eq!(finish.get("tid").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(finish.get("ts").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(finish.get("bp").and_then(|v| v.as_str()), Some("e"));
        assert_eq!(
            start.get("name").and_then(|v| v.as_str()),
            Some("unblock obj 7")
        );

        // A stall no copy finish falls inside gets no arrow.
        let no_match = to_chrome_trace(&[Event::WorkerTask {
            t: 3000.0,
            tenant: 0,
            worker: 0,
            task: 4,
            window: 1,
            wall_ns: 2000.0,
            gate_wait_ns: 500.0,
        }]);
        let parsed = crate::json::parse(&no_match).expect("valid JSON");
        assert!(parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .all(|e| {
                let ph = e.get("ph").and_then(|v| v.as_str()).unwrap();
                ph != "s" && ph != "f"
            }));
    }

    #[test]
    fn chrome_trace_of_empty_stream_is_valid() {
        let trace = to_chrome_trace(&[]);
        let parsed = crate::json::parse(&trace).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        // Only the two fixed track-name metadata records.
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M")));
    }
}
