//! Exporters: deterministic JSONL and Chrome `trace_event` JSON.
//!
//! **JSONL** is the machine-diffable artifact: one event per line,
//! hand-serialized with a fixed field order (`ev` first, `t` second, then
//! the variant's fields in declaration order). Floats go through Rust's
//! shortest-roundtrip `Display`, so two identical seeded runs produce
//! byte-identical streams — CI diffs them directly.
//!
//! **Chrome trace** targets `chrome://tracing` / [Perfetto]. Task spans
//! become `"X"` complete events laid out on greedily-assigned lanes
//! (reconstructing virtual workers from span overlap), migrations become
//! `"X"` spans on a dedicated copy-channel track, and window / planning /
//! profiling / replan markers become `"i"` instants. When a worker-task
//! span opens with a gate wait that a migration's finish unblocked, the
//! exporter adds an `"s"`/`"f"` flow pair from the copy channel to the
//! stalled worker lane so exposed stalls are visually traceable to the
//! copy that caused them. Timestamps convert from virtual ns to the
//! format's µs.
//!
//! [Perfetto]: https://ui.perfetto.dev

use std::fmt::Write as _;

use crate::emit::Sink;
use crate::event::Event;
use crate::json::write_string;

/// Format a float the way both exporters do: Rust `Display`, which is the
/// shortest string that round-trips — deterministic and JSON-compatible
/// for the finite values virtual time produces.
fn fnum(x: f64) -> String {
    format!("{x}")
}

/// Serialize one event as a single JSON object with fixed field order.
pub fn event_to_json(e: &Event) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ev\":\"{}\",\"t\":{}", e.kind(), fnum(e.timestamp()));
    match *e {
        Event::TaskStart {
            task,
            class,
            window,
            ..
        }
        | Event::TaskFinish {
            task,
            class,
            window,
            ..
        } => {
            let _ = write!(s, ",\"task\":{task},\"class\":{class},\"window\":{window}");
        }
        Event::DispatchStall { task, stall_ns, .. } => {
            let _ = write!(s, ",\"task\":{task},\"stall_ns\":{}", fnum(stall_ns));
        }
        Event::WindowStart { window, .. } => {
            let _ = write!(s, ",\"window\":{window}");
        }
        Event::TierSample {
            window,
            dram_used,
            dram_capacity,
            nvm_used,
            nvm_capacity,
            inflight,
            ..
        } => {
            let _ = write!(
                s,
                ",\"window\":{window},\"dram_used\":{dram_used},\"dram_capacity\":{dram_capacity},\"nvm_used\":{nvm_used},\"nvm_capacity\":{nvm_capacity},\"inflight\":{inflight}"
            );
        }
        Event::MigrationIssued {
            object,
            bytes,
            from,
            to,
            start,
            finish,
            queue_depth,
            ..
        } => {
            let _ = write!(
                s,
                ",\"object\":{object},\"bytes\":{bytes},\"from\":\"{}\",\"to\":\"{}\",\"start\":{},\"finish\":{},\"queue_depth\":{queue_depth}",
                from,
                to,
                fnum(start),
                fnum(finish)
            );
        }
        Event::MigrationCompleted {
            object,
            bytes,
            overlap_ns,
            ..
        } => {
            let _ = write!(
                s,
                ",\"object\":{object},\"bytes\":{bytes},\"overlap_ns\":{}",
                fnum(overlap_ns)
            );
        }
        Event::MigrationDeferred { object, .. } => {
            let _ = write!(s, ",\"object\":{object}");
        }
        Event::ProfilingArmed {
            window,
            until_window,
            ..
        } => {
            let _ = write!(s, ",\"window\":{window},\"until_window\":{until_window}");
        }
        Event::ProfilingClosed { window, .. } => {
            let _ = write!(s, ",\"window\":{window}");
        }
        Event::PlanComputed {
            window,
            kind,
            candidates,
            migrations,
            predicted_gain_ns,
            baseline_ns,
            accepted,
            ..
        } => {
            let _ = write!(
                s,
                ",\"window\":{window},\"kind\":\"{kind}\",\"candidates\":{candidates},\"migrations\":{migrations},\"predicted_gain_ns\":{},\"baseline_ns\":{},\"accepted\":{accepted}",
                fnum(predicted_gain_ns),
                fnum(baseline_ns)
            );
        }
        Event::ReplanTriggered { window, reason, .. } => {
            let _ = write!(s, ",\"window\":{window},\"reason\":\"{}\"", reason.tag());
        }
        Event::OverheadCharged { kind, ns, .. } => {
            let _ = write!(s, ",\"kind\":\"{}\",\"ns\":{}", kind.tag(), fnum(ns));
        }
        Event::ArenaMapped {
            tier,
            bytes,
            numa_node,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tier\":\"{}\",\"bytes\":{bytes},\"numa_node\":{numa_node}",
                tier
            );
        }
        Event::RealCopyDone {
            object,
            bytes,
            from,
            to,
            wall_ns,
            throttle_ns,
            chunks,
            ..
        } => {
            let _ = write!(
                s,
                ",\"object\":{object},\"bytes\":{bytes},\"from\":\"{}\",\"to\":\"{}\",\"wall_ns\":{},\"throttle_ns\":{},\"chunks\":{chunks}",
                from,
                to,
                fnum(wall_ns),
                fnum(throttle_ns)
            );
        }
        Event::WorkerTask {
            tenant,
            worker,
            task,
            window,
            wall_ns,
            gate_wait_ns,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tenant\":{tenant},\"worker\":{worker},\"task\":{task},\"window\":{window},\"wall_ns\":{},\"gate_wait_ns\":{}",
                fnum(wall_ns),
                fnum(gate_wait_ns)
            );
        }
        Event::PlacementDecision {
            object,
            bytes,
            predicted_benefit_ns,
            chosen,
            ..
        } => {
            let _ = write!(
                s,
                ",\"object\":{object},\"bytes\":{bytes},\"predicted_benefit_ns\":{},\"chosen\":{chosen}",
                fnum(predicted_benefit_ns)
            );
        }
        Event::SanitizeViolation {
            ref kind,
            task,
            object,
            ref detail,
            ..
        } => {
            // Violation details are free-form prose: quotes, backslashes
            // and control characters must not break the line format.
            s.push_str(",\"kind\":");
            write_string(&mut s, kind);
            let _ = write!(s, ",\"task\":{task},\"object\":{object},\"detail\":");
            write_string(&mut s, detail);
        }
        Event::TierFitted {
            tier,
            read_bw_gbps,
            write_bw_gbps,
            read_lat_ns,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tier\":\"{}\",\"read_bw_gbps\":{},\"write_bw_gbps\":{},\"read_lat_ns\":{}",
                tier,
                fnum(read_bw_gbps),
                fnum(write_bw_gbps),
                fnum(read_lat_ns)
            );
        }
        Event::GraphAdmitted {
            tenant,
            graph,
            queue_wait_ns,
            quota_bytes,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tenant\":{tenant},\"graph\":{graph},\"queue_wait_ns\":{},\"quota_bytes\":{quota_bytes}",
                fnum(queue_wait_ns)
            );
        }
        Event::GraphDone {
            tenant,
            graph,
            latency_ns,
            wall_ns,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tenant\":{tenant},\"graph\":{graph},\"latency_ns\":{},\"wall_ns\":{}",
                fnum(latency_ns),
                fnum(wall_ns)
            );
        }
        Event::GraphShed {
            tenant,
            graph,
            queued,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tenant\":{tenant},\"graph\":{graph},\"queued\":{queued}"
            );
        }
        Event::TenantQuota {
            tenant,
            quota_bytes,
            demand_bytes,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tenant\":{tenant},\"quota_bytes\":{quota_bytes},\"demand_bytes\":{demand_bytes}"
            );
        }
        Event::TenantPreempt {
            tenant,
            object,
            bytes,
            ..
        } => {
            let _ = write!(
                s,
                ",\"tenant\":{tenant},\"object\":{object},\"bytes\":{bytes}"
            );
        }
    }
    s.push('}');
    s
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

/// Greedy lane assignment: give each span the lowest-numbered lane that is
/// free at its start time. Reconstructs "virtual worker" rows from the
/// flat span list, since the list scheduler does not name its processors
/// in the event stream.
fn assign_lanes(spans: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .0
            .partial_cmp(&spans[b].0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut lane_free_at: Vec<f64> = Vec::new();
    let mut lanes = vec![0usize; spans.len()];
    for &i in &order {
        let (start, end) = spans[i];
        let lane = lane_free_at
            .iter()
            .position(|&free| free <= start)
            .unwrap_or_else(|| {
                lane_free_at.push(0.0);
                lane_free_at.len() - 1
            });
        lane_free_at[lane] = end;
        lanes[i] = lane;
    }
    lanes
}

fn push_meta(out: &mut String, tid: usize, name: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
    );
}

/// Render an event stream as Chrome `trace_event` JSON
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` or Perfetto.
///
/// Track layout: tid 0..N-1 are reconstructed worker lanes carrying task
/// spans; the copy channel's migration spans and the instant markers
/// (windows, plans, profiling, replans, deferrals) go on two tids after
/// the last lane.
pub fn to_chrome_trace(events: &[Event]) -> String {
    // Pair TaskStart/TaskFinish by task id into spans.
    struct TaskSpan {
        task: u32,
        class: u32,
        window: u32,
        start: f64,
        end: f64,
    }
    let mut open: Vec<(u32, usize)> = Vec::new(); // (task, index into spans)
    let mut spans: Vec<TaskSpan> = Vec::new();
    for e in events {
        match *e {
            Event::TaskStart {
                t,
                task,
                class,
                window,
            } => {
                open.push((task, spans.len()));
                spans.push(TaskSpan {
                    task,
                    class,
                    window,
                    start: t,
                    end: t,
                });
            }
            Event::TaskFinish { t, task, .. } => {
                if let Some(pos) = open.iter().rposition(|&(id, _)| id == task) {
                    let (_, idx) = open.swap_remove(pos);
                    spans[idx].end = t;
                }
            }
            _ => {}
        }
    }
    let lanes = assign_lanes(&spans.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>());
    let mut n_lanes = lanes.iter().map(|&l| l + 1).max().unwrap_or(0);
    // Parallel measured runs name their workers directly (WorkerTask
    // spans carry a worker index); those tids share the lane namespace
    // with the reconstructed virtual lanes.
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

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    for lane in 0..n_lanes {
        sep(&mut out);
        push_meta(&mut out, lane, &format!("worker {lane}"));
    }
    sep(&mut out);
    push_meta(&mut out, migration_tid, "copy channel");
    sep(&mut out);
    push_meta(&mut out, marker_tid, "runtime markers");

    for (span, &lane) in spans.iter().zip(&lanes) {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"task {task} (class {class})\",\"cat\":\"task\",\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"task\":{task},\"class\":{class},\"window\":{window}}}}}",
            task = span.task,
            class = span.class,
            window = span.window,
            ts = fnum(span.start / NS_PER_US),
            dur = fnum((span.end - span.start) / NS_PER_US)
        );
    }

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
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"T{tenant} task {task} w{window}\",\"cat\":\"task\",\"ph\":\"X\",\"pid\":1,\"tid\":{worker},\"ts\":{},\"dur\":{},\"args\":{{\"tenant\":{tenant},\"task\":{task},\"window\":{window},\"gate_wait_ns\":{}}}}}",
                    fnum((t - wall_ns) / NS_PER_US),
                    fnum(wall_ns / NS_PER_US),
                    fnum(gate_wait_ns)
                );
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
                        sep(&mut out);
                        let _ = write!(
                            out,
                            "{{\"name\":\"unblock obj {object}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{flow_id},\"pid\":1,\"tid\":{migration_tid},\"ts\":{}}}",
                            fnum(m_finish / NS_PER_US)
                        );
                        sep(&mut out);
                        let _ = write!(
                            out,
                            "{{\"name\":\"unblock obj {object}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{flow_id},\"pid\":1,\"tid\":{worker},\"ts\":{}}}",
                            fnum(stall_end / NS_PER_US)
                        );
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
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"migrate obj {object} ({}->{})\",\"cat\":\"migration\",\"ph\":\"X\",\"pid\":1,\"tid\":{migration_tid},\"ts\":{},\"dur\":{},\"args\":{{\"object\":{object},\"bytes\":{bytes}}}}}",
                    from,
                    to,
                    fnum(start / NS_PER_US),
                    fnum((finish - start) / NS_PER_US)
                );
            }
            Event::WindowStart { t, window } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"window {window}\",\"cat\":\"window\",\"ph\":\"i\",\"pid\":1,\"tid\":{marker_tid},\"ts\":{},\"s\":\"t\"}}",
                    fnum(t / NS_PER_US)
                );
            }
            Event::PlanComputed {
                t,
                window,
                kind,
                migrations,
                accepted,
                ..
            } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"plan {kind} w{window} ({migrations} moves, {})\",\"cat\":\"plan\",\"ph\":\"i\",\"pid\":1,\"tid\":{marker_tid},\"ts\":{},\"s\":\"t\"}}",
                    if accepted { "accepted" } else { "frozen" },
                    fnum(t / NS_PER_US)
                );
            }
            Event::ProfilingArmed { t, window, .. } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"profiling armed w{window}\",\"cat\":\"profiling\",\"ph\":\"i\",\"pid\":1,\"tid\":{marker_tid},\"ts\":{},\"s\":\"t\"}}",
                    fnum(t / NS_PER_US)
                );
            }
            Event::ProfilingClosed { t, window } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"profiling closed w{window}\",\"cat\":\"profiling\",\"ph\":\"i\",\"pid\":1,\"tid\":{marker_tid},\"ts\":{},\"s\":\"t\"}}",
                    fnum(t / NS_PER_US)
                );
            }
            Event::ReplanTriggered { t, window, reason } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"replan w{window} ({})\",\"cat\":\"plan\",\"ph\":\"i\",\"pid\":1,\"tid\":{marker_tid},\"ts\":{},\"s\":\"t\"}}",
                    reason.tag(),
                    fnum(t / NS_PER_US)
                );
            }
            Event::MigrationDeferred { t, object } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"deferred obj {object}\",\"cat\":\"migration\",\"ph\":\"i\",\"pid\":1,\"tid\":{migration_tid},\"ts\":{},\"s\":\"t\"}}",
                    fnum(t / NS_PER_US)
                );
            }
            _ => {}
        }
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tier;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::WindowStart { t: 0.0, window: 0 },
            Event::TaskStart {
                t: 0.0,
                task: 1,
                class: 0,
                window: 0,
            },
            Event::TaskStart {
                t: 0.0,
                task: 2,
                class: 1,
                window: 0,
            },
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
            Event::TaskFinish {
                t: 100.0,
                task: 1,
                class: 0,
                window: 0,
            },
            Event::TaskFinish {
                t: 120.0,
                task: 2,
                class: 1,
                window: 0,
            },
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
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[0], "{\"ev\":\"window_start\",\"t\":0,\"window\":0}");
        assert_eq!(
            lines[1],
            "{\"ev\":\"task_start\",\"t\":0,\"task\":1,\"class\":0,\"window\":0}"
        );
        assert_eq!(
            lines[3],
            "{\"ev\":\"migration_issued\",\"t\":50,\"object\":7,\"bytes\":4096,\"from\":\"nvm\",\"to\":\"dram\",\"start\":50,\"finish\":150,\"queue_depth\":0}"
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
        // Two overlapping spans need two lanes; a later span reuses lane 0.
        let lanes = assign_lanes(&[(0.0, 10.0), (0.0, 5.0), (12.0, 20.0)]);
        assert_eq!(lanes[0], 0);
        assert_eq!(lanes[1], 1);
        assert_eq!(lanes[2], 0);
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
