//! Wire-protocol acceptance suite for `tdals serve`.
//!
//! Three layers, sockets last:
//!
//! 1. **Codec** — golden frames for every request verb and event kind
//!    (the exact compact bytes are pinned, so an accidental field
//!    rename is a test failure, not a silent schema break), plus the
//!    framing error taxonomy (malformed, truncated, oversized).
//! 2. **Daemon verbs** — [`Daemon::handle`] is transport-free, so
//!    admission control, per-tenant quotas, drain, cancellation, and
//!    the byte-identity of daemon records with `serve-batch`'s are all
//!    exercised without a socket.
//! 3. **Sockets** — concurrent clients over real TCP: quota enforcement
//!    across connections, a mid-session disconnect leaking no slots,
//!    bad frames surviving on an aligned stream, oversized frames
//!    closing it.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;

use tdals::circuits::Benchmark;
use tdals::core::api::{FlowEvent, FnObserver, StopReason};
use tdals::core::{IterationStats, PostOptReport};
use tdals::obs::json::Json;
use tdals::server::{
    as_error, error_frame, event_from_json, event_to_json, read_frame, results_document,
    results_document_from_records, session_record_fields, Connection, Daemon, DaemonConfig,
    ErrorCode, FlowJob, FrameError, JobBudget, Request,
};
use tdals::sim::ErrorMetric;

fn quick_job(seed: u64) -> FlowJob {
    FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(4, 2)
        .with_vectors(256)
        .with_seed(seed)
}

/// A job that runs until cancelled: an iteration budget far beyond what
/// the tests ever let it finish.
fn long_job(seed: u64) -> FlowJob {
    FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(6, 100_000)
        .with_vectors(256)
        .with_seed(seed)
}

fn submit(job: &FlowJob, tenant: Option<&str>) -> Json {
    Request::Submit {
        job: job.clone(),
        tenant: tenant.map(str::to_owned),
    }
    .to_json()
}

fn code_of(frame: &Json) -> Option<&str> {
    as_error(frame).map(|(code, _)| code)
}

fn session_of(frame: &Json) -> u64 {
    frame
        .get("session")
        .and_then(Json::as_f64)
        .expect("reply carries a session id") as u64
}

// ---------------------------------------------------------------------
// 1. Codec
// ---------------------------------------------------------------------

#[test]
fn golden_request_frames_round_trip() {
    let cases: Vec<(Request, &str)> = vec![
        (
            Request::Status { session: 7 },
            r#"{"schema":1,"verb":"status","session":7}"#,
        ),
        (
            Request::Events { session: 7 },
            r#"{"schema":1,"verb":"events","session":7}"#,
        ),
        (
            Request::Result {
                session: 7,
                wait: false,
            },
            r#"{"schema":1,"verb":"result","session":7}"#,
        ),
        (
            Request::Result {
                session: 7,
                wait: true,
            },
            r#"{"schema":1,"verb":"result","session":7,"wait":true}"#,
        ),
        (
            Request::Cancel { session: 7 },
            r#"{"schema":1,"verb":"cancel","session":7}"#,
        ),
        (Request::Drain, r#"{"schema":1,"verb":"drain"}"#),
        (Request::Health, r#"{"schema":1,"verb":"health"}"#),
        (Request::Stats, r#"{"schema":1,"verb":"stats"}"#),
        (Request::Shutdown, r#"{"schema":1,"verb":"shutdown"}"#),
    ];
    for (request, golden) in cases {
        let frame = request.to_json();
        assert_eq!(frame.to_compact(), golden);
        assert_eq!(Request::from_json(&frame).expect("parses"), request);
    }
}

#[test]
fn golden_submit_frame_round_trips() {
    let request = Request::Submit {
        job: FlowJob::benchmark(Benchmark::Int2float).with_bound(0.05),
        tenant: Some("acme".into()),
    };
    let frame = request.to_json();
    assert_eq!(
        frame.to_compact(),
        r#"{"schema":1,"verb":"submit","job":{"name":"Int2float","circuit":"bench:Int2float","method":"dcgwo","metric":"er","bound":0.05,"population":30,"iterations":20,"vectors":4096,"seed":1,"priority":0},"tenant":"acme"}"#
    );
    assert_eq!(Request::from_json(&frame).expect("parses"), request);
}

#[test]
fn golden_event_frames_round_trip() {
    let cases: Vec<(FlowEvent, &str)> = vec![
        (
            FlowEvent::FlowStarted {
                optimizer: "DCGWO".into(),
                gates: 100,
                cpd_ori: 123.5,
                area_ori: 88.25,
                metric: ErrorMetric::ErrorRate,
                error_bound: 0.05,
            },
            r#"{"schema":1,"kind":"flow-started","optimizer":"DCGWO","gates":100,"cpd_ori":123.5,"area_ori":88.25,"metric":"er","error_bound":0.05}"#,
        ),
        (
            FlowEvent::IterationFinished {
                stats: IterationStats {
                    iteration: 3,
                    constraint: 0.025,
                    best_fitness: 0.75,
                    best_depth: 12,
                    best_area: 456.5,
                    feasible: 7,
                },
            },
            r#"{"schema":1,"kind":"iteration-finished","stats":{"iteration":3,"constraint":0.025,"best_fitness":0.75,"best_depth":12,"best_area":456.5,"feasible":7}}"#,
        ),
        (
            FlowEvent::OptimizeFinished {
                stop: StopReason::IterationLimit,
                evaluations: 1234,
            },
            r#"{"schema":1,"kind":"optimize-finished","stop":"iteration-limit","evaluations":1234}"#,
        ),
        (
            FlowEvent::PostOptFinished {
                report: PostOptReport {
                    gates_removed: 4,
                    cpd_before: 200.5,
                    cpd_after_sweep: 180.25,
                    cpd_final: 170.5,
                    area_final: 99.75,
                    sizing_moves: 2,
                },
            },
            r#"{"schema":1,"kind":"post-opt-finished","report":{"gates_removed":4,"cpd_before":200.5,"cpd_after_sweep":180.25,"cpd_final":170.5,"area_final":99.75,"sizing_moves":2}}"#,
        ),
        (
            FlowEvent::FlowFinished {
                ratio_cpd: 0.875,
                error: 0.0125,
                runtime_s: 1.5,
            },
            r#"{"schema":1,"kind":"flow-finished","ratio_cpd":0.875,"error":0.0125,"runtime_s":1.5}"#,
        ),
    ];
    for (event, golden) in cases {
        let frame = event_to_json(&event);
        assert_eq!(frame.to_compact(), golden);
        assert_eq!(event_from_json(&frame).expect("parses"), event);
    }
}

#[test]
fn every_stop_reason_survives_the_wire() {
    for stop in [
        StopReason::Completed,
        StopReason::IterationLimit,
        StopReason::EvaluationLimit,
        StopReason::DeadlineExpired,
        StopReason::Cancelled,
    ] {
        let frame = event_to_json(&FlowEvent::OptimizeFinished {
            stop,
            evaluations: 1,
        });
        assert_eq!(
            event_from_json(&frame).expect("parses"),
            FlowEvent::OptimizeFinished {
                stop,
                evaluations: 1
            }
        );
    }
}

#[test]
fn error_codes_are_a_closed_round_tripping_vocabulary() {
    for code in [
        ErrorCode::BadFrame,
        ErrorCode::OversizedFrame,
        ErrorCode::TruncatedFrame,
        ErrorCode::BadSchema,
        ErrorCode::BadRequest,
        ErrorCode::UnknownVerb,
        ErrorCode::UnknownSession,
        ErrorCode::QueueFull,
        ErrorCode::QuotaExceeded,
        ErrorCode::Draining,
        ErrorCode::Rejected,
    ] {
        assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
    }
    assert_eq!(ErrorCode::parse("not-a-code"), None);

    let frame = error_frame(ErrorCode::QueueFull, "try later");
    assert_eq!(
        frame.to_compact(),
        r#"{"schema":1,"error":"queue-full","message":"try later"}"#
    );
    assert_eq!(as_error(&frame), Some(("queue-full", "try later")));
}

#[test]
fn malformed_requests_get_typed_errors() {
    let cases: Vec<(&str, ErrorCode)> = vec![
        (r#"[1,2]"#, ErrorCode::BadFrame),
        (
            r#"{"schema":1,"verb":"status","sessionn":3}"#,
            ErrorCode::BadRequest,
        ),
        (r#"{"verb":"health"}"#, ErrorCode::BadSchema),
        (r#"{"schema":99,"verb":"health"}"#, ErrorCode::BadSchema),
        (
            r#"{"schema":1,"verb":"frobnicate"}"#,
            ErrorCode::UnknownVerb,
        ),
        (r#"{"schema":1,"verb":"status"}"#, ErrorCode::BadRequest),
        (r#"{"schema":1,"verb":"submit"}"#, ErrorCode::BadRequest),
        (
            r#"{"schema":1,"verb":"submit","job":{"name":"x","circuit":"/etc/passwd"}}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"schema":1,"verb":"submit","job":{"name":"x","circuit":"bench:Int2float"},"tenant":7}"#,
            ErrorCode::BadRequest,
        ),
        (
            r#"{"schema":1,"verb":"result","session":0,"wait":"yes"}"#,
            ErrorCode::BadRequest,
        ),
    ];
    for (text, expected) in cases {
        let frame = Json::parse(text).expect("test input is valid JSON");
        let err = Request::from_json(&frame).expect_err(text);
        assert_eq!(err.0, expected, "{text}: {}", err.1);
    }
}

#[test]
fn framing_errors_are_typed() {
    // Clean EOF between frames.
    let mut empty = Cursor::new(Vec::<u8>::new());
    assert_eq!(read_frame(&mut empty, 64).expect("clean eof"), None);

    // Two frames from one stream, then EOF.
    let mut two = Cursor::new(b"{\"a\":1}\n{\"b\":2}\n".to_vec());
    assert_eq!(
        read_frame(&mut two, 64).expect("frame 1").as_deref(),
        Some(r#"{"a":1}"#)
    );
    assert_eq!(
        read_frame(&mut two, 64).expect("frame 2").as_deref(),
        Some(r#"{"b":2}"#)
    );
    assert_eq!(read_frame(&mut two, 64).expect("clean eof"), None);

    // EOF mid-line is truncation, not silence.
    let mut cut = Cursor::new(b"{\"a\":".to_vec());
    assert_eq!(
        read_frame(&mut cut, 64),
        Err(FrameError::Truncated { bytes: 5 })
    );

    // A line past the limit is rejected before it is buffered whole.
    let mut big = Cursor::new(vec![b'x'; 1000]);
    assert!(matches!(
        read_frame(&mut big, 64),
        Err(FrameError::Oversized { limit: 64 })
    ));

    // Well-framed garbage is BadJson through a Connection (the stream
    // stays aligned, so the next frame still parses).
    let mut conn = Connection::new(Cursor::new(b"not json\n{\"ok\":true}\n".to_vec()));
    assert!(matches!(conn.receive(), Err(FrameError::BadJson(_))));
    assert_eq!(
        conn.receive().expect("aligned").map(|f| f.to_compact()),
        Some(r#"{"ok":true}"#.to_owned())
    );
}

// ---------------------------------------------------------------------
// 2. Daemon verbs, transport-free
// ---------------------------------------------------------------------

#[test]
fn daemon_record_is_byte_identical_to_serve_batch() {
    let jobs = [
        quick_job(11),
        quick_job(7).with_method(tdals::baselines::Method::Hedals),
    ];
    let daemon = Daemon::new(DaemonConfig::new(2)).expect("valid config");

    let ids: Vec<u64> = jobs
        .iter()
        .map(|job| {
            let reply = daemon.handle(&submit(job, None));
            assert_eq!(code_of(&reply), None, "{reply}");
            session_of(&reply)
        })
        .collect();

    // Reassemble the document the way `tdals submit` does: wire records
    // plus locally-known submission indices.
    let rows: Vec<Json> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let reply = daemon.handle(
                &Request::Result {
                    session: *id,
                    wait: true,
                }
                .to_json(),
            );
            assert_eq!(reply.get("done"), Some(&Json::Bool(true)));
            assert_eq!(
                reply.get("status").and_then(Json::as_str),
                Some("completed")
            );
            let mut members = vec![("job".to_owned(), Json::Num(i as f64))];
            let Some(Json::Obj(fields)) = reply.get("record").cloned() else {
                panic!("record is an object");
            };
            members.extend(fields);
            Json::Obj(members)
        })
        .collect();
    let via_daemon = results_document_from_records(rows).to_string();

    // The reference: the exact document `serve-batch` would write,
    // straight from solo runs (scheduler outcomes are bit-identical to
    // solo by the PR-5 contract this repo's server suite pins).
    let solo: Vec<Result<_, tdals::server::SessionError>> = jobs
        .iter()
        .map(|j| j.run_direct(1).map_err(tdals::server::SessionError::Flow))
        .collect();
    let reference = results_document(jobs.iter().zip(solo.iter())).to_string();
    assert_eq!(via_daemon, reference);
}

#[test]
fn daemon_streams_each_event_exactly_once() {
    let daemon = Daemon::new(DaemonConfig::new(1)).expect("valid config");
    let reply = daemon.handle(&submit(&quick_job(3), None));
    let id = session_of(&reply);
    daemon.handle(
        &Request::Result {
            session: id,
            wait: true,
        }
        .to_json(),
    );

    let mut seen = Vec::new();
    loop {
        let reply = daemon.handle(&Request::Events { session: id }.to_json());
        let Some(Json::Arr(events)) = reply.get("events") else {
            panic!("events is an array");
        };
        if events.is_empty() {
            break;
        }
        seen.extend(events.iter().cloned());
    }
    // The stream is intact (bracketed by the flow's start/finish events)
    // and a re-poll yields nothing: exactly-once delivery.
    assert_eq!(
        seen.first()
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("flow-started")
    );
    assert_eq!(
        seen.last()
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("flow-finished")
    );
    for frame in &seen {
        event_from_json(frame).expect("every streamed event decodes");
    }
    let reply = daemon.handle(&Request::Events { session: id }.to_json());
    assert_eq!(
        reply.get("events").map(|e| e.to_compact()),
        Some("[]".to_owned())
    );
}

/// Strips the one wall-clock field an event can carry
/// (`FlowFinished.runtime_s`) so two captures of the same deterministic
/// stream compare equal.
fn zero_runtime(frame: &Json) -> Json {
    let Json::Obj(members) = frame else {
        return frame.clone();
    };
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| {
                if k == "runtime_s" {
                    (k.clone(), Json::Num(0.0))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect(),
    )
}

#[test]
fn late_client_drains_the_full_event_backlog_in_order() {
    // A client that first asks for events after the session already
    // finished — a shard supervisor reconnecting, a slow `submit` pump —
    // must receive the entire buffered history in emission order, not a
    // truncated tail. The golden order is a direct run observed by a
    // closure: the daemon routes the same engine's events through its
    // buffer, so backlog draining is capture-equality (modulo the one
    // wall-clock field).
    let job = quick_job(21);
    let daemon = Daemon::new(DaemonConfig::new(1)).expect("valid config");
    let reply = daemon.handle(&submit(&job, None));
    assert_eq!(code_of(&reply), None, "{reply}");
    let id = session_of(&reply);
    // Block on the result without ever polling events: the backlog
    // accumulates exactly as it would for a disconnected client.
    let reply = daemon.handle(
        &Request::Result {
            session: id,
            wait: true,
        }
        .to_json(),
    );
    assert_eq!(reply.get("done"), Some(&Json::Bool(true)));

    let mut streamed = Vec::new();
    loop {
        let reply = daemon.handle(&Request::Events { session: id }.to_json());
        let Some(Json::Arr(events)) = reply.get("events") else {
            panic!("events is an array");
        };
        if events.is_empty() {
            break;
        }
        streamed.extend(events.iter().map(zero_runtime));
    }

    let mut reference = Vec::new();
    let mut capture = FnObserver(|ev: &FlowEvent| reference.push(zero_runtime(&event_to_json(ev))));
    job.run_with(1, job.budget.to_budget(), &mut capture)
        .expect("reference run completes");

    assert!(!reference.is_empty(), "the flow emits events");
    assert_eq!(streamed, reference, "backlog is the full history, in order");
}

#[test]
fn daemon_enforces_tenant_quotas_and_recovers_on_cancel() {
    let daemon = Daemon::new(DaemonConfig::new(2).with_tenant_quota(1)).expect("valid config");

    let first = daemon.handle(&submit(&long_job(1), Some("acme")));
    assert_eq!(code_of(&first), None);
    let first_id = session_of(&first);

    // Same tenant, second live session: over quota.
    let over = daemon.handle(&submit(&long_job(2), Some("acme")));
    assert_eq!(code_of(&over), Some("quota-exceeded"));

    // The quota is per tenant, not global.
    let other = daemon.handle(&submit(&quick_job(3), Some("zeta")));
    assert_eq!(code_of(&other), None);

    // Cancelling the hog frees the quota.
    daemon.handle(&Request::Cancel { session: first_id }.to_json());
    let done = daemon.handle(
        &Request::Result {
            session: first_id,
            wait: true,
        }
        .to_json(),
    );
    assert_eq!(done.get("done"), Some(&Json::Bool(true)));
    let retry = daemon.handle(&submit(&quick_job(4), Some("acme")));
    assert_eq!(code_of(&retry), None, "{retry}");

    daemon.handle(&Request::Drain.to_json());
}

#[test]
fn daemon_bounds_live_sessions() {
    let daemon = Daemon::new(DaemonConfig::new(1).with_max_sessions(1)).expect("valid config");
    let first = daemon.handle(&submit(&long_job(1), None));
    assert_eq!(code_of(&first), None);
    let full = daemon.handle(&submit(&quick_job(2), None));
    assert_eq!(code_of(&full), Some("queue-full"));

    daemon.handle(
        &Request::Cancel {
            session: session_of(&first),
        }
        .to_json(),
    );
    daemon.handle(&Request::Drain.to_json());
    // After drain the finished session no longer counts against the cap
    // (but drain also closes admissions, so the next error changes).
    let draining = daemon.handle(&submit(&quick_job(3), None));
    assert_eq!(code_of(&draining), Some("draining"));
}

#[test]
fn daemon_drain_closes_admissions_but_keeps_serving_results() {
    let daemon = Daemon::new(DaemonConfig::new(2)).expect("valid config");
    let reply = daemon.handle(&submit(&quick_job(5), None));
    let id = session_of(&reply);

    let drained = daemon.handle(&Request::Drain.to_json());
    assert_eq!(
        drained.get("ok").and_then(Json::as_str),
        Some("drained"),
        "{drained}"
    );

    let rejected = daemon.handle(&submit(&quick_job(6), None));
    assert_eq!(code_of(&rejected), Some("draining"));

    // Results, status, and events for pre-drain sessions still serve.
    let result = daemon.handle(
        &Request::Result {
            session: id,
            wait: false,
        }
        .to_json(),
    );
    assert_eq!(result.get("done"), Some(&Json::Bool(true)));
    let status = daemon.handle(&Request::Status { session: id }.to_json());
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("completed")
    );

    let health = daemon.handle(&Request::Health.to_json());
    assert_eq!(health.get("draining"), Some(&Json::Bool(true)));
}

#[test]
fn daemon_health_reports_slots_sessions_and_tenants() {
    let daemon = Daemon::new(DaemonConfig::new(2)).expect("valid config");
    let idle = daemon.handle(&Request::Health.to_json());
    assert_eq!(code_of(&idle), None);
    let slots = idle.get("slots").expect("slots object");
    assert_eq!(slots.get("total").and_then(Json::as_f64), Some(2.0));
    assert_eq!(slots.get("available").and_then(Json::as_f64), Some(2.0));

    let reply = daemon.handle(&submit(&long_job(1), Some("acme")));
    let id = session_of(&reply);
    let busy = daemon.handle(&Request::Health.to_json());
    let tenants = busy.get("tenants").expect("tenants object");
    assert_eq!(tenants.get("acme").and_then(Json::as_f64), Some(1.0));

    daemon.handle(&Request::Cancel { session: id }.to_json());
    daemon.handle(&Request::Drain.to_json());
    let settled = daemon.handle(&Request::Health.to_json());
    let slots = settled.get("slots").expect("slots object");
    assert_eq!(
        slots.get("available").and_then(Json::as_f64),
        Some(2.0),
        "all slots return after drain: {settled}"
    );
    assert_eq!(
        settled.get("tenants").map(|t| t.to_compact()),
        Some("{}".to_owned()),
        "no live sessions, no live tenants"
    );
}

#[test]
fn daemon_stats_reports_registry_sessions_and_queue() {
    let daemon = Daemon::new(DaemonConfig::new(1)).expect("valid config");
    let reply = daemon.handle(&submit(&quick_job(13), None));
    let id = session_of(&reply);
    let done = daemon.handle(
        &Request::Result {
            session: id,
            wait: true,
        }
        .to_json(),
    );
    assert_eq!(done.get("done"), Some(&Json::Bool(true)));

    let stats = daemon.handle(&Request::Stats.to_json());
    assert_eq!(code_of(&stats), None, "{stats}");
    assert_eq!(stats.get("ok").and_then(Json::as_str), Some("stats"));

    // The registry is process-wide, so counters only ever grow across
    // tests in this binary — assert floors, not exact values.
    let counter = |name: &str| {
        stats
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("counter {name} present: {stats}"))
    };
    assert!(counter("evaluations") > 0.0, "the flow evaluated mutants");
    assert!(counter("sessions_reaped") >= 1.0, "stats reaps first");

    let sessions = stats.get("sessions").expect("sessions tally");
    assert!(
        sessions.get("completed").and_then(Json::as_f64) >= Some(1.0),
        "{stats}"
    );
    assert!(
        stats.get("queue_depth").and_then(Json::as_f64).is_some(),
        "{stats}"
    );
    assert!(stats.get("tenants").is_some(), "{stats}");
}

#[test]
fn stats_against_an_old_daemon_degrades_to_unknown_verb() {
    // A schema-1 daemon built before the stats verb answers it with a
    // typed unknown-verb error (not a schema break or a hangup) — the
    // vocabulary it advertises is how a new client learns what happened.
    let frame = Json::parse(r#"{"schema":1,"verb":"stats"}"#).expect("valid JSON");
    assert_eq!(Request::from_json(&frame).expect("parses"), Request::Stats);

    let (code, message) = {
        let unknown = Json::parse(r#"{"schema":1,"verb":"frobnicate"}"#).expect("valid JSON");
        Request::from_json(&unknown).expect_err("unknown verb")
    };
    assert_eq!(code, ErrorCode::UnknownVerb);
    assert!(
        message.contains("stats"),
        "the advertised verb list names stats: {message}"
    );
}

#[test]
fn daemon_rejects_unknown_sessions_and_inadmissible_jobs() {
    let daemon = Daemon::new(DaemonConfig::new(1)).expect("valid config");
    let reply = daemon.handle(&Request::Status { session: 99 }.to_json());
    assert_eq!(code_of(&reply), Some("unknown-session"));

    // threads: 0 flows through to the scheduler's typed rejection.
    let zero = daemon.handle(&submit(&quick_job(1).with_threads(0), None));
    assert_eq!(code_of(&zero), Some("rejected"));
    assert!(
        as_error(&zero)
            .expect("error frame")
            .1
            .contains("0 worker threads"),
        "{zero}"
    );

    // A thread over-ask is clamped, not rejected: the same manifest is
    // admissible on any daemon size.
    let clamped = daemon.handle(&submit(&quick_job(2).with_threads(64), None));
    assert_eq!(code_of(&clamped), None, "{clamped}");
    daemon.handle(&Request::Drain.to_json());
}

// ---------------------------------------------------------------------
// 3. Sockets: concurrent clients over TCP
// ---------------------------------------------------------------------

fn start_daemon(config: DaemonConfig) -> (String, std::thread::JoinHandle<()>) {
    let daemon = Daemon::new(config).expect("valid config");
    let listener = tdals::server::Listener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let spec = listener.local_spec();
    let handle = std::thread::spawn(move || daemon.serve(listener).expect("serve loop"));
    (spec, handle)
}

fn client(spec: &str) -> Connection<tdals::server::Stream> {
    Connection::new(tdals::server::connect(spec).expect("connect"))
}

fn call(conn: &mut Connection<tdals::server::Stream>, request: &Request) -> Json {
    conn.send(&request.to_json()).expect("send");
    conn.receive().expect("receive").expect("daemon replied")
}

#[test]
fn socket_disconnect_leaks_no_slots_and_quota_spans_connections() {
    let (spec, server) = start_daemon(DaemonConfig::new(2).with_tenant_quota(1));

    // Client 1 submits a long-running job, then vanishes mid-session.
    let first_id = {
        let mut conn = client(&spec);
        let reply = call(
            &mut conn,
            &Request::Submit {
                job: long_job(1),
                tenant: Some("acme".into()),
            },
        );
        assert_eq!(code_of(&reply), None, "{reply}");
        session_of(&reply)
        // conn drops here: an abrupt disconnect.
    };

    // Client 2, same tenant, different connection: the quota still
    // counts the orphaned session — per-tenant state is daemon-wide,
    // not per-connection.
    let mut conn = client(&spec);
    let over = call(
        &mut conn,
        &Request::Submit {
            job: long_job(2),
            tenant: Some("acme".into()),
        },
    );
    assert_eq!(code_of(&over), Some("quota-exceeded"));

    // The disconnect cancelled nothing: the session is still live and
    // any connection can adopt it by id.
    call(&mut conn, &Request::Cancel { session: first_id });
    let done = call(
        &mut conn,
        &Request::Result {
            session: first_id,
            wait: true,
        },
    );
    assert_eq!(done.get("done"), Some(&Json::Bool(true)));

    // No slot leaked: with the session settled, the pool is whole.
    let drained = call(&mut conn, &Request::Drain);
    assert_eq!(code_of(&drained), None);
    let health = call(&mut conn, &Request::Health);
    let slots = health.get("slots").expect("slots object");
    assert_eq!(
        slots.get("available").and_then(Json::as_f64),
        Some(2.0),
        "{health}"
    );

    let bye = call(&mut conn, &Request::Shutdown);
    assert_eq!(code_of(&bye), None);
    drop(conn);
    server.join().expect("serve thread exits cleanly");
}

#[test]
fn socket_bad_frames_survive_oversized_frames_close() {
    let (spec, server) = start_daemon(DaemonConfig::new(1).with_max_frame_len(256));

    // A malformed line gets a typed error and the connection survives:
    // the next (valid) frame on the same stream is answered.
    {
        let stream = TcpStream::connect(&spec).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"this is not json\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let reply = Json::parse(line.trim_end()).expect("error frame parses");
        assert_eq!(code_of(&reply), Some("bad-frame"));

        writer
            .write_all(format!("{}\n", Request::Health.to_json().compact()).as_bytes())
            .expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        let reply = Json::parse(line.trim_end()).expect("health frame parses");
        assert_eq!(reply.get("ok").and_then(Json::as_str), Some("health"));
    }

    // An oversized line cannot be resynchronized: one typed error, then
    // the daemon closes the connection (EOF).
    {
        let stream = TcpStream::connect(&spec).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut giant = vec![b'{'; 1000];
        giant.push(b'\n');
        writer.write_all(&giant).expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let reply = Json::parse(line.trim_end()).expect("error frame parses");
        assert_eq!(code_of(&reply), Some("oversized-frame"));
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
    }

    let mut conn = client(&spec);
    let bye = call(&mut conn, &Request::Shutdown);
    assert_eq!(code_of(&bye), None);
    drop(conn);
    server.join().expect("serve thread exits cleanly");
}

#[test]
fn socket_submit_status_events_result_full_session() {
    let (spec, server) = start_daemon(DaemonConfig::new(2));
    let mut conn = client(&spec);

    let job = quick_job(9).with_budget(JobBudget {
        max_iterations: Some(2),
        ..JobBudget::default()
    });
    let reply = call(
        &mut conn,
        &Request::Submit {
            job: job.clone(),
            tenant: None,
        },
    );
    assert_eq!(reply.get("ok").and_then(Json::as_str), Some("submitted"));
    let id = session_of(&reply);
    assert_eq!(reply.get("name").and_then(Json::as_str), Some("Int2float"));

    let result = call(
        &mut conn,
        &Request::Result {
            session: id,
            wait: true,
        },
    );
    assert_eq!(result.get("done"), Some(&Json::Bool(true)));
    let Some(Json::Obj(fields)) = result.get("record").cloned() else {
        panic!("record is an object");
    };
    // The wire record is exactly the serve-batch record body.
    let solo: Result<_, tdals::server::SessionError> = Ok(job.run_direct(1).expect("valid job"));
    assert_eq!(
        Json::Obj(fields).to_compact(),
        Json::Obj(session_record_fields(&job, &solo)).to_compact()
    );

    let status = call(&mut conn, &Request::Status { session: id });
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("completed")
    );
    let events = call(&mut conn, &Request::Events { session: id });
    let Some(Json::Arr(frames)) = events.get("events") else {
        panic!("events is an array");
    };
    assert!(!frames.is_empty(), "the finished session's stream flushes");

    // Stats over the same socket: the registry saw this job's work.
    let stats = call(&mut conn, &Request::Stats);
    assert_eq!(stats.get("ok").and_then(Json::as_str), Some("stats"));
    assert!(
        stats
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("evaluations"))
            .and_then(Json::as_f64)
            > Some(0.0),
        "{stats}"
    );

    let bye = call(&mut conn, &Request::Shutdown);
    assert_eq!(code_of(&bye), None);
    drop(conn);
    server.join().expect("serve thread exits cleanly");
}
