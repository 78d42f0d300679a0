//! The versioned wire protocol `tdals serve` speaks: newline-delimited
//! JSON frames over any byte stream.
//!
//! # Framing
//!
//! One frame is one JSON value rendered on a single line
//! ([`Json::compact`]) followed by `\n`. Frames longer than the
//! connection's limit are rejected with [`FrameError::Oversized`]
//! (the stream cannot be resynchronized, so the connection closes); a
//! stream that ends mid-line is [`FrameError::Truncated`]; a line that
//! is not valid JSON is [`FrameError::BadJson`] (the stream is still
//! aligned on the next `\n`, so the connection survives).
//!
//! # Versioning
//!
//! Every request, response, and event frame carries a `schema` field,
//! currently [`PROTOCOL_SCHEMA`]. The compatibility rule: a server
//! rejects frames whose schema it does not speak (`bad-schema`); within
//! one schema, fields are only ever *added*, and clients must ignore
//! object keys and event kinds they do not recognize. Renaming or
//! retyping a field requires a schema bump.
//!
//! The request vocabulary is [`Request`]; error replies are built with
//! [`error_frame`] from the closed [`ErrorCode`] set. [`FlowEvent`]s
//! travel as [`event_to_json`]/[`event_from_json`] — the same frames
//! `tdals serve-batch --progress` prints.

use std::io::{self, BufRead, BufReader, Read, Write};

use tdals_core::api::{FlowEvent, StopReason};
use tdals_core::{IterationStats, PostOptReport};
use tdals_obs::json::Json;
use tdals_sim::ErrorMetric;

use crate::job::{u64_from_json, u64_to_json, FlowJob};

/// Wire schema this build speaks. Carried by every frame.
pub const PROTOCOL_SCHEMA: u64 = 1;

/// Default per-frame byte limit: generous enough for a job with a large
/// inline Verilog circuit, small enough that one hostile line cannot
/// balloon the daemon's memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The line exceeded the connection's frame limit. Fatal for the
    /// connection: the stream position is inside the oversized line, so
    /// no later frame boundary can be trusted.
    Oversized {
        /// The limit that was exceeded, bytes.
        limit: usize,
    },
    /// The stream ended mid-line (no terminating `\n`). Fatal: the
    /// peer is gone.
    Truncated {
        /// Bytes of the unterminated line that did arrive.
        bytes: usize,
    },
    /// The line was framed correctly but is not valid JSON. The
    /// connection survives — the next frame starts after the next `\n`.
    BadJson(String),
    /// The underlying transport failed.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Truncated { bytes } => {
                write!(
                    f,
                    "stream ended mid-frame ({bytes} byte(s) without a newline)"
                )
            }
            FrameError::BadJson(e) => write!(f, "frame is not valid JSON: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one newline-terminated frame. `Ok(None)` is a clean
/// end-of-stream (the peer closed between frames).
///
/// # Errors
///
/// [`FrameError::Oversized`] past `max_len` bytes before the newline,
/// [`FrameError::Truncated`] on EOF mid-line, [`FrameError::Io`] on
/// transport failure (including non-UTF-8 bytes).
pub fn read_frame(reader: &mut impl BufRead, max_len: usize) -> Result<Option<String>, FrameError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader
            .fill_buf()
            .map_err(|e| FrameError::Io(e.to_string()))?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(FrameError::Truncated { bytes: line.len() })
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max_len {
                    return Err(FrameError::Oversized { limit: max_len });
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                let text = String::from_utf8(line)
                    .map_err(|_| FrameError::Io("frame is not UTF-8".into()))?;
                return Ok(Some(text));
            }
            None => {
                let n = buf.len();
                if line.len() + n > max_len {
                    return Err(FrameError::Oversized { limit: max_len });
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Writes one frame: the value on a single line, then `\n`, then flush.
/// The line goes out in one write: over TCP, a frame split across two
/// writes stalls on Nagle's algorithm against the peer's delayed ACK
/// (about 40 ms per request/reply round trip).
///
/// # Errors
///
/// The underlying transport's I/O error.
pub fn write_frame(writer: &mut impl Write, frame: &Json) -> io::Result<()> {
    writer.write_all(format!("{}\n", frame.compact()).as_bytes())?;
    writer.flush()
}

/// One framed, length-limited duplex connection: [`read_frame`] /
/// [`write_frame`] over a buffered stream. Both the daemon and the
/// `tdals submit` client speak through this, so the two ends cannot
/// disagree on framing.
#[derive(Debug)]
pub struct Connection<S: Read + Write> {
    reader: BufReader<S>,
    max_frame: usize,
}

impl<S: Read + Write> Connection<S> {
    /// Wraps a stream with the [`DEFAULT_MAX_FRAME_LEN`] limit.
    pub fn new(stream: S) -> Connection<S> {
        Connection::with_max_frame(stream, DEFAULT_MAX_FRAME_LEN)
    }

    /// Wraps a stream with an explicit per-frame byte limit.
    pub fn with_max_frame(stream: S, max_frame: usize) -> Connection<S> {
        Connection {
            reader: BufReader::new(stream),
            max_frame,
        }
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// The transport's I/O error.
    pub fn send(&mut self, frame: &Json) -> io::Result<()> {
        write_frame(self.reader.get_mut(), frame)
    }

    /// Receives one frame; `Ok(None)` is a clean end-of-stream.
    ///
    /// # Errors
    ///
    /// [`read_frame`]'s errors, plus [`FrameError::BadJson`] for a
    /// well-framed line that does not parse.
    pub fn receive(&mut self) -> Result<Option<Json>, FrameError> {
        match read_frame(&mut self.reader, self.max_frame)? {
            None => Ok(None),
            Some(line) => Json::parse(&line).map(Some).map_err(FrameError::BadJson),
        }
    }

    /// The underlying stream (e.g. to shut it down from another
    /// thread's clone).
    pub fn get_ref(&self) -> &S {
        self.reader.get_ref()
    }
}

// ---------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------

/// The closed set of wire error codes (the `error` field of an error
/// frame). Stable: codes are never renamed within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame was not a valid JSON object.
    BadFrame,
    /// The frame exceeded the connection's byte limit (connection
    /// closes).
    OversizedFrame,
    /// The stream ended mid-frame (reported by clients; a server sees
    /// this as a disconnect).
    TruncatedFrame,
    /// The frame's `schema` is missing or not one this server speaks.
    BadSchema,
    /// The request is structurally invalid (missing/mis-typed field,
    /// bad job description).
    BadRequest,
    /// The `verb` is not in the protocol vocabulary.
    UnknownVerb,
    /// The `session` id names no session on this daemon.
    UnknownSession,
    /// Admission control: the daemon's bounded session queue is full —
    /// back off and retry after sessions finish.
    QueueFull,
    /// Admission control: the submitting tenant is at its live-session
    /// quota.
    QuotaExceeded,
    /// The daemon is draining and admits no new work (existing sessions
    /// still serve `status`/`events`/`result`).
    Draining,
    /// The scheduler rejected the job (zero threads, thread ask beyond
    /// the lease cap, …); the message carries the typed detail.
    Rejected,
}

impl ErrorCode {
    /// The wire spelling of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::TruncatedFrame => "truncated-frame",
            ErrorCode::BadSchema => "bad-schema",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::Draining => "draining",
            ErrorCode::Rejected => "rejected",
        }
    }

    /// Inverse of [`ErrorCode::as_str`]; `None` for unknown spellings.
    pub fn parse(code: &str) -> Option<ErrorCode> {
        [
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
        ]
        .into_iter()
        .find(|c| c.as_str() == code)
    }
}

/// Builds an error reply frame:
/// `{"schema":1,"error":"<code>","message":"…"}`.
pub fn error_frame(code: ErrorCode, message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("error".into(), Json::Str(code.as_str().into())),
        ("message".into(), Json::Str(message.into())),
    ])
}

/// Reads an error reply back: `Some((code, message))` if `frame` is an
/// error frame.
pub fn as_error(frame: &Json) -> Option<(&str, &str)> {
    let code = frame.get("error")?.as_str()?;
    let message = frame.get("message").and_then(Json::as_str).unwrap_or("");
    Some((code, message))
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One client request, the payload of one frame. See the module docs
/// for the frame shapes; [`Request::to_json`] and
/// [`Request::from_json`] are exact inverses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Admit a job. The job object is the manifest job shape
    /// ([`FlowJob::to_json`]) with circuits inlined — the daemon reads
    /// no files, so a `circuit` path is rejected (`bench:` names are
    /// fine).
    Submit {
        /// The job to run.
        job: FlowJob,
        /// Tenant identity for quota accounting; anonymous submissions
        /// share one bucket.
        tenant: Option<String>,
    },
    /// Report a session's lifecycle status.
    Status {
        /// Daemon-assigned session id.
        session: u64,
    },
    /// Drain the session's buffered [`FlowEvent`]s (each event is
    /// delivered exactly once).
    Events {
        /// Daemon-assigned session id.
        session: u64,
    },
    /// Fetch the session's result record; `wait` blocks until the
    /// session finishes.
    Result {
        /// Daemon-assigned session id.
        session: u64,
        /// Block until done instead of returning `done: false`.
        wait: bool,
    },
    /// Request cooperative cancellation.
    Cancel {
        /// Daemon-assigned session id.
        session: u64,
    },
    /// Stop admitting, wait for every in-flight session to finish, keep
    /// serving results. Irreversible.
    Drain,
    /// Queue depth, slot utilization, per-status session counts,
    /// per-tenant live counts.
    Health,
    /// The process metric registry (counters, gauges, histograms) plus
    /// per-tenant and per-session gauges. Schema-compatible addition:
    /// older daemons answer `unknown-verb` and clients degrade.
    Stats,
    /// [`Request::Drain`], then stop the daemon process.
    Shutdown,
}

impl Request {
    /// The request as its wire frame.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> =
            vec![("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64))];
        let verb = |v: &str| ("verb".to_owned(), Json::Str(v.into()));
        match self {
            Request::Submit { job, tenant } => {
                members.push(verb("submit"));
                members.push(("job".into(), job.to_json()));
                if let Some(tenant) = tenant {
                    members.push(("tenant".into(), Json::Str(tenant.clone())));
                }
            }
            Request::Status { session } => {
                members.push(verb("status"));
                members.push(("session".into(), u64_to_json(*session)));
            }
            Request::Events { session } => {
                members.push(verb("events"));
                members.push(("session".into(), u64_to_json(*session)));
            }
            Request::Result { session, wait } => {
                members.push(verb("result"));
                members.push(("session".into(), u64_to_json(*session)));
                if *wait {
                    members.push(("wait".into(), Json::Bool(true)));
                }
            }
            Request::Cancel { session } => {
                members.push(verb("cancel"));
                members.push(("session".into(), u64_to_json(*session)));
            }
            Request::Drain => members.push(verb("drain")),
            Request::Health => members.push(verb("health")),
            Request::Stats => members.push(verb("stats")),
            Request::Shutdown => members.push(verb("shutdown")),
        }
        Json::Obj(members)
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// The [`ErrorCode`] to reply with, plus a human-readable message.
    pub fn from_json(frame: &Json) -> Result<Request, (ErrorCode, String)> {
        let Json::Obj(members) = frame else {
            return Err((ErrorCode::BadFrame, "request is not an object".into()));
        };
        // Strict keys, like the manifest format: a typo'd field must
        // not be silently ignored.
        const KNOWN: [&str; 6] = ["schema", "verb", "job", "tenant", "session", "wait"];
        if let Some((key, _)) = members.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err((
                ErrorCode::BadRequest,
                format!("unknown field `{key}` (known fields: {})", KNOWN.join(", ")),
            ));
        }
        match frame.get("schema").and_then(u64_from_json) {
            Some(PROTOCOL_SCHEMA) => {}
            Some(other) => {
                return Err((
                    ErrorCode::BadSchema,
                    format!("unsupported schema {other} (this server speaks {PROTOCOL_SCHEMA})"),
                ))
            }
            None => {
                return Err((
                    ErrorCode::BadSchema,
                    format!("missing `schema` (this server speaks {PROTOCOL_SCHEMA})"),
                ))
            }
        }
        let verb = frame
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| (ErrorCode::BadRequest, "missing string field `verb`".into()))?;
        let session = || -> Result<u64, (ErrorCode, String)> {
            frame.get("session").and_then(u64_from_json).ok_or_else(|| {
                (
                    ErrorCode::BadRequest,
                    format!("verb `{verb}` needs a non-negative integer `session`"),
                )
            })
        };
        match verb {
            "submit" => {
                let job_json = frame
                    .get("job")
                    .ok_or_else(|| (ErrorCode::BadRequest, "submit needs a `job` object".into()))?;
                // The daemon reads no files: a `circuit` path would
                // resolve against the *server's* filesystem, which is
                // both surprising and a read primitive. Clients inline
                // the Verilog instead (`tdals submit` does).
                let job = FlowJob::from_json(job_json, 0, &|path| {
                    Err(format!(
                        "the daemon reads no files; inline the circuit as `verilog` \
                         (got path `{path}`)"
                    ))
                })
                .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;
                let tenant = match frame.get("tenant") {
                    None => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| {
                                (ErrorCode::BadRequest, "`tenant` must be a string".into())
                            })?
                            .to_owned(),
                    ),
                };
                Ok(Request::Submit { job, tenant })
            }
            "status" => Ok(Request::Status {
                session: session()?,
            }),
            "events" => Ok(Request::Events {
                session: session()?,
            }),
            "result" => {
                let wait = match frame.get("wait") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => {
                        return Err((ErrorCode::BadRequest, "`wait` must be a boolean".into()))
                    }
                };
                Ok(Request::Result {
                    session: session()?,
                    wait,
                })
            }
            "cancel" => Ok(Request::Cancel {
                session: session()?,
            }),
            "drain" => Ok(Request::Drain),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((
                ErrorCode::UnknownVerb,
                format!(
                    "unknown verb `{other}` (expected submit|status|events|result|cancel|\
                     drain|health|stats|shutdown)"
                ),
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Event frames
// ---------------------------------------------------------------------

fn stats_to_json(stats: &IterationStats) -> Json {
    Json::Obj(vec![
        ("iteration".into(), Json::Num(stats.iteration as f64)),
        ("constraint".into(), Json::Num(stats.constraint)),
        ("best_fitness".into(), Json::Num(stats.best_fitness)),
        ("best_depth".into(), Json::Num(f64::from(stats.best_depth))),
        ("best_area".into(), Json::Num(stats.best_area)),
        ("feasible".into(), Json::Num(stats.feasible as f64)),
    ])
}

fn report_to_json(report: &PostOptReport) -> Json {
    Json::Obj(vec![
        (
            "gates_removed".into(),
            Json::Num(report.gates_removed as f64),
        ),
        ("cpd_before".into(), Json::Num(report.cpd_before)),
        ("cpd_after_sweep".into(), Json::Num(report.cpd_after_sweep)),
        ("cpd_final".into(), Json::Num(report.cpd_final)),
        ("area_final".into(), Json::Num(report.area_final)),
        ("sizing_moves".into(), Json::Num(report.sizing_moves as f64)),
    ])
}

/// A [`FlowEvent`] as its wire frame:
/// `{"schema":1,"kind":"<FlowEvent::kind>",…fields…}`.
/// [`event_from_json`] round-trips it exactly.
pub fn event_to_json(event: &FlowEvent) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("kind".into(), Json::Str(event.kind().into())),
    ];
    match event {
        FlowEvent::FlowStarted {
            optimizer,
            gates,
            cpd_ori,
            area_ori,
            metric,
            error_bound,
        } => {
            members.push(("optimizer".into(), Json::Str(optimizer.clone())));
            members.push(("gates".into(), Json::Num(*gates as f64)));
            members.push(("cpd_ori".into(), Json::Num(*cpd_ori)));
            members.push(("area_ori".into(), Json::Num(*area_ori)));
            members.push(("metric".into(), Json::Str(metric.cli_name().into())));
            members.push(("error_bound".into(), Json::Num(*error_bound)));
        }
        FlowEvent::IterationStarted {
            iteration,
            constraint,
        } => {
            members.push(("iteration".into(), Json::Num(*iteration as f64)));
            members.push(("constraint".into(), Json::Num(*constraint)));
        }
        FlowEvent::BestImproved {
            iteration,
            fitness,
            error,
            depth,
            area,
        } => {
            members.push(("iteration".into(), Json::Num(*iteration as f64)));
            members.push(("fitness".into(), Json::Num(*fitness)));
            members.push(("error".into(), Json::Num(*error)));
            members.push(("depth".into(), Json::Num(f64::from(*depth))));
            members.push(("area".into(), Json::Num(*area)));
        }
        FlowEvent::LacAccepted {
            iteration,
            error,
            area,
        } => {
            members.push(("iteration".into(), Json::Num(*iteration as f64)));
            members.push(("error".into(), Json::Num(*error)));
            members.push(("area".into(), Json::Num(*area)));
        }
        FlowEvent::IterationFinished { stats } => {
            members.push(("stats".into(), stats_to_json(stats)));
        }
        FlowEvent::OptimizeFinished { stop, evaluations } => {
            members.push(("stop".into(), Json::Str(stop.wire_name().into())));
            members.push(("evaluations".into(), u64_to_json(*evaluations)));
        }
        FlowEvent::PostOptStarted { area_con } => {
            members.push(("area_con".into(), Json::Num(*area_con)));
        }
        FlowEvent::PostOptFinished { report } => {
            members.push(("report".into(), report_to_json(report)));
        }
        FlowEvent::FlowFinished {
            ratio_cpd,
            error,
            runtime_s,
        } => {
            members.push(("ratio_cpd".into(), Json::Num(*ratio_cpd)));
            members.push(("error".into(), Json::Num(*error)));
            members.push(("runtime_s".into(), Json::Num(*runtime_s)));
        }
        // FlowEvent is non_exhaustive: a variant this build does not
        // know still travels as its kind tag with no fields.
        _ => {}
    }
    Json::Obj(members)
}

fn num(frame: &Json, key: &str) -> Result<f64, String> {
    frame
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("event frame missing numeric field `{key}`"))
}

fn uint(frame: &Json, key: &str) -> Result<usize, String> {
    let n = num(frame, key)?;
    if n.fract() != 0.0 || n < 0.0 {
        return Err(format!(
            "event field `{key}` must be a non-negative integer"
        ));
    }
    Ok(n as usize)
}

fn text<'a>(frame: &'a Json, key: &str) -> Result<&'a str, String> {
    frame
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("event frame missing string field `{key}`"))
}

fn stats_from_json(value: &Json) -> Result<IterationStats, String> {
    Ok(IterationStats {
        iteration: uint(value, "iteration")?,
        constraint: num(value, "constraint")?,
        best_fitness: num(value, "best_fitness")?,
        best_depth: uint(value, "best_depth")? as u32,
        best_area: num(value, "best_area")?,
        feasible: uint(value, "feasible")?,
    })
}

fn report_from_json(value: &Json) -> Result<PostOptReport, String> {
    Ok(PostOptReport {
        gates_removed: uint(value, "gates_removed")?,
        cpd_before: num(value, "cpd_before")?,
        cpd_after_sweep: num(value, "cpd_after_sweep")?,
        cpd_final: num(value, "cpd_final")?,
        area_final: num(value, "area_final")?,
        sizing_moves: uint(value, "sizing_moves")?,
    })
}

/// Parses an event frame back into a [`FlowEvent`]; inverse of
/// [`event_to_json`].
///
/// # Errors
///
/// A human-readable message for a wrong schema, an unknown kind, or a
/// missing/mis-typed field. Per the compatibility rule, a client that
/// merely relays events should treat an unknown `kind` as opaque rather
/// than calling this.
pub fn event_from_json(frame: &Json) -> Result<FlowEvent, String> {
    match frame.get("schema").and_then(u64_from_json) {
        Some(PROTOCOL_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported event schema {other}")),
        None => return Err("event frame missing `schema`".into()),
    }
    let kind = text(frame, "kind")?;
    match kind {
        "flow-started" => Ok(FlowEvent::FlowStarted {
            optimizer: text(frame, "optimizer")?.to_owned(),
            gates: uint(frame, "gates")?,
            cpd_ori: num(frame, "cpd_ori")?,
            area_ori: num(frame, "area_ori")?,
            metric: {
                let name = text(frame, "metric")?;
                ErrorMetric::parse(name).ok_or_else(|| format!("unknown metric `{name}`"))?
            },
            error_bound: num(frame, "error_bound")?,
        }),
        "iteration-started" => Ok(FlowEvent::IterationStarted {
            iteration: uint(frame, "iteration")?,
            constraint: num(frame, "constraint")?,
        }),
        "best-improved" => Ok(FlowEvent::BestImproved {
            iteration: uint(frame, "iteration")?,
            fitness: num(frame, "fitness")?,
            error: num(frame, "error")?,
            depth: uint(frame, "depth")? as u32,
            area: num(frame, "area")?,
        }),
        "lac-accepted" => Ok(FlowEvent::LacAccepted {
            iteration: uint(frame, "iteration")?,
            error: num(frame, "error")?,
            area: num(frame, "area")?,
        }),
        "iteration-finished" => Ok(FlowEvent::IterationFinished {
            stats: stats_from_json(
                frame
                    .get("stats")
                    .ok_or_else(|| "event frame missing `stats`".to_owned())?,
            )?,
        }),
        "optimize-finished" => Ok(FlowEvent::OptimizeFinished {
            stop: {
                let tag = text(frame, "stop")?;
                StopReason::parse_wire_name(tag)
                    .ok_or_else(|| format!("unknown stop reason `{tag}`"))?
            },
            evaluations: frame
                .get("evaluations")
                .and_then(u64_from_json)
                .ok_or_else(|| "event frame missing `evaluations`".to_owned())?,
        }),
        "post-opt-started" => Ok(FlowEvent::PostOptStarted {
            area_con: num(frame, "area_con")?,
        }),
        "post-opt-finished" => Ok(FlowEvent::PostOptFinished {
            report: report_from_json(
                frame
                    .get("report")
                    .ok_or_else(|| "event frame missing `report`".to_owned())?,
            )?,
        }),
        "flow-finished" => Ok(FlowEvent::FlowFinished {
            ratio_cpd: num(frame, "ratio_cpd")?,
            error: num(frame, "error")?,
            runtime_s: num(frame, "runtime_s")?,
        }),
        other => Err(format!("unknown event kind `{other}`")),
    }
}
