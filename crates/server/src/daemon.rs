//! `tdals serve`: a long-lived daemon that speaks the
//! [`protocol`](crate::protocol) over TCP or unix-domain sockets.
//!
//! The daemon wraps one [`Scheduler`] with the service concerns the
//! library layer deliberately does not have: admission control (a
//! bounded live-session registry, [`ErrorCode::QueueFull`]), per-tenant
//! quotas layered on the scheduler's priority queue
//! ([`ErrorCode::QuotaExceeded`]), graceful drain (stop admitting,
//! finish in-flight work, keep serving results), and a health endpoint.
//!
//! Determinism carries through: a session record served over the wire
//! is field-for-field the record `tdals serve-batch` writes
//! ([`session_record_fields`]), so a client that prepends its own
//! submission indices reassembles a byte-identical results document —
//! the property the CI determinism soak (`ci/determinism-soak.sh`)
//! diffs.
//!
//! [`Daemon::handle`] is transport-free (a request frame in, a response
//! frame out), so the whole verb surface is unit-testable without
//! sockets; [`Daemon::serve`] adds the accept loop, one thread per
//! connection.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use tdals_obs::json::Json;

use crate::job::{session_record_fields, u64_to_json, FlowJob};
use crate::protocol::{error_frame, event_to_json, Connection, ErrorCode, FrameError, Request};
use crate::protocol::{DEFAULT_MAX_FRAME_LEN, PROTOCOL_SCHEMA};
use crate::scheduler::{Scheduler, SchedulerConfig, ServerError, SessionHandle, SessionStatus};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Daemon configuration: the scheduler's pool shape plus the service
/// limits the scheduler itself does not police.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct DaemonConfig {
    /// Total worker slots shared by every session.
    pub total_threads: usize,
    /// Most slots one session may lease; `None` means the whole pool.
    pub session_cap: Option<usize>,
    /// Most sessions live (queued + running) at once across all
    /// tenants; submissions beyond it get [`ErrorCode::QueueFull`].
    pub max_sessions: usize,
    /// Most sessions one tenant may have live at once; `None` disables
    /// quotas. Anonymous submissions share one bucket.
    pub tenant_quota: Option<usize>,
    /// Per-connection frame byte limit.
    pub max_frame_len: usize,
}

impl DaemonConfig {
    /// A daemon over `total_threads` worker slots with default limits:
    /// 1024 live sessions, no tenant quota,
    /// [`DEFAULT_MAX_FRAME_LEN`]-byte frames.
    pub fn new(total_threads: usize) -> DaemonConfig {
        DaemonConfig {
            total_threads,
            session_cap: None,
            max_sessions: 1024,
            tenant_quota: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// Caps how many slots one session may lease.
    pub fn with_session_cap(mut self, cap: usize) -> DaemonConfig {
        self.session_cap = Some(cap);
        self
    }

    /// Bounds the live-session registry (admission control).
    pub fn with_max_sessions(mut self, max: usize) -> DaemonConfig {
        self.max_sessions = max;
        self
    }

    /// Caps live sessions per tenant.
    pub fn with_tenant_quota(mut self, quota: usize) -> DaemonConfig {
        self.tenant_quota = Some(quota);
        self
    }

    /// Sets the per-connection frame byte limit.
    pub fn with_max_frame_len(mut self, len: usize) -> DaemonConfig {
        self.max_frame_len = len;
        self
    }
}

// ---------------------------------------------------------------------
// Session registry
// ---------------------------------------------------------------------

enum SessionEntry {
    /// Queued or running; the handle is live and owns event delivery.
    Live {
        handle: SessionHandle,
        job: FlowJob,
        tenant: Option<String>,
    },
    /// Finished and reaped: the handle (and the outcome's netlists) are
    /// dropped, only the wire-sized record and undelivered events stay.
    Done {
        tenant: Option<String>,
        status: SessionStatus,
        record: Json,
        pending_events: Vec<Json>,
    },
}

impl SessionEntry {
    fn tenant(&self) -> Option<&str> {
        match self {
            SessionEntry::Live { tenant, .. } | SessionEntry::Done { tenant, .. } => {
                tenant.as_deref()
            }
        }
    }

    fn status(&self) -> SessionStatus {
        match self {
            SessionEntry::Live { handle, .. } => handle.status(),
            SessionEntry::Done { status, .. } => *status,
        }
    }

    fn is_live(&self) -> bool {
        matches!(self, SessionEntry::Live { .. })
    }
}

struct Registry {
    next_id: u64,
    sessions: BTreeMap<u64, SessionEntry>,
}

struct DaemonState {
    registry: Mutex<Registry>,
    /// Once set the daemon admits nothing, ever again (drain is
    /// irreversible); existing sessions still serve reads.
    draining: AtomicBool,
    /// Set by `shutdown`: the accept loop exits after its next wake.
    stop: AtomicBool,
}

impl DaemonState {
    fn registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

/// The serving daemon behind `tdals serve`. Cheap to clone (one clone
/// per connection thread); clones share the scheduler and the session
/// registry.
#[derive(Clone)]
pub struct Daemon {
    scheduler: Scheduler,
    config: DaemonConfig,
    state: Arc<DaemonState>,
}

impl Daemon {
    /// Builds the daemon and its scheduler.
    ///
    /// # Errors
    ///
    /// The scheduler's configuration errors ([`ServerError::NoWorkers`],
    /// [`ServerError::ZeroSessionCap`](crate::scheduler::ServerError)).
    pub fn new(config: DaemonConfig) -> Result<Daemon, ServerError> {
        let mut sched = SchedulerConfig::new(config.total_threads);
        if let Some(cap) = config.session_cap {
            sched = sched.with_session_cap(cap);
        }
        Ok(Daemon {
            scheduler: Scheduler::new(sched)?,
            config,
            state: Arc::new(DaemonState {
                registry: Mutex::new(Registry {
                    next_id: 0,
                    sessions: BTreeMap::new(),
                }),
                draining: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// Whether `drain` (or `shutdown`) has been requested.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Whether `shutdown` has been requested.
    pub fn is_stopping(&self) -> bool {
        self.state.stop.load(Ordering::SeqCst)
    }

    /// Converts every finished `Live` entry to `Done`: builds its wire
    /// record, drains its remaining events, and drops its handle (and
    /// with it the outcome's netlists). Called before every read so the
    /// registry's live count tracks the scheduler.
    fn reap(&self, registry: &mut Registry) {
        let finished: Vec<u64> = registry
            .sessions
            .iter()
            .filter_map(|(id, entry)| match entry {
                SessionEntry::Live { handle, .. } => handle.try_result().map(|_| *id),
                SessionEntry::Done { .. } => None,
            })
            .collect();
        for id in finished {
            tdals_obs::metrics().sessions_reaped.incr();
            let Some(SessionEntry::Live {
                handle,
                job,
                tenant,
            }) = registry.sessions.remove(&id)
            else {
                unreachable!("id was collected from a Live entry under this lock");
            };
            let result = handle
                .try_result()
                .expect("entry was collected because its result is ready");
            let record = Json::Obj(session_record_fields(&job, &result));
            let pending_events = handle.poll_events().iter().map(event_to_json).collect();
            registry.sessions.insert(
                id,
                SessionEntry::Done {
                    tenant,
                    status: handle.status(),
                    record,
                    pending_events,
                },
            );
        }
    }

    /// Handles one request frame and returns the response frame. This
    /// is the entire verb surface — transports just move frames in and
    /// out. A `result` request with `wait: true` blocks until the
    /// session finishes (the registry lock is released while waiting).
    pub fn handle(&self, frame: &Json) -> Json {
        let request = match Request::from_json(frame) {
            Ok(request) => request,
            Err((code, message)) => return error_frame(code, message),
        };
        match request {
            Request::Submit { job, tenant } => self.submit(job, tenant),
            Request::Status { session } => self.status(session),
            Request::Events { session } => self.events(session),
            Request::Result { session, wait } => self.result(session, wait),
            Request::Cancel { session } => self.cancel(session),
            Request::Drain => self.drain(),
            Request::Health => self.health(),
            Request::Stats => self.stats(),
            Request::Shutdown => {
                let reply = self.drain();
                self.state.stop.store(true, Ordering::SeqCst);
                reply
            }
        }
    }

    fn submit(&self, mut job: FlowJob, tenant: Option<String>) -> Json {
        if self.is_draining() {
            return error_frame(ErrorCode::Draining, "daemon is draining; no new work");
        }
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let live = registry.sessions.values().filter(|e| e.is_live()).count();
        if live >= self.config.max_sessions {
            return error_frame(
                ErrorCode::QueueFull,
                format!(
                    "{live} live session(s) at the {} cap; retry after some finish",
                    self.config.max_sessions
                ),
            );
        }
        if let Some(quota) = self.config.tenant_quota {
            let mine = registry
                .sessions
                .values()
                .filter(|e| e.is_live() && e.tenant() == tenant.as_deref())
                .count();
            if mine >= quota {
                return error_frame(
                    ErrorCode::QuotaExceeded,
                    format!("tenant has {mine} live session(s) at the {quota} quota"),
                );
            }
        }
        // A thread ask beyond the lease cap is clamped, not rejected —
        // a manifest tuned for a bigger daemon still runs (outcomes are
        // width-invariant). An explicit 0 stays, so the scheduler's
        // typed ZeroThreads error reaches the client.
        if let Some(t) = job.threads {
            if t > 0 {
                job.threads = Some(t.min(self.scheduler.lease_cap()));
            }
        }
        let name = job.name.clone();
        let handle = match self.scheduler.submit(job.clone()) {
            Ok(handle) => handle,
            Err(e) => return error_frame(ErrorCode::Rejected, e.to_string()),
        };
        let id = registry.next_id;
        registry.next_id += 1;
        registry.sessions.insert(
            id,
            SessionEntry::Live {
                handle,
                job,
                tenant,
            },
        );
        Json::Obj(vec![
            schema_field(),
            ok_field("submitted"),
            ("session".into(), u64_to_json(id)),
            ("name".into(), Json::Str(name)),
        ])
    }

    fn status(&self, id: u64) -> Json {
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let Some(entry) = registry.sessions.get(&id) else {
            return unknown_session(id);
        };
        let status = entry.status();
        let mut members = vec![
            schema_field(),
            ok_field("status"),
            ("session".into(), u64_to_json(id)),
            ("status".into(), Json::Str(status_label(status).into())),
        ];
        if let SessionStatus::Running { threads } = status {
            members.push(("threads".into(), Json::Num(threads as f64)));
        }
        Json::Obj(members)
    }

    fn events(&self, id: u64) -> Json {
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let Some(entry) = registry.sessions.get_mut(&id) else {
            return unknown_session(id);
        };
        let (events, done) = match entry {
            SessionEntry::Live { handle, .. } => (
                handle.poll_events().iter().map(event_to_json).collect(),
                false,
            ),
            SessionEntry::Done { pending_events, .. } => (std::mem::take(pending_events), true),
        };
        Json::Obj(vec![
            schema_field(),
            ok_field("events"),
            ("session".into(), u64_to_json(id)),
            ("done".into(), Json::Bool(done)),
            ("events".into(), Json::Arr(events)),
        ])
    }

    fn result(&self, id: u64, wait: bool) -> Json {
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        match registry.sessions.get(&id) {
            None => return unknown_session(id),
            Some(SessionEntry::Done { .. }) => {}
            Some(SessionEntry::Live { handle, .. }) => {
                if !wait {
                    return Json::Obj(vec![
                        schema_field(),
                        ok_field("result"),
                        ("session".into(), u64_to_json(id)),
                        ("done".into(), Json::Bool(false)),
                    ]);
                }
                // Block outside the registry lock: co-tenants must keep
                // submitting and polling while this waiter sleeps. The
                // handle clone shares the session's event buffer, so no
                // event is lost or duplicated by waiting.
                let waiter = handle.clone();
                drop(registry);
                let _ = waiter.result();
                registry = self.state.registry();
                self.reap(&mut registry);
            }
        }
        let Some(SessionEntry::Done { status, record, .. }) = registry.sessions.get(&id) else {
            return unknown_session(id);
        };
        Json::Obj(vec![
            schema_field(),
            ok_field("result"),
            ("session".into(), u64_to_json(id)),
            ("done".into(), Json::Bool(true)),
            ("status".into(), Json::Str(status_label(*status).into())),
            ("record".into(), record.clone()),
        ])
    }

    fn cancel(&self, id: u64) -> Json {
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let Some(entry) = registry.sessions.get(&id) else {
            return unknown_session(id);
        };
        // Cancelling a finished session is an idempotent no-op.
        if let SessionEntry::Live { handle, .. } = entry {
            handle.cancel();
        }
        Json::Obj(vec![
            schema_field(),
            ok_field("cancelled"),
            ("session".into(), u64_to_json(id)),
        ])
    }

    fn drain(&self) -> Json {
        self.state.draining.store(true, Ordering::SeqCst);
        // With admissions closed, this converges: finish in-flight
        // sessions, then flush their records into the registry.
        self.scheduler.drain();
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let sessions = registry.sessions.len();
        Json::Obj(vec![
            schema_field(),
            ok_field("drained"),
            ("sessions".into(), Json::Num(sessions as f64)),
        ])
    }

    fn health(&self) -> Json {
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let mut by_status: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut by_tenant: BTreeMap<String, usize> = BTreeMap::new();
        for entry in registry.sessions.values() {
            *by_status.entry(status_label(entry.status())).or_default() += 1;
            if entry.is_live() {
                *by_tenant
                    .entry(entry.tenant().unwrap_or("").to_owned())
                    .or_default() += 1;
            }
        }
        let counts = |labels: &[&str]| {
            Json::Obj(
                labels
                    .iter()
                    .map(|l| {
                        (
                            (*l).to_owned(),
                            Json::Num(by_status.get(l).copied().unwrap_or(0) as f64),
                        )
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            schema_field(),
            ok_field("health"),
            ("draining".into(), Json::Bool(self.is_draining())),
            (
                "queue_depth".into(),
                Json::Num(self.scheduler.waiting_sessions() as f64),
            ),
            (
                "slots".into(),
                Json::Obj(vec![
                    (
                        "total".into(),
                        Json::Num(self.scheduler.total_threads() as f64),
                    ),
                    (
                        "available".into(),
                        Json::Num(self.scheduler.available_threads() as f64),
                    ),
                    (
                        "lease_cap".into(),
                        Json::Num(self.scheduler.lease_cap() as f64),
                    ),
                ]),
            ),
            (
                "sessions".into(),
                counts(&["queued", "running", "completed", "failed", "panicked"]),
            ),
            // Live sessions per tenant, tenant-name order; anonymous
            // submissions count under "".
            (
                "tenants".into(),
                Json::Obj(
                    by_tenant
                        .into_iter()
                        .map(|(t, n)| (t, Json::Num(n as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    fn stats(&self) -> Json {
        let mut registry = self.state.registry();
        self.reap(&mut registry);
        let mut by_status: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut by_tenant: BTreeMap<String, usize> = BTreeMap::new();
        for entry in registry.sessions.values() {
            *by_status.entry(status_label(entry.status())).or_default() += 1;
            if entry.is_live() {
                *by_tenant
                    .entry(entry.tenant().unwrap_or("").to_owned())
                    .or_default() += 1;
            }
        }
        drop(registry);
        // The process-wide registry is one shared instance, so a daemon
        // embedded next to other work reports that work's counters too
        // — by design: the counters describe the process.
        let metrics = tdals_obs::report::snapshot_to_json(&tdals_obs::metrics().snapshot());
        Json::Obj(vec![
            schema_field(),
            ok_field("stats"),
            ("metrics".into(), metrics),
            (
                "sessions".into(),
                Json::Obj(
                    by_status
                        .into_iter()
                        .map(|(s, n)| (s.to_owned(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "tenants".into(),
                Json::Obj(
                    by_tenant
                        .into_iter()
                        .map(|(t, n)| (t, Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "queue_depth".into(),
                Json::Num(self.scheduler.waiting_sessions() as f64),
            ),
        ])
    }

    // -----------------------------------------------------------------
    // Socket serving
    // -----------------------------------------------------------------

    /// Serves connections until a `shutdown` request: one thread per
    /// connection, each speaking the frame protocol through
    /// [`Daemon::handle`]. Blocks; returns once every connection thread
    /// has exited after shutdown. A client disconnect does *not* cancel
    /// its sessions — they run to completion and their slots return to
    /// the pool (another connection can still fetch the results).
    ///
    /// # Errors
    ///
    /// The accept loop's I/O errors.
    pub fn serve(&self, listener: Listener) -> io::Result<()> {
        let wake_spec = listener.local_spec();
        let threads = Arc::new((Mutex::new(0usize), Condvar::new()));
        loop {
            let stream = listener.accept()?;
            if self.is_stopping() {
                break;
            }
            let daemon = self.clone();
            let wake = wake_spec.clone();
            let counter = Arc::clone(&threads);
            *counter.0.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            let spawned = std::thread::Builder::new()
                .name("tdals-conn".into())
                .spawn(move || {
                    daemon.serve_connection(stream);
                    if daemon.is_stopping() {
                        // The accept loop is blocked in accept(); poke
                        // it with a throwaway connection so it observes
                        // the stop flag.
                        let _ = connect(&wake);
                    }
                    let (lock, cv) = &*counter;
                    *lock.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
                    cv.notify_all();
                });
            if spawned.is_err() {
                *threads.0.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
            }
        }
        let (lock, cv) = &*threads;
        let mut active = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while *active > 0 {
            active = cv.wait(active).unwrap_or_else(PoisonError::into_inner);
        }
        drop(active);
        listener.cleanup();
        Ok(())
    }

    /// One connection's request/response loop. Survives `bad-frame`
    /// lines (the stream is still aligned); closes on oversized frames
    /// (alignment is lost) and on transport errors.
    fn serve_connection(&self, stream: Stream) {
        let mut conn = Connection::with_max_frame(stream, self.config.max_frame_len);
        loop {
            match conn.receive() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    tdals_obs::metrics().frames_read.incr();
                    let reply = self.handle(&frame);
                    if conn.send(&reply).is_err() {
                        break;
                    }
                    tdals_obs::metrics().frames_written.incr();
                    if self.is_stopping() {
                        break;
                    }
                }
                Err(FrameError::BadJson(e)) => {
                    if conn.send(&error_frame(ErrorCode::BadFrame, e)).is_err() {
                        break;
                    }
                }
                Err(FrameError::Oversized { limit }) => {
                    let _ = conn.send(&error_frame(
                        ErrorCode::OversizedFrame,
                        format!("frame exceeds the {limit}-byte limit"),
                    ));
                    break;
                }
                Err(_) => break,
            }
        }
    }
}

fn schema_field() -> (String, Json) {
    ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64))
}

fn ok_field(verb: &str) -> (String, Json) {
    ("ok".into(), Json::Str(verb.into()))
}

fn unknown_session(id: u64) -> Json {
    error_frame(
        ErrorCode::UnknownSession,
        format!("no session {id} on this daemon"),
    )
}

/// The wire spelling of a [`SessionStatus`].
fn status_label(status: SessionStatus) -> &'static str {
    match status {
        SessionStatus::Queued => "queued",
        SessionStatus::Running { .. } => "running",
        SessionStatus::Completed => "completed",
        SessionStatus::Failed => "failed",
        SessionStatus::Panicked => "panicked",
    }
}

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// Interprets a listen/connect spec: anything containing `/` (or
/// prefixed `unix:`) is a unix-socket path, everything else a TCP
/// `host:port`.
fn unix_path(spec: &str) -> Option<&str> {
    if let Some(path) = spec.strip_prefix("unix:") {
        return Some(path);
    }
    spec.contains('/').then_some(spec)
}

/// A bound listening socket: TCP (`host:port`) or unix-domain (a path,
/// or `unix:<path>`).
#[derive(Debug)]
pub enum Listener {
    /// TCP socket.
    Tcp(TcpListener),
    /// Unix-domain socket plus its filesystem path (removed by
    /// [`Daemon::serve`] on exit).
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    /// Binds per the spec rule above.
    ///
    /// # Errors
    ///
    /// The OS bind error.
    pub fn bind(spec: &str) -> io::Result<Listener> {
        match unix_path(spec) {
            #[cfg(unix)]
            Some(path) => Ok(Listener::Unix(UnixListener::bind(path)?, path.to_owned())),
            #[cfg(not(unix))]
            Some(path) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets are unavailable on this platform: {path}"),
            )),
            None => Ok(Listener::Tcp(TcpListener::bind(spec)?)),
        }
    }

    /// The spec a client on this machine can [`connect`] to — the
    /// actual bound address, so binding port 0 reports the real port.
    pub fn local_spec(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "127.0.0.1:0".into()),
            #[cfg(unix)]
            Listener::Unix(_, path) => path.clone(),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
            #[cfg(unix)]
            Listener::Unix(l, _) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }

    fn cleanup(&self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted or dialed connection; [`Read`] + [`Write`], so it slots
/// into [`Connection`].
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Dials a daemon using the same spec rule as [`Listener::bind`].
///
/// # Errors
///
/// The OS connect error.
pub fn connect(spec: &str) -> io::Result<Stream> {
    match unix_path(spec) {
        #[cfg(unix)]
        Some(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        Some(path) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("unix sockets are unavailable on this platform: {path}"),
        )),
        None => Ok(Stream::Tcp(TcpStream::connect(spec)?)),
    }
}

/// Why a dial (with retries) gave up. The variant matters to callers:
/// `Refused` means nothing was listening — the retryable condition a
/// daemon that is still binding its socket produces — while `Other`
/// wraps every error retrying cannot fix (bad address, permission,
/// unsupported transport).
#[derive(Debug)]
#[non_exhaustive]
pub enum ConnectError {
    /// Nothing accepted on the spec after every attempt (TCP
    /// `ConnectionRefused`, or a unix socket path not created yet).
    Refused {
        /// The spec that was dialed.
        spec: String,
        /// How many connection attempts were made (retries + 1).
        attempts: usize,
        /// The last OS error.
        error: io::Error,
    },
    /// A non-retryable dial error.
    Other {
        /// The spec that was dialed.
        spec: String,
        /// The OS error.
        error: io::Error,
    },
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Refused {
                spec,
                attempts,
                error,
            } => write!(
                f,
                "connection-refused: nothing is listening on {spec} \
                 (after {attempts} attempt(s)): {error}"
            ),
            ConnectError::Other { spec, error } => write!(f, "connecting to {spec}: {error}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Whether retrying the dial can possibly succeed: the daemon may still
/// be binding. `NotFound` covers a unix socket whose path does not
/// exist yet.
fn dial_retryable(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound
    )
}

/// Dials like [`connect`], retrying a refused connection up to
/// `retries` extra times with bounded backoff (50 ms doubling to a
/// 1 s ceiling — a fixed schedule, no wall-clock reads, so the retry
/// loop is determinism-lint clean). `retries == 0` is a single plain
/// dial with the typed error.
///
/// # Errors
///
/// [`ConnectError::Refused`] once the attempts are exhausted;
/// [`ConnectError::Other`] immediately for anything retrying cannot
/// fix.
pub fn connect_retry(spec: &str, retries: usize) -> Result<Stream, ConnectError> {
    let mut attempt = 0usize;
    loop {
        match connect(spec) {
            Ok(stream) => return Ok(stream),
            Err(error) if !dial_retryable(&error) => {
                return Err(ConnectError::Other {
                    spec: spec.to_owned(),
                    error,
                })
            }
            Err(error) => {
                if attempt >= retries {
                    return Err(ConnectError::Refused {
                        spec: spec.to_owned(),
                        attempts: attempt + 1,
                        error,
                    });
                }
                let backoff = 50u64.saturating_mul(1 << attempt.min(5)).min(1000);
                std::thread::sleep(std::time::Duration::from_millis(backoff));
                attempt += 1;
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}
