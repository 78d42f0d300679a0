//! The worker supervisor: one `tdals serve` daemon per shard, driven
//! over the wire protocol.
//!
//! [`run_daemons`] drives daemons that are already running: one submit
//! client per shard, reassembling each shard's records exactly as
//! `tdals submit` does.
//!
//! [`run_children`] is a thin front over the same client. For each
//! shard it spawns `tdals serve --listen 127.0.0.1:0`, reads the bound
//! address from the daemon's `serve: listening on …` banner, drives it,
//! and sends it the protocol's `shutdown` verb when the shard is done.
//! A spawned daemon that dies — before its banner, or with the
//! connection lost mid-conversation — is respawned once and its shard
//! is re-driven from its first job. That is safe because results are
//! seed-driven: the rerun produces the bytes the first run would have.
//! Daemons given by address are never restarted. On any other error,
//! or a blown per-shard timeout, every spawned daemon is killed and
//! reaped.
//!
//! Both return one results-document text per shard, ready for
//! [`merge`](crate::merge::merge), and both multiplex worker progress
//! frames through a caller-supplied callback with a `shard` tag. The
//! multiplexed *order* across shards is wall-clock (it is a progress
//! stream on stderr); the results documents are not.

use std::collections::VecDeque;
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use tdals_obs::clock;
use tdals_obs::trace;

use tdals_obs::json::Json;
use tdals_server::{
    as_error, connect_retry, results_document_from_records, Connection, FlowJob, Manifest, Request,
    Stream, PROTOCOL_SCHEMA,
};

use crate::plan::ShardPlan;
use crate::ClusterError;

/// Environment hook for the crash-restart soak: when set to a shard
/// number, that shard's **first** spawned worker is killed right after
/// spawning, forcing the supervisor down the restart path. The restart
/// must still converge to byte-identical output — which is what the
/// determinism soak script asserts.
pub const CRASH_SHARD_ENV: &str = "TDALS_CLUSTER_CRASH_SHARD";

/// How many trailing worker stderr lines are kept for diagnostics.
const STDERR_TAIL: usize = 20;

/// How long a worker whose conversation broke may take to exit before
/// the supervisor decides it is alive (and the error was the daemon's
/// answer, not its death).
const DEATH_GRACE: Duration = Duration::from_secs(1);

/// How long a worker may take to exit after a `shutdown` before it is
/// killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Supervision knobs shared by spawned and connected workers.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SupervisorOptions {
    /// Per-shard wall-clock limit. A shard that blows it is killed and
    /// reported as [`ClusterError::Timeout`] — no restart, since a
    /// re-run would spend the same time again. `None` means unbounded.
    pub timeout: Option<Duration>,
    /// Worker pool width forwarded to each spawned daemon
    /// (`--total-threads`); `None` lets each daemon pick its own core
    /// count. Results are width-invariant either way.
    pub total_threads: Option<usize>,
    /// Dial retries per daemon ([`connect_retry`]).
    pub retries: usize,
    /// Forward worker progress frames to the callback.
    pub progress: bool,
}

impl SupervisorOptions {
    /// Defaults: no timeout, worker-chosen widths, no dial retries, no
    /// progress forwarding.
    pub fn new() -> SupervisorOptions {
        SupervisorOptions::default()
    }

    /// Sets the per-shard wall-clock limit.
    pub fn with_timeout(mut self, timeout: impl Into<Option<Duration>>) -> SupervisorOptions {
        self.timeout = timeout.into();
        self
    }

    /// Sets the pool width of each spawned daemon.
    pub fn with_total_threads(mut self, total: impl Into<Option<usize>>) -> SupervisorOptions {
        self.total_threads = total.into();
        self
    }

    /// Sets the dial retry budget.
    pub fn with_retries(mut self, retries: usize) -> SupervisorOptions {
        self.retries = retries;
        self
    }

    /// Enables progress-frame forwarding.
    pub fn with_progress(mut self, progress: bool) -> SupervisorOptions {
        self.progress = progress;
        self
    }
}

/// The frame forwarded per worker event: a `tdals serve-batch
/// --progress` line with the `shard` tag after `schema`.
fn shard_frame(shard: usize, session: usize, name: &str, event: Json) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("shard".into(), Json::Num(shard as f64)),
        ("session".into(), Json::Num(session as f64)),
        ("name".into(), Json::Str(name.into())),
        ("event".into(), event),
    ])
}

/// Runs `drive(shard, jobs, frames)` for every shard on its own thread
/// and forwards frames to `on_frame` as they arrive. Returns the
/// documents in shard order, or the lowest-numbered shard's error.
fn fan_out<F>(
    manifest: &Manifest,
    plan: &ShardPlan,
    on_frame: &mut dyn FnMut(&Json),
    drive: F,
) -> Result<Vec<String>, ClusterError>
where
    F: Fn(usize, Vec<FlowJob>, &Sender<Json>) -> Result<String, ClusterError> + Sync,
{
    let drive = &drive;
    let (frames_tx, frames_rx) = std::sync::mpsc::channel::<Json>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.shard_count())
            .map(|shard| {
                let jobs = plan.manifest_for(manifest, shard).jobs;
                let frames = frames_tx.clone();
                scope.spawn(move || drive(shard, jobs, &frames))
            })
            .collect();
        drop(frames_tx);
        // Multiplex frames until every shard thread has dropped its
        // sender (i.e. finished), then collect in shard order.
        while let Ok(frame) = frames_rx.recv() {
            on_frame(&frame);
        }
        let mut docs = Vec::with_capacity(handles.len());
        let mut first_error: Option<ClusterError> = None;
        for (shard, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(doc)) => docs.push(doc),
                Ok(Err(e)) => first_error = first_error.or(Some(e)),
                Err(_) => {
                    first_error = first_error.or(Some(ClusterError::Protocol {
                        shard,
                        what: "shard client thread panicked".into(),
                    }))
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(docs),
        }
    })
}

// ---------------------------------------------------------------------
// Spawned workers
// ---------------------------------------------------------------------

/// One spawned `tdals serve` process.
struct Worker {
    child: Child,
    tail: Arc<Mutex<VecDeque<String>>>,
    reader: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns `exe serve` on an ephemeral port. The receiver yields the
    /// bound address once the daemon prints its banner, and disconnects
    /// if its stderr closes first.
    fn spawn(
        shard: usize,
        attempt: usize,
        exe: &Path,
        opts: &SupervisorOptions,
    ) -> Result<(Worker, Receiver<String>), ClusterError> {
        let mut command = Command::new(exe);
        command
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(total) = opts.total_threads {
            command.arg("--total-threads").arg(total.to_string());
        }
        let mut child = command.spawn().map_err(|e| ClusterError::Io {
            what: format!("spawning shard {shard} worker {}: {e}", exe.display()),
        })?;

        // The crash-soak hook: kill the first attempt immediately so the
        // restart path runs under CI. Only ever the first attempt — the
        // restart must be allowed to converge.
        if attempt == 0 && std::env::var(CRASH_SHARD_ENV).is_ok_and(|t| t == shard.to_string()) {
            let _ = child.kill();
        }

        let (banner_tx, banner_rx) = std::sync::mpsc::channel();
        let tail = Arc::new(Mutex::new(VecDeque::with_capacity(STDERR_TAIL)));
        let reader = child.stderr.take().map(|stderr| {
            let tail = Arc::clone(&tail);
            std::thread::spawn(move || {
                for line in std::io::BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if let Some(spec) = line
                        .strip_prefix("serve: listening on ")
                        .and_then(|rest| rest.split(' ').next())
                    {
                        let _ = banner_tx.send(spec.to_owned());
                    }
                    let mut tail = tail.lock().unwrap_or_else(PoisonError::into_inner);
                    if tail.len() == STDERR_TAIL {
                        tail.pop_front();
                    }
                    tail.push_back(line);
                }
            })
        });
        let worker = Worker {
            child,
            tail,
            reader,
        };
        Ok((worker, banner_rx))
    }

    /// Waits up to `grace` for the process to exit by itself, kills it
    /// if it has not, and reaps it. Returns the exit status if the
    /// process exited by itself, and its stderr tail.
    fn finish(mut self, grace: Duration) -> (Option<ExitStatus>, String) {
        let started = clock::now();
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if started.elapsed() < grace => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
        let tail = if tail.is_empty() {
            "worker wrote nothing to stderr".into()
        } else {
            format!(
                "last stderr lines:\n{}",
                tail.iter().cloned().collect::<Vec<_>>().join("\n")
            )
        };
        (exited, tail)
    }
}

/// The workers [`run_children`] has spawned, one slot per shard. The
/// first shard to fail kills every other worker, so the run stops at
/// once instead of waiting for the rest; dropping the fleet kills and
/// reaps whatever is left.
struct Fleet {
    workers: Mutex<Vec<Option<Worker>>>,
    /// The failure that stopped the run, if one did.
    failure: Mutex<Option<ClusterError>>,
}

impl Fleet {
    fn workers(&self) -> MutexGuard<'_, Vec<Option<Worker>>> {
        self.workers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn failure(&self) -> MutexGuard<'_, Option<ClusterError>> {
        self.failure.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn failed(&self) -> bool {
        self.failure().is_some()
    }

    /// Spawns and registers shard's worker; returns its banner receiver.
    fn spawn(
        &self,
        shard: usize,
        attempt: usize,
        exe: &Path,
        opts: &SupervisorOptions,
    ) -> Result<Receiver<String>, ClusterError> {
        let (mut worker, banner) = Worker::spawn(shard, attempt, exe, opts)?;
        let mut workers = self.workers();
        // A worker spawned after the run failed dies at once; `fail`
        // sets the flag before it takes this lock, so none slips by.
        if self.failed() {
            let _ = worker.child.kill();
        }
        workers[shard] = Some(worker);
        Ok(banner)
    }

    fn take(&self, shard: usize) -> Worker {
        self.workers()[shard]
            .take()
            .expect("spawn registered the worker")
    }

    /// Records the run's first failure and kills every live worker.
    fn fail(&self, error: &ClusterError) {
        self.failure().get_or_insert_with(|| error.clone());
        for worker in self.workers().iter_mut().flatten() {
            let _ = worker.child.kill();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for worker in self.workers().drain(..).flatten() {
            worker.finish(Duration::ZERO);
        }
    }
}

fn status_label(status: &ExitStatus) -> String {
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => "killed by signal".into(),
    }
}

/// Best-effort `shutdown` of a daemon whose shard is done; the caller
/// kills it anyway if it does not exit.
fn shut_down(spec: &str) {
    if let Ok(stream) = connect_retry(spec, 0) {
        let mut conn = Connection::new(stream);
        if conn.send(&Request::Shutdown.to_json()).is_ok() {
            let _ = conn.receive();
        }
    }
}

/// One shard on spawned workers: spawn, wait for the banner, drive,
/// shut down — and once, if the worker died, all of it again.
fn run_spawned_shard(
    shard: usize,
    jobs: Vec<FlowJob>,
    exe: &Path,
    opts: &SupervisorOptions,
    fleet: &Fleet,
    frames: &Sender<Json>,
) -> Result<String, ClusterError> {
    let mut attempt = 0;
    loop {
        let banner = fleet.spawn(shard, attempt, exe, opts)?;
        let spec = match opts.timeout {
            Some(limit) => banner.recv_timeout(limit),
            None => banner.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let outcome = match spec {
            Ok(spec) => drive_daemon(shard, jobs.clone(), &spec, opts, frames).inspect(|_| {
                shut_down(&spec);
            }),
            Err(RecvTimeoutError::Timeout) => Err(ClusterError::Timeout {
                shard,
                seconds: opts.timeout.unwrap_or_default().as_secs(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::Protocol {
                shard,
                what: "worker exited before its listening banner".into(),
            }),
        };
        let grace = match &outcome {
            Ok(_) => SHUTDOWN_GRACE,
            Err(ClusterError::Protocol { .. }) => DEATH_GRACE,
            Err(_) => Duration::ZERO,
        };
        let (exited, tail) = fleet.take(shard).finish(grace);
        match (outcome, exited) {
            (Ok(doc), _) => return Ok(doc),
            // A broken conversation with a worker that has exited: it
            // died. Restart once, unless the run already failed.
            (Err(ClusterError::Protocol { what, .. }), Some(status)) if !fleet.failed() => {
                if attempt == 0 {
                    tdals_obs::metrics().shard_restarts.incr();
                    attempt = 1;
                    continue;
                }
                return Err(ClusterError::Worker {
                    shard,
                    status: status_label(&status),
                    what: format!("{what}; {tail}"),
                });
            }
            (Err(e), _) => return Err(e),
        }
    }
}

/// Spawns one `tdals serve` daemon per shard (`exe` is the `tdals`
/// binary; a coordinator CLI passes its own `current_exe`) and drives
/// each with the [`run_daemons`] client, returning the per-shard
/// results documents in shard order. A worker that dies is restarted
/// once; every daemon is shut down and reaped before this returns.
/// Worker progress frames stream through `on_frame` when
/// [`SupervisorOptions::progress`] is set.
///
/// # Errors
///
/// The typed [`ClusterError`] taxonomy: spawn I/O, a worker dead twice
/// ([`ClusterError::Worker`], with its stderr tail), a daemon's error
/// frame ([`ClusterError::Protocol`]), or a blown per-shard timeout.
/// The first shard to fail kills every other worker.
pub fn run_children(
    manifest: &Manifest,
    plan: &ShardPlan,
    exe: &Path,
    opts: &SupervisorOptions,
    on_frame: &mut dyn FnMut(&Json),
) -> Result<Vec<String>, ClusterError> {
    let count = plan.shard_count();
    // The flows themselves run in the daemons — their spans land in
    // those processes' (disabled) recorders. The coordinator's trace
    // covers what *this* process does: the supervision window.
    let _span = trace::span(trace::cat::FLOW, "shard-children").arg("shards", count as u64);
    let fleet = Fleet {
        workers: Mutex::new((0..count).map(|_| None).collect()),
        failure: Mutex::new(None),
    };
    let docs = fan_out(manifest, plan, on_frame, |shard, jobs, frames| {
        let result = run_spawned_shard(shard, jobs, exe, opts, &fleet, frames);
        if let Err(e) = &result {
            fleet.fail(e);
        }
        result
    });
    // Report the failure that stopped the run, not a shard it took down.
    let failure = fleet.failure().take();
    match failure {
        Some(e) => Err(e),
        None => docs,
    }
}

// ---------------------------------------------------------------------
// The daemon client
// ---------------------------------------------------------------------

/// One wire round-trip with typed shard-tagged errors.
fn wire(
    shard: usize,
    conn: &mut Connection<Stream>,
    request: &Request,
) -> Result<Json, ClusterError> {
    let protocol = |what: String| ClusterError::Protocol { shard, what };
    conn.send(&request.to_json())
        .map_err(|e| protocol(format!("sending to daemon: {e}")))?;
    let frame = match conn.receive() {
        Ok(Some(frame)) => frame,
        Ok(None) => return Err(protocol("daemon closed the connection".into())),
        Err(e) => return Err(protocol(format!("reading from daemon: {e}"))),
    };
    if let Some((code, message)) = as_error(&frame) {
        return Err(protocol(format!("{code}: {message}")));
    }
    Ok(frame)
}

fn reply_session_id(shard: usize, frame: &Json) -> Result<u64, ClusterError> {
    frame
        .get("session")
        .and_then(|v| {
            v.as_uint()
                .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
        })
        .ok_or_else(|| ClusterError::Protocol {
            shard,
            what: "daemon reply is missing `session`".into(),
        })
}

/// One shard's full conversation with its daemon: submit every
/// assigned job, pump events and results, reassemble the shard-local
/// results document exactly as `tdals submit` would.
fn drive_daemon(
    shard: usize,
    jobs: Vec<FlowJob>,
    spec: &str,
    opts: &SupervisorOptions,
    frames: &Sender<Json>,
) -> Result<String, ClusterError> {
    let _span =
        trace::span(trace::cat::PAR, format!("shard-{shard}")).arg("jobs", jobs.len() as u64);
    let started = clock::now();
    let stream = connect_retry(spec, opts.retries).map_err(|e| ClusterError::Protocol {
        shard,
        what: e.to_string(),
    })?;
    let mut conn = Connection::new(stream);
    let mut sessions: Vec<(u64, String)> = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let reply = wire(
            shard,
            &mut conn,
            &Request::Submit {
                job: job.clone(),
                tenant: None,
            },
        )?;
        sessions.push((reply_session_id(shard, &reply)?, job.name.clone()));
    }

    let mut records: Vec<Option<Json>> = vec![None; sessions.len()];
    loop {
        if let Some(limit) = opts.timeout {
            if started.elapsed() >= limit {
                return Err(ClusterError::Timeout {
                    shard,
                    seconds: limit.as_secs(),
                });
            }
        }
        let mut pending = false;
        for (i, (id, name)) in sessions.iter().enumerate() {
            if records[i].is_some() {
                continue;
            }
            let pump_events = |conn: &mut Connection<Stream>| -> Result<(), ClusterError> {
                let reply = wire(shard, conn, &Request::Events { session: *id })?;
                if opts.progress {
                    if let Some(Json::Arr(items)) = reply.get("events") {
                        for ev in items {
                            let _ = frames.send(shard_frame(shard, i, name, ev.clone()));
                        }
                    }
                }
                Ok(())
            };
            pump_events(&mut conn)?;
            let reply = wire(
                shard,
                &mut conn,
                &Request::Result {
                    session: *id,
                    wait: false,
                },
            )?;
            if reply.get("done") == Some(&Json::Bool(true)) {
                records[i] = Some(reply.get("record").cloned().unwrap_or(Json::Null));
                // One more drain: events that landed between the last
                // poll and the session finishing.
                pump_events(&mut conn)?;
            } else {
                pending = true;
            }
        }
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Per-shard stats for the merge report, best-effort: an older
    // daemon answers `unknown-verb` and the summary frame is simply
    // skipped — the stats verb is additive, never load-bearing.
    if conn.send(&Request::Stats.to_json()).is_ok() {
        if let Ok(Some(reply)) = conn.receive() {
            if reply.get("ok").and_then(Json::as_str) == Some("stats") {
                let _ = frames.send(Json::Obj(vec![
                    ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
                    ("shard".into(), Json::Num(shard as f64)),
                    (
                        "stats".into(),
                        reply.get("metrics").cloned().unwrap_or(Json::Null),
                    ),
                ]));
            }
        }
    }

    // The daemon ships each record without its `job` index; the shard
    // knows its own submission order, so prepending the local index
    // reassembles the document the shard's serve-batch run would write.
    let rows: Vec<Json> = records
        .into_iter()
        .enumerate()
        .map(|(i, record)| {
            let mut members = vec![("job".to_owned(), Json::Num(i as f64))];
            if let Some(Json::Obj(fields)) = record {
                members.extend(fields);
            }
            Json::Obj(members)
        })
        .collect();
    Ok(format!("{}\n", results_document_from_records(rows)))
}

/// One submit client per shard against already-running `tdals serve`
/// daemons. `specs` lists one daemon address per shard (the first
/// [`ShardPlan::shard_count`] entries are used — extra addresses are
/// tolerated, since the plan may hold fewer shards than requested when
/// the manifest is small). Worker progress frames stream through
/// `on_frame` when [`SupervisorOptions::progress`] is set.
///
/// # Errors
///
/// [`ClusterError::Plan`] when too few addresses are given;
/// [`ClusterError::Protocol`] (dial, error frame, malformed reply) or
/// [`ClusterError::Timeout`] from any shard — the lowest-numbered
/// failing shard wins.
pub fn run_daemons(
    manifest: &Manifest,
    plan: &ShardPlan,
    specs: &[String],
    opts: &SupervisorOptions,
    on_frame: &mut dyn FnMut(&Json),
) -> Result<Vec<String>, ClusterError> {
    let count = plan.shard_count();
    let _span = trace::span(trace::cat::FLOW, "shard-daemons").arg("shards", count as u64);
    if specs.len() < count {
        return Err(ClusterError::Plan {
            what: format!(
                "{} daemon address(es) for a {count}-shard plan; pass one --connect \
                 address per shard",
                specs.len()
            ),
        });
    }
    fan_out(manifest, plan, on_frame, |shard, jobs, frames| {
        drive_daemon(shard, jobs, &specs[shard], opts, frames)
    })
}
