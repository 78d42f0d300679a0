//! The worker supervisor: one worker per shard, two ways to get one.
//!
//! **Mode A** ([`run_children`]) spawns one `tdals serve-batch` child
//! process per shard with a per-shard manifest and results file. A
//! worker that dies without a complete results file is restarted once
//! from its manifest — safe because results are seed-driven, so the
//! re-run writes the same bytes the first run would have. A worker
//! that *exits* nonzero but leaves a complete results file is fine:
//! that is `serve-batch`'s normal exit for a batch with failed jobs,
//! and the per-job failure records are part of the deterministic
//! output.
//!
//! **Mode B** ([`run_daemons`]) drives already-running `tdals serve`
//! daemons over the wire protocol — one submit client per shard,
//! reassembling each shard's records exactly as `tdals submit` does.
//!
//! Both modes return one results-document text per shard, ready for
//! [`merge`](crate::merge::merge), and both multiplex worker progress
//! frames through a caller-supplied callback with a `shard` tag
//! spliced in. The multiplexed *order* across shards is wall-clock
//! (it is a progress stream on stderr); the results documents are not.

use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use tdals_obs::clock::{self, Instant};
use tdals_obs::trace;

use tdals_obs::json::Json;
use tdals_server::{
    as_error, connect_retry, results_document_from_records, Connection, FlowJob, Manifest, Request,
    Stream, PROTOCOL_SCHEMA,
};

use crate::plan::ShardPlan;
use crate::ClusterError;

/// Environment hook for the crash-restart soak: when set to a shard
/// number, that shard's **first** child process is killed right after
/// spawning, forcing the supervisor down the restart path. The restart
/// must still converge to byte-identical output — which is what the
/// `shard-soak` CI job asserts.
pub const CRASH_SHARD_ENV: &str = "TDALS_CLUSTER_CRASH_SHARD";

/// How many trailing worker stderr lines are kept for diagnostics.
const STDERR_TAIL: usize = 20;

/// Supervision knobs shared by both worker modes.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SupervisorOptions {
    /// Per-shard wall-clock limit. A shard that blows it is killed and
    /// reported as [`ClusterError::Timeout`] — no restart, since a
    /// re-run would spend the same time again. `None` means unbounded.
    pub timeout: Option<Duration>,
    /// Worker pool width forwarded to each mode A child
    /// (`--total-threads`); `None` lets each child pick its own core
    /// count. Results are width-invariant either way.
    pub total_threads: Option<usize>,
    /// Mode B dial retries per daemon ([`connect_retry`]).
    pub retries: usize,
    /// Forward worker progress frames to the callback (mode A children
    /// additionally get `--progress` only when set).
    pub progress: bool,
    /// Mode A scratch directory for per-shard manifests/results. A
    /// caller-provided directory is created if needed and left in
    /// place; `None` uses a fresh temp directory that is removed after
    /// the run.
    pub workdir: Option<PathBuf>,
}

impl SupervisorOptions {
    /// Defaults: no timeout, worker-chosen widths, no dial retries, no
    /// progress forwarding, temp scratch.
    pub fn new() -> SupervisorOptions {
        SupervisorOptions::default()
    }

    /// Sets the per-shard wall-clock limit.
    pub fn with_timeout(mut self, timeout: impl Into<Option<Duration>>) -> SupervisorOptions {
        self.timeout = timeout.into();
        self
    }

    /// Sets the per-child pool width (mode A).
    pub fn with_total_threads(mut self, total: impl Into<Option<usize>>) -> SupervisorOptions {
        self.total_threads = total.into();
        self
    }

    /// Sets the dial retry budget (mode B).
    pub fn with_retries(mut self, retries: usize) -> SupervisorOptions {
        self.retries = retries;
        self
    }

    /// Enables progress-frame forwarding.
    pub fn with_progress(mut self, progress: bool) -> SupervisorOptions {
        self.progress = progress;
        self
    }

    /// Sets the mode A scratch directory.
    pub fn with_workdir(mut self, workdir: impl Into<PathBuf>) -> SupervisorOptions {
        self.workdir = Some(workdir.into());
        self
    }
}

/// Splices `"shard": n` into a worker's event frame, right after the
/// `schema` member, so multiplexed streams from different shards stay
/// distinguishable.
fn tag_shard(frame: Json, shard: usize) -> Json {
    let Json::Obj(members) = frame else {
        return frame;
    };
    let mut out = Vec::with_capacity(members.len() + 1);
    let mut inserted = false;
    for (key, value) in members {
        let after = key == "schema";
        out.push((key, value));
        if after && !inserted {
            out.push(("shard".into(), Json::Num(shard as f64)));
            inserted = true;
        }
    }
    if !inserted {
        out.insert(0, ("shard".into(), Json::Num(shard as f64)));
    }
    Json::Obj(out)
}

/// The frame mode B emits per event — field-for-field the frame a mode
/// A child prints (via the CLI's shared renderer) after shard tagging.
fn shard_frame(shard: usize, session: usize, name: &str, event: Json) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("shard".into(), Json::Num(shard as f64)),
        ("session".into(), Json::Num(session as f64)),
        ("name".into(), Json::Str(name.into())),
        ("event".into(), event),
    ])
}

// ---------------------------------------------------------------------
// Mode A: child worker processes
// ---------------------------------------------------------------------

/// Distinguishes concurrent supervisors inside one process (tests run
/// several at once) when naming the temp scratch directory.
static SCRATCH_COUNTER: AtomicUsize = AtomicUsize::new(0);

struct Worker {
    shard: usize,
    attempt: usize,
    child: Child,
    /// Start of this attempt, for the per-shard timeout.
    started: Instant,
    tail: Arc<Mutex<VecDeque<String>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    fn tail_text(&self) -> String {
        let tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
        if tail.is_empty() {
            "worker wrote nothing to stderr".into()
        } else {
            format!(
                "last stderr lines:\n{}",
                tail.iter().cloned().collect::<Vec<_>>().join("\n")
            )
        }
    }
}

struct Scratch {
    dir: PathBuf,
    /// Whether the supervisor owns (and removes) the directory.
    owned: bool,
}

impl Scratch {
    fn prepare(opts: &SupervisorOptions) -> Result<Scratch, ClusterError> {
        let (dir, owned) = match &opts.workdir {
            Some(dir) => (dir.clone(), false),
            None => {
                let nonce = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
                let dir = std::env::temp_dir()
                    .join(format!("tdals-shard-{}-{nonce}", std::process::id()));
                (dir, true)
            }
        };
        std::fs::create_dir_all(&dir).map_err(|e| ClusterError::Io {
            what: format!("creating scratch dir {}: {e}", dir.display()),
        })?;
        Ok(Scratch { dir, owned })
    }

    fn manifest_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard{shard}-manifest.json"))
    }

    fn results_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard{shard}-results.json"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

fn spawn_worker(
    shard: usize,
    attempt: usize,
    exe: &Path,
    scratch: &Scratch,
    opts: &SupervisorOptions,
    frames: &Sender<Json>,
) -> Result<Worker, ClusterError> {
    // A fresh attempt must not inherit a half-written results file.
    let _ = std::fs::remove_file(scratch.results_path(shard));
    let mut command = Command::new(exe);
    command
        .arg("serve-batch")
        .arg("--manifest")
        .arg(scratch.manifest_path(shard))
        .arg("--out")
        .arg(scratch.results_path(shard))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if let Some(total) = opts.total_threads {
        command.arg("--total-threads").arg(total.to_string());
    }
    if opts.progress {
        command.arg("--progress");
    }
    let mut child = command.spawn().map_err(|e| ClusterError::Io {
        what: format!("spawning shard {shard} worker {}: {e}", exe.display()),
    })?;

    // The crash-soak hook: kill the first attempt immediately so the
    // restart path runs under CI. Only ever the first attempt — the
    // restart must be allowed to converge.
    if attempt == 0 {
        if let Ok(target) = std::env::var(CRASH_SHARD_ENV) {
            if target == shard.to_string() {
                let _ = child.kill();
            }
        }
    }

    let tail = Arc::new(Mutex::new(VecDeque::with_capacity(STDERR_TAIL)));
    let reader = child.stderr.take().map(|stderr| {
        let tail = Arc::clone(&tail);
        let frames = frames.clone();
        let forward = opts.progress;
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                // Progress frames are one-line JSON objects with an
                // `event` member; everything else is diagnostics.
                if forward && line.starts_with('{') {
                    if let Ok(frame) = Json::parse(&line) {
                        if frame.get("event").is_some() {
                            let _ = frames.send(tag_shard(frame, shard));
                            continue;
                        }
                    }
                }
                let mut tail = tail.lock().unwrap_or_else(PoisonError::into_inner);
                if tail.len() == STDERR_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        })
    });
    Ok(Worker {
        shard,
        attempt,
        child,
        started: clock::now(),
        tail,
        reader,
    })
}

/// Checks that a shard's results file covers its whole assignment;
/// returns the raw text (the merge re-parses it).
fn read_shard_doc(path: &Path, expected: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("results file {} is unreadable: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("results file is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_uint) != Some(1) {
        return Err("results file schema is not 1".into());
    }
    match doc.get("results").and_then(Json::as_array) {
        Some(records) if records.len() == expected => Ok(text),
        Some(records) => Err(format!(
            "{} record(s) for {expected} assigned job(s)",
            records.len()
        )),
        None => Err("results file has no `results` array".into()),
    }
}

fn kill_all(workers: &mut [Option<Worker>]) {
    for worker in workers.iter_mut().flatten() {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
        if let Some(reader) = worker.reader.take() {
            let _ = reader.join();
        }
    }
}

fn status_label(status: &ExitStatus) -> String {
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => "killed by signal".into(),
    }
}

/// Mode A: one `tdals serve-batch` child process per shard, restart
/// once on crash, per-shard results documents back in shard order.
/// `exe` is the `tdals` binary (a coordinator CLI passes its own
/// `current_exe`). Worker progress frames stream through `on_frame`
/// when [`SupervisorOptions::progress`] is set.
///
/// # Errors
///
/// The typed [`ClusterError`] taxonomy: spawn/scratch I/O, a worker
/// dead twice without complete results ([`ClusterError::Worker`]), a
/// clean exit with an incomplete file ([`ClusterError::PartialResults`]),
/// or a blown per-shard timeout.
pub fn run_children(
    manifest: &Manifest,
    plan: &ShardPlan,
    exe: &Path,
    opts: &SupervisorOptions,
    on_frame: &mut dyn FnMut(&Json),
) -> Result<Vec<String>, ClusterError> {
    let count = plan.shard_count();
    // The flows themselves run in child processes — their spans land in
    // those processes' (disabled) recorders. The coordinator's trace
    // covers what *this* process does: the supervision window.
    let _span = trace::span(trace::cat::FLOW, "shard-children").arg("shards", count as u64);
    let scratch = Scratch::prepare(opts)?;
    for shard in 0..count {
        let path = scratch.manifest_path(shard);
        let text = format!("{}\n", plan.manifest_for(manifest, shard).to_json());
        std::fs::write(&path, text).map_err(|e| ClusterError::Io {
            what: format!("writing shard manifest {}: {e}", path.display()),
        })?;
    }

    let (frames_tx, frames_rx) = std::sync::mpsc::channel::<Json>();
    let mut workers: Vec<Option<Worker>> = Vec::with_capacity(count);
    for shard in 0..count {
        match spawn_worker(shard, 0, exe, &scratch, opts, &frames_tx) {
            Ok(worker) => workers.push(Some(worker)),
            Err(e) => {
                kill_all(&mut workers);
                return Err(e);
            }
        }
    }

    let mut docs: Vec<Option<String>> = vec![None; count];
    let result = supervise_children(
        plan,
        exe,
        &scratch,
        opts,
        &frames_tx,
        &frames_rx,
        &mut workers,
        &mut docs,
        on_frame,
    );
    drop(frames_tx);
    while let Ok(frame) = frames_rx.try_recv() {
        on_frame(&frame);
    }
    result?;
    Ok(docs
        .into_iter()
        .map(|d| d.expect("supervision completed every shard"))
        .collect())
}

/// The child-worker supervision loop, factored out so `run_children`
/// can flush the frame channel on both the success and error paths.
#[allow(clippy::too_many_arguments)]
fn supervise_children(
    plan: &ShardPlan,
    exe: &Path,
    scratch: &Scratch,
    opts: &SupervisorOptions,
    frames_tx: &Sender<Json>,
    frames_rx: &Receiver<Json>,
    workers: &mut [Option<Worker>],
    docs: &mut [Option<String>],
    on_frame: &mut dyn FnMut(&Json),
) -> Result<(), ClusterError> {
    loop {
        while let Ok(frame) = frames_rx.try_recv() {
            on_frame(&frame);
        }
        let mut live = false;
        for slot in 0..workers.len() {
            let Some(worker) = workers[slot].as_mut() else {
                continue;
            };
            live = true;
            if let Some(limit) = opts.timeout {
                if worker.started.elapsed() >= limit {
                    let shard = worker.shard;
                    kill_all(workers);
                    return Err(ClusterError::Timeout {
                        shard,
                        seconds: limit.as_secs(),
                    });
                }
            }
            let status = match worker.child.try_wait() {
                Ok(None) => continue,
                Ok(Some(status)) => status,
                Err(e) => {
                    let shard = worker.shard;
                    kill_all(workers);
                    return Err(ClusterError::Io {
                        what: format!("waiting on shard {shard} worker: {e}"),
                    });
                }
            };
            let mut worker = workers[slot].take().expect("checked Some above");
            if let Some(reader) = worker.reader.take() {
                let _ = reader.join();
            }
            let shard = worker.shard;
            match read_shard_doc(&scratch.results_path(shard), plan.jobs_of(shard).len()) {
                // A complete results file is authoritative whatever the
                // exit status: serve-batch exits nonzero when jobs
                // *fail*, and failure records are part of the output.
                Ok(text) => docs[shard] = Some(text),
                Err(_) if worker.attempt == 0 => {
                    // Crashed (or corrupted) on the first attempt:
                    // deterministic re-run from the same manifest.
                    tdals_obs::metrics().shard_restarts.incr();
                    match spawn_worker(shard, 1, exe, scratch, opts, frames_tx) {
                        Ok(respawned) => workers[slot] = Some(respawned),
                        Err(e) => {
                            kill_all(workers);
                            return Err(e);
                        }
                    }
                }
                Err(what) => {
                    let diagnosis = format!("{what}; {}", worker.tail_text());
                    kill_all(workers);
                    return Err(if status.success() {
                        ClusterError::PartialResults {
                            shard,
                            what: diagnosis,
                        }
                    } else {
                        ClusterError::Worker {
                            shard,
                            status: status_label(&status),
                            what: diagnosis,
                        }
                    });
                }
            }
        }
        if !live {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------
// Mode B: remote daemons over the wire protocol
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

/// Mode B: one submit client per shard against already-running
/// `tdals serve` daemons. `specs` lists one daemon address per shard
/// (the first [`ShardPlan::shard_count`] entries are used — extra
/// addresses are tolerated, since the plan may hold fewer shards than
/// requested when the manifest is small). Worker progress frames
/// stream through `on_frame` when [`SupervisorOptions::progress`] is
/// set.
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
    let (frames_tx, frames_rx) = std::sync::mpsc::channel::<Json>();
    let mut handles = Vec::with_capacity(count);
    for (shard, spec) in specs.iter().enumerate().take(count) {
        let jobs: Vec<FlowJob> = plan.manifest_for(manifest, shard).jobs;
        let spec = spec.clone();
        let opts = opts.clone();
        let frames = frames_tx.clone();
        handles.push(std::thread::spawn(move || {
            drive_daemon(shard, jobs, &spec, &opts, &frames)
        }));
    }
    drop(frames_tx);
    // Multiplex frames until every shard thread has dropped its sender
    // (i.e. finished), then collect in shard order.
    while let Ok(frame) = frames_rx.recv() {
        on_frame(&frame);
    }
    let mut docs = Vec::with_capacity(count);
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
}
