//! `tdals` — command-line front end for the timing-driven ALS flow.
//!
//! Subcommands:
//!
//! * `flow`   — approximate a structural-Verilog netlist (or a named
//!   benchmark) under an ER/NMED budget with any of the five methods
//!   and write the result as Verilog;
//! * `serve-batch` — run a JSON manifest of jobs as concurrent
//!   sessions over one shared worker pool and write a deterministic
//!   results file;
//! * `shard-batch` — fan the same manifest across N `serve` daemons
//!   (spawned per shard, or already running via `--connect`) and merge
//!   a results file byte-identical to the single-process run;
//! * `serve`  — the same serving layer as a long-lived daemon speaking
//!   the versioned frame protocol over TCP or a unix socket;
//! * `submit` — client for `serve`: submit a manifest, stream events,
//!   reassemble a results file byte-identical to `serve-batch`'s;
//! * `stats`  — query a running daemon's metric registry (counters,
//!   gauges, histograms) plus per-tenant/per-session tallies;
//! * `report` — static timing + statistics report for a netlist;
//! * `bench`  — emit one of the paper's regenerated benchmarks as
//!   Verilog;
//! * `lint`   — structural verification of a netlist (undriven nets,
//!   cycles, dangling wires, fan-out consistency, …) with optional
//!   machine-readable JSON findings.
//!
//! ```sh
//! tdals bench --name Adder16 --output adder16.v
//! tdals flow --input adder16.v --metric nmed --bound 0.0244 --output approx.v
//! tdals flow --input bench:Max16 --metric nmed --bound 0.0244 --method hedals --progress
//! tdals serve-batch --manifest jobs.json --total-threads 4 --out results.json
//! tdals shard-batch --manifest jobs.json --shards 3 --out results.json
//! tdals serve --listen 127.0.0.1:7171 --total-threads 4
//! tdals submit --connect 127.0.0.1:7171 --manifest jobs.json --out results.json --shutdown
//! tdals report --input approx.v
//! tdals lint --input approx.v --deny warnings --json
//! ```

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use tdals::baselines::Method;
use tdals::circuits::{Benchmark, ALL_BENCHMARKS};
use tdals::cluster::{merge, plan, run_children, run_daemons, ShardPolicy, SupervisorOptions};
use tdals::core::api::{FlowEvent, FnObserver};
use tdals::netlist::{verilog, Netlist};
use tdals::obs::json::Json;
use tdals::server::{
    as_error, check_bound, connect_retry, event_to_json, parse_worker_count,
    results_document_from_records, BatchOptions, BatchRun, Connection, Daemon, DaemonConfig,
    FlowJob, Listener, Manifest, Request, Stream, PROTOCOL_SCHEMA,
};
use tdals::sim::ErrorMetric;
use tdals::sta::{analyze, critical_path, TimingConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Run(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A usage error reprints the option summary; a run error (bad bound,
/// unknown benchmark, I/O or parse failure) is reported on its own —
/// the user typed a structurally valid command line and a usage dump
/// would bury the actual problem.
enum CliError {
    Usage(String),
    Run(String),
}

impl CliError {
    fn run(message: impl Into<String>) -> CliError {
        CliError::Run(message.into())
    }
}

const USAGE: &str = "usage:
  tdals flow   --input <file.v | bench:NAME> --metric <er|nmed> --bound <f>
               [--method <dcgwo|gwo|hedals|greedy|vaacs>] [--output <file.v>]
               [--population <n>] [--iterations <n>] [--vectors <n>]
               [--area-con <µm²>] [--seed <n>] [--threads <n>] [--progress]
               [--trace <trace.json>]
  tdals serve-batch --manifest <jobs.json> [--out <results.json>]
               [--total-threads <n>] [--session-threads <n>] [--progress]
               [--trace <trace.json>]
  tdals shard-batch --manifest <jobs.json> --shards <n> [--connect <addr,addr,...>]
               [--policy <round-robin|size-weighted>] [--out <results.json>]
               [--shard-map <file.json>] [--total-threads <n>] [--timeout <secs>]
               [--retry <n>] [--progress] [--trace <trace.json>]
  tdals serve  --listen <host:port | socket-path> [--total-threads <n>]
               [--session-threads <n>] [--max-sessions <n>] [--tenant-quota <n>]
  tdals submit --connect <host:port | socket-path> [--manifest <jobs.json>]
               [--out <results.json>] [--tenant <name>] [--retry <n>]
               [--progress] [--drain] [--shutdown]
  tdals stats  --connect <host:port | socket-path> [--retry <n>]
  tdals report --input <file.v | bench:NAME>
  tdals bench  --name <NAME> [--output <file.v>]
  tdals lint   --input <file.v | bench:NAME> [--deny warnings] [--json]
               [--out <file.json>]
  tdals list";

/// Options that are flags (present/absent, no value).
const FLAGS: [&str; 4] = ["progress", "json", "drain", "shutdown"];

/// A subcommand's entry point, given its parsed options.
type Command = fn(&HashMap<String, String>) -> Result<(), CliError>;

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    // Each subcommand with the options it reads, as listed in `USAGE`.
    // Any other option is a usage error, so a misspelt or retired
    // option fails instead of being ignored.
    let (allowed, cmd): (&[&str], Command) = match command.as_str() {
        "flow" => (
            &[
                "input",
                "metric",
                "bound",
                "method",
                "output",
                "population",
                "iterations",
                "vectors",
                "area-con",
                "seed",
                "threads",
                "progress",
                "trace",
            ],
            cmd_flow,
        ),
        "serve-batch" => (
            &[
                "manifest",
                "out",
                "total-threads",
                "session-threads",
                "progress",
                "trace",
            ],
            cmd_serve_batch,
        ),
        "shard-batch" => (
            &[
                "manifest",
                "shards",
                "connect",
                "policy",
                "out",
                "shard-map",
                "total-threads",
                "timeout",
                "retry",
                "progress",
                "trace",
            ],
            cmd_shard_batch,
        ),
        "serve" => (
            &[
                "listen",
                "total-threads",
                "session-threads",
                "max-sessions",
                "tenant-quota",
            ],
            cmd_serve,
        ),
        "submit" => (
            &[
                "connect", "manifest", "out", "tenant", "retry", "progress", "drain", "shutdown",
            ],
            cmd_submit,
        ),
        "stats" => (&["connect", "retry"], cmd_stats),
        "report" => (&["input"], cmd_report),
        "bench" => (&["name", "output"], cmd_bench),
        "lint" => (&["input", "deny", "json", "out"], cmd_lint),
        "list" => (&[], |_| cmd_list()),
        other => return Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    };
    let opts =
        parse_options(rest, allowed).map_err(|msg| CliError::Usage(format!("{command}: {msg}")))?;
    cmd(&opts)
}

fn parse_options(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, found `{key}`"));
        };
        if !allowed.contains(&name) {
            return Err(format!("unknown option `--{name}`"));
        }
        if FLAGS.contains(&name) {
            opts.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        opts.insert(name.to_owned(), value.clone());
    }
    Ok(opts)
}

fn load_input(opts: &HashMap<String, String>) -> Result<Netlist, CliError> {
    let input = opts
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".into()))?;
    if let Some(name) = input.strip_prefix("bench:") {
        return benchmark_by_name(name).map(Benchmark::build);
    }
    let text =
        fs::read_to_string(input).map_err(|e| CliError::run(format!("reading {input}: {e}")))?;
    verilog::parse(&text).map_err(|e| CliError::run(format!("parsing {input}: {e}")))
}

fn benchmark_by_name(name: &str) -> Result<Benchmark, CliError> {
    ALL_BENCHMARKS
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::run(format!("unknown benchmark `{name}` (try `tdals list`)")))
}

fn write_output(opts: &HashMap<String, String>, netlist: &Netlist) -> Result<(), CliError> {
    let text = verilog::to_verilog(netlist);
    match opts.get("output") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match opts.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::run(format!("--{key}: invalid value `{v}`"))),
        None => Ok(default),
    }
}

/// Parses and validates `--threads`: a positive integer worker count
/// (the shared [`parse_worker_count`] rule, so the wording matches
/// every other front end). Absent means one worker per available core;
/// results are bit-identical whatever the count, so the flag only
/// trades wall-clock for cores. `0` and non-numeric values are rejected
/// with a typed run error (a structurally valid command line never
/// earns a usage dump).
fn parse_threads(opts: &HashMap<String, String>) -> Result<usize, CliError> {
    let Some(raw) = opts.get("threads") else {
        return Ok(tdals::core::par::available_threads());
    };
    parse_worker_count(raw).map_err(|msg| CliError::run(format!("--threads: {msg}")))
}

/// Parses and validates `--bound` via the shared [`check_bound`] rule —
/// the same range (and wording) the manifest parser enforces, rejecting
/// NaN, negatives, and values above 1 up front instead of letting them
/// reach the optimizer.
fn parse_bound(opts: &HashMap<String, String>) -> Result<f64, CliError> {
    let raw = opts
        .get("bound")
        .ok_or_else(|| CliError::Usage("--bound is required".into()))?;
    let bound: f64 = raw
        .parse()
        .map_err(|_| CliError::run(format!("--bound: `{raw}` is not a number")))?;
    check_bound(bound).map_err(|msg| CliError::run(format!("--bound: {msg}")))
}

/// Arms the span recorder when `--trace <out.json>` was passed,
/// returning the output path for [`write_trace`] to drain into after
/// the run. Tracing is strictly additive: it records timings, never
/// feeds them back, so results files are byte-identical with it on.
fn trace_path(opts: &HashMap<String, String>) -> Option<&String> {
    let path = opts.get("trace")?;
    tdals::obs::trace::enable(0);
    Some(path)
}

/// Drains the span recorder into a Chrome trace-event JSON artifact —
/// load it in `chrome://tracing` or <https://ui.perfetto.dev>.
fn write_trace(path: Option<&String>) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    tdals::obs::trace::disable();
    let dropped = tdals::obs::trace::dropped();
    let records = tdals::obs::trace::drain();
    let doc = tdals::obs::report::trace_to_json(&records, dropped);
    let text = format!("{doc}\n");
    fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
    eprintln!("wrote {path} ({} span(s))", records.len());
    Ok(())
}

fn cmd_flow(opts: &HashMap<String, String>) -> Result<(), CliError> {
    // The CLI is a thin shell over the same FlowJob the manifest format
    // and the daemon admit, so defaults and validation cannot drift
    // between the front ends.
    let input = opts
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".into()))?;
    let base = if let Some(name) = input.strip_prefix("bench:") {
        FlowJob::benchmark(benchmark_by_name(name)?)
    } else {
        let text = fs::read_to_string(input)
            .map_err(|e| CliError::run(format!("reading {input}: {e}")))?;
        // Parse now: `flow` reports a broken file up front, not as a
        // session failure mid-run.
        verilog::parse(&text).map_err(|e| CliError::run(format!("parsing {input}: {e}")))?;
        FlowJob::verilog(input.clone(), text)
    };
    let metric = match opts.get("metric") {
        // A bad value on a structurally valid command line is a run
        // error, like `--bound` and `--method`; only a missing option
        // warrants the usage dump. One vocabulary with the manifest
        // format: `ErrorMetric::parse`.
        Some(name) => ErrorMetric::parse(name)
            .ok_or_else(|| CliError::run(format!("--metric must be er|nmed, got `{name}`")))?,
        None => return Err(CliError::Usage("--metric is required".into())),
    };
    let bound = parse_bound(opts)?;
    let method = match opts.get("method") {
        None => Method::Dcgwo,
        Some(name) => {
            Method::parse(name).ok_or_else(|| CliError::run(format!("unknown method `{name}`")))?
        }
    };
    let threads = parse_threads(opts)?;
    let area_con = match opts.get("area-con") {
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| CliError::run("--area-con: invalid number"))?,
        ),
        None => None,
    };
    let progress = opts.contains_key("progress");

    // Flag defaults are read *from the job*, so the CLI's defaults are
    // the manifest format's by construction.
    let job = base
        .clone()
        .with_metric(metric)
        .with_bound(bound)
        .with_method(method)
        .with_scale(
            parse_num(opts, "population", base.population)?,
            parse_num(opts, "iterations", base.iterations)?,
        )
        .with_vectors(parse_num(opts, "vectors", base.vectors)?)
        .with_seed(parse_num(opts, "seed", base.seed)?)
        .with_area_con(area_con);

    let label = method.label();
    let mut obs = FnObserver(move |ev: &FlowEvent| {
        if let FlowEvent::FlowStarted {
            gates,
            cpd_ori,
            area_ori,
            ..
        } = ev
        {
            eprintln!(
                "flow: {gates} gates, CPD_ori {cpd_ori:.2} ps, Area_ori {area_ori:.2} µm², \
                 method {label}, {threads} worker{}",
                if threads == 1 { "" } else { "s" }
            );
        }
        if progress {
            print_progress("", ev);
        }
    });
    let trace = trace_path(opts);
    let result = job
        .run_with(threads, job.budget.to_budget(), &mut obs)
        .map_err(|e| CliError::run(e.to_string()))?;
    write_trace(trace)?;
    eprintln!(
        "done: Ratio_cpd {:.4}, CPD_fac {:.2} ps, error {:.5}, area {:.2} µm², {:.1}s ({})",
        result.ratio_cpd,
        result.cpd_fac,
        result.error,
        result.area,
        result.runtime_s,
        result.stop()
    );
    write_output(opts, &result.netlist)
}

/// Renders streaming flow events for `flow --progress`, human-readable
/// (stderr, so piped Verilog output stays clean). The serving commands
/// (`serve-batch`, `submit`) stream the machine-readable wire frames
/// instead — see [`print_event_frame`].
fn print_progress(prefix: &str, ev: &FlowEvent) {
    match ev {
        FlowEvent::FlowStarted {
            optimizer,
            gates,
            cpd_ori,
            error_bound,
            ..
        } => eprintln!(
            "{prefix}[{optimizer}] start: {gates} gates, CPD_ori {cpd_ori:.2} ps, bound {error_bound}"
        ),
        FlowEvent::IterationFinished { stats } => eprintln!(
            "{prefix}  iter {:>3}: constraint {:.5}, best fitness {:.4}, depth {}, area {:.1}, {} feasible",
            stats.iteration,
            stats.constraint,
            stats.best_fitness,
            stats.best_depth,
            stats.best_area,
            stats.feasible
        ),
        FlowEvent::BestImproved {
            iteration,
            fitness,
            error,
            ..
        } => eprintln!(
            "{prefix}  iter {iteration:>3}: new best fitness {fitness:.4} (error {error:.5})"
        ),
        FlowEvent::LacAccepted {
            iteration,
            error,
            area,
        } => eprintln!(
            "{prefix}  iter {iteration:>3}: LAC accepted (error {error:.5}, area {area:.1})"
        ),
        FlowEvent::OptimizeFinished { stop, evaluations } => {
            eprintln!("{prefix}optimizer {stop} after {evaluations} evaluations");
        }
        FlowEvent::PostOptFinished { report } => eprintln!(
            "{prefix}post-opt: {} gates swept, {} sizing moves, CPD {:.2} -> {:.2} ps",
            report.gates_removed, report.sizing_moves, report.cpd_before, report.cpd_final
        ),
        _ => {}
    }
}

/// Parses an optional positive count option (`--total-threads`,
/// `--session-threads`, `--max-sessions`, `--tenant-quota`): the shared
/// [`parse_worker_count`] rule with the flag name prefixed, so the
/// typed-error contract matches `--threads`.
fn parse_positive(opts: &HashMap<String, String>, key: &str) -> Result<Option<usize>, CliError> {
    let Some(raw) = opts.get(key) else {
        return Ok(None);
    };
    parse_worker_count(raw)
        .map(Some)
        .map_err(|msg| CliError::run(format!("--{key}: {msg}")))
}

fn cmd_serve_batch(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let manifest_path = opts
        .get("manifest")
        .ok_or_else(|| CliError::Usage("--manifest is required".into()))?;
    // Flag validation first: a bad worker count is reported even when
    // the manifest is absent or broken.
    let total_flag = parse_positive(opts, "total-threads")?;
    let session_flag = parse_positive(opts, "session-threads")?;
    let text = fs::read_to_string(manifest_path)
        .map_err(|e| CliError::run(format!("reading {manifest_path}: {e}")))?;
    let manifest = Manifest::parse(&text, &|path| {
        fs::read_to_string(path).map_err(|e| e.to_string())
    })
    .map_err(|e| CliError::run(e.to_string()))?;
    let progress = opts.contains_key("progress");

    // The engine lives in tdals-server::batch, on the same scheduler
    // each `serve` daemon (and so each shard-batch worker) runs, which
    // is what makes a sharded run's merged results file byte-identical
    // to this one. It validates the whole batch before running any of it: a manifest
    // with one inadmissible job never produces a partial results file.
    let run = BatchRun::prepare(
        &manifest,
        &BatchOptions::new()
            .with_total_threads(total_flag)
            .with_session_threads(session_flag),
    )
    .map_err(|e| CliError::run(e.to_string()))?;
    eprintln!(
        "serve-batch: {} job(s) over {} worker slot(s), {} per session",
        run.jobs.len(),
        run.total_threads,
        run.session_cap
    );

    // Pump per-session event streams to stderr until every session is
    // done; results land in submission order whatever order they finish.
    let trace = trace_path(opts);
    let report = run
        .run(&mut |i, name, ev| {
            if progress {
                print_event_frame(i, name, event_to_json(ev));
            }
        })
        .map_err(|e| CliError::run(e.to_string()))?;
    write_trace(trace)?;

    let text = format!("{}\n", report.document());
    match opts.get("out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    eprintln!(
        "serve-batch done: {} completed, {} failed of {} job(s)",
        report.completed,
        report.failed,
        report.results.len()
    );
    if report.failed > 0 {
        return Err(CliError::run(format!(
            "{} job(s) did not complete (see the results file)",
            report.failed
        )));
    }
    Ok(())
}

fn cmd_shard_batch(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let manifest_path = opts
        .get("manifest")
        .ok_or_else(|| CliError::Usage("--manifest is required".into()))?;
    // --connect drives running daemons; without it, shard-batch spawns
    // its own.
    let connect_specs: Option<Vec<String>> = opts.get("connect").map(|list| {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect()
    });
    let shards = match parse_positive(opts, "shards")? {
        Some(n) => n,
        // Running daemons give a natural default: one shard per daemon.
        None => match &connect_specs {
            Some(specs) if !specs.is_empty() => specs.len(),
            _ => return Err(CliError::Usage("--shards is required".into())),
        },
    };
    let policy = match opts.get("policy") {
        None => ShardPolicy::RoundRobin,
        Some(name) => ShardPolicy::parse(name).ok_or_else(|| {
            CliError::run(format!(
                "--policy must be round-robin|size-weighted, got `{name}`"
            ))
        })?,
    };
    let timeout = parse_positive(opts, "timeout")?.map(|secs| Duration::from_secs(secs as u64));
    let total_flag = parse_positive(opts, "total-threads")?;
    let retries = parse_num(opts, "retry", 0usize)?;
    let progress = opts.contains_key("progress");

    let text = fs::read_to_string(manifest_path)
        .map_err(|e| CliError::run(format!("reading {manifest_path}: {e}")))?;
    let manifest = Manifest::parse(&text, &|path| {
        fs::read_to_string(path).map_err(|e| e.to_string())
    })
    .map_err(|e| CliError::run(e.to_string()))?;

    let shard_plan = plan(&manifest, shards, policy).map_err(|e| CliError::run(e.to_string()))?;
    if let Some(path) = opts.get("shard-map") {
        let text = format!("{}\n", shard_plan.to_json());
        fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
        eprintln!("wrote {path}");
    }

    let supervisor = SupervisorOptions::new()
        .with_timeout(timeout)
        .with_total_threads(total_flag)
        .with_retries(retries)
        .with_progress(progress);
    let mut on_frame = |frame: &Json| {
        if let Some(stats) = frame.get("stats") {
            // Per-shard stats summary (from daemons that speak the
            // verb) — part of the merge report, so it prints whether or
            // not --progress is set.
            let shard = frame.get("shard").and_then(Json::as_f64).unwrap_or(-1.0);
            let counter = |name: &str| {
                stats
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            eprintln!(
                "shard {shard:.0} stats: {:.0} evaluations, {:.0} frames read, \
                 {:.0} frames written, {:.0} session(s) reaped",
                counter("evaluations"),
                counter("frames_read"),
                counter("frames_written"),
                counter("sessions_reaped")
            );
        } else if progress {
            eprintln!("{}", frame.compact());
        }
    };
    let trace = trace_path(opts);
    let docs = match &connect_specs {
        Some(specs) => {
            eprintln!(
                "shard-batch: {} job(s) over {} shard(s) ({} policy), daemons {}",
                shard_plan.job_count(),
                shard_plan.shard_count(),
                policy,
                specs.join(", ")
            );
            run_daemons(&manifest, &shard_plan, specs, &supervisor, &mut on_frame)
        }
        None => {
            // Each worker is this very binary running `serve` on an
            // ephemeral port.
            let exe = std::env::current_exe()
                .map_err(|e| CliError::run(format!("locating the tdals binary: {e}")))?;
            eprintln!(
                "shard-batch: {} job(s) over {} shard(s) ({} policy), spawned daemons",
                shard_plan.job_count(),
                shard_plan.shard_count(),
                policy
            );
            run_children(&manifest, &shard_plan, &exe, &supervisor, &mut on_frame)
        }
    }
    .map_err(|e| CliError::run(e.to_string()))?;

    let merged = {
        let _span = tdals::obs::trace::span(tdals::obs::trace::cat::PHASE, "merge")
            .arg("shards", shard_plan.shard_count() as u64);
        merge(&shard_plan, &docs)
    };
    write_trace(trace)?;
    let merged = merged.map_err(|e| CliError::run(e.to_string()))?;
    match opts.get("out") {
        Some(path) => {
            fs::write(path, &merged).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => print!("{merged}"),
    }

    // Same exit contract as serve-batch: failed jobs are *in* the
    // deterministic results file, and the command exits nonzero.
    let failed = Json::parse(&merged)
        .ok()
        .and_then(|doc| {
            doc.get("results").and_then(Json::as_array).map(|records| {
                records
                    .iter()
                    .filter(|r| r.get("status").and_then(Json::as_str) != Some("completed"))
                    .count()
            })
        })
        .unwrap_or(0);
    eprintln!(
        "shard-batch done: {} completed, {failed} failed of {} job(s) over {} shard(s)",
        shard_plan.job_count() - failed,
        shard_plan.job_count(),
        shard_plan.shard_count()
    );
    if failed > 0 {
        return Err(CliError::run(format!(
            "{failed} job(s) did not complete (see the results file)"
        )));
    }
    Ok(())
}

/// Prints one `--progress` line for the serving commands: a compact
/// wire frame tagging the session's local submission index and name,
/// with the event in the protocol's own encoding. `serve-batch` and
/// `submit` share this renderer, so their progress streams for the same
/// manifest are line-for-line comparable.
fn print_event_frame(session: usize, name: &str, event: Json) {
    let frame = Json::Obj(vec![
        ("schema".into(), Json::Num(PROTOCOL_SCHEMA as f64)),
        ("session".into(), Json::Num(session as f64)),
        ("name".into(), Json::Str(name.into())),
        ("event".into(), event),
    ]);
    eprintln!("{}", frame.compact());
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let listen = opts
        .get("listen")
        .ok_or_else(|| CliError::Usage("--listen is required".into()))?;
    let total = parse_positive(opts, "total-threads")?
        .unwrap_or_else(tdals::core::par::available_threads)
        .max(1);
    let mut config = DaemonConfig::new(total);
    if let Some(cap) = parse_positive(opts, "session-threads")? {
        config = config.with_session_cap(cap);
    }
    if let Some(n) = parse_positive(opts, "max-sessions")? {
        config = config.with_max_sessions(n);
    }
    if let Some(quota) = parse_positive(opts, "tenant-quota")? {
        config = config.with_tenant_quota(quota);
    }
    let daemon = Daemon::new(config).map_err(|e| CliError::run(e.to_string()))?;
    let listener =
        Listener::bind(listen).map_err(|e| CliError::run(format!("binding {listen}: {e}")))?;
    eprintln!(
        "serve: listening on {} with {total} worker slot(s)",
        listener.local_spec()
    );
    daemon
        .serve(listener)
        .map_err(|e| CliError::run(format!("serving on {listen}: {e}")))?;
    eprintln!("serve: shut down");
    Ok(())
}

/// Sends one request frame and reads the daemon's reply, turning error
/// frames into typed run errors.
fn roundtrip(conn: &mut Connection<Stream>, request: &Request) -> Result<Json, CliError> {
    conn.send(&request.to_json())
        .map_err(|e| CliError::run(format!("sending to daemon: {e}")))?;
    let frame = match conn.receive() {
        Ok(Some(frame)) => frame,
        Ok(None) => return Err(CliError::run("daemon closed the connection")),
        Err(e) => return Err(CliError::run(format!("reading from daemon: {e}"))),
    };
    if let Some((code, message)) = as_error(&frame) {
        return Err(CliError::run(format!("daemon: {code}: {message}")));
    }
    Ok(frame)
}

fn reply_session_id(frame: &Json) -> Result<u64, CliError> {
    frame
        .get("session")
        .and_then(Json::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| CliError::run("daemon reply is missing `session`"))
}

fn cmd_submit(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let spec = opts
        .get("connect")
        .ok_or_else(|| CliError::Usage("--connect is required".into()))?;
    let drain = opts.contains_key("drain");
    let shutdown = opts.contains_key("shutdown");
    let manifest_path = opts.get("manifest");
    if manifest_path.is_none() && !drain && !shutdown {
        return Err(CliError::Usage(
            "--manifest is required (or pass --drain / --shutdown)".into(),
        ));
    }
    let tenant = opts.get("tenant").cloned();
    let progress = opts.contains_key("progress");
    // Dial retries are opt-in (default 0): an absent daemon should fail
    // fast with the typed connection-refused error unless the caller is
    // deliberately racing a daemon that is still binding its socket
    // (the CI determinism soak does exactly that, with a generous --retry).
    let retries = parse_num(opts, "retry", 0usize)?;

    // Parse (and resolve circuit files to inline Verilog) before
    // dialing: a broken manifest never opens a socket, and the daemon
    // itself reads no files.
    let jobs: Vec<FlowJob> = match manifest_path {
        None => Vec::new(),
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError::run(format!("reading {path}: {e}")))?;
            Manifest::parse(&text, &|p| fs::read_to_string(p).map_err(|e| e.to_string()))
                .map_err(|e| CliError::run(e.to_string()))?
                .jobs
        }
    };

    let mut conn =
        Connection::new(connect_retry(spec, retries).map_err(|e| CliError::run(e.to_string()))?);

    let mut sessions: Vec<(u64, String)> = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let reply = roundtrip(
            &mut conn,
            &Request::Submit {
                job: job.clone(),
                tenant: tenant.clone(),
            },
        )?;
        sessions.push((reply_session_id(&reply)?, job.name.clone()));
    }
    if !jobs.is_empty() {
        eprintln!("submit: {} job(s) to {spec}", jobs.len());
    }

    // Pump events and poll results until every session reports done.
    // Events drain even without --progress so the daemon's buffers stay
    // flat over long batches.
    let mut records: Vec<Option<Json>> = vec![None; sessions.len()];
    let mut statuses: Vec<Option<String>> = vec![None; sessions.len()];
    loop {
        let mut pending = false;
        for (i, (id, name)) in sessions.iter().enumerate() {
            if records[i].is_some() {
                continue;
            }
            let events = roundtrip(&mut conn, &Request::Events { session: *id })?;
            if progress {
                if let Some(Json::Arr(items)) = events.get("events") {
                    for ev in items {
                        print_event_frame(i, name, ev.clone());
                    }
                }
            }
            let reply = roundtrip(
                &mut conn,
                &Request::Result {
                    session: *id,
                    wait: false,
                },
            )?;
            if reply.get("done") == Some(&Json::Bool(true)) {
                records[i] = reply.get("record").cloned();
                statuses[i] = reply
                    .get("status")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
                // One more drain: the events that landed between the
                // last poll and the session finishing.
                let events = roundtrip(&mut conn, &Request::Events { session: *id })?;
                if progress {
                    if let Some(Json::Arr(items)) = events.get("events") {
                        for ev in items {
                            print_event_frame(i, name, ev.clone());
                        }
                    }
                }
            } else {
                pending = true;
            }
        }
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut failed = 0usize;
    if !jobs.is_empty() {
        // The daemon ships each record without its `job` index — the
        // client knows its own submission order, so prepending it here
        // reassembles a document byte-identical to `serve-batch`'s.
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
        let doc = results_document_from_records(rows);
        let text = format!("{doc}\n");
        match opts.get("out") {
            Some(path) => {
                fs::write(path, &text)
                    .map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
                eprintln!("wrote {path}");
            }
            None => print!("{text}"),
        }
        let completed = statuses
            .iter()
            .filter(|s| s.as_deref() == Some("completed"))
            .count();
        failed = statuses.len() - completed;
        eprintln!(
            "submit done: {completed} completed, {failed} failed of {} job(s)",
            statuses.len()
        );
    }

    if drain || shutdown {
        let verb = if shutdown {
            Request::Shutdown
        } else {
            Request::Drain
        };
        let reply = roundtrip(&mut conn, &verb)?;
        let count = reply.get("sessions").and_then(Json::as_f64).unwrap_or(0.0);
        eprintln!(
            "{}: {count} session(s) settled",
            if shutdown { "shutdown" } else { "drain" }
        );
    }
    if failed > 0 {
        return Err(CliError::run(format!(
            "{failed} job(s) did not complete (see the results file)"
        )));
    }
    Ok(())
}

/// `tdals stats --connect <addr>`: one `stats` round-trip against a
/// running daemon, reply pretty-printed to stdout. An older daemon that
/// predates the verb answers `unknown-verb`, which surfaces here as a
/// plain run error naming the verbs it does speak.
fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let spec = opts
        .get("connect")
        .ok_or_else(|| CliError::Usage("--connect is required".into()))?;
    let retries = parse_num(opts, "retry", 0usize)?;
    let mut conn =
        Connection::new(connect_retry(spec, retries).map_err(|e| CliError::run(e.to_string()))?);
    let reply = roundtrip(&mut conn, &Request::Stats)?;
    println!("{reply}");
    Ok(())
}

fn cmd_report(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let netlist = load_input(opts)?;
    let cfg = TimingConfig::default();
    let report = analyze(&netlist, &cfg);
    println!("module {}", netlist.name());
    println!("  gates : {}", netlist.logic_gate_count());
    println!("  PIs   : {}", netlist.input_count());
    println!("  POs   : {}", netlist.output_count());
    println!("  area  : {:.2} µm² (live)", netlist.area_live());
    println!("  depth : {} levels", report.max_depth());
    println!("  CPD   : {:.2} ps", report.critical_path_delay());
    let dead = netlist.live_mask().iter().filter(|&&l| !l).count();
    println!("  dangling gates: {dead}");
    let mut hist: Vec<(String, usize)> = netlist
        .func_histogram()
        .into_iter()
        .map(|(f, c)| (f.to_string(), c))
        .collect();
    hist.sort();
    println!(
        "  cell mix: {}",
        hist.iter()
            .map(|(f, c)| format!("{f}:{c}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let path = critical_path(&netlist, &report);
    println!("  critical path ({} gates):", path.len());
    for gate in path.iter().rev().take(12) {
        let g = netlist.gate(*gate);
        println!(
            "    {:>10.2} ps  {:<10} {}",
            report.arrival(*gate),
            g.cell().lib_name(),
            g.name()
        );
    }
    if path.len() > 12 {
        println!("    ... {} more", path.len() - 12);
    }
    Ok(())
}

fn cmd_bench(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let name = opts
        .get("name")
        .ok_or_else(|| CliError::Usage("--name is required".into()))?;
    let bench = benchmark_by_name(name)?;
    let netlist = bench.build();
    eprintln!(
        "{}: {} gates, {} PIs, {} POs — {}",
        bench.name(),
        netlist.logic_gate_count(),
        netlist.input_count(),
        netlist.output_count(),
        bench.description()
    );
    write_output(opts, &netlist)
}

fn cmd_lint(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let input = opts
        .get("input")
        .ok_or_else(|| CliError::Usage("--input is required".into()))?;
    let deny_warnings = match opts.get("deny").map(String::as_str) {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(CliError::run(format!(
                "--deny: only `warnings` can be denied, got `{other}`"
            )))
        }
    };
    // A Verilog file goes through `lint_verilog`, so a file that does
    // not even parse still produces one located finding instead of a
    // bare parse error; generated benchmarks are linted in memory.
    let (subject, report) = if let Some(name) = input.strip_prefix("bench:") {
        let netlist = benchmark_by_name(name)?.build();
        (
            netlist.name().to_owned(),
            tdals::lint::lint_netlist(&netlist),
        )
    } else {
        let text = fs::read_to_string(input)
            .map_err(|e| CliError::run(format!("reading {input}: {e}")))?;
        (input.clone(), tdals::lint::lint_verilog(&text))
    };

    for finding in report.findings() {
        eprintln!("{subject}: {finding}");
    }
    let json = lint_json(input, &report);
    if let Some(path) = opts.get("out") {
        let text = format!("{json}\n");
        fs::write(path, &text).map_err(|e| CliError::run(format!("writing {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    if opts.contains_key("json") {
        println!("{json}");
    }
    eprintln!(
        "{subject}: {} error(s), {} warning(s)",
        report.error_count(),
        report.warning_count()
    );
    if !report.has_no_errors() {
        return Err(CliError::run(format!(
            "{subject}: lint failed with {} error(s)",
            report.error_count()
        )));
    }
    if deny_warnings && !report.is_clean() {
        return Err(CliError::run(format!(
            "{subject}: lint failed with {} warning(s) (--deny warnings)",
            report.warning_count()
        )));
    }
    Ok(())
}

/// Renders a lint report as the machine-readable findings document the
/// CI gate archives (same self-contained JSON codec as the benchmark
/// pipeline).
fn lint_json(input: &str, report: &tdals::lint::LintReport) -> Json {
    let opt_num = |v: Option<usize>| match v {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    };
    let findings: Vec<Json> = report
        .findings()
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(f.rule.as_str().into())),
                ("severity".into(), Json::Str(f.severity.to_string())),
                ("message".into(), Json::Str(f.message.clone())),
                ("gate".into(), opt_num(f.gate.map(|g| g.index()))),
                ("output".into(), opt_num(f.output)),
                ("line".into(), opt_num(f.line)),
                ("column".into(), opt_num(f.column)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("input".into(), Json::Str(input.into())),
        ("errors".into(), Json::Num(report.error_count() as f64)),
        ("warnings".into(), Json::Num(report.warning_count() as f64)),
        ("findings".into(), Json::Arr(findings)),
    ])
}

fn cmd_list() -> Result<(), CliError> {
    println!("{:<12} {:<10} {:>7}  description", "name", "class", "#gate");
    for bench in ALL_BENCHMARKS {
        let n = bench.build();
        let class = match bench.class() {
            tdals::circuits::CircuitClass::RandomControl => "rand/ctrl",
            tdals::circuits::CircuitClass::Arithmetic => "arith",
        };
        println!(
            "{:<12} {:<10} {:>7}  {}",
            bench.name(),
            class,
            n.logic_gate_count(),
            bench.description()
        );
    }
    Ok(())
}
