//! One benchmark run: set-up, a closed loop of flow units for the
//! requested seconds, the output check of every flow, and the metrics.

use std::path::Path;
use std::process::{Command, Stdio};

use tdals_bench::json::Json;
use tdals_bench::timing::Stopwatch;
use tdals_core::{Candidate, EvalContext};

use crate::check::Checker;
use crate::measure::{peak_rss_mb, reset_peak_rss, run_flow, setup, Counters, FlowRun, SetupTimes};
use crate::probe::{attributed_s, probe};
use crate::spans::SpanTimes;
use crate::stats::{geomean, max, mean, median};
use crate::workload::{Job, Seeds};

/// Set-ups each unit process times before its unit, which adds one
/// more; `setup_s` is their median, and the run reports the median over
/// unit processes.
pub const SETUP_REPS: usize = 9;

/// Fewest sub-seeds an untraced run measures.
pub const MIN_DISTINCT: u64 = 2;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("evals_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ratio_cpd", "ratio"),
    ("area_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("circuits.build_ms", "ms"),
    ("sim.patterns_ms", "ms"),
    ("sim.simulate_us", "us"),
    ("sim.simulate_probe_us", "us"),
    ("sim.delta_previews", "count"),
    ("sim.delta_commits", "count"),
    ("sim.delta_rebases", "count"),
    ("sim.delta_cone_gates_mean", "gates"),
    ("netlist.clone_us", "us"),
    ("sta.analyze_us", "us"),
    ("sta.incremental_new_us", "us"),
    ("core.ctx_new_ms", "ms"),
    ("core.delta_eval_us", "us"),
    ("core.propose_us", "us"),
    ("core.score_lac_us", "us"),
    ("core.evaluate_us", "us"),
    ("core.reproduce_us", "us"),
    ("core.select_us", "us"),
    ("core.seed_ms", "ms"),
    ("core.iter_ms_p50", "ms"),
    ("core.iter_ms_max", "ms"),
    ("core.optimize_s", "s"),
    ("core.postopt_s", "s"),
    ("core.evaluations", "count"),
    ("core.error_used", "ratio"),
    ("core.layer_coverage", "ratio"),
    ("par.parallel_share", "ratio"),
    ("par.serial_s", "s"),
    ("par.calls", "count"),
    ("par.efficiency", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_dropped", "count"),
];

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Flows run.
    pub attempted: u64,
    /// Flows that failed a check (or did not finish).
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Seed, host, build and per-flow outcomes, for the record.
    pub record: Json,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Flows run back to back, one per method of the workload, on one
/// sub-seed.
struct Unit {
    flows: Vec<FlowRun>,
    traced: bool,
    wall_s: f64,
    peak_rss_mb: f64,
}

impl Unit {
    fn flow_s(&self) -> f64 {
        self.flows.iter().map(|f| f.flow_s).sum()
    }

    fn cpu_s(&self) -> f64 {
        self.flows.iter().map(|f| f.cpu_s).sum()
    }

    fn counters(&self) -> Counters {
        self.flows
            .iter()
            .fold(Counters::default(), |acc, f| acc.plus(f.counters))
    }

    fn spans(&self) -> SpanTimes {
        let spans: Vec<_> = self.flows.iter().flat_map(|f| f.spans.clone()).collect();
        SpanTimes::from_spans(&spans)
    }
}

/// The units of one unit process, checked as they finish.
struct Session<'a> {
    job: &'a Job,
    seeds: Seeds,
    setups: Vec<SetupTimes>,
    attempted: u64,
    failures: Vec<String>,
    /// Outcome digest per method of the first unit.
    digests: Vec<u64>,
    units: Vec<Unit>,
    /// Context and final populations of the traced unit, for the layer
    /// probe.
    probe_inputs: Option<(EvalContext, Vec<Candidate>)>,
}

impl Session<'_> {
    /// Sets up and runs one unit on sub-seed `sub`, checking every flow
    /// and, on a second unit, that the digests repeat; `false` when a
    /// check failed (the unit is then not kept).
    fn unit(&mut self, sub: u64, traced: bool) -> bool {
        let seeds = self.seeds.for_unit(sub);
        let (ctx, times) = setup(self.job, seeds);
        self.setups.push(times);
        let checker = Checker::new(&ctx, self.job.bound);
        reset_peak_rss();
        let unit_clock = Stopwatch::start();
        let mut flows = Vec::with_capacity(self.job.methods.len());
        let mut digests = Vec::with_capacity(self.job.methods.len());
        let mut population = Vec::new();
        for &method in self.job.methods {
            self.attempted += 1;
            let (run, outcome) = match run_flow(&ctx, self.job, method, seeds, traced) {
                Ok(done) => done,
                Err(e) => {
                    self.failures.push(format!("{method}: flow error: {e}"));
                    continue;
                }
            };
            match checker.check(&outcome) {
                Ok(digest) => {
                    flows.push(run);
                    digests.push(digest);
                    population.extend(outcome.optimize.population);
                }
                Err(e) => self.failures.push(format!("{method}: {e}")),
            }
        }
        if flows.len() != self.job.methods.len() {
            return false;
        }
        if !self.units.is_empty() && digests != self.digests {
            self.failures.push(format!(
                "sub-seed {sub}: outcome digests differ between runs of one seed"
            ));
            return false;
        }
        self.digests = digests;
        self.units.push(Unit {
            flows,
            traced,
            wall_s: unit_clock.elapsed_s(),
            peak_rss_mb: peak_rss_mb(),
        });
        if traced {
            self.probe_inputs = Some((ctx, population));
        }
        true
    }
}

/// Runs sub-seed `sub` in this process and returns what it measured, as
/// the line a unit process prints: one untraced unit with its
/// end-to-end values, or an untraced and a traced unit with the
/// per-layer values of the pair.
pub fn run_unit(job: &Job, seeds: Seeds, sub: u64, traced: bool) -> Json {
    let mut session = Session {
        job,
        seeds,
        setups: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        digests: Vec::new(),
        units: Vec::new(),
        probe_inputs: None,
    };
    for _ in 0..SETUP_REPS {
        session.setups.push(setup(job, seeds.for_unit(sub)).1);
    }
    let complete = session.unit(sub, false) && (!traced || session.unit(sub, true));
    let values = match (&session.probe_inputs, complete) {
        (_, false) => Vec::new(),
        (Some((ctx, population)), true) => {
            per_layer(job, seeds, ctx, population, &session.setups, &session.units)
        }
        (None, true) => unit_end_to_end(&session.setups, &session.units[0]),
    };
    let unit = session.units.last();
    let flows = unit.map_or_else(Vec::new, |u| {
        u.flows
            .iter()
            .zip(&session.digests)
            .map(|(f, digest)| {
                Json::Obj(vec![
                    ("method".into(), Json::Str(f.quality.method.clone())),
                    ("ratio_cpd".into(), Json::Num(f.quality.ratio_cpd)),
                    ("error".into(), Json::Num(f.quality.error)),
                    ("area_ratio".into(), Json::Num(f.quality.area_ratio)),
                    (
                        "evaluations".into(),
                        Json::Num(f.quality.evaluations as f64),
                    ),
                    ("digest".into(), Json::Str(format!("{digest:016x}"))),
                ])
            })
            .collect()
    });
    let values = values
        .into_iter()
        .map(|(name, v)| (name.to_owned(), Json::Num(v)))
        .collect();
    Json::Obj(vec![
        ("sub_seed".into(), Json::Num(sub as f64)),
        ("traced".into(), Json::Bool(traced)),
        ("attempted".into(), Json::Num(session.attempted as f64)),
        ("wall_s".into(), Json::Num(unit.map_or(0.0, |u| u.wall_s))),
        ("flows".into(), Json::Arr(flows)),
        ("values".into(), Json::Obj(values)),
        (
            "failures".into(),
            Json::Arr(session.failures.into_iter().map(Json::Str).collect()),
        ),
    ])
}

/// Runs `unit_exe` on one sub-seed and reads the line it prints.
fn spawn_unit(
    unit_exe: &Path,
    job: &Job,
    seeds: Seeds,
    sub: u64,
    traced: bool,
) -> Result<Json, String> {
    let output = Command::new(unit_exe)
        .args(["--workload", job.name, "--seed", &seeds.run.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--unit", &sub.to_string()])
        .args(job.reduced.then_some("--reduced"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", unit_exe.display()))?;
    if !output.status.success() {
        return Err(format!("unit process exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("unreadable unit result: {e}"))
}

/// Multiple of a run's `seconds` after which it takes no new sub-seed:
/// a run stops early only on a host this much slower than the
/// reference, and then still repeats sub-seed 0.
pub const DEADLINE_FACTOR: f64 = 2.0;

/// Wall time of a traced unit process (the sub-seed untraced, then
/// traced, then the layer probe) against an untraced one.
pub const TRACED_UNIT_FACTOR: f64 = 2.3;

/// Sub-seeds a run of `seconds` measures: as many unit processes of the
/// workload's reference length ([`Job::unit_s`]) as fit in `seconds`,
/// one kept back for an untraced run's repeat. The count depends on
/// `seconds` only, so every run of every build medians over the same
/// sub-seeds; an untraced run takes at least [`MIN_DISTINCT`], a traced
/// one at least one.
pub fn planned_units(job: &Job, seconds: f64, traced: bool) -> u64 {
    if traced {
        ((seconds / (TRACED_UNIT_FACTOR * job.unit_s)) as u64).max(1)
    } else {
        ((seconds / job.unit_s) as u64)
            .saturating_sub(1)
            .max(MIN_DISTINCT)
    }
}

/// Runs `job` for about `seconds` and measures it; `traced` selects the
/// per-layer run.
///
/// Every unit runs in a fresh process started from `unit_exe` (the
/// benchmark binary with `--unit`). On a shared host a process's speed
/// depends on where its memory lands and stays with it for its
/// lifetime, so a median over several processes is steady where one
/// long process is not. Unit *k* runs on sub-seed *k*: its stimulus and
/// optimizer streams are split from the run's, so one run samples
/// several stimulus draws and search trajectories and the run seed only
/// picks which. A run takes sub-seeds 0 to [`planned_units`] − 1, fewer
/// only once [`DEADLINE_FACTOR`] × `seconds` have passed. An untraced
/// run then repeats sub-seed 0, whose digests must match; the repeat is
/// checked, not measured. A traced unit process runs its sub-seed
/// untraced and then traced.
pub fn run(job: &Job, seeds: Seeds, seconds: f64, traced: bool, unit_exe: &Path) -> Report {
    let clock = Stopwatch::start();
    let planned = planned_units(job, seconds, traced);
    let floor = if traced { 1 } else { MIN_DISTINCT };
    let mut attempted = 0;
    let mut failures: Vec<String> = Vec::new();
    let mut units: Vec<Json> = Vec::new();
    let mut sub = 0;
    loop {
        let late = clock.elapsed_s() > DEADLINE_FACTOR * seconds;
        let done = sub >= planned || (late && sub >= floor);
        if traced && done {
            break;
        }
        let repeat = !traced && done;
        let this = if repeat { 0 } else { sub };
        match spawn_unit(unit_exe, job, seeds, this, traced) {
            Ok(unit) => {
                let num = |key: &str| unit.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                attempted += num("attempted") as u64;
                let reported = unit.get("failures").and_then(Json::as_array).unwrap_or(&[]);
                failures.extend(reported.iter().filter_map(Json::as_str).map(str::to_owned));
                if repeat && unit.get("flows") != units[0].get("flows") {
                    failures
                        .push("sub-seed 0: outcome digests differ between runs of one seed".into());
                }
                units.push(unit);
            }
            Err(e) => {
                attempted += job.methods.len() as u64;
                failures.push(format!("sub-seed {this}: {e}"));
            }
        }
        sub += 1;
        if repeat || !failures.is_empty() {
            break;
        }
    }
    for failure in &failures {
        eprintln!("flowbench: check failed: {failure}");
    }
    let metrics = if !failures.is_empty() {
        Vec::new()
    } else if traced {
        aggregate(&PER_LAYER, &units)
    } else {
        let measured = &units[..units.len() - 1];
        let quality: Vec<&Json> = measured
            .iter()
            .filter_map(|u| u.get("flows").and_then(Json::as_array))
            .flatten()
            .collect();
        let geomean_of = |key: &str| {
            geomean(
                &quality
                    .iter()
                    .filter_map(|f| f.get(key).and_then(Json::as_f64))
                    .collect::<Vec<_>>(),
            )
        };
        let mut metrics = aggregate(&END_TO_END[..5], measured);
        metrics.push((END_TO_END[5].0, END_TO_END[5].1, geomean_of("ratio_cpd")));
        metrics.push((END_TO_END[6].0, END_TO_END[6].1, geomean_of("area_ratio")));
        metrics
    };
    let record = Json::Obj(vec![
        ("seed".into(), Json::Str(seeds.run.to_string())),
        (
            "stimulus_seed".into(),
            Json::Str(format!("{:016x}", seeds.stimulus)),
        ),
        (
            "optimizer_seed".into(),
            Json::Str(format!("{:016x}", seeds.optimizer)),
        ),
        ("units".into(), Json::Arr(units)),
        (
            "failures".into(),
            Json::Arr(failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    Report {
        attempted,
        failed: failures.len() as u64,
        metrics,
        record,
    }
}

/// Median over unit processes of each metric in `table`.
fn aggregate(
    table: &[(&'static str, &'static str)],
    units: &[Json],
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = units
                .iter()
                .filter_map(|u| u.get("values")?.get(name)?.as_f64())
                .collect();
            (name, unit, median(&values))
        })
        .collect()
}

/// Time and memory metrics of one untraced unit, in `END_TO_END` order.
fn unit_end_to_end(setups: &[SetupTimes], unit: &Unit) -> Vec<(&'static str, f64)> {
    vec![
        (
            "setup_s",
            median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
        ),
        ("flow_s", unit.flow_s()),
        (
            "evals_per_s",
            unit.counters().evaluations as f64 / unit.flow_s(),
        ),
        ("cpu_s", unit.cpu_s()),
        ("peak_rss_mb", unit.peak_rss_mb),
    ]
}

fn per_layer(
    job: &Job,
    seeds: Seeds,
    ctx: &EvalContext,
    population: &[Candidate],
    setups: &[SetupTimes],
    units: &[Unit],
) -> Vec<(&'static str, f64)> {
    let (traced, untraced): (Vec<&Unit>, Vec<&Unit>) = units.iter().partition(|u| u.traced);
    let each = |f: &dyn Fn(&Unit) -> f64| median(&traced.iter().map(|u| f(u)).collect::<Vec<_>>());
    let setup_ms = |f: &dyn Fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>())
    };
    let layers = probe(ctx, job, seeds, population);
    let coverage = |u: &Unit| {
        let spans = u.spans();
        let attributed: f64 = u
            .flows
            .iter()
            .map(|f| attributed_s(job, f, &SpanTimes::from_spans(&f.spans), &layers))
            .sum();
        // Single-thread layer costs against the optimize phase's CPU
        // time (its wall time scaled by the flow's CPU parallelism).
        attributed / (spans.optimize_s * u.cpu_s() / u.flow_s())
    };
    let untraced_flow_s = median(&untraced.iter().map(|u| u.flow_s()).collect::<Vec<_>>());
    let traced_flow_s = each(&|u| u.flow_s());

    let values = [
        setup_ms(&|s| s.build_s),
        setup_ms(&|s| s.patterns_s),
        layers.simulate_us,
        layers.simulate_probe_us,
        each(&|u| u.counters().delta_previews as f64),
        each(&|u| u.counters().delta_commits as f64),
        each(&|u| u.counters().delta_rebases as f64),
        each(&|u| {
            let c = u.counters();
            if c.cone_count == 0 {
                0.0
            } else {
                c.cone_sum as f64 / c.cone_count as f64
            }
        }),
        layers.clone_us,
        layers.analyze_us,
        layers.incremental_new_us,
        setup_ms(&|s| s.ctx_s),
        layers.delta_eval_us,
        layers.propose_us,
        layers.score_lac_us,
        layers.evaluate_us,
        layers.reproduce_us,
        layers.select_us,
        each(&|u| u.flows.iter().map(|f| f.seed_s).sum::<f64>() * 1e3),
        each(&|u| median(&u.spans().iteration_ms)),
        each(&|u| max(&u.spans().iteration_ms)),
        each(&|u| u.spans().optimize_s),
        each(&|u| u.spans().postopt_s),
        each(&|u| u.counters().evaluations as f64),
        each(&|u| {
            mean(
                &u.flows
                    .iter()
                    .map(|f| f.quality.error / job.bound)
                    .collect::<Vec<_>>(),
            )
        }),
        each(&coverage),
        each(&|u| {
            let s = u.spans();
            s.par_s / s.optimize_s
        }),
        each(&|u| {
            let s = u.spans();
            s.optimize_s - s.par_s
        }),
        each(&|u| u.spans().par_calls as f64),
        each(&|u| u.cpu_s() / (job.threads as f64 * u.flow_s())),
        (traced_flow_s / untraced_flow_s - 1.0) * 100.0,
        traced
            .iter()
            .flat_map(|u| u.flows.iter().map(|f| f.spans_dropped as f64))
            .sum(),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, _), value)| (name, if value.is_finite() { value } else { 0.0 }))
        .collect()
}
