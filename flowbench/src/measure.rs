//! Runs the set-up and the flows of a workload through the public API
//! and measures them from outside: wall clock, process CPU time, the
//! `tdals-obs` counters around each flow and, when tracing, the spans
//! each flow records.

use tdals_baselines::Method;
use tdals_bench::timing::Stopwatch;
use tdals_core::api::{Flow, FlowError, FlowEvent, FlowOutcome};
use tdals_core::EvalContext;
use tdals_obs::{clock, trace, SpanRecord};
use tdals_sim::Patterns;
use tdals_sta::TimingConfig;

use crate::workload::{Job, Seeds};

/// Fitness depth weight `wd` of every flow (the paper's setting).
pub const DEPTH_WEIGHT: f64 = 0.8;

/// Ring capacity while tracing: far above the spans one flow records,
/// so none is dropped.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Seconds spent in each step of one set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTimes {
    /// `Benchmark::build`.
    pub build_s: f64,
    /// `Patterns::random`.
    pub patterns_s: f64,
    /// `EvalContext::new`.
    pub ctx_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.patterns_s + self.ctx_s
    }
}

/// Builds the circuit, the stimulus and the evaluation context once.
pub fn setup(job: &Job, seeds: Seeds) -> (EvalContext, SetupTimes) {
    let step = Stopwatch::start();
    let accurate = job.bench.build();
    let build_s = step.elapsed_s();
    let step = Stopwatch::start();
    let patterns = Patterns::random(accurate.input_count(), job.vectors, seeds.stimulus);
    let patterns_s = step.elapsed_s();
    let step = Stopwatch::start();
    let ctx = EvalContext::new(
        &accurate,
        patterns,
        job.metric,
        TimingConfig::default(),
        DEPTH_WEIGHT,
    );
    let times = SetupTimes {
        build_s,
        patterns_s,
        ctx_s: step.elapsed_s(),
    };
    (ctx, times)
}

/// Differences of the `tdals-obs` counters over one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Candidate evaluations.
    pub evaluations: u64,
    /// `DeltaSim` cone previews.
    pub delta_previews: u64,
    /// `DeltaSim` commits.
    pub delta_commits: u64,
    /// `DeltaSim` full re-simulations.
    pub delta_rebases: u64,
    /// Cone sizes recorded.
    pub cone_count: u64,
    /// Sum of the recorded cone sizes, in gates.
    pub cone_sum: u64,
}

impl Counters {
    fn read() -> Counters {
        let snap = tdals_obs::metrics().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let cones = snap
            .histograms
            .iter()
            .find(|h| h.name == "delta_cone_gates");
        Counters {
            evaluations: counter("evaluations"),
            delta_previews: counter("delta_previews"),
            delta_commits: counter("delta_commits"),
            delta_rebases: counter("delta_rebases"),
            cone_count: cones.map_or(0, |h| h.count),
            cone_sum: cones.map_or(0, |h| h.sum),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            evaluations: self.evaluations - before.evaluations,
            delta_previews: self.delta_previews - before.delta_previews,
            delta_commits: self.delta_commits - before.delta_commits,
            delta_rebases: self.delta_rebases - before.delta_rebases,
            cone_count: self.cone_count - before.cone_count,
            cone_sum: self.cone_sum - before.cone_sum,
        }
    }

    /// Element-wise sum.
    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            evaluations: self.evaluations + other.evaluations,
            delta_previews: self.delta_previews + other.delta_previews,
            delta_commits: self.delta_commits + other.delta_commits,
            delta_rebases: self.delta_rebases + other.delta_rebases,
            cone_count: self.cone_count + other.cone_count,
            cone_sum: self.cone_sum + other.cone_sum,
        }
    }
}

/// The result quantities of one flow; the netlists are not kept.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// `FlowOutcome::method`.
    pub method: String,
    /// `CPD_fac / CPD_ori`.
    pub ratio_cpd: f64,
    /// Final error under the workload's metric.
    pub error: f64,
    /// Final live area over the accurate circuit's.
    pub area_ratio: f64,
    /// Optimizer evaluations.
    pub evaluations: u64,
}

impl Quality {
    fn of(ctx: &EvalContext, outcome: &FlowOutcome) -> Quality {
        Quality {
            method: outcome.method.clone(),
            ratio_cpd: outcome.ratio_cpd,
            error: outcome.error,
            area_ratio: outcome.area / ctx.area_ori(),
            evaluations: outcome.optimize.evaluations,
        }
    }
}

/// One finished flow and what was measured around it.
#[derive(Debug)]
pub struct FlowRun {
    /// Optimizer that ran.
    pub method: Method,
    /// The flow's result quantities.
    pub quality: Quality,
    /// Wall seconds in `Flow::run`.
    pub flow_s: f64,
    /// Process CPU seconds (user + system, all threads) in `Flow::run`.
    pub cpu_s: f64,
    /// Seconds from the flow's start event to its first iteration: the
    /// optimizer's seeding.
    pub seed_s: f64,
    /// Counter differences over the flow.
    pub counters: Counters,
    /// Spans the flow recorded; empty unless traced.
    pub spans: Vec<SpanRecord>,
    /// Spans the ring dropped during the flow.
    pub spans_dropped: u64,
}

/// Runs one flow of `job` with `method` on the prepared context and
/// returns the measurements with the full outcome, which the caller
/// checks and then drops.
///
/// # Errors
///
/// Whatever [`Flow::run`] reports.
pub fn run_flow(
    ctx: &EvalContext,
    job: &Job,
    method: Method,
    seeds: Seeds,
    traced: bool,
) -> Result<(FlowRun, FlowOutcome), FlowError> {
    if traced {
        trace::enable(TRACE_CAPACITY);
    }
    let mut started: Option<clock::Instant> = None;
    let mut first_iteration: Option<clock::Instant> = None;
    let before = Counters::read();
    let cpu_before = process_cpu_s();
    let flow_clock = Stopwatch::start();
    let result = Flow::for_context(ctx)
        .error_bound(job.bound)
        .threads(job.threads)
        .optimizer(method.optimizer(&job.method_config(seeds)))
        .observe(|event: &FlowEvent| match event {
            FlowEvent::FlowStarted { .. } => started = Some(clock::now()),
            FlowEvent::IterationStarted { .. } | FlowEvent::OptimizeFinished { .. } => {
                first_iteration.get_or_insert_with(clock::now);
            }
            _ => {}
        })
        .run();
    let flow_s = flow_clock.elapsed_s();
    let cpu_s = process_cpu_s() - cpu_before;
    let counters = Counters::read().since(before);
    let (spans, spans_dropped) = if traced {
        trace::disable();
        (trace::drain(), trace::dropped())
    } else {
        (Vec::new(), 0)
    };
    let outcome = result?;
    let seed_s = match (started, first_iteration) {
        (Some(s), Some(f)) => f.saturating_duration_since(s).as_secs_f64(),
        _ => 0.0,
    };
    let run = FlowRun {
        method,
        quality: Quality::of(ctx, &outcome),
        flow_s,
        cpu_s,
        seed_s,
        counters,
        spans,
        spans_dropped,
    };
    Ok((run, outcome))
}

/// Clock ticks per second of the times in `/proc/self/stat`
/// (`USER_HZ`): 100 on x86 and ARM Linux.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (finished
/// ones included); 0 where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Resets the resident-set high-water mark to the current resident
/// size, so the next [`peak_rss_mb`] covers what ran since. Where the
/// kernel does not allow it the mark keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Resident-set high-water mark of this process in MiB (`VmHWM`); 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
