//! The unified session API: one composable, observable, cancellable
//! entry point for every optimizer in the workspace.
//!
//! The paper's Fig. 2 flow is a single pipeline — circuit → optimizer →
//! post-optimization — and this module exposes it as one: the
//! [`Optimizer`] trait abstracts *which* search runs in the middle
//! (DCGWO, single-chase GWO, or any of the `tdals-baselines` methods),
//! while the [`Flow`] builder owns everything around it (stimulus,
//! evaluation context, error budget, post-optimization) and returns a
//! single [`FlowOutcome`] whatever optimizer ran.
//!
//! Three cross-cutting concerns ride along:
//!
//! * **Observation** — an [`Observer`] receives a stream of
//!   [`FlowEvent`]s (iteration started/finished, best-fitness updates,
//!   accepted LACs, post-opt phases) while the run is in progress;
//! * **Budgeting** — a [`Budget`] caps iterations, evaluations, and
//!   wall-clock time, and carries a cooperative [`CancelFlag`] that
//!   stops the run within one iteration;
//! * **Typed errors** — [`FlowError`] replaces the seed's panics for
//!   bad bounds, empty netlists, and Verilog parse failures.
//!
//! # Examples
//!
//! ```
//! use tdals_circuits::Benchmark;
//! use tdals_core::api::{Dcgwo, Flow, FlowEvent};
//! use tdals_sim::ErrorMetric;
//!
//! let accurate = Benchmark::Max16.build();
//! let mut improvements = 0usize;
//! let outcome = Flow::for_netlist(&accurate)
//!     .metric(ErrorMetric::Nmed)
//!     .error_bound(0.0244)
//!     .vectors(1024) // demo-sized stimulus
//!     .optimizer(Dcgwo::paper_for(ErrorMetric::Nmed).quick(8, 4))
//!     .observe(|ev: &FlowEvent| {
//!         if matches!(ev, FlowEvent::BestImproved { .. }) {
//!             improvements += 1;
//!         }
//!     })
//!     .run()
//!     .expect("valid configuration");
//! assert!(outcome.error <= 0.0244);
//! assert!(outcome.ratio_cpd <= 1.0);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdals_obs::clock::{self, Instant};
use tdals_obs::trace;

use tdals_netlist::{verilog, Netlist, ParseVerilogError};
use tdals_sim::{ErrorMetric, Patterns};
use tdals_sta::TimingConfig;

use crate::dcgwo::{optimize_session, ChaseStrategy, IterationStats, OptimizerConfig};
use crate::fitness::{Candidate, EvalContext};
use crate::postopt::{post_optimize, PostOptConfig, PostOptReport};

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed error for flow construction and execution.
///
/// Everywhere the seed API panicked — bad error bound, empty netlist,
/// unparsable Verilog — the session API returns one of these instead.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The input netlist has no primary inputs or no primary outputs.
    EmptyNetlist {
        /// Module name of the offending netlist.
        name: String,
    },
    /// The error bound is NaN, negative, or above 1 (both ER and NMED
    /// are normalized to `[0, 1]`).
    InvalidErrorBound {
        /// The rejected bound.
        bound: f64,
    },
    /// [`Flow::error_bound`] was never called.
    MissingErrorBound,
    /// The depth weight `wd` is outside `[0, 1]`.
    InvalidDepthWeight {
        /// The rejected weight.
        weight: f64,
    },
    /// The Monte-Carlo vector count is zero.
    NoVectors,
    /// Structural Verilog failed to parse.
    Verilog(ParseVerilogError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptyNetlist { name } => {
                write!(f, "netlist `{name}` has no primary inputs or outputs")
            }
            FlowError::InvalidErrorBound { bound } => {
                write!(f, "error bound {bound} is not in [0, 1]")
            }
            FlowError::MissingErrorBound => f.write_str("no error bound was set"),
            FlowError::InvalidDepthWeight { weight } => {
                write!(f, "depth weight {weight} is not in [0, 1]")
            }
            FlowError::NoVectors => f.write_str("Monte-Carlo vector count is zero"),
            FlowError::Verilog(e) => write!(f, "Verilog parse failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Verilog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseVerilogError> for FlowError {
    fn from(e: ParseVerilogError) -> FlowError {
        FlowError::Verilog(e)
    }
}

// ---------------------------------------------------------------------
// Budget and cancellation
// ---------------------------------------------------------------------

/// Why an optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StopReason {
    /// The optimizer ran its configured course.
    Completed,
    /// [`Budget::with_max_iterations`] was reached.
    IterationLimit,
    /// [`Budget::with_max_evaluations`] was reached.
    EvaluationLimit,
    /// [`Budget::with_deadline`] expired.
    DeadlineExpired,
    /// The [`CancelFlag`] was raised.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::Completed => "completed",
            StopReason::IterationLimit => "iteration limit",
            StopReason::EvaluationLimit => "evaluation limit",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::Cancelled => "cancelled",
        })
    }
}

impl StopReason {
    /// Stable kebab-case tag used on the wire (results files, event
    /// frames). Unlike [`Display`](fmt::Display), which is prose, this
    /// tag is a compatibility surface: existing names never change, and
    /// [`StopReason::parse_wire_name`] accepts exactly this set.
    pub fn wire_name(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::IterationLimit => "iteration-limit",
            StopReason::EvaluationLimit => "evaluation-limit",
            StopReason::DeadlineExpired => "deadline-expired",
            StopReason::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`StopReason::wire_name`]; `None` for unknown tags.
    pub fn parse_wire_name(tag: &str) -> Option<StopReason> {
        Some(match tag {
            "completed" => StopReason::Completed,
            "iteration-limit" => StopReason::IterationLimit,
            "evaluation-limit" => StopReason::EvaluationLimit,
            "deadline-expired" => StopReason::DeadlineExpired,
            "cancelled" => StopReason::Cancelled,
            _ => return None,
        })
    }
}

/// Cooperative cancellation flag shared between a running flow and the
/// code that wants to stop it.
///
/// Clone it (or obtain one from [`Budget::cancel_flag`]), hand the
/// budget to a run, and call [`CancelFlag::cancel`] from any thread;
/// every optimizer loop checks the flag once per iteration, so the run
/// stops within one iteration of the request.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource limits for one optimizer run: iteration cap, evaluation
/// cap, wall-clock deadline, and a cooperative cancellation flag. The
/// default ([`Budget::unlimited`]) imposes nothing.
///
/// Budgets are honored *inside* the optimizer loops: each loop asks the
/// tracker for a stop verdict at the top of every iteration, so a hit
/// limit ends the run within one iteration and still returns the best
/// feasible circuit found so far.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_iterations: Option<usize>,
    max_evaluations: Option<u64>,
    deadline: Option<Duration>,
    cancel: CancelFlag,
}

impl Budget {
    /// No limits: the optimizer runs its configured course.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps the number of optimizer iterations (rounds / generations).
    pub fn with_max_iterations(mut self, n: usize) -> Budget {
        self.max_iterations = Some(n);
        self
    }

    /// Caps the number of candidate evaluations.
    pub fn with_max_evaluations(mut self, n: u64) -> Budget {
        self.max_evaluations = Some(n);
        self
    }

    /// Wall-clock deadline, measured from the start of the optimizer
    /// run.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(d);
        self
    }

    /// Iteration cap, if any.
    pub fn max_iterations(&self) -> Option<usize> {
        self.max_iterations
    }

    /// Evaluation cap, if any.
    pub fn max_evaluations(&self) -> Option<u64> {
        self.max_evaluations
    }

    /// Deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The budget's cancellation flag; clone it to cancel from outside.
    pub fn cancel_flag(&self) -> CancelFlag {
        self.cancel.clone()
    }

    /// Starts wall-clock and evaluation tracking for one run. Called by
    /// optimizer implementations at the top of `optimize`.
    pub fn start_tracking(&self) -> BudgetTracker {
        BudgetTracker {
            max_iterations: self.max_iterations,
            max_evaluations: self.max_evaluations,
            // A deadline too far to represent (e.g. Duration::MAX as
            // "effectively none") is no deadline at all, not a panic.
            deadline: self.deadline.and_then(|d| clock::now().checked_add(d)),
            cancel: self.cancel.clone(),
            evaluations: 0,
        }
    }
}

/// Per-run budget state: evaluation counter plus the deadline resolved
/// against the run's start instant. Obtained from
/// [`Budget::start_tracking`]; optimizer loops feed it evaluations and
/// consult [`BudgetTracker::stop_before_iteration`] once per iteration.
#[derive(Debug)]
pub struct BudgetTracker {
    max_iterations: Option<usize>,
    max_evaluations: Option<u64>,
    deadline: Option<Instant>,
    cancel: CancelFlag,
    evaluations: u64,
}

impl BudgetTracker {
    /// Records `n` candidate evaluations.
    pub fn record_evaluations(&mut self, n: u64) {
        self.evaluations += n;
        tdals_obs::metrics().evaluations.add(n);
    }

    /// Evaluations recorded so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Evaluations left before the [`Budget::with_max_evaluations`] cap
    /// trips; `None` means uncapped. Parallel phases consult this
    /// *before* fanning out, so a tiny budget bounds the work actually
    /// performed — not just the results admitted — and the bound is a
    /// pure function of counts, identical for every thread width.
    pub fn remaining_evaluations(&self) -> Option<u64> {
        self.max_evaluations
            .map(|cap| cap.saturating_sub(self.evaluations))
    }

    /// Bounded-latency interrupt check: cancellation and the wall-clock
    /// deadline only — the stop conditions that may fire *between
    /// per-worker candidate batches*, mid-iteration.
    ///
    /// The deterministic caps (iterations, evaluations) are deliberately
    /// excluded: batch boundaries depend on the thread count, and tying
    /// a deterministic cap to them would break the bit-identical
    /// parallel/sequential equivalence that [`crate::par`] guarantees.
    /// Those caps are enforced in each loop's serial reduction instead.
    pub fn interrupted(&self) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if clock::now() >= deadline {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }

    /// Whether the run may proceed into 0-based iteration `iteration`;
    /// `Some(reason)` means stop now and return the best so far.
    pub fn stop_before_iteration(&self, iteration: usize) -> Option<StopReason> {
        if let Some(reason) = self.interrupted() {
            return Some(reason);
        }
        if let Some(cap) = self.max_evaluations {
            if self.evaluations >= cap {
                return Some(StopReason::EvaluationLimit);
            }
        }
        if let Some(cap) = self.max_iterations {
            if iteration >= cap {
                return Some(StopReason::IterationLimit);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Observation
// ---------------------------------------------------------------------

/// One progress event from a running flow.
///
/// Events are emitted in order; the `iteration` fields are
/// non-decreasing over a run, and exactly one
/// [`FlowEvent::OptimizeFinished`] terminates the optimizer phase
/// (followed by the post-opt pair and [`FlowEvent::FlowFinished`] when
/// running through [`Flow`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowEvent {
    /// The session started: reference numbers of the accurate circuit.
    FlowStarted {
        /// [`Optimizer::name`] of the optimizer about to run.
        optimizer: String,
        /// Logic gate count of the accurate circuit.
        gates: usize,
        /// Accurate critical path delay, ps.
        cpd_ori: f64,
        /// Accurate live area, µm².
        area_ori: f64,
        /// Error metric in force.
        metric: ErrorMetric,
        /// User error budget.
        error_bound: f64,
    },
    /// An optimizer iteration (round, generation) began.
    IterationStarted {
        /// 0-based iteration index.
        iteration: usize,
        /// Error constraint in force this iteration (the relaxed bound
        /// for DCGWO, the full budget for baselines).
        constraint: f64,
    },
    /// A new feasible best circuit was found.
    BestImproved {
        /// Iteration during which the improvement was found.
        iteration: usize,
        /// New best fitness (Eq. 8).
        fitness: f64,
        /// Its error under the configured metric.
        error: f64,
        /// Its logic depth.
        depth: u32,
        /// Its live area, µm².
        area: f64,
    },
    /// A local approximate change was committed to the working netlist
    /// (greedy/HEDALS-style accept-one-per-round methods).
    LacAccepted {
        /// Iteration during which the LAC was accepted.
        iteration: usize,
        /// Exact error after the commit.
        error: f64,
        /// Live area after the commit, µm².
        area: f64,
    },
    /// An optimizer iteration finished.
    IterationFinished {
        /// Per-iteration statistics.
        stats: IterationStats,
    },
    /// The optimizer phase ended. Terminal for [`Optimizer::optimize`]:
    /// emitted exactly once per run, whatever the stop reason.
    OptimizeFinished {
        /// Why the optimizer stopped.
        stop: StopReason,
        /// Candidate evaluations spent.
        evaluations: u64,
    },
    /// Post-optimization (sweep + sizing) began.
    PostOptStarted {
        /// Area constraint in force, µm².
        area_con: f64,
    },
    /// Post-optimization finished.
    PostOptFinished {
        /// Sweep/sizing details.
        report: PostOptReport,
    },
    /// The whole session finished; terminal for [`Flow::run`].
    FlowFinished {
        /// Final `Ratio_cpd`.
        ratio_cpd: f64,
        /// Final measured error.
        error: f64,
        /// Wall-clock runtime, seconds.
        runtime_s: f64,
    },
}

impl FlowEvent {
    /// Stable kebab-case discriminant used as the `kind` field of wire
    /// frames. A compatibility surface like [`StopReason::wire_name`]:
    /// existing tags never change; new variants get new tags.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowEvent::FlowStarted { .. } => "flow-started",
            FlowEvent::IterationStarted { .. } => "iteration-started",
            FlowEvent::BestImproved { .. } => "best-improved",
            FlowEvent::LacAccepted { .. } => "lac-accepted",
            FlowEvent::IterationFinished { .. } => "iteration-finished",
            FlowEvent::OptimizeFinished { .. } => "optimize-finished",
            FlowEvent::PostOptStarted { .. } => "post-opt-started",
            FlowEvent::PostOptFinished { .. } => "post-opt-finished",
            FlowEvent::FlowFinished { .. } => "flow-finished",
        }
    }
}

/// Receives [`FlowEvent`]s from a running flow.
///
/// Implementations must be cheap: events are delivered synchronously
/// from inside the optimizer loop. Use [`NopObserver`] when you don't
/// care, or wrap a closure with [`FnObserver`] (which
/// [`Flow::observe`] does for you).
pub trait Observer {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &FlowEvent);
}

/// Ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopObserver;

impl Observer for NopObserver {
    fn on_event(&mut self, _event: &FlowEvent) {}
}

/// Adapts a closure into an [`Observer`].
#[derive(Debug, Clone)]
pub struct FnObserver<F>(pub F);

impl<F: FnMut(&FlowEvent)> Observer for FnObserver<F> {
    fn on_event(&mut self, event: &FlowEvent) {
        (self.0)(event);
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_event(&mut self, event: &FlowEvent) {
        (**self).on_event(event);
    }
}

impl<O: Observer + ?Sized> Observer for Box<O> {
    fn on_event(&mut self, event: &FlowEvent) {
        (**self).on_event(event);
    }
}

/// Observer wrapper [`Flow::run`] installs around the user's observer:
/// it translates the event stream every optimizer already emits into
/// iteration spans and global counters, so DCGWO and all baselines are
/// instrumented at one site, then forwards each event unchanged.
struct InstrumentedObserver<'o> {
    inner: &'o mut dyn Observer,
    iteration: Option<trace::Span>,
}

impl Observer for InstrumentedObserver<'_> {
    fn on_event(&mut self, event: &FlowEvent) {
        match event {
            FlowEvent::IterationStarted { iteration, .. } => {
                // The closure defers the name allocation until the
                // recorder is known to be on.
                self.iteration = trace::enabled()
                    .then(|| trace::span(trace::cat::ITERATION, format!("iter-{iteration}")));
            }
            FlowEvent::LacAccepted { .. } => {
                tdals_obs::metrics().lacs_accepted.incr();
            }
            // OptimizeFinished also closes the span: an optimizer that
            // stops mid-iteration (budget, cancellation, convergence)
            // never emits the final IterationFinished, and the span
            // must end inside the optimize phase, not wherever this
            // wrapper dies.
            FlowEvent::IterationFinished { .. } | FlowEvent::OptimizeFinished { .. } => {
                self.iteration = None;
            }
            _ => {}
        }
        self.inner.on_event(event);
    }
}

// ---------------------------------------------------------------------
// The Optimizer trait
// ---------------------------------------------------------------------

/// Everything an optimizer run reports back, whichever method ran.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// Highest-fitness circuit observed with error within the full user
    /// budget; the accurate circuit if nothing feasible improved on it.
    pub best: Candidate,
    /// Final population (single-solution methods report just the best).
    pub population: Vec<Candidate>,
    /// Per-iteration statistics for convergence analysis.
    pub history: Vec<IterationStats>,
    /// Candidate evaluations spent.
    pub evaluations: u64,
    /// Why the run ended.
    pub stop: StopReason,
}

/// A pluggable ALS optimizer: anything that searches for an approximate
/// circuit under an error bound on a shared [`EvalContext`].
///
/// DCGWO ([`Dcgwo`]) and all four baselines (`tdals_baselines`'s
/// `Greedy`, `Genetic`, `Hedals`, and [`Dcgwo::single_chase`])
/// implement this trait, so they compose with the same [`Flow`]
/// session, honor the same [`Budget`], and stream the same
/// [`FlowEvent`]s.
pub trait Optimizer {
    /// Short human-readable method name (used in reports and events).
    fn name(&self) -> &str;

    /// Sets the worker-thread count for candidate evaluation (see
    /// [`crate::par`]); `0` means one worker per available core.
    ///
    /// Implementations that fan candidate scoring out over the
    /// deterministic pool honor this knob; the result must be
    /// bit-identical for every thread count. The default is a no-op so
    /// optimizers without a parallel phase remain valid.
    fn set_threads(&mut self, _threads: usize) {}

    /// Runs the search on the accurate circuit held by `ctx` under
    /// `error_bound`, honoring `budget` (checked at least once per
    /// iteration) and streaming progress to `obs`.
    ///
    /// The returned best circuit always satisfies the bound; if no LAC
    /// is ever feasible it is the accurate circuit itself.
    fn optimize(
        &mut self,
        ctx: &EvalContext,
        error_bound: f64,
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> OptimizeOutcome;
}

impl<T: Optimizer + ?Sized> Optimizer for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn set_threads(&mut self, threads: usize) {
        (**self).set_threads(threads);
    }

    fn optimize(
        &mut self,
        ctx: &EvalContext,
        error_bound: f64,
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> OptimizeOutcome {
        (**self).optimize(ctx, error_bound, budget, obs)
    }
}

/// The paper's double-chase grey wolf optimizer (and its single-chase
/// ablation) behind the [`Optimizer`] trait.
#[derive(Debug, Clone)]
pub struct Dcgwo {
    cfg: OptimizerConfig,
}

impl Dcgwo {
    /// The paper's §IV-A configuration (population 30, 20 iterations,
    /// `we` = 0.1 — the ER setting; see [`Dcgwo::paper_for`]).
    pub fn paper() -> Dcgwo {
        Dcgwo {
            cfg: OptimizerConfig::default(),
        }
    }

    /// The paper's configuration with the error weight `we` matched to
    /// the metric (0.1 under ER, 0.2 under NMED).
    pub fn paper_for(metric: ErrorMetric) -> Dcgwo {
        Dcgwo {
            cfg: OptimizerConfig::default().with_level_we(OptimizerConfig::paper_level_we(metric)),
        }
    }

    /// The traditional single-chase GWO baseline.
    pub fn single_chase() -> Dcgwo {
        Dcgwo {
            cfg: OptimizerConfig::default().with_chase(ChaseStrategy::SingleChase),
        }
    }

    /// Wraps an explicit configuration.
    pub fn new(cfg: OptimizerConfig) -> Dcgwo {
        Dcgwo { cfg }
    }

    /// Shrinks population/iterations for demos and tests.
    pub fn quick(mut self, population: usize, iterations: usize) -> Dcgwo {
        self.cfg.population = population;
        self.cfg.iterations = iterations;
        self
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Mutable access to the wrapped configuration.
    pub fn config_mut(&mut self) -> &mut OptimizerConfig {
        &mut self.cfg
    }
}

impl Optimizer for Dcgwo {
    fn name(&self) -> &str {
        match self.cfg.chase {
            ChaseStrategy::DoubleChase => "DCGWO",
            ChaseStrategy::SingleChase => "GWO",
        }
    }

    fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    fn optimize(
        &mut self,
        ctx: &EvalContext,
        error_bound: f64,
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> OptimizeOutcome {
        optimize_session(ctx, error_bound, &self.cfg, budget, obs)
    }
}

// ---------------------------------------------------------------------
// The Flow session
// ---------------------------------------------------------------------

enum Source<'a> {
    Borrowed(&'a Netlist),
    Owned(Box<Netlist>),
    Context(&'a EvalContext),
}

/// Builder-style session for the complete Fig. 2 flow: stimulus +
/// evaluation context construction, one [`Optimizer`] run under a
/// [`Budget`], shared post-optimization, and a unified [`FlowOutcome`]
/// — with optional [`FlowEvent`] streaming along the way.
///
/// ```
/// use tdals_circuits::Benchmark;
/// use tdals_core::api::{Dcgwo, Flow};
/// use tdals_sim::ErrorMetric;
///
/// let accurate = Benchmark::Max16.build();
/// let outcome = Flow::for_netlist(&accurate)
///     .metric(ErrorMetric::Nmed)
///     .error_bound(0.0244)
///     .vectors(1024)
///     .optimizer(Dcgwo::paper_for(ErrorMetric::Nmed).quick(8, 4))
///     .run()
///     .expect("valid configuration");
/// assert!(outcome.error <= 0.0244);
/// ```
pub struct Flow<'a> {
    source: Source<'a>,
    metric: ErrorMetric,
    error_bound: Option<f64>,
    vectors: usize,
    pattern_seed: u64,
    depth_weight: f64,
    timing: TimingConfig,
    area_con: Option<f64>,
    budget: Budget,
    threads: Option<usize>,
    optimizer: Box<dyn Optimizer + 'a>,
    observer: Box<dyn Observer + 'a>,
}

/// Result of one flow session, identical in shape for DCGWO and every
/// baseline.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Final approximate netlist (post-optimized).
    pub netlist: Netlist,
    /// [`Optimizer::name`] of the method that ran.
    pub method: String,
    /// Accurate circuit CPD, ps.
    pub cpd_ori: f64,
    /// Final approximate CPD (`CPD_fac`), ps.
    pub cpd_fac: f64,
    /// `Ratio_cpd = CPD_fac / CPD_ori` (lower is better).
    pub ratio_cpd: f64,
    /// Final measured error (always within the bound).
    pub error: f64,
    /// Final live area, µm².
    pub area: f64,
    /// Area constraint that was enforced.
    pub area_con: f64,
    /// Optimizer outcome: best/population/per-iteration history.
    pub optimize: OptimizeOutcome,
    /// Post-optimization details.
    pub post_opt: PostOptReport,
    /// Wall-clock runtime of the whole session in seconds.
    pub runtime_s: f64,
}

impl FlowOutcome {
    /// Per-iteration convergence history of the optimizer phase.
    pub fn history(&self) -> &[IterationStats] {
        &self.optimize.history
    }

    /// Why the optimizer phase ended.
    pub fn stop(&self) -> StopReason {
        self.optimize.stop
    }
}

impl<'a> Flow<'a> {
    fn with_source(source: Source<'a>) -> Flow<'a> {
        Flow {
            source,
            metric: ErrorMetric::ErrorRate,
            error_bound: None,
            vectors: 4096,
            pattern_seed: 0x7DA15,
            depth_weight: 0.8,
            timing: TimingConfig::default(),
            area_con: None,
            budget: Budget::unlimited(),
            threads: None,
            optimizer: Box::new(Dcgwo::paper()),
            observer: Box::new(NopObserver),
        }
    }

    /// Starts a session on an accurate netlist. Stimulus and evaluation
    /// context are built by [`Flow::run`] from the session's knobs.
    pub fn for_netlist(accurate: &'a Netlist) -> Flow<'a> {
        Flow::with_source(Source::Borrowed(accurate))
    }

    /// Starts a session on structural Verilog text.
    ///
    /// # Errors
    ///
    /// [`FlowError::Verilog`] when the text does not parse.
    pub fn for_verilog(text: &str) -> Result<Flow<'static>, FlowError> {
        let netlist = verilog::parse(text)?;
        Ok(Flow::with_source(Source::Owned(Box::new(netlist))))
    }

    /// Starts a session on a prebuilt [`EvalContext`], reusing its
    /// stimulus, golden output rows, and timing configuration. The
    /// session's own `metric`/`vectors`/`pattern_seed`/`depth_weight`/
    /// `timing` knobs are ignored.
    pub fn for_context(ctx: &'a EvalContext) -> Flow<'a> {
        let mut flow = Flow::with_source(Source::Context(ctx));
        flow.metric = ctx.metric();
        flow
    }

    /// Error metric (ER for random/control circuits, NMED for
    /// arithmetic). Default: ER.
    pub fn metric(mut self, metric: ErrorMetric) -> Flow<'a> {
        self.metric = metric;
        self
    }

    /// User error budget under the configured metric. Required.
    pub fn error_bound(mut self, bound: f64) -> Flow<'a> {
        self.error_bound = Some(bound);
        self
    }

    /// Monte-Carlo vectors per evaluation. Default: 4096 (the paper's
    /// setting).
    pub fn vectors(mut self, vectors: usize) -> Flow<'a> {
        self.vectors = vectors;
        self
    }

    /// Stimulus seed. Default: `0x7DA15`.
    pub fn pattern_seed(mut self, seed: u64) -> Flow<'a> {
        self.pattern_seed = seed;
        self
    }

    /// Depth weight `wd` of the fitness (Eq. 8). Default: 0.8.
    pub fn depth_weight(mut self, wd: f64) -> Flow<'a> {
        self.depth_weight = wd;
        self
    }

    /// Timing parasitics for every STA call. Default:
    /// [`TimingConfig::default`].
    pub fn timing(mut self, timing: TimingConfig) -> Flow<'a> {
        self.timing = timing;
        self
    }

    /// Area constraint for post-optimization; `None` (the default)
    /// means the accurate circuit's area (the TABLE II/III setting).
    pub fn area_constraint(mut self, area_con: impl Into<Option<f64>>) -> Flow<'a> {
        self.area_con = area_con.into();
        self
    }

    /// Resource budget for the optimizer phase. Default: unlimited.
    pub fn budget(mut self, budget: Budget) -> Flow<'a> {
        self.budget = budget;
        self
    }

    /// Worker threads for candidate evaluation: fans the optimizer's
    /// scoring phases out over the deterministic pool ([`crate::par`]).
    /// `0` means one worker per available core. The [`FlowOutcome`] is
    /// bit-identical for every thread count; event emission stays
    /// single-threaded and monotone.
    ///
    /// Default: whatever the optimizer's own configuration says (the
    /// stock configurations evaluate inline on one thread).
    pub fn threads(mut self, threads: usize) -> Flow<'a> {
        self.threads = Some(threads);
        self
    }

    /// The optimizer to run. Default: [`Dcgwo::paper`].
    pub fn optimizer(mut self, optimizer: impl Optimizer + 'a) -> Flow<'a> {
        self.optimizer = Box::new(optimizer);
        self
    }

    /// Streams [`FlowEvent`]s to a closure (or any [`Observer`]).
    pub fn observe(mut self, observer: impl FnMut(&FlowEvent) + 'a) -> Flow<'a> {
        self.observer = Box::new(FnObserver(observer));
        self
    }

    /// Streams [`FlowEvent`]s to an [`Observer`] implementation.
    pub fn observer(mut self, observer: impl Observer + 'a) -> Flow<'a> {
        self.observer = Box::new(observer);
        self
    }

    /// Runs the complete flow: context construction, the optimizer
    /// under the session budget, and post-optimization.
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingErrorBound`] /
    /// [`FlowError::InvalidErrorBound`] for absent or out-of-range
    /// bounds, [`FlowError::EmptyNetlist`] for netlists without PIs or
    /// POs, [`FlowError::InvalidDepthWeight`] and [`FlowError::NoVectors`]
    /// for bad evaluation knobs.
    pub fn run(self) -> Result<FlowOutcome, FlowError> {
        let Flow {
            source,
            metric,
            error_bound,
            vectors,
            pattern_seed,
            depth_weight,
            timing,
            area_con,
            budget,
            threads,
            mut optimizer,
            mut observer,
        } = self;
        if let Some(threads) = threads {
            optimizer.set_threads(threads);
        }
        let start = clock::now();
        let bound = error_bound.ok_or(FlowError::MissingErrorBound)?;
        if !(0.0..=1.0).contains(&bound) {
            // NaN fails the range check too.
            return Err(FlowError::InvalidErrorBound { bound });
        }

        // The outermost span; phases and iterations nest inside it.
        let _flow_span = trace::span(trace::cat::FLOW, optimizer.name());
        let setup_span = trace::span(trace::cat::PHASE, "setup");
        let built;
        let ctx: &EvalContext = match &source {
            Source::Context(ctx) => ctx,
            Source::Borrowed(netlist) => {
                built =
                    build_context(netlist, metric, vectors, pattern_seed, depth_weight, timing)?;
                &built
            }
            Source::Owned(netlist) => {
                built =
                    build_context(netlist, metric, vectors, pattern_seed, depth_weight, timing)?;
                &built
            }
        };

        drop(setup_span);

        let mut instrumented = InstrumentedObserver {
            inner: &mut *observer,
            iteration: None,
        };
        let obs: &mut dyn Observer = &mut instrumented;
        obs.on_event(&FlowEvent::FlowStarted {
            optimizer: optimizer.name().to_owned(),
            gates: ctx.accurate().logic_gate_count(),
            cpd_ori: ctx.cpd_ori(),
            area_ori: ctx.area_ori(),
            metric: ctx.metric(),
            error_bound: bound,
        });
        let optimize_span = trace::span(trace::cat::PHASE, "optimize")
            .arg("gates", ctx.accurate().logic_gate_count() as u64);
        let outcome = optimizer.optimize(ctx, bound, &budget, obs);
        drop(optimize_span);

        let mut netlist = outcome.best.netlist.clone();
        let area_con = area_con.unwrap_or_else(|| ctx.area_ori());
        obs.on_event(&FlowEvent::PostOptStarted { area_con });
        let post_opt_span = trace::span(trace::cat::PHASE, "post-opt");
        let post_opt = post_optimize(&mut netlist, ctx.timing(), &PostOptConfig::new(area_con));
        drop(post_opt_span);
        obs.on_event(&FlowEvent::PostOptFinished { report: post_opt });
        #[cfg(debug_assertions)]
        {
            let report = tdals_lint::lint_netlist(&netlist);
            debug_assert!(
                report.has_no_errors(),
                "flow produced a structurally invalid netlist after post-optimization:\n{report}"
            );
        }

        let cpd_ori = ctx.cpd_ori();
        let cpd_fac = post_opt.cpd_final;
        let ratio_cpd = cpd_fac / cpd_ori.max(1e-9);
        // Error is invariant under post-optimization (sweep + sizing
        // are function-preserving), but re-measure for the report.
        let error = ctx.evaluator().error_of(&netlist);
        let runtime_s = start.elapsed().as_secs_f64();
        obs.on_event(&FlowEvent::FlowFinished {
            ratio_cpd,
            error,
            runtime_s,
        });
        Ok(FlowOutcome {
            method: optimizer.name().to_owned(),
            cpd_ori,
            cpd_fac,
            ratio_cpd,
            error,
            area: netlist.area_live(),
            area_con,
            optimize: outcome,
            post_opt,
            runtime_s,
            netlist,
        })
    }
}

fn build_context(
    netlist: &Netlist,
    metric: ErrorMetric,
    vectors: usize,
    pattern_seed: u64,
    depth_weight: f64,
    timing: TimingConfig,
) -> Result<EvalContext, FlowError> {
    if netlist.input_count() == 0 || netlist.output_count() == 0 {
        return Err(FlowError::EmptyNetlist {
            name: netlist.name().to_owned(),
        });
    }
    if vectors == 0 {
        return Err(FlowError::NoVectors);
    }
    if !(0.0..=1.0).contains(&depth_weight) {
        return Err(FlowError::InvalidDepthWeight {
            weight: depth_weight,
        });
    }
    let patterns = Patterns::random(netlist.input_count(), vectors, pattern_seed);
    Ok(EvalContext::new(
        netlist,
        patterns,
        metric,
        timing,
        depth_weight,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;

    fn adder() -> Netlist {
        let mut b = Builder::new("add6");
        let a = b.inputs("a", 6);
        let x = b.inputs("b", 6);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        b.finish()
    }

    fn quick_dcgwo() -> Dcgwo {
        Dcgwo::paper().quick(8, 6)
    }

    #[test]
    fn flow_session_runs_end_to_end() {
        let n = adder();
        let outcome = Flow::for_netlist(&n)
            .error_bound(0.08)
            .vectors(1024)
            .optimizer(quick_dcgwo())
            .run()
            .expect("valid session");
        assert!(outcome.error <= 0.08 + 1e-12);
        assert!(outcome.ratio_cpd <= 1.0 + 1e-9);
        assert!(outcome.area <= outcome.area_con + 1e-9);
        assert_eq!(outcome.method, "DCGWO");
        assert_eq!(outcome.stop(), StopReason::Completed);
        assert!(outcome.optimize.evaluations > 0);
        outcome.netlist.check_invariants().expect("valid netlist");
    }

    #[test]
    fn flow_under_nmed() {
        let n = adder();
        let outcome = Flow::for_netlist(&n)
            .metric(ErrorMetric::Nmed)
            .error_bound(0.02)
            .vectors(1024)
            .optimizer(Dcgwo::paper_for(ErrorMetric::Nmed).quick(8, 6))
            .run()
            .expect("valid session");
        assert!(outcome.error <= 0.02 + 1e-12);
        assert!(outcome.ratio_cpd <= 1.0 + 1e-9);
    }

    #[test]
    fn single_chase_flow_runs() {
        let n = adder();
        let outcome = Flow::for_netlist(&n)
            .error_bound(0.08)
            .vectors(1024)
            .optimizer(Dcgwo::single_chase().quick(8, 6))
            .run()
            .expect("valid session");
        assert!(outcome.error <= 0.08 + 1e-12);
    }

    #[test]
    fn stop_reason_wire_names_round_trip() {
        for reason in [
            StopReason::Completed,
            StopReason::IterationLimit,
            StopReason::EvaluationLimit,
            StopReason::DeadlineExpired,
            StopReason::Cancelled,
        ] {
            assert_eq!(
                StopReason::parse_wire_name(reason.wire_name()),
                Some(reason)
            );
        }
        assert_eq!(StopReason::parse_wire_name("iteration limit"), None);
    }

    #[test]
    fn missing_bound_is_an_error() {
        let n = adder();
        let err = Flow::for_netlist(&n).run().unwrap_err();
        assert_eq!(err, FlowError::MissingErrorBound);
    }

    #[test]
    fn bad_bounds_are_typed_errors() {
        let n = adder();
        for bad in [f64::NAN, -0.1, 1.5] {
            let err = Flow::for_netlist(&n).error_bound(bad).run().unwrap_err();
            assert!(
                matches!(err, FlowError::InvalidErrorBound { .. }),
                "bound {bad}: {err}"
            );
        }
    }

    #[test]
    fn empty_netlist_is_a_typed_error() {
        let empty = Netlist::new("void");
        let err = Flow::for_netlist(&empty)
            .error_bound(0.05)
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::EmptyNetlist { .. }));
    }

    #[test]
    fn bad_verilog_is_a_typed_error() {
        let err = Flow::for_verilog("module oops(")
            .err()
            .expect("parse must fail");
        assert!(matches!(err, FlowError::Verilog(_)));
    }

    #[test]
    fn verilog_source_runs() {
        let n = adder();
        let text = verilog::to_verilog(&n);
        let outcome = Flow::for_verilog(&text)
            .expect("round-trip parses")
            .error_bound(0.08)
            .vectors(512)
            .optimizer(Dcgwo::paper().quick(6, 3))
            .run()
            .expect("valid session");
        assert!(outcome.error <= 0.08 + 1e-12);
    }

    #[test]
    fn depth_weight_and_vectors_are_validated() {
        let n = adder();
        let err = Flow::for_netlist(&n)
            .error_bound(0.05)
            .depth_weight(1.5)
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidDepthWeight { .. }));
        let err = Flow::for_netlist(&n)
            .error_bound(0.05)
            .vectors(0)
            .run()
            .unwrap_err();
        assert_eq!(err, FlowError::NoVectors);
    }

    #[test]
    fn iteration_budget_stops_early() {
        let n = adder();
        let outcome = Flow::for_netlist(&n)
            .error_bound(0.08)
            .vectors(512)
            .optimizer(quick_dcgwo())
            .budget(Budget::unlimited().with_max_iterations(2))
            .run()
            .expect("valid session");
        assert_eq!(outcome.stop(), StopReason::IterationLimit);
        assert_eq!(outcome.history().len(), 2);
        assert!(outcome.error <= 0.08 + 1e-12, "best is still feasible");
    }

    #[test]
    fn evaluation_budget_stops_early() {
        let n = adder();
        let outcome = Flow::for_netlist(&n)
            .error_bound(0.08)
            .vectors(512)
            .optimizer(quick_dcgwo())
            .budget(Budget::unlimited().with_max_evaluations(10))
            .run()
            .expect("valid session");
        assert_eq!(outcome.stop(), StopReason::EvaluationLimit);
        assert!(outcome.history().len() < 6);
    }

    #[test]
    fn pre_cancelled_budget_runs_no_iterations() {
        let n = adder();
        let budget = Budget::unlimited();
        budget.cancel_flag().cancel();
        let outcome = Flow::for_netlist(&n)
            .error_bound(0.08)
            .vectors(512)
            .optimizer(quick_dcgwo())
            .budget(budget)
            .run()
            .expect("valid session");
        assert_eq!(outcome.stop(), StopReason::Cancelled);
        assert!(outcome.history().is_empty());
        // Even a cancelled run reports a feasible best: the accurate
        // circuit anchors the search.
        assert!(outcome.error <= 0.08 + 1e-12);
    }

    #[test]
    fn observed_events_bracket_the_run() {
        let n = adder();
        let mut events: Vec<String> = Vec::new();
        let outcome = Flow::for_netlist(&n)
            .error_bound(0.08)
            .vectors(512)
            .optimizer(quick_dcgwo())
            .observe(|ev: &FlowEvent| {
                events.push(match ev {
                    FlowEvent::FlowStarted { .. } => "start".into(),
                    FlowEvent::OptimizeFinished { .. } => "opt-done".into(),
                    FlowEvent::FlowFinished { .. } => "done".into(),
                    _ => "mid".into(),
                });
            })
            .run()
            .expect("valid session");
        assert_eq!(events.first().map(String::as_str), Some("start"));
        assert_eq!(events.last().map(String::as_str), Some("done"));
        assert_eq!(events.iter().filter(|e| *e == "opt-done").count(), 1);
        assert!(outcome.ratio_cpd <= 1.0 + 1e-9);
    }

    #[test]
    fn stop_reasons_display() {
        assert_eq!(StopReason::Completed.to_string(), "completed");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
    }
}
