//! Parallel-vs-sequential equivalence harness.
//!
//! The deterministic worker pool (`tdals::core::par`) promises that a
//! flow returns a **bit-identical** [`FlowOutcome`] for every thread
//! count — same best fitness, same measured error, same gate-for-gate
//! netlist, same evaluation count, same event sequence. This suite
//! holds every method to that promise across thread counts {1, 2, 8}
//! (`TDALS_THREADS=N` narrows the comparison set to {N}, which the CI
//! matrix job uses to give each leg one distinct width), pinned seeds,
//! and randomized proptest seeds, with and without deterministic
//! budgets.
//!
//! The digest compares the *entire observable surface* of a run: the
//! outcome's numbers, the final netlists, the per-iteration history,
//! and the full event stream with the only wall-clock field
//! (`FlowFinished::runtime_s`) stripped.

use std::cell::RefCell;

use proptest::prelude::*;
use tdals::baselines::{Method, MethodConfig, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{Budget, Flow, FlowEvent, StopReason};
use tdals::core::par::poll_batch;
use tdals::core::{EvalContext, IterationStats};
use tdals::netlist::Netlist;
use tdals::sim::{ErrorMetric, Patterns};
use tdals::sta::TimingConfig;

fn quick_ctx() -> EvalContext {
    let accurate = Benchmark::Int2float.build();
    EvalContext::new(
        &accurate,
        Patterns::random(accurate.input_count(), 512, 7),
        ErrorMetric::ErrorRate,
        TimingConfig::default(),
        0.8,
    )
}

/// Population of a method's runs. DCGWO and GWO score their offspring,
/// one per member, in batches of `par::poll_batch(threads)`, and every
/// worker keeps one recycled scoring base across batches. Their
/// population is `poll_batch(8) + 2` = 34: at every width up to 8 the
/// offspring outnumber a batch, so a base serves search children of at
/// least two batches, the leader's search child (always the last
/// offspring) among them. `run_digest` fails a width whose batch would
/// hold every child. The other methods keep a small population.
fn population(method: Method) -> usize {
    match method {
        Method::Dcgwo | Method::SingleChaseGwo => 34,
        _ => 6,
    }
}

fn quick_cfg(method: Method, seed: u64, threads: usize) -> MethodConfig {
    MethodConfig::default()
        .with_population(population(method))
        .with_iterations(3)
        .with_seed(seed)
        .with_threads(threads)
}

/// Thread counts under test: the pinned {1, 2, 8} set, plus whatever
/// width the CI matrix passes via `TDALS_THREADS`.
///
/// Each run is always compared against a fresh sequential baseline.
/// Without `TDALS_THREADS` the comparison widths are {1, 2, 8} — width
/// 1 makes the harness prove *run-to-run* determinism (two sequential
/// runs, equal digests), not just cross-width equivalence. With
/// `TDALS_THREADS=N` the comparison set is exactly {N}, so each CI
/// matrix leg proves one distinct claim (the `1` leg: sequential
/// reproducibility on that runner; the `4` leg: 4-worker equivalence)
/// instead of re-running a subset of another leg's work.
fn comparison_widths() -> Vec<usize> {
    match std::env::var("TDALS_THREADS")
        .ok()
        .and_then(|raw| raw.parse::<usize>().ok())
    {
        Some(n) if n > 0 => vec![n],
        _ => vec![1, 2, 8],
    }
}

/// A comparable fingerprint of one event; `{:?}` on `f64` prints the
/// shortest round-trip representation, so two keys compare equal iff
/// the underlying values are bit-identical (modulo `-0.0`, which none
/// of these quantities produce).
fn event_key(ev: &FlowEvent) -> String {
    match ev {
        FlowEvent::FlowStarted {
            optimizer,
            gates,
            cpd_ori,
            area_ori,
            metric,
            error_bound,
        } => {
            format!("start {optimizer} {gates} {cpd_ori:?} {area_ori:?} {metric:?} {error_bound:?}")
        }
        FlowEvent::IterationStarted {
            iteration,
            constraint,
        } => format!("iter-start {iteration} {constraint:?}"),
        FlowEvent::BestImproved {
            iteration,
            fitness,
            error,
            depth,
            area,
        } => format!("best {iteration} {fitness:?} {error:?} {depth} {area:?}"),
        FlowEvent::LacAccepted {
            iteration,
            error,
            area,
        } => format!("lac {iteration} {error:?} {area:?}"),
        FlowEvent::IterationFinished { stats } => format!("iter-done {stats:?}"),
        FlowEvent::OptimizeFinished { stop, evaluations } => {
            format!("opt-done {stop:?} {evaluations}")
        }
        FlowEvent::PostOptStarted { area_con } => format!("post-start {area_con:?}"),
        FlowEvent::PostOptFinished { report } => format!("post-done {report:?}"),
        // runtime_s is the one wall-clock field in the stream: strip it.
        FlowEvent::FlowFinished {
            ratio_cpd, error, ..
        } => format!("done {ratio_cpd:?} {error:?}"),
        other => format!("other {other:?}"),
    }
}

/// Everything observable about one run that must not depend on the
/// thread count.
#[derive(Debug, PartialEq)]
struct RunDigest {
    method: String,
    final_netlist: Netlist,
    best_netlist: Netlist,
    best_fitness: f64,
    error: f64,
    area: f64,
    ratio_cpd: f64,
    gate_count: usize,
    evaluations: u64,
    stop: StopReason,
    history: Vec<IterationStats>,
    events: Vec<String>,
}

fn run_digest(
    ctx: &EvalContext,
    method: Method,
    seed: u64,
    threads: usize,
    budget: Budget,
) -> RunDigest {
    if matches!(method, Method::Dcgwo | Method::SingleChaseGwo) && threads != 0 {
        assert!(
            population(method) > poll_batch(threads),
            "{method}: {} offspring fit one batch at {threads} worker(s)",
            population(method)
        );
    }
    let events: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let outcome = Flow::for_context(ctx)
        .error_bound(0.05)
        .budget(budget)
        .optimizer(method.optimizer(&quick_cfg(method, seed, threads)))
        .observe(|ev: &FlowEvent| events.borrow_mut().push(event_key(ev)))
        .run()
        .expect("valid session");
    RunDigest {
        method: outcome.method.clone(),
        gate_count: outcome.netlist.logic_gate_count(),
        best_fitness: outcome.optimize.best.fitness,
        best_netlist: outcome.optimize.best.netlist.clone(),
        error: outcome.error,
        area: outcome.area,
        ratio_cpd: outcome.ratio_cpd,
        evaluations: outcome.optimize.evaluations,
        stop: outcome.stop(),
        history: outcome.optimize.history.clone(),
        final_netlist: outcome.netlist,
        events: events.into_inner(),
    }
}

#[test]
fn all_five_methods_are_bit_identical_across_thread_counts() {
    let ctx = quick_ctx();
    for method in ALL_METHODS {
        let sequential = run_digest(&ctx, method, 11, 1, Budget::unlimited());
        assert_eq!(sequential.stop, StopReason::Completed, "{method}");
        for threads in comparison_widths() {
            let parallel = run_digest(&ctx, method, 11, threads, Budget::unlimited());
            assert_eq!(
                sequential, parallel,
                "{method}: {threads} worker(s) diverged from the sequential baseline"
            );
        }
    }
}

#[test]
fn auto_thread_count_matches_sequential() {
    // `threads == 0` resolves to the host's available parallelism —
    // whatever that is, the outcome must not change.
    let ctx = quick_ctx();
    for method in [Method::Dcgwo, Method::Hedals] {
        let sequential = run_digest(&ctx, method, 23, 1, Budget::unlimited());
        let auto = run_digest(&ctx, method, 23, 0, Budget::unlimited());
        assert_eq!(sequential, auto, "{method}: auto width diverged");
    }
}

#[test]
fn deterministic_budgets_stop_identically_at_any_width() {
    // Evaluation and iteration caps are enforced in each loop's serial
    // reduction, per candidate in index order — never at thread-count-
    // dependent batch boundaries — so a budgeted run stops at the very
    // same candidate for every width.
    //
    // The evaluation cap, population + 4, lies past seeding (the anchor
    // and population - 1 members), so the first iteration's chase and
    // offspring pass run under the cap before it stops the run.
    let ctx = quick_ctx();
    for method in ALL_METHODS {
        let max_evaluations = population(method) as u64 + 4;
        for (budget, evaluation_capped) in [
            (
                Budget::unlimited().with_max_evaluations(max_evaluations),
                true,
            ),
            (Budget::unlimited().with_max_iterations(1), false),
        ] {
            let sequential = run_digest(&ctx, method, 5, 1, budget.clone());
            if evaluation_capped {
                assert_eq!(sequential.stop, StopReason::EvaluationLimit, "{method}");
                assert!(
                    !sequential.history.is_empty(),
                    "{method}: evaluation cap stopped the run during seeding"
                );
            }
            let parallel = run_digest(&ctx, method, 5, 8, budget);
            assert_eq!(
                sequential, parallel,
                "{method}: budgeted run diverged at 8 workers"
            );
        }
    }
}

#[test]
fn flow_threads_knob_matches_config_knob() {
    // `Flow::threads(n)` reaches the optimizer through
    // `Optimizer::set_threads`, and lands on the same code path as
    // configuring the method directly.
    let ctx = quick_ctx();
    let via_config = run_digest(&ctx, Method::Dcgwo, 31, 8, Budget::unlimited());
    let events: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let outcome = Flow::for_context(&ctx)
        .error_bound(0.05)
        .optimizer(Method::Dcgwo.optimizer(&quick_cfg(Method::Dcgwo, 31, 1)))
        .threads(8)
        .observe(|ev: &FlowEvent| events.borrow_mut().push(event_key(ev)))
        .run()
        .expect("valid session");
    assert_eq!(outcome.netlist, via_config.final_netlist);
    assert_eq!(outcome.optimize.evaluations, via_config.evaluations);
    assert_eq!(events.into_inner(), via_config.events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized corner of the acceptance criterion: any method, any
    /// seed, 1 worker vs 4 workers — the digests are equal.
    #[test]
    fn equivalence_holds_for_random_seeds(seed in 0u64..1000, method_idx in 0usize..5) {
        let ctx = quick_ctx();
        let method = ALL_METHODS[method_idx];
        let sequential = run_digest(&ctx, method, seed, 1, Budget::unlimited());
        let parallel = run_digest(&ctx, method, seed, 4, Budget::unlimited());
        prop_assert_eq!(sequential, parallel);
    }
}
