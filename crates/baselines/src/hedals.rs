//! HEDALS-style **depth-driven** ALS ([`Hedals`]).
//!
//! HEDALS (Meng et al., TCAD'23) drives LAC selection by critical-path
//! depth: it maintains the timing-critical region (via its critical
//! error graph) and repeatedly commits the substitution that buys the
//! most depth reduction per unit of *estimated* error. Crucially, the
//! real HEDALS ranks candidates with a cheap local error estimate and
//! only validates committed moves ("strictly control the introduced
//! errors"); it cannot afford an exact re-simulation per candidate.
//! This re-implementation mirrors that structure on this workspace's
//! substrate:
//!
//! * candidates come only from the worst-PO paths;
//! * each candidate is scored by `(Δdepth, Δcpd)` from STA against a
//!   **cheap probe estimate** of its error — a Monte-Carlo measurement
//!   at one eighth of the full vector budget, the "efficiency–accuracy
//!   configurable" trade VECBEE/HEDALS make for candidate ranking;
//! * the single committed move per round is validated at full
//!   resolution and rolled back (and blacklisted) if it violates the
//!   budget.
//!
//! Everything is scored on the shared incremental engine, with two
//! engines of the current netlist: a full-vector
//! [`DeltaEval`](tdals_core::DeltaEval) supplies the switch-selection
//! words, the timing (targets, and each candidate's by an STA cone
//! preview) and the exact validation by a cone preview of the outputs;
//! a probe-pattern [`DeltaSim`] previews the estimates. Each committed
//! winner goes into both. Every number equals a full evaluation of the
//! substituted netlist bit for bit.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdals_core::api::{Budget, FlowEvent, Observer, OptimizeOutcome, Optimizer, StopReason};
use tdals_core::{collect_targets, par, select_switch, EvalContext, Lac, SearchScratch};
use tdals_sim::{DeltaSim, ErrorEvaluator, Patterns, PreviewScratch};

use crate::{preview_error, round_stats};

/// Worst-PO paths feeding the candidate set each round.
const PATH_COUNT: usize = 3;

/// Tunables for [`Hedals`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedalsConfig {
    /// Cap on applied LACs.
    pub max_rounds: usize,
    /// RNG seed (used for fan-in sampling in the target set).
    pub seed: u64,
    /// Worker threads for candidate scoring; `1` evaluates inline, `0`
    /// means one worker per available core. Results are bit-identical
    /// for any thread count (see [`tdals_core::par`]).
    pub threads: usize,
}

impl Default for HedalsConfig {
    fn default() -> HedalsConfig {
        HedalsConfig {
            max_rounds: 200,
            seed: 0x4EDA,
            threads: 1,
        }
    }
}

/// The probe evaluator: `ctx`'s metric on one eighth of its vectors
/// (at least 256), a different stimulus draw (candidate ranking only).
pub(crate) fn probe_evaluator(ctx: &EvalContext, seed: u64) -> ErrorEvaluator {
    let probe_vectors = (ctx.evaluator().patterns().vector_count() / 8).max(256);
    ErrorEvaluator::new(
        ctx.accurate(),
        Patterns::random(ctx.accurate().input_count(), probe_vectors, seed ^ 0x9E37),
        ctx.metric(),
    )
}

/// The probe engine of the accurate circuit: one full simulation on
/// `probe`'s stimulus.
pub(crate) fn probe_engine(ctx: &EvalContext, probe: &ErrorEvaluator) -> DeltaSim {
    DeltaSim::new(ctx.accurate().clone(), probe.patterns())
}

/// HEDALS-style depth-driven ALS behind the [`Optimizer`] trait.
///
/// Each round scores every critical-path target's best-similarity
/// substitution by `(Δdepth, Δcpd)` per *estimated* error and commits
/// the winner after exact validation; the loop stops when no
/// critical-path LAC fits the error budget or none improves timing. A
/// [`Budget`] is honored at every round boundary, and each validated
/// commit streams one [`FlowEvent::LacAccepted`].
#[derive(Debug, Clone, Default)]
pub struct Hedals {
    cfg: HedalsConfig,
}

impl Hedals {
    /// Wraps an explicit configuration.
    pub fn new(cfg: HedalsConfig) -> Hedals {
        Hedals { cfg }
    }
}

impl Optimizer for Hedals {
    fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    fn name(&self) -> &str {
        "HEDALS"
    }

    fn optimize(
        &mut self,
        ctx: &EvalContext,
        error_bound: f64,
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> OptimizeOutcome {
        let cfg = &self.cfg;
        let mut tracker = budget.start_tracking();
        let mut stop = StopReason::Completed;
        let mut history = Vec::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let threads = par::resolve_threads(cfg.threads);
        let mut blacklist: HashSet<Lac> = HashSet::new();
        let probe = probe_evaluator(ctx, cfg.seed);
        let mut base = ctx.delta_eval(ctx.accurate().clone());
        let mut probe_sim = probe_engine(ctx, &probe);
        // Per-worker overlay rows of the probe previews, those of the
        // serial validation previews, and the marks of the serial switch
        // selection.
        let mut previews: Vec<PreviewScratch> = Vec::new();
        let mut validation = PreviewScratch::default();
        let mut search = SearchScratch::default();

        for round in 0..cfg.max_rounds {
            if let Some(reason) = tracker.stop_before_iteration(round) {
                stop = reason;
                break;
            }
            obs.on_event(&FlowEvent::IterationStarted {
                iteration: round,
                constraint: error_bound,
            });
            let (depth_now, cpd_now, targets) = {
                let (sta, netlist) = (base.sta(), base.netlist());
                (
                    sta.max_depth(netlist),
                    sta.critical_path_delay(netlist),
                    collect_targets(netlist, &*sta, PATH_COUNT, &mut rng),
                )
            };
            if targets.is_empty() {
                break;
            }

            // Serial draft phase: switch selection draws from the
            // round's shared RNG stream in target order (no draw depends
            // on a candidate's evaluation).
            let mut drafts: Vec<Lac> = Vec::new();
            for target in targets {
                let Some(lac) = select_switch(
                    base.netlist(),
                    base.sim(),
                    target,
                    usize::MAX,
                    &mut search,
                    &mut rng,
                ) else {
                    continue;
                };
                if !blacklist.contains(&lac) {
                    drafts.push(lac);
                }
            }
            // Parallel probe phase: each worker previews its drafts'
            // cones on the probe engine in its own overlay rows; the
            // estimates come back in draft order.
            let evaluated = par::par_map_batched_with(
                threads,
                &mut previews,
                drafts,
                |scratch, lac| (lac, preview_error(&probe, &probe_sim, lac, scratch)),
                || tracker.interrupted().is_none(),
            );
            tracker.record_evaluations(evaluated.results.len() as u64);
            if !evaluated.completed {
                stop = tracker
                    .interrupted()
                    .expect("aborted batches imply a sticky interrupt");
                break;
            }

            // Rank estimate-feasible candidates by timing gain per
            // estimated error; their STA cone previews run serially on
            // the base's one timing engine, in draft order.
            struct Scored {
                lac: Lac,
                score: f64,
                /// Depth of the substituted netlist, kept from the
                /// scoring STA so the committed round's stats need no
                /// re-analysis.
                depth: u32,
            }
            let mut scored: Vec<Scored> = Vec::new();
            for (lac, est_err) in evaluated.results {
                if est_err > error_bound {
                    continue;
                }
                let timing = base.preview_timing(lac.target(), lac.switch());
                let depth_gain = f64::from(depth_now) - f64::from(timing.max_depth());
                let cpd_gain = cpd_now - timing.critical_path_delay();
                if depth_gain <= 0.0 && cpd_gain <= 0.0 {
                    continue;
                }
                scored.push(Scored {
                    lac,
                    score: (depth_gain * 1e3 + cpd_gain) / est_err.max(1e-6),
                    depth: timing.max_depth(),
                });
            }
            // Stable sort: tied scores keep draft order, so the ranking
            // is identical for every thread count.
            scored.sort_by(|a, b| b.score.total_cmp(&a.score));

            // Commit the best candidate that survives exact validation.
            let probe_feasible = scored.len();
            let mut rejected = 0usize;
            let mut committed: Option<(u32, f64)> = None;
            for cand in scored {
                let (target, switch) = (cand.lac.target(), cand.lac.switch());
                let exact = preview_error(ctx.evaluator(), base.sim(), cand.lac, &mut validation);
                tracker.record_evaluations(1);
                if exact <= error_bound {
                    let area = base.fresh_area_after(target, switch);
                    base.commit(target, switch).expect("legal LAC");
                    probe_sim.substitute(target, switch).expect("legal LAC");
                    committed = Some((cand.depth, area));
                    obs.on_event(&FlowEvent::LacAccepted {
                        iteration: round,
                        error: exact,
                        area,
                    });
                    break;
                }
                blacklist.insert(cand.lac);
                rejected += 1;
            }
            let Some((depth, area)) = committed else {
                break;
            };
            // Probe-feasible candidates net of the exact-validation
            // rejections observed this round (the commit itself is
            // exact-feasible) — the closest exact count available
            // without validating every candidate.
            let feasible = probe_feasible - rejected;
            let stats = round_stats(ctx, round, error_bound, feasible, depth, area);
            history.push(stats);
            obs.on_event(&FlowEvent::IterationFinished { stats });
        }

        base.recount();
        let best = ctx.evaluate_base(&base);
        tracker.record_evaluations(1);
        obs.on_event(&FlowEvent::OptimizeFinished {
            stop,
            evaluations: tracker.evaluations(),
        });
        OptimizeOutcome {
            population: vec![best.clone()],
            best,
            history,
            evaluations: tracker.evaluations(),
            stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{adder_ctx, optimize};

    #[test]
    fn depth_driven_shortens_critical_path() {
        let ctx = adder_ctx();
        let bound = 0.05;
        let approx = optimize(&ctx, bound, Hedals::default()).best.netlist;
        approx.check_invariants().expect("valid");
        assert!(ctx.evaluator().error_of(&approx) <= bound + 1e-12);
        let depth = ctx.analyze(&approx).max_depth();
        assert!(
            depth < ctx.depth_ori(),
            "depth {depth} vs accurate {}",
            ctx.depth_ori()
        );
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let ctx = adder_ctx();
        let approx = optimize(&ctx, 0.0, Hedals::default()).best.netlist;
        assert_eq!(ctx.evaluator().error_of(&approx), 0.0);
        assert_eq!(ctx.analyze(&approx).max_depth(), ctx.depth_ori());
    }

    #[test]
    fn committed_moves_are_always_validated() {
        // Whatever the estimates said, the final circuit must satisfy
        // the exact error bound.
        let ctx = adder_ctx();
        for bound in [0.005, 0.02, 0.08] {
            let approx = optimize(&ctx, bound, Hedals::default()).best.netlist;
            assert!(
                ctx.evaluator().error_of(&approx) <= bound + 1e-12,
                "bound {bound}"
            );
        }
    }
}
