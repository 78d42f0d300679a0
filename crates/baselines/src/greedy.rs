//! VECBEE-SASIMI-style greedy **area-driven** ALS ([`Greedy`]).
//!
//! The reference method (Su et al., TCAD'22 + the SASIMI LAC family)
//! iteratively applies the substitution with the best area-reduction
//! potential per unit of introduced error, using Monte-Carlo batch error
//! estimation, until the error budget is exhausted. It does not look at
//! timing at all — the paper's point is that pure area reduction leaves
//! critical-path delay on the table even after post-optimization.
//!
//! Candidates are scored on the shared incremental engine: one
//! [`DeltaEval`](tdals_core::DeltaEval) of the current netlist supplies
//! the targets (its liveness), the switch-selection words, each
//! candidate's error by a cone preview of its outputs, and its fresh
//! live area; the winner is committed into it. Every number equals a
//! full evaluation of the substituted netlist bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_core::api::{Budget, FlowEvent, Observer, OptimizeOutcome, Optimizer, StopReason};
use tdals_core::{par, select_switch, EvalContext, Lac, SearchScratch};
use tdals_netlist::GateId;
use tdals_sim::PreviewScratch;

use crate::{preview_error, round_stats};

/// Tunables for [`Greedy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyConfig {
    /// Candidate targets sampled and scored per round.
    pub candidates_per_round: usize,
    /// Cap on applied LACs (safety valve).
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for candidate evaluation; `1` evaluates inline,
    /// `0` means one worker per available core. Results are
    /// bit-identical for any thread count (see [`tdals_core::par`]).
    pub threads: usize,
}

impl Default for GreedyConfig {
    fn default() -> GreedyConfig {
        GreedyConfig {
            candidates_per_round: 24,
            max_rounds: 200,
            seed: 0x5A51,
            threads: 1,
        }
    }
}

/// VECBEE-SASIMI-style greedy area-driven ALS behind the
/// [`Optimizer`] trait (column `VECBEE-S`).
///
/// Each round samples live logic gates, pairs each with its best
/// similarity switch, and commits the error-feasible candidate with the
/// **largest area reduction** — the SASIMI/SEALS selection rule ("LACs
/// with the best area reduction potential"); the introduced error is a
/// feasibility filter and tie-break only, and timing is never consulted
/// (that blindness is exactly what the paper holds against area-driven
/// methods). The loop stops when no sampled candidate fits the budget.
/// A [`Budget`] is honored at every round boundary, and each committed
/// substitution streams one [`FlowEvent::LacAccepted`].
#[derive(Debug, Clone, Default)]
pub struct Greedy {
    cfg: GreedyConfig,
}

impl Greedy {
    /// Wraps an explicit configuration.
    pub fn new(cfg: GreedyConfig) -> Greedy {
        Greedy { cfg }
    }
}

impl Optimizer for Greedy {
    fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    fn name(&self) -> &str {
        "VECBEE-S"
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
        let mut base = ctx.delta_eval(ctx.accurate().clone());
        // Per-worker overlay rows of the cone previews, and the marks of
        // the serial switch selection.
        let mut previews: Vec<PreviewScratch> = Vec::new();
        let mut search = SearchScratch::default();
        let mut current_error = 0.0f64;
        let mut current_area = base.area_live();

        for round in 0..cfg.max_rounds {
            if let Some(reason) = tracker.stop_before_iteration(round) {
                stop = reason;
                break;
            }
            obs.on_event(&FlowEvent::IterationStarted {
                iteration: round,
                constraint: error_bound,
            });
            let targets: Vec<GateId> = base
                .netlist()
                .iter()
                .filter(|(id, g)| base.live()[id.index()] && !g.is_input())
                .map(|(id, _)| id)
                .collect();
            if targets.is_empty() {
                break;
            }

            // Serial draft phase: target sampling and switch selection
            // draw from the round's shared RNG stream in a fixed order —
            // nothing here depends on a candidate's evaluation, so the
            // stream is thread-count-independent.
            let mut drafts: Vec<Lac> = Vec::with_capacity(cfg.candidates_per_round);
            for _ in 0..cfg.candidates_per_round {
                let target = targets[rng.gen_range(0..targets.len())];
                drafts.extend(select_switch(
                    base.netlist(),
                    base.sim(),
                    target,
                    usize::MAX,
                    &mut search,
                    &mut rng,
                ));
            }

            // Parallel error phase: each worker previews its drafts'
            // cones in its own overlay rows over the shared words; the
            // pool returns (draft, error) pairs in draft order.
            let sim = base.sim();
            let evaluated = par::par_map_with(
                threads,
                &mut previews,
                drafts,
                |scratch, lac| (lac, preview_error(ctx.evaluator(), sim, lac, scratch)),
                || tracker.interrupted().is_none(),
            );
            tracker.record_evaluations(evaluated.results.len() as u64);
            if !evaluated.completed {
                stop = tracker
                    .interrupted()
                    .expect("an aborted fan-out implies a sticky interrupt");
                break;
            }

            // Serial reduction in draft order: identical best-candidate
            // choice for every thread count.
            let mut best: Option<(Lac, f64, f64, f64)> = None; // (lac, err, area, score)
            let mut feasible = 0usize;
            for (lac, err) in evaluated.results {
                if err > error_bound {
                    continue;
                }
                feasible += 1;
                // A fresh sum, so near-tied gains break as full
                // evaluations of the candidates would.
                let area = base.fresh_area_after(lac.target(), lac.switch());
                let area_gain = current_area - area;
                if area_gain <= 0.0 {
                    continue;
                }
                // Area-first score; a microscopic error penalty breaks
                // ties toward the cheaper LAC without ever out-voting
                // area.
                let err_cost = (err - current_error).max(0.0);
                let score = area_gain - 1e-3 * err_cost;
                if best.is_none_or(|(_, _, _, s)| score > s) {
                    best = Some((lac, err, area, score));
                }
            }
            let Some((lac, err, area, _)) = best else {
                break;
            };
            base.commit(lac.target(), lac.switch()).expect("legal LAC");
            current_error = err;
            current_area = area;
            obs.on_event(&FlowEvent::LacAccepted {
                iteration: round,
                error: current_error,
                area: current_area,
            });
            let depth = base.sta().max_depth(base.netlist());
            let stats = round_stats(ctx, round, error_bound, feasible, depth, current_area);
            history.push(stats);
            obs.on_event(&FlowEvent::IterationFinished { stats });
        }

        base.recount();
        let best = ctx.evaluate_base(&base);
        tracker.record_evaluations(1);
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
    fn greedy_reduces_area_within_budget() {
        let ctx = adder_ctx();
        let bound = 0.03;
        let approx = optimize(&ctx, bound, Greedy::default()).best.netlist;
        approx.check_invariants().expect("valid");
        assert!(ctx.evaluator().error_of(&approx) <= bound + 1e-12);
        assert!(
            approx.area_live() < ctx.area_ori(),
            "area-driven method reduces area"
        );
    }

    #[test]
    fn zero_budget_returns_accurate() {
        let ctx = adder_ctx();
        let approx = optimize(&ctx, 0.0, Greedy::default()).best.netlist;
        assert_eq!(ctx.evaluator().error_of(&approx), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let ctx = adder_ctx();
        let cfg = GreedyConfig {
            max_rounds: 10,
            ..GreedyConfig::default()
        };
        let a = optimize(&ctx, 0.02, Greedy::new(cfg)).best.netlist;
        let b = optimize(&ctx, 0.02, Greedy::new(cfg)).best.netlist;
        assert_eq!(a, b);
    }
}
