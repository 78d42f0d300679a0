//! VECBEE-SASIMI-style greedy **area-driven** ALS.
//!
//! The reference method (Su et al., TCAD'22 + the SASIMI LAC family)
//! iteratively applies the substitution with the best area-reduction
//! potential per unit of introduced error, using Monte-Carlo batch error
//! estimation, until the error budget is exhausted. It does not look at
//! timing at all — the paper's point is that pure area reduction leaves
//! critical-path delay on the table even after post-optimization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_core::api::{Budget, FlowEvent, NopObserver, Observer, OptimizeOutcome, StopReason};
use tdals_core::{par, select_switch, EvalContext, Lac};
use tdals_netlist::{GateId, Netlist, SignalRef};
use tdals_sim::SimWords;

use crate::round_stats;

/// Tunables for [`greedy_area`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyConfig {
    /// Candidate targets sampled and scored per round.
    pub candidates_per_round: usize,
    /// Cap on applied LACs (safety valve).
    pub max_rounds: usize,
    /// Cap on TFI switch candidates scored per target.
    pub max_switch_candidates: usize,
    /// Minimum output similarity a switch must reach before SASIMI
    /// considers the pair substitutable. SASIMI's premise is pairing
    /// "similar signals"; `0.0` (the default) accepts whatever the
    /// best-similarity scan returns, while values around 0.85-0.95
    /// emulate a strict similar-signal pairing rule and markedly weaken
    /// the method on arithmetic circuits.
    pub min_similarity: f64,
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
            max_switch_candidates: usize::MAX,
            min_similarity: 0.0,
            seed: 0x5A51,
            threads: 1,
        }
    }
}

/// Runs the greedy area-driven selection loop and returns the
/// approximate netlist (pre-post-optimization).
///
/// Each round samples live logic gates, pairs each with its best
/// similarity switch, and commits the error-feasible candidate with the
/// **largest area reduction** — the SASIMI/SEALS selection rule ("LACs
/// with the best area reduction potential"); the introduced error is a
/// feasibility filter and tie-break only, and timing is never consulted
/// (that blindness is exactly what the paper holds against area-driven
/// methods). The loop stops when no sampled candidate fits the budget.
pub fn greedy_area(ctx: &EvalContext, error_bound: f64, cfg: &GreedyConfig) -> Netlist {
    greedy_area_session(
        ctx,
        error_bound,
        cfg,
        &Budget::unlimited(),
        &mut NopObserver,
    )
    .best
    .netlist
}

/// [`greedy_area`] with a [`Budget`] honored at every round boundary
/// and progress streamed to `obs` (one [`FlowEvent::LacAccepted`] per
/// committed substitution). Under [`Budget::unlimited`] the final
/// netlist is identical to [`greedy_area`]'s.
pub fn greedy_area_session(
    ctx: &EvalContext,
    error_bound: f64,
    cfg: &GreedyConfig,
    budget: &Budget,
    obs: &mut dyn Observer,
) -> OptimizeOutcome {
    let mut tracker = budget.start_tracking();
    let mut stop = StopReason::Completed;
    let mut history = Vec::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let threads = par::resolve_threads(cfg.threads);
    let mut netlist = ctx.accurate().clone();
    let mut current_error = 0.0f64;
    let mut current_area = netlist.area_live();

    for round in 0..cfg.max_rounds {
        if let Some(reason) = tracker.stop_before_iteration(round) {
            stop = reason;
            break;
        }
        obs.on_event(&FlowEvent::IterationStarted {
            iteration: round,
            constraint: error_bound,
        });
        let sim = ctx.simulate(&netlist);
        let live = netlist.live_mask();
        let targets: Vec<GateId> = netlist
            .iter()
            .filter(|(id, g)| live[id.index()] && !g.is_input())
            .map(|(id, _)| id)
            .collect();
        if targets.is_empty() {
            break;
        }

        // Serial draft phase: target sampling and switch selection draw
        // from the round's shared RNG stream in the exact order the
        // sequential loop used — nothing here depends on a candidate's
        // evaluation, so the stream is thread-count-independent.
        let mut drafts: Vec<Lac> = Vec::with_capacity(cfg.candidates_per_round);
        for _ in 0..cfg.candidates_per_round {
            let target = targets[rng.gen_range(0..targets.len())];
            let Some(lac) =
                select_switch(&netlist, &sim, target, cfg.max_switch_candidates, &mut rng)
            else {
                continue;
            };
            let similarity = sim.similarity(SignalRef::Gate(lac.target()), lac.switch());
            if similarity < cfg.min_similarity {
                continue;
            }
            drafts.push(lac);
        }

        // Parallel evaluation phase: each worker owns its trial clone;
        // the pool returns (trial, error) pairs in draft order.
        let evaluated = par::par_map_batched(
            threads,
            drafts,
            |lac| {
                let mut trial = netlist.clone();
                lac.apply(&mut trial).expect("legal LAC");
                let err = ctx.evaluator().error_of(&trial);
                (trial, err)
            },
            || tracker.interrupted().is_none(),
        );
        tracker.record_evaluations(evaluated.results.len() as u64);

        // Serial reduction in draft order: identical best-candidate
        // choice for every thread count.
        let mut best: Option<(Netlist, f64, f64, f64)> = None; // (netlist, err, area, score)
        let mut feasible = 0usize;
        for (trial, err) in evaluated.results {
            if err > error_bound {
                continue;
            }
            feasible += 1;
            let area = trial.area_live();
            let area_gain = current_area - area;
            if area_gain <= 0.0 {
                continue;
            }
            // Area-first score; a microscopic error penalty breaks ties
            // toward the cheaper LAC without ever out-voting area.
            let err_cost = (err - current_error).max(0.0);
            let score = area_gain - 1e-3 * err_cost;
            if best.as_ref().is_none_or(|(_, _, _, s)| score > *s) {
                best = Some((trial, err, area, score));
            }
        }
        if !evaluated.completed {
            stop = tracker
                .interrupted()
                .expect("aborted batches imply a sticky interrupt");
            break;
        }
        let Some((next, err, area, _)) = best else {
            break;
        };
        netlist = next;
        current_error = err;
        current_area = area;
        obs.on_event(&FlowEvent::LacAccepted {
            iteration: round,
            error: current_error,
            area: current_area,
        });
        let stats = round_stats(ctx, &netlist, round, error_bound, feasible);
        history.push(stats);
        obs.on_event(&FlowEvent::IterationFinished { stats });
    }

    let best = ctx.evaluate(netlist);
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

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    fn ctx() -> EvalContext {
        let mut b = Builder::new("add6");
        let a = b.inputs("a", 6);
        let x = b.inputs("b", 6);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        let n = b.finish();
        EvalContext::new(
            &n,
            Patterns::exhaustive(12),
            ErrorMetric::Nmed,
            TimingConfig::default(),
            0.8,
        )
    }

    #[test]
    fn greedy_reduces_area_within_budget() {
        let ctx = ctx();
        let bound = 0.03;
        let approx = greedy_area(&ctx, bound, &GreedyConfig::default());
        approx.check_invariants().expect("valid");
        assert!(ctx.evaluator().error_of(&approx) <= bound + 1e-12);
        assert!(
            approx.area_live() < ctx.area_ori(),
            "area-driven method reduces area"
        );
    }

    #[test]
    fn zero_budget_returns_accurate() {
        let ctx = ctx();
        let approx = greedy_area(&ctx, 0.0, &GreedyConfig::default());
        assert_eq!(ctx.evaluator().error_of(&approx), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let ctx = ctx();
        let cfg = GreedyConfig {
            max_rounds: 10,
            ..GreedyConfig::default()
        };
        let a = greedy_area(&ctx, 0.02, &cfg);
        let b = greedy_area(&ctx, 0.02, &cfg);
        assert_eq!(a, b);
    }
}
