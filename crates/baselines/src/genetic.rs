//! VaACS-style **genetic** ALS.
//!
//! VaACS (Balaskas et al., TCSI'22) evolves approximate circuits with a
//! genetic algorithm: mutation applies approximate transformations,
//! crossover recombines circuit structures, and a scalar delay-oriented
//! fitness with tournament selection drives convergence under a fixed
//! error constraint (no Pareto ranking, no constraint relaxation — the
//! structural differences from the paper's DCGWO).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_core::api::{Budget, FlowEvent, Observer, OptimizeOutcome, Optimizer, StopReason};
use tdals_core::{
    par, random_lac, reproduce, Candidate, EvalContext, EvalScratch, IterationStats, Lac,
    LevelWeights, SearchScratch,
};

/// Per-child mutation probability.
const MUTATION_RATE: f64 = 0.6;

/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;

/// Elite individuals copied unchanged each generation.
const ELITISM: usize = 2;

/// Cap on TFI switch candidates per mutation.
const MAX_SWITCH_CANDIDATES: usize = 48;

/// Tunables for [`Genetic`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// `we` of the reproduction level function.
    pub level_we: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for child evaluation; `1` evaluates inline, `0`
    /// means one worker per available core. Results are bit-identical
    /// for any thread count (see [`tdals_core::par`]).
    pub threads: usize,
}

impl Default for GeneticConfig {
    fn default() -> GeneticConfig {
        GeneticConfig {
            population: 30,
            generations: 20,
            level_we: 0.1,
            seed: 0x6A6A,
            threads: 1,
        }
    }
}

/// Delay-oriented scalar fitness: `CPD_ori / CPD_app`, zeroed out for
/// circuits over the error budget.
fn ga_fitness(ctx: &EvalContext, cand: &Candidate, error_bound: f64) -> f64 {
    if cand.error > error_bound {
        return 0.0;
    }
    ctx.cpd_ori() / cand.cpd.max(1e-9)
}

/// VaACS-style genetic ALS behind the [`Optimizer`] trait: returns the
/// best feasible netlist of the run, honors a [`Budget`] at every
/// generation boundary and streams progress to the observer.
#[derive(Debug, Clone, Default)]
pub struct Genetic {
    cfg: GeneticConfig,
}

impl Genetic {
    /// Wraps an explicit configuration.
    pub fn new(cfg: GeneticConfig) -> Genetic {
        Genetic { cfg }
    }
}

impl Optimizer for Genetic {
    fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    fn name(&self) -> &str {
        "VaACS"
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
        let weights = LevelWeights::paper_defaults(ctx.cpd_ori(), cfg.level_we);

        let accurate = ctx.evaluate(ctx.accurate().clone());
        tracker.record_evaluations(1);
        let mut best = accurate.clone();
        let mut best_fit = ga_fitness(ctx, &best, error_bound);

        let mut population: Vec<Candidate> = vec![accurate.clone()];
        // Per-worker simulation buffers and switch-selection marks,
        // reused by every evaluation and mutation of the run.
        let mut workers: Vec<(EvalScratch, SearchScratch)> = Vec::new();
        let seed_want = (cfg.population.max(2) - 1).min(tracker.seed_budget());
        if seed_want > 0 {
            // Serial draft phase: every seed member mutates the *same*
            // accurate netlist, so one simulation serves all draws and the
            // shared RNG stream is consumed in member order, independent of
            // thread count.
            let accurate_sim = ctx.simulate(&accurate.netlist);
            let mut search = SearchScratch::default();
            let seed_drafts: Vec<Option<Lac>> = (0..seed_want)
                .map(|_| {
                    random_lac(
                        &accurate.netlist,
                        &accurate_sim,
                        MAX_SWITCH_CANDIDATES,
                        &mut search,
                        &mut rng,
                    )
                })
                .collect();
            // Parallel evaluation, then serial admission in member order:
            // the budget is honored during seeding as well — deterministic
            // caps stop admission at the same member for every thread
            // count, and the accurate anchor is already in, so stopping
            // early is always safe.
            let seeded = par::par_map_with(
                threads,
                &mut workers,
                seed_drafts,
                |(scratch, _), lac| {
                    let mut netlist = accurate.netlist.clone();
                    if let Some(lac) = lac {
                        lac.apply(&mut netlist).expect("legal LAC");
                    }
                    ctx.evaluate_in(netlist, scratch)
                },
                || tracker.interrupted().is_none(),
            );
            for cand in seeded.results {
                if tracker.stop_before_iteration(0).is_some() {
                    break;
                }
                population.push(cand);
                tracker.record_evaluations(1);
            }
        }

        for generation in 0..cfg.generations {
            if let Some(reason) = tracker.stop_before_iteration(generation) {
                stop = reason;
                break;
            }
            obs.on_event(&FlowEvent::IterationStarted {
                iteration: generation,
                constraint: error_bound,
            });
            let fits: Vec<f64> = population
                .iter()
                .map(|c| ga_fitness(ctx, c, error_bound))
                .collect();
            for (cand, &fit) in population.iter().zip(&fits) {
                if fit > best_fit {
                    best_fit = fit;
                    best = cand.clone();
                    obs.on_event(&FlowEvent::BestImproved {
                        iteration: generation,
                        fitness: best.fitness,
                        error: best.error,
                        depth: best.depth,
                        area: best.area,
                    });
                }
            }

            let tournament_pick = |rng: &mut StdRng| -> usize {
                let mut winner = rng.gen_range(0..population.len());
                for _ in 1..TOURNAMENT {
                    let challenger = rng.gen_range(0..population.len());
                    if fits[challenger] > fits[winner] {
                        winner = challenger;
                    }
                }
                winner
            };

            // Elites survive unchanged.
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| fits[b].total_cmp(&fits[a]));
            let mut next: Vec<Candidate> = order
                .iter()
                .take(ELITISM.min(population.len()))
                .map(|&i| population[i].clone())
                .collect();

            // Serial plan phase: tournament picks and mutation coins come
            // off the shared stream in child order. A mutating child gets a
            // private stream split off the shared one, because its LAC draw
            // reads the child's own simulation — which only exists inside
            // the worker that builds it.
            struct ChildPlan {
                pa: usize,
                pb: usize,
                mutation_seed: Option<u64>,
            }
            let want = cfg.population.max(2).saturating_sub(next.len());
            let plans: Vec<ChildPlan> = (0..want)
                .map(|_| {
                    let pa = tournament_pick(&mut rng);
                    let pb = tournament_pick(&mut rng);
                    let mutation_seed =
                        (rng.gen::<f64>() < MUTATION_RATE).then(|| rng.gen::<u64>());
                    ChildPlan {
                        pa,
                        pb,
                        mutation_seed,
                    }
                })
                .collect();
            // Parallel build-and-evaluate phase (crossover, optional
            // mutation, full evaluation), reduced in child order. Every
            // candidate comes from a full evaluation, so an unmutated child
            // equal to a parent takes that parent's scores, bit for bit.
            let population_ref = &population;
            let children = par::par_map_with(
                threads,
                &mut workers,
                plans,
                |(scratch, search), plan| {
                    let (pa, pb) = (&population_ref[plan.pa], &population_ref[plan.pb]);
                    let mut child = if plan.pa == plan.pb {
                        pa.netlist.clone()
                    } else {
                        reproduce(pa, pb, &weights)
                    };
                    let mut mutated = false;
                    if let Some(seed) = plan.mutation_seed {
                        let mut crng = StdRng::seed_from_u64(seed);
                        let sim = ctx.simulate_in(&child, scratch);
                        if let Some(lac) =
                            random_lac(&child, sim, MAX_SWITCH_CANDIDATES, search, &mut crng)
                        {
                            lac.apply(&mut child).expect("legal LAC");
                            mutated = true;
                        }
                    }
                    if !mutated {
                        if let Some(parent) = [pa, pb].into_iter().find(|p| p.netlist == child) {
                            return ctx.evaluate_reusing(child, parent);
                        }
                    }
                    ctx.evaluate_in(child, scratch)
                },
                || tracker.interrupted().is_none(),
            );
            tracker.record_evaluations(children.results.len() as u64);
            if !children.completed {
                // The previous generation survives; the partial next
                // generation is discarded (its evaluations are recorded).
                stop = tracker
                    .interrupted()
                    .expect("an aborted fan-out implies a sticky interrupt");
                break;
            }
            next.extend(children.results);
            population = next;

            let feasible = population.iter().filter(|c| c.error <= error_bound).count();
            let best_now = population
                .iter()
                .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
                .expect("population is never empty");
            let stats = IterationStats {
                iteration: generation,
                constraint: error_bound,
                best_fitness: best_now.fitness,
                best_depth: best_now.depth,
                best_area: best_now.area,
                feasible,
            };
            history.push(stats);
            obs.on_event(&FlowEvent::IterationFinished { stats });
        }

        // Final sweep over the last generation: the per-generation scan at
        // the loop top only covers the *previous* generation's population,
        // so improvements born in the last one are found (and reported)
        // here.
        let final_generation = history.last().map_or(0, |s| s.iteration);
        for cand in &population {
            let fit = ga_fitness(ctx, cand, error_bound);
            if fit > best_fit {
                best_fit = fit;
                best = cand.clone();
                obs.on_event(&FlowEvent::BestImproved {
                    iteration: final_generation,
                    fitness: best.fitness,
                    error: best.error,
                    depth: best.depth,
                    area: best.area,
                });
            }
        }
        OptimizeOutcome {
            best,
            population,
            history,
            evaluations: tracker.evaluations(),
            stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{adder_ctx, optimize, optimize_within};

    fn quick_cfg() -> GeneticConfig {
        GeneticConfig {
            population: 8,
            generations: 6,
            ..GeneticConfig::default()
        }
    }

    #[test]
    fn genetic_respects_error_bound() {
        let ctx = adder_ctx();
        let approx = optimize(&ctx, 0.03, Genetic::new(quick_cfg())).best.netlist;
        approx.check_invariants().expect("valid");
        assert!(ctx.evaluator().error_of(&approx) <= 0.03 + 1e-12);
    }

    #[test]
    fn genetic_improves_delay_given_budget() {
        let ctx = adder_ctx();
        let approx = optimize(&ctx, 0.05, Genetic::new(quick_cfg())).best.netlist;
        let cpd = ctx.analyze(&approx).critical_path_delay();
        assert!(
            cpd <= ctx.cpd_ori() + 1e-9,
            "cpd {cpd} vs accurate {}",
            ctx.cpd_ori()
        );
    }

    /// Every VaACS candidate, reused from an equal parent or not,
    /// carries exactly the scores of a full evaluation of its netlist.
    #[test]
    fn every_candidate_equals_a_full_evaluation() {
        let ctx = adder_ctx();
        let outcome = optimize(&ctx, 0.03, Genetic::new(quick_cfg()));
        let bits = |c: &Candidate| {
            let mut v = vec![c.cpd, c.area, c.error, c.fd, c.fa, c.fitness];
            v.extend(&c.po_arrivals);
            v.extend(&c.po_errors);
            (c.depth, v.into_iter().map(f64::to_bits).collect::<Vec<_>>())
        };
        for cand in outcome.population.iter().chain([&outcome.best]) {
            assert_eq!(bits(cand), bits(&ctx.evaluate(cand.netlist.clone())));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ctx = adder_ctx();
        let a = optimize(&ctx, 0.03, Genetic::new(quick_cfg())).best.netlist;
        let b = optimize(&ctx, 0.03, Genetic::new(quick_cfg())).best.netlist;
        assert_eq!(a, b);
    }

    #[test]
    fn pre_stopped_budget_pays_no_seeding_work() {
        // Seeding truncates to the budget before fanning out: an
        // exhausted budget evaluates only the accurate anchor, a tiny
        // evaluation cap exactly as many members as it admits.
        let ctx = adder_ctx();
        let outcome = optimize_within(
            &ctx,
            0.03,
            Budget::unlimited().with_max_iterations(0),
            Genetic::new(quick_cfg()),
        );
        assert_eq!(outcome.stop, StopReason::IterationLimit);
        assert_eq!(outcome.evaluations, 1, "accurate anchor only");
        assert_eq!(outcome.population.len(), 1);

        let outcome = optimize_within(
            &ctx,
            0.03,
            Budget::unlimited().with_max_evaluations(3),
            Genetic::new(quick_cfg()),
        );
        assert_eq!(outcome.stop, StopReason::EvaluationLimit);
        assert_eq!(outcome.evaluations, 3, "anchor + two capped members");
        assert_eq!(outcome.population.len(), 3);
    }
}
