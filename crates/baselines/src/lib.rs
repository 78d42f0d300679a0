//! # tdals-baselines
//!
//! Re-implementations of the ALS methods the paper compares against,
//! running on the same netlist/STA/simulation substrate as the DCGWO
//! flow so that TABLEs II/III and Figs. 7/8 can be regenerated
//! method-for-method:
//!
//! * [`Greedy`] — VECBEE-SASIMI-style greedy area-driven selection;
//! * [`Genetic`] — VaACS-style genetic optimization;
//! * [`Hedals`] — HEDALS-style critical-path depth reduction;
//! * the single-chase GWO baseline lives in
//!   [`tdals_core::ChaseStrategy::SingleChase`]
//!   (see [`tdals_core::api::Dcgwo::single_chase`]).
//!
//! Every method implements the [`tdals_core::api::Optimizer`] trait,
//! so all five flows plug into the same [`tdals_core::api::Flow`]
//! session, honor the same budget/cancellation, and stream the same
//! progress events. [`Method`] enumerates them and
//! [`Method::optimizer`] builds the matching trait object:
//!
//! ```
//! use tdals_baselines::{Method, MethodConfig};
//! use tdals_core::api::Flow;
//! use tdals_core::EvalContext;
//! use tdals_netlist::builder::Builder;
//! use tdals_netlist::SignalRef;
//! use tdals_sim::{ErrorMetric, Patterns};
//! use tdals_sta::TimingConfig;
//!
//! let mut b = Builder::new("add4");
//! let a = b.inputs("a", 4);
//! let x = b.inputs("b", 4);
//! let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
//! b.outputs("s", &s);
//! b.output("c", c);
//! let accurate = b.finish();
//! let ctx = EvalContext::new(
//!     &accurate,
//!     Patterns::random(accurate.input_count(), 256, 1),
//!     ErrorMetric::ErrorRate,
//!     TimingConfig::default(),
//!     0.8,
//! );
//! let cfg = MethodConfig::default().with_population(6).with_iterations(3);
//! let outcome = Flow::for_context(&ctx)
//!     .error_bound(0.05)
//!     .optimizer(Method::Hedals.optimizer(&cfg))
//!     .run()
//!     .expect("valid session");
//! assert!(outcome.error <= 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod genetic;
mod greedy;
mod hedals;

pub use genetic::{Genetic, GeneticConfig};
pub use greedy::{Greedy, GreedyConfig};
pub use hedals::{Hedals, HedalsConfig};

use tdals_core::api::{Dcgwo, Optimizer};
use tdals_core::{ChaseStrategy, EvalContext, IterationStats, Lac, OptimizerConfig};
use tdals_sim::{DeltaSim, ErrorEvaluator, PreviewScratch};

/// The five flows compared in TABLEs II and III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// VECBEE-SASIMI-style greedy area-driven ALS (`VECBEE-S`).
    VecbeeSasimi,
    /// VaACS-style genetic ALS.
    Vaacs,
    /// HEDALS-style depth-driven ALS.
    Hedals,
    /// Traditional single-chase grey wolf optimizer.
    SingleChaseGwo,
    /// The paper's double-chase grey wolf optimizer (`Ours`).
    Dcgwo,
}

/// All methods in the paper's column order.
pub const ALL_METHODS: [Method; 5] = [
    Method::VecbeeSasimi,
    Method::Vaacs,
    Method::Hedals,
    Method::SingleChaseGwo,
    Method::Dcgwo,
];

impl Method {
    /// Lowercase name used by the `tdals` CLI and job manifests:
    /// `dcgwo`, `gwo`, `hedals`, `greedy`, `vaacs`.
    pub const fn cli_name(self) -> &'static str {
        match self {
            Method::VecbeeSasimi => "greedy",
            Method::Vaacs => "vaacs",
            Method::Hedals => "hedals",
            Method::SingleChaseGwo => "gwo",
            Method::Dcgwo => "dcgwo",
        }
    }

    /// Parses a [`Method::cli_name`]; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Method> {
        ALL_METHODS.into_iter().find(|m| m.cli_name() == name)
    }

    /// Column label used in the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            Method::VecbeeSasimi => "VECBEE-S",
            Method::Vaacs => "VaACS",
            Method::Hedals => "HEDALS",
            Method::SingleChaseGwo => "GWO",
            Method::Dcgwo => "Ours",
        }
    }

    /// Builds this method's [`Optimizer`] from the shared knobs,
    /// scaling per-method details exactly as the paper's evaluation
    /// protocol does (greedy/HEDALS get `iterations × 10` rounds, the
    /// population methods get `population`/`iterations` directly).
    pub fn optimizer(self, cfg: &MethodConfig) -> Box<dyn Optimizer> {
        match self {
            Method::VecbeeSasimi => Box::new(Greedy::new(GreedyConfig {
                candidates_per_round: cfg.population.max(8),
                max_rounds: cfg.iterations * 10,
                seed: cfg.seed,
                threads: cfg.threads,
            })),
            Method::Vaacs => Box::new(Genetic::new(GeneticConfig {
                population: cfg.population,
                generations: cfg.iterations,
                level_we: cfg.level_we,
                seed: cfg.seed,
                threads: cfg.threads,
                ..GeneticConfig::default()
            })),
            Method::Hedals => Box::new(Hedals::new(HedalsConfig {
                max_rounds: cfg.iterations * 10,
                seed: cfg.seed,
                threads: cfg.threads,
            })),
            Method::SingleChaseGwo | Method::Dcgwo => Box::new(Dcgwo::new(
                OptimizerConfig::default()
                    .with_population(cfg.population)
                    .with_iterations(cfg.iterations)
                    .with_level_we(cfg.level_we)
                    .with_seed(cfg.seed)
                    .with_threads(cfg.threads)
                    .with_chase(if self == Method::Dcgwo {
                        ChaseStrategy::DoubleChase
                    } else {
                        ChaseStrategy::SingleChase
                    }),
            )),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared knobs for [`Method::optimizer`]; per-method details keep
/// their own defaults scaled to `population`/`iterations`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct MethodConfig {
    /// Population size for the population-based methods.
    pub population: usize,
    /// Iterations / generations / greedy-round budget.
    pub iterations: usize,
    /// `we` of the reproduction level function (0.1 ER / 0.2 NMED).
    pub level_we: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for candidate evaluation; `1` evaluates inline,
    /// `0` means one worker per available core. Every method returns
    /// bit-identical results for any thread count (see
    /// [`tdals_core::par`]).
    pub threads: usize,
}

impl Default for MethodConfig {
    fn default() -> MethodConfig {
        MethodConfig {
            population: 30,
            iterations: 20,
            level_we: 0.1,
            seed: 1,
            threads: 1,
        }
    }
}

impl MethodConfig {
    /// Sets the population size.
    pub fn with_population(mut self, population: usize) -> MethodConfig {
        self.population = population;
        self
    }

    /// Sets the iteration / generation / round budget.
    pub fn with_iterations(mut self, iterations: usize) -> MethodConfig {
        self.iterations = iterations;
        self
    }

    /// Sets the `we` of the reproduction level function.
    pub fn with_level_we(mut self, level_we: f64) -> MethodConfig {
        self.level_we = level_we;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> MethodConfig {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for candidate evaluation (`0` means
    /// one worker per available core).
    pub fn with_threads(mut self, threads: usize) -> MethodConfig {
        self.threads = threads;
        self
    }
}

/// Per-round statistics for the accept-one-LAC-per-round methods: the
/// working netlist is the round's best, scored with the shared Eq. 8
/// fitness terms from its depth and fresh live area.
fn round_stats(
    ctx: &EvalContext,
    iteration: usize,
    constraint: f64,
    feasible: usize,
    depth: u32,
    area: f64,
) -> IterationStats {
    IterationStats {
        iteration,
        constraint,
        best_fitness: ctx.fitness_from(depth, area),
        best_depth: depth,
        best_area: area,
        feasible,
    }
}

/// `evaluator`'s error of `sim`'s netlist after `lac`, by a cone preview
/// of the outputs in `scratch`: equal to [`ErrorEvaluator::error_of`]
/// of the substituted netlist bit for bit.
fn preview_error(
    evaluator: &ErrorEvaluator,
    sim: &DeltaSim,
    lac: Lac,
    scratch: &mut PreviewScratch,
) -> f64 {
    evaluator.error_of_sim(&sim.preview_outputs_in(lac.target(), lac.switch(), scratch))
}

/// Fixtures shared by the crate's unit tests.
#[cfg(test)]
mod testing {
    use tdals_core::api::{Budget, Flow, OptimizeOutcome, Optimizer};
    use tdals_core::EvalContext;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    /// A 6-bit ripple-carry adder on its exhaustive stimulus, NMED.
    pub(crate) fn adder_ctx() -> EvalContext {
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

    /// `optimizer`'s outcome in a [`Flow`] on `ctx` under `bound`.
    pub(crate) fn optimize(
        ctx: &EvalContext,
        bound: f64,
        optimizer: impl Optimizer,
    ) -> OptimizeOutcome {
        optimize_within(ctx, bound, Budget::unlimited(), optimizer)
    }

    /// [`optimize`] under `budget`.
    pub(crate) fn optimize_within(
        ctx: &EvalContext,
        bound: f64,
        budget: Budget,
        optimizer: impl Optimizer,
    ) -> OptimizeOutcome {
        Flow::for_context(ctx)
            .error_bound(bound)
            .budget(budget)
            .optimizer(optimizer)
            .run()
            .expect("valid session")
            .optimize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::adder_ctx as ctx;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tdals_circuits::Benchmark;
    use tdals_core::api::Flow;
    use tdals_core::{collect_targets, select_switch, SearchScratch};
    use tdals_netlist::GateId;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    /// Every number VECBEE-S and HEDALS read off the engine equals what
    /// the clone-and-evaluate path (`Netlist::clone`, `Lac::apply`, a
    /// full `error_of`, `analyze` and `area_live`) computes, by
    /// `to_bits`: after a short committed chain of LACs, for random
    /// drafts anywhere in the circuit, live or dangling.
    #[test]
    fn engine_scores_equal_the_clone_and_evaluate_path() {
        const COMMITS: usize = 6;
        let mut cascaded_differs = false;
        for bench in [Benchmark::C880, Benchmark::Adder16] {
            let accurate = bench.build();
            let ctx = EvalContext::new(
                &accurate,
                Patterns::random(accurate.input_count(), 1024, 3),
                ErrorMetric::Nmed,
                TimingConfig::default(),
                0.8,
            );
            let probe = hedals::probe_evaluator(&ctx, 7);
            let mut base = ctx.delta_eval(accurate.clone());
            let mut probe_sim = hedals::probe_engine(&ctx, &probe);
            let (mut exact_rows, mut probe_rows) = Default::default();
            let mut reference = accurate.clone();
            let logic: Vec<GateId> = accurate
                .iter()
                .filter(|(_, g)| !g.is_input())
                .map(|(id, _)| id)
                .collect();
            let mut rng = StdRng::seed_from_u64(11);
            let mut search = SearchScratch::default();
            for step in 0..COMMITS + 40 {
                let target = logic[rng.gen_range(0..logic.len())];
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
                let mut trial = reference.clone();
                lac.apply(&mut trial).expect("legal LAC");
                let report = ctx.analyze(&trial);
                let at = format!("{bench:?} step {step} {lac:?}");
                let error = preview_error(ctx.evaluator(), base.sim(), lac, &mut exact_rows);
                let probe_error = preview_error(&probe, &probe_sim, lac, &mut probe_rows);
                let fresh = base.fresh_area_after(lac.target(), lac.switch());
                let timing = base.preview_timing(lac.target(), lac.switch());
                assert_eq!(
                    error.to_bits(),
                    ctx.evaluator().error_of(&trial).to_bits(),
                    "{at}: error"
                );
                assert_eq!(
                    probe_error.to_bits(),
                    probe.error_of(&trial).to_bits(),
                    "{at}: probe error"
                );
                assert_eq!(fresh.to_bits(), trial.area_live().to_bits(), "{at}: area");
                assert_eq!(timing.max_depth(), report.max_depth(), "{at}: depth");
                assert_eq!(
                    timing.critical_path_delay().to_bits(),
                    report.critical_path_delay().to_bits(),
                    "{at}: CPD"
                );
                cascaded_differs |=
                    base.area_after(lac.target(), lac.switch()).to_bits() != fresh.to_bits();
                if step < COMMITS {
                    base.commit(lac.target(), lac.switch()).expect("legal LAC");
                    probe_sim
                        .substitute(lac.target(), lac.switch())
                        .expect("legal LAC");
                    reference = trial;
                }
            }
            // The round-start reads: VECBEE-S's targets, HEDALS's
            // timing and its critical-path targets.
            assert_eq!(base.live(), reference.live_mask(), "{bench:?}: liveness");
            let report = ctx.analyze(&reference);
            let sta = base.sta();
            assert_eq!(sta.max_depth(base.netlist()), report.max_depth());
            assert_eq!(
                sta.critical_path_delay(base.netlist()).to_bits(),
                report.critical_path_delay().to_bits()
            );
            assert_eq!(
                collect_targets(base.netlist(), &*sta, 3, &mut StdRng::seed_from_u64(5)),
                collect_targets(&reference, &report, 3, &mut StdRng::seed_from_u64(5))
            );
        }
        assert!(
            cascaded_differs,
            "no cascaded area differs from a fresh sum, so the area check tells them apart nowhere"
        );
    }

    #[test]
    fn all_methods_run_and_respect_constraints() {
        let ctx = ctx();
        let cfg = MethodConfig::default()
            .with_population(8)
            .with_iterations(5)
            .with_level_we(0.2)
            .with_seed(3);
        let bound = 0.03;
        for method in ALL_METHODS {
            let result = Flow::for_context(&ctx)
                .error_bound(bound)
                .optimizer(method.optimizer(&cfg))
                .run()
                .expect("valid session");
            assert!(
                result.error <= bound + 1e-12,
                "{method} violates the error bound: {}",
                result.error
            );
            assert!(
                result.area <= ctx.area_ori() + 1e-9,
                "{method} violates the area constraint"
            );
            assert!(result.ratio_cpd <= 1.0 + 1e-9, "{method} made timing worse");
            result.netlist.check_invariants().expect("valid netlist");
        }
    }

    #[test]
    fn optimizer_names_match_labels() {
        let cfg = MethodConfig::default();
        for method in ALL_METHODS {
            let opt = method.optimizer(&cfg);
            if method == Method::Dcgwo {
                assert_eq!(opt.name(), "DCGWO");
            } else {
                assert_eq!(opt.name(), method.label());
            }
        }
    }

    #[test]
    fn cli_names_round_trip() {
        for method in ALL_METHODS {
            assert_eq!(Method::parse(method.cli_name()), Some(method));
        }
        assert_eq!(Method::parse("annealer"), None);
        assert_eq!(Method::parse("DCGWO"), None, "names are lowercase");
    }

    #[test]
    fn method_labels_are_distinct() {
        let mut labels: Vec<&str> = ALL_METHODS.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ALL_METHODS.len());
    }
}
