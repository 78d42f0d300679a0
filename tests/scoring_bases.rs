//! Scoring-base builds per DCGWO and GWO run, by thread count.
//!
//! Every search child is built, proposed and scored in one recycled
//! `DeltaEval` on whichever worker claims it, and nothing else builds a
//! base, so the `scoring_bases` counter must read exactly one build per
//! search child at every width: a parallel path that builds bases ahead
//! of the chase, or for members that end up reproducing, shows here as a
//! higher count at two threads than at one. The two runs must also
//! return the same result, with children crossing batch boundaries.
//!
//! The counter is process-wide, so this file holds a single test and
//! runs its flows one after another.

use tdals::circuits::Benchmark;
use tdals::core::{optimize, ChaseStrategy, EvalContext, OptimizerConfig, OptimizerResult};
use tdals::obs::metrics;
use tdals::sim::{ErrorMetric, Patterns};
use tdals::sta::TimingConfig;

const POPULATION: usize = 10;
const ITERATIONS: usize = 4;

/// Scoring bases one run builds, and the run's result.
fn bases(ctx: &EvalContext, cfg: &OptimizerConfig) -> (u64, OptimizerResult) {
    let before = metrics().scoring_bases.get();
    let result = optimize(ctx, 0.02, cfg);
    assert_eq!(result.history.len(), ITERATIONS);
    (metrics().scoring_bases.get() - before, result)
}

#[test]
fn every_width_builds_one_base_per_search_child() {
    let accurate = Benchmark::Int2float.build();
    let ctx = EvalContext::new(
        &accurate,
        Patterns::random(accurate.input_count(), 512, 7),
        ErrorMetric::Nmed,
        TimingConfig::default(),
        0.8,
    );
    for chase in [ChaseStrategy::DoubleChase, ChaseStrategy::SingleChase] {
        for reproduction in [false, true] {
            let cfg = OptimizerConfig::default()
                .with_population(POPULATION)
                .with_iterations(ITERATIONS)
                .with_chase(chase)
                .with_reproduction(reproduction)
                .with_seed(3);
            // Two workers split each iteration's children across batches
            // of eight, so the workers' bases serve interleaved children.
            let [(one, serial), (two, parallel)] =
                [1, 2].map(|threads| bases(&ctx, &cfg.clone().with_threads(threads)));
            assert_eq!(serial.best.netlist, parallel.best.netlist);
            assert_eq!(serial.history, parallel.history);
            assert_eq!(
                one, two,
                "{chase:?}, reproduction {reproduction}: {one} bases at one thread, {two} at two"
            );
            // Every chase yields one child per member; without the
            // reproduction action each of them is a search child.
            let children = (POPULATION * ITERATIONS) as u64;
            if reproduction {
                assert!(
                    0 < one && one < children,
                    "{chase:?}: {one} bases for {children} children, some of them reproduced"
                );
            } else {
                assert_eq!(one, children, "{chase:?}: one base per search child");
            }
        }
    }
}
