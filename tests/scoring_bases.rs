//! Scoring-base builds per DCGWO and GWO run, by thread count.
//!
//! Each worker keeps one recycled `DeltaEval` for the whole run, and
//! every build of it counts once in the `scoring_bases` counter: each
//! seeded member is one reset to the accurate circuit's golden words,
//! the search children of one iteration that share a netlist are built,
//! proposed and scored in one rebuild, on whichever worker claims them,
//! and a reproduced child that equals neither parent is one rebuild. So
//! without the reproduction action the counter must read exactly the
//! population (the seeding) plus one build per distinct search netlist
//! per iteration, at every width: a parallel path that builds bases
//! ahead of the chase, for members that end up reproducing, or once per
//! child of a shared netlist shows here as a higher count. Every member
//! is then searched once per iteration, so the search count is the
//! number of distinct member netlists summed over the iterations, read
//! from runs stopped at each iteration. (Equal members come from
//! reproduced children that copy a parent, so in these runs every
//! search netlist is distinct; children sharing a base are pinned in
//! the optimizer's unit tests.) With reproduction, the reproduced
//! children that copy a parent build no base, so the builds after
//! seeding stay below the child count. The one- and two-thread runs
//! must also build the same count and return the same result, with
//! children crossing batch boundaries.
//!
//! The counter is process-wide, so this file holds a single test and
//! runs its flows one after another.

use tdals::circuits::Benchmark;
use tdals::core::api::{Budget, NopObserver};
use tdals::core::{
    optimize, optimize_session, ChaseStrategy, EvalContext, OptimizerConfig, OptimizerResult,
};
use tdals::netlist::Netlist;
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

/// Distinct netlists of the population at the start of each iteration,
/// summed. A run stopped before iteration `k` returns the population
/// iteration `k` starts from: by an iteration cap for `k > 0`, and for
/// the seeded population by an evaluation cap of one per member (an
/// iteration cap of 0 would stop before seeding).
fn distinct_members(ctx: &EvalContext, cfg: &OptimizerConfig) -> u64 {
    (0..ITERATIONS)
        .map(|k| {
            let budget = match k {
                0 => Budget::unlimited().with_max_evaluations(POPULATION as u64),
                k => Budget::unlimited().with_max_iterations(k),
            };
            let outcome = optimize_session(ctx, 0.02, cfg, &budget, &mut NopObserver);
            let mut distinct: Vec<&Netlist> = Vec::new();
            for cand in &outcome.population {
                if !distinct.contains(&&cand.netlist) {
                    distinct.push(&cand.netlist);
                }
            }
            distinct.len() as u64
        })
        .sum()
}

#[test]
fn every_width_builds_one_base_per_distinct_search_netlist() {
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
            let expected = (!reproduction).then(|| distinct_members(&ctx, &cfg));
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
            // Every chase yields one child per member, and the seeding
            // builds one base per member.
            let children = (POPULATION * ITERATIONS) as u64;
            let seeding = POPULATION as u64;
            match expected {
                Some(distinct) => {
                    assert_eq!(
                        one,
                        seeding + distinct,
                        "{chase:?}: one base per seeded member and distinct search netlist"
                    );
                }
                None => assert!(
                    seeding < one && one - seeding < children,
                    "{chase:?}: {one} bases for {seeding} members and {children} children, \
                     some of them copies"
                ),
            }
        }
    }
}
