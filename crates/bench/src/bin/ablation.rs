//! Ablation study of DCGWO's mechanisms: the double-chase hierarchy,
//! the ω group's reproduce-then-search action, circuit reproduction and
//! asymptotic error relaxation. Each variant switches off one of them
//! in the full configuration; every variant runs the same seed on
//! representative circuits, and the last row averages each column.
//!
//! ```sh
//! TDALS_EFFORT=quick cargo run --release -p tdals-bench --bin ablation
//! ```

use tdals_bench::{context_for, level_we, Effort};
use tdals_circuits::Benchmark;
use tdals_core::api::{Dcgwo, Flow};
use tdals_core::{ChaseStrategy, OptimizerConfig};

/// One ablation variant: its column name and how it changes the full
/// configuration.
type Variant = (&'static str, fn(OptimizerConfig) -> OptimizerConfig);

const VARIANTS: [Variant; 5] = [
    ("full DCGWO", |cfg| cfg),
    ("single-chase", |cfg| {
        cfg.with_chase(ChaseStrategy::SingleChase)
    }),
    // ω never exceeds an infinite threshold -> never does both.
    ("no both-action ω", |cfg| {
        cfg.with_omega_threshold(f64::INFINITY)
    }),
    // Full error budget from iteration 0.
    ("no relaxation", |cfg| {
        cfg.with_initial_constraint_fraction(1.0)
    }),
    // Every action is circuit searching.
    ("no reproduction", |cfg| cfg.with_reproduction(false)),
];

fn main() {
    let effort = Effort::from_env();
    let benches = effort.filter(vec![
        Benchmark::C880,
        Benchmark::Cavlc,
        Benchmark::Adder16,
        Benchmark::Max16,
    ]);

    println!("Ablation — Ratio_cpd per variant (effort {effort:?})");
    print!("{:<12}", "circuit");
    for (name, _) in &VARIANTS {
        print!(" {name:>16}");
    }
    println!();

    let mut sums = [0.0; VARIANTS.len()];
    for bench in &benches {
        let (ctx, metric) = context_for(*bench, effort);
        let bound = match metric {
            tdals_sim::ErrorMetric::ErrorRate => 0.05,
            tdals_sim::ErrorMetric::Nmed => 0.0244,
        };
        let full = OptimizerConfig::default()
            .with_population(effort.population())
            .with_iterations(effort.iterations())
            .with_level_we(level_we(metric))
            .with_seed(0xAB1A);
        print!("{:<12}", bench.name());
        for ((_, ablate), sum) in VARIANTS.iter().zip(&mut sums) {
            let outcome = Flow::for_context(&ctx)
                .error_bound(bound)
                .optimizer(Dcgwo::new(ablate(full.clone())))
                .run()
                .expect("valid session");
            *sum += outcome.ratio_cpd;
            print!(" {:>16.4}", outcome.ratio_cpd);
        }
        println!();
    }
    print!("{:<12}", "Average");
    for sum in sums {
        print!(" {:>16.4}", sum / benches.len() as f64);
    }
    println!();
}
