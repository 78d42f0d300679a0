//! Validates the Monte-Carlo estimator against itself at different
//! vector budgets — the paper's claim that VECBEE-style batch
//! estimation with 1e5 vectors achieves "nearly no deviation" scaled to
//! this workspace: how fast do ER/NMED estimates converge with vector
//! count, per benchmark?
//!
//! ```sh
//! cargo run --release -p tdals-bench --bin probe_accuracy
//! ```

use tdals_circuits::Benchmark;
use tdals_core::{random_lac, EvalContext, SearchScratch};
use tdals_sim::{simulate, ErrorMetric, Patterns};
use tdals_sta::TimingConfig;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let benches = [Benchmark::C880, Benchmark::Adder16, Benchmark::Max16];
    println!("estimator convergence: |metric(V vectors) - metric(65536 vectors)|");
    println!(
        "{:<10} {:<6} {:>10} {:>10} {:>10} {:>10}",
        "circuit", "metric", "512", "2048", "8192", "32768"
    );
    for bench in benches {
        let accurate = bench.build();
        let metric = match bench.class() {
            tdals_circuits::CircuitClass::RandomControl => ErrorMetric::ErrorRate,
            tdals_circuits::CircuitClass::Arithmetic => ErrorMetric::Nmed,
        };
        // One fixed approximate circuit: three random LACs.
        let ctx = EvalContext::new(
            &accurate,
            Patterns::random(accurate.input_count(), 1024, 5),
            metric,
            TimingConfig::default(),
            0.8,
        );
        let mut approx = accurate.clone();
        let mut rng = StdRng::seed_from_u64(99);
        let mut search = SearchScratch::default();
        for _ in 0..3 {
            let sim = ctx.simulate(&approx);
            if let Some(lac) = random_lac(&approx, &sim, 64, &mut search, &mut rng) {
                lac.apply(&mut approx).expect("legal LAC");
            }
        }

        let reference = measure(&accurate, &approx, metric, 65536);
        print!(
            "{:<10} {:<6}",
            bench.name(),
            match metric {
                ErrorMetric::ErrorRate => "ER",
                ErrorMetric::Nmed => "NMED",
            }
        );
        for vectors in [512usize, 2048, 8192, 32768] {
            let est = measure(&accurate, &approx, metric, vectors);
            print!(" {:>10.6}", (est - reference).abs());
        }
        println!("  (reference {reference:.6})");
    }
}

fn measure(
    accurate: &tdals_netlist::Netlist,
    approx: &tdals_netlist::Netlist,
    metric: ErrorMetric,
    vectors: usize,
) -> f64 {
    let p = Patterns::random(accurate.input_count(), vectors, 0xACC);
    metric.compute(&simulate(accurate, &p), &simulate(approx, &p))
}
