//! # tdals-bench
//!
//! Shared plumbing for the table/figure reproduction binaries and the
//! `bench_delta_sim` candidate-scoring gate. Every other binary in
//! `src/bin/` regenerates one table or figure of the paper's evaluation
//! section.
//!
//! The JSON codec lives in `tdals-obs`; it is re-exported here at its
//! old path for the benchmark tools that import it from this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod timing;

pub use tdals_obs::json;

use tdals_circuits::Benchmark;
use tdals_core::EvalContext;
use tdals_sim::{ErrorMetric, Patterns};
use tdals_sta::TimingConfig;

/// Effort preset for experiment binaries.
///
/// The paper runs population 30 × 20 iterations with 1e5 Monte-Carlo
/// vectors on a 32-core + 4×V100 machine; the presets scale that to a
/// single laptop core while keeping the comparisons method-fair (every
/// method sees the same budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Smoke-test effort: tiny populations, small circuits only.
    Quick,
    /// Default: paper-shaped populations with reduced vector counts.
    Standard,
    /// Paper-scale populations and vectors (slow).
    Full,
}

impl Effort {
    /// Reads the `TDALS_EFFORT` environment variable
    /// (`quick`/`standard`/`full`), defaulting to `Standard`.
    pub fn from_env() -> Effort {
        match std::env::var("TDALS_EFFORT").as_deref() {
            Ok("quick") => Effort::Quick,
            Ok("full") => Effort::Full,
            _ => Effort::Standard,
        }
    }

    /// Population size for population-based methods.
    pub fn population(self) -> usize {
        match self {
            Effort::Quick => 8,
            Effort::Standard => 30,
            Effort::Full => 30,
        }
    }

    /// Iteration budget.
    ///
    /// The paper's `Imax` is 20 with 1e5 Monte-Carlo vectors per
    /// evaluation; with this workspace's reduced vector counts, extra
    /// iterations buy back exploration at equal wall-clock fairness
    /// (greedy baselines converge and stop on their own well before
    /// their round caps).
    pub fn iterations(self) -> usize {
        match self {
            Effort::Quick => 5,
            Effort::Standard => 64,
            Effort::Full => 96,
        }
    }

    /// Monte-Carlo vectors per evaluation, scaled by circuit size.
    pub fn vectors(self, gates: usize) -> usize {
        let base = match self {
            Effort::Quick => 1024,
            Effort::Standard => 2048,
            Effort::Full => 8192,
        };
        // Very large circuits get fewer vectors to bound runtime.
        if gates > 8000 {
            base / 4
        } else if gates > 2000 {
            base / 2
        } else {
            base
        }
    }

    /// Benchmarks to include at this effort (Quick trims the largest).
    pub fn filter(self, benches: Vec<Benchmark>) -> Vec<Benchmark> {
        match self {
            Effort::Quick => benches
                .into_iter()
                .filter(|b| b.build().logic_gate_count() < 2000)
                .collect(),
            _ => benches,
        }
    }
}

/// Builds the evaluation context for one benchmark the way every
/// experiment binary does: deterministic stimulus seeded by the
/// benchmark name, metric per the benchmark's class, `wd = 0.8`.
pub fn context_for(bench: Benchmark, effort: Effort) -> (EvalContext, ErrorMetric) {
    context_for_wd(bench, effort, 0.8)
}

/// Same as [`context_for`] with an explicit depth weight (the Fig. 6
/// sweep varies `wd`).
pub fn context_for_wd(bench: Benchmark, effort: Effort, wd: f64) -> (EvalContext, ErrorMetric) {
    let accurate = bench.build();
    let metric = match bench.class() {
        tdals_circuits::CircuitClass::RandomControl => ErrorMetric::ErrorRate,
        tdals_circuits::CircuitClass::Arithmetic => ErrorMetric::Nmed,
    };
    let seed = bench
        .name()
        .bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b.into()));
    let vectors = effort.vectors(accurate.logic_gate_count());
    let patterns = Patterns::random(accurate.input_count(), vectors, seed);
    let ctx = EvalContext::new(&accurate, patterns, metric, TimingConfig::default(), wd);
    (ctx, metric)
}

/// `we` of the reproduction `Level` function per the paper's setting.
pub fn level_we(metric: ErrorMetric) -> f64 {
    tdals_core::OptimizerConfig::paper_level_we(metric)
}

/// ER sweep bounds of Fig. 7a (1%–5%).
pub const ER_BOUNDS: [f64; 5] = [0.01, 0.02, 0.03, 0.04, 0.05];
/// NMED sweep bounds of Fig. 7b (0.48%–2.44%).
pub const NMED_BOUNDS: [f64; 5] = [0.0048, 0.0098, 0.0147, 0.0196, 0.0244];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efforts_scale_monotonically() {
        assert!(Effort::Quick.population() < Effort::Full.population());
        assert!(Effort::Quick.iterations() < Effort::Full.iterations());
        assert!(Effort::Quick.vectors(100) < Effort::Full.vectors(100));
    }

    #[test]
    fn big_circuits_get_fewer_vectors() {
        assert!(Effort::Standard.vectors(10_000) < Effort::Standard.vectors(100));
    }

    #[test]
    fn context_builds_for_both_classes() {
        let (ctx, metric) = context_for(Benchmark::Cavlc, Effort::Quick);
        assert_eq!(metric, ErrorMetric::ErrorRate);
        assert!(ctx.cpd_ori() > 0.0);
        let (ctx, metric) = context_for(Benchmark::Max16, Effort::Quick);
        assert_eq!(metric, ErrorMetric::Nmed);
        assert!(ctx.area_ori() > 0.0);
    }
}
