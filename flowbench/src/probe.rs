//! Layer probe: times each layer's public functions on a flow's own
//! inputs — the accurate circuit and the final population's netlists —
//! and attributes the flow's optimize time to those layers.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdals_baselines::Method;
use tdals_bench::timing::Stopwatch;
use tdals_core::pareto::{select, Objectives};
use tdals_core::{
    propose_lac_with, reproduce, Candidate, EvalContext, LevelWeights, OptimizerConfig,
    SearchConfig,
};
use tdals_netlist::Netlist;
use tdals_sim::{simulate, Patterns};
use tdals_sta::IncrementalSta;

use crate::measure::FlowRun;
use crate::spans::SpanTimes;
use crate::stats::median;
use crate::workload::{Job, Seeds};

/// Fewest samples per layer function; small populations are probed in
/// several passes.
const MIN_SAMPLES: usize = 12;

/// Selection calls timed per pass (one call is a few microseconds).
const SELECT_REPS: u32 = 64;

/// Median microseconds per call of each probed layer function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `Netlist::clone`.
    pub clone_us: f64,
    /// Full simulation on the context's stimulus.
    pub simulate_us: f64,
    /// Simulation on HEDALS's one-eighth probe stimulus.
    pub simulate_probe_us: f64,
    /// Full static timing analysis.
    pub analyze_us: f64,
    /// `IncrementalSta::new`.
    pub incremental_new_us: f64,
    /// `EvalContext::delta_eval`: one fresh scoring base.
    pub delta_eval_us: f64,
    /// `propose_lac_with` on that base.
    pub propose_us: f64,
    /// `EvalContext::score_lac` of the proposed LAC on that base.
    pub score_lac_us: f64,
    /// `EvalContext::evaluate`.
    pub evaluate_us: f64,
    /// `reproduce` of two population members.
    pub reproduce_us: f64,
    /// Non-dominated selection over population plus offspring scores.
    pub select_us: f64,
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Stopwatch::start();
    let out = black_box(f());
    (out, clock.elapsed_s() * 1e6)
}

/// Probes every layer on a flow unit's inputs: the accurate circuit and
/// the final `population` of each of its flows. Each netlist gets its
/// own scoring base; no base is shared between candidates.
pub fn probe(ctx: &EvalContext, job: &Job, seeds: Seeds, population: &[Candidate]) -> LayerTimes {
    let mut candidates: Vec<Candidate> = vec![ctx.evaluate(ctx.accurate().clone())];
    candidates.extend(population.iter().cloned());
    let netlists: Vec<&Netlist> = candidates.iter().map(|c| &c.netlist).collect();
    // HEDALS's candidate-ranking stimulus: an eighth of the vectors.
    let probe_patterns = Patterns::random(
        ctx.accurate().input_count(),
        (job.vectors / 8).max(256),
        seeds.optimizer ^ 0x9E37,
    );
    let weights =
        LevelWeights::paper_defaults(ctx.cpd_ori(), OptimizerConfig::paper_level_we(job.metric))
            .with_error_floor(0.1 * job.bound);
    let search = SearchConfig::default();
    let mut rng = StdRng::seed_from_u64(seeds.optimizer);

    let mut s = Samples::default();
    let passes = MIN_SAMPLES.div_ceil(netlists.len());
    for _ in 0..passes {
        let mut points: Vec<Objectives> = candidates
            .iter()
            .map(|c| Objectives::new(c.fd, c.fa))
            .collect();
        for (i, netlist) in netlists.iter().enumerate() {
            s.clone.push(time_us(|| (*netlist).clone()).1);
            s.simulate.push(time_us(|| ctx.simulate(netlist)).1);
            s.simulate_probe
                .push(time_us(|| simulate(netlist, &probe_patterns)).1);
            s.analyze.push(time_us(|| ctx.analyze(netlist)).1);
            s.incremental_new
                .push(time_us(|| IncrementalSta::new(netlist, *ctx.timing())).1);

            let owned = (*netlist).clone();
            let (base, us) = time_us(|| ctx.delta_eval(owned));
            s.delta_eval.push(us);
            let report = base.report();
            let (lac, us) = time_us(|| {
                propose_lac_with(base.netlist(), &report, base.sim(), &search, &mut rng)
            });
            s.propose.push(us);
            if let Some(lac) = lac {
                let (score, us) = time_us(|| ctx.score_lac(&base, lac));
                s.score_lac.push(us);
                points.push(Objectives::new(score.fd, score.fa));
            }
            drop(base);

            let owned = (*netlist).clone();
            s.evaluate.push(time_us(|| ctx.evaluate(owned)).1);

            let partner = &candidates[(i + 1) % candidates.len()];
            s.reproduce
                .push(time_us(|| reproduce(&candidates[i], partner, &weights)).1);
        }
        let (_, us) = time_us(|| {
            for _ in 0..SELECT_REPS {
                black_box(select(black_box(&points), job.population));
            }
        });
        s.select.push(us / f64::from(SELECT_REPS));
    }
    s.medians()
}

#[derive(Default)]
struct Samples {
    clone: Vec<f64>,
    simulate: Vec<f64>,
    simulate_probe: Vec<f64>,
    analyze: Vec<f64>,
    incremental_new: Vec<f64>,
    delta_eval: Vec<f64>,
    propose: Vec<f64>,
    score_lac: Vec<f64>,
    evaluate: Vec<f64>,
    reproduce: Vec<f64>,
    select: Vec<f64>,
}

impl Samples {
    fn medians(&self) -> LayerTimes {
        LayerTimes {
            clone_us: median(&self.clone),
            simulate_us: median(&self.simulate),
            simulate_probe_us: median(&self.simulate_probe),
            analyze_us: median(&self.analyze),
            incremental_new_us: median(&self.incremental_new),
            delta_eval_us: median(&self.delta_eval),
            propose_us: median(&self.propose),
            score_lac_us: median(&self.score_lac),
            evaluate_us: median(&self.evaluate),
            reproduce_us: median(&self.reproduce),
            select_us: median(&self.select),
        }
    }
}

/// Seconds of one flow's optimize phase that the probed layer costs
/// account for, from the flow's counters and the per-call medians.
///
/// The call counts follow each method's loop: DCGWO scores searched
/// offspring through a fresh base (one cone preview each) and fully
/// evaluates reproduced ones; the genetic method reproduces and
/// evaluates every child. Only the methods a workload runs have a
/// model.
pub fn attributed_s(job: &Job, run: &FlowRun, spans: &SpanTimes, t: &LayerTimes) -> f64 {
    let c = &run.counters;
    let evaluations = c.evaluations as f64;
    let iterations = spans.iteration_ms.len() as f64;
    let us = match run.method {
        Method::Dcgwo => {
            let seeded = (job.population as f64).min(evaluations);
            let scored = c.delta_previews as f64;
            let full = (evaluations - seeded - scored).max(0.0);
            // With worker threads every member's base is built eagerly.
            let bases = if job.threads > 1 {
                iterations * job.population as f64
            } else {
                scored
            };
            bases * (t.clone_us + t.delta_eval_us)
                + scored * (t.propose_us + t.score_lac_us)
                + full * (t.reproduce_us + t.evaluate_us)
                + seeded * (t.clone_us + t.analyze_us)
                + iterations * t.select_us
        }
        Method::Vaacs => evaluations * (t.reproduce_us + t.evaluate_us),
        other => unreachable!("no workload runs {other}, so it has no cost model"),
    };
    us * 1e-6
}
