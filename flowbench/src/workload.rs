//! The named workloads: which circuit, error budget, stimulus size and
//! optimizers each one runs, in the shape of a batch job description.

use tdals_baselines::{Method, MethodConfig};
use tdals_circuits::Benchmark;
use tdals_core::par::split_seed;
use tdals_core::OptimizerConfig;
use tdals_sim::ErrorMetric;

/// One workload: a fixed circuit and budget, and the flows run on it
/// one after another (closed loop, one client).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Suite circuit; fixed for every seed.
    pub bench: Benchmark,
    /// Error metric of the bound.
    pub metric: ErrorMetric,
    /// Error bound under `metric`.
    pub bound: f64,
    /// Monte-Carlo vectors per evaluation.
    pub vectors: usize,
    /// Optimizers run in order on one shared evaluation context.
    pub methods: &'static [Method],
    /// Population size of the population methods.
    pub population: usize,
    /// Iterations of the optimizer.
    pub iterations: usize,
    /// Worker threads per flow.
    pub threads: usize,
    /// Wall seconds of one untraced unit process on the reference host
    /// (2-vCPU Xeon, release build); fixes how many sub-seeds a run of
    /// a given length measures, whatever the speed of the host.
    pub unit_s: f64,
    /// Whether this is the test-size variant ([`Job::reduced`]).
    pub reduced: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Job; 2] = [
    Job {
        name: "dcgwo-sin",
        bench: Benchmark::Sin,
        metric: ErrorMetric::Nmed,
        bound: 0.02,
        vectors: 4096,
        methods: &[Method::Dcgwo],
        population: 30,
        iterations: 20,
        threads: 1,
        unit_s: 3.3,
        reduced: false,
    },
    Job {
        name: "pop-c5315-t2",
        bench: Benchmark::C5315,
        metric: ErrorMetric::ErrorRate,
        bound: 0.05,
        vectors: 4096,
        methods: &[Method::Dcgwo, Method::Vaacs],
        population: 30,
        iterations: 20,
        threads: 2,
        unit_s: 5.0,
        reduced: false,
    },
];

impl Job {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Job> {
        WORKLOADS.into_iter().find(|job| job.name == name)
    }

    /// The same workload at test size: same circuit, metric, bound,
    /// methods and threads, with a small stimulus and search.
    pub fn reduced(&self) -> Job {
        Job {
            vectors: 256,
            population: 4,
            iterations: 1,
            reduced: true,
            ..self.clone()
        }
    }

    /// Shared optimizer knobs for one run seed.
    pub fn method_config(&self, seeds: Seeds) -> MethodConfig {
        MethodConfig::default()
            .with_population(self.population)
            .with_iterations(self.iterations)
            .with_level_we(OptimizerConfig::paper_level_we(self.metric))
            .with_seed(seeds.optimizer)
            .with_threads(self.threads)
    }
}

/// The two random streams of a run, both derived from the benchmark's
/// `--seed`: the circuit stays fixed, stimulus and search vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The seed given on the command line.
    pub run: u64,
    /// Monte-Carlo stimulus seed.
    pub stimulus: u64,
    /// Optimizer RNG seed.
    pub optimizer: u64,
}

impl Seeds {
    /// Splits the run seed into its streams.
    pub fn from_run(run: u64) -> Seeds {
        Seeds {
            run,
            stimulus: split_seed(run, 0),
            optimizer: split_seed(run, 1),
        }
    }

    /// The streams of unit sub-seed `sub`, split from both of the run's.
    pub fn for_unit(self, sub: u64) -> Seeds {
        Seeds {
            run: self.run,
            stimulus: split_seed(self.stimulus, sub),
            optimizer: split_seed(self.optimizer, sub),
        }
    }
}
