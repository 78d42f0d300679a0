//! # tdals-core
//!
//! The primary contribution of *"Timing-driven Approximate Logic
//! Synthesis Based on Double-chase Grey Wolf Optimizer"* (DATE 2025):
//! a timing-driven ALS framework that explores local approximate
//! changes (LACs) with a double-chase grey wolf optimizer and converts
//! the resulting area savings into drive strength — and hence critical
//! path delay — via post-optimization.
//!
//! The flow (Fig. 2 of the paper):
//!
//! 1. **Circuit representation** — gate fan-in adjacency netlists
//!    (provided by [`tdals_netlist`]);
//! 2. **DCGWO** ([`optimize`]) — population-based exploration of
//!    wire-by-wire / wire-by-constant LACs ([`Lac`]) with circuit
//!    searching ([`propose_lac_with`]) and circuit reproduction
//!    ([`reproduce`]) actions, fitness per Eq. 8 ([`EvalContext`]),
//!    NSGA-II-style population update ([`pareto`]) and asymptotic error
//!    constraint relaxation ([`ErrorSchedule`]);
//! 3. **Post-optimization** ([`post_optimize`]) — dangling-gate
//!    deletion and greedy gate re-sizing under an area constraint.
//!
//! The [`api`] module glues the three steps together behind one
//! session API — an [`Optimizer`] trait every method implements and a
//! builder-style [`Flow`] — and reports the paper's headline metric
//! `Ratio_cpd = CPD_fac / CPD_ori`.
//!
//! # Examples
//!
//! ```
//! use tdals_circuits::Benchmark;
//! use tdals_core::api::{Dcgwo, Flow};
//! use tdals_sim::ErrorMetric;
//!
//! let accurate = Benchmark::Int2float.build();
//! let outcome = Flow::for_netlist(&accurate)
//!     .metric(ErrorMetric::Nmed)
//!     .error_bound(0.0244)
//!     .vectors(1024) // quick demo settings
//!     .optimizer(Dcgwo::paper_for(ErrorMetric::Nmed).quick(8, 4))
//!     .run()
//!     .expect("valid configuration");
//! assert!(outcome.error <= 0.0244);
//! assert!(outcome.ratio_cpd <= 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
mod dcgwo;
mod fitness;
mod lac;
pub mod par;
pub mod pareto;
mod postopt;
mod reproduce;
mod schedule;
mod search;

pub use api::{
    Budget, BudgetTracker, CancelFlag, Dcgwo, Flow, FlowError, FlowEvent, FlowOutcome, FnObserver,
    NopObserver, Observer, OptimizeOutcome, Optimizer, StopReason,
};
pub use dcgwo::{
    optimize, optimize_session, ChaseStrategy, IterationStats, OptimizerConfig, OptimizerResult,
};
pub use fitness::{Candidate, DeltaEval, EvalContext, EvalScratch, LacScore};
pub use lac::{collect_targets, random_lac, select_switch, Lac, SearchScratch};
pub use postopt::{post_optimize, PostOptConfig, PostOptReport};
pub use reproduce::{reproduce, LevelWeights};
pub use schedule::ErrorSchedule;
pub use search::{propose_lac_with, SearchConfig};
