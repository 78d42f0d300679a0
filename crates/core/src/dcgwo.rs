//! The double-chase grey wolf optimizer (DCGWO, §III-B) and the
//! traditional single-chase GWO baseline it is compared against.
//!
//! Per iteration the population is divided into the **leader** (fitness
//! rank 1), **elite circuits** (ranks 2-4) and the **ω group** (the
//! rest). Chase 1 has the leader guide the elites; Chase 2 has the
//! elites guide ω. Each circuit takes an approximate action — circuit
//! searching or circuit reproduction — chosen by comparing its decision
//! parameter `W = A·D` (Eqs. 4-6, with the scaling factor `a` of Eq. 7
//! decaying over iterations) against the hierarchy's threshold. After
//! the chase, candidates are filtered by the asymptotically relaxed
//! error constraint and reduced to the next population by non-dominated
//! sorting with crowding distance.
//!
//! Each iteration runs in two halves. The serial chase owns the run's
//! RNG and decides every action: the decision parameters, the partner
//! picks and the reproduce-or-search coins; it draws one stream seed
//! per iteration and gives its k-th search child the proposal stream
//! [`par::split_seed`]`(stream, k)`. The offspring pass then builds,
//! proposes and scores every child over the worker pool, each worker in
//! its own recycled scoring base, so a search child's draws and score
//! are the same on any worker and at any thread count. A reproduced
//! child is named by its two parents and reproduced on the worker that
//! claims it (reproduction draws nothing). The same base builds the
//! worker's seeded members and scores its reproduced children: one
//! scoring object per worker for the whole run.
//!
//! A score depends only on the netlist, so no distinct netlist is paid
//! for twice. A reproduced child equal to one of its parents takes that
//! parent's measurements ([`EvalContext::evaluate_reusing`]), and the
//! search children of equal netlists share one scoring base, built
//! once, each proposing from its own stream. Every child still counts
//! as one evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_netlist::Netlist;
use tdals_sim::ErrorMetric;

use crate::api::{
    Budget, BudgetTracker, FlowEvent, Observer, OptimizeOutcome, Optimizer, StopReason,
};
use crate::fitness::{Candidate, DeltaEval, EvalContext, LacScore};
use crate::lac::{random_lac, Lac, SearchScratch};
use crate::par;
use crate::pareto::{select, Objectives};
use crate::reproduce::{reproduce, LevelWeights};
use crate::schedule::ErrorSchedule;
use crate::search::{propose_lac_in, SearchConfig};

/// Population-guidance strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseStrategy {
    /// The paper's contribution: leader → elites → ω double chase.
    DoubleChase,
    /// Traditional GWO: the three best circuits guide everyone else in
    /// a single hierarchy.
    SingleChase,
}

/// Decision threshold `S_e` for elite circuits (and, under single
/// chase, for the whole pack).
const ELITE_THRESHOLD: f64 = 0.5;

/// Fraction of `Imax` at which the relaxation schedule reaches the full
/// error budget (the paper's "empirical parameter b" expressed as a
/// horizon); the remaining iterations exploit the full budget.
const RELAX_HORIZON: f64 = 0.6;

/// LACs applied to the accurate circuit per initial member.
const INITIAL_LACS: usize = 2;

/// Tunable parameters of the optimizer.
///
/// Defaults follow §IV-A of the paper: population 30, 20 iterations,
/// `wd = 0.8`, `wt = 0.9 × CPD_ori` (via [`LevelWeights`]), `we` of
/// 0.1 (ER) / 0.2 (NMED) supplied per run. Circuit searching always
/// runs with [`SearchConfig::default`], the paper's whole-fan-in scan
/// over every PO's critical path.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct OptimizerConfig {
    /// Population size `N`.
    pub population: usize,
    /// Iteration limit `Imax`.
    pub iterations: usize,
    /// Error weight `we` of the reproduction `Level` function.
    pub level_we: f64,
    /// Decision threshold `S_ω` for ω circuits.
    pub omega_threshold: f64,
    /// Starting fraction of the error budget for the asymptotic
    /// relaxation schedule.
    pub initial_constraint_fraction: f64,
    /// Double- or single-chase guidance.
    pub chase: ChaseStrategy,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Worker threads for seeding and for building, proposing and
    /// scoring the offspring (the paper exploits "the inherent
    /// parallelism of GWO"); `1` evaluates inline, `0` means one worker
    /// per available core. Each worker holds one recycled scoring base,
    /// a [`DeltaEval`] with the words of one full simulation, for the
    /// whole run: it builds the worker's seeded members and every child
    /// the worker claims. So memory grows by about one simulation's
    /// words per worker, and every distinct search netlist is built
    /// exactly once whatever the width. Results are bit-identical for
    /// any thread count (see [`crate::par`]).
    pub threads: usize,
    /// Enables the circuit-reproduction action (ablation knob; with it
    /// off, every action is circuit searching).
    pub reproduction: bool,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            population: 30,
            iterations: 20,
            level_we: 0.1,
            omega_threshold: 0.3,
            initial_constraint_fraction: 0.25,
            chase: ChaseStrategy::DoubleChase,
            seed: 0xDC6E0,
            threads: 1,
            reproduction: true,
        }
    }
}

impl OptimizerConfig {
    /// The paper's error weight `we` of the reproduction `Level`
    /// function for a metric: 0.1 under ER, 0.2 under NMED (§IV-A).
    /// The single source of truth for every entry point that mimics
    /// the paper's protocol.
    pub fn paper_level_we(metric: ErrorMetric) -> f64 {
        match metric {
            ErrorMetric::ErrorRate => 0.1,
            ErrorMetric::Nmed => 0.2,
        }
    }

    /// Sets the population size `N`.
    pub fn with_population(mut self, population: usize) -> OptimizerConfig {
        self.population = population;
        self
    }

    /// Sets the iteration limit `Imax`.
    pub fn with_iterations(mut self, iterations: usize) -> OptimizerConfig {
        self.iterations = iterations;
        self
    }

    /// Sets the error weight `we` of the reproduction `Level` function.
    pub fn with_level_we(mut self, level_we: f64) -> OptimizerConfig {
        self.level_we = level_we;
        self
    }

    /// Sets the ω decision threshold `S_ω`.
    pub fn with_omega_threshold(mut self, omega_threshold: f64) -> OptimizerConfig {
        self.omega_threshold = omega_threshold;
        self
    }

    /// Sets the starting fraction of the error budget for the
    /// asymptotic relaxation schedule.
    pub fn with_initial_constraint_fraction(mut self, fraction: f64) -> OptimizerConfig {
        self.initial_constraint_fraction = fraction;
        self
    }

    /// Sets double- or single-chase guidance.
    pub fn with_chase(mut self, chase: ChaseStrategy) -> OptimizerConfig {
        self.chase = chase;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> OptimizerConfig {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for offspring evaluation.
    pub fn with_threads(mut self, threads: usize) -> OptimizerConfig {
        self.threads = threads;
        self
    }

    /// Enables or disables the circuit-reproduction action.
    pub fn with_reproduction(mut self, reproduction: bool) -> OptimizerConfig {
        self.reproduction = reproduction;
        self
    }
}

/// Per-iteration progress record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Error constraint in force.
    pub constraint: f64,
    /// Best fitness in the surviving population.
    pub best_fitness: f64,
    /// Depth of that best circuit.
    pub best_depth: u32,
    /// Live area of that best circuit.
    pub best_area: f64,
    /// Number of error-feasible candidates this round.
    pub feasible: usize,
}

/// The paper's double-chase grey wolf optimizer (and its single-chase
/// ablation) behind the [`Optimizer`] trait.
#[derive(Debug, Clone)]
pub struct Dcgwo {
    cfg: OptimizerConfig,
}

impl Dcgwo {
    /// The paper's §IV-A configuration (population 30, 20 iterations,
    /// `we` = 0.1 — the ER setting; see [`Dcgwo::paper_for`]).
    pub fn paper() -> Dcgwo {
        Dcgwo::new(OptimizerConfig::default())
    }

    /// The paper's configuration with the error weight `we` matched to
    /// the metric (0.1 under ER, 0.2 under NMED).
    pub fn paper_for(metric: ErrorMetric) -> Dcgwo {
        Dcgwo::new(
            OptimizerConfig::default().with_level_we(OptimizerConfig::paper_level_we(metric)),
        )
    }

    /// The traditional single-chase GWO baseline.
    pub fn single_chase() -> Dcgwo {
        Dcgwo::new(OptimizerConfig::default().with_chase(ChaseStrategy::SingleChase))
    }

    /// Wraps an explicit configuration.
    pub fn new(cfg: OptimizerConfig) -> Dcgwo {
        Dcgwo { cfg }
    }

    /// Shrinks population/iterations for demos and tests.
    pub fn quick(mut self, population: usize, iterations: usize) -> Dcgwo {
        self.cfg.population = population;
        self.cfg.iterations = iterations;
        self
    }
}

impl Optimizer for Dcgwo {
    fn name(&self) -> &str {
        match self.cfg.chase {
            ChaseStrategy::DoubleChase => "DCGWO",
            ChaseStrategy::SingleChase => "GWO",
        }
    }

    fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    /// Budget checks and event emission never touch the RNG stream, so
    /// a run under any budget follows the unlimited run's draws up to
    /// the iteration where it stops.
    fn optimize(
        &mut self,
        ctx: &EvalContext,
        error_bound: f64,
        budget: &Budget,
        obs: &mut dyn Observer,
    ) -> OptimizeOutcome {
        let cfg = &self.cfg;
        let mut tracker = budget.start_tracking();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let horizon = ((cfg.iterations as f64 * RELAX_HORIZON).round() as usize)
            .clamp(1, cfg.iterations.max(1));
        let schedule =
            ErrorSchedule::with_horizon(error_bound, cfg.initial_constraint_fraction, horizon);
        // Per-PO errors below a tenth of the budget count as "clean" in
        // the reproduction Level, letting its timing term pick the
        // faster of two acceptable cones.
        let weights = LevelWeights::paper_defaults(ctx.cpd_ori(), cfg.level_we)
            .with_error_floor(0.1 * error_bound);

        // Initial population: LACs on randomly selected target gates of
        // the accurate circuit; member 0 stays accurate as a feasible
        // anchor. Every worker keeps one scoring base for the whole run.
        // A seeded member starts in it as the accurate circuit, rebuilt
        // by one full simulation into the base's words, and runs its LAC
        // chain there, each commit re-evaluating only the mutated cone;
        // the accurate anchor is the first worker's base read as it
        // starts.
        let mut workers: Vec<WorkerScratch> = vec![WorkerScratch::default()];
        let accurate =
            ctx.evaluate_base(ctx.rebuild_in(&mut workers[0].base, ctx.accurate().clone()));
        tracker.record_evaluations(1);
        let threads = par::resolve_threads(cfg.threads);
        let mut population: Vec<Candidate> = Vec::with_capacity(cfg.population);
        let mut best = accurate.clone();
        population.push(accurate.clone());
        // Seed the rest of the population over the worker pool, each
        // member with an RNG stream split off the run seed by member
        // index, so its LAC chain — whose switch selection reads the
        // member's own evolving simulation state — draws the same
        // switches whether it is built inline or on any worker. The
        // admission loop below runs serially in member order: the
        // deterministic budget caps stop admission at the same member
        // for every thread count, while cancellation and the deadline
        // stop the fan-out within about one member per worker. The
        // accurate anchor is already in, so stopping early is always
        // safe.
        let member_seeds: Vec<u64> = (1..cfg.population)
            .map(|i| par::split_seed(cfg.seed, i as u64))
            .take(tracker.seed_budget())
            .collect();
        let seeded = par::par_map_with(
            threads,
            &mut workers,
            member_seeds,
            |worker, member_seed| worker.seed(ctx, INITIAL_LACS, member_seed),
            || tracker.interrupted().is_none(),
        );
        for cand in seeded.results {
            if tracker.stop_before_iteration(0).is_some() {
                break;
            }
            tracker.record_evaluations(1);
            if track_best(&mut best, &cand, error_bound) {
                obs.on_event(&best_improved_event(0, &best));
            }
            population.push(cand);
        }

        let mut stop = StopReason::Completed;
        let mut history = Vec::with_capacity(cfg.iterations);
        for iter in 0..cfg.iterations {
            if let Some(reason) = tracker.stop_before_iteration(iter) {
                stop = reason;
                break;
            }
            let constraint = schedule.bound_at(iter);
            obs.on_event(&FlowEvent::IterationStarted {
                iteration: iter,
                constraint,
            });
            let a = 2.0 - 2.0 * iter as f64 / cfg.iterations.max(1) as f64;
            sort_by_fitness(&mut population);

            // The serial chase decides every action; the search
            // children's proposal streams split off one draw of the
            // chase RNG.
            let stream: u64 = rng.gen();
            let mut chase = Chase {
                population: &population,
                weights: &weights,
                cfg,
                rng: &mut rng,
                stream,
                searches: 0,
            };
            let offspring = match cfg.chase {
                ChaseStrategy::DoubleChase => chase.double(a),
                ChaseStrategy::SingleChase => chase.single(a),
            };

            // Build, propose and score the offspring over the worker
            // pool, polling for cancellation/deadline after every unit
            // this thread scores, so a raised flag stops the run within
            // about one unit per worker even mid-iteration. Best-so-far
            // tracking and event emission stay on this thread, in
            // candidate-index order.
            let scored =
                evaluate_offspring(ctx, &weights, offspring, threads, &mut workers, &tracker);
            tracker.record_evaluations(scored.results.len() as u64);
            let mut new_entries: Vec<PoolEntry> = Vec::with_capacity(scored.results.len());
            for entry in scored.results {
                if entry.error() <= error_bound && entry.fitness() > best.fitness {
                    best = entry.to_candidate();
                    obs.on_event(&best_improved_event(iter, &best));
                }
                new_entries.push(entry);
            }
            if !scored.completed {
                // The interrupt is sticky (the flag stays raised, the
                // deadline stays expired), so re-reading it here names
                // the abort reason. The previous population survives
                // untouched; whatever the completed children found
                // already fed the best-so-far above.
                stop = tracker
                    .interrupted()
                    .expect("an aborted fan-out implies a sticky interrupt");
                break;
            }

            // Candidates group: circuits before and after the chase.
            // New offspring stay un-materialized (scores only) until
            // they survive selection.
            let mut candidates: Vec<PoolEntry> =
                population.into_iter().map(PoolEntry::Ready).collect();
            candidates.extend(new_entries);

            // Error filter at the current (relaxed) constraint, with a
            // lowest-error fallback so the population never dies out.
            let mut feasible: Vec<PoolEntry> = Vec::with_capacity(candidates.len());
            let mut infeasible: Vec<PoolEntry> = Vec::new();
            for cand in candidates {
                if cand.error() <= constraint {
                    feasible.push(cand);
                } else {
                    infeasible.push(cand);
                }
            }
            let feasible_count = feasible.len();
            if feasible.len() < cfg.population {
                infeasible.sort_by(|x, y| x.error().total_cmp(&y.error()));
                feasible.extend(infeasible.into_iter().take(cfg.population - feasible.len()));
            }

            // Non-dominated sorting + crowding selection down to N; only
            // the survivors pay the netlist materialization.
            let points: Vec<Objectives> = feasible.iter().map(PoolEntry::objectives).collect();
            let keep = select(&points, cfg.population);
            let mut next: Vec<Candidate> = Vec::with_capacity(keep.len());
            let mut taken: Vec<Option<PoolEntry>> = feasible.into_iter().map(Some).collect();
            for idx in keep {
                next.push(
                    taken[idx]
                        .take()
                        .expect("selection indices are unique")
                        .into_candidate(),
                );
            }
            population = next;

            let best_now = population
                .iter()
                .max_by(|x, y| x.fitness.total_cmp(&y.fitness))
                .expect("population is never empty");
            let stats = IterationStats {
                iteration: iter,
                constraint,
                best_fitness: best_now.fitness,
                best_depth: best_now.depth,
                best_area: best_now.area,
                feasible: feasible_count,
            };
            history.push(stats);
            obs.on_event(&FlowEvent::IterationFinished { stats });
        }

        sort_by_fitness(&mut population);
        OptimizeOutcome {
            best,
            population,
            history,
            evaluations: tracker.evaluations(),
            stop,
        }
    }
}

/// What one worker keeps for the whole run, so that seeding and
/// scoring reuse storage instead of allocating per member or child.
/// Every use overwrites what it reads: nothing here carries information
/// from one candidate to the next, and results equal those with fresh
/// buffers, whichever worker serves a member or child.
#[derive(Default)]
struct WorkerScratch {
    /// The worker's one scoring object. Seeded members are built in it
    /// by commits from the accurate circuit; search children are built,
    /// proposed and scored in it, rebuilt once per distinct netlist;
    /// reproduced children that equal neither parent are rebuilt in it
    /// and read off it. It holds the cone previews' overlay rows too.
    base: Option<DeltaEval>,
    /// Switch-selection marks for proposals and seeding LACs.
    search: SearchScratch,
}

/// One chase product awaiting evaluation.
///
/// Search children are proposed and ranked by re-evaluating only the
/// proposed substitution's affected cone; reproduced children (whole
/// fan-in rows copied between parents) have no single-cone provenance
/// and are scored by rebuilding the worker's base at them, unless they
/// equal a parent.
enum Offspring<'p> {
    /// The reproduced child of `a` and `b`, reproduced on the worker
    /// that claims it.
    Reproduce { a: &'p Candidate, b: &'p Candidate },
    /// Propose a LAC on `netlist`, drawing from the proposal stream
    /// `seed`, and score the result.
    Search { netlist: Netlist, seed: u64 },
}

/// One unit of the offspring pass: a full or reused evaluation, or
/// every search child of one netlist, which share one scoring base.
/// Each child keeps its index in offspring order.
enum Work<'p> {
    Single(usize, Offspring<'p>),
    Search {
        netlist: Netlist,
        children: Vec<(usize, u64)>,
    },
}

/// A scored member of the survivor-selection pool. Lazy entries defer
/// netlist materialization until they actually survive selection (or
/// set a new best): losing candidates never apply their LAC, and a
/// surviving one materializes by mutating the owned base netlist in
/// place. A lazy entry holds no simulated words or timing arrays; those
/// stay in the workers' recycled scoring bases.
enum PoolEntry {
    Ready(Candidate),
    Lazy {
        /// The pre-LAC base netlist, owned.
        netlist: Netlist,
        lac: Lac,
        score: LacScore,
    },
}

impl PoolEntry {
    fn error(&self) -> f64 {
        match self {
            PoolEntry::Ready(c) => c.error,
            PoolEntry::Lazy { score, .. } => score.error,
        }
    }

    fn fitness(&self) -> f64 {
        match self {
            PoolEntry::Ready(c) => c.fitness,
            PoolEntry::Lazy { score, .. } => score.fitness,
        }
    }

    fn objectives(&self) -> Objectives {
        match self {
            PoolEntry::Ready(c) => Objectives::new(c.fd, c.fa),
            PoolEntry::Lazy { score, .. } => Objectives::new(score.fd, score.fa),
        }
    }

    /// Materializes without consuming (used by best-so-far tracking).
    fn to_candidate(&self) -> Candidate {
        match self {
            PoolEntry::Ready(c) => c.clone(),
            PoolEntry::Lazy {
                netlist,
                lac,
                score,
            } => {
                let mut netlist = netlist.clone();
                lac.apply(&mut netlist).expect("scored LAC is legal");
                score.clone().into_candidate(netlist)
            }
        }
    }

    /// Materializes, consuming the entry (used for survivors); the
    /// owned base netlist is mutated in place — no clone.
    fn into_candidate(self) -> Candidate {
        match self {
            PoolEntry::Ready(c) => c,
            PoolEntry::Lazy {
                mut netlist,
                lac,
                score,
            } => {
                lac.apply(&mut netlist).expect("scored LAC is legal");
                score.into_candidate(netlist)
            }
        }
    }
}

/// Scores offspring into pool entries over the worker pool, polling the
/// tracker's bounded-latency interrupts after every unit the calling
/// thread scores. A child's entry depends only on the child, never on
/// which worker's buffers served it or which children shared its base,
/// and the output order matches the input order, so parallel and serial
/// runs are bit-identical; an aborted run returns the completed prefix
/// with `completed == false`.
fn evaluate_offspring(
    ctx: &EvalContext,
    weights: &LevelWeights,
    offspring: Vec<Offspring<'_>>,
    threads: usize,
    workers: &mut Vec<WorkerScratch>,
    tracker: &BudgetTracker,
) -> par::ParMap<PoolEntry> {
    let count = offspring.len();
    let scored = par::par_map_with(
        threads,
        workers,
        group_searches(offspring),
        |worker, work| worker.score(ctx, weights, work),
        || tracker.interrupted().is_none(),
    );
    let mut entries: Vec<Option<PoolEntry>> = (0..count).map(|_| None).collect();
    for (k, entry) in scored.results.into_iter().flatten() {
        entries[k] = Some(entry);
    }
    let results: Vec<PoolEntry> = entries.into_iter().map_while(|entry| entry).collect();
    par::ParMap {
        completed: results.len() == count,
        results,
    }
}

/// The offspring as work units, in order of their first child: search
/// children of equal netlists are gathered into one unit, found by
/// [`Netlist::wiring_hash`] and confirmed by comparing the netlists.
fn group_searches(offspring: Vec<Offspring<'_>>) -> Vec<Work<'_>> {
    let mut work: Vec<Work<'_>> = Vec::with_capacity(offspring.len());
    // (wiring hash, unit index) of every search unit so far.
    let mut searches: Vec<(u64, usize)> = Vec::new();
    for (k, off) in offspring.into_iter().enumerate() {
        let Offspring::Search { netlist, seed } = off else {
            work.push(Work::Single(k, off));
            continue;
        };
        let print = netlist.wiring_hash();
        let same = searches.iter().find(|&&(p, unit)| {
            p == print && matches!(&work[unit], Work::Search { netlist: n, .. } if *n == netlist)
        });
        match same.map(|&(_, unit)| &mut work[unit]) {
            Some(Work::Search { children, .. }) => children.push((k, seed)),
            _ => {
                searches.push((print, work.len()));
                work.push(Work::Search {
                    netlist,
                    children: vec![(k, seed)],
                });
            }
        }
    }
    work
}

impl WorkerScratch {
    /// Builds the seeded member of stream `member_seed` in this worker's
    /// base: the accurate circuit, rebuilt in it, then `lacs` random
    /// LACs committed in turn, each drawn from the member's current
    /// words over the switch's whole fan-in. The candidate is read off
    /// the base.
    fn seed(&mut self, ctx: &EvalContext, lacs: usize, member_seed: u64) -> Candidate {
        let mut rng = StdRng::seed_from_u64(member_seed);
        let base = ctx.rebuild_in(&mut self.base, ctx.accurate().clone());
        for _ in 0..lacs {
            if let Some(lac) = random_lac(
                base.netlist(),
                base.sim(),
                usize::MAX,
                &mut self.search,
                &mut rng,
            ) {
                base.commit(lac.target(), lac.switch()).expect("legal LAC");
            }
        }
        // The commits cascaded the live area; the candidate's is a
        // fresh sum.
        base.recount();
        ctx.evaluate_base(base)
    }

    /// Scores one work unit, each entry with its offspring index. A
    /// search unit's netlist is built once in this worker's recycled
    /// base; each of its children proposes from its own stream (the
    /// base's words feed similarity-based switch selection and its
    /// timing engine critical-path target collection) and is scored
    /// there. A reproduced child is reproduced here from its parents
    /// under `weights`: one equal to a parent takes that parent's
    /// measurements, and any other is the base rebuilt at it and read
    /// off it, as is a search child with nothing to propose.
    fn score(
        &mut self,
        ctx: &EvalContext,
        weights: &LevelWeights,
        work: Work<'_>,
    ) -> Vec<(usize, PoolEntry)> {
        let (netlist, children) = match work {
            Work::Single(k, Offspring::Reproduce { a, b }) => {
                let netlist = reproduce(a, b, weights);
                let child = match [a, b].into_iter().find(|parent| parent.netlist == netlist) {
                    Some(parent) => ctx.evaluate_reusing(netlist, parent),
                    None => ctx.evaluate_base(ctx.rebuild_in(&mut self.base, netlist)),
                };
                return vec![(k, PoolEntry::Ready(child))];
            }
            Work::Single(k, Offspring::Search { netlist, seed }) => (netlist, vec![(k, seed)]),
            Work::Search { netlist, children } => (netlist, children),
        };
        let base = ctx.rebuild_in(&mut self.base, netlist);
        children
            .into_iter()
            .map(|(k, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let lac = propose_lac_in(
                    base.netlist(),
                    &*base.sta(),
                    base.sim(),
                    &SearchConfig::default(),
                    &mut self.search,
                    &mut rng,
                );
                let entry = match lac {
                    Some(lac) => PoolEntry::Lazy {
                        netlist: base.netlist().clone(),
                        lac,
                        score: ctx.score_lac(base, lac),
                    },
                    None => PoolEntry::Ready(ctx.evaluate_base(base)),
                };
                (k, entry)
            })
            .collect()
    }
}

fn sort_by_fitness(population: &mut [Candidate]) {
    population.sort_by(|x, y| y.fitness.total_cmp(&x.fitness));
}

fn track_best(best: &mut Candidate, cand: &Candidate, error_bound: f64) -> bool {
    if cand.error <= error_bound && cand.fitness > best.fitness {
        *best = cand.clone();
        return true;
    }
    false
}

fn best_improved_event(iteration: usize, best: &Candidate) -> FlowEvent {
    FlowEvent::BestImproved {
        iteration,
        fitness: best.fitness,
        error: best.error,
        depth: best.depth,
        area: best.area,
    }
}

/// Decision parameter `W = A·D` (Eqs. 4-6). `guide_fitness` is
/// `Fit(c_l)` for elites or the mean elite fitness for ω circuits.
fn decision_parameter<R: Rng>(guide_fitness: f64, own_fitness: f64, a: f64, rng: &mut R) -> f64 {
    let rc: f64 = rng.gen_range(0.0..2.0);
    let d = (rc * guide_fitness - own_fitness).abs();
    let r1: f64 = rng.gen();
    let encircle = (2.0 * r1 - 1.0) * a;
    encircle * d
}

/// The serial, RNG-owning half of an iteration: guidance decisions, and
/// the reproduction of ω children that search their reproduced child.
/// Other children are only described here: a reproduced one by its
/// parents, a search one by its netlist and its own proposal stream,
/// split off `stream` by its index among the iteration's search
/// children, so the offspring pass can build, propose and score them on
/// any worker with the same draws.
struct Chase<'a, R: Rng> {
    population: &'a [Candidate],
    weights: &'a LevelWeights,
    cfg: &'a OptimizerConfig,
    rng: &'a mut R,
    stream: u64,
    searches: u64,
}

impl<'a, R: Rng> Chase<'a, R> {
    /// A circuit-searching child of `netlist`, on the next proposal
    /// stream.
    fn search(&mut self, netlist: Netlist) -> Offspring<'a> {
        let seed = par::split_seed(self.stream, self.searches);
        self.searches += 1;
        Offspring::Search { netlist, seed }
    }

    /// A circuit-searching child of population member `idx`.
    fn search_member(&mut self, idx: usize) -> Offspring<'a> {
        self.search(self.population[idx].netlist.clone())
    }

    /// The reproduced child of members `idx` and `partner`.
    fn reproduce(&self, idx: usize, partner: usize) -> Offspring<'a> {
        Offspring::Reproduce {
            a: &self.population[idx],
            b: &self.population[partner],
        }
    }

    fn double(&mut self, a: f64) -> Vec<Offspring<'a>> {
        let (population, cfg) = (self.population, self.cfg);
        let n = population.len();
        let mut offspring = Vec::new();
        if n == 0 {
            return offspring;
        }
        let leader = &population[0];
        let elite_end = n.min(4);
        let elite_mean = if elite_end > 1 {
            population[1..elite_end]
                .iter()
                .map(|c| c.fitness)
                .sum::<f64>()
                / (elite_end - 1) as f64
        } else {
            leader.fitness
        };

        // Chase 1: the leader guides the elites.
        for (rank, ci) in population.iter().enumerate().take(elite_end).skip(1) {
            let w = decision_parameter(leader.fitness, ci.fitness, a, self.rng);
            if w > ELITE_THRESHOLD && cfg.reproduction {
                // Reproduce with a circuit of superior fitness.
                let partner = self.rng.gen_range(0..rank);
                offspring.push(self.reproduce(rank, partner));
            } else {
                offspring.push(self.search_member(rank));
            }
        }

        // Chase 2: the elites guide the ω group.
        for idx in elite_end..n {
            let ci = &population[idx];
            let w = decision_parameter(elite_mean, ci.fitness, a, self.rng);
            let elite_partner = self.rng.gen_range(0..elite_end);
            if !cfg.reproduction {
                offspring.push(self.search_member(idx));
            } else if w > cfg.omega_threshold {
                // Both actions compound on one circuit: reproduce with an
                // elite, then search the child.
                let child = reproduce(ci, &population[elite_partner], self.weights);
                offspring.push(self.search(child));
            } else if self.rng.gen_bool(0.5) {
                offspring.push(self.search_member(idx));
            } else {
                offspring.push(self.reproduce(idx, elite_partner));
            }
        }

        // The leader searches after the chase to keep its variability.
        offspring.push(self.search_member(0));
        offspring
    }

    fn single(&mut self, a: f64) -> Vec<Offspring<'a>> {
        let (population, cfg) = (self.population, self.cfg);
        let n = population.len();
        let mut offspring = Vec::new();
        if n == 0 {
            return offspring;
        }
        // Traditional GWO: alpha/beta/delta guide the whole pack with one
        // threshold and no finer hierarchy.
        let leader_end = n.min(3);
        let alpha = &population[0];
        for (idx, ci) in population.iter().enumerate().skip(leader_end) {
            let w = decision_parameter(alpha.fitness, ci.fitness, a, self.rng);
            if w > ELITE_THRESHOLD && cfg.reproduction {
                let partner = self.rng.gen_range(0..leader_end);
                offspring.push(self.reproduce(idx, partner));
            } else {
                offspring.push(self.search_member(idx));
            }
        }
        for idx in 0..leader_end {
            offspring.push(self.search_member(idx));
        }
        offspring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NopObserver;
    use crate::fitness::same_scores;
    use crate::pareto::non_dominated_sort;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    fn adder_ctx() -> EvalContext {
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
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        )
    }

    /// `cfg`'s outcome on `ctx` under `bound` and `budget`, through the
    /// [`Optimizer`] trait.
    fn run_within(
        ctx: &EvalContext,
        bound: f64,
        cfg: &OptimizerConfig,
        budget: &Budget,
    ) -> OptimizeOutcome {
        Dcgwo::new(cfg.clone()).optimize(ctx, bound, budget, &mut NopObserver)
    }

    /// [`run_within`] under an unlimited budget.
    fn run(ctx: &EvalContext, bound: f64, cfg: &OptimizerConfig) -> OptimizeOutcome {
        run_within(ctx, bound, cfg, &Budget::unlimited())
    }

    fn small_cfg(chase: ChaseStrategy, seed: u64) -> OptimizerConfig {
        OptimizerConfig {
            population: 10,
            iterations: 8,
            chase,
            seed,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn best_respects_error_bound() {
        let ctx = adder_ctx();
        let bound = 0.05;
        let result = run(&ctx, bound, &small_cfg(ChaseStrategy::DoubleChase, 1));
        assert!(result.best.error <= bound + 1e-12);
        result.best.netlist.check_invariants().expect("valid best");
    }

    #[test]
    fn optimizer_improves_over_accurate() {
        // NMED budget: flipping low-significance sum bits is cheap, so
        // a feasible improving LAC always exists on an adder.
        let mut b = Builder::new("add6");
        let a = b.inputs("a", 6);
        let x = b.inputs("b", 6);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        let n = b.finish();
        let ctx = EvalContext::new(
            &n,
            Patterns::exhaustive(12),
            ErrorMetric::Nmed,
            TimingConfig::default(),
            0.8,
        );
        let result = run(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 2));
        assert!(
            result.best.fitness > 1.0,
            "found improvement: fitness {}",
            result.best.fitness
        );
        assert!(result.best.depth <= ctx.depth_ori());
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let ctx = adder_ctx();
        let r1 = run(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 7));
        let r2 = run(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 7));
        assert_eq!(r1.best.netlist, r2.best.netlist);
        assert_eq!(r1.history.len(), r2.history.len());
        for (a, b) in r1.history.iter().zip(&r2.history) {
            assert_eq!(a.best_fitness, b.best_fitness);
        }
    }

    #[test]
    fn single_chase_also_works() {
        let ctx = adder_ctx();
        let result = run(&ctx, 0.10, &small_cfg(ChaseStrategy::SingleChase, 3));
        assert!(result.best.error <= 0.10 + 1e-12);
        assert!(result.best.fitness >= 1.0);
    }

    #[test]
    fn history_tracks_constraint_relaxation() {
        let ctx = adder_ctx();
        let result = run(&ctx, 0.08, &small_cfg(ChaseStrategy::DoubleChase, 4));
        assert_eq!(result.history.len(), 8);
        let constraints: Vec<f64> = result.history.iter().map(|h| h.constraint).collect();
        for pair in constraints.windows(2) {
            assert!(pair[1] >= pair[0], "constraint relaxes monotonically");
        }
        assert!(constraints[0] < 0.08, "starts tight");
    }

    #[test]
    fn population_is_maintained_at_n() {
        let ctx = adder_ctx();
        let result = run(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 5));
        assert_eq!(result.population.len(), 10);
        for cand in &result.population {
            cand.netlist.check_invariants().expect("valid member");
        }
    }

    #[test]
    fn search_only_ablation_runs_and_respects_bounds() {
        let ctx = adder_ctx();
        let mut cfg = small_cfg(ChaseStrategy::DoubleChase, 15);
        cfg.reproduction = false;
        let result = run(&ctx, 0.05, &cfg);
        assert!(result.best.error <= 0.05 + 1e-12);
        result.best.netlist.check_invariants().expect("valid");
    }

    #[test]
    fn pareto_front_is_nonempty_and_mutually_nondominating() {
        let ctx = adder_ctx();
        let result = run(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 12));
        let points: Vec<Objectives> = result
            .population
            .iter()
            .map(|c| Objectives::new(c.fd, c.fa))
            .collect();
        let front = non_dominated_sort(&points).swap_remove(0);
        assert!(!front.is_empty());
        for (k, &i) in front.iter().enumerate() {
            for &j in &front[k + 1..] {
                let a = Objectives::new(result.population[i].fd, result.population[i].fa);
                let b = Objectives::new(result.population[j].fd, result.population[j].fa);
                assert!(!a.dominates(b) && !b.dominates(a));
            }
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical() {
        let ctx = adder_ctx();
        let serial = run(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 9));
        let mut cfg = small_cfg(ChaseStrategy::DoubleChase, 9);
        cfg.threads = 4;
        let parallel = run(&ctx, 0.05, &cfg);
        assert_eq!(serial.best.netlist, parallel.best.netlist);
        for (a, b) in serial.history.iter().zip(&parallel.history) {
            assert_eq!(a.best_fitness, b.best_fitness);
            assert_eq!(a.feasible, b.feasible);
        }
    }

    #[test]
    fn pre_stopped_budget_pays_no_seeding_work() {
        // A budget that is already exhausted must not fan
        // population-many evaluations out before the first verdict: the
        // seeding phase truncates its member list up front, so only the
        // accurate anchor is ever evaluated.
        let ctx = adder_ctx();
        let outcome = run_within(
            &ctx,
            0.05,
            &small_cfg(ChaseStrategy::DoubleChase, 8),
            &Budget::unlimited().with_max_iterations(0),
        );
        assert_eq!(outcome.stop, StopReason::IterationLimit);
        assert_eq!(outcome.evaluations, 1, "accurate anchor only");
        assert_eq!(outcome.population.len(), 1);
    }

    #[test]
    fn evaluation_cap_bounds_seeding_to_the_cap() {
        let ctx = adder_ctx();
        let outcome = run_within(
            &ctx,
            0.05,
            &small_cfg(ChaseStrategy::DoubleChase, 8),
            &Budget::unlimited().with_max_evaluations(3),
        );
        assert_eq!(outcome.stop, StopReason::EvaluationLimit);
        assert_eq!(outcome.evaluations, 3, "anchor + two capped members");
        assert_eq!(outcome.population.len(), 3);
    }

    /// The population of a short run on Int2float: members materialized
    /// from cone previews among them, most carrying a dead-cone area
    /// that differs from a fresh sum.
    fn int2float_population() -> (EvalContext, Vec<Candidate>) {
        let accurate = tdals_circuits::Benchmark::Int2float.build();
        let ctx = EvalContext::new(
            &accurate,
            Patterns::random(accurate.input_count(), 256, 3),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        );
        let cfg = OptimizerConfig::default()
            .with_population(12)
            .with_iterations(4)
            .with_seed(0);
        let population = run(&ctx, 0.05, &cfg).population;
        (ctx, population)
    }

    /// Every reproduced child scores exactly as a full evaluation of it,
    /// whether it copies a parent and reuses its measurements (including
    /// children of parents whose dead-cone area differs from a fresh
    /// sum) or is rebuilt in a worker's recycled base.
    #[test]
    fn reproduced_children_score_as_full_evaluations() {
        let (ctx, population) = int2float_population();
        let weights =
            LevelWeights::paper_defaults(ctx.cpd_ori(), OptimizerConfig::default().level_we);
        let mut worker = WorkerScratch::default();
        let (mut copies, mut stale_area, mut rebuilt) = (0, 0, 0);
        for a in &population {
            for b in &population {
                let netlist = reproduce(a, b, &weights);
                let fresh = ctx.evaluate(netlist.clone());
                match [a, b].into_iter().find(|parent| parent.netlist == netlist) {
                    Some(parent) => {
                        copies += 1;
                        if parent.area.to_bits() != fresh.area.to_bits() {
                            stale_area += 1;
                        }
                    }
                    None => rebuilt += 1,
                }
                let scored = worker.score(
                    &ctx,
                    &weights,
                    Work::Single(0, Offspring::Reproduce { a, b }),
                );
                let [(0, PoolEntry::Ready(child))] = &scored[..] else {
                    panic!("a reproduced child scores as one ready entry");
                };
                assert_eq!(child.netlist, netlist);
                assert!(same_scores(child, &fresh));
            }
        }
        assert!(
            copies > 0 && stale_area > 0 && rebuilt > 0,
            "{copies} copies, {stale_area} stale areas, {rebuilt} rebuilt"
        );
    }

    /// Search children grouped on one base score as they do each in a
    /// base of its own.
    #[test]
    fn grouped_search_children_score_as_separate_ones() {
        let (ctx, population) = int2float_population();
        let weights =
            LevelWeights::paper_defaults(ctx.cpd_ori(), OptimizerConfig::default().level_we);
        let mut offspring = Vec::new();
        for (k, member) in population.iter().take(4).enumerate() {
            for copy in 0..3 {
                offspring.push(Offspring::Search {
                    netlist: member.netlist.clone(),
                    seed: (k * 10 + copy) as u64,
                });
            }
        }
        let singles: Vec<PoolEntry> = offspring
            .iter()
            .enumerate()
            .map(|(k, off)| {
                let Offspring::Search { netlist, seed } = off else {
                    unreachable!()
                };
                let off = Offspring::Search {
                    netlist: netlist.clone(),
                    seed: *seed,
                };
                let mut scored =
                    WorkerScratch::default().score(&ctx, &weights, Work::Single(k, off));
                scored.pop().expect("one entry").1
            })
            .collect();
        let units = group_searches(offspring);
        assert!(units.len() < 12, "equal netlists share a unit");
        let grouped = evaluate_offspring(
            &ctx,
            &weights,
            units
                .into_iter()
                .flat_map(|unit| match unit {
                    Work::Search { netlist, children } => children
                        .into_iter()
                        .map(|(_, seed)| Offspring::Search {
                            netlist: netlist.clone(),
                            seed,
                        })
                        .collect::<Vec<_>>(),
                    Work::Single(_, off) => vec![off],
                })
                .collect(),
            1,
            &mut Vec::new(),
            &Budget::unlimited().start_tracking(),
        );
        assert!(grouped.completed);
        for (k, (a, b)) in grouped.results.into_iter().zip(singles).enumerate() {
            assert!(
                same_scores(&a.into_candidate(), &b.into_candidate()),
                "child {k}"
            );
        }
    }

    fn c880_ctx() -> EvalContext {
        let accurate = tdals_circuits::Benchmark::C880.build();
        EvalContext::new(
            &accurate,
            Patterns::random(accurate.input_count(), 300, 2),
            ErrorMetric::Nmed,
            TimingConfig::default(),
            0.8,
        )
    }

    /// A seeded member, built by commits in a recycled base rebuilt at
    /// the accurate circuit and read off it, equals a full evaluation of its
    /// netlist, though the commits leave a cascaded live area that
    /// differs from a fresh sum for some members.
    #[test]
    fn seeded_members_equal_full_evaluations() {
        let ctx = c880_ctx();
        const LACS: usize = 6;
        let mut worker = WorkerScratch::default();
        let mut cascaded_differs = 0;
        for member in 0..24 {
            let seeded = worker.seed(&ctx, LACS, par::split_seed(11, member));
            assert_ne!(&seeded.netlist, ctx.accurate(), "member {member}");
            let fresh = ctx.evaluate(seeded.netlist.clone());
            assert!(same_scores(&seeded, &fresh), "member {member}");
            // The same chain on the same base, without the recount.
            let replay = ctx.rebuild_in(&mut worker.base, ctx.accurate().clone());
            let mut rng = StdRng::seed_from_u64(par::split_seed(11, member));
            for _ in 0..LACS {
                if let Some(lac) = random_lac(
                    replay.netlist(),
                    replay.sim(),
                    usize::MAX,
                    &mut worker.search,
                    &mut rng,
                ) {
                    replay
                        .commit(lac.target(), lac.switch())
                        .expect("legal LAC");
                }
            }
            assert_eq!(replay.netlist(), &seeded.netlist, "member {member}");
            if replay.area_live().to_bits() != fresh.area.to_bits() {
                cascaded_differs += 1;
            }
        }
        assert!(
            cascaded_differs > 0,
            "some cascaded area differs from a fresh sum"
        );
    }

    /// A search child with nothing to propose is its base read as
    /// built, equal to a full evaluation.
    #[test]
    fn childless_search_equals_a_full_evaluation() {
        let ctx = c880_ctx();
        let mut netlist = ctx.accurate().clone();
        let drivers: Vec<SignalRef> = netlist.output_drivers().collect();
        for driver in drivers {
            if let SignalRef::Gate(g) = driver {
                Lac::new(g, SignalRef::Const0)
                    .apply(&mut netlist)
                    .expect("constant switch");
            }
        }
        let mut worker = WorkerScratch::default();
        // The worker's base last served another netlist.
        drop(worker.seed(&ctx, INITIAL_LACS, 1));
        let weights =
            LevelWeights::paper_defaults(ctx.cpd_ori(), OptimizerConfig::default().level_we);
        let scored = worker.score(
            &ctx,
            &weights,
            Work::Single(
                0,
                Offspring::Search {
                    netlist: netlist.clone(),
                    seed: 3,
                },
            ),
        );
        let [(0, PoolEntry::Ready(read))] = &scored[..] else {
            panic!("a childless search scores as one ready entry");
        };
        assert!(same_scores(read, &ctx.evaluate(netlist)));
    }

    #[test]
    fn zero_error_budget_returns_accurate_equivalent() {
        let ctx = adder_ctx();
        let result = run(&ctx, 0.0, &small_cfg(ChaseStrategy::DoubleChase, 6));
        assert_eq!(result.best.error, 0.0);
        // Fitness can exceed 1.0 only through error-free restructuring,
        // which LACs of this kind cannot achieve on an adder — expect
        // the anchor.
        assert!(result.best.fitness >= 1.0);
    }
}
