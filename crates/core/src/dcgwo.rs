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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_netlist::Netlist;
use tdals_sim::DeltaSim;

use crate::api::{
    Budget, BudgetTracker, FlowEvent, NopObserver, Observer, OptimizeOutcome, StopReason,
};
use crate::fitness::{Candidate, DeltaEval, EvalContext, EvalScratch, LacScore};
use crate::lac::{Lac, SearchScratch};
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

/// Tunable parameters of the optimizer.
///
/// Defaults follow §IV-A of the paper: population 30, 20 iterations,
/// `wd = 0.8`, `wt = 0.9 × CPD_ori` (via [`LevelWeights`]), `we` of
/// 0.1 (ER) / 0.2 (NMED) supplied per run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct OptimizerConfig {
    /// Population size `N`.
    pub population: usize,
    /// Iteration limit `Imax`.
    pub iterations: usize,
    /// Error weight `we` of the reproduction `Level` function.
    pub level_we: f64,
    /// Decision threshold `S_e` for elite circuits.
    pub elite_threshold: f64,
    /// Decision threshold `S_ω` for ω circuits.
    pub omega_threshold: f64,
    /// Starting fraction of the error budget for the asymptotic
    /// relaxation schedule.
    pub initial_constraint_fraction: f64,
    /// Fraction of `Imax` at which the schedule reaches the full error
    /// budget (the paper's "empirical parameter b" expressed as a
    /// horizon); the remaining iterations exploit the full budget.
    pub relax_horizon: f64,
    /// LACs applied to the accurate circuit per initial member.
    pub initial_lacs: usize,
    /// Circuit-searching tunables.
    pub search: SearchConfig,
    /// Double- or single-chase guidance.
    pub chase: ChaseStrategy,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Worker threads for seeding and offspring evaluation (the paper
    /// exploits "the inherent parallelism of GWO"); `1` evaluates
    /// inline, `0` means one worker per available core. Results are
    /// bit-identical for any thread count (see [`crate::par`]).
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
            elite_threshold: 0.5,
            omega_threshold: 0.3,
            initial_constraint_fraction: 0.25,
            relax_horizon: 0.6,
            initial_lacs: 2,
            search: SearchConfig::default(),
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
    pub fn paper_level_we(metric: tdals_sim::ErrorMetric) -> f64 {
        match metric {
            tdals_sim::ErrorMetric::ErrorRate => 0.1,
            tdals_sim::ErrorMetric::Nmed => 0.2,
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

    /// Sets the elite decision threshold `S_e`.
    pub fn with_elite_threshold(mut self, elite_threshold: f64) -> OptimizerConfig {
        self.elite_threshold = elite_threshold;
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

    /// Sets the fraction of `Imax` at which the relaxation schedule
    /// reaches the full error budget.
    pub fn with_relax_horizon(mut self, relax_horizon: f64) -> OptimizerConfig {
        self.relax_horizon = relax_horizon;
        self
    }

    /// Sets the LAC count applied per initial population member.
    pub fn with_initial_lacs(mut self, initial_lacs: usize) -> OptimizerConfig {
        self.initial_lacs = initial_lacs;
        self
    }

    /// Sets the circuit-searching tunables.
    pub fn with_search(mut self, search: SearchConfig) -> OptimizerConfig {
        self.search = search;
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

/// Outcome of an optimizer run.
#[derive(Debug, Clone)]
pub struct OptimizerResult {
    /// Highest-fitness circuit observed with error within the *full*
    /// user budget (the paper's "optimal approximate netlist").
    pub best: Candidate,
    /// Final population.
    pub population: Vec<Candidate>,
    /// Per-iteration statistics for convergence analysis.
    pub history: Vec<IterationStats>,
}

impl OptimizerResult {
    /// Indices of the final population's rank-0 Pareto set over
    /// `(f_d, f_a)` — the depth/area trade-off frontier the run
    /// discovered.
    pub fn pareto_front(&self) -> Vec<usize> {
        let points: Vec<Objectives> = self
            .population
            .iter()
            .map(|c| Objectives::new(c.fd, c.fa))
            .collect();
        crate::pareto::non_dominated_sort(&points)
            .into_iter()
            .next()
            .unwrap_or_default()
    }
}

/// Runs the optimizer on the accurate circuit held by `ctx`.
///
/// `error_bound` is the user's ER or NMED budget (the metric comes from
/// the context). The returned best circuit always satisfies the bound;
/// if no LAC is ever feasible it is the accurate circuit itself.
///
/// This is the unbudgeted, unobserved entry point; the session API
/// ([`crate::api::Dcgwo`]) runs the same loop through
/// [`optimize_session`] with identical results under an unlimited
/// budget.
pub fn optimize(ctx: &EvalContext, error_bound: f64, cfg: &OptimizerConfig) -> OptimizerResult {
    let outcome = optimize_session(
        ctx,
        error_bound,
        cfg,
        &Budget::unlimited(),
        &mut NopObserver,
    );
    OptimizerResult {
        best: outcome.best,
        population: outcome.population,
        history: outcome.history,
    }
}

/// [`optimize`] with a [`Budget`] honored at every iteration boundary
/// and progress streamed to `obs`. Under [`Budget::unlimited`] the
/// results are bit-identical to [`optimize`]: budget checks and event
/// emission never touch the RNG stream.
pub fn optimize_session(
    ctx: &EvalContext,
    error_bound: f64,
    cfg: &OptimizerConfig,
    budget: &Budget,
    obs: &mut dyn Observer,
) -> OptimizeOutcome {
    let mut tracker = budget.start_tracking();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let horizon = ((cfg.iterations as f64 * cfg.relax_horizon).round() as usize)
        .clamp(1, cfg.iterations.max(1));
    let schedule =
        ErrorSchedule::with_horizon(error_bound, cfg.initial_constraint_fraction, horizon);
    // Per-PO errors below a tenth of the budget count as "clean" in the
    // reproduction Level, letting its timing term pick the faster of
    // two acceptable cones.
    let weights = LevelWeights::paper_defaults(ctx.cpd_ori(), cfg.level_we)
        .with_error_floor(0.1 * error_bound);

    // Initial population: LACs on randomly selected target gates of the
    // accurate circuit; member 0 stays accurate as a feasible anchor.
    // The context's golden simulation already covers the accurate
    // circuit on the shared stimulus, so the DeltaSim base wraps it
    // instead of re-simulating; each member's LAC chain then
    // re-evaluates only the mutated cones.
    let base_delta = DeltaSim::from_result(
        ctx.accurate().clone(),
        ctx.evaluator().patterns().clone(),
        ctx.evaluator().golden().clone(),
    );
    let accurate = ctx.evaluate_delta(&base_delta);
    tracker.record_evaluations(1);
    let threads = par::resolve_threads(cfg.threads);
    let mut population: Vec<Candidate> = Vec::with_capacity(cfg.population);
    let mut best = accurate.clone();
    population.push(accurate.clone());
    // Seed the rest of the population over the worker pool. Each member
    // owns a DeltaSim scratch clone of the shared base and an RNG
    // stream split off the run seed by member index, so its LAC chain —
    // whose switch selection reads the member's own evolving simulation
    // state — draws the same switches whether it is built inline or on
    // any worker. The admission loop below runs serially in member
    // order: the deterministic budget caps stop admission at the same
    // member for every thread count (the seeding phase must not pay
    // population-many evaluations past a tiny evaluation budget), while
    // cancellation and the deadline abort the fan-out between batches.
    // The accurate anchor is already in, so stopping early is always
    // safe.
    // Deterministic pre-truncation: never fan out work a deterministic
    // cap will refuse to admit. A pre-stopped budget (iteration cap 0,
    // exhausted evaluations, pre-raised flag) seeds nothing; an
    // evaluation cap bounds the member count. Both depend only on
    // counts, so the truncation is identical for every thread width.
    let seed_budget = match tracker.stop_before_iteration(0) {
        Some(_) => 0,
        None => tracker
            .remaining_evaluations()
            .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX)),
    };
    let member_seeds: Vec<u64> = (1..cfg.population)
        .map(|i| par::split_seed(cfg.seed, i as u64))
        .take(seed_budget)
        .collect();
    let seeded = par::par_map_batched(
        threads,
        member_seeds,
        |member_seed| {
            let mut rng = StdRng::seed_from_u64(member_seed);
            let mut member = base_delta.clone();
            for _ in 0..cfg.initial_lacs.max(1) {
                if let Some(lac) = crate::lac::random_lac(
                    member.netlist(),
                    &member,
                    cfg.search.max_switch_candidates,
                    &mut rng,
                ) {
                    member
                        .substitute(lac.target(), lac.switch())
                        .expect("legal LAC");
                }
            }
            ctx.evaluate_delta(&member)
        },
        || tracker.interrupted().is_none(),
    );
    // The seeding base's words are not needed past this point.
    drop(base_delta);
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
    let mut scratch = RunScratch::default();
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

        // With worker threads, rebuild each member's scoring base (the
        // expensive full sim + STA) in parallel before the serial,
        // RNG-owning chase.
        prebuild_bases(ctx, &population, threads, &mut scratch.members);
        let mut chase = Chase {
            ctx,
            population: &population,
            bases: &scratch.members,
            child: &mut scratch.child,
            search: &mut scratch.search,
            cfg,
            rng: &mut rng,
        };
        let offspring = match cfg.chase {
            ChaseStrategy::DoubleChase => chase.double(a, &weights),
            ChaseStrategy::SingleChase => chase.single(a, &weights),
        };

        // Score the offspring over the worker pool, polling for
        // cancellation/deadline between batches so a raised flag stops
        // the run within one batch even mid-iteration. Best-so-far
        // tracking and event emission stay on this thread, in
        // candidate-index order.
        let scored = evaluate_offspring(
            ctx,
            offspring,
            &scratch.members,
            threads,
            &mut scratch.eval,
            &tracker,
        );
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
            // deadline stays expired), so re-reading it here names the
            // abort reason. The previous population survives untouched;
            // whatever the completed batches found already fed the
            // best-so-far above.
            stop = tracker
                .interrupted()
                .expect("aborted batches imply a sticky interrupt");
            break;
        }

        // Candidates group: circuits before and after the chase. New
        // offspring stay un-materialized (scores only) until they
        // survive selection.
        let mut candidates: Vec<PoolEntry> = population.into_iter().map(PoolEntry::Ready).collect();
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
    obs.on_event(&FlowEvent::OptimizeFinished {
        stop,
        evaluations: tracker.evaluations(),
    });
    OptimizeOutcome {
        best,
        population,
        history,
        evaluations: tracker.evaluations(),
        stop,
    }
}

/// Buffers one optimizer run keeps across iterations, so that scoring
/// reuses storage instead of allocating per child. Every use overwrites
/// what it reads: nothing here carries information from one candidate
/// to the next, and results equal those with fresh buffers.
#[derive(Default)]
struct RunScratch {
    /// Per population member, its scoring base, rebuilt in place each
    /// iteration; empty at one thread, where nothing is prebuilt.
    members: Vec<Option<DeltaEval>>,
    /// The base in which a search child without a prebuilt one is
    /// built, proposed and scored.
    child: Option<DeltaEval>,
    /// Per-worker buffers for full evaluations.
    eval: Vec<EvalScratch>,
    /// Switch-selection marks for the chase.
    search: SearchScratch,
}

/// One chase product awaiting evaluation.
///
/// Search children carry a proposed LAC and are ranked by re-evaluating
/// only the substitution's affected cone; reproduced children (whole
/// fan-in rows copied between parents) have no single-cone provenance
/// and are scored with a full evaluation.
enum Offspring {
    /// Score with a full evaluation.
    Full(Netlist),
    /// Score in the offspring pass against population member `member`'s
    /// prebuilt base; the candidate is that base + `lac`.
    Member { member: usize, lac: Lac },
    /// Already scored during the chase, in the run's child base.
    Scored(PoolEntry),
}

/// A scored member of the survivor-selection pool. Lazy entries defer
/// netlist materialization until they actually survive selection (or
/// set a new best): losing candidates never apply their LAC, and a
/// surviving one materializes by mutating the owned base netlist in
/// place. A lazy entry holds no simulated words or timing arrays; those
/// stay in the run's recycled scoring bases.
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
/// tracker's bounded-latency interrupts between batches. Full
/// evaluations simulate into the workers' `eval` buffers; member
/// children score against their prebuilt `bases`. The output order
/// always matches the input order, so parallel and serial runs are
/// bit-identical; an aborted run returns the completed prefix with
/// `completed == false`.
fn evaluate_offspring(
    ctx: &EvalContext,
    offspring: Vec<Offspring>,
    bases: &[Option<DeltaEval>],
    threads: usize,
    eval: &mut Vec<EvalScratch>,
    tracker: &BudgetTracker,
) -> par::BatchedMap<PoolEntry> {
    par::par_map_batched_with(
        threads,
        eval,
        offspring,
        |scratch, off| match off {
            Offspring::Full(netlist) => PoolEntry::Ready(ctx.evaluate_in(netlist, scratch)),
            Offspring::Member { member, lac } => {
                let base = bases[member]
                    .as_ref()
                    .expect("member children have a prebuilt base");
                lazy_entry(ctx, base, lac)
            }
            Offspring::Scored(entry) => entry,
        },
        || tracker.interrupted().is_none(),
    )
}

/// Scores `base` + `lac`, keeping only what the pool needs: the base
/// netlist, the LAC and the score.
fn lazy_entry(ctx: &EvalContext, base: &DeltaEval, lac: Lac) -> PoolEntry {
    PoolEntry::Lazy {
        netlist: base.netlist().clone(),
        lac,
        score: ctx.score_lac(base, lac),
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

/// Rebuilds the per-member scoring bases (one full simulation + STA
/// each) ahead of the chase, in parallel and in place, so the expensive
/// part of offspring construction scales with the `threads` knob and
/// reuses the previous iteration's buffers. The chase itself stays
/// serial (it owns the RNG stream); base construction draws no
/// randomness, so parallel and serial runs stay bit-identical. With
/// `threads <= 1` nothing is prebuilt: members that end up reproducing
/// instead of searching then never pay for a base.
fn prebuild_bases(
    ctx: &EvalContext,
    population: &[Candidate],
    threads: usize,
    bases: &mut Vec<Option<DeltaEval>>,
) {
    if threads <= 1 {
        return;
    }
    bases.resize_with(population.len(), || None);
    let slots: Vec<_> = bases.iter_mut().zip(population).collect();
    par::par_map(threads, slots, |(slot, cand)| {
        build_in(slot, ctx, cand.netlist.clone());
    });
}

/// The scoring base of `netlist`, in `slot`: rebuilt in place when the
/// slot holds a base, built fresh otherwise.
fn build_in<'a>(
    slot: &'a mut Option<DeltaEval>,
    ctx: &EvalContext,
    netlist: Netlist,
) -> &'a DeltaEval {
    if let Some(base) = slot {
        base.rebuild(netlist);
    } else {
        *slot = Some(ctx.delta_eval(netlist));
    }
    slot.as_ref().expect("the slot was just filled")
}

/// Proposes a circuit-searching LAC on `base`: its words feed
/// similarity-based switch selection and its timing feeds
/// critical-path target collection.
fn propose<R: Rng>(
    base: &DeltaEval,
    search: &SearchConfig,
    scratch: &mut SearchScratch,
    rng: &mut R,
) -> Option<Lac> {
    let report = base.report();
    propose_lac_in(base.netlist(), &report, base.sim(), search, scratch, rng)
}

/// The serial, RNG-owning half of an iteration: guidance decisions,
/// reproduction and search-child proposals. A child of a member with a
/// prebuilt base is only proposed here and is scored in the offspring
/// pass; every other search child is built in the run's one child base,
/// proposed and scored right here, so at one thread an iteration holds
/// one scoring base at a time.
struct Chase<'a, R: Rng> {
    ctx: &'a EvalContext,
    population: &'a [Candidate],
    bases: &'a [Option<DeltaEval>],
    child: &'a mut Option<DeltaEval>,
    search: &'a mut SearchScratch,
    cfg: &'a OptimizerConfig,
    rng: &'a mut R,
}

impl<R: Rng> Chase<'_, R> {
    /// A circuit-searching child of population member `idx`.
    fn search_member(&mut self, idx: usize) -> Offspring {
        let bases = self.bases;
        match bases.get(idx).and_then(Option::as_ref) {
            Some(base) => match propose(base, &self.cfg.search, self.search, self.rng) {
                Some(lac) => Offspring::Member { member: idx, lac },
                None => Offspring::Full(base.netlist().clone()),
            },
            None => self.search_new(self.population[idx].netlist.clone()),
        }
    }

    /// A circuit-searching child of `netlist`, built, proposed and
    /// scored in the child base.
    fn search_new(&mut self, netlist: Netlist) -> Offspring {
        let base = build_in(self.child, self.ctx, netlist);
        match propose(base, &self.cfg.search, self.search, self.rng) {
            Some(lac) => Offspring::Scored(lazy_entry(self.ctx, base, lac)),
            None => Offspring::Full(base.netlist().clone()),
        }
    }

    fn double(&mut self, a: f64, weights: &LevelWeights) -> Vec<Offspring> {
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
        for rank in 1..elite_end {
            let ci = &population[rank];
            let w = decision_parameter(leader.fitness, ci.fitness, a, self.rng);
            if w > cfg.elite_threshold && cfg.reproduction {
                // Reproduce with a circuit of superior fitness.
                let partner = &population[self.rng.gen_range(0..rank)];
                offspring.push(Offspring::Full(reproduce(ci, partner, weights)));
            } else {
                offspring.push(self.search_member(rank));
            }
        }

        // Chase 2: the elites guide the ω group.
        for idx in elite_end..n {
            let ci = &population[idx];
            let w = decision_parameter(elite_mean, ci.fitness, a, self.rng);
            let elite_partner = &population[self.rng.gen_range(0..elite_end)];
            if !cfg.reproduction {
                offspring.push(self.search_member(idx));
            } else if w > cfg.omega_threshold {
                // Both actions compound on one circuit: reproduce with an
                // elite, then search the child.
                let child = reproduce(ci, elite_partner, weights);
                offspring.push(self.search_new(child));
            } else if self.rng.gen_bool(0.5) {
                offspring.push(self.search_member(idx));
            } else {
                offspring.push(Offspring::Full(reproduce(ci, elite_partner, weights)));
            }
        }

        // The leader searches after the chase to keep its variability.
        offspring.push(self.search_member(0));
        offspring
    }

    fn single(&mut self, a: f64, weights: &LevelWeights) -> Vec<Offspring> {
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
        for idx in leader_end..n {
            let ci = &population[idx];
            let w = decision_parameter(alpha.fitness, ci.fitness, a, self.rng);
            if w > cfg.elite_threshold && cfg.reproduction {
                let partner = &population[self.rng.gen_range(0..leader_end)];
                offspring.push(Offspring::Full(reproduce(ci, partner, weights)));
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
        let result = optimize(&ctx, bound, &small_cfg(ChaseStrategy::DoubleChase, 1));
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
        let result = optimize(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 2));
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
        let r1 = optimize(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 7));
        let r2 = optimize(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 7));
        assert_eq!(r1.best.netlist, r2.best.netlist);
        assert_eq!(r1.history.len(), r2.history.len());
        for (a, b) in r1.history.iter().zip(&r2.history) {
            assert_eq!(a.best_fitness, b.best_fitness);
        }
    }

    #[test]
    fn single_chase_also_works() {
        let ctx = adder_ctx();
        let result = optimize(&ctx, 0.10, &small_cfg(ChaseStrategy::SingleChase, 3));
        assert!(result.best.error <= 0.10 + 1e-12);
        assert!(result.best.fitness >= 1.0);
    }

    #[test]
    fn history_tracks_constraint_relaxation() {
        let ctx = adder_ctx();
        let result = optimize(&ctx, 0.08, &small_cfg(ChaseStrategy::DoubleChase, 4));
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
        let result = optimize(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 5));
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
        let result = optimize(&ctx, 0.05, &cfg);
        assert!(result.best.error <= 0.05 + 1e-12);
        result.best.netlist.check_invariants().expect("valid");
    }

    #[test]
    fn pareto_front_is_nonempty_and_mutually_nondominating() {
        let ctx = adder_ctx();
        let result = optimize(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 12));
        let front = result.pareto_front();
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
        let serial = optimize(&ctx, 0.05, &small_cfg(ChaseStrategy::DoubleChase, 9));
        let mut cfg = small_cfg(ChaseStrategy::DoubleChase, 9);
        cfg.threads = 4;
        let parallel = optimize(&ctx, 0.05, &cfg);
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
        let outcome = optimize_session(
            &ctx,
            0.05,
            &small_cfg(ChaseStrategy::DoubleChase, 8),
            &Budget::unlimited().with_max_iterations(0),
            &mut NopObserver,
        );
        assert_eq!(outcome.stop, StopReason::IterationLimit);
        assert_eq!(outcome.evaluations, 1, "accurate anchor only");
        assert_eq!(outcome.population.len(), 1);
    }

    #[test]
    fn evaluation_cap_bounds_seeding_to_the_cap() {
        let ctx = adder_ctx();
        let outcome = optimize_session(
            &ctx,
            0.05,
            &small_cfg(ChaseStrategy::DoubleChase, 8),
            &Budget::unlimited().with_max_evaluations(3),
            &mut NopObserver,
        );
        assert_eq!(outcome.stop, StopReason::EvaluationLimit);
        assert_eq!(outcome.evaluations, 3, "anchor + two capped members");
        assert_eq!(outcome.population.len(), 3);
    }

    #[test]
    fn zero_error_budget_returns_accurate_equivalent() {
        let ctx = adder_ctx();
        let result = optimize(&ctx, 0.0, &small_cfg(ChaseStrategy::DoubleChase, 6));
        assert_eq!(result.best.error, 0.0);
        // Fitness can exceed 1.0 only through error-free restructuring,
        // which LACs of this kind cannot achieve on an adder — expect
        // the anchor.
        assert!(result.best.fitness >= 1.0);
    }
}
