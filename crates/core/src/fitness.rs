//! Circuit fitness evaluation (Eq. 8 of the paper) and the evaluated
//! candidate representation shared by all optimizers.

use std::cell::RefCell;
use std::collections::HashMap;

use tdals_netlist::{GateId, Netlist, NetlistError, SignalRef};
use tdals_sim::{
    simulate_reusing, DeltaSim, ErrorEvaluator, ErrorMetric, Patterns, PreviewScratch, SimResult,
};
use tdals_sta::{analyze, IncrementalSta, TimingConfig, TimingDelta, TimingReport};

use crate::lac::Lac;

/// An approximate circuit together with every quantity the optimizers
/// need: depth, critical-path delay, live area, error, and the per-PO
/// timing/error vectors feeding the reproduction `Level` function.
///
/// Construction goes through [`EvalContext::evaluate`], which runs STA
/// and Monte-Carlo simulation once per candidate, or
/// [`EvalContext::evaluate_base`], which reads both off a scoring base.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The approximate netlist.
    pub netlist: Netlist,
    /// Maximum logic depth over POs (`Depth_app`).
    pub depth: u32,
    /// Critical path delay in ps.
    pub cpd: f64,
    /// Live (non-dangling) area in µm² (`Area_app`).
    pub area: f64,
    /// Error vs the accurate circuit under the configured metric.
    pub error: f64,
    /// Depth objective `f_d = Depth_ori / Depth_app` (maximize).
    pub fd: f64,
    /// Area objective `f_a = Area_ori / Area_app` (maximize).
    pub fa: f64,
    /// Scalar fitness `Fit = wd·f_d + wa·f_a` (Eq. 8).
    pub fitness: f64,
    /// Arrival time per PO in ps (`Ta` in Eq. 3).
    pub po_arrivals: Vec<f64>,
    /// Error contribution per PO (`Error` in Eq. 3).
    pub po_errors: Vec<f64>,
}

/// Every quantity of a [`Candidate`] except the materialized netlist.
///
/// Produced by [`EvalContext::score_lac`], which ranks a prospective
/// substitution in O(affected cone) without cloning the parent netlist;
/// candidates that survive selection are materialized afterwards with
/// [`LacScore::into_candidate`].
#[derive(Debug, Clone)]
pub struct LacScore {
    /// Maximum logic depth over POs (`Depth_app`).
    pub depth: u32,
    /// Critical path delay in ps.
    pub cpd: f64,
    /// Live (non-dangling) area in µm² (`Area_app`).
    pub area: f64,
    /// Error vs the accurate circuit under the configured metric.
    pub error: f64,
    /// Depth objective `f_d = Depth_ori / Depth_app` (maximize).
    pub fd: f64,
    /// Area objective `f_a = Area_ori / Area_app` (maximize).
    pub fa: f64,
    /// Scalar fitness `Fit = wd·f_d + wa·f_a` (Eq. 8).
    pub fitness: f64,
    /// Arrival time per PO in ps.
    pub po_arrivals: Vec<f64>,
    /// Error contribution per PO.
    pub po_errors: Vec<f64>,
}

impl LacScore {
    /// Attaches a materialized netlist, completing the [`Candidate`].
    pub fn into_candidate(self, netlist: Netlist) -> Candidate {
        Candidate {
            netlist,
            depth: self.depth,
            cpd: self.cpd,
            area: self.area,
            error: self.error,
            fd: self.fd,
            fa: self.fa,
            fitness: self.fitness,
            po_arrivals: self.po_arrivals,
            po_errors: self.po_errors,
        }
    }
}

/// Incremental scoring state for one base netlist: simulated words
/// ([`DeltaSim`]), timing state ([`IncrementalSta`]), and liveness
/// reference counts for O(dead cone) area updates.
///
/// Built with one full simulation and one full STA pass; every
/// [`EvalContext::score_lac`] against it then costs only the
/// substitution's affected cone. This is what makes candidate scoring
/// O(cone) instead of O(gates × words). [`DeltaEval::rebuild`]
/// re-targets a base at another netlist inside its existing buffers,
/// and [`EvalContext::evaluate_base`] reads the base netlist's candidate
/// off it.
#[derive(Debug, Clone)]
pub struct DeltaEval {
    sim: DeltaSim,
    /// Timing state on the simulator's netlist and fan-out rows. A
    /// preview re-times its cone in place and restores it, so scoring
    /// through a shared reference borrows it mutably for that long.
    sta: RefCell<IncrementalSta>,
    /// Marks and overlay rows of the simulation previews, borrowed the
    /// same way; its contents never affect a result.
    preview: RefCell<PreviewScratch>,
    /// Liveness of each gate in the base netlist.
    live: Vec<bool>,
    /// Per gate: live reader pins + PO driver references (0 for dead
    /// gates). A live gate dies when all of these references die.
    live_refs: Vec<u32>,
    /// `Area_app` of the base netlist.
    area_live: f64,
}

/// Liveness and live reference counts of `netlist` from scratch, into
/// `live` and `live_refs` (the ground truth [`DeltaEval`] maintains
/// incrementally). Returns the live area.
///
/// One descending pass over the fan-in rows: readers have larger ids
/// than their drivers, so when the pass reaches a gate every reference
/// to it has been counted, and it is live exactly when one exists (a
/// primary input always is). The area is then summed in ascending id
/// order, as [`Netlist::area_live`] sums it.
fn count_live(netlist: &Netlist, live: &mut Vec<bool>, live_refs: &mut Vec<u32>) -> f64 {
    let n = netlist.gate_count();
    live.clear();
    live.resize(n, false);
    live_refs.clear();
    live_refs.resize(n, 0);
    for driver in netlist.output_drivers() {
        if let SignalRef::Gate(src) = driver {
            live_refs[src.index()] += 1;
        }
    }
    for i in (0..n).rev() {
        let gate = netlist.gate(GateId::new(i));
        if !gate.is_input() && live_refs[i] == 0 {
            continue;
        }
        live[i] = true;
        for fanin in gate.fanins() {
            if let SignalRef::Gate(src) = fanin {
                live_refs[src.index()] += 1;
            }
        }
    }
    netlist
        .iter()
        .filter(|(id, _)| live[id.index()])
        .map(|(_, g)| g.cell().area())
        .sum()
}

impl DeltaEval {
    fn new(sim: DeltaSim, sta: IncrementalSta) -> DeltaEval {
        let mut base = DeltaEval {
            sim,
            sta: RefCell::new(sta),
            preview: RefCell::default(),
            live: Vec::new(),
            live_refs: Vec::new(),
            area_live: 0.0,
        };
        base.recount();
        tdals_obs::metrics().scoring_bases.incr();
        base
    }

    /// Rebuilds the liveness state from scratch off the current netlist,
    /// in the base's existing buffers. The live area is then a fresh
    /// sum, equal to [`Netlist::area_live`] bit for bit; after a
    /// [`DeltaEval::commit`] it is the cascaded one, which can differ in
    /// the last bits.
    pub fn recount(&mut self) {
        self.area_live = count_live(self.sim.netlist(), &mut self.live, &mut self.live_refs);
    }

    /// Re-targets the scoring state at `netlist`, on the stimulus and
    /// timing configuration it was built with: the state afterwards
    /// equals [`EvalContext::delta_eval`] of `netlist`, but the full
    /// simulation, the fan-out rows (the simulator's, which the timing
    /// engine reads too), the timing arrays and the liveness counts are
    /// written into this base's existing buffers, so a netlist of the
    /// previous one's gate count allocates no words.
    ///
    /// # Panics
    ///
    /// Panics if `netlist`'s primary input count differs from the
    /// stimulus width.
    pub fn rebuild(&mut self, netlist: Netlist) {
        self.sim.rebuild(netlist);
        self.sta.get_mut().rebuild(self.sim.netlist());
        self.recount();
        tdals_obs::metrics().scoring_bases.incr();
    }

    /// The base netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// The base simulation state (feeds similarity scoring).
    pub fn sim(&self) -> &DeltaSim {
        &self.sim
    }

    /// Snapshot of the base timing as a [`TimingReport`] (an O(gates)
    /// copy; [`DeltaEval::sta`] reads the same arrivals in place).
    pub fn report(&self) -> TimingReport {
        self.sta.borrow().to_report(self.sim.netlist())
    }

    /// The base timing engine, borrowed: its arrivals feed critical-path
    /// target collection ([`tdals_sta::Arrivals`]). The borrow must end
    /// before the next [`EvalContext::score_lac`] on this base.
    pub fn sta(&self) -> std::cell::Ref<'_, IncrementalSta> {
        self.sta.borrow()
    }

    /// `Area_app` of the base netlist in µm².
    pub fn area_live(&self) -> f64 {
        self.area_live
    }

    /// Liveness (PO reachability) of each gate in the base netlist.
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Per gate: live reader pins + PO driver references (0 for dead
    /// gates; primary inputs are always live regardless of their count).
    pub fn live_refs(&self) -> &[u32] {
        &self.live_refs
    }

    /// Applies `target := switch` to the scoring state itself: words,
    /// timing arrays, and liveness reference counts all advance to the
    /// substituted netlist, so subsequent previews score against the new
    /// base. Returns the number of rewired reader pins.
    ///
    /// Cost is O(affected cone) for simulation and timing and O(dead
    /// cone) for the liveness counts, except when the switch is a
    /// currently-dead gate — its cone resurrects, which falls back to a
    /// full reachability recount.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] (and leaves the state untouched) if the
    /// substitution violates the topological id invariant.
    pub fn commit(&mut self, target: GateId, switch: SignalRef) -> Result<usize, NetlistError> {
        // The timing engine reads the simulator's netlist and rows as
        // they are before the substitution, which the simulator then
        // applies to both.
        self.sta.get_mut().substitute_timing(
            self.sim.netlist(),
            self.sim.fanouts(),
            target,
            switch,
        )?;
        let rewired = self.sim.substitute(target, switch)?;
        self.cascade_refcounts(target, switch);
        #[cfg(debug_assertions)]
        {
            let report =
                tdals_lint::refcount_consistency(self.sim.netlist(), &self.live, &self.live_refs);
            debug_assert!(
                report.has_no_errors(),
                "commit({target}, {switch:?}) corrupted the liveness counts:\n{report}"
            );
        }
        Ok(rewired)
    }

    /// Incrementally updates `live` / `live_refs` / `area_live` after
    /// the netlist mutation `target := switch` has been applied.
    fn cascade_refcounts(&mut self, target: GateId, switch: SignalRef) {
        if !self.live[target.index()] {
            // Only dangling readers were rewired; reachability from the
            // POs is unchanged.
            return;
        }
        if let SignalRef::Gate(sw) = switch {
            if !self.live[sw.index()] {
                // A dead switch cone just came alive; resurrect by
                // recounting rather than walking it backwards.
                self.recount();
                return;
            }
        }
        if self.sim.netlist().gate(target).is_input() {
            // A primary input stays live with zero readers, so the
            // death cascade below does not apply.
            self.recount();
            return;
        }
        // The target's live readers now reference the switch.
        let moved = self.live_refs[target.index()];
        if let SignalRef::Gate(sw) = switch {
            self.live_refs[sw.index()] += moved;
        }
        self.live_refs[target.index()] = 0;
        // The target is now unreachable; cascade deaths through its
        // fan-in cone. Reader rewiring never touches a gate's own
        // fan-in row, so the dead cone's rows still describe the
        // references being released. Primary inputs lose references
        // like any other gate but stay live at zero.
        let netlist = self.sim.netlist();
        self.live[target.index()] = false;
        self.area_live -= netlist.gate(target).cell().area();
        let mut stack = vec![target];
        while let Some(g) = stack.pop() {
            for fanin in netlist.gate(g).fanins() {
                let SignalRef::Gate(src) = fanin else {
                    continue;
                };
                if !self.live[src.index()] {
                    continue;
                }
                self.live_refs[src.index()] -= 1;
                if self.live_refs[src.index()] == 0 && !netlist.gate(src).is_input() {
                    self.live[src.index()] = false;
                    self.area_live -= netlist.gate(src).cell().area();
                    stack.push(src);
                }
            }
        }
    }

    /// Live area of the circuit after substituting `target := switch`,
    /// computed by cascading reference-count deaths through the
    /// target's dead cone (no netlist clone, no full reachability
    /// pass): the base's live area minus the dead cone's, which can
    /// differ from a fresh sum in the last bits
    /// ([`DeltaEval::fresh_area_after`] is the fresh sum).
    pub fn area_after(&self, target: GateId, switch: SignalRef) -> f64 {
        let netlist = self.sim.netlist();
        let mut dead_area = 0.0;
        self.dead_cone(target, switch, |g| {
            dead_area += netlist.gate(g).cell().area();
        });
        self.area_live - dead_area
    }

    /// [`Netlist::area_live`] of the circuit after substituting
    /// `target := switch`, bit for bit: the base's live gates less the
    /// dead cone, summed in ascending id order as a fresh sum is. This
    /// costs O(gates) where [`DeltaEval::area_after`] costs O(dead
    /// cone), but near-tied areas compare exactly as full evaluations
    /// of the substituted netlists would.
    pub fn fresh_area_after(&self, target: GateId, switch: SignalRef) -> f64 {
        let mut dead = Vec::new();
        self.dead_cone(target, switch, |g| dead.push(g));
        dead.sort_unstable();
        let mut dead = dead.into_iter().peekable();
        self.sim
            .netlist()
            .iter()
            .filter(|&(id, _)| self.live[id.index()] && dead.next_if_eq(&id).is_none())
            .map(|(_, g)| g.cell().area())
            .sum()
    }

    /// Visits every live gate that dies when `target := switch` is
    /// applied: the target first, then the rest of its dead cone in
    /// discovery order. A dangling target kills nothing: substituting
    /// it rewires only dangling readers.
    ///
    /// The switch gate (when the target is live) necessarily lies in
    /// the target's transitive fan-in and inherits the target's live
    /// readers, so it survives; liveness can only shrink through the
    /// target's cone.
    fn dead_cone(&self, target: GateId, switch: SignalRef, mut dead: impl FnMut(GateId)) {
        if !self.live[target.index()] {
            return;
        }
        let netlist = self.sim.netlist();
        dead(target);
        let mut dec: HashMap<GateId, u32> = HashMap::new();
        let mut stack = vec![target];
        while let Some(g) = stack.pop() {
            for fanin in netlist.gate(g).fanins() {
                let SignalRef::Gate(src) = fanin else {
                    continue;
                };
                // The switch keeps the target's live readers, and
                // primary inputs always count as live.
                if !self.live[src.index()]
                    || SignalRef::Gate(src) == switch
                    || netlist.gate(src).is_input()
                {
                    continue;
                }
                let d = dec.entry(src).or_insert(0);
                *d += 1;
                if *d == self.live_refs[src.index()] {
                    stack.push(src);
                    dead(src);
                }
            }
        }
    }

    /// Timing of the circuit after substituting `target := switch`,
    /// previewed on the base's timing engine and restored: equal to
    /// [`analyze`] of the substituted netlist by `to_bits`.
    pub fn preview_timing(&self, target: GateId, switch: SignalRef) -> TimingDelta {
        self.sta.borrow_mut().preview_substitute(
            self.sim.netlist(),
            self.sim.fanouts(),
            target,
            switch,
        )
    }
}

/// The reusable word buffer of [`EvalContext::evaluate_in`] and
/// [`EvalContext::simulate_in`]: it holds the last full simulation. A
/// worker keeps one across evaluations, so full evaluations of
/// same-sized netlists allocate their words once. Its contents never
/// affect a result.
#[derive(Debug, Default)]
pub struct EvalScratch {
    sim: Option<SimResult>,
}

/// Shared evaluation context: the accurate circuit's reference numbers,
/// the Monte-Carlo error evaluator, and the timing configuration.
///
/// # Examples
///
/// ```
/// use tdals_circuits::Benchmark;
/// use tdals_core::EvalContext;
/// use tdals_sim::{ErrorMetric, Patterns};
/// use tdals_sta::TimingConfig;
///
/// let accurate = Benchmark::Max16.build();
/// let ctx = EvalContext::new(
///     &accurate,
///     Patterns::random(32, 2048, 1),
///     ErrorMetric::Nmed,
///     TimingConfig::default(),
///     0.8,
/// );
/// let cand = ctx.evaluate(accurate.clone());
/// assert_eq!(cand.error, 0.0);
/// assert!((cand.fitness - 1.0).abs() < 1e-9); // fd = fa = 1 for itself
/// ```
#[derive(Debug, Clone)]
pub struct EvalContext {
    accurate: Netlist,
    evaluator: ErrorEvaluator,
    timing: TimingConfig,
    depth_weight: f64,
    depth_ori: u32,
    area_ori: f64,
    cpd_ori: f64,
}

impl EvalContext {
    /// Builds a context around the accurate circuit.
    ///
    /// `depth_weight` is `wd` of Eq. 8 (`wa = 1 − wd`); the paper's
    /// calibrated value is 0.8 (Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `depth_weight` is outside `[0, 1]`.
    pub fn new(
        accurate: &Netlist,
        patterns: Patterns,
        metric: ErrorMetric,
        timing: TimingConfig,
        depth_weight: f64,
    ) -> EvalContext {
        assert!(
            (0.0..=1.0).contains(&depth_weight),
            "depth weight must be in [0, 1]"
        );
        let report = analyze(accurate, &timing);
        EvalContext {
            accurate: accurate.clone(),
            evaluator: ErrorEvaluator::new(accurate, patterns, metric),
            timing,
            depth_weight,
            depth_ori: report.max_depth().max(1),
            area_ori: accurate.area_live(),
            cpd_ori: report.critical_path_delay(),
        }
    }

    /// The accurate reference circuit.
    pub fn accurate(&self) -> &Netlist {
        &self.accurate
    }

    /// Accurate circuit's maximum logic depth (`Depth_ori`).
    pub fn depth_ori(&self) -> u32 {
        self.depth_ori
    }

    /// Accurate circuit's live area in µm² (`Area_ori`).
    pub fn area_ori(&self) -> f64 {
        self.area_ori
    }

    /// Accurate circuit's critical path delay in ps (`CPD_ori`).
    pub fn cpd_ori(&self) -> f64 {
        self.cpd_ori
    }

    /// Depth weight `wd` of the fitness function.
    pub fn depth_weight(&self) -> f64 {
        self.depth_weight
    }

    /// Error metric in force.
    pub fn metric(&self) -> ErrorMetric {
        self.evaluator.metric()
    }

    /// Timing configuration used for every STA call.
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// The underlying Monte-Carlo evaluator (the accurate circuit's
    /// output rows included).
    pub fn evaluator(&self) -> &ErrorEvaluator {
        &self.evaluator
    }

    /// Simulates a netlist on the shared stimulus (used by circuit
    /// searching to score switch-gate similarities).
    pub fn simulate(&self, netlist: &Netlist) -> SimResult {
        self.evaluator.simulate(netlist)
    }

    /// [`EvalContext::simulate`] into `scratch`'s word buffer. The result
    /// lives in the scratch until its next use.
    pub fn simulate_in<'s>(
        &self,
        netlist: &Netlist,
        scratch: &'s mut EvalScratch,
    ) -> &'s SimResult {
        let words = scratch
            .sim
            .take()
            .map(SimResult::into_words)
            .unwrap_or_default();
        scratch
            .sim
            .insert(simulate_reusing(netlist, self.evaluator.patterns(), words))
    }

    /// Runs STA on a netlist with the shared configuration.
    pub fn analyze(&self, netlist: &Netlist) -> TimingReport {
        analyze(netlist, &self.timing)
    }

    /// Fully evaluates an approximate netlist into a [`Candidate`].
    pub fn evaluate(&self, netlist: Netlist) -> Candidate {
        self.evaluate_in(netlist, &mut EvalScratch::default())
    }

    /// [`EvalContext::evaluate`] with the simulation written into
    /// `scratch`'s buffer; the candidate is the same.
    pub fn evaluate_in(&self, netlist: Netlist, scratch: &mut EvalScratch) -> Candidate {
        let report = analyze(&netlist, &self.timing);
        let sim = self.simulate_in(&netlist, scratch);
        self.score_from(
            report.max_depth(),
            report.critical_path_delay(),
            netlist.area_live(),
            self.evaluator.error_of_sim(sim),
            report.po_arrivals().to_vec(),
            self.evaluator.po_errors_of_sim(sim),
        )
        .into_candidate(netlist)
    }

    /// [`EvalContext::evaluate`] of a netlist equal to `parent`'s, from
    /// `parent`'s measurements instead of a simulation and an STA pass.
    ///
    /// Depth, delay, error and the per-PO vectors are functions of the
    /// netlist and are copied. The live area is summed afresh and the
    /// fitness terms recomputed from it: a parent scored through
    /// [`EvalContext::score_lac`] carries the dead-cone area, which can
    /// differ from a fresh sum in the last bits. The result equals a
    /// full evaluation bit for bit whatever way `parent` was scored.
    pub fn evaluate_reusing(&self, netlist: Netlist, parent: &Candidate) -> Candidate {
        debug_assert!(
            netlist == parent.netlist,
            "a reused score needs an equal netlist"
        );
        self.score_from(
            parent.depth,
            parent.cpd,
            netlist.area_live(),
            parent.error,
            parent.po_arrivals.clone(),
            parent.po_errors.clone(),
        )
        .into_candidate(netlist)
    }

    /// Builds the incremental scoring state for `netlist`: one full
    /// simulation plus one full STA pass up front; every
    /// [`EvalContext::score_lac`] against it is then O(affected cone).
    pub fn delta_eval(&self, netlist: Netlist) -> DeltaEval {
        let sim = DeltaSim::new(netlist, self.evaluator.patterns());
        let sta = IncrementalSta::new(sim.netlist(), self.timing);
        DeltaEval::new(sim, sta)
    }

    /// Scores the candidate obtained by applying `lac` to `base`'s
    /// netlist **without materializing it**: error through the
    /// simulation cone preview, timing through the STA cone preview,
    /// and area through the dead-cone reference-count cascade.
    ///
    /// The error and timing terms are bit-identical to a full
    /// [`EvalContext::evaluate`] of the mutated netlist: the incremental
    /// simulator shares its word expansion with the full one, and the
    /// incremental STA sums loads and settles arrivals exactly as full
    /// STA does. The area is the base's live area minus the dead cone's,
    /// which can differ from a fresh sum in the last bits.
    pub fn score_lac(&self, base: &DeltaEval, lac: Lac) -> LacScore {
        let mut preview = base.preview.borrow_mut();
        let view = base
            .sim()
            .preview_outputs_in(lac.target(), lac.switch(), &mut preview);
        let error = self.evaluator.error_of_sim(&view);
        let po_errors = self.evaluator.po_errors_of_sim(&view);
        let timing = base.preview_timing(lac.target(), lac.switch());
        let area = base.area_after(lac.target(), lac.switch());
        self.score_from(
            timing.max_depth(),
            timing.critical_path_delay(),
            area,
            error,
            timing.po_arrivals,
            po_errors,
        )
    }

    /// The candidate of `base`'s netlist, read straight off the base:
    /// depth, delay and PO arrivals from its timing engine, error and
    /// per-PO errors from its words, and its live area. Nothing is
    /// simulated or timed, and the candidate equals
    /// [`EvalContext::evaluate`] of the netlist bit for bit, because the
    /// base's words and timing are those of a full simulation and STA.
    ///
    /// The base's live area must be a fresh sum, as it is right after
    /// [`EvalContext::delta_eval`] or [`DeltaEval::rebuild`]. After
    /// [`DeltaEval::commit`]s it is cascaded, so
    /// [`DeltaEval::recount`] it first.
    pub fn evaluate_base(&self, base: &DeltaEval) -> Candidate {
        let netlist = base.netlist();
        debug_assert_eq!(
            base.area_live().to_bits(),
            netlist.area_live().to_bits(),
            "a base read needs a recounted live area"
        );
        let sta = base.sta.borrow();
        let mut depth = 0;
        let po_arrivals: Vec<f64> = netlist
            .output_drivers()
            .map(|driver| match driver {
                SignalRef::Gate(g) => {
                    depth = depth.max(sta.depth(g));
                    sta.arrival(g)
                }
                _ => 0.0,
            })
            .collect();
        let cpd = po_arrivals.iter().copied().fold(0.0, f64::max);
        self.score_from(
            depth,
            cpd,
            base.area_live(),
            self.evaluator.error_of_sim(base.sim()),
            po_arrivals,
            self.evaluator.po_errors_of_sim(base.sim()),
        )
        .into_candidate(netlist.clone())
    }

    /// `slot`'s base re-targeted at `netlist` by
    /// [`DeltaEval::rebuild`], or built there on first use.
    pub(crate) fn rebuild_in<'b>(
        &self,
        slot: &'b mut Option<DeltaEval>,
        netlist: Netlist,
    ) -> &'b mut DeltaEval {
        match slot {
            Some(base) => {
                base.rebuild(netlist);
                base
            }
            empty @ None => empty.insert(self.delta_eval(netlist)),
        }
    }

    /// Depth and area objectives `(f_d, f_a)` for measured quantities.
    fn objectives_from(&self, depth: u32, area: f64) -> (f64, f64) {
        let fd = f64::from(self.depth_ori) / f64::from(depth.max(1));
        let fa = self.area_ori / area.max(1e-9);
        (fd, fa)
    }

    /// Scalar fitness `Fit = wd·f_d + wa·f_a` (Eq. 8) for a measured
    /// depth and live area — the same formula every candidate is
    /// scored with, exposed so other optimizers' progress statistics
    /// stay comparable with DCGWO's.
    pub fn fitness_from(&self, depth: u32, area: f64) -> f64 {
        let (fd, fa) = self.objectives_from(depth, area);
        self.depth_weight * fd + (1.0 - self.depth_weight) * fa
    }

    /// Assembles the fitness terms (Eq. 8) from measured quantities.
    fn score_from(
        &self,
        depth: u32,
        cpd: f64,
        area: f64,
        error: f64,
        po_arrivals: Vec<f64>,
        po_errors: Vec<f64>,
    ) -> LacScore {
        let (fd, fa) = self.objectives_from(depth, area);
        let fitness = self.fitness_from(depth, area);
        LacScore {
            depth,
            cpd,
            area,
            error,
            fd,
            fa,
            fitness,
            po_arrivals,
            po_errors,
        }
    }
}

/// Whether two candidates carry the same netlist and the same scores,
/// bit for bit.
#[cfg(test)]
pub(crate) fn same_scores(a: &Candidate, b: &Candidate) -> bool {
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    a.netlist == b.netlist
        && a.depth == b.depth
        && [a.cpd, a.area, a.error, a.fd, a.fa, a.fitness].map(f64::to_bits)
            == [b.cpd, b.area, b.error, b.fd, b.fa, b.fitness].map(f64::to_bits)
        && bits(&a.po_arrivals) == bits(&b.po_arrivals)
        && bits(&a.po_errors) == bits(&b.po_errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;

    fn small_adder() -> Netlist {
        let mut b = Builder::new("add4");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        b.finish()
    }

    fn ctx(metric: ErrorMetric, wd: f64) -> (Netlist, EvalContext) {
        let n = small_adder();
        let ctx = EvalContext::new(
            &n,
            Patterns::exhaustive(8),
            metric,
            TimingConfig::default(),
            wd,
        );
        (n, ctx)
    }

    #[test]
    fn accurate_circuit_scores_unity() {
        let (n, ctx) = ctx(ErrorMetric::ErrorRate, 0.8);
        let c = ctx.evaluate(n);
        assert_eq!(c.error, 0.0);
        assert!((c.fd - 1.0).abs() < 1e-12);
        assert!((c.fa - 1.0).abs() < 1e-12);
        assert!((c.fitness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lac_improves_fitness_and_adds_error() {
        let (n, ctx) = ctx(ErrorMetric::ErrorRate, 0.8);
        let mut approx = n.clone();
        // Kill the last carry gate: shortens the critical path.
        let report = ctx.analyze(&approx);
        let path = tdals_sta::critical_path(&approx, &report);
        let target = *path.last().expect("non-empty critical path");
        approx.substitute(target, SignalRef::Const0).expect("lac");
        let c = ctx.evaluate(approx);
        assert!(c.fitness > 1.0, "fitness {} should exceed 1", c.fitness);
        assert!(c.error > 0.0);
        assert!(c.fd >= 1.0);
        assert!(c.fa > 1.0);
    }

    #[test]
    fn depth_weight_shifts_fitness() {
        let (n, ctx_d) = ctx(ErrorMetric::ErrorRate, 1.0);
        let ctx_a = EvalContext::new(
            &n,
            Patterns::exhaustive(8),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.0,
        );
        let mut approx = n.clone();
        // Remove a non-critical gate: area improves, depth does not.
        let s0 = approx.find_gate("u1").expect("first gate");
        approx.substitute(s0, SignalRef::Const0).expect("lac");
        let cd = ctx_d.evaluate(approx.clone());
        let ca = ctx_a.evaluate(approx);
        assert!(ca.fitness > cd.fitness, "area-weighted sees the gain");
    }

    #[test]
    fn po_vectors_have_output_arity() {
        let (n, ctx) = ctx(ErrorMetric::Nmed, 0.8);
        let c = ctx.evaluate(n.clone());
        assert_eq!(c.po_arrivals.len(), n.output_count());
        assert_eq!(c.po_errors.len(), n.output_count());
    }

    /// A recycled base and a recycled simulation buffer, last used on
    /// another netlist, give exactly the fresh results.
    #[test]
    fn recycled_base_and_buffer_equal_fresh_ones() {
        let (n, ctx) = ctx(ErrorMetric::Nmed, 0.8);
        let mut approx = n.clone();
        let first = approx.find_gate("u1").expect("first gate");
        approx.substitute(first, SignalRef::Const0).expect("lac");

        let mut base = ctx.delta_eval(approx.clone());
        base.rebuild(n.clone());
        let fresh = ctx.delta_eval(n.clone());
        assert_eq!(base.netlist(), fresh.netlist());
        assert_eq!(base.live(), fresh.live());
        assert_eq!(base.live_refs(), fresh.live_refs());
        assert_eq!(base.area_live().to_bits(), fresh.area_live().to_bits());
        for (id, gate) in n.iter() {
            if gate.is_input() {
                continue;
            }
            let lac = Lac::new(id, SignalRef::Const1);
            let (a, b) = (ctx.score_lac(&base, lac), ctx.score_lac(&fresh, lac));
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits(), "{id}");
            assert_eq!(a.error.to_bits(), b.error.to_bits(), "{id}");
            assert_eq!(a.po_arrivals, b.po_arrivals, "{id}");
        }

        // A simulation buffer last used on another stimulus and netlist.
        let mut scratch = EvalScratch::default();
        let other = EvalContext::new(
            &small_adder(),
            Patterns::random(8, 1000, 3),
            ErrorMetric::Nmed,
            TimingConfig::default(),
            0.8,
        );
        drop(other.evaluate_in(small_adder(), &mut scratch));
        for netlist in [approx, n] {
            let recycled = ctx.evaluate_in(netlist.clone(), &mut scratch);
            let fresh = ctx.evaluate(netlist);
            assert!(same_scores(&recycled, &fresh), "{recycled:?} vs {fresh:?}");
        }
    }

    /// A candidate read off a base equals a full evaluation bit for bit:
    /// after rebuilds at netlists of one, two and three LACs, in one
    /// recycled base, and after a rebuild at the accurate circuit.
    #[test]
    fn base_reads_equal_full_evaluations() {
        let accurate = tdals_circuits::Benchmark::C880.build();
        let ctx = EvalContext::new(
            &accurate,
            Patterns::random(accurate.input_count(), 300, 2),
            ErrorMetric::Nmed,
            TimingConfig::default(),
            0.8,
        );
        let gates: Vec<GateId> = accurate
            .iter()
            .filter(|(_, gate)| !gate.is_input())
            .map(|(id, _)| id)
            .collect();
        let mut base = ctx.delta_eval(accurate.clone());
        for (k, &target) in gates.iter().enumerate().step_by(7) {
            let mut netlist = accurate.clone();
            for &t in [target, gates[k / 2], gates[k / 3]].iter().take(1 + k % 3) {
                Lac::new(t, SignalRef::Const1)
                    .apply(&mut netlist)
                    .expect("constant switch");
            }
            base.rebuild(netlist.clone());
            let read = ctx.evaluate_base(&base);
            let fresh = ctx.evaluate(netlist);
            assert!(
                same_scores(&read, &fresh),
                "{target}: {read:?} vs {fresh:?}"
            );
        }
        base.rebuild(accurate.clone());
        assert!(same_scores(
            &ctx.evaluate_base(&base),
            &ctx.evaluate(accurate.clone())
        ));
    }

    /// A score reused from an equal parent equals a full evaluation bit
    /// for bit, also when the parent was scored through a cone preview
    /// and carries the dead-cone area, which here differs from a fresh
    /// sum for some LACs.
    #[test]
    fn reused_scores_equal_a_full_evaluation() {
        let accurate = tdals_circuits::Benchmark::C880.build();
        let ctx = EvalContext::new(
            &accurate,
            Patterns::random(accurate.input_count(), 300, 2),
            ErrorMetric::Nmed,
            TimingConfig::default(),
            0.8,
        );
        let base = ctx.delta_eval(accurate.clone());
        let mut scratch = EvalScratch::default();
        let mut moved_area = 0;
        for (id, gate) in accurate.iter() {
            if gate.is_input() {
                continue;
            }
            let lac = Lac::new(id, SignalRef::Const0);
            let mut netlist = accurate.clone();
            lac.apply(&mut netlist).expect("constant switch");
            let fresh = ctx.evaluate_in(netlist.clone(), &mut scratch);
            let lazy = ctx.score_lac(&base, lac).into_candidate(netlist.clone());
            if lazy.area.to_bits() != fresh.area.to_bits() {
                moved_area += 1;
            }
            for parent in [&lazy, &fresh] {
                let reused = ctx.evaluate_reusing(netlist.clone(), parent);
                assert!(
                    same_scores(&reused, &fresh),
                    "{id}: {reused:?} vs {fresh:?}"
                );
            }
        }
        assert!(
            moved_area > 0,
            "some dead-cone area differs from a fresh sum"
        );
    }

    #[test]
    #[should_panic(expected = "depth weight")]
    fn rejects_bad_depth_weight() {
        let n = small_adder();
        let _ = EvalContext::new(
            &n,
            Patterns::exhaustive(8),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            1.5,
        );
    }
}
