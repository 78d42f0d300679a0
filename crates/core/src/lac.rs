//! Local approximate changes (LACs): wire-by-wire and wire-by-constant
//! substitution, target-set construction, and similarity-based switch
//! selection (§III-A / §III-B of the paper).

use rand::Rng;
use tdals_netlist::{GateId, Netlist, NetlistError, SignalRef};
use tdals_sim::SimWords;
use tdals_sta::{worst_fanin, Arrivals};

/// One local approximate change: substitute every use of the target
/// gate's output with the switch signal.
///
/// With a constant switch this is a *wire-by-constant* LAC; with a gate
/// switch it is *wire-by-wire*. The paper draws switch gates from the
/// target's transitive fan-in, which guarantees the substitution cannot
/// create a combinational loop.
///
/// # Examples
///
/// ```
/// use tdals_core::Lac;
/// use tdals_netlist::{GateId, SignalRef};
///
/// let lac = Lac::new(GateId::new(8), SignalRef::Const0);
/// assert!(lac.is_wire_by_constant());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lac {
    target: GateId,
    switch: SignalRef,
}

impl Lac {
    /// Creates a LAC from a target gate and switch signal.
    pub fn new(target: GateId, switch: SignalRef) -> Lac {
        Lac { target, switch }
    }

    /// Gate whose output wire is substituted away.
    pub fn target(self) -> GateId {
        self.target
    }

    /// Signal taking the target's place.
    pub fn switch(self) -> SignalRef {
        self.switch
    }

    /// `true` when the switch is a constant (`wire-by-constant`).
    pub fn is_wire_by_constant(self) -> bool {
        self.switch.is_const()
    }

    /// Applies the substitution to a netlist, returning the number of
    /// rewritten references.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] if the switch gate does not
    /// precede the target in topological id order.
    pub fn apply(self, netlist: &mut Netlist) -> Result<usize, NetlistError> {
        netlist.substitute(self.target, self.switch)
    }
}

/// Builds the target set `T_c` of circuit searching: all gates on the
/// worst path of each of the `path_count` latest primary outputs, plus —
/// with probability 0.5 per sampled gate — their gate fan-ins.
///
/// `timing` is any arrival source for `netlist`: a
/// [`TimingReport`](tdals_sta::TimingReport) or the live state of an
/// [`IncrementalSta`](tdals_sta::IncrementalSta). A primary output
/// arrives when its driver gate does, and a constant one at 0, as in
/// the report. Primary inputs never enter the set (they cannot be
/// approximated).
///
/// # Equivalence to per-PO path extraction
///
/// The set is the union of
/// [`critical_path_to_po`](tdals_sta::critical_path_to_po) over the
/// ranked POs, each path pushed in PI→PO order after dropping gates
/// already taken. That walk goes backwards from the PO driver, one
/// [`worst_fanin`] step at a time (the same step this walk takes), so
/// the rest of a walk from any gate depends only on that gate. Once a walk reaches a gate already
/// in the set, the whole remainder is therefore in the set too, and the
/// walk stops there: the gates it visited before are exactly the ones
/// the per-path filter would keep, and they are pushed in the same
/// (reversed) order. Each gate is walked at most once, so the cost is
/// O(gates + pins) rather than O(POs × depth).
pub fn collect_targets<R: Rng, A: Arrivals + ?Sized>(
    netlist: &Netlist,
    timing: &A,
    path_count: usize,
    rng: &mut R,
) -> Vec<GateId> {
    // Rank POs by arrival time, worst first.
    let po_arrival: Vec<f64> = netlist
        .output_drivers()
        .map(|driver| match driver {
            SignalRef::Gate(g) => timing.arrival(g),
            _ => 0.0,
        })
        .collect();
    let mut pos: Vec<usize> = (0..netlist.output_count()).collect();
    pos.sort_by(|&a, &b| po_arrival[b].total_cmp(&po_arrival[a]));
    pos.truncate(path_count.max(1));

    let mut in_set = vec![false; netlist.gate_count()];
    let mut targets = Vec::new();
    let mut walk = Vec::new();
    for po in pos {
        let SignalRef::Gate(mut cursor) = netlist.output_driver(po) else {
            continue;
        };
        while !in_set[cursor.index()] {
            if netlist.gate(cursor).is_input() {
                break;
            }
            in_set[cursor.index()] = true;
            walk.push(cursor);
            match worst_fanin(netlist, timing, cursor) {
                Some(src) => cursor = src,
                None => break,
            }
        }
        targets.extend(walk.drain(..).rev());
    }
    // Uniform (0,1) sampling per path gate: above 0.5, adopt its fan-ins.
    let path_gates = targets.clone();
    for gate in path_gates {
        if rng.gen::<f64>() > 0.5 {
            for fanin in netlist.gate(gate).fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if !in_set[src.index()] && !netlist.gate(src).is_input() {
                        in_set[src.index()] = true;
                        targets.push(src);
                    }
                }
            }
        }
    }
    targets
}

/// Reusable buffers for [`select_switch`] and [`random_lac`]:
/// generation-stamped visit marks, so finding a target's transitive
/// fan-in clears nothing and allocates nothing per call, plus the
/// candidate pool. A loop that selects many switches keeps one scratch
/// (a parallel one, one per worker); it serves any sequence of
/// netlists, and its contents never affect a decision.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Per gate: the generation that last visited it.
    stamp: Vec<u32>,
    generation: u32,
    stack: Vec<GateId>,
    pool: Vec<SignalRef>,
}

impl SearchScratch {
    /// Stamps the transitive fan-in of `root` (`root` excluded) with a
    /// fresh generation, which it returns.
    fn mark_tfi(&mut self, netlist: &Netlist, root: GateId) -> u32 {
        if self.stamp.len() != netlist.gate_count() || self.generation == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(netlist.gate_count(), 0);
            self.generation = 0;
        }
        self.generation += 1;
        let generation = self.generation;
        self.stack.clear();
        self.stack.push(root);
        while let Some(id) = self.stack.pop() {
            for fanin in netlist.gate(id).fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if self.stamp[src.index()] != generation {
                        self.stamp[src.index()] = generation;
                        self.stack.push(src);
                    }
                }
            }
        }
        generation
    }
}

/// Selects the switch signal for `target` by output similarity: the
/// candidate pool is the target's transitive fan-in (sampled down to
/// `max_candidates` when large) plus the constants `0` and `1`; the
/// highest-similarity candidate wins.
///
/// `sim` is any [`SimWords`] view of the netlist — a full
/// [`SimResult`](tdals_sim::SimResult) or the incremental engine's
/// state ([`DeltaSim`](tdals_sim::DeltaSim)).
///
/// The fan-in marks and the pool live in `scratch`, so a call
/// allocates nothing once the scratch has served a netlist of this
/// size.
///
/// Returns `None` when the target has an empty fan-in cone and neither
/// constant improves on it (cannot happen in practice: constants are
/// always candidates).
pub fn select_switch<R: Rng, V: SimWords>(
    netlist: &Netlist,
    sim: &V,
    target: GateId,
    max_candidates: usize,
    scratch: &mut SearchScratch,
    rng: &mut R,
) -> Option<Lac> {
    let generation = scratch.mark_tfi(netlist, target);
    // Fan-ins precede their readers, so the whole cone lies below the
    // target; ascending ids give the pool its fixed order.
    let pool = &mut scratch.pool;
    pool.clear();
    pool.extend(
        scratch.stamp[..target.index()]
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == generation)
            .map(|(i, _)| SignalRef::Gate(GateId::new(i))),
    );
    if pool.len() > max_candidates {
        // Sample without replacement via partial Fisher-Yates.
        for i in 0..max_candidates {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(max_candidates);
    }
    pool.push(SignalRef::Const0);
    pool.push(SignalRef::Const1);

    let target_sig = SignalRef::Gate(target);
    let mut best: Option<(SignalRef, f64)> = None;
    for &cand in pool.iter() {
        if cand == target_sig {
            continue;
        }
        let s = sim.similarity(target_sig, cand);
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((cand, s));
        }
    }
    best.map(|(switch, _)| Lac::new(target, switch))
}

/// Draws a random LAC anywhere in the circuit (used for initial
/// population seeding: "performing LACs on randomly selected target
/// gates of the accurate circuit"): a uniform target, then
/// [`select_switch`] with `scratch`.
pub fn random_lac<R: Rng, V: SimWords>(
    netlist: &Netlist,
    sim: &V,
    max_candidates: usize,
    scratch: &mut SearchScratch,
    rng: &mut R,
) -> Option<Lac> {
    let logic_gates: Vec<GateId> = netlist
        .iter()
        .filter(|(_, g)| !g.is_input())
        .map(|(id, _)| id)
        .collect();
    if logic_gates.is_empty() {
        return None;
    }
    let target = logic_gates[rng.gen_range(0..logic_gates.len())];
    select_switch(netlist, sim, target, max_candidates, scratch, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tdals_circuits::Benchmark;
    use tdals_netlist::builder::Builder;
    use tdals_sim::{simulate, Patterns};
    use tdals_sta::{analyze, critical_path_to_po, TimingConfig, TimingReport};

    fn test_circuit() -> Netlist {
        let mut b = Builder::new("t");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        b.finish()
    }

    #[test]
    fn targets_come_from_critical_paths() {
        let n = test_circuit();
        let report = analyze(&n, &TimingConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let targets = collect_targets(&n, &report, 2, &mut rng);
        assert!(!targets.is_empty());
        for t in &targets {
            assert!(!n.gate(*t).is_input(), "PIs are never targets");
        }
        // The worst PO's driver must be in the set.
        let worst = report.critical_po();
        let driver = n.output_driver(worst).gate().expect("gate-driven PO");
        assert!(targets.contains(&driver));
    }

    #[test]
    fn switch_comes_from_tfi_or_constants() {
        let n = test_circuit();
        let p = Patterns::exhaustive(8);
        let sim = simulate(&n, &p);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = SearchScratch::default();
        for (id, gate) in n.iter() {
            if gate.is_input() {
                continue;
            }
            let lac = select_switch(&n, &sim, id, 16, &mut scratch, &mut rng).expect("switch");
            assert_eq!(lac.target(), id);
            // Constant switches are always legal; gate switches must
            // come from the target's TFI.
            if let SignalRef::Gate(s) = lac.switch() {
                assert!(n.tfi_mask(id)[s.index()], "switch inside TFI");
            }
        }
    }

    /// One scratch reused across targets, across two netlists of
    /// different sizes and across a generation wrap yields each
    /// target's exact fan-in cone, ascending, and the decisions of a
    /// fresh scratch.
    #[test]
    fn reused_switch_scratch_matches_the_fan_in_mask() {
        let small = test_circuit();
        let large = Benchmark::C880.build();
        let mut scratch = SearchScratch::default();
        for (round, n) in [&small, &large, &small].into_iter().enumerate() {
            let sim = simulate(n, &Patterns::random(n.input_count(), 128, 4));
            if round == 2 {
                scratch.generation = u32::MAX - 3;
            }
            for (id, gate) in n.iter() {
                if gate.is_input() {
                    continue;
                }
                let mut fresh_rng = StdRng::seed_from_u64(id.index() as u64);
                let mut reused_rng = fresh_rng.clone();
                let fresh = select_switch(
                    n,
                    &sim,
                    id,
                    5,
                    &mut SearchScratch::default(),
                    &mut fresh_rng,
                );
                let reused = select_switch(n, &sim, id, 5, &mut scratch, &mut reused_rng);
                assert_eq!(fresh, reused, "round {round}, target {id}");

                let mut rng = StdRng::seed_from_u64(0);
                select_switch(n, &sim, id, usize::MAX, &mut scratch, &mut rng);
                let mut want: Vec<SignalRef> = n
                    .tfi_mask(id)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &m)| m)
                    .map(|(i, _)| SignalRef::Gate(GateId::new(i)))
                    .collect();
                want.extend([SignalRef::Const0, SignalRef::Const1]);
                assert_eq!(scratch.pool, want, "round {round}, target {id}");
            }
        }
    }

    #[test]
    fn applied_lac_never_creates_cycles() {
        let n = test_circuit();
        let p = Patterns::exhaustive(8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = SearchScratch::default();
        for trial in 0..50 {
            let mut approx = n.clone();
            let sim = simulate(&approx, &p);
            if let Some(lac) = random_lac(&approx, &sim, 16, &mut scratch, &mut rng) {
                lac.apply(&mut approx).expect("TFI switch is always legal");
                approx
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            }
        }
    }

    #[test]
    fn switch_selection_picks_high_similarity() {
        // Build a circuit where gate `dup` duplicates gate `orig`:
        // similarity 1.0, so `dup`'s best switch must be `orig`.
        let mut b = Builder::new("dup");
        let a = b.input("a");
        let x = b.input("b");
        let orig = b.raw_gate(tdals_netlist::cell::CellFunc::And2, &[a, x]);
        let inv = b.not(orig);
        let dup = b.not(inv); // dup == orig functionally
        b.output("y", dup);
        let n = b.finish();
        let p = Patterns::exhaustive(2);
        let sim = simulate(&n, &p);
        let mut rng = StdRng::seed_from_u64(4);
        let dup_gate = dup.gate().expect("gate");
        let lac = select_switch(
            &n,
            &sim,
            dup_gate,
            16,
            &mut SearchScratch::default(),
            &mut rng,
        )
        .expect("switch");
        assert_eq!(lac.switch(), orig, "perfect-similarity switch chosen");
    }

    #[test]
    fn wire_by_constant_classification() {
        let lac0 = Lac::new(GateId::new(5), SignalRef::Const0);
        let lacw = Lac::new(GateId::new(5), SignalRef::Gate(GateId::new(2)));
        assert!(lac0.is_wire_by_constant());
        assert!(!lacw.is_wire_by_constant());
    }

    /// Target collection by one full `critical_path_to_po` extraction
    /// per ranked PO — the oracle [`collect_targets`] must match.
    fn collect_targets_per_path<R: Rng>(
        netlist: &Netlist,
        report: &TimingReport,
        path_count: usize,
        rng: &mut R,
    ) -> Vec<GateId> {
        let mut pos: Vec<usize> = (0..netlist.output_count()).collect();
        pos.sort_by(|&a, &b| report.po_arrival(b).total_cmp(&report.po_arrival(a)));
        pos.truncate(path_count.max(1));
        let mut in_set = vec![false; netlist.gate_count()];
        let mut targets = Vec::new();
        for po in pos {
            for gate in critical_path_to_po(netlist, report, po) {
                if !in_set[gate.index()] && !netlist.gate(gate).is_input() {
                    in_set[gate.index()] = true;
                    targets.push(gate);
                }
            }
        }
        for gate in targets.clone() {
            if rng.gen::<f64>() > 0.5 {
                for fanin in netlist.gate(gate).fanins() {
                    if let SignalRef::Gate(src) = fanin {
                        if !in_set[src.index()] && !netlist.gate(src).is_input() {
                            in_set[src.index()] = true;
                            targets.push(src);
                        }
                    }
                }
            }
        }
        targets
    }

    #[test]
    fn collect_targets_matches_per_path_extraction() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = SearchScratch::default();
        for bench in [Benchmark::C880, Benchmark::C1908, Benchmark::Max16] {
            let accurate = bench.build();
            let p = Patterns::random(accurate.input_count(), 128, 5);
            let mut n = accurate.clone();
            for step in 0..12 {
                let report = analyze(&n, &TimingConfig::default());
                for path_count in [0, 1, 2, 3, 7, n.output_count(), n.output_count() + 4] {
                    let mut fast_rng = StdRng::seed_from_u64(step * 100 + path_count as u64);
                    let mut oracle_rng = fast_rng.clone();
                    assert_eq!(
                        collect_targets(&n, &report, path_count, &mut fast_rng),
                        collect_targets_per_path(&n, &report, path_count, &mut oracle_rng),
                        "{bench} step {step} paths {path_count}"
                    );
                    assert_eq!(
                        fast_rng.gen::<u64>(),
                        oracle_rng.gen::<u64>(),
                        "{bench} step {step} paths {path_count}: RNG state"
                    );
                }
                // Approximate further, sometimes re-pointing a PO at a
                // primary input or a constant.
                let sim = simulate(&n, &p);
                if let Some(lac) = random_lac(&n, &sim, 16, &mut scratch, &mut rng) {
                    lac.apply(&mut n).expect("TFI switch");
                }
                if step % 4 == 3 {
                    let po = rng.gen_range(0..n.output_count());
                    let driver = match step % 8 {
                        3 => SignalRef::Const1,
                        _ => n.inputs()[0].into(),
                    };
                    n.set_output_driver(po, driver);
                }
            }
        }
    }
}
