//! The *circuit reproduction* approximate action (§III-B): merge the
//! best PO-TFI pairs of two approximate circuits into one child, guided
//! by the `Level` evaluation of Eq. 3.

use tdals_netlist::{GateId, Netlist, SignalRef};

use crate::fitness::Candidate;

/// Weights of the PO-TFI pair evaluation function `Level` (Eq. 3).
///
/// `Level(PO_i) = wt / Ta(PO_i) + we / Error(PO_i)`. The paper sets
/// `wt = 0.9 × CPD_ori` under both metrics and `we = 0.1` (ER) or
/// `0.2` (NMED).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelWeights {
    /// Timing weight `wt` (already scaled by `CPD_ori`).
    pub wt: f64,
    /// Error weight `we`.
    pub we: f64,
    /// Floor applied to the per-PO error before taking `1/Error`.
    ///
    /// Eq. 3 degenerates at `Error = 0`; with a microscopic floor an
    /// error-free PO scores astronomically and reproduction would never
    /// adopt a *slightly* erroneous but much faster cone, disabling the
    /// merge mechanism entirely. Setting the floor at a fraction of the
    /// error budget treats every sufficiently-clean cone as equally
    /// clean and lets the timing term arbitrate among them.
    pub error_floor: f64,
}

impl LevelWeights {
    /// Creates explicit weights with a strict (1e-6) error floor.
    pub fn new(wt: f64, we: f64) -> LevelWeights {
        LevelWeights {
            wt,
            we,
            error_floor: 1e-6,
        }
    }

    /// The paper's setting for a circuit with the given accurate CPD:
    /// `wt = 0.9 × CPD_ori`, `we` as passed (0.1 for ER, 0.2 for NMED).
    pub fn paper_defaults(cpd_ori: f64, we: f64) -> LevelWeights {
        LevelWeights {
            wt: 0.9 * cpd_ori,
            we,
            error_floor: 1e-6,
        }
    }

    /// Same weights with the error floor raised to match an error
    /// budget (optimizers pass a fraction of the user bound).
    pub fn with_error_floor(mut self, floor: f64) -> LevelWeights {
        self.error_floor = floor.max(1e-9);
        self
    }

    /// `Level` score of one PO given its arrival time and error
    /// contribution.
    ///
    /// Both denominators are clamped. The timing term saturates at
    /// `100 × wt / CPD_ori`-scale for constant-driven POs (arrival ≈ 0),
    /// so a PO tied to a constant can never out-score an error-free PO:
    /// correctness rewards must dominate degenerate timing rewards.
    pub fn level(&self, arrival: f64, error: f64) -> f64 {
        let min_arrival = 0.01 * self.wt.max(1e-9); // wt ≈ 0.9·CPD_ori
        self.wt / arrival.max(min_arrival) + self.we / error.max(self.error_floor)
    }
}

/// Produces a child circuit from two evaluated parents by taking, for
/// every primary output, the PO-TFI pair with the higher `Level`.
///
/// Pairs are written in descending `Level` order and gates accept
/// adjacency information only from the first write-in, exactly as in the
/// paper's Fig. 5 walk-through; gates in no chosen cone keep parent
/// `a`'s adjacency (the paper: "their information is selected from cp1
/// and cp2"), which also covers dangling gates.
///
/// # Equivalence to the write-in walk
///
/// The walk above — write each chosen cone in rank order, skipping
/// gates already written — is not run literally (that costs one full
/// cone traversal per PO). A gate's final row is decided by the *first*
/// chosen pair whose cone contains it, so it is enough to know, per
/// parent, the lowest write-in rank among that parent's chosen POs
/// whose cone (in that parent) reaches the gate. Those ranks come from
/// one min-propagation per parent, visiting gates by descending id:
/// every reader has a larger id than its drivers, so a gate's rank is
/// final before it is pushed to its fan-ins. The gate then takes `b`'s
/// row iff `b`'s rank is lower than `a`'s (ranks are distinct, and a
/// gate in no chosen cone has rank `∞` in both); otherwise it keeps
/// `a`'s, which the child already holds as a clone of `a`. Each PO
/// appears in exactly one pair, so its driver is the chosen parent's.
/// Cost: O(gates + pins) per parent instead of O(POs × cone).
///
/// # Panics
///
/// Panics if the parents disagree in gate or output count (they are
/// always approximations of the same accurate circuit).
pub fn reproduce(a: &Candidate, b: &Candidate, weights: &LevelWeights) -> Netlist {
    let na = &a.netlist;
    let nb = &b.netlist;
    assert_eq!(na.gate_count(), nb.gate_count(), "parents must be siblings");
    assert_eq!(
        na.output_count(),
        nb.output_count(),
        "parents must share outputs"
    );
    let po_count = na.output_count();

    // Score every (po, parent) and pick the better parent per PO.
    struct Choice {
        po: usize,
        from_b: bool,
        level: f64,
    }
    let mut choices: Vec<Choice> = (0..po_count)
        .map(|po| {
            let la = weights.level(a.po_arrivals[po], a.po_errors[po]);
            let lb = weights.level(b.po_arrivals[po], b.po_errors[po]);
            if lb > la {
                Choice {
                    po,
                    from_b: true,
                    level: lb,
                }
            } else {
                Choice {
                    po,
                    from_b: false,
                    level: la,
                }
            }
        })
        .collect();
    // Higher-level pairs write first (first-write-wins on shared gates).
    choices.sort_by(|x, y| y.level.total_cmp(&x.level));

    let mut child = na.clone();
    // Write-in rank of each parent's chosen POs, seeded at their drivers.
    let mut rank_a = vec![usize::MAX; na.gate_count()];
    let mut rank_b = vec![usize::MAX; nb.gate_count()];
    for (rank, choice) in choices.iter().enumerate() {
        let (parent, ranks) = if choice.from_b {
            (nb, &mut rank_b)
        } else {
            (na, &mut rank_a)
        };
        let driver = parent.output_driver(choice.po);
        child.set_output_driver(choice.po, driver);
        if let SignalRef::Gate(g) = driver {
            let slot = &mut ranks[g.index()];
            *slot = (*slot).min(rank);
        }
    }
    propagate_min_rank(na, &mut rank_a);
    propagate_min_rank(nb, &mut rank_b);

    for (idx, (&ra, &rb)) in rank_a.iter().zip(&rank_b).enumerate() {
        let id = GateId::new(idx);
        if rb < ra && !nb.gate(id).is_input() {
            child
                .set_fanins(id, nb.gate(id).fanins())
                .expect("sibling adjacency rows always satisfy the id invariant");
        }
    }
    child
}

/// Pushes each gate's rank down to its gate fan-ins (keeping minima),
/// readers before drivers, so `ranks[g]` ends as the minimum seed rank
/// over every driver whose transitive fan-in cone contains `g`.
fn propagate_min_rank(netlist: &Netlist, ranks: &mut [usize]) {
    for idx in (0..ranks.len()).rev() {
        let rank = ranks[idx];
        if rank == usize::MAX {
            continue;
        }
        for fanin in netlist.gate(GateId::new(idx)).fanins() {
            if let SignalRef::Gate(src) = fanin {
                let slot = &mut ranks[src.index()];
                *slot = (*slot).min(rank);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::EvalContext;
    use crate::lac::{random_lac, SearchScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tdals_circuits::Benchmark;
    use tdals_netlist::builder::Builder;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    fn setup() -> (Netlist, EvalContext) {
        let mut b = Builder::new("t");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        let n = b.finish();
        let ctx = EvalContext::new(
            &n,
            Patterns::exhaustive(8),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        );
        (n, ctx)
    }

    #[test]
    fn level_prefers_fast_and_clean() {
        let w = LevelWeights::paper_defaults(100.0, 0.1);
        let fast_clean = w.level(50.0, 0.0);
        let slow_clean = w.level(100.0, 0.0);
        let fast_dirty = w.level(50.0, 0.5);
        assert!(fast_clean > slow_clean);
        assert!(fast_clean > fast_dirty);
    }

    #[test]
    fn identical_parents_reproduce_identically() {
        let (n, ctx) = setup();
        let cand = ctx.evaluate(n.clone());
        let child = reproduce(&cand, &cand, &LevelWeights::paper_defaults(100.0, 0.1));
        assert_eq!(child, n);
    }

    #[test]
    fn child_mixes_po_cones_from_both_parents() {
        let (n, ctx) = setup();
        // Parent A: damage PO 0's cone. Parent B: damage PO 4's cone.
        let mut pa = n.clone();
        let d0 = pa.output_driver(0).gate().expect("gate");
        pa.substitute(d0, SignalRef::Const0).expect("lac");
        let mut pb = n.clone();
        let d4 = pb.output_driver(4).gate().expect("gate");
        pb.substitute(d4, SignalRef::Const1).expect("lac");

        let ca = ctx.evaluate(pa);
        let cb = ctx.evaluate(pb);
        let w = LevelWeights::paper_defaults(ctx.cpd_ori(), 0.1);
        let child = reproduce(&ca, &cb, &w);
        child.check_invariants().expect("valid child");
        let cc = ctx.evaluate(child);
        // Best case: child inherits B's intact PO0 and A's intact PO4,
        // in which case it is error-free; at minimum it must not be
        // worse than both parents on every PO.
        assert!(
            cc.error <= ca.error.max(cb.error) + 1e-12,
            "child error {} vs parents {} / {}",
            cc.error,
            ca.error,
            cb.error
        );
    }

    #[test]
    fn child_satisfies_invariants_after_heavy_mixing() {
        let (n, ctx) = setup();
        use crate::search::{search_step, SearchConfig};
        let mut rng = StdRng::seed_from_u64(7);
        let w = LevelWeights::paper_defaults(ctx.cpd_ori(), 0.1);
        for _ in 0..10 {
            let mut pa = n.clone();
            let mut pb = n.clone();
            for _ in 0..4 {
                search_step(&ctx, &mut pa, &SearchConfig::default(), &mut rng);
                search_step(&ctx, &mut pb, &SearchConfig::default(), &mut rng);
            }
            let ca = ctx.evaluate(pa);
            let cb = ctx.evaluate(pb);
            let child = reproduce(&ca, &cb, &w);
            child.check_invariants().expect("valid child");
            // Child outputs must each match one of the parents' drivers.
            for po in 0..child.output_count() {
                let d = child.output_driver(po);
                assert!(
                    d == ca.netlist.output_driver(po) || d == cb.netlist.output_driver(po),
                    "PO {po} driver comes from a parent"
                );
            }
        }
    }

    /// The paper's write-in walk run literally — one full cone mask per
    /// PO, first write wins — kept as the oracle [`reproduce`] must
    /// match exactly.
    fn reproduce_by_write_in(a: &Candidate, b: &Candidate, weights: &LevelWeights) -> Netlist {
        let (na, nb) = (&a.netlist, &b.netlist);
        let mut choices: Vec<(usize, bool, f64)> = (0..na.output_count())
            .map(|po| {
                let la = weights.level(a.po_arrivals[po], a.po_errors[po]);
                let lb = weights.level(b.po_arrivals[po], b.po_errors[po]);
                if lb > la {
                    (po, true, lb)
                } else {
                    (po, false, la)
                }
            })
            .collect();
        choices.sort_by(|x, y| y.2.total_cmp(&x.2));
        let mut child = na.clone();
        let mut written = vec![false; na.gate_count()];
        for (po, from_b, _) in choices {
            let parent = if from_b { nb } else { na };
            child.set_output_driver(po, parent.output_driver(po));
            let cone = parent.po_cone_mask(&[po]);
            for (idx, &in_cone) in cone.iter().enumerate() {
                if in_cone && !written[idx] {
                    written[idx] = true;
                    let id = GateId::new(idx);
                    if !parent.gate(id).is_input() {
                        child
                            .set_fanins(id, parent.gate(id).fanins())
                            .expect("sibling rows");
                    }
                }
            }
        }
        child
    }

    /// A random sibling of `accurate`: a few random LACs, and sometimes
    /// POs re-pointed at a primary input or a constant.
    fn random_sibling(ctx: &EvalContext, accurate: &Netlist, rng: &mut StdRng) -> Netlist {
        let mut n = accurate.clone();
        let mut scratch = SearchScratch::default();
        for _ in 0..rng.gen_range(0..8) {
            let sim = ctx.simulate(&n);
            if let Some(lac) = random_lac(&n, &sim, 16, &mut scratch, rng) {
                lac.apply(&mut n).expect("TFI switch");
            }
        }
        if rng.gen_bool(0.3) {
            for _ in 0..rng.gen_range(1..4) {
                let po = rng.gen_range(0..n.output_count());
                let driver = match rng.gen_range(0..3) {
                    0 => SignalRef::Const0,
                    1 => SignalRef::Const1,
                    _ => n.inputs()[rng.gen_range(0..n.input_count())].into(),
                };
                n.set_output_driver(po, driver);
            }
        }
        n
    }

    #[test]
    fn reproduce_matches_the_write_in_walk() {
        let mut rng = StdRng::seed_from_u64(41);
        for bench in [Benchmark::C880, Benchmark::Int2float, Benchmark::Max16] {
            let accurate = bench.build();
            let ctx = EvalContext::new(
                &accurate,
                Patterns::random(accurate.input_count(), 256, 3),
                ErrorMetric::ErrorRate,
                TimingConfig::default(),
                0.8,
            );
            let w = LevelWeights::paper_defaults(ctx.cpd_ori(), 0.1).with_error_floor(0.01);
            for case in 0..24 {
                let pa = random_sibling(&ctx, &accurate, &mut rng);
                let pb = if case % 6 == 0 {
                    pa.clone()
                } else {
                    random_sibling(&ctx, &accurate, &mut rng)
                };
                let mut ca = ctx.evaluate(pa);
                let mut cb = ctx.evaluate(pb);
                if case % 2 == 1 {
                    // Coarse random levels: many ties between POs and
                    // between parents exercise the stable write-in order.
                    for c in [&mut ca, &mut cb] {
                        for po in 0..c.po_arrivals.len() {
                            c.po_arrivals[po] = f64::from(rng.gen_range(1..4u32)) * 100.0;
                            c.po_errors[po] = f64::from(rng.gen_range(0..3u32)) * 0.05;
                        }
                    }
                }
                let child = reproduce(&ca, &cb, &w);
                assert_eq!(
                    child,
                    reproduce_by_write_in(&ca, &cb, &w),
                    "{bench} case {case}"
                );
                child.check_invariants().expect("valid child");
            }
        }
    }
}
