//! Incremental-simulation equivalence and determinism suite.
//!
//! The contract under test: scoring a candidate through the
//! incremental cone engines (`DeltaSim` preview/commit, incremental STA
//! preview, dead-cone area cascade) is indistinguishable from mutating
//! the netlist and re-running everything from scratch — bit-identical
//! for simulated words and error metrics, settle-tolerance-identical
//! for timing and area — and that the optimizer built on top stays
//! deterministic across thread counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals::circuits::random_logic::{grow, RandomLogicSpec};
use tdals::core::api::{Budget, Dcgwo, NopObserver, Optimizer};
use tdals::core::pareto::{non_dominated_sort, Objectives};
use tdals::core::{Candidate, EvalContext, Lac, OptimizerConfig};
use tdals::netlist::builder::Builder;
use tdals::netlist::{GateId, Netlist, SignalRef};
use tdals::sim::{simulate, DeltaSim, ErrorMetric, Patterns, PreviewScratch, SimWords};
use tdals::sta::TimingConfig;

/// Deterministic random netlist from a seed.
fn random_netlist(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Netlist {
    let mut b = Builder::new(format!("rand{seed}"));
    let ins = b.inputs("x", inputs);
    let mut spec = RandomLogicSpec::new(gates, outputs, seed);
    spec.window = 12;
    let outs = grow(&mut b, &ins, &spec);
    b.outputs("y", &outs);
    b.finish()
}

/// A random legal LAC: any logic gate as target, a TFI gate or a
/// constant as switch.
fn random_substitution(netlist: &Netlist, rng: &mut StdRng) -> (GateId, SignalRef) {
    let logic: Vec<GateId> = netlist
        .iter()
        .filter(|(_, g)| !g.is_input())
        .map(|(id, _)| id)
        .collect();
    let target = logic[rng.gen_range(0..logic.len())];
    let tfi = netlist.tfi_mask(target);
    let mut pool: Vec<SignalRef> = tfi
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| SignalRef::Gate(GateId::new(i)))
        .collect();
    pool.push(SignalRef::Const0);
    pool.push(SignalRef::Const1);
    (target, pool[rng.gen_range(0..pool.len())])
}

/// Checks every read path of `delta` against full re-simulation
/// `full`, over a netlist of `gates` gates. The expected words come
/// from `full`'s gate rows and PO drivers, with constants expanded by
/// hand, so the check does not rest on the shared `SimWords` defaults:
/// per-word PO reads, and PO and signal block reads (of both results)
/// of every length at every word offset, so blocks ending on the ragged
/// tail word are covered, for every gate and both constants.
fn assert_words_match<V: SimWords, W: SimWords>(delta: &V, full: &W, gates: usize, context: &str) {
    assert_eq!(delta.vector_count(), full.vector_count(), "{context}");
    assert_eq!(delta.word_count(), full.word_count(), "{context}");
    assert_eq!(delta.output_count(), full.output_count(), "{context}");
    let words = full.word_count();
    let expect = |signal: SignalRef, w: usize| match signal {
        SignalRef::Const0 => 0,
        SignalRef::Const1 if w + 1 == words => full.tail_mask(),
        SignalRef::Const1 => u64::MAX,
        SignalRef::Gate(g) => full.gate_row(g)[w],
    };
    for po in 0..full.output_count() {
        for w in 0..words {
            assert_eq!(
                delta.po_word(po, w),
                expect(full.po_driver(po), w),
                "{context}: po {po} word {w}"
            );
        }
    }
    let signals = (0..gates)
        .map(|g| SignalRef::Gate(GateId::new(g)))
        .chain([SignalRef::Const0, SignalRef::Const1]);
    let mut got = vec![0u64; words];
    for w0 in 0..words {
        for len in 1..=words - w0 {
            let got = &mut got[..len];
            let want = |signal| {
                (w0..w0 + len)
                    .map(|w| expect(signal, w))
                    .collect::<Vec<_>>()
            };
            for po in 0..full.output_count() {
                let want = want(full.po_driver(po));
                delta.po_block(po, w0, got);
                assert_eq!(*got, want, "{context}: po {po} block {w0}+{len}");
                full.po_block(po, w0, got);
                assert_eq!(*got, want, "{context}: full po {po} block {w0}+{len}");
            }
            for signal in signals.clone() {
                let want = want(signal);
                delta.signal_block(signal, w0, got);
                assert_eq!(*got, want, "{context}: {signal} block {w0}+{len}");
                full.signal_block(signal, w0, got);
                assert_eq!(*got, want, "{context}: full {signal} block {w0}+{len}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Tentpole invariant: a previewed substitution is bit-identical to
    /// mutating the netlist and fully re-simulating it, on arbitrary
    /// random netlists and arbitrary single-gate substitutions —
    /// including unaligned tail words, and a PO driver replaced by
    /// `Const1` (the view must redirect the PO and clip its tail).
    #[test]
    fn preview_is_bit_identical_to_full_resim(
        seed in 0u64..300,
        vectors in 65usize..600,
    ) {
        let n = random_netlist(seed, 6, 50, 5);
        let p = Patterns::random(n.input_count(), vectors, seed ^ 0x5eed);
        let delta = DeltaSim::new(n.clone(), &p);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let mut lacs: Vec<(GateId, SignalRef)> =
            (0..4).map(|_| random_substitution(&n, &mut rng)).collect();
        if let SignalRef::Gate(driver) = n.output_driver(0) {
            if !n.gate(driver).is_input() {
                lacs.push((driver, SignalRef::Const1));
            }
        }
        let mut scratch = PreviewScratch::default();
        for (target, switch) in lacs {
            let view = delta.preview(target, switch);
            let mut mutated = n.clone();
            mutated.substitute(target, switch).expect("legal LAC");
            let full = simulate(&mutated, &p);
            assert_words_match(&view, &full, n.gate_count(),
                &format!("seed {seed}, {target} := {switch}"));
            // The output preview, in one scratch across the LACs, recycles
            // rows but keeps every output word.
            let outputs = delta.preview_outputs_in(target, switch, &mut scratch);
            for po in 0..full.output_count() {
                for w in 0..full.word_count() {
                    prop_assert_eq!(outputs.po_word(po, w), full.po_word(po, w),
                        "seed {}, {} := {}, po {} word {}", seed, target, switch, po, w);
                }
            }
        }
    }

    /// Committed substitution chains track full re-simulation exactly:
    /// each commit runs the cone overlay kernel, the reference a
    /// whole-netlist pass.
    #[test]
    fn commit_chains_are_bit_identical(seed in 0u64..200) {
        let mut reference = random_netlist(seed, 5, 40, 4);
        let p = Patterns::random(reference.input_count(), 200, seed ^ 0xace);
        let mut delta = DeltaSim::new(reference.clone(), &p);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17) ^ 9);
        for step in 0..6 {
            let (target, switch) = random_substitution(&reference, &mut rng);
            let a = delta.substitute(target, switch).expect("legal LAC");
            let b = reference.substitute(target, switch).expect("legal LAC");
            prop_assert_eq!(a, b, "rewritten counts at step {}", step);
            let full = simulate(&reference, &p);
            assert_words_match(&delta, &full, reference.gate_count(),
                &format!("seed {seed} step {step}"));
        }
        prop_assert_eq!(delta.netlist(), &reference);
    }

    /// The full scoring path: incremental error, timing, and area agree
    /// with a from-scratch evaluation of the materialized mutant.
    #[test]
    fn score_lac_matches_full_evaluation(seed in 0u64..150) {
        let n = random_netlist(seed, 6, 60, 5);
        let p = Patterns::random(n.input_count(), 256, seed ^ 0xf00d);
        let ctx = EvalContext::new(&n, p, ErrorMetric::ErrorRate, TimingConfig::default(), 0.8);
        let base = ctx.delta_eval(n.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        for _ in 0..3 {
            let (target, switch) = random_substitution(&n, &mut rng);
            let lac = Lac::new(target, switch);
            let score = ctx.score_lac(&base, lac);
            let mut materialized = base.netlist().clone();
            lac.apply(&mut materialized).expect("legal LAC");
            let full = score.clone().into_candidate(materialized);
            let mut mutant = n.clone();
            mutant.substitute(target, switch).expect("legal LAC");
            let reference = ctx.evaluate(mutant);

            // Error terms share the bit-parallel word expansion: exact.
            prop_assert_eq!(score.error, reference.error);
            prop_assert_eq!(score.po_errors.clone(), reference.po_errors.clone());
            prop_assert_eq!(full.error, reference.error);
            // Timing is exact too; the area is the base's live area minus
            // the dead cone's, which may differ from a fresh sum in the
            // last bits.
            prop_assert_eq!(score.depth, reference.depth);
            prop_assert_eq!(score.cpd.to_bits(), reference.cpd.to_bits(),
                "cpd {} vs {}", score.cpd, reference.cpd);
            prop_assert!((score.area - reference.area).abs() < 1e-9,
                "area {} vs {}", score.area, reference.area);
            for (a, b) in score.po_arrivals.iter().zip(reference.po_arrivals.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "po arrival {} vs {}", a, b);
            }
            prop_assert_eq!(full.netlist, reference.netlist);
        }
    }
}

/// Determinism satellite: DCGWO with incremental scoring produces
/// identical Pareto fronts (and identical surviving netlists) whether
/// offspring are scored on 1 thread or 4.
#[test]
fn dcgwo_pareto_front_is_thread_count_invariant() {
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
        ErrorMetric::ErrorRate,
        TimingConfig::default(),
        0.8,
    );
    let run = |threads: usize| {
        let cfg = OptimizerConfig::default()
            .with_population(10)
            .with_iterations(6)
            .with_threads(threads)
            .with_seed(21);
        Dcgwo::new(cfg).optimize(&ctx, 0.05, &Budget::unlimited(), &mut NopObserver)
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.best.netlist, parallel.best.netlist);
    assert_eq!(serial.best.fitness, parallel.best.fitness);
    assert_eq!(serial.population.len(), parallel.population.len());
    for (a, b) in serial.population.iter().zip(&parallel.population) {
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.fitness, b.fitness);
        assert_eq!(a.error, b.error);
    }
    // The rank-0 set over (f_d, f_a): the depth/area frontier.
    let front = |population: &[Candidate]| {
        let points: Vec<Objectives> = population
            .iter()
            .map(|c| Objectives::new(c.fd, c.fa))
            .collect();
        non_dominated_sort(&points).swap_remove(0)
    };
    let front_a = front(&serial.population);
    let front_b = front(&parallel.population);
    assert_eq!(front_a, front_b, "identical Pareto fronts");
    for (x, y) in serial.history.iter().zip(&parallel.history) {
        assert_eq!(x.best_fitness, y.best_fitness);
        assert_eq!(x.feasible, y.feasible);
    }
}

/// Regression guard for the parallel scorer: a `DeltaSim` scratch
/// clone must stay `Send + Sync` (the worker pool moves clones across
/// threads) and keep producing bit-identical previews from another
/// thread.
#[test]
fn wide_delta_sim_scratch_clone_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>(_: &T) {}

    let n = random_netlist(77, 6, 50, 5);
    let p = Patterns::random(n.input_count(), 200, 0x5ca7c4);
    let parent = DeltaSim::new(n.clone(), &p);
    let scratch = parent.clone();
    assert_send_sync(&scratch);

    let mut rng = StdRng::seed_from_u64(0x7ead);
    let (target, switch) = random_substitution(&n, &mut rng);
    let expected = {
        let mut mutated = n.clone();
        mutated.substitute(target, switch).expect("legal LAC");
        simulate(&mutated, &p)
    };
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                let view = scratch.preview(target, switch);
                assert_words_match(
                    &view,
                    &expected,
                    n.gate_count(),
                    "scratch clone on another thread",
                );
            })
            .join()
            .expect("worker thread");
    });
}
