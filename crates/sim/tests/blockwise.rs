//! The row-kernel simulation engine against the scalar reference.
//!
//! `simulate` evaluates each gate's whole word row in one vectorizable
//! loop; `simulate_reference` evaluates one word per trip. The row
//! structure must never change a single stored bit. These tests pin
//! that at the `tdals-sim` layer, word for word, including the masked
//! tail word:
//!
//! * explicit enumeration of vector counts around the word and vector
//!   register boundaries (aligned, one-over, one-under, full-word
//!   tails, ragged tails), where a vectorized loop's main body and its
//!   remainder split differently;
//! * every cell function with each pin in turn tied to `Const0`,
//!   `Const1` or a gate, at one to nine words, in the full engine and
//!   through `DeltaSim` cone propagation;
//! * proptest-generated random netlists (every cell function, constant
//!   pins, shared fanins) against random vector counts.
//!
//! `tdals-sim` sits below `tdals-circuits`, so the netlists here are
//! hand-grown from the cell library rather than loaded benchmarks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_netlist::cell::{Cell, CellFunc, Drive, ALL_FUNCS};
use tdals_netlist::{GateId, Netlist, SignalRef};
use tdals_sim::{simulate, simulate_reference, DeltaSim, Patterns, SimResult, SimWords, SimdWidth};

/// Grows a random netlist: `inputs` PIs, then `gates` gates whose
/// functions cycle through the whole cell library and whose fanins are
/// drawn from everything already defined (plus the occasional
/// constant), then every sink-less signal is tied off as a PO so no
/// gate escapes comparison.
fn random_netlist(inputs: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new(format!("rand_{seed:x}"));
    let mut signals: Vec<SignalRef> = Vec::new();
    for i in 0..inputs {
        signals.push(n.add_input(format!("i{i}")).into());
    }
    for g in 0..gates {
        let func = ALL_FUNCS[g % ALL_FUNCS.len()];
        let arity = func.arity();
        let fanins: Vec<SignalRef> = (0..arity)
            .map(|_| match rng.gen_range(0..10) {
                0 => SignalRef::Const0,
                1 => SignalRef::Const1,
                _ => signals[rng.gen_range(0..signals.len())],
            })
            .collect();
        let id = n
            .add_gate(format!("g{g}"), Cell::new(func, Drive::X1), fanins)
            .expect("arity matches function");
        signals.push(id.into());
    }
    // Expose every gate: ~the last few as named POs, the rest through
    // one wide XOR-chain-free observation list (each its own PO).
    for (po, sig) in signals.iter().enumerate().skip(inputs) {
        n.add_output(format!("o{po}"), *sig);
    }
    n.add_output("k0", SignalRef::Const0);
    n.add_output("k1", SignalRef::Const1);
    n
}

/// Full-storage comparison through the public API: every gate's word
/// slice, every PO word, and the metadata that frames them.
fn assert_bit_identical(scalar: &SimResult, wide: &SimResult, n: &Netlist, label: &str) {
    assert_eq!(scalar.vector_count(), wide.vector_count(), "{label}");
    assert_eq!(scalar.word_count(), wide.word_count(), "{label}");
    assert_eq!(scalar.tail_mask(), wide.tail_mask(), "{label}");
    for (id, _) in n.iter() {
        assert_eq!(
            scalar.gate_words(id),
            wide.gate_words(id),
            "{label}: gate {} diverged",
            n.gate(id).name()
        );
    }
    for po in 0..n.output_count() {
        for w in 0..scalar.word_count() {
            assert_eq!(
                scalar.po_word(po, w),
                wide.po_word(po, w),
                "{label}: PO {po} word {w} diverged"
            );
        }
    }
}

/// Vector counts that split a row differently between a vectorized
/// loop's main body and its remainder: counts aligned to eight-word
/// spans (one and two of them), one vector either side, full-word
/// tails and single-bit tails, plus every word count below one span.
fn edge_vector_counts() -> Vec<usize> {
    let span = 64 * SimdWidth::auto().lanes();
    let mut counts = vec![1, 63, 64, 65];
    for words in 2..SimdWidth::auto().lanes() {
        counts.push(64 * words - 1);
    }
    for blocks in [1usize, 2] {
        let base = span * blocks;
        counts.extend([base - 1, base, base + 1, base + 63, base + 64, base + 65]);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn explicit_tail_residues_match_the_reference() {
    let n = random_netlist(5, 40, 0x5EED);
    for vectors in edge_vector_counts() {
        let p = Patterns::random(n.input_count(), vectors, 0xF00D ^ vectors as u64);
        let scalar = simulate_reference(&n, &p);
        // The final word's unused bits must be zeroed, not garbage —
        // metrics count them via popcount.
        let tail = scalar.tail_mask();
        for (id, _) in n.iter() {
            let last = *scalar.gate_words(id).last().expect("at least one word");
            assert_eq!(last & !tail, 0, "unmasked tail bits at vectors={vectors}");
        }
        let rows = simulate(&n, &p);
        assert_bit_identical(&scalar, &rows, &n, &format!("vectors={vectors}"));
    }
}

#[test]
fn exhaustive_patterns_match_the_reference() {
    // Exhaustive stimulus has its own tail shape (vector_count = 2^k).
    let n = random_netlist(4, 24, 0xE4);
    let p = Patterns::exhaustive(4);
    assert_bit_identical(
        &simulate_reference(&n, &p),
        &simulate(&n, &p),
        &n,
        "exhaustive",
    );
}

/// Inputs `a`, `b`, `c`; source gate `s = a ^ b` and `t = !(b & c)`;
/// the gate under test `dut` of function `func` reads `pin_source` on
/// pin `pin` and `t`, `c`, `a` on its other pins; a reader
/// `r = !(dut ^ a)` carries a change one gate further. Every gate is a
/// PO. Returns the netlist and `s`.
fn pin_netlist(func: CellFunc, pin: usize, pin_source: Option<SignalRef>) -> (Netlist, GateId) {
    let x1 = |f| Cell::new(f, Drive::X1);
    let mut n = Netlist::new(format!("{func}_pin{pin}"));
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let s = n
        .add_gate("s", x1(CellFunc::Xor2), vec![a.into(), b.into()])
        .expect("gate");
    let t = n
        .add_gate("t", x1(CellFunc::Nand2), vec![b.into(), c.into()])
        .expect("gate");
    let others = [t.into(), c.into(), a.into()];
    let fanins: Vec<SignalRef> = (0..func.arity())
        .map(|p| {
            if p == pin {
                pin_source.unwrap_or(s.into())
            } else {
                others[p]
            }
        })
        .collect();
    let dut = n.add_gate("dut", x1(func), fanins).expect("gate");
    let r = n
        .add_gate("r", x1(CellFunc::Xnor2), vec![dut.into(), a.into()])
        .expect("gate");
    for g in [s, t, dut, r] {
        n.add_output(format!("o_{}", n.gate(g).name()), g.into());
    }
    (n, s)
}

/// One to nine words, each with a ragged tail and word-aligned.
fn pin_vector_counts() -> impl Iterator<Item = usize> {
    (1..=9).flat_map(|words| [64 * words - 7, 64 * words])
}

/// Every cell function, each pin in turn tied to `Const0`, `Const1` or
/// a gate: the row kernel's constant rows and gate rows must store what
/// the scalar reference stores.
#[test]
fn every_pin_source_matches_the_reference() {
    for func in ALL_FUNCS {
        for pin in 0..func.arity() {
            for source in [Some(SignalRef::Const0), Some(SignalRef::Const1), None] {
                let (n, _) = pin_netlist(func, pin, source);
                for vectors in pin_vector_counts() {
                    let p = Patterns::random(3, vectors, vectors as u64);
                    assert_bit_identical(
                        &simulate_reference(&n, &p),
                        &simulate(&n, &p),
                        &n,
                        &format!("{func} pin {pin} <- {source:?}, vectors={vectors}"),
                    );
                }
            }
        }
    }
}

/// The same pins switched through `DeltaSim`: substituting the source
/// gate `s` by `Const0`, `Const1` or the input `a` re-evaluates the
/// gate under test (and its reader) in cone propagation. The preview
/// and the committed state must equal a full simulation of the mutated
/// netlist. The `Const1` switch on a ragged tail reads the all-ones
/// constant row, whose tail bits must come out masked.
#[test]
fn every_pin_switch_matches_a_full_simulation() {
    for func in ALL_FUNCS {
        for pin in 0..func.arity() {
            let (n, s) = pin_netlist(func, pin, None);
            let a = n.inputs()[0];
            for vectors in pin_vector_counts() {
                let p = Patterns::random(3, vectors, !(vectors as u64));
                for switch in [SignalRef::Const0, SignalRef::Const1, a.into()] {
                    let label = format!("{func} pin {pin}, s := {switch}, vectors={vectors}");
                    let mut mutated = n.clone();
                    mutated.substitute(s, switch).expect("legal");
                    let full = simulate(&mutated, &p);
                    let mut delta = DeltaSim::new(n.clone(), &p);
                    let view = delta.preview(s, switch);
                    for (id, _) in mutated.iter() {
                        assert_eq!(view.gate_row(id), full.gate_words(id), "preview: {label}");
                    }
                    for po in 0..mutated.output_count() {
                        for w in 0..full.word_count() {
                            assert_eq!(view.po_word(po, w), full.po_word(po, w), "{label}");
                        }
                    }
                    delta.substitute(s, switch).expect("legal");
                    assert_bit_identical(&full, &delta.to_sim_result(), &mutated, &label);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random netlist × random ragged vector count: the row kernel
    /// must reproduce the scalar reference exactly.
    #[test]
    fn random_netlists_match_the_reference(
        seed in 0u64..1 << 32,
        inputs in 1usize..8,
        gates in 1usize..60,
        vectors in 1usize..1200,
    ) {
        let n = random_netlist(inputs, gates, seed);
        let p = Patterns::random(n.input_count(), vectors, seed.rotate_left(17));
        assert_bit_identical(&simulate_reference(&n, &p), &simulate(&n, &p), &n,
            &format!("seed={seed:#x} vectors={vectors}"));
    }
}
