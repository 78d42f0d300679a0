//! The blocked simulation engine against the scalar reference.
//!
//! `simulate` evaluates eight-word blocks per inner-loop trip and
//! finishes the remainder one word at a time; `simulate_reference`
//! evaluates one word per trip. The block structure must never change
//! a single stored bit. These tests pin that at the `tdals-sim` layer,
//! word for word, including the masked tail word:
//!
//! * explicit enumeration of every interesting `vector_count` residue
//!   class modulo the block span (aligned, one-over, one-under,
//!   full-word tails, ragged tails) — the cases where the blocked main
//!   loop and the scalar remainder loop split differently;
//! * proptest-generated random netlists (every cell function, constant
//!   pins, shared fanins) against random vector counts.
//!
//! `tdals-sim` sits below `tdals-circuits`, so the netlists here are
//! hand-grown from the cell library rather than loaded benchmarks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_netlist::cell::{Cell, Drive, ALL_FUNCS};
use tdals_netlist::{Netlist, SignalRef};
use tdals_sim::{simulate, simulate_reference, Patterns, SimResult, SimdWidth};

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

/// Every residue class of `vector_count` modulo the block span that
/// exercises a distinct main-loop/remainder-loop split: block-aligned
/// counts, one vector either side, full-word tails, and single-bit
/// tails, for spans of one and two blocks, plus every word count
/// below one block.
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
        let blocked = simulate(&n, &p);
        assert_bit_identical(&scalar, &blocked, &n, &format!("vectors={vectors}"));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random netlist × random ragged vector count: the blocked kernel
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
