//! The row-at-a-time gate kernel.
//!
//! Simulation storage is gate-major: each gate owns one row of
//! `word_count` 64-sample words. The kernel evaluates a gate's **whole
//! row** in one call: it resolves each fan-in pin once, to a row — a
//! fan-in gate's stored row, or for a constant pin a shared all-zeros or
//! all-ones row — matches the cell function once, and runs one zipped
//! loop over the rows ([`CellFunc::eval_rows`]). LLVM vectorizes that
//! loop into whatever vector registers the target offers, with no
//! per-block gather, dispatch or remainder loop.
//!
//! The full engine ([`simulate`](crate::simulate)), the output-row
//! engine behind [`ErrorEvaluator`](crate::ErrorEvaluator) and the
//! incremental one ([`DeltaSim`](crate::DeltaSim)) all evaluate through
//! [`eval_gate_row`]; only where a fan-in row comes from differs. The
//! ops are pure bitwise functions of the same words, so the kernel
//! stores exactly what the one-word reference kernel
//! ([`simulate_reference`](crate::simulate_reference)) stores; the tests
//! below and `crates/sim/tests/blockwise.rs` pin that, tail words
//! included.

use tdals_netlist::cell::CellFunc;
use tdals_netlist::{GateId, SignalRef};

use crate::patterns::Patterns;

/// Evaluates one gate of function `func` over its whole word row into
/// `out`. Each fan-in resolves once: `Const0` and `Const1` to the
/// stimulus' shared constant rows ([`Patterns::const_rows`]), gate `g`
/// to `row(g)`, which must be `out.len()` words long and is asked once
/// per pin, in pin order. The final word is left raw: callers apply the
/// tail mask.
#[inline]
pub(crate) fn eval_gate_row<'a>(
    func: CellFunc,
    fanins: impl IntoIterator<Item = SignalRef>,
    patterns: &'a Patterns,
    mut row: impl FnMut(GateId) -> &'a [u64],
    out: &mut [u64],
) {
    let (zeros, ones) = patterns.const_rows();
    let mut pins: [&[u64]; 3] = [&[]; 3];
    for (pin, fanin) in pins.iter_mut().zip(fanins) {
        *pin = match fanin {
            SignalRef::Const0 => zeros,
            SignalRef::Const1 => ones,
            SignalRef::Gate(g) => row(g),
        };
    }
    func.eval_rows(&pins[..func.arity()], out);
}

#[cfg(test)]
mod tests {
    use crate::engine::{simulate, simulate_reference, simulate_reusing, SimResult};
    use crate::patterns::Patterns;
    use crate::{DeltaSim, SimWords};
    use tdals_netlist::cell::{Cell, CellFunc, Drive};
    use tdals_netlist::{Netlist, SignalRef};

    /// A small but representative circuit: every arity, constants on
    /// pins, a Const1-driven PO, and enough gates for a multi-word row.
    fn kernel_netlist() -> Netlist {
        let mut n = Netlist::new("kernel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x1 = |f| Cell::new(f, Drive::X1);
        let g1 = n
            .add_gate("g1", x1(CellFunc::Xor2), vec![a.into(), b.into()])
            .expect("gate");
        let g2 = n
            .add_gate(
                "g2",
                x1(CellFunc::Maj3),
                vec![a.into(), c.into(), g1.into()],
            )
            .expect("gate");
        let g3 = n
            .add_gate(
                "g3",
                x1(CellFunc::Aoi21),
                vec![g1.into(), g2.into(), SignalRef::Const0],
            )
            .expect("gate");
        let g4 = n
            .add_gate("g4", x1(CellFunc::Inv), vec![g3.into()])
            .expect("gate");
        n.add_output("y", g4.into());
        n.add_output("k", SignalRef::Const1);
        n
    }

    fn assert_same(a: &SimResult, b: &SimResult) {
        assert_eq!(a.vector_count(), b.vector_count());
        assert_eq!(a.word_count(), b.word_count());
        assert_eq!(a.values, b.values);
    }

    /// The Miri-covered kernel pin (see the `miri` CI job): the row
    /// kernel, in the full engine and in `DeltaSim` cone propagation,
    /// over word-aligned and ragged-tail vector counts, must store what
    /// the scalar reference stores. The `Const1` switch puts the
    /// all-ones constant row on a ragged tail. Kept small so Miri's
    /// interpreter finishes quickly.
    #[test]
    fn row_kernel_matches_reference_on_aligned_and_ragged_tails() {
        let n = kernel_netlist();
        let g1 = n.find_gate("g1").expect("g1");
        for vectors in [64, 70, 512, 513] {
            let p = Patterns::random(3, vectors, 0xB10C);
            assert_same(&simulate_reference(&n, &p), &simulate(&n, &p));
            let mut mutated = n.clone();
            mutated.substitute(g1, SignalRef::Const1).expect("legal");
            let full = simulate_reference(&mutated, &p);
            let mut delta = DeltaSim::new(n.clone(), &p);
            let view = delta.preview(g1, SignalRef::Const1);
            for (id, _) in mutated.iter() {
                assert_eq!(
                    view.gate_row(id),
                    full.gate_words(id),
                    "preview at {vectors}"
                );
            }
            delta.substitute(g1, SignalRef::Const1).expect("legal");
            assert_same(&full, &delta.to_sim_result());
        }
    }

    /// `simulate_reusing` skips the zero fill when the recycled buffer
    /// has the result's length, so every word of every row, tail words
    /// included, must be rewritten: a buffer of all-ones words has to
    /// come back equal to a fresh simulation. A buffer of any other
    /// length is replaced. Miri runs this with the kernel pin above.
    #[test]
    fn dirty_recycled_buffer_matches_a_fresh_simulation() {
        let n = kernel_netlist();
        for vectors in [64, 70, 512, 513] {
            let p = Patterns::random(3, vectors, 0xD1A7);
            let fresh = simulate(&n, &p);
            let len = fresh.values.len();
            for dirty_len in [len, 0, len - 1, len + 3] {
                let dirty = vec![u64::MAX; dirty_len];
                assert_same(&fresh, &simulate_reusing(&n, &p, dirty));
            }
        }
    }
}
