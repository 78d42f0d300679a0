//! The simulation block width.
//!
//! Simulation storage is a flat `Vec<u64>` of 64-sample words; what the
//! block width fixes is the **loop structure** of the gate-evaluation
//! kernels: how many words one trip through the inner loop gathers,
//! evaluates ([`eval_block`](tdals_netlist::cell::CellFunc::eval_block)),
//! and stores. A `[u64; 8]` block is 512 bits of straight-line bitwise
//! ops with no per-word branching, which LLVM folds into whatever
//! vector registers the target offers (SSE2 → 2 lanes, AVX2 → 4,
//! AVX-512 → 8, NEON → 2) — no intrinsics, no `unsafe`, no new
//! dependencies.
//!
//! The width is one compile-time constant, [`BLOCK_WORDS`]. Eight words
//! fill one AVX-512 register and two AVX2 registers, and a narrower
//! machine just emits more scalar ops per trip: on Sqrt, 4-word and
//! 8-word blocks measured the same (232.7 vs 238.6 µs per full
//! simulation in the committed `BENCH_delta_sim.json`, AVX-512 host),
//! so there is nothing to tune at run time. Because the
//! ops are pure bitwise functions of the same words, the blocked kernel
//! stores exactly what the one-word reference kernel
//! ([`simulate_reference`](crate::simulate_reference)) stores; the test
//! below and `crates/sim/tests/blockwise.rs` pin that, tail words
//! included.

/// Words per simulation block: the inner-loop width of every gate
/// kernel and of the blockwise metric loops.
pub(crate) const BLOCK_WORDS: usize = 8;

/// Description of the compiled simulation block width, for bench and
/// host records. There is one width, so there is one value.
///
/// # Examples
///
/// ```
/// use tdals_sim::SimdWidth;
///
/// assert_eq!(SimdWidth::auto().lanes(), 8);
/// assert_eq!(SimdWidth::auto().cli_name(), "8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimdWidth(());

impl SimdWidth {
    /// The width the kernels are compiled at.
    pub const fn auto() -> SimdWidth {
        SimdWidth(())
    }

    /// Number of 64-bit words per block.
    pub const fn lanes(self) -> usize {
        BLOCK_WORDS
    }

    /// Name used in bench JSON (`"8"`).
    pub const fn cli_name(self) -> &'static str {
        "8"
    }
}

// `cli_name` spells the width out; keep it in step with the constant.
const _: () = assert!(BLOCK_WORDS == 8);

#[cfg(test)]
mod tests {
    use crate::engine::{simulate, simulate_reference, SimResult};
    use crate::patterns::Patterns;
    use tdals_netlist::cell::{Cell, CellFunc, Drive};
    use tdals_netlist::{Netlist, SignalRef};

    /// A small but representative circuit: every arity, constants on
    /// pins, a Const1-driven PO, and enough gates for a multi-block
    /// word range.
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

    /// The Miri-covered kernel pin (see the `miri` CI job): the blocked
    /// kernel over word-aligned and ragged-tail vector counts must
    /// produce the same storage as the scalar reference. Kept small so
    /// Miri's interpreter finishes quickly.
    #[test]
    fn blocked_kernel_matches_reference_on_aligned_and_ragged_tails() {
        let n = kernel_netlist();
        for vectors in [64, 70, 512, 513] {
            let p = Patterns::random(3, vectors, 0xB10C);
            assert_same(&simulate_reference(&n, &p), &simulate(&n, &p));
        }
    }
}
