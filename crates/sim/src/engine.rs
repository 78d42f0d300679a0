//! Bit-parallel netlist evaluation.

use tdals_netlist::{GateId, Netlist, SignalRef};

use crate::block::BLOCK_WORDS;
use crate::patterns::Patterns;
use crate::view::{gate_row, raw_signal_block, raw_signal_word, zero_tail_words, SimWords};

/// Simulated values of every gate output for one stimulus batch.
///
/// Produced by [`simulate`]; word `w` of gate `g` carries 64 samples of
/// `g`'s output. Primary-output values are resolved through the PO
/// drivers captured at simulation time, so a `SimResult` stays valid even
/// if the netlist is mutated afterwards (it describes the circuit as it
/// was).
///
/// # Examples
///
/// ```
/// use tdals_netlist::{Netlist, SignalRef};
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
/// use tdals_sim::{simulate, Patterns};
///
/// let mut n = Netlist::new("xor");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let x = n.add_gate("u", Cell::new(CellFunc::Xor2, Drive::X1),
///                    vec![a.into(), b.into()])?;
/// n.add_output("y", x.into());
///
/// let patterns = Patterns::exhaustive(2);
/// let result = simulate(&n, &patterns);
/// // Vectors are 00, 01, 10, 11 -> y = 0, 1, 1, 0.
/// assert_eq!(result.po_word(0, 0) & 0xF, 0b0110);
/// # Ok::<(), tdals_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimResult {
    pub(crate) vector_count: usize,
    pub(crate) word_count: usize,
    /// Gate-major storage: `values[g * word_count + w]`.
    pub(crate) values: Vec<u64>,
    pub(crate) po_drivers: Vec<SignalRef>,
    pub(crate) tail_mask: u64,
}

impl SimResult {
    /// Number of vectors simulated.
    pub fn vector_count(&self) -> usize {
        self.vector_count
    }

    /// Number of words per signal.
    pub fn word_count(&self) -> usize {
        self.word_count
    }

    /// Number of primary outputs captured.
    pub fn output_count(&self) -> usize {
        self.po_drivers.len()
    }

    /// Word `w` of gate `id`'s output samples.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `w` is out of range.
    #[inline]
    pub fn gate_word(&self, id: GateId, w: usize) -> u64 {
        self.values[id.index() * self.word_count + w]
    }

    /// All words of gate `id`'s output samples.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_words(&self, id: GateId) -> &[u64] {
        gate_row(&self.values, self.word_count, id)
    }

    /// Word `w` of primary output `po`: [`SimWords::po_word`], callable
    /// without the trait in scope.
    ///
    /// # Panics
    ///
    /// Panics if `po` or `w` is out of range.
    pub fn po_word(&self, po: usize, w: usize) -> u64 {
        SimWords::po_word(self, po, w)
    }

    /// Mask of valid bits in the final word.
    pub fn tail_mask(&self) -> u64 {
        self.tail_mask
    }

    /// Consumes the result, returning its word storage for the next
    /// [`simulate_reusing`] call.
    pub fn into_words(self) -> Vec<u64> {
        self.values
    }
}

impl SimWords for SimResult {
    fn vector_count(&self) -> usize {
        self.vector_count
    }

    fn word_count(&self) -> usize {
        self.word_count
    }

    fn output_count(&self) -> usize {
        self.po_drivers.len()
    }

    fn tail_mask(&self) -> u64 {
        self.tail_mask
    }

    fn gate_row(&self, g: GateId) -> &[u64] {
        self.gate_words(g)
    }

    fn po_driver(&self, po: usize) -> SignalRef {
        self.po_drivers[po]
    }
}

/// Simulates every gate of `netlist` on the given stimulus, one
/// eight-word block per inner-loop trip.
///
/// Gates are evaluated in id order, which the netlist's topological id
/// invariant guarantees is a valid evaluation order. Dangling gates are
/// simulated too — their values feed similarity estimation.
///
/// # Panics
///
/// Panics if `patterns.input_count()` differs from the netlist's primary
/// input count.
pub fn simulate(netlist: &Netlist, patterns: &Patterns) -> SimResult {
    simulate_blocks::<BLOCK_WORDS>(netlist, patterns, Vec::new())
}

/// [`simulate`] into a recycled word buffer, such as one returned by
/// [`SimResult::into_words`]. The result is identical to [`simulate`]'s.
///
/// A buffer that already holds `gate_count × word_count` words is used
/// as it is, without clearing: every word of every row is rewritten.
/// Any other buffer is dropped for a fresh zeroed one, as [`simulate`]
/// allocates.
///
/// # Panics
///
/// Panics if `patterns.input_count()` differs from the netlist's primary
/// input count.
pub fn simulate_reusing(netlist: &Netlist, patterns: &Patterns, words: Vec<u64>) -> SimResult {
    simulate_blocks::<BLOCK_WORDS>(netlist, patterns, words)
}

/// The scalar reference oracle: [`simulate`] one word per inner-loop
/// trip. It stores exactly the words [`simulate`] stores (the kernel
/// ops are pure bitwise functions of the same words), which
/// `crates/sim/tests/blockwise.rs` checks across every tail residue
/// class; benches time [`simulate`] against it.
///
/// # Panics
///
/// Panics if `patterns.input_count()` differs from the netlist's primary
/// input count.
pub fn simulate_reference(netlist: &Netlist, patterns: &Patterns) -> SimResult {
    simulate_blocks::<1>(netlist, patterns, Vec::new())
}

/// The monomorphized engine: evaluates whole `[u64; W]` blocks in the
/// inner loop (straight-line bitwise ops LLVM can vectorize), then
/// finishes the `word_count % W` remainder one word at a time. The tail
/// mask is applied once at the end, to the final word of every gate,
/// via the shared [`zero_tail_words`] rule.
///
/// `words` is reused when it has exactly the result's length: primary
/// input rows are copied from the stimulus and every other row is
/// evaluated word by word, so no stale word survives. Otherwise the
/// storage is a fresh `vec![0; n]`, which takes zeroed pages from the
/// allocator instead of writing every word as a resize would.
fn simulate_blocks<const W: usize>(
    netlist: &Netlist,
    patterns: &Patterns,
    words: Vec<u64>,
) -> SimResult {
    assert_eq!(
        patterns.input_count(),
        netlist.input_count(),
        "stimulus width must match primary input count"
    );
    let word_count = patterns.word_count();
    let len = netlist.gate_count() * word_count;
    let mut values = if words.len() == len {
        words
    } else {
        vec![0u64; len]
    };

    // Primary inputs copy their stimulus words.
    for (pi_idx, &pi) in netlist.inputs().iter().enumerate() {
        let base = pi.index() * word_count;
        values[base..base + word_count].copy_from_slice(patterns.input_words(pi_idx));
    }

    let full = word_count - word_count % W;
    let mut fanin_blocks = [[0u64; W]; 3];
    let mut fanin_words = [0u64; 3];
    for (id, gate) in netlist.iter() {
        if gate.is_input() {
            continue;
        }
        let cell = gate.cell();
        let arity = cell.arity();
        let base = id.index() * word_count;
        let mut w = 0;
        while w < full {
            for (pin, &fanin) in gate.fanins().iter().enumerate() {
                fanin_blocks[pin] = raw_signal_block::<W>(&values, word_count, fanin, w);
            }
            let out = cell.eval_block::<W>(&fanin_blocks[..arity]);
            values[base + w..base + w + W].copy_from_slice(&out);
            w += W;
        }
        for w in full..word_count {
            for (pin, &fanin) in gate.fanins().iter().enumerate() {
                fanin_words[pin] = raw_signal_word(&values, word_count, fanin, w);
            }
            values[base + w] = cell.eval_word(&fanin_words[..arity]);
        }
    }

    // Zero the invalid tail bits of every gate so popcounts stay exact.
    let tail = patterns.tail_mask();
    zero_tail_words(&mut values, word_count, tail);

    SimResult {
        vector_count: patterns.vector_count(),
        word_count,
        values,
        po_drivers: netlist.output_drivers().collect(),
        tail_mask: tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, CellFunc, Drive};

    fn x1(func: CellFunc) -> Cell {
        Cell::new(func, Drive::X1)
    }

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let cin = n.add_input("cin");
        let s1 = n
            .add_gate("s1", x1(CellFunc::Xor2), vec![a.into(), b.into()])
            .expect("gate");
        let sum = n
            .add_gate("sum", x1(CellFunc::Xor2), vec![s1.into(), cin.into()])
            .expect("gate");
        let carry = n
            .add_gate(
                "carry",
                x1(CellFunc::Maj3),
                vec![a.into(), b.into(), cin.into()],
            )
            .expect("gate");
        n.add_output("sum", sum.into());
        n.add_output("cout", carry.into());
        n
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        let p = Patterns::exhaustive(3);
        let r = simulate(&n, &p);
        for v in 0..8usize {
            let a = v & 1;
            let b = v >> 1 & 1;
            let c = v >> 2 & 1;
            let sum = (a + b + c) & 1;
            let cout = (a + b + c) >> 1;
            assert_eq!((r.po_word(0, 0) >> v & 1) as usize, sum, "sum at {v}");
            assert_eq!((r.po_word(1, 0) >> v & 1) as usize, cout, "cout at {v}");
        }
    }

    #[test]
    fn constants_propagate() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let g = n
            .add_gate("u", x1(CellFunc::And2), vec![a.into(), SignalRef::Const1])
            .expect("gate");
        n.add_output("y", g.into());
        n.add_output("k", SignalRef::Const1);
        let p = Patterns::exhaustive(1);
        let r = simulate(&n, &p);
        assert_eq!(r.po_word(0, 0) & 0b11, 0b10); // y = a
        assert_eq!(r.po_word(1, 0) & 0b11, 0b11); // k = 1 on all valid bits
    }

    #[test]
    fn tail_bits_are_masked() {
        let mut n = Netlist::new("inv");
        let a = n.add_input("a");
        let g = n
            .add_gate("u", x1(CellFunc::Inv), vec![a.into()])
            .expect("gate");
        n.add_output("y", g.into());
        let p = Patterns::random(1, 10, 3);
        let r = simulate(&n, &p);
        // INV of mostly-zero tail would set high bits without masking.
        assert_eq!(r.po_word(0, 0) & !p.tail_mask(), 0);
        assert_eq!(r.gate_word(g, 0) & !p.tail_mask(), 0);
    }

    #[test]
    fn similarity_bounds_and_self() {
        let n = full_adder();
        let p = Patterns::random(3, 500, 11);
        let r = simulate(&n, &p);
        for (id, _) in n.iter() {
            assert_eq!(r.similarity(id.into(), id.into()), 1.0);
            let s = r.similarity(id.into(), SignalRef::Const0);
            assert!((0.0..=1.0).contains(&s));
            let s1 = r.similarity(id.into(), SignalRef::Const1);
            assert!((s + s1 - 1.0).abs() < 1e-9, "complementary similarities");
        }
    }

    #[test]
    fn simulation_matches_bool_reference() {
        // Cross-check word-parallel evaluation against gate-by-gate
        // boolean evaluation on random vectors.
        let n = full_adder();
        let p = Patterns::random(3, 100, 17);
        let r = simulate(&n, &p);
        for v in 0..p.vector_count() {
            let mut vals = vec![false; n.gate_count()];
            for (pi_idx, &pi) in n.inputs().iter().enumerate() {
                vals[pi.index()] = p.bit(pi_idx, v);
            }
            for (id, gate) in n.iter() {
                if gate.is_input() {
                    continue;
                }
                let ins: Vec<bool> = gate
                    .fanins()
                    .iter()
                    .map(|f| match f {
                        SignalRef::Const0 => false,
                        SignalRef::Const1 => true,
                        SignalRef::Gate(s) => vals[s.index()],
                    })
                    .collect();
                vals[id.index()] = gate.cell().eval_bool(&ins);
                assert_eq!(
                    r.gate_word(id, v / 64) >> (v % 64) & 1 == 1,
                    vals[id.index()],
                    "gate {id} vector {v}"
                );
            }
        }
    }
}
