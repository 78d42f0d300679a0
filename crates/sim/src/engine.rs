//! Bit-parallel netlist evaluation.

use std::cell::RefCell;

use tdals_netlist::cell::CellFunc;
use tdals_netlist::{Fanins, GateId, Netlist, SignalRef};

use crate::kernel::eval_gate_row;
use crate::patterns::Patterns;
use crate::view::{gate_row, raw_signal_word, zero_tail_words, SignalRow, SimWords};

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

/// Simulates every gate of `netlist` on the given stimulus, one whole
/// word row per gate through the row kernel.
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
    simulate_reusing(netlist, patterns, Vec::new())
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
    simulate_with(netlist, patterns, words, |func, fanins, done, out| {
        let word_count = out.len();
        eval_gate_row(
            func,
            fanins,
            patterns,
            |g| gate_row(done, word_count, g),
            out,
        );
    })
}

/// The scalar reference oracle: [`simulate`] one word per inner-loop
/// trip, through [`CellFunc::eval_word`]. It stores exactly the words
/// [`simulate`] stores (the kernel ops are pure bitwise functions of the
/// same words), which `crates/sim/tests/blockwise.rs` checks across
/// every tail residue class; benches time [`simulate`] against it.
///
/// # Panics
///
/// Panics if `patterns.input_count()` differs from the netlist's primary
/// input count.
pub fn simulate_reference(netlist: &Netlist, patterns: &Patterns) -> SimResult {
    let mut fanin_words = [0u64; 3];
    simulate_with(netlist, patterns, Vec::new(), |func, fanins, done, out| {
        let word_count = out.len();
        for (w, word) in out.iter_mut().enumerate() {
            for (pin, fanin) in fanin_words.iter_mut().zip(fanins) {
                *pin = raw_signal_word(done, word_count, fanin, w);
            }
            *word = func.eval_word(&fanin_words[..fanins.len()]);
        }
    })
}

/// The engine both kernels share. Primary input rows are copied from
/// the stimulus; every other gate, in id order, gets
/// `eval(func, fanins, done, row)`, where `row` is the gate's own row
/// and `done` the storage of every smaller id, which holds all of its
/// fan-ins by the topological id invariant. The tail mask is applied
/// once at the end, to the final word of every gate, via the shared
/// [`zero_tail_words`] rule.
///
/// `words` is reused when it has exactly the result's length: every row
/// is copied or evaluated in full, so no stale word survives. Otherwise
/// the storage is a fresh `vec![0; n]`, which takes zeroed pages from
/// the allocator instead of writing every word as a resize would.
fn simulate_with(
    netlist: &Netlist,
    patterns: &Patterns,
    words: Vec<u64>,
    mut eval: impl FnMut(CellFunc, Fanins<'_>, &[u64], &mut [u64]),
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

    for (id, gate) in netlist.iter() {
        if gate.is_input() {
            continue;
        }
        let (done, rest) = values.split_at_mut(id.index() * word_count);
        eval(
            gate.cell().func(),
            gate.fanins(),
            done,
            &mut rest[..word_count],
        );
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

/// The primary-output rows of one simulation, and nothing else: what
/// the error metrics read of the accurate circuit. It keeps one row per
/// distinct gate driving an output and is read by output index
/// ([`OutputRows::po_row`]), so no gate id can mis-index it.
#[derive(Debug, Clone)]
pub(crate) struct OutputRows {
    vector_count: usize,
    word_count: usize,
    tail_mask: u64,
    /// Per primary output: the constant driving it, or its row.
    outputs: Vec<OutputRow>,
    /// `word_count` words per row, the final word's tail bits zeroed.
    rows: Vec<u64>,
}

/// Where one primary output's words are in an [`OutputRows`].
#[derive(Debug, Clone, Copy)]
enum OutputRow {
    Const0,
    Const1,
    Row(usize),
}

impl OutputRows {
    /// Number of vectors simulated.
    pub(crate) fn vector_count(&self) -> usize {
        self.vector_count
    }

    /// Number of words per row.
    pub(crate) fn word_count(&self) -> usize {
        self.word_count
    }

    /// Number of primary outputs.
    pub(crate) fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Mask of valid bits in the final word.
    pub(crate) fn tail_mask(&self) -> u64 {
        self.tail_mask
    }

    /// Primary output `po`'s words.
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of range.
    pub(crate) fn po_row(&self, po: usize) -> SignalRow<'_> {
        match self.outputs[po] {
            OutputRow::Const0 => SignalRow::Zeros,
            OutputRow::Const1 => SignalRow::Ones,
            OutputRow::Row(r) => {
                SignalRow::Gate(&self.rows[r * self.word_count..(r + 1) * self.word_count])
            }
        }
    }
}

/// The row of a gate that has none yet in a [`simulate_outputs`] run.
const NO_ROW: u32 = u32::MAX;

thread_local! {
    /// The word storage of the last [`simulate_outputs`] pool on this
    /// thread, reused by the next.
    static POOL_WORDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Simulates `netlist` on `patterns` and keeps only its primary-output
/// rows, which equal [`simulate`]'s bit for bit.
///
/// Gates are evaluated in id order into a pool of rows. Rows `0..k`
/// belong to the `k` distinct gates driving outputs and are kept. Every
/// other gate, primary inputs included (their rows are copied from the
/// stimulus first), takes a free row of the rest and gives it back once
/// its last reader has been evaluated (at once if no gate reads it), so
/// a gate is written straight into a row none of its fan-ins holds. A
/// plan made before any word work finds every gate's last reader and
/// the peak number of rows live at once, which sizes the pool once.
///
/// The pool's words stay with the thread and serve its next call: every
/// row is written before it is read, so they never affect a result, and
/// a thread that builds one evaluator after another takes no fresh pages
/// from the system for them. Only the kept rows are copied out.
///
/// # Panics
///
/// Panics if `patterns.input_count()` differs from the netlist's primary
/// input count.
pub(crate) fn simulate_outputs(netlist: &Netlist, patterns: &Patterns) -> OutputRows {
    assert_eq!(
        patterns.input_count(),
        netlist.input_count(),
        "stimulus width must match primary input count"
    );
    let RowPlan {
        mut slot,
        outputs,
        kept,
        mut last,
        rows,
    } = plan_rows(netlist);
    let wc = patterns.word_count();
    let mut pool = POOL_WORDS.with_borrow_mut(std::mem::take);
    if pool.len() < rows * wc {
        pool = vec![0; rows * wc];
    }
    let mut free: Vec<u32> = Vec::new();
    let mut next = kept as u32;
    let mut take_row = |slot: &mut u32, free: &mut Vec<u32>| {
        if *slot == NO_ROW {
            *slot = free.pop().unwrap_or_else(|| {
                next += 1;
                next - 1
            });
        }
        *slot as usize
    };
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        let r = take_row(&mut slot[pi.index()], &mut free);
        pool[r * wc..(r + 1) * wc].copy_from_slice(patterns.input_words(k));
        if last[pi.index()] == 0 && r >= kept {
            free.push(r as u32);
        }
    }
    for (id, gate) in netlist.iter() {
        if gate.is_input() {
            continue;
        }
        let i = id.index();
        let r = take_row(&mut slot[i], &mut free);
        let (before, rest) = pool.split_at_mut(r * wc);
        let (out, after) = rest.split_at_mut(wc);
        eval_gate_row(
            gate.cell().func(),
            gate.fanins(),
            patterns,
            |g| {
                let s = slot[g.index()] as usize;
                // A row read by its last reader goes back to the pool,
                // once: its entry is cleared for a second pin.
                if s >= kept && last[g.index()] as usize == i {
                    free.push(s as u32);
                    last[g.index()] = 0;
                }
                if s < r {
                    &before[s * wc..(s + 1) * wc]
                } else {
                    &after[(s - r - 1) * wc..(s - r) * wc]
                }
            },
            out,
        );
        if last[i] == 0 && r >= kept {
            free.push(r as u32);
        }
    }
    debug_assert!(next as usize <= rows, "the pool outgrew its plan");
    let mut kept_rows = pool[..kept * wc].to_vec();
    POOL_WORDS.with_borrow_mut(|words| *words = pool);
    zero_tail_words(&mut kept_rows, wc, patterns.tail_mask());
    OutputRows {
        vector_count: patterns.vector_count(),
        word_count: wc,
        tail_mask: patterns.tail_mask(),
        outputs,
        rows: kept_rows,
    }
}

/// What [`simulate_outputs`] knows of `netlist` before any word work.
struct RowPlan {
    /// Per gate: its kept row if it drives an output, else [`NO_ROW`].
    slot: Vec<u32>,
    /// Per primary output: the constant driving it, or its kept row.
    outputs: Vec<OutputRow>,
    /// Number of kept rows, the first of the pool.
    kept: usize,
    /// Per gate: its last reader, 0 for none (a reader's id is never 0).
    last: Vec<u32>,
    /// The pool's size: the kept rows, and the peak number of the other
    /// rows live at once.
    rows: usize,
}

/// The number of rows a [`simulate_outputs`] run of `netlist` holds.
#[cfg(test)]
pub(crate) fn planned_rows(netlist: &Netlist) -> usize {
    plan_rows(netlist).rows
}

/// Plans a [`simulate_outputs`] run of `netlist`: the kept rows, each
/// gate's last reader (an ascending pass in which every reader
/// overwrites its fan-ins' entries), and the pool's size. A gate that
/// drives no output holds a row from its evaluation (the start, for a
/// primary input) to its last reader, and takes it before its fan-ins
/// give theirs back, so past the kept rows the pool needs at most as
/// many rows as the most such spans that cover one gate: a prefix sum
/// over where spans start and end. (Inputs no gate reads are counted
/// together at the start, though each gives its row back at once.)
fn plan_rows(netlist: &Netlist) -> RowPlan {
    let n = netlist.gate_count();
    let mut slot = vec![NO_ROW; n];
    let mut kept = 0;
    let outputs: Vec<OutputRow> = netlist
        .output_drivers()
        .map(|driver| match driver {
            SignalRef::Const0 => OutputRow::Const0,
            SignalRef::Const1 => OutputRow::Const1,
            SignalRef::Gate(g) => {
                if slot[g.index()] == NO_ROW {
                    slot[g.index()] = kept as u32;
                    kept += 1;
                }
                OutputRow::Row(slot[g.index()] as usize)
            }
        })
        .collect();

    let mut last = vec![0u32; n];
    for (id, gate) in netlist.iter() {
        for fanin in gate.fanins() {
            if let SignalRef::Gate(g) = fanin {
                last[g.index()] = id.index() as u32;
            }
        }
    }
    // Per gate: the spans that start there, minus those that ended just
    // before. Primary inputs take their rows before any gate.
    let mut spans = vec![0i32; n + 1];
    let mut span = |i: usize, start: usize| {
        if slot[i] == NO_ROW {
            let end = if last[i] == 0 {
                start
            } else {
                last[i] as usize
            };
            spans[start] += 1;
            spans[end + 1] -= 1;
        }
    };
    for &pi in netlist.inputs() {
        span(pi.index(), 0);
    }
    for (id, gate) in netlist.iter() {
        if !gate.is_input() {
            span(id.index(), id.index());
        }
    }
    let (mut live, mut peak) = (0, 0);
    for delta in spans {
        live += delta;
        peak = peak.max(live);
    }
    RowPlan {
        slot,
        outputs,
        kept,
        last,
        rows: kept + peak as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, Drive};

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
