//! The read-side abstraction over simulated gate values.
//!
//! Both the full-resimulation result ([`SimResult`](crate::SimResult))
//! and the incremental evaluators ([`DeltaSim`](crate::DeltaSim),
//! [`DeltaView`](crate::DeltaView)) answer the same queries — word `w`
//! of a signal, a primary output, a similarity — so the error metrics
//! and the optimizers' similarity scoring are written once against the
//! [`SimWords`] trait and cannot diverge between the two paths.

use tdals_netlist::{GateId, SignalRef};

/// Raw (tail-unmasked) 64-sample word of `signal` over gate-major
/// storage `values[g * word_count + w]`.
///
/// The simulation kernels' constant expansion rule: `Const0` is
/// all-zeros, `Const1` is all-ones, gates read their stored word —
/// the same rule the read path ([`SimWords::signal_block`]) applies.
#[inline]
pub(crate) fn raw_signal_word(
    values: &[u64],
    word_count: usize,
    signal: SignalRef,
    w: usize,
) -> u64 {
    match signal {
        SignalRef::Const0 => 0,
        SignalRef::Const1 => u64::MAX,
        SignalRef::Gate(id) => values[id.index() * word_count + w],
    }
}

/// **The** tail rule, shared by every read path: a raw word is masked
/// iff it is the final word of its signal. Hoisted here so the full
/// engine, the incremental engine, and the query API cannot diverge on
/// which word gets clipped.
#[inline]
pub(crate) fn mask_tail(raw: u64, w: usize, word_count: usize, tail_mask: u64) -> u64 {
    if w + 1 == word_count {
        raw & tail_mask
    } else {
        raw
    }
}

/// The write-side twin of [`mask_tail`]: zeroes the invalid tail bits
/// of the **final word of every row** in `word_count`-word row-major
/// storage (gate-major simulation values, input-major stimulus words).
/// Both the full engine and pattern generation defer to this one
/// helper, so a future width bug cannot clip different bits on the two
/// sides.
pub(crate) fn zero_tail_words(values: &mut [u64], word_count: usize, tail_mask: u64) {
    if tail_mask == u64::MAX || word_count == 0 {
        return;
    }
    let mut i = word_count - 1;
    while i < values.len() {
        values[i] &= tail_mask;
        i += word_count;
    }
}

/// A signal's words resolved once: a gate's full `word_count`-word row,
/// with the invalid tail bits of its final word zeroed (the storage
/// rule of every evaluator in the crate), or a constant.
#[derive(Clone, Copy)]
pub(crate) enum SignalRow<'a> {
    Zeros,
    Ones,
    Gate(&'a [u64]),
}

impl<'a> SignalRow<'a> {
    /// `signal` resolved through `row`, which gives a gate's row.
    #[inline]
    pub(crate) fn of(signal: SignalRef, row: impl FnOnce(GateId) -> &'a [u64]) -> SignalRow<'a> {
        match signal {
            SignalRef::Const0 => SignalRow::Zeros,
            SignalRef::Const1 => SignalRow::Ones,
            SignalRef::Gate(g) => SignalRow::Gate(row(g)),
        }
    }

    /// Number of the `vector_count` vectors on which the two rows
    /// differ.
    ///
    /// Two gates popcount their XORed rows. Against a constant, a gate's
    /// difference count is its row popcount (`Zeros`) or `vector_count`
    /// minus it (`Ones`): the zeroed tail bits are exactly the ones the
    /// masked per-word reads would clip. Two constants differ on every
    /// vector or on none. The result equals the masked per-word XOR
    /// popcount, with no per-word dispatch and no block copies.
    pub(crate) fn diff_count(self, other: SignalRow<'_>, vector_count: usize) -> usize {
        let popcount = |row: &[u64]| -> usize { row.iter().map(|w| w.count_ones() as usize).sum() };
        match (self, other) {
            (SignalRow::Gate(x), SignalRow::Gate(y)) => x
                .iter()
                .zip(y)
                .map(|(p, q)| (p ^ q).count_ones() as usize)
                .sum(),
            (SignalRow::Gate(g), SignalRow::Zeros) | (SignalRow::Zeros, SignalRow::Gate(g)) => {
                popcount(g)
            }
            (SignalRow::Gate(g), SignalRow::Ones) | (SignalRow::Ones, SignalRow::Gate(g)) => {
                vector_count - popcount(g)
            }
            (SignalRow::Zeros, SignalRow::Zeros) | (SignalRow::Ones, SignalRow::Ones) => 0,
            (SignalRow::Zeros, SignalRow::Ones) | (SignalRow::Ones, SignalRow::Zeros) => {
                vector_count
            }
        }
    }
}

/// Row `g` of gate-major storage `values[g * word_count + w]`.
#[inline]
pub(crate) fn gate_row(values: &[u64], word_count: usize, g: GateId) -> &[u64] {
    let base = g.index() * word_count;
    &values[base..base + word_count]
}

/// Read access to one batch of simulated gate values.
///
/// Implemented by [`SimResult`](crate::SimResult) (full re-simulation),
/// [`DeltaSim`](crate::DeltaSim) (the incremental engine's current
/// state) and [`DeltaView`](crate::DeltaView) (a scored-but-uncommitted
/// mutation). Error metrics and similarity scoring accept any
/// implementor, which is what lets candidate scoring run on the
/// incremental path without materializing a full `SimResult`.
///
/// An implementor supplies only its geometry, its gate rows
/// ([`SimWords::gate_row`]) and its PO drivers
/// ([`SimWords::po_driver`]); every word, block and similarity read is
/// a provided method over those, so the constant expansion and the
/// tail rule live in one place.
pub trait SimWords {
    /// Number of vectors simulated.
    fn vector_count(&self) -> usize;

    /// Number of 64-bit words per signal.
    fn word_count(&self) -> usize;

    /// Number of primary outputs.
    fn output_count(&self) -> usize;

    /// Mask of valid bits in the final word.
    fn tail_mask(&self) -> u64;

    /// All [`SimWords::word_count`] words of gate `g`, with the invalid
    /// tail bits of the final word zeroed.
    fn gate_row(&self, g: GateId) -> &[u64];

    /// The signal driving primary output `po`.
    fn po_driver(&self, po: usize) -> SignalRef;

    /// Fills `out` with words `w0 .. w0 + out.len()` of `signal`,
    /// tail-masked: **the** read path every other word accessor goes
    /// through. Gates copy from their [`SimWords::gate_row`]; `Const0`
    /// expands to all-zeros and `Const1` to all-ones, clipped to the
    /// valid tail bits of the final word. `w0 + out.len()` must not
    /// exceed [`SimWords::word_count`].
    fn signal_block(&self, signal: SignalRef, w0: usize, out: &mut [u64]) {
        match signal {
            SignalRef::Const0 => out.fill(0),
            SignalRef::Const1 => out.fill(u64::MAX),
            SignalRef::Gate(g) => out.copy_from_slice(&self.gate_row(g)[w0..w0 + out.len()]),
        }
        let end = w0 + out.len();
        if let Some(last) = out.last_mut() {
            *last = mask_tail(*last, end - 1, self.word_count(), self.tail_mask());
        }
    }

    /// Fills `out` with words `w0 .. w0 + out.len()` of primary output
    /// `po`, tail-masked; [`SimWords::signal_block`] of its driver.
    fn po_block(&self, po: usize, w0: usize, out: &mut [u64]) {
        self.signal_block(self.po_driver(po), w0, out);
    }

    /// Word `w` of an arbitrary signal, tail-masked.
    fn signal_word(&self, signal: SignalRef, w: usize) -> u64 {
        let mut word = [0];
        self.signal_block(signal, w, &mut word);
        word[0]
    }

    /// Word `w` of primary output `po`, tail-masked.
    fn po_word(&self, po: usize, w: usize) -> u64 {
        self.signal_word(self.po_driver(po), w)
    }

    /// Counts vectors on which the two signals differ, by a popcount
    /// over [`SimWords::gate_row`] rows.
    fn diff_count(&self, a: SignalRef, b: SignalRef) -> usize {
        let row = |g| self.gate_row(g);
        SignalRow::of(a, row).diff_count(SignalRow::of(b, row), self.vector_count())
    }

    /// Fraction of vectors on which the two signals agree — the paper's
    /// *similarity* measure driving switch-gate selection.
    fn similarity(&self, a: SignalRef, b: SignalRef) -> f64 {
        1.0 - self.diff_count(a, b) as f64 / self.vector_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_word_expands_constants() {
        let values = vec![0xAB, 0xCD];
        assert_eq!(raw_signal_word(&values, 1, SignalRef::Const0, 0), 0);
        assert_eq!(raw_signal_word(&values, 1, SignalRef::Const1, 0), u64::MAX);
        assert_eq!(
            raw_signal_word(&values, 1, SignalRef::Gate(GateId::new(1)), 0),
            0xCD
        );
    }

    /// The corner the duplicated masking logic used to guard twice:
    /// `Const1` reads are all-ones *except* the tail bits of the final
    /// word, and only there.
    #[test]
    fn mask_tail_clips_const1_final_word_only() {
        let tail = 0x3F; // 70 vectors -> 6 valid bits in word 1 of 2
        assert_eq!(mask_tail(u64::MAX, 1, 2, tail), 0x3F);
        assert_eq!(mask_tail(u64::MAX, 0, 2, tail), u64::MAX);
        // Word-aligned batches mask nothing.
        assert_eq!(mask_tail(u64::MAX, 1, 2, u64::MAX), u64::MAX);
    }

    #[test]
    fn zero_tail_words_hits_every_rows_final_word() {
        // Two 3-word rows, all ones.
        let mut values = vec![u64::MAX; 6];
        zero_tail_words(&mut values, 3, 0xF);
        assert_eq!(
            values,
            vec![u64::MAX, u64::MAX, 0xF, u64::MAX, u64::MAX, 0xF]
        );
        // Full mask is a no-op.
        let mut values = vec![u64::MAX; 6];
        zero_tail_words(&mut values, 3, u64::MAX);
        assert_eq!(values, vec![u64::MAX; 6]);
    }
}
