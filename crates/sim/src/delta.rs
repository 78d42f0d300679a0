//! Incremental cone re-simulation.
//!
//! The optimizers score every approximate-change candidate by comparing
//! its outputs against the golden circuit. A full [`simulate`] is
//! O(gates × words) even when the candidate differs from its parent by
//! one gate substitution whose influence is confined to the target's
//! transitive fan-out. [`DeltaSim`] keeps the parent's simulated words
//! and re-evaluates **only the affected cone**, in topological id
//! order, with event-driven damping: a gate whose recomputed words
//! equal its old words stops the wavefront, so logically masked changes
//! die out early.
//!
//! Two entry points:
//!
//! * [`DeltaSim::preview`] — score a prospective substitution without
//!   committing it. Returns a [`DeltaView`] (an overlay over the base
//!   words) that answers every [`SimWords`] query bit-identically to a
//!   full re-simulation of the mutated netlist.
//! * [`DeltaSim::substitute`] — commit a substitution: the internal
//!   netlist mutates and the affected words are updated in place,
//!   bit-identically to a full [`simulate`] of the mutated netlist.
//!
//! # Scratch views for worker threads
//!
//! The engine is a plain value: `Clone` gives an independent **scratch
//! view** (own netlist, own words, own overlay), and the type is both
//! `Send` and `Sync`, so the deterministic worker pool in
//! `tdals-core::par` can
//! hand every worker its own clone of a shared base — the DCGWO seeding
//! phase mutates one scratch per population member — or share one base
//! immutably for [`DeltaSim::preview`] scoring. Nothing in here uses
//! interior mutability, which is what makes the parallel and sequential
//! scoring paths bit-identical by construction.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::{Netlist, SignalRef};
//! use tdals_netlist::cell::{Cell, CellFunc, Drive};
//! use tdals_sim::{simulate, DeltaSim, Patterns, SimWords};
//!
//! let mut n = Netlist::new("or");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate("u", Cell::new(CellFunc::Or2, Drive::X1),
//!                    vec![a.into(), b.into()])?;
//! n.add_output("y", g.into());
//!
//! let patterns = Patterns::exhaustive(2);
//! let delta = DeltaSim::new(n.clone(), &patterns);
//!
//! // Score `y := a` without re-simulating the whole circuit.
//! let view = delta.preview(g, a.into());
//!
//! // Bit-identical to mutating and fully re-simulating.
//! let mut mutated = n.clone();
//! mutated.substitute(g, a.into())?;
//! let full = simulate(&mutated, &patterns);
//! assert_eq!(view.po_word(0, 0), SimWords::po_word(&full, 0, 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use tdals_netlist::{Fanouts, GateId, Netlist, NetlistError, SignalRef};

use crate::block::BLOCK_WORDS;
use crate::engine::{simulate, simulate_reusing, SimResult};
use crate::patterns::Patterns;
use crate::view::{gate_row, mask_tail, SimWords};

/// Sentinel for "gate not in the overlay".
const NO_SLOT: u32 = u32::MAX;

/// Counters describing how much work one cone re-evaluation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Gates whose words were recomputed and found changed.
    pub changed: usize,
    /// Gates recomputed but bit-identical to before (wavefront damped).
    pub damped: usize,
}

impl DeltaStats {
    /// Total gates re-evaluated (changed + damped).
    pub fn reevaluated(&self) -> usize {
        self.changed + self.damped
    }
}

/// Incremental simulation state: a netlist, its simulated words, and
/// the fan-out rows needed to chase a mutation's transitive cone.
///
/// [`DeltaSim::rebuild`] recycles the word buffer, so a long-lived
/// engine re-targeted at one same-sized netlist after another allocates
/// its words once.
#[derive(Debug, Clone)]
pub struct DeltaSim {
    netlist: Netlist,
    patterns: Patterns,
    /// Gate-major storage, same layout and tail-mask discipline as
    /// [`SimResult`].
    values: Vec<u64>,
    word_count: usize,
    vector_count: usize,
    tail_mask: u64,
    /// Gate readers of every gate's output, as [`Netlist::fanouts`] of
    /// the current netlist: rebuilt from the netlist on every commit
    /// (O(pins); commits are rare next to previews). PO readers are
    /// resolved through the netlist.
    fanouts: Fanouts,
    /// Lifetime counters across all commits.
    commit_stats: DeltaStats,
}

impl DeltaSim {
    /// Simulates `netlist` once and prepares for incremental updates.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.input_count()` differs from the netlist's
    /// primary input count.
    pub fn new(netlist: Netlist, patterns: &Patterns) -> DeltaSim {
        let sim = simulate(&netlist, patterns);
        DeltaSim::from_result(netlist, patterns.clone(), sim)
    }

    /// Wraps an existing simulation result (which must describe
    /// `netlist` on `patterns`) without re-simulating.
    ///
    /// # Panics
    ///
    /// Panics if the result's word geometry does not match the netlist
    /// and patterns.
    pub fn from_result(netlist: Netlist, patterns: Patterns, sim: SimResult) -> DeltaSim {
        assert_eq!(
            sim.values.len(),
            netlist.gate_count() * sim.word_count,
            "simulation result must cover every gate of the netlist"
        );
        assert_eq!(
            sim.vector_count,
            patterns.vector_count(),
            "simulation result must cover the stimulus"
        );
        let fanouts = netlist.fanouts();
        DeltaSim {
            word_count: sim.word_count,
            vector_count: sim.vector_count,
            tail_mask: sim.tail_mask,
            values: sim.values,
            netlist,
            patterns,
            fanouts,
            commit_stats: DeltaStats::default(),
        }
    }

    /// Re-targets the engine at `netlist` on the same stimulus: one full
    /// simulation into the existing word buffer, and the fan-out rows
    /// rebuilt into theirs. The state afterwards equals
    /// `DeltaSim::new(netlist, self.patterns())`; for a netlist with the
    /// previous one's gate count, the words need no new allocation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's primary input count differs from the
    /// stimulus width.
    pub fn rebuild(&mut self, netlist: Netlist) {
        let words = std::mem::take(&mut self.values);
        self.values = simulate_reusing(&netlist, &self.patterns, words).into_words();
        netlist.fanouts_into(&mut self.fanouts);
        self.netlist = netlist;
        self.commit_stats = DeltaStats::default();
    }

    /// The netlist in its current (post-commit) state.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The stimulus shared by every evaluation.
    pub fn patterns(&self) -> &Patterns {
        &self.patterns
    }

    /// Lifetime counters over all committed substitutions.
    pub fn commit_stats(&self) -> DeltaStats {
        self.commit_stats
    }

    /// Snapshot of the current state as an owned [`SimResult`]
    /// (O(gates × words) copy; use the [`SimWords`] queries when a
    /// snapshot is not required).
    pub fn to_sim_result(&self) -> SimResult {
        SimResult {
            vector_count: self.vector_count,
            word_count: self.word_count,
            values: self.values.clone(),
            po_drivers: self.netlist.output_drivers().collect(),
            tail_mask: self.tail_mask,
        }
    }

    /// Scores the substitution `target := switch` without committing:
    /// re-evaluates the target's affected fan-out cone into an overlay
    /// and returns a view that reads overlay-then-base.
    ///
    /// The view is bit-identical to `simulate(&mutated, patterns)` where
    /// `mutated` is the current netlist after `substitute(target,
    /// switch)` — property-tested in `tests/delta_sim.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is a gate with id ≥ `target` (which would
    /// break the topological id invariant; the optimizers draw switches
    /// from the target's transitive fan-in, so this cannot happen on
    /// their path).
    pub fn preview(&self, target: GateId, switch: SignalRef) -> DeltaView<'_> {
        if let SignalRef::Gate(s) = switch {
            assert!(
                s < target,
                "switch {s} must precede target {target} in id order"
            );
        }
        let mut slot = vec![NO_SLOT; self.netlist.gate_count()];
        let mut words: Vec<u64> = Vec::new();
        let mut stats = DeltaStats::default();
        self.propagate(target, switch, &mut slot, &mut words, &mut stats);
        let m = tdals_obs::metrics();
        m.delta_previews.incr();
        m.delta_cone_gates.record(stats.changed as u64);
        DeltaView {
            base: self,
            target,
            switch,
            slot,
            words,
            stats,
        }
    }

    /// Commits the substitution `target := switch`: rewrites the
    /// internal netlist (exactly like [`Netlist::substitute`]), updates
    /// the affected words in place, and rebuilds the fan-out rows.
    /// Returns the number of rewritten fan-in/PO references.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] if `switch` is a gate with
    /// id ≥ `target`; the state is unchanged in that case.
    pub fn substitute(&mut self, target: GateId, switch: SignalRef) -> Result<usize, NetlistError> {
        if let SignalRef::Gate(s) = switch {
            if s >= target {
                return Err(NetlistError::FaninOrder {
                    gate: target,
                    fanin: s,
                });
            }
        }
        // Re-evaluate the cone into an overlay, then merge. (The overlay
        // indirection keeps the propagation code shared with `preview`.)
        let mut slot = vec![NO_SLOT; self.netlist.gate_count()];
        let mut words: Vec<u64> = Vec::new();
        let mut stats = DeltaStats::default();
        self.propagate(target, switch, &mut slot, &mut words, &mut stats);
        self.commit_stats.changed += stats.changed;
        self.commit_stats.damped += stats.damped;
        let m = tdals_obs::metrics();
        m.delta_commits.incr();
        m.delta_cone_gates.record(stats.changed as u64);

        let rewritten = self.netlist.substitute(target, switch)?;
        for (g, &s) in slot.iter().enumerate() {
            if s != NO_SLOT {
                let src = s as usize * self.word_count;
                let dst = g * self.word_count;
                self.values[dst..dst + self.word_count]
                    .copy_from_slice(&words[src..src + self.word_count]);
            }
        }
        // Every gate reader of `target` now reads `switch` instead. (PO
        // readers live in the netlist's output table.)
        self.netlist.fanouts_into(&mut self.fanouts);
        Ok(rewritten)
    }

    /// Event-driven cone re-evaluation shared by `preview` and
    /// `substitute`: walks the fan-out of `target` in topological id
    /// order, recomputing each reached gate under the pending
    /// substitution; gates whose recomputed words equal their current
    /// words do not propagate further. The inner loop evaluates whole
    /// [`BLOCK_WORDS`]-word blocks with the tail mask folded into the
    /// final block, then a scalar pass covers the remainder.
    fn propagate(
        &self,
        target: GateId,
        switch: SignalRef,
        slot: &mut [u32],
        words: &mut Vec<u64>,
        stats: &mut DeltaStats,
    ) {
        const W: usize = BLOCK_WORDS;
        let wc = self.word_count;
        let n = self.netlist.gate_count();
        // Pending-flag scan instead of a priority queue: fan-outs
        // always have larger ids than their drivers, so one ascending
        // pass over the id space evaluates every affected gate after
        // all of its fan-ins have settled. Every pending gate lies in
        // `lo..end`, so the pass stops at the wavefront's last reader
        // instead of scanning to the end of the id space.
        let mut pending = vec![false; n];
        let (mut lo, mut end) = (n, 0);
        for &reader in self.fanouts.readers(target) {
            pending[reader.index()] = true;
            lo = lo.min(reader.index());
            end = end.max(reader.index() + 1);
        }

        // Per-pin source resolved once per gate, not once per word:
        // either a constant word or an offset into the base/overlay
        // storage.
        enum Pin {
            Const(u64),
            Base(usize),
            Overlay(usize),
        }
        let mut pins: [Pin; 3] = [Pin::Const(0), Pin::Const(0), Pin::Const(0)];
        let mut fanin_blocks = [[0u64; W]; 3];
        let mut fanin_words = [0u64; 3];
        let full = wc - wc % W;
        let mut scratch = vec![0u64; wc];
        for i in lo..n {
            if i == end {
                break;
            }
            if !pending[i] {
                continue;
            }
            let id = GateId::new(i);
            let gate = self.netlist.gate(id);
            let cell = gate.cell();
            let arity = cell.arity();
            for (pin, &fanin) in gate.fanins().iter().enumerate() {
                // The pending substitution: readers of `target` see
                // `switch` instead.
                let src = if fanin == SignalRef::Gate(target) {
                    switch
                } else {
                    fanin
                };
                pins[pin] = match src {
                    SignalRef::Const0 => Pin::Const(0),
                    SignalRef::Const1 => Pin::Const(u64::MAX),
                    SignalRef::Gate(g) if slot[g.index()] != NO_SLOT => {
                        Pin::Overlay(slot[g.index()] as usize * wc)
                    }
                    SignalRef::Gate(g) => Pin::Base(g.index() * wc),
                };
            }
            let base = id.index() * wc;
            let mut changed = false;
            let mut w = 0;
            while w < full {
                for (pin, resolved) in pins[..arity].iter().enumerate() {
                    fanin_blocks[pin] = match resolved {
                        Pin::Const(c) => [*c; W],
                        Pin::Base(off) => block_from(&self.values, off + w),
                        Pin::Overlay(off) => block_from(words, off + w),
                    };
                }
                let mut out = cell.eval_block::<W>(&fanin_blocks[..arity]);
                if w + W == wc {
                    out[W - 1] &= self.tail_mask;
                }
                for (lane, &word) in out.iter().enumerate() {
                    changed |= word != self.values[base + w + lane];
                }
                scratch[w..w + W].copy_from_slice(&out);
                w += W;
            }
            for w in full..wc {
                for (pin, resolved) in pins[..arity].iter().enumerate() {
                    fanin_words[pin] = match resolved {
                        Pin::Const(c) => *c,
                        Pin::Base(off) => self.values[off + w],
                        Pin::Overlay(off) => words[off + w],
                    };
                }
                let out = mask_tail(cell.eval_word(&fanin_words[..arity]), w, wc, self.tail_mask);
                scratch[w] = out;
                changed |= out != self.values[base + w];
            }
            if changed {
                stats.changed += 1;
                slot[i] = u32::try_from(words.len() / wc).expect("overlay fits u32");
                words.extend_from_slice(&scratch);
                for &reader in self.fanouts.readers(id) {
                    pending[reader.index()] = true;
                    end = end.max(reader.index() + 1);
                }
            } else {
                // Damped: downstream gates would recompute identical
                // words, so the wavefront stops here.
                stats.damped += 1;
            }
        }
    }
}

/// Copies `W` consecutive words starting at `off` into an owned block.
#[inline]
fn block_from<const W: usize>(storage: &[u64], off: usize) -> [u64; W] {
    let mut block = [0u64; W];
    block.copy_from_slice(&storage[off..off + W]);
    block
}

impl SimWords for DeltaSim {
    fn vector_count(&self) -> usize {
        self.vector_count
    }

    fn word_count(&self) -> usize {
        self.word_count
    }

    fn output_count(&self) -> usize {
        self.netlist.output_count()
    }

    fn tail_mask(&self) -> u64 {
        self.tail_mask
    }

    fn gate_row(&self, g: GateId) -> &[u64] {
        gate_row(&self.values, self.word_count, g)
    }

    fn po_driver(&self, po: usize) -> SignalRef {
        self.netlist.output_driver(po)
    }
}

/// A scored-but-uncommitted substitution: overlay words for the
/// re-evaluated cone over the base [`DeltaSim`] words.
///
/// Answers every [`SimWords`] query exactly as a full simulation of the
/// mutated netlist would, including primary outputs whose driver was
/// the substituted gate.
#[derive(Debug)]
pub struct DeltaView<'a> {
    base: &'a DeltaSim,
    target: GateId,
    switch: SignalRef,
    /// Gate → overlay row (NO_SLOT when the gate kept its base words).
    slot: Vec<u32>,
    /// Overlay rows, `word_count` words each.
    words: Vec<u64>,
    stats: DeltaStats,
}

impl DeltaView<'_> {
    /// The substitution this view scores.
    pub fn lac(&self) -> (GateId, SignalRef) {
        (self.target, self.switch)
    }

    /// Work counters for this cone re-evaluation.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }
}

impl SimWords for DeltaView<'_> {
    fn vector_count(&self) -> usize {
        self.base.vector_count
    }

    fn word_count(&self) -> usize {
        self.base.word_count
    }

    fn output_count(&self) -> usize {
        self.base.netlist.output_count()
    }

    fn tail_mask(&self) -> u64 {
        self.base.tail_mask
    }

    /// The overlay row when the cone re-evaluation changed `g`, its
    /// base row otherwise. Overlay rows are tail-masked like the base
    /// storage.
    fn gate_row(&self, g: GateId) -> &[u64] {
        let wc = self.base.word_count;
        match self.slot[g.index()] {
            NO_SLOT => gate_row(&self.base.values, wc, g),
            s => &self.words[s as usize * wc..(s as usize + 1) * wc],
        }
    }

    /// The base driver, or `switch` where that driver is the
    /// substituted target: the committed substitution would rewrite PO
    /// drivers too.
    fn po_driver(&self, po: usize) -> SignalRef {
        match self.base.netlist.output_driver(po) {
            SignalRef::Gate(g) if g == self.target => self.switch,
            driver => driver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, CellFunc, Drive};

    fn x1(func: CellFunc) -> Cell {
        Cell::new(func, Drive::X1)
    }

    /// The worker-pool contract (see the module docs): scratch views
    /// clone and cross threads. A regression here — say an `Rc` or a
    /// `RefCell` slipping into the engine — would break every parallel
    /// evaluation path in `tdals-core`, so pin it at the source.
    #[test]
    fn engine_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeltaSim>();
        assert_send_sync::<DeltaView<'_>>();
        assert_send_sync::<SimResult>();
        assert_send_sync::<Patterns>();
        assert_send_sync::<crate::ErrorEvaluator>();
    }

    /// a, b, c → chain with an AND-masked tail: g1 = a & b,
    /// g2 = g1 | c, g3 = g2 & c, outputs g2 and g3.
    fn chain() -> (Netlist, GateId, GateId) {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n
            .add_gate("g1", x1(CellFunc::And2), vec![a.into(), b.into()])
            .expect("gate");
        let g2 = n
            .add_gate("g2", x1(CellFunc::Or2), vec![g1.into(), c.into()])
            .expect("gate");
        let g3 = n
            .add_gate("g3", x1(CellFunc::And2), vec![g2.into(), c.into()])
            .expect("gate");
        n.add_output("y2", g2.into());
        n.add_output("y3", g3.into());
        (n, g1, g2)
    }

    fn assert_view_matches_full(netlist: &Netlist, patterns: &Patterns, t: GateId, s: SignalRef) {
        let delta = DeltaSim::new(netlist.clone(), patterns);
        let view = delta.preview(t, s);
        let mut mutated = netlist.clone();
        mutated.substitute(t, s).expect("legal substitution");
        let full = simulate(&mutated, patterns);
        for po in 0..SimWords::output_count(&full) {
            for w in 0..SimWords::word_count(&full) {
                assert_eq!(
                    view.po_word(po, w),
                    SimWords::po_word(&full, po, w),
                    "po {po} word {w} after {t} := {s}"
                );
            }
        }
    }

    #[test]
    fn preview_matches_full_resim() {
        let (n, g1, g2) = chain();
        let p = Patterns::exhaustive(3);
        for (t, s) in [
            (g1, SignalRef::Const0),
            (g1, SignalRef::Const1),
            (g2, SignalRef::Const1),
            (g2, SignalRef::Gate(g1)),
        ] {
            assert_view_matches_full(&n, &p, t, s);
        }
    }

    #[test]
    fn preview_matches_on_unaligned_tail() {
        // 70 vectors: two words, the second with a 6-bit tail.
        let (n, g1, _) = chain();
        let p = Patterns::random(3, 70, 5);
        assert_view_matches_full(&n, &p, g1, SignalRef::Const1);
    }

    #[test]
    fn damping_stops_the_wavefront() {
        // g2 = g1 | c; substituting g1 := 0 changes g2 only where
        // c = 0 and a & b = 1. With c tied to 1 in the stimulus region,
        // an OR with Const1 damps instantly — emulate by substituting a
        // gate with an identical-valued signal.
        let mut n = Netlist::new("damp");
        let a = n.add_input("a");
        let buf = n
            .add_gate("buf", x1(CellFunc::Buf), vec![a.into()])
            .expect("gate");
        let inv = n
            .add_gate("inv", x1(CellFunc::Inv), vec![buf.into()])
            .expect("gate");
        let out = n
            .add_gate("out", x1(CellFunc::Inv), vec![inv.into()])
            .expect("gate");
        n.add_output("y", out.into());
        let p = Patterns::exhaustive(1);
        let delta = DeltaSim::new(n, &p);
        // buf duplicates a: substituting buf := a changes nothing, so
        // the single reader recomputes identical words and damps.
        let view = delta.preview(buf, a.into());
        assert_eq!(view.stats().changed, 0);
        assert_eq!(view.stats().damped, 1);
    }

    #[test]
    fn commit_matches_full_resim_over_a_chain() {
        let (n, g1, g2) = chain();
        let p = Patterns::random(3, 100, 9);
        let mut delta = DeltaSim::new(n.clone(), &p);
        let mut reference = n;
        for (t, s) in [(g2, SignalRef::Gate(g1)), (g1, SignalRef::Const1)] {
            delta.substitute(t, s).expect("legal");
            reference.substitute(t, s).expect("legal");
            let full = simulate(&reference, &p);
            for po in 0..SimWords::output_count(&full) {
                for w in 0..SimWords::word_count(&full) {
                    assert_eq!(
                        SimWords::po_word(&delta, po, w),
                        SimWords::po_word(&full, po, w)
                    );
                }
            }
        }
        assert_eq!(delta.netlist(), &reference);
    }

    #[test]
    fn rebuild_equals_a_fresh_engine() {
        let (n, g1, g2) = chain();
        let p = Patterns::random(3, 100, 9);
        let mut other = n.clone();
        other.substitute(g2, SignalRef::Gate(g1)).expect("legal");
        let fresh = DeltaSim::new(other.clone(), &p);
        // A committed engine re-targeted at another netlist.
        let mut rebuilt = DeltaSim::new(n, &p);
        rebuilt.substitute(g1, SignalRef::Const1).expect("legal");
        rebuilt.rebuild(other);
        assert_eq!(rebuilt.netlist(), fresh.netlist());
        assert_eq!(rebuilt.values, fresh.values);
        assert_eq!(rebuilt.fanouts, fresh.fanouts);
        assert_eq!(rebuilt.commit_stats(), fresh.commit_stats());
    }

    #[test]
    fn illegal_switch_is_rejected_without_state_change() {
        let (n, g1, g2) = chain();
        let p = Patterns::exhaustive(3);
        let mut delta = DeltaSim::new(n.clone(), &p);
        let err = delta.substitute(g1, SignalRef::Gate(g2)).unwrap_err();
        assert!(matches!(err, NetlistError::FaninOrder { .. }));
        assert_eq!(delta.netlist(), &n);
    }

    #[test]
    fn to_sim_result_round_trips() {
        let (n, g1, _) = chain();
        let p = Patterns::random(3, 80, 3);
        let mut delta = DeltaSim::new(n, &p);
        delta.substitute(g1, SignalRef::Const1).expect("legal");
        let snap = delta.to_sim_result();
        let full = simulate(delta.netlist(), &p);
        for po in 0..SimWords::output_count(&full) {
            for w in 0..SimWords::word_count(&full) {
                assert_eq!(snap.po_word(po, w), SimWords::po_word(&full, po, w));
            }
        }
    }
}
