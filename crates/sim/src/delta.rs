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
//! `tdals-core::par` can hand every worker an engine of its own — the
//! DCGWO workers re-target theirs with [`DeltaSim::rebuild`] — or share
//! one base immutably for
//! [`DeltaSim::preview`] scoring. Nothing in here uses interior
//! mutability, which is what makes the parallel and sequential scoring
//! paths bit-identical by construction.
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

use std::borrow::Cow;

use tdals_netlist::{Fanouts, GateId, Netlist, NetlistError, SignalRef};

use crate::engine::{simulate, simulate_reusing, SimResult};
use crate::kernel::eval_gate_row;
use crate::patterns::Patterns;
use crate::view::{gate_row, SimWords};

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
    /// Cone marks and the one evaluation row of commits.
    commit_scratch: PreviewScratch,
}

/// Reusable buffers for a cone re-evaluation: per-gate marks stamped
/// with the walk's generation, so a new walk clears nothing and
/// allocates nothing, and the overlay rows a preview writes.
///
/// A worker that scores many previews keeps one scratch and passes it
/// to [`DeltaSim::preview_outputs_in`]; its overlay rows grow to the
/// largest set of rows one of them held at once. Its contents never
/// affect a result.
#[derive(Debug, Clone, Default)]
pub struct PreviewScratch {
    generation: u32,
    /// Per gate: the generation in which it became pending.
    pending: Vec<u32>,
    /// Per gate: the generation in which it got an overlay row, and
    /// that row's index ([`RECYCLED`] once the row went to another
    /// gate).
    slot: Vec<(u32, u32)>,
    /// Per gate: the generation in which it was marked as driving a
    /// primary output, in a walk that recycles rows.
    outputs: Vec<u32>,
    /// Overlay rows, `word_count` words each; may hold more words than
    /// the rows in use.
    rows: Vec<u64>,
    /// The row a gate is evaluated into when it cannot be evaluated in
    /// place: before it takes a recycled overlay row, and in commits.
    row: Vec<u64>,
    /// Overlay rows free for reuse in this walk.
    free: Vec<u32>,
}

/// The row index of a gate whose overlay row was recycled.
const RECYCLED: u32 = u32::MAX;

/// Overlay words (16 MB) from which an output preview recycles rows.
/// Smaller overlays keep every row: giving rows back costs a check per
/// re-evaluated fan-in, which at 4,096 vectors slowed `pop-c5315-t2` by
/// about 6%, while Sqrt's largest cone there holds 7 MB. At 10^5
/// vectors that cone would hold 163 MB, close to a full simulation's
/// words, and recycling keeps it near this bound.
const RECYCLE_FROM_WORDS: usize = 1 << 21;

impl PreviewScratch {
    /// Starts a walk over `gates` gates: a fresh generation, with the
    /// marks reset only when the gate count changed or the generations
    /// ran out.
    fn begin(&mut self, gates: usize) -> u32 {
        if self.pending.len() != gates || self.generation == u32::MAX {
            self.pending.clear();
            self.pending.resize(gates, 0);
            self.slot.clear();
            self.slot.resize(gates, (0, 0));
            self.outputs.clear();
            self.outputs.resize(gates, 0);
            self.generation = 0;
        }
        self.free.clear();
        self.generation += 1;
        self.generation
    }
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
        let fanouts = netlist.fanouts();
        DeltaSim {
            word_count: sim.word_count,
            vector_count: sim.vector_count,
            tail_mask: sim.tail_mask,
            values: sim.values,
            netlist,
            patterns: patterns.clone(),
            fanouts,
            commit_stats: DeltaStats::default(),
            commit_scratch: PreviewScratch::default(),
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

    /// The current netlist's gate fan-out rows, equal to
    /// [`Netlist::fanouts`] of it.
    pub fn fanouts(&self) -> &Fanouts {
        &self.fanouts
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
        let mut scratch = PreviewScratch::default();
        let stats = self.preview_cone(target, switch, &mut scratch, usize::MAX);
        DeltaView {
            base: self,
            target,
            switch,
            scratch: Cow::Owned(scratch),
            stats,
        }
    }

    /// [`DeltaSim::preview`] for scoring the outputs: the marks and
    /// overlay rows live in `scratch`, which the view borrows, and once
    /// the overlay has grown to 16 MB a changed gate that drives no
    /// primary output gives its row back for reuse when its last reader
    /// has been re-evaluated. So the overlay stays near 16 MB plus the
    /// cone's wavefront, where `preview` holds every changed gate (on
    /// Sqrt at 10^5 vectors, up to 13,688 rows or 163 MB), and a
    /// scratch that has served a cone of this size allocates nothing.
    ///
    /// The view's output queries, and the rows of the gates whose rows
    /// it kept, equal [`DeltaSim::preview`]'s.
    ///
    /// # Panics
    ///
    /// As [`DeltaSim::preview`]. Reading the row of a gate whose row
    /// was given back panics.
    pub fn preview_outputs_in<'a>(
        &'a self,
        target: GateId,
        switch: SignalRef,
        scratch: &'a mut PreviewScratch,
    ) -> DeltaView<'a> {
        self.preview_recycling(target, switch, scratch, RECYCLE_FROM_WORDS)
    }

    /// [`DeltaSim::preview_outputs_in`] recycling rows from an overlay of
    /// `recycle_from` words on.
    fn preview_recycling<'a>(
        &'a self,
        target: GateId,
        switch: SignalRef,
        scratch: &'a mut PreviewScratch,
        recycle_from: usize,
    ) -> DeltaView<'a> {
        let stats = self.preview_cone(target, switch, scratch, recycle_from);
        DeltaView {
            base: self,
            target,
            switch,
            scratch: Cow::Borrowed(scratch),
            stats,
        }
    }

    /// Re-evaluates the cone of `target := switch` into `scratch`'s
    /// overlay rows: each changed gate's slot points to its row under
    /// the walk's generation. Once the overlay holds `recycle_from`
    /// words, a changed gate that drives no primary output gives its row
    /// back when its last reader has been re-evaluated: no later gate of
    /// the walk reads it.
    fn preview_cone(
        &self,
        target: GateId,
        switch: SignalRef,
        scratch: &mut PreviewScratch,
        recycle_from: usize,
    ) -> DeltaStats {
        if let SignalRef::Gate(s) = switch {
            assert!(
                s < target,
                "switch {s} must precede target {target} in id order"
            );
        }
        let wc = self.word_count;
        let generation = scratch.begin(self.netlist.gate_count());
        let PreviewScratch {
            pending,
            slot,
            outputs,
            rows,
            row,
            free,
            ..
        } = scratch;
        row.resize(wc, 0);
        let mut used = 0u32;
        let mut recycling = false;
        let stats = walk_cone(&self.fanouts, target, pending, generation, |id| {
            // A gate is evaluated into the next new overlay row, or into
            // `row` while recycled rows are free, and copied into one
            // of them if it changed.
            let fresh = free.is_empty();
            let at = used as usize * wc;
            if fresh && rows.len() < at + wc {
                rows.resize(at + wc, 0);
            }
            let (read, out): (&[u64], &mut [u64]) = if fresh {
                let (done, rest) = rows.split_at_mut(at);
                (done, &mut rest[..wc])
            } else {
                (rows, row)
            };
            eval_gate_row(
                self.netlist.gate(id).cell().func(),
                fanins_after(&self.netlist, id, target, switch),
                &self.patterns,
                |g| overlay_row(&self.values, read, slot, generation, wc, g),
                out,
            );
            if let Some(last) = out.last_mut() {
                *last &= self.tail_mask;
            }
            let changed = *out != *gate_row(&self.values, wc, id);
            if !recycling && at >= recycle_from {
                recycling = true;
                for driver in self.netlist.output_drivers() {
                    if let SignalRef::Gate(g) = driver {
                        outputs[g.index()] = generation;
                    }
                }
            }
            // Every reader of a changed gate is re-evaluated, so a
            // changed fan-in whose last reader is `id` is read no more,
            // unless it drives an output.
            let fanins = if recycling {
                self.netlist.gate(id).fanins()
            } else {
                &[]
            };
            for &fanin in fanins {
                let SignalRef::Gate(g) = fanin else {
                    continue;
                };
                let (stamp, r) = slot[g.index()];
                if stamp == generation
                    && r != RECYCLED
                    && outputs[g.index()] != generation
                    && self.fanouts.readers(g).last() == Some(&id)
                {
                    free.push(r);
                    slot[g.index()].1 = RECYCLED;
                }
            }
            if changed {
                let r = if fresh {
                    used = used.checked_add(1).expect("overlay fits u32");
                    used - 1
                } else {
                    let r = free.pop().expect("a recycled row is free");
                    rows[r as usize * wc..(r as usize + 1) * wc].copy_from_slice(row);
                    r
                };
                slot[id.index()] = (generation, r);
            }
            changed
        });
        let m = tdals_obs::metrics();
        m.delta_previews.incr();
        m.delta_cone_gates.record(stats.changed as u64);
        stats
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
        // The cone is re-evaluated in place: in ascending id order every
        // fan-in row a gate reads is already final, changed or not. The
        // fan-out rows still describe the netlist before the
        // substitution, which is what the walk follows.
        let rewritten = self.netlist.substitute(target, switch)?;
        let wc = self.word_count;
        let scratch = &mut self.commit_scratch;
        let generation = scratch.begin(self.netlist.gate_count());
        scratch.row.resize(wc, 0);
        let (values, row) = (&mut self.values, &mut scratch.row[..]);
        let stats = walk_cone(
            &self.fanouts,
            target,
            &mut scratch.pending,
            generation,
            |id| {
                eval_gate_row(
                    self.netlist.gate(id).cell().func(),
                    self.netlist.gate(id).fanins().iter().copied(),
                    &self.patterns,
                    |g| gate_row(values, wc, g),
                    row,
                );
                if let Some(last) = row.last_mut() {
                    *last &= self.tail_mask;
                }
                let stored = &mut values[id.index() * wc..(id.index() + 1) * wc];
                let changed = *row != *stored;
                if changed {
                    stored.copy_from_slice(row);
                }
                changed
            },
        );
        self.commit_stats.changed += stats.changed;
        self.commit_stats.damped += stats.damped;
        let m = tdals_obs::metrics();
        m.delta_commits.incr();
        m.delta_cone_gates.record(stats.changed as u64);
        // Every gate reader of `target` now reads `switch` instead. (PO
        // readers live in the netlist's output table.)
        self.netlist.fanouts_into(&mut self.fanouts);
        Ok(rewritten)
    }
}

/// Event-driven cone walk shared by previews and commits: visits the
/// fan-out of `target` in topological id order and hands `eval` each
/// reached gate. `eval` re-evaluates the gate and says whether its
/// words changed; only changed gates wake their readers, so a gate
/// whose words stay the same stops the wavefront. `pending` marks,
/// under `generation`, the gates already woken.
fn walk_cone(
    fanouts: &Fanouts,
    target: GateId,
    pending: &mut [u32],
    generation: u32,
    mut eval: impl FnMut(GateId) -> bool,
) -> DeltaStats {
    // Pending-flag scan instead of a priority queue: fan-outs always
    // have larger ids than their drivers, so one ascending pass over
    // the id space evaluates every affected gate after all of its
    // fan-ins have settled. Every pending gate lies in `lo..end`, so the
    // pass stops at the wavefront's last reader instead of scanning to
    // the end of the id space.
    let mut stats = DeltaStats::default();
    let (mut lo, mut end) = (pending.len(), 0);
    for &reader in fanouts.readers(target) {
        pending[reader.index()] = generation;
        lo = lo.min(reader.index());
        end = end.max(reader.index() + 1);
    }
    let mut i = lo;
    while i < end {
        if pending[i] == generation {
            let id = GateId::new(i);
            if eval(id) {
                stats.changed += 1;
                for &reader in fanouts.readers(id) {
                    pending[reader.index()] = generation;
                    end = end.max(reader.index() + 1);
                }
            } else {
                // Damped: downstream gates would recompute identical
                // words, so the wavefront stops here.
                stats.damped += 1;
            }
        }
        i += 1;
    }
    stats
}

/// Gate `id`'s fan-ins under the pending substitution `target :=
/// switch`: readers of `target` see `switch` instead.
fn fanins_after(
    netlist: &Netlist,
    id: GateId,
    target: GateId,
    switch: SignalRef,
) -> impl Iterator<Item = SignalRef> + '_ {
    netlist.gate(id).fanins().iter().map(move |&fanin| {
        if fanin == SignalRef::Gate(target) {
            switch
        } else {
            fanin
        }
    })
}

/// Row `g` of an overlay over gate-major `base` storage: overlay row
/// `r` of `rows` where `slot[g]` is `(generation, r)`, that is where
/// this walk's cone re-evaluation changed `g`, its base row otherwise.
#[inline]
fn overlay_row<'a>(
    base: &'a [u64],
    rows: &'a [u64],
    slot: &[(u32, u32)],
    generation: u32,
    word_count: usize,
    g: GateId,
) -> &'a [u64] {
    match slot[g.index()] {
        (stamp, r) if stamp == generation => {
            &rows[r as usize * word_count..(r as usize + 1) * word_count]
        }
        _ => gate_row(base, word_count, g),
    }
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
/// the substituted gate. A view from [`DeltaSim::preview_outputs_in`]
/// answers the output queries so, but not the rows it gave back.
#[derive(Debug)]
pub struct DeltaView<'a> {
    base: &'a DeltaSim,
    target: GateId,
    switch: SignalRef,
    /// Marks and overlay rows of the cone re-evaluation, owned or
    /// borrowed from the caller's scratch.
    scratch: Cow<'a, PreviewScratch>,
    stats: DeltaStats,
}

impl DeltaView<'_> {
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
        assert_ne!(
            self.scratch.slot[g.index()],
            (self.scratch.generation, RECYCLED),
            "the overlay row of {g} was recycled"
        );
        overlay_row(
            &self.base.values,
            &self.scratch.rows,
            &self.scratch.slot,
            self.scratch.generation,
            self.base.word_count,
            g,
        )
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

    /// One preview scratch serving recycling previews of two engines of
    /// different sizes, across a generation wrap and with overlay rows of
    /// stale words, gives the rows of a fresh preview every time.
    #[test]
    fn reused_preview_scratch_equals_a_fresh_one() {
        let (n, g1, g2) = chain();
        let p = Patterns::random(3, 130, 4);
        let small = DeltaSim::new(n.clone(), &p);
        let mut wide = n;
        let extra = wide
            .add_gate("g4", x1(CellFunc::Xor2), vec![g1.into(), g2.into()])
            .expect("gate");
        wide.add_output("y4", extra.into());
        let large = DeltaSim::new(wide, &p);
        let mut scratch = PreviewScratch {
            rows: vec![u64::MAX; 5],
            ..PreviewScratch::default()
        };
        for (round, engine) in [&small, &large, &small, &large].into_iter().enumerate() {
            if round == 2 {
                scratch.generation = u32::MAX - 1;
            }
            for (t, s) in [
                (g1, SignalRef::Const0),
                (g1, SignalRef::Const1),
                (g2, SignalRef::Gate(g1)),
                (g2, SignalRef::Const0),
            ] {
                let fresh = engine.preview(t, s);
                let fresh_rows: Vec<Vec<u64>> = (0..engine.netlist().gate_count())
                    .map(|g| fresh.gate_row(GateId::new(g)).to_vec())
                    .collect();
                let reused = engine.preview_recycling(t, s, &mut scratch, 0);
                assert_eq!(reused.stats(), fresh.stats(), "round {round}, {t} := {s:?}");
                for (g, row) in fresh_rows.iter().enumerate() {
                    if reused.scratch.slot[g] == (reused.scratch.generation, RECYCLED) {
                        continue;
                    }
                    assert_eq!(
                        reused.gate_row(GateId::new(g)),
                        &row[..],
                        "round {round}, {t} := {s:?}, gate {g}"
                    );
                }
            }
        }
    }

    /// `a, b → h0 = a ^ b → h1 = h0 ^ a → … → h19`, with outputs `h19`
    /// and `h9`: every gate changes when `h0` does, and each is read only
    /// by the next.
    fn xor_ladder() -> (Netlist, GateId) {
        let mut n = Netlist::new("ladder");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let h0 = n
            .add_gate("h0", x1(CellFunc::Xor2), vec![a.into(), b.into()])
            .expect("gate");
        let mut prev = h0;
        for i in 1..20 {
            prev = n
                .add_gate(
                    format!("h{i}"),
                    x1(CellFunc::Xor2),
                    vec![prev.into(), a.into()],
                )
                .expect("gate");
            if i == 9 {
                n.add_output("y9", prev.into());
            }
        }
        n.add_output("y19", prev.into());
        (n, h0)
    }

    /// A preview recycling rows from the first one on holds a few rows
    /// at a time of a cone of nineteen changed gates, not nineteen, and
    /// its outputs equal a full simulation of the mutant.
    #[test]
    fn output_preview_recycles_rows_the_outputs_do_not_read() {
        let (n, h0) = xor_ladder();
        let p = Patterns::random(2, 1000, 8);
        let delta = DeltaSim::new(n.clone(), &p);
        let mut mutated = n.clone();
        mutated.substitute(h0, SignalRef::Const1).expect("legal");
        let full = simulate(&mutated, &p);
        let mut scratch = PreviewScratch::default();
        let view = delta.preview_recycling(h0, SignalRef::Const1, &mut scratch, 0);
        assert_eq!(view.stats().changed, 19);
        for po in 0..n.output_count() {
            for w in 0..full.word_count() {
                assert_eq!(view.po_word(po, w), SimWords::po_word(&full, po, w));
            }
        }
        let wc = full.word_count();
        assert!(
            view.scratch.rows.len() <= 4 * wc,
            "{} rows held",
            view.scratch.rows.len() / wc
        );
        assert_eq!(
            delta.preview(h0, SignalRef::Const1).scratch.rows.len(),
            19 * wc
        );
    }

    /// Recycling previews of random substitutions on random netlists,
    /// in one scratch, keep every output word of a full simulation of
    /// the mutant.
    #[test]
    fn recycling_previews_keep_every_output_word() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let funcs = [
            CellFunc::Inv,
            CellFunc::And2,
            CellFunc::Or2,
            CellFunc::Xor2,
            CellFunc::Nand2,
        ];
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut n = Netlist::new("random");
            let mut pool: Vec<SignalRef> = (0..5)
                .map(|i| n.add_input(format!("x{i}")).into())
                .collect();
            for k in 0..60 {
                let func = funcs[rng.gen_range(0..funcs.len())];
                let fanins: Vec<SignalRef> = (0..func.arity())
                    .map(|_| pool[rng.gen_range(pool.len() - 5..pool.len())])
                    .collect();
                pool.push(
                    n.add_gate(format!("g{k}"), x1(func), fanins)
                        .expect("gate")
                        .into(),
                );
            }
            for o in 0..6 {
                n.add_output(format!("y{o}"), pool[pool.len() - 1 - 7 * o]);
            }
            let p = Patterns::random(5, 200, seed);
            let delta = DeltaSim::new(n.clone(), &p);
            let mut scratch = PreviewScratch::default();
            for _ in 0..8 {
                let target = GateId::new(rng.gen_range(5..n.gate_count()));
                let switch = match rng.gen_range(0..3) {
                    0 => SignalRef::Const0,
                    1 => SignalRef::Const1,
                    _ => SignalRef::Gate(GateId::new(rng.gen_range(0..target.index()))),
                };
                let mut mutated = n.clone();
                mutated.substitute(target, switch).expect("legal");
                let full = simulate(&mutated, &p);
                let view = delta.preview_recycling(target, switch, &mut scratch, 0);
                for po in 0..n.output_count() {
                    for w in 0..full.word_count() {
                        assert_eq!(
                            view.po_word(po, w),
                            SimWords::po_word(&full, po, w),
                            "seed {seed}, {target} := {switch:?}, po {po}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "was recycled")]
    fn a_recycled_row_is_not_read() {
        let (n, h0) = xor_ladder();
        let delta = DeltaSim::new(n.clone(), &Patterns::exhaustive(2));
        let mut scratch = PreviewScratch::default();
        let view = delta.preview_recycling(h0, SignalRef::Const1, &mut scratch, 0);
        let h1 = n.find_gate("h1").expect("h1");
        let _ = view.gate_row(h1);
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
