//! Event-driven incremental timing analysis.
//!
//! DCGWO runs one STA per candidate circuit; each candidate differs
//! from its parent by a single substitution, and each trial of gate
//! sizing by a single drive change, so almost all arrival times are
//! unchanged. [`IncrementalSta`] keeps the timing state of one netlist
//! and re-times only the affected fan-out cone of an edit, in place,
//! journaling the values it overwrites: a preview applies an edit,
//! reads the result and restores the journal, and a rejected sizing
//! trial is undone the same way.
//!
//! # Exactness
//!
//! The state after any sequence of edits equals [`analyze`] of the
//! edited netlist bit for bit, and a preview equals [`analyze`] of the
//! netlist it previews. Every load an edit changes is summed again
//! from the driver's fan-out row, reader pins in ascending reader order
//! and then one term per primary output it drives, which is the order
//! [`analyze`] sums them in; and an arrival stops the wavefront only
//! when it is bit-identical to the old one.
//!
//! # Cost
//!
//! An edit re-times gates in ascending id order, only those a changed
//! fan-in reaches. Once that wavefront covers a quarter of the id range
//! it has crossed, the engine stops tracking it and re-times every later
//! gate in one straight pass, which is the arrival pass of [`analyze`]
//! without its load pass or allocations. So no edit costs more than a
//! full analysis, however deep its cone.
//!
//! # Fan-out rows
//!
//! The engine keeps no fan-out rows of its own. Every incremental call
//! takes the rows ([`Netlist::fanouts`]) of the netlist it is handed,
//! so a scoring base lends its simulator's rows instead of keeping a
//! second copy, and a caller that only resizes gates counts them once.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::builder::Builder;
//! use tdals_netlist::SignalRef;
//! use tdals_sta::{analyze, IncrementalSta, TimingConfig};
//!
//! let mut b = Builder::new("t");
//! let a = b.input("a");
//! let g1 = b.not(a);
//! let g2 = b.not(g1);
//! let g3 = b.not(g2);
//! b.output("y", g3);
//! let mut n = b.finish();
//! let mut rows = n.fanouts();
//!
//! let cfg = TimingConfig::default();
//! let mut inc = IncrementalSta::new(&n, cfg);
//! // Substitute g2 with constant 0 through the engine...
//! inc.substitute(&mut n, &mut rows, g2.gate().expect("gate"), SignalRef::Const0)?;
//! // ...and the state equals a from-scratch analysis.
//! let full = analyze(&n, &cfg);
//! assert_eq!(inc.critical_path_delay(&n).to_bits(), full.critical_path_delay().to_bits());
//! # Ok::<(), tdals_netlist::NetlistError>(())
//! ```
//!
//! [`analyze`]: crate::analyze

use tdals_netlist::cell::Drive;
use tdals_netlist::{Fanouts, GateId, Netlist, NetlistError, SignalRef};

use crate::analysis::{
    critical_path_to_po, gate_timing, time_gates, worst_po, Arrivals, TimingConfig,
};

/// A wavefront that has re-timed at least this many gates, and at
/// least one in [`DENSE_SPAN`] of the ids it has crossed, is finished
/// by a straight pass.
const DENSE_MIN: usize = 64;
/// See [`DENSE_MIN`].
const DENSE_SPAN: usize = 4;

/// Timing summary of a previewed (uncommitted) edit: the post-edit PO
/// arrivals and depths, from which the fitness terms (`CPD`, `Depth`)
/// derive.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingDelta {
    /// How many gates the preview re-timed to new values (diagnostics).
    pub retimed: usize,
    /// Arrival time per primary output in ps.
    pub po_arrivals: Vec<f64>,
    /// Logic depth per primary output.
    pub po_depths: Vec<u32>,
}

impl TimingDelta {
    /// Critical path delay of the edited circuit (max PO arrival).
    pub fn critical_path_delay(&self) -> f64 {
        self.po_arrivals.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum logic depth over primary outputs.
    pub fn max_depth(&self) -> u32 {
        self.po_depths.iter().copied().max().unwrap_or(0)
    }
}

/// Incrementally-maintained timing state for one netlist.
///
/// The engine must observe every mutation: apply substitutions through
/// [`IncrementalSta::substitute`] (or [`IncrementalSta::substitute_timing`])
/// and drive changes through [`IncrementalSta::set_drive`]. Mutating the
/// netlist behind the engine's back leaves it stale (rebuild it in that
/// case).
#[derive(Debug, Clone)]
pub struct IncrementalSta {
    cfg: TimingConfig,
    arrival: Vec<f64>,
    depth: Vec<u32>,
    load: Vec<f64>,
    /// Per gate: how many primary outputs it drives.
    po_refs: Vec<u32>,
    /// Wavefront marks, reused across edits; their contents never
    /// affect a result.
    wave: Wave,
    /// What the last edit overwrote.
    journal: Journal,
}

/// A netlist edit the engine re-times.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Every reference to `target` reads `switch` instead; the netlist
    /// still holds the old references.
    Substitute { target: GateId, switch: SignalRef },
    /// `gate`'s drive has changed in the netlist.
    Resize { gate: GateId },
}

impl Edit {
    /// The signal a fan-in or PO reference `signal` reads after the edit.
    #[inline]
    fn reads(self, signal: SignalRef) -> SignalRef {
        match self {
            Edit::Substitute { target, switch } if signal == SignalRef::Gate(target) => switch,
            _ => signal,
        }
    }
}

/// Generation-stamped wavefront: a gate is pending in the current edit
/// when its entry equals `stamp`, so an edit clears nothing and, once
/// the marks have the netlist's size, allocates nothing. The seeded
/// gates lie in `lo..end`.
#[derive(Debug, Clone, Default)]
struct Wave {
    stamp: u32,
    pending: Vec<u32>,
    lo: usize,
    end: usize,
}

impl Wave {
    /// Starts a wavefront over a netlist of `n` gates.
    fn begin(&mut self, n: usize) {
        if self.stamp == u32::MAX {
            self.stamp = 0;
            self.pending.fill(0);
        }
        self.stamp += 1;
        self.pending.resize(n, 0);
        (self.lo, self.end) = (n, 0);
    }

    fn seed(&mut self, gate: GateId) {
        self.pending[gate.index()] = self.stamp;
        self.lo = self.lo.min(gate.index());
        self.end = self.end.max(gate.index() + 1);
    }
}

/// The values the last edit overwrote, so that it can be undone
/// exactly.
#[derive(Debug, Clone, Default)]
struct Journal {
    /// `(gate, old arrival, old depth)` of each gate the wavefront
    /// re-timed to new values.
    timed: Vec<(GateId, f64, u32)>,
    /// The first gate of the straight pass, if the edit ended in one:
    /// from it on, the old arrivals and depths are `rest_*`.
    rest: Option<usize>,
    rest_arrival: Vec<f64>,
    rest_depth: Vec<u32>,
    /// `(gate, old load)` of each load the edit changed.
    loads: Vec<(GateId, f64)>,
    /// `(gate, old count)` of each PO reference count the edit changed.
    po_refs: Vec<(GateId, u32)>,
    /// For a drive change, the gate and its old drive.
    drive: Option<(GateId, Drive)>,
}

impl Journal {
    fn clear(&mut self) {
        self.timed.clear();
        self.rest = None;
        self.loads.clear();
        self.po_refs.clear();
        self.drive = None;
    }
}

/// Two ascending reader rows merged into one ascending row.
fn merge<'a>(a: &'a [GateId], b: &'a [GateId]) -> impl Iterator<Item = GateId> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x <= y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_a {
            i += 1;
            Some(a[i - 1])
        } else {
            j += 1;
            Some(b[j - 1])
        }
    })
}

impl IncrementalSta {
    /// Builds the initial state with a full analysis pass.
    pub fn new(netlist: &Netlist, cfg: TimingConfig) -> IncrementalSta {
        let mut engine = IncrementalSta {
            cfg,
            arrival: Vec::new(),
            depth: Vec::new(),
            load: Vec::new(),
            po_refs: Vec::new(),
            wave: Wave::default(),
            journal: Journal::default(),
        };
        engine.rebuild(netlist);
        engine
    }

    /// Re-targets the engine at `netlist` with the same configuration:
    /// the state afterwards equals `IncrementalSta::new(netlist, cfg)`,
    /// computed by the pass [`analyze`](crate::analyze) runs into the
    /// existing arrays, so a netlist of the previous one's size costs no
    /// allocation.
    pub fn rebuild(&mut self, netlist: &Netlist) {
        time_gates(
            netlist,
            &self.cfg,
            &mut self.load,
            &mut self.arrival,
            &mut self.depth,
        );
        self.po_refs.clear();
        self.po_refs.resize(netlist.gate_count(), 0);
        for driver in netlist.output_drivers() {
            if let SignalRef::Gate(src) = driver {
                self.po_refs[src.index()] += 1;
            }
        }
        self.journal.clear();
    }

    /// A driver's load as [`analyze`](crate::analyze) sums it: the
    /// reader pin caps `caps`, in ascending reader order, each with its
    /// wire, then `po_refs` primary-output terms.
    fn summed_load(&self, caps: impl Iterator<Item = f64>, po_refs: u32) -> f64 {
        let mut load = 0.0;
        for cap in caps {
            load += cap + self.cfg.wire_cap_per_fanout;
        }
        for _ in 0..po_refs {
            load += self.cfg.po_load + self.cfg.wire_cap_per_fanout;
        }
        load
    }

    fn set_load(&mut self, gate: GateId, load: f64) {
        let old = std::mem::replace(&mut self.load[gate.index()], load);
        self.journal.loads.push((gate, old));
    }

    fn set_po_refs(&mut self, gate: GateId, count: u32) {
        let old = std::mem::replace(&mut self.po_refs[gate.index()], count);
        self.journal.po_refs.push((gate, old));
    }

    /// Re-times the cone of `edit` on `netlist` (whose rows are
    /// `fanouts`) in place, journaling what it overwrites: afterwards
    /// every load, arrival and depth equals what
    /// [`analyze`](crate::analyze) computes on the edited netlist.
    /// Returns how many gates it re-timed to new values.
    fn apply(&mut self, netlist: &Netlist, fanouts: &Fanouts, edit: Edit) -> usize {
        self.journal.clear();
        self.wave.begin(netlist.gate_count());
        match edit {
            Edit::Substitute { target, switch } => {
                // The target loses every reference, and the switch
                // gains them all: its new row is the merge of both.
                if let SignalRef::Gate(sw) = switch {
                    let caps = merge(fanouts.readers(sw), fanouts.readers(target))
                        .map(|r| netlist.gate(r).cell().input_cap());
                    let po_refs = self.po_refs[sw.index()] + self.po_refs[target.index()];
                    let load = self.summed_load(caps, po_refs);
                    self.set_load(sw, load);
                    self.set_po_refs(sw, po_refs);
                    self.wave.seed(sw);
                }
                self.set_load(target, 0.0);
                self.set_po_refs(target, 0);
                self.wave.seed(target);
                for &reader in fanouts.readers(target) {
                    self.wave.seed(reader);
                }
            }
            Edit::Resize { gate } => {
                self.wave.seed(gate);
                for fanin in netlist.gate(gate).fanins() {
                    let SignalRef::Gate(src) = fanin else {
                        continue;
                    };
                    if self.journal.loads.iter().any(|&(g, _)| g == src) {
                        continue; // read on several pins: one new load
                    }
                    let caps = fanouts
                        .readers(src)
                        .iter()
                        .map(|&r| netlist.gate(r).cell().input_cap());
                    let load = self.summed_load(caps, self.po_refs[src.index()]);
                    self.set_load(src, load);
                    self.wave.seed(src);
                }
            }
        }
        // One monomorphic wavefront per edit kind: a drive change reads
        // every reference as it is.
        match edit {
            Edit::Resize { .. } => self.wavefront(netlist, fanouts, |signal| signal),
            Edit::Substitute { .. } => {
                self.wavefront(netlist, fanouts, |signal| edit.reads(signal))
            }
        }
    }

    /// Propagates new timing from the seeded gates through their fan-out
    /// cones, with every fan-in reference read through `reads`; returns
    /// how many gates changed.
    fn wavefront(
        &mut self,
        netlist: &Netlist,
        fanouts: &Fanouts,
        reads: impl Fn(SignalRef) -> SignalRef + Copy,
    ) -> usize {
        let Wave {
            stamp, lo, mut end, ..
        } = self.wave;
        // Pending-flag scan instead of a priority queue: fan-outs
        // always have larger ids than their drivers, so one ascending
        // pass over the id space re-times every affected gate after all
        // of its fan-ins have settled. Every pending gate lies in
        // `lo..end`, so the pass stops at the wavefront's last reader
        // instead of scanning to the end of the id space.
        let mut visited = 0usize;
        let mut i = lo;
        while i < end {
            if self.wave.pending[i] != stamp {
                i += 1;
                continue;
            }
            visited += 1;
            if visited >= DENSE_MIN && visited * DENSE_SPAN > i - lo {
                return self.journal.timed.len() + self.straight_pass(netlist, i, reads);
            }
            let id = GateId::new(i);
            let gate = netlist.gate(id);
            if !gate.is_input() {
                let (arrival, depth) =
                    gate_timing(gate, self.load[i], &self.arrival, &self.depth, reads);
                // Settle on bit equality only: a wavefront stopped by an
                // ulp-sized change would leave the state off `analyze`.
                let (old_arrival, old_depth) = (self.arrival[i], self.depth[i]);
                if arrival.to_bits() != old_arrival.to_bits() || depth != old_depth {
                    self.journal.timed.push((id, old_arrival, old_depth));
                    self.arrival[i] = arrival;
                    self.depth[i] = depth;
                    for &reader in fanouts.readers(id) {
                        self.wave.pending[reader.index()] = stamp;
                        end = end.max(reader.index() + 1);
                    }
                }
            }
            i += 1;
        }
        self.journal.timed.len()
    }

    /// Re-times every gate from `first` on in one straight pass (the
    /// arrival pass of [`analyze`](crate::analyze), with fan-in
    /// references read through `reads`), after saving their old values
    /// in the journal; returns how many changed.
    fn straight_pass(
        &mut self,
        netlist: &Netlist,
        first: usize,
        reads: impl Fn(SignalRef) -> SignalRef,
    ) -> usize {
        let journal = &mut self.journal;
        journal.rest = Some(first);
        journal.rest_arrival.clear();
        journal
            .rest_arrival
            .extend_from_slice(&self.arrival[first..]);
        journal.rest_depth.clear();
        journal.rest_depth.extend_from_slice(&self.depth[first..]);
        let mut changed = 0;
        for (id, gate) in netlist.iter().skip(first) {
            if gate.is_input() {
                continue;
            }
            let i = id.index();
            let (arrival, depth) =
                gate_timing(gate, self.load[i], &self.arrival, &self.depth, &reads);
            changed += usize::from(
                arrival.to_bits() != self.arrival[i].to_bits() || depth != self.depth[i],
            );
            self.arrival[i] = arrival;
            self.depth[i] = depth;
        }
        changed
    }

    /// Restores everything the last edit overwrote, bit for bit.
    fn revert(&mut self) {
        let journal = &mut self.journal;
        if let Some(first) = journal.rest.take() {
            self.arrival[first..].copy_from_slice(&journal.rest_arrival);
            self.depth[first..].copy_from_slice(&journal.rest_depth);
        }
        for &(g, arrival, depth) in &journal.timed {
            self.arrival[g.index()] = arrival;
            self.depth[g.index()] = depth;
        }
        for &(g, load) in &journal.loads {
            self.load[g.index()] = load;
        }
        for &(g, count) in &journal.po_refs {
            self.po_refs[g.index()] = count;
        }
        journal.clear();
    }

    /// Applies a wire substitution through the engine: mutates the
    /// netlist exactly like [`Netlist::substitute`], rebuilds its rows
    /// `fanouts` (which must describe it on entry) and re-times the
    /// affected cone.
    ///
    /// Returns the number of rewritten references.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] under the same conditions as
    /// [`Netlist::substitute`]; the netlist, rows and timing state are
    /// untouched on error.
    pub fn substitute(
        &mut self,
        netlist: &mut Netlist,
        fanouts: &mut Fanouts,
        target: GateId,
        switch: SignalRef,
    ) -> Result<usize, NetlistError> {
        self.substitute_timing(netlist, fanouts, target, switch)?;
        let rewritten = netlist.substitute(target, switch)?;
        netlist.fanouts_into(fanouts);
        Ok(rewritten)
    }

    /// The timing half of [`IncrementalSta::substitute`]: advances the
    /// state to `netlist` with `target := switch` applied, but leaves
    /// `netlist` and its rows `fanouts` as they are, for a caller that
    /// owns them elsewhere and applies the same substitution to both
    /// next (a scoring base's simulator does).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] if `switch` is a gate with
    /// id ≥ `target`; the state is untouched in that case.
    pub fn substitute_timing(
        &mut self,
        netlist: &Netlist,
        fanouts: &Fanouts,
        target: GateId,
        switch: SignalRef,
    ) -> Result<(), NetlistError> {
        if let SignalRef::Gate(s) = switch {
            if s >= target {
                return Err(NetlistError::FaninOrder {
                    gate: target,
                    fanin: s,
                });
            }
        }
        self.apply(netlist, fanouts, Edit::Substitute { target, switch });
        Ok(())
    }

    /// Scores the substitution `target := switch` **without committing
    /// it**: re-times the affected cone in place, reads the mutated
    /// circuit's timing summary, which equals
    /// [`analyze`](crate::analyze) of the mutated netlist, and restores
    /// the state bit for bit. The netlist is not touched.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is a gate with id ≥ `target` (which would
    /// break the topological id invariant).
    pub fn preview_substitute(
        &mut self,
        netlist: &Netlist,
        fanouts: &Fanouts,
        target: GateId,
        switch: SignalRef,
    ) -> TimingDelta {
        if let SignalRef::Gate(s) = switch {
            assert!(
                s < target,
                "switch {s} must precede target {target} in id order"
            );
        }
        let edit = Edit::Substitute { target, switch };
        let retimed = self.apply(netlist, fanouts, edit);
        let mut po_arrivals = Vec::with_capacity(netlist.output_count());
        let mut po_depths = Vec::with_capacity(netlist.output_count());
        for driver in netlist.output_drivers() {
            match edit.reads(driver) {
                SignalRef::Gate(src) => {
                    po_arrivals.push(self.arrival[src.index()]);
                    po_depths.push(self.depth[src.index()]);
                }
                _ => {
                    po_arrivals.push(0.0);
                    po_depths.push(0);
                }
            }
        }
        self.revert();
        TimingDelta {
            retimed,
            po_arrivals,
            po_depths,
        }
    }

    /// Changes a gate's drive strength through the engine, repairing the
    /// loads its input pins present and all affected arrivals.
    /// `fanouts` are the netlist's rows (a drive change keeps them).
    /// [`IncrementalSta::undo_drive`] takes the change back.
    ///
    /// # Panics
    ///
    /// Panics if `gate` names a primary input.
    pub fn set_drive(
        &mut self,
        netlist: &mut Netlist,
        fanouts: &Fanouts,
        gate: GateId,
        drive: Drive,
    ) {
        let old = netlist.gate(gate).cell().drive();
        netlist.set_drive(gate, drive);
        self.apply(netlist, fanouts, Edit::Resize { gate });
        self.journal.drive = Some((gate, old));
    }

    /// Takes back the drive change of the last
    /// [`IncrementalSta::set_drive`]: the gate's old drive returns to
    /// `netlist`, and every load, arrival and depth the change
    /// overwrote to its old value, bit for bit. The cost is that of
    /// copying those values back.
    ///
    /// # Panics
    ///
    /// Panics if the engine's last edit was not a drive change.
    pub fn undo_drive(&mut self, netlist: &mut Netlist) {
        let (gate, old) = self
            .journal
            .drive
            .expect("the last edit must be a drive change");
        netlist.set_drive(gate, old);
        self.revert();
    }

    /// Snapshot of the engine's state as a
    /// [`TimingReport`](crate::TimingReport) (O(gates) copies of the
    /// arrival/depth/load arrays).
    pub fn to_report(&self, netlist: &Netlist) -> crate::analysis::TimingReport {
        let mut po_arrival = Vec::with_capacity(netlist.output_count());
        let mut po_depth = Vec::with_capacity(netlist.output_count());
        for driver in netlist.output_drivers() {
            match driver {
                SignalRef::Gate(src) => {
                    po_arrival.push(self.arrival[src.index()]);
                    po_depth.push(self.depth[src.index()]);
                }
                _ => {
                    po_arrival.push(0.0);
                    po_depth.push(0);
                }
            }
        }
        crate::analysis::TimingReport::from_parts(
            self.arrival.clone(),
            self.depth.clone(),
            self.load.clone(),
            po_arrival,
            po_depth,
        )
    }

    /// Output arrival time of a gate in ps.
    pub fn arrival(&self, id: GateId) -> f64 {
        self.arrival[id.index()]
    }

    /// Logic depth of a gate.
    pub fn depth(&self, id: GateId) -> u32 {
        self.depth[id.index()]
    }

    /// Load seen by a gate's output in fF.
    pub fn load(&self, id: GateId) -> f64 {
        self.load[id.index()]
    }

    /// Arrival time of every primary output of `netlist` in ps (0 for a
    /// constant output).
    fn po_arrivals<'a>(&'a self, netlist: &'a Netlist) -> impl Iterator<Item = f64> + 'a {
        netlist.output_drivers().map(|driver| match driver {
            SignalRef::Gate(src) => self.arrival[src.index()],
            _ => 0.0,
        })
    }

    /// Critical path delay over the netlist's primary outputs.
    pub fn critical_path_delay(&self, netlist: &Netlist) -> f64 {
        self.po_arrivals(netlist).fold(0.0, f64::max)
    }

    /// Maximum logic depth over the netlist's primary outputs (0 for a
    /// constant output), as [`TimingReport::max_depth`](crate::TimingReport::max_depth).
    pub fn max_depth(&self, netlist: &Netlist) -> u32 {
        netlist
            .output_drivers()
            .map(|driver| match driver {
                SignalRef::Gate(src) => self.depth[src.index()],
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Gates on the global critical path, as
    /// [`critical_path`](crate::critical_path) extracts it from a
    /// [`TimingReport`](crate::TimingReport) of the same netlist.
    pub fn critical_path(&self, netlist: &Netlist) -> Vec<GateId> {
        critical_path_to_po(netlist, self, worst_po(self.po_arrivals(netlist)))
    }
}

impl Arrivals for IncrementalSta {
    fn arrival(&self, id: GateId) -> f64 {
        self.arrival[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tdals_netlist::builder::Builder;

    fn random_dag(seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Builder::new("dag");
        let mut pool: Vec<SignalRef> = (0..5).map(|i| b.input(format!("x{i}"))).collect();
        for _ in 0..60 {
            let i = rng.gen_range(0..pool.len());
            let j = rng.gen_range(0..pool.len());
            let g = match rng.gen_range(0..4) {
                0 => b.raw_gate(tdals_netlist::cell::CellFunc::Nand2, &[pool[i], pool[j]]),
                1 => b.raw_gate(tdals_netlist::cell::CellFunc::Xor2, &[pool[i], pool[j]]),
                2 => b.raw_gate(tdals_netlist::cell::CellFunc::Nor2, &[pool[i], pool[j]]),
                _ => b.raw_gate(tdals_netlist::cell::CellFunc::Inv, &[pool[i]]),
            };
            pool.push(g);
        }
        let len = pool.len();
        for (k, &s) in pool[len - 6..].iter().enumerate() {
            b.output(format!("y{k}"), s);
        }
        b.finish()
    }

    /// A random legal LAC: a gate target, switched to a gate of its
    /// transitive fan-in or to `constant`.
    fn random_lac(n: &Netlist, rng: &mut StdRng, constant: SignalRef) -> (GateId, SignalRef) {
        let logic: Vec<GateId> = n
            .iter()
            .filter(|(_, g)| !g.is_input())
            .map(|(id, _)| id)
            .collect();
        let target = logic[rng.gen_range(0..logic.len())];
        let tfi = n.tfi_mask(target);
        let mut candidates: Vec<SignalRef> = tfi
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| SignalRef::Gate(GateId::new(i)))
            .collect();
        candidates.push(constant);
        (target, candidates[rng.gen_range(0..candidates.len())])
    }

    fn assert_matches_full(netlist: &Netlist, inc: &IncrementalSta, cfg: &TimingConfig) {
        let full = analyze(netlist, cfg);
        for (id, _) in netlist.iter() {
            assert_eq!(
                inc.arrival(id).to_bits(),
                full.arrival(id).to_bits(),
                "arrival mismatch at {id}: {} vs {}",
                inc.arrival(id),
                full.arrival(id)
            );
            assert_eq!(inc.depth(id), full.depth(id), "depth mismatch at {id}");
            assert_eq!(
                inc.load(id).to_bits(),
                full.load(id).to_bits(),
                "load mismatch at {id}"
            );
        }
    }

    #[test]
    fn fresh_engine_matches_full_analysis() {
        let cfg = TimingConfig::default();
        for seed in 0..5 {
            let n = random_dag(seed);
            let inc = IncrementalSta::new(&n, cfg);
            assert_matches_full(&n, &inc, &cfg);
        }
    }

    #[test]
    fn substitutions_keep_engine_in_sync() {
        let cfg = TimingConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        for seed in 0..5 {
            let mut n = random_dag(seed);
            let mut rows = n.fanouts();
            let mut inc = IncrementalSta::new(&n, cfg);
            for _ in 0..8 {
                let (target, switch) = random_lac(&n, &mut rng, SignalRef::Const0);
                inc.substitute(&mut n, &mut rows, target, switch)
                    .expect("legal LAC");
                assert_eq!(rows, n.fanouts());
                assert_matches_full(&n, &inc, &cfg);
            }
        }
    }

    #[test]
    fn preview_matches_full_analysis_of_mutated_netlist() {
        let cfg = TimingConfig::default();
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..5 {
            let n = random_dag(seed);
            let rows = n.fanouts();
            let mut inc = IncrementalSta::new(&n, cfg);
            for _ in 0..8 {
                let (target, switch) = random_lac(&n, &mut rng, SignalRef::Const1);
                let delta = inc.preview_substitute(&n, &rows, target, switch);
                let mut mutated = n.clone();
                mutated.substitute(target, switch).expect("legal LAC");
                let full = analyze(&mutated, &cfg);
                assert_eq!(delta.max_depth(), full.max_depth());
                assert_eq!(
                    delta.critical_path_delay().to_bits(),
                    full.critical_path_delay().to_bits()
                );
                for po in 0..mutated.output_count() {
                    assert_eq!(
                        delta.po_arrivals[po].to_bits(),
                        full.po_arrival(po).to_bits(),
                        "po {po} arrival"
                    );
                    assert_eq!(delta.po_depths[po], full.po_depth(po), "po {po} depth");
                }
            }
            // Previews leave the state as it was.
            assert_matches_full(&n, &inc, &cfg);
        }
    }

    #[test]
    fn to_report_matches_full_analysis() {
        let cfg = TimingConfig::default();
        let n = random_dag(2);
        let inc = IncrementalSta::new(&n, cfg);
        let snap = inc.to_report(&n);
        let full = analyze(&n, &cfg);
        assert_eq!(snap.max_depth(), full.max_depth());
        assert_eq!(
            snap.critical_path_delay().to_bits(),
            full.critical_path_delay().to_bits()
        );
        for (id, _) in n.iter() {
            assert_eq!(snap.arrival(id).to_bits(), full.arrival(id).to_bits());
            assert_eq!(snap.depth(id), full.depth(id));
        }
        for po in 0..n.output_count() {
            assert_eq!(snap.po_arrival(po).to_bits(), full.po_arrival(po).to_bits());
        }
    }

    #[test]
    fn rebuild_equals_a_fresh_engine() {
        let cfg = TimingConfig::default();
        let mut inc = IncrementalSta::new(&random_dag(4), cfg);
        for seed in [5, 6] {
            let n = random_dag(seed);
            inc.rebuild(&n);
            let fresh = IncrementalSta::new(&n, cfg);
            for (id, _) in n.iter() {
                assert_eq!(inc.arrival(id).to_bits(), fresh.arrival(id).to_bits());
                assert_eq!(inc.depth(id), fresh.depth(id));
                assert_eq!(inc.load(id).to_bits(), fresh.load(id).to_bits());
            }
            assert_eq!(inc.po_refs, fresh.po_refs);
        }
    }

    #[test]
    fn drive_changes_keep_engine_in_sync() {
        let cfg = TimingConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = random_dag(3);
        let rows = n.fanouts();
        let mut inc = IncrementalSta::new(&n, cfg);
        let logic: Vec<GateId> = n
            .iter()
            .filter(|(_, g)| !g.is_input())
            .map(|(id, _)| id)
            .collect();
        for _ in 0..10 {
            let gate = logic[rng.gen_range(0..logic.len())];
            let drive =
                [Drive::X0, Drive::X1, Drive::X2, Drive::X4, Drive::X8][rng.gen_range(0..5)];
            // A drive change and its undo both land on full STA.
            let before = n.clone();
            inc.set_drive(&mut n, &rows, gate, drive);
            assert_matches_full(&n, &inc, &cfg);
            inc.undo_drive(&mut n);
            assert_eq!(n, before);
            assert_matches_full(&n, &inc, &cfg);
            inc.set_drive(&mut n, &rows, gate, drive);
            assert_matches_full(&n, &inc, &cfg);
        }
    }

    /// A wavefront that covers most of the netlist ends in the straight
    /// pass; its state and its undo are exact too.
    #[test]
    fn dense_wavefronts_stay_exact() {
        let cfg = TimingConfig::default();
        let mut b = Builder::new("chain");
        let a = b.input("a");
        let mut prev = a;
        for _ in 0..4 * DENSE_MIN {
            prev = b.raw_gate(tdals_netlist::cell::CellFunc::Nand2, &[prev, a]);
        }
        b.output("y", prev);
        let mut n = b.finish();
        let rows = n.fanouts();
        let mut inc = IncrementalSta::new(&n, cfg);
        let first = prev.gate().expect("gate").index() - 4 * DENSE_MIN + 1;
        let gate = GateId::new(first);
        inc.set_drive(&mut n, &rows, gate, Drive::X4);
        assert!(inc.journal.rest.is_some(), "a chain is one dense wavefront");
        assert_matches_full(&n, &inc, &cfg);
        inc.undo_drive(&mut n);
        assert_matches_full(&n, &inc, &cfg);
    }

    #[test]
    #[should_panic(expected = "drive change")]
    fn undo_needs_a_drive_change() {
        let mut n = random_dag(2);
        let mut rows = n.fanouts();
        let mut inc = IncrementalSta::new(&n, TimingConfig::default());
        let target = n.output_driver(0).gate().expect("gate");
        inc.substitute(&mut n, &mut rows, target, SignalRef::Const0)
            .expect("legal LAC");
        inc.undo_drive(&mut n);
    }

    #[test]
    fn critical_path_matches_the_report_walk() {
        let cfg = TimingConfig::default();
        for seed in 0..5 {
            let n = random_dag(seed);
            let inc = IncrementalSta::new(&n, cfg);
            let report = analyze(&n, &cfg);
            assert_eq!(inc.critical_path(&n), crate::critical_path(&n, &report));
        }
    }

    #[test]
    fn substitute_error_leaves_state_untouched() {
        let cfg = TimingConfig::default();
        let mut n = random_dag(1);
        let mut rows = n.fanouts();
        let mut inc = IncrementalSta::new(&n, cfg);
        // Illegal: switch downstream of target.
        let target = GateId::new(6);
        let downstream = GateId::new(n.gate_count() - 1);
        let err = inc.substitute(&mut n, &mut rows, target, downstream.into());
        assert!(err.is_err());
        assert_eq!(rows, n.fanouts());
        assert_matches_full(&n, &inc, &cfg);
    }
}
