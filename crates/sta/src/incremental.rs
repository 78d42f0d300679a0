//! Event-driven incremental timing analysis.
//!
//! DCGWO runs one STA per candidate circuit; each candidate differs
//! from its parent by a single substitution, so almost all arrival
//! times are unchanged. [`IncrementalSta`] keeps the timing state of
//! one netlist and updates it in place when a substitution is applied,
//! re-propagating arrivals only through the affected fan-out cones —
//! the classic PrimeTime-style incremental update.
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
//!
//! let cfg = TimingConfig::default();
//! let mut inc = IncrementalSta::new(&n, cfg);
//! // Substitute g2 with constant 0 through the engine...
//! inc.substitute(&mut n, g2.gate().expect("gate"), SignalRef::Const0)?;
//! // ...and the state matches a from-scratch analysis.
//! let full = analyze(&n, &cfg);
//! assert!((inc.critical_path_delay(&n) - full.critical_path_delay()).abs() < 1e-9);
//! # Ok::<(), tdals_netlist::NetlistError>(())
//! ```

use std::collections::BinaryHeap;

use tdals_netlist::{Fanouts, GateId, Netlist, NetlistError, SignalRef};

use crate::analysis::TimingConfig;

/// Timing summary of a previewed (uncommitted) substitution: the
/// post-mutation PO arrivals and depths, from which the fitness terms
/// (`CPD`, `Depth`) derive.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingDelta {
    /// How many gates the preview re-timed (diagnostics).
    pub retimed: usize,
    /// Arrival time per primary output in ps.
    pub po_arrivals: Vec<f64>,
    /// Logic depth per primary output.
    pub po_depths: Vec<u32>,
}

impl TimingDelta {
    /// Critical path delay of the mutated circuit (max PO arrival).
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
/// [`IncrementalSta::substitute`] and drive changes through
/// [`IncrementalSta::set_drive`]. Mutating the netlist behind the
/// engine's back leaves it stale (re-create it in that case).
#[derive(Debug, Clone)]
pub struct IncrementalSta {
    cfg: TimingConfig,
    arrival: Vec<f64>,
    depth: Vec<u32>,
    load: Vec<f64>,
    /// Gate fan-out rows of the current netlist (reader gates only; PO
    /// loads are part of `load` directly), rebuilt on every commit.
    fanouts: Fanouts,
    /// Scratch: dirty flags for the propagation queue.
    queued: Vec<bool>,
}

impl IncrementalSta {
    /// Builds the initial state with a full analysis pass.
    pub fn new(netlist: &Netlist, cfg: TimingConfig) -> IncrementalSta {
        let mut engine = IncrementalSta {
            cfg,
            arrival: Vec::new(),
            depth: Vec::new(),
            load: Vec::new(),
            fanouts: netlist.fanouts(),
            queued: Vec::new(),
        };
        engine.full_pass(netlist);
        engine
    }

    /// Re-targets the engine at `netlist` with the same configuration:
    /// the state afterwards equals `IncrementalSta::new(netlist, cfg)`,
    /// computed into the existing arrays and fan-out rows, so a netlist
    /// of the previous one's size costs no allocation.
    pub fn rebuild(&mut self, netlist: &Netlist) {
        netlist.fanouts_into(&mut self.fanouts);
        self.full_pass(netlist);
    }

    /// Loads, arrivals and depths of every gate from scratch, into the
    /// engine's arrays resized to the netlist.
    fn full_pass(&mut self, netlist: &Netlist) {
        let n = netlist.gate_count();
        let cfg = self.cfg;
        for values in [&mut self.arrival, &mut self.load] {
            values.clear();
            values.resize(n, 0.0);
        }
        self.depth.clear();
        self.depth.resize(n, 0);
        self.queued.clear();
        self.queued.resize(n, false);
        for (_, gate) in netlist.iter() {
            let cap = gate.cell().input_cap();
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    self.load[src.index()] += cap + cfg.wire_cap_per_fanout;
                }
            }
        }
        for driver in netlist.output_drivers() {
            if let SignalRef::Gate(src) = driver {
                self.load[src.index()] += cfg.po_load + cfg.wire_cap_per_fanout;
            }
        }
        for (id, gate) in netlist.iter() {
            if !gate.is_input() {
                self.refresh_gate(netlist, id);
            }
        }
    }

    fn refresh_gate(&mut self, netlist: &Netlist, id: GateId) -> bool {
        let gate = netlist.gate(id);
        let mut worst_arrival = 0.0f64;
        let mut worst_depth = 0u32;
        for fanin in gate.fanins() {
            if let SignalRef::Gate(src) = fanin {
                worst_arrival = worst_arrival.max(self.arrival[src.index()]);
                worst_depth = worst_depth.max(self.depth[src.index()]);
            }
        }
        let arrival = worst_arrival + gate.cell().delay(self.load[id.index()]);
        let depth = worst_depth + 1;
        let changed =
            (arrival - self.arrival[id.index()]).abs() > 1e-12 || depth != self.depth[id.index()];
        self.arrival[id.index()] = arrival;
        self.depth[id.index()] = depth;
        changed
    }

    /// Re-propagates arrivals from the given seed gates through their
    /// fan-out cones, stopping wherever values settle.
    fn propagate(&mut self, netlist: &Netlist, seeds: impl IntoIterator<Item = GateId>) {
        // Min-heap on gate id: ids are topological, so processing in id
        // order visits every gate at most once per call.
        let mut heap: BinaryHeap<std::cmp::Reverse<GateId>> = BinaryHeap::new();
        for seed in seeds {
            if !self.queued[seed.index()] {
                self.queued[seed.index()] = true;
                heap.push(std::cmp::Reverse(seed));
            }
        }
        while let Some(std::cmp::Reverse(id)) = heap.pop() {
            self.queued[id.index()] = false;
            if netlist.gate(id).is_input() {
                continue;
            }
            if self.refresh_gate(netlist, id) {
                for &reader in self.fanouts.readers(id) {
                    if !self.queued[reader.index()] {
                        self.queued[reader.index()] = true;
                        heap.push(std::cmp::Reverse(reader));
                    }
                }
            }
        }
    }

    /// Applies a wire substitution through the engine: mutates the
    /// netlist exactly like [`Netlist::substitute`] and repairs loads,
    /// fan-out rows, and all affected arrivals.
    ///
    /// Returns the number of rewritten references.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] under the same conditions as
    /// [`Netlist::substitute`]; the timing state is untouched on error.
    pub fn substitute(
        &mut self,
        netlist: &mut Netlist,
        target: GateId,
        switch: SignalRef,
    ) -> Result<usize, NetlistError> {
        // Collect the readers (gates and their pin caps) before mutating.
        let old = SignalRef::Gate(target);
        let readers: Vec<GateId> = self.fanouts.readers(target).to_vec();
        let po_reader_count = netlist.output_drivers().filter(|&d| d == old).count();
        let rewritten = netlist.substitute(target, switch)?;
        netlist.fanouts_into(&mut self.fanouts);

        // Load transfer: every reader pin (plus PO loads) moves from the
        // target to the switch gate.
        let mut moved_cap = 0.0;
        for &reader in &readers {
            moved_cap += netlist.gate(reader).cell().input_cap() + self.cfg.wire_cap_per_fanout;
        }
        moved_cap += po_reader_count as f64 * (self.cfg.po_load + self.cfg.wire_cap_per_fanout);
        self.load[target.index()] -= moved_cap;

        let mut seeds: Vec<GateId> = Vec::with_capacity(readers.len() + 2);
        if let SignalRef::Gate(sw) = switch {
            self.load[sw.index()] += moved_cap;
            seeds.push(sw); // its own delay changed with the new load
        }
        // The target's delay changed too (it lost load); it is dangling
        // but keeps consistent timing data.
        seeds.push(target);
        seeds.extend(readers);
        self.propagate(netlist, seeds);
        Ok(rewritten)
    }

    /// Changes a gate's drive strength through the engine, repairing the
    /// loads its input pins present and all affected arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `gate` names a primary input.
    pub fn set_drive(
        &mut self,
        netlist: &mut Netlist,
        gate: GateId,
        drive: tdals_netlist::cell::Drive,
    ) {
        let old_cap = netlist.gate(gate).cell().input_cap();
        netlist.set_drive(gate, drive);
        let new_cap = netlist.gate(gate).cell().input_cap();
        let delta = new_cap - old_cap;
        let mut seeds: Vec<GateId> = vec![gate];
        for fanin in netlist.gate(gate).fanins() {
            if let SignalRef::Gate(src) = fanin {
                self.load[src.index()] += delta;
                seeds.push(*src);
            }
        }
        self.propagate(netlist, seeds);
    }

    /// Scores the substitution `target := switch` **without committing
    /// it**: re-propagates arrivals and depths through the affected
    /// cone into a scratch overlay and returns the mutated circuit's
    /// timing summary. The engine and netlist are unchanged.
    ///
    /// The result matches a from-scratch [`analyze`](crate::analyze) of
    /// the mutated netlist (same event-driven settle rules as
    /// [`IncrementalSta::substitute`]).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is a gate with id ≥ `target` (which would
    /// break the topological id invariant).
    pub fn preview_substitute(
        &self,
        netlist: &Netlist,
        target: GateId,
        switch: SignalRef,
    ) -> TimingDelta {
        if let SignalRef::Gate(s) = switch {
            assert!(
                s < target,
                "switch {s} must precede target {target} in id order"
            );
        }
        let readers = self.fanouts.readers(target);
        let po_reader_count = netlist
            .output_drivers()
            .filter(|&d| d == SignalRef::Gate(target))
            .count();
        let mut moved_cap = 0.0;
        for &reader in readers {
            moved_cap += netlist.gate(reader).cell().input_cap() + self.cfg.wire_cap_per_fanout;
        }
        moved_cap += po_reader_count as f64 * (self.cfg.po_load + self.cfg.wire_cap_per_fanout);

        // Flat overlay of (arrival, depth) for re-timed gates; the
        // target is left untouched (it dangles after the substitution
        // and defines no PO summary).
        let n = netlist.gate_count();
        let mut in_ovl = vec![false; n];
        let mut ovl_arrival = vec![0.0f64; n];
        let mut ovl_depth = vec![0u32; n];
        let mut retimed = 0usize;
        // Pending-flag scan instead of a priority queue: fan-outs
        // always have larger ids than their drivers, so one ascending
        // pass over the id space visits every affected gate after all
        // of its fan-ins have settled. Every pending gate lies in
        // `lo..end`, so the pass stops at the wavefront's last reader
        // instead of scanning to the end of the id space.
        let mut pending = vec![false; n];
        let (mut lo, mut end) = (n, 0);
        // The switch gate's own delay changes with its increased load.
        let seeds = switch.gate().into_iter().chain(readers.iter().copied());
        for g in seeds {
            pending[g.index()] = true;
            lo = lo.min(g.index());
            end = end.max(g.index() + 1);
        }

        for i in lo..n {
            if i == end {
                break;
            }
            if !pending[i] {
                continue;
            }
            let id = GateId::new(i);
            let gate = netlist.gate(id);
            if gate.is_input() {
                continue;
            }
            let mut worst_arrival = 0.0f64;
            let mut worst_depth = 0u32;
            for fanin in gate.fanins() {
                // Pending substitution: readers of `target` see `switch`.
                let src = if *fanin == SignalRef::Gate(target) {
                    switch
                } else {
                    *fanin
                };
                if let SignalRef::Gate(src) = src {
                    let i = src.index();
                    let (a, d) = if in_ovl[i] {
                        (ovl_arrival[i], ovl_depth[i])
                    } else {
                        (self.arrival[i], self.depth[i])
                    };
                    worst_arrival = worst_arrival.max(a);
                    worst_depth = worst_depth.max(d);
                }
            }
            let mut load = self.load[id.index()];
            if SignalRef::Gate(id) == switch {
                load += moved_cap;
            }
            let arrival = worst_arrival + gate.cell().delay(load);
            let depth = worst_depth + 1;
            let changed = (arrival - self.arrival[id.index()]).abs() > 1e-12
                || depth != self.depth[id.index()];
            if changed {
                in_ovl[i] = true;
                ovl_arrival[i] = arrival;
                ovl_depth[i] = depth;
                retimed += 1;
                for &reader in self.fanouts.readers(id) {
                    pending[reader.index()] = true;
                    end = end.max(reader.index() + 1);
                }
            }
        }

        let mut po_arrivals = Vec::with_capacity(netlist.output_count());
        let mut po_depths = Vec::with_capacity(netlist.output_count());
        for driver in netlist.output_drivers() {
            let driver = if driver == SignalRef::Gate(target) {
                switch
            } else {
                driver
            };
            match driver {
                SignalRef::Gate(src) => {
                    let i = src.index();
                    if in_ovl[i] {
                        po_arrivals.push(ovl_arrival[i]);
                        po_depths.push(ovl_depth[i]);
                    } else {
                        po_arrivals.push(self.arrival[i]);
                        po_depths.push(self.depth[i]);
                    }
                }
                _ => {
                    po_arrivals.push(0.0);
                    po_depths.push(0);
                }
            }
        }
        TimingDelta {
            retimed,
            po_arrivals,
            po_depths,
        }
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

    /// Critical path delay over the netlist's primary outputs.
    pub fn critical_path_delay(&self, netlist: &Netlist) -> f64 {
        netlist
            .output_drivers()
            .map(|driver| match driver {
                SignalRef::Gate(src) => self.arrival[src.index()],
                _ => 0.0,
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tdals_netlist::builder::Builder;
    use tdals_netlist::cell::Drive;

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

    fn assert_matches_full(netlist: &Netlist, inc: &IncrementalSta, cfg: &TimingConfig) {
        let full = analyze(netlist, cfg);
        for (id, _) in netlist.iter() {
            assert!(
                (inc.arrival(id) - full.arrival(id)).abs() < 1e-9,
                "arrival mismatch at {id}: {} vs {}",
                inc.arrival(id),
                full.arrival(id)
            );
            assert_eq!(inc.depth(id), full.depth(id), "depth mismatch at {id}");
            assert!(
                (inc.load(id) - full.load(id)).abs() < 1e-9,
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
            let mut inc = IncrementalSta::new(&n, cfg);
            for _ in 0..8 {
                // Random legal LAC: gate target, switch from its TFI or const.
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
                candidates.push(SignalRef::Const0);
                let switch = candidates[rng.gen_range(0..candidates.len())];
                inc.substitute(&mut n, target, switch).expect("legal LAC");
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
            let inc = IncrementalSta::new(&n, cfg);
            for _ in 0..8 {
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
                candidates.push(SignalRef::Const1);
                let switch = candidates[rng.gen_range(0..candidates.len())];

                let delta = inc.preview_substitute(&n, target, switch);
                let mut mutated = n.clone();
                mutated.substitute(target, switch).expect("legal LAC");
                let full = analyze(&mutated, &cfg);
                assert_eq!(delta.max_depth(), full.max_depth());
                assert!(
                    (delta.critical_path_delay() - full.critical_path_delay()).abs() < 1e-9,
                    "cpd {} vs {}",
                    delta.critical_path_delay(),
                    full.critical_path_delay()
                );
                for po in 0..mutated.output_count() {
                    assert!(
                        (delta.po_arrivals[po] - full.po_arrival(po)).abs() < 1e-9,
                        "po {po} arrival"
                    );
                    assert_eq!(delta.po_depths[po], full.po_depth(po), "po {po} depth");
                }
            }
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
        assert!((snap.critical_path_delay() - full.critical_path_delay()).abs() < 1e-9);
        for (id, _) in n.iter() {
            assert!((snap.arrival(id) - full.arrival(id)).abs() < 1e-9);
            assert_eq!(snap.depth(id), full.depth(id));
        }
        for po in 0..n.output_count() {
            assert!((snap.po_arrival(po) - full.po_arrival(po)).abs() < 1e-9);
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
            assert_eq!(inc.fanouts, fresh.fanouts);
        }
    }

    #[test]
    fn drive_changes_keep_engine_in_sync() {
        let cfg = TimingConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = random_dag(3);
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
            inc.set_drive(&mut n, gate, drive);
            assert_matches_full(&n, &inc, &cfg);
        }
    }

    #[test]
    fn substitute_error_leaves_state_untouched() {
        let cfg = TimingConfig::default();
        let mut n = random_dag(1);
        let mut inc = IncrementalSta::new(&n, cfg);
        // Illegal: switch downstream of target.
        let target = GateId::new(6);
        let downstream = GateId::new(n.gate_count() - 1);
        let err = inc.substitute(&mut n, target, downstream.into());
        assert!(err.is_err());
        assert_matches_full(&n, &inc, &cfg);
    }
}
