//! Arrival-time propagation, logic depth, and critical-path extraction.

use tdals_netlist::{Gate, GateId, Netlist, SignalRef};

/// Parasitics and boundary conditions for timing analysis.
///
/// The defaults model a 28nm-class net: roughly a femtofarad of routed
/// wire per fan-out branch, and a register/pad load on every primary
/// output. Wire capacitance at this scale is what makes drive-strength
/// selection consequential — with near-zero wire load, sizing barely
/// moves delay and the paper's post-optimization would have no lever.
///
/// # Examples
///
/// ```
/// use tdals_sta::TimingConfig;
/// let cfg = TimingConfig::default();
/// assert!(cfg.wire_cap_per_fanout > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct TimingConfig {
    /// Wire capacitance in fF added per fan-out branch.
    pub wire_cap_per_fanout: f64,
    /// Capacitive load in fF on each primary output.
    pub po_load: f64,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            wire_cap_per_fanout: 1.0,
            po_load: 3.0,
        }
    }
}

impl TimingConfig {
    /// Creates a config with explicit parasitics.
    pub fn new(wire_cap_per_fanout: f64, po_load: f64) -> TimingConfig {
        TimingConfig {
            wire_cap_per_fanout,
            po_load,
        }
    }

    /// Sets the wire capacitance added per fan-out branch, fF.
    pub fn with_wire_cap_per_fanout(mut self, wire_cap_per_fanout: f64) -> TimingConfig {
        self.wire_cap_per_fanout = wire_cap_per_fanout;
        self
    }

    /// Sets the capacitive load on each primary output, fF.
    pub fn with_po_load(mut self, po_load: f64) -> TimingConfig {
        self.po_load = po_load;
        self
    }
}

/// Static-timing-analysis result for one netlist (the data the paper
/// obtains from PrimeTime).
///
/// Arrival times are in ps; depth counts logic levels from the primary
/// inputs. Only paths that reach a primary output matter for the summary
/// quantities: dangling gates have arrival times (they still load their
/// drivers) but never define [`TimingReport::critical_path_delay`].
///
/// # Examples
///
/// ```
/// use tdals_netlist::Netlist;
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
/// use tdals_sta::{analyze, TimingConfig};
///
/// let mut n = Netlist::new("chain");
/// let a = n.add_input("a");
/// let g1 = n.add_gate("g1", Cell::new(CellFunc::Inv, Drive::X1), vec![a.into()])?;
/// let g2 = n.add_gate("g2", Cell::new(CellFunc::Inv, Drive::X1), vec![g1.into()])?;
/// n.add_output("y", g2.into());
///
/// let report = analyze(&n, &TimingConfig::default());
/// assert_eq!(report.max_depth(), 2);
/// assert!(report.critical_path_delay() > 0.0);
/// # Ok::<(), tdals_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingReport {
    arrival: Vec<f64>,
    depth: Vec<u32>,
    load: Vec<f64>,
    po_arrival: Vec<f64>,
    po_depth: Vec<u32>,
}

impl TimingReport {
    /// Assembles a report from raw per-gate and per-PO arrays (used by
    /// the incremental engine to snapshot its state).
    pub(crate) fn from_parts(
        arrival: Vec<f64>,
        depth: Vec<u32>,
        load: Vec<f64>,
        po_arrival: Vec<f64>,
        po_depth: Vec<u32>,
    ) -> TimingReport {
        TimingReport {
            arrival,
            depth,
            load,
            po_arrival,
            po_depth,
        }
    }

    /// Output arrival time of a gate in ps.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn arrival(&self, id: GateId) -> f64 {
        self.arrival[id.index()]
    }

    /// Logic depth (levels from the primary inputs) of a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn depth(&self, id: GateId) -> u32 {
        self.depth[id.index()]
    }

    /// Capacitive load in fF seen by a gate's output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn load(&self, id: GateId) -> f64 {
        self.load[id.index()]
    }

    /// Arrival time at primary output `po` in ps (`Ta(PO_i)` in Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of bounds.
    pub fn po_arrival(&self, po: usize) -> f64 {
        self.po_arrival[po]
    }

    /// All PO arrival times.
    pub fn po_arrivals(&self) -> &[f64] {
        &self.po_arrival
    }

    /// Logic depth at primary output `po`.
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of bounds.
    pub fn po_depth(&self, po: usize) -> u32 {
        self.po_depth[po]
    }

    /// Critical path delay: the maximum arrival over primary outputs
    /// (`CPD` in the paper). Zero for a circuit whose outputs are all
    /// constants.
    pub fn critical_path_delay(&self) -> f64 {
        self.po_arrival.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum logic depth over primary outputs (`Depth` in Eq. 8).
    pub fn max_depth(&self) -> u32 {
        self.po_depth.iter().copied().max().unwrap_or(0)
    }

    /// Index of the primary output with the worst arrival time.
    pub fn critical_po(&self) -> usize {
        worst_po(self.po_arrival.iter().copied())
    }
}

/// Runs static timing analysis on a netlist.
///
/// Gates are visited in id order (valid topological order by the
/// netlist's invariant). The load of each gate output is the sum of the
/// input capacitances of its reader pins, plus wire capacitance per
/// fan-out branch, plus the PO load where applicable; the gate delay is
/// the cell's linear delay into that load.
pub fn analyze(netlist: &Netlist, cfg: &TimingConfig) -> TimingReport {
    let (mut load, mut arrival, mut depth) = (Vec::new(), Vec::new(), Vec::new());
    time_gates(netlist, cfg, &mut load, &mut arrival, &mut depth);

    let mut po_arrival = Vec::with_capacity(netlist.output_count());
    let mut po_depth = Vec::with_capacity(netlist.output_count());
    for driver in netlist.output_drivers() {
        match driver {
            SignalRef::Gate(src) => {
                po_arrival.push(arrival[src.index()]);
                po_depth.push(depth[src.index()]);
            }
            _ => {
                po_arrival.push(0.0);
                po_depth.push(0);
            }
        }
    }

    TimingReport {
        arrival,
        depth,
        load,
        po_arrival,
        po_depth,
    }
}

/// Per-gate arrival times, as a worst-path walk reads them: a
/// [`TimingReport`], or the live state of an
/// [`IncrementalSta`](crate::IncrementalSta).
pub trait Arrivals {
    /// Output arrival time of a gate in ps.
    fn arrival(&self, id: GateId) -> f64;
}

impl Arrivals for TimingReport {
    fn arrival(&self, id: GateId) -> f64 {
        self.arrival[id.index()]
    }
}

/// Index of the worst of the given PO arrivals (the last one on a tie):
/// the rule behind [`TimingReport::critical_po`].
pub(crate) fn worst_po(po_arrivals: impl Iterator<Item = f64>) -> usize {
    po_arrivals
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Loads, arrivals and depths of every gate of `netlist`, computed into
/// the given arrays resized to its gate count: the pass behind
/// [`analyze`] and every from-scratch state of the incremental engine,
/// so both sum each load in the same order.
pub(crate) fn time_gates(
    netlist: &Netlist,
    cfg: &TimingConfig,
    load: &mut Vec<f64>,
    arrival: &mut Vec<f64>,
    depth: &mut Vec<u32>,
) {
    let n = netlist.gate_count();
    for values in [&mut *load, &mut *arrival] {
        values.clear();
        values.resize(n, 0.0);
    }
    depth.clear();
    depth.resize(n, 0);

    for (_, gate) in netlist.iter() {
        let cap = gate.cell().input_cap();
        for fanin in gate.fanins() {
            if let SignalRef::Gate(src) = fanin {
                load[src.index()] += cap + cfg.wire_cap_per_fanout;
            }
        }
    }
    for driver in netlist.output_drivers() {
        if let SignalRef::Gate(src) = driver {
            load[src.index()] += cfg.po_load + cfg.wire_cap_per_fanout;
        }
    }

    for (id, gate) in netlist.iter() {
        if gate.is_input() {
            continue;
        }
        let i = id.index();
        (arrival[i], depth[i]) = gate_timing(gate, load[i], arrival, depth, |signal| signal);
    }
}

/// Arrival and depth of a logic gate: its worst fan-in arrival plus the
/// cell's delay into `load`, and one level past its deepest fan-in,
/// with each fan-in reference read through `reads` (the identity except
/// under a pending substitution). The one timing rule of [`analyze`]
/// and the incremental engine, so both compute every arrival alike.
#[inline]
pub(crate) fn gate_timing(
    gate: Gate<'_>,
    load: f64,
    arrival: &[f64],
    depth: &[u32],
    reads: impl Fn(SignalRef) -> SignalRef,
) -> (f64, u32) {
    let mut worst_arrival = 0.0f64;
    let mut worst_depth = 0u32;
    for &fanin in gate.fanins() {
        if let SignalRef::Gate(src) = reads(fanin) {
            worst_arrival = worst_arrival.max(arrival[src.index()]);
            worst_depth = worst_depth.max(depth[src.index()]);
        }
    }
    (worst_arrival + gate.cell().delay(load), worst_depth + 1)
}

/// Gates on the single worst path feeding primary output `po`, from the
/// earliest gate (nearest the inputs) to the PO driver.
///
/// Ties are broken toward the lower gate id; primary-input pseudo-gates
/// are not included.
pub fn critical_path_to_po<A: Arrivals + ?Sized>(
    netlist: &Netlist,
    timing: &A,
    po: usize,
) -> Vec<GateId> {
    let mut path = Vec::new();
    let mut cursor = match netlist.output_driver(po) {
        SignalRef::Gate(g) => g,
        _ => return path,
    };
    loop {
        let gate = netlist.gate(cursor);
        if gate.is_input() {
            break;
        }
        path.push(cursor);
        match worst_fanin(netlist, timing, cursor) {
            Some(g) => cursor = g,
            None => break,
        }
    }
    path.reverse();
    path
}

/// One backward step of a worst-path walk: the fan-in gate of `gate`
/// with the latest arrival, ties broken toward the first such fan-in
/// pin. `None` when `gate` has no gate fan-ins.
///
/// This is the single step rule behind [`critical_path_to_po`] and any
/// other walk that must follow the same worst paths.
pub fn worst_fanin<A: Arrivals + ?Sized>(
    netlist: &Netlist,
    timing: &A,
    gate: GateId,
) -> Option<GateId> {
    let mut next = None;
    let mut best = f64::NEG_INFINITY;
    for fanin in netlist.gate(gate).fanins() {
        if let SignalRef::Gate(src) = fanin {
            let t = timing.arrival(*src);
            if t > best {
                best = t;
                next = Some(*src);
            }
        }
    }
    next
}

/// Gates on the global critical path (worst PO).
pub fn critical_path(netlist: &Netlist, report: &TimingReport) -> Vec<GateId> {
    critical_path_to_po(netlist, report, report.critical_po())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, CellFunc, Drive};

    fn x1(func: CellFunc) -> Cell {
        Cell::new(func, Drive::X1)
    }

    fn chain(len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let mut prev: SignalRef = a.into();
        for i in 0..len {
            let g = n
                .add_gate(format!("g{i}"), x1(CellFunc::Inv), vec![prev])
                .expect("gate");
            prev = g.into();
        }
        n.add_output("y", prev);
        n
    }

    #[test]
    fn chain_depth_and_delay_scale_with_length() {
        let cfg = TimingConfig::default();
        let short = analyze(&chain(3), &cfg);
        let long = analyze(&chain(9), &cfg);
        assert_eq!(short.max_depth(), 3);
        assert_eq!(long.max_depth(), 9);
        assert!(long.critical_path_delay() > short.critical_path_delay());
        // Middle stages are identical (INV driving INV): adding 6 stages
        // adds exactly 6 middle-stage delays.
        let inv = x1(CellFunc::Inv);
        let mid_delay = inv.delay(inv.input_cap() + cfg.wire_cap_per_fanout);
        let grew = long.critical_path_delay() - short.critical_path_delay();
        assert!((grew - 6.0 * mid_delay).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_two_gate_delay() {
        // a -> INV(g0) -> INV(g1) -> y.
        let cfg = TimingConfig::new(0.5, 2.0);
        let n = chain(2);
        let r = analyze(&n, &cfg);
        let inv = x1(CellFunc::Inv);
        // g0 load: g1's pin cap + wire. g1 load: PO + wire.
        let g0_load = inv.input_cap() + 0.5;
        let g1_load = 2.0 + 0.5;
        let expect = inv.delay(g0_load) + inv.delay(g1_load);
        assert!((r.critical_path_delay() - expect).abs() < 1e-9);
        assert_eq!(r.load(GateId::new(1)), g0_load);
        assert_eq!(r.load(GateId::new(2)), g1_load);
    }

    #[test]
    fn arrival_is_monotone_along_fanin_edges() {
        let n = fanout_tree();
        let r = analyze(&n, &TimingConfig::default());
        for (id, gate) in n.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    assert!(
                        r.arrival(*src) < r.arrival(id),
                        "arrival must increase along edges"
                    );
                }
            }
        }
    }

    fn fanout_tree() -> Netlist {
        let mut n = Netlist::new("tree");
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
            .add_gate("g3", x1(CellFunc::Xor2), vec![g1.into(), g2.into()])
            .expect("gate");
        n.add_output("y1", g2.into());
        n.add_output("y2", g3.into());
        n
    }

    #[test]
    fn critical_po_and_path() {
        let n = fanout_tree();
        let r = analyze(&n, &TimingConfig::default());
        // g3 depends on g2, so y2 must be the critical PO.
        assert_eq!(r.critical_po(), 1);
        let path = critical_path(&n, &r);
        let names: Vec<&str> = path.iter().map(|&g| n.gate(g).name()).collect();
        assert_eq!(names, ["g1", "g2", "g3"]);
    }

    #[test]
    fn per_po_arrivals_ordered() {
        let n = fanout_tree();
        let r = analyze(&n, &TimingConfig::default());
        assert!(r.po_arrival(1) > r.po_arrival(0));
        assert_eq!(r.po_depth(0), 2);
        assert_eq!(r.po_depth(1), 3);
    }

    #[test]
    fn constant_output_has_zero_timing() {
        let mut n = chain(2);
        n.add_output("k", SignalRef::Const1);
        let r = analyze(&n, &TimingConfig::default());
        assert_eq!(r.po_arrival(1), 0.0);
        assert_eq!(r.po_depth(1), 0);
    }

    #[test]
    fn dangling_gate_loads_driver_but_not_cpd() {
        // A dangling reader on g0 increases g0's load and hence CPD,
        // but the dangling gate's own arrival never defines the CPD.
        let mut n = chain(2);
        let g0 = n.find_gate("g0").expect("g0");
        let before = analyze(&n, &TimingConfig::default()).critical_path_delay();
        let heavy = Cell::new(CellFunc::Xor2, Drive::X8);
        let _dangler = n
            .add_gate("dangler", heavy, vec![g0.into(), g0.into()])
            .expect("gate");
        let after = analyze(&n, &TimingConfig::default()).critical_path_delay();
        assert!(after > before, "dangling reader adds load");
    }

    #[test]
    fn upsizing_heavily_loaded_gate_reduces_cpd() {
        // A gate driving a big fan-out benefits from upsizing: the
        // resistance drop on the large load outweighs the extra pin
        // capacitance presented to its driver.
        let mut n = chain(2);
        let g1 = n.find_gate("g1").expect("g1");
        for j in 0..12 {
            let s = n
                .add_gate(format!("load{j}"), x1(CellFunc::Buf), vec![g1.into()])
                .expect("gate");
            n.add_output(format!("z{j}"), s.into());
        }
        let mut sized = n.clone();
        sized.set_drive(g1, Drive::X4);
        let cfg = TimingConfig::default();
        let base = analyze(&n, &cfg).critical_path_delay();
        let faster = analyze(&sized, &cfg).critical_path_delay();
        assert!(
            faster < base,
            "upsizing under heavy load helps: {base} -> {faster}"
        );
    }

    #[test]
    fn substitution_shortens_critical_path() {
        // Replicates the paper's premise: a wire-by-constant LAC on the
        // critical path lowers both depth and delay.
        let mut n = chain(6);
        let g3 = n.find_gate("g3").expect("g3");
        let cfg = TimingConfig::default();
        let before = analyze(&n, &cfg);
        n.substitute(g3, SignalRef::Const0).expect("lac");
        let after = analyze(&n, &cfg);
        assert!(after.max_depth() < before.max_depth());
        assert!(after.critical_path_delay() < before.critical_path_delay());
    }
}
