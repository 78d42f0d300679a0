//! Gate fan-in adjacency netlists (§III-A of the paper).
//!
//! A [`Netlist`] stores the circuit **solely as fan-in relationships
//! between gates**, discarding wire identity: each gate records the cell
//! it instantiates and, per input pin, a [`SignalRef`] naming the driving
//! gate or a constant. Constants `0`/`1` are treated as pseudo-gates,
//! exactly as the paper does, so local approximate changes reduce to
//! rewriting fan-in entries.
//!
//! Every gate carries a unique integer id ([`GateId`]) and the structure
//! maintains the **topological id invariant**: every fan-in of gate `g`
//! has an id strictly smaller than `g`'s. The paper introduces integer ids
//! to "check for circuit loop violations"; with this invariant, *any*
//! mixture of fan-in rows from approximate variants of the same circuit is
//! acyclic by construction, which is what makes circuit searching and
//! circuit reproduction safe and fast.

use std::collections::HashMap;
use std::fmt;

use crate::cell::{Cell, CellFunc, Drive};
use crate::error::NetlistError;

/// Identifier of a gate inside one [`Netlist`].
///
/// Ids are dense (`0..gate_count`) and topologically ordered: fan-ins
/// always have smaller ids than the gates they drive.
///
/// # Examples
///
/// ```
/// use tdals_netlist::GateId;
/// let id = GateId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "g3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(u32);

impl GateId {
    /// Creates a gate id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub fn new(index: usize) -> GateId {
        GateId(u32::try_from(index).expect("gate index exceeds u32::MAX"))
    }

    /// Dense index of this gate.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A signal that can drive a gate input: a constant or another gate's
/// output.
///
/// The paper treats constants as gates usable as *switch gates* in
/// wire-by-constant substitutions.
///
/// # Examples
///
/// ```
/// use tdals_netlist::{GateId, SignalRef};
/// let s = SignalRef::Gate(GateId::new(7));
/// assert_eq!(s.gate(), Some(GateId::new(7)));
/// assert!(SignalRef::Const1.is_const());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SignalRef {
    /// Constant logic `0`.
    Const0,
    /// Constant logic `1`.
    Const1,
    /// Output of the gate with the given id.
    Gate(GateId),
}

impl SignalRef {
    /// The driving gate, if this is not a constant.
    pub const fn gate(self) -> Option<GateId> {
        match self {
            SignalRef::Gate(id) => Some(id),
            _ => None,
        }
    }

    /// `true` for `Const0`/`Const1`.
    pub const fn is_const(self) -> bool {
        matches!(self, SignalRef::Const0 | SignalRef::Const1)
    }

    /// Constant value carried, if any.
    pub const fn const_value(self) -> Option<bool> {
        match self {
            SignalRef::Const0 => Some(false),
            SignalRef::Const1 => Some(true),
            SignalRef::Gate(_) => None,
        }
    }

    /// Builds a constant reference from a boolean.
    pub const fn constant(value: bool) -> SignalRef {
        if value {
            SignalRef::Const1
        } else {
            SignalRef::Const0
        }
    }
}

impl From<GateId> for SignalRef {
    fn from(id: GateId) -> SignalRef {
        SignalRef::Gate(id)
    }
}

impl fmt::Display for SignalRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalRef::Const0 => f.write_str("1'b0"),
            SignalRef::Const1 => f.write_str("1'b1"),
            SignalRef::Gate(id) => write!(f, "{id}"),
        }
    }
}

/// One gate instance: a cell plus its fan-in adjacency row.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    name: String,
    cell: Cell,
    fanins: Vec<SignalRef>,
}

impl Gate {
    /// Instance name (unique within the netlist).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Library cell instantiated by this gate.
    pub fn cell(&self) -> Cell {
        self.cell
    }

    /// Fan-in adjacency row, one entry per input pin.
    pub fn fanins(&self) -> &[SignalRef] {
        &self.fanins
    }

    /// `true` if this gate is a primary input.
    pub fn is_input(&self) -> bool {
        self.cell.is_input()
    }
}

/// A named primary output and the signal driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    driver: SignalRef,
}

/// A combinational gate-level netlist in fan-in adjacency form.
///
/// # Examples
///
/// Building the half-adder `sum = a ^ b`, `carry = a & b`:
///
/// ```
/// use tdals_netlist::{Netlist, SignalRef};
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
///
/// let mut n = Netlist::new("half_adder");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let sum = n.add_gate("u_sum", Cell::new(CellFunc::Xor2, Drive::X1),
///                      vec![a.into(), b.into()])?;
/// let carry = n.add_gate("u_carry", Cell::new(CellFunc::And2, Drive::X1),
///                        vec![a.into(), b.into()])?;
/// n.add_output("sum", sum.into());
/// n.add_output("carry", carry.into());
/// assert_eq!(n.gate_count(), 4); // 2 PIs + 2 gates
/// assert_eq!(n.logic_gate_count(), 2);
/// # Ok::<(), tdals_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    output_names: Vec<String>,
    outputs: Vec<Output>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            output_names: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a primary input and returns its gate id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let id = GateId::new(self.gates.len());
        self.gates.push(Gate {
            name: name.into(),
            cell: Cell::input(),
            fanins: Vec::new(),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a logic gate and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `fanins.len()` differs
    /// from the cell arity, and [`NetlistError::FaninOrder`] if any fan-in
    /// id is not strictly smaller than the new gate's id (which would
    /// break the topological id invariant).
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        cell: Cell,
        fanins: Vec<SignalRef>,
    ) -> Result<GateId, NetlistError> {
        let id = GateId::new(self.gates.len());
        if fanins.len() != cell.arity() {
            return Err(NetlistError::ArityMismatch {
                gate: id,
                cell,
                expected: cell.arity(),
                actual: fanins.len(),
            });
        }
        for &fanin in &fanins {
            if let SignalRef::Gate(src) = fanin {
                if src >= id {
                    return Err(NetlistError::FaninOrder {
                        gate: id,
                        fanin: src,
                    });
                }
            }
        }
        self.gates.push(Gate {
            name: name.into(),
            cell,
            fanins,
        });
        Ok(id)
    }

    /// Declares a primary output driven by `driver`.
    pub fn add_output(&mut self, name: impl Into<String>, driver: SignalRef) {
        self.output_names.push(name.into());
        self.outputs.push(Output { driver });
    }

    /// Total number of gates including primary-input pseudo-gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of logic gates (excludes primary inputs).
    pub fn logic_gate_count(&self) -> usize {
        self.gates.len() - self.inputs.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(id, gate)` pairs in topological (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::new(i), g))
    }

    /// Ids of the primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Signal driving primary output `po`.
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of bounds.
    pub fn output_driver(&self, po: usize) -> SignalRef {
        self.outputs[po].driver
    }

    /// Name of primary output `po`.
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of bounds.
    pub fn output_name(&self, po: usize) -> &str {
        &self.output_names[po]
    }

    /// Iterates over `(name, driver)` of all primary outputs.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, SignalRef)> {
        self.output_names
            .iter()
            .map(String::as_str)
            .zip(self.outputs.iter().map(|o| o.driver))
    }

    /// Re-points primary output `po` at a new driver.
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of bounds.
    pub fn set_output_driver(&mut self, po: usize, driver: SignalRef) {
        self.outputs[po].driver = driver;
    }

    /// Overwrites one fan-in pin of a gate.
    ///
    /// This is the primitive beneath wire-by-wire and wire-by-constant
    /// substitutions.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] if the new signal references a
    /// gate with id ≥ the edited gate (this would permit combinational
    /// loops).
    ///
    /// # Panics
    ///
    /// Panics if `gate` or `pin` is out of bounds.
    pub fn set_fanin(
        &mut self,
        gate: GateId,
        pin: usize,
        signal: SignalRef,
    ) -> Result<(), NetlistError> {
        if let SignalRef::Gate(src) = signal {
            if src >= gate {
                return Err(NetlistError::FaninOrder { gate, fanin: src });
            }
        }
        self.gates[gate.index()].fanins[pin] = signal;
        Ok(())
    }

    /// Replaces the whole fan-in row of a gate (used by circuit
    /// reproduction, which copies adjacency rows between population
    /// members).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] or
    /// [`NetlistError::FaninOrder`] under the same conditions as
    /// [`Netlist::add_gate`].
    pub fn set_fanins(&mut self, gate: GateId, fanins: Vec<SignalRef>) -> Result<(), NetlistError> {
        let cell = self.gates[gate.index()].cell;
        if fanins.len() != cell.arity() {
            return Err(NetlistError::ArityMismatch {
                gate,
                cell,
                expected: cell.arity(),
                actual: fanins.len(),
            });
        }
        for &fanin in &fanins {
            if let SignalRef::Gate(src) = fanin {
                if src >= gate {
                    return Err(NetlistError::FaninOrder { gate, fanin: src });
                }
            }
        }
        self.gates[gate.index()].fanins = fanins;
        Ok(())
    }

    /// Substitutes every reference to `target`'s output (gate fan-ins and
    /// primary-output drivers alike) with `switch`, returning how many
    /// references were rewritten.
    ///
    /// This implements the paper's wire-by-wire (`switch` a gate) and
    /// wire-by-constant (`switch` a constant) local approximate changes:
    /// after the call the target gate drives nothing and becomes dangling.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FaninOrder`] if `switch` is a gate with
    /// id ≥ `target`; the paper avoids this case by drawing switch gates
    /// from the target's transitive fan-in.
    pub fn substitute(&mut self, target: GateId, switch: SignalRef) -> Result<usize, NetlistError> {
        if let SignalRef::Gate(s) = switch {
            if s >= target {
                return Err(NetlistError::FaninOrder {
                    gate: target,
                    fanin: s,
                });
            }
        }
        let old = SignalRef::Gate(target);
        let mut rewritten = 0;
        for gate in &mut self.gates {
            for fanin in &mut gate.fanins {
                if *fanin == old {
                    *fanin = switch;
                    rewritten += 1;
                }
            }
        }
        for out in &mut self.outputs {
            if out.driver == old {
                out.driver = switch;
                rewritten += 1;
            }
        }
        Ok(rewritten)
    }

    /// Changes the drive strength of a gate (function preserved).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of bounds or names a primary input.
    pub fn set_drive(&mut self, gate: GateId, drive: Drive) {
        let g = &mut self.gates[gate.index()];
        assert!(!g.cell.is_input(), "cannot size a primary input");
        g.cell = g.cell.with_drive(drive);
    }

    /// Number of fan-in references (gate pins plus PO drivers) fed by each
    /// gate.
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.gates.len()];
        for gate in &self.gates {
            for fanin in &gate.fanins {
                if let SignalRef::Gate(src) = fanin {
                    counts[src.index()] += 1;
                }
            }
        }
        for out in &self.outputs {
            if let SignalRef::Gate(src) = out.driver {
                counts[src.index()] += 1;
            }
        }
        counts
    }

    /// For each gate, the list of gates reading its output.
    ///
    /// PO fan-outs are not included; combine with
    /// [`Netlist::outputs`] when they matter.
    pub fn fanout_lists(&self) -> Vec<Vec<GateId>> {
        let mut lists = vec![Vec::new(); self.gates.len()];
        for (id, gate) in self.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    lists[src.index()].push(id);
                }
            }
        }
        lists
    }

    /// Marks gates transitively reachable from any primary output
    /// (`true` = live). Primary inputs are always considered live.
    ///
    /// Dangling (dead) gates are the by-product of substitutions; the
    /// paper subtracts their area from `Area_app` and deletes them in
    /// post-optimization.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = Vec::new();
        for out in &self.outputs {
            if let SignalRef::Gate(src) = out.driver {
                if !live[src.index()] {
                    live[src.index()] = true;
                    stack.push(src);
                }
            }
        }
        while let Some(id) = stack.pop() {
            for fanin in self.gates[id.index()].fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if !live[src.index()] {
                        live[src.index()] = true;
                        stack.push(*src);
                    }
                }
            }
        }
        for &pi in &self.inputs {
            live[pi.index()] = true;
        }
        live
    }

    /// Total area in µm² of all logic gates (dangling included).
    pub fn area_total(&self) -> f64 {
        self.gates.iter().map(|g| g.cell.area()).sum()
    }

    /// Area in µm² of gates reachable from a primary output
    /// (`Area_app` in the paper: dangling gates do not count).
    pub fn area_live(&self) -> f64 {
        let live = self.live_mask();
        self.iter()
            .filter(|(id, _)| live[id.index()])
            .map(|(_, g)| g.cell.area())
            .sum()
    }

    /// Deletes every dangling gate, compacting ids, and returns the number
    /// of gates removed.
    ///
    /// This is the "dangling gates deletion" step of the paper's
    /// post-optimization: gates with empty transitive fan-out are removed
    /// iteratively until none remain. Primary inputs are never removed.
    /// The topological id invariant is preserved because compaction keeps
    /// relative id order.
    pub fn sweep_dangling(&mut self) -> usize {
        let live = self.live_mask();
        let removed = live.iter().filter(|&&l| !l).count();
        if removed == 0 {
            return 0;
        }
        let mut remap: Vec<Option<GateId>> = vec![None; self.gates.len()];
        let mut next = 0usize;
        for (i, &keep) in live.iter().enumerate() {
            if keep {
                remap[i] = Some(GateId::new(next));
                next += 1;
            }
        }
        let remap_sig = |s: SignalRef| match s {
            SignalRef::Gate(g) => {
                SignalRef::Gate(remap[g.index()].expect("live gate references dead gate"))
            }
            c => c,
        };
        let mut gates = Vec::with_capacity(next);
        for (i, gate) in self.gates.drain(..).enumerate() {
            if live[i] {
                let fanins = gate.fanins.iter().map(|&f| remap_sig(f)).collect();
                gates.push(Gate {
                    name: gate.name,
                    cell: gate.cell,
                    fanins,
                });
            }
        }
        self.gates = gates;
        for pi in &mut self.inputs {
            *pi = remap[pi.index()].expect("primary input removed");
        }
        for out in &mut self.outputs {
            out.driver = remap_sig(out.driver);
        }
        removed
    }

    /// Gates in the transitive fan-in of `root` (excluding `root`
    /// itself), as a boolean mask.
    pub fn tfi_mask(&self, root: GateId) -> Vec<bool> {
        let mut mask = vec![false; self.gates.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for fanin in self.gates[id.index()].fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if !mask[src.index()] {
                        mask[src.index()] = true;
                        stack.push(*src);
                    }
                }
            }
        }
        mask[root.index()] = false;
        mask
    }

    /// Gates in the transitive fan-out of `root` (excluding `root`).
    pub fn tfo_mask(&self, root: GateId) -> Vec<bool> {
        let fanouts = self.fanout_lists();
        let mut mask = vec![false; self.gates.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &dst in &fanouts[id.index()] {
                if !mask[dst.index()] {
                    mask[dst.index()] = true;
                    stack.push(dst);
                }
            }
        }
        mask[root.index()] = false;
        mask
    }

    /// Gates in the transitive fan-in cones of the given primary outputs,
    /// including the driving gates themselves.
    pub fn po_cone_mask(&self, pos: &[usize]) -> Vec<bool> {
        let mut mask = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = Vec::new();
        for &po in pos {
            if let SignalRef::Gate(src) = self.outputs[po].driver {
                if !mask[src.index()] {
                    mask[src.index()] = true;
                    stack.push(src);
                }
            }
        }
        while let Some(id) = stack.pop() {
            for fanin in self.gates[id.index()].fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if !mask[src.index()] {
                        mask[src.index()] = true;
                        stack.push(*src);
                    }
                }
            }
        }
        mask
    }

    /// Validates all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: pin-count mismatches
    /// ([`NetlistError::ArityMismatch`]), fan-in id ordering
    /// ([`NetlistError::FaninOrder`]), inputs that are not `Input` cells
    /// or vice versa ([`NetlistError::MalformedInput`]), or dangling
    /// output references ([`NetlistError::UnknownGate`]).
    pub fn check_invariants(&self) -> Result<(), NetlistError> {
        let mut is_pi = vec![false; self.gates.len()];
        for &pi in &self.inputs {
            if pi.index() >= self.gates.len() {
                return Err(NetlistError::UnknownGate { gate: pi });
            }
            is_pi[pi.index()] = true;
        }
        for (id, gate) in self.iter() {
            if gate.cell.is_input() != is_pi[id.index()] {
                return Err(NetlistError::MalformedInput { gate: id });
            }
            if gate.fanins.len() != gate.cell.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: id,
                    cell: gate.cell,
                    expected: gate.cell.arity(),
                    actual: gate.fanins.len(),
                });
            }
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if *src >= id {
                        return Err(NetlistError::FaninOrder {
                            gate: id,
                            fanin: *src,
                        });
                    }
                }
            }
        }
        for out in &self.outputs {
            if let SignalRef::Gate(src) = out.driver {
                if src.index() >= self.gates.len() {
                    return Err(NetlistError::UnknownGate { gate: src });
                }
            }
        }
        Ok(())
    }

    /// Looks up a gate id by instance name (linear scan; intended for
    /// tests and tooling, not hot paths).
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.iter()
            .find(|(_, g)| g.name() == name)
            .map(|(id, _)| id)
    }

    /// Builds a map from instance name to gate id.
    pub fn name_map(&self) -> HashMap<&str, GateId> {
        self.iter().map(|(id, g)| (g.name(), id)).collect()
    }

    /// Histogram of cell functions over live gates (useful for reports).
    pub fn func_histogram(&self) -> HashMap<CellFunc, usize> {
        let live = self.live_mask();
        let mut hist = HashMap::new();
        for (id, gate) in self.iter() {
            if live[id.index()] && !gate.is_input() {
                *hist.entry(gate.cell().func()).or_insert(0) += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellFunc, Drive};

    fn x1(func: CellFunc) -> Cell {
        Cell::new(func, Drive::X1)
    }

    /// The running example from Fig. 3 of the paper: 4 PIs (ids 1-4 in
    /// the paper, 0-3 here), gates 5-15 (4-14 here).
    pub(crate) fn fig3_netlist() -> Netlist {
        let mut n = Netlist::new("fig3");
        let pis: Vec<GateId> = (0..4).map(|i| n.add_input(format!("n{}", i + 1))).collect();
        let add = |n: &mut Netlist, name: &str, func, fi: Vec<SignalRef>| {
            n.add_gate(name, x1(func), fi).expect("valid gate")
        };
        // Paper id 5 .. 15 -> ours 4 .. 14.
        let g5 = add(
            &mut n,
            "u5",
            CellFunc::And2,
            vec![pis[0].into(), pis[1].into()],
        );
        let g6 = add(
            &mut n,
            "u6",
            CellFunc::Or2,
            vec![pis[1].into(), pis[2].into()],
        );
        let g7 = add(
            &mut n,
            "u7",
            CellFunc::Nand2,
            vec![pis[2].into(), pis[3].into()],
        );
        let g8 = add(&mut n, "u8", CellFunc::And2, vec![g5.into(), g6.into()]);
        let g9 = add(&mut n, "u9", CellFunc::Xor2, vec![g6.into(), g7.into()]);
        let g10 = add(&mut n, "u10", CellFunc::Or2, vec![pis[3].into(), g7.into()]);
        let g11 = add(&mut n, "u11", CellFunc::Or2, vec![g5.into(), g8.into()]);
        let g12 = add(&mut n, "u12", CellFunc::And2, vec![g9.into(), g10.into()]);
        let g13 = add(&mut n, "u13", CellFunc::Inv, vec![g11.into()]);
        let g14 = add(&mut n, "u14", CellFunc::Buf, vec![g9.into()]);
        let g15 = add(&mut n, "u15", CellFunc::Inv, vec![g12.into()]);
        n.add_output("po1", g13.into());
        n.add_output("po2", g14.into());
        n.add_output("po3", g15.into());
        n
    }

    #[test]
    fn fig3_structure() {
        let n = fig3_netlist();
        n.check_invariants().expect("fig3 invariants");
        assert_eq!(n.input_count(), 4);
        assert_eq!(n.output_count(), 3);
        assert_eq!(n.gate_count(), 15);
        assert_eq!(n.logic_gate_count(), 11);
        // Fan-in adjacency of gate 12 (paper id 12: (9,10)).
        let g12 = n.find_gate("u12").expect("u12 exists");
        let fi = n.gate(g12).fanins();
        assert_eq!(fi.len(), 2);
    }

    #[test]
    fn add_gate_rejects_wrong_arity() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let err = n
            .add_gate("u", x1(CellFunc::And2), vec![a.into()])
            .unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn add_gate_rejects_forward_reference() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let fwd = GateId::new(10);
        let err = n
            .add_gate("u", x1(CellFunc::And2), vec![a.into(), fwd.into()])
            .unwrap_err();
        assert!(matches!(err, NetlistError::FaninOrder { .. }));
    }

    #[test]
    fn substitute_rewrites_all_readers() {
        // Fig. 5 wire-by-constant example: target paper-id 8, switch con0.
        let mut n = fig3_netlist();
        let g8 = n.find_gate("u8").expect("u8");
        let rewritten = n.substitute(g8, SignalRef::Const0).expect("legal LAC");
        assert_eq!(rewritten, 1); // only gate 11 reads gate 8
        let g11 = n.find_gate("u11").expect("u11");
        assert_eq!(n.gate(g11).fanins()[1], SignalRef::Const0);
        n.check_invariants().expect("still valid");
    }

    #[test]
    fn substitute_rejects_downstream_switch() {
        let mut n = fig3_netlist();
        let g5 = n.find_gate("u5").expect("u5");
        let g11 = n.find_gate("u11").expect("u11");
        let err = n.substitute(g5, g11.into()).unwrap_err();
        assert!(matches!(err, NetlistError::FaninOrder { .. }));
    }

    #[test]
    fn substitution_makes_target_dangling() {
        let mut n = fig3_netlist();
        let g8 = n.find_gate("u8").expect("u8");
        n.substitute(g8, SignalRef::Const0).expect("legal LAC");
        let live = n.live_mask();
        assert!(!live[g8.index()], "substituted gate must be dangling");
    }

    #[test]
    fn live_area_shrinks_after_substitution() {
        let mut n = fig3_netlist();
        let before = n.area_live();
        let g8 = n.find_gate("u8").expect("u8");
        n.substitute(g8, SignalRef::Const0).expect("legal LAC");
        let after = n.area_live();
        assert!(after < before);
        assert_eq!(n.area_total(), before, "total area unchanged before sweep");
    }

    #[test]
    fn sweep_dangling_removes_dead_cone() {
        let mut n = fig3_netlist();
        let g12 = n.find_gate("u12").expect("u12");
        // Re-point po3 from gate 15 to gate 7's output through substitute on 12:
        n.substitute(g12, SignalRef::Const1).expect("legal LAC");
        let dead_before = n.live_mask().iter().filter(|&&l| !l).count();
        assert!(dead_before >= 1);
        let removed = n.sweep_dangling();
        assert_eq!(removed, dead_before);
        n.check_invariants().expect("valid after sweep");
        assert!(n.live_mask().iter().all(|&l| l), "no dead gates remain");
        // PO count unchanged.
        assert_eq!(n.output_count(), 3);
    }

    #[test]
    fn sweep_preserves_input_count() {
        let mut n = fig3_netlist();
        // Kill everything: tie all POs to constants.
        for po in 0..n.output_count() {
            n.set_output_driver(po, SignalRef::Const0);
        }
        n.sweep_dangling();
        assert_eq!(n.input_count(), 4);
        assert_eq!(n.logic_gate_count(), 0);
        n.check_invariants().expect("valid after full sweep");
    }

    #[test]
    fn tfi_tfo_are_consistent() {
        let n = fig3_netlist();
        let g9 = n.find_gate("u9").expect("u9");
        let tfi = n.tfi_mask(g9);
        let g6 = n.find_gate("u6").expect("u6");
        let g7 = n.find_gate("u7").expect("u7");
        assert!(tfi[g6.index()] && tfi[g7.index()]);
        assert!(!tfi[g9.index()], "root excluded from its own TFI");
        // TFO of 9 contains 12, 14, 15.
        let tfo = n.tfo_mask(g9);
        for name in ["u12", "u14", "u15"] {
            let id = n.find_gate(name).expect(name);
            assert!(tfo[id.index()], "{name} in TFO of u9");
        }
        // Membership duality on every pair.
        for (a, _) in n.iter() {
            let tfo_a = n.tfo_mask(a);
            for (b, _) in n.iter() {
                if tfo_a[b.index()] {
                    assert!(n.tfi_mask(b)[a.index()], "{a} in TFI({b})");
                }
            }
        }
    }

    #[test]
    fn po_cone_mask_covers_example_from_fig5() {
        let n = fig3_netlist();
        // PO1 cone (paper): 13, 11, 8, 5 + PIs 1, 2.
        let mask = n.po_cone_mask(&[0]);
        for name in ["u13", "u11", "u8", "u5"] {
            let id = n.find_gate(name).expect(name);
            assert!(mask[id.index()], "{name} in PO1 cone");
        }
        let g9 = n.find_gate("u9").expect("u9");
        assert!(!mask[g9.index()], "u9 not in PO1 cone");
    }

    #[test]
    fn fanout_counts_match_lists() {
        let n = fig3_netlist();
        let counts = n.fanout_counts();
        let lists = n.fanout_lists();
        for (id, _) in n.iter() {
            let po_fanout = n
                .outputs()
                .filter(|(_, d)| *d == SignalRef::Gate(id))
                .count();
            assert_eq!(counts[id.index()], lists[id.index()].len() + po_fanout);
        }
    }

    #[test]
    fn signalref_display() {
        assert_eq!(SignalRef::Const0.to_string(), "1'b0");
        assert_eq!(SignalRef::Const1.to_string(), "1'b1");
        assert_eq!(SignalRef::Gate(GateId::new(4)).to_string(), "g4");
    }

    #[test]
    fn func_histogram_ignores_dangling() {
        let mut n = fig3_netlist();
        // Summing the histogram's values is commutative, so the map's
        // visit order cannot reach either total.
        let totals = n.func_histogram();
        let before: usize = totals.values().sum();
        assert_eq!(before, 11);
        let g8 = n.find_gate("u8").expect("u8");
        n.substitute(g8, SignalRef::Const0).expect("lac");
        let totals = n.func_histogram();
        let after: usize = totals.values().sum();
        assert!(after < before);
    }
}
