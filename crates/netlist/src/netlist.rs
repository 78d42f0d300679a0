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
use std::sync::Arc;

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
    #[inline]
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

/// Read-only view of one gate: a cell plus its fan-in adjacency row.
///
/// The netlist stores gates as parallel arrays (see [`Netlist`]), so a
/// gate is not an object of its own; [`Netlist::gate`] and
/// [`Netlist::iter`] hand out this `Copy` view instead. The slices and
/// names it returns borrow from the netlist, not from the view, so
/// `netlist.gate(id).fanins()` outlives the temporary view.
#[derive(Clone, Copy)]
pub struct Gate<'a> {
    names: &'a Names,
    id: GateId,
    cell: Cell,
    fanins: &'a [SignalRef],
}

impl<'a> Gate<'a> {
    /// Instance name (unique within the netlist).
    pub fn name(self) -> &'a str {
        self.names.get(self.id.index())
    }

    /// Library cell instantiated by this gate.
    #[inline]
    pub fn cell(self) -> Cell {
        self.cell
    }

    /// Fan-in adjacency row, one entry per input pin.
    #[inline]
    pub fn fanins(self) -> &'a [SignalRef] {
        self.fanins
    }

    /// `true` if this gate is a primary input.
    #[inline]
    pub fn is_input(self) -> bool {
        self.cell.is_input()
    }
}

impl fmt::Debug for Gate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("name", &self.name())
            .field("cell", &self.cell)
            .field("fanins", &self.fanins())
            .finish()
    }
}

impl PartialEq for Gate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell && self.fanins() == other.fanins() && self.name() == other.name()
    }
}

/// A named primary output and the signal driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    driver: SignalRef,
}

/// An append-only table of names packed into one string: name `i` is
/// `text[bounds[i]..bounds[i + 1]]`: two allocations however many
/// names it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Names {
    text: String,
    bounds: Vec<u32>,
}

impl Names {
    fn new() -> Names {
        Names {
            text: String::new(),
            bounds: vec![0],
        }
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.bounds
            .push(u32::try_from(self.text.len()).expect("name table exceeds u32::MAX bytes"));
    }

    #[inline]
    fn get(&self, i: usize) -> &str {
        &self.text[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// The names whose `keep` flag is set, in order, packed afresh.
    fn retain(&self, keep: &[bool]) -> Names {
        let mut kept = Names::new();
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            kept.push(self.get(i));
        }
        kept
    }
}

/// Gate fan-out rows in compressed sparse row form: for every gate,
/// the gates reading its output, ascending, one entry per reading pin
/// (a gate that reads a driver on two pins is listed twice).
///
/// Primary-output references are not included; combine with
/// [`Netlist::outputs`] when they matter. Built by
/// [`Netlist::fanouts`] in two counting passes over the fan-in rows; a
/// snapshot, so it goes stale when the netlist is rewired.
///
/// # Examples
///
/// ```
/// use tdals_netlist::{GateId, Netlist};
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
///
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let g = n.add_gate("u", Cell::new(CellFunc::And2, Drive::X1), [a.into(), a.into()])?;
/// let fanouts = n.fanouts();
/// assert_eq!(fanouts.readers(a), &[g, g]);
/// assert!(fanouts.readers(g).is_empty());
/// # Ok::<(), tdals_netlist::NetlistError>(())
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Fanouts {
    /// `readers[start[g]..start[g + 1]]` read gate `g`.
    start: Vec<u32>,
    readers: Vec<GateId>,
}

impl Clone for Fanouts {
    fn clone(&self) -> Fanouts {
        Fanouts {
            start: self.start.clone(),
            readers: self.readers.clone(),
        }
    }

    /// Copies `source`'s rows into this value's buffers: no allocation
    /// once they have held rows of this size.
    fn clone_from(&mut self, source: &Fanouts) {
        self.start.clone_from(&source.start);
        self.readers.clone_from(&source.readers);
    }
}

impl Fanouts {
    /// The gates reading `driver`'s output, ascending, one per pin.
    ///
    /// # Panics
    ///
    /// Panics if `driver` is out of bounds.
    #[inline]
    pub fn readers(&self, driver: GateId) -> &[GateId] {
        let i = driver.index();
        &self.readers[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// A combinational gate-level netlist in fan-in adjacency form.
///
/// # Storage
///
/// Gates live in parallel arrays indexed by [`GateId`]: one `Vec` of
/// cells, and all fan-in rows back to back in one pin array with an
/// offsets array (`pins[start[g]..start[g + 1]]` is gate `g`'s row, the
/// compressed-sparse-row layout). Gate and output names sit in
/// reference-counted side tables, which only Verilog I/O and
/// diagnostics need, so a clone copies five flat arrays plus the module
/// name and only bumps a refcount for the names. Rows never change length after
/// [`Netlist::add_gate`]: every rewrite ([`Netlist::set_fanin`],
/// [`Netlist::set_fanins`], [`Netlist::substitute`]) keeps a gate's
/// arity, so edits are in place.
///
/// [`Netlist::gate`] and [`Netlist::iter`] return [`Gate`] views into
/// these arrays; [`Netlist::fanouts`] builds the reverse adjacency.
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
    /// Cell of each gate.
    cells: Vec<Cell>,
    /// Row offsets into `pins`: `cells.len() + 1` entries, from 0.
    start: Vec<u32>,
    /// Every fan-in row, back to back in id order.
    pins: Vec<SignalRef>,
    names: Arc<Names>,
    inputs: Vec<GateId>,
    output_names: Arc<Names>,
    outputs: Vec<Output>,
}

/// Rejects any gate fan-in of `gate` that does not precede it.
fn check_order(gate: GateId, fanins: &[SignalRef]) -> Result<(), NetlistError> {
    for &fanin in fanins {
        if let SignalRef::Gate(src) = fanin {
            if src >= gate {
                return Err(NetlistError::FaninOrder { gate, fanin: src });
            }
        }
    }
    Ok(())
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            start: vec![0],
            pins: Vec::new(),
            names: Arc::new(Names::new()),
            inputs: Vec::new(),
            output_names: Arc::new(Names::new()),
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

    /// Fan-in row of gate index `i`.
    #[inline]
    fn row(&self, i: usize) -> &[SignalRef] {
        &self.pins[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Mutable fan-in row of gate index `i`.
    fn row_mut(&mut self, i: usize) -> &mut [SignalRef] {
        &mut self.pins[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Appends a gate whose row has already been validated.
    fn push_gate(&mut self, name: &str, cell: Cell, fanins: &[SignalRef]) -> GateId {
        let id = GateId::new(self.cells.len());
        self.cells.push(cell);
        self.pins.extend_from_slice(fanins);
        self.start
            .push(u32::try_from(self.pins.len()).expect("pin count exceeds u32::MAX"));
        Arc::make_mut(&mut self.names).push(name);
        id
    }

    /// Adds a primary input and returns its gate id.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> GateId {
        let id = self.push_gate(name.as_ref(), Cell::input(), &[]);
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
        name: impl AsRef<str>,
        cell: Cell,
        fanins: impl AsRef<[SignalRef]>,
    ) -> Result<GateId, NetlistError> {
        let fanins = fanins.as_ref();
        let id = GateId::new(self.cells.len());
        if fanins.len() != cell.arity() {
            return Err(NetlistError::ArityMismatch {
                gate: id,
                cell,
                expected: cell.arity(),
                actual: fanins.len(),
            });
        }
        check_order(id, fanins)?;
        Ok(self.push_gate(name.as_ref(), cell, fanins))
    }

    /// Declares a primary output driven by `driver`.
    pub fn add_output(&mut self, name: impl AsRef<str>, driver: SignalRef) {
        Arc::make_mut(&mut self.output_names).push(name.as_ref());
        self.outputs.push(Output { driver });
    }

    /// Total number of gates including primary-input pseudo-gates.
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of logic gates (excludes primary inputs).
    pub fn logic_gate_count(&self) -> usize {
        self.cells.len() - self.inputs.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// A view of the gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        let i = id.index();
        Gate {
            names: &self.names,
            id,
            cell: self.cells[i],
            fanins: self.row(i),
        }
    }

    /// Iterates over `(id, gate)` pairs in topological (id) order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> {
        // Rows are back to back in id order, so peel them off the pin
        // array front to back instead of indexing `start` per gate.
        let mut rest = self.pins.as_slice();
        let ends = self.start[1..].iter();
        let mut row_start = 0;
        self.cells
            .iter()
            .zip(ends)
            .enumerate()
            .map(move |(i, (&cell, &end))| {
                let (fanins, tail) = rest.split_at(end as usize - row_start);
                rest = tail;
                row_start = end as usize;
                let id = GateId::new(i);
                (
                    id,
                    Gate {
                        names: &self.names,
                        id,
                        cell,
                        fanins,
                    },
                )
            })
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
    #[inline]
    pub fn output_driver(&self, po: usize) -> SignalRef {
        self.outputs[po].driver
    }

    /// Name of primary output `po`.
    ///
    /// # Panics
    ///
    /// Panics if `po` is out of bounds.
    pub fn output_name(&self, po: usize) -> &str {
        self.output_names.get(po)
    }

    /// Iterates over `(name, driver)` of all primary outputs.
    #[inline]
    pub fn outputs(&self) -> impl Iterator<Item = (&str, SignalRef)> {
        self.outputs
            .iter()
            .enumerate()
            .map(|(po, o)| (self.output_names.get(po), o.driver))
    }

    /// Iterates over the signals driving the primary outputs, in
    /// declaration order: [`Netlist::outputs`] without the name lookup,
    /// for the per-candidate paths that read only drivers.
    #[inline]
    pub fn output_drivers(&self) -> impl Iterator<Item = SignalRef> + '_ {
        self.outputs.iter().map(|o| o.driver)
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
        check_order(gate, &[signal])?;
        self.row_mut(gate.index())[pin] = signal;
        Ok(())
    }

    /// Replaces the whole fan-in row of a gate (used by circuit
    /// reproduction, which copies adjacency rows between population
    /// members). The row is overwritten in place.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] or
    /// [`NetlistError::FaninOrder`] under the same conditions as
    /// [`Netlist::add_gate`].
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of bounds.
    pub fn set_fanins(
        &mut self,
        gate: GateId,
        fanins: impl AsRef<[SignalRef]>,
    ) -> Result<(), NetlistError> {
        let fanins = fanins.as_ref();
        let cell = self.cells[gate.index()];
        if fanins.len() != cell.arity() {
            return Err(NetlistError::ArityMismatch {
                gate,
                cell,
                expected: cell.arity(),
                actual: fanins.len(),
            });
        }
        check_order(gate, fanins)?;
        self.row_mut(gate.index()).copy_from_slice(fanins);
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
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of bounds.
    pub fn substitute(&mut self, target: GateId, switch: SignalRef) -> Result<usize, NetlistError> {
        check_order(target, &[switch])?;
        let old = SignalRef::Gate(target);
        let mut rewritten = 0;
        // Only gates after `target` can read it (topological ids).
        let first = self.start[target.index() + 1] as usize;
        for fanin in &mut self.pins[first..] {
            if *fanin == old {
                *fanin = switch;
                rewritten += 1;
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
        let cell = &mut self.cells[gate.index()];
        assert!(!cell.is_input(), "cannot size a primary input");
        *cell = cell.with_drive(drive);
    }

    /// Number of fan-in references (gate pins plus PO drivers) fed by each
    /// gate.
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cells.len()];
        let drivers = self
            .pins
            .iter()
            .chain(self.outputs.iter().map(|o| &o.driver));
        for signal in drivers {
            if let SignalRef::Gate(src) = signal {
                counts[src.index()] += 1;
            }
        }
        counts
    }

    /// For each gate, the gates reading its output, as a [`Fanouts`]
    /// CSR (ascending, one entry per pin; PO readers not included).
    ///
    /// Two counting passes over the fan-in rows, O(gates + pins), two
    /// allocations.
    pub fn fanouts(&self) -> Fanouts {
        let mut fanouts = Fanouts {
            start: Vec::new(),
            readers: Vec::new(),
        };
        self.fanouts_into(&mut fanouts);
        fanouts
    }

    /// [`Netlist::fanouts`] written into an existing [`Fanouts`], whose
    /// buffers are reused: no allocation once they have held rows of
    /// this size.
    pub fn fanouts_into(&self, fanouts: &mut Fanouts) {
        let n = self.cells.len();
        let Fanouts { start, readers } = fanouts;
        // Pass 1: count readers per driver into `start[driver + 1]`.
        start.clear();
        start.resize(n + 1, 0);
        for fanin in &self.pins {
            if let SignalRef::Gate(src) = fanin {
                start[src.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Pass 2: scatter readers in ascending reader order, using
        // `start[driver]` as the fill cursor; afterwards each cursor
        // sits on the next row's start, so shifting restores the offsets.
        readers.clear();
        readers.resize(start[n] as usize, GateId::new(0));
        for reader in 0..n {
            for fanin in self.row(reader) {
                if let SignalRef::Gate(src) = fanin {
                    let cursor = &mut start[src.index()];
                    readers[*cursor as usize] = GateId::new(reader);
                    *cursor += 1;
                }
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
    }

    /// Marks gates transitively reachable from any primary output
    /// (`true` = live). Primary inputs are always considered live.
    ///
    /// Dangling (dead) gates are the by-product of substitutions; the
    /// paper subtracts their area from `Area_app` and deletes them in
    /// post-optimization.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.cells.len()];
        for out in &self.outputs {
            if let SignalRef::Gate(src) = out.driver {
                live[src.index()] = true;
            }
        }
        // Fan-ins have smaller ids than their readers, so one descending
        // pass reaches a gate only after every reader that could make it
        // live.
        for i in (0..self.cells.len()).rev() {
            if live[i] {
                for fanin in self.row(i) {
                    if let SignalRef::Gate(src) = fanin {
                        live[src.index()] = true;
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
        self.cells.iter().map(|c| c.area()).sum()
    }

    /// Area in µm² of gates reachable from a primary output
    /// (`Area_app` in the paper: dangling gates do not count).
    pub fn area_live(&self) -> f64 {
        let live = self.live_mask();
        self.cells
            .iter()
            .zip(&live)
            .filter(|(_, &l)| l)
            .map(|(c, _)| c.area())
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
        let mut remap: Vec<Option<GateId>> = vec![None; self.cells.len()];
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
        let mut cells = Vec::with_capacity(next);
        let mut start = Vec::with_capacity(next + 1);
        let mut pins = Vec::new();
        start.push(0);
        for (i, &keep) in live.iter().enumerate() {
            if keep {
                cells.push(self.cells[i]);
                pins.extend(self.row(i).iter().map(|&f| remap_sig(f)));
                start.push(u32::try_from(pins.len()).expect("pin count exceeds u32::MAX"));
            }
        }
        self.cells = cells;
        self.start = start;
        self.pins = pins;
        self.names = Arc::new(self.names.retain(&live));
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
        let mut mask = vec![false; self.cells.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for fanin in self.row(id.index()) {
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
        let fanouts = self.fanouts();
        let mut mask = vec![false; self.cells.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &dst in fanouts.readers(id) {
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
        let mut mask = vec![false; self.cells.len()];
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
            for fanin in self.row(id.index()) {
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
        let mut is_pi = vec![false; self.cells.len()];
        for &pi in &self.inputs {
            if pi.index() >= self.cells.len() {
                return Err(NetlistError::UnknownGate { gate: pi });
            }
            is_pi[pi.index()] = true;
        }
        for (id, gate) in self.iter() {
            let cell = gate.cell();
            if cell.is_input() != is_pi[id.index()] {
                return Err(NetlistError::MalformedInput { gate: id });
            }
            if gate.fanins().len() != cell.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: id,
                    cell,
                    expected: cell.arity(),
                    actual: gate.fanins().len(),
                });
            }
            check_order(id, gate.fanins())?;
        }
        for out in &self.outputs {
            if let SignalRef::Gate(src) = out.driver {
                if src.index() >= self.cells.len() {
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
        let fanouts = n.fanouts();
        for (id, _) in n.iter() {
            let po_fanout = n
                .outputs()
                .filter(|(_, d)| *d == SignalRef::Gate(id))
                .count();
            assert_eq!(counts[id.index()], fanouts.readers(id).len() + po_fanout);
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
