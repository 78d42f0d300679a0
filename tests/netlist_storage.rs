//! Equivalence tests for the flat netlist storage.
//!
//! `Netlist` keeps its fan-in rows as one compressed-sparse-row array of
//! packed pin codes, and its cells, row offsets, inputs and names in one
//! structure shared by every clone. These tests drive random netlists
//! through random mutation sequences and compare every observable, the
//! fan-out CSR included, against a naive `Vec<Vec<SignalRef>>` reference
//! model, check that every mutation of a clone leaves its source as it
//! was and the other way round, and pin the Verilog text of every suite
//! circuit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals::circuits::ALL_BENCHMARKS;
use tdals::netlist::cell::{Cell, Drive, ALL_DRIVES, ALL_FUNCS};
use tdals::netlist::{verilog, GateId, Netlist, NetlistError, SignalRef};

/// The obvious representation: one owned row and one owned name per
/// gate, mutated by the textbook algorithms.
#[derive(Clone)]
struct Model {
    names: Vec<String>,
    cells: Vec<Cell>,
    rows: Vec<Vec<SignalRef>>,
    inputs: Vec<GateId>,
    outputs: Vec<(String, SignalRef)>,
}

impl Model {
    fn precedes(gate: GateId, signal: SignalRef) -> bool {
        signal.gate().is_none_or(|src| src < gate)
    }

    fn set_fanin(&mut self, gate: GateId, pin: usize, signal: SignalRef) -> bool {
        if !Model::precedes(gate, signal) {
            return false;
        }
        self.rows[gate.index()][pin] = signal;
        true
    }

    fn set_fanins(&mut self, gate: GateId, row: &[SignalRef]) -> bool {
        if row.len() != self.cells[gate.index()].arity()
            || !row.iter().all(|&s| Model::precedes(gate, s))
        {
            return false;
        }
        self.rows[gate.index()] = row.to_vec();
        true
    }

    fn substitute(&mut self, target: GateId, switch: SignalRef) -> Option<usize> {
        if !Model::precedes(target, switch) {
            return None;
        }
        let old = SignalRef::Gate(target);
        let mut rewritten = 0;
        for row in &mut self.rows {
            for pin in row.iter_mut().filter(|p| **p == old) {
                *pin = switch;
                rewritten += 1;
            }
        }
        for (_, driver) in self.outputs.iter_mut().filter(|(_, d)| *d == old) {
            *driver = switch;
            rewritten += 1;
        }
        Some(rewritten)
    }

    /// Reachability from the POs by fixpoint iteration (no stack, no
    /// topological shortcut), with primary inputs always live.
    fn live(&self) -> Vec<bool> {
        let mut live = vec![false; self.cells.len()];
        for (_, driver) in &self.outputs {
            if let Some(g) = driver.gate() {
                live[g.index()] = true;
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for g in 0..self.rows.len() {
                if !live[g] {
                    continue;
                }
                for src in self.rows[g].iter().filter_map(|s| s.gate()) {
                    if !live[src.index()] {
                        live[src.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        for pi in &self.inputs {
            live[pi.index()] = true;
        }
        live
    }

    fn sweep_dangling(&mut self) -> usize {
        let live = self.live();
        let mut remap = Vec::new();
        let mut next = 0;
        for &l in &live {
            remap.push(GateId::new(next));
            next += usize::from(l);
        }
        let remap_sig = |s: SignalRef| match s {
            SignalRef::Gate(g) => SignalRef::Gate(remap[g.index()]),
            c => c,
        };
        let mut kept = Model {
            names: Vec::new(),
            cells: Vec::new(),
            rows: Vec::new(),
            inputs: self.inputs.iter().map(|pi| remap[pi.index()]).collect(),
            outputs: self
                .outputs
                .iter()
                .map(|(name, d)| (name.clone(), remap_sig(*d)))
                .collect(),
        };
        for g in (0..live.len()).filter(|&g| live[g]) {
            kept.names.push(self.names[g].clone());
            kept.cells.push(self.cells[g]);
            kept.rows
                .push(self.rows[g].iter().map(|&s| remap_sig(s)).collect());
        }
        let removed = self.cells.len() - kept.cells.len();
        *self = kept;
        removed
    }

    /// Reader lists: for each gate, every (reader, pin) reading it, in
    /// ascending reader order.
    fn readers(&self) -> Vec<Vec<GateId>> {
        let mut lists = vec![Vec::new(); self.cells.len()];
        for (reader, row) in self.rows.iter().enumerate() {
            for src in row.iter().filter_map(|s| s.gate()) {
                lists[src.index()].push(GateId::new(reader));
            }
        }
        lists
    }
}

/// A random valid netlist built through the public API, plus the same
/// circuit in the reference model.
fn random_pair(rng: &mut StdRng) -> (Netlist, Model) {
    let mut n = Netlist::new("rand");
    let mut m = Model {
        names: Vec::new(),
        cells: Vec::new(),
        rows: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    for i in 0..rng.gen_range(1..6) {
        let name = format!("x{i}");
        let id = n.add_input(&name);
        m.names.push(name);
        m.cells.push(Cell::input());
        m.rows.push(Vec::new());
        m.inputs.push(id);
    }
    for i in 0..rng.gen_range(0..40) {
        let func = ALL_FUNCS[rng.gen_range(0..ALL_FUNCS.len())];
        let cell = Cell::new(func, ALL_DRIVES[rng.gen_range(0..ALL_DRIVES.len())]);
        let id = GateId::new(m.cells.len());
        let row: Vec<SignalRef> = (0..cell.arity()).map(|_| signal_before(rng, id)).collect();
        let name = format!("u{i}");
        assert_eq!(n.add_gate(&name, cell, &row).expect("valid gate"), id);
        m.names.push(name);
        m.cells.push(cell);
        m.rows.push(row);
    }
    for po in 0..rng.gen_range(1..5) {
        let driver = signal_before(rng, GateId::new(m.cells.len()));
        let name = format!("y{po}");
        n.add_output(&name, driver);
        m.outputs.push((name, driver));
    }
    (n, m)
}

/// A random signal legal as a fan-in of `gate`: a constant now and
/// then, otherwise an older gate.
fn signal_before(rng: &mut StdRng, gate: GateId) -> SignalRef {
    if gate.index() == 0 || rng.gen_bool(0.1) {
        SignalRef::constant(rng.gen_bool(0.5))
    } else {
        SignalRef::Gate(GateId::new(rng.gen_range(0..gate.index())))
    }
}

/// Any signal of the netlist, legal or not for a given gate.
fn any_signal(rng: &mut StdRng, gates: usize) -> SignalRef {
    if rng.gen_bool(0.15) {
        SignalRef::constant(rng.gen_bool(0.5))
    } else {
        SignalRef::Gate(GateId::new(rng.gen_range(0..gates)))
    }
}

/// Asserts every observable of `n` agrees with the model.
fn assert_matches(n: &Netlist, m: &Model, step: &str) {
    n.check_invariants()
        .unwrap_or_else(|e| panic!("{step}: {e}"));
    assert_eq!(n.gate_count(), m.cells.len(), "{step}: gate count");
    assert_eq!(n.inputs(), m.inputs.as_slice(), "{step}: inputs");
    assert_eq!(n.logic_gate_count(), m.cells.len() - m.inputs.len());
    for (id, gate) in n.iter() {
        let i = id.index();
        assert_eq!(gate.name(), m.names[i], "{step}: name of {id}");
        assert_eq!(gate.cell(), m.cells[i], "{step}: cell of {id}");
        assert_eq!(gate.fanins().to_vec(), m.rows[i], "{step}: row of {id}");
        assert_eq!(n.gate(id), gate, "{step}: gate({id}) agrees with iter()");
    }
    let outputs: Vec<(String, SignalRef)> =
        n.outputs().map(|(name, d)| (name.to_owned(), d)).collect();
    assert_eq!(outputs, m.outputs, "{step}: outputs");
    let drivers: Vec<SignalRef> = m.outputs.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        n.output_drivers().collect::<Vec<_>>(),
        drivers,
        "{step}: output drivers"
    );
    for (po, (name, driver)) in m.outputs.iter().enumerate() {
        assert_eq!(n.output_name(po), name);
        assert_eq!(n.output_driver(po), *driver);
    }

    let fanouts = n.fanouts();
    let readers = m.readers();
    let counts = n.fanout_counts();
    for (i, list) in readers.iter().enumerate() {
        let id = GateId::new(i);
        assert_eq!(
            fanouts.readers(id),
            list.as_slice(),
            "{step}: readers of {id}"
        );
        let po_refs = m
            .outputs
            .iter()
            .filter(|(_, d)| d.gate() == Some(id))
            .count();
        assert_eq!(
            counts[i],
            list.len() + po_refs,
            "{step}: fan-out count of {id}"
        );
    }
    assert_eq!(n.live_mask(), m.live(), "{step}: liveness");
}

/// Kinds of mutation [`mutate`] makes.
const MUTATIONS: usize = 8;

/// Applies one random mutation of kind `op` to `n` and to its model `m`,
/// checking that both accept or refuse it alike.
fn mutate(rng: &mut StdRng, n: &mut Netlist, m: &mut Model, op: usize, step: &str) {
    let gates = m.cells.len();
    match op {
        0 => {
            let gate = GateId::new(rng.gen_range(0..gates));
            let arity = m.cells[gate.index()].arity();
            if arity > 0 {
                let pin = rng.gen_range(0..arity);
                let signal = any_signal(rng, gates);
                let ok = n.set_fanin(gate, pin, signal).is_ok();
                assert_eq!(ok, m.set_fanin(gate, pin, signal), "{step}: set_fanin");
            }
        }
        1 => {
            let gate = GateId::new(rng.gen_range(0..gates));
            // Mostly the right arity, sometimes one pin off.
            let arity = m.cells[gate.index()].arity();
            let len = if rng.gen_bool(0.8) { arity } else { arity + 1 };
            let row: Vec<SignalRef> = (0..len).map(|_| any_signal(rng, gates)).collect();
            let got = n.set_fanins(gate, &row);
            let ok = m.set_fanins(gate, &row);
            assert_eq!(got.is_ok(), ok, "{step}: set_fanins");
            if len != arity {
                assert!(matches!(got, Err(NetlistError::ArityMismatch { .. })));
            }
        }
        2 => {
            let target = GateId::new(rng.gen_range(0..gates));
            let switch = any_signal(rng, gates);
            let got = n.substitute(target, switch).ok();
            assert_eq!(got, m.substitute(target, switch), "{step}: substitute");
        }
        3 => {
            // One gate through `set_drive`, or a few through `set_drives`.
            let mut sized: Vec<(GateId, Drive)> = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let gate = GateId::new(rng.gen_range(0..gates));
                if !m.cells[gate.index()].is_input() {
                    sized.push((gate, ALL_DRIVES[rng.gen_range(0..ALL_DRIVES.len())]));
                }
            }
            match sized.as_slice() {
                &[(gate, drive)] => n.set_drive(gate, drive),
                _ => n.set_drives(sized.iter().copied()),
            }
            for (gate, drive) in sized {
                let cell = &mut m.cells[gate.index()];
                *cell = cell.with_drive(drive);
            }
        }
        4 => {
            assert_eq!(n.sweep_dangling(), m.sweep_dangling(), "{step}: sweep");
        }
        5 => {
            let func = ALL_FUNCS[rng.gen_range(0..ALL_FUNCS.len())];
            let cell = Cell::new(func, ALL_DRIVES[rng.gen_range(0..ALL_DRIVES.len())]);
            let id = GateId::new(gates);
            let row: Vec<SignalRef> = (0..cell.arity()).map(|_| signal_before(rng, id)).collect();
            let name = format!("late{gates}");
            let got = n.add_gate(&name, cell, &row).expect("valid gate");
            assert_eq!(got, id, "{step}: add_gate");
            m.names.push(name);
            m.cells.push(cell);
            m.rows.push(row);
        }
        6 => {
            let name = format!("late_x{gates}");
            m.inputs.push(n.add_input(&name));
            m.names.push(name);
            m.cells.push(Cell::input());
            m.rows.push(Vec::new());
            let driver = any_signal(rng, gates + 1);
            let name = format!("late_y{}", m.outputs.len());
            n.add_output(&name, driver);
            m.outputs.push((name, driver));
        }
        _ => {
            let po = rng.gen_range(0..m.outputs.len());
            let driver = any_signal(rng, gates);
            n.set_output_driver(po, driver);
            m.outputs[po].1 = driver;
        }
    }
}

#[test]
fn random_mutation_sequences_match_the_reference_model() {
    for seed in 0..60 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut n, mut m) = random_pair(&mut rng);
        assert_matches(&n, &m, &format!("seed {seed} build"));
        for op in 0..30 {
            let step = format!("seed {seed} op {op}");
            let kind = rng.gen_range(0..MUTATIONS);
            mutate(&mut rng, &mut n, &mut m, kind, &step);
            assert_matches(&n, &m, &step);
        }
    }
}

/// Every kind of mutation, made on a clone, leaves its source as it
/// was, and made on the source leaves the clone as it was: pin rewrites
/// touch only the mutated copy's own pins, and the mutations of the
/// shared structure (sizing, growth, sweeping) copy it first.
#[test]
fn each_mutation_of_a_clone_or_its_source_leaves_the_other_untouched() {
    for seed in 0..30 {
        for kind in 0..MUTATIONS {
            for on_source in [false, true] {
                let mut rng = StdRng::seed_from_u64(2000 + seed);
                let (source, model) = random_pair(&mut rng);
                let copy = source.clone();
                let (mut changed, kept) = if on_source {
                    (source, copy)
                } else {
                    (copy, source)
                };
                let which = if on_source { "source" } else { "clone" };
                let step = format!("seed {seed} kind {kind} on the {which}");
                let mut changed_model = model.clone();
                for _ in 0..6 {
                    mutate(&mut rng, &mut changed, &mut changed_model, kind, &step);
                }
                assert_matches(&changed, &changed_model, &step);
                assert_matches(&kept, &model, &format!("{step}: the other copy"));
            }
        }
    }
}

#[test]
fn a_mutated_clone_leaves_its_source_untouched() {
    for seed in 0..40 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let (source, model) = random_pair(&mut rng);
        let text = verilog::to_verilog(&source);
        let mut copy = source.clone();
        assert_eq!(copy, source);
        let gates = copy.gate_count();
        for _ in 0..10 {
            let target = GateId::new(rng.gen_range(0..gates));
            let _ = copy.substitute(target, any_signal(&mut rng, gates));
            let gate = GateId::new(rng.gen_range(0..gates));
            if !copy.gate(gate).is_input() {
                copy.set_drive(gate, Drive::X8);
                let row = vec![any_signal(&mut rng, gates); copy.gate(gate).cell().arity()];
                let _ = copy.set_fanins(gate, row);
            }
        }
        copy.set_output_driver(0, SignalRef::Const1);
        copy.set_name("renamed");
        copy.add_output("extra", SignalRef::Const0);
        copy.add_input("late");
        copy.sweep_dangling();
        assert_matches(
            &source,
            &model,
            &format!("seed {seed} source after clone edits"),
        );
        assert_eq!(verilog::to_verilog(&source), text);
    }
}

/// FNV-1a, 64-bit, of the Verilog text of every suite circuit, in
/// [`ALL_BENCHMARKS`] order. Recorded before the netlist moved to flat
/// storage, so generators, storage and writer together must keep
/// emitting these exact bytes. The reader keeps the order of a file
/// that is already topologically sorted, so writing a parsed file
/// gives the same bytes again.
const VERILOG_DIGESTS: [u64; 15] = [
    0xafb2_dea8_45fd_c563, // Cavlc
    0x57cd_15e7_2eff_b32f, // C880
    0xa277_e0d0_502d_b571, // C1908
    0x65fa_f9e2_2f4a_2391, // C2670
    0x7eb0_9461_cdbf_23da, // C3540
    0xa334_8b8b_019c_99d7, // C5315
    0x8083_61ce_6179_3a78, // C7552
    0x8016_ca56_1338_a57d, // Int2float
    0xb7be_0350_e3ff_b495, // Adder16
    0xfbc5_4251_f46d_e35c, // Max16
    0x806f_cd4a_229b_4d68, // C6288
    0x291e_9d20_45c2_1fb0, // Adder
    0xf56c_38a6_6fd7_b925, // Max
    0x1da2_bd1f_9316_11fe, // Sin
    0x207c_ccbe_18be_e35a, // Sqrt
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn suite_verilog_and_its_round_trip_are_pinned() {
    let mut mismatches = Vec::new();
    for (bench, want) in ALL_BENCHMARKS.into_iter().zip(VERILOG_DIGESTS) {
        let text = verilog::to_verilog(&bench.build());
        let again = verilog::to_verilog(&verilog::parse(&text).expect("suite Verilog parses"));
        let got = fnv(text.as_bytes());
        if got != want {
            mismatches.push(format!("{bench:?}: got {got:#018x}, pinned {want:#018x}"));
        }
        if again != text {
            mismatches.push(format!("{bench:?}: the round trip rewrote the text"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
