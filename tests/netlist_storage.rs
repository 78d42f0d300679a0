//! Equivalence tests for the flat netlist storage.
//!
//! `Netlist` keeps its cells, fan-in rows and names in parallel arrays
//! (a compressed-sparse-row pin array plus shared name tables). These
//! tests drive random netlists through random mutation sequences and
//! compare every observable, the fan-out CSR included, against a naive
//! `Vec<Vec<SignalRef>>` reference model, check that a clone is
//! independent of its source, and pin the Verilog text of every suite
//! circuit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals::circuits::ALL_BENCHMARKS;
use tdals::netlist::cell::{Cell, Drive, ALL_DRIVES, ALL_FUNCS};
use tdals::netlist::{verilog, GateId, Netlist, NetlistError, SignalRef};

/// The obvious representation: one owned row and one owned name per
/// gate, mutated by the textbook algorithms.
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
        assert_eq!(gate.fanins(), m.rows[i].as_slice(), "{step}: row of {id}");
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

#[test]
fn random_mutation_sequences_match_the_reference_model() {
    for seed in 0..60 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut n, mut m) = random_pair(&mut rng);
        assert_matches(&n, &m, &format!("seed {seed} build"));
        for op in 0..30 {
            let gates = m.cells.len();
            let step = format!("seed {seed} op {op}");
            match rng.gen_range(0..5) {
                0 => {
                    let gate = GateId::new(rng.gen_range(0..gates));
                    let arity = m.cells[gate.index()].arity();
                    if arity > 0 {
                        let pin = rng.gen_range(0..arity);
                        let signal = any_signal(&mut rng, gates);
                        let ok = n.set_fanin(gate, pin, signal).is_ok();
                        assert_eq!(ok, m.set_fanin(gate, pin, signal), "{step}: set_fanin");
                    }
                }
                1 => {
                    let gate = GateId::new(rng.gen_range(0..gates));
                    // Mostly the right arity, sometimes one pin off.
                    let arity = m.cells[gate.index()].arity();
                    let len = if rng.gen_bool(0.8) { arity } else { arity + 1 };
                    let row: Vec<SignalRef> =
                        (0..len).map(|_| any_signal(&mut rng, gates)).collect();
                    let got = n.set_fanins(gate, &row);
                    let ok = m.set_fanins(gate, &row);
                    assert_eq!(got.is_ok(), ok, "{step}: set_fanins");
                    if len != arity {
                        assert!(matches!(got, Err(NetlistError::ArityMismatch { .. })));
                    }
                }
                2 => {
                    let target = GateId::new(rng.gen_range(0..gates));
                    let switch = any_signal(&mut rng, gates);
                    let got = n.substitute(target, switch).ok();
                    assert_eq!(got, m.substitute(target, switch), "{step}: substitute");
                }
                3 => {
                    let gate = GateId::new(rng.gen_range(0..gates));
                    if !m.cells[gate.index()].is_input() {
                        let drive: Drive = ALL_DRIVES[rng.gen_range(0..ALL_DRIVES.len())];
                        n.set_drive(gate, drive);
                        let cell = &mut m.cells[gate.index()];
                        *cell = cell.with_drive(drive);
                    }
                }
                _ => {
                    assert_eq!(n.sweep_dangling(), m.sweep_dangling(), "{step}: sweep");
                }
            }
            assert_matches(&n, &m, &step);
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
/// [`ALL_BENCHMARKS`] order: `(written, written after one parse)`.
/// Recorded before the netlist moved to flat storage, so generators,
/// storage, writer and reader together must keep emitting these exact
/// bytes. (The reader orders instances topologically its own way, so
/// the re-emitted text differs from the first; both are pinned.)
const VERILOG_DIGESTS: [(u64, u64); 15] = [
    (0xafb2_dea8_45fd_c563, 0xb0e3_94cc_1d50_b40b), // Cavlc
    (0x57cd_15e7_2eff_b32f, 0x0aef_6ae2_6810_4d8a), // C880
    (0xa277_e0d0_502d_b571, 0x846b_3549_8547_d92c), // C1908
    (0x65fa_f9e2_2f4a_2391, 0xb23d_d202_6b6c_c592), // C2670
    (0x7eb0_9461_cdbf_23da, 0x2378_fce8_b1ef_acd2), // C3540
    (0xa334_8b8b_019c_99d7, 0x4791_9489_c7d0_9fe8), // C5315
    (0x8083_61ce_6179_3a78, 0x5b48_221b_6a61_06de), // C7552
    (0x8016_ca56_1338_a57d, 0x5ecd_bbd5_a020_bf7d), // Int2float
    (0xb7be_0350_e3ff_b495, 0xbf31_d47c_07c9_9bbb), // Adder16
    (0xfbc5_4251_f46d_e35c, 0xf3cc_5337_606b_866d), // Max16
    (0x806f_cd4a_229b_4d68, 0xb536_537c_fcf1_78ed), // C6288
    (0x291e_9d20_45c2_1fb0, 0x168f_c3fe_400e_b4af), // Adder
    (0xf56c_38a6_6fd7_b925, 0x4aca_40ab_c0b6_8bfb), // Max
    (0x1da2_bd1f_9316_11fe, 0x652b_6591_4697_08df), // Sin
    (0x207c_ccbe_18be_e35a, 0x695a_d4c4_4edb_4a5e), // Sqrt
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
        let got = (fnv(text.as_bytes()), fnv(again.as_bytes()));
        if got != want {
            mismatches.push(format!("{bench:?}: got {got:#018x?}, pinned {want:#018x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
