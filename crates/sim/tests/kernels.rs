//! Exactness of the fast similarity, flip-rate and NMED kernels.
//!
//! `diff_count` and `po_flip_rates` read gate rows directly and `nmed`
//! walks transposed words; all must return exactly what the plain
//! per-word scans return — the same count, and the same `f64` bits. The scans are kept
//! here as oracles and compared on random netlists for every evaluator
//! (`SimResult`, `DeltaSim`, `DeltaView`), every gate/constant pairing,
//! and vector counts around the word boundaries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_netlist::cell::{Cell, Drive, ALL_FUNCS};
use tdals_netlist::{GateId, Netlist, SignalRef};
use tdals_sim::{nmed, po_flip_rates, simulate, DeltaSim, Patterns, SimWords};

const VECTOR_COUNTS: [usize; 5] = [1, 63, 64, 65, 4095];

/// A random netlist over `inputs` PIs and `gates` gates (every cell
/// function, occasional constant pins) with `outputs` POs, most driven
/// by late gates and a few by a PI or a constant.
fn random_netlist(inputs: usize, gates: usize, outputs: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new(format!("rand_{seed:x}"));
    let mut signals: Vec<SignalRef> = Vec::new();
    for i in 0..inputs {
        signals.push(n.add_input(format!("i{i}")).into());
    }
    for g in 0..gates {
        let func = ALL_FUNCS[g % ALL_FUNCS.len()];
        let fanins: Vec<SignalRef> = (0..func.arity())
            .map(|_| match rng.gen_range(0..12) {
                0 => SignalRef::Const0,
                1 => SignalRef::Const1,
                _ => signals[rng.gen_range(0..signals.len())],
            })
            .collect();
        let id = n
            .add_gate(format!("g{g}"), Cell::new(func, Drive::X1), fanins)
            .expect("arity matches function");
        signals.push(id.into());
    }
    for po in 0..outputs {
        let driver = match rng.gen_range(0..16) {
            0 => SignalRef::Const0,
            1 => SignalRef::Const1,
            2 => signals[rng.gen_range(0..inputs)],
            _ => signals[rng.gen_range(signals.len() / 2..signals.len())],
        };
        n.add_output(format!("o{po}"), driver);
    }
    n
}

/// A random legal substitution: a logic gate and an earlier signal or
/// a constant.
fn random_lac(n: &Netlist, rng: &mut StdRng) -> (GateId, SignalRef) {
    let inputs = n.input_count();
    let target = GateId::new(rng.gen_range(inputs..n.gate_count()));
    let switch = match rng.gen_range(0..4) {
        0 => SignalRef::Const0,
        1 => SignalRef::Const1,
        _ => GateId::new(rng.gen_range(0..target.index())).into(),
    };
    (target, switch)
}

/// The per-word scan: masked words, XOR, popcount.
fn diff_count_per_word<V: SimWords>(v: &V, a: SignalRef, b: SignalRef) -> usize {
    (0..v.word_count())
        .map(|w| (v.signal_word(a, w) ^ v.signal_word(b, w)).count_ones() as usize)
        .sum()
}

/// NMED by a scan over every PO for each differing vector of each
/// word, in the defining summation order.
fn nmed_per_word<A: SimWords, B: SimWords>(ori: &A, app: &B) -> f64 {
    let n_out = ori.output_count();
    let max_value = (2f64).powi(n_out as i32) - 1.0;
    let weights: Vec<f64> = (0..n_out)
        .map(|j| (2f64).powi(j as i32) / max_value)
        .collect();
    let mut total = 0f64;
    for w in 0..ori.word_count() {
        let diffs: Vec<u64> = (0..n_out)
            .map(|po| ori.po_word(po, w) ^ app.po_word(po, w))
            .collect();
        let oris: Vec<u64> = (0..n_out).map(|po| ori.po_word(po, w)).collect();
        let mut remaining: u64 = diffs.iter().fold(0, |acc, d| acc | d);
        while remaining != 0 {
            let bit = remaining.trailing_zeros();
            remaining &= remaining - 1;
            let mask = 1u64 << bit;
            let mut signed = 0f64;
            for j in 0..n_out {
                if diffs[j] & mask != 0 {
                    if oris[j] & mask != 0 {
                        signed += weights[j];
                    } else {
                        signed -= weights[j];
                    }
                }
            }
            total += signed.abs();
        }
    }
    total / ori.vector_count() as f64
}

/// Per-PO flip rates by a masked per-word XOR popcount.
fn po_flip_rates_per_word<A: SimWords, B: SimWords>(ori: &A, app: &B) -> Vec<f64> {
    (0..ori.output_count())
        .map(|po| {
            let diff: usize = (0..ori.word_count())
                .map(|w| (ori.po_word(po, w) ^ app.po_word(po, w)).count_ones() as usize)
                .sum();
            diff as f64 / ori.vector_count() as f64
        })
        .collect()
}

/// Checks `diff_count` against the per-word scan on a sample of
/// signals that always includes both constants and a primary input.
fn check_diff_counts<V: SimWords>(v: &V, n: &Netlist, rng: &mut StdRng, label: &str) {
    let mut signals = vec![
        SignalRef::Const0,
        SignalRef::Const1,
        SignalRef::from(n.inputs()[0]),
    ];
    for _ in 0..12 {
        signals.push(GateId::new(rng.gen_range(0..n.gate_count())).into());
    }
    for &a in &signals {
        for &b in &signals {
            assert_eq!(
                v.diff_count(a, b),
                diff_count_per_word(v, a, b),
                "{label}: diff_count({a:?}, {b:?})"
            );
        }
    }
}

#[test]
fn diff_count_matches_the_per_word_scan() {
    let mut rng = StdRng::seed_from_u64(9);
    for (case, &vectors) in VECTOR_COUNTS.iter().enumerate() {
        let n = random_netlist(7, 60, 10, case as u64);
        let p = Patterns::random(n.input_count(), vectors, case as u64 + 100);
        let label = format!("{vectors} vectors");
        check_diff_counts(
            &simulate(&n, &p),
            &n,
            &mut rng,
            &format!("SimResult, {label}"),
        );
        let mut delta = DeltaSim::new(n.clone(), &p);
        for _ in 0..3 {
            let (target, switch) = random_lac(delta.netlist(), &mut rng);
            delta.substitute(target, switch).expect("legal LAC");
        }
        check_diff_counts(&delta, &n, &mut rng, &format!("DeltaSim, {label}"));
        for _ in 0..3 {
            let (target, switch) = random_lac(delta.netlist(), &mut rng);
            let view = delta.preview(target, switch);
            check_diff_counts(&view, &n, &mut rng, &format!("DeltaView, {label}"));
        }
    }
}

#[test]
fn nmed_is_bit_identical_to_the_per_word_scan() {
    let mut rng = StdRng::seed_from_u64(13);
    // 64 is the widest transposed case; 65 takes the per-PO path.
    for outputs in [1, 25, 64, 65] {
        for (case, &vectors) in VECTOR_COUNTS.iter().enumerate() {
            let seed = (outputs * 10 + case) as u64;
            let n = random_netlist(8, 120, outputs, seed);
            let p = Patterns::random(n.input_count(), vectors, seed + 1);
            let golden = simulate(&n, &p);
            let mut delta = DeltaSim::new(n.clone(), &p);
            for step in 0..4 {
                let (target, switch) = random_lac(delta.netlist(), &mut rng);
                let label = format!("{outputs} POs, {vectors} vectors, step {step}");
                let view = delta.preview(target, switch);
                assert_eq!(
                    nmed(&golden, &view).to_bits(),
                    nmed_per_word(&golden, &view).to_bits(),
                    "{label}: DeltaView"
                );
                delta.substitute(target, switch).expect("legal LAC");
                let full = simulate(delta.netlist(), &p);
                assert_eq!(
                    nmed(&golden, &full).to_bits(),
                    nmed_per_word(&golden, &full).to_bits(),
                    "{label}: SimResult"
                );
                assert_eq!(
                    nmed(&golden, &delta).to_bits(),
                    nmed_per_word(&golden, &delta).to_bits(),
                    "{label}: DeltaSim"
                );
            }
        }
    }
}

/// Every PO, constant and primary-input drivers included, against a
/// preview, a committed state and a full simulation of it.
#[test]
fn po_flip_rates_are_bit_identical_to_the_per_word_scan() {
    let mut rng = StdRng::seed_from_u64(17);
    for (case, &vectors) in VECTOR_COUNTS.iter().enumerate() {
        let n = random_netlist(7, 80, 24, case as u64 + 40);
        let p = Patterns::random(n.input_count(), vectors, case as u64 + 41);
        let golden = simulate(&n, &p);
        let mut delta = DeltaSim::new(n.clone(), &p);
        for step in 0..4 {
            let (target, switch) = random_lac(delta.netlist(), &mut rng);
            let label = format!("{vectors} vectors, step {step}");
            let bits =
                |rates: Vec<f64>| -> Vec<u64> { rates.iter().map(|r| r.to_bits()).collect() };
            let view = delta.preview(target, switch);
            assert_eq!(
                bits(po_flip_rates(&golden, &view)),
                bits(po_flip_rates_per_word(&golden, &view)),
                "{label}: DeltaView"
            );
            delta.substitute(target, switch).expect("legal LAC");
            let full = simulate(delta.netlist(), &p);
            for (name, rates, oracle) in [
                (
                    "SimResult",
                    po_flip_rates(&golden, &full),
                    po_flip_rates_per_word(&golden, &full),
                ),
                (
                    "DeltaSim",
                    po_flip_rates(&full, &delta),
                    po_flip_rates_per_word(&full, &delta),
                ),
            ] {
                assert_eq!(bits(rates), bits(oracle), "{label}: {name}");
            }
        }
    }
}
