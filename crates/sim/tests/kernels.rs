//! Exactness of the fast similarity, flip-rate, error-rate and NMED
//! kernels.
//!
//! `diff_count`, `po_flip_rates` and `error_rate` read gate rows
//! directly and must return exactly what the plain per-word scans
//! return — the same count, and the same `f64` bits. `nmed` subtracts
//! bit-sliced PO rows and must equal an independent oracle that sums
//! `|V_ori − V_app|` one vector at a time in exact integers. The oracles
//! are compared on random netlists for every evaluator (`SimResult`,
//! `DeltaSim`, `DeltaView`), every gate/constant pairing, and vector
//! counts around the word boundaries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdals_netlist::cell::{Cell, Drive, ALL_FUNCS};
use tdals_netlist::{GateId, Netlist, SignalRef};
use tdals_sim::{error_rate, nmed, po_flip_rates, simulate, DeltaSim, Patterns, SimWords};

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

/// The PO values of every vector as little-endian 64-bit limbs, read
/// one masked word at a time.
fn po_values<V: SimWords>(v: &V) -> Vec<Vec<u64>> {
    let n_out = v.output_count();
    let words: Vec<Vec<u64>> = (0..n_out)
        .map(|po| (0..v.word_count()).map(|w| v.po_word(po, w)).collect())
        .collect();
    (0..v.vector_count())
        .map(|vector| {
            let mut limbs = vec![0u64; n_out.div_ceil(64)];
            for (po, row) in words.iter().enumerate() {
                let bit = row[vector / 64] >> (vector % 64) & 1;
                limbs[po / 64] |= bit << (po % 64);
            }
            limbs
        })
        .collect()
}

/// `Σ |V_ori − V_app|` over all vectors, as an exact integer in `u128`
/// limbs: each vector's larger value minus its smaller one, limb by
/// limb with a borrow, added to the total with a carry.
fn distance_sum(ori: &[Vec<u64>], app: &[Vec<u64>]) -> Vec<u128> {
    let limbs = ori.first().map_or(0, Vec::len);
    let mut total = vec![0u128; limbs + 1];
    for (o, a) in ori.iter().zip(app) {
        let (hi, lo) = if o.iter().rev().cmp(a.iter().rev()).is_ge() {
            (o, a)
        } else {
            (a, o)
        };
        let mut borrow = 0u128;
        let mut carry = 0u128;
        for (k, slot) in total.iter_mut().enumerate() {
            let (h, l) = (
                u128::from(hi.get(k).copied().unwrap_or(0)),
                u128::from(lo.get(k).copied().unwrap_or(0)),
            );
            let digit = (h + (1 << 64) - l - borrow) & u128::from(u64::MAX);
            borrow = u128::from(h < l + borrow);
            let sum = *slot + digit + carry;
            *slot = sum & u128::from(u64::MAX);
            carry = sum >> 64;
        }
        assert_eq!((borrow, carry), (0, 0), "the sum fits its limbs");
    }
    total
}

/// The nearest `f64` to a limb integer (ties to even): Rust's `u128`
/// conversion when the value fits one, else its top 64 bits with every
/// lower bit folded into the lowest, scaled by a power of two.
fn nearest_f64(limbs: &[u128]) -> f64 {
    let bits: Vec<bool> = (0..limbs.len() * 64)
        .map(|i| limbs[i / 64] >> (i % 64) & 1 == 1)
        .collect();
    let Some(top) = bits.iter().rposition(|&b| b) else {
        return 0.0;
    };
    if top < 128 {
        let value = limbs[0] | limbs.get(1).copied().unwrap_or(0) << 64;
        return value as f64;
    }
    let shift = top + 1 - 64;
    let mut head = (shift..=top)
        .rev()
        .fold(0u64, |acc, i| acc << 1 | u64::from(bits[i]));
    if bits[..shift].iter().any(|&b| b) {
        head |= 1;
    }
    head as f64 * (2f64).powi(shift as i32)
}

/// NMED from the exact per-vector distance sum: rounded once, divided
/// once by `(2^n − 1) · vectors`.
fn nmed_per_vector<A: SimWords, B: SimWords>(ori: &A, app: &B) -> f64 {
    let total = nearest_f64(&distance_sum(&po_values(ori), &po_values(app)));
    if total == 0.0 {
        return 0.0;
    }
    let max_value = (2f64).powi(ori.output_count() as i32) - 1.0;
    total / (max_value * ori.vector_count() as f64)
}

/// The error rate by a masked per-word scan: vectors on which any PO
/// word differs.
fn error_rate_per_word<A: SimWords, B: SimWords>(ori: &A, app: &B) -> f64 {
    let wrong: usize = (0..ori.word_count())
        .map(|w| {
            (0..ori.output_count())
                .fold(0u64, |any, po| {
                    any | (ori.po_word(po, w) ^ app.po_word(po, w))
                })
                .count_ones() as usize
        })
        .sum();
    wrong as f64 / ori.vector_count() as f64
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

/// NMED against the exact per-vector oracle, by `f64` bits, at output
/// widths of one, a few, exactly one limb, just past it and over two
/// limbs, on ragged tails, for a preview, a committed state and a full
/// simulation. The random netlists drive some POs from constants and
/// primary inputs.
#[test]
fn nmed_equals_the_exact_per_vector_distance_sum() {
    let mut rng = StdRng::seed_from_u64(13);
    for outputs in [1, 25, 64, 65, 130] {
        for (case, &vectors) in VECTOR_COUNTS.iter().enumerate() {
            let seed = (outputs * 10 + case) as u64;
            let n = random_netlist(8, 160, outputs, seed);
            let p = Patterns::random(n.input_count(), vectors, seed + 1);
            let golden = simulate(&n, &p);
            let mut delta = DeltaSim::new(n.clone(), &p);
            for step in 0..3 {
                let (target, switch) = random_lac(delta.netlist(), &mut rng);
                let label = format!("{outputs} POs, {vectors} vectors, step {step}");
                let view = delta.preview(target, switch);
                assert_eq!(
                    nmed(&golden, &view).to_bits(),
                    nmed_per_vector(&golden, &view).to_bits(),
                    "{label}: DeltaView"
                );
                delta.substitute(target, switch).expect("legal LAC");
                let full = simulate(delta.netlist(), &p);
                assert_eq!(
                    nmed(&golden, &full).to_bits(),
                    nmed_per_vector(&golden, &full).to_bits(),
                    "{label}: SimResult"
                );
                assert_eq!(
                    nmed(&full, &delta).to_bits(),
                    nmed_per_vector(&full, &delta).to_bits(),
                    "{label}: DeltaSim"
                );
                assert_eq!(
                    nmed(&delta, &golden).to_bits(),
                    nmed_per_vector(&delta, &golden).to_bits(),
                    "{label}: DeltaSim as the reference"
                );
            }
        }
    }
}

/// Per-PO flip rates and the error rate, every PO, constant and
/// primary-input drivers included, against a preview, a committed state
/// and a full simulation of it.
#[test]
fn flip_rates_and_error_rate_are_bit_identical_to_the_per_word_scans() {
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
            assert_eq!(
                error_rate(&golden, &view).to_bits(),
                error_rate_per_word(&golden, &view).to_bits(),
                "{label}: DeltaView error rate"
            );
            delta.substitute(target, switch).expect("legal LAC");
            let full = simulate(delta.netlist(), &p);
            for (name, er, oracle) in [
                (
                    "SimResult",
                    error_rate(&golden, &full),
                    error_rate_per_word(&golden, &full),
                ),
                (
                    "DeltaSim",
                    error_rate(&delta, &golden),
                    error_rate_per_word(&delta, &golden),
                ),
            ] {
                assert_eq!(er.to_bits(), oracle.to_bits(), "{label}: {name} error rate");
            }
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
