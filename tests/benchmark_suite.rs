//! Integration checks over the regenerated benchmark suite: TABLE I
//! metadata, determinism, functional sanity of the arithmetic cores via
//! simulation, and timing plausibility via STA.

use tdals::circuits::{Benchmark, CircuitClass, ALL_BENCHMARKS};
use tdals::netlist::SignalRef;
use tdals::sim::{simulate, ErrorEvaluator, ErrorMetric, Patterns};
use tdals::sta::{analyze, TimingConfig};

#[test]
fn every_benchmark_builds_validates_and_times() {
    let cfg = TimingConfig::default();
    for bench in ALL_BENCHMARKS {
        let n = bench.build();
        n.check_invariants()
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        let report = analyze(&n, &cfg);
        assert!(report.critical_path_delay() > 0.0, "{bench} has zero CPD");
        assert!(report.max_depth() >= 2, "{bench} is too shallow");
        assert!(n.area_live() > 0.0, "{bench} has zero area");
        // No dangling gates in freshly generated benchmarks.
        assert!(
            n.live_mask().iter().all(|&l| l),
            "{bench} has dangling gates at birth"
        );
    }
}

/// The output rows an `ErrorEvaluator` keeps, from its recycling
/// simulation, equal a full simulation's output words by bits on every
/// suite circuit, at a word-aligned and a ragged vector count; also
/// with outputs re-pointed at a primary input, at each constant and at
/// a gate that then drives several outputs, which leaves the gates only
/// the old drivers read dangling.
#[test]
fn golden_output_rows_equal_a_full_simulation() {
    for bench in ALL_BENCHMARKS {
        let accurate = bench.build();
        let mut rewired = accurate.clone();
        let outputs = rewired.output_count();
        rewired.set_output_driver(0, rewired.inputs()[0].into());
        rewired.set_output_driver(1 % outputs, SignalRef::Const1);
        rewired.set_output_driver(2 % outputs, SignalRef::Const0);
        let shared = rewired.output_driver(outputs - 1);
        rewired.set_output_driver(3 % outputs, shared);
        for netlist in [&accurate, &rewired] {
            for vectors in [256, 301] {
                let p = Patterns::random(netlist.input_count(), vectors, 41);
                let full = simulate(netlist, &p);
                let eval = ErrorEvaluator::new(netlist, p.clone(), ErrorMetric::Nmed);
                for po in 0..netlist.output_count() {
                    for w in 0..p.word_count() {
                        assert_eq!(
                            eval.golden_po_word(po, w),
                            full.po_word(po, w),
                            "{bench}, {vectors} vectors, po {po}, word {w}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn adder16_adds() {
    let n = Benchmark::Adder16.build();
    let p = Patterns::random(32, 2048, 99);
    let r = simulate(&n, &p);
    for v in 0..p.vector_count() {
        let a: u64 = (0..16).map(|i| u64::from(p.bit(i, v)) << i).sum();
        let b: u64 = (0..16).map(|i| u64::from(p.bit(16 + i, v)) << i).sum();
        let got: u64 = (0..17)
            .map(|po| (r.po_word(po, v / 64) >> (v % 64) & 1) << po)
            .sum();
        assert_eq!(got, a + b, "{a} + {b}");
    }
}

#[test]
fn c6288_multiplies() {
    let n = Benchmark::C6288.build();
    let p = Patterns::random(32, 1024, 5);
    let r = simulate(&n, &p);
    for v in 0..p.vector_count() {
        let a: u64 = (0..16).map(|i| u64::from(p.bit(i, v)) << i).sum();
        let b: u64 = (0..16).map(|i| u64::from(p.bit(16 + i, v)) << i).sum();
        let got: u64 = (0..32)
            .map(|po| (r.po_word(po, v / 64) >> (v % 64) & 1) << po)
            .sum();
        assert_eq!(got, a * b, "{a} * {b}");
    }
}

#[test]
fn max16_selects_maximum() {
    let n = Benchmark::Max16.build();
    let p = Patterns::random(32, 2048, 6);
    let r = simulate(&n, &p);
    for v in 0..p.vector_count() {
        let a: u64 = (0..16).map(|i| u64::from(p.bit(i, v)) << i).sum();
        let b: u64 = (0..16).map(|i| u64::from(p.bit(16 + i, v)) << i).sum();
        let got: u64 = (0..16)
            .map(|po| (r.po_word(po, v / 64) >> (v % 64) & 1) << po)
            .sum();
        assert_eq!(got, a.max(b));
    }
}

#[test]
fn adder128_adds_full_width() {
    let n = Benchmark::Adder.build();
    let p = Patterns::random(256, 512, 7);
    let r = simulate(&n, &p);
    for v in 0..p.vector_count() {
        let a: u128 = (0..128)
            .map(|i| u128::from(p.bit(i, v)) << i)
            .fold(0, |acc, x| acc | x);
        let b: u128 = (0..128)
            .map(|i| u128::from(p.bit(128 + i, v)) << i)
            .fold(0, |acc, x| acc | x);
        let (sum, carry) = a.overflowing_add(b);
        let got: u128 = (0..128)
            .map(|po| u128::from(r.po_word(po, v / 64) >> (v % 64) & 1) << po)
            .fold(0, |acc, x| acc | x);
        let got_carry = r.po_word(128, v / 64) >> (v % 64) & 1 == 1;
        assert_eq!(got, sum, "vector {v}");
        assert_eq!(got_carry, carry, "carry at vector {v}");
    }
}

#[test]
fn sqrt_matches_floor_sqrt_on_low_range() {
    use tdals::circuits::arith::isqrt;
    use tdals::netlist::builder::Builder;
    // The 128-bit unit is too wide to steer through random PIs; verify
    // the identical generator at 16 bits exhaustively-ish.
    let mut b = Builder::new("sqrt16");
    let x = b.inputs("x", 16);
    let q = isqrt(&mut b, &x);
    b.outputs("q", &q);
    let n = b.finish();
    let p = Patterns::random(16, 4096, 11);
    let r = simulate(&n, &p);
    for v in 0..p.vector_count() {
        let xv: u64 = (0..16).map(|i| u64::from(p.bit(i, v)) << i).sum();
        let got: u64 = (0..8)
            .map(|po| (r.po_word(po, v / 64) >> (v % 64) & 1) << po)
            .sum();
        assert_eq!(got, (xv as f64).sqrt().floor() as u64, "isqrt({xv})");
    }
}

#[test]
fn benchmarks_are_deterministic() {
    for bench in [
        Benchmark::Cavlc,
        Benchmark::C2670,
        Benchmark::C7552,
        Benchmark::Sin,
    ] {
        assert_eq!(bench.build(), bench.build(), "{bench}");
    }
}

#[test]
fn class_split_matches_paper_tables() {
    let rc: Vec<&str> = Benchmark::random_control()
        .iter()
        .map(|b| b.name())
        .collect();
    assert_eq!(
        rc,
        ["Cavlc", "c880", "c1908", "c2670", "c3540", "c5315", "c7552"]
    );
    let arith: Vec<&str> = Benchmark::arithmetic().iter().map(|b| b.name()).collect();
    assert_eq!(
        arith,
        [
            "Int2float",
            "Adder16",
            "Max16",
            "c6288",
            "Adder",
            "Max",
            "Sin",
            "Sqrt"
        ]
    );
    for b in ALL_BENCHMARKS {
        let expected = matches!(
            b.name(),
            "Cavlc" | "c880" | "c1908" | "c2670" | "c3540" | "c5315" | "c7552"
        );
        assert_eq!(b.class() == CircuitClass::RandomControl, expected);
    }
}

#[test]
fn arithmetic_outputs_are_lsb_first_for_nmed() {
    // NMED treats PO 0 as the LSB; benchmark generators must emit
    // output buses LSB-first. Flipping the MSB must move the output
    // value by more than flipping the LSB.
    let n = Benchmark::Adder16.build();
    let p = Patterns::random(32, 1024, 13);
    let golden = simulate(&n, &p);

    let mut lsb = n.clone();
    let d = lsb.output_driver(0).gate().expect("gate");
    lsb.substitute(d, tdals::netlist::SignalRef::Const0)
        .expect("lac");
    let mut msb = n.clone();
    let d = msb.output_driver(15).gate().expect("gate");
    msb.substitute(d, tdals::netlist::SignalRef::Const0)
        .expect("lac");

    let nmed_lsb = tdals::sim::nmed(&golden, &simulate(&lsb, &p));
    let nmed_msb = tdals::sim::nmed(&golden, &simulate(&msb, &p));
    assert!(
        nmed_msb > nmed_lsb * 100.0,
        "MSB damage ({nmed_msb}) must dwarf LSB damage ({nmed_lsb})"
    );
}
