//! Circuit error metrics: error rate (ER) and normalized mean error
//! distance (NMED), per §II-A of the paper.

use tdals_netlist::Netlist;

use crate::block::BLOCK_WORDS;
use crate::engine::{simulate, SimResult};
use crate::patterns::Patterns;
use crate::view::SimWords;

/// Which error metric constrains the optimization.
///
/// The paper optimizes random/control circuits under **ER** and
/// arithmetic circuits under **NMED**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorMetric {
    /// Probability that any output bit differs (Eq. 1).
    ErrorRate,
    /// Mean |V_ori − V_app| normalized by the maximum output value
    /// `2^n − 1` (Eq. 2); outputs are interpreted as an unsigned binary
    /// number with PO 0 as the least significant bit.
    Nmed,
}

impl ErrorMetric {
    /// Computes this metric between two simulation results (any
    /// [`SimWords`] implementors — full results, incremental state, or
    /// uncommitted [`DeltaView`](crate::DeltaView)s mix freely).
    ///
    /// # Panics
    ///
    /// Panics if the results cover different vector or output counts.
    pub fn compute<A: SimWords, B: SimWords>(self, ori: &A, app: &B) -> f64 {
        match self {
            ErrorMetric::ErrorRate => error_rate(ori, app),
            ErrorMetric::Nmed => nmed(ori, app),
        }
    }

    /// Lowercase name used by the `tdals` CLI and job manifests:
    /// `er` / `nmed`.
    pub const fn cli_name(self) -> &'static str {
        match self {
            ErrorMetric::ErrorRate => "er",
            ErrorMetric::Nmed => "nmed",
        }
    }

    /// Parses an [`ErrorMetric::cli_name`]; `None` for unknown names.
    pub fn parse(name: &str) -> Option<ErrorMetric> {
        match name {
            "er" => Some(ErrorMetric::ErrorRate),
            "nmed" => Some(ErrorMetric::Nmed),
            _ => None,
        }
    }
}

fn check_compat<A: SimWords, B: SimWords>(ori: &A, app: &B) {
    assert_eq!(
        ori.vector_count(),
        app.vector_count(),
        "results must cover the same vectors"
    );
    assert_eq!(
        ori.output_count(),
        app.output_count(),
        "results must cover the same outputs"
    );
}

/// Error rate (Eq. 1): fraction of input vectors on which the
/// approximate outputs differ from the accurate outputs in any bit.
///
/// # Panics
///
/// Panics if the results cover different vector or output counts.
///
/// # Examples
///
/// ```
/// use tdals_netlist::{Netlist, SignalRef};
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
/// use tdals_sim::{error_rate, simulate, Patterns};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_gate("u", Cell::new(CellFunc::And2, Drive::X1),
///                    vec![a.into(), b.into()])?;
/// n.add_output("y", g.into());
///
/// let mut approx = n.clone();
/// approx.substitute(g, SignalRef::Const0)?; // y := 0
///
/// let p = Patterns::exhaustive(2);
/// let er = error_rate(&simulate(&n, &p), &simulate(&approx, &p));
/// assert!((er - 0.25).abs() < 1e-12); // wrong only on a=b=1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn error_rate<A: SimWords, B: SimWords>(ori: &A, app: &B) -> f64 {
    check_compat(ori, app);
    // Walk whole blocks through `SimWords::po_block`, one slice copy
    // per PO and block instead of per-word calls. Popcount
    // accumulation is per-word and order-preserving: the result is
    // exactly the scalar loop's.
    let words = ori.word_count();
    let mut wrong = 0usize;
    let mut w = 0;
    while w < words {
        let n = BLOCK_WORDS.min(words - w);
        let mut any_diff = [0u64; BLOCK_WORDS];
        let mut o = [0u64; BLOCK_WORDS];
        let mut a = [0u64; BLOCK_WORDS];
        for po in 0..ori.output_count() {
            ori.po_block(po, w, &mut o[..n]);
            app.po_block(po, w, &mut a[..n]);
            for l in 0..n {
                any_diff[l] |= o[l] ^ a[l];
            }
        }
        for &d in &any_diff[..n] {
            wrong += d.count_ones() as usize;
        }
        w += n;
    }
    wrong as f64 / ori.vector_count() as f64
}

/// Per-output flip probabilities: element `j` is the fraction of vectors
/// on which PO `j` differs between the two results.
///
/// This is the per-PO error term feeding the paper's PO-TFI `Level`
/// evaluation (Eq. 3).
///
/// # Panics
///
/// Panics if the results cover different vector or output counts.
pub fn po_flip_rates<A: SimWords, B: SimWords>(ori: &A, app: &B) -> Vec<f64> {
    check_compat(ori, app);
    let n_vec = ori.vector_count() as f64;
    let words = ori.word_count();
    (0..ori.output_count())
        .map(|po| {
            let mut diff = 0usize;
            let mut o = [0u64; BLOCK_WORDS];
            let mut a = [0u64; BLOCK_WORDS];
            let mut w = 0;
            while w < words {
                let n = BLOCK_WORDS.min(words - w);
                ori.po_block(po, w, &mut o[..n]);
                app.po_block(po, w, &mut a[..n]);
                for l in 0..n {
                    diff += (o[l] ^ a[l]).count_ones() as usize;
                }
                w += n;
            }
            diff as f64 / n_vec
        })
        .collect()
}

/// Normalized mean error distance (Eq. 2).
///
/// Outputs are read as an unsigned binary number (PO 0 = LSB). The mean
/// of `|V_ori − V_app|` over all vectors is normalized by `2^n − 1`.
/// Computation is done in `f64`, which keeps full precision up to 53
/// output bits and a faithful approximation beyond (the paper's widest
/// circuit has 129 outputs; NMED is a ratio, so the relative error of the
/// f64 path is negligible).
///
/// # Summation order
///
/// The value is defined by one fixed order of `f64` operations: vectors
/// ascending; per differing vector, a signed sum of the normalized
/// weights `2^j / (2^n − 1)` of its differing POs, `j` ascending (`+`
/// where the accurate bit is set, `−` where it is clear); then the
/// absolute value of that sum is added to the total. With at most 64
/// outputs each 64-vector word is bit-transposed, so one `u64` holds
/// one vector's PO bits and the walk visits only the set diff bits of
/// differing vectors — the same additions in the same order, hence the
/// same bits, as the per-PO scan used for wider circuits.
///
/// # Panics
///
/// Panics if the results cover different vector or output counts.
pub fn nmed<A: SimWords, B: SimWords>(ori: &A, app: &B) -> f64 {
    check_compat(ori, app);
    let n_out = ori.output_count();
    // Normalized weight of each output bit: 2^j / (2^n - 1).
    // Computed as exp2(j - n_bits) style scaling to avoid overflow.
    let max_value = (2f64).powi(n_out as i32) - 1.0;
    let weights: Vec<f64> = (0..n_out)
        .map(|j| (2f64).powi(j as i32) / max_value)
        .collect();
    let total = if n_out <= 64 {
        nmed_sum_transposed(ori, app, &weights)
    } else {
        nmed_sum_per_po(ori, app, &weights)
    };
    total / ori.vector_count() as f64
}

/// The NMED total for at most 64 outputs: words are read a block at a
/// time, and each word with any difference is transposed to one `u64`
/// of PO bits per vector.
fn nmed_sum_transposed<A: SimWords, B: SimWords>(ori: &A, app: &B, weights: &[f64]) -> f64 {
    let n_out = weights.len();
    let words = ori.word_count();
    // Rows [po][lane]: PO-major blocks of accurate words and diff words.
    let mut o = [[0u64; BLOCK_WORDS]; 64];
    let mut d = [[0u64; BLOCK_WORDS]; 64];
    let mut total = 0f64;
    let mut w = 0;
    while w < words {
        let n = BLOCK_WORDS.min(words - w);
        for po in 0..n_out {
            ori.po_block(po, w, &mut o[po][..n]);
            app.po_block(po, w, &mut d[po][..n]);
            for l in 0..n {
                d[po][l] ^= o[po][l];
            }
        }
        for l in 0..n {
            let mut diff = [0u64; 64];
            let mut acc = [0u64; 64];
            let mut any = 0u64;
            for po in 0..n_out {
                diff[po] = d[po][l];
                acc[po] = o[po][l];
                any |= diff[po];
            }
            if any == 0 {
                continue;
            }
            transpose64(&mut diff);
            transpose64(&mut acc);
            let mut vectors = any;
            while vectors != 0 {
                let v = vectors.trailing_zeros() as usize;
                vectors &= vectors - 1;
                let mut bits = diff[v];
                let mut signed = 0f64;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // ori bit set -> app cleared it: +w_j; else -w_j.
                    signed += signed_weight(weights[j], acc[v] >> j & 1 == 0);
                }
                total += signed.abs();
            }
        }
        w += n;
    }
    total
}

/// The NMED total for any output count: per word, a scan over every
/// PO for each differing vector.
fn nmed_sum_per_po<A: SimWords, B: SimWords>(ori: &A, app: &B, weights: &[f64]) -> f64 {
    let n_out = weights.len();
    let mut diffs = vec![0u64; n_out];
    let mut oris = vec![0u64; n_out];
    let mut total = 0f64;
    for w in 0..ori.word_count() {
        let mut remaining = 0u64;
        for po in 0..n_out {
            oris[po] = ori.po_word(po, w);
            diffs[po] = oris[po] ^ app.po_word(po, w);
            remaining |= diffs[po];
        }
        while remaining != 0 {
            let mask = 1u64 << remaining.trailing_zeros();
            remaining &= remaining - 1;
            let mut signed = 0f64;
            for j in 0..n_out {
                if diffs[j] & mask != 0 {
                    // ori bit set -> app cleared it: +w_j; else -w_j.
                    signed += signed_weight(weights[j], oris[j] & mask == 0);
                }
            }
            total += signed.abs();
        }
    }
    total
}

/// `-weight` when `negate`, else `weight`, by flipping the sign bit
/// instead of branching on the data. Adding the result is exact:
/// `a - w` and `a + (-w)` round identically, so the summation order and
/// every bit of the total are those of the branching form.
#[inline]
fn signed_weight(weight: f64, negate: bool) -> f64 {
    f64::from_bits(weight.to_bits() ^ (u64::from(negate) << 63))
}

/// In-place transpose of a 64×64 bit matrix: on return, bit `j` of
/// `m[i]` is what bit `i` of `m[j]` was. Six rounds of block swaps
/// (32×32 down to 1×1), as in *Hacker's Delight* §7-3.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high-bit block of row k with the low-bit block of
            // row k + width.
            let t = ((m[k] >> width) ^ m[k + width]) & mask;
            m[k] ^= t << width;
            m[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Cached golden-reference evaluator.
///
/// Simulates the accurate circuit once and scores approximate variants
/// against it; this is what every optimizer in the workspace uses in its
/// inner loop.
///
/// # Examples
///
/// ```
/// use tdals_netlist::{Netlist, SignalRef};
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
/// use tdals_sim::{ErrorEvaluator, ErrorMetric, Patterns};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_gate("u", Cell::new(CellFunc::And2, Drive::X1),
///                    vec![a.into(), b.into()])?;
/// n.add_output("y", g.into());
///
/// let eval = ErrorEvaluator::new(&n, Patterns::exhaustive(2), ErrorMetric::ErrorRate);
/// assert_eq!(eval.error_of(&n), 0.0);
///
/// let mut approx = n.clone();
/// approx.substitute(g, SignalRef::Const1)?;
/// assert!(eval.error_of(&approx) > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ErrorEvaluator {
    patterns: Patterns,
    golden: SimResult,
    metric: ErrorMetric,
}

impl ErrorEvaluator {
    /// Simulates `accurate` once and prepares to score variants with the
    /// given metric.
    pub fn new(accurate: &Netlist, patterns: Patterns, metric: ErrorMetric) -> ErrorEvaluator {
        let golden = simulate(accurate, &patterns);
        ErrorEvaluator {
            patterns,
            golden,
            metric,
        }
    }

    /// Metric being evaluated.
    pub fn metric(&self) -> ErrorMetric {
        self.metric
    }

    /// The stimulus shared by all evaluations.
    pub fn patterns(&self) -> &Patterns {
        &self.patterns
    }

    /// Golden (accurate-circuit) simulation result.
    pub fn golden(&self) -> &SimResult {
        &self.golden
    }

    /// Simulates an approximate variant on the shared stimulus.
    pub fn simulate(&self, approx: &Netlist) -> SimResult {
        simulate(approx, &self.patterns)
    }

    /// Metric value of an approximate variant.
    pub fn error_of(&self, approx: &Netlist) -> f64 {
        self.metric.compute(&self.golden, &self.simulate(approx))
    }

    /// Metric value given an already-computed simulation of the variant
    /// (a full [`SimResult`], a [`DeltaSim`](crate::DeltaSim) state, or
    /// an uncommitted [`DeltaView`](crate::DeltaView)).
    pub fn error_of_sim<V: SimWords>(&self, app: &V) -> f64 {
        self.metric.compute(&self.golden, app)
    }

    /// Per-PO error contributions of a variant (flip rates under ER;
    /// weighted flip rates under NMED), given its simulation.
    pub fn po_errors_of_sim<V: SimWords>(&self, app: &V) -> Vec<f64> {
        let flips = po_flip_rates(&self.golden, app);
        match self.metric {
            ErrorMetric::ErrorRate => flips,
            ErrorMetric::Nmed => {
                let n_out = flips.len();
                let max_value = (2f64).powi(n_out as i32) - 1.0;
                flips
                    .iter()
                    .enumerate()
                    .map(|(j, f)| f * (2f64).powi(j as i32) / max_value)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, CellFunc, Drive};
    use tdals_netlist::SignalRef;

    fn x1(func: CellFunc) -> Cell {
        Cell::new(func, Drive::X1)
    }

    /// 2-bit adder: s = a + b over 2-bit inputs, 3-bit output.
    fn adder2() -> Netlist {
        let mut n = Netlist::new("adder2");
        let a0 = n.add_input("a0");
        let a1 = n.add_input("a1");
        let b0 = n.add_input("b0");
        let b1 = n.add_input("b1");
        let s0 = n
            .add_gate("s0", x1(CellFunc::Xor2), vec![a0.into(), b0.into()])
            .expect("gate");
        let c0 = n
            .add_gate("c0", x1(CellFunc::And2), vec![a0.into(), b0.into()])
            .expect("gate");
        let t1 = n
            .add_gate("t1", x1(CellFunc::Xor2), vec![a1.into(), b1.into()])
            .expect("gate");
        let s1 = n
            .add_gate("s1", x1(CellFunc::Xor2), vec![t1.into(), c0.into()])
            .expect("gate");
        let c1 = n
            .add_gate(
                "c1",
                x1(CellFunc::Maj3),
                vec![a1.into(), b1.into(), c0.into()],
            )
            .expect("gate");
        n.add_output("s0", s0.into());
        n.add_output("s1", s1.into());
        n.add_output("s2", c1.into());
        n
    }

    #[test]
    fn identical_circuits_have_zero_error() {
        let n = adder2();
        let p = Patterns::exhaustive(4);
        let r = simulate(&n, &p);
        assert_eq!(error_rate(&r, &r), 0.0);
        assert_eq!(nmed(&r, &r), 0.0);
    }

    #[test]
    fn er_counts_any_output_difference_once() {
        let n = adder2();
        let mut approx = n.clone();
        // Kill the carry chain: c0 := 0. This flips multiple outputs on
        // some vectors but each wrong vector counts once.
        let c0 = approx.find_gate("c0").expect("c0");
        approx.substitute(c0, SignalRef::Const0).expect("lac");
        let p = Patterns::exhaustive(4);
        let er = error_rate(&simulate(&n, &p), &simulate(&approx, &p));
        // c0=1 requires a0&b0: 4 of 16 vectors.
        assert!((er - 0.25).abs() < 1e-12, "er = {er}");
    }

    #[test]
    fn nmed_matches_hand_computation() {
        let n = adder2();
        let mut approx = n.clone();
        let c0 = approx.find_gate("c0").expect("c0");
        approx.substitute(c0, SignalRef::Const0).expect("lac");
        let p = Patterns::exhaustive(4);
        // When a0=b0=1 the true sum exceeds the approximate sum by 2
        // (carry dropped); 4 of 16 vectors, ED=2, max=7.
        let expected = 4.0 * 2.0 / (16.0 * 7.0);
        let m = nmed(&simulate(&n, &p), &simulate(&approx, &p));
        assert!((m - expected).abs() < 1e-12, "nmed = {m}, want {expected}");
    }

    #[test]
    fn nmed_uses_distance_not_flip_count() {
        // Flipping the MSB must weigh 4x flipping bit 0 of a 3-bit value.
        let n = adder2();
        let p = Patterns::exhaustive(4);
        let golden = simulate(&n, &p);

        let mut lsb = n.clone();
        let s0 = lsb.find_gate("s0").expect("s0");
        lsb.substitute(s0, SignalRef::Const0).expect("lac");
        let nmed_lsb = nmed(&golden, &simulate(&lsb, &p));

        let mut msb = n.clone();
        let c1 = msb.find_gate("c1").expect("c1");
        msb.substitute(c1, SignalRef::Const0).expect("lac");
        let nmed_msb = nmed(&golden, &simulate(&msb, &p));

        // s0 = 1 on half the vectors (ED 1); c1 = 1 on 6/16 (ED 4).
        assert!((nmed_lsb - 8.0 / (16.0 * 7.0)).abs() < 1e-12);
        assert!((nmed_msb - 6.0 * 4.0 / (16.0 * 7.0)).abs() < 1e-12);
        assert!(nmed_msb > nmed_lsb);
    }

    #[test]
    fn po_flip_rates_localize_damage() {
        let n = adder2();
        let mut approx = n.clone();
        let s0 = approx.find_gate("s0").expect("s0");
        approx.substitute(s0, SignalRef::Const1).expect("lac");
        let p = Patterns::exhaustive(4);
        let flips = po_flip_rates(&simulate(&n, &p), &simulate(&approx, &p));
        assert!(flips[0] > 0.0, "damaged PO flips");
        assert_eq!(flips[1], 0.0, "untouched PO clean");
        assert_eq!(flips[2], 0.0, "untouched PO clean");
    }

    #[test]
    fn evaluator_matches_direct_computation() {
        let n = adder2();
        let mut approx = n.clone();
        let c0 = approx.find_gate("c0").expect("c0");
        approx.substitute(c0, SignalRef::Const0).expect("lac");
        let p = Patterns::exhaustive(4);

        let eval = ErrorEvaluator::new(&n, p.clone(), ErrorMetric::ErrorRate);
        let direct = error_rate(&simulate(&n, &p), &simulate(&approx, &p));
        assert_eq!(eval.error_of(&approx), direct);

        let eval = ErrorEvaluator::new(&n, p.clone(), ErrorMetric::Nmed);
        let direct = nmed(&simulate(&n, &p), &simulate(&approx, &p));
        assert_eq!(eval.error_of(&approx), direct);
    }

    #[test]
    fn nmed_per_po_weighting() {
        let n = adder2();
        let mut approx = n.clone();
        let c1 = approx.find_gate("c1").expect("c1");
        approx.substitute(c1, SignalRef::Const0).expect("lac");
        let p = Patterns::exhaustive(4);
        let eval = ErrorEvaluator::new(&n, p, ErrorMetric::Nmed);
        let app = eval.simulate(&approx);
        let po = eval.po_errors_of_sim(&app);
        // Only the MSB is damaged; its weighted error equals total NMED.
        assert!(po[2] > 0.0);
        assert_eq!(po[0], 0.0);
        assert!((po[2] - eval.error_of_sim(&app)).abs() < 1e-12);
    }

    #[test]
    fn metrics_are_bounded() {
        let n = adder2();
        let mut worst = n.clone();
        for po in 0..worst.output_count() {
            // Invert every output by pointing it at an inverted driver.
            let driver = worst.output_driver(po);
            if let SignalRef::Gate(g) = driver {
                let inv = worst
                    .add_gate(format!("inv{po}"), x1(CellFunc::Inv), vec![g.into()])
                    .expect("gate");
                worst.set_output_driver(po, inv.into());
            }
        }
        let p = Patterns::exhaustive(4);
        let golden = simulate(&n, &p);
        let bad = simulate(&worst, &p);
        let er = error_rate(&golden, &bad);
        let m = nmed(&golden, &bad);
        assert!((0.0..=1.0).contains(&er));
        assert!((0.0..=1.0).contains(&m));
        assert_eq!(er, 1.0, "every vector differs");
    }

    #[test]
    fn transpose64_matches_the_bitwise_definition() {
        let mut m = [0u64; 64];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for row in &mut m {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let original = m;
        transpose64(&mut m);
        for (i, row) in m.iter().enumerate() {
            for (j, col) in original.iter().enumerate() {
                assert_eq!(row >> j & 1, col >> i & 1, "bit ({i}, {j})");
            }
        }
    }
}
