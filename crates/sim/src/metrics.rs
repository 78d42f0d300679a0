//! Circuit error metrics: error rate (ER) and normalized mean error
//! distance (NMED), per §II-A of the paper.

use tdals_netlist::Netlist;

use crate::block::BLOCK_WORDS;
use crate::engine::{simulate, simulate_outputs, OutputRows, SimResult};
use crate::patterns::Patterns;
use crate::view::{SignalRow, SimWords};

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
        self.compute_outputs(ori, app)
    }

    fn compute_outputs<A: Outputs, B: Outputs>(self, ori: &A, app: &B) -> f64 {
        match self {
            ErrorMetric::ErrorRate => error_rate_of(ori, app),
            ErrorMetric::Nmed => nmed_of(ori, app),
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

/// The primary outputs of one result, as the metric kernels read them:
/// any [`SimWords`] implementor, or the accurate circuit's
/// [`OutputRows`] that an [`ErrorEvaluator`] keeps.
trait Outputs {
    fn vectors(&self) -> usize;
    fn words(&self) -> usize;
    fn outputs(&self) -> usize;
    fn tail(&self) -> u64;
    /// Primary output `po`'s driver row, tail bits zeroed, or its
    /// constant.
    fn po_row(&self, po: usize) -> SignalRow<'_>;
}

impl<V: SimWords> Outputs for V {
    fn vectors(&self) -> usize {
        self.vector_count()
    }

    fn words(&self) -> usize {
        self.word_count()
    }

    fn outputs(&self) -> usize {
        self.output_count()
    }

    fn tail(&self) -> u64 {
        self.tail_mask()
    }

    fn po_row(&self, po: usize) -> SignalRow<'_> {
        SignalRow::of(self.po_driver(po), |g| self.gate_row(g))
    }
}

impl Outputs for OutputRows {
    fn vectors(&self) -> usize {
        self.vector_count()
    }

    fn words(&self) -> usize {
        self.word_count()
    }

    fn outputs(&self) -> usize {
        self.output_count()
    }

    fn tail(&self) -> u64 {
        self.tail_mask()
    }

    fn po_row(&self, po: usize) -> SignalRow<'_> {
        OutputRows::po_row(self, po)
    }
}

fn check_compat<A: Outputs, B: Outputs>(ori: &A, app: &B) {
    assert_eq!(
        ori.vectors(),
        app.vectors(),
        "results must cover the same vectors"
    );
    assert_eq!(
        ori.outputs(),
        app.outputs(),
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
    error_rate_of(ori, app)
}

fn error_rate_of<A: Outputs, B: Outputs>(ori: &A, app: &B) -> f64 {
    check_compat(ori, app);
    // One row marks the vectors with any wrong output: each PO's XORed
    // driver rows are ORed into it. Gate rows carry zeroed tail bits;
    // the constant cases may set them, so the final word is clipped
    // before the popcount. The count is an integer, as a per-word scan
    // counts it.
    let mut wrong = vec![0u64; ori.words()];
    let or_into = |wrong: &mut [u64], row: &[u64], invert: bool| {
        let flip = if invert { u64::MAX } else { 0 };
        for (w, x) in wrong.iter_mut().zip(row) {
            *w |= x ^ flip;
        }
    };
    for po in 0..ori.outputs() {
        match (ori.po_row(po), app.po_row(po)) {
            (SignalRow::Gate(a), SignalRow::Gate(b)) => {
                for ((w, x), y) in wrong.iter_mut().zip(a).zip(b) {
                    *w |= x ^ y;
                }
            }
            (SignalRow::Gate(g), SignalRow::Zeros) | (SignalRow::Zeros, SignalRow::Gate(g)) => {
                or_into(&mut wrong, g, false)
            }
            (SignalRow::Gate(g), SignalRow::Ones) | (SignalRow::Ones, SignalRow::Gate(g)) => {
                or_into(&mut wrong, g, true)
            }
            (SignalRow::Zeros, SignalRow::Ones) | (SignalRow::Ones, SignalRow::Zeros) => {
                wrong.fill(u64::MAX)
            }
            (SignalRow::Zeros, SignalRow::Zeros) | (SignalRow::Ones, SignalRow::Ones) => {}
        }
    }
    if let Some(last) = wrong.last_mut() {
        *last &= ori.tail();
    }
    let count: usize = wrong.iter().map(|w| w.count_ones() as usize).sum();
    count as f64 / ori.vectors() as f64
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
    po_flip_rates_of(ori, app)
}

fn po_flip_rates_of<A: Outputs, B: Outputs>(ori: &A, app: &B) -> Vec<f64> {
    check_compat(ori, app);
    // Each PO's flip count is one XOR popcount of its two driver rows
    // (or the constant rule of `SignalRow::diff_count`): an integer, so
    // the rates are exactly those of a per-word scan.
    let vectors = ori.vectors();
    (0..ori.outputs())
        .map(|po| ori.po_row(po).diff_count(app.po_row(po), vectors) as f64 / vectors as f64)
        .collect()
}

/// Normalized mean error distance (Eq. 2).
///
/// Outputs are read as an unsigned binary number (PO 0 = LSB). The mean
/// of `|V_ori − V_app|` over all vectors is normalized by `2^n − 1`.
///
/// The distance sum is exact at any output width. The PO rows are
/// subtracted bit-sliced, 64 vectors per word: a ripple borrow from PO
/// 0 up gives each vector's difference in two's complement, the final
/// borrow marks the vectors where the approximate value is larger, and
/// those are negated. Bit `j` of `|V_ori − V_app|` is then one word
/// per 64 vectors, so the sum is `Σ_j 2^j · (vectors with bit j set)`,
/// an integer kept in 64-bit limbs. It is rounded to `f64` once and
/// divided once by `(2^n − 1) · vectors`, so the result is the
/// correctly rounded sum, divided, whatever the order of the vectors.
///
/// # Panics
///
/// Panics if the results cover different vector or output counts.
pub fn nmed<A: SimWords, B: SimWords>(ori: &A, app: &B) -> f64 {
    nmed_of(ori, app)
}

fn nmed_of<A: Outputs, B: Outputs>(ori: &A, app: &B) -> f64 {
    check_compat(ori, app);
    let n_out = ori.outputs();
    let (words, tail) = (ori.words(), ori.tail());
    let rows: Vec<(SignalRow<'_>, SignalRow<'_>)> = (0..n_out)
        .map(|po| (ori.po_row(po), app.po_row(po)))
        .collect();
    // Per PO, one block of `V_ori − V_app` bits; per bit position, the
    // vectors whose distance has that bit set.
    let mut diff = vec![[0u64; BLOCK_WORDS]; n_out];
    let mut set_bits = vec![0u64; n_out];
    for w0 in (0..words).step_by(BLOCK_WORDS) {
        let mut borrow = [0u64; BLOCK_WORDS];
        let mut any = 0u64;
        for (d, &(o, a)) in diff.iter_mut().zip(&rows) {
            let (o, a) = (o.block(w0, words, tail), a.block(w0, words, tail));
            for l in 0..BLOCK_WORDS {
                let x = o[l] ^ a[l];
                d[l] = x ^ borrow[l];
                borrow[l] = (!o[l] & a[l]) | (!x & borrow[l]);
                any |= x;
            }
        }
        if any == 0 {
            continue;
        }
        // Two's-complement negation of the negative lanes: flip every
        // bit and add one.
        let negative = borrow;
        let mut carry = negative;
        for (d, count) in diff.iter().zip(&mut set_bits) {
            for l in 0..BLOCK_WORDS {
                let x = d[l] ^ negative[l];
                *count += u64::from((x ^ carry[l]).count_ones());
                carry[l] &= x;
            }
        }
    }
    let total = weighted_sum_to_f64(&set_bits);
    if total == 0.0 {
        // Covers the output-less circuit, whose `2^n − 1` is zero.
        return 0.0;
    }
    let max_value = (2f64).powi(n_out as i32) - 1.0;
    total / (max_value * ori.vectors() as f64)
}

impl SignalRow<'_> {
    /// Words `w0 .. w0 + BLOCK_WORDS` of a `words`-word row, zero past
    /// its end; the all-ones row is clipped to `tail_mask` in its final
    /// word, as gate rows are.
    #[inline]
    fn block(self, w0: usize, words: usize, tail_mask: u64) -> [u64; BLOCK_WORDS] {
        let mut out = [0u64; BLOCK_WORDS];
        let n = BLOCK_WORDS.min(words - w0);
        match self {
            SignalRow::Zeros => {}
            SignalRow::Ones => {
                out[..n].fill(u64::MAX);
                if w0 + n == words {
                    out[n - 1] &= tail_mask;
                }
            }
            SignalRow::Gate(row) => out[..n].copy_from_slice(&row[w0..w0 + n]),
        }
        out
    }
}

/// `Σ_j counts[j] · 2^j`, computed exactly and rounded to the nearest
/// `f64` (ties to even).
fn weighted_sum_to_f64(counts: &[u64]) -> f64 {
    // Column sums per 64-bit limb: each is below 64 · 2^64, so a u128
    // holds it; carries are resolved once at the end.
    let mut columns = vec![0u128; counts.len() / 64 + 2];
    for (j, &c) in counts.iter().enumerate() {
        let shifted = u128::from(c) << (j % 64);
        columns[j / 64] += shifted & u128::from(u64::MAX);
        columns[j / 64 + 1] += shifted >> 64;
    }
    let mut limbs = Vec::with_capacity(columns.len());
    let mut carry = 0u128;
    for column in columns {
        let v = column + carry;
        limbs.push(v as u64);
        carry = v >> 64;
    }
    limbs_to_f64(&limbs)
}

/// The `f64` nearest to `Σ_k limbs[k] · 2^(64k)` (ties to even).
fn limbs_to_f64(limbs: &[u64]) -> f64 {
    let limb = |k: usize| u128::from(limbs.get(k).copied().unwrap_or(0));
    let Some(top) = limbs.iter().rposition(|&l| l != 0) else {
        return 0.0;
    };
    if top < 2 {
        return (limb(1) << 64 | limb(0)) as f64;
    }
    // The top two limbs hold at least 65 significant bits: the 53 an
    // `f64` keeps, its rounding bit, and more below. Folding every lower
    // limb into one sticky bit at the bottom therefore rounds exactly as
    // the whole number does, and the power-of-two scale is exact.
    let sticky = u128::from(limbs[..top - 1].iter().any(|&l| l != 0));
    let head = limb(top) << 64 | limb(top - 1) | sticky;
    head as f64 * (2f64).powi(64 * (top as i32 - 1))
}

/// Cached golden-reference evaluator.
///
/// Simulates the accurate circuit once and scores approximate variants
/// against it; this is what every optimizer in the workspace uses in its
/// inner loop.
///
/// The metrics read only the primary outputs, so the evaluator keeps
/// only the accurate circuit's output rows: one row per distinct gate
/// driving an output, equal to [`simulate`]'s rows bit for bit, and none
/// of the other gates' rows. They are read by output index (as
/// [`ErrorEvaluator::golden_po_word`] does), never by gate id. They are
/// computed by a simulation that recycles rows: a gate's row goes back
/// to a small pool once its last reader has been evaluated, unless the
/// gate drives an output. On the suite's largest circuit (Sqrt, 14,871
/// gates, 64 outputs) at most 261 rows are live at once, so building the
/// evaluator never holds a full simulation's words, and it keeps 64
/// rows.
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
    /// The accurate circuit's primary-output rows.
    golden: OutputRows,
    metric: ErrorMetric,
}

impl ErrorEvaluator {
    /// Simulates `accurate` once, keeping its primary-output rows, and
    /// prepares to score variants with the given metric.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.input_count()` differs from the netlist's
    /// primary input count.
    pub fn new(accurate: &Netlist, patterns: Patterns, metric: ErrorMetric) -> ErrorEvaluator {
        let golden = simulate_outputs(accurate, &patterns);
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

    /// Word `w` of the accurate circuit's primary output `po`,
    /// tail-masked: [`SimWords::po_word`] of its full simulation.
    ///
    /// # Panics
    ///
    /// Panics if `po` or `w` is out of range.
    pub fn golden_po_word(&self, po: usize, w: usize) -> u64 {
        let words = self.golden.word_count();
        assert!(w < words, "word {w} out of range");
        self.golden
            .po_row(po)
            .block(w, words, self.golden.tail_mask())[0]
    }

    /// Simulates an approximate variant on the shared stimulus.
    pub fn simulate(&self, approx: &Netlist) -> SimResult {
        simulate(approx, &self.patterns)
    }

    /// Metric value of an approximate variant.
    pub fn error_of(&self, approx: &Netlist) -> f64 {
        self.error_of_sim(&self.simulate(approx))
    }

    /// Metric value given an already-computed simulation of the variant
    /// (a full [`SimResult`], a [`DeltaSim`](crate::DeltaSim) state, or
    /// an uncommitted [`DeltaView`](crate::DeltaView)).
    pub fn error_of_sim<V: SimWords>(&self, app: &V) -> f64 {
        self.metric.compute_outputs(&self.golden, app)
    }

    /// Per-PO error contributions of a variant (flip rates under ER;
    /// weighted flip rates under NMED), given its simulation.
    pub fn po_errors_of_sim<V: SimWords>(&self, app: &V) -> Vec<f64> {
        let flips = po_flip_rates_of(&self.golden, app);
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

    /// `limbs_to_f64` rounds like Rust's `u128 as f64` wherever that
    /// applies, and past 128 bits like the same number shifted down by
    /// whole limbs with its dropped bits folded to a sticky bit.
    #[test]
    fn exact_sums_round_to_nearest() {
        let cases: [u128; 6] = [
            0,
            1,
            (1 << 53) + 1,
            (1 << 54) + 3,
            u128::MAX,
            (0xDEAD_BEEF << 70) | 0x1234_5678,
        ];
        for v in cases {
            assert_eq!(
                limbs_to_f64(&[v as u64, (v >> 64) as u64]).to_bits(),
                (v as f64).to_bits(),
                "{v:#x}"
            );
        }
        // 2^128 + 2^75 + 1: a tie at 53 bits broken upward by the 1.
        let tie_up = limbs_to_f64(&[1, 1 << 11, 1]);
        assert_eq!(tie_up, (2f64).powi(128) + (2f64).powi(76));
        // 2^128 + 2^75: an exact tie, rounded to even (down).
        assert_eq!(limbs_to_f64(&[0, 1 << 11, 1]), (2f64).powi(128));
        // Σ counts[j]·2^j with counts spread over three limbs.
        let mut counts = vec![0u64; 130];
        counts[0] = 5;
        counts[64] = 3;
        counts[129] = 1;
        assert_eq!(
            weighted_sum_to_f64(&counts),
            5.0 + 3.0 * (2f64).powi(64) + (2f64).powi(129)
        );
    }

    /// The bit-sliced NMED equals a per-vector sum of `|V_ori − V_app|`
    /// on tiny rows: ragged tails, both constant drivers, and an
    /// approximate value above and below the accurate one.
    #[test]
    fn nmed_kernel_matches_per_vector_distances() {
        let n = adder2();
        for (vectors, seed) in [(1, 1), (16, 2), (70, 3), (130, 4)] {
            let p = Patterns::random(4, vectors, seed);
            let golden = simulate(&n, &p);
            let mut approx = n.clone();
            let s1 = approx.find_gate("s1").expect("s1");
            approx.substitute(s1, SignalRef::Const1).expect("lac");
            let c1 = approx.find_gate("c1").expect("c1");
            approx.substitute(c1, SignalRef::Const0).expect("lac");
            let app = simulate(&approx, &p);
            let value = |r: &SimResult, v: usize| -> u64 {
                (0..3)
                    .map(|po| (r.po_word(po, v / 64) >> (v % 64) & 1) << po)
                    .sum()
            };
            let total: u64 = (0..vectors)
                .map(|v| value(&golden, v).abs_diff(value(&app, v)))
                .sum();
            let want = total as f64 / (7.0 * vectors as f64);
            assert_eq!(nmed(&golden, &app).to_bits(), want.to_bits(), "{vectors}");
            assert_eq!(nmed(&app, &golden).to_bits(), want.to_bits(), "{vectors}");
        }
    }

    /// A netlist whose outputs exercise every case of the recycling
    /// simulation: outputs driven by a primary input, by both constants
    /// and by a gate that drives two outputs; a gate read twice by one
    /// reader; a dangling gate; and a row (`g1`'s) read again after its
    /// first reader, once later gates have taken rows.
    fn recycling_netlist() -> Netlist {
        let mut n = Netlist::new("recycling");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let mut gate = |name: &str, func, fanins: Vec<SignalRef>| {
            n.add_gate(name, x1(func), fanins).expect("gate")
        };
        let g1 = gate("g1", CellFunc::Xor2, vec![a.into(), b.into()]);
        let g2 = gate("g2", CellFunc::And2, vec![g1.into(), c.into()]);
        let g3 = gate("g3", CellFunc::Or2, vec![g2.into(), a.into()]);
        let g4 = gate("g4", CellFunc::Nand2, vec![g3.into(), g3.into()]);
        gate("dead", CellFunc::Inv, vec![g4.into()]);
        let g5 = gate("g5", CellFunc::Xor2, vec![g1.into(), g4.into()]);
        let g6 = gate("g6", CellFunc::Maj3, vec![g5.into(), g2.into(), c.into()]);
        n.add_output("y0", g6.into());
        n.add_output("y1", a.into());
        n.add_output("y2", SignalRef::Const1);
        n.add_output("y3", g5.into());
        n.add_output("y4", g6.into());
        n.add_output("y5", SignalRef::Const0);
        n
    }

    /// The evaluator's output rows, from the recycling simulation, equal
    /// a full simulation's output words by bits at word-aligned and
    /// ragged vector counts, and every metric read against them equals
    /// the metric against the full simulation. Kept small for Miri.
    #[test]
    fn golden_output_rows_equal_a_full_simulation() {
        let n = recycling_netlist();
        let mut approx = n.clone();
        let g1 = approx.find_gate("g1").expect("g1");
        approx.substitute(g1, SignalRef::Const1).expect("lac");
        for vectors in [64, 70, 512, 513] {
            let p = Patterns::random(3, vectors, 0x601D);
            let full = simulate(&n, &p);
            let app = simulate(&approx, &p);
            for metric in [ErrorMetric::ErrorRate, ErrorMetric::Nmed] {
                let eval = ErrorEvaluator::new(&n, p.clone(), metric);
                for po in 0..n.output_count() {
                    for w in 0..p.word_count() {
                        assert_eq!(
                            eval.golden_po_word(po, w),
                            full.po_word(po, w),
                            "{vectors} vectors, po {po}, word {w}"
                        );
                    }
                }
                assert_eq!(eval.error_of(&n), 0.0);
                assert_eq!(
                    eval.error_of_sim(&app).to_bits(),
                    metric.compute(&full, &app).to_bits()
                );
                let flips = po_flip_rates(&full, &app);
                let po_errors = eval.po_errors_of_sim(&app);
                assert!(flips.iter().any(|&f| f > 0.0));
                if metric == ErrorMetric::ErrorRate {
                    assert_eq!(po_errors, flips);
                }
            }
        }
    }

    /// An inverter chain of any length needs three rows: the output's,
    /// and two that the chain's gates take in turn.
    #[test]
    fn golden_rows_are_recycled_along_a_chain() {
        let mut n = Netlist::new("chain");
        let mut prev: SignalRef = n.add_input("a").into();
        for i in 0..100 {
            prev = n
                .add_gate(format!("g{i}"), x1(CellFunc::Inv), vec![prev])
                .expect("gate")
                .into();
        }
        n.add_output("y", prev);
        let eval = ErrorEvaluator::new(&n, Patterns::random(1, 130, 3), ErrorMetric::ErrorRate);
        let full = simulate(&n, eval.patterns());
        for w in 0..3 {
            assert_eq!(eval.golden_po_word(0, w), full.po_word(0, w));
        }
        assert_eq!(crate::engine::planned_rows(&n), 3);
    }
}
