//! Synthetic 28nm-class standard-cell library.
//!
//! The paper synthesizes its benchmarks onto the TSMC 28nm library and
//! queries that library for gate area and delay. The foundry library is
//! proprietary, so this module provides a self-contained substitute with
//! the properties ALS actually depends on:
//!
//! * a set of combinational functions ([`CellFunc`]) with fixed arity,
//! * several discrete **drive strengths** per function ([`Drive`]), and
//! * a linear delay model `delay = intrinsic + resistance × C_load`
//!   calibrated to picosecond/femtofarad scales typical of a 28nm node.
//!
//! Bigger drives are faster into a given load but cost more area and
//! present more input capacitance to their own drivers — exactly the
//! trade-off the paper's post-optimization (gate re-sizing under an area
//! constraint) exploits.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::cell::{Cell, CellFunc, Drive};
//!
//! let nand = Cell::new(CellFunc::Nand2, Drive::X1);
//! assert_eq!(nand.arity(), 2);
//! // A NAND2 is false only when both inputs are true.
//! assert!(!nand.eval_bool(&[true, true]));
//! assert!(nand.eval_bool(&[true, false]));
//! // Upsizing lowers drive resistance but raises area.
//! let big = nand.with_drive(Drive::X4);
//! assert!(big.resistance() < nand.resistance());
//! assert!(big.area() > nand.area());
//! ```

use std::fmt;
use std::str::FromStr;

/// Combinational function implemented by a standard cell.
///
/// `Input` is a pseudo-function marking primary-input gates; it has arity
/// zero and never appears in timing arcs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellFunc {
    /// Primary input placeholder (arity 0).
    Input,
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert: `!((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert: `!((a | b) & c)`.
    Oai21,
    /// 2:1 multiplexer: `s ? b : a` with pin order `(s, a, b)`.
    Mux2,
    /// 3-input majority (full-adder carry).
    Maj3,
}

/// All real (non-`Input`) cell functions, in a stable order.
pub const ALL_FUNCS: [CellFunc; 16] = [
    CellFunc::Inv,
    CellFunc::Buf,
    CellFunc::And2,
    CellFunc::And3,
    CellFunc::Or2,
    CellFunc::Or3,
    CellFunc::Nand2,
    CellFunc::Nand3,
    CellFunc::Nor2,
    CellFunc::Nor3,
    CellFunc::Xor2,
    CellFunc::Xnor2,
    CellFunc::Aoi21,
    CellFunc::Oai21,
    CellFunc::Mux2,
    CellFunc::Maj3,
];

impl CellFunc {
    /// Number of input pins of this function.
    ///
    /// # Examples
    ///
    /// ```
    /// use tdals_netlist::cell::CellFunc;
    /// assert_eq!(CellFunc::Input.arity(), 0);
    /// assert_eq!(CellFunc::Inv.arity(), 1);
    /// assert_eq!(CellFunc::Maj3.arity(), 3);
    /// ```
    pub const fn arity(self) -> usize {
        match self {
            CellFunc::Input => 0,
            CellFunc::Inv | CellFunc::Buf => 1,
            CellFunc::And2
            | CellFunc::Or2
            | CellFunc::Nand2
            | CellFunc::Nor2
            | CellFunc::Xor2
            | CellFunc::Xnor2 => 2,
            CellFunc::And3
            | CellFunc::Or3
            | CellFunc::Nand3
            | CellFunc::Nor3
            | CellFunc::Aoi21
            | CellFunc::Oai21
            | CellFunc::Mux2
            | CellFunc::Maj3 => 3,
        }
    }

    /// Library name stem, e.g. `NAND2` for [`CellFunc::Nand2`].
    pub const fn stem(self) -> &'static str {
        match self {
            CellFunc::Input => "INPUT",
            CellFunc::Inv => "INV",
            CellFunc::Buf => "BUF",
            CellFunc::And2 => "AND2",
            CellFunc::And3 => "AND3",
            CellFunc::Or2 => "OR2",
            CellFunc::Or3 => "OR3",
            CellFunc::Nand2 => "NAND2",
            CellFunc::Nand3 => "NAND3",
            CellFunc::Nor2 => "NOR2",
            CellFunc::Nor3 => "NOR3",
            CellFunc::Xor2 => "XOR2",
            CellFunc::Xnor2 => "XNOR2",
            CellFunc::Aoi21 => "AOI21",
            CellFunc::Oai21 => "OAI21",
            CellFunc::Mux2 => "MUX2",
            CellFunc::Maj3 => "MAJ3",
        }
    }

    /// Evaluate the function over whole rows of 64-sample words:
    /// `out[w]` receives the function of word `w` of every input row.
    ///
    /// This is the single source of truth for every cell's bitwise
    /// semantics — [`CellFunc::eval_word`] is the one-word instance. Each
    /// function is one zipped loop over equal-length slices, with no
    /// per-word dispatch, so LLVM vectorizes it into whatever vector
    /// registers the target offers (SSE2/AVX2/AVX-512/NEON; no
    /// intrinsics, no `unsafe`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellFunc::arity`] or an
    /// input row's length differs from `out.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tdals_netlist::cell::CellFunc;
    ///
    /// let mut out = [0u64; 2];
    /// CellFunc::Xor2.eval_rows(&[&[0b1100, 1], &[0b1010, 1]], &mut out);
    /// assert_eq!(out, [0b0110, 0]);
    /// ```
    #[inline]
    pub fn eval_rows(self, inputs: &[&[u64]], out: &mut [u64]) {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "cell {self:?} expects {} inputs, got {}",
            self.arity(),
            inputs.len()
        );
        match self {
            CellFunc::Input => out.fill(0),
            CellFunc::Inv => map1(out, inputs, |a| !a),
            CellFunc::Buf => out.copy_from_slice(inputs[0]),
            CellFunc::And2 => map2(out, inputs, |a, b| a & b),
            CellFunc::And3 => map3(out, inputs, |a, b, c| a & b & c),
            CellFunc::Or2 => map2(out, inputs, |a, b| a | b),
            CellFunc::Or3 => map3(out, inputs, |a, b, c| a | b | c),
            CellFunc::Nand2 => map2(out, inputs, |a, b| !(a & b)),
            CellFunc::Nand3 => map3(out, inputs, |a, b, c| !(a & b & c)),
            CellFunc::Nor2 => map2(out, inputs, |a, b| !(a | b)),
            CellFunc::Nor3 => map3(out, inputs, |a, b, c| !(a | b | c)),
            CellFunc::Xor2 => map2(out, inputs, |a, b| a ^ b),
            CellFunc::Xnor2 => map2(out, inputs, |a, b| !(a ^ b)),
            CellFunc::Aoi21 => map3(out, inputs, |a, b, c| !((a & b) | c)),
            CellFunc::Oai21 => map3(out, inputs, |a, b, c| !((a | b) & c)),
            CellFunc::Mux2 => map3(out, inputs, |s, a, b| (s & b) | (!s & a)),
            CellFunc::Maj3 => map3(out, inputs, |a, b, c| (a & b) | (a & c) | (b & c)),
        }
    }

    /// Evaluate the function on 64 input vectors at once (bit-parallel).
    ///
    /// Word `i` of `inputs` carries 64 samples of input pin `i`. This is
    /// [`CellFunc::eval_rows`] on one-word rows.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellFunc::arity`].
    #[inline]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        let mut rows: [&[u64]; 3] = [&[]; 3];
        for (row, word) in rows.iter_mut().zip(inputs) {
            *row = std::slice::from_ref(word);
        }
        let mut out = 0;
        self.eval_rows(&rows[..inputs.len()], std::slice::from_mut(&mut out));
        out
    }

    /// Evaluate the function on a single boolean input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellFunc::arity`].
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_word(&words) & 1 == 1
    }

    /// Base area in µm² of the X1 variant of this function.
    ///
    /// Values are representative of a 28nm high-density library.
    pub const fn base_area(self) -> f64 {
        match self {
            CellFunc::Input => 0.0,
            CellFunc::Inv => 0.49,
            CellFunc::Buf => 0.65,
            CellFunc::And2 => 0.98,
            CellFunc::And3 => 1.31,
            CellFunc::Or2 => 0.98,
            CellFunc::Or3 => 1.31,
            CellFunc::Nand2 => 0.65,
            CellFunc::Nand3 => 0.98,
            CellFunc::Nor2 => 0.65,
            CellFunc::Nor3 => 0.98,
            CellFunc::Xor2 => 1.47,
            CellFunc::Xnor2 => 1.47,
            CellFunc::Aoi21 => 0.98,
            CellFunc::Oai21 => 0.98,
            CellFunc::Mux2 => 1.47,
            CellFunc::Maj3 => 1.63,
        }
    }

    /// Base input-pin capacitance in fF of the X1 variant.
    pub const fn base_cin(self) -> f64 {
        match self {
            CellFunc::Input => 0.0,
            CellFunc::Inv => 0.9,
            CellFunc::Buf => 0.9,
            CellFunc::And2 | CellFunc::Or2 => 1.0,
            CellFunc::And3 | CellFunc::Or3 => 1.1,
            CellFunc::Nand2 | CellFunc::Nor2 => 1.1,
            CellFunc::Nand3 | CellFunc::Nor3 => 1.2,
            CellFunc::Xor2 | CellFunc::Xnor2 => 1.6,
            CellFunc::Aoi21 | CellFunc::Oai21 => 1.2,
            CellFunc::Mux2 => 1.5,
            CellFunc::Maj3 => 1.6,
        }
    }

    /// Intrinsic (zero-load) delay in ps of this function.
    ///
    /// Shared by all drive strengths; sizing affects only the
    /// load-dependent term.
    pub const fn intrinsic_ps(self) -> f64 {
        match self {
            CellFunc::Input => 0.0,
            CellFunc::Inv => 6.0,
            CellFunc::Buf => 11.0,
            CellFunc::And2 => 16.0,
            CellFunc::And3 => 19.0,
            CellFunc::Or2 => 16.0,
            CellFunc::Or3 => 19.0,
            CellFunc::Nand2 => 10.0,
            CellFunc::Nand3 => 13.0,
            CellFunc::Nor2 => 11.0,
            CellFunc::Nor3 => 15.0,
            CellFunc::Xor2 => 24.0,
            CellFunc::Xnor2 => 24.0,
            CellFunc::Aoi21 => 14.0,
            CellFunc::Oai21 => 14.0,
            CellFunc::Mux2 => 20.0,
            CellFunc::Maj3 => 22.0,
        }
    }

    /// Base drive resistance in ps/fF of the X1 variant.
    pub const fn base_resistance(self) -> f64 {
        match self {
            CellFunc::Input => 0.0,
            CellFunc::Inv => 2.2,
            CellFunc::Buf => 2.0,
            CellFunc::And2 | CellFunc::Or2 => 2.4,
            CellFunc::And3 | CellFunc::Or3 => 2.6,
            CellFunc::Nand2 | CellFunc::Nor2 => 2.6,
            CellFunc::Nand3 | CellFunc::Nor3 => 2.9,
            CellFunc::Xor2 | CellFunc::Xnor2 => 3.0,
            CellFunc::Aoi21 | CellFunc::Oai21 => 2.8,
            CellFunc::Mux2 => 2.8,
            CellFunc::Maj3 => 3.0,
        }
    }

    /// `true` for the `Input` pseudo-function.
    pub const fn is_input(self) -> bool {
        matches!(self, CellFunc::Input)
    }
}

// The row loops of `CellFunc::eval_rows`, one per arity. Each checks
// its rows' lengths itself: with the arity known that is a few
// compares, where one check looping over `inputs` slowed full
// simulations of eight-word rows by 10–15%.

const ROW_LENGTHS: &str = "input rows must match the output row's length";

#[inline(always)]
fn map1(out: &mut [u64], rows: &[&[u64]], f: impl Fn(u64) -> u64) {
    let a = rows[0];
    assert!(a.len() == out.len(), "{ROW_LENGTHS}");
    for (o, &a) in out.iter_mut().zip(a) {
        *o = f(a);
    }
}

#[inline(always)]
fn map2(out: &mut [u64], rows: &[&[u64]], f: impl Fn(u64, u64) -> u64) {
    let (a, b) = (rows[0], rows[1]);
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "{ROW_LENGTHS}"
    );
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = f(a, b);
    }
}

#[inline(always)]
fn map3(out: &mut [u64], rows: &[&[u64]], f: impl Fn(u64, u64, u64) -> u64) {
    let (a, b, c) = (rows[0], rows[1], rows[2]);
    assert!(
        a.len() == out.len() && b.len() == out.len() && c.len() == out.len(),
        "{ROW_LENGTHS}"
    );
    for (((o, &a), &b), &c) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(a, b, c);
    }
}

impl fmt::Display for CellFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.stem())
    }
}

/// Discrete drive strength of a standard cell.
///
/// The multiplier scales transistor widths: input capacitance grows
/// linearly, drive resistance shrinks linearly, and area grows
/// sub-linearly (shared diffusion), matching real library trends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Drive {
    /// Half-strength (0.5×).
    X0,
    /// Unit strength (1×).
    X1,
    /// Double strength (2×).
    X2,
    /// Quadruple strength (4×).
    X4,
    /// Octuple strength (8×).
    X8,
}

/// All drive strengths from weakest to strongest.
pub const ALL_DRIVES: [Drive; 5] = [Drive::X0, Drive::X1, Drive::X2, Drive::X4, Drive::X8];

impl Drive {
    /// Transistor-width multiplier relative to X1.
    pub const fn factor(self) -> f64 {
        match self {
            Drive::X0 => 0.5,
            Drive::X1 => 1.0,
            Drive::X2 => 2.0,
            Drive::X4 => 4.0,
            Drive::X8 => 8.0,
        }
    }

    /// Next stronger drive, or `None` if already at [`Drive::X8`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tdals_netlist::cell::Drive;
    /// assert_eq!(Drive::X1.upsize(), Some(Drive::X2));
    /// assert_eq!(Drive::X8.upsize(), None);
    /// ```
    pub const fn upsize(self) -> Option<Drive> {
        match self {
            Drive::X0 => Some(Drive::X1),
            Drive::X1 => Some(Drive::X2),
            Drive::X2 => Some(Drive::X4),
            Drive::X4 => Some(Drive::X8),
            Drive::X8 => None,
        }
    }

    /// Next weaker drive, or `None` if already at [`Drive::X0`].
    pub const fn downsize(self) -> Option<Drive> {
        match self {
            Drive::X0 => None,
            Drive::X1 => Some(Drive::X0),
            Drive::X2 => Some(Drive::X1),
            Drive::X4 => Some(Drive::X2),
            Drive::X8 => Some(Drive::X4),
        }
    }

    /// Library-name suffix, e.g. `X2`.
    pub const fn suffix(self) -> &'static str {
        match self {
            Drive::X0 => "X0",
            Drive::X1 => "X1",
            Drive::X2 => "X2",
            Drive::X4 => "X4",
            Drive::X8 => "X8",
        }
    }
}

impl fmt::Display for Drive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// A concrete library cell: a function at a drive strength.
///
/// # Examples
///
/// ```
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
///
/// let c: Cell = "XOR2X2".parse()?;
/// assert_eq!(c.func(), CellFunc::Xor2);
/// assert_eq!(c.drive(), Drive::X2);
/// assert_eq!(c.to_string(), "XOR2X2");
/// # Ok::<(), tdals_netlist::cell::ParseCellError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    func: CellFunc,
    drive: Drive,
}

impl Cell {
    /// Creates a cell from a function and drive strength.
    pub const fn new(func: CellFunc, drive: Drive) -> Cell {
        Cell { func, drive }
    }

    /// The primary-input pseudo-cell.
    pub const fn input() -> Cell {
        Cell::new(CellFunc::Input, Drive::X1)
    }

    /// Function implemented by this cell.
    pub const fn func(self) -> CellFunc {
        self.func
    }

    /// Drive strength of this cell.
    pub const fn drive(self) -> Drive {
        self.drive
    }

    /// Same function at a different drive strength.
    pub const fn with_drive(self, drive: Drive) -> Cell {
        Cell::new(self.func, drive)
    }

    /// Number of input pins.
    pub const fn arity(self) -> usize {
        self.func.arity()
    }

    /// `true` for the primary-input pseudo-cell.
    pub const fn is_input(self) -> bool {
        self.func.is_input()
    }

    /// Cell area in µm².
    ///
    /// Area grows sub-linearly in the drive factor (`0.55 + 0.45·f`),
    /// reflecting diffusion sharing in real layouts.
    pub fn area(self) -> f64 {
        if self.is_input() {
            return 0.0;
        }
        self.func.base_area() * (0.55 + 0.45 * self.drive.factor())
    }

    /// Capacitance in fF presented by each input pin.
    pub fn input_cap(self) -> f64 {
        self.func.base_cin() * self.drive.factor()
    }

    /// Intrinsic (zero-load) delay in ps.
    pub fn intrinsic(self) -> f64 {
        self.func.intrinsic_ps()
    }

    /// Output drive resistance in ps/fF.
    pub fn resistance(self) -> f64 {
        if self.is_input() {
            return 0.0;
        }
        self.func.base_resistance() / self.drive.factor()
    }

    /// Propagation delay in ps into an external load of `load_ff` fF.
    ///
    /// The model is the standard linear approximation
    /// `intrinsic + resistance × load`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tdals_netlist::cell::{Cell, CellFunc, Drive};
    /// let g = Cell::new(CellFunc::Nand2, Drive::X1);
    /// assert!(g.delay(4.0) > g.delay(1.0));
    /// ```
    pub fn delay(self, load_ff: f64) -> f64 {
        self.intrinsic() + self.resistance() * load_ff
    }

    /// Evaluate 64 samples at once; see [`CellFunc::eval_word`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the cell arity.
    #[inline]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        self.func.eval_word(inputs)
    }

    /// Evaluate a single boolean assignment; see [`CellFunc::eval_bool`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the cell arity.
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        self.func.eval_bool(inputs)
    }

    /// Library name, e.g. `NAND2X1`.
    pub fn lib_name(self) -> String {
        format!("{}{}", self.func.stem(), self.drive.suffix())
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.func.stem(), self.drive.suffix())
    }
}

/// Error returned when a cell library name fails to parse.
///
/// # Examples
///
/// ```
/// use tdals_netlist::cell::Cell;
/// assert!("FROB3X1".parse::<Cell>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCellError {
    name: String,
}

impl ParseCellError {
    /// The string that failed to parse.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for ParseCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown cell name `{}`", self.name)
    }
}

impl std::error::Error for ParseCellError {}

impl FromStr for Cell {
    type Err = ParseCellError;

    fn from_str(s: &str) -> Result<Cell, ParseCellError> {
        let err = || ParseCellError { name: s.to_owned() };
        for func in ALL_FUNCS {
            let stem = func.stem();
            if let Some(rest) = s.strip_prefix(stem) {
                for drive in ALL_DRIVES {
                    if rest == drive.suffix() {
                        return Ok(Cell::new(func, drive));
                    }
                }
            }
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_expectations() {
        for func in ALL_FUNCS {
            let n = func.arity();
            let inputs = vec![0u64; n];
            // Must not panic with the right arity.
            let _ = func.eval_word(&inputs);
        }
    }

    #[test]
    fn truth_tables_two_input() {
        let cases: [(CellFunc, [bool; 4]); 6] = [
            (CellFunc::And2, [false, false, false, true]),
            (CellFunc::Or2, [false, true, true, true]),
            (CellFunc::Nand2, [true, true, true, false]),
            (CellFunc::Nor2, [true, false, false, false]),
            (CellFunc::Xor2, [false, true, true, false]),
            (CellFunc::Xnor2, [true, false, false, true]),
        ];
        for (func, expect) in cases {
            for (idx, want) in expect.iter().enumerate() {
                let a = idx & 1 == 1;
                let b = idx & 2 == 2;
                assert_eq!(func.eval_bool(&[a, b]), *want, "{func} on ({a},{b})");
            }
        }
    }

    #[test]
    fn truth_tables_three_input() {
        for idx in 0..8usize {
            let a = idx & 1 == 1;
            let b = idx & 2 == 2;
            let c = idx & 4 == 4;
            assert_eq!(CellFunc::And3.eval_bool(&[a, b, c]), a && b && c);
            assert_eq!(CellFunc::Or3.eval_bool(&[a, b, c]), a || b || c);
            assert_eq!(CellFunc::Nand3.eval_bool(&[a, b, c]), !(a && b && c));
            assert_eq!(CellFunc::Nor3.eval_bool(&[a, b, c]), !(a || b || c));
            assert_eq!(CellFunc::Aoi21.eval_bool(&[a, b, c]), !((a && b) || c));
            assert_eq!(CellFunc::Oai21.eval_bool(&[a, b, c]), !((a || b) && c));
            assert_eq!(CellFunc::Mux2.eval_bool(&[a, b, c]), if a { c } else { b });
            let maj = [a, b, c].iter().filter(|&&x| x).count() >= 2;
            assert_eq!(CellFunc::Maj3.eval_bool(&[a, b, c]), maj);
        }
    }

    #[test]
    fn inv_buf() {
        assert!(CellFunc::Inv.eval_bool(&[false]));
        assert!(!CellFunc::Inv.eval_bool(&[true]));
        assert!(CellFunc::Buf.eval_bool(&[true]));
        assert!(!CellFunc::Buf.eval_bool(&[false]));
    }

    #[test]
    fn word_eval_matches_bool_eval() {
        for func in ALL_FUNCS {
            let n = func.arity();
            for assignment in 0..(1usize << n) {
                let bools: Vec<bool> = (0..n).map(|i| assignment & (1 << i) != 0).collect();
                let words: Vec<u64> = bools
                    .iter()
                    .map(|&b| if b { u64::MAX } else { 0 })
                    .collect();
                let word_out = func.eval_word(&words);
                let expect = func.eval_bool(&bools);
                assert_eq!(word_out, if expect { u64::MAX } else { 0 }, "{func}");
            }
        }
    }

    #[test]
    fn row_eval_matches_word_eval_word_by_word() {
        // Word `w` of the output row must be exactly what eval_word
        // computes on word `w` of each input row, for every function and
        // row lengths on either side of a vector register.
        fn word(pin: usize, w: usize) -> u64 {
            let x = (w as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(pin as u64 + 1);
            x ^ (x >> 31) ^ (x << 7)
        }
        for func in ALL_FUNCS {
            let n = func.arity();
            for len in [1, 3, 8, 9] {
                let rows: Vec<Vec<u64>> = (0..n)
                    .map(|pin| (0..len).map(|w| word(pin, w)).collect())
                    .collect();
                let row_refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
                let mut out = vec![0xDEAD_BEEF; len];
                func.eval_rows(&row_refs, &mut out);
                for (w, &got) in out.iter().enumerate() {
                    let words: Vec<u64> = (0..n).map(|pin| word(pin, w)).collect();
                    assert_eq!(got, func.eval_word(&words), "{func} word {w} of {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match the output row")]
    fn row_eval_rejects_a_short_input_row() {
        let mut out = [0u64; 2];
        CellFunc::And2.eval_rows(&[&[1, 2], &[3]], &mut out);
    }

    #[test]
    fn drive_ladder_round_trips() {
        for d in ALL_DRIVES {
            if let Some(up) = d.upsize() {
                assert_eq!(up.downsize(), Some(d));
            }
            if let Some(down) = d.downsize() {
                assert_eq!(down.upsize(), Some(d));
            }
        }
    }

    #[test]
    fn upsizing_monotone_in_area_cap_resistance() {
        for func in ALL_FUNCS {
            let mut d = Drive::X0;
            while let Some(up) = d.upsize() {
                let small = Cell::new(func, d);
                let big = Cell::new(func, up);
                assert!(big.area() > small.area(), "{func} area");
                assert!(big.input_cap() > small.input_cap(), "{func} cap");
                assert!(big.resistance() < small.resistance(), "{func} res");
                d = up;
            }
        }
    }

    #[test]
    fn delay_decreases_with_upsizing_under_load() {
        let load = 8.0;
        let small = Cell::new(CellFunc::Xor2, Drive::X1);
        let big = Cell::new(CellFunc::Xor2, Drive::X4);
        assert!(big.delay(load) < small.delay(load));
    }

    #[test]
    fn name_round_trip_all_cells() {
        for func in ALL_FUNCS {
            for drive in ALL_DRIVES {
                let cell = Cell::new(func, drive);
                let name = cell.lib_name();
                let parsed: Cell = name.parse().expect("round trip");
                assert_eq!(parsed, cell);
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "NAND2", "NAND2X3", "X1", "INVX12", "nandx1"] {
            assert!(bad.parse::<Cell>().is_err(), "{bad}");
        }
    }

    #[test]
    fn input_cell_has_no_timing_footprint() {
        let c = Cell::input();
        assert_eq!(c.area(), 0.0);
        assert_eq!(c.resistance(), 0.0);
        assert_eq!(c.arity(), 0);
        assert!(c.is_input());
    }
}
