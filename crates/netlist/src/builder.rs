//! Ergonomic netlist construction.
//!
//! [`Builder`] wraps [`Netlist`] with auto-named gates, logic-operator
//! helpers, and light constant folding, so benchmark generators and
//! examples can express datapaths (`b.xor(a, c)`, ripple-carry loops, …)
//! without hand-managing instance names or trivial constants.
//!
//! # Examples
//!
//! Build a full adder in five lines:
//!
//! ```
//! use tdals_netlist::builder::Builder;
//!
//! let mut b = Builder::new("fa");
//! let a = b.input("a");
//! let x = b.input("b");
//! let cin = b.input("cin");
//! let ax = b.xor(a, x);
//! let sum = b.xor(ax, cin);
//! let cout = b.maj(a, x, cin);
//! b.output("sum", sum);
//! b.output("cout", cout);
//! let netlist = b.finish();
//! assert_eq!(netlist.logic_gate_count(), 3);
//! ```

use crate::cell::{Cell, CellFunc, Drive};
use crate::netlist::{Netlist, SignalRef};

/// Incremental netlist builder with auto-naming and constant folding.
///
/// All gates are instantiated at [`Drive::X1`]; sizing is the
/// post-optimization's job. Folding rules cover identities involving
/// constants (`a & 0 = 0`, `a ^ 0 = a`, …) and equal operands
/// (`a & a = a`, `a ^ a = 0`), which keeps generated arithmetic blocks
/// free of degenerate gates.
#[derive(Debug, Clone)]
pub struct Builder {
    netlist: Netlist,
    counter: usize,
}

impl Builder {
    /// Starts building a module with the given name.
    pub fn new(name: impl Into<String>) -> Builder {
        Builder {
            netlist: Netlist::new(name),
            counter: 0,
        }
    }

    /// Declares one primary input.
    pub fn input(&mut self, name: impl AsRef<str>) -> SignalRef {
        self.netlist.add_input(name).into()
    }

    /// Declares `count` primary inputs named `prefix0..prefixN-1`,
    /// index 0 first (LSB-first for buses).
    pub fn inputs(&mut self, prefix: &str, count: usize) -> Vec<SignalRef> {
        (0..count)
            .map(|i| self.input(format!("{prefix}{i}")))
            .collect()
    }

    /// Declares one primary output.
    pub fn output(&mut self, name: impl AsRef<str>, signal: SignalRef) {
        self.netlist.add_output(name, signal);
    }

    /// Declares a bus of primary outputs, LSB first.
    pub fn outputs(&mut self, prefix: &str, signals: &[SignalRef]) {
        for (i, &s) in signals.iter().enumerate() {
            self.output(format!("{prefix}{i}"), s);
        }
    }

    /// Number of gates added so far (including inputs).
    pub fn gate_count(&self) -> usize {
        self.netlist.gate_count()
    }

    /// Finalizes and returns the netlist.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant was violated (a bug in the
    /// builder itself).
    pub fn finish(self) -> Netlist {
        self.netlist
            .check_invariants()
            .expect("builder must construct valid netlists");
        self.netlist
    }

    /// Emits a raw gate with the given function (no folding).
    pub fn raw_gate(&mut self, func: CellFunc, fanins: &[SignalRef]) -> SignalRef {
        self.counter += 1;
        let name = format!("u{}", self.counter);
        self.netlist
            .add_gate(name, Cell::new(func, Drive::X1), fanins)
            .expect("builder fanins are always older than the new gate")
            .into()
    }

    /// NOT, folding constants and double inversions where trivial.
    pub fn not(&mut self, a: SignalRef) -> SignalRef {
        match a {
            SignalRef::Const0 => SignalRef::Const1,
            SignalRef::Const1 => SignalRef::Const0,
            _ => self.raw_gate(CellFunc::Inv, &[a]),
        }
    }

    /// Buffer (no folding value, but useful for fan-out isolation).
    pub fn buf(&mut self, a: SignalRef) -> SignalRef {
        self.raw_gate(CellFunc::Buf, &[a])
    }

    /// 2-input AND with constant folding.
    pub fn and(&mut self, a: SignalRef, b: SignalRef) -> SignalRef {
        match (a, b) {
            (SignalRef::Const0, _) | (_, SignalRef::Const0) => SignalRef::Const0,
            (SignalRef::Const1, x) | (x, SignalRef::Const1) => x,
            (x, y) if x == y => x,
            (x, y) => self.raw_gate(CellFunc::And2, &[x, y]),
        }
    }

    /// 2-input OR with constant folding.
    pub fn or(&mut self, a: SignalRef, b: SignalRef) -> SignalRef {
        match (a, b) {
            (SignalRef::Const1, _) | (_, SignalRef::Const1) => SignalRef::Const1,
            (SignalRef::Const0, x) | (x, SignalRef::Const0) => x,
            (x, y) if x == y => x,
            (x, y) => self.raw_gate(CellFunc::Or2, &[x, y]),
        }
    }

    /// 2-input XOR with constant folding.
    pub fn xor(&mut self, a: SignalRef, b: SignalRef) -> SignalRef {
        match (a, b) {
            (SignalRef::Const0, x) | (x, SignalRef::Const0) => x,
            (SignalRef::Const1, x) | (x, SignalRef::Const1) => self.not(x),
            (x, y) if x == y => SignalRef::Const0,
            (x, y) => self.raw_gate(CellFunc::Xor2, &[x, y]),
        }
    }

    /// 2-input XNOR with constant folding.
    pub fn xnor(&mut self, a: SignalRef, b: SignalRef) -> SignalRef {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// 2-input NAND with constant folding.
    pub fn nand(&mut self, a: SignalRef, b: SignalRef) -> SignalRef {
        match (a, b) {
            (SignalRef::Const0, _) | (_, SignalRef::Const0) => SignalRef::Const1,
            (SignalRef::Const1, x) | (x, SignalRef::Const1) => self.not(x),
            (x, y) if x == y => self.not(x),
            (x, y) => self.raw_gate(CellFunc::Nand2, &[x, y]),
        }
    }

    /// 2-input NOR with constant folding.
    pub fn nor(&mut self, a: SignalRef, b: SignalRef) -> SignalRef {
        match (a, b) {
            (SignalRef::Const1, _) | (_, SignalRef::Const1) => SignalRef::Const0,
            (SignalRef::Const0, x) | (x, SignalRef::Const0) => self.not(x),
            (x, y) if x == y => self.not(x),
            (x, y) => self.raw_gate(CellFunc::Nor2, &[x, y]),
        }
    }

    /// 3-input majority (full-adder carry) with constant folding.
    pub fn maj(&mut self, a: SignalRef, b: SignalRef, c: SignalRef) -> SignalRef {
        match (a, b, c) {
            (SignalRef::Const0, x, y) | (x, SignalRef::Const0, y) | (x, y, SignalRef::Const0) => {
                self.and(x, y)
            }
            (SignalRef::Const1, x, y) | (x, SignalRef::Const1, y) | (x, y, SignalRef::Const1) => {
                self.or(x, y)
            }
            (x, y, z) if x == y => self.mux_fold(x, z),
            (x, y, z) if x == z || y == z => {
                // maj(x, y, x) = x or (x & y) = x when duplicated; the
                // duplicated operand dominates.
                if x == z {
                    self.maj_dup(x, y)
                } else {
                    self.maj_dup(z, x)
                }
            }
            (x, y, z) => self.raw_gate(CellFunc::Maj3, &[x, y, z]),
        }
    }

    fn maj_dup(&mut self, dup: SignalRef, _other: SignalRef) -> SignalRef {
        // maj(d, o, d) = (d&o) | (d&d) | (o&d) = d.
        dup
    }

    fn mux_fold(&mut self, dup: SignalRef, _other: SignalRef) -> SignalRef {
        // maj(x, x, z) = x (two votes out of three).
        dup
    }

    /// 2:1 multiplexer `sel ? hi : lo`, with constant folding.
    pub fn mux(&mut self, sel: SignalRef, lo: SignalRef, hi: SignalRef) -> SignalRef {
        match (sel, lo, hi) {
            (SignalRef::Const0, lo, _) => lo,
            (SignalRef::Const1, _, hi) => hi,
            (_, lo, hi) if lo == hi => lo,
            (s, SignalRef::Const0, hi) => self.and(s, hi),
            (s, lo, SignalRef::Const0) => {
                let ns = self.not(s);
                self.and(ns, lo)
            }
            (s, SignalRef::Const1, hi) => {
                let ns = self.not(s);
                self.or(ns, hi)
            }
            (s, lo, SignalRef::Const1) => self.or(s, lo),
            (s, lo, hi) => self.raw_gate(CellFunc::Mux2, &[s, lo, hi]),
        }
    }

    /// Word-wide 2:1 multiplexer.
    pub fn mux_word(
        &mut self,
        sel: SignalRef,
        lo: &[SignalRef],
        hi: &[SignalRef],
    ) -> Vec<SignalRef> {
        assert_eq!(lo.len(), hi.len(), "mux operands must match in width");
        lo.iter()
            .zip(hi)
            .map(|(&l, &h)| self.mux(sel, l, h))
            .collect()
    }

    /// Balanced reduction tree (e.g. wide OR/AND/XOR).
    pub fn reduce(
        &mut self,
        signals: &[SignalRef],
        mut op: impl FnMut(&mut Builder, SignalRef, SignalRef) -> SignalRef,
        empty: SignalRef,
    ) -> SignalRef {
        if signals.is_empty() {
            return empty;
        }
        let mut layer: Vec<SignalRef> = signals.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(op(self, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Wide OR via a balanced tree (`0` for an empty slice).
    pub fn or_tree(&mut self, signals: &[SignalRef]) -> SignalRef {
        self.reduce(signals, Builder::or, SignalRef::Const0)
    }

    /// Wide AND via a balanced tree (`1` for an empty slice).
    pub fn and_tree(&mut self, signals: &[SignalRef]) -> SignalRef {
        self.reduce(signals, Builder::and, SignalRef::Const1)
    }

    /// Wide XOR (parity) via a balanced tree (`0` for an empty slice).
    pub fn xor_tree(&mut self, signals: &[SignalRef]) -> SignalRef {
        self.reduce(signals, Builder::xor, SignalRef::Const0)
    }

    /// Full adder returning `(sum, carry)`.
    pub fn full_adder(
        &mut self,
        a: SignalRef,
        b: SignalRef,
        cin: SignalRef,
    ) -> (SignalRef, SignalRef) {
        let ab = self.xor(a, b);
        let sum = self.xor(ab, cin);
        let carry = self.maj(a, b, cin);
        (sum, carry)
    }

    /// Ripple-carry addition of two equal-width buses; returns
    /// `(sum_bits, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn ripple_add(
        &mut self,
        a: &[SignalRef],
        b: &[SignalRef],
        cin: SignalRef,
    ) -> (Vec<SignalRef>, SignalRef) {
        assert_eq!(a.len(), b.len(), "adder operands must match in width");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Ripple-borrow subtraction `a - b`; returns
    /// `(difference_bits, borrow_out)` where `borrow_out = 1` iff
    /// `a < b`.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn ripple_sub(&mut self, a: &[SignalRef], b: &[SignalRef]) -> (Vec<SignalRef>, SignalRef) {
        assert_eq!(a.len(), b.len(), "subtractor operands must match in width");
        let nb: Vec<SignalRef> = b.iter().map(|&x| self.not(x)).collect();
        let (diff, carry) = self.ripple_add(a, &nb, SignalRef::Const1);
        let borrow = self.not(carry);
        (diff, borrow)
    }

    /// Unsigned `a >= b` comparator over equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn ge(&mut self, a: &[SignalRef], b: &[SignalRef]) -> SignalRef {
        let (_, borrow) = self.ripple_sub(a, b);
        self.not(borrow)
    }

    /// Read-only access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_rules() {
        let mut b = Builder::new("fold");
        let a = b.input("a");
        assert_eq!(b.and(a, SignalRef::Const0), SignalRef::Const0);
        assert_eq!(b.and(a, SignalRef::Const1), a);
        assert_eq!(b.or(a, SignalRef::Const1), SignalRef::Const1);
        assert_eq!(b.or(a, SignalRef::Const0), a);
        assert_eq!(b.xor(a, SignalRef::Const0), a);
        assert_eq!(b.xor(a, a), SignalRef::Const0);
        assert_eq!(b.and(a, a), a);
        assert_eq!(b.mux(SignalRef::Const1, SignalRef::Const0, a), a);
        assert_eq!(b.maj(a, a, SignalRef::Const0), a);
        // None of the above created a gate.
        assert_eq!(b.netlist().logic_gate_count(), 0);
    }

    /// Evaluates a netlist on one boolean input assignment (test helper;
    /// the real simulator lives in `tdals-sim`).
    fn eval(netlist: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let mut vals = vec![false; netlist.gate_count()];
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            vals[pi.index()] = inputs[i];
        }
        for (id, gate) in netlist.iter() {
            if gate.is_input() {
                continue;
            }
            let ins: Vec<bool> = gate
                .fanins()
                .iter()
                .map(|f| match f {
                    SignalRef::Const0 => false,
                    SignalRef::Const1 => true,
                    SignalRef::Gate(s) => vals[s.index()],
                })
                .collect();
            vals[id.index()] = gate.cell().eval_bool(&ins);
        }
        netlist
            .outputs()
            .map(|(_, d)| match d {
                SignalRef::Const0 => false,
                SignalRef::Const1 => true,
                SignalRef::Gate(s) => vals[s.index()],
            })
            .collect()
    }

    fn to_bits(value: usize, width: usize) -> Vec<bool> {
        (0..width).map(|i| value >> i & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> usize {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| usize::from(b) << i)
            .sum()
    }

    #[test]
    fn ripple_add_is_correct() {
        let mut b = Builder::new("add4");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (sum, cout) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &sum);
        b.output("cout", cout);
        let n = b.finish();
        for av in 0..16usize {
            for bv in 0..16usize {
                let mut ins = to_bits(av, 4);
                ins.extend(to_bits(bv, 4));
                let outs = eval(&n, &ins);
                let got = from_bits(&outs);
                assert_eq!(got, av + bv, "{av}+{bv}");
            }
        }
    }

    #[test]
    fn ripple_sub_and_ge() {
        let mut b = Builder::new("sub4");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (diff, borrow) = b.ripple_sub(&a, &x);
        let ge = b.ge(&a, &x);
        b.outputs("d", &diff);
        b.output("borrow", borrow);
        b.output("ge", ge);
        let n = b.finish();
        for av in 0..16usize {
            for bv in 0..16usize {
                let mut ins = to_bits(av, 4);
                ins.extend(to_bits(bv, 4));
                let outs = eval(&n, &ins);
                let diff = from_bits(&outs[0..4]);
                assert_eq!(diff, (av.wrapping_sub(bv)) & 0xF, "{av}-{bv}");
                assert_eq!(outs[4], av < bv, "borrow {av} {bv}");
                assert_eq!(outs[5], av >= bv, "ge {av} {bv}");
            }
        }
    }

    #[test]
    fn trees_compute_reductions() {
        let mut b = Builder::new("trees");
        let xs = b.inputs("x", 5);
        let or = b.or_tree(&xs);
        let and = b.and_tree(&xs);
        let parity = b.xor_tree(&xs);
        b.output("or", or);
        b.output("and", and);
        b.output("parity", parity);
        let n = b.finish();
        for v in 0..32usize {
            let ins = to_bits(v, 5);
            let outs = eval(&n, &ins);
            assert_eq!(outs[0], v != 0);
            assert_eq!(outs[1], v == 31);
            assert_eq!(outs[2], (v.count_ones() % 2) == 1);
        }
    }

    #[test]
    fn mux_word_selects() {
        let mut b = Builder::new("muxw");
        let s = b.input("s");
        let lo = b.inputs("lo", 3);
        let hi = b.inputs("hi", 3);
        let out = b.mux_word(s, &lo, &hi);
        b.outputs("y", &out);
        let n = b.finish();
        for sel in [false, true] {
            for l in 0..8usize {
                for h in 0..8usize {
                    let mut ins = vec![sel];
                    ins.extend(to_bits(l, 3));
                    ins.extend(to_bits(h, 3));
                    let outs = eval(&n, &ins);
                    let want = if sel { h } else { l };
                    assert_eq!(from_bits(&outs), want);
                }
            }
        }
    }

    #[test]
    fn empty_trees_return_identity() {
        let mut b = Builder::new("empty");
        assert_eq!(b.or_tree(&[]), SignalRef::Const0);
        assert_eq!(b.and_tree(&[]), SignalRef::Const1);
        assert_eq!(b.xor_tree(&[]), SignalRef::Const0);
    }
}
