//! Structural Verilog reader and writer.
//!
//! The paper's flow consumes a post-synthesis gate-level netlist (`.v`)
//! and emits the approximate netlist in the same format. This module
//! implements the subset of structural Verilog those files use:
//!
//! * scalar `input` / `output` / `wire` declarations,
//! * library-cell instances with named connections
//!   (`NAND2X1 u3 ( .Y(n5), .A(n1), .B(n2) );`),
//! * `assign` of a net to another net or to `1'b0` / `1'b1`,
//! * `//` and `/* */` comments.
//!
//! Instances may appear in any order; the parser topologically sorts them
//! (rejecting combinational loops) so the resulting [`Netlist`] satisfies
//! the topological id invariant. A file whose instances are already in
//! topological order, as every file [`to_verilog`] writes is, keeps its
//! order, so reading back a written netlist gives the same gate ids and
//! writing it again gives the same text.
//!
//! # Memory
//!
//! Reading costs the source text plus the netlist. The lexer hands the
//! parser one token at a time as a slice of the source; nets and
//! instances refer to their names there and number their pins with
//! `u32` ids, and the topological sort keeps its dependency rows in two
//! flat arrays. Owned strings are made only for the module name, the
//! netlist's name tables (reserved at their final size) and errors, so
//! a parse makes a few dozen allocations whatever the circuit's size,
//! none larger than about the source. Writing costs the output `String`,
//! allocated once at its exact length.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::verilog;
//!
//! let src = "
//! module tiny (a, b, y);
//!   input a, b;
//!   output y;
//!   wire n1;
//!   NAND2X1 u1 ( .Y(n1), .A(a), .B(b) );
//!   INVX1 u2 ( .Y(y), .A(n1) );
//! endmodule";
//! let netlist = verilog::parse(src)?;
//! assert_eq!(netlist.name(), "tiny");
//! assert_eq!(netlist.logic_gate_count(), 2);
//! let round_trip = verilog::parse(&verilog::to_verilog(&netlist))?;
//! assert_eq!(round_trip.logic_gate_count(), 2);
//! # Ok::<(), tdals_netlist::ParseVerilogError>(())
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::cell::Cell;
use crate::error::{Loc, ParseVerilogError};
use crate::netlist::{Capacity, GateId, Netlist, SignalRef};

/// Input pin names used in emitted Verilog, by pin position.
const PIN_NAMES: [&str; 3] = ["A", "B", "C"];

/// Serializes a netlist as structural Verilog.
///
/// Dangling gates are emitted too (they are part of the circuit until the
/// post-optimization sweep deletes them); nets are named `w<id>` and
/// primary inputs/outputs keep their declared names. The text is written
/// into one `String`, allocated once at its exact length.
pub fn to_verilog(netlist: &Netlist) -> String {
    let len = verilog_len(netlist);
    let mut out = String::with_capacity(len);
    // Writing into a `String` cannot fail.
    let _ = write_verilog(netlist, &mut out);
    debug_assert_eq!(out.len(), len, "verilog_len disagrees with the writer");
    out
}

/// The Verilog name of a signal: `1'b0`/`1'b1`, a primary input's
/// declared name, or `w<id>` for a gate output.
struct SignalName<'a>(&'a Netlist, SignalRef);

impl std::fmt::Display for SignalName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.1 {
            SignalRef::Const0 => f.write_str("1'b0"),
            SignalRef::Const1 => f.write_str("1'b1"),
            SignalRef::Gate(id) if self.0.gate(id).is_input() => {
                f.write_str(self.0.gate(id).name())
            }
            SignalRef::Gate(id) => write!(f, "w{}", id.index()),
        }
    }
}

fn write_verilog(netlist: &Netlist, out: &mut String) -> std::fmt::Result {
    let input_names = || netlist.inputs().iter().map(|&pi| netlist.gate(pi).name());
    let output_names = || netlist.outputs().map(|(name, _)| name);
    write!(out, "module {} (", netlist.name())?;
    for (i, port) in input_names().chain(output_names()).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(port);
    }
    out.push_str(");\n");
    for name in input_names() {
        writeln!(out, "  input {name};")?;
    }
    for name in output_names() {
        writeln!(out, "  output {name};")?;
    }

    let gates = || netlist.iter().filter(|(_, gate)| !gate.is_input());
    for (i, (id, _)) in gates().enumerate() {
        out.push_str(if i == 0 { "  wire " } else { ", " });
        write!(out, "w{}", id.index())?;
    }
    if netlist.logic_gate_count() > 0 {
        out.push_str(";\n");
    }
    for (id, gate) in gates() {
        let cell = gate.cell();
        write!(
            out,
            "  {}{} {} ( .Y(w{})",
            cell.func().stem(),
            cell.drive().suffix(),
            gate.name(),
            id.index()
        )?;
        for (pin, fanin) in PIN_NAMES.iter().zip(gate.fanins()) {
            write!(out, ", .{pin}({})", SignalName(netlist, fanin))?;
        }
        out.push_str(" );\n");
    }
    for (name, driver) in netlist.outputs() {
        writeln!(out, "  assign {name} = {};", SignalName(netlist, driver))?;
    }
    out.push_str("endmodule\n");
    Ok(())
}

/// The exact length of [`write_verilog`]'s text, so [`to_verilog`]
/// allocates its buffer once.
fn verilog_len(netlist: &Netlist) -> usize {
    let decimal_len = |n: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let signal_len = |s: SignalRef| match s {
        SignalRef::Const0 | SignalRef::Const1 => "1'b0".len(),
        SignalRef::Gate(id) if netlist.gate(id).is_input() => netlist.gate(id).name().len(),
        SignalRef::Gate(id) => 1 + decimal_len(id.index()),
    };
    let ports = netlist.input_count() + netlist.output_count();
    let mut len = "module  ();\n".len()
        + netlist.name().len()
        + ", ".len() * ports.saturating_sub(1)
        + "endmodule\n".len();
    for &pi in netlist.inputs() {
        // In the port list and in the declaration.
        len += 2 * netlist.gate(pi).name().len() + "  input ;\n".len();
    }
    for (name, driver) in netlist.outputs() {
        len += 2 * name.len() + "  output ;\n".len();
        len += name.len() + signal_len(driver) + "  assign  = ;\n".len();
    }
    let gates = netlist.logic_gate_count();
    if gates > 0 {
        len += "  wire ;\n".len() + ", ".len() * (gates - 1);
    }
    for (id, gate) in netlist.iter().filter(|(_, gate)| !gate.is_input()) {
        let cell = gate.cell();
        let net = signal_len(SignalRef::Gate(id));
        len += net; // in the wire list
        len += "    ( .Y() );\n".len()
            + cell.func().stem().len()
            + cell.drive().suffix().len()
            + gate.name().len()
            + net;
        for fanin in gate.fanins() {
            len += ", .A()".len() + signal_len(fanin);
        }
    }
    len
}

/// One token: a slice of the source and the position of its first
/// character.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Token<'a> {
    text: &'a str,
    loc: Loc,
}

/// Splits source text into tokens on demand, as slices of the source.
///
/// Tokens are the punctuation characters `( ) , ; . =` and maximal runs
/// of anything else up to whitespace, punctuation or the start of a
/// comment; so a `/` that does not start `//` or `/*` is part of a name.
/// Lines and columns are 1-based and count characters, not bytes.
struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// Line of the next unread character.
    line: usize,
    /// Column of the next unread character.
    col: usize,
}

/// Whether `text` starts with a `//` or `/*` comment.
#[inline]
fn starts_comment(text: &str) -> bool {
    text.starts_with("//") || text.starts_with("/*")
}

/// Whether `c` is a one-character token.
#[inline]
fn is_punctuation(c: char) -> bool {
    matches!(c, '(' | ')' | ',' | ';' | '.' | '=')
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// The next unread character.
    #[inline]
    fn peek(&self) -> Option<char> {
        let &byte = self.src.as_bytes().get(self.pos)?;
        if byte.is_ascii() {
            Some(char::from(byte))
        } else {
            self.src[self.pos..].chars().next()
        }
    }

    /// Skips a comment starting at the next unread character.
    fn skip_comment(&mut self) {
        let body_start = self.pos + 2;
        if self.src.as_bytes()[self.pos + 1] == b'/' {
            // A line comment runs to the newline, which resets the column.
            self.pos = self.src[body_start..]
                .find('\n')
                .map_or(self.src.len(), |i| body_start + i);
            return;
        }
        // A block comment runs to its `*/`, or to the end of the source.
        let Some(body_len) = self.src[body_start..].find("*/") else {
            self.pos = self.src.len();
            return;
        };
        let body = &self.src[body_start..body_start + body_len];
        match body.rfind('\n') {
            Some(last) => {
                self.line += body.bytes().filter(|&b| b == b'\n').count();
                self.col = 1 + body[last + 1..].chars().count() + "*/".len();
            }
            None => self.col += "/*".len() + body.chars().count() + "*/".len(),
        }
        self.pos = body_start + body_len + "*/".len();
    }

    /// The next token, or `None` at the end of the source.
    fn token(&mut self) -> Option<Token<'a>> {
        loop {
            let c = self.peek()?;
            let start = self.pos;
            let loc = Loc::new(self.line, self.col);
            match c {
                '\n' => {
                    self.line += 1;
                    self.col = 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => {
                    self.col += 1;
                    self.pos += c.len_utf8();
                }
                '/' if starts_comment(&self.src[start..]) => self.skip_comment(),
                c if is_punctuation(c) => {
                    self.col += 1;
                    self.pos += 1;
                    return Some(Token {
                        text: &self.src[start..self.pos],
                        loc,
                    });
                }
                _ => {
                    let rest = &self.src[start..];
                    let mut len = rest.len();
                    for (i, c) in rest.char_indices() {
                        let ends = c.is_whitespace()
                            || is_punctuation(c)
                            || (c == '/' && starts_comment(&rest[i..]));
                        if ends {
                            len = i;
                            break;
                        }
                        self.col += 1;
                    }
                    self.pos = start + len;
                    return Some(Token {
                        text: &self.src[start..self.pos],
                        loc,
                    });
                }
            }
        }
    }
}

/// A net value during elaboration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NetDriver {
    Undriven,
    Const(bool),
    Instance(u32),
    /// `assign lhs = rhs;` alias to another net.
    Alias(u32),
    PrimaryInput(u32),
}

/// A net during elaboration.
#[derive(Debug)]
struct Net<'a> {
    name: &'a str,
    /// First-seen position, so diagnostics discovered during elaboration
    /// (undriven nets, alias cycles) still point into the source.
    loc: Loc,
    driver: NetDriver,
}

/// The nets of a module, numbered in order of first appearance.
struct Nets<'a> {
    ids: HashMap<&'a str, u32>,
    nets: Vec<Net<'a>>,
}

impl<'a> Nets<'a> {
    fn with_capacity(capacity: usize) -> Nets<'a> {
        Nets {
            ids: HashMap::with_capacity(capacity),
            nets: Vec::with_capacity(capacity),
        }
    }

    /// The id of the net named by `tok`, numbering it if it is new.
    fn intern(&mut self, tok: Token<'a>) -> u32 {
        let next = u32::try_from(self.nets.len()).expect("a source below 4 GiB has fewer nets");
        let id = *self.ids.entry(tok.text).or_insert(next);
        if id == next {
            // Constant literals used directly as operands are pre-driven nets.
            let driver = match tok.text {
                "1'b0" => NetDriver::Const(false),
                "1'b1" => NetDriver::Const(true),
                _ => NetDriver::Undriven,
            };
            self.nets.push(Net {
                name: tok.text,
                loc: tok.loc,
                driver,
            });
        }
        id
    }

    /// Makes `value` the driver of the net named by `tok`.
    fn drive(&mut self, tok: Token<'a>, value: NetDriver) -> Result<u32, ParseVerilogError> {
        let net = self.intern(tok);
        let driver = &mut self.nets[net as usize].driver;
        if *driver != NetDriver::Undriven {
            return Err(ParseVerilogError::MultipleDrivers {
                net: tok.text.to_owned(),
                loc: tok.loc,
            });
        }
        *driver = value;
        Ok(net)
    }

    /// The driver at the end of `net`'s alias chain.
    fn resolve(&self, mut net: u32) -> Result<NetDriver, ParseVerilogError> {
        for _ in 0..=self.nets.len() {
            match self.nets[net as usize].driver {
                NetDriver::Alias(next) => net = next,
                other => return Ok(other),
            }
        }
        let net = &self.nets[net as usize];
        Err(ParseVerilogError::CombinationalLoop {
            instance: net.name.to_owned(),
            loc: net.loc,
        })
    }

    fn unknown(&self, net: u32, loc: Loc) -> ParseVerilogError {
        ParseVerilogError::UnknownNet {
            loc,
            net: self.nets[net as usize].name.to_owned(),
        }
    }
}

#[derive(Debug)]
struct RawInstance<'a> {
    name: &'a str,
    cell: Cell,
    loc: Loc,
    /// Net per input pin; only the first `cell.arity()` are used.
    pins: [Option<u32>; 3],
    has_output: bool,
}

impl RawInstance<'_> {
    fn syntax_error(&self, message: String) -> ParseVerilogError {
        ParseVerilogError::Syntax {
            loc: self.loc,
            message,
        }
    }

    fn loop_error(&self) -> ParseVerilogError {
        ParseVerilogError::CombinationalLoop {
            instance: self.name.to_owned(),
            loc: self.loc,
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
}

impl<'a> Parser<'a> {
    fn next(&mut self) -> Result<Token<'a>, ParseVerilogError> {
        self.lexer.token().ok_or(ParseVerilogError::UnexpectedEof)
    }

    fn expect(&mut self, text: &str) -> Result<Token<'a>, ParseVerilogError> {
        let t = self.next()?;
        if t.text != text {
            return Err(ParseVerilogError::Syntax {
                loc: t.loc,
                message: format!("expected `{text}`, found `{}`", t.text),
            });
        }
        Ok(t)
    }

    fn ident(&mut self) -> Result<Token<'a>, ParseVerilogError> {
        let t = self.next()?;
        let ok = t
            .text
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '\'' || c == '[' || c == ']');
        if t.text.is_empty() || !ok {
            return Err(ParseVerilogError::Syntax {
                loc: t.loc,
                message: format!("expected identifier, found `{}`", t.text),
            });
        }
        Ok(t)
    }

    /// The rest of a declaration: names separated by `,` up to `;`.
    fn declaration(
        &mut self,
        mut declare: impl FnMut(Token<'a>) -> Result<(), ParseVerilogError>,
    ) -> Result<(), ParseVerilogError> {
        loop {
            declare(self.ident()?)?;
            let sep = self.next()?;
            match sep.text {
                "," => continue,
                ";" => return Ok(()),
                other => {
                    return Err(ParseVerilogError::Syntax {
                        loc: sep.loc,
                        message: format!("expected `,` or `;`, found `{other}`"),
                    })
                }
            }
        }
    }

    /// The rest of an instance of `cell`, after its cell name `t`.
    fn instance(
        &mut self,
        t: Token<'a>,
        cell: Cell,
        nets: &mut Nets<'a>,
        index: u32,
    ) -> Result<RawInstance<'a>, ParseVerilogError> {
        let mut inst = RawInstance {
            name: self.ident()?.text,
            cell,
            loc: t.loc,
            pins: [None; 3],
            has_output: false,
        };
        self.expect("(")?;
        loop {
            let tok = self.next()?;
            match tok.text {
                ")" => break,
                "," => continue,
                "." => {
                    let pin_tok = self.ident()?;
                    self.expect("(")?;
                    let net_tok = self.ident()?;
                    self.expect(")")?;
                    let pin = pin_tok.text;
                    if pin == "Y" {
                        if net_tok.text == "1'b0" || net_tok.text == "1'b1" {
                            return Err(ParseVerilogError::Syntax {
                                loc: net_tok.loc,
                                message: "constant on output pin".to_owned(),
                            });
                        }
                        nets.drive(net_tok, NetDriver::Instance(index))?;
                        inst.has_output = true;
                    } else {
                        let idx = PIN_NAMES
                            .iter()
                            .position(|&n| n == pin)
                            .filter(|&i| i < cell.arity())
                            .ok_or_else(|| ParseVerilogError::Syntax {
                                loc: pin_tok.loc,
                                message: format!("unknown pin `{pin}` on cell {}", t.text),
                            })?;
                        inst.pins[idx] = Some(nets.intern(net_tok));
                    }
                }
                other => {
                    return Err(ParseVerilogError::Syntax {
                        loc: tok.loc,
                        message: format!("unexpected token `{other}` in instance"),
                    })
                }
            }
        }
        self.expect(";")?;
        Ok(inst)
    }
}

/// Parses structural Verilog into a [`Netlist`].
///
/// Reading costs the source text plus the netlist (see the module
/// docs).
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on malformed syntax, unknown cells or
/// nets, multiply-driven nets, or combinational loops. Only the first
/// module in the source is read.
pub fn parse(src: &str) -> Result<Netlist, ParseVerilogError> {
    // Net and instance ids are `u32`; every net and instance takes at
    // least two bytes of source, so a shorter source cannot overflow them.
    if u32::try_from(src.len()).is_err() {
        return Err(ParseVerilogError::Syntax {
            loc: Loc::new(1, 1),
            message: "source exceeds 4 GiB".to_owned(),
        });
    }
    let mut p = Parser {
        lexer: Lexer::new(src),
    };
    p.expect("module")?;
    let module_name = p.ident()?.text;

    // Port list (names repeated in input/output declarations).
    p.expect("(")?;
    while p.next()?.text != ")" {}
    p.expect(";")?;

    // Size the tables from the `;` count. Every instance ends in one, so
    // it bounds the instances. Nets are about one per statement, plus the
    // inputs a declaration lists together: a quarter more covers the
    // suite circuits, and the tables still grow for a source that needs
    // more.
    let statements = src.bytes().filter(|&b| b == b';').count();
    let mut nets = Nets::with_capacity(statements + statements / 4);
    let mut instances: Vec<RawInstance<'_>> = Vec::with_capacity(statements);
    let mut input_order: Vec<u32> = Vec::new();
    let mut output_order: Vec<(&str, u32)> = Vec::new();

    loop {
        let t = p.next()?;
        match t.text {
            "endmodule" => break,
            "input" => p.declaration(|name| {
                let index = u32::try_from(input_order.len()).expect("inputs are nets");
                input_order.push(nets.drive(name, NetDriver::PrimaryInput(index))?);
                Ok(())
            })?,
            "output" => p.declaration(|name| {
                output_order.push((name.text, nets.intern(name)));
                Ok(())
            })?,
            "wire" => p.declaration(|name| {
                nets.intern(name);
                Ok(())
            })?,
            "assign" => {
                let lhs = p.ident()?;
                // Interned first, so a net first seen here (even as
                // `assign x = x;`) is located at the left-hand side.
                nets.intern(lhs);
                p.expect("=")?;
                let rhs = p.ident()?;
                let value = match rhs.text {
                    "1'b0" => NetDriver::Const(false),
                    "1'b1" => NetDriver::Const(true),
                    _ => NetDriver::Alias(nets.intern(rhs)),
                };
                nets.drive(lhs, value)?;
                p.expect(";")?;
            }
            cell_name => {
                let cell: Cell = cell_name
                    .parse()
                    .map_err(|_| ParseVerilogError::UnknownCell {
                        loc: t.loc,
                        cell: cell_name.to_owned(),
                    })?;
                let index = u32::try_from(instances.len())
                    .expect("a source below 4 GiB has fewer instances");
                let inst = p.instance(t, cell, &mut nets, index)?;
                instances.push(inst);
            }
        }
    }

    let order = topological_order(&instances, &nets)?;

    // Build the netlist: PIs first (so input `k` is gate `k`), then
    // instances in topological order.
    let capacity = Capacity {
        gates: input_order.len() + instances.len(),
        pins: instances.iter().map(|inst| inst.cell.arity()).sum(),
        name_bytes: input_order
            .iter()
            .map(|&net| nets.nets[net as usize].name.len())
            .chain(instances.iter().map(|inst| inst.name.len()))
            .sum(),
        inputs: input_order.len(),
        outputs: output_order.len(),
        output_name_bytes: output_order.iter().map(|(name, _)| name.len()).sum(),
    };
    let mut netlist = Netlist::with_capacity(module_name, capacity);
    for &net in &input_order {
        netlist.add_input(nets.nets[net as usize].name);
    }
    let mut inst_gate: Vec<Option<GateId>> = vec![None; instances.len()];
    let signal_of_net = |net: u32,
                         inst_gate: &[Option<GateId>],
                         loc: Loc|
     -> Result<SignalRef, ParseVerilogError> {
        match nets.resolve(net)? {
            NetDriver::Const(false) => Ok(SignalRef::Const0),
            NetDriver::Const(true) => Ok(SignalRef::Const1),
            NetDriver::PrimaryInput(idx) => Ok(SignalRef::Gate(GateId::new(idx as usize))),
            NetDriver::Instance(i) => inst_gate[i as usize]
                .map(SignalRef::Gate)
                .ok_or_else(|| instances[i as usize].loop_error()),
            NetDriver::Undriven | NetDriver::Alias(_) => Err(nets.unknown(net, loc)),
        }
    };

    for &i in &order {
        let inst = &instances[i as usize];
        let arity = inst.cell.arity();
        let mut fanins = [SignalRef::Const0; 3];
        for (fanin, net) in fanins.iter_mut().zip(&inst.pins[..arity]) {
            *fanin = signal_of_net(net.expect("checked above"), &inst_gate, inst.loc)?;
        }
        if !inst.has_output {
            return Err(
                inst.syntax_error(format!("instance `{}` has no output connection", inst.name))
            );
        }
        let id = netlist.add_gate(inst.name, inst.cell, &fanins[..arity])?;
        inst_gate[i as usize] = Some(id);
    }

    for (name, net) in output_order {
        let driver = signal_of_net(net, &inst_gate, nets.nets[net as usize].loc)?;
        netlist.add_output(name, driver);
    }
    netlist.check_invariants()?;
    Ok(netlist)
}

/// The instances in a topological order of their instance-to-instance
/// dependencies: file order when every instance reads only instances
/// before it, and otherwise Kahn's algorithm (the ready set is a stack,
/// so the order, and with it every gate id, is a function of the
/// source).
///
/// # Errors
///
/// Returns the first unconnected input pin, undriven net or alias cycle
/// in instance and pin order, and otherwise a combinational loop.
fn topological_order(
    instances: &[RawInstance<'_>],
    nets: &Nets<'_>,
) -> Result<Vec<u32>, ParseVerilogError> {
    // The instance driving each pin's net, if any.
    let source = |inst: &RawInstance<'_>, pin: usize| -> Result<Option<u32>, ParseVerilogError> {
        let net = inst.pins[pin].ok_or_else(|| {
            inst.syntax_error(format!(
                "instance `{}` leaves pin {} unconnected",
                inst.name, PIN_NAMES[pin]
            ))
        })?;
        match nets.resolve(net)? {
            NetDriver::Instance(i) => Ok(Some(i)),
            NetDriver::Undriven => Err(nets.unknown(net, nets.nets[net as usize].loc)),
            _ => Ok(None),
        }
    };

    // Dependents of every instance in compressed-sparse-row form: count
    // them, then fill each row back to front so it lists its readers in
    // ascending (instance, pin) order.
    let n = instances.len();
    let mut indegree = vec![0u32; n];
    let mut row_end = vec![0u32; n + 1];
    let mut sorted = true;
    for (i, inst) in instances.iter().enumerate() {
        for pin in 0..inst.cell.arity() {
            if let Some(src) = source(inst, pin)? {
                sorted &= (src as usize) < i;
                row_end[src as usize] += 1;
                indegree[i] += 1;
            }
        }
    }
    if sorted {
        return Ok((0..n as u32).collect());
    }
    let mut total = 0;
    for end in &mut row_end[..n] {
        total += *end;
        *end = total;
    }
    row_end[n] = total;
    let mut dependents = vec![0u32; total as usize];
    for (i, inst) in instances.iter().enumerate().rev() {
        for pin in (0..inst.cell.arity()).rev() {
            if let Some(src) = source(inst, pin).expect("checked above") {
                row_end[src as usize] -= 1;
                dependents[row_end[src as usize] as usize] = i as u32;
            }
        }
    }
    // `row_end[i]` is now where row `i` starts, and `row_end[i + 1]`
    // where it ends.
    let row_start = row_end;

    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| indegree[i as usize] == 0)
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(i);
        let i = i as usize;
        for &j in &dependents[row_start[i] as usize..row_start[i + 1] as usize] {
            indegree[j as usize] -= 1;
            if indegree[j as usize] == 0 {
                ready.push(j);
            }
        }
    }
    if order.len() != n {
        let stuck = indegree
            .iter()
            .position(|&d| d > 0)
            .expect("cycle implies positive indegree");
        return Err(instances[stuck].loop_error());
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellFunc, Drive};

    fn tiny_source() -> &'static str {
        "module tiny (a, b, c, y, z);\n\
         input a, b, c;\n\
         output y, z;\n\
         wire n1, n2;\n\
         NAND2X1 u1 ( .Y(n1), .A(a), .B(b) );\n\
         XOR2X2 u2 ( .Y(n2), .A(n1), .B(c) );\n\
         assign y = n2;\n\
         assign z = 1'b1;\n\
         endmodule\n"
    }

    #[test]
    fn parses_tiny_module() {
        let n = parse(tiny_source()).expect("parse");
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.input_count(), 3);
        assert_eq!(n.output_count(), 2);
        assert_eq!(n.logic_gate_count(), 2);
        let u2 = n.find_gate("u2").expect("u2");
        assert_eq!(n.gate(u2).cell().func(), CellFunc::Xor2);
        assert_eq!(n.gate(u2).cell().drive(), Drive::X2);
        assert_eq!(n.output_driver(1), SignalRef::Const1);
    }

    #[test]
    fn parses_out_of_order_instances() {
        let src = "module ooo (a, y);\n\
                   input a;\n output y;\n wire n1, n2;\n\
                   INVX1 u2 ( .Y(n2), .A(n1) );\n\
                   INVX1 u1 ( .Y(n1), .A(a) );\n\
                   assign y = n2;\n\
                   endmodule";
        let n = parse(src).expect("parse out of order");
        n.check_invariants().expect("invariants hold");
        let u1 = n.find_gate("u1").expect("u1");
        let u2 = n.find_gate("u2").expect("u2");
        assert!(u1 < u2, "u1 must be renumbered before u2");
    }

    #[test]
    fn detects_combinational_loop() {
        let src = "module looped (a, y);\n\
                   input a;\n output y;\n wire n1, n2;\n\
                   AND2X1 u1 ( .Y(n1), .A(a), .B(n2) );\n\
                   INVX1 u2 ( .Y(n2), .A(n1) );\n\
                   assign y = n2;\n\
                   endmodule";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, ParseVerilogError::CombinationalLoop { .. }));
    }

    #[test]
    fn detects_multiple_drivers() {
        let src = "module md (a, y);\n\
                   input a;\n output y;\n wire n1;\n\
                   INVX1 u1 ( .Y(n1), .A(a) );\n\
                   BUFX1 u2 ( .Y(n1), .A(a) );\n\
                   assign y = n1;\n\
                   endmodule";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, ParseVerilogError::MultipleDrivers { .. }));
    }

    #[test]
    fn detects_unknown_cell() {
        let src = "module uc (a, y);\n input a;\n output y;\n wire n1;\n\
                   FROBX1 u1 ( .Y(n1), .A(a) );\n assign y = n1;\n endmodule";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, ParseVerilogError::UnknownCell { .. }));
    }

    #[test]
    fn detects_undriven_net() {
        let src = "module un (a, y);\n input a;\n output y;\n wire n1, ghost;\n\
                   AND2X1 u1 ( .Y(n1), .A(a), .B(ghost) );\n assign y = n1;\n endmodule";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, ParseVerilogError::UnknownNet { .. }));
    }

    #[test]
    fn comments_are_ignored() {
        let src = "// header comment\nmodule c (a, y); /* inline */\n\
                   input a;\n output y;\n wire n1;\n\
                   INVX1 u1 ( .Y(n1), .A(a) ); // trailing\n\
                   assign y = n1;\n endmodule";
        let n = parse(src).expect("parse with comments");
        assert_eq!(n.logic_gate_count(), 1);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = parse(tiny_source()).expect("parse");
        let emitted = to_verilog(&original);
        let reparsed = parse(&emitted).expect("reparse");
        assert_eq!(reparsed.input_count(), original.input_count());
        assert_eq!(reparsed.output_count(), original.output_count());
        assert_eq!(reparsed.logic_gate_count(), original.logic_gate_count());
        // Same cells in same topological positions.
        for (id, gate) in original.iter() {
            assert_eq!(reparsed.gate(id).cell(), gate.cell());
            assert_eq!(reparsed.gate(id).fanins(), gate.fanins());
        }
    }

    #[test]
    fn writer_emits_constants() {
        let mut n = parse(tiny_source()).expect("parse");
        let u1 = n.find_gate("u1").expect("u1");
        n.substitute(u1, SignalRef::Const0).expect("lac");
        let text = to_verilog(&n);
        assert!(
            text.contains("1'b0"),
            "constant operand serialized:\n{text}"
        );
        let reparsed = parse(&text).expect("reparse with constant");
        reparsed.check_invariants().expect("valid");
    }

    #[test]
    fn three_input_cells_round_trip() {
        let src = "module t3 (a, b, c, y);\n input a, b, c;\n output y;\n wire n1;\n\
                   MAJ3X2 u1 ( .Y(n1), .A(a), .B(b), .C(c) );\n\
                   assign y = n1;\n endmodule";
        let n = parse(src).expect("parse maj3");
        let again = parse(&to_verilog(&n)).expect("round trip");
        let u1 = again.find_gate("u1").expect("u1");
        assert_eq!(again.gate(u1).cell().func(), CellFunc::Maj3);
        assert_eq!(again.gate(u1).fanins().len(), 3);
    }

    #[test]
    fn truncated_input_is_eof() {
        let err = parse("module broken (a").unwrap_err();
        assert!(matches!(err, ParseVerilogError::UnexpectedEof));
    }
}
