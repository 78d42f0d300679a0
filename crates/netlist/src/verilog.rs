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
//! the topological id invariant.
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
use crate::netlist::{GateId, Netlist, SignalRef};

/// Input pin names used in emitted Verilog, by pin position.
const PIN_NAMES: [&str; 3] = ["A", "B", "C"];

/// Serializes a netlist as structural Verilog.
///
/// Dangling gates are emitted too (they are part of the circuit until the
/// post-optimization sweep deletes them); nets are named `w<id>` and
/// primary inputs/outputs keep their declared names.
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let mut ports: Vec<String> = Vec::new();
    for &pi in netlist.inputs() {
        ports.push(netlist.gate(pi).name().to_owned());
    }
    for (name, _) in netlist.outputs() {
        ports.push(name.to_owned());
    }
    let _ = writeln!(out, "module {} ({});", netlist.name(), ports.join(", "));
    for &pi in netlist.inputs() {
        let _ = writeln!(out, "  input {};", netlist.gate(pi).name());
    }
    for (name, _) in netlist.outputs() {
        let _ = writeln!(out, "  output {};", name);
    }

    // Net name for each gate output.
    let net_name = |id: GateId| -> String {
        let gate = netlist.gate(id);
        if gate.is_input() {
            gate.name().to_owned()
        } else {
            format!("w{}", id.index())
        }
    };
    let sig_name = |s: SignalRef| -> String {
        match s {
            SignalRef::Const0 => "1'b0".to_owned(),
            SignalRef::Const1 => "1'b1".to_owned(),
            SignalRef::Gate(id) => net_name(id),
        }
    };

    let mut wires: Vec<String> = Vec::new();
    for (id, gate) in netlist.iter() {
        if !gate.is_input() {
            wires.push(net_name(id));
        }
    }
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }

    for (id, gate) in netlist.iter() {
        if gate.is_input() {
            continue;
        }
        let mut conns = vec![format!(".Y({})", net_name(id))];
        for (pin, fanin) in gate.fanins().iter().enumerate() {
            conns.push(format!(".{}({})", PIN_NAMES[pin], sig_name(*fanin)));
        }
        let _ = writeln!(
            out,
            "  {} {} ( {} );",
            gate.cell().lib_name(),
            gate.name(),
            conns.join(", ")
        );
    }
    for (name, driver) in netlist.outputs() {
        let _ = writeln!(out, "  assign {} = {};", name, sig_name(driver));
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    text: String,
    /// Position of the token's first character.
    loc: Loc,
}

fn tokenize(src: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    // Current position (1-based line and character column).
    let mut line = 1usize;
    let mut col = 1usize;
    let mut cur = String::new();
    let mut cur_loc = Loc::new(1, 1);
    let flush = |cur: &mut String, cur_loc: Loc, tokens: &mut Vec<Token>| {
        if !cur.is_empty() {
            tokens.push(Token {
                text: std::mem::take(cur),
                loc: cur_loc,
            });
        }
    };
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                flush(&mut cur, cur_loc, &mut tokens);
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                flush(&mut cur, cur_loc, &mut tokens);
                col += 1;
                i += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                flush(&mut cur, cur_loc, &mut tokens);
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                    col += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                flush(&mut cur, cur_loc, &mut tokens);
                i += 2;
                col += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
                col += 2;
            }
            '(' | ')' | ',' | ';' | '.' | '=' => {
                flush(&mut cur, cur_loc, &mut tokens);
                tokens.push(Token {
                    text: c.to_string(),
                    loc: Loc::new(line, col),
                });
                col += 1;
                i += 1;
            }
            _ => {
                if cur.is_empty() {
                    cur_loc = Loc::new(line, col);
                }
                cur.push(c);
                col += 1;
                i += 1;
            }
        }
    }
    flush(&mut cur, cur_loc, &mut tokens);
    tokens
}

/// A net value during elaboration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NetDriver {
    Undriven,
    Const(bool),
    Instance(usize),
    /// `assign lhs = rhs;` alias to another net.
    Alias(usize),
    PrimaryInput(usize),
}

#[derive(Debug)]
struct RawInstance {
    name: String,
    cell: Cell,
    loc: Loc,
    /// Net index per input pin.
    input_nets: Vec<Option<usize>>,
    output_net: Option<usize>,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn next(&mut self) -> Result<Token, ParseVerilogError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or(ParseVerilogError::UnexpectedEof)?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, text: &str) -> Result<Token, ParseVerilogError> {
        let t = self.next()?;
        if t.text != text {
            return Err(ParseVerilogError::Syntax {
                loc: t.loc,
                message: format!("expected `{text}`, found `{}`", t.text),
            });
        }
        Ok(t)
    }

    fn ident(&mut self) -> Result<Token, ParseVerilogError> {
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
}

/// Parses structural Verilog into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on malformed syntax, unknown cells or
/// nets, multiply-driven nets, or combinational loops. Only the first
/// module in the source is read.
pub fn parse(src: &str) -> Result<Netlist, ParseVerilogError> {
    let mut p = Parser {
        tokens: tokenize(src),
        pos: 0,
    };
    p.expect("module")?;
    let module_name = p.ident()?.text;

    // Port list (names repeated in input/output declarations).
    p.expect("(")?;
    loop {
        let t = p.next()?;
        match t.text.as_str() {
            ")" => break,
            "," => continue,
            _ => continue, // port name; direction comes from declarations
        }
    }
    p.expect(";")?;

    let mut net_ids: HashMap<String, usize> = HashMap::new();
    let mut drivers: Vec<NetDriver> = Vec::new();
    let mut net_names: Vec<String> = Vec::new();
    // First-seen position of each net, so diagnostics discovered during
    // elaboration (undriven nets, alias cycles) still point into the
    // source.
    let mut net_locs: Vec<Loc> = Vec::new();
    let intern = |tok: &Token,
                  net_ids: &mut HashMap<String, usize>,
                  drivers: &mut Vec<NetDriver>,
                  net_names: &mut Vec<String>,
                  net_locs: &mut Vec<Loc>|
     -> usize {
        if let Some(&id) = net_ids.get(&tok.text) {
            return id;
        }
        let id = drivers.len();
        net_ids.insert(tok.text.clone(), id);
        // Constant literals used directly as operands are pre-driven nets.
        drivers.push(match tok.text.as_str() {
            "1'b0" => NetDriver::Const(false),
            "1'b1" => NetDriver::Const(true),
            _ => NetDriver::Undriven,
        });
        net_names.push(tok.text.clone());
        net_locs.push(tok.loc);
        id
    };

    let mut input_order: Vec<usize> = Vec::new();
    let mut output_order: Vec<(String, usize)> = Vec::new();
    let mut instances: Vec<RawInstance> = Vec::new();

    loop {
        let t = p.next()?;
        match t.text.as_str() {
            "endmodule" => break,
            "input" | "output" | "wire" => {
                let kind = t.text.clone();
                loop {
                    let name_tok = p.ident()?;
                    let net = intern(
                        &name_tok,
                        &mut net_ids,
                        &mut drivers,
                        &mut net_names,
                        &mut net_locs,
                    );
                    if kind == "input" {
                        if drivers[net] != NetDriver::Undriven {
                            return Err(ParseVerilogError::MultipleDrivers {
                                net: name_tok.text,
                                loc: name_tok.loc,
                            });
                        }
                        drivers[net] = NetDriver::PrimaryInput(input_order.len());
                        input_order.push(net);
                    } else if kind == "output" {
                        output_order.push((name_tok.text.clone(), net));
                    }
                    let sep = p.next()?;
                    match sep.text.as_str() {
                        "," => continue,
                        ";" => break,
                        other => {
                            return Err(ParseVerilogError::Syntax {
                                loc: sep.loc,
                                message: format!("expected `,` or `;`, found `{other}`"),
                            })
                        }
                    }
                }
            }
            "assign" => {
                let lhs_tok = p.ident()?;
                let lhs = intern(
                    &lhs_tok,
                    &mut net_ids,
                    &mut drivers,
                    &mut net_names,
                    &mut net_locs,
                );
                p.expect("=")?;
                let rhs_tok = p.ident()?;
                let value = match rhs_tok.text.as_str() {
                    "1'b0" => NetDriver::Const(false),
                    "1'b1" => NetDriver::Const(true),
                    _ => {
                        let rhs = intern(
                            &rhs_tok,
                            &mut net_ids,
                            &mut drivers,
                            &mut net_names,
                            &mut net_locs,
                        );
                        NetDriver::Alias(rhs)
                    }
                };
                if !matches!(drivers[lhs], NetDriver::Undriven) {
                    return Err(ParseVerilogError::MultipleDrivers {
                        net: lhs_tok.text,
                        loc: lhs_tok.loc,
                    });
                }
                drivers[lhs] = value;
                p.expect(";")?;
            }
            cell_name => {
                // A cell instance.
                let cell: Cell = cell_name
                    .parse()
                    .map_err(|_| ParseVerilogError::UnknownCell {
                        loc: t.loc,
                        cell: cell_name.to_owned(),
                    })?;
                let inst_name = p.ident()?.text;
                p.expect("(")?;
                let mut input_nets: Vec<Option<usize>> = vec![None; cell.arity()];
                let mut output_net: Option<usize> = None;
                loop {
                    let tok = p.next()?;
                    match tok.text.as_str() {
                        ")" => break,
                        "," => continue,
                        "." => {
                            let pin_tok = p.ident()?;
                            p.expect("(")?;
                            let net_tok = p.ident()?;
                            p.expect(")")?;
                            let pin = pin_tok.text.as_str();
                            if pin == "Y" {
                                if net_tok.text == "1'b0" || net_tok.text == "1'b1" {
                                    return Err(ParseVerilogError::Syntax {
                                        loc: net_tok.loc,
                                        message: "constant on output pin".to_owned(),
                                    });
                                }
                                let net = intern(
                                    &net_tok,
                                    &mut net_ids,
                                    &mut drivers,
                                    &mut net_names,
                                    &mut net_locs,
                                );
                                if !matches!(drivers[net], NetDriver::Undriven) {
                                    return Err(ParseVerilogError::MultipleDrivers {
                                        net: net_tok.text,
                                        loc: net_tok.loc,
                                    });
                                }
                                drivers[net] = NetDriver::Instance(instances.len());
                                output_net = Some(net);
                            } else {
                                let idx = PIN_NAMES
                                    .iter()
                                    .position(|&n| n == pin)
                                    .filter(|&i| i < cell.arity())
                                    .ok_or_else(|| ParseVerilogError::Syntax {
                                        loc: pin_tok.loc,
                                        message: format!("unknown pin `{pin}` on cell {cell_name}"),
                                    })?;
                                let net = intern(
                                    &net_tok,
                                    &mut net_ids,
                                    &mut drivers,
                                    &mut net_names,
                                    &mut net_locs,
                                );
                                input_nets[idx] = Some(net);
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
                p.expect(";")?;
                instances.push(RawInstance {
                    name: inst_name,
                    cell,
                    loc: t.loc,
                    input_nets,
                    output_net,
                });
            }
        }
    }

    // Mark constants for nets driven by `assign x = 1'bX` chains and
    // detect alias cycles while resolving.
    fn resolve(
        net: usize,
        drivers: &[NetDriver],
        net_names: &[String],
        net_locs: &[Loc],
        depth: usize,
    ) -> Result<NetDriver, ParseVerilogError> {
        if depth > drivers.len() {
            return Err(ParseVerilogError::CombinationalLoop {
                instance: net_names[net].clone(),
                loc: net_locs[net],
            });
        }
        match drivers[net] {
            NetDriver::Alias(next) => resolve(next, drivers, net_names, net_locs, depth + 1),
            other => Ok(other),
        }
    }

    // Topological sort of instances (Kahn) over instance->instance deps.
    let inst_of_net = |net: usize| -> Result<Option<usize>, ParseVerilogError> {
        match resolve(net, &drivers, &net_names, &net_locs, 0)? {
            NetDriver::Instance(i) => Ok(Some(i)),
            NetDriver::Undriven => Err(ParseVerilogError::UnknownNet {
                loc: net_locs[net],
                net: net_names[net].clone(),
            }),
            _ => Ok(None),
        }
    };

    let mut indegree = vec![0usize; instances.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); instances.len()];
    for (i, inst) in instances.iter().enumerate() {
        for (pin, net) in inst.input_nets.iter().enumerate() {
            let net = net.ok_or_else(|| ParseVerilogError::Syntax {
                loc: inst.loc,
                message: format!(
                    "instance `{}` leaves pin {} unconnected",
                    inst.name, PIN_NAMES[pin]
                ),
            })?;
            if let Some(src) = inst_of_net(net)? {
                dependents[src].push(i);
                indegree[i] += 1;
            }
        }
    }

    let mut ready: Vec<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(instances.len());
    while let Some(i) = ready.pop() {
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(j);
            }
        }
    }
    if order.len() != instances.len() {
        let stuck = indegree
            .iter()
            .position(|&d| d > 0)
            .expect("cycle implies positive indegree");
        return Err(ParseVerilogError::CombinationalLoop {
            instance: instances[stuck].name.clone(),
            loc: instances[stuck].loc,
        });
    }

    // Build the netlist: PIs first, then instances in topological order.
    let mut netlist = Netlist::new(module_name);
    let mut pi_gate: Vec<GateId> = Vec::new();
    for &net in &input_order {
        pi_gate.push(netlist.add_input(&net_names[net]));
    }
    let mut inst_gate: Vec<Option<GateId>> = vec![None; instances.len()];
    let signal_of_net = |net: usize,
                         inst_gate: &[Option<GateId>],
                         loc: Loc|
     -> Result<SignalRef, ParseVerilogError> {
        match resolve(net, &drivers, &net_names, &net_locs, 0)? {
            NetDriver::Const(false) => Ok(SignalRef::Const0),
            NetDriver::Const(true) => Ok(SignalRef::Const1),
            NetDriver::PrimaryInput(idx) => Ok(SignalRef::Gate(pi_gate[idx])),
            NetDriver::Instance(i) => {
                inst_gate[i]
                    .map(SignalRef::Gate)
                    .ok_or(ParseVerilogError::CombinationalLoop {
                        instance: instances[i].name.clone(),
                        loc: instances[i].loc,
                    })
            }
            NetDriver::Undriven | NetDriver::Alias(_) => Err(ParseVerilogError::UnknownNet {
                loc,
                net: net_names[net].clone(),
            }),
        }
    };

    for &i in &order {
        let inst = &instances[i];
        let mut fanins = Vec::with_capacity(inst.cell.arity());
        for net in &inst.input_nets {
            let net = net.expect("checked above");
            fanins.push(signal_of_net(net, &inst_gate, inst.loc)?);
        }
        if inst.output_net.is_none() {
            return Err(ParseVerilogError::Syntax {
                loc: inst.loc,
                message: format!("instance `{}` has no output connection", inst.name),
            });
        }
        let id = netlist.add_gate(&inst.name, inst.cell, fanins)?;
        inst_gate[i] = Some(id);
    }

    for (name, net) in output_order {
        let driver = signal_of_net(net, &inst_gate, net_locs[net])?;
        netlist.add_output(name, driver);
    }
    netlist.check_invariants()?;
    Ok(netlist)
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
