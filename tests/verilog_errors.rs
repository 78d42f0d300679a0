//! Parse diagnostics of the Verilog reader, pinned by exact text.
//!
//! Each case is a malformed (or oddly formatted) source and the full
//! `Display` string of the error `verilog::parse` returns for it,
//! position included. Columns count characters, not bytes, so the
//! cases with tabs, carriage returns and non-ASCII names pin the
//! lexer's position rules as well as the elaborator's choice of which
//! error to report first.

use tdals::netlist::verilog;

/// `(case, source, expected error text)`.
const CASES: &[(&str, &str, &str)] = &[
    ("empty input", "", "unexpected end of file"),
    ("only whitespace", " \t\r\n", "unexpected end of file"),
    (
        "unterminated block comment",
        "module m (a, y);\n  input a; /* never closed\n  output y;\nendmodule\n",
        "unexpected end of file",
    ),
    (
        "unterminated block comment at the last character",
        "module m (a, y); /*",
        "unexpected end of file",
    ),
    (
        "line comment at EOF without a newline",
        "module m (a, y);\n  input a;\n  // trailing",
        "unexpected end of file",
    ),
    (
        "block comment spanning lines shifts the position",
        "module m (a, y); /* one\n two */ input a; FROBX1 u ( .Y(y), .A(a) );\nendmodule\n",
        "line 2:18: unknown cell `FROBX1`",
    ),
    (
        "comment directly after an identifier",
        "module m (a, y);\n  input a// comment\n  ; output y; FROBX1 u ( .Y(y), .A(a) );\nendmodule\n",
        "line 3:15: unknown cell `FROBX1`",
    ),
    (
        "CRLF line ends",
        "module m (a, y);\r\n  input a;\r\n  output y;\r\n  FROBX1 u1 ( .Y(y), .A(a) );\r\nendmodule\r\n",
        "line 4:3: unknown cell `FROBX1`",
    ),
    (
        "carriage return inside a line counts as a column",
        "module m (a, y);\n  input a;\r\routput y;\r FROBX1 u1 ( .Y(y), .A(a) );\nendmodule\n",
        "line 2:24: unknown cell `FROBX1`",
    ),
    (
        "tabs count one column each",
        "module m (a, y);\n\tinput a;\n\toutput y;\n\t\tFROBX1 u1 ( .Y(y), .A(a) );\nendmodule\n",
        "line 4:3: unknown cell `FROBX1`",
    ),
    (
        "non-ASCII identifiers count characters",
        "module m (α, y);\n  input α;\n  output y;\n  INVX1 ünïcödé ( .Y(y), .A(ghost) );\nendmodule\n",
        "line 4:29: unknown net `ghost`",
    ),
    (
        "non-ASCII whitespace separates tokens",
        "module m (a, y);\n  input\u{a0}a;\u{2003}output y;\u{3000}FROBX1 u ( .Y(y), .A(a) );\nendmodule\n",
        "line 2:22: unknown cell `FROBX1`",
    ),
    (
        "slash inside a name is part of the identifier",
        "module m (a/b, y);\n  input a/b;\nendmodule\n",
        "line 2:9: syntax error: expected identifier, found `a/b`",
    ),
    (
        "slash inside a pin connection",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(y), .A(a/b) );\nendmodule\n",
        "line 4:24: syntax error: expected identifier, found `a/b`",
    ),
    (
        "lone slash at EOF",
        "module m (a, y);\n  input a;\n  /",
        "line 3:3: unknown cell `/`",
    ),
    (
        "EOF inside an instance",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(y)",
        "unexpected end of file",
    ),
    (
        "EOF inside the port list",
        "module broken (a",
        "unexpected end of file",
    ),
    ("missing module keyword", "modul m (a);", "line 1:1: syntax error: expected `module`, found `modul`"),
    (
        "bad module name",
        "module (a);",
        "line 1:8: syntax error: expected identifier, found `(`",
    ),
    (
        "missing semicolon after the port list",
        "module m (a, y)\n  input a;\nendmodule\n",
        "line 2:3: syntax error: expected `;`, found `input`",
    ),
    (
        "missing semicolon after a declaration",
        "module m (a, y);\n  input a\n  output y;\nendmodule\n",
        "line 3:3: syntax error: expected `,` or `;`, found `output`",
    ),
    (
        "missing semicolon after an instance",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(y), .A(a) )\nendmodule\n",
        "line 5:1: syntax error: expected `;`, found `endmodule`",
    ),
    (
        "missing equals in an assign",
        "module m (a, y);\n  input a;\n  output y;\n  assign y a;\nendmodule\n",
        "line 4:12: syntax error: expected `=`, found `a`",
    ),
    (
        "unknown cell",
        "module m (a, y);\n  input a;\n  output y;\n  FROBX1 u1 ( .Y(y), .A(a) );\nendmodule\n",
        "line 4:3: unknown cell `FROBX1`",
    ),
    (
        "unknown pin",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(y), .B(a) );\nendmodule\n",
        "line 4:22: syntax error: unknown pin `B` on cell INVX1",
    ),
    (
        "pin beyond the cell's arity",
        "module m (a, y);\n  input a;\n  output y;\n  NAND2X1 u1 ( .Y(y), .A(a), .C(a) );\nendmodule\n",
        "line 4:31: syntax error: unknown pin `C` on cell NAND2X1",
    ),
    (
        "constant on the output pin",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(1'b0), .A(a) );\nendmodule\n",
        "line 4:17: syntax error: constant on output pin",
    ),
    (
        "unexpected token in an instance",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(y) ; .A(a) );\nendmodule\n",
        "line 4:20: syntax error: unexpected token `;` in instance",
    ),
    (
        "unconnected input pin",
        "module m (a, y);\n  input a;\n  output y;\n  NAND2X1 u1 ( .Y(y), .A(a) );\nendmodule\n",
        "line 4:3: syntax error: instance `u1` leaves pin B unconnected",
    ),
    (
        "instance without an output",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .A(a) );\n  assign y = a;\nendmodule\n",
        "line 4:3: syntax error: instance `u1` has no output connection",
    ),
    (
        "bad separator in a declaration",
        "module m (a, b);\n  input a b;\nendmodule\n",
        "line 2:11: syntax error: expected `,` or `;`, found `b`",
    ),
    (
        "net driven by two instances",
        "module m (a, y);\n  input a;\n  output y;\n  wire n1;\n  INVX1 u1 ( .Y(n1), .A(a) );\n  BUFX1 u2 ( .Y(n1), .A(a) );\n  assign y = n1;\nendmodule\n",
        "line 6:17: net `n1` has multiple drivers",
    ),
    (
        "input declared twice",
        "module m (a, y);\n  input a, a;\nendmodule\n",
        "line 2:12: net `a` has multiple drivers",
    ),
    (
        "assign to an instance output",
        "module m (a, y);\n  input a;\n  output y;\n  INVX1 u1 ( .Y(y), .A(a) );\n  assign y = a;\nendmodule\n",
        "line 5:10: net `y` has multiple drivers",
    ),
    (
        "undriven net read by an instance",
        "module m (a, y);\n  input a;\n  output y;\n  wire n1, ghost;\n  AND2X1 u1 ( .Y(n1), .A(a), .B(ghost) );\n  assign y = n1;\nendmodule\n",
        "line 4:12: unknown net `ghost`",
    ),
    (
        "undriven net on an output",
        "module m (a, y);\n  input a;\n  output y, z;\n  INVX1 u1 ( .Y(y), .A(a) );\nendmodule\n",
        "line 3:13: unknown net `z`",
    ),
    (
        "alias cycle",
        "module m (a, y);\n  input a;\n  output y;\n  assign p = q;\n  assign q = p;\n  AND2X1 u1 ( .Y(y), .A(a), .B(p) );\nendmodule\n",
        "line 4:14: combinational loop through `q`",
    ),
    (
        "alias cycle on an output",
        "module m (a, y);\n  input a;\n  output y;\n  assign y = q;\n  assign q = y;\nendmodule\n",
        "line 3:10: combinational loop through `y`",
    ),
    (
        "net aliased to itself",
        "module m (a, y);\n  input a;\n  output y;\n  assign x = x;\n  AND2X1 u1 ( .Y(y), .A(a), .B(x) );\nendmodule\n",
        "line 4:10: combinational loop through `x`",
    ),
    (
        "combinational loop",
        "module m (a, y);\n  input a;\n  output y;\n  wire n1, n2;\n  AND2X1 u1 ( .Y(n1), .A(a), .B(n2) );\n  INVX1 u2 ( .Y(n2), .A(n1) );\n  assign y = n2;\nendmodule\n",
        "line 5:3: combinational loop through `u1`",
    ),
    (
        "combinational loop through an alias",
        "module m (a, y);\n  input a;\n  output y;\n  wire n1, n2, n3;\n  INVX1 u1 ( .Y(n1), .A(n3) );\n  INVX1 u2 ( .Y(n2), .A(n1) );\n  assign n3 = n2;\n  assign y = n2;\nendmodule\n",
        "line 5:3: combinational loop through `u1`",
    ),
];

#[test]
fn parse_errors_keep_their_text_and_position() {
    let mut mismatches = Vec::new();
    for &(case, src, expected) in CASES {
        let got = match verilog::parse(src) {
            Ok(n) => format!("parsed: {} gates", n.gate_count()),
            Err(e) => e.to_string(),
        };
        if got != expected {
            mismatches.push(format!("{case:?}: expected {expected:?}, got {got:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
