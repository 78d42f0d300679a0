//! Minimal JSON reading/writing for every machine-readable artifact of
//! the workspace: job manifests and results files, the daemon's wire
//! frames, lint findings, trace documents and the benchmark reports.
//!
//! The workspace takes no registry dependencies, so instead of serde
//! this module provides a small self-contained [`Json`] value type with
//! a recursive-descent parser and a stable pretty-printer. It covers
//! the full JSON grammar except `\u` escapes beyond the BMP surrogate
//! pairing (unpaired surrogates are rejected).

use std::fmt;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Exact non-negative integer value, if this is a number that is
    /// one: no fractional part, no sign, at most 2^53 (the largest
    /// integer an `f64` — and therefore a JSON number — represents
    /// exactly). Index-like fields (shard maps, job counts) go through
    /// this so `1.5`, `-1`, and precision-lossy giants are rejected
    /// instead of silently truncated.
    pub fn as_uint(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..MAX_EXACT).contains(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the byte offset of the
    /// first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Single-line rendering adaptor for wire framing (no newlines, no
    /// indentation, `,`/`:` separators without padding). Numbers follow
    /// the same rule as [`Display`](fmt::Display), so a value printed
    /// compactly parses back to an equal `Json`.
    pub fn compact(&self) -> Compact<'_> {
        Compact(self)
    }

    /// The compact rendering as an owned `String`.
    pub fn to_compact(&self) -> String {
        self.compact().to_string()
    }
}

/// Borrowed [`Display`](fmt::Display) wrapper returned by
/// [`Json::compact`]: the whole value on one line, suitable for
/// newline-delimited framing.
#[derive(Debug)]
pub struct Compact<'a>(&'a Json);

impl fmt::Display for Compact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_compact(self.0, f)
    }
}

fn write_compact(value: &Json, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                write!(f, "{}", *n as i64)
            } else {
                write!(f, "{n}")
            }
        }
        Json::Str(s) => write_string(s, f),
        Json::Arr(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_compact(item, f)?;
            }
            f.write_str("]")
        }
        Json::Obj(members) => {
            f.write_str("{")?;
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_string(k, f)?;
                f.write_str(":")?;
                write_compact(v, f)?;
            }
            f.write_str("}")
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f, 0)
    }
}

fn write_value(value: &Json, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                write!(f, "{}", *n as i64)
            } else {
                write!(f, "{n}")
            }
        }
        Json::Str(s) => write_string(s, f),
        Json::Arr(items) => {
            if items.is_empty() {
                return f.write_str("[]");
            }
            writeln!(f, "[")?;
            for (i, item) in items.iter().enumerate() {
                f.write_str(&pad_in)?;
                write_value(item, f, indent + 1)?;
                writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
            }
            write!(f, "{pad}]")
        }
        Json::Obj(members) => {
            if members.is_empty() {
                return f.write_str("{}");
            }
            writeln!(f, "{{")?;
            for (i, (k, v)) in members.iter().enumerate() {
                f.write_str(&pad_in)?;
                write_string(k, f)?;
                f.write_str(": ")?;
                write_value(v, f, indent + 1)?;
                writeln!(f, "{}", if i + 1 < members.len() { "," } else { "" })?;
            }
            write!(f, "{pad}}}")
        }
    }
}

fn write_string(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key_at = *pos;
                let key = parse_string(bytes, pos)?;
                // RFC 8259 leaves duplicate-key behavior undefined; for
                // a benchmark baseline that feeds a CI gate, a duplicate
                // silently shadowing a metric is exactly the kind of rot
                // the gate exists to catch — reject it outright.
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key `{key}` at byte {key_at}"));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(
            std::str::from_utf8(&bytes[start..*pos]).map_err(|e| format!("bad utf-8: {e}"))?,
        );
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            expect(bytes, pos, "\\u")?;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("unpaired surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| "invalid codepoint".to_string())?,
                        );
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            _ => return Err("unterminated string".into()),
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
    let value = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_string())?;
    *pos += 4;
    Ok(value)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            ("name".into(), Json::Str("delta \"sim\"".into())),
            (
                "circuits".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("gates".into(), Json::Num(307.0)),
                    ("speedup".into(), Json::Num(12.75)),
                    ("ok".into(), Json::Bool(true)),
                    ("none".into(), Json::Null),
                ])]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("circuits").unwrap().as_array().unwrap()[0]
                .get("speedup")
                .unwrap()
                .as_f64(),
            Some(12.75)
        );
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "a\n\té😀"}"#).expect("parse");
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\n\té😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn numbers_print_stably() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            ("s".into(), Json::Str("a\n\"b\"".into())),
            (
                "xs".into(),
                Json::Arr(vec![Json::Num(0.5), Json::Null, Json::Bool(false)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let line = doc.to_compact();
        assert_eq!(
            line,
            r#"{"schema":1,"s":"a\n\"b\"","xs":[0.5,null,false],"empty":{}}"#
        );
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).expect("parse"), doc);
    }
}
