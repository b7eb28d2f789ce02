//! Offline stand-in for the `serde_json` crate.
//!
//! Provides [`to_string_pretty`] / [`to_string`] over the [`serde`] shim's
//! `Value` tree, plus [`from_str`] / [`from_value`] for the reverse
//! direction — the only entry points this workspace uses. Output matches
//! `serde_json`'s pretty format: two-space indentation, fields in
//! declaration order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// Serialization or deserialization error, carrying a human-readable message
/// (serialization through the shim's tree-based pipeline cannot actually
/// fail; the `Result` return keeps call sites source-compatible with the
/// real `serde_json` — `.unwrap()` and `?` both work).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as a pretty-printed JSON string.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_compact(&mut out, &value.to_value());
    Ok(out)
}

/// Parses a JSON string into a `T`.
///
/// # Errors
/// Returns [`Error`] on malformed JSON, trailing garbage, or when the parsed
/// tree does not match `T`'s shape.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!(
            "trailing characters at byte {} of JSON input",
            parser.pos
        )));
    }
    from_value(&value)
}

/// Decodes an in-memory [`Value`] tree into a `T`.
///
/// # Errors
/// Returns [`Error`] when the tree does not match `T`'s shape.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(|e| Error(e.to_string()))
}

/// How deeply arrays and objects may nest — the real `serde_json`'s
/// recursion limit. Deeper input is an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// A recursive-descent JSON parser over the input bytes. Supports the full
/// JSON value grammar this workspace emits: objects, arrays, strings with
/// escapes (including `\uXXXX`), numbers, booleans and `null`.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of JSON input".to_string()))
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {} of JSON input",
                byte as char, self.pos
            )))
        }
    }

    /// Consumes `literal` (e.g. `null`) if it is next, erroring otherwise.
    fn expect_literal(&mut self, literal: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{literal}` at byte {} of JSON input",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.expect_literal("null").map(|()| Value::Null),
            b't' => self.expect_literal("true").map(|()| Value::Bool(true)),
            b'f' => self.expect_literal("false").map(|()| Value::Bool(false)),
            b'"' => self.parse_string().map(Value::String),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "JSON nests deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            _ => self.parse_number(),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]` in array, found `{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}` in object, found `{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self.peek()?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    Error("truncated \\u escape in JSON string".to_string())
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                Error(format!("invalid \\u escape `{hex}` in JSON string"))
                            })?;
                            // Surrogates are not produced by the shim's own
                            // writer; reject rather than mis-decode them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error(format!("\\u{hex} is not a scalar value")))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!(
                                "invalid escape `\\{}` in JSON string",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid UTF-8 in JSON input".to_string()))?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // Enforce the JSON number grammar (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
        // rather than deferring to Rust's more lenient f64 parser: the real
        // serde_json rejects `+1`, `.5`, `1.` and leading zeros, and the shim
        // must stay a drop-in stand-in.
        if !is_json_number(text) {
            return Err(Error(format!(
                "invalid JSON number `{text}` at byte {start}"
            )));
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error(format!("invalid JSON number `{text}` at byte {start}")))
    }
}

fn write_value_compact(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, key);
                out.push(':');
                write_value_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_value(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => write_sequence(out, items, indent, ('[', ']'), |out, item, ind| {
            write_value(out, item, ind)
        }),
        Value::Object(fields) => {
            write_sequence(out, fields, indent, ('{', '}'), |out, (key, val), ind| {
                write_escaped(out, key);
                out.push_str(": ");
                write_value(out, val, ind);
            })
        }
    }
}

fn write_sequence<T>(
    out: &mut String,
    items: &[T],
    indent: usize,
    (open, close): (char, char),
    mut write_item: impl FnMut(&mut String, &T, usize),
) {
    if items.is_empty() {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        write_item(out, item, indent + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push(close);
}

/// JSON numbers: integers print without a trailing `.0`, like `serde_json`
/// does for integer types; non-finite values fall back to `null` (JSON has no
/// NaN/Infinity).
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Whether `text` matches RFC 8259's number grammar:
/// `-? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut i = 0;
    if bytes.first() == Some(&b'-') {
        i += 1;
    }
    // Integer part: `0` alone, or a non-zero digit followed by digits.
    match bytes.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        }
        _ => return false,
    }
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        if !bytes.get(i).is_some_and(u8::is_ascii_digit) {
            return false;
        }
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !bytes.get(i).is_some_and(u8::is_ascii_digit) {
            return false;
        }
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
    }
    i == bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_structures() {
        let value = vec![vec![1u32, 2], vec![3]];
        assert_eq!(
            to_string_pretty(&value).unwrap(),
            "[\n  [\n    1,\n    2\n  ],\n  [\n    3\n  ]\n]"
        );
    }

    #[test]
    fn escapes_strings() {
        let s = "a\"b\\c\nd".to_string();
        assert_eq!(to_string_pretty(&s).unwrap(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(to_string_pretty(&3u32).unwrap(), "3");
        assert_eq!(to_string_pretty(&0.25f64).unwrap(), "0.25");
    }

    #[test]
    fn parses_what_it_prints() {
        let value = Value::Object(vec![
            (
                "name".to_string(),
                Value::String("a\"b\\c\nd → é".to_string()),
            ),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Number(1.0), Value::Number(-0.25), Value::Null]),
            ),
            ("ok".to_string(), Value::Bool(true)),
            ("empty".to_string(), Value::Array(vec![])),
        ]);
        let pretty: Value = from_str(&to_string_pretty(&value).unwrap()).unwrap();
        assert_eq!(pretty, value);
        let compact: Value = from_str(&to_string(&value).unwrap()).unwrap();
        assert_eq!(compact, value);
    }

    #[test]
    fn parses_escapes_and_scientific_numbers() {
        let v: Value = from_str(r#"{"u": "é", "n": 5e8}"#).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                ("u".to_string(), Value::String("é".to_string())),
                ("n".to_string(), Value::Number(5.0e8)),
            ])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
        assert!(from_str::<f64>("true").is_err());
    }

    #[test]
    fn bounds_nesting_depth() {
        // Exactly the limit parses; one level more, or a pathological
        // 200 000-deep input, is an error instead of a stack overflow.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&over).is_err());
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn enforces_the_json_number_grammar() {
        // The real serde_json rejects these; the shim must too.
        for bad in ["+1", ".5", "1.", "01", "-", "1e", "1e+", "--1", "1.e3"] {
            assert!(from_str::<f64>(bad).is_err(), "accepted `{bad}`");
        }
        for good in ["0", "-0", "10", "0.25", "-1.5e-8", "5E8", "1e+3"] {
            assert!(from_str::<f64>(good).is_ok(), "rejected `{good}`");
        }
        // u64 boundary: 2^64 is out of range and must not saturate.
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert_eq!(from_str::<u64>("4294967296").unwrap(), 1u64 << 32);
    }

    #[test]
    fn compact_form_preserves_tricky_string_values() {
        // A string value containing the `": ` sequence must survive verbatim.
        let tricky = vec!["a\": b".to_string(), "line1\nline2".to_string()];
        assert_eq!(
            to_string(&tricky).unwrap(),
            "[\"a\\\": b\",\"line1\\nline2\"]"
        );
        assert_eq!(to_string(&Vec::<f64>::new()).unwrap(), "[]");
    }
}
