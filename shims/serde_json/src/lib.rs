//! Offline drop-in for the `serde_json` subset this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`], implemented as a
//! writer and a recursive-descent parser over the shim `serde::Value` model.
//!
//! Numbers without a `.`, `e`, or `E` parse as integers (preserving full
//! `u64` precision for seeds); everything else parses as `f64`. Non-finite
//! floats serialize as `null`, matching upstream `serde_json` behavior.

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serializes a value to a JSON string.
///
/// # Errors
///
/// Never fails for the shim value model; the `Result` mirrors the upstream
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, &mut out);
    Ok(out)
}

/// Serializes a value to an indented JSON string in upstream's layout: two
/// spaces per level, one member per line, `": "` after keys, and `[]` / `{}`
/// for empty containers.
///
/// # Errors
///
/// Never fails for the shim value model; the `Result` mirrors the upstream
/// signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(0), &mut out);
    Ok(out)
}

/// Deserializes a value from a JSON string.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<'de, T: Deserialize<'de>>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

/// Writes `value` compactly (`indent: None`), or in the pretty layout at
/// nesting depth `depth` (`indent: Some(depth)`).
fn write_value(value: &Value, indent: Option<usize>, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip Display; force a decimal point so
                // the value re-parses as a float.
                let text = f.to_string();
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => write_members(items.iter().map(|v| (None, v)), "[]", indent, out),
        Value::Object(pairs) => {
            let members = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_members(members, "{}", indent, out);
        }
    }
}

/// Writes an array's (`key: None`) or an object's members between the two
/// `brackets`; pretty members go one per line, indented a level deeper.
fn write_members<'v>(
    members: impl Iterator<Item = (Option<&'v str>, &'v Value)>,
    brackets: &str,
    indent: Option<usize>,
    out: &mut String,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push_str(&brackets[..1]);
    let mut empty = true;
    for (key, item) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        write_value(item, indent.map(|depth| depth + 1), out);
    }
    if let (Some(depth), false) = (indent, empty) {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(Error::msg(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid keyword at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::msg("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid utf-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let value = Value::Object(vec![
            ("name".into(), Value::Str("conv-net \"v2\"\n".into())),
            ("seed".into(), Value::UInt(u64::MAX - 1)),
            ("offset".into(), Value::Int(-42)),
            ("lr".into(), Value::Float(0.0625)),
            (
                "dims".into(),
                Value::Array(vec![Value::UInt(3), Value::UInt(28), Value::UInt(28)]),
            ),
            ("extra".into(), Value::Null),
            ("flag".into(), Value::Bool(true)),
        ]);
        let mut text = String::new();
        write_value(&value, None, &mut text);
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        assert_eq!(parser.parse_value().unwrap(), value);
    }

    #[test]
    fn integers_keep_full_precision() {
        let text = format!("[{},-{}]", u64::MAX, i64::MAX);
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let parsed = parser.parse_value().unwrap();
        assert_eq!(
            parsed,
            Value::Array(vec![Value::UInt(u64::MAX), Value::Int(-i64::MAX)])
        );
    }

    #[test]
    fn floats_reparse_as_floats() {
        let mut out = String::new();
        write_value(&Value::Float(2.0), None, &mut out);
        assert_eq!(out, "2.0");
        let mut parser = Parser {
            bytes: out.as_bytes(),
            pos: 0,
        };
        assert_eq!(parser.parse_value().unwrap(), Value::Float(2.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<f64>("[1, 2").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn pretty_output_uses_upstream_layout_and_compact_output_is_unchanged() {
        let value = Value::Object(vec![
            ("name".into(), Value::Str("bench \"gemm\"".into())),
            ("seed".into(), Value::UInt(u64::MAX)),
            ("speedup".into(), Value::Float(1.5)),
            ("units".into(), Value::Null),
            (
                "rows".into(),
                Value::Array(vec![
                    Value::Object(vec![("ok".into(), Value::Bool(true))]),
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                ]),
            ),
        ]);
        let pretty = to_string_pretty(&value).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"name\": \"bench \\\"gemm\\\"\",\n  \"seed\": 18446744073709551615,\n  \
             \"speedup\": 1.5,\n  \"units\": null,\n  \"rows\": [\n    {\n      \"ok\": true\n    },\n    \
             [],\n    {}\n  ]\n}"
        );
        assert_eq!(from_str::<Value>(&pretty).unwrap(), value);
        assert_eq!(
            to_string(&value).unwrap(),
            r#"{"name":"bench \"gemm\"","seed":18446744073709551615,"speedup":1.5,"units":null,"rows":[{"ok":true},[],{}]}"#
        );
    }

    #[test]
    fn typed_round_trip_through_public_api() {
        let v = vec![1usize, 2, 3];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1,2,3]");
        assert_eq!(from_str::<Vec<usize>>(&text).unwrap(), v);
    }
}
