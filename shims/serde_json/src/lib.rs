//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`] over the serde
//! shim's value model.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

/// A serialization or parse failure.
#[derive(Clone, Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Fails if a number is non-finite (JSON cannot represent it).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
///
/// # Errors
///
/// Fails if a number is non-finite (JSON cannot represent it).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Fails on malformed JSON or a value-shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v).map_err(|e| Error(e.to_string()))
}

fn write_value(
    v: &Value,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
) -> Result<(), Error> {
    let (open_sep, item_sep, close_sep): (String, String, String) = match indent {
        Some(w) => (
            format!("\n{}", " ".repeat(w * (level + 1))),
            format!(",\n{}", " ".repeat(w * (level + 1))),
            format!("\n{}", " ".repeat(w * level)),
        ),
        None => (String::new(), ",".to_string(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if !n.is_finite() {
                return Err(Error(format!("number {n} is not representable in JSON")));
            }
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { &open_sep } else { &item_sep });
                write_value(item, indent, level + 1, out)?;
            }
            out.push_str(&close_sep);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { &open_sep } else { &item_sep });
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, level + 1, out)?;
            }
            out.push_str(&close_sep);
            out.push('}');
        }
    }
    Ok(())
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("dangling escape".to_string()))?;
                    self.pos += 1;
                    match esc {
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
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|e| Error(format!("bad \\u escape: {e}")))?,
                                16,
                            )
                            .map_err(|e| Error(format!("bad \\u escape: {e}")))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's data; reject them plainly.
                            out.push(char::from_u32(code).ok_or_else(|| {
                                Error(format!("unsupported \\u escape {code:#x}"))
                            })?);
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => return Err(Error("unterminated string".to_string())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| Error(format!("bad number at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::String("A\"\\\n".to_string())),
            ("n".to_string(), Value::Number(42.0)),
            ("x".to_string(), Value::Number(-1.5)),
            (
                "tags".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".to_string(), Value::Array(vec![])),
        ]);
        // Value itself has no Serialize impl in user code paths, so go
        // through the writer directly.
        let mut compact = String::new();
        write_value(&v, None, 0, &mut compact).unwrap();
        let mut pretty = String::new();
        write_value(&v, Some(2), 0, &mut pretty).unwrap();
        for text in [compact, pretty] {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            p.skip_ws();
            let back = p.value().unwrap();
            assert_eq!(back, v, "text: {text}");
        }
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Inner {
        a: u64,
        b: String,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Outer {
        first: u64,
        #[serde(flatten)]
        inner: Inner,
        last: Vec<u64>,
    }

    #[derive(serde::Serialize)]
    struct Pairs {
        pairs: Vec<[u64; 2]>,
    }

    #[test]
    fn flattened_fields_splice_into_the_parent_in_order() {
        let outer = Outer {
            first: 1,
            inner: Inner {
                a: 2,
                b: "x".to_owned(),
            },
            last: vec![3],
        };
        let text = to_string(&outer).unwrap();
        assert_eq!(text, r#"{"first":1,"a":2,"b":"x","last":[3]}"#);
        assert_eq!(from_str::<Outer>(&text).unwrap(), outer);
        let pairs = Pairs {
            pairs: vec![[1, 2], [3, 4]],
        };
        assert_eq!(to_string(&pairs).unwrap(), r#"{"pairs":[[1,2],[3,4]]}"#);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Vec<u64>>("[1, 2] x").is_err());
        assert!(from_str::<Vec<u64>>("[1, 2.5]").is_err());
        assert_eq!(from_str::<Vec<u64>>("[1, 2]").unwrap(), vec![1, 2]);
    }
}
