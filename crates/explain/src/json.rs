//! Borrowed JSON scanner for trace lines.
//!
//! [`parse_trace`](crate::parse_trace) reads hundreds of thousands of
//! small JSON objects. Building a `serde::Value` tree for each one means
//! an owned `String` per key and string value and a `Vec` per object, all
//! dropped again a moment later. This scanner instead hands out
//! [`Val`]s that borrow from the line: keys and strings stay slices of
//! the input unless they contain an escape, and nested arrays and objects
//! are validated in place and returned as their source text, to be
//! scanned again only by the one field (`stages`) that looks inside.
//!
//! It accepts exactly the documents the `serde_json` stand-in's
//! `from_str` accepts (any key order, insignificant whitespace, every
//! string escape including surrogate pairs) and classifies numbers the
//! same way: no `.`/`e`/`E` means an integer, `UInt` unless negative.

use std::borrow::Cow;
use std::fmt;

use serde::Value;

/// One scanned JSON value, borrowing from the document.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Val<'a> {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    /// The decoded string; borrowed unless it contained an escape.
    Str(Cow<'a, str>),
    /// A validated array, as its source text (brackets included).
    Array(&'a str),
    /// A validated object, as its source text (braces included).
    Object(&'a str),
}

/// One object member: decoded key and value.
pub(crate) type Member<'a> = (Cow<'a, str>, Val<'a>);

impl Val<'_> {
    /// Numeric coercion: any number shape reads as `f64`.
    pub(crate) fn number(&self) -> Option<f64> {
        match self {
            Val::UInt(n) => Some(*n as f64),
            Val::Int(n) => Some(*n as f64),
            Val::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The equivalent owned `Value` tree. Only error messages use it, so
    /// they read the same as when lines were parsed into trees.
    pub(crate) fn to_value(&self) -> Value {
        match self {
            Val::Null => Value::Null,
            Val::Bool(b) => Value::Bool(*b),
            Val::UInt(n) => Value::UInt(*n),
            Val::Int(n) => Value::Int(*n),
            Val::Float(f) => Value::Float(*f),
            Val::Str(s) => Value::Str(s.to_string()),
            Val::Array(text) | Val::Object(text) => {
                serde_json::from_str(text).unwrap_or(Value::Null)
            }
        }
    }
}

/// A malformed document, with the byte offset the scanner stopped at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JsonError {
    offset: usize,
    message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: at byte {}: {}", self.offset, self.message)
    }
}

/// Scans one complete JSON document. An object's members are pushed onto
/// `members` (cleared first) and `Ok(None)` is returned; any other value
/// is returned as `Ok(Some(value))`.
///
/// When `nested_key` is given, a member with that key whose value is an
/// object has its own members pushed onto `nested` (cleared first) in the
/// same pass. With a repeated key the last occurrence wins, as it does in
/// `members`.
pub(crate) fn document<'a>(
    text: &'a str,
    members: &mut Vec<Member<'a>>,
    nested_key: Option<(&str, &mut Vec<Member<'a>>)>,
) -> Result<Option<Val<'a>>, JsonError> {
    let mut sc = Scanner { text, bytes: text.as_bytes(), pos: 0 };
    sc.skip_ws();
    let result = if sc.peek() == Some(b'{') {
        members.clear();
        match nested_key {
            Some((key, nested)) => sc.object(|sc, k| {
                let value = if k == key && sc.peek() == Some(b'{') {
                    let start = sc.pos;
                    nested.clear();
                    sc.object(|sc, k| {
                        let v = sc.value()?;
                        nested.push((k, v));
                        Ok(())
                    })?;
                    Val::Object(&sc.text[start..sc.pos])
                } else {
                    sc.value()?
                };
                members.push((k, value));
                Ok(())
            })?,
            None => sc.object(|sc, k| {
                let v = sc.value()?;
                members.push((k, v));
                Ok(())
            })?,
        }
        None
    } else {
        Some(sc.value()?)
    };
    sc.skip_ws();
    if sc.pos != sc.bytes.len() {
        return Err(sc.err("trailing characters after JSON document"));
    }
    Ok(result)
}

/// The members of a [`Val::Object`]'s source text.
pub(crate) fn members(text: &str) -> Result<Vec<Member<'_>>, JsonError> {
    let mut out = Vec::new();
    document(text, &mut out, None)?;
    Ok(out)
}

/// The items of a [`Val::Array`]'s source text.
pub(crate) fn items(text: &str) -> Result<Vec<Val<'_>>, JsonError> {
    let mut sc = Scanner { text, bytes: text.as_bytes(), pos: 0 };
    let mut out = Vec::new();
    sc.skip_ws();
    sc.array(|sc| {
        out.push(sc.value()?);
        Ok(())
    })?;
    Ok(out)
}

struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: impl Into<String>) -> JsonError {
        JsonError { offset, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Val<'a>) -> Result<Val<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected literal '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Val<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Val::Null),
            Some(b't') => self.literal("true", Val::Bool(true)),
            Some(b'f') => self.literal("false", Val::Bool(false)),
            Some(b'"') => self.string().map(Val::Str),
            Some(b'[') => {
                let start = self.pos;
                self.array(|sc| sc.value().map(drop))?;
                Ok(Val::Array(&self.text[start..self.pos]))
            }
            Some(b'{') => {
                let start = self.pos;
                self.object(|sc, _| sc.value().map(drop))?;
                Ok(Val::Object(&self.text[start..self.pos]))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Scans `[ item, ... ]`, handing each item's position to `item`.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Scans `{ "key": value, ... }`, handing each decoded key (with the
    /// scanner positioned at its value) to `member`.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Scans a string; borrows it from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            // Only '"', '\\' and control bytes stop a run; all are ASCII,
            // so run boundaries fall on UTF-8 character boundaries.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match self.peek() {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let decoded = owned.get_or_insert_with(String::new);
                    decoded.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    decoded.push(self.escape()?);
                    run = self.pos;
                }
                Some(_) => return Err(self.err("unescaped control character")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&high) {
                    // Surrogate pair: the low half must follow immediately.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                char::from_u32(scalar).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            other => return Err(self.err(format!("unknown escape '\\{}'", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .text
            .get(self.pos..end)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("truncated or non-hex \\u escape"))?;
        let n = u32::from_str_radix(hex, 16).map_err(|_| self.err("non-hex \\u escape"))?;
        self.pos = end;
        Ok(n)
    }

    fn number(&mut self) -> Result<Val<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        let malformed = || self.err_at(start, format!("malformed number '{text}'"));
        if fractional {
            text.parse().map(Val::Float).map_err(|_| malformed())
        } else if text.starts_with('-') {
            text.parse().map(Val::Int).map_err(|_| malformed())
        } else {
            text.parse().map(Val::UInt).map_err(|_| malformed())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans `text` and lowers the result to a `Value` tree, nested
    /// containers included, for comparison with `serde_json::from_str`.
    fn scan(text: &str) -> Result<Value, JsonError> {
        let mut top = Vec::new();
        Ok(match document(text, &mut top, None)? {
            Some(v) => v.to_value(),
            None => Value::Object(top.iter().map(|(k, v)| (k.to_string(), v.to_value())).collect()),
        })
    }

    #[test]
    fn agrees_with_the_tree_parser() {
        let docs = [
            r#"{"a":1,"b":-2,"c":0.5,"d":1e3,"e":null,"f":true,"g":false}"#,
            r#" { "z" : [ 1 , [ ] , { } , { "k" : "v" } ] , "a" : { "n" : { } } } "#,
            r#"{"s":"plain","t":"q\"b\\s\/n\n\r\t\b\f\u0001é😀 end"}"#,
            r#"{"ab":"é","":""}"#,
            r#"[1,"two",null]"#,
            "7",
            "-0.0",
            "-0",
            "007",
            "18446744073709551615",
            "-9223372036854775808",
            r#""é😀""#,
            "{}",
        ];
        for doc in docs {
            assert_eq!(scan(doc).expect(doc), serde_json::from_str(doc).expect(doc), "{doc}");
        }
    }

    #[test]
    fn rejects_what_the_tree_parser_rejects() {
        let bad = [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "01a",
            "{\"a\":1,}",
            "{\"a\":\"\u{1}\"}",
            r#"{"a":"\ud800"}"#,
            r#"{"a":"\ud800A"}"#,
            r#"{"a":"\x"}"#,
            r#"{"a":"\u12"}"#,
            "{\"a\":1-2}",
            "{\"a\":-}",
            "{\"a\":[1 2]}",
            "{\"a\":{\"b\":1 \"c\":2}}",
            "{\"a\":18446744073709551616}",
            "-9223372036854775809",
        ];
        for doc in bad {
            assert!(serde_json::from_str(doc).is_err(), "tree parser accepts {doc:?}");
            assert!(scan(doc).is_err(), "scanner accepts {doc:?}");
        }
    }

    #[test]
    fn borrows_unescaped_strings_and_keys() {
        let mut top = Vec::new();
        document(r#"{"key":"value","esc":"a\nb"}"#, &mut top, None).unwrap();
        assert!(matches!(top[0].0, Cow::Borrowed("key")));
        assert!(matches!(top[0].1, Val::Str(Cow::Borrowed("value"))));
        assert_eq!(top[1].1, Val::Str(Cow::Owned("a\nb".into())));
    }

    #[test]
    fn nested_key_members_are_scanned_in_the_same_pass() {
        let mut top = Vec::new();
        let mut nested = Vec::new();
        let doc = r#"{"fields":{"x":1},"other":{"y":2},"fields":{"job":3,"s":[0]}}"#;
        document(doc, &mut top, Some(("fields", &mut nested))).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[2].1, Val::Object(r#"{"job":3,"s":[0]}"#));
        assert_eq!(nested, vec![("job".into(), Val::UInt(3)), ("s".into(), Val::Array("[0]"))]);
        assert_eq!(
            items("[0, {\"a\":[]}]").unwrap(),
            vec![Val::UInt(0), Val::Object("{\"a\":[]}")]
        );
        assert_eq!(members(" {\"a\" : 1} ").unwrap(), vec![("a".into(), Val::UInt(1))]);
    }
}
