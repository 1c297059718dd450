//! The workspace's one JSON module: [`escape`] for every writer, and a
//! strict parser into a [`Json`] value for every reader. No serde is
//! vendored; the artifacts this repository reads and writes (fault
//! schedules, bench baselines, survival and coverage reports, Chrome
//! traces) are small and flat enough that this is all they need.
//!
//! Numbers keep their literal text, so an integer reads back exactly as
//! a `u64` (the `ipi-drop-all` chaos plan drops `u64::MAX` IPIs) and any
//! number also reads as an `f64`.

use std::fmt::Write as _;

/// Nesting deeper than this is rejected rather than recursed into, so a
/// hostile document cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// Escapes `s` for the inside of a JSON string literal (the quotes are
/// the caller's). Non-ASCII text passes through verbatim.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Objects keep their fields in document order and
/// never hold a key twice.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text (validated against the grammar).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document: exactly one value, optionally
    /// surrounded by whitespace.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(v)
    }

    /// The value of field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of field `key`, or an error naming it.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field \"{key}\""))
    }

    /// The value as an exact unsigned integer: `None` for anything else,
    /// including negative, fractional, exponent-form, and out-of-range
    /// numbers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.bytes().all(|b| b.is_ascii_digit()) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field `key` as an exact unsigned integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        typed(self, key, "a non-negative integer", Json::as_u64)
    }

    /// Field `key` as a float.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        typed(self, key, "a number", Json::as_f64)
    }

    /// Field `key` as a bool.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        typed(self, key, "a bool", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// Field `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        typed(self, key, "a string", Json::as_str)
    }

    /// Field `key` as an array.
    pub fn array_field(&self, key: &str) -> Result<&[Json], String> {
        typed(self, key, "an array", |v| match v {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }
}

fn typed<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let f = v.field(key)?;
    read(f).ok_or_else(|| format!("\"{key}\" is not {what}: {f:?}"))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.eat_if(c)
            .then_some(())
            .ok_or_else(|| self.error(&format!("expected '{}'", c as char)))
    }

    /// Consumes `c` if it is the next non-whitespace byte.
    fn eat_if(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.byte() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.byte() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error("bad keyword"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.pos += usize::from(self.byte() == Some(b'-'));
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_start] == b'0') {
            return Err(self.error("bad number"));
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("bad fraction"));
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("bad exponent"));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash, or control
            // byte: all ASCII, so the slice ends on a char boundary.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let b = self.byte().expect("position found above");
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => {
                    self.pos -= 1;
                    return Err(self.error("raw control character in string"));
                }
            }
            let esc = self.byte().ok_or_else(|| self.error("bad escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                // `escape` writes non-ASCII text verbatim, so no artifact
                // holds a surrogate-pair escape; one is refused.
                b'u' => char::from_u32(self.hex4()?)
                    .ok_or_else(|| self.error("surrogate escapes are not supported"))?,
                _ => return Err(self.error("bad escape")),
            });
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        if self.eat_if(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(&format!("duplicate key \"{key}\"")));
            }
            self.eat(b':')?;
            fields.push((key, self.value(depth + 1)?));
            if !self.eat_if(b',') {
                self.eat(b'}')?;
                return Ok(Json::Obj(fields));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.eat_if(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if !self.eat_if(b',') {
                self.eat(b']')?;
                return Ok(Json::Arr(items));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v =
            Json::parse(r#" {"a": [1, -2.5e3, true, false, null], "b": "x\ty"} "#).expect("valid");
        let a = v.array_field("a").expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.str_field("b"), Ok("x\ty"));
    }

    #[test]
    fn integers_are_exact_up_to_u64_max() {
        let v = Json::parse(&format!("{{\"n\": {}}}", u64::MAX)).expect("valid");
        assert_eq!(v.u64_field("n"), Ok(u64::MAX));
        let over = Json::parse("{\"n\": 18446744073709551616}").expect("valid json");
        assert!(over.u64_field("n").is_err(), "overflow is not truncated");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "-",
            "1e",
            "\"\\x\"",
            "tru",
            "{} {}",
            "{\"a\": 1, \"a\": 2}",
            "\"a\u{1}b\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err(), "nesting is bounded");
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""\u00e9\u6f22""#).expect("valid");
        assert_eq!(v.as_str(), Some("é漢"));
    }
}
