//! The workspace's JSON codec: one value type, one depth-capped parser and
//! one writer.
//!
//! Everything JSON goes through here: the released model registry, the
//! store's `Dataset` fallback, the serve wire protocol and the report
//! writers (which append their strings with [`push_str`]). Objects keep
//! their field order. Numbers are `f64`, written by [`push_num`] as the
//! shortest decimal that parses back to the same bits, byte for byte what
//! Rust's `{}` prints: never an exponent, an exact tie between two
//! closest shortest decimals rounded up. The digits come from a Ryū
//! kernel (Adams, PLDI 2018) with std's tie rule in place of Ryū's
//! round-to-even. Non-finite values are written as `null`.

mod shortest;

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes nests 5 levels; the cap turns a hostile
/// `[[[[…` into an error before recursion can exhaust the stack.
pub const MAX_DEPTH: usize = 64;

/// 2^53: below it in magnitude every integer is its own `f64`; from it on
/// a parsed integer literal may already have been rounded to a
/// neighbour (`9007199254740993` parses as 2^53).
pub const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the JSON document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer: rejects fractions,
    /// negatives, and [`EXACT_INT_BOUND`] and above.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INT_BOUND => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact JSON: no whitespace at all.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty JSON: one value per line, 2-space indent, `"key": value`,
    /// empty containers as `[]` / `{}`, no trailing newline.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends the value; `indent` is `None` for the compact form, else
    /// the current pretty-print indentation.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => push_num(out, *n),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => write_container(out, indent, ('[', ']'), items, |out, v, ind| {
                v.write(out, ind);
            }),
            Json::Obj(fields) => {
                write_container(out, indent, ('{', '}'), fields, |out, (k, v), ind| {
                    push_str(out, k);
                    out.push_str(if ind.is_some() { ": " } else { ":" });
                    v.write(out, ind);
                });
            }
        }
    }
}

fn write_container<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    let newline = |out: &mut String, indent: Option<usize>| {
        if let Some(n) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n));
        }
    };
    let inner = indent.map(|n| n + 2);
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        item(out, v, inner);
    }
    newline(out, indent);
    out.push(close);
}

/// Appends `s` as a quoted JSON string literal — the workspace's one
/// string escaper.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number: the bytes of `write!(out, "{v}")`, from
/// the shortest-digit kernel; `null` when non-finite.
pub fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        shortest::push_shortest(out, v);
    } else {
        out.push_str("null");
    }
}

/// Appends a compact JSON array of `items`, each one appended by `item`.
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, v);
    }
    out.push(']');
}

/// [`push_str`] into a fresh string.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str(&mut out, s);
    out
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(b))))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .container(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.container(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            None => Err(self.err("unexpected end of input")),
            Some(_) => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses the comma-separated items of an array or object whose
    /// opening bracket is at `pos`.
    fn container<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(items);
                }
                _ => {
                    return Err(self.err(&format!("expected ',' or '{}'", char::from(close))));
                }
            }
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Consumes one byte if it is in `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes a run of ASCII digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// A number in strict JSON grammar:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b"-");
        let int = self.eat(b"0") || self.digits();
        let frac = !self.eat(b".") || self.digits();
        let exp = !self.eat(b"eE") || {
            self.eat(b"+-");
            self.digits()
        };
        if !(int && frac && exp) {
            return Err(self.err("malformed number"));
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one slice; multi-byte UTF-8 never contains those bytes.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must be followed by its low half.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let v = digits.iter().fold(0, |acc, &d| {
            acc * 16 + char::from(d).to_digit(16).unwrap_or(0)
        });
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scalar_zoo() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse(r#""a\"b\\c\nAé/\/""#).unwrap(),
            Json::Str("a\"b\\c\nAé//".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn parses_nested_structures_and_preserves_field_order() {
        let v = Json::parse(r#" {"b": [1, 2, {"x": null}], "a": "y"} "#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("y"));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.render(), r#"{"b":[1,2,{"x":null}],"a":"y"}"#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            r#"{"a"}"#,
            r#"{"a" 1}"#,
            r#"{"a":1,}"#,
            "tru",
            "nul",
            "01",
            "01a",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "0x1F",
            "1e400",
            r#""unterminated"#,
            "{} extra",
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\q""#,
            r#""\u12""#,
            "\"a\u{1}b\"",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_cap_is_a_diagnostic_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn u64_extraction_is_exact() {
        let u = |s: &str| Json::parse(s).unwrap().as_u64();
        assert_eq!(u("7"), Some(7));
        assert_eq!(u("9007199254740991"), Some(9_007_199_254_740_991));
        assert_eq!(u("9007199254740992"), None);
        // Parses as 2^53: refused rather than served as a neighbour.
        assert_eq!(u("9007199254740993"), None);
        assert_eq!(u("-1"), None);
        assert_eq!(u("1.5"), None);
        assert_eq!(u("1e300"), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn quoting_round_trips() {
        let nasty = "a\"b\\c\nd\te\r\u{1}\u{1f}é😀";
        let quoted = quote(nasty);
        assert_eq!(quoted, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001fé😀\"");
        assert_eq!(Json::parse(&quoted).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn floats_round_trip_bit_exactly_and_non_finite_becomes_null() {
        let num = |v: f64| {
            let mut out = String::new();
            push_num(&mut out, v);
            out
        };
        for v in [
            0.0,
            -0.0,
            1.5,
            std::f64::consts::PI,
            1e300,
            5e-324,
            f64::MAX,
            -123_456.789_012_345,
        ] {
            let text = num(v);
            assert!(!text.contains('e'), "{text}");
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "via {text}");
        }
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn pretty_form_indents_by_two_and_keeps_empty_containers_inline() {
        let v = Json::parse(r#"{"a":[1.5,{"b":[]}],"c":{},"d":"x"}"#).unwrap();
        assert_eq!(
            v.render_pretty(),
            "{\n  \"a\": [\n    1.5,\n    {\n      \"b\": []\n    }\n  ],\n  \"c\": {},\n  \"d\": \"x\"\n}"
        );
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]");
    }
}
