//! The workspace's one JSON implementation: a [`Json`] value, the strict
//! [`parse`] that reads one, and the two layouts that write one.
//!
//! The workspace is dependency-free (no serde), and every document the
//! system emits — `cmmc run --metrics-json`, the `cmm-tune-report-v1` of
//! `cmmc tune`, every line `cmmc serve` writes — is built as a value here
//! and laid out by one of:
//!
//! * [`Json::to_line`] — one line, `", "` between members, `": "` after
//!   keys (the serve wire format);
//! * [`Json::to_pretty`] — two-space indent, one member per line, except
//!   that a nested array or object whose members are all scalars stays
//!   on one line; newline-terminated (the report files).
//!
//! Objects keep their members in insertion order and numbers keep their
//! spelling, so a document's bytes are a function of the value alone and
//! `parse(v.to_line()) == v == parse(v.to_pretty())`.
//!
//! The parser is RFC 8259 strict: no leading zeros, no raw control
//! characters in strings, `\u` surrogates only as a pair, numbers finite.
//! Depth is bounded here and input size by the caller (the connection's
//! line-length cap), so a hostile request cannot stack-overflow or
//! balloon the daemon.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum nesting depth accepted (requests are depth ≤ 3 in practice).
const MAX_DEPTH: usize = 32;

/// A JSON number, held as its spelling: integers are exact at any
/// magnitude and a fixed-decimal float keeps the digits its report chose.
/// Only this module makes one, so the text is always a valid literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(Number),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: members in document order.
    Obj(Vec<Member>),
}

/// One member of an object. A writer's keys are literals; the parser's
/// are owned.
pub type Member = (Cow<'static, str>, Json);

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(Number(n.to_string()))
            }
        }
    )*};
}
json_from_int!(u8, u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// An object of `members`, in the order given.
    pub fn obj<K: Into<Cow<'static, str>>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `value` with exactly `digits` decimals (`1.000000`, `40.3`). JSON
    /// has no spelling for NaN or an infinity: those are `null`.
    pub fn fixed(value: f64, digits: usize) -> Json {
        if value.is_finite() {
            Json::Num(Number(format!("{value:.digits$}")))
        } else {
            Json::Null
        }
    }

    /// Member of an object, if this is an object that has it (the last
    /// one, should a document repeat the key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload as u64: an unsigned integer literal exactly, or a
    /// decimal / exponent spelling of a whole number (`250.0`, `1e3`).
    /// Negatives, fractions and anything beyond `u64` are `None`.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(Number(text)) = self else {
            return None;
        };
        if let Ok(n) = text.parse::<u64>() {
            return Some(n);
        }
        // `u64::MAX as f64` rounds up to 2^64, so the bound is strict: a
        // value that passes casts without saturating.
        let n = text.parse::<f64>().ok()?;
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The one-line layout, without a trailing newline.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write(&mut out, None);
        out
    }

    /// The indented layout, newline-terminated.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is `None` in the one-line layout and the nesting level in
    /// the indented one.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(Number(text)) => out.push_str(text),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_members(out, ['[', ']'], items.iter().map(|v| (None, v)), depth)
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(&**k), v));
                write_members(out, ['{', '}'], members, depth)
            }
        }
    }
}

/// The layout rule, for arrays and objects alike. A container goes one
/// member per line when the layout is the indented one and it is either
/// the document itself or has a container among its members; otherwise it
/// stays on the line it started on.
fn write_members<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
    depth: Option<usize>,
) {
    let broken = depth.filter(|&d| {
        d == 0
            || members
                .clone()
                .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
    });
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(if broken.is_some() { "," } else { ", " });
        }
        if let Some(d) = broken {
            newline(out, d + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, broken.map(|d| d + 1));
    }
    if let Some(d) = broken {
        newline(out, d);
    }
    out.push(close);
}

/// Append `s` as a string literal. Runs of bytes that need no escape —
/// everything but `"`, `\` and the C0 controls, so all of UTF-8's
/// multi-byte sequences — are copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Escape and quote `s` as a JSON string literal — the escaper every
/// string in every document goes through.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn found(&self) -> String {
        match self.src[self.pos..].chars().next() {
            Some(c) => format!("{c:?} at byte {}", self.pos),
            None => "end of input".to_string(),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}', found {}", b as char, self.found()))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected {}", self.found())),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// One digit or more.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a digit, found {}", self.found()));
        }
        Ok(())
    }

    /// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        self.digits()?;
        if self.pos - int > 1 && self.src.as_bytes()[int] == b'0' {
            return Err(format!("leading zero in number at byte {int}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(Number(text.to_string()))),
            _ => Err(format!("number '{text}' is out of range")),
        }
    }

    /// The four hex digits of a `\u` escape, `pos` on the `u`.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .as_bytes()
            .get(self.pos + 1..self.pos + 5)
            .unwrap_or(&[]);
        if hex.len() != 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("bad \\u escape at byte {}", self.pos - 1));
        }
        let text = &self.src[self.pos + 1..self.pos + 5];
        self.pos += 4;
        Ok(u32::from_str_radix(text, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote, backslash or control byte
            // is copied whole; those bytes are ASCII, so the run ends on a
            // character boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(format!(
                        "raw control character in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// One escape, `pos` on the byte after the backslash; leaves `pos` on
    /// the escape's last byte.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let at = self.pos - 1;
                let mut cp = self.hex4()?;
                if (0xd800..0xdc00).contains(&cp) && self.src[self.pos + 1..].starts_with("\\u") {
                    // A high surrogate and the low one that must follow.
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                char::from_u32(cp).ok_or_else(|| format!("lone surrogate at byte {at}"))?
            }
            _ => return Err(format!("bad escape {}", self.found())),
        })
    }

    /// `open close`, or `open item (, item)* close` with `item` reading
    /// one member: the shape arrays and objects share.
    fn members<T>(
        &mut self,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(members);
        }
        loop {
            members.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(members);
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}', found {}", self.found()));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        Ok(Json::Arr(self.members(*b"[]", |p| p.value(depth + 1))?))
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let member = |p: &mut Self| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            Ok((Cow::Owned(key), p.value(depth + 1)?))
        };
        Ok(Json::Obj(self.members(*b"{}", member)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(
            r#"{"id": "r1", "cmd": "run", "src": "int main() { return 0; }",
                "ext": ["ext-matrix", "ext-cilk"], "fuel": 1000, "deadline_ms": 250.0,
                "nested": {"a": [1, -2.5, true, null]}}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(v.get("fuel").unwrap().as_u64(), Some(1000));
        assert_eq!(v.get("deadline_ms").unwrap().as_u64(), Some(250));
        assert_eq!(v.get("ext").unwrap().as_array().unwrap().len(), 2);
        let a = v
            .get("nested")
            .unwrap()
            .get("a")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!((a[2].as_bool(), &a[3]), (Some(true), &Json::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ end\u{0001}é";
        let back = parse(&json_str(original)).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nul",
            "--5",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_fractional_and_negative_u64() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err());
    }

    /// What Python's default `json.dumps` sends for an astral character.
    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        assert_eq!(
            parse(r#""job-\ud83d\ude00""#).unwrap().as_str(),
            Some("job-😀")
        );
        assert_ne!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            parse(r#""\ud83d\ude01""#).unwrap()
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
        ] {
            let err = parse(lone).expect_err(lone);
            assert!(err.contains("lone surrogate"), "{lone}: {err}");
        }
    }

    #[test]
    fn unsigned_integer_literals_are_exact() {
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
        // 2^64: a valid number, but not a u64 — and not u64::MAX either.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1.8446744073709552e19").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_and_strings_are_rfc_strict() {
        for bad in [
            "1e400",
            "-1e400",
            "01",
            "-01",
            "[00]",
            "\"a\tb\"",
            "\"a\nb\"",
            "\"\u{0}\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse("[0, -0, 0.5, 10, 1E+2]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            5
        );
        assert_eq!(
            parse("\"a\\tb\u{7f}\"").unwrap().as_str(),
            Some("a\tb\u{7f}")
        );
    }

    #[test]
    fn the_two_layouts() {
        let v = Json::obj([
            ("name", "x".into()),
            ("ratio", Json::fixed(1.0, 6)),
            ("nan", Json::fixed(f64::NAN, 1)),
            ("flat", Json::arr([1u64, 2])),
            ("empty", Json::arr::<Json>([])),
            (
                "rows",
                Json::arr([Json::obj([("k", true.into())]), Json::Obj(vec![])]),
            ),
            (
                "deep",
                Json::obj([("inner", Json::arr([Json::arr([i64::MIN])]))]),
            ),
        ]);
        assert_eq!(
            v.to_line(),
            r#"{"name": "x", "ratio": 1.000000, "nan": null, "flat": [1, 2], "empty": [], "rows": [{"k": true}, {}], "deep": {"inner": [[-9223372036854775808]]}}"#
        );
        assert_eq!(
            v.to_pretty(),
            r#"{
  "name": "x",
  "ratio": 1.000000,
  "nan": null,
  "flat": [1, 2],
  "empty": [],
  "rows": [
    {"k": true},
    {}
  ],
  "deep": {
    "inner": [
      [-9223372036854775808]
    ]
  }
}
"#
        );
        assert_eq!(parse(&v.to_line()), Ok(v.clone()));
        assert_eq!(parse(&v.to_pretty()), Ok(v));
        assert_eq!(Json::Null.to_pretty(), "null\n");
    }

    #[test]
    fn a_repeated_key_reads_as_its_last_value() {
        let v = parse(r#"{"id": "a", "id": "b"}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("b"));
    }
}
