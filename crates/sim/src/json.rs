//! The workspace's JSON reader and writer.
//!
//! The workspace is deliberately dependency-free, so JSON is produced
//! and read here: objects, arrays, strings, numbers, booleans and null
//! — no more. Encoded documents are single-line, pure ASCII and
//! canonical (object keys sorted).
//!
//! All reading goes through one byte-level pull parser, `Reader`:
//! - It runs in time linear in the input. A string is copied a run at a
//!   time, up to the next quote or backslash, and a value no decoder
//!   asks for is parsed once and dropped.
//! - An integer literal is read straight into a `u64`. Only a literal
//!   with a fraction or an exponent goes through Rust's `f64` parser,
//!   so floats such as a result's `avg_load_latency` round-trip
//!   bit-exactly.
//! - Counters are exact up to 2^53 ([`MAX_EXACT`]): `Reader::u64`
//!   and [`Json::as_u64`] accept that range and nothing else, because
//!   the encoder writes larger numbers as floats.
//!
//! Typed decoders (the journal's specs and results, split records and
//! manifests) pull fields from a `Reader` with `read_fields!`
//! straight into their structs; no tree is built. [`Json::parse`] is a
//! thin tree builder on the same reader for the small documents: wire
//! frames, WAL records, HTTP bodies and bench files.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The largest counter a JSON number carries exactly (2^53).
pub const MAX_EXACT: u64 = 1 << 53;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted, so encoding is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is an integer in `0..=MAX_EXACT`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= MAX_EXACT as f64 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // `{:?}` is Rust's shortest round-trippable rendering.
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

/// Convenience: a `Json::Num` from any unsigned counter.
pub fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Convenience: a `Json::Str` from anything string-like.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// Convenience: a `Json::Obj` from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn write_escaped(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_ascii() && (c as u32) >= 0x20 => out.push(c),
            c => {
                // Control characters and all non-ASCII become `\u`
                // escapes (a surrogate pair beyond the BMP), keeping
                // every encoded document pure ASCII — robust against
                // consumers that mishandle raw UTF-8 in event names.
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push('"');
}

/// `n` as a counter, when it is an integer in `0..=MAX_EXACT`.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT as f64).then_some(n as u64)
}

/// One scanned number literal.
enum Number {
    /// A plain run of digits that fits a `u64`.
    Int(u64),
    /// Anything else the `f64` parser accepts.
    Float(f64),
}

/// A pull parser over one JSON document.
///
/// Each value method skips leading whitespace, consumes exactly one
/// value and returns an error (with the byte offset) on malformed or
/// mistyped input. Call [`finish`](Reader::finish) after the top-level
/// value to reject trailing bytes.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    /// Ends the document: only whitespace may follow the last value.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    /// Reads an object, calling `field` with each key and the reader
    /// positioned at that key's value, which `field` must consume.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, &key)?;
            if self.close(b'}')? {
                return Ok(());
            }
        }
    }

    /// Reads an array, calling `item` once per element with the reader
    /// positioned at it; `item` must consume the element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.close(b']')? {
                return Ok(());
            }
        }
    }

    /// Reads an array of counters.
    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        self.array(|r| {
            out.push(r.u64()?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Reads a string. It borrows from the input unless it holds
    /// escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run = self.text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            self.pos += run;
            // Quote and backslash are ASCII, so both ends of the run are
            // character boundaries.
            let chunk = &self.text[start..self.pos];
            if self.eat(b'"') {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut out) => {
                        out.push_str(chunk);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(chunk);
            self.escape(out)?;
        }
    }

    /// Reads a counter: an integer in `0..=MAX_EXACT`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let at = self.pos;
        match self.number()? {
            Number::Int(n) if n <= MAX_EXACT => Ok(n),
            Number::Float(x) if exact_u64(x).is_some() => Ok(x as u64),
            _ => Err(format!("expected a counter at byte {at}")),
        }
    }

    /// Reads any number.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(match self.number()? {
            Number::Int(n) => n as f64,
            Number::Float(x) => x,
        })
    }

    /// Reads `null` as `None`, anything else with `read`.
    pub fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.skip_ws();
        if self.eat_lit("null") {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    /// Reads any value as a tree.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let text = self.text;
        Ok(match text.as_bytes().get(self.pos) {
            None => return Err("unexpected end of input".into()),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    map.insert(key.to_string(), r.value()?);
                    Ok(())
                })?;
                Json::Obj(map)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            Some(b't') if self.eat_lit("true") => Json::Bool(true),
            Some(b'f') if self.eat_lit("false") => Json::Bool(false),
            Some(b'n') if self.eat_lit("null") => Json::Null,
            Some(_) => Json::Num(self.f64()?),
        })
    }

    /// Skips one value of any type, checking it is well-formed.
    pub fn skip(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.text.as_bytes().get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    /// Consumes a container's opening bracket and the whitespace after.
    fn open(&mut self, open: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect(open)?;
        self.skip_ws();
        Ok(())
    }

    /// After a member: `true` at the container's end, `false` after a
    /// separating comma.
    fn close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))
        }
    }

    /// Scans one number literal the way `f64::from_str` would see it.
    fn number(&mut self) -> Result<Number, String> {
        self.skip_ws();
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        let is_float = |b: &u8| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        let (mut digits, mut n) = (0, 0u64);
        while let Some(d @ b'0'..=b'9') = rest.get(digits).copied() {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            digits += 1;
        }
        // At most 19 digits cannot overflow a `u64`.
        if (1..=19).contains(&digits) && !rest.get(digits).is_some_and(is_float) {
            self.pos += digits;
            return Ok(Number::Int(n));
        }
        let len = rest
            .iter()
            .take_while(|&b| b.is_ascii_digit() || is_float(b))
            .count();
        self.pos += len;
        self.text[start..self.pos]
            .parse()
            .map(Number::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    /// Decodes the escape sequence at the cursor into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let rest = &self.text.as_bytes()[self.pos..];
        let esc = rest.get(1).ok_or("unterminated escape")?;
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
                let hex4 = |at: usize| -> Result<u32, String> {
                    let hex = rest.get(at..at + 4).ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
                };
                let code = hex4(2)?;
                if (0xD800..0xDC00).contains(&code) && rest.get(6..8) == Some(b"\\u") {
                    // A high surrogate followed by a `\u` escape:
                    // combine the pair into one scalar value.
                    let low = hex4(8)?;
                    if (0xDC00..0xE000).contains(&low) {
                        let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                        self.pos += 10;
                    } else {
                        // High surrogate with a non-surrogate escape
                        // after it: replace the orphan, leave the second
                        // escape for the next call.
                        out.push('\u{fffd}');
                        self.pos += 4;
                    }
                } else {
                    // A BMP scalar, or a lone surrogate (which has no
                    // scalar value) as the replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
            }
            other => return Err(format!("unknown escape \\{}", *other as char)),
        }
        self.pos += 2;
        Ok(())
    }
}

/// Reads one JSON object from a [`Reader`] into local variables named
/// after its fields, for typed decoders that build no tree.
///
/// Each `"key" => name: read` arm declares `name`, read by calling
/// `read(&mut Reader)`. Keys may come in any order, unknown keys are
/// skipped, and a repeated key keeps its last value, as in a tree.
/// A missing required key returns an error from the enclosing function
/// (which must return `Result<_, String>`); the arms after `optional`
/// leave an `Option` instead.
macro_rules! read_fields {
    ($r:expr, { $($key:literal => $var:ident : $read:expr),* $(,)? }
     $(optional { $($okey:literal => $ovar:ident : $oread:expr),* $(,)? })?) => {
        $(let mut $var = None;)*
        $($(let mut $ovar = None;)*)?
        $r.object(|r, key| {
            match key {
                $($key => $var = Some(($read)(r)?),)*
                $($($okey => $ovar = Some(($oread)(r)?),)*)?
                _ => r.skip()?,
            }
            Ok(())
        })?;
        $(let $var = $var.ok_or(concat!("missing field `", $key, "`"))?;)*
    };
}
pub(crate) use read_fields;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), s("gcc \"quoted\"\n"));
        obj.insert(
            "counts".to_string(),
            Json::Arr(vec![num(0), num(17), num(1 << 50)]),
        );
        obj.insert("ipc".to_string(), Json::Num(1.625));
        obj.insert("flag".to_string(), Json::Bool(true));
        obj.insert("missing".to_string(), Json::Null);
        let v = Json::Obj(obj);
        let text = v.encode();
        assert!(!text.contains('\n'), "journal lines must be single lines");
        assert_eq!(Json::parse(&text).expect("round trip"), v);
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(num(42).encode(), "42");
        assert_eq!(Json::Num(2.5).encode(), "2.5");
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse(r#"{"a": 3, "b": "x", "c": [1], "d": 2.5}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("d").and_then(Json::as_u64), None, "not an integer");
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("zz"), None);
    }

    #[test]
    fn non_ascii_and_control_characters_round_trip_as_ascii() {
        let adversarial = "naïve\u{7}\"q\\uote\"\tемул 😀\u{1F680}";
        let encoded = s(adversarial).encode();
        assert!(
            encoded.is_ascii(),
            "encoded strings must be pure ASCII: {encoded}"
        );
        assert!(!encoded.contains('\u{7}'), "raw control char leaked");
        assert_eq!(
            Json::parse(&encoded).expect("round trip"),
            s(adversarial),
            "escaped text must decode to the original"
        );
    }

    #[test]
    fn surrogate_pairs_combine_on_parse() {
        // U+1F600 encodes as the pair D83D DE00.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").expect("pair"),
            s("\u{1F600}")
        );
        // Lone surrogates have no scalar value: replacement character.
        assert_eq!(
            Json::parse(r#""\ud83dx""#).expect("lone high"),
            s("\u{fffd}x")
        );
        assert_eq!(Json::parse(r#""\ude00""#).expect("lone low"), s("\u{fffd}"));
        // High surrogate followed by a non-surrogate escape: the orphan
        // is replaced, the second escape decodes normally.
        assert_eq!(
            Json::parse(r#""\ud83dA""#).expect("orphan then BMP"),
            s("\u{fffd}A")
        );
        // Truncated pairs are malformed, not panics.
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn counters_read_exactly_and_only_in_range() {
        let counter = |text: &str| Reader::new(text).u64();
        assert_eq!(counter("0"), Ok(0));
        assert_eq!(counter(" 9007199254740992"), Ok(MAX_EXACT));
        assert!(counter("9007199254740993").is_err(), "above 2^53");
        assert!(counter("18446744073709551616").is_err(), "above u64");
        assert_eq!(counter("1e3"), Ok(1_000), "exponent form of an integer");
        assert_eq!(counter("7.0"), Ok(7));
        for bad in ["-1", "2.5", "", "x", "\"1\"", "null"] {
            assert!(counter(bad).is_err(), "`{bad}` is not a counter");
        }
        let float = |text: &str| Reader::new(text).f64().map(f64::to_bits);
        for x in [0.1f64, 123.456, 1.0 / 3.0, 2.5e-300, 1.7e308] {
            assert_eq!(float(&format!("{x:?}")), Ok(x.to_bits()), "{x:?}");
        }
        assert_eq!(
            float("18446744073709551617"),
            Ok(1.8446744073709552e19f64.to_bits())
        );
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#" "plain" "a\"b\u0041" "#);
        assert!(matches!(r.string(), Ok(Cow::Borrowed("plain"))));
        assert_eq!(r.string().as_deref(), Ok("a\"bA"));
        r.finish().expect("nothing trails");
    }

    fn read_pair(text: &str) -> Result<(u64, Vec<u64>, Option<f64>), String> {
        let mut r = Reader::new(text);
        read_fields!(r, {
            "a" => a: Reader::u64,
            "list" => list: Reader::u64s,
        } optional {
            "flag" => flag: Reader::f64,
        });
        r.finish()?;
        Ok((a, list, flag))
    }

    #[test]
    fn read_fields_takes_any_order_and_skips_unknown_keys() {
        assert_eq!(
            read_pair(r#"{"a":1,"list":[2,3]}"#),
            Ok((1, vec![2, 3], None))
        );
        assert_eq!(
            read_pair(r#"{"x":{"y":[null,true,"s"]}, "list":[], "flag":0.5, "a":4}"#),
            Ok((4, vec![], Some(0.5)))
        );
        assert_eq!(
            read_pair(r#"{"a":1,"list":[],"a":2}"#),
            Ok((2, vec![], None)),
            "a repeated key keeps its last value, as in a tree"
        );
        assert!(read_pair(r#"{"list":[]}"#).is_err(), "missing field");
        assert!(
            read_pair(r#"{"a":"1","list":[]}"#).is_err(),
            "mistyped field"
        );
        assert!(
            read_pair(r#"{"a":1,"list":[],"x":[1,}"#).is_err(),
            "bad skip"
        );
        assert!(
            read_pair(r#"{"a":1,"list":[]} 5"#).is_err(),
            "trailing bytes"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("").is_err());
    }
}
