//! The workspace's one JSON module: a recursive-descent parser for the
//! full grammar, a flat-object reader for JSONL records, and a writer
//! (the `Display` impl of [`Json`]) that places commas and escapes
//! strings. No external crates.
//!
//! Numbers are kept as their exact source token, so a value read back
//! renders byte-for-byte as written and Rust's shortest-roundtrip
//! `{:?}` floats recover their exact bits. Errors carry the byte offset
//! of the first offending character. Inputs are queue files and JSONL
//! records of a few kilobytes; this is not a high-throughput parser.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its JSON token (`"3"`, `"-1.5e3"`).
    Num(String),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys: first wins on `get`).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number rendered by `Display` (e.g. `format!("{x:.4}")`); the
    /// caller picks the formatting, the writer keeps it.
    pub fn num(n: impl fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// A number with `decimals` digits after the point (`{:.N}`).
    pub fn fixed(n: f64, decimals: usize) -> Json {
        Json::Num(format!("{n:.decimals$}"))
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This number as a non-negative integer, if it is one exactly: an
    /// integer token within `u64`, or a fraction/exponent form (`1e3`)
    /// of an integer below 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(token) = self else {
            return None;
        };
        token
            .parse()
            .ok()
            .or_else(|| match token.parse::<f64>().ok()? {
                // `u64::MAX as f64` rounds up to 2^64 itself.
                n if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => Some(n as u64),
                _ => None,
            })
    }

    /// This number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value. Compact unless `indent` is set; pretty output
    /// keeps a container on one line when it holds only scalars and
    /// otherwise puts each child on its own line, `indent` deep.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let (open, close, items): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(token) => return f.write_str(token),
            Json::Str(s) => return write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => ("[", "]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => ("{", "}", fields.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let nests = |(_, v): &(_, &Json)| matches!(v, Json::Arr(_) | Json::Obj(_));
        let nested = indent.filter(|_| items.iter().any(nests));
        let (open, sep, close) = match (indent, nested) {
            (None, _) => (open.to_string(), ",".to_string(), close.to_string()),
            (Some(_), None) => (open.to_string(), ", ".to_string(), close.to_string()),
            (Some(_), Some(d)) => (
                format!("{open}\n{:w$}", "", w = d + 2),
                format!(",\n{:w$}", "", w = d + 2),
                format!("\n{:d$}{close}", ""),
            ),
        };
        let colon = if indent.is_some() { ": " } else { ":" };
        f.write_str(&open)?;
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                f.write_str(&sep)?;
            }
            if let Some(key) = key {
                write!(f, "\"{}\"{colon}", json_escape(key))?;
            }
            value.write(f, nested.map(|d| d + 2).or(indent))?;
        }
        f.write_str(&close)
    }
}

/// `{}` renders compact JSON (`{"a":1,"b":[2,3]}`); `{:#}` renders it
/// pretty, one nested child per line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// JSON string escaping: quotes, backslashes and control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one flat JSON object — `{"key":value,...}` with string,
/// number, boolean and null values, no nesting — into key → value
/// pairs. Strings come back unescaped; numbers, booleans and `null`
/// come back as their exact source token, so `f64::from_str`
/// round-trips the shortest representation `{:?}` emitted.
///
/// Returns `None` on anything malformed, nested, or with a duplicate
/// key (a truncated journal tail line after a kill is data, not a bug,
/// so this never panics).
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, String>> {
    let Json::Obj(fields) = parse(line).ok()? else {
        return None;
    };
    let mut out = BTreeMap::new();
    for (key, value) in fields {
        let value = match value {
            Json::Str(s) | Json::Num(s) => s,
            Json::Bool(b) => b.to_string(),
            Json::Null => "null".to_string(),
            Json::Arr(_) | Json::Obj(_) => return None,
        };
        if out.insert(key, value).is_some() {
            return None;
        }
    }
    Some(out)
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Error strings carry a byte offset into `text`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(value)
}

// Objects nested deeper than this are rejected rather than risking a
// stack overflow on hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized token"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates would need pairing; none of our
                            // formats has a use for them.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slices
                    // at char boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(self.err("malformed number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_round_trips() {
        let doc = r#"{
            "s": "a\"b\\c\u0041\n",
            "n": -1.5e3,
            "i": 42,
            "b": [true, false, null],
            "o": {"nested": {}}
        }"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\cA\n"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(v.get("i").and_then(Json::as_u64), Some(42));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert!(v.get("o").and_then(|o| o.get("nested")).is_some());
        // as_u64 refuses non-integers and negatives.
        assert_eq!(v.get("n").and_then(Json::as_u64), None);
    }

    #[test]
    fn integers_are_exact_to_u64_max() {
        let u = |token: &str| Json::num(token).as_u64();
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(u("18446744073709551616"), None, "u64::MAX + 1");
        assert_eq!(u("1.8446744073709552e19"), None, "2^64");
        assert_eq!(u("1e19"), Some(10_000_000_000_000_000_000));
        assert_eq!(u("3.0"), Some(3));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("1e400"), None);
        assert_eq!(Json::num("1e400").as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn errors_carry_byte_offsets() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"\\q\"",
            "01x",
            "{} trailing",
            "nul",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn hostile_depth_is_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn flat_object_roundtrips() {
        let line = r#"{"id":3,"latency":12.625,"name":"mesh","ok":true}"#;
        let map = parse_flat_object(line).expect("parses");
        assert_eq!(map["id"], "3");
        assert_eq!(map["latency"], "12.625");
        assert_eq!(map["name"], "mesh");
        assert_eq!(map["ok"], "true");
    }

    #[test]
    fn escaped_strings_unescape() {
        let map = parse_flat_object(r#"{"k":"a\"b\\c\ndA"}"#).expect("parses");
        assert_eq!(map["k"], "a\"b\\c\ndA");
    }

    #[test]
    fn shortest_float_representation_roundtrips_exactly() {
        for v in [0.1_f64, 1.0 / 3.0, 1e-300, -2.5e17, f64::MIN_POSITIVE] {
            let line = format!("{{\"v\":{v:?}}}");
            let map = parse_flat_object(&line).expect("parses");
            let back: f64 = map["v"].parse().expect("float");
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} must round-trip");
        }
    }

    #[test]
    fn truncated_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            r#"{"id":3"#,
            r#"{"id":3,"#,
            r#"{"id":}"#,
            r#"{"id""#,
            r#"{"a":1,"a":2}"#,
            r#"{"k":"unterminated}"#,
        ] {
            assert_eq!(parse_flat_object(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_object("{}").expect("parses").is_empty());
    }

    #[test]
    fn flat_objects_reject_nesting_and_keep_null() {
        assert_eq!(parse_flat_object(r#"{"a":[1]}"#), None);
        assert_eq!(parse_flat_object(r#"{"a":{}}"#), None);
        assert_eq!(parse_flat_object(r#"[1]"#), None);
        let map = parse_flat_object(r#"{"p90":null}"#).expect("parses");
        assert_eq!(map["p90"], "null");
    }

    #[test]
    fn writer_places_commas_escapes_and_keeps_number_tokens() {
        let v = Json::obj([
            ("name", Json::str("a\"b")),
            ("x", Json::num(format_args!("{:.4}", 0.5))),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::num(1), Json::num(2)])),
            (
                "rows",
                Json::Arr(vec![Json::obj([("r", Json::num(1))]), Json::obj([])]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"a\"b","x":0.5000,"ok":true,"none":null,"list":[1,2],"rows":[{"r":1},{}]}"#
        );
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"name\": \"a\\\"b\",\n  \"x\": 0.5000,\n  \"ok\": true,\n  \
             \"none\": null,\n  \"list\": [1, 2],\n  \"rows\": [\n    {\"r\": 1},\n    {}\n  ]\n}"
        );
        assert_eq!(parse(&format!("{v:#}")), Ok(v.clone()));
        assert_eq!(parse(&v.to_string()), Ok(v));
    }
}
