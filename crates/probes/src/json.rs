//! A minimal JSON reader/writer.
//!
//! The workspace is dependency-free by design (ROADMAP: the container
//! cannot resolve crates.io), so the RunLog serializer and the
//! `simreport` renderer share this ~200-line subset instead of serde:
//! the full JSON value grammar, parsed into an order-preserving tree.
//! Numbers are kept as `f64`, which is exact for every counter the
//! simulator can realistically produce in one run (< 2^53);
//! [`Json::as_u64`] refuses anything larger rather than round it.

use std::fmt;

/// A parsed JSON value. Object members preserve source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one below 2^53.
    /// From 2^53 up an `f64` no longer holds every integer, so a larger
    /// number may not be the one the text spelled: it reads as `None`
    /// rather than as a rounded or saturated integer.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && *n < EXACT && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if it is an array.
    pub fn elements(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Quotes and escapes a string as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Run of plain UTF-8 bytes.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired;
                            // nothing we emit uses them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number run");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).unwrap(),
            &Json::Num(-2.5)
        );
        match v.get("b").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Bool(true));
                assert_eq!(items[1], Json::Null);
                assert_eq!(items[2], Json::Str("x\n".into()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let original = "a \"quoted\"\tline\nwith \\ specials";
        let parsed = parse(&quote(original)).unwrap();
        assert_eq!(parsed, Json::Str(original.into()));
    }

    #[test]
    fn u64_helper_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        // Exact up to 2^53 - 1; from 2^53 up a number may already have
        // been rounded, and 1e300 must not saturate to u64::MAX.
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse("10000000000000000000").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn decodes_every_escape_form() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé☃""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé☃"));
        // \u0000 is a valid scalar even though quote() re-encodes it.
        assert_eq!(parse("\"\\u0000\"").unwrap().as_str(), Some("\0"));
        // Control characters survive a quote/parse round trip.
        let original = "bell\u{7} and nul\0";
        assert_eq!(parse(&quote(original)).unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_bad_escapes() {
        assert!(parse(r#""\q""#).is_err(), "unknown escape letter");
        assert!(parse(r#""\u12""#).is_err(), "truncated \\u escape");
        assert!(parse(r#""\uzzzz""#).is_err(), "non-hex \\u escape");
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(parse(r#""\"#).is_err(), "escape at end of input");
    }

    #[test]
    fn truncated_documents_error_instead_of_panicking() {
        for src in [
            "{\"a\":",
            "{\"a\": 1,",
            "[1, 2",
            "\"unterminated",
            "tru",
            "-",
            "{\"a\": \"b",
            "[[[",
        ] {
            assert!(parse(src).is_err(), "{src:?} should fail to parse");
        }
    }

    #[test]
    fn deeply_nested_arrays_parse_and_navigate() {
        // 2000 levels of nesting: the parser must neither reject nor
        // blow the stack (Parser::array loops only via value(), so depth
        // is bounded by recursion — keep it well inside default stacks).
        let depth = 2000;
        let mut src = String::new();
        for _ in 0..depth {
            src.push('[');
        }
        src.push('7');
        for _ in 0..depth {
            src.push(']');
        }
        let mut v = &parse(&src).unwrap();
        let mut seen = 0;
        while let Some(items) = v.elements() {
            assert_eq!(items.len(), 1);
            v = &items[0];
            seen += 1;
        }
        assert_eq!(seen, depth);
        assert_eq!(v.as_u64(), Some(7));
        // An unbalanced deep nest still errors cleanly.
        assert!(parse(&"[".repeat(depth)).is_err());
    }
}
