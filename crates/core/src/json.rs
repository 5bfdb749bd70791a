//! A minimal, dependency-free JSON document model with a writer and parser.
//!
//! The workspace is fully vendored and offline, so instead of `serde_json`
//! this module provides the small JSON surface the service boundary needs:
//! a [`Json`] value type, a deterministic compact writer (`to_string` via
//! the `Display` impl) and a strict recursive-descent parser
//! ([`Json::parse`]).
//! The typed conversions for the public result types live in [`crate::wire`].
//!
//! Design points that make the representation *stable*:
//!
//! * Objects preserve insertion order (backed by a `Vec`), so serializing the
//!   same value always yields the same byte string.
//! * Integers are kept exact as `i128` (wide enough for the `u128` cell
//!   counters of [`crate::SchemaQuality`]); a number token is parsed as an
//!   integer iff it has no fraction or exponent.
//! * Floats are written with Rust's shortest round-trip formatting and a
//!   forced decimal point, so `parse(write(x)) == x` bit-for-bit for every
//!   finite `f64`. Non-finite floats serialize as the strings `"NaN"`,
//!   `"Infinity"` and `"-Infinity"` (JSON has no non-finite number tokens,
//!   and `null` would be indistinguishable from a genuinely absent value);
//!   [`Json::as_f64`] decodes those strings back, so non-finite floats
//!   survive a round trip through [`crate::wire`] instead of silently
//!   collapsing into `null`.
//!
//! ```
//! use maimon::json::Json;
//!
//! let value = Json::object([
//!     ("epsilon", Json::from(0.1)),
//!     ("bags", Json::array([Json::from(3i64), Json::from(4i64)])),
//! ]);
//! let text = value.to_string();
//! assert_eq!(text, r#"{"epsilon":0.1,"bags":[3,4]}"#);
//! assert_eq!(Json::parse(&text).unwrap(), value);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and significant for
    /// serialization (but not for [`PartialEq`] of the typed layer, which
    /// looks fields up by key).
    Object(Vec<(String, Json)>),
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
///
/// The parser recurses once per level, so without a cap a line of a few
/// hundred thousand `[` overflows the thread's stack and aborts the whole
/// process. Protocol documents nest a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// What kind of input [`Json::parse`] rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Not well-formed JSON.
    Syntax,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// An error produced by [`Json::parse`], with the byte offset of the
/// offending input position.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Why the input was rejected.
    pub kind: JsonErrorKind,
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Looks a field up by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an object's field list.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
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

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact integer.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an `f64`. Integers convert; the writer's string
    /// encodings of non-finite floats (`"NaN"`, `"Infinity"`,
    /// `"-Infinity"`) decode back. `null` is *not* a number — it returns
    /// `None` like any other non-numeric value, so absent optional fields
    /// are never misread as `NaN`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document (must consume the entire input).
    ///
    /// # Errors
    /// Returns a [`JsonError`] with the offending byte offset on malformed
    /// input, trailing garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i as i128)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i128)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i as i128)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
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

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{}", c)?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{}", b),
            Json::Int(i) => write!(f, "{}", i),
            Json::Float(x) => {
                if !x.is_finite() {
                    // Explicit string encoding: `null` would be
                    // indistinguishable from an absent optional field on
                    // the reader side. `as_f64` decodes these back.
                    return if x.is_nan() {
                        f.write_str("\"NaN\"")
                    } else if *x > 0.0 {
                        f.write_str("\"Infinity\"")
                    } else {
                        f.write_str("\"-Infinity\"")
                    };
                }
                // Rust's shortest round-trip formatting; force a decimal
                // point so the token re-parses as a float, not an integer.
                let s = format!("{}", x);
                if s.contains(['.', 'e', 'E']) {
                    f.write_str(&s)
                } else {
                    write!(f, "{}.0", s)
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", item)?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{}", value)?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError { kind: JsonErrorKind::Syntax, message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{}'", text)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses a container one level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
                offset: self.pos,
            });
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("non-ASCII \\u escape"))?;
        let code =
            u16::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let high = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: require \uXXXX for the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((high as u32 - 0xD800) << 10)
                                        + (low as u32).wrapping_sub(0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(high as u32)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII by construction");
        if is_float {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.error("invalid number"))
        } else {
            // Exact integers; fall back to f64 only on (absurd) overflow.
            match text.parse::<i128>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => {
                    text.parse::<f64>().map(Json::Float).map_err(|_| self.error("invalid number"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) {
        let text = value.to_string();
        assert_eq!(&Json::parse(&text).unwrap(), value, "via {text}");
    }

    #[test]
    fn scalars_round_trip() {
        for value in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Int(u128::MAX as i128 / 2),
            Json::Str(String::new()),
            Json::Str("plain".into()),
            Json::Str("esc \" \\ \n \r \t \u{1} ü 語 🦀".into()),
        ] {
            roundtrip(&value);
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.0, -0.0, 0.1, 1.0, -1.5, 1e300, 5e-324, 123456.789, 2.0f64.powi(53) + 2.0] {
            let written = Json::Float(x).to_string();
            match Json::parse(&written).unwrap() {
                Json::Float(y) => assert_eq!(x.to_bits(), y.to_bits(), "{x} via {written}"),
                other => panic!("{x} serialized to non-float {other:?}"),
            }
        }
        // Whole floats keep their decimal point, so the type survives.
        assert_eq!(Json::Float(4.0).to_string(), "4.0");
    }

    #[test]
    fn non_finite_floats_get_an_explicit_encoding() {
        // JSON has no NaN/inf tokens; they serialize as strings…
        assert_eq!(Json::Float(f64::NAN).to_string(), "\"NaN\"");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "\"Infinity\"");
        assert_eq!(Json::Float(f64::NEG_INFINITY).to_string(), "\"-Infinity\"");
        // …and as_f64 decodes them back, so the value survives the wire.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let back = Json::parse(&Json::Float(x).to_string()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        // Other strings are not numbers.
        assert_eq!(Json::Str("nan".into()).as_f64(), None);
        assert_eq!(Json::Str("Inf".into()).as_f64(), None);
    }

    #[test]
    fn null_is_not_a_number() {
        // Regression: as_f64 used to map Null to Some(NaN), so a reader
        // probing an absent optional field with as_f64 saw a NaN instead
        // of noticing the field was missing.
        assert_eq!(Json::Null.as_f64(), None);
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let value = Json::object([
            ("z", Json::array([Json::Int(1), Json::Null, Json::Bool(false)])),
            ("a", Json::object([("nested", Json::Float(2.5))])),
            ("empty_array", Json::array([])),
            ("empty_object", Json::object(Vec::<(String, Json)>::new())),
        ]);
        roundtrip(&value);
        // Key order is preserved, making serialization deterministic.
        assert_eq!(
            value.to_string(),
            r#"{"z":[1,null,false],"a":{"nested":2.5},"empty_array":[],"empty_object":{}}"#
        );
        assert_eq!(value.get("a").unwrap().get("nested").unwrap().as_f64(), Some(2.5));
        assert!(value.get("missing").is_none());
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let parsed =
            Json::parse(" { \"k\" : [ 1 , 2.5e1 , \"\\u00fc\\n\", \"\\ud83e\\udd80\" ] } ")
                .unwrap();
        assert_eq!(
            parsed.get("k").unwrap().as_array().unwrap(),
            &[Json::Int(1), Json::Float(25.0), Json::Str("ü\n".into()), Json::Str("🦀".into())]
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"open",
            "1 2",
            "[1] x",
            "{\"a\":1,}",
            "--1",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // A million levels, unterminated or closed: a typed error at the
        // first container past the cap.
        let levels = 1_000_000;
        for (open, close) in [("[", ""), ("[", "]"), ("{\"k\":", "}")] {
            let deep = format!("{}1{}", open.repeat(levels), close.repeat(levels));
            let err = Json::parse(&deep).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::TooDeep, "{open}");
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{open}");
        }
        // Exactly MAX_DEPTH levels still parse, mixing both containers.
        let text =
            format!("{}null{}", "[{\"k\":".repeat(MAX_DEPTH / 2), "}]".repeat(MAX_DEPTH / 2));
        assert!(Json::parse(&text).is_ok());
        let err = Json::parse(&format!("[{text}]")).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        // Other errors are syntax errors.
        assert_eq!(Json::parse("[1,").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
