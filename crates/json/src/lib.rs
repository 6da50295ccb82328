//! Dependency-free JSON support for REDS artifacts.
//!
//! The workspace persists discovered scenarios and machine-readable
//! benchmark reports (`BENCH_*.json`) as JSON. The build environment has
//! no crates.io access, so instead of `serde`/`serde_json` this crate
//! provides a small value model ([`Json`]), a compact and a pretty
//! writer, and a strict recursive-descent parser that runs in time
//! linear in the input. [`from_str_with_f64_array`] is the same parser
//! with one named number array read straight into a `Vec<f64>`, for
//! frames whose bulk is coordinates.
//!
//! Non-finite floats serialize as `null` (matching `serde_json`);
//! domain types that need lossless infinities (hyperbox bounds) encode
//! them explicitly — see `reds-subgroup`'s `HyperBox::to_json`.

#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(values.into_iter().collect())
    }

    /// Number value; non-finite maps to `Null`.
    pub fn num(v: f64) -> Self {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// String value.
    pub fn str(v: impl Into<String>) -> Self {
        Json::Str(v.into())
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `true` when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    let (k, v) = &pairs[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d)
                })
            }
        }
    }
}

/// Appends the compact JSON text of a number: what `Json::Num(v)`
/// serializes to (`null` for a non-finite `v`).
pub fn write_number(out: &mut String, v: f64) {
    // `fmt::Write` for `String` cannot fail.
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v == v.trunc() && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) {
        // Integral values print without a trailing ".0", like serde_json.
        // Negative zero takes the float path so its sign survives.
        write!(out, "{}", v as i64)
    } else if v != 0.0 && !(1e-5..1e16).contains(&v.abs()) {
        // Extreme magnitudes: `Display` is shortest-round-trip but always
        // positional, so 1e-300 would print as "0.000…001" with 300
        // digits. `LowerExp` keeps the same exactness guarantee in
        // JSON-valid scientific notation ("1e-300").
        write!(out, "{v:e}")
    } else {
        write!(out, "{v}")
    };
}

/// Appends the JSON text of a string: what `Json::Str(s)` serializes
/// to.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so each unescaped run
    // between two of them starts and ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser accepts. The recursive-descent
/// parser uses one stack frame per open array/object, so without a cap
/// an adversarial `[[[[…` document overflows the stack; 128 levels is
/// far beyond any REDS artifact (which nest a handful deep) while
/// keeping the worst-case stack bounded.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// Documents nested deeper than [`MAX_DEPTH`] containers are rejected
/// with a parse error rather than overflowing the stack.
pub fn from_str(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    finish(bytes, &mut pos)?;
    Ok(value)
}

/// What [`from_str_with_f64_array`] read under its key.
#[derive(Debug, Clone, PartialEq)]
pub enum F64Array {
    /// Nothing was read: the document is not an object, the key is
    /// absent, or the key's first value is not an array (that value then
    /// stays in the returned document).
    NotRead,
    /// Every element was a number or a marker string, in order.
    Values(Vec<f64>),
    /// Element `index` was the first that is neither a number nor a
    /// marker string.
    BadElement(usize),
}

/// Parses a complete JSON document like [`from_str`], except that the
/// first value under `key` in a top-level object, when it is an array,
/// is read straight into a `Vec<f64>` instead of a [`Json::Arr`] of one
/// node per element. An element may be a number or a string that
/// `marker` maps to a float (such as `"inf"`). The returned document
/// holds every other member.
///
/// The grammar, the [`MAX_DEPTH`] limit and the errors are those of
/// [`from_str`] on the same input: a syntax error anywhere, including
/// inside the array after a bad element, is returned as the same
/// [`ParseError`], and a bad element is reported only once the whole
/// document has parsed. The first member under `key` wins, as with
/// [`Json::get`]; later ones are parsed and dropped.
pub fn from_str_with_f64_array(
    input: &str,
    key: &str,
    marker: impl Fn(&str) -> Option<f64>,
) -> Result<(Json, F64Array), ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Ok((from_str(input)?, F64Array::NotRead));
    }
    let mut pairs = Vec::new();
    let mut array = F64Array::NotRead;
    let mut seen = false;
    parse_object(bytes, &mut pos, 0, |name, pos, depth| {
        if name != key {
            pairs.push((name, parse_value(bytes, pos, depth)?));
        } else if seen {
            parse_value(bytes, pos, depth)?;
        } else {
            seen = true;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'[') {
                array = parse_f64_array(bytes, pos, depth, &marker)?;
            } else {
                pairs.push((name, parse_value(bytes, pos, depth)?));
            }
        }
        Ok(())
    })?;
    finish(bytes, &mut pos)?;
    Ok((Json::Obj(pairs), array))
}

fn err(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn finish(bytes: &[u8], pos: &mut usize) -> Result<(), ParseError> {
    skip_ws(bytes, pos);
    if *pos != bytes.len() {
        return Err(err(*pos, "trailing characters after document"));
    }
    Ok(())
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            let mut items = Vec::new();
            parse_array(bytes, pos, depth, |pos, depth| {
                items.push(parse_value(bytes, pos, depth)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut pairs = Vec::new();
            parse_object(bytes, pos, depth, |key, pos, depth| {
                pairs.push((key, parse_value(bytes, pos, depth)?));
                Ok(())
            })?;
            Ok(Json::Obj(pairs))
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

/// Steps over the `[` or `{` at `*pos` of a container at `depth`,
/// enforcing [`MAX_DEPTH`].
fn open(pos: &mut usize, depth: usize) -> Result<(), ParseError> {
    if depth >= MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    *pos += 1;
    Ok(())
}

/// Parses the array whose `[` is at `*pos`; `item` parses each element
/// at the depth it is handed.
fn parse_array(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut item: impl FnMut(&mut usize, usize) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    open(pos, depth)?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

/// Parses the object whose `{` is at `*pos`; `member` parses each
/// key's value at the depth it is handed.
fn parse_object(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut member: impl FnMut(String, &mut usize, usize) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    open(pos, depth)?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        member(key, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

/// The array branch of [`from_str_with_f64_array`]: each element takes
/// the branch `parse_value` would take for its first byte, so errors
/// and depth accounting match, but numbers and marker strings become
/// floats instead of nodes.
fn parse_f64_array(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    marker: &impl Fn(&str) -> Option<f64>,
) -> Result<F64Array, ParseError> {
    // Grows with the elements actually parsed, so its size is bounded
    // by the input's length, never by a count the input claims.
    let mut values = Vec::new();
    let mut bad = None;
    parse_array(bytes, pos, depth, |pos, depth| {
        skip_ws(bytes, pos);
        let value = match bytes.get(*pos) {
            Some(b'"') => marker(&parse_string(bytes, pos)?),
            None | Some(b'n' | b't' | b'f' | b'[' | b'{') => {
                parse_value(bytes, pos, depth)?;
                None
            }
            Some(_) => Some(parse_number(bytes, pos)?),
        };
        match value {
            Some(v) if bad.is_none() => values.push(v),
            Some(_) => {}
            None => {
                bad.get_or_insert(values.len());
            }
        }
        Ok(())
    })?;
    Ok(match bad {
        Some(index) => F64Array::BadElement(index),
        None => F64Array::Values(values),
    })
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: JSON encodes non-BMP
                            // characters as a \uXXXX\uXXXX pair.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos, "unpaired high surrogate"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(combined)
                                    .ok_or_else(|| err(*pos, "invalid unicode scalar"))?,
                            );
                        } else {
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err(*pos, "invalid unicode scalar"))?,
                            );
                        }
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run ends on a char boundary and
                // validating it costs only its own length.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|e| err(start + e.valid_up_to(), "invalid UTF-8"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, ParseError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| err(at, "invalid \\u escape"))?,
        16,
    )
    .map_err(|_| err(at, "invalid \\u escape"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    // Strict RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // (Rust's f64 parser is laxer — it accepts "+5", ".5", "1." — so
    // the shape is validated here before delegating the conversion.)
    fn digits(bytes: &[u8], pos: &mut usize) -> usize {
        let from = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos - from
    }
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(bytes, pos);
        }
        _ => return Err(err(start, "invalid number")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(bytes, pos) == 0 {
            return Err(err(start, "invalid number: missing fraction digits"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(bytes, pos) == 0 {
            return Err(err(start, "invalid number: missing exponent digits"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    text.parse::<f64>()
        .map_err(|_| err(start, format!("invalid number '{text}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::str("reds")),
            ("pi", Json::num(3.25)),
            ("count", Json::num(42.0)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "rows",
                Json::arr([Json::num(1.0), Json::num(2.5), Json::str("a\"b\\c\n")]),
            ),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(from_str(&text).expect("parses"), doc, "text: {text}");
        }
    }

    #[test]
    fn integral_numbers_have_no_decimal_point() {
        assert_eq!(Json::num(42.0).to_string_compact(), "42");
        assert_eq!(Json::num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::num(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        assert_eq!(Json::Num(-0.0).to_string_compact(), "-0");
        let back = from_str("-0").unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative());
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn floats_round_trip_exactly() {
        // Adversarial values: extreme magnitudes, the integer-precision
        // boundary 2^53 ± 1 (2^53 + 1 rounds to 2^53 as f64), negative
        // zero, subnormals, and accumulated-error decimals.
        let two53 = (1u64 << 53) as f64;
        for v in [
            1e-300,
            -1e-300,
            two53 - 1.0,
            two53,
            two53 + 1.0,
            -0.0,
            0.1 + 0.2,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            1e16,
            -1.7e308,
            std::f64::consts::PI,
        ] {
            let text = Json::Num(v).to_string_compact();
            let back = from_str(&text)
                .unwrap_or_else(|e| panic!("reparse of {text}: {e}"))
                .as_f64()
                .expect("numeric");
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "value {v:e} serialized as {text} round-tripped to {back:e}"
            );
        }
    }

    #[test]
    fn extreme_floats_serialize_compactly() {
        // The positional form of 1e-300 would be 300+ characters; the
        // writer must use scientific notation instead.
        assert_eq!(Json::Num(1e-300).to_string_compact(), "1e-300");
        assert_eq!(Json::Num(5e-324).to_string_compact(), "5e-324");
        assert!(Json::Num(f64::MAX).to_string_compact().len() < 30);
        // … but ordinary magnitudes keep the familiar positional form.
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(1234.25).to_string_compact(), "1234.25");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = from_str(r#"{"a": [1, 2], "b": {"c": true}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_bool(),
            Some(true)
        );
        assert!(doc.get("z").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "nul",
            "+5",
            ".5",
            "1.",
            "01",
            "1e",
            "5.e3",
            "-",
        ] {
            assert!(from_str(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn adversarially_deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // Before the MAX_DEPTH check, each of these ~10k-deep documents
        // crashed the process with a stack overflow.
        let deep_arrays = "[".repeat(10_000);
        let deep_closed = format!("{}0{}", "[".repeat(10_000), "]".repeat(10_000));
        let deep_objects = "{\"a\":".repeat(10_000);
        for bad in [deep_arrays, deep_closed, deep_objects] {
            let e = from_str(&bad).expect_err("deep nesting must be rejected");
            assert!(e.message.contains("nesting"), "message: {}", e.message);
        }
        // Mixed array/object nesting counts combined depth.
        let mixed = "[{\"a\":".repeat(5_000);
        assert!(from_str(&mixed).is_err());
    }

    #[test]
    fn nesting_below_the_limit_still_parses() {
        let depth = MAX_DEPTH - 1;
        let doc = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let parsed = from_str(&doc).expect("within-limit nesting parses");
        let mut v = &parsed;
        let mut seen = 0usize;
        while let Json::Arr(items) = v {
            v = &items[0];
            seen += 1;
        }
        assert_eq!(seen, depth);
        assert_eq!(v.as_f64(), Some(0.0));
        // One past the limit fails.
        let doc = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str(&doc).is_err());
    }

    #[test]
    fn parses_surrogate_pairs_and_rejects_lone_surrogates() {
        // The standard JSON encoding of a non-BMP character (here 😀).
        let doc = from_str(r#""\ud83d\ude00""#).expect("surrogate pair parses");
        assert_eq!(doc.as_str(), Some("\u{1F600}"));
        assert!(from_str(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(from_str(r#""\ud83dA""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn parses_scientific_notation_and_escapes() {
        let doc = from_str(r#"[1e3, -2.5E-2, "A\t"]"#).unwrap();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1000.0));
        assert!((arr[1].as_f64().unwrap() + 0.025).abs() < 1e-15);
        assert_eq!(arr[2].as_str(), Some("A\t"));
    }

    /// The writer before it wrote through `fmt::Write`: one `format!`
    /// per number and per control-character escape. The current writer
    /// must produce the same bytes.
    fn reference_text(v: &Json) -> String {
        match v {
            Json::Num(v) if !v.is_finite() => "null".to_string(),
            Json::Num(v)
                if *v == v.trunc() && v.abs() < 1e15 && !(*v == 0.0 && v.is_sign_negative()) =>
            {
                format!("{}", *v as i64)
            }
            Json::Num(v) if *v != 0.0 && !(1e-5..1e16).contains(&v.abs()) => format!("{v:e}"),
            Json::Num(v) => format!("{v}"),
            Json::Str(s) => {
                let mut out = String::from("\"");
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
            other => unreachable!("scalar only: {other:?}"),
        }
    }

    #[test]
    fn writer_output_is_unchanged_for_numbers_and_strings() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let two53 = (1u64 << 53) as f64;
        let mut numbers = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e-5,
            9.99e-6,
            1e15,
            1e15 - 1.0,
            1e16,
            1e16 - 2.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            5e-324,
            1e-300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.1 + 0.2,
        ];
        for _ in 0..20_000 {
            numbers.push(f64::from_bits(next()));
            numbers.push((next() % 2_000_000) as f64 / 1024.0 - 1000.0);
        }
        for v in numbers {
            let node = Json::Num(v);
            let mut direct = String::new();
            write_number(&mut direct, v);
            assert_eq!(direct, reference_text(&node), "bits {:#x}", v.to_bits());
            assert_eq!(node.to_string_compact(), direct);
        }
        let mut strings: Vec<String> = (0u32..0x80)
            .filter_map(char::from_u32)
            .map(|c| format!("a{c}b{c}"))
            .collect();
        strings.extend(
            [
                "",
                "plain",
                "é\u{1F600}\"\\\n\u{0}\u{1f}\u{7f}ü",
                "\u{10FFFF}\t",
            ]
            .map(String::from),
        );
        for s in strings {
            let node = Json::Str(s.clone());
            assert_eq!(node.to_string_compact(), reference_text(&node), "{s:?}");
            assert_eq!(from_str(&node.to_string_compact()).unwrap(), node);
        }
    }

    #[test]
    fn string_parsing_is_linear_in_the_document_length() {
        // 100k short strings, about 1 MB. A parser that re-validates the
        // rest of the document for every character needs hours here.
        let items: Vec<Json> = (0..100_000)
            .map(|i| Json::str(format!("k{i}-ab")))
            .collect();
        let doc = Json::Arr(items);
        let text = doc.to_string_compact();
        assert!(text.len() > 1_000_000, "{}", text.len());
        assert_eq!(from_str(&text).unwrap(), doc);
        // Multi-byte UTF-8, every escape, surrogate pairs, and runs that
        // end right at an escape or the closing quote.
        let tricky = [
            "ünïcødé ✓ 中文 \u{1F600}\u{10FFFF}",
            "\"\\/\u{8}\u{c}\n\r\t\u{0}\u{1}\u{1f}",
            "é\\",
            "\\é",
            "\u{1F600}\"",
            "",
            "x",
        ];
        for s in tricky {
            let node = Json::str(s);
            assert_eq!(from_str(&node.to_string_compact()).unwrap(), node, "{s:?}");
        }
        let escaped = r#"["é😀\/\b\f", "a\u0000b", "😀z"]"#;
        assert_eq!(
            from_str(escaped).unwrap(),
            Json::arr([
                Json::str("é\u{1F600}/\u{8}\u{c}"),
                Json::str("a\u{0}b"),
                Json::str("\u{1F600}z"),
            ])
        );
    }

    fn marker(s: &str) -> Option<f64> {
        match s {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        }
    }

    #[test]
    fn f64_array_entry_reads_the_named_array_and_keeps_the_rest() {
        let text = r#" {"id":3, "xs" : [1, -0.5e1 ,"inf","-inf",1e-300], "m":{"k":[true]}} "#;
        let (doc, xs) = from_str_with_f64_array(text, "xs", marker).unwrap();
        assert_eq!(
            doc,
            from_str(r#"{"id":3,"m":{"k":[true]}}"#).unwrap(),
            "the array is taken out, every other member stays"
        );
        assert_eq!(
            xs,
            F64Array::Values(vec![1.0, -5.0, f64::INFINITY, f64::NEG_INFINITY, 1e-300])
        );
        let (_, xs) = from_str_with_f64_array(r#"{"xs":[]}"#, "xs", marker).unwrap();
        assert_eq!(xs, F64Array::Values(vec![]));
        let (_, xs) = from_str_with_f64_array(r#"{"xs":["nan"]}"#, "xs", marker).unwrap();
        assert!(matches!(xs, F64Array::Values(v) if v.len() == 1 && v[0].is_nan()));
    }

    #[test]
    fn f64_array_entry_reports_the_first_bad_element() {
        for (text, index) in [
            (r#"{"xs":[1,null,"x"]}"#, 1),
            (r#"{"xs":["x",2]}"#, 0),
            (r#"{"xs":[1,2,[3]]}"#, 2),
            (r#"{"xs":[1,{"a":1},true]}"#, 1),
        ] {
            let (_, xs) = from_str_with_f64_array(text, "xs", marker).unwrap();
            assert_eq!(xs, F64Array::BadElement(index), "{text}");
        }
    }

    #[test]
    fn f64_array_entry_leaves_other_shapes_in_the_document() {
        for text in [
            r#"{"ys":[1]}"#,
            r#"{"xs":"zzz"}"#,
            r#"{"xs":{"a":[1]}}"#,
            r#"[{"xs":[1]}]"#,
            r#""xs""#,
            "7",
            r#"{"a":{"xs":[1]}}"#,
        ] {
            let (doc, xs) = from_str_with_f64_array(text, "xs", marker).unwrap();
            assert_eq!(xs, F64Array::NotRead, "{text}");
            assert_eq!(doc, from_str(text).unwrap(), "{text}");
        }
    }

    #[test]
    fn f64_array_entry_takes_the_first_of_duplicate_keys() {
        let (doc, xs) =
            from_str_with_f64_array(r#"{"xs":[1],"a":2,"xs":[2,3],"xs":"no"}"#, "xs", marker)
                .unwrap();
        assert_eq!(xs, F64Array::Values(vec![1.0]));
        assert_eq!(doc, from_str(r#"{"a":2}"#).unwrap());
        // A first value that is not an array wins over a later array.
        let text = r#"{"xs":null,"xs":[1]}"#;
        let (doc, xs) = from_str_with_f64_array(text, "xs", marker).unwrap();
        assert_eq!(xs, F64Array::NotRead);
        assert_eq!(doc.get("xs"), from_str(text).unwrap().get("xs"));
        // Later duplicates must still be valid JSON.
        let text = r#"{"xs":[1],"xs":[1,}"#;
        assert_eq!(
            from_str_with_f64_array(text, "xs", marker).unwrap_err(),
            from_str(text).unwrap_err()
        );
    }

    #[test]
    fn f64_array_entry_fails_exactly_where_from_str_fails() {
        let deep = format!(
            r#"{{"xs":[1,{}0{}]}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        let just_fits = format!(
            r#"{{"xs":[1,{}0{}]}}"#,
            "[".repeat(MAX_DEPTH - 3),
            "]".repeat(MAX_DEPTH - 3)
        );
        assert!(from_str(&just_fits).is_ok());
        let (_, xs) = from_str_with_f64_array(&just_fits, "xs", marker).unwrap();
        assert_eq!(xs, F64Array::BadElement(1));
        let base = r#"{"id":1,"xs":[0.25,"inf",-3e2,"nan"],"m":2,"s":"é\n"}"#;
        let mut bad: Vec<String> = vec![
            deep,
            // A syntax error after a bad element beats the bad element.
            r#"{"xs":[null,1 2]}"#.to_string(),
            r#"{"xs":["x",01]}"#.to_string(),
            r#"{"xs":[1,"x"]} x"#.to_string(),
            r#"{"xs":[1,+5]}"#.to_string(),
            r#"{"xs":[1,nul]}"#.to_string(),
            r#"{"xs":[1,"\q"]}"#.to_string(),
            r#"{"xs":[1,]}"#.to_string(),
            r#"{"xs":[1"#.to_string(),
        ];
        bad.extend(
            (0..base.len())
                .filter(|&n| base.is_char_boundary(n))
                .map(|n| base[..n].to_string()),
        );
        for text in bad {
            let expected = from_str(&text).unwrap_err();
            let got = from_str_with_f64_array(&text, "xs", marker).unwrap_err();
            assert_eq!(got, expected, "{text}");
        }
    }
}
