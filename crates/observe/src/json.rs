//! The one flat-JSON format of the workspace: every JSON line or file it
//! writes or reads — trace lines, ECO edit scripts, counter snapshots and
//! the benchmark snapshots — goes through this [`Writer`] and this scanner.
//!
//! The writer keeps one spacing, `{"k": v, "k2": v2}`; a block container
//! puts each entry on its own line, two spaces deeper than its brackets.
//! Strings are escaped, integers and `bool`s written with `Display` and
//! `f64` with `{:?}`; [`Raw`] and [`Fixed`] take numbers the caller formats.
//! The scanner reads flat objects — string, number, `true`/`false` and
//! `null` values, any whitespace between tokens — and keeps every value but
//! a string as written until a reader asks for a type. It accepts only
//! JSON: no comma before a closing bracket, numbers in JSON's grammar (no
//! `+` sign, no leading zero, digits on both sides of a point), no raw
//! control character inside a string, and no key twice in one object.
//!
//! ```
//! use qbp_observe::json::{parse_object, Scalar, Writer};
//!
//! let line = Writer::object().field("name", "a\"b").field("size", 3u64).finish();
//! assert_eq!(line, r#"{"name": "a\"b", "size": 3}"#);
//! let fields = parse_object(&line).unwrap();
//! assert_eq!(fields.get("name"), Some(&Scalar::Str("a\"b".into())));
//! assert_eq!(fields.get("size").and_then(Scalar::parse::<u64>), Some(3));
//! ```

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

const INFALLIBLE: &str = "writing to a String cannot fail";

/// A value the [`Writer`] can put in an object or array.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                write!(out, "{self}").expect(INFALLIBLE);
            }
        }
    )+};
}

display_json!(bool, u64, usize, i64);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write!(out, "{self:?}").expect(INFALLIBLE);
    }
}

/// A JSON string: `"` and `\` take a backslash, control characters an
/// escape.
impl ToJson for &str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect(INFALLIBLE),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// `null` when absent.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// JSON text the caller has formatted, written through its `Display`: a
/// number in its own format, or a finished object or array.
#[derive(Debug, Clone, Copy)]
pub struct Raw<T>(pub T);

impl<T: Display> ToJson for Raw<T> {
    fn write_json(&self, out: &mut String) {
        write!(out, "{}", self.0).expect(INFALLIBLE);
    }
}

/// A number with a fixed count of decimals: `Fixed(x, 6)` writes `{x:.6}`,
/// or `null` when `x` is not finite (JSON has no infinities or NaN).
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            write!(out, "{:.*}", self.1, self.0).expect(INFALLIBLE);
        } else {
            out.push_str("null");
        }
    }
}

/// One JSON object or array under construction, entries in call order. A
/// `Writer` is itself a value, so containers nest.
#[derive(Debug, Clone)]
pub struct Writer {
    out: String,
    close: char,
    block: bool,
    empty: bool,
}

impl Writer {
    fn new(open: char, close: char, block: bool) -> Writer {
        let out = open.to_string();
        Writer {
            out,
            close,
            block,
            empty: true,
        }
    }

    /// An object on one line: `{"k": v, "k2": v2}`.
    pub fn object() -> Writer {
        Writer::new('{', '}', false)
    }

    /// An object with one field per line.
    pub fn block_object() -> Writer {
        Writer::new('{', '}', true)
    }

    /// An array on one line: `[a, b]`.
    pub fn array() -> Writer {
        Writer::new('[', ']', false)
    }

    /// An array with one item per line.
    pub fn block_array() -> Writer {
        Writer::new('[', ']', true)
    }

    /// Appends `"key": value` to an object.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Writer {
        self.separate();
        key.write_json(&mut self.out);
        self.out.push_str(": ");
        self.put(value)
    }

    /// Appends `value` to an array.
    pub fn item(mut self, value: impl ToJson) -> Writer {
        self.separate();
        self.put(value)
    }

    fn separate(&mut self) {
        self.out.push_str(match (self.empty, self.block) {
            (true, false) => "",
            (true, true) => "\n  ",
            (false, false) => ", ",
            (false, true) => ",\n  ",
        });
        self.empty = false;
    }

    /// Writes `value`; inside a block, its own lines move two spaces in.
    fn put(mut self, value: impl ToJson) -> Writer {
        if self.block {
            let mut text = String::new();
            value.write_json(&mut text);
            self.out.push_str(&text.replace('\n', "\n  "));
        } else {
            value.write_json(&mut self.out);
        }
        self
    }

    /// Closes the container and returns its text.
    pub fn finish(mut self) -> String {
        if self.block && !self.empty {
            self.out.push('\n');
        }
        self.out.push(self.close);
        self.out
    }
}

impl ToJson for Writer {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.clone().finish());
    }
}

/// One value of a scanned flat object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar {
    /// A string, escapes decoded.
    Str(String),
    /// Any other value as written — `true`, `false`, `null`, or a JSON
    /// number — typed only by [`Scalar::parse`].
    Bare(String),
}

impl Scalar {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bare value as a `T`, if it parses as one: a number, or a `bool`.
    pub fn parse<T: FromStr>(&self) -> Option<T> {
        match self {
            Scalar::Bare(raw) => raw.parse().ok(),
            Scalar::Str(_) => None,
        }
    }
}

/// A scanned flat object: its `(key, value)` pairs in the order written,
/// each key once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fields(pub Vec<(String, Scalar)>);

impl Fields {
    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&Scalar> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Where a scan stopped, as a byte offset, and what it expected there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanError {
    /// Byte offset into the scanned text.
    pub at: usize,
    /// What the scanner expected at that offset.
    pub expected: &'static str,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

/// Scans one flat object that fills `text` (whitespace around it allowed).
///
/// # Errors
///
/// Returns the first place `text` departs from a flat object.
pub fn parse_object(text: &str) -> Result<Fields, ScanError> {
    let mut cursor = Cursor { text, at: 0 };
    let fields = cursor.object()?;
    cursor.skip_whitespace();
    match cursor.rest() {
        "" => Ok(fields),
        _ => Err(cursor.error("the end of the text")),
    }
}

/// Scans the flat objects of the array under the first `"key"` in `text`.
///
/// # Errors
///
/// Returns an error when `key` is missing, does not hold an array, or an
/// entry of its array is not a flat object.
pub fn objects_in_array(text: &str, key: &str) -> Result<Vec<Fields>, ScanError> {
    let quoted = format!("\"{key}\"");
    let at = text.find(&quoted).ok_or(ScanError {
        at: text.len(),
        expected: "the key",
    })?;
    let mut cursor = Cursor {
        text,
        at: at + quoted.len(),
    };
    cursor.expect(':', "`:`")?;
    cursor.expect('[', "`[`")?;
    let mut objects = Vec::new();
    if cursor.eat(']') {
        return Ok(objects);
    }
    loop {
        objects.push(cursor.object()?);
        if cursor.eat(']') {
            return Ok(objects);
        }
        cursor.expect(',', "`,` or `]`")?;
    }
}

/// The length of the JSON number `text` starts with —
/// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?` — or `None` when it
/// starts with none.
fn number_len(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let digits = |from: usize| {
        bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut at = usize::from(bytes.first() == Some(&b'-'));
    match digits(at) {
        0 => return None,
        n if n > 1 && bytes[at] == b'0' => return None,
        n => at += n,
    }
    if bytes.get(at) == Some(&b'.') {
        match digits(at + 1) {
            0 => return None,
            n => at += 1 + n,
        }
    }
    if matches!(bytes.get(at), Some(b'e' | b'E')) {
        at += 1;
        if matches!(bytes.get(at), Some(b'+' | b'-')) {
            at += 1;
        }
        match digits(at) {
            0 => return None,
            n => at += n,
        }
    }
    Some(at)
}

struct Cursor<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    fn error(&self, expected: &'static str) -> ScanError {
        ScanError {
            at: self.at,
            expected,
        }
    }

    fn skip_whitespace(&mut self) {
        self.at = self.text.len() - self.rest().trim_start().len();
    }

    /// Skips whitespace, then consumes `c` if it comes next.
    fn eat(&mut self, c: char) -> bool {
        self.skip_whitespace();
        let found = self.rest().starts_with(c);
        if found {
            self.at += c.len_utf8();
        }
        found
    }

    fn expect(&mut self, c: char, expected: &'static str) -> Result<(), ScanError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(expected))
        }
    }

    /// `{"k": v, ...}`, each key once.
    fn object(&mut self) -> Result<Fields, ScanError> {
        self.expect('{', "`{`")?;
        let mut fields: Vec<(String, Scalar)> = Vec::new();
        if self.eat('}') {
            return Ok(Fields(fields));
        }
        loop {
            self.expect('"', "a key")?;
            let at = self.at - 1;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(ScanError {
                    at,
                    expected: "a key not already in the object",
                });
            }
            self.expect(':', "`:`")?;
            fields.push((key, self.scalar()?));
            if !self.eat(',') {
                self.expect('}', "`,` or `}`")?;
                return Ok(Fields(fields));
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, ScanError> {
        if self.eat('"') {
            return self.string().map(Scalar::Str);
        }
        let rest = self.rest();
        let len = match ["true", "false", "null"]
            .iter()
            .find(|w| rest.starts_with(*w))
        {
            Some(word) => word.len(),
            None => number_len(rest)
                .ok_or_else(|| self.error("a string, number, `true`, `false` or `null`"))?,
        };
        self.at += len;
        Ok(Scalar::Bare(rest[..len].to_string()))
    }

    /// The rest of a string whose opening quote is consumed.
    fn string(&mut self) -> Result<String, ScanError> {
        let mut s = String::new();
        loop {
            let rest = self.rest();
            let Some(end) = rest.find(|c| c == '"' || c == '\\' || c < ' ') else {
                return Err(ScanError {
                    at: self.text.len(),
                    expected: "a closing `\"`",
                });
            };
            s.push_str(&rest[..end]);
            self.at += end;
            if rest[end..].starts_with(|c| c < ' ') {
                return Err(self.error("an escape, not a raw control character"));
            }
            self.at += 1;
            if rest[end..].starts_with('"') {
                return Ok(s);
            }
            let bad = self.error("a JSON escape");
            s.push(self.escape().ok_or(bad)?);
        }
    }

    /// The character an escape stands for; its backslash is consumed.
    fn escape(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.at += c.len_utf8();
        Some(match c {
            '"' | '\\' | '/' => c,
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let mut units = vec![self.hex4()?];
                // A high surrogate takes its low half from the next escape.
                if (0xD800..0xDC00).contains(&units[0]) && self.rest().starts_with("\\u") {
                    self.at += 2;
                    units.push(self.hex4()?);
                }
                char::decode_utf16(units).next()?.ok()?
            }
            _ => return None,
        })
    }

    /// Four hex digits, consumed.
    fn hex4(&mut self) -> Option<u16> {
        let digits = self.rest().get(..4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.at += 4;
        u16::from_str_radix(digits, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(raw: &str) -> Scalar {
        Scalar::Bare(raw.to_string())
    }

    #[test]
    fn writer_keeps_the_one_spacing_and_nests_blocks() {
        let inline = Writer::object()
            .field("t_ns", 17u64)
            .field("cost", -1843.25)
            .field("kind", "gap")
            .field("ok", true)
            .field("ram_mb", None::<u64>)
            .field("range", Writer::array().item(Fixed(0.5, 3)).item(Raw(1.0)))
            .field("gap", Fixed(f64::NEG_INFINITY, 3))
            .field("nan", Fixed(f64::NAN, 6))
            .finish();
        assert_eq!(
            inline,
            r#"{"t_ns": 17, "cost": -1843.25, "kind": "gap", "ok": true, "ram_mb": null, "range": [0.500, 1], "gap": null, "nan": null}"#
        );
        let rows = Writer::block_array()
            .item(Writer::object().field("n", 1u64))
            .item(Writer::block_object().field("n", 2u64));
        let block = Writer::block_object()
            .field("rows", rows)
            .field("empty", Writer::block_array())
            .finish();
        assert_eq!(
            block,
            "{\n  \"rows\": [\n    {\"n\": 1},\n    {\n      \"n\": 2\n    }\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(Writer::object().finish(), "{}");
    }

    #[test]
    fn strings_escape_and_decode() {
        for s in [
            "plain",
            "a\"b",
            "a\\b",
            "tab\there",
            "nl\nx",
            "\u{1}\u{1f}",
            "ünï €",
            "😀",
            "",
        ] {
            let line = Writer::object().field("k", s).finish();
            assert!(
                !line[1..line.len() - 1].chars().any(|c| c < ' '),
                "{line:?}"
            );
            let fields = parse_object(&line).unwrap();
            assert_eq!(
                fields.get("k").and_then(Scalar::as_str),
                Some(s),
                "{line:?}"
            );
        }
        let fields = parse_object(r#"{"k": "\/\b\f\r\u00e9\ud83d\ude00"}"#).unwrap();
        assert_eq!(
            fields.get("k").and_then(Scalar::as_str),
            Some("/\u{8}\u{c}\ré😀")
        );
    }

    #[test]
    fn scanner_reads_every_scalar() {
        let text = concat!(
            " {\"a\": \"x\",\n \"b\": -1.5e3, \"c\": false, \"d\": null,",
            " \"e\": 0, \"f\": 2.25E+1} "
        );
        let fields = parse_object(text).unwrap();
        assert_eq!(fields.0.len(), 6);
        assert_eq!(fields.get("a"), Some(&Scalar::Str("x".into())));
        assert_eq!(fields.get("e").and_then(Scalar::parse::<u64>), Some(0));
        assert_eq!(fields.get("f").and_then(Scalar::parse::<f64>), Some(22.5));
        assert_eq!(fields.get("b"), Some(&bare("-1.5e3")));
        assert_eq!(
            fields.get("b").and_then(Scalar::parse::<f64>),
            Some(-1500.0)
        );
        assert_eq!(fields.get("b").and_then(Scalar::parse::<i64>), None);
        assert_eq!(fields.get("c").and_then(Scalar::parse::<bool>), Some(false));
        assert_eq!(fields.get("c").and_then(Scalar::parse::<i64>), None);
        assert_eq!(fields.get("d"), Some(&bare("null")));
        assert_eq!(parse_object("{}").unwrap(), Fields::default());
    }

    #[test]
    fn scanner_locates_what_it_rejects() {
        for (text, at) in [
            ("", 0),
            ("not json", 0),
            ("{\"a\": 1} x", 9),
            ("{\"a\" 1}", 5),
            ("{\"a\": }", 6),
            ("{\"a\": 1 2}", 8),
            ("{\"a\": \"x}", 9),
            ("{\"a\": \"\\q\"}", 8),
            ("{\"a\": \"\\ud800\"}", 8),
            ("{\"a\": {\"b\": 1}}", 6),
            ("{,}", 1),
            ("{\"a\": 1", 7),
            // Not JSON: a comma before the brace, signs and number shapes
            // outside the grammar, raw control characters in a string, and
            // a repeated key (located at its opening quote).
            ("{\"a\": 1,}", 8),
            ("{\"a\": +2}", 6),
            ("{\"a\": -}", 6),
            ("{\"a\": 01}", 6),
            ("{\"a\": 1.}", 6),
            ("{\"a\": .5}", 6),
            ("{\"a\": 1e}", 6),
            ("{\"a\": \"x\ty\"}", 8),
            ("{\"a\": \"\r\"}", 7),
            ("{\"a\": \"\u{1}\"}", 7),
            ("{\"a\": 1, \"b\": 2, \"a\": 3}", 17),
        ] {
            let err = parse_object(text).expect_err(text);
            assert_eq!(err.at, at, "{text:?}: {err}");
        }
    }

    #[test]
    fn arrays_under_a_key_yield_their_flat_objects() {
        let text =
            "{\"points\": [\n  {\n    \"n\": 1\n  },\n  {\"n\": 2}\n],\n\"none\": [], \"note\": 1}";
        let objects = objects_in_array(text, "points").unwrap();
        let ns: Vec<Option<u64>> = objects
            .iter()
            .map(|o| o.get("n").and_then(Scalar::parse))
            .collect();
        assert_eq!(ns, [Some(1), Some(2)]);
        assert_eq!(objects_in_array(text, "none").unwrap(), []);
        assert!(objects_in_array(text, "note").is_err());
        assert!(objects_in_array("{\"points\": [{\"n\": [1]}]}", "points").is_err());
    }
}
