//! Minimal JSON support for the SAC wire protocol.
//!
//! The build environment has no network access, so `serde`/`serde_json` are
//! unavailable; this module implements the small subset the protocol needs.
//!
//! * **Decoding**: a recursive-descent parser into a [`Json`] tree, with
//!   accessors.  Numbers are `f64` (ids and vertex ids in this protocol stay
//!   far below 2^53, where `f64` is exact).  Arrays and objects may nest at
//!   most [`MAX_DEPTH`] deep, so hostile input (a body of 100k `[`) is a
//!   [`JsonError`], not a stack overflow.  The parser serves HTTP bodies,
//!   LDJSON lines and the replication handshake alike.
//! * **Encoding**: [`Json::write_to`] appends compact text to a caller's
//!   `String`, and the crate-private `ObjectWriter` writes an object field
//!   by field into the same kind of buffer, so a reply can emit its member
//!   list straight from a `&[u32]` instead of one [`Json`] node per member.  A number that
//!   is a finite integer with magnitude below 2^53, other than `-0`, goes
//!   through a digit-pair integer writer; every other finite number prints
//!   through `f64`'s `Display` (which gives those integers the same digits),
//!   and non-finite numbers print as `null`.  `Display for Json` is the same
//!   writer.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Failure description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Strict upper bound: `u64::MAX as f64` rounds *up* to 2^64, so
            // `<=` would accept 2^64 and saturate on the cast.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Appends the compact JSON text of this value to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let mut object = ObjectWriter::new(out);
                for (key, value) in fields {
                    object.value(key, value);
                }
                object.finish();
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// Writes one JSON object field by field straight into a `String`, so a
/// reply can emit a bulk field (a member list) without building a [`Json`]
/// node per element.  The bytes equal those of the equivalent [`Json::Obj`].
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the separator and `"key":`; the caller appends the value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A field holding any JSON value.
    pub fn value(&mut self, key: &str, value: &Json) {
        value.write_to(self.key(key));
    }

    /// A number field, printed exactly as `Json::Num(n)` would be.
    pub fn num(&mut self, key: &str, n: f64) {
        write_num(self.key(key), n);
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    /// A string field.
    pub fn str(&mut self, key: &str, s: &str) {
        write_escaped(self.key(key), s);
    }

    /// An array-of-integers field written straight from the slice: the same
    /// bytes as a `Json::Arr` of `Json::Num(v as f64)`, since every `u32` is
    /// exact in `f64`.
    pub fn u32s(&mut self, key: &str, items: &[u32]) {
        write_u32_list(self.key(key), items);
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// 2^53: below it every integer is exact in `f64`.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Appends a number.  Finite integers below 2^53 in magnitude (other than
/// `-0`) take the integer writer; anything else prints through `f64`'s
/// `Display`, which for those integers yields the same digits.  JSON has no
/// Infinity/NaN, so non-finite values become `null`, like serde_json's lossy
/// modes, rather than invalid output.
fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < EXACT_INTEGER_LIMIT && !(n == 0.0 && n.is_sign_negative()) {
        if n < 0.0 {
            out.push('-');
        }
        write_u64(out, n.abs() as u64);
    } else if n.is_finite() {
        write!(out, "{n}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// `"00" "01" ... "99"`: two digits per division by 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends the decimal digits of `n`.
fn write_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let len = decimal_len(n);
    put_digits(n, &mut buf[..len]);
    out.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII digits"));
}

/// Appends `[a,b,...]`.  The text is staged in a stack buffer and appended a
/// chunk at a time, so each member costs a few stores rather than a checked
/// `String` append.
fn write_u32_list(out: &mut String, items: &[u32]) {
    const CHUNK: usize = 1024;
    let mut chunk = [0u8; CHUNK];
    chunk[0] = b'[';
    let mut len = 1;
    for (i, &item) in items.iter().enumerate() {
        // A separator and ten digits always fit after a flush.
        if len + 11 > CHUNK {
            out.push_str(std::str::from_utf8(&chunk[..len]).expect("ASCII digits"));
            len = 0;
        }
        if i > 0 {
            chunk[len] = b',';
            len += 1;
        }
        let n = u64::from(item);
        let end = len + decimal_len(n);
        put_digits(n, &mut chunk[len..end]);
        len = end;
    }
    out.push_str(std::str::from_utf8(&chunk[..len]).expect("ASCII digits"));
    out.push(']');
}

/// Number of decimal digits of `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Fills `buf`, which is `decimal_len(n)` bytes long, with the digits of
/// `n`, two per division from the right.
fn put_digits(mut n: u64, buf: &mut [u8]) {
    let mut pos = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        buf[pos] = DIGIT_PAIRS[pair];
        buf[pos + 1] = DIGIT_PAIRS[pair + 1];
    }
    if n >= 10 {
        let pair = n as usize * 2;
        buf[pos - 2] = DIGIT_PAIRS[pair];
        buf[pos - 1] = DIGIT_PAIRS[pair + 1];
    } else {
        buf[pos - 1] = b'0' + n as u8;
    }
}

/// Appends `s` as a JSON string literal: `"` and `\\` escaped, `\n` `\r`
/// `\t` by name, other control characters as `\u00xx`; everything else,
/// non-ASCII included, verbatim.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Only ASCII bytes are escaped, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// How many arrays and objects may enclose one another.  Protocol documents
/// nest at most three levels; the cap keeps the recursive descent (and the
/// recursive drop of the tree it builds) far from the end of a thread's
/// stack on hostile input such as a body of 100k `[`.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
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
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
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
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] of them at once.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this protocol;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always at a character boundary).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let value = self.value()?;
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
}

/// Convenience constructor for object values.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_and_reserialises_round_trip() {
        let text = r#"{"id":3,"q":17,"k":2,"ratio":1.5,"tier":"batch","theta":null,"flags":[true,false],"nested":{"a":-2.5e3}}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("ratio").unwrap().as_f64(), Some(1.5));
        assert_eq!(value.get("tier").unwrap().as_str(), Some("batch"));
        assert!(value.get("theta").unwrap().is_null());
        assert_eq!(value.get("flags").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            value.get("nested").unwrap().get("a").unwrap().as_f64(),
            Some(-2500.0)
        );
        let round = Json::parse(&value.to_string()).unwrap();
        assert_eq!(round, value);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let value = Json::parse(r#"["a\"b\\c\nd\u0041", "π"]"#).unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(items[1].as_str(), Some("π"));
        let round = Json::parse(&value.to_string()).unwrap();
        assert_eq!(round, value);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} extra",
            "[1 2]",
            "nul",
        ] {
            assert!(
                Json::parse(bad).is_err(),
                "accepted malformed input: {bad:?}"
            );
        }
    }

    #[test]
    fn integers_and_floats_are_distinguished_by_accessors() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
        // 2^64 parses as a float but is out of u64 range: must not saturate.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
        assert_eq!(Json::parse("true").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn serialiser_escapes_control_characters() {
        let s = Json::Str("line1\nline2\t\"quoted\"\u{1}".to_string()).to_string();
        assert_eq!(s, "\"line1\\nline2\\t\\\"quoted\\\"\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(obj(vec![("k", Json::Num(2.0))]).to_string(), "{\"k\":2}");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count too, mixed with arrays.
        let mixed = format!("{}1{}", r#"{"a":["#.repeat(64), "]}".repeat(64));
        assert!(Json::parse(&mixed).is_ok());
        let deeper = format!("[{mixed}]");
        assert!(Json::parse(&deeper).is_err());
        // A hostile unterminated prefix fails at the cap, not on the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    /// Text as `write_to` produces it.
    fn written(value: &Json) -> String {
        let mut out = String::new();
        value.write_to(&mut out);
        out
    }

    /// The formatter `write_to` replaced, kept as the oracle its bytes must
    /// match: `Display` of `f64` for finite numbers, `null` otherwise, and
    /// one `write!` per escaped character.
    fn oracle(value: &Json) -> String {
        match value {
            Json::Null => "null".to_string(),
            Json::Bool(b) => format!("{b}"),
            Json::Num(n) if n.is_finite() => format!("{n}"),
            Json::Num(_) => "null".to_string(),
            Json::Str(s) => oracle_escaped(s),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(oracle).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", oracle_escaped(k), oracle(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    fn oracle_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn assert_num_as_before(n: f64) -> Result<(), TestCaseError> {
        prop_assert_eq!(written(&Json::Num(n)), oracle(&Json::Num(n)), "{:?}", n);
        Ok(())
    }

    #[test]
    fn boundary_numbers_print_as_before() {
        let exact = 9_007_199_254_740_992.0_f64; // 2^53
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            99.0,
            100.0,
            u32::MAX as f64,
            exact - 1.0,
            exact,
            exact + 2.0, // 2^53 + 1 rounds to 2^53 or 2^53 + 2
            -(exact - 1.0),
            -exact,
            1e15,
            1e16,
            1e17,
            u64::MAX as f64,
            1e300,
            0.5,
            -0.5,
            1.25,
            0.1,
            -2.5e-7,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_num_as_before(n).unwrap();
        }
        assert_eq!(written(&Json::Num(-0.0)), "-0");
        assert_eq!(written(&Json::Num(f64::NEG_INFINITY)), "null");
    }

    /// A deterministic random tree of depth at most `depth`, drawn from
    /// `state` (xorshift64), with finite numbers only so it round-trips.
    fn random_tree(state: &mut u64, depth: usize) -> Json {
        let mut next = || {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        };
        let pick = next() % if depth == 0 { 4 } else { 6 };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(next() % 2 == 0),
            2 => {
                let bits = next();
                Json::Num(match bits % 4 {
                    0 => (bits >> 11) as f64,
                    1 => -((bits >> 20) as f64),
                    2 => f64::from_bits(bits >> 2) * if bits % 8 == 2 { 1.0 } else { -1.0 },
                    _ => (bits >> 12) as f64 / 1024.0,
                })
            }
            3 => Json::Str(random_string(next())),
            4 => {
                let len = (next() % 5) as usize;
                Json::Arr((0..len).map(|_| random_tree(state, depth - 1)).collect())
            }
            _ => {
                let len = (next() % 5) as usize;
                Json::Obj(
                    (0..len)
                        .map(|i| (random_string(i as u64), random_tree(state, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    /// Printable ASCII, the escaped characters, other control characters and
    /// multi-byte scalars, chosen by the bits of `seed`.
    fn random_string(mut seed: u64) -> String {
        const ALPHABET: [char; 16] = [
            'a',
            'Z',
            '7',
            ' ',
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{1}',
            '\u{1f}',
            '\u{7f}',
            'π',
            '\u{2028}',
            '\u{1f600}',
            '/',
        ];
        let len = (seed % 9) as usize;
        seed /= 9;
        (0..len)
            .map(|_| {
                let c = ALPHABET[(seed % 16) as usize];
                seed = seed.rotate_right(4) ^ 0x9e37_79b9;
                c
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn integers_below_two_to_the_53_print_as_before(n in 0u64..(1u64 << 53)) {
            assert_num_as_before(n as f64)?;
        }

        #[test]
        fn negative_integers_print_as_before(n in 1i64..(1i64 << 53)) {
            assert_num_as_before(-(n as f64))?;
        }

        #[test]
        fn large_integers_print_as_before(n in 1_000_000_000_000_000u64..100_000_000_000_000_000u64) {
            assert_num_as_before(n as f64)?;
        }

        #[test]
        fn fractions_print_as_before(x in -1.0e9f64..1.0e9f64) {
            assert_num_as_before(x)?;
            assert_num_as_before(x / 1e12)?;
        }

        #[test]
        fn any_bit_pattern_prints_as_before(bits in 0u64..u64::MAX) {
            // Every sign, exponent and mantissa: subnormals, NaNs, infinities.
            assert_num_as_before(f64::from_bits(bits))?;
            assert_num_as_before(f64::from_bits(bits & 0x800f_ffff_ffff_ffff))?;
        }

        #[test]
        fn trees_print_as_before_and_round_trip(seed in 1u64..u64::MAX) {
            let mut state = seed;
            let tree = random_tree(&mut state, 4);
            let text = written(&tree);
            prop_assert_eq!(&text, &oracle(&tree));
            prop_assert_eq!(Json::parse(&text).unwrap(), tree);
        }

        #[test]
        fn member_lists_print_as_their_trees(
            members in proptest::collection::vec(0u32..=u32::MAX, 0..1500),
            key in 0u64..u64::MAX,
        ) {
            // Long lists span several of the writer's 1 KiB staging chunks.
            let key = random_string(key);
            let mut out = String::new();
            let mut object = ObjectWriter::new(&mut out);
            object.u32s(&key, &members);
            object.finish();
            let tree = Json::Obj(vec![(
                key,
                Json::Arr(members.iter().map(|&v| Json::Num(f64::from(v))).collect()),
            )]);
            prop_assert_eq!(out, oracle(&tree));
        }

        #[test]
        fn strings_escape_as_before(seed in 0u64..u64::MAX) {
            let s = random_string(seed);
            prop_assert_eq!(written(&Json::Str(s.clone())), oracle_escaped(&s));
        }
    }
}
