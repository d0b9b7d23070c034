//! Minimal JSON tree, parser and serializer — the subset of
//! `serde`/`serde_json` the workspace uses.
//!
//! JSON is a boundary format only: the binaries write results, run
//! manifests and traces with [`ToJson`], and the readers a binary runs
//! (`fare_report::parse_manifest`, `TraceLog::from_jsonl`) decode them
//! with [`FromJson`]. No crossbar, mapping, graph or model is serialised:
//! those never leave the process. The
//! [`json_struct!`](crate::json_struct) and [`json_enum!`](crate::json_enum)
//! macros generate both impls from a field/variant list;
//! [`json_struct_to!`](crate::json_struct_to) generates the writer alone.
//!
//! Encoding matches `serde_json`'s external conventions: structs are
//! objects, unit enum variants are strings, pairs are arrays,
//! `Option::None` is `null`. Non-finite floats (NaN/±inf — e.g. from
//! diverging faulty training) serialise to `null` instead of producing
//! invalid JSON, and `null` deserialises back to NaN.
//!
//! Numbers are kept as their exact decimal token, so `u64` seeds
//! round-trip losslessly and floats round-trip bit-exactly via Rust's
//! shortest-representation formatting.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its exact decimal token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse or decode error.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Builds an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent, like `serde_json`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                write_escaped(out, &fields[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                fields[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
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
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. Manifests and traces
/// nest a handful of levels; the bound only keeps hostile input from
/// overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError::new(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'n' => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b't' => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'f' => {
                if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// Parses an array or object one nesting level down. Past
    /// [`MAX_DEPTH`] levels it returns an error instead of recursing, so
    /// hostile input cannot overflow the stack.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    /// An array, from its opening `[`.
    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
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

    /// An object, from its opening `{`.
    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1;
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

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if tok.is_empty() || tok == "-" || tok.parse::<f64>().is_err() {
            return Err(self.err("invalid number"));
        }
        Ok(Json::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

/// Parses a JSON document into a [`Json`] tree.
///
/// Returns an error on malformed input and on arrays or objects nested
/// more than [`MAX_DEPTH`] levels deep.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------

/// Serialization into a [`Json`] tree (replaces `serde::Serialize`).
pub trait ToJson {
    /// The JSON encoding of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] tree (replaces `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Decodes a value, with a descriptive error on shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes `value` compactly (mirrors `serde_json::to_string`).
pub fn to_string<T: ToJson>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().to_compact())
}

/// Serializes `value` with indentation (mirrors
/// `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().to_pretty())
}

/// Parses and decodes in one step (mirrors `serde_json::from_str`).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Decodes field `name` of object `v` — the workhorse of
/// [`json_struct!`](crate::json_struct).
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    let inner = v
        .get(name)
        .ok_or_else(|| JsonError::new(format!("missing field `{name}`")))?;
    T::from_json(inner).map_err(|e| JsonError::new(format!("field `{name}`: {e}")))
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!("expected string, got {other}"))),
        }
    }
}

macro_rules! json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(self.to_string())
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(tok) => tok.parse::<$t>().map_err(|_| {
                        JsonError::new(format!(
                            "number {tok} out of range for {}",
                            stringify!($t)
                        ))
                    }),
                    other => Err(JsonError::new(format!(
                        "expected integer, got {other}"
                    ))),
                }
            }
        }
    )+};
}
json_int!(u64, usize);

macro_rules! json_float {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                if self.is_finite() {
                    // Rust's shortest round-trip formatting: parsing the
                    // token back as $t recovers the exact bits.
                    Json::Num(format!("{self}"))
                } else {
                    // NaN/±inf (diverging faulty training) → null, like
                    // serde_json, instead of emitting invalid JSON.
                    Json::Null
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(tok) => tok
                        .parse::<$t>()
                        .map_err(|_| JsonError::new(format!("invalid float {tok}"))),
                    // Inverse of the non-finite → null encoding.
                    Json::Null => Ok(<$t>::NAN),
                    other => Err(JsonError::new(format!("expected number, got {other}"))),
                }
            }
        }
    )+};
}
json_float!(f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::new(format!("expected array, got {other}"))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Pairs encode as two-element arrays (the `(workload, accuracy)` and
/// `(dataset, times)` rows of the figure results).
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

// ---------------------------------------------------------------------
// Impl-generating macros (the `#[derive(Serialize, Deserialize)]`
// replacements)
// ---------------------------------------------------------------------

/// Generates [`ToJson`](crate::json::ToJson) +
/// [`FromJson`](crate::json::FromJson) for a struct with named fields.
///
/// ```
/// struct Point { x: f64, y: f64 }
/// fare_rt::json_struct!(Point { x, y });
/// let p: Point = fare_rt::json::from_str(r#"{"x":1.5,"y":-2.0}"#).unwrap();
/// assert_eq!(p.x, 1.5);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::json_struct_to!($ty { $($field),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::field(v, stringify!($field))?),+
                })
            }
        }
    };
}

/// Serialize-only variant of [`json_struct!`](crate::json_struct), for
/// types a binary writes but nothing reads back.
#[macro_export]
macro_rules! json_struct_to {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

/// Generates both traits for an enum of **unit** variants, encoded as
/// `"VariantName"` (serde's external tagging).
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(Self::$variant =>
                        $crate::json::Json::Str(stringify!($variant).to_string())),+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $($crate::json::Json::Str(s) if s == stringify!($variant) =>
                        Ok(Self::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant: {other}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip_basic() {
        let text = r#"{"a":[1,2.5,-3],"b":null,"c":true,"d":"x\ny"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_compact(), text);
    }

    #[test]
    fn string_escaping() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{1F600}";
        let json = to_string(&nasty.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, nasty);
    }

    #[test]
    fn non_finite_floats_serialize_to_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f32::NEG_INFINITY).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-17] {
            let back: f64 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        for v in [0.1f32, 1.0 / 3.0f32, f32::MIN_POSITIVE, 3.4e38f32] {
            let back: f32 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn u64_round_trips_losslessly() {
        for v in [0u64, 42, u64::MAX, u64::MAX - 1, 1 << 53] {
            let back: u64 = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<u64>> = vec![Some(1), None, Some(3)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u64>>>(&json).unwrap(), v);
        assert_eq!(to_string(&(7u64, "x".to_string())).unwrap(), r#"[7,"x"]"#);
    }

    #[test]
    fn pretty_printing_shape() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num("1".into())),
            ("b".into(), Json::Arr(vec![Json::Bool(true)])),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}"
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(v, "A\u{1F600}");
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        let objects = |d: usize| format!("{}1{}", r#"{"a":"#.repeat(d), "}".repeat(d));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Unterminated hostile input of any depth is an error, not a
        // stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(200_000)).is_err());
        // The depth is per path, not per document.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[derive(Debug)]
    struct Point {
        x: f64,
        y: f64,
    }
    crate::json_struct!(Point { x, y });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    crate::json_enum!(Kind { Alpha, Beta });

    #[test]
    fn macros_generate_round_trips() {
        let p: Point = from_str(r#"{"x":1.5,"y":-2.0}"#).unwrap();
        assert_eq!((p.x, p.y), (1.5, -2.0));
        assert_eq!(to_string(&p).unwrap(), r#"{"x":1.5,"y":-2}"#);

        assert_eq!(to_string(&Kind::Beta).unwrap(), r#""Beta""#);
        assert_eq!(from_str::<Kind>(r#""Alpha""#).unwrap(), Kind::Alpha);
        assert!(from_str::<Kind>(r#""Gamma""#).is_err());
    }

    #[test]
    fn missing_field_error_names_field() {
        let err = from_str::<Point>(r#"{"x":1}"#).unwrap_err();
        assert!(err.to_string().contains("`y`"), "{err}");
    }
}
