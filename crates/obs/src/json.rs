//! A minimal, dependency-free JSON value type with an encoder and parser,
//! and the one codec every wire, persisted and telemetry type goes through.
//!
//! Only the subset the telemetry format needs: object key order is
//! preserved (objects are `Vec<(String, Json)>`), integers are `i64`, and
//! the parser accepts exactly what the encoder emits plus insignificant
//! whitespace.
//!
//! # The codec
//!
//! A type encodes through [`ToJson`] and decodes through [`FromJson`].
//! Both are implemented once for the primitives (`u64`, `usize`, `i64`,
//! `bool`, strings, [`Json`] itself, `Option<T>` as `null`, `Vec<T>` as an
//! array and `Vec<(String, T)>` as an object with its keys in order;
//! `f64` encodes only: nothing decodes floats). A struct declares its
//! fields once, in a [`json_codec!`](crate::json_codec) table that writes
//! both impls, so its encoder and decoder cannot disagree on a key.
//!
//! Every decoder reads a field by one rule, [`field_with`]: a field that
//! is missing or `null` takes its declared default, and without one it is
//! an error; a present field of the wrong JSON type, or out of range, is
//! an error. Every error names the field.

use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A (signed) integer. The telemetry format only emits integers.
    Int(i64),
    /// A floating-point number (accepted by the parser for completeness).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with preserved key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An integer value from a `usize` (saturating at `i64::MAX`).
    pub fn from_usize(v: usize) -> Json {
        v.to_json()
    }

    /// An integer value from a `u64` (saturating at `i64::MAX`).
    pub fn from_u64(v: u64) -> Json {
        v.to_json()
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => {
                let mut buf = String::new();
                fmt::Write::write_fmt(&mut buf, format_args!("{v}")).unwrap();
                out.push_str(&buf);
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let mut buf = String::new();
                    fmt::Write::write_fmt(&mut buf, format_args!("{v}")).unwrap();
                    // `{}` prints integral floats without a dot; keep the
                    // value recognizably floating-point.
                    if !buf.contains(['.', 'e', 'E']) {
                        buf.push_str(".0");
                    }
                    out.push_str(&buf);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
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

/// Parses a single JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by the encoder
                            // (it only escapes control characters).
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("bad \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a full UTF-8 scalar, not a byte.
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("bad integer"))
        }
    }
}

/// A value with a JSON encoding.
pub trait ToJson {
    /// The value's JSON encoding.
    fn to_json(&self) -> Json;
}

/// A value decoded from JSON.
pub trait FromJson: Sized {
    /// Decodes `json`.
    ///
    /// # Errors
    ///
    /// A description of what failed, naming the field (see
    /// [`field_with`]).
    fn from_json(json: &Json) -> Result<Self, String>;
}

fn mismatch(expected: &str, found: &Json) -> String {
    let found = match found {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Int(_) => "an integer",
        Json::Float(_) => "a float",
        Json::Str(_) => "a string",
        Json::Array(_) => "an array",
        Json::Object(_) => "an object",
    };
    format!("expected {expected}, found {found}")
}

/// The field rule: reads field `key` of the object `json` with `decode`.
///
/// * A field that is missing or `null` takes `default`; without one it is
///   an error.
/// * A present field of the wrong JSON type, or out of range, is an error.
///
/// Every error names the field: ``missing `key` `` or `` `key`: … ``.
///
/// # Errors
///
/// As above, and when `json` is not an object.
pub fn field_with<T>(
    json: &Json,
    key: &str,
    default: Option<T>,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    let Json::Object(fields) = json else {
        return Err(mismatch("an object", json));
    };
    match fields.iter().find(|(k, _)| k == key) {
        None | Some((_, Json::Null)) => default.ok_or_else(|| format!("missing `{key}`")),
        Some((_, value)) => decode(value).map_err(|e| format!("`{key}`: {e}")),
    }
}

/// [`field_with`] for a required field.
///
/// # Errors
///
/// See [`field_with`].
pub fn field<T: FromJson>(json: &Json, key: &str) -> Result<T, String> {
    field_with(json, key, None, T::from_json)
}

/// [`field_with`] for a field with a default.
///
/// # Errors
///
/// See [`field_with`].
pub fn field_or<T: FromJson>(json: &Json, key: &str, default: T) -> Result<T, String> {
    field_with(json, key, Some(default), T::from_json)
}

/// Reads a version tag: a required field that must equal `expected`.
///
/// # Errors
///
/// See [`field_with`]; another version is `` `key`: unsupported version N ``.
pub fn version<T: FromJson + PartialEq + fmt::Display>(
    json: &Json,
    key: &str,
    expected: T,
) -> Result<(), String> {
    match field::<T>(json, key)? {
        found if found == expected => Ok(()),
        found => Err(format!("`{key}`: unsupported version {found}")),
    }
}

/// Decodes an array item by item; an error names the failing index.
///
/// # Errors
///
/// When `json` is not an array or an item does not decode.
pub fn items<T>(json: &Json, item: impl Fn(&Json) -> Result<T, String>) -> Result<Vec<T>, String> {
    match json {
        Json::Array(values) => values
            .iter()
            .enumerate()
            .map(|(i, value)| item(value).map_err(|e| format!("[{i}]: {e}")))
            .collect(),
        other => Err(mismatch("an array", other)),
    }
}

/// An object of `fields` in order: how a hand-written encoder (an enum
/// that dispatches on a tag field) builds its JSON.
pub fn object(fields: &[(&str, &dyn ToJson)]) -> Json {
    Json::Object(
        fields
            .iter()
            .map(|(key, value)| ((*key).to_owned(), value.to_json()))
            .collect(),
    )
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i64::try_from(*self).unwrap_or(i64::MAX))
            }
        }

        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, String> {
                match json {
                    Json::Int(v) => <$t>::try_from(*v).map_err(|_| format!("{v} is out of range")),
                    other => Err(mismatch("an integer", other)),
                }
            }
        }
    )*};
}

unsigned!(u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl FromJson for i64 {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_int().ok_or_else(|| mismatch("an integer", json))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_bool().ok_or_else(|| mismatch("a boolean", json))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| mismatch("a string", json))
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(json.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, String> {
        items(json, T::from_json)
    }
}

/// Key-value pairs encode as an object with the keys in order: the
/// encoding of a map whose keys are data (the store's index, a benchmark
/// cell's counters).
impl<K: AsRef<str>, T: ToJson> ToJson for Vec<(K, T)> {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter()
                .map(|(key, value)| (key.as_ref().to_owned(), value.to_json()))
                .collect(),
        )
    }
}

impl<T: FromJson> FromJson for Vec<(String, T)> {
    fn from_json(json: &Json) -> Result<Self, String> {
        match json {
            Json::Object(fields) => fields
                .iter()
                .map(|(key, value)| {
                    T::from_json(value)
                        .map(|v| (key.clone(), v))
                        .map_err(|e| format!("`{key}`: {e}"))
                })
                .collect(),
            other => Err(mismatch("an object", other)),
        }
    }
}

/// Declares a type's JSON encoding once.
///
/// **A struct table** lists one row per field, in encoding order:
///
/// * `field: "key"` — a required field;
/// * `field: "key" = default` — the value a missing or `null` field takes;
/// * `field: "key" via (to, from)` — a field whose type has no codec of its
///   own (a `Duration` sent as integer milliseconds, a type of a crate that
///   does not depend on this one): `to(&field) -> Json` encodes it and
///   `from(&Json) -> Result<_, String>` decodes it; a default may follow.
///
/// An optional leading `"key" = VERSION;` row is a version tag: encoded
/// first, and read by [`version`].
///
/// `impl ToJson for T { rows }` writes the encoder only (its rows take no
/// defaults). `impl ToJson + FromJson for T { rows }` also writes the
/// decoder, which reads every row by [`field_with`] into a struct literal
/// (so the table must name every field); a trailing `then f` passes the
/// decoded value through `f` (a constructor that canonicalizes, say).
///
/// **An enum declaration** `enum E tagged "tag" { Variant = "name" { fields }, … }`
/// declares `E` with its attributes and docs, `E::kind()` returning the
/// variant's name, and an encoder whose object is the `tag` field holding
/// that name followed by every field under its own name.
#[macro_export]
macro_rules! json_codec {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident tagged $tag:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $fty),* }),*
        }

        impl $name {
            /// Stable snake_case name of the variant (the
            #[doc = concat!("`", $tag, "`")]
            /// field of its JSON encoding).
            pub fn kind(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $kind),*
                }
            }
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($name::$variant { $($field),* } => $crate::json::object(&[
                        ($tag, &$kind),
                        $((stringify!($field), $field)),*
                    ])),*
                }
            }
        }
    };
    (
        impl ToJson for $ty:ty {
            $($tag:literal = $version:expr;)?
            $($field:ident: $key:literal $(via ($to:path, $from:path))?),* $(,)?
        }
    ) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $(($tag.to_owned(), $crate::json::ToJson::to_json(&$version)),)?
                    $(($key.to_owned(), $crate::json_codec!(@encode self.$field $(, $to)?)),)*
                ])
            }
        }
    };
    (
        impl ToJson + FromJson for $ty:ty {
            $($tag:literal = $version:expr;)?
            $($field:ident: $key:literal $(via ($to:path, $from:path))? $(= $default:expr)?),* $(,)?
        } $(then $then:expr)?
    ) => {
        $crate::json_codec! {
            impl ToJson for $ty {
                $($tag = $version;)?
                $($field: $key $(via ($to, $from))?),*
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(json: &$crate::json::Json) -> Result<Self, String> {
                $($crate::json::version(json, $tag, $version)?;)?
                let value = Self {
                    $($field: $crate::json::field_with(
                        json,
                        $key,
                        $crate::json_codec!(@default $($default)?),
                        $crate::json_codec!(@decode $($from)?),
                    )?,)*
                };
                Ok($crate::json_codec!(@then value $(, $then)?))
            }
        }
    };
    (@encode $value:expr) => { $crate::json::ToJson::to_json(&$value) };
    (@encode $value:expr, $to:path) => { $to(&$value) };
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
    (@decode) => { $crate::json::FromJson::from_json };
    (@decode $from:path) => { $from };
    (@then $value:ident) => { $value };
    (@then $value:ident, $then:expr) => { ($then)($value) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trip() {
        let value = Json::Object(vec![
            ("event".into(), Json::Str("composed".into())),
            ("iteration".into(), Json::Int(3)),
            ("holds".into(), Json::Bool(false)),
            ("violated".into(), Json::Null),
            (
                "components".into(),
                Json::Array(vec![Json::Str("front".into()), Json::Str("rear".into())]),
            ),
            (
                "escaped \"key\"".into(),
                Json::Str("line\nbreak\tand \\ quote \"".into()),
            ),
            ("ratio".into(), Json::Float(0.5)),
            ("negative".into(), Json::Int(-17)),
        ]);
        let text = value.encode();
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn parse_accepts_whitespace() {
        let parsed = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : true } ").unwrap();
        assert_eq!(
            parsed.get("a"),
            Some(&Json::Array(vec![Json::Int(1), Json::Int(2)]))
        );
        assert_eq!(parsed.get("b").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn multi_byte_characters_next_to_escapes_round_trip() {
        for text in [
            "é\\\"ü",
            "\"€",
            "日本\n語",
            "x\u{1}ÿ",
            "🚃 runs, 🚃",
            "ends in ß",
            "ä",
        ] {
            let encoded = Json::Str(text.into()).encode();
            assert_eq!(parse(&encoded).unwrap(), Json::Str(text.into()), "{text}");
        }
        // A multi-byte character right before an escape, and one right
        // after an escape and right before the closing quote.
        assert_eq!(parse("\"aé\\tb\"").unwrap(), Json::Str("aé\tb".into()));
        assert_eq!(parse("\"\\\"é\"").unwrap(), Json::Str("\"é".into()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"a\\u00e9b\\u20ACc\\u0041\"").unwrap(),
            Json::Str("aéb€cA".into())
        );
        assert!(parse("\"\\u00\"").is_err());
        assert!(parse("\"\\uZZZZ\"").is_err());
        assert!(parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn control_characters_escape_as_hex() {
        let text = Json::Str("\u{1}".into()).encode();
        assert_eq!(text, "\"\\u0001\"");
        assert_eq!(parse(&text).unwrap(), Json::Str("\u{1}".into()));
    }
}
