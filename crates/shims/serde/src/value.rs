//! The self-describing data model shared by the `serde` and `serde_json`
//! shims, the writer that builds it from a `Serialize` walk, and JSON text
//! rendering and parsing.

use std::fmt::Write as _;

/// Ordered map used for JSON objects (insertion order preserved).
pub type Map = Vec<(String, Value)>;

/// A self-describing value — the shim's analogue of `serde_json::Value`.
#[derive(Debug, Clone)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (exact).
    U64(u64),
    /// Signed integer (exact).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with ordered keys.
    Object(Map),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            // Numbers compare by value across storage variants, the way
            // serde_json's Number does for equal magnitudes.
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a == b,
            (Value::U64(a), Value::I64(b)) | (Value::I64(b), Value::U64(a)) => {
                i64::try_from(*a).is_ok_and(|a| a == *b)
            }
            (Value::U64(a), Value::F64(b)) | (Value::F64(b), Value::U64(a)) => *a as f64 == *b,
            (Value::I64(a), Value::F64(b)) | (Value::F64(b), Value::I64(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(f) => Some(*f),
            Value::U64(u) => Some(*u as f64),
            Value::I64(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Numeric view as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(u) => Some(*u),
            Value::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Numeric view as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(i) => Some(*i),
            Value::U64(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Render as compact JSON text.
    pub fn to_json(&self) -> String {
        render_json(self, None)
    }

    /// Render as indented JSON text.
    pub fn to_json_pretty(&self) -> String {
        render_json(self, Some(2))
    }
}

/// A container under construction, with its announced length. An
/// object's entry is pushed at its key, with a null value that the next
/// finished value replaces.
enum Open {
    Array(Vec<Value>, usize),
    Object(Map, usize),
}

/// The [`crate::Writer`] behind `Serialize::to_value`: it assembles the
/// [`Value`] tree the writer calls describe. A container closes when its
/// announced number of entries has arrived.
#[derive(Default)]
pub(crate) struct TreeWriter {
    open: Vec<Open>,
    root: Option<Value>,
}

impl TreeWriter {
    /// The finished tree. Panics if the walk left a container unfilled.
    pub(crate) fn finish(self) -> Value {
        assert!(self.open.is_empty(), "serialize left a container open");
        self.root.expect("serialize wrote no value")
    }

    /// Attach a finished value to the innermost open container, and
    /// close the container if that filled it.
    fn put(&mut self, v: Value) {
        let full = match self.open.last_mut() {
            Some(Open::Array(items, len)) => {
                items.push(v);
                items.len() == *len
            }
            Some(Open::Object(entries, len)) => {
                entries.last_mut().expect("object value before its key").1 = v;
                entries.len() == *len
            }
            None => {
                self.root = Some(v);
                false
            }
        };
        if full {
            self.close();
        }
    }

    fn close(&mut self) {
        let v = match self.open.pop() {
            Some(Open::Array(items, _)) => Value::Array(items),
            Some(Open::Object(entries, _)) => Value::Object(entries),
            None => unreachable!("only an open container fills"),
        };
        self.put(v);
    }
}

impl crate::Writer for TreeWriter {
    fn null(&mut self) {
        self.put(Value::Null)
    }

    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b))
    }

    fn u64(&mut self, u: u64) {
        self.put(Value::U64(u))
    }

    fn i64(&mut self, i: i64) {
        self.put(Value::I64(i))
    }

    fn f64(&mut self, f: f64) {
        self.put(Value::F64(f))
    }

    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()))
    }

    fn array(&mut self, len: usize) {
        if len == 0 {
            self.put(Value::Array(Vec::new()));
        } else {
            self.open.push(Open::Array(Vec::with_capacity(len), len));
        }
    }

    fn object(&mut self, len: usize) {
        if len == 0 {
            self.put(Value::Object(Map::new()));
        } else {
            self.open.push(Open::Object(Map::with_capacity(len), len));
        }
    }

    fn key(&mut self, k: &str) {
        match self.open.last_mut() {
            Some(Open::Object(entries, _)) => entries.push((k.to_string(), Value::Null)),
            _ => panic!("object key {k:?} outside an object"),
        }
    }
}

/// Render `v` as JSON text, compact or indented by `indent` spaces per
/// level, straight from its `Serialize` walk (no [`Value`] tree). Non-finite
/// floats become the tagged strings `"NaN"`, `"inf"` and `"-inf"`.
pub fn render_json<T: crate::Serialize + ?Sized>(v: &T, indent: Option<usize>) -> String {
    let mut w = JsonWriter {
        out: String::new(),
        indent,
        open: Vec::new(),
        after_key: false,
    };
    v.serialize(&mut w);
    w.out
}

/// An open JSON container: its announced length, the entries written so
/// far, and its closing bracket.
struct JsonOpen {
    len: usize,
    done: usize,
    close: char,
}

/// The [`crate::Writer`] behind [`render_json`].
struct JsonWriter {
    out: String,
    indent: Option<usize>,
    open: Vec<JsonOpen>,
    /// A key was just written; its value takes no separator.
    after_key: bool,
}

impl JsonWriter {
    /// Start an array item or an object entry: a comma after the first,
    /// and in indented output a new line.
    fn begin(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(open) = self.open.last() {
            if open.done > 0 {
                self.out.push(',');
            }
            self.newline(self.open.len());
        }
    }

    /// A value is complete: count it, and close every container it fills.
    fn end(&mut self) {
        while let Some(open) = self.open.last_mut() {
            open.done += 1;
            if open.done < open.len {
                return;
            }
            let close = open.close;
            self.open.pop();
            self.newline(self.open.len());
            self.out.push(close);
        }
    }

    fn newline(&mut self, depth: usize) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat(' ').take(w * depth));
        }
    }

    fn scalar(&mut self, text: std::fmt::Arguments) {
        self.begin();
        self.out
            .write_fmt(text)
            .expect("writing to a String cannot fail");
        self.end();
    }

    fn container(&mut self, len: usize, open: char, close: char) {
        self.begin();
        self.out.push(open);
        if len == 0 {
            self.out.push(close);
            self.end();
        } else {
            self.open.push(JsonOpen {
                len,
                done: 0,
                close,
            });
        }
    }
}

impl crate::Writer for JsonWriter {
    fn null(&mut self) {
        self.scalar(format_args!("null"));
    }

    fn bool(&mut self, b: bool) {
        self.scalar(format_args!("{b}"));
    }

    fn u64(&mut self, u: u64) {
        self.scalar(format_args!("{u}"));
    }

    fn i64(&mut self, i: i64) {
        self.scalar(format_args!("{i}"));
    }

    fn f64(&mut self, f: f64) {
        if f.is_finite() {
            // Shortest round-trip formatting: parses back exactly.
            self.scalar(format_args!("{f:?}"));
        } else if f.is_nan() {
            self.str("NaN");
        } else if f > 0.0 {
            self.str("inf");
        } else {
            self.str("-inf");
        }
    }

    fn str(&mut self, s: &str) {
        self.begin();
        write_escaped(&mut self.out, s);
        self.end();
    }

    fn array(&mut self, len: usize) {
        self.container(len, '[', ']');
    }

    fn object(&mut self, len: usize) {
        self.container(len, '{', '}');
    }

    fn key(&mut self, k: &str) {
        self.begin();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        self.as_i64() == Some(*other as i64)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

/// Parse JSON text into a [`Value`].
pub fn parse_json(s: &str) -> Result<Value, crate::Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(crate::Error::msg(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> crate::Error {
        crate::Error::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), crate::Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, crate::Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, crate::Error> {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the maximal run of plain characters in one
                    // slice: validating per-scalar would re-scan the
                    // remaining buffer each character (quadratic in the
                    // document — pathological on the instruction store's
                    // multi-hundred-KB plan blobs).
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, crate::Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}
