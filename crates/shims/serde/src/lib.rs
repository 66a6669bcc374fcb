//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no network access, so this workspace vendors a
//! minimal serde-compatible surface: the `Serialize`/`Deserialize` traits,
//! the derive macros (re-exported from the sibling `serde_derive` shim), and
//! impls for the std types this workspace serializes.
//!
//! Serialization streams: [`Serialize::serialize`] walks a value once and
//! emits it as a sequence of [`Writer`] calls (scalars, and `array`/`object`
//! headers that carry their length up front), so an encoder can write bytes
//! without an intermediate tree. [`Serialize::to_value`] runs the same walk
//! into a writer that builds the self-describing [`Value`] data model, and
//! [`value::render_json`] into one that writes JSON text. Deserialization
//! reads a [`Value`]. `serde_json` in this workspace is a thin layer over
//! `render_json` and the [`Value`] parser.
//!
//! Float round-trips are exact: `f64` serializes via Rust's
//! shortest-round-trip formatting, so `parse(format(x)) == x` bit-for-bit
//! for finite values; non-finite values are encoded as tagged strings.

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

pub use value::{Map, Value};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Build an error from anything displayable.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Error(m.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// The sink a [`Serialize`] walk writes into: one call per node of the
/// data model, in document order. A container announces its length first:
/// `array(len)` is followed by exactly `len` values, and `object(len)` by
/// exactly `len` entries, each a [`Writer::key`] and then one value.
pub trait Writer {
    /// A null (`None`, a unit struct).
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// An unsigned integer.
    fn u64(&mut self, u: u64);
    /// A signed integer.
    fn i64(&mut self, i: i64);
    /// A float (non-finite values included).
    fn f64(&mut self, f: f64);
    /// A string (a unit enum variant is its name).
    fn str(&mut self, s: &str);
    /// The start of an array of `len` values.
    fn array(&mut self, len: usize);
    /// The start of an object of `len` entries.
    fn object(&mut self, len: usize);
    /// The key of the next object entry; its value follows.
    fn key(&mut self, k: &str);
}

/// Types that can write themselves into a [`Writer`].
pub trait Serialize {
    /// Emit `self` as a sequence of writer calls.
    fn serialize<W: Writer>(&self, w: &mut W);

    /// Convert to the self-describing data model: the same walk as
    /// [`Serialize::serialize`], into a tree-building writer.
    fn to_value(&self) -> Value {
        let mut tree = value::TreeWriter::default();
        self.serialize(&mut tree);
        tree.finish()
    }
}

/// Types that can be rebuilt from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild from the self-describing data model.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

fn unexpected(want: &str, got: &Value) -> Error {
    Error(format!("expected {want}, got {}", got.kind()))
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Writer>(&self, w: &mut W) {
                w.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = match v {
                    Value::U64(u) => *u,
                    Value::I64(i) if *i >= 0 => *i as u64,
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    other => return Err(unexpected("unsigned integer", other)),
                };
                <$t>::try_from(u).map_err(|_| Error::msg(format!("{u} out of range")))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Writer>(&self, w: &mut W) {
                w.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = match v {
                    Value::I64(i) => *i,
                    Value::U64(u) => i64::try_from(*u)
                        .map_err(|_| Error::msg(format!("{u} out of range")))?,
                    Value::F64(f) if f.fract() == 0.0 => *f as i64,
                    other => return Err(unexpected("integer", other)),
                };
                <$t>::try_from(i).map_err(|_| Error::msg(format!("{i} out of range")))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.f64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::U64(u) => Ok(*u as f64),
            Value::I64(i) => Ok(*i as f64),
            // Non-finite floats travel as tagged strings (invalid in JSON).
            Value::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => Err(Error::msg(format!("not a float: {s:?}"))),
            },
            other => Err(unexpected("float", other)),
        }
    }
}

impl Serialize for f32 {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.f64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(unexpected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.str(self)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(unexpected("string", other)),
        }
    }
}

impl Serialize for str {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.str(self)
    }
}

impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // Real serde borrows from the deserializer input; the shim's data
        // model is owned, so static strings are recovered by leaking the
        // (small, rare) owned copy.
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(unexpected("string", other)),
        }
    }
}

impl Serialize for char {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(unexpected("single-char string", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: Writer>(&self, w: &mut W) {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.array(self.len());
        for item in self {
            item.serialize(w);
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: Writer>(&self, w: &mut W) {
        self.as_slice().serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(unexpected("array", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<W: Writer>(&self, w: &mut W) {
        self.as_slice().serialize(w)
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error::msg(format!("expected {N} elements, got {}", items.len())))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: Writer>(&self, w: &mut W) {
        match self {
            Some(t) => t.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.object(2);
        w.key("start");
        self.start.serialize(w);
        w.key("end");
        self.end.serialize(w);
    }
}

impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let start = v
            .get("start")
            .ok_or_else(|| Error::msg("missing field `start`"))?;
        let end = v
            .get("end")
            .ok_or_else(|| Error::msg("missing field `end`"))?;
        Ok(T::from_value(start)?..T::from_value(end)?)
    }
}

macro_rules! impl_tuple {
    ($($idx:tt : $t:ident),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<W: Writer>(&self, w: &mut W) {
                w.array([$($idx),+].len());
                $(self.$idx.serialize(w);)+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let mut it = items.iter();
                        let out = ($(
                            $t::from_value(
                                it.next().ok_or_else(|| Error::msg("tuple too short"))?,
                            )?,
                        )+);
                        Ok(out)
                    }
                    other => Err(unexpected("tuple array", other)),
                }
            }
        }
    };
}

impl_tuple!(0: A);
impl_tuple!(0: A, 1: B);
impl_tuple!(0: A, 1: B, 2: C);
impl_tuple!(0: A, 1: B, 2: C, 3: D);

fn key_to_string<K: Serialize>(k: &K) -> String {
    match k.to_value() {
        Value::Str(s) => s,
        Value::U64(u) => u.to_string(),
        Value::I64(i) => i.to_string(),
        Value::F64(f) => format!("{f:?}"),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

fn key_from_str<K: Deserialize>(s: &str) -> Result<K, Error> {
    // Try the key as a string first, then as a number (JSON object keys
    // are always strings; integer-keyed maps round-trip through text).
    K::from_value(&Value::Str(s.to_string())).or_else(|_| {
        let v = if let Ok(u) = s.parse::<u64>() {
            Value::U64(u)
        } else if let Ok(i) = s.parse::<i64>() {
            Value::I64(i)
        } else if let Ok(f) = s.parse::<f64>() {
            Value::F64(f)
        } else {
            return Err(Error::msg(format!("unusable map key {s:?}")));
        };
        K::from_value(&v)
    })
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize<W: Writer>(&self, w: &mut W) {
        let mut entries: Vec<(String, &V)> =
            self.iter().map(|(k, v)| (key_to_string(k), v)).collect();
        // Deterministic output regardless of hash order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        w.object(entries.len());
        for (k, v) in entries {
            w.key(&k);
            v.serialize(w);
        }
    }
}

impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((key_from_str::<K>(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(unexpected("object", other)),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<W: Writer>(&self, w: &mut W) {
        w.object(self.len());
        for (k, v) in self {
            w.key(&key_to_string(k));
            v.serialize(w);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((key_from_str::<K>(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(unexpected("object", other)),
        }
    }
}

impl Serialize for Value {
    fn serialize<W: Writer>(&self, w: &mut W) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::U64(u) => w.u64(*u),
            Value::I64(i) => w.i64(*i),
            Value::F64(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(entries) => {
                w.object(entries.len());
                for (k, v) in entries {
                    w.key(k);
                    v.serialize(w);
                }
            }
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
