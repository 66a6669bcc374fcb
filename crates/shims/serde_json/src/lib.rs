//! Offline stand-in for `serde_json`, layered on the `serde` shim:
//! `to_string`/`to_string_pretty` render a [`serde::Serialize`] type as
//! JSON text straight from its `Serialize` walk, and `from_str` parses text
//! into the shim's [`Value`] data model and rebuilds the type.

pub use serde::value::parse_json;
pub use serde::{Error, Map, Value};

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::value::render_json(value, None))
}

/// Serialize `value` as indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::value::render_json(value, Some(2)))
}

/// Parse JSON text into `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    T::from_value(&parse_json(s)?)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Build a [`Value`] with JSON-like syntax. Keys may be identifiers or
/// string literals; values are arbitrary serializable expressions, nested
/// arrays, or nested objects.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::json!($item)),* ])
    };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $(($crate::__json_key!($key), $crate::json!($val))),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal: object keys as strings.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($key:ident) => {
        stringify!($key).to_string()
    };
    ($key:literal) => {
        $key.to_string()
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip_basics() {
        let items = vec![1.5f64, 2.25];
        let v = json!({"a": 1, "b": items, "c": "x\"y", "d": true});
        let text = super::to_string(&v).unwrap();
        let back: super::Value = super::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.1f64, 1.0 / 3.0, 5e-324, f64::MAX, -2.5e17] {
            let text = super::to_string(&x).unwrap();
            let back: f64 = super::from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }
}
