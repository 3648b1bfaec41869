//! Offline drop-in for the subset of `serde` this workspace uses.
//!
//! The build environment cannot fetch crates, so this shim replaces the real
//! `serde` with a minimal value-model design: [`Serialize`] lowers a type to
//! a JSON-shaped [`Value`] tree, [`Deserialize`] lifts it back. The derive
//! macros (re-exported from the vendored `serde_derive`) cover exactly the
//! shapes the workspace defines: structs with named fields, unit-variant
//! enums, and tuple-variant enums. External tagging matches `serde_json`
//! conventions (`"Variant"` / `{"Variant": ...}`), so on-disk artifacts stay
//! readable if the real stack is ever restored.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped dynamic value.
///
/// Integers keep their own variants (rather than collapsing into `f64`) so
/// `u64` seeds survive round trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, as insertion-ordered pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The `null` value (usable in `const` position).
    pub const NULL: Value = Value::Null;

    /// The object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Mutable access to the value under `key`, if this is an object that
    /// has it.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// A non-negative integer, as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// (De)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Builds an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Looks up a field in an object's pairs; missing fields read as `null` so
/// `Option` fields deserialize to `None`.
pub fn field<'a>(pairs: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    Ok(pairs
        .iter()
        .find(|(k, _)| k == name)
        .map_or(&Value::NULL, |(_, v)| v))
}

/// Types that can lower themselves to a [`Value`].
pub trait Serialize {
    /// Lowers `self`.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
///
/// The lifetime parameter exists for signature compatibility with upstream
/// serde bounds (`for<'de> Deserialize<'de>`); this shim always copies.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds a value.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `value` does not have the expected shape.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// --- primitive impls ---

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, found {}", other.kind()))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    other => {
                        return Err(Error::msg(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::msg(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw: i64 = match value {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| Error::msg(format!("integer {u} out of range for i64")))?,
                    other => {
                        return Err(Error::msg(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::msg(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    other => Err(Error::msg(format!(
                        "expected number, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

// `Value` is its own wire form, matching upstream `serde_json::Value`
// implementing both traits; lets callers parse arbitrary JSON dynamically.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(usize::from_value(&7usize.to_value()).unwrap(), 7);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&String::from("hi").to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let big = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v = vec![vec![1usize, 2], vec![3]];
        assert_eq!(Vec::<Vec<usize>>::from_value(&v.to_value()).unwrap(), v);
        let some: Option<Vec<f32>> = Some(vec![0.5]);
        let none: Option<Vec<f32>> = None;
        assert_eq!(
            Option::<Vec<f32>>::from_value(&some.to_value()).unwrap(),
            some
        );
        assert_eq!(
            Option::<Vec<f32>>::from_value(&none.to_value()).unwrap(),
            none
        );
    }

    #[test]
    fn shape_errors_name_the_kinds() {
        let err = u64::from_value(&Value::Str("x".into())).unwrap_err();
        assert!(err.to_string().contains("string"));
        assert!(bool::from_value(&Value::UInt(1)).is_err());
    }

    #[test]
    fn accessors_follow_upstream() {
        let mut record = Value::Object(vec![
            ("n".into(), Value::UInt(3)),
            ("neg".into(), Value::Int(-2)),
            ("x".into(), Value::Float(0.5)),
            ("ok".into(), Value::Bool(true)),
            ("name".into(), Value::Str("gemm".into())),
        ]);
        let get = |key| record.get(key).expect("present");
        assert_eq!((get("n").as_u64(), get("n").as_f64()), (Some(3), Some(3.0)));
        assert_eq!(
            (get("neg").as_u64(), get("neg").as_f64()),
            (None, Some(-2.0))
        );
        assert_eq!((get("x").as_u64(), get("x").as_f64()), (None, Some(0.5)));
        assert_eq!(
            (get("ok").as_bool(), get("name").as_str()),
            (Some(true), Some("gemm"))
        );
        assert_eq!((get("name").as_bool(), get("ok").as_str()), (None, None));
        assert!(record.get("missing").is_none() && Value::UInt(1).get("n").is_none());
        *record.get_mut("ok").expect("present") = Value::Bool(false);
        assert_eq!(record.get("ok"), Some(&Value::Bool(false)));
        assert!(record.get_mut("missing").is_none());
    }

    #[test]
    fn missing_fields_read_as_null() {
        let pairs = vec![(String::from("a"), Value::UInt(1))];
        assert_eq!(field(&pairs, "a").unwrap(), &Value::UInt(1));
        assert_eq!(field(&pairs, "b").unwrap(), &Value::Null);
    }
}
