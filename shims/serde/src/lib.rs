//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! Unlike real serde's zero-copy visitor architecture, this shim
//! round-trips through an owned [`Value`] tree — `Serialize` lowers
//! into a `Value`, `Deserialize` rebuilds from one. `serde_json` (the
//! sibling shim) renders and parses that tree. The public surface the
//! workspace relies on is identical: `Serialize`/`Deserialize` for
//! std types and [`Value`], and `serde_json::{to_string_pretty,
//! from_str}`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Self-describing data tree (the JSON data model).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Signed integers.
    Int(i64),
    /// Unsigned integers beyond `i64::MAX`.
    UInt(u64),
    /// Floating-point numbers.
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects as insertion-ordered key–value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(String);

impl DeError {
    /// Error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }

    /// Error for an absent struct field.
    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Lowers a type into the [`Value`] data model.
pub trait Serialize {
    /// The value tree representing `self`.
    fn to_value(&self) -> Value;
}

/// Rebuilds a type from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses `self` out of a value tree.
    ///
    /// # Errors
    /// Shape or type mismatches.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::custom("expected bool")),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: i128 = match v {
                    Value::Int(i) => *i as i128,
                    Value::UInt(u) => *u as i128,
                    Value::Float(f) if f.fract() == 0.0 => *f as i128,
                    _ => return Err(DeError::custom("expected integer")),
                };
                <$t>::try_from(wide).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                if wide <= i64::MAX as u64 {
                    Value::Int(wide as i64)
                } else {
                    Value::UInt(wide)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: u64 = match v {
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::UInt(u) => *u,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    _ => return Err(DeError::custom("expected unsigned integer")),
                };
                <$t>::try_from(wide).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    _ => Err(DeError::custom("expected number")),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::custom("expected string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::custom("expected array")),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(DeError::custom("expected object")),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort keys.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(DeError::custom("expected object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42usize.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2].to_value()).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        let v = m.to_value();
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(BTreeMap::<String, u32>::from_value(&v).unwrap(), m);
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
        assert!(String::from_value(&Value::Int(1)).is_err());
    }
}
