//! Dynamic value model shared by the storage layer, the SQL front-end and
//! the execution engines.

use crate::error::{TcuError, TcuResult};
use std::cmp::Ordering;
use std::fmt;

/// Logical column data types supported by TCUDB-RS.
///
/// The paper's storage layer is a columnar store over integer, floating
/// point, and (dictionary-encoded) string columns; that is exactly what we
/// support here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// Variable-length UTF-8 string.
    Text,
}

impl DataType {
    /// Width in bytes of one element as stored in host memory
    /// (Text columns report the pointer-sized dictionary code width).
    pub fn host_width_bytes(self) -> usize {
        match self {
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Text => 4, // dictionary code
        }
    }

    /// Is this a numeric type that can participate in aggregates and in
    /// matrix value payloads?
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int64 => write!(f, "INT"),
            DataType::Float64 => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

/// A single dynamically-typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer value.
    Int(i64),
    /// 64-bit float value.
    Float(f64),
    /// String value.
    Text(String),
}

impl Value {
    /// The data type of this value (`None` for NULL).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as an `f64` (integers widen, NULL and text fail).
    pub fn as_f64(&self) -> TcuResult<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            other => Err(TcuError::InvalidArgument(format!(
                "cannot interpret {other:?} as f64"
            ))),
        }
    }

    /// Interpret the value as an `i64` (floats must be integral).
    pub fn as_i64(&self) -> TcuResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Float(v) if v.fract() == 0.0 => Ok(*v as i64),
            other => Err(TcuError::InvalidArgument(format!(
                "cannot interpret {other:?} as i64"
            ))),
        }
    }

    /// Interpret the value as a string slice.
    pub fn as_str(&self) -> TcuResult<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(TcuError::InvalidArgument(format!(
                "cannot interpret {other:?} as text"
            ))),
        }
    }

    /// A stable key usable for hashing / grouping / join matching.
    ///
    /// Floats are keyed by their bit pattern; `Int(x)` and `Float(x.0)` are
    /// normalised to the same key so that joins across INT and FLOAT key
    /// columns behave like SQL equality.
    pub fn group_key(&self) -> ValueKey {
        match self {
            Value::Null => ValueKey::Null,
            Value::Int(v) => ValueKey::Int(*v),
            Value::Float(v) => ValueKey::from_f64(*v),
            Value::Text(s) => ValueKey::Text(s.clone()),
        }
    }

    /// SQL equality (NULL is not equal to anything, including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.group_key() == other.group_key()
    }

    /// Three-way comparison used by ORDER BY and non-equi joins.
    /// NULLs sort first; mixed numeric types compare numerically.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => {
                let fa = a.as_f64().unwrap_or(f64::NEG_INFINITY);
                let fb = b.as_f64().unwrap_or(f64::NEG_INFINITY);
                fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_key() == other.group_key()
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// Normalised, hashable key form of a [`Value`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKey {
    /// NULL key (only produced by grouping, never matches in joins).
    Null,
    /// Integer (also used for integral floats).
    Int(i64),
    /// Non-integral float keyed by bit pattern.
    FloatBits(u64),
    /// String key.
    Text(String),
}

impl ValueKey {
    /// The normalised key of a float: integral floats within the `i64`
    /// range unify with [`ValueKey::Int`] (so INT⋈FLOAT equality works),
    /// everything else keys by bit pattern.  The single source of truth
    /// for this normalisation — [`Value::group_key`] and the vectorized
    /// filter kernels both call it, so they can never disagree.
    pub fn from_f64(x: f64) -> ValueKey {
        if x.fract() == 0.0 && x.abs() < 9.2e18 {
            ValueKey::Int(x as i64)
        } else {
            ValueKey::FloatBits(x.to_bits())
        }
    }
}

impl fmt::Display for ValueKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKey::Null => write!(f, "NULL"),
            ValueKey::Int(v) => write!(f, "{v}"),
            ValueKey::FloatBits(b) => write!(f, "{}", f64::from_bits(*b)),
            ValueKey::Text(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_properties() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert_eq!(DataType::Int64.host_width_bytes(), 8);
        assert_eq!(DataType::Text.to_string(), "TEXT");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(7).as_f64().unwrap(), 7.0);
        assert_eq!(Value::Float(7.0).as_i64().unwrap(), 7);
        assert!(Value::Float(7.5).as_i64().is_err());
        assert_eq!(Value::from("abc").as_str().unwrap(), "abc");
        assert!(Value::Null.as_f64().is_err());
    }

    #[test]
    fn int_float_join_keys_unify() {
        assert_eq!(Value::Int(5).group_key(), Value::Float(5.0).group_key());
        assert_ne!(Value::Int(5).group_key(), Value::Float(5.5).group_key());
    }

    #[test]
    fn sql_equality_and_null_semantics() {
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
        assert!(!Value::Int(1).sql_eq(&Value::Int(2)));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::from("x").sql_eq(&Value::from("x")));
    }

    #[test]
    fn ordering_behaviour() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(1.5)), Ordering::Greater);
        assert_eq!(Value::from("a").sql_cmp(&Value::from("b")), Ordering::Less);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3.5f64), Value::Float(3.5));
        assert_eq!(Value::from("s".to_string()), Value::Text("s".into()));
    }
}
