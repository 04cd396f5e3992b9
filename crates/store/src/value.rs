//! Values and data types.

use std::cmp::Ordering;
use std::fmt;

/// Column data types. Timestamps are stored as [`DataType::Int`] seconds
/// since the simulation epoch (matching the paper's `ts <= NOW()` idiom).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataType {
    Int,
    Float,
    Str,
}

impl DataType {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
        }
    }
}

/// A single scalar value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    #[must_use]
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Numeric view (ints widen to f64); `None` for strings.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// Compares two values, coercing Int/Float; string-vs-number is not
    /// comparable.
    #[must_use]
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// The order grouped results are sorted in: [`Value::compare`], with
    /// a NaN after every number and equal to another NaN, which makes it
    /// total over one column's keys.
    #[must_use]
    pub fn key_order(&self, other: &Value) -> Ordering {
        let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
        self.compare(other)
            .unwrap_or_else(|| nan(self).cmp(&nan(other)))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
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
        Value::Str(v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_coerces_numerics() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(4.0).compare(&Value::Int(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn strings_compare_lexically_and_not_with_numbers() {
        assert_eq!(
            Value::from("abc").compare(&Value::from("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from("x").compare(&Value::Int(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::from("SMB").to_string(), "'SMB'");
    }
}
