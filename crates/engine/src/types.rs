//! Scalar values and data types.
//!
//! MayBMS (§2.4) stores condition columns as pairs of integers and
//! probabilities as floating-point numbers; data columns carry ordinary SQL
//! values. This module provides the engine's dynamically-typed scalar
//! [`Value`] with a *total* order and hash so values can serve as join and
//! grouping keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{EngineError, Result};

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float (probabilities, weights).
    Float,
    /// UTF-8 text.
    Text,
    /// The type of `NULL` when nothing better is known.
    Unknown,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "boolean",
            DataType::Int => "bigint",
            DataType::Float => "double precision",
            DataType::Text => "text",
            DataType::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Whether values of this type can be used in arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The common supertype used when combining two expressions, if any.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Unknown, b) => Some(b),
            (a, Unknown) => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            _ => None,
        }
    }
}

/// A dynamically-typed scalar value.
///
/// `Value` implements [`Eq`], [`Ord`] and [`Hash`] so it can be used
/// directly as a join or grouping key. Two `Int`s compare as `i64`; a
/// `Float` on either side is ordered with [`f64::total_cmp`] (an `Int`
/// widens, as in equality); `-0.0` is normalised to `0.0` and NaN is rejected at
/// construction ([`Value::float`]) so the order restricted to engine-made
/// values is the familiar numeric one. `NULL` sorts first, as in
/// PostgreSQL's `NULLS FIRST`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text; reference-counted so tuple clones are cheap.
    Str(Arc<str>),
}

impl Value {
    /// The borrowed view of this value.
    #[inline]
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
        }
    }

    /// Construct a text value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct a float value, normalising `-0.0` and rejecting NaN.
    pub fn float(f: f64) -> Result<Value> {
        if f.is_nan() {
            return Err(EngineError::Arithmetic {
                message: "NaN is not a valid value".into(),
            });
        }
        Ok(Value::Float(if f == 0.0 { 0.0 } else { f }))
    }

    /// The dynamic type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Unknown,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Text,
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean, if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as an integer, if possible (no float truncation).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: integers widen to floats; `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret as text, if possible.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality: `NULL = x` is unknown, surfaced here as `None`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self == other)
    }

    /// SQL three-valued comparison; `None` when either side is NULL or the
    /// types are incomparable. `Int` against `Int` compares exactly, as
    /// [`Value::eq`] and join keys do; a `Float` on either side widens the
    /// other to `f64` (total order).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        let comparable = match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => true,
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
        };
        comparable.then(|| self.cmp(other))
    }
}

/// The engine's total order (what `ORDER BY` sorts by): NULL first, then
/// Bool, then numeric, then text. Two `Int`s compare as `i64`; any other
/// numeric pair widens to `f64` under [`f64::total_cmp`], as equality
/// does; text compares by bytes. Written once and expanded for both
/// [`Value`] and [`ValueRef`]: comparing two `Value`s through their views
/// instead would add a second variant dispatch per side to every call.
macro_rules! total_order {
    ($t:ident, $a:expr, $b:expr) => {
        match ($a, $b) {
            ($t::Int(a), $t::Int(b)) => a.cmp(b),
            ($t::Float(a), $t::Float(b)) => a.total_cmp(b),
            ($t::Int(a), $t::Float(b)) => (*a as f64).total_cmp(b),
            ($t::Float(a), $t::Int(b)) => a.total_cmp(&(*b as f64)),
            ($t::Bool(a), $t::Bool(b)) => a.cmp(b),
            ($t::Str(a), $t::Str(b)) => a.as_bytes().cmp(b.as_bytes()),
            (a, b) => {
                let rank = |v: &$t| match v {
                    $t::Null => 0,
                    $t::Bool(_) => 1,
                    $t::Int(_) | $t::Float(_) => 2,
                    $t::Str(_) => 3,
                };
                rank(a).cmp(&rank(b))
            }
        }
    };
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Value {}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        total_order!(Value, self, other)
    }
}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

/// A borrowed view of a [`Value`] — what a column cell reads as without
/// building one (a string is a `&str`, not an `Arc` bump). Equality and
/// hashing are defined here once and `Value`'s delegate to them; the
/// order is one `total_order!` expanded for both. A view and its value
/// always agree.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Str(&'a str),
}

impl PartialEq for ValueRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(&b) == Ordering::Equal,
            (ValueRef::Int(a), ValueRef::Float(b)) | (ValueRef::Float(b), ValueRef::Int(a)) => {
                (a as f64).total_cmp(&b) == Ordering::Equal
            }
            (ValueRef::Str(a), ValueRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ValueRef<'_> {}

impl Ord for ValueRef<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        total_order!(ValueRef, self, other)
    }
}

impl PartialOrd for ValueRef<'_> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            ValueRef::Null => state.write_u8(0),
            ValueRef::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int and Float hash identically when numerically equal, to
            // match `PartialEq` (1 == 1.0 must imply same hash).
            ValueRef::Int(i) => {
                state.write_u8(2);
                canonical_f64_bits(i as f64).hash(state);
            }
            ValueRef::Float(f) => {
                state.write_u8(2);
                canonical_f64_bits(f).hash(state);
            }
            ValueRef::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

/// Bit pattern used for hashing floats: normalises `-0.0` to `0.0` so that
/// hash agrees with `total_cmp`-based equality for engine-made values.
fn canonical_f64_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn float_constructor_rejects_nan() {
        assert!(Value::float(f64::NAN).is_err());
        assert!(Value::float(1.5).is_ok());
    }

    #[test]
    fn float_constructor_normalises_negative_zero() {
        let v = Value::float(-0.0).unwrap();
        match v {
            Value::Float(f) => assert!(f.is_sign_positive()),
            _ => panic!("expected float"),
        }
    }

    #[test]
    fn int_float_numeric_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [
            Value::Int(1),
            Value::Null,
            Value::str("z"),
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
    }

    #[test]
    fn total_order_is_transitive_on_mixed_numerics() {
        let a = Value::Int(1);
        let b = Value::Float(1.5);
        let c = Value::Int(2);
        assert!(a < b && b < c && a < c);
    }

    #[test]
    fn value_ref_order_is_the_engine_order() {
        let two53 = 1i64 << 53;
        let ascending = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(-1e19),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Float(-0.5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(two53),
            Value::Int(two53 + 1),
            Value::Int(i64::MAX),
            Value::Float(1e19),
            Value::str(""),
            Value::str("B"),
            Value::str("a"),
            Value::str("é"),
        ];
        for (i, a) in ascending.iter().enumerate() {
            for (j, b) in ascending.iter().enumerate() {
                assert_eq!(a.view().cmp(&b.view()), i.cmp(&j), "{a:?} vs {b:?}");
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
        // Int × Int is exact; a Float on either side widens the Int.
        let (big, wide) = (Value::Int(two53 + 1), Value::Float(two53 as f64));
        assert_eq!(big.cmp(&Value::Int(two53)), Ordering::Greater);
        assert_eq!(big.cmp(&wide), Ordering::Equal);
        assert_eq!(wide.view().cmp(&big.view()), Ordering::Equal);
    }

    #[test]
    fn sql_eq_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn sql_cmp_incomparable_types_is_none() {
        assert_eq!(Value::Bool(true).sql_cmp(&Value::str("x")), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("x")), None);
    }

    #[test]
    fn sql_cmp_numeric_across_types() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(0.25).to_string(), "0.25");
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::str("Bryant").to_string(), "Bryant");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn data_types_unify() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(
            DataType::Unknown.unify(DataType::Text),
            Some(DataType::Text)
        );
        assert_eq!(DataType::Bool.unify(DataType::Int), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
    }
}
