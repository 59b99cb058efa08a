//! Join-key hashing and equality — the value-level half of the hash
//! join. The probe stage and the morsel-local build table that use
//! these live in `maybms-pipe`.

use std::hash::{Hash, Hasher};

use crate::hash::{fast_hash_one, FastHasher};
use crate::types::Value;

/// Hash of a row's key columns, or `None` if any key is NULL (SQL
/// equality: NULL never joins). `Value`'s `Hash` is consistent with its
/// numeric cross-type equality, so equal keys always collide.
pub fn join_key_hash(values: &[Value], keys: &[usize]) -> Option<u64> {
    let mut h = FastHasher::default();
    for &i in keys {
        let v = &values[i];
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Columnar single-key hash: hash one key `Value` directly, with no
/// per-row key-slice dispatch. Produces the same hash as
/// [`join_key_hash`] over a one-element key list, so the two paths can be
/// mixed freely across the build and probe sides.
#[inline]
pub fn single_key_hash(v: &Value) -> Option<u64> {
    if v.is_null() {
        None
    } else {
        Some(fast_hash_one(v))
    }
}

/// Verify hashed candidates: positional key equality between two rows.
pub fn join_keys_eq(
    left: &[Value],
    left_keys: &[usize],
    right: &[Value],
    right_keys: &[usize],
) -> bool {
    left_keys.iter().zip(right_keys).all(|(&i, &j)| left[i] == right[j])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_hash_agrees_with_slice_hash() {
        for v in [Value::Int(7), Value::Float(7.0), Value::str("x"), Value::Bool(true)] {
            assert_eq!(single_key_hash(&v), join_key_hash(std::slice::from_ref(&v), &[0]));
        }
        assert_eq!(single_key_hash(&Value::Null), None);
    }
}
