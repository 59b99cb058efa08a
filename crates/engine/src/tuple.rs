//! Tuples: the row view of a relation.
//!
//! # Sharing invariants (zero-clone execution core)
//!
//! A [`Tuple`] is an immutable **view into a reference-counted value
//! buffer**: `(Arc<[Value]>, start, len)`. Cloning a tuple is a refcount
//! bump, never a copy of the values, so operators are free to route the
//! *same* physical row through filters, sorts, joins, and duplicate
//! elimination without duplicating data. Nothing may mutate a row after
//! construction — there is deliberately no `&mut` accessor. Equality,
//! ordering, and hashing are over the logical value slice, so tuples from
//! different buffers compare like plain rows.
//!
//! Inside the engine relations are column batches (`URelation` in
//! `maybms-urel`); tuples are the row view handed to code that walks
//! rows. That view is assembled through a [`TupleBatch`], which packs
//! many rows into one shared buffer — one `Arc` allocation per
//! [`TupleBatch::CHUNK_VALUES`] values instead of one per row. Because
//! every row of a chunk keeps the whole chunk alive, batches seal their
//! buffer at a bounded chunk size: a row kept alone retains at most one
//! chunk, not an unbounded ancestor buffer.

use std::fmt;
use std::sync::Arc;

use crate::types::Value;

/// A single row of values: a cheap-to-clone view into a shared buffer
/// (see the module docs for the sharing invariants).
#[derive(Debug, Clone)]
pub struct Tuple {
    buf: Arc<[Value]>,
    start: u32,
    len: u32,
}

impl Tuple {
    /// Build from values (the row owns its whole buffer).
    pub fn new(values: Vec<Value>) -> Tuple {
        let buf: Arc<[Value]> = values.into();
        Tuple {
            start: 0,
            len: buf.len() as u32,
            buf,
        }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.buf[self.start as usize..(self.start + self.len) as usize]
    }

    /// Value at column `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.len as usize
    }
}

// Comparisons and hashing are over the logical slice, independent of which
// buffer backs the row.
impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Bulk row builder: packs many new rows into shared value buffers.
///
/// A row view builds one fresh row per tuple; allocating an `Arc` per
/// row would dominate its cost. A `TupleBatch`
/// appends row values into a growing buffer and *seals* it into one shared
/// `Arc<[Value]>` every [`TupleBatch::CHUNK_VALUES`] values; the emitted
/// [`Tuple`]s are views into the sealed chunks. See the module docs for
/// the retention trade-off that motivates chunking.
#[derive(Debug, Default)]
pub struct TupleBatch {
    values: Vec<Value>,
    /// `(start, len)` of each pending row within `values`.
    rows: Vec<(u32, u32)>,
    /// Rows already sealed into shared chunks.
    done: Vec<Tuple>,
    /// Governor working-memory tally: charged per sealed chunk, credited
    /// when the batch is dropped (enforced only at morsel boundaries).
    charge: maybms_gov::MemCharge,
}

impl TupleBatch {
    /// Values per sealed chunk (soft bound; a row never spans chunks).
    pub const CHUNK_VALUES: usize = 4096;

    /// Empty batch.
    pub fn new() -> TupleBatch {
        TupleBatch::default()
    }

    /// Start a new row; subsequent [`TupleBatch::push_value`] calls append
    /// to it. Seals the current chunk when it is full.
    pub fn begin_row(&mut self) {
        if self.values.len() >= Self::CHUNK_VALUES {
            self.seal();
        }
        let start = self.values.len() as u32;
        self.rows.push((start, 0));
    }

    /// Append one value to the row opened by [`TupleBatch::begin_row`].
    pub fn push_value(&mut self, v: Value) {
        self.values.push(v);
        self.rows.last_mut().expect("begin_row before push_value").1 += 1;
    }

    /// Seal the pending chunk: move its values into one shared buffer and
    /// emit the pending rows as views.
    fn seal(&mut self) {
        if self.rows.is_empty() {
            self.values.clear();
            return;
        }
        let buf: Arc<[Value]> = std::mem::take(&mut self.values).into();
        self.charge.add(buf.len() * std::mem::size_of::<Value>());
        for &(start, len) in &self.rows {
            self.done.push(Tuple {
                buf: buf.clone(),
                start,
                len,
            });
        }
        self.rows.clear();
    }

    /// Finish: seal the last chunk and return all rows.
    pub fn finish(mut self) -> Vec<Tuple> {
        self.seal();
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_display() {
        let t = Tuple::new(vec![1.into(), "x".into()]);
        assert_eq!(t.to_string(), "(1, x)");
    }

    #[test]
    fn batch_rows_equal_individually_built_tuples() {
        let mut batch = TupleBatch::new();
        batch.begin_row();
        for v in [1.into(), 2.into(), "x".into()] {
            batch.push_value(v);
        }
        batch.begin_row();
        batch.push_value(7.into());
        batch.begin_row(); // empty row
        let rows = batch.finish();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], Tuple::new(vec![1.into(), 2.into(), "x".into()]));
        assert_eq!(rows[1], Tuple::new(vec![7.into()]));
        assert_eq!(rows[2].arity(), 0);
    }

    #[test]
    fn batch_seals_across_chunks() {
        // Force several chunk seals and verify every row survives intact.
        let mut batch = TupleBatch::new();
        let n = TupleBatch::CHUNK_VALUES; // 2 values per row -> n/2 rows per chunk
        for i in 0..n {
            batch.begin_row();
            batch.push_value(Value::Int(i as i64));
            batch.push_value(Value::Int((i * 2) as i64));
        }
        let rows = batch.finish();
        assert_eq!(rows.len(), n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.values(),
                &[Value::Int(i as i64), Value::Int((i * 2) as i64)]
            );
        }
    }

    #[test]
    fn tuples_from_different_buffers_compare_by_value() {
        use std::collections::HashSet;
        let owned = Tuple::new(vec![1.into(), 2.into()]);
        let mut batch = TupleBatch::new();
        batch.begin_row();
        batch.push_value(1.into());
        batch.push_value(2.into());
        let batched = batch.finish().pop().unwrap();
        assert_eq!(owned, batched);
        assert_eq!(owned.cmp(&batched), std::cmp::Ordering::Equal);
        let mut set = HashSet::new();
        set.insert(owned);
        assert!(set.contains(&batched));
    }
}
