//! Hash grouping: the one implementation behind `GROUP BY`, `DISTINCT`,
//! `select possible` and `repair key`.
//!
//! A [`GroupTable`] maps group keys — rows of [`Value`]s — to a caller
//! state, in first-seen key order. [`GroupTable::group_batch`] evaluates
//! key expressions over a [`ColumnBatch`] and resolves every row's group
//! from the key columns: dictionary codes through a code map (a vector
//! unless the dictionary is far larger than the batch, else hashed),
//! one `Int` column's `i64`s through a hash map, NULL through one
//! remembered group, and any other key shape by hashing and comparing its
//! cells as [`ValueRef`]s, exactly as
//! `fast_hash_one(&[Value])` and `Value` equality would — a key of
//! several `Int` columns from their `i64` slices, without reading a cell.
//! A key is built only for a new group; no `Value` row is built.
//!
//! Tables merge deterministically ([`GroupTable::merge_in`]): absorbing
//! tables in input order reproduces the sequential first-seen key order,
//! which is how `maybms-pipe`'s grouped breaker folds its morsels in
//! parallel and still returns the sequential scan's groups.

use std::borrow::Cow;
use std::sync::Arc;

use crate::column::{Column, ColumnBatch, ColumnData, StrDict};
use crate::error::EngineError;
use crate::expr::Expr;
use std::hash::{Hash, Hasher};

use crate::hash::{fast_hash_one, FastHasher, FastMap};
use crate::types::{Value, ValueRef};
use crate::vector::{self, KernelCounts};

/// A hashed group → state table in first-seen key order.
///
/// Keys are staged in a scratch buffer and cloned only when they open a
/// *new* group, so grouping allocates per group, not per row.
/// [`GroupTable::merge_in`] absorbs a later table deterministically.
#[derive(Debug)]
pub struct GroupTable<A> {
    /// key hash → indices into `keys`/`states` (equality-verified).
    buckets: FastMap<u64, Vec<u32>>,
    /// Group keys in first-seen order.
    keys: Vec<Vec<Value>>,
    /// One state per group, parallel to `keys`.
    states: Vec<A>,
    /// Single-column key caches of [`GroupTable::group_batch`].
    cache: KeyCache,
    /// The NULL key's group, once [`GroupTable::group_batch`] opened it.
    null_group: Option<u32>,
    /// Governor working-memory tally: charged once per opened group
    /// (never per row), credited when the table drops.
    charge: maybms_gov::MemCharge,
}

/// Caches from a single key column's typed value to its group. They only
/// shortcut [`GroupTable::group_of`], so a cache that misses — or is
/// dropped when the next batch's key column is another dictionary or
/// type — never changes a group.
#[derive(Debug)]
enum KeyCache {
    Empty,
    /// Dictionary code → group, for one dictionary: a dense vector when
    /// the dictionary is not far larger than the batch, else hashed.
    Dense(Arc<StrDict>, Vec<u32>),
    Hashed(Arc<StrDict>, FastMap<u32, u32>),
    Ints(FastMap<i64, u32>),
}

impl<A> Default for GroupTable<A> {
    fn default() -> Self {
        GroupTable::new()
    }
}

impl<A> GroupTable<A> {
    /// An empty table.
    pub fn new() -> GroupTable<A> {
        GroupTable {
            buckets: Default::default(),
            keys: Vec::new(),
            states: Vec::new(),
            cache: KeyCache::Empty,
            null_group: None,
            charge: maybms_gov::MemCharge::new(),
        }
    }

    /// Approximate bytes one group of `key_len` key values occupies.
    fn group_bytes(key_len: usize) -> usize {
        key_len * std::mem::size_of::<Value>()
            + std::mem::size_of::<Vec<Value>>()
            + std::mem::size_of::<A>()
            + std::mem::size_of::<u32>()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no group has been opened.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The states, one per group, in first-seen order — what a fold
    /// indexes with the group ids of [`GroupTable::group_batch`].
    pub fn states_mut(&mut self) -> &mut [A] {
        &mut self.states
    }

    /// The state for `key`, opening a new group (cloning the key and
    /// calling `new_state`) on first sight.
    pub fn entry(&mut self, key: &[Value], new_state: impl FnOnce() -> A) -> &mut A {
        let g = self.group_of(key, new_state);
        &mut self.states[g as usize]
    }

    /// The index of `key`'s group, opening it on first sight.
    fn group_of(&mut self, key: &[Value], new_state: impl FnOnce() -> A) -> u32 {
        let found = |k: &[Value]| k == key;
        self.group_hashed(fast_hash_one(key), found, || key.to_vec(), new_state)
    }

    /// The group of row `j` of the key columns `keys`: its cells hashed
    /// and compared in place, the key built only for a new group.
    fn group_of_row(
        &mut self,
        keys: &[Cow<'_, Column>],
        j: usize,
        new_state: impl FnOnce() -> A,
    ) -> u32 {
        let key = || keys.iter().map(|c| c.value_at(j)).collect();
        self.group_of_cells(keys.len(), |c| keys[c].cell(j), key, new_state)
    }

    /// The group of the key whose `n` cells `cell` reads, hashed and
    /// compared as [`ValueRef`]s — what `fast_hash_one(&[Value])` hashes
    /// (the length, then each value) and `Value` equality compares —
    /// with `key()` built only for a new group.
    fn group_of_cells<'c>(
        &mut self,
        n: usize,
        cell: impl Fn(usize) -> ValueRef<'c>,
        key: impl FnOnce() -> Vec<Value>,
        new_state: impl FnOnce() -> A,
    ) -> u32 {
        let mut h = FastHasher::default();
        h.write_usize(n);
        (0..n).for_each(|c| cell(c).hash(&mut h));
        let found = |k: &[Value]| k.iter().enumerate().all(|(c, v)| v.view() == cell(c));
        self.group_hashed(h.finish(), found, key, new_state)
    }

    /// The group in bucket `h` whose key is `found`, else a new group for
    /// `key()`.
    fn group_hashed(
        &mut self,
        h: u64,
        found: impl Fn(&[Value]) -> bool,
        key: impl FnOnce() -> Vec<Value>,
        new_state: impl FnOnce() -> A,
    ) -> u32 {
        let bucket = self.buckets.entry(h).or_default();
        match bucket.iter().find(|&&g| found(&self.keys[g as usize])) {
            Some(&g) => g,
            None => {
                let key = key();
                debug_assert_eq!(h, fast_hash_one(&key[..]), "{key:?}");
                let g = self.keys.len() as u32;
                bucket.push(g);
                self.charge.add(Self::group_bytes(key.len()));
                self.keys.push(key);
                self.states.push(new_state());
                g
            }
        }
    }

    /// Group the rows of `batch` by the bound `key_exprs`, opening new
    /// groups with `new_state`. Keys are evaluated left to right within
    /// a row: the first key error is the earliest row's leftmost, and it
    /// is returned with the group of every row before it (the only rows
    /// grouped). Without key expressions every row is in one group.
    pub fn group_batch(
        &mut self,
        key_exprs: &[Expr],
        batch: &ColumnBatch,
        kernels: &mut KernelCounts,
        new_state: &impl Fn() -> A,
    ) -> (Vec<u32>, Option<EngineError>) {
        let (mut n, mut pending) = (batch.rows(), None);
        let mut keys = Vec::with_capacity(key_exprs.len());
        for e in key_exprs {
            let (col, err) = vector::eval_batch(e, batch, kernels);
            if let Some((k, er)) = err.filter(|(k, _)| *k < n) {
                (n, pending) = (k, Some(er));
            }
            keys.push(col);
        }
        (self.group_ids(&keys, n, new_state), pending)
    }

    /// The group of each of the first `n` rows, keyed by `keys`.
    fn group_ids(
        &mut self,
        keys: &[Cow<'_, Column>],
        n: usize,
        new_state: &impl Fn() -> A,
    ) -> Vec<u32> {
        let mut ids = Vec::with_capacity(n);
        let col = match keys {
            [] if n > 0 => return vec![self.group_of(&[], new_state); n],
            [col] => col,
            _ => return self.multi_column_ids(keys, n, new_state),
        };
        let mut cache = std::mem::replace(&mut self.cache, KeyCache::Empty);
        match (col.data(), &cache) {
            (ColumnData::Dict { dict, .. }, KeyCache::Dense(d, _) | KeyCache::Hashed(d, _))
                if Arc::ptr_eq(dict, d) => {}
            (ColumnData::Dict { dict, .. }, _) => {
                cache = match dict.len() <= 4 * n.max(256) {
                    true => KeyCache::Dense(dict.clone(), vec![u32::MAX; dict.len()]),
                    false => KeyCache::Hashed(dict.clone(), FastMap::default()),
                }
            }
            (ColumnData::Int(_), KeyCache::Ints(_)) => {}
            (ColumnData::Int(_), _) => cache = KeyCache::Ints(FastMap::default()),
            _ => {}
        }
        for j in 0..n {
            let g = match (col.data(), &mut cache) {
                _ if col.is_null(j) => match self.null_group {
                    Some(g) => g,
                    None => {
                        let g = self.group_of(&[Value::Null], new_state);
                        *self.null_group.insert(g)
                    }
                },
                (ColumnData::Dict { codes, dict }, KeyCache::Dense(_, map)) => {
                    let slot = &mut map[codes[j] as usize];
                    if *slot == u32::MAX {
                        *slot = self.group_of(&[Value::Str(dict.get(codes[j]).clone())], new_state);
                    }
                    *slot
                }
                (ColumnData::Dict { codes, dict }, KeyCache::Hashed(_, map)) => {
                    *map.entry(codes[j]).or_insert_with(|| {
                        self.group_of(&[Value::Str(dict.get(codes[j]).clone())], new_state)
                    })
                }
                (ColumnData::Int(v), KeyCache::Ints(map)) => *map
                    .entry(v[j])
                    .or_insert_with(|| self.group_of(&[Value::Int(v[j])], new_state)),
                _ => self.group_of_row(keys, j, new_state),
            };
            ids.push(g);
        }
        self.cache = cache;
        ids
    }

    /// [`GroupTable::group_ids`] for a key of several columns. When
    /// every key column is `Int`, a row's group is found from its `i64`s,
    /// hashed and compared as [`GroupTable::group_of_row`] does its cells
    /// (`2.0` in a group's key equals `2`), and a row with a NULL cell
    /// through `group_of_row`. No row allocates.
    fn multi_column_ids(
        &mut self,
        keys: &[Cow<'_, Column>],
        n: usize,
        new_state: &impl Fn() -> A,
    ) -> Vec<u32> {
        let ints: Option<Vec<&[i64]>> = keys
            .iter()
            .map(|c| match c.data() {
                ColumnData::Int(v) => Some(&v[..]),
                _ => None,
            })
            .collect();
        let Some(ints) = ints else {
            return (0..n)
                .map(|j| self.group_of_row(keys, j, new_state))
                .collect();
        };
        let nulls = keys.iter().any(|c| c.has_nulls());
        (0..n)
            .map(|j| {
                if nulls && keys.iter().any(|c| c.is_null(j)) {
                    return self.group_of_row(keys, j, new_state);
                }
                let key = || ints.iter().map(|v| Value::Int(v[j])).collect();
                let cell = |c: usize| ValueRef::Int(ints[c][j]);
                self.group_of_cells(ints.len(), cell, key, new_state)
            })
            .collect()
    }

    /// Absorb a **later** table: `other`'s groups are visited in its
    /// first-seen order; a key already present merges states (`self`'s
    /// state is the earlier one), a new key appends. Merging tables in
    /// input order therefore reproduces the sequential first-seen key
    /// order exactly. The first error `merge` returns ends the merge.
    pub fn merge_in<E>(
        &mut self,
        other: GroupTable<A>,
        mut merge: impl FnMut(&mut A, A) -> Result<(), E>,
    ) -> Result<(), E> {
        for (key, state) in other.keys.into_iter().zip(other.states) {
            let h = fast_hash_one(&key[..]);
            let bucket = self.buckets.entry(h).or_default();
            match bucket.iter().find(|&&g| self.keys[g as usize] == key) {
                Some(&g) => merge(&mut self.states[g as usize], state)?,
                None => {
                    bucket.push(self.keys.len() as u32);
                    self.charge.add(Self::group_bytes(key.len()));
                    self.keys.push(key);
                    self.states.push(state);
                }
            }
        }
        Ok(())
    }

    /// The keys and states, parallel, in first-seen order.
    pub fn into_parts(self) -> (Vec<Vec<Value>>, Vec<A>) {
        (self.keys, self.states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::BatchBuilder;
    use crate::expr::BinaryOp;

    fn batch(rows: &[Vec<Value>]) -> ColumnBatch {
        let mut b = BatchBuilder::new(rows.first().map_or(1, Vec::len));
        rows.iter().for_each(|r| b.push_row(r));
        b.finish()
    }

    /// Morsel-ordered merge reproduces the sequential first-seen key
    /// order and the sequential state (here: a simple count), regardless
    /// of how the rows were split into tables.
    #[test]
    fn merge_in_is_order_deterministic() {
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                vec![match i % 5 {
                    0 => Value::Null,
                    j => Value::Int(j as i64 % 3),
                }]
            })
            .collect();
        let sequential = {
            let mut t: GroupTable<u64> = GroupTable::new();
            for r in &rows {
                *t.entry(r, || 0) += 1;
            }
            t.into_parts()
        };
        for split in [1usize, 3, 7] {
            let mut merged: GroupTable<u64> = GroupTable::new();
            for chunk in rows.chunks(split) {
                let mut local: GroupTable<u64> = GroupTable::new();
                for r in chunk {
                    *local.entry(r, || 0) += 1;
                }
                merged
                    .merge_in(local, |a, b| {
                        *a += b;
                        Ok::<_, ()>(())
                    })
                    .unwrap();
            }
            let got = merged.into_parts();
            assert_eq!(got.0, sequential.0, "keys, split {split}");
            assert_eq!(got.1, sequential.1, "states, split {split}");
        }
    }

    #[test]
    fn entry_clones_key_only_once() {
        let mut t: GroupTable<u32> = GroupTable::new();
        let key = [Value::Int(7)];
        *t.entry(&key, || 0) += 1;
        *t.entry(&key, || 0) += 1;
        assert_eq!(t.len(), 1);
        let (keys, states) = t.into_parts();
        assert_eq!(keys, vec![vec![Value::Int(7)]]);
        assert_eq!(states, vec![2]);
    }

    #[test]
    fn merge_error_propagates() {
        let mut a: GroupTable<u32> = GroupTable::new();
        a.entry(&[Value::Int(1)], || 0);
        let mut b: GroupTable<u32> = GroupTable::new();
        b.entry(&[Value::Int(1)], || 0);
        assert_eq!(a.merge_in(b, |_, _| Err("boom")), Err("boom"));
    }

    /// NULL is a key of its own; `Int` and `Float` keys that compare
    /// equal share a group; groups are numbered in first-seen order, and
    /// the typed caches agree with the `Value` path.
    #[test]
    fn group_batch_first_seen_with_null_and_cross_type_keys() {
        let rows: Vec<Vec<Value>> = [
            Value::Int(2),
            Value::Null,
            Value::Float(2.0),
            Value::Int(1),
            Value::Null,
        ]
        .into_iter()
        .map(|v| vec![v])
        .collect();
        let mut t: GroupTable<()> = GroupTable::new();
        let (ids, err) = t.group_batch(
            &[Expr::ColumnIdx(0)],
            &batch(&rows),
            &mut KernelCounts::default(),
            &|| (),
        );
        assert!(err.is_none());
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        // An `Int` column takes the typed cache; the ids continue.
        let ints: Vec<Vec<Value>> = [3, 1, 3].map(|i| vec![Value::Int(i)]).to_vec();
        let (ids, _) = t.group_batch(
            &[Expr::ColumnIdx(0)],
            &batch(&ints),
            &mut KernelCounts::default(),
            &|| (),
        );
        assert_eq!(ids, vec![3, 2, 3]);
        // No keys: one group, and none over no rows.
        let mut t: GroupTable<()> = GroupTable::new();
        let (ids, _) = t.group_batch(&[], &batch(&ints), &mut KernelCounts::default(), &|| ());
        assert_eq!(ids, vec![0, 0, 0]);
        let empty = ColumnBatch::empty(1);
        let mut t: GroupTable<()> = GroupTable::new();
        let (ids, _) = t.group_batch(&[], &empty, &mut KernelCounts::default(), &|| ());
        assert!(ids.is_empty() && t.is_empty());
    }

    /// A key of two `Int` columns, grouped from its `i64`s, gets the ids
    /// `group_of_row` gives the same cells: with a NULL in either column,
    /// a key repeated in a later batch, and a later batch whose second
    /// column is `Float` (`2.0` joins `2`'s group).
    #[test]
    fn int_pair_keys_group_as_their_cells_do() {
        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        let batches: Vec<Vec<Value>> = vec![
            // (1, 2), (1, NULL), (NULL, 2), (1, 2), (2, 1), (NULL, NULL)
            [(1, 2), (1, -1), (-1, 2), (1, 2), (2, 1), (-1, -1)]
                .iter()
                .flat_map(|&(a, b)| [(a >= 0).then_some(a), (b >= 0).then_some(b)])
                .map(int)
                .collect(),
            // (2, 1) and (1, NULL) again, then new keys — (1, 0) is not
            // (1, NULL), whatever `i64` a NULL cell holds.
            [(2, 1), (1, -1), (1, 0), (3, 3)]
                .iter()
                .flat_map(|&(a, b)| [(a >= 0).then_some(a), (b >= 0).then_some(b)])
                .map(int)
                .collect(),
            // The second column as `Float`: (1, 2.0) is (1, 2)'s group.
            vec![
                Value::Int(1),
                Value::Float(2.0),
                Value::Int(3),
                Value::Float(3.5),
                Value::Int(2),
                Value::Null,
            ],
        ];
        let column = |cells: &[Value], c: usize, typed: bool| {
            let values: Vec<Value> = cells.iter().skip(c).step_by(2).cloned().collect();
            match typed {
                true => Column::from_values(values),
                false => Column::from_raw_values(values),
            }
        };
        let keys = [Expr::ColumnIdx(0), Expr::ColumnIdx(1)];
        let (mut typed, mut cells) = (GroupTable::<()>::new(), GroupTable::<()>::new());
        let mut all = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            let n = batch.len() / 2;
            let make =
                |t| ColumnBatch::from_columns(vec![column(batch, 0, t), column(batch, 1, t)], n);
            let (typed_batch, cell_batch) = (make(true), make(false));
            if b < 2 {
                assert!(matches!(typed_batch.column(1).data(), ColumnData::Int(_)));
            }
            let counts = &mut KernelCounts::default();
            let (a, _) = typed.group_batch(&keys, &typed_batch, counts, &|| ());
            let (c, _) = cells.group_batch(&keys, &cell_batch, counts, &|| ());
            assert_eq!(a, c, "batch {b}");
            all.extend(a);
        }
        assert_eq!(all, [0, 1, 2, 0, 3, 4, 3, 1, 5, 6, 0, 7, 8]);
        assert_eq!(typed.into_parts().0, cells.into_parts().0);
    }

    /// A dictionary-encoded key groups like its plain twin, and the
    /// first key error — earliest row, leftmost key — stops the grouping
    /// there.
    #[test]
    fn group_batch_dictionary_keys_and_first_error() {
        let rows: Vec<Vec<Value>> = ["b", "a", "b", "c", "a"]
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::str(s), Value::Int(i as i64 - 3)])
            .collect();
        let plain = batch(&rows);
        let keys = [Expr::ColumnIdx(0)];
        let mut counts = KernelCounts::default();
        let (a, _) = GroupTable::<()>::new().group_batch(&keys, &plain, &mut counts, &|| ());
        let dict = plain.dict_encode();
        assert!(matches!(dict.column(0).data(), ColumnData::Dict { .. }));
        let (b, _) = GroupTable::<()>::new().group_batch(&keys, &dict, &mut counts, &|| ());
        assert_eq!(a, vec![0, 1, 0, 2, 1]);
        assert_eq!(a, b);
        // `1 / v` and `1 % v` both fail at row 3 (v = 0), where the left
        // key's error wins; the text key `s + 1` fails at row 0, and the
        // earlier row wins whichever key it is in.
        let op = |op| Expr::lit(1i64).binary(op, Expr::ColumnIdx(1));
        let (div, rem) = (op(BinaryOp::Div), op(BinaryOp::Mod));
        let bad = Expr::ColumnIdx(0).binary(BinaryOp::Add, Expr::lit(1i64));
        let mut first_error = |keys: &[Expr]| {
            let (ids, err) = GroupTable::<()>::new().group_batch(keys, &plain, &mut counts, &|| ());
            (ids.len(), err.map(|e| e.to_string()))
        };
        let (n, div_err) = first_error(std::slice::from_ref(&div));
        assert_eq!(n, 3);
        assert!(div_err
            .as_deref()
            .is_some_and(|e| e.contains("division by zero")));
        assert_eq!(first_error(&[div.clone(), rem.clone()]), (3, div_err));
        let (n, rem_err) = first_error(&[rem, div.clone()]);
        assert!(n == 3 && rem_err.is_some_and(|e| e.contains("modulo by zero")));
        let (n, bad_err) = first_error(&[div, bad]);
        assert!(n == 0 && bad_err.is_some_and(|e| !e.contains("by zero")));
    }
}
