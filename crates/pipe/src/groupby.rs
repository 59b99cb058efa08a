//! Morsel-local grouped aggregation with a deterministic merge — the
//! grouped-aggregation **breaker**, sibling of [`crate::build`].
//!
//! The grouping *is* the pipeline's sink: each morsel hands its
//! surviving rows over as column batches, every row's group comes from
//! the key columns — dictionary codes through a per-morsel code map (a
//! vector unless the dictionary is far larger than the batch, else
//! hashed), `i64`s through a hash map, any other key shape as `Value`
//! keys built from the key columns alone — and the caller's fold takes
//! the whole batch ([`GroupedBatch`]). No `Value` row is built. The
//! morsels' private [`GroupTable`]s merge **in morsel order**:
//!
//! * a key's first-seen position is decided by the earliest morsel that
//!   contains it, so the merged key order equals the sequential scan's
//!   first-seen order at any thread count or morsel size;
//! * two states for the same key merge with a caller-supplied `merge`
//!   (e.g. [`AggState::merge`](maybms_engine::ops::AggState::merge)),
//!   whose contract is that fold-then-merge equals folding the
//!   concatenated rows — float sums use
//!   [`ExactSum`](maybms_engine::ops::ExactSum) to make that hold
//!   bit-for-bit.
//!
//! The state type is the caller's: `maybms-core` reaches this module
//! through [`UStream::collect_grouped`](crate::UStream::collect_grouped)
//! with an accumulator holding member WSDs (for the per-group `conf()`
//! fan-out), running `esum`/`ecount` partial sums and typed folds of
//! the standard aggregates.

use std::borrow::Cow;
use std::sync::Arc;

use maybms_engine::hash::{fast_hash_one, FastMap};
use maybms_engine::vector::{self, KernelCounts};
use maybms_engine::{Column, ColumnBatch, ColumnData, EngineError, Expr, StrDict, Value};
use maybms_obs::PipelineStats;
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation, UrelError, Wsd};

use crate::fuse::{self, MorselSink, Stage};

/// A hashed group → state table in first-seen key order.
///
/// Keys are staged in a caller scratch buffer and cloned only when they
/// open a *new* group ([`GroupTable::entry`]), so grouping allocates per
/// group, not per row. [`GroupTable::merge_in`] absorbs a later
/// (higher-morsel) table deterministically.
#[derive(Debug)]
pub struct GroupTable<A> {
    /// key hash → indices into `keys`/`states` (equality-verified).
    buckets: FastMap<u64, Vec<u32>>,
    /// Group keys in first-seen order.
    keys: Vec<Vec<Value>>,
    /// One state per group, parallel to `keys`.
    states: Vec<A>,
    /// Governor working-memory tally: charged once per opened group
    /// (never per row), credited when the table drops.
    charge: maybms_gov::MemCharge,
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

    /// The state for `key`, opening a new group (cloning the key and
    /// calling `new_state`) on first sight.
    pub fn entry(&mut self, key: &[Value], new_state: impl FnOnce() -> A) -> &mut A {
        let g = self.group_of(key, new_state);
        &mut self.states[g as usize]
    }

    /// The index of `key`'s group, opening it on first sight.
    fn group_of(&mut self, key: &[Value], new_state: impl FnOnce() -> A) -> u32 {
        let h = fast_hash_one(key);
        let bucket = self.buckets.entry(h).or_default();
        match bucket.iter().find(|&&g| self.keys[g as usize] == key) {
            Some(&g) => g,
            None => {
                let g = self.keys.len() as u32;
                bucket.push(g);
                self.keys.push(key.to_vec());
                self.states.push(new_state());
                self.charge.add(Self::group_bytes(key.len()));
                g
            }
        }
    }

    /// Absorb a **later** table: `other`'s groups are visited in its
    /// first-seen order; a key already present merges states (`self`'s
    /// state is the earlier one), a new key appends. Merging tables in
    /// morsel order therefore reproduces the sequential first-seen key
    /// order exactly.
    pub fn merge_in(
        &mut self,
        other: GroupTable<A>,
        mut merge: impl FnMut(&mut A, A) -> Result<()>,
    ) -> Result<()> {
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

/// One batch of rows for a grouped fold (the `fold` of
/// [`UStream::collect_grouped`](crate::UStream::collect_grouped)).
#[derive(Debug, Clone, Copy)]
pub struct GroupedBatch<'a> {
    /// Each row's group — an index into the fold's states — for the
    /// batch's first `groups.len()` rows, the only ones to fold (a key
    /// expression raised at the next one).
    pub groups: &'a [u32],
    /// The rows, in the pipeline's output shape.
    pub batch: &'a ColumnBatch,
    /// The rows' conditions; `None` when every one is the tautology.
    pub wsds: Option<&'a [Wsd]>,
}

/// Per-morsel caches from a single key column's typed value to its
/// group. They only shortcut [`GroupTable::group_of`], so a cache that
/// misses — or is dropped when the next batch's key column is another
/// dictionary or type — never changes a group.
enum KeyCache {
    Empty,
    /// Dictionary code → group, for one dictionary: a dense vector when
    /// the dictionary is not far larger than the batch, else hashed.
    Dense(Arc<StrDict>, Vec<u32>),
    Hashed(Arc<StrDict>, FastMap<u32, u32>),
    Ints(FastMap<i64, u32>),
}

/// The grouped morsel sink: evaluates the (bound) key expressions over
/// each batch, resolves every row's group, and hands the batch to the
/// caller's fold.
struct GroupSink<'a, A, NF, FF> {
    table: GroupTable<A>,
    key_exprs: &'a [Expr],
    new_state: &'a NF,
    fold: &'a FF,
    cache: KeyCache,
    /// The NULL key's group, once opened.
    null_group: Option<u32>,
}

impl<A, NF, FF> GroupSink<'_, A, NF, FF>
where
    NF: Fn() -> A,
{
    /// The group of each of the first `n` rows, keyed by `keys`.
    fn group_ids(&mut self, keys: &[Cow<'_, Column>], n: usize) -> Vec<u32> {
        let new_state = self.new_state;
        let table = &mut self.table;
        let mut ids = Vec::with_capacity(n);
        let col = match keys {
            [] if n > 0 => return vec![table.group_of(&[], new_state); n],
            [col] => col,
            _ => {
                // Any other key shape: `Value` keys from the key columns.
                let mut key = Vec::with_capacity(keys.len());
                for j in 0..n {
                    key.clear();
                    key.extend(keys.iter().map(|c| c.value_at(j)));
                    ids.push(table.group_of(&key, new_state));
                }
                return ids;
            }
        };
        match (col.data(), &mut self.cache) {
            (ColumnData::Dict { dict, .. }, KeyCache::Dense(d, _) | KeyCache::Hashed(d, _))
                if Arc::ptr_eq(dict, d) => {}
            (ColumnData::Dict { dict, .. }, cache) => {
                *cache = match dict.len() <= 4 * n.max(256) {
                    true => KeyCache::Dense(dict.clone(), vec![u32::MAX; dict.len()]),
                    false => KeyCache::Hashed(dict.clone(), FastMap::default()),
                }
            }
            (ColumnData::Int(_), KeyCache::Ints(_)) => {}
            (ColumnData::Int(_), cache) => *cache = KeyCache::Ints(FastMap::default()),
            _ => {}
        }
        let null_group = &mut self.null_group;
        for j in 0..n {
            let g = match (col.data(), &mut self.cache) {
                _ if col.is_null(j) => {
                    *null_group.get_or_insert_with(|| table.group_of(&[Value::Null], new_state))
                }
                (ColumnData::Dict { codes, dict }, KeyCache::Dense(_, map)) => {
                    let slot = &mut map[codes[j] as usize];
                    if *slot == u32::MAX {
                        *slot =
                            table.group_of(&[Value::Str(dict.get(codes[j]).clone())], new_state);
                    }
                    *slot
                }
                (ColumnData::Dict { codes, dict }, KeyCache::Hashed(_, map)) => {
                    *map.entry(codes[j]).or_insert_with(|| {
                        table.group_of(&[Value::Str(dict.get(codes[j]).clone())], new_state)
                    })
                }
                (ColumnData::Int(v), KeyCache::Ints(map)) => *map
                    .entry(v[j])
                    .or_insert_with(|| table.group_of(&[Value::Int(v[j])], new_state)),
                _ => table.group_of(&[col.value_at(j)], new_state),
            };
            ids.push(g);
        }
        ids
    }
}

impl<A, NF, FF> MorselSink for GroupSink<'_, A, NF, FF>
where
    NF: Fn() -> A,
    FF: Fn(&mut [A], &GroupedBatch<'_>, &mut KernelCounts) -> Result<()>,
{
    fn push_batch(
        &mut self,
        batch: ColumnBatch,
        wsds: Option<Vec<Wsd>>,
        kernels: &mut KernelCounts,
    ) -> Result<()> {
        // Keys are evaluated left to right within a row, before the fold:
        // the first key error is the earliest row's leftmost, and only
        // the rows before it fold.
        let (mut n, mut pending) = (batch.rows(), None);
        let mut keys = Vec::with_capacity(self.key_exprs.len());
        for e in self.key_exprs {
            let (col, err) = vector::eval_batch(e, &batch, kernels);
            if let Some((k, er)) = err.filter(|(k, _)| *k < n) {
                (n, pending) = (k, Some(er));
            }
            keys.push(col);
        }
        let groups = self.group_ids(&keys, n);
        let rows = GroupedBatch {
            groups: &groups,
            batch: &batch,
            wsds: wsds.as_deref(),
        };
        (self.fold)(&mut self.table.states, &rows, kernels)?;
        pending.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Run a fused stage chain with grouped aggregation as the terminal
/// sink: per-morsel [`GroupTable`]s, merged in morsel order, the merged
/// group count tallied into `stats`. Returns `(keys, states)` in
/// first-seen order.
///
/// A run that fails is repeated as one morsel, and that run's error is
/// returned: it is the scalar walk's first error. Split runs can meet
/// another one first — a state may only fail when a later morsel's state
/// merges into it (`min` / `max` over text in one morsel and numbers in
/// the next), after a later row's error has already ended the run.
/// Governor aborts are returned as they are.
///
/// With no key expressions, a single global group is guaranteed (even
/// over an empty input — SQL's scalar-aggregate behaviour).
#[allow(clippy::too_many_arguments)]
pub(crate) fn group_stream<A, NF, FF, MF>(
    source: &URelation,
    stages: &[Stage],
    key_exprs: &[Expr],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    new_state: NF,
    fold: FF,
    mut merge: MF,
) -> Result<(Vec<Vec<Value>>, Vec<A>)>
where
    A: Send,
    NF: Fn() -> A + Sync,
    FF: Fn(&mut [A], &GroupedBatch<'_>, &mut KernelCounts) -> Result<()> + Sync,
    MF: FnMut(&mut A, A) -> Result<()>,
{
    let mut run = |min_morsel: usize, stats: &PipelineStats| -> Result<GroupTable<A>> {
        let sinks = fuse::run_sink(source, stages, pool, min_morsel, stats, || GroupSink {
            table: GroupTable::new(),
            key_exprs,
            new_state: &new_state,
            fold: &fold,
            cache: KeyCache::Empty,
            null_group: None,
        })?;
        let mut merged = GroupTable::new();
        for sink in sinks {
            merged.merge_in(sink.table, &mut merge)?;
        }
        Ok(merged)
    };
    let mut merged = match run(min_morsel, stats) {
        Err(e) if !matches!(e, UrelError::Engine(EngineError::Gov(_))) => {
            // The repeat is not this pipeline's record: its tally goes
            // nowhere.
            let unrecorded = PipelineStats::new("", vec![String::new(); stages.len()]);
            return Err(run(source.len().max(1), &unrecorded).err().unwrap_or(e));
        }
        merged => merged?,
    };
    if key_exprs.is_empty() && merged.is_empty() {
        merged.entry(&[], &new_state);
    }
    stats.groups.add(merged.len() as u64);
    Ok(merged.into_parts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::error::EngineError;

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
                        Ok(())
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
        let err = a.merge_in(b, |_, _| {
            Err(EngineError::TypeMismatch {
                message: "boom".into(),
            }
            .into())
        });
        assert!(err.is_err());
    }
}
