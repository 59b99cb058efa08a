//! Morsel-local grouped aggregation with a deterministic merge — the
//! grouped-aggregation **breaker**, sibling of [`crate::build`].
//!
//! Before this module, every `GROUP BY` plan materialised its full input
//! (the aggregation breaker collected the whole pipeline output, then a
//! second pass grouped it). Here the grouping *is* the sink: each morsel
//! of the fused stage chain folds its surviving rows into a **private**
//! [`GroupTable`] — hashed key → accumulator state — and the private
//! tables merge **in morsel order**:
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
//! fan-out) and running `esum`/`ecount` partial sums.

use maybms_engine::hash::{fast_hash_one, FastMap};
use maybms_engine::{Expr, Value};
use maybms_obs::PipelineStats;
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation, Wsd};

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
        let h = fast_hash_one(key);
        let bucket = self.buckets.entry(h).or_default();
        match bucket.iter().find(|&&g| self.keys[g as usize] == key) {
            Some(&g) => &mut self.states[g as usize],
            None => {
                bucket.push(self.keys.len() as u32);
                self.keys.push(key.to_vec());
                self.states.push(new_state());
                self.charge.add(Self::group_bytes(key.len()));
                self.states.last_mut().expect("just pushed")
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

    /// Open a new group, returning its index. The dense-code fast path
    /// calls this only on a key's first sight (its own dense map
    /// guarantees absence), so no bucket probe is needed — but the bucket
    /// is still maintained, keeping the table valid as a merge target.
    fn open_group(&mut self, key: Vec<Value>, state: A) -> u32 {
        let g = self.keys.len() as u32;
        self.buckets.entry(fast_hash_one(&key[..])).or_default().push(g);
        self.charge.add(Self::group_bytes(key.len()));
        self.keys.push(key);
        self.states.push(state);
        g
    }

    /// The state of group `g` (an index returned by
    /// [`GroupTable::open_group`]).
    fn state_mut(&mut self, g: u32) -> &mut A {
        &mut self.states[g as usize]
    }
}

/// The grouped morsel sink: evaluates the (bound) key expressions into a
/// scratch buffer, opens/looks up the group, and folds the row.
struct GroupSink<'a, A, NF, FF> {
    table: GroupTable<A>,
    key_exprs: &'a [Expr],
    new_state: &'a NF,
    fold: &'a FF,
    scratch: Vec<Value>,
}

impl<A, NF, FF> MorselSink for GroupSink<'_, A, NF, FF>
where
    NF: Fn() -> A,
    FF: Fn(&mut A, &[Value], &Wsd) -> Result<()>,
{
    fn push(&mut self, row: &[Value], wsd: &Wsd) -> Result<()> {
        self.scratch.clear();
        for e in self.key_exprs {
            self.scratch.push(e.eval_values(row)?);
        }
        let state = self.table.entry(&self.scratch, self.new_state);
        (self.fold)(state, row, wsd)
    }
}

/// Run a fused stage chain with grouped aggregation as the terminal
/// sink: per-morsel [`GroupTable`]s, merged in morsel order, the merged
/// group count tallied into `stats`. Returns `(keys, states)` in
/// first-seen order.
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
    FF: Fn(&mut A, &[Value], &Wsd) -> Result<()> + Sync,
    MF: FnMut(&mut A, A) -> Result<()>,
{
    let mut merged = GroupTable::new();
    if let Some(tables) =
        dense_dict_groups(source, stages, key_exprs, pool, min_morsel, stats, &new_state, &fold)?
    {
        for table in tables {
            merged.merge_in(table, &mut merge)?;
        }
    } else {
        let sinks =
            fuse::run_sink(source, stages, pool, min_morsel, stats, || GroupSink {
                table: GroupTable::new(),
                key_exprs,
                new_state: &new_state,
                fold: &fold,
                scratch: Vec::with_capacity(key_exprs.len()),
            })?;
        for sink in sinks {
            merged.merge_in(sink.table, &mut merge)?;
        }
    }
    if key_exprs.is_empty() && merged.is_empty() {
        merged.entry(&[], &new_state);
    }
    stats.groups.add(merged.len() as u64);
    Ok(merged.into_parts())
}

/// The dictionary-code grouped fold: a stage-less pipeline grouping a
/// columnar-at-rest source by one dictionary-encoded column resolves
/// each row's group through a **dense code → group map** (one slot per
/// dictionary entry, NULLs in their own slot) instead of evaluating,
/// hashing, and comparing the key string — the key `Value` is built once
/// per *group*, not per row. Rows are written straight out of the column
/// batch ([`maybms_engine::ColumnBatch::write_row`]): the lazy row view
/// is never materialised and nothing pivots.
///
/// Returns `None` when the shape doesn't apply (any recorded stage, a
/// non-columnar source, multiple or non-column keys, a non-dictionary
/// key column). It runs on the same morsel driver as every pipeline
/// (governor checkpoint per morsel included), and determinism matches the
/// hashed sink exactly: per-morsel first-seen group order, tables merged
/// in morsel order.
#[allow(clippy::too_many_arguments)]
fn dense_dict_groups<A, NF, FF>(
    source: &URelation,
    stages: &[Stage],
    key_exprs: &[Expr],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    new_state: &NF,
    fold: &FF,
) -> Result<Option<Vec<GroupTable<A>>>>
where
    A: Send,
    NF: Fn() -> A + Sync,
    FF: Fn(&mut A, &[Value], &Wsd) -> Result<()> + Sync,
{
    let [Expr::ColumnIdx(k)] = key_exprs else { return Ok(None) };
    if !stages.is_empty() {
        return Ok(None);
    }
    let Some((batch, wsds)) = source.at_rest() else { return Ok(None) };
    let col = batch.column(*k);
    let maybms_engine::ColumnData::Dict { codes, dict } = col.data() else {
        return Ok(None);
    };
    let tables = fuse::drive(fuse::candidate_ranges(source, stages, stats), pool, min_morsel, stats, |range, _| {
        let mut table: GroupTable<A> = GroupTable::new();
        let mut dense: Vec<u32> = vec![u32::MAX; dict.len()];
        let mut null_group = u32::MAX;
        let mut rowbuf: Vec<Value> = Vec::new();
        for i in range {
            let g = if col.is_null(i) {
                if null_group == u32::MAX {
                    null_group = table.open_group(vec![Value::Null], new_state());
                }
                null_group
            } else {
                let c = codes[i] as usize;
                if dense[c] == u32::MAX {
                    let key = Value::Str(dict.get(codes[i]).clone());
                    dense[c] = table.open_group(vec![key], new_state());
                }
                dense[c]
            };
            batch.write_row(i, &mut rowbuf);
            fold(table.state_mut(g), &rowbuf, &wsds[i])?;
        }
        Ok(table)
    })?;
    Ok(Some(tables))
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
            Err(EngineError::TypeMismatch { message: "boom".into() }.into())
        });
        assert!(err.is_err());
    }
}
