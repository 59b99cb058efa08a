//! Column-major morsels: typed column vectors with null bitmaps.
//!
//! The row-major execution core shuttles `Vec<Value>` rows through every
//! fused stage, paying the `Value` enum tag (and its match dispatch) per
//! cell per operator. Following MonetDB/X100-style vectorised execution,
//! a [`ColumnBatch`] stores one *morsel* of rows column-major: each
//! [`Column`] is a typed vector (`Vec<i64>`, `Vec<f64>`, …) plus a
//! [`NullMask`] bitmap, so the vectorised kernels in [`crate::vector`]
//! run tight monomorphic loops over primitive slices instead of matching
//! on `Value` per cell.
//!
//! # Representation invariants
//!
//! * A typed column ([`ColumnData::Int`] / `Float` / `Bool` / `Str`)
//!   holds **only values of that one variant**; NULL slots hold a
//!   placeholder and are marked in the mask. Columns whose rows mix
//!   variants (legal — `Value` is dynamically typed and `1 = 1.0`) fall
//!   back to [`ColumnData::Values`], where the per-row `Value` is
//!   authoritative. This keeps the row ↔ column pivot a *bijection*:
//!   `value_at` returns the exact `Value` that was pivoted in, variant
//!   included (an `Int(1)` never comes back as `Float(1.0)` — `Concat`
//!   and `CAST` observe the variant).
//! * [`ColumnData::Const`] broadcasts one value (vectorised literals,
//!   all-NULL columns) without materialising it per row.
//! * Float bits are preserved exactly (no normalisation on pivot), so
//!   columnar execution is bit-identical to the row path.
//! * [`ColumnData::Dict`] stores strings dictionary-encoded: a shared,
//!   insertion-ordered [`StrDict`] of distinct `Arc<str>` entries plus a
//!   `u32` code per row. Within one column, code equality ⇔ string
//!   equality, so hashing / comparing / grouping can run over codes.
//!   `value_at` decodes to the exact `Arc<str>` that was encoded (an
//!   `Arc` bump), keeping the bijection.
//!
//! A batch at rest in the catalog is also what DML edits:
//! [`ColumnBatch::append`], [`ColumnBatch::set_cells`] and
//! [`ColumnBatch::delete_rows`] change it in place, keeping every
//! invariant above — the result is the batch a fresh pivot of the edited
//! rows would build, except that dictionary entries no row uses any more
//! stay interned.
//!
//! Every call to [`ColumnBatch::pivot`] bumps the process-wide
//! `maybms_pipe_pivots_total` / `maybms_pipe_pivot_rows_total` counters,
//! so "zero pivots end-to-end" is an observable claim, not an intention.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::hash::FastMap;
use crate::tuple::TupleBatch;
use crate::types::{Value, ValueRef};

/// A null bitmap: bit `i` set ⇔ row `i` is NULL. Empty (no words) means
/// "no nulls", the common fast path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    bits: Vec<u64>,
}

impl NullMask {
    /// A mask with no nulls.
    pub fn none() -> NullMask {
        NullMask::default()
    }

    /// Is row `i` null?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.bits
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Mark row `i` null.
    #[inline]
    pub fn set_null(&mut self, i: usize) {
        let word = i / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (i % 64);
    }

    /// Mark row `i` non-null. Trailing all-clear words are trimmed, so
    /// equal masks stay structurally equal.
    pub fn clear(&mut self, i: usize) {
        if let Some(w) = self.bits.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
            self.trim();
        }
    }

    fn trim(&mut self) {
        while self.bits.last() == Some(&0) {
            self.bits.pop();
        }
    }

    /// True iff any row is null. O(words), with the empty-mask fast path.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|w| *w != 0)
    }

    /// Drop the rows at `positions` (strictly increasing), shifting later
    /// rows down. O(nulls · log positions): only set bits are visited.
    pub fn delete_rows(&mut self, positions: &[u32]) {
        let mut out = NullMask::none();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let i = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let below = positions.partition_point(|&p| (p as usize) < i);
                if positions.get(below).is_none_or(|&p| p as usize != i) {
                    out.set_null(i - below);
                }
            }
        }
        *self = out;
    }

    /// Mask for the rows at `sel`, in that order.
    pub fn gather(&self, sel: &[u32]) -> NullMask {
        let mut out = NullMask::none();
        if self.any() {
            for (j, &i) in sel.iter().enumerate() {
                if self.is_null(i as usize) {
                    out.set_null(j);
                }
            }
        }
        out
    }

    /// Mark the nulls among `other`'s first `len` rows, shifted down by
    /// `at` rows (appending a column of `len` rows at row `at`).
    fn append(&mut self, other: &NullMask, at: usize, len: usize) {
        for (w, &word) in other.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let i = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if i < len {
                    self.set_null(at + i);
                }
            }
        }
    }

    /// Mask for the contiguous rows `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> NullMask {
        let mut out = NullMask::none();
        if self.any() {
            for j in 0..len {
                if self.is_null(start + j) {
                    out.set_null(j);
                }
            }
        }
        out
    }
}

/// An insertion-ordered dictionary of distinct strings, shared by every
/// slice of a dictionary-encoded column via `Arc`.
///
/// Codes are assigned in first-appearance order, so encoding is
/// deterministic for a given row order. Per-entry derived data (the
/// precomputed key hashes joins and grouping use) is cached once per
/// dictionary lifetime behind a [`OnceLock`].
#[derive(Debug, Default)]
pub struct StrDict {
    entries: Vec<Arc<str>>,
    lookup: FastMap<Arc<str>, u32>,
    hashes: OnceLock<Vec<u64>>,
}

// A clone is a new dictionary lifetime: it may diverge from the original
// (copy-on-write DML interns into it), so the cached hashes start cold.
impl Clone for StrDict {
    fn clone(&self) -> StrDict {
        StrDict {
            entries: self.entries.clone(),
            lookup: self.lookup.clone(),
            hashes: OnceLock::new(),
        }
    }
}

impl PartialEq for StrDict {
    fn eq(&self, other: &StrDict) -> bool {
        self.entries == other.entries
    }
}

impl StrDict {
    /// An empty dictionary.
    pub fn new() -> StrDict {
        StrDict::default()
    }

    /// The code for `s`, interning it on first sight. A new entry drops
    /// the cached per-entry hashes (they no longer cover every code).
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        self.hashes.take();
        let code = self.entries.len() as u32;
        self.entries.push(s.clone());
        self.lookup.insert(s.clone(), code);
        code
    }

    /// The code for `s`, if already interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// The string for `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.entries[code as usize]
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in code order.
    pub fn entries(&self) -> &[Arc<str>] {
        &self.entries
    }

    /// Per-entry derived values (e.g. key hashes), computed once per
    /// dictionary by `f` and cached. `f` must be deterministic — every
    /// caller of the same dictionary sees the first computation.
    pub fn cached_hashes(&self, f: impl FnOnce(&[Arc<str>]) -> Vec<u64>) -> &[u64] {
        self.hashes.get_or_init(|| f(&self.entries))
    }
}

/// The physical storage of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All non-null rows are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null rows are `Value::Float` (bits preserved).
    Float(Vec<f64>),
    /// All non-null rows are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null rows are `Value::Str`.
    Str(Vec<Arc<str>>),
    /// All non-null rows are `Value::Str`, dictionary-encoded: row `i`
    /// holds `dict.get(codes[i])`. NULL rows carry code 0 as a
    /// placeholder and are marked in the column's mask.
    Dict {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The shared, insertion-ordered dictionary.
        dict: Arc<StrDict>,
    },
    /// Mixed-variant (or otherwise untypable) rows: the per-row `Value`
    /// is authoritative, including its nulls.
    Values(Vec<Value>),
    /// Every row is this same value (vectorised literal / all-NULL).
    Const(Value),
}

/// One typed column of a [`ColumnBatch`]: data plus null bitmap plus
/// logical length.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    nulls: NullMask,
    len: usize,
}

impl Column {
    /// A column repeating `v` for `len` rows.
    pub fn from_const(v: Value, len: usize) -> Column {
        Column {
            data: ColumnData::Const(v),
            nulls: NullMask::none(),
            len,
        }
    }

    /// An `Int` column from raw parts.
    pub fn from_ints(v: Vec<i64>, nulls: NullMask) -> Column {
        let len = v.len();
        Column {
            data: ColumnData::Int(v),
            nulls,
            len,
        }
    }

    /// A `Float` column from raw parts.
    pub fn from_floats(v: Vec<f64>, nulls: NullMask) -> Column {
        let len = v.len();
        Column {
            data: ColumnData::Float(v),
            nulls,
            len,
        }
    }

    /// A `Bool` column from raw parts.
    pub fn from_bools(v: Vec<bool>, nulls: NullMask) -> Column {
        let len = v.len();
        Column {
            data: ColumnData::Bool(v),
            nulls,
            len,
        }
    }

    /// A `Str` column from raw parts.
    pub fn from_strs(v: Vec<Arc<str>>, nulls: NullMask) -> Column {
        let len = v.len();
        Column {
            data: ColumnData::Str(v),
            nulls,
            len,
        }
    }

    /// A dictionary-encoded column from raw parts (the store codec's
    /// decode path). Every non-null row's code must index into `dict`;
    /// the caller validates.
    pub fn from_dict(codes: Vec<u32>, dict: Arc<StrDict>, nulls: NullMask) -> Column {
        let len = codes.len();
        Column {
            data: ColumnData::Dict { codes, dict },
            nulls,
            len,
        }
    }

    /// Build from owned values, choosing the tightest representation
    /// (typed vector, `Const` for all-NULL, `Values` for mixed).
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::new();
        for v in &values {
            b.push(v);
        }
        b.finish()
    }

    /// A mixed-variant column from raw parts, keeping the
    /// [`ColumnData::Values`] representation as-is (the store codec's
    /// decode path, where re-encoding must be byte-identical).
    pub fn from_raw_values(values: Vec<Value>) -> Column {
        let len = values.len();
        Column {
            data: ColumnData::Values(values),
            nulls: NullMask::none(),
            len,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The physical storage.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap (not authoritative for `Values` / `Const` — use
    /// [`Column::is_null`]).
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        match &self.data {
            ColumnData::Const(v) => v.is_null(),
            ColumnData::Values(v) => v[i].is_null(),
            _ => self.nulls.is_null(i),
        }
    }

    /// True iff any row is NULL.
    pub fn has_nulls(&self) -> bool {
        match &self.data {
            ColumnData::Const(v) => self.len > 0 && v.is_null(),
            ColumnData::Values(v) => v.iter().any(Value::is_null),
            _ => self.nulls.any(),
        }
    }

    /// The `Value` at row `i` — the exact value that was pivoted in
    /// (variant and float bits included). Cheap: `Str` is an `Arc` bump.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        match &self.data {
            ColumnData::Const(v) => v.clone(),
            ColumnData::Values(v) => v[i].clone(),
            ColumnData::Int(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            ColumnData::Float(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(v[i])
                }
            }
            ColumnData::Bool(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(v[i])
                }
            }
            ColumnData::Str(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(v[i].clone())
                }
            }
            ColumnData::Dict { codes, dict } => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(dict.get(codes[i]).clone())
                }
            }
        }
    }

    /// Row `i` as a borrowed [`ValueRef`] — equal to, and hashing like,
    /// [`Column::value_at`], without building the `Value`.
    #[inline]
    pub fn cell(&self, i: usize) -> ValueRef<'_> {
        debug_assert!(i < self.len);
        match &self.data {
            ColumnData::Const(v) => v.view(),
            ColumnData::Values(v) => v[i].view(),
            _ if self.nulls.is_null(i) => ValueRef::Null,
            ColumnData::Int(v) => ValueRef::Int(v[i]),
            ColumnData::Float(v) => ValueRef::Float(v[i]),
            ColumnData::Bool(v) => ValueRef::Bool(v[i]),
            ColumnData::Str(v) => ValueRef::Str(&v[i]),
            ColumnData::Dict { codes, dict } => ValueRef::Str(dict.get(codes[i])),
        }
    }

    /// The rows at `sel`, in that order (typed gather; indices may
    /// repeat and must be in range).
    pub fn gather(&self, sel: &[u32]) -> Column {
        let len = sel.len();
        let data = match &self.data {
            ColumnData::Const(v) => {
                return Column {
                    data: ColumnData::Const(v.clone()),
                    nulls: NullMask::none(),
                    len,
                }
            }
            ColumnData::Int(v) => ColumnData::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
            },
            ColumnData::Values(v) => {
                ColumnData::Values(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column {
            data,
            nulls: self.nulls.gather(sel),
            len,
        }
    }

    /// Shorten to the first `n` rows (no-op when already ≤ `n`).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        match &mut self.data {
            ColumnData::Const(_) => {}
            ColumnData::Int(v) => v.truncate(n),
            ColumnData::Float(v) => v.truncate(n),
            ColumnData::Bool(v) => v.truncate(n),
            ColumnData::Str(v) => v.truncate(n),
            ColumnData::Dict { codes, .. } => codes.truncate(n),
            ColumnData::Values(v) => v.truncate(n),
        }
        self.len = n;
    }

    /// The contiguous rows `[start, start + len)` as a new column. A
    /// typed copy of the subrange (primitive memcpy / code copy sharing
    /// the dictionary `Arc`) — **not** a pivot: no per-value dispatch,
    /// no row materialisation.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        debug_assert!(start + len <= self.len);
        let data = match &self.data {
            ColumnData::Const(v) => {
                return Column {
                    data: ColumnData::Const(v.clone()),
                    nulls: NullMask::none(),
                    len,
                }
            }
            ColumnData::Int(v) => ColumnData::Int(v[start..start + len].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..start + len].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..start + len].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..start + len].to_vec()),
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: codes[start..start + len].to_vec(),
                dict: dict.clone(),
            },
            ColumnData::Values(v) => ColumnData::Values(v[start..start + len].to_vec()),
        };
        Column {
            data,
            nulls: self.nulls.slice(start, len),
            len,
        }
    }

    /// Dictionary-encode a `Str` column (first-appearance code order);
    /// every other representation is returned unchanged. How a table's
    /// string columns are stored once it is installed.
    pub fn dict_encode(&self) -> Column {
        match &self.data {
            ColumnData::Str(v) => {
                let mut dict = StrDict::new();
                let codes: Vec<u32> = v
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        if self.nulls.is_null(i) {
                            0
                        } else {
                            dict.intern(s)
                        }
                    })
                    .collect();
                Column {
                    data: ColumnData::Dict {
                        codes,
                        dict: Arc::new(dict),
                    },
                    nulls: self.nulls.clone(),
                    len: self.len,
                }
            }
            _ => self.clone(),
        }
    }

    /// The rows of `parts`, one part after another (see
    /// [`ColumnBatch::concat`]).
    fn concat(parts: &[&Column]) -> Column {
        let parts: Vec<&Column> = parts.iter().copied().filter(|c| c.len > 0).collect();
        let len = parts.iter().map(|c| c.len).sum();
        // Every part's vector of one variant, joined; `None` on a mix.
        macro_rules! join {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(len);
                parts
                    .iter()
                    .try_for_each(|p| match &p.data {
                        ColumnData::$variant(v) => {
                            out.extend_from_slice(v);
                            Some(())
                        }
                        _ => None,
                    })
                    .map(|()| ColumnData::$variant(out))
            }};
        }
        let data = match parts.first().map(|c| &c.data) {
            Some(ColumnData::Int(_)) => join!(Int),
            Some(ColumnData::Float(_)) => join!(Float),
            Some(ColumnData::Bool(_)) => join!(Bool),
            Some(ColumnData::Str(_)) => join!(Str),
            Some(ColumnData::Dict { dict, .. }) => {
                let mut codes = Vec::with_capacity(len);
                let shared = parts.iter().all(|p| match &p.data {
                    ColumnData::Dict { codes: c, dict: d } if Arc::ptr_eq(d, dict) => {
                        codes.extend_from_slice(c);
                        true
                    }
                    _ => false,
                });
                shared.then(|| ColumnData::Dict {
                    codes,
                    dict: dict.clone(),
                })
            }
            _ => None,
        };
        let Some(data) = data else {
            let mut b = ColumnBuilder::new();
            for p in parts {
                (0..p.len).for_each(|i| b.push(&p.value_at(i)));
            }
            return b.finish();
        };
        let mut nulls = NullMask::none();
        let mut at = 0;
        for p in parts {
            nulls.append(&p.nulls, at, p.len);
            at += p.len;
        }
        Column { data, nulls, len }
    }

    /// Append `v` in place. A value of the column's own variant (or
    /// NULL) grows the typed vector — `Dict` columns intern into their
    /// existing dictionary, copy-on-write if a reader still shares it —
    /// and anything else re-types the column the way [`ColumnBuilder`]
    /// would have, had it seen the whole sequence.
    pub fn push(&mut self, v: &Value) {
        let i = self.len;
        match (&mut self.data, v) {
            (ColumnData::Const(c), _) if c == v && c.data_type() == v.data_type() => {}
            (ColumnData::Values(xs), _) => xs.push(v.clone()),
            (ColumnData::Const(_), _) => return self.rebuild(|vals| vals.push(v.clone())),
            (data, Value::Null) => {
                self.nulls.set_null(i);
                match data {
                    ColumnData::Int(xs) => xs.push(0),
                    ColumnData::Float(xs) => xs.push(0.0),
                    ColumnData::Bool(xs) => xs.push(false),
                    ColumnData::Str(xs) => xs.push(Arc::from("")),
                    ColumnData::Dict { codes, .. } => codes.push(0),
                    ColumnData::Values(_) | ColumnData::Const(_) => unreachable!("handled above"),
                }
            }
            (ColumnData::Int(xs), Value::Int(x)) => xs.push(*x),
            (ColumnData::Float(xs), Value::Float(x)) => xs.push(*x),
            (ColumnData::Bool(xs), Value::Bool(x)) => xs.push(*x),
            (ColumnData::Str(xs), Value::Str(s)) => xs.push(s.clone()),
            (ColumnData::Dict { codes, dict }, Value::Str(s)) => codes.push(intern_cow(dict, s)),
            _ => return self.rebuild(|vals| vals.push(v.clone())),
        }
        self.len += 1;
    }

    /// Overwrite row `i` with `v` in place; same typing rules as
    /// [`Column::push`].
    pub fn set(&mut self, i: usize, v: &Value) {
        assert!(i < self.len, "cell {i} out of range ({} rows)", self.len);
        match (&mut self.data, v) {
            (ColumnData::Const(c), _) if c == v && c.data_type() == v.data_type() => {}
            (ColumnData::Values(xs), _) => xs[i] = v.clone(),
            (ColumnData::Const(_), _) => self.rebuild(|vals| vals[i] = v.clone()),
            (data, Value::Null) => {
                // Same placeholder a fresh build leaves in a NULL slot.
                self.nulls.set_null(i);
                match data {
                    ColumnData::Int(xs) => xs[i] = 0,
                    ColumnData::Float(xs) => xs[i] = 0.0,
                    ColumnData::Bool(xs) => xs[i] = false,
                    ColumnData::Str(xs) => xs[i] = Arc::from(""),
                    ColumnData::Dict { codes, .. } => codes[i] = 0,
                    ColumnData::Values(_) | ColumnData::Const(_) => unreachable!("handled above"),
                }
            }
            (ColumnData::Int(xs), Value::Int(x)) => {
                xs[i] = *x;
                self.nulls.clear(i);
            }
            (ColumnData::Float(xs), Value::Float(x)) => {
                xs[i] = *x;
                self.nulls.clear(i);
            }
            (ColumnData::Bool(xs), Value::Bool(x)) => {
                xs[i] = *x;
                self.nulls.clear(i);
            }
            (ColumnData::Str(xs), Value::Str(s)) => {
                xs[i] = s.clone();
                self.nulls.clear(i);
            }
            (ColumnData::Dict { codes, dict }, Value::Str(s)) => {
                codes[i] = intern_cow(dict, s);
                self.nulls.clear(i);
            }
            _ => self.rebuild(|vals| vals[i] = v.clone()),
        }
    }

    /// Remove the rows at `positions` (strictly increasing, in range),
    /// keeping the others in order. Dictionary entries the removed rows
    /// were the last users of stay interned.
    pub fn delete_rows(&mut self, positions: &[u32]) {
        match &mut self.data {
            ColumnData::Const(_) => {}
            ColumnData::Int(v) => remove_sorted(v, positions),
            ColumnData::Float(v) => remove_sorted(v, positions),
            ColumnData::Bool(v) => remove_sorted(v, positions),
            ColumnData::Str(v) => remove_sorted(v, positions),
            ColumnData::Dict { codes, .. } => remove_sorted(codes, positions),
            ColumnData::Values(v) => remove_sorted(v, positions),
        }
        self.nulls.delete_rows(positions);
        self.len -= positions.len();
    }

    /// Variant mismatch: re-type the column from its edited values, as
    /// building it and installing it as a table (dictionary-encoding)
    /// would.
    fn rebuild(&mut self, edit: impl FnOnce(&mut Vec<Value>)) {
        let mut vals: Vec<Value> = (0..self.len).map(|i| self.value_at(i)).collect();
        edit(&mut vals);
        let col = Column::from_values(vals);
        *self = if matches!(col.data, ColumnData::Str(_)) {
            col.dict_encode()
        } else {
            col
        };
    }
}

/// The code for `s` in `dict`, interning it if unseen — copy-on-write:
/// the dictionary is cloned first only when a new entry must be added
/// while a reader (a held query result, a morsel slice) still shares it.
fn intern_cow(dict: &mut Arc<StrDict>, s: &Arc<str>) -> u32 {
    match dict.code_of(s) {
        Some(code) => code,
        None => Arc::make_mut(dict).intern(s),
    }
}

/// Remove the elements at `positions` (strictly increasing, in range),
/// shifting the survivors down in one pass from the first hole.
pub fn remove_sorted<T>(v: &mut Vec<T>, positions: &[u32]) {
    let Some(&first) = positions.first() else {
        return;
    };
    let mut w = first as usize;
    for (k, &p) in positions.iter().enumerate() {
        let end = positions.get(k + 1).map_or(v.len(), |&q| q as usize);
        for r in p as usize + 1..end {
            v.swap(w, r);
            w += 1;
        }
    }
    v.truncate(w);
}

/// Incremental [`Column`] builder: starts optimistic (typed on the first
/// non-null value) and degrades to [`ColumnData::Values`] on the first
/// variant mismatch, reconstructing the already-pushed values exactly.
#[derive(Debug)]
pub struct ColumnBuilder {
    state: BuilderState,
    nulls: NullMask,
    len: usize,
    /// Governor working-memory tally: charged once per
    /// [`CHARGE_STRIDE`](ColumnBuilder::CHARGE_STRIDE) pushed rows (never
    /// per row), credited on drop.
    charge: maybms_gov::MemCharge,
}

#[derive(Debug)]
enum BuilderState {
    /// Only NULLs seen so far.
    AllNull,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    Values(Vec<Value>),
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

impl ColumnBuilder {
    /// Rows between governor memory charges.
    const CHARGE_STRIDE: usize = 1024;

    /// An empty builder.
    pub fn new() -> ColumnBuilder {
        ColumnBuilder {
            state: BuilderState::AllNull,
            nulls: NullMask::none(),
            len: 0,
            charge: maybms_gov::MemCharge::new(),
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        use BuilderState::*;
        let i = self.len;
        match (&mut self.state, v) {
            (_, Value::Null) => {
                self.nulls.set_null(i);
                match &mut self.state {
                    AllNull => {}
                    Int(xs) => xs.push(0),
                    Float(xs) => xs.push(0.0),
                    Bool(xs) => xs.push(false),
                    Str(xs) => xs.push(Arc::from("")),
                    Values(xs) => xs.push(Value::Null),
                }
            }
            (AllNull, _) => {
                // First non-null value decides the optimistic type.
                self.state = match v {
                    Value::Int(x) => Int(backfill(i, 0).chain([*x]).collect()),
                    Value::Float(x) => Float(backfill(i, 0.0).chain([*x]).collect()),
                    Value::Bool(x) => Bool(backfill(i, false).chain([*x]).collect()),
                    Value::Str(s) => Str(backfill(i, Arc::from("")).chain([s.clone()]).collect()),
                    Value::Null => unreachable!("handled above"),
                };
            }
            (Int(xs), Value::Int(x)) => xs.push(*x),
            (Float(xs), Value::Float(x)) => xs.push(*x),
            (Bool(xs), Value::Bool(x)) => xs.push(*x),
            (Str(xs), Value::Str(s)) => xs.push(s.clone()),
            (Values(xs), _) => xs.push(v.clone()),
            // Variant mismatch: degrade to per-row values, rebuilding the
            // prefix exactly from the typed vector plus the null mask.
            (_, _) => {
                let col = std::mem::take(self).finish();
                let mut vals: Vec<Value> = (0..col.len()).map(|j| col.value_at(j)).collect();
                vals.push(v.clone());
                self.state = Values(vals);
                self.nulls = NullMask::none();
                self.len = i;
            }
        }
        self.len += 1;
        if self.len.is_multiple_of(Self::CHARGE_STRIDE) {
            self.charge
                .add(Self::CHARGE_STRIDE * std::mem::size_of::<Value>());
        }
    }

    /// Finish into a column. All-NULL input becomes `Const(NULL)`.
    pub fn finish(self) -> Column {
        let len = self.len;
        let (data, nulls) = match self.state {
            BuilderState::AllNull => (ColumnData::Const(Value::Null), NullMask::none()),
            BuilderState::Int(v) => (ColumnData::Int(v), self.nulls),
            BuilderState::Float(v) => (ColumnData::Float(v), self.nulls),
            BuilderState::Bool(v) => (ColumnData::Bool(v), self.nulls),
            BuilderState::Str(v) => (ColumnData::Str(v), self.nulls),
            BuilderState::Values(v) => (ColumnData::Values(v), NullMask::none()),
        };
        Column { data, nulls, len }
    }
}

/// `n` copies of a placeholder (backfills NULL-prefixed typed columns).
fn backfill<T: Clone>(n: usize, v: T) -> impl Iterator<Item = T> {
    std::iter::repeat_n(v, n)
}

/// Column builders for rows an operator computes one at a time (the
/// group breaker's output, `tconf`'s): each value goes straight into its
/// typed column. No row store exists, so no pivot is counted.
#[derive(Debug)]
pub struct BatchBuilder {
    columns: Vec<ColumnBuilder>,
    rows: usize,
}

impl BatchBuilder {
    /// Builders for `arity` columns.
    pub fn new(arity: usize) -> BatchBuilder {
        BatchBuilder {
            columns: (0..arity).map(|_| ColumnBuilder::new()).collect(),
            rows: 0,
        }
    }

    /// Append one row of the builder's arity.
    pub fn push_row<'a>(&mut self, row: impl IntoIterator<Item = &'a Value>) {
        for (b, v) in self.columns.iter_mut().zip(row) {
            b.push(v);
        }
        self.rows += 1;
    }

    /// Finish into a batch.
    pub fn finish(self) -> ColumnBatch {
        ColumnBatch {
            columns: self
                .columns
                .into_iter()
                .map(ColumnBuilder::finish)
                .collect(),
            rows: self.rows,
        }
    }
}

/// A column-major morsel: parallel [`Column`]s of one common length.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnBatch {
    /// Pivot `rows` (each of one common arity) into columns, keeping
    /// only the source columns at `cols` (in that order). `n_rows` must
    /// equal the iterator length — kept explicit so a zero-column pivot
    /// still knows its row count.
    pub fn pivot<'a>(
        n_rows: usize,
        rows: impl Iterator<Item = &'a [Value]>,
        cols: &[usize],
    ) -> ColumnBatch {
        let m = maybms_obs::metrics();
        m.pivots.inc();
        m.pivot_rows.add(n_rows as u64);
        let mut b = BatchBuilder::new(cols.len());
        for row in rows {
            b.push_row(cols.iter().map(|&c| &row[c]));
        }
        debug_assert_eq!(b.rows, n_rows, "pivot row count mismatch");
        b.finish()
    }

    /// `arity` columns of no rows (what building from no rows gives).
    pub fn empty(arity: usize) -> ColumnBatch {
        BatchBuilder::new(arity).finish()
    }

    /// The rows of `batches` (each of `arity` columns), one batch after
    /// another. Per column, parts of one typed variant (`Dict`: of one
    /// shared dictionary) join their vectors; any other mix is rebuilt
    /// from its values, typed as [`ColumnBuilder`] types them — the
    /// values, variants included, are the parts' own.
    pub fn concat(arity: usize, batches: &[&ColumnBatch]) -> ColumnBatch {
        let column = |c: usize| {
            let parts: Vec<&Column> = batches.iter().map(|b| &b.columns[c]).collect();
            Column::concat(&parts)
        };
        ColumnBatch {
            columns: (0..arity).map(column).collect(),
            rows: batches.iter().map(|b| b.rows).sum(),
        }
    }

    /// Assemble from already-built columns, truncating each to `rows`
    /// (columns may be longer after a partial evaluation).
    pub fn from_columns(mut columns: Vec<Column>, rows: usize) -> ColumnBatch {
        for c in &mut columns {
            debug_assert!(c.len() >= rows, "column shorter than batch");
            c.truncate(rows);
        }
        ColumnBatch { columns, rows }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The rows at `sel`, in that order.
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
            rows: sel.len(),
        }
    }

    /// The contiguous rows `[start, start + len)` of the columns at
    /// `cols` (in that order) — the zero-pivot morsel path: typed
    /// subrange copies, no row materialisation, no pivot counted.
    pub fn slice_cols(&self, start: usize, len: usize, cols: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: cols
                .iter()
                .map(|&c| self.columns[c].slice(start, len))
                .collect(),
            rows: len,
        }
    }

    /// Dictionary-encode every `Str` column (see [`Column::dict_encode`])
    /// — applied once, when a table is installed.
    pub fn dict_encode(&self) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(Column::dict_encode).collect(),
            rows: self.rows,
        }
    }

    /// Append the rows of `rows` (a batch of this batch's arity) in place
    /// — the INSERT path: each value goes through [`Column::push`], so
    /// typed vectors grow and dictionaries extend in first-appearance
    /// order, exactly what re-pivoting the whole table would produce, at
    /// the cost of the new rows only.
    pub fn append(&mut self, rows: &ColumnBatch) {
        debug_assert_eq!(rows.arity(), self.arity(), "batch arity mismatch");
        for (c, src) in self.columns.iter_mut().zip(&rows.columns) {
            (0..rows.rows).for_each(|j| c.push(&src.value_at(j)));
        }
        self.rows += rows.rows;
    }

    /// Overwrite the cells at `positions` × `cols` in place through
    /// [`Column::set`]: row `j` of `cells`' column `k` lands at row
    /// `positions[j]`, column `cols[k]`. Row by row, so a column assigned
    /// twice takes its values (and new dictionary entries) in the order
    /// a walk over the rows would.
    pub fn set_cells(&mut self, positions: &[u32], cols: &[u32], cells: &ColumnBatch) {
        assert!(
            cells.rows == positions.len() && cells.arity() == cols.len(),
            "cell batch shape mismatch"
        );
        for (j, &p) in positions.iter().enumerate() {
            for (&c, src) in cols.iter().zip(&cells.columns) {
                self.columns[c as usize].set(p as usize, &src.value_at(j));
            }
        }
    }

    /// Remove the rows at `positions` (strictly increasing, in range).
    pub fn delete_rows(&mut self, positions: &[u32]) {
        for c in &mut self.columns {
            c.delete_rows(positions);
        }
        self.rows -= positions.len();
    }

    /// Write row `i` into `out` (cleared first) — the row ↔ column
    /// pivot inverse, used by scalar fallbacks and the pivot back to
    /// shared-row tuples.
    pub fn write_row(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        for c in &self.columns {
            out.push(c.value_at(i));
        }
    }

    /// Pivot back to row-major tuples sharing chunked buffers (the row
    /// view a relation's rows are built as on request).
    pub fn to_tuple_batch(&self) -> TupleBatch {
        let mut batch = TupleBatch::new();
        for i in 0..self.rows {
            batch.begin_row();
            for c in &self.columns {
                batch.push_value(c.value_at(i));
            }
        }
        batch
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.len.min(16) {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.value_at(i))?;
        }
        if self.len > 16 {
            write!(f, ", … ({} rows)", self.len)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: Vec<Value>) {
        let col = Column::from_values(values.clone());
        assert_eq!(col.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&col.value_at(i), v, "row {i}");
            assert_eq!(col.is_null(i), v.is_null(), "null flag row {i}");
        }
    }

    #[test]
    fn typed_columns_roundtrip_exactly() {
        roundtrip(vec![Value::Int(1), Value::Null, Value::Int(-3)]);
        roundtrip(vec![Value::Float(0.5), Value::Float(-0.0), Value::Null]);
        roundtrip(vec![Value::Bool(true), Value::Null, Value::Bool(false)]);
        roundtrip(vec![Value::str("a"), Value::Null, Value::str("")]);
    }

    #[test]
    fn mixed_variants_fall_back_to_values_preserving_variant() {
        // 1 and 1.0 compare equal but are distinct variants; the pivot
        // must not coerce (Concat/CAST observe the variant).
        let vals = vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::Null,
            Value::str("x"),
        ];
        let col = Column::from_values(vals.clone());
        assert!(matches!(col.data(), ColumnData::Values(_)));
        for (i, v) in vals.iter().enumerate() {
            let got = col.value_at(i);
            assert_eq!(&got, v);
            assert_eq!(got.data_type(), v.data_type(), "variant preserved at {i}");
        }
    }

    #[test]
    fn all_null_becomes_const_null() {
        let col = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(col.data(), ColumnData::Const(Value::Null)));
        assert_eq!(col.len(), 2);
        assert!(col.is_null(0) && col.is_null(1));
    }

    #[test]
    fn null_prefix_backfills_typed() {
        let col = Column::from_values(vec![Value::Null, Value::Null, Value::Int(7)]);
        assert!(matches!(col.data(), ColumnData::Int(_)));
        assert_eq!(col.value_at(0), Value::Null);
        assert_eq!(col.value_at(2), Value::Int(7));
    }

    #[test]
    fn degrade_after_nulls_and_values_is_exact() {
        let vals = vec![
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::str("s"),
            Value::Int(2),
        ];
        roundtrip(vals);
    }

    #[test]
    fn gather_and_truncate() {
        let col = Column::from_values(vec![
            Value::Int(10),
            Value::Null,
            Value::Int(30),
            Value::Int(40),
        ]);
        let g = col.gather(&[3, 1, 1, 0]);
        assert_eq!(g.value_at(0), Value::Int(40));
        assert_eq!(g.value_at(1), Value::Null);
        assert_eq!(g.value_at(2), Value::Null);
        assert_eq!(g.value_at(3), Value::Int(10));
        let mut t = col.clone();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.value_at(1), Value::Null);
    }

    #[test]
    fn const_column_broadcasts_and_gathers() {
        let c = Column::from_const(Value::str("k"), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.value_at(4), Value::str("k"));
        let g = c.gather(&[0, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value_at(1), Value::str("k"));
    }

    #[test]
    fn batch_pivot_projects_columns_and_inverts() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(0.5)],
            vec![Value::Int(2), Value::Null, Value::Float(1.5)],
        ];
        let batch = ColumnBatch::pivot(2, rows.iter().map(|r| r.as_slice()), &[2, 0]);
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.arity(), 2);
        assert_eq!(batch.column(0).value_at(1), Value::Float(1.5));
        assert_eq!(batch.column(1).value_at(0), Value::Int(1));
        let mut row = Vec::new();
        batch.write_row(1, &mut row);
        assert_eq!(row, vec![Value::Float(1.5), Value::Int(2)]);
    }

    #[test]
    fn concat_joins_one_variant_and_rebuilds_a_mix() {
        let values = |c: &Column| (0..c.len()).map(|i| c.value_at(i)).collect::<Vec<_>>();
        let ints = Column::from_values(vec![1.into(), Value::Null]);
        let more = Column::from_values(vec![Value::Null, 3.into(), 4.into()]);
        let joined = Column::concat(&[&ints, &Column::from_const(Value::Null, 0), &more]);
        assert!(matches!(joined.data(), ColumnData::Int(v) if v.len() == 5));
        assert_eq!(values(&joined), [values(&ints), values(&more)].concat());
        // One dictionary: codes join; two: rebuilt as plain strings.
        let dict = Column::from_values(vec!["a".into(), Value::Null, "b".into()]).dict_encode();
        let coded = Column::concat(&[&dict.slice(1, 2), &dict.gather(&[2, 0])]);
        assert!(matches!(coded.data(), ColumnData::Dict { .. }));
        assert_eq!(
            values(&coded),
            [Value::Null, "b".into(), "b".into(), "a".into()]
        );
        let other = Column::from_values(vec!["a".into()]).dict_encode();
        assert!(matches!(
            Column::concat(&[&dict, &other]).data(),
            ColumnData::Str(_)
        ));
        // A mix of variants, and a constant: exactly what building the
        // values gives.
        let floats = Column::from_values(vec![Value::Float(1.0)]);
        let seven = Column::from_const(7.into(), 2);
        for parts in [vec![&ints, &floats], vec![&seven], vec![&seven, &more]] {
            let want: Vec<Value> = parts.iter().flat_map(|c| values(c)).collect();
            assert_eq!(Column::concat(&parts), Column::from_values(want));
        }
        let empty = ColumnBatch::concat(2, &[]);
        assert_eq!((empty.rows(), empty.arity()), (0, 2));
    }

    #[test]
    fn batch_to_tuple_batch_matches_rows() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::str("x"), Value::Bool(true)],
        ];
        let batch = ColumnBatch::pivot(2, rows.iter().map(|r| r.as_slice()), &[0, 1]);
        let tuples = batch.to_tuple_batch().finish();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].values(), rows[0].as_slice());
        assert_eq!(tuples[1].values(), rows[1].as_slice());
    }

    #[test]
    fn zero_column_pivot_keeps_row_count() {
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(1)]; 3];
        let batch = ColumnBatch::pivot(3, rows.iter().map(|r| r.as_slice()), &[]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.arity(), 0);
        let mut row = vec![Value::Int(9)];
        batch.write_row(2, &mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn dict_encode_roundtrips_and_shares_dictionary() {
        let strs: Vec<Arc<str>> = vec![
            Arc::from("a"),
            Arc::from("b"),
            Arc::from("a"),
            Arc::from(""),
        ];
        let mut nulls = NullMask::none();
        nulls.set_null(2);
        let col = Column::from_strs(strs, nulls);
        let d = col.dict_encode();
        let ColumnData::Dict { codes, dict } = d.data() else {
            panic!("expected dict encoding, got {:?}", d.data());
        };
        // First-appearance code order; the NULL slot carries placeholder 0.
        assert_eq!(codes, &vec![0, 1, 0, 2]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.get(0).as_ref(), "a");
        assert_eq!(d.value_at(0), Value::str("a"));
        assert_eq!(d.value_at(2), Value::Null);
        assert_eq!(d.value_at(3), Value::str(""));
        // Gather and slice keep the same dictionary Arc.
        let g = d.gather(&[3, 0]);
        let ColumnData::Dict { dict: gd, .. } = g.data() else {
            panic!()
        };
        assert!(Arc::ptr_eq(dict, gd));
        assert_eq!(g.value_at(0), Value::str(""));
        let s = d.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(0), Value::str("b"));
        assert_eq!(s.value_at(1), Value::Null);
    }

    #[test]
    fn slice_matches_value_at_for_every_representation() {
        let cols = vec![
            Column::from_values(vec![
                Value::Int(1),
                Value::Null,
                Value::Int(3),
                Value::Int(4),
            ]),
            Column::from_values(vec![
                Value::Float(0.5),
                Value::Float(-0.0),
                Value::Null,
                Value::Float(2.0),
            ]),
            Column::from_values(vec![
                Value::str("x"),
                Value::Null,
                Value::str("y"),
                Value::str("x"),
            ])
            .dict_encode(),
            Column::from_values(vec![
                Value::Int(1),
                Value::str("mixed"),
                Value::Null,
                Value::Bool(true),
            ]),
            Column::from_const(Value::str("k"), 4),
        ];
        for col in cols {
            for start in 0..col.len() {
                for len in 0..=(col.len() - start) {
                    let s = col.slice(start, len);
                    assert_eq!(s.len(), len);
                    for j in 0..len {
                        assert_eq!(s.value_at(j), col.value_at(start + j));
                        assert_eq!(s.is_null(j), col.is_null(start + j));
                    }
                }
            }
        }
    }

    #[test]
    fn pivot_bumps_pivot_counters() {
        let m = maybms_obs::metrics();
        let (p0, r0) = (m.pivots.get(), m.pivot_rows.get());
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(1)]; 5];
        let _ = ColumnBatch::pivot(5, rows.iter().map(|r| r.as_slice()), &[0]);
        assert_eq!(m.pivots.get(), p0 + 1);
        assert_eq!(m.pivot_rows.get(), r0 + 5);
        // slice_cols is the zero-pivot path: counters stay put.
        let batch = ColumnBatch::pivot(5, rows.iter().map(|r| r.as_slice()), &[0]);
        let (p1, r1) = (m.pivots.get(), m.pivot_rows.get());
        let s = batch.slice_cols(1, 3, &[0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(m.pivots.get(), p1);
        assert_eq!(m.pivot_rows.get(), r1);
    }

    /// What building and installing `values` as a table makes of them:
    /// the oracle every in-place edit must agree with, representation
    /// included.
    fn stored_column(values: &[Value]) -> Column {
        Column::from_values(values.to_vec()).dict_encode()
    }

    #[test]
    fn push_builds_the_same_column_as_a_full_rebuild() {
        let sequences: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![
                Value::Null,
                Value::Null,
                Value::Float(-0.0),
                Value::Float(1.5),
            ],
            vec![
                Value::str("b"),
                Value::str("a"),
                Value::Null,
                Value::str("b"),
                Value::str("c"),
            ],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            // Variant changes mid-column: typed → per-row values.
            vec![
                Value::Int(1),
                Value::Null,
                Value::Float(1.0),
                Value::str("x"),
            ],
            vec![Value::Null, Value::str("s"), Value::Int(2)],
            vec![Value::Null, Value::Null],
        ];
        for seq in sequences {
            // Start from every prefix at rest, push the remainder.
            for split in 0..=seq.len() {
                let mut col = stored_column(&seq[..split]);
                for v in &seq[split..] {
                    col.push(v);
                }
                assert_eq!(col, stored_column(&seq), "{seq:?} split at {split}");
                assert_eq!(col.len(), seq.len());
            }
        }
    }

    #[test]
    fn set_and_delete_match_the_row_oracle() {
        let base: Vec<Value> = vec![
            Value::str("a"),
            Value::Null,
            Value::str("b"),
            Value::str("a"),
            Value::Null,
        ];
        let ints: Vec<Value> = (0..70)
            .map(|i| {
                if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        for (seq, edits) in [
            (
                base.clone(),
                vec![
                    (1, Value::str("new")),
                    (0, Value::Null),
                    (4, Value::str("a")),
                ],
            ),
            (base, vec![(2, Value::Int(7))]),
            (
                ints.clone(),
                vec![
                    (0, Value::Int(-1)),
                    (69, Value::Null),
                    (9, Value::Float(0.5)),
                ],
            ),
        ] {
            let mut col = stored_column(&seq);
            let mut want = seq.clone();
            for (i, v) in &edits {
                col.set(*i, v);
                want[*i] = v.clone();
                for (j, w) in want.iter().enumerate() {
                    assert_eq!(&col.value_at(j), w);
                    assert_eq!(col.value_at(j).data_type(), w.data_type());
                    assert_eq!(col.is_null(j), w.is_null());
                }
            }
        }
        // Deleting shifts values and null bits alike, across mask words.
        let all: Vec<u32> = (0..70).collect();
        for positions in [vec![], vec![0], vec![69], vec![0, 9, 10, 63, 64, 65], all] {
            let mut col = stored_column(&ints);
            col.delete_rows(&positions);
            let want: Vec<Value> = ints
                .iter()
                .enumerate()
                .filter(|(i, _)| !positions.contains(&(*i as u32)))
                .map(|(_, v)| v.clone())
                .collect();
            assert_eq!(col.len(), want.len());
            for (j, w) in want.iter().enumerate() {
                assert_eq!(&col.value_at(j), w, "row {j} after deleting {positions:?}");
            }
            assert_eq!(col.has_nulls(), want.iter().any(Value::is_null));
        }
    }

    #[test]
    fn interning_is_copy_on_write_and_drops_cached_hashes() {
        let mut col = stored_column(&[Value::str("a"), Value::str("b")]);
        let ColumnData::Dict { dict, .. } = col.data() else {
            panic!("dict expected")
        };
        let reader = dict.clone();
        assert_eq!(reader.cached_hashes(|e| vec![7; e.len()]), &[7, 7]);
        // A string already interned needs no new entry: no copy.
        col.push(&Value::str("a"));
        let ColumnData::Dict { dict, .. } = col.data() else {
            panic!("dict expected")
        };
        assert!(Arc::ptr_eq(dict, &reader));
        // An unseen string is interned into a private copy; the reader's
        // dictionary (and its cached hashes) stay as they were, and the
        // writer's cache is recomputed over all three entries.
        col.push(&Value::str("c"));
        let ColumnData::Dict { dict, .. } = col.data() else {
            panic!("dict expected")
        };
        assert!(!Arc::ptr_eq(dict, &reader));
        assert_eq!(reader.len(), 2);
        assert_eq!(dict.cached_hashes(|e| vec![9; e.len()]), &[9, 9, 9]);
        assert_eq!(
            reader.cached_hashes(|_| unreachable!("already cached")),
            &[7, 7]
        );
        drop(reader);
        // Sole owner: the next unseen string extends the dictionary in
        // place and resets the hashes it had cached.
        let before = Arc::as_ptr(dict);
        col.set(0, &Value::str("d"));
        let ColumnData::Dict { dict, .. } = col.data() else {
            panic!("dict expected")
        };
        assert_eq!(Arc::as_ptr(dict), before);
        assert_eq!(dict.cached_hashes(|e| vec![1; e.len()]), &[1, 1, 1, 1]);
        assert_eq!(col.value_at(0), Value::str("d"));
    }

    #[test]
    fn batch_edits_apply_by_position_and_column() {
        let rows: Vec<Vec<Value>> = (0..5)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("s{}", i % 2)),
                    Value::Float(i as f64),
                ]
            })
            .collect();
        let mut batch =
            ColumnBatch::pivot(5, rows.iter().map(|r| r.as_slice()), &[0, 1, 2]).dict_encode();
        let extra = [vec![Value::Int(5), Value::Null, Value::Float(5.0)]];
        batch.append(&ColumnBatch::pivot(
            1,
            extra.iter().map(|r| r.as_slice()),
            &[0, 1, 2],
        ));
        let cells = [
            vec![Value::Float(-1.0), Value::Int(10)],
            vec![Value::Null, Value::Int(40)],
        ];
        batch.set_cells(
            &[1, 4],
            &[2, 0],
            &ColumnBatch::pivot(2, cells.iter().map(|r| r.as_slice()), &[0, 1]),
        );
        batch.delete_rows(&[0, 3]);
        let mut got = Vec::new();
        let want = [
            vec![Value::Int(10), Value::str("s1"), Value::Float(-1.0)],
            vec![Value::Int(2), Value::str("s0"), Value::Float(2.0)],
            vec![Value::Int(40), Value::str("s0"), Value::Null],
            vec![Value::Int(5), Value::Null, Value::Float(5.0)],
        ];
        assert_eq!(batch.rows(), want.len());
        for (i, w) in want.iter().enumerate() {
            batch.write_row(i, &mut got);
            assert_eq!(&got, w, "row {i}");
        }
    }

    #[test]
    fn float_bits_preserved_through_pivot() {
        // -0.0 and NaN are constructible Values; the pivot must not
        // normalise them (bit-identity with the row path).
        let neg_zero = Value::Float(-0.0);
        let col = Column::from_values(vec![neg_zero.clone(), Value::Float(1.0)]);
        match col.value_at(0) {
            Value::Float(f) => assert!(f.is_sign_negative()),
            other => panic!("expected float, got {other:?}"),
        }
    }
}
