//! U-relations: "standard relations extended with condition … columns to
//! encode correlations between the uncertain values and probability
//! distribution for the set of possible worlds" (§2.1).
//!
//! A [`URelation`] pairs each data tuple with a [`Wsd`]. A U-relation with
//! only tautological WSDs is a *typed-certain (t-certain) table* (§2.2).
//!
//! # Sharing invariants (zero-clone execution core)
//!
//! A [`UTuple`] is cheap to clone by construction: its `data` is an
//! `Arc`-backed engine [`Tuple`] (clone = refcount bump) and its `wsd`
//! stores small conjunctions inline (clone = a few words copied, no
//! allocation for ≤ 2 assignments). Operators that only choose rows —
//! selection, ordering, dedup — therefore run on selection vectors and
//! materialise once through [`URelation::gather`]; only operators that
//! build new rows (projection over expressions, join concatenation)
//! allocate.
//!
//! # Columnar at rest
//!
//! A [`URelation`] is the one relation type the engine stores, scans and
//! passes between operators (a t-certain table is one whose conditions
//! are all empty); the engine's plain `Relation` row bag exists only at
//! the API edge ([`URelation::from_certain`] / [`URelation::into_certain`]).
//! It is backed by a row vector or by a column-major [`ColumnBatch`] over
//! the data columns (dictionary-encoded strings included) with the
//! per-tuple WSDs kept as a parallel sidecar vector — the at-rest
//! representation catalog installs produce via [`URelation::compact`].
//! The `UTuple` row view of a columnar store is materialised lazily,
//! once ([`URelation::tuples`]). DML mutates the at-rest body **in place**
//! ([`URelation::append_rows`], [`URelation::set_cells`],
//! [`URelation::delete_rows`]) at a cost proportional to the rows
//! touched, copy-on-write: the body is cloned first only if a reader (a
//! held query result) still shares its `Arc`, so readers never observe a
//! write. The row view is dropped by a write, not rebuilt.
//! [`URelation::tuples_mut`] still decays the store to rows — that is
//! for building query results, not for stored tables.
//!
//! A columnar body's **zone maps** ([`URelation::zones`]), which scans
//! read to skip blocks a filter cannot match, live as its row view does:
//! built on first use, shared by clones, dropped by every write. Never
//! logged nor snapshotted, they are rebuilt after recovery by construction.

use std::sync::{Arc, OnceLock};

use maybms_engine::tuple::TupleBatch;
use maybms_engine::{Column, ColumnBatch, ColumnData, Relation, Schema, Tuple};

use crate::error::Result;
use crate::world_table::WorldTable;
use crate::wsd::Wsd;

/// Zip batch-built data rows with their WSDs into `UTuple`s.
pub fn zip_batch(batch: TupleBatch, wsds: Vec<Wsd>) -> Vec<UTuple> {
    batch
        .finish()
        .into_iter()
        .zip(wsds)
        .map(|(data, wsd)| UTuple::new(data, wsd))
        .collect()
}

/// One uncertain tuple: data plus the condition under which it exists.
#[derive(Debug, Clone, PartialEq)]
pub struct UTuple {
    /// The data columns.
    pub data: Tuple,
    /// The world-set descriptor (condition columns).
    pub wsd: Wsd,
}

impl UTuple {
    /// A certain tuple (tautological condition).
    pub fn certain(data: Tuple) -> UTuple {
        UTuple {
            data,
            wsd: Wsd::tautology(),
        }
    }

    /// A conditioned tuple.
    pub fn new(data: Tuple, wsd: Wsd) -> UTuple {
        UTuple { data, wsd }
    }
}

/// The physical backing of a [`URelation`] (see the module docs on
/// columnar at rest).
#[derive(Debug, Clone)]
enum Store {
    /// Row-major: the working representation updates mutate.
    Rows(Vec<UTuple>),
    /// Column-major data at rest plus WSD sidecar, shared via `Arc`.
    Columnar(Arc<ColumnarURel>),
}

/// Rows per zone of a columnar store's zone maps ([`URelation::zones`]).
pub const ZONE_ROWS: usize = 1024;

/// One zone's `(min, max)` over its non-NULL values; a zone without any
/// has `min > max` and matches nothing.
pub type Zone = (i64, i64);

/// A columnar U-relation body: data columns, parallel WSDs, and the
/// lazily built `UTuple` view, zone maps and t-certainty (each built at most once
/// between writes; all clones share them through the `Arc`).
#[derive(Debug)]
struct ColumnarURel {
    batch: ColumnBatch,
    wsds: Vec<Wsd>,
    rows: OnceLock<Vec<UTuple>>,
    /// Per data column: its zones if stored as `Int`.
    zones: OnceLock<Vec<Option<Vec<Zone>>>>,
    /// Whether every condition is the tautology.
    certain: OnceLock<bool>,
}

impl ColumnarURel {
    fn new(batch: ColumnBatch, wsds: Vec<Wsd>) -> ColumnarURel {
        debug_assert_eq!(batch.rows(), wsds.len(), "WSD sidecar length mismatch");
        ColumnarURel {
            batch,
            wsds,
            rows: OnceLock::new(),
            zones: OnceLock::new(),
            certain: OnceLock::new(),
        }
    }

    fn zones(&self) -> &[Option<Vec<Zone>>] {
        let min_max = |col: &Column, v: &[i64], z: usize| {
            let live = (z..(z + ZONE_ROWS).min(v.len())).filter(|&i| !col.is_null(i));
            live.fold((i64::MAX, i64::MIN), |(lo, hi), i| {
                (lo.min(v[i]), hi.max(v[i]))
            })
        };
        let zones = |col: &Column| match col.data() {
            ColumnData::Int(v) => Some(
                (0..v.len())
                    .step_by(ZONE_ROWS)
                    .map(|z| min_max(col, v, z))
                    .collect(),
            ),
            _ => None,
        };
        self.zones
            .get_or_init(|| self.batch.columns().iter().map(zones).collect())
    }

    fn rows(&self) -> &[UTuple] {
        self.rows
            .get_or_init(|| zip_batch(self.batch.to_tuple_batch(), self.wsds.clone()))
    }

    fn into_rows(self) -> Vec<UTuple> {
        match self.rows.into_inner() {
            Some(rows) => rows,
            None => zip_batch(self.batch.to_tuple_batch(), self.wsds),
        }
    }
}

// The copy-on-write clone a writer takes when a reader shares the body:
// the row view and zone maps are about to go stale, so they are not copied.
impl Clone for ColumnarURel {
    fn clone(&self) -> ColumnarURel {
        ColumnarURel::new(self.batch.clone(), self.wsds.clone())
    }
}

/// A U-relation: schema over the *data* columns plus per-tuple WSDs.
#[derive(Debug, Clone)]
pub struct URelation {
    schema: Arc<Schema>,
    store: Store,
}

// Equality is logical — columnar-at-rest equals its row-major twin.
impl PartialEq for URelation {
    fn eq(&self, other: &URelation) -> bool {
        self.schema == other.schema && self.tuples() == other.tuples()
    }
}

impl URelation {
    /// Empty U-relation.
    pub fn empty(schema: Arc<Schema>) -> URelation {
        URelation {
            schema,
            store: Store::Rows(Vec::new()),
        }
    }

    /// Build from parts (arity unchecked; callers construct from typed
    /// operators).
    pub fn new(schema: Arc<Schema>, tuples: Vec<UTuple>) -> URelation {
        URelation {
            schema,
            store: Store::Rows(tuples),
        }
    }

    /// Build directly over an at-rest data batch plus WSD sidecar (the
    /// storage decode / compaction path). Caller guarantees the batch
    /// arity matches the schema and `wsds.len() == batch.rows()`, like
    /// [`URelation::new`]'s unchecked discipline.
    pub fn from_batch(schema: Arc<Schema>, batch: ColumnBatch, wsds: Vec<Wsd>) -> URelation {
        debug_assert_eq!(batch.arity(), schema.len(), "batch arity mismatch");
        URelation {
            schema,
            store: Store::Columnar(Arc::new(ColumnarURel::new(batch, wsds))),
        }
    }

    /// Lift a certain relation into a (t-certain) U-relation.
    pub fn from_certain(rel: &Relation) -> URelation {
        URelation {
            schema: rel.schema().clone(),
            store: Store::Rows(rel.tuples().iter().cloned().map(UTuple::certain).collect()),
        }
    }

    /// The data schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The tuples. For a columnar-at-rest store the `UTuple` view is
    /// materialised once, on first call, and cached.
    pub fn tuples(&self) -> &[UTuple] {
        match &self.store {
            Store::Rows(t) => t,
            Store::Columnar(c) => c.rows(),
        }
    }

    /// The at-rest data batch and WSD sidecar, if stored columnar —
    /// the zero-pivot scan path.
    pub fn at_rest(&self) -> Option<(&ColumnBatch, &[Wsd])> {
        match &self.store {
            Store::Rows(_) => None,
            Store::Columnar(c) => Some((&c.batch, &c.wsds)),
        }
    }

    /// The zone map of data column `col`: one [`Zone`] per [`ZONE_ROWS`]
    /// rows, or `None` unless the store is columnar at rest and `col` is
    /// stored as `Int`. Built for every `Int` column by the first call.
    pub fn zones(&self, col: usize) -> Option<&[Zone]> {
        let Store::Columnar(c) = &self.store else {
            return None;
        };
        c.zones()[col].as_deref()
    }

    /// True iff the canonical storage is column-major.
    pub fn is_columnar(&self) -> bool {
        matches!(self.store, Store::Columnar(_))
    }

    /// A columnar-at-rest copy: data columns pivoted once (counted by
    /// the pivot metrics) and dictionary-encoded, WSDs in a parallel
    /// sidecar. Already-columnar input returns a cheap `Arc` clone.
    pub fn compact(&self) -> URelation {
        match &self.store {
            Store::Columnar(_) => self.clone(),
            Store::Rows(tuples) => {
                let cols: Vec<usize> = (0..self.schema.len()).collect();
                let batch =
                    ColumnBatch::pivot(tuples.len(), tuples.iter().map(|t| t.data.values()), &cols)
                        .dict_encode();
                let wsds = tuples.iter().map(|t| t.wsd.clone()).collect();
                URelation {
                    schema: self.schema.clone(),
                    store: Store::Columnar(Arc::new(ColumnarURel::new(batch, wsds))),
                }
            }
        }
    }

    /// The at-rest body for an in-place write: a row store is compacted
    /// first (stored tables never are: the store installs every table
    /// columnar), a shared body is cloned (copy-on-write), and the row
    /// view and zone maps are dropped.
    fn columnar_mut(&mut self) -> &mut ColumnarURel {
        if !self.is_columnar() {
            *self = self.compact();
        }
        let Store::Columnar(arc) = &mut self.store else {
            unreachable!("just compacted")
        };
        let body = Arc::make_mut(arc);
        body.rows.take();
        body.zones.take();
        body.certain.take();
        body
    }

    /// Append `rows` in place (INSERT). Caller guarantees each row has
    /// the schema's arity.
    pub fn append_rows(&mut self, rows: &[UTuple]) {
        let body = self.columnar_mut();
        body.batch.append_rows(rows.iter().map(|t| t.data.values()));
        body.wsds.extend(rows.iter().map(|t| t.wsd.clone()));
    }

    /// Overwrite the data cells at `positions` × `cols` in place
    /// (UPDATE); conditions are untouched. `cells` is row-major over
    /// `positions`. Caller guarantees positions and columns are in range
    /// and `cells.len() == positions.len() * cols.len()`.
    pub fn set_cells(&mut self, positions: &[u32], cols: &[u32], cells: &[maybms_engine::Value]) {
        self.columnar_mut().batch.set_cells(positions, cols, cells);
    }

    /// Remove the tuples at `positions` (strictly increasing, in range)
    /// in place (DELETE), data and conditions alike.
    pub fn delete_rows(&mut self, positions: &[u32]) {
        let body = self.columnar_mut();
        body.batch.delete_rows(positions);
        maybms_engine::column::remove_sorted(&mut body.wsds, positions);
    }

    /// Write tuple `i`'s data values into `out` (cleared first) without
    /// materialising the row view of a columnar store.
    pub fn write_row(&self, i: usize, out: &mut Vec<maybms_engine::Value>) {
        match &self.store {
            Store::Rows(t) => {
                out.clear();
                out.extend_from_slice(t[i].data.values());
            }
            Store::Columnar(c) => c.batch.write_row(i, out),
        }
    }

    /// Mutable row access for building query results. Decays a columnar
    /// store to rows first; stored tables are written through
    /// [`URelation::append_rows`] / [`URelation::set_cells`] /
    /// [`URelation::delete_rows`] instead.
    pub fn tuples_mut(&mut self) -> &mut Vec<UTuple> {
        if matches!(self.store, Store::Columnar(_)) {
            let store = std::mem::replace(&mut self.store, Store::Rows(Vec::new()));
            if let Store::Columnar(arc) = store {
                let rows = match Arc::try_unwrap(arc) {
                    Ok(body) => body.into_rows(),
                    Err(arc) => arc.rows().to_vec(),
                };
                self.store = Store::Rows(rows);
            }
        }
        match &mut self.store {
            Store::Rows(t) => t,
            Store::Columnar(_) => unreachable!("just decayed"),
        }
    }

    /// Materialise a selection vector: the U-relation holding the tuples
    /// at `indices`, in that order. Row data is shared with the input
    /// (`UTuple` clones are cheap — see the module docs). Indices may
    /// repeat; they must be in range. A columnar store whose row view is
    /// cold gathers columns and WSDs instead, staying columnar.
    pub fn gather(&self, indices: &[usize]) -> URelation {
        if let Store::Columnar(c) = &self.store {
            if c.rows.get().is_none() {
                debug_assert!(c.batch.rows() <= u32::MAX as usize);
                let sel: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
                let wsds = indices.iter().map(|&i| c.wsds[i].clone()).collect();
                return URelation {
                    schema: self.schema.clone(),
                    store: Store::Columnar(Arc::new(ColumnarURel::new(c.batch.gather(&sel), wsds))),
                };
            }
        }
        let tuples = self.tuples();
        URelation {
            schema: self.schema.clone(),
            store: Store::Rows(indices.iter().map(|&i| tuples[i].clone()).collect()),
        }
    }

    /// Number of stored tuples (representation size, *not* world count).
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Rows(t) => t.len(),
            Store::Columnar(c) => c.batch.rows(),
        }
    }

    /// True iff no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff every tuple is unconditional — the t-certain test (§2.2).
    /// Cached on a columnar-at-rest body until its next write.
    pub fn is_t_certain(&self) -> bool {
        match &self.store {
            Store::Rows(t) => t.iter().all(|t| t.wsd.is_tautology()),
            Store::Columnar(c) => *c
                .certain
                .get_or_init(|| c.wsds.iter().all(Wsd::is_tautology)),
        }
    }

    /// Replace the schema (same arity required by construction discipline).
    pub fn with_schema(mut self, schema: Arc<Schema>) -> URelation {
        self.schema = schema;
        self
    }

    /// Forget the conditions, keeping every stored tuple, as a plain row
    /// bag (a columnar store pivots its rows here, once). Only meaningful
    /// for t-certain relations; this is how results leave the engine.
    pub fn into_certain(mut self) -> Relation {
        let tuples = std::mem::take(self.tuples_mut());
        Relation::new_unchecked(self.schema, tuples.into_iter().map(|t| t.data).collect())
    }

    /// Instantiate the relation in one world: keep tuples whose WSD the
    /// world satisfies (semantics of the representation, §2.1).
    pub fn instantiate(&self, world: &[u16]) -> Relation {
        let tuples = self
            .tuples()
            .iter()
            .filter(|t| t.wsd.satisfied_by(world))
            .map(|t| t.data.clone())
            .collect();
        Relation::new_unchecked(self.schema.clone(), tuples)
    }

    /// Render the relation the way Figure 1 prints U-relations: data
    /// columns, a `condition` column, and a `P` column with the
    /// condition's probability.
    pub fn to_table_string(&self, wt: &WorldTable) -> Result<String> {
        let mut headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        headers.push("condition".into());
        headers.push("P".into());
        let mut rows = Vec::with_capacity(self.len());
        for t in self.tuples() {
            let mut row: Vec<String> = t.data.values().iter().map(|v| v.to_string()).collect();
            row.push(t.wsd.to_string());
            row.push(format!("{:.6}", t.wsd.prob(wt)?));
            rows.push(row);
        }
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let hline = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        hline(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            let pad = w - h.chars().count();
            out.push_str(&format!(" {h}{} |", " ".repeat(pad)));
        }
        out.push('\n');
        hline(&mut out);
        for row in &rows {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                let pad = w - cell.chars().count();
                out.push_str(&format!(" {cell}{} |", " ".repeat(pad)));
            }
            out.push('\n');
        }
        hline(&mut out);
        out.push_str(&format!("({} tuples)\n", rows.len()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;
    use maybms_engine::{rel, DataType, Value};

    fn base() -> Relation {
        rel(
            &[("player", DataType::Text), ("state", DataType::Text)],
            vec![
                vec!["Bryant".into(), "F".into()],
                vec!["Bryant".into(), "SE".into()],
            ],
        )
    }

    #[test]
    fn from_certain_is_t_certain() {
        let u = URelation::from_certain(&base());
        assert!(u.is_t_certain());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn conditioned_relation_is_not_t_certain() {
        let mut u = URelation::from_certain(&base());
        u.tuples_mut()[0].wsd = Wsd::of(Var(0), 0);
        assert!(!u.is_t_certain());
    }

    #[test]
    fn instantiate_filters_by_world() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let mut u = URelation::from_certain(&base());
        u.tuples_mut()[0].wsd = Wsd::of(x, 0);
        u.tuples_mut()[1].wsd = Wsd::of(x, 1);
        let w0 = u.instantiate(&[0]);
        assert_eq!(w0.len(), 1);
        assert_eq!(w0.tuples()[0].value(1), &Value::str("F"));
        let w1 = u.instantiate(&[1]);
        assert_eq!(w1.tuples()[0].value(1), &Value::str("SE"));
    }

    #[test]
    fn into_certain_drops_conditions() {
        let u = URelation::from_certain(&base());
        let r = u.into_certain();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn compact_preserves_data_wsds_and_equality() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let mut u = URelation::from_certain(&base());
        u.tuples_mut()[0].wsd = Wsd::of(x, 0);
        let c = u.compact();
        assert!(c.is_columnar() && !u.is_columnar());
        assert_eq!(c.len(), 2);
        assert_eq!(c, u);
        assert!(!c.is_t_certain());
        let (batch, wsds) = c.at_rest().expect("columnar store");
        assert_eq!(batch.rows(), 2);
        assert_eq!(wsds[0], Wsd::of(x, 0));
        // Instantiation over the lazy row view matches the row store.
        assert_eq!(c.instantiate(&[0]), u.instantiate(&[0]));
        assert_eq!(c.instantiate(&[1]), u.instantiate(&[1]));
    }

    #[test]
    fn columnar_mutation_decays_and_gather_stays_columnar_when_cold() {
        let u = URelation::from_certain(&base()).compact();
        let g = u.gather(&[1, 0]);
        assert!(g.is_columnar());
        assert_eq!(g.tuples()[0], u.tuples()[1]);
        let mut m = u.clone();
        m.tuples_mut().pop();
        assert!(!m.is_columnar());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn in_place_writes_keep_columns_conditions_and_readers() {
        let x = Var(0);
        let mut u = URelation::from_certain(&base());
        u.tuples_mut()[1].wsd = Wsd::of(x, 1);
        let mut table = u.compact();
        let reader = table.clone();
        let _ = table.tuples(); // warm row view: a write must drop it
        let extra = UTuple::new(
            Tuple::new(vec!["Duncan".into(), "SL".into()]),
            Wsd::of(x, 0),
        );
        table.append_rows(std::slice::from_ref(&extra));
        table.set_cells(&[0, 2], &[1], &["SE".into(), Value::Null]);
        assert!(table.is_columnar());
        let got: Vec<(Vec<Value>, Wsd)> = table
            .tuples()
            .iter()
            .map(|t| (t.data.values().to_vec(), t.wsd.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (vec!["Bryant".into(), "SE".into()], Wsd::tautology()),
                (vec!["Bryant".into(), "SE".into()], Wsd::of(x, 1)),
                (vec!["Duncan".into(), Value::Null], Wsd::of(x, 0)),
            ]
        );
        table.delete_rows(&[0, 2]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.tuples()[0].wsd, Wsd::of(x, 1));
        let mut row = Vec::new();
        table.write_row(0, &mut row);
        assert_eq!(row, vec![Value::str("Bryant"), Value::str("SE")]);
        // The reader that shared the body saw none of it.
        assert_eq!(reader, u);
        // A fresh empty table takes its first rows in place too.
        let mut empty = URelation::empty(u.schema().clone());
        empty.append_rows(&[extra]);
        assert!(empty.is_columnar());
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn table_string_shows_condition_and_probability() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        let mut u = URelation::from_certain(&base());
        u.tuples_mut()[0].wsd = Wsd::of(x, 0);
        let s = u.to_table_string(&wt).unwrap();
        assert!(s.contains("condition"));
        assert!(s.contains("x0 ↦ 1"));
        assert!(s.contains("0.800000"));
        assert!(s.contains("⊤"));
    }
}
