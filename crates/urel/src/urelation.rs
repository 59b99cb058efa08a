//! U-relations: "standard relations extended with condition … columns to
//! encode correlations between the uncertain values and probability
//! distribution for the set of possible worlds" (§2.1).
//!
//! A [`URelation`] pairs each data tuple with a [`Wsd`]. A U-relation with
//! only tautological WSDs is a *typed-certain (t-certain) table* (§2.2).
//!
//! # One layout: columns plus a condition sidecar
//!
//! A [`URelation`] is the one relation type the engine stores, scans and
//! passes between operators (a t-certain table is one whose conditions
//! are all empty); the engine's plain `Relation` row bag exists only at
//! the API edge ([`URelation::from_certain`] / [`URelation::into_certain`]).
//! Its body is always a column-major [`ColumnBatch`] over the data
//! columns, with the per-tuple WSDs kept as a parallel sidecar vector,
//! shared between clones through an `Arc`. Query results and stored
//! tables alike: the executor's sinks keep the column batches its stages
//! produced, operators that only choose or concatenate rows gather
//! columns and conditions, and operators that compute new rows append to
//! column builders. [`URelation::new`] and [`URelation::from_certain`] are
//! the API-edge constructors, and they pivot their rows once. The store
//! dictionary-encodes a table's strings when it installs it
//! ([`URelation::dict_encode`]).
//!
//! The `UTuple` row view ([`URelation::tuples`]) is read-only, built
//! lazily, once, for code that walks rows (lineage, world instantiation,
//! result output). A [`UTuple`] is cheap to clone: its `data` is an
//! `Arc`-backed engine [`Tuple`] and its `wsd` stores small conjunctions
//! inline.
//!
//! DML mutates the body **in place** ([`URelation::append`],
//! [`URelation::set_cells`], [`URelation::delete_rows`]) at a cost
//! proportional to the rows touched, copy-on-write: the body is cloned
//! first only if a reader (a held query result) still shares its `Arc`,
//! so readers never observe a write. The row view is dropped by a write,
//! not rebuilt.
//!
//! The **zone maps** ([`URelation::zones`]), which scans read to skip
//! blocks a filter cannot match, live as the row view does: built on
//! first use, shared by clones, dropped by every write. Never logged nor
//! snapshotted, they are rebuilt after recovery by construction.

use std::sync::{Arc, OnceLock};

use maybms_engine::{Column, ColumnBatch, ColumnData, Relation, Schema, Tuple};

use crate::error::Result;
use crate::world_table::WorldTable;
use crate::wsd::Wsd;

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

/// Rows per zone of a body's zone maps ([`URelation::zones`]).
pub const ZONE_ROWS: usize = 1024;

/// One zone's `(min, max)` over its non-NULL values; a zone without any
/// has `min > max` and matches nothing.
pub type Zone = (i64, i64);

/// A U-relation body: data columns, parallel WSDs, and the lazily built
/// `UTuple` view, zone maps and t-certainty (each built at most once
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
        self.rows.get_or_init(|| {
            let data = self.batch.to_tuple_batch().finish();
            data.into_iter()
                .zip(&self.wsds)
                .map(|(data, wsd)| UTuple::new(data, wsd.clone()))
                .collect()
        })
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
    body: Arc<ColumnarURel>,
}

// Equality is logical: the same tuples, whatever the column encodings.
impl PartialEq for URelation {
    fn eq(&self, other: &URelation) -> bool {
        self.schema == other.schema && self.tuples() == other.tuples()
    }
}

impl URelation {
    /// Empty U-relation.
    pub fn empty(schema: Arc<Schema>) -> URelation {
        let batch = ColumnBatch::empty(schema.len());
        URelation::from_batch(schema, batch, Vec::new())
    }

    /// Build from rows at the API edge, pivoting them once (counted by
    /// the pivot metrics). Arity is unchecked, like
    /// [`URelation::from_batch`].
    pub fn new(schema: Arc<Schema>, tuples: Vec<UTuple>) -> URelation {
        let cols: Vec<usize> = (0..schema.len()).collect();
        let batch = ColumnBatch::pivot(tuples.len(), tuples.iter().map(|t| t.data.values()), &cols);
        let wsds = tuples.into_iter().map(|t| t.wsd).collect();
        URelation::from_batch(schema, batch, wsds)
    }

    /// Build over a data batch plus WSD sidecar. Caller guarantees the
    /// batch arity matches the schema and `wsds.len() == batch.rows()`
    /// (operators construct both from typed inputs).
    pub fn from_batch(schema: Arc<Schema>, batch: ColumnBatch, wsds: Vec<Wsd>) -> URelation {
        debug_assert_eq!(batch.arity(), schema.len(), "batch arity mismatch");
        URelation {
            schema,
            body: Arc::new(ColumnarURel::new(batch, wsds)),
        }
    }

    /// Build a t-certain U-relation over a data batch.
    pub fn certain_batch(schema: Arc<Schema>, batch: ColumnBatch) -> URelation {
        let wsds = vec![Wsd::tautology(); batch.rows()];
        URelation::from_batch(schema, batch, wsds)
    }

    /// Lift a certain relation into a (t-certain) U-relation, pivoting
    /// its rows once (counted by the pivot metrics).
    pub fn from_certain(rel: &Relation) -> URelation {
        let cols: Vec<usize> = (0..rel.schema().len()).collect();
        let rows = rel.tuples();
        let batch = ColumnBatch::pivot(rows.len(), rows.iter().map(Tuple::values), &cols);
        URelation::certain_batch(rel.schema().clone(), batch)
    }

    /// The data schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The tuples, as a read-only row view: built on the first call and
    /// cached until the next write.
    pub fn tuples(&self) -> &[UTuple] {
        self.body.rows()
    }

    /// Whether the row view is built (it is only on a
    /// [`URelation::tuples`] call since the last write).
    pub fn has_row_view(&self) -> bool {
        self.body.rows.get().is_some()
    }

    /// The data batch and WSD sidecar — what scans slice (zero-pivot).
    pub fn at_rest(&self) -> (&ColumnBatch, &[Wsd]) {
        (&self.body.batch, &self.body.wsds)
    }

    /// The zone map of data column `col`: one [`Zone`] per [`ZONE_ROWS`]
    /// rows, or `None` unless `col` is stored as `Int`. Built for every
    /// `Int` column by the first call.
    pub fn zones(&self, col: usize) -> Option<&[Zone]> {
        self.body.zones()[col].as_deref()
    }

    /// The same relation with every plain string column
    /// dictionary-encoded — how the store installs a table. A relation
    /// without one is returned as a cheap `Arc` clone.
    pub fn dict_encode(&self) -> URelation {
        let batch = &self.body.batch;
        if !batch
            .columns()
            .iter()
            .any(|c| matches!(c.data(), ColumnData::Str(_)))
        {
            return self.clone();
        }
        URelation::from_batch(
            self.schema.clone(),
            batch.dict_encode(),
            self.body.wsds.clone(),
        )
    }

    /// The body for an in-place write: a shared body is cloned
    /// (copy-on-write), and the row view and zone maps are dropped.
    fn body_mut(&mut self) -> &mut ColumnarURel {
        let body = Arc::make_mut(&mut self.body);
        body.rows.take();
        body.zones.take();
        body.certain.take();
        body
    }

    /// Append the certain rows of `rows` in place (INSERT). Caller
    /// guarantees the batch has the schema's arity.
    pub fn append(&mut self, rows: &ColumnBatch) {
        let body = self.body_mut();
        body.batch.append(rows);
        body.wsds
            .extend(std::iter::repeat_n(Wsd::tautology(), rows.rows()));
    }

    /// Overwrite the data cells at `positions` × `cols` in place
    /// (UPDATE) with `cells`' rows, one per position, and columns, one
    /// per entry of `cols`; conditions are untouched. Caller guarantees
    /// positions and columns are in range and the batch has that shape.
    pub fn set_cells(&mut self, positions: &[u32], cols: &[u32], cells: &ColumnBatch) {
        self.body_mut().batch.set_cells(positions, cols, cells);
    }

    /// Remove the tuples at `positions` (strictly increasing, in range)
    /// in place (DELETE), data and conditions alike.
    pub fn delete_rows(&mut self, positions: &[u32]) {
        let body = self.body_mut();
        body.batch.delete_rows(positions);
        maybms_engine::column::remove_sorted(&mut body.wsds, positions);
    }

    /// Materialise a selection vector: the U-relation holding the tuples
    /// at `indices`, in that order, gathered from the columns and the
    /// condition sidecar. Indices may repeat; they must be in range.
    pub fn gather(&self, indices: &[usize]) -> URelation {
        let wsds = indices.iter().map(|&i| self.body.wsds[i].clone()).collect();
        self.gather_with(indices, wsds)
    }

    /// [`URelation::gather`] with new conditions: the tuple at
    /// `indices[j]` exists under `wsds[j]` (`repair key`, `pick tuples`,
    /// `select possible`).
    pub fn gather_with(&self, indices: &[usize], wsds: Vec<Wsd>) -> URelation {
        debug_assert!(self.len() <= u32::MAX as usize);
        let sel: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        URelation::from_batch(self.schema.clone(), self.body.batch.gather(&sel), wsds)
    }

    /// Number of stored tuples (representation size, *not* world count).
    pub fn len(&self) -> usize {
        self.body.batch.rows()
    }

    /// True iff no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff every tuple is unconditional — the t-certain test (§2.2).
    /// Cached on the body until its next write.
    pub fn is_t_certain(&self) -> bool {
        *self
            .body
            .certain
            .get_or_init(|| self.body.wsds.iter().all(Wsd::is_tautology))
    }

    /// Replace the schema (same arity required by construction discipline).
    pub fn with_schema(mut self, schema: Arc<Schema>) -> URelation {
        self.schema = schema;
        self
    }

    /// Forget the conditions, keeping every stored tuple, as a plain row
    /// bag. Only meaningful for t-certain relations; this is how results
    /// leave the engine.
    pub fn into_certain(self) -> Relation {
        let data = match self.body.rows.get() {
            Some(rows) => rows.iter().map(|t| t.data.clone()).collect(),
            None => self.body.batch.to_tuple_batch().finish(),
        };
        Relation::new_unchecked(self.schema, data)
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

    /// `base()` with its tuples under `wsds`, in order.
    fn conditioned(wsds: [Wsd; 2]) -> URelation {
        let b = base();
        let tuples = b.tuples().iter().cloned().zip(wsds);
        URelation::new(
            b.schema().clone(),
            tuples.map(|(t, w)| UTuple::new(t, w)).collect(),
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
        let u = conditioned([Wsd::of(Var(0), 0), Wsd::tautology()]);
        assert!(!u.is_t_certain());
    }

    #[test]
    fn instantiate_filters_by_world() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let u = conditioned([Wsd::of(x, 0), Wsd::of(x, 1)]);
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
    fn dict_encode_preserves_data_wsds_and_equality() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let u = conditioned([Wsd::of(x, 0), Wsd::tautology()]);
        let c = u.dict_encode();
        let is_dict =
            |u: &URelation| matches!(u.at_rest().0.column(0).data(), ColumnData::Dict { .. });
        assert!(is_dict(&c) && !is_dict(&u));
        assert_eq!(c.len(), 2);
        assert_eq!(c, u);
        assert!(!c.is_t_certain());
        let (batch, wsds) = c.at_rest();
        assert_eq!(batch.rows(), 2);
        assert_eq!(wsds[0], Wsd::of(x, 0));
        // Instantiation over the row view is encoding-blind.
        assert_eq!(c.instantiate(&[0]), u.instantiate(&[0]));
        assert_eq!(c.instantiate(&[1]), u.instantiate(&[1]));
        // Nothing left to encode: the same body.
        assert!(Arc::ptr_eq(&c.body, &c.dict_encode().body));
    }

    #[test]
    fn gather_takes_columns_and_conditions_without_a_row_view() {
        let u = conditioned([Wsd::tautology(), Wsd::of(Var(0), 1)]).dict_encode();
        let g = u.gather(&[1, 0, 1]);
        assert!(!u.has_row_view() && !g.has_row_view());
        assert!(matches!(
            g.at_rest().0.column(1).data(),
            ColumnData::Dict { .. }
        ));
        assert_eq!(g.tuples()[0], u.tuples()[1]);
        assert_eq!(g.tuples()[2], u.tuples()[1]);
        assert!(g.has_row_view());
        let picked = u.gather_with(&[1], vec![Wsd::of(Var(1), 0)]);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked.tuples()[0].data, u.tuples()[1].data);
        assert_eq!(picked.tuples()[0].wsd, Wsd::of(Var(1), 0));
    }

    #[test]
    fn in_place_writes_keep_columns_conditions_and_readers() {
        let x = Var(0);
        let u = conditioned([Wsd::tautology(), Wsd::of(x, 1)]);
        let mut table = u.dict_encode();
        let reader = table.clone();
        let _ = table.tuples(); // warm row view: a write must drop it
        let extra = ColumnBatch::from_columns(
            vec![
                Column::from_values(vec!["Duncan".into()]),
                Column::from_values(vec!["SL".into()]),
            ],
            1,
        );
        table.append(&extra);
        assert!(!table.has_row_view());
        let cells =
            ColumnBatch::from_columns(vec![Column::from_values(vec!["SE".into(), Value::Null])], 2);
        table.set_cells(&[0, 2], &[1], &cells);
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
                (vec!["Duncan".into(), Value::Null], Wsd::tautology()),
            ]
        );
        table.delete_rows(&[0, 2]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.tuples()[0].wsd, Wsd::of(x, 1));
        let mut row = Vec::new();
        table.at_rest().0.write_row(0, &mut row);
        assert_eq!(row, vec![Value::str("Bryant"), Value::str("SE")]);
        // The reader that shared the body saw none of it.
        assert_eq!(reader, u);
        // A fresh empty table takes its first rows in place too.
        let mut empty = URelation::empty(u.schema().clone());
        empty.append(&extra);
        assert_eq!(empty.len(), 1);
        assert!(empty.is_t_certain());
    }

    #[test]
    fn table_string_shows_condition_and_probability() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        let u = conditioned([Wsd::of(x, 0), Wsd::tautology()]);
        let s = u.to_table_string(&wt).unwrap();
        assert!(s.contains("condition"));
        assert!(s.contains("x0 ↦ 1"));
        assert!(s.contains("0.800000"));
        assert!(s.contains("⊤"));
    }
}
