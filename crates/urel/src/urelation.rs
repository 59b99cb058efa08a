//! U-relations: "standard relations extended with condition … columns to
//! encode correlations between the uncertain values and probability
//! distribution for the set of possible worlds" (§2.1).
//!
//! A [`URelation`] pairs each data tuple with a [`Wsd`]. A U-relation with
//! only tautological WSDs is a *typed-certain (t-certain) table* (§2.2).
//!
//! # One layout: columns plus a condition sidecar
//!
//! A [`URelation`] is the one relation type: the engine stores, scans
//! and passes it between operators, and the API hands it out and takes
//! it in. A t-certain table — a registered table, a t-certain query
//! result, one instantiated world — is one whose conditions are all
//! empty; there is no separate row-bag type for certain data. Its body
//! is always a column-major [`ColumnBatch`] over the data columns, with
//! the per-tuple WSDs kept as a parallel sidecar vector, shared between
//! clones through an `Arc`. Query results and stored tables alike: the
//! executor's sinks keep the column batches its stages produced,
//! operators that only choose or concatenate rows gather columns and
//! conditions, and operators that compute new rows append to column
//! builders. [`URelation::new`] (and [`rel`], its literal-rows form) is
//! the API-edge constructor from rows, and it pivots them once. The
//! store dictionary-encodes a table's strings when it installs it
//! ([`URelation::dict_encode`]).
//!
//! Rows exist only as a transient view: [`URelation::tuples`] builds a
//! fresh `Vec<UTuple>` on each call, for code that walks rows (oracles,
//! tests, result output), and nothing keeps it. A [`UTuple`] is cheap to
//! clone: its `data` is an `Arc`-backed engine [`Tuple`] and its `wsd`
//! stores small conjunctions inline. [`URelation::to_table_string`] is
//! the one renderer, for certain and uncertain relations alike.
//!
//! DML mutates the body **in place** ([`URelation::append`],
//! [`URelation::set_cells`], [`URelation::delete_rows`]) at a cost
//! proportional to the rows touched, copy-on-write: the body is cloned
//! first only if a reader (a held query result) still shares its `Arc`,
//! so readers never observe a write.
//!
//! The **zone maps** ([`URelation::zones`]), which scans read to skip
//! blocks a filter cannot match, are built on first use, shared by
//! clones and dropped by every write. Never logged nor snapshotted, they
//! are rebuilt after recovery by construction.

use std::sync::{Arc, OnceLock};

use maybms_engine::{Column, ColumnBatch, ColumnData, DataType, EngineError, Schema, Tuple, Value};

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

    /// The data values, in schema order.
    pub fn values(&self) -> &[Value] {
        self.data.values()
    }

    /// The data value at column `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        self.data.value(idx)
    }
}

/// Rows per zone of a body's zone maps ([`URelation::zones`]).
pub const ZONE_ROWS: usize = 1024;

/// One zone's `(min, max)` over its non-NULL values; a zone without any
/// has `min > max` and matches nothing.
pub type Zone = (i64, i64);

/// A U-relation body: data columns, parallel WSDs, and the lazily built
/// zone maps and t-certainty (each built at most once between writes;
/// all clones share them through the `Arc`).
#[derive(Debug)]
struct ColumnarURel {
    batch: ColumnBatch,
    wsds: Vec<Wsd>,
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
}

// The copy-on-write clone a writer takes when a reader shares the body:
// the zone maps are about to go stale, so they are not copied.
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
    /// the pivot metrics). Every row must have the schema's arity.
    pub fn new(schema: Arc<Schema>, tuples: Vec<UTuple>) -> Result<URelation> {
        if let Some(t) = tuples.iter().find(|t| t.data.arity() != schema.len()) {
            return Err(EngineError::SchemaMismatch {
                message: format!(
                    "tuple arity {} does not match schema arity {}",
                    t.data.arity(),
                    schema.len()
                ),
            }
            .into());
        }
        let cols: Vec<usize> = (0..schema.len()).collect();
        let batch = ColumnBatch::pivot(tuples.len(), tuples.iter().map(|t| t.values()), &cols);
        let wsds = tuples.into_iter().map(|t| t.wsd).collect();
        Ok(URelation::from_batch(schema, batch, wsds))
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

    /// The data schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The tuples, as a row view built on this call (nothing keeps it).
    pub fn tuples(&self) -> Vec<UTuple> {
        let data = self.body.batch.to_tuple_batch().finish();
        data.into_iter()
            .zip(&self.body.wsds)
            .map(|(data, wsd)| UTuple::new(data, wsd.clone()))
            .collect()
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
    /// (copy-on-write), and the zone maps are dropped.
    fn body_mut(&mut self) -> &mut ColumnarURel {
        let body = Arc::make_mut(&mut self.body);
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

    /// Instantiate the relation in one world (semantics of the
    /// representation, §2.1): the t-certain relation of the tuples whose
    /// WSD the world satisfies, gathered from the columns. A t-certain
    /// relation holds in every world and comes back sharing its body.
    pub fn instantiate(&self, world: &[u16]) -> URelation {
        if self.is_t_certain() {
            return self.clone();
        }
        let wsds = &self.body.wsds;
        let keep: Vec<usize> = (0..wsds.len())
            .filter(|&i| wsds[i].satisfied_by(world))
            .collect();
        self.gather_with(&keep, vec![Wsd::tautology(); keep.len()])
    }

    /// Render as an aligned table. A t-certain relation prints its data
    /// columns and a `(N rows)` footer; any other prints them the way
    /// Figure 1 prints U-relations, with a `condition` column, a `P`
    /// column holding the condition's probability, and a `(N tuples)`
    /// footer.
    pub fn to_table_string(&self, wt: &WorldTable) -> Result<String> {
        let certain = self.is_t_certain();
        let mut headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        if !certain {
            headers.push("condition".into());
            headers.push("P".into());
        }
        let mut rows = Vec::with_capacity(self.len());
        for t in self.tuples() {
            let mut row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
            if !certain {
                row.push(t.wsd.to_string());
                row.push(format!("{:.6}", t.wsd.prob(wt)?));
            }
            rows.push(row);
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
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
        let line = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (cell, w) in cells.iter().zip(&widths) {
                let pad = w - cell.chars().count();
                out.push_str(&format!(" {cell}{} |", " ".repeat(pad)));
            }
            out.push('\n');
        };
        hline(&mut out);
        line(&mut out, &headers);
        hline(&mut out);
        for row in &rows {
            line(&mut out, row);
        }
        hline(&mut out);
        let unit = if certain { "rows" } else { "tuples" };
        out.push_str(&format!("({} {unit})\n", rows.len()));
        Ok(out)
    }
}

/// Build a t-certain relation from literal rows; panics on ragged input
/// (test/example helper).
///
/// ```
/// use maybms_engine::DataType;
/// use maybms_urel::rel;
/// let r = rel(
///     &[("player", DataType::Text), ("pts", DataType::Int)],
///     vec![vec!["Bryant".into(), 81i64.into()]],
/// );
/// assert_eq!(r.len(), 1);
/// assert!(r.is_t_certain());
/// ```
pub fn rel(pairs: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> URelation {
    let schema = Arc::new(Schema::from_pairs(pairs));
    let rows = rows.into_iter().map(|r| UTuple::certain(Tuple::new(r)));
    URelation::new(schema, rows.collect()).expect("rel(): ragged literal rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;

    fn base() -> URelation {
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
        let tuples = b.tuples().into_iter().zip(wsds);
        URelation::new(
            b.schema().clone(),
            tuples.map(|(t, w)| UTuple::new(t.data, w)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn literal_rows_are_t_certain() {
        let u = base();
        assert!(u.is_t_certain());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn new_refuses_a_row_longer_than_the_schema() {
        let schema = Arc::new(Schema::from_pairs(&[("a", DataType::Int)]));
        let long = UTuple::certain(Tuple::new(vec![1.into(), 2.into()]));
        let got = URelation::new(schema, vec![long]);
        assert!(matches!(
            got,
            Err(crate::UrelError::Engine(EngineError::SchemaMismatch { .. }))
        ));
    }

    #[test]
    fn new_refuses_a_row_shorter_than_the_schema() {
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        let rows = vec![
            UTuple::certain(Tuple::new(vec![1.into(), 2.into()])),
            UTuple::certain(Tuple::new(vec![3.into()])),
        ];
        let got = URelation::new(schema, rows);
        assert!(matches!(
            got,
            Err(crate::UrelError::Engine(EngineError::SchemaMismatch { .. }))
        ));
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
        assert!(w0.is_t_certain());
        assert_eq!(w0.tuples()[0].value(1), &Value::str("F"));
        let w1 = u.instantiate(&[1]);
        assert_eq!(w1.tuples()[0].value(1), &Value::str("SE"));
        // A t-certain relation holds in every world: the same body.
        assert!(Arc::ptr_eq(&w1.body, &w1.instantiate(&[0]).body));
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
        // Instantiation is encoding-blind.
        assert_eq!(c.instantiate(&[0]), u.instantiate(&[0]));
        assert_eq!(c.instantiate(&[1]), u.instantiate(&[1]));
        // Nothing left to encode: the same body.
        assert!(Arc::ptr_eq(&c.body, &c.dict_encode().body));
    }

    #[test]
    fn gather_takes_columns_and_conditions() {
        let u = conditioned([Wsd::tautology(), Wsd::of(Var(0), 1)]).dict_encode();
        let g = u.gather(&[1, 0, 1]);
        assert!(matches!(
            g.at_rest().0.column(1).data(),
            ColumnData::Dict { .. }
        ));
        assert_eq!(g.tuples()[0], u.tuples()[1]);
        assert_eq!(g.tuples()[2], u.tuples()[1]);
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
        let extra = ColumnBatch::from_columns(
            vec![
                Column::from_values(vec!["Duncan".into()]),
                Column::from_values(vec!["SL".into()]),
            ],
            1,
        );
        table.append(&extra);
        let cells =
            ColumnBatch::from_columns(vec![Column::from_values(vec!["SE".into(), Value::Null])], 2);
        table.set_cells(&[0, 2], &[1], &cells);
        let got: Vec<(Vec<Value>, Wsd)> = table
            .tuples()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.wsd))
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
        assert!(s.ends_with("(2 tuples)\n"), "{s}");
    }

    #[test]
    fn certain_table_string_has_no_conditions_and_counts_rows() {
        let s = base().to_table_string(&WorldTable::new()).unwrap();
        assert!(s.contains("player") && s.contains("Bryant"));
        assert!(!s.contains("condition") && !s.contains("⊤"));
        assert!(s.ends_with("(2 rows)\n"), "{s}");
    }

    #[test]
    fn table_string_sizes_non_ascii_cells_by_characters() {
        let r = rel(
            &[("name", DataType::Text)],
            vec![vec!["Gasol".into()], vec!["Ginóbili".into()]],
        );
        let s = r.to_table_string(&WorldTable::new()).unwrap();
        // "Ginóbili" is 8 characters (9 bytes): every line is as wide.
        let lines: Vec<&str> = s.lines().take(6).collect();
        assert_eq!(lines[0], "+----------+");
        assert_eq!(lines[4], "| Ginóbili |");
        assert!(lines.iter().all(|l| l.chars().count() == 12), "{s}");
    }
}
