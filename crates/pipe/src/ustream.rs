//! A lazy, morsel-driven pipeline over U-relations.
//!
//! `maybms-core` evaluates the parsimonious translation (§2.3) as
//! [`UStream`]s: a chain of σ, π, and hash-join probes recorded as
//! **fused stages** over one source U-relation and run in a single
//! morsel-driven pass at [`UStream::collect`]. WSDs ride along with each
//! in-flight row, probe stages conjoin them (dropping unsatisfiable
//! pairs), and nothing is materialised between stages.
//!
//! Determinism contract: `collect()` is bit-identical — data, WSDs, row
//! order, and the first runtime error — to a row-major scalar walk of
//! the same chain, at any thread count and morsel size (morsel outputs
//! concatenate in morsel order; build tables merge morsel-locally in
//! morsel order; joins build on the right and probe with the left).
//! *Which* relation is on the right is the caller's choice — the join
//! planner in `maybms-core` builds on whichever side it knows to be
//! smaller and says so with [`UStream::annotate`].
//!
//! Every run — [`UStream::collect_with`], [`UStream::select_positions`],
//! [`UStream::collect_grouped`] — opens one `pipeline` span, keeps one
//! [`PipelineStats`] record, and ends with
//! [`PipelineStats::finish`], which hands that record to the metrics
//! registry, the span and the statement's [`QueryStats`]. The record holds
//! numbers only: a run formats no text ([`UStream::stage_labels`] and
//! [`source_label`] are for the plan's `EXPLAIN` walk). A stage-less
//! stream passes its source through without driving a morsel, and is
//! still one pipeline in every view; its span carries no morsel tally.

use std::fmt::Write as _;
use std::sync::Arc;

use maybms_engine::ops::ProjectItem;
use maybms_engine::vector::KernelCounts;
use maybms_engine::{EngineError, Expr, Field, Schema, Value};
use maybms_obs::{PipelineStats, QueryStats};
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation};

use crate::fuse::{self, Stage};
use crate::GroupedBatch;

/// A lazily evaluated U-relational pipeline: a source plus fused stages
/// (run by the crate's stage walker, `fuse`).
///
/// Stage constructors bind their expressions against the stream's
/// current schema immediately (so planning errors surface at plan
/// time); rows only flow — and probe
/// build tables are only constructed, morsel-locally, on the collecting
/// pool — at [`UStream::collect`].
pub struct UStream {
    source: URelation,
    stages: Vec<Stage>,
    schema: Arc<Schema>,
    /// Planner notes, `(stage index, text)`: see [`UStream::annotate`].
    notes: Vec<(usize, String)>,
}

impl UStream {
    /// Start a pipeline from a materialised U-relation.
    pub fn new(source: URelation) -> UStream {
        let schema = source.schema().clone();
        UStream {
            source,
            stages: Vec::new(),
            schema,
            notes: Vec::new(),
        }
    }

    /// The schema rows will have after the recorded stages.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of recorded stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Append a σ stage: keep rows whose *data* satisfies the predicate
    /// (NULL counts as not satisfied); conditions ride along.
    ///
    /// The predicate is constant-folded at bind time (the PR 3
    /// projection-merge guard applies: fallible subexpressions never
    /// fold out of short-circuited positions). A predicate folding to
    /// `true` records no stage at all; one folding to `false`/`NULL`
    /// short-circuits the whole stream to an empty U-relation — but
    /// only when every stage recorded so far is infallible, so a
    /// runtime error the fused chain would have raised is never
    /// swallowed.
    pub fn filter(mut self, predicate: &Expr) -> Result<UStream> {
        let bound = predicate.bind(&self.schema)?.fold();
        match &bound {
            Expr::Literal(Value::Bool(true)) => return Ok(self),
            Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null)
                if fuse::stages_infallible(&self.stages) =>
            {
                self.source = URelation::empty(self.schema.clone());
                self.stages.clear();
                self.notes.clear();
                return Ok(self);
            }
            _ => {}
        }
        self.stages.push(Stage::Filter(bound));
        Ok(self)
    }

    /// Append a π stage. Conditions are preserved and duplicates are
    /// *not* eliminated (§2.2: equal tuples under different conditions are
    /// different evidence). Expressions are constant-folded at bind time.
    pub fn project(mut self, items: &[ProjectItem]) -> Result<UStream> {
        let mut exprs = Vec::with_capacity(items.len());
        let mut fields = Vec::with_capacity(items.len());
        for item in items {
            let e = item.expr.bind(&self.schema)?;
            // Field type from the unfolded expression: folding must not
            // change the declared schema.
            fields.push(Field::new(item.name.clone(), e.data_type(&self.schema)));
            exprs.push(e.fold());
        }
        self.schema = Arc::new(Schema::new(fields));
        self.stages.push(Stage::Project(exprs));
        Ok(self)
    }

    /// Replace the output schema (same arity; e.g. re-qualifying after a
    /// projection) without touching the stages.
    pub fn with_schema(mut self, schema: Arc<Schema>) -> UStream {
        self.schema = schema;
        self
    }

    /// Say why the planner recorded the last stage: `note` follows that
    /// stage's `EXPLAIN` label in parentheses. Never changes what the
    /// stage does.
    pub fn annotate(mut self, note: String) -> UStream {
        if let Some(last) = self.stages.len().checked_sub(1) {
            self.notes.push((last, note));
        }
        self
    }

    /// Append a hash-join probe stage against `build`: an equi-join on
    /// positional keys (`left_keys[i] = right_keys[i]`, NULL never
    /// matches) that concatenates data and conjoins conditions, dropping
    /// pairs whose conjunction is unsatisfiable. The stream is the left /
    /// probe side, `build` the right / build side: rows come out in
    /// stream order with each row's matches in build-row order. The
    /// build table is constructed at collect time, morsel-locally on the
    /// collecting pool.
    pub fn hash_join(
        self,
        build: URelation,
        left_keys: &[usize],
        right_keys: &[usize],
    ) -> Result<UStream> {
        self.probe(build, left_keys, right_keys, false)
    }

    /// [`UStream::hash_join`] whose output rows put the build half first
    /// (`build row ++ stream row`); rows, their order and their conditions
    /// are the same. The join planner builds on the smaller side this way
    /// without moving a column of the joined row.
    pub fn hash_join_build_first(
        self,
        build: URelation,
        left_keys: &[usize],
        right_keys: &[usize],
    ) -> Result<UStream> {
        self.probe(build, left_keys, right_keys, true)
    }

    fn probe(
        mut self,
        build: URelation,
        left_keys: &[usize],
        right_keys: &[usize],
        build_first: bool,
    ) -> Result<UStream> {
        if left_keys.len() != right_keys.len() || left_keys.is_empty() {
            return Err(EngineError::InvalidOperator {
                message: "hash join requires matching, non-empty key lists".into(),
            }
            .into());
        }
        if left_keys.iter().any(|&k| k >= self.schema.len())
            || right_keys.iter().any(|&k| k >= build.schema().len())
        {
            return Err(EngineError::InvalidOperator {
                message: "hash join key out of range".into(),
            }
            .into());
        }
        self.schema = Arc::new(match build_first {
            true => build.schema().join(&self.schema),
            false => self.schema.join(build.schema()),
        });
        self.stages.push(Stage::Probe {
            build,
            left_keys: left_keys.to_vec(),
            right_keys: right_keys.to_vec(),
            build_first,
        });
        Ok(self)
    }

    /// Run the pipeline on the process-wide pool, outside any statement
    /// (its record goes to a throwaway [`QueryStats`]). Dispatches morsels
    /// in parallel for large sources; output is identical either way.
    pub fn collect(self) -> Result<URelation> {
        let (pool, stats) = (maybms_par::pool(), QueryStats::new());
        self.collect_with(&pool, crate::PAR_MIN_CHUNK, &stats)
    }

    /// [`UStream::collect`] on an explicit pool and minimum morsel size
    /// (what the determinism property tests pin to 1/2/8 threads),
    /// reporting to `statement`. The run's record never changes the
    /// output: its counts are order-independent sums of per-morsel
    /// tallies, bit-identical at any thread count or morsel size.
    pub fn collect_with(
        self,
        pool: &ThreadPool,
        min_morsel: usize,
        statement: &QueryStats,
    ) -> Result<URelation> {
        self.run(statement, |source, stages, schema, stats| {
            Ok(if stages.is_empty() {
                source.with_schema(schema)
            } else if all_filters(stages) {
                // Filter-only pipeline: gather the surviving rows' columns
                // and conditions from the source.
                let sel = fuse::select(&source, stages, pool, min_morsel, stats)?;
                source.gather(&sel).with_schema(schema)
            } else {
                fuse::collect(&source, stages, schema, pool, min_morsel, stats)?
            })
        })
    }

    /// Run a **filter-only** pipeline and return the positions of the
    /// surviving source rows, in order, instead of gathering them — how
    /// `UPDATE` / `DELETE` find their targets. Same executor, span and
    /// record as [`UStream::collect_with`]: zero-pivot and vectorised,
    /// morsel-parallel, governor-checked,
    /// identical at any thread count. Errors, before running anything, on
    /// a stream holding a projection or join stage (its rows are not
    /// source rows).
    pub fn select_positions(
        self,
        pool: &ThreadPool,
        min_morsel: usize,
        statement: &QueryStats,
    ) -> Result<Vec<usize>> {
        if !all_filters(&self.stages) {
            return Err(EngineError::InvalidOperator {
                message: "row positions requested from a pipeline that constructs rows".into(),
            }
            .into());
        }
        self.run(statement, |source, stages, _, stats| match stages {
            [] => Ok((0..source.len()).collect()),
            _ => fuse::select(&source, stages, pool, min_morsel, stats),
        })
    }

    /// Run the pipeline with **grouped aggregation as the breaker**: every
    /// morsel's surviving rows fold straight into a morsel-local
    /// [`GroupTable`](maybms_engine::group::GroupTable) keyed by the
    /// (bound-here) `group_exprs`, and the tables merge in morsel order —
    /// the input is never materialised.
    ///
    /// The accumulator is caller-defined: `new_state` opens a group,
    /// `fold` absorbs one [`GroupedBatch`] — rows as columns, each row's
    /// group (an index into the morsel's states) and its WSD — and
    /// `merge` absorbs a later morsel's state into an earlier one.
    /// `fold` reads only the columns `reads` (positions in
    /// [`UStream::schema`]) besides the keys: every other column of its
    /// batches is a NULL constant, and no probe gathers it. The
    /// fold raises the error the scalar walk would meet first among the
    /// batch's rows, and counts its vector kernels into the run's record.
    /// Determinism contract: provided `fold`-then-`merge` equals folding
    /// the concatenated rows (see [`maybms_engine::ops::ExactSum`] for
    /// float sums), the returned `(keys, states)` — first-seen key order
    /// included — are identical to a sequential scan at any thread count
    /// and morsel size.
    ///
    /// With no group expressions a single global group is guaranteed,
    /// even over an empty input (SQL's scalar-aggregate behaviour).
    ///
    /// Runs on an explicit pool and minimum morsel size (what the
    /// determinism property tests pin to 1/2/8 threads and single-row
    /// morsels), reporting to `statement` like [`UStream::collect_with`];
    /// the record's group count is the merged group count.
    #[allow(clippy::too_many_arguments)]
    pub fn collect_grouped<A, NF, FF, MF>(
        self,
        group_exprs: &[Expr],
        reads: &[usize],
        pool: &ThreadPool,
        min_morsel: usize,
        statement: &QueryStats,
        new_state: NF,
        fold: FF,
        merge: MF,
    ) -> Result<(Vec<Vec<Value>>, Vec<A>)>
    where
        A: Send,
        NF: Fn() -> A + Sync,
        FF: Fn(&mut [A], &GroupedBatch<'_>, &mut KernelCounts) -> Result<()> + Sync,
        MF: FnMut(&mut A, A) -> Result<()>,
    {
        let bound: Vec<Expr> = group_exprs
            .iter()
            .map(|e| e.bind(&self.schema))
            .collect::<std::result::Result<_, EngineError>>()?;
        self.run(statement, |source, stages, _, stats| {
            crate::groupby::group_stream(
                &source, stages, &bound, reads, pool, min_morsel, stats, new_state, fold, merge,
            )
        })
    }

    /// One pipeline run: open its `pipeline` span, keep its record while
    /// `body` drives the stages over the source, then finish the record
    /// — registry, span and `statement` — whether the run succeeded or
    /// not.
    fn run<T>(
        self,
        statement: &QueryStats,
        body: impl FnOnce(URelation, &[Stage], Arc<Schema>, &PipelineStats) -> Result<T>,
    ) -> Result<T> {
        let mut span = maybms_obs::trace::span("pipeline");
        span.attr("stages", self.stages.len());
        span.attr("source_rows", self.source.len());
        let stats = PipelineStats::new(self.source.len(), self.stages.len());
        let UStream {
            source,
            stages,
            schema,
            ..
        } = self;
        let out = body(source, &stages, schema, &stats);
        stats.finish(&mut span, statement);
        out
    }

    /// The width of the rows each recorded stage outputs.
    pub fn stage_widths(&self) -> Vec<usize> {
        fuse::widths(self.source.schema().len(), &self.stages)
    }

    /// One label per recorded stage — the text the plan's `EXPLAIN` walk
    /// prints for it (`EXPLAIN ANALYZE` is the same walk). Stages the vector kernels run
    /// (σ/π whose expressions they take, and every probe) are marked
    /// `(vectorised)`, filters whose zone maps decide which morsels run
    /// `(zone map)`; planner notes follow in parentheses.
    pub fn stage_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self
            .stages
            .iter()
            .map(|stage| {
                let vec_mark = match fuse::vectorised(stage) {
                    true => " (vectorised)",
                    false => "",
                };
                match stage {
                    Stage::Filter(predicate) => format!("filter {predicate}{vec_mark}"),
                    Stage::Project(exprs) => {
                        let cols: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                        format!("project [{}]{vec_mark}", cols.join(", "))
                    }
                    Stage::Probe {
                        left_keys,
                        right_keys,
                        ..
                    } => {
                        let keys: Vec<String> = left_keys
                            .iter()
                            .zip(right_keys)
                            .map(|(l, r)| format!("#{l} = build #{r}"))
                            .collect();
                        format!("hash probe [{}]{vec_mark}", keys.join(", "))
                    }
                }
            })
            .collect();
        for (k, _) in fuse::zone_stages(&self.source, &self.stages) {
            labels[k].push_str(" (zone map)");
        }
        for (k, note) in &self.notes {
            let _ = write!(labels[*k], " ({note})");
        }
        labels
    }
}

/// Is every stage a σ (so the output rows are source rows)?
fn all_filters(stages: &[Stage]) -> bool {
    stages.iter().all(|s| matches!(s, Stage::Filter(_)))
}

/// How `EXPLAIN` names a pipeline's source of `rows` stored rows —
/// columns its morsels slice, never pivot.
pub fn source_label(rows: usize) -> String {
    format!("{rows} stored rows (columnar, zero-pivot)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::DataType;
    use maybms_urel::rel;
    use maybms_urel::{Var, WorldTable, Wsd};

    fn setup() -> (WorldTable, URelation) {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        let base = rel(
            &[("player", DataType::Text), ("state", DataType::Text)],
            vec![
                vec!["Bryant".into(), "F".into()],
                vec!["Bryant".into(), "SE".into()],
                vec!["Duncan".into(), "F".into()],
                vec!["Duncan".into(), "SL".into()],
            ],
        );
        let wsds = vec![Wsd::of(x, 0), Wsd::of(x, 1), Wsd::of(y, 0), Wsd::of(y, 1)];
        (wt, base.gather_with(&[0, 1, 2, 3], wsds))
    }

    /// Fused σ → probe → π: WSDs conjoin, the self-join's unsatisfiable
    /// pairs drop, and rows come out in probe order — at any thread count.
    #[test]
    fn fused_chain_conjoins_and_drops_contradictions() {
        let (_, u) = setup();
        let pred = Expr::col("state").eq(Expr::lit("F"));
        let items = [ProjectItem::new(Expr::ColumnIdx(0), "who")];
        let chain = || {
            UStream::new(u.clone())
                .filter(&pred)
                .unwrap()
                .hash_join(u.clone(), &[0], &[0])
                .unwrap()
                .project(&items)
                .unwrap()
        };
        assert_eq!(chain().schema().names(), vec!["who"]);
        // Each F row pairs with itself only: its sibling alternative
        // (x↦0 ∧ x↦1) is unsatisfiable.
        let want = vec![
            (Value::str("Bryant"), Wsd::of(Var(0), 0)),
            (Value::str("Duncan"), Wsd::of(Var(1), 0)),
        ];
        let rows = |r: &URelation| -> Vec<(Value, Wsd)> {
            r.tuples()
                .iter()
                .map(|t| (t.data.value(0).clone(), t.wsd.clone()))
                .collect()
        };
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let got = chain().collect_with(&pool, 1, &QueryStats::new()).unwrap();
            assert_eq!(rows(&got), want, "threads = {threads}");
        }
        assert_eq!(rows(&chain().collect().unwrap()), want);
    }

    /// A build-first probe yields the same rows, in the same order and
    /// under the same conditions, with each row's two halves swapped.
    #[test]
    fn build_first_probe_swaps_the_halves_only() {
        let (_, u) = setup();
        let f = Expr::col("state").eq(Expr::lit("F"));
        let build = UStream::new(u.clone())
            .filter(&f)
            .unwrap()
            .collect()
            .unwrap();
        let join = |first: bool| {
            let s = UStream::new(u.clone());
            let s = match first {
                true => s.hash_join_build_first(build.clone(), &[0], &[0]),
                false => s.hash_join(build.clone(), &[0], &[0]),
            };
            s.unwrap()
                .collect_with(&ThreadPool::new(2), 1, &QueryStats::new())
                .unwrap()
        };
        let (plain, swapped) = (join(false), join(true));
        assert_eq!(
            swapped.schema().names(),
            vec!["player", "state", "player", "state"]
        );
        assert_eq!(plain.len(), 2); // each F row with itself: its sibling contradicts
        for (p, s) in plain.tuples().iter().zip(swapped.tuples()) {
            assert_eq!(p.wsd, s.wsd);
            assert_eq!(p.data.values()[..2], s.data.values()[2..]);
            assert_eq!(p.data.values()[2..], s.data.values()[..2]);
        }
    }

    #[test]
    fn filter_only_stream_gathers() {
        let (_, u) = setup();
        let pred = Expr::col("player").eq(Expr::lit("Bryant"));
        let got = UStream::new(u.clone())
            .filter(&pred)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got.tuples(), &u.tuples()[..2]);
        assert_eq!(got.tuples()[0].wsd, Wsd::of(Var(0), 0));
    }

    #[test]
    fn select_positions_names_the_rows_collect_would_gather() {
        let base = rel(
            &[("k", DataType::Int), ("s", DataType::Text)],
            (0..500i64)
                .map(|k| vec![k.into(), format!("s{}", k % 7).into()])
                .collect(),
        );
        // Plain and dictionary-encoded string columns alike.
        for u in [base.dict_encode(), base] {
            let pred = Expr::col("k")
                .binary(maybms_engine::BinaryOp::Gt, Expr::lit(40i64))
                .and(Expr::col("s").eq(Expr::lit("s3")));
            let want: Vec<usize> = (0..500).filter(|k| *k > 40 && k % 7 == 3).collect();
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                for min_morsel in [1, 64, 4096] {
                    let got = UStream::new(u.clone())
                        .filter(&pred)
                        .unwrap()
                        .select_positions(&pool, min_morsel, &QueryStats::new())
                        .unwrap();
                    assert_eq!(got, want, "threads {threads}, morsel {min_morsel}");
                }
            }
            let pool = ThreadPool::new(2);
            // No predicate: every row. A constant-false one: none.
            let qs = QueryStats::new();
            let all = UStream::new(u.clone())
                .select_positions(&pool, 64, &qs)
                .unwrap();
            assert_eq!(all, (0..500).collect::<Vec<_>>());
            let none = UStream::new(u.clone())
                .filter(&Expr::lit(false))
                .unwrap()
                .select_positions(&pool, 64, &QueryStats::new())
                .unwrap();
            assert!(none.is_empty());
            // Rows a projection built have no source position.
            let projected = UStream::new(u.clone())
                .project(&[ProjectItem::new(Expr::ColumnIdx(0), "k")])
                .unwrap();
            assert!(projected
                .select_positions(&pool, 64, &QueryStats::new())
                .is_err());
        }
    }

    #[test]
    fn empty_stream_returns_source() {
        let (_, u) = setup();
        let got = UStream::new(u.clone()).collect().unwrap();
        assert_eq!(got.tuples(), u.tuples());
    }

    #[test]
    fn binding_errors_surface_at_stage_construction() {
        let (_, u) = setup();
        assert!(UStream::new(u.clone())
            .filter(&Expr::col("nope").eq(Expr::lit(1i64)))
            .is_err());
        assert!(UStream::new(u.clone())
            .hash_join(u.clone(), &[], &[])
            .is_err());
        assert!(UStream::new(u.clone()).hash_join(u, &[7], &[0]).is_err());
    }
}
