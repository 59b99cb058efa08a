//! The fused-execution core: one morsel-driven stage walker over
//! U-relations.
//!
//! A source [`URelation`] is pushed through Filter/Project/Probe stages
//! morsel by morsel. Each in-flight row carries its [`Wsd`]: probe stages
//! conjoin the probe and build rows' conditions and drop the pair when
//! the conjunction is unsatisfiable; a t-certain source is simply one
//! whose conditions are all empty. The selection-vector fast path, the
//! scratch-buffer recursion, and the morsel-ordered merge live here once.
//!
//! What happens to a row that survives the whole stage chain is
//! pluggable: a [`MorselSink`] receives each output row. The default
//! sink batches rows into a morsel-local
//! [`TupleBatch`](maybms_engine::tuple::TupleBatch) (pipelines that
//! *materialise*); the grouped-aggregation breaker
//! ([`groupby`](crate::groupby)) instead folds each row straight into a
//! morsel-local group table, so grouped plans never materialise their
//! input at all.
//!
//! Every pipeline — a filter-only selection ([`select`]), a sink walk
//! ([`run_sink`]) and the grouped breaker's dense-code fold — runs on
//! the one morsel driver, [`drive`]: it alone owns the chunk rule, the
//! per-morsel governor checkpoint, and the flush of each morsel's
//! [`Tally`] into the pipeline's [`PipelineStats`]. What a morsel *does*
//! is the caller's body.
//!
//! Build tables for probe stages are constructed *here*, at execution
//! time, morsel-locally on the caller's pool — deferring the build to
//! the same pool and morsel size the rest of the pipeline uses.

use std::ops::Range;

use maybms_engine::column::ColumnBatch;
use maybms_engine::error::EngineError;
use maybms_engine::tuple::{Tuple, TupleBatch};
use maybms_engine::vector::KernelCounts;
use maybms_engine::{ops, vector, Expr, Value};
use maybms_obs::PipelineStats;
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation, Wsd};

use crate::build::BuildTable;
use crate::row_key_hash;

/// The at-rest column batch of a columnar source. Kernel-eligible
/// prefixes slice it directly instead of pivoting each morsel (the
/// zero-pivot scan path).
fn at_rest(source: &URelation) -> Option<&ColumnBatch> {
    source.at_rest().map(|(batch, _)| batch)
}

/// Row `i`'s condition alone — unlike `tuples()[i]`, never forces a
/// columnar-at-rest source to materialise its row view.
fn wsd_at(source: &URelation, i: usize) -> &Wsd {
    match source.at_rest() {
        Some((_, wsds)) => &wsds[i],
        None => &source.tuples()[i].wsd,
    }
}

/// One bound, ready-to-run stage.
pub(crate) enum Stage {
    /// σ — expressions bound to the incoming row shape.
    Filter(Expr),
    /// π — one bound expression per output column.
    Project(Vec<Expr>),
    /// Hash-join probe: `stream row ++ build row` (or `build row ++
    /// stream row`) per verified candidate, conditions conjoined.
    Probe {
        /// The materialised build side (its table is built at run time).
        build: URelation,
        /// Key columns in the incoming row.
        left_keys: Vec<usize>,
        /// Key columns in the build rows.
        right_keys: Vec<usize>,
        /// Whether the build row comes first in the joined row.
        build_first: bool,
    },
}

/// Can no stage of this chain raise a runtime error? Probes evaluate no
/// expressions (hash, verify, conjoin), so only σ/π expressions count.
/// This is the guard for the bind-time `σ_false → empty` shortcut: an
/// all-infallible chain can be skipped without swallowing an error.
pub(crate) fn stages_infallible(stages: &[Stage]) -> bool {
    stages.iter().all(|s| match s {
        Stage::Filter(p) => p.infallible(),
        Stage::Project(es) => es.iter().all(Expr::infallible),
        Stage::Probe { .. } => true,
    })
}

/// How many leading stages of `stages` are kernel-eligible: a run of
/// σ/π whose expressions all pass [`vector::vectorisable`], ending at
/// the first probe (probes — and the WSD bookkeeping that rides on them
/// — stay row-wise; the batch pivots back to shared-row tuples there).
/// This is the per-stage decision `EXPLAIN` reports.
pub(crate) fn vector_prefix_len(stages: &[Stage]) -> usize {
    stages
        .iter()
        .take_while(|s| match s {
            Stage::Filter(p) => vector::vectorisable(p),
            Stage::Project(es) => es.iter().all(vector::vectorisable),
            Stage::Probe { .. } => false,
        })
        .count()
}

/// One stage of the columnar plan, expressions remapped (where they
/// predate the first projection) to the pivoted column subset.
enum VecStage {
    Filter(Expr),
    Project(Vec<Expr>),
}

/// The columnar execution plan for a pipeline's kernel-eligible prefix,
/// computed once per pipeline run (plan time), shared by every morsel.
struct VecPrefix {
    /// Number of `stages` covered (the rest run row-wise).
    len: usize,
    stages: Vec<VecStage>,
    /// Source columns to pivot — only those the prefix reads (up to and
    /// including the first projection, which replaces the row shape).
    pivot_cols: Vec<usize>,
}

/// Plan the columnar prefix, or `None` when nothing vectorises.
fn plan_vec(stages: &[Stage]) -> Option<VecPrefix> {
    let len = vector_prefix_len(stages);
    if len == 0 {
        return None;
    }
    let first_proj = stages[..len]
        .iter()
        .position(|s| matches!(s, Stage::Project(_)));
    // Stages up to (and including) the first projection read the source
    // row shape; later prefix stages read the projected batch whole.
    let remap_upto = first_proj.map_or(len, |p| p + 1);
    let mut pivot_cols = Vec::new();
    for s in &stages[..remap_upto] {
        match s {
            Stage::Filter(p) => p.referenced_columns(&mut pivot_cols),
            Stage::Project(es) => es.iter().for_each(|e| e.referenced_columns(&mut pivot_cols)),
            Stage::Probe { .. } => unreachable!("prefix stops at probes"),
        }
    }
    pivot_cols.sort_unstable();
    pivot_cols.dedup();
    let map = |i: usize| {
        pivot_cols.binary_search(&i).expect("referenced column collected above")
    };
    let mut vec_stages = Vec::with_capacity(len);
    for (k, s) in stages[..len].iter().enumerate() {
        let remap = k < remap_upto;
        match s {
            Stage::Filter(p) => vec_stages.push(VecStage::Filter(if remap {
                p.remap_columns(&map)
            } else {
                p.clone()
            })),
            Stage::Project(es) => vec_stages.push(VecStage::Project(
                es.iter()
                    .map(|e| if remap { e.remap_columns(&map) } else { e.clone() })
                    .collect(),
            )),
            Stage::Probe { .. } => unreachable!("prefix stops at probes"),
        }
    }
    Some(VecPrefix { len, stages: vec_stages, pivot_cols })
}

/// One morsel's counts, kept on the worker's stack and flushed into the
/// pipeline's [`PipelineStats`] once, when the morsel ends: `(rows in,
/// rows out)` per stage, and the vector-kernel batches the stages ran.
/// Row counts per stage are independent of morsel boundaries, so their
/// sums are identical to a sequential scan at any thread count or
/// morsel size.
pub(crate) struct Tally {
    stages: Vec<(u64, u64)>,
    kernels: KernelCounts,
}

/// The `(rows in, rows out)` slots of a run of stages.
type StageTally = [(u64, u64)];

/// The one morsel driver: run `morsel` over `source`'s rows in morsels
/// on `pool` and return the per-morsel results **in morsel order**; the
/// earliest morsel's error wins, so the error (if any) is identical to a
/// sequential scan at any thread count. The per-morsel machinery every
/// pipeline shares lives here once — the chunk rule, the governor
/// checkpoint, and the flush of each finished morsel's [`Tally`] into
/// `stats`.
pub(crate) fn drive<T: Send>(
    source: &URelation,
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    morsel: impl Fn(Range<usize>, &mut Tally) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    // Several morsels even on a one-thread pool: each is a governor
    // checkpoint, and a row store pivots one morsel at a time.
    let chunk = maybms_par::auto_chunk(source.len(), pool.threads(), min_morsel);
    let outputs: Vec<Result<T>> = pool.par_map_chunks(source.len(), chunk, |range| {
        // Governor checkpoint: one relaxed load per morsel when no
        // limit is armed.
        maybms_gov::check().map_err(EngineError::Gov)?;
        let rows_in = range.len() as u64;
        let mut tally =
            Tally { stages: vec![(0, 0); stats.stages.len()], kernels: KernelCounts::default() };
        let out = morsel(range, &mut tally)?;
        let kernels = tally.kernels;
        stats.flush_morsel(rows_in, &tally.stages, kernels.batches, kernels.scalar_fallbacks);
        Ok(out)
    });
    outputs.into_iter().collect()
}

/// Run the columnar prefix over one morsel. Returns the surviving rows'
/// batch (when the prefix projected), their source indices (for
/// conditions, and for the row values when it did not), and the morsel's
/// pending error.
///
/// Error discipline (replicating the row-major scalar order): whenever a
/// stage errors at some row, the batch truncates to the rows *before*
/// it and later stages keep running on them — any error they find is at
/// a strictly earlier source row and replaces the pending one, so the
/// error that survives is the one the scalar row-at-a-time walk would
/// have hit first. Rows that survive every stage ahead of the error row
/// still reach the sink, exactly as the scalar walk pushed them before
/// erroring (the sink is discarded on error either way).
fn run_vec(
    pre: &VecPrefix,
    source: &URelation,
    range: Range<usize>,
    tally: &mut StageTally,
    kernels: &mut KernelCounts,
) -> (Option<ColumnBatch>, Vec<u32>, Option<EngineError>) {
    let mut src: Vec<u32> = range.clone().map(|i| i as u32).collect();
    // Columnar-at-rest sources hand the prefix typed column slices
    // straight from storage — no pivot, no row materialisation. Row
    // stores pivot this one morsel (counted by the pivot metrics).
    let mut batch = match at_rest(source) {
        Some(rest) => rest.slice_cols(range.start, range.len(), &pre.pivot_cols),
        None => ColumnBatch::pivot(
            range.len(),
            source.tuples()[range.clone()].iter().map(|t| t.data.values()),
            &pre.pivot_cols,
        ),
    };
    let mut pending = None;
    let mut projected = false;
    for (k, stage) in pre.stages.iter().enumerate() {
        tally[k].0 += batch.rows() as u64;
        match stage {
            VecStage::Filter(p) => {
                let (sel, err) = vector::selection(p, &batch, kernels);
                if let Some((_, e)) = err {
                    pending = Some(e);
                }
                batch = batch.gather(&sel);
                src = sel.iter().map(|&j| src[j as usize]).collect();
            }
            VecStage::Project(es) => {
                let mut n_valid = batch.rows();
                let mut cols = Vec::with_capacity(es.len());
                for e in es {
                    let (col, err) = vector::eval_batch(e, &batch, kernels);
                    if let Some((k, er)) = err {
                        // Scalar order: expressions left to right within
                        // a row, rows in order — a later expression's
                        // error only wins at a strictly earlier row.
                        if k < n_valid {
                            n_valid = k;
                            pending = Some(er);
                        }
                    }
                    cols.push(col);
                }
                batch = ColumnBatch::from_columns(cols, n_valid);
                src.truncate(n_valid);
                projected = true;
            }
        }
        tally[k].1 += batch.rows() as u64;
    }
    (projected.then_some(batch), src, pending)
}

/// A morsel-local consumer of rows that survive the stage chain. One
/// sink exists per morsel; the caller merges finished sinks in morsel
/// order, so a sink never needs to be thread-safe itself.
pub(crate) trait MorselSink {
    /// Consume one surviving row and its condition.
    fn push(&mut self, row: &[Value], wsd: &Wsd) -> Result<()>;
}

/// The materialising sink: rows into a morsel-local [`TupleBatch`],
/// conditions alongside.
struct RowsSink {
    batch: TupleBatch,
    wsds: Vec<Wsd>,
}

impl MorselSink for RowsSink {
    fn push(&mut self, row: &[Value], wsd: &Wsd) -> Result<()> {
        self.batch.begin_row();
        for v in row {
            self.batch.push_value(v.clone());
        }
        self.wsds.push(wsd.clone());
        Ok(())
    }
}

/// Run `stages` over every row of `source` on the morsel driver, feeding
/// every surviving row into a fresh per-morsel sink built by
/// `make_sink`. Returns the finished sinks **in morsel order**.
///
/// The kernel-eligible σ/π prefix of the chain runs vectorised per
/// morsel (slice or pivot → typed kernels → gather), pivoting back to
/// rows for the remaining stages and the sink — output and errors
/// bit-identical to the row-at-a-time walk that stages outside the
/// prefix take.
pub(crate) fn run_sink<Sk, MK>(
    source: &URelation,
    stages: &[Stage],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    make_sink: MK,
) -> Result<Vec<Sk>>
where
    Sk: MorselSink + Send,
    MK: Fn() -> Sk + Sync,
{
    // Morsel-local build tables for the probe stages, on this pool.
    let tables: Vec<Option<BuildTable>> = stages
        .iter()
        .zip(&stats.stages)
        .map(|(s, slot)| match s {
            Stage::Probe { build, right_keys, .. } => {
                slot.build_rows.add(build.len() as u64);
                Some(build_table(build, right_keys, pool, min_morsel))
            }
            _ => None,
        })
        .collect();
    let pre = plan_vec(stages);

    drive(source, pool, min_morsel, stats, |range, tally| {
        let mut sink = make_sink();
        let mut gov = maybms_gov::Ticker::new();
        if let Some(pre) = &pre {
            // Columnar prefix, then the row walk for the rest.
            let rest = &stages[pre.len..];
            let rest_tables = &tables[pre.len..];
            let mut scratch: Vec<Vec<Value>> = vec![Vec::new(); rest.len()];
            let (prefix_tally, rest_tally) = tally.stages.split_at_mut(pre.len);
            let (batch, src, pending) =
                run_vec(pre, source, range, prefix_tally, &mut tally.kernels);
            let mut rowbuf: Vec<Value> = Vec::new();
            for (j, &si) in src.iter().enumerate() {
                let row: &[Value] = match &batch {
                    Some(b) => {
                        b.write_row(j, &mut rowbuf);
                        &rowbuf
                    }
                    None => source.tuples()[si as usize].data.values(),
                };
                push_row(
                    row,
                    wsd_at(source, si as usize),
                    rest,
                    rest_tables,
                    0,
                    &mut scratch,
                    rest_tally,
                    &mut sink,
                    &mut gov,
                )?;
            }
            // Any row-walk error above was at an earlier source row
            // than the prefix's pending error — row-major order.
            if let Some(e) = pending {
                return Err(e.into());
            }
        } else {
            let mut scratch: Vec<Vec<Value>> = vec![Vec::new(); stages.len()];
            for t in &source.tuples()[range] {
                push_row(
                    t.data.values(),
                    &t.wsd,
                    stages,
                    &tables,
                    0,
                    &mut scratch,
                    &mut tally.stages,
                    &mut sink,
                    &mut gov,
                )?;
            }
        }
        Ok(sink)
    })
}

/// Build a probe stage's hash table. A columnar-at-rest build side with
/// a single dictionary-encoded key column hashes each *distinct*
/// dictionary entry once (cached on the dictionary itself, so repeated
/// joins against the same stored table never re-hash) and assigns row
/// hashes by code lookup — no build-row materialisation. The hash values
/// are exactly [`row_key_hash`]'s, so probe-side hashing, candidate
/// verification, and NULL-key handling are unchanged.
fn build_table(
    build: &URelation,
    right_keys: &[usize],
    pool: &ThreadPool,
    min_morsel: usize,
) -> BuildTable {
    if let ([k], Some(rest)) = (right_keys, at_rest(build)) {
        let col = rest.column(*k);
        if let maybms_engine::ColumnData::Dict { codes, dict } = col.data() {
            let entry_hashes = dict.cached_hashes(|entries| {
                entries
                    .iter()
                    .map(|s| {
                        maybms_engine::ops::single_key_hash(&Value::Str(s.clone()))
                            .expect("non-NULL string keys always hash")
                    })
                    .collect()
            });
            return BuildTable::build(
                build.len(),
                |i| {
                    if col.is_null(i) {
                        None // NULL keys never enter the table
                    } else {
                        Some(entry_hashes[codes[i] as usize])
                    }
                },
                pool,
                min_morsel,
            );
        }
    }
    let rows = build.tuples();
    BuildTable::build(
        build.len(),
        |i| row_key_hash(rows[i].data.values(), right_keys),
        pool,
        min_morsel,
    )
}

/// Run an all-filter `stages` chain over `source` on the morsel driver
/// and return the surviving source positions, in order — a selection
/// vector end to end (columnar predicates produce the selection
/// directly, so the output can share the source's row storage).
pub(crate) fn select(
    source: &URelation,
    stages: &[Stage],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
) -> Result<Vec<usize>> {
    let pre = plan_vec(stages);
    let partials = drive(source, pool, min_morsel, stats, |range, tally| {
        let (src, pending, start) = match &pre {
            Some(pre) => {
                let (_, src, pending) =
                    run_vec(pre, source, range, &mut tally.stages, &mut tally.kernels);
                (src, pending, pre.len)
            }
            None => (range.map(|i| i as u32).collect(), None, 0),
        };
        let mut sel = Vec::new();
        if stages[start..].is_empty() {
            // Fully vectorised chain: the selection is final — on a
            // columnar-at-rest source no row is ever touched.
            sel.extend(src.iter().map(|&si| si as usize));
        } else {
            let mut gov = maybms_gov::Ticker::new();
            'row: for &si in &src {
                gov.tick().map_err(EngineError::Gov)?;
                let row = source.tuples()[si as usize].data.values();
                for (k, s) in stages[start..].iter().enumerate() {
                    let Stage::Filter(p) = s else { unreachable!() };
                    tally.stages[start + k].0 += 1;
                    if !p.eval_predicate_values(row)? {
                        continue 'row;
                    }
                    tally.stages[start + k].1 += 1;
                }
                sel.push(si as usize);
            }
        }
        match pending {
            Some(e) => Err(e.into()),
            None => Ok(sel),
        }
    })?;
    Ok(partials.concat())
}

/// Run `stages` over `source` on the morsel driver, materialising the
/// surviving rows and their conditions. Morsel outputs merge in morsel
/// order; the output (and error row, if any) is identical to a
/// sequential scan at any thread count.
pub(crate) fn rows(
    source: &URelation,
    stages: &[Stage],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
) -> Result<(Vec<Tuple>, Vec<Wsd>)> {
    let sinks = run_sink(source, stages, pool, min_morsel, stats, || RowsSink {
        batch: TupleBatch::new(),
        wsds: Vec::new(),
    })?;
    let mut tuples = Vec::new();
    let mut wsds = Vec::new();
    for sink in sinks {
        tuples.extend(sink.batch.finish());
        wsds.extend(sink.wsds);
    }
    Ok((tuples, wsds))
}

/// Push one in-flight row through `stages[depth..]`. `scratch[depth]`
/// is the reusable value buffer of the constructing stage at `depth` —
/// taken out around the recursion and always restored, so the morsel
/// allocates nothing after warmup even across evaluation errors.
#[allow(clippy::too_many_arguments)]
fn push_row<Sk: MorselSink>(
    row: &[Value],
    wsd: &Wsd,
    stages: &[Stage],
    tables: &[Option<BuildTable>],
    depth: usize,
    scratch: &mut [Vec<Value>],
    tally: &mut StageTally,
    sink: &mut Sk,
    gov: &mut maybms_gov::Ticker,
) -> Result<()> {
    let Some(stage) = stages.get(depth) else {
        // Morsel-boundary checks alone are not enough here: a probe
        // chain can expand one source morsel into an unbounded cross
        // product, so a runaway join would be uncancellable and blow
        // straight through a memory budget.
        gov.tick().map_err(EngineError::Gov)?;
        return sink.push(row, wsd);
    };
    tally[depth].0 += 1;
    match stage {
        Stage::Filter(p) => {
            if p.eval_predicate_values(row)? {
                tally[depth].1 += 1;
                push_row(row, wsd, stages, tables, depth + 1, scratch, tally, sink, gov)?;
            }
            Ok(())
        }
        Stage::Project(exprs) => {
            let mut vals = std::mem::take(&mut scratch[depth]);
            vals.clear();
            let mut result = Ok(());
            for e in exprs {
                match e.eval_values(row) {
                    Ok(v) => vals.push(v),
                    Err(e) => {
                        result = Err(e.into());
                        break;
                    }
                }
            }
            if result.is_ok() {
                tally[depth].1 += 1;
                result =
                    push_row(&vals, wsd, stages, tables, depth + 1, scratch, tally, sink, gov);
            }
            scratch[depth] = vals;
            result
        }
        Stage::Probe { build, left_keys, right_keys, build_first } => {
            let Some(h) = row_key_hash(row, left_keys) else { return Ok(()) };
            let table = tables[depth].as_ref().expect("probe stage has a build table");
            let mut vals = std::mem::take(&mut scratch[depth]);
            let mut result = Ok(());
            for &ri in table.candidates(h) {
                // Only a candidate touches the build's row view (a
                // columnar-at-rest build side materialises it lazily).
                let b = &build.tuples()[ri as usize];
                let brow = b.data.values();
                if !ops::join_keys_eq(row, left_keys, brow, right_keys) {
                    continue; // hash collision
                }
                // An unsatisfiable conjunction drops the joined row.
                let Some(joined) = wsd.conjoin(&b.wsd) else { continue };
                let (first, second) = if *build_first { (brow, row) } else { (row, brow) };
                vals.clear();
                vals.extend_from_slice(first);
                vals.extend_from_slice(second);
                tally[depth].1 += 1;
                if let Err(e) =
                    push_row(&vals, &joined, stages, tables, depth + 1, scratch, tally, sink, gov)
                {
                    result = Err(e);
                    break;
                }
            }
            scratch[depth] = vals;
            result
        }
    }
}
