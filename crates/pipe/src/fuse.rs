//! The fused-execution core: one morsel-driven stage walker over
//! U-relations.
//!
//! A source [`URelation`] is pushed through Filter/Project/Probe stages
//! morsel by morsel, as column batches: each morsel is read in vectors of
//! [`VECTOR_ROWS`] rows — typed slices of the source's columns — and
//! every stage turns a batch into the next. σ and π evaluate through
//! the kernels of [`maybms_engine::vector`] (an
//! expression the kernels do not take runs row by row over the batch); a
//! probe hashes the key columns, verifies candidates on typed values,
//! conjoins the pair's conditions — dropping the unsatisfiable — and
//! gathers the joined rows from both sides' columns. A t-certain source
//! is simply one whose conditions are all empty, and no conjoin runs for
//! it. No `Value` row is built on the way.
//!
//! What happens to the rows that survive the whole chain is pluggable: a
//! [`MorselSink`] receives each batch. The materialising sink keeps the
//! batches, which concatenate into the result's columns ([`collect`]);
//! the grouped-aggregation breaker ([`groupby`](crate::groupby)) folds
//! each batch into a morsel-local group table.
//!
//! Every pipeline — a filter-only selection ([`select`]) and a sink walk
//! ([`run_sink`]) — runs on the one morsel driver, [`drive`]: it alone
//! owns the chunk rule, the per-morsel governor checkpoint, and the flush
//! of each morsel's [`Tally`] into the pipeline's [`PipelineStats`]. What
//! a morsel *does* is the caller's body.
//!
//! Build tables for probe stages are constructed *here*, at execution
//! time, morsel-locally on the caller's pool — deferring the build to
//! the same pool and morsel size the rest of the pipeline uses.
//!
//! # Error order
//!
//! The output, and the first runtime error, are the row-major scalar
//! walk's: each source row in order, depth-first through the stages. A
//! batch runs stage by stage instead, and keeps that order by
//! truncation: when a stage errors at some row, the rows before it run
//! on — any error they raise later is at a strictly earlier row and wins
//! — and the stage's own error is returned only after them. A probe's
//! output keeps the walk's order too (probe row order, then candidate
//! order), chunk by chunk.
//!
//! # Candidate ranges: the zone-map skip rule
//!
//! [`drive`] reads only the rows [`candidate_ranges`] keeps. The leading
//! σ stages (before any π or probe) are walked while they are
//! `column op literal`: a stage **contributes**
//! if its column has a zone map ([`URelation::zones`]: stored as `Int`)
//! and [`Value::sql_cmp`] of an `Int` with the literal is defined; it is
//! **passed over** if it cannot raise for its column's stored variant;
//! any other stage ends the walk. A zone is skipped iff some contributing
//! stage is false or NULL on all its rows — it has no non-NULL value, or
//! [`BinaryOp::verdict`] fails for every ordering between `sql_cmp` at its
//! min and at its max (`sql_cmp` is monotone in the `Int`). That stage
//! drops every skipped row and no stage before it can raise, so no output
//! and no error is lost, at any thread count or morsel size.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use maybms_engine::column::{Column, ColumnBatch, StrDict};
use maybms_engine::error::EngineError;
use maybms_engine::hash::{fast_hash_one, FastHasher};
use maybms_engine::vector::KernelCounts;
use maybms_engine::{vector, BinaryOp, ColumnData, Expr, Schema, Value, ValueRef};
use maybms_obs::PipelineStats;
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation, Wsd, Zone, ZONE_ROWS};

use crate::build::BuildTable;

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

/// Does the vector kernels' code run this stage — what `EXPLAIN` marks
/// `(vectorised)`? A σ/π does when its expressions pass
/// [`vector::vectorisable`] (else they run row by row over the batch); a
/// probe always does.
pub(crate) fn vectorised(stage: &Stage) -> bool {
    match stage {
        Stage::Filter(p) => vector::vectorisable(p),
        Stage::Project(es) => es.iter().all(vector::vectorisable),
        Stage::Probe { .. } => true,
    }
}

/// One stage as a morsel's batches run it; σ/π expressions are remapped
/// (where they read the source before any π or probe) to the scanned
/// column subset.
enum VecStage {
    Filter(Expr),
    Project(Vec<Expr>),
    /// A probe: its keys are the stage's, its build side the run's (see
    /// [`BuildSide`]). `live` marks the joined row's columns a later stage
    /// or the sink reads: the only ones it gathers.
    Probe {
        live: Vec<bool>,
    },
}

/// How a pipeline's morsels read their source and run the stages,
/// planned once per run and shared by every morsel.
struct Plan {
    stages: Vec<VecStage>,
    /// Source columns to scan: those the leading σ/π read (up to and
    /// including the first projection, which replaces the row shape). A
    /// probe or sink that needs the rest gathers it from the source
    /// ([`Flow::widen`]).
    cols: Vec<usize>,
    /// The source columns a probe or the sink reads of the rows
    /// [`Flow::widen`] completes: the only ones it gathers.
    widen: Vec<bool>,
}

/// The width of the rows each stage of `stages` outputs, over a source of
/// `arity` columns.
pub(crate) fn widths(arity: usize, stages: &[Stage]) -> Vec<usize> {
    let mut w = arity;
    stages
        .iter()
        .map(|s| {
            w = match s {
                Stage::Filter(_) => w,
                Stage::Project(es) => es.len(),
                Stage::Probe { build, .. } => w + build.schema().len(),
            };
            w
        })
        .collect()
}

/// Which columns each probe of `stages` must gather, and which source
/// columns [`Flow::widen`] must: the liveness walk, from the sink's
/// `reads` (positions of the last stage's rows) back to the source. A σ
/// adds the columns it reads; a π replaces the set with what all of its
/// expressions read (every one is evaluated, so no error moves); a probe
/// splits the set over its two halves and adds its keys on the stream
/// side. Every other column only ever holds a NULL constant.
fn liveness(
    arity: usize,
    stages: &[Stage],
    reads: &[usize],
) -> (Vec<Option<Vec<bool>>>, Vec<bool>) {
    let widths = widths(arity, stages);
    let width_in = |k: usize| k.checked_sub(1).map_or(arity, |j| widths[j]);
    let mut live = vec![false; width_in(stages.len())];
    reads.iter().for_each(|&c| live[c] = true);
    let mut probes = vec![None; stages.len()];
    // Rows are widened at the first stage that is not a σ (or the sink);
    // after a π they already are whole.
    let reshape = stages.iter().position(|s| !matches!(s, Stage::Filter(_)));
    let mut widen = reshape.is_none().then(|| live.clone());
    for (k, stage) in stages.iter().enumerate().rev() {
        let mut read = Vec::new();
        match stage {
            Stage::Filter(p) => p.referenced_columns(&mut read),
            Stage::Project(es) => {
                live = vec![false; width_in(k)];
                es.iter().for_each(|e| e.referenced_columns(&mut read));
            }
            Stage::Probe {
                left_keys,
                build_first,
                ..
            } => {
                let offset = match build_first {
                    true => widths[k] - width_in(k),
                    false => 0,
                };
                let stream = live[offset..offset + width_in(k)].to_vec();
                probes[k] = Some(std::mem::replace(&mut live, stream));
                read.extend(left_keys);
            }
        }
        read.into_iter().for_each(|c| live[c] = true);
        if Some(k) == reshape {
            widen = Some(live.clone());
        }
    }
    (probes, widen.expect("rows are widened somewhere"))
}

/// Plan `stages` over a source of `arity` columns for a sink that reads
/// the columns `reads` of their output.
fn plan(arity: usize, stages: &[Stage], reads: &[usize]) -> Plan {
    // Stages before the first π or probe read the source row shape; the
    // ones after read the whole batch that stage built.
    let reshape = stages.iter().position(|s| !matches!(s, Stage::Filter(_)));
    let remap_upto = match reshape.map(|k| (k, &stages[k])) {
        Some((k, Stage::Project(_))) => k + 1,
        Some((k, _)) => k,
        None => stages.len(),
    };
    let mut cols = Vec::new();
    for s in &stages[..remap_upto] {
        match s {
            Stage::Filter(p) => p.referenced_columns(&mut cols),
            Stage::Project(es) => es.iter().for_each(|e| e.referenced_columns(&mut cols)),
            Stage::Probe { .. } => unreachable!("the remapped stages end at a probe"),
        }
    }
    cols.sort_unstable();
    cols.dedup();
    let map = |i: usize| {
        cols.binary_search(&i)
            .expect("referenced column collected above")
    };
    let remap = |k: usize, e: &Expr| match k < remap_upto {
        true => e.remap_columns(&map),
        false => e.clone(),
    };
    let (mut probes, widen) = liveness(arity, stages, reads);
    let stages = stages
        .iter()
        .enumerate()
        .map(|(k, s)| match s {
            Stage::Filter(p) => VecStage::Filter(remap(k, p)),
            Stage::Project(es) => VecStage::Project(es.iter().map(|e| remap(k, e)).collect()),
            Stage::Probe { .. } => VecStage::Probe {
                live: probes[k].take().expect("a probe's output liveness"),
            },
        })
        .collect();
    Plan {
        stages,
        cols,
        widen,
    }
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

/// `column op literal`: column, operator, literal, column on the left?
type ColCmp<'s> = (usize, BinaryOp, &'s Value, bool);

/// The stages of `stages` that contribute a zone map over `source` (the
/// skip rule), with their index; reads only the stored column variants.
pub(crate) fn zone_stages<'s>(source: &URelation, stages: &'s [Stage]) -> Vec<(usize, ColCmp<'s>)> {
    let batch = source.at_rest().0;
    let mut out = Vec::new();
    for (k, stage) in stages.iter().enumerate() {
        let Stage::Filter(Expr::Binary { left, op, right }) = stage else {
            break;
        };
        let cmp @ (col, _, lit, _) = match (&**left, &**right) {
            (Expr::ColumnIdx(c), Expr::Literal(v)) if op.is_comparison() => (*c, *op, v, true),
            (Expr::Literal(v), Expr::ColumnIdx(c)) if op.is_comparison() => (*c, *op, v, false),
            _ => break,
        };
        // A value of the column's stored variant: what `sql_cmp` meets.
        let stored = match batch.column(col).data() {
            ColumnData::Int(_) => Value::Int(0),
            ColumnData::Float(_) => Value::Float(0.0),
            ColumnData::Bool(_) => Value::Bool(false),
            ColumnData::Str(_) | ColumnData::Dict { .. } => Value::str(""),
            ColumnData::Const(v) => v.clone(),
            ColumnData::Values(_) => break,
        };
        let defined = stored.sql_cmp(lit).is_some();
        if defined && matches!(batch.column(col).data(), ColumnData::Int(_)) {
            out.push((k, cmp));
        } else if !(defined || stored.is_null() || lit.is_null()) {
            break; // this comparison can raise
        }
    }
    out
}

/// Can `col op lit` be true for some row of a zone? Not if it holds no
/// non-NULL value; else iff the verdict holds for some ordering between
/// the ones `sql_cmp` gives at the zone's min and max.
fn zone_may_match(&(_, op, lit, col_left): &ColCmp<'_>, (lo, hi): Zone) -> bool {
    let ord = |x: i64| {
        if col_left {
            Value::Int(x).sql_cmp(lit)
        } else {
            lit.sql_cmp(&Value::Int(x))
        }
    };
    let spanned = ord(lo).min(ord(hi))..=ord(lo).max(ord(hi));
    let orders = [Ordering::Less, Ordering::Equal, Ordering::Greater];
    lo <= hi
        && orders
            .into_iter()
            .any(|o| spanned.contains(&Some(o)) && op.verdict(o))
}

/// The rows of `source` a pipeline over `stages` must read, ascending and
/// disjoint; records the zones consulted and read in `stats`.
pub(crate) fn candidate_ranges(
    source: &URelation,
    stages: &[Stage],
    stats: &PipelineStats,
) -> Vec<Range<usize>> {
    let maps: Vec<(&[Zone], ColCmp<'_>)> = zone_stages(source, stages)
        .into_iter()
        .map(|(_, cmp)| (source.zones(cmp.0).expect("an Int column has zones"), cmp))
        .collect();
    if maps.is_empty() {
        return std::iter::once(0..source.len()).collect();
    }
    let zones = source.len().div_ceil(ZONE_ROWS);
    let kept: Vec<usize> = (0..zones)
        .filter(|&z| maps.iter().all(|(m, cmp)| zone_may_match(cmp, m[z])))
        .collect();
    stats.zones.add(zones as u64);
    stats.zones_read.add(kept.len() as u64);
    let mut ranges: Vec<Range<usize>> = Vec::new();
    for z in kept {
        let rows = z * ZONE_ROWS..((z + 1) * ZONE_ROWS).min(source.len());
        match ranges.last_mut() {
            Some(last) if last.end == rows.start => last.end = rows.end,
            _ => ranges.push(rows),
        }
    }
    ranges
}

/// The one morsel driver: run `morsel` over the source rows in `ranges`
/// (ascending, disjoint — see [`candidate_ranges`]) in morsels on `pool`
/// and return the per-morsel results **in morsel order**; the earliest
/// morsel's error wins, so the error (if any) is identical to a
/// sequential scan at any thread count. The per-morsel machinery every
/// pipeline shares lives here once — the chunk rule, the governor
/// checkpoint, and the flush of each finished morsel's [`Tally`] into
/// `stats`.
pub(crate) fn drive<T: Send>(
    ranges: Vec<Range<usize>>,
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    morsel: impl Fn(Range<usize>, &mut Tally) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    // Several morsels even on a one-thread pool: each is a governor
    // checkpoint.
    let kept = ranges.iter().map(Range::len).sum();
    let chunk = maybms_par::auto_chunk(kept, pool.threads(), min_morsel);
    let morsels: Vec<Range<usize>> = ranges
        .into_iter()
        .flat_map(|r| {
            r.clone()
                .step_by(chunk)
                .map(move |start| start..(start + chunk).min(r.end))
        })
        .collect();
    let outputs: Vec<Result<T>> = pool.par_map(morsels, |range| {
        // Governor checkpoint: one relaxed load per morsel when no
        // limit is armed.
        maybms_gov::check().map_err(EngineError::Gov)?;
        let rows_in = range.len() as u64;
        let mut tally = Tally {
            stages: vec![(0, 0); stats.stages.len()],
            kernels: KernelCounts::default(),
        };
        let out = morsel(range, &mut tally)?;
        let kernels = tally.kernels;
        stats.flush_morsel(
            rows_in,
            &tally.stages,
            kernels.batches,
            kernels.scalar_fallbacks,
        );
        Ok(out)
    });
    outputs.into_iter().collect()
}

/// Rows a morsel hands the stages at a time: the columns of one vector
/// stay in cache from stage to stage.
const VECTOR_ROWS: usize = 2048;

/// The source rows of `morsel`, split into the vectors the stages run on.
fn vectors(morsel: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = morsel.end;
    morsel
        .step_by(VECTOR_ROWS)
        .map(move |start| start..(start + VECTOR_ROWS).min(end))
}

/// The rows one vector has in flight through the stages.
struct Flow {
    /// Their values: the scanned source columns until the rows are
    /// `whole`, the full row shape of the stage reached after.
    batch: ColumnBatch,
    whole: bool,
    /// Each row's source row — its place in the scalar walk's order.
    src: Vec<u32>,
    conds: Conds,
}

/// The conditions of a [`Flow`]'s rows.
enum Conds {
    /// Each row's source row's own.
    Source,
    /// Every row's is the tautology.
    Certain,
    /// One per row (after a probe conjoined them).
    Rows(Vec<Wsd>),
}

impl Flow {
    /// The source rows `range`: the plan's columns sliced from the
    /// source's.
    fn scan(source: &URelation, range: Range<usize>, plan: &Plan) -> Flow {
        let batch = source
            .at_rest()
            .0
            .slice_cols(range.start, range.len(), &plan.cols);
        Flow {
            batch,
            whole: plan.cols.len() == source.schema().len(),
            src: range.map(|i| i as u32).collect(),
            conds: Conds::Source,
        }
    }

    fn rows(&self) -> usize {
        self.src.len()
    }

    /// The rows at `sel`, in that order.
    fn gather(&self, sel: &[u32]) -> Flow {
        Flow {
            batch: self.batch.gather(sel),
            whole: self.whole,
            src: sel.iter().map(|&j| self.src[j as usize]).collect(),
            conds: match &self.conds {
                Conds::Source => Conds::Source,
                Conds::Certain => Conds::Certain,
                Conds::Rows(w) => Conds::Rows(sel.iter().map(|&j| w[j as usize].clone()).collect()),
            },
        }
    }

    /// Row `j`'s condition once [settled](Flow::settle); `None` is the
    /// tautology.
    fn cond(&self, j: usize) -> Option<&Wsd> {
        match &self.conds {
            Conds::Rows(w) => Some(&w[j]),
            _ => None,
        }
    }

    /// The rows with every column of their shape: the `live` source
    /// columns are gathered (or sliced) from the source, the others are a
    /// NULL constant no stage or sink reads.
    fn widen(mut self, source: &URelation, live: &[bool]) -> Flow {
        if !self.whole {
            let rest = source.at_rest().0;
            let (first, n) = (self.src.first().map_or(0, |&i| i as usize), self.rows());
            let contiguous = self.src.last().is_none_or(|&l| l as usize + 1 - first == n);
            let columns = rest
                .columns()
                .iter()
                .zip(live)
                .map(|(c, &live)| match live {
                    false => Column::from_const(Value::Null, n),
                    true if contiguous => c.slice(first, n),
                    true => c.gather(&self.src),
                });
            self.batch = ColumnBatch::from_columns(columns.collect(), n);
        }
        self.whole = true;
        self
    }

    /// Settle the source rows' own conditions: [`Conds::Certain`] when
    /// every one of these rows has the tautology — read off the rows in
    /// flight, never the whole source — else one per row.
    fn settle(mut self, source: &URelation) -> Flow {
        if let Conds::Source = self.conds {
            let wsds = source.at_rest().1;
            let own = |j: usize| &wsds[self.src[j] as usize];
            self.conds = match (0..self.rows()).all(|j| own(j).is_tautology()) {
                true => Conds::Certain,
                false => Conds::Rows((0..self.rows()).map(|j| own(j).clone()).collect()),
            };
        }
        self
    }
}

/// Run one σ/π stage over `flow` in place, returning its error, if any
/// (see the module docs' error order: the rows before the error row stay).
fn step(stage: &VecStage, flow: &mut Flow, kernels: &mut KernelCounts) -> Option<EngineError> {
    match stage {
        VecStage::Filter(p) => {
            let (sel, err) = vector::selection(p, &flow.batch, kernels);
            *flow = flow.gather(&sel);
            err.map(|(_, e)| e)
        }
        VecStage::Project(es) => {
            let mut n_valid = flow.rows();
            let mut pending = None;
            let mut cols = Vec::with_capacity(es.len());
            for e in es {
                let (col, err) = vector::eval_batch(e, &flow.batch, kernels);
                // Scalar order: expressions left to right within a row,
                // rows in order — a later expression's error only wins at
                // a strictly earlier row.
                if let Some((k, er)) = err.filter(|(k, _)| *k < n_valid) {
                    (n_valid, pending) = (k, Some(er));
                }
                cols.push(col.into_owned());
            }
            flow.batch = ColumnBatch::from_columns(cols, n_valid);
            flow.whole = true;
            flow.src.truncate(n_valid);
            if let Conds::Rows(w) = &mut flow.conds {
                w.truncate(n_valid);
            }
            pending
        }
        VecStage::Probe { .. } => unreachable!("probes run in `Morsel::probe`"),
    }
}

/// A probe stage's build side, ready for one pipeline run: its columns
/// and conditions, and the hash table over them.
struct BuildSide<'a> {
    batch: &'a ColumnBatch,
    wsds: &'a [Wsd],
    table: BuildTable,
    /// Every build row's condition is the tautology.
    certain: bool,
}

/// Joined rows a probe emits per chunk at most: a probe with a large
/// fan-out streams through the stages after it in pieces.
const PROBE_CHUNK: usize = 8192;

/// One morsel's run of a [`run_sink`] pipeline.
struct Morsel<'a, Sk> {
    source: &'a URelation,
    stages: &'a [Stage],
    plan: &'a Plan,
    builds: &'a [Option<BuildSide<'a>>],
    tally: &'a mut Tally,
    sink: &'a mut Sk,
    gov: maybms_gov::Ticker,
}

impl<Sk: MorselSink> Morsel<'_, Sk> {
    /// Push `flow` through the stages from `k` on, then into the sink. A
    /// stage's own error is returned only after everything it let through
    /// ran: those rows precede it in the scalar walk.
    fn run(&mut self, mut flow: Flow, k: usize) -> Result<()> {
        let widen = &self.plan.widen;
        let Some(stage) = self.plan.stages.get(k) else {
            return self.finish(flow.widen(self.source, widen).settle(self.source));
        };
        self.tally.stages[k].0 += flow.rows() as u64;
        if let VecStage::Probe { .. } = stage {
            return self.probe(flow.widen(self.source, widen).settle(self.source), k);
        }
        let pending = step(stage, &mut flow, &mut self.tally.kernels);
        self.tally.stages[k].1 += flow.rows() as u64;
        self.run(flow, k + 1)?;
        pending.map_or(Ok(()), |e| Err(e.into()))
    }

    /// The probe at stage `k`: hash the key columns, verify each candidate
    /// on typed values, conjoin the pair's conditions (no conjoin when both
    /// sides are certain), and gather the joined rows — probe row order,
    /// then candidate order, as the scalar walk emits them.
    fn probe(&mut self, flow: Flow, k: usize) -> Result<()> {
        let Stage::Probe {
            left_keys,
            right_keys,
            ..
        } = &self.stages[k]
        else {
            unreachable!("a probe plan stage is a probe")
        };
        let builds = self.builds;
        let side = builds[k].as_ref().expect("a probe stage has a build side");
        let certain = matches!(flow.conds, Conds::Certain) && side.certain;
        let keys: Vec<KeyPair> = left_keys
            .iter()
            .zip(right_keys)
            .map(|(&a, &b)| KeyPair::new(flow.batch.column(a), side.batch.column(b)))
            .collect();
        let (mut pi, mut bi, mut wsds) = (Vec::new(), Vec::new(), Vec::new());
        for (j, h) in key_hashes(&flow.batch, left_keys).into_iter().enumerate() {
            let Some(h) = h else { continue };
            for &r in side.table.candidates(h) {
                if !keys.iter().all(|key| key.eq(j, r as usize)) {
                    continue; // hash collision
                }
                if !certain {
                    let right = &side.wsds[r as usize];
                    let joined = match flow.cond(j) {
                        Some(left) => left.conjoin(right),
                        None => Some(right.clone()),
                    };
                    // An unsatisfiable conjunction drops the joined row.
                    let Some(w) = joined else { continue };
                    wsds.push(w);
                }
                pi.push(j as u32);
                bi.push(r);
                if pi.len() >= PROBE_CHUNK {
                    let chunk = (std::mem::take(&mut pi), std::mem::take(&mut bi));
                    self.emit(&flow, chunk, std::mem::take(&mut wsds), k)?;
                }
            }
        }
        self.emit(&flow, (pi, bi), wsds, k)
    }

    /// Gather one chunk of joined rows — the live columns; the others
    /// are a NULL constant — and run it on from stage `k + 1`.
    fn emit(
        &mut self,
        flow: &Flow,
        (pi, bi): (Vec<u32>, Vec<u32>),
        wsds: Vec<Wsd>,
        k: usize,
    ) -> Result<()> {
        let (Stage::Probe { build_first, .. }, VecStage::Probe { live }) =
            (&self.stages[k], &self.plan.stages[k])
        else {
            unreachable!("a probe plan stage is a probe")
        };
        let side = self.builds[k]
            .as_ref()
            .expect("a probe stage has a build side");
        let n = pi.len();
        let (probe, build) = ((&flow.batch, &pi), (side.batch, &bi));
        let (left, right) = match build_first {
            true => (build, probe),
            false => (probe, build),
        };
        let columns = (left.0.columns().iter().map(|c| (c, left.1)))
            .chain(right.0.columns().iter().map(|c| (c, right.1)))
            .zip(live)
            .map(|((c, sel), &live)| match live {
                true => c.gather(sel),
                false => Column::from_const(Value::Null, n),
            })
            .collect();
        self.tally.stages[k].1 += n as u64;
        let joined = Flow {
            batch: ColumnBatch::from_columns(columns, n),
            whole: true,
            src: pi.iter().map(|&j| flow.src[j as usize]).collect(),
            conds: match wsds.is_empty() {
                true => Conds::Certain,
                false => Conds::Rows(wsds),
            },
        };
        self.run(joined, k + 1)
    }

    /// The end of the chain: the sink takes the batch.
    fn finish(&mut self, flow: Flow) -> Result<()> {
        self.gov.tick_n(flow.rows()).map_err(EngineError::Gov)?;
        let wsds = match flow.conds {
            Conds::Rows(w) => Some(w),
            _ => None,
        };
        self.sink
            .push_batch(flow.batch, wsds, &mut self.tally.kernels)
    }
}

/// One key pair of a probe, compared for a probe row and a build row:
/// two `Int` columns on their `i64`s, any other pair as [`ValueRef`]s.
/// Neither row's key is NULL: [`key_hashes`] skips such a probe row, and
/// the build side never holds one.
enum KeyPair<'c> {
    Ints(&'c [i64], &'c [i64]),
    Cells(&'c Column, &'c Column),
}

impl<'c> KeyPair<'c> {
    fn new(probe: &'c Column, build: &'c Column) -> KeyPair<'c> {
        match (probe.data(), build.data()) {
            (ColumnData::Int(a), ColumnData::Int(b)) => KeyPair::Ints(a, b),
            _ => KeyPair::Cells(probe, build),
        }
    }

    #[inline]
    fn eq(&self, j: usize, r: usize) -> bool {
        match self {
            KeyPair::Ints(a, b) => a[j] == b[r],
            KeyPair::Cells(a, b) => a.cell(j) == b.cell(r),
        }
    }
}

/// The join-key hash of each row of `batch` over `keys`, `None` when a
/// key is NULL: one [`FastHasher`] over the keys' [`ValueRef`]s — what a
/// `Value` key hashes to. A single dictionary-encoded key reads its hash
/// from the dictionary's per-entry cache by code.
fn key_hashes(batch: &ColumnBatch, keys: &[usize]) -> Vec<Option<u64>> {
    let rows = 0..batch.rows();
    if let [k] = keys {
        let col = batch.column(*k);
        if let ColumnData::Dict { codes, dict } = col.data() {
            let entry = dict_hashes(dict);
            return rows
                .map(|j| (!col.is_null(j)).then(|| entry[codes[j] as usize]))
                .collect();
        }
    }
    rows.map(|j| {
        let mut h = FastHasher::default();
        for &k in keys {
            match batch.column(k).cell(j) {
                ValueRef::Null => return None,
                v => v.hash(&mut h),
            }
        }
        Some(h.finish())
    })
    .collect()
}

/// A dictionary's per-entry single-key hashes, computed once per
/// dictionary and cached on it.
fn dict_hashes(dict: &StrDict) -> &[u64] {
    dict.cached_hashes(|entries| {
        entries
            .iter()
            .map(|s| fast_hash_one(&ValueRef::Str(s)))
            .collect()
    })
}

/// A morsel-local consumer of rows that survive the stage chain. One
/// sink exists per morsel; the caller merges finished sinks in morsel
/// order, so a sink never needs to be thread-safe itself.
pub(crate) trait MorselSink {
    /// Consume a batch of surviving rows, in order, with their conditions
    /// (`None`: every row's is the tautology).
    fn push_batch(
        &mut self,
        batch: ColumnBatch,
        wsds: Option<Vec<Wsd>>,
        kernels: &mut KernelCounts,
    ) -> Result<()>;
}

/// The materialising sink: keeps each morsel's batches and their
/// conditions, in order.
#[derive(Default)]
struct BatchSink {
    batches: Vec<ColumnBatch>,
    wsds: Vec<Wsd>,
}

impl MorselSink for BatchSink {
    fn push_batch(
        &mut self,
        batch: ColumnBatch,
        wsds: Option<Vec<Wsd>>,
        _: &mut KernelCounts,
    ) -> Result<()> {
        if batch.rows() > 0 {
            let n = batch.rows();
            self.wsds
                .extend(wsds.unwrap_or_else(|| vec![Wsd::tautology(); n]));
            self.batches.push(batch);
        }
        Ok(())
    }
}

/// Run `stages` over every row of `source` on the morsel driver, feeding
/// the surviving rows of each vector into a fresh per-morsel sink built by
/// `make_sink`. Returns the finished sinks **in morsel order**.
///
/// The sink reads the columns `reads` of the rows it is handed; the
/// others hold a NULL constant. The pipeline gathers only what the sink
/// or a later stage reads (see [`liveness`]).
pub(crate) fn run_sink<Sk, MK>(
    source: &URelation,
    stages: &[Stage],
    reads: &[usize],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
    make_sink: MK,
) -> Result<Vec<Sk>>
where
    Sk: MorselSink + Send,
    MK: Fn() -> Sk + Sync,
{
    let plan = plan(source.schema().len(), stages, reads);
    // Build sides for the probe stages, on this pool.
    let builds: Vec<Option<BuildSide>> = stages
        .iter()
        .zip(&plan.stages)
        .zip(&stats.stages)
        .map(|((s, vs), slot)| match (s, vs) {
            (
                Stage::Probe {
                    build, right_keys, ..
                },
                VecStage::Probe { live },
            ) => {
                slot.build_rows.add(build.len() as u64);
                slot.gathered
                    .add(live.iter().filter(|&&l| l).count() as u64);
                let (batch, wsds) = build.at_rest();
                let hashes = key_hashes(batch, right_keys);
                Some(BuildSide {
                    table: BuildTable::build(build.len(), |i| hashes[i], pool, min_morsel),
                    batch,
                    wsds,
                    certain: build.is_t_certain(),
                })
            }
            _ => None,
        })
        .collect();
    drive(
        candidate_ranges(source, stages, stats),
        pool,
        min_morsel,
        stats,
        |range, tally| {
            let mut sink = make_sink();
            let mut m = Morsel {
                source,
                stages,
                plan: &plan,
                builds: &builds,
                tally,
                sink: &mut sink,
                gov: maybms_gov::Ticker::new(),
            };
            for rows in vectors(range) {
                m.run(Flow::scan(source, rows, &plan), 0)?;
            }
            Ok(sink)
        },
    )
}

/// Run an all-filter `stages` chain over `source` on the morsel driver
/// and return the surviving source positions, in order — a selection
/// vector end to end (predicates produce the selection directly; no row
/// is ever built).
pub(crate) fn select(
    source: &URelation,
    stages: &[Stage],
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
) -> Result<Vec<usize>> {
    // Positions are its output: no column of the rows is read.
    let plan = plan(source.schema().len(), stages, &[]);
    let partials = drive(
        candidate_ranges(source, stages, stats),
        pool,
        min_morsel,
        stats,
        |range, tally| {
            let mut sel = Vec::new();
            for rows in vectors(range) {
                let mut flow = Flow::scan(source, rows, &plan);
                let mut pending = None;
                for (k, stage) in plan.stages.iter().enumerate() {
                    tally.stages[k].0 += flow.rows() as u64;
                    pending = step(stage, &mut flow, &mut tally.kernels).or(pending);
                    tally.stages[k].1 += flow.rows() as u64;
                }
                sel.extend(flow.src.iter().map(|&si| si as usize));
                if let Some(e) = pending {
                    return Err(e.into());
                }
            }
            Ok(sel)
        },
    )?;
    Ok(partials.concat())
}

/// Run `stages` over `source` on the morsel driver and materialise the
/// surviving rows, under `schema`: the batches every morsel kept
/// concatenate, in morsel order, into the result's columns. The output
/// (and error row, if any) is identical to a sequential scan at any
/// thread count.
pub(crate) fn collect(
    source: &URelation,
    stages: &[Stage],
    schema: Arc<Schema>,
    pool: &ThreadPool,
    min_morsel: usize,
    stats: &PipelineStats,
) -> Result<URelation> {
    let every: Vec<usize> = (0..schema.len()).collect();
    let sinks = run_sink(
        source,
        stages,
        &every,
        pool,
        min_morsel,
        stats,
        BatchSink::default,
    )?;
    let (mut batches, mut wsds) = (Vec::new(), Vec::new());
    for sink in sinks {
        batches.extend(sink.batches);
        wsds.extend(sink.wsds);
    }
    let batch = ColumnBatch::concat(schema.len(), &batches.iter().collect::<Vec<_>>());
    Ok(URelation::from_batch(schema, batch, wsds))
}
