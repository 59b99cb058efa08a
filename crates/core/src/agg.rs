//! Evaluation of the MayBMS aggregates over grouped U-relations (§2.2).
//!
//! * `conf` / `aconf` map uncertain tables to t-certain tables via the
//!   confidence engines of `maybms-conf`;
//! * `esum` / `ecount` use linearity of expectation — "while it may seem
//!   that these aggregates are at least as hard as confidence computation
//!   (which is #P-hard), this is in fact not so";
//! * `argmax` and the standard SQL aggregates require t-certain input —
//!   "we do not support the standard SQL aggregates such as sum or count
//!   on uncertain relations".
//!
//! There is one aggregator, [`aggregate_stream`] — the streaming group
//! breaker: a pipeline's rows fold into morsel-local group tables and the
//! result is a t-certain [`URelation`] (`DISTINCT`, and with it `select
//! possible`'s dedup, is the same breaker with no aggregates). Its
//! reference for the property tests is the
//! naive `maybms_bench::naive::aggregate_u`.
//!
//! Per-group aggregate evaluation (in particular the per-group `conf()`
//! calls, each an independent #P-hard subproblem) goes through one
//! scheduler, `eval_group_rows`: it numbers `aconf` seeds by (group,
//! slot) from [`ACONF_SEED`] rather than a running counter, so the output
//! is identical at any thread count, and it alone decides whether the
//! groups fan out to the `maybms-par` pool (an `aconf` run itself is
//! single-threaded). Which estimator a `conf` / `aconf` slot runs is
//! [`maybms_conf::lineage_confidence`]'s choice.

use std::sync::Arc;

use maybms_conf::{lineage_confidence, ConfMethod};
use maybms_engine::ops::{AggFunc, AggState, ExactSum};
use maybms_engine::vector::{self, FirstError, KernelCounts};
use maybms_engine::{
    BatchBuilder, Column, ColumnBatch, ColumnBuilder, ColumnData, DataType, EngineError, Expr,
    Field, Schema, Value, ValueRef,
};
use maybms_par::ThreadPool;
use maybms_pipe::{GroupedBatch, UStream};
use maybms_urel::{URelation, UrelError, WorldTable, Wsd};

use crate::error::{typing, CoreError, Result};
use crate::translate::AggSpec;

/// §2.2 typing rule for the standard SQL aggregates (the group breaker's
/// fold raises it row-by-row as a tagged engine error that
/// [`aggregate_stream_with`] maps back to a typing error).
const STD_ON_UNCERTAIN: &str = "standard SQL aggregates (sum/count/avg/min/max) are \
                                not supported on uncertain relations; use esum/ecount \
                                or conf (§2.2)";
/// §2.2 typing rule for `argmax` (same mechanism).
const ARGMAX_ON_UNCERTAIN: &str = "argmax requires a t-certain input relation (§2.2)";
/// §2.2 typing rule for a grouping that computes no aggregate — `SELECT
/// DISTINCT`, and `GROUP BY` with only keys selected (same mechanism).
const DISTINCT_ON_UNCERTAIN: &str = "SELECT DISTINCT (or GROUP BY without an aggregate) is \
                                     not supported on uncertain relations (§2.2); use \
                                     `select possible` or a confidence aggregate";
/// Prefix of the esum type error, shared between the fold and the error
/// remap so the wording cannot drift.
const ESUM_NON_NUMERIC: &str = "esum over non-numeric value";

/// Seed base of `aconf`: group `g`'s `j`-th `aconf` slot (1-based) draws
/// seed `ACONF_SEED + g·n_aconf + j`.
pub const ACONF_SEED: u64 = 0x5eed;

/// What one group's `conf`/`aconf` slots evaluate with; handed to the row
/// evaluator by `eval_group_rows`.
struct ConfSlots<'a> {
    wt: &'a WorldTable,
    stats: &'a maybms_obs::QueryStats,
    /// Seed of the group's previous `aconf` slot.
    seed: u64,
}

impl ConfSlots<'_> {
    /// The value of a `conf` / `aconf` aggregate over `lineage`; the call
    /// records its effort (estimator, d-tree nodes, samples, achieved
    /// relative standard error) into the statement's collector itself.
    /// Everything it adds is an order-independent sum or max, so the
    /// totals are identical at any thread count even though groups fan
    /// out.
    fn eval<'w>(
        &mut self,
        spec: &AggSpec,
        lineage: impl Iterator<Item = &'w Wsd> + Clone,
    ) -> Result<Value> {
        let method = match spec {
            AggSpec::AConf { epsilon, delta } => {
                self.seed = self.seed.wrapping_add(1);
                ConfMethod::Approx {
                    epsilon: *epsilon,
                    delta: *delta,
                    seed: self.seed,
                }
            }
            _ => ConfMethod::Exact,
        };
        let (p, _) = lineage_confidence(lineage, self.wt, method, self.stats)?;
        Ok(Value::float(p)?)
    }
}

/// One output row per group, in group order — the scheduler behind the
/// group breaker's finish. It owns two decisions:
///
/// * **seed numbering** — group `g`'s `j`-th `aconf` call (1-based) draws
///   seed `ACONF_SEED + g·n_aconf + j`, the sequence a sequential running
///   bump over the groups produces, so rows are identical whether groups
///   evaluate in a loop or fan out;
/// * **the statement's one level of parallelism** — with at least 8 groups
///   on a multi-thread pool the groups fan out, otherwise they run in a
///   loop. An `aconf` run never fans out below this: batch-level fan-out
///   of its sample stream measured a median 0.98× of sequential on two
///   cores and was removed.
fn eval_group_rows(
    n_groups: usize,
    aggs: &[(AggSpec, String)],
    wt: &WorldTable,
    stats: &maybms_obs::QueryStats,
    pool: &ThreadPool,
    eval_row: impl Fn(usize, &mut ConfSlots<'_>) -> Result<Vec<Value>> + Sync,
) -> Result<Vec<Vec<Value>>> {
    let n_aconf = aggs
        .iter()
        .filter(|(s, _)| matches!(s, AggSpec::AConf { .. }))
        .count() as u64;
    let row = |g: usize| {
        let seed = ACONF_SEED.wrapping_add(g as u64 * n_aconf);
        eval_row(g, &mut ConfSlots { wt, stats, seed })
    };
    if n_groups >= 8 && pool.threads() > 1 {
        // Per-group confidence computation (#P-hard in general) dominates;
        // fan groups out in small chunks and merge rows in group order.
        let chunk = maybms_par::auto_chunk(n_groups, pool.threads(), 1);
        let partials: Vec<Result<Vec<Vec<Value>>>> =
            pool.par_map_chunks(n_groups, chunk, |range| range.map(&row).collect());
        let mut out = Vec::with_capacity(n_groups);
        for p in partials {
            out.extend(p?);
        }
        Ok(out)
    } else {
        (0..n_groups).map(row).collect()
    }
}

/// The group breaker's output schema: the key columns, then one column
/// per aggregate, typed against the input schema.
pub(crate) fn output_schema(
    key_fields: Vec<Field>,
    aggs: &[(AggSpec, String)],
    input: &Schema,
) -> Schema {
    let mut fields = key_fields;
    fields.extend(aggs.iter().map(|(spec, name)| {
        let dtype = match spec {
            AggSpec::Conf | AggSpec::AConf { .. } | AggSpec::TConf => DataType::Float,
            AggSpec::ESum(_) | AggSpec::ECount(_) => DataType::Float,
            AggSpec::Std { func, arg } => match func {
                AggFunc::Count => DataType::Int,
                AggFunc::Avg => DataType::Float,
                _ => arg
                    .as_ref()
                    .map(|e| e.data_type(input))
                    .unwrap_or(DataType::Unknown),
            },
            AggSpec::ArgMax { arg, .. } => arg.data_type(input),
        };
        Field::new(name.clone(), dtype)
    }));
    Schema::new(fields)
}

// ---------------------------------------------------------------------
// Grouped aggregation: the streaming maybms-pipe breaker
// ---------------------------------------------------------------------

/// One aggregate slot's morsel-mergeable partial state.
#[derive(Debug)]
enum Partial {
    /// `conf()` / `aconf()`: computed from the group's member WSDs at
    /// finish time (the whole lineage is needed — it *is* the DNF).
    Lineage,
    /// `esum` / `ecount`: the running expectation. [`ExactSum`] makes the
    /// per-morsel partial sums split-invariant, so the merged value is
    /// bit-identical to the sequential fold.
    Expect(ExactSum),
    /// A standard SQL aggregate's state.
    Std(AggState),
    /// `argmax`: the running group maximum plus the rows attaining it,
    /// in member order (memory proportional to ties, not group size). The
    /// arg expression runs at finish, over the rows attaining the group's
    /// final maximum only — so whether it raises, and where, does not
    /// depend on how the rows were split into morsels.
    ArgMax {
        /// The largest non-NULL value seen.
        best: Option<Value>,
        /// The rows attaining `best`, in member order.
        rows: Vec<Vec<Value>>,
    },
}

impl Partial {
    fn new(spec: &AggSpec) -> Partial {
        match spec {
            AggSpec::Conf | AggSpec::AConf { .. } => Partial::Lineage,
            AggSpec::ESum(_) | AggSpec::ECount(_) => Partial::Expect(ExactSum::new()),
            AggSpec::Std { func, .. } => Partial::Std(AggState::new(*func)),
            AggSpec::ArgMax { .. } => Partial::ArgMax {
                best: None,
                rows: Vec::new(),
            },
            AggSpec::TConf => unreachable!("the planner never groups tconf"),
        }
    }
}

/// Per-group accumulator of the streaming grouped-aggregation breaker:
/// member WSDs (kept only when a `conf`/`aconf` slot needs the group's
/// lineage) plus one `Partial` per aggregate.
#[derive(Debug)]
pub struct StreamAcc {
    wsds: Vec<Wsd>,
    parts: Vec<Partial>,
}

/// Map the fold's tagged engine errors back to typing errors.
fn remap_stream_err(e: UrelError) -> CoreError {
    if let UrelError::Engine(EngineError::TypeMismatch { message }) = &e {
        if message == STD_ON_UNCERTAIN
            || message == ARGMAX_ON_UNCERTAIN
            || message == DISTINCT_ON_UNCERTAIN
            || message.starts_with(ESUM_NON_NUMERIC)
        {
            return typing(message.clone());
        }
    }
    e.into()
}

/// A §2.2 typing rule's error, tagged for [`remap_stream_err`].
fn typing_err(message: &str) -> UrelError {
    EngineError::TypeMismatch {
        message: message.to_string(),
    }
    .into()
}

/// Slot `s` of row `j`'s group.
fn slot<'a>(states: &'a mut [StreamAcc], groups: &[u32], j: usize, s: usize) -> &'a mut Partial {
    &mut states[groups[j] as usize].parts[s]
}

/// Evaluate grouped aggregates **streaming**: the pipeline's fused stage
/// chain runs morsel-by-morsel and every surviving row folds straight
/// into a morsel-local group table
/// ([`GroupTable`](maybms_engine::group::GroupTable)) — the joined input
/// is never materialised. Per group the fold accumulates
/// member WSDs and running `esum`/`ecount` partial sums; the
/// deterministic morsel-ordered merge then feeds the group scheduler
/// (`eval_group_rows`: per-group `conf()` fan-out, `(group, slot)`
/// `aconf` seed numbering), so the output — a t-certain [`URelation`],
/// `group keys ++ aggregate columns`, groups in first-seen order — is
/// **bit-identical** at any thread count and morsel size.
///
/// `grouping` are the bound group-key expressions; only the first
/// `n_out_keys` of them are output columns (named by `key_fields`), the
/// rest are grouped-but-not-selected. With no aggregates this is
/// `DISTINCT` over the keys, in first-seen order — defined on t-certain
/// rows only: deduplicating conditioned rows would need conditions beyond
/// per-tuple conjunctions (§2.2), so a row whose WSD is not a tautology is
/// a typing error. `aggs` holds `argmax` only alone and never `tconf` —
/// the planner's rules ([`crate::plan`]).
#[allow(clippy::too_many_arguments)]
pub fn aggregate_stream(
    stream: UStream,
    grouping: &[Expr],
    n_out_keys: usize,
    key_fields: Vec<Field>,
    aggs: &[(AggSpec, String)],
    wt: &WorldTable,
    stats: &maybms_obs::QueryStats,
) -> Result<URelation> {
    let pool = maybms_par::pool();
    aggregate_stream_with(
        stream,
        grouping,
        n_out_keys,
        key_fields,
        aggs,
        wt,
        stats,
        &pool,
        maybms_pipe::PAR_MIN_CHUNK,
    )
}

/// Why a pipeline feeding the group breaker breaks — the label `EXPLAIN`
/// and `EXPLAIN ANALYZE` print for it.
pub(crate) fn stream_label(keys: usize, aggs: usize) -> String {
    match aggs {
        0 => format!("distinct (streaming, {keys} keys)"),
        _ => format!("grouped aggregation (streaming, {keys} keys, {aggs} aggs)"),
    }
}

/// [`aggregate_stream`] on an explicit pool and minimum morsel size
/// (what the determinism property tests pin to 1/2/8 threads and
/// single-row morsels).
#[allow(clippy::too_many_arguments)]
pub fn aggregate_stream_with(
    stream: UStream,
    grouping: &[Expr],
    n_out_keys: usize,
    key_fields: Vec<Field>,
    aggs: &[(AggSpec, String)],
    wt: &WorldTable,
    stats: &maybms_obs::QueryStats,
    pool: &maybms_par::ThreadPool,
    min_morsel: usize,
) -> Result<URelation> {
    let schema = Arc::new(output_schema(key_fields, aggs, stream.schema()));
    let needs_wsds = aggs
        .iter()
        .any(|(s, _)| matches!(s, AggSpec::Conf | AggSpec::AConf { .. }));

    // ---- the morsel-local fold -------------------------------------
    let new_state = || StreamAcc {
        wsds: Vec::new(),
        parts: aggs.iter().map(|(s, _)| Partial::new(s)).collect(),
    };
    let fold = |states: &mut [StreamAcc],
                rows: &GroupedBatch<'_>,
                kernels: &mut KernelCounts|
     -> maybms_urel::Result<()> {
        let (groups, wsds) = (rows.groups, rows.wsds);
        let prob = |j: usize| wsds.map_or(Ok(1.0), |w| w[j].prob(wt));
        // The first row whose condition is not the tautology: where the
        // t-certain aggregates raise their typing error.
        let uncertain = wsds
            .and_then(|w| w[..groups.len()].iter().position(|w| !w.is_tautology()))
            .unwrap_or(groups.len());
        // An argument column for every row (none for `count(*)`, `ecount()`).
        let mut eval_arg = |e: Option<&Expr>| match e {
            Some(e) => {
                let (col, err) = vector::eval_batch(e, rows.batch, kernels);
                (Some(col), err)
            }
            None => (None, None),
        };
        let mut first = FirstError::new(groups.len());
        if aggs.is_empty() {
            first.at(uncertain, || typing_err(DISTINCT_ON_UNCERTAIN));
        }
        if needs_wsds {
            for (j, &g) in groups.iter().enumerate() {
                let w = wsds.map(|w| w[j].clone()).unwrap_or_default();
                states[g as usize].wsds.push(w);
            }
        }
        // Slot by slot, each over the rows before the earliest error so
        // far: a slot's error wins at a strictly earlier row, or at the
        // same row in an earlier slot — the scalar walk's order.
        for (s, (spec, _)) in aggs.iter().enumerate() {
            match spec {
                AggSpec::Conf | AggSpec::AConf { .. } => {}
                AggSpec::ESum(_) | AggSpec::ECount(_) => {
                    let (col, err) = eval_arg(match spec {
                        AggSpec::ESum(e) | AggSpec::ECount(Some(e)) => Some(e),
                        _ => None,
                    });
                    for j in 0..first.upto(&err, first.limit) {
                        let x = match (spec, col.as_ref().map(|c| c.cell(j))) {
                            (_, Some(ValueRef::Null)) => continue,
                            (AggSpec::ECount(_), _) => 1.0,
                            (_, Some(ValueRef::Int(i))) => i as f64,
                            (_, Some(ValueRef::Float(f))) => f,
                            _ => {
                                let v = col.as_ref().map_or(Value::Null, |c| c.value_at(j));
                                first.at(j, || typing_err(&format!("{ESUM_NON_NUMERIC} {v}")));
                                break;
                            }
                        };
                        match (prob(j), slot(states, groups, j, s)) {
                            (Ok(p), Partial::Expect(sum)) => sum.add(x * p),
                            (Err(e), _) => {
                                first.at(j, || e);
                                break;
                            }
                            _ => unreachable!("partial/spec lists are parallel"),
                        }
                    }
                    first.at_eval(err);
                }
                AggSpec::Std { func, arg } => {
                    let (col, err) = eval_arg(arg.as_ref());
                    let stop = first.upto(&err, first.limit.min(uncertain));
                    let folded = (0..stop).try_for_each(|j| {
                        let Partial::Std(st) = slot(states, groups, j, s) else {
                            unreachable!("partial/spec lists are parallel")
                        };
                        let done = match col.as_ref().map(|c| (c, c.data())) {
                            Some((c, _)) if c.is_null(j) => Ok(()),
                            Some((_, ColumnData::Int(v))) => st.fold_i64(v[j]),
                            Some((_, ColumnData::Float(v))) => st.fold_f64(v[j]),
                            Some((c, _)) if *func != AggFunc::Count => st.fold(&c.value_at(j)),
                            _ => {
                                st.fold_present();
                                Ok(())
                            }
                        };
                        done.map_err(|e| (j, e))
                    });
                    if let Err((j, e)) = folded {
                        first.at(j, || e.into());
                    }
                    first.at(uncertain, || typing_err(STD_ON_UNCERTAIN));
                    first.at_eval(err);
                }
                AggSpec::ArgMax { value, .. } => {
                    let (Some(col), err) = eval_arg(Some(value)) else {
                        unreachable!("an argument evaluates to a column")
                    };
                    let stop = first.upto(&err, first.limit.min(uncertain));
                    for j in (0..stop).filter(|&j| !col.is_null(j)) {
                        let v = col.value_at(j);
                        let Partial::ArgMax { best, rows: tied } = slot(states, groups, j, s)
                        else {
                            unreachable!("partial/spec lists are parallel")
                        };
                        if best.as_ref().is_some_and(|b| v < *b) {
                            continue;
                        }
                        if best.as_ref() != Some(&v) {
                            *best = Some(v);
                            tied.clear();
                        }
                        let mut row = Vec::new();
                        rows.batch.write_row(j, &mut row);
                        tied.push(row);
                    }
                    first.at(uncertain, || typing_err(ARGMAX_ON_UNCERTAIN));
                    first.at_eval(err);
                }
                AggSpec::TConf => unreachable!("the planner never groups tconf"),
            }
        }
        first.result()
    };
    let merge = |a: &mut StreamAcc, b: StreamAcc| -> maybms_urel::Result<()> {
        a.wsds.extend(b.wsds);
        for (pa, pb) in a.parts.iter_mut().zip(b.parts) {
            match (pa, pb) {
                (Partial::Lineage, Partial::Lineage) => {}
                (Partial::Expect(x), Partial::Expect(y)) => x.merge(&y),
                (Partial::Std(x), Partial::Std(y)) => x.merge(y)?,
                (Partial::ArgMax { best, rows }, Partial::ArgMax { best: ob, rows: or }) => {
                    match (&*best, ob) {
                        (_, None) => {}
                        (None, Some(b)) => {
                            *best = Some(b);
                            *rows = or;
                        }
                        (Some(a), Some(b)) => {
                            // `self` is the earlier morsel: on ties its rows
                            // come first, matching the sequential member order.
                            if b > *a {
                                *best = Some(b);
                                *rows = or;
                            } else if b == *a {
                                rows.extend(or);
                            }
                        }
                    }
                }
                _ => unreachable!("partial lists are parallel"),
            }
        }
        Ok(())
    };
    let label = stream_label(grouping.len(), aggs.len());
    let (full_keys, states) = stream
        .collect_grouped(
            grouping,
            pool,
            min_morsel,
            (stats, label.as_str()),
            new_state,
            fold,
            merge,
        )
        .map_err(remap_stream_err)?;
    // Reduce keys to the selected prefix for output.
    let keys: Vec<Vec<Value>> = full_keys
        .into_iter()
        .map(|mut k| {
            k.truncate(n_out_keys);
            k
        })
        .collect();

    // ---- finish ----------------------------------------------------
    // The planner admits argmax only alone, and tconf never.
    if let [(AggSpec::ArgMax { arg, .. }, _)] = aggs {
        return finish_argmax(keys, states, schema, arg);
    }

    let eval_row = |g: usize, conf: &mut ConfSlots<'_>| -> Result<Vec<Value>> {
        let acc = &states[g];
        let mut row = keys[g].clone();
        for (part, (spec, _)) in acc.parts.iter().zip(aggs) {
            row.push(match part {
                Partial::Lineage => conf.eval(spec, acc.wsds.iter())?,
                Partial::Expect(sum) => Value::float(sum.round())?,
                Partial::Std(st) => st.finish()?,
                Partial::ArgMax { .. } => unreachable!("argmax is finished separately"),
            });
        }
        Ok(row)
    };
    let rows = eval_group_rows(keys.len(), aggs, wt, stats, pool, eval_row)?;
    let mut out = BatchBuilder::new(schema.len());
    rows.iter().for_each(|row| out.push_row(row));
    Ok(URelation::certain_batch(schema, out.finish()))
}

/// `argmax` finish over the streamed per-group maxima: `arg` over each
/// row attaining its group's maximum, the distinct values in first-seen
/// member order. Its first error is the first group's, first row's.
fn finish_argmax(
    keys: Vec<Vec<Value>>,
    states: Vec<StreamAcc>,
    schema: Arc<Schema>,
    arg: &Expr,
) -> Result<URelation> {
    let mut out = BatchBuilder::new(schema.len());
    for (key, acc) in keys.into_iter().zip(states) {
        let [Partial::ArgMax { rows, .. }] = &acc.parts[..] else {
            unreachable!("argmax is the only aggregate on this path")
        };
        let mut seen = std::collections::HashSet::new();
        for row in rows {
            let a = arg
                .eval_values(row)
                .map_err(|e| remap_stream_err(e.into()))?;
            if seen.insert(a.clone()) {
                out.push_row(key.iter().chain([&a]));
            }
        }
    }
    Ok(URelation::certain_batch(schema, out.finish()))
}

/// `tconf()`: per stored tuple, its marginal probability. Output (a
/// t-certain U-relation): the selected scalar columns, each evaluated over
/// the whole batch, plus the tconf column(s). The first error is the row
/// walk's: lowest row, then leftmost item, the tuple's probability last.
/// The items' kernel batches are recorded on `stats`.
pub fn eval_tconf(
    u: &URelation,
    scalar_items: &[(Expr, String)],
    tconf_names: &[String],
    wt: &WorldTable,
    stats: &maybms_obs::QueryStats,
) -> Result<URelation> {
    let (batch, wsds) = u.at_rest();
    let mut first = FirstError::<CoreError>::new(wsds.len());
    let mut counts = KernelCounts::default();
    let mut columns: Vec<Column> = scalar_items
        .iter()
        .map(|(e, _)| {
            let (col, err) = vector::eval_batch(e, batch, &mut counts);
            first.at_eval(err);
            col.into_owned()
        })
        .collect();
    stats.record_kernels(counts.batches, counts.scalar_fallbacks);
    // No item errs before `first.limit`, so a probability that fails
    // there is the walk's first error.
    let mut probs = ColumnBuilder::new();
    for wsd in &wsds[..first.limit] {
        probs.push(&Value::float(wsd.prob(wt)?)?);
    }
    first.result()?;
    let probs = probs.finish();
    columns.extend(tconf_names.iter().map(|_| probs.clone()));
    let fields = scalar_items
        .iter()
        .map(|(e, n)| Field::new(n.clone(), e.data_type(u.schema())))
        .chain(
            tconf_names
                .iter()
                .map(|n| Field::new(n.clone(), DataType::Float)),
        )
        .collect();
    Ok(URelation::certain_batch(
        Arc::new(Schema::new(fields)),
        ColumnBatch::from_columns(columns, wsds.len()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType};
    use maybms_urel::pick::{pick_tuples, PickTuplesOptions};

    /// The group breaker over a plain scan of `u`, on the process pool.
    fn aggregate(
        u: &URelation,
        keys: &[&str],
        aggs: &[(AggSpec, String)],
        wt: &WorldTable,
    ) -> Result<URelation> {
        let grouping: Vec<Expr> = keys
            .iter()
            .map(|k| Expr::col(*k).bind(u.schema()).unwrap())
            .collect();
        let key_fields = keys
            .iter()
            .map(|k| Field::new(*k, DataType::Text))
            .collect();
        aggregate_stream(
            UStream::new(u.clone()),
            &grouping,
            grouping.len(),
            key_fields,
            aggs,
            wt,
            &maybms_obs::QueryStats::new(),
        )
    }

    fn col(u: &URelation, name: &str) -> Expr {
        Expr::col(name).bind(u.schema()).unwrap()
    }

    fn ti_setup() -> (WorldTable, URelation) {
        let mut wt = WorldTable::new();
        let r = rel(
            &[
                ("g", DataType::Text),
                ("v", DataType::Int),
                ("p", DataType::Float),
            ],
            vec![
                vec!["a".into(), 10.into(), Value::Float(0.5)],
                vec!["a".into(), 20.into(), Value::Float(0.5)],
                vec!["b".into(), 30.into(), Value::Float(0.25)],
            ],
        );
        let u = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        (wt, u)
    }

    #[test]
    fn esum_ecount_linearity() {
        let (wt, u) = ti_setup();
        let aggs = [
            (AggSpec::ESum(col(&u, "v")), "es".to_string()),
            (AggSpec::ECount(None), "ec".to_string()),
        ];
        let out = aggregate(&u, &["g"], &aggs, &wt).unwrap();
        assert!(out.is_t_certain());
        let rows: Vec<&[Value]> = out.tuples().iter().map(|t| t.data.values()).collect();
        // group a: esum = 10*0.5 + 20*0.5 = 15, ecount = 1.0;
        // group b: esum = 30*0.25 = 7.5, ecount = 0.25.
        assert_eq!(
            rows[0],
            [Value::str("a"), Value::Float(15.0), Value::Float(1.0)]
        );
        assert_eq!(
            rows[1],
            [Value::str("b"), Value::Float(7.5), Value::Float(0.25)]
        );
    }

    #[test]
    fn esum_matches_brute_force_expectation() {
        let (wt, u) = ti_setup();
        let aggs = [(AggSpec::ESum(col(&u, "v")), "es".to_string())];
        let out = aggregate(&u, &[], &aggs, &wt).unwrap();
        let esum = out.tuples()[0].data.value(0).as_f64().unwrap();
        let brute = maybms_urel::worlds::expectation(&wt, &u, 1 << 10, |r| {
            r.tuples()
                .iter()
                .map(|t| t.value(1).as_f64().unwrap())
                .sum()
        })
        .unwrap();
        assert!((esum - brute).abs() < 1e-9, "esum {esum} brute {brute}");
    }

    #[test]
    fn std_aggregates_rejected_on_uncertain() {
        let (wt, u) = ti_setup();
        let sum = AggSpec::Std {
            func: AggFunc::Sum,
            arg: Some(col(&u, "v")),
        };
        let out = aggregate(&u, &[], &[(sum, "s".to_string())], &wt);
        assert!(
            matches!(out, Err(crate::error::CoreError::Typing { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn std_aggregates_work_on_certain() {
        let u = URelation::from_certain(&rel(
            &[("v", DataType::Int)],
            vec![vec![1.into()], vec![2.into()]],
        ));
        let sum = AggSpec::Std {
            func: AggFunc::Sum,
            arg: Some(col(&u, "v")),
        };
        let out = aggregate(&u, &[], &[(sum, "s".to_string())], &WorldTable::new()).unwrap();
        assert_eq!(out.tuples()[0].data.value(0), &Value::Int(3));
    }

    #[test]
    fn argmax_outputs_all_maximisers() {
        // Every arg value attaining the group maximum, in member order,
        // at any thread count down to single-row morsels.
        let u = URelation::from_certain(&rel(
            &[
                ("team", DataType::Text),
                ("player", DataType::Text),
                ("pts", DataType::Int),
            ],
            vec![
                vec!["LAL".into(), "Bryant".into(), 40.into()],
                vec!["LAL".into(), "Gasol".into(), 40.into()],
                vec!["LAL".into(), "Fisher".into(), 10.into()],
                vec!["SAS".into(), "Duncan".into(), 25.into()],
            ],
        ));
        let aggs = [(
            AggSpec::ArgMax {
                arg: col(&u, "player"),
                value: col(&u, "pts"),
            },
            "star".to_string(),
        )];
        for threads in [1usize, 2, 8] {
            let out = aggregate_stream_with(
                UStream::new(u.clone()),
                &[col(&u, "team")],
                1,
                vec![Field::new("team", DataType::Text)],
                &aggs,
                &WorldTable::new(),
                &maybms_obs::QueryStats::new(),
                &maybms_par::ThreadPool::new(threads),
                1,
            )
            .unwrap();
            let rows: Vec<String> = out.tuples().iter().map(|t| t.data.to_string()).collect();
            assert_eq!(
                rows,
                ["(LAL, Bryant)", "(LAL, Gasol)", "(SAS, Duncan)"],
                "{threads}"
            );
        }
    }

    #[test]
    fn argmax_on_uncertain_rejected() {
        let (wt, u) = ti_setup();
        let argmax = AggSpec::ArgMax {
            arg: col(&u, "g"),
            value: col(&u, "v"),
        };
        let out = aggregate(&u, &[], &[(argmax, "a".to_string())], &wt);
        assert!(
            matches!(out, Err(crate::error::CoreError::Typing { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn global_group_over_empty_input() {
        // No GROUP BY over an empty stream still yields one row (SQL
        // scalar-aggregate behaviour).
        let wt = WorldTable::new();
        let u = URelation::from_certain(&rel(&[("v", DataType::Int)], vec![]));
        let aggs = [
            (AggSpec::ECount(None), "ec".to_string()),
            (AggSpec::Conf, "p".to_string()),
        ];
        let out = aggregate(&u, &[], &aggs, &wt).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.tuples()[0].data.values(),
            [Value::Float(0.0), Value::Float(0.0)]
        );
    }

    #[test]
    fn tconf_per_tuple() {
        let (wt, u) = ti_setup();
        let qs = maybms_obs::QueryStats::new();
        let items = [(col(&u, "g"), "g".into())];
        let out = eval_tconf(&u, &items, &["p".to_string()], &wt, &qs).unwrap();
        assert!(out.is_t_certain());
        assert_eq!(out.len(), 3);
        assert_eq!(out.tuples()[0].data.value(1), &Value::Float(0.5));
        assert_eq!(out.tuples()[2].data.value(1), &Value::Float(0.25));
    }
}
