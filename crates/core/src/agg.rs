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
//! result is a t-certain [`URelation`] (`DISTINCT` is the same breaker
//! with no aggregates). Its reference for the property tests is the
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

use maybms_conf::{lineage_confidence, ConfEffort, ConfMethod};
use maybms_engine::ops::{AggFunc, AggState, ExactSum};
use maybms_engine::{DataType, EngineError, Expr, Field, Schema, Tuple, Value};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{URelation, UTuple, UrelError, WorldTable, Wsd};

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

/// Record one confidence computation's effort into the statement's
/// collector. Everything added is an order-independent sum/max, so the
/// totals are identical at any thread count even though groups fan out.
fn record_effort(qs: &maybms_obs::QueryStats, effort: &ConfEffort) {
    qs.conf_calls.inc();
    qs.dnf_clauses.add(effort.dnf_clauses);
    qs.dtree_nodes.add(effort.dtree_nodes);
    qs.samples.add(effort.samples);
    qs.samples_drawn.add(effort.samples_drawn);
    qs.sample_batches.add(effort.batches);
    qs.record_rel_stderr(effort.rel_stderr);
    if effort.epsilon > 0.0 {
        qs.record_requested(effort.epsilon, effort.delta);
    }
    if effort.cut_batch.is_some() {
        qs.degraded_conf.inc();
    }
}

/// What one group's `conf`/`aconf` slots evaluate with; handed to the row
/// evaluator by `eval_group_rows`.
struct ConfSlots<'a> {
    wt: &'a WorldTable,
    stats: &'a maybms_obs::QueryStats,
    /// Seed of the group's previous `aconf` slot.
    seed: u64,
}

impl ConfSlots<'_> {
    /// The value of a `conf` / `aconf` aggregate over `lineage`; the call's
    /// effort (d-tree nodes, samples drawn, achieved relative standard
    /// error) is recorded into the statement's collector.
    fn eval<'w>(
        &mut self,
        spec: &AggSpec,
        lineage: impl Iterator<Item = &'w Wsd> + Clone,
    ) -> Result<Value> {
        let method = match spec {
            AggSpec::AConf { epsilon, delta } => {
                self.seed = self.seed.wrapping_add(1);
                ConfMethod::Approx { epsilon: *epsilon, delta: *delta, seed: self.seed }
            }
            _ => ConfMethod::Exact,
        };
        let (p, effort) = lineage_confidence(lineage, self.wt, method)?;
        record_effort(self.stats, &effort);
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
    eval_row: impl Fn(usize, &mut ConfSlots<'_>) -> Result<UTuple> + Sync,
) -> Result<Vec<UTuple>> {
    let n_aconf =
        aggs.iter().filter(|(s, _)| matches!(s, AggSpec::AConf { .. })).count() as u64;
    let row = |g: usize| {
        let seed = ACONF_SEED.wrapping_add(g as u64 * n_aconf);
        eval_row(g, &mut ConfSlots { wt, stats, seed })
    };
    if n_groups >= 8 && pool.threads() > 1 {
        // Per-group confidence computation (#P-hard in general) dominates;
        // fan groups out in small chunks and merge rows in group order.
        let chunk = maybms_par::auto_chunk(n_groups, pool.threads(), 1);
        let partials: Vec<Result<Vec<UTuple>>> =
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
                _ => arg.as_ref().map(|e| e.data_type(input)).unwrap_or(DataType::Unknown),
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
    /// `argmax`: the running group maximum plus the arg values of the
    /// rows attaining it, in member order (memory proportional to ties,
    /// not group size). The arg expression is evaluated only for rows
    /// that match or beat the best seen *so far* — losing rows never
    /// evaluate it.
    ArgMax {
        /// The largest non-NULL value seen.
        best: Option<Value>,
        /// Arg values of the rows attaining `best`, in member order
        /// (deduplicated first-seen at finish).
        args: Vec<Value>,
    },
}

impl Partial {
    fn new(spec: &AggSpec) -> Partial {
        match spec {
            AggSpec::Conf | AggSpec::AConf { .. } => Partial::Lineage,
            AggSpec::ESum(_) | AggSpec::ECount(_) => Partial::Expect(ExactSum::new()),
            AggSpec::Std { func, .. } => Partial::Std(AggState::new(*func)),
            AggSpec::ArgMax { .. } => Partial::ArgMax { best: None, args: Vec::new() },
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

/// Evaluate grouped aggregates **streaming**: the pipeline's fused stage
/// chain runs morsel-by-morsel and every surviving row folds straight
/// into a morsel-local group table ([`maybms_pipe::GroupTable`]) — the
/// joined input is never materialised. Per group the fold accumulates
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
        maybms_engine::ops::PAR_MIN_CHUNK,
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
    // The planner admits argmax only alone, and tconf never.
    let has_argmax = aggs.iter().any(|(s, _)| matches!(s, AggSpec::ArgMax { .. }));
    let schema = Arc::new(output_schema(key_fields, aggs, stream.schema()));
    let needs_wsds =
        aggs.iter().any(|(s, _)| matches!(s, AggSpec::Conf | AggSpec::AConf { .. }));

    // ---- the morsel-local fold -------------------------------------
    let new_state =
        || StreamAcc { wsds: Vec::new(), parts: aggs.iter().map(|(s, _)| Partial::new(s)).collect() };
    let fold = |acc: &mut StreamAcc, row: &[Value], wsd: &Wsd| -> maybms_urel::Result<()> {
        if aggs.is_empty() && !wsd.is_tautology() {
            return Err(EngineError::TypeMismatch {
                message: DISTINCT_ON_UNCERTAIN.to_string(),
            }
            .into());
        }
        if needs_wsds {
            acc.wsds.push(wsd.clone());
        }
        for (part, (spec, _)) in acc.parts.iter_mut().zip(aggs) {
            match (part, spec) {
                (Partial::Lineage, _) => {}
                (Partial::Expect(sum), AggSpec::ESum(e)) => {
                    let v = e.eval_values(row)?;
                    if !v.is_null() {
                        let x = v.as_f64().ok_or_else(|| EngineError::TypeMismatch {
                            message: format!("{ESUM_NON_NUMERIC} {v}"),
                        })?;
                        sum.add(x * wsd.prob(wt)?);
                    }
                }
                (Partial::Expect(sum), AggSpec::ECount(e)) => {
                    if let Some(expr) = e {
                        if expr.eval_values(row)?.is_null() {
                            continue;
                        }
                    }
                    sum.add(wsd.prob(wt)?);
                }
                (Partial::Std(st), AggSpec::Std { arg, .. }) => {
                    if !wsd.is_tautology() {
                        return Err(EngineError::TypeMismatch {
                            message: STD_ON_UNCERTAIN.to_string(),
                        }
                        .into());
                    }
                    match arg {
                        None => st.fold_present(),
                        Some(e) => st.fold(&e.eval_values(row)?)?,
                    }
                }
                (Partial::ArgMax { best, args }, AggSpec::ArgMax { arg, value }) => {
                    if !wsd.is_tautology() {
                        return Err(EngineError::TypeMismatch {
                            message: ARGMAX_ON_UNCERTAIN.to_string(),
                        }
                        .into());
                    }
                    let v = value.eval_values(row)?;
                    if v.is_null() {
                        continue;
                    }
                    match best {
                        Some(b) if v < *b => {}
                        Some(b) if v == *b => args.push(arg.eval_values(row)?),
                        _ => {
                            *best = Some(v);
                            args.clear();
                            args.push(arg.eval_values(row)?);
                        }
                    }
                }
                _ => unreachable!("partial/spec lists are parallel"),
            }
        }
        Ok(())
    };
    let merge = |a: &mut StreamAcc, b: StreamAcc| -> maybms_urel::Result<()> {
        a.wsds.extend(b.wsds);
        for (pa, pb) in a.parts.iter_mut().zip(b.parts) {
            match (pa, pb) {
                (Partial::Lineage, Partial::Lineage) => {}
                (Partial::Expect(x), Partial::Expect(y)) => x.merge(&y),
                (Partial::Std(x), Partial::Std(y)) => x.merge(y)?,
                (
                    Partial::ArgMax { best, args },
                    Partial::ArgMax { best: ob, args: oa },
                ) => match (&*best, ob) {
                    (_, None) => {}
                    (None, Some(b)) => {
                        *best = Some(b);
                        *args = oa;
                    }
                    (Some(a), Some(b)) => {
                        // `self` is the earlier morsel: on ties its args
                        // come first, matching the sequential member order.
                        if b > *a {
                            *best = Some(b);
                            *args = oa;
                        } else if b == *a {
                            args.extend(oa);
                        }
                    }
                },
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
    if has_argmax {
        return Ok(finish_argmax(keys, states, schema));
    }

    let eval_row = |g: usize, conf: &mut ConfSlots<'_>| -> Result<UTuple> {
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
        Ok(UTuple::certain(Tuple::new(row)))
    };
    let out = eval_group_rows(keys.len(), aggs, wt, stats, pool, eval_row)?;
    Ok(URelation::new(schema, out))
}

/// `argmax` finish over the streamed per-group maxima: all distinct arg
/// values attaining each group's maximum, in first-seen member order.
fn finish_argmax(keys: Vec<Vec<Value>>, states: Vec<StreamAcc>, schema: Arc<Schema>) -> URelation {
    let mut out = Vec::new();
    for (key, acc) in keys.into_iter().zip(states) {
        let [Partial::ArgMax { best, args }] = &acc.parts[..] else {
            unreachable!("argmax is the only aggregate on this path")
        };
        if best.is_none() {
            continue; // no non-NULL value in the group
        }
        let mut seen = std::collections::HashSet::new();
        for a in args {
            if seen.insert(a.clone()) {
                let mut row = key.clone();
                row.push(a.clone());
                out.push(UTuple::certain(Tuple::new(row)));
            }
        }
    }
    URelation::new(schema, out)
}

/// `tconf()`: per stored tuple, its marginal probability. Output (a
/// t-certain U-relation): the selected scalar columns plus the tconf
/// column(s), one row per tuple.
pub fn eval_tconf(
    u: &URelation,
    scalar_items: &[(Expr, String)],
    tconf_names: &[String],
    wt: &WorldTable,
) -> Result<URelation> {
    let mut fields: Vec<Field> = scalar_items
        .iter()
        .map(|(e, n)| Field::new(n.clone(), e.data_type(u.schema())))
        .collect();
    for n in tconf_names {
        fields.push(Field::new(n.clone(), DataType::Float));
    }
    let mut out = Vec::with_capacity(u.len());
    for t in u.tuples() {
        let mut row: Vec<Value> = scalar_items
            .iter()
            .map(|(e, _)| e.eval(&t.data))
            .collect::<std::result::Result<_, _>>()?;
        let p = Value::float(t.wsd.prob(wt)?)?;
        for _ in tconf_names {
            row.push(p.clone());
        }
        out.push(UTuple::certain(Tuple::new(row)));
    }
    Ok(URelation::new(Arc::new(Schema::new(fields)), out))
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
        let grouping: Vec<Expr> =
            keys.iter().map(|k| Expr::col(*k).bind(u.schema()).unwrap()).collect();
        let key_fields = keys.iter().map(|k| Field::new(*k, DataType::Text)).collect();
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
            &[("g", DataType::Text), ("v", DataType::Int), ("p", DataType::Float)],
            vec![
                vec!["a".into(), 10.into(), Value::Float(0.5)],
                vec!["a".into(), 20.into(), Value::Float(0.5)],
                vec!["b".into(), 30.into(), Value::Float(0.25)],
            ],
        );
        let u = pick_tuples(
            &r,
            &PickTuplesOptions { probability: Some(Expr::col("p")) },
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
        assert_eq!(rows[0], [Value::str("a"), Value::Float(15.0), Value::Float(1.0)]);
        assert_eq!(rows[1], [Value::str("b"), Value::Float(7.5), Value::Float(0.25)]);
    }

    #[test]
    fn esum_matches_brute_force_expectation() {
        let (wt, u) = ti_setup();
        let aggs = [(AggSpec::ESum(col(&u, "v")), "es".to_string())];
        let out = aggregate(&u, &[], &aggs, &wt).unwrap();
        let esum = out.tuples()[0].data.value(0).as_f64().unwrap();
        let brute = maybms_urel::worlds::expectation(&wt, &u, 1 << 10, |r| {
            r.tuples().iter().map(|t| t.value(1).as_f64().unwrap()).sum()
        })
        .unwrap();
        assert!((esum - brute).abs() < 1e-9, "esum {esum} brute {brute}");
    }

    #[test]
    fn std_aggregates_rejected_on_uncertain() {
        let (wt, u) = ti_setup();
        let sum = AggSpec::Std { func: AggFunc::Sum, arg: Some(col(&u, "v")) };
        let out = aggregate(&u, &[], &[(sum, "s".to_string())], &wt);
        assert!(matches!(out, Err(crate::error::CoreError::Typing { .. })), "{out:?}");
    }

    #[test]
    fn std_aggregates_work_on_certain() {
        let u = URelation::from_certain(&rel(
            &[("v", DataType::Int)],
            vec![vec![1.into()], vec![2.into()]],
        ));
        let sum = AggSpec::Std { func: AggFunc::Sum, arg: Some(col(&u, "v")) };
        let out = aggregate(&u, &[], &[(sum, "s".to_string())], &WorldTable::new()).unwrap();
        assert_eq!(out.tuples()[0].data.value(0), &Value::Int(3));
    }

    #[test]
    fn argmax_outputs_all_maximisers() {
        // Every arg value attaining the group maximum, in member order,
        // at any thread count down to single-row morsels.
        let u = URelation::from_certain(&rel(
            &[("team", DataType::Text), ("player", DataType::Text), ("pts", DataType::Int)],
            vec![
                vec!["LAL".into(), "Bryant".into(), 40.into()],
                vec!["LAL".into(), "Gasol".into(), 40.into()],
                vec!["LAL".into(), "Fisher".into(), 10.into()],
                vec!["SAS".into(), "Duncan".into(), 25.into()],
            ],
        ));
        let aggs = [(
            AggSpec::ArgMax { arg: col(&u, "player"), value: col(&u, "pts") },
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
            assert_eq!(rows, ["(LAL, Bryant)", "(LAL, Gasol)", "(SAS, Duncan)"], "{threads}");
        }
    }

    #[test]
    fn argmax_on_uncertain_rejected() {
        let (wt, u) = ti_setup();
        let argmax = AggSpec::ArgMax { arg: col(&u, "g"), value: col(&u, "v") };
        let out = aggregate(&u, &[], &[(argmax, "a".to_string())], &wt);
        assert!(matches!(out, Err(crate::error::CoreError::Typing { .. })), "{out:?}");
    }

    #[test]
    fn global_group_over_empty_input() {
        // No GROUP BY over an empty stream still yields one row (SQL
        // scalar-aggregate behaviour).
        let wt = WorldTable::new();
        let u = URelation::from_certain(&rel(&[("v", DataType::Int)], vec![]));
        let aggs = [(AggSpec::ECount(None), "ec".to_string()), (AggSpec::Conf, "p".to_string())];
        let out = aggregate(&u, &[], &aggs, &wt).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].data.values(), [Value::Float(0.0), Value::Float(0.0)]);
    }

    #[test]
    fn tconf_per_tuple() {
        let (wt, u) = ti_setup();
        let out = eval_tconf(&u, &[(col(&u, "g"), "g".into())], &["p".to_string()], &wt).unwrap();
        assert!(out.is_t_certain());
        assert_eq!(out.len(), 3);
        assert_eq!(out.tuples()[0].data.value(1), &Value::Float(0.5));
        assert_eq!(out.tuples()[2].data.value(1), &Value::Float(0.25));
    }
}
