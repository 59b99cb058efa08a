//! The MayBMS query executor.
//!
//! Evaluates parsed queries over the catalog of U-relations:
//!
//! 1. FROM items become U-relations (`repair key` / `pick tuples` extend
//!    the hypothesis space, §2.2);
//! 2. WHERE is split into conjuncts: single-source predicates are pushed
//!    down, equality conjuncts drive hash joins, `IN (SELECT …)`
//!    conjuncts are rewritten to (semi-)joins (positive occurrence only),
//!    and the rest filter the joined result — the parsimonious
//!    translation of §2.3 throughout;
//! 3. the SELECT list maps to projections and the uncertainty-aware
//!    aggregates (`conf`, `aconf`, `tconf`, `possible`, `esum`, `ecount`,
//!    `argmax`), enforcing the typing rules of §2.2; `DISTINCT` applies
//!    to whatever the block outputs, grouped or not;
//! 4. UNION is multiset union (deduplicated when t-certain); ORDER BY
//!    orders the representation; LIMIT is only allowed on t-certain
//!    results.
//!
//! A query's result is one [`URelation`] from its first SELECT block to
//! the end: t-certainty is a property of it ([`URelation::is_t_certain`]),
//! consulted where §2.2's typing rules need it and once at the very end
//! to pick the public [`QueryOutput`] variant.
//!
//! The select/project/join chain of a SELECT block is threaded through a
//! [`maybms_pipe::UStream`]: pushed-down filters, hash-join probes, and
//! the final projection accumulate as **fused stages** over the first
//! FROM source and run in one morsel-driven pass — no intermediate
//! U-relation is materialised. Grouped aggregation is a **streaming
//! breaker**: the accumulated pipeline's rows fold straight into
//! morsel-local group tables ([`agg::aggregate_stream`]), so `GROUP BY
//! conf()/esum/ecount` plans stream end-to-end, and `DISTINCT` is that
//! breaker with no aggregates. Materialisation happens only at the
//! remaining breakers (hash-join build sides, `select possible`, tconf,
//! and [`maybms_pipe::breaker`]'s sort, union, cross product and limit)
//! and at the final output. `JOIN … ON` and the comma/`WHERE` spelling
//! share one join planner (`join_sources`). `EXPLAIN` lists every
//! collected pipeline and every breaker via [`ExecCtx::trace`].

use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_engine::ops::{ProjectItem, SortKey};
use maybms_engine::{BinaryOp, Expr as EExpr, Field, Relation, Schema, Tuple};
use maybms_pipe::{breaker, UStream};
use maybms_sql::{Expr as SExpr, FromItem, Query, QueryInput, Select, SelectItem};
use maybms_urel::{
    pick_tuples_u, repair_key_u, PickTuplesOptions, RepairKeyOptions, URelation, UTuple,
    WorldTable,
};

use crate::agg::{self, ConfContext};
use crate::error::{plan_err, typing, Result};
use crate::translate::{classify_item, scalar, AggSpec, Item};

/// The mutable database state a query runs against.
pub struct ExecCtx<'a> {
    /// Stored tables.
    pub catalog: &'a BTreeMap<String, URelation>,
    /// The shared world table (mutable: `repair key` / `pick tuples`
    /// register fresh variables).
    pub wt: &'a mut WorldTable,
    /// Confidence-computation configuration.
    pub conf: ConfContext,
    /// When set, every pipeline the executor collects and every breaker
    /// it runs appends a [`PlanStep`] — the `EXPLAIN` implementation.
    pub trace: Option<Vec<PlanStep>>,
    /// When attached, every pipeline registers a per-stage stats
    /// collector and the aggregates record confidence-computation effort
    /// — the `EXPLAIN ANALYZE` / slow-query-log implementation. Never
    /// changes results: everything collected is an order-independent
    /// sum or max.
    pub stats: Option<std::sync::Arc<maybms_obs::QueryStats>>,
}

impl<'a> ExecCtx<'a> {
    /// A context without explain tracing or stats collection.
    pub fn new(
        catalog: &'a BTreeMap<String, URelation>,
        wt: &'a mut WorldTable,
        conf: ConfContext,
    ) -> ExecCtx<'a> {
        ExecCtx { catalog, wt, conf, trace: None, stats: None }
    }
}

/// One step of an executed plan, in execution order — what `EXPLAIN`
/// lists.
#[derive(Debug, Clone)]
pub enum PlanStep {
    /// A pipeline: `pipeline (<why it broke>)`, then one indented line
    /// per [`UStream::describe`] line.
    Pipeline(String),
    /// A materialising breaker ([`maybms_pipe::breaker`]).
    Breaker {
        /// What ran: `sort (2 keys)`, `union (all)`, …
        what: String,
        /// Rows it took.
        rows_in: usize,
        /// Rows it gave.
        rows_out: usize,
    },
}

impl ExecCtx<'_> {
    /// Record `stream` as the next pipeline of the plan (`reason` is why
    /// it breaks) when tracing for `EXPLAIN`.
    fn trace_pipeline(&mut self, stream: &UStream, reason: &str) {
        if let Some(trace) = &mut self.trace {
            let mut entry = format!("pipeline ({reason})\n");
            for line in stream.describe().lines() {
                entry.push_str("  ");
                entry.push_str(line);
                entry.push('\n');
            }
            trace.push(PlanStep::Pipeline(entry));
        }
    }

    /// Record a breaker that turned `rows_in` rows into `out` when
    /// tracing for `EXPLAIN`.
    fn trace_breaker(&mut self, what: impl FnOnce() -> String, rows_in: usize, out: &URelation) {
        if let Some(trace) = &mut self.trace {
            trace.push(PlanStep::Breaker { what: what(), rows_in, rows_out: out.len() });
        }
    }
}

/// Materialise a pipeline, recording its decomposition when the context
/// traces for `EXPLAIN` and registering a per-stage stats collector when
/// the context carries one (`EXPLAIN ANALYZE`).
fn collect_traced(
    stream: UStream,
    ctx: &mut ExecCtx<'_>,
    reason: &str,
) -> Result<URelation> {
    ctx.trace_pipeline(&stream, reason);
    let pipe_stats = ctx.stats.as_ref().map(|qs| {
        let ps = std::sync::Arc::new(stream.stats_skeleton(reason));
        qs.register_pipeline(ps.clone());
        ps
    });
    Ok(stream.collect_with(
        &maybms_par::pool(),
        maybms_engine::ops::PAR_MIN_CHUNK,
        pipe_stats.as_deref(),
    )?)
}

/// The result of a query: a t-certain table or an uncertain one.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// A typed-certain table (§2.2): plain relational output.
    Certain(Relation),
    /// An uncertain table: the U-relational representation.
    Uncertain(URelation),
}

impl QueryOutput {
    /// View as a U-relation (lifting certain tables).
    pub fn into_urelation(self) -> URelation {
        match self {
            QueryOutput::Certain(r) => URelation::from_certain(&r),
            QueryOutput::Uncertain(u) => u,
        }
    }

    /// The number of stored (representation) rows.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Certain(r) => r.len(),
            QueryOutput::Uncertain(u) => u.len(),
        }
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The certain relation, if this output is t-certain.
    pub fn as_certain(&self) -> Option<&Relation> {
        match self {
            QueryOutput::Certain(r) => Some(r),
            QueryOutput::Uncertain(_) => None,
        }
    }
}

/// Evaluate a full query to the public result type: a t-certain result
/// is handed out as a plain relation.
pub fn eval_query(q: &Query, ctx: &mut ExecCtx<'_>) -> Result<QueryOutput> {
    let u = eval_query_rel(q, ctx)?;
    Ok(if u.is_t_certain() {
        QueryOutput::Certain(u.into_certain())
    } else {
        QueryOutput::Uncertain(u)
    })
}

/// Evaluate a full query (UNION chain + ORDER BY/LIMIT) to its
/// U-relation.
pub fn eval_query_rel(q: &Query, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    let mut result = eval_select(&q.first, ctx)?;
    for (all, s) in &q.rest {
        let next = eval_select(s, ctx)?;
        let merged = breaker::union_all(&result, &next)?;
        // Certain UNION deduplicates (left-associatively, as in SQL);
        // UNION ALL keeps the bag. Uncertain union is multiset union of
        // the representations in both spellings (§2.2: "the multiset
        // union of uncertain queries (using SQL union)") — distinct would
        // require conditions beyond per-tuple conjunctions.
        // The breaker is the copy; a dedup is the `distinct` pipeline
        // that follows it and reports its own reduction.
        ctx.trace_breaker(|| "union (all)".to_string(), result.len() + next.len(), &merged);
        result =
            if !*all && merged.is_t_certain() { distinct_rows(merged, ctx)? } else { merged };
    }
    // ORDER BY orders the stored representation. Keys resolve against the
    // select list first (`ORDER BY r2.final` after `r2.final AS state`),
    // then against the output schema, with a qualifier-dropping fallback.
    if !q.order_by.is_empty() {
        let schema = result.schema().clone();
        // Output-position map for non-wildcard select lists of a plain
        // (non-union) query.
        let item_positions: Option<Vec<&SExpr>> = if q.rest.is_empty() {
            q.first
                .items
                .iter()
                .map(|i| match i {
                    SelectItem::Expr { expr, .. } => Some(expr),
                    _ => None,
                })
                .collect()
        } else {
            None
        };
        let keys: Vec<SortKey> = q
            .order_by
            .iter()
            .map(|k| {
                let expr = match &k.expr {
                    // `ORDER BY 2` — positional reference to an output column.
                    SExpr::Lit(maybms_sql::Lit::Int(n)) => {
                        if *n < 1 || *n as usize > schema.len() {
                            return Err(plan_err(format!(
                                "ORDER BY position {n} is out of range 1..={}",
                                schema.len()
                            )));
                        }
                        EExpr::ColumnIdx(*n as usize - 1)
                    }
                    e => match item_positions.as_ref().and_then(|items| {
                        items.iter().position(|item| *item == e)
                    }) {
                        Some(i) => EExpr::ColumnIdx(i),
                        None => bind_with_fallback(&scalar(e)?, &schema)?,
                    },
                };
                Ok(SortKey { expr, ascending: k.ascending })
            })
            .collect::<Result<_>>()?;
        let sorted = breaker::sort(&result, &keys)?;
        ctx.trace_breaker(|| format!("sort ({} keys)", keys.len()), result.len(), &sorted);
        result = sorted;
    }
    if let Some(n) = q.limit {
        if !result.is_t_certain() {
            return Err(typing(
                "LIMIT on an uncertain relation would truncate the representation, \
                 changing its possible-worlds semantics; compute a t-certain result first",
            ));
        }
        let kept = breaker::limit(&result, n as usize);
        ctx.trace_breaker(|| format!("limit {n}"), result.len(), &kept);
        result = kept;
    }
    Ok(result)
}

/// Evaluate one SELECT block.
fn eval_select(s: &Select, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    // ---- FROM --------------------------------------------------------
    // Every FROM item becomes a pipeline head; pushed-down predicates,
    // probes, and the final projection fuse onto these streams.
    let mut sources: Vec<UStream> = Vec::with_capacity(s.from.len());
    for item in &s.from {
        sources.push(eval_from_item(item, ctx)?);
    }
    if sources.is_empty() {
        // SELECT without FROM: one empty tuple.
        sources.push(UStream::new(URelation::new(
            Schema::empty(),
            vec![UTuple::certain(Tuple::new(Vec::new()))],
        )));
    }

    // ---- WHERE: conjunct split --------------------------------------
    let mut conjuncts: Vec<SExpr> = Vec::new();
    if let Some(w) = &s.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }
    // IN (SELECT …) conjuncts are handled after the joins.
    let (in_selects, plain): (Vec<SExpr>, Vec<SExpr>) = conjuncts
        .into_iter()
        .partition(|c| matches!(c, SExpr::InSelect { .. }));
    let predicates: Vec<EExpr> = plain.iter().map(scalar).collect::<Result<_>>()?;
    let (mut joined, from_order) = join_sources(sources, predicates, ctx)?;

    // ---- IN (SELECT …) rewrites --------------------------------------
    for in_sel in &in_selects {
        let SExpr::InSelect { expr, query } = in_sel else { unreachable!() };
        joined = rewrite_in_select(joined, expr, query, ctx)?;
    }

    // ---- SELECT list --------------------------------------------------
    let items = expand_items(s, joined.schema(), &from_order)?;

    if s.possible {
        return eval_possible(joined, &items, ctx);
    }

    let has_aggs = items.iter().any(|i| matches!(i, Item::Agg { .. }));
    let has_tconf = items
        .iter()
        .any(|i| matches!(i, Item::Agg { spec: AggSpec::TConf, .. }));

    if has_tconf {
        if !s.group_by.is_empty() {
            return Err(plan_err(
                "tconf() computes per-tuple marginals and cannot be combined with GROUP BY",
            ));
        }
        if items.iter().any(|i| {
            matches!(i, Item::Agg { spec, .. } if !matches!(spec, AggSpec::TConf))
        }) {
            return Err(plan_err("tconf() cannot be combined with other aggregates"));
        }
        // tconf() is per-tuple, not grouped: HAVING has no groups to
        // filter here, exactly as on the plain-projection path.
        if s.having.is_some() {
            return Err(plan_err(
                "HAVING requires GROUP BY or aggregates (tconf() is per-tuple)",
            ));
        }
        let mut scalars = Vec::new();
        let mut tconf_names = Vec::new();
        for item in &items {
            match item {
                Item::Scalar { expr, name } => {
                    scalars.push((expr.bind(joined.schema())?, name.clone()))
                }
                Item::Agg { name, .. } => tconf_names.push(name.clone()),
            }
        }
        let joined = collect_traced(joined, ctx, "tconf breaker")?;
        let out = agg::eval_tconf(&joined, &scalars, &tconf_names, ctx.wt)?;
        let out = reorder_to_select_order(out, &items);
        return if s.distinct { distinct_rows(out, ctx) } else { Ok(out) };
    }

    if has_aggs || !s.group_by.is_empty() {
        let schema = joined.schema().clone();
        let group_exprs: Vec<EExpr> = s
            .group_by
            .iter()
            .map(|e| Ok(scalar(e)?.bind(&schema)?))
            .collect::<Result<_>>()?;
        let mut out = eval_aggregate_select(group_exprs, joined, &items, ctx)?;
        // HAVING binds against the output schema (so aliases like `p`
        // work) with the same qualifier-stripping fallback ORDER BY
        // gets: aggregate outputs lose their qualifiers, but `GROUP BY
        // r1.player … HAVING r1.player = 'X'` is idiomatic SQL.
        if let Some(h) = &s.having {
            let pred = bind_with_fallback(&scalar(h)?, out.schema())?;
            out = collect_traced(UStream::new(out).filter(&pred)?, ctx, "having")?;
        }
        // Grouping on keys the select list drops can repeat an output row.
        return if s.distinct { distinct_rows(out, ctx) } else { Ok(out) };
    }

    if s.having.is_some() {
        return Err(plan_err("HAVING requires GROUP BY or aggregates"));
    }

    let proj: Vec<ProjectItem> = items
        .iter()
        .map(|i| match i {
            Item::Scalar { expr, name } => ProjectItem::new(expr.clone(), name.clone()),
            Item::Agg { .. } => unreachable!("no aggregates on this path"),
        })
        .collect();
    if s.distinct {
        // DISTINCT is GROUP BY over the select list with no aggregates:
        // the projected rows are never materialised, and §2.2's "no
        // select distinct on uncertain relations" is the group breaker's
        // fold-time typing rule.
        let schema = joined.schema().clone();
        let keys: Vec<EExpr> =
            proj.iter().map(|p| Ok(p.expr.bind(&schema)?)).collect::<Result<_>>()?;
        return eval_aggregate_select(keys, joined, &items, ctx);
    }
    // Plain projection: one more fused stage, then the single
    // materialisation of the whole block.
    collect_traced(joined.project(&proj)?, ctx, "output")
}

/// The one join planner: combine `sources` (in FROM order) under the
/// conjunction of `predicates`. Single-source predicates are pushed down
/// as fused σ stages; then, greedily, an equality conjunct linking the
/// joined prefix to a remaining source makes that source the build side
/// of a fused hash probe, and when none does a cross product breaks the
/// pipeline on both sides; every other predicate filters as soon as it
/// binds. Serves both the comma/`WHERE` spelling and `JOIN … ON`.
///
/// Returns the joined stream and, because the greedy order need not be
/// FROM order, the joined schema's column positions listed in FROM order
/// (what `*` expands over).
fn join_sources(
    sources: Vec<UStream>,
    mut predicates: Vec<EExpr>,
    ctx: &mut ExecCtx<'_>,
) -> Result<(UStream, Vec<usize>)> {
    // Push single-source predicates down (fused σ stages, not
    // materialised selects).
    let mut filtered = Vec::with_capacity(sources.len());
    for mut src in sources {
        let mut kept = Vec::new();
        for p in predicates.drain(..) {
            if p.bind(src.schema()).is_ok() {
                src = src.filter(&p)?;
            } else {
                kept.push(p);
            }
        }
        predicates = kept;
        filtered.push(src);
    }
    // Each remaining source with its FROM position.
    let mut sources: Vec<(usize, UStream)> = filtered.into_iter().enumerate().collect();

    // Greedy join of the sources using equality conjuncts.
    // (predicate idx, source idx, (joined col, joined qual, source col, source qual))
    type JoinChoice = (usize, usize, (String, Option<String>, String, Option<String>));
    // Per FROM item: where its columns sit in the joined schema.
    let mut spans = vec![0..0; sources.len()];
    let (_, mut joined) = sources.remove(0);
    spans[0] = 0..joined.schema().len();
    while !sources.is_empty() {
        // Find a predicate linking `joined` to some remaining source.
        let mut choice: Option<JoinChoice> = None;
        'outer: for (pi, p) in predicates.iter().enumerate() {
            if let Some((lq, ln, rq, rn)) = as_column_equality(p) {
                for (si, (_, src)) in sources.iter().enumerate() {
                    let l_in_joined = joined.schema().index_of(lq.as_deref(), &ln).is_ok();
                    let r_in_src = src.schema().index_of(rq.as_deref(), &rn).is_ok();
                    let r_in_joined = joined.schema().index_of(rq.as_deref(), &rn).is_ok();
                    let l_in_src = src.schema().index_of(lq.as_deref(), &ln).is_ok();
                    if l_in_joined && r_in_src {
                        choice = Some((pi, si, (ln, lq, rn, rq)));
                        break 'outer;
                    }
                    if r_in_joined && l_in_src {
                        choice = Some((pi, si, (rn, rq, ln, lq)));
                        break 'outer;
                    }
                }
            }
        }
        let (from_pos, src) = sources.remove(choice.as_ref().map_or(0, |c| c.1));
        let width = joined.schema().len();
        spans[from_pos] = width..width + src.schema().len();
        match choice {
            Some((pi, _, (jn, jq, sn, sq))) => {
                predicates.remove(pi);
                let lk = joined.schema().index_of(jq.as_deref(), &jn)?;
                let rk = src.schema().index_of(sq.as_deref(), &sn)?;
                // The new source is the build side (a breaker: it
                // materialises, morsel-locally hashed); `joined` keeps
                // streaming through the probe stage.
                let build = collect_traced(src, ctx, "hash-join build side")?;
                joined = joined.hash_join(build, &[lk], &[rk])?;
            }
            None => {
                // No equality conjunct: a cross product breaks the
                // pipeline on both sides.
                let left = collect_traced(joined, ctx, "cross product input")?;
                let right = collect_traced(src, ctx, "cross product input")?;
                let product = breaker::cross(&left, &right)?;
                ctx.trace_breaker(|| "cross".to_string(), left.len() + right.len(), &product);
                joined = UStream::new(product);
            }
        }
        // Apply any predicates that became fully bound.
        let mut kept = Vec::new();
        for p in predicates.drain(..) {
            match p.bind(joined.schema()) {
                Ok(bound) => joined = joined.filter(&bound)?,
                Err(_) => kept.push(p),
            }
        }
        predicates = kept;
    }
    // Any remaining predicate must now bind.
    for p in predicates {
        let bound = p.bind(joined.schema())?;
        joined = joined.filter(&bound)?;
    }
    Ok((joined, spans.into_iter().flatten().collect()))
}

/// `select possible …` (§2.2): project, drop zero-probability tuples,
/// deduplicate — mapping uncertain to t-certain. The projection fuses
/// onto the incoming stream; dedup is the breaker.
fn eval_possible(
    joined: UStream,
    items: &[Item],
    ctx: &mut ExecCtx<'_>,
) -> Result<URelation> {
    let proj: Vec<ProjectItem> = items
        .iter()
        .map(|i| match i {
            Item::Scalar { expr, name } => Ok(ProjectItem::new(expr.clone(), name.clone())),
            Item::Agg { .. } => Err(plan_err(
                "select possible cannot be combined with aggregates",
            )),
        })
        .collect::<Result<_>>()?;
    let projected = collect_traced(joined.project(&proj)?, ctx, "select possible breaker")?;
    // Dedup by row reference, gathering only the surviving rows at the
    // end (final clones are Arc bumps).
    let mut sel = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, t) in projected.tuples().iter().enumerate() {
        if t.wsd.prob(ctx.wt)? > 0.0 && seen.insert(&t.data) {
            sel.push(i);
        }
    }
    let tuples = sel
        .iter()
        .map(|&i| UTuple::certain(projected.tuples()[i].data.clone()))
        .collect();
    Ok(URelation::new(Arc::new(projected.schema().without_qualifiers()), tuples))
}

/// Grouped/aggregate SELECT evaluation — the **streaming
/// grouped-aggregation breaker**: the accumulated pipeline is not
/// materialised; its fused stages run morsel-by-morsel and every
/// surviving row folds into a morsel-local group table
/// ([`agg::aggregate_stream`]); the output is t-certain. `group_exprs`
/// are the GROUP BY expressions, bound to the stream.
fn eval_aggregate_select(
    group_exprs: Vec<EExpr>,
    joined: UStream,
    items: &[Item],
    ctx: &mut ExecCtx<'_>,
) -> Result<URelation> {
    let schema = joined.schema().clone();
    // Every scalar select item must match a group-by expression.
    let mut key_fields = Vec::new();
    let mut key_exprs = Vec::new();
    let mut aggs: Vec<(AggSpec, String)> = Vec::new();
    for item in items {
        match item {
            Item::Scalar { expr, name } => {
                let bound = expr.bind(&schema)?;
                if !group_exprs.contains(&bound) {
                    return Err(plan_err(format!(
                        "select item `{name}` must appear in GROUP BY or be aggregated"
                    )));
                }
                key_fields.push(Field::new(name.clone(), bound.data_type(&schema)));
                key_exprs.push(bound);
            }
            Item::Agg { spec, name } => {
                let spec = bind_agg(spec, &schema)?;
                aggs.push((spec, name.clone()));
            }
        }
    }
    // Group on the union: selected keys first, then any extra GROUP BY
    // expressions (grouped but not output).
    let n_out_keys = key_exprs.len();
    let mut grouping = key_exprs;
    for g in group_exprs {
        if !grouping.contains(&g) {
            grouping.push(g);
        }
    }
    let out = group_stream(joined, &grouping, n_out_keys, key_fields, &aggs, ctx)?;
    Ok(reorder_to_select_order(out, items))
}

/// Run `stream` into the streaming group breaker, as the next pipeline
/// of the plan.
fn group_stream(
    stream: UStream,
    grouping: &[EExpr],
    n_out_keys: usize,
    key_fields: Vec<Field>,
    aggs: &[(AggSpec, String)],
    ctx: &mut ExecCtx<'_>,
) -> Result<URelation> {
    ctx.trace_pipeline(&stream, &agg::stream_label(grouping.len(), aggs.len()));
    agg::aggregate_stream(
        stream,
        grouping,
        n_out_keys,
        key_fields,
        aggs,
        ctx.wt,
        &ctx.conf,
        ctx.stats.as_deref(),
    )
}

/// `DISTINCT` over every column of a t-certain `u`: the group breaker
/// with no aggregates (first-seen order), as the next pipeline of the plan.
fn distinct_rows(u: URelation, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    let schema = u.schema().clone();
    let keys: Vec<EExpr> = (0..schema.len()).map(EExpr::ColumnIdx).collect();
    group_stream(UStream::new(u), &keys, keys.len(), schema.fields().to_vec(), &[], ctx)
}

/// Bind the inner expressions of an aggregate spec.
fn bind_agg(spec: &AggSpec, schema: &Schema) -> Result<AggSpec> {
    Ok(match spec {
        AggSpec::ESum(e) => AggSpec::ESum(e.bind(schema)?),
        AggSpec::ECount(e) => {
            AggSpec::ECount(e.as_ref().map(|x| x.bind(schema)).transpose()?)
        }
        AggSpec::ArgMax { arg, value } => {
            AggSpec::ArgMax { arg: arg.bind(schema)?, value: value.bind(schema)? }
        }
        AggSpec::Std { func, arg } => AggSpec::Std {
            func: *func,
            arg: arg.as_ref().map(|x| x.bind(schema)).transpose()?,
        },
        other => other.clone(),
    })
}

/// The aggregate evaluator outputs keys-then-aggregates (a t-certain
/// U-relation); restore the original select order.
fn reorder_to_select_order(out: URelation, items: &[Item]) -> URelation {
    // Current layout: scalars (in item order) then aggregates (in item
    // order). Compute the permutation back to select order.
    let n_scalars = items.iter().filter(|i| matches!(i, Item::Scalar { .. })).count();
    let mut scalar_seen = 0usize;
    let mut agg_seen = 0usize;
    let mut perm = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Item::Scalar { .. } => {
                perm.push(scalar_seen);
                scalar_seen += 1;
            }
            Item::Agg { .. } => {
                perm.push(n_scalars + agg_seen);
                agg_seen += 1;
            }
        }
    }
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        return out;
    }
    let fields: Vec<Field> = perm.iter().map(|&i| out.schema().field(i).clone()).collect();
    let tuples =
        out.tuples().iter().map(|t| UTuple::certain(t.data.take(&perm))).collect();
    URelation::new(Arc::new(Schema::new(fields)), tuples)
}

/// Expand wildcards and classify the select list. `from_order` lists
/// `schema`'s column positions in FROM order (see [`join_sources`]), so
/// `*` and `q.*` follow the FROM clause, not the join order.
fn expand_items(s: &Select, schema: &Schema, from_order: &[usize]) -> Result<Vec<Item>> {
    let mut items = Vec::new();
    for (pos, item) in s.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for &i in from_order {
                    items.push(Item::Scalar {
                        expr: EExpr::ColumnIdx(i),
                        name: schema.field(i).name.clone(),
                    });
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for &i in from_order {
                    let f = schema.field(i);
                    if f.qualifier.as_deref().is_some_and(|fq| fq.eq_ignore_ascii_case(q)) {
                        items.push(Item::Scalar {
                            expr: EExpr::ColumnIdx(i),
                            name: f.name.clone(),
                        });
                        any = true;
                    }
                }
                if !any {
                    return Err(plan_err(format!("unknown relation alias `{q}.*`")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                items.push(classify_item(expr, alias.as_deref(), pos)?);
            }
        }
    }
    Ok(items)
}

/// Evaluate one FROM item to a pipeline head with a qualified schema.
fn eval_from_item(item: &FromItem, ctx: &mut ExecCtx<'_>) -> Result<UStream> {
    let u = match item {
        FromItem::Table { name, alias } => {
            let u = stored_table(name, ctx)?;
            apply_alias(u, Some(alias.as_deref().unwrap_or(name)))
        }
        FromItem::Subquery { query, alias } => {
            apply_alias(eval_query_rel(query, ctx)?, Some(alias))
        }
        FromItem::RepairKey { key, input, weight, alias } => {
            let input = eval_query_input(input, ctx)?;
            let key_exprs: Vec<EExpr> =
                key.iter().map(|k| EExpr::col(k.clone())).collect();
            let options = RepairKeyOptions {
                weight: weight.as_ref().map(scalar).transpose()?,
            };
            let out = repair_key_u(&input, &key_exprs, &options, ctx.wt)?;
            apply_alias(out, alias.as_deref())
        }
        FromItem::PickTuples { input, independently: _, probability, alias } => {
            // `independently` is the only supported semantics (see
            // DESIGN.md §5.5); the keyword is accepted in both spellings.
            let input = eval_query_input(input, ctx)?;
            let options = PickTuplesOptions {
                probability: probability.as_ref().map(scalar).transpose()?,
            };
            let out = pick_tuples_u(&input, &options, ctx.wt)?;
            apply_alias(out, alias.as_deref())
        }
        FromItem::Join { left, right, on } => {
            // `a JOIN b ON p` is `a, b WHERE p` to the join planner: an
            // equality conjunct of `p` becomes a fused hash probe.
            let sides = vec![eval_from_item(left, ctx)?, eval_from_item(right, ctx)?];
            let mut conjuncts = Vec::new();
            split_conjuncts(on, &mut conjuncts);
            let predicates = conjuncts.iter().map(scalar).collect::<Result<_>>()?;
            return Ok(join_sources(sides, predicates, ctx)?.0);
        }
    };
    Ok(UStream::new(u))
}

/// A stored table by (case-insensitive) name.
fn stored_table(name: &str, ctx: &ExecCtx<'_>) -> Result<URelation> {
    ctx.catalog.get(&name.to_ascii_lowercase()).cloned().ok_or_else(|| {
        crate::error::CoreError::Engine(maybms_engine::EngineError::TableNotFound {
            name: name.to_string(),
        })
    })
}

fn apply_alias(u: URelation, alias: Option<&str>) -> URelation {
    match alias {
        Some(a) => {
            let schema = Arc::new(u.schema().without_qualifiers().with_qualifier(a));
            u.with_schema(schema)
        }
        None => u,
    }
}

/// Evaluate the `<t-certain-query>` input of repair-key/pick-tuples.
fn eval_query_input(input: &QueryInput, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    match input {
        QueryInput::Table(name) => stored_table(name, ctx),
        QueryInput::Select(q) => eval_query_rel(q, ctx),
    }
}

/// `x IN (SELECT …)` rewritten to join + project-back, as three fused
/// stages on the incoming stream (append the probe value, hash-probe the
/// collected subquery, project the original columns back) — nothing
/// between them is materialised. A t-certain subquery is deduplicated
/// first, so the probe is a semi-join: a value it returns *k* times must
/// not multiply the outer row (`count`, `esum`/`ecount` would be *k*
/// times too large). An uncertain subquery keeps its duplicates: equal
/// values under different conditions are disjunctive evidence, which
/// `conf` / `possible` downstream treat exactly — the reason the language
/// restricts IN-subqueries to positive occurrences (§2.2).
fn rewrite_in_select(
    joined: UStream,
    probe: &SExpr,
    query: &Query,
    ctx: &mut ExecCtx<'_>,
) -> Result<UStream> {
    let mut sub = eval_query_rel(query, ctx)?;
    if sub.schema().len() != 1 {
        return Err(plan_err(format!(
            "IN-subquery must produce exactly one column, got {}",
            sub.schema().len()
        )));
    }
    if sub.is_t_certain() {
        sub = distinct_rows(sub, ctx)?;
    }
    let schema = joined.schema().clone();
    let n = schema.len();
    let original: Vec<ProjectItem> = (0..n)
        .map(|i| ProjectItem::new(EExpr::ColumnIdx(i), schema.field(i).name.clone()))
        .collect();
    let mut with_probe = original.clone();
    with_probe.push(ProjectItem::new(scalar(probe)?, "__probe".to_string()));
    Ok(joined
        .project(&with_probe)?
        .hash_join(sub, &[n], &[0])?
        .project(&original)?
        // Projections drop qualifiers; the block's schema keeps them.
        .with_schema(schema))
}

/// Bind an expression, retrying qualified column references without their
/// qualifier when they fail — aggregate outputs lose their qualifiers, but
/// `ORDER BY r1.player` after `GROUP BY r1.player` is idiomatic SQL.
fn bind_with_fallback(e: &EExpr, schema: &Schema) -> Result<EExpr> {
    match e.bind(schema) {
        Ok(b) => Ok(b),
        Err(first_err) => {
            let stripped = strip_qualifiers(e);
            stripped.bind(schema).map_err(|_| first_err.into())
        }
    }
}

/// A copy of the expression with all column qualifiers removed.
fn strip_qualifiers(e: &EExpr) -> EExpr {
    match e {
        EExpr::Column { name, .. } => EExpr::Column { qualifier: None, name: name.clone() },
        EExpr::ColumnIdx(i) => EExpr::ColumnIdx(*i),
        EExpr::Literal(v) => EExpr::Literal(v.clone()),
        EExpr::Binary { left, op, right } => EExpr::Binary {
            left: Box::new(strip_qualifiers(left)),
            op: *op,
            right: Box::new(strip_qualifiers(right)),
        },
        EExpr::Unary { op, expr } => {
            EExpr::Unary { op: *op, expr: Box::new(strip_qualifiers(expr)) }
        }
        EExpr::IsNull { expr, negated } => EExpr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        EExpr::InList { expr, list, negated } => EExpr::InList {
            expr: Box::new(strip_qualifiers(expr)),
            list: list.iter().map(strip_qualifiers).collect(),
            negated: *negated,
        },
        EExpr::Case { branches, else_expr } => EExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (strip_qualifiers(c), strip_qualifiers(r)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(strip_qualifiers(x))),
        },
        EExpr::Cast { expr, dtype } => {
            EExpr::Cast { expr: Box::new(strip_qualifiers(expr)), dtype: *dtype }
        }
    }
}

/// Split an expression into top-level AND conjuncts.
fn split_conjuncts(e: &SExpr, out: &mut Vec<SExpr>) {
    if let SExpr::Binary { left, op: maybms_sql::BinOp::And, right } = e {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// Recognise `col = col` equality predicates (for hash-join planning).
#[allow(clippy::type_complexity)]
fn as_column_equality(
    e: &EExpr,
) -> Option<(Option<String>, String, Option<String>, String)> {
    if let EExpr::Binary { left, op: BinaryOp::Eq, right } = e {
        if let (
            EExpr::Column { qualifier: lq, name: ln },
            EExpr::Column { qualifier: rq, name: rn },
        ) = (left.as_ref(), right.as_ref())
        {
            return Some((lq.clone(), ln.clone(), rq.clone(), rn.clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType, Value};
    use maybms_sql::parse_query;

    fn fixture() -> (BTreeMap<String, URelation>, WorldTable) {
        let mut catalog = BTreeMap::new();
        catalog.insert(
            "games".to_string(),
            URelation::from_certain(&rel(
                &[
                    ("player", DataType::Text),
                    ("team", DataType::Text),
                    ("pts", DataType::Int),
                ],
                vec![
                    vec!["Bryant".into(), "LAL".into(), 40.into()],
                    vec!["Bryant".into(), "LAL".into(), 30.into()],
                    vec!["Duncan".into(), "SAS".into(), 25.into()],
                ],
            )),
        );
        catalog.insert(
            "teams".to_string(),
            URelation::from_certain(&rel(
                &[("team", DataType::Text), ("city", DataType::Text)],
                vec![
                    vec!["LAL".into(), "Los Angeles".into()],
                    vec!["SAS".into(), "San Antonio".into()],
                ],
            )),
        );
        (catalog, WorldTable::new())
    }

    fn run(sql: &str) -> Result<QueryOutput> {
        let (catalog, mut wt) = fixture();
        let mut ctx = ExecCtx::new(&catalog, &mut wt, ConfContext::default());
        let q = parse_query(sql).unwrap();
        eval_query(&q, &mut ctx)
    }

    fn certain(sql: &str) -> Relation {
        match run(sql).unwrap() {
            QueryOutput::Certain(r) => r,
            QueryOutput::Uncertain(_) => panic!("expected certain output"),
        }
    }

    #[test]
    fn select_star() {
        let r = certain("select * from games");
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema().names(), vec!["player", "team", "pts"]);
    }

    #[test]
    fn filter_and_projection() {
        let r = certain("select player, pts * 2 as double_pts from games where pts > 28");
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().names(), vec!["player", "double_pts"]);
        assert_eq!(r.tuples()[0].value(1), &Value::Int(80));
    }

    #[test]
    fn equi_join_via_where() {
        let r = certain(
            "select g.player, t.city from games g, teams t where g.team = t.team and g.pts > 30",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].value(1), &Value::str("Los Angeles"));
    }

    #[test]
    fn join_on_sugar() {
        let r = certain("select g.player, t.city from games g join teams t on g.team = t.team");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn aggregates_on_certain() {
        let r = certain(
            "select player, sum(pts) as total, count(*) as n from games group by player",
        );
        assert_eq!(r.len(), 2);
        let bryant = r
            .tuples()
            .iter()
            .find(|t| t.value(0) == &Value::str("Bryant"))
            .unwrap();
        assert_eq!(bryant.value(1), &Value::Int(70));
        assert_eq!(bryant.value(2), &Value::Int(2));
    }

    #[test]
    fn select_item_not_in_group_by_rejected() {
        assert!(run("select player, pts from games group by player").is_err());
    }

    #[test]
    fn having_filters_groups() {
        let r = certain(
            "select player, sum(pts) as total from games group by player having total > 30",
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn having_with_qualified_column_binds_with_fallback() {
        // Aggregate outputs lose their qualifiers; HAVING gets the same
        // qualifier-stripping fallback ORDER BY has.
        let r = certain(
            "select g.player, sum(pts) as total from games g \
             group by g.player having g.player = 'Bryant'",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].value(0), &Value::str("Bryant"));
        assert_eq!(r.tuples()[0].value(1), &Value::Int(70));
        // The matching ORDER BY spelling worked before; both must agree.
        let r = certain(
            "select g.player, sum(pts) as total from games g \
             group by g.player order by g.player",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn having_on_tconf_rejected() {
        // tconf() is per-tuple, not grouped: HAVING must be rejected just
        // like on the plain-projection path, not silently applied.
        let err = run(
            "select player, tconf() as p from (pick tuples from games) g having p > 0.5",
        )
        .unwrap_err();
        assert!(
            matches!(err, crate::error::CoreError::Plan { ref message }
                if message.contains("HAVING")),
            "{err:?}"
        );
    }

    #[test]
    fn having_without_group_by_or_aggregates_rejected() {
        let err = run("select player from games having player = 'Bryant'").unwrap_err();
        assert!(err.to_string().contains("HAVING"), "{err}");
    }

    #[test]
    fn order_by_and_limit() {
        let r = certain("select player, pts from games order by pts desc limit 2");
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0].value(1), &Value::Int(40));
    }

    #[test]
    fn union_and_union_all() {
        let r = certain("select team from teams union all select team from teams");
        assert_eq!(r.len(), 4);
        let r = certain("select team from teams union select team from teams");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn distinct_on_certain() {
        let r = certain("select distinct player from games");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn in_list_predicate() {
        let r = certain("select player from games where pts in (25, 40)");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn in_select_rewrite() {
        let r = certain(
            "select player from games where team in (select team from teams where city = 'Los Angeles')",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_without_from() {
        let r = certain("select 1 as one, 'x' as s");
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].value(0), &Value::Int(1));
    }

    #[test]
    fn argmax_query() {
        let r = certain("select team, argmax(player, pts) as star from games group by team");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn cross_join_cardinality() {
        let r = certain("select * from games, teams");
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn qualified_wildcard() {
        let r = certain("select t.* from games g, teams t where g.team = t.team");
        assert_eq!(r.schema().names(), vec!["team", "city"]);
    }

    #[test]
    fn unknown_table_errors() {
        assert!(run("select * from nope").is_err());
    }

    #[test]
    fn unknown_alias_in_wildcard_errors() {
        assert!(run("select z.* from games g").is_err());
    }

    #[test]
    fn conf_on_certain_input_is_one() {
        let r = certain("select player, conf() as p from games group by player");
        for t in r.tuples() {
            assert_eq!(t.value(1), &Value::Float(1.0));
        }
    }

    #[test]
    fn extra_group_by_columns_not_in_select() {
        // Grouping by (player, team) but selecting only player: Bryant's
        // two games share a team, so two groups collapse into one row key
        // appearing once... player appears once per (player, team) group.
        let r = certain("select player, count(*) as n from games group by player, team");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn three_way_join_chain_uses_hash_joins() {
        // joined via two equality conjuncts across three sources.
        let r = certain(
            "select a.player from games a, games b, teams t
             where a.player = b.player and a.team = t.team and a.pts > b.pts",
        );
        assert_eq!(r.len(), 1); // Bryant 40 > Bryant 30
    }

    #[test]
    fn query_output_helpers() {
        let out = run("select * from games").unwrap();
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
        assert!(out.as_certain().is_some());
        let u = out.into_urelation();
        assert!(u.is_t_certain());
    }

    #[test]
    fn order_by_on_uncertain_representation() {
        let (catalog, mut wt) = fixture();
        let mut ctx = ExecCtx::new(&catalog, &mut wt, ConfContext::default());
        let q = parse_query(
            "select * from (pick tuples from games) p order by pts desc",
        )
        .unwrap();
        let QueryOutput::Uncertain(u) = eval_query(&q, &mut ctx).unwrap() else {
            panic!("expected uncertain output")
        };
        let pts: Vec<i64> = u
            .tuples()
            .iter()
            .map(|t| t.data.value(2).as_int().unwrap())
            .collect();
        assert_eq!(pts, vec![40, 30, 25]);
    }

    #[test]
    fn in_select_against_uncertain_subquery() {
        // Positive IN over an uncertain subquery: rewrites to a join; the
        // result is uncertain (conditions ride along).
        let (catalog, mut wt) = fixture();
        let mut ctx = ExecCtx::new(&catalog, &mut wt, ConfContext::default());
        let q = parse_query(
            "select player from games where team in
               (select team from (pick tuples from teams) pt)",
        )
        .unwrap();
        let QueryOutput::Uncertain(u) = eval_query(&q, &mut ctx).unwrap() else {
            panic!("expected uncertain output")
        };
        assert_eq!(u.len(), 3);
        assert!(u.tuples().iter().all(|t| !t.wsd.is_tautology()));
    }
}
