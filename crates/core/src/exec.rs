//! The MayBMS query executor.
//!
//! Evaluates parsed queries over the catalog of U-relations:
//!
//! 1. FROM items become U-relations (`repair key` / `pick tuples` extend
//!    the hypothesis space, §2.2);
//! 2. WHERE and ON split into conjuncts, resolved once against the whole
//!    FROM schema: restrictions are copied across join equalities,
//!    single-source predicates pushed down, equality conjuncts are the
//!    keys of hash joins, `IN (SELECT …)` conjuncts become (semi-)joins
//!    (positive occurrence only), the rest filter the joined result —
//!    the parsimonious translation of §2.3 throughout;
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
//! and at the final output. `JOIN … ON` flattens into its block's FROM
//! list, so both spellings are one call of the one join planner
//! (`join_sources`, which also picks each join's build side). `EXPLAIN`
//! lists every collected pipeline and every breaker via [`ExecCtx::trace`].

use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_engine::ops::{ProjectItem, SortKey};
use maybms_engine::{BinaryOp, DataType, Expr as EExpr, Field, Relation, Schema, Tuple};
use maybms_pipe::{breaker, UStream};
use maybms_sql::{Expr as SExpr, FromItem, Query, QueryInput, Select, SelectItem};
use maybms_urel::{
    pick_tuples_u, repair_key_u, PickTuplesOptions, RepairKeyOptions, URelation, UTuple,
    WorldTable,
};

use crate::agg;
use crate::error::{plan_err, typing, Result};
use crate::translate::{classify_item, scalar, AggSpec, Item};

/// The mutable database state a query runs against.
pub struct ExecCtx<'a> {
    /// Stored tables.
    pub catalog: &'a BTreeMap<String, URelation>,
    /// The shared world table (mutable: `repair key` / `pick tuples`
    /// register fresh variables).
    pub wt: &'a mut WorldTable,
    /// When set, every pipeline the executor collects and every breaker
    /// it runs appends a [`PlanStep`] — the `EXPLAIN` implementation.
    pub trace: Option<Vec<PlanStep>>,
    /// When attached, every pipeline registers a per-stage stats
    /// collector and the aggregates record confidence-computation effort
    /// — the `EXPLAIN ANALYZE` / slow-query-log implementation. Never
    /// changes results: everything collected is an order-independent
    /// sum or max.
    pub stats: Option<std::sync::Arc<maybms_obs::QueryStats>>,
    /// Minimum morsel size of every pipeline this context runs
    /// ([`maybms_engine::ops::PAR_MIN_CHUNK`]; the determinism tests pin
    /// it to a single row, as they do on `collect_with`).
    pub min_morsel: usize,
}

impl<'a> ExecCtx<'a> {
    /// A context without explain tracing or stats collection.
    pub fn new(catalog: &'a BTreeMap<String, URelation>, wt: &'a mut WorldTable) -> ExecCtx<'a> {
        ExecCtx {
            catalog,
            wt,
            trace: None,
            stats: None,
            min_morsel: maybms_engine::ops::PAR_MIN_CHUNK,
        }
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
    /// Record a pipeline [`UStream::describe`]d as `described` as the
    /// next one of the plan (`reason` is why it breaks) when tracing for
    /// `EXPLAIN`.
    fn trace_pipeline(&mut self, described: impl FnOnce() -> String, reason: &str) {
        if let Some(trace) = &mut self.trace {
            let mut entry = format!("pipeline ({reason})\n");
            for line in described().lines() {
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
    reason: &'static str,
) -> Result<URelation> {
    collect_labelled(stream, ctx, |_| reason)
}

/// [`collect_traced`] with the reason read off the pipeline's output:
/// the join planner only knows which side of a join a collected source
/// is once it has the source's row count.
fn collect_labelled(
    stream: UStream,
    ctx: &mut ExecCtx<'_>,
    reason: impl FnOnce(&URelation) -> &'static str,
) -> Result<URelation> {
    let described = ctx.trace.as_ref().map(|_| stream.describe());
    let pipe_stats = ctx.stats.as_ref().map(|_| stream.stats_skeleton(""));
    let out =
        stream.collect_with(&maybms_par::pool(), ctx.min_morsel, pipe_stats.as_ref())?;
    let reason = reason(&out);
    ctx.trace_pipeline(|| described.unwrap_or_default(), reason);
    if let (Some(qs), Some(mut ps)) = (&ctx.stats, pipe_stats) {
        ps.label = reason.to_string();
        qs.register_pipeline(Arc::new(ps));
    }
    Ok(out)
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
    // Every leaf of the FROM clause becomes a pipeline head; pushed-down
    // predicates, probes, and the final projection fuse onto these
    // streams. `a JOIN b ON p WHERE q` is `a, b WHERE p AND q`.
    let mut sources: Vec<Source> = Vec::with_capacity(s.from.len());
    let mut conjuncts: Vec<SExpr> = Vec::new();
    for item in &s.from {
        eval_from_item(item, ctx, &mut sources, &mut conjuncts)?;
    }
    if sources.is_empty() {
        // SELECT without FROM: one empty tuple.
        let one = URelation::new(
            Schema::empty(),
            vec![UTuple::certain(Tuple::new(Vec::new()))],
        );
        sources.push(Source { stream: UStream::new(one), label: String::new(), rows: 1 });
    }

    // ---- WHERE: conjunct split --------------------------------------
    if let Some(w) = &s.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }
    // IN (SELECT …) conjuncts are handled after the joins.
    let (in_selects, plain): (Vec<SExpr>, Vec<SExpr>) = conjuncts
        .into_iter()
        .partition(|c| matches!(c, SExpr::InSelect { .. }));
    let predicates: Vec<EExpr> = plain.iter().map(scalar).collect::<Result<_>>()?;
    let (mut joined, from_order) = join_sources(sources, &predicates, ctx)?;

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

/// One leaf of a SELECT block's FROM clause, as the join planner sees it:
/// what `EXPLAIN` calls it (`alerts a`) and how many rows its stream
/// starts from — an upper bound on what it yields under σ stages only.
struct Source {
    stream: UStream,
    label: String,
    rows: usize,
}

/// One conjunct of the block, bound to the whole FROM schema's column
/// positions, and — for one the planner derived — what `EXPLAIN` says
/// about it.
struct Conjunct {
    expr: EExpr,
    note: Option<String>,
}

/// Move every conjunct whose columns all have a position in `stream`
/// under `at` out of `conjuncts` and onto `stream`, as fused σ stages.
fn push_ready(
    conjuncts: &mut Vec<Conjunct>,
    mut stream: UStream,
    at: &dyn Fn(usize) -> Option<usize>,
) -> Result<UStream> {
    let mut kept = Vec::new();
    for c in conjuncts.drain(..) {
        let mut cols = Vec::new();
        c.expr.referenced_columns(&mut cols);
        if !cols.iter().all(|&g| at(g).is_some()) {
            kept.push(c);
            continue;
        }
        let before = stream.stage_count();
        stream = stream.filter(&c.expr.remap_columns(&|g| at(g).expect("checked above")))?;
        if let Some(note) = c.note.filter(|_| stream.stage_count() > before) {
            stream = stream.annotate(note, &[("implied_filters", 1)]);
        }
    }
    *conjuncts = kept;
    Ok(stream)
}

/// The one join planner: combine `sources` (the block's FROM leaves, in
/// FROM order) under the conjunction of `predicates` (its ON and WHERE
/// conjuncts). Every join is inner, so conjuncts may move and be copied:
///
/// 1. **Resolve once.** Every conjunct binds against the concatenated
///    FROM schema: an unknown or ambiguous column is the typed error the
///    SELECT list would raise, before anything is pushed anywhere.
/// 2. **Implied predicates.** `col = col` conjuncts between columns of
///    one declared type link equivalence classes; a conjunct restricting
///    one column ([`restricted_column`]) is copied to the rest of its
///    class unless the query already says so. NULL keys never join and
///    the originals stay, so a copy only drops rows the join would drop;
///    copies read data columns only — WSDs ride along.
/// 3. **Pushdown.** Single-source conjuncts, implied ones included,
///    become fused σ stages on their source.
/// 4. **Greedy hash joins, composite keys.** The first equality conjunct
///    linking the joined prefix to a remaining source picks that source,
///    and *all* equality conjuncts between the two are the key lists of
///    one fused probe; with none, a cross product breaks the pipeline on
///    both sides. Other conjuncts filter once their columns are joined.
/// 5. **Build on the smaller side.** The picked source is collected; if
///    the prefix is still one FROM leaf under σ stages only and that leaf
///    holds fewer rows than the source yielded (an upper bound — σ cannot
///    grow), the prefix is built instead and the source streams through
///    the probe. That changes the unordered row order, hence `aconf`
///    values at a fixed seed, of the queries it fires on.
///
/// Returns the joined stream and the joined schema's column positions
/// listed in FROM order (what `*` expands over) — neither the greedy
/// order nor the build side follows it.
fn join_sources(
    sources: Vec<Source>,
    predicates: &[EExpr],
    ctx: &mut ExecCtx<'_>,
) -> Result<(UStream, Vec<usize>)> {
    // ---- resolve once --------------------------------------------------
    let mut fields = Vec::new();
    // Per FROM-schema column, the source it belongs to; per source, where
    // its columns start.
    let (mut source_of, mut starts) = (Vec::new(), Vec::new());
    for (k, src) in sources.iter().enumerate() {
        starts.push(fields.len());
        fields.extend(src.stream.schema().fields().iter().cloned());
        source_of.resize(fields.len(), k);
    }
    let whole = Schema::new(fields);
    let mut conjuncts: Vec<Conjunct> = predicates
        .iter()
        .map(|p| Ok(Conjunct { expr: p.bind(&whole)?, note: None }))
        .collect::<Result<_>>()?;

    // ---- implied predicates ----------------------------------------------
    // The same-typed join equalities.
    let links: Vec<(usize, usize)> = conjuncts
        .iter()
        .filter_map(|c| column_equality(&c.expr))
        .filter(|&(a, b)| {
            let dtype = whole.field(a).dtype;
            dtype == whole.field(b).dtype && dtype != DataType::Unknown
        })
        .collect();
    // A worklist: copies are restrictions too, so they travel on down
    // their class, each attributed to the equality that carried it.
    let mut next = 0;
    while let Some(col) = conjuncts.get(next).map(|c| restricted_column(&c.expr, &whole)) {
        for &(a, b) in &links {
            let to = if col == Some(a) { b } else if col == Some(b) { a } else { continue };
            let copy = conjuncts[next].expr.remap_columns(&|_| to);
            if conjuncts.iter().all(|known| known.expr != copy) {
                let name = |g: usize| whole.field(g).qualified_name();
                let note = format!("implied by {} = {}", name(a), name(b));
                conjuncts.push(Conjunct { expr: copy, note: Some(note) });
            }
        }
        next += 1;
    }

    // ---- pushdown ------------------------------------------------------------
    // Single-source conjuncts become fused σ stages on their source (one
    // that reads no column at all runs on the first).
    let mut remaining = Vec::with_capacity(sources.len());
    for (k, mut src) in sources.into_iter().enumerate() {
        let local = |g: usize| (source_of[g] == k).then(|| g - starts[k]);
        src.stream = push_ready(&mut conjuncts, src.stream, &local)?;
        remaining.push(Some(src));
    }

    // ---- greedy joins --------------------------------------------------------
    // Where each FROM-schema column sits in the joined schema, once its
    // source is joined.
    let mut joined_at: Vec<Option<usize>> = vec![None; whole.len()];
    let place = |joined_at: &mut Vec<Option<usize>>, k: usize, width: usize, at: usize| {
        for c in 0..width {
            joined_at[starts[k] + c] = Some(at + c);
        }
    };
    // A `col = col` conjunct between the prefix and an unjoined column:
    // the former's position and the latter.
    let link = |c: &Conjunct, joined_at: &[Option<usize>]| {
        let (a, b) = column_equality(&c.expr)?;
        match (joined_at[a], joined_at[b]) {
            (Some(at), None) => Some((at, b)),
            (None, Some(at)) => Some((at, a)),
            _ => None,
        }
    };
    let first = remaining[0].take().expect("a block has a source");
    place(&mut joined_at, 0, first.stream.schema().len(), 0);
    let mut joined = first.stream;
    // The prefix while it is one FROM leaf under σ stages only.
    let mut lone = Some((first.label, first.rows));
    while let Some(in_from_order) = remaining.iter().position(Option::is_some) {
        // The first equality conjunct linking the prefix to a remaining
        // source picks that source.
        let picked = conjuncts.iter().find_map(|c| link(c, &joined_at)).map(|(_, g)| source_of[g]);
        let k = picked.unwrap_or(in_from_order);
        let src = remaining[k].take().expect("an unjoined source");
        let (width, src_width) = (joined.schema().len(), src.stream.schema().len());
        let prefix = lone.take();
        if picked.is_some() {
            // Every equality conjunct between the prefix and this source
            // is a key of the one probe.
            let (mut prefix_keys, mut src_keys) = (Vec::new(), Vec::new());
            conjuncts.retain(|c| match link(c, &joined_at) {
                Some((at, g)) if source_of[g] == k => {
                    prefix_keys.push(at);
                    src_keys.push(g - starts[k]);
                    false
                }
                _ => true,
            });
            // A breaker either way: one side materialises (morsel-locally
            // hashed at run time), the other streams through the probe.
            let fewer = |n: usize| prefix.as_ref().is_some_and(|(_, rows)| *rows < n);
            let collected = collect_labelled(src.stream, ctx, |out| {
                if fewer(out.len()) { "hash-join probe side" } else { "hash-join build side" }
            })?;
            let counts = |build: &URelation, swapped| {
                let (keys, rows) = (prefix_keys.len() as u64, build.len() as u64);
                [("probe_keys", keys), ("build_rows", rows), ("prefix_builds", swapped)]
            };
            if let Some((label, _)) = prefix.as_ref().filter(|_| fewer(collected.len())) {
                let build = collect_traced(joined, ctx, "hash-join build side")?;
                let (rows, probe_rows) = (build.len(), collected.len());
                let why = format!("build: {label}, {rows} rows (probe side {}: {probe_rows})", src.label);
                let counts = counts(&build, 1);
                joined = UStream::new(collected)
                    .hash_join(build, &src_keys, &prefix_keys)?
                    .annotate(why, &counts);
                for at in joined_at.iter_mut().flatten() {
                    *at += src_width;
                }
                place(&mut joined_at, k, src_width, 0);
            } else {
                let probe_side = match &prefix {
                    Some((label, rows)) => format!("{label}: at most {rows}"),
                    None => "the joined prefix".to_string(),
                };
                let rows = collected.len();
                let why = format!("build: {}, {rows} rows (probe side {probe_side})", src.label);
                let counts = counts(&collected, 0);
                joined = joined.hash_join(collected, &prefix_keys, &src_keys)?.annotate(why, &counts);
                place(&mut joined_at, k, src_width, width);
            }
        } else {
            // No equality conjunct: a cross product breaks the pipeline
            // on both sides.
            let left = collect_traced(joined, ctx, "cross product input")?;
            let right = collect_traced(src.stream, ctx, "cross product input")?;
            let product = breaker::cross(&left, &right)?;
            ctx.trace_breaker(|| "cross".to_string(), left.len() + right.len(), &product);
            joined = UStream::new(product);
            place(&mut joined_at, k, src_width, width);
        }
        // Apply every conjunct whose columns are all joined now.
        joined = push_ready(&mut conjuncts, joined, &|g| joined_at[g])?;
    }
    let from_order = joined_at.into_iter().map(|at| at.expect("every source joined")).collect();
    Ok((joined, from_order))
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
    ctx.trace_pipeline(|| stream.describe(), &agg::stream_label(grouping.len(), aggs.len()));
    agg::aggregate_stream_with(
        stream,
        grouping,
        n_out_keys,
        key_fields,
        aggs,
        ctx.wt,
        ctx.stats.as_deref(),
        &maybms_par::pool(),
        ctx.min_morsel,
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

/// Evaluate one FROM item to its leaves — pipeline heads with qualified
/// schemas, appended to `sources` in FROM order. A `JOIN … ON` is its
/// two sides' leaves plus its ON conjuncts (appended to `conjuncts`).
fn eval_from_item(
    item: &FromItem,
    ctx: &mut ExecCtx<'_>,
    sources: &mut Vec<Source>,
    conjuncts: &mut Vec<SExpr>,
) -> Result<()> {
    // The relation, what it is, and the alias that qualifies its columns.
    let (u, what, alias): (URelation, &str, Option<&str>) = match item {
        FromItem::Table { name, alias } => {
            (stored_table(name, ctx)?, name, Some(alias.as_deref().unwrap_or(name)))
        }
        FromItem::Subquery { query, alias } => {
            (eval_query_rel(query, ctx)?, "(subquery)", Some(alias))
        }
        FromItem::RepairKey { key, input, weight, alias } => {
            let input = eval_query_input(input, ctx)?;
            let key_exprs: Vec<EExpr> =
                key.iter().map(|k| EExpr::col(k.clone())).collect();
            let options = RepairKeyOptions {
                weight: weight.as_ref().map(scalar).transpose()?,
            };
            (repair_key_u(&input, &key_exprs, &options, ctx.wt)?, "(repair key)", alias.as_deref())
        }
        FromItem::PickTuples { input, independently: _, probability, alias } => {
            // `independently` is the only supported semantics (see
            // DESIGN.md §5.5); the keyword is accepted in both spellings.
            let input = eval_query_input(input, ctx)?;
            let options = PickTuplesOptions {
                probability: probability.as_ref().map(scalar).transpose()?,
            };
            (pick_tuples_u(&input, &options, ctx.wt)?, "(pick tuples)", alias.as_deref())
        }
        FromItem::Join { left, right, on } => {
            eval_from_item(left, ctx, sources, conjuncts)?;
            eval_from_item(right, ctx, sources, conjuncts)?;
            split_conjuncts(on, conjuncts);
            return Ok(());
        }
    };
    let label = match alias {
        Some(a) if !a.eq_ignore_ascii_case(what) => format!("{what} {a}"),
        _ => what.to_string(),
    };
    sources.push(Source { rows: u.len(), stream: UStream::new(apply_alias(u, alias)), label });
    Ok(())
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

/// The two columns of a bound `col = col` predicate.
fn column_equality(e: &EExpr) -> Option<(usize, usize)> {
    match e {
        EExpr::Binary { left, op: BinaryOp::Eq, right } => match (&**left, &**right) {
            (EExpr::ColumnIdx(a), EExpr::ColumnIdx(b)) => Some((*a, *b)),
            _ => None,
        },
        _ => None,
    }
}

/// The column a bound predicate restricts, when it reads that one
/// column and otherwise only literals — `col ⋈ literal` for `=`, `<`,
/// `<=`, `>`, `>=` (either way round) or `col IN (literals)` — and can
/// raise no runtime error on any value the column may hold: the column
/// has a declared type and every literal is of its type family (stored
/// values are, see `check_cell_type`) or NULL. Such a predicate holds
/// for one column of a join-equality class iff it holds for them all.
fn restricted_column(e: &EExpr, schema: &Schema) -> Option<usize> {
    use BinaryOp::{Eq, Gt, GtEq, Lt, LtEq};
    let (col, literals) = match e {
        EExpr::Binary { left, op: Eq | Lt | LtEq | Gt | GtEq, right } => {
            match (&**left, &**right) {
                (EExpr::ColumnIdx(c), lit) | (lit, EExpr::ColumnIdx(c)) => {
                    (*c, std::slice::from_ref(lit))
                }
                _ => return None,
            }
        }
        EExpr::InList { expr, list, negated: false } => match &**expr {
            EExpr::ColumnIdx(c) => (*c, &list[..]),
            _ => return None,
        },
        _ => return None,
    };
    let dtype = schema.field(col).dtype;
    let fits = |lit: &EExpr| {
        matches!(lit, EExpr::Literal(v) if v.data_type().unify(dtype).is_some())
    };
    (dtype != DataType::Unknown && literals.iter().all(fits)).then_some(col)
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
        let mut ctx = ExecCtx::new(&catalog, &mut wt);
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
        let mut ctx = ExecCtx::new(&catalog, &mut wt);
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
        let mut ctx = ExecCtx::new(&catalog, &mut wt);
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
