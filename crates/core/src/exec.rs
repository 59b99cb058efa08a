//! The MayBMS query executor: runs a [`QueryPlan`] over the catalog.
//!
//! The run walks the plan in order and builds its [`UStream`]s. A block's
//! FROM leaves are materialised in FROM order (`repair key` / `pick
//! tuples` extend the hypothesis space here, §2.2); the first leaf's
//! stream then takes every join step's hash probe and σ stages and every
//! IN-probe as **fused stages**, and the block's output — a projection,
//! `select possible`, `tconf`, or the **streaming group breaker**
//! ([`agg::aggregate_stream`]: `GROUP BY`, aggregates, `DISTINCT`) — is
//! its one materialisation (`select possible` then deduplicates its
//! possible rows through the same group breaker). Nothing else
//! materialises but the other breakers: hash-join build sides and
//! [`maybms_pipe::breaker`]'s sort, union, cross product and limit.
//! Every pipeline and breaker is recorded
//! into the statement's [`maybms_obs::QueryStats`] in run order — what
//! `EXPLAIN ANALYZE` prints.
//!
//! The run makes the decisions the plan leaves to the data (see
//! [`crate::plan`]): which side of the first join to build, whether a
//! UNION or an IN-subquery is deduplicated (only when t-certain), and the
//! §2.2 typing rules that read t-certainty off the WSDs. A query's result
//! is one [`URelation`] from its first block to the end; its t-certainty
//! picks the public [`QueryOutput`] variant.

use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_engine::vector::KernelCounts;
use maybms_engine::{ColumnBatch, Expr as EExpr, Relation, Schema};
use maybms_pipe::{breaker, UStream};
use maybms_sql::Query;
use maybms_urel::{
    pick_tuples_u, repair_key_u, PickTuplesOptions, RepairKeyOptions, URelation, WorldTable, Wsd,
};

use crate::agg;
use crate::error::{typing, Result};
use crate::plan::{filter, plan_query, Block, Output, QueryPlan, Source};
use crate::translate::AggSpec;

/// The database state a plan runs against.
pub struct ExecCtx<'a> {
    /// Stored tables.
    pub catalog: &'a BTreeMap<String, URelation>,
    /// The shared world table (mutable: `repair key` / `pick tuples`
    /// register fresh variables).
    pub wt: &'a mut WorldTable,
    /// The statement's record: every pipeline registers its stats here
    /// when it ends, every breaker its row counts, and the aggregates
    /// their confidence-computation effort — what `EXPLAIN ANALYZE` and
    /// the slow-query log print. Never changes results: everything
    /// collected is an order-independent sum or max.
    pub stats: &'a maybms_obs::QueryStats,
    /// Minimum morsel size of every pipeline this context runs
    /// ([`maybms_pipe::PAR_MIN_CHUNK`]; the determinism tests pin
    /// it to a single row, as they do on `collect_with`).
    pub min_morsel: usize,
}

impl<'a> ExecCtx<'a> {
    /// A context recording into `stats`.
    pub fn new(
        catalog: &'a BTreeMap<String, URelation>,
        wt: &'a mut WorldTable,
        stats: &'a maybms_obs::QueryStats,
    ) -> ExecCtx<'a> {
        ExecCtx {
            catalog,
            wt,
            stats,
            min_morsel: maybms_pipe::PAR_MIN_CHUNK,
        }
    }

    /// Materialise `stream` as the statement's next pipeline, labelled by
    /// why it breaks.
    fn collect(&self, stream: UStream, label: &str) -> Result<URelation> {
        Ok(stream.collect_with(&maybms_par::pool(), self.min_morsel, (self.stats, label))?)
    }

    /// Record a breaker that turned `rows_in` rows into `out`.
    fn breaker(&self, what: String, rows_in: usize, out: &URelation) {
        self.stats.record_breaker(what, rows_in, out.len());
    }
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

/// Plan and run a query to the public result type: a t-certain result
/// is handed out as a plain relation.
pub fn eval_query(q: &Query, ctx: &mut ExecCtx<'_>) -> Result<QueryOutput> {
    let u = run(&plan_query(q, ctx.catalog)?, ctx)?;
    Ok(if u.is_t_certain() {
        QueryOutput::Certain(u.into_certain())
    } else {
        QueryOutput::Uncertain(u)
    })
}

/// Run a planned query (UNION chain + ORDER BY/LIMIT) to its U-relation.
pub fn run(plan: &QueryPlan, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    let mut result = run_block(&plan.first, ctx)?;
    for (all, block) in &plan.rest {
        let next = run_block(block, ctx)?;
        let merged = breaker::union_all(&result, &next)?;
        // Certain UNION deduplicates (left-associatively, as in SQL);
        // UNION ALL keeps the bag. Uncertain union is multiset union of
        // the representations in both spellings (§2.2: "the multiset
        // union of uncertain queries (using SQL union)") — distinct would
        // require conditions beyond per-tuple conjunctions.
        // The breaker is the copy; a dedup is the `distinct` pipeline
        // that follows it and reports its own reduction.
        ctx.breaker(
            "union (all)".to_string(),
            result.len() + next.len(),
            &merged,
        );
        result = if !*all && merged.is_t_certain() {
            distinct_rows(merged, ctx)?
        } else {
            merged
        };
    }
    // The LIMIT typing rule reads the relation the LIMIT applies to, not
    // the sort's top-n of it, so whether a query is accepted never
    // depends on which rows come first.
    let certain = result.is_t_certain();
    if !plan.sort.is_empty() {
        // A LIMIT bounds the sort to a top-n; the limit breaker below
        // still runs after it, so a sort key's error comes first.
        let bound = plan.limit.map(|n| n as usize);
        let mut counts = KernelCounts::default();
        let sorted = breaker::sort(&result, &plan.sort, bound, &mut counts);
        ctx.stats
            .record_kernels(counts.batches, counts.scalar_fallbacks);
        let sorted = sorted?;
        ctx.breaker(plan.sort_label(), result.len(), &sorted);
        result = sorted;
    }
    if let Some(n) = plan.limit {
        if !certain {
            return Err(typing(
                "LIMIT on an uncertain relation would truncate the representation, \
                 changing its possible-worlds semantics; compute a t-certain result first",
            ));
        }
        let kept = breaker::limit(&result, n as usize);
        ctx.breaker(format!("limit {n}"), result.len(), &kept);
        result = kept;
    }
    debug_assert_eq!(
        result.schema(),
        &plan.schema,
        "a query's run and planned schemas differ"
    );
    Ok(result)
}

/// Run one SELECT block.
fn run_block(b: &Block, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    // ---- FROM: every leaf, in FROM order, under its σ stages -----------
    let leaves = b
        .leaves
        .iter()
        .map(|leaf| run_source(&leaf.source, ctx))
        .collect::<Result<Vec<_>>>()?;
    let first_rows = leaves[0].len();
    let mut streams = leaves
        .into_iter()
        .zip(&b.leaves)
        .map(|(rows, leaf)| leaf.stream(rows.with_schema(leaf.schema.clone())).map(Some))
        .collect::<Result<Vec<_>>>()?;
    let mut stream = streams[0].take().expect("a block has a leaf");

    // ---- joins ---------------------------------------------------------
    for (i, join) in b.joins.iter().enumerate() {
        let (first, leaf) = (&b.leaves[0].label, &b.leaves[join.leaf]);
        let input = streams[join.leaf].take().expect("every leaf joins once");
        stream = if join.prefix_keys.is_empty() {
            // No equality conjunct: a cross product breaks the pipeline
            // on both sides.
            let left = ctx.collect(stream, "cross product input")?;
            let right = ctx.collect(input, "cross product input")?;
            let product = breaker::cross(&left, &right)?;
            ctx.breaker("cross".to_string(), left.len() + right.len(), &product);
            UStream::new(product)
        } else {
            // A breaker either way: one side materialises (morsel-locally
            // hashed at run time), the other streams through the probe.
            // Which one is known once the leaf has yielded its rows.
            let collected = ctx.collect(input, "hash-join build side")?;
            let swap = join.adaptive && first_rows < collected.len();
            if swap {
                ctx.stats.relabel_last_pipeline("hash-join probe side");
                let build = ctx.collect(stream, "hash-join build side")?;
                let (rows, probe_rows) = (build.len(), collected.len());
                let why = format!(
                    "build: {first}, {rows} rows (probe side {}: {probe_rows})",
                    leaf.label
                );
                UStream::new(collected)
                    .hash_join_build_first(build, &join.leaf_keys, &join.prefix_keys)?
                    .annotate(why)
            } else {
                let probe_side = match i {
                    0 => format!("{first}: at most {first_rows}"),
                    _ => "the joined prefix".to_string(),
                };
                let why = format!(
                    "build: {}, {} rows (probe side {probe_side})",
                    leaf.label,
                    collected.len()
                );
                stream
                    .hash_join(collected, &join.prefix_keys, &join.leaf_keys)?
                    .annotate(why)
            }
        };
        stream = filter(stream, &join.then)?;
    }

    // ---- IN (SELECT …) -------------------------------------------------
    // A t-certain subquery is deduplicated first, so the probe is a
    // semi-join: a value it returns *k* times must not multiply the outer
    // row. An uncertain subquery keeps its duplicates: equal values under
    // different conditions are disjunctive evidence, which `conf` /
    // `possible` downstream treat exactly — the reason the language
    // restricts IN-subqueries to positive occurrences (§2.2) — and which
    // the planner keeps from `esum` / `ecount`.
    for probe in &b.in_probes {
        let mut sub = run(&probe.query, ctx)?;
        if sub.is_t_certain() {
            sub = distinct_rows(sub, ctx)?;
        }
        stream = probe.stages(stream, sub)?;
    }

    // ---- the output ----------------------------------------------------
    let out = match &b.output {
        // Plain projection: one more fused stage, then the single
        // materialisation of the whole block.
        Output::Project(items) => ctx.collect(stream.project(items)?, "output")?,
        Output::Possible(items) => possible(stream.project(items)?, ctx)?,
        Output::TConf {
            scalars,
            names,
            order,
        } => {
            let rows = ctx.collect(stream, "tconf breaker")?;
            reorder(
                agg::eval_tconf(&rows, scalars, names, ctx.wt, ctx.stats)?,
                order,
                &b.schema,
            )
        }
        Output::Group {
            grouping,
            keys,
            key_fields,
            aggs,
            order,
            having,
        } => {
            let out = group(stream, grouping, *keys, key_fields.clone(), aggs, ctx)?;
            let out = reorder(out, order, &b.schema);
            match having {
                Some(h) => ctx.collect(UStream::new(out).filter(h)?, "having")?,
                None => out,
            }
        }
    };
    // Grouping on keys the select list drops can repeat an output row.
    let out = if b.distinct {
        distinct_rows(out, ctx)?
    } else {
        out
    };
    debug_assert_eq!(
        out.schema(),
        &b.schema,
        "a block's run and planned schemas differ"
    );
    Ok(out)
}

/// Materialise what a FROM leaf reads.
fn run_source(source: &Source, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    Ok(match source {
        Source::Unit => {
            URelation::certain_batch(Schema::empty(), ColumnBatch::from_columns(Vec::new(), 1))
        }
        Source::Table(table) => table.clone(),
        Source::Query(q) => run(q, ctx)?,
        Source::RepairKey { input, key, weight } => {
            let input = run_source(input, ctx)?;
            let options = RepairKeyOptions {
                weight: weight.clone(),
            };
            repair_key_u(&input, key, &options, ctx.wt)?
        }
        Source::PickTuples { input, probability } => {
            let input = run_source(input, ctx)?;
            let options = PickTuplesOptions {
                probability: probability.clone(),
            };
            pick_tuples_u(&input, &options, ctx.wt)?
        }
    })
}

/// `select possible …` (§2.2) over the projected `stream`: drop
/// zero-probability tuples, deduplicate — mapping uncertain to t-certain.
/// The projection fuses onto the incoming stream; the rows with a
/// positive probability, now certain, go through the `DISTINCT` group
/// breaker (first-seen order).
fn possible(stream: UStream, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    let projected = ctx.collect(stream, "select possible breaker")?;
    let mut sel = Vec::new();
    for (i, wsd) in projected.at_rest().1.iter().enumerate() {
        if wsd.prob(ctx.wt)? > 0.0 {
            sel.push(i);
        }
    }
    let certain = vec![Wsd::tautology(); sel.len()];
    let schema = Arc::new(projected.schema().without_qualifiers());
    distinct_rows(
        projected.gather_with(&sel, certain).with_schema(schema),
        ctx,
    )
}

/// Run `stream` into the streaming group breaker, as the next pipeline of
/// the statement: its fused stages run morsel-by-morsel and every
/// surviving row folds into a morsel-local group table
/// ([`agg::aggregate_stream`]); the output is t-certain.
fn group(
    stream: UStream,
    grouping: &[EExpr],
    n_out_keys: usize,
    key_fields: Vec<maybms_engine::Field>,
    aggs: &[(AggSpec, String)],
    ctx: &mut ExecCtx<'_>,
) -> Result<URelation> {
    agg::aggregate_stream_with(
        stream,
        grouping,
        n_out_keys,
        key_fields,
        aggs,
        ctx.wt,
        ctx.stats,
        &maybms_par::pool(),
        ctx.min_morsel,
    )
}

/// `DISTINCT` over every column of a t-certain `u`: the group breaker
/// with no aggregates (first-seen order), as the next pipeline.
fn distinct_rows(u: URelation, ctx: &mut ExecCtx<'_>) -> Result<URelation> {
    let schema = u.schema().clone();
    let keys: Vec<EExpr> = (0..schema.len()).map(EExpr::ColumnIdx).collect();
    group(
        UStream::new(u),
        &keys,
        keys.len(),
        schema.fields().to_vec(),
        &[],
        ctx,
    )
}

/// The group breaker and `tconf` emit keys-then-aggregates columns;
/// restore the select order (`schema` is the block's, already in it).
/// Their output is t-certain.
fn reorder(out: URelation, order: &Option<Vec<usize>>, schema: &Arc<Schema>) -> URelation {
    let Some(order) = order else { return out };
    let batch = out.at_rest().0.slice_cols(0, out.len(), order);
    URelation::certain_batch(schema.clone(), batch)
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
        let stats = maybms_obs::QueryStats::new();
        let mut ctx = ExecCtx::new(&catalog, &mut wt, &stats);
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
        let r =
            certain("select player, sum(pts) as total, count(*) as n from games group by player");
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
        let err = run("select player, tconf() as p from (pick tuples from games) g having p > 0.5")
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
        let stats = maybms_obs::QueryStats::new();
        let mut ctx = ExecCtx::new(&catalog, &mut wt, &stats);
        let q = parse_query("select * from (pick tuples from games) p order by pts desc").unwrap();
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
        let stats = maybms_obs::QueryStats::new();
        let mut ctx = ExecCtx::new(&catalog, &mut wt, &stats);
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
