//! The plan of a query: a value built from the parsed [`Query`] and a
//! read-only catalog (schemas, row counts, stored column types) before
//! anything runs. [`crate::exec`] runs it; `EXPLAIN` prints it
//! ([`QueryPlan::explain`]) and runs nothing.
//!
//! Planning binds every column once — to its position in the joined row —
//! and makes every check that needs no data, so `EXPLAIN q` fails exactly
//! where `q` would: unknown and ambiguous columns, ORDER BY positions, the
//! §2.2 rules on `tconf` / HAVING / GROUP BY, select items that are not
//! grouped, `possible` with aggregates, the arity of an IN-subquery. A
//! SELECT block is its FROM leaves (stored tables, FROM subqueries,
//! `repair key` / `pick tuples`; `JOIN … ON` contributes its leaves and
//! ON conjuncts), σ stages pushed down to them, greedy join steps
//! (`plan_joins`), IN-probes, and its output: a projection, `select
//! possible`, `tconf`, or the group breaker with its HAVING. UNION, ORDER
//! BY and LIMIT follow per query.
//!
//! What depends on data stays with the run, and the plan names it: the
//! build side of the first join (`Join::adaptive`); the dedup of a UNION
//! or an IN-subquery, which happens only when its rows are t-certain; and
//! the typing rules that read t-certainty — LIMIT, the inputs of `repair
//! key` / `pick tuples`, DISTINCT and the standard aggregates over
//! uncertain rows, esum / ecount beside an uncertain IN-subquery — since
//! t-certainty is a property of the WSDs, not a static type.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use maybms_engine::ops::{ProjectItem, SortKey};
use maybms_engine::{BinaryOp, DataType, Expr as EExpr, Field, Schema};
use maybms_obs::{PipelineStats, Step};
use maybms_pipe::{ustream::source_label, UStream};
use maybms_sql::{Expr as SExpr, FromItem, Query, QueryInput, Select, SelectItem};
use maybms_urel::URelation;

use crate::agg;
use crate::error::{plan_err, typing, Result};
use crate::translate::{classify_item, scalar, AggSpec, Item};

/// A planned query: its UNION chain of blocks (each later one with
/// whether it is `UNION ALL`), then ORDER BY keys and LIMIT, and the
/// output schema.
pub struct QueryPlan {
    pub(crate) first: Block,
    pub(crate) rest: Vec<(bool, Block)>,
    pub(crate) sort: Vec<SortKey>,
    pub(crate) limit: Option<u64>,
    pub(crate) schema: Arc<Schema>,
}

/// A planned SELECT block; `distinct` is a DISTINCT left for after the
/// output (one over a plain projection is its group breaker).
pub(crate) struct Block {
    pub(crate) leaves: Vec<Leaf>,
    pub(crate) joins: Vec<Join>,
    pub(crate) in_probes: Vec<InProbe>,
    pub(crate) output: Output,
    pub(crate) distinct: bool,
    pub(crate) schema: Arc<Schema>,
}

/// One FROM leaf: what `EXPLAIN` calls it (`alerts a`), what it reads,
/// its schema qualified by its alias, and the σ stages pushed down to it.
pub(crate) struct Leaf {
    pub(crate) label: String,
    pub(crate) source: Source,
    pub(crate) schema: Arc<Schema>,
    pub(crate) filters: Vec<Filter>,
}

/// What a FROM leaf reads (`Unit`: SELECT without FROM, one empty row).
pub(crate) enum Source {
    Unit,
    /// A stored table, as the catalog held it at plan time.
    Table(URelation),
    Query(Box<QueryPlan>),
    RepairKey {
        input: Box<Source>,
        key: Vec<EExpr>,
        weight: Option<EExpr>,
    },
    PickTuples {
        input: Box<Source>,
        probability: Option<EExpr>,
    },
}

/// A conjunct bound to the row it filters, and — for one the planner
/// derived — the two columns of the block's FROM row (every leaf's
/// columns, in FROM order) whose equality carried it there.
pub(crate) struct Filter {
    pub(crate) pred: EExpr,
    pub(crate) implied: Option<(usize, usize)>,
}

/// One greedy join step: leaf `leaf` joins the prefix by one hash probe
/// on `prefix_keys[i] = leaf_keys[i]` — or, with no keys, by a cross
/// product — and then the conjuncts whose columns are all joined run.
pub(crate) struct Join {
    pub(crate) leaf: usize,
    pub(crate) prefix_keys: Vec<usize>,
    pub(crate) leaf_keys: Vec<usize>,
    /// Whether the run builds on the prefix — still the first leaf under
    /// σ stages only — when that leaf holds fewer rows than this one
    /// yields; false where the stored row counts rule that out. It changes
    /// the row order, hence `aconf` values at a fixed seed, never the
    /// joined row's layout.
    pub(crate) adaptive: bool,
    pub(crate) then: Vec<Filter>,
}

/// `x IN (SELECT …)`: the probe value, bound to the joined row, and the
/// subquery.
pub(crate) struct InProbe {
    pub(crate) probe: EExpr,
    pub(crate) query: QueryPlan,
}

/// What a block outputs. `order` permutes the keys-then-aggregates row
/// the breaker emits back to select order (`None`: it is in order).
pub(crate) enum Output {
    Project(Vec<ProjectItem>),
    Possible(Vec<ProjectItem>),
    TConf {
        scalars: Vec<(EExpr, String)>,
        names: Vec<String>,
        order: Option<Vec<usize>>,
    },
    /// The group breaker: the first `keys` of `grouping` are output
    /// columns (named by `key_fields`), the rest grouped but not output.
    Group {
        grouping: Vec<EExpr>,
        keys: usize,
        key_fields: Vec<Field>,
        aggs: Vec<(AggSpec, String)>,
        order: Option<Vec<usize>>,
        having: Option<EExpr>,
    },
}

impl QueryPlan {
    /// Whether a row of the result may carry a condition: decided from
    /// the plan alone (a stored table as the catalog holds it), so it
    /// holds for any run of it.
    fn may_be_uncertain(&self) -> bool {
        self.projects_any(Source::may_be_uncertain)
    }

    /// Whether a plain projection in the chain reads a FROM source with
    /// `leaf`, or a possibly uncertain IN-subquery.
    fn projects_any(&self, leaf: fn(&Source) -> bool) -> bool {
        self.blocks().any(|b| {
            matches!(b.output, Output::Project(_))
                && (b.leaves.iter().any(|l| leaf(&l.source))
                    || b.in_probes.iter().any(|p| p.query.may_be_uncertain()))
        })
    }

    fn blocks(&self) -> impl Iterator<Item = &Block> {
        std::iter::once(&self.first).chain(self.rest.iter().map(|(_, b)| b))
    }
}

impl Source {
    fn may_be_uncertain(&self) -> bool {
        match self {
            Source::Unit => false,
            Source::Table(table) => !table.is_t_certain(),
            Source::Query(q) => q.may_be_uncertain(),
            Source::RepairKey { .. } | Source::PickTuples { .. } => true,
        }
    }

    /// Whether the rows may repeat once per condition an uncertain
    /// IN-subquery matched them under.
    fn in_duplicates(&self) -> bool {
        matches!(self, Source::Query(q) if q.projects_any(Source::in_duplicates))
    }

    /// The exact row count, where the catalog knows it.
    fn rows(&self) -> Option<usize> {
        match self {
            Source::Unit => Some(1),
            Source::Table(table) => Some(table.len()),
            _ => None,
        }
    }
}

impl Leaf {
    /// The leaf's rows under its pushed-down σ stages.
    pub(crate) fn stream(&self, rows: URelation) -> Result<UStream> {
        filter(UStream::new(rows), &self.filters)
    }

    /// What `EXPLAIN` lays the leaf's stages over (a stored table's column
    /// variants decide its `(zone map)` marks; nothing is read).
    fn explain_rows(&self) -> URelation {
        match &self.source {
            Source::Table(table) => table.clone().with_schema(self.schema.clone()),
            _ => URelation::empty(self.schema.clone()),
        }
    }

    /// What a pipeline this leaf heads reads.
    fn input(&self) -> Input {
        match &self.source {
            Source::Table(table) => Input::Stored(table.len()),
            Source::Unit => Input::Stored(1),
            _ => Input::Run(format!("{} (materialised at run)", self.label)),
        }
    }
}

impl InProbe {
    /// Three fused stages on `stream`: append the probe value, hash-probe
    /// `sub`, project the original columns back — nothing between them is
    /// materialised.
    pub(crate) fn stages(&self, stream: UStream, sub: URelation) -> Result<UStream> {
        let schema = stream.schema().clone();
        let n = schema.len();
        let original: Vec<ProjectItem> = (0..n)
            .map(|i| ProjectItem::new(EExpr::ColumnIdx(i), schema.field(i).name.clone()))
            .collect();
        let mut with_probe = original.clone();
        with_probe.push(ProjectItem::new(self.probe.clone(), "__probe".to_string()));
        Ok(stream
            .project(&with_probe)?
            .hash_join(sub, &[n], &[0])?
            .project(&original)?
            // Projections drop qualifiers; the block's schema keeps them.
            .with_schema(schema))
    }
}

/// `filters` as fused σ stages on `stream`.
pub(crate) fn filter(mut stream: UStream, filters: &[Filter]) -> Result<UStream> {
    for f in filters {
        stream = stream.filter(&f.pred)?;
    }
    Ok(stream)
}

/// Plan `q` against `catalog`, which is only read.
pub fn plan_query(q: &Query, catalog: &BTreeMap<String, URelation>) -> Result<QueryPlan> {
    let first = plan_block(&q.first, catalog)?;
    let rest = q
        .rest
        .iter()
        .map(|(all, s)| Ok((*all, plan_block(s, catalog)?)))
        .collect::<Result<Vec<_>>>()?;
    // A UNION keeps its left side's schema.
    let schema = first.schema.clone();
    // ORDER BY orders the stored representation. Keys resolve against the
    // select list first (`ORDER BY r2.final` after `r2.final AS state`),
    // then against the output schema, with a qualifier-dropping fallback.
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
    let sort = q
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
                e => match item_positions
                    .as_ref()
                    .and_then(|items| items.iter().position(|item| *item == e))
                {
                    Some(i) => EExpr::ColumnIdx(i),
                    None => bind_with_fallback(&scalar(e)?, &schema)?,
                },
            };
            Ok(SortKey {
                expr,
                ascending: k.ascending,
            })
        })
        .collect::<Result<_>>()?;
    Ok(QueryPlan {
        first,
        rest,
        sort,
        limit: q.limit,
        schema,
    })
}

/// Plan one SELECT block.
fn plan_block(s: &Select, catalog: &BTreeMap<String, URelation>) -> Result<Block> {
    let mut leaves = Vec::with_capacity(s.from.len());
    let mut conjuncts: Vec<SExpr> = Vec::new();
    for item in &s.from {
        plan_from_item(item, catalog, &mut leaves, &mut conjuncts)?;
    }
    if leaves.is_empty() {
        let schema = Schema::empty();
        leaves.push(Leaf {
            label: String::new(),
            source: Source::Unit,
            schema,
            filters: Vec::new(),
        });
    }
    if let Some(w) = &s.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }
    let (in_selects, plain): (Vec<SExpr>, Vec<SExpr>) = conjuncts
        .into_iter()
        .partition(|c| matches!(c, SExpr::InSelect { .. }));
    let predicates: Vec<EExpr> = plain.iter().map(scalar).collect::<Result<_>>()?;
    let (joins, joined, from_order) = plan_joins(&mut leaves, &predicates)?;
    let in_probes: Vec<InProbe> = in_selects
        .iter()
        .map(|c| {
            let SExpr::InSelect { expr, query } = c else {
                unreachable!("partitioned above")
            };
            let query = plan_query(query, catalog)?;
            if query.schema.len() != 1 {
                return Err(plan_err(format!(
                    "IN-subquery must produce exactly one column, got {}",
                    query.schema.len()
                )));
            }
            Ok(InProbe {
                probe: scalar(expr)?.bind(&joined)?,
                query,
            })
        })
        .collect::<Result<_>>()?;
    let items = expand_items(s, &joined, &from_order)?;
    let (output, schema) = plan_output(s, &items, &joined)?;
    // An uncertain IN-subquery keeps its duplicate matches — disjunctive
    // evidence `conf` and `possible` read exactly — which `esum` /
    // `ecount` would count once per condition, here or in any block that
    // reads this one's rows through a FROM subquery.
    let expects = matches!(&output, Output::Group { aggs, .. }
        if aggs.iter().any(|(a, _)| matches!(a, AggSpec::ESum(_) | AggSpec::ECount(_))));
    let duplicated = in_probes.iter().any(|p| p.query.may_be_uncertain())
        || leaves.iter().any(|l| l.source.in_duplicates());
    if expects && duplicated {
        return Err(typing(
            "esum / ecount over x IN (SELECT …) with an uncertain subquery would count a \
             row once per condition the subquery yields its value under (§2.2); make the \
             subquery t-certain (e.g. select possible) or use conf()",
        ));
    }
    // `select possible` deduplicates anyway; a plain projection's
    // DISTINCT is its group breaker.
    let grouped = !s.group_by.is_empty() || items.iter().any(|i| matches!(i, Item::Agg { .. }));
    let distinct = s.distinct && !s.possible && grouped;
    Ok(Block {
        leaves,
        joins,
        in_probes,
        output,
        distinct,
        schema: Arc::new(schema),
    })
}

/// The select list's output, checked against the §2.2 rules, and its
/// schema.
fn plan_output(s: &Select, items: &[Item], joined: &Schema) -> Result<(Output, Schema)> {
    let project = |items: &[Item]| {
        items
            .iter()
            .map(|i| match i {
                Item::Scalar { expr, name } => {
                    Ok(ProjectItem::new(expr.bind(joined)?, name.clone()))
                }
                Item::Agg { .. } => Err(plan_err(
                    "select possible cannot be combined with aggregates",
                )),
            })
            .collect::<Result<Vec<_>>>()
    };
    let projected = |proj: &[ProjectItem]| {
        Schema::new(
            proj.iter()
                .map(|p| Field::new(p.name.clone(), p.expr.data_type(joined)))
                .collect(),
        )
    };
    if s.possible {
        let proj = project(items)?;
        return Ok((Output::Possible(proj.clone()), projected(&proj)));
    }
    let has_aggs = items.iter().any(|i| matches!(i, Item::Agg { .. }));
    let has_tconf = items.iter().any(|i| {
        matches!(
            i,
            Item::Agg {
                spec: AggSpec::TConf,
                ..
            }
        )
    });
    if has_tconf {
        if !s.group_by.is_empty() {
            return Err(plan_err(
                "tconf() computes per-tuple marginals and cannot be combined with GROUP BY",
            ));
        }
        if items
            .iter()
            .any(|i| matches!(i, Item::Agg { spec, .. } if !matches!(spec, AggSpec::TConf)))
        {
            return Err(plan_err("tconf() cannot be combined with other aggregates"));
        }
        // tconf() is per-tuple, not grouped: HAVING has no groups to
        // filter here, exactly as on the plain-projection path.
        if s.having.is_some() {
            return Err(plan_err(
                "HAVING requires GROUP BY or aggregates (tconf() is per-tuple)",
            ));
        }
        let (mut scalars, mut names, mut fields) = (Vec::new(), Vec::new(), Vec::new());
        for item in items {
            match item {
                Item::Scalar { expr, name } => {
                    let bound = expr.bind(joined)?;
                    fields.push(Field::new(name.clone(), bound.data_type(joined)));
                    scalars.push((bound, name.clone()));
                }
                Item::Agg { name, .. } => names.push(name.clone()),
            }
        }
        fields.extend(names.iter().map(|n| Field::new(n.clone(), DataType::Float)));
        let order = select_order(items);
        let schema = permuted(fields, &order);
        return Ok((
            Output::TConf {
                scalars,
                names,
                order,
            },
            schema,
        ));
    }
    if has_aggs || !s.group_by.is_empty() {
        let group_exprs: Vec<EExpr> = s
            .group_by
            .iter()
            .map(|e| Ok(scalar(e)?.bind(joined)?))
            .collect::<Result<_>>()?;
        return plan_group(group_exprs, items, joined, s.having.as_ref());
    }
    if s.having.is_some() {
        return Err(plan_err("HAVING requires GROUP BY or aggregates"));
    }
    let proj = project(items)?;
    if s.distinct {
        // DISTINCT is GROUP BY over the select list with no aggregates:
        // the projected rows are never materialised, and §2.2's "no
        // select distinct on uncertain relations" is the group breaker's
        // fold-time typing rule.
        let keys = proj.iter().map(|p| p.expr.clone()).collect();
        return plan_group(keys, items, joined, None);
    }
    let schema = projected(&proj);
    Ok((Output::Project(proj), schema))
}

/// The group breaker over `joined` rows: every scalar select item must
/// match a GROUP BY expression; the rows group on the selected keys first,
/// then any extra GROUP BY expressions (grouped but not output). HAVING
/// binds against the output schema (so aliases like `p` work) with the
/// same qualifier-stripping fallback ORDER BY gets: aggregate outputs lose
/// their qualifiers, but `GROUP BY r1.player … HAVING r1.player = 'X'` is
/// idiomatic SQL.
fn plan_group(
    group_exprs: Vec<EExpr>,
    items: &[Item],
    joined: &Schema,
    having: Option<&SExpr>,
) -> Result<(Output, Schema)> {
    let (mut key_fields, mut grouping, mut aggs) = (Vec::new(), Vec::new(), Vec::new());
    for item in items {
        match item {
            Item::Scalar { expr, name } => {
                let bound = expr.bind(joined)?;
                if !group_exprs.contains(&bound) {
                    return Err(plan_err(format!(
                        "select item `{name}` must appear in GROUP BY or be aggregated"
                    )));
                }
                key_fields.push(Field::new(name.clone(), bound.data_type(joined)));
                grouping.push(bound);
            }
            Item::Agg { spec, name } => aggs.push((bind_agg(spec, joined)?, name.clone())),
        }
    }
    if aggs.len() > 1
        && aggs
            .iter()
            .any(|(s, _)| matches!(s, AggSpec::ArgMax { .. }))
    {
        return Err(plan_err("argmax cannot be combined with other aggregates"));
    }
    let keys = grouping.len();
    for g in group_exprs {
        if !grouping.contains(&g) {
            grouping.push(g);
        }
    }
    let order = select_order(items);
    let fields = agg::output_schema(key_fields.clone(), &aggs, joined)
        .fields()
        .to_vec();
    let schema = permuted(fields, &order);
    let having = having
        .map(|h| bind_with_fallback(&scalar(h)?, &schema))
        .transpose()?;
    Ok((
        Output::Group {
            grouping,
            keys,
            key_fields,
            aggs,
            order,
            having,
        },
        schema,
    ))
}

/// Where each select item's column sits in the keys-then-aggregates row
/// the group breaker and `tconf` emit, or `None` when that is select
/// order already.
fn select_order(items: &[Item]) -> Option<Vec<usize>> {
    let mut next = [
        0,
        items
            .iter()
            .filter(|i| matches!(i, Item::Scalar { .. }))
            .count(),
    ];
    let order: Vec<usize> = items
        .iter()
        .map(|i| {
            let slot = &mut next[matches!(i, Item::Agg { .. }) as usize];
            *slot += 1;
            *slot - 1
        })
        .collect();
    (!order.iter().enumerate().all(|(i, &p)| i == p)).then_some(order)
}

/// `fields` in select order.
fn permuted(fields: Vec<Field>, order: &Option<Vec<usize>>) -> Schema {
    match order {
        Some(order) => Schema::new(order.iter().map(|&i| fields[i].clone()).collect()),
        None => Schema::new(fields),
    }
}

/// Bind the inner expressions of an aggregate spec.
fn bind_agg(spec: &AggSpec, schema: &Schema) -> Result<AggSpec> {
    Ok(match spec {
        AggSpec::ESum(e) => AggSpec::ESum(e.bind(schema)?),
        AggSpec::ECount(e) => AggSpec::ECount(e.as_ref().map(|x| x.bind(schema)).transpose()?),
        AggSpec::ArgMax { arg, value } => AggSpec::ArgMax {
            arg: arg.bind(schema)?,
            value: value.bind(schema)?,
        },
        AggSpec::Std { func, arg } => AggSpec::Std {
            func: *func,
            arg: arg.as_ref().map(|x| x.bind(schema)).transpose()?,
        },
        other => other.clone(),
    })
}

/// Expand wildcards and classify the select list. `from_order` lists
/// `schema`'s column positions in FROM order (see [`plan_joins`]), so `*`
/// and `q.*` follow the FROM clause, not the join order.
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
                    if f.qualifier
                        .as_deref()
                        .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                    {
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

/// Plan one FROM item into its leaves, appended to `leaves` in FROM
/// order. A `JOIN … ON` is its two sides' leaves plus its ON conjuncts
/// (appended to `conjuncts`).
fn plan_from_item(
    item: &FromItem,
    catalog: &BTreeMap<String, URelation>,
    leaves: &mut Vec<Leaf>,
    conjuncts: &mut Vec<SExpr>,
) -> Result<()> {
    // What the leaf reads, its schema, what it is, and the alias that
    // qualifies its columns.
    let (source, schema, what, alias): (Source, Arc<Schema>, &str, Option<&str>) = match item {
        FromItem::Table { name, alias } => {
            let (source, schema) = plan_input(&QueryInput::Table(name.clone()), catalog)?;
            (source, schema, name, Some(alias.as_deref().unwrap_or(name)))
        }
        FromItem::Subquery { query, alias } => {
            let (source, schema) = plan_subquery(query, catalog)?;
            (source, schema, "(subquery)", Some(alias))
        }
        FromItem::RepairKey {
            key,
            input,
            weight,
            alias,
        } => {
            let (input, schema) = plan_input(input, catalog)?;
            let key = key
                .iter()
                .map(|k| Ok(EExpr::col(k.clone()).bind(&schema)?))
                .collect::<Result<_>>()?;
            let weight = weight
                .as_ref()
                .map(|w| bind_scalar(w, &schema))
                .transpose()?;
            let source = Source::RepairKey {
                input: Box::new(input),
                key,
                weight,
            };
            (source, schema, "(repair key)", alias.as_deref())
        }
        FromItem::PickTuples {
            input,
            independently: _,
            probability,
            alias,
        } => {
            // `independently` is the only supported semantics (a
            // correlated choice among the 2^n subsets would be one
            // variable of exponential domain; see `maybms_urel::pick`);
            // the keyword is accepted in both spellings.
            let (input, schema) = plan_input(input, catalog)?;
            let probability = probability
                .as_ref()
                .map(|p| bind_scalar(p, &schema))
                .transpose()?;
            let source = Source::PickTuples {
                input: Box::new(input),
                probability,
            };
            (source, schema, "(pick tuples)", alias.as_deref())
        }
        FromItem::Join { left, right, on } => {
            plan_from_item(left, catalog, leaves, conjuncts)?;
            plan_from_item(right, catalog, leaves, conjuncts)?;
            split_conjuncts(on, conjuncts);
            return Ok(());
        }
    };
    let label = match alias {
        Some(a) if !a.eq_ignore_ascii_case(what) => format!("{what} {a}"),
        _ => what.to_string(),
    };
    let schema = match alias {
        Some(a) => Arc::new(schema.without_qualifiers().with_qualifier(a)),
        None => schema,
    };
    leaves.push(Leaf {
        label,
        source,
        schema,
        filters: Vec::new(),
    });
    Ok(())
}

/// The `<t-certain-query>` input of `repair key` / `pick tuples`.
fn plan_input(
    input: &QueryInput,
    catalog: &BTreeMap<String, URelation>,
) -> Result<(Source, Arc<Schema>)> {
    match input {
        QueryInput::Table(name) => {
            let table = stored_table(name, catalog)?;
            Ok((Source::Table(table.clone()), table.schema().clone()))
        }
        QueryInput::Select(q) => plan_subquery(q, catalog),
    }
}

fn plan_subquery(
    q: &Query,
    catalog: &BTreeMap<String, URelation>,
) -> Result<(Source, Arc<Schema>)> {
    let plan = plan_query(q, catalog)?;
    let schema = plan.schema.clone();
    Ok((Source::Query(Box::new(plan)), schema))
}

/// A stored table by (case-insensitive) name.
pub(crate) fn stored_table<'c>(
    name: &str,
    catalog: &'c BTreeMap<String, URelation>,
) -> Result<&'c URelation> {
    catalog.get(&name.to_ascii_lowercase()).ok_or_else(|| {
        crate::error::CoreError::Engine(maybms_engine::EngineError::TableNotFound {
            name: name.to_string(),
        })
    })
}

/// A scalar SQL expression bound to `schema`.
fn bind_scalar(e: &SExpr, schema: &Schema) -> Result<EExpr> {
    Ok(scalar(e)?.bind(schema)?)
}

/// The one join planner: order `leaves` (the block's FROM leaves, in FROM
/// order) into join steps under the conjunction of `predicates` (its ON
/// and WHERE conjuncts). Every join is inner, so conjuncts may move and be
/// copied:
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
/// 3. **Pushdown.** Single-leaf conjuncts, implied ones included, become
///    the leaf's σ stages (one that reads no column at all runs on the
///    first).
/// 4. **Greedy hash joins, composite keys.** The first equality conjunct
///    linking the joined prefix to a remaining leaf picks that leaf, and
///    *all* equality conjuncts between the two are the key lists of one
///    fused probe; with none, a cross product breaks the pipeline on both
///    sides. Other conjuncts filter once their columns are joined.
/// 5. **Build on the smaller side.** The picked leaf is collected; at the
///    first step, if the first leaf holds fewer rows than that yielded (an
///    upper bound on what its σ stages yield), the run builds the prefix
///    instead and streams the collected leaf through the probe. That
///    changes the unordered row order, hence `aconf` values at a fixed
///    seed, of the queries it fires on, so it is decided at run
///    ([`Join::adaptive`]); the joined row's layout is the same either way.
///
/// Returns the join steps, the joined row's schema, and its positions of
/// the FROM columns listed in FROM order (what `*` expands over) —
/// neither the greedy order nor the build side follows it.
fn plan_joins(
    leaves: &mut [Leaf],
    predicates: &[EExpr],
) -> Result<(Vec<Join>, Schema, Vec<usize>)> {
    // ---- resolve once --------------------------------------------------
    let mut fields = Vec::new();
    // Per FROM-schema column, the leaf it belongs to; per leaf, where its
    // columns start.
    let (mut source_of, mut starts) = (Vec::new(), Vec::new());
    for (k, leaf) in leaves.iter().enumerate() {
        starts.push(fields.len());
        fields.extend(leaf.schema.fields().iter().cloned());
        source_of.resize(fields.len(), k);
    }
    let whole = Schema::new(fields);
    let mut conjuncts: Vec<Filter> = predicates
        .iter()
        .map(|p| {
            Ok(Filter {
                pred: p.bind(&whole)?,
                implied: None,
            })
        })
        .collect::<Result<_>>()?;

    // ---- implied predicates --------------------------------------------
    // The same-typed join equalities.
    let links: Vec<(usize, usize)> = conjuncts
        .iter()
        .filter_map(|c| column_equality(&c.pred))
        .filter(|&(a, b)| {
            let dtype = whole.field(a).dtype;
            dtype == whole.field(b).dtype && dtype != DataType::Unknown
        })
        .collect();
    // A worklist: copies are restrictions too, so they travel on down
    // their class, each attributed to the equality that carried it.
    let mut next = 0;
    while let Some(col) = conjuncts
        .get(next)
        .map(|c| restricted_column(&c.pred, &whole))
    {
        for &(a, b) in &links {
            let to = if col == Some(a) {
                b
            } else if col == Some(b) {
                a
            } else {
                continue;
            };
            let copy = conjuncts[next].pred.remap_columns(&|_| to);
            if conjuncts.iter().all(|known| known.pred != copy) {
                conjuncts.push(Filter {
                    pred: copy,
                    implied: Some((a, b)),
                });
            }
        }
        next += 1;
    }

    // ---- pushdown ------------------------------------------------------
    for (k, leaf) in leaves.iter_mut().enumerate() {
        leaf.filters = take_ready(&mut conjuncts, &|g| {
            (source_of[g] == k).then(|| g - starts[k])
        });
    }

    // ---- greedy joins --------------------------------------------------
    // The joined row, and where each FROM-schema column sits in it once
    // its leaf is joined.
    let (mut joined, mut joined_at) = (Vec::new(), vec![None; whole.len()]);
    let place = |k: usize, joined: &mut Vec<Field>, joined_at: &mut [Option<usize>]| {
        for g in (0..whole.len()).filter(|&g| source_of[g] == k) {
            joined_at[g] = Some(joined.len());
            joined.push(whole.field(g).clone());
        }
    };
    // A `col = col` conjunct between the prefix and an unjoined column:
    // the former's position and the latter.
    let link = |c: &Filter, joined_at: &[Option<usize>]| {
        let (a, b) = column_equality(&c.pred)?;
        match (joined_at[a], joined_at[b]) {
            (Some(at), None) => Some((at, b)),
            (None, Some(at)) => Some((at, a)),
            _ => None,
        }
    };
    place(0, &mut joined, &mut joined_at);
    let mut remaining: Vec<usize> = (1..leaves.len()).collect();
    let mut joins: Vec<Join> = Vec::new();
    while let Some(&in_from_order) = remaining.first() {
        // The first equality conjunct linking the prefix to a remaining
        // leaf picks that leaf, and every equality conjunct between the
        // two is a key of the one probe.
        let picked = conjuncts
            .iter()
            .find_map(|c| link(c, &joined_at))
            .map(|(_, g)| source_of[g]);
        let k = picked.unwrap_or(in_from_order);
        remaining.retain(|&r| r != k);
        let (mut prefix_keys, mut leaf_keys) = (Vec::new(), Vec::new());
        conjuncts.retain(|c| match link(c, &joined_at) {
            Some((at, g)) if source_of[g] == k => {
                prefix_keys.push(at);
                leaf_keys.push(g - starts[k]);
                false
            }
            _ => true,
        });
        let adaptive = joins.is_empty()
            && !prefix_keys.is_empty()
            && !matches!((leaves[0].source.rows(), leaves[k].source.rows()), (Some(p), Some(n)) if p >= n);
        place(k, &mut joined, &mut joined_at);
        // Apply every conjunct whose columns are all joined now.
        let then = take_ready(&mut conjuncts, &|g| joined_at[g]);
        joins.push(Join {
            leaf: k,
            prefix_keys,
            leaf_keys,
            adaptive,
            then,
        });
    }
    let from_order = joined_at
        .into_iter()
        .map(|at| at.expect("every leaf joined"))
        .collect();
    Ok((joins, Schema::new(joined), from_order))
}

/// Move every conjunct whose columns all have a position under `at` out
/// of `conjuncts`, rebound to those positions.
fn take_ready(conjuncts: &mut Vec<Filter>, at: &dyn Fn(usize) -> Option<usize>) -> Vec<Filter> {
    let (ready, kept): (Vec<Filter>, Vec<Filter>) =
        std::mem::take(conjuncts).into_iter().partition(|c| {
            let mut cols = Vec::new();
            c.pred.referenced_columns(&mut cols);
            cols.iter().all(|&g| at(g).is_some())
        });
    *conjuncts = kept;
    let pred = |c: &Filter| c.pred.remap_columns(&|g| at(g).expect("checked above"));
    ready
        .into_iter()
        .map(|c| Filter {
            pred: pred(&c),
            implied: c.implied,
        })
        .collect()
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
        EExpr::Column { name, .. } => EExpr::Column {
            qualifier: None,
            name: name.clone(),
        },
        EExpr::ColumnIdx(i) => EExpr::ColumnIdx(*i),
        EExpr::Literal(v) => EExpr::Literal(v.clone()),
        EExpr::Binary { left, op, right } => EExpr::Binary {
            left: Box::new(strip_qualifiers(left)),
            op: *op,
            right: Box::new(strip_qualifiers(right)),
        },
        EExpr::Unary { op, expr } => EExpr::Unary {
            op: *op,
            expr: Box::new(strip_qualifiers(expr)),
        },
        EExpr::IsNull { expr, negated } => EExpr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        EExpr::InList {
            expr,
            list,
            negated,
        } => EExpr::InList {
            expr: Box::new(strip_qualifiers(expr)),
            list: list.iter().map(strip_qualifiers).collect(),
            negated: *negated,
        },
        EExpr::Case {
            branches,
            else_expr,
        } => EExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (strip_qualifiers(c), strip_qualifiers(r)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(strip_qualifiers(x))),
        },
        EExpr::Cast { expr, dtype } => EExpr::Cast {
            expr: Box::new(strip_qualifiers(expr)),
            dtype: *dtype,
        },
    }
}

/// Split an expression into top-level AND conjuncts.
pub(crate) fn split_conjuncts(e: &SExpr, out: &mut Vec<SExpr>) {
    if let SExpr::Binary {
        left,
        op: maybms_sql::BinOp::And,
        right,
    } = e
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// The two columns of a bound `col = col` predicate.
fn column_equality(e: &EExpr) -> Option<(usize, usize)> {
    match e {
        EExpr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => match (&**left, &**right) {
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
/// values are, see `db::check_types`) or NULL. Such a predicate holds
/// for one column of a join-equality class iff it holds for them all.
fn restricted_column(e: &EExpr, schema: &Schema) -> Option<usize> {
    use BinaryOp::{Eq, Gt, GtEq, Lt, LtEq};
    let (col, literals) = match e {
        EExpr::Binary {
            left,
            op: Eq | Lt | LtEq | Gt | GtEq,
            right,
        } => match (&**left, &**right) {
            (EExpr::ColumnIdx(c), lit) | (lit, EExpr::ColumnIdx(c)) => {
                (*c, std::slice::from_ref(lit))
            }
            _ => return None,
        },
        EExpr::InList {
            expr,
            list,
            negated: false,
        } => match &**expr {
            EExpr::ColumnIdx(c) => (*c, &list[..]),
            _ => return None,
        },
        _ => return None,
    };
    let dtype = schema.field(col).dtype;
    let fits =
        |lit: &EExpr| matches!(lit, EExpr::Literal(v) if v.data_type().unify(dtype).is_some());
    (dtype != DataType::Unknown && literals.iter().all(fits)).then_some(col)
}

impl QueryPlan {
    /// The `EXPLAIN` text: every pipeline and breaker a run of this plan
    /// executes, in order, with its stages. The stages are laid over empty
    /// inputs; nothing runs. Given the `steps` a run of the plan recorded,
    /// the same walk is `EXPLAIN ANALYZE`'s: each line ends with what its
    /// step measured, and every step is laid over exactly one line.
    pub fn explain(&self, steps: Option<&[Step]>) -> Result<String> {
        let mut explain = Explain {
            text: String::new(),
            pipelines: 0,
            steps,
            next: 0,
        };
        explain.query(self)?;
        debug_assert!(
            steps.is_none_or(|s| explain.next == s.len()),
            "the walk left recorded steps unused: {:?}",
            &steps.unwrap_or_default()[explain.next..]
        );
        Ok(explain.text)
    }
}

/// What a pipeline reads: stored rows, or rows the run materialises
/// (`EXPLAIN ANALYZE` says how many there were).
enum Input {
    Stored(usize),
    Run(String),
}

/// When the dedup of a `UNION`'s or an IN-subquery's rows runs.
const IF_CERTAIN: &str = " if t-certain (decided at run)";

/// Why a pipeline feeding the group breaker breaks.
fn stream_label(keys: usize, aggs: usize) -> String {
    match aggs {
        0 => format!("distinct (streaming, {keys} keys)"),
        _ => format!("grouped aggregation (streaming, {keys} keys, {aggs} aggs)"),
    }
}

/// The `EXPLAIN` walk over a plan, in run order — the one place a plan
/// becomes text. With a run's recorded steps (`EXPLAIN ANALYZE`), each
/// pipeline and breaker of the walk takes the next one.
struct Explain<'s> {
    text: String,
    pipelines: usize,
    steps: Option<&'s [Step]>,
    /// The next recorded step to lay over the walk.
    next: usize,
}

impl<'s> Explain<'s> {
    /// The next recorded step, as `pick` reads it — `None` when there are
    /// no steps (`EXPLAIN`), or when the run did not record what the walk
    /// reached (a debug build fails).
    fn take<T>(&mut self, pick: impl Fn(&'s Step) -> Option<T>) -> Option<T> {
        let steps = self.steps?;
        let got = steps.get(self.next).and_then(pick);
        debug_assert!(
            got.is_some(),
            "the walk and the run disagree at recorded step {}: {steps:?}",
            self.next
        );
        self.next += usize::from(got.is_some());
        got
    }

    /// Whether the run recorded `marker` `ahead` steps from the next one.
    fn recorded(&self, ahead: usize, marker: fn(&Step) -> bool) -> bool {
        let step = self.steps.and_then(|s| s.get(self.next + ahead));
        step.is_some_and(marker)
    }

    /// The next pipeline: why it breaks, under what condition it runs at
    /// all (`when`; only a dedup is conditional), what it reads and its
    /// stages.
    fn pipeline(&mut self, label: &str, when: &str, source: &Input, stream: &UStream) {
        self.pipelines += 1;
        let _ = write!(self.text, "#{} pipeline ({label}){when}", self.pipelines);
        let skipped = !when.is_empty() && self.recorded(0, |s| matches!(s, Step::DedupSkipped));
        let rec: Option<&PipelineStats> = match skipped {
            true => {
                self.next += 1;
                self.text.push_str(" [not run]");
                None
            }
            false => self.take(|s| match s {
                Step::Pipeline(p) => Some(&**p),
                _ => None,
            }),
        };
        match rec {
            Some(p) if p.stages.is_empty() && p.morsels.get() == 0 => {
                self.text.push_str(" [source passthrough]")
            }
            Some(p) => {
                let ms = p.wall_nanos.get() as f64 / 1e6;
                let _ = write!(self.text, " [{ms:.3} ms, {} morsel(s)]", p.morsels.get());
            }
            None => {}
        }
        let _ = match source {
            Input::Stored(rows) => write!(self.text, "\n     source: {}", source_label(*rows)),
            Input::Run(what) => write!(self.text, "\n     source: {what}"),
        };
        let _ = match (source, rec) {
            (Input::Stored(_), Some(p)) if p.zones.get() > 0 => write!(
                self.text,
                " [zones read {} of {}]",
                p.zones_read.get(),
                p.zones.get()
            ),
            (Input::Run(_), Some(p)) => write!(self.text, " [{} rows]", p.source_rows),
            _ => Ok(()),
        };
        self.text.push('\n');
        let (labels, widths) = (stream.stage_labels(), stream.stage_widths());
        debug_assert!(
            rec.is_none_or(|p| p.stages.len() == labels.len()),
            "a run of `{label}` recorded other stages than {labels:?}"
        );
        for (k, stage) in labels.iter().enumerate() {
            let probe = stage.starts_with("hash probe");
            let wsd = match probe {
                true => " (WSD conjunction)",
                false => "",
            };
            let _ = write!(self.text, "     -> {stage}{wsd}");
            if let Some(st) = rec.and_then(|p| p.stages.get(k)) {
                let (rows_in, rows_out) = (st.rows_in.get(), st.rows_out.get());
                let _ = write!(self.text, " [in {rows_in}, out {rows_out}");
                if probe {
                    let (build, gathered) = (st.build_rows.get(), st.gathered.get());
                    let _ = write!(
                        self.text,
                        ", build {build}, gathered {gathered} of {}",
                        widths[k]
                    );
                }
                self.text.push(']');
            }
            self.text.push('\n');
        }
        if let Some(p) = rec.filter(|p| p.groups.get() > 0) {
            let _ = writeln!(self.text, "     groups: {}", p.groups.get());
        }
    }

    /// A stage-less pipeline over `schema`-shaped rows: a dedup (`when`
    /// they are t-certain) or DISTINCT.
    fn distinct(&mut self, schema: &Arc<Schema>, when: &str, source: &str) {
        let stream = UStream::new(URelation::empty(schema.clone()));
        let label = stream_label(schema.len(), 0);
        self.pipeline(&label, when, &Input::Run(source.into()), &stream);
    }

    /// The next breaker.
    fn breaker(&mut self, what: &str) {
        let _ = write!(self.text, "breaker: {what}");
        if let Some((rows_in, rows_out)) = self.take(|s| match s {
            Step::Breaker(rows_in, rows_out) => Some((*rows_in, *rows_out)),
            _ => None,
        }) {
            let _ = write!(self.text, " [in {rows_in}, out {rows_out}]");
        }
        self.text.push('\n');
    }

    fn query(&mut self, q: &QueryPlan) -> Result<()> {
        self.block(&q.first)?;
        for (all, block) in &q.rest {
            self.block(block)?;
            self.breaker("union (all)");
            if !all {
                self.distinct(&q.schema, IF_CERTAIN, "the union");
            }
        }
        if !q.sort.is_empty() {
            let keys = q.sort.len();
            self.breaker(&match q.limit {
                Some(n) => format!("sort ({keys} keys, top {n})"),
                None => format!("sort ({keys} keys)"),
            });
        }
        if let Some(n) = q.limit {
            self.breaker(&format!("limit {n}"));
        }
        Ok(())
    }

    fn block(&mut self, b: &Block) -> Result<()> {
        // The queries the leaves read run first.
        for leaf in &b.leaves {
            let mut source = &leaf.source;
            while let Source::RepairKey { input, .. } | Source::PickTuples { input, .. } = source {
                source = input;
            }
            if let Source::Query(q) = source {
                self.query(q)?;
            }
        }
        // The block's FROM row, which names an implied filter's columns.
        let from_row = Schema::new(
            b.leaves
                .iter()
                .flat_map(|l| l.schema.fields().iter().cloned())
                .collect(),
        );
        let leaf_stream =
            |leaf: &Leaf| noted(UStream::new(leaf.explain_rows()), &leaf.filters, &from_row);
        let empty = |schema: &Arc<Schema>| URelation::empty(schema.clone());
        let first = &b.leaves[0];
        let (mut stream, mut source) = (leaf_stream(first)?, first.input());
        for (i, join) in b.joins.iter().enumerate() {
            let leaf = &b.leaves[join.leaf];
            let input = leaf_stream(leaf)?;
            stream = if join.prefix_keys.is_empty() {
                self.pipeline("cross product input", "", &source, &stream);
                self.pipeline("cross product input", "", &leaf.input(), &input);
                self.breaker("cross");
                source = Input::Run("the cross product".into());
                UStream::new(empty(&Arc::new(stream.schema().join(&leaf.schema))))
            } else {
                // A run that built on the prefix streamed the leaf through
                // the probe instead (recorded after the leaf's pipeline).
                if join.adaptive && self.recorded(1, |s| matches!(s, Step::BuiltOnPrefix)) {
                    self.pipeline("hash-join probe side", "", &leaf.input(), &input);
                    self.take(|s| matches!(s, Step::BuiltOnPrefix).then_some(()));
                    self.pipeline("hash-join build side", "", &source, &stream);
                    source = Input::Run("the hash-join probe side".into());
                    stream = UStream::new(empty(stream.schema()));
                } else {
                    self.pipeline("hash-join build side", "", &leaf.input(), &input);
                }
                let prefix = match first.source.rows() {
                    Some(rows) => format!("{}: at most {rows}", first.label),
                    None => first.label.clone(),
                };
                let why = match (join.adaptive, i) {
                    (true, _) => format!(
                        "build: smaller of {} and {prefix}, decided at run",
                        leaf.label
                    ),
                    (false, 0) => format!("build: {} (probe side {prefix})", leaf.label),
                    _ => format!("build: {} (probe side the joined prefix)", leaf.label),
                };
                let build = empty(input.schema());
                stream
                    .hash_join(build, &join.prefix_keys, &join.leaf_keys)?
                    .annotate(why)
            };
            stream = noted(stream, &join.then, &from_row)?;
        }
        for probe in &b.in_probes {
            self.query(&probe.query)?;
            self.distinct(&probe.query.schema, IF_CERTAIN, "the subquery");
            stream = probe.stages(stream, empty(&probe.query.schema))?;
        }
        let (label, last) = match &b.output {
            Output::Project(items) => ("output".to_string(), stream.project(items)?),
            Output::Possible(items) => (
                "select possible breaker".to_string(),
                stream.project(items)?,
            ),
            Output::TConf { .. } => ("tconf breaker".to_string(), stream),
            Output::Group { grouping, aggs, .. } => {
                (stream_label(grouping.len(), aggs.len()), stream)
            }
        };
        self.pipeline(&label, "", &source, &last);
        if let Output::Possible(_) = &b.output {
            self.distinct(&b.schema, "", "the possible rows");
        }
        if let Output::Group {
            having: Some(h), ..
        } = &b.output
        {
            let groups = UStream::new(empty(&b.schema)).filter(h)?;
            self.pipeline("having", "", &Input::Run("the groups".into()), &groups);
        }
        if b.distinct {
            self.distinct(&b.schema, "", "the block's rows");
        }
        Ok(())
    }
}

/// `filters` as σ stages on `stream`, as [`filter`] lays them, with the
/// stage of each implied one noting the equality of `from_row` columns
/// that carried it there.
fn noted(mut stream: UStream, filters: &[Filter], from_row: &Schema) -> Result<UStream> {
    for f in filters {
        let before = stream.stage_count();
        stream = stream.filter(&f.pred)?;
        if let Some((a, b)) = f.implied.filter(|_| stream.stage_count() > before) {
            let name = |g: usize| from_row.field(g).qualified_name();
            stream = stream.annotate(format!("implied by {} = {}", name(a), name(b)));
        }
    }
    Ok(stream)
}
