//! Pipeline decomposition and morsel-driven execution of engine
//! [`PhysicalPlan`]s.
//!
//! [`decompose`] splits a plan into pipelines at breakers; [`execute`]
//! runs the decomposition, streaming every pipeline morsel-by-morsel on
//! the `maybms-par` pool. The output is **bit-identical** to
//! [`PhysicalPlan::execute`] — same schema, same tuples, same order — at
//! any thread count: fused stages preserve row order within a morsel and
//! morsel outputs are concatenated in morsel order, while breakers reuse
//! the materialising operators unchanged.

use std::fmt::Write as _;
use std::sync::Arc;

use maybms_engine::error::{EngineError, Result};
use maybms_engine::expr::Expr;
use maybms_engine::ops::{self, AggCall, ProjectItem, SortKey};
use maybms_engine::tuple::{Relation, Tuple};
use maybms_engine::types::Value;
use maybms_engine::{optimizer, vector, Catalog, PhysicalPlan, Schema};
use maybms_par::ThreadPool;

use crate::fuse::{self, FusedOutput, Stage};

/// A plan decomposed into pipelines: every node is one pipeline — a
/// source feeding a chain of fused stages. Breakers appear as pipeline
/// sources, each holding its own input pipeline(s).
#[derive(Debug, Clone)]
pub struct PipePlan {
    /// The pipeline's source.
    pub source: Source,
    /// Fused stages, applied in order to every source row.
    pub stages: Vec<StageSpec>,
}

/// Where a pipeline's rows come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A catalog table scan (optionally re-qualified).
    Scan {
        /// Table name.
        table: String,
        /// Optional alias qualifier.
        alias: Option<String>,
    },
    /// Literal rows.
    Values {
        /// Output schema.
        schema: Arc<Schema>,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// A full-materialisation operator: its input pipelines run to
    /// completion before this pipeline starts.
    Breaker(Box<Breaker>),
}

/// The pipeline-breaking operators (must see all input before emitting).
#[derive(Debug, Clone)]
pub enum Breaker {
    /// Duplicate elimination.
    Distinct {
        /// Input pipeline.
        input: PipePlan,
    },
    /// ORDER BY.
    Sort {
        /// Input pipeline.
        input: PipePlan,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// LIMIT.
    Limit {
        /// Input pipeline.
        input: PipePlan,
        /// Row cap.
        n: usize,
    },
    /// GROUP BY + aggregates.
    Aggregate {
        /// Input pipeline.
        input: PipePlan,
        /// Group key expressions.
        group_exprs: Vec<Expr>,
        /// Output names for the group keys.
        group_names: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// Bag union.
    UnionAll {
        /// Input pipelines.
        inputs: Vec<PipePlan>,
    },
    /// Inner join with an arbitrary predicate — no hash probe to fuse.
    NestedLoopJoin {
        /// Left input pipeline.
        left: PipePlan,
        /// Right input pipeline.
        right: PipePlan,
        /// Join predicate.
        predicate: Option<Expr>,
    },
}

/// One fused stage.
#[derive(Debug, Clone)]
pub enum StageSpec {
    /// σ — drop rows failing the predicate.
    Filter {
        /// Predicate over the incoming row shape.
        predicate: Expr,
    },
    /// π — compute a new row per incoming row.
    Project {
        /// Output columns.
        items: Vec<ProjectItem>,
    },
    /// Hash-join probe: the incoming (left) row probes the build table
    /// over the materialised right input, emitting `left ++ right` per
    /// verified candidate — the same convention as `ops::hash_join`.
    Probe {
        /// The build-side pipeline (a breaker: fully materialised first,
        /// then hashed morsel-locally).
        build: PipePlan,
        /// Key columns in the incoming row.
        left_keys: Vec<usize>,
        /// Key columns in the build rows.
        right_keys: Vec<usize>,
    },
}

/// Decompose a physical plan into pipelines split at breakers.
/// `Filter`/`Project`/`HashJoin`-probe chains fuse into the pipeline of
/// their input; everything else starts a fresh pipeline.
pub fn decompose(plan: &PhysicalPlan) -> PipePlan {
    match plan {
        PhysicalPlan::Scan { table, alias } => PipePlan {
            source: Source::Scan { table: table.clone(), alias: alias.clone() },
            stages: Vec::new(),
        },
        PhysicalPlan::Values { schema, rows } => PipePlan {
            source: Source::Values { schema: schema.clone(), rows: rows.clone() },
            stages: Vec::new(),
        },
        PhysicalPlan::Filter { input, predicate } => {
            let mut p = decompose(input);
            p.stages.push(StageSpec::Filter { predicate: predicate.clone() });
            p
        }
        PhysicalPlan::Project { input, items } => {
            let mut p = decompose(input);
            p.stages.push(StageSpec::Project { items: items.clone() });
            p
        }
        PhysicalPlan::HashJoin { left, right, left_keys, right_keys } => {
            let mut p = decompose(left);
            p.stages.push(StageSpec::Probe {
                build: decompose(right),
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
            });
            p
        }
        PhysicalPlan::Distinct { input } => {
            breaker(Breaker::Distinct { input: decompose(input) })
        }
        PhysicalPlan::Sort { input, keys } => {
            breaker(Breaker::Sort { input: decompose(input), keys: keys.clone() })
        }
        PhysicalPlan::Limit { input, n } => {
            breaker(Breaker::Limit { input: decompose(input), n: *n })
        }
        PhysicalPlan::Aggregate { input, group_exprs, group_names, aggs } => {
            breaker(Breaker::Aggregate {
                input: decompose(input),
                group_exprs: group_exprs.clone(),
                group_names: group_names.clone(),
                aggs: aggs.clone(),
            })
        }
        PhysicalPlan::UnionAll { inputs } => {
            breaker(Breaker::UnionAll { inputs: inputs.iter().map(decompose).collect() })
        }
        PhysicalPlan::NestedLoopJoin { left, right, predicate } => {
            breaker(Breaker::NestedLoopJoin {
                left: decompose(left),
                right: decompose(right),
                predicate: predicate.clone(),
            })
        }
    }
}

fn breaker(b: Breaker) -> PipePlan {
    PipePlan { source: Source::Breaker(Box::new(b)), stages: Vec::new() }
}

/// Execute a plan through the pipelined executor on the process-wide
/// pool. Output is bit-identical to [`PhysicalPlan::execute`].
pub fn execute(plan: &PhysicalPlan, catalog: &Catalog) -> Result<Relation> {
    let pool = maybms_par::pool();
    execute_with(plan, catalog, &pool, ops::PAR_MIN_CHUNK)
}

/// [`execute`] on an explicit pool with an explicit minimum morsel size
/// (what the 1/2/8-thread determinism property tests pin). Columnar
/// execution follows [`crate::columnar_default`].
pub fn execute_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    pool: &ThreadPool,
    min_morsel: usize,
) -> Result<Relation> {
    execute_opts(plan, catalog, pool, min_morsel, crate::columnar_default())
}

/// [`execute_with`] with the columnar path pinned explicitly — what the
/// columnar ≡ row equivalence tests and the three-way benchmarks use.
pub fn execute_opts(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    pool: &ThreadPool,
    min_morsel: usize,
    columnar: bool,
) -> Result<Relation> {
    let pipe = decompose(plan);
    run(&pipe, catalog, pool, min_morsel, columnar)
}

/// Run one pipeline (recursively running breaker inputs and build
/// sides), binding the stage chain and handing it to the shared fused
/// executor ([`fuse::run`]).
fn run(
    pipe: &PipePlan,
    catalog: &Catalog,
    pool: &ThreadPool,
    min_morsel: usize,
    columnar: bool,
) -> Result<Relation> {
    let source = run_source(&pipe.source, catalog, pool, min_morsel, columnar)?;
    if pipe.stages.is_empty() {
        return Ok(source);
    }
    let mut span = maybms_obs::trace::span("pipeline");
    span.attr("stages", pipe.stages.len());
    span.attr("source_rows", source.len());
    let (bound, schema, const_empty) =
        bind_stages(&pipe.stages, source.schema().clone(), catalog, pool, min_morsel, columnar)?;
    if const_empty {
        return Ok(Relation::empty(schema));
    }
    let out = match fuse::run(&source, &bound, pool, min_morsel, columnar, None)? {
        // All-filter pipeline: gather shares rows with the source,
        // exactly like a chain of materialising filters would.
        FusedOutput::Select(sel) => source.gather(&sel),
        FusedOutput::Rows(tuples, _) => Relation::new_unchecked(schema, tuples),
    };
    span.attr("rows_out", out.len());
    Ok(out)
}

/// Bind a stage chain against the evolving row schema, recursively
/// running probe build sides, **constant-folding every stage expression
/// at bind time** (fewer nodes reaching both evaluation and the
/// kernel-eligibility check). A predicate folding to `true` drops its
/// stage; one folding to `false`/`NULL` short-circuits the whole chain
/// to an empty output — but only when every stage bound so far is
/// infallible, so a runtime error a fused σ/π would have raised is
/// never swallowed. Returns the bound stages, the chain's output
/// schema, and whether the chain is constantly empty.
fn bind_stages(
    stages: &[StageSpec],
    mut schema: Arc<Schema>,
    catalog: &Catalog,
    pool: &ThreadPool,
    min_morsel: usize,
    columnar: bool,
) -> Result<(Vec<Stage<Relation>>, Arc<Schema>, bool)> {
    let mut bound: Vec<Stage<Relation>> = Vec::with_capacity(stages.len());
    let mut const_empty = false;
    for stage in stages {
        match stage {
            StageSpec::Filter { predicate } => {
                let p = optimizer::fold(predicate.bind(&schema)?);
                match &p {
                    Expr::Literal(Value::Bool(true)) => {} // σ_true: no stage
                    Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null)
                        if fuse::stages_infallible(&bound) =>
                    {
                        const_empty = true;
                        bound.push(Stage::Filter(p));
                    }
                    _ => bound.push(Stage::Filter(p)),
                }
            }
            StageSpec::Project { items } => {
                let mut exprs = Vec::with_capacity(items.len());
                let mut fields = Vec::with_capacity(items.len());
                for item in items {
                    let e = item.expr.bind(&schema)?;
                    // Field type from the unfolded expression, so the
                    // output schema matches the materialising path.
                    fields.push(maybms_engine::Field::new(
                        item.name.clone(),
                        e.data_type(&schema),
                    ));
                    exprs.push(optimizer::fold(e));
                }
                schema = Arc::new(Schema::new(fields));
                bound.push(Stage::Project(exprs));
            }
            StageSpec::Probe { build, left_keys, right_keys } => {
                let build_rel = run(build, catalog, pool, min_morsel, columnar)?;
                validate_probe_keys(&schema, build_rel.schema(), left_keys, right_keys)?;
                schema = Arc::new(schema.join(build_rel.schema()));
                bound.push(Stage::Probe {
                    build: build_rel,
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                });
            }
        }
    }
    Ok((bound, schema, const_empty))
}

/// The streaming grouped-aggregation breaker: runs the input pipeline's
/// fused stage chain with a morsel-local [`crate::GroupTable`] of
/// [`ops::AggState`]s as the sink — the input is never materialised.
/// Output is bit-identical to materialising the input and calling
/// [`ops::aggregate`] on it, at any thread count and morsel size.
#[allow(clippy::too_many_arguments)]
fn run_grouped_aggregate(
    input: &PipePlan,
    group_exprs: &[Expr],
    group_names: &[String],
    aggs: &[AggCall],
    catalog: &Catalog,
    pool: &ThreadPool,
    min_morsel: usize,
    columnar: bool,
) -> Result<Relation> {
    let source = run_source(&input.source, catalog, pool, min_morsel, columnar)?;
    let (stages, in_schema, const_empty) = bind_stages(
        &input.stages,
        source.schema().clone(),
        catalog,
        pool,
        min_morsel,
        columnar,
    )?;
    let out_schema = ops::aggregate_schema(&in_schema, group_exprs, group_names, aggs)?;
    let bound_aggs = ops::bind_agg_calls(&in_schema, aggs)?;
    let bound_keys: Vec<Expr> = group_exprs
        .iter()
        .map(|e| Ok(optimizer::fold(e.bind(&in_schema)?)))
        .collect::<Result<_>>()?;
    // A constantly-empty input still aggregates (a global group must
    // appear for GROUP-BY-less aggregates): fold over no rows at all.
    let empty_source;
    let (source, stages): (&Relation, &[Stage<Relation>]) = if const_empty {
        empty_source = Relation::empty(in_schema.clone());
        (&empty_source, &[])
    } else {
        (&source, stages.as_slice())
    };
    let (keys, states) = crate::groupby::group_stream(
        source,
        stages,
        &bound_keys,
        pool,
        min_morsel,
        columnar,
        None,
        || ops::new_agg_states(&bound_aggs),
        |states: &mut Vec<ops::AggState>, row: &[maybms_engine::Value], _: &()| {
            ops::fold_agg_row(states, &bound_aggs, row)
        },
        |a: &mut Vec<ops::AggState>, b| ops::merge_agg_states(a, b),
    )?;
    let mut out = Vec::with_capacity(keys.len());
    for (key, sts) in keys.into_iter().zip(states) {
        let mut row = key;
        for st in &sts {
            row.push(st.finish()?);
        }
        out.push(Tuple::new(row));
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

/// Materialise a pipeline source.
fn run_source(
    source: &Source,
    catalog: &Catalog,
    pool: &ThreadPool,
    min_morsel: usize,
    columnar: bool,
) -> Result<Relation> {
    match source {
        Source::Scan { table, alias } => {
            let r = catalog.get(table)?.clone();
            match alias {
                None => Ok(r),
                Some(a) => {
                    let qualified = Arc::new(r.schema().with_qualifier(a));
                    r.with_schema(qualified)
                }
            }
        }
        Source::Values { schema, rows } => Relation::new(schema.clone(), rows.clone()),
        Source::Breaker(b) => {
            let kind = match &**b {
                Breaker::Distinct { .. } => "distinct",
                Breaker::Sort { .. } => "sort",
                Breaker::Limit { .. } => "limit",
                Breaker::Aggregate { .. } => "aggregate",
                Breaker::UnionAll { .. } => "union_all",
                Breaker::NestedLoopJoin { .. } => "nested_loop_join",
            };
            let mut span = maybms_obs::trace::span("breaker");
            span.attr("kind", kind);
            let out = match &**b {
                Breaker::Distinct { input } => {
                    Ok(ops::distinct(&run(input, catalog, pool, min_morsel, columnar)?))
                }
                Breaker::Sort { input, keys } => {
                    ops::sort(&run(input, catalog, pool, min_morsel, columnar)?, keys)
                }
                Breaker::Limit { input, n } => {
                    Ok(ops::limit(&run(input, catalog, pool, min_morsel, columnar)?, *n))
                }
                Breaker::Aggregate { input, group_exprs, group_names, aggs } => {
                    run_grouped_aggregate(
                        input, group_exprs, group_names, aggs, catalog, pool, min_morsel,
                        columnar,
                    )
                }
                Breaker::UnionAll { inputs } => {
                    if inputs.is_empty() {
                        return Err(EngineError::InvalidOperator {
                            message: "UNION of zero inputs".into(),
                        });
                    }
                    let rels: Vec<Relation> = inputs
                        .iter()
                        .map(|p| run(p, catalog, pool, min_morsel, columnar))
                        .collect::<Result<_>>()?;
                    let refs: Vec<&Relation> = rels.iter().collect();
                    ops::union_all(&refs)
                }
                Breaker::NestedLoopJoin { left, right, predicate } => {
                    ops::nested_loop_join(
                        &run(left, catalog, pool, min_morsel, columnar)?,
                        &run(right, catalog, pool, min_morsel, columnar)?,
                        predicate.as_ref(),
                    )
                }
            };
            if let Ok(rel) = &out {
                span.attr("rows_out", rel.len());
            }
            out
        }
    }
}

fn validate_probe_keys(
    left: &Schema,
    right: &Schema,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<()> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(EngineError::InvalidOperator {
            message: "hash join requires matching, non-empty key lists".into(),
        });
    }
    if let Some(&k) = left_keys.iter().find(|&&k| k >= left.len()) {
        return Err(EngineError::InvalidOperator {
            message: format!("left key #{k} out of range"),
        });
    }
    if let Some(&k) = right_keys.iter().find(|&&k| k >= right.len()) {
        return Err(EngineError::InvalidOperator {
            message: format!("right key #{k} out of range"),
        });
    }
    Ok(())
}

/// Render a plan's pipeline decomposition as indented text — what
/// `EXPLAIN` prints for the certain path. Breakers open new pipelines;
/// fused stages are listed under their pipeline's source.
pub fn explain(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    describe(&decompose(plan), 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// How many leading stages the columnar planner would vectorise (the
/// per-stage plan-time decision `EXPLAIN` reports; 0 when the columnar
/// path is disabled).
fn spec_vector_prefix(stages: &[StageSpec]) -> usize {
    if !crate::columnar_default() {
        return 0;
    }
    stages
        .iter()
        .take_while(|s| match s {
            StageSpec::Filter { predicate } => vector::vectorisable(predicate),
            StageSpec::Project { items } => {
                items.iter().all(|i| vector::vectorisable(&i.expr))
            }
            StageSpec::Probe { .. } => false,
        })
        .count()
}

fn describe(pipe: &PipePlan, depth: usize, out: &mut String) {
    indent(out, depth);
    out.push_str("pipeline\n");
    describe_source(&pipe.source, depth + 1, out);
    let vectorised = spec_vector_prefix(&pipe.stages);
    for (k, stage) in pipe.stages.iter().enumerate() {
        let vec_mark = if k < vectorised { " (vectorised)" } else { "" };
        match stage {
            StageSpec::Filter { predicate } => {
                indent(out, depth + 1);
                let _ = writeln!(out, "-> filter {predicate}{vec_mark}");
            }
            StageSpec::Project { items } => {
                indent(out, depth + 1);
                let names: Vec<String> =
                    items.iter().map(|i| format!("{} as {}", i.expr, i.name)).collect();
                let _ = writeln!(out, "-> project [{}]{vec_mark}", names.join(", "));
            }
            StageSpec::Probe { build, left_keys, right_keys } => {
                indent(out, depth + 1);
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("#{l} = build #{r}"))
                    .collect();
                let _ = writeln!(out, "-> hash probe [{}], build side:", keys.join(", "));
                describe(build, depth + 2, out);
            }
        }
    }
}

fn describe_source(source: &Source, depth: usize, out: &mut String) {
    match source {
        Source::Scan { table, alias } => {
            indent(out, depth);
            // Catalog tables are installed column-major at rest: the scan
            // hands kernel prefixes column slices and never pivots
            // (`maybms_pipe_pivots_total` stays flat across the query).
            let mark = " (columnar, zero-pivot)";
            match alias {
                Some(a) => {
                    let _ = writeln!(out, "source: scan {table} as {a}{mark}");
                }
                None => {
                    let _ = writeln!(out, "source: scan {table}{mark}");
                }
            }
        }
        Source::Values { rows, .. } => {
            indent(out, depth);
            let _ = writeln!(out, "source: values ({} rows)", rows.len());
        }
        Source::Breaker(b) => {
            indent(out, depth);
            match &**b {
                Breaker::Distinct { input } => {
                    out.push_str("source: breaker distinct over\n");
                    describe(input, depth + 1, out);
                }
                Breaker::Sort { input, keys } => {
                    let ks: Vec<String> = keys
                        .iter()
                        .map(|k| {
                            format!("{}{}", k.expr, if k.ascending { "" } else { " desc" })
                        })
                        .collect();
                    let _ = writeln!(out, "source: breaker sort [{}] over", ks.join(", "));
                    describe(input, depth + 1, out);
                }
                Breaker::Limit { input, n } => {
                    let _ = writeln!(out, "source: breaker limit {n} over");
                    describe(input, depth + 1, out);
                }
                Breaker::Aggregate { input, group_exprs, aggs, .. } => {
                    let _ = writeln!(
                        out,
                        "source: grouped aggregation (streaming, {} keys, {} aggs) over",
                        group_exprs.len(),
                        aggs.len()
                    );
                    describe(input, depth + 1, out);
                }
                Breaker::UnionAll { inputs } => {
                    let _ = writeln!(out, "source: breaker union of {} inputs", inputs.len());
                    for i in inputs {
                        describe(i, depth + 1, out);
                    }
                }
                Breaker::NestedLoopJoin { left, right, predicate } => {
                    match predicate {
                        Some(p) => {
                            let _ =
                                writeln!(out, "source: breaker nested-loop join on {p} over");
                        }
                        None => {
                            out.push_str("source: breaker cross join over\n");
                        }
                    }
                    describe(left, depth + 1, out);
                    describe(right, depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::expr::BinaryOp;
    use maybms_engine::tuple::rel;
    use maybms_engine::types::{DataType, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(
            "games",
            rel(
                &[("player", DataType::Text), ("pts", DataType::Int)],
                vec![
                    vec!["Bryant".into(), 30.into()],
                    vec!["Bryant".into(), 40.into()],
                    vec!["Duncan".into(), 20.into()],
                ],
            ),
        )
        .unwrap();
        c.create(
            "teams",
            rel(
                &[("name", DataType::Text), ("team", DataType::Text)],
                vec![
                    vec!["Bryant".into(), "LAL".into()],
                    vec!["Duncan".into(), "SAS".into()],
                ],
            ),
        )
        .unwrap();
        c
    }

    fn scan(t: &str) -> PhysicalPlan {
        PhysicalPlan::Scan { table: t.into(), alias: None }
    }

    /// σ → π → probe → π fuses into one pipeline with the build side as
    /// its own pipeline.
    #[test]
    fn chain_fuses_into_one_pipeline() {
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::Filter {
                    input: Box::new(scan("games")),
                    predicate: Expr::col("pts").binary(BinaryOp::GtEq, Expr::lit(30i64)),
                }),
                right: Box::new(scan("teams")),
                left_keys: vec![0],
                right_keys: vec![0],
            }),
            items: vec![ProjectItem::col("team")],
        };
        let pipe = decompose(&plan);
        assert!(matches!(pipe.source, Source::Scan { .. }));
        assert_eq!(pipe.stages.len(), 3); // filter, probe, project
        let c = catalog();
        let pipelined = execute(&plan, &c).unwrap();
        let materialized = plan.execute(&c).unwrap();
        assert_eq!(pipelined.schema().names(), materialized.schema().names());
        assert_eq!(pipelined.tuples(), materialized.tuples());
        assert_eq!(pipelined.len(), 2);
    }

    /// Breakers (sort, distinct, aggregate, union, limit) materialise and
    /// agree with the bottom-up executor.
    #[test]
    fn breakers_match_materialized() {
        let c = catalog();
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Distinct {
                    input: Box::new(PhysicalPlan::UnionAll {
                        inputs: vec![scan("games"), scan("games")],
                    }),
                }),
                keys: vec![SortKey::desc(Expr::col("pts"))],
            }),
            n: 2,
        };
        let a = execute(&plan, &c).unwrap();
        let b = plan.execute(&c).unwrap();
        assert_eq!(a.tuples(), b.tuples());
    }

    /// Pure-filter pipelines share row storage with the source (gather).
    #[test]
    fn filter_chain_identical_at_any_thread_count() {
        let c = catalog();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("games")),
                predicate: Expr::col("pts").binary(BinaryOp::Gt, Expr::lit(15i64)),
            }),
            predicate: Expr::col("player").eq(Expr::lit("Bryant")),
        };
        let seq = plan.execute(&c).unwrap();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = execute_with(&plan, &c, &pool, 1).unwrap();
            assert_eq!(seq.tuples(), par.tuples(), "threads = {threads}");
        }
    }

    /// NULL probe keys never match, exactly like the materialised join.
    #[test]
    fn null_keys_never_match() {
        let mut c = Catalog::new();
        c.create(
            "l",
            rel(&[("k", DataType::Int)], vec![vec![Value::Null], vec![1.into()]]),
        )
        .unwrap();
        c.create(
            "r",
            rel(&[("k", DataType::Int)], vec![vec![Value::Null], vec![1.into()]]),
        )
        .unwrap();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("l")),
            right: Box::new(scan("r")),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let out = execute(&plan, &c).unwrap();
        assert_eq!(out.tuples(), plan.execute(&c).unwrap().tuples());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn explain_lists_pipelines_and_stages() {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("games")),
                predicate: Expr::col("pts").binary(BinaryOp::Gt, Expr::lit(10i64)),
            }),
            group_exprs: vec![Expr::col("player")],
            group_names: vec!["player".into()],
            aggs: vec![],
        };
        let text = explain(&plan);
        assert!(text.contains("grouped aggregation (streaming, 1 keys, 0 aggs)"), "{text}");
        assert!(text.contains("-> filter"), "{text}");
        assert!(text.contains("scan games"), "{text}");
    }

    #[test]
    fn errors_propagate() {
        let c = catalog();
        // Unknown table.
        assert!(execute(&scan("nope"), &c).is_err());
        // Out-of-range probe key.
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("games")),
            right: Box::new(scan("teams")),
            left_keys: vec![9],
            right_keys: vec![0],
        };
        assert!(execute(&plan, &c).is_err());
        // Empty union.
        let plan = PhysicalPlan::UnionAll { inputs: vec![] };
        assert!(execute(&plan, &c).is_err());
    }
}
