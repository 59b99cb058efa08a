//! Pipelined ≡ materialised: the morsel-driven executor (`maybms-pipe`)
//! must produce **bit-identical** output — schema, tuples, WSDs, order —
//! to the bottom-up materialising executors, at any thread count and any
//! morsel size.
//!
//! Random plans are generated as token programs folded into well-typed
//! trees (arity tracked through projections and joins, comparisons and
//! arithmetic restricted to numeric columns), over data with NULL join
//! keys, cross-type numeric duplicates (`1 == 1.0`), and — on the
//! U-relational side — conflicting WSDs whose join conjunctions are
//! unsatisfiable and must be dropped. Each case runs on explicit 1-, 2-,
//! and 8-thread pools with morsel sizes down to a single row (the
//! worst case for any order bug); CI additionally runs the whole suite
//! under `MAYBMS_THREADS=1` and `=4`, covering the process-wide pool
//! dispatch.

use std::sync::Arc;

use maybms_core::agg as uagg;
use maybms_core::translate::AggSpec;
use maybms_engine::ops::{AggCall, AggFunc, ProjectItem, SortKey};
use maybms_engine::{
    optimizer, Catalog, DataType, Expr, Field, PhysicalPlan, Relation, Schema, Tuple, Value,
};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{algebra, Assignment, URelation, UTuple, Var, WorldTable, Wsd};
use proptest::prelude::*;

/// Per-stage `(label, rows_in, rows_out, build_rows)` fingerprint of an
/// instrumented pipeline, plus its group count. Everything in here is
/// part of the determinism contract — bit-identical at any thread count
/// and morsel size. (Morsel counts and wall times are *not*: morsel
/// boundaries depend on the pool.)
fn stage_fingerprint(ps: &maybms_obs::PipelineStats) -> (Vec<(String, u64, u64, u64)>, u64) {
    (
        ps.stages
            .iter()
            .map(|s| (s.label.clone(), s.rows_in.get(), s.rows_out.get(), s.build_rows.get()))
            .collect(),
        ps.groups.get(),
    )
}

/// The thread-invariant portion of a per-query collector: per-pipeline
/// stage fingerprints plus the confidence-estimator effort counters.
#[allow(clippy::type_complexity)]
fn query_fingerprint(
    qs: &maybms_obs::QueryStats,
) -> (Vec<(Vec<(String, u64, u64, u64)>, u64)>, [u64; 6], u64) {
    (
        qs.pipelines().iter().map(|p| stage_fingerprint(p)).collect(),
        [
            qs.conf_calls.get(),
            qs.dnf_clauses.get(),
            qs.dtree_nodes.get(),
            qs.samples.get(),
            qs.samples_drawn.get(),
            qs.sample_batches.get(),
        ],
        qs.max_rel_stderr().to_bits(),
    )
}

// ---------------------------------------------------------------------
// Certain path: random PhysicalPlans vs pipe::execute
// ---------------------------------------------------------------------

/// Numeric-or-NULL values: safe under comparison and arithmetic, with
/// cross-type duplicates in the key columns.
fn arb_num() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..5).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// A catalog with two all-numeric tables, `t0` (3 columns) and `t1`
/// (2 columns).
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    (
        prop::collection::vec((arb_num(), arb_num(), arb_num()), 0..20),
        prop::collection::vec((arb_num(), arb_num()), 0..8),
    )
        .prop_map(|(rows0, rows1)| {
            let mut c = Catalog::new();
            let s0 = Arc::new(Schema::from_pairs(&[
                ("a", DataType::Unknown),
                ("b", DataType::Unknown),
                ("c", DataType::Unknown),
            ]));
            c.create(
                "t0",
                Relation::new_unchecked(
                    s0,
                    rows0.into_iter().map(|(a, b, x)| Tuple::new(vec![a, b, x])).collect(),
                ),
            )
            .unwrap();
            let s1 = Arc::new(Schema::from_pairs(&[
                ("d", DataType::Unknown),
                ("e", DataType::Unknown),
            ]));
            c.create(
                "t1",
                Relation::new_unchecked(
                    s1,
                    rows1.into_iter().map(|(d, e)| Tuple::new(vec![d, e])).collect(),
                ),
            )
            .unwrap();
            c
        })
}

/// One plan-building token: `(opcode, a, b)`.
type Token = (u8, u8, u8);

fn table_arity(idx: u8) -> (String, usize) {
    if idx.is_multiple_of(2) {
        ("t0".to_string(), 3)
    } else {
        ("t1".to_string(), 2)
    }
}

/// Fold a token program into a well-typed plan, tracking output arity.
/// All columns stay numeric-or-NULL, so every generated expression is
/// total on the data.
fn build_plan(base: u8, tokens: &[Token]) -> PhysicalPlan {
    let (table, mut arity) = table_arity(base);
    let mut plan = PhysicalPlan::Scan { table, alias: None };
    for &(op, a, b) in tokens {
        let col = |x: u8| Expr::ColumnIdx(x as usize % arity);
        match op % 9 {
            0 => {
                let cmp = if b % 2 == 0 {
                    maybms_engine::BinaryOp::Gt
                } else {
                    maybms_engine::BinaryOp::LtEq
                };
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: col(a).binary(cmp, Expr::lit(i64::from(b % 5))),
                };
            }
            1 => {
                // Rotate the columns and append one computed column.
                let mut items: Vec<ProjectItem> = (0..arity)
                    .map(|i| {
                        ProjectItem::new(
                            Expr::ColumnIdx((i + a as usize) % arity),
                            format!("p{i}"),
                        )
                    })
                    .collect();
                items.push(ProjectItem::new(
                    col(b).binary(maybms_engine::BinaryOp::Add, Expr::lit(1i64)),
                    "sum",
                ));
                arity += 1;
                plan = PhysicalPlan::Project { input: Box::new(plan), items };
            }
            2 => {
                let (rt, ra) = table_arity(b);
                plan = PhysicalPlan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(PhysicalPlan::Scan { table: rt, alias: None }),
                    left_keys: vec![a as usize % arity],
                    right_keys: vec![b as usize % ra],
                };
                arity += ra;
            }
            3 => plan = PhysicalPlan::Distinct { input: Box::new(plan) },
            4 => {
                plan = PhysicalPlan::Sort {
                    input: Box::new(plan),
                    keys: vec![SortKey { expr: col(a), ascending: b % 2 == 0 }],
                };
            }
            5 => plan = PhysicalPlan::Limit { input: Box::new(plan), n: a as usize % 9 },
            6 => {
                plan = PhysicalPlan::UnionAll { inputs: vec![plan.clone(), plan] };
            }
            8 => {
                // Grouped aggregation (the streaming breaker): every
                // aggregate function, with and without group keys, over
                // numeric-or-NULL columns (NULL keys form groups too).
                let n_keys = (a % 2) as usize;
                let (group_exprs, group_names) = if n_keys == 1 {
                    (vec![col(b)], vec!["g".to_string()])
                } else {
                    (Vec::new(), Vec::new())
                };
                let aggs = vec![
                    AggCall::new(AggFunc::Count, None, "n"),
                    AggCall::new(AggFunc::Sum, Some(col(a)), "s"),
                    AggCall::new(AggFunc::Avg, Some(col(b)), "m"),
                    AggCall::new(AggFunc::Min, Some(col(a)), "lo"),
                    AggCall::new(AggFunc::Max, Some(col(b)), "hi"),
                ];
                plan = PhysicalPlan::Aggregate {
                    input: Box::new(plan),
                    group_exprs,
                    group_names,
                    aggs,
                };
                arity = n_keys + 5;
            }
            _ => {
                let (rt, ra) = table_arity(b);
                let pred = Expr::ColumnIdx(a as usize % arity)
                    .binary(maybms_engine::BinaryOp::Lt, Expr::ColumnIdx(arity));
                plan = PhysicalPlan::NestedLoopJoin {
                    left: Box::new(plan),
                    right: Box::new(PhysicalPlan::Scan { table: rt, alias: None }),
                    predicate: if a % 2 == 0 { Some(pred) } else { None },
                };
                arity += ra;
            }
        }
    }
    plan
}

fn arb_tokens() -> impl Strategy<Value = Vec<Token>> {
    prop::collection::vec((0u8..9, 0u8..16, 0u8..16), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// pipe::execute ≡ PhysicalPlan::execute, exactly, at 1/2/8 threads
    /// and morsel sizes down to one row.
    #[test]
    fn pipelined_plan_matches_materialized(
        catalog in arb_catalog(),
        base in 0u8..2,
        tokens in arb_tokens(),
    ) {
        let plan = build_plan(base, &tokens);
        let materialized = plan.execute(&catalog).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                let pipelined =
                    maybms_pipe::execute_with(&plan, &catalog, &pool, morsel).unwrap();
                prop_assert_eq!(
                    pipelined.schema().names(),
                    materialized.schema().names(),
                    "schema, threads {} morsel {}", threads, morsel
                );
                prop_assert_eq!(
                    pipelined.tuples(),
                    materialized.tuples(),
                    "tuples, threads {} morsel {}", threads, morsel
                );
            }
        }
    }

    /// The optimizer's rewrites (including the new Project-merge and
    /// identity-elimination rules) compose with pipelining: optimizing
    /// then pipelining equals executing the optimized plan bottom-up.
    #[test]
    fn optimized_plan_pipelines_identically(
        catalog in arb_catalog(),
        base in 0u8..2,
        tokens in arb_tokens(),
    ) {
        let plan = build_plan(base, &tokens);
        let optimized = optimizer::optimize(&plan, &catalog).unwrap();
        let materialized = optimized.execute(&catalog).unwrap();
        let pool = ThreadPool::new(8);
        let pipelined =
            maybms_pipe::execute_with(&optimized, &catalog, &pool, 1).unwrap();
        prop_assert_eq!(pipelined.tuples(), materialized.tuples());
    }
}

// ---------------------------------------------------------------------
// U-relational path: UStream chains vs the algebra sequence
// ---------------------------------------------------------------------

/// Mixed values (numerics, NULLs, and text payload for the third
/// column).
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        (0i64..6).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

fn arb_text() -> impl Strategy<Value = Value> {
    prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str)
}

fn uschema() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("k", DataType::Unknown),
        ("v", DataType::Unknown),
        ("s", DataType::Text),
    ]))
}

/// A world table with three small variables plus a U-relation whose WSDs
/// mention them — self-joins hit conflicting (unsatisfiable) WSD pairs.
fn arb_urelation() -> impl Strategy<Value = (WorldTable, URelation)> {
    (
        prop::collection::vec((arb_cell(), arb_cell(), arb_text()), 0..14),
        prop::collection::vec(prop::collection::vec((0u32..3, 0u16..2), 0..3), 0..14),
    )
        .prop_map(|(rows, raw_wsds)| {
            let mut wt = WorldTable::new();
            for _ in 0..3 {
                wt.new_var(&[0.5, 0.5]).unwrap();
            }
            let tuples = rows
                .into_iter()
                .zip(raw_wsds.into_iter().chain(std::iter::repeat(Vec::new())))
                .map(|((k, v, s), raw)| {
                    let wsd = Wsd::from_assignments(
                        raw.into_iter().map(|(v, a)| Assignment::new(Var(v), a)).collect(),
                    )
                    .unwrap_or_else(Wsd::tautology);
                    UTuple::new(Tuple::new(vec![k, v, s]), wsd)
                })
                .collect();
            (wt, URelation::new(uschema(), tuples))
        })
}

/// Track, per output column, whether it is numeric-or-NULL (comparisons
/// against integer literals are total only then).
struct UChain {
    numeric: Vec<bool>,
}

/// Fold tokens into both the eager algebra chain and the lazy stream.
/// Returns `(materialized, stream, per-column numeric-or-NULL flags)`;
/// both sides built from identical stages.
fn build_uchain(
    u1: &URelation,
    u2: &URelation,
    tokens: &[Token],
) -> (URelation, UStream, Vec<bool>) {
    let mut info = UChain { numeric: vec![true, true, false] };
    let mut eager = u1.clone();
    let mut lazy = UStream::new(u1.clone());
    for &(op, a, b) in tokens {
        let arity = info.numeric.len();
        match op % 3 {
            0 => {
                // Filter: comparison on a numeric column when one
                // exists, IS NOT NULL otherwise (total either way).
                let idx = a as usize % arity;
                let pred = if info.numeric[idx] {
                    let cmp = if b % 2 == 0 {
                        maybms_engine::BinaryOp::Gt
                    } else {
                        maybms_engine::BinaryOp::Lt
                    };
                    Expr::ColumnIdx(idx).binary(cmp, Expr::lit(i64::from(b % 4)))
                } else {
                    Expr::IsNull { expr: Box::new(Expr::ColumnIdx(idx)), negated: true }
                };
                eager = algebra::select(&eager, &pred).unwrap();
                lazy = lazy.filter(&pred).unwrap();
            }
            1 => {
                // Project: rotate all columns (bare references keep the
                // per-column numeric flags meaningful).
                let items: Vec<ProjectItem> = (0..arity)
                    .map(|i| {
                        ProjectItem::new(
                            Expr::ColumnIdx((i + a as usize) % arity),
                            format!("p{i}"),
                        )
                    })
                    .collect();
                info.numeric =
                    (0..arity).map(|i| info.numeric[(i + a as usize) % arity]).collect();
                eager = algebra::project(&eager, &items).unwrap();
                lazy = lazy.project(&items).unwrap();
            }
            _ => {
                // Hash-join probe against u2 (or u1 for a self-join's
                // conflicting WSDs); the stream is the probe side.
                let build = if b % 2 == 0 { u2 } else { u1 };
                let lk = a as usize % arity;
                eager = algebra::hash_join(&eager, build, &[lk], &[0]).unwrap();
                lazy = lazy.hash_join(build.clone(), &[lk], &[0]).unwrap();
                info.numeric.extend([true, true, false]);
            }
        }
    }
    let UChain { numeric } = info;
    (eager, lazy, numeric)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fused UStream chains ≡ the materialising algebra sequence — data,
    /// WSDs (unsatisfiable conjunctions dropped), and row order — at
    /// 1/2/8 threads and single-row morsels.
    #[test]
    fn ustream_chain_matches_algebra(
        (_wt, u1) in arb_urelation(),
        (_w2, u2) in arb_urelation(),
        tokens in prop::collection::vec((0u8..3, 0u8..16, 0u8..16), 0..5),
    ) {
        let (eager, lazy, _) = build_uchain(&u1, &u2, &tokens);
        prop_assert_eq!(lazy.schema().len(), eager.schema().len());
        // Collected per-stage stats must also be bit-identical across
        // thread counts (order-independent sums — the instrumentation
        // side of the determinism contract).
        let mut fingerprints = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            // Rebuild the stream per thread count (collect consumes it).
            let (_, stream, _) = build_uchain(&u1, &u2, &tokens);
            let ps = stream.stats_skeleton("property pipeline");
            let got = stream
                .collect_stats(&pool, 1, maybms_pipe::columnar_default(), Some(&ps))
                .unwrap();
            prop_assert_eq!(got.tuples(), eager.tuples(), "threads {}", threads);
            fingerprints.push(stage_fingerprint(&ps));
        }
        prop_assert_eq!(&fingerprints[1], &fingerprints[0], "stats, threads 2 vs 1");
        prop_assert_eq!(&fingerprints[2], &fingerprints[0], "stats, threads 8 vs 1");
        let (_, stream, _) = build_uchain(&u1, &u2, &tokens);
        prop_assert_eq!(stream.collect().unwrap().tuples(), eager.tuples());
        let _ = lazy;
    }

    /// The streaming grouped-aggregation breaker ≡ materialising the
    /// chain and running the two-pass group + aggregate path — group
    /// keys (incl. NULLs and duplicate select keys), `conf()`,
    /// `esum`/`ecount` partial sums, and `aconf` seed numbering — at
    /// 1/2/8 threads with single-row morsels. Covers empty inputs with
    /// and without GROUP BY (0-row generators).
    #[test]
    fn grouped_streaming_matches_two_pass(
        (wt, u1) in arb_urelation(),
        (_w2, u2) in arb_urelation(),
        tokens in prop::collection::vec((0u8..3, 0u8..16, 0u8..16), 0..4),
        key_pick in 0u8..3,
        agg_pick in 0u8..4,
    ) {
        let (eager, _, numeric) = build_uchain(&u1, &u2, &tokens);
        // Group keys: global (none), one key, or a duplicated key pair
        // (the same expression selected twice).
        let k0 = Expr::ColumnIdx(0);
        let grouping: Vec<Expr> = match key_pick {
            0 => Vec::new(),
            1 => vec![k0.clone()],
            _ => vec![k0.clone(), k0],
        };
        let key_fields: Vec<Field> = (0..grouping.len())
            .map(|i| Field::new(format!("k{i}"), DataType::Unknown))
            .collect();
        // esum needs a numeric argument; pick the first numeric column
        // (falling back to column 0, where both paths must then raise
        // the same typing error).
        let num_col = numeric
            .iter()
            .position(|&n| n)
            .map(Expr::ColumnIdx)
            .unwrap_or(Expr::ColumnIdx(0));
        let aggs: Vec<(AggSpec, String)> = match agg_pick {
            0 => vec![(AggSpec::Conf, "p".into())],
            1 => vec![
                (AggSpec::ESum(num_col.clone()), "es".into()),
                (AggSpec::ECount(None), "ec".into()),
            ],
            2 => vec![
                (AggSpec::AConf { epsilon: 0.5, delta: 0.4 }, "ap".into()),
                (AggSpec::Conf, "p".into()),
            ],
            _ => vec![
                (AggSpec::ECount(Some(Expr::ColumnIdx(1))), "ec".into()),
                (AggSpec::Conf, "p".into()),
                (AggSpec::ESum(num_col.clone()), "es".into()),
            ],
        };
        let ctx = uagg::ConfContext::default();
        // Two-pass reference over the materialised chain.
        let want = uagg::group(&eager, &grouping).and_then(|groups| {
            uagg::aggregate_groups(&eager, &groups, key_fields.clone(), &aggs, &wt, &ctx)
        });
        // Per-query collectors attached at every thread count: results
        // AND collected stats (per-stage rows, group counts, estimator
        // effort) must be bit-identical.
        let mut fingerprints = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (_, stream, _) = build_uchain(&u1, &u2, &tokens);
            let qs = maybms_obs::QueryStats::new();
            let got = uagg::aggregate_stream_with(
                stream,
                &grouping,
                grouping.len(),
                key_fields.clone(),
                &aggs,
                &wt,
                &ctx,
                Some(&qs),
                &pool,
                1,
            );
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert_eq!(g.tuples(), w.tuples(), "threads {}", threads);
                    fingerprints.push(query_fingerprint(&qs));
                }
                (Err(_), Err(_)) => {}
                (w, g) => prop_assert!(
                    false,
                    "two-pass {:?} vs streaming {:?} (threads {})",
                    w,
                    g,
                    threads
                ),
            }
        }
        for (i, f) in fingerprints.iter().enumerate().skip(1) {
            prop_assert_eq!(f, &fingerprints[0], "stats fingerprint, run {}", i);
        }
    }
}
