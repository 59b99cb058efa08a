//! The pipeline executor (`maybms-pipe`) against its references, at any
//! thread count and any morsel size:
//!
//! * fused `UStream` chains ≡ the row-major scalar oracle
//!   (`maybms_bench::naive::fused_chain`) — values, WSDs, order, first
//!   error — including stages the kernels do not cover (`CASE`, `IN`,
//!   `CAST`, raising arithmetic), so the row-at-a-time walk keeps
//!   property coverage;
//! * the streaming grouped-aggregation breaker ≡ materialising the chain
//!   and running the naive oracle (`maybms_bench::naive::aggregate_u`).
//!
//! Data has NULL join keys, cross-type numeric duplicates (`1 == 1.0`),
//! a text column, and conflicting WSDs whose join conjunctions are
//! unsatisfiable and must be dropped. Each case runs on explicit 1-, 2-,
//! and 8-thread pools with morsel sizes down to a single row (the worst
//! case for any order bug); CI additionally runs the whole suite under
//! `MAYBMS_THREADS=1` and `=4`, covering the process-wide pool dispatch.

mod common;

use std::sync::Arc;

use common::{check_chain, stream};
use maybms_bench::naive::{aggregate_u, fused_chain, Step};
use maybms_core::agg as uagg;
use maybms_core::translate::AggSpec;
use maybms_engine::ops::{AggFunc, ProjectItem};
use maybms_engine::{BinaryOp, DataType, Expr, Field, Schema, Tuple, Value};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};
use proptest::prelude::*;

/// Per-stage `(rows_in, rows_out, build_rows)` fingerprint of a
/// pipeline's record, plus its pipeline-level rows in / out and group
/// count. Everything in here is part of the determinism contract —
/// bit-identical at any thread count and morsel size. (Morsel counts,
/// vector-kernel batches and wall times are *not*: morsel boundaries
/// depend on the pool.)
type PipelineFingerprint = (Vec<(u64, u64, u64)>, [u64; 3]);

fn stage_fingerprint(ps: &maybms_obs::PipelineStats) -> PipelineFingerprint {
    (
        ps.stages
            .iter()
            .map(|s| (s.rows_in.get(), s.rows_out.get(), s.build_rows.get()))
            .collect(),
        [ps.rows_in.get(), ps.rows_out.get(), ps.groups.get()],
    )
}

/// The thread-invariant portion of a per-query collector: per-pipeline
/// stage fingerprints plus the confidence-estimator effort counters.
fn query_fingerprint(qs: &maybms_obs::QueryStats) -> (Vec<PipelineFingerprint>, [u64; 6], u64) {
    (
        qs.pipelines()
            .iter()
            .map(|p| stage_fingerprint(p))
            .collect(),
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
// UStream chains vs the scalar oracle
// ---------------------------------------------------------------------

/// One chain-building token: `(opcode, a, b)`.
type Token = (u8, u8, u8);

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

/// The condition `raw` spells (the tautology when it contradicts itself).
fn wsd_of(raw: Vec<(u32, u16)>) -> Wsd {
    Wsd::from_assignments(
        raw.into_iter()
            .map(|(v, a)| Assignment::new(Var(v), a))
            .collect(),
    )
    .unwrap_or_else(Wsd::tautology)
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
                .map(|((k, v, s), raw)| UTuple::new(Tuple::new(vec![k, v, s]), wsd_of(raw)))
                .collect();
            (wt, URelation::new(uschema(), tuples).unwrap())
        })
}

/// Fold tokens into oracle steps over `(k, v, s)` rows: the total σ/π/⋈
/// shapes of [`build_uchain`] (opcodes 0–4), plus what the vectorised
/// kernels do not cover or cannot finish — `CASE` predicates (5), `IN`
/// lists and `CAST`s (6), and arithmetic that raises on `% 0` / `/ 0`
/// (7). Errors are part of the contract.
fn build_steps(u1: &URelation, u2: &URelation, tokens: &[Token]) -> Vec<Step> {
    // Per column: numeric-or-NULL (comparisons and arithmetic against
    // integer literals only raise there when the generator means it).
    let mut numeric = vec![true, true, false];
    let mut steps = Vec::new();
    for &(op, a, b) in tokens {
        let arity = numeric.len();
        // The first numeric column at or (cyclically) after `x`.
        let num_col = |x: u8| {
            let from = x as usize % arity;
            let pick = (0..arity).map(|i| (from + i) % arity).find(|&i| numeric[i]);
            Expr::ColumnIdx(pick.unwrap_or(0))
        };
        let cmp = [BinaryOp::Gt, BinaryOp::Lt, BinaryOp::LtEq][b as usize % 3];
        match op % 8 {
            0 | 1 => steps.push(Step::Filter(
                num_col(a).binary(cmp, Expr::lit(i64::from(b % 4))),
            )),
            2 => {
                let rotate = |i: usize| (i + a as usize) % arity;
                steps.push(Step::Project(
                    (0..arity).map(|i| Expr::ColumnIdx(rotate(i))).collect(),
                ));
                numeric = (0..arity).map(|i| numeric[rotate(i)]).collect();
            }
            3 | 4 => {
                // Probe u2, or u1 itself for a self-join's conflicting
                // WSDs — on one key column (the columnar single-key hash)
                // or on two (the generic key-slice hash).
                let build = if b % 2 == 0 { u2 } else { u1 };
                let lk = a as usize % arity;
                let (left_keys, right_keys) = match op % 8 {
                    3 => (vec![lk], vec![0]),
                    _ => (vec![lk, (lk + 1) % arity], vec![0, 1]),
                };
                steps.push(Step::Probe {
                    build: build.clone(),
                    left_keys,
                    right_keys,
                });
                numeric.extend([true, true, false]);
            }
            5 => steps.push(Step::Filter(Expr::Case {
                branches: vec![(
                    num_col(a).binary(BinaryOp::Gt, Expr::lit(0i64)),
                    num_col(b).binary(cmp, Expr::lit(i64::from(a % 3))),
                )],
                else_expr: Some(Box::new(Expr::lit(b % 2 == 0))),
            })),
            6 => {
                let mut exprs: Vec<Expr> = (0..arity).map(Expr::ColumnIdx).collect();
                exprs.push(Expr::InList {
                    expr: Box::new(num_col(a)),
                    list: vec![
                        Expr::lit(i64::from(a % 3)),
                        Expr::lit(Value::Null),
                        num_col(b),
                    ],
                    negated: b % 2 == 0,
                });
                exprs.push(Expr::Cast {
                    expr: Box::new(Expr::ColumnIdx(b as usize % arity)),
                    dtype: [DataType::Float, DataType::Text][a as usize % 2],
                });
                steps.push(Step::Project(exprs));
                numeric.extend([false, false]);
            }
            _ => {
                let arith =
                    [BinaryOp::Add, BinaryOp::Mul, BinaryOp::Div, BinaryOp::Mod][b as usize % 4];
                let mut exprs: Vec<Expr> = (0..arity).map(Expr::ColumnIdx).collect();
                exprs.push(num_col(a).binary(arith, Expr::lit(i64::from(a % 3))));
                steps.push(Step::Project(exprs));
                numeric.push(true);
            }
        }
    }
    steps
}

/// Track, per output column, whether it is numeric-or-NULL (comparisons
/// against integer literals are total only then).
struct UChain {
    numeric: Vec<bool>,
}

/// Fold tokens into a lazy stream. Returns `(stream, per-column
/// numeric-or-NULL flags)`.
fn build_uchain(u1: &URelation, u2: &URelation, tokens: &[Token]) -> (UStream, Vec<bool>) {
    let mut info = UChain {
        numeric: vec![true, true, false],
    };
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
                        BinaryOp::Gt
                    } else {
                        BinaryOp::Lt
                    };
                    Expr::ColumnIdx(idx).binary(cmp, Expr::lit(i64::from(b % 4)))
                } else {
                    Expr::IsNull {
                        expr: Box::new(Expr::ColumnIdx(idx)),
                        negated: true,
                    }
                };
                lazy = lazy.filter(&pred).unwrap();
            }
            1 => {
                // Project: rotate all columns (bare references keep the
                // per-column numeric flags meaningful).
                let items: Vec<ProjectItem> = (0..arity)
                    .map(|i| {
                        ProjectItem::new(Expr::ColumnIdx((i + a as usize) % arity), format!("p{i}"))
                    })
                    .collect();
                info.numeric = (0..arity)
                    .map(|i| info.numeric[(i + a as usize) % arity])
                    .collect();
                lazy = lazy.project(&items).unwrap();
            }
            _ => {
                // Hash-join probe against u2 (or u1 for a self-join's
                // conflicting WSDs); the stream is the probe side.
                let build = if b % 2 == 0 { u2 } else { u1 };
                let lk = a as usize % arity;
                lazy = lazy.hash_join(build.clone(), &[lk], &[0]).unwrap();
                info.numeric.extend([true, true, false]);
            }
        }
    }
    let UChain { numeric } = info;
    (lazy, numeric)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fused UStream chains ≡ the row-major scalar oracle — data, WSDs
    /// (unsatisfiable conjunctions dropped), row order, first error —
    /// over plain and dictionary-encoded sources at 1/2/8 threads and
    /// single-row morsels; collected per-stage stats are thread-invariant.
    #[test]
    fn ustream_chain_matches_oracle(
        (_wt, u1) in arb_urelation(),
        (_w2, u2) in arb_urelation(),
        tokens in prop::collection::vec((0u8..8, 0u8..16, 0u8..16), 0..5),
    ) {
        let steps = build_steps(&u1, &u2, &tokens);
        check_chain(&u1, &steps);
        // Collected per-stage stats must also be bit-identical across
        // thread counts (order-independent sums — the instrumentation
        // side of the determinism contract). A chain that raises stops
        // at a thread-dependent point, so only completed runs compare.
        if fused_chain(&u1, &steps).is_ok() {
            let mut fingerprints = Vec::new();
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                let qs = maybms_obs::QueryStats::new();
                let s = stream(&u1, &steps, false).unwrap();
                s.collect_with(&pool, 1, &qs).unwrap();
                fingerprints.push(stage_fingerprint(&qs.pipelines()[0]));
            }
            prop_assert_eq!(&fingerprints[1], &fingerprints[0], "stats, threads 2 vs 1");
            prop_assert_eq!(&fingerprints[2], &fingerprints[0], "stats, threads 8 vs 1");
        }
    }

    /// The streaming grouped-aggregation breaker ≡ materialising the
    /// chain and running the naive oracle — group keys (incl. NULLs and
    /// duplicate select keys), `conf()`, `esum`/`ecount`, and `aconf`
    /// seed numbering — at 1/2/8 threads with single-row morsels. Covers
    /// empty inputs with and without GROUP BY (0-row generators). The
    /// standard aggregates and `argmax` run over the same tables with
    /// their conditions dropped (they are typing errors otherwise). Keys,
    /// standard aggregates, `argmax` and `aconf` are bit-equal; `conf`/`esum`/`ecount` agree within
    /// 1e-9 (the oracle adds plain `f64`s and always walks the d-tree,
    /// the breaker sums exactly and may take the independent product), and
    /// `ecount` over a t-certain chain is bit-equal (it is a count).
    #[test]
    fn grouped_streaming_matches_oracle(
        (wt, u1) in arb_urelation(),
        (_w2, u2) in arb_urelation(),
        tokens in prop::collection::vec((0u8..3, 0u8..16, 0u8..16), 0..4),
        key_pick in 0u8..3,
        agg_pick in 0u8..6,
    ) {
        // Keep every row under an empty condition: the t-certain twin.
        let certain = |u: URelation| {
            let all: Vec<usize> = (0..u.len()).collect();
            u.gather_with(&all, vec![Wsd::tautology(); all.len()])
        };
        let (u1, u2) = if agg_pick >= 4 { (certain(u1), certain(u2)) } else { (u1, u2) };
        let (chain, numeric) = build_uchain(&u1, &u2, &tokens);
        let eager = chain.collect().unwrap();
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
        // (falling back to column 0, where both sides must then raise
        // a typing error).
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
            3 => vec![
                (AggSpec::ECount(Some(Expr::ColumnIdx(1))), "ec".into()),
                (AggSpec::Conf, "p".into()),
                (AggSpec::ESum(num_col.clone()), "es".into()),
            ],
            4 => vec![
                (AggSpec::Std { func: AggFunc::Count, arg: None }, "n".into()),
                (AggSpec::ECount(None), "ec".into()),
                (AggSpec::Std { func: AggFunc::Sum, arg: Some(num_col.clone()) }, "s".into()),
                (AggSpec::Std { func: AggFunc::Min, arg: Some(Expr::ColumnIdx(1)) }, "lo".into()),
                (AggSpec::Std { func: AggFunc::Avg, arg: Some(num_col.clone()) }, "avg".into()),
            ],
            _ => vec![(
                AggSpec::ArgMax { arg: Expr::ColumnIdx(1), value: num_col.clone() },
                "best".into(),
            )],
        };
        let want = aggregate_u(&eager, &grouping, &aggs, &wt, uagg::ACONF_SEED);
        // Per-query collectors attached at every thread count: results
        // AND collected stats (per-stage rows, group counts, estimator
        // effort) must be bit-identical.
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (stream, _) = build_uchain(&u1, &u2, &tokens);
            let qs = maybms_obs::QueryStats::new();
            let got = uagg::aggregate_stream_with(
                stream,
                &grouping,
                grouping.len(),
                key_fields.clone(),
                &aggs,
                &wt,
                &qs,
                &pool,
                1,
            );
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert!(g.is_t_certain());
                    prop_assert_eq!(g.len(), w.len(), "rows, threads {}", threads);
                    for (g, w) in g.tuples().iter().zip(w) {
                        let (gk, ga) = g.data.values().split_at(grouping.len());
                        let (wk, wa) = w.split_at(grouping.len());
                        prop_assert_eq!(format!("{gk:?}"), format!("{wk:?}"), "keys, threads {}", threads);
                        for ((g, w), (spec, name)) in ga.iter().zip(wa).zip(&aggs) {
                            let exact = match spec {
                                AggSpec::Conf | AggSpec::ESum(_) => false,
                                AggSpec::ECount(_) => eager.is_t_certain(),
                                _ => true,
                            };
                            let close = match (g.as_f64(), w.as_f64()) {
                                (Some(g), Some(w)) if !exact => (g - w).abs() <= 1e-9,
                                _ => format!("{g:?}") == format!("{w:?}"),
                            };
                            prop_assert!(close, "{}: {:?} vs oracle {:?}, threads {}", name, g, w, threads);
                        }
                    }
                    runs.push((g.tuples().to_vec(), query_fingerprint(&qs)));
                }
                (Err(_), Err(_)) => {}
                (w, g) => prop_assert!(
                    false,
                    "oracle {:?} vs streaming {:?} (threads {})",
                    w,
                    g,
                    threads
                ),
            }
        }
        // The tolerance above is for the oracle only: across thread
        // counts the breaker's own output is bit-identical.
        for (i, (tuples, f)) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(tuples, &runs[0].0, "result, run {} vs threads 1", i);
            prop_assert_eq!(f, &runs[0].1, "stats fingerprint, run {}", i);
        }
    }
}

// ---------------------------------------------------------------------
// The join planner vs nested loops
// ---------------------------------------------------------------------

/// Rows `(k, f, s)` of one FROM source with typed columns — join keys
/// with duplicates and NULLs, floats that do (`1.0`) and do not (`0.5`)
/// equal an integer key — and raw WSDs over the three shared variables.
#[allow(clippy::type_complexity)]
fn arb_join_source(
) -> impl Strategy<Value = Vec<((Option<i64>, Option<i64>, &'static str), Vec<(u32, u16)>)>> {
    prop::collection::vec(
        (
            (
                prop::option::of(0i64..3),
                prop::option::of(0i64..5),
                prop::sample::select(vec!["a", "b"]),
            ),
            prop::collection::vec((0u32..3, 0u16..2), 0..2),
        ),
        0..7,
    )
}

/// One WHERE conjunct over aliases `a0 …` as SQL text and as the bound
/// expression over the concatenated `(k, f, s)` schemas the oracle runs.
fn join_conjunct(n: usize, (op, a, b): Token) -> (String, Expr) {
    let (t1, t2) = (
        a as usize % n,
        (a as usize + 1 + b as usize % (n - 1).max(1)) % n,
    );
    let name = |t: usize, c: usize| format!("a{t}.{}", ["k", "f", "s"][c]);
    let col = |t: usize, c: usize| Expr::ColumnIdx(3 * t + c);
    let lit = i64::from(b % 3);
    let eq = |c1: usize, c2: usize| {
        (
            format!("{} = {}", name(t1, c1), name(t2, c2)),
            col(t1, c1).eq(col(t2, c2)),
        )
    };
    match op % 12 {
        0 | 1 => eq(0, 0),
        2 => eq(1, 0), // Float = Int: joins, shares no class
        3 => eq(2, 2),
        4 | 5 => (
            format!("{} >= {lit}", name(t1, 0)),
            col(t1, 0).binary(BinaryOp::GtEq, Expr::lit(lit)),
        ),
        6 => (
            format!("{lit} = {}", name(t1, 0)),
            Expr::lit(lit).eq(col(t1, 0)),
        ),
        7 => (
            format!("{} in ({lit}, 2)", name(t1, 0)),
            Expr::InList {
                expr: Box::new(col(t1, 0)),
                list: vec![Expr::lit(lit), Expr::lit(2i64)],
                negated: false,
            },
        ),
        8 => (
            format!("{} < {lit}.5", name(t1, 1)),
            col(t1, 1).binary(BinaryOp::Lt, Expr::lit(Value::Float(lit as f64 + 0.5))),
        ),
        // Neither `<>` nor an equality under OR links a class.
        9 | 10 => (
            format!("{} <> {}", name(t1, 0), name(t2, 0)),
            col(t1, 0).binary(BinaryOp::NotEq, col(t2, 0)),
        ),
        _ => (
            format!(
                "({} = {} or {} = {})",
                name(t1, 0),
                name(t2, 0),
                name(t1, 2),
                name(t2, 2)
            ),
            col(t1, 0).eq(col(t2, 0)).or(col(t1, 2).eq(col(t2, 2))),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `select * from t0 a0, … where …` through the join planner — which
    /// derives implied predicates, joins on composite keys, builds on the
    /// smaller side and so leaves FROM order — returns exactly the bag
    /// (data in FROM order, variants included, plus WSDs) that nested
    /// loops then a filter do, at 1/2/8 threads and single-row morsels.
    #[test]
    fn join_planner_matches_nested_loops(
        sources in prop::collection::vec(arb_join_source(), 2..5),
        tokens in prop::collection::vec((0u8..12, 0u8..8, 0u8..8), 1..6),
    ) {
        let n = sources.len();
        let mut wt = WorldTable::new();
        for _ in 0..3 {
            wt.new_var(&[0.5, 0.5]).unwrap();
        }
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Text),
        ]));
        let relations: Vec<URelation> = sources
            .into_iter()
            .map(|rows| {
                let tuples = rows
                    .into_iter()
                    .map(|((k, f, s), raw)| {
                        let data = vec![
                            k.map_or(Value::Null, Value::Int),
                            f.map_or(Value::Null, |x| Value::Float(x as f64 / 2.0)),
                            Value::str(s),
                        ];
                        UTuple::new(Tuple::new(data), wsd_of(raw))
                    })
                    .collect();
                URelation::new(schema.clone(), tuples).unwrap()
            })
            .collect();
        let (texts, predicates): (Vec<String>, Vec<Expr>) =
            tokens.iter().map(|&t| join_conjunct(n, t)).unzip();
        let from: Vec<String> = (0..n).map(|i| format!("t{i} a{i}")).collect();
        let sql = format!("select * from {} where {}", from.join(", "), texts.join(" and "));
        let render = |rows: Vec<(Vec<Value>, Wsd)>| {
            let mut rows: Vec<String> =
                rows.iter().map(|(v, w)| format!("{v:?} | {w:?}")).collect();
            rows.sort();
            rows
        };
        let want = render(maybms_bench::naive::nested_loop_join(&relations, &predicates).unwrap());

        let query = maybms_core::sql::parse_query(&sql).unwrap();
        let before = maybms_par::pool().threads();
        for dict in [false, true] {
            let catalog: std::collections::BTreeMap<String, URelation> = relations
                .iter()
                .enumerate()
                .map(|(i, u)| (format!("t{i}"), if dict { u.dict_encode() } else { u.clone() }))
                .collect();
            for threads in [1usize, 2, 8] {
                maybms_par::set_threads(threads);
                let stats = maybms_obs::QueryStats::new();
                let mut ctx = maybms_core::exec::ExecCtx::new(&catalog, &mut wt, &stats);
                ctx.min_morsel = 1;
                let plan = maybms_core::plan::plan_query(&query, &catalog).unwrap();
                let got = maybms_core::exec::run(&plan, &mut ctx).unwrap();
                let got = render(
                    got.tuples()
                        .iter()
                        .map(|t| (t.data.values().to_vec(), t.wsd.clone()))
                        .collect(),
                );
                prop_assert_eq!(&got, &want, "{} (dictionary-encoded {}, {} threads)", sql, dict, threads);
            }
        }
        maybms_par::set_threads(before);
    }
}
