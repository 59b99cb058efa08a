//! Vectorised ≡ scalar: the columnar kernels and the pipeline executor's
//! batches must be **bit-identical** to the row-at-a-time
//! evaluator — values (variant and float bits included), NULL
//! propagation, row order, and the first runtime error (row *and*
//! message).
//!
//! Three layers:
//! * expression level — random expression trees (arithmetic,
//!   comparisons, `AND`/`OR`, `NOT`, negation, `IS NULL`, `||`, `CASE`,
//!   `IN`, `CAST`) over random column batches (typed, mixed-variant,
//!   all-NULL, empty, single-row) checked against per-row
//!   [`Expr::eval_values`];
//! * t-certain pipelines — random σ/π/⋈ `UStream` chains against the
//!   row-major scalar oracle (`maybms_bench::naive::fused_chain`), over
//!   plain and dictionary-encoded sources at 1/2/8 threads and
//!   single-row morsels;
//! * uncertain pipelines — the same with WSDs riding along (conjunction
//!   at probes, unsatisfiable pairs dropped) and error-raising data.
//!
//! Plus pinned regressions for the `Value` edge cases the kernels must
//! not drift on: `'a' || NULL`, `%` by zero (integer and float),
//! Float/Int cross-type comparisons (an Int widens to f64 against a
//! Float), exact Int × Int comparisons near ±2^53 and `i64::MIN` / `MAX`,
//! and mixed-variant columns under `||`.

mod common;

use std::sync::Arc;

use common::check_chain;
use maybms_bench::naive::Step;
use maybms_engine::column::ColumnBatch;
use maybms_engine::ops::ProjectItem;
use maybms_engine::{vector, BinaryOp, DataType, Expr, Schema, Tuple, UnaryOp, Value};
use maybms_pipe::UStream;
use maybms_urel::{Assignment, URelation, UTuple, Var, Wsd};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Expression level: eval_batch vs per-row eval_values
// ---------------------------------------------------------------------

/// One cell of column `mode`: typed columns (0–4), mixed-variant (5).
/// `r % 5 == 0` is NULL everywhere, so NULL-heavy data is routine.
fn make_cell(mode: u8, r: u8) -> Value {
    if r.is_multiple_of(5) {
        return Value::Null;
    }
    match mode {
        // Small ints: arithmetic mostly succeeds.
        0 => Value::Int(i64::from(r) - 120),
        // Extreme ints: overflow and the f64-widening comparison zone.
        1 => {
            if r.is_multiple_of(2) {
                Value::Int(i64::MAX - i64::from(r))
            } else {
                Value::Int(i64::from(r) << 55)
            }
        }
        2 => Value::Float(f64::from(r) / 4.0 - 20.0),
        3 => Value::str(match r % 3 {
            0 => "a",
            1 => "bb",
            _ => "",
        }),
        4 => Value::Bool(r.is_multiple_of(2)),
        // Mixed-variant column: pivots to the Values fallback.
        _ => match r % 4 {
            0 => Value::Int(i64::from(r)),
            1 => Value::Float(f64::from(r) / 2.0),
            2 => Value::str("m"),
            _ => Value::Bool(true),
        },
    }
}

/// Random 4-column batches: per-column type mode plus raw cells.
/// 0..12 rows covers empty and single-row morsels.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        prop::collection::vec(0u8..6, 4),
        prop::collection::vec(prop::collection::vec(0u8..250, 4), 0..12),
    )
        .prop_map(|(modes, raw)| {
            raw.into_iter()
                .map(|cells| {
                    cells
                        .iter()
                        .zip(&modes)
                        .map(|(&r, &m)| make_cell(m, r))
                        .collect()
                })
                .collect()
        })
}

type ExprToken = (u8, u8, u8);

fn arb_expr_tokens() -> impl Strategy<Value = Vec<ExprToken>> {
    prop::collection::vec((0u8..13, 0u8..16, 0u8..16), 0..5)
}

fn arith_op(b: u8) -> BinaryOp {
    [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
    ][b as usize % 5]
}

fn cmp_op(b: u8) -> BinaryOp {
    [
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ][b as usize % 6]
}

/// Fold a token program into one expression over 4 columns. Every
/// kernel (and both scalar-fallback node kinds) is reachable, as are
/// runtime errors: `% 0`, overflow, type mismatches, non-bool logic.
fn build_expr(tokens: &[ExprToken]) -> Expr {
    let col = |x: u8| Expr::ColumnIdx(x as usize % 4);
    let mut e = col(tokens.first().map_or(0, |t| t.1));
    for &(op, a, b) in tokens {
        e = match op % 13 {
            0 => e.binary(arith_op(b), col(a)),
            // Literal arithmetic — `% 0` and `/ 0` included.
            1 => e.binary(arith_op(b), Expr::lit(i64::from(a % 5))),
            2 => e.binary(cmp_op(b), col(a)),
            3 => e.binary(cmp_op(b), litf(f64::from(a) / 2.0 - 3.0)),
            4 => e.and(col(a).binary(cmp_op(b), Expr::lit(1i64))),
            5 => e.or(col(a).binary(cmp_op(b), Expr::lit(2i64))),
            6 => e.not(),
            7 => Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(e),
            },
            8 => Expr::IsNull {
                expr: Box::new(e),
                negated: b % 2 == 1,
            },
            9 => e.binary(BinaryOp::Concat, col(a)),
            10 => Expr::Case {
                branches: vec![(col(a).binary(BinaryOp::Gt, Expr::lit(0i64)), e)],
                else_expr: Some(Box::new(Expr::lit(i64::from(b)))),
            },
            11 => Expr::InList {
                expr: Box::new(e),
                list: vec![Expr::lit(i64::from(a % 3)), Expr::lit(Value::Null), col(b)],
                negated: b % 2 == 0,
            },
            _ => Expr::Cast {
                expr: Box::new(e),
                dtype: [
                    DataType::Int,
                    DataType::Float,
                    DataType::Text,
                    DataType::Bool,
                ][b as usize % 4],
            },
        };
    }
    e
}

/// `Expr::lit` only takes `Into<Value>`; floats go through the variant.
fn litf(f: f64) -> Expr {
    Expr::Literal(Value::Float(f))
}

/// The oracle: eval_batch must agree with row-at-a-time eval_values on
/// values, variants, and the first error (row + message). Panics on
/// divergence (the vendored proptest reports panics as case failures).
fn check_expr(e: &Expr, rows: &[Vec<Value>]) {
    let batch = ColumnBatch::pivot(rows.len(), rows.iter().map(|r| r.as_slice()), &[0, 1, 2, 3]);
    let (col, err) = vector::eval_batch(e, &batch, &mut vector::KernelCounts::default());
    let mut scalar_err = None;
    let mut expected = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        match e.eval_values(row) {
            Ok(v) => expected.push(v),
            Err(er) => {
                scalar_err = Some((i, er.to_string()));
                break;
            }
        }
    }
    let vec_err = err.map(|(i, er)| (i, er.to_string()));
    assert_eq!(vec_err, scalar_err, "error mismatch for {e}");
    assert_eq!(col.len(), expected.len(), "value count for {e}");
    for (i, want) in expected.iter().enumerate() {
        let got = col.value_at(i);
        assert_eq!(&got, want, "row {i} of {e}");
        assert_eq!(
            got.data_type(),
            want.data_type(),
            "variant at row {i} of {e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Vectorised expression evaluation ≡ scalar, over random
    /// expressions and random batches (typed, mixed, NULL-heavy, empty,
    /// single-row), errors included.
    #[test]
    fn vectorised_expr_matches_scalar(
        rows in arb_rows(),
        tokens in arb_expr_tokens(),
    ) {
        let e = build_expr(&tokens);
        check_expr(&e, &rows);
        // All-NULL batches of the same shape, too.
        let null_rows: Vec<Vec<Value>> =
            rows.iter().map(|r| vec![Value::Null; r.len()]).collect();
        check_expr(&e, &null_rows);
        // And the single-row slices (morsel size one).
        for row in rows.iter().take(2) {
            check_expr(&e, std::slice::from_ref(row));
        }
    }
}

// ---------------------------------------------------------------------
// t-certain pipelines: UStream ≡ the row-major scalar oracle
// ---------------------------------------------------------------------

fn arb_num() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..5).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// A t-certain U-relation over `names`, one row per value list.
fn certain(names: &[&str], rows: Vec<Vec<Value>>) -> URelation {
    let pairs: Vec<(&str, DataType)> = names.iter().map(|n| (*n, DataType::Unknown)).collect();
    URelation::new(
        Arc::new(Schema::from_pairs(&pairs)),
        rows.into_iter()
            .map(|r| UTuple::certain(Tuple::new(r)))
            .collect(),
    )
    .unwrap()
}

/// Two all-numeric tables: `t0` (3 columns) and `t1` (2 columns).
fn arb_tables() -> impl Strategy<Value = (URelation, URelation)> {
    (
        prop::collection::vec((arb_num(), arb_num(), arb_num()), 0..20),
        prop::collection::vec((arb_num(), arb_num()), 0..8),
    )
        .prop_map(|(rows0, rows1)| {
            (
                certain(
                    &["a", "b", "c"],
                    rows0.into_iter().map(|(a, b, c)| vec![a, b, c]).collect(),
                ),
                certain(
                    &["d", "e"],
                    rows1.into_iter().map(|(d, e)| vec![d, e]).collect(),
                ),
            )
        })
}

type Token = (u8, u8, u8);

/// σ/π/hash-probe chains — exactly the stage shapes the columnar prefix
/// covers. Returns the source and the steps over it.
fn build_chain(
    (t0, t1): &(URelation, URelation),
    base: u8,
    tokens: &[Token],
) -> (URelation, Vec<Step>) {
    let source = if base.is_multiple_of(2) { t0 } else { t1 };
    let mut arity = source.schema().len();
    let mut steps = Vec::new();
    for &(op, a, b) in tokens {
        let col = |x: u8| Expr::ColumnIdx(x as usize % arity);
        match op % 4 {
            0 => steps.push(Step::Filter(
                col(a).binary(cmp_op(b), Expr::lit(i64::from(b % 5))),
            )),
            1 => {
                // Conjunction with a comparison right side (vectorises)
                // or an IS NULL (vectorises) — NULL-heavy keys exercise
                // the Kleene kernel.
                let right = if b % 2 == 0 {
                    col(b).binary(BinaryOp::LtEq, col(a))
                } else {
                    Expr::IsNull {
                        expr: Box::new(col(b)),
                        negated: a % 2 == 0,
                    }
                };
                steps.push(Step::Filter(
                    col(a).binary(BinaryOp::Gt, Expr::lit(1i64)).and(right),
                ));
            }
            2 => {
                let mut exprs: Vec<Expr> = (0..arity)
                    .map(|i| Expr::ColumnIdx((i + a as usize) % arity))
                    .collect();
                exprs.push(
                    col(b)
                        .binary(BinaryOp::Add, Expr::lit(1i64))
                        .binary(BinaryOp::Mul, col(a)),
                );
                arity += 1;
                steps.push(Step::Project(exprs));
            }
            _ => {
                let build = if b % 2 == 0 { t0 } else { t1 };
                steps.push(Step::Probe {
                    build: build.clone(),
                    left_keys: vec![a as usize % arity],
                    right_keys: vec![b as usize % build.schema().len()],
                });
                arity += build.schema().len();
            }
        }
    }
    (source.clone(), steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pipeline executor ≡ scalar oracle on t-certain σ/π/⋈ chains, over
    /// plain and dictionary-encoded sources, at 1/2/8 threads and morsel
    /// sizes down to one row.
    #[test]
    fn pipeline_matches_scalar_oracle(
        tables in arb_tables(),
        base in 0u8..2,
        tokens in prop::collection::vec((0u8..4, 0u8..16, 0u8..16), 0..6),
    ) {
        let (source, steps) = build_chain(&tables, base, &tokens);
        check_chain(&source, &steps);
    }
}

// ---------------------------------------------------------------------
// Uncertain pipelines: WSDs ride along
// ---------------------------------------------------------------------

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

fn arb_urelation() -> impl Strategy<Value = URelation> {
    (
        prop::collection::vec((arb_cell(), arb_cell(), arb_text()), 0..14),
        prop::collection::vec(prop::collection::vec((0u32..3, 0u16..2), 0..3), 0..14),
    )
        .prop_map(|(rows, raw_wsds)| {
            let tuples = rows
                .into_iter()
                .zip(raw_wsds.into_iter().chain(std::iter::repeat(Vec::new())))
                .map(|((k, v, s), raw)| {
                    let wsd = Wsd::from_assignments(
                        raw.into_iter()
                            .map(|(v, a)| Assignment::new(Var(v), a))
                            .collect(),
                    )
                    .unwrap_or_else(Wsd::tautology);
                    UTuple::new(Tuple::new(vec![k, v, s]), wsd)
                })
                .collect();
            URelation::new(uschema(), tuples).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// UStream σ → self-probe → π chains ≡ scalar oracle — data, WSDs
    /// (conjunction + unsatisfiable drops), order, and the first error
    /// (the text column makes comparisons and `+` raise) — at 1/2/8
    /// threads, single-row morsels included.
    #[test]
    fn ustream_matches_scalar_oracle(
        u in arb_urelation(),
        pa in 0u8..3,
        pb in 0u8..5,
        join_raw in 0u8..2,
    ) {
        let mut steps = vec![Step::Filter(
            Expr::ColumnIdx(pa as usize % 3).binary(cmp_op(pb), Expr::lit(i64::from(pb % 3))),
        )];
        if join_raw == 1 {
            steps.push(Step::Probe { build: u.clone(), left_keys: vec![0], right_keys: vec![0] });
        }
        steps.push(Step::Project(vec![
            Expr::ColumnIdx(0),
            Expr::ColumnIdx(1).binary(BinaryOp::Add, Expr::lit(1i64)),
        ]));
        check_chain(&u, &steps);
    }
}

// ---------------------------------------------------------------------
// Pinned Value-semantics regressions (executor ≡ scalar oracle, each)
// ---------------------------------------------------------------------

/// A two-column (`a`, `b`) t-certain table.
fn one_table(rows: Vec<Vec<Value>>) -> URelation {
    certain(&["a", "b"], rows)
}

const A: Expr = Expr::ColumnIdx(0);
const B: Expr = Expr::ColumnIdx(1);

#[test]
fn regression_concat_with_null() {
    let t = one_table(vec![
        vec![Value::str("a"), Value::str("b")],
        vec![Value::str("x"), Value::Null],
        vec![Value::Null, Value::Null],
    ]);
    check_chain(&t, &[Step::Project(vec![A.binary(BinaryOp::Concat, B)])]);
    // And as a predicate operand: (a || b) IS NULL.
    check_chain(
        &t,
        &[Step::Filter(Expr::IsNull {
            expr: Box::new(A.binary(BinaryOp::Concat, B)),
            negated: false,
        })],
    );
}

#[test]
fn regression_mod_by_zero() {
    // Integer % 0 errors at row 1 on every path; rows before it flow.
    let steps = [Step::Project(vec![A.binary(BinaryOp::Mod, B)])];
    check_chain(
        &one_table(vec![
            vec![Value::Int(7), Value::Int(2)],
            vec![Value::Int(7), Value::Int(0)],
        ]),
        &steps,
    );
    // Float % 0.0, and the Int % Float(0.0) cross-type case.
    check_chain(
        &one_table(vec![vec![Value::Float(7.5), Value::Float(0.0)]]),
        &steps,
    );
    check_chain(
        &one_table(vec![vec![Value::Int(7), Value::Float(0.0)]]),
        &steps,
    );
}

#[test]
fn regression_float_int_cross_comparisons() {
    // Mixed Int/Float comparisons — above 2^53 the Int's f64 widening
    // makes it compare Equal to a Float it differs from.
    let big = 1i64 << 60;
    let t = one_table(vec![
        vec![Value::Int(2), Value::Float(2.0)],
        vec![Value::Int(2), Value::Float(2.5)],
        vec![Value::Int(big + 1), Value::Float(big as f64)],
        vec![Value::Null, Value::Float(1.0)],
    ]);
    for op in [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq] {
        check_chain(&t, &[Step::Filter(A.binary(op, B))]);
    }
}

#[test]
fn regression_int_comparisons_are_exact() {
    // Int × Int compares as i64 on every path — kernel, scalar, and
    // against a literal — so distinct keys above 2^53 never compare
    // Equal, as in a hash join.
    let p53 = 1i64 << 53;
    let edges = [
        i64::MIN,
        i64::MIN + 1,
        -p53 - 1,
        -p53,
        p53 - 1,
        p53,
        p53 + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    let rows: Vec<Vec<Value>> = edges
        .iter()
        .flat_map(|&a| {
            edges
                .iter()
                .map(move |&b| vec![Value::Int(a), Value::Int(b)])
        })
        .chain([vec![Value::Null, Value::Int(p53)]])
        .collect();
    let t = one_table(rows);
    for op in [
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ] {
        check_chain(&t, &[Step::Filter(A.binary(op, B))]);
        check_chain(&t, &[Step::Filter(A.binary(op, Expr::lit(p53 + 1)))]);
        check_chain(&t, &[Step::Project(vec![A.binary(op, B)])]);
    }
    let equal = common::stream(&t.dict_encode(), &[Step::Filter(A.eq(B))], true)
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(equal.len(), edges.len(), "each key equals itself only");
}

#[test]
fn regression_mixed_variant_column_concat() {
    // A mixed Int/Float column must render per-variant under || —
    // Int(1) is "1", Float(1.0) is "1.0" — on every path.
    let t = one_table(vec![
        vec![Value::Int(1), Value::str("x")],
        vec![Value::Float(1.0), Value::str("x")],
    ]);
    let steps = [Step::Project(vec![A.binary(BinaryOp::Concat, B)])];
    check_chain(&t, &steps);
    let out = common::stream(&t.dict_encode(), &steps, true)
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.tuples()[0].data.value(0), &Value::str("1x"));
    assert_eq!(out.tuples()[1].data.value(0), &Value::str("1.0x"));
}

#[test]
fn regression_division_error_vs_filter_order() {
    // Row 0 passes the filter and then divides by zero in the project;
    // row 1 would error in the filter — row-major order means the
    // project's row-0 error must win on every path.
    let t = one_table(vec![
        vec![Value::Int(1), Value::Int(0)],
        vec![Value::str("s"), Value::Int(1)],
    ]);
    check_chain(
        &t,
        &[
            Step::Filter(A.binary(BinaryOp::LtEq, Expr::lit(5i64))),
            Step::Project(vec![Expr::lit(1i64).binary(BinaryOp::Div, B)]),
        ],
    );
}

#[test]
fn regression_fold_keeps_error_beside_constant_false() {
    // `(1/0 = 1) AND false`: the scalar evaluator always runs the left
    // side, so bind-time folding must not rewrite the predicate to
    // `false` — the executor must error exactly like the (unfolded)
    // scalar walk.
    let t = one_table(vec![vec![Value::Int(1), Value::Int(2)]]);
    let boom = Expr::lit(1i64)
        .binary(BinaryOp::Div, Expr::lit(0i64))
        .eq(Expr::lit(1i64));
    let steps = [Step::Filter(boom.clone().and(Expr::lit(false)))];
    assert!(
        maybms_bench::naive::fused_chain(&t, &steps).is_err(),
        "scalar walk errors"
    );
    check_chain(&t, &steps);
    // Mirrored: `false AND (1/0 = 1)` short-circuits — no error, empty.
    let steps = [Step::Filter(Expr::lit(false).and(boom))];
    assert_eq!(
        maybms_bench::naive::fused_chain(&t, &steps).unwrap().len(),
        0
    );
    check_chain(&t, &steps);
}

/// The stage lines `EXPLAIN` prints for `stream`.
fn describe(stream: UStream) -> String {
    stream
        .stage_labels()
        .iter()
        .map(|l| format!("-> {l}\n"))
        .collect()
}

#[test]
fn describe_marks_vectorised_stages() {
    let t = one_table(vec![vec![Value::Int(1), Value::Int(2)]]);
    let text = describe(
        UStream::new(t.clone())
            .filter(&Expr::col("a").binary(BinaryOp::Gt, Expr::lit(1i64)))
            .unwrap()
            .project(&[ProjectItem::new(
                Expr::col("a").binary(BinaryOp::Add, Expr::col("b")),
                "s",
            )])
            .unwrap(),
    );
    assert!(text.contains("-> filter (#0 > 1) (vectorised)"), "{text}");
    assert!(text.contains("(vectorised)\n"), "{text}");
    // CASE stays scalar — and says so by not being marked.
    let text = describe(
        UStream::new(t)
            .filter(&Expr::Case {
                branches: vec![(
                    Expr::col("a").binary(BinaryOp::Gt, Expr::lit(0i64)),
                    Expr::lit(true),
                )],
                else_expr: Some(Box::new(Expr::lit(false))),
            })
            .unwrap(),
    );
    assert!(!text.contains("(vectorised)"), "{text}");
}

#[test]
fn ustream_constant_filters_fold_at_bind() {
    let u = URelation::new(
        uschema(),
        vec![UTuple::new(
            Tuple::new(vec![Value::Int(1), Value::Int(2), Value::str("a")]),
            Wsd::tautology(),
        )],
    )
    .unwrap();
    // σ_true records no stage.
    let s = UStream::new(u.clone()).filter(&Expr::lit(true)).unwrap();
    assert_eq!(s.stage_count(), 0);
    // σ_false empties the stream outright (infallible prior stages).
    let always_false = Expr::lit(1i64).eq(Expr::lit(2i64));
    let s = UStream::new(u.clone()).filter(&always_false).unwrap();
    assert_eq!(s.stage_count(), 0);
    check_chain(&u, &[Step::Filter(always_false)]);
    // …but a fallible stage before it must keep raising its error.
    let steps = [
        Step::Project(vec![Expr::lit(1i64).binary(BinaryOp::Div, Expr::lit(0i64))]),
        Step::Filter(Expr::lit(false)),
    ];
    assert!(
        common::stream(&u, &steps, false)
            .unwrap()
            .collect()
            .is_err(),
        "σ_false must not swallow the projection error"
    );
    check_chain(&u, &steps);
}
