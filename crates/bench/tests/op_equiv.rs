//! Operator-equivalence property tests: the breakers and the
//! hypothesis-space constructs against their seed-faithful twins.
//!
//! The sort breaker, `DISTINCT` on the group breaker, `repair key` and
//! `pick tuples` must agree tuple-for-tuple — order included — with the
//! naive implementations in `maybms_bench::naive`. Inputs include NULLs
//! and cross-type numeric duplicates (1 == 1.0). (σ/π/⋈ against the
//! oracle is `pipe_equiv::ustream_chain_matches_oracle` and `vec_equiv`.)

use maybms_bench::naive;
use maybms_core::agg;
use maybms_engine::vector::KernelCounts;
use maybms_engine::{ops, BinaryOp, DataType, Expr, Relation, Schema, Tuple, Value};
use maybms_pipe::{breaker, UStream};
use maybms_urel::{URelation, WorldTable};
use proptest::prelude::*;
use std::sync::Arc;

/// Numeric-or-NULL values: usable as join keys and in comparison
/// predicates, with cross-type Int/Float duplicates (1 == 1.0).
fn arb_num() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..5).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// Sort-key numerics: [`arb_num`]'s, plus `Int`s around ±2^53 (where
/// widening to `f64` rounds) and at the ends of `i64`.
fn arb_sort_num() -> impl Strategy<Value = Value> {
    let two53 = 1i64 << 53;
    prop_oneof![
        arb_num(),
        arb_num(),
        prop::sample::select(vec![
            i64::MIN,
            i64::MIN + 1,
            -two53 - 1,
            -two53,
            two53,
            two53 + 1,
            i64::MAX - 1,
            i64::MAX,
        ])
        .prop_map(Value::Int),
    ]
}

/// A numeric value as an `Int` (a `Float` truncates).
fn as_int(v: Value) -> Value {
    match v {
        Value::Float(f) => Value::Int(f as i64),
        v => v,
    }
}

/// A numeric value as a `Float` (an `Int` widens).
fn as_float(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Float(i as f64),
        v => v,
    }
}

/// Sort key `pick` over (k, v, s): a column, an arithmetic expression,
/// or one that can fail (`1 / k` divides by zero, `s + 1` adds to text).
fn sort_key(pick: u8, ascending: bool) -> ops::SortKey {
    let expr = match pick {
        0 => Expr::col("k"),
        1 => Expr::col("v"),
        2 => Expr::col("s"),
        3 => Expr::col("k")
            .binary(BinaryOp::Mul, Expr::lit(Value::Float(0.5)))
            .binary(BinaryOp::Add, Expr::col("v")),
        4 => Expr::lit(1i64).binary(BinaryOp::Div, Expr::col("k")),
        _ => Expr::col("s").binary(BinaryOp::Add, Expr::lit(1i64)),
    };
    match ascending {
        true => ops::SortKey::asc(expr),
        false => ops::SortKey::desc(expr),
    }
}

/// Text payload (exercises `Arc<str>` sharing through the operators).
fn arb_text() -> impl Strategy<Value = Value> {
    prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str)
}

fn schema3() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("k", DataType::Unknown),
        ("v", DataType::Unknown),
        ("s", DataType::Text),
    ]))
}

/// A relation over (k, v, s) with NULLs and cross-type numeric duplicates
/// in the key column.
fn arb_relation() -> impl Strategy<Value = Relation> {
    prop::collection::vec((arb_num(), arb_num(), arb_text()), 0..24).prop_map(|rows| {
        Relation::new_unchecked(
            schema3(),
            rows.into_iter()
                .map(|(k, v, s)| Tuple::new(vec![k, v, s]))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// DISTINCT — the group breaker with no aggregates — equals the
    /// double-clone dedup, first-seen order included.
    #[test]
    fn distinct_matches_naive(r in arb_relation()) {
        let keys: Vec<Expr> = (0..r.schema().len()).map(Expr::ColumnIdx).collect();
        let got = agg::aggregate_stream(
            UStream::new(URelation::from_certain(&r)),
            &keys,
            keys.len(),
            r.schema().fields().to_vec(),
            &[],
            &WorldTable::new(),
            &maybms_obs::QueryStats::new(),
        )
        .unwrap();
        prop_assert_eq!(got.into_certain().tuples(), naive::distinct(&r).tuples());
    }

    /// sort: the column-keyed sort breaker, bounded or not, equals the
    /// clone-based sort's first rows exactly (stability and variants
    /// included), and fails with its first error. Keys are 1–3 of `k`,
    /// `v`, `s`, an arithmetic expression and two that can fail, each
    /// either direction; inputs are typed columns (`k` all `Int`, `v`
    /// all `Float`), mixed-variant ones, their dictionary-encoded twins,
    /// and a `union_all` of an `Int` half and a `Float` half of `k`.
    #[test]
    fn sort_matches_naive(
        rows in prop::collection::vec((arb_sort_num(), arb_num(), arb_text()), 0..24),
        keys in prop::collection::vec((0u8..6, any::<bool>()), 1..4),
        limit in prop::option::of(0usize..1000),
        shape in 0u8..3,
    ) {
        let keys: Vec<ops::SortKey> = keys.into_iter().map(|(k, asc)| sort_key(k, asc)).collect();
        let limit = limit.map(|n| n % (rows.len() + 3));
        let relation = |rows: &[(Value, Value, Value)]| {
            Relation::new_unchecked(
                schema3(),
                rows.iter()
                    .map(|(k, v, s)| Tuple::new(vec![k.clone(), v.clone(), s.clone()]))
                    .collect(),
            )
        };
        let mid = rows.len() / 2;
        let rows: Vec<_> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (k, v, s))| match shape {
                0 => (as_int(k), as_float(v), s),
                1 => (k, v, s),
                _ => (if i < mid { as_int(k) } else { as_float(k) }, v, s),
            })
            .collect();
        let r = relation(&rows);
        let inputs = match shape {
            0 | 1 => {
                let u = URelation::from_certain(&r);
                vec![u.dict_encode(), u]
            }
            _ => {
                let (left, right) = rows.split_at(mid);
                let halves = [left, right].map(|h| URelation::from_certain(&relation(h)));
                vec![breaker::union_all(&halves[0], &halves[1]).unwrap()]
            }
        };
        let want = naive::sort(&r, &keys);
        for u in inputs {
            match (breaker::sort(&u, &keys, limit, &mut KernelCounts::default()), &want) {
                (Ok(got), Ok(want)) => {
                    // Debug-printed values: a variant swap among ties
                    // (`1` for `1.0`) is a difference.
                    let rows = |ts: &[Tuple]| -> Vec<String> {
                        ts.iter().map(|t| format!("{:?}", t.values())).collect()
                    };
                    let n = limit.unwrap_or(usize::MAX);
                    let want = rows(&want.tuples()[..want.len().min(n)]);
                    prop_assert_eq!(rows(got.into_certain().tuples()), want);
                }
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got, maybms_urel::UrelError::Engine(want.clone()));
                }
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    /// repair key: the columnar construction (one engine group table,
    /// a counting sort, inline WSDs) produces the identical U-relation to
    /// the seed construction — same rows, same conditions, and the same
    /// variables bit for bit — over NULL keys, a two-column key with a
    /// text column (plain and dictionary-encoded) and zero weights; a
    /// group whose weights are all zero is the same error on both sides.
    #[test]
    fn repair_key_matches_naive(
        rows in prop::collection::vec(
            (prop::option::of(0i64..6), prop::sample::select(vec!["a", "b"]), 0u32..10),
            1..40,
        ),
        two_keys in any::<bool>(),
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("s", DataType::Text),
            ("w", DataType::Float),
        ]));
        let input = Relation::new_unchecked(
            schema,
            rows.iter()
                .map(|&(k, s, w)| Tuple::new(vec![
                    k.map_or(Value::Null, Value::Int),
                    Value::str(s),
                    Value::Float(f64::from(w) / 10.0),
                ]))
                .collect(),
        );
        let keys = match two_keys {
            true => vec![Expr::col("k"), Expr::col("s")],
            false => vec![Expr::col("k")],
        };
        let opts = maybms_urel::repair::RepairKeyOptions {
            weight: Some(Expr::col("w")),
        };
        let mut wt_b = WorldTable::new();
        let b = naive::repair_key(&input, &keys, &opts, &mut wt_b);
        let plain = URelation::from_certain(&input);
        for u in [plain.clone(), plain.dict_encode()] {
            let mut wt_a = WorldTable::new();
            let a = maybms_urel::repair_key_u(&u, &keys, &opts, &mut wt_a);
            match (&a, &b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.tuples(), b.tuples());
                    prop_assert_eq!(dist_bits(&wt_a), dist_bits(&wt_b));
                }
                (Err(ea), Err(eb)) => {
                    prop_assert_eq!(ea, eb);
                    prop_assert_eq!(wt_a.num_vars(), 0);
                }
                _ => prop_assert!(false, "{:?} vs {:?}", a, b),
            }
        }
    }

    /// pick tuples: identical output and world table, bit for bit.
    #[test]
    fn pick_tuples_matches_naive(
        rows in prop::collection::vec((0i64..6, 0u32..=10), 1..40),
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("v", DataType::Int),
            ("p", DataType::Float),
        ]));
        let input = Relation::new_unchecked(
            schema,
            rows.iter()
                .map(|&(v, p)| Tuple::new(vec![
                    Value::Int(v),
                    Value::Float(f64::from(p) / 10.0),
                ]))
                .collect(),
        );
        let opts = maybms_urel::pick::PickTuplesOptions {
            probability: Some(Expr::col("p")),
        };
        let mut wt_a = WorldTable::new();
        let a = maybms_urel::pick::pick_tuples(&input, &opts, &mut wt_a).unwrap();
        let mut wt_b = WorldTable::new();
        let b = naive::pick_tuples(&input, &opts, &mut wt_b).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
        prop_assert_eq!(dist_bits(&wt_a), dist_bits(&wt_b));
    }

    /// The first error of repair key and pick tuples is the seed scalar
    /// walk's: weights (or probabilities) row by row — non-numeric, NULL,
    /// negative, NaN or out of range — before any key, and a key that
    /// divides by zero at its earliest row. Sums stay finite.
    #[test]
    fn first_errors_match_naive(
        rows in prop::collection::vec((0i64..4, arb_weight()), 1..24),
        divide in any::<bool>(),
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("w", DataType::Unknown),
        ]));
        let input = Relation::new_unchecked(
            schema,
            rows.iter()
                .map(|(k, w)| Tuple::new(vec![Value::Int(*k), w.clone()]))
                .collect(),
        );
        let key = match divide {
            true => Expr::lit(1i64).binary(BinaryOp::Div, Expr::col("k")),
            false => Expr::col("k"),
        };
        let repair = maybms_urel::repair::RepairKeyOptions {
            weight: Some(Expr::col("w")),
        };
        let (mut wt_a, mut wt_b) = (WorldTable::new(), WorldTable::new());
        let keys = [key];
        let a = maybms_urel::repair_key(&input, &keys, &repair, &mut wt_a);
        let b = naive::repair_key(&input, &keys, &repair, &mut wt_b);
        match (&a, &b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.tuples(), b.tuples()),
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            _ => prop_assert!(false, "repair key: {:?} vs {:?}", a, b),
        }
        // The same column as a probability, through an expression that
        // divides by zero where `k` is 0 when `divide` is set.
        let p = match divide {
            true => Expr::col("w").binary(BinaryOp::Div, Expr::col("k")),
            false => Expr::col("w"),
        };
        let pick = maybms_urel::pick::PickTuplesOptions { probability: Some(p) };
        let (mut wt_a, mut wt_b) = (WorldTable::new(), WorldTable::new());
        let a = maybms_urel::pick_tuples(&input, &pick, &mut wt_a);
        let b = naive::pick_tuples(&input, &pick, &mut wt_b);
        match (&a, &b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.tuples(), b.tuples());
                prop_assert_eq!(dist_bits(&wt_a), dist_bits(&wt_b));
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            _ => prop_assert!(false, "pick tuples: {:?} vs {:?}", a, b),
        }
    }
}

/// A weight / probability cell: mostly valid (finite, in `[0, 1]`),
/// sometimes each kind of bad value.
fn arb_weight() -> impl Strategy<Value = Value> {
    let valid = || (0u32..=4).prop_map(|i| Value::Float(f64::from(i) / 4.0));
    prop_oneof![
        valid(),
        valid(),
        valid(),
        valid(),
        valid(),
        valid(),
        (0i64..=1).prop_map(Value::Int),
        Just(Value::Null),
        Just(Value::str("x")),
        Just(Value::Float(-0.5)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(1.5)),
    ]
}

/// Every variable's distribution, bit for bit.
fn dist_bits(wt: &WorldTable) -> Vec<Vec<u64>> {
    wt.distributions()
        .map(|d| d.iter().map(|p| p.to_bits()).collect())
        .collect()
}
