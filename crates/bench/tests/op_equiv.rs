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
use maybms_engine::{ops, DataType, Expr, Relation, Schema, Tuple, Value};
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

    /// sort: the decorated-key sort breaker equals the clone-based sort
    /// exactly (stability included).
    #[test]
    fn sort_matches_naive(r in arb_relation()) {
        let keys = [ops::SortKey::desc(Expr::col("v")), ops::SortKey::asc(Expr::col("k"))];
        let a = breaker::sort(&URelation::from_certain(&r), &keys).unwrap().into_certain();
        let b = naive::sort(&r, &keys).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
    }

    /// repair key: the optimized construction (scratch grouping, inline
    /// WSDs) produces the identical U-relation to the seed construction —
    /// same rows, same variables, same conditions.
    #[test]
    fn repair_key_matches_naive(
        rows in prop::collection::vec((0i64..6, 1u32..10), 1..40),
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("w", DataType::Float),
        ]));
        let input = Relation::new_unchecked(
            schema,
            rows.iter()
                .map(|&(k, w)| Tuple::new(vec![
                    Value::Int(k),
                    Value::Float(f64::from(w) / 10.0),
                ]))
                .collect(),
        );
        let opts = maybms_urel::repair::RepairKeyOptions {
            weight: Some(Expr::col("w")),
        };
        let mut wt_a = WorldTable::new();
        let a = maybms_urel::repair::repair_key(&input, &[Expr::col("k")], &opts, &mut wt_a)
            .unwrap();
        let mut wt_b = WorldTable::new();
        let b = naive::repair_key(&input, &[Expr::col("k")], &opts, &mut wt_b).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
        prop_assert_eq!(wt_a.num_vars(), wt_b.num_vars());
    }

    /// pick tuples: identical output and world table.
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
        prop_assert_eq!(wt_a.num_vars(), wt_b.num_vars());
    }
}
