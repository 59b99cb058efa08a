//! Property tests for the relational engine: operator algebra laws and
//! equivalence of alternative physical implementations.

use std::sync::Arc;

use maybms_engine::ops::{self, AggCall, AggFunc, ProjectItem, SortKey};
use maybms_engine::{BinaryOp, DataType, Expr, Relation, Schema, Tuple};
use proptest::prelude::*;

/// A small integer-pair relation with schema (k: Int, v: Int).
fn arb_relation(max_rows: usize, key_range: i64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..key_range, -50i64..50), 0..max_rows).prop_map(|rows| {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
        ]));
        let tuples = rows
            .into_iter()
            .map(|(k, v)| Tuple::new(vec![k.into(), v.into()]))
            .collect();
        Relation::new(schema, tuples).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash join and nested-loop join compute the same multiset on equi-keys.
    #[test]
    fn hash_join_equals_nested_loop(
        l in arb_relation(24, 8),
        r in arb_relation(24, 8),
    ) {
        let hj = ops::hash_join(&l, &r, &[0], &[0]).unwrap();
        // Nested loop needs distinct column names for an unambiguous predicate;
        // compare by index instead.
        let pred = Expr::ColumnIdx(0).eq(Expr::ColumnIdx(2));
        let nl = ops::nested_loop_join(&l, &r, Some(&pred)).unwrap();
        let mut a = hj.tuples().to_vec();
        let mut b = nl.tuples().to_vec();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// σ_p(σ_p(R)) = σ_p(R) — filter is idempotent.
    #[test]
    fn filter_idempotent(r in arb_relation(32, 8), bound in -50i64..50) {
        let p = Expr::col("v").binary(BinaryOp::Gt, Expr::lit(bound));
        let once = ops::filter(&r, &p).unwrap();
        let twice = ops::filter(&once, &p).unwrap();
        prop_assert_eq!(once.tuples(), twice.tuples());
    }

    /// distinct(distinct(R)) = distinct(R) and result has unique rows.
    #[test]
    fn distinct_idempotent(r in arb_relation(32, 4)) {
        let once = ops::distinct(&r);
        let twice = ops::distinct(&once);
        prop_assert_eq!(once.tuples(), twice.tuples());
        let mut seen = std::collections::HashSet::new();
        for t in once.tuples() {
            prop_assert!(seen.insert(t.clone()));
        }
    }

    /// Sorting is a permutation of the input and is ordered.
    #[test]
    fn sort_permutation_and_ordered(r in arb_relation(32, 16)) {
        let out = ops::sort(&r, &[SortKey::asc(Expr::col("k"))]).unwrap();
        prop_assert_eq!(out.len(), r.len());
        let mut a = r.tuples().to_vec();
        let mut b = out.tuples().to_vec();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        for w in out.tuples().windows(2) {
            prop_assert!(w[0].value(0) <= w[1].value(0));
        }
    }

    /// UNION ALL cardinality is the sum of input cardinalities.
    #[test]
    fn union_all_cardinality(a in arb_relation(16, 4), b in arb_relation(16, 4)) {
        let out = ops::union_all(&[&a, &b]).unwrap();
        prop_assert_eq!(out.len(), a.len() + b.len());
    }

    /// Grouped sums add up to the global sum.
    #[test]
    fn group_sums_total(r in arb_relation(32, 5)) {
        let grouped = ops::aggregate(
            &r,
            &[Expr::col("k")],
            &["k".into()],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("v")), "s")],
        ).unwrap();
        let global = ops::aggregate(
            &r,
            &[],
            &[],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("v")), "s")],
        ).unwrap();
        let total_grouped: i64 = grouped
            .tuples()
            .iter()
            .map(|t| t.value(1).as_int().unwrap_or(0))
            .sum();
        let total = global.tuples()[0].value(0).as_int().unwrap_or(0);
        prop_assert_eq!(total_grouped, total);
    }

    /// π over σ commutes with σ over π when the projection keeps the
    /// filtered column.
    #[test]
    fn filter_project_commute(r in arb_relation(32, 8), bound in -50i64..50) {
        let p = Expr::col("v").binary(BinaryOp::LtEq, Expr::lit(bound));
        let items = vec![ProjectItem::col("v")];
        let a = ops::project(&ops::filter(&r, &p).unwrap(), &items).unwrap();
        let b = ops::filter(&ops::project(&r, &items).unwrap(), &p).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
    }

    /// Cross join cardinality is the product.
    #[test]
    fn cross_join_cardinality(a in arb_relation(12, 4), b in arb_relation(12, 4)) {
        prop_assert_eq!(ops::cross_join(&a, &b).len(), a.len() * b.len());
    }
}

/// Boolean predicates over (k, v) with foldable constant subtrees.
fn arb_predicate() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(|n| Expr::col("k").binary(BinaryOp::Gt, Expr::lit(n))),
        (-20i64..20).prop_map(|n| Expr::col("v").binary(BinaryOp::LtEq, Expr::lit(n))),
        Just(Expr::lit(true)),
        Just(Expr::lit(false)),
        (-20i64..20).prop_map(|n| Expr::lit(n).eq(Expr::lit(n))), // foldable
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folding preserves evaluation on literal-only expressions.
    #[test]
    fn fold_preserves_value(pred in arb_predicate()) {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let row = Tuple::new(vec![1.into(), 2.into()]);
        let original = pred.bind(&schema).unwrap().eval(&row).unwrap();
        let folded = pred.fold().bind(&schema).unwrap().eval(&row).unwrap();
        prop_assert_eq!(original, folded);
    }
}
