//! Property tests for the relational engine's value-level parts:
//! grouping, aggregate folds and constant folding. (The operators run in
//! `maybms-pipe`; their properties live in `crates/bench/tests`.)

use maybms_engine::group::GroupTable;
use maybms_engine::ops::{AggFunc, AggState};
use maybms_engine::vector::KernelCounts;
use maybms_engine::{BinaryOp, ColumnBatch, DataType, Expr, Schema, Tuple, Value};
use proptest::prelude::*;

/// The schema of [`arb_rows`]: (k: Int, v: Int).
fn kv_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

/// Small integer-pair rows over [`kv_schema`].
fn arb_rows(max_rows: usize, key_range: i64) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0..key_range, -50i64..50), 0..max_rows).prop_map(|rows| {
        rows.into_iter()
            .map(|(k, v)| Tuple::new(vec![k.into(), v.into()]))
            .collect()
    })
}

/// `sum(v)` over the rows at `members`, as an [`AggState`] fold.
fn sum_v(r: &[Tuple], members: impl Iterator<Item = usize>) -> Value {
    let mut st = AggState::new(AggFunc::Sum);
    for i in members {
        st.fold(r[i].value(1)).unwrap();
    }
    st.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grouped sums add up to the global sum: one group table over the
    /// relation's columns, `sum(v)` folded per group.
    #[test]
    fn group_sums_total(r in arb_rows(32, 5)) {
        let batch = ColumnBatch::pivot(r.len(), r.iter().map(Tuple::values), &[0, 1]);
        let mut table = GroupTable::new();
        let new_state = || AggState::new(AggFunc::Sum);
        let (ids, err) = table.group_batch(
            &[Expr::col("k").bind(&kv_schema()).unwrap()],
            &batch,
            &mut KernelCounts::default(),
            &new_state,
        );
        prop_assert!(err.is_none());
        for (i, &g) in ids.iter().enumerate() {
            table.states_mut()[g as usize].fold(r[i].value(1)).unwrap();
        }
        let total_grouped: i64 = table
            .into_parts()
            .1
            .into_iter()
            .map(|st| st.finish().unwrap().as_int().unwrap_or(0))
            .sum();
        let total = sum_v(&r, 0..r.len()).as_int().unwrap_or(0);
        prop_assert_eq!(total_grouped, total);
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
