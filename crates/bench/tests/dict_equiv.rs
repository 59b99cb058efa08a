//! Dictionary-code paths ≡ string paths.
//!
//! The columnar store dictionary-encodes text columns, and two executor
//! fast paths consume the u32 codes directly: the hash-join build side
//! (`fuse::build_table`) and the dense-code grouped-aggregation sink
//! (`groupby::dense_dict_groups`). Both must be *invisible*: joining or
//! grouping on a dictionary-encoded columnar table has to produce output
//! bit-identical to the row-major string path — same tuples, same order,
//! same group key variants — at 1/2/8 threads and morsel sizes down to a
//! single row.
//!
//! The string universe is tiny (heavy duplication, so many rows share a
//! code and hash buckets collide across distinct keys), and NULL keys are
//! frequent (they must never match in a join and must form their own
//! group in an aggregation).

use std::sync::Arc;

use maybms_engine::ops::{AggCall, AggFunc};
use maybms_engine::{
    Catalog, DataType, Expr, PhysicalPlan, Relation, Schema, Tuple, Value,
};
use maybms_par::ThreadPool;
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop::sample::select(vec!["a", "b", "c", "dd"]).prop_map(Value::str),
    ]
}

fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..6).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

fn table(name: &str, rows: Vec<(Value, Value)>) -> (String, Relation) {
    let schema = Arc::new(Schema::from_pairs(&[
        (&format!("{name}_k"), DataType::Text),
        (&format!("{name}_v"), DataType::Unknown),
    ]));
    let tuples = rows.into_iter().map(|(k, v)| Tuple::new(vec![k, v])).collect();
    (name.to_string(), Relation::new_unchecked(schema, tuples))
}

/// Two catalogs over the same logical data: every table row-major in
/// one (overwritten after the catalog's columnar install),
/// columnar-at-rest (text keys dictionary-encoded) in the other.
fn catalogs(tables: Vec<(String, Relation)>) -> (Catalog, Catalog) {
    let mut rows = Catalog::new();
    let mut cols = Catalog::new();
    for (name, r) in tables {
        rows.create(&name, r.clone()).unwrap();
        *rows.get_mut(&name).unwrap() = r.clone();
        cols.create(&name, r.clone()).unwrap();
        let compacted = r.compact();
        assert!(compacted.is_columnar());
        *cols.get_mut(&name).unwrap() = compacted;
    }
    (rows, cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash join keyed on a text column: the dictionary-code build side
    /// over the columnar catalog ≡ the string build side over the
    /// row-major catalog, bit-identically, at every thread count.
    #[test]
    fn dict_join_build_matches_string_path(
        build in prop::collection::vec((arb_key(), arb_payload()), 0..24),
        probe in prop::collection::vec((arb_key(), arb_payload()), 0..24),
    ) {
        let (rows, cols) =
            catalogs(vec![table("b", build), table("p", probe)]);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Scan { table: "p".into(), alias: None }),
            right: Box::new(PhysicalPlan::Scan { table: "b".into(), alias: None }),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let want = plan.execute(&rows).unwrap();
        // NULL never equals NULL: no output row may carry a NULL key.
        for t in want.tuples() {
            prop_assert!(t.value(0) != &Value::Null);
        }
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                for catalog in [&rows, &cols] {
                    let got =
                        maybms_pipe::execute_with(&plan, catalog, &pool, morsel).unwrap();
                    prop_assert_eq!(
                        got.tuples(), want.tuples(),
                        "threads {} morsel {}", threads, morsel
                    );
                }
            }
        }
    }

    /// GROUP BY a text key: the dense-code sink over the columnar
    /// catalog ≡ the hashed sink over the row-major catalog ≡ the
    /// materialising aggregate, bit-identically, at every thread count.
    #[test]
    fn dense_dict_group_matches_hashed_group(
        data in prop::collection::vec((arb_key(), arb_payload()), 0..32),
    ) {
        let (rows, cols) = catalogs(vec![table("t", data)]);
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Scan { table: "t".into(), alias: None }),
            group_exprs: vec![Expr::ColumnIdx(0)],
            group_names: vec!["g".into()],
            aggs: vec![
                AggCall::new(AggFunc::Count, None, "n"),
                AggCall::new(AggFunc::Sum, Some(Expr::ColumnIdx(1)), "s"),
                AggCall::new(AggFunc::Min, Some(Expr::ColumnIdx(1)), "lo"),
            ],
        };
        let want = plan.execute(&rows).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                for catalog in [&rows, &cols] {
                    let got =
                        maybms_pipe::execute_with(&plan, catalog, &pool, morsel).unwrap();
                    prop_assert_eq!(
                        got.tuples(), want.tuples(),
                        "threads {} morsel {}", threads, morsel
                    );
                }
            }
        }
    }
}
