//! Dictionary-code paths ≡ string paths.
//!
//! The columnar store dictionary-encodes text columns, and two executor
//! fast paths consume the u32 codes directly: the hash-join build side
//! (`fuse::build_table`) and the dense-code grouped-aggregation sink
//! (`groupby::dense_dict_groups`). Both must be *invisible*: joining or
//! grouping on a compacted (dictionary-encoded, columnar-at-rest)
//! U-relation has to produce output bit-identical to its row-major twin
//! and to a sequential scalar reference — same tuples, same order, same
//! group key variants — at 1/2/8 threads and morsel sizes down to a
//! single row.
//!
//! The string universe is tiny (heavy duplication, so many rows share a
//! code and hash buckets collide across distinct keys), and NULL keys are
//! frequent (they must never match in a join and must form their own
//! group in an aggregation).

mod common;

use std::sync::Arc;

use maybms_bench::naive::{fused_chain, Step};
use maybms_engine::ops::{AggFunc, AggState};
use maybms_engine::{DataType, Expr, Schema, Tuple, Value};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{URelation, UTuple};
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

/// A row-major t-certain `(name_k: Text, name_v)` U-relation.
fn table(name: &str, rows: Vec<(Value, Value)>) -> URelation {
    let schema = Arc::new(Schema::from_pairs(&[
        (&format!("{name}_k"), DataType::Text),
        (&format!("{name}_v"), DataType::Unknown),
    ]));
    let tuples =
        rows.into_iter().map(|(k, v)| UTuple::certain(Tuple::new(vec![k, v]))).collect();
    URelation::new(schema, tuples)
}

/// `count(*)`, `sum(v)`, `min(v)` — one state per aggregate.
fn new_states() -> Vec<AggState> {
    [AggFunc::Count, AggFunc::Sum, AggFunc::Min].map(AggState::new).to_vec()
}

fn fold_row(states: &mut [AggState], row: &[Value]) -> maybms_urel::Result<()> {
    states[0].fold_present();
    states[1].fold(&row[1])?;
    states[2].fold(&row[1])?;
    Ok(())
}

/// Groups as strings that tell key and aggregate variants apart.
fn render(keys: Vec<Vec<Value>>, states: Vec<Vec<AggState>>) -> Vec<String> {
    keys.iter()
        .zip(&states)
        .map(|(k, sts)| {
            let vals: Vec<Value> = sts.iter().map(|s| s.finish().unwrap()).collect();
            format!("{k:?} -> {vals:?}")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash join keyed on a text column: the dictionary-code build side
    /// over compacted inputs ≡ the string build side over row-major ones
    /// ≡ the scalar oracle, bit-identically, at every thread count.
    #[test]
    fn dict_join_build_matches_string_path(
        build in prop::collection::vec((arb_key(), arb_payload()), 0..24),
        probe in prop::collection::vec((arb_key(), arb_payload()), 0..24),
    ) {
        let (b, p) = (table("b", build), table("p", probe));
        prop_assert!(b.compact().is_columnar());
        let steps = [Step::Probe { build: b, left_keys: vec![0], right_keys: vec![0] }];
        // NULL never equals NULL: no output row may carry a NULL key.
        for (row, _) in fused_chain(&p, &steps).unwrap() {
            prop_assert!(row[0] != Value::Null);
        }
        common::check_chain(&p, &steps);
    }

    /// GROUP BY a text key: the dense-code sink over the compacted table
    /// ≡ the hashed sink over the row-major one ≡ a sequential scan in
    /// first-seen key order, bit-identically, at every thread count.
    #[test]
    fn dense_dict_group_matches_hashed_group(
        data in prop::collection::vec((arb_key(), arb_payload()), 0..32),
    ) {
        let t = table("t", data);
        let want = {
            let mut keys: Vec<Vec<Value>> = Vec::new();
            let mut states: Vec<Vec<AggState>> = Vec::new();
            for row in t.tuples().iter().map(|u| u.data.values()) {
                let g = keys.iter().position(|k| k[0] == row[0]).unwrap_or_else(|| {
                    keys.push(vec![row[0].clone()]);
                    states.push(new_states());
                    keys.len() - 1
                });
                fold_row(&mut states[g], row).unwrap();
            }
            render(keys, states)
        };
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                for source in [t.clone(), t.compact()] {
                    let layout = if source.is_columnar() { "compacted" } else { "row-major" };
                    let (keys, states) = UStream::new(source)
                        .collect_grouped(
                            &[Expr::ColumnIdx(0)],
                            &pool,
                            morsel,
                            (&maybms_obs::QueryStats::new(), "test"),
                            new_states,
                            |sts: &mut Vec<AggState>, row, _| fold_row(sts, row),
                            |a: &mut Vec<AggState>, b| {
                                a.iter_mut().zip(b).try_for_each(|(x, y)| x.merge(y))?;
                                Ok(())
                            },
                        )
                        .unwrap();
                    prop_assert_eq!(
                        render(keys, states), want.clone(),
                        "{}, threads {} morsel {}", layout, threads, morsel
                    );
                }
            }
        }
    }
}
