//! Possible-worlds commutation of the executor SQL runs.
//!
//! The central theorem behind U-relations (§2.3) is that the
//! parsimonious translation of positive RA *commutes with possible-world
//! instantiation*: rep(q(D))'s worlds are exactly q applied to D's
//! worlds. Left side of every property: `maybms_pipe` — `UStream`
//! σ/π/⋈ stages and the `breaker` functions — on the U-relation. Right
//! side: the scalar oracle `maybms_bench::naive` on `u.instantiate(world)`
//! for every enumerated world. No path is compared with itself.

use maybms_bench::naive::{self, fused_chain, Step};
use maybms_engine::ops::{ProjectItem, SortKey};
use maybms_engine::vector::KernelCounts;
use maybms_engine::{BinaryOp, DataType, Expr, Value};
use maybms_pipe::{breaker, UStream};
use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
use maybms_urel::rel;
use maybms_urel::repair::{repair_key, RepairKeyOptions};
use maybms_urel::{URelation, WorldTable};
use proptest::prelude::*;

/// A random tuple-independent U-relation with schema (k, v, p) over a
/// fresh world table: rows with probabilities in {0.1 … 0.9}.
fn arb_ti_relation(max_rows: usize) -> impl Strategy<Value = (WorldTable, URelation)> {
    prop::collection::vec((0i64..4, 0i64..4, 1u32..10), 0..max_rows).prop_map(|rows| {
        let mut wt = WorldTable::new();
        let certain = rel(
            &[
                ("k", DataType::Int),
                ("v", DataType::Int),
                ("p", DataType::Float),
            ],
            rows.iter()
                .map(|(k, v, p10)| {
                    vec![
                        Value::Int(*k),
                        Value::Int(*v),
                        Value::Float(f64::from(*p10) / 10.0),
                    ]
                })
                .collect(),
        );
        let u = pick_tuples(
            &certain,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        (wt, u)
    })
}

/// A `repair key k` table over (k, v): per key group one variable whose
/// alternatives are mutually exclusive.
fn arb_repaired(max_rows: usize) -> impl Strategy<Value = (WorldTable, URelation)> {
    prop::collection::vec((0i64..3, 0i64..4), 1..max_rows).prop_map(|rows| {
        let mut wt = WorldTable::new();
        let certain = rel(
            &[("k", DataType::Int), ("v", DataType::Int)],
            rows.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                .collect(),
        );
        let u = repair_key(
            &certain,
            &[Expr::col("k")],
            &RepairKeyOptions::default(),
            &mut wt,
        )
        .unwrap();
        (wt, u)
    })
}

/// The oracle's rows for one world: the chain `steps(instance)` walked
/// over the world's instance of `u`.
fn oracle(inst: &URelation, steps: &[Step]) -> Vec<Vec<Value>> {
    fused_chain(inst, steps)
        .expect("chains here never raise")
        .into_iter()
        .map(|(row, _)| row)
        .collect()
}

/// `translated`, instantiated in every world, equals `per_world` of that
/// world as a bag.
fn assert_commutes(
    wt: &WorldTable,
    translated: &URelation,
    per_world: impl Fn(&[u16]) -> Vec<Vec<Value>>,
) -> Result<(), TestCaseError> {
    for (world, _p) in wt.enumerate_worlds(1 << 16).unwrap() {
        let mut lhs: Vec<Vec<Value>> = translated
            .instantiate(&world)
            .tuples()
            .iter()
            .map(|t| t.values().to_vec())
            .collect();
        let mut rhs = per_world(&world);
        lhs.sort();
        rhs.sort();
        prop_assert_eq!(lhs, rhs, "world {:?}", world);
    }
    Ok(())
}

/// A probe of `build` on column 0 = column 0.
fn probe(build: URelation) -> Step {
    Step::Probe {
        build,
        left_keys: vec![0],
        right_keys: vec![0],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// σ commutes with instantiation on tuple-independent inputs.
    #[test]
    fn select_commutes((wt, u) in arb_ti_relation(8), bound in 0i64..4) {
        let pred = Expr::col("v").binary(BinaryOp::GtEq, Expr::lit(bound));
        let translated = UStream::new(u.clone()).filter(&pred).unwrap().collect().unwrap();
        let steps = [Step::Filter(Expr::ColumnIdx(1).binary(BinaryOp::GtEq, Expr::lit(bound)))];
        assert_commutes(&wt, &translated, |w| oracle(&u.instantiate(w), &steps))?;
    }

    /// π commutes with instantiation (and eliminates no duplicates).
    #[test]
    fn project_commutes((wt, u) in arb_ti_relation(8)) {
        let items = [
            ProjectItem::col("k"),
            ProjectItem::new(Expr::col("v").binary(BinaryOp::Add, Expr::lit(1i64)), "v1"),
        ];
        let translated = UStream::new(u.clone()).project(&items).unwrap().collect().unwrap();
        let steps = [Step::Project(vec![
            Expr::ColumnIdx(0),
            Expr::ColumnIdx(1).binary(BinaryOp::Add, Expr::lit(1i64)),
        ])];
        assert_commutes(&wt, &translated, |w| oracle(&u.instantiate(w), &steps))?;
    }

    /// ⋈ commutes with instantiation (equi-join on k), including the
    /// conflict-dropping rule for shared variables (self-join case).
    #[test]
    fn join_commutes((wt, u) in arb_ti_relation(6)) {
        let translated =
            UStream::new(u.clone()).hash_join(u.clone(), &[0], &[0]).unwrap().collect().unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = u.instantiate(w);
            oracle(&inst, &[probe(inst.clone())])
        })?;
    }

    /// ∪ commutes with instantiation.
    #[test]
    fn union_commutes((wt, u) in arb_ti_relation(6)) {
        let translated = breaker::union_all(&u, &u).unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = oracle(&u.instantiate(w), &[]);
            [inst.clone(), inst].concat()
        })?;
    }

    /// A composite plan σ(π(R ⋈ R)) commutes with instantiation.
    #[test]
    fn composite_plan_commutes((wt, u) in arb_ti_relation(5), bound in 0i64..4) {
        let translated = UStream::new(u.clone())
            .hash_join(u.clone(), &[0], &[0])
            .unwrap()
            .project(&[ProjectItem::new(Expr::ColumnIdx(1), "v")])
            .unwrap()
            .filter(&Expr::col("v").binary(BinaryOp::Lt, Expr::lit(bound)))
            .unwrap()
            .collect()
            .unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = u.instantiate(w);
            oracle(&inst, &[
                probe(inst.clone()),
                Step::Project(vec![Expr::ColumnIdx(1)]),
                Step::Filter(Expr::ColumnIdx(0).binary(BinaryOp::Lt, Expr::lit(bound))),
            ])
        })?;
    }

    /// The cross product commutes with instantiation: in the self
    /// product of a `repair key` table, pairs of two alternatives of one
    /// key are contradictory and must drop.
    #[test]
    fn cross_commutes((wt, u) in arb_repaired(7)) {
        let translated = breaker::cross(&u, &u).unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = oracle(&u.instantiate(w), &[]);
            inst.iter()
                .flat_map(|l| inst.iter().map(move |r| [l.clone(), r.clone()].concat()))
                .collect()
        })?;
    }

    /// ORDER BY + LIMIT on a t-certain input (the one world it has):
    /// the bounded sort and the limit breaker, run as the executor runs
    /// them, equal the naive sort's first rows, order included.
    #[test]
    fn sort_limit_commutes(
        rows in prop::collection::vec((0i64..4, 0i64..4), 0..12),
        n in 0usize..14,
    ) {
        let certain = rel(
            &[("k", DataType::Int), ("v", DataType::Int)],
            rows.iter().map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]).collect(),
        );
        let keys = [SortKey::desc(Expr::col("v")), SortKey::asc(Expr::col("k"))];
        let sorted = breaker::sort(&certain, &keys, Some(n), &mut KernelCounts::default()).unwrap();
        let got = breaker::limit(&sorted, n);
        prop_assert!(got.is_t_certain());
        let want = naive::sort(&certain, &keys).unwrap();
        let want: Vec<_> = want.tuples().into_iter().take(n).collect();
        prop_assert_eq!(got.tuples(), want);
    }
}
