//! End-to-end property tests: full SQL pipelines (parser → planner →
//! executor → confidence engines) against brute-force possible-worlds
//! enumeration on randomly generated databases.

use maybms::MayBms;
use maybms_engine::{rel, DataType, Value};
use proptest::prelude::*;

/// Rows for a `(g, v, p)` table with probabilities in {0.1, …, 0.9}.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, u32)>> {
    prop::collection::vec((0i64..3, 0i64..5, 1u32..10), 1..8)
}

fn load(rows: &[(i64, i64, u32)]) -> MayBms {
    let mut db = MayBms::new();
    db.register(
        "t",
        rel(
            &[("g", DataType::Int), ("v", DataType::Int), ("p", DataType::Float)],
            rows.iter()
                .map(|&(g, v, p)| {
                    vec![Value::Int(g), Value::Int(v), Value::Float(f64::from(p) / 10.0)]
                })
                .collect(),
        ),
    )
    .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// conf() per group over a picked subset == brute-force world sums.
    #[test]
    fn sql_conf_equals_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table picked as
             select * from (pick tuples from t independently with probability p) x",
        ).unwrap();
        let out = db
            .query("select g, conf() as c from picked group by g")
            .unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut truth: std::collections::HashMap<i64, f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let mut seen = std::collections::HashSet::new();
            for t in inst.tuples() {
                if seen.insert(t.value(0).as_int().unwrap()) {
                    *truth.entry(t.value(0).as_int().unwrap()).or_insert(0.0) += wp;
                }
            }
        }
        prop_assert_eq!(out.len(), truth.len());
        for t in out.tuples() {
            let g = t.value(0).as_int().unwrap();
            let p = t.value(1).as_f64().unwrap();
            prop_assert!((p - truth[&g]).abs() < 1e-9, "g={} p={} truth={}", g, p, truth[&g]);
        }
    }

    /// esum()/ecount() == brute-force expectations.
    #[test]
    fn sql_expectations_equal_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table picked as
             select * from (pick tuples from t independently with probability p) x",
        ).unwrap();
        let out = db.query("select esum(v) as es, ecount() as ec from picked").unwrap();
        let es = out.tuples()[0].value(0).as_f64().unwrap();
        let ec = out.tuples()[0].value(1).as_f64().unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut es_truth = 0.0;
        let mut ec_truth = 0.0;
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            ec_truth += wp * inst.len() as f64;
            es_truth += wp
                * inst
                    .tuples()
                    .iter()
                    .map(|t| t.value(1).as_f64().unwrap())
                    .sum::<f64>();
        }
        prop_assert!((es - es_truth).abs() < 1e-9, "esum {} vs {}", es, es_truth);
        prop_assert!((ec - ec_truth).abs() < 1e-9, "ecount {} vs {}", ec, ec_truth);
    }

    /// repair-key marginals through full SQL == brute force.
    #[test]
    fn sql_repair_key_marginals(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table repaired as
             select * from (repair key g in t weight by p) x",
        ).unwrap();
        let out = db
            .query("select g, v, conf() as c from repaired group by g, v")
            .unwrap();
        let u = db.table("repaired").unwrap().clone();
        let wt = db.world_table();
        let mut truth: std::collections::HashMap<(i64, i64), f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let mut seen = std::collections::HashSet::new();
            for t in inst.tuples() {
                let key = (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap());
                if seen.insert(key) {
                    *truth.entry(key).or_insert(0.0) += wp;
                }
            }
        }
        for t in out.tuples() {
            let key = (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap());
            let p = t.value(2).as_f64().unwrap();
            prop_assert!((p - truth[&key]).abs() < 1e-9,
                "key={:?} p={} truth={}", key, p, truth[&key]);
        }
    }

    /// A join of two independent picked tables: conf() == enumeration.
    #[test]
    fn sql_join_conf_equals_enumeration(
        rows_a in prop::collection::vec((0i64..3, 1u32..10), 1..5),
        rows_b in prop::collection::vec((0i64..3, 1u32..10), 1..5),
    ) {
        let mut db = MayBms::new();
        let mk = |rows: &[(i64, u32)]| {
            rel(
                &[("k", DataType::Int), ("p", DataType::Float)],
                rows.iter()
                    .map(|&(k, p)| vec![Value::Int(k), Value::Float(f64::from(p) / 10.0)])
                    .collect(),
            )
        };
        db.register("a", mk(&rows_a)).unwrap();
        db.register("b", mk(&rows_b)).unwrap();
        db.run("create table pa as select * from (pick tuples from a independently with probability p) x").unwrap();
        db.run("create table pb as select * from (pick tuples from b independently with probability p) x").unwrap();
        let out = db
            .query(
                "select pa.k, conf() as c from pa, pb where pa.k = pb.k group by pa.k",
            )
            .unwrap();
        let ua = db.table("pa").unwrap().clone();
        let ub = db.table("pb").unwrap().clone();
        let wt = db.world_table();
        let mut truth: std::collections::HashMap<i64, f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let ia = ua.instantiate(&world);
            let ib = ub.instantiate(&world);
            let keys_b: std::collections::HashSet<i64> =
                ib.tuples().iter().map(|t| t.value(0).as_int().unwrap()).collect();
            let mut seen = std::collections::HashSet::new();
            for t in ia.tuples() {
                let k = t.value(0).as_int().unwrap();
                if keys_b.contains(&k) && seen.insert(k) {
                    *truth.entry(k).or_insert(0.0) += wp;
                }
            }
        }
        prop_assert_eq!(out.len(), truth.len());
        for t in out.tuples() {
            let k = t.value(0).as_int().unwrap();
            let p = t.value(1).as_f64().unwrap();
            prop_assert!((p - truth[&k]).abs() < 1e-9, "k={} p={} truth={}", k, p, truth[&k]);
        }
    }

    /// `select possible` == set of tuples appearing in some world.
    #[test]
    fn sql_possible_equals_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table picked as
             select * from (pick tuples from t independently with probability p) x",
        ).unwrap();
        let out = db.query("select possible v from picked").unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut truth = std::collections::HashSet::new();
        for (world, _wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            for t in u.instantiate(&world).tuples() {
                truth.insert(t.value(1).as_int().unwrap());
            }
        }
        let got: std::collections::HashSet<i64> =
            out.tuples().iter().map(|t| t.value(0).as_int().unwrap()).collect();
        prop_assert_eq!(got.len(), out.len(), "possible must deduplicate");
        prop_assert_eq!(got, truth);
    }

    /// Uncertain `UNION ALL` is the multiset union in every world.
    #[test]
    fn sql_uncertain_union_all_equals_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table picked as
             select * from (pick tuples from t independently with probability p) x",
        ).unwrap();
        let out = db
            .query_uncertain(
                "select v from picked where v >= 2 union all select g from picked",
            )
            .unwrap();
        let u = db.table("picked").unwrap().clone();
        for (world, _wp) in db.world_table().enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let col = |i: usize| inst.tuples().iter().map(move |t| t.value(i).as_int().unwrap());
            let mut truth: Vec<i64> = col(1).filter(|v| *v >= 2).chain(col(0)).collect();
            let mut got: Vec<i64> = out
                .instantiate(&world)
                .tuples()
                .iter()
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            truth.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, truth, "world {:?}", world);
        }
    }

    /// A keyless two-table FROM (the cross-product breaker) over `pick
    /// tuples`: every world holds exactly the pairs of its own tuples.
    #[test]
    fn sql_keyless_from_equals_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table picked as
             select * from (pick tuples from t independently with probability p) x",
        ).unwrap();
        let out = db
            .query_uncertain("select x.v as a, y.g as b from picked x, picked y")
            .unwrap();
        let u = db.table("picked").unwrap().clone();
        for (world, _wp) in db.world_table().enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let mut truth: Vec<(i64, i64)> = inst
                .tuples()
                .iter()
                .flat_map(|x| {
                    inst.tuples().iter().map(move |y| {
                        (x.value(1).as_int().unwrap(), y.value(0).as_int().unwrap())
                    })
                })
                .collect();
            let mut got: Vec<(i64, i64)> = out
                .instantiate(&world)
                .tuples()
                .iter()
                .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
                .collect();
            truth.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, truth, "world {:?}", world);
        }
    }

    /// conf() over a `UNION ALL` subquery == brute-force world sums.
    #[test]
    fn sql_conf_over_union_all_equals_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table picked as
             select * from (pick tuples from t independently with probability p) x",
        ).unwrap();
        let out = db
            .query(
                "select v, conf() as c from
                   (select v from picked where g = 0 union all select g from picked where g > 0) s
                 group by v",
            )
            .unwrap();
        let u = db.table("picked").unwrap().clone();
        let mut truth: std::collections::HashMap<i64, f64> = Default::default();
        for (world, wp) in db.world_table().enumerate_worlds(1 << 16).unwrap() {
            let seen: std::collections::HashSet<i64> = u
                .instantiate(&world)
                .tuples()
                .iter()
                .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
                .map(|(g, v)| if g == 0 { v } else { g })
                .collect();
            for v in seen {
                *truth.entry(v).or_insert(0.0) += wp;
            }
        }
        prop_assert_eq!(out.len(), truth.len());
        for t in out.tuples() {
            let v = t.value(0).as_int().unwrap();
            let p = t.value(1).as_f64().unwrap();
            prop_assert!((p - truth[&v]).abs() < 1e-9, "v={} p={} truth={}", v, p, truth[&v]);
        }
    }

    /// conf() / ecount() of an uncertain table filtered by `IN` over a
    /// t-certain table with duplicate keys == brute-force world sums: the
    /// subquery is a set, however often it returns a value.
    #[test]
    fn sql_in_certain_subquery_equals_enumeration(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run_script(
            "create table picked as
               select * from (pick tuples from t independently with probability p) x;
             create table d as
               select v from t where g > 0 union all select v from t where g > 0;",
        ).unwrap();
        let out = db
            .query(
                "select g, conf() as c, ecount() as n from picked
                 where v in (select v from d) group by g",
            )
            .unwrap();
        let allowed: std::collections::HashSet<i64> =
            rows.iter().filter(|r| r.0 > 0).map(|r| r.1).collect();
        let u = db.table("picked").unwrap().clone();
        // Per g: (P(some row survives), E[surviving rows]).
        let mut truth: std::collections::HashMap<i64, (f64, f64)> = Default::default();
        for (world, wp) in db.world_table().enumerate_worlds(1 << 16).unwrap() {
            let mut counts: std::collections::HashMap<i64, f64> = Default::default();
            for t in u.instantiate(&world).tuples() {
                if allowed.contains(&t.value(1).as_int().unwrap()) {
                    *counts.entry(t.value(0).as_int().unwrap()).or_insert(0.0) += 1.0;
                }
            }
            for (g, n) in counts {
                let e = truth.entry(g).or_insert((0.0, 0.0));
                e.0 += wp;
                e.1 += wp * n;
            }
        }
        prop_assert_eq!(out.len(), truth.len());
        for t in out.tuples() {
            let (c, n) = truth[&t.value(0).as_int().unwrap()];
            prop_assert!((t.value(1).as_f64().unwrap() - c).abs() < 1e-9, "conf {} vs {}", t, c);
            prop_assert!((t.value(2).as_f64().unwrap() - n).abs() < 1e-9, "ecount {} vs {}", t, n);
        }
    }
}
