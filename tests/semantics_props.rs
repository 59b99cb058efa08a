//! End-to-end property tests: full SQL pipelines (parser → planner →
//! executor → confidence engines) against brute-force possible-worlds
//! enumeration on randomly generated databases.

use maybms::MayBms;
use maybms_engine::{DataType, Value};
use maybms_urel::rel;
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
            &[
                ("g", DataType::Int),
                ("v", DataType::Int),
                ("p", DataType::Float),
            ],
            rows.iter()
                .map(|&(g, v, p)| {
                    vec![
                        Value::Int(g),
                        Value::Int(v),
                        Value::Float(f64::from(p) / 10.0),
                    ]
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
            let rows = inst.tuples();
            let col = |i: usize| rows.iter().map(move |t| t.value(i).as_int().unwrap());
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
            let rows = u.instantiate(&world).tuples();
            let mut truth: Vec<(i64, i64)> = rows
                .iter()
                .flat_map(|x| {
                    rows.iter().map(move |y| {
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
            prop_assert!((t.value(1).as_f64().unwrap() - c).abs() < 1e-9, "conf {} vs {}", t.data, c);
            prop_assert!((t.value(2).as_f64().unwrap() - n).abs() < 1e-9, "ecount {} vs {}", t.data, n);
        }
    }
}

// ---------------------------------------------------------------------
// Generated joins: the join planner against world enumeration
// ---------------------------------------------------------------------

/// One generated base-table row: `(k, f, v, p)` — a nullable integer
/// key, a nullable float key (index into [`FLOATS`]), a payload and a
/// weight in tenths.
type JoinRow = (Option<i64>, usize, i64, u32);

/// `f` values: NULL, then floats that do and do not equal an integer key.
const FLOATS: [Option<f64>; 5] = [None, Some(0.0), Some(1.0), Some(1.5), Some(2.0)];

/// Column of alias `a{table}`: 0 = `k`, 1 = `f`, 2 = `v`.
type ColRef = (usize, usize);

/// A WHERE conjunct, kept symbolic so the oracle below evaluates it
/// without the engine's expression evaluator.
#[derive(Debug, Clone)]
enum Conj {
    /// `col = col`
    Eq(ColRef, ColRef),
    /// `col op literal` (`flipped`: written `literal op' col`)
    Cmp(ColRef, &'static str, f64, bool),
    /// `col in (literals)`
    In(ColRef, Vec<i64>),
    /// `col <> col` — links no equivalence class
    Ne(ColRef, ColRef),
    /// `(col = col or col = col)` — neither does an equality under OR
    EqOr(ColRef, ColRef, ColRef, ColRef),
}

fn col_sql((t, c): ColRef) -> String {
    format!("a{t}.{}", ["k", "f", "v"][c])
}

impl Conj {
    fn sql(&self) -> String {
        match self {
            Conj::Eq(a, b) => format!("{} = {}", col_sql(*a), col_sql(*b)),
            Conj::Cmp(c, op, lit, false) => format!("{} {op} {lit:?}", col_sql(*c)),
            Conj::Cmp(c, op, lit, true) => {
                let mirrored = match *op {
                    "<" => ">",
                    "<=" => ">=",
                    ">" => "<",
                    ">=" => "<=",
                    same => same,
                };
                format!("{lit:?} {mirrored} {}", col_sql(*c))
            }
            Conj::In(c, list) => {
                let list: Vec<String> = list.iter().map(|x| x.to_string()).collect();
                format!("{} in ({})", col_sql(*c), list.join(", "))
            }
            Conj::Ne(a, b) => format!("{} <> {}", col_sql(*a), col_sql(*b)),
            Conj::EqOr(a, b, c, d) => format!(
                "({} = {} or {} = {})",
                col_sql(*a),
                col_sql(*b),
                col_sql(*c),
                col_sql(*d)
            ),
        }
    }

    /// SQL semantics over one combination of rows: NULL satisfies nothing.
    fn holds(&self, rows: &[[Option<f64>; 3]]) -> bool {
        let get = |(t, c): ColRef| rows[t][c];
        match self {
            Conj::Eq(a, b) => matches!((get(*a), get(*b)), (Some(x), Some(y)) if x == y),
            Conj::Cmp(c, op, lit, _) => get(*c).is_some_and(|x| match *op {
                "=" => x == *lit,
                "<" => x < *lit,
                "<=" => x <= *lit,
                ">" => x > *lit,
                _ => x >= *lit,
            }),
            Conj::In(c, list) => get(*c).is_some_and(|x| list.iter().any(|&l| l as f64 == x)),
            Conj::Ne(a, b) => matches!((get(*a), get(*b)), (Some(x), Some(y)) if x != y),
            Conj::EqOr(a, b, c, d) => {
                let eq = |a, b| matches!((get(a), get(b)), (Some(x), Some(y)) if x == y);
                eq(*a, *b) || eq(*c, *d)
            }
        }
    }
}

/// The conjuncts of one generated query over aliases `a0 … a{n-1}`.
fn join_conjuncts(n: usize, links: &[u8], restriction: (usize, u8, i64), extra: u8) -> Vec<Conj> {
    let mut out = Vec::new();
    for i in 1..n {
        match (i, extra % 4) {
            // Between the first two tables, in half the cases, no key
            // equality at all: a `<>` beside an equality on the payload,
            // or an OR-ed equality (a cross product, then σ).
            (1, 1) => {
                out.push(Conj::Ne((1, 0), (0, 0)));
                out.push(Conj::Eq((1, 2), (0, 2)));
                continue;
            }
            (1, 2) => {
                out.push(Conj::EqOr((1, 0), (0, 0), (1, 2), (0, 2)));
                continue;
            }
            _ => {}
        }
        match links[i - 1] % 4 {
            // Same-typed key chain: one equivalence class down the chain.
            0 => out.push(Conj::Eq((i, 0), (i - 1, 0))),
            // Composite key.
            1 => {
                out.push(Conj::Eq((i, 0), (i - 1, 0)));
                out.push(Conj::Eq((i - 1, 2), (i, 2)));
            }
            // Float-vs-Int key: joins on numeric equality, shares no class.
            2 => out.push(Conj::Eq((i, 1), (i - 1, 0))),
            // Star on the first table's key.
            _ => out.push(Conj::Eq((0, 0), (i, 0))),
        }
    }
    let (t, kind, c) = restriction;
    let t = t % n;
    match kind % 6 {
        0 => out.push(Conj::Cmp((t, 0), "=", c as f64, false)),
        1 => {
            out.push(Conj::Cmp((t, 0), ">=", c as f64, false));
            out.push(Conj::Cmp((t, 0), "<", (c + 2) as f64, false));
        }
        2 => out.push(Conj::In((t, 0), vec![c, c + 1])),
        3 => out.push(Conj::Cmp((t, 1), ">", c as f64 - 0.5, false)),
        4 => out.push(Conj::Cmp((t, 0), "<=", c as f64, true)),
        _ => {}
    }
    if extra % 4 == 3 {
        out.push(Conj::Ne((n - 1, 2), (0, 2)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 2–4-way joins of small certain / `repair key` / `pick tuples`
    /// tables — duplicate keys, NULL keys, Int-vs-Float key pairs, a
    /// constant / range / IN restriction on one member of a key class,
    /// `<>` and OR-ed equalities beside the real ones, both FROM orders (so the build-on-the-smaller-side rule fires and
    /// does not) — answer `conf`, `ecount` and `possible` exactly as
    /// evaluating the join in every world does.
    #[test]
    fn sql_generated_joins_equal_enumeration(
        tables in prop::collection::vec(
            (0u8..3, prop::collection::vec(
                (prop::option::of(0i64..3), 0usize..5, 0i64..3, 1u32..10), 1..4)),
            2..5),
        links in prop::collection::vec(0u8..4, 3),
        restriction in (0usize..4, 0u8..6, 0i64..3),
        extra in 0u8..4,
        reversed in any::<bool>(),
    ) {
        let n = tables.len();
        let mut db = MayBms::new();
        for (i, (kind, rows)) in tables.iter().enumerate() {
            let rows: &Vec<JoinRow> = rows;
            db.register(
                &format!("b{i}"),
                rel(
                    &[("k", DataType::Int), ("f", DataType::Float), ("v", DataType::Int),
                      ("p", DataType::Float)],
                    rows.iter()
                        .map(|&(k, f, v, p)| vec![
                            k.map_or(Value::Null, Value::Int),
                            FLOATS[f].map_or(Value::Null, Value::Float),
                            Value::Int(v),
                            Value::Float(f64::from(p) / 10.0),
                        ])
                        .collect(),
                ),
            ).unwrap();
            let source = match kind {
                0 => format!("b{i}"),
                1 => format!("(repair key v in b{i} weight by p) x"),
                _ => format!("(pick tuples from b{i} independently with probability p) x"),
            };
            db.run(&format!("create table t{i} as select * from {source}")).unwrap();
        }
        let conjuncts = join_conjuncts(n, &links, restriction, extra);
        let mut from: Vec<String> = (0..n).map(|i| format!("t{i} a{i}")).collect();
        if reversed {
            from.reverse();
        }
        let where_sql: Vec<String> = conjuncts.iter().map(Conj::sql).collect();
        let body = format!("from {} where {}", from.join(", "), where_sql.join(" and "));

        // Every world's join result, by nested loops over the instances.
        let stored: Vec<_> = (0..n).map(|i| db.table(&format!("t{i}")).unwrap().clone()).collect();
        let mut conf_truth: std::collections::BTreeMap<i64, f64> = Default::default();
        let mut ecount_truth = 0.0;
        let mut possible_truth: std::collections::BTreeSet<(i64, i64)> = Default::default();
        for (world, wp) in db.world_table().enumerate_worlds(1 << 16).unwrap() {
            let instances: Vec<Vec<[Option<f64>; 3]>> = stored
                .iter()
                .map(|u| {
                    u.instantiate(&world)
                        .tuples()
                        .iter()
                        .map(|t| [t.value(0).as_f64(), t.value(1).as_f64(), t.value(2).as_f64()])
                        .collect()
                })
                .collect();
            let mut seen = std::collections::BTreeSet::new();
            let mut pick = vec![0usize; n];
            if instances.iter().any(Vec::is_empty) {
                continue;
            }
            'combos: loop {
                let rows: Vec<[Option<f64>; 3]> =
                    (0..n).map(|t| instances[t][pick[t]]).collect();
                if conjuncts.iter().all(|c| c.holds(&rows)) {
                    ecount_truth += wp;
                    let first = rows[0][2].unwrap() as i64;
                    seen.insert(first);
                    if wp > 0.0 {
                        possible_truth.insert((first, rows[n - 1][2].unwrap() as i64));
                    }
                }
                for t in 0..n {
                    pick[t] += 1;
                    if pick[t] < instances[t].len() {
                        continue 'combos;
                    }
                    pick[t] = 0;
                }
                break;
            }
            for v in seen {
                *conf_truth.entry(v).or_insert(0.0) += wp;
            }
        }

        let out = db.query(&format!("select a0.v, conf() as c {body} group by a0.v")).unwrap();
        let got: std::collections::BTreeMap<i64, f64> = out
            .tuples()
            .iter()
            .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_f64().unwrap()))
            .collect();
        prop_assert_eq!(got.len(), conf_truth.len(), "{}: {:?} vs {:?}", body, got, conf_truth);
        for (v, p) in &got {
            prop_assert!((p - conf_truth[v]).abs() < 1e-9, "{}: {:?} vs {:?}", body, got, conf_truth);
        }
        let out = db.query(&format!("select ecount() as e {body}")).unwrap();
        let e = out.tuples()[0].value(0).as_f64().unwrap();
        prop_assert!((e - ecount_truth).abs() < 1e-9, "{}: ecount {} vs {}", body, e, ecount_truth);
        let out = db.query(&format!("select possible a0.v, a{}.v {body}", n - 1)).unwrap();
        let got: std::collections::BTreeSet<(i64, i64)> = out
            .tuples()
            .iter()
            .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
            .collect();
        prop_assert_eq!(out.len(), got.len(), "possible returned duplicates: {}", body);
        prop_assert_eq!(got, possible_truth, "{}", body);
    }
}
