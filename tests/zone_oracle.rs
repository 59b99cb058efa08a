//! Zone maps never change what a scan returns or raises.
//!
//! The morsel driver skips the zones of a source that a leading
//! `column op literal` filter cannot match (`maybms_pipe::fuse`, the skip
//! rule). The oracle for every case here is the scan without any
//! pruning: a scalar walk over the source's row view, each row in order
//! through each conjunct in order ([`scalar_scan`]). Rows, their order
//! and the first error must be identical —
//!
//! * over generated `Int` columns (sorted, shuffled, with NULLs, with
//!   all-NULL zones, with values at ±2^53 and `i64::MIN` / `MAX`), each
//!   comparison operator with the column on either side, against `Int`,
//!   `Float`, NaN, NULL and string literals, with fallible stages before
//!   and after the prunable one, at 1/2/8 threads and single-row morsels;
//! * through SQL, after INSERT / UPDATE / DELETE interleavings, after a
//!   checkpoint and reopen, and on a delta-WAL tail — where the cached
//!   zones must also equal a fresh build over the stored batch;
//! * for DML: `DELETE` and `UPDATE` touch exactly the rows `SELECT`
//!   returns for the same `WHERE`, and fail iff it fails.

use std::sync::Arc;

use maybms::engine::{BinaryOp, DataType, Expr, Value};
use maybms::par::ThreadPool;
use maybms::pipe::UStream;
use maybms::store::MemVfs;
use maybms::urel::{rel, URelation, UrelError, ZONE_ROWS};
use maybms::{MayBms, StatementResult};
use maybms_obs::QueryStats;

/// A deterministic xorshift stream, so every run tests the same data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

const OPS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
];

/// One conjunct: its SQL text and the engine predicate it plans to.
#[derive(Clone)]
struct Conj {
    sql: String,
    expr: Expr,
}

/// `col op lit`, or `lit op col` when `col_left` is false.
fn cmp(col: &str, op: BinaryOp, lit: Value, col_left: bool) -> Conj {
    let text = match &lit {
        Value::Str(s) => format!("'{s}'"),
        v => v.to_string(),
    };
    let (c, l) = (Expr::col(col), Expr::lit(lit));
    match col_left {
        true => Conj {
            sql: format!("{col} {op} {text}"),
            expr: c.binary(op, l),
        },
        false => Conj {
            sql: format!("{text} {op} {col}"),
            expr: l.binary(op, c),
        },
    }
}

/// `100 / col > 0`: raises division by zero where `col` is 0.
fn divides(col: &str) -> Conj {
    let e = Expr::lit(100i64).binary(BinaryOp::Div, Expr::col(col));
    Conj {
        sql: format!("100 / {col} > 0"),
        expr: e.binary(BinaryOp::Gt, Expr::lit(0i64)),
    }
}

/// The oracle: the positions of the rows of `t` every conjunct keeps,
/// by [`Expr::eval_predicate`] over the row view — row by row, conjunct
/// by conjunct, the first error raised wins — or that error's text.
fn scalar_scan(t: &URelation, conjs: &[Conj]) -> Result<Vec<usize>, String> {
    let bound: Vec<Expr> = conjs
        .iter()
        .map(|c| c.expr.bind(t.schema()).unwrap())
        .collect();
    let mut kept = Vec::new();
    'rows: for (i, row) in t.tuples().iter().enumerate() {
        for e in &bound {
            match e.eval_predicate(&row.data) {
                Ok(true) => {}
                Ok(false) => continue 'rows,
                Err(e) => return Err(UrelError::from(e).to_string()),
            }
        }
        kept.push(i);
    }
    Ok(kept)
}

/// Rows (values and conditions) or the error's text.
type Outcome = Result<Vec<(Vec<Value>, String)>, String>;

/// [`outcome`] of the rows of `t` at `positions`.
fn outcome_at(t: &URelation, positions: &Result<Vec<usize>, String>) -> Outcome {
    let rows = t.tuples();
    positions.clone().map(|sel| {
        sel.iter()
            .map(|&i| (rows[i].values().to_vec(), rows[i].wsd.to_string()))
            .collect()
    })
}

fn outcome(r: Result<URelation, impl ToString>) -> Outcome {
    r.map(|u| {
        u.tuples()
            .iter()
            .map(|t| (t.data.values().to_vec(), t.wsd.to_string()))
            .collect()
    })
    .map_err(|e| e.to_string())
}

fn stream(source: &URelation, conjs: &[Conj]) -> UStream {
    conjs.iter().fold(UStream::new(source.clone()), |s, c| {
        s.filter(&c.expr).unwrap()
    })
}

/// The cached zone maps of `t` equal a fresh build over its batch.
fn assert_zones_fresh(t: &URelation) {
    let (batch, wsds) = t.at_rest();
    let fresh = URelation::from_batch(t.schema().clone(), batch.clone(), wsds.to_vec());
    for c in 0..t.schema().len() {
        assert_eq!(t.zones(c), fresh.zones(c), "zones of column {c}");
    }
}

const EDGES: [i64; 9] = [
    i64::MIN,
    i64::MIN + 1,
    -(1 << 53) - 1,
    -(1 << 53),
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    i64::MAX - 1,
    i64::MAX,
];

/// 6 000 rows (five full zones and a partial one) over the generated
/// columns the module docs list, plus a passable Float and text column,
/// a divisor with two zeros and a mixed-variant column.
fn generated() -> URelation {
    assert_eq!(
        ZONE_ROWS, 1024,
        "the data below is laid out for 1 024-row zones"
    );
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let rows = (0..6000i64)
        .map(|i| {
            let zone = i / 1024;
            let null_every = |n: i64, v: i64| {
                if i % n == 0 {
                    Value::Null
                } else {
                    Value::Int(v)
                }
            };
            vec![
                null_every(13, i - 3000),
                null_every(11, rng.below(1001) - 500),
                if zone == 1 || zone == 3 {
                    Value::Null
                } else {
                    Value::Int(i % 97)
                },
                Value::Int(EDGES[(zone as usize + rng.below(4) as usize).min(8)]),
                Value::Float(i as f64 / 10.0),
                Value::str(format!("s{}", i % 5)),
                Value::Int(if i == 2500 || i == 5900 { 0 } else { 1 + i % 9 }),
                if i % 1000 == 999 {
                    Value::str("x")
                } else {
                    Value::Int(i % 10)
                },
            ]
        })
        .collect();
    let names = [
        ("sorted", DataType::Int),
        ("shuffled", DataType::Int),
        ("nullzones", DataType::Int),
        ("extreme", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Text),
        ("d", DataType::Int),
        ("m", DataType::Int),
    ];
    rel(&names, rows).dict_encode()
}

/// The literals each generated column is compared with.
fn literals(col: &str) -> Vec<Value> {
    let ints: Vec<i64> = match col {
        "sorted" => vec![-3001, -2000, 0, 1500, 2999, 3000],
        "shuffled" => vec![-501, -500, 0, 500],
        "nullzones" => vec![0, 50, 96, 97],
        _ => EDGES.to_vec(),
    };
    let mut lits: Vec<Value> = ints.into_iter().map(Value::Int).collect();
    lits.extend([
        Value::Float(1500.5),
        Value::Float(9007199254740992.0),
        Value::Float(f64::NAN),
    ]);
    lits.extend([Value::Float(-f64::NAN), Value::Null, Value::str("x")]);
    lits
}

/// Every prunable comparison in one of seven shapes: alone; before or
/// after a fallible stage (division, mixed-variant column); behind
/// passed-over Float and text stages; and beside a second prunable one.
#[test]
fn pruned_scans_equal_unpruned_scans() {
    let table = generated();
    let zones = table.zones(2).expect("an Int column has zones");
    assert_eq!(zones.len(), 6);
    assert!(
        zones[1].0 > zones[1].1 && zones[3].0 > zones[3].1,
        "all-NULL zones are empty"
    );
    let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(8)];
    let qs = QueryStats::new();
    let mut cases = 0;
    for col in ["sorted", "shuffled", "nullzones", "extreme"] {
        for (k, lit) in literals(col).into_iter().enumerate() {
            for (o, op) in OPS.into_iter().enumerate() {
                for col_left in [true, false] {
                    let p = cmp(col, op, lit.clone(), col_left);
                    let shape = (k + o + usize::from(col_left)) % 7;
                    let conjs = match shape {
                        0 => vec![p],
                        1 => vec![p, divides("d")],
                        2 => vec![divides("d"), p],
                        3 => vec![
                            cmp("f", BinaryOp::Gt, Value::Int(12), true),
                            cmp("s", BinaryOp::NotEq, Value::str("s1"), false),
                            p,
                        ],
                        4 => vec![p, cmp("sorted", BinaryOp::Lt, Value::Int(1000), true)],
                        5 => vec![p, cmp("m", BinaryOp::Lt, Value::Int(5), true)],
                        _ => vec![cmp("m", BinaryOp::GtEq, Value::Int(2), true), p],
                    };
                    let want_positions = scalar_scan(&table, &conjs);
                    let want = outcome_at(&table, &want_positions);
                    for (pool, min_morsel) in
                        pools.iter().map(|p| (p, 1)).chain([(&pools[1], 4096)])
                    {
                        let what = format!(
                            "{} at {} threads, morsel {min_morsel}",
                            conjs
                                .iter()
                                .map(|c| c.sql.as_str())
                                .collect::<Vec<_>>()
                                .join(" and "),
                            pool.threads()
                        );
                        let got = stream(&table, &conjs).collect_with(pool, min_morsel, &qs);
                        assert_eq!(outcome(got), want, "{what}");
                        let positions =
                            stream(&table, &conjs).select_positions(pool, min_morsel, &qs);
                        assert_eq!(
                            positions.map_err(|e| e.to_string()),
                            want_positions,
                            "positions of {what}"
                        );
                    }
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 500);
    // The mechanism engaged: zones were consulted and many skipped.
    let (zones, read) = qs.pipelines().iter().fold((0, 0), |(z, r), p| {
        (z + p.zones.get(), r + p.zones_read.get())
    });
    assert!(
        zones > 0 && read * 4 < zones * 3,
        "read {read} of {zones} zones"
    );
    assert_zones_fresh(&table);
}

/// A point lookup on a sorted column reads one zone and counts only the
/// rows it read.
#[test]
fn a_point_lookup_reads_one_zone() {
    let table = generated();
    let qs = QueryStats::new();
    let conjs = [cmp("sorted", BinaryOp::Eq, Value::Int(10), true)];
    let got = stream(&table, &conjs)
        .collect_with(&ThreadPool::new(2), 1, &qs)
        .unwrap();
    assert_eq!(got.len(), 1);
    let p = &qs.pipelines()[0];
    assert_eq!((p.zones_read.get(), p.zones.get()), (1, 6));
    assert_eq!(p.rows_in.get(), ZONE_ROWS as u64);
}

fn rows(db: &mut MayBms, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    db.query(sql)
        .map(|r| r.tuples().iter().map(|t| t.values().to_vec()).collect())
        .map_err(|e| e.to_string())
}

/// The WHERE clauses the SQL-level cases run, as conjunct lists.
fn sql_wheres() -> Vec<Vec<Conj>> {
    let mut wheres = Vec::new();
    for (k, op) in OPS.into_iter().enumerate() {
        let lits = [
            Value::Int(100 + 37 * k as i64),
            Value::Float(450.5),
            Value::Null,
        ];
        for (j, lit) in lits.into_iter().enumerate() {
            wheres.push(vec![
                cmp("k", op, lit.clone(), j % 2 == 0),
                cmp("v", BinaryOp::Gt, Value::Int(20), true),
            ]);
            wheres.push(vec![cmp("v", op, lit, true), divides("d")]);
        }
    }
    wheres.push(vec![cmp("k", BinaryOp::Lt, Value::str("x"), true)]);
    wheres.push(vec![
        divides("d"),
        cmp("k", BinaryOp::GtEq, Value::Int(900), true),
    ]);
    wheres.push(vec![
        cmp("s", BinaryOp::Eq, Value::str("s2"), true),
        cmp("k", BinaryOp::Lt, Value::Int(300), false),
    ]);
    wheres
}

/// Every WHERE of [`sql_wheres`] over `t` through SQL, at 1/2/8
/// threads, against the scalar walk over its rows; then the cached zones
/// against a fresh build.
fn check_sql(db: &mut MayBms) {
    let table = db.table("t").unwrap().clone();
    let before = maybms_par::current_threads();
    for conjs in sql_wheres() {
        let clause: Vec<&str> = conjs.iter().map(|c| c.sql.as_str()).collect();
        let sql = format!("select * from t where {}", clause.join(" and "));
        let want = outcome_at(&table, &scalar_scan(&table, &conjs))
            .map(|rows| rows.into_iter().map(|(values, _)| values).collect());
        for threads in [1, 2, 8] {
            maybms_par::set_threads(threads);
            assert_eq!(rows(db, &sql), want, "{sql} at {threads} threads");
        }
    }
    maybms_par::set_threads(before);
    assert_zones_fresh(db.table("t").unwrap());
}

fn insert(db: &mut MayBms, rng: &mut Rng, ids: std::ops::Range<i64>) {
    let values: Vec<String> = ids
        .map(|id| {
            let v = if id % 17 == 0 {
                "null".to_string()
            } else {
                rng.below(900).to_string()
            };
            let d = if id % 1500 == 1499 { 0 } else { 1 + id % 5 };
            format!("({id}, {}, {v}, {d}, 's{}')", id / 4, id % 4)
        })
        .collect();
    db.run(&format!("insert into t values {}", values.join(", ")))
        .unwrap();
}

#[test]
fn sql_scans_match_the_oracle_through_writes_checkpoint_and_wal_tail() {
    let mem = MemVfs::new();
    let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    let mut rng = Rng(7);
    db.run("create table t (id bigint, k bigint, v bigint, d bigint, s text)")
        .unwrap();
    for lo in (0..4000).step_by(500) {
        insert(&mut db, &mut rng, lo..lo + 500);
    }
    check_sql(&mut db);
    db.checkpoint().unwrap();
    // A delta-WAL tail: every kind of write, each followed by the scans.
    let tail = [
        "update t set k = k + 2000 where id >= 1000 and id < 1100",
        "delete from t where k >= 300 and k < 420",
        "update t set v = null where v > 850",
        "delete from t where id % 7 = 3 and k > 700",
        "update t set k = -k where id < 50",
    ];
    for (n, sql) in tail.iter().enumerate() {
        db.run(sql).unwrap();
        check_sql(&mut db);
        insert(
            &mut db,
            &mut rng,
            4000 + 100 * n as i64..4100 + 100 * n as i64,
        );
        check_sql(&mut db);
    }
    drop(db);
    let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    assert_eq!(db.recovery_report().unwrap().replayed, 2 * tail.len());
    check_sql(&mut db);
    db.checkpoint().unwrap();
    drop(db);
    let mut db = MayBms::open_with_vfs(Arc::new(mem)).unwrap();
    assert_eq!(db.recovery_report().unwrap().replayed, 0);
    check_sql(&mut db);
}

/// A fresh in-memory database holding `u`: ids 0..3000 over a sorted
/// key, a value with NULLs, a divisor with zeros, a mixed-variant column
/// and a flag.
fn dml_fixture() -> MayBms {
    let mut db = MayBms::new();
    let rows = (0..3000i64)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(id / 3),
                if id % 10 == 4 {
                    Value::Null
                } else {
                    Value::Int(id % 50)
                },
                Value::Int(if id % 1000 == 777 { 0 } else { 1 + id % 4 }),
                if id == 2222 {
                    Value::str("x")
                } else {
                    Value::Int(id % 9)
                },
                Value::Int(0),
            ]
        })
        .collect();
    let schema = [
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Int),
        ("d", DataType::Int),
        // Mixed variants make an untyped column (as `CREATE TABLE AS`
        // over an untyped expression gives): `register`, like `INSERT`,
        // refuses a text value in a `bigint` one.
        ("m", DataType::Unknown),
        ("flag", DataType::Int),
    ];
    db.register("u", rel(&schema, rows)).unwrap();
    db
}

fn ids(db: &mut MayBms, sql: &str) -> Result<Vec<i64>, String> {
    rows(db, sql).map(|rs| rs.iter().map(|r| r[0].as_int().unwrap()).collect())
}

fn dml_count(r: Result<StatementResult, maybms::CoreError>) -> Result<usize, String> {
    match r.map_err(|e| e.to_string())? {
        StatementResult::Ok { message } => Ok(message.rsplit(' ').next().unwrap().parse().unwrap()),
        other => panic!("DML returned {other:?}"),
    }
}

#[test]
fn delete_and_update_touch_exactly_the_rows_select_returns() {
    let wheres = [
        "k >= 100 and k < 140",
        "140 > k and v = 7",
        "k = 500",
        "k <> 0 and k <> 999",
        "k > 980.5",
        "k < 'x'",
        "v > 10 and 100 / d > 0",
        "k >= 200 and k < 300 and 100 / d > 0",
        "k >= 300 and 100 / d > 0",
        "v < 3 and 100 / d > 0", // NULL v drops the row before the division
        "100 / d > 0 and k < 10",
        "k > 700 and m < 5",
        "m < 5 and k < 100",
        "k < 100 and m < 5",
        "k = null",
        "k between 10 and 20 or v = 3",
    ];
    for w in wheres {
        let selected = ids(&mut dml_fixture(), &format!("select id from u where {w}"));
        let mut db = dml_fixture();
        let updated = dml_count(db.run(&format!("update u set flag = 1 where {w}")));
        match &selected {
            Ok(want) => {
                assert_eq!(updated, Ok(want.len()), "update where {w}");
                assert_eq!(
                    &ids(&mut db, "select id from u where flag = 1").unwrap(),
                    want,
                    "{w}"
                );
            }
            Err(e) => assert_eq!(updated.as_ref().unwrap_err(), e, "update where {w}"),
        }
        let mut db = dml_fixture();
        let deleted = dml_count(db.run(&format!("delete from u where {w}")));
        let left = ids(&mut db, "select id from u").unwrap();
        match &selected {
            Ok(want) => {
                assert_eq!(deleted, Ok(want.len()), "delete where {w}");
                let kept: Vec<i64> = (0..3000).filter(|id| !want.contains(id)).collect();
                assert_eq!(left, kept, "delete where {w}");
            }
            Err(e) => {
                assert_eq!(deleted.as_ref().unwrap_err(), e, "delete where {w}");
                assert_eq!(
                    left.len(),
                    3000,
                    "a failed delete where {w} changed the table"
                );
            }
        }
    }
}
