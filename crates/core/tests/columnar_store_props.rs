//! Catalog-level property: the column store is invisible, and DML
//! mutates it in place.
//!
//! Random DML sequences (INSERT / UPDATE / DELETE / CREATE TABLE AS)
//! drive a live `MayBms` catalog — whose tables are column batches with
//! dictionary-encoded text — while the same sequence is applied to
//! a plain row-major oracle `Vec`. After every statement the stored
//! table must match the oracle **by variant and bit**: an `Int` must
//! come back `Int` (never a numerically-equal `Float`), floats must
//! round-trip to the exact bit pattern, and NULLs must stay NULL. After
//! every INSERT / UPDATE / DELETE the statement must not have pivoted a
//! single row. A final query runs
//! on 1-, 2-, and 8-thread pools and must be bit-identical across all
//! three.
//!
//! The deterministic cases below pin what in-place mutation could get
//! wrong: a reader still sharing the table body or a dictionary during
//! a write (copy-on-write), hashes cached on a dictionary that then
//! grows, and a typed column changing variant.
//!
//! The pivot counters are process-global, so the tests of this binary
//! serialize on one mutex.

use std::sync::{Mutex, MutexGuard};

use maybms_core::MayBms;
use maybms_engine::{ColumnData, Value};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one INSERT / UPDATE / DELETE and require that it edited `table`'s
/// columns in place: no row pivoted.
fn run_in_place(db: &mut MayBms, sql: &str, table: &str) {
    let before = maybms_obs::metrics().pivot_rows.get();
    db.run(sql).unwrap();
    assert_eq!(
        maybms_obs::metrics().pivot_rows.get(),
        before,
        "{sql} pivoted rows into {table}"
    );
}

/// One generated statement, with enough structure to mirror it onto the
/// oracle without re-implementing SQL.
#[derive(Debug, Clone)]
enum Dml {
    /// `insert into t values (s, n, f)`.
    Insert(Option<&'static str>, Option<i64>, Option<i64>),
    /// `update t set n = c where n > k`.
    Update(i64, i64),
    /// `delete from t where n < k`.
    Delete(i64),
    /// `create table uN as select * from t where n >= k`.
    Ctas(i64),
}

fn arb_dml() -> impl Strategy<Value = Dml> {
    let key = prop::option::of(prop::sample::select(vec!["a", "b", "c"]));
    prop_oneof![
        (key, prop::option::of(0i64..6), prop::option::of(0i64..8))
            .prop_map(|(s, n, f)| Dml::Insert(s, n, f)),
        (0i64..6, 0i64..6).prop_map(|(c, k)| Dml::Update(c, k)),
        (0i64..6).prop_map(Dml::Delete),
        (0i64..6).prop_map(Dml::Ctas),
    ]
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
    }
}

/// Variant- and bit-exact comparison: `Int(1)` ≠ `Float(1.0)` here even
/// though SQL comparison calls them equal, and floats compare by bits.
fn assert_cell(got: &Value, want: &Value, ctx: &str) {
    match (got, want) {
        (Value::Float(a), Value::Float(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "float bits, {ctx}")
        }
        (a, b) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "variant, {ctx}: {a:?} vs {b:?}"
        ),
    }
    assert_eq!(got, want, "{ctx}");
}

fn check_table(db: &MayBms, name: &str, oracle: &[Vec<Value>], ctx: &str) {
    let table = db.table(name).unwrap();
    let got = table.tuples();
    assert_eq!(got.len(), oracle.len(), "row count of {name}, {ctx}");
    for (i, (g, w)) in got.iter().zip(oracle).enumerate() {
        assert_eq!(g.data.arity(), w.len());
        for (c, (gv, wv)) in g.data.values().iter().zip(w).enumerate() {
            assert_cell(gv, wv, &format!("{name}[{i}][{c}], {ctx}"));
        }
    }
}

fn as_int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dml_on_columnar_store_matches_row_oracle(ops in prop::collection::vec(arb_dml(), 0..12)) {
        let _l = lock();
        let mut db = MayBms::new();
        db.run("create table t (s text, n int, f float)").unwrap();
        let mut oracle: Vec<Vec<Value>> = Vec::new();
        let mut ctas: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Dml::Insert(s, n, f) => {
                    let row = vec![
                        s.map_or(Value::Null, Value::str),
                        n.map_or(Value::Null, Value::Int),
                        // Halves are exactly representable, so the SQL
                        // literal round-trips bit-exactly.
                        f.map_or(Value::Null, |x| Value::Float(x as f64 / 2.0)),
                    ];
                    let lits: Vec<String> = row.iter().map(sql_literal).collect();
                    let sql = format!("insert into t values ({})", lits.join(", "));
                    run_in_place(&mut db, &sql, "t");
                    oracle.push(row);
                }
                Dml::Update(c, k) => {
                    run_in_place(&mut db, &format!("update t set n = {c} where n > {k}"), "t");
                    for row in &mut oracle {
                        if as_int(&row[1]).is_some_and(|n| n > *k) {
                            row[1] = Value::Int(*c);
                        }
                    }
                }
                Dml::Delete(k) => {
                    run_in_place(&mut db, &format!("delete from t where n < {k}"), "t");
                    oracle.retain(|row| as_int(&row[1]).is_none_or(|n| n >= *k));
                }
                Dml::Ctas(k) => {
                    let name = format!("u{i}");
                    db.run(&format!(
                        "create table {name} as select * from t where n >= {k}"
                    ))
                    .unwrap();
                    let snap: Vec<Vec<Value>> = oracle
                        .iter()
                        .filter(|row| as_int(&row[1]).is_some_and(|n| n >= *k))
                        .cloned()
                        .collect();
                    ctas.push((name, snap));
                }
            }
            check_table(&db, "t", &oracle, &format!("after op {i} ({op:?})"));
        }
        for (name, snap) in &ctas {
            check_table(&db, name, snap, "final");
        }
        // The same query must come back bit-identical at 1/2/8 threads.
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            maybms_par::set_threads(threads);
            let r = db
                .query("select s, count(*) as n, sum(f) as sf from t group by s")
                .unwrap();
            results.push((threads, r));
        }
        for w in results.windows(2) {
            let (ta, a) = &w[0];
            let (tb, b) = &w[1];
            prop_assert_eq!(a.tuples(), b.tuples(), "threads {} vs {}", ta, tb);
        }
    }
}

fn rows_of(db: &MayBms, name: &str) -> Vec<Vec<Value>> {
    db.table(name)
        .unwrap()
        .tuples()
        .iter()
        .map(|t| t.data.values().to_vec())
        .collect()
}

/// A reader holding the table body (an `Arc` clone, as a snapshot or a
/// stage-less scan result does) or one of its dictionaries (a gathered
/// selection) must not see a later write: the writer copies first.
#[test]
fn held_readers_are_unchanged_by_writes() {
    let _l = lock();
    let mut db = MayBms::new();
    db.run("create table t (s text, n int)").unwrap();
    db.run("insert into t values ('a', 1), ('b', 2), ('a', 3)")
        .unwrap();
    // A gather shares the table's dictionary.
    let gathered = db.table("t").unwrap().gather(&[2, 0]);
    let before = rows_of(&db, "t");
    let held = db.table("t").unwrap().clone();
    let (batch, _) = gathered.at_rest();
    let ColumnData::Dict {
        dict: held_dict, ..
    } = batch.column(0).data()
    else {
        panic!("text column must be dictionary-encoded")
    };
    let held_dict = held_dict.clone();
    assert_eq!(held_dict.len(), 2);

    run_in_place(&mut db, "insert into t values ('unseen', 4)", "t");
    run_in_place(
        &mut db,
        "update t set s = 'other', n = n + 10 where n = 2",
        "t",
    );
    run_in_place(&mut db, "delete from t where n = 1", "t");

    assert_eq!(
        rows_of(&db, "t"),
        vec![
            vec![Value::str("other"), Value::Int(12)],
            vec![Value::str("a"), Value::Int(3)],
            vec![Value::str("unseen"), Value::Int(4)],
        ]
    );
    // The held body and the held dictionary are what they were.
    let held_rows: Vec<Vec<Value>> = held
        .tuples()
        .iter()
        .map(|t| t.data.values().to_vec())
        .collect();
    assert_eq!(held_rows, before);
    assert_eq!(
        held_dict.len(),
        2,
        "a shared dictionary grew under its reader"
    );
    assert_eq!(
        gathered.tuples()[0].data.values(),
        [Value::str("a"), Value::Int(3)]
    );
    assert_eq!(
        gathered.tuples()[1].data.values(),
        [Value::str("a"), Value::Int(1)]
    );
}

/// Joins and GROUP BY cache per-entry hashes on a stored dictionary. An
/// INSERT or UPDATE that interns an unseen string must not leave them
/// covering only the old entries.
#[test]
fn unseen_string_after_cached_hashes_joins_and_groups() {
    let _l = lock();
    let mut db = MayBms::new();
    db.run("create table dim (room text, floor int)").unwrap();
    db.run("insert into dim values ('r1', 1), ('r2', 2)")
        .unwrap();
    db.run("create table fact (room text, v int)").unwrap();
    db.run("insert into fact values ('r1', 10), ('r3', 30), ('r4', 40), ('r3', 31)")
        .unwrap();
    let join = "select f.v, d.floor from fact f, dim d where f.room = d.room";
    let group = "select room, count(*) as n from dim group by room";
    // Warm the caches on dim's dictionary (build side, group keys).
    assert_eq!(db.query(join).unwrap().len(), 1);
    assert_eq!(db.query(group).unwrap().len(), 2);

    run_in_place(&mut db, "insert into dim values ('r3', 3)", "dim");
    let r = db.query(join).unwrap();
    let got: Vec<Vec<Value>> = r.tuples().iter().map(|t| t.values().to_vec()).collect();
    assert_eq!(
        got,
        vec![
            vec![Value::Int(10), Value::Int(1)],
            vec![Value::Int(30), Value::Int(3)],
            vec![Value::Int(31), Value::Int(3)],
        ]
    );
    run_in_place(&mut db, "update dim set room = 'r4' where floor = 2", "dim");
    assert_eq!(db.query(join).unwrap().len(), 4);
    let r = db.query(group).unwrap();
    let got: Vec<Vec<Value>> = r.tuples().iter().map(|t| t.values().to_vec()).collect();
    assert_eq!(
        got,
        vec![
            vec![Value::str("r1"), Value::Int(1)],
            vec![Value::str("r4"), Value::Int(1)],
            vec![Value::str("r3"), Value::Int(1)],
        ]
    );
}

/// An UPDATE that writes another variant into a typed column degrades
/// it to per-row values, exactly (every other cell keeps its variant),
/// and an INSERT into the degraded column keeps working.
#[test]
fn update_changing_a_typed_columns_variant_degrades_it() {
    let _l = lock();
    let mut db = MayBms::new();
    db.run("create table t (n int, f float)").unwrap();
    db.run("insert into t values (1, 0.5), (2, 1.5), (null, null), (4, 2.5)")
        .unwrap();
    let (batch, _) = db.table("t").unwrap().at_rest();
    assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));

    run_in_place(&mut db, "update t set n = 2.5 where n = 2", "t");
    let (batch, _) = db.table("t").unwrap().at_rest();
    assert!(matches!(batch.column(0).data(), ColumnData::Values(_)));
    assert!(matches!(batch.column(1).data(), ColumnData::Float(_)));
    run_in_place(&mut db, "insert into t values (5, 3)", "t");
    run_in_place(&mut db, "update t set f = null where n = 1", "t");

    let want = vec![
        vec![Value::Int(1), Value::Null],
        vec![Value::Float(2.5), Value::Float(1.5)],
        vec![Value::Null, Value::Null],
        vec![Value::Int(4), Value::Float(2.5)],
        vec![Value::Int(5), Value::Int(3)],
    ];
    check_table(&db, "t", &want, "after degradation");
    // Arithmetic over the mixed column still follows the stored variants.
    let r = db.query("select n + 1 as m from t where n > 1").unwrap();
    let got: Vec<Value> = r.tuples().iter().map(|t| t.value(0).clone()).collect();
    assert_eq!(got, vec![Value::Float(3.5), Value::Int(5), Value::Int(6)]);
}
