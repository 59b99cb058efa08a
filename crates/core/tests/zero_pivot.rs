//! Acceptance: a kernel-eligible σ/π chain over a stored table runs
//! end-to-end with ZERO row→column pivots — the scan hands the
//! vectorised prefix column slices straight out of the stored
//! `ColumnBatch` — and both EXPLAIN and EXPLAIN ANALYZE mark the scan as
//! columnar. Intermediates are column batches too: a `repair key`
//! result, a FROM subquery and a `UNION ALL` feed later pipelines, and
//! `CREATE TABLE AS` installs a result, without a pivot.
//!
//! One test function, in its own integration-test binary: the pivot
//! counters are process-global, so nothing else may pivot between the
//! snapshot and the assertion.

use maybms_core::{MayBms, StatementResult};
use maybms_engine::{DataType, Value};
use maybms_urel::rel;

#[test]
fn kernel_eligible_scan_is_zero_pivot_and_marked_in_explain() {
    let mut db = MayBms::new();
    let rows: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            vec![
                Value::str(format!("p{}", i % 7)),
                (i % 50).into(),
                Value::Float(i as f64 / 10.0),
            ]
        })
        .collect();
    db.register(
        "games",
        rel(
            &[
                ("player", DataType::Text),
                ("pts", DataType::Int),
                ("mins", DataType::Float),
            ],
            rows,
        ),
    )
    .unwrap();
    // Registration pivoted the rows into the stored columns: the one
    // pivot this data ever pays. From here on: zero.
    let m = maybms_obs::metrics();
    let pivots_before = m.pivots.get();
    let pivot_rows_before = m.pivot_rows.get();

    let r = db
        .query("select player, pts from games where pts > 25 and mins < 90.0")
        .unwrap();
    assert_eq!(
        r.len(),
        (0..1000).filter(|i| i % 50 > 25 && (i / 10) < 90).count()
    );

    assert_eq!(
        m.pivots.get(),
        pivots_before,
        "kernel-eligible σ/π chain over a columnar base table must not pivot"
    );
    assert_eq!(m.pivot_rows.get(), pivot_rows_before);

    // The scan advertises the zero-pivot path in both EXPLAIN flavours.
    let StatementResult::Ok { message: plain } = db
        .run("explain select player, pts from games where pts > 25")
        .unwrap()
    else {
        panic!("EXPLAIN must return a message")
    };
    assert!(plain.contains("(columnar, zero-pivot)"), "{plain}");
    let StatementResult::Ok { message: analyzed } = db
        .run("explain analyze select player, pts from games where pts > 25")
        .unwrap()
    else {
        panic!("EXPLAIN ANALYZE must return a message")
    };
    assert!(analyzed.contains("(columnar, zero-pivot)"), "{analyzed}");

    // EXPLAIN ANALYZE executed the query — still not a single pivot.
    assert_eq!(m.pivots.get(), pivots_before);

    // Intermediates feeding later pipelines stay columns.
    db.run("create table teams (player text, team text)")
        .unwrap();
    db.run("insert into teams values ('p0', 'A'), ('p1', 'A'), ('p2', 'B'), ('p3', 'C')")
        .unwrap();
    let cases = [
        // An inline `repair key` joined to a table.
        (
            "select t.team, conf() as p from \
             (repair key player in games weight by pts) r, teams t \
             where r.player = t.player group by t.team",
            3,
        ),
        // A FROM subquery filtered by an outer σ.
        (
            "select s.player, s.q from (select player, pts + 1 as q from games) s \
             where s.q > 48",
            40,
        ),
        // A `UNION ALL` as a join's build side.
        (
            "select g.pts from games g, \
             (select player from teams union all select player from teams where team = 'A') u \
             where g.player = u.player and g.pts = 7",
            18,
        ),
    ];
    for (sql, rows) in cases {
        let before = (m.pivots.get(), m.pivot_rows.get());
        assert_eq!(db.query(sql).unwrap().len(), rows, "{sql}");
        assert_eq!(
            (m.pivots.get(), m.pivot_rows.get()),
            before,
            "{sql} pivoted"
        );
    }
    // `CREATE TABLE AS` installs the `repair key` result as it is.
    let before = (m.pivots.get(), m.pivot_rows.get());
    db.run("create table rk as select * from (repair key player in games weight by pts) r")
        .unwrap();
    assert_eq!(
        (m.pivots.get(), m.pivot_rows.get()),
        before,
        "CREATE TABLE AS pivoted"
    );
    assert_eq!(db.table("rk").unwrap().len(), 980);
}
