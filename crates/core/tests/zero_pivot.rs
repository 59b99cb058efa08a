//! Acceptance: a kernel-eligible σ/π chain over a columnar-at-rest base
//! table runs end-to-end with ZERO row→column pivots — the scan hands
//! the vectorised prefix borrowed column slices straight out of the
//! stored `ColumnBatch` — and both EXPLAIN and EXPLAIN ANALYZE mark the
//! scan as columnar.
//!
//! One test function, in its own integration-test binary: the pivot
//! counters are process-global, so nothing else may pivot between the
//! snapshot and the assertion.

use maybms_core::{MayBms, StatementResult};
use maybms_engine::{rel, DataType, Value};

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
    // Registration installed the table columnar-at-rest (that was the
    // one pivot this data ever pays). From here on: zero.
    assert!(db.table("games").unwrap().is_columnar());
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
}
