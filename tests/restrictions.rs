//! The §2.2 typing rules: "Some restrictions are in place to assure that
//! query evaluation is feasible." Every restriction must fail loudly, with
//! an error that names the rule.

use maybms::{CoreError, MayBms};
use maybms_engine::{DataType, Value};
use maybms_urel::rel;

fn db_with_uncertain() -> MayBms {
    let mut db = MayBms::new();
    db.register(
        "t",
        rel(
            &[
                ("k", DataType::Int),
                ("v", DataType::Int),
                ("p", DataType::Float),
            ],
            vec![
                vec![1.into(), 10.into(), Value::Float(0.5)],
                vec![1.into(), 20.into(), Value::Float(0.5)],
                vec![2.into(), 30.into(), Value::Float(0.5)],
            ],
        ),
    )
    .unwrap();
    db.run("create table u as select * from (pick tuples from t) x")
        .unwrap();
    db
}

#[test]
fn standard_aggregates_forbidden_on_uncertain() {
    // "we do not support the standard SQL aggregates such as sum or count
    // on uncertain relations (but we do support expectations of
    // aggregates)".
    let mut db = db_with_uncertain();
    for agg in ["sum(v)", "count(*)", "avg(v)", "min(v)", "max(v)"] {
        let err = db.run(&format!("select {agg} from u")).unwrap_err();
        assert!(
            matches!(err, CoreError::Typing { .. }),
            "{agg}: expected typing error, got {err:?}"
        );
    }
    // The expectations are supported instead.
    assert!(db.run("select esum(v), ecount() from u").is_ok());
}

#[test]
fn standard_aggregates_fine_on_certain() {
    let mut db = db_with_uncertain();
    assert!(db.run("select sum(v), count(*), avg(v) from t").is_ok());
}

#[test]
fn select_distinct_forbidden_on_uncertain() {
    // "By using aggregation syntax and not supporting select distinct on
    // uncertain relations, we avoid the need for conditions beyond the
    // special conjunctions…".
    let mut db = db_with_uncertain();
    // GROUP BY with no aggregate is DISTINCT by another name: it must not
    // hand out possible-but-not-certain keys as t-certain rows.
    for sql in ["select distinct k from u", "select k from u group by k"] {
        let err = db.run(sql).unwrap_err();
        assert!(matches!(err, CoreError::Typing { .. }), "{sql}: {err:?}");
    }
    // `possible` and a confidence aggregate are the sanctioned alternatives.
    assert!(db.run("select possible k from u").is_ok());
    assert!(db.run("select k, conf() from u group by k").is_ok());
    // Both spellings on certain tables are plain SQL, and agree.
    let distinct = db.query("select distinct k from t").unwrap();
    let grouped = db.query("select k from t group by k").unwrap();
    assert_eq!(distinct.tuples(), grouped.tuples());
    assert_eq!(distinct.len(), 2);
}

#[test]
fn repair_key_requires_t_certain_input() {
    let mut db = db_with_uncertain();
    let err = db
        .run("select * from (repair key k in u weight by p) r")
        .unwrap_err();
    assert!(err.to_string().contains("t-certain"), "{err}");
}

#[test]
fn pick_tuples_requires_t_certain_input() {
    let mut db = db_with_uncertain();
    let err = db.run("select * from (pick tuples from u) r").unwrap_err();
    assert!(err.to_string().contains("t-certain"), "{err}");
}

#[test]
fn limit_forbidden_on_uncertain_result() {
    let mut db = db_with_uncertain();
    let err = db.run("select * from u limit 1").unwrap_err();
    assert!(matches!(err, CoreError::Typing { .. }), "{err:?}");
    // The LIMIT bounds the sort under it, but the typing rule still
    // holds, and a sort key's error still comes before it.
    let err = db.run("select * from u order by k limit 1").unwrap_err();
    assert!(matches!(err, CoreError::Typing { .. }), "{err:?}");
    let err = db
        .run("select * from u order by 1 / (k - k) limit 1")
        .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err:?}");
    // The rule reads the sort's whole input, not its top rows: an empty
    // top-n, or a top row that happens to be certain, is still refused.
    for q in [
        "select * from u order by k limit 0",
        "select * from t union all select * from u order by k limit 1",
    ] {
        let err = db.run(q).unwrap_err();
        assert!(matches!(err, CoreError::Typing { .. }), "{q}: {err:?}");
    }
    assert!(db.run("select k, conf() from u group by k limit 1").is_ok());
}

#[test]
fn argmax_requires_t_certain() {
    let mut db = db_with_uncertain();
    let err = db.run("select argmax(k, v) from u").unwrap_err();
    assert!(matches!(err, CoreError::Typing { .. }), "{err:?}");
    assert!(db.run("select argmax(k, v) from t").is_ok());
}

#[test]
fn argmax_cannot_mix_with_other_aggregates() {
    let mut db = db_with_uncertain();
    let err = db.run("select argmax(k, v), count(*) from t").unwrap_err();
    assert!(matches!(err, CoreError::Plan { .. }), "{err:?}");
}

#[test]
fn tconf_incompatible_with_group_by() {
    let mut db = db_with_uncertain();
    let err = db.run("select k, tconf() from u group by k").unwrap_err();
    assert!(matches!(err, CoreError::Plan { .. }), "{err:?}");
}

#[test]
fn not_in_subquery_rejected_at_parse_time() {
    // "uncertain subqueries in IN-conditions that occur positively" (§2.2).
    let mut db = db_with_uncertain();
    let err = db
        .run("select * from t where k not in (select k from u)")
        .unwrap_err();
    assert!(matches!(err, CoreError::Parse(_)), "{err:?}");
}

/// `x IN (SELECT …)` over an uncertain subquery keeps one row per
/// condition the subquery yields `x` under, so `esum` / `ecount` must not
/// read it — directly, or through a FROM subquery that holds the IN (at
/// any depth). The planner decides, so `EXPLAIN` fails alike; `conf()`
/// and a t-certain subquery stay fine.
#[test]
fn expectations_over_an_uncertain_in_subquery_rejected_through_from_subqueries() {
    let mut db = db_with_uncertain();
    let sub = "(select k from u)";
    let direct = format!("select k, ecount() from u where k in {sub} group by k");
    let nested = format!("select k, esum(v) from (select * from u where k in {sub}) s group by k");
    let deeper = format!(
        "select k, ecount() from (select * from (select k, v from u where k in {sub}) a) b group by k"
    );
    let want = db.run(&direct).unwrap_err();
    assert!(matches!(want, CoreError::Typing { .. }), "{want:?}");
    for sql in [&direct, &nested, &deeper] {
        for q in [sql.to_string(), format!("explain {sql}")] {
            let err = db.run(&q).unwrap_err();
            assert_eq!(err.to_string(), want.to_string(), "{q}");
        }
    }
    let ok = [
        format!("select k, conf() from (select * from u where k in {sub}) s group by k"),
        "select k, ecount() from (select * from u where k in (select k from t)) s group by k"
            .to_string(),
        format!("select k, ecount() from (select possible k from u where k in {sub}) s group by k"),
    ];
    for sql in ok {
        assert!(db.run(&sql).is_ok(), "{sql}");
    }
}

#[test]
fn aggregates_in_scalar_position_rejected() {
    let mut db = db_with_uncertain();
    let err = db.run("select conf() + 1 from u").unwrap_err();
    assert!(matches!(err, CoreError::Plan { .. }), "{err:?}");
}

#[test]
fn conf_argument_validation() {
    let mut db = db_with_uncertain();
    assert!(db.run("select conf(1) from u").is_err());
    assert!(db.run("select aconf(2.0, 0.5) from u group by k").is_err()); // ε ≥ 1
    assert!(db.run("select aconf(0.1) from u").is_err());
}

#[test]
fn possible_with_aggregates_rejected() {
    let mut db = db_with_uncertain();
    let err = db.run("select possible conf() from u").unwrap_err();
    assert!(matches!(err, CoreError::Plan { .. }), "{err:?}");
}

#[test]
fn group_by_violations_detected() {
    let mut db = db_with_uncertain();
    let err = db.run("select v, conf() from u group by k").unwrap_err();
    assert!(matches!(err, CoreError::Plan { .. }), "{err:?}");
}

#[test]
fn weight_errors_surface() {
    let mut db = MayBms::new();
    db.register(
        "neg",
        rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(-2.0)],
                vec![1.into(), Value::Float(1.0)],
            ],
        ),
    )
    .unwrap();
    let err = db
        .run("select * from (repair key k in neg weight by w) r")
        .unwrap_err();
    assert!(err.to_string().contains("weight"), "{err}");
}

#[test]
fn probability_range_errors_surface() {
    let mut db = MayBms::new();
    db.register(
        "bad",
        rel(&[("p", DataType::Float)], vec![vec![Value::Float(1.5)]]),
    )
    .unwrap();
    let err = db
        .run("select * from (pick tuples from bad with probability p) r")
        .unwrap_err();
    assert!(err.to_string().contains("probability"), "{err}");
}
