//! The checker is itself checked: one expected answer per statement class
//! is perturbed, and one acknowledged write is dropped from the shadow
//! model, and each time the checker must report a failure. No switch for
//! this ships in the command line.

use maybms_core::MayBms;

use crate::answer::{check, Cell, Expect, Outcome};
use crate::workloads::{build, Oltp, Spec, Workload, SPECS};

const SEED: u64 = 7;
const QUICK: usize = 20;

fn nudge(cell: &mut Cell, relative: f64) {
    match cell {
        Cell::Float(f) => *f *= 1.0 + relative,
        Cell::Int(i) => *i += 1,
        Cell::Text(s) => s.push('x'),
        Cell::Null => *cell = Cell::Int(0),
    }
}

/// Make the expectation wrong by the smallest amount the checker promises
/// to notice: one value off by 1e-6, or every `aconf` group off by 3ε.
fn perturb(expect: &mut Expect) {
    match expect {
        Expect::Ack(message) => message.push('!'),
        Expect::Rows(rows) | Expect::Ordered(rows) => match rows.first_mut() {
            Some(row) => nudge(row.last_mut().expect("rows have columns"), 1e-6),
            None => rows.push(vec![Cell::Int(-1)]),
        },
        Expect::Approx { rows, epsilon, .. } => {
            for row in rows {
                nudge(row.last_mut().expect("rows have columns"), 3.0 * *epsilon);
            }
        }
    }
}

fn loaded(workload: &dyn Workload) -> MayBms {
    let mut db = MayBms::new();
    for sql in workload.setup_sql() {
        db.run(&sql).expect("set-up statement");
    }
    db
}

/// Run every class of `spec` once and return failed ÷ attempted, with the
/// expectation of class `perturbed` made wrong first.
fn fail_ratio(spec: &Spec, perturbed: Option<usize>) -> f64 {
    let mut workload = build(spec, SEED, QUICK);
    let mut db = loaded(workload.as_ref());
    let mut failed = 0;
    for (i, class) in spec.classes.iter().enumerate() {
        let mut stmt = workload.next(class.name);
        if let Some(prelude) = &stmt.prelude {
            db.run(prelude).expect("prelude");
        }
        if perturbed == Some(i) {
            perturb(&mut stmt.expect);
        }
        failed += !check(&stmt.expect, &Outcome::of(db.run(&stmt.sql))) as usize;
    }
    failed as f64 / spec.classes.len() as f64
}

#[test]
fn a_perturbed_answer_raises_fail_ratio_on_every_workload() {
    for spec in SPECS.iter() {
        assert_eq!(
            fail_ratio(spec, None),
            0.0,
            "{} is clean unperturbed",
            spec.name
        );
        for (i, class) in spec.classes.iter().enumerate() {
            assert!(
                fail_ratio(spec, Some(i)) > 0.0,
                "{}/{} went unnoticed",
                spec.name,
                class.name
            );
        }
    }
}

#[test]
fn a_lost_acknowledged_write_fails_the_final_audit() {
    let mut workload = Oltp::new(SEED, QUICK);
    let mut db = loaded(&workload);
    for class in [
        "insert_batch",
        "update_range",
        "delete_range",
        "ctas_repair",
    ] {
        let stmt = workload.next(class);
        assert!(
            check(&stmt.expect, &Outcome::of(db.run(&stmt.sql))),
            "{class}"
        );
    }
    let audit = |workload: &Oltp, db: &mut MayBms| {
        workload
            .final_checks()
            .iter()
            .filter(|(sql, expect)| !check(expect, &Outcome::of(db.run(sql))))
            .count()
    };
    assert_eq!(audit(&workload, &mut db), 0);
    // The database holds a row the model has lost track of: the same
    // disagreement an acknowledged-but-lost write leaves, seen from the
    // other side.
    let key = *workload
        .model
        .keys()
        .next_back()
        .expect("the model has rows");
    workload.model.remove(&key);
    assert!(audit(&workload, &mut db) > 0);
}
