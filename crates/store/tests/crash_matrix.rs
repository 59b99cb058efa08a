//! The crash matrix: run a mixed DDL/DML/checkpoint workload against the
//! store with a fault injected at the Nth file-system operation — for
//! every N until the workload completes untouched — then recover and
//! check the two durability invariants:
//!
//! * **Atomicity.** The recovered state is bit-identical (by
//!   [`fingerprint`]) to the oracle state either just before or just
//!   after the statement that was in flight when the fault hit. No torn
//!   statements, no lost earlier statements.
//! * **Idempotence.** Recovering twice produces the same state and the
//!   same files as recovering once (a crash *during recovery* is just
//!   another crash).
//!
//! Each fault point is tested under two post-mortem file states: as the
//! dying process left them (partial writes persisted — the torn-write
//! case), and after a power cut that drops every unsynced byte
//! ([`MemVfs::crash`]).

use std::sync::Arc;

use maybms_engine::{BatchBuilder, ColumnBatch, ColumnData, DataType, Schema, Tuple, Value};
use maybms_store::{apply_op, fingerprint, Catalog, FaultMode, FaultVfs, MemVfs, Op, Store, Vfs};
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};

/// One workload step: world-table variables that appear (query side
/// effects) before the action runs, then the action itself.
struct Step {
    new_vars: Vec<Vec<f64>>,
    action: Action,
}

enum Action {
    Apply(Op),
    Checkpoint,
}

fn step(op: Op) -> Step {
    Step {
        new_vars: Vec::new(),
        action: Action::Apply(op),
    }
}

/// `rows`, each of `arity` values, as a column batch.
fn batch(arity: usize, rows: &[&[Value]]) -> ColumnBatch {
    let mut b = BatchBuilder::new(arity);
    for r in rows {
        b.push_row(r.iter());
    }
    b.finish()
}

/// A workload touching every op kind, with uncertainty (world-table
/// extensions riding on records), a mid-stream checkpoint, a burnt
/// variable (created by a query, never stored), and adversarial values
/// (non-representable floats, a `;` in a string).
fn workload() -> Vec<Step> {
    let t_schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("c", DataType::Text),
    ]);
    let picks_schema = Schema::from_pairs(&[("a", DataType::Int), ("s", DataType::Text)]);
    // Its text column is logged plain: installing it (live and on
    // replay) is what dictionary-encodes it.
    let picks = URelation::new(
        Arc::new(picks_schema),
        vec![
            UTuple::new(
                Tuple::new(vec![Value::Int(10), Value::str("u")]),
                Wsd::of(Var(0), 1),
            ),
            UTuple::new(
                Tuple::new(vec![Value::Int(20), Value::str("v")]),
                Wsd::from_assignments(vec![Assignment::new(Var(0), 0), Assignment::new(Var(1), 1)])
                    .expect("satisfiable"),
            ),
        ],
    )
    .unwrap();
    vec![
        step(Op::CreateTable {
            name: "t".into(),
            schema: t_schema,
        }),
        step(Op::InsertRows {
            table: "t".into(),
            rows: batch(
                3,
                &[
                    &[Value::Int(1), Value::Float(1.5), Value::str("x")],
                    &[
                        Value::Int(2),
                        Value::Float(0.1 + 0.2), // not exactly 0.3: bit-exactness matters
                        Value::str("y;'z"),
                    ],
                ],
            ),
        }),
        Step {
            new_vars: vec![vec![0.5, 0.5], vec![0.3, 0.7]],
            // This PutTable logs a table image and lands in snapshot
            // bodies, so the whole fault matrix sweeps the columnar
            // codec too.
            action: Action::Apply(Op::PutTable {
                name: "picks".into(),
                table: picks,
            }),
        },
        Step {
            new_vars: Vec::new(),
            action: Action::Checkpoint,
        },
        Step {
            // A query burnt a variable that nothing stored references.
            new_vars: vec![vec![0.2, 0.8]],
            action: Action::Apply(Op::InsertRows {
                table: "t".into(),
                rows: batch(3, &[&[Value::Int(3), Value::Null, Value::Null]]),
            }),
        },
        // Positional deltas on the un-checkpointed tail, on a certain
        // and on an uncertain table: a new dictionary entry, a NULL, a
        // variant change (Float column taking an Int), then deletes.
        step(Op::UpdateRows {
            table: "t".into(),
            positions: vec![0, 2],
            columns: vec![2, 1],
            cells: batch(
                2,
                &[
                    &[Value::str("new"), Value::Null],
                    &[Value::str("x"), Value::Int(7)],
                ],
            ),
        }),
        step(Op::DeleteRows {
            table: "t".into(),
            positions: vec![1],
        }),
        step(Op::UpdateRows {
            table: "picks".into(),
            positions: vec![1],
            columns: vec![0],
            cells: batch(1, &[&[Value::Int(21)]]),
        }),
        step(Op::DeleteRows {
            table: "picks".into(),
            positions: vec![0],
        }),
        step(Op::PutTable {
            name: "names".into(),
            // Dictionary-encoded text column (with a NULL slot) through
            // the crash matrix: the dictionary must survive any fault.
            table: maybms_urel::rel(
                &[("who", DataType::Text)],
                vec![
                    vec![Value::str("ann")],
                    vec![Value::Null],
                    vec![Value::str("ann")],
                    vec![Value::str("bob")],
                ],
            )
            .dict_encode(),
        }),
        step(Op::DropTable { name: "t".into() }),
        step(Op::CreateTable {
            name: "t2".into(),
            schema: Schema::from_pairs(&[("d", DataType::Int)]),
        }),
        step(Op::InsertRows {
            table: "t2".into(),
            rows: batch(1, &[&[Value::Int(99)]]),
        }),
    ]
}

/// Oracle fingerprints: `fps[k]` is the state after the first `k` steps
/// applied fault-free in memory.
fn oracle_fingerprints(steps: &[Step]) -> Vec<Vec<u8>> {
    let mut tables = Catalog::new();
    let mut wt = WorldTable::new();
    let mut fps = vec![fingerprint(&tables, &wt)];
    for s in steps {
        for d in &s.new_vars {
            wt.new_var(d).expect("oracle var");
        }
        if let Action::Apply(op) = &s.action {
            apply_op(&mut tables, op.clone()).expect("oracle apply");
        }
        fps.push(fingerprint(&tables, &wt));
    }
    fps
}

/// Drive the workload with a fault at the `fail_at`-th file operation.
/// Returns the post-mortem filesystem, which step failed (`None` when
/// `Store::open` itself died), whether open succeeded, and whether the
/// fault was actually reached.
fn faulted_run(
    steps: &[Step],
    fail_at: u64,
    mode: FaultMode,
) -> (MemVfs, Option<usize>, bool, bool) {
    let mem = MemVfs::new();
    let fault = FaultVfs::new(mem.clone(), fail_at, mode);
    let (opened, failed_step) = match Store::open(Arc::new(fault.clone())) {
        Err(_) => (false, None),
        Ok((mut store, rec)) => {
            let mut tables = rec.tables;
            let mut wt = rec.wt;
            let mut failed = None;
            for (k, s) in steps.iter().enumerate() {
                for d in &s.new_vars {
                    wt.new_var(d).expect("live var");
                }
                let r = match &s.action {
                    Action::Apply(op) => store
                        .log(op, &wt)
                        .map(|()| apply_op(&mut tables, op.clone()).expect("validated op applies")),
                    Action::Checkpoint => store.checkpoint(&tables, &wt),
                };
                if r.is_err() {
                    failed = Some(k);
                    break;
                }
            }
            (true, failed)
        }
    };
    (mem, failed_step, opened, fault.triggered())
}

/// Recover fault-free and assert atomicity (state ∈ `allowed`), the
/// at-rest encoding (no recovered table holds a plain text column: every
/// installed table's strings are dictionary-encoded) and idempotence
/// (second recovery: same state, same bytes on disk).
fn check_recovery(mem: &MemVfs, allowed: &[&Vec<u8>], what: &str) {
    let (_, r1) = Store::open(Arc::new(mem.clone())).expect("recovery must succeed");
    let f1 = fingerprint(&r1.tables, &r1.wt);
    for (name, t) in &r1.tables {
        let plain = |c: &maybms_engine::Column| matches!(c.data(), ColumnData::Str(_));
        assert!(
            !t.at_rest().0.columns().iter().any(plain),
            "{what}: table {name} recovered with a plain text column"
        );
    }
    assert!(
        allowed.iter().any(|a| **a == f1),
        "{what}: recovered state matches neither pre- nor post-statement oracle \
         ({} tables recovered)",
        r1.tables.len()
    );
    let files_1: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    let (_, r2) = Store::open(Arc::new(mem.clone())).expect("re-recovery must succeed");
    assert_eq!(
        f1,
        fingerprint(&r2.tables, &r2.wt),
        "{what}: recovery not idempotent"
    );
    let files_2: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    assert_eq!(
        files_1, files_2,
        "{what}: second recovery changed files on disk"
    );
}

fn run_matrix(mode: FaultMode) {
    let steps = workload();
    let fps = oracle_fingerprints(&steps);
    let mut points = 0u64;
    for fail_at in 1..10_000 {
        // Post-mortem state as the dying process left it: partial
        // writes (torn frames) persisted.
        let (mem, failed_step, opened, triggered) = faulted_run(&steps, fail_at, mode);
        if !triggered {
            points = fail_at - 1;
            // Fault never reached: the whole workload ran; final state
            // must be the full oracle state.
            assert_eq!(failed_step, None);
            check_recovery(&mem, &[fps.last().expect("nonempty")], "fault-free run");
            break;
        }
        let allowed: Vec<&Vec<u8>> = match (opened, failed_step) {
            (false, _) => vec![&fps[0]],
            (true, Some(k)) => vec![&fps[k], &fps[k + 1]],
            (true, None) => unreachable!("fault triggered but every step succeeded"),
        };
        check_recovery(
            &mem,
            &allowed,
            &format!("{mode:?} fail_at={fail_at}, as-left"),
        );
        // Same fault point, but a power cut also drops every byte that
        // was never fsynced.
        let (mem, _, _, _) = faulted_run(&steps, fail_at, mode);
        mem.crash();
        check_recovery(
            &mem,
            &allowed,
            &format!("{mode:?} fail_at={fail_at}, power-cut"),
        );
    }
    // The workload is ~2 file ops per statement plus open/checkpoint
    // traffic; make sure the loop actually swept a real matrix and
    // terminated by exhaustion rather than the safety bound.
    assert!(points >= 20, "matrix covered only {points} fault points");
}

#[test]
fn crash_matrix_fail_stop() {
    run_matrix(FaultMode::FailStop);
}

#[test]
fn crash_matrix_torn_writes() {
    run_matrix(FaultMode::Torn);
}
