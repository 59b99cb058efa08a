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

use maybms_engine::{DataType, Schema, Tuple, Value};
use maybms_store::{
    apply_op, fingerprint, Catalog, FaultMode, FaultVfs, MemVfs, Op, Store, Vfs,
};
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
    Step { new_vars: Vec::new(), action: Action::Apply(op) }
}

fn certain(vals: Vec<Value>) -> UTuple {
    UTuple::certain(Tuple::new(vals))
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
    let picks_schema = Schema::from_pairs(&[("a", DataType::Int)]);
    let mut picks = URelation::empty(Arc::new(picks_schema));
    picks.tuples_mut().push(UTuple::new(
        Tuple::new(vec![Value::Int(10)]),
        Wsd::of(Var(0), 1),
    ));
    picks.tuples_mut().push(UTuple::new(
        Tuple::new(vec![Value::Int(20)]),
        Wsd::from_assignments(vec![
            Assignment::new(Var(0), 0),
            Assignment::new(Var(1), 1),
        ])
        .expect("satisfiable"),
    ));
    vec![
        step(Op::CreateTable { name: "t".into(), schema: t_schema }),
        step(Op::InsertRows {
            table: "t".into(),
            rows: vec![
                certain(vec![Value::Int(1), Value::Float(1.5), Value::str("x")]),
                certain(vec![
                    Value::Int(2),
                    Value::Float(0.1 + 0.2), // not exactly 0.3: bit-exactness matters
                    Value::str("y;'z"),
                ]),
            ],
        }),
        Step {
            new_vars: vec![vec![0.5, 0.5], vec![0.3, 0.7]],
            // Columnar-at-rest: this PutTable logs under the columnar
            // WAL op tag and lands in version-2 snapshot bodies, so the
            // whole fault matrix sweeps the columnar codec too.
            action: Action::Apply(Op::PutTable {
                name: "picks".into(),
                table: picks.compact(),
            }),
        },
        Step { new_vars: Vec::new(), action: Action::Checkpoint },
        Step {
            // A query burnt a variable that nothing stored references.
            new_vars: vec![vec![0.2, 0.8]],
            action: Action::Apply(Op::InsertRows {
                table: "t".into(),
                rows: vec![certain(vec![Value::Int(3), Value::Null, Value::Null])],
            }),
        },
        // Positional deltas on the un-checkpointed tail, on a certain
        // and on an uncertain table: a new dictionary entry, a NULL, a
        // variant change (Float column taking an Int), then deletes.
        step(Op::UpdateRows {
            table: "t".into(),
            positions: vec![0, 2],
            columns: vec![2, 1],
            cells: vec![Value::str("new"), Value::Null, Value::str("x"), Value::Int(7)],
        }),
        step(Op::DeleteRows { table: "t".into(), positions: vec![1] }),
        step(Op::UpdateRows {
            table: "picks".into(),
            positions: vec![1],
            columns: vec![0],
            cells: vec![Value::Int(21)],
        }),
        step(Op::DeleteRows { table: "picks".into(), positions: vec![0] }),
        // The pre-delta full-image op: no statement emits it any more,
        // but a log holding one must replay through any fault.
        step(Op::ReplaceRows {
            table: "picks".into(),
            rows: vec![UTuple::new(
                Tuple::new(vec![Value::Int(10)]),
                Wsd::of(Var(0), 1),
            )],
        }),
        step(Op::PutTable {
            name: "names".into(),
            // Dictionary-encoded text column (with a NULL slot) through
            // the crash matrix: the dictionary must survive any fault.
            table: URelation::from_certain(&maybms_engine::rel(
                &[("who", DataType::Text)],
                vec![
                    vec![Value::str("ann")],
                    vec![Value::Null],
                    vec![Value::str("ann")],
                    vec![Value::str("bob")],
                ],
            ))
            .compact(),
        }),
        step(Op::DropTable { name: "t".into() }),
        step(Op::CreateTable {
            name: "t2".into(),
            schema: Schema::from_pairs(&[("d", DataType::Int)]),
        }),
        step(Op::InsertRows {
            table: "t2".into(),
            rows: vec![certain(vec![Value::Int(99)])],
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
                    Action::Apply(op) => store.log(op, &wt).map(|()| {
                        apply_op(&mut tables, op.clone()).expect("validated op applies")
                    }),
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

/// Recover fault-free and assert atomicity (state ∈ `allowed`) and
/// idempotence (second recovery: same state, same bytes on disk).
fn check_recovery(mem: &MemVfs, allowed: &[&Vec<u8>], what: &str) {
    let (_, r1) = Store::open(Arc::new(mem.clone())).expect("recovery must succeed");
    let f1 = fingerprint(&r1.tables, &r1.wt);
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
    assert_eq!(f1, fingerprint(&r2.tables, &r2.wt), "{what}: recovery not idempotent");
    let files_2: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    assert_eq!(files_1, files_2, "{what}: second recovery changed files on disk");
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
        check_recovery(&mem, &allowed, &format!("{mode:?} fail_at={fail_at}, as-left"));
        // Same fault point, but a power cut also drops every byte that
        // was never fsynced.
        let (mem, _, _, _) = faulted_run(&steps, fail_at, mode);
        mem.crash();
        check_recovery(&mem, &allowed, &format!("{mode:?} fail_at={fail_at}, power-cut"));
    }
    // The workload is ~2 file ops per statement plus open/checkpoint
    // traffic; make sure the loop actually swept a real matrix and
    // terminated by exhaustion rather than the safety bound.
    assert!(points >= 20, "matrix covered only {points} fault points");
}

/// One WAL frame exactly as an earlier build wrote it, assembled byte by
/// byte so the fixture does not depend on what today's encoder emits:
/// `[len][crc]` around `lsn, world-ext, op tag, table name, body`.
fn legacy_frame(
    lsn: u64,
    world_ext: Option<(u32, Vec<Vec<f64>>)>,
    tag: u8,
    name: &str,
    body: Vec<u8>,
) -> Vec<u8> {
    use maybms_store::codec;
    let mut payload = lsn.to_le_bytes().to_vec();
    match world_ext {
        None => payload.push(0),
        Some((first, dists)) => {
            payload.push(1);
            payload.extend_from_slice(&first.to_le_bytes());
            let mut w = codec::Writer::new();
            codec::put_dists(&mut w, &dists);
            payload.extend_from_slice(&w.finish());
        }
    }
    payload.push(tag);
    payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
    payload.extend_from_slice(name.as_bytes());
    payload.extend_from_slice(&body);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The row list of a tag-2 / tag-3 record: count, then each tuple.
fn legacy_rows(rows: &[UTuple]) -> Vec<u8> {
    let mut w = maybms_store::codec::Writer::new();
    for t in rows {
        maybms_store::codec::put_utuple(&mut w, t);
    }
    let mut body = (rows.len() as u32).to_le_bytes().to_vec();
    body.extend_from_slice(&w.finish());
    body
}

/// A data directory written *before* the columnar store and the
/// positional deltas — no snapshot, a WAL holding a row-image `PutTable`
/// (tag 1) and full-image `ReplaceRows` records (tag 3), neither of
/// which anything encodes any more — must recover cleanly, take new
/// writes, and re-persist in the current format on checkpoint without
/// losing a row.
#[test]
fn pre_refactor_row_image_wal_recovers() {
    use maybms_store::{codec, wal};

    let t_schema = Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Text)]);
    let mut old_table = URelation::empty(Arc::new(Schema::from_pairs(&[(
        "a",
        DataType::Int,
    )])));
    old_table.tuples_mut().push(UTuple::new(
        Tuple::new(vec![Value::Int(10)]),
        Wsd::of(Var(0), 1),
    ));
    assert!(!old_table.is_columnar(), "fixture must be a row image");
    let mut schema_body = codec::Writer::new();
    codec::put_schema(&mut schema_body, &t_schema);
    let mut image_body = codec::Writer::new();
    codec::put_urelation(&mut image_body, &old_table);
    let mut bytes = wal::WAL_MAGIC.to_vec();
    bytes.extend(legacy_frame(0, None, 0, "t", schema_body.finish()));
    bytes.extend(legacy_frame(
        1,
        None,
        2,
        "t",
        legacy_rows(&[
            certain(vec![Value::Int(1), Value::str("x")]),
            certain(vec![Value::Int(2), Value::str("y")]),
        ]),
    ));
    bytes.extend(legacy_frame(
        2,
        Some((0, vec![vec![0.4, 0.6]])),
        1,
        "picks",
        image_body.finish(),
    ));
    // An `UPDATE` and a `DELETE` as they used to log: the whole table.
    bytes.extend(legacy_frame(
        3,
        None,
        3,
        "t",
        legacy_rows(&[
            certain(vec![Value::Int(1), Value::str("x")]),
            certain(vec![Value::Int(3), Value::str("y")]),
        ]),
    ));
    bytes.extend(legacy_frame(
        4,
        None,
        3,
        "t",
        legacy_rows(&[certain(vec![Value::Int(3), Value::str("y")])]),
    ));
    let mem = MemVfs::new();
    let mut f = mem.create(wal::WAL_FILE).unwrap();
    f.append(&bytes).unwrap();
    f.sync().unwrap();
    drop(f);

    let (mut store, mut rec) = Store::open(Arc::new(mem.clone())).expect("legacy WAL recovers");
    assert_eq!(rec.replayed, 5);
    assert_eq!(rec.tables.len(), 2);
    assert_eq!(rec.tables["picks"].len(), 1);
    assert_eq!(rec.wt.num_vars(), 1);
    let t = &rec.tables["t"];
    assert_eq!(t.len(), 1);
    assert_eq!(t.tuples()[0].data.values(), [Value::Int(3), Value::str("y")]);
    // Recovery left the replayed records as they were on disk.
    assert_eq!(mem.read(wal::WAL_FILE).unwrap(), bytes);

    // New writes land as deltas behind the old records…
    let update = Op::UpdateRows {
        table: "t".into(),
        positions: vec![0],
        columns: vec![1],
        cells: vec![Value::str("z")],
    };
    store.log(&update, &rec.wt).unwrap();
    apply_op(&mut rec.tables, update).unwrap();
    let fp = fingerprint(&rec.tables, &rec.wt);
    drop(store);
    let (mut store, rec2) = Store::open(Arc::new(mem.clone())).expect("mixed WAL recovers");
    assert_eq!(rec2.replayed, 6);
    assert_eq!(fingerprint(&rec2.tables, &rec2.wt), fp);

    // …and a checkpoint rewrites the state in the current snapshot
    // format; reopening must land on the identical state.
    store.checkpoint(&rec2.tables, &rec2.wt).unwrap();
    drop(store);
    let (_, rec3) = Store::open(Arc::new(mem)).expect("reopen after checkpoint");
    assert_eq!(rec3.replayed, 0);
    assert_eq!(fingerprint(&rec3.tables, &rec3.wt), fp);
}

/// A replay failure names the failing record's first byte, also behind a
/// legacy tag-1 `PutTable` (which today's encoder would write as tag 5,
/// one layout byte longer — so the offset must come from the file, not
/// from re-encoding what was decoded).
#[test]
fn corrupt_offset_after_legacy_record_is_the_records_first_byte() {
    use maybms_store::{codec, wal, StoreError};

    let mut picks =
        URelation::empty(Arc::new(Schema::from_pairs(&[("a", DataType::Int)])));
    picks.tuples_mut().push(UTuple::new(Tuple::new(vec![Value::Int(10)]), Wsd::of(Var(0), 1)));
    let mut image = codec::Writer::new();
    codec::put_urelation(&mut image, &picks);
    let mut bytes = wal::WAL_MAGIC.to_vec();
    bytes.extend(legacy_frame(0, Some((0, vec![vec![0.4, 0.6]])), 1, "picks", image.finish()));
    let second = bytes.len() as u64;
    // A tag-7 delete of position 5 in a one-row table: decodes, fails
    // `check_op` on replay.
    let positions = [1u32.to_le_bytes(), 5u32.to_le_bytes()].concat();
    bytes.extend(legacy_frame(1, None, 7, "picks", positions));
    let mem = MemVfs::new();
    let mut f = mem.create(wal::WAL_FILE).unwrap();
    f.append(&bytes).unwrap();
    f.sync().unwrap();
    drop(f);

    match Store::open(Arc::new(mem)) {
        Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, second),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn crash_matrix_fail_stop() {
    run_matrix(FaultMode::FailStop);
}

#[test]
fn crash_matrix_torn_writes() {
    run_matrix(FaultMode::Torn);
}
