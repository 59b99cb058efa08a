//! SQL-level crash-recovery tests: whole-database durability driven
//! through [`MayBms::open_with_vfs`] with fault injection, compared
//! statement-by-statement against an in-memory oracle running the same
//! SQL fault-free.
//!
//! Covers the deterministic corner cases (fresh directory, snapshot-only
//! restart, torn final record, recovering twice) at 1/2/8 execution
//! threads — the determinism contract (bit-identical state at any thread
//! count) must survive a restart — plus a property test: random
//! DDL+mutation sequences crashed at *every* file-operation fault point.

use std::sync::Arc;

use maybms::store::{Catalog, FaultMode, FaultVfs, MemVfs, Vfs};
use maybms::{store, MayBms};
use proptest::prelude::*;

/// Canonical byte fingerprint of a database's observable state: every
/// stored table plus the distributions of the world-table variables the
/// stored WSDs reference.
fn fp(db: &MayBms) -> Vec<u8> {
    let tables: Catalog = db
        .table_names()
        .iter()
        .map(|n| {
            (
                n.to_string(),
                db.table(n).expect("listed table exists").clone(),
            )
        })
        .collect();
    store::fingerprint(&tables, db.world_table())
}

/// One scripted action against a database.
#[derive(Debug, Clone)]
enum Stmt {
    Sql(String),
    Checkpoint,
}

/// Run statements in order, stopping at (and reporting) the first
/// failure. Scripts are valid by construction, so a failure can only be
/// an injected storage fault.
fn run_stmts(db: &mut MayBms, stmts: &[Stmt]) -> Option<usize> {
    for (k, s) in stmts.iter().enumerate() {
        let result = match s {
            Stmt::Sql(sql) => db.run(sql).map(|_| ()),
            Stmt::Checkpoint => db.checkpoint(),
        };
        if result.is_err() {
            return Some(k);
        }
    }
    None
}

/// Oracle fingerprints: `fps[k]` is the in-memory state after the first
/// `k` statements (checkpoints are durability-only: no state change).
fn oracle_fingerprints(stmts: &[Stmt]) -> Vec<Vec<u8>> {
    let mut db = MayBms::new();
    let mut fps = vec![fp(&db)];
    for s in stmts {
        if let Stmt::Sql(sql) = s {
            db.run(sql).expect("oracle script must be valid");
        }
        fps.push(fp(&db));
    }
    fps
}

fn sql(s: impl Into<String>) -> Stmt {
    Stmt::Sql(s.into())
}

/// A fixed workload exercising certain and uncertain tables, WAL records
/// with world-table extensions, and a mid-stream checkpoint.
fn fixed_workload() -> Vec<Stmt> {
    vec![
        sql("create table games (player text, pts bigint, w double precision)"),
        sql("insert into games values ('Bryant', 40, 0.6), ('Duncan', 25, 0.4)"),
        sql("create table picks as \
             select * from (pick tuples from games with probability 0.5) p"),
        Stmt::Checkpoint,
        sql("create table favourite as \
             select * from (repair key in games weight by w) r"),
        sql("update games set pts = pts + 1 where player = 'Bryant'"),
        sql("delete from games where pts < 30"),
    ]
}

#[test]
fn empty_wal_restart_is_empty() {
    let mem = MemVfs::new();
    {
        let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert!(db.table_names().is_empty());
    }
    let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    assert!(db.table_names().is_empty());
    let report = db.recovery_report().unwrap();
    assert_eq!(report.replayed, 0);
    assert!(!report.truncated_tail);
}

#[test]
fn wal_replay_restores_state_across_thread_counts() {
    let stmts = fixed_workload();
    let before = maybms_par::current_threads();
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8] {
        maybms_par::set_threads(threads);
        let mem = MemVfs::new();
        let original = {
            let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
            assert_eq!(run_stmts(&mut db, &stmts), None);
            fp(&db)
        };
        let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert_eq!(
            fp(&db),
            original,
            "restart changed state at {threads} threads"
        );
        prints.push(original);
    }
    maybms_par::set_threads(before);
    // The determinism contract survives restart: the durable state is
    // bit-identical no matter how many threads produced it.
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[0], prints[2]);
}

/// DML on a table large enough to scan in several morsels logs
/// positional deltas only — never a table image — and replaying that
/// un-checkpointed tail lands on the in-memory state, with the same WAL
/// bytes and the same fingerprint at 1, 2 and 8 threads.
#[test]
fn delta_wal_tail_reopens_to_memory_state_at_any_thread_count() {
    use maybms::engine::ColumnData;
    use maybms::store::{wal, Op};
    let batch = |lo: i64, hi: i64| {
        let rows: Vec<String> = (lo..hi)
            .map(|k| format!("({k}, 'room{}', {}.25)", k % 17, k % 100))
            .collect();
        sql(format!("insert into big values {}", rows.join(", ")))
    };
    let mut stmts = vec![
        sql("create table big (k bigint, room text, v double precision)"),
        batch(0, 6000),
        batch(6000, 12000),
        sql("create table picks as \
             select * from (pick tuples from big with probability 0.5) p"),
        Stmt::Checkpoint,
    ];
    let tail = [
        sql("update big set v = v + 0.5, room = 'moved' where k >= 100 and k < 9000 and v > 50"),
        sql("delete from big where k < 40 or (k > 7000 and k < 7100)"),
        batch(12000, 12010),
        sql("update picks set room = null where k > 11000"),
        sql("delete from picks where v < 3"),
        sql("update big set v = k where room = 'moved'"),
        sql("delete from big where k >= 0 and v > 8990"),
    ];
    stmts.extend(tail.iter().cloned());
    let before = maybms_par::current_threads();
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        maybms_par::set_threads(threads);
        let mem = MemVfs::new();
        let live = {
            let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
            assert_eq!(run_stmts(&mut db, &stmts), None);
            fp(&db)
        };
        let log = mem.read("wal").unwrap();
        let scan = wal::scan(&log).unwrap();
        assert_eq!(scan.records.len(), tail.len());
        for (_, rec) in &scan.records {
            assert!(
                matches!(
                    rec.op,
                    Op::InsertRows { .. } | Op::UpdateRows { .. } | Op::DeleteRows { .. }
                ),
                "DML logged {:?}",
                rec.op
            );
        }
        // The tail is a sliver of the 12 000-row table it edits.
        assert!(log.len() < 400_000, "WAL tail is {} bytes", log.len());
        let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert_eq!(db.recovery_report().unwrap().replayed, tail.len());
        assert_eq!(
            fp(&db),
            live,
            "reopen differs from memory at {threads} threads"
        );
        let (stored, _) = db.table("big").unwrap().at_rest();
        assert!(
            matches!(stored.column(1).data(), ColumnData::Dict { .. }),
            "the replayed text column lost its dictionary"
        );
        runs.push((live, log));
    }
    maybms_par::set_threads(before);
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "state or WAL depends on thread count"
    );
}

#[test]
fn snapshot_only_restart_replays_nothing() {
    let mem = MemVfs::new();
    let original = {
        let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert_eq!(run_stmts(&mut db, &fixed_workload()), None);
        db.checkpoint().unwrap();
        fp(&db)
    };
    let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    let report = db.recovery_report().unwrap();
    assert_eq!(
        report.replayed, 0,
        "checkpoint must leave nothing to replay"
    );
    assert_eq!(fp(&db), original);
    // A conf() query over the recovered uncertain table still works.
    let mut db = db;
    let r = db
        .query("select player, conf() as p from picks group by player")
        .unwrap();
    assert!(r.len() <= 2);
}

#[test]
fn torn_final_record_loses_only_the_last_statement() {
    let stmts = fixed_workload();
    let fps = oracle_fingerprints(&stmts);
    let mem = MemVfs::new();
    {
        let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert_eq!(run_stmts(&mut db, &stmts), None);
    }
    // Tear the last record: chop 3 bytes off the WAL tail.
    let wal = mem.read("wal").unwrap();
    mem.truncate("wal", wal.len() as u64 - 3).unwrap();
    let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    let report = db.recovery_report().unwrap();
    assert!(report.truncated_tail);
    // Exactly the last statement is gone; everything earlier survived.
    assert_eq!(fp(&db), fps[stmts.len() - 1]);
}

#[test]
fn double_recovery_equals_single_recovery() {
    let stmts = fixed_workload();
    let mem = MemVfs::new();
    {
        let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert_eq!(run_stmts(&mut db, &stmts), None);
    }
    let wal = mem.read("wal").unwrap();
    mem.truncate("wal", wal.len() as u64 - 1).unwrap();
    let first = {
        let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
        assert!(db.recovery_report().unwrap().truncated_tail);
        fp(&db)
    };
    let files_after_first: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    let db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    assert!(
        !db.recovery_report().unwrap().truncated_tail,
        "log is clean now"
    );
    assert_eq!(fp(&db), first);
    let files_after_second: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    assert_eq!(files_after_first, files_after_second);
}

// ---------------------------------------------------------------------
// Property test: random scripts, crash at every fault point.
// ---------------------------------------------------------------------

/// Abstract script commands; `concretize` turns them into a valid SQL
/// script by tracking which tables exist and skipping inapplicable ones.
#[derive(Debug, Clone)]
enum Cmd {
    Create(u8),
    Insert(u8, Vec<i64>),
    Update(u8, i64),
    Delete(u8, i64),
    Drop(u8),
    Pick(u8, u8),
    Checkpoint,
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    let cmd = prop_oneof![
        (0u8..3).prop_map(Cmd::Create),
        (0u8..3, prop::collection::vec(-5i64..20, 1..4)).prop_map(|(i, v)| Cmd::Insert(i, v)),
        (0u8..3, -5i64..20).prop_map(|(i, x)| Cmd::Update(i, x)),
        (0u8..3, -5i64..20).prop_map(|(i, x)| Cmd::Delete(i, x)),
        (0u8..3).prop_map(Cmd::Drop),
        (0u8..3, 0u8..2).prop_map(|(i, j)| Cmd::Pick(i, j)),
        Just(Cmd::Checkpoint),
    ];
    prop::collection::vec(cmd, 1..7)
}

fn concretize(cmds: &[Cmd]) -> Vec<Stmt> {
    let mut exists = std::collections::HashSet::new();
    let mut out = Vec::new();
    for c in cmds {
        match c {
            Cmd::Create(i) => {
                if exists.insert(format!("t{i}")) {
                    out.push(sql(format!(
                        "create table t{i} (a bigint, w double precision)"
                    )));
                }
            }
            Cmd::Insert(i, vals) => {
                if exists.contains(&format!("t{i}")) {
                    let rows: Vec<String> = vals.iter().map(|v| format!("({v}, 0.5)")).collect();
                    out.push(sql(format!("insert into t{i} values {}", rows.join(", "))));
                }
            }
            Cmd::Update(i, x) => {
                if exists.contains(&format!("t{i}")) {
                    out.push(sql(format!("update t{i} set a = a + 1 where a > {x}")));
                }
            }
            Cmd::Delete(i, x) => {
                if exists.contains(&format!("t{i}")) {
                    out.push(sql(format!("delete from t{i} where a < {x}")));
                }
            }
            Cmd::Drop(i) => {
                if exists.remove(&format!("t{i}")) {
                    out.push(sql(format!("drop table t{i}")));
                }
            }
            Cmd::Pick(i, j) => {
                if exists.contains(&format!("t{i}")) && exists.insert(format!("p{j}")) {
                    out.push(sql(format!(
                        "create table p{j} as select * from \
                         (pick tuples from t{i} with probability 0.5) x"
                    )));
                }
            }
            Cmd::Checkpoint => out.push(Stmt::Checkpoint),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a random valid script, inject a storage fault at every file
    /// operation in turn; after each crash, recovery must land on the
    /// oracle state just before or just after the statement in flight,
    /// and recovering twice must equal recovering once.
    #[test]
    fn random_scripts_recover_to_oracle_state(cmds in arb_cmds()) {
        let stmts = concretize(&cmds);
        let fps = oracle_fingerprints(&stmts);
        for fail_at in 1u64..500 {
            let mem = MemVfs::new();
            let fault = FaultVfs::new(mem.clone(), fail_at, FaultMode::Torn);
            let (opened, failed_step) =
                match MayBms::open_with_vfs(Arc::new(fault.clone())) {
                    Err(_) => (false, None),
                    Ok(mut db) => (true, run_stmts(&mut db, &stmts)),
                };
            if !fault.triggered() {
                prop_assert_eq!(failed_step, None);
                break;
            }
            // Power cut on top of the fault: unsynced bytes vanish too.
            mem.crash();
            let recovered = MayBms::open_with_vfs(Arc::new(mem.clone()))
                .expect("recovery after injected fault must succeed");
            let got = fp(&recovered);
            let allowed: Vec<&Vec<u8>> = match (opened, failed_step) {
                (false, _) => vec![&fps[0]],
                (true, Some(k)) => vec![&fps[k], &fps[k + 1]],
                (true, None) => unreachable!("fault triggered but nothing failed"),
            };
            prop_assert!(
                allowed.iter().any(|a| **a == got),
                "fail_at={} landed on neither pre- nor post-statement state",
                fail_at
            );
            let again = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
            prop_assert_eq!(&got, &fp(&again), "recovery not idempotent");
        }
    }
}
