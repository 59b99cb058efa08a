//! Cancellation-point matrix (sibling of the store crash matrix): inject a
//! governor abort — cancel, deadline, or memory-budget — at every Nth
//! cooperative checkpoint of a statement, across statement classes
//! (SELECT with conf(), ORDER BY, UNION, DML, CTAS) and thread counts,
//! and prove that
//!
//! * the statement fails with exactly the injected [`GovError`],
//! * the catalog (in-memory *and* durable) and the world table are
//!   bit-identical to the pre-statement state, and
//! * the session stays healthy: the next statement succeeds.
//!
//! Plus the graceful-degradation contract for `aconf` (a deadline that
//! cuts the sample stream yields a deterministic partial estimate, the
//! same at any thread count) and the storage-fault contract (any I/O
//! error poisons the store at once, keeping the catalog intact, and
//! `reopen` recovers it once the outage ends).
//!
//! Governor state is process-global, so every test here serializes on
//! one mutex (they share a test binary, which shares the statics).

use std::sync::{Arc, Mutex, MutexGuard};

use maybms::store::{Catalog, FaultMode, FaultVfs, MemVfs, Vfs};
use maybms::{store, MayBms};
use maybms_gov::{testing, AbortKind, GovError};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Canonical byte fingerprint of a database's observable state (same
/// helper as the recovery tests).
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

/// The world table's variable count and every probability's bits. `fp`
/// sees only the variables a stored table references, so a statement
/// that leaks variables passes it; this does not.
fn world(db: &MayBms) -> (usize, Vec<u64>) {
    let wt = db.world_table();
    let bits = wt.distributions().flatten().map(|p| p.to_bits()).collect();
    (wt.num_vars(), bits)
}

const SEED_SQL: &[&str] = &[
    "create table games (player text, pts bigint, w double precision)",
    "insert into games values ('Bryant', 40, 0.6), ('Duncan', 25, 0.4), \
     ('Parker', 19, 0.7), ('Garnett', 22, 0.3)",
    "create table picks as \
     select * from (pick tuples from games with probability 0.5) x",
];

fn seed(mem: &MemVfs) -> MayBms {
    let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    for sql in SEED_SQL {
        db.run(sql).unwrap();
    }
    db
}

/// Did the statement die with exactly the injected abort?
fn matches_kind(kind: AbortKind, e: &maybms::CoreError) -> bool {
    matches!(
        (kind, e.gov_abort()),
        (AbortKind::Cancel, Some(GovError::Cancelled))
            | (AbortKind::Deadline, Some(GovError::DeadlineExceeded { .. }))
            | (
                AbortKind::MemBudget,
                Some(GovError::MemBudgetExceeded { .. })
            )
    )
}

/// Upper bound on checkpoints per statement in this workload; the sweep
/// asserts each statement completes un-aborted well before this.
const MAX_SWEEP: u64 = 2000;

#[test]
fn abort_at_every_checkpoint_leaves_state_unchanged() {
    let _l = lock();
    let before_threads = maybms_par::current_threads();
    let statements: &[(&str, &str)] = &[
        (
            "select-conf",
            "select player, conf() as p from picks group by player",
        ),
        (
            "order-by",
            "select player, pts from picks order by pts desc, player",
        ),
        (
            "union",
            "select player from picks union all select player from games",
        ),
        (
            "group-dict",
            "select player, count(*) as n from games group by player",
        ),
        ("insert", "insert into games values ('Ginobili', 17, 0.9)"),
        ("update", "update games set pts = pts + 1 where pts > 20"),
        ("delete", "delete from games where pts < 20"),
        (
            "ctas",
            "create table scratch as \
             select * from (pick tuples from games with probability 0.5) x",
        ),
    ];
    for threads in [1usize, 2, 8] {
        maybms_par::set_threads(threads);
        for (label, sql) in statements {
            for kind in [AbortKind::Cancel, AbortKind::Deadline, AbortKind::MemBudget] {
                // Fresh database per sweep: a sweep ends with the one run
                // that completes, which may legitimately mutate state.
                let mem = MemVfs::new();
                let mut db = seed(&mem);
                let baseline = fp(&db);
                let world_before = world(&db);
                let wal_before = mem.read("wal").unwrap();
                let mut completed = false;
                for nth in 1..=MAX_SWEEP {
                    testing::abort_at_checkpoint(nth, kind);
                    let result = db.run(sql);
                    let fired = testing::remaining() == Some(0);
                    testing::clear();
                    match result {
                        Err(e) => {
                            assert!(
                                fired,
                                "{label}/{kind:?}/t{threads} nth={nth}: \
                                 error without the injection firing: {e}"
                            );
                            assert!(
                                matches_kind(kind, &e),
                                "{label}/{kind:?}/t{threads} nth={nth}: wrong error: {e}"
                            );
                            // The abort left the live catalog untouched…
                            assert_eq!(
                                fp(&db),
                                baseline,
                                "{label}/{kind:?}/t{threads} nth={nth}: abort mutated state"
                            );
                            assert_eq!(
                                world(&db),
                                world_before,
                                "{label}/{kind:?}/t{threads} nth={nth}: abort left variables"
                            );
                            // …and nothing leaked into the durable log.
                            assert_eq!(
                                mem.read("wal").unwrap(),
                                wal_before,
                                "{label}/{kind:?}/t{threads} nth={nth}: abort wrote WAL bytes"
                            );
                            let recovered = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
                            assert_eq!(
                                fp(&recovered),
                                baseline,
                                "{label}/{kind:?}/t{threads} nth={nth}: abort reached the WAL"
                            );
                            // The session survives: next statement runs.
                            db.run("select player from games").unwrap_or_else(|e| {
                                panic!(
                                    "{label}/{kind:?}/t{threads} nth={nth}: \
                                     statement after abort failed: {e}"
                                )
                            });
                        }
                        Ok(_) => {
                            assert!(
                                !fired,
                                "{label}/{kind:?}/t{threads} nth={nth}: \
                                 injection fired but the statement succeeded"
                            );
                            completed = true;
                            break;
                        }
                    }
                }
                assert!(
                    completed,
                    "{label}/{kind:?}/t{threads}: no checkpoint-free completion \
                     within {MAX_SWEEP} checkpoints"
                );
            }
        }
    }
    maybms_par::set_threads(before_threads);
}

/// How many cooperative checkpoints `sql` passes when nothing aborts it.
fn checkpoints(db: &mut MayBms, sql: &str) -> u64 {
    const ARMED: u64 = u64::MAX / 2;
    testing::abort_at_checkpoint(ARMED, AbortKind::Cancel);
    db.run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let left = testing::remaining().expect("injection armed");
    testing::clear();
    ARMED - left
}

/// The sort and union breakers are cooperative checkpoints of their own:
/// one on entry and one every `Ticker::EVERY` rows, so an `ORDER BY` over
/// a large result aborts *inside the sort*, not only in the scan under it.
#[test]
fn sort_and_union_breakers_are_checkpoints() {
    let _l = lock();
    let before_threads = maybms_par::current_threads();
    maybms_par::set_threads(1);
    let mem = MemVfs::new();
    let mut db = seed(&mem);
    let scan = "select player, pts from games";
    let base = checkpoints(&mut db, scan);
    assert_eq!(
        checkpoints(&mut db, &format!("{scan} order by pts")),
        base + 1
    );
    assert_eq!(
        checkpoints(&mut db, &format!("{scan} union all {scan}")),
        2 * base + 1
    );

    // 3000 rows: the sort's decoration loop ticks past two real checks.
    db.run("create table big (k bigint, v bigint)").unwrap();
    let rows: Vec<String> = (0..3000)
        .map(|i| format!("({i}, {})", (i * 7919) % 3000))
        .collect();
    db.run(&format!("insert into big values {}", rows.join(", ")))
        .unwrap();
    let scan = "select k, v from big";
    let sorted = format!("{scan} order by v");
    let base = checkpoints(&mut db, scan);
    let total = checkpoints(&mut db, &sorted);
    assert_eq!(
        total,
        base + 3,
        "entry + two ticks of {} rows",
        maybms_gov::Ticker::EVERY
    );
    // A LIMIT bounds the sort to a top-n, which reads every input row
    // all the same: the same checkpoints.
    let top = format!("{sorted} limit 5");
    assert_eq!(checkpoints(&mut db, &top), total);
    // Every checkpoint past the scan's is the sort's: a cancel landing on
    // any of them aborts with the typed error and an intact catalog.
    let baseline = fp(&db);
    for q in [&sorted, &top] {
        for nth in base + 1..=total {
            testing::abort_at_checkpoint(nth, AbortKind::Cancel);
            let err = db.run(q).expect_err("cancel inside the sort must abort");
            testing::clear();
            assert!(
                matches_kind(AbortKind::Cancel, &err),
                "{q} nth={nth}: {err}"
            );
            assert_eq!(fp(&db), baseline, "{q} nth={nth}: abort mutated state");
        }
        db.run(q).expect("the session survives");
    }
    maybms_par::set_threads(before_threads);
}

/// `UPDATE` evaluates its `SET` items over all its hit rows at once, and
/// passes one checkpoint per `Ticker::EVERY` of them — as many as a walk
/// ticking once per row — before the commit's own; a cancel landing on
/// any of them leaves the catalog intact.
#[test]
fn dml_passes_a_checkpoint_per_ticker_stride_of_rows() {
    let _l = lock();
    let before_threads = maybms_par::current_threads();
    maybms_par::set_threads(1);
    let mem = MemVfs::new();
    let mut db = seed(&mem);
    db.run("create table big (k bigint, v bigint)").unwrap();
    let rows: Vec<String> = (0..3000).map(|i| format!("({i}, {i})")).collect();
    let insert = format!("insert into big values {}", rows.join(", "));
    // The commit's checkpoint only.
    assert_eq!(checkpoints(&mut db, &insert), 1);
    db.run("insert into big select k, v from big").unwrap();
    // 6 000 hit rows: five strides, then the commit.
    let update = "update big set v = v + 1, k = k - 1";
    assert_eq!(checkpoints(&mut db, update), 6);
    let baseline = fp(&db);
    for nth in 1..=6 {
        testing::abort_at_checkpoint(nth, AbortKind::Cancel);
        let err = db.run(update).expect_err("a cancel must abort the update");
        testing::clear();
        assert!(matches_kind(AbortKind::Cancel, &err), "nth={nth}: {err}");
        assert_eq!(fp(&db), baseline, "nth={nth}: abort mutated state");
    }
    maybms_par::set_threads(before_threads);
}

/// A GROUP BY on a dictionary-encoded text column (groups from the
/// codes) runs on the same morsel driver as every pipeline: it passes a
/// governor checkpoint per morsel, and a cancel landing on any of them
/// aborts with the typed error and an intact catalog.
#[test]
fn dense_dictionary_group_by_is_a_checkpoint_per_morsel() {
    let _l = lock();
    let before_threads = maybms_par::current_threads();
    let mem = MemVfs::new();
    let mut db = seed(&mem);
    db.run("create table big (k bigint, s text)").unwrap();
    let rows: Vec<String> = (0..3000).map(|i| format!("({i}, 's{}')", i % 37)).collect();
    db.run(&format!("insert into big values {}", rows.join(", ")))
        .unwrap();
    let sql = "select s, count(*) as n from big group by s";
    for threads in [1usize, 2, 8] {
        maybms_par::set_threads(threads);
        let total = checkpoints(&mut db, sql);
        let stats = db.last_stats().unwrap();
        let [grouped] = &stats.pipelines()[..] else {
            panic!("one pipeline: {:?}", stats.steps())
        };
        assert!(
            grouped.stages.is_empty() && grouped.groups.get() == 37,
            "a stage-less group by a text key"
        );
        let morsels = grouped.morsels.get();
        assert!(
            morsels >= 1 && total >= morsels,
            "t{threads}: {total} checkpoints, {morsels} morsels"
        );
        let baseline = fp(&db);
        for nth in 1..=total {
            testing::abort_at_checkpoint(nth, AbortKind::Cancel);
            let err = db
                .run(sql)
                .expect_err("a cancel inside the fold must abort");
            testing::clear();
            assert!(
                matches_kind(AbortKind::Cancel, &err),
                "t{threads} nth={nth}: {err}"
            );
            assert_eq!(
                fp(&db),
                baseline,
                "t{threads} nth={nth}: abort mutated state"
            );
        }
        db.run(sql).expect("the session survives");
    }
    maybms_par::set_threads(before_threads);
}

/// The same contract for statements that fail on their own: an error in
/// the predicate, in a `SET` expression, or a value of the wrong type
/// family surfaces before anything is logged or installed.
#[test]
fn failed_dml_leaves_catalog_world_table_and_wal_untouched() {
    let _l = lock();
    let mem = MemVfs::new();
    let mut db = seed(&mem);
    let baseline = fp(&db);
    let vars = db.world_table().num_vars();
    let wal_before = mem.read("wal").unwrap();
    for sql in [
        "delete from games where player + 1 > 2",
        "update games set pts = pts + 1 where player + 1 > 2",
        "update games set pts = player + 1 where pts > 20",
        "update games set pts = 'forty' where pts > 20",
        "update picks set w = player",
        "insert into games values ('Ginobili', 17, 0.9), ('Horry', 'six', 0.1)",
        "insert into games values ('Ginobili', 17)",
    ] {
        assert!(db.run(sql).is_err(), "{sql} must fail");
        assert_eq!(fp(&db), baseline, "{sql} changed the catalog");
        assert_eq!(
            db.world_table().num_vars(),
            vars,
            "{sql} grew the world table"
        );
        assert_eq!(
            mem.read("wal").unwrap(),
            wal_before,
            "{sql} wrote WAL bytes"
        );
    }
    db.run("update games set pts = pts + 1 where pts > 20")
        .unwrap();
    assert_ne!(mem.read("wal").unwrap(), wal_before);
}

// ---------------------------------------------------------------------
// Graceful degradation: a deadline mid-`aconf` cuts the sample stream.
// ---------------------------------------------------------------------

/// One group whose lineage no d-tree certifies within an `aconf` node
/// budget, so the call samples: the 2-DNF `r_a ∧ t_b` over a random
/// bipartite graph of 150 edges between 30 + 30 tuple-independent rows of
/// probability 0.1. (One group keeps the per-group conf evaluation off the
/// parallel fan-out, so the governor's checkpoint stream is sequential and
/// a cut lands at a deterministic point.)
fn aconf_db() -> MayBms {
    let mut db = MayBms::new();
    let mut x: u64 = 7;
    let edges: Vec<String> = (0..150)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            format!("(1, {}, {})", (x >> 33) % 30, (x >> 45) % 30)
        })
        .collect();
    let side: Vec<String> = (0..30).map(|i| format!("({i}, 0.1)")).collect();
    db.run_script(&format!(
        "create table r (a bigint, w double precision);
         insert into r values {side};
         create table t (b bigint, w double precision);
         insert into t values {side};
         create table e (k bigint, a bigint, b bigint);
         insert into e values {edges};
         create table pr as select * from (pick tuples from r with probability w) x;
         create table pt as select * from (pick tuples from t with probability w) x;",
        side = side.join(", "),
        edges = edges.join(", "),
    ))
    .unwrap();
    db
}

const LINEAGE_SQL: &str = "select e.k from pr, e, pt where pr.a = e.a and e.b = pt.b";
const ACONF_SQL: &str = "select e.k, aconf(0.05, 0.05) as p from pr, e, pt \
                         where pr.a = e.a and e.b = pt.b group by e.k";

/// Run the aconf query with a deadline injected at checkpoint `nth`;
/// returns `Ok((bits, degraded))` on completion with the estimate's raw
/// f64 bits, `Err(())` when the statement was aborted outright.
fn run_aconf_cut(db: &mut MayBms, nth: u64) -> Result<(u64, bool), ()> {
    testing::abort_at_checkpoint(nth, AbortKind::Deadline);
    let result = db.query(ACONF_SQL);
    testing::clear();
    match result {
        Err(_) => Err(()),
        Ok(r) => {
            assert_eq!(r.len(), 1, "single group");
            let bits = r.tuples()[0].value(1).as_f64().unwrap().to_bits();
            let degraded = db
                .last_stats()
                .map(|s| s.degraded_conf.get() > 0)
                .unwrap_or(false);
            Ok((bits, degraded))
        }
    }
}

#[test]
fn degraded_aconf_estimate_is_deterministic_across_thread_counts() {
    let _l = lock();
    let before_threads = maybms_par::current_threads();
    maybms_par::set_threads(1);

    // Find the first checkpoint index where the deadline lands in the
    // confidence call — its d-tree attempt, which hands over to the
    // sampler's degrade path: the query then *succeeds* with a degraded
    // estimate instead of erroring (every earlier index aborts it in the
    // scan).
    let mut db = aconf_db();
    let mut cut = None;
    for nth in 1..=MAX_SWEEP {
        if let Ok((bits, degraded)) = run_aconf_cut(&mut db, nth) {
            assert!(
                degraded,
                "first surviving run (nth={nth}) must be the degraded one"
            );
            cut = Some((nth, bits));
            break;
        }
    }
    let (nth, bits_1thread) = cut.expect("no deadline landed in the sample stream");

    // The same cut point yields the bit-identical partial estimate at
    // any thread count — degradation, like everything else, is
    // deterministic.
    for threads in [1usize, 2, 8] {
        maybms_par::set_threads(threads);
        let mut db = aconf_db();
        let (bits, degraded) = run_aconf_cut(&mut db, nth)
            .unwrap_or_else(|_| panic!("cut at nth={nth} aborted at {threads} threads"));
        assert!(
            degraded,
            "cut at nth={nth} not degraded at {threads} threads"
        );
        assert_eq!(
            bits, bits_1thread,
            "degraded estimate differs at {threads} threads (nth={nth})"
        );
        // And it is reproducible within one thread count, too.
        let (bits2, _) = run_aconf_cut(&mut db, nth).unwrap();
        assert_eq!(bits, bits2, "degraded estimate not reproducible");
    }
    maybms_par::set_threads(before_threads);
}

/// Past the scan, a sampled `aconf` statement's checkpoints are its d-tree
/// attempt's, then its sample stream's batch boundaries: one before each
/// consumed batch, none elsewhere. A cancel at any of them aborts the run.
/// A deadline in the attempt never fails the statement: it hands over to
/// the sampler, which degrades before its first batch (estimate 0). A
/// deadline at the `k`-th batch boundary yields the partial estimate of
/// `(seed, k)` — the same bits whether the run is driven through SQL or
/// called directly on the group's lineage.
#[test]
fn aconf_checkpoints_are_its_batch_boundaries() {
    use maybms::conf::dklr::{approximate_seeded, Approximation, DklrOptions};
    use maybms::conf::karp_luby::KarpLuby;
    use maybms::conf::Dnf;

    let _l = lock();
    let mut db = aconf_db();
    let lineage = db.query_uncertain(LINEAGE_SQL).unwrap();
    let dnf = Dnf::from_wsds(lineage.tuples().iter().map(|t| &t.wsd));
    let kl = KarpLuby::new(&dnf, db.world_table()).unwrap();
    let opts = DklrOptions::new(0.05, 0.05);
    // The single group's single aconf slot: (group 0, slot 1).
    let seed = maybms::core::agg::ACONF_SEED + 1;
    // One direct run under a statement guard, `kind` injected at `nth`.
    let direct = |nth: u64, kind: AbortKind| -> (Result<Approximation, ()>, Option<u64>) {
        testing::abort_at_checkpoint(nth, kind);
        let guard = maybms_gov::begin_statement();
        let result = approximate_seeded(&kl, &opts, seed).map_err(|_| ());
        let remaining = testing::remaining();
        drop(guard);
        testing::clear();
        (result, remaining)
    };

    // Unprovoked, the run completes — through SQL with the same bits —
    // and passes exactly one checkpoint per batch it consumed.
    let (full, remaining) = direct(u64::MAX / 2, AbortKind::Cancel);
    let full = full.unwrap();
    assert_eq!(
        remaining,
        Some(u64::MAX / 2 - full.batches),
        "one checkpoint per batch"
    );
    assert!(full.batches >= 3, "the run spans several batches: {full:?}");
    let sql = db.query(ACONF_SQL).unwrap();
    assert_eq!(
        sql.tuples()[0].value(1).as_f64().unwrap().to_bits(),
        full.estimate.to_bits()
    );
    let stats = db.last_stats().unwrap();
    assert_eq!(
        (stats.answered[2].get(), stats.samples.get()),
        (1, full.samples)
    );
    let spent = stats.dtree_nodes.get();

    // The last `batches` checkpoints are the stream's; before them, back
    // to the scan, the attempt's — at least one per node it expanded.
    let first = checkpoints(&mut db, ACONF_SQL) - full.batches + 1;
    let baseline = fp(&db);
    let mut attempt = 0;
    for nth in (1..first).rev() {
        let Ok((bits, degraded)) = run_aconf_cut(&mut db, nth) else {
            break;
        };
        assert!(
            degraded && bits == 0f64.to_bits(),
            "deadline at nth={nth} in the attempt"
        );
        testing::abort_at_checkpoint(nth, AbortKind::Cancel);
        let err = db
            .run(ACONF_SQL)
            .expect_err("a cancel inside the attempt must abort");
        testing::clear();
        assert!(matches_kind(AbortKind::Cancel, &err), "nth={nth}: {err}");
        attempt += 1;
    }
    assert!(
        attempt > spent,
        "{attempt} attempt checkpoints for {spent} nodes"
    );
    assert_eq!(fp(&db), baseline, "an abort in the attempt mutated state");
    for k in 0..full.batches {
        assert!(
            direct(k + 1, AbortKind::Cancel).0.is_err(),
            "cancel at batch {k} ignored"
        );
        let cut = direct(k + 1, AbortKind::Deadline).0.unwrap();
        assert_eq!(cut.cut_batch, Some(k));
        assert_eq!(cut.drawn, cut.samples, "a cut run drew past its cut");
        let (bits, degraded) = run_aconf_cut(&mut db, first + k).unwrap();
        assert!(degraded, "SQL cut at batch {k} not degraded");
        assert_eq!(
            bits,
            cut.estimate.to_bits(),
            "cut at batch {k}: SQL vs direct"
        );
    }
}

// ---------------------------------------------------------------------
// Storage-fault contract.
// ---------------------------------------------------------------------

const INSERT_SQL: &str = "insert into games values ('Ginobili', 17, 0.9)";

#[test]
fn persistent_fault_poisons_the_store_and_preserves_state() {
    let _l = lock();
    let mem = MemVfs::new();
    let baseline = {
        let db = seed(&mem);
        fp(&db)
    };
    let fault = FaultVfs::new(mem.clone(), 1, FaultMode::FailStop);
    let mut db = MayBms::open_with_vfs(Arc::new(fault.clone())).unwrap();
    let err = db
        .run(INSERT_SQL)
        .expect_err("fail-stop fault must not be retried through");
    assert!(
        err.gov_abort().is_none(),
        "storage error misclassified as governor abort"
    );
    // Poisoned: mutations keep failing; reads of the in-memory catalog work.
    assert!(
        db.run(INSERT_SQL).is_err(),
        "poisoned store accepted a mutation"
    );
    db.run("select player from games").unwrap();
    assert_eq!(fp(&db), baseline, "failed statement mutated the catalog");
    // The durable image is exactly the pre-fault state.
    let recovered = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    assert_eq!(fp(&recovered), baseline);
}

#[test]
fn outage_poisons_at_once_and_reopen_recovers() {
    let _l = lock();
    let mem = MemVfs::new();
    drop(seed(&mem));
    // A one-op outage: the next statement's WAL append fails, then the
    // VFS heals. The store does not retry it.
    let fault = FaultVfs::new(mem.clone(), 1, FaultMode::Outage { ops: 1 });
    let mut db = MayBms::open_with_vfs(Arc::new(fault.clone())).unwrap();
    let baseline = fp(&db);
    let err = db
        .run(INSERT_SQL)
        .expect_err("a failed WAL append must fail its statement");
    assert!(fault.triggered(), "fault window was never reached");
    assert!(err.gov_abort().is_none());
    assert!(
        db.run(INSERT_SQL).is_err(),
        "store must be poisoned by the first failed append"
    );
    assert_eq!(fp(&db), baseline, "poisoning statement mutated the catalog");
    // Recovery is read-only over a clean log; once the outage is over,
    // `reopen` brings the store back and mutations land again.
    db.reopen().expect("reopen must recover a poisoned store");
    db.run(INSERT_SQL)
        .expect("a reopened store accepts mutations after the outage");
    // Exactly one insert landed (the failed append stayed off the WAL).
    let n = db
        .query("select player from games where player = 'Ginobili'")
        .unwrap()
        .len();
    assert_eq!(n, 1, "the failed attempt must not leave a row behind");
    let live = fp(&db);
    drop(db);
    let recovered = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    assert_eq!(
        fp(&recovered),
        live,
        "post-recovery mutations must be durable"
    );
}
