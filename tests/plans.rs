//! The join planner's decisions, pinned: `EXPLAIN` of the six
//! join-bearing benchmark statement shapes over a small fixture against
//! a golden file, what a run of each executed (`EXPLAIN ANALYZE`, row
//! counts kept, timings stripped) against a second one, and the walk's
//! build / probe row counts through `MayBms::last_stats()`. A planner
//! regression shows here as a diff of plans, not as a slower benchmark a
//! day later. `EXPLAIN` itself runs nothing: no pipeline, breaker or
//! confidence computation, no variable, no WAL byte — and it fails with
//! the statement's own static errors.
//!
//! To accept an intended plan change, replace `tests/golden/plans.txt`
//! (or `plans_analyzed.txt`) with the text the failing assertion prints.

use maybms::{CoreError, MayBms, StatementResult};

const PLAYERS: usize = 200;
const READINGS: usize = 600;

/// The benchmark's schema in miniature: the Figure 1 walk (`start`, three
/// `repair key` step tables of 16 transitions per player) and the sensor
/// tables (`readings`, its `pick tuples` twin `genuine`, `rooms`, `alerts`).
fn fixture() -> MayBms {
    let mut db = MayBms::new();
    let mut ft = Vec::new();
    let mut start = Vec::new();
    for p in 0..PLAYERS {
        start.push(format!("({p}, {})", p % 4));
        for k in 0..16 {
            ft.push(format!(
                "({p}, {}, {}, 0.{})",
                k / 4,
                k % 4,
                1 + (p + k) % 9
            ));
        }
    }
    let readings: Vec<String> = (0..READINGS)
        .map(|s| {
            format!(
                "({s}, 'room{:02}', {}.5, 0.{})",
                s % 20,
                10 + s % 20,
                1 + s % 9
            )
        })
        .collect();
    let rooms: Vec<String> = (0..20)
        .map(|i| format!("('room{i:02}', {}, 'k{}')", i % 5, i % 3))
        .collect();
    let alerts: Vec<String> = (0..30)
        .map(|i| format!("({}, {})", i * 17 % READINGS, i % 4))
        .collect();
    db.run_script(&format!(
        "create table ft (player bigint, init bigint, final bigint, p double precision);
         insert into ft values {};
         create table start (player bigint, state bigint);
         insert into start values {};
         create table step1 as select * from (repair key player, init in ft weight by p) r;
         create table step2 as select * from (repair key player, init in ft weight by p) r;
         create table step3 as select * from (repair key player, init in ft weight by p) r;
         create table readings (sensor bigint, room text, temp double precision, rel double precision);
         insert into readings values {};
         create table rooms (room text, floor bigint, kind text);
         insert into rooms values {};
         create table alerts (sensor bigint, level bigint);
         insert into alerts values {};
         create table genuine as select * from
           (pick tuples from readings independently with probability rel) g;",
        ft.join(", "),
        start.join(", "),
        readings.join(", "),
        rooms.join(", "),
        alerts.join(", "),
    ))
    .unwrap();
    db
}

/// The benchmark's walk statement (`benchmark/src/workloads/walk.rs`).
fn walk(steps: usize, lo: usize, hi: usize, agg: &str, by_state: bool) -> String {
    let mut from = String::from("start s");
    let mut cond = format!("s.player >= {lo} and s.player < {hi}");
    for k in 1..=steps {
        from.push_str(&format!(", step{k} r{k}"));
        let (player, state) = match k {
            1 => ("s.player".to_string(), "s.state".to_string()),
            _ => (format!("r{}.player", k - 1), format!("r{}.final", k - 1)),
        };
        cond.push_str(&format!(
            " and r{k}.player = {player} and r{k}.init = {state}"
        ));
    }
    let keys = if by_state {
        format!("r{steps}.final")
    } else {
        format!("s.player, r{steps}.final")
    };
    format!("select {keys}, {agg} as p from {from} where {cond} group by {keys}")
}

/// The six join-bearing benchmark statement shapes.
fn shapes() -> [(&'static str, String); 6] {
    [
        ("walk2", walk(2, 10, 15, "conf()", false)),
        ("walk3", walk(3, 10, 15, "conf()", false)),
        ("walk3 by state", walk(3, 10, 14, "conf()", true)),
        (
            "possible_join",
            "select possible g.sensor, m.floor from genuine g, rooms m where g.room = m.room \
             and g.sensor >= 100 and g.sensor < 110 and g.temp > 20.25"
                .to_string(),
        ),
        (
            "join_dim_group",
            "select m.floor, count(*) as n, avg(r.temp) as t from readings r, rooms m \
             where r.room = m.room and r.temp > 18.75 group by m.floor"
                .to_string(),
        ),
        (
            "join_fact_selective",
            "select a.level, count(*) as n, sum(r.temp) as t from alerts a, readings r \
             where a.sensor = r.sensor and a.level >= 1 group by a.level"
                .to_string(),
        ),
    ]
}

fn message(db: &mut MayBms, sql: &str) -> String {
    match db.run(sql).unwrap() {
        StatementResult::Ok { message } => message,
        other => panic!("{sql} must return a message, got {other:?}"),
    }
}

#[test]
fn benchmark_join_shapes_plan_as_recorded() {
    let mut db = fixture();
    let mut got = String::new();
    for (name, sql) in shapes() {
        got.push_str(&format!(
            "== {name}\n{}",
            message(&mut db, &format!("explain {sql}"))
        ));
    }
    let want = include_str!("golden/plans.txt");
    assert!(
        got == want,
        "plans changed; the new text of tests/golden/plans.txt would be:\n{got}"
    );
}

/// What ran, stage by stage, with the row counts each stage saw — which
/// side each join built included (`join_fact_selective` builds on its
/// prefix, a decision plain `EXPLAIN` leaves to the run). Wall times,
/// morsel counts and governor accounting vary from run to run and are cut.
#[test]
fn benchmark_join_shapes_run_as_recorded() {
    let mut db = fixture();
    let mut got = String::new();
    for (name, sql) in shapes() {
        got.push_str(&format!("== {name}\n"));
        for line in message(&mut db, &format!("explain analyze {sql}")).lines() {
            let cut = match line {
                l if l.starts_with('#') && l.ends_with("morsel(s)]") => l.rfind(" ["),
                l if l.starts_with("result:") => l.rfind(" in "),
                l if l.starts_with("governor:") || l.starts_with("scalar fallbacks:") => continue,
                _ => None,
            };
            got.push_str(&line[..cut.unwrap_or(line.len())]);
            got.push('\n');
        }
    }
    let want = include_str!("golden/plans_analyzed.txt");
    assert!(
        got == want,
        "runs changed; the new text of tests/golden/plans_analyzed.txt would be:\n{got}"
    );
}

/// `EXPLAIN` of the benchmark's most expensive walk statement does none of
/// its work: no pipeline is collected, no breaker runs, no confidence is
/// computed — its span tree holds none of them — while the statement
/// itself does all three.
#[test]
fn explain_runs_nothing() {
    // (stats pipelines, pipeline spans, breaker + conf spans) of one run.
    fn counts(db: &mut MayBms, sql: &str) -> (usize, usize, usize) {
        maybms_obs::trace::set_enabled(true);
        db.run(sql).unwrap();
        maybms_obs::trace::set_enabled(false);
        let stats = db.last_stats().unwrap();
        let spans = maybms_obs::trace::spans_for_root(stats.root_span().expect("tracing was on"));
        let count = |label: &str| spans.iter().filter(|s| s.label == label).count();
        (
            stats.pipeline_count(),
            count("pipeline"),
            count("breaker") + count("conf"),
        )
    }
    let mut db = fixture();
    let sql = walk(3, 10, 14, "conf()", true);
    assert_eq!(counts(&mut db, &format!("explain {sql}")), (0, 0, 0));
    let (pipelines, spans, conf) = counts(&mut db, &sql);
    assert_eq!((pipelines, spans), (4, 4));
    assert!(conf > 0);
}

/// Every static error surfaces from `EXPLAIN` exactly as from the
/// statement.
#[test]
fn explain_fails_with_the_statements_static_errors() {
    let mut db = fixture();
    for sql in [
        "select nope from start",
        "select player from start s, step1 r1 where r1.player = s.player",
        "select player from start order by 3",
        "select player, tconf() as p from genuine group by player",
        "select sensor, tconf() as p from genuine having p > 0.5",
        "select player from start having player = 1",
        "select player, state from start group by player",
        "select possible player, count(*) as n from start",
        "select argmax(player, state) as a, count(*) as n from start",
        "select player from start where player in (select player, state from start)",
        "select * from (repair key nope in ft weight by p) r",
        "select * from nowhere",
        // aconf arguments out of range, over non-empty groups and over
        // none: a plan error either way, not zero rows.
        "select room, aconf(2.0, 0.5) as p from genuine group by room",
        "select room, aconf(0.1, 0) as p from genuine where sensor < 0 group by room",
    ] {
        let err = db.run(sql).unwrap_err();
        assert_eq!(db.run(&format!("explain {sql}")).unwrap_err(), err, "{sql}");
        if sql.contains("aconf") {
            assert!(
                matches!(err, CoreError::Plan { .. }) && err.to_string().contains("outside (0, 1)"),
                "{err}"
            );
        }
    }
}

/// `EXPLAIN` of `repair key` and `pick tuples` registers no variable and
/// logs nothing — it used to run the query, and a durable database kept
/// the variables across a reopen.
#[test]
fn explain_leaves_a_durable_database_unchanged() {
    let dir = std::env::temp_dir().join(format!("maybms-explain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = MayBms::open(&dir).unwrap();
    db.run_script(
        "create table coin (face text, w double precision);
         insert into coin values ('heads', 1.0), ('tails', 1.0), ('edge', 0.5);",
    )
    .unwrap();
    let (vars, wal) = (
        db.world_table().num_vars(),
        db.durability_status().unwrap().wal_bytes,
    );
    for sql in [
        "explain select face, conf() as p from (repair key in coin weight by w) c group by face",
        "explain select possible face from (pick tuples from coin with probability 0.5) c",
    ] {
        message(&mut db, sql);
    }
    assert_eq!(db.world_table().num_vars(), vars);
    assert_eq!(db.durability_status().unwrap().wal_bytes, wal);
    db.run("insert into coin values ('side', 0.1)").unwrap();
    db.reopen().unwrap();
    assert_eq!(db.world_table().num_vars(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

const REPAIRED: &str = "(repair key player in ft weight by w) r";

/// `ft` and `kept`, a stored `repair key` of it (two variables), in
/// memory and on a fresh data directory named after `test`; then `stmt`
/// must leave the world table as it found it, `kept`'s variables
/// included, across a reopen too.
fn leaves_no_variables(test: &str, stmt: impl Fn(&mut MayBms)) {
    let dir = std::env::temp_dir().join(format!("maybms-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for durable in [false, true] {
        let mut db = if durable {
            MayBms::open(&dir).unwrap()
        } else {
            MayBms::new()
        };
        db.run_script(&format!(
            "create table ft (player bigint, fin text, w double precision);
             insert into ft values (1, 'F', 0.5), (1, 'SE', 0.5), (2, 'F', 0.2), (2, 'SL', 0.8);
             create table kept as select * from {REPAIRED};"
        ))
        .unwrap();
        assert_eq!(db.world_table().num_vars(), 2);
        stmt(&mut db);
        assert_eq!(db.world_table().num_vars(), 2, "durable: {durable}");
        let kept = "select fin, conf() as p from kept group by fin order by fin";
        let before = db.query(kept).unwrap();
        if durable {
            db.reopen().unwrap();
            assert_eq!(db.world_table().num_vars(), 2);
        }
        assert_eq!(db.query(kept).unwrap(), before);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A statement that fails with division by zero after an inline
/// `repair key` forgets the variables the `repair key` registered.
#[test]
fn failed_statement_leaves_no_variables() {
    leaves_no_variables("failed", |db| {
        let err = db
            .run(&format!(
                "select fin, conf() as p from {REPAIRED} where 1 / (player - player) > 0 group by fin"
            ))
            .unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    });
}

/// `EXPLAIN ANALYZE` runs its query but stores nothing, so it forgets the
/// variables an inline `repair key` registered.
#[test]
fn explain_analyze_leaves_no_variables() {
    leaves_no_variables("analyze", |db| {
        let plan = message(
            db,
            &format!("explain analyze select fin, conf() as p from {REPAIRED} group by fin"),
        );
        assert!(plan.contains("REPAIR KEY"), "{plan}");
    });
}

/// A query with a t-certain result references no variable, so reads over
/// an inline `repair key` give theirs back; a later `insert` logs none.
#[test]
fn certain_query_leaves_no_variables() {
    leaves_no_variables("certain", |db| {
        for _ in 0..3 {
            db.query(&format!(
                "select fin, conf() as p from {REPAIRED} group by fin"
            ))
            .unwrap();
        }
        db.run("insert into ft values (3, 'F', 1.0)").unwrap();
    });
}

/// `BETWEEN` is its two comparisons, so a range on the walk's start player
/// reaches every step table as implied σ stages.
#[test]
fn between_bounds_imply_filters_on_every_step() {
    let mut db = fixture();
    let sql = walk(3, 10, 15, "conf()", false).replace(
        "s.player >= 10 and s.player < 15",
        "s.player between 10 and 14",
    );
    let plan = message(&mut db, &format!("explain {sql}"));
    for step in [
        "r1.player = s.player",
        "r2.player = r1.player",
        "r3.player = r2.player",
    ] {
        assert_eq!(
            plan.matches(&format!("(implied by {step})")).count(),
            2,
            "{step}: {plan}"
        );
    }
    assert_eq!(
        db.query(&sql).unwrap(),
        db.query(&walk(3, 10, 15, "conf()", false)).unwrap()
    );
}

/// The Figure 1 three-step walk over a `w`-player window scans each step
/// table down to that window before building (16·w rows per build, not
/// the table) and joins on both key columns at once (64·w rows out of
/// the last probe — one per path — not 256·w for a σ to thin out).
#[test]
fn walk_builds_and_probes_only_the_window() {
    let mut db = fixture();
    for w in [1usize, 4, 7] {
        db.query(&walk(3, 20, 20 + w, "ecount()", false)).unwrap();
        let stats = db.last_stats().unwrap();
        let probes: Vec<(u64, u64, u64)> = stats
            .pipelines()
            .iter()
            .flat_map(|p| p.stages.iter())
            .filter(|s| s.label.starts_with("hash probe"))
            .map(|s| (s.rows_in.get(), s.rows_out.get(), s.build_rows.get()))
            .collect();
        let w = w as u64;
        // (rows in, rows out, build rows): the original restriction still
        // filters `start` (w rows reach the first probe).
        assert_eq!(
            probes,
            vec![
                (w, 4 * w, 16 * w),
                (4 * w, 16 * w, 16 * w),
                (16 * w, 64 * w, 16 * w)
            ]
        );
    }
}
