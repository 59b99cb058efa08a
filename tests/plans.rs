//! The join planner's decisions, pinned: `EXPLAIN` of the six
//! join-bearing benchmark statement shapes over a small fixture against
//! a golden file, and the walk's build / probe row counts through
//! `MayBms::last_stats()`. A planner regression shows here as a diff of
//! plans, not as a slower benchmark a day later.
//!
//! To accept an intended plan change, replace `tests/golden/plans.txt`
//! with the text the failing assertion prints.

use maybms::{MayBms, StatementResult};

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
            ft.push(format!("({p}, {}, {}, 0.{})", k / 4, k % 4, 1 + (p + k) % 9));
        }
    }
    let readings: Vec<String> = (0..READINGS)
        .map(|s| format!("({s}, 'room{:02}', {}.5, 0.{})", s % 20, 10 + s % 20, 1 + s % 9))
        .collect();
    let rooms: Vec<String> = (0..20).map(|i| format!("('room{i:02}', {}, 'k{}')", i % 5, i % 3)).collect();
    let alerts: Vec<String> = (0..30).map(|i| format!("({}, {})", i * 17 % READINGS, i % 4)).collect();
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
        cond.push_str(&format!(" and r{k}.player = {player} and r{k}.init = {state}"));
    }
    let keys = if by_state { format!("r{steps}.final") } else { format!("s.player, r{steps}.final") };
    format!("select {keys}, {agg} as p from {from} where {cond} group by {keys}")
}

#[test]
fn benchmark_join_shapes_plan_as_recorded() {
    let mut db = fixture();
    let shapes = [
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
    ];
    let mut got = String::new();
    for (name, sql) in shapes {
        let StatementResult::Ok { message } = db.run(&format!("explain {sql}")).unwrap() else {
            panic!("EXPLAIN must return a message")
        };
        got.push_str(&format!("== {name}\n{message}"));
    }
    let want = include_str!("golden/plans.txt");
    assert!(got == want, "plans changed; the new text of tests/golden/plans.txt would be:\n{got}");
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
        assert_eq!(probes, vec![(w, 4 * w, 16 * w), (4 * w, 16 * w, 16 * w), (16 * w, 64 * w, 16 * w)]);
    }
}
