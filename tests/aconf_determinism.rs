//! SQL-level `aconf` determinism: the rows of a grouped `aconf` statement
//! are bit-identical at 1/2/8 execution threads — on both branches of the
//! group scheduler: a loop (fewer than 8 groups whose lineage totals fewer
//! than 1 024 clauses, or groups without lineage) and a fan-out (at least
//! 8 groups, or fewer whose lineage totals at least 1 024 clauses),
//! answered exactly by the d-tree or sampled past its budget — and after a
//! checkpoint and re-open, and every estimate sits inside its ε of the
//! exact `conf()` of the same group.
//!
//! The thread count is process-global, so the whole check is one test.

use std::sync::Arc;

use maybms::store::MemVfs;
use maybms::MayBms;

/// Players in the transition table; the small walks read the first
/// `FEW` of them.
const PLAYERS: usize = 120;
const FEW: usize = 12;
const STATES: usize = 3;

/// A two-hop random walk per player (Figure 1's shape): `hop1`, `hop2` are
/// repairs of the transition table on `(player, init)`.
fn seed(mem: &MemVfs) -> MayBms {
    let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    db.run("create table ft (player bigint, init bigint, final bigint, p double precision)")
        .unwrap();
    let mut rows = Vec::new();
    for player in 0..PLAYERS {
        for init in 0..STATES {
            for last in 0..STATES {
                let w = 1 + (player * 7 + init * 5 + last * 3) % 11;
                rows.push(format!("({player}, {init}, {last}, {w}.0)"));
            }
        }
    }
    db.run(&format!("insert into ft values {}", rows.join(", ")))
        .unwrap();
    for hop in ["hop1", "hop2"] {
        db.run(&format!(
            "create table {hop} as select * from (repair key player, init in ft weight by p) r"
        ))
        .unwrap();
    }
    // Eight groups of `r_a ∧ t_b` over random bipartite graphs of 150
    // edges between 30 + 30 rows of probability 0.1: lineage no d-tree
    // certifies within an `aconf` budget, so these calls sample.
    let mut x: u64 = 9;
    let edges: Vec<String> = (0..8 * 150)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            format!("({}, {}, {})", i % 8, (x >> 33) % 30, (x >> 45) % 30)
        })
        .collect();
    let side: Vec<String> = (0..30).map(|i| format!("({i}, 0.1)")).collect();
    let side = side.join(", ");
    db.run_script(&format!(
        "create table r (a bigint, w double precision);
         insert into r values {side};
         create table t (b bigint, w double precision);
         insert into t values {side};
         create table e (g bigint, a bigint, b bigint);
         insert into e values {};
         create table pr as select * from (pick tuples from r with probability w) x;
         create table pt as select * from (pick tuples from t with probability w) x;",
        edges.join(", "),
    ))
    .unwrap();
    db
}

const SAMPLED: &str = "select e.g, aconf(0.1, 0.05) as p, aconf(0.2, 0.1) as q, conf() as e \
                       from pr, e, pt where pr.a = e.a and e.b = pt.b group by e.g";

fn walk(keys: &str, aggs: &str, players: usize) -> String {
    format!(
        "select {keys}, {aggs} from hop1 a, hop2 b where a.init = 0 and a.player < {players} \
         and b.player = a.player and b.init = a.final group by {keys}"
    )
}

/// One statement of the determinism check and what its run must show.
struct Case {
    groups: usize,
    sql: String,
    /// `aconf` slots per group.
    aconf_slots: u64,
    /// Whether its `aconf` calls sample past the d-tree budget.
    sampled: bool,
    /// The scheduler's decision: `[fanned out, in a loop]` breakers.
    schedule: [u64; 2],
}

/// Every value of every row, floats by their bits.
fn bits(db: &mut MayBms, sql: &str) -> Vec<Vec<String>> {
    let rel = db.query(sql).unwrap();
    rel.tuples()
        .iter()
        .map(|t| {
            (0..rel.schema().len())
                .map(|c| match t.value(c).as_f64() {
                    Some(x) => format!("{:016x}", x.to_bits()),
                    None => t.value(c).to_string(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn aconf_rows_are_bit_identical_across_threads_scheduling_branches_and_reopen() {
    let before_threads = maybms_par::current_threads();
    let mem = MemVfs::new();
    let mut db = seed(&mem);
    // Two aconf slots per group exercise the (group, slot) seed numbering.
    let aggs = "aconf(0.1, 0.05) as p, aconf(0.2, 0.1) as q, conf() as e";
    let fanned = [1, 0];
    let looped = [0, 1];
    let queries = [
        // 3 groups of 36 clauses (12 independent players each): the
        // scheduler's loop branch; the d-tree certifies every aconf.
        Case {
            groups: STATES,
            sql: walk("b.final", aggs, FEW),
            aconf_slots: 2,
            sampled: false,
            schedule: looped,
        },
        // 36 groups of 3 pairwise-exclusive clauses: the fan-out branch,
        // also certified.
        Case {
            groups: FEW * STATES,
            sql: walk("a.player, b.final", aggs, FEW),
            aconf_slots: 2,
            sampled: false,
            schedule: fanned,
        },
        // 3 groups of 360 clauses, 1 080 in all: fewer than 8 groups, but
        // enough lineage to fan out.
        Case {
            groups: STATES,
            sql: walk("b.final", aggs, PLAYERS),
            aconf_slots: 2,
            sampled: false,
            schedule: fanned,
        },
        // 360 groups without lineage: `ecount()` only, in a loop however
        // many groups there are (nothing is recorded: no conf slot).
        Case {
            groups: PLAYERS * STATES,
            sql: walk("a.player, b.final", "ecount() as n", PLAYERS),
            aconf_slots: 0,
            sampled: false,
            schedule: [0, 0],
        },
        // 8 groups past the d-tree budget: the fan-out branch, sampled.
        Case {
            groups: 8,
            sql: SAMPLED.to_string(),
            aconf_slots: 2,
            sampled: true,
            schedule: fanned,
        },
    ];
    for case in &queries {
        let sql = &case.sql;
        maybms_par::set_threads(1);
        let reference = bits(&mut db, sql);
        assert_eq!(reference.len(), case.groups);
        let stats = db.last_stats().unwrap();
        let n_aconf = case.aconf_slots * case.groups as u64;
        let by_sampler = if case.sampled { n_aconf } else { 0 };
        assert_eq!(stats.answered[2].get(), by_sampler, "{sql}");
        assert_eq!(stats.aconf_exact.get(), n_aconf - by_sampler, "{sql}");
        assert_eq!(stats.samples.get() > 0, case.sampled, "{sql}");
        let schedule = [stats.groups_fanned_out.get(), stats.groups_looped.get()];
        assert_eq!(schedule, case.schedule, "{sql}");
        for threads in [2usize, 8] {
            maybms_par::set_threads(threads);
            assert_eq!(bits(&mut db, sql), reference, "threads = {threads}: {sql}");
            let stats = db.last_stats().unwrap();
            let schedule = [stats.groups_fanned_out.get(), stats.groups_looped.get()];
            assert_eq!(schedule, case.schedule, "threads = {threads}: {sql}");
        }
    }
    // The same statements against the checkpointed, re-opened database.
    let before: Vec<_> = queries.iter().map(|c| bits(&mut db, &c.sql)).collect();
    db.checkpoint().unwrap();
    drop(db);
    let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    for (case, rows) in queries.iter().zip(&before) {
        let sql = &case.sql;
        assert_eq!(
            &bits(&mut db, sql),
            rows,
            "after checkpoint + reopen: {sql}"
        );
    }
    // Both slots of every group land inside their ε of the exact answer
    // (a fixed seed makes this a fact about these rows, not a gamble).
    for case in queries.iter().filter(|c| c.aconf_slots > 0) {
        let rel = db.query(&case.sql).unwrap();
        let n = rel.schema().len();
        for t in rel.tuples() {
            let [p, q, e] = [n - 3, n - 2, n - 1].map(|c| t.value(c).as_f64().unwrap());
            assert!((p - e).abs() <= 0.1 * e, "aconf(0.1) {p} vs conf {e}");
            assert!((q - e).abs() <= 0.2 * e, "aconf(0.2) {q} vs conf {e}");
        }
    }
    maybms_par::set_threads(before_threads);
}

/// `aconf(0.05, 0.05)` over 200 groups of ~115 independent tuples — a
/// statement that sampled for over nine minutes when `aconf` always
/// sampled — is the independent product: `conf()`'s bits, no sample.
#[test]
fn aconf_over_independent_groups_is_conf_without_a_sample() {
    let mut db = MayBms::new();
    let rows: Vec<String> = (0..23_000)
        .map(|i| format!("({}, 0.0{})", (i * 7) % 200, 1 + i % 9))
        .collect();
    db.run_script(&format!(
        "create table s (g bigint, w double precision);
         insert into s values {};
         create table ps as select * from (pick tuples from s with probability w) x;",
        rows.join(", "),
    ))
    .unwrap();
    let rows = bits(
        &mut db,
        "select g, aconf(0.05, 0.05) as p, conf() as e from ps group by g",
    );
    assert_eq!(rows.len(), 200);
    for row in &rows {
        assert_eq!(
            row[1], row[2],
            "group {}: aconf is not conf()'s product",
            row[0]
        );
    }
    let stats = db.last_stats().unwrap();
    assert_eq!(
        (stats.answered[0].get(), stats.aconf_exact.get()),
        (400, 200)
    );
    assert_eq!(stats.samples.get(), 0);
}
