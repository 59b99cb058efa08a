//! SQL-level `aconf` determinism: the rows of a grouped `aconf` statement
//! are bit-identical at 1/2/8 execution threads — with fewer than 8 groups
//! (the group scheduler runs them in a loop) and with at least 8 (it fans
//! them out) — and after a checkpoint and re-open, and every estimate sits
//! inside its ε of the exact `conf()` of the same group.
//!
//! The thread count is process-global, so the whole check is one test.

use std::sync::Arc;

use maybms::store::MemVfs;
use maybms::MayBms;

const PLAYERS: usize = 12;
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
    db.run(&format!("insert into ft values {}", rows.join(", "))).unwrap();
    for hop in ["hop1", "hop2"] {
        db.run(&format!(
            "create table {hop} as select * from (repair key player, init in ft weight by p) r"
        ))
        .unwrap();
    }
    db
}

fn walk(keys: &str, aggs: &str) -> String {
    format!(
        "select {keys}, {aggs} from hop1 a, hop2 b \
         where a.init = 0 and b.player = a.player and b.init = a.final group by {keys}"
    )
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
    let queries = [
        // 3 groups of 36 clauses (12 independent players each): the
        // scheduler's loop branch.
        (STATES, walk("b.final", aggs)),
        // 36 groups of 3 pairwise-exclusive clauses: the fan-out branch.
        (PLAYERS * STATES, walk("a.player, b.final", aggs)),
    ];
    for (groups, sql) in &queries {
        maybms_par::set_threads(1);
        let reference = bits(&mut db, sql);
        assert_eq!(reference.len(), *groups);
        for threads in [2usize, 8] {
            maybms_par::set_threads(threads);
            assert_eq!(bits(&mut db, sql), reference, "threads = {threads}: {sql}");
        }
    }
    // The same statements against the checkpointed, re-opened database.
    let before: Vec<_> = queries.iter().map(|(_, sql)| bits(&mut db, sql)).collect();
    db.checkpoint().unwrap();
    drop(db);
    let mut db = MayBms::open_with_vfs(Arc::new(mem.clone())).unwrap();
    for ((_, sql), rows) in queries.iter().zip(&before) {
        assert_eq!(&bits(&mut db, sql), rows, "after checkpoint + reopen: {sql}");
    }
    // Both slots of every group land inside their ε of the exact answer
    // (a fixed seed makes this a fact about these rows, not a gamble).
    for (_, sql) in &queries {
        let rel = db.query(sql).unwrap();
        let n = rel.schema().len();
        for t in rel.tuples() {
            let [p, q, e] = [n - 3, n - 2, n - 1].map(|c| t.value(c).as_f64().unwrap());
            assert!((p - e).abs() <= 0.1 * e, "aconf(0.1) {p} vs conf {e}");
            assert!((q - e).abs() <= 0.2 * e, "aconf(0.2) {q} vs conf {e}");
        }
    }
    maybms_par::set_threads(before_threads);
}
