//! E1 harness: random-walk scaling table (Figure 1 / §3).
//!
//! Prints median wall time of the full SQL pipeline (repair-key + conf)
//! per (players, steps) cell, plus a correctness column: the walk output
//! distribution sums to 1 per player (a NO fails the run). E1b then
//! times exact `conf()` alone on one walk-shaped group (the lineage of
//! "some player ends in state 2") at 4× steps of players: linear d-tree
//! cost shows as a ratio near 4 per row.

use std::time::Instant;

use maybms_bench::workloads;
use maybms_conf::exact;
use maybms_core::MayBms;

fn run_walk(players: usize, steps: usize) -> (f64, bool) {
    let (ft, states) = workloads::nba(42, players);
    let start = Instant::now();
    let mut db = MayBms::new();
    db.register("ft", ft).unwrap();
    db.register("states", states).unwrap();
    db.run(
        "create table W1 as
         select R.Player, S.State as Init, R.Final, conf() as p from
         (repair key Player, Init in FT weight by p) R, States S
         where R.Player = S.Player and R.Init = S.State
         group by R.Player, S.State, R.Final;",
    )
    .unwrap();
    for k in 2..=steps {
        db.run(&format!(
            "create table W{k} as
             select R1.Player, R1.Init, R2.Final, conf() as p from
             (repair key Player, Init in W{} weight by p) R1,
             (repair key Player, Init in FT weight by p) R2
             where R1.Final = R2.Init and R1.Player = R2.Player
             group by R1.Player, R1.Init, R2.Final;",
            k - 1
        ))
        .unwrap();
    }
    let out = db
        .query(&format!("select Player, p from W{steps}"))
        .unwrap();
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    // Correctness: per-player distribution sums to 1.
    let mut sums: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for t in out.tuples() {
        *sums.entry(t.value(0).to_string()).or_insert(0.0) += t.value(1).as_f64().unwrap();
    }
    let ok = sums.values().all(|s| (s - 1.0).abs() < 1e-9);
    (elapsed, ok)
}

fn main() {
    println!("E1 — k-step random walks via repair-key + conf (Figure 1)");
    println!(
        "{:<10} {:>6} {:>12} {:>8}",
        "players", "steps", "median ms", "sums=1"
    );
    let mut all_ok = true;
    for players in [4usize, 16, 64, 256] {
        for steps in [1usize, 2, 3, 4] {
            let mut times = Vec::new();
            let mut ok = true;
            for _ in 0..3 {
                let (t, o) = run_walk(players, steps);
                times.push(t);
                ok &= o;
            }
            times.sort_by(f64::total_cmp);
            println!(
                "{:<10} {:>6} {:>12.2} {:>8}",
                players,
                steps,
                times[times.len() / 2],
                if ok { "yes" } else { "NO" }
            );
            all_ok &= ok;
        }
    }
    assert!(all_ok, "a walk's final distribution does not sum to 1");

    println!("\nE1b — exact conf() of one walk-shaped group (16 clauses per player)");
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>12}",
        "players", "clauses", "median ms", "ratio", "d-tree nodes"
    );
    let mut last: Option<f64> = None;
    for players in [20usize, 80, 320, 1280] {
        let (wt, dnf) = workloads::walk_group_dnf(7, players);
        let mut times = Vec::new();
        let mut nodes = 0;
        for _ in 0..7 {
            let t0 = Instant::now();
            let (_, s) = exact::probability_with(&dnf, &wt).unwrap();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            nodes = s.nodes();
        }
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let ratio = last.map_or(String::from("-"), |l| format!("{:.2}", median / l));
        println!(
            "{:<10} {:>8} {:>12.3} {:>10} {:>12}",
            players,
            dnf.len(),
            median,
            ratio,
            nodes
        );
        last = Some(median);
    }
}
