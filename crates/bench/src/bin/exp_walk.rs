//! E1 harness: random-walk scaling table (Figure 1 / §3).
//!
//! Prints median wall time of the full SQL pipeline (repair-key + conf)
//! per (players, steps) cell, plus a correctness column: the walk output
//! distribution sums to 1 per player (a NO fails the run). E1b then
//! times exact `conf()` alone — `lineage_confidence`, members in the
//! order given, one scratch reused call after call, as a statement's
//! groups run — on walk groups (the lineage of "some player ends in
//! state 2"): a `walk2_conf` group (4 clauses), a `walk3_conf` one (16)
//! and `walk3_state_conf`-shaped ones at 4× steps of players. It prints
//! µs a call and ns a d-tree node, the two figures ROADMAP direction 3
//! (b) sets targets for; linear d-tree cost reads as a flat ns-a-node
//! column. It asserts no timing.

use std::time::Instant;

use maybms_bench::workloads;
use maybms_conf::{lineage_confidence, ConfMethod, ConfScratch};
use maybms_core::MayBms;
use maybms_obs::QueryStats;

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

    println!("\nE1b — exact conf() of one walk group, members in order, one scratch");
    println!(
        "{:<8} {:>6} {:>8} {:>12} {:>12} {:>10}",
        "players", "steps", "clauses", "us a call", "d-tree nodes", "ns a node"
    );
    let stats = QueryStats::new();
    let mut scratch = ConfScratch::new(&stats);
    for (players, steps) in [(1, 2), (1, 3), (20, 3), (80, 3), (320, 3), (1280, 3)] {
        let (wt, members) = workloads::walk_group(7, players, steps);
        // Enough calls a batch to time a 4-clause call (~5 ms a batch).
        let calls = (40_000 / members.len()).max(1);
        let mut conf = || lineage_confidence(&members, &wt, ConfMethod::Exact, &mut scratch);
        let nodes = conf().unwrap().1.dtree_nodes;
        let mut per_call = Vec::new();
        for _ in 0..7 {
            let t0 = Instant::now();
            for _ in 0..calls {
                conf().unwrap();
            }
            per_call.push(t0.elapsed().as_secs_f64() * 1e6 / calls as f64);
        }
        per_call.sort_by(f64::total_cmp);
        let us = per_call[per_call.len() / 2];
        println!(
            "{:<8} {:>6} {:>8} {:>12.3} {:>12} {:>10.1}",
            players,
            steps,
            members.len(),
            us,
            nodes,
            us * 1e3 / nodes as f64
        );
    }
    println!("targets (ROADMAP 3 b): <= 100 ns a node; <= 0.5 us a 4-clause call");
}
