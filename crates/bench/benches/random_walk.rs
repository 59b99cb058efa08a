//! E1 (Figure 1 / §3 "Fitness prediction"): cost of k-step random walks on
//! stochastic matrices via `repair key` + `conf()`, scaling in the number
//! of players and the walk length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_bench::workloads;
use maybms_core::MayBms;

/// Build the FT/States tables for `players` and run a k-step walk.
fn run_walk(players: usize, steps: usize) -> usize {
    let (ft, states) = workloads::nba(42, players);
    let mut db = MayBms::new();
    db.register("ft", ft).unwrap();
    db.register("states", states).unwrap();
    // Step 1 result table seeded from the initial states.
    db.run(
        "create table W1 as
         select R.Player, S.State as Init, R.Final, conf() as p from
         (repair key Player, Init in FT weight by p) R, States S
         where R.Player = S.Player and R.Init = S.State
         group by R.Player, S.State, R.Final;",
    )
    .unwrap();
    for k in 2..=steps {
        let sql = format!(
            "create table W{k} as
             select R1.Player, R1.Init, R2.Final, conf() as p from
             (repair key Player, Init in W{} weight by p) R1,
             (repair key Player, Init in FT weight by p) R2
             where R1.Final = R2.Init and R1.Player = R2.Player
             group by R1.Player, R1.Init, R2.Final;",
            k - 1
        );
        db.run(&sql).unwrap();
    }
    db.query(&format!("select Player, Final, p from W{steps}"))
        .unwrap()
        .len()
}

fn bench_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_walk");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for players in [4usize, 16, 64] {
        for steps in [1usize, 2, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("players{players}"), format!("steps{steps}")),
                &(players, steps),
                |b, &(players, steps)| b.iter(|| run_walk(players, steps)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_walk);
criterion_main!(benches);
