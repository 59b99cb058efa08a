//! E6 (§2.2): cost of constructing the hypothesis space — `repair key`
//! over growing group counts and alternatives per group, and
//! `pick tuples` over growing tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_bench::workloads::repair_input;
use maybms_engine::Expr;
use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
use maybms_urel::repair::{repair_key, RepairKeyOptions};
use maybms_urel::WorldTable;

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_key");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for groups in [1_000usize, 10_000] {
        for alts in [4usize, 16] {
            let input = repair_input(31, groups, alts);
            group.bench_with_input(
                BenchmarkId::new(format!("repair_g{groups}"), format!("a{alts}")),
                &(groups, alts),
                |b, _| {
                    b.iter(|| {
                        let mut wt = WorldTable::new();
                        repair_key(
                            &input,
                            &[Expr::col("k")],
                            &RepairKeyOptions {
                                weight: Some(Expr::col("w")),
                            },
                            &mut wt,
                        )
                        .unwrap()
                        .len()
                    })
                },
            );
        }
    }
    for rows in [1_000usize, 10_000, 100_000] {
        let input = repair_input(33, rows, 1);
        group.bench_with_input(BenchmarkId::new("pick_tuples", rows), &rows, |b, _| {
            b.iter(|| {
                let mut wt = WorldTable::new();
                pick_tuples(&input, &PickTuplesOptions::default(), &mut wt)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair);
criterion_main!(benches);
