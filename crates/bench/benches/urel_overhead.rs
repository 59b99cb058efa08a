//! E5 (Antova–Jansen–Koch–Olteanu, ICDE'08): positive relational algebra
//! on U-relations costs about the same as on certain tables of the same
//! representation size, although the U-relation stands for 2^rows worlds —
//! query time depends on the representation, never on the world count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_bench::workloads::overhead_pair;
use maybms_engine::{BinaryOp, Expr};
use maybms_pipe::UStream;
use maybms_urel::URelation;

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("urel_overhead");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for rows in [1_000usize, 10_000] {
        let (certain, _wt, uncertain) = overhead_pair(21, rows, (rows / 10) as i64);
        let certain = URelation::from_certain(&certain);
        let pred = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
        // σ then self-⋈ on k as one fused chain: the same engine over
        // empty (certain twin) and non-empty (U-relational twin)
        // condition columns.
        for (name, u) in [
            ("certain_select_join", &certain),
            ("uncertain_select_join", &uncertain),
        ] {
            group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
                b.iter(|| {
                    UStream::new(u.clone())
                        .filter(&pred)
                        .unwrap()
                        .hash_join(u.clone(), &[0], &[0])
                        .unwrap()
                        .collect()
                        .unwrap()
                        .len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
