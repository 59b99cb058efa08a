//! E7 (ablation of the Koch–Olteanu exact algorithm, DESIGN.md §3): the
//! value of independence decomposition on block-structured DNFs and the
//! variable-elimination heuristics on random DNFs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_bench::workloads::{block_dnf, random_dnf, DnfParams};
use maybms_conf::exact::{probability_with, ExactOptions, VarChoice};

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_ablation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // Decomposition on/off over block-structured DNFs.
    for blocks in [6usize, 10] {
        let (wt, dnf) = block_dnf(17, blocks, 4, 3, 2);
        group.bench_with_input(BenchmarkId::new("decompose_on", blocks), &blocks, |b, _| {
            b.iter(|| {
                probability_with(&dnf, &wt, &ExactOptions::standard())
                    .unwrap()
                    .0
            })
        });
        group.bench_with_input(
            BenchmarkId::new("decompose_off", blocks),
            &blocks,
            |b, _| {
                let opts = ExactOptions {
                    decompose: false,
                    ..ExactOptions::standard()
                };
                b.iter(|| probability_with(&dnf, &wt, &opts).unwrap().0)
            },
        );
    }

    // Variable-elimination heuristics on a connected random DNF.
    let (wt, dnf) = random_dnf(
        19,
        DnfParams {
            clauses: 18,
            vars: 12,
            clause_len: 3,
            domain: 3,
        },
    );
    for (name, choice) in [
        ("max_occurrence", VarChoice::MaxOccurrence),
        ("min_domain", VarChoice::MinDomain),
        ("first", VarChoice::First),
    ] {
        group.bench_with_input(BenchmarkId::new("heuristic", name), &name, |b, _| {
            let opts = ExactOptions {
                var_choice: choice,
                ..ExactOptions::standard()
            };
            b.iter(|| probability_with(&dnf, &wt, &opts).unwrap().0)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
