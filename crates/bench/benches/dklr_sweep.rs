//! E3 (Dagum–Karp–Luby–Ross): cost of the (ε, δ)-approximation as ε
//! shrinks — the sample count grows as 1/ε², and the 𝒜𝒜 algorithm's
//! variance adaptation keeps it competitive with the plain stopping rule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_bench::workloads::{random_dnf, DnfParams};
use maybms_conf::dklr::{approximate_seeded, stopping_rule_seeded, DklrOptions};
use maybms_conf::karp_luby::KarpLuby;

fn bench_dklr(c: &mut Criterion) {
    let (wt, dnf) = random_dnf(
        11,
        DnfParams {
            clauses: 100,
            vars: 150,
            clause_len: 3,
            domain: 2,
        },
    );
    let kl = KarpLuby::new(&dnf, &wt).unwrap();
    let mut group = c.benchmark_group("dklr_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for epsilon in [0.5, 0.2, 0.1, 0.05] {
        group.bench_with_input(
            BenchmarkId::new("aa", format!("eps{epsilon}")),
            &epsilon,
            |b, &eps| {
                let mut seed = 5;
                b.iter(|| {
                    seed += 1;
                    approximate_seeded(&kl, &DklrOptions::new(eps, 0.1), seed)
                        .unwrap()
                        .samples
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stopping_rule", format!("eps{epsilon}")),
            &epsilon,
            |b, &eps| {
                let mut seed = 5;
                b.iter(|| {
                    seed += 1;
                    stopping_rule_seeded(&kl, &DklrOptions::new(eps, 0.1), seed)
                        .unwrap()
                        .samples
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dklr);
criterion_main!(benches);
