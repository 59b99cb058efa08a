//! E2 (§2.3 claim, from Koch–Olteanu VLDB'08): "Outside a narrow range of
//! variable-to-clause count ratios, it [the exact algorithm] outperforms
//! the approximation techniques." Sweep the variable/clause ratio and time
//! the exact d-tree against `aconf(0.1, 0.1)` (Karp–Luby + DKLR 𝒜𝒜).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_bench::workloads::{random_dnf, DnfParams};
use maybms_conf::dklr::{approximate_seeded, DklrOptions};
use maybms_conf::exact;
use maybms_conf::karp_luby::KarpLuby;

const CLAUSES: usize = 40;
const RATIOS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

fn bench_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vs_approx");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for ratio in RATIOS {
        let vars = ((CLAUSES as f64 * ratio).round() as usize).max(3);
        let (wt, dnf) = random_dnf(
            7,
            DnfParams {
                clauses: CLAUSES,
                vars,
                clause_len: 3,
                domain: 2,
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact", format!("ratio{ratio}")),
            &ratio,
            |b, _| b.iter(|| exact::probability(&dnf, &wt).unwrap()),
        );
        let kl = KarpLuby::new(&dnf, &wt).unwrap();
        group.bench_with_input(
            BenchmarkId::new("aconf_0.1_0.1", format!("ratio{ratio}")),
            &ratio,
            |b, _| {
                let mut seed = 99;
                b.iter(|| {
                    seed += 1;
                    approximate_seeded(&kl, &DklrOptions::new(0.1, 0.1), seed)
                        .unwrap()
                        .estimate
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_crossover);
criterion_main!(benches);
