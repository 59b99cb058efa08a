//! E3 harness: DKLR sample counts and accuracy vs ε (δ = 0.05), plus the
//! empirical failure rate against the exact probability — the (ε, δ)
//! guarantee in action.

use maybms_bench::workloads::{random_dnf, DnfParams};
use maybms_conf::dklr::{approximate_seeded, stopping_rule_seeded, DklrOptions};
use maybms_conf::exact;
use maybms_conf::karp_luby::KarpLuby;

fn main() {
    let (wt, dnf) = random_dnf(
        11,
        DnfParams {
            clauses: 60,
            vars: 80,
            clause_len: 3,
            domain: 2,
        },
    );
    let truth = exact::probability(&dnf, &wt).unwrap();
    let kl = KarpLuby::new(&dnf, &wt).unwrap();
    println!("E3 — DKLR (ε, δ=0.05) over a 60-clause DNF; exact p = {truth:.6}");
    println!(
        "{:>7} {:>14} {:>14} {:>12} {:>12}",
        "eps", "AA samples", "SRA samples", "mean |rel|", "fail rate"
    );
    let runs = 20u32;
    for eps in [0.5, 0.2, 0.1, 0.05, 0.02] {
        let opts = DklrOptions::new(eps, 0.05);
        let mut aa_samples = 0u64;
        let mut sra_samples = 0u64;
        let mut rel_sum = 0.0;
        let mut failures = 0u32;
        for run in 0..runs {
            let seed = 77 + u64::from(run);
            let aa = approximate_seeded(&kl, &opts, seed).unwrap();
            let sra = stopping_rule_seeded(&kl, &opts, seed).unwrap();
            aa_samples += aa.samples;
            sra_samples += sra.samples;
            let rel = ((aa.estimate - truth) / truth).abs();
            rel_sum += rel;
            if rel > eps {
                failures += 1;
            }
        }
        println!(
            "{:>7} {:>14} {:>14} {:>12.5} {:>12.3}",
            eps,
            aa_samples / u64::from(runs),
            sra_samples / u64::from(runs),
            rel_sum / f64::from(runs),
            f64::from(failures) / f64::from(runs)
        );
    }
}
