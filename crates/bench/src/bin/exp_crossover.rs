//! E2 harness: exact vs approximate confidence across the
//! variable-to-clause ratio (§2.3 / Koch–Olteanu VLDB'08).
//!
//! The claim to reproduce: the exact algorithm wins except in a narrow
//! band of ratios where the DNF is both large and densely connected.

use std::time::Instant;

use maybms_bench::workloads::{random_dnf, DnfParams};
use maybms_conf::dklr::{approximate_seeded, DklrOptions};
use maybms_conf::exact;
use maybms_conf::karp_luby::KarpLuby;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    const CLAUSES: usize = 48;
    println!("E2 — exact d-tree vs aconf(0.1, 0.1), {CLAUSES} clauses, 3 literals, domain 2");
    println!(
        "{:>7} {:>6} {:>14} {:>14} {:>10} {:>10}",
        "ratio", "vars", "exact ms", "aconf ms", "p_exact", "rel.err"
    );
    for ratio in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let vars = ((CLAUSES as f64 * ratio).round() as usize).max(3);
        let (wt, dnf) =
            random_dnf(7, DnfParams { clauses: CLAUSES, vars, clause_len: 3, domain: 2 });

        let mut exact_times = Vec::new();
        let mut p_exact = 0.0;
        for _ in 0..5 {
            let t0 = Instant::now();
            p_exact = exact::probability(&dnf, &wt).unwrap();
            exact_times.push(t0.elapsed().as_secs_f64() * 1e3);
        }

        let kl = KarpLuby::new(&dnf, &wt).unwrap();
        let mut approx_times = Vec::new();
        let mut p_approx = 0.0;
        for seed in 99..104 {
            let t0 = Instant::now();
            p_approx = approximate_seeded(&kl, &DklrOptions::new(0.1, 0.1), seed)
                .unwrap()
                .estimate;
            approx_times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        println!(
            "{:>7} {:>6} {:>14.3} {:>14.3} {:>10.5} {:>10.4}",
            ratio,
            vars,
            median(exact_times),
            median(approx_times),
            p_exact,
            ((p_approx - p_exact) / p_exact).abs()
        );
    }
}
