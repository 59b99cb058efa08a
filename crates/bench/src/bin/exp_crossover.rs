//! E2 harness: exact vs approximate confidence across the
//! variable-to-clause ratio (§2.3 / Koch–Olteanu VLDB'08), and what the
//! `aconf()` cascade pays for trying the d-tree first.
//!
//! The claim to reproduce: the exact algorithm wins except in a narrow
//! band of ratios where the DNF is both large and densely connected. The
//! `cascade` column times `aconf(0.1, 0.1)` as SQL runs it — the d-tree
//! within its node budget, then Karp–Luby + DKLR at the same seed if the
//! budget runs out — next to pure sampling (`aconf`); `answered` names the
//! estimator that answered, and `casc/aconf` is what the attempt costs
//! where the budget ran out. `exact` (the unbounded d-tree) is timed on
//! the 48-clause sweep and wherever the cascade certified.

use std::time::Instant;

use maybms_bench::workloads::{random_dnf, DnfParams};
use maybms_conf::dklr::aconf_seeded_report;
use maybms_conf::{confidence_with_effort, exact, ConfMethod, Estimator};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall time in ms of `runs` calls of `f` (given the run index),
/// and the last call's result.
fn time<T>(runs: usize, mut f: impl FnMut(u64) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for run in 0..runs as u64 {
        let t0 = Instant::now();
        last = Some(f(run));
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (median(times), last.expect("at least one run"))
}

fn main() {
    const EPSILON: f64 = 0.1;
    const DELTA: f64 = 0.1;
    println!("E2 — exact d-tree vs aconf({EPSILON}, {DELTA}): pure sampling and the cascade; 3 literals, domain 2");
    println!(
        "{:>5} {:>7} {:>7} {:>10} {:>10} {:>11} {:>10} {:>8} {:>13} {:>8}",
        "vars",
        "clauses",
        "ratio",
        "exact ms",
        "aconf ms",
        "cascade ms",
        "casc/aconf",
        "answered",
        "nodes/budget",
        "rel.err"
    );
    let sweep = [6, 12, 24, 48, 96, 192, 384].map(|vars| (vars, 48));
    let random_3dnf = [
        (40, 120),
        (40, 400),
        (100, 400),
        (100, 1000),
        (200, 1000),
        (200, 4000),
    ];
    for (vars, clauses) in sweep.into_iter().chain(random_3dnf) {
        let (wt, dnf) = random_dnf(
            7,
            DnfParams {
                clauses,
                vars,
                clause_len: 3,
                domain: 2,
            },
        );
        // Pure sampling and the cascade alternate, run by run, at the same
        // seeds, so machine drift lands on both.
        let runs = if clauses > 1000 { 5 } else { 9 };
        let (mut aconf_ms, mut cascade_ms) = (Vec::new(), Vec::new());
        let mut answer = None;
        for run in 0..runs {
            let (ms, _) = time(1, |_| {
                aconf_seeded_report(&dnf, &wt, EPSILON, DELTA, 99 + run).unwrap()
            });
            aconf_ms.push(ms);
            let method = ConfMethod::Approx {
                epsilon: EPSILON,
                delta: DELTA,
                seed: 99 + run,
            };
            let (ms, out) = time(1, |_| confidence_with_effort(&dnf, &wt, method).unwrap());
            cascade_ms.push(ms);
            answer = Some(out);
        }
        let (p, effort) = answer.expect("at least one run");
        let (aconf_ms, cascade_ms) = (median(aconf_ms), median(cascade_ms));
        let exact = (clauses <= 48 || effort.estimator == Estimator::DTree)
            .then(|| time(runs as usize, |_| exact::probability(&dnf, &wt).unwrap()));
        let (exact_ms, rel_err) = match exact {
            Some((ms, truth)) => (
                format!("{ms:.3}"),
                format!("{:.4}", ((p - truth) / truth).abs()),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:>5} {:>7} {:>7.3} {:>10} {:>10.3} {:>11.3} {:>10.2} {:>8} {:>13} {:>8}",
            vars,
            clauses,
            vars as f64 / clauses as f64,
            exact_ms,
            aconf_ms,
            cascade_ms,
            cascade_ms / aconf_ms,
            effort.estimator.method(),
            format!("{}/{}", effort.dtree_nodes, effort.budget),
            rel_err,
        );
    }
}
