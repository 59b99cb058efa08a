//! E7 harness: exact-algorithm ablations — independence decomposition
//! on/off over block DNFs (d-tree statistics included), the
//! variable-elimination heuristics on connected random DNFs, and the
//! independent product against the d-tree on tuple-independent groups.

use std::time::Instant;

use maybms_bench::workloads::{block_dnf, random_dnf, repair_input, DnfParams};
use maybms_conf::exact::{probability_with, ExactOptions, VarChoice};
use maybms_conf::{confidence_with_effort, lineage_confidence, ConfMethod, Dnf};
use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
use maybms_urel::{UTuple, WorldTable};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    println!("E7a — independence decomposition on block DNFs (4 clauses/block)");
    println!(
        "{:>7} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "blocks", "clauses", "with ms", "without ms", "elim(with)", "elim(w/o)"
    );
    for blocks in [4usize, 6, 8, 10, 12] {
        let (wt, dnf) = block_dnf(17, blocks, 4, 3, 2);
        let on = ExactOptions::standard();
        let off = ExactOptions {
            decompose: false,
            ..ExactOptions::standard()
        };
        let mut t_on = Vec::new();
        let mut t_off = Vec::new();
        let mut s_on = Default::default();
        let mut s_off = Default::default();
        for _ in 0..5 {
            let t0 = Instant::now();
            let (_, s) = probability_with(&dnf, &wt, &on).unwrap();
            t_on.push(t0.elapsed().as_secs_f64() * 1e3);
            s_on = s;
            let t0 = Instant::now();
            let (_, s) = probability_with(&dnf, &wt, &off).unwrap();
            t_off.push(t0.elapsed().as_secs_f64() * 1e3);
            s_off = s;
        }
        println!(
            "{:>7} {:>10} {:>14.3} {:>14.3} {:>12} {:>12}",
            blocks,
            dnf.len(),
            median(t_on),
            median(t_off),
            s_on.eliminations,
            s_off.eliminations
        );
    }

    println!("\nE7b — variable-elimination heuristics on connected random DNFs");
    println!(
        "{:>16} {:>12} {:>14}",
        "heuristic", "median ms", "eliminations"
    );
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
        let opts = ExactOptions {
            var_choice: choice,
            ..ExactOptions::standard()
        };
        let mut times = Vec::new();
        let mut stats = Default::default();
        for _ in 0..5 {
            let t0 = Instant::now();
            let (_, s) = probability_with(&dnf, &wt, &opts).unwrap();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            stats = s;
        }
        println!(
            "{:>16} {:>12.3} {:>14}",
            name,
            median(times),
            stats.eliminations
        );
    }

    // E7c — conf()'s estimator choice on tuple-independent lineage:
    // `lineage_confidence` folds 1 − Π(1 − pᵢ) per group where the d-tree
    // path builds a Dnf and expands it.
    println!("\nE7c — independent product vs d-tree on pick-tuples groups (4 members each)");
    println!(
        "{:>8} {:>18} {:>18} {:>9}",
        "rows", "product ms", "d-tree ms", "speedup"
    );
    for rows in [1_000usize, 10_000] {
        let mut wt = WorldTable::new();
        let input = repair_input(23, rows / 4, 4); // (k, alt, w), k in runs of 4
        let picked = pick_tuples(&input, &PickTuplesOptions::default(), &mut wt).unwrap();
        let groups: Vec<&[UTuple]> = picked.tuples().chunks(4).collect();
        let time = |conf: &dyn Fn(&[UTuple]) -> f64| -> f64 {
            let runs = (0..5).map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(groups.iter().map(|g| conf(g)).sum::<f64>());
                t0.elapsed().as_secs_f64() * 1e3
            });
            median(runs.collect())
        };
        let product = time(&|g| {
            let stats = maybms_obs::QueryStats::new();
            lineage_confidence(g.iter().map(|t| &t.wsd), &wt, ConfMethod::Exact, &stats)
                .unwrap()
                .0
        });
        let dtree = time(&|g| {
            let dnf = Dnf::from_wsds(g.iter().map(|t| &t.wsd));
            confidence_with_effort(&dnf, &wt, ConfMethod::Exact)
                .unwrap()
                .0
        });
        println!(
            "{:>8} {:>18.3} {:>18.3} {:>8.2}x",
            rows,
            product,
            dtree,
            dtree / product
        );
    }
}
