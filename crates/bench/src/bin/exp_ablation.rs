//! E7 harness: exact-algorithm ablations — independence decomposition
//! on/off over block DNFs (d-tree statistics included), and the
//! variable-elimination heuristics on connected random DNFs.

use std::time::Instant;

use maybms_bench::workloads::{block_dnf, random_dnf, DnfParams};
use maybms_conf::exact::{probability_with, ExactOptions, VarChoice};

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
        let off = ExactOptions { decompose: false, ..ExactOptions::standard() };
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
    println!("{:>16} {:>12} {:>14}", "heuristic", "median ms", "eliminations");
    let (wt, dnf) = random_dnf(
        19,
        DnfParams { clauses: 18, vars: 12, clause_len: 3, domain: 3 },
    );
    for (name, choice) in [
        ("max_occurrence", VarChoice::MaxOccurrence),
        ("min_domain", VarChoice::MinDomain),
        ("first", VarChoice::First),
    ] {
        let opts = ExactOptions { var_choice: choice, ..ExactOptions::standard() };
        let mut times = Vec::new();
        let mut stats = Default::default();
        for _ in 0..5 {
            let t0 = Instant::now();
            let (_, s) = probability_with(&dnf, &wt, &opts).unwrap();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            stats = s;
        }
        println!("{:>16} {:>12.3} {:>14}", name, median(times), stats.eliminations);
    }

    // E7c — the executor's tuple-independent fast path for conf():
    // 1 − Π(1 − pᵢ) per group instead of building a d-tree.
    println!("\nE7c — conf() tuple-independence fast path (SQL, grouped pick-tuples)");
    println!("{:>8} {:>18} {:>18} {:>9}", "rows", "fast path ms", "d-tree ms", "speedup");
    use maybms_bench::workloads::repair_input;
    use maybms_core::MayBms;
    for rows in [1_000usize, 10_000] {
        let input = repair_input(23, rows / 4, 4); // (k, alt, w) rows
        let run_once = |fast: bool| -> f64 {
            let mut db = MayBms::new();
            db.conf_context_mut().sprout_fast_path = fast;
            db.register("t", input.clone()).unwrap();
            db.run(
                "create table picked as
                 select * from (pick tuples from t with probability 0.5) x",
            )
            .unwrap();
            let t0 = Instant::now();
            let out = db
                .query("select k, conf() as p from picked group by k")
                .unwrap();
            std::hint::black_box(out.len());
            t0.elapsed().as_secs_f64() * 1e3
        };
        let fast = median((0..5).map(|_| run_once(true)).collect());
        let slow = median((0..5).map(|_| run_once(false)).collect());
        println!("{:>8} {:>18.3} {:>18.3} {:>8.2}x", rows, fast, slow, slow / fast);
    }
}
