//! E6 harness: hypothesis-space construction cost — `repair key` across
//! group counts × alternatives, `pick tuples` across table sizes.

use std::time::Instant;

use maybms_bench::workloads::repair_input;
use maybms_engine::Expr;
use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
use maybms_urel::repair::{repair_key, RepairKeyOptions};
use maybms_urel::WorldTable;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    println!("E6 — repair-key construction");
    println!(
        "{:>8} {:>6} {:>10} {:>12} {:>10}",
        "groups", "alts", "rows", "median ms", "vars"
    );
    for groups in [1_000usize, 10_000, 100_000] {
        for alts in [2usize, 4, 16] {
            let input = repair_input(31, groups, alts);
            let mut times = Vec::new();
            let mut vars = 0usize;
            for _ in 0..5 {
                let t0 = Instant::now();
                let mut wt = WorldTable::new();
                let out = repair_key(
                    &input,
                    &[Expr::col("k")],
                    &RepairKeyOptions {
                        weight: Some(Expr::col("w")),
                    },
                    &mut wt,
                )
                .unwrap();
                std::hint::black_box(out.len());
                vars = wt.num_vars();
                times.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            println!(
                "{:>8} {:>6} {:>10} {:>12.3} {:>10}",
                groups,
                alts,
                groups * alts,
                median(times),
                vars
            );
        }
    }
    println!("\npick-tuples construction");
    println!("{:>10} {:>12}", "rows", "median ms");
    for rows in [1_000usize, 10_000, 100_000, 1_000_000] {
        let input = repair_input(33, rows, 1);
        let mut times = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut wt = WorldTable::new();
            let out = pick_tuples(&input, &PickTuplesOptions::default(), &mut wt).unwrap();
            std::hint::black_box(out.len());
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        println!("{:>10} {:>12.3}", rows, median(times));
    }
}
