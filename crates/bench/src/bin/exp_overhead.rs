//! E5 harness: relational processing on U-relations vs certain twins
//! (ICDE'08 "Fast and Simple Relational Processing of Uncertain Data") —
//! the same engine running the same σ → ⋈ chain over empty and non-empty
//! condition columns, with the represented world count shown to emphasise
//! that time tracks representation size, not worlds.

use std::time::Instant;

use maybms_bench::workloads::overhead_pair;
use maybms_engine::{BinaryOp, Expr};
use maybms_pipe::UStream;
use maybms_urel::URelation;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    println!("E5 — σ + self-⋈ on certain vs U-relational twins");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>14}",
        "rows", "certain ms", "urel ms", "overhead", "worlds"
    );
    for rows in [1_000usize, 5_000, 10_000, 50_000] {
        let (certain, _wt, uncertain) = overhead_pair(21, rows, (rows / 10) as i64);
        let pred = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
        // σ then self-⋈ on k: one fused chain, timed end to end.
        let run = |u: &URelation| {
            let t0 = Instant::now();
            let j = UStream::new(u.clone())
                .filter(&pred)
                .unwrap()
                .hash_join(u.clone(), &[0], &[0])
                .unwrap()
                .collect()
                .unwrap();
            std::hint::black_box(j.len());
            t0.elapsed().as_secs_f64() * 1e3
        };
        let mut ct = Vec::new();
        let mut ut = Vec::new();
        for _ in 0..5 {
            ct.push(run(&certain));
            ut.push(run(&uncertain));
        }
        let (c, u) = (median(ct), median(ut));
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>9.2}x {:>13}",
            rows,
            c,
            u,
            u / c,
            format!("2^{rows}")
        );
    }
}
