//! `overhead_gate` — CI's instrumentation-overhead and
//! governor-neutrality gate.
//!
//! Runs a fused σ→π→σ→π [`UStream`] chain over a wide relation twice
//! per rep, interleaved in one process so machine drift cancels out —
//! stats collector detached vs attached — and fails if the attached
//! median exceeds the requested percentage overhead (the "near-zero
//! cost" claim, enforced). The query governor's checkpoints are compiled
//! into the same path (limits disarmed), so the gate bounds their cost
//! too; the run also asserts that every governor counter delta is zero,
//! i.e. nothing aborted, degraded, or retried inside the measured reps.
//!
//! Usage: `overhead_gate [--quick] [--trace] [--assert-overhead PCT]`
//!   --quick               small input / few reps (CI smoke)
//!   --trace               run with the tracing span subsystem enabled
//!                         (ring sink attached, no file export) — CI runs
//!                         the gate once plain and once with this flag,
//!                         so span emission stays inside the same envelope
//!   --assert-overhead PCT fail when the attached median exceeds the
//!                         detached one by more than PCT percent
//!
//! End-to-end numbers live in `benchmark/` (see its README); this binary
//! times nothing else.

use std::time::Instant;

use maybms_bench::workloads;
use maybms_engine::{ops, BinaryOp, Expr};
use maybms_pipe::UStream;
use maybms_urel::URelation;

/// Names and values of the query-governor and store-retry counters. With
/// no limits armed the governor must never abort, degrade, or retry
/// anything, so a nonzero delta means the measured reps were perturbed
/// (e.g. the run was launched with a statement timeout or
/// `MAYBMS_STORE_FAULT_EVERY` exported) and the timings are invalid.
const GOV_COUNTERS: [&str; 6] =
    ["cancelled", "deadline", "mem_rejected", "degraded_conf", "panics", "store_retries"];

fn gov_metric_mark() -> [u64; 6] {
    let m = maybms_obs::metrics();
    [
        m.gov_cancelled.get(),
        m.gov_deadline.get(),
        m.gov_mem_rejected.get(),
        m.gov_degraded_conf.get(),
        m.gov_panics.get(),
        m.store_retries.get(),
    ]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    maybms_obs::trace::init_from_env();
    if args.iter().any(|a| a == "--trace") {
        // Ring sink attached (spans recorded and evicted in-memory), no
        // file export — the tracing-attached leg of the gate.
        maybms_obs::trace::set_enabled(true);
    }
    let assert_overhead: Option<f64> =
        args.iter().position(|a| a == "--assert-overhead").map(|i| {
            args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: --assert-overhead needs a percentage, e.g. --assert-overhead 5");
                std::process::exit(1);
            })
        });
    let (scale, reps) = if quick { (10_000usize, 7usize) } else { (100_000, 11) };
    let gov_mark = gov_metric_mark();

    let (certain, _, _) = workloads::overhead_pair(21, scale, (scale / 10) as i64);
    let source = URelation::from_certain(&certain);
    let pred1 = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
    let proj1 = [
        ops::ProjectItem::col("k"),
        ops::ProjectItem::new(Expr::col("v").binary(BinaryOp::Add, Expr::col("k")), "t"),
    ];
    let pred2 = Expr::col("t").binary(BinaryOp::Mod, Expr::lit(2i64)).eq(Expr::lit(0i64));
    let proj2 = [
        ops::ProjectItem::new(Expr::col("t").binary(BinaryOp::Mul, Expr::lit(3i64)), "t3"),
        ops::ProjectItem::col("k"),
    ];
    let chain = |u: &URelation| {
        UStream::new(u.clone())
            .filter(&pred1)
            .and_then(|s| s.project(&proj1))
            .and_then(|s| s.filter(&pred2))
            .and_then(|s| s.project(&proj2))
            .expect("the chain binds against (k, v, prob)")
    };

    let pool = maybms_par::pool();
    let mut bare = Vec::with_capacity(reps);
    let mut inst = Vec::with_capacity(reps);
    for _ in 0..reps {
        let s = chain(&source);
        let t0 = Instant::now();
        let n_bare = std::hint::black_box(
            s.collect_with(&pool, ops::PAR_MIN_CHUNK, None).expect("chain runs").len(),
        );
        bare.push(t0.elapsed().as_secs_f64() * 1e3);

        let s = chain(&source);
        let ps = s.stats_skeleton("overhead probe");
        let t0 = Instant::now();
        let n_inst = std::hint::black_box(
            s.collect_with(&pool, ops::PAR_MIN_CHUNK, Some(&ps)).expect("chain runs").len(),
        );
        inst.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(n_bare, n_inst, "instrumentation changed the result cardinality");
    }
    let (b, i) = (median(bare), median(inst));
    println!(
        "instrumentation overhead over {scale} rows, {reps} reps: \
         detached {b:.3} ms, attached {i:.3} ms"
    );
    if let Some(pct) = assert_overhead {
        // A small absolute slack keeps sub-millisecond medians (where one
        // timer tick is several percent) from flaking.
        let allowed = b * (1.0 + pct / 100.0) + 0.05;
        assert!(
            i <= allowed,
            "instrumented chain median {i:.3} ms exceeds the {pct}% (+0.05 ms slack) \
             overhead gate over detached {b:.3} ms"
        );
    }

    for ((name, now), then) in GOV_COUNTERS.iter().zip(gov_metric_mark()).zip(gov_mark) {
        assert_eq!(
            now - then,
            0,
            "governor counter `{name}` moved by {} during the run; the measured reps \
             were perturbed (statement limits or store fault injection armed?)",
            now - then
        );
    }
    println!("governor counters: all deltas zero");
}
