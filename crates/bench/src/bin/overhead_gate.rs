//! `overhead_gate` — CI's tracing-overhead and governor-neutrality gate.
//!
//! Runs a small SQL mix through `MayBms::run` — a σ→π→σ→π scan, and a
//! `conf()` statement shaped like the benchmark's `conf_exact` traffic
//! ([`CONF_CALLS`] calls over [`CLAUSES_PER_CALL`]-clause lineages, on the
//! exact estimator) — once with tracing off and once with tracing on
//! (ring sink attached, no file export) per rep, interleaved in one
//! process (alternating which arm goes first) so machine drift cancels
//! out, and fails if the traced median exceeds the requested percentage
//! overhead. Every statement always keeps its pipeline records
//! (`QueryStats`, the registry), so tracing is the one thing there is to
//! switch off. The query governor's checkpoints are compiled into the
//! same path (limits disarmed), so the gate bounds their cost too; the
//! run also asserts that every governor counter delta is zero, i.e.
//! nothing aborted, degraded, or retried inside the measured reps.
//!
//! Usage: `overhead_gate [--quick] [--assert-overhead PCT]`
//!   --quick               small input / few reps (CI smoke)
//!   --assert-overhead PCT fail when the traced median exceeds the
//!                         untraced one by more than PCT percent
//!
//! End-to-end numbers live in `benchmark/` (see its README); this binary
//! times nothing else.

use std::time::Instant;

use maybms_bench::workloads;
use maybms_core::MayBms;
use maybms_obs::trace;

/// Names and values of the query-governor counters. With no limits
/// armed the governor must never abort or degrade anything, so a nonzero
/// delta means the measured reps were perturbed (e.g. the run was
/// launched with a statement timeout exported) and the timings are
/// invalid.
const GOV_COUNTERS: [&str; 5] = [
    "cancelled",
    "deadline",
    "mem_rejected",
    "degraded_conf",
    "panics",
];

fn gov_metric_mark() -> [u64; 5] {
    let m = maybms_obs::metrics();
    [
        m.gov_cancelled.get(),
        m.gov_deadline.get(),
        m.gov_mem_rejected.get(),
        m.gov_degraded_conf.get(),
        m.gov_panics.get(),
    ]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `conf()` calls of the mix's conf statement, and DNF clauses per call:
/// the shape of a `conf_exact` conf statement in `benchmark --trace 1`
/// (seed 1, full size), which averages 199 `conf` spans over lineages of
/// 16.5 clauses, 87 % of them on the exact estimator. That workload
/// carries one span per 19–25 µs of statement time; the `--quick` mix,
/// one per 8–11 µs. Denser statements exceed the 5 % budget: a `conf()`
/// over groups of 10–15 independent tuples, one span per 3–6 µs,
/// measured 4–12 % traced on two vCPUs.
const CONF_CALLS: i64 = 200;
/// See [`CONF_CALLS`].
const CLAUSES_PER_CALL: usize = 16;

/// The measured mix: a σ→π→σ→π scan of `t`, and `conf()` per key over
/// `u`, where each key's tuples are the alternatives of one repair-key
/// variable (one exact `conf` span per group).
const MIX: [&str; 2] = [
    "select t * 3 as t3, k from (select k, v + k as t from t where v < 500) s where t % 2 = 0",
    "select k, conf() as p from u group by k",
];

/// Milliseconds one pass of the mix takes; returns the rows it produced
/// alongside, so the two arms can be checked for the same answers.
fn run_mix(db: &mut MayBms) -> (f64, usize) {
    let t0 = Instant::now();
    let mut rows = 0;
    for sql in MIX {
        rows += db.query(sql).expect("the mix runs").len();
    }
    (t0.elapsed().as_secs_f64() * 1e3, std::hint::black_box(rows))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let assert_overhead: Option<f64> =
        args.iter().position(|a| a == "--assert-overhead").map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!(
                        "error: --assert-overhead needs a percentage, e.g. --assert-overhead 5"
                    );
                    std::process::exit(1);
                })
        });
    let (scale, reps) = if quick {
        (10_000usize, 31usize)
    } else {
        (100_000, 21)
    };
    let keys = (scale / CLAUSES_PER_CALL) as i64;

    let (certain, _, _) = workloads::overhead_pair(21, scale, keys);
    let mut db = MayBms::new();
    db.register("t", certain).expect("fresh database");
    db.run(&format!(
        "create table u as select k from (repair key k in t weight by prob) x where k < {CONF_CALLS}"
    ))
    .expect("repair key over (k, v, prob)");
    run_mix(&mut db); // warm-up: zone maps, dictionaries, the pool
    let gov_mark = gov_metric_mark();

    let (mut plain, mut traced) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..reps {
        let mut rows = [0; 2];
        for on in if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        } {
            trace::set_enabled(on);
            let (ms, n) = run_mix(&mut db);
            trace::set_enabled(false);
            trace::clear();
            rows[on as usize] = n;
            if on {
                traced.push(ms)
            } else {
                plain.push(ms)
            }
        }
        assert_eq!(rows[0], rows[1], "tracing changed the result cardinality");
    }
    let (p, t) = (median(plain), median(traced));
    println!(
        "tracing overhead, {scale}-row scan + conf() over {CONF_CALLS} groups of ~{CLAUSES_PER_CALL}, \
         {reps} reps: off {p:.3} ms, on {t:.3} ms ({:+.1} %)",
        (t / p - 1.0) * 100.0
    );
    if let Some(pct) = assert_overhead {
        // A small absolute slack keeps sub-millisecond medians (where one
        // timer tick is several percent) from flaking.
        let allowed = p * (1.0 + pct / 100.0) + 0.05;
        assert!(
            t <= allowed,
            "traced mix median {t:.3} ms exceeds the {pct}% (+0.05 ms slack) \
             overhead gate over untraced {p:.3} ms"
        );
    }

    for ((name, now), then) in GOV_COUNTERS.iter().zip(gov_metric_mark()).zip(gov_mark) {
        assert_eq!(
            now - then,
            0,
            "governor counter `{name}` moved by {} during the run; the measured reps \
             were perturbed (statement limits armed?)",
            now - then
        );
    }
    println!("governor counters: all deltas zero");
}
