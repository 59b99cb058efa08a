//! `exp_baseline` — the zero-clone execution-core scorecard.
//!
//! Runs the join / filter / distinct / sort / repair-key workloads twice —
//! once through the seed-faithful naive operators
//! ([`maybms_bench::naive`]: deep clones, `Vec<Value>` join keys, per-row
//! WSD heap allocation) and once through the optimized operators
//! (selection vectors, hashed join keys, batched row buffers, inline
//! WSDs) — interleaved in one process so machine drift cancels out, and
//! writes `BENCH_baseline.json` with both numbers per workload. Later PRs
//! re-run this to extend the measured trajectory.
//!
//! Usage: `exp_baseline [--quick] [--trace] [--assert-overhead PCT] [output.json]`
//!   --quick               small sizes / few reps (CI smoke; result file
//!                         still valid)
//!   --trace               run with the tracing span subsystem enabled
//!                         (ring sink attached, no file export) — CI runs
//!                         the overhead gate once plain and once with
//!                         this flag, so span emission stays inside the
//!                         same near-zero-cost envelope
//!   --assert-overhead PCT re-run the filter_project_chain pipeline with
//!                         the stats collector detached vs attached and
//!                         fail if the attached median exceeds PCT
//!                         percent overhead (the near-zero-cost gate)
//!
//! Every per-variant latency is reported as `*_ms` (the p50 of the
//! interleaved samples — same statistic the file has always recorded)
//! plus `*_p99_ms` (nearest-rank p99; with default reps this is the
//! worst observed sample, bounding tail noise rather than estimating a
//! population quantile). The run object also records the process's
//! sliding statement-latency windows (`statement_windows`) for every
//! statement kind the run exercised.
//!
//! Each workload row also carries a `stats` object — process-wide
//! `maybms-obs` metric deltas (morsels driven, scalar kernel fallbacks,
//! Monte Carlo samples drawn) accumulated across every rep of every
//! variant in that workload section — so the baseline trajectory records
//! *how* the engine ran, not just how fast.
//!
//! The `*_par4` workloads measure the `maybms-par` parallel operator and
//! confidence paths on an explicit 4-thread pool against the same naive
//! (or sequential, for conf) baseline. The JSON meta records how many
//! cores the machine actually has: on a single-core container the par
//! numbers bound scheduling overhead rather than demonstrating multicore
//! scaling, while the columnar-key and zero-clone gains still apply.
//!
//! The `filter_project_chain` and `join_pipelined` workloads are
//! **three-way**: seed-naive vs materialising optimized operators vs the
//! `maybms-pipe` morsel-driven streaming executor; their JSON rows carry
//! an extra `pipelined_ms` plus `pipelined_speedup` (materialized ÷
//! pipelined — the fusion win, net of everything else).

use std::fmt::Write as _;
use std::time::Instant;

use maybms_bench::{naive, workloads};
use maybms_conf::exact::{self, ExactOptions};
use maybms_core::agg as coreagg;
use maybms_core::translate::AggSpec;
use maybms_engine::{ops, BinaryOp, Catalog, DataType, Expr, Field, PhysicalPlan};
use maybms_pipe::UStream;
use maybms_urel::pick::PickTuplesOptions;
use maybms_urel::repair::RepairKeyOptions;
use maybms_urel::{algebra, URelation, WorldTable};

struct Outcome {
    name: &'static str,
    rows_in: usize,
    rows_out: usize,
    naive: Lat,
    optimized: Lat,
    /// Set only for the three-way streaming workloads.
    pipelined: Option<Lat>,
    /// Metric deltas accumulated over this workload's section.
    stats: StatDelta,
}

/// p50/p99 of one variant's interleaved samples (milliseconds).
#[derive(Clone, Copy)]
struct Lat {
    p50: f64,
    p99: f64,
}

/// Nearest-rank quantile over sorted samples.
fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn lat(mut xs: Vec<f64>) -> Lat {
    xs.sort_by(f64::total_cmp);
    Lat { p50: xs[xs.len() / 2], p99: quantile_sorted(&xs, 0.99) }
}

/// Process-wide `maybms-obs` metric deltas attributed to one workload
/// section: everything counted between two consecutive [`take_delta`]
/// calls (all reps, all variants — naive included, though only the
/// instrumented engine paths actually bump these counters).
struct StatDelta {
    morsels: u64,
    scalar_fallbacks: u64,
    samples_drawn: u64,
    /// Row-major→column-major pivots (`ColumnBatch::pivot` calls). A
    /// workload reading columnar-at-rest tables should keep this at 0.
    pivots: u64,
}

fn metric_mark() -> [u64; 4] {
    let m = maybms_obs::metrics();
    [m.morsels.get(), m.scalar_fallbacks.get(), m.mc_samples.get(), m.pivots.get()]
}

/// Names and values of the query-governor and store-retry counters. The
/// baseline asserts their whole-run deltas are zero: with no limits
/// armed the governor must never abort, degrade, or retry anything, so
/// a nonzero delta means the measured reps were perturbed and the
/// numbers are invalid (e.g. the run was launched with a statement
/// timeout or `MAYBMS_STORE_FAULT_EVERY` exported).
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

fn take_delta(mark: &mut [u64; 4]) -> StatDelta {
    let now = metric_mark();
    let d = StatDelta {
        morsels: now[0] - mark[0],
        scalar_fallbacks: now[1] - mark[1],
        samples_drawn: now[2] - mark[2],
        pivots: now[3] - mark[3],
    };
    *mark = now;
    d
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Interleave naive/optimized samples so slow drift hits both equally.
fn compare<N, O>(reps: usize, mut naive_run: N, mut opt_run: O) -> (Lat, Lat, usize)
where
    N: FnMut() -> usize,
    O: FnMut() -> usize,
{
    let mut n_samples = Vec::with_capacity(reps);
    let mut o_samples = Vec::with_capacity(reps);
    let mut rows_out = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        rows_out = std::hint::black_box(naive_run());
        n_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let o_rows = std::hint::black_box(opt_run());
        o_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(rows_out, o_rows, "naive and optimized disagree on cardinality");
    }
    (lat(n_samples), lat(o_samples), rows_out)
}

/// Three-way interleaved comparison: naive, materialized, pipelined.
fn compare3<N, O, P>(
    reps: usize,
    mut naive_run: N,
    mut opt_run: O,
    mut pipe_run: P,
) -> (Lat, Lat, Lat, usize)
where
    N: FnMut() -> usize,
    O: FnMut() -> usize,
    P: FnMut() -> usize,
{
    let mut n_samples = Vec::with_capacity(reps);
    let mut o_samples = Vec::with_capacity(reps);
    let mut p_samples = Vec::with_capacity(reps);
    let mut rows_out = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        rows_out = std::hint::black_box(naive_run());
        n_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let o_rows = std::hint::black_box(opt_run());
        o_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let p_rows = std::hint::black_box(pipe_run());
        p_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(rows_out, o_rows, "naive and materialized disagree on cardinality");
        assert_eq!(rows_out, p_rows, "materialized and pipelined disagree on cardinality");
    }
    (lat(n_samples), lat(o_samples), lat(p_samples), rows_out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    maybms_obs::trace::init_from_env();
    let trace_on = args.iter().any(|a| a == "--trace");
    if trace_on {
        // Ring sink attached (spans recorded and evicted in-memory), no
        // file export — the tracing-attached leg of the overhead gate.
        maybms_obs::trace::set_enabled(true);
    }
    let overhead_flag = args.iter().position(|a| a == "--assert-overhead");
    let assert_overhead: Option<f64> = overhead_flag.map(|i| {
        args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("error: --assert-overhead needs a percentage, e.g. --assert-overhead 5");
            std::process::exit(1);
        })
    });
    let overhead_val = overhead_flag.map(|i| i + 1);
    let out_path = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && Some(*i) != overhead_val)
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());

    let (scale, reps) = if quick { (10_000usize, 3usize) } else { (100_000, 11) };
    let mut outcomes: Vec<Outcome> = Vec::new();
    let gov_mark = gov_metric_mark();
    let mut mark = metric_mark();

    // -- σ over a wide certain relation --------------------------------
    let (certain, _wt, uncertain) =
        workloads::overhead_pair(21, scale, (scale / 10) as i64);
    let pred = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
    let (n, o, out) = compare(
        reps,
        || naive::filter(&certain, &pred).unwrap().len(),
        || ops::filter(&certain, &pred).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "filter_certain",
        rows_in: certain.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- σ over the U-relational twin (WSDs ride along) ----------------
    let (n, o, out) = compare(
        reps,
        || naive::select_u(&uncertain, &pred).unwrap().len(),
        || algebra::select(&uncertain, &pred).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "select_urel",
        rows_in: uncertain.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- E5 wide self-join: output ≈ 5× input, copy-bound --------------
    let wide_rows = scale / 5;
    let (cw, _wtw, uw) = workloads::overhead_pair(22, wide_rows, (wide_rows / 10) as i64);
    let cwf = ops::filter(&cw, &pred).unwrap();
    let uwf = algebra::select(&uw, &pred).unwrap();
    // (Joins put the smaller input on the right: the stack's hash joins
    // build the right side by convention.)
    let (n, o, out) = compare(
        reps,
        || naive::hash_join(&cw, &cwf, &[0], &[0]).unwrap().len(),
        || ops::hash_join(&cw, &cwf, &[0], &[0]).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_wide_certain",
        rows_in: cw.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });
    // naive::hash_join_u always builds its LEFT argument, the optimized
    // join its RIGHT; each gets the small (filtered) side as its build
    // side so the baseline stays the seed algorithm at its best.
    let (n, o, out) = compare(
        reps,
        || naive::hash_join_u(&uwf, &uw, &[0], &[0]).unwrap().len(),
        || algebra::hash_join(&uw, &uwf, &[0], &[0]).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_wide_urel",
        rows_in: uw.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- Selective FK join: huge probe side, small output — the
    //    join-heavy case where per-row key/WSD allocations dominated ----
    let (big, _w2, ubig) = workloads::overhead_pair(33, scale * 2, 1_000_000);
    let (small, _w3, usmall) = workloads::overhead_pair(34, scale / 50, 1_000_000);
    let (n, o, out) = compare(
        reps,
        || naive::hash_join(&big, &small, &[0], &[0]).unwrap().len(),
        || ops::hash_join(&big, &small, &[0], &[0]).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_selective_certain",
        rows_in: big.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });
    // As above: small build side for both (naive builds left, optimized
    // builds right).
    let (n, o, out) = compare(
        reps,
        || naive::hash_join_u(&usmall, &ubig, &[0], &[0]).unwrap().len(),
        || algebra::hash_join(&ubig, &usmall, &[0], &[0]).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_selective_urel",
        rows_in: ubig.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- Duplicate elimination under heavy duplication -----------------
    let dup = {
        let base = workloads::repair_input(55, scale / 100, 4);
        let mut all = base.clone();
        for _ in 0..24 {
            all = ops::union_all(&[&all, &base]).unwrap();
        }
        all
    };
    let (n, o, out) = compare(
        reps,
        || naive::distinct(&dup).len(),
        || ops::distinct(&dup).len(),
    );
    outcomes.push(Outcome {
        name: "distinct_certain",
        rows_in: dup.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- DISTINCT over dictionary-encoded strings ----------------------
    // Three-way: seed dedup / zero-clone dedup (both hash every string,
    // row image) vs the same operator over the columnar-at-rest relation,
    // where the single text column is dictionary-encoded and dedup runs
    // over u32 codes with a dense seen-bitmap — no per-row string hash,
    // and (stats.pivots) no pivot: the dictionary is read at rest.
    let strings = workloads::string_keyed(77, scale, (scale / 50).max(4));
    let s_only = ops::project(&strings, &[ops::ProjectItem::col("s")]).unwrap();
    let s_dict = s_only.compact();
    assert!(s_dict.is_columnar());
    // Setup pivoted once (the compact); re-mark so the recorded delta
    // covers only the measured reps — which must stay pivot-free.
    mark = metric_mark();
    let (n, o, p, out) = compare3(
        reps,
        || naive::distinct(&s_only).len(),
        || ops::distinct(&s_only).len(),
        || ops::distinct(&s_dict).len(),
    );
    outcomes.push(Outcome {
        name: "distinct_dict",
        rows_in: s_only.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // -- GROUP BY a dictionary-encoded string key ----------------------
    // Three-way: seed two-pass grouping (owned Vec<Value> keys) vs the
    // materialising single-pass AggState fold (hashes the string key per
    // row) vs the streaming grouped breaker over the columnar-at-rest
    // table, which maps dictionary codes to groups through a dense
    // per-morsel table — one string materialisation per *group*, not
    // per row, and zero pivots end-to-end.
    let dict_keys = [Expr::col("s")];
    let dict_names = ["s".to_string()];
    let dict_aggs = [
        ops::AggCall::new(ops::AggFunc::Count, None, "n"),
        ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("v")), "sv"),
        ops::AggCall::new(ops::AggFunc::Max, Some(Expr::col("v")), "hi"),
    ];
    let mut dict_catalog = Catalog::new();
    dict_catalog.create("strs", strings.clone()).expect("fresh catalog");
    // Force the at-rest representation regardless of the env gate, so
    // the measured leg is always the dictionary-code path.
    *dict_catalog.get_mut("strs").expect("just created") = strings.compact();
    let dict_plan = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Scan { table: "strs".into(), alias: None }),
        group_exprs: dict_keys.to_vec(),
        group_names: dict_names.to_vec(),
        aggs: dict_aggs.to_vec(),
    };
    mark = metric_mark();
    let (n, o, p, out) = compare3(
        reps,
        || naive::aggregate(&strings, &dict_keys, &dict_names, &dict_aggs).unwrap().len(),
        || ops::aggregate(&strings, &dict_keys, &dict_names, &dict_aggs).unwrap().len(),
        || maybms_pipe::execute(&dict_plan, &dict_catalog).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "group_by_string_dict",
        rows_in: strings.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // -- ORDER BY (selection-vector sort vs clone-per-row) -------------
    let keys = [ops::SortKey::desc(Expr::col("v")), ops::SortKey::asc(Expr::col("k"))];
    let (n, o, out) = compare(
        reps,
        || naive::sort(&certain, &keys).unwrap().len(),
        || ops::sort(&certain, &keys).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "sort_certain",
        rows_in: certain.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- repair key: hypothesis-space construction ---------------------
    let repair_in = workloads::repair_input(31, scale / 10, 8);
    let repair_opts = RepairKeyOptions { weight: Some(Expr::col("w")) };
    let (n, o, out) = compare(
        reps,
        || {
            let mut wt = WorldTable::new();
            naive::repair_key(&repair_in, &[Expr::col("k")], &repair_opts, &mut wt)
                .unwrap()
                .len()
        },
        || {
            let mut wt = WorldTable::new();
            maybms_urel::repair::repair_key(
                &repair_in,
                &[Expr::col("k")],
                &repair_opts,
                &mut wt,
            )
            .unwrap()
            .len()
        },
    );
    outcomes.push(Outcome {
        name: "repair_key",
        rows_in: repair_in.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- pick tuples ---------------------------------------------------
    let pick_in = workloads::repair_input(35, scale, 1);
    let pick_opts = PickTuplesOptions { probability: Some(Expr::col("w").binary(
        BinaryOp::Div,
        Expr::lit(maybms_engine::Value::Float(10.0)),
    )) };
    let (n, o, out) = compare(
        reps,
        || {
            let mut wt = WorldTable::new();
            naive::pick_tuples(&pick_in, &pick_opts, &mut wt).unwrap().len()
        },
        || {
            let mut wt = WorldTable::new();
            maybms_urel::pick::pick_tuples(&pick_in, &pick_opts, &mut wt).unwrap().len()
        },
    );
    outcomes.push(Outcome {
        name: "pick_tuples",
        rows_in: pick_in.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- Parallel variants on an explicit 4-thread pool ----------------
    let pool4 = maybms_par::ThreadPool::new(4);

    // Selective FK join again, parallel: partitioned build + chunked
    // probe + columnar single-column keys vs the naive join.
    let (n, o, out) = compare(
        reps,
        || naive::hash_join(&big, &small, &[0], &[0]).unwrap().len(),
        || ops::hash_join_with(&big, &small, &[0], &[0], &pool4, 4096).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_selective_par4",
        rows_in: big.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // Wide (output-copy-bound) join, parallel vs naive.
    let (n, o, out) = compare(
        reps,
        || naive::hash_join(&cw, &cwf, &[0], &[0]).unwrap().len(),
        || ops::hash_join_with(&cw, &cwf, &[0], &[0], &pool4, 4096).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_wide_par4",
        rows_in: cw.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // Exact confidence over a block DNF (many independent components):
    // sequential d-tree vs parallel independent-partition fan-out. Both
    // are the optimized algorithm; the delta isolates the scheduler.
    let blocks = if quick { 60 } else { 300 };
    let (cwt, cdnf) = workloads::block_dnf(77, blocks, 4, 3, 2);
    let (n, o, out) = compare(
        reps,
        || {
            exact::probability_with(&cdnf, &cwt, &ExactOptions::standard()).unwrap();
            blocks
        },
        || {
            exact::probability_par(&cdnf, &cwt, &ExactOptions::standard(), &pool4, 1)
                .unwrap();
            blocks
        },
    );
    outcomes.push(Outcome {
        name: "conf_dtree_par4",
        rows_in: cdnf.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: None,
        stats: take_delta(&mut mark),
    });

    // -- Streaming (maybms-pipe) three-way workloads -------------------
    // A σ→π→σ→π chain: the materialising path builds three intermediate
    // relations; the pipelined path fuses all four stages into one
    // morsel-driven pass.
    let mut chain_catalog = Catalog::new();
    chain_catalog.create("wide", certain.clone()).expect("fresh catalog");
    let pred1 = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
    let proj1 = [
        ops::ProjectItem::col("k"),
        ops::ProjectItem::new(
            Expr::col("v").binary(BinaryOp::Add, Expr::col("k")),
            "t",
        ),
    ];
    let pred2 = Expr::col("t").binary(BinaryOp::Mod, Expr::lit(2i64)).eq(Expr::lit(0i64));
    let proj2 = [
        ops::ProjectItem::new(
            Expr::col("t").binary(BinaryOp::Mul, Expr::lit(3i64)),
            "t3",
        ),
        ops::ProjectItem::col("k"),
    ];
    let chain_plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan { table: "wide".into(), alias: None }),
                    predicate: pred1.clone(),
                }),
                items: proj1.to_vec(),
            }),
            predicate: pred2.clone(),
        }),
        items: proj2.to_vec(),
    };
    let (n, o, p, out) = compare3(
        reps,
        || {
            let a = naive::filter(&certain, &pred1).unwrap();
            let b = naive::project(&a, &proj1).unwrap();
            let c = naive::filter(&b, &pred2).unwrap();
            naive::project(&c, &proj2).unwrap().len()
        },
        || chain_plan.execute(&chain_catalog).unwrap().len(),
        || maybms_pipe::execute(&chain_plan, &chain_catalog).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "filter_project_chain",
        rows_in: certain.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // A selective σ → hash-probe → π pipeline: the filtered probe stream
    // flows straight into the join probe and output projection without
    // materialising the filtered input or the raw join output.
    let mut join_catalog = Catalog::new();
    join_catalog.create("big", big.clone()).expect("fresh catalog");
    join_catalog.create("small", small.clone()).expect("fresh catalog");
    let join_pred = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
    let join_proj = [
        ops::ProjectItem::new(Expr::ColumnIdx(0), "k"),
        ops::ProjectItem::new(Expr::ColumnIdx(4), "v2"),
    ];
    let join_plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan { table: "big".into(), alias: None }),
                predicate: join_pred.clone(),
            }),
            right: Box::new(PhysicalPlan::Scan { table: "small".into(), alias: None }),
            left_keys: vec![0],
            right_keys: vec![0],
        }),
        items: join_proj.to_vec(),
    };
    let (n, o, p, out) = compare3(
        reps,
        || {
            let f = naive::filter(&big, &join_pred).unwrap();
            let j = naive::hash_join(&f, &small, &[0], &[0]).unwrap();
            naive::project(&j, &join_proj).unwrap().len()
        },
        || join_plan.execute(&join_catalog).unwrap().len(),
        || maybms_pipe::execute(&join_plan, &join_catalog).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "join_pipelined",
        rows_in: big.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // -- Grouped aggregation, certain: σ → π → GROUP BY k three-way ----
    // The projection makes the breaker's input a *constructed* relation:
    // naive = seed operators + two-pass grouping (owned Vec<Value> keys,
    // per-group index-list rescans); materialized = selection-vector σ,
    // batched π, then a single-pass AggState fold over the materialised
    // intermediate; streaming = the grouped-aggregation breaker (σ and π
    // fused into the morsel-local group fold — no intermediate relation
    // exists at all).
    let group_pred = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(500i64));
    let group_proj = [
        ops::ProjectItem::col("k"),
        ops::ProjectItem::new(
            Expr::col("v").binary(BinaryOp::Add, Expr::col("k")),
            "t",
        ),
    ];
    let group_keys = [Expr::col("k")];
    let group_names = ["k".to_string()];
    let group_aggs = [
        ops::AggCall::new(ops::AggFunc::Count, None, "n"),
        ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("t")), "s"),
        ops::AggCall::new(ops::AggFunc::Avg, Some(Expr::col("t")), "m"),
    ];
    let mut group_catalog = Catalog::new();
    group_catalog.create("wide", certain.clone()).expect("fresh catalog");
    let group_plan = PhysicalPlan::Aggregate {
        input: Box::new(PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan { table: "wide".into(), alias: None }),
                predicate: group_pred.clone(),
            }),
            items: group_proj.to_vec(),
        }),
        group_exprs: group_keys.to_vec(),
        group_names: group_names.to_vec(),
        aggs: group_aggs.to_vec(),
    };
    let (n, o, p, out) = compare3(
        reps,
        || {
            let f = naive::filter(&certain, &group_pred).unwrap();
            let pr = naive::project(&f, &group_proj).unwrap();
            naive::aggregate(&pr, &group_keys, &group_names, &group_aggs).unwrap().len()
        },
        || group_plan.execute(&group_catalog).unwrap().len(),
        || maybms_pipe::execute(&group_plan, &group_catalog).unwrap().len(),
    );
    outcomes.push(Outcome {
        name: "group_by_certain",
        rows_in: certain.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // -- Grouped aggregation, uncertain: σ → π → GROUP BY k + conf() ---
    // The MayBMS workhorse (§2.2: uncertain → t-certain). All three run
    // the same per-group confidence evaluation (SPROUT fast path over
    // tuple-independent lineage), so the delta isolates grouping and
    // materialisation: naive = deep-clone σ/π + owned-key grouping over
    // the materialised chain; materialized = the PR 3 path (fused σ→π,
    // collect, two-pass group + aggregate); streaming = the grouped
    // breaker folding member WSDs and running esum/ecount partial sums
    // morsel-locally — the projected U-relation never exists.
    let conf_ctx = maybms_core::ConfContext::default();
    // Projected shape: (k, t = v + k); group by k, conf/ecount/esum(t).
    let conf_key = [Expr::ColumnIdx(0)];
    let conf_key_fields = vec![Field::new("k", DataType::Int)];
    let conf_aggs = [
        (AggSpec::Conf, "p".to_string()),
        (AggSpec::ECount(None), "ec".to_string()),
        (AggSpec::ESum(Expr::ColumnIdx(1)), "es".to_string()),
    ];
    let (n, o, p, out) = compare3(
        reps,
        || {
            let f = naive::select_u(&uncertain, &group_pred).unwrap();
            let pr = naive::project_u(&f, &group_proj).unwrap();
            let (keys, members) = naive::group_u(&pr, &conf_key).unwrap();
            let groups = coreagg::Groups { keys, members };
            coreagg::aggregate_groups(
                &pr,
                &groups,
                conf_key_fields.clone(),
                &conf_aggs,
                &_wt,
                &conf_ctx,
            )
            .unwrap()
            .len()
        },
        || {
            let pr = UStream::new(uncertain.clone())
                .filter(&group_pred)
                .unwrap()
                .project(&group_proj)
                .unwrap()
                .collect()
                .unwrap();
            let groups = coreagg::group(&pr, &conf_key).unwrap();
            coreagg::aggregate_groups(
                &pr,
                &groups,
                conf_key_fields.clone(),
                &conf_aggs,
                &_wt,
                &conf_ctx,
            )
            .unwrap()
            .len()
        },
        || {
            let stream = UStream::new(uncertain.clone())
                .filter(&group_pred)
                .unwrap()
                .project(&group_proj)
                .unwrap();
            coreagg::aggregate_stream(
                stream,
                &conf_key,
                1,
                conf_key_fields.clone(),
                &conf_aggs,
                &_wt,
                &conf_ctx,
                None,
            )
            .unwrap()
            .len()
        },
    );
    outcomes.push(Outcome {
        name: "group_by_conf",
        rows_in: uncertain.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // -- Expression-heavy chain: wide predicate + arithmetic projection
    //    σ→π→σ→π, every stage kernel-eligible. Three-way: naive seed
    //    operators vs the row-morsel streaming executor vs the columnar
    //    (vectorised) streaming executor — for this workload the
    //    `pipelined_*` columns are the row path and `columnar_*` the
    //    vectorised one, so pipelined_speedup isolates the kernel win.
    let expr_rel = workloads::expr_table(63, scale);
    let epred1 = Expr::col("a")
        .binary(BinaryOp::Mul, Expr::lit(3i64))
        .binary(BinaryOp::Add, Expr::col("b"))
        .binary(BinaryOp::Gt, Expr::col("c").binary(BinaryOp::Mul, Expr::lit(2i64)))
        .and(Expr::col("d").binary(BinaryOp::Lt, Expr::lit(800i64)));
    let eproj1 = [
        ops::ProjectItem::new(Expr::col("a").binary(BinaryOp::Add, Expr::col("b")), "ab"),
        ops::ProjectItem::new(Expr::col("c").binary(BinaryOp::Mul, Expr::col("d")), "cd"),
        ops::ProjectItem::col("x"),
        ops::ProjectItem::col("a"),
    ];
    let epred2 = Expr::col("ab")
        .binary(BinaryOp::Add, Expr::col("cd"))
        .binary(BinaryOp::Mod, Expr::lit(10i64))
        .binary(BinaryOp::Lt, Expr::lit(6i64));
    let eproj2 = [
        ops::ProjectItem::new(
            Expr::col("ab")
                .binary(BinaryOp::Mul, Expr::lit(2i64))
                .binary(BinaryOp::Add, Expr::col("cd")),
            "v1",
        ),
        ops::ProjectItem::new(
            Expr::col("x").binary(BinaryOp::Mul, Expr::lit(maybms_engine::Value::Float(0.25))),
            "v2",
        ),
        ops::ProjectItem::col("a"),
    ];
    let mut expr_catalog = Catalog::new();
    expr_catalog.create("e", expr_rel.clone()).expect("fresh catalog");
    let expr_plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan { table: "e".into(), alias: None }),
                    predicate: epred1.clone(),
                }),
                items: eproj1.to_vec(),
            }),
            predicate: epred2.clone(),
        }),
        items: eproj2.to_vec(),
    };
    let expr_pool = maybms_par::pool();
    let (n, o, p, out) = compare3(
        reps,
        || {
            let a = naive::filter(&expr_rel, &epred1).unwrap();
            let b = naive::project(&a, &eproj1).unwrap();
            let c = naive::filter(&b, &epred2).unwrap();
            naive::project(&c, &eproj2).unwrap().len()
        },
        || {
            maybms_pipe::execute_opts(
                &expr_plan,
                &expr_catalog,
                &expr_pool,
                ops::PAR_MIN_CHUNK,
                false,
            )
            .unwrap()
            .len()
        },
        || {
            maybms_pipe::execute_opts(
                &expr_plan,
                &expr_catalog,
                &expr_pool,
                ops::PAR_MIN_CHUNK,
                true,
            )
            .unwrap()
            .len()
        },
    );
    outcomes.push(Outcome {
        name: "expr_heavy_columnar",
        rows_in: expr_rel.len(),
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });

    // -- Cold start: re-ingest vs WAL replay vs snapshot load ----------
    // Three ways to bring the same catalog back after a restart: re-run
    // the SQL from scratch (parse + plan + execute, the only option
    // before the store existed), replay the physical WAL, or load one
    // checkpoint snapshot. Same final state by construction; compare3's
    // cardinality assert doubles as a recovery-equivalence check.
    let demo_sql = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/nba_demo.sql");
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    let extra_inserts = if quick { 30 } else { 300 };
    let mut cold_script = demo_sql.clone();
    for i in 0..extra_inserts {
        let _ = write!(
            cold_script,
            "insert into ft values ('Player{i}', 'F', 'SL', 0.5);"
        );
    }
    let total_rows = |db: &maybms_core::MayBms| -> usize {
        db.table_names()
            .iter()
            .map(|n| db.table(n).map(|t| t.len()).unwrap_or(0))
            .sum()
    };
    let cold_root =
        std::env::temp_dir().join(format!("maybms_cold_start_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cold_root);
    let wal_dir = cold_root.join("wal_replay");
    let snap_dir = cold_root.join("snapshot_load");
    let cold_setup = || -> maybms_core::Result<()> {
        let mut db = maybms_core::MayBms::open(&wal_dir)?;
        db.run_script(&cold_script)?;
        let mut db = maybms_core::MayBms::open(&snap_dir)?;
        db.run_script(&cold_script)?;
        db.checkpoint()?;
        Ok(())
    };
    if let Err(e) = cold_setup() {
        eprintln!("error: cold-start setup failed under {}: {e}", cold_root.display());
        std::process::exit(1);
    }
    let (n, o, p, out) = compare3(
        reps,
        || {
            let mut db = maybms_core::MayBms::new();
            db.run_script(&cold_script).expect("demo script is valid");
            total_rows(&db)
        },
        || {
            let db = maybms_core::MayBms::open(&wal_dir).expect("WAL replay");
            total_rows(&db)
        },
        || {
            let db = maybms_core::MayBms::open(&snap_dir).expect("snapshot load");
            total_rows(&db)
        },
    );
    outcomes.push(Outcome {
        name: "cold_start",
        rows_in: extra_inserts + 19, // demo rows + amplified insert statements
        rows_out: out,
        naive: n,
        optimized: o,
        pipelined: Some(p),
        stats: take_delta(&mut mark),
    });
    let _ = std::fs::remove_dir_all(&cold_root);

    // -- Instrumentation-overhead gate (--assert-overhead PCT) ---------
    // Re-runs the filter_project_chain pipeline through the streaming
    // executor twice per rep, interleaved — stats collector detached vs
    // attached — and fails if the attached median exceeds the requested
    // percentage overhead. A small absolute slack keeps sub-millisecond
    // medians (where one timer tick is several percent) from flaking.
    if let Some(pct) = assert_overhead {
        let pool = maybms_par::pool();
        let u_chain = URelation::from_certain(&certain);
        let chain_stream = |u: &URelation| {
            UStream::new(u.clone())
                .filter(&pred1)
                .unwrap()
                .project(&proj1)
                .unwrap()
                .filter(&pred2)
                .unwrap()
                .project(&proj2)
                .unwrap()
        };
        let o_reps = reps.max(7);
        let mut bare = Vec::with_capacity(o_reps);
        let mut inst = Vec::with_capacity(o_reps);
        for _ in 0..o_reps {
            let s = chain_stream(&u_chain);
            let t0 = Instant::now();
            let n_bare = std::hint::black_box(
                s.collect_stats(&pool, ops::PAR_MIN_CHUNK, maybms_pipe::columnar_default(), None)
                    .unwrap()
                    .len(),
            );
            bare.push(t0.elapsed().as_secs_f64() * 1e3);

            let s = chain_stream(&u_chain);
            let ps = s.stats_skeleton("overhead probe");
            let t0 = Instant::now();
            let n_inst = std::hint::black_box(
                s.collect_stats(
                    &pool,
                    ops::PAR_MIN_CHUNK,
                    maybms_pipe::columnar_default(),
                    Some(&ps),
                )
                .unwrap()
                .len(),
            );
            inst.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(n_bare, n_inst, "instrumentation changed the result cardinality");
        }
        let (b, i) = (median(bare), median(inst));
        let allowed = b * (1.0 + pct / 100.0) + 0.05;
        println!(
            "instrumentation overhead: detached {b:.3} ms, attached {i:.3} ms \
             (gate: {pct}% + 0.05 ms slack)"
        );
        assert!(
            i <= allowed,
            "instrumented filter_project_chain median {i:.3} ms exceeds the \
             {pct}% overhead gate over detached {b:.3} ms"
        );
    }

    // -- Governor-neutrality gate --------------------------------------
    // The whole run executed with no statement limits armed, so every
    // governor counter delta must be zero — otherwise something aborted,
    // degraded, or retried inside the measured reps and the latency
    // numbers above are contaminated.
    let gov_now = gov_metric_mark();
    let gov_delta: Vec<u64> =
        gov_now.iter().zip(gov_mark).map(|(now, then)| now - then).collect();
    for (name, d) in GOV_COUNTERS.iter().zip(&gov_delta) {
        assert_eq!(
            *d, 0,
            "governor counter `{name}` moved by {d} during the baseline run; \
             the measured reps were perturbed (statement limits or store \
             fault injection armed?) and the results are invalid"
        );
    }

    // -- Report --------------------------------------------------------
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "workload", "rows_in", "rows_out", "naive ms", "opt ms", "pipe ms", "speedup"
    );
    let mut json = String::new();
    json.push_str("{\n");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(
        json,
        "  \"meta\": {{ \"scale\": {scale}, \"reps\": {reps}, \"quick\": {quick}, \
         \"cores\": {cores}, \"trace\": {trace_on}, \
         \"note\": \"naive = seed algorithms (deep clones, Vec<Value> join keys, \
         per-row WSD heap allocation); optimized = zero-clone core (selection \
         vectors, hashed keys, batched rows, inline WSDs); *_par4 workloads run \
         the optimized operators on an explicit 4-thread maybms-par pool \
         (the conf_dtree_par4 baseline is the *sequential optimized* \
         algorithm, isolating the scheduler; with cores=1 the par \
         columns bound threading overhead, not multicore scaling); workloads \
         with pipelined_ms additionally run the maybms-pipe morsel-driven \
         streaming executor over the same plan, columnar path at its \
         default, on (pipelined_speedup = \
         optimized_ms / pipelined_ms, the fusion win over full \
         materialisation); group_by_* are three-way grouped-aggregation \
         workloads: seed two-pass grouping vs single-pass AggState fold \
         over a materialised input vs the streaming grouped-aggregation \
         breaker (morsel-local group fold, input never materialised); \
         expr_heavy_columnar is naive vs the ROW-morsel streaming \
         executor (optimized_ms) vs the COLUMNAR vectorised one \
         (pipelined_ms) — its pipelined_speedup isolates the typed \
         kernel win over per-cell Value dispatch; \
         cold_start is a three-way restart workload on a real data \
         directory: fresh SQL re-ingest of the amplified nba demo \
         (naive_ms) vs maybms-store WAL replay (optimized_ms) vs \
         checkpoint snapshot load (pipelined_ms); \
         each workload row's stats object holds process-wide maybms-obs \
         metric deltas (morsels driven, scalar kernel fallbacks, Monte \
         Carlo samples drawn, row-to-column pivots) accumulated across \
         all reps and variants of that section; distinct_dict and \
         group_by_string_dict are three-way string-keyed workloads over \
         the columnar-at-rest store: naive_ms = seed operators on the \
         row image, optimized_ms = zero-clone operators hashing each \
         string per row, pipelined_ms = the dictionary-code path \
         (DISTINCT dedups u32 codes through a dense bitmap; GROUP BY \
         maps codes to groups with a dense per-morsel table) — their \
         stats.pivots stays 0 because the dictionary column is read \
         at rest; \
         interleaved medians, same process\" }},"
    );
    json.push_str("  \"workloads\": [\n");
    for (i, w) in outcomes.iter().enumerate() {
        let speedup = w.naive.p50 / w.optimized.p50;
        let pipe_col = match w.pipelined {
            Some(p) => format!("{:>12.3}", p.p50),
            None => format!("{:>12}", "-"),
        };
        println!(
            "{:<24} {:>10} {:>10} {:>12.3} {:>12.3} {} {:>8.2}x",
            w.name, w.rows_in, w.rows_out, w.naive.p50, w.optimized.p50, pipe_col, speedup
        );
        let _ = write!(
            json,
            "    {{ \"name\": \"{}\", \"rows_in\": {}, \"rows_out\": {}, \
             \"naive_ms\": {:.3}, \"naive_p99_ms\": {:.3}, \
             \"optimized_ms\": {:.3}, \"optimized_p99_ms\": {:.3}, \"speedup\": {:.2}",
            w.name,
            w.rows_in,
            w.rows_out,
            w.naive.p50,
            w.naive.p99,
            w.optimized.p50,
            w.optimized.p99,
            speedup
        );
        if let Some(p) = w.pipelined {
            let _ = write!(
                json,
                ", \"pipelined_ms\": {:.3}, \"pipelined_p99_ms\": {:.3}, \
                 \"pipelined_speedup\": {:.2}",
                p.p50,
                p.p99,
                w.optimized.p50 / p.p50
            );
        }
        let _ = write!(
            json,
            ", \"stats\": {{ \"morsels\": {}, \"scalar_fallbacks\": {}, \
             \"samples_drawn\": {}, \"pivots\": {} }}",
            w.stats.morsels, w.stats.scalar_fallbacks, w.stats.samples_drawn, w.stats.pivots
        );
        json.push_str(" }");
        json.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // The cold_start section runs SQL through `MayBms::run_script`, so
    // the process's sliding statement-latency windows have content:
    // record their per-kind quantiles alongside the workload rows.
    json.push_str("  \"statement_windows\": {");
    for (i, kind) in maybms_obs::window::StatementKind::ALL.iter().enumerate() {
        let snap = maybms_obs::window::window_for(*kind).snapshot();
        let q = |q: f64| match snap.quantile(q) {
            Some(seconds) => format!("{:.3}", seconds * 1e3),
            None => "null".to_string(),
        };
        let _ = write!(
            json,
            "{}\"{}\": {{ \"count\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {} }}",
            if i == 0 { " " } else { ", " },
            kind.label(),
            snap.count,
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
    json.push_str(" },\n");
    // Governor counter deltas over the whole run — asserted zero above,
    // recorded so the trajectory file itself proves each measured run
    // was unperturbed by aborts, degradation, or storage retries.
    json.push_str("  \"governor\": {");
    for (i, (name, d)) in GOV_COUNTERS.iter().zip(&gov_delta).enumerate() {
        let _ = write!(json, "{}\"{name}\": {d}", if i == 0 { " " } else { ", " });
    }
    json.push_str(" }\n}");

    // The baseline file is a *trajectory*: each full-scale run appends
    // (per ROADMAP, so the measured history survives across PRs). A
    // legacy single-run file wraps into the runs array on first append.
    let full = match std::fs::read_to_string(&out_path) {
        // A runs file this binary wrote: splice before the closing `]}`.
        // A hand-edited tail that no longer matches falls through to the
        // wrap branch — never panic away a finished run's measurements.
        Ok(old)
            if old.trim_start().starts_with("{\n\"runs\"")
                && old.trim_end().ends_with("\n]\n}") =>
        {
            let trimmed = old.trim_end();
            let body = &trimmed[..trimmed.len() - "\n]\n}".len()];
            format!("{body},\n{json}\n]\n}}\n")
        }
        Ok(old) if !old.trim().is_empty() => {
            format!("{{\n\"runs\": [\n{},\n{json}\n]\n}}\n", old.trim_end())
        }
        _ => format!("{{\n\"runs\": [\n{json}\n]\n}}\n"),
    };
    // An unwritable results file must not panic away the run: the
    // measurements are all in `full`, so print them instead.
    match std::fs::write(&out_path, &full) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}; printing results instead");
            println!("{full}");
            std::process::exit(1);
        }
    }
}
