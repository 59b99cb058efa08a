//! From passes to named metrics: the end-to-end report of the measured
//! pass and the per-layer report of the plain, traced and one-thread passes.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::{peak_rss_mb, run_pass, set_up, Config, Pass, COUNTED_ROUNDS};
use crate::metrics::{self, MetricDef};
use crate::stats::{median, percentile};
use crate::workloads::{build, Spec};
use crate::{probes, spans};

/// One workload's metrics from one kind of run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Statements, checkpoints and audits issued.
    pub attempted: u64,
    /// Those that errored or answered wrongly.
    pub failed: u64,
    /// Digest of the answers of the counted prefix.
    pub digest: u64,
    /// Measured statements behind the latency percentiles.
    pub samples: usize,
    /// `(definition, value)` in the order of [`metrics`].
    pub metrics: Vec<(MetricDef, f64)>,
}

/// Engine threads: `min(nproc, 4)`.
pub fn engine_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn latencies(pass: &Pass, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    pass.latencies
        .iter()
        .filter(|(c, _)| keep(*c))
        .map(|(_, ms)| *ms)
        .collect()
}

fn ordered(defs: Vec<MetricDef>, mut values: BTreeMap<String, f64>) -> Vec<(MetricDef, f64)> {
    let out = defs
        .into_iter()
        .map(|d| {
            let v = values
                .remove(&d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            (d, v)
        })
        .collect();
    assert!(
        values.is_empty(),
        "computed metrics nobody defined: {:?}",
        values.keys()
    );
    out
}

/// Set up `cfg.setups` times, run the measured pass with tracing off, and
/// report what a user of the database sees.
pub fn end_to_end(spec: &'static Spec, cfg: &Config) -> Result<Report, String> {
    let workload = build(spec, cfg.seed, cfg.divisor);
    let base = cfg.out_dir.join("base");
    let mut setups = Vec::new();
    for _ in 0..cfg.setups {
        setups.push(set_up(workload.as_ref(), &base)?);
    }
    maybms_par::set_threads(engine_threads());
    let pass = run_pass(spec, cfg, &base, cfg.seconds, false)?;

    let per_round = spec.statements_per_round() as f64;
    let setup = setups[0];
    let ingested = workload.ingested_bytes();
    let disk = match pass.first_cycle {
        Some(c) => {
            (c.snapshot_bytes + c.wal_peak_bytes.max(setup.wal_peak_bytes)) as f64
                / (ingested + c.user_bytes) as f64
        }
        None => (setup.snapshot_bytes + setup.wal_peak_bytes) as f64 / ingested as f64,
    };
    let all = latencies(&pass, |_| true);
    let values = BTreeMap::from([
        (
            "setup_s".to_string(),
            median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>()),
        ),
        (
            "stmts_per_s".to_string(),
            median(
                &pass
                    .round_busy_s
                    .iter()
                    .map(|s| per_round / s)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("stmt_p50_ms".to_string(), percentile(&all, 0.5)),
        ("stmt_p95_ms".to_string(), percentile(&all, 0.95)),
        ("recovery_s".to_string(), median(&pass.opens_s)),
        ("disk_bytes_per_user_byte".to_string(), disk),
    ]);
    Ok(Report {
        workload: spec.name,
        attempted: pass.attempted,
        failed: pass.failed,
        digest: pass.digest.0,
        samples: pass.latencies.len(),
        metrics: ordered(metrics::end_to_end(), values),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set up once, then run the plain pass, the traced pass and the one-thread
/// pass (0.4, 0.4 and 0.2 of `cfg.seconds`) and the probes, and report every
/// layer. The first spans of the traced pass go to `trace_file`.
pub fn per_layer(spec: &'static Spec, cfg: &Config, trace_file: &Path) -> Result<Report, String> {
    let workload = build(spec, cfg.seed, cfg.divisor);
    let base = cfg.out_dir.join("base");
    let setup = set_up(workload.as_ref(), &base)?;
    let threads = engine_threads();
    maybms_par::set_threads(threads);
    let plain = run_pass(spec, cfg, &base, cfg.seconds * 0.4, false)?;
    let rss = peak_rss_mb();
    let traced_pass = run_pass(spec, cfg, &base, cfg.seconds * 0.4, true)?;
    maybms_par::set_threads(1);
    let one_thread = run_pass(spec, cfg, &base, cfg.seconds * 0.2, false);
    maybms_par::set_threads(threads);
    let one_thread = one_thread?;
    let queue_depth_hwm = maybms_obs::metrics().par_queue_depth_hwm.get() as f64;
    let probed = probes::run(cfg.seed, cfg.divisor)?;

    let traced = traced_pass
        .traced
        .as_ref()
        .expect("a traced pass harvests spans");
    std::fs::write(trace_file, spans::chrome_trace(&traced.first_spans))
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    let attribution = &traced.attribution;
    let counts = &traced_pass.counts;
    let traced_rounds = traced_pass.round_busy_s.len() as f64;
    let span_p50 = |label: &str| {
        let d: Vec<f64> = attribution
            .durations
            .get(label)
            .map_or(Vec::new(), |v| v.iter().map(|n| *n as f64).collect());
        median(&d)
    };
    let round_median = |p: &Pass| median(&p.round_busy_s);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    // Counts of the counted prefix, straight from the registry deltas.
    for (name, v) in counts {
        put(name, *v);
    }
    for (name, v) in &probed {
        put(name, *v);
    }
    put("sql.parse_p50_us", span_p50("parse") / 1e3);
    put("sql.parse_share", attribution.share(&["parse"]));
    put("sql.stmt_bytes_p50", median(&traced_pass.sql_bytes));
    put("core.execute_p50_ms", span_p50("execute") / 1e6);
    put(
        "core.self_share",
        attribution.share(&["statement", "execute"]),
    );
    let all = latencies(&plain, |_| true);
    put("core.stmt_p99_ms", percentile(&all, 0.99));
    put("core.stmt_max_ms", percentile(&all, 1.0));
    for other in crate::workloads::SPECS.iter() {
        for (i, class) in other.classes.iter().enumerate() {
            let own = if other.name == spec.name {
                latencies(&plain, |c| c == i)
            } else {
                Vec::new()
            };
            put(&format!("core.class.{}.p50_ms", class.name), median(&own));
        }
    }
    put("pipe.share", attribution.share(&["pipeline", "breaker"]));
    put(
        "pipe.busy_ms",
        attribution.busy_ms(&["pipeline", "breaker"]) / traced_rounds,
    );
    put("pipe.breaker_share", attribution.share(&["breaker"]));
    put(
        "pipe.rows_in_per_row_returned",
        ratio(counts["pipe.rows_in"], counts["core.rows_returned"]),
    );
    put("conf.share", attribution.share(&["conf"]));
    put(
        "conf.busy_ms",
        attribution.busy_ms(&["conf"]) / traced_rounds,
    );
    put(
        "conf.ns_per_dtree_node",
        ratio(traced.exact_nanos as f64, traced.dtree_nodes as f64),
    );
    put(
        "conf.ns_per_sample",
        ratio(traced.approx_nanos as f64, traced.samples as f64),
    );
    put(
        "store.share",
        attribution.share(&["wal_append", "wal_fsync", "checkpoint"]),
    );
    put("store.fsync_share", attribution.share(&["wal_fsync"]));
    put(
        "store.wal_bytes_per_user_byte",
        ratio(
            counts["store.wal_bytes"],
            traced_pass.counted_user_bytes as f64,
        ),
    );
    put("store.wal_append_p50_ms", span_p50("wal_append") / 1e6);
    put("store.checkpoint_p50_ms", median(&plain.checkpoints_ms));
    put(
        "store.checkpoint_stall_max_ms",
        percentile(&plain.checkpoints_ms, 1.0),
    );
    put(
        "store.snapshot_bytes",
        plain
            .first_cycle
            .map_or(setup.snapshot_bytes, |c| c.snapshot_bytes) as f64,
    );
    put("store.open_p50_ms", median(&plain.opens_s) * 1e3);
    put(
        "store.tail_replay_ms",
        plain.tail_replay.map_or(0.0, |t| t.0),
    );
    put(
        "store.recovery_replayed",
        plain.tail_replay.map_or(0.0, |t| t.1 as f64),
    );
    put("par.threads", threads as f64);
    put("par.queue_depth_hwm", queue_depth_hwm);
    put(
        "par.speedup_vs_1t",
        ratio(round_median(&one_thread), round_median(&plain)),
    );
    put(
        "obs.trace_overhead_ratio",
        ratio(round_median(&traced_pass), round_median(&plain)),
    );
    put(
        "obs.spans_per_stmt",
        traced_pass.counted_spans as f64 / (COUNTED_ROUNDS * spec.statements_per_round()) as f64,
    );
    let (reads, writes) = (
        latencies(&plain, |c| !spec.classes[c].write),
        latencies(&plain, |c| spec.classes[c].write),
    );
    put("read_p50_ms", percentile(&reads, 0.5));
    put("read_p95_ms", percentile(&reads, 0.95));
    put("write_p50_ms", percentile(&writes, 0.5));
    put("write_p95_ms", percentile(&writes, 0.95));
    put("peak_rss_mb", rss);

    // Answers may not depend on tracing or on the thread count.
    let passes = [&plain, &traced_pass, &one_thread];
    let mismatches = passes.iter().filter(|p| p.digest != plain.digest).count() as u64;
    if mismatches > 0 {
        eprintln!("answers differ between the plain, traced and one-thread passes");
    }
    let attempted = passes.iter().map(|p| p.attempted).sum::<u64>() + 2;
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + mismatches;
    put("fail_ratio", failed as f64 / attempted as f64);
    Ok(Report {
        workload: spec.name,
        attempted,
        failed,
        digest: plain.digest.0,
        samples: plain.latencies.len(),
        metrics: ordered(metrics::per_layer(), values),
    })
}
