//! The metric names, with unit and direction: the one list `BENCHMARK.json`,
//! the reports and the smoke test all follow.

use crate::workloads::SPECS;

/// Name, unit and whether lower or higher is better.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`
    pub name: String,
    /// As printed beside every value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// What a user of the database sees; measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("stmts_per_s", "1/s", "higher"),
        def("stmt_p50_ms", "ms", "lower"),
        def("stmt_p95_ms", "ms", "lower"),
        def("recovery_s", "s", "lower"),
        def("disk_bytes_per_user_byte", "ratio", "lower"),
    ]
}

/// One layer each (the prefix is the crate), plus the client-side numbers
/// that are not steady or not defined on every workload and so carry no bound.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("sql.parse_p50_us", "us", "lower"),
        def("sql.parse_share", "ratio", "lower"),
        def("sql.stmt_bytes_p50", "bytes", "lower"),
        def("core.execute_p50_ms", "ms", "lower"),
        def("core.self_share", "ratio", "lower"),
        def("core.rows_returned", "count", "lower"),
        def("core.stmt_p99_ms", "ms", "lower"),
        def("core.stmt_max_ms", "ms", "lower"),
    ];
    for class in SPECS.iter().flat_map(|s| s.classes) {
        defs.push(def(
            &format!("core.class.{}.p50_ms", class.name),
            "ms",
            "lower",
        ));
    }
    defs.extend([
        def("pipe.share", "ratio", "lower"),
        def("pipe.busy_ms", "ms", "lower"),
        def("pipe.breaker_share", "ratio", "lower"),
        def("pipe.pipelines", "count", "lower"),
        def("pipe.morsels", "count", "lower"),
        def("pipe.rows_in", "count", "lower"),
        def("pipe.rows_out", "count", "lower"),
        def("pipe.join_build_rows", "count", "lower"),
        def("pipe.groups", "count", "lower"),
        def("pipe.rows_in_per_row_returned", "ratio", "lower"),
        def("engine.vector_batches", "count", "higher"),
        def("engine.scalar_fallbacks", "count", "lower"),
        def("engine.pivots", "count", "lower"),
        def("engine.pivot_rows", "count", "lower"),
        def("urel.repair_key_ms", "ms", "lower"),
        def("urel.pick_tuples_ms", "ms", "lower"),
        def("urel.ns_per_input_row", "ns", "lower"),
        def("urel.vars_created", "count", "lower"),
        def("conf.share", "ratio", "lower"),
        def("conf.busy_ms", "ms", "lower"),
        def("conf.calls", "count", "lower"),
        def("conf.sprout_calls", "count", "higher"),
        def("conf.dnf_clauses", "count", "lower"),
        def("conf.dtree_nodes", "count", "lower"),
        def("conf.ns_per_dtree_node", "ns", "lower"),
        def("conf.mc_samples", "count", "lower"),
        def("conf.mc_batches", "count", "lower"),
        def("conf.ns_per_sample", "ns", "lower"),
        def("conf.max_rel_stderr", "ratio", "lower"),
        def("conf.degraded", "count", "lower"),
        def("conf.probe_exact_ms", "ms", "lower"),
        def("conf.probe_approx_ms", "ms", "lower"),
        def("store.share", "ratio", "lower"),
        def("store.wal_appends", "count", "lower"),
        def("store.wal_bytes", "bytes", "lower"),
        def("store.wal_bytes_per_user_byte", "ratio", "lower"),
        def("store.wal_append_p50_ms", "ms", "lower"),
        def("store.fsync_share", "ratio", "lower"),
        def("store.checkpoints", "count", "lower"),
        def("store.checkpoint_p50_ms", "ms", "lower"),
        def("store.checkpoint_stall_max_ms", "ms", "lower"),
        def("store.snapshot_bytes", "bytes", "lower"),
        def("store.open_p50_ms", "ms", "lower"),
        def("store.tail_replay_ms", "ms", "lower"),
        def("store.recovery_replayed", "count", "lower"),
        def("store.retries", "count", "lower"),
        def("par.threads", "count", "higher"),
        def("par.tasks", "count", "lower"),
        def("par.queue_depth_hwm", "count", "lower"),
        def("par.speedup_vs_1t", "ratio", "higher"),
        def("gov.aborts", "count", "lower"),
        def("gov.panics", "count", "lower"),
        def("obs.trace_overhead_ratio", "ratio", "lower"),
        def("obs.spans_per_stmt", "count", "lower"),
        def("read_p50_ms", "ms", "lower"),
        def("read_p95_ms", "ms", "lower"),
        def("write_p50_ms", "ms", "lower"),
        def("write_p95_ms", "ms", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
        def("fail_ratio", "ratio", "lower"),
    ]);
    defs
}
