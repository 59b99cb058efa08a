//! # maybms-obs — observability for the MayBMS reproduction
//!
//! A std-only metrics layer (the build environment is offline, so no
//! prometheus/metrics crates): lock-free atomic [`Counter`]s, [`Gauge`]s
//! and fixed-bucket latency [`Histogram`]s in a process-wide registry
//! ([`metrics`]), plus the per-statement [`QueryStats`] every SQL
//! statement carries through pipelines and confidence computation.
//!
//! **One record of what ran.** A pipeline run keeps exactly one record
//! of itself, a [`PipelineStats`]: the morsel driver tallies into it
//! once per morsel, and when the run ends [`PipelineStats::finish`] hands
//! those numbers to all three views at once — the registry (`/metrics`),
//! the `pipeline` trace span, and the statement's [`QueryStats`]
//! (`EXPLAIN ANALYZE`, [`QueryStats::summary`]). The views agree because
//! they are copies of one tally, not three counts of the same events.
//! Statement latency is likewise one histogram per statement kind,
//! `maybms_query_seconds{kind}`, read by `/metrics` and by
//! [`latency_report`] (`\latency`).
//!
//! Two invariants the rest of the stack relies on:
//!
//! * **Near-zero cost.** Per-row counting is plain integers on the
//!   worker's stack, flushed into the pipeline's record once per morsel;
//!   the registry sees a handful of relaxed atomic adds per pipeline /
//!   batch / fsync, never per row.
//! * **Determinism.** Everything a [`QueryStats`] accumulates is an
//!   order-independent sum (or max) of per-morsel / per-call
//!   contributions, so the collected numbers — like the query results
//!   themselves — are bit-identical at any thread count and morsel size
//!   (morsel counts and wall times excepted).
//!
//! Surfaces: `EXPLAIN ANALYZE` (core renders [`QueryStats`]), the shell's
//! `\metrics` and `\latency` commands ([`render_prometheus`],
//! [`latency_report`]), the opt-in slow-query log
//! ([`slow_log_threshold_ms`], `MAYBMS_SLOW_MS` / `\slowlog N`),
//! structured tracing spans with a ring sink and Chrome `trace_event`
//! export ([`trace`]), and a std-only Prometheus HTTP scrape endpoint
//! ([`http`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the process trace epoch (first call wins) — the
/// clock of every span timestamp.
pub fn monotonic_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    nanos(EPOCH.get_or_init(Instant::now).elapsed())
}

/// `d` in nanoseconds, saturating.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// A monotonically increasing event count. All operations are relaxed:
/// counters are statistics, never synchronisation.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so counters can live in statics).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (queue depth, recovery record count).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below (high-water marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Maximum bucket count of a [`Histogram`] (bounds + the +Inf bucket).
pub const MAX_BUCKETS: usize = 16;

/// A fixed-bucket latency histogram: observation counts per upper bound
/// (nanoseconds) plus a `+Inf` overflow bucket, and a nanosecond sum —
/// exactly the data a Prometheus histogram exposes. Buckets are plain
/// relaxed atomics; observing is one binary chore of comparisons and two
/// adds.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending upper bounds, in nanoseconds (≤ [`MAX_BUCKETS`] − 1).
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS],
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram over `bounds` (ascending nanosecond bounds).
    pub const fn new(bounds: &'static [u64]) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        assert!(bounds.len() < MAX_BUCKETS);
        Histogram {
            bounds,
            buckets: [ZERO; MAX_BUCKETS],
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Record one duration.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_nanos(nanos(d));
    }

    /// Record one observation of `nanos` nanoseconds.
    pub fn observe_nanos(&self, nanos: u64) {
        let i = self.bounds.partition_point(|&b| b < nanos);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Observations per bucket, the `+Inf` bucket last.
    fn counts(&self) -> [u64; MAX_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Mean observation in seconds (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum_nanos.load(Ordering::Relaxed) as f64 / n as f64 / 1e9)
    }

    /// Quantile `q` (0 < q ≤ 1) in seconds, interpolated linearly within
    /// the winning bucket as Prometheus `histogram_quantile` does (the
    /// last finite bound caps the `+Inf` bucket). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let buckets = self.counts();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &in_bucket) in buckets.iter().enumerate() {
            cumulative += in_bucket;
            if cumulative < rank {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                return Some(*self.bounds.last().unwrap_or(&0) as f64 / 1e9);
            };
            let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
            let into = (rank - (cumulative - in_bucket)) as f64 / in_bucket as f64;
            return Some((lower as f64 + (upper - lower) as f64 * into) / 1e9);
        }
        None // unreachable: cumulative == total >= rank by the end
    }

    /// Render this histogram in Prometheus text exposition format
    /// (cumulative `_bucket{le=…}` lines, `_sum`, `_count`), each series
    /// carrying `label` (`kind="select"`) when one is given.
    fn render(&self, out: &mut String, name: &str, label: &str) {
        let (le_prefix, tail) = match label {
            "" => (String::new(), String::new()),
            l => (format!("{l},"), format!("{{{l}}}")),
        };
        let counts = self.counts();
        let mut cumulative = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            cumulative += counts[i];
            let le = bound as f64 / 1e9;
            out.push_str(&format!(
                "{name}_bucket{{{le_prefix}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        cumulative += counts[self.bounds.len()];
        out.push_str(&format!(
            "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!("{name}_sum{tail} {}\n", self.sum_seconds()));
        out.push_str(&format!("{name}_count{tail} {cumulative}\n"));
    }
}

/// Fsync / checkpoint latency bounds: 50µs … 100ms.
pub const IO_BOUNDS: &[u64] = &[
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
];

/// Pipeline / query wall-time bounds: 100µs … 5s.
pub const TIME_BOUNDS: &[u64] = &[
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
];

/// Statement-latency bounds: 50µs … 5s. Finer sub-millisecond buckets
/// than [`TIME_BOUNDS`] so the p50 of sub-millisecond statements does
/// not pin to the lowest bucket.
pub const STATEMENT_BOUNDS: &[u64] = &[
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
];

// ---------------------------------------------------------------------
// The process-wide registry
// ---------------------------------------------------------------------

/// What kind of statement a latency observation belongs to — the `kind`
/// label of `maybms_query_seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// Query without confidence computation.
    Select,
    /// Query that ran at least one conf()/aconf()/tconf computation.
    Conf,
    /// Data/definition mutation (INSERT/UPDATE/DELETE/CREATE/…).
    Dml,
    /// Statement aborted by the governor (cancel/deadline/memory) or a
    /// caught panic — kept apart so an abort storm cannot skew the
    /// select/conf/dml percentiles with artificially short samples.
    Aborted,
}

impl StatementKind {
    /// All kinds, in rendering order.
    pub const ALL: [StatementKind; 4] = [
        StatementKind::Select,
        StatementKind::Conf,
        StatementKind::Dml,
        StatementKind::Aborted,
    ];

    /// The `kind` label value.
    pub fn label(self) -> &'static str {
        match self {
            StatementKind::Select => "select",
            StatementKind::Conf => "conf",
            StatementKind::Dml => "dml",
            StatementKind::Aborted => "aborted",
        }
    }
}

/// Every engine-wide metric, one static instance ([`metrics`]).
#[derive(Debug)]
#[allow(missing_docs)] // field names + render help strings are the docs
pub struct Metrics {
    // maybms-pipe: the morsel-driven executor.
    pub pipelines: Counter,
    pub morsels: Counter,
    pub rows_in: Counter,
    pub rows_out: Counter,
    pub vector_batches: Counter,
    pub scalar_fallbacks: Counter,
    pub join_build_rows: Counter,
    pub groups: Counter,
    pub pivots: Counter,
    pub pivot_rows: Counter,
    pub pipeline_seconds: Histogram,
    // maybms-conf: confidence computation.
    pub dtree_nodes: Counter,
    pub dnf_clauses: Counter,
    pub mc_samples: Counter,
    pub mc_batches: Counter,
    // maybms-store: durability.
    pub wal_appends: Counter,
    pub wal_fsync_seconds: Histogram,
    pub checkpoints: Counter,
    pub checkpoint_seconds: Histogram,
    pub recovery_replayed: Gauge,
    pub recovery_truncated_tail: Gauge,
    // maybms-par: the execution pool.
    pub par_tasks: Counter,
    pub par_queue_depth_hwm: Gauge,
    // maybms-core: statements.
    pub queries: Counter,
    pub slow_queries: Counter,
    /// Statement wall time, one histogram per [`StatementKind`]
    /// ([`Metrics::query_seconds`]).
    query_seconds: [Histogram; 4],
    // maybms-gov: the query governor.
    pub gov_cancelled: Counter,
    pub gov_deadline: Counter,
    pub gov_mem_rejected: Counter,
    pub gov_degraded_conf: Counter,
    pub gov_panics: Counter,
    /// Always 0: the store retries no I/O error (each one poisons it).
    /// Kept only because the benchmark harness reads it as
    /// `store.retries`; it goes when that harness next changes.
    pub store_retries: Counter,
}

static METRICS: Metrics = Metrics {
    pipelines: Counter::new(),
    morsels: Counter::new(),
    rows_in: Counter::new(),
    rows_out: Counter::new(),
    vector_batches: Counter::new(),
    scalar_fallbacks: Counter::new(),
    join_build_rows: Counter::new(),
    groups: Counter::new(),
    pivots: Counter::new(),
    pivot_rows: Counter::new(),
    pipeline_seconds: Histogram::new(TIME_BOUNDS),
    dtree_nodes: Counter::new(),
    dnf_clauses: Counter::new(),
    mc_samples: Counter::new(),
    mc_batches: Counter::new(),
    wal_appends: Counter::new(),
    wal_fsync_seconds: Histogram::new(IO_BOUNDS),
    checkpoints: Counter::new(),
    checkpoint_seconds: Histogram::new(IO_BOUNDS),
    recovery_replayed: Gauge::new(),
    recovery_truncated_tail: Gauge::new(),
    par_tasks: Counter::new(),
    par_queue_depth_hwm: Gauge::new(),
    queries: Counter::new(),
    slow_queries: Counter::new(),
    query_seconds: [const { Histogram::new(STATEMENT_BOUNDS) }; 4],
    gov_cancelled: Counter::new(),
    gov_deadline: Counter::new(),
    gov_mem_rejected: Counter::new(),
    gov_degraded_conf: Counter::new(),
    gov_panics: Counter::new(),
    store_retries: Counter::new(),
};

/// The process-wide metrics registry.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

impl Metrics {
    /// The statement-latency histogram of `kind`.
    pub fn query_seconds(&self, kind: StatementKind) -> &Histogram {
        &self.query_seconds[kind as usize]
    }
}

/// Render the whole registry in Prometheus text exposition format
/// (`# HELP` / `# TYPE` / sample lines) — the `\metrics` shell command.
pub fn render_prometheus() -> String {
    let m = metrics();
    let mut out = String::with_capacity(4096);
    let mut counter = |name: &str, help: &str, c: &Counter| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
            c.get()
        ));
    };
    counter(
        "maybms_pipe_pipelines_total",
        "Pipelines executed by the morsel-driven executor",
        &m.pipelines,
    );
    counter(
        "maybms_pipe_morsels_total",
        "Morsels pushed through fused stage chains",
        &m.morsels,
    );
    counter(
        "maybms_pipe_rows_in_total",
        "Rows entering fused stage chains",
        &m.rows_in,
    );
    counter(
        "maybms_pipe_rows_out_total",
        "Rows surviving fused stage chains",
        &m.rows_out,
    );
    counter(
        "maybms_pipe_vector_batches_total",
        "Columnar batches evaluated by vector kernels",
        &m.vector_batches,
    );
    counter(
        "maybms_pipe_scalar_fallbacks_total",
        "Vector-kernel batches redone row-by-row (scalar fallback)",
        &m.scalar_fallbacks,
    );
    counter(
        "maybms_pipe_join_build_rows_total",
        "Rows inserted into hash-join build tables",
        &m.join_build_rows,
    );
    counter(
        "maybms_pipe_groups_total",
        "Groups created by streaming grouped aggregation",
        &m.groups,
    );
    counter(
        "maybms_pipe_pivots_total",
        "Row-major to column-major pivots performed (ColumnBatch::pivot calls)",
        &m.pivots,
    );
    counter(
        "maybms_pipe_pivot_rows_total",
        "Rows pivoted from row-major to column-major",
        &m.pivot_rows,
    );
    counter(
        "maybms_conf_dtree_nodes_total",
        "Decomposition-tree nodes expanded by exact confidence computation",
        &m.dtree_nodes,
    );
    counter(
        "maybms_conf_dnf_clauses_total",
        "DNF clauses submitted to confidence computation",
        &m.dnf_clauses,
    );
    counter(
        "maybms_conf_mc_samples_total",
        "Monte Carlo samples drawn (fixed-count Karp-Luby draws plus DKLR consumed samples)",
        &m.mc_samples,
    );
    counter(
        "maybms_conf_mc_batches_total",
        "Seeded sample batches consumed by DKLR runs",
        &m.mc_batches,
    );
    counter(
        "maybms_store_wal_appends_total",
        "WAL records appended",
        &m.wal_appends,
    );
    counter(
        "maybms_store_checkpoints_total",
        "Atomic snapshot checkpoints written",
        &m.checkpoints,
    );
    counter(
        "maybms_par_tasks_total",
        "Tasks executed by the execution pool",
        &m.par_tasks,
    );
    counter("maybms_query_total", "SQL statements executed", &m.queries);
    counter(
        "maybms_query_slow_total",
        "Statements at or above the slow-query threshold",
        &m.slow_queries,
    );
    counter(
        "maybms_gov_cancelled_total",
        "Statements aborted by cancellation",
        &m.gov_cancelled,
    );
    counter(
        "maybms_gov_deadline_total",
        "Statements aborted by their deadline",
        &m.gov_deadline,
    );
    counter(
        "maybms_gov_mem_rejected_total",
        "Statements aborted by the memory budget",
        &m.gov_mem_rejected,
    );
    counter(
        "maybms_gov_degraded_conf_total",
        "aconf() estimates cut early by a deadline (degraded, not aborted)",
        &m.gov_degraded_conf,
    );
    counter(
        "maybms_gov_panics_total",
        "Statement panics caught and reported as internal errors",
        &m.gov_panics,
    );
    let mut gauge = |name: &str, help: &str, g: &Gauge| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
            g.get()
        ));
    };
    gauge(
        "maybms_store_recovery_replayed_records",
        "WAL records replayed at the last open",
        &m.recovery_replayed,
    );
    gauge(
        "maybms_store_recovery_truncated_tail",
        "1 if the last open truncated a torn WAL tail",
        &m.recovery_truncated_tail,
    );
    gauge(
        "maybms_par_queue_depth_hwm",
        "Execution-pool queue depth high-water mark",
        &m.par_queue_depth_hwm,
    );
    let mut histogram = |name: &str, help: &str, series: Vec<(String, &Histogram)>| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        for (label, h) in series {
            h.render(&mut out, name, &label);
        }
    };
    let one = |h| vec![(String::new(), h)];
    histogram(
        "maybms_pipe_pipeline_seconds",
        "Per-pipeline wall time",
        one(&m.pipeline_seconds),
    );
    histogram(
        "maybms_store_wal_fsync_seconds",
        "WAL append+fsync latency",
        one(&m.wal_fsync_seconds),
    );
    histogram(
        "maybms_store_checkpoint_seconds",
        "Checkpoint duration",
        one(&m.checkpoint_seconds),
    );
    let kinds = StatementKind::ALL
        .iter()
        .map(|&k| (format!("kind=\"{}\"", k.label()), m.query_seconds(k)))
        .collect();
    histogram(
        "maybms_query_seconds",
        "Per-statement wall time by statement kind",
        kinds,
    );
    out
}

/// Statement latency per kind since the process started — count, mean,
/// p50, p95 and p99 read off `maybms_query_seconds` (the `\latency`
/// shell command). Windowed quantiles are the scraper's:
/// `histogram_quantile(0.99, rate(maybms_query_seconds_bucket{kind="conf"}[1m]))`.
pub fn latency_report() -> String {
    let mut out = format!(
        "statement latency since start:\n{:<8} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        "kind", "count", "mean", "p50", "p95", "p99",
    );
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |s| trace::fmt_nanos((s * 1e9) as u64));
    for kind in StatementKind::ALL {
        let h = metrics().query_seconds(kind);
        out.push_str(&format!(
            "{:<8} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
            kind.label(),
            h.count(),
            fmt(h.mean()),
            fmt(h.quantile(0.50)),
            fmt(h.quantile(0.95)),
            fmt(h.quantile(0.99)),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Per-query collection
// ---------------------------------------------------------------------

/// Per-stage collection slot of a [`PipelineStats`]: how many rows
/// entered and survived one fused stage, plus (for probes) the build
/// size. Totals are order-independent sums of per-morsel tallies, so
/// they are bit-identical at any thread count.
#[derive(Debug, Default)]
pub struct StageStats {
    /// The stage's display label (`UStream::stage_labels` in maybms-pipe).
    pub label: String,
    /// Rows entering the stage.
    pub rows_in: Counter,
    /// Rows the stage passed downstream.
    pub rows_out: Counter,
    /// Hash-join build rows (probe stages only; 0 otherwise).
    pub build_rows: Counter,
}

/// The one record of a pipeline run: source description, per-stage row
/// counts, and the pipeline's morsel, row, vector-kernel and group
/// tallies. The morsel driver flushes into it once per morsel
/// ([`PipelineStats::flush_morsel`]); [`PipelineStats::finish`] then
/// copies it into every view.
#[derive(Debug)]
pub struct PipelineStats {
    /// Source description (`"2 stored rows (columnar, zero-pivot)"`).
    pub source: String,
    /// One slot per fused stage, in stage order.
    pub stages: Vec<StageStats>,
    /// Morsels executed (0 for a stage-less pipeline: it passes its
    /// source through without driving any).
    pub morsels: Counter,
    /// Source rows the morsels read.
    pub rows_in: Counter,
    /// Zones of the source's zone maps the leading filters consulted (0
    /// when none could) and, of those, the zones the morsels read.
    pub zones: Counter,
    /// See [`PipelineStats::zones`].
    pub zones_read: Counter,
    /// Rows that survived the whole stage chain (into the sink).
    pub rows_out: Counter,
    /// Vector-kernel batches the stages evaluated.
    pub vector_batches: Counter,
    /// Of those, batches redone row by row (scalar fallback).
    pub scalar_fallbacks: Counter,
    /// Groups created (streaming grouped-aggregation breakers; else 0).
    pub groups: Counter,
    /// Wall time of the run, in nanoseconds (set once at finish).
    pub wall_nanos: Counter,
    started: Instant,
}

impl PipelineStats {
    /// A zeroed record of a run starting now over `source`, with one
    /// slot per stage label.
    pub fn new(source: impl Into<String>, stage_labels: Vec<String>) -> PipelineStats {
        PipelineStats {
            source: source.into(),
            stages: stage_labels
                .into_iter()
                .map(|label| StageStats {
                    label,
                    ..StageStats::default()
                })
                .collect(),
            morsels: Counter::new(),
            rows_in: Counter::new(),
            zones: Counter::new(),
            zones_read: Counter::new(),
            rows_out: Counter::new(),
            vector_batches: Counter::new(),
            scalar_fallbacks: Counter::new(),
            groups: Counter::new(),
            wall_nanos: Counter::new(),
            started: Instant::now(),
        }
    }

    /// Flush one morsel's tally: `rows_in` source rows, per-stage
    /// `(rows in, rows out)`, and the vector-kernel batches it evaluated
    /// and redid scalar. Called once per morsel; the per-row counting
    /// happened in plain integers on the worker's stack. The morsel's
    /// output is what the last stage passed (its input, with no stages).
    pub fn flush_morsel(
        &self,
        rows_in: u64,
        stages: &[(u64, u64)],
        vector_batches: u64,
        scalar_fallbacks: u64,
    ) {
        self.morsels.inc();
        self.rows_in.add(rows_in);
        self.rows_out.add(stages.last().map_or(rows_in, |s| s.1));
        self.vector_batches.add(vector_batches);
        self.scalar_fallbacks.add(scalar_fallbacks);
        for (slot, &(rin, rout)) in self.stages.iter().zip(stages) {
            slot.rows_in.add(rin);
            slot.rows_out.add(rout);
        }
    }

    /// Rows inserted into the hash-join build tables of the probe stages.
    pub fn join_build_rows(&self) -> u64 {
        self.stages.iter().map(|s| s.build_rows.get()).sum()
    }

    /// End the run — the one place its numbers leave the pipeline: add
    /// the tally to the registry (`pipeline_seconds` included), set the
    /// `pipeline` span's measured attributes, and register the record on
    /// the statement, labelled by why the pipeline broke. A run that
    /// drove no morsel (a stage-less pass-through, an empty source) has
    /// no tally for the span: it keeps only `stages` and `source_rows`.
    pub fn finish(self, span: &mut trace::Span, (qs, label): (&QueryStats, &str)) {
        let wall = self.started.elapsed();
        self.wall_nanos.add(nanos(wall));
        let m = metrics();
        m.pipelines.inc();
        m.morsels.add(self.morsels.get());
        m.rows_in.add(self.rows_in.get());
        m.rows_out.add(self.rows_out.get());
        m.join_build_rows.add(self.join_build_rows());
        m.groups.add(self.groups.get());
        m.vector_batches.add(self.vector_batches.get());
        m.scalar_fallbacks.add(self.scalar_fallbacks.get());
        m.pipeline_seconds.observe(wall);
        // Morsel counts are thread-dependent — attrs are excluded from
        // the determinism contract (unlike span labels and links).
        if self.morsels.get() > 0 {
            span.attr("morsels", self.morsels.get());
            span.attr("rows_out", self.rows_out.get());
        }
        if self.groups.get() > 0 {
            span.attr("groups", self.groups.get());
        }
        let step = Step::Pipeline(label.to_string(), std::sync::Arc::new(self));
        qs.steps.lock().expect("step registry poisoned").push(step);
    }
}

/// One step of an executed plan, in execution order — what `EXPLAIN
/// ANALYZE` lists.
#[derive(Debug, Clone)]
pub enum Step {
    /// A pipeline, labelled by why it broke, and its record.
    Pipeline(String, std::sync::Arc<PipelineStats>),
    /// A materialising breaker: what ran (`sort (2 keys)`, `sort (1 keys,
    /// top 20)` under a `LIMIT`, `union (all)`, …), the rows it took and
    /// the rows it gave.
    Breaker(String, usize, usize),
}

/// Per-statement statistics: the pipelines and breakers that ran, in
/// order, plus estimator effort and the result size. Every SQL statement
/// carries one (`EXPLAIN ANALYZE`, the shell, the slow-query log read
/// it). Everything here is an order-independent sum or max, preserving
/// the determinism contract.
#[derive(Debug, Default)]
pub struct QueryStats {
    steps: Mutex<Vec<Step>>,
    /// conf()/aconf()/tconf confidence computations performed.
    pub conf_calls: Counter,
    /// Of those, the calls each estimator answered, in cascade order: the
    /// independent product, the d-tree, the sampler.
    pub answered: [Counter; 3],
    /// `aconf()` calls answered exactly (by the product or within their
    /// d-tree node budget): δ = 0.
    pub aconf_exact: Counter,
    /// The largest node budget an `aconf()` d-tree attempt ran under.
    pub max_budget: Gauge,
    /// Decomposition-tree nodes expanded by exact computations.
    pub dtree_nodes: Counter,
    /// DNF clauses submitted (lineage size).
    pub dnf_clauses: Counter,
    /// Monte Carlo samples consumed by approximate computations.
    pub samples: Counter,
    /// Monte Carlo samples computed: above `samples` only when a deadline
    /// cut an estimate and discarded part of a fan-out round.
    pub samples_drawn: Counter,
    /// Seeded sample batches those samples came from (deterministic:
    /// derived from sample counts, not from speculative execution).
    pub sample_batches: Counter,
    /// `aconf()` estimates in this statement that a governor deadline
    /// cut early (degraded: partial seeded mean, achieved stderr).
    pub degraded_conf: Counter,
    /// Rows in the statement's result.
    pub rows_returned: Counter,
    /// Vector-kernel batches evaluated outside any pipeline (sort keys,
    /// DML items, `tconf()` items) and, of those, the batches redone row
    /// by row ([`QueryStats::record_kernels`]).
    kernel_batches: Counter,
    /// See `kernel_batches`.
    kernel_fallbacks: Counter,
    /// Worst observed relative standard error at estimator stop, as f64
    /// bits (positive floats order like their bit patterns, so
    /// `fetch_max` on bits is max on values).
    max_rel_stderr_bits: AtomicU64,
    /// Tightest `(ε, δ)` any `aconf` of the statement asked for
    /// (component-wise minimum).
    requested: Mutex<Option<(f64, f64)>>,
    /// Root span id of the statement's trace tree (0 when tracing was
    /// off) — links the slow-query log and tests to [`trace`] records.
    root_span: AtomicU64,
}

impl QueryStats {
    /// A fresh, empty collector.
    pub fn new() -> QueryStats {
        QueryStats::default()
    }

    /// Record a breaker that turned `rows_in` rows into `rows_out`.
    pub fn record_breaker(&self, what: String, rows_in: usize, rows_out: usize) {
        self.steps
            .lock()
            .expect("step registry poisoned")
            .push(Step::Breaker(what, rows_in, rows_out));
    }

    /// Rename the most recent pipeline — for one whose role its own
    /// output decides (the adaptive side of a hash join).
    pub fn relabel_last_pipeline(&self, label: &str) {
        let mut steps = self.steps.lock().expect("step registry poisoned");
        if let Some(Step::Pipeline(l, _)) = steps
            .iter_mut()
            .rev()
            .find(|s| matches!(s, Step::Pipeline(..)))
        {
            *l = label.to_string();
        }
    }

    /// The executed pipelines and breakers, in execution order.
    pub fn steps(&self) -> Vec<Step> {
        self.steps.lock().expect("step registry poisoned").clone()
    }

    /// The registered pipelines, in execution order.
    pub fn pipelines(&self) -> Vec<std::sync::Arc<PipelineStats>> {
        let pipeline = |s| {
            if let Step::Pipeline(_, p) = s {
                Some(p)
            } else {
                None
            }
        };
        self.steps().into_iter().filter_map(pipeline).collect()
    }

    /// Number of pipelines executed.
    pub fn pipeline_count(&self) -> usize {
        self.pipelines().len()
    }

    /// Record vector-kernel work done outside any pipeline: `batches`
    /// evaluated and, of those, `fallbacks` redone row by row. The one
    /// write of those counts, to this record and to the registry.
    pub fn record_kernels(&self, batches: u64, fallbacks: u64) {
        self.kernel_batches.add(batches);
        self.kernel_fallbacks.add(fallbacks);
        let m = metrics();
        m.vector_batches.add(batches);
        m.scalar_fallbacks.add(fallbacks);
    }

    /// Vector-kernel batches this statement evaluated, in its pipelines
    /// and outside them.
    pub fn vector_batches(&self) -> u64 {
        let piped: u64 = self
            .pipelines()
            .iter()
            .map(|p| p.vector_batches.get())
            .sum();
        piped + self.kernel_batches.get()
    }

    /// Of [`QueryStats::vector_batches`], the batches redone row by row.
    pub fn scalar_fallbacks(&self) -> u64 {
        let piped: u64 = self
            .pipelines()
            .iter()
            .map(|p| p.scalar_fallbacks.get())
            .sum();
        piped + self.kernel_fallbacks.get()
    }

    /// Record one estimator run's relative standard error at stop.
    pub fn record_rel_stderr(&self, rse: f64) {
        if rse.is_finite() && rse > 0.0 {
            self.max_rel_stderr_bits
                .fetch_max(rse.to_bits(), Ordering::Relaxed);
        }
    }

    /// Worst relative standard error across estimator runs (0.0 if no
    /// approximate computation ran).
    pub fn max_rel_stderr(&self) -> f64 {
        f64::from_bits(self.max_rel_stderr_bits.load(Ordering::Relaxed))
    }

    /// Record the `(ε, δ)` one `aconf` call asked for.
    pub fn record_requested(&self, epsilon: f64, delta: f64) {
        let mut r = self.requested.lock().expect("requested (ε, δ) poisoned");
        *r = Some(r.map_or((epsilon, delta), |(e, d)| (e.min(epsilon), d.min(delta))));
    }

    /// The tightest requested `(ε, δ)` — what [`QueryStats::max_rel_stderr`]
    /// is to be read against — or `None` if no `aconf` ran.
    pub fn requested(&self) -> Option<(f64, f64)> {
        *self.requested.lock().expect("requested (ε, δ) poisoned")
    }

    /// Link this query to its statement-root trace span.
    pub fn set_root_span(&self, id: u64) {
        self.root_span.store(id, Ordering::Relaxed);
    }

    /// The statement-root trace span id, or `None` if tracing was off.
    pub fn root_span(&self) -> Option<u64> {
        match self.root_span.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }

    /// One-line summary for the slow-query log and the shell timing line.
    pub fn summary(&self) -> String {
        let pipelines = self.pipelines();
        let (morsels, rows_out) = pipelines.iter().fold((0, 0), |(m, r), p| {
            (m + p.morsels.get(), r + p.rows_out.get())
        });
        let mut s = format!(
            "{} pipeline(s), {morsels} morsel(s), {rows_out} pipeline-output row(s)",
            pipelines.len()
        );
        if self.conf_calls.get() > 0 {
            s.push_str(&format!(
                ", {} conf call(s): {} d-tree node(s), {} sample(s)",
                self.conf_calls.get(),
                self.dtree_nodes.get(),
                self.samples.get()
            ));
        }
        let fallbacks = self.scalar_fallbacks();
        if fallbacks > 0 {
            s.push_str(&format!(", {fallbacks} scalar fallback(s)"));
        }
        s
    }
}

// ---------------------------------------------------------------------
// Slow-query log threshold
// ---------------------------------------------------------------------

/// Sentinel for "slow-query log disabled".
const SLOW_OFF: u64 = u64::MAX;

static SLOW_MS: AtomicU64 = AtomicU64::new(SLOW_OFF);
static SLOW_INIT: std::sync::Once = std::sync::Once::new();

/// The slow-query threshold in milliseconds, if logging is enabled.
/// Initialised once from `MAYBMS_SLOW_MS` (0 logs every statement);
/// overridable at runtime with [`set_slow_log_threshold`] (`\slowlog`).
pub fn slow_log_threshold_ms() -> Option<u64> {
    SLOW_INIT.call_once(|| {
        if let Ok(v) = std::env::var("MAYBMS_SLOW_MS") {
            if let Ok(ms) = v.trim().parse::<u64>() {
                SLOW_MS.store(ms.min(SLOW_OFF - 1), Ordering::Relaxed);
            }
        }
    });
    match SLOW_MS.load(Ordering::Relaxed) {
        SLOW_OFF => None,
        ms => Some(ms),
    }
}

/// Set (or, with `None`, disable) the slow-query threshold.
pub fn set_slow_log_threshold(ms: Option<u64>) {
    // Make sure the env read cannot overwrite an explicit setting later.
    SLOW_INIT.call_once(|| {});
    SLOW_MS.store(
        ms.map_or(SLOW_OFF, |m| m.min(SLOW_OFF - 1)),
        Ordering::Relaxed,
    );
}

static SLOW_LOG_FILE: OnceLock<Option<Mutex<std::fs::File>>> = OnceLock::new();

/// Append one structured record (a complete JSON line, no trailing
/// newline) to the `MAYBMS_SLOW_LOG_FILE` JSONL log. No-op unless the
/// environment variable names a writable path (checked once).
pub fn slow_log_write(line: &str) {
    let file = SLOW_LOG_FILE.get_or_init(|| {
        let path = std::env::var("MAYBMS_SLOW_LOG_FILE").ok()?;
        let path = path.trim();
        if path.is_empty() {
            return None;
        }
        match std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(Mutex::new(f)),
            Err(e) => {
                eprintln!("maybms: cannot open MAYBMS_SLOW_LOG_FILE {path:?}: {e}");
                None
            }
        }
    });
    if let Some(f) = file.as_ref() {
        use std::io::Write as _;
        let mut f = f.lock().expect("slow log file poisoned");
        let _ = f.write_all(line.as_bytes());
        let _ = f.write_all(b"\n");
        let _ = f.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        static BOUNDS: &[u64] = &[1_000, 10_000, 100_000];
        let h = Histogram::new(BOUNDS);
        h.observe_nanos(500); // bucket 0
        h.observe_nanos(1_000); // le bound is inclusive -> bucket 0
        h.observe_nanos(5_000); // bucket 1
        h.observe_nanos(1_000_000); // +Inf
        assert_eq!(h.count(), 4);
        let mut out = String::new();
        h.render(&mut out, "t", "");
        assert!(out.contains("t_bucket{le=\"0.000001\"} 2"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.00001\"} 3"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0001\"} 3"), "{out}");
        assert!(out.contains("t_bucket{le=\"+Inf\"} 4"), "{out}");
        assert!(out.contains("t_count 4"), "{out}");
    }

    #[test]
    fn registry_renders_prometheus_text() {
        metrics().wal_appends.inc();
        metrics()
            .wal_fsync_seconds
            .observe(Duration::from_micros(120));
        let text = render_prometheus();
        assert!(
            text.contains("# TYPE maybms_store_wal_appends_total counter"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE maybms_store_wal_fsync_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("maybms_store_wal_fsync_seconds_bucket{le=\"+Inf\"}"),
            "{text}"
        );
        assert!(text.contains("maybms_pipe_morsels_total"), "{text}");
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        static BOUNDS: &[u64] = &[1_000, 10_000, 100_000];
        let h = Histogram::new(BOUNDS);
        assert_eq!((h.quantile(0.5), h.mean()), (None, None));
        for _ in 0..10 {
            h.observe_nanos(500); // bucket 0: (0, 1µs]
        }
        // p50 = rank 5 of 10, all in bucket 0 → 0 + 1000·(5/10).
        assert_eq!(h.quantile(0.5), Some(0.0000005));
        assert_eq!(h.quantile(1.0), Some(0.000001));
        assert_eq!(h.mean(), Some(0.0000005));
        // Overflow observations cap at the last finite bound.
        h.observe_nanos(10_000_000);
        assert_eq!(h.quantile(1.0), Some(0.0001));
    }

    #[test]
    fn statement_latency_is_one_kind_labelled_family() {
        metrics()
            .query_seconds(StatementKind::Conf)
            .observe(Duration::from_micros(80));
        let text = render_prometheus();
        assert_eq!(
            text.matches("# TYPE maybms_query_seconds histogram")
                .count(),
            1,
            "{text}"
        );
        for kind in StatementKind::ALL {
            let k = kind.label();
            assert!(
                text.contains(&format!(
                    "maybms_query_seconds_bucket{{kind=\"{k}\",le=\"+Inf\"}}"
                )),
                "{text}"
            );
            assert!(
                text.contains(&format!("maybms_query_seconds_count{{kind=\"{k}\"}}")),
                "{text}"
            );
        }
        assert!(!text.contains("maybms_query_seconds_count "), "{text}");
        let report = latency_report();
        let conf = report
            .lines()
            .find(|l| l.starts_with("conf"))
            .expect("a conf row");
        assert!(!conf.contains(" - "), "{report}");
    }

    #[test]
    fn a_finished_pipeline_is_one_record_in_every_view() {
        let qs = QueryStats::new();
        let p = PipelineStats::new(
            "3 stored rows",
            vec!["filter x > 1".into(), "project [x]".into()],
        );
        p.flush_morsel(5, &[(5, 4), (4, 4)], 2, 1);
        p.flush_morsel(1, &[(1, 1), (1, 1)], 2, 0);
        p.stages[1].build_rows.add(7);
        let before = (metrics().pipelines.get(), metrics().rows_in.get());
        let mut span = trace::span("pipeline");
        p.finish(&mut span, (&qs, "output"));
        // Other tests share the registry: it moved by at least this run.
        assert!(metrics().pipelines.get() > before.0);
        assert!(metrics().rows_in.get() >= before.1 + 6);
        let [Step::Pipeline(label, p)] = &qs.steps()[..] else {
            panic!("one pipeline step")
        };
        assert_eq!(label, "output");
        assert_eq!(
            (p.morsels.get(), p.rows_in.get(), p.rows_out.get()),
            (2, 6, 5)
        );
        assert_eq!(
            (p.stages[0].rows_in.get(), p.stages[0].rows_out.get()),
            (6, 5)
        );
        assert_eq!((p.join_build_rows(), p.vector_batches.get()), (7, 4));
        assert_eq!(qs.scalar_fallbacks(), 1);
        qs.relabel_last_pipeline("hash-join probe side");
        assert!(matches!(&qs.steps()[0], Step::Pipeline(l, _) if l == "hash-join probe side"));
        qs.record_rel_stderr(0.02);
        qs.record_rel_stderr(0.01);
        assert_eq!(qs.max_rel_stderr(), 0.02);
        let s = qs.summary();
        assert!(
            s.contains("1 pipeline(s), 2 morsel(s), 5 pipeline-output row(s)"),
            "{s}"
        );
        assert!(s.contains("1 scalar fallback(s)"), "{s}");
    }

    #[test]
    fn slow_log_threshold_settable() {
        set_slow_log_threshold(Some(12));
        assert_eq!(slow_log_threshold_ms(), Some(12));
        set_slow_log_threshold(None);
        assert_eq!(slow_log_threshold_ms(), None);
    }
}
