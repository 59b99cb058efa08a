//! Set-up and passes: one closed-loop client driving `MayBms::run` on a
//! real directory, timing each statement and checking each answer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use maybms_core::{MayBms, QueryOutput, StatementResult};
use maybms_obs::trace::{self, SpanRecord};

use crate::answer::{check, Digest, Expect, Outcome};
use crate::spans::{attr_is, attr_u64, Attribution};
use crate::workloads::{build, round_order, Spec, Workload};

/// Rounds at the start of every pass over which counts and the result
/// digest are taken, so that they repeat exactly however long the pass then
/// runs. On `oltp_durable` the prefix holds exactly one checkpoint.
pub const COUNTED_ROUNDS: usize = 13;
/// Write statements between two `MayBms::checkpoint()` calls: 12 whole
/// rounds of 8 writes, so every checkpoint cycle logs the same mix.
pub const WRITES_PER_CHECKPOINT: usize = 96;
/// Seconds between two timed `MayBms::open` calls on an untouched copy of
/// the checkpointed directory, once the counted prefix is over
/// (`recovery_s` is their median). They are spread over the pass because
/// this sandbox alternates between a fast and a slower mode every few
/// seconds, and a burst of opens lands in one of them.
pub const OPEN_INTERVAL_S: f64 = 1.0;
/// Spans kept for the Chrome trace file (the first statements of the pass).
const TRACE_FILE_SPANS: usize = 50_000;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of data, parameters and statement order.
    pub seed: u64,
    /// Seconds the measured pass runs (it always finishes the counted
    /// prefix and the round it is in).
    pub seconds: f64,
    /// 1 at full size, 20 with `--quick`.
    pub divisor: usize,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Directory the data directories of this run live in.
    pub out_dir: PathBuf,
}

/// What set-up cost and left on disk.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    /// Wall seconds from creating the directory to closing the database.
    pub seconds: f64,
    /// WAL bytes just before the closing checkpoint (its peak).
    pub wal_peak_bytes: u64,
    /// Size of the snapshot the checkpoint wrote.
    pub snapshot_bytes: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn wal_bytes(db: &MayBms) -> u64 {
    db.durability_status().map_or(0, |s| s.wal_bytes)
}

/// Create `dir` and ingest the workload through SQL, checkpoint, close.
pub fn set_up(workload: &dyn Workload, dir: &Path) -> Result<SetUp, String> {
    let _ = std::fs::remove_dir_all(dir);
    let statements = workload.setup_sql();
    let t0 = Instant::now();
    let mut db = MayBms::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    for sql in &statements {
        db.run(sql)
            .map_err(|e| format!("set-up statement failed: {e}: {:.80}", sql))?;
    }
    let wal_peak_bytes = wal_bytes(&db);
    db.checkpoint()
        .map_err(|e| format!("set-up checkpoint: {e}"))?;
    drop(db);
    let seconds = t0.elapsed().as_secs_f64();
    Ok(SetUp {
        seconds,
        wal_peak_bytes,
        snapshot_bytes: file_len(&dir.join(maybms_store::snapshot::SNAPSHOT_FILE)),
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// A per-layer metric name and how to read its counter.
type Counter = (&'static str, fn(&maybms_obs::Metrics) -> u64);

/// The counters of the process-wide registry the per-layer metrics read.
const COUNTERS: &[Counter] = &[
    ("pipe.pipelines", |m| m.pipelines.get()),
    ("pipe.morsels", |m| m.morsels.get()),
    ("pipe.rows_in", |m| m.rows_in.get()),
    ("pipe.rows_out", |m| m.rows_out.get()),
    ("pipe.join_build_rows", |m| m.join_build_rows.get()),
    ("pipe.groups", |m| m.groups.get()),
    ("engine.vector_batches", |m| m.vector_batches.get()),
    ("engine.scalar_fallbacks", |m| m.scalar_fallbacks.get()),
    ("engine.pivots", |m| m.pivots.get()),
    ("engine.pivot_rows", |m| m.pivot_rows.get()),
    ("conf.dnf_clauses", |m| m.dnf_clauses.get()),
    ("conf.dtree_nodes", |m| m.dtree_nodes.get()),
    ("conf.mc_samples", |m| m.mc_samples.get()),
    ("conf.mc_batches", |m| m.mc_batches.get()),
    ("conf.degraded", |m| m.gov_degraded_conf.get()),
    ("store.wal_appends", |m| m.wal_appends.get()),
    ("store.checkpoints", |m| m.checkpoints.get()),
    ("store.retries", |m| m.store_retries.get()),
    ("par.tasks", |m| m.par_tasks.get()),
    ("gov.aborts", |m| {
        m.gov_cancelled.get() + m.gov_deadline.get() + m.gov_mem_rejected.get()
    }),
    ("gov.panics", |m| m.gov_panics.get()),
];

fn counters() -> Vec<u64> {
    let m = maybms_obs::metrics();
    COUNTERS.iter().map(|(_, read)| read(m)).collect()
}

/// What the traced pass harvested from the program's own spans.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    /// Self time, busy time and durations per span label, whole pass.
    pub attribution: Attribution,
    /// `conf` spans that took the SPROUT fast path.
    pub sprout_calls: u64,
    /// Busy nanoseconds of exact and of approximate `conf` spans.
    pub exact_nanos: u64,
    /// See `exact_nanos`.
    pub approx_nanos: u64,
    /// d-tree nodes and samples those spans report (whole pass, the
    /// denominators of `ns_per_dtree_node` and `ns_per_sample`).
    pub dtree_nodes: u64,
    /// See `dtree_nodes`.
    pub samples: u64,
    /// Bytes of the WAL frames appended.
    pub wal_bytes: u64,
    /// The first spans of the pass, for the Chrome trace file.
    pub first_spans: Vec<SpanRecord>,
}

impl Traced {
    fn add_tree(&mut self, spans: &[SpanRecord]) {
        self.attribution.add_tree(spans);
        for s in spans {
            match s.label {
                "conf" if attr_is(s, "method", "sprout") => self.sprout_calls += 1,
                "conf" if attr_is(s, "method", "approx") => {
                    self.approx_nanos += s.dur_nanos;
                    self.samples += attr_u64(s, "samples").unwrap_or(0);
                }
                "conf" => {
                    self.exact_nanos += s.dur_nanos;
                    self.dtree_nodes += attr_u64(s, "dtree_nodes").unwrap_or(0);
                }
                "wal_append" => self.wal_bytes += attr_u64(s, "bytes").unwrap_or(0),
                _ => {}
            }
        }
        if self.first_spans.len() < TRACE_FILE_SPANS {
            self.first_spans.extend_from_slice(spans);
        }
    }

    /// Harvest the tree of the statement (or, with no root given, of the
    /// checkpoint) that just finished, then empty the ring: one `walk3_conf` emits ~800 spans and
    /// the ring holds 16 384.
    fn harvest(&mut self, root: Option<u64>) {
        if let Some(root) = root.or_else(|| trace::recent_roots(1).pop()) {
            self.add_tree(&trace::spans_for_root(root));
        }
        trace::clear();
    }
}

/// The first checkpoint cycle of a writing pass, for
/// `disk_bytes_per_user_byte`.
#[derive(Debug, Clone, Copy)]
pub struct FirstCycle {
    /// WAL bytes just before the checkpoint.
    pub wal_peak_bytes: u64,
    /// Snapshot bytes just after it.
    pub snapshot_bytes: u64,
    /// User bytes the write statements before it carried.
    pub user_bytes: u64,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds of each `MayBms::open` on a checkpointed directory.
    pub opens_s: Vec<f64>,
    /// `(class, milliseconds)` of every measured statement, in order.
    pub latencies: Vec<(usize, f64)>,
    /// Per round: seconds inside `MayBms::run` and `MayBms::checkpoint`.
    pub round_busy_s: Vec<f64>,
    /// Milliseconds of each checkpoint.
    pub checkpoints_ms: Vec<f64>,
    /// Statements (and checkpoints, and final checks) issued.
    pub attempted: u64,
    /// Those that errored or answered wrongly.
    pub failed: u64,
    /// Digest of the answers of the counted prefix.
    pub digest: Digest,
    /// Counts over the counted prefix, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// User bytes the write statements of the counted prefix carried.
    pub counted_user_bytes: u64,
    /// Spans the counted prefix emitted, on a traced pass.
    pub counted_spans: u64,
    /// Bytes of every SQL text of the counted prefix.
    pub sql_bytes: Vec<f64>,
    /// First checkpoint cycle, if the workload writes.
    pub first_cycle: Option<FirstCycle>,
    /// Milliseconds of the final re-open on the un-checkpointed end state
    /// and the WAL records it replayed.
    pub tail_replay: Option<(f64, u64)>,
    /// Span harvest, on a traced pass.
    pub traced: Option<Traced>,
}

impl Pass {
    /// Count one answer, and show the first few wrong ones.
    fn judge(&mut self, sql: &str, expect: &Expect, outcome: &Outcome) {
        self.attempted += 1;
        if !check(expect, outcome) {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!(
                    "wrong answer to: {sql:.200}\n  expected {:.300}\n  got      {:.300}",
                    format!("{expect:?}"),
                    format!("{outcome:?}")
                );
            }
        }
    }

    /// `MayBms::checkpoint()`, timed and counted like a statement; returns
    /// its milliseconds.
    fn checkpoint(&mut self, db: &mut MayBms, dir: &Path, user_bytes: u64) -> f64 {
        let wal_peak_bytes = wal_bytes(db);
        let t0 = Instant::now();
        let result = db.checkpoint();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.checkpoints_ms.push(ms);
        self.attempted += 1;
        self.failed += result.is_err() as u64;
        if let Some(t) = &mut self.traced {
            t.harvest(None);
        }
        self.first_cycle.get_or_insert(FirstCycle {
            wal_peak_bytes,
            snapshot_bytes: file_len(&dir.join(maybms_store::snapshot::SNAPSHOT_FILE)),
            user_bytes,
        });
        ms
    }
}

/// Run one statement; the row view is forced inside the clock because the
/// rows are the answer.
fn timed_run(db: &mut MayBms, sql: &str) -> (Outcome, f64) {
    let t0 = Instant::now();
    let result = db.run(sql);
    if let Ok(StatementResult::Query(QueryOutput::Certain(rel))) = &result {
        black_box(rel.tuples().len());
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (Outcome::of(result), ms)
}

/// One pass over a private copy of the set-up directory: open it, run every
/// class once untimed, then run whole rounds until `seconds` have passed and
/// the counted prefix is complete.
pub fn run_pass(
    spec: &Spec,
    cfg: &Config,
    base: &Path,
    seconds: f64,
    traced: bool,
) -> Result<Pass, String> {
    let (dir, probe) = (cfg.out_dir.join("pass"), cfg.out_dir.join("probe"));
    copy_dir(base, &dir)?;
    copy_dir(base, &probe)?;
    trace::set_enabled(traced);
    trace::clear();
    let mut pass = Pass {
        traced: traced.then(Traced::default),
        ..Pass::default()
    };

    let open = |pass: &mut Pass, dir: &Path| -> Result<MayBms, String> {
        let t0 = Instant::now();
        let db = MayBms::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        pass.opens_s.push(t0.elapsed().as_secs_f64());
        // Shares are of statement and checkpoint time; opens are reported
        // from the client's own clock (`recovery_s`, `store.open_p50_ms`).
        trace::clear();
        Ok(db)
    };
    let mut db = open(&mut pass, &dir)?;
    let mut last_open = Instant::now();

    let mut workload = build(spec, cfg.seed, cfg.divisor);
    let order = round_order(spec);
    // Lazy row views, dictionaries and the pool start up outside the clock.
    for class in spec.classes {
        let stmt = workload.next(class.name);
        if let Some(prelude) = &stmt.prelude {
            db.run(prelude).map_err(|e| format!("{prelude}: {e}"))?;
        }
        let (outcome, _) = timed_run(&mut db, &stmt.sql);
        pass.judge(&stmt.sql, &stmt.expect, &outcome);
    }
    trace::clear();

    let before = counters();
    let (mut rows_returned, mut conf_calls, mut max_rel_stderr) = (0u64, 0u64, 0f64);
    let (mut writes, mut user_bytes) = (0usize, 0u64);
    let clock = Instant::now();
    while pass.round_busy_s.len() < COUNTED_ROUNDS || clock.elapsed().as_secs_f64() < seconds {
        let counted = pass.round_busy_s.len() < COUNTED_ROUNDS;
        let mut busy_ms = 0.0;
        for &class in &order {
            let stmt = workload.next(spec.classes[class].name);
            if let Some(prelude) = &stmt.prelude {
                db.run(prelude).map_err(|e| format!("{prelude}: {e}"))?;
                trace::clear();
            }
            let (outcome, ms) = timed_run(&mut db, &stmt.sql);
            busy_ms += ms;
            pass.latencies.push((class, ms));
            let stats = db.last_stats().cloned();
            if let Some(t) = &mut pass.traced {
                t.harvest(stats.as_ref().and_then(|s| s.root_span()));
            }
            pass.judge(&stmt.sql, &stmt.expect, &outcome);
            if counted {
                pass.digest.add(&stmt.expect, &outcome);
                pass.sql_bytes.push(stmt.sql.len() as f64);
                if let Some(s) = &stats {
                    rows_returned += s.rows_returned.get();
                    conf_calls += s.conf_calls.get();
                    max_rel_stderr = max_rel_stderr.max(s.max_rel_stderr());
                }
            }
            user_bytes += stmt.user_bytes;
            if spec.classes[class].write {
                writes += 1;
                if writes % WRITES_PER_CHECKPOINT == 0 {
                    busy_ms += pass.checkpoint(&mut db, &dir, user_bytes);
                }
            }
        }
        pass.round_busy_s.push(busy_ms / 1e3);
        if !counted && last_open.elapsed().as_secs_f64() >= OPEN_INTERVAL_S {
            drop(open(&mut pass, &probe)?);
            last_open = Instant::now();
        }
        if pass.round_busy_s.len() == COUNTED_ROUNDS {
            let after = counters();
            for (i, (name, _)) in COUNTERS.iter().enumerate() {
                pass.counts.insert(name, (after[i] - before[i]) as f64);
            }
            pass.counts
                .insert("core.rows_returned", rows_returned as f64);
            pass.counts.insert("conf.calls", conf_calls as f64);
            pass.counts.insert("conf.max_rel_stderr", max_rel_stderr);
            pass.counted_user_bytes = user_bytes;
            if let Some(t) = &pass.traced {
                pass.counts
                    .insert("conf.sprout_calls", t.sprout_calls as f64);
                pass.counts.insert("store.wal_bytes", t.wal_bytes as f64);
                pass.counted_spans = t.attribution.spans;
            }
        }
    }

    // Acknowledged writes must survive dropping the database without a
    // checkpoint: re-open on the WAL tail and audit against the model.
    let audits = workload.final_checks();
    if !audits.is_empty() {
        drop(db);
        let t0 = Instant::now();
        db = MayBms::open(&dir).map_err(|e| format!("final open {}: {e}", dir.display()))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        pass.tail_replay = Some((ms, db.recovery_report().map_or(0, |r| r.replayed as u64)));
        for (sql, expect) in &audits {
            let (outcome, _) = timed_run(&mut db, sql);
            pass.judge(sql, expect, &outcome);
        }
    }
    drop(db);
    trace::set_enabled(false);
    trace::clear();
    for d in [&dir, &probe] {
        std::fs::remove_dir_all(d).map_err(|e| format!("remove {}: {e}", d.display()))?;
    }
    Ok(pass)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
