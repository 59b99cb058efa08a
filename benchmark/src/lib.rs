//! MayBMS's benchmark: SQL text in, rows with `conf()` out, through
//! `MayBms::open` + `MayBms::run` on a real directory, one closed-loop
//! client, four workloads, every answer checked, every layer attributed.
//! `README.md` beside this crate says what is measured and why.

#![warn(missing_docs)]

pub mod answer;
pub mod compare;
pub mod data;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;

#[cfg(test)]
mod negative_tests;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use harness::Config;
use report::Report;
use workloads::{Spec, SPECS};

/// Variables that change what the program does. A run with any of them set
/// would not measure the default configuration, so it is refused.
pub const PINNED_ENV: [&str; 9] = [
    "MAYBMS_COLUMNAR",
    "MAYBMS_COLUMNAR_STORE",
    "MAYBMS_THREADS",
    "MAYBMS_TRACE",
    "MAYBMS_TRACE_FILE",
    "MAYBMS_SLOW_MS",
    "MAYBMS_STATEMENT_TIMEOUT_MS",
    "MAYBMS_MEM_BUDGET_MB",
    "MAYBMS_STORE_FAULT_EVERY",
];

/// The first pinned variable that is set, if any.
pub fn pinned_env_violation() -> Option<&'static str> {
    PINNED_ENV
        .into_iter()
        .find(|v| std::env::var_os(v).is_some())
}

/// `benchmark/out`: every file a run writes is below it.
pub fn out_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// `--quick`: 1/20 of the rows and windows.
    pub quick: bool,
    /// Seconds a measured pass runs.
    pub seconds: f64,
}

impl Size {
    /// Full tables, `seconds` per measured pass.
    pub fn full(seconds: f64) -> Size {
        Size {
            quick: false,
            seconds,
        }
    }

    /// `--quick`: every pass is just its counted prefix.
    pub fn quick() -> Size {
        Size {
            quick: true,
            seconds: 0.0,
        }
    }
}

/// Which of the two reports of a workload to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tracing off; set-up five times; the end-to-end metrics.
    EndToEnd,
    /// Plain, traced and one-thread passes plus probes; the per-layer metrics.
    PerLayer,
}

/// Run one workload once. The data directory is private to this call and is
/// removed when the run succeeds; when it fails the path is in the error.
pub fn run(spec: &'static Spec, seed: u64, size: Size, kind: Kind) -> Result<Report, String> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let out_dir = out_root().join(format!(
        "run-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let cfg = Config {
        seed,
        seconds: size.seconds,
        divisor: if size.quick { 20 } else { 1 },
        setups: if kind == Kind::EndToEnd && !size.quick {
            5
        } else {
            1
        },
        out_dir: out_dir.clone(),
    };
    let report = match kind {
        Kind::EndToEnd => report::end_to_end(spec, &cfg),
        Kind::PerLayer => report::per_layer(
            spec,
            &cfg,
            &out_root().join(format!("trace-{}.json", spec.name)),
        ),
    };
    match report {
        Ok(r) => {
            std::fs::remove_dir_all(&out_dir)
                .map_err(|e| format!("remove {}: {e}", out_dir.display()))?;
            Ok(r)
        }
        Err(e) => Err(format!("{e} (data directory kept: {})", out_dir.display())),
    }
}

/// Where and on what the numbers were taken: they are this sandbox's, not a
/// device's.
#[derive(Debug, Clone)]
pub struct Env {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Engine threads, `min(nproc, 4)`.
    pub threads: usize,
    /// Where the data directories live.
    pub data_dir: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Env {
    /// Look around.
    pub fn capture() -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: report::engine_threads(),
            data_dir: out_root().display().to_string(),
            git_commit: command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
            rustc: command_line("rustc", &["-V"]),
        }
    }

    /// One line for the log.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "env: nproc={} engine_threads={} data_dir={} seed={seed} git_commit={} rustc={:?}",
            self.nproc, self.threads, self.data_dir, self.git_commit, self.rustc
        )
    }
}

/// Every workload, both reports each: what the one command prints.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The seed.
    pub seed: u64,
    /// The size.
    pub size: Size,
    /// Per workload: the end-to-end report, then the per-layer report.
    pub workloads: Vec<(Report, Report)>,
}

/// Run all four workloads.
pub fn run_suite(seed: u64, size: Size) -> Result<Suite, String> {
    let mut workloads = Vec::new();
    for spec in SPECS.iter() {
        workloads.push((
            run(spec, seed, size, Kind::EndToEnd)?,
            run(spec, seed, size, Kind::PerLayer)?,
        ));
    }
    Ok(Suite {
        seed,
        size,
        workloads,
    })
}

fn metrics_json(report: &Report) -> String {
    let members: Vec<String> = report
        .metrics
        .iter()
        .map(|(d, v)| {
            assert!(v.is_finite(), "{} is not a finite number", d.name);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quoted(&d.name),
                json::quoted(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The one-line result of a single run, as the driver reads it.
pub fn driver_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(report)
    )
}

impl Suite {
    /// The `--out` document `--compare` reads.
    pub fn json(&self, env: &Env) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(e2e, layers)| {
                format!(
                    "    {}: {{\"result_digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"samples\": {},\n      \
                     \"end_to_end\": {},\n      \"per_layer\": {}}}",
                    json::quoted(e2e.workload),
                    e2e.digest,
                    e2e.attempted + layers.attempted,
                    e2e.failed + layers.failed,
                    e2e.samples,
                    metrics_json(e2e),
                    metrics_json(layers)
                )
            })
            .collect();
        format!(
            "{{\n  \"quick\": {}, \"seed\": {}, \"seconds\": {},\n  \"env\": {{\"nproc\": {}, \"engine_threads\": {}, \
             \"data_dir\": {}, \"git_commit\": {}, \"rustc\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            self.size.quick,
            self.seed,
            self.size.seconds,
            env.nproc,
            env.threads,
            json::quoted(&env.data_dir),
            json::quoted(&env.git_commit),
            json::quoted(&env.rustc),
            workloads.join(",\n")
        )
    }

    /// Every metric by name with its unit, one row per workload and metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (e2e, layers) in &self.workloads {
            out.push_str(&format!(
                "\n== {} ==  result_digest {:016x}  fail_ratio {}/{}  latency samples {}\n",
                e2e.workload,
                e2e.digest,
                e2e.failed + layers.failed,
                e2e.attempted + layers.attempted,
                e2e.samples
            ));
            for (kind, report) in [("end_to_end", e2e), ("per_layer", layers)] {
                for (d, v) in &report.metrics {
                    // A class another workload owns, or a write latency on
                    // a read-only workload, has no samples here.
                    let absent = *v == 0.0
                        && (d.name.starts_with("core.class.") || d.name.starts_with("write_"));
                    if !absent {
                        out.push_str(&format!(
                            "{:<18} {kind:<10} {:<36} {v:>16.6} {}\n",
                            e2e.workload, d.name, d.unit
                        ));
                    }
                }
            }
        }
        out
    }
}
