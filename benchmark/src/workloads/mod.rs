//! The four workloads: what each ingests, its statement classes and their
//! mix, and the generator that draws one statement of a class together with
//! the answer it must produce.

mod analytic;
mod oltp;
mod walk;

use crate::answer::Expect;

pub use analytic::Analytic;
pub use oltp::Oltp;
pub use walk::Walk;

/// One statement class of a workload.
#[derive(Debug)]
pub struct Class {
    /// Name, as in `core.class.<name>.p50_ms`.
    pub name: &'static str,
    /// Statements of this class in one round. The mixes are chosen so that
    /// the median and the 95th percentile of a round's latencies each fall
    /// inside one class's cluster, not in the gap between two.
    pub per_round: usize,
    /// `INSERT`/`UPDATE`/`DELETE`/`CREATE TABLE AS`.
    pub write: bool,
}

const fn read(name: &'static str, per_round: usize) -> Class {
    Class {
        name,
        per_round,
        write: false,
    }
}

const fn write(name: &'static str, per_round: usize) -> Class {
    Class {
        name,
        per_round,
        write: true,
    }
}

/// A workload: its name, the reason it exists, and its classes.
#[derive(Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layer it loads and which it leaves idle.
    pub why: &'static str,
    /// Statement classes.
    pub classes: &'static [Class],
}

impl Spec {
    /// Statements in one round.
    pub fn statements_per_round(&self) -> usize {
        self.classes.iter().map(|c| c.per_round).sum()
    }
}

/// Every workload, in the order they are reported.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "analytic_certain",
        why: "t-certain scan/join/group-by over 100k rows: pipe and engine do the work, conf and store none, so a lineage cache must show no change here",
        classes: &[
            read("scan_filter", 3),
            read("sort_limit", 2),
            read("distinct_text", 2),
            read("group_text", 2),
            read("join_dim_group", 2),
            read("join_fact_selective", 1),
        ],
    },
    Spec {
        name: "conf_exact",
        why: "Figure 1 random walk over 2000 players plus tuple-independent pick tuples: exact conf() (d-tree, SPROUT) dominates, sampling and store are idle",
        classes: &[
            read("tconf_scan", 1),
            read("possible_join", 1),
            read("indep_conf", 2),
            read("repair_inline", 1),
            read("walk2_conf", 4),
            read("walk3_ecount", 1),
            read("walk3_conf", 2),
            read("walk3_state_conf", 5),
        ],
    },
    Spec {
        name: "conf_approx",
        why: "the same walk lineage through aconf(): Karp-Luby/DKLR sampling dominates and the d-tree is idle, so per-sample work shows here and a circuit cache does not",
        classes: &[
            read("walk3_state_aconf", 3),
            read("walk3_aconf_e10", 3),
            read("walk3_aconf_e05", 2),
        ],
    },
    Spec {
        name: "oltp_durable",
        why: "60% point/range/conf reads and 40% fsynced writes on a 50k-row durable table: store and per-statement sql/core overhead dominate, layouts that tax writes show here",
        classes: &[
            read("small_conf", 3),
            read("point_read", 5),
            read("range_read", 4),
            write("ctas_repair", 2),
            write("insert_batch", 4),
            write("update_range", 1),
            write("delete_range", 1),
        ],
    },
];

/// The spec named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One generated statement.
#[derive(Debug)]
pub struct Stmt {
    /// A statement the client issues first, outside the clock and the
    /// counts (`ctas_repair` recycles four table names and drops the old
    /// holder of the name here).
    pub prelude: Option<String>,
    /// The SQL text handed to `MayBms::run`.
    pub sql: String,
    /// What it must produce.
    pub expect: Expect,
    /// Bytes of user data the statement writes (0 for reads).
    pub user_bytes: u64,
}

impl Stmt {
    /// A statement that writes nothing.
    pub fn read(sql: String, expect: Expect) -> Stmt {
        Stmt {
            prelude: None,
            sql,
            expect,
            user_bytes: 0,
        }
    }
}

/// A workload's generator: the seeded data, the parameter stream, and (for
/// `oltp_durable`) the shadow model the writes are applied to.
pub trait Workload {
    /// DDL, `INSERT` batches and `CREATE TABLE AS` statements of set-up.
    fn setup_sql(&self) -> Vec<String>;
    /// Bytes of user data the `INSERT`s of set-up carry.
    fn ingested_bytes(&self) -> u64;
    /// Draw the next statement of the class named `class`.
    fn next(&mut self, class: &str) -> Stmt;
    /// Queries to run after the final re-open, with their answers: every
    /// acknowledged write must still be there.
    fn final_checks(&self) -> Vec<(String, Expect)> {
        Vec::new()
    }
}

/// Streams of [`crate::rng::Rng::new`], one per purpose.
pub(crate) mod stream {
    pub const DATA: u64 = 1;
    pub const PARAMS: u64 = 2;
}

/// `full / divisor`, at least `min` (`--quick` divides by 20).
pub(crate) fn scaled(full: usize, divisor: usize, min: usize) -> usize {
    (full / divisor).max(min)
}

/// The generator of `spec` at `seed`; `divisor` shrinks tables and windows.
pub fn build(spec: &Spec, seed: u64, divisor: usize) -> Box<dyn Workload> {
    match spec.name {
        "analytic_certain" => Box::new(Analytic::new(seed, divisor)),
        "conf_exact" => Box::new(Walk::new(seed, divisor, false)),
        "conf_approx" => Box::new(Walk::new(seed, divisor, true)),
        "oltp_durable" => Box::new(Oltp::new(seed, divisor)),
        other => unreachable!("no generator for workload {other}"),
    }
}

/// The class of every statement of one round: each class spread evenly
/// over the round, the same for every round, pass and seed. The order is
/// not seeded because it decides which reads directly follow a write (and
/// pay for the row view the write invalidated), and that must not differ
/// between seeds.
pub fn round_order(spec: &Spec) -> Vec<usize> {
    let mut slots: Vec<(f64, usize)> = spec
        .classes
        .iter()
        .enumerate()
        .flat_map(|(i, c)| {
            (0..c.per_round).map(move |k| ((k as f64 + 0.5) / c.per_round as f64, i))
        })
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, class)| class).collect()
}
