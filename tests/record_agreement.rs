//! One record of what ran: for every statement, the process-wide metrics
//! registry, the `pipeline` and `conf` trace spans and `last_stats()` are
//! copies of the same per-pipeline and per-call tallies, so they agree
//! exactly — at 1, 2 and 8 threads, for a join feeding `conf()`, a
//! stage-less scan, a stage-less GROUP BY a text key, a σ ⋈ γ pipeline
//! whose batch probe feeds the grouped breaker, a filter-only `UPDATE`
//! whose zone maps skip most of the table, an `UPDATE` whose one kernel
//! batch, its `SET` item, runs outside any pipeline, a `repair key` whose
//! weight and key batches run outside any pipeline too,
//! a predicate the vector kernels hand back to the scalar evaluator, and
//! one confidence statement per estimator that can answer it.
//!
//! The registry is process-wide, so this binary holds this one test and
//! nothing else moves the registry while it measures.

use maybms::MayBms;
use maybms_obs::trace::{self, AttrValue};
use maybms_obs::{Metrics, PipelineStats, QueryStats};

/// A per-pipeline count, read off the registry and off one record.
type View = (&'static str, fn(&Metrics) -> u64, fn(&PipelineStats) -> u64);

const VIEWS: [View; 6] = [
    ("pipelines", |m| m.pipelines.get(), |_| 1),
    ("morsels", |m| m.morsels.get(), |p| p.morsels.get()),
    ("rows_in", |m| m.rows_in.get(), |p| p.rows_in.get()),
    ("rows_out", |m| m.rows_out.get(), |p| p.rows_out.get()),
    (
        "join_build_rows",
        |m| m.join_build_rows.get(),
        |p| p.join_build_rows(),
    ),
    ("groups", |m| m.groups.get(), |p| p.groups.get()),
];

/// A statement-wide count: its registry counter and its `QueryStats`
/// total.
type Total = (&'static str, fn(&Metrics) -> u64, fn(&QueryStats) -> u64);

/// Vector-kernel batches, in the statement's pipelines and outside them
/// (sort keys, DML items, `tconf()` items).
const KERNEL_VIEWS: [Total; 2] = [
    (
        "vector_batches",
        |m| m.vector_batches.get(),
        |q| q.vector_batches(),
    ),
    (
        "scalar_fallbacks",
        |m| m.scalar_fallbacks.get(),
        |q| q.scalar_fallbacks(),
    ),
];

/// Per-call confidence counts, each also a `conf` span attribute.
const CONF_VIEWS: [Total; 4] = [
    (
        "dnf_clauses",
        |m| m.dnf_clauses.get(),
        |q| q.dnf_clauses.get(),
    ),
    (
        "dtree_nodes",
        |m| m.dtree_nodes.get(),
        |q| q.dtree_nodes.get(),
    ),
    ("samples", |m| m.mc_samples.get(), |q| q.samples.get()),
    (
        "batches",
        |m| m.mc_batches.get(),
        |q| q.sample_batches.get(),
    ),
];

fn registry() -> Vec<u64> {
    let m = maybms_obs::metrics();
    let pipe = VIEWS.iter().map(|(_, read, _)| read(m));
    let totals = KERNEL_VIEWS.iter().chain(&CONF_VIEWS);
    pipe.chain(totals.map(|(_, read, _)| read(m))).collect()
}

/// A case: its name, its SQL, and what makes it the case it stands for.
type Case = (&'static str, &'static str, fn(&QueryStats) -> bool);

/// Every confidence call of the statement was answered by one estimator.
fn all_by(qs: &QueryStats, answered: &maybms_obs::Counter) -> bool {
    qs.conf_calls.get() > 0 && answered.get() == qs.conf_calls.get()
}

const STATEMENTS: [Case; 11] = [
    (
        "join + group + conf over pick tuples: the d-tree",
        "select a.k, conf() as p from q a, q b where a.k = b.k group by a.k",
        // A stage-less build side, then the grouped probe pipeline.
        |qs| qs.pipeline_count() == 2 && all_by(qs, &qs.answered[1]),
    ),
    ("stage-less scan", "select k, tconf() as p from q", |qs| {
        qs.pipelines()
            .iter()
            .all(|p| p.stages.is_empty() && p.morsels.get() == 0)
    }),
    (
        "stage-less group by a text key",
        "select s, count(*) as n from t group by s",
        |qs| {
            qs.pipelines()
                .iter()
                .all(|p| p.stages.is_empty() && p.groups.get() == 37)
        },
    ),
    (
        "σ ⋈ γ: the batch probe into the grouped breaker",
        "select m.f, count(*) as n, avg(t.w) as a from t, m \
         where t.s = m.s and t.v > 20 group by m.f",
        // The scalar walk's counts, stage by stage: 79 of every 100 rows
        // pass the filter and each meets one dimension row of the 37 the
        // probe (the second stage) built.
        |qs| {
            let grouped = &qs.pipelines()[1];
            let stages: Vec<(u64, u64)> = grouped
                .stages
                .iter()
                .map(|s| (s.rows_in.get(), s.rows_out.get()))
                .collect();
            qs.pipeline_count() == 2
                && stages == [(3000, 2370), (2370, 2370)]
                && grouped.stages[1].build_rows.get() == 37
                && grouped.groups.get() == 5
        },
    ),
    (
        "filter-only update the zone maps prune",
        "update t set v = v + 1 where k < 100",
        // `rows_in` counts the rows read: the one zone k < 100 can match.
        |qs| {
            qs.pipelines().iter().all(|p| {
                p.rows_out.get() == 100 && p.rows_in.get() == 1024 && p.zones_read.get() == 1
            })
        },
    ),
    (
        "SET item: a kernel batch outside any pipeline",
        "update t set w = w * 2",
        |qs| qs.vector_batches() == 1 && qs.pipelines().iter().all(|p| p.vector_batches.get() == 0),
    ),
    (
        "repair key: its weight and key batches outside any pipeline",
        "select k, conf() as p from (repair key k in p weight by w) x group by k",
        |qs| {
            let piped: u64 = qs.pipelines().iter().map(|p| p.vector_batches.get()).sum();
            qs.vector_batches() == piped + 2 && all_by(qs, &qs.answered[1])
        },
    ),
    (
        "scalar fallback",
        "select k from t where k >= 0 or s > 1",
        |qs| qs.scalar_fallbacks() > 0,
    ),
    (
        "conf over independent groups: the product",
        "select k, conf() as p from q group by k",
        |qs| all_by(qs, &qs.answered[0]),
    ),
    (
        "aconf the d-tree certifies",
        "select a.k, aconf(0.1, 0.05) as p from q a, q b where a.k = b.k group by a.k",
        |qs| all_by(qs, &qs.answered[1]) && qs.aconf_exact.get() == qs.conf_calls.get(),
    ),
    (
        "aconf past the d-tree budget: the sampler",
        "select e.g, aconf(0.1, 0.05) as p from r x, e, r y \
         where x.k = e.a and e.b = y.k group by e.g",
        |qs| all_by(qs, &qs.answered[2]) && qs.samples.get() > 0,
    ),
];

fn database() -> MayBms {
    let mut db = MayBms::new();
    let rows: Vec<String> = (0..3000)
        .map(|i| format!("({i}, 's{}', {}, 0.5)", i % 37, i % 100))
        .collect();
    let picks: Vec<String> = (0..300).map(|i| format!("({}, 0.5)", i % 50)).collect();
    // Two groups of x_a ∧ x_b over random graphs of 150 edges on 30
    // tuples of probability 0.1: no d-tree certifies them within an aconf
    // budget.
    let side: Vec<String> = (0..30).map(|i| format!("({i}, 0.1)")).collect();
    let dims: Vec<String> = (0..37).map(|i| format!("('s{i}', {})", i % 5)).collect();
    let mut x: u64 = 5;
    let edges: Vec<String> = (0..300)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            format!("({}, {}, {})", i % 2, (x >> 33) % 30, (x >> 45) % 30)
        })
        .collect();
    db.run_script(&format!(
        "create table t (k bigint, s text, v bigint, w double precision);
         insert into t values {};
         create table p (k bigint, w double precision);
         insert into p values {};
         create table q as select * from (pick tuples from p with probability w) x;
         create table v (k bigint, w double precision);
         insert into v values {};
         create table r as select * from (pick tuples from v with probability w) x;
         create table e (g bigint, a bigint, b bigint);
         insert into e values {};
         create table m (s text, f bigint);
         insert into m values {};",
        rows.join(", "),
        picks.join(", "),
        side.join(", "),
        edges.join(", "),
        dims.join(", "),
    ))
    .unwrap();
    db
}

/// A span's attribute `key`, if the span carries it.
fn attr(span: &trace::SpanRecord, key: &str) -> Option<AttrValue> {
    span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

#[test]
fn registry_spans_and_stats_are_one_record() {
    let before_threads = maybms_par::current_threads();
    for threads in [1usize, 2, 8] {
        maybms_par::set_threads(threads);
        let mut db = database();
        for (case, sql, shape) in STATEMENTS {
            let at = format!("{case}, {threads} thread(s)");
            let before = registry();
            trace::set_enabled(true);
            db.run(sql).unwrap_or_else(|e| panic!("{at}: {e}"));
            trace::set_enabled(false);
            let delta: Vec<u64> = registry().iter().zip(&before).map(|(a, b)| a - b).collect();
            let (pipe, totals) = delta.split_at(VIEWS.len());
            let (kernels, conf_totals) = totals.split_at(KERNEL_VIEWS.len());
            let stats = db.last_stats().unwrap();
            assert!(
                shape(stats),
                "{at}: not the case it stands for: {:?}",
                stats.steps()
            );

            let pipelines = stats.pipelines();
            for (i, (name, _, count)) in VIEWS.iter().enumerate() {
                let sum: u64 = pipelines.iter().map(|p| count(p)).sum();
                assert_eq!(pipe[i], sum, "{at}: registry {name} vs last_stats()");
            }

            let root = stats.root_span().expect("tracing was on");
            let tree = trace::spans_for_root(root);
            let conf: Vec<_> = tree.iter().filter(|s| s.label == "conf").collect();
            assert_eq!(
                conf.len() as u64,
                stats.conf_calls.get(),
                "{at}: conf spans"
            );
            for (i, (name, _, total)) in KERNEL_VIEWS.iter().enumerate() {
                assert_eq!(
                    kernels[i],
                    total(stats),
                    "{at}: registry {name} vs last_stats()"
                );
            }
            for (i, (name, _, total)) in CONF_VIEWS.iter().enumerate() {
                assert_eq!(
                    conf_totals[i],
                    total(stats),
                    "{at}: registry {name} vs last_stats()"
                );
                let spans: u64 = conf
                    .iter()
                    .map(|s| match attr(s, name) {
                        Some(AttrValue::Uint(n)) => n,
                        other => panic!("{at}: conf span {name} {other:?}"),
                    })
                    .sum();
                assert_eq!(
                    spans,
                    total(stats),
                    "{at}: conf spans {name} vs last_stats()"
                );
            }

            let mut spans: Vec<_> = tree.into_iter().filter(|s| s.label == "pipeline").collect();
            spans.sort_by_key(|s| s.id);
            assert_eq!(spans.len(), stats.pipeline_count(), "{at}: pipeline spans");
            for (span, p) in spans.iter().zip(&pipelines) {
                let Some(AttrValue::Uint(source_rows)) = attr(span, "source_rows") else {
                    panic!("{at}: pipeline span without source_rows")
                };
                assert_eq!(
                    p.source_rows, source_rows,
                    "{at}: span source_rows vs record"
                );
                // A run that drove no morsel (the stage-less scan) has no
                // tally: its span reports neither morsels nor rows_out
                // rather than a zero for the rows that passed through.
                let tally = |n: u64| (p.morsels.get() > 0).then_some(AttrValue::Uint(n));
                assert_eq!(
                    (attr(span, "morsels"), attr(span, "rows_out")),
                    (tally(p.morsels.get()), tally(p.rows_out.get())),
                    "{at}: span morsels / rows_out"
                );
            }
            trace::clear();
        }
    }
    maybms_par::set_threads(before_threads);
}
