//! One record of what ran: for every statement, the process-wide metrics
//! registry, the `pipeline` trace spans and `last_stats()` are copies of
//! the same per-pipeline tallies, so they agree exactly — at 1, 2 and 8
//! threads, for a join feeding `conf()`, a stage-less scan, the
//! dense-dictionary GROUP BY, a filter-only `UPDATE` and a predicate the
//! vector kernels hand back to the scalar evaluator.
//!
//! The registry is process-wide, so this binary holds this one test and
//! nothing else moves the registry while it measures.

use maybms::MayBms;
use maybms_obs::trace::{self, AttrValue};
use maybms_obs::{Metrics, PipelineStats, QueryStats};

/// A per-pipeline count, read off the registry and off one record.
type View = (&'static str, fn(&Metrics) -> u64, fn(&PipelineStats) -> u64);

const VIEWS: [View; 8] = [
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
    (
        "vector_batches",
        |m| m.vector_batches.get(),
        |p| p.vector_batches.get(),
    ),
    (
        "scalar_fallbacks",
        |m| m.scalar_fallbacks.get(),
        |p| p.scalar_fallbacks.get(),
    ),
];

fn registry() -> Vec<u64> {
    VIEWS
        .iter()
        .map(|(_, read, _)| read(maybms_obs::metrics()))
        .collect()
}

/// A case: its name, its SQL, and what makes it the case it stands for.
type Case = (&'static str, &'static str, fn(&QueryStats) -> bool);

const STATEMENTS: [Case; 5] = [
    (
        "join + group + conf over pick tuples",
        "select a.k, conf() as p from q a, q b where a.k = b.k group by a.k",
        // A stage-less build side, then the grouped probe pipeline.
        |qs| qs.pipeline_count() == 2 && qs.conf_calls.get() > 0,
    ),
    ("stage-less scan", "select k, tconf() as p from q", |qs| {
        qs.pipelines()
            .iter()
            .all(|p| p.stages.is_empty() && p.morsels.get() == 0)
    }),
    (
        "dense-dictionary group by",
        "select s, count(*) as n from t group by s",
        |qs| {
            qs.pipelines()
                .iter()
                .all(|p| p.stages.is_empty() && p.groups.get() == 37)
        },
    ),
    (
        "filter-only update",
        "update t set v = v + 1 where k < 100",
        |qs| qs.pipelines().iter().all(|p| p.rows_out.get() == 100),
    ),
    (
        "scalar fallback",
        "select k from t where k >= 0 or s > 1",
        |qs| qs.scalar_fallbacks() > 0,
    ),
];

fn database() -> MayBms {
    let mut db = MayBms::new();
    let rows: Vec<String> = (0..3000)
        .map(|i| format!("({i}, 's{}', {}, 0.5)", i % 37, i % 100))
        .collect();
    let picks: Vec<String> = (0..300).map(|i| format!("({}, 0.5)", i % 50)).collect();
    db.run_script(&format!(
        "create table t (k bigint, s text, v bigint, w double precision);
         insert into t values {};
         create table p (k bigint, w double precision);
         insert into p values {};
         create table q as select * from (pick tuples from p with probability w) x;",
        rows.join(", "),
        picks.join(", "),
    ))
    .unwrap();
    db
}

/// A `pipeline` span's attribute `key`, if the span carries it.
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
            let after = registry();
            let stats = db.last_stats().unwrap();
            assert!(
                shape(stats),
                "{at}: not the case it stands for: {:?}",
                stats.steps()
            );

            let pipelines = stats.pipelines();
            for (i, (name, _, count)) in VIEWS.iter().enumerate() {
                let sum: u64 = pipelines.iter().map(|p| count(p)).sum();
                assert_eq!(
                    after[i] - before[i],
                    sum,
                    "{at}: registry {name} vs last_stats()"
                );
            }

            let root = stats.root_span().expect("tracing was on");
            let mut spans: Vec<_> = trace::spans_for_root(root)
                .into_iter()
                .filter(|s| s.label == "pipeline")
                .collect();
            spans.sort_by_key(|s| s.id);
            assert_eq!(spans.len(), stats.pipeline_count(), "{at}: pipeline spans");
            for (span, p) in spans.iter().zip(&pipelines) {
                let Some(AttrValue::Uint(source_rows)) = attr(span, "source_rows") else {
                    panic!("{at}: pipeline span without source_rows")
                };
                assert!(
                    p.source.starts_with(&format!("{source_rows} stored rows")),
                    "{at}: span source_rows {source_rows} vs record {:?}",
                    p.source
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
