//! Well-formedness and determinism properties of the tracing span trees.
//!
//! The span subsystem promises (obs phase 2):
//!
//! 1. **Well-formed trees** — every recorded span's parent exists in the
//!    same tree, children are temporally nested inside their parent's
//!    `[start, end]` interval, and the statement root covers every
//!    pipeline span of that statement.
//! 2. **Thread-invariant shape** — the *shape* of a statement's span
//!    tree (the multiset of `(label, parent-label-path)` pairs) is
//!    bit-identical at 1, 2, and 8 execution threads, because
//!    `maybms-par` propagates the trace context from the spawn site into
//!    every worker task. Durations, attribute values, and completion
//!    order are explicitly *not* part of the contract.
//! 3. **Pipeline agreement** — the number of `pipeline` spans under a
//!    statement root equals `QueryStats::pipeline_count()`, i.e. what
//!    `EXPLAIN ANALYZE` reports for the same statement.
//! 4. **Breakers are visible** — every sort, union, cross-product and
//!    limit breaker is one `breaker` span (attrs `kind`, `rows_in`,
//!    `rows_out`), at any thread count.
//!
//! The ring sink and the enable flag are process-wide, so every test in
//! this binary serialises on one mutex and filters spans by root id
//! (other tests' spans in the ring are harmless but eviction while a
//! tree is being collected would not be).

use std::collections::BTreeMap;
use std::sync::Mutex;

use maybms_core::MayBms;
use maybms_obs::trace::{self, SpanRecord};

/// Serialises the tests in this binary: tracing enablement and the
/// global thread pool are process-wide.
static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

/// Thread counts the span-tree shape must be identical across.
const THREADS: [usize; 3] = [1, 2, 8];

/// A database with enough uncertainty that `conf()` runs per group and
/// query plans have several pipelines.
fn seeded_db() -> MayBms {
    let mut db = MayBms::new();
    for sql in [
        "create table coin (face text, toss bigint, w double precision)",
        "insert into coin values \
         ('heads', 1, 4.0), ('tails', 1, 1.0), \
         ('heads', 2, 1.0), ('tails', 2, 1.0), ('edge', 2, 0.1)",
    ] {
        db.run(sql).unwrap();
    }
    db
}

/// Runs `sql` with tracing on and returns the statement's span tree
/// (every record whose root is the statement root) plus the
/// `QueryStats` pipeline count.
fn traced_run(db: &mut MayBms, sql: &str) -> (Vec<SpanRecord>, usize) {
    trace::set_enabled(true);
    db.run(sql).unwrap();
    trace::set_enabled(false);
    let stats = db.last_stats().expect("statement just ran");
    let root = stats.root_span().expect("tracing was on");
    let spans = trace::spans_for_root(root);
    assert!(!spans.is_empty(), "root {root} not found in the ring");
    (spans, stats.pipeline_count())
}

/// `(label, parent-label-path)` multiset — the thread-invariant
/// fingerprint of a span tree. The path is the chain of labels from the
/// root down to the span itself, so sibling order and durations don't
/// participate.
fn shape_fingerprint(spans: &[SpanRecord]) -> Vec<String> {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut shape: Vec<String> = spans
        .iter()
        .map(|s| {
            let mut path = Vec::new();
            let mut cur = Some(s);
            while let Some(rec) = cur {
                path.push(rec.label);
                cur = by_id.get(&rec.parent).copied();
            }
            path.reverse();
            path.join("/")
        })
        .collect();
    shape.sort();
    shape
}

/// Checks property 1 (well-formed tree) and returns the root record.
fn assert_well_formed(spans: &[SpanRecord]) -> SpanRecord {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let roots: Vec<&&SpanRecord> = by_id.values().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root per statement tree");
    let root = (**roots[0]).clone();
    assert_eq!(root.label, "statement");
    assert_eq!(root.root, root.id);
    for s in spans {
        assert_eq!(
            s.root, root.id,
            "span {} ({}) in the wrong tree",
            s.id, s.label
        );
        if s.parent == 0 {
            continue;
        }
        let parent = by_id.get(&s.parent).unwrap_or_else(|| {
            panic!(
                "span {} ({}) has a dangling parent {}",
                s.id, s.label, s.parent
            )
        });
        assert!(
            s.start_nanos >= parent.start_nanos && s.end_nanos() <= parent.end_nanos(),
            "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
            s.id,
            s.label,
            s.start_nanos,
            s.end_nanos(),
            parent.id,
            parent.label,
            parent.start_nanos,
            parent.end_nanos(),
        );
    }
    root
}

/// Properties 1 and 3 on a conf-bearing grouped query: the tree is
/// well-formed, the root covers every pipeline span, and the pipeline
/// span count equals what `EXPLAIN ANALYZE` would report.
#[test]
fn span_tree_well_formed_and_agrees_with_explain_analyze() {
    let _guard = TRACE_TEST_LOCK.lock().unwrap();
    let mut db = seeded_db();
    let sql = "select face, conf() as p \
               from (repair key toss in coin weight by w) c group by face";
    let (spans, pipeline_count) = traced_run(&mut db, sql);
    let root = assert_well_formed(&spans);
    let pipelines: Vec<&SpanRecord> = spans.iter().filter(|s| s.label == "pipeline").collect();
    assert_eq!(
        pipelines.len(),
        pipeline_count,
        "pipeline spans must agree with EXPLAIN ANALYZE's pipeline count"
    );
    assert!(pipeline_count > 0, "grouped conf query must run pipelines");
    for p in &pipelines {
        assert!(
            p.start_nanos >= root.start_nanos && p.end_nanos() <= root.end_nanos(),
            "statement root must cover pipeline span {}",
            p.id
        );
    }
    // The same statement records conf spans (one per group) and a parse
    // child (the statement came in through `run`, i.e. as SQL text).
    assert!(
        spans.iter().any(|s| s.label == "conf"),
        "conf() must be spanned"
    );
    assert!(
        spans.iter().any(|s| s.label == "parse"),
        "parse must be spanned"
    );
    assert!(
        spans.iter().any(|s| s.label == "execute"),
        "execute must be spanned"
    );
}

/// The `conf` spans of `sql`'s `groups` groups, and a reader of one
/// span's attribute.
fn conf_spans(db: &mut MayBms, sql: &str, groups: usize) -> Vec<SpanRecord> {
    let (spans, _) = traced_run(db, sql);
    let conf: Vec<SpanRecord> = spans.into_iter().filter(|s| s.label == "conf").collect();
    assert_eq!(conf.len(), groups, "one conf span per group");
    conf
}

fn attr(span: &SpanRecord, key: &str) -> maybms_obs::trace::AttrValue {
    let (_, v) = span
        .attrs
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("conf span lacks `{key}`: {:?}", span.attrs));
    *v
}

/// An `aconf` call the sampler answered shows in its `conf` span what was
/// asked for next to what was achieved: the requested (ε, δ), the budget
/// its d-tree attempt spent, consumed and drawn samples (equal — the
/// sample stream is demand-driven) and the achieved standard error. Its
/// three groups are the 2-DNF `r_a ∧ t_b` over random bipartite graphs
/// of 150 edges between 30 + 30 rows of probability 0.1, which no d-tree
/// certifies within budget.
#[test]
fn aconf_span_carries_requested_and_achieved_accuracy() {
    use maybms_obs::trace::AttrValue;
    let _guard = TRACE_TEST_LOCK.lock().unwrap();
    let mut db = seeded_db();
    let mut x: u64 = 3;
    let edges: Vec<String> = (0..450)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            format!("({}, {}, {})", i % 3, (x >> 33) % 30, (x >> 45) % 30)
        })
        .collect();
    let side: Vec<String> = (0..30).map(|i| format!("({i}, 0.1)")).collect();
    let side = side.join(", ");
    db.run_script(&format!(
        "create table r (a bigint, w double precision);
         insert into r values {side};
         create table t (b bigint, w double precision);
         insert into t values {side};
         create table e (k bigint, a bigint, b bigint);
         insert into e values {};
         create table pr as select * from (pick tuples from r with probability w) x;
         create table pt as select * from (pick tuples from t with probability w) x;",
        edges.join(", "),
    ))
    .unwrap();
    let sql = "select e.k, aconf(0.1, 0.05) as p from pr, e, pt \
               where pr.a = e.a and e.b = pt.b group by e.k";
    for span in conf_spans(&mut db, sql, 3) {
        assert!(matches!(attr(&span, "method"), AttrValue::Str("approx")));
        assert!(matches!(attr(&span, "epsilon"), AttrValue::Float(e) if e == 0.1));
        assert!(matches!(attr(&span, "delta"), AttrValue::Float(d) if d == 0.05));
        let AttrValue::Uint(budget) = attr(&span, "budget") else {
            panic!("budget not a count")
        };
        assert!(matches!(attr(&span, "dtree_nodes"), AttrValue::Uint(n) if n == budget && n > 0));
        let AttrValue::Uint(samples) = attr(&span, "samples") else {
            panic!("samples not a count")
        };
        assert!(samples > 0);
        assert!(matches!(attr(&span, "samples_drawn"), AttrValue::Uint(n) if n == samples));
        assert!(matches!(attr(&span, "rel_stderr"), AttrValue::Float(r) if r > 0.0 && r < 0.1));
    }
}

/// The certified twin: over lineage the d-tree answers within its node
/// budget, an `aconf` span says `exact`, keeps the requested (ε, δ) and
/// the budget, and reports d-tree nodes and no samples.
#[test]
fn aconf_span_of_a_certified_answer_says_exact() {
    use maybms_obs::trace::AttrValue;
    let _guard = TRACE_TEST_LOCK.lock().unwrap();
    let mut db = seeded_db();
    // A toss's alternatives share its variable: not independent.
    let sql = "select toss, aconf(0.1, 0.05) as p \
               from (repair key toss in coin weight by w) c group by toss";
    for span in conf_spans(&mut db, sql, 2) {
        assert!(matches!(attr(&span, "method"), AttrValue::Str("exact")));
        assert!(matches!(attr(&span, "epsilon"), AttrValue::Float(e) if e == 0.1));
        assert!(matches!(attr(&span, "delta"), AttrValue::Float(d) if d == 0.05));
        let AttrValue::Uint(budget) = attr(&span, "budget") else {
            panic!("budget not a count")
        };
        assert!(matches!(attr(&span, "dtree_nodes"), AttrValue::Uint(n) if n > 0 && n <= budget));
        assert!(matches!(attr(&span, "samples"), AttrValue::Uint(0)));
    }
}

/// Property 2: the `(label, parent-label-path)` multiset is identical at
/// 1/2/8 threads for the same statements — conf spans land under the
/// spawn-site span, not under whichever worker ran them.
#[test]
fn span_tree_shape_identical_across_thread_counts() {
    let _guard = TRACE_TEST_LOCK.lock().unwrap();
    let statements = [
        "select face, conf() as p \
         from (repair key toss in coin weight by w) c group by face",
        "select face from coin where w > 0.5",
        "select c.face, conf() as p \
         from (repair key toss in coin weight by w) c, coin d \
         where c.face = d.face group by c.face",
    ];
    let before = maybms_par::current_threads();
    let mut shapes: Vec<Vec<Vec<String>>> = Vec::new();
    for threads in THREADS {
        maybms_par::set_threads(threads);
        let mut db = seeded_db();
        let mut per_stmt = Vec::new();
        for sql in statements {
            let (spans, _) = traced_run(&mut db, sql);
            assert_well_formed(&spans);
            per_stmt.push(shape_fingerprint(&spans));
        }
        shapes.push(per_stmt);
    }
    maybms_par::set_threads(before);
    assert_eq!(
        shapes[0], shapes[1],
        "span-tree shape differs, 2 threads vs 1"
    );
    assert_eq!(
        shapes[0], shapes[2],
        "span-tree shape differs, 8 threads vs 1"
    );
}

/// Property 4 (and 3 again): a statement with UNION, ORDER BY and LIMIT
/// holds exactly one `breaker` span per breaker under its root, carrying
/// the cardinalities `EXPLAIN ANALYZE` prints, at 1/2/8 threads — and
/// its `pipeline` spans (the two blocks, the UNION dedup and the HAVING
/// filter) still agree with `QueryStats::pipeline_count()`.
#[test]
fn each_breaker_is_one_span_at_any_thread_count() {
    use maybms_obs::trace::AttrValue;
    let _guard = TRACE_TEST_LOCK.lock().unwrap();
    let sql = "select face, count(*) as n from coin group by face having n > 1 \
               union select face, toss from coin where toss = 2 \
               order by n desc, face limit 2";
    let before = maybms_par::current_threads();
    for threads in THREADS {
        maybms_par::set_threads(threads);
        let mut db = seeded_db();
        let (spans, pipeline_count) = traced_run(&mut db, sql);
        let root = assert_well_formed(&spans);
        let pipelines = spans.iter().filter(|s| s.label == "pipeline").count();
        assert_eq!(pipelines, pipeline_count, "threads = {threads}");
        assert_eq!(
            pipeline_count, 4,
            "group, having, second block, union dedup"
        );
        let attr = |s: &SpanRecord, key: &str| -> AttrValue {
            s.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("breaker span lacks `{key}`: {:?}", s.attrs))
        };
        let mut breakers: Vec<(String, u64, u64)> = spans
            .iter()
            .filter(|s| s.label == "breaker")
            .map(|s| {
                assert_eq!(s.root, root.id);
                let (AttrValue::Uint(rows_in), AttrValue::Uint(rows_out)) =
                    (attr(s, "rows_in"), attr(s, "rows_out"))
                else {
                    panic!("breaker cardinalities are counts: {:?}", s.attrs)
                };
                (attr(s, "kind").to_string(), rows_in, rows_out)
            })
            .collect();
        breakers.sort();
        // (heads, 2) and (tails, 2) pass HAVING; toss 2 adds them again
        // plus (edge, 2): 5 rows union, dedup to 3, the LIMIT-bounded
        // sort keeps the top 2 of 3, the limit passes them on.
        assert_eq!(
            breakers,
            vec![
                ("limit".to_string(), 2, 2),
                ("sort".to_string(), 3, 2),
                ("union".to_string(), 5, 5),
            ],
            "threads = {threads}"
        );
    }
    maybms_par::set_threads(before);
}

/// DML and DDL statements get statement roots too (the latency windows
/// and the slow-query log classify them as `dml`).
#[test]
fn dml_statements_have_statement_roots() {
    let _guard = TRACE_TEST_LOCK.lock().unwrap();
    let mut db = MayBms::new();
    trace::set_enabled(true);
    db.run("create table t (a bigint)").unwrap();
    trace::set_enabled(false);
    let stats = db.last_stats().unwrap();
    let root = stats.root_span().expect("DDL gets a root span");
    let spans = trace::spans_for_root(root);
    let rec = assert_well_formed(&spans);
    assert!(
        rec.attrs
            .iter()
            .any(|(k, v)| *k == "kind" && v.to_string() == "dml"),
        "statement root must carry kind=dml: {:?}",
        rec.attrs
    );
}
