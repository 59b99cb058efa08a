//! Pruned pipelines against whole-row ones. A probe gathers only the
//! columns of its joined rows that a later stage or the sink reads
//! (`maybms_pipe`'s liveness walk); every other column is a NULL
//! constant. That must never show: rows (variants and float bits
//! included), conditions, the first error and every stage's counts equal
//! those of a run that reads every column, under the group breaker with
//! each aggregate kind and under the materialising sink, at 1/2/8
//! threads with single-row morsels.
//!
//! The whole-row reference is the same chain with an identity π
//! appended: the π reads every column of the chain's rows, so no stage
//! before it prunes a column, and the sink is handed every column.
//!
//! Chains hold 1–3 probes in both `build_first` orientations, σ and π
//! after a probe (a π may hold `6 / v`, which raises on `v = 0` whether
//! or not a later stage reads its column), NULL keys, an `Int` key
//! joined to a `Float` one (`1 = 1.0`) and, in half the cases,
//! dictionary-encoded text keys.

use std::sync::Arc;

use maybms_core::agg::aggregate_stream_with;
use maybms_core::translate::AggSpec;
use maybms_engine::ops::{AggFunc, ProjectItem};
use maybms_engine::{BinaryOp, DataType, Expr, Field, Schema, Tuple, Value};
use maybms_obs::{PipelineStats, QueryStats};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};
use proptest::prelude::*;

/// What a column of the chain's rows holds, for picking keys and
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Float,
    Text,
    /// A π's computed column: read by aggregates, never a key.
    Computed,
}

/// Every generated relation's columns: `k` an `Int` key, `x` a `Float`
/// whose integral values equal a `k` (and `0.5` none), `s` text, and `v`
/// an `Int` divisor that can be 0.
const KINDS: [Kind; 4] = [Kind::Int, Kind::Float, Kind::Text, Kind::Int];

fn schema() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Text),
        ("v", DataType::Int),
    ]))
}

/// One row `(k, x, s, v)` and the raw assignments of its condition.
type RawRow = (
    (Option<i64>, Option<i64>, Option<&'static str>, i64),
    Vec<(u32, u16)>,
);

fn arb_rows() -> impl Strategy<Value = Vec<RawRow>> {
    prop::collection::vec(
        (
            (
                prop::option::of(0i64..2),
                prop::option::of(0i64..3),
                prop::option::of(prop::sample::select(vec!["a", "b"])),
                0i64..6,
            ),
            prop::collection::vec((0u32..3, 0u16..2), 0..2),
        ),
        1..10,
    )
}

/// The relation `rows` spell: conditioned when `uncertain`, else
/// t-certain; its text column dictionary-encoded when `dict`.
fn relation(rows: &[RawRow], uncertain: bool, dict: bool) -> URelation {
    let tuples = rows
        .iter()
        .map(|((k, x, s, v), raw)| {
            let values = vec![
                k.map_or(Value::Null, Value::Int),
                x.map_or(Value::Null, |x| Value::Float([0.0, 1.0, 0.5][x as usize])),
                s.map_or(Value::Null, Value::str),
                Value::Int(*v),
            ];
            let assignments = raw
                .iter()
                .map(|&(var, a)| Assignment::new(Var(var), a))
                .collect();
            let wsd = match uncertain {
                true => Wsd::from_assignments(assignments).unwrap_or_else(Wsd::tautology),
                false => Wsd::tautology(),
            };
            UTuple::new(Tuple::new(values), wsd)
        })
        .collect();
    let u = URelation::new(schema(), tuples).unwrap();
    match dict {
        true => u.dict_encode(),
        false => u,
    }
}

/// One probe and what follows it: `(key, build_first, after, pick)`.
/// `key` picks the key column (bit 3: an `Int` one joins the build's
/// `Float` `x`) and maybe a second pair (bits 4–5; bit 6 as bit 3);
/// `after` adds a σ (bit 0) and a π (bit 1) that holds `6 / v` (bit 2);
/// `pick` chooses the columns they use.
type ProbeToken = (u8, bool, u8, u8);

/// The first column of `kinds` from `pick` on that can be a key.
fn key_column(kinds: &[Kind], pick: u8) -> usize {
    let n = kinds.len();
    (0..n)
        .map(|i| (i + pick as usize) % n)
        .find(|&i| kinds[i] != Kind::Computed)
        .expect("a π keeps a key-capable column")
}

/// The build column a stream key of `kind` joins: `Int` joins `k` or,
/// by `alt`, the `Float` `x`; `Float` joins `k`; text joins `s`.
fn build_key(kind: Kind, alt: bool) -> usize {
    match (kind, alt) {
        (Kind::Int, false) | (Kind::Float, _) => 0,
        (Kind::Int, true) => 1,
        (Kind::Text, _) => 2,
        (Kind::Computed, _) => unreachable!("computed columns are no keys"),
    }
}

/// The chain `tokens` spell over `source`, probing `builds` in turn, and
/// the kinds of its rows' columns.
fn chain(source: &URelation, builds: &[URelation], tokens: &[ProbeToken]) -> (UStream, Vec<Kind>) {
    let mut s = UStream::new(source.clone());
    let mut kinds = KINDS.to_vec();
    for (build, &(key, first, after, pick)) in builds.iter().zip(tokens) {
        let a = key_column(&kinds, key);
        let mut left = vec![a];
        let mut right = vec![build_key(kinds[a], key & 8 != 0)];
        if key & 48 == 48 {
            // A second key pair, when another column can be one.
            let b = key_column(&kinds, key.wrapping_add(pick).wrapping_add(1));
            if b != a {
                left.push(b);
                right.push(build_key(kinds[b], key & 64 != 0));
            }
        }
        s = match first {
            true => s.hash_join_build_first(build.clone(), &left, &right),
            false => s.hash_join(build.clone(), &left, &right),
        }
        .expect("keys in range");
        // The build's divisor `v`, in the joined row.
        let divisor = 3 + if first { 0 } else { kinds.len() };
        kinds = match first {
            true => KINDS.iter().chain(&kinds).copied().collect(),
            false => kinds.iter().chain(&KINDS).copied().collect(),
        };
        // A σ reads any column but the build's divisor.
        let col = (divisor + 1 + pick as usize % (kinds.len() - 1)) % kinds.len();
        if after & 1 != 0 {
            let c = Expr::ColumnIdx(col);
            let predicate = match kinds[col] {
                Kind::Int | Kind::Float if pick & 64 != 0 => {
                    c.binary(BinaryOp::GtEq, Expr::lit(1i64))
                }
                Kind::Text if pick & 64 != 0 => c.eq(Expr::lit("a")),
                _ => Expr::IsNull {
                    expr: Box::new(c),
                    negated: true,
                },
            };
            s = s.filter(&predicate).expect("binds");
        }
        if after & 2 != 0 {
            // Keep every other column from `pick` on but the build's
            // divisor (at least one key), then maybe `6 / v` over that
            // divisor: nothing after the π reads `v`, and no sink reads
            // the quotient.
            let keep: Vec<usize> = (0..kinds.len())
                .filter(|&i| (i + pick as usize).is_multiple_of(2) && i != divisor)
                .collect();
            let mut items: Vec<ProjectItem> = keep
                .iter()
                .enumerate()
                .map(|(j, &i)| ProjectItem::new(Expr::ColumnIdx(i), format!("c{j}")))
                .collect();
            let mut next: Vec<Kind> = keep.iter().map(|&i| kinds[i]).collect();
            if !next.iter().any(|&k| k != Kind::Computed) {
                items.push(ProjectItem::new(Expr::ColumnIdx(0), "c0k"));
                next.push(kinds[0]);
            }
            if after & 4 != 0 {
                let e = Expr::lit(6i64).binary(BinaryOp::Div, Expr::ColumnIdx(divisor));
                items.push(ProjectItem::new(e, "q"));
                next.push(Kind::Computed);
            }
            s = s.project(&items).expect("binds");
            kinds = next;
        }
    }
    (s, kinds)
}

/// `stream` with an identity π appended: a run of it reads every column.
fn whole_rows(stream: UStream) -> UStream {
    let items: Vec<ProjectItem> = (0..stream.schema().len())
        .map(|i| ProjectItem::new(Expr::ColumnIdx(i), format!("w{i}")))
        .collect();
    stream.project(&items).expect("binds")
}

/// A grouped sink: its keys and aggregates over rows of `kinds`.
/// `pick` chooses the aggregate kind, `col` the columns.
fn grouped_sink(kinds: &[Kind], pick: u8, col: u8) -> (Vec<Expr>, Vec<(AggSpec, String)>) {
    // The sink reads no computed column: a π's quotient stays dead, and
    // must still raise.
    let cols: Vec<usize> = (0..kinds.len())
        .filter(|&i| kinds[i] != Kind::Computed)
        .collect();
    let nth = |i: usize| cols[(col as usize + i) % cols.len()];
    let at = |i: usize| Expr::ColumnIdx(nth(i));
    let numeric = (0..cols.len())
        .map(nth)
        .find(|&i| kinds[i] != Kind::Text)
        .map_or(Expr::ColumnIdx(0), Expr::ColumnIdx);
    let keys: Vec<Expr> = (0..(pick as usize / 8) % 3)
        .map(|i| at(2 * i + 1))
        .collect();
    let std = |func, arg: Option<Expr>| (AggSpec::Std { func, arg }, format!("{func:?}"));
    let aggs = match pick % 8 {
        0 => vec![(AggSpec::Conf, "p".into())],
        1 => vec![
            (AggSpec::ESum(numeric.clone()), "es".into()),
            (AggSpec::ECount(Some(at(2))), "ec".into()),
        ],
        2 => vec![
            std(AggFunc::Sum, Some(numeric.clone())),
            std(AggFunc::Avg, Some(numeric)),
            std(AggFunc::Min, Some(at(0))),
            std(AggFunc::Max, Some(at(2))),
            std(AggFunc::Count, Some(at(3))),
            std(AggFunc::Count, None),
        ],
        3 => vec![(
            AggSpec::ArgMax {
                arg: at(2),
                value: numeric,
            },
            "best".into(),
        )],
        4 => Vec::new(), // DISTINCT over the keys
        5 => vec![
            (AggSpec::ECount(None), "ec".into()),
            (AggSpec::Conf, "p".into()),
        ],
        6 => vec![(
            AggSpec::AConf {
                epsilon: 0.3,
                delta: 0.3,
            },
            "ap".into(),
        )],
        _ => vec![std(AggFunc::Count, None)],
    };
    (keys, aggs)
}

/// A run's rows — values with their variants and bits, and conditions —
/// or its error.
fn rows<E: std::fmt::Display>(got: Result<URelation, E>) -> Result<Vec<String>, String> {
    got.map(|u| {
        let tuples = u.tuples();
        tuples
            .iter()
            .map(|t| format!("{:?} | {:?}", t.data.values(), t.wsd))
            .collect()
    })
    .map_err(|e| e.to_string())
}

/// A pipeline's `(rows in, rows out, build rows)` per stage, and its rows
/// in and out.
type Counts = (Vec<(u64, u64, u64)>, [u64; 2]);

fn counts(p: &PipelineStats) -> Counts {
    let per_stage = p.stages.iter();
    let per_stage = per_stage.map(|s| (s.rows_in.get(), s.rows_out.get(), s.build_rows.get()));
    (per_stage.collect(), [p.rows_in.get(), p.rows_out.get()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The materialising sink reads every column: its run of the chain is
    /// the whole-row one. The group breaker's run of the chain must
    /// answer as grouping those rows from every column does (an identity
    /// π reads them all), with the chain's stage counts; where the chain
    /// raises, it must raise what the chain with an identity π appended
    /// raises under the same breaker (a fold may raise at an earlier
    /// row).
    #[test]
    fn pruned_pipeline_answers_as_a_whole_row_one(
        source in arb_rows(),
        builds in prop::collection::vec(arb_rows(), 3..4),
        tokens in prop::collection::vec((any::<u8>(), any::<bool>(), 0u8..8, any::<u8>()), 1..4),
        (uncertain, dict) in (any::<bool>(), any::<bool>()),
        (sink, col) in (any::<u8>(), any::<u8>()),
    ) {
        let mut wt = WorldTable::new();
        for _ in 0..3 {
            wt.new_var(&[0.5, 0.5]).unwrap();
        }
        let source = relation(&source, uncertain, dict);
        let builds: Vec<URelation> = builds
            .iter()
            .enumerate()
            .map(|(i, rows)| relation(rows, uncertain && i % 2 == 0, dict))
            .collect();
        let stream = || chain(&source, &builds, &tokens).0;
        let (_, kinds) = chain(&source, &builds, &tokens);
        let (keys, aggs) = grouped_sink(&kinds, sink, col);
        let key_fields: Vec<Field> = (0..keys.len())
            .map(|i| Field::new(format!("g{i}"), DataType::Unknown))
            .collect();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let grouped = |stream: UStream, qs: &QueryStats| {
                let got = aggregate_stream_with(
                    stream, &keys, keys.len(), key_fields.clone(), &aggs, &wt, qs, &pool, 1,
                );
                rows(got)
            };
            let (whole, pruned) = (QueryStats::new(), QueryStats::new());
            let collected = stream().collect_with(&pool, 1, &whole);
            let got = grouped(stream(), &pruned);
            let at = format!("{aggs:?} by {keys:?}, threads {threads}");
            match collected {
                Ok(u) => {
                    let regrouped = QueryStats::new();
                    let want = grouped(whole_rows(UStream::new(u)), &regrouped);
                    prop_assert_eq!(&got, &want, "{}", at);
                    if got.is_ok() {
                        let (p, w) = (&pruned.pipelines()[0], &whole.pipelines()[0]);
                        prop_assert_eq!(counts(p), counts(w), "{}", at);
                        let groups = regrouped.pipelines()[0].groups.get();
                        prop_assert_eq!(p.groups.get(), groups, "{}", at);
                    }
                }
                Err(e) => {
                    let want = grouped(whole_rows(stream()), &QueryStats::new());
                    prop_assert!(got.is_err(), "the chain raised {}, {}", e, at);
                    prop_assert_eq!(&got, &want, "{}", at);
                }
            }
        }
    }
}
