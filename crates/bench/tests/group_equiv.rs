//! The grouped breaker on column batches ≡ its references.
//!
//! A σ ⋈ γ pipeline hands the grouped breaker column batches: hash probes
//! run on the morsel's columns, every row's group comes from the key
//! columns (dictionary codes, an `i64` map, or `Value` keys) and the
//! aggregates fold typed slices. That path is checked, at 1/2/8 threads
//! and morsel sizes down to one row, over sources and builds with plain
//! columns and their dictionary-encoded twins, against
//!
//! * materialising the chain with the scalar walk and grouping it with
//!   the naive oracle (`maybms_bench::naive::aggregate_u`), and
//! * the same chain behind a `CASE` filter the kernels do not take (it
//!   runs row by row over the batch, and every stage after it sees the
//!   rows it let through);
//!
//! and its first runtime error — which row, which key or aggregate slot,
//! and its message — against a scalar, row-major fold. Keys are text,
//! `bigint` (including 2^53 and 2^53 + 1, which hash alike and differ),
//! `double`, mixed-variant (`1` and `1.0`) and NULL; builds hold
//! duplicate and NULL keys; conditions conflict so conjoins drop pairs;
//! and one dictionary holds a thousand entries per stored row.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use maybms_bench::naive::{aggregate_u, fused_chain, Step};
use maybms_core::agg::{aggregate_stream_with, ACONF_SEED};
use maybms_core::exec::{eval_query, ExecCtx};
use maybms_core::sql::parse_query;
use maybms_core::translate::AggSpec;
use maybms_core::CoreError;
use maybms_engine::ops::{AggFunc, AggState};
use maybms_engine::{BinaryOp, DataType, EngineError, Expr, Field, Schema, Tuple, Value};
use maybms_par::ThreadPool;
use maybms_urel::{Assignment, URelation, UTuple, UrelError, Var, WorldTable, Wsd};
use proptest::prelude::*;

const P53: i64 = 1 << 53;

/// The condition `raw` spells (the tautology when it contradicts itself).
fn wsd_of(raw: Vec<(u32, u16)>) -> Wsd {
    let assignments = raw.into_iter().map(|(v, a)| Assignment::new(Var(v), a));
    Wsd::from_assignments(assignments.collect()).unwrap_or_else(Wsd::tautology)
}

fn arb_wsd() -> impl Strategy<Value = Wsd> {
    prop::collection::vec((0u32..3, 0u16..2), 0..3).prop_map(wsd_of)
}

fn world() -> WorldTable {
    let mut wt = WorldTable::new();
    for _ in 0..3 {
        wt.new_var(&[0.5, 0.5]).unwrap();
    }
    wt
}

fn relation(names: &[&str], rows: Vec<(Vec<Value>, Wsd)>) -> URelation {
    let pairs: Vec<(&str, DataType)> = names.iter().map(|n| (*n, DataType::Unknown)).collect();
    let tuples = rows
        .into_iter()
        .map(|(v, w)| UTuple::new(Tuple::new(v), w))
        .collect();
    URelation::new(Arc::new(Schema::from_pairs(&pairs)), tuples).unwrap()
}

fn text() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str),
    ]
}

fn bigint() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop::sample::select(vec![0, 1, P53, P53 + 1]).prop_map(Value::Int),
    ]
}

fn double() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop::sample::select(vec![0.5, 1.0, -2.0]).prop_map(Value::Float),
    ]
}

/// `1` and `1.0` (equal, so one group) next to `1.5`.
fn mixed() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Int(1)),
        Just(Value::Float(1.0)),
        Just(Value::Float(1.5)),
    ]
}

/// Small dyadic numbers: float sums are exact in any order.
fn number() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        (0i64..6).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// `(kd text, ki bigint, kf double, km mixed, x number)` rows.
fn arb_source() -> impl Strategy<Value = URelation> {
    let row = ((text(), bigint(), double()), (mixed(), number()), arb_wsd());
    prop::collection::vec(row, 0..16).prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|((kd, ki, kf), (km, x), w)| (vec![kd, ki, kf, km, x], w))
            .collect();
        relation(&["kd", "ki", "kf", "km", "x"], rows)
    })
}

/// `(bk, bv)` build rows: keys of every variant the probe columns hold,
/// duplicated, NULL, and colliding (2^53 and 2^53 + 1 hash alike).
fn arb_build() -> impl Strategy<Value = URelation> {
    let key = prop_oneof![text(), bigint(), mixed()];
    prop::collection::vec((key, number(), arb_wsd()), 0..10).prop_map(|rows| {
        let rows = rows.into_iter().map(|(k, v, w)| (vec![k, v], w)).collect();
        relation(&["bk", "bv"], rows)
    })
}

/// `(source, steps, grouping, aggs)` of one grouped pipeline, from
/// generator picks: up to three probes on a text, bigint or mixed column
/// (one or two keys), a key shape, and an aggregate menu — menus 0–2
/// read conditions, the others drop them (standard aggregates and
/// `argmax` are typing errors otherwise).
type Case = (URelation, Vec<Step>, Vec<Expr>, Vec<(AggSpec, String)>);

fn case(
    source: URelation,
    builds: Vec<URelation>,
    probes: &[(u8, bool)],
    key_pick: u8,
    menu: u8,
) -> Case {
    // Keep every row under an empty condition: the t-certain twin.
    let certain = |u: URelation| {
        let all: Vec<usize> = (0..u.len()).collect();
        u.gather_with(&all, vec![Wsd::tautology(); all.len()])
    };
    let (source, builds) = match menu {
        0..=2 => (source, builds),
        _ => (certain(source), builds.into_iter().map(certain).collect()),
    };
    let mut steps = vec![Step::Filter(
        Expr::ColumnIdx(4)
            .binary(BinaryOp::Lt, Expr::lit(3i64))
            .or(Expr::IsNull {
                expr: Box::new(Expr::ColumnIdx(4)),
                negated: false,
            }),
    )];
    for (build, &(col, two)) in builds.into_iter().zip(probes) {
        let lk = [0, 1, 3][col as usize % 3];
        let (left_keys, right_keys) = match two {
            true => (vec![lk, 4], vec![0, 1]),
            false => (vec![lk], vec![0]),
        };
        steps.push(Step::Probe {
            build,
            left_keys,
            right_keys,
        });
    }
    let last_bv = 4 + 2 * (steps.len() - 1);
    let c = Expr::ColumnIdx;
    let grouping = match key_pick % 7 {
        0 => vec![],
        1 => vec![c(0)],
        2 => vec![c(1)],
        3 => vec![c(2)],
        4 => vec![c(3)],
        5 => vec![c(0), c(1)],
        _ if steps.len() > 1 => vec![c(last_bv)],
        _ => vec![c(0)],
    };
    let std = |func, arg: Option<Expr>| AggSpec::Std { func, arg };
    let aggs = match menu % 6 {
        0 => vec![AggSpec::Conf, AggSpec::ECount(None)],
        1 => vec![AggSpec::ESum(c(4)), AggSpec::ECount(Some(c(1)))],
        2 => vec![AggSpec::Conf, AggSpec::ESum(c(4)), AggSpec::ECount(None)],
        3 => vec![
            std(AggFunc::Count, None),
            std(AggFunc::Count, Some(c(0))),
            std(AggFunc::Sum, Some(c(4))),
            std(AggFunc::Avg, Some(c(4))),
        ],
        4 => vec![
            std(AggFunc::Min, Some(c(4))),
            std(AggFunc::Max, Some(c(1))),
            std(AggFunc::Min, Some(c(0))),
            AggSpec::ESum(c(2)),
        ],
        _ => vec![AggSpec::ArgMax {
            arg: c(0),
            value: c(4),
        }],
    };
    let aggs = aggs
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, format!("a{i}")))
        .collect();
    (source, steps, grouping, aggs)
}

/// The steps behind a `CASE` filter (always true) that no kernel takes.
fn behind_case(steps: &[Step]) -> Vec<Step> {
    let always = Expr::Case {
        branches: vec![(
            Expr::IsNull {
                expr: Box::new(Expr::ColumnIdx(0)),
                negated: false,
            },
            Expr::lit(true),
        )],
        else_expr: Some(Box::new(Expr::lit(true))),
    };
    let mut twin = vec![Step::Filter(always)];
    twin.extend(steps.iter().map(|s| match s {
        Step::Filter(p) => Step::Filter(p.clone()),
        Step::Project(es) => Step::Project(es.clone()),
        Step::Probe {
            build,
            left_keys,
            right_keys,
        } => Step::Probe {
            build: build.clone(),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
        },
    }));
    twin
}

/// The grouped breaker over `steps`, rows rendered so that `1` and
/// `1.0` differ; the error as its message.
#[allow(clippy::too_many_arguments)]
fn grouped(
    source: &URelation,
    steps: &[Step],
    dict: bool,
    grouping: &[Expr],
    aggs: &[(AggSpec, String)],
    wt: &WorldTable,
    threads: usize,
    morsel: usize,
) -> Result<Vec<Vec<Value>>, String> {
    let stream = common::stream(source, steps, dict).expect("chain binds");
    let fields = (0..grouping.len())
        .map(|i| Field::new(format!("k{i}"), DataType::Unknown))
        .collect();
    let out = aggregate_stream_with(
        stream,
        grouping,
        grouping.len(),
        fields,
        aggs,
        wt,
        &maybms_obs::QueryStats::new(),
        &ThreadPool::new(threads),
        morsel,
    );
    out.map(|u| {
        u.tuples()
            .iter()
            .map(|t| t.data.values().to_vec())
            .collect()
    })
    .map_err(|e| e.to_string())
}

/// Every run of the chain and of the chain behind `CASE` — plain and
/// dictionary-encoded, 1/2/8 threads, morsels of 1 and 4 rows — returns the same
/// rows (variants and float bits included) or the same error.
fn runs(
    source: &URelation,
    steps: &[Step],
    grouping: &[Expr],
    aggs: &[(AggSpec, String)],
    wt: &WorldTable,
) -> Result<Vec<Vec<Value>>, String> {
    let twin = behind_case(steps);
    let first = grouped(source, steps, false, grouping, aggs, wt, 1, 1);
    for (chain, name) in [(steps, "chain"), (&twin[..], "behind CASE")] {
        for (src, dict) in [(source.clone(), false), (source.dict_encode(), true)] {
            for threads in [1usize, 2, 8] {
                for morsel in [1usize, 4] {
                    let got = grouped(&src, chain, dict, grouping, aggs, wt, threads, morsel);
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{first:?}"),
                        "{name}, dictionary-encoded {dict}, {threads} threads, morsel {morsel}"
                    );
                }
            }
        }
    }
    first
}

fn engine_message(e: EngineError) -> String {
    CoreError::Urel(UrelError::Engine(e)).to_string()
}

/// The error a run must raise: a message, or — for a §2.2 typing rule —
/// the rule's words.
#[derive(Debug)]
enum Expected {
    Message(String),
    Rule(&'static str),
}

/// The first error of grouping `rows` in the scalar walk's order: rows
/// in order, each row's keys left to right, then its aggregate slots
/// left to right; `argmax`'s arg last, over the rows at each group's
/// maximum.
fn scalar_first_error(
    rows: &[(Vec<Value>, Wsd)],
    grouping: &[Expr],
    aggs: &[(AggSpec, String)],
) -> Option<Expected> {
    // Key, standard aggregate states, argmax's best and the rows at it.
    type Group = (Vec<Value>, Vec<AggState>, Option<Value>, Vec<Vec<Value>>);
    let engine = |e: EngineError| Expected::Message(engine_message(e));
    let mut groups: Vec<Group> = Vec::new();
    for (row, wsd) in rows {
        let key = match grouping.iter().map(|e| e.eval_values(row)).collect() {
            Ok(k) => k,
            Err(e) => return Some(engine(e)),
        };
        let g = match groups.iter().position(|(k, ..)| *k == key) {
            Some(g) => g,
            None => {
                let states = aggs
                    .iter()
                    .map(|(s, _)| match s {
                        AggSpec::Std { func, .. } => AggState::new(*func),
                        _ => AggState::new(AggFunc::Count),
                    })
                    .collect();
                groups.push((key, states, None, Vec::new()));
                groups.len() - 1
            }
        };
        let (_, states, best, tied) = &mut groups[g];
        for (i, (spec, _)) in aggs.iter().enumerate() {
            let mut step = || -> Result<(), Expected> {
                let eval = |e: &Expr| e.eval_values(row).map_err(engine);
                match spec {
                    AggSpec::ESum(e) => {
                        let v = eval(e)?;
                        if !v.is_null() && v.as_f64().is_none() {
                            let m = format!("typing error: esum over non-numeric value {v}");
                            return Err(Expected::Message(m));
                        }
                    }
                    AggSpec::ECount(Some(e)) => {
                        eval(e)?;
                    }
                    AggSpec::Std { .. } if !wsd.is_tautology() => {
                        return Err(Expected::Rule("standard SQL aggregates"))
                    }
                    AggSpec::ArgMax { .. } if !wsd.is_tautology() => {
                        return Err(Expected::Rule("argmax requires a t-certain"))
                    }
                    AggSpec::Std { arg: Some(e), .. } => {
                        states[i].fold(&eval(e)?).map_err(engine)?
                    }
                    AggSpec::ArgMax { value, .. } => {
                        let v = eval(value)?;
                        if v.is_null() || best.as_ref().is_some_and(|b| v < *b) {
                            return Ok(());
                        }
                        if best.as_ref() != Some(&v) {
                            tied.clear();
                        }
                        tied.push(row.clone());
                        *best = Some(v);
                    }
                    _ => {}
                }
                Ok(())
            };
            if let Err(e) = step() {
                return Some(e);
            }
        }
    }
    // `argmax`'s arg runs after the scan, over each group's final ties.
    let [(AggSpec::ArgMax { arg, .. }, _)] = aggs else {
        return None;
    };
    let tied = groups.iter().flat_map(|(.., rows)| rows);
    tied.map(|row| arg.eval_values(row))
        .find_map(|r| r.err().map(engine))
}

/// The scalar walk of `steps` over `source` and the grouped fold behind
/// it: the first error either raises.
fn scalar_error(
    source: &URelation,
    steps: &[Step],
    grouping: &[Expr],
    aggs: &[(AggSpec, String)],
) -> Option<Expected> {
    match fused_chain(source, steps) {
        Ok(rows) => scalar_first_error(&rows, grouping, aggs),
        Err((at, e)) => {
            // The rows the walk let through before its error fold first.
            let before: Vec<usize> = (0..at).collect();
            let rows = fused_chain(&source.gather(&before), steps).expect("rows before the error");
            scalar_first_error(&rows, grouping, aggs).or(Some(Expected::Message(engine_message(e))))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Values: every run agrees bit for bit, and with the naive oracle
    /// (conf / esum within 1e-9: it adds plain floats and walks the
    /// d-tree; ecount over certain rows is a count, so exact).
    #[test]
    fn grouped_batches_match_oracle(
        source in arb_source(),
        builds in prop::collection::vec(arb_build(), 3..4),
        probes in prop::collection::vec((0u8..3, prop_oneof![Just(false), Just(true)]), 0..4),
        key_pick in 0u8..7,
        menu in 0u8..6,
    ) {
        let wt = world();
        let (source, steps, grouping, aggs) = case(source, builds, &probes, key_pick, menu);
        common::check_chain(&source, &steps);
        let got = runs(&source, &steps, &grouping, &aggs, &wt);
        let rows = fused_chain(&source, &steps).expect("the chain is total");
        let arity = rows.first().map_or(0, |(r, _)| r.len());
        let names: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let eager = relation(&names, rows);
        let want = aggregate_u(&eager, &grouping, &aggs, &wt, ACONF_SEED);
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                prop_assert_eq!(g.len(), w.len(), "rows");
                for (g, w) in g.iter().zip(w) {
                    let (gk, ga) = g.split_at(grouping.len());
                    let (wk, wa) = w.split_at(grouping.len());
                    prop_assert_eq!(format!("{gk:?}"), format!("{wk:?}"), "keys");
                    for ((g, w), (spec, name)) in ga.iter().zip(wa).zip(&aggs) {
                        let exact = match spec {
                            AggSpec::Conf | AggSpec::ESum(_) => false,
                            AggSpec::ECount(_) => eager.is_t_certain(),
                            _ => true,
                        };
                        let close = match (g.as_f64(), w.as_f64()) {
                            (Some(g), Some(w)) if !exact => (g - w).abs() <= 1e-9,
                            _ => format!("{g:?}") == format!("{w:?}"),
                        };
                        prop_assert!(close, "{}: {:?} vs oracle {:?}", name, g, w);
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (w, g) => prop_assert!(false, "oracle {:?} vs batch path {:?}", w, g),
        }
    }

    /// Errors: keys that divide by zero, slots that divide by zero, meet
    /// text (`sum`, `esum`), mix text and numbers (`min`, `max`) or meet
    /// an uncertain row, and a σ stage that divides by zero, all at
    /// generated rows — every run raises the error the scalar walk meets
    /// first, message included.
    #[test]
    fn first_error_matches_the_scalar_walk(
        rows in prop::collection::vec(
            ((0i64..3, 0i64..4, 0i64..4), prop_oneof![number(), Just(Value::str("t"))], 0u8..12),
            0..14,
        ),
        guard in prop_oneof![Just(false), Just(true)],
        probe in prop_oneof![Just(false), Just(true)],
        key_pick in 0u8..3,
        slots in prop::collection::vec(0u8..10, 1..4),
    ) {
        let wt = world();
        // (k, x, d, e): `10 / d` and `10 / e` raise where d or e is 0.
        let rows = rows
            .into_iter()
            .map(|((k, d, e), x, u)| {
                let w = if u == 0 { Wsd::of(Var(0), 0) } else { Wsd::tautology() };
                (vec![Value::Int(k), x, Value::Int(d), Value::Int(e)], w)
            })
            .collect();
        let source = relation(&["k", "x", "d", "e"], rows);
        let ten_over = |c: usize| Expr::lit(10i64).binary(BinaryOp::Div, Expr::ColumnIdx(c));
        let mut steps = Vec::new();
        if guard {
            steps.push(Step::Filter(ten_over(3).binary(BinaryOp::Gt, Expr::lit(-100i64))));
        }
        if probe {
            let dims = (0..3).map(|k| (vec![Value::Int(k), Value::Int(k % 2)], Wsd::tautology()));
            steps.push(Step::Probe {
                build: relation(&["bk", "bv"], dims.collect()),
                left_keys: vec![0],
                right_keys: vec![0],
            });
        }
        let grouping = match key_pick {
            0 => vec![],
            1 => vec![Expr::ColumnIdx(0)],
            _ => vec![Expr::ColumnIdx(0), ten_over(2)],
        };
        let std = |func, arg| AggSpec::Std { func, arg: Some(arg) };
        let aggs: Vec<(AggSpec, String)> = match slots[0] {
            7 => vec![(AggSpec::ArgMax { arg: ten_over(2), value: Expr::ColumnIdx(1) }, "a".into())],
            _ => slots
                .iter()
                .map(|s| match s {
                    0 => std(AggFunc::Sum, Expr::ColumnIdx(1)),
                    1 => AggSpec::ESum(Expr::ColumnIdx(1)),
                    2 => std(AggFunc::Count, ten_over(2)),
                    3 => std(AggFunc::Min, ten_over(3)),
                    4 => std(AggFunc::Avg, ten_over(3)),
                    5 => AggSpec::ECount(Some(ten_over(2))),
                    8 => std(AggFunc::Min, Expr::ColumnIdx(1)),
                    9 => std(AggFunc::Max, Expr::ColumnIdx(1)),
                    _ => AggSpec::Std { func: AggFunc::Count, arg: None },
                })
                .enumerate()
                .map(|(i, a)| (a, format!("a{i}")))
                .collect(),
        };
        let want = scalar_error(&source, &steps, &grouping, &aggs);
        let got = runs(&source, &steps, &grouping, &aggs, &wt);
        let agree = match (&want, &got) {
            (None, Ok(_)) => true,
            (Some(Expected::Message(w)), Err(g)) => g == w,
            (Some(Expected::Rule(w)), Err(g)) => g.starts_with("typing error: ") && g.contains(w),
            _ => false,
        };
        prop_assert!(agree, "scalar walk {:?} vs batch path {:?}", want, got);
    }
}

/// [`arb_source`]'s rows, some of them under a condition of probability
/// 0 (variable 3's alternative 1 in [`possible_world`]), led by a
/// zero-probability copy of the last row — which stays possible.
fn arb_possible_source() -> impl Strategy<Value = URelation> {
    let row = (
        (text(), bigint(), double()),
        (mixed(), number()),
        arb_wsd(),
        any::<bool>(),
    );
    prop::collection::vec(row, 1..16).prop_map(|rows| {
        let zero = |w: &Wsd| {
            w.conjoin(&Wsd::of(Var(3), 1))
                .expect("arb_wsd has no variable 3")
        };
        let n = rows.len();
        let mut out: Vec<(Vec<Value>, Wsd)> = Vec::new();
        for (i, ((kd, ki, kf), (km, x), w, impossible)) in rows.into_iter().enumerate() {
            let data = vec![kd, ki, kf, km, x];
            if i + 1 == n {
                out.insert(0, (data.clone(), zero(&Wsd::tautology())));
            }
            let w = match impossible && i + 1 < n {
                true => zero(&w),
                false => w,
            };
            out.push((data, w));
        }
        relation(&["kd", "ki", "kf", "km", "x"], out)
    })
}

/// [`world`] plus variable 3, whose alternative 1 has probability 0.
fn possible_world() -> WorldTable {
    let mut wt = world();
    wt.new_var(&[1.0, 0.0]).unwrap();
    wt
}

/// `sql` over the catalog `{t}`, its t-certain rows as values.
fn query_rows(sql: &str, t: URelation, wt: &mut WorldTable) -> Vec<Vec<Value>> {
    let catalog = BTreeMap::from([("t".to_string(), t)]);
    let stats = maybms_obs::QueryStats::new();
    let mut ctx = ExecCtx::new(&catalog, wt, &stats);
    let out = eval_query(&parse_query(sql).unwrap(), &mut ctx).unwrap();
    let maybms_core::QueryOutput::Certain(out) = out else {
        panic!("a t-certain result")
    };
    let rows = out.tuples();
    rows.iter().map(|t| t.values().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `select possible` ≡ `select distinct` over the rows whose
    /// probability is > 0, in the same order and with the same value
    /// variants: NULLs, `1` next to `1.0`, a zero-probability duplicate
    /// ahead of its possible twin, plain and dictionary-encoded text.
    #[test]
    fn possible_is_distinct_over_the_possible_rows(source in arb_possible_source()) {
        let mut wt = possible_world();
        let wsds = source.at_rest().1;
        let keep: Vec<usize> =
            (0..source.len()).filter(|&i| wsds[i].prob(&wt).unwrap() > 0.0).collect();
        let kept = source.gather_with(&keep, vec![Wsd::tautology(); keep.len()]);
        for cols in ["kd, ki, kf, km, x", "km", "kd, km", "x, kf"] {
            for dict in [false, true] {
                let layout = |u: &URelation| if dict { u.dict_encode() } else { u.clone() };
                let possible = format!("select possible {cols} from t");
                let got = query_rows(&possible, layout(&source), &mut wt);
                let distinct = format!("select distinct {cols} from t");
                let want = query_rows(&distinct, layout(&kept), &mut wt);
                prop_assert_eq!(
                    format!("{:?}", got), format!("{:?}", want),
                    "{}, dictionary-encoded {}", cols, dict
                );
            }
        }
    }
}

/// A dictionary holding a thousand entries per stored row (every row but
/// two deleted after encoding): grouping by it and probing it give the
/// plain-column twin's answer at every thread count.
#[test]
fn orphan_heavy_dictionary_groups_like_its_twin() {
    let names: Vec<String> = (0..2000).map(|i| format!("n{i}")).collect();
    let rows = names
        .iter()
        .enumerate()
        .map(|(i, n)| (vec![Value::str(n), Value::Int(i as i64)], Wsd::tautology()))
        .collect();
    let mut stored = relation(&["s", "v"], rows).dict_encode();
    let doomed: Vec<u32> = (0..2000).filter(|i| ![7, 1999].contains(i)).collect();
    stored.delete_rows(&doomed);
    assert_eq!(stored.len(), 2);
    let twin = URelation::new(stored.schema().clone(), stored.tuples().to_vec()).unwrap();
    let wt = WorldTable::new();
    let aggs = vec![
        (
            AggSpec::Std {
                func: AggFunc::Count,
                arg: None,
            },
            "n".to_string(),
        ),
        (
            AggSpec::Std {
                func: AggFunc::Max,
                arg: Some(Expr::ColumnIdx(1)),
            },
            "m".to_string(),
        ),
    ];
    let probe = vec![Step::Probe {
        build: stored.clone(),
        left_keys: vec![0],
        right_keys: vec![0],
    }];
    for steps in [Vec::new(), probe] {
        let grouping = [Expr::ColumnIdx(0)];
        let want = grouped(&twin, &steps, false, &grouping, &aggs, &wt, 1, 1).unwrap();
        assert_eq!(
            want,
            [
                vec![Value::str("n7"), Value::Int(1), Value::Int(7)],
                vec![Value::str("n1999"), Value::Int(1), Value::Int(1999)],
            ]
        );
        for threads in [1, 2, 8] {
            let got = grouped(&stored, &steps, true, &grouping, &aggs, &wt, threads, 1);
            assert_eq!(got.unwrap(), want, "{threads} threads");
        }
    }
}
