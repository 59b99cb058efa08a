//! Reference implementations the property tests compare against.
//!
//! * [`fused_chain`] — the row-major scalar walk of a σ/π/probe chain:
//!   the strict oracle (values, WSDs, order, first error) for the
//!   pipeline executor (`maybms_pipe::UStream`);
//! * [`nested_loop_join`] — nested loops, then filter: the oracle for
//!   the join planner (`maybms_core::exec`), which may reorder sources,
//!   derive predicates and pick build sides but not change the bag;
//! * [`aggregate_u`] — grouped aggregation over a materialised
//!   U-relation by linear-scan grouping and plain sums: the oracle for
//!   the one aggregator the product has, the streaming group breaker
//!   (`maybms_core::agg::aggregate_stream`);
//! * seed-faithful "naive" operators, reproducing the pre-refactor
//!   algorithms exactly as the seed engine ran them — tuples
//!   **deep-copied** at every operator boundary, `distinct` cloning every
//!   surviving tuple twice, `repair key` grouping by an owned
//!   `Vec<Value>` per row. Correct, just allocation-heavy: the oracle for
//!   the operator-equivalence tests (`tests/op_equiv.rs`) and, applied per
//!   enumerated world, for the possible-worlds commutation properties
//!   (`tests/commutation.rs`).

use std::collections::{HashMap, HashSet};

use maybms_conf::{confidence_with_effort, ConfMethod, Dnf};
use maybms_core::translate::AggSpec;
use maybms_engine::{ops, EngineError, Expr, Tuple, Value};
use maybms_urel::{URelation, UTuple, WorldTable, Wsd};

/// One stage of a fused chain. Expressions are bound (`ColumnIdx`) to
/// the incoming row shape; a probe emits `row ++ build row`.
pub enum Step {
    /// σ
    Filter(Expr),
    /// π
    Project(Vec<Expr>),
    /// Equi-join against `build` on positional keys (NULL never matches).
    Probe {
        build: URelation,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    },
}

/// Row-major scalar reference for a fused chain: each source row, in
/// order, goes depth-first through every step with the scalar evaluator;
/// probes scan the build side in order and keep satisfiable WSD
/// conjunctions. Stops at the first error, reporting its source row.
#[allow(clippy::type_complexity)]
pub fn fused_chain(
    source: &URelation,
    steps: &[Step],
) -> Result<Vec<(Vec<Value>, Wsd)>, (usize, EngineError)> {
    type Out = Vec<(Vec<Value>, Wsd)>;
    /// `builds[k]`: the rows of step `k`'s build side (empty for a
    /// non-probe step), built once for the whole walk.
    fn walk(
        row: &[Value],
        wsd: &Wsd,
        steps: &[Step],
        builds: &[Vec<UTuple>],
        out: &mut Out,
    ) -> Result<(), EngineError> {
        let Some((step, rest)) = steps.split_first() else {
            out.push((row.to_vec(), wsd.clone()));
            return Ok(());
        };
        let (build, builds) = builds.split_first().expect("one entry a step");
        match step {
            Step::Filter(p) if p.eval_predicate_values(row)? => walk(row, wsd, rest, builds, out)?,
            Step::Filter(_) => {}
            Step::Project(es) => {
                let vals: Vec<Value> = es
                    .iter()
                    .map(|e| e.eval_values(row))
                    .collect::<Result<_, _>>()?;
                walk(&vals, wsd, rest, builds, out)?;
            }
            Step::Probe {
                left_keys,
                right_keys,
                ..
            } => {
                for b in build {
                    let brow = b.values();
                    let keys_eq = left_keys
                        .iter()
                        .zip(right_keys)
                        .all(|(&l, &r)| row[l].sql_eq(&brow[r]) == Some(true));
                    if let (true, Some(w)) = (keys_eq, wsd.conjoin(&b.wsd)) {
                        walk(&[row, brow].concat(), &w, rest, builds, out)?;
                    }
                }
            }
        }
        Ok(())
    }
    let builds: Vec<Vec<UTuple>> = steps
        .iter()
        .map(|s| match s {
            Step::Probe { build, .. } => build.tuples(),
            _ => Vec::new(),
        })
        .collect();
    let mut out = Vec::new();
    for (i, t) in source.tuples().iter().enumerate() {
        walk(t.values(), &t.wsd, steps, &builds, &mut out).map_err(|e| (i, e))?;
    }
    Ok(out)
}

/// Nested loops, then filter — what a SELECT block's FROM + WHERE mean:
/// every combination of one row per source (data concatenated in
/// `sources` order, conditions conjoined, unsatisfiable combinations
/// dropped) on which every predicate, bound to the concatenated schema,
/// holds. Combinations come out in odometer order, the last source
/// fastest; the planner under test promises only the bag.
pub fn nested_loop_join(
    sources: &[URelation],
    predicates: &[Expr],
) -> Result<Vec<(Vec<Value>, Wsd)>, EngineError> {
    let mut out: Vec<(Vec<Value>, Wsd)> = vec![(Vec::new(), Wsd::tautology())];
    for source in sources {
        let rows = source.tuples();
        let mut next = Vec::new();
        for (row, wsd) in &out {
            for t in &rows {
                if let Some(w) = wsd.conjoin(&t.wsd) {
                    next.push(([row.as_slice(), t.data.values()].concat(), w));
                }
            }
        }
        out = next;
    }
    let mut kept = Vec::new();
    for (row, wsd) in out {
        let mut holds = true;
        for p in predicates {
            holds = holds && p.eval_predicate_values(&row)?;
        }
        if holds {
            kept.push((row, wsd));
        }
    }
    Ok(kept)
}

/// Deliberately naive grouped aggregation over a materialised
/// U-relation: rows `group keys ++ aggregate values`, groups in
/// first-seen order (found by linear scan, keys compared with `==`; no
/// GROUP BY is one group, even over no rows). Per group, in member order:
///
/// * `conf` — exact confidence of the DNF of the member WSDs (always the
///   d-tree; the product takes `1 − Π(1 − pᵢ)` over tuple-independent
///   members instead, so compare within a tolerance);
/// * `esum` / `ecount` — the plain `f64` sum Σ value · P(wsd) (the
///   product sums exactly and rounds once: tolerance again, except that
///   over t-certain members both are exact);
/// * `aconf` — the same DNF under seed `seed + g·n_aconf + j` for group
///   `g`'s `j`-th (1-based) `aconf` slot, the documented numbering:
///   bit-equal to the product;
/// * the standard aggregates (plain arithmetic over the non-NULL
///   argument values — float sums by `+=`, which is exact, so bit-equal
///   to the product, only while the values are small dyadic rationals as
///   in the property generators) and `argmax` (one row per distinct arg
///   value attaining the maximum; a group with no non-NULL value emits
///   nothing) — t-certain members only.
///
/// `Err` carries a message; tests compare only that both sides fail.
pub fn aggregate_u(
    u: &URelation,
    grouping: &[Expr],
    aggs: &[(AggSpec, String)],
    wt: &WorldTable,
    seed: u64,
) -> Result<Vec<Vec<Value>>, String> {
    fn msg<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<T, String> {
        r.map_err(|e| e.to_string())
    }
    let rows = u.tuples();
    let mut groups: Vec<(Vec<Value>, Vec<&UTuple>)> = Vec::new();
    if grouping.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    for t in &rows {
        let key: Vec<Value> = msg(grouping.iter().map(|e| e.eval(&t.data)).collect())?;
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(t),
            None => groups.push((key, vec![t])),
        }
    }
    // Shape rules: tconf is per-tuple, argmax stands alone.
    if aggs.iter().any(|(s, _)| matches!(s, AggSpec::TConf))
        || (aggs.len() > 1
            && aggs
                .iter()
                .any(|(s, _)| matches!(s, AggSpec::ArgMax { .. })))
    {
        return Err("tconf() cannot be grouped; argmax cannot be combined".into());
    }
    let n_aconf = aggs
        .iter()
        .filter(|(s, _)| matches!(s, AggSpec::AConf { .. }))
        .count();
    let mut out = Vec::new();
    for (g, (key, members)) in groups.iter().enumerate() {
        let certain = members.iter().all(|t| t.wsd.is_tautology());
        if aggs.is_empty() && !certain {
            return Err("DISTINCT over an uncertain relation".into());
        }
        if let [(AggSpec::ArgMax { arg, value }, _)] = aggs {
            if !certain {
                return Err("argmax over uncertain rows".into());
            }
            let mut scored = Vec::new();
            for t in members {
                scored.push((msg(value.eval(&t.data))?, *t));
            }
            let best = scored.iter().map(|(v, _)| v).filter(|v| !v.is_null()).max();
            let mut winners: Vec<Value> = Vec::new();
            for (_, t) in scored.iter().filter(|(v, _)| Some(v) == best) {
                let a = msg(arg.eval(&t.data))?;
                if !winners.contains(&a) {
                    winners.push(a);
                }
            }
            out.extend(winners.into_iter().map(|a| [key.clone(), vec![a]].concat()));
            continue;
        }
        // Confidence of the group's lineage: the DNF of its member WSDs.
        let conf = |method| -> Result<Value, String> {
            let dnf = Dnf::from_wsds(members.iter().map(|t| &t.wsd));
            msg(Value::float(
                msg(confidence_with_effort(&dnf, wt, method))?.0,
            ))
        };
        let mut row = key.clone();
        let mut aconf_slot = 0;
        for (spec, _) in aggs {
            row.push(match spec {
                AggSpec::Conf => conf(ConfMethod::Exact)?,
                AggSpec::AConf { epsilon, delta } => {
                    aconf_slot += 1;
                    let seed = seed.wrapping_add((g * n_aconf + aconf_slot) as u64);
                    conf(ConfMethod::Approx {
                        epsilon: *epsilon,
                        delta: *delta,
                        seed,
                    })?
                }
                AggSpec::ESum(e) => {
                    let mut sum = 0.0;
                    for t in members {
                        let v = msg(e.eval(&t.data))?;
                        if !v.is_null() {
                            let x = v.as_f64().ok_or(format!("esum over non-numeric {v}"))?;
                            sum += x * msg(t.wsd.prob(wt))?;
                        }
                    }
                    msg(Value::float(sum))?
                }
                AggSpec::ECount(e) => {
                    let mut sum = 0.0;
                    for t in members {
                        let counted = match e {
                            Some(e) => !msg(e.eval(&t.data))?.is_null(),
                            None => true,
                        };
                        if counted {
                            sum += msg(t.wsd.prob(wt))?;
                        }
                    }
                    msg(Value::float(sum))?
                }
                AggSpec::Std { .. } if !certain => {
                    return Err("standard aggregate over uncertain rows".into())
                }
                AggSpec::Std { func, arg } => {
                    let mut vals = Vec::new();
                    for t in members {
                        let v = match arg {
                            None => Value::Bool(true),
                            Some(e) => msg(e.eval(&t.data))?,
                        };
                        if !v.is_null() {
                            vals.push(v);
                        }
                    }
                    std_aggregate(*func, &vals)?
                }
                AggSpec::ArgMax { .. } | AggSpec::TConf => {
                    unreachable!("alone by the shape rule; argmax handled, tconf rejected")
                }
            });
        }
        out.push(row);
    }
    Ok(out)
}

/// A standard SQL aggregate over a group's non-NULL argument values, in
/// plain arithmetic: integer sums in `i128`, float sums by `+=` in member
/// order, `min`/`max` the first-seen extremum.
fn std_aggregate(func: ops::AggFunc, vals: &[Value]) -> Result<Value, String> {
    use ops::AggFunc::*;
    let numeric = |v: &Value| matches!(v, Value::Int(_) | Value::Float(_));
    match func {
        Count => Ok(Value::Int(vals.len() as i64)),
        Sum | Avg => {
            if let Some(v) = vals.iter().find(|v| !numeric(v)) {
                return Err(format!("{}() over non-numeric {v}", func.name()));
            }
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let ints: Option<Vec<i128>> = vals
                .iter()
                .map(|v| {
                    if let Value::Int(i) = v {
                        Some(i128::from(*i))
                    } else {
                        None
                    }
                })
                .collect();
            if let (Sum, Some(ints)) = (func, ints) {
                let total: i128 = ints.iter().sum();
                return i64::try_from(total)
                    .map(Value::Int)
                    .map_err(|e| e.to_string());
            }
            let total: f64 = vals.iter().filter_map(Value::as_f64).sum();
            let out = if func == Sum {
                total
            } else {
                total / vals.len() as f64
            };
            Value::float(out).map_err(|e| e.to_string())
        }
        Min | Max => {
            let Some(first) = vals.first() else {
                return Ok(Value::Null);
            };
            let same_class = |v: &Value| {
                (numeric(v) && numeric(first))
                    || std::mem::discriminant(v) == std::mem::discriminant(first)
            };
            if !vals.iter().all(same_class) {
                return Err(format!("{}() over mixed value classes", func.name()));
            }
            let mut best = first;
            for v in vals {
                if if func == Min { v < best } else { v > best } {
                    best = v;
                }
            }
            Ok(best.clone())
        }
    }
}

/// Deep copy of a row: allocates and copies every value (the seed's clone
/// semantics, bypassing today's `Arc` sharing).
pub fn deep_clone(t: &Tuple) -> Tuple {
    Tuple::new(t.values().to_vec())
}

/// Seed `distinct`: the double clone (seen-set + output).
pub fn distinct(input: &URelation) -> URelation {
    let mut seen = HashSet::with_capacity(input.len());
    let mut out = Vec::new();
    for t in input.tuples() {
        if seen.insert(deep_clone(&t.data)) {
            out.push(UTuple::certain(deep_clone(&t.data)));
        }
    }
    URelation::new(input.schema().clone(), out).expect("rows of the input's arity")
}

/// Seed `sort`: decorate, sort, clone each tuple into place.
pub fn sort(input: &URelation, keys: &[ops::SortKey]) -> Result<URelation, EngineError> {
    let bound: Vec<(Expr, bool)> = keys
        .iter()
        .map(|k| Ok((k.expr.bind(input.schema())?, k.ascending)))
        .collect::<Result<_, EngineError>>()?;
    let rows = input.tuples();
    let mut decorated: Vec<(Vec<Value>, usize)> = Vec::with_capacity(input.len());
    for (i, t) in rows.iter().enumerate() {
        let kv: Vec<Value> = bound
            .iter()
            .map(|(e, _)| e.eval(&t.data))
            .collect::<Result<_, EngineError>>()?;
        decorated.push((kv, i));
    }
    decorated.sort_by(|(ka, ia), (kb, ib)| {
        for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&bound) {
            let ord = a.cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        ia.cmp(ib)
    });
    let tuples = decorated
        .into_iter()
        .map(|(_, i)| UTuple::certain(deep_clone(&rows[i].data)))
        .collect();
    Ok(URelation::new(input.schema().clone(), tuples).expect("rows of the input's arity"))
}

/// Seed `repair key`: SipHash `Vec<Value>`-keyed grouping, deep-cloned
/// output rows, and per-row heap-allocated WSD construction.
pub fn repair_key(
    input: &URelation,
    key_exprs: &[Expr],
    options: &maybms_urel::repair::RepairKeyOptions,
    wt: &mut maybms_urel::WorldTable,
) -> maybms_urel::Result<URelation> {
    use maybms_urel::{Assignment, UrelError, Wsd};
    let rows = input.tuples();
    let weights: Vec<f64> = match &options.weight {
        None => vec![1.0; input.len()],
        Some(w) => {
            let bound = w.bind(input.schema())?;
            let mut ws = Vec::with_capacity(input.len());
            for t in &rows {
                let v = bound.eval(&t.data)?;
                let x = v.as_f64().ok_or_else(|| UrelError::BadWeight {
                    message: format!("weight expression produced non-numeric value {v}"),
                })?;
                if !x.is_finite() || x < 0.0 {
                    return Err(UrelError::BadWeight {
                        message: format!("weight {x} is negative or not finite"),
                    });
                }
                ws.push(x);
            }
            ws
        }
    };
    // Seed grouping: one owned Vec<Value> key per row into a SipHash map.
    let bound: Vec<Expr> = key_exprs
        .iter()
        .map(|e| e.bind(input.schema()))
        .collect::<Result<_, EngineError>>()?;
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, t) in rows.iter().enumerate() {
        let key: Vec<Value> = bound
            .iter()
            .map(|e| e.eval(&t.data))
            .collect::<Result<_, EngineError>>()?;
        match index.get(&key) {
            Some(&g) => groups[g].push(i),
            None => {
                index.insert(key, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    let mut out = Vec::with_capacity(input.len());
    for indices in groups {
        let alive: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| weights[i] > 0.0)
            .collect();
        if alive.is_empty() {
            return Err(UrelError::BadWeight {
                message: "all weights in a repair-key group are zero".into(),
            });
        }
        if alive.len() == 1 {
            out.push(UTuple::certain(deep_clone(&rows[alive[0]].data)));
            continue;
        }
        let total: f64 = alive.iter().map(|&i| weights[i]).sum();
        let probs: Vec<f64> = alive.iter().map(|&i| weights[i] / total).collect();
        let var = wt.new_var(&probs)?;
        for (alt, &i) in alive.iter().enumerate() {
            let wsd = Wsd::from_assignments(vec![Assignment::new(var, alt as u16)])
                .expect("single assignment is satisfiable");
            out.push(UTuple::new(deep_clone(&rows[i].data), wsd));
        }
    }
    URelation::new(input.schema().clone(), out)
}

/// Seed `pick tuples`: deep-cloned rows and heap-built single-assignment
/// WSDs.
pub fn pick_tuples(
    input: &URelation,
    options: &maybms_urel::pick::PickTuplesOptions,
    wt: &mut maybms_urel::WorldTable,
) -> maybms_urel::Result<URelation> {
    use maybms_urel::{Assignment, UrelError, Wsd};
    let bound = options
        .probability
        .as_ref()
        .map(|e| e.bind(input.schema()))
        .transpose()?;
    let mut out = Vec::with_capacity(input.len());
    for t in input.tuples() {
        let p = match &bound {
            None => 0.5,
            Some(e) => {
                let v = e.eval(&t.data)?;
                v.as_f64().ok_or_else(|| UrelError::BadProbability {
                    message: format!("probability expression produced non-numeric value {v}"),
                })?
            }
        };
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(UrelError::BadProbability {
                message: format!("tuple probability {p} outside [0, 1]"),
            });
        }
        if p == 0.0 {
            continue;
        }
        if p == 1.0 {
            out.push(UTuple::certain(deep_clone(&t.data)));
            continue;
        }
        let var = wt.new_var(&[1.0 - p, p])?;
        let wsd = Wsd::from_assignments(vec![Assignment::new(var, 1)])
            .expect("single assignment is satisfiable");
        out.push(UTuple::new(deep_clone(&t.data), wsd));
    }
    URelation::new(input.schema().clone(), out)
}
