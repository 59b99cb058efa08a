//! Reference implementations the property tests compare against.
//!
//! * [`fused_chain`] — the row-major scalar walk of a σ/π/probe chain:
//!   the strict oracle (values, WSDs, order, first error) for the
//!   pipeline executor (`maybms_pipe::UStream`);
//! * seed-faithful "naive" operators, reproducing the pre-refactor
//!   algorithms exactly as the seed engine ran them — tuples
//!   **deep-copied** at every operator boundary, `distinct` cloning every
//!   surviving tuple twice, `repair key` grouping by an owned
//!   `Vec<Value>` per row. Correct, just allocation-heavy: the oracle for
//!   the operator-equivalence tests (`tests/op_equiv.rs`) and, applied per
//!   enumerated world, for the possible-worlds commutation properties
//!   (`tests/commutation.rs`).

use std::collections::{HashMap, HashSet};

use maybms_engine::{ops, EngineError, Expr, Relation, Tuple, Value};
use maybms_urel::{URelation, UTuple, Wsd};

/// One stage of a fused chain. Expressions are bound (`ColumnIdx`) to
/// the incoming row shape; a probe emits `row ++ build row`.
pub enum Step {
    /// σ
    Filter(Expr),
    /// π
    Project(Vec<Expr>),
    /// Equi-join against `build` on positional keys (NULL never matches).
    Probe { build: URelation, left_keys: Vec<usize>, right_keys: Vec<usize> },
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
    fn walk(row: &[Value], wsd: &Wsd, steps: &[Step], out: &mut Out) -> Result<(), EngineError> {
        let Some((step, rest)) = steps.split_first() else {
            out.push((row.to_vec(), wsd.clone()));
            return Ok(());
        };
        match step {
            Step::Filter(p) if p.eval_predicate_values(row)? => walk(row, wsd, rest, out)?,
            Step::Filter(_) => {}
            Step::Project(es) => {
                let vals: Vec<Value> =
                    es.iter().map(|e| e.eval_values(row)).collect::<Result<_, _>>()?;
                walk(&vals, wsd, rest, out)?;
            }
            Step::Probe { build, left_keys, right_keys } => {
                for b in build.tuples() {
                    let brow = b.data.values();
                    let keys_eq = left_keys
                        .iter()
                        .zip(right_keys)
                        .all(|(&l, &r)| row[l].sql_eq(&brow[r]) == Some(true));
                    if let (true, Some(w)) = (keys_eq, wsd.conjoin(&b.wsd)) {
                        walk(&[row, brow].concat(), &w, rest, out)?;
                    }
                }
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for (i, t) in source.tuples().iter().enumerate() {
        walk(t.data.values(), &t.wsd, steps, &mut out).map_err(|e| (i, e))?;
    }
    Ok(out)
}

/// Deep copy of a row: allocates and copies every value (the seed's clone
/// semantics, bypassing today's `Arc` sharing).
pub fn deep_clone(t: &Tuple) -> Tuple {
    Tuple::new(t.values().to_vec())
}

/// Seed `distinct`: the double clone (seen-set + output).
pub fn distinct(input: &Relation) -> Relation {
    let mut seen = HashSet::with_capacity(input.len());
    let mut out = Vec::new();
    for t in input.tuples() {
        if seen.insert(deep_clone(t)) {
            out.push(deep_clone(t));
        }
    }
    Relation::new_unchecked(input.schema().clone(), out)
}

/// Seed `sort`: decorate, sort, clone each tuple into place.
pub fn sort(input: &Relation, keys: &[ops::SortKey]) -> Result<Relation, EngineError> {
    let bound: Vec<(Expr, bool)> = keys
        .iter()
        .map(|k| Ok((k.expr.bind(input.schema())?, k.ascending)))
        .collect::<Result<_, EngineError>>()?;
    let mut decorated: Vec<(Vec<Value>, usize)> = Vec::with_capacity(input.len());
    for (i, t) in input.tuples().iter().enumerate() {
        let kv: Vec<Value> = bound
            .iter()
            .map(|(e, _)| e.eval(t))
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
        .map(|(_, i)| deep_clone(&input.tuples()[i]))
        .collect();
    Ok(Relation::new_unchecked(input.schema().clone(), tuples))
}

/// Seed `repair key`: SipHash `Vec<Value>`-keyed grouping, deep-cloned
/// output rows, and per-row heap-allocated WSD construction.
pub fn repair_key(
    input: &Relation,
    key_exprs: &[Expr],
    options: &maybms_urel::repair::RepairKeyOptions,
    wt: &mut maybms_urel::WorldTable,
) -> maybms_urel::Result<URelation> {
    use maybms_urel::{Assignment, UrelError, Wsd};
    let weights: Vec<f64> = match &options.weight {
        None => vec![1.0; input.len()],
        Some(w) => {
            let bound = w.bind(input.schema())?;
            let mut ws = Vec::with_capacity(input.len());
            for t in input.tuples() {
                let v = bound.eval(t)?;
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
    for (i, t) in input.tuples().iter().enumerate() {
        let key: Vec<Value> = bound
            .iter()
            .map(|e| e.eval(t))
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
        let alive: Vec<usize> =
            indices.iter().copied().filter(|&i| weights[i] > 0.0).collect();
        if alive.is_empty() {
            return Err(UrelError::BadWeight {
                message: "all weights in a repair-key group are zero".into(),
            });
        }
        if alive.len() == 1 {
            out.push(UTuple::certain(deep_clone(&input.tuples()[alive[0]])));
            continue;
        }
        let total: f64 = alive.iter().map(|&i| weights[i]).sum();
        let probs: Vec<f64> = alive.iter().map(|&i| weights[i] / total).collect();
        let var = wt.new_var(&probs)?;
        for (alt, &i) in alive.iter().enumerate() {
            let wsd = Wsd::from_assignments(vec![Assignment::new(var, alt as u16)])
                .expect("single assignment is satisfiable");
            out.push(UTuple::new(deep_clone(&input.tuples()[i]), wsd));
        }
    }
    Ok(URelation::new(input.schema().clone(), out))
}

/// Seed `pick tuples`: deep-cloned rows and heap-built single-assignment
/// WSDs.
pub fn pick_tuples(
    input: &Relation,
    options: &maybms_urel::pick::PickTuplesOptions,
    wt: &mut maybms_urel::WorldTable,
) -> maybms_urel::Result<URelation> {
    use maybms_urel::{Assignment, UrelError, Wsd};
    let bound =
        options.probability.as_ref().map(|e| e.bind(input.schema())).transpose()?;
    let mut out = Vec::with_capacity(input.len());
    for t in input.tuples() {
        let p = match &bound {
            None => 0.5,
            Some(e) => {
                let v = e.eval(t)?;
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
            out.push(UTuple::certain(deep_clone(t)));
            continue;
        }
        let var = wt.new_var(&[1.0 - p, p])?;
        let wsd = Wsd::from_assignments(vec![Assignment::new(var, 1)])
            .expect("single assignment is satisfiable");
        out.push(UTuple::new(deep_clone(t), wsd));
    }
    Ok(URelation::new(input.schema().clone(), out))
}
