//! `repair key` (§2.2, construct 2): the hypothesis-space generator.
//!
//! Conceptually, `repair key K in R` "nondeterministically chooses a
//! maximal repair of key K in R": it removes a minimal set of tuples so
//! that K becomes a key, and each way of doing so is one possible world.
//! Operationally (Figure 1): group `R` by `K`; for each group introduce a
//! fresh random variable whose alternatives are the group's tuples, with
//! probabilities proportional to the `weight by` expression (uniform when
//! absent); emit every tuple conditioned on its `(variable ↦ alternative)`
//! pair. Choices of different groups are pairwise independent; the
//! alternatives within a group are mutually exclusive.

use maybms_engine::group::GroupTable;
use maybms_engine::vector::{self, KernelCounts};
use maybms_engine::{EngineError, Expr, ValueRef};

use crate::error::{Result, UrelError};
use crate::urelation::URelation;
use crate::world_table::WorldTable;
use crate::wsd::Wsd;

/// Options for [`repair_key`].
#[derive(Debug, Clone, Default)]
pub struct RepairKeyOptions {
    /// `weight by` expression (evaluated per input tuple); `None` = uniform.
    pub weight: Option<Expr>,
}

/// Apply `repair key` to a t-certain relation, registering fresh
/// variables in `wt`: [`repair_key_u`] without a kernel tally.
pub fn repair_key(
    input: &URelation,
    key_exprs: &[Expr],
    options: &RepairKeyOptions,
    wt: &mut WorldTable,
) -> Result<URelation> {
    repair_key_u(input, key_exprs, options, wt, &mut KernelCounts::default())
}

/// `repair key` over a U-relation input, registering fresh variables in
/// `wt`. `key_exprs` are the key attributes (any scalar expressions over
/// the input are accepted, matching `repair key <attributes>`). The input
/// must be t-certain — the language's typing rule (§2.2 maps t-certain →
/// uncertain) — and the output gathers the kept tuples' columns.
///
/// Tuples with weight 0 are possible in *no* repair and are dropped.
/// Negative, NaN, or non-numeric weights are errors, as is a group whose
/// weights sum to 0. A failed call leaves `wt` as it found it.
///
/// The output schema equals the input schema (Figure 1: `R2` has the same
/// data columns as `FT`, plus conditions). The weight and key
/// expressions' kernel batches are counted in `kernels`, failed or not.
pub fn repair_key_u(
    input: &URelation,
    key_exprs: &[Expr],
    options: &RepairKeyOptions,
    wt: &mut WorldTable,
    kernels: &mut KernelCounts,
) -> Result<URelation> {
    if !input.is_t_certain() {
        return Err(UrelError::NotTCertain {
            operation: "repair key".into(),
        });
    }
    let vars = wt.num_vars();
    let (sel, wsds) =
        repair(input, key_exprs, options, wt, kernels).inspect_err(|_| wt.truncate(vars))?;
    Ok(input.gather_with(&sel, wsds))
}

/// The tuples of `input` a `repair key` keeps, in output order, and the
/// condition each exists under.
fn repair(
    input: &URelation,
    key_exprs: &[Expr],
    options: &RepairKeyOptions,
    wt: &mut WorldTable,
    kernels: &mut KernelCounts,
) -> Result<(Vec<usize>, Vec<Wsd>)> {
    // Weights first: their errors come before any key's.
    let weights = match &options.weight {
        None => vec![1.0; input.len()],
        Some(w) => {
            let bad = |message| UrelError::BadWeight { message };
            let (ws, err) = numbers(w, input, "weight", bad, kernels)?;
            if let Some(x) = ws.iter().find(|x| !x.is_finite() || **x < 0.0) {
                return Err(bad(format!("weight {x} is negative or not finite")));
            }
            err.map_or(Ok(ws), Err)?
        }
    };
    let bound: Vec<Expr> = key_exprs
        .iter()
        .map(|e| e.bind(input.schema()))
        .collect::<std::result::Result<_, EngineError>>()?;
    let mut table = GroupTable::new();
    let batch = input.at_rest().0;
    let (ids, err) = table.group_batch(&bound, batch, kernels, &|| ());
    if let Some(e) = err {
        return Err(e.into());
    }
    // Counting sort by group: groups in first-seen order, each group's
    // members in ascending row order.
    let mut starts = vec![0usize; table.len() + 1];
    for &g in &ids {
        starts[g as usize + 1] += 1;
    }
    for g in 1..starts.len() {
        starts[g] += starts[g - 1];
    }
    let mut members = vec![0usize; ids.len()];
    let mut next = starts.clone();
    for (i, &g) in ids.iter().enumerate() {
        members[next[g as usize]] = i;
        next[g as usize] += 1;
    }

    let (mut sel, mut wsds) = (Vec::with_capacity(ids.len()), Vec::with_capacity(ids.len()));
    // Scratch buffers reused across groups (no per-group allocation).
    let mut alive: Vec<usize> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    for group in starts.windows(2).map(|w| &members[w[0]..w[1]]) {
        // Keep only alternatives with positive weight.
        alive.clear();
        alive.extend(group.iter().copied().filter(|&i| weights[i] > 0.0));
        if alive.is_empty() {
            return Err(UrelError::BadWeight {
                message: "all weights in a repair-key group are zero".into(),
            });
        }
        if alive.len() == 1 {
            // A single alternative is chosen with probability 1: the tuple
            // stays certain and no variable is spent.
            sel.push(alive[0]);
            wsds.push(Wsd::tautology());
            continue;
        }
        let total: f64 = alive.iter().map(|&i| weights[i]).sum();
        probs.clear();
        if total.is_finite() {
            probs.extend(alive.iter().map(|&i| weights[i] / total));
        } else {
            // Finite weights whose sum overflows: scale by the largest
            // first (only here, so every other distribution keeps its bits).
            let max = alive.iter().map(|&i| weights[i]).fold(0.0, f64::max);
            let total: f64 = alive.iter().map(|&i| weights[i] / max).sum();
            probs.extend(alive.iter().map(|&i| weights[i] / max / total));
        }
        let var = wt.new_var(&probs)?;
        for (alt, &i) in alive.iter().enumerate() {
            sel.push(i);
            wsds.push(Wsd::of(var, alt as u16));
        }
    }
    Ok((sel, wsds))
}

/// `e`'s value on each row of `input` as an `f64`, up to the first row
/// where it fails to evaluate or is not a number, and that row's error
/// (`bad` of a message naming the `what` expression). The caller checks
/// the range of the values before it: the scalar walk's first error.
/// The evaluation's kernel batches are counted in `kernels`.
pub(crate) fn numbers(
    e: &Expr,
    input: &URelation,
    what: &str,
    bad: fn(String) -> UrelError,
    kernels: &mut KernelCounts,
) -> Result<(Vec<f64>, Option<UrelError>)> {
    let e = e.bind(input.schema())?;
    let batch = input.at_rest().0;
    let (col, err) = vector::eval_batch(&e, batch, kernels);
    let mut xs = Vec::with_capacity(batch.rows());
    for j in 0..err.as_ref().map_or(batch.rows(), |(k, _)| *k) {
        match col.cell(j) {
            ValueRef::Int(i) => xs.push(i as f64),
            ValueRef::Float(f) => xs.push(f),
            _ => {
                let v = col.value_at(j);
                let message = format!("{what} expression produced non-numeric value {v}");
                return Ok((xs, Some(bad(message))));
            }
        }
    }
    Ok((xs, err.map(|(_, e)| e.into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::urelation::rel;
    use maybms_engine::{DataType, Value};

    /// The paper's FT fragment for Bryant (Figure 1).
    fn ft_bryant() -> URelation {
        rel(
            &[
                ("player", DataType::Text),
                ("init", DataType::Text),
                ("final", DataType::Text),
                ("p", DataType::Float),
            ],
            vec![
                vec!["Bryant".into(), "F".into(), "F".into(), Value::Float(0.8)],
                vec!["Bryant".into(), "F".into(), "SE".into(), Value::Float(0.05)],
                vec!["Bryant".into(), "F".into(), "SL".into(), Value::Float(0.15)],
                vec!["Bryant".into(), "SE".into(), "F".into(), Value::Float(0.1)],
                vec!["Bryant".into(), "SE".into(), "SE".into(), Value::Float(0.6)],
                vec!["Bryant".into(), "SE".into(), "SL".into(), Value::Float(0.3)],
                vec!["Bryant".into(), "SL".into(), "F".into(), Value::Float(0.8)],
                vec!["Bryant".into(), "SL".into(), "SL".into(), Value::Float(0.2)],
            ],
        )
    }

    #[test]
    fn figure1_r2_shape() {
        // repair key Player, Init in FT weight by p  →  Figure 1's R2.
        let mut wt = WorldTable::new();
        let r2 = repair_key(
            &ft_bryant(),
            &[Expr::col("player"), Expr::col("init")],
            &RepairKeyOptions {
                weight: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        // Three groups (F, SE, SL) → three variables x, y, z.
        assert_eq!(wt.num_vars(), 3);
        assert_eq!(r2.len(), 8);
        // Group F: probabilities 0.8 / 0.05 / 0.15 as printed in Figure 1.
        let p: Vec<f64> = r2.tuples()[..3]
            .iter()
            .map(|t| t.wsd.prob(&wt).unwrap())
            .collect();
        assert!((p[0] - 0.8).abs() < 1e-12);
        assert!((p[1] - 0.05).abs() < 1e-12);
        assert!((p[2] - 0.15).abs() < 1e-12);
        // Alternatives within a group are mutually exclusive: same var.
        let vars: Vec<_> = r2.tuples()[..3]
            .iter()
            .map(|t| t.wsd.assignments()[0].var)
            .collect();
        assert_eq!(vars[0], vars[1]);
        assert_eq!(vars[1], vars[2]);
        // Different groups use different (independent) variables.
        let v_f = r2.tuples()[0].wsd.assignments()[0].var;
        let v_se = r2.tuples()[3].wsd.assignments()[0].var;
        assert_ne!(v_f, v_se);
    }

    #[test]
    fn uniform_weights_when_absent() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int), ("v", DataType::Int)],
            vec![
                vec![1.into(), 10.into()],
                vec![1.into(), 20.into()],
                vec![1.into(), 30.into()],
            ],
        );
        let out = repair_key(&r, &[Expr::col("k")], &RepairKeyOptions::default(), &mut wt).unwrap();
        for t in out.tuples() {
            assert!((t.wsd.prob(&wt).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tuple_group_stays_certain() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int)],
            vec![vec![1.into()], vec![2.into()]],
        );
        let out = repair_key(&r, &[Expr::col("k")], &RepairKeyOptions::default(), &mut wt).unwrap();
        assert!(out.is_t_certain());
        assert_eq!(wt.num_vars(), 0);
    }

    #[test]
    fn empty_key_list_makes_one_group() {
        // repair key over no attributes: exactly one tuple survives per
        // world — a categorical choice over all tuples.
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int)],
            vec![
                vec![1.into()],
                vec![2.into()],
                vec![3.into()],
                vec![4.into()],
            ],
        );
        let out = repair_key(&r, &[], &RepairKeyOptions::default(), &mut wt).unwrap();
        assert_eq!(wt.num_vars(), 1);
        assert_eq!(wt.domain_size(crate::var::Var(0)).unwrap(), 4);
        let total: f64 = out.tuples().iter().map(|t| t.wsd.prob(&wt).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_alternatives_dropped() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.0)],
                vec![1.into(), Value::Float(2.0)],
                vec![1.into(), Value::Float(6.0)],
            ],
        );
        let out = repair_key(
            &r,
            &[Expr::col("k")],
            &RepairKeyOptions {
                weight: Some(Expr::col("w")),
            },
            &mut wt,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let p: Vec<f64> = out
            .tuples()
            .iter()
            .map(|t| t.wsd.prob(&wt).unwrap())
            .collect();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn negative_weight_rejected() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![vec![1.into(), Value::Float(-1.0)]],
        );
        let out = repair_key(
            &r,
            &[Expr::col("k")],
            &RepairKeyOptions {
                weight: Some(Expr::col("w")),
            },
            &mut wt,
        );
        assert!(matches!(out, Err(UrelError::BadWeight { .. })));
    }

    #[test]
    fn all_zero_group_rejected() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.0)],
                vec![1.into(), Value::Float(0.0)],
            ],
        );
        let out = repair_key(
            &r,
            &[Expr::col("k")],
            &RepairKeyOptions {
                weight: Some(Expr::col("w")),
            },
            &mut wt,
        );
        assert!(matches!(out, Err(UrelError::BadWeight { .. })));
    }

    /// Finite weights whose sum overflows `f64` still make a
    /// distribution; a group whose sum is finite keeps the plain
    /// quotients' bits.
    #[test]
    fn overflowing_weight_sum_is_rescaled() {
        let mut wt = WorldTable::new();
        let big = 2f64.powi(1023);
        let r = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(big)],
                vec![1.into(), Value::Float(big)],
                vec![1.into(), Value::Float(big / 2.0)],
                vec![2.into(), Value::Float(0.1)],
                vec![2.into(), Value::Float(0.2)],
            ],
        );
        let options = RepairKeyOptions {
            weight: Some(Expr::col("w")),
        };
        let out = repair_key(&r, &[Expr::col("k")], &options, &mut wt).unwrap();
        assert_eq!(out.len(), 5);
        let d = wt.distribution(crate::var::Var(0)).unwrap();
        assert_eq!(d, &[1.0 / 2.5, 1.0 / 2.5, 0.5 / 2.5]);
        let d = wt.distribution(crate::var::Var(1)).unwrap();
        let total = 0.1 + 0.2;
        assert_eq!(d, &[0.1 / total, 0.2 / total]);
    }

    /// Every variable's distribution, bit for bit.
    fn table_bits(wt: &WorldTable) -> Vec<Vec<u64>> {
        wt.distributions()
            .map(|d| d.iter().map(|p| p.to_bits()).collect())
            .collect()
    }

    /// A `repair key` that fails at a later group — all of its weights
    /// zero, or more alternatives than a variable can have — leaves the
    /// world table bit-identical to how it found it.
    #[test]
    fn failed_repair_leaves_the_world_table_unchanged() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.25, 0.75]).unwrap();
        let before = table_bits(&wt);
        let zero_last = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(1.0)],
                vec![1.into(), Value::Float(2.0)],
                vec![2.into(), Value::Float(1.0)],
                vec![2.into(), Value::Float(3.0)],
                vec![3.into(), Value::Float(0.0)],
            ],
        );
        let options = RepairKeyOptions {
            weight: Some(Expr::col("w")),
        };
        let out = repair_key(&zero_last, &[Expr::col("k")], &options, &mut wt);
        assert!(matches!(out, Err(UrelError::BadWeight { .. })), "{out:?}");
        assert_eq!(table_bits(&wt), before);
        let mut rows: Vec<Vec<Value>> = vec![vec![0.into()], vec![0.into()]];
        rows.extend((0..=u16::MAX as i64).map(|_| vec![1.into()]));
        let too_wide = rel(&[("k", DataType::Int)], rows);
        let out = repair_key(
            &too_wide,
            &[Expr::col("k")],
            &RepairKeyOptions::default(),
            &mut wt,
        );
        assert!(
            matches!(out, Err(UrelError::BadDistribution { .. })),
            "{out:?}"
        );
        assert_eq!(table_bits(&wt), before);
        // The table still works: the next variable takes the next id.
        assert_eq!(wt.new_var(&[1.0]).unwrap(), crate::var::Var(1));
    }

    #[test]
    fn non_numeric_weight_rejected() {
        let mut wt = WorldTable::new();
        let r = rel(&[("k", DataType::Text)], vec![vec!["a".into()]]);
        let out = repair_key(
            &r,
            &[],
            &RepairKeyOptions {
                weight: Some(Expr::col("k")),
            },
            &mut wt,
        );
        // single-tuple group short-circuits before weights matter... but
        // weights are evaluated up front, so the error still fires.
        assert!(matches!(out, Err(UrelError::BadWeight { .. })));
    }

    #[test]
    fn repair_key_u_requires_t_certain() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int)],
            vec![vec![1.into()], vec![1.into()]],
        );
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let u = r.gather_with(&[0, 1], vec![Wsd::of(x, 0), Wsd::tautology()]);
        let keys = [Expr::col("k")];
        let counts = &mut KernelCounts::default();
        let out = repair_key_u(&u, &keys, &RepairKeyOptions::default(), &mut wt, counts);
        assert!(matches!(out, Err(UrelError::NotTCertain { .. })));
    }

    /// Semantics check against brute-force possible worlds: each world keeps
    /// exactly one tuple per key group, with the right joint probability.
    #[test]
    fn worlds_are_maximal_repairs_with_correct_probabilities() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int), ("w", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(1.0)],
                vec![1.into(), Value::Float(3.0)],
                vec![2.into(), Value::Float(1.0)],
                vec![2.into(), Value::Float(1.0)],
            ],
        );
        let out = repair_key(
            &r,
            &[Expr::col("k")],
            &RepairKeyOptions {
                weight: Some(Expr::col("w")),
            },
            &mut wt,
        )
        .unwrap();
        let mut seen = 0usize;
        for (world, p) in wt.enumerate_worlds(100).unwrap() {
            let inst = out.instantiate(&world);
            // Exactly one tuple per key group.
            assert_eq!(inst.len(), 2, "world {world:?}");
            seen += 1;
            assert!(p > 0.0);
        }
        assert_eq!(seen, 4); // 2 alternatives × 2 alternatives
    }
}
