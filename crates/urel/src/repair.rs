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

use maybms_engine::ops::group_indices;
use maybms_engine::{Expr, Relation};

use crate::error::{Result, UrelError};
use crate::urelation::{URelation, UTuple};
use crate::world_table::WorldTable;
use crate::wsd::Wsd;

/// Options for [`repair_key`].
#[derive(Debug, Clone, Default)]
pub struct RepairKeyOptions {
    /// `weight by` expression (evaluated per input tuple); `None` = uniform.
    pub weight: Option<Expr>,
}

/// Apply `repair key` to a certain relation, registering fresh variables in
/// `wt`. `key_exprs` are the key attributes (any scalar expressions over
/// the input are accepted, matching `repair key <attributes>`).
///
/// Tuples with weight 0 are possible in *no* repair and are dropped.
/// Negative, NaN, or non-numeric weights are errors, as is a group whose
/// weights sum to 0.
///
/// The output schema equals the input schema (Figure 1: `R2` has the same
/// data columns as `FT`, plus conditions).
pub fn repair_key(
    input: &Relation,
    key_exprs: &[Expr],
    options: &RepairKeyOptions,
    wt: &mut WorldTable,
) -> Result<URelation> {
    let (sel, wsds) = repair(input, key_exprs, options, wt)?;
    let tuples = sel.iter().zip(wsds);
    let tuples = tuples.map(|(&i, wsd)| UTuple::new(input.tuples()[i].clone(), wsd));
    Ok(URelation::new(input.schema().clone(), tuples.collect()))
}

/// The tuples of `input` a `repair key` keeps, in output order, and the
/// condition each exists under.
fn repair(
    input: &Relation,
    key_exprs: &[Expr],
    options: &RepairKeyOptions,
    wt: &mut WorldTable,
) -> Result<(Vec<usize>, Vec<Wsd>)> {
    // Evaluate weights up front.
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

    let groups = group_indices(input, key_exprs)?;
    let (mut sel, mut wsds) = (
        Vec::with_capacity(input.len()),
        Vec::with_capacity(input.len()),
    );
    // Scratch buffers reused across groups (no per-group allocation).
    let mut alive: Vec<usize> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    for (_key, indices) in groups {
        // Keep only alternatives with positive weight.
        alive.clear();
        alive.extend(indices.iter().copied().filter(|&i| weights[i] > 0.0));
        if alive.is_empty() {
            if indices.is_empty() {
                continue;
            }
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
        probs.extend(alive.iter().map(|&i| weights[i] / total));
        let var = wt.new_var(&probs)?;
        for (alt, &i) in alive.iter().enumerate() {
            sel.push(i);
            wsds.push(Wsd::of(var, alt as u16));
        }
    }
    Ok((sel, wsds))
}

/// `repair key` over a U-relation input, enforcing the language's typing
/// rule that the input must be t-certain (§2.2 maps t-certain →
/// uncertain). The output gathers the kept tuples' columns.
pub fn repair_key_u(
    input: &URelation,
    key_exprs: &[Expr],
    options: &RepairKeyOptions,
    wt: &mut WorldTable,
) -> Result<URelation> {
    if !input.is_t_certain() {
        return Err(UrelError::NotTCertain {
            operation: "repair key".into(),
        });
    }
    let certain = input.clone().into_certain();
    let (sel, wsds) = repair(&certain, key_exprs, options, wt)?;
    Ok(input.gather_with(&sel, wsds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType, Value};

    /// The paper's FT fragment for Bryant (Figure 1).
    fn ft_bryant() -> Relation {
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
        let u =
            URelation::from_certain(&r).gather_with(&[0, 1], vec![Wsd::of(x, 0), Wsd::tautology()]);
        let out = repair_key_u(&u, &[Expr::col("k")], &RepairKeyOptions::default(), &mut wt);
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
