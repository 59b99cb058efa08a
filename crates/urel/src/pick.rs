//! `pick tuples` (§2.2, construct 2): "creates a probabilistic relation
//! representing all the possible subsets of the input table".
//!
//! Each input tuple receives a fresh Boolean variable: alternative 0 =
//! absent, alternative 1 = present with the tuple's probability (default
//! 0.5 — the uniform distribution over all subsets). The `independently`
//! keyword makes the tuple-independence explicit; it is the semantics we
//! implement in both spellings. The alternative, one correlated choice
//! among the 2^n subsets, would be a single variable with a domain
//! exponential in the table size, so it is intentionally not supported.

use maybms_engine::{Expr, Relation};

use crate::error::{Result, UrelError};
use crate::repair::numbers;
use crate::urelation::URelation;
use crate::world_table::WorldTable;
use crate::wsd::Wsd;

/// Options for [`pick_tuples`].
#[derive(Debug, Clone, Default)]
pub struct PickTuplesOptions {
    /// `with probability` expression (per tuple); `None` = 0.5.
    pub probability: Option<Expr>,
}

/// Apply `pick tuples` to a certain relation: [`pick_tuples_u`] over the
/// relation lifted with [`URelation::from_certain`].
pub fn pick_tuples(
    input: &Relation,
    options: &PickTuplesOptions,
    wt: &mut WorldTable,
) -> Result<URelation> {
    pick_tuples_u(&URelation::from_certain(input), options, wt)
}

/// Apply `pick tuples from R [independently] [with probability e]` to a
/// U-relation, which must be t-certain (§2.2). The output gathers the
/// kept tuples' columns.
///
/// Probabilities must lie in `[0, 1]`. A tuple with probability 0 exists in
/// no subset and is dropped; probability 1 keeps the tuple certain without
/// spending a variable. A failed call leaves `wt` as it found it.
pub fn pick_tuples_u(
    input: &URelation,
    options: &PickTuplesOptions,
    wt: &mut WorldTable,
) -> Result<URelation> {
    if !input.is_t_certain() {
        return Err(UrelError::NotTCertain {
            operation: "pick tuples".into(),
        });
    }
    let vars = wt.num_vars();
    let (sel, wsds) = pick(input, options, wt).inspect_err(|_| wt.truncate(vars))?;
    Ok(input.gather_with(&sel, wsds))
}

/// The tuples of `input` a `pick tuples` keeps, in order, and the
/// condition each exists under. The first error is the scalar walk's:
/// rows in order, and within a row an evaluation error, then a
/// non-numeric value, then one outside `[0, 1]`.
fn pick(
    input: &URelation,
    options: &PickTuplesOptions,
    wt: &mut WorldTable,
) -> Result<(Vec<usize>, Vec<Wsd>)> {
    let (ps, err) = match &options.probability {
        None => (vec![0.5; input.len()], None),
        Some(e) => {
            let bad = |message| UrelError::BadProbability { message };
            numbers(e, input, "probability", bad)?
        }
    };
    let (mut sel, mut wsds) = (Vec::with_capacity(ps.len()), Vec::with_capacity(ps.len()));
    for (i, &p) in ps.iter().enumerate() {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(UrelError::BadProbability {
                message: format!("tuple probability {p} outside [0, 1]"),
            });
        }
        if p == 0.0 {
            continue;
        }
        sel.push(i);
        wsds.push(if p == 1.0 {
            Wsd::tautology()
        } else {
            Wsd::of(wt.new_var(&[1.0 - p, p])?, 1)
        });
    }
    err.map_or(Ok((sel, wsds)), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType, Value};

    fn three_rows() -> Relation {
        rel(
            &[("v", DataType::Int)],
            vec![vec![1.into()], vec![2.into()], vec![3.into()]],
        )
    }

    #[test]
    fn default_probability_is_half_over_all_subsets() {
        let mut wt = WorldTable::new();
        let out = pick_tuples(&three_rows(), &PickTuplesOptions::default(), &mut wt).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(wt.num_vars(), 3);
        assert_eq!(wt.world_count(), Some(8)); // all 2^3 subsets
        for t in out.tuples() {
            assert!((t.wsd.prob(&wt).unwrap() - 0.5).abs() < 1e-12);
        }
        // Every subset cardinality appears among the worlds.
        let mut sizes = std::collections::HashSet::new();
        for (w, _) in wt.enumerate_worlds(10).unwrap() {
            sizes.insert(out.instantiate(&w).len());
        }
        assert_eq!(sizes, [0usize, 1, 2, 3].into_iter().collect());
    }

    #[test]
    fn per_tuple_probability_expression() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int), ("p", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.9)],
                vec![2.into(), Value::Float(0.1)],
            ],
        );
        let out = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        let probs: Vec<f64> = out
            .tuples()
            .iter()
            .map(|t| t.wsd.prob(&wt).unwrap())
            .collect();
        assert!((probs[0] - 0.9).abs() < 1e-12);
        assert!((probs[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn probability_one_keeps_tuple_certain() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int), ("p", DataType::Float)],
            vec![vec![1.into(), Value::Float(1.0)]],
        );
        let out = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        assert!(out.is_t_certain());
        assert_eq!(wt.num_vars(), 0);
    }

    #[test]
    fn probability_zero_drops_tuple() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int), ("p", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.0)],
                vec![2.into(), Value::Float(0.5)],
            ],
        );
        let out = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].data.value(0), &Value::Int(2));
    }

    #[test]
    fn out_of_range_probability_rejected() {
        let mut wt = WorldTable::new();
        let r = rel(&[("p", DataType::Float)], vec![vec![Value::Float(1.5)]]);
        let out = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        );
        assert!(matches!(out, Err(UrelError::BadProbability { .. })));
    }

    /// A `pick tuples` that fails at a later row leaves the world table
    /// bit-identical to how it found it.
    #[test]
    fn failed_pick_leaves_the_world_table_unchanged() {
        let bits = |wt: &WorldTable| -> Vec<Vec<u64>> {
            wt.distributions()
                .map(|d| d.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        let mut wt = WorldTable::new();
        wt.new_var(&[0.5, 0.5]).unwrap();
        let before = bits(&wt);
        let r = rel(
            &[("p", DataType::Float)],
            vec![
                vec![Value::Float(0.3)],
                vec![Value::Float(0.6)],
                vec![Value::Float(1.5)],
            ],
        );
        let options = PickTuplesOptions {
            probability: Some(Expr::col("p")),
        };
        let out = pick_tuples(&r, &options, &mut wt);
        assert!(
            matches!(out, Err(UrelError::BadProbability { .. })),
            "{out:?}"
        );
        assert_eq!(bits(&wt), before);
        // An evaluation error after two good rows: the same.
        let r = rel(
            &[("p", DataType::Int)],
            vec![vec![2.into()], vec![4.into()], vec![0.into()]],
        );
        let options = PickTuplesOptions {
            probability: Some(Expr::lit(1i64).binary(maybms_engine::BinaryOp::Div, Expr::col("p"))),
        };
        let out = pick_tuples(&r, &options, &mut wt);
        assert!(matches!(out, Err(UrelError::Engine(_))), "{out:?}");
        assert_eq!(bits(&wt), before);
    }

    #[test]
    fn non_numeric_probability_rejected() {
        let mut wt = WorldTable::new();
        let r = rel(&[("p", DataType::Text)], vec![vec!["x".into()]]);
        let out = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        );
        assert!(matches!(out, Err(UrelError::BadProbability { .. })));
    }

    #[test]
    fn pick_tuples_u_requires_t_certain() {
        let mut wt = WorldTable::new();
        let r = three_rows();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let wsds = vec![Wsd::of(x, 1), Wsd::tautology(), Wsd::tautology()];
        let u = URelation::from_certain(&r).gather_with(&[0, 1, 2], wsds);
        assert!(matches!(
            pick_tuples_u(&u, &PickTuplesOptions::default(), &mut wt),
            Err(UrelError::NotTCertain { .. })
        ));
    }

    /// Brute-force check: the probability that tuple i is present equals
    /// its probability, and tuple presences are independent.
    #[test]
    fn subset_semantics_exact() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int), ("p", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.25)],
                vec![2.into(), Value::Float(0.75)],
            ],
        );
        let out = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        let mut p_both = 0.0;
        let mut p_first = 0.0;
        for (w, p) in wt.enumerate_worlds(10).unwrap() {
            let inst = out.instantiate(&w);
            let has1 = inst.tuples().iter().any(|t| t.value(0) == &Value::Int(1));
            let has2 = inst.tuples().iter().any(|t| t.value(0) == &Value::Int(2));
            if has1 {
                p_first += p;
            }
            if has1 && has2 {
                p_both += p;
            }
        }
        assert!((p_first - 0.25).abs() < 1e-12);
        assert!((p_both - 0.25 * 0.75).abs() < 1e-12); // independence
    }
}
