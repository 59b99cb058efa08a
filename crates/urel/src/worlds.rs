//! Possible-worlds semantics as an executable oracle.
//!
//! A U-relational database represents a finite set of possible worlds
//! (§2.1). These helpers *enumerate* that set — exponential by design —
//! so tests can compare the fast representation-level operators against
//! ground truth.

use std::collections::HashMap;

use maybms_engine::Tuple;

use crate::error::Result;
use crate::urelation::URelation;
use crate::world_table::WorldTable;

/// Default cap on oracle enumeration.
pub const DEFAULT_WORLD_LIMIT: u128 = 1 << 20;

/// For each world: instantiate `u` and pass the t-certain relation to `f`,
/// accumulating `(result, world probability)`.
pub fn map_worlds<T>(
    wt: &WorldTable,
    u: &URelation,
    limit: u128,
    mut f: impl FnMut(&URelation) -> T,
) -> Result<Vec<(T, f64)>> {
    let mut out = Vec::new();
    for (world, p) in wt.enumerate_worlds(limit)? {
        out.push((f(&u.instantiate(&world)), p));
    }
    Ok(out)
}

/// Ground-truth marginal probability that `tuple` appears (at least once)
/// in `u`, by world enumeration.
pub fn tuple_marginal(wt: &WorldTable, u: &URelation, tuple: &Tuple, limit: u128) -> Result<f64> {
    let mut p = 0.0;
    for (world, wp) in wt.enumerate_worlds(limit)? {
        if u.instantiate(&world)
            .tuples()
            .iter()
            .any(|t| t.data == *tuple)
        {
            p += wp;
        }
    }
    Ok(p)
}

/// Ground-truth distribution over distinct result tuples: for every tuple
/// possible in some world, the total probability of the worlds containing
/// it. This is exactly what `conf()` must compute (§2.2, construct 1).
pub fn tuple_distribution(
    wt: &WorldTable,
    u: &URelation,
    limit: u128,
) -> Result<HashMap<Tuple, f64>> {
    let mut dist: HashMap<Tuple, f64> = HashMap::new();
    for (world, wp) in wt.enumerate_worlds(limit)? {
        let inst = u.instantiate(&world);
        let mut seen = std::collections::HashSet::new();
        for t in inst.tuples() {
            if seen.insert(t.data.clone()) {
                *dist.entry(t.data).or_insert(0.0) += wp;
            }
        }
    }
    Ok(dist)
}

/// Ground-truth expected value of a per-world scalar (e.g. a sum or count),
/// by enumeration.
pub fn expectation(
    wt: &WorldTable,
    u: &URelation,
    limit: u128,
    f: impl Fn(&URelation) -> f64,
) -> Result<f64> {
    let mut e = 0.0;
    for (world, wp) in wt.enumerate_worlds(limit)? {
        e += wp * f(&u.instantiate(&world));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pick::{pick_tuples, PickTuplesOptions};
    use crate::repair::{repair_key, RepairKeyOptions};
    use crate::urelation::rel;
    use maybms_engine::{DataType, Expr, Value};

    #[test]
    fn tuple_marginal_on_pick_tuples() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int), ("p", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.3)],
                vec![2.into(), Value::Float(0.6)],
            ],
        );
        let u = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        let t = Tuple::new(vec![1.into(), Value::Float(0.3)]);
        let p = tuple_marginal(&wt, &u, &t, 100).unwrap();
        assert!((p - 0.3).abs() < 1e-12);
    }

    #[test]
    fn tuple_distribution_sums_group_masses() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int)],
            vec![vec![1.into()], vec![1.into()], vec![2.into()]],
        );
        let u = repair_key(&r, &[Expr::col("k")], &RepairKeyOptions::default(), &mut wt).unwrap();
        let dist = tuple_distribution(&wt, &u, 100).unwrap();
        // Key 2's single tuple is certain; key 1's duplicates: the two
        // alternatives are the *same* tuple value (1), so tuple (1) appears
        // in every world.
        assert!((dist[&Tuple::new(vec![2.into()])] - 1.0).abs() < 1e-12);
        assert!((dist[&Tuple::new(vec![1.into()])] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_count() {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("v", DataType::Int), ("p", DataType::Float)],
            vec![
                vec![1.into(), Value::Float(0.5)],
                vec![2.into(), Value::Float(0.5)],
            ],
        );
        let u = pick_tuples(
            &r,
            &PickTuplesOptions {
                probability: Some(Expr::col("p")),
            },
            &mut wt,
        )
        .unwrap();
        let e = expectation(&wt, &u, 100, |rel| rel.len() as f64).unwrap();
        assert!((e - 1.0).abs() < 1e-12); // E[count] = 0.5 + 0.5
    }

    #[test]
    fn map_worlds_probabilities_sum_to_one() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.25, 0.75]).unwrap();
        let u = rel(&[("x", DataType::Int)], vec![]);
        let rs = map_worlds(&wt, &u, 100, |r| r.len()).unwrap();
        let total: f64 = rs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
