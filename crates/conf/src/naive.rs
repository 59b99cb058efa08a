//! Naive exact confidence by enumeration — the testing oracle.
//!
//! Enumerates every joint assignment of the variables appearing in the DNF
//! (not the whole database) and sums the probabilities of satisfying
//! assignments. Exponential in the number of DNF variables; used to
//! validate the real algorithms on small inputs.

use maybms_urel::{Result, UrelError, WorldTable};

use crate::dnf::Dnf;

/// Probability of `dnf` by enumeration over its own variables.
///
/// Errors with [`UrelError::WorldLimitExceeded`] when the assignment space
/// exceeds `limit`.
pub fn probability(dnf: &Dnf, wt: &WorldTable, limit: u128) -> Result<f64> {
    if dnf.is_empty() {
        return Ok(0.0);
    }
    if dnf.is_true() {
        return Ok(1.0);
    }
    let vars = dnf.vars();
    let mut space: u128 = 1;
    for &v in &vars {
        space =
            space
                .checked_mul(wt.domain_size(v)? as u128)
                .ok_or(UrelError::WorldLimitExceeded {
                    count: u128::MAX,
                    limit,
                })?;
    }
    if space > limit {
        return Err(UrelError::WorldLimitExceeded {
            count: space,
            limit,
        });
    }
    // Odometer over the DNF's variables only; build a sparse world big
    // enough for satisfied_by (positions of unmentioned vars don't matter).
    let max_var = vars.iter().map(|v| v.0).max().unwrap_or(0) as usize;
    let mut world = vec![0u16; max_var + 1];
    let domains: Vec<usize> = vars
        .iter()
        .map(|&v| wt.domain_size(v))
        .collect::<Result<_>>()?;
    let mut counters = vec![0usize; vars.len()];
    let mut total = 0.0;
    loop {
        // Write current counters into the sparse world and compute its prob.
        let mut p = 1.0;
        for (i, &v) in vars.iter().enumerate() {
            world[v.0 as usize] = counters[i] as u16;
            p *= wt.prob(maybms_urel::Assignment::new(v, counters[i] as u16))?;
        }
        if p > 0.0 && dnf.satisfied_by(&world) {
            total += p;
        }
        // Advance odometer.
        let mut i = vars.len();
        loop {
            if i == 0 {
                return Ok(total);
            }
            i -= 1;
            counters[i] += 1;
            if counters[i] < domains[i] {
                break;
            }
            counters[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_urel::{Assignment, Var, Wsd};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect()).unwrap()
    }

    #[test]
    fn falsum_is_zero_verum_is_one() {
        let wt = WorldTable::new();
        assert_eq!(probability(&Dnf::falsum(), &wt, 10).unwrap(), 0.0);
        let t = Dnf::new(vec![Wsd::tautology()]);
        assert_eq!(probability(&t, &wt, 10).unwrap(), 1.0);
    }

    #[test]
    fn single_clause_is_product() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1), (y, 0)])]);
        let p = probability(&d, &wt, 100).unwrap();
        assert!((p - 0.1).abs() < 1e-12);
    }

    #[test]
    fn independent_union() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.7, 0.3]).unwrap();
        let y = wt.new_var(&[0.4, 0.6]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1)]), clause(&[(y, 1)])]);
        // P = 1 - (1-0.3)(1-0.6) = 0.72
        let p = probability(&d, &wt, 100).unwrap();
        assert!((p - 0.72).abs() < 1e-12);
    }

    #[test]
    fn mutually_exclusive_alternatives_add() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.2, 0.3, 0.5]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 0)]), clause(&[(x, 2)])]);
        let p = probability(&d, &wt, 100).unwrap();
        assert!((p - 0.7).abs() < 1e-12);
    }

    #[test]
    fn limit_enforced() {
        let mut wt = WorldTable::new();
        let vars: Vec<Var> = (0..20).map(|_| wt.new_var(&[0.5, 0.5]).unwrap()).collect();
        let d = Dnf::new(vars.iter().map(|&v| clause(&[(v, 1)])).collect());
        assert!(matches!(
            probability(&d, &wt, 1000),
            Err(UrelError::WorldLimitExceeded { .. })
        ));
    }

    #[test]
    fn enumeration_scoped_to_dnf_vars_only() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        // 30 extra variables that the DNF never mentions must not blow up
        // the enumeration space.
        for _ in 0..30 {
            wt.new_var(&[0.5, 0.5]).unwrap();
        }
        let d = Dnf::new(vec![clause(&[(x, 1)])]);
        let p = probability(&d, &wt, 4).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }
}
