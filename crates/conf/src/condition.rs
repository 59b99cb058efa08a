//! Conditioning: confidence given a constraint (Koch–Olteanu, "Conditioning
//! Probabilistic Databases", VLDB 2008 — reference \[3\] of the demo paper).
//!
//! The MayBMS website demos "data cleaning using constraints": a constraint
//! knocks out the worlds violating it and renormalises the rest. For events
//! and constraints given as DNFs over the world table this is Bayes:
//!
//! ```text
//! P(event | constraint) = P(event ∧ constraint) / P(constraint)
//! ```
//!
//! The conjunction of two DNFs is the cross product of their clauses with
//! unsatisfiable combinations and duplicates dropped — after which any
//! [`crate::ConfMethod`] computes the two probabilities.

use maybms_urel::{Result, UrelError, WorldTable};

use crate::dnf::Dnf;
use crate::{confidence, ConfMethod};

/// `a ∧ b` as a DNF: cross product of clauses, dropping contradictions and
/// duplicates. Output size is at most `|a| · |b|`.
pub fn and(a: &Dnf, b: &Dnf) -> Dnf {
    if a.is_empty() || b.is_empty() {
        return Dnf::falsum();
    }
    let mut clauses = std::collections::BTreeSet::new();
    for ca in a.clauses() {
        for cb in b.clauses() {
            clauses.extend(ca.conjoin(cb));
        }
    }
    Dnf::new(clauses.into_iter().collect())
}

/// `P(event | constraint)` with the chosen method for both probabilities.
///
/// Errors with [`UrelError::BadProbability`] when the constraint has zero
/// probability (conditioning on the impossible).
pub fn conditional_probability(
    event: &Dnf,
    constraint: &Dnf,
    wt: &WorldTable,
    method: ConfMethod,
) -> Result<f64> {
    let p_c = confidence(constraint, wt, method)?;
    if p_c <= 0.0 {
        return Err(UrelError::BadProbability {
            message: "conditioning on a zero-probability constraint".into(),
        });
    }
    let p_both = confidence(&and(event, constraint), wt, method)?;
    Ok(p_both / p_c)
}

/// Renormalised per-clause posteriors: for a family of mutually relevant
/// events (e.g. the repair alternatives of one group) return
/// `P(eventᵢ | constraint)` for each.
pub fn posteriors(
    events: &[Dnf],
    constraint: &Dnf,
    wt: &WorldTable,
    method: ConfMethod,
) -> Result<Vec<f64>> {
    let p_c = confidence(constraint, wt, method)?;
    if p_c <= 0.0 {
        return Err(UrelError::BadProbability {
            message: "conditioning on a zero-probability constraint".into(),
        });
    }
    events
        .iter()
        .map(|e| Ok(confidence(&and(e, constraint), wt, method)? / p_c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use maybms_urel::{Assignment, Var, Wsd};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect())
            .unwrap()
    }

    fn setup() -> (WorldTable, Var, Var) {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let y = wt.new_var(&[0.2, 0.8]).unwrap();
        (wt, x, y)
    }

    #[test]
    fn and_is_cross_product_with_contradictions_dropped() {
        let (_, x, y) = setup();
        let a = Dnf::new(vec![clause(&[(x, 0)]), clause(&[(x, 1)])]);
        let b = Dnf::new(vec![clause(&[(x, 0), (y, 1)])]);
        let c = and(&a, &b);
        // (x=0 ∧ x=0 ∧ y=1) ∨ (x=1 ∧ x=0 ∧ y=1) → only the first survives.
        assert_eq!(c.len(), 1);
        assert_eq!(c.clauses()[0], clause(&[(x, 0), (y, 1)]));
    }

    #[test]
    fn and_with_falsum_is_falsum() {
        let (_, x, _) = setup();
        let a = Dnf::new(vec![clause(&[(x, 0)])]);
        assert!(and(&a, &Dnf::falsum()).is_empty());
        assert!(and(&Dnf::falsum(), &a).is_empty());
    }

    #[test]
    fn and_probability_matches_naive() {
        let (wt, x, y) = setup();
        let a = Dnf::new(vec![clause(&[(x, 1)]), clause(&[(y, 0)])]);
        let b = Dnf::new(vec![clause(&[(y, 1)]), clause(&[(x, 0)])]);
        let both = and(&a, &b);
        // Ground truth by world enumeration: P(a ∧ b).
        let mut truth = 0.0;
        for (world, p) in wt.enumerate_worlds(100).unwrap() {
            if a.satisfied_by(&world) && b.satisfied_by(&world) {
                truth += p;
            }
        }
        let got = naive::probability(&both, &wt, 100).unwrap();
        assert!((got - truth).abs() < 1e-12);
    }

    #[test]
    fn bayes_on_independent_events_is_marginal() {
        let (wt, x, y) = setup();
        let event = Dnf::new(vec![clause(&[(x, 1)])]);
        let constraint = Dnf::new(vec![clause(&[(y, 1)])]);
        let p = conditional_probability(&event, &constraint, &wt, ConfMethod::Exact)
            .unwrap();
        assert!((p - 0.5).abs() < 1e-12); // independence: conditioning is a no-op
    }

    #[test]
    fn bayes_on_dependent_events() {
        let (wt, x, y) = setup();
        // event: x=1; constraint: x=1 ∨ y=1.
        let event = Dnf::new(vec![clause(&[(x, 1)])]);
        let constraint = Dnf::new(vec![clause(&[(x, 1)]), clause(&[(y, 1)])]);
        // P(c) = 1 - 0.5·0.2 = 0.9; P(e ∧ c) = P(x=1) = 0.5.
        let p = conditional_probability(&event, &constraint, &wt, ConfMethod::Exact)
            .unwrap();
        assert!((p - 0.5 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn conditioning_on_impossible_errors() {
        let (wt, x, _) = setup();
        let event = Dnf::new(vec![clause(&[(x, 1)])]);
        let err = conditional_probability(&event, &Dnf::falsum(), &wt, ConfMethod::Exact);
        assert!(matches!(err, Err(UrelError::BadProbability { .. })));
    }

    #[test]
    fn posteriors_renormalise() {
        let mut wt = WorldTable::new();
        // One 3-way choice (a repair group) plus an observation variable.
        let choice = wt.new_var(&[0.5, 0.3, 0.2]).unwrap();
        let obs = wt.new_var(&[0.5, 0.5]).unwrap();
        let events: Vec<Dnf> = (0..3)
            .map(|i| Dnf::new(vec![clause(&[(choice, i)])]))
            .collect();
        // Constraint: the observation rules out alternative 2 entirely:
        // constraint = choice∈{0,1} (alternatives 0 or 1) ∧ obs=1 … keep it
        // simple: constraint = (choice=0) ∨ (choice=1).
        let constraint =
            Dnf::new(vec![clause(&[(choice, 0)]), clause(&[(choice, 1)])]);
        let _ = obs;
        let post = posteriors(&events, &constraint, &wt, ConfMethod::Exact).unwrap();
        assert!((post[0] - 0.5 / 0.8).abs() < 1e-12);
        assert!((post[1] - 0.3 / 0.8).abs() < 1e-12);
        assert!(post[2].abs() < 1e-12);
        let total: f64 = post.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_with_approx_method_close_to_exact() {
        let (wt, x, y) = setup();
        let event = Dnf::new(vec![clause(&[(x, 1), (y, 1)])]);
        let constraint = Dnf::new(vec![clause(&[(y, 1)])]);
        let exact =
            conditional_probability(&event, &constraint, &wt, ConfMethod::Exact).unwrap();
        let approx = conditional_probability(
            &event,
            &constraint,
            &wt,
            ConfMethod::Approx { epsilon: 0.05, delta: 0.05, seed: 9 },
        )
        .unwrap();
        assert!(((approx - exact) / exact).abs() < 0.12, "{approx} vs {exact}");
    }
}
