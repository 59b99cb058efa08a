//! DNF lineage events.
//!
//! Confidence computation in MayBMS reduces to computing the probability
//! of a DNF "of which each clause is a conjunctive local condition" (§2.3):
//! the tuples contributing to one result tuple each carry a WSD, and the
//! result's confidence is the probability that *at least one* of those
//! conditions holds.
//!
//! # The compiled form
//!
//! Both engines read a DNF through one `CompiledLineage`, built once
//! per `conf` / `aconf` call: the clauses in sorted order, variables
//! renamed to dense local ids in global-id order, literals flattened to
//! `(local variable, alternative)` runs, distributions flattened once —
//! no `Wsd` is cloned and the world table is not read again.

use maybms_urel::{Result, UrelError, Var, WorldTable, Wsd};

/// A DNF over variable assignments: the disjunction of its clauses.
///
/// * no clauses — `false` (probability 0);
/// * a tautology clause — `true` (probability 1).
///
/// **Invariant:** the clause list is always sorted (by the `Wsd` total
/// order); every constructor establishes it, so the compiled clause order
/// is canonical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dnf {
    clauses: Vec<Wsd>,
}

impl Dnf {
    /// The empty (false) DNF.
    pub fn falsum() -> Dnf {
        Dnf {
            clauses: Vec::new(),
        }
    }

    /// Build from clauses (sorted here; duplicates are kept — the exact
    /// engine absorbs them).
    pub fn new(mut clauses: Vec<Wsd>) -> Dnf {
        clauses.sort_unstable();
        Dnf { clauses }
    }

    /// Build from the WSDs of a group of tuples (the `conf()` aggregate's
    /// input).
    pub fn from_wsds<'a>(wsds: impl IntoIterator<Item = &'a Wsd>) -> Dnf {
        Dnf::new(wsds.into_iter().cloned().collect())
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Wsd] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True iff there are no clauses (the `false` event).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// True iff some clause is the tautology (the `true` event).
    pub fn is_true(&self) -> bool {
        self.clauses.iter().any(Wsd::is_tautology)
    }

    /// The variables mentioned, sorted and unique.
    pub fn vars(&self) -> Vec<Var> {
        let mut v: Vec<Var> = self.clauses.iter().flat_map(Wsd::vars).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether a world satisfies the disjunction.
    pub fn satisfied_by(&self, world: &[u16]) -> bool {
        self.clauses.iter().any(|c| c.satisfied_by(world))
    }
}

/// A DNF compiled for the confidence engines (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CompiledLineage {
    /// Clause `i`'s literals are `lits[clause_start[i]..clause_start[i + 1]]`.
    clause_start: Vec<usize>,
    /// All clauses' `(local variable, alternative)` literals, by variable
    /// within a clause (local ids fit `u32` as world-table ids do).
    lits: Vec<(u32, u16)>,
    /// Local variable `v`'s distribution is
    /// `probs[var_start[v]..var_start[v + 1]]`.
    var_start: Vec<usize>,
    /// The variables' distributions, flattened.
    probs: Vec<f64>,
}

impl Default for CompiledLineage {
    /// The `false` event: no clauses, no variables.
    fn default() -> CompiledLineage {
        CompiledLineage {
            clause_start: vec![0],
            lits: Vec::new(),
            var_start: vec![0],
            probs: Vec::new(),
        }
    }
}

impl CompiledLineage {
    /// Compile `dnf` against the world table. Errors on a variable the
    /// table does not know or an alternative outside its domain.
    pub(crate) fn new(dnf: &Dnf, wt: &WorldTable) -> Result<CompiledLineage> {
        let vars = dnf.vars();
        let mut out = CompiledLineage::default();
        out.var_start.reserve(vars.len());
        for &v in &vars {
            out.probs.extend_from_slice(wt.distribution(v)?);
            out.var_start.push(out.probs.len());
        }
        out.clause_start.reserve(dnf.len());
        for c in dnf.clauses() {
            for a in c.assignments() {
                let local = vars
                    .binary_search(&a.var)
                    .expect("dnf.vars() covers every clause") as u32;
                let domain = out.distribution(local).len();
                if a.alt as usize >= domain {
                    return Err(UrelError::BadAlternative {
                        var: a.var.0,
                        alt: a.alt,
                        domain,
                    });
                }
                out.lits.push((local, a.alt));
            }
            out.clause_start.push(out.lits.len());
        }
        Ok(out)
    }

    /// Number of clauses.
    pub(crate) fn num_clauses(&self) -> usize {
        self.clause_start.len() - 1
    }

    /// Number of (local) variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.var_start.len() - 1
    }

    /// Clause `i`'s `(local variable, alternative)` literals, by variable.
    pub(crate) fn clause(&self, i: usize) -> &[(u32, u16)] {
        &self.lits[self.clause_start[i]..self.clause_start[i + 1]]
    }

    /// Where local variable `v`'s alternatives sit in the flattened
    /// distributions (a CDF flattened the same way shares the range).
    pub(crate) fn var_range(&self, v: u32) -> std::ops::Range<usize> {
        self.var_start[v as usize]..self.var_start[v as usize + 1]
    }

    /// Local variable `v`'s distribution.
    pub(crate) fn distribution(&self, v: u32) -> &[f64] {
        &self.probs[self.var_range(v)]
    }

    /// The probability of one literal.
    pub(crate) fn prob(&self, (v, alt): (u32, u16)) -> f64 {
        self.probs[self.var_start[v as usize] + alt as usize]
    }

    /// Clause `i`'s probability: its literals' product in variable order,
    /// as `Wsd::prob` multiplies.
    pub(crate) fn clause_prob(&self, i: usize) -> f64 {
        self.clause(i).iter().fold(1.0, |p, &l| p * self.prob(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_urel::Assignment;

    fn clause(pairs: &[(u32, u16)]) -> Wsd {
        Wsd::from_assignments(
            pairs
                .iter()
                .map(|&(v, a)| Assignment::new(Var(v), a))
                .collect(),
        )
        .expect("consistent clause")
    }

    #[test]
    fn falsum_and_verum() {
        assert!(Dnf::falsum().is_empty());
        assert!(!Dnf::falsum().is_true());
        let t = Dnf::new(vec![Wsd::tautology(), clause(&[(0, 1)])]);
        assert!(t.is_true());
    }

    #[test]
    fn vars_sorted_unique() {
        let d = Dnf::new(vec![clause(&[(3, 0), (1, 1)]), clause(&[(1, 1), (2, 0)])]);
        assert_eq!(d.vars(), vec![Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn satisfied_by_any_clause() {
        let d = Dnf::new(vec![clause(&[(0, 1)]), clause(&[(1, 2)])]);
        assert!(d.satisfied_by(&[1, 0]));
        assert!(d.satisfied_by(&[0, 2]));
        assert!(!d.satisfied_by(&[0, 0]));
        assert!(!Dnf::falsum().satisfied_by(&[0, 0]));
    }

    #[test]
    fn compiled_ids_are_dense_in_global_order() {
        let mut wt = WorldTable::new();
        for d in [2, 3, 2, 4, 2] {
            wt.new_var(&vec![1.0 / d as f64; d]).unwrap();
        }
        // Variables 1, 3 and 4 become local 0, 1 and 2.
        let d = Dnf::new(vec![
            clause(&[(4, 1), (1, 2)]),
            clause(&[(3, 3)]),
            Wsd::tautology(),
        ]);
        let c = CompiledLineage::new(&d, &wt).unwrap();
        assert_eq!((c.num_clauses(), c.num_vars()), (3, 3));
        assert_eq!(c.clause(0), &[] as &[(u32, u16)]);
        assert_eq!(c.clause(1), &[(0, 2), (2, 1)]);
        assert_eq!(c.clause(2), &[(1, 3)]);
        assert_eq!(c.distribution(1), &[0.25; 4]);
        assert_eq!(c.prob((1, 3)), 0.25);
    }

    #[test]
    fn compile_rejects_alternatives_outside_the_domain() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.5, 0.5]).unwrap();
        let d = Dnf::new(vec![clause(&[(0, 2)])]);
        assert!(matches!(
            CompiledLineage::new(&d, &wt),
            Err(UrelError::BadAlternative {
                var: 0,
                alt: 2,
                domain: 2
            })
        ));
        let d = Dnf::new(vec![clause(&[(7, 0)])]);
        assert!(matches!(
            CompiledLineage::new(&d, &wt),
            Err(UrelError::UnknownVariable { var: 7 })
        ));
    }
}
