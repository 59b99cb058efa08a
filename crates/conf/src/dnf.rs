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
//! per `conf` / `aconf` call: the clauses in the order they are handed
//! over (sorted for `aconf`, member order for `conf`), variables renamed
//! to dense local ids in global-id order, literals flattened to
//! `(local variable, alternative)` runs, distributions flattened once —
//! no `Wsd` is cloned and the world table is not read again. A reusable
//! hash map (`VarIds`) numbers the variables in first-seen order, one
//! lookup a literal; only the distinct variables are then sorted, and
//! their ranks rename the literals. A call compiles into its
//! scratch's buffers, so a statement's groups reuse one allocation.

use maybms_engine::hash::FastMap;
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

    /// Build from the WSDs of a group of tuples, cloned and sorted
    /// (`conf()` itself compiles a group's members in place).
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

/// A literal of a compiled lineage: `(local variable, alternative)`.
pub(crate) type Lit = (u32, u16);

/// A DNF compiled for the confidence engines (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CompiledLineage {
    /// Clause `i`'s literals are `lits[clause_start[i]..clause_start[i + 1]]`.
    clause_start: Vec<usize>,
    /// All clauses' literals, by variable within a clause (local ids fit
    /// `u32` as world-table ids do).
    lits: Vec<Lit>,
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
        let mut out = CompiledLineage::default();
        out.compile(dnf.clauses(), wt, &mut VarIds::default())?;
        Ok(out)
    }

    /// Compile `clauses`, in the order given, into this lineage's buffers
    /// (`ids` is scratch). The error is the one a lookup of every variable
    /// in id order, then a check of every literal in clause order, finds
    /// first: the smallest unknown variable, else the first alternative
    /// outside its domain.
    pub(crate) fn compile<'w>(
        &mut self,
        clauses: impl IntoIterator<Item = &'w Wsd>,
        wt: &WorldTable,
        ids: &mut VarIds,
    ) -> Result<()> {
        self.clause_start.truncate(1);
        self.lits.clear();
        self.var_start.truncate(1);
        self.probs.clear();
        ids.begin();
        for c in clauses {
            for a in c.assignments() {
                self.lits.push((ids.id(a.var.0), a.alt));
            }
            self.clause_start.push(self.lits.len());
        }
        // Local ids in global-id order: rank the distinct variables.
        ids.seen.sort_unstable();
        ids.rank.resize(ids.seen.len(), 0);
        for (rank, &(var, first)) in ids.seen.iter().enumerate() {
            ids.rank[first as usize] = rank as u32;
            self.probs.extend_from_slice(wt.distribution(Var(var))?);
            self.var_start.push(self.probs.len());
        }
        for lit in &mut self.lits {
            lit.0 = ids.rank[lit.0 as usize];
        }
        let in_domain = |&(v, alt): &Lit| (alt as usize) < self.distribution(v).len();
        match self.lits.iter().find(|l| !in_domain(l)) {
            None => Ok(()),
            Some(&(local, alt)) => Err(UrelError::BadAlternative {
                var: ids.seen[local as usize].0,
                alt,
                domain: self.distribution(local).len(),
            }),
        }
    }

    /// Every clause's literals, clause after clause.
    pub(crate) fn literals(&self) -> &[Lit] {
        &self.lits
    }

    /// Where clause `i`'s literals sit in [`CompiledLineage::literals`].
    pub(crate) fn clause_range(&self, i: usize) -> std::ops::Range<usize> {
        self.clause_start[i]..self.clause_start[i + 1]
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
    pub(crate) fn clause(&self, i: usize) -> &[Lit] {
        &self.lits[self.clause_range(i)]
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
    pub(crate) fn prob(&self, (v, alt): Lit) -> f64 {
        self.probs[self.var_start[v as usize] + alt as usize]
    }

    /// Clause `i`'s probability: its literals' product in variable order,
    /// as `Wsd::prob` multiplies.
    pub(crate) fn clause_prob(&self, i: usize) -> f64 {
        self.clause(i).iter().fold(1.0, |p, &l| p * self.prob(l))
    }
}

/// Global variable id → first-seen id, for one compile at a time, kept
/// across compiles so a statement's groups reuse one table.
#[derive(Debug, Default)]
pub(crate) struct VarIds {
    ids: FastMap<u32, u32>,
    /// The variables seen, `(variable, first-seen id)`; in first-seen
    /// order until a compile sorts them.
    pub(crate) seen: Vec<(u32, u32)>,
    /// First-seen id → local id.
    rank: Vec<u32>,
}

impl VarIds {
    /// Forget every variable.
    pub(crate) fn begin(&mut self) {
        self.ids.clear();
        self.seen.clear();
    }

    /// `var`'s first-seen id, the next one if it is new.
    pub(crate) fn id(&mut self, var: u32) -> u32 {
        let next = self.seen.len() as u32;
        *self.ids.entry(var).or_insert_with(|| {
            self.seen.push((var, next));
            next
        })
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
