//! World-set descriptors (WSDs): the per-tuple condition columns of a
//! U-relation.
//!
//! A WSD is a conjunction of variable assignments — "the special
//! conjunctions that can be stored with each tuple in U-relations" (§2.2).
//! A tuple is present exactly in the worlds satisfying its WSD. The empty
//! conjunction is the tautology (tuple certain); a conjunction mentioning
//! the same variable with two different alternatives is unsatisfiable and
//! is represented by [`Wsd::conjoin`] returning `None` — such tuples are
//! dropped by the join translation.
//!
//! # Representation (zero-clone execution core)
//!
//! The paper's point (§2.4) is that conditions are just "pairs of
//! integers" riding on relational tuples, and almost every WSD produced by
//! `repair key` / `pick tuples` and their joins holds **0–3** assignments
//! (a three-step random walk conjoins three `repair key` conditions).
//! [`Wsd`] therefore stores up to [`INLINE_WSD`] assignments inline
//! (no heap allocation at all) and spills to a `Vec` only beyond that.
//! Three slots cost nothing over two: the enum is 32 bytes either way,
//! the third slot filling padding the heap variant's `Vec` leaves.
//! Constructing, cloning, and conjoining the common small conjunctions is
//! allocation-free, which is what keeps per-output-row cost of the
//! U-relational join near the certain join's. The assignment list is
//! always sorted by variable id and mentions each variable at most once —
//! every constructor establishes this invariant, so `conjoin` can merge
//! linearly.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::Result;
use crate::var::{Assignment, Var};
use crate::world_table::WorldTable;

/// Number of assignments a [`Wsd`] stores without heap allocation.
pub const INLINE_WSD: usize = 3;

/// Padding value for unused inline slots (never observed through the
/// public API, which always bounds reads by `len`).
const PAD: Assignment = Assignment {
    var: Var(0),
    alt: 0,
};

/// Inline-or-heap storage for the sorted assignment list.
#[derive(Clone)]
enum Repr {
    /// Up to [`INLINE_WSD`] assignments stored in place.
    Inline {
        len: u8,
        buf: [Assignment; INLINE_WSD],
    },
    /// Longer conjunctions spill to the heap.
    Heap(Vec<Assignment>),
}

/// A satisfiable conjunction of assignments over *distinct* variables,
/// sorted by variable id. Small conjunctions (the overwhelmingly common
/// case) are stored inline — see the module docs.
#[derive(Clone)]
pub struct Wsd(Repr);

impl Default for Wsd {
    fn default() -> Wsd {
        Wsd::tautology()
    }
}

// Equality/order/hash are over the logical assignment slice, independent
// of inline-vs-heap representation.
impl PartialEq for Wsd {
    fn eq(&self, other: &Wsd) -> bool {
        self.assignments() == other.assignments()
    }
}

impl Eq for Wsd {}

impl PartialOrd for Wsd {
    fn partial_cmp(&self, other: &Wsd) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Wsd {
    fn cmp(&self, other: &Wsd) -> std::cmp::Ordering {
        self.assignments().cmp(other.assignments())
    }
}

impl Hash for Wsd {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.assignments().hash(state);
    }
}

impl fmt::Debug for Wsd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Wsd").field(&self.assignments()).finish()
    }
}

impl Wsd {
    /// The empty conjunction (true in every world).
    pub fn tautology() -> Wsd {
        Wsd(Repr::Inline {
            len: 0,
            buf: [PAD; INLINE_WSD],
        })
    }

    /// A single-assignment WSD (allocation-free).
    pub fn of(var: Var, alt: u16) -> Wsd {
        let mut buf = [PAD; INLINE_WSD];
        buf[0] = Assignment::new(var, alt);
        Wsd(Repr::Inline { len: 1, buf })
    }

    /// Build from a sorted, conflict-free assignment list (the invariant
    /// every public constructor establishes); inlines short lists.
    fn from_sorted(assignments: Vec<Assignment>) -> Wsd {
        if assignments.len() <= INLINE_WSD {
            Wsd::inline(&assignments)
        } else {
            Wsd(Repr::Heap(assignments))
        }
    }

    /// The inline form of a sorted, conflict-free list of at most
    /// [`INLINE_WSD`] assignments.
    fn inline(assignments: &[Assignment]) -> Wsd {
        let mut buf = [PAD; INLINE_WSD];
        buf[..assignments.len()].copy_from_slice(assignments);
        Wsd(Repr::Inline {
            len: assignments.len() as u8,
            buf,
        })
    }

    /// Build from assignments. Returns `None` when two assignments bind the
    /// same variable to different alternatives (unsatisfiable).
    pub fn from_assignments(mut assignments: Vec<Assignment>) -> Option<Wsd> {
        assignments.sort_unstable();
        assignments.dedup();
        for w in assignments.windows(2) {
            if w[0].var == w[1].var {
                return None; // same var, different alt (dedup removed equals)
            }
        }
        Some(Wsd::from_sorted(assignments))
    }

    /// Build from a list already strictly sorted by variable — the form
    /// [`Wsd::assignments`] returns — without sorting or, up to
    /// [`INLINE_WSD`] assignments, allocating. `None` unless every
    /// variable is greater than the one before it; any list
    /// [`Wsd::from_assignments`] accepts is then still accepted there, and
    /// both build the same WSD.
    pub fn from_strictly_sorted(assignments: &[Assignment]) -> Option<Wsd> {
        if assignments.windows(2).any(|w| w[0].var >= w[1].var) {
            return None;
        }
        Some(if assignments.len() <= INLINE_WSD {
            Wsd::inline(assignments)
        } else {
            Wsd(Repr::Heap(assignments.to_vec()))
        })
    }

    /// The assignments, sorted by variable.
    pub fn assignments(&self) -> &[Assignment] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// True iff this is the tautology.
    pub fn is_tautology(&self) -> bool {
        self.assignments().is_empty()
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.assignments().len()
    }

    /// True iff no assignments (same as [`Wsd::is_tautology`]).
    pub fn is_empty(&self) -> bool {
        self.assignments().is_empty()
    }

    /// The variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.assignments().iter().map(|a| a.var)
    }

    /// The alternative this WSD binds `var` to, if any.
    pub fn get(&self, var: Var) -> Option<u16> {
        let slice = self.assignments();
        slice
            .binary_search_by_key(&var, |a| a.var)
            .ok()
            .map(|i| slice[i].alt)
    }

    /// Conjunction. `None` when the result is unsatisfiable — this is the
    /// workhorse of the join translation: joined tuples whose conditions
    /// conflict exist in no common world and are dropped.
    ///
    /// Allocation-free whenever the result fits inline (at most
    /// [`INLINE_WSD`] assignments once shared variables merge — the common
    /// case for joins of `repair key` / `pick tuples` outputs): the merge
    /// runs in a stack buffer and spills to the heap only when the result
    /// needs it.
    pub fn conjoin(&self, other: &Wsd) -> Option<Wsd> {
        let (a, b) = (self.assignments(), other.assignments());
        // Tautologies are identities; the clone below is an inline copy or
        // a cheap Vec clone, never a merge.
        if b.is_empty() {
            return Some(self.clone());
        }
        if a.is_empty() {
            return Some(other.clone());
        }
        if a.len() + b.len() <= 2 * INLINE_WSD {
            let mut buf = [PAD; 2 * INLINE_WSD];
            let len = merge_into(a, b, &mut buf)?;
            return Some(if len <= INLINE_WSD {
                Wsd::inline(&buf[..len])
            } else {
                Wsd(Repr::Heap(buf[..len].to_vec()))
            });
        }
        let mut out = vec![PAD; a.len() + b.len()];
        let len = merge_into(a, b, &mut out)?;
        out.truncate(len);
        Some(Wsd::from_sorted(out))
    }

    /// Probability of the conjunction: the product of the assignments'
    /// probabilities (variables are independent and distinct within a WSD).
    pub fn prob(&self, wt: &WorldTable) -> Result<f64> {
        let mut p = 1.0;
        for &a in self.assignments() {
            p *= wt.prob(a)?;
        }
        Ok(p)
    }

    /// Whether a full world satisfies this conjunction.
    pub fn satisfied_by(&self, world: &[u16]) -> bool {
        self.assignments()
            .iter()
            .all(|a| world.get(a.var.0 as usize) == Some(&a.alt))
    }
}

/// Merge two sorted conflict-checked slices into `buf`; returns the merged
/// length or `None` on a variable conflict. Caller guarantees
/// `a.len() + b.len() <= buf.len()`.
fn merge_into(a: &[Assignment], b: &[Assignment], buf: &mut [Assignment]) -> Option<usize> {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].var.cmp(&b[j].var) {
            std::cmp::Ordering::Less => {
                buf[n] = a[i];
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                buf[n] = b[j];
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].alt != b[j].alt {
                    return None;
                }
                buf[n] = a[i];
                i += 1;
                j += 1;
            }
        }
        n += 1;
    }
    for &x in &a[i..] {
        buf[n] = x;
        n += 1;
    }
    for &x in &b[j..] {
        buf[n] = x;
        n += 1;
    }
    Some(n)
}

impl fmt::Display for Wsd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tautology() {
            return f.write_str("⊤");
        }
        for (i, a) in self.assignments().iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(v: u32, a: u16) -> Assignment {
        Assignment::new(Var(v), a)
    }

    #[test]
    fn from_assignments_sorts_and_dedups() {
        let w = Wsd::from_assignments(vec![asg(2, 1), asg(0, 3), asg(2, 1)]).unwrap();
        assert_eq!(w.assignments(), &[asg(0, 3), asg(2, 1)]);
    }

    #[test]
    fn from_strictly_sorted_refuses_what_needs_sorting() {
        let sorted = [asg(0, 3), asg(2, 1), asg(7, 0)];
        for n in 0..=sorted.len() {
            assert_eq!(
                Wsd::from_strictly_sorted(&sorted[..n]),
                Wsd::from_assignments(sorted[..n].to_vec())
            );
        }
        assert!(Wsd::from_strictly_sorted(&[asg(2, 1), asg(0, 3)]).is_none());
        assert!(Wsd::from_strictly_sorted(&[asg(2, 1), asg(2, 1)]).is_none());
        assert!(Wsd::from_strictly_sorted(&[asg(2, 0), asg(2, 1)]).is_none());
    }

    #[test]
    fn from_assignments_detects_conflict() {
        assert!(Wsd::from_assignments(vec![asg(1, 0), asg(1, 1)]).is_none());
    }

    #[test]
    fn conjoin_merges_sorted() {
        let a = Wsd::from_assignments(vec![asg(0, 1), asg(2, 0)]).unwrap();
        let b = Wsd::from_assignments(vec![asg(1, 5), asg(2, 0)]).unwrap();
        let c = a.conjoin(&b).unwrap();
        assert_eq!(c.assignments(), &[asg(0, 1), asg(1, 5), asg(2, 0)]);
    }

    #[test]
    fn conjoin_conflict_is_none() {
        let a = Wsd::of(Var(3), 0);
        let b = Wsd::of(Var(3), 1);
        assert!(a.conjoin(&b).is_none());
    }

    #[test]
    fn conjoin_with_tautology_is_identity() {
        let a = Wsd::from_assignments(vec![asg(0, 1)]).unwrap();
        assert_eq!(a.conjoin(&Wsd::tautology()).unwrap(), a);
        assert_eq!(Wsd::tautology().conjoin(&a).unwrap(), a);
    }

    #[test]
    fn conjoin_is_commutative_and_idempotent() {
        let a = Wsd::from_assignments(vec![asg(0, 1), asg(4, 2)]).unwrap();
        let b = Wsd::from_assignments(vec![asg(2, 3)]).unwrap();
        assert_eq!(a.conjoin(&b), b.conjoin(&a));
        assert_eq!(a.conjoin(&a).unwrap(), a);
    }

    #[test]
    fn prob_is_product() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        let w = Wsd::from_assignments(vec![Assignment::new(x, 1), Assignment::new(y, 0)]).unwrap();
        assert!((w.prob(&wt).unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(Wsd::tautology().prob(&wt).unwrap(), 1.0);
    }

    #[test]
    fn satisfied_by_checks_all_assignments() {
        let w = Wsd::from_assignments(vec![asg(0, 1), asg(1, 0)]).unwrap();
        assert!(w.satisfied_by(&[1, 0]));
        assert!(!w.satisfied_by(&[1, 1]));
        assert!(Wsd::tautology().satisfied_by(&[9, 9]));
    }

    #[test]
    fn get_binary_search() {
        let w = Wsd::from_assignments(vec![asg(2, 9), asg(5, 1)]).unwrap();
        assert_eq!(w.get(Var(2)), Some(9));
        assert_eq!(w.get(Var(5)), Some(1));
        assert_eq!(w.get(Var(3)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Wsd::tautology().to_string(), "⊤");
        let w = Wsd::of(Var(0), 0);
        assert_eq!(w.to_string(), "x0 ↦ 1");
    }

    /// Inline and heap representations must be indistinguishable through
    /// the public API: equality, ordering, and hashing are over the
    /// logical assignment list.
    #[test]
    fn inline_heap_boundary_is_invisible() {
        use std::collections::HashSet;
        // 0–3 assignments: inline; 4+: heap.
        let sizes: Vec<Wsd> = (0..5)
            .map(|n| Wsd::from_assignments((0..n).map(|v| asg(v, 1)).collect()).unwrap())
            .collect();
        for (n, w) in sizes.iter().enumerate() {
            assert_eq!(w.len(), n);
            assert_eq!(w.assignments().len(), n);
            assert!(w.assignments().windows(2).all(|p| p[0] < p[1]));
        }
        // Conjoin across the boundary: 2 + 2 distinct vars = 4 (heap),
        // result equal to direct construction.
        let a = Wsd::from_assignments(vec![asg(0, 1), asg(1, 0)]).unwrap();
        let b = Wsd::from_assignments(vec![asg(2, 1), asg(3, 0)]).unwrap();
        let ab = a.conjoin(&b).unwrap();
        assert_eq!(
            ab,
            Wsd::from_assignments(vec![asg(0, 1), asg(1, 0), asg(2, 1), asg(3, 0)]).unwrap()
        );
        // Equality and hash agree across the boundary: a heap conjunction
        // finds its directly built twin, an inline one its own.
        let mut set = HashSet::new();
        set.insert(ab.clone());
        set.insert(b.clone());
        assert!(set.contains(
            &Wsd::from_assignments(vec![asg(3, 0), asg(2, 1), asg(1, 0), asg(0, 1)]).unwrap()
        ));
        assert!(set.contains(&b.conjoin(&b).unwrap()));
    }

    #[test]
    fn conjoin_small_is_inline_and_correct() {
        let a = Wsd::of(Var(3), 1);
        let b = Wsd::of(Var(1), 0);
        let c = a.conjoin(&b).unwrap();
        assert_eq!(c.assignments(), &[asg(1, 0), asg(3, 1)]);
        // Identical singletons conjoin to themselves.
        assert_eq!(a.conjoin(&a).unwrap(), a);
    }

    fn is_inline(w: &Wsd) -> bool {
        matches!(w.0, Repr::Inline { .. })
    }

    /// The third inline slot fills padding: the enum stays 32 bytes.
    #[test]
    fn wsd_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Wsd>(), 32);
    }

    /// A three-way conjunction (a three-step walk's condition) is inline,
    /// and so is a conjunction of operands that share a variable and
    /// together list more than [`INLINE_WSD`] assignments.
    #[test]
    fn three_literal_conjunctions_are_inline() {
        let ab = Wsd::of(Var(0), 1).conjoin(&Wsd::of(Var(1), 0)).unwrap();
        let abc = ab.conjoin(&Wsd::of(Var(2), 1)).unwrap();
        assert!(is_inline(&abc));
        assert_eq!(abc.assignments(), &[asg(0, 1), asg(1, 0), asg(2, 1)]);
        let x12 = Wsd::from_assignments(vec![asg(1, 0), asg(2, 0)]).unwrap();
        let x23 = Wsd::from_assignments(vec![asg(2, 0), asg(3, 1)]).unwrap();
        let shared = x12.conjoin(&x23).unwrap();
        assert!(is_inline(&shared));
        assert_eq!(shared.assignments(), &[asg(1, 0), asg(2, 0), asg(3, 1)]);
        let wide = Wsd::from_assignments((0..3).map(|v| asg(v, 0)).collect()).unwrap();
        let wide2 = Wsd::from_assignments((1..4).map(|v| asg(v, 0)).collect()).unwrap();
        assert!(!is_inline(&wide.conjoin(&wide2).unwrap()));
    }

    /// Over generated pairs of every size on both sides of the stack
    /// buffer, `conjoin` equals `from_assignments` of the concatenation —
    /// conflicts included — and is inline exactly when the result fits.
    #[test]
    fn conjoin_matches_from_assignments_of_the_concatenation() {
        fn next(state: &mut u64, m: u64) -> u64 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state % m
        }
        // Up to 8 bindings over 10 variables, the first binding of each
        // variable kept.
        fn side(state: &mut u64) -> Wsd {
            let mut list: Vec<Assignment> = Vec::new();
            for _ in 0..next(state, 9) {
                let a = asg(next(state, 10) as u32, next(state, 2) as u16);
                if list.iter().all(|b| b.var != a.var) {
                    list.push(a);
                }
            }
            Wsd::from_assignments(list).unwrap()
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut conflicts = 0;
        for _ in 0..4000 {
            let (a, b) = (side(&mut state), side(&mut state));
            let mut both = a.assignments().to_vec();
            both.extend_from_slice(b.assignments());
            let want = Wsd::from_assignments(both);
            let got = a.conjoin(&b);
            assert_eq!(got, want, "{a:?} ∧ {b:?}");
            match got {
                Some(w) => assert_eq!(is_inline(&w), w.len() <= INLINE_WSD, "{w:?}"),
                None => conflicts += 1,
            }
        }
        assert!(conflicts > 0, "the generator must reach a conflict");
    }
}
