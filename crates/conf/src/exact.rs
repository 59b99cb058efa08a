//! Exact confidence computation: the Koch–Olteanu decomposition-tree
//! algorithm ("Conditioning Probabilistic Databases", VLDB 2008; §2.3 of
//! the demo paper).
//!
//! "Given a DNF (of which each clause is a conjunctive local condition),
//! the algorithm employs a combination of variable elimination and
//! decomposition of the DNF into independent subsets of clauses (i.e.,
//! subsets that do not share variables), with cost-estimation heuristics
//! for choosing whether to use the former (and for which variable) or the
//! latter."
//!
//! The recursion builds a decomposition tree (d-tree):
//!
//! * **⊥ / ⊤ leaves** — no clause (probability 0), a clause with no
//!   literal left (probability 1);
//! * **independent-partition nodes** — split the clauses into connected
//!   components of the clause/variable incidence graph;
//!   `P = 1 − Π(1 − P(componentᵢ))`;
//! * **single-clause leaves** — product of the assignment probabilities;
//! * **variable-elimination nodes** (Shannon expansion over a variable's
//!   alternatives) — `P = Σ_a P(x = a) · P(DNF | x = a)`, eliminating the
//!   variable that occurs in the most clauses, ties to the smallest id
//!   (it maximises the chance that conditioning decomposes the rest).
//!
//! A node that splits into independent parts is partitioned; only a
//! connected node eliminates a variable.
//!
//! # Nodes over a compiled lineage
//!
//! A call compiles its DNF once (`CompiledLineage`) and walks it in one
//! reusable `DTreeScratch`: a node is a range of a clause stack, and a
//! clause there is a range of a literal arena holding its *live* literals
//! — those of variables not yet conditioned on — in variable order. The
//! arena starts as the compiled literals. Shannon expansion on `x = a`
//! drops the clauses binding `x` elsewhere and takes `x` out of the
//! others: a clause that does not mention `x` keeps its range, one that
//! starts or ends with `x = a` narrows it, and only a clause holding
//! `x = a` in its middle is copied to the arena's top. A child's clauses
//! and copies are popped when it returns, so a call allocates only when
//! its stacks outgrow every earlier call's. No pass re-filters a literal.
//!
//! A node counts each variable's clauses once (per-variable slots stamped
//! with an epoch: no hash map, no re-zeroing). A variable in every clause
//! proves the node connected and is the one to eliminate; otherwise a
//! union–find over the clauses decides. The parts of a partition are
//! connected by construction, so they skip that test.
//!
//! # Absorption
//!
//! The root is absorbed before it expands: a clause with no live literal
//! makes the node `true`, equal clauses collapse to one, and a clause
//! containing another clause goes. Clauses sort by (first live literal,
//! live length, live literals), so equal clauses are adjacent and the
//! clauses strictly shorter than `c` that start with a given literal of
//! `c` form one contiguous run, found by binary search. Every clause
//! `d ⊂ c` starts with a literal of `c`, so checking `c` against those
//! runs alone drops exactly what an all-pairs check would, at
//! O(n·k·(log n + run)) for `n` clauses of `k` literals instead of
//! O(n²·k). Walk lineage, whose clauses have equal length, does no subset
//! test at all.
//!
//! Every node's clause set is absorbed, and a Shannon child on `x = a`
//! needs the same pass only when it mixes shortened clauses (that lost
//! `x = a`) with untouched ones (that never held `x`). Two shortened
//! clauses were distinct and free of containment before, and still are;
//! two untouched ones did not change; and an untouched clause inside a
//! shortened one would have been inside its original. Only a shortened
//! clause can equal or swallow an untouched one, so only a child holding
//! both kinds is absorbed again. What is dropped is the same set either
//! way, and the clause order inside a node never reaches a probability:
//! a partition orders its parts by their smallest variable, the choice
//! rule reads counts, and a leaf holds one clause.
//!
//! # Checkpoints
//!
//! Every d-tree node is a governor checkpoint, and absorption ticks a
//! [`maybms_gov::Ticker`] per subset test (one real check per 1 024), so
//! a deadline or cancel also interrupts a large absorption. An `aconf()`
//! attempt (`bounded`) gives up at its node limit or at a deadline; below
//! it, its answer is the unbounded d-tree's, bit for bit.

use std::cmp::Reverse;

use maybms_gov::{GovError, Ticker};
use maybms_urel::{Result, UrelError, WorldTable};

use crate::dnf::{CompiledLineage, Dnf, Lit};

/// Statistics of one exact computation: the shape of its d-tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactStats {
    /// Number of independent-partition nodes.
    pub decompositions: usize,
    /// Number of variable-elimination (Shannon) nodes.
    pub eliminations: usize,
    /// Number of leaves (constants and single clauses).
    pub leaves: usize,
    /// Maximum recursion depth reached.
    pub max_depth: usize,
}

impl ExactStats {
    /// D-tree nodes expanded: decompositions, eliminations and leaves.
    pub fn nodes(&self) -> usize {
        self.decompositions + self.eliminations + self.leaves
    }
}

/// Exact probability of `dnf`.
pub fn probability(dnf: &Dnf, wt: &WorldTable) -> Result<f64> {
    probability_with(dnf, wt).map(|(p, _)| p)
}

/// Exact probability of `dnf` and the statistics of its d-tree.
pub fn probability_with(dnf: &Dnf, wt: &WorldTable) -> Result<(f64, ExactStats)> {
    let lineage = CompiledLineage::new(dnf, wt)?;
    let (p, stats) = bounded(&lineage, usize::MAX, &mut DTreeScratch::default())?;
    Ok((p.expect("an unbounded d-tree always answers"), stats))
}

/// The d-tree over `lineage` within `limit` nodes, in `scratch`: `None`
/// (and the stats of the nodes it expanded) when it needs more or,
/// bounded, meets the statement's deadline — the `aconf()` cascade then
/// samples. What an earlier call left in `scratch` never reaches the
/// answer.
pub(crate) fn bounded(
    lineage: &CompiledLineage,
    limit: usize,
    scratch: &mut DTreeScratch,
) -> Result<(Option<f64>, ExactStats)> {
    scratch.reset(lineage);
    let mut tree = DTree {
        lineage,
        limit,
        stats: ExactStats::default(),
        ticker: Ticker::new(),
        s: scratch,
    };
    match tree.root() {
        Ok(p) => Ok((Some(p), tree.stats)),
        Err(Halt::Spent) => Ok((None, tree.stats)),
        Err(Halt::Failed(e)) => Err(e),
    }
}

/// Why a d-tree stopped without an answer: a bounded attempt ran out of
/// nodes or met the deadline, or a governor abort to report.
enum Halt {
    Spent,
    Failed(UrelError),
}

/// A governor abort as a [`Halt`]: at a deadline a bounded attempt hands
/// over to the sampler, whose first checkpoint then degrades the estimate.
fn halt(g: GovError, limit: usize) -> Halt {
    match g {
        GovError::DeadlineExceeded { .. } if limit < usize::MAX => Halt::Spent,
        g => Halt::Failed(UrelError::from(maybms_engine::EngineError::Gov(g))),
    }
}

type Step<T> = std::result::Result<T, Halt>;

/// A clause of a node: its live literals, `lits[start..start + len]` of
/// the scratch's arena.
#[derive(Debug, Clone, Copy, Default)]
struct Clause {
    start: u32,
    len: u32,
}

impl Clause {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The buffers of d-tree evaluation, reused call after call (see the
/// module docs). Nothing in them outlives a call's meaning: each call
/// resets the stacks, and the epoch only grows.
#[derive(Debug, Default)]
pub(crate) struct DTreeScratch {
    /// The literal arena: the compiled literals, then Shannon copies.
    lits: Vec<Lit>,
    /// The clause stack: each node's clauses are a range of it.
    clauses: Vec<Clause>,
    /// Where each part of the partitions on the current path ends.
    ends: Vec<usize>,
    /// Per-variable slots: `slot[v]` holds while `stamp[v] == epoch`.
    stamp: Vec<u64>,
    slot: Vec<u32>,
    epoch: u64,
    /// Union–find parents over a node's clause positions.
    parent: Vec<u32>,
    /// Per root, its part's smallest variable, then the part's number.
    low: Vec<u32>,
    /// A partition's parts in order: `(smallest variable, root)`, then
    /// `(clauses, root)`, then `(next stack slot, root)`.
    parts: Vec<(u32, u32)>,
    /// Absorption: which of a node's clauses survive.
    keep: Vec<bool>,
}

impl DTreeScratch {
    /// Start a call over `lineage`: the root's clauses on an empty stack.
    fn reset(&mut self, lineage: &CompiledLineage) {
        self.lits.clear();
        self.lits.extend_from_slice(lineage.literals());
        self.clauses.clear();
        self.clauses.extend((0..lineage.num_clauses()).map(|i| {
            let r = lineage.clause_range(i);
            Clause {
                start: r.start as u32,
                len: r.len() as u32,
            }
        }));
        self.ends.clear();
        let vars = lineage.num_vars();
        if self.stamp.len() < vars {
            self.stamp.resize(vars, 0);
            self.slot.resize(vars, 0);
        }
    }

    /// A clause's live literals.
    fn live(&self, c: Clause) -> &[Lit] {
        &self.lits[c.range()]
    }
}

/// One call's d-tree evaluation over its scratch.
struct DTree<'a> {
    lineage: &'a CompiledLineage,
    /// Nodes the tree may expand ([`usize::MAX`]: unbounded).
    limit: usize,
    stats: ExactStats,
    /// Amortised checkpoint of the absorption's subset tests.
    ticker: Ticker,
    s: &'a mut DTreeScratch,
}

/// Union–find root of `i`, compressing the path.
fn find(parent: &mut [u32], i: u32) -> u32 {
    let mut root = i;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = i;
    while parent[cur as usize] != root {
        cur = std::mem::replace(&mut parent[cur as usize], root);
    }
    root
}

impl DTree<'_> {
    /// Enter a node at `depth`: one governor checkpoint, and the end of an
    /// attempt whose nodes are spent.
    fn enter(&mut self, depth: usize) -> Step<()> {
        maybms_gov::check().map_err(|g| halt(g, self.limit))?;
        if self.stats.nodes() == self.limit {
            return Err(Halt::Spent);
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);
        Ok(())
    }

    /// A `true` leaf at `depth`.
    fn verum(&mut self, depth: usize) -> Step<f64> {
        self.enter(depth)?;
        self.stats.leaves += 1;
        Ok(1.0)
    }

    /// The root: absorbed, then evaluated.
    fn root(&mut self) -> Step<f64> {
        if !self.absorb(0)? {
            return self.verum(1);
        }
        self.node(0, self.s.clauses.len(), 1, false)
    }

    /// Evaluate the node `clauses[lo..hi]`, absorbed and none of them
    /// `true`; `connected` when it is known not to split.
    fn node(&mut self, lo: usize, hi: usize, depth: usize, connected: bool) -> Step<f64> {
        self.enter(depth)?;
        let lineage = self.lineage;
        if hi - lo <= 1 {
            self.stats.leaves += 1;
            let product = |&c| self.s.live(c).iter().fold(1.0, |p, &l| p * lineage.prob(l));
            return Ok(self.s.clauses[lo..hi].first().map_or(0.0, product));
        }
        let (x, count) = self.choose_var(lo, hi);
        if !connected && count < hi - lo {
            let (base, first) = (self.s.clauses.len(), self.s.ends.len());
            if self.partition(lo, hi) {
                self.stats.decompositions += 1;
                let mut none = 1.0;
                let mut start = base;
                for k in first..self.s.ends.len() {
                    let end = self.s.ends[k];
                    none *= 1.0 - self.node(start, end, depth + 1, true)?;
                    start = end;
                }
                self.s.clauses.truncate(base);
                self.s.ends.truncate(first);
                return Ok(1.0 - none);
            }
        }
        self.stats.eliminations += 1;
        let mut total = 0.0;
        for (alt, &p_alt) in lineage.distribution(x).iter().enumerate() {
            if p_alt == 0.0 {
                continue;
            }
            let (top, arena) = (self.s.clauses.len(), self.s.lits.len());
            let p = match self.shannon(lo, hi, x, alt as u16)? {
                false => self.verum(depth + 1),
                true => self.node(top, self.s.clauses.len(), depth + 1, false),
            };
            self.s.clauses.truncate(top);
            self.s.lits.truncate(arena);
            total += p_alt * p?;
        }
        Ok(total)
    }

    /// Push the Shannon child of `clauses[lo..hi]` on `x = alt` and absorb
    /// it if it needs to be (see the module docs): `false` when it is
    /// `true`.
    fn shannon(&mut self, lo: usize, hi: usize, x: u32, alt: u16) -> Step<bool> {
        let top = self.s.clauses.len();
        let (mut shortened, mut untouched) = (false, false);
        for i in lo..hi {
            let c = self.s.clauses[i];
            let live = self.s.live(c);
            let k = live.iter().position(|&(v, _)| v >= x).unwrap_or(live.len());
            let child = match live.get(k) {
                Some(&(v, a)) if v == x => {
                    if a != alt {
                        continue;
                    }
                    if c.len == 1 {
                        return Ok(false);
                    }
                    shortened = true;
                    let len = c.len - 1;
                    match k as u32 {
                        0 => Clause {
                            start: c.start + 1,
                            len,
                        },
                        k if k == len => Clause {
                            start: c.start,
                            len,
                        },
                        k => {
                            let start = self.s.lits.len() as u32;
                            let (head, tail) = (c.start as usize, (c.start + k) as usize);
                            self.s.lits.extend_from_within(head..tail);
                            self.s.lits.extend_from_within(tail + 1..c.range().end);
                            Clause { start, len }
                        }
                    }
                }
                _ => {
                    untouched = true;
                    c
                }
            };
            self.s.clauses.push(child);
        }
        if shortened && untouched {
            self.absorb(top)?;
        }
        Ok(true)
    }

    /// Absorb the clauses on the stack from `lo` up (see the module
    /// docs): `false` when one has no live literal (the node is `true`),
    /// else the survivors stay, in sort order.
    fn absorb(&mut self, lo: usize) -> Step<bool> {
        let DTreeScratch {
            lits,
            clauses,
            keep,
            ..
        } = &mut *self.s;
        if clauses[lo..].iter().any(|c| c.len == 0) {
            return Ok(false);
        }
        let lits = &lits[..];
        let order = |a: &Clause, b: &Clause| {
            let (la, lb) = (&lits[a.range()], &lits[b.range()]);
            (la[0], a.len).cmp(&(lb[0], b.len)).then_with(|| la.cmp(lb))
        };
        // Walk groups arrive in this order, distinct: counted on the
        // conf_exact and conf_approx benchmark workloads, every absorption
        // was at the root and found its clauses sorted. Skipping the sort
        // and the dedup makes a 4- or 16-clause call 1.1–1.5× faster
        // (exp_walk E1b, interleaved runs).
        if !clauses[lo..].is_sorted_by(|a, b| order(a, b).is_lt()) {
            clauses[lo..].sort_unstable_by(order);
            let mut kept = lo;
            for i in lo..clauses.len() {
                if kept == lo || order(&clauses[kept - 1], &clauses[i]).is_ne() {
                    clauses[kept] = clauses[i];
                    kept += 1;
                }
            }
            clauses.truncate(kept);
        }
        let node = &clauses[lo..];
        let (shortest, longest) = node
            .iter()
            .fold((u32::MAX, 0), |(s, l), c| (s.min(c.len), l.max(c.len)));
        if shortest == longest {
            return Ok(true);
        }
        keep.clear();
        keep.resize(node.len(), true);
        let first = |d: &Clause| lits[d.start as usize];
        for (i, &c) in node.iter().enumerate() {
            'lits: for &lit in &lits[c.range()] {
                let from = node.partition_point(|d| first(d) < lit);
                let to = node.partition_point(|d| (first(d), d.len) < (lit, c.len));
                for d in &node[from..to] {
                    self.ticker.tick().map_err(|g| halt(g, self.limit))?;
                    let mut sup = lits[c.range()].iter();
                    if lits[d.range()]
                        .iter()
                        .all(|l| sup.find(|m| m.0 >= l.0) == Some(l))
                    {
                        keep[i] = false;
                        break 'lits;
                    }
                }
            }
        }
        let mut kept = lo;
        for i in lo..clauses.len() {
            if keep[i - lo] {
                clauses[kept] = clauses[i];
                kept += 1;
            }
        }
        clauses.truncate(kept);
        Ok(true)
    }

    /// Split the node `clauses[lo..hi]` into the connected components of
    /// the clause–variable graph: push its clauses part by part, smallest
    /// variable first, and where each part ends. `false` (and nothing
    /// pushed) when the node is connected.
    fn partition(&mut self, lo: usize, hi: usize) -> bool {
        let s = &mut *self.s;
        s.epoch += 1;
        let n = hi - lo;
        s.parent.clear();
        s.parent.extend(0..n as u32);
        for (i, &c) in (0..n as u32).zip(&s.clauses[lo..hi]) {
            for &(v, _) in &s.lits[c.range()] {
                let v = v as usize;
                if s.stamp[v] == s.epoch {
                    let (ri, rj) = (find(&mut s.parent, i), find(&mut s.parent, s.slot[v]));
                    s.parent[ri as usize] = rj;
                } else {
                    s.stamp[v] = s.epoch;
                    s.slot[v] = i;
                }
            }
        }
        // After this pass every clause's parent is its root.
        let roots = (0..n as u32)
            .filter(|&i| find(&mut s.parent, i) == i)
            .count();
        if roots == 1 {
            return false;
        }
        // A part's smallest variable — its clauses' smallest first live
        // variable, per root in `low` — is unique to it: order by it.
        s.low.clear();
        s.low.resize(n, u32::MAX);
        for (i, c) in s.clauses[lo..hi].iter().enumerate() {
            let r = s.parent[i] as usize;
            s.low[r] = s.low[r].min(s.lits[c.start as usize].0);
        }
        s.parts.clear();
        s.parts.extend(
            (0..n as u32)
                .filter(|&i| s.parent[i as usize] == i)
                .map(|r| (s.low[r as usize], r)),
        );
        s.parts.sort_unstable();
        for (k, part) in s.parts.iter_mut().enumerate() {
            s.low[part.1 as usize] = k as u32;
            part.0 = 0;
        }
        for &r in &s.parent {
            s.parts[s.low[r as usize] as usize].0 += 1;
        }
        let mut end = s.clauses.len();
        for part in &mut s.parts {
            (part.0, end) = (end as u32, end + part.0 as usize);
            s.ends.push(end);
        }
        s.clauses.resize(end, Clause::default());
        for i in 0..n {
            let part = &mut s.parts[s.low[s.parent[i] as usize] as usize];
            s.clauses[part.0 as usize] = s.clauses[lo + i];
            part.0 += 1;
        }
        true
    }

    /// The elimination variable of `clauses[lo..hi]` and the number of
    /// clauses it is in: the variable in the most clauses, ties to the
    /// smallest id.
    fn choose_var(&mut self, lo: usize, hi: usize) -> (u32, usize) {
        let s = &mut *self.s;
        s.epoch += 1;
        // The leader and its count; a node with two clauses, none true,
        // mentions a variable, so the count ends above 0.
        let mut best = (0, Reverse(u32::MAX));
        for &c in &s.clauses[lo..hi] {
            for &(v, _) in &s.lits[c.range()] {
                let vi = v as usize;
                if s.stamp[vi] != s.epoch {
                    s.stamp[vi] = s.epoch;
                    s.slot[vi] = 0;
                }
                s.slot[vi] += 1;
                // Only `v`'s count moved, so the leader is `v` or unchanged.
                best = best.max((s.slot[vi], Reverse(v)));
            }
        }
        let (count, Reverse(x)) = best;
        (x, count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use maybms_urel::{Assignment, Var, Wsd};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect()).unwrap()
    }

    #[test]
    fn constants() {
        let wt = WorldTable::new();
        assert_eq!(probability(&Dnf::falsum(), &wt).unwrap(), 0.0);
        assert_eq!(
            probability(&Dnf::new(vec![Wsd::tautology()]), &wt).unwrap(),
            1.0
        );
    }

    #[test]
    fn independent_clauses_decompose() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.7, 0.3]).unwrap();
        let y = wt.new_var(&[0.4, 0.6]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1)]), clause(&[(y, 1)])]);
        let (p, stats) = probability_with(&d, &wt).unwrap();
        assert!((p - 0.72).abs() < 1e-12);
        assert_eq!(stats.decompositions, 1);
        assert_eq!(stats.eliminations, 0);
    }

    #[test]
    fn shared_variable_forces_elimination() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        // (x=1 ∧ y=1) ∨ (x=0): P = 0.25 + 0.5 = 0.75
        let d = Dnf::new(vec![clause(&[(x, 1), (y, 1)]), clause(&[(x, 0)])]);
        let (p, stats) = probability_with(&d, &wt).unwrap();
        assert!((p - 0.75).abs() < 1e-12);
        assert!(stats.eliminations >= 1);
    }

    #[test]
    fn mutually_exclusive_assignments() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.2, 0.3, 0.5]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 0)]), clause(&[(x, 2)])]);
        assert!((probability(&d, &wt).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_naive_on_handcrafted_cases() {
        let mut wt = WorldTable::new();
        let v: Vec<Var> = (0..5)
            .map(|i| {
                wt.new_var(&[0.1 + 0.1 * i as f64, 0.9 - 0.1 * i as f64])
                    .unwrap()
            })
            .collect();
        let cases = vec![
            Dnf::new(vec![
                clause(&[(v[0], 1), (v[1], 1)]),
                clause(&[(v[1], 0), (v[2], 1)]),
            ]),
            Dnf::new(vec![
                clause(&[(v[0], 1)]),
                clause(&[(v[1], 1), (v[2], 1)]),
                clause(&[(v[3], 1), (v[4], 0)]),
            ]),
            Dnf::new(vec![
                clause(&[(v[0], 1), (v[1], 1), (v[2], 1)]),
                clause(&[(v[0], 0), (v[3], 1)]),
                clause(&[(v[2], 0), (v[4], 1)]),
                clause(&[(v[1], 0)]),
            ]),
        ];
        for d in cases {
            let exact = probability(&d, &wt).unwrap();
            let oracle = naive::probability(&d, &wt, 1 << 20).unwrap();
            assert!(
                (exact - oracle).abs() < 1e-9,
                "exact {exact} vs naive {oracle} on {d:?}"
            );
        }
    }

    #[test]
    fn duplicates_and_supersets_are_absorbed_before_the_dtree() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.7, 0.3]).unwrap();
        let y = wt.new_var(&[0.4, 0.6]).unwrap();
        // x=1 ∨ x=1 ∨ (x=1 ∧ y=0) ∨ y=1  ≡  x=1 ∨ y=1: one partition, two leaves.
        let d = Dnf::new(vec![
            clause(&[(x, 1)]),
            clause(&[(x, 1)]),
            clause(&[(x, 1), (y, 0)]),
            clause(&[(y, 1)]),
        ]);
        let (p, stats) = probability_with(&d, &wt).unwrap();
        assert_eq!(p.to_bits(), (1.0 - (1.0 - 0.3) * (1.0 - 0.6f64)).to_bits());
        assert_eq!(
            stats,
            ExactStats {
                decompositions: 1,
                eliminations: 0,
                leaves: 2,
                max_depth: 2
            }
        );
        // Shannon children are absorbed too: under x=1, (y=1) absorbs
        // (y=1 ∧ z=0); under x=0 then z=1, (z=1) leaves nothing — ⊤.
        let z = wt.new_var(&[0.5, 0.5]).unwrap();
        let d = Dnf::new(vec![
            clause(&[(x, 1), (y, 1)]),
            clause(&[(y, 1), (z, 0)]),
            clause(&[(x, 0), (z, 1)]),
        ]);
        let (p, stats) = probability_with(&d, &wt).unwrap();
        assert!((p - (0.7 * (0.5 * 0.6 + 0.5) + 0.3 * 0.6)).abs() < 1e-15);
        assert_eq!(
            stats,
            ExactStats {
                decompositions: 0,
                eliminations: 2,
                leaves: 3,
                max_depth: 3
            }
        );
    }

    #[test]
    fn zero_probability_branches_skipped() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.0, 1.0]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 0), (y, 0)]), clause(&[(x, 1), (y, 1)])]);
        // P = 0·(…) + 1·P(y=1) = 0.5
        assert!((probability(&d, &wt).unwrap() - 0.5).abs() < 1e-12);
    }
}
