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
//! A call compiles its DNF once (`CompiledLineage`). A node is a list of
//! clause indices; the variables conditioned on along the path live in one
//! per-call `fixed[var]` array, and a clause's *live* literals are those
//! of unfixed variables. Shannon expansion on `x = a` is a filter (drop
//! clauses binding `x` elsewhere) plus one store into `fixed` — no `Dnf`
//! or `Wsd` is rebuilt. Partitioning (union–find) and variable choice use
//! per-variable slots stamped with an epoch: no hash map, no re-zeroing.
//!
//! # Absorption
//!
//! The root and every Shannon child are absorbed before they expand: a
//! clause with no live literal makes the node `true`, equal clauses
//! collapse to one, and a clause containing another clause goes. Clauses
//! sort by (first live literal, live length, live literals), so equal
//! clauses are adjacent and the clauses strictly shorter than `c` that
//! start with a given literal of `c` form one contiguous run, found by
//! binary search. Every clause `d ⊂ c` starts with a literal of `c`, so
//! checking `c` against those runs alone drops exactly what an all-pairs
//! check would, at O(n·k·(log n + run)) for `n` clauses of `k` literals
//! instead of O(n²·k). Walk lineage, whose clauses have equal length,
//! does no subset test at all.
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

use crate::dnf::{CompiledLineage, Dnf};

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
    let (p, stats) = bounded(&CompiledLineage::new(dnf, wt)?, usize::MAX)?;
    Ok((p.expect("an unbounded d-tree always answers"), stats))
}

/// The d-tree over `lineage` within `limit` nodes: `None` (and the stats
/// of the nodes it expanded) when it needs more or, bounded, meets the
/// statement's deadline — the `aconf()` cascade then samples.
pub(crate) fn bounded(
    lineage: &CompiledLineage,
    limit: usize,
) -> Result<(Option<f64>, ExactStats)> {
    let vars = lineage.num_vars();
    let mut tree = DTree {
        lineage,
        limit,
        stats: ExactStats::default(),
        fixed: vec![FREE; vars],
        stamp: vec![0; vars],
        slot: vec![0; vars],
        epoch: 0,
        key: vec![((0, 0), 0); lineage.num_clauses()],
        parent: Vec::new(),
        ticker: Ticker::new(),
    };
    match tree.absorbed((0..lineage.num_clauses() as u32).collect(), 1) {
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

/// `fixed[v]` of a variable not conditioned on. Domains hold at most
/// `u16::MAX` alternatives, so no alternative is `u16::MAX`.
const FREE: u16 = u16::MAX;

/// The per-call state of one d-tree evaluation.
struct DTree<'a> {
    lineage: &'a CompiledLineage,
    /// Nodes the tree may expand ([`usize::MAX`]: unbounded).
    limit: usize,
    stats: ExactStats,
    /// Each variable's alternative along the current path, or [`FREE`].
    fixed: Vec<u16>,
    /// Per-variable slots: `slot[v]` holds while `stamp[v] == epoch`.
    stamp: Vec<u64>,
    slot: Vec<u32>,
    epoch: u64,
    /// Absorption sort key per clause: first live literal, live length.
    key: Vec<((u32, u16), u32)>,
    /// Union–find parents over a node's clause positions.
    parent: Vec<u32>,
    /// Amortised checkpoint of the absorption's subset tests.
    ticker: Ticker,
}

/// The literals of clause `c` whose variable is not fixed.
fn live<'l>(
    lineage: &'l CompiledLineage,
    fixed: &'l [u16],
    c: u32,
) -> impl Iterator<Item = (u32, u16)> + 'l {
    lineage
        .clause(c as usize)
        .iter()
        .copied()
        .filter(move |&(v, _)| fixed[v as usize] == FREE)
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

    /// Absorb `clauses` (the root or a Shannon child), then evaluate them.
    fn absorbed(&mut self, clauses: Vec<u32>, depth: usize) -> Step<f64> {
        match self.absorb(clauses)? {
            Some(kept) => self.node(&kept, depth),
            None => self.enter(depth).map(|()| {
                self.stats.leaves += 1;
                1.0
            }),
        }
    }

    /// Evaluate a node whose clauses are absorbed and none of them `true`.
    fn node(&mut self, clauses: &[u32], depth: usize) -> Step<f64> {
        self.enter(depth)?;
        let lineage = self.lineage;
        if let [] | [_] = clauses {
            self.stats.leaves += 1;
            let product = |&c| live(lineage, &self.fixed, c).fold(1.0, |p, l| p * lineage.prob(l));
            return Ok(clauses.first().map_or(0.0, product));
        }
        if let Some((ends, order)) = self.components(clauses) {
            self.stats.decompositions += 1;
            let mut none = 1.0;
            let mut start = 0;
            for end in ends {
                none *= 1.0 - self.node(&order[start..end], depth + 1)?;
                start = end;
            }
            return Ok(1.0 - none);
        }
        self.stats.eliminations += 1;
        let x = self.choose_var(clauses);
        let mut total = 0.0;
        for (alt, &p_alt) in lineage.distribution(x).iter().enumerate() {
            if p_alt == 0.0 {
                continue;
            }
            let alt = alt as u16;
            let child = clauses
                .iter()
                .copied()
                .filter(|&c| {
                    lineage
                        .clause(c as usize)
                        .iter()
                        .all(|&(v, a)| v != x || a == alt)
                })
                .collect();
            self.fixed[x as usize] = alt;
            let p = self.absorbed(child, depth + 1);
            self.fixed[x as usize] = FREE;
            total += p_alt * p?;
        }
        Ok(total)
    }

    /// Absorption (see the module docs): `None` when a clause has no live
    /// literal (the node is `true`), else the surviving clauses in sort
    /// order.
    fn absorb(&mut self, mut clauses: Vec<u32>) -> Step<Option<Vec<u32>>> {
        let (lineage, fixed, limit) = (self.lineage, &self.fixed[..], self.limit);
        let (mut shortest, mut longest) = (u32::MAX, 0);
        for &c in &clauses {
            let mut lits = live(lineage, fixed, c);
            let Some(first) = lits.next() else {
                return Ok(None);
            };
            let len = 1 + lits.count() as u32;
            self.key[c as usize] = (first, len);
            (shortest, longest) = (shortest.min(len), longest.max(len));
        }
        let (key, ticker) = (&self.key[..], &mut self.ticker);
        let cmp = |&a: &u32, &b: &u32| {
            key[a as usize]
                .cmp(&key[b as usize])
                .then_with(|| live(lineage, fixed, a).cmp(live(lineage, fixed, b)))
        };
        clauses.sort_unstable_by(cmp);
        clauses.dedup_by(|a, b| cmp(a, b).is_eq());
        debug_assert!(clauses.windows(2).all(|w| cmp(&w[0], &w[1]).is_lt()));
        if shortest == longest {
            return Ok(Some(clauses));
        }
        let mut keep = vec![true; clauses.len()];
        for (i, &c) in clauses.iter().enumerate() {
            let len = key[c as usize].1;
            'lits: for lit in live(lineage, fixed, c) {
                let lo = clauses.partition_point(|&d| key[d as usize].0 < lit);
                let hi = clauses.partition_point(|&d| key[d as usize] < (lit, len));
                for &d in &clauses[lo..hi] {
                    ticker.tick().map_err(|g| halt(g, limit))?;
                    let mut sup = live(lineage, fixed, c);
                    if live(lineage, fixed, d).all(|l| sup.find(|m| m.0 >= l.0) == Some(l)) {
                        keep[i] = false;
                        break 'lits;
                    }
                }
            }
        }
        let mut keep = keep.into_iter();
        clauses.retain(|_| keep.next() == Some(true));
        Ok(Some(clauses))
    }

    /// Split a node's clauses into the connected components of the
    /// clause–variable graph: the clause indices component by component,
    /// smallest variable first, and where each component ends. `None`
    /// when the node is connected.
    fn components(&mut self, clauses: &[u32]) -> Option<(Vec<usize>, Vec<u32>)> {
        self.epoch += 1;
        let (lineage, fixed, epoch) = (self.lineage, &self.fixed[..], self.epoch);
        let (stamp, slot, parent) = (&mut self.stamp, &mut self.slot, &mut self.parent);
        let n = clauses.len() as u32;
        parent.clear();
        parent.extend(0..n);
        for (i, &c) in (0..n).zip(clauses) {
            for (v, _) in live(lineage, fixed, c) {
                let v = v as usize;
                if stamp[v] == epoch {
                    let (ri, rj) = (find(parent, i), find(parent, slot[v]));
                    parent[ri as usize] = rj;
                } else {
                    stamp[v] = epoch;
                    slot[v] = i;
                }
            }
        }
        // After this pass every clause's parent is its root.
        if (0..n).filter(|&i| find(parent, i) == i).count() == 1 {
            return None;
        }
        // A component's smallest variable — its clauses' smallest first
        // live variable, per root in `low` — is unique to it: sort by it.
        let mut low = vec![u32::MAX; n as usize];
        for (i, &c) in clauses.iter().enumerate() {
            let first = live(lineage, fixed, c)
                .next()
                .expect("absorbed clauses are not true")
                .0;
            let r = parent[i] as usize;
            low[r] = low[r].min(first);
        }
        let mut order: Vec<(u32, u32)> = clauses
            .iter()
            .enumerate()
            .map(|(i, &c)| (low[parent[i] as usize], c))
            .collect();
        order.sort_unstable();
        let ends =
            (1..=order.len()).filter(|&k| order.get(k).is_none_or(|o| o.0 != order[k - 1].0));
        Some((ends.collect(), order.into_iter().map(|(_, c)| c).collect()))
    }

    /// The elimination variable: the one in the most clauses, ties to the
    /// smallest id.
    fn choose_var(&mut self, clauses: &[u32]) -> u32 {
        self.epoch += 1;
        let (lineage, fixed, epoch) = (self.lineage, &self.fixed[..], self.epoch);
        let (stamp, slot) = (&mut self.stamp, &mut self.slot);
        let mut best: Option<u32> = None;
        for &c in clauses {
            for (v, _) in live(lineage, fixed, c) {
                let vi = v as usize;
                if stamp[vi] != epoch {
                    stamp[vi] = epoch;
                    slot[vi] = 0;
                }
                slot[vi] += 1;
                // Only `v`'s count moved, so the leader is `v` or unchanged.
                if best.is_none_or(|b| (slot[vi], Reverse(v)) > (slot[b as usize], Reverse(b))) {
                    best = Some(v);
                }
            }
        }
        best.expect("a node with two clauses, none true, mentions a variable")
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
