//! # maybms-conf — confidence computation for MayBMS
//!
//! "MayBMS uses several state-of-the-art exact and approximate confidence
//! computation techniques" (§2). This crate implements all of them:
//!
//! * [`dnf`] — DNF lineage events (clauses are the tuples' world-set
//!   descriptors) and their compiled form, the one both engines
//!   consume;
//! * [`exact`] — the Koch–Olteanu decomposition-tree algorithm:
//!   independence partitioning + max-occurrence variable elimination
//!   (§2.3, "Exact confidence computation");
//! * [`karp_luby`] — the Karp–Luby unbiased DNF estimator adapted to
//!   multi-valued variable assignments (§2.3, "Approximate confidence
//!   computation");
//! * [`dklr`] — the Dagum–Karp–Luby–Ross optimal Monte Carlo driver
//!   (stopping rule + 𝒜𝒜 algorithm) providing the `(ε, δ)` guarantee of
//!   `aconf`;
//! * [`naive`] — enumeration oracle for testing.
//!
//! # Choosing an estimator
//!
//! [`lineage_confidence`] is the one entry point of the `conf()` /
//! `aconf(ε,δ)` SQL aggregates in `maybms-core`, and the one place an
//! estimator is chosen. An exact answer meets any `(ε, δ)`, with δ = 0, so
//! both run one cascade and the first [`Estimator`] that answers names
//! the `conf` span's `method`:
//!
//! 1. `sprout` — tuple-independent lineage (every member at most one
//!    assignment, no variable in two members): `1 − Π(1 − pᵢ)` in member
//!    order, the independent-project step of SPROUT's safe plans;
//! 2. `exact` — the d-tree ([`exact`]): unbounded for `conf()`; for
//!    `aconf()` within `B = ⌈Υ₁′ · max(1, S) / 3⌉` nodes, `Υ₁′` the hit
//!    target of DKLR's coarse phase and `S = Σ P(clause)`, since that phase
//!    alone expects `Υ₁′ · max(1, S)` draws and a node costs about three
//!    (`B` ≥ 61; a walk group takes 21 nodes);
//! 3. `approx` — Karp–Luby + DKLR at the call's seed, once the attempt ran
//!    out of nodes or met the deadline: [`dklr::aconf_seeded_report`]'s bits.
//!
//! `B` is a node count with no setting, so answers are bit-identical at any
//! thread count. [`confidence_with_effort`] runs steps 2–3 on a [`Dnf`].
//! A call's one [`ConfEffort`] sets the `conf` span's attributes and is
//! added to its [`ConfScratch`]'s [`ConfTally`] (which owns how calls add
//! up), and the scratch writes that to the metrics registry and the
//! statement's `QueryStats` once, when dropped.
//!
//! # Compile once, into one scratch
//!
//! A `conf` / `aconf` call compiles its group's lineage once into a
//! `dnf::CompiledLineage`: `conf()` in member order, since the d-tree's
//! answer is a function of the clause set, and `aconf()` in sorted `Dnf`
//! order, which its budget and sampler read. The d-tree walks ranges of
//! one clause stack and one literal arena over it; the Karp–Luby sampler
//! adds CDFs and draws every sample from it without allocating or
//! touching the world table, and DKLR ([`dklr::approximate_seeded`])
//! pulls samples from a seeded batch stream only as it needs them.
//!
//! The compiled lineage, the d-tree's stacks and its per-variable slots
//! live in a [`ConfScratch`] that the caller passes in: a statement's
//! groups reuse one per loop or fan-out chunk, so a call allocates only
//! when it outgrows every earlier one. A call never reads what an
//! earlier one left there — not after a spent `aconf` budget, not after
//! a governor abort.
//!
//! # Parallelism and determinism
//!
//! Results are **bit-identical at any thread count**: a d-tree and an
//! `aconf` run each use their caller's thread. The d-tree is a function
//! of the clause set, and an `aconf` run a pure function of its seed
//! (per-batch RNGs from SplitMix64 of `(seed, batch)`,
//! [`karp_luby::SAMPLE_BATCH`]). Statements parallelise across groups,
//! in `maybms-core`, and nowhere below — fanning a d-tree's independent
//! partitions out to the pool measured slower on the compiled form. The
//! groups of a statement fan out when there are at least 8 of them, or
//! at least 2 whose lineage totals at least 1 024 clauses (a few large
//! d-trees); that rule reads neither the thread count nor a clock.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dklr;
pub mod dnf;
pub mod exact;
pub mod karp_luby;
pub mod naive;

use maybms_obs::trace::Span;
use maybms_obs::{ConfTally, QueryStats};
use maybms_urel::{Result, WorldTable, Wsd};

use crate::dklr::DklrOptions;
use crate::dnf::CompiledLineage;
use crate::karp_luby::KarpLuby;

pub use dnf::Dnf;

/// What a confidence call computes.
#[derive(Debug, Clone, Copy)]
pub enum ConfMethod {
    /// The exact probability (`conf()`).
    Exact,
    /// `aconf(ε, δ)`: the cheapest estimator that meets `(ε, δ)` (see the
    /// crate docs), seeded for reproducibility when it samples.
    Approx {
        /// Relative error bound.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// The estimator that answered a call (see the crate docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Estimator {
    /// The member-order product over tuple-independent lineage.
    #[default]
    Product,
    /// The d-tree: `conf()`, or an `aconf()` certified within its budget.
    DTree,
    /// Karp–Luby + DKLR: an `aconf()` whose d-tree attempt ran out.
    Sampler,
}

impl Estimator {
    /// The `conf` span's `method` attribute.
    pub fn method(self) -> &'static str {
        ["sprout", "exact", "approx"][self as usize]
    }
}

/// Per-call effort and accuracy report: the one record of a confidence
/// call.
///
/// Every field is deterministic for a given `(DNF, method)` at any
/// thread count: the exact engine's d-tree shape is thread-invariant and
/// the seeded Monte Carlo driver is a pure function of its seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfEffort {
    /// The estimator that answered.
    pub estimator: Estimator,
    /// Clauses in the lineage DNF handed to the engine.
    pub dnf_clauses: u64,
    /// D-tree nodes expanded (decompositions + eliminations + leaves),
    /// also by an `aconf` attempt that ran out; `0` for the product.
    pub dtree_nodes: u64,
    /// An `aconf` d-tree attempt's node budget; `0` otherwise.
    pub budget: u64,
    /// Karp–Luby samples consumed across all DKLR phases; `0` unless the
    /// sampler answered.
    pub samples: u64,
    /// Karp–Luby samples computed, as the sampler counted them (see
    /// [`dklr::Approximation::drawn`]); above `samples` only if the driver
    /// drew ahead of what it consumed, which the demand-driven stream
    /// does not.
    pub samples_drawn: u64,
    /// The `(ε, δ)` an `aconf` call asked for — set against the achieved
    /// `rel_stderr`; `0` for `conf()`.
    pub epsilon: f64,
    /// See `epsilon`.
    pub delta: f64,
    /// Seeded sample batches consumed; `0` unless the sampler answered.
    pub batches: u64,
    /// Achieved relative standard error of the Monte Carlo estimate
    /// (see [`dklr::Approximation::rel_stderr`]); `0` for exact answers.
    pub rel_stderr: f64,
    /// `Some(b)` when a governor deadline cut the seeded Monte Carlo run
    /// at consumed-batch index `b` and the estimate is the degraded
    /// partial mean (see [`dklr::Approximation::cut_batch`]); `None` for
    /// exact answers and for approximations that ran to completion.
    pub cut_batch: Option<u64>,
}

impl ConfEffort {
    /// A call's record before it runs, `method`'s `(ε, δ)` checked:
    /// `0 < ε, δ < 1` whichever estimator will answer.
    fn requested(method: ConfMethod) -> Result<ConfEffort> {
        let ConfMethod::Approx { epsilon, delta, .. } = method else {
            return Ok(ConfEffort::default());
        };
        DklrOptions::new(epsilon, delta).validate()?;
        Ok(ConfEffort {
            epsilon,
            delta,
            ..ConfEffort::default()
        })
    }

    /// End a call — the one place its effort leaves this crate: set the
    /// `conf` span's attributes and add it to `tally`, which its scratch
    /// writes to the metrics registry and the statement's [`QueryStats`]
    /// once, when it is dropped.
    fn finish(self, mut span: Span, tally: &mut ConfTally) -> ConfEffort {
        let aconf = self.epsilon > 0.0;
        let mut answered = [0; 3];
        answered[self.estimator as usize] = 1;
        tally.add(&ConfTally {
            calls: 1,
            answered,
            dnf_clauses: self.dnf_clauses,
            dtree_nodes: self.dtree_nodes,
            samples: self.samples,
            samples_drawn: self.samples_drawn,
            batches: self.batches,
            degraded: self.cut_batch.is_some() as u64,
            rel_stderr: self.rel_stderr,
            requested: aconf.then_some((self.epsilon, self.delta)),
            budget: self.budget,
            aconf_exact: (aconf && self.estimator != Estimator::Sampler) as u64,
        });
        span.attr("method", self.estimator.method());
        span.attr("dnf_clauses", self.dnf_clauses);
        span.attr("dtree_nodes", self.dtree_nodes);
        span.attr("samples", self.samples);
        span.attr("batches", self.batches);
        if self.epsilon > 0.0 {
            span.attr("samples_drawn", self.samples_drawn);
            span.attr("epsilon", self.epsilon);
            span.attr("delta", self.delta);
            span.attr("budget", self.budget);
        }
        if self.rel_stderr > 0.0 {
            span.attr("rel_stderr", self.rel_stderr);
        }
        if let Some(b) = self.cut_batch {
            span.attr("cut_batch", b);
        }
        self
    }
}

/// The reusable state of a run of confidence calls on one thread — a
/// statement's groups, or one fan-out chunk of them: the compiled
/// lineage's buffers, the d-tree's stacks and slots, and the calls'
/// tally. Reuse changes no answer: each call starts from its own
/// lineage. Dropping it writes the calls' effort to the metrics registry
/// and to the [`QueryStats`] it was made for, so each shared counter is
/// written once per scratch, not once per call.
pub struct ConfScratch<'s> {
    stats: Option<&'s QueryStats>,
    tally: ConfTally,
    lineage: CompiledLineage,
    ids: dnf::VarIds,
    /// An `aconf()` call's members in `Dnf` order.
    order: Vec<u32>,
    tree: exact::DTreeScratch,
}

impl<'s> ConfScratch<'s> {
    /// A scratch whose calls are recorded on `stats` (and the registry).
    pub fn new(stats: &'s QueryStats) -> ConfScratch<'s> {
        ConfScratch::recording(Some(stats))
    }

    /// A scratch whose calls are recorded on the registry and on `stats`
    /// if any.
    fn recording(stats: Option<&'s QueryStats>) -> ConfScratch<'s> {
        ConfScratch {
            stats,
            tally: ConfTally::default(),
            lineage: CompiledLineage::default(),
            ids: dnf::VarIds::default(),
            order: Vec::new(),
            tree: exact::DTreeScratch::default(),
        }
    }

    /// Steps 2–3 of the cascade over the compiled lineage: the d-tree,
    /// within its budget for `aconf`, then the sampler if it ran out.
    /// `effort` holds the call's request and clause count.
    fn cascade(&mut self, method: ConfMethod, effort: &mut ConfEffort) -> Result<f64> {
        effort.estimator = Estimator::DTree;
        let options = DklrOptions::new(effort.epsilon, effort.delta);
        let lineage = &self.lineage;
        let limit = match method {
            ConfMethod::Exact => usize::MAX,
            ConfMethod::Approx { .. } => options.node_budget(
                (0..lineage.num_clauses())
                    .map(|i| lineage.clause_prob(i))
                    .sum(),
            ),
        };
        let (p, stats) = exact::bounded(lineage, limit, &mut self.tree)?;
        effort.dtree_nodes = stats.nodes() as u64;
        effort.budget = if limit == usize::MAX { 0 } else { limit as u64 };
        let (None, ConfMethod::Approx { seed, .. }) = (p, method) else {
            return Ok(p.expect("an unbounded d-tree always answers"));
        };
        let sampler = KarpLuby::compiled(std::mem::take(&mut self.lineage));
        let a = dklr::approximate_seeded(&sampler, &options, seed)?;
        effort.estimator = Estimator::Sampler;
        (effort.samples, effort.samples_drawn, effort.batches) = (a.samples, a.drawn, a.batches);
        (effort.rel_stderr, effort.cut_batch) = (a.rel_stderr, a.cut_batch);
        Ok(a.estimate)
    }
}

impl Drop for ConfScratch<'_> {
    fn drop(&mut self) {
        self.tally.flush(self.stats);
    }
}

/// The probability of a group's lineage — its member tuples' WSDs — by the
/// estimator cascade (see the crate docs), plus the call's effort, also
/// set on the call's `conf` span and added to `scratch`'s tally. `conf()`
/// compiles the members in the order given: the d-tree's answer is a
/// function of the clause set. `aconf()` compiles them in `Dnf` order,
/// which its node budget and sampler read.
pub fn lineage_confidence(
    members: &[Wsd],
    wt: &WorldTable,
    method: ConfMethod,
    scratch: &mut ConfScratch<'_>,
) -> Result<(f64, ConfEffort)> {
    let span = maybms_obs::trace::span("conf");
    let mut effort = ConfEffort {
        dnf_clauses: members.len() as u64,
        ..ConfEffort::requested(method)?
    };
    let p = if independent(members, &mut scratch.ids) {
        let mut none = 1.0;
        for wsd in members {
            none *= 1.0 - wsd.prob(wt)?;
        }
        1.0 - none
    } else {
        let s = &mut *scratch;
        match method {
            ConfMethod::Exact => s.lineage.compile(members, wt, &mut s.ids)?,
            ConfMethod::Approx { .. } => {
                s.order.clear();
                s.order.extend(0..members.len() as u32);
                s.order
                    .sort_unstable_by(|&a, &b| members[a as usize].cmp(&members[b as usize]));
                let sorted = s.order.iter().map(|&i| &members[i as usize]);
                s.lineage.compile(sorted, wt, &mut s.ids)?
            }
        }
        s.cascade(method, &mut effort)?
    };
    Ok((p, effort.finish(span, &mut scratch.tally)))
}

/// Is this lineage tuple-independent — every member at most one
/// assignment, no variable in two members? (`ids` is scratch.)
fn independent(members: &[Wsd], ids: &mut dnf::VarIds) -> bool {
    if members.iter().any(|w| w.len() > 1) {
        return false;
    }
    ids.begin();
    members.iter().flat_map(Wsd::vars).all(|v| {
        let seen = ids.seen.len();
        ids.id(v.0);
        ids.seen.len() > seen
    })
}

/// The probability of a DNF lineage event by steps 2–3 of the cascade, on
/// the calling thread and deterministic, plus the call's [`ConfEffort`],
/// also fed to the metrics registry and the call's `conf` span.
pub fn confidence_with_effort(
    dnf: &Dnf,
    wt: &WorldTable,
    method: ConfMethod,
) -> Result<(f64, ConfEffort)> {
    let span = maybms_obs::trace::span("conf");
    let mut effort = ConfEffort {
        dnf_clauses: dnf.len() as u64,
        ..ConfEffort::requested(method)?
    };
    let mut scratch = ConfScratch::recording(None);
    let s = &mut scratch;
    s.lineage.compile(dnf.clauses(), wt, &mut s.ids)?;
    let p = s.cascade(method, &mut effort)?;
    Ok((p, effort.finish(span, &mut scratch.tally)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{DataType, Expr, Value};
    use maybms_obs::trace::{self, AttrValue};
    use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
    use maybms_urel::rel;
    use maybms_urel::repair::{repair_key, RepairKeyOptions};
    use maybms_urel::{Assignment, URelation, Var};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect()).unwrap()
    }

    /// [`lineage_confidence`] as a statement-less call.
    fn conf(lineage: &[Wsd], wt: &WorldTable, method: ConfMethod) -> (f64, ConfEffort) {
        let stats = QueryStats::new();
        let mut scratch = ConfScratch::new(&stats);
        lineage_confidence(lineage, wt, method, &mut scratch).unwrap()
    }

    #[test]
    fn dispatcher_agrees_across_methods() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let y = wt.new_var(&[0.3, 0.7]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1), (y, 1)]), clause(&[(x, 0)])]);
        let confidence = |m| confidence_with_effort(&d, &wt, m).unwrap().0;
        let e = confidence(ConfMethod::Exact);
        let n = naive::probability(&d, &wt, 100).unwrap();
        let a = confidence(ConfMethod::Approx {
            epsilon: 0.05,
            delta: 0.05,
            seed: 42,
        });
        assert!((e - n).abs() < 1e-12);
        assert!(((a - e) / e).abs() < 0.05, "approx {a} exact {e}");
    }

    /// `n` pick-tuples members with probabilities spread over (0.005,
    /// 0.105), listed in reverse variable order — so member order is not
    /// the sorted `Dnf` order, and at `n = 32` the two products differ in
    /// their last bit.
    fn independent_members(n: usize) -> (WorldTable, Vec<Wsd>) {
        let mut wt = WorldTable::new();
        let mut members: Vec<Wsd> = (0..n)
            .map(|i| {
                let p = 0.005 + 0.1 * (0.1 + i as f64 * 0.618_033_988_749_895).fract();
                Wsd::of(wt.new_var(&[1.0 - p, p]).unwrap(), 1)
            })
            .collect();
        members.reverse();
        (wt, members)
    }

    /// Three tuple-independent rows in groups `a` (two rows, p = ½ each)
    /// and `b` (one row, p = ¼).
    fn ti_setup() -> (WorldTable, URelation) {
        let mut wt = WorldTable::new();
        let r = rel(
            &[("g", DataType::Text), ("p", DataType::Float)],
            vec![
                vec!["a".into(), Value::Float(0.5)],
                vec!["a".into(), Value::Float(0.5)],
                vec!["b".into(), Value::Float(0.25)],
            ],
        );
        let options = PickTuplesOptions {
            probability: Some(Expr::col("p")),
        };
        let u = pick_tuples(&r, &options, &mut wt).unwrap();
        (wt, u)
    }

    fn d_tree(lineage: &[Wsd], wt: &WorldTable) -> f64 {
        exact::probability(&Dnf::from_wsds(lineage), wt).unwrap()
    }

    #[test]
    fn independent_lineage_is_the_member_order_product_in_one_span() {
        let (wt, members) = independent_members(32);
        let none = members
            .iter()
            .fold(1.0, |none, w| none * (1.0 - w.prob(&wt).unwrap()));
        trace::set_enabled(true);
        let root = trace::span("test");
        let root_id = root.id();
        let (p, effort) = conf(&members, &wt, ConfMethod::Exact);
        drop(root);
        trace::set_enabled(false);
        assert_eq!(p.to_bits(), (1.0 - none).to_bits());
        assert!((p - d_tree(&members, &wt)).abs() <= 1e-12);
        assert_eq!(
            effort,
            ConfEffort {
                dnf_clauses: 32,
                ..ConfEffort::default()
            }
        );
        let spans = trace::spans_for_root(root_id);
        let conf: Vec<_> = spans.iter().filter(|s| s.label == "conf").collect();
        assert_eq!(conf.len(), 1, "{spans:?}");
        let zero = AttrValue::Uint(0);
        assert_eq!(
            conf[0].attrs,
            [
                ("method", AttrValue::Str("sprout")),
                ("dnf_clauses", AttrValue::Uint(32)),
                ("dtree_nodes", zero),
                ("samples", zero),
                ("batches", zero),
            ]
        );
    }

    #[test]
    fn conf_groups_take_the_product_and_agree_with_the_dtree() {
        let (wt, u) = ti_setup();
        for (key, closed) in [("a", 0.75), ("b", 0.25)] {
            let group: Vec<Wsd> = u
                .tuples()
                .iter()
                .filter(|t| t.data.value(0) == &Value::str(key))
                .map(|t| t.wsd.clone())
                .collect();
            let (p, effort) = conf(&group, &wt, ConfMethod::Exact);
            assert_eq!(effort.dtree_nodes, 0, "group {key} took the d-tree");
            assert!((p - closed).abs() < 1e-12, "group {key}: {p}");
            assert!((p - d_tree(&group, &wt)).abs() < 1e-12, "group {key}");
        }
    }

    #[test]
    fn dependent_lineage_falls_back_to_the_dtree() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.2, 0.3, 0.5]).unwrap();
        let y = wt.new_var(&[0.6, 0.4]).unwrap();
        let z = wt.new_var(&[0.1, 0.9]).unwrap();
        let cases = [
            (
                "two-assignment member",
                vec![clause(&[(x, 1), (y, 1)]), clause(&[(z, 1)])],
            ),
            (
                "shared variable",
                vec![clause(&[(x, 0)]), clause(&[(x, 2)]), clause(&[(y, 1)])],
            ),
            (
                "duplicate member",
                vec![clause(&[(y, 1)]), clause(&[(y, 1)])],
            ),
        ];
        for (what, lineage) in cases {
            let (p, effort) = conf(&lineage, &wt, ConfMethod::Exact);
            assert_eq!(effort.estimator, Estimator::DTree, "{what}");
            assert!(effort.dtree_nodes > 0, "{what}: {effort:?}");
            let oracle = naive::probability(&Dnf::from_wsds(&lineage), &wt, 100).unwrap();
            assert!((p - oracle).abs() < 1e-12, "{what}: {p} vs {oracle}");
        }
    }

    #[test]
    fn conf_on_repair_key_groups_uses_dtree() {
        // Repair-key alternatives share their key's variable: not
        // tuple-independent, so the product must not run.
        let mut wt = WorldTable::new();
        let r = rel(
            &[("k", DataType::Int), ("v", DataType::Int)],
            vec![
                vec![1.into(), 1.into()],
                vec![1.into(), 2.into()],
                vec![1.into(), 3.into()],
            ],
        );
        let u = repair_key(&r, &[Expr::col("k")], &RepairKeyOptions::default(), &mut wt).unwrap();
        let lineage: Vec<Wsd> = u.tuples().iter().map(|t| t.wsd.clone()).collect();
        let (p, effort) = conf(&lineage, &wt, ConfMethod::Exact);
        assert!(effort.dtree_nodes > 0, "{effort:?}");
        // P(any tuple exists) = 1: the repair always keeps one.
        assert!((p - 1.0).abs() < 1e-12);
    }

    /// Random 2-DNF `xᵢ ∧ xⱼ` over 30 variables of probability 0.1: no
    /// d-tree decomposes it within an `aconf` budget.
    fn dense_2dnf() -> (WorldTable, Vec<Wsd>) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut wt = WorldTable::new();
        let x: Vec<Var> = (0..30).map(|_| wt.new_var(&[0.9, 0.1]).unwrap()).collect();
        let lineage = (0..150)
            .filter_map(|_| {
                let (i, j) = (rng.gen_range(0..30usize), rng.gen_range(0..30usize));
                (i != j).then(|| clause(&[(x[i], 1), (x[j], 1)]))
            })
            .collect();
        (wt, lineage)
    }

    #[test]
    fn aconf_takes_the_cheapest_certificate() {
        let approx = ConfMethod::Approx {
            epsilon: 0.1,
            delta: 0.05,
            seed: 7,
        };
        // Independent lineage: the product, with conf()'s bits.
        let (wt, members) = independent_members(16);
        let (p, effort) = conf(&members, &wt, approx);
        assert_eq!(
            (effort.estimator, effort.samples, effort.epsilon),
            (Estimator::Product, 0, 0.1)
        );
        assert_eq!(
            p.to_bits(),
            conf(&members, &wt, ConfMethod::Exact).0.to_bits()
        );
        // Lineage the d-tree certifies within its budget: its bits, δ = 0.
        // (A member listed twice, S = ½: the budget is the floor ⌈Υ₁′/3⌉.)
        let (wt, u) = ti_setup();
        let shared = vec![u.tuples()[2].wsd.clone(); 2];
        let (p, effort) = conf(&shared, &wt, approx);
        assert_eq!(
            (effort.estimator, effort.samples, effort.budget),
            (Estimator::DTree, 0, 61)
        );
        assert_eq!(p.to_bits(), d_tree(&shared, &wt).to_bits());
        // Lineage above the budget: the sampler's bits at the same seed,
        // after an attempt that spent the whole budget.
        let (wt, lineage) = dense_2dnf();
        let (p, effort) = conf(&lineage, &wt, approx);
        let dnf = Dnf::from_wsds(&lineage);
        let sampled = dklr::aconf_seeded_report(&dnf, &wt, 0.1, 0.05, 7).unwrap();
        assert_eq!(effort.estimator, Estimator::Sampler);
        assert_eq!(
            (effort.dtree_nodes, effort.samples),
            (effort.budget, sampled.samples)
        );
        assert_eq!(p.to_bits(), sampled.estimate.to_bits());
        let truth = d_tree(&lineage, &wt);
        assert!(((p - truth) / truth).abs() < 0.1, "aconf {p} exact {truth}");
    }

    #[test]
    fn aconf_arguments_are_checked_whichever_estimator_answers() {
        let (wt, members) = independent_members(4);
        for (epsilon, delta) in [(2.0, 0.5), (0.0, 0.5), (0.1, 1.0), (0.1, f64::NAN)] {
            let method = ConfMethod::Approx {
                epsilon,
                delta,
                seed: 1,
            };
            let stats = QueryStats::new();
            let mut scratch = ConfScratch::new(&stats);
            assert!(lineage_confidence(&members, &wt, method, &mut scratch).is_err());
            assert!(confidence_with_effort(&Dnf::from_wsds(&members), &wt, method).is_err());
        }
    }
}
