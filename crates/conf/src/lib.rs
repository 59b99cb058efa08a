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
//! A call's one [`ConfEffort`] is written once, to the metrics registry,
//! the `conf` span and the statement's `QueryStats`.
//!
//! # Compile once
//!
//! A `conf` / `aconf` call compiles its group's lineage once into a
//! `dnf::CompiledLineage`. The d-tree recurses over clause-index lists of
//! it; the Karp–Luby sampler adds CDFs and draws every sample from it
//! without allocating or touching the world table, and DKLR
//! ([`dklr::approximate_seeded`]) pulls samples from a seeded batch
//! stream only as it needs them.
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

use std::collections::HashSet;

use maybms_obs::trace::Span;
use maybms_obs::QueryStats;
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

    /// End a call — the one place its effort leaves this crate: add it to
    /// the metrics registry and to the statement's [`QueryStats`] if any,
    /// and set the `conf` span's attributes, three copies of one record.
    fn finish(self, mut span: Span, stats: Option<&QueryStats>) -> ConfEffort {
        let m = maybms_obs::metrics();
        m.dnf_clauses.add(self.dnf_clauses);
        m.dtree_nodes.add(self.dtree_nodes);
        m.mc_samples.add(self.samples);
        m.mc_batches.add(self.batches);
        m.gov_degraded_conf.add(self.cut_batch.is_some() as u64);
        if let Some(qs) = stats {
            qs.conf_calls.inc();
            qs.answered[self.estimator as usize].inc();
            qs.dnf_clauses.add(self.dnf_clauses);
            qs.dtree_nodes.add(self.dtree_nodes);
            qs.samples.add(self.samples);
            qs.samples_drawn.add(self.samples_drawn);
            qs.sample_batches.add(self.batches);
            qs.record_rel_stderr(self.rel_stderr);
            qs.degraded_conf.add(self.cut_batch.is_some() as u64);
            if self.epsilon > 0.0 {
                qs.record_requested(self.epsilon, self.delta);
                qs.max_budget.set_max(self.budget);
                qs.aconf_exact
                    .add((self.estimator != Estimator::Sampler) as u64);
            }
        }
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

/// The probability of a group's lineage — its member tuples' WSDs — by the
/// estimator cascade (see the crate docs), plus the call's effort, also
/// added to `stats` and the registry and set on the call's `conf` span.
pub fn lineage_confidence<'a>(
    lineage: impl Iterator<Item = &'a Wsd> + Clone,
    wt: &WorldTable,
    method: ConfMethod,
    stats: &QueryStats,
) -> Result<(f64, ConfEffort)> {
    let span = maybms_obs::trace::span("conf");
    let (p, effort) = if independent(lineage.clone()) {
        let mut effort = ConfEffort::requested(method)?;
        let mut none = 1.0;
        for wsd in lineage {
            effort.dnf_clauses += 1;
            none *= 1.0 - wsd.prob(wt)?;
        }
        (1.0 - none, effort)
    } else {
        cascade(&Dnf::from_wsds(lineage), wt, method)?
    };
    Ok((p, effort.finish(span, Some(stats))))
}

/// Is this lineage tuple-independent — every member at most one
/// assignment, no variable in two members?
fn independent<'a>(mut lineage: impl Iterator<Item = &'a Wsd>) -> bool {
    let mut seen = HashSet::new();
    lineage.all(|wsd| wsd.len() <= 1 && wsd.vars().all(|v| seen.insert(v)))
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
    let (p, effort) = cascade(dnf, wt, method)?;
    Ok((p, effort.finish(span, None)))
}

/// Steps 2–3 of the cascade: the d-tree, within its budget for `aconf`,
/// then the sampler over the same compiled lineage if it ran out.
fn cascade(dnf: &Dnf, wt: &WorldTable, method: ConfMethod) -> Result<(f64, ConfEffort)> {
    let requested = ConfEffort::requested(method)?;
    let mut effort = ConfEffort {
        estimator: Estimator::DTree,
        dnf_clauses: dnf.len() as u64,
        ..requested
    };
    let lineage = CompiledLineage::new(dnf, wt)?;
    let options = DklrOptions::new(effort.epsilon, effort.delta);
    let limit = match method {
        ConfMethod::Exact => usize::MAX,
        ConfMethod::Approx { .. } => options.node_budget(
            (0..lineage.num_clauses())
                .map(|i| lineage.clause_prob(i))
                .sum(),
        ),
    };
    let (p, stats) = exact::bounded(&lineage, limit)?;
    effort.dtree_nodes = stats.nodes() as u64;
    effort.budget = if limit == usize::MAX { 0 } else { limit as u64 };
    let (None, ConfMethod::Approx { seed, .. }) = (p, method) else {
        return Ok((p.expect("an unbounded d-tree always answers"), effort));
    };
    let a = dklr::approximate_seeded(&KarpLuby::compiled(lineage), &options, seed)?;
    let (samples, samples_drawn, batches) = (a.samples, a.drawn, a.batches);
    let (rel_stderr, cut_batch) = (a.rel_stderr, a.cut_batch);
    let estimator = Estimator::Sampler;
    Ok((
        a.estimate,
        ConfEffort {
            estimator,
            samples,
            samples_drawn,
            batches,
            rel_stderr,
            cut_batch,
            ..effort
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType, Expr, Value};
    use maybms_obs::trace::{self, AttrValue};
    use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
    use maybms_urel::repair::{repair_key, RepairKeyOptions};
    use maybms_urel::{Assignment, URelation, Var};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect()).unwrap()
    }

    /// [`lineage_confidence`] as a statement-less call.
    fn conf(lineage: &[Wsd], wt: &WorldTable, method: ConfMethod) -> (f64, ConfEffort) {
        lineage_confidence(lineage.iter(), wt, method, &QueryStats::new()).unwrap()
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
            assert!(lineage_confidence(members.iter(), &wt, method, &QueryStats::new()).is_err());
            assert!(confidence_with_effort(&Dnf::from_wsds(&members), &wt, method).is_err());
        }
    }
}
