//! # maybms-conf — confidence computation for MayBMS
//!
//! "MayBMS uses several state-of-the-art exact and approximate confidence
//! computation techniques" (§2). This crate implements all of them:
//!
//! * [`dnf`] — DNF lineage events (clauses are the tuples' world-set
//!   descriptors) and their compiled form, the one both engines
//!   consume;
//! * [`exact`] — the Koch–Olteanu decomposition-tree algorithm:
//!   independence partitioning + variable elimination with pluggable
//!   heuristics (§2.3, "Exact confidence computation");
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
//! estimator is chosen. Every call opens one `conf` span whose `method`
//! attribute names the choice:
//!
//! * `sprout` — `conf()` over tuple-independent lineage (every member
//!   carries at most one assignment and no two share a variable):
//!   `1 − Π(1 − pᵢ)` folded in member order, the independent-project step
//!   of SPROUT's safe plans, with no d-tree;
//! * `exact` — every other `conf()`: the d-tree ([`exact`]). Hierarchical
//!   queries on tuple-independent tables land here too, and their lineage
//!   decomposes into independent partitions, so the d-tree runs in time
//!   linear in its clauses;
//! * `approx` — `aconf(ε, δ)`, whatever the lineage: Karp–Luby + DKLR.
//!
//! [`confidence_with_effort`] runs the last two on a ready [`Dnf`].
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
//! partitions out to the pool measured slower on the compiled form.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dklr;
pub mod dnf;
pub mod exact;
pub mod karp_luby;
pub mod naive;

use std::collections::HashSet;

use maybms_urel::{Result, WorldTable, Wsd};

pub use dnf::Dnf;

/// Which algorithm `confidence` should use.
#[derive(Debug, Clone, Copy)]
pub enum ConfMethod {
    /// Exact d-tree computation with the standard options (`conf()`).
    Exact,
    /// `aconf(ε, δ)`: Karp–Luby + DKLR 𝒜𝒜, seeded for reproducibility.
    Approx {
        /// Relative error bound.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// Per-call effort and accuracy report from [`confidence_with_effort`].
///
/// Every field is deterministic for a given `(DNF, method)` at any
/// thread count: the exact engine's d-tree shape is thread-invariant and
/// the seeded Monte Carlo driver is a pure function of its seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfEffort {
    /// Clauses in the lineage DNF handed to the engine.
    pub dnf_clauses: u64,
    /// D-tree nodes expanded (decompositions + eliminations + leaves);
    /// `0` for Monte Carlo runs and the independent product.
    pub dtree_nodes: u64,
    /// Karp–Luby samples consumed across all DKLR phases; `0` for exact
    /// runs.
    pub samples: u64,
    /// Karp–Luby samples computed, as the sampler counted them (see
    /// [`dklr::Approximation::drawn`]); above `samples` only if the driver
    /// drew ahead of what it consumed, which the demand-driven stream
    /// does not.
    pub samples_drawn: u64,
    /// The `(ε, δ)` an `aconf` call asked for — set against the achieved
    /// `rel_stderr`; `0` for exact runs.
    pub epsilon: f64,
    /// See `epsilon`.
    pub delta: f64,
    /// Seeded sample batches consumed; `0` for exact runs.
    pub batches: u64,
    /// Achieved relative standard error of the Monte Carlo estimate
    /// (see [`dklr::Approximation::rel_stderr`]); `0` for exact runs.
    pub rel_stderr: f64,
    /// `Some(b)` when a governor deadline cut the seeded Monte Carlo run
    /// at consumed-batch index `b` and the estimate is the degraded
    /// partial mean (see [`dklr::Approximation::cut_batch`]); `None` for
    /// exact runs and for approximations that ran to completion.
    pub cut_batch: Option<u64>,
}

/// The probability of a group's lineage — its member tuples' WSDs — by
/// `method`, plus the call's effort: the one place an estimator is chosen
/// (see the crate docs). `conf()` over independent lineage is the
/// member-order product, whose effort is its clause count alone and which
/// does not feed the metrics registry; everything else is
/// [`confidence_with_effort`] over [`Dnf::from_wsds`].
pub fn lineage_confidence<'a>(
    lineage: impl Iterator<Item = &'a Wsd> + Clone,
    wt: &WorldTable,
    method: ConfMethod,
) -> Result<(f64, ConfEffort)> {
    if matches!(method, ConfMethod::Exact) && independent(lineage.clone()) {
        let mut span = maybms_obs::trace::span("conf");
        span.attr("method", "sprout");
        let mut clauses = 0u64;
        let mut none = 1.0;
        for wsd in lineage {
            clauses += 1;
            none *= 1.0 - wsd.prob(wt)?;
        }
        span.attr("dnf_clauses", clauses);
        return Ok((1.0 - none, ConfEffort { dnf_clauses: clauses, ..ConfEffort::default() }));
    }
    confidence_with_effort(&Dnf::from_wsds(lineage), wt, method)
}

/// Is this lineage tuple-independent — every member at most one
/// assignment, no variable in two members?
fn independent<'a>(mut lineage: impl Iterator<Item = &'a Wsd>) -> bool {
    let mut seen = HashSet::new();
    lineage.all(|wsd| wsd.len() <= 1 && wsd.vars().all(|v| seen.insert(v)))
}

/// Compute the probability of a DNF lineage event with the chosen method.
///
/// Every method runs on the calling thread and is deterministic —
/// `Approx` draws from the seeded batch stream, so the same `(ε, δ,
/// seed)` returns the same estimate at any thread count.
pub fn confidence(dnf: &Dnf, wt: &WorldTable, method: ConfMethod) -> Result<f64> {
    confidence_with_effort(dnf, wt, method).map(|(p, _)| p)
}

/// [`confidence`] plus the per-call [`ConfEffort`] report. Also feeds the
/// process-wide `maybms-obs` metrics registry (DNF clause counts, d-tree
/// nodes, Monte Carlo samples/batches).
pub fn confidence_with_effort(
    dnf: &Dnf,
    wt: &WorldTable,
    method: ConfMethod,
) -> Result<(f64, ConfEffort)> {
    let mut span = maybms_obs::trace::span("conf");
    span.attr(
        "method",
        match method {
            ConfMethod::Exact => "exact",
            ConfMethod::Approx { .. } => "approx",
        },
    );
    let mut effort = ConfEffort { dnf_clauses: dnf.len() as u64, ..ConfEffort::default() };
    let p = match method {
        ConfMethod::Exact => {
            let (p, stats) = exact::probability_with(dnf, wt, &exact::ExactOptions::standard())?;
            effort.dtree_nodes =
                (stats.decompositions + stats.eliminations + stats.leaves) as u64;
            p
        }
        ConfMethod::Approx { epsilon, delta, seed } => {
            let a = dklr::aconf_seeded_report(dnf, wt, epsilon, delta, seed)?;
            effort.epsilon = epsilon;
            effort.delta = delta;
            effort.samples = a.samples;
            effort.samples_drawn = a.drawn;
            effort.batches = a.batches;
            effort.rel_stderr = a.rel_stderr;
            effort.cut_batch = a.cut_batch;
            a.estimate
        }
    };
    let m = maybms_obs::metrics();
    m.dnf_clauses.add(effort.dnf_clauses);
    m.dtree_nodes.add(effort.dtree_nodes);
    m.mc_samples.add(effort.samples);
    m.mc_batches.add(effort.batches);
    if effort.cut_batch.is_some() {
        m.gov_degraded_conf.inc();
    }
    if span.is_active() {
        span.attr("dnf_clauses", effort.dnf_clauses);
        span.attr("dtree_nodes", effort.dtree_nodes);
        span.attr("samples", effort.samples);
        span.attr("batches", effort.batches);
        if effort.epsilon > 0.0 {
            span.attr("samples_drawn", effort.samples_drawn);
            span.attr("epsilon", effort.epsilon);
            span.attr("delta", effort.delta);
        }
        if effort.rel_stderr > 0.0 {
            span.attr("rel_stderr", effort.rel_stderr);
        }
        if let Some(b) = effort.cut_batch {
            span.attr("cut_batch", b);
        }
    }
    Ok((p, effort))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType, Expr, Value};
    use maybms_obs::trace::{self, AttrValue};
    use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
    use maybms_urel::repair::{repair_key, RepairKeyOptions};
    use maybms_urel::{Assignment, URelation, Var};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect())
            .unwrap()
    }

    #[test]
    fn dispatcher_agrees_across_methods() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let y = wt.new_var(&[0.3, 0.7]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1), (y, 1)]), clause(&[(x, 0)])]);
        let e = confidence(&d, &wt, ConfMethod::Exact).unwrap();
        let n = naive::probability(&d, &wt, 100).unwrap();
        let a = confidence(
            &d,
            &wt,
            ConfMethod::Approx { epsilon: 0.05, delta: 0.05, seed: 42 },
        )
        .unwrap();
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
        let options = PickTuplesOptions { probability: Some(Expr::col("p")) };
        let u = pick_tuples(&r, &options, &mut wt).unwrap();
        (wt, u)
    }

    fn d_tree(lineage: &[Wsd], wt: &WorldTable) -> f64 {
        exact::probability(&Dnf::from_wsds(lineage), wt).unwrap()
    }

    #[test]
    fn independent_lineage_is_the_member_order_product_in_one_span() {
        let (wt, members) = independent_members(32);
        let none = members.iter().fold(1.0, |none, w| none * (1.0 - w.prob(&wt).unwrap()));
        trace::set_enabled(true);
        let root = trace::span("test");
        let root_id = root.id();
        let (p, effort) = lineage_confidence(members.iter(), &wt, ConfMethod::Exact).unwrap();
        drop(root);
        trace::set_enabled(false);
        assert_eq!(p.to_bits(), (1.0 - none).to_bits());
        assert!((p - d_tree(&members, &wt)).abs() <= 1e-12);
        assert_eq!(effort, ConfEffort { dnf_clauses: 32, ..ConfEffort::default() });
        let spans = trace::spans_for_root(root_id);
        let conf: Vec<_> = spans.iter().filter(|s| s.label == "conf").collect();
        assert_eq!(conf.len(), 1, "{spans:?}");
        assert_eq!(
            conf[0].attrs,
            [("method", AttrValue::Str("sprout")), ("dnf_clauses", AttrValue::Uint(32))]
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
            let (p, effort) = lineage_confidence(group.iter(), &wt, ConfMethod::Exact).unwrap();
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
            ("two-assignment member", vec![clause(&[(x, 1), (y, 1)]), clause(&[(z, 1)])]),
            ("shared variable", vec![clause(&[(x, 0)]), clause(&[(x, 2)]), clause(&[(y, 1)])]),
            ("duplicate member", vec![clause(&[(y, 1)]), clause(&[(y, 1)])]),
        ];
        for (what, lineage) in cases {
            let (p, effort) = lineage_confidence(lineage.iter(), &wt, ConfMethod::Exact).unwrap();
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
            vec![vec![1.into(), 1.into()], vec![1.into(), 2.into()], vec![1.into(), 3.into()]],
        );
        let u = repair_key(&r, &[Expr::col("k")], &RepairKeyOptions::default(), &mut wt)
            .unwrap();
        let lineage = u.tuples().iter().map(|t| &t.wsd);
        let (p, effort) = lineage_confidence(lineage, &wt, ConfMethod::Exact).unwrap();
        assert!(effort.dtree_nodes > 0, "{effort:?}");
        // P(any tuple exists) = 1: the repair always keeps one.
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aconf_never_takes_the_product() {
        let (wt, members) = independent_members(16);
        let method = ConfMethod::Approx { epsilon: 0.1, delta: 0.1, seed: 7 };
        let (p, effort) = lineage_confidence(members.iter(), &wt, method).unwrap();
        assert!(effort.samples > 0, "{effort:?}");
        assert_eq!(effort.epsilon, 0.1);
        let truth = d_tree(&members, &wt);
        assert!(((p - truth) / truth).abs() < 0.1, "aconf {p} exact {truth}");
    }
}
