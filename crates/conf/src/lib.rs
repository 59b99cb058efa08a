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
//! * [`sprout`] — the SPROUT safe-plan machinery for tractable
//!   (hierarchical) queries on tuple-independent databases, with eager and
//!   lazy plans (§2.3, "For tractable queries…");
//! * [`condition`] — conditioning on constraints (reference \[3\],
//!   "Conditioning Probabilistic Databases"): `P(event | constraint)` and
//!   renormalised posteriors;
//! * [`naive`] — enumeration oracle for testing.
//!
//! The [`ConfMethod`]/[`confidence`] pair is the dispatcher used by the
//! `conf()` / `aconf(ε,δ)` SQL aggregates in `maybms-core`.
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

pub mod condition;
pub mod dklr;
pub mod dnf;
pub mod exact;
pub mod karp_luby;
pub mod naive;
pub mod sprout;

use maybms_urel::{Result, WorldTable};

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
    /// Enumeration oracle with a world-count limit (tests only).
    Naive {
        /// Max assignment-space size.
        limit: u128,
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
    /// `0` for Monte Carlo and naive runs.
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
            ConfMethod::Naive { .. } => "naive",
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
        ConfMethod::Naive { limit } => naive::probability(dnf, wt, limit)?,
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
    use maybms_urel::{Assignment, Var, Wsd};

    #[test]
    fn dispatcher_agrees_across_methods() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let y = wt.new_var(&[0.3, 0.7]).unwrap();
        let clause = |pairs: &[(Var, u16)]| {
            Wsd::from_assignments(
                pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect(),
            )
            .unwrap()
        };
        let d = Dnf::new(vec![clause(&[(x, 1), (y, 1)]), clause(&[(x, 0)])]);
        let e = confidence(&d, &wt, ConfMethod::Exact).unwrap();
        let n = confidence(&d, &wt, ConfMethod::Naive { limit: 100 }).unwrap();
        let a = confidence(
            &d,
            &wt,
            ConfMethod::Approx { epsilon: 0.05, delta: 0.05, seed: 42 },
        )
        .unwrap();
        assert!((e - n).abs() < 1e-12);
        assert!(((a - e) / e).abs() < 0.05, "approx {a} exact {e}");
    }
}
