//! The Dagum–Karp–Luby–Ross "optimal algorithm for Monte Carlo estimation"
//! (SIAM J. Comput. 29(5), 2000), driving the Karp–Luby estimator to an
//! (ε, δ)-approximation (§2.3):
//!
//! > "The latter is based on sequential analysis and determines the number
//! > of invocations of the Karp–Luby estimator needed to achieve the
//! > required bound by running the estimator a small number of times to
//! > estimate its mean and variance."
//!
//! Implemented here:
//!
//! * `stopping_rule` — the Stopping Rule Algorithm (SRA): sample
//!   until the running sum reaches `Υ₁ = 1 + (1+ε)Υ`, output `Υ₁/N`;
//! * [`approximate_seeded`] — the full 𝒜𝒜 algorithm: (1) a coarse SRA run,
//!   (2) a variance-estimation phase on sample *pairs*, (3) the final run
//!   with the optimal number of samples `∝ max(σ², εμ)/μ²`.
//!
//! Guarantee: `P(|μ̃ − μ| ≤ ε·μ) ≥ 1 − δ` for any estimator with outcomes
//! in `[0, 1]` — satisfied by the Karp–Luby indicator. Because the output
//! is rescaled by the constant `S`, the *relative* error guarantee carries
//! over to the DNF probability.
//!
//! # The seeded, demand-driven sample stream
//!
//! Every driver draws from the *seeded batch stream* of
//! [`crate::karp_luby`]: the sample sequence of a phase is the
//! concatenation of [`SAMPLE_BATCH`]-sized batches, batch `b` drawn from
//! an RNG seeded with `derive_seed(phase_seed, b)` — a pure function of
//! `(seed, batch index)`. Work follows demand: a run draws its samples one
//! by one from a single reused [`Sampler`], the stopping rule draws nothing
//! past the sample it stops at, the known-length variance and main phases
//! count hits batch by batch without materialising indicators, and the
//! governor is consulted before each batch is drawn. A run uses one thread;
//! statements parallelise across groups, above this crate. Estimates,
//! consumed sample counts and deadline-cut partial estimates are therefore
//! the same whatever the thread count of the pool the caller runs on.

use rand::rngs::StdRng;

use maybms_urel::{Result, UrelError, WorldTable};

use crate::dnf::Dnf;
use crate::karp_luby::{batch_rng, KarpLuby, Sampler, SAMPLE_BATCH};

/// λ = e − 2, the constant of the generalised zero-one estimator theorem.
const LAMBDA: f64 = std::f64::consts::E - 2.0;

/// Karp–Luby draws a d-tree node costs (225 against 86 ns on walk lineage,
/// more on dense 3-DNF): a spent `aconf()` budget then costs a median 1.15×
/// pure sampling on `exp_crossover`'s shapes, 1.40× at one draw a node.
const NODE_DRAWS: f64 = 3.0;

/// Outcome of an (ε, δ) approximation, with sampling statistics.
///
/// Every field is a pure function of `(DNF, options, seed)` and of where a
/// deadline cut the run, if one did; `batches` counts consumed batches
/// (`⌈samples/SAMPLE_BATCH⌉` per phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Approximation {
    /// The estimate `p̂`.
    pub estimate: f64,
    /// Total Karp–Luby invocations consumed across all phases.
    pub samples: u64,
    /// Karp–Luby invocations computed, as counted by the sampler itself
    /// (`samples` is the driver's account of what it consumed). The stream
    /// is demand-driven, so the two agree; a gap would be speculation.
    pub drawn: u64,
    /// Seeded sample batches consumed (`⌈n/SAMPLE_BATCH⌉` per phase).
    pub batches: u64,
    /// Estimator variance `ρ̂` at stop (the 𝒜𝒜 step-2 estimate, floored
    /// at `ε·μ̂`); `0` for the SRA and for constant DNFs.
    pub variance: f64,
    /// Achieved relative standard error of the final run,
    /// `√(ρ̂/n₃)/μ̂` for 𝒜𝒜; the target `ε` for the SRA (which does not
    /// estimate variance); `0` for constant DNFs.
    pub rel_stderr: f64,
    /// Deadline degradation marker: `Some(b)` when the governor's
    /// deadline cut the seeded run at consumed-batch index `b` (counted
    /// across all phases). The estimate is then the partial seeded mean
    /// at that batch boundary — still a pure function of `(seed, b)`,
    /// so bit-identical given the same cut point — with `rel_stderr`
    /// reporting the *achieved* error, not the requested `(ε, δ)`
    /// guarantee. `None` = the run completed normally.
    pub cut_batch: Option<u64>,
}

impl Approximation {
    /// A zero-cost report for a constant DNF.
    fn constant(p: f64) -> Approximation {
        Approximation {
            estimate: p,
            samples: 0,
            drawn: 0,
            batches: 0,
            variance: 0.0,
            rel_stderr: 0.0,
            cut_batch: None,
        }
    }
}

/// Governor verdict at a sample-batch boundary: `Ok(false)` = proceed,
/// `Ok(true)` = the deadline passed (degrade to the partial estimate),
/// `Err` = hard abort (cancellation or memory budget).
fn gov_batch_verdict() -> Result<bool> {
    match maybms_gov::check() {
        Ok(()) => Ok(false),
        Err(maybms_gov::GovError::DeadlineExceeded { .. }) => Ok(true),
        Err(g) => Err(UrelError::from(maybms_engine::EngineError::Gov(g))),
    }
}

/// The degraded partial estimate over `n` consumed indicator draws of
/// which `hits` were 1, cut at global consumed-batch index `cut_batch`.
/// An empty prefix reports estimate 0 with infinite error.
fn degraded(kl: &KarpLuby, hits: u64, n: u64, cut_batch: u64) -> Approximation {
    let (estimate, rel_stderr) = if n == 0 {
        (0.0, f64::INFINITY)
    } else {
        let mean = hits as f64 / n as f64;
        // Sample variance of a 0/1 outcome (Σx² = Σx).
        let var = if n > 1 {
            ((hits as f64 - n as f64 * mean * mean) / (n as f64 - 1.0)).max(0.0)
        } else {
            0.0
        };
        let rel = if mean > 0.0 {
            (var / n as f64).sqrt() / mean
        } else {
            f64::INFINITY
        };
        (kl.scale() * mean, rel)
    };
    Approximation {
        estimate,
        samples: n,
        drawn: n,
        batches: phase_batches(n),
        variance: 0.0,
        rel_stderr,
        cut_batch: Some(cut_batch),
    }
}

/// Batches consumed by a phase that drew `samples` draws from its stream.
fn phase_batches(samples: u64) -> u64 {
    samples.div_ceil(SAMPLE_BATCH as u64)
}

/// Configuration for the DKLR driver.
#[derive(Debug, Clone, Copy)]
pub struct DklrOptions {
    /// Relative error bound ε (0 < ε < 1 is the meaningful range).
    pub epsilon: f64,
    /// Failure probability δ (0 < δ < 1).
    pub delta: f64,
    /// Hard cap on total samples; exceeding it is an error rather than a
    /// silent loss of the guarantee.
    pub max_samples: u64,
}

impl DklrOptions {
    /// `aconf(ε, δ)` with the default cap of 2·10⁸ invocations.
    pub fn new(epsilon: f64, delta: f64) -> DklrOptions {
        DklrOptions {
            epsilon,
            delta,
            max_samples: 200_000_000,
        }
    }

    /// The options of 𝒜𝒜's step 1, the coarse stopping-rule run:
    /// `ε′ = min(½, √ε)`, `δ′ = δ/3`.
    fn coarse(&self) -> DklrOptions {
        DklrOptions {
            epsilon: 0.5f64.min(self.epsilon.sqrt()),
            delta: self.delta / 3.0,
            ..*self
        }
    }

    /// The stopping rule's hit target `Υ₁ = 1 + (1+ε)·Υ(ε, δ)`.
    fn upsilon1(&self) -> f64 {
        1.0 + (1.0 + self.epsilon) * upsilon(self.epsilon, self.delta)
    }

    /// The `aconf()` d-tree node budget over Karp–Luby scale `S`: the
    /// coarse run stops after `Υ₁′` hits at rate `p/S ≤ 1/max(1, S)`, so
    /// 𝒜𝒜 expects at least `Υ₁′ · max(1, S)` draws, each ≈ 1/[`NODE_DRAWS`] node.
    pub(crate) fn node_budget(&self, scale: f64) -> usize {
        (self.coarse().upsilon1() * scale.max(1.0) / NODE_DRAWS).ceil() as usize
    }

    /// `0 < ε < 1` and `0 < δ < 1`, else an error naming the argument.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(UrelError::BadProbability {
                message: format!("aconf epsilon {} outside (0, 1)", self.epsilon),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(UrelError::BadProbability {
                message: format!("aconf delta {} outside (0, 1)", self.delta),
            });
        }
        Ok(())
    }
}

/// `Υ(ε, δ) = 4·λ·ln(2/δ)/ε²` — the base sample-count scale.
fn upsilon(epsilon: f64, delta: f64) -> f64 {
    4.0 * LAMBDA * (2.0 / delta).ln() / (epsilon * epsilon)
}

/// Seed of phase `phase` of a seeded DKLR run (the phases — coarse SRA,
/// variance pairs, main run — must draw from disjoint streams).
fn phase_seed(seed: u64, phase: u64) -> u64 {
    maybms_par::derive_seed(seed, phase)
}

/// Validate `options`, short-circuit constant DNFs, and otherwise run
/// `driver` over a fresh sampler. The report's `drawn` becomes the
/// sampler's own count of draws (the drivers fill in their account of
/// what they consumed).
fn with_sampler(
    kl: &KarpLuby,
    options: &DklrOptions,
    driver: impl FnOnce(&mut Sampler<'_>) -> Result<Approximation>,
) -> Result<Approximation> {
    options.validate()?;
    if let Some(p) = kl.constant_value() {
        return Ok(Approximation::constant(p));
    }
    let mut sampler = kl.sampler();
    let a = driver(&mut sampler)?;
    Ok(Approximation {
        drawn: sampler.draws(),
        ..a
    })
}

/// Stopping Rule Algorithm: keep invoking the estimator until the running
/// sum of outcomes reaches `Υ₁ = 1 + (1+ε)Υ`; output `μ̂ = Υ₁ / N`.
///
/// For outcomes in `[0,1]` with mean `μ > 0`:
/// `P(|μ̂ − μ| ≤ ε·μ) > 1 − δ` (DKLR Theorem 1).
///
/// The stream `seed` is consumed in order and no draw is made past the
/// one the rule stops at. At every batch boundary the sample cap is
/// enforced and the governor consulted: a deadline cuts the run into a
/// degraded partial estimate ([`Approximation::cut_batch`]); cancellation
/// and memory aborts propagate as errors.
fn stopping_rule(
    sampler: &mut Sampler<'_>,
    options: &DklrOptions,
    seed: u64,
) -> Result<Approximation> {
    let kl = sampler.compiled();
    let upsilon1 = options.upsilon1();
    let mut hits: u64 = 0;
    let mut n: u64 = 0;
    let mut batch: u64 = 0;
    loop {
        if gov_batch_verdict()? {
            return Ok(degraded(kl, hits, n, batch));
        }
        let len = (SAMPLE_BATCH as u64).min(options.max_samples.saturating_sub(n));
        if len == 0 {
            return Err(UrelError::BadProbability {
                message: format!(
                    "stopping rule exceeded {} samples (sum {hits} < {upsilon1:.1}); \
                     the event probability is too small for this (ε, δ)",
                    options.max_samples
                ),
            });
        }
        let mut rng = batch_rng(seed, batch);
        for _ in 0..len {
            n += 1;
            if sampler.draw(&mut rng) {
                hits += 1;
                if hits as f64 >= upsilon1 {
                    return Ok(Approximation {
                        estimate: kl.scale() * upsilon1 / n as f64,
                        samples: n,
                        drawn: n,
                        batches: phase_batches(n),
                        variance: 0.0,
                        rel_stderr: options.epsilon,
                        cut_batch: None,
                    });
                }
            }
        }
        batch += 1;
    }
}

/// Outcome of a governed fold over a known-length phase stream.
enum StreamSum {
    /// All batches consumed: the fold total.
    Done(u64),
    /// Deadline cut before batch `consumed` (0-based within the phase).
    Cut {
        /// Full batches consumed before the cut.
        consumed: u64,
        /// Fold total over those batches.
        total: u64,
    },
}

/// Sum `per_batch(rng, len)` over the batches covering the first `samples`
/// draws of phase stream `seed`, consulting the governor before each
/// batch is drawn.
fn fold_stream(
    samples: u64,
    seed: u64,
    mut per_batch: impl FnMut(&mut StdRng, u64) -> u64,
) -> Result<StreamSum> {
    let mut total = 0;
    for consumed in 0..phase_batches(samples) {
        if gov_batch_verdict()? {
            return Ok(StreamSum::Cut { consumed, total });
        }
        let len = (SAMPLE_BATCH as u64).min(samples - consumed * SAMPLE_BATCH as u64);
        total += per_batch(&mut batch_rng(seed, consumed), len);
    }
    Ok(StreamSum::Done(total))
}

/// The 𝒜𝒜 algorithm (DKLR §2.2): optimal up to constants — its expected
/// sample count is within a constant factor of any estimator achieving the
/// same (ε, δ) guarantee.
///
/// Three phases, each over its own seeded stream (see the module docs).
/// The variance phase pairs consecutive stream draws; [`SAMPLE_BATCH`] is
/// even, so pairs never straddle batch boundaries.
pub fn approximate_seeded(
    kl: &KarpLuby,
    options: &DklrOptions,
    seed: u64,
) -> Result<Approximation> {
    with_sampler(kl, options, |sampler| approximate(sampler, options, seed))
}

/// [`approximate_seeded`] over a caller's sampler.
fn approximate(
    sampler: &mut Sampler<'_>,
    options: &DklrOptions,
    seed: u64,
) -> Result<Approximation> {
    let kl = sampler.compiled();
    let eps = options.epsilon;
    let delta = options.delta;
    let ups = upsilon(eps, delta);
    let ups2 = 2.0
        * (1.0 + eps.sqrt())
        * (1.0 + 2.0 * eps.sqrt())
        * (1.0 + (3.0f64 / 2.0).ln() / (2.0 / delta).ln())
        * ups;

    // Step 1: the coarse SRA.
    let sra = stopping_rule(sampler, &options.coarse(), phase_seed(seed, 1))?;
    if sra.cut_batch.is_some() {
        // Deadline hit during the coarse run: its partial seeded mean is
        // the best (and only) information available.
        return Ok(sra);
    }
    let mut spent = sra.samples;
    let mut batches = sra.batches;
    // μ̂ of the *indicator* (mean in [0,1]), not of the scaled estimate.
    let mu_hat = sra.estimate / kl.scale();

    // Step 2: variance estimation from sample pairs — for 0/1 outcomes
    // `(a − b)²/2` is half the count of pairs that differ.
    let n2 = ((ups2 * eps / mu_hat).ceil() as u64).max(1);
    if spent + 2 * n2 > options.max_samples {
        return Err(UrelError::BadProbability {
            message: format!(
                "AA step 2 would need {} samples, above the cap {}",
                2 * n2,
                options.max_samples
            ),
        });
    }
    let differing = match fold_stream(2 * n2, phase_seed(seed, 2), |rng, len| {
        (0..len / 2)
            .filter(|_| sampler.draw(rng) != sampler.draw(rng))
            .count() as u64
    })? {
        StreamSum::Done(total) => total,
        StreamSum::Cut { consumed, .. } => {
            // Deadline mid-variance-phase: the SRA estimate already holds
            // with its coarse (ε', δ') guarantee, so fall back to it and
            // account for the consumed variance samples.
            return Ok(Approximation {
                samples: spent + consumed * SAMPLE_BATCH as u64,
                batches: batches + consumed,
                cut_batch: Some(batches + consumed),
                ..sra
            });
        }
    };
    spent += 2 * n2;
    batches += phase_batches(2 * n2);
    let rho_hat = (differing as f64 / 2.0 / n2 as f64).max(eps * mu_hat);

    // Step 3: the optimal main run.
    let n3 = ((ups2 * rho_hat / (mu_hat * mu_hat)).ceil() as u64).max(1);
    if spent + n3 > options.max_samples {
        return Err(UrelError::BadProbability {
            message: format!(
                "AA step 3 would need {n3} samples, above the cap {}",
                options.max_samples
            ),
        });
    }
    let hits = match fold_stream(n3, phase_seed(seed, 3), |rng, len| {
        (0..len).filter(|_| sampler.draw(rng)).count() as u64
    })? {
        StreamSum::Done(total) => total,
        // Nothing from the main run yet: the SRA estimate is still the
        // best information available.
        StreamSum::Cut { consumed: 0, .. } => {
            return Ok(Approximation {
                samples: spent,
                batches,
                cut_batch: Some(batches),
                ..sra
            });
        }
        StreamSum::Cut { consumed, total } => {
            // Partial main run: seeded mean over the consumed batches,
            // with the *achieved* standard error rather than the
            // requested one.
            let n = consumed * SAMPLE_BATCH as u64;
            return Ok(Approximation {
                samples: spent + n,
                batches: batches + consumed,
                variance: rho_hat,
                ..degraded(kl, total, n, batches + consumed)
            });
        }
    };
    spent += n3;
    batches += phase_batches(n3);
    Ok(Approximation {
        estimate: kl.scale() * hits as f64 / n3 as f64,
        samples: spent,
        drawn: spent,
        batches,
        variance: rho_hat,
        rel_stderr: (rho_hat / n3 as f64).sqrt() / mu_hat,
        cut_batch: None,
    })
}

/// Seeded `aconf(ε, δ)` with the full [`Approximation`] report: compile
/// the Karp–Luby sampler and run 𝒜𝒜 — the engine of the SQL `aconf`
/// aggregate.
pub fn aconf_seeded_report(
    dnf: &Dnf,
    wt: &WorldTable,
    epsilon: f64,
    delta: f64,
    seed: u64,
) -> Result<Approximation> {
    let kl = KarpLuby::new(dnf, wt)?;
    approximate_seeded(&kl, &DklrOptions::new(epsilon, delta), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use maybms_urel::{Assignment, Var, Wsd};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect()).unwrap()
    }

    /// The Stopping Rule Algorithm alone, at stream `seed`.
    fn stopping_rule_seeded(
        kl: &KarpLuby,
        options: &DklrOptions,
        seed: u64,
    ) -> Result<Approximation> {
        with_sampler(kl, options, |sampler| stopping_rule(sampler, options, seed))
    }

    /// A DNF whose clauses overlap, with known probability.
    fn test_dnf(wt: &mut WorldTable, blocks: usize) -> Dnf {
        let mut clauses = Vec::new();
        for _ in 0..blocks {
            let x = wt.new_var(&[0.5, 0.5]).unwrap();
            let y = wt.new_var(&[0.7, 0.3]).unwrap();
            clauses.push(clause(&[(x, 1), (y, 1)]));
            clauses.push(clause(&[(x, 0), (y, 0)]));
        }
        Dnf::new(clauses)
    }

    #[test]
    fn options_validated() {
        assert!(DklrOptions::new(0.0, 0.5).validate().is_err());
        assert!(DklrOptions::new(1.5, 0.5).validate().is_err());
        assert!(DklrOptions::new(0.1, 0.0).validate().is_err());
        assert!(DklrOptions::new(0.1, 1.0).validate().is_err());
        assert!(DklrOptions::new(0.1, 0.05).validate().is_ok());
    }

    #[test]
    fn constants_cost_zero_samples() {
        let wt = WorldTable::new();
        let kl = KarpLuby::new(&Dnf::falsum(), &wt).unwrap();
        let a = approximate_seeded(&kl, &DklrOptions::new(0.1, 0.1), 0).unwrap();
        assert_eq!(a, Approximation::constant(0.0));
        assert_eq!(a.samples, 0);
        assert_eq!(a.batches, 0);
    }

    #[test]
    fn stopping_rule_achieves_relative_error() {
        let mut wt = WorldTable::new();
        let d = test_dnf(&mut wt, 3);
        let truth = exact::probability(&d, &wt).unwrap();
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let opts = DklrOptions::new(0.1, 0.05);
        let runs = 30;
        let failures = (0..runs)
            .filter(|&seed| {
                let a = stopping_rule_seeded(&kl, &opts, seed).unwrap();
                assert_eq!(a.drawn, a.samples, "the rule draws nothing past its stop");
                ((a.estimate - truth) / truth).abs() > opts.epsilon
            })
            .count();
        // δ = 0.05: expect ~1.5 failures in 30; allow generous slack.
        assert!(failures <= 4, "failures {failures}/{runs}");
    }

    #[test]
    fn aa_achieves_relative_error_with_fewer_samples() {
        let mut wt = WorldTable::new();
        let d = test_dnf(&mut wt, 4);
        let truth = exact::probability(&d, &wt).unwrap();
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let opts = DklrOptions::new(0.1, 0.05);
        let mut failures = 0;
        let mut aa_samples = 0u64;
        let mut sra_samples = 0u64;
        let runs = 30;
        for seed in 0..runs {
            let aa = approximate_seeded(&kl, &opts, seed).unwrap();
            assert_eq!(aa.drawn, aa.samples);
            aa_samples += aa.samples;
            sra_samples += stopping_rule_seeded(&kl, &opts, seed).unwrap().samples;
            if ((aa.estimate - truth) / truth).abs() > opts.epsilon {
                failures += 1;
            }
        }
        // δ = 0.05: expect ~1.5 failures in 30; allow generous slack.
        assert!(failures <= 4, "failures {failures}/{runs}");
        // The Karp-Luby indicator has mean p/S; for this family the AA's
        // variance-adapted step-3 run should not be wildly worse than SRA.
        assert!(
            aa_samples < sra_samples * 4,
            "AA used {aa_samples}, SRA {sra_samples}"
        );
    }

    #[test]
    fn smaller_epsilon_needs_more_samples() {
        let mut wt = WorldTable::new();
        let d = test_dnf(&mut wt, 3);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let loose = approximate_seeded(&kl, &DklrOptions::new(0.2, 0.05), 17).unwrap();
        let tight = approximate_seeded(&kl, &DklrOptions::new(0.05, 0.05), 17).unwrap();
        assert!(
            tight.samples > loose.samples * 4,
            "tight {} vs loose {}",
            tight.samples,
            loose.samples
        );
    }

    #[test]
    fn seeded_runs_repeat_and_the_seed_is_live() {
        let mut wt = WorldTable::new();
        let d = test_dnf(&mut wt, 3);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        // ε = 0.05 makes the variance and main phases span several batches.
        let opts = DklrOptions::new(0.05, 0.05);
        let a = approximate_seeded(&kl, &opts, 42).unwrap();
        assert!(a.batches > 8);
        assert_eq!(a, approximate_seeded(&kl, &opts, 42).unwrap());
        let other = approximate_seeded(&kl, &opts, 43).unwrap();
        assert_ne!(a.estimate.to_bits(), other.estimate.to_bits());
    }

    #[test]
    fn seeded_sample_cap_enforced() {
        let mut wt = WorldTable::new();
        let d = test_dnf(&mut wt, 2);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let opts = DklrOptions {
            epsilon: 0.01,
            delta: 0.01,
            max_samples: 100,
        };
        assert!(stopping_rule_seeded(&kl, &opts, 1).is_err());
        assert!(approximate_seeded(&kl, &opts, 1).is_err());
        // The cap is exact, not rounded up to a batch: on a certain event
        // the rule stops after ⌈Υ₁⌉ draws, and fails with one draw fewer.
        let x = wt.new_var(&[1.0]).unwrap();
        let kl = KarpLuby::new(&Dnf::new(vec![clause(&[(x, 0)])]), &wt).unwrap();
        let need = DklrOptions::new(0.9, 0.9);
        let n = stopping_rule_seeded(&kl, &need, 1).unwrap().samples;
        assert!(n < SAMPLE_BATCH as u64);
        assert!(stopping_rule_seeded(
            &kl,
            &DklrOptions {
                max_samples: n,
                ..need
            },
            1
        )
        .is_ok());
        assert!(stopping_rule_seeded(
            &kl,
            &DklrOptions {
                max_samples: n - 1,
                ..need
            },
            1
        )
        .is_err());
    }

    #[test]
    fn aconf_end_to_end() {
        let mut wt = WorldTable::new();
        let d = test_dnf(&mut wt, 2);
        let truth = exact::probability(&d, &wt).unwrap();
        let est = aconf_seeded_report(&d, &wt, 0.05, 0.05, 3)
            .unwrap()
            .estimate;
        assert!(
            ((est - truth) / truth).abs() < 0.05,
            "est {est} truth {truth}"
        );
    }
}
