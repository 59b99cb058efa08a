//! The Karp–Luby unbiased estimator for DNF probability, "in a modified
//! version adapted to confidence computation in probabilistic databases"
//! (§2.3): clauses are conjunctions of assignments of *multi-valued*
//! independent variables, not just Boolean literals.
//!
//! The estimator uses the coverage (importance-sampling) scheme:
//!
//! 1. let `S = Σᵢ P(cᵢ)` (each clause's probability is a simple product);
//! 2. draw clause `i` with probability `P(cᵢ)/S`;
//! 3. draw a world `w` from the distribution *conditioned on cᵢ being
//!    true*: fix cᵢ's assignments, sample every other variable of the DNF
//!    independently;
//! 4. output `X = 1` if `i = min{ j : w ⊨ cⱼ }`, else `0`.
//!
//! Then `E[X] = P(⋁ cⱼ)/S`, so `S·X̄` is an unbiased estimate of the DNF
//! probability, and `E[X] ≥ 1/m` for `m` clauses — the property the
//! Dagum–Karp–Luby–Ross stopping rules rely on.
//!
//! # The compiled sampler
//!
//! [`KarpLuby::new`] reads the lineage through the same
//! `CompiledLineage` the exact d-tree uses — dense local variable ids,
//! flat `(local variable, alternative)` clause runs — and turns the
//! flattened distributions into one CDF array. A
//! [`Sampler`] then draws indicators over a scratch world of one slot per
//! *local* variable, stamped with the draw's epoch so nothing is ever
//! re-zeroed, and samples a free variable only when a clause `j < i`
//! actually reads it (step 4 stops at the first falsified literal of each
//! clause, and a variable nobody reads is never drawn — deferred
//! decisions, same distribution). A draw allocates nothing and costs in
//! proportion to the assignments it inspects; the size of the world table
//! never enters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use maybms_urel::{Result, WorldTable};

use crate::dnf::{CompiledLineage, Dnf};

/// Samples per deterministic batch in the seeded estimators.
///
/// The seeded sample stream is *defined* as the concatenation of
/// fixed-size batches, batch `b` drawn from an RNG seeded with
/// [`maybms_par::derive_seed`]`(seed, b)`. Because neither the batch size
/// nor the per-batch seed depends on the thread count, the stream — and
/// every estimate computed from it — is bit-identical at any parallelism.
/// Kept even so that the DKLR variance phase's sample *pairs* never
/// straddle a batch boundary.
pub const SAMPLE_BATCH: usize = 1024;

/// The RNG of batch `batch` of the seeded stream `seed`.
pub(crate) fn batch_rng(seed: u64, batch: u64) -> StdRng {
    StdRng::seed_from_u64(maybms_par::derive_seed(seed, batch))
}

/// A Karp–Luby sampler compiled from a fixed DNF (see the module docs).
#[derive(Debug, Clone)]
pub struct KarpLuby {
    /// The clauses and variables the sampler draws over.
    lineage: CompiledLineage,
    /// Cumulative clause probabilities (unnormalised, ending at `sum`).
    cumulative: Vec<f64>,
    /// `S = Σ P(cᵢ)`.
    sum: f64,
    /// Per-variable cumulative distributions, at the index ranges of the
    /// lineage's flattened distributions. From a variable's last
    /// alternative with nonzero mass onwards the entries are `+∞`, so the
    /// scan in [`KarpLuby::sample_var`] always terminates there (float
    /// round-off can leave the running sum a hair below 1) and never
    /// returns a zero-probability alternative.
    cdf: Vec<f64>,
    /// Trivial cases resolved at construction.
    constant: Option<f64>,
}

impl KarpLuby {
    /// Compile a sampler. Constant DNFs (false / true / zero total mass)
    /// short-circuit.
    pub fn new(dnf: &Dnf, wt: &WorldTable) -> Result<KarpLuby> {
        if dnf.is_empty() {
            return Ok(Self::constant(0.0));
        }
        if dnf.is_true() {
            return Ok(Self::constant(1.0));
        }
        Ok(Self::compiled(CompiledLineage::new(dnf, wt)?))
    }

    /// A sampler over an already compiled lineage with no tautology
    /// clause (the `aconf()` cascade hands over its d-tree attempt's).
    pub(crate) fn compiled(lineage: CompiledLineage) -> KarpLuby {
        let mut cumulative = Vec::with_capacity(lineage.num_clauses());
        let mut sum = 0.0;
        for i in 0..lineage.num_clauses() {
            sum += lineage.clause_prob(i);
            cumulative.push(sum);
        }
        if sum == 0.0 {
            return Self::constant(0.0);
        }
        let mut cdf = Vec::new();
        for v in 0..lineage.num_vars() as u32 {
            let dist = lineage.distribution(v);
            let last = dist
                .iter()
                .rposition(|&p| p > 0.0)
                .unwrap_or(dist.len() - 1);
            let mut acc = 0.0;
            for (alt, &p) in dist.iter().enumerate() {
                acc += p;
                cdf.push(if alt < last { acc } else { f64::INFINITY });
            }
        }
        KarpLuby {
            lineage,
            cumulative,
            sum,
            cdf,
            constant: None,
        }
    }

    fn constant(p: f64) -> KarpLuby {
        KarpLuby {
            lineage: CompiledLineage::default(),
            cumulative: Vec::new(),
            sum: p,
            cdf: Vec::new(),
            constant: Some(p),
        }
    }

    /// The probability when the DNF is constant (no sampling needed).
    pub fn constant_value(&self) -> Option<f64> {
        self.constant
    }

    /// `S = Σ P(cᵢ)`, the scale factor of the estimator.
    pub fn scale(&self) -> f64 {
        self.sum
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.cumulative.len()
    }

    /// Draw an alternative of local variable `v` from its distribution.
    fn sample_var<R: Rng + ?Sized>(&self, v: u32, rng: &mut R) -> u16 {
        let cdf = &self.cdf[self.lineage.var_range(v)];
        let x: f64 = rng.gen();
        let mut alt = 0;
        // Terminates: the variable's last entry is +∞.
        while x >= cdf[alt] {
            alt += 1;
        }
        alt as u16
    }

    /// A sampler with a fresh scratch world. Panics on constant samplers
    /// (callers check [`KarpLuby::constant_value`] first).
    pub fn sampler(&self) -> Sampler<'_> {
        assert!(
            self.constant.is_none(),
            "sampler requested for a constant Karp-Luby DNF"
        );
        Sampler {
            kl: self,
            world: vec![0; self.lineage.num_vars()],
            epoch: 0,
        }
    }

    /// Seeded fixed-count Monte Carlo estimate `S · mean(X)` over the first
    /// `samples` draws of the batch stream `seed`. (The (ε,δ)-adaptive
    /// version lives in [`crate::dklr`].)
    pub fn estimate_seeded(&self, samples: usize, seed: u64) -> f64 {
        if let Some(p) = self.constant {
            return p;
        }
        if samples == 0 {
            return 0.0;
        }
        maybms_obs::metrics().mc_samples.add(samples as u64);
        let mut sampler = self.sampler();
        let mut hits = 0u64;
        for (batch, start) in (0..samples).step_by(SAMPLE_BATCH).enumerate() {
            let mut rng = batch_rng(seed, batch as u64);
            let len = SAMPLE_BATCH.min(samples - start);
            hits += (0..len).filter(|_| sampler.draw(&mut rng)).count() as u64;
        }
        self.sum * hits as f64 / samples as f64
    }
}

/// Draws Karp–Luby indicators from a compiled [`KarpLuby`] over a scratch
/// world that is reused, never re-zeroed, from draw to draw.
#[derive(Debug)]
pub struct Sampler<'a> {
    kl: &'a KarpLuby,
    /// `world[v] = epoch << 16 | alt`: local variable `v` took `alt` in
    /// draw `epoch`. A slot from an earlier draw compares below the
    /// current epoch's tag and reads as "not sampled yet".
    world: Vec<u64>,
    epoch: u64,
}

impl<'a> Sampler<'a> {
    /// The compiled DNF this sampler draws from.
    pub fn compiled(&self) -> &'a KarpLuby {
        self.kl
    }

    /// Indicators drawn from this sampler so far.
    pub fn draws(&self) -> u64 {
        self.epoch
    }

    /// Draw one Bernoulli outcome `X` with `E[X] = P(DNF)/S`.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        let kl = self.kl;
        self.epoch += 1;
        let tag = self.epoch << 16;
        // 1. pick clause i ∝ P(cᵢ): the first whose cumulative mass exceeds x.
        let x = rng.gen::<f64>() * kl.sum;
        let i = kl
            .cumulative
            .partition_point(|&c| c <= x)
            .min(kl.num_clauses() - 1);
        // 2. condition the world on cᵢ.
        for &(v, alt) in kl.lineage.clause(i) {
            self.world[v as usize] = tag | u64::from(alt);
        }
        // 3. X = 1 iff no earlier clause holds (cᵢ holds by construction).
        //    A variable is sampled when a clause first reads it.
        'clauses: for j in 0..i {
            for &(v, alt) in kl.lineage.clause(j) {
                let slot = &mut self.world[v as usize];
                if *slot < tag {
                    *slot = tag | u64::from(kl.sample_var(v, rng));
                }
                if *slot != tag | u64::from(alt) {
                    continue 'clauses;
                }
            }
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact, naive};
    use maybms_urel::{Assignment, Var, Wsd};

    fn clause(pairs: &[(Var, u16)]) -> Wsd {
        Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect()).unwrap()
    }

    fn overlapping_dnf(wt: &mut WorldTable) -> Dnf {
        let vars: Vec<Var> = (0..6).map(|_| wt.new_var(&[0.6, 0.4]).unwrap()).collect();
        Dnf::new(vec![
            clause(&[(vars[0], 1), (vars[1], 1)]),
            clause(&[(vars[1], 1), (vars[2], 1)]),
            clause(&[(vars[2], 0), (vars[3], 1), (vars[4], 1)]),
            clause(&[(vars[5], 1)]),
        ])
    }

    #[test]
    fn constant_dnfs_short_circuit() {
        let wt = WorldTable::new();
        let kl = KarpLuby::new(&Dnf::falsum(), &wt).unwrap();
        assert_eq!(kl.constant_value(), Some(0.0));
        let kl = KarpLuby::new(&Dnf::new(vec![Wsd::tautology()]), &wt).unwrap();
        assert_eq!(kl.constant_value(), Some(1.0));
    }

    #[test]
    fn zero_mass_dnf_is_constant_zero() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[1.0, 0.0]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1)])]);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        assert_eq!(kl.constant_value(), Some(0.0));
    }

    #[test]
    fn estimator_is_unbiased_small_dnf() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.5, 0.5]).unwrap();
        let y = wt.new_var(&[0.3, 0.7]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1), (y, 1)]), clause(&[(x, 0)])]);
        let truth = naive::probability(&d, &wt, 100).unwrap();
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let est = kl.estimate_seeded(200_000, 7);
        assert!(
            (est - truth).abs() < 0.01,
            "estimate {est} too far from truth {truth}"
        );
    }

    #[test]
    fn indicator_mean_is_at_least_one_over_m() {
        // E[X] = p/S ≥ 1/m — the DKLR precondition.
        let mut wt = WorldTable::new();
        let vars: Vec<Var> = (0..4).map(|_| wt.new_var(&[0.5, 0.5]).unwrap()).collect();
        let d = Dnf::new(vars.iter().map(|&v| clause(&[(v, 1)])).collect());
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let truth = exact::probability(&d, &wt).unwrap();
        let mean = truth / kl.scale();
        assert!(mean >= 1.0 / kl.num_clauses() as f64 - 1e-12);
    }

    #[test]
    fn scale_is_clause_probability_sum() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.25, 0.75]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        let d = Dnf::new(vec![clause(&[(x, 1)]), clause(&[(y, 0)])]);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        assert!((kl.scale() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn seeded_estimate_repeats_and_matches_exact_on_overlapping_clauses() {
        let mut wt = WorldTable::new();
        let d = overlapping_dnf(&mut wt);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        // A sample count that is not a batch multiple (exercises the tail).
        let samples = 3 * SAMPLE_BATCH + 137;
        let reference = kl.estimate_seeded(samples, 99);
        assert_eq!(
            reference.to_bits(),
            kl.estimate_seeded(samples, 99).to_bits()
        );
        // Different seeds give different estimates (the seed is live).
        assert_ne!(
            reference.to_bits(),
            kl.estimate_seeded(samples, 100).to_bits()
        );
        // And the estimate is statistically sound.
        let truth = exact::probability(&d, &wt).unwrap();
        let est = kl.estimate_seeded(400_000, 7);
        assert!(
            ((est - truth) / truth).abs() < 0.02,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn multivalued_variables_handled() {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.2, 0.3, 0.5]).unwrap();
        let y = wt.new_var(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        let d = Dnf::new(vec![
            clause(&[(x, 2), (y, 3)]),
            clause(&[(x, 0)]),
            clause(&[(y, 0)]),
        ]);
        let truth = naive::probability(&d, &wt, 100).unwrap();
        let kl = KarpLuby::new(&d, &wt).unwrap();
        let est = kl.estimate_seeded(300_000, 5);
        assert!((est - truth).abs() < 0.01, "est {est} truth {truth}");
    }

    #[test]
    fn zero_probability_alternative_is_never_sampled() {
        /// The largest uniform the shim can produce: 1 − 2⁻⁵³.
        struct MaxRng;
        impl rand::RngCore for MaxRng {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        // y's CDF tops out at 1 − 10⁻⁷ < x: the draw must fall back to
        // the last alternative that carries mass, not to a dead one.
        let mut wt = WorldTable::new();
        let y = wt.new_var(&[0.25, 0.75 - 1e-7, 0.0, 0.0]).unwrap();
        let d = Dnf::new(vec![clause(&[(y, 0)])]);
        let kl = KarpLuby::new(&d, &wt).unwrap();
        assert_eq!(kl.sample_var(0, &mut MaxRng), 1);
        let mut rng = batch_rng(3, 0);
        for _ in 0..10_000 {
            assert!(kl.sample_var(0, &mut rng) <= 1);
        }
    }
}
