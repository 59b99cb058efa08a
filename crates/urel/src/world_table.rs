//! The world table: the database-wide registry of independent random
//! variables, their finite domains, and their probability distributions.
//!
//! In released MayBMS this is the `W` system table holding
//! `(variable, assignment, probability)` rows; here it is an indexed
//! structure with the same information. The set of possible worlds is the
//! product of the variables' domains; a world's probability is the product
//! of its chosen alternatives' probabilities (§2.1).

use rand::Rng;

use crate::error::{Result, UrelError};
use crate::var::{Assignment, Var};

/// Tolerance for validating that a distribution sums to 1.
const DIST_TOLERANCE: f64 = 1e-6;

/// A total choice of alternatives, one per registered variable
/// (`world[v]` = the alternative variable `v` takes).
pub type World = Vec<u16>;

/// Registry of all random variables in a database.
///
/// Every probability lives in one flat vector, variable after variable;
/// `ends[v]` is where variable `v`'s alternatives end (and `v + 1`'s
/// begin), so registering a variable allocates nothing of its own.
#[derive(Debug, Clone, Default)]
pub struct WorldTable {
    /// The alternatives' probabilities of every variable, in id order.
    probs: Vec<f64>,
    /// `ends[v]` = one past the last index of variable `v` in `probs`.
    ends: Vec<usize>,
}

impl WorldTable {
    /// An empty world table (zero variables; exactly one world).
    pub fn new() -> WorldTable {
        WorldTable::default()
    }

    /// Register a fresh independent variable with the given alternative
    /// probabilities. The distribution must be non-empty, contain only
    /// finite values in `[0, 1]`, and sum to 1 (±1e-6).
    pub fn new_var(&mut self, probs: &[f64]) -> Result<Var> {
        self.push_var(probs.iter().copied())
    }

    /// [`WorldTable::new_var`] over an iterator: the probabilities go
    /// straight into the table's storage and are checked there. A
    /// distribution that fails the check leaves the table as it was.
    pub fn push_var(&mut self, probs: impl IntoIterator<Item = f64>) -> Result<Var> {
        let start = self.probs.len();
        self.probs.extend(probs);
        if let Err(e) = check_distribution(&self.probs[start..]) {
            self.probs.truncate(start);
            return Err(e);
        }
        let var = Var(self.ends.len() as u32);
        self.ends.push(self.probs.len());
        Ok(var)
    }

    /// Forget every variable from id `num_vars` on, restoring the table
    /// a failed `repair key` / `pick tuples` or statement started from
    /// (ids are sequential, so the variables it registered are the last
    /// ones). Nothing kept may refer to a forgotten variable.
    pub fn truncate(&mut self, num_vars: usize) {
        if num_vars < self.ends.len() {
            self.probs
                .truncate(num_vars.checked_sub(1).map_or(0, |v| self.ends[v]));
            self.ends.truncate(num_vars);
        }
    }

    /// Number of registered variables.
    pub fn num_vars(&self) -> usize {
        self.ends.len()
    }

    /// Domain size of `var`.
    pub fn domain_size(&self, var: Var) -> Result<usize> {
        self.distribution(var).map(<[f64]>::len)
    }

    /// Probability of an assignment.
    pub fn prob(&self, a: Assignment) -> Result<f64> {
        let dist = self.distribution(a.var)?;
        dist.get(a.alt as usize)
            .copied()
            .ok_or(UrelError::BadAlternative {
                var: a.var.0,
                alt: a.alt,
                domain: dist.len(),
            })
    }

    /// The full distribution of `var`.
    pub fn distribution(&self, var: Var) -> Result<&[f64]> {
        let v = var.0 as usize;
        if v >= self.ends.len() {
            return Err(UrelError::UnknownVariable { var: var.0 });
        }
        Ok(self.dist(v))
    }

    /// Every variable's distribution, in id order.
    pub fn distributions(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.ends.len()).map(|v| self.dist(v))
    }

    /// Variable `v`'s slice of `probs` (`v` in range).
    fn dist(&self, v: usize) -> &[f64] {
        let start = if v == 0 { 0 } else { self.ends[v - 1] };
        &self.probs[start..self.ends[v]]
    }

    /// Number of possible worlds (product of domain sizes), or `None` when
    /// it exceeds `u128`.
    pub fn world_count(&self) -> Option<u128> {
        let mut n: u128 = 1;
        for d in self.distributions() {
            n = n.checked_mul(d.len() as u128)?;
        }
        Some(n)
    }

    /// Probability of a full world (product over all variables).
    pub fn world_prob(&self, world: &[u16]) -> Result<f64> {
        if world.len() != self.num_vars() {
            return Err(UrelError::BadDistribution {
                message: format!(
                    "world has {} assignments, expected {}",
                    world.len(),
                    self.num_vars()
                ),
            });
        }
        let mut p = 1.0;
        for (v, &alt) in world.iter().enumerate() {
            p *= self.prob(Assignment::new(Var(v as u32), alt))?;
        }
        Ok(p)
    }

    /// Sample a world (independent draw per variable).
    pub fn sample_world<R: Rng + ?Sized>(&self, rng: &mut R) -> World {
        self.distributions()
            .map(|d| sample_categorical(d, rng))
            .collect()
    }

    /// Iterate every world with its probability. Errors if the world count
    /// exceeds `limit` (enumeration is the *testing oracle*, exponential by
    /// design).
    pub fn enumerate_worlds(&self, limit: u128) -> Result<WorldIter<'_>> {
        let count = self.world_count().ok_or(UrelError::WorldLimitExceeded {
            count: u128::MAX,
            limit,
        })?;
        if count > limit {
            return Err(UrelError::WorldLimitExceeded { count, limit });
        }
        Ok(WorldIter {
            table: self,
            current: vec![0; self.num_vars()],
            done: false,
        })
    }
}

/// `new_var`'s check: non-empty, at most `u16::MAX` alternatives, each
/// finite in `[0, 1]`, summing to 1 (±[`DIST_TOLERANCE`]).
fn check_distribution(probs: &[f64]) -> Result<()> {
    if probs.is_empty() {
        return Err(UrelError::BadDistribution {
            message: "empty distribution".into(),
        });
    }
    if probs.len() > u16::MAX as usize {
        return Err(UrelError::BadDistribution {
            message: format!("domain size {} exceeds u16::MAX", probs.len()),
        });
    }
    let mut sum = 0.0;
    for &p in probs {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(UrelError::BadDistribution {
                message: format!("probability {p} outside [0, 1]"),
            });
        }
        sum += p;
    }
    if (sum - 1.0).abs() > DIST_TOLERANCE {
        return Err(UrelError::BadDistribution {
            message: format!("distribution sums to {sum}, expected 1"),
        });
    }
    Ok(())
}

/// Sample an index from a categorical distribution.
fn sample_categorical<R: Rng + ?Sized>(dist: &[f64], rng: &mut R) -> u16 {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in dist.iter().enumerate() {
        acc += p;
        if x < acc {
            return i as u16;
        }
    }
    // Float round-off: fall back to the last alternative with nonzero mass.
    dist.iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(dist.len() - 1) as u16
}

/// Odometer iterator over all worlds of a [`WorldTable`].
#[derive(Debug)]
pub struct WorldIter<'a> {
    table: &'a WorldTable,
    current: World,
    done: bool,
}

impl Iterator for WorldIter<'_> {
    type Item = (World, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let world = self.current.clone();
        let prob = self
            .table
            .world_prob(&world)
            .expect("odometer worlds are always in range");
        // Advance the odometer.
        let mut i = self.current.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            let dom = self.table.dist(i).len() as u16;
            if self.current[i] + 1 < dom {
                self.current[i] += 1;
                for c in &mut self.current[i + 1..] {
                    *c = 0;
                }
                break;
            }
        }
        Some((world, prob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_var_validates_distribution() {
        let mut wt = WorldTable::new();
        assert!(wt.new_var(&[]).is_err());
        assert!(wt.new_var(&[0.5, 0.6]).is_err()); // sums to 1.1
        assert!(wt.new_var(&[-0.1, 1.1]).is_err());
        assert!(wt.new_var(&[f64::NAN, 1.0]).is_err());
        assert!(wt.new_var(&[0.25, 0.75]).is_ok());
    }

    #[test]
    fn variables_get_sequential_ids() {
        let mut wt = WorldTable::new();
        let a = wt.new_var(&[1.0]).unwrap();
        let b = wt.new_var(&[0.5, 0.5]).unwrap();
        assert_eq!(a, Var(0));
        assert_eq!(b, Var(1));
        assert_eq!(wt.num_vars(), 2);
    }

    #[test]
    fn prob_and_domain_lookups() {
        let mut wt = WorldTable::new();
        let v = wt.new_var(&[0.8, 0.05, 0.15]).unwrap();
        assert_eq!(wt.domain_size(v).unwrap(), 3);
        assert_eq!(wt.prob(Assignment::new(v, 0)).unwrap(), 0.8);
        assert!(wt.prob(Assignment::new(v, 3)).is_err());
        assert!(wt.prob(Assignment::new(Var(9), 0)).is_err());
    }

    #[test]
    fn world_count_and_enumeration() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.5, 0.5]).unwrap();
        wt.new_var(&[0.2, 0.3, 0.5]).unwrap();
        assert_eq!(wt.world_count(), Some(6));
        let worlds: Vec<_> = wt.enumerate_worlds(100).unwrap().collect();
        assert_eq!(worlds.len(), 6);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Lexicographic order.
        assert_eq!(worlds[0].0, vec![0, 0]);
        assert_eq!(worlds[5].0, vec![1, 2]);
    }

    #[test]
    fn empty_table_has_one_world() {
        let wt = WorldTable::new();
        assert_eq!(wt.world_count(), Some(1));
        let worlds: Vec<_> = wt.enumerate_worlds(10).unwrap().collect();
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0].1, 1.0);
    }

    #[test]
    fn enumeration_limit_enforced() {
        let mut wt = WorldTable::new();
        for _ in 0..20 {
            wt.new_var(&[0.5, 0.5]).unwrap();
        }
        assert!(matches!(
            wt.enumerate_worlds(1000),
            Err(UrelError::WorldLimitExceeded { .. })
        ));
    }

    #[test]
    fn world_prob_is_product() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.8, 0.2]).unwrap();
        wt.new_var(&[0.1, 0.9]).unwrap();
        let p = wt.world_prob(&[0, 1]).unwrap();
        assert!((p - 0.72).abs() < 1e-12);
        assert!(wt.world_prob(&[0]).is_err());
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.8, 0.05, 0.15]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let w = wt.sample_world(&mut rng);
            counts[w[0] as usize] += 1;
        }
        let freq0 = counts[0] as f64 / n as f64;
        assert!((freq0 - 0.8).abs() < 0.02, "freq0 = {freq0}");
    }

    #[test]
    fn zero_probability_alternative_never_sampled() {
        let mut wt = WorldTable::new();
        wt.new_var(&[0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(wt.sample_world(&mut rng)[0], 1);
        }
    }
}
