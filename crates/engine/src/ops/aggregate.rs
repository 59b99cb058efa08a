//! Aggregation state: SUM / COUNT / AVG / MIN / MAX as mergeable folds.
//!
//! Only *certain* SQL aggregation is defined here. The uncertainty-aware
//! aggregates of MayBMS (`conf`, `aconf`, `esum`, `ecount`, `argmax`)
//! live in `maybms-core`, which folds these accumulator states
//! ([`AggState`]) next to its own on the streaming group breaker of
//! `maybms-pipe`. Grouping itself is [`crate::group::GroupTable`].
//!
//! # Mergeable accumulators
//!
//! Aggregation is a **fold**: every function here is an [`AggState`]
//! that absorbs one row at a time ([`AggState::fold`]) and merges with a
//! sibling state ([`AggState::merge`]) — the morsel-driven executor folds
//! states morsel-locally and merges them in morsel order.
//!
//! Merging is only sound under the determinism contract if a state's
//! final value does not depend on how the input was split. Counts and
//! integer sums are associative; min/max keep the first-seen extremum; and
//! float sums use [`ExactSum`] — an exact (error-free) accumulation whose
//! rounded result is the same for *any* fold/merge tree, so a parallel
//! morsel split is bit-identical to the sequential scan.

use crate::error::{EngineError, Result};
use crate::types::Value;

/// A standard SQL aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` / `count(expr)` (non-NULL count).
    Count,
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
}

impl AggFunc {
    /// The function's SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

// ---------------------------------------------------------------------
// ExactSum: split-invariant float accumulation
// ---------------------------------------------------------------------

/// Error-free float accumulator (Shewchuk expansions, as in Python's
/// `math.fsum`): the partials represent the *exact* real-valued sum of
/// everything added so far, and [`ExactSum::round`] returns it correctly
/// rounded to one `f64`.
///
/// Because the represented value is exact, addition is associative and
/// commutative here even though `f64` addition is not: folding values
/// one-by-one, or splitting them across morsels and merging the partial
/// sums, rounds to the **same** final result. This is what lets the
/// streaming grouped-aggregation breaker keep running per-morsel partial
/// sums while staying bit-identical to the sequential scan at any thread
/// count and morsel size.
///
/// Precondition (as for `math.fsum`): addends are finite and no
/// intermediate two-sum overflows `f64::MAX`. NaN/±inf never enter
/// (`Value::float` rejects them upstream), but sums whose magnitude
/// approaches `1e308` can overflow an intermediate and produce a
/// non-finite, split-dependent result — out of contract, exactly as the
/// plain left-to-right fold it replaces was.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Non-overlapping partials in increasing magnitude order.
    partials: Vec<f64>,
}

impl ExactSum {
    /// A fresh zero sum.
    pub fn new() -> ExactSum {
        ExactSum::default()
    }

    /// Add one value exactly.
    pub fn add(&mut self, mut x: f64) {
        // Fast path: a single partial that absorbs the addend exactly —
        // the overwhelmingly common case for well-scaled data.
        if let [y] = self.partials[..] {
            let (a, b) = if x.abs() >= y.abs() { (x, y) } else { (y, x) };
            let hi = a + b;
            let lo = b - (hi - a);
            if lo == 0.0 {
                self.partials[0] = hi;
            } else {
                self.partials[0] = lo;
                self.partials.push(hi);
            }
            return;
        }
        let mut kept = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Two-sum: hi + lo == x + y exactly.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        self.partials.push(x);
    }

    /// Absorb another exact sum (exactly).
    pub fn merge(&mut self, other: &ExactSum) {
        for &p in &other.partials {
            self.add(p);
        }
    }

    /// The correctly rounded value of the exact sum (round-half-even, like
    /// `math.fsum`), independent of insertion or merge order.
    pub fn round(&self) -> f64 {
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Half-even correction: if the discarded tail pushes the result
        // past the halfway point, nudge the last bit.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

// ---------------------------------------------------------------------
// AggState: one mergeable accumulator per aggregate slot
// ---------------------------------------------------------------------

/// Coarse type class for min/max compatibility: numeric values compare
/// across Int/Float, every other mix is a type error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeClass {
    Numeric,
    Text,
    Bool,
}

#[inline]
fn class_of(v: &Value) -> TypeClass {
    match v {
        Value::Int(_) | Value::Float(_) => TypeClass::Numeric,
        Value::Str(_) => TypeClass::Text,
        Value::Bool(_) => TypeClass::Bool,
        Value::Null => unreachable!("NULLs are skipped before classification"),
    }
}

impl TypeClass {
    fn name(self) -> &'static str {
        match self {
            TypeClass::Numeric => "numeric",
            TypeClass::Text => "text",
            TypeClass::Bool => "boolean",
        }
    }
}

/// The mergeable state of one aggregate over one group: fold a row at a
/// time, merge per morsel, [`AggState::finish`] into the output value.
///
/// NULL arguments are skipped (SQL semantics); integer sums accumulate in
/// `i128` (overflow is checked once, on the *total*, at finish); float
/// sums are [`ExactSum`]s, so fold/merge order never changes the result.
#[derive(Debug, Clone)]
pub enum AggState {
    /// `count(*)` / `count(expr)`.
    Count {
        /// Rows (or non-NULL values) seen.
        n: i64,
    },
    /// `sum(expr)`.
    Sum {
        /// Non-NULL values seen.
        n: u64,
        /// True while every value was an integer.
        all_int: bool,
        /// Exact integer sum (checked against `i64` at finish).
        isum: i128,
        /// Exact float sum (integers widened).
        fsum: ExactSum,
    },
    /// `avg(expr)`.
    Avg {
        /// Non-NULL values seen.
        n: u64,
        /// Exact float sum.
        fsum: ExactSum,
    },
    /// `min(expr)` / `max(expr)`.
    Extremum {
        /// Which end: true = min, false = max.
        min: bool,
        /// The first-seen extremum so far.
        best: Option<Value>,
    },
}

impl AggState {
    /// A fresh state for `func`.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count { n: 0 },
            AggFunc::Sum => AggState::Sum {
                n: 0,
                all_int: true,
                isum: 0,
                fsum: ExactSum::new(),
            },
            AggFunc::Avg => AggState::Avg {
                n: 0,
                fsum: ExactSum::new(),
            },
            AggFunc::Min => AggState::Extremum {
                min: true,
                best: None,
            },
            AggFunc::Max => AggState::Extremum {
                min: false,
                best: None,
            },
        }
    }

    /// The function this state accumulates.
    pub fn func(&self) -> AggFunc {
        match self {
            AggState::Count { .. } => AggFunc::Count,
            AggState::Sum { .. } => AggFunc::Sum,
            AggState::Avg { .. } => AggFunc::Avg,
            AggState::Extremum { min: true, .. } => AggFunc::Min,
            AggState::Extremum { min: false, .. } => AggFunc::Max,
        }
    }

    /// Fold a row with no argument expression — `count(*)`.
    pub fn fold_present(&mut self) {
        match self {
            AggState::Count { n } => *n += 1,
            other => unreachable!("{}() requires an argument", other.func().name()),
        }
    }

    /// Fold one argument value (NULLs are skipped). Numbers go through
    /// [`AggState::fold_i64`] / [`AggState::fold_f64`], so the typed
    /// folds of a column and this one share every aggregate's arithmetic.
    pub fn fold(&mut self, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (_, Value::Null) => Ok(()),
            (_, Value::Int(i)) => self.fold_i64(*i),
            (_, Value::Float(f)) => self.fold_f64(*f),
            (AggState::Count { n }, _) => {
                *n += 1;
                Ok(())
            }
            (AggState::Extremum { .. }, _) => self.fold_extremum(v),
            (state, other) => Err(type_err(state.func(), other)),
        }
    }

    /// Fold one non-NULL integer argument.
    #[inline]
    pub fn fold_i64(&mut self, i: i64) -> Result<()> {
        self.fold_number(i as f64, Some(i))
    }

    /// Fold one non-NULL float argument.
    #[inline]
    pub fn fold_f64(&mut self, f: f64) -> Result<()> {
        self.fold_number(f, None)
    }

    /// Fold a number: `x`, and the integer it is if it is one.
    #[inline]
    fn fold_number(&mut self, x: f64, int: Option<i64>) -> Result<()> {
        match self {
            AggState::Count { n } => *n += 1,
            AggState::Sum {
                n,
                all_int,
                isum,
                fsum,
            } => {
                match int {
                    Some(i) => *isum += i128::from(i),
                    None => *all_int = false,
                }
                fsum.add(x);
                *n += 1;
            }
            AggState::Avg { n, fsum } => {
                fsum.add(x);
                *n += 1;
            }
            AggState::Extremum { .. } => {
                return self.fold_extremum(&int.map_or(Value::Float(x), Value::Int))
            }
        }
        Ok(())
    }

    /// `min` / `max` over one non-NULL value: numeric values compare
    /// across `Int`/`Float` ([`Value`]'s order), any other mix of classes
    /// is a type error.
    #[inline]
    fn fold_extremum(&mut self, v: &Value) -> Result<()> {
        let AggState::Extremum { min, best } = self else {
            unreachable!("only min/max keep an extremum")
        };
        match best {
            None => *best = Some(v.clone()),
            Some(b) => {
                let (bc, vc) = (class_of(b), class_of(v));
                if bc != vc {
                    return Err(EngineError::TypeMismatch {
                        message: format!(
                            "{}() over mixed {} and {} values",
                            if *min { "min" } else { "max" },
                            bc.name(),
                            vc.name()
                        ),
                    });
                }
                // First-seen extremum: replace only on a strict
                // improvement, so fold and morsel merge agree on ties.
                let better = if *min { v < b } else { v > b };
                if better {
                    *best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Merge a later state into this one (this state's rows precede
    /// `other`'s). Bit-identical to having folded `other`'s rows directly.
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count { n }, AggState::Count { n: m }) => *n += m,
            (
                AggState::Sum {
                    n,
                    all_int,
                    isum,
                    fsum,
                },
                AggState::Sum {
                    n: m,
                    all_int: ai,
                    isum: is,
                    fsum: fs,
                },
            ) => {
                *n += m;
                *all_int &= ai;
                *isum += is;
                fsum.merge(&fs);
            }
            (AggState::Avg { n, fsum }, AggState::Avg { n: m, fsum: fs }) => {
                *n += m;
                fsum.merge(&fs);
            }
            (this @ AggState::Extremum { .. }, AggState::Extremum { best: Some(v), .. }) => {
                this.fold(&v)?;
            }
            (AggState::Extremum { .. }, AggState::Extremum { best: None, .. }) => {}
            _ => unreachable!("merging states of different aggregate functions"),
        }
        Ok(())
    }

    /// The output value of the accumulated aggregate.
    pub fn finish(&self) -> Result<Value> {
        match self {
            AggState::Count { n } => Ok(Value::Int(*n)),
            AggState::Sum { n: 0, .. } | AggState::Avg { n: 0, .. } => Ok(Value::Null),
            AggState::Sum {
                all_int: true,
                isum,
                ..
            } => i64::try_from(*isum)
                .map(Value::Int)
                .map_err(|_| EngineError::Arithmetic {
                    message: "integer overflow in sum()".into(),
                }),
            AggState::Sum { fsum, .. } => Value::float(fsum.round()),
            AggState::Avg { n, fsum } => Value::float(fsum.round() / *n as f64),
            AggState::Extremum { best, .. } => Ok(best.clone().unwrap_or(Value::Null)),
        }
    }
}

fn type_err(func: AggFunc, v: &Value) -> EngineError {
    EngineError::TypeMismatch {
        message: format!("{}() applied to {}", func.name(), v.data_type()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `values` into a fresh `func` state and finish it.
    fn fold_all(func: AggFunc, values: &[Value]) -> Result<Value> {
        let mut st = AggState::new(func);
        for v in values {
            st.fold(v)?;
        }
        st.finish()
    }

    #[test]
    fn sum_count_avg_skip_nulls() {
        let vs = [Value::Int(20), Value::Null, Value::Int(40)];
        assert_eq!(fold_all(AggFunc::Sum, &vs).unwrap(), Value::Int(60));
        assert_eq!(fold_all(AggFunc::Count, &vs).unwrap(), Value::Int(2));
        assert_eq!(fold_all(AggFunc::Avg, &vs).unwrap(), Value::Float(30.0));
        // count(*) counts the NULL row too.
        let mut star = AggState::new(AggFunc::Count);
        vs.iter().for_each(|_| star.fold_present());
        assert_eq!(star.finish().unwrap(), Value::Int(3));
        let fs = [Value::Float(0.25), Value::Float(0.5)];
        assert_eq!(fold_all(AggFunc::Sum, &fs).unwrap(), Value::Float(0.75));
    }

    #[test]
    fn empty_group_states() {
        // A global aggregate over an empty input: count 0, the rest NULL.
        assert_eq!(fold_all(AggFunc::Count, &[]).unwrap(), Value::Int(0));
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            assert_eq!(fold_all(func, &[]).unwrap(), Value::Null, "{func:?}");
        }
    }

    #[test]
    fn min_max_over_mixed_types_is_type_error() {
        // Bool sorts below Int in Value's variant order; without the type
        // check min() would silently return the Bool.
        for func in [AggFunc::Min, AggFunc::Max] {
            let out = fold_all(func, &[Value::Bool(true), 5.into(), Value::Null]);
            assert!(
                matches!(out, Err(EngineError::TypeMismatch { .. })),
                "{func:?}: {out:?}"
            );
        }
        // Text/numeric mixes are equally rejected.
        let out = fold_all(AggFunc::Min, &["a".into(), 5.into()]);
        assert!(
            matches!(out, Err(EngineError::TypeMismatch { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn min_max_over_mixed_numerics_allowed() {
        let vs = [Value::Float(1.5), 1.into(), 2.into()];
        assert_eq!(fold_all(AggFunc::Min, &vs).unwrap(), Value::Int(1));
        assert_eq!(fold_all(AggFunc::Max, &vs).unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_over_text_is_type_error() {
        assert!(fold_all(AggFunc::Sum, &["Bryant".into()]).is_err());
        assert!(fold_all(AggFunc::Avg, &["Bryant".into()]).is_err());
    }

    #[test]
    fn sum_overflow_detected_on_total() {
        let out = fold_all(AggFunc::Sum, &[i64::MAX.into(), i64::MAX.into()]);
        assert!(
            matches!(out, Err(EngineError::Arithmetic { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn merge_equals_fold_at_any_split() {
        // Mixed int/float sums, NULLs and an extremum tie: folding the
        // rows in one state equals folding any split and merging.
        let vs: Vec<Value> = (0..60)
            .map(|i| match i % 3 {
                0 => Value::Float(i as f64 / 3.0),
                1 => Value::Int(i as i64 % 7),
                _ => Value::Null,
            })
            .collect();
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let whole = fold_all(func, &vs).unwrap();
            for split in [1usize, 7, 59] {
                let mut merged = AggState::new(func);
                for chunk in vs.chunks(split) {
                    let mut part = AggState::new(func);
                    for v in chunk {
                        part.fold(v).unwrap();
                    }
                    merged.merge(part).unwrap();
                }
                assert_eq!(merged.finish().unwrap(), whole, "{func:?}, split {split}");
            }
        }
    }

    #[test]
    fn exact_sum_is_split_invariant() {
        // A sum whose naive left-to-right and pairwise foldings disagree:
        // ExactSum must round identically for any split.
        let xs: Vec<f64> = (0..200)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + i as f64) * 1e15 + 0.123_456_789 * i as f64
            })
            .collect();
        let mut whole = ExactSum::new();
        for &x in &xs {
            whole.add(x);
        }
        for split in [1usize, 3, 7, 64] {
            let mut merged = ExactSum::new();
            for chunk in xs.chunks(split) {
                let mut part = ExactSum::new();
                for &x in chunk {
                    part.add(x);
                }
                merged.merge(&part);
            }
            assert_eq!(
                whole.round().to_bits(),
                merged.round().to_bits(),
                "split {split}"
            );
        }
        // And it is actually the exact result (known closed form for a
        // simple case).
        let mut s = ExactSum::new();
        for _ in 0..10 {
            s.add(0.1);
        }
        assert_eq!(s.round(), 1.0);
    }
}
