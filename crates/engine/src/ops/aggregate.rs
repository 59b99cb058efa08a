//! Grouped aggregation: `GROUP BY` with SUM / COUNT / AVG / MIN / MAX.
//!
//! This operator implements only *certain* SQL aggregation. The
//! uncertainty-aware aggregates of MayBMS (`conf`, `aconf`, `esum`,
//! `ecount`, `argmax`) live in `maybms-core`, which composes them from the
//! same grouping machinery ([`group_indices`]) and accumulator states
//! ([`AggState`]).
//!
//! # Mergeable accumulators
//!
//! Aggregation is a **fold**: every function here is expressed as an
//! [`AggState`] that absorbs one row at a time ([`AggState::fold`]) and
//! merges with a sibling state ([`AggState::merge`]). [`aggregate`] makes a
//! single pass over its input — evaluate the group key, look the group up,
//! fold — instead of the older two-pass collect-indices-then-rescan shape,
//! and the morsel-driven executor (`maybms-pipe`) folds the *same* states
//! morsel-locally and merges them in morsel order.
//!
//! Merging is only sound under the determinism contract if a state's
//! final value does not depend on how the input was split. Counts and
//! integer sums are associative; min/max keep the first-seen extremum; and
//! float sums use [`ExactSum`] — an exact (error-free) accumulation whose
//! rounded result is the same for *any* fold/merge tree, so a parallel
//! morsel split is bit-identical to the sequential scan.

use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::hash::{fast_hash_one, FastMap};
use crate::schema::{Field, Schema};
use crate::tuple::{Relation, Tuple};
use crate::types::{DataType, Value};

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

/// One aggregate call in a SELECT list.
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Which function.
    pub func: AggFunc,
    /// Argument (`None` = `count(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggCall {
    /// Construct an aggregate call.
    pub fn new(func: AggFunc, arg: Option<Expr>, name: impl Into<String>) -> AggCall {
        AggCall { func, arg, name: name.into() }
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
            AggFunc::Sum => {
                AggState::Sum { n: 0, all_int: true, isum: 0, fsum: ExactSum::new() }
            }
            AggFunc::Avg => AggState::Avg { n: 0, fsum: ExactSum::new() },
            AggFunc::Min => AggState::Extremum { min: true, best: None },
            AggFunc::Max => AggState::Extremum { min: false, best: None },
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

    /// Fold one argument value (NULLs are skipped).
    pub fn fold(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count { n } => *n += 1,
            AggState::Sum { n, all_int, isum, fsum } => match v {
                Value::Int(i) => {
                    *isum += i128::from(*i);
                    fsum.add(*i as f64);
                    *n += 1;
                }
                Value::Float(f) => {
                    *all_int = false;
                    fsum.add(*f);
                    *n += 1;
                }
                other => return Err(type_err(AggFunc::Sum, other)),
            },
            AggState::Avg { n, fsum } => match v {
                Value::Int(i) => {
                    fsum.add(*i as f64);
                    *n += 1;
                }
                Value::Float(f) => {
                    fsum.add(*f);
                    *n += 1;
                }
                other => return Err(type_err(AggFunc::Avg, other)),
            },
            AggState::Extremum { min, best } => match best {
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
            },
        }
        Ok(())
    }

    /// Merge a later state into this one (this state's rows precede
    /// `other`'s). Bit-identical to having folded `other`'s rows directly.
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count { n }, AggState::Count { n: m }) => *n += m,
            (
                AggState::Sum { n, all_int, isum, fsum },
                AggState::Sum { n: m, all_int: ai, isum: is, fsum: fs },
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
            (
                this @ AggState::Extremum { .. },
                AggState::Extremum { best: Some(v), .. },
            ) => {
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
            AggState::Sum { all_int: true, isum, .. } => {
                i64::try_from(*isum).map(Value::Int).map_err(|_| {
                    EngineError::Arithmetic { message: "integer overflow in sum()".into() }
                })
            }
            AggState::Sum { fsum, .. } => Value::float(fsum.round()),
            AggState::Avg { n, fsum } => Value::float(fsum.round() / *n as f64),
            AggState::Extremum { best, .. } => {
                Ok(best.clone().unwrap_or(Value::Null))
            }
        }
    }
}

fn type_err(func: AggFunc, v: &Value) -> EngineError {
    EngineError::TypeMismatch {
        message: format!("{}() applied to {}", func.name(), v.data_type()),
    }
}

// ---------------------------------------------------------------------
// Binding / schema / fold helpers shared by `aggregate` and `aggregate_with`
// ---------------------------------------------------------------------

/// Bind the aggregate calls' argument expressions against `schema`,
/// validating that every function except `count` has an argument.
fn bind_agg_calls(
    schema: &Schema,
    aggs: &[AggCall],
) -> Result<Vec<(AggFunc, Option<Expr>)>> {
    aggs.iter()
        .map(|a| {
            if a.arg.is_none() && a.func != AggFunc::Count {
                return Err(EngineError::InvalidOperator {
                    message: format!("{}() requires an argument", a.func.name()),
                });
            }
            Ok((a.func, a.arg.as_ref().map(|e| e.bind(schema)).transpose()?))
        })
        .collect()
}

/// The output schema of a grouped aggregation: the group keys (named by
/// `group_names`) followed by one column per aggregate call.
fn aggregate_schema(
    in_schema: &Schema,
    group_exprs: &[Expr],
    group_names: &[String],
    aggs: &[AggCall],
) -> Result<Arc<Schema>> {
    if group_exprs.len() != group_names.len() {
        return Err(EngineError::InvalidOperator {
            message: "group expression/name arity mismatch".into(),
        });
    }
    let mut fields: Vec<Field> = group_exprs
        .iter()
        .zip(group_names)
        .map(|(e, n)| Field::new(n.clone(), e.data_type(in_schema)))
        .collect();
    for call in aggs {
        let dtype = match call.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => call
                .arg
                .as_ref()
                .map(|e| e.data_type(in_schema))
                .unwrap_or(DataType::Unknown),
        };
        fields.push(Field::new(call.name.clone(), dtype));
    }
    Ok(Arc::new(Schema::new(fields)))
}

/// Fresh states, one per bound aggregate call.
fn new_agg_states(bound: &[(AggFunc, Option<Expr>)]) -> Vec<AggState> {
    bound.iter().map(|(f, _)| AggState::new(*f)).collect()
}

/// Fold one row into a group's states (`states` parallel to `bound`).
fn fold_agg_row(
    states: &mut [AggState],
    bound: &[(AggFunc, Option<Expr>)],
    row: &[Value],
) -> Result<()> {
    for (st, (_, arg)) in states.iter_mut().zip(bound) {
        match arg {
            None => st.fold_present(),
            Some(e) => st.fold(&e.eval_values(row)?)?,
        }
    }
    Ok(())
}

/// Merge a later group's states into an earlier one, slot by slot.
fn merge_agg_states(into: &mut [AggState], from: Vec<AggState>) -> Result<()> {
    for (a, b) in into.iter_mut().zip(from) {
        a.merge(b)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Grouping by index lists (used by repair-key and maybms-core)
// ---------------------------------------------------------------------

/// Partition the input by the values of `group_exprs`.
///
/// Returns `(group key values, tuple indices)` per group, in first-seen
/// order. An empty `group_exprs` yields a single global group (even over an
/// empty input, matching SQL's scalar-aggregate behaviour). Large inputs
/// evaluate the group keys chunk-parallel on the process-wide pool; the
/// result (key order and member order) is identical to the sequential
/// scan.
pub fn group_indices(
    input: &Relation,
    group_exprs: &[Expr],
) -> Result<Vec<(Vec<Value>, Vec<usize>)>> {
    if !group_exprs.is_empty() && input.len() >= super::PAR_MIN_ROWS {
        let pool = maybms_par::pool();
        if pool.threads() > 1 {
            return group_indices_with(input, group_exprs, &pool, super::PAR_MIN_CHUNK);
        }
    }
    let bound: Vec<Expr> =
        group_exprs.iter().map(|e| e.bind(input.schema())).collect::<Result<_>>()?;
    if bound.is_empty() {
        return Ok(vec![(Vec::new(), (0..input.len()).collect())]);
    }
    // Hashed grouping over a reusable scratch key: the key values are
    // evaluated into `scratch`, matched against existing groups through a
    // hash bucket (verified by value equality), and only a *new* group
    // clones the key out of the scratch — no per-row key allocation.
    let mut buckets: FastMap<u64, Vec<usize>> = Default::default();
    let mut out: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    let mut scratch: Vec<Value> = Vec::with_capacity(bound.len());
    for (i, t) in input.tuples().iter().enumerate() {
        scratch.clear();
        for e in &bound {
            scratch.push(e.eval(t)?);
        }
        let h = fast_hash_one(&scratch[..]);
        let bucket = buckets.entry(h).or_default();
        match bucket.iter().find(|&&g| out[g].0 == scratch) {
            Some(&g) => out[g].1.push(i),
            None => {
                bucket.push(out.len());
                out.push((scratch.clone(), vec![i]));
            }
        }
    }
    Ok(out)
}

/// [`group_indices`] on an explicit pool: each chunk of rows groups
/// locally (keeping the key hash alongside each local group), then the
/// chunk results merge sequentially in chunk order.
///
/// Determinism: global first-seen key order equals the sequential scan
/// (the earliest chunk containing a key merges first), and each group's
/// member list stays in ascending row order (chunks are disjoint,
/// ascending ranges merged in order).
pub fn group_indices_with(
    input: &Relation,
    group_exprs: &[Expr],
    pool: &maybms_par::ThreadPool,
    min_chunk: usize,
) -> Result<Vec<(Vec<Value>, Vec<usize>)>> {
    let bound: Vec<Expr> =
        group_exprs.iter().map(|e| e.bind(input.schema())).collect::<Result<_>>()?;
    if bound.is_empty() {
        return Ok(vec![(Vec::new(), (0..input.len()).collect())]);
    }
    type LocalGroups = Vec<(u64, Vec<Value>, Vec<usize>)>;
    let chunk = maybms_par::auto_chunk(input.len(), pool.threads(), min_chunk);
    let partials: Vec<Result<LocalGroups>> =
        pool.par_map_chunks(input.len(), chunk, |range| {
            let mut buckets: FastMap<u64, Vec<usize>> = Default::default();
            let mut local: LocalGroups = Vec::new();
            let mut scratch: Vec<Value> = Vec::with_capacity(bound.len());
            for i in range {
                let t = &input.tuples()[i];
                scratch.clear();
                for e in &bound {
                    scratch.push(e.eval(t)?);
                }
                let h = fast_hash_one(&scratch[..]);
                let bucket = buckets.entry(h).or_default();
                match bucket.iter().find(|&&g| local[g].1 == scratch) {
                    Some(&g) => local[g].2.push(i),
                    None => {
                        bucket.push(local.len());
                        local.push((h, scratch.clone(), vec![i]));
                    }
                }
            }
            Ok(local)
        });
    let mut buckets: FastMap<u64, Vec<usize>> = Default::default();
    let mut out: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for partial in partials {
        for (h, key, members) in partial? {
            let bucket = buckets.entry(h).or_default();
            match bucket.iter().find(|&&g| out[g].0 == key) {
                Some(&g) => out[g].1.extend(members),
                None => {
                    bucket.push(out.len());
                    out.push((key, members));
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The aggregate operator: one fold pass
// ---------------------------------------------------------------------

/// A hashed group → accumulator table, folded in one pass.
struct StateTable {
    buckets: FastMap<u64, Vec<usize>>,
    keys: Vec<Vec<Value>>,
    states: Vec<Vec<AggState>>,
}

impl StateTable {
    fn new() -> StateTable {
        StateTable { buckets: Default::default(), keys: Vec::new(), states: Vec::new() }
    }

    /// Get-or-insert the state list for `key` (cloned only when new).
    fn entry(
        &mut self,
        key: &[Value],
        bound: &[(AggFunc, Option<Expr>)],
    ) -> &mut Vec<AggState> {
        let h = fast_hash_one(key);
        let bucket = self.buckets.entry(h).or_default();
        match bucket.iter().find(|&&g| self.keys[g] == key) {
            Some(&g) => &mut self.states[g],
            None => {
                bucket.push(self.keys.len());
                self.keys.push(key.to_vec());
                self.states.push(new_agg_states(bound));
                self.states.last_mut().expect("just pushed")
            }
        }
    }
}

/// Grouped aggregation. Output columns are the group keys (named after
/// `group_names`) followed by one column per aggregate call.
///
/// A single pass folds every row into its group's [`AggState`]s; large
/// inputs fold chunk-locally on the process-wide pool and merge the chunk
/// tables in chunk order (first-seen key order and all aggregate values
/// identical to the sequential fold).
pub fn aggregate(
    input: &Relation,
    group_exprs: &[Expr],
    group_names: &[String],
    aggs: &[AggCall],
) -> Result<Relation> {
    if input.len() >= super::PAR_MIN_ROWS {
        let pool = maybms_par::pool();
        if pool.threads() > 1 {
            return aggregate_with(
                input,
                group_exprs,
                group_names,
                aggs,
                &pool,
                super::PAR_MIN_CHUNK,
            );
        }
    }
    let schema = aggregate_schema(input.schema(), group_exprs, group_names, aggs)?;
    let bound_aggs = bind_agg_calls(input.schema(), aggs)?;
    let bound_keys: Vec<Expr> =
        group_exprs.iter().map(|e| e.bind(input.schema())).collect::<Result<_>>()?;

    let mut table = StateTable::new();
    let mut scratch: Vec<Value> = Vec::with_capacity(bound_keys.len());
    for t in input.tuples() {
        scratch.clear();
        for e in &bound_keys {
            scratch.push(e.eval(t)?);
        }
        let states = table.entry(&scratch, &bound_aggs);
        fold_agg_row(states, &bound_aggs, t.values())?;
    }
    finish_table(table, bound_keys.is_empty(), &bound_aggs, schema)
}

/// [`aggregate`] on an explicit pool and chunk size: each chunk folds a
/// private group table, tables merge in chunk order ([`AggState::merge`]),
/// output identical to the sequential fold at any thread count.
pub fn aggregate_with(
    input: &Relation,
    group_exprs: &[Expr],
    group_names: &[String],
    aggs: &[AggCall],
    pool: &maybms_par::ThreadPool,
    min_chunk: usize,
) -> Result<Relation> {
    let schema = aggregate_schema(input.schema(), group_exprs, group_names, aggs)?;
    let bound_aggs = bind_agg_calls(input.schema(), aggs)?;
    let bound_keys: Vec<Expr> =
        group_exprs.iter().map(|e| e.bind(input.schema())).collect::<Result<_>>()?;

    let chunk = maybms_par::auto_chunk(input.len(), pool.threads(), min_chunk);
    let partials: Vec<Result<StateTable>> =
        pool.par_map_chunks(input.len(), chunk, |range| {
            let mut table = StateTable::new();
            let mut scratch: Vec<Value> = Vec::with_capacity(bound_keys.len());
            for i in range {
                let t = &input.tuples()[i];
                scratch.clear();
                for e in &bound_keys {
                    scratch.push(e.eval(t)?);
                }
                let states = table.entry(&scratch, &bound_aggs);
                fold_agg_row(states, &bound_aggs, t.values())?;
            }
            Ok(table)
        });
    let mut merged = StateTable::new();
    for partial in partials {
        let partial = partial?;
        for (key, states) in partial.keys.into_iter().zip(partial.states) {
            let h = fast_hash_one(&key[..]);
            let bucket = merged.buckets.entry(h).or_default();
            match bucket.iter().find(|&&g| merged.keys[g] == key) {
                Some(&g) => merge_agg_states(&mut merged.states[g], states)?,
                None => {
                    bucket.push(merged.keys.len());
                    merged.keys.push(key);
                    merged.states.push(states);
                }
            }
        }
    }
    finish_table(merged, bound_keys.is_empty(), &bound_aggs, schema)
}

/// Turn a folded table into the output relation. A global (no GROUP BY)
/// aggregate over an empty input still yields one row of empty-group
/// states, matching SQL's scalar-aggregate behaviour.
fn finish_table(
    mut table: StateTable,
    global: bool,
    bound_aggs: &[(AggFunc, Option<Expr>)],
    schema: Arc<Schema>,
) -> Result<Relation> {
    if global && table.keys.is_empty() {
        table.keys.push(Vec::new());
        table.states.push(new_agg_states(bound_aggs));
    }
    let mut out = Vec::with_capacity(table.keys.len());
    for (key, states) in table.keys.into_iter().zip(table.states) {
        let mut row = key;
        for st in &states {
            row.push(st.finish()?);
        }
        out.push(Tuple::new(row));
    }
    Ok(Relation::new_unchecked(schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::rel;

    fn games() -> Relation {
        rel(
            &[("player", DataType::Text), ("pts", DataType::Int)],
            vec![
                vec!["Bryant".into(), 30.into()],
                vec!["Bryant".into(), 40.into()],
                vec!["Duncan".into(), 20.into()],
                vec!["Duncan".into(), Value::Null],
            ],
        )
    }

    #[test]
    fn grouped_sum_count_avg() {
        let out = aggregate(
            &games(),
            &[Expr::col("player")],
            &["player".into()],
            &[
                AggCall::new(AggFunc::Sum, Some(Expr::col("pts")), "total"),
                AggCall::new(AggFunc::Count, None, "games"),
                AggCall::new(AggFunc::Count, Some(Expr::col("pts")), "scored"),
                AggCall::new(AggFunc::Avg, Some(Expr::col("pts")), "mean"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let bryant = &out.tuples()[0];
        assert_eq!(bryant.value(0), &Value::str("Bryant"));
        assert_eq!(bryant.value(1), &Value::Int(70));
        assert_eq!(bryant.value(2), &Value::Int(2));
        assert_eq!(bryant.value(3), &Value::Int(2));
        assert_eq!(bryant.value(4), &Value::Float(35.0));
        let duncan = &out.tuples()[1];
        assert_eq!(duncan.value(1), &Value::Int(20)); // NULL skipped
        assert_eq!(duncan.value(2), &Value::Int(2)); // count(*) counts NULL row
        assert_eq!(duncan.value(3), &Value::Int(1)); // count(pts) skips NULL
    }

    #[test]
    fn min_max() {
        let out = aggregate(
            &games(),
            &[],
            &[],
            &[
                AggCall::new(AggFunc::Min, Some(Expr::col("pts")), "lo"),
                AggCall::new(AggFunc::Max, Some(Expr::col("pts")), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.tuples()[0].value(0), &Value::Int(20));
        assert_eq!(out.tuples()[0].value(1), &Value::Int(40));
    }

    #[test]
    fn min_max_over_mixed_types_is_type_error() {
        // Bool sorts below Int in Value's variant order; without the type
        // check min() would silently return the Bool.
        let r = rel(
            &[("x", DataType::Unknown)],
            vec![vec![Value::Bool(true)], vec![5.into()], vec![Value::Null]],
        );
        for func in [AggFunc::Min, AggFunc::Max] {
            let out = aggregate(
                &r,
                &[],
                &[],
                &[AggCall::new(func, Some(Expr::col("x")), "m")],
            );
            assert!(
                matches!(out, Err(EngineError::TypeMismatch { .. })),
                "{func:?}: {out:?}"
            );
        }
        // Text/numeric mixes are equally rejected.
        let r = rel(
            &[("x", DataType::Unknown)],
            vec![vec!["a".into()], vec![5.into()]],
        );
        let out = aggregate(
            &r,
            &[],
            &[],
            &[AggCall::new(AggFunc::Min, Some(Expr::col("x")), "m")],
        );
        assert!(matches!(out, Err(EngineError::TypeMismatch { .. })), "{out:?}");
    }

    #[test]
    fn min_max_over_mixed_numerics_allowed() {
        let r = rel(
            &[("x", DataType::Unknown)],
            vec![vec![Value::Float(1.5)], vec![1.into()], vec![2.into()]],
        );
        let out = aggregate(
            &r,
            &[],
            &[],
            &[
                AggCall::new(AggFunc::Min, Some(Expr::col("x")), "lo"),
                AggCall::new(AggFunc::Max, Some(Expr::col("x")), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(out.tuples()[0].value(0), &Value::Int(1));
        assert_eq!(out.tuples()[0].value(1), &Value::Int(2));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let empty = rel(&[("x", DataType::Int)], vec![]);
        let out = aggregate(
            &empty,
            &[],
            &[],
            &[
                AggCall::new(AggFunc::Count, None, "n"),
                AggCall::new(AggFunc::Sum, Some(Expr::col("x")), "s"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].value(0), &Value::Int(0));
        assert_eq!(out.tuples()[0].value(1), &Value::Null);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_yields_no_rows() {
        let empty = rel(&[("x", DataType::Int)], vec![]);
        let out = aggregate(
            &empty,
            &[Expr::col("x")],
            &["x".into()],
            &[AggCall::new(AggFunc::Count, None, "n")],
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sum_of_floats() {
        let r = rel(
            &[("p", DataType::Float)],
            vec![vec![Value::Float(0.25)], vec![Value::Float(0.5)]],
        );
        let out = aggregate(
            &r,
            &[],
            &[],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("p")), "s")],
        )
        .unwrap();
        assert_eq!(out.tuples()[0].value(0), &Value::Float(0.75));
    }

    #[test]
    fn sum_without_argument_is_invalid() {
        let out = aggregate(
            &games(),
            &[],
            &[],
            &[AggCall::new(AggFunc::Sum, None, "s")],
        );
        assert!(out.is_err());
    }

    #[test]
    fn sum_over_text_is_type_error() {
        let out = aggregate(
            &games(),
            &[],
            &[],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("player")), "s")],
        );
        assert!(out.is_err());
    }

    #[test]
    fn sum_overflow_detected_on_total() {
        let r = rel(
            &[("x", DataType::Int)],
            vec![vec![i64::MAX.into()], vec![i64::MAX.into()]],
        );
        let out = aggregate(
            &r,
            &[],
            &[],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("x")), "s")],
        );
        assert!(matches!(out, Err(EngineError::Arithmetic { .. })), "{out:?}");
    }

    #[test]
    fn group_by_expression() {
        let out = aggregate(
            &games(),
            &[Expr::col("pts").binary(crate::expr::BinaryOp::Mod, Expr::lit(20i64))],
            &["bucket".into()],
            &[AggCall::new(AggFunc::Count, None, "n")],
        );
        // NULL % 20 is NULL; NULL is a valid group key.
        let out = out.unwrap();
        assert_eq!(out.len(), 3); // 10 (30), 0 (40, 20), NULL
    }

    #[test]
    fn group_indices_first_seen_order() {
        let gs = group_indices(&games(), &[Expr::col("player")]).unwrap();
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].0[0], Value::str("Bryant"));
        assert_eq!(gs[0].1, vec![0, 1]);
        assert_eq!(gs[1].1, vec![2, 3]);
    }

    #[test]
    fn parallel_group_indices_identical_to_sequential() {
        // Interleaved keys (incl. NULL) across chunk boundaries.
        let r = rel(
            &[("k", DataType::Unknown)],
            (0..100)
                .map(|i| {
                    vec![match i % 7 {
                        0 => Value::Null,
                        j => Value::Int(j as i64 % 3),
                    }]
                })
                .collect(),
        );
        let exprs = [Expr::col("k")];
        let seq = group_indices(&r, &exprs).unwrap();
        for threads in [1, 2, 8] {
            let pool = maybms_par::ThreadPool::new(threads);
            let par = group_indices_with(&r, &exprs, &pool, 9).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_aggregate_identical_to_sequential() {
        // Mixed int/float sums across chunk boundaries, NULL keys, an
        // extremum tie — a one-row chunk size exercises every merge.
        let r = rel(
            &[("k", DataType::Unknown), ("v", DataType::Unknown)],
            (0..60)
                .map(|i| {
                    vec![
                        match i % 5 {
                            0 => Value::Null,
                            j => Value::Int(j as i64 % 2),
                        },
                        match i % 3 {
                            0 => Value::Float(i as f64 / 3.0),
                            1 => Value::Int(i as i64),
                            _ => Value::Null,
                        },
                    ]
                })
                .collect(),
        );
        let group = [Expr::col("k")];
        let names = ["k".to_string()];
        let aggs = [
            AggCall::new(AggFunc::Count, None, "n"),
            AggCall::new(AggFunc::Sum, Some(Expr::col("v")), "s"),
            AggCall::new(AggFunc::Avg, Some(Expr::col("v")), "m"),
            AggCall::new(AggFunc::Min, Some(Expr::col("v")), "lo"),
            AggCall::new(AggFunc::Max, Some(Expr::col("v")), "hi"),
        ];
        let seq = aggregate(&r, &group, &names, &aggs).unwrap();
        for threads in [1, 2, 8] {
            let pool = maybms_par::ThreadPool::new(threads);
            for min_chunk in [1, 7] {
                let par =
                    aggregate_with(&r, &group, &names, &aggs, &pool, min_chunk).unwrap();
                assert_eq!(
                    seq.tuples(),
                    par.tuples(),
                    "threads {threads}, min_chunk {min_chunk}"
                );
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
            assert_eq!(whole.round().to_bits(), merged.round().to_bits(), "split {split}");
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
