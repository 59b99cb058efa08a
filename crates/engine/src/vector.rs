//! Vectorised expression kernels over [`ColumnBatch`] morsels.
//!
//! [`eval_batch`] evaluates a (bound) [`Expr`] over a whole column-major
//! morsel at once: comparisons, arithmetic, `||`, Kleene `AND`/`OR`,
//! `NOT`/negation, `IS NULL`, and `CAST` run as tight typed loops over
//! primitive slices. [`selection`] evaluates a predicate into a
//! selection vector (SQL `WHERE`: NULL drops the row).
//!
//! # The bit-identity contract, and how errors keep it
//!
//! Vectorised evaluation must be **indistinguishable from the scalar
//! evaluator** ([`Expr::eval_values`]) — same values (variant and float
//! bits included), same NULL propagation, and the *same runtime error at
//! the same row*, even though scalar evaluation is row-major (all of row
//! 0, then row 1) while kernels are expression-major (all rows of the
//! left operand, then the right). Two mechanisms make that hold:
//!
//! * **Kernels never report errors — they [`Interrupt`].** The moment a
//!   kernel hits anything the scalar evaluator might handle differently
//!   (division by zero, integer overflow, a type mismatch, a NaN) it
//!   abandons the whole vectorised attempt, and [`eval_batch`] re-runs
//!   the *entire expression* scalar, row by row, against rows pivoted
//!   back out of the batch. The redo is the scalar evaluator itself, so
//!   its result — including which row errors first, or no error at all
//!   when `AND`/`OR` short-circuiting skips the offending operand — is
//!   bit-identical by construction. Errors abort the query, so the redo
//!   cost is off the hot path.
//! * **Partial results carry the error row.** On a redo that errors at
//!   row `k`, [`eval_batch`] returns the `k` good values plus
//!   `(k, error)`, letting the caller keep earlier rows flowing (the
//!   fused executor truncates to rows before the error and continues,
//!   reproducing the scalar row-major error order across stages).
//!
//! # Planner eligibility
//!
//! [`vectorisable`] is the gate, decided per expression (and read by
//! `EXPLAIN`): structural only (no schema needed — [`eval_batch`] runs
//! an expression it rejects row by row, with no kernel attempt), it
//! rejects `CASE`/`IN` (scalar semantics by design) and any
//! `AND`/`OR` whose right side is not [`shortcircuit_safe`] — an
//! eagerly-evaluated `1/0` guard would Interrupt every morsel, paying
//! the vector attempt *and* the scalar redo. Type-dependent hazards
//! (mixed-variant columns, comparisons of incomparable types) are
//! handled at run time by the Interrupt fallback instead, so eligibility
//! never depends on the data.

use std::borrow::Cow;
use std::cmp::Ordering::{Equal, Greater, Less};
use std::sync::Arc;

use crate::column::{Column, ColumnBatch, ColumnBuilder, ColumnData, NullMask};
use crate::error::EngineError;
use crate::expr::{cast_value, eval_binary, BinaryOp, Expr, UnaryOp};
use crate::types::Value;

/// The kernel bail-out: "this vectorised attempt may diverge from the
/// scalar evaluator — redo scalar". Carries nothing; the redo recomputes
/// the authoritative outcome.
#[derive(Debug, Clone, Copy)]
pub struct Interrupt;

type KRes = Result<Column, Interrupt>;

/// Is this expression eligible for the vectorised kernels? Structural
/// and schema-free, so the planner can decide per stage at plan time
/// (before binding, even — unresolved column references count as
/// eligible since binding only turns them into `ColumnIdx`).
pub fn vectorisable(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::ColumnIdx(_) => true,
        Expr::Binary {
            op: BinaryOp::And | BinaryOp::Or,
            left,
            right,
        } => vectorisable(left) && vectorisable(right) && shortcircuit_safe(right),
        Expr::Binary { left, right, .. } => vectorisable(left) && vectorisable(right),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            vectorisable(expr)
        }
        Expr::InList { .. } | Expr::Case { .. } => false,
    }
}

/// May this expression be evaluated *eagerly* in a position the scalar
/// evaluator can skip (the right side of `AND`/`OR`)? True when every
/// error it can raise is a *type* error — those depend only on the
/// column's contents, and the Interrupt fallback restores exact scalar
/// semantics if one fires. Value-dependent errors (division by zero,
/// overflow, cast failures) are excluded: `x <> 0 AND y / x > 1` relies
/// on short-circuiting row by row, which eager evaluation would pay a
/// redo for on every morsel.
pub fn shortcircuit_safe(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::ColumnIdx(_) => true,
        Expr::IsNull { expr, .. } => shortcircuit_safe(expr),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => shortcircuit_safe(expr),
        Expr::Binary { op, left, right } => {
            let safe_op =
                op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or | BinaryOp::Concat);
            safe_op && shortcircuit_safe(left) && shortcircuit_safe(right)
        }
        _ => false,
    }
}

/// Batches the kernels evaluated and how many of them fell back to the
/// scalar redo — counted by the caller's morsel, so a pipeline reports
/// its own kernel work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounts {
    /// Kernel evaluations by [`eval_batch`] (one per kernel-eligible
    /// expression per batch).
    pub batches: u64,
    /// Of those, the batches redone row by row after an [`Interrupt`].
    pub scalar_fallbacks: u64,
}

/// Evaluate `e` over every row of `batch`, counting the batch (and a
/// scalar fallback) into `counts`; an expression [`vectorisable`] rejects
/// runs row by row at once and counts neither. Returns the result column — a bare
/// column reference borrows the batch's — and, if evaluation errors, the
/// first erroring row (scalar order) with its error; the column then
/// holds the values of the rows before it.
pub fn eval_batch<'a>(
    e: &Expr,
    batch: &'a ColumnBatch,
    counts: &mut KernelCounts,
) -> (Cow<'a, Column>, Option<(usize, EngineError)>) {
    // An expression the kernels do not take runs row by row, uncounted.
    let eligible = vectorisable(e);
    counts.batches += u64::from(eligible);
    match eligible.then(|| eval_vec(e, batch)) {
        Some(Ok(col)) => (col, None),
        attempt => {
            counts.scalar_fallbacks += u64::from(attempt.is_some());
            // Scalar redo: pivot each row back out and run the scalar
            // evaluator — the authoritative semantics, short-circuiting
            // and error order included.
            let mut row: Vec<Value> = Vec::with_capacity(batch.arity());
            let mut b = ColumnBuilder::new();
            for i in 0..batch.rows() {
                batch.write_row(i, &mut row);
                match e.eval_values(&row) {
                    Ok(v) => b.push(&v),
                    Err(err) => return (Cow::Owned(b.finish()), Some((i, err))),
                }
            }
            (Cow::Owned(b.finish()), None)
        }
    }
}

/// The first error of a walk over a batch's rows and, within a row, its
/// items (sort keys, a grouped fold's slots, DML's columns), found item
/// by item in the walk's order: rows at or after `limit` are not looked
/// at any more, and an error replaces the one found only at a strictly
/// earlier row — so at one row, the first recorded (the leftmost item's)
/// wins.
#[derive(Debug)]
pub struct FirstError<E> {
    /// The rows still looked at: those before the first error's.
    pub limit: usize,
    /// The first error so far.
    pub error: Option<E>,
}

impl<E: From<EngineError>> FirstError<E> {
    /// No error yet, over `rows` rows.
    pub fn new(rows: usize) -> FirstError<E> {
        FirstError {
            limit: rows,
            error: None,
        }
    }

    /// The rows below `stop` an item's values exist for, given its
    /// [`eval_batch`] error.
    pub fn upto(&self, err: &Option<(usize, EngineError)>, stop: usize) -> usize {
        err.as_ref().map_or(stop, |(k, _)| (*k).min(stop))
    }

    /// Record `error` at `row`, unless one at an earlier or the same row
    /// stands.
    pub fn at(&mut self, row: usize, error: impl FnOnce() -> E) {
        if row < self.limit {
            self.limit = row;
            self.error = Some(error());
        }
    }

    /// An item's evaluation error, from [`eval_batch`].
    pub fn at_eval(&mut self, err: Option<(usize, EngineError)>) {
        if let Some((row, e)) = err {
            self.at(row, || e.into());
        }
    }

    /// The error found, if any.
    pub fn result(self) -> std::result::Result<(), E> {
        self.error.map_or(Ok(()), Err)
    }
}

/// Evaluate a predicate over `batch` into a selection vector of the
/// passing rows (SQL `WHERE`: NULL and `false` drop the row, any other
/// non-boolean result is the scalar evaluator's type error). On error,
/// the selection holds the passing rows *before* the erroring row.
pub fn selection(
    pred: &Expr,
    batch: &ColumnBatch,
    counts: &mut KernelCounts,
) -> (Vec<u32>, Option<(usize, EngineError)>) {
    let (col, mut err) = eval_batch(pred, batch, counts);
    let n = col.len();
    let mut sel = Vec::new();
    let type_err = |v: &Value| EngineError::TypeMismatch {
        message: format!("predicate evaluated to {}", v.data_type()),
    };
    match col.data() {
        ColumnData::Bool(v) => {
            if col.nulls().any() {
                for (i, &b) in v.iter().enumerate() {
                    if b && !col.nulls().is_null(i) {
                        sel.push(i as u32);
                    }
                }
            } else {
                for (i, &b) in v.iter().enumerate() {
                    if b {
                        sel.push(i as u32);
                    }
                }
            }
        }
        ColumnData::Const(Value::Bool(true)) => sel.extend(0..n as u32),
        ColumnData::Const(Value::Bool(false)) | ColumnData::Const(Value::Null) => {}
        ColumnData::Const(v) => {
            // Every row evaluates to this non-boolean: the scalar path
            // errors at the first row, before any later evaluation error.
            if n > 0 {
                err = Some((0, type_err(v)));
            }
        }
        ColumnData::Values(v) => {
            for (i, val) in v.iter().enumerate() {
                match val {
                    Value::Null => {}
                    Value::Bool(true) => sel.push(i as u32),
                    Value::Bool(false) => {}
                    other => {
                        err = Some((i, type_err(other)));
                        break;
                    }
                }
            }
        }
        // A typed non-boolean column: the first non-NULL row is the
        // scalar type error (NULL rows just drop).
        other => {
            let dtype_value = match other {
                ColumnData::Int(_) => Value::Int(0),
                ColumnData::Float(_) => Value::Float(0.0),
                ColumnData::Str(_) | ColumnData::Dict { .. } => Value::str(""),
                _ => unreachable!("bool/const/values handled above"),
            };
            for i in 0..n {
                if !col.is_null(i) {
                    err = Some((i, type_err(&dtype_value)));
                    break;
                }
            }
        }
    }
    // A type error found above is always at a row the evaluation error
    // (if any) had already validated, i.e. strictly earlier — scalar
    // order puts it first.
    if let Some((k, _)) = err {
        sel.retain(|&i| (i as usize) < k);
    }
    (sel, err)
}

/// The recursive kernel walk. Nodes outside the kernel set (CASE, IN,
/// unbound references) Interrupt — the scalar redo owns their semantics.
fn eval_vec<'a>(e: &Expr, batch: &'a ColumnBatch) -> Result<Cow<'a, Column>, Interrupt> {
    let n = batch.rows();
    Ok(match e {
        Expr::Literal(v) => Cow::Owned(Column::from_const(v.clone(), n)),
        Expr::ColumnIdx(i) => Cow::Borrowed(batch.columns().get(*i).ok_or(Interrupt)?),
        Expr::Binary { left, op, right } => {
            let l = eval_vec(left, batch)?;
            let r = eval_vec(right, batch)?;
            let out = match op {
                BinaryOp::And | BinaryOp::Or => kleene(*op, &l, &r)?,
                BinaryOp::Concat => concat(&l, &r),
                op if op.is_comparison() => cmp(*op, &l, &r)?,
                op => arith(*op, &l, &r)?,
            };
            Cow::Owned(out)
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Cow::Owned(not(&*eval_vec(expr, batch)?)?),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => Cow::Owned(neg(&*eval_vec(expr, batch)?)?),
        Expr::IsNull { expr, negated } => {
            let c = eval_vec(expr, batch)?;
            let col: &Column = &c;
            let mut out = Vec::with_capacity(col.len());
            for i in 0..col.len() {
                out.push(col.is_null(i) != *negated);
            }
            Cow::Owned(Column::from_bools(out, NullMask::none()))
        }
        Expr::Cast { expr, dtype } => {
            let c = eval_vec(expr, batch)?;
            let col: &Column = &c;
            let out = match col.data() {
                ColumnData::Const(v) => Column::from_const(
                    cast_value(v.clone(), *dtype).map_err(|_| Interrupt)?,
                    col.len(),
                ),
                _ => {
                    let mut b = ColumnBuilder::new();
                    for i in 0..col.len() {
                        let v = cast_value(col.value_at(i), *dtype).map_err(|_| Interrupt)?;
                        b.push(&v);
                    }
                    b.finish()
                }
            };
            Cow::Owned(out)
        }
        Expr::Column { .. } | Expr::InList { .. } | Expr::Case { .. } => return Err(Interrupt),
    })
}

// ---------------------------------------------------------------------
// Operand views
// ---------------------------------------------------------------------

/// Numeric operand as f64 (integers widen exactly like
/// [`Value::as_f64`]).
enum NumV<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
    C(f64),
}

impl NumV<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumV::I(v) => v[i] as f64,
            NumV::F(v) => v[i],
            NumV::C(x) => *x,
        }
    }
}

fn num_view(c: &Column) -> Option<NumV<'_>> {
    match c.data() {
        ColumnData::Int(v) => Some(NumV::I(v)),
        ColumnData::Float(v) => Some(NumV::F(v)),
        ColumnData::Const(Value::Int(x)) => Some(NumV::C(*x as f64)),
        ColumnData::Const(Value::Float(x)) => Some(NumV::C(*x)),
        _ => None,
    }
}

/// Integer operand (for the Int × Int fast path).
enum IntV<'a> {
    S(&'a [i64]),
    C(i64),
}

impl IntV<'_> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            IntV::S(v) => v[i],
            IntV::C(x) => *x,
        }
    }
}

fn int_view(c: &Column) -> Option<IntV<'_>> {
    match c.data() {
        ColumnData::Int(v) => Some(IntV::S(v)),
        ColumnData::Const(Value::Int(x)) => Some(IntV::C(*x)),
        _ => None,
    }
}

fn is_const_null(c: &Column) -> bool {
    matches!(c.data(), ColumnData::Const(Value::Null))
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// Checked integer op (Div excluded: division always floats).
#[inline]
fn apply_i(op: BinaryOp, a: i64, b: i64) -> Result<i64, Interrupt> {
    let out = match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Mod => {
            if b == 0 {
                return Err(Interrupt); // scalar: "modulo by zero"
            }
            a.checked_rem(b)
        }
        _ => unreachable!("integer kernel only handles + - * %"),
    };
    out.ok_or(Interrupt) // scalar: "integer overflow in …"
}

/// Float op with the scalar evaluator's guards: division/modulo by zero
/// and NaN results Interrupt; `-0.0` normalises like [`Value::float`].
#[inline]
fn apply_f(op: BinaryOp, a: f64, b: f64) -> Result<f64, Interrupt> {
    let out = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(Interrupt);
            }
            a / b
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(Interrupt);
            }
            a % b
        }
        _ => unreachable!("float kernel only handles arithmetic"),
    };
    if out.is_nan() {
        return Err(Interrupt);
    }
    Ok(if out == 0.0 { 0.0 } else { out })
}

fn arith(op: BinaryOp, l: &Column, r: &Column) -> KRes {
    let n = l.len();
    debug_assert_eq!(n, r.len());
    // NULL ⊕ anything = NULL.
    if is_const_null(l) || is_const_null(r) {
        return Ok(Column::from_const(Value::Null, n));
    }
    // Int × Int stays integer, except division (always floats).
    if op != BinaryOp::Div {
        if let (Some(a), Some(b)) = (int_view(l), int_view(r)) {
            let mut out = Vec::with_capacity(n);
            let mut nulls = NullMask::none();
            if l.has_nulls() || r.has_nulls() {
                for i in 0..n {
                    if l.is_null(i) || r.is_null(i) {
                        nulls.set_null(i);
                        out.push(0);
                    } else {
                        out.push(apply_i(op, a.get(i), b.get(i))?);
                    }
                }
            } else {
                for i in 0..n {
                    out.push(apply_i(op, a.get(i), b.get(i))?);
                }
            }
            return Ok(Column::from_ints(out, nulls));
        }
    }
    if let (Some(a), Some(b)) = (num_view(l), num_view(r)) {
        let mut out = Vec::with_capacity(n);
        let mut nulls = NullMask::none();
        if l.has_nulls() || r.has_nulls() {
            for i in 0..n {
                if l.is_null(i) || r.is_null(i) {
                    nulls.set_null(i);
                    out.push(0.0);
                } else {
                    out.push(apply_f(op, a.get(i), b.get(i))?);
                }
            }
        } else {
            for i in 0..n {
                out.push(apply_f(op, a.get(i), b.get(i))?);
            }
        }
        return Ok(Column::from_floats(out, nulls));
    }
    generic_binary(op, l, r)
}

/// A comparison's verdict column: `ord(i)` orders row `i`'s operands
/// (called only where neither is NULL); a NULL operand gives NULL.
fn cmp_rows(
    op: BinaryOp,
    l: &Column,
    r: &Column,
    ord: impl Fn(usize) -> std::cmp::Ordering,
) -> Column {
    let n = l.len();
    // The verdict per ordering, looked up instead of matched per row.
    let verdicts = [Less, Equal, Greater].map(|o| op.verdict(o));
    let verdict = |i| verdicts[(ord(i) as i8 + 1) as usize];
    let mut out = Vec::with_capacity(n);
    let mut nulls = NullMask::none();
    if l.has_nulls() || r.has_nulls() {
        for i in 0..n {
            if l.is_null(i) || r.is_null(i) {
                nulls.set_null(i);
                out.push(false);
            } else {
                out.push(verdict(i));
            }
        }
    } else {
        out.extend((0..n).map(verdict));
    }
    Column::from_bools(out, nulls)
}

fn cmp(op: BinaryOp, l: &Column, r: &Column) -> KRes {
    let n = l.len();
    debug_assert_eq!(n, r.len());
    if is_const_null(l) || is_const_null(r) {
        return Ok(Column::from_const(Value::Null, n));
    }
    // Exactly `sql_cmp`: Int × Int compares as i64; any other numeric
    // pair (mixed Int/Float included) widens to f64 in total order.
    if let (Some(a), Some(b)) = (int_view(l), int_view(r)) {
        return Ok(match (a, b) {
            (IntV::S(v), IntV::C(c)) => cmp_rows(op, l, r, |i| v[i].cmp(&c)),
            (a, b) => cmp_rows(op, l, r, |i| a.get(i).cmp(&b.get(i))),
        });
    }
    if let (Some(a), Some(b)) = (num_view(l), num_view(r)) {
        // `column op literal`, the common shape, gets its own loop.
        return Ok(match (a, b) {
            (NumV::F(v), NumV::C(c)) => cmp_rows(op, l, r, |i| v[i].total_cmp(&c)),
            (NumV::C(c), NumV::F(v)) => cmp_rows(op, l, r, |i| c.total_cmp(&v[i])),
            (a, b) => cmp_rows(op, l, r, |i| a.get(i).total_cmp(&b.get(i))),
        });
    }
    // Dictionary fast path: equality against a string literal compares
    // u32 codes (within one dictionary, code equality ⇔ string equality).
    // A literal absent from the dictionary can match no row. Verdicts and
    // NULL handling are exactly the string loop's.
    if matches!(op, BinaryOp::Eq | BinaryOp::NotEq) {
        let dict_eq = |codes: &[u32], dict: &crate::column::StrDict, col: &Column, s: &str| {
            let want = dict.code_of(s);
            let mut out = Vec::with_capacity(codes.len());
            let mut nulls = NullMask::none();
            for (i, &code) in codes.iter().enumerate() {
                if col.is_null(i) {
                    nulls.set_null(i);
                    out.push(false);
                } else {
                    let hit = want == Some(code);
                    out.push(if op == BinaryOp::Eq { hit } else { !hit });
                }
            }
            Column::from_bools(out, nulls)
        };
        match (l.data(), r.data()) {
            (ColumnData::Dict { codes, dict }, ColumnData::Const(Value::Str(s)))
            | (ColumnData::Const(Value::Str(s)), ColumnData::Dict { codes, dict }) => {
                let dcol = if matches!(l.data(), ColumnData::Dict { .. }) {
                    l
                } else {
                    r
                };
                return Ok(dict_eq(codes, dict, dcol, s));
            }
            (
                ColumnData::Dict {
                    codes: lc,
                    dict: ld,
                },
                ColumnData::Dict {
                    codes: rc,
                    dict: rd,
                },
            ) if Arc::ptr_eq(ld, rd) => {
                let mut out = Vec::with_capacity(n);
                let mut nulls = NullMask::none();
                for i in 0..n {
                    if l.is_null(i) || r.is_null(i) {
                        nulls.set_null(i);
                        out.push(false);
                    } else {
                        let hit = lc[i] == rc[i];
                        out.push(if op == BinaryOp::Eq { hit } else { !hit });
                    }
                }
                return Ok(Column::from_bools(out, nulls));
            }
            _ => {}
        }
    }
    let str_view = |c: &'_ Column| {
        matches!(
            c.data(),
            ColumnData::Str(_) | ColumnData::Dict { .. } | ColumnData::Const(Value::Str(_))
        )
    };
    let bool_view = |c: &'_ Column| {
        matches!(
            c.data(),
            ColumnData::Bool(_) | ColumnData::Const(Value::Bool(_))
        )
    };
    if (str_view(l) && str_view(r)) || (bool_view(l) && bool_view(r)) {
        // Same-category columns can't type-error: loop over values.
        return Ok(cmp_rows(op, l, r, |i| {
            match (l.value_at(i), r.value_at(i)) {
                (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
                (Value::Bool(a), Value::Bool(b)) => a.cmp(&b),
                _ => unreachable!("category checked above"),
            }
        }));
    }
    generic_binary(op, l, r)
}

fn concat(l: &Column, r: &Column) -> Column {
    let n = l.len();
    let mut out: Vec<Arc<str>> = Vec::with_capacity(n);
    let mut nulls = NullMask::none();
    for i in 0..n {
        if l.is_null(i) || r.is_null(i) {
            nulls.set_null(i);
            out.push(Arc::from(""));
        } else {
            out.push(Arc::from(
                format!("{}{}", l.value_at(i), r.value_at(i)).as_str(),
            ));
        }
    }
    Column::from_strs(out, nulls)
}

/// Row `i` of a boolean operand as a Kleene truth value; non-boolean
/// non-NULL Interrupts (the scalar evaluator's type error — which may
/// not even fire, if short-circuiting skips the row).
#[inline]
fn tv(c: &Column, i: usize) -> Result<Option<bool>, Interrupt> {
    if c.is_null(i) {
        return Ok(None);
    }
    match c.data() {
        ColumnData::Bool(v) => Ok(Some(v[i])),
        ColumnData::Const(Value::Bool(b)) => Ok(Some(*b)),
        ColumnData::Values(v) => match &v[i] {
            Value::Bool(b) => Ok(Some(*b)),
            _ => Err(Interrupt),
        },
        _ => Err(Interrupt),
    }
}

fn kleene(op: BinaryOp, l: &Column, r: &Column) -> KRes {
    let n = l.len();
    debug_assert_eq!(n, r.len());
    let mut out = Vec::with_capacity(n);
    let mut nulls = NullMask::none();
    for i in 0..n {
        let lv = tv(l, i)?;
        // The scalar evaluator's short-circuit: a decided left side
        // never looks at (or type-checks) the right.
        let res = match (op, lv) {
            (BinaryOp::And, Some(false)) => Some(false),
            (BinaryOp::Or, Some(true)) => Some(true),
            _ => {
                let rv = tv(r, i)?;
                match op {
                    BinaryOp::And => match (lv, rv) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    BinaryOp::Or => match (lv, rv) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                    _ => unreachable!("kleene kernel"),
                }
            }
        };
        match res {
            Some(b) => out.push(b),
            None => {
                nulls.set_null(i);
                out.push(false);
            }
        }
    }
    Ok(Column::from_bools(out, nulls))
}

fn not(c: &Column) -> KRes {
    let n = c.len();
    match c.data() {
        ColumnData::Bool(v) => {
            let out = v.iter().map(|b| !b).collect();
            Ok(Column::from_bools(out, c.nulls().clone()))
        }
        ColumnData::Const(Value::Bool(b)) => Ok(Column::from_const(Value::Bool(!b), n)),
        ColumnData::Const(Value::Null) => Ok(Column::from_const(Value::Null, n)),
        ColumnData::Values(v) => {
            let mut b = ColumnBuilder::new();
            for val in v {
                match val {
                    Value::Null => b.push(&Value::Null),
                    Value::Bool(x) => b.push(&Value::Bool(!x)),
                    _ => return Err(Interrupt),
                }
            }
            Ok(b.finish())
        }
        _ => Err(Interrupt),
    }
}

fn neg(c: &Column) -> KRes {
    let n = c.len();
    match c.data() {
        ColumnData::Int(v) => {
            let mut out = Vec::with_capacity(n);
            for (i, &x) in v.iter().enumerate() {
                if c.nulls().is_null(i) {
                    out.push(0);
                } else {
                    out.push(x.checked_neg().ok_or(Interrupt)?);
                }
            }
            Ok(Column::from_ints(out, c.nulls().clone()))
        }
        ColumnData::Float(v) => {
            let mut out = Vec::with_capacity(n);
            for (i, &x) in v.iter().enumerate() {
                if c.nulls().is_null(i) {
                    out.push(0.0);
                } else {
                    let y = -x;
                    if y.is_nan() {
                        return Err(Interrupt);
                    }
                    out.push(if y == 0.0 { 0.0 } else { y });
                }
            }
            Ok(Column::from_floats(out, c.nulls().clone()))
        }
        ColumnData::Const(Value::Null) => Ok(Column::from_const(Value::Null, n)),
        ColumnData::Const(Value::Int(x)) => Ok(Column::from_const(
            Value::Int(x.checked_neg().ok_or(Interrupt)?),
            n,
        )),
        ColumnData::Const(Value::Float(x)) => {
            let v = Value::float(-x).map_err(|_| Interrupt)?;
            Ok(Column::from_const(v, n))
        }
        ColumnData::Values(v) => {
            let mut b = ColumnBuilder::new();
            for val in v {
                match val {
                    Value::Null => b.push(&Value::Null),
                    Value::Int(x) => b.push(&Value::Int(x.checked_neg().ok_or(Interrupt)?)),
                    Value::Float(x) => b.push(&Value::float(-x).map_err(|_| Interrupt)?),
                    _ => return Err(Interrupt),
                }
            }
            Ok(b.finish())
        }
        _ => Err(Interrupt),
    }
}

/// Per-row fallback through the scalar [`eval_binary`] — still columnar
/// (one output column, no row materialisation) but with per-value
/// dispatch; covers mixed-variant columns and cross-category operands.
fn generic_binary(op: BinaryOp, l: &Column, r: &Column) -> KRes {
    let n = l.len();
    let mut b = ColumnBuilder::new();
    for i in 0..n {
        let lv = l.value_at(i);
        let rv = r.value_at(i);
        if lv.is_null() || rv.is_null() {
            b.push(&Value::Null);
            continue;
        }
        let v = eval_binary(op, &lv, &rv).map_err(|_| Interrupt)?;
        b.push(&v);
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::DataType;

    /// The oracle: eval_batch must agree with per-row eval_values on
    /// values, nulls, and (first) error row + message.
    fn check(e: &Expr, rows: &[Vec<Value>]) {
        let arity = rows.first().map_or(0, Vec::len);
        let cols: Vec<usize> = (0..arity).collect();
        let batch = ColumnBatch::pivot(rows.len(), rows.iter().map(|r| r.as_slice()), &cols);
        let (col, err) = eval_batch(e, &batch, &mut KernelCounts::default());
        let mut scalar_err = None;
        let mut expected = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            match e.eval_values(row) {
                Ok(v) => expected.push(v),
                Err(er) => {
                    scalar_err = Some((i, er));
                    break;
                }
            }
        }
        match (&err, &scalar_err) {
            (None, None) => {}
            (Some((ki, ke)), Some((si, se))) => {
                assert_eq!(ki, si, "error row for {e}");
                assert_eq!(ke.to_string(), se.to_string(), "error message for {e}");
            }
            _ => panic!("error mismatch for {e}: vector {err:?} vs scalar {scalar_err:?}"),
        }
        assert_eq!(col.len(), expected.len(), "value count for {e}");
        for (i, want) in expected.iter().enumerate() {
            let got = col.value_at(i);
            assert_eq!(&got, want, "row {i} of {e}");
            assert_eq!(
                got.data_type(),
                want.data_type(),
                "variant at row {i} of {e}"
            );
        }
    }

    fn c(i: usize) -> Expr {
        Expr::ColumnIdx(i)
    }

    fn int_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(-3), Value::Null],
            vec![Value::Null, Value::Int(5)],
            vec![Value::Int(7), Value::Int(2)],
        ]
    }

    #[test]
    fn int_arithmetic_and_comparisons() {
        for op in [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Mod,
            BinaryOp::Div,
            BinaryOp::Eq,
            BinaryOp::Lt,
            BinaryOp::GtEq,
        ] {
            check(&c(0).binary(op, c(1)), &int_rows());
            check(&c(0).binary(op, Expr::lit(3i64)), &int_rows());
        }
    }

    #[test]
    fn float_and_mixed_numeric() {
        let rows = vec![
            vec![Value::Float(0.5), Value::Int(2)],
            vec![Value::Float(-1.25), Value::Null],
            vec![Value::Null, Value::Int(0)],
        ];
        for op in [
            BinaryOp::Add,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Lt,
            BinaryOp::Eq,
        ] {
            check(&c(0).binary(op, c(1)), &rows);
        }
    }

    #[test]
    fn division_and_modulo_by_zero_match_scalar() {
        let rows = vec![
            vec![Value::Int(4), Value::Int(2)],
            vec![Value::Int(9), Value::Int(0)], // errors here
            vec![Value::Int(1), Value::Int(1)],
        ];
        check(&c(0).binary(BinaryOp::Div, c(1)), &rows);
        check(&c(0).binary(BinaryOp::Mod, c(1)), &rows);
        let frows = vec![
            vec![Value::Float(1.0), Value::Float(0.0)], // errors at row 0
        ];
        check(&c(0).binary(BinaryOp::Div, c(1)), &frows);
        check(&c(0).binary(BinaryOp::Mod, c(1)), &frows);
    }

    #[test]
    fn integer_overflow_matches_scalar() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(i64::MAX), Value::Int(1)],
        ];
        check(&c(0).binary(BinaryOp::Add, c(1)), &rows);
        check(&c(0).binary(BinaryOp::Mul, Expr::lit(2i64)), &rows);
        let neg = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(c(0)),
        };
        check(&neg, &[vec![Value::Int(i64::MIN), Value::Null]]);
    }

    #[test]
    fn huge_int_comparison_is_exact_like_scalar() {
        // Int × Int compares as i64, so 2^60 and 2^60+1 differ; against a
        // Float the Int still widens to f64.
        let big = 1i64 << 60;
        let rows = vec![
            vec![Value::Int(big), Value::Int(big + 1)],
            vec![Value::Int(i64::MAX), Value::Int(i64::MIN)],
            vec![Value::Int(big + 1), Value::Float(big as f64)],
        ];
        for op in [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq] {
            check(&c(0).binary(op, c(1)), &rows);
        }
        assert_eq!(
            Value::Int(big).sql_cmp(&Value::Int(big + 1)),
            Some(std::cmp::Ordering::Less)
        );
    }

    #[test]
    fn string_and_bool_comparisons() {
        let rows = vec![
            vec![Value::str("abc"), Value::str("abd")],
            vec![Value::Null, Value::str("x")],
            vec![Value::str(""), Value::str("")],
        ];
        for op in [BinaryOp::Eq, BinaryOp::Lt, BinaryOp::GtEq] {
            check(&c(0).binary(op, c(1)), &rows);
        }
        let brows = vec![
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Bool(false), Value::Null],
        ];
        for op in [BinaryOp::Eq, BinaryOp::Lt] {
            check(&c(0).binary(op, c(1)), &brows);
        }
    }

    #[test]
    fn incomparable_types_error_like_scalar() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::str("x")], // TypeMismatch here
        ];
        check(&c(0).binary(BinaryOp::Lt, c(1)), &rows);
        check(&c(0).binary(BinaryOp::Add, c(1)), &rows);
    }

    #[test]
    fn concat_including_null_and_variants() {
        let rows = vec![
            vec![Value::str("a"), Value::str("b")],
            vec![Value::str("a"), Value::Null], // 'a' || NULL -> NULL
            vec![Value::Int(1), Value::Float(2.0)], // "1" || "2.0"
            vec![Value::Bool(true), Value::str("!")],
        ];
        check(&c(0).binary(BinaryOp::Concat, c(1)), &rows);
    }

    #[test]
    fn kleene_and_or_with_nulls() {
        let rows = vec![
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Bool(false), Value::Null],
            vec![Value::Null, Value::Bool(true)],
            vec![Value::Null, Value::Null],
        ];
        check(&c(0).and(c(1)), &rows);
        check(&c(0).or(c(1)), &rows);
        check(&c(0).and(c(0).or(c(1))), &rows);
    }

    #[test]
    fn short_circuit_skips_right_errors() {
        // false AND (1/0 = 1): scalar short-circuits; the kernel must
        // Interrupt and the redo must agree (no error).
        let boom = Expr::lit(1i64)
            .binary(BinaryOp::Div, Expr::lit(0i64))
            .eq(Expr::lit(1i64));
        let e = Expr::lit(false).and(boom.clone());
        check(&e, &[vec![Value::Int(0)]]);
        // true AND boom: the scalar path *does* error.
        let e = Expr::lit(true).and(boom);
        check(&e, &[vec![Value::Int(0)]]);
    }

    #[test]
    fn kleene_type_errors_respect_short_circuit() {
        // (#0 AND #1) where #1 is an Int column: rows where #0 is false
        // never type-check #1.
        let rows = vec![
            vec![Value::Bool(false), Value::Int(3)],
            vec![Value::Bool(true), Value::Int(3)], // errors here
        ];
        check(&c(0).and(c(1)), &rows);
        check(&c(0).or(c(1)), &rows); // true OR short-circuits differently
    }

    #[test]
    fn not_neg_isnull_cast() {
        let rows = vec![
            vec![Value::Bool(true), Value::Int(5), Value::str("42")],
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Bool(false), Value::Int(-2), Value::str("7")],
        ];
        check(&c(0).clone().not(), &rows);
        check(
            &Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(c(1)),
            },
            &rows,
        );
        check(
            &Expr::IsNull {
                expr: Box::new(c(2)),
                negated: false,
            },
            &rows,
        );
        check(
            &Expr::IsNull {
                expr: Box::new(c(2)),
                negated: true,
            },
            &rows,
        );
        check(
            &Expr::Cast {
                expr: Box::new(c(2)),
                dtype: DataType::Int,
            },
            &rows,
        );
        check(
            &Expr::Cast {
                expr: Box::new(c(1)),
                dtype: DataType::Text,
            },
            &rows,
        );
    }

    #[test]
    fn case_and_in_fall_back_to_scalar() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(5)], vec![Value::Null]];
        let case = Expr::Case {
            branches: vec![(c(0).binary(BinaryOp::Gt, Expr::lit(2i64)), Expr::lit("big"))],
            else_expr: Some(Box::new(Expr::lit("small"))),
        };
        check(&case, &rows);
        let inlist = Expr::InList {
            expr: Box::new(c(0)),
            list: vec![Expr::lit(1i64), Expr::lit(Value::Null)],
            negated: false,
        };
        check(&inlist, &rows);
        assert!(!vectorisable(&case));
        assert!(!vectorisable(&inlist));
    }

    #[test]
    fn mixed_variant_columns_use_generic_kernel() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Float(2.5), Value::Int(2)],
            vec![Value::Null, Value::Int(3)],
            vec![Value::str("s"), Value::Int(4)], // Add errors here
        ];
        check(&c(0).binary(BinaryOp::Add, c(1)), &rows);
        check(&c(0).eq(c(1)), &rows);
    }

    #[test]
    fn empty_and_single_row_batches() {
        let e = c(0).binary(BinaryOp::Add, Expr::lit(1i64));
        check(&e, &[]);
        check(&e, &[vec![Value::Int(41)]]);
        check(&e, &[vec![Value::Null]]);
    }

    #[test]
    fn all_null_columns() {
        let rows = vec![vec![Value::Null, Value::Null]; 3];
        check(&c(0).binary(BinaryOp::Add, c(1)), &rows);
        check(&c(0).eq(c(1)), &rows);
        check(&c(0).and(c(1)), &rows);
        check(&c(0).binary(BinaryOp::Concat, c(1)), &rows);
    }

    #[test]
    fn selection_matches_scalar_predicate() {
        let rows = [
            vec![Value::Int(5)],
            vec![Value::Null],
            vec![Value::Int(1)],
            vec![Value::Int(9)],
        ];
        let pred = c(0).binary(BinaryOp::Gt, Expr::lit(3i64));
        let batch = ColumnBatch::pivot(4, rows.iter().map(|r| r.as_slice()), &[0]);
        let (sel, err) = selection(&pred, &batch, &mut KernelCounts::default());
        assert!(err.is_none());
        assert_eq!(sel, vec![0, 3]);
    }

    #[test]
    fn selection_type_error_matches_scalar_row_and_message() {
        // Predicate evaluates to Int: scalar errors at the first row the
        // predicate is evaluated on.
        let rows = [vec![Value::Null], vec![Value::Int(2)]];
        let batch = ColumnBatch::pivot(2, rows.iter().map(|r| r.as_slice()), &[0]);
        let (sel, err) = selection(&c(0), &batch, &mut KernelCounts::default());
        // Row 0 is NULL -> dropped; row 1 is the type error.
        assert!(sel.is_empty());
        let (row, e) = err.expect("type error");
        assert_eq!(row, 1);
        let scalar = c(0).eval_predicate_values(&rows[1]).unwrap_err();
        assert_eq!(e.to_string(), scalar.to_string());
    }

    #[test]
    fn selection_truncates_at_error() {
        // Rows 0-1 pass/fail normally; row 2 divides by zero.
        let rows = [
            vec![Value::Int(8), Value::Int(2)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(9), Value::Int(3)],
        ];
        let pred = c(0)
            .binary(BinaryOp::Div, c(1))
            .binary(BinaryOp::Gt, Expr::lit(2i64));
        let batch = ColumnBatch::pivot(4, rows.iter().map(|r| r.as_slice()), &[0, 1]);
        let (sel, err) = selection(&pred, &batch, &mut KernelCounts::default());
        assert_eq!(sel, vec![0]);
        let (row, _) = err.expect("division by zero");
        assert_eq!(row, 2);
    }

    #[test]
    fn vectorisable_gates_shortcircuit_arithmetic() {
        let cmp = c(0).binary(BinaryOp::Gt, Expr::lit(1i64));
        let div = c(0)
            .binary(BinaryOp::Div, c(1))
            .binary(BinaryOp::Gt, Expr::lit(1i64));
        assert!(vectorisable(&cmp.clone().and(cmp.clone())));
        // Guard pattern: arithmetic on the right of AND stays scalar.
        assert!(!vectorisable(&cmp.clone().and(div.clone())));
        // …but arithmetic on the left is fine (always evaluated).
        assert!(vectorisable(&div.and(cmp)));
    }

    #[test]
    fn unbound_references_interrupt_to_scalar_error() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let bound = Expr::col("a").bind(&schema).unwrap();
        check(&bound, &[vec![Value::Int(1)]]);
        // Unbound: the redo reports the scalar UnboundExpression error.
        let rows = [vec![Value::Int(1)]];
        let batch = ColumnBatch::pivot(1, rows.iter().map(|r| r.as_slice()), &[0]);
        let mut counts = KernelCounts::default();
        let (_, err) = eval_batch(&Expr::col("a"), &batch, &mut counts);
        assert!(matches!(
            err,
            Some((0, EngineError::UnboundExpression { .. }))
        ));
        assert_eq!(
            counts,
            KernelCounts {
                batches: 1,
                scalar_fallbacks: 1
            }
        );
    }
}
