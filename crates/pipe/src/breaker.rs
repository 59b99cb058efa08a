//! The materialising **breakers**: sort, multiset union, cross product
//! and limit — operators that must hold all of their input before they
//! emit a row, so they take collected U-relations, not streams. (The
//! other breakers live next door: hash-join builds in [`crate::build`],
//! grouped aggregation — which also serves `DISTINCT` — in
//! [`crate::groupby`].)
//!
//! There is one implementation of each, over [`URelation`]: a t-certain
//! input is the case where every condition is empty, and conditions ride
//! along untouched except in the cross product, which conjoins them and
//! drops unsatisfiable pairs exactly like a probe stage. Each only
//! chooses or concatenates input rows, so each gathers (or concatenates)
//! its inputs' columns and conditions; none builds a `Value` row. The
//! sort evaluates its keys as columns and, under a `LIMIT n`, keeps only
//! the first n rows (a bounded top-n, not a full sort).
//!
//! Every breaker opens one `breaker` trace span (attrs `kind`,
//! `rows_in`, `rows_out`) and, where its work grows with its input,
//! ticks the governor once per input row (amortised, see
//! [`Ticker`]), so `ORDER BY`, `UNION` and a keyless join are as
//! cancellable as a scan.

use std::sync::Arc;

use maybms_engine::ops::SortKey;
use maybms_engine::vector::{eval_batch, FirstError, KernelCounts};
use maybms_engine::{ColumnBatch, EngineError, Expr};
use maybms_gov::Ticker;
use maybms_obs::trace::Span;
use maybms_urel::{Result, URelation};

/// Open a breaker's span.
fn open(kind: &'static str, rows_in: usize) -> Span {
    let mut span = maybms_obs::trace::span("breaker");
    span.attr("kind", kind);
    span.attr("rows_in", rows_in);
    span
}

/// Open a breaker's span and pass its entry checkpoint.
fn enter(kind: &'static str, rows_in: usize) -> Result<Span> {
    let span = open(kind, rows_in);
    maybms_gov::check().map_err(EngineError::Gov)?;
    Ok(span)
}

/// The rows of the representation ordered by `keys` (NULLs first, the
/// engine's total order; ties keep input order), cut to the first
/// `limit` when one is given — `ORDER BY … LIMIT n` as one bounded
/// top-n. With no bound, or a bound of at least the row count, every
/// row is kept.
///
/// Each key is evaluated once over the whole input batch (a bare column
/// borrows it), so an evaluation error surfaces before any comparison:
/// the lowest erroring row's, and within it the leftmost key's — the
/// error a row-by-row walk raises. Rows compare by their key cells in
/// [`ValueRef`](maybms_engine::ValueRef) order, the engine's one total
/// order, and then by input position, so the order is strict:
/// selecting the first `limit` positions and sorting only those gives
/// exactly a stable full sort's first rows. Only the kept rows' columns
/// and conditions are gathered. The key evaluations count into `counts`.
pub fn sort(
    input: &URelation,
    keys: &[SortKey],
    limit: Option<usize>,
    counts: &mut KernelCounts,
) -> Result<URelation> {
    let bound: Vec<(Expr, bool)> = keys
        .iter()
        .map(|k| Ok((k.expr.bind(input.schema())?, k.ascending)))
        .collect::<Result<_>>()?;
    let mut span = enter("sort", input.len())?;
    let batch = input.at_rest().0;
    Ticker::new()
        .tick_n(batch.rows())
        .map_err(EngineError::Gov)?;
    let mut first = FirstError::<EngineError>::new(batch.rows());
    let columns: Vec<_> = bound
        .iter()
        .map(|(e, _)| {
            let (col, err) = eval_batch(e, batch, counts);
            first.at_eval(err);
            col
        })
        .collect();
    first.result()?;
    let order = |&a: &usize, &b: &usize| {
        columns
            .iter()
            .zip(&bound)
            .map(|(col, (_, ascending))| {
                let ord = col.cell(a).cmp(&col.cell(b));
                if *ascending {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.cmp(&b))
    };
    let mut sel: Vec<usize> = (0..batch.rows()).collect();
    match limit {
        Some(0) => sel.clear(),
        Some(n) if n < sel.len() => {
            sel.select_nth_unstable_by(n - 1, order);
            sel.truncate(n);
        }
        _ => {}
    }
    sel.sort_unstable_by(order);
    span.attr("rows_out", sel.len());
    Ok(input.gather(&sel))
}

/// Multiset union (§2.2: `union` over uncertain relations is the
/// multiset union of the representations). The inputs must have the
/// same arity and column-wise unifiable types; the left schema is kept.
pub fn union_all(left: &URelation, right: &URelation) -> Result<URelation> {
    let (ls, rs) = (left.schema(), right.schema());
    if ls.len() != rs.len() {
        return Err(EngineError::SchemaMismatch {
            message: format!("UNION arity mismatch: {} vs {}", ls.len(), rs.len()),
        }
        .into());
    }
    for (a, b) in ls.fields().iter().zip(rs.fields()) {
        if a.dtype.unify(b.dtype).is_none() {
            return Err(EngineError::SchemaMismatch {
                message: format!("UNION column type mismatch: {} vs {}", a.dtype, b.dtype),
            }
            .into());
        }
    }
    let rows = left.len() + right.len();
    let mut span = enter("union", rows)?;
    Ticker::new().tick_n(rows).map_err(EngineError::Gov)?;
    let ((lb, lw), (rb, rw)) = (left.at_rest(), right.at_rest());
    let batch = ColumnBatch::concat(ls.len(), &[lb, rb]);
    span.attr("rows_out", rows);
    Ok(URelation::from_batch(ls.clone(), batch, [lw, rw].concat()))
}

/// Cross product — the join of two sources no equality conjunct links.
/// Data concatenates, conditions conjoin, and a pair whose conjunction
/// is unsatisfiable is dropped. Output schema is `left ++ right`.
pub fn cross(left: &URelation, right: &URelation) -> Result<URelation> {
    let mut span = enter("cross", left.len() + right.len())?;
    let schema = Arc::new(left.schema().join(right.schema()));
    let ((lb, lw), (rb, rw)) = (left.at_rest(), right.at_rest());
    let (mut li, mut ri, mut wsds) = (Vec::new(), Vec::new(), Vec::new());
    let mut gov = Ticker::new();
    for (i, l) in lw.iter().enumerate() {
        for (j, r) in rw.iter().enumerate() {
            // The output is quadratic in the inputs: without a per-pair
            // tick a cross product could neither be cancelled nor
            // stopped by a memory budget.
            gov.tick().map_err(EngineError::Gov)?;
            let Some(wsd) = l.conjoin(r) else {
                continue;
            };
            li.push(i as u32);
            ri.push(j as u32);
            wsds.push(wsd);
        }
    }
    let left_cols = lb.columns().iter().map(|c| c.gather(&li));
    let columns = left_cols.chain(rb.columns().iter().map(|c| c.gather(&ri)));
    let batch = ColumnBatch::from_columns(columns.collect(), wsds.len());
    span.attr("rows_out", wsds.len());
    Ok(URelation::from_batch(schema, batch, wsds))
}

/// The first `n` stored rows. Only meaningful on a t-certain input —
/// truncating an uncertain representation changes its possible worlds —
/// which is the caller's typing rule to enforce.
pub fn limit(input: &URelation, n: usize) -> URelation {
    let mut span = open("limit", input.len());
    let sel: Vec<usize> = (0..input.len().min(n)).collect();
    span.attr("rows_out", sel.len());
    input.gather(&sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType, Value};
    use maybms_urel::{Var, Wsd};

    fn scores() -> URelation {
        let u = URelation::from_certain(&rel(
            &[("p", DataType::Text), ("s", DataType::Int)],
            vec![
                vec!["b".into(), 2.into()],
                vec!["a".into(), 3.into()],
                vec!["c".into(), 2.into()],
            ],
        ));
        let wsds = vec![Wsd::of(Var(0), 0), Wsd::tautology(), Wsd::of(Var(0), 1)];
        u.gather_with(&[0, 1, 2], wsds)
    }

    /// [`super::sort`] with its kernel counts dropped.
    fn sort(u: &URelation, keys: &[SortKey], limit: Option<usize>) -> Result<URelation> {
        super::sort(u, keys, limit, &mut KernelCounts::default())
    }

    fn names(u: &URelation) -> Vec<&str> {
        u.tuples()
            .iter()
            .map(|t| t.data.value(0).as_str().unwrap())
            .collect()
    }

    #[test]
    fn sort_is_stable_and_carries_conditions() {
        let u = scores();
        let out = sort(&u, &[SortKey::asc(Expr::col("s"))], None).unwrap();
        assert_eq!(names(&out), vec!["b", "c", "a"]);
        assert_eq!(out.tuples()[1].wsd, Wsd::of(Var(0), 1));
        let out = sort(
            &u,
            &[SortKey::desc(Expr::col("s")), SortKey::asc(Expr::col("p"))],
            None,
        )
        .unwrap();
        assert_eq!(names(&out), vec!["a", "b", "c"]);
        // A dictionary-encoded input sorts the same.
        let out = sort(&u.dict_encode(), &[SortKey::asc(Expr::col("s"))], None).unwrap();
        assert_eq!(names(&out), vec!["b", "c", "a"]);
    }

    #[test]
    fn bounded_sort_keeps_the_first_rows() {
        let u = scores();
        let key = [SortKey::asc(Expr::col("s"))];
        for (n, want) in [(0, vec![]), (1, vec!["b"]), (2, vec!["b", "c"])] {
            let out = sort(&u, &key, Some(n)).unwrap();
            assert_eq!(names(&out), want);
        }
        let out = sort(&u, &key, Some(2)).unwrap();
        assert_eq!(out.tuples()[1].wsd, Wsd::of(Var(0), 1));
        for n in [3, 9] {
            let out = sort(&u, &key, Some(n)).unwrap();
            assert_eq!(names(&out), vec!["b", "c", "a"]);
        }
    }

    #[test]
    fn sort_key_errors_surface_before_sorting() {
        let u = scores();
        assert!(sort(&u, &[SortKey::asc(Expr::col("nope"))], None).is_err());
        let bad = Expr::col("p").binary(maybms_engine::BinaryOp::Add, Expr::lit(1i64));
        assert!(sort(&u, &[SortKey::asc(bad)], Some(1)).is_err());
    }

    #[test]
    fn union_checks_arity_and_types() {
        let u = scores();
        assert_eq!(union_all(&u, &u).unwrap().len(), 6);
        let ints = URelation::from_certain(&rel(&[("x", DataType::Int)], vec![vec![1.into()]]));
        let floats = URelation::from_certain(&rel(
            &[("x", DataType::Float)],
            vec![vec![Value::Float(0.5)]],
        ));
        let texts = URelation::from_certain(&rel(&[("x", DataType::Text)], vec![vec!["a".into()]]));
        assert_eq!(union_all(&ints, &floats).unwrap().len(), 2);
        assert!(union_all(&ints, &texts).is_err());
        assert!(union_all(&ints, &u).is_err());
    }

    #[test]
    fn cross_conjoins_and_drops_contradictions() {
        let u = scores();
        // 3 × 3 pairs minus the two (x↦0, x↦1) contradictions.
        let out = cross(&u, &u).unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(out.schema().len(), 4);
    }

    #[test]
    fn limit_truncates() {
        let u = scores();
        assert_eq!(limit(&u, 2).len(), 2);
        assert_eq!(limit(&u, 0).len(), 0);
        assert_eq!(limit(&u, 99).len(), 3);
    }
}
