//! Bind-time constant folding for scalar expressions ([`Expr::fold`]).
//!
//! The one rewrite the fused pipelines apply to every stage expression
//! before it runs: fewer nodes reach both the scalar evaluator and the
//! kernel-eligibility check, `σ_true` disappears and `σ_false` can
//! short-circuit a whole chain. Folding never moves or removes a runtime
//! error: only subexpressions whose evaluation cannot fail fold, and the
//! boolean short-circuits keep every operand the scalar evaluator would
//! have run.

use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::tuple::Tuple;
use crate::types::Value;

impl Expr {
    /// Constant folding. Folds only subexpressions whose evaluation cannot
    /// fail (so `1/0` stays a runtime error at the original position).
    pub fn fold(self) -> Expr {
        let empty = Tuple::new(Vec::new());
        match self {
            Expr::Binary { left, op, right } => {
                let left = left.fold();
                let right = right.fold();
                // Boolean short-circuits with one constant side. Guarded
                // like every fold: an operand the scalar evaluator *always*
                // runs (the left side; the right side once the left didn't
                // decide) may only fold away when it can neither raise —
                // `(1/0 = 1) AND false` must stay a runtime error — nor
                // change the outcome's boolean type check (`3 AND false`
                // errors; plain `false` would not). `is_boolish` is the
                // type half of that guard; [`Expr::infallible`] the other.
                match (op, &left, &right) {
                    // Scalar short-circuit: the right side never runs.
                    (BinaryOp::And, Expr::Literal(Value::Bool(false)), _) => {
                        return Expr::Literal(Value::Bool(false));
                    }
                    (BinaryOp::Or, Expr::Literal(Value::Bool(true)), _) => {
                        return Expr::Literal(Value::Bool(true));
                    }
                    // The always-evaluated side folds away entirely.
                    (BinaryOp::And, other, Expr::Literal(Value::Bool(false)))
                        if other.infallible() && is_boolish(other) =>
                    {
                        return Expr::Literal(Value::Bool(false));
                    }
                    (BinaryOp::Or, other, Expr::Literal(Value::Bool(true)))
                        if other.infallible() && is_boolish(other) =>
                    {
                        return Expr::Literal(Value::Bool(true));
                    }
                    // The surviving side keeps evaluating (errors intact);
                    // it just must already be boolean-valued.
                    (BinaryOp::And, Expr::Literal(Value::Bool(true)), other)
                    | (BinaryOp::And, other, Expr::Literal(Value::Bool(true)))
                        if is_boolish(other) =>
                    {
                        return other.clone();
                    }
                    (BinaryOp::Or, Expr::Literal(Value::Bool(false)), other)
                    | (BinaryOp::Or, other, Expr::Literal(Value::Bool(false)))
                        if is_boolish(other) =>
                    {
                        return other.clone();
                    }
                    _ => {}
                }
                let folded = Expr::Binary {
                    left: Box::new(left),
                    op,
                    right: Box::new(right),
                };
                try_eval_const(folded, &empty)
            }
            Expr::Unary { op, expr } => {
                let inner = expr.fold();
                match (op, &inner) {
                    (UnaryOp::Not, Expr::Literal(Value::Bool(b))) => Expr::Literal(Value::Bool(!b)),
                    _ => try_eval_const(
                        Expr::Unary {
                            op,
                            expr: Box::new(inner),
                        },
                        &empty,
                    ),
                }
            }
            Expr::IsNull { expr, negated } => {
                let inner = expr.fold();
                if let Expr::Literal(v) = &inner {
                    return Expr::Literal(Value::Bool(v.is_null() != negated));
                }
                Expr::IsNull {
                    expr: Box::new(inner),
                    negated,
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.fold()),
                list: list.into_iter().map(Expr::fold).collect(),
                negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, r)| (c.fold(), r.fold()))
                    .collect(),
                else_expr: else_expr.map(|x| Box::new(x.fold())),
            },
            Expr::Cast { expr, dtype } => try_eval_const(
                Expr::Cast {
                    expr: Box::new(expr.fold()),
                    dtype,
                },
                &empty,
            ),
            other => other,
        }
    }
}

/// Structurally guaranteed to evaluate to boolean or NULL whenever it
/// evaluates at all — so `AND`/`OR` may absorb it (or hand the result
/// to it) without dropping the type check `eval_logical` performs on
/// every operand it sees.
fn is_boolish(e: &Expr) -> bool {
    match e {
        Expr::Literal(Value::Bool(_)) | Expr::Literal(Value::Null) => true,
        Expr::IsNull { .. } | Expr::InList { .. } => true,
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => true,
        Expr::Binary { op, .. } => op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or),
        _ => false,
    }
}

/// If the expression is literal-only, try evaluating it; keep the original
/// on error (runtime errors must surface at execution, not planning).
fn try_eval_const(e: Expr, empty: &Tuple) -> Expr {
    if !is_literal_only(&e) {
        return e;
    }
    match e.eval(empty) {
        Ok(v) => Expr::Literal(v),
        Err(_) => e,
    }
}

fn is_literal_only(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Column { .. } | Expr::ColumnIdx(_) => false,
        Expr::Binary { left, right, .. } => is_literal_only(left) && is_literal_only(right),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            is_literal_only(expr)
        }
        Expr::InList { expr, list, .. } => {
            is_literal_only(expr) && list.iter().all(is_literal_only)
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .all(|(c, r)| is_literal_only(c) && is_literal_only(r))
                && else_expr.as_ref().is_none_or(|x| is_literal_only(x))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_arithmetic_and_booleans() {
        let e = Expr::lit(2i64).binary(BinaryOp::Add, Expr::lit(3i64));
        assert_eq!(e.fold(), Expr::Literal(Value::Int(5)));
        let e = Expr::lit(true).and(Expr::col("x").eq(Expr::lit(1i64)));
        assert_eq!(e.fold().to_string(), "(x = 1)");
        let e = Expr::lit(false).and(Expr::col("x").eq(Expr::lit(1i64)));
        assert_eq!(e.fold(), Expr::Literal(Value::Bool(false)));
        // A bare column is not provably boolean: `false OR y` would
        // type-error on a non-boolean y, so it must not fold to `y`.
        let e = Expr::lit(false).or(Expr::col("y"));
        assert_eq!(e.fold().to_string(), "(false OR y)");
        let e = Expr::lit(false).or(Expr::col("y").eq(Expr::lit(1i64)));
        assert_eq!(e.fold().to_string(), "(y = 1)");
    }

    #[test]
    fn fold_keeps_fallible_always_evaluated_operands() {
        // `(1/0 = 1) AND false`: the scalar evaluator always runs the
        // left side first, so the division error must survive folding.
        let boom = Expr::lit(1i64)
            .binary(BinaryOp::Div, Expr::lit(0i64))
            .eq(Expr::lit(1i64));
        let e = boom.clone().and(Expr::lit(false));
        assert_eq!(e.clone().fold(), e, "fallible left of AND-false stays");
        let e = boom.clone().or(Expr::lit(true));
        assert_eq!(e.clone().fold(), e, "fallible left of OR-true stays");
        // The mirrored positions short-circuit in the scalar evaluator,
        // so there the fold *is* allowed.
        let e = Expr::lit(false).and(boom.clone());
        assert_eq!(e.fold(), Expr::Literal(Value::Bool(false)));
        let e = Expr::lit(true).or(boom.clone());
        assert_eq!(e.fold(), Expr::Literal(Value::Bool(true)));
        // `X AND true -> X` keeps X evaluated, so fallible X is fine…
        let e = boom.clone().and(Expr::lit(true));
        assert_eq!(e.fold(), boom);
        // …but a non-boolean X must keep the AND (type check preserved).
        let e = Expr::lit(3i64).and(Expr::lit(true));
        assert_eq!(e.fold().to_string(), "(3 AND true)");
    }

    #[test]
    fn fold_keeps_failing_constants_unfolded() {
        let e = Expr::lit(1i64).binary(BinaryOp::Div, Expr::lit(0i64));
        let folded = e.clone().fold();
        assert_eq!(folded, e); // division by zero stays a runtime error
    }

    #[test]
    fn fold_is_null_on_literals() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(Value::Null)),
            negated: false,
        };
        assert_eq!(e.fold(), Expr::Literal(Value::Bool(true)));
    }
}
