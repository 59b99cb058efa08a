//! Scalar expressions: construction, binding (name resolution), type
//! inference, and evaluation with SQL three-valued logic.
//!
//! Expressions are built unresolved (column references by name), then
//! [`Expr::bind`] resolves every reference against a [`Schema`] producing an
//! expression that evaluates by column index. Evaluation uses SQL semantics:
//! comparisons and arithmetic involving `NULL` yield `NULL`; `AND`/`OR`
//! use Kleene three-valued logic.

use std::fmt;

use crate::error::{EngineError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::types::{DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// Kleene `AND`
    And,
    /// Kleene `OR`
    Or,
    /// String concatenation `||`
    Concat,
}

impl BinaryOp {
    /// True for `= <> < <= > >=`.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | NotEq | Lt | LtEq | Gt | GtEq)
    }

    /// The verdict of this comparison operator for an ordering of its
    /// operands ([`Value::sql_cmp`]) — the one place scalar evaluation,
    /// the comparison kernel and zone-map pruning read it from.
    pub fn verdict(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            BinaryOp::Eq => ord == Equal,
            BinaryOp::NotEq => ord != Equal,
            BinaryOp::Lt => ord == Less,
            BinaryOp::LtEq => ord != Greater,
            BinaryOp::Gt => ord == Greater,
            BinaryOp::GtEq => ord != Less,
            _ => unreachable!("{self} is not a comparison"),
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical NOT (three-valued).
    Not,
    /// Numeric negation.
    Neg,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Unresolved column reference (`qualifier.name` or `name`).
    Column {
        /// Optional relation alias.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Resolved column reference (index into the bound schema).
    ColumnIdx(usize),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr IN (v1, v2, …)` over literal/scalar expressions.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `CASE WHEN c1 THEN r1 … [ELSE e] END`.
    Case {
        /// `(condition, result)` branches, tried in order.
        branches: Vec<(Expr, Expr)>,
        /// Result when no branch matches (`NULL` when absent).
        else_expr: Option<Box<Expr>>,
    },
    /// Cast to a target type.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        dtype: DataType,
    },
}

impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self op other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)] // SQL-flavoured builder, consumes self
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }

    /// Resolve all column references against `schema`, producing an
    /// expression that evaluates by index.
    pub fn bind(&self, schema: &Schema) -> Result<Expr> {
        Ok(match self {
            Expr::Column { qualifier, name } => {
                Expr::ColumnIdx(schema.index_of(qualifier.as_deref(), name)?)
            }
            Expr::ColumnIdx(i) => {
                if *i >= schema.len() {
                    return Err(EngineError::ColumnNotFound {
                        name: format!("#{i}"),
                        available: schema.fields().iter().map(|f| f.qualified_name()).collect(),
                    });
                }
                Expr::ColumnIdx(*i)
            }
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.bind(schema)?),
                op: *op,
                right: Box::new(right.bind(schema)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.bind(schema)?),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.bind(schema)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.iter().map(|e| e.bind(schema)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| Ok((c.bind(schema)?, r.bind(schema)?)))
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(e.bind(schema)?)),
                    None => None,
                },
            },
            Expr::Cast { expr, dtype } => Expr::Cast {
                expr: Box::new(expr.bind(schema)?),
                dtype: *dtype,
            },
        })
    }

    /// Infer the static result type against a schema (best effort; `Unknown`
    /// where the type depends on runtime values).
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Column { qualifier, name } => schema
                .index_of(qualifier.as_deref(), name)
                .map(|i| schema.field(i).dtype)
                .unwrap_or(DataType::Unknown),
            Expr::ColumnIdx(i) => schema
                .fields()
                .get(*i)
                .map(|f| f.dtype)
                .unwrap_or(DataType::Unknown),
            Expr::Literal(v) => v.data_type(),
            Expr::Binary { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    DataType::Bool
                } else if matches!(op, BinaryOp::Concat) {
                    DataType::Text
                } else {
                    match (left.data_type(schema), right.data_type(schema)) {
                        (DataType::Int, DataType::Int) if !matches!(op, BinaryOp::Div) => {
                            DataType::Int
                        }
                        (a, b) if a.is_numeric() || b.is_numeric() => DataType::Float,
                        _ => DataType::Unknown,
                    }
                }
            }
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => DataType::Bool,
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => expr.data_type(schema),
            Expr::IsNull { .. } => DataType::Bool,
            Expr::InList { .. } => DataType::Bool,
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut t = match else_expr {
                    Some(e) => e.data_type(schema),
                    None => DataType::Unknown,
                };
                for (_, r) in branches {
                    t = t.unify(r.data_type(schema)).unwrap_or(DataType::Unknown);
                }
                t
            }
            Expr::Cast { dtype, .. } => *dtype,
        }
    }

    /// Evaluate against a tuple. The expression must be bound.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        self.eval_values(tuple.values())
    }

    /// Evaluate against a bare row slice (a row written out of a column
    /// batch, no tuple built). The expression must be bound.
    pub fn eval_values(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Column { qualifier, name } => Err(EngineError::UnboundExpression {
                expr: match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                },
            }),
            Expr::ColumnIdx(i) => Ok(row[*i].clone()),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { left, op, right } => {
                // Short-circuiting three-valued AND/OR.
                if matches!(op, BinaryOp::And | BinaryOp::Or) {
                    return eval_logical(*op, left, right, row);
                }
                let l = left.eval_values(row)?;
                let r = right.eval_values(row)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval_values(row)?;
                match op {
                    UnaryOp::Not => Ok(match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(EngineError::TypeMismatch {
                                message: format!("NOT applied to {}", other.data_type()),
                            })
                        }
                    }),
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or_else(|| {
                            EngineError::Arithmetic {
                                message: "integer overflow".into(),
                            }
                        })?)),
                        Value::Float(f) => Value::float(-f),
                        other => Err(EngineError::TypeMismatch {
                            message: format!("negation applied to {}", other.data_type()),
                        }),
                    },
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval_values(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let probe = expr.eval_values(row)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = item.eval_values(row)?;
                    match probe.sql_eq(&v) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    if cond.eval_values(row)?.as_bool() == Some(true) {
                        return result.eval_values(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval_values(row),
                    None => Ok(Value::Null),
                }
            }
            Expr::Cast { expr, dtype } => cast_value(expr.eval_values(row)?, *dtype),
        }
    }

    /// Evaluate as a predicate: `NULL` counts as not-satisfied (SQL WHERE).
    pub fn eval_predicate(&self, tuple: &Tuple) -> Result<bool> {
        self.eval_predicate_values(tuple.values())
    }

    /// Predicate evaluation over a bare row slice.
    pub fn eval_predicate_values(&self, row: &[Value]) -> Result<bool> {
        match self.eval_values(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(EngineError::TypeMismatch {
                message: format!("predicate evaluated to {}", other.data_type()),
            }),
        }
    }

    /// Can evaluating this expression never raise a runtime error?
    ///
    /// Conservative and structural: column references and literals never
    /// raise; `IS NULL` raises iff its operand does; `||` never raises
    /// (any value renders); `CASE` only errors through its
    /// subexpressions (a non-boolean condition is simply "not taken");
    /// `IN` compares with `sql_eq`, which cannot fail. Everything else —
    /// arithmetic (overflow, division by zero), `NOT`/`AND`/`OR`
    /// (non-boolean operands), comparisons (incomparable types), casts,
    /// negation — counts as fallible.
    ///
    /// Used by [`Expr::fold`]'s short-circuit guard and by the
    /// bind-time `Filter(false)` shortcut: an infallible stage can be
    /// dropped without swallowing a runtime error.
    pub fn infallible(&self) -> bool {
        match self {
            Expr::Column { .. } | Expr::ColumnIdx(_) | Expr::Literal(_) => true,
            Expr::IsNull { expr, .. } => expr.infallible(),
            Expr::Binary {
                op: BinaryOp::Concat,
                left,
                right,
            } => left.infallible() && right.infallible(),
            Expr::InList { expr, list, .. } => {
                expr.infallible() && list.iter().all(Expr::infallible)
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .all(|(c, r)| c.infallible() && r.infallible())
                    && else_expr.as_ref().is_none_or(|e| e.infallible())
            }
            _ => false,
        }
    }

    /// A copy with every bound column index `i` replaced by `map(i)`
    /// (used when evaluating against a batch that pivoted only a subset
    /// of the source columns).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::ColumnIdx(i) => Expr::ColumnIdx(map(*i)),
            Expr::Column { .. } | Expr::Literal(_) => self.clone(),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.remap_columns(map)),
                op: *op,
                right: Box::new(right.remap_columns(map)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.remap_columns(map)),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.remap_columns(map)),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.remap_columns(map)),
                list: list.iter().map(|e| e.remap_columns(map)).collect(),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.remap_columns(map), r.remap_columns(map)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.remap_columns(map))),
            },
            Expr::Cast { expr, dtype } => Expr::Cast {
                expr: Box::new(expr.remap_columns(map)),
                dtype: *dtype,
            },
        }
    }

    /// All column indices referenced by this (bound) expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::ColumnIdx(i) => out.push(*i),
            Expr::Column { .. } | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.referenced_columns(out)
            }
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.referenced_columns(out);
                    r.referenced_columns(out);
                }
                if let Some(e) = else_expr {
                    e.referenced_columns(out);
                }
            }
        }
    }
}

/// Kleene three-valued AND/OR with short-circuiting.
fn eval_logical(op: BinaryOp, left: &Expr, right: &Expr, row: &[Value]) -> Result<Value> {
    let to_tv = |v: Value| -> Result<Option<bool>> {
        match v {
            Value::Bool(b) => Ok(Some(b)),
            Value::Null => Ok(None),
            other => Err(EngineError::TypeMismatch {
                message: format!("{op} applied to {}", other.data_type()),
            }),
        }
    };
    let l = to_tv(left.eval_values(row)?)?;
    match (op, l) {
        (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = to_tv(right.eval_values(row)?)?;
    let out = match op {
        BinaryOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logical only handles AND/OR"),
    };
    Ok(out.map_or(Value::Null, Value::Bool))
}

/// Evaluate a non-logical binary operator on concrete values. Shared
/// with the vectorised kernels ([`crate::vector`]) so the per-value
/// fallback paths are the scalar evaluator, not a re-implementation.
pub(crate) fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.sql_cmp(r).ok_or_else(|| EngineError::TypeMismatch {
            message: format!("cannot compare {} {} {}", l.data_type(), op, r.data_type()),
        })?;
        return Ok(Value::Bool(op.verdict(ord)));
    }
    if matches!(op, BinaryOp::Concat) {
        let (a, b) = (l.to_string(), r.to_string());
        return Ok(Value::str(format!("{a}{b}")));
    }
    // Arithmetic.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) if !matches!(op, BinaryOp::Div) => {
            let out = match op {
                BinaryOp::Add => a.checked_add(*b),
                BinaryOp::Sub => a.checked_sub(*b),
                BinaryOp::Mul => a.checked_mul(*b),
                BinaryOp::Mod => {
                    if *b == 0 {
                        return Err(EngineError::Arithmetic {
                            message: "modulo by zero".into(),
                        });
                    }
                    a.checked_rem(*b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int).ok_or_else(|| EngineError::Arithmetic {
                message: format!("integer overflow in {a} {op} {b}"),
            })
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EngineError::TypeMismatch {
                        message: format!(
                            "cannot apply {op} to {} and {}",
                            l.data_type(),
                            r.data_type()
                        ),
                    })
                }
            };
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(EngineError::Arithmetic {
                            message: "division by zero".into(),
                        });
                    }
                    a / b
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Err(EngineError::Arithmetic {
                            message: "modulo by zero".into(),
                        });
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Value::float(out)
        }
    }
}

/// Runtime CAST between scalar types. Shared with [`crate::vector`].
pub(crate) fn cast_value(v: Value, target: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let fail = |v: &Value| EngineError::TypeMismatch {
        message: format!("cannot cast {} ({v}) to {target}", v.data_type()),
    };
    Ok(match target {
        DataType::Unknown => v,
        DataType::Bool => match &v {
            Value::Bool(_) => v,
            Value::Str(s) if s.eq_ignore_ascii_case("true") => Value::Bool(true),
            Value::Str(s) if s.eq_ignore_ascii_case("false") => Value::Bool(false),
            _ => return Err(fail(&v)),
        },
        DataType::Int => match &v {
            Value::Int(_) => v,
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.2e18 => Value::Int(*f as i64),
            Value::Str(s) => Value::Int(s.trim().parse::<i64>().map_err(|_| fail(&v))?),
            Value::Bool(b) => Value::Int(i64::from(*b)),
            _ => return Err(fail(&v)),
        },
        DataType::Float => match &v {
            Value::Float(_) => v,
            Value::Int(i) => Value::Float(*i as f64),
            Value::Str(s) => Value::float(s.trim().parse::<f64>().map_err(|_| fail(&v))?)?,
            _ => return Err(fail(&v)),
        },
        DataType::Text => Value::str(v.to_string()),
    })
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column {
                qualifier: Some(q),
                name,
            } => write!(f, "{q}.{name}"),
            Expr::Column {
                qualifier: None,
                name,
            } => write!(f, "{name}"),
            Expr::ColumnIdx(i) => write!(f, "#{i}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => write!(f, "(NOT {expr})"),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => write!(f, "(-{expr})"),
            Expr::IsNull {
                expr,
                negated: false,
            } => write!(f, "({expr} IS NULL)"),
            Expr::IsNull {
                expr,
                negated: true,
            } => write!(f, "({expr} IS NOT NULL)"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, dtype } => write!(f, "CAST({expr} AS {dtype})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Text),
        ])
    }

    fn row() -> Tuple {
        Tuple::new(vec![6.into(), Value::Float(0.5), "hi".into()])
    }

    fn eval(e: Expr) -> Value {
        e.bind(&schema()).unwrap().eval(&row()).unwrap()
    }

    #[test]
    fn column_resolution_and_eval() {
        assert_eq!(eval(Expr::col("a")), Value::Int(6));
        assert_eq!(eval(Expr::col("s")), Value::str("hi"));
    }

    #[test]
    fn unbound_column_errors_at_eval() {
        let e = Expr::col("a");
        assert!(matches!(
            e.eval(&row()),
            Err(EngineError::UnboundExpression { .. })
        ));
    }

    #[test]
    fn bind_rejects_out_of_range_index() {
        assert!(Expr::ColumnIdx(9).bind(&schema()).is_err());
    }

    #[test]
    fn int_arithmetic_stays_int() {
        let e = Expr::col("a").binary(BinaryOp::Mul, Expr::lit(7i64));
        assert_eq!(eval(e), Value::Int(42));
    }

    #[test]
    fn division_always_floats() {
        let e = Expr::lit(7i64).binary(BinaryOp::Div, Expr::lit(2i64));
        assert_eq!(eval(e), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::lit(7i64).binary(BinaryOp::Div, Expr::lit(0i64));
        assert!(matches!(
            e.bind(&schema()).unwrap().eval(&row()),
            Err(EngineError::Arithmetic { .. })
        ));
    }

    #[test]
    fn integer_overflow_detected() {
        let e = Expr::lit(i64::MAX).binary(BinaryOp::Add, Expr::lit(1i64));
        assert!(e.bind(&schema()).unwrap().eval(&row()).is_err());
    }

    #[test]
    fn mixed_arithmetic_widens() {
        let e = Expr::col("a").binary(BinaryOp::Add, Expr::col("b"));
        assert_eq!(eval(e), Value::Float(6.5));
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            eval(Expr::col("a").binary(BinaryOp::Gt, Expr::lit(5i64))),
            Value::Bool(true)
        );
        assert_eq!(
            eval(Expr::col("s").binary(BinaryOp::LtEq, Expr::lit("hi"))),
            Value::Bool(true)
        );
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let e = Expr::lit(Value::Null).binary(BinaryOp::Add, Expr::lit(1i64));
        assert_eq!(eval(e), Value::Null);
        let e = Expr::lit(Value::Null).eq(Expr::lit(1i64));
        assert_eq!(eval(e), Value::Null);
    }

    #[test]
    fn three_valued_and_or() {
        let null = || Expr::lit(Value::Null);
        let t = || Expr::lit(true);
        let f_ = || Expr::lit(false);
        assert_eq!(eval(f_().and(null())), Value::Bool(false));
        assert_eq!(eval(null().and(f_())), Value::Bool(false));
        assert_eq!(eval(t().and(null())), Value::Null);
        assert_eq!(eval(t().or(null())), Value::Bool(true));
        assert_eq!(eval(null().or(t())), Value::Bool(true));
        assert_eq!(eval(f_().or(null())), Value::Null);
    }

    #[test]
    fn and_short_circuits_errors_on_right() {
        // false AND (1/0 = 1) must not evaluate the division.
        let div = Expr::lit(1i64)
            .binary(BinaryOp::Div, Expr::lit(0i64))
            .eq(Expr::lit(1i64));
        let e = Expr::lit(false).and(div);
        assert_eq!(eval(e), Value::Bool(false));
    }

    #[test]
    fn not_and_neg() {
        assert_eq!(eval(Expr::lit(true).not()), Value::Bool(false));
        let neg = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::col("b")),
        };
        assert_eq!(eval(neg), Value::Float(-0.5));
    }

    #[test]
    fn is_null() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval(e), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("a")),
            negated: true,
        };
        assert_eq!(eval(e), Value::Bool(true));
    }

    #[test]
    fn in_list_including_null_semantics() {
        let in_list = |probe: Expr, list: Vec<Expr>, negated| Expr::InList {
            expr: Box::new(probe),
            list,
            negated,
        };
        assert_eq!(
            eval(in_list(
                Expr::col("a"),
                vec![Expr::lit(5i64), Expr::lit(6i64)],
                false
            )),
            Value::Bool(true)
        );
        // 6 NOT IN (5) -> true
        assert_eq!(
            eval(in_list(Expr::col("a"), vec![Expr::lit(5i64)], true)),
            Value::Bool(true)
        );
        // 6 IN (5, NULL) -> NULL (unknown)
        assert_eq!(
            eval(in_list(
                Expr::col("a"),
                vec![Expr::lit(5i64), Expr::lit(Value::Null)],
                false
            )),
            Value::Null
        );
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            branches: vec![
                (
                    Expr::col("a").binary(BinaryOp::Lt, Expr::lit(0i64)),
                    Expr::lit("neg"),
                ),
                (
                    Expr::col("a").binary(BinaryOp::Gt, Expr::lit(0i64)),
                    Expr::lit("pos"),
                ),
            ],
            else_expr: Some(Box::new(Expr::lit("zero"))),
        };
        assert_eq!(eval(e), Value::str("pos"));
    }

    #[test]
    fn case_without_else_defaults_null() {
        let e = Expr::Case {
            branches: vec![(Expr::lit(false), Expr::lit(1i64))],
            else_expr: None,
        };
        assert_eq!(eval(e), Value::Null);
    }

    #[test]
    fn casts() {
        let c = |v: Value, t| cast_value(v, t).unwrap();
        assert_eq!(c(Value::str("42"), DataType::Int), Value::Int(42));
        assert_eq!(c(Value::Int(3), DataType::Float), Value::Float(3.0));
        assert_eq!(c(Value::Float(2.0), DataType::Int), Value::Int(2));
        assert_eq!(c(Value::str("0.25"), DataType::Float), Value::Float(0.25));
        assert_eq!(c(Value::Int(1), DataType::Text), Value::str("1"));
        assert_eq!(c(Value::str("true"), DataType::Bool), Value::Bool(true));
        assert!(cast_value(Value::Float(2.5), DataType::Int).is_err());
        assert!(cast_value(Value::str("xyz"), DataType::Int).is_err());
    }

    #[test]
    fn concat_operator() {
        let e = Expr::col("s").binary(BinaryOp::Concat, Expr::lit("!"));
        assert_eq!(eval(e), Value::str("hi!"));
    }

    #[test]
    fn predicate_treats_null_as_false() {
        let e = Expr::lit(Value::Null).bind(&schema()).unwrap();
        assert!(!e.eval_predicate(&row()).unwrap());
    }

    #[test]
    fn predicate_rejects_non_boolean() {
        let e = Expr::lit(3i64).bind(&schema()).unwrap();
        assert!(e.eval_predicate(&row()).is_err());
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(Expr::col("a").data_type(&s), DataType::Int);
        assert_eq!(
            Expr::col("a")
                .binary(BinaryOp::Add, Expr::col("a"))
                .data_type(&s),
            DataType::Int
        );
        assert_eq!(
            Expr::col("a")
                .binary(BinaryOp::Div, Expr::col("a"))
                .data_type(&s),
            DataType::Float
        );
        assert_eq!(
            Expr::col("a").eq(Expr::col("a")).data_type(&s),
            DataType::Bool
        );
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::col("a")
            .binary(BinaryOp::Add, Expr::col("b"))
            .eq(Expr::col("a"))
            .bind(&schema())
            .unwrap();
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = Expr::Column {
            qualifier: Some("r1".into()),
            name: "player".into(),
        }
        .eq(Expr::lit("Bryant"));
        assert_eq!(e.to_string(), "(r1.player = 'Bryant')");
    }
}
