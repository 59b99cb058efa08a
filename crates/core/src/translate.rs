//! Translation from the SQL AST (`maybms-sql`) to engine expressions, plus
//! classification of select items into plain expressions and the MayBMS
//! aggregates (§2.2).

use maybms_engine::{BinaryOp, DataType, Expr as EExpr, UnaryOp, Value};
use maybms_sql::{BinOp, Expr as SExpr, Lit};

use crate::error::{plan_err, unsupported, Result};

/// Map a SQL type name to an engine data type.
pub fn data_type_of(type_name: &str) -> Result<DataType> {
    let t = type_name.to_ascii_lowercase();
    Ok(match t.as_str() {
        "bigint" | "int" | "integer" | "smallint" | "int8" | "int4" => DataType::Int,
        "double precision" | "double" | "float" | "float8" | "real" | "numeric" | "decimal" => {
            DataType::Float
        }
        "text" | "varchar" | "char" | "character varying" | "string" => DataType::Text,
        "boolean" | "bool" => DataType::Bool,
        other => return Err(unsupported(format!("unknown type name `{other}`"))),
    })
}

/// Translate a literal.
pub fn value_of(lit: &Lit) -> Result<Value> {
    Ok(match lit {
        Lit::Null => Value::Null,
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Int(i) => Value::Int(*i),
        Lit::Float(x) => Value::float(*x).map_err(crate::error::CoreError::Engine)?,
        Lit::Str(s) => Value::str(s),
    })
}

fn binop_of(op: BinOp) -> BinaryOp {
    match op {
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Mod => BinaryOp::Mod,
        BinOp::Eq => BinaryOp::Eq,
        BinOp::NotEq => BinaryOp::NotEq,
        BinOp::Lt => BinaryOp::Lt,
        BinOp::LtEq => BinaryOp::LtEq,
        BinOp::Gt => BinaryOp::Gt,
        BinOp::GtEq => BinaryOp::GtEq,
        BinOp::And => BinaryOp::And,
        BinOp::Or => BinaryOp::Or,
        BinOp::Concat => BinaryOp::Concat,
    }
}

/// Translate a *scalar* SQL expression to an engine expression. Function
/// calls and IN-subqueries are rejected here — aggregates are handled at
/// the select-item level and IN-subqueries by the executor's rewrite.
pub fn scalar(e: &SExpr) -> Result<EExpr> {
    Ok(match e {
        SExpr::Ident { qualifier, name } => EExpr::Column {
            qualifier: qualifier.clone(),
            name: name.clone(),
        },
        SExpr::Lit(l) => EExpr::Literal(value_of(l)?),
        SExpr::Binary { left, op, right } => EExpr::Binary {
            left: Box::new(scalar(left)?),
            op: binop_of(*op),
            right: Box::new(scalar(right)?),
        },
        SExpr::Not(x) => EExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(scalar(x)?),
        },
        SExpr::Neg(x) => EExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(scalar(x)?),
        },
        SExpr::IsNull { expr, negated } => EExpr::IsNull {
            expr: Box::new(scalar(expr)?),
            negated: *negated,
        },
        SExpr::InList {
            expr,
            list,
            negated,
        } => EExpr::InList {
            expr: Box::new(scalar(expr)?),
            list: list.iter().map(scalar).collect::<Result<_>>()?,
            negated: *negated,
        },
        SExpr::InSelect { .. } => {
            return Err(plan_err(
                "IN (SELECT …) may only appear as a top-level positive conjunct of WHERE",
            ))
        }
        SExpr::Case {
            branches,
            else_expr,
        } => EExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((scalar(c)?, scalar(r)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(x) => Some(Box::new(scalar(x)?)),
                None => None,
            },
        },
        SExpr::Cast { expr, type_name } => EExpr::Cast {
            expr: Box::new(scalar(expr)?),
            dtype: data_type_of(type_name)?,
        },
        SExpr::Func { name, .. } => {
            return Err(plan_err(format!(
                "aggregate or function `{name}` is not allowed in a scalar context"
            )))
        }
    })
}

/// The MayBMS aggregates (§2.2) plus standard SQL aggregates.
#[derive(Debug, Clone)]
pub enum AggSpec {
    /// `conf()` — exact confidence of each group (t-certain output).
    Conf,
    /// `aconf(ε, δ)` — (ε, δ)-approximate confidence.
    AConf {
        /// Relative error bound.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
    },
    /// `tconf()` — per-tuple marginal probability (not grouped).
    TConf,
    /// `esum(expr)` — expected sum, by linearity of expectation.
    ESum(EExpr),
    /// `ecount()` / `ecount(expr)` — expected count.
    ECount(Option<EExpr>),
    /// `argmax(arg, value)` — all arg values attaining the group maximum.
    ArgMax {
        /// Output expression.
        arg: EExpr,
        /// Ranked expression.
        value: EExpr,
    },
    /// Standard SQL aggregate (t-certain input only): sum/count/avg/min/max.
    Std {
        /// Which function.
        func: maybms_engine::ops::AggFunc,
        /// Argument (`None` = `count(*)`).
        arg: Option<EExpr>,
    },
}

/// A classified select item: either a scalar expression or an aggregate.
#[derive(Debug, Clone)]
pub enum Item {
    /// Plain expression (must be matched by GROUP BY when aggregating).
    Scalar {
        /// The translated expression.
        expr: EExpr,
        /// Output name.
        name: String,
    },
    /// Aggregate call.
    Agg {
        /// The aggregate.
        spec: AggSpec,
        /// Output name.
        name: String,
    },
}

/// Classify one select item. `default_name` feeds unnamed expressions.
pub fn classify_item(expr: &SExpr, alias: Option<&str>, position: usize) -> Result<Item> {
    if let SExpr::Func { name, args, star } = expr {
        let lname = name.to_ascii_lowercase();
        let out_name = alias.map(str::to_string).unwrap_or_else(|| lname.clone());
        let float_arg = |e: &SExpr, what: &str| -> Result<f64> {
            match e {
                SExpr::Lit(Lit::Float(x)) => Ok(*x),
                SExpr::Lit(Lit::Int(i)) => Ok(*i as f64),
                _ => Err(plan_err(format!("{what} expects a numeric literal"))),
            }
        };
        let spec = match lname.as_str() {
            "conf" => {
                if !args.is_empty() || *star {
                    return Err(plan_err("conf() takes no arguments"));
                }
                AggSpec::Conf
            }
            "aconf" => {
                if args.len() != 2 {
                    return Err(plan_err("aconf(epsilon, delta) takes two arguments"));
                }
                let epsilon = float_arg(&args[0], "aconf epsilon")?;
                let delta = float_arg(&args[1], "aconf delta")?;
                // Checked here, not by the estimator: a group-less run or
                // an exact answer never reaches the sampler's own check.
                for (what, x) in [("epsilon", epsilon), ("delta", delta)] {
                    if !(x > 0.0 && x < 1.0) {
                        return Err(plan_err(format!("aconf {what} {x} outside (0, 1)")));
                    }
                }
                AggSpec::AConf { epsilon, delta }
            }
            "tconf" => {
                if !args.is_empty() || *star {
                    return Err(plan_err("tconf() takes no arguments"));
                }
                AggSpec::TConf
            }
            "esum" => {
                if args.len() != 1 {
                    return Err(plan_err("esum(expr) takes one argument"));
                }
                AggSpec::ESum(scalar(&args[0])?)
            }
            "ecount" => match args.len() {
                0 => AggSpec::ECount(None),
                1 => AggSpec::ECount(Some(scalar(&args[0])?)),
                _ => return Err(plan_err("ecount([expr]) takes at most one argument")),
            },
            "argmax" => {
                if args.len() != 2 {
                    return Err(plan_err("argmax(arg, value) takes two arguments"));
                }
                AggSpec::ArgMax {
                    arg: scalar(&args[0])?,
                    value: scalar(&args[1])?,
                }
            }
            "sum" | "count" | "avg" | "min" | "max" => {
                use maybms_engine::ops::AggFunc;
                let func = match lname.as_str() {
                    "sum" => AggFunc::Sum,
                    "count" => AggFunc::Count,
                    "avg" => AggFunc::Avg,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    _ => unreachable!(),
                };
                let arg = if *star {
                    if lname != "count" {
                        return Err(plan_err(format!("{lname}(*) is not valid")));
                    }
                    None
                } else if args.is_empty() {
                    if lname == "count" {
                        None
                    } else {
                        return Err(plan_err(format!("{lname}() requires an argument")));
                    }
                } else if args.len() == 1 {
                    Some(scalar(&args[0])?)
                } else {
                    return Err(plan_err(format!("{lname}() takes one argument")));
                };
                AggSpec::Std { func, arg }
            }
            other => {
                return Err(unsupported(format!("unknown function `{other}`")));
            }
        };
        return Ok(Item::Agg {
            spec,
            name: out_name,
        });
    }
    // Scalar item: derive a name.
    let name = alias.map(str::to_string).unwrap_or_else(|| match expr {
        SExpr::Ident { name, .. } => name.clone(),
        _ => format!("column{}", position + 1),
    });
    Ok(Item::Scalar {
        expr: scalar(expr)?,
        name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_sql::parse_expr;

    #[test]
    fn scalar_translation_basics() {
        let e = scalar(&parse_expr("r1.p * 2 + 1").unwrap()).unwrap();
        assert_eq!(e.to_string(), "((r1.p * 2) + 1)");
        let e = scalar(&parse_expr("x is not null and y in (1, 2)").unwrap()).unwrap();
        assert_eq!(e.to_string(), "((x IS NOT NULL) AND (y IN (1, 2)))");
    }

    #[test]
    fn type_names() {
        assert_eq!(data_type_of("bigint").unwrap(), DataType::Int);
        assert_eq!(data_type_of("DOUBLE PRECISION").unwrap(), DataType::Float);
        assert_eq!(data_type_of("text").unwrap(), DataType::Text);
        assert!(data_type_of("jsonb").is_err());
    }

    #[test]
    fn classify_conf_and_aconf() {
        let item = classify_item(&parse_expr("conf()").unwrap(), Some("p"), 0).unwrap();
        assert!(matches!(item, Item::Agg { spec: AggSpec::Conf, ref name } if name == "p"));
        let item = classify_item(&parse_expr("aconf(0.1, 0.05)").unwrap(), None, 0).unwrap();
        match item {
            Item::Agg {
                spec: AggSpec::AConf { epsilon, delta },
                name,
            } => {
                assert_eq!(epsilon, 0.1);
                assert_eq!(delta, 0.05);
                assert_eq!(name, "aconf");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classify_expectation_aggregates() {
        assert!(matches!(
            classify_item(&parse_expr("esum(salary)").unwrap(), None, 0).unwrap(),
            Item::Agg {
                spec: AggSpec::ESum(_),
                ..
            }
        ));
        assert!(matches!(
            classify_item(&parse_expr("ecount()").unwrap(), None, 0).unwrap(),
            Item::Agg {
                spec: AggSpec::ECount(None),
                ..
            }
        ));
    }

    #[test]
    fn classify_std_aggregates_and_count_star() {
        assert!(matches!(
            classify_item(&parse_expr("count(*)").unwrap(), None, 0).unwrap(),
            Item::Agg {
                spec: AggSpec::Std { arg: None, .. },
                ..
            }
        ));
        assert!(classify_item(&parse_expr("sum(*)").unwrap(), None, 0).is_err());
        assert!(classify_item(&parse_expr("sum()").unwrap(), None, 0).is_err());
    }

    #[test]
    fn bad_aggregate_arguments_rejected() {
        assert!(classify_item(&parse_expr("conf(1)").unwrap(), None, 0).is_err());
        assert!(classify_item(&parse_expr("aconf(0.1)").unwrap(), None, 0).is_err());
        assert!(classify_item(&parse_expr("aconf(x, 0.1)").unwrap(), None, 0).is_err());
        for bad in [
            "aconf(2.0, 0.5)",
            "aconf(0, 0.5)",
            "aconf(1, 0.5)",
            "aconf(0.1, 1.5)",
        ] {
            let err = classify_item(&parse_expr(bad).unwrap(), None, 0).unwrap_err();
            assert!(
                matches!(err, crate::error::CoreError::Plan { .. }),
                "{bad}: {err:?}"
            );
        }
        assert!(classify_item(&parse_expr("argmax(a)").unwrap(), None, 0).is_err());
        assert!(classify_item(&parse_expr("frobnicate(x)").unwrap(), None, 0).is_err());
    }

    #[test]
    fn scalar_rejects_nested_aggregates() {
        assert!(scalar(&parse_expr("conf() + 1").unwrap()).is_err());
    }

    #[test]
    fn default_names() {
        let item = classify_item(&parse_expr("a + 1").unwrap(), None, 2).unwrap();
        assert!(matches!(item, Item::Scalar { ref name, .. } if name == "column3"));
        let item = classify_item(&parse_expr("player").unwrap(), None, 0).unwrap();
        assert!(matches!(item, Item::Scalar { ref name, .. } if name == "player"));
    }
}
