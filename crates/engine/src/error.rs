//! Error types for the relational engine.

use std::fmt;

/// Error raised by engine operations (schema resolution, expression
/// evaluation, operator execution, catalog lookups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A referenced column does not exist in the input schema.
    ColumnNotFound {
        /// The column reference as written (possibly qualified).
        name: String,
        /// The columns that were available.
        available: Vec<String>,
    },
    /// A column reference matched more than one column.
    AmbiguousColumn {
        /// The column reference as written.
        name: String,
    },
    /// A referenced table does not exist in the catalog.
    TableNotFound {
        /// The missing table's name.
        name: String,
    },
    /// A table with this name already exists in the catalog.
    TableExists {
        /// The duplicate table's name.
        name: String,
    },
    /// An expression was applied to values of incompatible types.
    TypeMismatch {
        /// Human-readable description of the offending operation.
        message: String,
    },
    /// Arithmetic failure: division by zero, overflow, or a NaN result.
    Arithmetic {
        /// Human-readable description.
        message: String,
    },
    /// Rows with differing arity/type were supplied where a uniform
    /// schema was required.
    SchemaMismatch {
        /// Human-readable description.
        message: String,
    },
    /// An operator received an invalid configuration (e.g. empty key list
    /// for a hash join).
    InvalidOperator {
        /// Human-readable description.
        message: String,
    },
    /// An unbound column index reached the evaluator.
    UnboundExpression {
        /// The textual form of the unbound expression.
        expr: String,
    },
    /// The statement was aborted by the query governor (cancellation,
    /// deadline, or memory budget) at a cooperative checkpoint.
    Gov(maybms_gov::GovError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ColumnNotFound { name, available } => {
                write!(
                    f,
                    "column `{name}` not found; available: {}",
                    available.join(", ")
                )
            }
            EngineError::AmbiguousColumn { name } => {
                write!(f, "column reference `{name}` is ambiguous")
            }
            EngineError::TableNotFound { name } => write!(f, "table `{name}` not found"),
            EngineError::TableExists { name } => write!(f, "table `{name}` already exists"),
            EngineError::TypeMismatch { message } => write!(f, "type mismatch: {message}"),
            EngineError::Arithmetic { message } => write!(f, "arithmetic error: {message}"),
            EngineError::SchemaMismatch { message } => write!(f, "schema mismatch: {message}"),
            EngineError::InvalidOperator { message } => write!(f, "invalid operator: {message}"),
            EngineError::UnboundExpression { expr } => {
                write!(
                    f,
                    "expression `{expr}` was not bound to a schema before evaluation"
                )
            }
            EngineError::Gov(g) => write!(f, "{g}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<maybms_gov::GovError> for EngineError {
    fn from(g: maybms_gov::GovError) -> EngineError {
        EngineError::Gov(g)
    }
}

/// Convenient result alias used across the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found_lists_alternatives() {
        let e = EngineError::ColumnNotFound {
            name: "player".into(),
            available: vec!["init".into(), "final".into()],
        };
        let s = e.to_string();
        assert!(s.contains("player"));
        assert!(s.contains("init, final"));
    }

    #[test]
    fn display_variants_are_distinct() {
        let errs = [
            EngineError::TableNotFound { name: "ft".into() }.to_string(),
            EngineError::TableExists { name: "ft".into() }.to_string(),
            EngineError::TypeMismatch {
                message: "int vs text".into(),
            }
            .to_string(),
            EngineError::Arithmetic {
                message: "division by zero".into(),
            }
            .to_string(),
        ];
        for (i, a) in errs.iter().enumerate() {
            for b in errs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&EngineError::AmbiguousColumn { name: "x".into() });
    }
}
