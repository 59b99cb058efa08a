//! Errors for MayBMS query processing.

use std::fmt;

use maybms_engine::EngineError;
use maybms_sql::ParseError;
use maybms_store::StoreError;
use maybms_urel::UrelError;

/// Error raised while planning or executing a MayBMS statement.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Lex/parse failure.
    Parse(ParseError),
    /// Relational-engine failure.
    Engine(EngineError),
    /// U-relational-layer failure.
    Urel(UrelError),
    /// Durability-layer failure (WAL append, checkpoint, recovery).
    Store(StoreError),
    /// The statement violates a MayBMS typing rule (§2.2) — e.g. standard
    /// SQL aggregates over an uncertain relation.
    Typing {
        /// What rule was violated.
        message: String,
    },
    /// The statement is outside the supported language fragment.
    Unsupported {
        /// What construct is unsupported.
        message: String,
    },
    /// Planner-level error (bad aggregate arguments, select items not in
    /// GROUP BY, …).
    Plan {
        /// Description.
        message: String,
    },
    /// A statement panicked; the panic was caught at the statement
    /// boundary and the engine is still usable.
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl CoreError {
    /// The governor abort behind this error, if that is what it is —
    /// however deeply it is nested ([`EngineError::Gov`] directly or via
    /// the u-relational layer).
    pub fn gov_abort(&self) -> Option<&maybms_gov::GovError> {
        match self {
            CoreError::Engine(EngineError::Gov(g)) => Some(g),
            CoreError::Urel(UrelError::Engine(EngineError::Gov(g))) => Some(g),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(e) => write!(f, "{e}"),
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::Urel(e) => write!(f, "{e}"),
            CoreError::Store(e) => write!(f, "{e}"),
            CoreError::Typing { message } => write!(f, "typing error: {message}"),
            CoreError::Unsupported { message } => write!(f, "unsupported: {message}"),
            CoreError::Plan { message } => write!(f, "plan error: {message}"),
            CoreError::Internal { message } => {
                write!(f, "internal error (statement panicked): {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Parse(e) => Some(e),
            CoreError::Engine(e) => Some(e),
            CoreError::Urel(e) => Some(e),
            CoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<UrelError> for CoreError {
    fn from(e: UrelError) -> Self {
        match e {
            UrelError::Typing { message } => CoreError::Typing { message },
            e => CoreError::Urel(e),
        }
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Shorthand constructors used across the planner.
pub(crate) fn typing(message: impl Into<String>) -> CoreError {
    CoreError::Typing {
        message: message.into(),
    }
}

pub(crate) fn unsupported(message: impl Into<String>) -> CoreError {
    CoreError::Unsupported {
        message: message.into(),
    }
}

pub(crate) fn plan_err(message: impl Into<String>) -> CoreError {
    CoreError::Plan {
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = EngineError::TableNotFound { name: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = UrelError::NotTCertain {
            operation: "repair key".into(),
        }
        .into();
        assert!(e.to_string().contains("t-certain"));
        let e = typing("sum on uncertain relation");
        assert!(e.to_string().contains("typing error"));
    }
}
