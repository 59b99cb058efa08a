//! Errors for the U-relational layer.

use std::fmt;

use maybms_engine::EngineError;

/// Error raised by U-relation construction and algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum UrelError {
    /// An underlying relational-engine error.
    Engine(EngineError),
    /// An operation that requires a t-certain input received an uncertain
    /// one (e.g. `repair key` over an uncertain relation, §2.2).
    NotTCertain {
        /// The operation that was attempted.
        operation: String,
    },
    /// A `weight by` expression produced an unusable weight.
    BadWeight {
        /// Description (negative, NaN, non-numeric, all-zero group, …).
        message: String,
    },
    /// A `with probability` expression produced a value outside [0, 1].
    BadProbability {
        /// Description.
        message: String,
    },
    /// A variable id was used that the world table does not know.
    UnknownVariable {
        /// The variable id.
        var: u32,
    },
    /// An alternative index was out of range for its variable.
    BadAlternative {
        /// The variable id.
        var: u32,
        /// The offending alternative.
        alt: u16,
        /// The variable's domain size.
        domain: usize,
    },
    /// A probability distribution did not sum to 1 (or had invalid entries).
    BadDistribution {
        /// Description.
        message: String,
    },
    /// World enumeration was requested over a world set larger than the
    /// given limit.
    WorldLimitExceeded {
        /// Number of worlds represented.
        count: u128,
        /// The enumeration limit.
        limit: u128,
    },
    /// Vertical decomposition/recomposition received inconsistent pieces.
    BadDecomposition {
        /// Description.
        message: String,
    },
    /// A MayBMS typing rule (§2.2) that reads t-certainty off the rows,
    /// raised where the rows are read (the group breaker's fold).
    Typing {
        /// What rule was violated.
        message: String,
    },
}

impl fmt::Display for UrelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrelError::Engine(e) => write!(f, "{e}"),
            UrelError::NotTCertain { operation } => {
                write!(f, "{operation} requires a t-certain input relation")
            }
            UrelError::BadWeight { message } => write!(f, "invalid weight: {message}"),
            UrelError::BadProbability { message } => {
                write!(f, "invalid probability: {message}")
            }
            UrelError::UnknownVariable { var } => write!(f, "unknown variable x{var}"),
            UrelError::BadAlternative { var, alt, domain } => write!(
                f,
                "alternative {alt} out of range for variable x{var} (domain size {domain})"
            ),
            UrelError::BadDistribution { message } => {
                write!(f, "invalid distribution: {message}")
            }
            UrelError::WorldLimitExceeded { count, limit } => write!(
                f,
                "world set has {count} worlds, above the enumeration limit {limit}"
            ),
            UrelError::BadDecomposition { message } => {
                write!(f, "invalid vertical decomposition: {message}")
            }
            UrelError::Typing { message } => write!(f, "typing error: {message}"),
        }
    }
}

impl std::error::Error for UrelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UrelError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for UrelError {
    fn from(e: EngineError) -> Self {
        UrelError::Engine(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, UrelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_error_wraps_and_sources() {
        let e: UrelError = EngineError::TableNotFound { name: "ft".into() }.into();
        assert!(e.to_string().contains("ft"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_not_t_certain() {
        let e = UrelError::NotTCertain {
            operation: "repair key".into(),
        };
        assert!(e.to_string().contains("repair key"));
        assert!(e.to_string().contains("t-certain"));
    }
}
