//! Parser and lexer errors.

use std::fmt;

/// Error from lexing or parsing MayBMS SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Lexical error.
    Lex {
        /// What went wrong.
        message: String,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        col: u32,
        /// The offending source line.
        snippet: String,
    },
    /// Syntax error.
    Syntax {
        /// What went wrong (usually "expected X, found Y").
        message: String,
        /// 1-based source line (0 when at end of input).
        line: u32,
        /// 1-based source column (0 when at end of input).
        col: u32,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex {
                message,
                line,
                col,
                snippet,
            } => {
                writeln!(f, "lex error at {line}:{col}: {message}")?;
                write!(f, "  | {snippet}")
            }
            ParseError::Syntax {
                message,
                line: 0,
                col: 0,
            } => {
                write!(f, "syntax error at end of input: {message}")
            }
            ParseError::Syntax { message, line, col } => {
                write!(f, "syntax error at {line}:{col}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Result alias for the SQL frontend.
pub type Result<T> = std::result::Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_and_snippet() {
        let e = ParseError::Lex {
            message: "bad char".into(),
            line: 2,
            col: 7,
            snippet: "select $x".into(),
        };
        let s = e.to_string();
        assert!(s.contains("2:7"));
        assert!(s.contains("select $x"));
    }

    #[test]
    fn end_of_input_formatting() {
        let e = ParseError::Syntax {
            message: "expected FROM".into(),
            line: 0,
            col: 0,
        };
        assert!(e.to_string().contains("end of input"));
    }
}
