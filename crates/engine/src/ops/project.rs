//! Projection (π) items — SQL `SELECT` list semantics (the π stage
//! itself lives in `maybms-pipe`).

use crate::expr::Expr;

/// One output column: an expression and its output name.
#[derive(Debug, Clone)]
pub struct ProjectItem {
    /// Expression computing the column.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

impl ProjectItem {
    /// Construct an item.
    pub fn new(expr: Expr, name: impl Into<String>) -> ProjectItem {
        ProjectItem {
            expr,
            name: name.into(),
        }
    }

    /// A bare column kept under its own name.
    pub fn col(name: impl Into<String>) -> ProjectItem {
        let name = name.into();
        ProjectItem {
            expr: Expr::col(name.clone()),
            name,
        }
    }
}
