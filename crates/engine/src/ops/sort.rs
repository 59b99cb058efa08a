//! `ORDER BY` keys (the sort breaker itself lives in `maybms-pipe`).

use crate::expr::Expr;

/// One ORDER BY key.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Key expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key on an expression.
    pub fn asc(expr: Expr) -> SortKey {
        SortKey {
            expr,
            ascending: true,
        }
    }

    /// Descending key on an expression.
    pub fn desc(expr: Expr) -> SortKey {
        SortKey {
            expr,
            ascending: false,
        }
    }
}
