//! Abstract syntax tree for the MayBMS query language (§2.2).
//!
//! The AST covers the SQL subset the paper's system exposes plus all
//! uncertainty constructs: `repair key … in … weight by …`,
//! `pick tuples from … [independently] [with probability …]`, the
//! confidence aggregates `conf`/`aconf`/`tconf`, `possible`, the
//! expectation aggregates `esum`/`ecount`, and `argmax`.
//!
//! Every node implements [`std::fmt::Display`], printing valid SQL that
//! re-parses to the same tree (checked by round-trip property tests).

use std::fmt;

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// NULL.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Null => f.write_str("NULL"),
            Lit::Bool(true) => f.write_str("TRUE"),
            Lit::Bool(false) => f.write_str("FALSE"),
            Lit::Int(i) => write!(f, "{i}"),
            Lit::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Lit::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// Binary operators (SQL surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the operators they name
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        };
        f.write_str(s)
    }
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified (`r1.player`).
    Ident {
        /// Relation alias, when written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal.
    Lit(Lit),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `-expr`.
    Neg(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// Candidates.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr IN (SELECT …)` — the paper allows uncertain subqueries in
    /// IN-conditions that occur *positively*, so there is no `NOT` form.
    InSelect {
        /// Probe expression.
        expr: Box<Expr>,
        /// Subquery (must produce one column).
        query: Box<Query>,
    },
    /// `CASE WHEN … THEN … [ELSE …] END`.
    Case {
        /// `(condition, result)` branches.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE result.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Type name as written (`bigint`, `double precision`, `text`, …).
        type_name: String,
    },
    /// Function or aggregate call: `conf()`, `aconf(0.05, 0.05)`,
    /// `esum(x)`, `sum(x)`, `argmax(a, v)`, `count(*)`, …
    Func {
        /// Function name (case-insensitive).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// True for `f(*)` (only `count(*)`).
        star: bool,
    },
}

impl Expr {
    /// Unqualified identifier.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Qualified identifier.
    pub fn qident(q: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Ident {
            qualifier: Some(q.into()),
            name: name.into(),
        }
    }

    /// `left op right`.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Walk the tree, calling `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Ident { .. } | Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Not(e) | Expr::Neg(e) => e.walk(f),
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSelect { expr, .. } => expr.walk(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.walk(f);
                    r.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Ident {
                qualifier: Some(q),
                name,
            } => write!(f, "{q}.{name}"),
            Expr::Ident {
                qualifier: None,
                name,
            } => write!(f, "{name}"),
            Expr::Lit(l) => write!(f, "{l}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
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
            Expr::InSelect { expr, query } => write!(f, "({expr} IN ({query}))"),
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
            Expr::Cast { expr, type_name } => write!(f, "CAST({expr} AS {type_name})"),
            Expr::Func { name, args, star } => {
                write!(f, "{name}(")?;
                if *star {
                    write!(f, "*")?;
                } else {
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")
            }
        }
    }
}

/// One item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// Expression with optional output alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`, when written.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => write!(f, "{expr} AS {a}"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
        }
    }
}

/// The input of `repair key` / `pick tuples`: a bare table name or a
/// parenthesised subquery (the paper's `<t-certain-query>`).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryInput {
    /// Named table.
    Table(String),
    /// Subquery.
    Select(Box<Query>),
}

impl fmt::Display for QueryInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryInput::Table(t) => write!(f, "{t}"),
            QueryInput::Select(q) => write!(f, "({q})"),
        }
    }
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// `name [alias]`
    Table {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `(SELECT …) alias`
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
    /// `(REPAIR KEY k1, k2 IN input [WEIGHT BY e]) [alias]` — §2.2(2).
    RepairKey {
        /// Key attributes.
        key: Vec<String>,
        /// Input query (must be t-certain).
        input: QueryInput,
        /// Optional weight expression.
        weight: Option<Expr>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `(PICK TUPLES FROM input [INDEPENDENTLY] [WITH PROBABILITY e]) [alias]`
    /// — §2.2(2).
    PickTuples {
        /// Input query (must be t-certain).
        input: QueryInput,
        /// `INDEPENDENTLY` flag.
        independently: bool,
        /// Optional per-tuple probability expression.
        probability: Option<Expr>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `left JOIN right ON condition` (sugar over cross join + filter).
    Join {
        /// Left input.
        left: Box<FromItem>,
        /// Right input.
        right: Box<FromItem>,
        /// Join condition.
        on: Expr,
    },
}

impl FromItem {
    /// The alias under which this item's columns are visible, if any.
    pub fn alias(&self) -> Option<&str> {
        match self {
            FromItem::Table { alias, name } => alias.as_deref().or(Some(name)),
            FromItem::Subquery { alias, .. } => Some(alias),
            FromItem::RepairKey { alias, .. } | FromItem::PickTuples { alias, .. } => {
                alias.as_deref()
            }
            FromItem::Join { .. } => None,
        }
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Table {
                name,
                alias: Some(a),
            } => write!(f, "{name} {a}"),
            FromItem::Table { name, alias: None } => write!(f, "{name}"),
            FromItem::Subquery { query, alias } => write!(f, "({query}) {alias}"),
            FromItem::RepairKey {
                key,
                input,
                weight,
                alias,
            } => {
                write!(f, "(REPAIR KEY {} IN {input}", key.join(", "))?;
                if let Some(w) = weight {
                    write!(f, " WEIGHT BY {w}")?;
                }
                write!(f, ")")?;
                if let Some(a) = alias {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            FromItem::PickTuples {
                input,
                independently,
                probability,
                alias,
            } => {
                write!(f, "(PICK TUPLES FROM {input}")?;
                if *independently {
                    write!(f, " INDEPENDENTLY")?;
                }
                if let Some(p) = probability {
                    write!(f, " WITH PROBABILITY {p}")?;
                }
                write!(f, ")")?;
                if let Some(a) = alias {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            FromItem::Join { left, right, on } => {
                write!(f, "{left} JOIN {right} ON {on}")
            }
        }
    }
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Key expression.
    pub expr: Expr,
    /// Ascending?
    pub ascending: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.expr,
            if self.ascending { "" } else { " DESC" }
        )
    }
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT` (rejected on uncertain inputs by the planner).
    pub distinct: bool,
    /// `SELECT POSSIBLE` — §2.2(1): filters zero-probability tuples and
    /// deduplicates, mapping uncertain to t-certain.
    pub possible: bool,
    /// Output columns.
    pub items: Vec<SelectItem>,
    /// FROM items (comma = cross join).
    pub from: Vec<FromItem>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate (over a t-certain aggregate result).
    pub having: Option<Expr>,
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.possible {
            write!(f, "POSSIBLE ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, item) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

/// A full query: a UNION chain of SELECT blocks with optional ORDER BY and
/// LIMIT. Per §2.2, `union` on uncertain relations is *multiset* union.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The first SELECT block.
    pub first: Select,
    /// Further blocks: `(is_union_all, select)`.
    pub rest: Vec<(bool, Select)>,
    /// ORDER BY keys (applied to the union result).
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<u64>,
}

impl Query {
    /// A query that is a single SELECT block.
    pub fn single(select: Select) -> Query {
        Query {
            first: select,
            rest: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// All SELECT blocks in order.
    pub fn selects(&self) -> impl Iterator<Item = &Select> {
        std::iter::once(&self.first).chain(self.rest.iter().map(|(_, s)| s))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.first)?;
        for (all, s) in &self.rest {
            write!(f, " UNION {}{s}", if *all { "ALL " } else { "" })?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}")?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Type name as written.
    pub type_name: String,
}

impl fmt::Display for ColumnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.type_name)
    }
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Select(Query),
    /// `EXPLAIN [ANALYZE] query` — runs the query and reports the
    /// optimized evaluation structure: the pipelines the morsel-driven
    /// executor fused, their stages, and the breakers between them (the
    /// substrate is in-memory, so running is the cheapest way to an
    /// honest plan). With `ANALYZE`, each pipeline additionally reports
    /// measured per-stage row counts, morsels, wall time, and the
    /// confidence-estimator effort.
    Explain {
        /// The explained query.
        query: Query,
        /// `EXPLAIN ANALYZE`: attach the per-query stats collector and
        /// print measured execution statistics.
        analyze: bool,
    },
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE TABLE name AS query` — how Figure 1 materialises `FT2`.
    CreateTableAs {
        /// Table name.
        name: String,
        /// Defining query.
        query: Query,
    },
    /// `INSERT INTO name [(cols)] VALUES (…), … | query`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Rows or a source query.
        source: InsertSource,
    },
    /// `UPDATE name SET col = e, … [WHERE p]`.
    Update {
        /// Target table.
        table: String,
        /// `col = expr` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional row filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE p]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional row filter.
        filter: Option<Expr>,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    Drop {
        /// Target table.
        table: String,
        /// Suppress the missing-table error.
        if_exists: bool,
    },
}

/// The data source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // statements are transient parse products
pub enum InsertSource {
    /// `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t query`.
    Query(Query),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(q) => write!(f, "{q}"),
            Statement::Explain {
                query,
                analyze: false,
            } => write!(f, "EXPLAIN {query}"),
            Statement::Explain {
                query,
                analyze: true,
            } => {
                write!(f, "EXPLAIN ANALYZE {query}")
            }
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Statement::CreateTableAs { name, query } => {
                write!(f, "CREATE TABLE {name} AS {query}")
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        write!(f, " VALUES ")?;
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "(")?;
                            for (j, e) in row.iter().enumerate() {
                                if j > 0 {
                                    write!(f, ", ")?;
                                }
                                write!(f, "{e}")?;
                            }
                            write!(f, ")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Query(q) => write!(f, " {q}"),
                }
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::Drop { table, if_exists } => {
                write!(
                    f,
                    "DROP TABLE {}{table}",
                    if *if_exists { "IF EXISTS " } else { "" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_select_item_variants() {
        assert_eq!(SelectItem::Wildcard.to_string(), "*");
        assert_eq!(
            SelectItem::QualifiedWildcard("r1".into()).to_string(),
            "r1.*"
        );
        assert_eq!(
            SelectItem::Expr {
                expr: Expr::ident("x"),
                alias: Some("y".into())
            }
            .to_string(),
            "x AS y"
        );
    }

    #[test]
    fn display_repair_key_matches_paper_shape() {
        let item = FromItem::RepairKey {
            key: vec!["Player".into(), "Init".into()],
            input: QueryInput::Table("FT".into()),
            weight: Some(Expr::ident("p")),
            alias: Some("R1".into()),
        };
        assert_eq!(
            item.to_string(),
            "(REPAIR KEY Player, Init IN FT WEIGHT BY p) R1"
        );
    }

    #[test]
    fn display_pick_tuples() {
        let item = FromItem::PickTuples {
            input: QueryInput::Table("R".into()),
            independently: true,
            probability: Some(Expr::Lit(Lit::Float(0.5))),
            alias: None,
        };
        assert_eq!(
            item.to_string(),
            "(PICK TUPLES FROM R INDEPENDENTLY WITH PROBABILITY 0.5)"
        );
    }

    #[test]
    fn string_literal_escaping_in_display() {
        assert_eq!(Lit::Str("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn from_item_alias_fallback() {
        let t = FromItem::Table {
            name: "FT".into(),
            alias: None,
        };
        assert_eq!(t.alias(), Some("FT"));
        let t = FromItem::Table {
            name: "FT".into(),
            alias: Some("r1".into()),
        };
        assert_eq!(t.alias(), Some("r1"));
    }

    #[test]
    fn expr_walk_visits_all_nodes() {
        let e = Expr::binary(
            Expr::ident("a"),
            BinOp::And,
            Expr::Not(Box::new(Expr::ident("b"))),
        );
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4); // And, a, Not, b
    }
}
