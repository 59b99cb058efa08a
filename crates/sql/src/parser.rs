//! Recursive-descent parser for the MayBMS query language.
//!
//! Entry points: [`parse_statement`], [`parse_statements`], [`parse_query`],
//! [`parse_expr`]. The grammar is the SQL subset of §2.2 plus the
//! uncertainty constructs; the two Figure-1 programs parse verbatim (see
//! tests).

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::token::{Keyword as K, Spanned, Token};

/// Parse a single statement (optionally `;`-terminated).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat(&Token::Semi);
    p.expect_end()?;
    Ok(stmt)
}

/// Parse a `;`-separated script into statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semi) {}
        if p.at_end() {
            break;
        }
        out.push(p.statement()?);
        if !p.eat(&Token::Semi) {
            break;
        }
    }
    p.expect_end()?;
    Ok(out)
}

/// Parse a query (SELECT/UNION chain).
pub fn parse_query(sql: &str) -> Result<Query> {
    let mut p = Parser::new(sql)?;
    let q = p.query()?;
    p.eat(&Token::Semi);
    p.expect_end()?;
    Ok(q)
}

/// Parse a standalone scalar expression.
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(sql)?,
            pos: 0,
        })
    }

    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|s| &s.token)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: K) -> bool {
        self.eat(&Token::Kw(k))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        match self.tokens.get(self.pos) {
            Some(s) => ParseError::Syntax {
                message: format!("{}, found `{}`", message.into(), s.token),
                line: s.line,
                col: s.col,
            },
            None => ParseError::Syntax {
                message: message.into(),
                line: 0,
                col: 0,
            },
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{t}`")))
        }
    }

    fn expect_kw(&mut self, k: K) -> Result<()> {
        self.expect(&Token::Kw(k))
    }

    fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.error("expected end of input"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Token::Ident(_)) => match self.bump() {
                Some(Token::Ident(s)) => Ok(s),
                _ => unreachable!(),
            },
            // Permit non-reserved keywords as identifiers where harmless
            // (e.g. a column named `key` or `probability`).
            Some(Token::Kw(k))
                if matches!(k, K::Key | K::Probability | K::Weight | K::Values | K::Set) =>
            {
                let k = *k;
                self.pos += 1;
                Ok(k.to_string().to_ascii_lowercase())
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    // ---- statements ----------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Token::Kw(K::Select))
            | Some(Token::LParen)
            | Some(Token::Kw(K::Repair))
            | Some(Token::Kw(K::Pick)) => Ok(Statement::Select(self.query()?)),
            Some(Token::Kw(K::Explain)) => {
                self.expect_kw(K::Explain)?;
                let analyze = self.eat_kw(K::Analyze);
                Ok(Statement::Explain {
                    query: self.query()?,
                    analyze,
                })
            }
            Some(Token::Kw(K::Create)) => self.create(),
            Some(Token::Kw(K::Insert)) => self.insert(),
            Some(Token::Kw(K::Update)) => self.update(),
            Some(Token::Kw(K::Delete)) => self.delete(),
            Some(Token::Kw(K::Drop)) => self.drop_stmt(),
            _ => Err(self.error("expected a statement")),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw(K::Create)?;
        self.expect_kw(K::Table)?;
        let name = self.ident()?;
        if self.eat_kw(K::As) {
            let query = self.query()?;
            return Ok(Statement::CreateTableAs { name, query });
        }
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let mut type_name = self.ident()?;
            // multi-word types: `double precision`
            while let Some(Token::Ident(_)) = self.peek() {
                type_name.push(' ');
                type_name.push_str(&self.ident()?);
            }
            columns.push(ColumnDef {
                name: col,
                type_name,
            });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(K::Insert)?;
        self.expect_kw(K::Into)?;
        let table = self.ident()?;
        // Optional column list: `(a, b, c)` — only when followed by VALUES
        // or a query; distinguished by lookahead for `ident , | ident )`.
        let mut columns = None;
        if self.peek() == Some(&Token::LParen) {
            let is_col_list = matches!(self.peek_at(1), Some(Token::Ident(_)))
                && matches!(self.peek_at(2), Some(Token::Comma) | Some(Token::RParen));
            if is_col_list {
                self.expect(&Token::LParen)?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                columns = Some(cols);
            }
        }
        let source = if self.eat_kw(K::Values) {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(self.query()?)
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw(K::Update)?;
        let table = self.ident()?;
        self.expect_kw(K::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw(K::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw(K::Delete)?;
        self.expect_kw(K::From)?;
        let table = self.ident()?;
        let filter = if self.eat_kw(K::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn drop_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Drop)?;
        self.expect_kw(K::Table)?;
        let if_exists = if self.eat_kw(K::If) {
            self.expect_kw(K::Exists)?;
            true
        } else {
            false
        };
        let table = self.ident()?;
        Ok(Statement::Drop { table, if_exists })
    }

    // ---- queries ---------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        // Allow a bare `repair key …` / `pick tuples …` / parenthesised
        // construct as a whole query: sugar for `SELECT * FROM (…)`.
        let first = if matches!(
            self.peek(),
            Some(Token::Kw(K::Repair)) | Some(Token::Kw(K::Pick))
        ) {
            let item = self.repair_or_pick()?;
            Select {
                distinct: false,
                possible: false,
                items: vec![SelectItem::Wildcard],
                from: vec![item],
                where_clause: None,
                group_by: Vec::new(),
                having: None,
            }
        } else {
            self.select_block()?
        };
        let mut rest = Vec::new();
        while self.eat_kw(K::Union) {
            let all = self.eat_kw(K::All);
            rest.push((all, self.select_block()?));
        }
        let mut order_by = Vec::new();
        if self.eat_kw(K::Order) {
            self.expect_kw(K::By)?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw(K::Desc) {
                    false
                } else {
                    self.eat_kw(K::Asc);
                    true
                };
                order_by.push(OrderKey { expr, ascending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(K::Limit) {
            // Peek first: the error names the offending token itself.
            match self.peek() {
                Some(&Token::Int(n)) if n >= 0 => {
                    self.pos += 1;
                    Some(n as u64)
                }
                _ => return Err(self.error("expected a non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(Query {
            first,
            rest,
            order_by,
            limit,
        })
    }

    fn select_block(&mut self) -> Result<Select> {
        // Allow a parenthesised select block.
        if self.peek() == Some(&Token::LParen) {
            // Only treat as parenthesised select if it starts a SELECT.
            if matches!(self.peek_at(1), Some(Token::Kw(K::Select))) {
                self.expect(&Token::LParen)?;
                let s = self.select_block()?;
                self.expect(&Token::RParen)?;
                return Ok(s);
            }
        }
        self.expect_kw(K::Select)?;
        let distinct = self.eat_kw(K::Distinct);
        let possible = self.eat_kw(K::Possible);
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw(K::From) {
            loop {
                from.push(self.from_item()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw(K::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw(K::Group) {
            self.expect_kw(K::By)?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw(K::Having) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            possible,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(Token::Ident(_)), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let q = self.ident()?;
            self.expect(&Token::Dot)?;
            self.expect(&Token::Star)?;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(K::As) {
            Some(self.ident()?)
        } else if let Some(Token::Ident(_)) = self.peek() {
            // bare alias (`conf() p`)
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    #[allow(clippy::wrong_self_convention)] // parses the SQL FROM clause
    fn from_item(&mut self) -> Result<FromItem> {
        let mut item = self.from_item_primary()?;
        // JOIN … ON … chains (left-associative).
        while self.eat_kw(K::Join) {
            let right = self.from_item_primary()?;
            self.expect_kw(K::On)?;
            let on = self.expr()?;
            item = FromItem::Join {
                left: Box::new(item),
                right: Box::new(right),
                on,
            };
        }
        Ok(item)
    }

    #[allow(clippy::wrong_self_convention)] // parses the SQL FROM clause
    fn from_item_primary(&mut self) -> Result<FromItem> {
        if self.peek() == Some(&Token::LParen) {
            // (SELECT …) alias | (REPAIR KEY …) [alias] | (PICK TUPLES …) [alias]
            match self.peek_at(1) {
                Some(Token::Kw(K::Select)) => {
                    self.expect(&Token::LParen)?;
                    let query = self.query()?;
                    self.expect(&Token::RParen)?;
                    self.eat_kw(K::As);
                    let alias = self
                        .ident()
                        .map_err(|_| self.error("subquery in FROM requires an alias"))?;
                    return Ok(FromItem::Subquery {
                        query: Box::new(query),
                        alias,
                    });
                }
                Some(Token::Kw(K::Repair)) | Some(Token::Kw(K::Pick)) => {
                    self.expect(&Token::LParen)?;
                    let mut item = self.repair_or_pick()?;
                    self.expect(&Token::RParen)?;
                    self.eat_kw(K::As);
                    let alias = match self.peek() {
                        Some(Token::Ident(_)) => Some(self.ident()?),
                        _ => None,
                    };
                    match &mut item {
                        FromItem::RepairKey { alias: a, .. }
                        | FromItem::PickTuples { alias: a, .. } => *a = alias,
                        _ => unreachable!("repair_or_pick returns RepairKey/PickTuples"),
                    }
                    return Ok(item);
                }
                _ => {
                    // Parenthesised from-item: `(t alias)` — rare; support
                    // by recursing.
                    self.expect(&Token::LParen)?;
                    let item = self.from_item()?;
                    self.expect(&Token::RParen)?;
                    return Ok(item);
                }
            }
        }
        // Bare REPAIR KEY / PICK TUPLES without parens (paper §2.2 syntax).
        if matches!(
            self.peek(),
            Some(Token::Kw(K::Repair)) | Some(Token::Kw(K::Pick))
        ) {
            return self.repair_or_pick();
        }
        let name = self.ident()?;
        self.eat_kw(K::As);
        let alias = match self.peek() {
            Some(Token::Ident(_)) => Some(self.ident()?),
            _ => None,
        };
        Ok(FromItem::Table { name, alias })
    }

    /// Parses `REPAIR KEY k1, … IN input [WEIGHT BY e]` or
    /// `PICK TUPLES FROM input [INDEPENDENTLY] [WITH PROBABILITY e]`
    /// (without surrounding parens or alias).
    fn repair_or_pick(&mut self) -> Result<FromItem> {
        if self.eat_kw(K::Repair) {
            self.expect_kw(K::Key)?;
            // `repair key in R` repairs the empty key: exactly one tuple
            // survives per world.
            let mut key = Vec::new();
            if self.peek() != Some(&Token::Kw(K::In)) {
                loop {
                    key.push(self.ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_kw(K::In)?;
            let input = self.query_input()?;
            let weight = if self.eat_kw(K::Weight) {
                self.expect_kw(K::By)?;
                Some(self.expr()?)
            } else {
                None
            };
            Ok(FromItem::RepairKey {
                key,
                input,
                weight,
                alias: None,
            })
        } else {
            self.expect_kw(K::Pick)?;
            self.expect_kw(K::Tuples)?;
            self.expect_kw(K::From)?;
            let input = self.query_input()?;
            let independently = self.eat_kw(K::Independently);
            let probability = if self.eat_kw(K::With) {
                self.expect_kw(K::Probability)?;
                Some(self.expr()?)
            } else {
                None
            };
            Ok(FromItem::PickTuples {
                input,
                independently,
                probability,
                alias: None,
            })
        }
    }

    fn query_input(&mut self) -> Result<QueryInput> {
        if self.peek() == Some(&Token::LParen)
            && matches!(self.peek_at(1), Some(Token::Kw(K::Select)))
        {
            self.expect(&Token::LParen)?;
            let q = self.query()?;
            self.expect(&Token::RParen)?;
            Ok(QueryInput::Select(Box::new(q)))
        } else {
            Ok(QueryInput::Table(self.ident()?))
        }
    }

    // ---- expressions -----------------------------------------------------
    //
    // Precedence (loosest to tightest):
    //   OR < AND < NOT < (comparison | IS | IN | BETWEEN) < additive (+ - ||)
    //   < multiplicative (* / %) < unary - < postfix/primary

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw(K::Or) {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw(K::And) {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(K::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw(K::Is) {
            let negated = self.eat_kw(K::Not);
            self.expect_kw(K::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN a AND b is the two comparisons it abbreviates, so
        // the conjunct split and implied predicates see both bounds.
        let not_between = self.peek() == Some(&Token::Kw(K::Not))
            && self.peek_at(1) == Some(&Token::Kw(K::Between));
        if not_between || self.peek() == Some(&Token::Kw(K::Between)) {
            self.pos += 1 + not_between as usize;
            let low = self.additive()?;
            self.expect_kw(K::And)?;
            let high = self.additive()?;
            let (lo, hi, join) = match not_between {
                false => (BinOp::GtEq, BinOp::LtEq, BinOp::And),
                true => (BinOp::Lt, BinOp::Gt, BinOp::Or),
            };
            let below = Expr::binary(left.clone(), lo, low);
            return Ok(Expr::binary(below, join, Expr::binary(left, hi, high)));
        }
        // [NOT] IN (…)
        let (has_in, negated_in) = if self.eat_kw(K::Not) {
            self.expect_kw(K::In)?;
            (true, true)
        } else if self.eat_kw(K::In) {
            (true, false)
        } else {
            (false, false)
        };
        if has_in {
            self.expect(&Token::LParen)?;
            if matches!(self.peek(), Some(Token::Kw(K::Select))) {
                let q = self.query()?;
                self.expect(&Token::RParen)?;
                if negated_in {
                    return Err(self.error(
                        "NOT IN with a subquery is not supported (IN-subqueries must occur positively, §2.2)",
                    ));
                }
                return Ok(Expr::InSelect {
                    expr: Box::new(left),
                    query: Box::new(q),
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated: negated_in,
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Neq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                Some(Token::Concat) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            // Fold into a literal when possible, keeping `-0.5` a literal.
            match self.peek() {
                Some(Token::Int(_)) | Some(Token::Float(_)) => match self.bump() {
                    Some(Token::Int(i)) => return Ok(Expr::Lit(Lit::Int(-i))),
                    Some(Token::Float(x)) => return Ok(Expr::Lit(Lit::Float(-x))),
                    _ => unreachable!(),
                },
                _ => return Ok(Expr::Neg(Box::new(self.unary()?))),
            }
        }
        if self.eat(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Lit(Lit::Int(i)))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Ok(Expr::Lit(Lit::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Lit(Lit::Str(s)))
            }
            Some(Token::Kw(K::Null)) => {
                self.pos += 1;
                Ok(Expr::Lit(Lit::Null))
            }
            Some(Token::Kw(K::True)) => {
                self.pos += 1;
                Ok(Expr::Lit(Lit::Bool(true)))
            }
            Some(Token::Kw(K::False)) => {
                self.pos += 1;
                Ok(Expr::Lit(Lit::Bool(false)))
            }
            Some(Token::Kw(K::Case)) => self.case_expr(),
            Some(Token::Kw(K::Cast)) => self.cast_expr(),
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(_)) | Some(Token::Kw(_)) => {
                let name = self.ident()?;
                // function call?
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    if self.eat(&Token::Star) {
                        self.expect(&Token::RParen)?;
                        return Ok(Expr::Func {
                            name,
                            args: Vec::new(),
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Func {
                        name,
                        args,
                        star: false,
                    });
                }
                // qualified identifier?
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::qident(name, col));
                }
                Ok(Expr::ident(name))
            }
            _ => Err(self.error("expected an expression")),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw(K::Case)?;
        let mut branches = Vec::new();
        while self.eat_kw(K::When) {
            let c = self.expr()?;
            self.expect_kw(K::Then)?;
            let r = self.expr()?;
            branches.push((c, r));
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_kw(K::Else) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw(K::End)?;
        Ok(Expr::Case {
            branches,
            else_expr,
        })
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        self.expect_kw(K::Cast)?;
        self.expect(&Token::LParen)?;
        let e = self.expr()?;
        self.expect_kw(K::As)?;
        let mut type_name = self.ident()?;
        while let Some(Token::Ident(_)) = self.peek() {
            type_name.push(' ');
            type_name.push_str(&self.ident()?);
        }
        self.expect(&Token::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(e),
            type_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_statement_parses_and_roundtrips() {
        let stmt = parse_statement("explain select player from games where pts > 10").unwrap();
        let Statement::Explain {
            query,
            analyze: false,
        } = &stmt
        else {
            panic!("{stmt:?}")
        };
        assert_eq!(query.first.from.len(), 1);
        let printed = stmt.to_string();
        assert!(printed.starts_with("EXPLAIN SELECT"), "{printed}");
        assert_eq!(parse_statement(&printed).unwrap(), stmt);
        // EXPLAIN ANALYZE parses, roundtrips, and sets the flag.
        let stmt = parse_statement("explain analyze select player from games").unwrap();
        let Statement::Explain { analyze: true, .. } = &stmt else {
            panic!("{stmt:?}")
        };
        let printed = stmt.to_string();
        assert!(printed.starts_with("EXPLAIN ANALYZE SELECT"), "{printed}");
        assert_eq!(parse_statement(&printed).unwrap(), stmt);
        // EXPLAIN wraps a full query, UNION/ORDER BY included.
        assert!(parse_statement(
            "explain select a from t union select a from s order by a limit 3"
        )
        .is_ok());
        // EXPLAIN of a non-query is rejected.
        assert!(parse_statement("explain drop table t").is_err());
    }

    /// The first Figure-1 statement, verbatim from the paper.
    const FIGURE1_FT2: &str = "\
create table FT2 as
select R1.Player, R1.Init, R2.Final, conf() as p from
(repair key Player, Init in FT weight by p) R1,
(repair key Player, Init in FT weight by p) R2, States S
where R1.Player = S.Player and R1.Init = S.State
and R1.Final = R2.Init and R1.Player = R2.Player
group by R1.Player, R1.Init, R2.Final;";

    /// The second Figure-1 statement, verbatim from the paper.
    const FIGURE1_WALK: &str = "\
select R1.Player, R2.Final as State, conf() as p from
(repair key Player, Init in FT2 weight by p) R1,
(repair key Player, Init in FT weight by p) R2
where R1.Final = R2.Init and R1.Player = R2.Player
group by R1.player, R2.Final;";

    #[test]
    fn parses_figure1_create_table_as() {
        let stmt = parse_statement(FIGURE1_FT2).unwrap();
        let Statement::CreateTableAs { name, query } = stmt else {
            panic!("expected CREATE TABLE AS");
        };
        assert_eq!(name, "FT2");
        let s = &query.first;
        assert_eq!(s.items.len(), 4);
        assert_eq!(s.from.len(), 3);
        assert!(matches!(&s.from[0], FromItem::RepairKey { key, alias, .. }
            if key == &["Player".to_string(), "Init".to_string()]
            && alias.as_deref() == Some("R1")));
        assert!(matches!(&s.from[2], FromItem::Table { name, alias }
            if name == "States" && alias.as_deref() == Some("S")));
        assert_eq!(s.group_by.len(), 3);
        // conf() parsed as a zero-argument function with alias p
        assert!(matches!(&s.items[3], SelectItem::Expr {
            expr: Expr::Func { name, args, star: false }, alias: Some(a)
        } if name == "conf" && args.is_empty() && a == "p"));
    }

    #[test]
    fn parses_figure1_walk_query() {
        let stmt = parse_statement(FIGURE1_WALK).unwrap();
        let Statement::Select(q) = stmt else {
            panic!("expected SELECT")
        };
        assert_eq!(q.first.from.len(), 2);
        assert!(q.first.where_clause.is_some());
        assert_eq!(q.first.group_by.len(), 2);
    }

    #[test]
    fn roundtrip_figure1() {
        for sql in [FIGURE1_FT2, FIGURE1_WALK] {
            let a = parse_statement(sql).unwrap();
            let printed = a.to_string();
            let b = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
            assert_eq!(a, b, "print→parse not identity for {printed}");
        }
    }

    #[test]
    fn parses_pick_tuples_variants() {
        let q =
            parse_query("select * from (pick tuples from R independently with probability 0.3) S")
                .unwrap();
        assert!(matches!(&q.first.from[0], FromItem::PickTuples {
            independently: true, probability: Some(_), alias: Some(a), ..
        } if a == "S"));

        let q = parse_query("select * from (pick tuples from R)").unwrap();
        assert!(matches!(
            &q.first.from[0],
            FromItem::PickTuples {
                independently: false,
                probability: None,
                alias: None,
                ..
            }
        ));
    }

    #[test]
    fn repair_key_with_empty_attribute_list() {
        // `repair key in R` — repair of the empty key (§2.2): one surviving
        // tuple per world.
        let q = parse_query("select * from (repair key in T weight by w) R").unwrap();
        let FromItem::RepairKey { key, .. } = &q.first.from[0] else {
            panic!()
        };
        assert!(key.is_empty());
    }

    #[test]
    fn bare_repair_key_as_query() {
        let q = parse_query("repair key a in T weight by w").unwrap();
        assert!(matches!(&q.first.from[0], FromItem::RepairKey { .. }));
        assert_eq!(q.first.items, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn repair_key_over_subquery_input() {
        let q = parse_query(
            "select * from (repair key k in (select k, v from T where v > 0) weight by v) R",
        )
        .unwrap();
        let FromItem::RepairKey {
            input: QueryInput::Select(sub),
            ..
        } = &q.first.from[0]
        else {
            panic!("expected repair key over subquery");
        };
        assert!(sub.first.where_clause.is_some());
    }

    #[test]
    fn select_possible() {
        let q = parse_query("select possible Player from R").unwrap();
        assert!(q.first.possible);
        assert!(!q.first.distinct);
    }

    #[test]
    fn aconf_with_arguments() {
        let q = parse_query("select aconf(0.05, 0.01) as p from R group by x").unwrap();
        let SelectItem::Expr {
            expr: Expr::Func { name, args, .. },
            ..
        } = &q.first.items[0]
        else {
            panic!()
        };
        assert_eq!(name, "aconf");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn esum_ecount_argmax_tconf() {
        let q = parse_query(
            "select esum(salary), ecount(), argmax(player, score), tconf() from R group by team",
        )
        .unwrap();
        let names: Vec<&str> = q
            .first
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr {
                    expr: Expr::Func { name, .. },
                    ..
                } => name.as_str(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(names, vec!["esum", "ecount", "argmax", "tconf"]);
    }

    #[test]
    fn union_all_chain_with_order_limit() {
        let q = parse_query(
            "select a from R union all select a from S union select a from T order by a desc limit 5",
        )
        .unwrap();
        assert_eq!(q.rest.len(), 2);
        assert!(q.rest[0].0); // union all
        assert!(!q.rest[1].0); // plain union
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].ascending);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn in_subquery_positive_only() {
        let q = parse_query("select a from R where a in (select b from S)").unwrap();
        assert!(matches!(q.first.where_clause, Some(Expr::InSelect { .. })));
        assert!(parse_query("select a from R where a not in (select b from S)").is_err());
    }

    #[test]
    fn between_is_two_comparisons() {
        let e = parse_expr("x between 1 and y + 2 and z").unwrap();
        assert_eq!(e.to_string(), "(((x >= 1) AND (x <= (y + 2))) AND z)");
        let e = parse_expr("x not between 1 and 2").unwrap();
        assert_eq!(e.to_string(), "((x < 1) OR (x > 2))");
        assert!(parse_expr("x between 1").is_err());
    }

    #[test]
    fn in_list_and_not_in_list() {
        let e = parse_expr("x in (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: false, .. }));
        let e = parse_expr("x not in (1)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("a + b * c = d and e or not f").unwrap();
        // ((((a + (b*c)) = d) AND e) OR (NOT f))
        assert_eq!(e.to_string(), "((((a + (b * c)) = d) AND e) OR (NOT f))");
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Lit(Lit::Int(-5)));
        assert_eq!(parse_expr("-0.5").unwrap(), Expr::Lit(Lit::Float(-0.5)));
        assert!(matches!(parse_expr("-x").unwrap(), Expr::Neg(_)));
    }

    #[test]
    fn case_and_cast() {
        let e = parse_expr("case when x > 0 then 'pos' else 'neg' end").unwrap();
        assert!(matches!(e, Expr::Case { .. }));
        let e = parse_expr("cast(x as double precision)").unwrap();
        assert!(matches!(e, Expr::Cast { type_name, .. } if type_name == "double precision"));
    }

    #[test]
    fn create_insert_update_delete_drop() {
        let s = parse_statement("create table t (a bigint, b double precision, c text)").unwrap();
        assert!(matches!(s, Statement::CreateTable { ref columns, .. } if columns.len() == 3));

        let s = parse_statement("insert into t values (1, 2.5, 'x'), (2, 3.5, 'y')").unwrap();
        assert!(
            matches!(s, Statement::Insert { source: InsertSource::Values(ref v), .. }
            if v.len() == 2)
        );

        let s = parse_statement("insert into t (a, b) select a, b from s").unwrap();
        assert!(matches!(s, Statement::Insert { columns: Some(ref c), .. } if c.len() == 2));

        let s = parse_statement("update t set a = a + 1 where b > 0").unwrap();
        assert!(
            matches!(s, Statement::Update { ref assignments, filter: Some(_), .. }
            if assignments.len() == 1)
        );

        let s = parse_statement("delete from t where a = 1").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                filter: Some(_),
                ..
            }
        ));

        let s = parse_statement("drop table if exists t").unwrap();
        assert!(matches!(
            s,
            Statement::Drop {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn join_on_sugar() {
        let q = parse_query("select * from a join b on a.k = b.k join c on b.j = c.j").unwrap();
        let FromItem::Join { left, .. } = &q.first.from[0] else {
            panic!()
        };
        assert!(matches!(**left, FromItem::Join { .. }));
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_statements(
            "create table t (a bigint); insert into t values (1); select a from t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("select a from t xyzzy !").is_err());
        assert!(parse_query("select a from t) oops").is_err());
    }

    #[test]
    fn missing_from_alias_for_subquery_rejected() {
        assert!(parse_query("select x from (select a from t)").is_err());
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse_query("select from").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("syntax error"), "{msg}");
    }

    #[test]
    fn bad_limit_names_its_own_token() {
        let expected = "expected a non-negative integer after LIMIT";
        for (sql, found, col) in [
            ("select k from t limit -1", "-", 23),
            ("select k from t limit x;", "x", 23),
            ("select k from t limit 1.5", "1.5", 23),
        ] {
            let Err(ParseError::Syntax {
                message,
                line,
                col: at,
            }) = parse_query(sql)
            else {
                panic!("{sql} must be a syntax error")
            };
            assert_eq!(message, format!("{expected}, found `{found}`"), "{sql}");
            assert_eq!((line, at), (1, col), "{sql}");
        }
        // At the end of the input there is no token to name.
        let err = parse_query("select k from t limit").unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax {
                message: expected.into(),
                line: 0,
                col: 0,
            }
        );
    }

    #[test]
    fn non_reserved_keywords_usable_as_identifiers() {
        let q = parse_query("select key, probability, weight from t").unwrap();
        assert_eq!(q.first.items.len(), 3);
    }
}
