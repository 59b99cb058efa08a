//! Token types produced by the lexer.

use std::fmt;

/// SQL keywords, including the MayBMS uncertainty extensions (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is the keyword it names
pub enum Keyword {
    All,
    Analyze,
    And,
    As,
    Asc,
    Between,
    By,
    Case,
    Cast,
    Create,
    Delete,
    Desc,
    Distinct,
    Drop,
    Else,
    End,
    Exists,
    Explain,
    False,
    From,
    Group,
    Having,
    If,
    In,
    Independently,
    Insert,
    Into,
    Is,
    Join,
    Key,
    Limit,
    Not,
    Null,
    On,
    Or,
    Order,
    Pick,
    Possible,
    Probability,
    Repair,
    Select,
    Set,
    Table,
    Then,
    True,
    Tuples,
    Union,
    Update,
    Values,
    Weight,
    When,
    Where,
    With,
}

impl Keyword {
    /// Parse an identifier into a keyword, case-insensitively.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        use Keyword::*;
        let kw = match s.to_ascii_uppercase().as_str() {
            "ALL" => All,
            "ANALYZE" => Analyze,
            "AND" => And,
            "AS" => As,
            "ASC" => Asc,
            "BETWEEN" => Between,
            "BY" => By,
            "CASE" => Case,
            "CAST" => Cast,
            "CREATE" => Create,
            "DELETE" => Delete,
            "DESC" => Desc,
            "DISTINCT" => Distinct,
            "DROP" => Drop,
            "ELSE" => Else,
            "END" => End,
            "EXISTS" => Exists,
            "EXPLAIN" => Explain,
            "FALSE" => False,
            "FROM" => From,
            "GROUP" => Group,
            "HAVING" => Having,
            "IF" => If,
            "IN" => In,
            "INDEPENDENTLY" => Independently,
            "INSERT" => Insert,
            "INTO" => Into,
            "IS" => Is,
            "JOIN" => Join,
            "KEY" => Key,
            "LIMIT" => Limit,
            "NOT" => Not,
            "NULL" => Null,
            "ON" => On,
            "OR" => Or,
            "ORDER" => Order,
            "PICK" => Pick,
            "POSSIBLE" => Possible,
            "PROBABILITY" => Probability,
            "REPAIR" => Repair,
            "SELECT" => Select,
            "SET" => Set,
            "TABLE" => Table,
            "THEN" => Then,
            "TRUE" => True,
            "TUPLES" => Tuples,
            "UNION" => Union,
            "UPDATE" => Update,
            "VALUES" => Values,
            "WEIGHT" => Weight,
            "WHEN" => When,
            "WHERE" => Where,
            "WITH" => With,
            _ => return None,
        };
        Some(kw)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format!("{self:?}").to_ascii_uppercase())
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword.
    Kw(Keyword),
    /// Identifier (unquoted, case-preserved; or quoted with `"`).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `||`
    Concat,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Kw(k) => write!(f, "{k}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Semi => f.write_str(";"),
            Token::Dot => f.write_str("."),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::Neq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Concat => f.write_str("||"),
        }
    }
}

/// A token with its source position (1-based line/column) for errors.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_case_insensitive() {
        assert_eq!(Keyword::from_ident("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("RePaIr"), Some(Keyword::Repair));
        assert_eq!(Keyword::from_ident("conf"), None); // conf is a function, not keyword
        assert_eq!(Keyword::from_ident("player"), None);
    }

    #[test]
    fn keyword_display_uppercase() {
        assert_eq!(Keyword::Select.to_string(), "SELECT");
        assert_eq!(Keyword::Independently.to_string(), "INDEPENDENTLY");
    }

    #[test]
    fn token_display() {
        assert_eq!(Token::Str("a'b".into()).to_string(), "'a'b'");
        assert_eq!(Token::Neq.to_string(), "<>");
    }
}
