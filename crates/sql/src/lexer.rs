//! Hand-written SQL lexer.
//!
//! Handles: identifiers (bare and `"quoted"`), numeric literals (integer,
//! decimal, scientific), string literals with `''` escaping, `--` line
//! comments, `/* */` block comments, and all operator symbols used by the
//! MayBMS query language.

use crate::error::{ParseError, Result};
use crate::token::{Keyword, Spanned, Token};

/// Tokenise `input`, returning tokens with source positions.
pub fn lex(input: &str) -> Result<Vec<Spanned>> {
    Lexer::new(input).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::Lex {
            message: message.into(),
            line: self.line,
            col: self.col,
            snippet: snippet_at(self.src, self.line),
        }
    }

    fn run(mut self) -> Result<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let token = match c {
                '(' => {
                    self.bump();
                    Token::LParen
                }
                ')' => {
                    self.bump();
                    Token::RParen
                }
                ',' => {
                    self.bump();
                    Token::Comma
                }
                ';' => {
                    self.bump();
                    Token::Semi
                }
                '.' if !self.peek2().is_some_and(|d| d.is_ascii_digit()) => {
                    self.bump();
                    Token::Dot
                }
                '*' => {
                    self.bump();
                    Token::Star
                }
                '+' => {
                    self.bump();
                    Token::Plus
                }
                '-' => {
                    self.bump();
                    Token::Minus
                }
                '/' => {
                    self.bump();
                    Token::Slash
                }
                '%' => {
                    self.bump();
                    Token::Percent
                }
                '=' => {
                    self.bump();
                    Token::Eq
                }
                '<' => {
                    self.bump();
                    match self.peek() {
                        Some('=') => {
                            self.bump();
                            Token::LtEq
                        }
                        Some('>') => {
                            self.bump();
                            Token::Neq
                        }
                        _ => Token::Lt,
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Token::GtEq
                    } else {
                        Token::Gt
                    }
                }
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Token::Neq
                    } else {
                        return Err(self.error("expected `=` after `!`"));
                    }
                }
                '|' => {
                    self.bump();
                    if self.peek() == Some('|') {
                        self.bump();
                        Token::Concat
                    } else {
                        return Err(self.error("expected `|` after `|`"));
                    }
                }
                '\'' => self.string_literal()?,
                '"' => self.quoted_ident()?,
                c if c.is_ascii_digit() || c == '.' => self.number()?,
                c if c.is_alphabetic() || c == '_' => self.ident(),
                other => return Err(self.error(format!("unexpected character `{other}`"))),
            };
            out.push(Spanned { token, line, col });
        }
        Ok(out)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('-') if self.peek2() == Some('-') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.error("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn string_literal(&mut self) -> Result<Token> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('\'') => {
                    if self.peek() == Some('\'') {
                        self.bump();
                        s.push('\'');
                    } else {
                        return Ok(Token::Str(s));
                    }
                }
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }

    fn quoted_ident(&mut self) -> Result<Token> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => {
                    if self.peek() == Some('"') {
                        self.bump();
                        s.push('"');
                    } else {
                        return Ok(Token::Ident(s));
                    }
                }
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated quoted identifier")),
            }
        }
    }

    fn number(&mut self) -> Result<Token> {
        let mut s = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else if c == '.' && !is_float {
                is_float = true;
                s.push(c);
                self.bump();
            } else if (c == 'e' || c == 'E') && !s.is_empty() {
                // scientific notation
                is_float = true;
                s.push(c);
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    s.push(self.bump().expect("peeked"));
                }
            } else {
                break;
            }
        }
        if is_float {
            s.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| self.error(format!("invalid numeric literal `{s}`")))
        } else {
            s.parse::<i64>()
                .map(Token::Int)
                .map_err(|_| self.error(format!("integer literal `{s}` out of range")))
        }
    }

    fn ident(&mut self) -> Token {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match Keyword::from_ident(&s) {
            Some(kw) => Token::Kw(kw),
            None => Token::Ident(s),
        }
    }
}

/// The source line at `line` (1-based), for error snippets.
fn snippet_at(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Keyword as K, Token as T};

    fn toks(s: &str) -> Vec<T> {
        lex(s).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_paper_repair_key_clause() {
        let ts = toks("repair key Player, Init in FT weight by p");
        assert_eq!(
            ts,
            vec![
                T::Kw(K::Repair),
                T::Kw(K::Key),
                T::Ident("Player".into()),
                T::Comma,
                T::Ident("Init".into()),
                T::Kw(K::In),
                T::Ident("FT".into()),
                T::Kw(K::Weight),
                T::Kw(K::By),
                T::Ident("p".into()),
            ]
        );
    }

    #[test]
    fn numbers_int_float_scientific() {
        assert_eq!(toks("42"), vec![T::Int(42)]);
        assert_eq!(toks("0.8"), vec![T::Float(0.8)]);
        assert_eq!(toks(".5"), vec![T::Float(0.5)]);
        assert_eq!(toks("1e-3"), vec![T::Float(1e-3)]);
        assert_eq!(toks("2.5E2"), vec![T::Float(250.0)]);
    }

    #[test]
    fn dot_vs_decimal() {
        assert_eq!(
            toks("R1.Player"),
            vec![T::Ident("R1".into()), T::Dot, T::Ident("Player".into())]
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(toks("'it''s'"), vec![T::Str("it's".into())]);
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(toks(r#""Weird Name""#), vec![T::Ident("Weird Name".into())]);
        assert_eq!(toks(r#""a""b""#), vec![T::Ident("a\"b".into())]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("1 -- comment\n2"), vec![T::Int(1), T::Int(2)]);
        assert_eq!(toks("1 /* multi\nline */ 2"), vec![T::Int(1), T::Int(2)]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<= >= <> != = || %"),
            vec![
                T::LtEq,
                T::GtEq,
                T::Neq,
                T::Neq,
                T::Eq,
                T::Concat,
                T::Percent
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn stray_bang_is_error() {
        assert!(lex("a ! b").is_err());
    }

    #[test]
    fn positions_reported() {
        let ts = lex("select\n  x").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn conf_is_identifier_not_keyword() {
        assert_eq!(toks("conf"), vec![T::Ident("conf".into())]);
    }
}
