//! The byte-level OpenQASM 2.0 tokenizer.
//!
//! Tokens are produced on demand and borrow their text from the source;
//! nothing is allocated per token. Each token records the byte offset of
//! its first character, and the 1-based `line:col` (columns counted in
//! characters) is worked out from that offset only when a diagnostic
//! needs it. Line (`// ...`) and block (`/* ... */`) comments are skipped.
//!
//! The scan steps over whole ASCII bytes and jumps over comment and
//! string bodies to an ASCII delimiter, so every offset it stops at is a
//! char boundary and slicing the source there cannot panic.

use crate::error::{QasmError, QasmErrorKind};

/// One lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tok<'a> {
    /// An identifier or keyword (`qreg`, `gate`, `measure`, gate names...).
    Ident(&'a str),
    /// An unsigned integer literal.
    Int(u64),
    /// A real-number literal.
    Real(f64),
    /// A double-quoted string literal (include file names).
    Str(&'a str),
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `->` (measure target arrow)
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// `==` (inside `if` conditions)
    EqEq,
    /// The end of the source.
    Eof,
}

impl Tok<'_> {
    /// A short human-readable description for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(name) => format!("identifier '{name}'"),
            Tok::Int(v) => format!("integer {v}"),
            Tok::Real(v) => format!("number {v}"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Semicolon => "';'".into(),
            Tok::Comma => "','".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::LBracket => "'['".into(),
            Tok::RBracket => "']'".into(),
            Tok::LBrace => "'{'".into(),
            Tok::RBrace => "'}'".into(),
            Tok::Arrow => "'->'".into(),
            Tok::Plus => "'+'".into(),
            Tok::Minus => "'-'".into(),
            Tok::Star => "'*'".into(),
            Tok::Slash => "'/'".into(),
            Tok::Caret => "'^'".into(),
            Tok::EqEq => "'=='".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token and the byte offset of its first character.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    /// The token.
    pub(crate) tok: Tok<'a>,
    /// Byte offset of its first character in the source.
    pub(crate) at: usize,
}

/// The on-demand tokenizer over one source string.
pub(crate) struct Lexer<'a> {
    source: &'a str,
    at: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        Lexer { source, at: 0 }
    }

    /// The source being tokenized.
    pub(crate) fn source(&self) -> &'a str {
        self.source
    }

    /// Scans the next token, skipping whitespace and comments; at the end
    /// of the source this is [`Tok::Eof`], at the source length.
    ///
    /// # Errors
    ///
    /// An unexpected character, an unterminated block comment or string,
    /// or a malformed number, at the offset where it starts.
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, QasmError> {
        let bytes = self.source.as_bytes();
        loop {
            let start = self.at;
            let Some(&byte) = bytes.get(start) else {
                return Ok(Token { tok: Tok::Eof, at: start });
            };
            let single = |tok| Ok(Token { tok, at: start });
            self.at += 1;
            match byte {
                b' ' | b'\t' | b'\r' | b'\n' => {}
                b'/' => match bytes.get(start + 1) {
                    Some(b'/') => {
                        self.at = match self.source[start..].find('\n') {
                            Some(newline) => start + newline + 1,
                            None => bytes.len(),
                        };
                    }
                    Some(b'*') => match self.source[start + 2..].find("*/") {
                        Some(end) => self.at = start + 2 + end + 2,
                        None => return Err(self.error(start, "block comment")),
                    },
                    _ => return single(Tok::Slash),
                },
                b'"' => {
                    let body = &bytes[start + 1..];
                    return match body.iter().position(|&b| b == b'"' || b == b'\n') {
                        Some(end) if body[end] == b'"' => {
                            self.at = start + 1 + end + 1;
                            single(Tok::Str(&self.source[start + 1..start + 1 + end]))
                        }
                        _ => Err(self.error(start, "string literal")),
                    };
                }
                b'0'..=b'9' | b'.' => return self.number(start),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let len = bytes[start..]
                        .iter()
                        .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
                        .unwrap_or(bytes.len() - start);
                    self.at = start + len;
                    return single(Tok::Ident(&self.source[start..self.at]));
                }
                b'-' if bytes.get(start + 1) == Some(&b'>') => {
                    self.at += 1;
                    return single(Tok::Arrow);
                }
                b'=' if bytes.get(start + 1) == Some(&b'=') => {
                    self.at += 1;
                    return single(Tok::EqEq);
                }
                b';' => return single(Tok::Semicolon),
                b',' => return single(Tok::Comma),
                b'(' => return single(Tok::LParen),
                b')' => return single(Tok::RParen),
                b'[' => return single(Tok::LBracket),
                b']' => return single(Tok::RBracket),
                b'{' => return single(Tok::LBrace),
                b'}' => return single(Tok::RBrace),
                b'+' => return single(Tok::Plus),
                b'-' => return single(Tok::Minus),
                b'*' => return single(Tok::Star),
                b'^' => return single(Tok::Caret),
                _ => {
                    let c =
                        self.source[start..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(QasmError::at(
                        QasmErrorKind::UnexpectedChar(c),
                        self.source,
                        start,
                    ));
                }
            }
        }
    }

    fn error(&self, at: usize, unterminated: &'static str) -> QasmError {
        QasmError::at(QasmErrorKind::UnterminatedToken(unterminated), self.source, at)
    }

    /// Lexes an integer or real literal: digits, optional fraction,
    /// optional exponent. A literal containing `.` or an exponent is a
    /// real; otherwise it is an integer.
    fn number(&mut self, start: usize) -> Result<Token<'a>, QasmError> {
        let bytes = self.source.as_bytes();
        let digits = |from: usize| {
            from + bytes[from..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap_or(bytes.len() - from)
        };
        let mut end = digits(start);
        let mut real = false;
        if bytes.get(end) == Some(&b'.') {
            real = true;
            end = digits(end + 1);
        }
        let mut exponent_ok = true;
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            real = true;
            end += 1;
            if matches!(bytes.get(end), Some(b'+' | b'-')) {
                end += 1;
            }
            let exponent_start = end;
            end = digits(end);
            exponent_ok = end > exponent_start;
        }
        self.at = end;
        let text = &self.source[start..end];
        let malformed =
            || QasmError::at(QasmErrorKind::MalformedNumber(text.to_string()), self.source, start);
        if !exponent_ok || text == "." {
            return Err(malformed());
        }
        let tok = if real {
            Tok::Real(text.parse().map_err(|_| malformed())?)
        } else {
            Tok::Int(text.parse().map_err(|_| malformed())?)
        };
        Ok(Token { tok, at: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SourcePos;

    fn tokens(source: &str) -> Result<Vec<Token<'_>>, QasmError> {
        let mut lexer = Lexer::new(source);
        let mut out = Vec::new();
        loop {
            let token = lexer.next_token()?;
            if token.tok == Tok::Eof {
                return Ok(out);
            }
            out.push(token);
        }
    }

    fn kinds(source: &str) -> Vec<Tok<'_>> {
        tokens(source).expect("lexes").into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_a_header_and_declaration() {
        assert_eq!(
            kinds("OPENQASM 2.0;\nqreg q[4];"),
            vec![
                Tok::Ident("OPENQASM"),
                Tok::Real(2.0),
                Tok::Semicolon,
                Tok::Ident("qreg"),
                Tok::Ident("q"),
                Tok::LBracket,
                Tok::Int(4),
                Tok::RBracket,
                Tok::Semicolon,
            ]
        );
    }

    #[test]
    fn lexes_numbers_comments_and_operators() {
        let toks = kinds("rz(-1.5e-3) /* block */ q[0]; // line\ncx q[0], q[1];");
        assert!(toks.contains(&Tok::Real(1.5e-3)));
        assert!(toks.contains(&Tok::Minus));
        assert_eq!(toks.iter().filter(|t| **t == Tok::Comma).count(), 1);
        assert_eq!(kinds("/**/ 1E2 .5 7."), vec![Tok::Real(100.0), Tok::Real(0.5), Tok::Real(7.0)]);
        assert_eq!(kinds("a/b"), vec![Tok::Ident("a"), Tok::Slash, Tok::Ident("b")]);
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let source = "h q[0];\n  cx q[0], q[1];";
        let toks = tokens(source).expect("lexes");
        let cx = toks.iter().find(|t| t.tok == Tok::Ident("cx")).unwrap();
        assert_eq!(SourcePos::of_offset(source, cx.at), SourcePos::new(2, 3));
        // Columns count characters, not bytes.
        let source = "/* é */ x";
        let x = tokens(source).expect("lexes")[0];
        assert_eq!(SourcePos::of_offset(source, x.at), SourcePos::new(1, 9));
    }

    #[test]
    fn arrow_and_eqeq_lex_as_single_tokens() {
        assert!(kinds("measure q -> c;").contains(&Tok::Arrow));
        assert!(kinds("if (c == 1)").contains(&Tok::EqEq));
    }

    #[test]
    fn errors_carry_positions() {
        let err = tokens("h q[0];\n  @").unwrap_err();
        assert_eq!(err.kind, QasmErrorKind::UnexpectedChar('@'));
        assert_eq!((err.pos.line, err.pos.col), (2, 3));
        assert_eq!(tokens("é").unwrap_err().kind, QasmErrorKind::UnexpectedChar('é'));
        assert_eq!(tokens("a = b").unwrap_err().kind, QasmErrorKind::UnexpectedChar('='));
        assert!(tokens("/* never closed").is_err());
        assert!(tokens("/*/").is_err());
        assert!(tokens("\"never closed").is_err());
        assert!(tokens("\"split\nstring\"").is_err());
        assert_eq!(tokens("1.5e").unwrap_err().kind, QasmErrorKind::MalformedNumber("1.5e".into()));
        assert_eq!(tokens(".").unwrap_err().kind, QasmErrorKind::MalformedNumber(".".into()));
        let err = tokens("18446744073709551616").unwrap_err();
        assert_eq!(err.kind, QasmErrorKind::MalformedNumber("18446744073709551616".into()));
    }
}
