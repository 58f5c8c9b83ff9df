//! The byte-level OpenQASM 2.0 tokenizer.
//!
//! Tokens are produced on demand and borrow their text from the source;
//! nothing is allocated per token. Each token records the byte offset of
//! its first character, and the 1-based `line:col` (columns counted in
//! characters) is worked out from that offset only when a diagnostic
//! needs it. Line (`// ...`) and block (`/* ... */`) comments are skipped.
//!
//! The parser can also read the common forms straight from the bytes,
//! without tokens: a register index written directly after its name,
//! `[digits]` ([`Lexer::bracket_index`]), and the pieces of a built-in
//! gate application (a separator, a literal parameter, a `reg[idx]`
//! argument) at an offset it tracks itself before it moves the lexer
//! ([`Lexer::seek`]). Each such read returns `None` for any form it does
//! not take, and the tokens then read and report that form. Both paths
//! scan numbers, identifiers and whitespace with the same functions.
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
                byte if is_space(byte) => {}
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
                    self.at = ident_end(bytes, start);
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

    /// Lexes the number literal at `start` with [`scan_number`].
    fn number(&mut self, start: usize) -> Result<Token<'a>, QasmError> {
        let (end, tok) = scan_number(self.source, start);
        self.at = end;
        let Some(tok) = tok else {
            let text = self.source[start..end].to_string();
            return Err(QasmError::at(QasmErrorKind::MalformedNumber(text), self.source, start));
        };
        Ok(Token { tok, at: start })
    }

    /// Reads a register index written directly at the current position,
    /// `[` digits `]` with nothing in between, and moves past it. Any other
    /// form (a space, comment or line break, a non-digit, an overflow, a
    /// missing `]`) returns `None` and leaves the position unchanged, so
    /// the token path reads it and reports what it reports.
    pub(crate) fn bracket_index(&mut self) -> Option<u64> {
        let (index, end) = self.index_at(self.at)?;
        self.at = end;
        Some(index)
    }

    /// The byte offset the next token is scanned from: just past the last
    /// token read.
    pub(crate) fn offset(&self) -> usize {
        self.at
    }

    /// Moves to `offset`, which a direct read stopped at just past an
    /// ASCII byte, so the next token is scanned from there.
    pub(crate) fn seek(&mut self, offset: usize) {
        self.at = offset;
    }

    /// The offset just past `byte` if it is written at `at`.
    pub(crate) fn punct(&self, at: usize, byte: u8) -> Option<usize> {
        (self.source.as_bytes().get(at) == Some(&byte)).then_some(at + 1)
    }

    /// Reads the literal parameter written at `at`: a number as
    /// [`scan_number`] scans it, with at most one `-` directly before it.
    /// Returns its value as an expression evaluates it (an integer
    /// converts to the nearest `f64`, and `-` negates, keeping the sign of
    /// zero) and where it ends; any other form, a malformed number
    /// included, is `None`.
    pub(crate) fn literal(&self, at: usize) -> Option<(f64, usize)> {
        let bytes = self.source.as_bytes();
        let negative = bytes.get(at) == Some(&b'-');
        let start = at + usize::from(negative);
        if !matches!(bytes.get(start), Some(b'0'..=b'9' | b'.')) {
            return None;
        }
        let (value, end) = match scan_number(self.source, start) {
            (end, Some(Tok::Int(value))) => (value as f64, end),
            (end, Some(Tok::Real(value))) => (value, end),
            _ => return None,
        };
        Some((if negative { -value } else { value }, end))
    }

    /// Reads a register argument written as `name[digits]` at `at`, after
    /// any whitespace: the name, the index and where it ends. A comment,
    /// a whole register or an index [`Lexer::bracket_index`] would not
    /// take is `None`.
    pub(crate) fn indexed_at(&self, at: usize) -> Option<(&'a str, u64, usize)> {
        let bytes = self.source.as_bytes();
        let start = at + bytes.get(at..)?.iter().position(|&byte| !is_space(byte))?;
        if !matches!(bytes[start], b'a'..=b'z' | b'A'..=b'Z' | b'_') {
            return None;
        }
        let end = ident_end(bytes, start);
        let (index, past) = self.index_at(end)?;
        Some((&self.source[start..end], index, past))
    }

    /// `[` digits `]` written at `at`, with where it ends.
    fn index_at(&self, at: usize) -> Option<(u64, usize)> {
        let rest = self.source.as_bytes().get(at..)?.strip_prefix(b"[")?;
        let len = rest.iter().position(|b| !b.is_ascii_digit())?;
        if len == 0 || rest[len] != b']' {
            return None;
        }
        Some((decimal(&rest[..len])?, at + len + 2))
    }
}

/// The whitespace between tokens.
fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t' | b'\r' | b'\n')
}

/// The end of the identifier starting at `start`.
fn ident_end(bytes: &[u8], start: usize) -> usize {
    bytes[start..]
        .iter()
        .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
        .map_or(bytes.len(), |len| start + len)
}

/// Scans the number literal at `start`: digits, an optional fraction and
/// an optional exponent. Returns where it ends and its token, a real if it
/// holds `.` or an exponent and an integer otherwise, or `None` if it is
/// malformed: a lone `.`, an exponent without digits, an integer past
/// `u64::MAX`.
fn scan_number(source: &str, start: usize) -> (usize, Option<Tok<'static>>) {
    let bytes = source.as_bytes();
    let digits = |from: usize| {
        from + bytes[from..].iter().position(|b| !b.is_ascii_digit()).unwrap_or(bytes.len() - from)
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
    let text = &source[start..end];
    let tok = if !exponent_ok || text == "." {
        None
    } else if real {
        text.parse().ok().map(Tok::Real)
    } else {
        decimal(text.as_bytes()).map(Tok::Int)
    };
    (end, tok)
}

/// The value of a run of ASCII digits, or `None` past `u64::MAX`.
fn decimal(digits: &[u8]) -> Option<u64> {
    digits
        .iter()
        .try_fold(0u64, |value, digit| value.checked_mul(10)?.checked_add(u64::from(digit - b'0')))
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

    #[test]
    fn integers_are_exact_up_to_u64_max() {
        assert_eq!(
            kinds("0 007 18446744073709551615"),
            vec![Tok::Int(0), Tok::Int(7), Tok::Int(u64::MAX)]
        );
        for overflow in ["18446744073709551616", "99999999999999999999", "184467440737095516150"] {
            let err = tokens(overflow).unwrap_err();
            assert_eq!(err.kind, QasmErrorKind::MalformedNumber(overflow.into()));
        }
    }

    #[test]
    fn bracket_index_reads_only_the_direct_form() {
        let read = |source: &str| {
            let mut lexer = Lexer::new(source);
            let index = lexer.bracket_index();
            (index, lexer.at)
        };
        assert_eq!(read("[0];"), (Some(0), 3));
        assert_eq!(read("[42],"), (Some(42), 4));
        assert_eq!(read("[18446744073709551615]"), (Some(u64::MAX), 22));
        for other in [
            "",
            "q[0]",
            " [0]",
            "[ 0]",
            "[0 ]",
            "[\n0]",
            "[/**/0]",
            "[]",
            "[x]",
            "[1.5]",
            "[1e2]",
            "[-1]",
            "[0",
            "[0;",
            "[18446744073709551616]",
        ] {
            assert_eq!(read(other), (None, 0), "{other:?}");
        }
    }

    #[test]
    fn literal_and_indexed_reads_take_only_their_own_forms() {
        let literal =
            |source: &str| Lexer::new(source).literal(0).map(|(value, end)| (value.to_bits(), end));
        assert_eq!(literal("7)"), Some((7f64.to_bits(), 1)));
        assert_eq!(literal("-0,"), Some(((-0f64).to_bits(), 2)));
        assert_eq!(literal(".5e1)"), Some((5f64.to_bits(), 4)));
        for other in ["", " 1", "--1", "- 1", "+1", "pi", "1.5e", ".", "18446744073709551616"] {
            assert_eq!(literal(other), None, "{other:?}");
        }
        fn indexed(source: &str) -> Option<(&str, u64, usize)> {
            Lexer::new(source).indexed_at(0)
        }
        assert_eq!(indexed("q[3];"), Some(("q", 3, 4)));
        assert_eq!(indexed(" \t\r\nr_1[0],"), Some(("r_1", 0, 10)));
        for other in ["", "q", "q;", "q [0]", "/**/q[0]", "1q[0]", "q[0", "[0]", "q[-1]"] {
            assert_eq!(indexed(other), None, "{other:?}");
        }
    }
}
