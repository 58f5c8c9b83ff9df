//! Parse errors, with precise source positions.

use std::error::Error;
use std::fmt;

/// A 1-based position in the QASM source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourcePos {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in characters).
    pub col: usize,
}

impl SourcePos {
    /// Position `line:col` (both 1-based).
    pub fn new(line: usize, col: usize) -> Self {
        SourcePos { line, col }
    }

    /// The position of byte `offset` in `source`, which must be a char
    /// boundary. Tokens carry byte offsets; this scan runs only when a
    /// diagnostic is built.
    pub(crate) fn of_offset(source: &str, offset: usize) -> Self {
        let before = &source[..offset];
        let line_start = before.rfind('\n').map_or(0, |newline| newline + 1);
        SourcePos {
            line: before.bytes().filter(|&b| b == b'\n').count() + 1,
            col: before[line_start..].chars().count() + 1,
        }
    }
}

impl fmt::Display for SourcePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// What went wrong while parsing a QASM program.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmErrorKind {
    /// A character the lexer cannot start a token with.
    UnexpectedChar(char),
    /// A string literal or block comment ran to end-of-file.
    UnterminatedToken(&'static str),
    /// A numeric literal that does not parse as a number.
    MalformedNumber(String),
    /// The parser expected one construct but found another.
    Expected {
        /// What the grammar required at this point.
        expected: &'static str,
        /// What was actually found (a token description).
        found: String,
    },
    /// The mandatory `OPENQASM 2.0;` header is missing or has the wrong
    /// version.
    BadHeader(String),
    /// An `include` of anything other than `"qelib1.inc"` (the front-end
    /// is file-system-free; the standard library is built in).
    UnsupportedInclude(String),
    /// A register (or gate) name declared twice.
    Redefinition(String),
    /// A name used where a declared quantum register was required.
    UnknownRegister(String),
    /// A gate application names a gate that is neither built in nor
    /// user-defined.
    UnknownGate(String),
    /// A register index past the end of the register.
    IndexOutOfRange {
        /// The register name.
        register: String,
        /// The offending index.
        index: usize,
        /// The register's declared size.
        size: usize,
    },
    /// A gate was applied with the wrong number of qubit arguments or
    /// classical parameters.
    ArityMismatch {
        /// The gate name.
        gate: String,
        /// What the definition requires.
        expected: usize,
        /// What the application supplied.
        got: usize,
        /// `"qubit arguments"` or `"parameters"`.
        what: &'static str,
    },
    /// A gate application names the same qubit twice.
    DuplicateQubit(String),
    /// Register arguments of one broadcast application have mismatched
    /// lengths.
    BroadcastMismatch {
        /// The gate name.
        gate: String,
    },
    /// An expression used an identifier that is not a gate parameter (or
    /// `pi`).
    UnknownParameter(String),
    /// Division by zero (or another domain error) inside a constant
    /// parameter expression.
    BadExpression(&'static str),
    /// User `gate` definitions recurse (directly or mutually); QASM 2.0
    /// requires bodies to reference previously defined gates only.
    RecursiveGate(String),
    /// A register was declared with size zero.
    EmptyRegister(String),
    /// A fixed front-end limit was exceeded: expression nesting, gate
    /// definition nesting or the total qubit count. The nesting limits
    /// bound the parser's recursion, so hostile input cannot overflow
    /// the stack of the thread that parses it.
    LimitExceeded {
        /// What was limited.
        what: &'static str,
        /// The limit.
        limit: usize,
    },
}

/// An error in a QASM program, carrying the [`SourcePos`] it was detected
/// at.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// What went wrong.
    pub kind: QasmErrorKind,
    /// Where in the source it was detected (1-based line and column).
    pub pos: SourcePos,
}

impl QasmError {
    /// An error of `kind` at `pos`.
    pub fn new(kind: QasmErrorKind, pos: SourcePos) -> Self {
        QasmError { kind, pos }
    }

    /// An error of `kind` at byte `offset` of `source`.
    pub(crate) fn at(kind: QasmErrorKind, source: &str, offset: usize) -> Self {
        QasmError { kind, pos: SourcePos::of_offset(source, offset) }
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.pos)?;
        match &self.kind {
            QasmErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            QasmErrorKind::UnterminatedToken(what) => write!(f, "unterminated {what}"),
            QasmErrorKind::MalformedNumber(text) => write!(f, "malformed number '{text}'"),
            QasmErrorKind::Expected { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            QasmErrorKind::BadHeader(found) => {
                write!(f, "expected 'OPENQASM 2.0;' header, found '{found}'")
            }
            QasmErrorKind::UnsupportedInclude(file) => write!(
                f,
                "unsupported include '{file}' (only the built-in \"qelib1.inc\" is available)"
            ),
            QasmErrorKind::Redefinition(name) => write!(f, "'{name}' is already defined"),
            QasmErrorKind::UnknownRegister(name) => {
                write!(f, "unknown quantum register '{name}'")
            }
            QasmErrorKind::UnknownGate(name) => write!(f, "unknown gate '{name}'"),
            QasmErrorKind::IndexOutOfRange { register, index, size } => {
                write!(f, "index {index} out of range for {register}[{size}]")
            }
            QasmErrorKind::ArityMismatch { gate, expected, got, what } => {
                write!(f, "gate '{gate}' takes {expected} {what}, got {got}")
            }
            QasmErrorKind::DuplicateQubit(gate) => {
                write!(f, "gate '{gate}' applied to the same qubit twice")
            }
            QasmErrorKind::BroadcastMismatch { gate } => {
                write!(f, "registers broadcast through gate '{gate}' have different lengths")
            }
            QasmErrorKind::UnknownParameter(name) => {
                write!(f, "'{name}' is not a parameter in scope (and not 'pi')")
            }
            QasmErrorKind::BadExpression(what) => write!(f, "invalid expression: {what}"),
            QasmErrorKind::RecursiveGate(name) => {
                write!(f, "gate '{name}' is defined recursively")
            }
            QasmErrorKind::EmptyRegister(name) => {
                write!(f, "register '{name}' declared with size 0")
            }
            QasmErrorKind::LimitExceeded { what, limit } => {
                write!(f, "{what} exceeds the limit of {limit}")
            }
        }
    }
}

impl Error for QasmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_and_detail() {
        let e = QasmError::new(
            QasmErrorKind::Expected { expected: "';'", found: "identifier 'q'".into() },
            SourcePos::new(3, 14),
        );
        assert_eq!(e.to_string(), "3:14: expected ';', found identifier 'q'");
        let e = QasmError::new(
            QasmErrorKind::IndexOutOfRange { register: "q".into(), index: 9, size: 4 },
            SourcePos::new(1, 1),
        );
        assert!(e.to_string().contains("index 9 out of range for q[4]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QasmError>();
    }
}
