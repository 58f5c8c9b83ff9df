//! The single-pass recursive-descent OpenQASM 2.0 parser: source text →
//! [`ParseOutput`], lowering each top-level statement as soon as it is
//! parsed.
//!
//! The grammar follows the OpenQASM 2.0 paper (Cross et al. 2017):
//!
//! ```text
//! program    := "OPENQASM" real ";" statement*
//! statement  := include | qreg | creg | gatedef | opaque
//!             | apply | barrier | measure | reset | if
//! gatedef    := "gate" id params? ids "{" bodystmt* "}"
//! apply      := id params? arglist ";"
//! arglist    := argument ("," argument)*
//! argument   := id ("[" int "]")?
//! exp        := additive, with "^" binding tightest (right-assoc),
//!               unary minus, parenthesised subexpressions and the
//!               unary functions sin/cos/tan/exp/ln/sqrt
//! ```
//!
//! `include "qelib1.inc";` is accepted (the standard library is built into
//! the lowering — nothing is read from disk); any other include is an
//! error, keeping the front-end hermetic.
//!
//! Names are resolved as they are read, so a register, gate or classical
//! guard must be declared before its first use, and the first error in
//! source order is the one reported. Expression nesting and gate
//! definition nesting are capped ([`MAX_EXPR_DEPTH`],
//! [`MAX_GATE_DEPTH`]): the parser and the expansion recurse once per
//! level, and the caps keep that recursion far inside a 2 MiB thread
//! stack whatever the input. Expansion size is capped too
//! ([`MAX_GATES`](crate::lower::MAX_GATES)), so a few lines of nested
//! definitions or one broadcast over a huge register cannot exhaust
//! memory.

use crate::error::{QasmError, QasmErrorKind};
use crate::lexer::{Lexer, Tok, Token};
use crate::lower::{
    repeats, BodyOp, Callee, Emitter, GateDef, MathFn, Native, Op, ParseOutput, ParseReport,
};
use ssync_circuit::Circuit;
use std::collections::{HashMap, HashSet};
use std::f64::consts::PI;

/// How deeply parentheses, function calls, unary minus and `^` may nest
/// inside one parameter expression.
pub(crate) const MAX_EXPR_DEPTH: usize = 128;

/// How deeply gate definitions may nest: a body of built-ins is depth 1,
/// and a body applying a depth-`d` gate is depth `d + 1`.
pub(crate) const MAX_GATE_DEPTH: usize = 64;

/// The flat qubit index space is `u32`.
const MAX_QUBITS: usize = u32::MAX as usize;

/// Parses and lowers a whole program.
pub(crate) fn parse(source: &str) -> Result<ParseOutput, QasmError> {
    let mut parser = Parser::new(source)?;
    parser.header()?;
    while parser.tok.tok != Tok::Eof {
        parser.statement()?;
    }
    let (gates, gates_inlined) = parser.emit.finish();
    let circuit = Circuit::from_gates(parser.num_qubits, gates)
        .expect("every operand was resolved against a declared register");
    Ok(ParseOutput { circuit, report: ParseReport { gates_inlined, ..parser.report } })
}

/// A top-level qubit argument resolved against the registers.
#[derive(Debug, Clone, Copy)]
struct Arg {
    /// The flat index of `reg[i]`, or of `reg[0]` for a whole register.
    base: usize,
    /// `Some(size)` for a whole (broadcast) register.
    whole: Option<usize>,
    /// Byte offset of the register name.
    at: usize,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token.
    tok: Token<'a>,
    /// Quantum registers: `(flat offset, size)`.
    qregs: HashMap<&'a str, (usize, usize)>,
    cregs: HashSet<&'a str>,
    /// User gates (`Some(index into defs)`) and opaque declarations
    /// (`None`).
    gates: HashMap<&'a str, Option<usize>>,
    defs: Vec<GateDef<'a>>,
    num_qubits: usize,
    /// The parameter names of the gate being defined; empty at top level.
    scope: Vec<&'a str>,
    /// The formal qubits of the gate being defined.
    formals: Vec<&'a str>,
    /// The parameter expressions of the application being parsed.
    code: Vec<Op>,
    /// The arguments of the top-level application being parsed.
    args: Vec<Arg>,
    emit: Emitter<'a>,
    /// The statement counts; [`Emitter::finish`] supplies `gates_inlined`.
    report: ParseReport,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Result<Self, QasmError> {
        let mut lexer = Lexer::new(source);
        let tok = lexer.next_token()?;
        Ok(Parser {
            lexer,
            tok,
            qregs: HashMap::new(),
            cregs: HashSet::new(),
            gates: HashMap::new(),
            defs: Vec::new(),
            num_qubits: 0,
            scope: Vec::new(),
            formals: Vec::new(),
            code: Vec::new(),
            args: Vec::new(),
            emit: Emitter::new(source),
            report: ParseReport::default(),
        })
    }

    fn advance(&mut self) -> Result<(), QasmError> {
        self.tok = self.lexer.next_token()?;
        Ok(())
    }

    fn error(&self, kind: QasmErrorKind, at: usize) -> QasmError {
        QasmError::at(kind, self.lexer.source(), at)
    }

    fn expected(&self, expected: &'static str) -> QasmError {
        self.error(
            QasmErrorKind::Expected { expected, found: self.tok.tok.describe() },
            self.tok.at,
        )
    }

    fn is(&self, tok: Tok<'_>) -> bool {
        self.tok.tok == tok
    }

    /// Consumes `tok` if it is next.
    fn eat(&mut self, tok: Tok<'_>) -> Result<bool, QasmError> {
        let found = self.is(tok);
        if found {
            self.advance()?;
        }
        Ok(found)
    }

    fn expect(&mut self, tok: Tok<'_>, expected: &'static str) -> Result<(), QasmError> {
        if self.eat(tok)? {
            Ok(())
        } else {
            Err(self.expected(expected))
        }
    }

    fn ident(&mut self, expected: &'static str) -> Result<(&'a str, usize), QasmError> {
        let Token { tok: Tok::Ident(name), at } = self.tok else {
            return Err(self.expected(expected));
        };
        self.advance()?;
        Ok((name, at))
    }

    fn integer(&mut self, expected: &'static str) -> Result<u64, QasmError> {
        let Tok::Int(value) = self.tok.tok else {
            return Err(self.expected(expected));
        };
        self.advance()?;
        Ok(value)
    }

    /// `OPENQASM 2.0;` — mandatory, and only version 2.0 is supported.
    fn header(&mut self) -> Result<(), QasmError> {
        let (source, at) = (self.lexer.source(), self.tok.at);
        let bad = |found: String| QasmError::at(QasmErrorKind::BadHeader(found), source, at);
        if !self.is(Tok::Ident("OPENQASM")) {
            return Err(bad(self.tok.tok.describe()));
        }
        self.advance()?;
        match self.tok.tok {
            Tok::Real(2.0) => {}
            Tok::Real(version) => return Err(bad(format!("version {version}"))),
            other => return Err(bad(other.describe())),
        }
        self.advance()?;
        self.expect(Tok::Semicolon, "';' after the OPENQASM header")
    }

    fn statement(&mut self) -> Result<(), QasmError> {
        let Token { tok: Tok::Ident(keyword), at } = self.tok else {
            return Err(self.expected("a statement"));
        };
        match keyword {
            "include" => {
                self.advance()?;
                let Tok::Str(file) = self.tok.tok else {
                    return Err(self.expected("an include file string"));
                };
                self.advance()?;
                self.expect(Tok::Semicolon, "';' after include")?;
                if file != "qelib1.inc" {
                    return Err(self.error(QasmErrorKind::UnsupportedInclude(file.into()), at));
                }
            }
            "qreg" | "creg" => self.register(keyword == "qreg", at)?,
            "gate" => self.gate_definition(at)?,
            "opaque" => {
                self.advance()?;
                let name = self.signature()?;
                self.expect(Tok::Semicolon, "';' after the opaque declaration")?;
                if self.gates.contains_key(name) {
                    return Err(self.error(QasmErrorKind::Redefinition(name.into()), at));
                }
                self.gates.insert(name, None);
            }
            "barrier" => {
                self.advance()?;
                loop {
                    self.argument()?;
                    if !self.eat(Tok::Comma)? {
                        break;
                    }
                }
                self.expect(Tok::Semicolon, "';' after barrier")?;
                self.report.barriers += 1;
            }
            "measure" => {
                self.advance()?;
                self.measure()?;
                self.report.measurements_stripped += 1;
            }
            "reset" => {
                self.advance()?;
                self.reset()?;
                self.report.resets_stripped += 1;
            }
            "if" => self.conditional(at)?,
            _ => self.application(false)?,
        }
        Ok(())
    }

    /// `qreg name[size];` or `creg name[size];`.
    fn register(&mut self, quantum: bool, at: usize) -> Result<(), QasmError> {
        self.advance()?;
        let (name, _) = self.ident("a register name")?;
        self.expect(Tok::LBracket, "'[' after the register name")?;
        let size = self.integer("the register size")?;
        self.expect(Tok::RBracket, "']' after the register size")?;
        self.expect(Tok::Semicolon, "';' after the register declaration")?;
        if size == 0 {
            return Err(self.error(QasmErrorKind::EmptyRegister(name.into()), at));
        }
        if self.qregs.contains_key(name) || self.cregs.contains(name) {
            return Err(self.error(QasmErrorKind::Redefinition(name.into()), at));
        }
        if !quantum {
            self.cregs.insert(name);
            return Ok(());
        }
        let size = usize::try_from(size).unwrap_or(usize::MAX);
        let total = self.num_qubits.checked_add(size).filter(|&total| total <= MAX_QUBITS);
        let Some(total) = total else {
            let kind =
                QasmErrorKind::LimitExceeded { what: "total qubit count", limit: MAX_QUBITS };
            return Err(self.error(kind, at));
        };
        self.qregs.insert(name, (self.num_qubits, size));
        self.num_qubits = total;
        Ok(())
    }

    /// `("[" int "]")?`
    fn index(&mut self) -> Result<Option<u64>, QasmError> {
        if !self.eat(Tok::LBracket)? {
            return Ok(None);
        }
        let index = self.integer("a register index")?;
        self.expect(Tok::RBracket, "']' after the register index")?;
        Ok(Some(index))
    }

    /// A top-level argument, resolved to flat qubit indices.
    fn argument(&mut self) -> Result<Arg, QasmError> {
        let (name, at) = self.ident("a register name")?;
        let index = self.index()?;
        let Some(&(offset, size)) = self.qregs.get(name) else {
            return Err(self.error(QasmErrorKind::UnknownRegister(name.into()), at));
        };
        match index {
            None => Ok(Arg { base: offset, whole: Some(size), at }),
            Some(index) if index < size as u64 => {
                Ok(Arg { base: offset + index as usize, whole: None, at })
            }
            Some(index) => Err(self.error(
                QasmErrorKind::IndexOutOfRange {
                    register: name.into(),
                    index: usize::try_from(index).unwrap_or(usize::MAX),
                    size,
                },
                at,
            )),
        }
    }

    /// `measure q -> c;` after the keyword. The classical target is parsed
    /// but not resolved: the IR has no classical bits.
    fn measure(&mut self) -> Result<(), QasmError> {
        self.argument()?;
        self.expect(Tok::Arrow, "'->' after the measured qubit")?;
        self.ident("a register name")?;
        self.index()?;
        self.expect(Tok::Semicolon, "';' after measure")
    }

    /// `reset q;` after the keyword.
    fn reset(&mut self) -> Result<(), QasmError> {
        self.argument()?;
        self.expect(Tok::Semicolon, "';' after reset")
    }

    /// `if (creg == n) qop` — the guarded operation (a gate application,
    /// measure or reset, per the OpenQASM 2.0 `qop` rule) is validated and
    /// then stripped: classical control needs measurement results the
    /// static compiler does not have.
    fn conditional(&mut self, at: usize) -> Result<(), QasmError> {
        self.advance()?;
        self.expect(Tok::LParen, "'(' after if")?;
        let (guard, _) = self.ident("a classical register name")?;
        if !self.cregs.contains(guard) {
            return Err(self.error(QasmErrorKind::UnknownRegister(guard.into()), at));
        }
        self.expect(Tok::EqEq, "'==' in the if condition")?;
        self.integer("an integer in the if condition")?;
        self.expect(Tok::RParen, "')' after the if condition")?;
        if self.eat(Tok::Ident("measure"))? {
            self.measure()?;
        } else if self.eat(Tok::Ident("reset"))? {
            self.reset()?;
        } else {
            self.application(true)?;
        }
        self.report.conditionals_stripped += 1;
        Ok(())
    }

    /// Resolves a gate name: built-ins first, then user definitions.
    /// Returns the callee with its parameter and qubit counts.
    fn callee(&self, name: &str, at: usize) -> Result<(Callee, usize, usize), QasmError> {
        if let Some(gate) = Native::from_name(name) {
            let (params, qubits) = gate.signature();
            return Ok((Callee::Native(gate), params, qubits));
        }
        match self.gates.get(name) {
            Some(&Some(index)) => {
                let def = &self.defs[index];
                Ok((Callee::User(index), def.params, def.qubits))
            }
            _ => Err(self.error(QasmErrorKind::UnknownGate(name.into()), at)),
        }
    }

    fn check_arity(
        &self,
        gate: &str,
        expected: usize,
        got: usize,
        what: &'static str,
        at: usize,
    ) -> Result<(), QasmError> {
        if expected == got {
            return Ok(());
        }
        Err(self.error(QasmErrorKind::ArityMismatch { gate: gate.into(), expected, got, what }, at))
    }

    /// `("(" exp ("," exp)* ")")?`, compiled into `code`; returns the
    /// number of expressions.
    fn parameters(&mut self) -> Result<usize, QasmError> {
        self.code.clear();
        let mut count = 0;
        if self.eat(Tok::LParen)? {
            if !self.is(Tok::RParen) {
                loop {
                    self.expr(0)?;
                    count += 1;
                    if !self.eat(Tok::Comma)? {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "')' closing the parameter list")?;
        }
        Ok(count)
    }

    /// A top-level gate application `name(exprs)? args;`, lowered at once
    /// — or, under `if`, validated and dropped. Whole-register arguments
    /// broadcast element-wise (all must have equal length); indexed
    /// arguments stay fixed.
    fn application(&mut self, conditional: bool) -> Result<(), QasmError> {
        let (name, at) = self.ident("a gate name")?;
        let (callee, want_params, want_qubits) = self.callee(name, at)?;
        self.scope.clear();
        let got = self.parameters()?;
        self.check_arity(name, want_params, got, "parameters", at)?;
        self.emit.evaluate(&self.code)?;
        self.args.clear();
        let mut repeat: Option<usize> = None;
        loop {
            let arg = self.argument()?;
            if let Some(len) = arg.whole {
                match repeat {
                    None => repeat = Some(len),
                    Some(n) if n != len && !conditional => {
                        let kind = QasmErrorKind::BroadcastMismatch { gate: name.into() };
                        return Err(self.error(kind, arg.at));
                    }
                    Some(_) => {}
                }
            }
            self.args.push(arg);
            if !self.eat(Tok::Comma)? {
                break;
            }
        }
        self.expect(Tok::Semicolon, "';' after the gate application")?;
        self.check_arity(name, want_qubits, self.args.len(), "qubit arguments", at)?;
        if conditional {
            return Ok(());
        }
        for i in 0..repeat.unwrap_or(1) {
            let qubits =
                self.args.iter().map(|arg| arg.base + if arg.whole.is_some() { i } else { 0 });
            self.emit.apply(&self.defs, name, callee, qubits, at)?;
        }
        Ok(())
    }

    /// `name ("(" ids? ")")? ids` — shared by `gate` and `opaque`; leaves
    /// the parameter names in `scope` and the formal qubits in `formals`.
    fn signature(&mut self) -> Result<&'a str, QasmError> {
        let (name, _) = self.ident("a gate name")?;
        self.scope.clear();
        if self.eat(Tok::LParen)? {
            if !self.is(Tok::RParen) {
                loop {
                    let (param, _) = self.ident("a parameter name")?;
                    self.scope.push(param);
                    if !self.eat(Tok::Comma)? {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "')' closing the parameter list")?;
        }
        self.formals.clear();
        loop {
            let (qubit, _) = self.ident("a formal qubit name")?;
            self.formals.push(qubit);
            if !self.eat(Tok::Comma)? {
                break;
            }
        }
        Ok(name)
    }

    /// `gate name(params)? formals { body }`. Every body application must
    /// name a built-in or a previously defined gate with matching arity,
    /// over formal qubits (no indexing) and parameters in scope.
    /// Redefining a built-in is allowed and ignored (circuit dumps inline
    /// the standard library); the built-in keeps winning.
    fn gate_definition(&mut self, at: usize) -> Result<(), QasmError> {
        self.advance()?;
        let name = self.signature()?;
        let native = Native::from_name(name).is_some();
        if !native && self.gates.contains_key(name) {
            return Err(self.error(QasmErrorKind::Redefinition(name.into()), at));
        }
        self.expect(Tok::LBrace, "'{' opening the gate body")?;
        let mut body = Vec::new();
        let mut depth = 1;
        loop {
            match self.tok.tok {
                Tok::RBrace => {
                    self.advance()?;
                    break;
                }
                // A barrier inside a body fences nothing once inlined.
                Tok::Ident("barrier") => {
                    self.advance()?;
                    loop {
                        self.ident("a register name")?;
                        self.index()?;
                        if !self.eat(Tok::Comma)? {
                            break;
                        }
                    }
                    self.expect(Tok::Semicolon, "';' after barrier")?;
                }
                Tok::Ident(_) => {
                    let (op, callee_depth) = self.body_application(name)?;
                    depth = depth.max(callee_depth + 1);
                    body.push(op);
                }
                _ => return Err(self.expected("a gate application or '}'")),
            }
        }
        if !native {
            self.gates.insert(name, Some(self.defs.len()));
            let (params, qubits) = (self.scope.len(), self.formals.len());
            self.defs.push(GateDef { params, qubits, depth, body });
        }
        Ok(())
    }

    /// One application inside the body of gate `def`, with the depth of
    /// the gate it applies (0 for a built-in).
    fn body_application(&mut self, def: &str) -> Result<(BodyOp<'a>, usize), QasmError> {
        let (name, at) = self.ident("a gate name")?;
        if name == def {
            return Err(self.error(QasmErrorKind::RecursiveGate(name.into()), at));
        }
        let (callee, want_params, want_qubits) = self.callee(name, at)?;
        let depth = match callee {
            Callee::Native(_) => 0,
            Callee::User(index) => self.defs[index].depth,
        };
        if depth >= MAX_GATE_DEPTH {
            let kind =
                QasmErrorKind::LimitExceeded { what: "gate nesting depth", limit: MAX_GATE_DEPTH };
            return Err(self.error(kind, at));
        }
        let got = self.parameters()?;
        self.check_arity(name, want_params, got, "parameters", at)?;
        let mut args = Vec::with_capacity(want_qubits);
        loop {
            let (arg, arg_at) = self.ident("a register name")?;
            let indexed = self.index()?.is_some();
            // The last formal of a name wins, as a later binding would.
            match self.formals.iter().rposition(|formal| *formal == arg) {
                Some(formal) if !indexed => args.push(formal),
                _ => return Err(self.error(QasmErrorKind::UnknownRegister(arg.into()), arg_at)),
            }
            if !self.eat(Tok::Comma)? {
                break;
            }
        }
        self.expect(Tok::Semicolon, "';' after the gate application")?;
        self.check_arity(name, want_qubits, args.len(), "qubit arguments", at)?;
        // Checked once per definition, so the sort may allocate.
        let repeats_a_qubit = repeats(&args, &mut Vec::new());
        let op = BodyOp { name, callee, code: self.code.clone(), args, repeats_a_qubit, at };
        Ok((op, depth))
    }

    // ----- expressions, compiled to postfix `Op`s ----------------------

    /// One more level of nesting for the construct at byte `at`.
    fn deeper(&self, depth: usize, at: usize) -> Result<usize, QasmError> {
        if depth < MAX_EXPR_DEPTH {
            return Ok(depth + 1);
        }
        let kind = QasmErrorKind::LimitExceeded {
            what: "expression nesting depth",
            limit: MAX_EXPR_DEPTH,
        };
        Err(self.error(kind, at))
    }

    /// additive := multiplicative (("+"|"-") multiplicative)*
    fn expr(&mut self, depth: usize) -> Result<(), QasmError> {
        self.term(depth)?;
        loop {
            let op = match self.tok.tok {
                Tok::Plus => Op::Add,
                Tok::Minus => Op::Sub,
                _ => return Ok(()),
            };
            self.advance()?;
            self.term(depth)?;
            self.code.push(op);
        }
    }

    /// multiplicative := power (("*"|"/") power)*
    fn term(&mut self, depth: usize) -> Result<(), QasmError> {
        self.power(depth)?;
        loop {
            let op = match self.tok.tok {
                Tok::Star => Op::Mul,
                Tok::Slash => Op::Div(self.tok.at),
                _ => return Ok(()),
            };
            self.advance()?;
            self.power(depth)?;
            self.code.push(op);
        }
    }

    /// power := unary ("^" power)?   (right-associative)
    fn power(&mut self, depth: usize) -> Result<(), QasmError> {
        self.unary(depth)?;
        if self.is(Tok::Caret) {
            let inner = self.deeper(depth, self.tok.at)?;
            self.advance()?;
            self.power(inner)?;
            self.code.push(Op::Pow);
        }
        Ok(())
    }

    /// unary := "-" unary | atom
    fn unary(&mut self, depth: usize) -> Result<(), QasmError> {
        if !self.is(Tok::Minus) {
            return self.atom(depth);
        }
        let inner = self.deeper(depth, self.tok.at)?;
        self.advance()?;
        self.unary(inner)?;
        self.code.push(Op::Neg);
        Ok(())
    }

    /// atom := int | real | "pi" | param | fn "(" exp ")" | "(" exp ")"
    fn atom(&mut self, depth: usize) -> Result<(), QasmError> {
        let Token { tok, at } = self.tok;
        let op = match tok {
            Tok::Int(v) => Op::Num(v as f64),
            Tok::Real(v) => Op::Num(v),
            Tok::Ident("pi") => Op::Num(PI),
            Tok::LParen => {
                let inner = self.deeper(depth, at)?;
                self.advance()?;
                self.expr(inner)?;
                return self.expect(Tok::RParen, "')' closing the expression");
            }
            Tok::Ident(name) => match MathFn::from_name(name) {
                Some(func) => {
                    let inner = self.deeper(depth, at)?;
                    self.advance()?;
                    self.expect(Tok::LParen, "'(' after the function name")?;
                    self.expr(inner)?;
                    self.expect(Tok::RParen, "')' closing the function call")?;
                    self.code.push(Op::Call(func));
                    return Ok(());
                }
                None => match self.scope.iter().rposition(|param| *param == name) {
                    Some(index) => Op::Param(index),
                    None => {
                        return Err(self.error(QasmErrorKind::UnknownParameter(name.into()), at))
                    }
                },
            },
            _ => return Err(self.expected("an expression")),
        };
        self.advance()?;
        self.code.push(op);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_circuit::{Gate, Qubit};

    #[test]
    fn parses_declarations_and_applications() {
        let out = parse(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0], q[1];",
        )
        .expect("parses");
        assert_eq!(out.circuit.num_qubits(), 3);
        assert_eq!(out.circuit.gates(), &[Gate::H(Qubit(0)), Gate::Cx(Qubit(0), Qubit(1))]);
        assert_eq!(out.report, Default::default());
    }

    #[test]
    fn parses_gate_definitions_with_params() {
        let out = parse(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate foo(theta, phi) a, b { rz(theta) a; barrier a, b; cx a, b; rz(-phi/2) b; }\n\
             foo(pi/4, 0.5) q[0], q[1];",
        )
        .expect("parses");
        assert_eq!(
            out.circuit.gates(),
            &[
                Gate::Rz(Qubit(0), PI / 4.0),
                Gate::Cx(Qubit(0), Qubit(1)),
                Gate::Rz(Qubit(1), -0.25),
            ]
        );
        assert_eq!(out.report.gates_inlined, 1);
        assert_eq!(out.report.barriers, 0, "a barrier inside a body is not a statement");
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let out = parse("OPENQASM 2.0;\nqreg q[1];\nrz(1 + 2 * 3 ^ 2) q[0];\nrz(1 - 2 - 3) q[0];")
            .expect("parses");
        // 1 + (2 * (3^2)), and left-associative subtraction.
        assert_eq!(out.circuit.gates(), &[Gate::Rz(Qubit(0), 19.0), Gate::Rz(Qubit(0), -4.0)]);
    }

    #[test]
    fn parses_measure_reset_barrier_and_if() {
        let out = parse(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nbarrier q;\nmeasure q[0] -> c[0];\n\
             reset q[1];\nif (c == 1) x q[1];",
        )
        .expect("parses");
        assert!(out.circuit.is_empty());
        let report = out.report;
        assert_eq!(
            (
                report.barriers,
                report.measurements_stripped,
                report.resets_stripped,
                report.conditionals_stripped
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn header_is_mandatory() {
        let err = parse("qreg q[1];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::BadHeader(_)));
        let err = parse("OPENQASM 3.0;\n").unwrap_err();
        assert_eq!(err.kind, QasmErrorKind::BadHeader("version 3".into()));
        let err = parse("").unwrap_err();
        assert_eq!(err.kind, QasmErrorKind::BadHeader("end of input".into()));
        assert!(parse("OPENQASM 2.0;").expect("an empty program").circuit.is_empty());
    }

    #[test]
    fn non_stdlib_includes_are_rejected() {
        let err = parse("OPENQASM 2.0;\ninclude \"other.inc\";").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnsupportedInclude(_)));
    }

    #[test]
    fn missing_semicolon_reports_position() {
        let err = parse("OPENQASM 2.0;\nqreg q[2];\nh q[0]\ncx q[0], q[1];").unwrap_err();
        // The parser notices at the 'cx' on line 4.
        assert_eq!((err.pos.line, err.pos.col), (4, 1));
        assert!(matches!(err.kind, QasmErrorKind::Expected { .. }));
        // At the end of the source the error points past the last token.
        let err = parse("OPENQASM 2.0;\nqreg q[2]").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 10));
        assert!(err.to_string().ends_with("found end of input"), "{err}");
    }

    #[test]
    fn opaque_declarations_parse() {
        let out = parse(
            "OPENQASM 2.0;\nqreg q[2];\nopaque ms a, b;\nopaque mystery(t) a;\nms q[0], q[1];",
        )
        .expect("parses");
        assert_eq!(out.circuit.gates(), &[Gate::Ms(Qubit(0), Qubit(1))]);
        let err = parse("OPENQASM 2.0;\nopaque ms a, b;\nopaque ms a, b;").unwrap_err();
        assert_eq!(err.kind, QasmErrorKind::Redefinition("ms".into()));
    }
}
