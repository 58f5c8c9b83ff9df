//! Lowering into [`ssync_circuit::Circuit`] gates: the built-in gate
//! table, compiled parameter expressions, and the stored form of user
//! `gate` bodies with their expansion.
//!
//! The parser lowers each top-level statement as soon as it has parsed
//! it, through an [`Emitter`]:
//!
//! * **registers** — every `qreg` owns a contiguous block of the flat
//!   qubit index space, in declaration order, so `qreg a[3]; qreg b[2];`
//!   lowers to a 5-qubit circuit with `a[0..3] ↦ q0..q2`,
//!   `b[0..2] ↦ q3..q4`;
//! * **built-in gates** — a gate name maps to a [`Native`] in one `match`.
//!   The table covers `U`/`CX` and the `qelib1.inc` standard library
//!   (`u1..u3`, Paulis, `h`, `s`/`t` and adjoints, rotations, controlled
//!   gates, `swap`, `ccx`, `cswap`, `rxx`/`rzz`), plus the trapped-ion
//!   natives `ms` and `ryy` this workspace's exporter emits. Built-in
//!   names always win over user definitions of the same name — a
//!   benchmark that inlines the standard library's own definitions
//!   (common in circuit dumps) lowers to the native gates rather than
//!   their decompositions, which keeps export→import round-trips exact;
//! * **user gates** — a `gate` definition is the only statement kept in
//!   a stored form ([`GateDef`]): its formals and parameters become
//!   indices, its parameter expressions compiled [`Op`] lists. Each
//!   application expands the body in place. Definitions must precede use
//!   (QASM 2.0 rules), which also rules out recursion, their nesting
//!   depth is capped when they are defined, and the gates a program
//!   expands to are capped ([`MAX_GATES`]) as they are emitted.
//!
//! Gates with no native IR equivalent lower to standard decompositions
//! over the IR's gate set (`z → rz(π)`, `ccx` → the textbook 6-CX
//! network, ...); identity-angle rotations from `u3` lowering are
//! dropped. Measurements, resets and `if`-guarded applications are
//! **stripped** — the QCCD compiler schedules unitary circuits — and
//! counted in the [`ParseReport`] so callers can surface a warning.
//! `barrier` is validated and counted; because the IR preserves program
//! order and the downstream dependency DAG never reorders gates on a
//! qubit, the fence each barrier imposes on the qubits it names is
//! respected by construction.

use crate::error::{QasmError, QasmErrorKind};
use ssync_circuit::{Circuit, Gate, Qubit};
use std::f64::consts::PI;

/// What the lowering stripped or merely counted, so callers can warn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParseReport {
    /// `measure` statements dropped (the IR is purely unitary).
    pub measurements_stripped: usize,
    /// `reset` statements dropped.
    pub resets_stripped: usize,
    /// `if`-guarded operations (gate applications, measures or resets)
    /// dropped — classical control needs measurement results a static
    /// compiler does not have. The guarded operation is still fully
    /// validated before being stripped.
    pub conditionals_stripped: usize,
    /// `barrier` statements seen (validated, counted, and respected by
    /// program order — see the module docs).
    pub barriers: usize,
    /// User-defined gate applications expanded by inlining.
    pub gates_inlined: usize,
}

impl ParseReport {
    /// `true` when anything was stripped (worth a warning to the user).
    pub fn stripped_anything(&self) -> bool {
        self.measurements_stripped + self.resets_stripped + self.conditionals_stripped > 0
    }
}

/// A lowered program: the circuit plus the lowering report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseOutput {
    /// The flattened circuit (one qubit per declared qreg element).
    pub circuit: Circuit,
    /// Warning counters from the lowering.
    pub report: ParseReport,
}

/// A built-in gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Native {
    U3,
    U2,
    U1,
    Id,
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    T,
    Tdg,
    Sx,
    Sxdg,
    Rx,
    Ry,
    Rz,
    Cx,
    Cz,
    Cp,
    Swap,
    Ms,
    Rxx,
    Ryy,
    Rzz,
    Cy,
    Ch,
    Crx,
    Cry,
    Crz,
    Cu3,
    Ccx,
    Cswap,
}

impl Native {
    /// The built-in gate called `name`, if any.
    pub(crate) fn from_name(name: &str) -> Option<Native> {
        Some(match name {
            "U" | "u3" => Native::U3,
            "u2" => Native::U2,
            "u1" | "p" => Native::U1,
            "id" => Native::Id,
            "x" => Native::X,
            "y" => Native::Y,
            "z" => Native::Z,
            "h" => Native::H,
            "s" => Native::S,
            "sdg" => Native::Sdg,
            "t" => Native::T,
            "tdg" => Native::Tdg,
            "sx" => Native::Sx,
            "sxdg" => Native::Sxdg,
            "rx" => Native::Rx,
            "ry" => Native::Ry,
            "rz" => Native::Rz,
            "CX" | "cx" => Native::Cx,
            "cz" => Native::Cz,
            "cp" | "cu1" => Native::Cp,
            "swap" => Native::Swap,
            "ms" => Native::Ms,
            "rxx" => Native::Rxx,
            "ryy" => Native::Ryy,
            "rzz" => Native::Rzz,
            "cy" => Native::Cy,
            "ch" => Native::Ch,
            "crx" => Native::Crx,
            "cry" => Native::Cry,
            "crz" => Native::Crz,
            "cu3" => Native::Cu3,
            "ccx" => Native::Ccx,
            "cswap" => Native::Cswap,
            _ => return None,
        })
    }

    /// `(parameter count, qubit count)`.
    pub(crate) fn signature(self) -> (usize, usize) {
        use Native::*;
        match self {
            U3 => (3, 1),
            U2 => (2, 1),
            U1 | Rx | Ry | Rz => (1, 1),
            Id | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg => (0, 1),
            Cx | Cz | Cy | Ch | Swap | Ms => (0, 2),
            Cp | Crx | Cry | Crz | Rxx | Ryy | Rzz => (1, 2),
            Cu3 => (3, 2),
            Ccx | Cswap => (0, 3),
        }
    }

    /// Appends the gate's IR lowering to `out`. Arities are checked and
    /// the operands are distinct and in range, so this cannot fail.
    fn emit(self, p: &[f64], q: &[usize], out: &mut Vec<Gate>) {
        let qb = |i: usize| Qubit(q[i] as u32);
        match self {
            Native::U3 => push_u(out, p[0], p[1], p[2], qb(0)),
            Native::U2 => push_u(out, PI / 2.0, p[0], p[1], qb(0)),
            Native::U1 => out.push(Gate::Rz(qb(0), p[0])),
            Native::Id => {}
            Native::X => out.push(Gate::X(qb(0))),
            Native::Y => out.push(Gate::Ry(qb(0), PI)),
            Native::Z => out.push(Gate::Rz(qb(0), PI)),
            Native::H => out.push(Gate::H(qb(0))),
            Native::S => out.push(Gate::Rz(qb(0), PI / 2.0)),
            Native::Sdg => out.push(Gate::Rz(qb(0), -PI / 2.0)),
            Native::T => out.push(Gate::Rz(qb(0), PI / 4.0)),
            Native::Tdg => out.push(Gate::Rz(qb(0), -PI / 4.0)),
            Native::Sx => out.push(Gate::Rx(qb(0), PI / 2.0)),
            Native::Sxdg => out.push(Gate::Rx(qb(0), -PI / 2.0)),
            Native::Rx => out.push(Gate::Rx(qb(0), p[0])),
            Native::Ry => out.push(Gate::Ry(qb(0), p[0])),
            Native::Rz => out.push(Gate::Rz(qb(0), p[0])),
            Native::Cx => out.push(Gate::Cx(qb(0), qb(1))),
            Native::Cz => out.push(Gate::Cz(qb(0), qb(1))),
            Native::Cp => out.push(Gate::Cp(qb(0), qb(1), p[0])),
            Native::Swap => out.push(Gate::Swap(qb(0), qb(1))),
            Native::Ms => out.push(Gate::Ms(qb(0), qb(1))),
            Native::Rxx => out.push(Gate::Rxx(qb(0), qb(1), p[0])),
            Native::Ryy => out.push(Gate::Ryy(qb(0), qb(1), p[0])),
            Native::Rzz => out.push(Gate::Rzz(qb(0), qb(1), p[0])),
            Native::Cy => {
                let (a, b) = (qb(0), qb(1));
                out.extend([Gate::Rz(b, -PI / 2.0), Gate::Cx(a, b), Gate::Rz(b, PI / 2.0)]);
            }
            Native::Ch => {
                // qelib1's decomposition, with s/t lowered to rz.
                let (a, b) = (qb(0), qb(1));
                out.extend([
                    Gate::H(b),
                    Gate::Rz(b, -PI / 2.0),
                    Gate::Cx(a, b),
                    Gate::H(b),
                    Gate::Rz(b, PI / 4.0),
                    Gate::Cx(a, b),
                    Gate::Rz(b, PI / 4.0),
                    Gate::H(b),
                    Gate::Rz(b, PI / 2.0),
                    Gate::X(b),
                    Gate::Rz(a, PI / 2.0),
                ]);
            }
            Native::Crx => {
                let (a, b) = (qb(0), qb(1));
                out.extend([Gate::Rz(b, PI / 2.0), Gate::Cx(a, b)]);
                push_u(out, -p[0] / 2.0, 0.0, 0.0, b);
                out.push(Gate::Cx(a, b));
                push_u(out, p[0] / 2.0, -PI / 2.0, 0.0, b);
            }
            Native::Cry => {
                let (a, b) = (qb(0), qb(1));
                out.extend([
                    Gate::Ry(b, p[0] / 2.0),
                    Gate::Cx(a, b),
                    Gate::Ry(b, -p[0] / 2.0),
                    Gate::Cx(a, b),
                ]);
            }
            Native::Crz => {
                let (a, b) = (qb(0), qb(1));
                out.extend([
                    Gate::Rz(b, p[0] / 2.0),
                    Gate::Cx(a, b),
                    Gate::Rz(b, -p[0] / 2.0),
                    Gate::Cx(a, b),
                ]);
            }
            Native::Cu3 => {
                let (c, t) = (qb(0), qb(1));
                let (theta, phi, lambda) = (p[0], p[1], p[2]);
                out.extend([
                    Gate::Rz(c, (lambda + phi) / 2.0),
                    Gate::Rz(t, (lambda - phi) / 2.0),
                    Gate::Cx(c, t),
                ]);
                push_u(out, -theta / 2.0, 0.0, -(phi + lambda) / 2.0, t);
                out.push(Gate::Cx(c, t));
                push_u(out, theta / 2.0, phi, 0.0, t);
            }
            Native::Ccx => {
                // The textbook 6-CX Toffoli network, t/tdg as rz(±π/4).
                let (a, b, c) = (qb(0), qb(1), qb(2));
                out.extend([
                    Gate::H(c),
                    Gate::Cx(b, c),
                    Gate::Rz(c, -PI / 4.0),
                    Gate::Cx(a, c),
                    Gate::Rz(c, PI / 4.0),
                    Gate::Cx(b, c),
                    Gate::Rz(c, -PI / 4.0),
                    Gate::Cx(a, c),
                    Gate::Rz(b, PI / 4.0),
                    Gate::Rz(c, PI / 4.0),
                    Gate::H(c),
                    Gate::Cx(a, b),
                    Gate::Rz(a, PI / 4.0),
                    Gate::Rz(b, -PI / 4.0),
                    Gate::Cx(a, b),
                ]);
            }
            Native::Cswap => {
                let (b, c) = (qb(1), qb(2));
                out.push(Gate::Cx(c, b));
                Native::Ccx.emit(&[], q, out);
                out.push(Gate::Cx(c, b));
            }
        }
    }
}

/// `U(θ,φ,λ) = Rz(φ)·Ry(θ)·Rz(λ)` up to global phase: lowered as the
/// gate sequence Rz(λ), Ry(θ), Rz(φ) with exact-zero angles skipped.
fn push_u(out: &mut Vec<Gate>, theta: f64, phi: f64, lambda: f64, q: Qubit) {
    if lambda != 0.0 {
        out.push(Gate::Rz(q, lambda));
    }
    if theta != 0.0 {
        out.push(Gate::Ry(q, theta));
    }
    if phi != 0.0 {
        out.push(Gate::Rz(q, phi));
    }
}

/// The unary math functions OpenQASM 2.0 allows in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MathFn {
    Sin,
    Cos,
    Tan,
    Exp,
    Ln,
    Sqrt,
}

impl MathFn {
    /// Looks a function up by its QASM name.
    pub(crate) fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "sin" => MathFn::Sin,
            "cos" => MathFn::Cos,
            "tan" => MathFn::Tan,
            "exp" => MathFn::Exp,
            "ln" => MathFn::Ln,
            "sqrt" => MathFn::Sqrt,
            _ => return None,
        })
    }

    fn apply(self, x: f64) -> f64 {
        match self {
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Tan => x.tan(),
            MathFn::Exp => x.exp(),
            MathFn::Ln => x.ln(),
            MathFn::Sqrt => x.sqrt(),
        }
    }
}

/// One instruction of a compiled parameter expression, in postfix order:
/// evaluating a list pushes one value per expression it holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// A literal (or `pi`).
    Num(f64),
    /// The enclosing gate definition's parameter at this index.
    Param(usize),
    Neg,
    Call(MathFn),
    Add,
    Sub,
    Mul,
    /// Division; the byte offset of the `/` for a division-by-zero error.
    Div(usize),
    /// `^`.
    Pow,
}

/// What an application names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Callee {
    Native(Native),
    /// An index into the user gate definitions.
    User(usize),
}

/// A user `gate` definition in stored form.
pub(crate) struct GateDef<'a> {
    /// Parameter count.
    pub(crate) params: usize,
    /// Formal qubit count.
    pub(crate) qubits: usize,
    /// One more than the deepest user gate the body applies (1 for a body
    /// of built-ins only): the recursion depth of an expansion.
    pub(crate) depth: usize,
    /// The body's gate applications, in order (barriers are dropped: an
    /// inlined body keeps program order anyway).
    pub(crate) body: Vec<BodyOp<'a>>,
}

/// One gate application inside a gate body.
pub(crate) struct BodyOp<'a> {
    /// The applied gate's name, for diagnostics.
    pub(crate) name: &'a str,
    pub(crate) callee: Callee,
    /// The parameter expressions, compiled back to back; they refer to the
    /// definition's parameters by index.
    pub(crate) code: Vec<Op>,
    /// The arguments as indices into the definition's formals.
    pub(crate) args: Vec<usize>,
    /// The arguments name one formal twice.
    pub(crate) repeats_a_qubit: bool,
    /// Byte offset of the gate name.
    pub(crate) at: usize,
}

/// `true` when `values` holds a duplicate; `scratch` is reused storage.
pub(crate) fn repeats(values: &[usize], scratch: &mut Vec<usize>) -> bool {
    match values {
        [] | [_] => false,
        [a, b] => a == b,
        _ => {
            scratch.clear();
            scratch.extend_from_slice(values);
            scratch.sort_unstable();
            scratch.windows(2).any(|w| w[0] == w[1])
        }
    }
}

/// How many gates a program may lower to. An application that lowers to
/// no gate (`id`, a gate with an empty body) counts as one, and so does
/// every user gate application, so the cap bounds the work of expanding
/// as well as the size of the circuit: a few lines of definitions that
/// each apply the previous one twice, or one broadcast over a huge
/// register, fail with a typed error instead of exhausting memory.
pub(crate) const MAX_GATES: usize = 1 << 22;

/// The output side of the single pass: the gates emitted so far, and two
/// stacks that expansion pushes onto and pops, so that lowering a
/// statement allocates nothing once they have grown. The stack layout is
/// private: [`Emitter::evaluate`] binds a statement's parameters and
/// [`Emitter::apply`] expands one application of it.
pub(crate) struct Emitter<'a> {
    source: &'a str,
    gates: Vec<Gate>,
    /// Parameter values: the statement's own, then those of each body
    /// application being expanded, innermost last.
    params: Vec<f64>,
    /// Flat qubit indices, stacked like `params`.
    qubits: Vec<usize>,
    scratch: Vec<usize>,
    /// Gates counted against [`MAX_GATES`] so far.
    counted: usize,
    /// User gate applications expanded by inlining.
    inlined: usize,
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        Emitter {
            source,
            gates: Vec::new(),
            params: Vec::new(),
            qubits: Vec::new(),
            scratch: Vec::new(),
            counted: 0,
            inlined: 0,
        }
    }

    /// The gates emitted and the number of user gate applications inlined.
    pub(crate) fn finish(self) -> (Vec<Gate>, usize) {
        (self.gates, self.inlined)
    }

    /// Evaluates the parameter expressions of a top-level statement, which
    /// refer to no gate parameters; [`Emitter::apply`] uses the values
    /// until the next call.
    ///
    /// # Errors
    ///
    /// A division by zero.
    pub(crate) fn evaluate(&mut self, code: &[Op]) -> Result<(), QasmError> {
        self.params.clear();
        self.eval(code, 0)
    }

    /// Evaluates `code` onto the parameter stack; `Param(i)` reads
    /// `params[frame + i]`.
    fn eval(&mut self, code: &[Op], frame: usize) -> Result<(), QasmError> {
        for op in code {
            let value = match *op {
                Op::Num(v) => v,
                Op::Param(i) => self.params[frame + i],
                Op::Neg => -self.pop(),
                Op::Call(func) => func.apply(self.pop()),
                Op::Add => self.pop_pair(|a, b| a + b),
                Op::Sub => self.pop_pair(|a, b| a - b),
                Op::Mul => self.pop_pair(|a, b| a * b),
                Op::Pow => self.pop_pair(f64::powf),
                Op::Div(at) => {
                    let b = self.pop();
                    if b == 0.0 {
                        return Err(QasmError::at(
                            QasmErrorKind::BadExpression("division by zero"),
                            self.source,
                            at,
                        ));
                    }
                    self.pop() / b
                }
            };
            self.params.push(value);
        }
        Ok(())
    }

    fn pop(&mut self) -> f64 {
        self.params.pop().expect("compiled expressions are balanced")
    }

    fn pop_pair(&mut self, op: impl Fn(f64, f64) -> f64) -> f64 {
        let b = self.pop();
        op(self.pop(), b)
    }

    /// Applies `callee`, named `name` at byte `at`, to `qubits` with the
    /// parameters of the last [`Emitter::evaluate`].
    ///
    /// # Errors
    ///
    /// The qubits repeat, the program passes [`MAX_GATES`], or an
    /// expansion fails (a repeated formal, a division by zero).
    pub(crate) fn apply(
        &mut self,
        defs: &[GateDef<'a>],
        name: &str,
        callee: Callee,
        qubits: impl IntoIterator<Item = usize>,
        at: usize,
    ) -> Result<(), QasmError> {
        self.qubits.clear();
        self.qubits.extend(qubits);
        if repeats(&self.qubits, &mut self.scratch) {
            return Err(self.duplicate(name, at));
        }
        self.call(defs, callee, 0, 0, at)
    }

    fn duplicate(&self, name: &str, at: usize) -> QasmError {
        QasmError::at(QasmErrorKind::DuplicateQubit(name.to_string()), self.source, at)
    }

    /// Counts `gates` more against [`MAX_GATES`] for the statement at
    /// byte `at`.
    fn count(&mut self, gates: usize, at: usize) -> Result<(), QasmError> {
        self.counted += gates;
        if self.counted <= MAX_GATES {
            return Ok(());
        }
        let kind = QasmErrorKind::LimitExceeded { what: "gate count", limit: MAX_GATES };
        Err(QasmError::at(kind, self.source, at))
    }

    /// Emits `callee` over `qubits[qubit_frame..]` with parameters
    /// `params[param_frame..]`, expanding user gates recursively; the
    /// recursion is as deep as the definition's `depth`. `at` is the
    /// top-level statement being expanded.
    fn call(
        &mut self,
        defs: &[GateDef<'a>],
        callee: Callee,
        param_frame: usize,
        qubit_frame: usize,
        at: usize,
    ) -> Result<(), QasmError> {
        let index = match callee {
            Callee::Native(gate) => {
                let before = self.gates.len();
                gate.emit(
                    &self.params[param_frame..],
                    &self.qubits[qubit_frame..],
                    &mut self.gates,
                );
                return self.count((self.gates.len() - before).max(1), at);
            }
            Callee::User(index) => index,
        };
        self.count(1, at)?;
        self.inlined += 1;
        for op in &defs[index].body {
            let (params, qubits) = (self.params.len(), self.qubits.len());
            self.eval(&op.code, param_frame)?;
            // The formals are bound to distinct qubits, so only a formal
            // named twice can repeat a qubit.
            if op.repeats_a_qubit {
                return Err(self.duplicate(op.name, op.at));
            }
            for &formal in &op.args {
                let qubit = self.qubits[qubit_frame + formal];
                self.qubits.push(qubit);
            }
            self.call(defs, op.callee, params, qubits, at)?;
            self.params.truncate(params);
            self.qubits.truncate(qubits);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn lower_source(source: &str) -> Result<ParseOutput, QasmError> {
        parse(source)
    }

    #[test]
    fn registers_flatten_in_declaration_order() {
        let out =
            lower_source("OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a[1], b[2];").expect("lowers");
        assert_eq!(out.circuit.num_qubits(), 5);
        assert_eq!(out.circuit.gates(), &[Gate::Cx(Qubit(1), Qubit(4))]);
        // A register declared after gates widens the circuit; the gates
        // before it keep their indices.
        let out = lower_source("OPENQASM 2.0;\nqreg a[1];\nh a[0];\nqreg b[2];\ncx a[0], b[1];")
            .expect("lowers");
        assert_eq!(out.circuit.num_qubits(), 3);
        assert_eq!(out.circuit.gates(), &[Gate::H(Qubit(0)), Gate::Cx(Qubit(0), Qubit(2))]);
    }

    #[test]
    fn broadcasting_applies_element_wise() {
        let out =
            lower_source("OPENQASM 2.0;\nqreg q[3];\nqreg a[3];\nh q;\ncx q, a;\ncx q, a[0];")
                .expect("lowers");
        // 3 h, then 3 pairwise cx, then 3 cx from each q onto the pinned a[0].
        let gates = out.circuit.gates();
        assert_eq!(gates.len(), 9);
        assert_eq!(gates[3], Gate::Cx(Qubit(0), Qubit(3)));
        assert_eq!(gates[5], Gate::Cx(Qubit(2), Qubit(5)));
        assert_eq!(gates[6], Gate::Cx(Qubit(0), Qubit(3)));
        assert_eq!(gates[8], Gate::Cx(Qubit(2), Qubit(3)));
    }

    #[test]
    fn broadcast_length_mismatch_is_an_error() {
        let err = lower_source("OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a, b;").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::BroadcastMismatch { .. }));
    }

    #[test]
    fn user_gates_inline_recursively_with_parameters() {
        let out = lower_source(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate inner(theta) a { rz(theta/2) a; }\n\
             gate outer(theta) a, b { inner(theta) a; cx a, b; inner(-theta) b; }\n\
             outer(pi) q[0], q[1];",
        )
        .expect("lowers");
        assert_eq!(
            out.circuit.gates(),
            &[
                Gate::Rz(Qubit(0), PI / 2.0),
                Gate::Cx(Qubit(0), Qubit(1)),
                Gate::Rz(Qubit(1), -PI / 2.0),
            ]
        );
        assert_eq!(out.report.gates_inlined, 3);
    }

    #[test]
    fn stdlib_gates_lower_to_native_or_decomposed_forms() {
        let out = lower_source(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
             s q[0]; tdg q[1]; y q[2]; u2(0, pi) q[0]; ccx q[0], q[1], q[2];",
        )
        .expect("lowers");
        let gates = out.circuit.gates();
        assert_eq!(gates[0], Gate::Rz(Qubit(0), PI / 2.0));
        assert_eq!(gates[1], Gate::Rz(Qubit(1), -PI / 4.0));
        assert_eq!(gates[2], Gate::Ry(Qubit(2), PI));
        // u2(0, π) = Rz(π)·Ry(π/2); the zero φ rotation is skipped.
        assert_eq!(gates[3], Gate::Rz(Qubit(0), PI));
        assert_eq!(gates[4], Gate::Ry(Qubit(0), PI / 2.0));
        // ccx expands to the 15-gate Toffoli network.
        assert_eq!(gates.len(), 5 + 15);
        assert_eq!(out.circuit.two_qubit_gate_count(), 6);
    }

    #[test]
    fn redefining_a_builtin_keeps_the_native_lowering() {
        // Circuit dumps often inline qelib1's own definitions; the native
        // table must win so round-trips stay exact.
        let out = lower_source(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate h a { u2(0, pi) a; }\ngate h a { u2(0, pi) a; }\nh q[0];",
        )
        .expect("lowers");
        assert_eq!(out.circuit.gates(), &[Gate::H(Qubit(0))]);
        assert_eq!(out.report.gates_inlined, 0);
    }

    #[test]
    fn measure_reset_and_if_strip_with_counters() {
        let out = lower_source(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n\
             reset q[1];\nif (c == 1) x q[1];\nbarrier q;",
        )
        .expect("lowers");
        assert_eq!(out.circuit.len(), 1);
        assert_eq!(out.report.measurements_stripped, 1);
        assert_eq!(out.report.resets_stripped, 1);
        assert_eq!(out.report.conditionals_stripped, 1);
        assert_eq!(out.report.barriers, 1);
        assert!(out.report.stripped_anything());
    }

    #[test]
    fn semantic_errors_carry_positions() {
        let err = lower_source("OPENQASM 2.0;\nqreg q[2];\nh q[5];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::IndexOutOfRange { index: 5, size: 2, .. }));
        assert_eq!(err.pos.line, 3);

        let err = lower_source("OPENQASM 2.0;\nqreg q[2];\nnope q[0];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnknownGate(_)));

        let err = lower_source("OPENQASM 2.0;\nqreg q[2];\ncx q[0];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::ArityMismatch { expected: 2, got: 1, .. }));

        let err = lower_source("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::DuplicateQubit(_)));

        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::BadExpression(_)));

        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::Redefinition(_)));

        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\ngate f a { f a; }").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::RecursiveGate(_)));

        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\ngate f(x) a { rz(yy) a; }").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnknownParameter(_)));

        // Inside a body, a division by zero surfaces when the gate expands.
        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\ngate f(x) a { rz(1/x) a; }\nf(0) q[0];")
            .unwrap_err();
        assert_eq!(err.kind, QasmErrorKind::BadExpression("division by zero"));
        assert_eq!((err.pos.line, err.pos.col), (3, 19));
    }

    #[test]
    fn conditional_qops_parse_and_validate_before_stripping() {
        // `if (c==n) measure/reset` are legal qops and strip cleanly.
        let out = lower_source(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n\
             if (c == 1) measure q[0] -> c[0];\nif (c == 2) reset q[1];\nif (c == 3) x q[0];",
        )
        .expect("lowers");
        assert!(out.circuit.is_empty());
        assert_eq!(out.report.conditionals_stripped, 3);
        assert_eq!(out.report.measurements_stripped, 0, "counted as conditionals");

        // A typo inside `if` is still a typo: unknown gate, bad arity,
        // unknown register and unknown guard creg all error.
        let err =
            lower_source("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) frobnicate q[0];")
                .unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnknownGate(_)));
        let err = lower_source("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nif (c == 1) cx q[0];")
            .unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::ArityMismatch { .. }));
        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) x nosuch[0];")
            .unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnknownRegister(_)));
        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\nif (nosuch == 1) x q[0];").unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnknownRegister(_)));
    }

    #[test]
    fn duplicate_qubits_error_for_user_defined_gates_too() {
        let err = lower_source(
            "OPENQASM 2.0;\nqreg q[2];\n\
             gate pp a, b { rz(1) a; rz(2) b; }\npp q[0], q[0];",
        )
        .unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::DuplicateQubit(name) if name == "pp"));
        // A body naming one formal twice fails when the gate expands.
        let err = lower_source("OPENQASM 2.0;\nqreg q[1];\ngate twice a { cx a, a; }\ntwice q[0];")
            .unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::DuplicateQubit(name) if name == "cx"));
        assert!(repeats(&[3, 1, 2, 1], &mut Vec::new()));
        assert!(!repeats(&[3, 1, 2], &mut Vec::new()));
    }

    #[test]
    fn expressions_evaluate_with_precedence_and_functions() {
        let out = lower_source(
            "OPENQASM 2.0;\nqreg q[1];\nrz(-pi/4 + 2^3 * 0.125) q[0];\nrz(cos(0)) q[0];\n\
             rz(-2^2) q[0];\nrz(2^-1) q[0];\nrz(2^3^2) q[0];\nrz(8/2/2) q[0];",
        )
        .expect("lowers");
        let angles: Vec<f64> = out
            .circuit
            .iter()
            .map(|gate| match *gate {
                Gate::Rz(_, angle) => angle,
                other => panic!("rz expected, got {other:?}"),
            })
            .collect();
        assert!((angles[0] - (-PI / 4.0 + 1.0)).abs() < 1e-12);
        assert_eq!(angles[1], 1.0);
        // Unary minus binds tighter than '^', which is right-associative.
        assert_eq!(&angles[2..], &[4.0, 0.5, 512.0, 2.0]);
    }

    #[test]
    fn opaque_native_gates_lower_and_unknown_opaques_error() {
        let out = lower_source("OPENQASM 2.0;\nqreg q[2];\nopaque ms a, b;\nms q[0], q[1];")
            .expect("lowers");
        assert_eq!(out.circuit.gates(), &[Gate::Ms(Qubit(0), Qubit(1))]);

        let err =
            lower_source("OPENQASM 2.0;\nqreg q[2];\nopaque mystery a, b;\nmystery q[0], q[1];")
                .unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::UnknownGate(_)));
    }
}
