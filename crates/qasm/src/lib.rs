//! # ssync-qasm
//!
//! An OpenQASM 2.0 front-end for the S-SYNC reproduction: ingest the
//! standard circuit interchange format the QCCD-compiler literature
//! benchmarks on, and export the workspace's own circuits back out.
//!
//! Hermetic by construction (matching the workspace's vendored-deps
//! policy): one streaming pass, no external crates and no file-system
//! access — `include "qelib1.inc"` resolves to a built-in gate table. A
//! byte lexer hands out tokens that borrow from the source, and a
//! recursive-descent parser lowers each top-level statement as soon as it
//! is parsed; only `gate` bodies are kept, in a compiled form. Nothing is
//! allocated per token. Declarations must precede use, and expression and
//! gate-definition nesting are capped so that no input can exhaust the
//! parsing thread's stack.
//!
//! * [`parse`] — source text → [`ParseOutput`] (a
//!   [`Circuit`](ssync_circuit::Circuit) + a [`ParseReport`] counting
//!   stripped measurements/resets/conditionals and barriers), with
//!   [`QasmError`] diagnostics carrying 1-based line:column positions.
//! * [`export`] — circuit → QASM text whose re-import reproduces the
//!   gate list bit for bit (`content_hash`-preserving; the round-trip
//!   property tests rely on it).
//!
//! ## Example
//!
//! ```
//! let source = r#"
//! OPENQASM 2.0;
//! include "qelib1.inc";
//! qreg q[3];
//! creg c[3];
//! gate majority a, b, c { cx c, b; cx c, a; ccx a, b, c; }
//! h q[0];
//! majority q[0], q[1], q[2];
//! measure q -> c;
//! "#;
//! let out = ssync_qasm::parse(source).unwrap();
//! assert_eq!(out.circuit.num_qubits(), 3);
//! assert_eq!(out.report.measurements_stripped, 1); // the whole-register measure
//! assert_eq!(out.report.gates_inlined, 1);
//!
//! // The inverse direction preserves circuit content exactly.
//! let text = ssync_qasm::export(&out.circuit);
//! let back = ssync_qasm::parse(&text).unwrap();
//! assert_eq!(back.circuit.content_hash(), out.circuit.content_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod export;
mod lexer;
mod lower;
mod parser;

pub use error::{QasmError, QasmErrorKind, SourcePos};
pub use export::export;
pub use lower::{ParseOutput, ParseReport};

/// Parses OpenQASM 2.0 source text into a
/// [`Circuit`](ssync_circuit::Circuit) plus a lowering report, in one
/// pass over the text.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error in source
/// order, with its 1-based line:column position.
pub fn parse(source: &str) -> Result<ParseOutput, QasmError> {
    parser::parse(source)
}

/// [`parse`], then names the resulting circuit (e.g. after the source
/// file). The name is informational: it never affects
/// [`Circuit::content_hash`](ssync_circuit::Circuit::content_hash).
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_named(source: &str, name: &str) -> Result<ParseOutput, QasmError> {
    let mut out = parse(source)?;
    out.circuit.set_name(name);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_circuit::generators;

    /// The tentpole guarantee, pinned at the crate root: every generator
    /// app round-trips through text with an identical content hash.
    #[test]
    fn generator_apps_round_trip_content_hashes() {
        let circuits = [
            generators::qft(8),
            generators::cuccaro_adder(4),
            generators::bernstein_vazirani(8),
            generators::qaoa_nearest_neighbor(8, 2),
            generators::alt_ansatz(8, 2),
            generators::heisenberg_chain(6, 3),
        ];
        for circuit in &circuits {
            let text = export(circuit);
            let out = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
            assert_eq!(
                out.circuit.content_hash(),
                circuit.content_hash(),
                "{} changed through export→import",
                circuit.name()
            );
            assert_eq!(out.circuit.gates(), circuit.gates(), "{}", circuit.name());
            assert!(!out.report.stripped_anything());
        }
    }

    #[test]
    fn parse_named_sets_the_name_without_touching_the_hash() {
        let source = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];";
        let anon = parse(source).expect("parses");
        let named = parse_named(source, "my-circuit").expect("parses");
        assert_eq!(named.circuit.name(), "my-circuit");
        assert_eq!(anon.circuit.content_hash(), named.circuit.content_hash());
    }
}
