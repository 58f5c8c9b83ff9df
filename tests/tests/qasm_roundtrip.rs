//! The QASM front-end's workspace-level guarantees:
//!
//! 1. **Round-trip** — `parse(export(c))` preserves `content_hash` for
//!    every generator app and for random circuits over the full gate
//!    set (property-based).
//! 2. **Golden corpus** — every checked-in `workloads/*.qasm` file
//!    parses, and compiles under **all five** `CompilerKind`s, with the
//!    compile-service output bit-identical to direct `compile_on`.
//! 3. **Golden lowering** — each corpus file, a QFT-48 export and a
//!    Heisenberg-48×48 export lower to pinned widths, gate counts,
//!    content hashes and reports.
//! 4. **Diagnostics** — one table row per error kind and per position
//!    rule, through the public `parse`: kind, `line:col` and message.
//! 5. **Robustness** — no prefix or random edit of a corpus file makes
//!    the parser panic, and nesting 100,000 levels deep is a typed error
//!    on a 2 MiB thread stack, not a stack overflow.

use proptest::prelude::*;
use ssync_baselines::CompilerKind;
use ssync_circuit::generators::{self, random_two_qubit_circuit};
use ssync_circuit::{Circuit, Gate, Qubit};
use ssync_core::CompilerConfig;
use ssync_qasm::{export, parse, ParseOutput, ParseReport, QasmError, QasmErrorKind};
use ssync_service::{CompileRequest, CompileService};
use std::path::PathBuf;
use std::sync::Arc;

fn assert_round_trip(circuit: &Circuit) {
    let text = export(circuit);
    let out = parse(&text).unwrap_or_else(|e| panic!("{} fails to re-import: {e}", circuit.name()));
    assert_eq!(
        out.circuit.content_hash(),
        circuit.content_hash(),
        "{} changed through export→import",
        circuit.name()
    );
    assert_eq!(out.circuit.gates(), circuit.gates(), "{}", circuit.name());
    assert_eq!(out.circuit.num_qubits(), circuit.num_qubits(), "{}", circuit.name());
}

/// Every generator application round-trips at several sizes (the
/// acceptance criterion's deterministic half).
#[test]
fn all_generator_apps_round_trip_content_hashes() {
    let circuits = [
        generators::qft(8),
        generators::qft(16),
        generators::cuccaro_adder(4),
        generators::cuccaro_adder(8),
        generators::bernstein_vazirani(8),
        generators::bernstein_vazirani_with_secret(&[
            true, false, true, true, false, false, true, true, false, true,
        ]),
        generators::qaoa_nearest_neighbor(8, 2),
        generators::qaoa_random_graph(8, 2, 0.5, 7),
        generators::alt_ansatz(8, 2),
        generators::heisenberg_chain(6, 3),
    ];
    for circuit in &circuits {
        assert_round_trip(circuit);
    }
}

/// A circuit drawing every gate kind with adversarial angles.
fn gate_soup(qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut c = Circuit::with_name(qubits, format!("soup_{qubits}_{gates}_{seed}"));
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..gates {
        let a = Qubit((next() % qubits as u64) as u32);
        let mut b = Qubit((next() % qubits as u64) as u32);
        if b == a {
            b = Qubit((a.0 + 1) % qubits as u32);
        }
        // Angles spanning signs, magnitudes and awkward expansions.
        let angle = match next() % 6 {
            0 => f64::from_bits(0x3FF0_0000_0000_0000 | (next() >> 12)), // [1, 2)
            1 => -(next() as f64) / (u64::MAX as f64) * std::f64::consts::PI,
            2 => (next() as f64).recip(),
            3 => 1.0 / 3.0 * (next() % 100) as f64,
            4 => 0.1 + 0.2 + (next() % 10) as f64,
            _ => (next() % 1_000_000) as f64 * 1e-9,
        };
        let gate = match next() % 13 {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Rx(a, angle),
            3 => Gate::Ry(a, angle),
            4 => Gate::Rz(a, angle),
            5 => Gate::Cx(a, b),
            6 => Gate::Cz(a, b),
            7 => Gate::Cp(a, b, angle),
            8 => Gate::Ms(a, b),
            9 => Gate::Rzz(a, b, angle),
            10 => Gate::Rxx(a, b, angle),
            11 => Gate::Ryy(a, b, angle),
            _ => Gate::Swap(a, b),
        };
        c.push(gate);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random circuits over the full gate set (all 13 kinds, adversarial
    /// float angles) round-trip exactly.
    #[test]
    fn random_gate_soup_round_trips(
        qubits in 2usize..24,
        gates in 0usize..120,
        seed in 0u64..1_000_000,
    ) {
        assert_round_trip(&gate_soup(qubits, gates, seed));
    }

    /// The generator used by the batch/service golden tests round-trips
    /// at every size it is drawn at.
    #[test]
    fn random_two_qubit_circuits_round_trip(
        qubits in 2usize..20,
        gates in 0usize..80,
        seed in 0u64..1_000,
    ) {
        assert_round_trip(&random_two_qubit_circuit(qubits, gates, seed));
    }
}

fn workloads_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../workloads")
}

/// Every checked-in `workloads/*.qasm` file as `(file stem, source)`, in
/// file-name order.
fn corpus_sources() -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(workloads_dir())
        .expect("workloads/ checked in")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 9, "corpus must keep its six exports + three hand-written files");
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_str().unwrap().to_string();
            let source = std::fs::read_to_string(&path).expect("readable corpus file");
            (name, source)
        })
        .collect()
}

fn corpus() -> Vec<(String, Circuit)> {
    corpus_sources()
        .into_iter()
        .map(|(name, source)| {
            let out = ssync_qasm::parse_named(&source, &name)
                .unwrap_or_else(|e| panic!("{name}.qasm: {e}"));
            (name, out.circuit)
        })
        .collect()
}

const fn report(
    measurements_stripped: usize,
    resets_stripped: usize,
    conditionals_stripped: usize,
    barriers: usize,
    gates_inlined: usize,
) -> ParseReport {
    ParseReport {
        measurements_stripped,
        resets_stripped,
        conditionals_stripped,
        barriers,
        gates_inlined,
    }
}

/// `(file stem, num_qubits, gate count, content_hash, report)` per corpus
/// file, recorded from the multi-pass lexer → AST → lowering front-end
/// before it was replaced by the single-pass parser.
const CORPUS_PINS: [(&str, usize, usize, u64, ParseReport); 9] = [
    ("adder_4", 10, 137, 0x4386_4625_f103_08fb, report(0, 0, 0, 0, 0)),
    ("alt_8", 8, 56, 0x0b8e_1d9f_c2b7_3050, report(0, 0, 0, 0, 0)),
    ("barriers", 6, 8, 0x632b_1c65_e7e2_c1f9, report(1, 0, 0, 4, 0)),
    ("bv_8", 9, 26, 0xfa8b_fd79_3d25_5b45, report(0, 0, 0, 0, 0)),
    ("gatedefs", 8, 115, 0xbdb3_7ff9_faba_8a8b, report(4, 0, 0, 0, 12)),
    ("heisenberg_6", 6, 255, 0x2269_9559_c151_fe57, report(0, 0, 0, 0, 0)),
    ("qaoa_8", 8, 66, 0x7c21_1c41_077d_6cd2, report(0, 0, 0, 0, 0)),
    ("qft_8", 8, 148, 0x5f4e_0c8d_2818_f985, report(0, 0, 0, 0, 0)),
    ("stdlib", 6, 95, 0x05f8_a194_aa42_b269, report(1, 1, 1, 0, 0)),
];

/// Golden: the lowering of every corpus file is pinned, so a wrong
/// inlining, broadcast or decomposition fails here even when export and
/// re-import still agree with each other.
#[test]
fn corpus_lowering_matches_the_pinned_goldens() {
    let sources = corpus_sources();
    assert_eq!(sources.len(), CORPUS_PINS.len(), "a corpus file was added or removed");
    for ((name, source), (pin_name, qubits, gates, hash, report)) in sources.iter().zip(CORPUS_PINS)
    {
        assert_eq!(name, pin_name);
        let out = parse(source).unwrap_or_else(|e| panic!("{name}.qasm: {e}"));
        assert_eq!(out.circuit.num_qubits(), qubits, "{name}: width");
        assert_eq!(out.circuit.len(), gates, "{name}: gate count");
        assert_eq!(out.circuit.content_hash(), hash, "{name}: content hash");
        assert_eq!(out.report, report, "{name}: report");
    }
}

/// Golden: the two large exports the benchmarks send (QFT-48, 155 KB,
/// and Heisenberg-48×48, 678 KB) lower to pinned content hashes.
#[test]
fn large_exports_lower_to_the_pinned_hashes() {
    for (circuit, hash) in [
        (generators::qft(48), 0x6428_7496_5d89_1885),
        (generators::heisenberg_chain(48, 48), 0x5909_b65e_5496_d415),
    ] {
        let out = parse(&export(&circuit)).expect("exports re-import");
        assert_eq!(out.circuit.content_hash(), hash, "{}", circuit.name());
    }
}

/// Golden: every corpus file parses, exports back out, and re-imports
/// with an unchanged hash (export is total over parsed circuits).
#[test]
fn every_corpus_file_parses_and_round_trips() {
    for (name, circuit) in corpus() {
        assert!(!circuit.is_empty(), "{name} lowered to an empty circuit");
        assert_round_trip(&circuit);
    }
}

/// Golden: every corpus file compiles under all four compiler kinds on a
/// device that forces real routing, and the compile-service output is
/// bit-identical to direct `compile_on` — the service changes *where* a
/// parsed workload compiles, never *what* it produces.
#[test]
fn corpus_compiles_under_all_kinds_service_equals_direct() {
    let config = CompilerConfig::default();
    let service = CompileService::with_workers(2);
    // Small traps (capacity 4) so even 6–10-qubit workloads shuttle.
    let registered = service
        .registry()
        .get_or_build("tiny-G-2x2c4", config.weights, || ssync_arch::QccdTopology::grid(2, 2, 4));
    let circuits: Vec<(String, Arc<Circuit>)> =
        corpus().into_iter().map(|(name, c)| (name, Arc::new(c))).collect();
    let requests = circuits.iter().flat_map(|(_, circuit)| {
        CompilerKind::ALL.into_iter().map(|kind| {
            CompileRequest::new(Arc::clone(&registered), Arc::clone(circuit), kind, config)
        })
    });
    let handles = service.submit_batch(requests);
    for ((name, circuit), chunk) in circuits.iter().zip(handles.chunks(CompilerKind::ALL.len())) {
        for (kind, handle) in CompilerKind::ALL.into_iter().zip(chunk) {
            let via_service = handle
                .wait()
                .unwrap_or_else(|e| panic!("{name} under {kind:?} fails to compile: {e}"));
            let direct = kind
                .compile_on(registered.device(), circuit, &config)
                .expect("direct compile succeeds");
            assert_eq!(
                direct.program().ops(),
                via_service.program().ops(),
                "{name} under {kind:?}: service ops diverge from compile_on"
            );
            assert_eq!(
                direct.final_placement(),
                via_service.final_placement(),
                "{name} under {kind:?}: placements diverge"
            );
            assert_eq!(
                direct.report().success_rate.to_bits(),
                via_service.report().success_rate.to_bits(),
                "{name} under {kind:?}: reports diverge"
            );
        }
    }
}

/// `(source, kind, line:col, message)`: every [`QasmErrorKind`] and every
/// position rule the front-end promises, through the public `parse`.
fn diagnostics() -> Vec<(String, QasmErrorKind, &'static str, &'static str)> {
    use QasmErrorKind::*;
    let h = |body: &str| format!("OPENQASM 2.0;\n{body}");
    let limit = |what, limit| LimitExceeded { what, limit };
    let too_deep = format!("qreg q[1];\nrz({}1{}) q[0];", "(".repeat(200), ")".repeat(200));
    let gate_chain: String = std::iter::once("gate g0 a { h a; }\n".to_string())
        .chain((1..=64).map(|i| format!("gate g{i} a {{ g{} a; }}\n", i - 1)))
        .collect();
    // Each definition applies the previous one twice, down to an empty
    // body: about 2^40 gate applications that lower to nothing.
    let doubling: String = std::iter::once("gate g0 a { }\n".to_string())
        .chain((1..40).map(|i| format!("gate g{i} a {{ g{0} a; g{0} a; }}\n", i - 1)))
        .collect();
    vec![
        (h("qreg q[1];\n  @"), UnexpectedChar('@'), "3:3", "unexpected character '@'"),
        // Columns count characters, not bytes, after non-ASCII text.
        (h("qreg q[1];\n/* é */ @"), UnexpectedChar('@'), "3:9", "unexpected character '@'"),
        (h("qreg q[1];\nh q[0]; é"), UnexpectedChar('é'), "3:9", "unexpected character 'é'"),
        (h("qreg q[1];\nh q[0] = 1;"), UnexpectedChar('='), "3:8", "unexpected character '='"),
        (
            h("/* never\nclosed"),
            UnterminatedToken("block comment"),
            "2:1",
            "unterminated block comment",
        ),
        (
            h("include \"qelib1.inc;\n"),
            UnterminatedToken("string literal"),
            "2:9",
            "unterminated string literal",
        ),
        (
            h("qreg q[1];\nrz(1.5e) q[0];"),
            MalformedNumber("1.5e".into()),
            "3:4",
            "malformed number '1.5e'",
        ),
        (
            h("qreg q[1];\nh q[18446744073709551616];"),
            MalformedNumber("18446744073709551616".into()),
            "3:5",
            "malformed number '18446744073709551616'",
        ),
        (
            h("qreg q[2];\nh q[0]\ncx q[0], q[1];"),
            Expected {
                expected: "';' after the gate application",
                found: "identifier 'cx'".into(),
            },
            "4:1",
            "expected ';' after the gate application, found identifier 'cx'",
        ),
        (
            h("qreg q[2]"),
            Expected {
                expected: "';' after the register declaration",
                found: "end of input".into(),
            },
            "2:10",
            "expected ';' after the register declaration, found end of input",
        ),
        (
            h("qreg q[1];\nrz(*) q[0];"),
            Expected { expected: "an expression", found: "'*'".into() },
            "3:4",
            "expected an expression, found '*'",
        ),
        (
            "qreg q[1];".into(),
            BadHeader("identifier 'qreg'".into()),
            "1:1",
            "expected 'OPENQASM 2.0;' header, found 'identifier 'qreg''",
        ),
        (
            "OPENQASM 2;".into(),
            BadHeader("integer 2".into()),
            "1:1",
            "expected 'OPENQASM 2.0;' header, found 'integer 2'",
        ),
        (
            "OPENQASM 3.0;".into(),
            BadHeader("version 3".into()),
            "1:1",
            "expected 'OPENQASM 2.0;' header, found 'version 3'",
        ),
        (
            h("include \"other.inc\";"),
            UnsupportedInclude("other.inc".into()),
            "2:1",
            "unsupported include 'other.inc' (only the built-in \"qelib1.inc\" is available)",
        ),
        (h("qreg q[1];\nqreg q[2];"), Redefinition("q".into()), "3:1", "'q' is already defined"),
        (
            h("gate f a { h a; }\ngate f a { x a; }"),
            Redefinition("f".into()),
            "3:1",
            "'f' is already defined",
        ),
        (
            h("qreg q[1];\nx r[0];"),
            UnknownRegister("r".into()),
            "3:3",
            "unknown quantum register 'r'",
        ),
        (
            h("qreg q[1];\nif (c == 1) x q[0];"),
            UnknownRegister("c".into()),
            "3:1",
            "unknown quantum register 'c'",
        ),
        // Declarations must come before use: the first use fails.
        (
            h("h q[0];\nqreg q[1];"),
            UnknownRegister("q".into()),
            "2:3",
            "unknown quantum register 'q'",
        ),
        (h("qreg q[2];\nnope q[0];"), UnknownGate("nope".into()), "3:1", "unknown gate 'nope'"),
        (
            h("qreg q[1];\nfoo q[0];\ngate foo a { h a; }"),
            UnknownGate("foo".into()),
            "3:1",
            "unknown gate 'foo'",
        ),
        (
            h("qreg q[2];\nh q[5];"),
            IndexOutOfRange { register: "q".into(), index: 5, size: 2 },
            "3:3",
            "index 5 out of range for q[2]",
        ),
        // Lines keep counting through a block comment that spans several.
        (
            h("/* one\n   two\n   three */ qreg q[1];\nh q[1];"),
            IndexOutOfRange { register: "q".into(), index: 1, size: 1 },
            "5:3",
            "index 1 out of range for q[1]",
        ),
        (
            h("qreg q[2];\ncx q[0];"),
            ArityMismatch { gate: "cx".into(), expected: 2, got: 1, what: "qubit arguments" },
            "3:1",
            "gate 'cx' takes 2 qubit arguments, got 1",
        ),
        (
            h("qreg q[1];\nrz q[0];"),
            ArityMismatch { gate: "rz".into(), expected: 1, got: 0, what: "parameters" },
            "3:1",
            "gate 'rz' takes 1 parameters, got 0",
        ),
        (
            h("qreg q[2];\ncx q[0], q[0];"),
            DuplicateQubit("cx".into()),
            "3:1",
            "gate 'cx' applied to the same qubit twice",
        ),
        (
            h("qreg a[2];\nqreg b[3];\ncx a, b;"),
            BroadcastMismatch { gate: "cx".into() },
            "4:7",
            "registers broadcast through gate 'cx' have different lengths",
        ),
        (
            h("gate f(x) a { rz(yy) a; }"),
            UnknownParameter("yy".into()),
            "2:18",
            "'yy' is not a parameter in scope (and not 'pi')",
        ),
        (
            h("qreg q[1];\nrz(1/0) q[0];"),
            BadExpression("division by zero"),
            "3:5",
            "invalid expression: division by zero",
        ),
        (
            h("gate f a { f a; }"),
            RecursiveGate("f".into()),
            "2:12",
            "gate 'f' is defined recursively",
        ),
        (h("qreg q[0];"), EmptyRegister("q".into()), "2:1", "register 'q' declared with size 0"),
        (
            h(&too_deep),
            limit("expression nesting depth", 128),
            "3:132",
            "expression nesting depth exceeds the limit of 128",
        ),
        (
            h(&gate_chain),
            limit("gate nesting depth", 64),
            "66:14",
            "gate nesting depth exceeds the limit of 64",
        ),
        (
            h("qreg a[4294967295];\nqreg b[1];"),
            limit("total qubit count", 4_294_967_295),
            "3:1",
            "total qubit count exceeds the limit of 4294967295",
        ),
        (
            h(&format!("qreg q[1];\n{doubling}g39 q[0];")),
            limit("gate count", 4_194_304),
            "43:1",
            "gate count exceeds the limit of 4194304",
        ),
        (
            h("qreg q[4294967295];\nh q;"),
            limit("gate count", 4_194_304),
            "3:1",
            "gate count exceeds the limit of 4194304",
        ),
        // A gate that lowers to nothing still counts.
        (
            h("qreg q[4294967295];\nid q;"),
            limit("gate count", 4_194_304),
            "3:1",
            "gate count exceeds the limit of 4194304",
        ),
    ]
}

/// The diagnostics table: each row's kind, `line:col` and full message.
#[test]
fn diagnostics_pin_kind_position_and_message() {
    for (source, kind, pos, message) in diagnostics() {
        let err = parse(&source).expect_err(&source);
        assert_eq!(err.kind, kind, "{source}");
        assert_eq!(err.pos.to_string(), pos, "{source}");
        assert_eq!(err.to_string(), format!("{pos}: {message}"), "{source}");
    }
}

/// Byte strings the edit fuzzer splices in: punctuation, operators and
/// keywords of the grammar, comment and string openers, numbers that
/// overflow, and multi-byte UTF-8 characters.
const SPLICES: [&[u8]; 40] = [
    b"(",
    b")",
    b"[",
    b"]",
    b"{",
    b"}",
    b";",
    b",",
    b"-",
    b">",
    b"->",
    b"=",
    b"==",
    b"+",
    b"*",
    b"/",
    b"^",
    b"\"",
    b"/*",
    b"*/",
    b"//",
    b".",
    b"e",
    b"0",
    b"7",
    b"18446744073709551616",
    b"1e999",
    b"pi",
    b"q",
    b"gate g a { h a; }",
    b"qreg ",
    b"if (c==1)",
    b" ",
    b"\n",
    b"\t",
    b"\r",
    "é".as_bytes(),
    "€".as_bytes(),
    "😀".as_bytes(),
    "\u{0}".as_bytes(),
];

/// Parsing a cut file must return `Ok` or `Err`: a prefix can end inside
/// a comment, a string, a number, a multi-byte character's neighbours or
/// a gate body.
#[test]
fn every_prefix_of_every_corpus_file_parses_or_errors() {
    for (_, source) in corpus_sources() {
        for end in (0..=source.len()).filter(|&end| source.is_char_boundary(end)) {
            let _ = parse(&source[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random byte edits of corpus files — inserting or substituting the
    /// splices above, deleting a byte, or overwriting one with any value
    /// (invalid UTF-8 decodes lossily, to U+FFFD) — never make `parse`
    /// panic.
    #[test]
    fn random_edits_of_corpus_files_never_panic(
        file in 0usize..9,
        edits in proptest::collection::vec(
            (0usize..4, 0usize..1 << 20, 0usize..SPLICES.len(), 0u16..256),
            1..8,
        ),
    ) {
        let mut bytes = corpus_sources()[file].1.clone().into_bytes();
        for (kind, at, splice, byte) in edits {
            let at = at % (bytes.len() + 1);
            let next = (at + 1).min(bytes.len());
            match kind {
                0 => drop(bytes.splice(at..at, SPLICES[splice].iter().copied())),
                1 => drop(bytes.splice(at..next, SPLICES[splice].iter().copied())),
                2 => drop(bytes.drain(at..next)),
                _ => bytes.insert(at, byte as u8),
            }
        }
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}

/// Parses on a thread with a 2 MiB stack, the size the daemon's
/// connection threads get: an unbounded recursion aborts the whole test
/// binary with a stack overflow instead of passing.
fn parse_on_a_2mib_stack(source: String) -> Result<ParseOutput, QasmError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || parse(&source))
        .expect("spawn")
        .join()
        .expect("parse does not panic")
}

/// Each nesting shape at depth 100,000 is a typed error at the construct
/// that first exceeds its cap; at exactly the cap it still parses.
#[test]
fn deep_nesting_is_a_typed_error_on_a_2mib_stack() {
    const DEPTH: usize = 100_000;
    let program = |parameter: String| format!("OPENQASM 2.0;\nqreg q[1];\nrz({parameter}) q[0];");
    let chain = |gates: usize| {
        let mut source = String::from("OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; }\n");
        for i in 1..gates {
            source.push_str(&format!("gate g{i} a {{ g{} a; }}\n", i - 1));
        }
        source + &format!("g{} q[0];\n", gates - 1)
    };
    let parentheses = |n: usize| program(format!("{}1{}", "(".repeat(n), ")".repeat(n)));
    let minus = |n: usize| program(format!("{}1", "-".repeat(n)));
    let powers = |n: usize| program(format!("{}2", "2^".repeat(n)));
    let calls = |n: usize| program(format!("{}0{}", "sin(".repeat(n), ")".repeat(n)));

    let expression = ("expression nesting depth", 128);
    for (shape, source, (what, limit), pos) in [
        ("parentheses", parentheses(DEPTH), expression, "3:132"),
        ("unary minus", minus(DEPTH), expression, "3:132"),
        ("powers", powers(DEPTH), expression, "3:261"),
        ("function calls", calls(DEPTH), expression, "3:516"),
        ("gate definitions", chain(DEPTH), ("gate nesting depth", 64), "67:14"),
    ] {
        let err = parse_on_a_2mib_stack(source).expect_err(shape);
        assert_eq!(err.kind, QasmErrorKind::LimitExceeded { what, limit }, "{shape}");
        assert_eq!(err.pos.to_string(), pos, "{shape}");
    }

    for (shape, source) in [
        ("parentheses", parentheses(128)),
        ("unary minus", minus(128)),
        ("powers", powers(128)),
        ("function calls", calls(128)),
    ] {
        let out = parse_on_a_2mib_stack(source).unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert_eq!(out.circuit.len(), 1, "{shape}");
    }
    let out = parse_on_a_2mib_stack(chain(64)).expect("64 nested gates");
    assert_eq!(out.circuit.gates(), &[Gate::H(Qubit(0))]);
    assert_eq!(out.report.gates_inlined, 64);
}

/// A program may lower to exactly 4,194,304 gates, an application that
/// lowers to nothing counting as one. The count runs across statements,
/// and the statement that passes the cap is the error.
#[test]
fn expansion_is_capped_at_the_gate_count_limit() {
    const CAP: usize = 4_194_304;
    let out = parse(&format!("OPENQASM 2.0;\nqreg q[{CAP}];\nid q;")).expect("exactly at the cap");
    assert!(out.circuit.is_empty());
    assert_eq!(out.circuit.num_qubits(), CAP);
    let err = parse(&format!("OPENQASM 2.0;\nqreg q[{CAP}];\nqreg r[1];\nid q;\nx r[0];"))
        .expect_err("one gate past the cap");
    assert_eq!(err.kind, QasmErrorKind::LimitExceeded { what: "gate count", limit: CAP });
    assert_eq!(err.pos.to_string(), "5:1");
}
