//! Golden equivalence tests for the shared-`Device` / batch-compilation
//! refactor.
//!
//! The contract: compiling through a prebuilt [`Device`]
//! ([`SSyncCompiler::compile_on`], every kind's `compile_on`,
//! [`run_compiler_batch_with_workers`] at any worker count) must emit
//! **bit-identical** programs, statistics and placements to the
//! single-shot `compile(circuit, topology)` path that rebuilds the device
//! internally. Any divergence means sharing the artifact changed the
//! algorithm, not just its cost.

use ssync_arch::{Device, QccdTopology};
use ssync_bench::{run_compiler, run_compiler_batch_with_workers, CompilerKind};
use ssync_circuit::generators::{
    bernstein_vazirani, cuccaro_adder, qaoa_nearest_neighbor, qft, random_two_qubit_circuit,
};
use ssync_circuit::Circuit;
use ssync_core::{
    batch, CompileError, CompileOutcome, CompilerConfig, InitialMapping, SSyncCompiler,
};

fn suite() -> Vec<Circuit> {
    vec![
        qft(14),
        bernstein_vazirani(16),
        cuccaro_adder(6),
        qaoa_nearest_neighbor(14, 2),
        random_two_qubit_circuit(12, 60, 5),
    ]
}

fn assert_same_outcome(a: &CompileOutcome, b: &CompileOutcome, what: &str) {
    assert_eq!(a.program().ops(), b.program().ops(), "op sequences diverge: {what}");
    assert_eq!(a.final_placement(), b.final_placement(), "placements diverge: {what}");
    assert_eq!(a.scheduler_stats(), b.scheduler_stats(), "stats diverge: {what}");
    assert_eq!(
        a.report().success_rate.to_bits(),
        b.report().success_rate.to_bits(),
        "reports diverge: {what}"
    );
}

#[test]
fn compile_on_matches_single_shot_compile() {
    let config = CompilerConfig::default();
    let compiler = SSyncCompiler::new(config);
    for topo in [QccdTopology::grid(2, 2, 6), QccdTopology::linear(3, 7)] {
        let device = Device::build(topo.clone(), config.weights);
        for circuit in suite() {
            let single = compiler.compile(&circuit, &topo).expect("compiles");
            let shared = compiler.compile_on(&device, &circuit).expect("compiles");
            assert_same_outcome(
                &single,
                &shared,
                &format!("{} on {}", circuit.name(), topo.name()),
            );
        }
    }
}

#[test]
fn compile_on_matches_for_every_initial_mapping() {
    for mapping in InitialMapping::ALL {
        let config = CompilerConfig::default().with_initial_mapping(mapping);
        let compiler = SSyncCompiler::new(config);
        let topo = QccdTopology::grid(2, 2, 5);
        let device = Device::build(topo.clone(), config.weights);
        let circuit = qaoa_nearest_neighbor(12, 2);
        let single = compiler.compile(&circuit, &topo).expect("compiles");
        let shared = compiler.compile_on(&device, &circuit).expect("compiles");
        assert_same_outcome(&single, &shared, &format!("{mapping:?}"));
    }
}

#[test]
fn baselines_compile_on_matches_single_shot_compile() {
    let config = CompilerConfig::default();
    let topo = QccdTopology::grid(2, 2, 6);
    let device = Device::build(topo.clone(), config.weights);
    for circuit in suite() {
        for kind in CompilerKind::ALL {
            assert_same_outcome(
                &run_compiler(kind, &circuit, &topo, &config).expect("compiles"),
                &kind.compile_on(&device, &circuit, &config).expect("compiles"),
                &format!("{kind:?} {}", circuit.name()),
            );
        }
    }
}

#[test]
fn batch_output_is_independent_of_worker_count() {
    let config = CompilerConfig::default();
    let compiler = SSyncCompiler::new(config);
    let device = Device::build(QccdTopology::grid(2, 2, 6), config.weights);
    let circuits = suite();
    let reference: Vec<CompileOutcome> =
        circuits.iter().map(|c| compiler.compile_on(&device, c).expect("compiles")).collect();
    for workers in [1usize, 2, 3, 8, 32] {
        let batch = run_compiler_batch_with_workers(
            CompilerKind::SSync,
            &device,
            &circuits,
            &config,
            workers,
        );
        assert_eq!(batch.len(), circuits.len(), "workers = {workers}");
        for ((circuit, expected), got) in circuits.iter().zip(&reference).zip(batch) {
            let got = got.expect("compiles");
            assert_same_outcome(
                &got,
                expected,
                &format!("{} with {workers} workers", circuit.name()),
            );
        }
    }
}

#[test]
fn batch_reports_per_circuit_errors_in_order() {
    let config = CompilerConfig::default();
    // 8 slots: qft(12) cannot fit, qft(6) can.
    let device = Device::build(QccdTopology::linear(2, 4), config.weights);
    let circuits = vec![qft(6), qft(12), qft(5)];
    let results =
        run_compiler_batch_with_workers(CompilerKind::SSync, &device, &circuits, &config, 2);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(CompileError::DeviceTooSmall { qubits: 12, slots: 8 })));
    assert!(results[2].is_ok());
}

#[test]
fn batch_equals_the_pre_refactor_single_shot_path_end_to_end() {
    // The strongest form of the golden check: `compile(circuit, topology)`
    // (which internally builds a fresh device per call, like the
    // pre-refactor compiler did) versus one shared device + parallel batch.
    let config = CompilerConfig::default();
    let compiler = SSyncCompiler::new(config);
    let topo = QccdTopology::fully_connected(3, 7);
    let circuits = suite();
    let device = Device::build(topo.clone(), config.weights);
    let workers = batch::resolve_workers(0);
    let batch =
        run_compiler_batch_with_workers(CompilerKind::SSync, &device, &circuits, &config, workers);
    for (circuit, got) in circuits.iter().zip(batch) {
        let single = compiler.compile(circuit, &topo).expect("compiles");
        assert_same_outcome(&got.expect("compiles"), &single, circuit.name());
    }
}
