//! End-to-end integration tests: every compiler, several topologies,
//! realistic (but laptop-sized) workloads.

use ssync_arch::QccdTopology;
use ssync_bench::{run_compiler, CompilerKind};
use ssync_circuit::generators::{
    alt_ansatz, bernstein_vazirani, cuccaro_adder, qaoa_nearest_neighbor, qft,
};
use ssync_circuit::Circuit;
use ssync_core::{CompileError, CompilerConfig, SSyncCompiler};
use ssync_integration::check_program_invariants;

fn workloads() -> Vec<Circuit> {
    vec![
        qft(16),
        cuccaro_adder(8),
        bernstein_vazirani(17),
        qaoa_nearest_neighbor(18, 3),
        alt_ansatz(18, 3),
    ]
}

fn devices() -> Vec<QccdTopology> {
    vec![
        QccdTopology::linear(2, 12),
        QccdTopology::linear(4, 6),
        QccdTopology::grid(2, 2, 6),
        QccdTopology::grid(2, 3, 4),
        QccdTopology::fully_connected(4, 6),
    ]
}

#[test]
fn ssync_satisfies_program_invariants_everywhere() {
    let compiler = SSyncCompiler::default();
    for circuit in workloads() {
        for device in devices() {
            if device.total_capacity() <= circuit.num_qubits() {
                continue;
            }
            let outcome = compiler
                .compile(&circuit, &device)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", circuit.name(), device.name()));
            check_program_invariants(&circuit, &device, &outcome);
        }
    }
}

#[test]
fn baselines_satisfy_program_invariants_everywhere() {
    let config = CompilerConfig::default();
    for circuit in workloads() {
        for device in devices() {
            if device.total_capacity() <= circuit.num_qubits() + 2 {
                continue;
            }
            for kind in [CompilerKind::Murali, CompilerKind::Dai] {
                let outcome = run_compiler(kind, &circuit, &device, &config)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", circuit.name(), device.name()));
                check_program_invariants(&circuit, &device, &outcome);
            }
        }
    }
}

#[test]
fn compilation_is_deterministic() {
    let circuit = qft(14);
    let device = QccdTopology::grid(2, 2, 5);
    let compiler = SSyncCompiler::default();
    let a = compiler.compile(&circuit, &device).unwrap();
    let b = compiler.compile(&circuit, &device).unwrap();
    assert_eq!(a.program().ops(), b.program().ops());
    assert_eq!(a.report().success_rate, b.report().success_rate);
}

#[test]
fn errors_are_reported_not_panicked() {
    let circuit = qft(30);
    let tiny = QccdTopology::linear(2, 10);
    assert!(matches!(
        SSyncCompiler::default().compile(&circuit, &tiny),
        Err(CompileError::DeviceTooSmall { .. })
    ));
    assert!(matches!(
        run_compiler(CompilerKind::Murali, &circuit, &tiny, &CompilerConfig::default()),
        Err(CompileError::DeviceTooSmall { .. })
    ));
}

#[test]
fn single_trap_device_needs_no_transport() {
    let circuit = qft(10);
    let device = QccdTopology::linear(1, 12);
    let outcome = SSyncCompiler::default().compile(&circuit, &device).unwrap();
    let counts = outcome.counts();
    assert_eq!(counts.shuttles, 0);
    assert_eq!(counts.swap_gates, 0, "full intra-trap connectivity needs no SWAPs");
    check_program_invariants(&circuit, &device, &outcome);
}

#[test]
fn custom_configs_flow_through_the_pipeline() {
    let circuit = qaoa_nearest_neighbor(16, 2);
    let device = QccdTopology::grid(2, 2, 6);
    let mut config = CompilerConfig::default();
    config.noise.thermal_scale = 0.0;
    config.noise.heating_rate_gamma = 0.0;
    let outcome = SSyncCompiler::new(config).compile(&circuit, &device).unwrap();
    // With noise disabled only the (tiny) single-qubit infidelity remains.
    assert!(outcome.report().success_rate > 0.999);
}
