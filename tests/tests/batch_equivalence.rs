//! Golden equivalence tests for the shared-`Device` refactor.
//!
//! The contract: compiling through a prebuilt [`Device`]
//! ([`SSyncCompiler::compile_on`], every kind's `compile_on`) must emit
//! **bit-identical** programs, statistics and placements to the
//! single-shot `compile(circuit, topology)` path that rebuilds the device
//! internally. Any divergence means sharing the artifact changed the
//! algorithm, not just its cost. The compile service's pool, which runs
//! `compile_on` on its workers, is held to the same contract at any
//! worker count by `service_equivalence`.

use ssync_arch::{Device, QccdTopology};
use ssync_bench::{run_compiler, CompilerKind};
use ssync_circuit::generators::{
    bernstein_vazirani, cuccaro_adder, qaoa_nearest_neighbor, qft, random_two_qubit_circuit,
};
use ssync_circuit::Circuit;
use ssync_core::{CompileOutcome, CompilerConfig, InitialMapping, SSyncCompiler};

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
    for topo in [
        QccdTopology::grid(2, 2, 6),
        QccdTopology::linear(3, 7),
        QccdTopology::fully_connected(3, 7),
    ] {
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
