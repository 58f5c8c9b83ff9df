//! Cross-compiler comparisons: S-SYNC should (in aggregate) shuttle less
//! and succeed more often than the greedy baselines — the headline claim of
//! the paper, checked here at laptop-friendly sizes.

use ssync_arch::QccdTopology;
use ssync_bench::{run_compiler, CompilerKind};
use ssync_circuit::generators::{alt_ansatz, cuccaro_adder, qaoa_nearest_neighbor, qft};
use ssync_circuit::Circuit;
use ssync_core::{CompileOutcome, CompilerConfig, SSyncCompiler};

fn compile(kind: CompilerKind, circuit: &Circuit, device: &QccdTopology) -> CompileOutcome {
    run_compiler(kind, circuit, device, &CompilerConfig::default()).unwrap()
}

fn suite() -> Vec<(Circuit, QccdTopology)> {
    vec![
        (qft(20), QccdTopology::grid(2, 2, 7)),
        (qft(16), QccdTopology::linear(3, 7)),
        (cuccaro_adder(10), QccdTopology::grid(2, 2, 7)),
        (qaoa_nearest_neighbor(20, 3), QccdTopology::grid(2, 3, 5)),
        (alt_ansatz(20, 3), QccdTopology::linear(4, 6)),
    ]
}

#[test]
fn ssync_shuttles_less_than_baselines_in_aggregate() {
    let ssync = SSyncCompiler::default();
    let mut totals = [0usize; 3];
    for (circuit, device) in suite() {
        let so = ssync.compile(&circuit, &device).unwrap();
        let s = so.counts().shuttles;
        let m = compile(CompilerKind::Murali, &circuit, &device).counts().shuttles;
        let d = compile(CompilerKind::Dai, &circuit, &device).counts().shuttles;
        println!(
            "{:<12} on {:<6}: ssync {:>4} (swaps {:>4}, fallback {:>3}) murali {:>4} dai {:>4}",
            circuit.name(),
            device.name(),
            s,
            so.counts().swap_gates,
            so.scheduler_stats().fallback_routed_gates,
            m,
            d
        );
        totals[0] += s;
        totals[1] += m;
        totals[2] += d;
    }
    assert!(
        totals[0] < totals[1],
        "S-SYNC ({}) should shuttle less than Murali ({}) over the suite",
        totals[0],
        totals[1]
    );
    assert!(
        totals[0] < totals[2],
        "S-SYNC ({}) should shuttle less than Dai ({}) over the suite",
        totals[0],
        totals[2]
    );
}

#[test]
fn ssync_success_rate_is_competitive_in_aggregate() {
    let ssync = SSyncCompiler::default();
    let mut log_ssync = 0.0f64;
    let mut log_murali = 0.0f64;
    for (circuit, device) in suite() {
        let s = ssync.compile(&circuit, &device).unwrap().report().success_rate;
        let m = compile(CompilerKind::Murali, &circuit, &device).report().success_rate;
        log_ssync += s.max(1e-30).ln();
        log_murali += m.max(1e-30).ln();
    }
    assert!(
        log_ssync >= log_murali,
        "S-SYNC's geometric-mean success rate should not be below the greedy baseline"
    );
}

#[test]
fn all_compilers_agree_on_gate_counts() {
    for (circuit, device) in suite() {
        let expected = circuit.two_qubit_gate_count();
        assert_eq!(
            SSyncCompiler::default().compile(&circuit, &device).unwrap().counts().two_qubit_gates,
            expected
        );
        assert_eq!(
            compile(CompilerKind::Murali, &circuit, &device).counts().two_qubit_gates,
            expected
        );
        assert_eq!(
            compile(CompilerKind::Dai, &circuit, &device).counts().two_qubit_gates,
            expected
        );
    }
}
