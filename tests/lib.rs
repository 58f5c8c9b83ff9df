//! Integration-test host crate. The actual tests live in `tests/`, and
//! exercise every crate of the workspace through their public APIs only.
//!
//! Shared helpers used across the integration-test files live here.

use ssync_arch::{QccdTopology, TrapId};
use ssync_circuit::Circuit;
use ssync_core::CompileOutcome;
use ssync_sim::ScheduledOp;

/// Checks structural invariants every compiled program must satisfy,
/// independent of which compiler produced it:
///
/// * the number of emitted two-qubit gates matches the circuit,
/// * the number of emitted single-qubit gates matches the circuit,
/// * every op references qubits and traps that exist,
/// * shuttles always connect two *different*, adjacent traps,
/// * the reported success rate is a probability.
pub fn check_program_invariants(
    circuit: &Circuit,
    topology: &QccdTopology,
    outcome: &CompileOutcome,
) {
    let counts = outcome.counts();
    assert_eq!(
        counts.two_qubit_gates,
        circuit.two_qubit_gate_count(),
        "every program two-qubit gate must be scheduled exactly once"
    );
    assert_eq!(
        counts.single_qubit_gates,
        circuit.single_qubit_gate_count(),
        "every single-qubit gate must be preserved"
    );
    let num_traps = topology.num_traps();
    for op in outcome.program().ops() {
        match *op {
            ScheduledOp::SingleQubitGate { qubit } => {
                assert!(qubit.index() < circuit.num_qubits());
            }
            ScheduledOp::TwoQubitGate { a, b, trap, chain_len, ion_distance } => {
                assert!(a != b);
                assert!(a.index() < circuit.num_qubits() && b.index() < circuit.num_qubits());
                assert!(trap.index() < num_traps);
                assert!(chain_len >= 2, "a two-qubit gate needs at least two ions in the chain");
                assert!(ion_distance >= 1 && ion_distance < chain_len.max(2));
            }
            ScheduledOp::SwapGate { a, b, trap, chain_len, .. } => {
                assert!(a != b);
                assert!(trap.index() < num_traps);
                assert!(chain_len >= 2);
            }
            ScheduledOp::IonReorder { trap, steps } => {
                assert!(trap.index() < num_traps);
                assert!(steps >= 1);
            }
            ScheduledOp::Shuttle {
                from_trap, to_trap, source_chain_len, dest_chain_len, ..
            } => {
                assert_ne!(from_trap, to_trap, "shuttles must cross traps");
                assert!(from_trap.index() < num_traps && to_trap.index() < num_traps);
                assert!(
                    topology.are_adjacent(from_trap, to_trap),
                    "shuttles only move between directly connected traps"
                );
                assert!(source_chain_len >= 1, "the shuttled ion was in the source chain");
                assert!(dest_chain_len >= 1);
                assert!(usize::from(dest_chain_len) <= topology.trap(to_trap).capacity());
            }
        }
    }
    let report = outcome.report();
    assert!((0.0..=1.0).contains(&report.success_rate));
    assert!(report.total_time_us >= 0.0);
    outcome.final_placement().validate().expect("final placement is consistent");
}

/// Replays a compiled program *backwards* from the final placement at trap
/// granularity and asserts every entangling operation was physically
/// possible: both operands of each two-qubit gate and each SWAP shared the
/// op's trap at execution time, and every shuttle moved a qubit that was
/// actually in its source trap. Shared by every `CompilerKind` golden run
/// (a compiler that forges a placement or emits a gate across traps fails
/// here, whatever its op counts look like).
pub fn check_placement_replay(circuit: &Circuit, outcome: &CompileOutcome) {
    let final_placement = outcome.final_placement();
    let mut trap_of: Vec<Option<TrapId>> = (0..circuit.num_qubits())
        .map(|q| final_placement.trap_of(ssync_circuit::Qubit(q as u32)))
        .collect();
    for (pos, op) in outcome.program().ops().iter().enumerate().rev() {
        match *op {
            ScheduledOp::TwoQubitGate { a, b, trap, .. }
            | ScheduledOp::SwapGate { a, b, trap, .. } => {
                assert_eq!(
                    trap_of[a.index()],
                    Some(trap),
                    "op {pos}: {a} was not in {trap} when the gate executed"
                );
                assert_eq!(
                    trap_of[b.index()],
                    Some(trap),
                    "op {pos}: {b} was not in {trap} when the gate executed"
                );
            }
            ScheduledOp::Shuttle { qubit, from_trap, to_trap, .. } => {
                assert_eq!(
                    trap_of[qubit.index()],
                    Some(to_trap),
                    "op {pos}: shuttle destination disagrees with later history"
                );
                trap_of[qubit.index()] = Some(from_trap);
            }
            ScheduledOp::SingleQubitGate { .. } | ScheduledOp::IonReorder { .. } => {}
        }
    }
    for (q, trap) in trap_of.iter().enumerate() {
        assert!(trap.is_some(), "qubit {q} has no initial trap after replay");
    }
}
