//! An output checker that shares no code with the compilers under test.
//!
//! It replays a compiled program forward from the starting placement it
//! infers (each qubit's first trap-bearing op, or the final placement for
//! qubits no op moves or gates) and checks that:
//!
//! - every shuttle starts in the trap where its qubit is;
//! - the operands of every two-qubit gate and SWAP sit in the named trap;
//! - no trap ever holds more ions than its capacity;
//! - each qubit meets its two-qubit partners in the circuit's order, which
//!   gives dependency order between two-qubit gates;
//! - the replay ends at the outcome's final placement;
//! - single- and two-qubit gate counts equal the circuit's.

use ssync_arch::{QccdTopology, TrapId};
use ssync_circuit::{Circuit, Qubit};
use ssync_core::CompileOutcome;
use ssync_sim::ScheduledOp;

/// Checks `outcome` as a compilation of `circuit` for `topology`.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check(
    topology: &QccdTopology,
    circuit: &Circuit,
    outcome: &CompileOutcome,
) -> Result<(), String> {
    let n = circuit.num_qubits();
    let traps = topology.num_traps();
    let program = outcome.program();
    let ops = program.ops();
    if program.num_qubits() != n || program.num_traps() != traps {
        return Err(format!(
            "program is for {} qubits on {} traps, expected {n} on {traps}",
            program.num_qubits(),
            program.num_traps()
        ));
    }
    let qubit = |q: Qubit| -> Result<usize, String> {
        (q.index() < n).then_some(q.index()).ok_or_else(|| format!("qubit {q} out of range"))
    };
    let trap = |t: TrapId| -> Result<usize, String> {
        (t.index() < traps).then_some(t.index()).ok_or_else(|| format!("trap {t} out of range"))
    };

    let mut start: Vec<Option<usize>> = vec![None; n];
    for op in ops {
        match *op {
            ScheduledOp::TwoQubitGate { a, b, trap: t, .. }
            | ScheduledOp::SwapGate { a, b, trap: t, .. } => {
                let t = trap(t)?;
                start[qubit(a)?].get_or_insert(t);
                start[qubit(b)?].get_or_insert(t);
            }
            ScheduledOp::Shuttle { qubit: q, from_trap, .. } => {
                let t = trap(from_trap)?;
                start[qubit(q)?].get_or_insert(t);
            }
            ScheduledOp::SingleQubitGate { .. } | ScheduledOp::IonReorder { .. } => {}
        }
    }
    let final_placement = outcome.final_placement();
    let mut at = Vec::with_capacity(n);
    for (q, first) in start.into_iter().enumerate() {
        let end = final_placement.trap_of(Qubit(q as u32));
        match first.or(end.map(|t| t.index())) {
            Some(t) => at.push(t),
            None => return Err(format!("qubit q{q} has no trap")),
        }
    }
    let capacity: Vec<usize> = topology.traps().iter().map(|t| t.capacity()).collect();
    let mut load = vec![0usize; traps];
    for &t in &at {
        load[t] += 1;
    }
    if let Some(t) = (0..traps).find(|&t| load[t] > capacity[t]) {
        return Err(format!("trap {t} starts with {} ions, capacity {}", load[t], capacity[t]));
    }

    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); n];
    let (mut one_qubit, mut two_qubit) = (0usize, 0usize);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ScheduledOp::SingleQubitGate { qubit: q } => {
                qubit(q)?;
                one_qubit += 1;
            }
            ScheduledOp::TwoQubitGate { a, b, trap: t, .. }
            | ScheduledOp::SwapGate { a, b, trap: t, .. } => {
                let (qa, qb, t) = (qubit(a)?, qubit(b)?, trap(t)?);
                if qa == qb || at[qa] != t || at[qb] != t {
                    return Err(format!(
                        "op {i} ({op}): operands are in traps {} and {}",
                        at[qa], at[qb]
                    ));
                }
                if matches!(op, ScheduledOp::TwoQubitGate { .. }) {
                    two_qubit += 1;
                    partners[qa].push(b.0);
                    partners[qb].push(a.0);
                }
            }
            ScheduledOp::Shuttle { qubit: q, from_trap, to_trap, .. } => {
                let (q, from, to) = (qubit(q)?, trap(from_trap)?, trap(to_trap)?);
                if at[q] != from || from == to {
                    return Err(format!("op {i} ({op}): the qubit is in trap {}", at[q]));
                }
                load[from] -= 1;
                load[to] += 1;
                if load[to] > capacity[to] {
                    return Err(format!("op {i} ({op}): trap {to} holds {} ions", load[to]));
                }
                at[q] = to;
            }
            ScheduledOp::IonReorder { trap: t, .. } => {
                trap(t)?;
            }
        }
    }

    if one_qubit != circuit.single_qubit_gate_count() || two_qubit != circuit.two_qubit_gate_count()
    {
        return Err(format!(
            "gate counts {one_qubit}/{two_qubit} (1q/2q), circuit has {}/{}",
            circuit.single_qubit_gate_count(),
            circuit.two_qubit_gate_count()
        ));
    }
    let mut expected: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (a, b) in circuit.gates().iter().filter_map(|g| g.two_qubit_pair()) {
        expected[a.index()].push(b.0);
        expected[b.index()].push(a.0);
    }
    if let Some(q) = (0..n).find(|&q| partners[q] != expected[q]) {
        return Err(format!("qubit q{q} meets its two-qubit partners out of circuit order"));
    }
    if let Some(q) =
        (0..n).find(|&q| final_placement.trap_of(Qubit(q as u32)).map(|t| t.index()) != Some(at[q]))
    {
        return Err(format!("replay leaves q{q} in trap {}, the final placement disagrees", at[q]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::Placement;
    use ssync_baselines::CompilerKind;
    use ssync_circuit::generators::qft;
    use ssync_core::CompilerConfig;
    use ssync_sim::{CompiledProgram, ExecutionTracer};

    fn compiled(kind: CompilerKind) -> (QccdTopology, Circuit, CompileOutcome) {
        let topology = QccdTopology::grid(2, 2, 5);
        let config = CompilerConfig::default();
        let device = ssync_arch::Device::build(topology.clone(), config.weights);
        let circuit = qft(12);
        let outcome = kind.compile_on(&device, &circuit, &config).expect("compiles");
        (topology, circuit, outcome)
    }

    fn with_ops(
        outcome: &CompileOutcome,
        ops: Vec<ScheduledOp>,
        placement: Placement,
    ) -> CompileOutcome {
        let source = outcome.program();
        let mut program = CompiledProgram::new(source.num_qubits(), source.num_traps());
        program.extend(ops);
        let report = ExecutionTracer::default().evaluate(&program);
        CompileOutcome::from_parts(program, report, placement, outcome.compile_time())
    }

    #[test]
    fn every_kind_passes() {
        for kind in CompilerKind::ALL {
            let (topology, circuit, outcome) = compiled(kind);
            assert!(outcome.counts().shuttles > 0, "{kind:?} needs routing on this device");
            check(&topology, &circuit, &outcome).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn catches_a_gate_outside_its_trap() {
        let (topology, circuit, outcome) = compiled(CompilerKind::SSync);
        let mut ops = outcome.program().ops().to_vec();
        let i = ops.iter().rposition(|op| matches!(op, ScheduledOp::TwoQubitGate { .. })).unwrap();
        if let ScheduledOp::TwoQubitGate { trap, .. } = &mut ops[i] {
            *trap = TrapId((trap.0 + 1) % topology.num_traps() as u32);
        }
        let bad = with_ops(&outcome, ops, outcome.final_placement().clone());
        assert!(check(&topology, &circuit, &bad).is_err());
    }

    #[test]
    fn catches_reordered_gates() {
        let (topology, circuit, outcome) = compiled(CompilerKind::Dai);
        let mut ops = outcome.program().ops().to_vec();
        let gates: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i], ScheduledOp::TwoQubitGate { .. }))
            .collect();
        // Two consecutive gates on one qubit in the same trap, swapped.
        let pair = gates.windows(2).find(|w| {
            let (
                ScheduledOp::TwoQubitGate { a, b, trap: t1, .. },
                ScheduledOp::TwoQubitGate { a: c, b: d, trap: t2, .. },
            ) = (ops[w[0]], ops[w[1]])
            else {
                unreachable!()
            };
            t1 == t2 && (a == c || b == d) && (a, b) != (c, d)
        });
        let w = pair.expect("qft has back-to-back gates sharing a qubit");
        ops.swap(w[0], w[1]);
        let bad = with_ops(&outcome, ops, outcome.final_placement().clone());
        assert!(check(&topology, &circuit, &bad).is_err());
    }

    #[test]
    fn catches_a_dropped_shuttle_and_an_overfull_trap() {
        let (topology, circuit, outcome) = compiled(CompilerKind::Murali);
        let mut ops = outcome.program().ops().to_vec();
        // The last shuttle: dropping a qubit's first move would only shift
        // the start the checker infers for it.
        let i = ops.iter().rposition(|op| matches!(op, ScheduledOp::Shuttle { .. })).unwrap();
        ops.remove(i);
        let bad = with_ops(&outcome, ops, outcome.final_placement().clone());
        assert!(check(&topology, &circuit, &bad).is_err());

        let small = QccdTopology::grid(2, 2, 2);
        assert!(check(&small, &circuit, &outcome).is_err(), "12 qubits do not fit in 8 slots");
    }
}
