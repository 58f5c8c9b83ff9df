//! The hardware-compatible operation stream produced by a QCCD compiler.

use serde::{Deserialize, Serialize};
use ssync_arch::TrapId;
use ssync_circuit::Qubit;
use std::fmt;

/// One scheduled hardware operation.
///
/// Each variant carries the chain-shape information captured at emission
/// time (chain length, ion separation, junction count) so the timing and
/// fidelity models can be evaluated without replaying the placement.
///
/// The chain counts (`chain_len`, `ion_distance`, `steps`, `segments`,
/// `source_chain_len`, `dest_chain_len`) are `u16`: each is bounded by one
/// trap's capacity, which [`QccdTopology`](ssync_arch::QccdTopology) caps
/// at [`MAX_TRAP_CAPACITY`](ssync_arch::MAX_TRAP_CAPACITY) (`u16::MAX`).
/// That keeps an op at 24 bytes instead of 48, and a cached compile is
/// mostly its ops. Readers widen the counts losslessly with `.into()`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScheduledOp {
    /// A single-qubit gate (always executable; never routed).
    SingleQubitGate {
        /// The program qubit.
        qubit: Qubit,
    },
    /// An entangling two-qubit gate executed inside one trap.
    TwoQubitGate {
        /// First program qubit.
        a: Qubit,
        /// Second program qubit.
        b: Qubit,
        /// Trap in which the gate executes.
        trap: TrapId,
        /// Number of ions in the trap's chain at execution time.
        chain_len: u16,
        /// Chain-position distance between the two ions (adjacent = 1).
        ion_distance: u16,
    },
    /// A SWAP gate inserted by the compiler (three entangling gates).
    SwapGate {
        /// First program qubit.
        a: Qubit,
        /// Second program qubit.
        b: Qubit,
        /// Trap in which the SWAP executes.
        trap: TrapId,
        /// Number of ions in the trap's chain at execution time.
        chain_len: u16,
        /// Chain-position distance between the two ions (adjacent = 1).
        ion_distance: u16,
    },
    /// A physical intra-trap reorder: shifting a space node towards a chain
    /// end by `steps` positions (no gate is applied; only transport).
    IonReorder {
        /// Trap in which the reorder happens.
        trap: TrapId,
        /// Number of single-position shifts performed.
        steps: u16,
    },
    /// A shuttle: split at the source trap edge, transport (possibly through
    /// junctions) and merge into the destination trap edge.
    Shuttle {
        /// The transported program qubit.
        qubit: Qubit,
        /// Source trap.
        from_trap: TrapId,
        /// Destination trap.
        to_trap: TrapId,
        /// Junctions crossed on the way.
        junctions: u32,
        /// Linear transport segments traversed.
        segments: u16,
        /// Source-chain ion count *before* the split.
        source_chain_len: u16,
        /// Destination-chain ion count *after* the merge.
        dest_chain_len: u16,
    },
}

// A wider field would double the memory of every cached op stream.
const _: () = assert!(std::mem::size_of::<ScheduledOp>() == 24);

impl fmt::Display for ScheduledOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduledOp::SingleQubitGate { qubit } => write!(f, "1q {qubit}"),
            ScheduledOp::TwoQubitGate { a, b, trap, .. } => write!(f, "2q {a},{b} @ {trap}"),
            ScheduledOp::SwapGate { a, b, trap, .. } => write!(f, "swap {a},{b} @ {trap}"),
            ScheduledOp::IonReorder { trap, steps } => write!(f, "reorder {steps} @ {trap}"),
            ScheduledOp::Shuttle { qubit, from_trap, to_trap, junctions, .. } => {
                write!(f, "shuttle {qubit} {from_trap}->{to_trap} ({junctions} junctions)")
            }
        }
    }
}

/// Operation counts of a compiled program — the quantities plotted in
/// Figs. 8 and 9 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// Single-qubit gates.
    pub single_qubit_gates: usize,
    /// Entangling two-qubit gates from the original program.
    pub two_qubit_gates: usize,
    /// SWAP gates inserted by the compiler.
    pub swap_gates: usize,
    /// Shuttle operations inserted by the compiler.
    pub shuttles: usize,
    /// Intra-trap reorder operations inserted by the compiler.
    pub reorders: usize,
}

/// A compiled, hardware-compatible program: the full operation stream plus
/// the register/device dimensions needed to interpret it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CompiledProgram {
    num_qubits: usize,
    num_traps: usize,
    ops: Vec<ScheduledOp>,
}

impl CompiledProgram {
    /// Creates an empty program for `num_qubits` program qubits on a device
    /// with `num_traps` traps.
    pub fn new(num_qubits: usize, num_traps: usize) -> Self {
        CompiledProgram { num_qubits, num_traps, ops: Vec::new() }
    }

    /// [`CompiledProgram::new`] with room for exactly `ops` operations.
    pub fn with_capacity(num_qubits: usize, num_traps: usize, ops: usize) -> Self {
        CompiledProgram { num_qubits, num_traps, ops: Vec::with_capacity(ops) }
    }

    /// Drops the op vector's unused capacity, so a program kept for long
    /// (a cached compile) holds no growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
    }

    /// Number of program qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of traps of the target device.
    pub fn num_traps(&self) -> usize {
        self.num_traps
    }

    /// Appends an operation.
    pub fn push(&mut self, op: ScheduledOp) {
        self.ops.push(op);
    }

    /// The operation stream, in execution order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Aggregated operation counts (Figs. 8–9 quantities).
    pub fn counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            match op {
                ScheduledOp::SingleQubitGate { .. } => c.single_qubit_gates += 1,
                ScheduledOp::TwoQubitGate { .. } => c.two_qubit_gates += 1,
                ScheduledOp::SwapGate { .. } => c.swap_gates += 1,
                ScheduledOp::Shuttle { .. } => c.shuttles += 1,
                ScheduledOp::IonReorder { .. } => c.reorders += 1,
            }
        }
        c
    }

    /// Number of shuttles (convenience accessor).
    pub fn shuttle_count(&self) -> usize {
        self.counts().shuttles
    }
}

impl Extend<ScheduledOp> for CompiledProgram {
    fn extend<T: IntoIterator<Item = ScheduledOp>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompiledProgram {
        let mut p = CompiledProgram::new(4, 2);
        p.push(ScheduledOp::SingleQubitGate { qubit: Qubit(0) });
        p.push(ScheduledOp::TwoQubitGate {
            a: Qubit(0),
            b: Qubit(1),
            trap: TrapId(0),
            chain_len: 3,
            ion_distance: 1,
        });
        p.push(ScheduledOp::SwapGate {
            a: Qubit(1),
            b: Qubit(2),
            trap: TrapId(0),
            chain_len: 3,
            ion_distance: 1,
        });
        p.push(ScheduledOp::Shuttle {
            qubit: Qubit(1),
            from_trap: TrapId(0),
            to_trap: TrapId(1),
            junctions: 1,
            segments: 1,
            source_chain_len: 3,
            dest_chain_len: 2,
        });
        p.push(ScheduledOp::IonReorder { trap: TrapId(1), steps: 2 });
        p
    }

    #[test]
    fn counts_classify_every_variant() {
        let c = sample().counts();
        assert_eq!(c.single_qubit_gates, 1);
        assert_eq!(c.two_qubit_gates, 1);
        assert_eq!(c.swap_gates, 1);
        assert_eq!(c.shuttles, 1);
        assert_eq!(c.reorders, 1);
    }

    #[test]
    fn convenience_accessors() {
        let p = sample();
        assert_eq!(p.shuttle_count(), 1);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.num_qubits(), 4);
        assert_eq!(p.num_traps(), 2);
    }

    #[test]
    fn display_is_compact() {
        let p = sample();
        let rendered: Vec<String> = p.ops().iter().map(|o| o.to_string()).collect();
        assert!(rendered[1].contains("2q"));
        assert!(rendered[3].contains("shuttle"));
    }

    #[test]
    fn extend_appends_ops() {
        let mut p = CompiledProgram::new(2, 1);
        p.extend([ScheduledOp::SingleQubitGate { qubit: Qubit(0) }]);
        assert_eq!(p.len(), 1);
    }
}
