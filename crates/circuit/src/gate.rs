//! Gate and qubit primitives.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A logical (program) qubit index.
///
/// Logical qubits are what the input circuit talks about; the compiler maps
/// them onto physical slots of a QCCD device.
///
/// ```
/// use ssync_circuit::Qubit;
/// let q = Qubit(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Qubit(pub u32);

impl Qubit {
    /// Returns the raw index as a `usize`, convenient for indexing vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for Qubit {
    fn from(v: u32) -> Self {
        Qubit(v)
    }
}

impl From<usize> for Qubit {
    fn from(v: usize) -> Self {
        Qubit(v as u32)
    }
}

/// The broad class of a gate, used by the timing and fidelity models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Any single-qubit operation (rotation, Hadamard, Pauli, ...).
    SingleQubit,
    /// Any entangling two-qubit operation (MS, CX, CZ, CP, RZZ, ...).
    TwoQubit,
    /// A SWAP, which on trapped-ion hardware is synthesised from three
    /// entangling gates (or performed by physical ion reordering).
    Swap,
}

/// A quantum gate in the circuit IR.
///
/// Only the structure needed by a QCCD compiler is kept: which qubits are
/// touched, whether the gate entangles, and the rotation angle for gates
/// where the angle matters to downstream consumers (e.g. exporting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Hadamard.
    H(Qubit),
    /// Pauli-X.
    X(Qubit),
    /// Rotation about X by an angle in radians.
    Rx(Qubit, f64),
    /// Rotation about Y by an angle in radians.
    Ry(Qubit, f64),
    /// Rotation about Z by an angle in radians.
    Rz(Qubit, f64),
    /// Controlled-X (CNOT): control, target.
    Cx(Qubit, Qubit),
    /// Controlled-Z.
    Cz(Qubit, Qubit),
    /// Controlled-phase with angle in radians (QFT building block).
    Cp(Qubit, Qubit, f64),
    /// Mølmer–Sørensen entangling gate (native trapped-ion two-qubit gate).
    Ms(Qubit, Qubit),
    /// ZZ interaction exp(-i θ Z⊗Z / 2) (QAOA / Trotter building block).
    Rzz(Qubit, Qubit, f64),
    /// XX interaction (Heisenberg Trotter term).
    Rxx(Qubit, Qubit, f64),
    /// YY interaction (Heisenberg Trotter term).
    Ryy(Qubit, Qubit, f64),
    /// Logical SWAP between two program qubits.
    Swap(Qubit, Qubit),
}

impl Gate {
    /// Returns the qubits this gate acts on (one or two entries).
    pub fn qubits(&self) -> Vec<Qubit> {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Rx(q, _) | Gate::Ry(q, _) | Gate::Rz(q, _) => {
                vec![q]
            }
            Gate::Cx(a, b)
            | Gate::Cz(a, b)
            | Gate::Ms(a, b)
            | Gate::Swap(a, b)
            | Gate::Cp(a, b, _)
            | Gate::Rzz(a, b, _)
            | Gate::Rxx(a, b, _)
            | Gate::Ryy(a, b, _) => vec![a, b],
        }
    }

    /// Returns the pair of qubits if this is a two-qubit gate.
    pub fn two_qubit_pair(&self) -> Option<(Qubit, Qubit)> {
        match *self {
            Gate::Cx(a, b)
            | Gate::Cz(a, b)
            | Gate::Ms(a, b)
            | Gate::Swap(a, b)
            | Gate::Cp(a, b, _)
            | Gate::Rzz(a, b, _)
            | Gate::Rxx(a, b, _)
            | Gate::Ryy(a, b, _) => Some((a, b)),
            _ => None,
        }
    }

    /// The broad kind of the gate (single-qubit / two-qubit / swap).
    pub fn kind(&self) -> GateKind {
        match self {
            Gate::H(_) | Gate::X(_) | Gate::Rx(..) | Gate::Ry(..) | Gate::Rz(..) => {
                GateKind::SingleQubit
            }
            Gate::Swap(..) => GateKind::Swap,
            _ => GateKind::TwoQubit,
        }
    }

    /// `true` if the gate acts on two qubits (including SWAP).
    #[inline]
    pub fn is_two_qubit(&self) -> bool {
        !matches!(self.kind(), GateKind::SingleQubit)
    }

    /// Returns the highest qubit index referenced by the gate.
    pub fn max_qubit(&self) -> Qubit {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Rx(q, _) | Gate::Ry(q, _) | Gate::Rz(q, _) => q,
            Gate::Cx(a, b)
            | Gate::Cz(a, b)
            | Gate::Ms(a, b)
            | Gate::Swap(a, b)
            | Gate::Cp(a, b, _)
            | Gate::Rzz(a, b, _)
            | Gate::Rxx(a, b, _)
            | Gate::Ryy(a, b, _) => a.max(b),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H(q) => write!(f, "h {q}"),
            Gate::X(q) => write!(f, "x {q}"),
            Gate::Rx(q, a) => write!(f, "rx({a:.4}) {q}"),
            Gate::Ry(q, a) => write!(f, "ry({a:.4}) {q}"),
            Gate::Rz(q, a) => write!(f, "rz({a:.4}) {q}"),
            Gate::Cx(a, b) => write!(f, "cx {a}, {b}"),
            Gate::Cz(a, b) => write!(f, "cz {a}, {b}"),
            Gate::Cp(a, b, t) => write!(f, "cp({t:.4}) {a}, {b}"),
            Gate::Ms(a, b) => write!(f, "ms {a}, {b}"),
            Gate::Rzz(a, b, t) => write!(f, "rzz({t:.4}) {a}, {b}"),
            Gate::Rxx(a, b, t) => write!(f, "rxx({t:.4}) {a}, {b}"),
            Gate::Ryy(a, b, t) => write!(f, "ryy({t:.4}) {a}, {b}"),
            Gate::Swap(a, b) => write!(f, "swap {a}, {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_display_and_index() {
        assert_eq!(Qubit(7).to_string(), "q7");
        assert_eq!(Qubit(7).index(), 7);
        assert_eq!(Qubit::from(7usize), Qubit(7));
        assert_eq!(Qubit::from(7u32), Qubit(7));
    }

    #[test]
    fn single_qubit_gate_classification() {
        for g in [Gate::H(Qubit(0)), Gate::X(Qubit(1)), Gate::Rz(Qubit(2), 0.5)] {
            assert_eq!(g.kind(), GateKind::SingleQubit);
            assert!(!g.is_two_qubit());
            assert_eq!(g.qubits().len(), 1);
            assert!(g.two_qubit_pair().is_none());
        }
    }

    #[test]
    fn two_qubit_gate_classification() {
        let g = Gate::Cx(Qubit(0), Qubit(3));
        assert_eq!(g.kind(), GateKind::TwoQubit);
        assert!(g.is_two_qubit());
        assert_eq!(g.two_qubit_pair(), Some((Qubit(0), Qubit(3))));
        assert_eq!(g.max_qubit(), Qubit(3));
    }

    #[test]
    fn swap_is_its_own_kind() {
        let g = Gate::Swap(Qubit(1), Qubit(2));
        assert_eq!(g.kind(), GateKind::Swap);
        assert!(g.is_two_qubit());
    }

    #[test]
    fn display_round_trips_names() {
        assert_eq!(Gate::Cx(Qubit(0), Qubit(1)).to_string(), "cx q0, q1");
        assert_eq!(Gate::Ms(Qubit(5), Qubit(2)).to_string(), "ms q5, q2");
        assert!(Gate::Cp(Qubit(0), Qubit(1), 1.5).to_string().starts_with("cp(1.5"));
    }
}
