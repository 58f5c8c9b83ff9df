//! Gate and qubit primitives.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

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

/// The operands of a gate, held inline (a gate has one or two), so
/// asking for them never allocates. Derefs to `[Qubit]`: index it, iterate
/// it, or call slice methods on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateQubits {
    qubits: [Qubit; 2],
    len: u8,
}

impl Deref for GateQubits {
    type Target = [Qubit];

    #[inline]
    fn deref(&self) -> &[Qubit] {
        &self.qubits[..usize::from(self.len)]
    }
}

impl IntoIterator for GateQubits {
    type Item = Qubit;
    type IntoIter = std::iter::Take<std::array::IntoIter<Qubit, 2>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.qubits.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a GateQubits {
    type Item = &'a Qubit;
    type IntoIter = std::slice::Iter<'a, Qubit>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Gate {
    /// Returns the qubits this gate acts on (one or two entries).
    #[inline]
    pub fn qubits(&self) -> GateQubits {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Rx(q, _) | Gate::Ry(q, _) | Gate::Rz(q, _) => {
                GateQubits { qubits: [q, q], len: 1 }
            }
            Gate::Cx(a, b)
            | Gate::Cz(a, b)
            | Gate::Ms(a, b)
            | Gate::Swap(a, b)
            | Gate::Cp(a, b, _)
            | Gate::Rzz(a, b, _)
            | Gate::Rxx(a, b, _)
            | Gate::Ryy(a, b, _) => GateQubits { qubits: [a, b], len: 2 },
        }
    }

    /// Returns the pair of qubits if this is a two-qubit gate.
    #[inline]
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

    /// The gate as the flat record that [`Circuit::content_hash`] and the
    /// service codec walk: a stable tag per variant, the first operand,
    /// the second operand (`u32::MAX` for a single-qubit gate) and the
    /// angle (`0.0` for a gate without one). [`Gate::from_fields`] inverts
    /// it.
    ///
    /// [`Circuit::content_hash`]: crate::Circuit::content_hash
    #[inline]
    pub fn fields(&self) -> (u8, u32, u32, f64) {
        match *self {
            Gate::H(q) => (0, q.0, u32::MAX, 0.0),
            Gate::X(q) => (1, q.0, u32::MAX, 0.0),
            Gate::Rx(q, t) => (2, q.0, u32::MAX, t),
            Gate::Ry(q, t) => (3, q.0, u32::MAX, t),
            Gate::Rz(q, t) => (4, q.0, u32::MAX, t),
            Gate::Cx(x, y) => (5, x.0, y.0, 0.0),
            Gate::Cz(x, y) => (6, x.0, y.0, 0.0),
            Gate::Cp(x, y, t) => (7, x.0, y.0, t),
            Gate::Ms(x, y) => (8, x.0, y.0, 0.0),
            Gate::Rzz(x, y, t) => (9, x.0, y.0, t),
            Gate::Rxx(x, y, t) => (10, x.0, y.0, t),
            Gate::Ryy(x, y, t) => (11, x.0, y.0, t),
            Gate::Swap(x, y) => (12, x.0, y.0, 0.0),
        }
    }

    /// The gate a [`Gate::fields`] record describes, or `None` for an
    /// unknown tag. Fields the tag's variant does not carry are ignored.
    #[inline]
    pub fn from_fields(tag: u8, a: u32, b: u32, angle: f64) -> Option<Gate> {
        let (a, b) = (Qubit(a), Qubit(b));
        Some(match tag {
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
            12 => Gate::Swap(a, b),
            _ => return None,
        })
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
            assert_eq!(g.qubits()[0], g.max_qubit());
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
        assert_eq!(*g.qubits(), [Qubit(0), Qubit(3)]);
        assert_eq!(g.qubits().into_iter().collect::<Vec<_>>(), vec![Qubit(0), Qubit(3)]);
        assert_eq!((&g.qubits()).into_iter().count(), 2);
    }

    #[test]
    fn swap_is_its_own_kind() {
        let g = Gate::Swap(Qubit(1), Qubit(2));
        assert_eq!(g.kind(), GateKind::Swap);
        assert!(g.is_two_qubit());
    }

    /// `from_fields` inverts `fields` for every variant, and tags past the
    /// last variant describe no gate.
    #[test]
    fn fields_round_trip_every_variant() {
        let (a, b) = (Qubit(3), Qubit(5));
        let gates = [
            Gate::H(a),
            Gate::X(a),
            Gate::Rx(a, 0.5),
            Gate::Ry(a, -0.5),
            Gate::Rz(a, 1.5),
            Gate::Cx(a, b),
            Gate::Cz(a, b),
            Gate::Cp(a, b, 0.25),
            Gate::Ms(a, b),
            Gate::Rzz(a, b, -0.25),
            Gate::Rxx(a, b, 2.0),
            Gate::Ryy(a, b, -2.0),
            Gate::Swap(a, b),
        ];
        for (tag, gate) in gates.into_iter().enumerate() {
            let (t, a, b, angle) = gate.fields();
            assert_eq!(usize::from(t), tag, "{gate}");
            assert_eq!(Gate::from_fields(t, a, b, angle), Some(gate));
        }
        assert_eq!(Gate::from_fields(13, 0, 1, 0.0), None);
        assert_eq!(Gate::from_fields(u8::MAX, 0, 1, 0.0), None);
    }

    #[test]
    fn display_round_trips_names() {
        assert_eq!(Gate::Cx(Qubit(0), Qubit(1)).to_string(), "cx q0, q1");
        assert_eq!(Gate::Ms(Qubit(5), Qubit(2)).to_string(), "ms q5, q2");
        assert!(Gate::Cp(Qubit(0), Qubit(1), 1.5).to_string().starts_with("cp(1.5"));
    }
}
