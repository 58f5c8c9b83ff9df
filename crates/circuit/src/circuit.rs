//! The [`Circuit`] container: an ordered list of gates over a qubit register.

use crate::error::CircuitError;
use crate::gate::{Gate, Qubit};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A quantum circuit: a fixed-width qubit register plus a time-ordered list
/// of gates.
///
/// The builder-style methods (`h`, `cx`, `ms`, ...) panic on out-of-range
/// qubits; use [`Circuit::try_push`] when the operands are not statically
/// known to be valid.
///
/// ```
/// use ssync_circuit::{Circuit, Qubit};
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cx(Qubit(0), Qubit(1));
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
    name: String,
}

/// Aggregate statistics of a circuit, as reported in Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitStats {
    /// Number of qubits in the register.
    pub num_qubits: usize,
    /// Total number of gates.
    pub total_gates: usize,
    /// Number of single-qubit gates.
    pub single_qubit_gates: usize,
    /// Number of two-qubit gates (including SWAPs).
    pub two_qubit_gates: usize,
    /// Circuit depth counting only two-qubit gates.
    pub two_qubit_depth: usize,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, gates: Vec::new(), name: String::new() }
    }

    /// Creates an empty circuit with a human-readable name (used in reports).
    pub fn with_name(num_qubits: usize, name: impl Into<String>) -> Self {
        Circuit { num_qubits, gates: Vec::new(), name: name.into() }
    }

    /// The circuit's name ("" if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the circuit's name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate after validating its operands.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if a qubit index is not in
    /// `0..num_qubits`, or [`CircuitError::DuplicateOperand`] if a two-qubit
    /// gate names the same qubit twice.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        check_operands(self.num_qubits, &gate)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Reserves room for exactly `additional` more gates, so a caller that
    /// knows the final gate count (a decoder) appends without regrowth.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.gates.reserve_exact(additional);
    }

    /// Builds an unnamed circuit over `num_qubits` qubits from a gate
    /// list, checking every gate as [`Circuit::try_push`] does.
    ///
    /// # Errors
    ///
    /// The error [`Circuit::try_push`] would return for the first invalid
    /// gate.
    pub fn from_gates(num_qubits: usize, gates: Vec<Gate>) -> Result<Self, CircuitError> {
        for gate in &gates {
            check_operands(num_qubits, gate)?;
        }
        Ok(Circuit { num_qubits, gates, name: String::new() })
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate's operands are invalid (see [`Circuit::try_push`]).
    pub fn push(&mut self, gate: Gate) {
        self.try_push(gate).expect("invalid gate operands");
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: Qubit) {
        self.push(Gate::H(q));
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: Qubit) {
        self.push(Gate::X(q));
    }

    /// Appends an X rotation.
    pub fn rx(&mut self, q: Qubit, theta: f64) {
        self.push(Gate::Rx(q, theta));
    }

    /// Appends a Y rotation.
    pub fn ry(&mut self, q: Qubit, theta: f64) {
        self.push(Gate::Ry(q, theta));
    }

    /// Appends a Z rotation.
    pub fn rz(&mut self, q: Qubit, theta: f64) {
        self.push(Gate::Rz(q, theta));
    }

    /// Appends a CNOT gate.
    pub fn cx(&mut self, control: Qubit, target: Qubit) {
        self.push(Gate::Cx(control, target));
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: Qubit, b: Qubit) {
        self.push(Gate::Cz(a, b));
    }

    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, a: Qubit, b: Qubit, theta: f64) {
        self.push(Gate::Cp(a, b, theta));
    }

    /// Appends a Mølmer–Sørensen gate.
    pub fn ms(&mut self, a: Qubit, b: Qubit) {
        self.push(Gate::Ms(a, b));
    }

    /// Appends a ZZ interaction.
    pub fn rzz(&mut self, a: Qubit, b: Qubit, theta: f64) {
        self.push(Gate::Rzz(a, b, theta));
    }

    /// Appends an XX interaction.
    pub fn rxx(&mut self, a: Qubit, b: Qubit, theta: f64) {
        self.push(Gate::Rxx(a, b, theta));
    }

    /// Appends a YY interaction.
    pub fn ryy(&mut self, a: Qubit, b: Qubit, theta: f64) {
        self.push(Gate::Ryy(a, b, theta));
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: Qubit, b: Qubit) {
        self.push(Gate::Swap(a, b));
    }

    /// Appends all gates of `other` (which must fit in this register).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit.
    pub fn append(&mut self, other: &Circuit) {
        assert!(
            other.num_qubits <= self.num_qubits,
            "appended circuit uses more qubits than the receiver"
        );
        self.gates.extend_from_slice(&other.gates);
    }

    /// Number of two-qubit gates (including SWAPs).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn single_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_two_qubit()).count()
    }

    /// Only the two-qubit gates, in program order.
    pub fn two_qubit_gates(&self) -> Vec<Gate> {
        self.gates.iter().copied().filter(Gate::is_two_qubit).collect()
    }

    /// Circuit depth counting every gate (greedy ASAP layering).
    pub fn depth(&self) -> usize {
        self.depth_filtered(|_| true)
    }

    /// Circuit depth counting only two-qubit gates.
    pub fn two_qubit_depth(&self) -> usize {
        self.depth_filtered(Gate::is_two_qubit)
    }

    fn depth_filtered(&self, keep: impl Fn(&Gate) -> bool) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut max = 0usize;
        for g in &self.gates {
            if !keep(g) {
                continue;
            }
            let qs = g.qubits();
            let l = qs.iter().map(|q| level[q.index()]).max().unwrap_or(0) + 1;
            for q in &qs {
                level[q.index()] = l;
            }
            max = max.max(l);
        }
        max
    }

    /// Aggregate circuit statistics (the figures reported in Table 2).
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            num_qubits: self.num_qubits,
            total_gates: self.len(),
            single_qubit_gates: self.single_qubit_gate_count(),
            two_qubit_gates: self.two_qubit_gate_count(),
            two_qubit_depth: self.two_qubit_depth(),
        }
    }

    /// The register's qubits ordered by the index of the first gate that
    /// touches them (never-used qubits come last, by index). This is the
    /// packing order the greedy baseline compilers place ions in; it
    /// depends only on the circuit, so callers compiling one circuit
    /// against many devices should compute it once and reuse it.
    pub fn first_use_order(&self) -> Vec<Qubit> {
        let n = self.num_qubits;
        let mut first_use = vec![usize::MAX; n];
        for (i, gate) in self.gates.iter().enumerate() {
            for q in gate.qubits() {
                if first_use[q.index()] == usize::MAX {
                    first_use[q.index()] = i;
                }
            }
        }
        let mut order: Vec<Qubit> = (0..n as u32).map(Qubit).collect();
        order.sort_by_key(|q| (first_use[q.index()], q.0));
        order
    }

    /// A stable 64-bit content hash over the register width and the gate
    /// list (kinds, operands and angle bit patterns). The circuit's name is
    /// deliberately excluded: two circuits with identical structure hash
    /// identically. It has no per-process seed, so it is reproducible
    /// across runs, platforms and processes — suitable as a compile-result
    /// cache key.
    ///
    /// The walk folds one 64-bit word per step: the width, then per gate
    /// its [fields](Gate::fields) as the tag, `a | b << 32` and the
    /// angle's bits, then the gate count. Each step rotates the state,
    /// XORs the word in and multiplies by an odd constant, so for a fixed
    /// word it is a bijection of the state and circuits that differ in one
    /// field never collide. The SplitMix64 finalizer then mixes every
    /// state bit into every digest bit.
    pub fn content_hash(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut state = 0x243f_6a88_85a3_08d3_u64;
        let mut write = |word: u64| state = (state.rotate_left(26) ^ word).wrapping_mul(K);
        write(self.num_qubits as u64);
        for gate in &self.gates {
            let (tag, a, b, angle) = gate.fields();
            write(u64::from(tag));
            write(u64::from(a) | (u64::from(b) << 32));
            write(angle.to_bits());
        }
        write(self.gates.len() as u64);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The [`Circuit::try_push`] operand check, without allocating.
fn check_operands(num_qubits: usize, gate: &Gate) -> Result<(), CircuitError> {
    let (first, second) = match gate.two_qubit_pair() {
        Some((a, b)) => (a, Some(b)),
        None => (gate.max_qubit(), None),
    };
    for q in std::iter::once(first).chain(second) {
        if q.index() >= num_qubits {
            return Err(CircuitError::QubitOutOfRange { qubit: q.0, num_qubits });
        }
    }
    if second == Some(first) {
        return Err(CircuitError::DuplicateOperand { qubit: first.0 });
    }
    Ok(())
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// {} qubits, {} gates", self.num_qubits, self.gates.len())?;
        for g in &self.gates {
            writeln!(f, "{g};")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl CircuitStats {
    /// Classifies the gate-count-weighted average interaction distance as a
    /// coarse "communication pattern" label, mirroring Table 2's wording.
    pub fn communication_label(avg_distance: f64) -> &'static str {
        if avg_distance <= 1.5 {
            "nearest-neighbor gates"
        } else if avg_distance <= 6.0 {
            "short-distance gates"
        } else {
            "long-distance gates"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_and_counts() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.ms(Qubit(2), Qubit(3));
        c.rz(Qubit(1), 0.3);
        c.swap(Qubit(1), Qubit(2));
        assert_eq!(c.len(), 5);
        assert_eq!(c.two_qubit_gate_count(), 3);
        assert_eq!(c.single_qubit_gate_count(), 2);
        assert_eq!(c.stats().two_qubit_gates, 3);
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::Cx(Qubit(0), Qubit(5))).unwrap_err();
        assert_eq!(err, CircuitError::QubitOutOfRange { qubit: 5, num_qubits: 2 });
    }

    #[test]
    fn try_push_rejects_duplicate_operand() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::Cx(Qubit(1), Qubit(1))).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateOperand { qubit: 1 });
    }

    #[test]
    #[should_panic(expected = "invalid gate operands")]
    fn push_panics_on_invalid() {
        let mut c = Circuit::new(1);
        c.cx(Qubit(0), Qubit(1));
    }

    #[test]
    fn depth_is_asap_layering() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        c.cx(Qubit(0), Qubit(1));
        assert_eq!(c.two_qubit_depth(), 3);
        let mut parallel = Circuit::new(4);
        parallel.cx(Qubit(0), Qubit(1));
        parallel.cx(Qubit(2), Qubit(3));
        assert_eq!(parallel.two_qubit_depth(), 1);
    }

    #[test]
    fn append_and_extend() {
        let mut a = Circuit::new(3);
        a.h(Qubit(0));
        let mut b = Circuit::new(2);
        b.cx(Qubit(0), Qubit(1));
        a.append(&b);
        assert_eq!(a.len(), 2);
        a.extend([Gate::X(Qubit(2))]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn display_emits_one_gate_per_line() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        let s = c.to_string();
        assert!(s.contains("h q0;"));
        assert!(s.contains("cx q0, q1;"));
    }

    #[test]
    fn first_use_order_sorts_by_first_gate_then_index() {
        let mut c = Circuit::new(5);
        c.cx(Qubit(3), Qubit(1));
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(4));
        // Qubit 2 is never used and comes last; 3 and 1 tie on the first
        // gate and break by index.
        assert_eq!(c.first_use_order(), vec![Qubit(1), Qubit(3), Qubit(0), Qubit(4), Qubit(2)]);
    }

    #[test]
    fn content_hash_ignores_name_but_not_structure() {
        let mut a = Circuit::with_name(3, "a");
        a.cx(Qubit(0), Qubit(1));
        a.rz(Qubit(2), 0.25);
        let mut b = Circuit::with_name(3, "completely different name");
        b.cx(Qubit(0), Qubit(1));
        b.rz(Qubit(2), 0.25);
        assert_eq!(a.content_hash(), b.content_hash());

        let mut angle = b.clone();
        angle.rz(Qubit(2), 0.5);
        assert_ne!(a.content_hash(), angle.content_hash());
        let mut operands = Circuit::new(3);
        operands.cx(Qubit(1), Qubit(0));
        operands.rz(Qubit(2), 0.25);
        assert_ne!(a.content_hash(), operands.content_hash());
        assert_ne!(Circuit::new(3).content_hash(), Circuit::new(4).content_hash());
    }

    /// The digest is part of every persisted cache key, so it is pinned:
    /// a change to the walk or the fold fails here.
    #[test]
    fn content_hashes_are_pinned() {
        let mut sample = Circuit::new(3);
        sample.extend([
            Gate::H(Qubit(0)),
            Gate::Rz(Qubit(1), 0.25),
            Gate::Cx(Qubit(0), Qubit(2)),
            Gate::Rzz(Qubit(2), Qubit(1), -1.5),
            Gate::Swap(Qubit(1), Qubit(0)),
        ]);
        assert_eq!(sample.content_hash(), 0x6862_b389_e363_fa07);
        assert_eq!(crate::generators::qft(8).content_hash(), 0x6c0f_3d09_d156_7c4f);
    }

    /// Changing any one field of any gate variant, the width or the gate
    /// order changes the digest. One changed word is a guaranteed change:
    /// each fold step is a bijection of the state for a fixed word.
    #[test]
    fn content_hash_sees_every_field_width_and_order() {
        let (q0, q1, q2) = (Qubit(0), Qubit(1), Qubit(2));
        let mut gates = Vec::new();
        // Every variant on (q0, q1); then a changed first operand (q2, q1),
        // a changed second operand (q0, q2) and, per angle-carrying
        // variant, four angles, -0.0 among them.
        for (a, b) in [(q0, q1), (q2, q1), (q0, q2)] {
            let single = b == q1;
            for angle in [0.5, 0.25, 0.0, -0.0] {
                if single {
                    gates.extend([Gate::Rx(a, angle), Gate::Ry(a, angle), Gate::Rz(a, angle)]);
                }
                gates.extend([
                    Gate::Cp(a, b, angle),
                    Gate::Rzz(a, b, angle),
                    Gate::Rxx(a, b, angle),
                    Gate::Ryy(a, b, angle),
                ]);
            }
            gates.extend([Gate::Cx(a, b), Gate::Cz(a, b), Gate::Ms(a, b), Gate::Swap(a, b)]);
            if single {
                gates.extend([Gate::H(a), Gate::X(a)]);
            }
        }
        let digest = |width: usize, gates: &[Gate]| {
            let mut c = Circuit::new(width);
            c.extend(gates.iter().copied());
            c.content_hash()
        };
        let mut seen = std::collections::HashMap::new();
        for gate in &gates {
            let earlier = seen.insert(digest(3, &[*gate]), gate);
            assert!(earlier.is_none(), "{earlier:?} and {gate:?} share a digest");
        }

        let pair = [Gate::Cx(q0, q1), Gate::Rz(q2, 0.5)];
        assert_ne!(digest(3, &pair), digest(4, &pair), "width");
        assert_ne!(digest(3, &pair), digest(3, &[pair[1], pair[0]]), "order");
        let entangling = [Gate::Cx(q0, q1), Gate::Cx(q1, q2)];
        assert_ne!(digest(3, &entangling), digest(3, &[entangling[1], entangling[0]]), "order");
        assert_ne!(digest(3, &pair), digest(3, &pair[..1]), "gate count");
    }

    /// Distinct circuits of every generator app at sizes 4–48 have
    /// distinct digests.
    #[test]
    fn generator_apps_have_distinct_digests() {
        use crate::generators::*;
        let mut seen: std::collections::HashMap<u64, Circuit> = std::collections::HashMap::new();
        for n in 4..=48 {
            for circuit in [
                qft(n),
                cuccaro_adder(n / 2),
                bernstein_vazirani(n),
                qaoa_nearest_neighbor(n, 10),
                alt_ansatz(n, 10),
                heisenberg_chain(n, n),
            ] {
                if let Some(twin) = seen.get(&circuit.content_hash()) {
                    assert!(
                        twin.num_qubits() == circuit.num_qubits()
                            && twin.gates() == circuit.gates(),
                        "{} and {} share a digest",
                        twin.name(),
                        circuit.name()
                    );
                }
                seen.insert(circuit.content_hash(), circuit);
            }
        }
        assert!(seen.len() > 200, "{} distinct circuits", seen.len());
    }

    #[test]
    fn communication_label_thresholds() {
        assert_eq!(CircuitStats::communication_label(1.0), "nearest-neighbor gates");
        assert_eq!(CircuitStats::communication_label(4.0), "short-distance gates");
        assert_eq!(CircuitStats::communication_label(20.0), "long-distance gates");
    }
}
