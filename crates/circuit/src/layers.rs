//! ASAP layering of a circuit (parallel "time slices" of gates).

use crate::circuit::Circuit;
use crate::gate::Gate;

/// A circuit partitioned into ASAP layers: each layer contains gates acting
/// on disjoint qubits, and every gate appears in the earliest layer allowed
/// by its dependencies.
///
/// ```
/// use ssync_circuit::{Circuit, Layers, Qubit};
/// let mut c = Circuit::new(4);
/// c.cx(Qubit(0), Qubit(1));
/// c.cx(Qubit(2), Qubit(3));
/// c.cx(Qubit(1), Qubit(2));
/// let layers = Layers::from_circuit(&c);
/// assert_eq!(layers.len(), 2);
/// assert_eq!(layers.layer(0).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    layers: Vec<Vec<Gate>>,
}

impl Layers {
    /// Partitions the two-qubit gates of `circuit` into ASAP layers.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_gates(circuit.iter().copied().filter(Gate::is_two_qubit), circuit.num_qubits())
    }

    /// Partitions an arbitrary gate sequence into ASAP layers.
    pub fn from_gates(gates: impl IntoIterator<Item = Gate>, num_qubits: usize) -> Self {
        let mut level = vec![0usize; num_qubits];
        let mut layers: Vec<Vec<Gate>> = Vec::new();
        for g in gates {
            let qs = g.qubits();
            let l = qs.iter().map(|q| level[q.index()]).max().unwrap_or(0);
            if l >= layers.len() {
                layers.resize_with(l + 1, Vec::new);
            }
            layers[l].push(g);
            for q in &qs {
                level[q.index()] = l + 1;
            }
        }
        Layers { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if there are no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The gates of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn layer(&self, i: usize) -> &[Gate] {
        &self.layers[i]
    }

    /// Iterates over the layers, earliest first.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<Gate>> {
        self.layers.iter()
    }

    /// The gates of the first `k` layers, flattened in layer order: the
    /// look-ahead window of the intra-trap initial mapping score (Eq. 3 of
    /// the paper), which placement counts in one pass without building
    /// the layers.
    pub fn first_k(&self, k: usize) -> Vec<Gate> {
        self.layers.iter().take(k).flatten().copied().collect()
    }
}

impl<'a> IntoIterator for &'a Layers {
    type Item = &'a Vec<Gate>;
    type IntoIter = std::slice::Iter<'a, Vec<Gate>>;
    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Qubit;

    #[test]
    fn parallel_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(2), Qubit(3));
        let layers = Layers::from_circuit(&c);
        assert_eq!(layers.len(), 1);
        assert_eq!(layers.layer(0).len(), 2);
    }

    #[test]
    fn dependent_gates_stack_in_order() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        let layers = Layers::from_circuit(&c);
        assert_eq!(layers.len(), 2);
    }

    #[test]
    fn first_k_flattens_in_layer_order() {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(2), Qubit(3));
        c.cx(Qubit(1), Qubit(2));
        let layers = Layers::from_circuit(&c);
        assert_eq!(layers.first_k(1).len(), 2);
        assert_eq!(layers.first_k(2).len(), 3);
        assert_eq!(layers.first_k(10).len(), 3);
    }

    #[test]
    fn single_qubit_gates_are_ignored() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.h(Qubit(1));
        let layers = Layers::from_circuit(&c);
        assert!(layers.is_empty());
    }
}
