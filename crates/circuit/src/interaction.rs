//! Qubit-interaction graphs: how often (and how soon) pairs of program
//! qubits need to meet. Used by the initial-mapping strategies.

use crate::circuit::Circuit;
use crate::gate::Qubit;
use std::collections::HashMap;

/// A weighted interaction graph over program qubits.
///
/// The weight of the edge `(a, b)` counts the two-qubit gates between `a`
/// and `b`, optionally discounted by when the gate occurs (earlier gates
/// weigh more), which is the spatio-temporal correlation used by the STA
/// mapping of the paper.
///
/// ```
/// use ssync_circuit::{Circuit, InteractionGraph, Qubit};
/// let mut c = Circuit::new(3);
/// c.cx(Qubit(0), Qubit(1));
/// c.cx(Qubit(0), Qubit(1));
/// c.cx(Qubit(1), Qubit(2));
/// let g = InteractionGraph::from_circuit(&c);
/// assert_eq!(g.count(Qubit(0), Qubit(1)), 2);
/// assert_eq!(g.count(Qubit(0), Qubit(2)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InteractionGraph {
    num_qubits: usize,
    counts: HashMap<(Qubit, Qubit), usize>,
    weights: HashMap<(Qubit, Qubit), f64>,
}

fn ordered(a: Qubit, b: Qubit) -> (Qubit, Qubit) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl InteractionGraph {
    /// Builds the interaction graph with uniform per-gate weight 1.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::with_temporal_discount(circuit, 0.0)
    }

    /// Builds the interaction graph where the `i`-th two-qubit gate (0-based)
    /// contributes weight `1 / (1 + discount * i)`. A zero discount reduces
    /// to plain counting; larger discounts emphasise early gates, which is
    /// what the STA mapping exploits.
    pub fn with_temporal_discount(circuit: &Circuit, discount: f64) -> Self {
        let mut counts = HashMap::new();
        let mut weights = HashMap::new();
        let mut i = 0usize;
        for g in circuit.iter() {
            if let Some((a, b)) = g.two_qubit_pair() {
                let key = ordered(a, b);
                *counts.entry(key).or_insert(0) += 1;
                *weights.entry(key).or_insert(0.0) += 1.0 / (1.0 + discount * i as f64);
                i += 1;
            }
        }
        InteractionGraph { num_qubits: circuit.num_qubits(), counts, weights }
    }

    /// Number of qubits in the underlying circuit register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of two-qubit gates between `a` and `b`.
    pub fn count(&self, a: Qubit, b: Qubit) -> usize {
        self.counts.get(&ordered(a, b)).copied().unwrap_or(0)
    }

    /// Temporally-discounted interaction weight between `a` and `b`.
    pub fn weight(&self, a: Qubit, b: Qubit) -> f64 {
        self.weights.get(&ordered(a, b)).copied().unwrap_or(0.0)
    }

    /// All interacting pairs with their counts, in unspecified order.
    pub fn pairs(&self) -> impl Iterator<Item = (Qubit, Qubit, usize)> + '_ {
        self.counts.iter().map(|(&(a, b), &c)| (a, b, c))
    }

    /// Total interaction count of a single qubit (its weighted degree).
    pub fn degree(&self, q: Qubit) -> usize {
        self.counts.iter().filter(|(&(a, b), _)| a == q || b == q).map(|(_, &c)| c).sum()
    }

    /// The gate-count-weighted average "distance" between interacting qubit
    /// indices, a cheap proxy for the communication pattern labels of
    /// Table 2 (nearest-neighbour vs. long-distance).
    pub fn average_interaction_distance(&self) -> f64 {
        let mut total = 0.0f64;
        let mut gates = 0usize;
        for (&(a, b), &c) in &self.counts {
            total += (a.0 as f64 - b.0 as f64).abs() * c as f64;
            gates += c;
        }
        if gates == 0 {
            0.0
        } else {
            total / gates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(0));
        c.cx(Qubit(2), Qubit(3));
        c.cx(Qubit(0), Qubit(3));
        c
    }

    #[test]
    fn counts_are_symmetric() {
        let g = InteractionGraph::from_circuit(&sample());
        assert_eq!(g.count(Qubit(0), Qubit(1)), 2);
        assert_eq!(g.count(Qubit(1), Qubit(0)), 2);
        assert_eq!(g.count(Qubit(2), Qubit(3)), 1);
    }

    #[test]
    fn degree_sums_incident_counts() {
        let g = InteractionGraph::from_circuit(&sample());
        assert_eq!(g.degree(Qubit(0)), 3);
        assert_eq!(g.degree(Qubit(2)), 1);
    }

    #[test]
    fn temporal_discount_prefers_early_gates() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1)); // gate 0
        c.cx(Qubit(1), Qubit(2)); // gate 1
        let g = InteractionGraph::with_temporal_discount(&c, 1.0);
        assert!(g.weight(Qubit(0), Qubit(1)) > g.weight(Qubit(1), Qubit(2)));
    }

    #[test]
    fn average_distance_reflects_locality() {
        let mut near = Circuit::new(8);
        for i in 0..7u32 {
            near.cx(Qubit(i), Qubit(i + 1));
        }
        let mut far = Circuit::new(8);
        for i in 0..4u32 {
            far.cx(Qubit(i), Qubit(7 - i));
        }
        let gn = InteractionGraph::from_circuit(&near);
        let gf = InteractionGraph::from_circuit(&far);
        assert!(gn.average_interaction_distance() < gf.average_interaction_distance());
    }

    #[test]
    fn empty_circuit_has_zero_distance() {
        let g = InteractionGraph::from_circuit(&Circuit::new(3));
        assert_eq!(g.average_interaction_distance(), 0.0);
        assert_eq!(g.pairs().count(), 0);
    }
}
