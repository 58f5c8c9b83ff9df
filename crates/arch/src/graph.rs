//! The static weighted connectivity graph of Sec. 3.1.
//!
//! Nodes are physical slots; a slot holds either a qubit (a "red node" in
//! Fig. 5) or nothing (a "space node"). Because space nodes are first-class,
//! exchanging two nodes never changes the graph — shuttling is just a swap
//! of a qubit node with a space node across an inter-trap edge. Edge
//! weights encode the relative cost of the exchange:
//!
//! * adjacent slots inside a trap: the tiny *inner weight* (ion reordering
//!   or a SWAP gate),
//! * slots in the same trap at distance `d`: `d ×` inner weight,
//! * port slots of adjacent traps: the *shuttle weight* scaled by
//!   `junctions + 1`.

use crate::ids::{SlotId, TrapId};
use crate::topology::QccdTopology;
use serde::{Deserialize, Serialize};

/// Edge-weight configuration of the static graph (Sec. 4.2 defaults:
/// inner weight 0.001, shuttle weight 1, threshold between them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightConfig {
    /// Weight of exchanging two adjacent nodes inside a trap.
    pub inner_weight: f64,
    /// Weight of shuttling across a junction-free inter-trap segment. A
    /// path through `j` junctions costs `shuttle_weight * (j + 1)`.
    pub shuttle_weight: f64,
    /// Threshold separating "within trap" from "across traps" costs; a
    /// two-qubit gate is applicable iff the connecting weight is below it.
    pub threshold: f64,
}

impl Default for WeightConfig {
    fn default() -> Self {
        WeightConfig { inner_weight: 0.001, shuttle_weight: 1.0, threshold: 0.5 }
    }
}

impl WeightConfig {
    /// Creates a configuration from an explicit shuttle-to-inner weight
    /// ratio `r` (used by the Fig. 14 sensitivity sweep): the inner weight
    /// stays at 0.001 and the shuttle weight becomes `0.001 * r`.
    pub fn with_ratio(ratio: f64) -> Self {
        let inner_weight = 0.001;
        WeightConfig {
            inner_weight,
            shuttle_weight: inner_weight * ratio,
            threshold: inner_weight * ratio * 0.5,
        }
    }
}

/// The kind of a slot-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Two adjacent slots inside the same trap.
    IntraTrap,
    /// The facing port slots of two adjacent traps, crossing `junctions`
    /// junctions.
    InterTrap {
        /// Number of junctions on the shuttle path.
        junctions: u32,
    },
}

/// An edge of the static slot graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotEdge {
    /// First endpoint.
    pub a: SlotId,
    /// Second endpoint.
    pub b: SlotId,
    /// Exchange cost.
    pub weight: f64,
    /// Whether the edge stays inside a trap or crosses traps.
    pub kind: EdgeKind,
}

/// The static weighted slot graph of a QCCD device.
///
/// ```
/// use ssync_arch::{QccdTopology, SlotGraph, WeightConfig, TrapId};
/// let graph = SlotGraph::new(QccdTopology::linear(2, 3), WeightConfig::default());
/// assert_eq!(graph.num_slots(), 6);
/// // 2 intra-trap adjacencies per trap + 1 inter-trap port edge.
/// assert_eq!(graph.edges().len(), 5);
/// assert_eq!(graph.slot_trap(ssync_arch::SlotId(4)), TrapId(1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotGraph {
    topology: QccdTopology,
    weights: WeightConfig,
    slot_trap: Vec<TrapId>,
    slot_pos: Vec<usize>,
    edges: Vec<SlotEdge>,
}

impl SlotGraph {
    /// Builds the static graph for `topology` with the given edge weights.
    pub fn new(topology: QccdTopology, weights: WeightConfig) -> Self {
        let num_slots = topology.num_slots();
        let mut slot_trap = vec![TrapId(0); num_slots];
        let mut slot_pos = vec![0usize; num_slots];
        let mut edges = Vec::new();
        for trap in topology.traps() {
            let slots = trap.slots();
            for (pos, &s) in slots.iter().enumerate() {
                slot_trap[s.index()] = trap.id();
                slot_pos[s.index()] = pos;
                if pos + 1 < slots.len() {
                    edges.push(SlotEdge {
                        a: s,
                        b: slots[pos + 1],
                        weight: weights.inner_weight,
                        kind: EdgeKind::IntraTrap,
                    });
                }
            }
        }
        for (a, b, junctions) in topology.links() {
            let sa = topology.port_slot(a, b);
            let sb = topology.port_slot(b, a);
            edges.push(SlotEdge {
                a: sa,
                b: sb,
                weight: weights.shuttle_weight * f64::from(junctions + 1),
                kind: EdgeKind::InterTrap { junctions },
            });
        }
        SlotGraph { topology, weights, slot_trap, slot_pos, edges }
    }

    /// The underlying device topology.
    pub fn topology(&self) -> &QccdTopology {
        &self.topology
    }

    /// The edge-weight configuration.
    pub fn weights(&self) -> WeightConfig {
        self.weights
    }

    /// Total number of slots.
    pub fn num_slots(&self) -> usize {
        self.slot_trap.len()
    }

    /// All edges of the graph.
    pub fn edges(&self) -> &[SlotEdge] {
        &self.edges
    }

    /// The trap containing `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot id is out of range.
    #[inline]
    pub fn slot_trap(&self, slot: SlotId) -> TrapId {
        self.slot_trap[slot.index()]
    }

    /// Chain position of `slot` within its trap (0-based from the left end).
    ///
    /// # Panics
    ///
    /// Panics if the slot id is out of range.
    #[inline]
    pub fn slot_position(&self, slot: SlotId) -> usize {
        self.slot_pos[slot.index()]
    }

    /// `true` if both slots are inside the same trap.
    pub fn same_trap(&self, a: SlotId, b: SlotId) -> bool {
        self.slot_trap(a) == self.slot_trap(b)
    }

    /// Number of chain positions between two slots of the same trap.
    ///
    /// # Panics
    ///
    /// Panics if the slots belong to different traps.
    pub fn intra_trap_distance(&self, a: SlotId, b: SlotId) -> usize {
        assert!(self.same_trap(a, b), "slots {a} and {b} are in different traps");
        self.slot_position(a).abs_diff(self.slot_position(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> SlotGraph {
        SlotGraph::new(QccdTopology::linear(2, 4), WeightConfig::default())
    }

    #[test]
    fn default_weights_match_paper() {
        let w = WeightConfig::default();
        assert_eq!(w.inner_weight, 0.001);
        assert_eq!(w.shuttle_weight, 1.0);
        assert!(w.threshold > w.inner_weight && w.threshold < w.shuttle_weight);
    }

    #[test]
    fn ratio_configuration_scales_shuttle_weight() {
        let w = WeightConfig::with_ratio(100.0);
        assert!((w.shuttle_weight / w.inner_weight - 100.0).abs() < 1e-9);
    }

    #[test]
    fn edge_counts_for_linear_device() {
        let g = l2();
        let intra = g.edges().iter().filter(|e| e.kind == EdgeKind::IntraTrap).count();
        let inter =
            g.edges().iter().filter(|e| matches!(e.kind, EdgeKind::InterTrap { .. })).count();
        assert_eq!(intra, 6); // 3 adjacencies per 4-slot trap × 2 traps
        assert_eq!(inter, 1);
    }

    #[test]
    fn inter_trap_edge_connects_facing_ports() {
        let g = l2();
        let e = g
            .edges()
            .iter()
            .find(|e| matches!(e.kind, EdgeKind::InterTrap { .. }))
            .copied()
            .unwrap();
        // Trap 0's right end (slot 3) faces trap 1's left end (slot 4).
        assert_eq!((e.a, e.b), (SlotId(3), SlotId(4)));
        assert_eq!(e.weight, 1.0); // zero junctions on a linear link
    }

    #[test]
    fn grid_links_cost_more_due_to_junctions() {
        let g = SlotGraph::new(QccdTopology::grid(2, 2, 3), WeightConfig::default());
        let shuttle_weights: Vec<f64> = g
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::InterTrap { .. }))
            .map(|e| e.weight)
            .collect();
        assert!(!shuttle_weights.is_empty());
        assert!(shuttle_weights.iter().all(|&w| (w - 2.0).abs() < 1e-12));
    }

    #[test]
    fn intra_trap_distances_and_weights() {
        let g = l2();
        assert_eq!(g.intra_trap_distance(SlotId(0), SlotId(3)), 3);
        assert!(g.same_trap(SlotId(0), SlotId(3)));
        assert!(!g.same_trap(SlotId(3), SlotId(4)));
    }

    #[test]
    #[should_panic(expected = "different traps")]
    fn intra_distance_across_traps_panics() {
        l2().intra_trap_distance(SlotId(0), SlotId(5));
    }

    #[test]
    fn slot_metadata_is_consistent_with_topology() {
        let g = SlotGraph::new(QccdTopology::grid(2, 3, 5), WeightConfig::default());
        for trap in g.topology().traps() {
            for (pos, slot) in trap.slots().into_iter().enumerate() {
                assert_eq!(g.slot_trap(slot), trap.id());
                assert_eq!(g.slot_position(slot), pos);
            }
        }
    }
}
