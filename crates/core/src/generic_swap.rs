//! The *generic swap*: the unified node-interchange operation of Sec. 3.2.
//!
//! A generic swap exchanges the contents of two slot-graph nodes connected
//! by an edge. Depending on what sits at the endpoints it realises:
//!
//! * a **SWAP gate** — both endpoints hold qubits, same trap (rule 2),
//! * an **ion reorder** — one endpoint is a space, same trap, adjacent
//!   slots (rule 4),
//! * a **shuttle** — the endpoints are the facing ports of adjacent traps
//!   and exactly one holds a qubit (rule 3).

use serde::{Deserialize, Serialize};
use ssync_arch::{EdgeKind, Placement, SlotGraph, SlotId};
use std::fmt;

/// The physical realisation of a generic swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GenericSwapKind {
    /// A SWAP gate between two adjacent ions of the same trap.
    SwapGate,
    /// A physical shift of a space node by one position inside a trap.
    Reorder,
    /// A shuttle of an ion across an inter-trap link crossing `junctions`
    /// junctions.
    Shuttle {
        /// Junctions on the link.
        junctions: u32,
    },
}

/// A candidate generic swap: exchange the contents of slots `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenericSwap {
    /// First endpoint.
    pub a: SlotId,
    /// Second endpoint.
    pub b: SlotId,
    /// The physical realisation.
    pub kind: GenericSwapKind,
    /// The edge weight `w(swap)` added to the heuristic score (Eq. 1).
    pub weight: f64,
}

impl fmt::Display for GenericSwap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            GenericSwapKind::SwapGate => "swap-gate",
            GenericSwapKind::Reorder => "reorder",
            GenericSwapKind::Shuttle { .. } => "shuttle",
        };
        write!(f, "{kind} {}<->{} (w={})", self.a, self.b, self.weight)
    }
}

impl GenericSwap {
    /// Classifies the exchange across edge (`a`, `b`) under the current
    /// placement, returning `None` when the exchange is invalid or useless
    /// (both endpoints empty, or an occupied/occupied inter-trap pair).
    pub fn classify(
        graph: &SlotGraph,
        placement: &Placement,
        a: SlotId,
        b: SlotId,
        kind: EdgeKind,
        weight: f64,
    ) -> Option<GenericSwap> {
        let occ_a = placement.occupant(a).is_some();
        let occ_b = placement.occupant(b).is_some();
        match kind {
            EdgeKind::IntraTrap => match (occ_a, occ_b) {
                (true, true) => Some(GenericSwap { a, b, kind: GenericSwapKind::SwapGate, weight }),
                (true, false) | (false, true) => {
                    Some(GenericSwap { a, b, kind: GenericSwapKind::Reorder, weight })
                }
                (false, false) => None,
            },
            EdgeKind::InterTrap { junctions } => {
                // Exactly one endpoint must hold an ion (rule 3) and both
                // must be the facing chain ends, which the graph guarantees.
                debug_assert!(!graph.same_trap(a, b));
                match (occ_a, occ_b) {
                    (true, false) | (false, true) => Some(GenericSwap {
                        a,
                        b,
                        kind: GenericSwapKind::Shuttle { junctions },
                        weight,
                    }),
                    _ => None,
                }
            }
        }
    }

    /// Enumerates every valid generic swap under the current placement.
    pub fn candidates(graph: &SlotGraph, placement: &Placement) -> Vec<GenericSwap> {
        graph
            .edges()
            .iter()
            .filter_map(|e| Self::classify(graph, placement, e.a, e.b, e.kind, e.weight))
            .collect()
    }

    /// The qubits moved by this swap (one for reorders/shuttles, two for
    /// SWAP gates), read from its endpoints without allocating.
    pub fn moved_qubits<'p>(
        &self,
        placement: &'p Placement,
    ) -> impl Iterator<Item = ssync_circuit::Qubit> + 'p {
        [self.a, self.b].into_iter().filter_map(|s| placement.occupant(s))
    }

    /// `true` if this swap is a shuttle.
    pub fn is_shuttle(&self) -> bool {
        matches!(self.kind, GenericSwapKind::Shuttle { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::{QccdTopology, WeightConfig};
    use ssync_circuit::Qubit;

    /// Two traps of capacity 3 in a line; qubits 0,1 in trap 0, qubit 2 in trap 1.
    fn setup() -> (SlotGraph, Placement) {
        let topo = QccdTopology::linear(2, 3);
        let graph = SlotGraph::new(topo.clone(), WeightConfig::default());
        let mut p = Placement::new(&topo, 3);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(1));
        p.place(Qubit(2), SlotId(3));
        (graph, p)
    }

    #[test]
    fn candidates_cover_all_three_kinds() {
        let (graph, p) = setup();
        let cands = GenericSwap::candidates(&graph, &p);
        assert!(cands.iter().any(|c| c.kind == GenericSwapKind::SwapGate));
        assert!(cands.iter().any(|c| c.kind == GenericSwapKind::Reorder));
        assert!(cands.iter().any(|c| c.is_shuttle()));
    }

    #[test]
    fn empty_empty_edges_are_not_candidates() {
        let topo = QccdTopology::linear(2, 3);
        let graph = SlotGraph::new(topo.clone(), WeightConfig::default());
        let p = Placement::new(&topo, 1);
        assert!(GenericSwap::candidates(&graph, &p).is_empty());
    }

    #[test]
    fn inter_trap_edge_with_two_ions_is_invalid() {
        let topo = QccdTopology::linear(2, 2);
        let graph = SlotGraph::new(topo.clone(), WeightConfig::default());
        let mut p = Placement::new(&topo, 2);
        // Port slots of both traps occupied: slot 1 (right end of trap 0)
        // and slot 2 (left end of trap 1).
        p.place(Qubit(0), SlotId(1));
        p.place(Qubit(1), SlotId(2));
        let cands = GenericSwap::candidates(&graph, &p);
        assert!(cands.iter().all(|c| !c.is_shuttle()));
    }

    #[test]
    fn shuttle_candidate_carries_junction_count() {
        let topo = QccdTopology::grid(2, 2, 2);
        let graph = SlotGraph::new(topo.clone(), WeightConfig::default());
        let mut p = Placement::new(&topo, 1);
        // Put the qubit on trap 0's right end, which is a port slot.
        p.place(Qubit(0), SlotId(1));
        let cands = GenericSwap::candidates(&graph, &p);
        let shuttle = cands.iter().find(|c| c.is_shuttle()).unwrap();
        assert_eq!(shuttle.kind, GenericSwapKind::Shuttle { junctions: 1 });
        assert_eq!(shuttle.weight, 2.0);
    }

    #[test]
    fn moved_qubits_reports_occupants() {
        let (graph, p) = setup();
        let cands = GenericSwap::candidates(&graph, &p);
        let swap = cands.iter().find(|c| c.kind == GenericSwapKind::SwapGate).unwrap();
        let mut moved: Vec<Qubit> = swap.moved_qubits(&p).collect();
        moved.sort();
        assert_eq!(moved, vec![Qubit(0), Qubit(1)]);
        let _ = graph; // silence unused in some cfgs
    }

    #[test]
    fn display_names_the_kind() {
        let (graph, p) = setup();
        let cands = GenericSwap::candidates(&graph, &p);
        assert!(cands.iter().any(|c| c.to_string().contains("swap-gate")));
    }
}
