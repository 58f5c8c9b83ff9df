//! Dependency DAG over the two-qubit gates of a circuit.
//!
//! The QCCD scheduler only needs ordering constraints between gates that
//! share a qubit. Single-qubit gates are always executable (they never
//! require routing), so by default the DAG is built over two-qubit gates
//! only — exactly the view used by Algorithm 1 of the paper.

use crate::circuit::Circuit;
use crate::gate::Gate;
use serde::{Deserialize, Serialize};

/// Index of a node (gate) in a [`DependencyDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

#[derive(Debug, Clone)]
struct DagNode {
    gate: Gate,
    succs: Vec<NodeId>,
    /// Number of unexecuted predecessors. A node is in the frontier when
    /// this reaches zero and the node itself has not been executed.
    pending_preds: usize,
    executed: bool,
}

/// Reusable buffers for [`DependencyDag::lookahead_ids_into`], so the
/// scheduler's per-iteration look-ahead walk allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LookaheadScratch {
    pending: Vec<usize>,
    layer: Vec<NodeId>,
    next: Vec<NodeId>,
}

/// A dependency DAG with an executable *frontier*.
///
/// Nodes are gates; a directed edge `(g_i, g_j)` means `g_j` uses a qubit
/// last written by `g_i` and therefore must run after it. The frontier is
/// the set of nodes whose predecessors have all been executed.
///
/// ```
/// use ssync_circuit::{Circuit, DependencyDag, Qubit};
/// let mut c = Circuit::new(3);
/// c.cx(Qubit(0), Qubit(1));
/// c.cx(Qubit(1), Qubit(2));
/// let mut dag = DependencyDag::from_circuit(&c);
/// assert_eq!(dag.frontier().len(), 1);
/// let first = dag.frontier()[0];
/// dag.execute(first);
/// assert_eq!(dag.frontier().len(), 1);
/// assert!(!dag.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct DependencyDag {
    nodes: Vec<DagNode>,
    frontier: Vec<NodeId>,
    remaining: usize,
}

impl DependencyDag {
    /// Builds the DAG over the **two-qubit** gates of `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_gates(circuit.iter().copied().filter(Gate::is_two_qubit))
    }

    /// Builds the DAG over every gate of `circuit` (single-qubit included).
    pub fn from_circuit_all_gates(circuit: &Circuit) -> Self {
        Self::from_gates(circuit.iter().copied())
    }

    /// Builds the DAG from an explicit gate sequence.
    pub fn from_gates(gates: impl IntoIterator<Item = Gate>) -> Self {
        let gates: Vec<Gate> = gates.into_iter().collect();
        let max_qubit = gates.iter().map(|g| g.max_qubit().index() + 1).max().unwrap_or(0);
        let mut nodes: Vec<DagNode> = gates
            .iter()
            .map(|&gate| DagNode { gate, succs: Vec::new(), pending_preds: 0, executed: false })
            .collect();
        // last gate to have touched each qubit
        let mut last_use: Vec<Option<NodeId>> = vec![None; max_qubit];
        for (idx, gate) in gates.iter().enumerate() {
            let id = NodeId(idx);
            for q in gate.qubits() {
                if let Some(prev) = last_use[q.index()] {
                    // avoid duplicate edges when both qubits come from the
                    // same predecessor
                    if !nodes[prev.0].succs.contains(&id) {
                        nodes[prev.0].succs.push(id);
                        nodes[idx].pending_preds += 1;
                    }
                }
                last_use[q.index()] = Some(id);
            }
        }
        let frontier = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.pending_preds == 0)
            .map(|(i, _)| NodeId(i))
            .collect();
        let remaining = nodes.len();
        DependencyDag { nodes, frontier, remaining }
    }

    /// Total number of gates in the DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the DAG was built from an empty gate list.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of gates not yet executed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// `true` once every gate has been executed.
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// The current frontier: gates whose dependencies have all executed.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// The gate stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: NodeId) -> Gate {
        self.nodes[id.0].gate
    }

    /// `true` if the node has already been executed.
    pub fn is_executed(&self, id: NodeId) -> bool {
        self.nodes[id.0].executed
    }

    /// Marks a frontier node as executed and advances the frontier.
    ///
    /// # Panics
    ///
    /// Panics if the node is not currently in the frontier.
    pub fn execute(&mut self, id: NodeId) {
        let pos = self
            .frontier
            .iter()
            .position(|&n| n == id)
            .expect("node must be in the frontier to be executed");
        self.frontier.swap_remove(pos);
        self.nodes[id.0].executed = true;
        self.remaining -= 1;
        for i in 0..self.nodes[id.0].succs.len() {
            let s = self.nodes[id.0].succs[i];
            let node = &mut self.nodes[s.0];
            node.pending_preds -= 1;
            if node.pending_preds == 0 {
                self.frontier.push(s);
            }
        }
    }

    /// Gates within the first `k` dependency layers from the current
    /// frontier (the look-ahead window used by the extended cost function
    /// and the intra-trap initial-mapping score).
    pub fn lookahead(&self, k: usize) -> Vec<Gate> {
        let mut scratch = LookaheadScratch::default();
        let mut ids = Vec::new();
        self.lookahead_ids_into(k, &mut scratch, &mut ids);
        ids.into_iter().map(|id| self.nodes[id.0].gate).collect()
    }

    /// Allocation-free variant of [`DependencyDag::lookahead`]: writes the
    /// node ids of the first `k` dependency layers into `out` (same order
    /// as `lookahead`), reusing `scratch` buffers across calls. This is the
    /// form the scheduler's hot loop uses — the look-ahead window only
    /// changes when gates retire, so callers can cache `out` between
    /// placement-only iterations.
    pub fn lookahead_ids_into(
        &self,
        k: usize,
        scratch: &mut LookaheadScratch,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        // Breadth-first walk over unexecuted nodes, layer by layer, using a
        // temporary pending-predecessor count.
        scratch.pending.clear();
        scratch
            .pending
            .extend(self.nodes.iter().map(|n| if n.executed { 0 } else { n.pending_preds }));
        scratch.layer.clear();
        scratch.layer.extend_from_slice(&self.frontier);
        for _ in 0..k {
            if scratch.layer.is_empty() {
                break;
            }
            scratch.next.clear();
            for i in 0..scratch.layer.len() {
                let id = scratch.layer[i];
                out.push(id);
                for &s in &self.nodes[id.0].succs {
                    if self.nodes[s.0].executed {
                        continue;
                    }
                    scratch.pending[s.0] = scratch.pending[s.0].saturating_sub(1);
                    if scratch.pending[s.0] == 0 {
                        scratch.next.push(s);
                    }
                }
            }
            std::mem::swap(&mut scratch.layer, &mut scratch.next);
        }
    }

    /// Executes, in order, every frontier gate accepted by `can_execute`,
    /// repeating until no frontier gate is accepted. Returns the executed
    /// node ids in execution order.
    pub fn drain_executable(&mut self, can_execute: impl FnMut(Gate) -> bool) -> Vec<NodeId> {
        let mut scratch = Vec::new();
        let mut executed = Vec::new();
        self.drain_executable_into(can_execute, &mut scratch, &mut executed);
        executed
    }

    /// Allocation-free variant of [`DependencyDag::drain_executable`]:
    /// writes the executed node ids into `out` (cleared first, same order)
    /// using `scratch` for the per-pass candidate list, so a scheduler can
    /// reuse both buffers across its iterations instead of allocating two
    /// fresh `Vec`s per round.
    pub fn drain_executable_into(
        &mut self,
        mut can_execute: impl FnMut(Gate) -> bool,
        scratch: &mut Vec<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        loop {
            scratch.clear();
            scratch.extend(
                self.frontier.iter().copied().filter(|&id| can_execute(self.nodes[id.0].gate)),
            );
            if scratch.is_empty() {
                break;
            }
            for &id in scratch.iter() {
                // A node can leave the frontier only via execute(), and
                // executing one candidate never removes another, so this is
                // still in the frontier.
                self.execute(id);
                out.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Qubit;

    fn chain3() -> Circuit {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(1), Qubit(2));
        c.cx(Qubit(0), Qubit(2));
        c
    }

    #[test]
    fn frontier_starts_with_independent_gates() {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(2), Qubit(3));
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.frontier().len(), 2);
    }

    #[test]
    fn execute_advances_frontier_in_dependency_order() {
        let c = chain3();
        let mut dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.frontier().len(), 1);
        let n0 = dag.frontier()[0];
        assert_eq!(dag.gate(n0), Gate::Cx(Qubit(0), Qubit(1)));
        dag.execute(n0);
        let n1 = dag.frontier()[0];
        assert_eq!(dag.gate(n1), Gate::Cx(Qubit(1), Qubit(2)));
        dag.execute(n1);
        let n2 = dag.frontier()[0];
        assert_eq!(dag.gate(n2), Gate::Cx(Qubit(0), Qubit(2)));
        dag.execute(n2);
        assert!(dag.is_complete());
    }

    #[test]
    #[should_panic(expected = "must be in the frontier")]
    fn executing_non_frontier_node_panics() {
        let c = chain3();
        let mut dag = DependencyDag::from_circuit(&c);
        dag.execute(NodeId(2));
    }

    #[test]
    fn single_qubit_gates_excluded_by_default() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        assert_eq!(DependencyDag::from_circuit(&c).len(), 1);
        assert_eq!(DependencyDag::from_circuit_all_gates(&c).len(), 2);
    }

    #[test]
    fn lookahead_returns_layered_gates() {
        let c = chain3();
        let dag = DependencyDag::from_circuit(&c);
        let la1 = dag.lookahead(1);
        assert_eq!(la1.len(), 1);
        let la3 = dag.lookahead(3);
        assert_eq!(la3.len(), 3);
        assert_eq!(la3[0], Gate::Cx(Qubit(0), Qubit(1)));
    }

    #[test]
    fn drain_executable_respects_predicate() {
        let c = chain3();
        let mut dag = DependencyDag::from_circuit(&c);
        // Refuse everything: nothing executes.
        assert!(dag.drain_executable(|_| false).is_empty());
        // Accept everything: the whole chain drains in dependency order.
        let all = dag.drain_executable(|_| true);
        assert_eq!(all.len(), 3);
        assert!(dag.is_complete());
    }

    #[test]
    fn drain_executable_into_matches_allocating_variant() {
        let c = chain3();
        let mut a = DependencyDag::from_circuit(&c);
        let mut b = a.clone();
        let expected = a.drain_executable(|_| true);
        let mut scratch = Vec::new();
        let mut out = vec![NodeId(99)]; // stale content must be cleared
        b.drain_executable_into(|_| true, &mut scratch, &mut out);
        assert_eq!(out, expected);
        assert!(b.is_complete());
    }

    #[test]
    fn empty_circuit_dag() {
        let dag = DependencyDag::from_circuit(&Circuit::new(3));
        assert!(dag.is_empty());
        assert!(dag.is_complete());
        assert!(dag.frontier().is_empty());
    }

    #[test]
    fn remaining_counts_down() {
        let c = chain3();
        let mut dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.remaining(), 3);
        let id = dag.frontier()[0];
        dag.execute(id);
        assert_eq!(dag.remaining(), 2);
    }
}
