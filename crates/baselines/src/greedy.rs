//! The greedy routing policy behind the Murali, Dai and Greedy kinds.
//!
//! Each blocked round moves one operand of one frontier gate into its
//! partner's trap ([`Mechanics::route_directly`]). The kinds differ only in
//! which gate and which operand they pick ([`BaselineStyle`]) and in how
//! many routing slots their first-use start reserves per trap, which
//! [`crate::CompilerKind`] names beside the style.
//!
//! [`Mechanics::route_directly`]: ssync_core::mechanics::Mechanics::route_directly

use ssync_arch::{Placement, SlotGraph, TrapRouter};
use ssync_circuit::{Gate, Qubit};
use ssync_core::driver::{BlockedRound, RoutingPolicy};
use ssync_core::CompileError;

/// Which blocked gate the greedy policy serves and which operand it moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineStyle {
    /// Murali et al. and the plain greedy ablation: serve the blocked
    /// gates in DAG order and move each gate's first operand.
    FirstInOrder,
    /// Dai et al.: serve the blocked gate whose operands are the fewest
    /// trap hops apart, and move its cheaper operand (fewer hops, closer
    /// to a chain end, emptier destination).
    CostAware,
}

/// The greedy routing policy behind Murali, Dai and the plain greedy
/// ablation, in one [`BaselineStyle`].
#[derive(Debug, Clone, Copy)]
pub struct GreedyRouter {
    style: BaselineStyle,
}

impl RoutingPolicy for GreedyRouter {
    const ROUNDS_PER_GATE: usize = 100;

    fn route_blocked(&mut self, step: BlockedRound<'_>) -> Result<(), CompileError> {
        let BlockedRound { dag, placement, program, mechanics, .. } = step;
        let (graph, router) = (mechanics.graph(), mechanics.router());
        let frontier: Vec<Gate> = dag.frontier().iter().map(|&id| dag.gate(id)).collect();
        let gate = self.pick_gate(&frontier, placement, router);
        let (mover, anchor) = self.pick_mover(&gate, placement, router, graph);
        if !mechanics.route_directly(placement, program, mover, anchor) {
            return Err(CompileError::SchedulingStalled { remaining_gates: dag.remaining() });
        }
        Ok(())
    }
}

impl GreedyRouter {
    /// A policy with the given style.
    pub fn new(style: BaselineStyle) -> Self {
        GreedyRouter { style }
    }

    /// Which blocked gate to serve next.
    fn pick_gate(&self, frontier: &[Gate], placement: &Placement, router: &TrapRouter) -> Gate {
        match self.style {
            BaselineStyle::FirstInOrder => frontier[0],
            BaselineStyle::CostAware => frontier
                .iter()
                .copied()
                .min_by_key(|g| Self::gate_cost(g, placement, router))
                .unwrap_or(frontier[0]),
        }
    }

    /// Which operand to move.
    fn pick_mover(
        &self,
        gate: &Gate,
        placement: &Placement,
        router: &TrapRouter,
        graph: &SlotGraph,
    ) -> (Qubit, Qubit) {
        let (a, b) = gate.two_qubit_pair().expect("frontier gates are two-qubit");
        match self.style {
            BaselineStyle::FirstInOrder => (a, b),
            BaselineStyle::CostAware => {
                let cost = |mover: Qubit, anchor: Qubit| -> usize {
                    let (Some(sm), Some(ta), Some(tb)) = (
                        placement.slot_of(mover),
                        placement.trap_of(mover),
                        placement.trap_of(anchor),
                    ) else {
                        return usize::MAX;
                    };
                    let trap = graph.topology().trap(ta);
                    let hops = router.hops(ta, tb);
                    let to_edge = trap.distance_to_nearest_end(sm);
                    let dest_pressure =
                        graph.topology().trap(tb).capacity() - placement.trap_free_slots(tb);
                    hops * 100 + to_edge * 10 + dest_pressure
                };
                if cost(a, b) <= cost(b, a) {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        }
    }

    /// Trap hops between the operands of `gate`.
    fn gate_cost(gate: &Gate, placement: &Placement, router: &TrapRouter) -> usize {
        let Some((a, b)) = gate.two_qubit_pair() else { return 0 };
        match (placement.trap_of(a), placement.trap_of(b)) {
            (Some(ta), Some(tb)) => router.hops(ta, tb),
            _ => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompilerKind;
    use ssync_arch::{Device, QccdTopology};
    use ssync_circuit::generators::{qft, random_two_qubit_circuit};
    use ssync_circuit::Circuit;
    use ssync_core::initial::Start;
    use ssync_core::{driver, CompileOutcome, CompilerConfig};

    const GREEDY_KINDS: [CompilerKind; 3] =
        [CompilerKind::Murali, CompilerKind::Dai, CompilerKind::Greedy];

    fn compile(kind: CompilerKind, circuit: &Circuit, topo: &QccdTopology) -> CompileOutcome {
        let config = CompilerConfig::default();
        let device = Device::build(topo.clone(), config.weights);
        kind.compile_on(&device, circuit, &config).unwrap()
    }

    /// Where `kind` starts `qubits` qubits: a circuit without two-qubit
    /// gates never routes, so its final placement is its start.
    fn start(kind: CompilerKind, qubits: usize, topo: &QccdTopology) -> Placement {
        let mut circuit = Circuit::new(qubits);
        for q in 0..qubits as u32 {
            circuit.h(Qubit(q));
        }
        compile(kind, &circuit, topo).final_placement().clone()
    }

    #[test]
    fn plain_greedy_packs_traps_full() {
        let topo = QccdTopology::linear(4, 8);
        let placement = start(CompilerKind::Greedy, 12, &topo);
        // 12 qubits into capacity-8 traps with zero reserved slots: the
        // first trap fills completely.
        assert_eq!(placement.trap_occupancy(topo.traps()[0].id()), 8);
    }

    #[test]
    fn both_styles_schedule_every_gate() {
        let circuit = qft(14);
        let topo = QccdTopology::grid(2, 2, 6);
        for kind in GREEDY_KINDS {
            let outcome = compile(kind, &circuit, &topo);
            assert_eq!(
                outcome.counts().two_qubit_gates,
                circuit.two_qubit_gate_count(),
                "{kind:?}"
            );
            outcome.final_placement().validate().unwrap();
        }
    }

    #[test]
    fn murali_reserves_two_slots_per_trap() {
        let topo = QccdTopology::linear(4, 8);
        let placement = start(CompilerKind::Murali, 12, &topo);
        for trap in topo.traps() {
            assert!(placement.trap_occupancy(trap.id()) <= trap.capacity() - 2);
        }
    }

    #[test]
    fn dai_moves_the_cheaper_operand() {
        let circuit = random_two_qubit_circuit(10, 40, 9);
        let topo = QccdTopology::linear(3, 6);
        let murali = compile(CompilerKind::Murali, &circuit, &topo);
        let dai = compile(CompilerKind::Dai, &circuit, &topo);
        // Dai's cost-aware mover choice should not need more shuttles than
        // the always-move-first policy on the same workload.
        assert!(dai.counts().shuttles <= murali.counts().shuttles + 5);
    }

    #[test]
    fn too_small_device_is_rejected() {
        let circuit = qft(12);
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::linear(2, 6), config.weights);
        let err = driver::compile(
            GreedyRouter::new(BaselineStyle::FirstInOrder),
            Start::FirstUse { reserve: 2 },
            &device,
            &circuit,
            &config,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::DeviceTooSmall { .. }));
    }
}
