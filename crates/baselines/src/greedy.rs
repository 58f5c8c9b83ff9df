//! The greedy routing policy behind the Murali, Dai and Greedy kinds.

use ssync_arch::{Device, Placement, SlotGraph, TrapRouter};
use ssync_circuit::{Circuit, Gate, Qubit};
use ssync_core::driver::{BlockedRound, RoutingPolicy};
use ssync_core::{initial, CompileError};

/// What differentiates the baselines inside the shared greedy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineStyle {
    /// Murali et al.: two reserved slots per trap, always move the first
    /// operand, serve blocked gates in DAG order.
    Murali,
    /// Dai et al.: one reserved slot per trap, move the cheaper operand,
    /// serve the cheapest blocked gate first.
    Dai,
    /// Plain greedy: no reserved routing slots (traps pack completely
    /// full), first operand moved, blocked gates served in DAG order. The
    /// simplest policy the engine can express — an ablation isolating the
    /// value of the reserved-slot headroom the published baselines keep.
    Greedy,
}

impl BaselineStyle {
    fn reserved_slots(self) -> usize {
        match self {
            BaselineStyle::Murali => 2,
            BaselineStyle::Dai => 1,
            BaselineStyle::Greedy => 0,
        }
    }
}

/// The greedy routing policy behind Murali, Dai and the plain greedy
/// ablation: qubits start in [`initial::first_use_packing`] order with the
/// style's reserved slots, and each blocked round moves one operand of
/// one frontier gate into its partner's trap through the shared placement
/// mechanics.
#[derive(Debug, Clone, Copy)]
pub struct GreedyRouter {
    style: BaselineStyle,
}

impl RoutingPolicy for GreedyRouter {
    const ROUNDS_PER_GATE: usize = 100;

    fn place(&self, device: &Device, circuit: &Circuit) -> Placement {
        initial::first_use_packing(circuit, device.topology(), self.style.reserved_slots())
    }

    fn route_blocked(&mut self, step: BlockedRound<'_>) -> Result<(), CompileError> {
        let BlockedRound { dag, placement, program, mechanics, .. } = step;
        let (graph, router) = (mechanics.graph(), mechanics.router());
        let frontier: Vec<Gate> = dag.frontier().iter().map(|&id| dag.gate(id)).collect();
        let gate = self.pick_gate(&frontier, placement, router, graph);
        let (mover, anchor) = self.pick_mover(&gate, placement, router, graph);
        let dest = placement.trap_of(anchor).expect("anchor placed");
        if placement.trap_free_slots(dest) == 0 {
            mechanics.make_space(placement, program, dest, 1, &[mover, anchor]);
        }
        let dest = placement.trap_of(anchor).expect("anchor placed");
        if !mechanics.move_qubit_to_trap(placement, program, mover, dest) {
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
    fn pick_gate(
        &self,
        frontier: &[Gate],
        placement: &Placement,
        router: &TrapRouter,
        graph: &SlotGraph,
    ) -> Gate {
        match self.style {
            BaselineStyle::Murali | BaselineStyle::Greedy => frontier[0],
            BaselineStyle::Dai => frontier
                .iter()
                .copied()
                .min_by_key(|g| self.gate_cost(g, placement, router, graph))
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
            BaselineStyle::Murali | BaselineStyle::Greedy => (a, b),
            BaselineStyle::Dai => {
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

    fn gate_cost(
        &self,
        gate: &Gate,
        placement: &Placement,
        router: &TrapRouter,
        graph: &SlotGraph,
    ) -> usize {
        let Some((a, b)) = gate.two_qubit_pair() else { return 0 };
        match (placement.trap_of(a), placement.trap_of(b)) {
            (Some(ta), Some(tb)) => {
                let _ = graph;
                router.hops(ta, tb)
            }
            _ => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::QccdTopology;
    use ssync_circuit::generators::{qft, random_two_qubit_circuit};
    use ssync_core::{driver, CompileOutcome, CompilerConfig};

    const STYLES: [BaselineStyle; 3] =
        [BaselineStyle::Murali, BaselineStyle::Dai, BaselineStyle::Greedy];

    fn compile(style: BaselineStyle, circuit: &Circuit, topo: &QccdTopology) -> CompileOutcome {
        let config = CompilerConfig::default();
        let device = Device::build(topo.clone(), config.weights);
        driver::compile(GreedyRouter::new(style), &device, circuit, &config, false).unwrap().0
    }

    fn place(style: BaselineStyle, circuit: &Circuit, topo: &QccdTopology) -> Placement {
        let device = Device::build(topo.clone(), CompilerConfig::default().weights);
        GreedyRouter::new(style).place(&device, circuit)
    }

    #[test]
    fn plain_greedy_packs_traps_full() {
        let topo = QccdTopology::linear(4, 8);
        let placement = place(BaselineStyle::Greedy, &qft(12), &topo);
        // 12 qubits into capacity-8 traps with zero reserved slots: the
        // first trap fills completely.
        assert_eq!(placement.trap_occupancy(topo.traps()[0].id()), 8);
    }

    #[test]
    fn both_styles_schedule_every_gate() {
        let circuit = qft(14);
        let topo = QccdTopology::grid(2, 2, 6);
        for style in STYLES {
            let outcome = compile(style, &circuit, &topo);
            assert_eq!(
                outcome.counts().two_qubit_gates,
                circuit.two_qubit_gate_count(),
                "{style:?}"
            );
            outcome.final_placement().validate().unwrap();
        }
    }

    #[test]
    fn murali_reserves_two_slots_per_trap() {
        let topo = QccdTopology::linear(4, 8);
        let placement = place(BaselineStyle::Murali, &qft(12), &topo);
        for trap in topo.traps() {
            assert!(placement.trap_occupancy(trap.id()) <= trap.capacity() - 2);
        }
    }

    #[test]
    fn dai_moves_the_cheaper_operand() {
        let circuit = random_two_qubit_circuit(10, 40, 9);
        let topo = QccdTopology::linear(3, 6);
        let murali = compile(BaselineStyle::Murali, &circuit, &topo);
        let dai = compile(BaselineStyle::Dai, &circuit, &topo);
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
            GreedyRouter::new(BaselineStyle::Murali),
            &device,
            &circuit,
            &config,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::DeviceTooSmall { .. }));
    }
}
