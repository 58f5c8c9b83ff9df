//! Permutation-level routing: layer-at-a-time swap/shuttle synthesis.
//!
//! Where the greedy baselines and the S-SYNC scheduler insert movement
//! per-gate, this policy treats every *blocked frontier layer* as one
//! rearrangement problem. Frontier gates of a dependency DAG touch
//! pairwise-disjoint qubits, so the layer defines a target placement
//! (every pair co-trapped and adjacent); the difference between the
//! current and target chain orders is a permutation, realised wholesale
//! by a data-independent [`SwapSchedule`](crate::SwapSchedule) comparator
//! network instead of one greedy swap at a time.
//!
//! Each blocked layer runs three phases:
//!
//! 1. **Plan** — every frontier gate picks a meeting trap minimising the
//!    Eq. 2 cost terms: weighted shuttle distance (router hops ×
//!    `shuttle_weight`), projected trap occupancy (× `inner_weight`) and
//!    a full-trap penalty, with planned occupancies threaded through so
//!    later gates see earlier reservations.
//! 2. **Shuttle** — gates realise cheapest-first: both operands move to
//!    the meeting trap through the shared placement
//!    [`Mechanics`](crate::mechanics::Mechanics) (multi-hop shuttles,
//!    cascaded space-making).
//! 3. **Reorder** — per meeting trap, spaces compact to the chain's right
//!    end, the layer-to-layer permutation (pairs adjacent, bystanders in
//!    relative order) feeds the configured
//!    [`SwapScheduleKind`](crate::SwapScheduleKind), and exactly the
//!    selected comparators are emitted as SWAP gates.
//!
//! The comparator schedule is data-independent and every sorting network
//! leaves the chain in the same target order, so the end-of-layer
//! placement is bit-identical across schedule kinds — only the SWAP-gate
//! stream differs. The `perm_route_props` battery pins that equivalence
//! against the bubble-sort oracle.

use crate::config::CompilerConfig;
use crate::driver::{BlockedRound, RoutingPolicy};
use crate::error::CompileError;
use crate::mechanics::{op_count, Mechanics};
use ssync_arch::{Placement, QccdTopology, TrapId, TrapRouter, WeightConfig};
use ssync_circuit::{DependencyDag, NodeId, Qubit};
use ssync_sim::{CompiledProgram, ScheduledOp};
use ssync_telemetry::{FlightEvent, FlightRecorder, SWAP_SCHEDULE_BUBBLE, SWAP_SCHEDULE_RECURSIVE};

/// Consecutive blocked-layer rounds that may pass without a single planned
/// gate becoming co-trapped before the compiler declares a stall.
const MAX_BARREN_ROUNDS: usize = 32;

/// Weighted cost of one intra-trap SWAP between ions `ion_distance` apart
/// in a chain of `chain_len` ions (Eq. 2's intra-trap term: longer chains
/// and wider separations cost more).
///
/// Strictly monotone in both `ion_distance` and `chain_len` — pinned by
/// the cost-monotonicity checks of the permutation-routing battery.
pub fn swap_cost(weights: WeightConfig, chain_len: usize, ion_distance: usize) -> f64 {
    weights.inner_weight * ion_distance as f64 * (1.0 + chain_len as f64)
}

/// Weighted cost of meeting a two-qubit gate in a candidate trap:
/// `hops_a`/`hops_b` router hops for the two operands (× `shuttle_weight`),
/// the trap's projected occupancy *after* both arrive (× `inner_weight`),
/// plus a `shuttle_weight`-sized penalty when the trap would fill
/// completely (Eq. 2's full-trap `Pen` term).
///
/// Strictly monotone in the hop counts and in the projected occupancy.
pub fn meeting_cost(
    weights: WeightConfig,
    hops_a: usize,
    hops_b: usize,
    occupancy_after: usize,
    capacity: usize,
) -> f64 {
    let shuttles = weights.shuttle_weight * (hops_a + hops_b) as f64;
    let congestion = weights.inner_weight * occupancy_after as f64;
    let full_penalty = if occupancy_after >= capacity { weights.shuttle_weight } else { 0.0 };
    shuttles + congestion + full_penalty
}

/// One frontier gate with its chosen meeting trap.
#[derive(Debug, Clone, Copy)]
struct PlannedGate {
    a: Qubit,
    b: Qubit,
    trap: TrapId,
    cost: f64,
}

/// The permutation-routing policy (`CompilerKind::PermRoute` in
/// `ssync-baselines`): blocked frontier layers are realised wholesale via
/// a sub-quadratic swap schedule with Eq. 2 cost-weighted swap selection.
/// That kind starts from
/// [`Start::FirstUse`](crate::initial::Start::FirstUse) with one routing
/// slot reserved per trap.
#[derive(Debug, Clone)]
pub struct PermRouter {
    config: CompilerConfig,
    barren_rounds: usize,
}

impl RoutingPolicy for PermRouter {
    const ROUNDS_PER_GATE: usize = 100;

    fn route_blocked(&mut self, step: BlockedRound<'_>) -> Result<(), CompileError> {
        let realized = self.route_layer(
            step.mechanics,
            step.placement,
            step.program,
            step.dag,
            step.round as u64,
            step.recorder,
        )?;
        if realized > 0 {
            self.barren_rounds = 0;
        } else {
            self.barren_rounds += 1;
            if self.barren_rounds > MAX_BARREN_ROUNDS {
                return Err(CompileError::SchedulingStalled {
                    remaining_gates: step.dag.remaining(),
                });
            }
        }
        Ok(())
    }
}

impl PermRouter {
    /// A policy for one compile. It reads the weights and
    /// [`CompilerConfig::perm_schedule`] of `config`.
    pub fn new(config: &CompilerConfig) -> Self {
        PermRouter { config: *config, barren_rounds: 0 }
    }

    /// Routes one blocked frontier layer: plan meeting traps, shuttle the
    /// operands in (cheapest plan first), then realise the intra-trap
    /// permutation per meeting trap through the configured swap schedule.
    /// Returns the number of planned gates whose operands ended the round
    /// co-trapped.
    fn route_layer(
        &self,
        mechanics: &Mechanics<'_>,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        dag: &DependencyDag,
        round: u64,
        mut recorder: Option<&mut FlightRecorder>,
    ) -> Result<usize, CompileError> {
        let graph = mechanics.graph();
        let router = mechanics.router();
        let topology = graph.topology();

        // Frontier gates touch pairwise-disjoint qubits; collect them in
        // frontier order (deterministic) and protect all of them from
        // space-making evictions while the layer is in flight.
        let layer: Vec<(NodeId, Qubit, Qubit)> = dag
            .frontier()
            .iter()
            .filter_map(|&id| dag.gate(id).two_qubit_pair().map(|(a, b)| (id, a, b)))
            .collect();
        let protect: Vec<Qubit> = layer.iter().flat_map(|&(_, a, b)| [a, b]).collect();

        let mut plan = self.plan_layer(&layer, placement, router, topology)?;
        // Cost-weighted selection order: realise the cheapest rearrangement
        // first so expensive moves see the freshest occupancy. Ties break
        // on frontier position via the stable sort.
        plan.sort_by(|x, y| x.cost.total_cmp(&y.cost));

        let mut realized = 0usize;
        for gate in &plan {
            // Source trap captured before the move so the shuttle event can
            // name it; the lookup only happens when the recorder is live.
            let from_trap = if recorder.is_some() { placement.trap_of(gate.a) } else { None };
            if self.shuttle_pair_to(mechanics, placement, program, gate, &protect)
                && placement.trap_of(gate.a) == placement.trap_of(gate.b)
            {
                realized += 1;
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.record(FlightEvent::CandidateChosen {
                        layer: round,
                        candidate: gate.trap.index() as u64,
                        score_bits: gate.cost.to_bits(),
                        // The layer planner keeps only the winning meeting
                        // trap per gate, so no runner-up margin exists.
                        margin_bits: f64::NAN.to_bits(),
                    });
                    if let Some(src) = from_trap {
                        if src != gate.trap {
                            rec.record(FlightEvent::Shuttle {
                                qubit: u64::from(gate.a.0),
                                from_trap: src.index() as u64,
                                to_trap: gate.trap.index() as u64,
                                junctions: router.hops(src, gate.trap) as u64,
                                source_chain_len: placement.trap_occupancy(src) as u64,
                                dest_chain_len: placement.trap_occupancy(gate.trap) as u64,
                            });
                        }
                    }
                }
            }
        }

        // Wholesale intra-trap reorder per meeting trap, ascending trap id.
        let mut traps: Vec<TrapId> = plan
            .iter()
            .filter(|g| {
                placement.trap_of(g.a).is_some() && placement.trap_of(g.a) == placement.trap_of(g.b)
            })
            .map(|g| placement.trap_of(g.a).expect("checked placed"))
            .collect();
        traps.sort_by_key(|t| t.index());
        traps.dedup();
        for trap in traps {
            let pairs: Vec<(Qubit, Qubit)> = plan
                .iter()
                .filter(|g| {
                    placement.trap_of(g.a) == Some(trap) && placement.trap_of(g.b) == Some(trap)
                })
                .map(|g| (g.a, g.b))
                .collect();
            self.reorder_trap(mechanics, placement, program, trap, &pairs, recorder.as_deref_mut());
        }
        Ok(realized)
    }

    /// Phase 1: pick a meeting trap per frontier gate by minimum
    /// [`meeting_cost`], threading planned occupancies so later gates see
    /// earlier reservations. Gates whose operands already share a trap
    /// cannot appear here (the drain loop would have executed them).
    fn plan_layer(
        &self,
        layer: &[(NodeId, Qubit, Qubit)],
        placement: &Placement,
        router: &TrapRouter,
        topology: &QccdTopology,
    ) -> Result<Vec<PlannedGate>, CompileError> {
        let weights = self.config.weights;
        let mut planned_occ: Vec<usize> =
            topology.traps().iter().map(|t| placement.trap_occupancy(t.id())).collect();
        let mut plan = Vec::with_capacity(layer.len());
        for &(_, a, b) in layer {
            let ta = placement.trap_of(a).expect("frontier qubit placed");
            let tb = placement.trap_of(b).expect("frontier qubit placed");
            // The pair leaves its current traps before entering the
            // meeting trap, so release both reservations first.
            planned_occ[ta.index()] -= 1;
            planned_occ[tb.index()] -= 1;

            let cost_of = |t: &ssync_arch::Trap| {
                let idx = t.id().index();
                let arrivals =
                    usize::from(t.id() != ta) + usize::from(t.id() != tb) + planned_occ[idx];
                // Shuttle + occupancy terms of Eq. 2, plus the expected
                // intra-trap SWAP that places the pair adjacent — priced by
                // the chain length the trap will have once both arrive.
                meeting_cost(
                    weights,
                    router.hops(ta, t.id()),
                    router.hops(tb, t.id()),
                    arrivals,
                    t.capacity(),
                ) + swap_cost(weights, arrivals, 1)
            };
            // First pass: traps that can hold the pair within planned
            // capacity. Fallback: any trap physically large enough —
            // space-making during realisation creates the room.
            let feasible = topology
                .traps()
                .iter()
                .filter(|t| {
                    let idx = t.id().index();
                    let arrivals =
                        usize::from(t.id() != ta) + usize::from(t.id() != tb) + planned_occ[idx];
                    arrivals <= t.capacity()
                })
                .min_by(|x, y| {
                    cost_of(x).total_cmp(&cost_of(y)).then(x.id().index().cmp(&y.id().index()))
                });
            let chosen = match feasible {
                Some(t) => t,
                None => topology
                    .traps()
                    .iter()
                    .filter(|t| t.capacity() >= 2)
                    .min_by(|x, y| {
                        cost_of(x).total_cmp(&cost_of(y)).then(x.id().index().cmp(&y.id().index()))
                    })
                    .ok_or(CompileError::SchedulingStalled { remaining_gates: layer.len() })?,
            };
            let cost = cost_of(chosen);
            planned_occ[chosen.id().index()] += 2;
            plan.push(PlannedGate { a, b, trap: chosen.id(), cost });
        }
        Ok(plan)
    }

    /// Phase 2: move both operands of `gate` into its meeting trap,
    /// making space ahead of each move. Returns `false` if either move
    /// failed (the gate is re-planned next round).
    fn shuttle_pair_to(
        &self,
        mechanics: &Mechanics<'_>,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        gate: &PlannedGate,
        protect: &[Qubit],
    ) -> bool {
        for q in [gate.a, gate.b] {
            if placement.trap_of(q) == Some(gate.trap) {
                continue;
            }
            if placement.trap_free_slots(gate.trap) == 0
                && !mechanics.make_space(placement, program, gate.trap, 1, protect)
            {
                return false;
            }
            if !mechanics.move_qubit_to_trap(placement, program, q, gate.trap) {
                return false;
            }
        }
        true
    }

    /// Phase 3: compact the trap's spaces to the right end, derive the
    /// layer-to-layer permutation (pairs adjacent at the earlier operand's
    /// rank, bystanders in relative order) and emit exactly the selected
    /// comparators of the configured swap schedule as SWAP gates.
    fn reorder_trap(
        &self,
        mechanics: &Mechanics<'_>,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        trap: TrapId,
        pairs: &[(Qubit, Qubit)],
        recorder: Option<&mut FlightRecorder>,
    ) {
        let graph = mechanics.graph();
        let topology = graph.topology();
        let trap_ref = topology.trap(trap);
        let occ = placement.trap_occupancy(trap);
        if occ < 2 {
            return;
        }

        // Compact: walk left to right, pulling each next ion into the
        // lowest open position so positions 0..occ hold the chain order.
        for target_pos in 0..occ {
            let slot = trap_ref.slot_at(target_pos);
            if placement.is_space(slot) {
                let src = (target_pos + 1..trap_ref.capacity())
                    .find(|&p| placement.occupant(trap_ref.slot_at(p)).is_some())
                    .expect("occupancy guarantees an ion to the right");
                placement.swap_slots(trap_ref.slot_at(src), slot);
                program.push(ScheduledOp::IonReorder { trap, steps: op_count(src - target_pos) });
            }
        }

        // Current chain order and ranks.
        let chain: Vec<Qubit> =
            (0..occ).map(|p| placement.occupant(trap_ref.slot_at(p)).expect("compacted")).collect();
        let rank_of = |q: Qubit| chain.iter().position(|&c| c == q).expect("qubit in trap");

        // Target order: each pair becomes one unit anchored at its earlier
        // operand's rank (operands ordered by rank, so the pair crosses no
        // further than it must); bystanders are single units at their own
        // rank. Units concatenate in anchor order.
        let mut units: Vec<(usize, Vec<Qubit>)> = Vec::new();
        let mut in_pair = vec![false; occ];
        for &(a, b) in pairs {
            let (ra, rb) = (rank_of(a), rank_of(b));
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            in_pair[lo] = true;
            in_pair[hi] = true;
            units.push((lo, vec![chain[lo], chain[hi]]));
        }
        for (rank, &q) in chain.iter().enumerate() {
            if !in_pair[rank] {
                units.push((rank, vec![q]));
            }
        }
        units.sort_by_key(|&(anchor, _)| anchor);
        let target: Vec<Qubit> = units.into_iter().flat_map(|(_, qs)| qs).collect();

        // permutation[rank] = target index of the ion currently at `rank`.
        let mut permutation: Vec<usize> = vec![0; occ];
        for (target_idx, &q) in target.iter().enumerate() {
            permutation[rank_of(q)] = target_idx;
        }

        let schedule = self.config.perm_schedule.permutation_to_swap_schedule(&mut permutation);
        let emitted = schedule.len() as u64;
        let mut selected_count = 0u64;
        for (selected, i, j) in schedule {
            if !selected {
                continue;
            }
            selected_count += 1;
            let (si, sj) = (trap_ref.slot_at(i), trap_ref.slot_at(j));
            let a = placement.occupant(si).expect("compacted prefix stays occupied");
            let b = placement.occupant(sj).expect("compacted prefix stays occupied");
            program.push(ScheduledOp::SwapGate {
                a,
                b,
                trap,
                chain_len: op_count(occ),
                ion_distance: op_count(j - i),
            });
            placement.swap_slots(si, sj);
        }
        if let Some(rec) = recorder {
            rec.record(FlightEvent::SwapSchedule {
                trap: trap.index() as u64,
                kind: match self.config.perm_schedule {
                    crate::SwapScheduleKind::BubbleSort => SWAP_SCHEDULE_BUBBLE,
                    crate::SwapScheduleKind::RecursiveSplitTwo => SWAP_SCHEDULE_RECURSIVE,
                },
                emitted,
                selected: selected_count,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use crate::initial::Start;
    use crate::swap_schedule::SwapScheduleKind;
    use crate::{CompileOutcome, RunReport};
    use ssync_arch::Device;
    use ssync_circuit::generators::{qft, random_two_qubit_circuit};
    use ssync_circuit::Circuit;

    /// The start `CompilerKind::PermRoute` gives this policy.
    const START: Start = Start::FirstUse { reserve: 1 };

    fn compile(
        circuit: &Circuit,
        topo: &QccdTopology,
        config: &CompilerConfig,
        flight_recorder: bool,
    ) -> (CompileOutcome, RunReport) {
        let device = Device::build(topo.clone(), config.weights);
        driver::compile(PermRouter::new(config), START, &device, circuit, config, flight_recorder)
            .unwrap()
    }

    #[test]
    fn schedules_every_gate_and_validates() {
        let circuit = qft(14);
        let topo = QccdTopology::grid(2, 2, 6);
        for kind in SwapScheduleKind::ALL {
            let config = CompilerConfig::default().with_perm_schedule(kind);
            let (outcome, _) = compile(&circuit, &topo, &config, false);
            assert_eq!(
                outcome.counts().two_qubit_gates,
                circuit.two_qubit_gate_count(),
                "{kind:?}"
            );
            outcome.final_placement().validate().unwrap();
        }
    }

    #[test]
    fn schedule_kinds_agree_on_everything_but_the_swap_stream() {
        let circuit = random_two_qubit_circuit(12, 60, 3);
        let topo = QccdTopology::grid(2, 2, 5);
        let config = CompilerConfig::default();
        let (bubble, _) = compile(
            &circuit,
            &topo,
            &config.with_perm_schedule(SwapScheduleKind::BubbleSort),
            false,
        );
        let (recursive, _) = compile(
            &circuit,
            &topo,
            &config.with_perm_schedule(SwapScheduleKind::RecursiveSplitTwo),
            false,
        );
        assert_eq!(bubble.final_placement(), recursive.final_placement());
        let strip = |ops: &[ScheduledOp]| -> Vec<ScheduledOp> {
            ops.iter().filter(|op| !matches!(op, ScheduledOp::SwapGate { .. })).copied().collect()
        };
        assert_eq!(strip(bubble.program().ops()), strip(recursive.program().ops()));
        assert_eq!(bubble.counts().shuttles, recursive.counts().shuttles);
    }

    #[test]
    fn compiles_on_a_tight_device() {
        // 15 qubits into 16 slots: one global space, every layer relies on
        // cascaded space-making.
        let circuit = random_two_qubit_circuit(15, 80, 11);
        let topo = QccdTopology::grid(2, 2, 4);
        let (outcome, _) = compile(&circuit, &topo, &CompilerConfig::default(), false);
        assert_eq!(outcome.counts().two_qubit_gates, circuit.two_qubit_gate_count());
        outcome.final_placement().validate().unwrap();
    }

    #[test]
    fn too_small_device_is_rejected() {
        let circuit = qft(12);
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::linear(2, 6), config.weights);
        let err =
            driver::compile(PermRouter::new(&config), START, &device, &circuit, &config, false)
                .unwrap_err();
        assert!(matches!(err, CompileError::DeviceTooSmall { .. }));
    }

    #[test]
    fn flight_recorder_is_observation_only() {
        let circuit = random_two_qubit_circuit(12, 60, 7);
        let topo = QccdTopology::grid(2, 2, 5);
        let config = CompilerConfig::default();
        let (plain, plain_run) = compile(&circuit, &topo, &config, false);
        let (recorded, run) = compile(&circuit, &topo, &config, true);

        // Bit-identical output: the recorder observes, it never steers.
        assert_eq!(plain.program().ops(), recorded.program().ops());
        assert_eq!(plain.final_placement(), recorded.final_placement());

        assert!(plain_run.recording.is_none(), "recorder off must not record");
        let recording = run.recording.expect("recorder on must record");
        assert!(!recording.events.is_empty());
        let mut layers = 0usize;
        let mut schedules = 0usize;
        for event in &recording.events {
            match event {
                FlightEvent::LayerOpened { .. } => layers += 1,
                FlightEvent::SwapSchedule { emitted, selected, .. } => {
                    schedules += 1;
                    assert!(selected <= emitted, "cannot select more comparators than emitted");
                }
                _ => {}
            }
        }
        assert!(layers > 0, "blocked layers must log LayerOpened events");
        assert!(schedules > 0, "trap reorders must log SwapSchedule events");
    }

    #[test]
    fn swap_cost_is_monotone() {
        let w = WeightConfig::default();
        assert!(swap_cost(w, 8, 2) > swap_cost(w, 8, 1));
        assert!(swap_cost(w, 9, 2) > swap_cost(w, 8, 2));
    }

    #[test]
    fn meeting_cost_is_monotone_and_penalises_full_traps() {
        let w = WeightConfig::default();
        assert!(meeting_cost(w, 2, 1, 4, 8) > meeting_cost(w, 1, 1, 4, 8));
        assert!(meeting_cost(w, 1, 2, 4, 8) > meeting_cost(w, 1, 1, 4, 8));
        assert!(meeting_cost(w, 1, 1, 5, 8) > meeting_cost(w, 1, 1, 4, 8));
        assert!(
            meeting_cost(w, 1, 1, 8, 8) - meeting_cost(w, 1, 1, 7, 8)
                > meeting_cost(w, 1, 1, 7, 8) - meeting_cost(w, 1, 1, 6, 8)
        );
    }
}
