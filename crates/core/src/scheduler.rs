//! The generic-swap based shuttling scheduler (Algorithm 1 of the paper).
//!
//! Two implementations live here:
//!
//! * [`Scheduler::run`] — the optimized hot path: the compile driver's
//!   drain-and-route loop ([`crate::driver`]) with the S-SYNC routing
//!   policy, which does per-trap candidate enumeration over incrementally
//!   maintained frontier / look-ahead gate lists, a precomputed
//!   [`DistanceMatrix`], cached per-gate base scores, a per-pass readiness
//!   memo and reusable scratch buffers (the inner loop allocates nothing).
//!   S-SYNC compiles run the same policy through `driver::compile`.
//! * [`Scheduler::run_reference`] — the straightforward transcription of
//!   Algorithm 1 (global candidate enumeration, fresh collections every
//!   iteration, per-call distance recomputation). It exists as the golden
//!   reference: both entry points emit **bit-identical** programs and
//!   stats for the same inputs, which the `hot_path_equivalence`
//!   integration tests enforce and the `compile_time` benchmark exploits
//!   to measure the speedup.
//!
//! Both pick each pass's winner with `better_candidate`, a strict total
//! order on `(score, candidate index)`.

use crate::config::CompilerConfig;
use crate::driver::{self, BlockedRound, RoutingPolicy};
use crate::error::CompileError;
use crate::generic_swap::{GenericSwap, GenericSwapKind};
use crate::heuristic::{DecayTracker, HeuristicScorer, ReadinessMemo, ScoreCache, ScoringScratch};
use crate::initial;
use crate::mechanics::{op_count, Mechanics};
use ssync_arch::{
    Device, DistanceMatrix, EdgeKind, Placement, SlotEdge, SlotGraph, SlotId, TrapId, TrapRouter,
};
use ssync_circuit::{Circuit, DependencyDag, Gate, LookaheadScratch, NodeId};
use ssync_sim::{CompiledProgram, ScheduledOp};
use ssync_telemetry::{FlightEvent, FlightRecorder};
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Statistics the scheduler collects about its own search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Scheduler iterations (candidate-selection rounds).
    pub iterations: usize,
    /// Generic swaps applied through the heuristic search.
    pub heuristic_swaps: usize,
    /// Gates routed by the deterministic fallback. Not rare: one block of
    /// S-SYNC cells on the small-trap grids G-3x3 and G-2x3 routes 392
    /// gates this way over 48 cells, and 66% of its blocked rounds fall
    /// inside stall windows that end in a fallback (46% on long-chain
    /// devices; see [`CompilerConfig::max_stall_iterations`] and ROADMAP
    /// item 3).
    pub fallback_routed_gates: usize,
}

/// Counters describing the candidate-scoring work of one scheduler run.
///
/// Deliberately separate from [`SchedulerStats`]: the golden equivalence
/// tests assert stats equality between `run` and `run_reference`, while
/// these counters describe the hot path's work, wall time included (the
/// reference path reports zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringTelemetry {
    /// Candidate generic swaps (plus fallback frontier gates) scored.
    pub candidates_scored: u64,
    /// Scoring passes run: one per candidate or stall-fallback pass.
    pub scoring_passes: u64,
    /// Readiness lookups served from the per-pass [`ReadinessMemo`]
    /// instead of a chain scan: those of `prepare_pass` for the routes the
    /// score cache does not hold, those of each candidate at both chain
    /// ends of every trap whose spaces it shifts, and those of the stall
    /// fallback.
    pub readiness_memo_hits: u64,
    /// Times the per-qubit gate lists were rebuilt after the frontier
    /// went stale (lazy rebuilds, so this counts actual work done).
    pub frontier_rebuilds: u64,
    /// Times the scheduler entered the stall-fallback path (no candidate
    /// swap made progress for `max_stall_iterations` rounds).
    pub stall_fallback_entries: u64,
    /// Wall time spent inside scoring passes, in nanoseconds. Timing is
    /// observation-only and never feeds back into candidate choice, so it
    /// cannot perturb the schedule.
    pub scoring_time_ns: u64,
}

impl ScoringTelemetry {
    /// Accumulates another run's counters into `self`.
    pub fn merge(&mut self, other: &ScoringTelemetry) {
        self.candidates_scored += other.candidates_scored;
        self.scoring_passes += other.scoring_passes;
        self.readiness_memo_hits += other.readiness_memo_hits;
        self.frontier_rebuilds += other.frontier_rebuilds;
        self.stall_fallback_entries += other.stall_fallback_entries;
        self.scoring_time_ns = self.scoring_time_ns.saturating_add(other.scoring_time_ns);
    }
}

/// `true` if `(score, idx)` beats the current best under the scheduler's
/// total order: strictly lower score first (`f64::total_cmp`, so NaN
/// sorts deterministically instead of poisoning the comparison), lower
/// candidate index on exact ties. `run` and `run_reference` both select
/// with it, so a NaN score can never make the two disagree.
#[inline]
fn better_candidate(score: f64, idx: usize, best: Option<(f64, usize)>) -> bool {
    match best {
        None => true,
        Some((best_score, best_idx)) => match score.total_cmp(&best_score) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => idx < best_idx,
            std::cmp::Ordering::Greater => false,
        },
    }
}

/// Ring buffer of the most recent generic swaps (tabu list). Fixed
/// capacity, no heap traffic.
#[derive(Debug, Clone)]
struct RecentSwaps {
    buf: [(SlotId, SlotId); RECENT_CAP],
    len: usize,
    next: usize,
}

impl Default for RecentSwaps {
    fn default() -> Self {
        RecentSwaps { buf: [(SlotId(0), SlotId(0)); RECENT_CAP], len: 0, next: 0 }
    }
}

const RECENT_CAP: usize = 6;

impl RecentSwaps {
    fn push(&mut self, pair: (SlotId, SlotId)) {
        self.buf[self.next] = pair;
        self.next = (self.next + 1) % RECENT_CAP;
        self.len = (self.len + 1).min(RECENT_CAP);
    }

    fn contains(&self, a: SlotId, b: SlotId) -> bool {
        self.buf[..self.len].iter().any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
    }
}

/// The scheduler's reusable working memory: every per-iteration buffer the
/// hot path touches, extracted so a compile service worker can carry one
/// instance across many compiles (and devices) instead of reallocating it
/// per [`Scheduler`]. The contents are pure scratch — they never influence
/// the produced program, which the `service_equivalence` golden tests
/// enforce.
#[derive(Debug, Default)]
pub struct SchedulerScratch {
    frontier: Vec<(NodeId, Gate)>,
    lookahead: Vec<(NodeId, Gate)>,
    lookahead_ids: Vec<NodeId>,
    lookahead_scratch: LookaheadScratch,
    relevant_mask: Vec<bool>,
    relevant_list: Vec<TrapId>,
    candidates: Vec<GenericSwap>,
    scoring: ScoringScratch,
    /// The readiness memo every scoring pass reads through (reset at the
    /// start of each pass).
    memo: ReadinessMemo,
}

impl SchedulerScratch {
    /// Re-sizes the device-shaped buffers for a (possibly different) device
    /// and resets the cross-iteration marks, keeping every allocation.
    fn prepare(&mut self, num_traps: usize) {
        self.relevant_mask.clear();
        self.relevant_mask.resize(num_traps, false);
        self.relevant_list.clear();
    }
}

/// The generic-swap scheduler: executes every two-qubit gate of a circuit
/// on a QCCD device, inserting SWAP gates, reorders and shuttles chosen by
/// the heuristic of Eqs. (1)–(2).
#[derive(Debug)]
pub struct Scheduler<'a> {
    graph: &'a SlotGraph,
    router: &'a TrapRouter,
    config: &'a CompilerConfig,
    stats: SchedulerStats,
    telemetry: ScoringTelemetry,
    /// All-pairs slot distances, shared from the [`Device`] artifact.
    dist: &'a DistanceMatrix,
    /// Edge indices of the static graph touching each trap (either
    /// endpoint), ascending within each trap — the [`Device`]'s trap→edge
    /// candidate index.
    trap_edges: &'a [Vec<u32>],
    /// The number of intra-trap edges. The static edge order lists them
    /// first, grouped by ascending trap, and the inter-trap edges after.
    intra_edges: usize,
    /// Reusable working memory (cleared, never reallocated, per iteration).
    scratch: SchedulerScratch,
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler over a prepared [`Device`]. All per-device
    /// structures (slot graph, trap router, all-pairs [`DistanceMatrix`],
    /// trap→edge candidate index) are borrowed from the shared artifact —
    /// nothing device-derived is rebuilt here, so schedulers are cheap to
    /// create per compile and many can run concurrently over one device.
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than
    /// `config` — the precomputed distances would silently disagree with
    /// the Eq. 2 heuristic otherwise.
    pub fn new(device: &'a Device, config: &'a CompilerConfig) -> Self {
        Self::with_scratch(device, config, SchedulerScratch::default())
    }

    /// [`Scheduler::new`] reusing the working memory of a previous
    /// scheduler (recovered via [`Scheduler::into_scratch`]). The scratch
    /// may come from a run over a *different* device — the device-shaped
    /// buffers are resized here. The compile service's workers use this
    /// to compile many circuits with zero steady-state scratch allocation.
    ///
    /// # Panics
    ///
    /// Same condition as [`Scheduler::new`].
    pub fn with_scratch(
        device: &'a Device,
        config: &'a CompilerConfig,
        mut scratch: SchedulerScratch,
    ) -> Self {
        assert!(
            device.weights() == config.weights,
            "device was built with different edge weights than the scheduler config"
        );
        let graph = device.graph();
        scratch.prepare(graph.topology().num_traps());
        Scheduler {
            graph,
            router: device.router(),
            config,
            stats: SchedulerStats::default(),
            telemetry: ScoringTelemetry::default(),
            dist: device.distance_matrix(),
            trap_edges: device.trap_edge_index(),
            intra_edges: graph.edges().partition_point(|e| e.kind == EdgeKind::IntraTrap),
            scratch,
        }
    }

    /// Consumes the scheduler and hands its working memory back for reuse
    /// in a later [`Scheduler::with_scratch`].
    pub fn into_scratch(self) -> SchedulerScratch {
        self.scratch
    }

    /// Search statistics of the last run.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Scoring telemetry of the last [`Scheduler::run`]: candidates
    /// scored, scoring passes, readiness-memo hits, frontier rebuilds,
    /// stall-fallback entries and scoring time. Deliberately not part of
    /// [`SchedulerStats`] — it describes the hot path's work (wall time
    /// included), while the stats are part of the golden output contract.
    /// [`Scheduler::run_reference`] reports zeros.
    pub fn scoring_telemetry(&self) -> ScoringTelemetry {
        self.telemetry
    }

    /// The precomputed all-pairs slot distance matrix.
    pub fn distance_matrix(&self) -> &DistanceMatrix {
        self.dist
    }

    /// Runs Algorithm 1: schedules every two-qubit gate of `circuit`
    /// starting from `placement` (which must already place every program
    /// qubit), appending the generated hardware operations to a fresh
    /// [`CompiledProgram`]. This is the compile driver's routing loop with
    /// the S-SYNC policy, minus the initial placement, validation and
    /// evaluation, so output and stats are those of an S-SYNC compile.
    /// Like [`Scheduler::run_reference`] it records no flight events; a
    /// recording comes from a compile run with a recording
    /// [`crate::CompileScratch`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::SchedulingStalled`] if the iteration budget
    /// is exhausted, which indicates an internal error rather than an
    /// expected user-facing failure.
    pub fn run(
        &mut self,
        circuit: &Circuit,
        placement: Placement,
    ) -> Result<(CompiledProgram, Placement), CompileError> {
        let mechanics = Mechanics::new(self.graph, self.router);
        let routed = driver::route(
            &mut SSyncRouting::new(self, circuit),
            &mechanics,
            circuit,
            placement,
            None,
        )?;
        self.stats.iterations = routed.rounds;
        Ok((routed.program, routed.placement))
    }

    /// Rebuilds the cached frontier and look-ahead `(id, gate)` lists from
    /// the DAG. Called only when gates retired since the last rebuild.
    fn rebuild_gate_lists(&mut self, dag: &DependencyDag) {
        self.telemetry.frontier_rebuilds += 1;
        self.scratch.frontier.clear();
        self.scratch.frontier.extend(dag.frontier().iter().map(|&id| (id, dag.gate(id))));
        dag.lookahead_ids_into(
            self.config.lookahead_layers,
            &mut self.scratch.lookahead_scratch,
            &mut self.scratch.lookahead_ids,
        );
        self.scratch.lookahead.clear();
        self.scratch.lookahead.extend(
            self.scratch
                .lookahead_ids
                .iter()
                .skip(self.scratch.frontier.len())
                .map(|&id| (id, dag.gate(id))),
        );
    }

    /// Marks every trap holding a frontier-gate qubit plus every trap on
    /// the shortest route between the two operand traps of a frontier gate
    /// (the reusable-mask twin of [`Scheduler::relevant_traps_reference`]).
    fn collect_relevant_traps(&mut self, placement: &Placement) {
        for &t in &self.scratch.relevant_list {
            self.scratch.relevant_mask[t.index()] = false;
        }
        self.scratch.relevant_list.clear();
        for &(_, gate) in &self.scratch.frontier {
            let Some((a, b)) = gate.two_qubit_pair() else { continue };
            let (Some(ta), Some(tb)) = (placement.trap_of(a), placement.trap_of(b)) else {
                continue;
            };
            if ta != tb && self.router.next_hop(ta, tb).is_none() {
                continue; // unreachable pair: the reference inserts nothing
            }
            let mut cur = ta;
            let mut hops = 0usize;
            loop {
                if !self.scratch.relevant_mask[cur.index()] {
                    self.scratch.relevant_mask[cur.index()] = true;
                    self.scratch.relevant_list.push(cur);
                }
                if cur == tb || hops > self.scratch.relevant_mask.len() {
                    break;
                }
                match self.router.next_hop(cur, tb) {
                    Some(n) if n != cur => cur = n,
                    _ => break,
                }
                hops += 1;
            }
        }
    }

    /// Gathers the valid generic swaps touching a relevant trap into the
    /// reusable candidate buffer, in static-edge order (matching the
    /// reference's global enumerate-then-filter order exactly). `recent`
    /// filters out tabu pairs when given.
    fn collect_candidates(&mut self, placement: &Placement, recent: Option<&RecentSwaps>) {
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        let mut consider = |e: &SlotEdge| {
            let Some(swap) =
                GenericSwap::classify(self.graph, placement, e.a, e.b, e.kind, e.weight)
            else {
                return;
            };
            if recent.is_some_and(|recent| recent.contains(swap.a, swap.b)) {
                return;
            }
            if self.reorder_is_purposeful(placement, &swap) {
                candidates.push(swap);
            }
        };
        // Candidate order must be the static edge order for tie-breaking to
        // match the reference. That order lists the intra-trap edges
        // grouped by ascending trap, then the inter-trap edges, and each
        // trap's index entry starts with its intra-trap run. Walking the
        // relevant traps in order, then the inter-trap edges, therefore
        // visits the relevant edges in that order.
        let edges = self.graph.edges();
        let mask = &self.scratch.relevant_mask;
        for (trap_edges, _) in self.trap_edges.iter().zip(mask).filter(|&(_, &relevant)| relevant) {
            for &e in trap_edges.iter().take_while(|&&e| (e as usize) < self.intra_edges) {
                consider(&edges[e as usize]);
            }
        }
        for e in &edges[self.intra_edges..] {
            if mask[self.graph.slot_trap(e.a).index()] || mask[self.graph.slot_trap(e.b).index()] {
                consider(e);
            }
        }
        self.scratch.candidates = candidates;
    }

    /// The straightforward transcription of Algorithm 1, kept as the
    /// golden reference implementation: global candidate enumeration,
    /// fresh collections every iteration and per-call distance
    /// recomputation. Produces output bit-identical to [`Scheduler::run`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Scheduler::run`].
    pub fn run_reference(
        &mut self,
        circuit: &Circuit,
        mut placement: Placement,
    ) -> Result<(CompiledProgram, Placement), CompileError> {
        self.stats = SchedulerStats::default();
        self.telemetry = ScoringTelemetry::default();
        let mut program =
            CompiledProgram::new(circuit.num_qubits(), self.graph.topology().num_traps());
        for gate in circuit.iter() {
            if !gate.is_two_qubit() {
                let q = gate.qubits()[0];
                program.push(ScheduledOp::SingleQubitGate { qubit: q });
            }
        }

        let mut dag = DependencyDag::from_circuit(circuit);
        let mechanics = Mechanics::new(self.graph, self.router);
        let scorer = HeuristicScorer::new(self.graph, self.router, self.config);
        let mut decay = DecayTracker::new(
            circuit.num_qubits(),
            self.config.decay_delta,
            self.config.decay_reset_interval,
        );
        let mut recent_swaps: VecDeque<(SlotId, SlotId)> = VecDeque::new();
        let mut stall = 0usize;
        let budget = 10_000 + 400 * dag.len();

        while !dag.is_complete() {
            self.stats.iterations += 1;
            if self.stats.iterations > budget {
                return Err(CompileError::SchedulingStalled { remaining_gates: dag.remaining() });
            }

            let executed =
                self.execute_ready_reference(&mut dag, &mut placement, &mut program, &mechanics);
            if executed > 0 {
                stall = 0;
                continue;
            }
            if dag.is_complete() {
                break;
            }

            let frontier: Vec<Gate> = dag.frontier().iter().map(|&id| dag.gate(id)).collect();
            let lookahead: Vec<Gate> = dag
                .lookahead(self.config.lookahead_layers)
                .into_iter()
                .skip(frontier.len())
                .collect();
            let relevant = self.relevant_traps_reference(&placement, &frontier);
            let mut candidates = self.candidates_reference(&placement, &relevant, &recent_swaps);
            if candidates.is_empty() {
                candidates = self.candidates_reference(&placement, &relevant, &VecDeque::new());
            }

            let mut applied = false;
            if !candidates.is_empty() {
                // Same total order as the hot path: strict `total_cmp`
                // on the score, candidate index on ties (the enumeration
                // order is the static edge order on both paths).
                let mut best: Option<(f64, GenericSwap, usize)> = None;
                for (i, swap) in candidates.into_iter().enumerate() {
                    let score = scorer.score_swap(&placement, &decay, &frontier, &lookahead, &swap);
                    if better_candidate(score, i, best.map(|(s, _, bi)| (s, bi))) {
                        best = Some((score, swap, i));
                    }
                }
                if let Some((_, swap, _)) = best {
                    self.apply_swap(
                        &swap,
                        &mut placement,
                        &mut program,
                        &mut decay,
                        &mechanics,
                        None,
                    );
                    recent_swaps.push_back((swap.a, swap.b));
                    while recent_swaps.len() > RECENT_CAP {
                        recent_swaps.pop_front();
                    }
                    self.stats.heuristic_swaps += 1;
                    applied = true;
                }
            }

            decay.tick();
            stall += 1;
            if !applied || stall > self.config.max_stall_iterations {
                // Safety net: route the cheapest frontier gate directly,
                // under the same NaN-safe `(score, index)` total order as
                // the hot path (`min_by` with a `partial_cmp` fallback to
                // `Equal` would mis-order NaN scores).
                let mut best_gate: Option<(f64, usize)> = None;
                for (i, gate) in frontier.iter().enumerate() {
                    let score = scorer.gate_score(&placement, gate);
                    if better_candidate(score, i, best_gate) {
                        best_gate = Some((score, i));
                    }
                }
                let gate = best_gate
                    .map(|(_, i)| frontier[i])
                    .expect("frontier is non-empty while the DAG is incomplete");
                let (q1, q2) = gate.two_qubit_pair().expect("frontier gates are two-qubit");
                let dest = placement.trap_of(q2).expect("qubit placed");
                if placement.trap_free_slots(dest) == 0 {
                    mechanics.make_space(&mut placement, &mut program, dest, 1, &[q1, q2]);
                }
                let dest = placement.trap_of(q2).expect("qubit placed");
                if !mechanics.move_qubit_to_trap(&mut placement, &mut program, q1, dest) {
                    return Err(CompileError::SchedulingStalled {
                        remaining_gates: dag.remaining(),
                    });
                }
                self.stats.fallback_routed_gates += 1;
                stall = 0;
                recent_swaps.clear();
            }
        }

        Ok((program, placement))
    }

    /// The straightforward, allocating twin of the compile driver's drain
    /// used by the reference transcription: fresh `Vec`s every call via
    /// [`DependencyDag::drain_executable`].
    fn execute_ready_reference(
        &self,
        dag: &mut DependencyDag,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        mechanics: &Mechanics<'_>,
    ) -> usize {
        let placement_ref = &*placement;
        let graph = self.graph;
        let ids = dag.drain_executable(|gate| {
            let Some((a, b)) = gate.two_qubit_pair() else { return false };
            match (placement_ref.slot_of(a), placement_ref.slot_of(b)) {
                (Some(sa), Some(sb)) => graph.same_trap(sa, sb),
                _ => false,
            }
        });
        for id in &ids {
            let gate = dag.gate(*id);
            let (a, b) = gate.two_qubit_pair().expect("two-qubit gate");
            mechanics.emit_two_qubit_gate(placement, program, a, b);
        }
        ids.len()
    }

    /// Traps worth touching this round (reference implementation used by
    /// [`Scheduler::run_reference`]): every trap holding a frontier-gate
    /// qubit plus every trap on the shortest route between the two operand
    /// traps of a frontier gate.
    fn relevant_traps_reference(
        &self,
        placement: &Placement,
        frontier: &[Gate],
    ) -> HashSet<TrapId> {
        let mut relevant = HashSet::new();
        for gate in frontier {
            let Some((a, b)) = gate.two_qubit_pair() else { continue };
            let (Some(ta), Some(tb)) = (placement.trap_of(a), placement.trap_of(b)) else {
                continue;
            };
            for t in self.router.path(ta, tb) {
                relevant.insert(t);
            }
        }
        relevant
    }

    /// Valid generic swaps touching a relevant trap (reference
    /// implementation used by [`Scheduler::run_reference`]).
    fn candidates_reference(
        &self,
        placement: &Placement,
        relevant: &HashSet<TrapId>,
        recent: &VecDeque<(SlotId, SlotId)>,
    ) -> Vec<GenericSwap> {
        GenericSwap::candidates(self.graph, placement)
            .into_iter()
            .filter(|s| {
                relevant.contains(&self.graph.slot_trap(s.a))
                    || relevant.contains(&self.graph.slot_trap(s.b))
            })
            .filter(|s| {
                !recent.iter().any(|&(a, b)| (a == s.a && b == s.b) || (a == s.b && b == s.a))
            })
            .filter(|s| self.reorder_is_purposeful(placement, s))
            .collect()
    }

    /// Reorders only matter when they push either the space or the moved
    /// ion towards a chain end (a shuttle port) — anything else shuffles
    /// the interior without affecting routing. SWAP gates and shuttles are
    /// always considered.
    fn reorder_is_purposeful(&self, placement: &Placement, swap: &GenericSwap) -> bool {
        if swap.kind != GenericSwapKind::Reorder {
            return true;
        }
        // After the exchange the space sits where the qubit was and vice versa.
        let (space_slot, qubit_slot) =
            if placement.is_space(swap.a) { (swap.a, swap.b) } else { (swap.b, swap.a) };
        let trap = self.graph.topology().trap(self.graph.slot_trap(space_slot));
        let space_moves_out =
            trap.distance_to_nearest_end(qubit_slot) < trap.distance_to_nearest_end(space_slot);
        let qubit_moves_out =
            trap.distance_to_nearest_end(space_slot) < trap.distance_to_nearest_end(qubit_slot);
        space_moves_out || qubit_moves_out
    }

    /// Applies a chosen generic swap: mutates the placement, emits the
    /// corresponding hardware operation and marks the moved qubits in the
    /// decay tracker. `recorder` (the compile's flight recorder, if any;
    /// `run_reference` always passes `None`) logs executed shuttles.
    fn apply_swap(
        &self,
        swap: &GenericSwap,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        decay: &mut DecayTracker,
        mechanics: &Mechanics<'_>,
        recorder: Option<&mut FlightRecorder>,
    ) {
        for q in swap.moved_qubits(placement) {
            decay.mark(q);
        }
        match swap.kind {
            GenericSwapKind::SwapGate => {
                let a = placement.occupant(swap.a).expect("swap-gate endpoints hold qubits");
                let b = placement.occupant(swap.b).expect("swap-gate endpoints hold qubits");
                let trap = self.graph.slot_trap(swap.a);
                program.push(ScheduledOp::SwapGate {
                    a,
                    b,
                    trap,
                    chain_len: op_count(placement.trap_occupancy(trap)),
                    ion_distance: op_count(mechanics.ion_distance(placement, swap.a, swap.b)),
                });
                placement.swap_slots(swap.a, swap.b);
            }
            GenericSwapKind::Reorder => {
                let trap = self.graph.slot_trap(swap.a);
                program.push(ScheduledOp::IonReorder { trap, steps: 1 });
                placement.swap_slots(swap.a, swap.b);
            }
            GenericSwapKind::Shuttle { junctions } => {
                let (from_slot, to_slot) = if placement.occupant(swap.a).is_some() {
                    (swap.a, swap.b)
                } else {
                    (swap.b, swap.a)
                };
                let qubit = placement.occupant(from_slot).expect("shuttle moves a qubit");
                let from_trap = self.graph.slot_trap(from_slot);
                let to_trap = self.graph.slot_trap(to_slot);
                let source_chain_len = placement.trap_occupancy(from_trap);
                let dest_chain_len = placement.trap_occupancy(to_trap) + 1;
                placement.swap_slots(from_slot, to_slot);
                if let Some(rec) = recorder {
                    rec.record(FlightEvent::Shuttle {
                        qubit: qubit.0 as u64,
                        from_trap: from_trap.index() as u64,
                        to_trap: to_trap.index() as u64,
                        junctions: junctions as u64,
                        source_chain_len: source_chain_len as u64,
                        dest_chain_len: dest_chain_len as u64,
                    });
                }
                program.push(ScheduledOp::Shuttle {
                    qubit,
                    from_trap,
                    to_trap,
                    junctions,
                    segments: 1,
                    source_chain_len: op_count(source_chain_len),
                    dest_chain_len: op_count(dest_chain_len),
                });
            }
        }
    }
}

/// The S-SYNC routing policy: each blocked round applies the generic swap
/// the Eq. (1)–(2) heuristic scores cheapest, and routes the cheapest
/// frontier gate directly when no swap applies or the search stalls. It
/// borrows a [`Scheduler`] for its working memory and statistics and owns
/// the search state of one compile.
pub(crate) struct SSyncRouting<'s, 'a> {
    scheduler: &'s mut Scheduler<'a>,
    cache: ScoreCache,
    decay: DecayTracker,
    recent: RecentSwaps,
    stall: usize,
}

impl<'s, 'a> SSyncRouting<'s, 'a> {
    /// Fresh search state for compiling `circuit`; resets the scheduler's
    /// statistics and telemetry.
    pub(crate) fn new(scheduler: &'s mut Scheduler<'a>, circuit: &Circuit) -> Self {
        scheduler.stats = SchedulerStats::default();
        scheduler.telemetry = ScoringTelemetry::default();
        let config = scheduler.config;
        SSyncRouting {
            cache: ScoreCache::new(
                circuit.two_qubit_gate_count(),
                scheduler.graph.topology().num_traps(),
            ),
            decay: DecayTracker::new(
                circuit.num_qubits(),
                config.decay_delta,
                config.decay_reset_interval,
            ),
            recent: RecentSwaps::default(),
            stall: 0,
            scheduler,
        }
    }
}

impl RoutingPolicy for SSyncRouting<'_, '_> {
    const ROUNDS_PER_GATE: usize = 400;

    fn place(&self, device: &Device, circuit: &Circuit) -> Placement {
        initial::build_placement(circuit, device, self.scheduler.config)
    }

    fn route_blocked(&mut self, step: BlockedRound<'_>) -> Result<(), CompileError> {
        let BlockedRound {
            round,
            dag,
            placement,
            program,
            mechanics,
            mut recorder,
            frontier_changed,
        } = step;
        let s = &mut *self.scheduler;
        // The frontier / look-ahead gate lists only change when the DAG
        // retires gates, not when ions move; rebuild them lazily.
        if frontier_changed {
            self.stall = 0;
            s.rebuild_gate_lists(dag);
        }

        // Step 11: gather the candidate generic swaps near the frontier.
        s.collect_relevant_traps(placement);
        s.collect_candidates(placement, Some(&self.recent));
        if s.scratch.candidates.is_empty() {
            // Allow undoing recent swaps rather than stalling outright.
            s.collect_candidates(placement, None);
        }

        let scorer = HeuristicScorer::with_distance_matrix(s.graph, s.router, s.config, s.dist);
        let mut applied = false;
        if !s.scratch.candidates.is_empty() {
            // Steps 12-18: score each candidate, apply the cheapest.
            scorer.prepare_pass(
                &mut s.scratch.scoring,
                &mut self.cache,
                &mut s.scratch.memo,
                placement,
                &self.decay,
                &s.scratch.frontier,
                &s.scratch.lookahead,
            );
            let pass_started = Instant::now();
            // The runner-up score is tracked only while the recorder is
            // on (it feeds the CandidateChosen margin and nothing else).
            let track_margin = recorder.is_some();
            let mut second: Option<f64> = None;
            let mut best: Option<(f64, usize)> = None;
            for (i, swap) in s.scratch.candidates.iter().enumerate() {
                let score = scorer.score_swap_memo(
                    &s.scratch.scoring,
                    &mut s.scratch.memo,
                    placement,
                    swap,
                );
                if better_candidate(score, i, best) {
                    if track_margin {
                        second = best.map(|(s, _)| s);
                    }
                    best = Some((score, i));
                } else if track_margin {
                    second = Some(match second {
                        Some(s2) if s2.total_cmp(&score).is_le() => s2,
                        _ => score,
                    });
                }
            }
            s.telemetry.candidates_scored += s.scratch.candidates.len() as u64;
            s.telemetry.scoring_passes += 1;
            s.telemetry.readiness_memo_hits += s.scratch.memo.take_hits();
            s.telemetry.scoring_time_ns += pass_started.elapsed().as_nanos() as u64;
            if let Some((score, idx)) = best {
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.record(FlightEvent::CandidateChosen {
                        layer: round as u64,
                        candidate: idx as u64,
                        score_bits: score.to_bits(),
                        margin_bits: second
                            .map(|s| (s - score).to_bits())
                            .unwrap_or_else(|| f64::NAN.to_bits()),
                    });
                }
                let swap = s.scratch.candidates[idx];
                s.apply_swap(
                    &swap,
                    placement,
                    program,
                    &mut self.decay,
                    mechanics,
                    recorder.as_deref_mut(),
                );
                bump_swap_epochs(&mut self.cache, s.graph, &swap);
                self.recent.push((swap.a, swap.b));
                s.stats.heuristic_swaps += 1;
                applied = true;
            }
        }

        self.decay.tick();
        self.stall += 1;
        if !applied || self.stall > s.config.max_stall_iterations {
            // Safety net: route the cheapest frontier gate directly,
            // scoring each frontier gate exactly once through the
            // readiness memo (gates routing through a shared entry
            // port reuse its readiness scan).
            s.telemetry.stall_fallback_entries += 1;
            if let Some(rec) = recorder {
                rec.record(FlightEvent::StallFallback {
                    layer: round as u64,
                    remaining: dag.remaining() as u64,
                });
            }
            let pass_started = Instant::now();
            s.scratch.memo.begin_pass();
            let mut best_gate: Option<(f64, usize)> = None;
            for (i, (_, gate)) in s.scratch.frontier.iter().enumerate() {
                let score = scorer.gate_score_memo(&mut s.scratch.memo, placement, gate);
                if better_candidate(score, i, best_gate) {
                    best_gate = Some((score, i));
                }
            }
            s.telemetry.candidates_scored += s.scratch.frontier.len() as u64;
            s.telemetry.scoring_passes += 1;
            s.telemetry.readiness_memo_hits += s.scratch.memo.take_hits();
            s.telemetry.scoring_time_ns += pass_started.elapsed().as_nanos() as u64;
            let gate = best_gate
                .map(|(_, i)| s.scratch.frontier[i].1)
                .expect("frontier is non-empty while the DAG is incomplete");
            let (q1, q2) = gate.two_qubit_pair().expect("frontier gates are two-qubit");
            let dest = placement.trap_of(q2).expect("qubit placed");
            if placement.trap_free_slots(dest) == 0 {
                mechanics.make_space(placement, program, dest, 1, &[q1, q2]);
            }
            let dest = placement.trap_of(q2).expect("qubit placed");
            if !mechanics.move_qubit_to_trap(placement, program, q1, dest) {
                return Err(CompileError::SchedulingStalled { remaining_gates: dag.remaining() });
            }
            s.stats.fallback_routed_gates += 1;
            self.stall = 0;
            self.recent.clear();
            // The fallback reshuffles ions arbitrarily: drop every
            // cached base score.
            self.cache.bump_all();
        }
        Ok(())
    }

    fn stats(&self, rounds: usize) -> (SchedulerStats, ScoringTelemetry) {
        let stats = SchedulerStats { iterations: rounds, ..self.scheduler.stats };
        (stats, self.scheduler.telemetry)
    }
}

/// Bumps the score cache's trap epochs after `swap` was applied: reorders
/// and shuttles change which slots of their trap(s) are occupied; SWAP
/// gates exchange two ions between occupied slots and leave the occupancy
/// pattern untouched.
fn bump_swap_epochs(cache: &mut ScoreCache, graph: &SlotGraph, swap: &GenericSwap) {
    match swap.kind {
        GenericSwapKind::SwapGate => {}
        GenericSwapKind::Reorder => cache.bump_trap(graph.slot_trap(swap.a)),
        GenericSwapKind::Shuttle { .. } => {
            cache.bump_trap(graph.slot_trap(swap.a));
            cache.bump_trap(graph.slot_trap(swap.b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial;
    use ssync_arch::QccdTopology;
    use ssync_circuit::generators::{qft, random_two_qubit_circuit};
    use ssync_circuit::Qubit;

    fn compile(
        circuit: &Circuit,
        topo: &QccdTopology,
        config: &CompilerConfig,
    ) -> (CompiledProgram, SchedulerStats) {
        let device = Device::build(topo.clone(), config.weights);
        let placement = initial::build_placement(circuit, &device, config);
        let mut scheduler = Scheduler::new(&device, config);
        let (program, final_placement) = scheduler.run(circuit, placement).unwrap();
        final_placement.validate().unwrap();
        (program, scheduler.stats())
    }

    #[test]
    fn all_gates_of_a_small_circuit_are_scheduled() {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(2), Qubit(3));
        c.cx(Qubit(1), Qubit(2));
        c.cx(Qubit(0), Qubit(3));
        let topo = QccdTopology::linear(2, 3);
        let (program, _) = compile(&c, &topo, &CompilerConfig::default());
        assert_eq!(program.counts().two_qubit_gates, 4);
    }

    #[test]
    fn colocated_circuit_needs_no_shuttles() {
        let mut c = Circuit::new(4);
        for i in 0..3u32 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        // Everything fits into a single trap under the gathering mapping.
        let topo = QccdTopology::linear(2, 6);
        let (program, _) = compile(&c, &topo, &CompilerConfig::default());
        assert_eq!(program.counts().shuttles, 0);
        assert_eq!(program.counts().two_qubit_gates, 3);
    }

    #[test]
    fn cross_trap_gate_forces_exactly_one_shuttle() {
        let mut c = Circuit::new(2);
        c.cx(Qubit(0), Qubit(1));
        let topo = QccdTopology::linear(2, 3);
        let config = CompilerConfig::default()
            .with_initial_mapping(crate::config::InitialMapping::EvenDivided);
        let (program, _) = compile(&c, &topo, &config);
        assert_eq!(program.counts().two_qubit_gates, 1);
        assert_eq!(program.counts().shuttles, 1);
    }

    #[test]
    fn qft_schedules_completely_on_every_topology() {
        let circuit = qft(10);
        for topo in [
            QccdTopology::linear(2, 8),
            QccdTopology::grid(2, 2, 5),
            QccdTopology::fully_connected(3, 6),
        ] {
            let (program, _) = compile(&circuit, &topo, &CompilerConfig::default());
            assert_eq!(
                program.counts().two_qubit_gates,
                circuit.two_qubit_gate_count(),
                "{}",
                topo.name()
            );
        }
    }

    #[test]
    fn random_circuits_schedule_on_tight_devices() {
        for seed in 0..5u64 {
            let circuit = random_two_qubit_circuit(12, 60, seed);
            let topo = QccdTopology::grid(2, 2, 4); // 16 slots for 12 qubits
            let (program, _) = compile(&circuit, &topo, &CompilerConfig::default());
            assert_eq!(program.counts().two_qubit_gates, 60, "seed {seed}");
        }
    }

    #[test]
    fn single_qubit_gates_are_preserved() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.h(Qubit(1));
        c.cx(Qubit(0), Qubit(2));
        let topo = QccdTopology::linear(2, 3);
        let (program, _) = compile(&c, &topo, &CompilerConfig::default());
        assert_eq!(program.counts().single_qubit_gates, 2);
    }

    #[test]
    fn heuristic_handles_most_routing_without_fallback() {
        let circuit = qft(16);
        let topo = QccdTopology::grid(2, 2, 6);
        let (_, stats) = compile(&circuit, &topo, &CompilerConfig::default());
        assert!(stats.heuristic_swaps > 0);
        // The fallback is a safety net; the heuristic should carry the bulk.
        assert!(
            stats.fallback_routed_gates * 10 <= circuit.two_qubit_gate_count(),
            "fallback used too often: {} of {} gates",
            stats.fallback_routed_gates,
            circuit.two_qubit_gate_count()
        );
    }

    #[test]
    fn scheduler_reports_stats() {
        let circuit = qft(8);
        let topo = QccdTopology::linear(2, 6);
        let (_, stats) = compile(&circuit, &topo, &CompilerConfig::default());
        assert!(stats.iterations > 0);
    }

    #[test]
    fn optimized_and_reference_runs_are_bit_identical() {
        let config = CompilerConfig::default();
        for (circuit, topo) in [
            (qft(12), QccdTopology::grid(2, 2, 5)),
            (random_two_qubit_circuit(10, 80, 3), QccdTopology::linear(3, 5)),
        ] {
            let device = Device::build(topo.clone(), config.weights);
            let placement = initial::build_placement(&circuit, &device, &config);
            let mut scheduler = Scheduler::new(&device, &config);
            let (fast, fast_placement) = scheduler.run(&circuit, placement.clone()).unwrap();
            let fast_stats = scheduler.stats();
            let (slow, slow_placement) = scheduler.run_reference(&circuit, placement).unwrap();
            let slow_stats = scheduler.stats();
            assert_eq!(fast.ops(), slow.ops(), "{}", topo.name());
            assert_eq!(fast_stats, slow_stats, "{}", topo.name());
            assert_eq!(fast_placement, slow_placement, "{}", topo.name());
        }
    }

    #[test]
    fn flight_recorder_is_observation_only() {
        let circuit = qft(12);
        let topo = QccdTopology::grid(2, 2, 5);
        let config = CompilerConfig::default();
        let device = Device::build(topo, config.weights);
        let compiler = crate::SSyncCompiler::new(config);
        let compile = |recorder: bool| {
            let mut scratch = crate::CompileScratch::new(recorder);
            compiler.compile_on_with_scratch(&device, &circuit, &mut scratch).unwrap()
        };

        let (base, base_run) = compile(false);
        assert!(base_run.recording.is_none(), "recorder off records nothing");
        let (recorded, run) = compile(true);
        assert_eq!(base.program().ops(), recorded.program().ops(), "recorder changed output");
        assert_eq!(base.final_placement(), recorded.final_placement());
        assert_eq!(base.scheduler_stats(), recorded.scheduler_stats());
        let stream = run.recording.expect("recorder on yields a recording");
        assert!(!stream.events.is_empty());
        assert!(stream.events.iter().any(|e| matches!(e, FlightEvent::LayerClosed { .. })));
        // Every winner carries a real runner-up margin: never negative,
        // NaN only for a pass with a single candidate.
        let margins: Vec<f64> = stream
            .events
            .iter()
            .filter_map(|e| match e {
                FlightEvent::CandidateChosen { margin_bits, .. } => {
                    Some(f64::from_bits(*margin_bits))
                }
                _ => None,
            })
            .collect();
        assert!(!margins.is_empty(), "the scheduler chose candidates");
        assert!(margins.iter().all(|m| m.is_nan() || *m >= 0.0), "negative margin: {margins:?}");
        assert!(margins.iter().any(|m| m.is_finite()), "no pass recorded a finite margin");

        // The scheduler's own entry points emit the same program.
        let placement = initial::build_placement(&circuit, &device, &config);
        let mut scheduler = Scheduler::new(&device, &config);
        let (run_program, _) = scheduler.run(&circuit, placement.clone()).unwrap();
        let (ref_program, _) = scheduler.run_reference(&circuit, placement).unwrap();
        assert_eq!(recorded.program().ops(), run_program.ops());
        assert_eq!(recorded.program().ops(), ref_program.ops());
    }

    #[test]
    fn better_candidate_orders_by_score_then_index() {
        assert!(better_candidate(1.0, 5, None));
        assert!(better_candidate(1.0, 5, Some((2.0, 0))));
        assert!(!better_candidate(2.0, 0, Some((1.0, 5))));
        // Exact tie: the lower candidate index wins.
        assert!(better_candidate(1.0, 2, Some((1.0, 3))));
        assert!(!better_candidate(1.0, 3, Some((1.0, 2))));
    }

    #[test]
    fn better_candidate_is_nan_safe() {
        // NaN sorts above every real score under total_cmp: a NaN
        // candidate never displaces a finite one, and two NaNs tie by
        // index — no unwrap, no order-dependence.
        assert!(!better_candidate(f64::NAN, 0, Some((1.0, 5))));
        assert!(better_candidate(1.0, 5, Some((f64::NAN, 0))));
        assert!(better_candidate(f64::NAN, 1, Some((f64::NAN, 2))));
        assert!(better_candidate(f64::INFINITY, 1, Some((f64::NAN, 0))));
    }

    #[test]
    fn scheduler_scratch_is_reusable_across_runs() {
        let config = CompilerConfig::default();
        let topo = QccdTopology::grid(2, 2, 5);
        let device = Device::build(topo, config.weights);
        let mut scheduler = Scheduler::new(&device, &config);
        let circuit = qft(10);
        let placement = initial::build_placement(&circuit, &device, &config);
        let (first, _) = scheduler.run(&circuit, placement.clone()).unwrap();
        let (second, _) = scheduler.run(&circuit, placement).unwrap();
        assert_eq!(first.ops(), second.ops());
    }

    #[test]
    fn recovered_scratch_is_reusable_across_different_devices() {
        // A worker's scratch hops between devices of different sizes; the
        // output on each must match a fresh-scratch scheduler exactly.
        let config = CompilerConfig::default();
        let circuit = qft(10);
        let mut scratch = SchedulerScratch::default();
        for topo in
            [QccdTopology::grid(2, 2, 5), QccdTopology::linear(2, 8), QccdTopology::grid(3, 3, 4)]
        {
            let device = Device::build(topo.clone(), config.weights);
            let placement = initial::build_placement(&circuit, &device, &config);
            let (fresh, _) =
                Scheduler::new(&device, &config).run(&circuit, placement.clone()).unwrap();
            let mut scheduler = Scheduler::with_scratch(&device, &config, scratch);
            let (reused, _) = scheduler.run(&circuit, placement).unwrap();
            scratch = scheduler.into_scratch();
            assert_eq!(fresh.ops(), reused.ops(), "{}", topo.name());
        }
    }
}
