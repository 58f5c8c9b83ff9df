//! The heuristic cost function of Sec. 3.3 (Eqs. 1–2) and the decay
//! tracker that spreads generic swaps across qubits.

use crate::config::CompilerConfig;
use crate::generic_swap::{GenericSwap, GenericSwapKind};
use ssync_arch::{DistanceMatrix, Placement, SlotGraph, SlotId, TrapId, TrapRouter};
use ssync_circuit::{Gate, NodeId, Qubit};

/// Tracks, per program qubit, how recently it was involved in a generic
/// swap. A gate whose qubit moved within the last `reset_interval`
/// scheduler iterations gets its score inflated by `1 + δ`, discouraging
/// the scheduler from repeatedly serving the same gate (Eq. 1).
#[derive(Debug, Clone)]
pub struct DecayTracker {
    delta: f64,
    reset_interval: usize,
    last_involved: Vec<Option<usize>>,
    iteration: usize,
}

impl DecayTracker {
    /// Creates a tracker for `num_qubits` qubits.
    pub fn new(num_qubits: usize, delta: f64, reset_interval: usize) -> Self {
        DecayTracker {
            delta,
            reset_interval: reset_interval.max(1),
            last_involved: vec![None; num_qubits],
            iteration: 0,
        }
    }

    /// Advances the scheduler-iteration counter.
    pub fn tick(&mut self) {
        self.iteration += 1;
    }

    /// Records that `qubit` took part in a generic swap this iteration.
    pub fn mark(&mut self, qubit: Qubit) {
        if let Some(slot) = self.last_involved.get_mut(qubit.index()) {
            *slot = Some(self.iteration);
        }
    }

    /// The decay factor of a single qubit (`1 + δ` if recently moved).
    pub fn factor(&self, qubit: Qubit) -> f64 {
        match self.last_involved.get(qubit.index()).copied().flatten() {
            Some(it) if self.iteration.saturating_sub(it) < self.reset_interval => 1.0 + self.delta,
            _ => 1.0,
        }
    }

    /// The decay factor of a gate: `1 + δ` if either operand moved recently.
    pub fn gate_factor(&self, gate: &Gate) -> f64 {
        gate.qubits().iter().map(|&q| self.factor(q)).fold(1.0f64, f64::max)
    }

    /// Current iteration counter (for introspection/tests).
    pub fn iteration(&self) -> usize {
        self.iteration
    }
}

/// Evaluates the heuristic of Eqs. (1)–(2) for candidate generic swaps.
///
/// `score(g) = dis(π(g.q1) → … → π(g.q2)) + Pen`, where `dis` accumulates
/// intra-trap inner weights and inter-trap shuttle weights along the
/// cheapest route, and `Pen` counts traps left without a free space.
/// `H(swap) = min_g decay(g)·score(g) + w(swap)` over the frontier gates.
#[derive(Debug)]
pub struct HeuristicScorer<'a> {
    graph: &'a SlotGraph,
    router: &'a TrapRouter,
    config: &'a CompilerConfig,
    dist: Option<&'a DistanceMatrix>,
}

impl<'a> HeuristicScorer<'a> {
    /// Creates a scorer over a device graph and its trap router. Distances
    /// are derived on the fly; prefer
    /// [`HeuristicScorer::with_distance_matrix`] on any hot path.
    pub fn new(graph: &'a SlotGraph, router: &'a TrapRouter, config: &'a CompilerConfig) -> Self {
        HeuristicScorer { graph, router, config, dist: None }
    }

    /// Creates a scorer that reads slot distances from a precomputed
    /// [`DistanceMatrix`] instead of chaining router/port lookups per call.
    /// The matrix holds exactly the values [`HeuristicScorer::slot_distance`]
    /// would compute, so scores are bit-identical either way.
    pub fn with_distance_matrix(
        graph: &'a SlotGraph,
        router: &'a TrapRouter,
        config: &'a CompilerConfig,
        dist: &'a DistanceMatrix,
    ) -> Self {
        HeuristicScorer { graph, router, config, dist: Some(dist) }
    }

    /// The routing distance between two slots: inner-weight steps to reach
    /// the exit port, shuttle weights across traps, inner-weight steps from
    /// the entry port (Eq. 2's `dis` term under the static formulation).
    pub fn slot_distance(&self, a: SlotId, b: SlotId) -> f64 {
        if let Some(dist) = self.dist {
            return dist.get(a, b);
        }
        let inner = self.config.weights.inner_weight;
        let ta = self.graph.slot_trap(a);
        let tb = self.graph.slot_trap(b);
        if ta == tb {
            return inner * self.graph.intra_trap_distance(a, b) as f64;
        }
        let exit_towards = self.router.next_hop(ta, tb).unwrap_or(tb);
        let exit_slot = self.graph.topology().port_slot(ta, exit_towards);
        let entry_from = self.router.next_hop(tb, ta).unwrap_or(ta);
        let entry_slot = self.graph.topology().port_slot(tb, entry_from);
        inner * self.graph.intra_trap_distance(a, exit_slot) as f64
            + self.router.distance(ta, tb)
            + inner * self.graph.intra_trap_distance(entry_slot, b) as f64
    }

    /// Chain-position distance from the nearest space node of `trap` to the
    /// slot `port`, optionally pretending `swap` has been applied. Returns
    /// the trap capacity when the trap has no space at all. This is the
    /// "shuttle readiness" term: the route physically needs an empty port
    /// on the receiving side.
    fn space_readiness(
        &self,
        placement: &Placement,
        swap: Option<&GenericSwap>,
        port: SlotId,
    ) -> f64 {
        let trap = self.graph.slot_trap(port);
        let port_pos = self.graph.slot_position(port);
        let trap_ref = self.graph.topology().trap(trap);
        let mut best: Option<usize> = None;
        // Iterate chain positions directly (trap slots are contiguous), so
        // the readiness scan allocates nothing.
        for pos in 0..trap_ref.capacity() {
            let s = trap_ref.slot_at(pos);
            let occupied = match swap {
                Some(sw) if s == sw.a => placement.occupant(sw.b).is_some(),
                Some(sw) if s == sw.b => placement.occupant(sw.a).is_some(),
                _ => placement.occupant(s).is_some(),
            };
            if !occupied {
                let d = pos.abs_diff(port_pos);
                best = Some(best.map_or(d, |b| b.min(d)));
            }
        }
        best.unwrap_or(trap_ref.capacity()) as f64
    }

    /// Route score of a qubit pair at slots `s1`, `s2`, optionally after a
    /// hypothetical swap: the weighted distance of Eq. (2) plus, when the
    /// qubits are in different traps, the readiness of the next-hop entry
    /// ports (an empty slot must be available at the receiving chain end).
    fn pair_route_score(
        &self,
        placement: &Placement,
        swap: Option<&GenericSwap>,
        s1: SlotId,
        s2: SlotId,
    ) -> f64 {
        let inner = self.config.weights.inner_weight;
        let mut score = self.slot_distance(s1, s2);
        let ta = self.graph.slot_trap(s1);
        let tb = self.graph.slot_trap(s2);
        if ta != tb {
            let mut readiness = f64::INFINITY;
            if let Some(next) = self.router.next_hop(ta, tb) {
                let entry = self.graph.topology().port_slot(next, ta);
                readiness = readiness.min(self.space_readiness(placement, swap, entry));
            }
            if let Some(next) = self.router.next_hop(tb, ta) {
                let entry = self.graph.topology().port_slot(next, tb);
                readiness = readiness.min(self.space_readiness(placement, swap, entry));
            }
            if readiness.is_finite() {
                score += inner * readiness;
            }
        }
        score
    }

    /// The score of a single gate under the current placement (Eq. 2):
    /// routing distance plus the full-trap penalty.
    pub fn gate_score(&self, placement: &Placement, gate: &Gate) -> f64 {
        let Some((q1, q2)) = gate.two_qubit_pair() else {
            return 0.0;
        };
        let (Some(s1), Some(s2)) = (placement.slot_of(q1), placement.slot_of(q2)) else {
            return f64::INFINITY;
        };
        self.pair_route_score(placement, None, s1, s2) + placement.full_trap_count() as f64
    }

    /// The slots of the gate's qubits after hypothetically applying `swap`.
    fn slots_after(
        &self,
        placement: &Placement,
        gate: &Gate,
        swap: &GenericSwap,
    ) -> Option<(SlotId, SlotId)> {
        let (q1, q2) = gate.two_qubit_pair()?;
        let (s1, s2) = (placement.slot_of(q1)?, placement.slot_of(q2)?);
        let occ_a = placement.occupant(swap.a);
        let occ_b = placement.occupant(swap.b);
        Some(slots_after_swap(q1, q2, s1, s2, swap, occ_a, occ_b))
    }

    /// The score of `gate` if `swap` were applied (no placement mutation:
    /// the swap only relocates the occupants of its two endpoints and can
    /// only change the full-trap penalty when it is a shuttle).
    pub fn gate_score_after(&self, placement: &Placement, gate: &Gate, swap: &GenericSwap) -> f64 {
        let Some((s1, s2)) = self.slots_after(placement, gate, swap) else {
            return if gate.two_qubit_pair().is_none() { 0.0 } else { f64::INFINITY };
        };
        self.pair_route_score(placement, Some(swap), s1, s2)
            + self.penalty_after(placement, swap) as f64
    }

    /// `true` if applying `swap` would let `gate` execute immediately (its
    /// qubits end up in the same trap).
    pub fn makes_executable(&self, placement: &Placement, gate: &Gate, swap: &GenericSwap) -> bool {
        match self.slots_after(placement, gate, swap) {
            Some((s1, s2)) => self.graph.same_trap(s1, s2),
            None => false,
        }
    }

    /// The full-trap penalty after hypothetically applying `swap`.
    pub fn penalty_after(&self, placement: &Placement, swap: &GenericSwap) -> usize {
        self.penalty_with(placement, swap, placement.full_trap_count())
    }

    /// The full heuristic `H(swap)` of Eq. (1) over the given frontier
    /// gates. Lower is better. Returns `w(swap)` alone if the frontier is
    /// empty (should not happen during scheduling).
    pub fn score_swap(
        &self,
        placement: &Placement,
        decay: &DecayTracker,
        frontier: &[Gate],
        lookahead: &[Gate],
        swap: &GenericSwap,
    ) -> f64 {
        let mut best_gate_term = f64::INFINITY;
        let mut enables_gate = false;
        for g in frontier {
            let term = decay.gate_factor(g) * self.gate_score_after(placement, g, swap);
            if term < best_gate_term {
                best_gate_term = term;
            }
            if !enables_gate
                && !self.is_already_executable(placement, g)
                && self.makes_executable(placement, g, swap)
            {
                enables_gate = true;
            }
        }
        let gate_term = if best_gate_term.is_finite() { best_gate_term } else { 0.0 };
        // Extended look-ahead (SABRE-style): moves that also help upcoming
        // gates are preferred, which suppresses ping-pong shuttling on
        // all-to-all workloads such as the QFT.
        let lookahead_term = if lookahead.is_empty() {
            0.0
        } else {
            let sum: f64 =
                lookahead.iter().map(|g| self.gate_score_after(placement, g, swap)).sum();
            0.5 * sum / lookahead.len() as f64
        };
        // A SWAP gate is three entangling gates; weight it accordingly so
        // walking a qubit through a free space (reorders) is preferred over
        // swapping it past other ions when both routes exist.
        let effective_weight = match swap.kind {
            crate::generic_swap::GenericSwapKind::SwapGate => 3.0 * swap.weight,
            _ => swap.weight,
        };
        let bonus = if enables_gate { self.config.executable_bonus } else { 0.0 };
        gate_term + lookahead_term + effective_weight - bonus
    }

    /// `true` if the gate's qubits already share a trap.
    fn is_already_executable(&self, placement: &Placement, gate: &Gate) -> bool {
        match gate.two_qubit_pair() {
            Some((a, b)) => match (placement.slot_of(a), placement.slot_of(b)) {
                (Some(sa), Some(sb)) => self.graph.same_trap(sa, sb),
                _ => false,
            },
            None => true,
        }
    }
}

/// One gate of the active scoring pass, with every placement-derived term
/// precomputed so that scoring a candidate against it is O(1) in the
/// common case.
#[derive(Debug, Clone, Copy)]
struct GateTerm {
    q1: Qubit,
    q2: Qubit,
    s1: SlotId,
    s2: SlotId,
    ta: TrapId,
    tb: TrapId,
    /// Traps whose occupancy pattern feeds the readiness term (the
    /// next-hop entry traps of the route), `None` for same-trap gates.
    entry_a: Option<TrapId>,
    entry_b: Option<TrapId>,
    /// `pair_route_score(placement, None, s1, s2)` — the cached base.
    route: f64,
    /// Decay factor (frontier gates only; 1.0 for look-ahead gates).
    decay: f64,
    /// `true` if the gate's qubits already share a trap.
    executable: bool,
}

/// Cross-iteration cache of per-gate base route scores.
///
/// A gate's base score (`pair_route_score` with no hypothetical swap)
/// depends on (a) the slots of its two operands and (b) the occupancy
/// *pattern* of the two next-hop entry traps along its route (the
/// readiness term). The cache therefore keys each entry on the operand
/// slots plus a per-trap epoch counter: the scheduler bumps a trap's
/// epoch whenever an applied generic swap changes which of its slots are
/// occupied (reorders and shuttles — SWAP gates permute ions between two
/// occupied slots and leave the pattern untouched). An entry is reused
/// only when both the slots and the entry-trap epochs still match, which
/// makes the cached value bit-identical to a fresh recomputation.
#[derive(Debug, Clone)]
pub struct ScoreCache {
    entries: Vec<CachedRoute>,
    trap_epoch: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct CachedRoute {
    set: bool,
    s1: SlotId,
    s2: SlotId,
    epoch_a: u64,
    epoch_b: u64,
    route: f64,
}

impl ScoreCache {
    /// Creates an empty cache for `num_gates` DAG nodes on `num_traps`
    /// traps.
    pub fn new(num_gates: usize, num_traps: usize) -> Self {
        ScoreCache {
            entries: vec![
                CachedRoute {
                    set: false,
                    s1: SlotId(0),
                    s2: SlotId(0),
                    epoch_a: 0,
                    epoch_b: 0,
                    route: 0.0,
                };
                num_gates
            ],
            trap_epoch: vec![0; num_traps],
        }
    }

    /// Invalidates readiness-dependent entries touching `trap` (call after
    /// an applied reorder or shuttle changed its occupancy pattern).
    pub fn bump_trap(&mut self, trap: TrapId) {
        self.trap_epoch[trap.index()] += 1;
    }

    /// Invalidates every cached entry (call after bulk placement changes,
    /// e.g. the deterministic fallback router).
    pub fn bump_all(&mut self) {
        for e in &mut self.entries {
            e.set = false;
        }
    }

    #[inline]
    fn epoch_of(&self, trap: Option<TrapId>) -> u64 {
        trap.map_or(0, |t| self.trap_epoch[t.index()])
    }
}

/// A memo of space-readiness values, valid for one scoring pass (one
/// placement snapshot) at a time.
///
/// The readiness term of `HeuristicScorer::pair_route_score` asks "how
/// far is the nearest empty slot from this entry port?". Under a
/// hypothetical swap whose endpoints both lie *outside* the port's trap,
/// the answer is provably identical to the no-swap answer — the swap
/// cannot change that trap's occupancy pattern — so the value can be
/// computed once per (pass, port) and reused across every candidate of
/// the pass. The scheduler keeps one memo in its scratch:
/// [`ReadinessMemo::begin_pass`] bumps an epoch that lazily invalidates every
/// slot, and the backing buffers persist across passes and compiles so the
/// steady state allocates nothing. Values read through the memo are
/// bit-identical to a fresh `HeuristicScorer::space_readiness` call,
/// which keeps memoised scoring inside the scheduler's golden determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct ReadinessMemo {
    stamp: Vec<u64>,
    value: Vec<f64>,
    epoch: u64,
    hits: u64,
}

impl ReadinessMemo {
    /// Starts a new scoring pass: every memoised value becomes stale.
    /// Call whenever the placement the pass scores against may have
    /// changed (the scheduler calls it once per scoring pass).
    pub fn begin_pass(&mut self) {
        self.epoch += 1;
    }

    /// Returns and resets the accumulated memo-hit counter.
    pub fn take_hits(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
    }

    #[inline]
    fn lookup(&mut self, slot: usize) -> Option<f64> {
        if self.stamp.get(slot) == Some(&self.epoch) {
            self.hits += 1;
            return Some(self.value[slot]);
        }
        None
    }

    #[inline]
    fn store(&mut self, slot: usize, v: f64) {
        if slot >= self.stamp.len() {
            self.stamp.resize(slot + 1, 0);
            self.value.resize(slot + 1, 0.0);
        }
        self.stamp[slot] = self.epoch;
        self.value[slot] = v;
    }
}

/// Per-iteration scoring pass over the frontier and look-ahead gates.
///
/// Built once per scheduler iteration by [`HeuristicScorer::prepare_pass`]
/// and then read for every candidate via
/// [`HeuristicScorer::score_swap_memo`], which reproduces
/// [`HeuristicScorer::score_swap`] bit for bit while touching each gate in
/// O(1) unless the candidate actually relocates one of its operands or
/// perturbs its readiness traps.
#[derive(Debug, Clone, Default)]
pub struct ScoringScratch {
    terms: Vec<GateTerm>,
    frontier_len: usize,
    full_traps: usize,
}

impl<'a> HeuristicScorer<'a> {
    /// Prepares a scoring pass: computes (or reuses from `cache`) the base
    /// score of every frontier and look-ahead gate under the current
    /// placement. Gate lists carry DAG node ids so cached entries survive
    /// across iterations until an operand moves or an entry trap's
    /// occupancy pattern changes.
    pub fn prepare_pass(
        &self,
        scratch: &mut ScoringScratch,
        cache: &mut ScoreCache,
        placement: &Placement,
        decay: &DecayTracker,
        frontier: &[(NodeId, Gate)],
        lookahead: &[(NodeId, Gate)],
    ) {
        scratch.terms.clear();
        scratch.frontier_len = frontier.len();
        scratch.full_traps = placement.full_trap_count();
        for (is_frontier, list) in [(true, frontier), (false, lookahead)] {
            for &(id, gate) in list {
                let term = self.gate_term(cache, placement, id, &gate, is_frontier, decay);
                scratch.terms.push(term);
            }
        }
    }

    fn gate_term(
        &self,
        cache: &mut ScoreCache,
        placement: &Placement,
        id: NodeId,
        gate: &Gate,
        is_frontier: bool,
        decay: &DecayTracker,
    ) -> GateTerm {
        let (q1, q2) =
            gate.two_qubit_pair().expect("the scheduler DAG only contains two-qubit gates");
        let s1 = placement.slot_of(q1).expect("scheduled qubits are placed");
        let s2 = placement.slot_of(q2).expect("scheduled qubits are placed");
        let ta = self.graph.slot_trap(s1);
        let tb = self.graph.slot_trap(s2);
        let (entry_a, entry_b) = if ta == tb {
            (None, None)
        } else {
            (self.router.next_hop(ta, tb), self.router.next_hop(tb, ta))
        };
        let epoch_a = cache.epoch_of(entry_a);
        let epoch_b = cache.epoch_of(entry_b);
        let cached = &mut cache.entries[id.0];
        let route = if cached.set
            && cached.s1 == s1
            && cached.s2 == s2
            && cached.epoch_a == epoch_a
            && cached.epoch_b == epoch_b
        {
            cached.route
        } else {
            let route = self.pair_route_score(placement, None, s1, s2);
            *cached = CachedRoute { set: true, s1, s2, epoch_a, epoch_b, route };
            route
        };
        GateTerm {
            q1,
            q2,
            s1,
            s2,
            ta,
            tb,
            entry_a,
            entry_b,
            route,
            decay: if is_frontier { decay.gate_factor(gate) } else { 1.0 },
            executable: ta == tb,
        }
    }

    /// `H(swap)` over a prepared pass, reading readiness values through
    /// the pass's [`ReadinessMemo`] — bit-identical to
    /// [`HeuristicScorer::score_swap`] on the same frontier / look-ahead
    /// lists (the memo only serves values the swap provably cannot
    /// perturb), but each unchanged gate costs an integer compare instead
    /// of a route recomputation.
    pub fn score_swap_memo(
        &self,
        scratch: &ScoringScratch,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        swap: &GenericSwap,
    ) -> f64 {
        let occ_a = placement.occupant(swap.a);
        let occ_b = placement.occupant(swap.b);
        let pen_after = self.penalty_with(placement, swap, scratch.full_traps) as f64;
        let swap_ta = self.graph.slot_trap(swap.a);
        let swap_tb = self.graph.slot_trap(swap.b);
        let pattern_preserving = swap.kind == GenericSwapKind::SwapGate;

        let mut best_gate_term = f64::INFINITY;
        let mut enables_gate = false;
        let (frontier, lookahead) = scratch.terms.split_at(scratch.frontier_len);
        for t in frontier {
            let (s1, s2) = slots_after_swap(t.q1, t.q2, t.s1, t.s2, swap, occ_a, occ_b);
            let score = self.term_score(
                t,
                placement,
                swap,
                s1,
                s2,
                pen_after,
                pattern_preserving,
                swap_ta,
                swap_tb,
                memo,
            );
            let term = t.decay * score;
            if term < best_gate_term {
                best_gate_term = term;
            }
            if !enables_gate && !t.executable && self.graph.same_trap(s1, s2) {
                enables_gate = true;
            }
        }
        let gate_term = if best_gate_term.is_finite() { best_gate_term } else { 0.0 };
        let lookahead_term = if lookahead.is_empty() {
            0.0
        } else {
            let mut sum = 0.0f64;
            for t in lookahead {
                let (s1, s2) = slots_after_swap(t.q1, t.q2, t.s1, t.s2, swap, occ_a, occ_b);
                sum += self.term_score(
                    t,
                    placement,
                    swap,
                    s1,
                    s2,
                    pen_after,
                    pattern_preserving,
                    swap_ta,
                    swap_tb,
                    memo,
                );
            }
            0.5 * sum / lookahead.len() as f64
        };
        let effective_weight = match swap.kind {
            GenericSwapKind::SwapGate => 3.0 * swap.weight,
            _ => swap.weight,
        };
        let bonus = if enables_gate { self.config.executable_bonus } else { 0.0 };
        gate_term + lookahead_term + effective_weight - bonus
    }

    /// The score of one prepared gate under a hypothetical swap: the cached
    /// base when the swap provably cannot change the gate's route or
    /// readiness, the full recomputation otherwise.
    #[allow(clippy::too_many_arguments)]
    fn term_score(
        &self,
        t: &GateTerm,
        placement: &Placement,
        swap: &GenericSwap,
        s1: SlotId,
        s2: SlotId,
        pen_after: f64,
        pattern_preserving: bool,
        swap_ta: TrapId,
        swap_tb: TrapId,
        memo: &mut ReadinessMemo,
    ) -> f64 {
        let slots_unchanged = s1 == t.s1 && s2 == t.s2;
        let readiness_unchanged = pattern_preserving
            || t.ta == t.tb
            || (Some(swap_ta) != t.entry_a
                && Some(swap_ta) != t.entry_b
                && Some(swap_tb) != t.entry_a
                && Some(swap_tb) != t.entry_b);
        if slots_unchanged && readiness_unchanged {
            t.route + pen_after
        } else {
            self.pair_route_score_memo(memo, placement, swap, swap_ta, swap_tb, s1, s2) + pen_after
        }
    }

    /// [`HeuristicScorer::pair_route_score`] under a hypothetical swap,
    /// serving readiness values from `memo` whenever the swap provably
    /// cannot change them. A swap only perturbs the occupancy pattern of
    /// the traps holding its endpoints, so for any entry port outside
    /// `swap_ta`/`swap_tb` the with-swap readiness equals the no-swap
    /// readiness — that value is memoised per pass and shared across every
    /// candidate of the pass. Ports inside the swap's traps are
    /// recomputed directly, keeping the result bit-identical to
    /// [`HeuristicScorer::pair_route_score`].
    #[allow(clippy::too_many_arguments)]
    fn pair_route_score_memo(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        swap: &GenericSwap,
        swap_ta: TrapId,
        swap_tb: TrapId,
        s1: SlotId,
        s2: SlotId,
    ) -> f64 {
        let inner = self.config.weights.inner_weight;
        let mut score = self.slot_distance(s1, s2);
        let ta = self.graph.slot_trap(s1);
        let tb = self.graph.slot_trap(s2);
        if ta != tb {
            let mut readiness = f64::INFINITY;
            if let Some(next) = self.router.next_hop(ta, tb) {
                let entry = self.graph.topology().port_slot(next, ta);
                readiness = readiness
                    .min(self.readiness_memo(memo, placement, swap, swap_ta, swap_tb, entry));
            }
            if let Some(next) = self.router.next_hop(tb, ta) {
                let entry = self.graph.topology().port_slot(next, tb);
                readiness = readiness
                    .min(self.readiness_memo(memo, placement, swap, swap_ta, swap_tb, entry));
            }
            if readiness.is_finite() {
                score += inner * readiness;
            }
        }
        score
    }

    /// One readiness term through the pass memo: direct recomputation
    /// when `port`'s trap is one of the swap's endpoint traps (the swap
    /// may have changed the pattern), the memoised no-swap value
    /// otherwise.
    fn readiness_memo(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        swap: &GenericSwap,
        swap_ta: TrapId,
        swap_tb: TrapId,
        port: SlotId,
    ) -> f64 {
        let trap = self.graph.slot_trap(port);
        if trap == swap_ta || trap == swap_tb {
            return self.space_readiness(placement, Some(swap), port);
        }
        if let Some(v) = memo.lookup(port.index()) {
            return v;
        }
        let v = self.space_readiness(placement, None, port);
        memo.store(port.index(), v);
        v
    }

    /// [`HeuristicScorer::gate_score`] serving its readiness terms from
    /// the pass's [`ReadinessMemo`] — used by the stall-fallback
    /// frontier loop, where many gates share the same entry ports.
    /// Bit-identical to [`HeuristicScorer::gate_score`] (no hypothetical
    /// swap is involved, so every port is memoisable).
    pub fn gate_score_memo(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        gate: &Gate,
    ) -> f64 {
        let Some((q1, q2)) = gate.two_qubit_pair() else {
            return 0.0;
        };
        let (Some(s1), Some(s2)) = (placement.slot_of(q1), placement.slot_of(q2)) else {
            return f64::INFINITY;
        };
        let inner = self.config.weights.inner_weight;
        let mut score = self.slot_distance(s1, s2);
        let ta = self.graph.slot_trap(s1);
        let tb = self.graph.slot_trap(s2);
        if ta != tb {
            let mut readiness = f64::INFINITY;
            if let Some(next) = self.router.next_hop(ta, tb) {
                let entry = self.graph.topology().port_slot(next, ta);
                readiness = readiness.min(self.readiness_none_memo(memo, placement, entry));
            }
            if let Some(next) = self.router.next_hop(tb, ta) {
                let entry = self.graph.topology().port_slot(next, tb);
                readiness = readiness.min(self.readiness_none_memo(memo, placement, entry));
            }
            if readiness.is_finite() {
                score += inner * readiness;
            }
        }
        score + placement.full_trap_count() as f64
    }

    /// The memoised no-swap readiness of one entry port.
    fn readiness_none_memo(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        port: SlotId,
    ) -> f64 {
        if let Some(v) = memo.lookup(port.index()) {
            return v;
        }
        let v = self.space_readiness(placement, None, port);
        memo.store(port.index(), v);
        v
    }

    /// [`HeuristicScorer::penalty_after`] with the current full-trap count
    /// supplied by the caller (hoisted out of the candidate loop).
    fn penalty_with(&self, placement: &Placement, swap: &GenericSwap, full: usize) -> usize {
        let mut pen = full;
        if swap.is_shuttle() {
            let (from_slot, to_slot) = if placement.occupant(swap.a).is_some() {
                (swap.a, swap.b)
            } else {
                (swap.b, swap.a)
            };
            let from = self.graph.slot_trap(from_slot);
            let to = self.graph.slot_trap(to_slot);
            if placement.trap_is_full(from) {
                pen -= 1;
            }
            if placement.trap_free_slots(to) == 1 {
                pen += 1;
            }
        }
        pen
    }
}

/// The slots of a gate's qubits after hypothetically applying `swap`: the
/// single source of truth behind both `HeuristicScorer::slots_after` and
/// the prepared-pass fast path. The swap's endpoint occupants are passed
/// in so the caller can hoist the two lookups out of its gate loop.
#[inline]
fn slots_after_swap(
    q1: Qubit,
    q2: Qubit,
    mut s1: SlotId,
    mut s2: SlotId,
    swap: &GenericSwap,
    occ_a: Option<Qubit>,
    occ_b: Option<Qubit>,
) -> (SlotId, SlotId) {
    for (slot, q) in [(swap.a, occ_a), (swap.b, occ_b)] {
        let other = if slot == swap.a { swap.b } else { swap.a };
        if q == Some(q1) && s1 == slot {
            s1 = other;
        }
        if q == Some(q2) && s2 == slot {
            s2 = other;
        }
    }
    (s1, s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::{QccdTopology, TrapRouter};
    use ssync_circuit::Qubit;

    fn setup() -> (SlotGraph, TrapRouter, CompilerConfig, Placement) {
        let topo = QccdTopology::linear(3, 4);
        let config = CompilerConfig::default();
        let graph = SlotGraph::new(topo.clone(), config.weights);
        let router = TrapRouter::new(&topo, config.weights);
        let mut p = Placement::new(&topo, 4);
        p.place(Qubit(0), SlotId(0)); // trap 0, left end
        p.place(Qubit(1), SlotId(3)); // trap 0, right end
        p.place(Qubit(2), SlotId(4)); // trap 1, left end
        p.place(Qubit(3), SlotId(11)); // trap 2, right end
        (graph, router, config, p)
    }

    #[test]
    fn decay_tracker_marks_and_resets() {
        let mut d = DecayTracker::new(3, 0.5, 2);
        assert_eq!(d.factor(Qubit(0)), 1.0);
        d.mark(Qubit(0));
        assert_eq!(d.factor(Qubit(0)), 1.5);
        d.tick();
        assert_eq!(d.factor(Qubit(0)), 1.5);
        d.tick();
        assert_eq!(d.factor(Qubit(0)), 1.0); // reset after 2 iterations
        assert_eq!(d.iteration(), 2);
        let gate = Gate::Cx(Qubit(0), Qubit(1));
        d.mark(Qubit(1));
        assert_eq!(d.gate_factor(&gate), 1.5);
    }

    #[test]
    fn slot_distance_within_trap_uses_inner_weight() {
        let (graph, router, config, _) = setup();
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        let d = scorer.slot_distance(SlotId(0), SlotId(3));
        assert!((d - 0.003).abs() < 1e-12);
        assert_eq!(scorer.slot_distance(SlotId(2), SlotId(2)), 0.0);
    }

    #[test]
    fn slot_distance_across_traps_includes_shuttle_weight() {
        let (graph, router, config, _) = setup();
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        // Slot 0 (trap 0, pos 0) to slot 4 (trap 1, pos 0): 3 inner steps to
        // the exit port + 1 shuttle + 0 entry steps.
        let d = scorer.slot_distance(SlotId(0), SlotId(4));
        assert!((d - (0.003 + 1.0)).abs() < 1e-9);
        // Two traps away costs at least two shuttle weights.
        assert!(scorer.slot_distance(SlotId(0), SlotId(11)) > 2.0);
    }

    #[test]
    fn gate_score_prefers_colocated_qubits() {
        let (graph, router, config, p) = setup();
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        let near = Gate::Cx(Qubit(0), Qubit(1));
        let far = Gate::Cx(Qubit(0), Qubit(3));
        assert!(scorer.gate_score(&p, &near) < scorer.gate_score(&p, &far));
    }

    #[test]
    fn score_after_shuttle_reflects_the_move() {
        let (graph, router, config, p) = setup();
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        // Shuttle qubit 1 (slot 3, trap 0's right port) into slot 5? No —
        // the inter-trap edge connects slot 3 and slot 4, but slot 4 is
        // occupied. Instead shuttle qubit 2 from slot 4 into slot 3? Also
        // occupied. Build the hypothetical directly: qubit 1 shuttling into
        // trap 1 would shorten the distance of a gate between q1 and q2.
        let gate = Gate::Cx(Qubit(1), Qubit(3));
        // A reorder of qubit 3 towards its trap's left port (slot 11 -> 10)
        // reduces the eventual distance.
        let swap = GenericSwap {
            a: SlotId(11),
            b: SlotId(10),
            kind: crate::generic_swap::GenericSwapKind::Reorder,
            weight: config.weights.inner_weight,
        };
        let before = scorer.gate_score(&p, &gate);
        let after = scorer.gate_score_after(&p, &gate, &swap);
        assert!(after < before);
    }

    #[test]
    fn penalty_counts_full_traps_after_shuttle() {
        let topo = QccdTopology::linear(2, 2);
        let config = CompilerConfig::default();
        let graph = SlotGraph::new(topo.clone(), config.weights);
        let router = TrapRouter::new(&topo, config.weights);
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        let mut p = Placement::new(&topo, 2);
        p.place(Qubit(0), SlotId(1)); // trap 0 port
        p.place(Qubit(1), SlotId(3)); // trap 1, non-port slot (right end)
                                      // Shuttling qubit 0 into slot 2 fills trap 1.
        let swap = GenericSwap {
            a: SlotId(1),
            b: SlotId(2),
            kind: crate::generic_swap::GenericSwapKind::Shuttle { junctions: 0 },
            weight: 1.0,
        };
        assert_eq!(p.full_trap_count(), 0);
        assert_eq!(scorer.penalty_after(&p, &swap), 1);
    }

    #[test]
    fn score_swap_prefers_helpful_moves() {
        let (graph, router, config, p) = setup();
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        let decay = DecayTracker::new(4, config.decay_delta, config.decay_reset_interval);
        let frontier = vec![Gate::Cx(Qubit(1), Qubit(2))];
        // Helpful: shuttle q1 (slot 3) into trap 1... but slot 4 occupied, so
        // instead compare a reorder that moves q2 towards q1 against one that
        // moves it away.
        let towards = GenericSwap {
            a: SlotId(4),
            b: SlotId(5),
            kind: crate::generic_swap::GenericSwapKind::Reorder,
            weight: config.weights.inner_weight,
        };
        let away = GenericSwap {
            a: SlotId(11),
            b: SlotId(10),
            kind: crate::generic_swap::GenericSwapKind::Reorder,
            weight: config.weights.inner_weight,
        };
        let s_towards = scorer.score_swap(&p, &decay, &frontier, &[], &towards);
        let s_away = scorer.score_swap(&p, &decay, &frontier, &[], &away);
        // Moving q2 deeper into its trap (away from the shared port) does
        // not help the frontier gate; moving it is still scored consistently.
        assert!(s_towards.is_finite() && s_away.is_finite());
        assert!(s_towards >= s_away - 1.0); // sanity: both scores comparable
    }
}
