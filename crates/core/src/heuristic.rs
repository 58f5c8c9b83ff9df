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

/// Entry-port sentinel: a same-trap gate reads no readiness, and a route
/// with no next hop on one side (an unreachable pair) reads none there.
const NO_PORT: SlotId = SlotId(u32::MAX);

/// Readiness sentinel of a missing port. It is above every real
/// readiness, so the smaller of a route's two values is a real one
/// whenever the route reads a port at all.
const NO_READY: u32 = u32::MAX;

/// A gate's route score under the pass's placement, kept in the parts a
/// candidate swap can change: the slot distance of its operands and the
/// readiness of the two next-hop entry ports its route reads (see
/// `HeuristicScorer::pair_route_score`).
#[derive(Debug, Clone, Copy)]
struct Route {
    /// `slot_distance(s1, s2)`.
    dist: f64,
    /// The entry ports the readiness term reads (`NO_PORT` for none).
    ports: [SlotId; 2],
    /// Their readiness (`NO_READY` where there is no port).
    ready: [u32; 2],
    /// `pair_route_score(placement, None, s1, s2)`, to the bit.
    score: f64,
}

impl Route {
    const NONE: Route = Route { dist: 0.0, ports: [NO_PORT; 2], ready: [NO_READY; 2], score: 0.0 };

    /// `pair_route_score` from the parts: the distance plus the inner
    /// weight times the smaller readiness, when the route reads a port.
    #[inline]
    fn score_of(dist: f64, ready: [u32; 2], inner: f64) -> f64 {
        let readiness = ready[0].min(ready[1]);
        if readiness == NO_READY {
            dist
        } else {
            dist + inner * f64::from(readiness)
        }
    }

    /// The score of this route at slot distance `dist` once a swap has
    /// made the readiness changes `changes` lists. The operands stay in
    /// their traps, so the ports stay; only their readiness can move.
    #[inline]
    fn rescored(&self, dist: f64, changes: &PortChanges, inner: f64) -> f64 {
        let ready_a = changes.get(self.ports[0]).unwrap_or(self.ready[0]);
        let ready_b = changes.get(self.ports[1]).unwrap_or(self.ready[1]);
        Route::score_of(dist, [ready_a, ready_b], inner)
    }
}

/// One gate of the active scoring pass: its operand slots and its base
/// route, so that scoring a candidate against it costs a few compares
/// unless the candidate moves an operand or changes one of its ports.
#[derive(Debug, Clone, Copy)]
struct GateTerm {
    s1: SlotId,
    s2: SlotId,
    route: Route,
    /// Decay factor (frontier gates only; 1.0 for look-ahead gates).
    decay: f64,
    /// `true` if the gate's qubits already share a trap.
    executable: bool,
}

/// Cross-iteration cache of per-gate base routes.
///
/// A gate's base route (`pair_route_score` with no hypothetical swap, its
/// slot distance, entry ports and their readiness) depends on (a) the
/// slots of its two operands and (b) the occupancy *pattern* of the two
/// next-hop entry traps along its route (the readiness term). The cache
/// therefore keys each entry on the operand slots plus a per-trap epoch
/// counter: the scheduler bumps a trap's epoch whenever an applied
/// generic swap changes which of its slots are occupied (reorders and
/// shuttles — SWAP gates permute ions between two occupied slots and
/// leave the pattern untouched). An entry is reused only when both the
/// slots and the entry-trap epochs still match, which makes the cached
/// route bit-identical to a fresh recomputation.
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
    route: Route,
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
                    route: Route::NONE,
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

/// Distance sentinel for "the trap has no space".
const NO_SPACE: usize = usize::MAX;

/// The readiness of a port whose nearest space is `distance` away: the
/// distance itself, or the trap's capacity when it has no space.
#[inline]
fn readiness(distance: usize, capacity: usize) -> u32 {
    (if distance == NO_SPACE { capacity } else { distance }) as u32
}

/// The spaces of one chain as seen from one slot, as far as the readiness
/// term needs them: the nearest space's distance and chain position and
/// the runner-up space's distance (`NO_SPACE` where there is none). A
/// generic swap removes at most one space from a trap and adds at most
/// one, so these three numbers answer the readiness term under any
/// hypothetical swap without rescanning the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NearestSpaces {
    nearest: usize,
    nearest_pos: usize,
    runner_up: usize,
}

impl NearestSpaces {
    const NONE: NearestSpaces =
        NearestSpaces { nearest: NO_SPACE, nearest_pos: NO_SPACE, runner_up: NO_SPACE };

    /// The distance to the nearest space once `shift` has changed which
    /// of the chain's positions are spaces.
    #[inline]
    fn after(self, port_pos: usize, shift: SpaceShift) -> usize {
        let mut best =
            if shift.lost == Some(self.nearest_pos) { self.runner_up } else { self.nearest };
        if let Some(gained) = shift.gained {
            best = best.min(gained.abs_diff(port_pos));
        }
        best
    }
}

/// How a hypothetical generic swap changes the spaces of one trap: the
/// chain position that stops being a space and the one that becomes one.
#[derive(Debug, Clone, Copy)]
struct SpaceShift {
    trap: TrapId,
    lost: Option<usize>,
    gained: Option<usize>,
}

/// The space changes of one candidate swap. A reorder moves one trap's
/// space by one position; a shuttle takes the receiving trap's port space
/// and leaves a space at the sending trap's port; a SWAP gate exchanges two
/// ions and changes no space.
#[derive(Debug, Clone, Copy, Default)]
struct SwapSpaces([Option<SpaceShift>; 2]);

/// The chain-end ports whose readiness one candidate swap changes, each
/// with its readiness after the swap. Only a chain end is ever an entry
/// port, and a swap shifts the spaces of at most two traps (see
/// [`SwapSpaces`]), so four entries suffice. A port of a shifted trap
/// whose value the swap leaves as it is does not appear, so every term
/// reading only such ports keeps its cached route.
#[derive(Debug, Clone, Copy)]
struct PortChanges {
    len: usize,
    ports: [SlotId; 4],
    ready: [u32; 4],
}

impl PortChanges {
    const NONE: PortChanges = PortChanges { len: 0, ports: [NO_PORT; 4], ready: [NO_READY; 4] };

    /// The ports the swap changes.
    #[inline]
    fn ports(&self) -> &[SlotId] {
        &self.ports[..self.len]
    }

    /// `port`'s readiness after the swap, if the swap changes it.
    #[inline]
    fn get(&self, port: SlotId) -> Option<u32> {
        self.ports().iter().position(|&p| p == port).map(|i| self.ready[i])
    }

    #[inline]
    fn push(&mut self, port: SlotId, ready: u32) {
        self.ports[self.len] = port;
        self.ready[self.len] = ready;
        self.len += 1;
    }
}

/// A memo of each chain-end port's nearest spaces (the nearest one's
/// distance and position, the runner-up's distance), valid for one
/// scoring pass (one placement snapshot) at a time.
///
/// The readiness term of `HeuristicScorer::pair_route_score` asks "how
/// far is the nearest empty slot from this entry port?". Within a pass the
/// placement is fixed, so each port's chain is scanned once, on the
/// pass's first request. [`HeuristicScorer::prepare_pass`] begins the
/// pass and reads the ports of every route it recomputes; each candidate
/// then reads the two chain ends of every trap whose spaces it shifts and
/// answers the readiness there under its own hypothetical swap with
/// integer arithmetic. The scheduler keeps one memo in its scratch:
/// [`ReadinessMemo::begin_pass`] bumps an epoch that lazily invalidates
/// every slot, and the backing buffers persist across passes and compiles
/// so the steady state allocates nothing. A fresh memo misses on every
/// slot, so it may serve a pass before the first `begin_pass` too. Values
/// read through the memo are bit-identical to a fresh
/// `HeuristicScorer::space_readiness` call, which keeps memoised scoring
/// inside the scheduler's golden determinism contract.
#[derive(Debug, Clone)]
pub struct ReadinessMemo {
    /// The epoch each slot was stored in; 0, which no epoch equals, for
    /// a slot never stored.
    stamp: Vec<u64>,
    spaces: Vec<NearestSpaces>,
    epoch: u64,
    hits: u64,
}

impl Default for ReadinessMemo {
    fn default() -> Self {
        ReadinessMemo { stamp: Vec::new(), spaces: Vec::new(), epoch: 1, hits: 0 }
    }
}

impl ReadinessMemo {
    /// Starts a new scoring pass: every memoised value becomes stale.
    /// Call whenever the placement the pass scores against may have
    /// changed ([`HeuristicScorer::prepare_pass`] calls it, and the
    /// scheduler's stall fallback does before its own pass).
    pub fn begin_pass(&mut self) {
        self.epoch += 1;
    }

    /// Returns and resets the accumulated memo-hit counter.
    pub fn take_hits(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
    }

    #[inline]
    fn lookup(&mut self, slot: usize) -> Option<NearestSpaces> {
        if self.stamp.get(slot) == Some(&self.epoch) {
            self.hits += 1;
            return Some(self.spaces[slot]);
        }
        None
    }

    #[inline]
    fn store(&mut self, slot: usize, v: NearestSpaces) {
        if slot >= self.stamp.len() {
            self.stamp.resize(slot + 1, 0);
            self.spaces.resize(slot + 1, NearestSpaces::NONE);
        }
        self.stamp[slot] = self.epoch;
        self.spaces[slot] = v;
    }
}

/// Per-iteration scoring pass over the frontier and look-ahead gates.
///
/// Built once per scheduler iteration by [`HeuristicScorer::prepare_pass`]
/// and then read for every candidate via
/// [`HeuristicScorer::score_swap_memo`], which reproduces
/// [`HeuristicScorer::score_swap`] bit for bit while touching each gate in
/// O(1) unless the candidate actually relocates one of its operands or
/// changes the readiness of one of its entry ports, and skipping every
/// look-ahead gate before the first one the candidate can change.
#[derive(Debug, Clone, Default)]
pub struct ScoringScratch {
    terms: Vec<GateTerm>,
    frontier_len: usize,
    full_traps: usize,
    /// In-order running sums of the cached look-ahead terms `route + pen`:
    /// three rows of `look-ahead length + 1` sums, one row per full-trap
    /// penalty a candidate can leave (`full − 1`, `full`, `full + 1`).
    prefix: Vec<f64>,
    /// Per slot, the index of the first look-ahead term with an operand
    /// there (`u32::MAX` for none): a swap touching the slot moves it.
    first_at_slot: Vec<u32>,
    /// Per slot, the index of the first look-ahead term whose readiness
    /// reads that slot as an entry port: a swap changing the port's
    /// readiness changes the term.
    first_at_port: Vec<u32>,
}

impl ScoringScratch {
    fn lookahead_len(&self) -> usize {
        self.terms.len() - self.frontier_len
    }

    /// Index of the first look-ahead term that `swap`, with readiness
    /// changes `changes`, can change; every term before it takes its
    /// cached value.
    #[inline]
    fn first_changed(&self, swap: &GenericSwap, changes: &PortChanges) -> usize {
        let moved = self.first_at_slot[swap.a.index()].min(self.first_at_slot[swap.b.index()]);
        let first =
            changes.ports().iter().map(|p| self.first_at_port[p.index()]).fold(moved, u32::min);
        (first as usize).min(self.lookahead_len())
    }

    /// The in-order sum of the first `count` cached look-ahead terms under
    /// full-trap penalty `pen`.
    #[inline]
    fn prefix_sum(&self, pen: usize, count: usize) -> f64 {
        let row = pen + 1 - self.full_traps;
        self.prefix[row * (self.lookahead_len() + 1) + count]
    }
}

impl<'a> HeuristicScorer<'a> {
    /// Prepares a scoring pass: begins a new pass of `memo`, computes (or
    /// reuses from `cache`) the base route of every frontier and look-ahead
    /// gate under the current placement, then indexes, per slot and per
    /// entry port, the first look-ahead term a swap there can change, and
    /// sums the look-ahead terms' cached values in order. Gate lists carry
    /// DAG node ids so cached entries survive across iterations until an
    /// operand moves or an entry trap's occupancy pattern changes.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_pass(
        &self,
        scratch: &mut ScoringScratch,
        cache: &mut ScoreCache,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        decay: &DecayTracker,
        frontier: &[(NodeId, Gate)],
        lookahead: &[(NodeId, Gate)],
    ) {
        memo.begin_pass();
        scratch.terms.clear();
        scratch.frontier_len = frontier.len();
        scratch.full_traps = placement.full_trap_count();
        for (decay, list) in [(Some(decay), frontier), (None, lookahead)] {
            for &(id, gate) in list {
                scratch.terms.push(self.gate_term(cache, memo, placement, id, &gate, decay));
            }
        }

        let lookahead_terms = &scratch.terms[scratch.frontier_len..];
        let num_slots = self.graph.num_slots();
        scratch.first_at_slot.clear();
        scratch.first_at_slot.resize(num_slots, u32::MAX);
        scratch.first_at_port.clear();
        scratch.first_at_port.resize(num_slots, u32::MAX);
        for (i, t) in lookahead_terms.iter().enumerate() {
            let i = i as u32;
            for slot in [t.s1, t.s2] {
                let first = &mut scratch.first_at_slot[slot.index()];
                *first = (*first).min(i);
            }
            for port in t.route.ports.into_iter().filter(|&p| p != NO_PORT) {
                let first = &mut scratch.first_at_port[port.index()];
                *first = (*first).min(i);
            }
        }
        scratch.prefix.clear();
        for offset in 0..3 {
            // `(full + offset − 1) as f64`, the value `penalty_with` yields.
            let pen = (scratch.full_traps + offset) as f64 - 1.0;
            let mut sum = 0.0f64;
            scratch.prefix.push(sum);
            for t in lookahead_terms {
                sum += t.route.score + pen;
                scratch.prefix.push(sum);
            }
        }
    }

    /// The pass term of gate `id`; `decay` is given for a frontier gate
    /// and `None` for a look-ahead gate.
    fn gate_term(
        &self,
        cache: &mut ScoreCache,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        id: NodeId,
        gate: &Gate,
        decay: Option<&DecayTracker>,
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
            let route = self.pair_route_memo(memo, placement, &PortChanges::NONE, s1, s2);
            *cached = CachedRoute { set: true, s1, s2, epoch_a, epoch_b, route };
            route
        };
        GateTerm {
            s1,
            s2,
            route,
            decay: decay.map_or(1.0, |d| d.gate_factor(gate)),
            executable: ta == tb,
        }
    }

    /// `H(swap)` over a prepared pass — bit-identical to
    /// [`HeuristicScorer::score_swap`] on the same frontier / look-ahead
    /// lists. Before the term loop it works out which chain-end ports the
    /// swap actually changes: for each trap whose spaces it shifts, the
    /// ends whose nearest-space distance moves. A gate whose operands stay
    /// and whose ports keep their readiness costs a few compares, and the
    /// look-ahead sum resumes from the pass's prefix sums at the first
    /// term the swap can change (the same additions in the same order, so
    /// the same bits).
    pub fn score_swap_memo(
        &self,
        scratch: &ScoringScratch,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        swap: &GenericSwap,
    ) -> f64 {
        let pen = self.penalty_with(placement, swap, scratch.full_traps);
        let pen_after = pen as f64;
        let changes = self.port_changes(memo, placement, swap);

        let mut best_gate_term = f64::INFINITY;
        let mut enables_gate = false;
        let (frontier, lookahead) = scratch.terms.split_at(scratch.frontier_len);
        for t in frontier {
            let term = t.decay * (self.route_after(t, swap, &changes, memo, placement) + pen_after);
            if term < best_gate_term {
                best_gate_term = term;
            }
            // Only a shuttle moves an ion to another trap.
            if swap.is_shuttle()
                && !enables_gate
                && !t.executable
                && self.graph.same_trap(moved_to(t.s1, swap), moved_to(t.s2, swap))
            {
                enables_gate = true;
            }
        }
        let gate_term = if best_gate_term.is_finite() { best_gate_term } else { 0.0 };
        let lookahead_term = if lookahead.is_empty() {
            0.0
        } else {
            let first = scratch.first_changed(swap, &changes);
            let mut sum = scratch.prefix_sum(pen, first);
            for t in &lookahead[first..] {
                sum += self.route_after(t, swap, &changes, memo, placement) + pen_after;
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

    /// The route score of prepared gate `t` once `swap`, with readiness
    /// changes `changes`, is applied: `pair_route_score` under the swap, to
    /// the bit. Operands that stay keep the cached route unless one of the
    /// gate's ports changes; an operand moved inside its trap keeps the
    /// ports and costs one distance read; only a shuttled operand takes a
    /// new route.
    #[inline(always)]
    fn route_after(
        &self,
        t: &GateTerm,
        swap: &GenericSwap,
        changes: &PortChanges,
        memo: &mut ReadinessMemo,
        placement: &Placement,
    ) -> f64 {
        let inner = self.config.weights.inner_weight;
        let (s1, s2) = (moved_to(t.s1, swap), moved_to(t.s2, swap));
        if s1 == t.s1 && s2 == t.s2 {
            if changes.len == 0 {
                t.route.score
            } else {
                t.route.rescored(t.route.dist, changes, inner)
            }
        } else if swap.is_shuttle() {
            self.pair_route_memo(memo, placement, changes, s1, s2).score
        } else {
            t.route.rescored(self.slot_distance(s1, s2), changes, inner)
        }
    }

    /// [`HeuristicScorer::pair_route_score`] under a hypothetical swap
    /// whose readiness changes are `changes`, in parts: each entry port
    /// reads its value from `changes`, or through the pass memo where the
    /// swap leaves it as it is. The route's `score` is bit-identical to
    /// [`HeuristicScorer::pair_route_score`] with that swap.
    fn pair_route_memo(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        changes: &PortChanges,
        s1: SlotId,
        s2: SlotId,
    ) -> Route {
        let mut route = Route { dist: self.slot_distance(s1, s2), ..Route::NONE };
        let ta = self.graph.slot_trap(s1);
        let tb = self.graph.slot_trap(s2);
        if ta != tb {
            for (i, (from, to)) in [(ta, tb), (tb, ta)].into_iter().enumerate() {
                if let Some(next) = self.router.next_hop(from, to) {
                    let port = self.graph.topology().port_slot(next, from);
                    route.ports[i] = port;
                    route.ready[i] = self.port_readiness(memo, placement, changes, port);
                }
            }
        }
        route.score = Route::score_of(route.dist, route.ready, self.config.weights.inner_weight);
        route
    }

    /// The readiness of `port` under a swap with readiness changes
    /// `changes`: the listed value, or the pass memo's where the swap
    /// leaves the port as it is. Equals `space_readiness(placement,
    /// Some(swap), port)` for every chain-end port.
    #[inline]
    fn port_readiness(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        changes: &PortChanges,
        port: SlotId,
    ) -> u32 {
        match changes.get(port) {
            Some(ready) => ready,
            None => {
                let trap = self.graph.topology().trap(self.graph.slot_trap(port));
                readiness(self.nearest_memo(memo, placement, port).nearest, trap.capacity())
            }
        }
    }

    /// The chain-end ports whose readiness `swap` changes: both chain ends
    /// of every trap whose spaces it shifts are read through the pass memo,
    /// and a port is listed only where its nearest-space distance moves.
    fn port_changes(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        swap: &GenericSwap,
    ) -> PortChanges {
        let mut changes = PortChanges::NONE;
        for shift in self.swap_spaces(placement, swap).0.into_iter().flatten() {
            let trap = self.graph.topology().trap(shift.trap);
            let capacity = trap.capacity();
            for (port, pos) in [(trap.left_end(), 0), (trap.right_end(), capacity - 1)] {
                let before = self.nearest_memo(memo, placement, port);
                let after = before.after(pos, shift);
                if after != before.nearest {
                    changes.push(port, readiness(after, capacity));
                }
            }
        }
        changes
    }

    /// `port`'s nearest spaces under the pass's placement, scanned on the
    /// pass's first request and served from `memo` after that.
    #[inline]
    fn nearest_memo(
        &self,
        memo: &mut ReadinessMemo,
        placement: &Placement,
        port: SlotId,
    ) -> NearestSpaces {
        if let Some(v) = memo.lookup(port.index()) {
            return v;
        }
        let v = self.nearest_spaces(placement, port);
        memo.store(port.index(), v);
        v
    }

    /// Scans `port`'s chain for the nearest and runner-up spaces (ties go
    /// to the lower chain position; the runner-up may sit at the same
    /// distance on the other side).
    fn nearest_spaces(&self, placement: &Placement, port: SlotId) -> NearestSpaces {
        let trap = self.graph.topology().trap(self.graph.slot_trap(port));
        let port_pos = self.graph.slot_position(port);
        let mut spaces = NearestSpaces::NONE;
        for pos in 0..trap.capacity() {
            if placement.occupant(trap.slot_at(pos)).is_none() {
                let d = pos.abs_diff(port_pos);
                if d < spaces.nearest {
                    spaces.runner_up = spaces.nearest;
                    spaces.nearest = d;
                    spaces.nearest_pos = pos;
                } else if d < spaces.runner_up {
                    spaces.runner_up = d;
                }
            }
        }
        spaces
    }

    /// The space changes `swap` would make (see [`SwapSpaces`]).
    fn swap_spaces(&self, placement: &Placement, swap: &GenericSwap) -> SwapSpaces {
        let (ion, space) =
            if placement.occupant(swap.a).is_some() { (swap.a, swap.b) } else { (swap.b, swap.a) };
        let pos = |slot| Some(self.graph.slot_position(slot));
        match swap.kind {
            GenericSwapKind::SwapGate => SwapSpaces::default(),
            GenericSwapKind::Reorder => SwapSpaces([
                Some(SpaceShift {
                    trap: self.graph.slot_trap(space),
                    lost: pos(space),
                    gained: pos(ion),
                }),
                None,
            ]),
            GenericSwapKind::Shuttle { .. } => SwapSpaces([
                Some(SpaceShift { trap: self.graph.slot_trap(ion), lost: None, gained: pos(ion) }),
                Some(SpaceShift {
                    trap: self.graph.slot_trap(space),
                    lost: pos(space),
                    gained: None,
                }),
            ]),
        }
    }

    /// [`HeuristicScorer::gate_score`] serving its readiness terms from
    /// the pass's [`ReadinessMemo`] — used by the stall-fallback
    /// frontier loop, where many gates share the same entry ports.
    /// Bit-identical to [`HeuristicScorer::gate_score`].
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
        self.pair_route_memo(memo, placement, &PortChanges::NONE, s1, s2).score
            + placement.full_trap_count() as f64
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

/// The slot `swap` moves the ion at `slot` to: the swap's other endpoint
/// when `slot` is one of its endpoints, else `slot` itself. On a
/// consistent placement this is what [`slots_after_swap`] computes for
/// each operand of a gate, without reading the endpoints' occupants.
#[inline]
fn moved_to(slot: SlotId, swap: &GenericSwap) -> SlotId {
    if slot == swap.a {
        swap.b
    } else if slot == swap.b {
        swap.a
    } else {
        slot
    }
}

/// The slots of a gate's qubits after hypothetically applying `swap`, as
/// `HeuristicScorer::slots_after` (the reference scoring path) computes
/// them. The swap's endpoint occupants are passed in.
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
    use proptest::prelude::*;
    use ssync_arch::{Device, QccdTopology, TrapRouter};
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
    fn a_fresh_memo_misses_before_its_first_pass() {
        // L-3 of capacity 4: q0 at the far end of trap 0, q1 and q2 at the
        // left of trap 1. Scoring cx q0, q1 reads the readiness of both
        // entry ports; the first one stored (slot 4) grows the memo past
        // the second (slot 3), which no pass has stored.
        let device = Device::build(QccdTopology::linear(3, 4), CompilerConfig::default().weights);
        let config = CompilerConfig::default();
        let scorer = HeuristicScorer::new(device.graph(), device.router(), &config);
        let mut p = Placement::new(device.topology(), 3);
        for (q, slot) in [(0u32, 0u32), (1, 4), (2, 5)] {
            p.place(Qubit(q), SlotId(slot));
        }
        let gate = Gate::Cx(Qubit(0), Qubit(1));
        let scan = scorer.gate_score(&p, &gate);
        assert_eq!(scan, 1.003);
        let mut memo = ReadinessMemo::default();
        let fresh = scorer.gate_score_memo(&mut memo, &p, &gate);
        assert_eq!(fresh.to_bits(), scan.to_bits(), "a fresh memo scored {fresh}");
        let again = scorer.gate_score_memo(&mut memo, &p, &gate);
        assert_eq!(again.to_bits(), scan.to_bits());
        assert_eq!(memo.take_hits(), 2, "the second score reads both ports from the memo");
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

    /// A small deterministic generator for the property tests (SplitMix64).
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A tight device of kind `kind` (0 linear, 1 grid, 2 fully connected).
    fn tight_device(kind: usize, traps: usize, capacity: usize) -> Device {
        let topo = match kind {
            0 => QccdTopology::linear(traps, capacity),
            1 => QccdTopology::grid(2, traps.div_ceil(2), capacity),
            _ => QccdTopology::fully_connected(traps, capacity),
        };
        Device::build(topo, CompilerConfig::default().weights)
    }

    /// `qubits` qubits on distinct random slots.
    fn random_placement(device: &Device, qubits: usize, rng: &mut Mix) -> Placement {
        let mut slots: Vec<u32> = (0..device.graph().num_slots() as u32).collect();
        let mut p = Placement::new(device.topology(), qubits);
        for q in 0..qubits {
            let pick = q + rng.below(slots.len() - q);
            slots.swap(q, pick);
            p.place(Qubit(q as u32), SlotId(slots[q]));
        }
        p
    }

    /// Asserts that the readiness of every chain end (the only slots that
    /// are ever entry ports) under every candidate swap, and under no
    /// swap, read the way scoring reads it — the swap's listed change,
    /// else the pass memo — equals a fresh chain scan to the bit, and that
    /// a swap lists a port exactly when it changes the port's value.
    /// Returns how many lookups hit each edge case: a trap left without a
    /// space, a swap filling a trap's only space, and a swap removing a
    /// port's nearest space so that the runner-up answers.
    fn check_readiness(device: &Device, p: &Placement) -> [usize; 3] {
        let config = CompilerConfig::default();
        let scorer = HeuristicScorer::new(device.graph(), device.router(), &config);
        let mut memo = ReadinessMemo::default();
        memo.begin_pass();
        let mut seen = [0usize; 3];
        let candidates = GenericSwap::candidates(device.graph(), p);
        for trap in device.topology().traps() {
            for port in [trap.left_end(), trap.right_end()] {
                let none = scorer.port_readiness(&mut memo, p, &PortChanges::NONE, port);
                let scan = scorer.space_readiness(p, None, port);
                assert_eq!(f64::from(none).to_bits(), scan.to_bits(), "{port}");
                let before = scorer.nearest_spaces(p, port);
                for swap in &candidates {
                    let changes = scorer.port_changes(&mut memo, p, swap);
                    let fast = scorer.port_readiness(&mut memo, p, &changes, port);
                    let scan = scorer.space_readiness(p, Some(swap), port);
                    assert_eq!(f64::from(fast).to_bits(), scan.to_bits(), "{swap} at {port}");
                    assert_eq!(changes.get(port).is_some(), fast != none, "{swap} lists {port}");
                    let mut shifts = scorer.swap_spaces(p, swap).0.into_iter().flatten();
                    let lost =
                        shifts.any(|s| s.trap == trap.id() && s.lost == Some(before.nearest_pos));
                    seen[0] += usize::from(before.nearest == NO_SPACE);
                    seen[1] +=
                        usize::from(fast as usize == trap.capacity() && before.nearest != NO_SPACE);
                    seen[2] += usize::from(
                        lost && before.runner_up != NO_SPACE && fast as usize == before.runner_up,
                    );
                }
            }
        }
        seen
    }

    #[test]
    fn readiness_edge_cases_match_a_chain_scan() {
        // Linear, two traps of capacity 5: trap 0 full, trap 1 holds one ion
        // in its middle. The shuttle in from trap 0 takes trap 1's left
        // port space, so the runner-up answers there.
        let device = tight_device(0, 2, 5);
        let mut p = Placement::new(device.topology(), 6);
        for q in 0..5u32 {
            p.place(Qubit(q), SlotId(q));
        }
        p.place(Qubit(5), SlotId(7));
        let [no_space, _, runner_up] = check_readiness(&device, &p);
        assert!(no_space > 0, "a full trap was read");
        assert!(runner_up > 0, "a swap removed a port's nearest space");
        // Trap 1's only space is its port: the shuttle in from trap 0 fills it.
        let mut p = Placement::new(device.topology(), 8);
        for q in 0..8u32 {
            p.place(Qubit(q), SlotId(q + u32::from(q >= 4) + 1));
        }
        let [_, filled, _] = check_readiness(&device, &p);
        assert!(filled > 0, "the shuttle filled the last space");
    }

    /// The per-port cases [`check_scores`] tallies, in its order.
    const PORT_CASES: [&str; 5] = [
        "a reorder that moves a read port's nearest space",
        "a reorder that leaves a read port's value, so the term keeps its cached route",
        "a shuttle that fills the receiving trap's last space (readiness = capacity)",
        "a shuttle whose sending trap's far port gains the nearest space",
        "a SWAP gate between the two operands of a look-ahead gate",
    ];

    /// Scores every candidate swap on `p` through a prepared pass and
    /// through `score_swap`, asserts the two agree to the bit, and tallies
    /// the [`PORT_CASES`] the candidates hit. A port counts as read when a
    /// term of the pass reads its readiness.
    fn check_scores(
        device: &Device,
        p: &Placement,
        decay: &DecayTracker,
        frontier: &[(NodeId, Gate)],
        lookahead: &[(NodeId, Gate)],
    ) -> [usize; 5] {
        let config = CompilerConfig::default();
        let reference = HeuristicScorer::new(device.graph(), device.router(), &config);
        let scorer = HeuristicScorer::with_distance_matrix(
            device.graph(),
            device.router(),
            &config,
            device.distance_matrix(),
        );
        let graph = device.graph();
        let mut scratch = ScoringScratch::default();
        let mut cache =
            ScoreCache::new(frontier.len() + lookahead.len(), graph.topology().num_traps());
        let mut memo = ReadinessMemo::default();
        scorer.prepare_pass(&mut scratch, &mut cache, &mut memo, p, decay, frontier, lookahead);
        let plain = |list: &[(NodeId, Gate)]| list.iter().map(|&(_, g)| g).collect::<Vec<_>>();
        let (frontier_gates, lookahead_gates) = (plain(frontier), plain(lookahead));
        let terms = &scratch.terms;
        let read = |port: SlotId| terms.iter().any(|t| t.route.ports.contains(&port));
        let mut seen = [0usize; 5];
        for swap in GenericSwap::candidates(graph, p) {
            let fast = scorer.score_swap_memo(&scratch, &mut memo, p, &swap);
            let slow = reference.score_swap(p, decay, &frontier_gates, &lookahead_gates, &swap);
            assert_eq!(fast.to_bits(), slow.to_bits(), "{swap}");
            let changes = scorer.port_changes(&mut memo, p, &swap);
            let (from, to) =
                if p.occupant(swap.a).is_some() { (swap.a, swap.b) } else { (swap.b, swap.a) };
            let (from_trap, to_trap) = (graph.slot_trap(from), graph.slot_trap(to));
            let changed_and_read = |port: SlotId| changes.get(port).is_some() && read(port);
            match swap.kind {
                GenericSwapKind::Reorder => {
                    seen[0] += usize::from(changes.ports().iter().any(|&port| read(port)));
                    let keeps_route = terms.iter().any(|t| {
                        (moved_to(t.s1, &swap), moved_to(t.s2, &swap)) == (t.s1, t.s2)
                            && t.route.ports.iter().any(|&port| {
                                port != NO_PORT
                                    && graph.slot_trap(port) == from_trap
                                    && changes.get(port).is_none()
                            })
                    });
                    seen[1] += usize::from(keeps_route);
                }
                GenericSwapKind::Shuttle { .. } => {
                    let receiving = graph.topology().trap(to_trap);
                    let full = receiving.capacity() as u32;
                    seen[2] += usize::from(
                        p.trap_free_slots(to_trap) == 1
                            && [receiving.left_end(), receiving.right_end()].into_iter().any(
                                |port| changed_and_read(port) && changes.get(port) == Some(full),
                            ),
                    );
                    let sending = graph.topology().trap(from_trap);
                    let far = if from == sending.left_end() {
                        sending.right_end()
                    } else {
                        sending.left_end()
                    };
                    seen[3] += usize::from(changed_and_read(far));
                }
                GenericSwapKind::SwapGate => {
                    seen[4] += usize::from(terms[scratch.frontier_len..].iter().any(|t| {
                        (t.s1, t.s2) == (swap.a, swap.b) || (t.s1, t.s2) == (swap.b, swap.a)
                    }));
                }
            }
        }
        seen
    }

    /// `frontier_len + lookahead_len` random two-qubit gates over `qubits`
    /// qubits (node ids in list order) and a decay tracker with a few
    /// recent marks.
    fn random_pass(
        qubits: usize,
        frontier_len: usize,
        lookahead_len: usize,
        rng: &mut Mix,
    ) -> (DecayTracker, Vec<(NodeId, Gate)>) {
        let mut decay = DecayTracker::new(qubits, CompilerConfig::default().decay_delta, 3);
        for _ in 0..rng.below(4) {
            decay.mark(Qubit(rng.below(qubits) as u32));
            decay.tick();
        }
        let gates = (0..frontier_len + lookahead_len)
            .map(|i| {
                let a = rng.below(qubits);
                let b = (a + 1 + rng.below(qubits - 1)) % qubits;
                (NodeId(i), Gate::Cx(Qubit(a as u32), Qubit(b as u32)))
            })
            .collect();
        (decay, gates)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn readiness_memo_matches_a_chain_scan(
            kind in 0usize..3,
            traps in 2usize..5,
            capacity in 2usize..9,
            fill in 0usize..100,
            seed in 0u64..1_000_000,
        ) {
            let device = tight_device(kind, traps, capacity);
            let slots = device.graph().num_slots();
            let qubits = (1 + fill * slots / 100).min(slots);
            let p = random_placement(&device, qubits, &mut Mix(seed));
            check_readiness(&device, &p);
        }

        #[test]
        fn prefix_resumed_scores_equal_score_swap(
            kind in 0usize..3,
            traps in 2usize..5,
            capacity in 2usize..7,
            spare in 0usize..4,
            frontier_len in 1usize..6,
            lookahead_len in 0usize..40,
            seed in 0u64..1_000_000,
        ) {
            let device = tight_device(kind, traps, capacity);
            let slots = device.graph().num_slots();
            let qubits = slots.saturating_sub(spare).max(2);
            let mut rng = Mix(seed);
            let p = random_placement(&device, qubits, &mut rng);
            let (decay, gates) = random_pass(qubits, frontier_len, lookahead_len, &mut rng);
            let (frontier, lookahead) = gates.split_at(frontier_len);
            check_scores(&device, &p, &decay, frontier, lookahead);
        }
    }

    #[test]
    fn per_port_scores_equal_score_swap_on_lines_and_grids() {
        // Lines and grids of capacity 2-6 with one to three spaces: every
        // candidate agrees with `score_swap` to the bit, and together the
        // placements hit every per-port case.
        let mut seen = [0usize; 5];
        for capacity in 2..=6 {
            for (kind, traps) in [(0, 3), (0, 4), (1, 4), (1, 6)] {
                for seed in 0..8u64 {
                    let device = tight_device(kind, traps, capacity);
                    let mut rng = Mix(seed * 31 + capacity as u64);
                    let slots = device.graph().num_slots();
                    let qubits = slots - 1 - rng.below(3).min(slots - 3);
                    let p = random_placement(&device, qubits, &mut rng);
                    let (decay, gates) = random_pass(qubits, 1 + rng.below(4), 24, &mut rng);
                    let (frontier, lookahead) = gates.split_at(gates.len() - 24);
                    let hits = check_scores(&device, &p, &decay, frontier, lookahead);
                    for (total, hit) in seen.iter_mut().zip(hits) {
                        *total += hit;
                    }
                }
            }
        }
        for (case, hits) in PORT_CASES.iter().zip(seen) {
            assert!(hits > 0, "no candidate hit {case}");
        }
    }

    #[test]
    fn prefix_resume_covers_shuttles_that_move_the_penalty_both_ways() {
        // Linear L-3 of capacity 3. Trap 0 is full; trap 1 holds one ion at
        // its right port; trap 2 holds two ions, leaving its left port free.
        // Shuttling trap 0's port ion out lowers the penalty; shuttling
        // trap 1's into trap 2 fills trap 2 and raises it, and leaves the
        // capacity as the readiness of trap 2's left port, which the last
        // look-ahead gate reads.
        let device = tight_device(0, 3, 3);
        let mut p = Placement::new(device.topology(), 6);
        for (q, slot) in [(0u32, 0u32), (1, 1), (2, 2), (3, 5), (4, 7), (5, 8)] {
            p.place(Qubit(q), SlotId(slot));
        }
        let config = CompilerConfig::default();
        let decay = DecayTracker::new(6, config.decay_delta, config.decay_reset_interval);
        let gates: Vec<(NodeId, Gate)> = [(0, 5), (2, 3), (1, 4), (0, 3), (2, 5), (4, 5), (3, 4)]
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| (NodeId(i), Gate::Cx(Qubit(a), Qubit(b))))
            .collect();
        let (frontier, lookahead) = gates.split_at(1);
        let [.., filled, _, _] = check_scores(&device, &p, &decay, frontier, lookahead);
        assert!(filled > 0, "the shuttle into trap 2 filled its last space");
        let reference = HeuristicScorer::new(device.graph(), device.router(), &config);
        let full = p.full_trap_count();
        let mut moved = (false, false);
        for swap in GenericSwap::candidates(device.graph(), &p) {
            let pen = reference.penalty_after(&p, &swap);
            moved.0 |= pen < full;
            moved.1 |= pen > full;
        }
        assert_eq!(moved, (true, true), "shuttles lowered and raised the full-trap penalty");
    }
}
