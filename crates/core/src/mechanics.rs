//! Low-level placement mechanics shared by the S-SYNC scheduler, its
//! deterministic fallback router and the baseline compilers.
//!
//! Every routine mutates a [`Placement`] and appends the corresponding
//! hardware operations to a [`CompiledProgram`], so op counts and the
//! timing/fidelity evaluation stay consistent no matter which compiler
//! produced the movement.

use ssync_arch::{Placement, SlotGraph, SlotId, TrapId, TrapRouter};
use ssync_circuit::Qubit;
use ssync_sim::{CompiledProgram, ScheduledOp};
use std::collections::VecDeque;

/// Narrows a chain count (ions in a chain, positions between two ions,
/// reorder steps) to the `u16` a [`ScheduledOp`] stores. Every op emitter
/// narrows through here. Each such count is bounded by one trap's
/// capacity, and `QccdTopology` rejects capacities above
/// [`ssync_arch::MAX_TRAP_CAPACITY`] (`u16::MAX`), so this cannot fail on
/// a valid device.
///
/// # Panics
///
/// Panics if `n` exceeds `u16::MAX`.
pub(crate) fn op_count(n: usize) -> u16 {
    u16::try_from(n).expect("chain counts never exceed the u16 trap capacity cap")
}

/// Placement-mechanics helper bound to a device graph and trap router.
#[derive(Debug, Clone, Copy)]
pub struct Mechanics<'a> {
    graph: &'a SlotGraph,
    router: &'a TrapRouter,
}

impl<'a> Mechanics<'a> {
    /// Creates a mechanics helper for the given device.
    pub fn new(graph: &'a SlotGraph, router: &'a TrapRouter) -> Self {
        Mechanics { graph, router }
    }

    /// The device graph this helper operates on.
    pub fn graph(&self) -> &SlotGraph {
        self.graph
    }

    /// The trap router this helper operates on.
    pub fn router(&self) -> &TrapRouter {
        self.router
    }

    /// Chain distance between two ions of the same trap measured in ions:
    /// adjacent ions have distance 1, with `k` ions strictly between them
    /// the distance is `k + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the slots are in different traps.
    pub fn ion_distance(&self, placement: &Placement, a: SlotId, b: SlotId) -> usize {
        assert!(self.graph.same_trap(a, b), "ion distance requires a single trap");
        if a == b {
            return 0;
        }
        let trap = self.graph.topology().trap(self.graph.slot_trap(a));
        let (pa, pb) = (self.graph.slot_position(a), self.graph.slot_position(b));
        let (lo, hi) = if pa < pb { (pa, pb) } else { (pb, pa) };
        // Trap slots are contiguous: walk the positions directly instead of
        // materialising the slot list.
        let between =
            (lo + 1..hi).filter(|&p| placement.occupant(trap.slot_at(p)).is_some()).count();
        between + 1
    }

    /// Emits a two-qubit gate between `a` and `b`, which must share a trap.
    ///
    /// # Panics
    ///
    /// Panics if the qubits are unplaced or in different traps.
    pub fn emit_two_qubit_gate(
        &self,
        placement: &Placement,
        program: &mut CompiledProgram,
        a: Qubit,
        b: Qubit,
    ) {
        let sa = placement.slot_of(a).expect("qubit a must be placed");
        let sb = placement.slot_of(b).expect("qubit b must be placed");
        assert!(self.graph.same_trap(sa, sb), "two-qubit gate requires a shared trap");
        let trap = self.graph.slot_trap(sa);
        program.push(ScheduledOp::TwoQubitGate {
            a,
            b,
            trap,
            chain_len: op_count(placement.trap_occupancy(trap)),
            ion_distance: op_count(self.ion_distance(placement, sa, sb)),
        });
    }

    /// Shifts a space node of the target slot's trap until `target` itself
    /// is empty, using physical reorders only. Returns the number of
    /// single-position shifts performed.
    ///
    /// # Panics
    ///
    /// Panics if the trap has no free slot.
    pub fn free_slot(
        &self,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        target: SlotId,
    ) -> usize {
        if placement.is_space(target) {
            return 0;
        }
        let trap = self.graph.slot_trap(target);
        let trap_ref = self.graph.topology().trap(trap);
        let target_pos = self.graph.slot_position(target);
        // Scan chain positions directly (slots are contiguous) for the
        // space nearest to the target; ties break towards the left end.
        let mut nearest: Option<usize> = None;
        for pos in 0..trap_ref.capacity() {
            if placement.is_space(trap_ref.slot_at(pos)) {
                let d = pos.abs_diff(target_pos);
                if nearest.is_none_or(|best| d < best.abs_diff(target_pos)) {
                    nearest = Some(pos);
                }
            }
        }
        let mut pos = nearest.expect("trap must have a free slot to clear the target");
        let mut steps = 0;
        while pos != target_pos {
            let next = if pos < target_pos { pos + 1 } else { pos - 1 };
            placement.swap_slots(trap_ref.slot_at(pos), trap_ref.slot_at(next));
            program.push(ScheduledOp::IonReorder { trap, steps: 1 });
            pos = next;
            steps += 1;
        }
        steps
    }

    /// Moves `qubit` to `target` within its trap. Passing an empty slot is a
    /// physical reorder; passing an occupied slot inserts a SWAP gate.
    /// Returns the number of inserted SWAP gates.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is unplaced or the target is in another trap.
    pub fn bring_qubit_to_slot(
        &self,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        qubit: Qubit,
        target: SlotId,
    ) -> usize {
        let start = placement.slot_of(qubit).expect("qubit must be placed");
        assert!(self.graph.same_trap(start, target), "target slot must be in the qubit's trap");
        let trap = self.graph.slot_trap(start);
        let trap_ref = self.graph.topology().trap(trap);
        let mut pos = self.graph.slot_position(start);
        let target_pos = self.graph.slot_position(target);
        let mut swaps = 0;
        while pos != target_pos {
            let next = if pos < target_pos { pos + 1 } else { pos - 1 };
            let next_slot = trap_ref.slot_at(next);
            match placement.occupant(next_slot) {
                Some(other) => {
                    program.push(ScheduledOp::SwapGate {
                        a: qubit,
                        b: other,
                        trap,
                        chain_len: op_count(placement.trap_occupancy(trap)),
                        ion_distance: 1,
                    });
                    swaps += 1;
                }
                None => {
                    program.push(ScheduledOp::IonReorder { trap, steps: 1 });
                }
            }
            placement.swap_slots(trap_ref.slot_at(pos), next_slot);
            pos = next;
        }
        swaps
    }

    /// Shuttles `qubit` from its trap into the adjacent trap `to`,
    /// inserting the SWAP gates / reorders needed to reach the facing ports.
    ///
    /// # Panics
    ///
    /// Panics if the traps are not adjacent or `to` has no free slot.
    pub fn shuttle_to_adjacent(
        &self,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        qubit: Qubit,
        to: TrapId,
    ) {
        let from = placement.trap_of(qubit).expect("qubit must be placed");
        assert_ne!(from, to, "qubit is already in the destination trap");
        let junctions = self
            .graph
            .topology()
            .link_junctions(from, to)
            .expect("traps must be adjacent to shuttle");
        assert!(placement.trap_free_slots(to) > 0, "destination trap must have a free slot");
        let exit = self.graph.topology().port_slot(from, to);
        let entry = self.graph.topology().port_slot(to, from);
        self.bring_qubit_to_slot(placement, program, qubit, exit);
        self.free_slot(placement, program, entry);
        let source_chain_len = op_count(placement.trap_occupancy(from));
        let dest_chain_len = op_count(placement.trap_occupancy(to) + 1);
        placement.swap_slots(exit, entry);
        program.push(ScheduledOp::Shuttle {
            qubit,
            from_trap: from,
            to_trap: to,
            junctions,
            segments: 1,
            source_chain_len,
            dest_chain_len,
        });
    }

    /// Ensures `trap` has at least `needed` free slots by cascading ions
    /// towards the nearest traps that still have room, never evicting a
    /// qubit listed in `protect` unless no other ion is available. Returns
    /// `false` if the device has no free slot anywhere to borrow.
    pub fn make_space(
        &self,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        trap: TrapId,
        needed: usize,
        protect: &[Qubit],
    ) -> bool {
        while placement.trap_free_slots(trap) < needed {
            let Some(path) = self.path_to_nearest_space(placement, trap) else {
                return false;
            };
            // Cascade: free one slot in each trap along the path, starting
            // from the end that already has room.
            for j in (0..path.len() - 1).rev() {
                let src = path[j];
                let dst = path[j + 1];
                let port = self.graph.topology().port_slot(src, dst);
                let evict = self
                    .nearest_qubit_to(placement, src, port, protect)
                    .or_else(|| self.nearest_qubit_to(placement, src, port, &[]))
                    .expect("source trap on an eviction path holds at least one ion");
                self.shuttle_to_adjacent(placement, program, evict, dst);
            }
        }
        true
    }

    /// Moves `qubit` into `dest`, hop by hop along the shortest trap route,
    /// making space in intermediate traps as required. Returns `false` only
    /// if space could not be created along the way (or the routing failed to
    /// converge, which indicates an internal error).
    pub fn move_qubit_to_trap(
        &self,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        qubit: Qubit,
        dest: TrapId,
    ) -> bool {
        let budget = 8 * self.graph.topology().num_traps() + self.graph.num_slots() + 16;
        for _ in 0..budget {
            let current = placement.trap_of(qubit).expect("qubit must be placed");
            if current == dest {
                return true;
            }
            let Some(next) = self.router.next_hop(current, dest) else {
                return false;
            };
            if placement.trap_free_slots(next) == 0 {
                if !self.make_space(placement, program, next, 1, &[qubit]) {
                    return false;
                }
                // Making space may have reshuffled ions (including, in the
                // worst case, `qubit` itself): re-evaluate before shuttling.
                continue;
            }
            self.shuttle_to_adjacent(placement, program, qubit, next);
        }
        placement.trap_of(qubit) == Some(dest)
    }

    /// Routes a gate directly: moves `mover` into `anchor`'s trap, first
    /// making space there if that trap is full (evicting neither operand
    /// while another ion can go). Returns `false` if the move failed.
    pub fn route_directly(
        &self,
        placement: &mut Placement,
        program: &mut CompiledProgram,
        mover: Qubit,
        anchor: Qubit,
    ) -> bool {
        let dest = placement.trap_of(anchor).expect("anchor must be placed");
        if placement.trap_free_slots(dest) == 0 {
            self.make_space(placement, program, dest, 1, &[mover, anchor]);
        }
        // Making space may have moved the anchor on.
        let dest = placement.trap_of(anchor).expect("anchor must be placed");
        self.move_qubit_to_trap(placement, program, mover, dest)
    }

    /// BFS over the trap graph from `start` to the nearest trap with a free
    /// slot, returning the trap path (inclusive). `None` if no trap has room.
    fn path_to_nearest_space(&self, placement: &Placement, start: TrapId) -> Option<Vec<TrapId>> {
        let topo = self.graph.topology();
        let n = topo.num_traps();
        let mut prev: Vec<Option<TrapId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[start.index()] = true;
        queue.push_back(start);
        while let Some(t) = queue.pop_front() {
            if t != start && placement.trap_free_slots(t) > 0 {
                // Reconstruct the path.
                let mut path = vec![t];
                let mut cur = t;
                while let Some(p) = prev[cur.index()] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for (nb, _) in topo.neighbors(t) {
                if !visited[nb.index()] {
                    visited[nb.index()] = true;
                    prev[nb.index()] = Some(t);
                    queue.push_back(nb);
                }
            }
        }
        None
    }

    /// The ion of `trap` closest to `slot` (in chain positions), skipping
    /// any qubit listed in `protect`.
    fn nearest_qubit_to(
        &self,
        placement: &Placement,
        trap: TrapId,
        slot: SlotId,
        protect: &[Qubit],
    ) -> Option<Qubit> {
        let target_pos = self.graph.slot_position(slot);
        let trap_ref = self.graph.topology().trap(trap);
        (0..trap_ref.capacity())
            .filter_map(|pos| placement.occupant(trap_ref.slot_at(pos)).map(|q| (q, pos)))
            .filter(|(q, _)| !protect.contains(q))
            .min_by_key(|&(_, pos)| pos.abs_diff(target_pos))
            .map(|(q, _)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::{QccdTopology, WeightConfig};

    fn device(traps: usize, cap: usize) -> (SlotGraph, TrapRouter) {
        let topo = QccdTopology::linear(traps, cap);
        let graph = SlotGraph::new(topo.clone(), WeightConfig::default());
        let router = TrapRouter::new(&topo, WeightConfig::default());
        (graph, router)
    }

    #[test]
    fn ion_distance_skips_spaces() {
        let (graph, router) = device(1, 5);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 3);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(2));
        p.place(Qubit(2), SlotId(4));
        assert_eq!(m.ion_distance(&p, SlotId(0), SlotId(4)), 2); // one ion between
        assert_eq!(m.ion_distance(&p, SlotId(0), SlotId(2)), 1); // space between
        assert_eq!(m.ion_distance(&p, SlotId(2), SlotId(2)), 0);
    }

    #[test]
    fn free_slot_shifts_nearest_space() {
        let (graph, router) = device(1, 4);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 3);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(1));
        p.place(Qubit(2), SlotId(2));
        let mut prog = CompiledProgram::new(3, 1);
        let steps = m.free_slot(&mut p, &mut prog, SlotId(0));
        assert_eq!(steps, 3);
        assert!(p.is_space(SlotId(0)));
        assert_eq!(prog.counts().reorders, 3);
        assert_eq!(prog.counts().swap_gates, 0);
        p.validate().unwrap();
    }

    #[test]
    fn bring_qubit_swaps_past_occupied_and_reorders_past_spaces() {
        let (graph, router) = device(1, 4);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 2);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(1));
        let mut prog = CompiledProgram::new(2, 1);
        let swaps = m.bring_qubit_to_slot(&mut p, &mut prog, Qubit(0), SlotId(3));
        assert_eq!(swaps, 1); // one swap past qubit 1, then reorders over spaces
        assert_eq!(p.slot_of(Qubit(0)), Some(SlotId(3)));
        assert_eq!(prog.counts().swap_gates, 1);
        assert_eq!(prog.counts().reorders, 2);
        p.validate().unwrap();
    }

    #[test]
    fn shuttle_to_adjacent_emits_full_sequence() {
        let (graph, router) = device(2, 3);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 3);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(1));
        p.place(Qubit(2), SlotId(3)); // trap 1 entry port occupied
        let mut prog = CompiledProgram::new(3, 2);
        m.shuttle_to_adjacent(&mut p, &mut prog, Qubit(0), TrapId(1));
        assert_eq!(p.trap_of(Qubit(0)), Some(TrapId(1)));
        let counts = prog.counts();
        assert_eq!(counts.shuttles, 1);
        // Qubit 0 had to pass qubit 1 (one SWAP) and trap 1's port had to be
        // cleared (reorders).
        assert_eq!(counts.swap_gates, 1);
        assert!(counts.reorders >= 1);
        p.validate().unwrap();
    }

    #[test]
    fn make_space_cascades_ions_away() {
        let (graph, router) = device(3, 2);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 4);
        // Trap 0 and trap 1 full, trap 2 empty.
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(1));
        p.place(Qubit(2), SlotId(2));
        p.place(Qubit(3), SlotId(3));
        let mut prog = CompiledProgram::new(4, 3);
        assert!(m.make_space(&mut p, &mut prog, TrapId(0), 1, &[]));
        assert!(p.trap_free_slots(TrapId(0)) >= 1);
        assert!(prog.counts().shuttles >= 1);
        p.validate().unwrap();
    }

    #[test]
    fn make_space_fails_on_a_full_device() {
        let (graph, router) = device(2, 2);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 4);
        for i in 0..4u32 {
            p.place(Qubit(i), SlotId(i));
        }
        let mut prog = CompiledProgram::new(4, 2);
        assert!(!m.make_space(&mut p, &mut prog, TrapId(0), 1, &[]));
    }

    #[test]
    fn move_qubit_multi_hop() {
        let (graph, router) = device(4, 3);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 2);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(11)); // trap 3
        let mut prog = CompiledProgram::new(2, 4);
        assert!(m.move_qubit_to_trap(&mut p, &mut prog, Qubit(0), TrapId(3)));
        assert_eq!(p.trap_of(Qubit(0)), Some(TrapId(3)));
        assert_eq!(prog.counts().shuttles, 3);
        p.validate().unwrap();
    }

    #[test]
    fn route_directly_moves_the_mover_to_the_anchor() {
        let (graph, router) = device(3, 3);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 2);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(8));
        let mut prog = CompiledProgram::new(2, 3);
        assert!(m.route_directly(&mut p, &mut prog, Qubit(0), Qubit(1)));
        assert_eq!(prog.counts().shuttles, 2);
        assert_eq!(p.trap_of(Qubit(0)), p.trap_of(Qubit(1)));
        assert_eq!(p.trap_of(Qubit(1)), Some(TrapId(2)));
    }

    #[test]
    fn route_directly_makes_space_without_evicting_an_operand() {
        let (graph, router) = device(3, 2);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 4);
        // Trap 1 is full: a bystander (qubit 2), then the anchor (qubit 1)
        // at the port that faces trap 2, the only trap with room.
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(2), SlotId(2));
        p.place(Qubit(1), SlotId(3));
        p.place(Qubit(3), SlotId(1));
        let mut prog = CompiledProgram::new(4, 3);
        assert!(m.route_directly(&mut p, &mut prog, Qubit(0), Qubit(1)));
        assert_eq!(p.trap_of(Qubit(0)), Some(TrapId(1)));
        assert_eq!(p.trap_of(Qubit(1)), Some(TrapId(1)));
        assert_eq!(p.trap_of(Qubit(2)), Some(TrapId(2)), "the bystander made room");
        p.validate().unwrap();
    }

    #[test]
    fn emit_gate_records_chain_shape() {
        let (graph, router) = device(1, 6);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 4);
        for i in 0..4u32 {
            p.place(Qubit(i), SlotId(i));
        }
        let mut prog = CompiledProgram::new(4, 1);
        m.emit_two_qubit_gate(&p, &mut prog, Qubit(0), Qubit(3));
        match prog.ops()[0] {
            ScheduledOp::TwoQubitGate { chain_len, ion_distance, .. } => {
                assert_eq!(chain_len, 4);
                assert_eq!(ion_distance, 3);
            }
            _ => panic!("expected a two-qubit gate"),
        }
    }

    #[test]
    #[should_panic(expected = "shared trap")]
    fn emit_gate_across_traps_panics() {
        let (graph, router) = device(2, 2);
        let m = Mechanics::new(&graph, &router);
        let mut p = Placement::new(graph.topology(), 2);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(2));
        let mut prog = CompiledProgram::new(2, 2);
        m.emit_two_qubit_gate(&p, &mut prog, Qubit(0), Qubit(1));
    }
}
