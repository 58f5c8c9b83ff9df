//! The mutable assignment of program qubits to physical slots.

use crate::error::ArchError;
use crate::ids::{SlotId, TrapId};
use crate::topology::QccdTopology;
use serde::{Deserialize, Serialize};
use ssync_circuit::Qubit;

/// A placement (the paper's mapping `π` plus the space recorder): which
/// slot each program qubit occupies, and which qubit — if any — sits in
/// each slot. Unoccupied slots are the *space nodes* of the static graph.
///
/// The placement also tracks per-trap occupancy so that the scheduler's
/// penalty term ("number of traps without internal space nodes", Eq. 2)
/// is O(1) to evaluate.
///
/// ```
/// use ssync_arch::{Placement, QccdTopology, SlotId, TrapId};
/// use ssync_circuit::Qubit;
/// let topo = QccdTopology::linear(2, 3);
/// let mut p = Placement::new(&topo, 2);
/// p.place(Qubit(0), SlotId(0));
/// p.place(Qubit(1), SlotId(4));
/// assert_eq!(p.trap_of(Qubit(1)), Some(TrapId(1)));
/// p.swap_slots(SlotId(0), SlotId(1));
/// assert_eq!(p.slot_of(Qubit(0)), Some(SlotId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    slot_of: Vec<Option<SlotId>>,
    occupant: Vec<Option<Qubit>>,
    slot_trap: Vec<TrapId>,
    trap_capacity: Vec<usize>,
    trap_occupancy: Vec<usize>,
}

/// The raw column vectors of a [`Placement`], exposed for codecs
/// (persistent result caches, wire formats) that must round-trip a
/// placement bit-identically without rebuilding it from a topology.
/// Produced by [`Placement::to_raw`], consumed by [`Placement::from_raw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawPlacement {
    /// Per program qubit: the slot it occupies, if placed.
    pub slot_of: Vec<Option<SlotId>>,
    /// Per physical slot: the qubit occupying it, `None` for space nodes.
    pub occupant: Vec<Option<Qubit>>,
    /// Per physical slot: the trap containing it.
    pub slot_trap: Vec<TrapId>,
    /// Per trap: its slot capacity.
    pub trap_capacity: Vec<usize>,
    /// Per trap: the number of ions currently held.
    pub trap_occupancy: Vec<usize>,
}

impl Placement {
    /// Creates an empty placement for `num_qubits` program qubits on the
    /// given device.
    pub fn new(topology: &QccdTopology, num_qubits: usize) -> Self {
        let num_slots = topology.num_slots();
        let mut slot_trap = vec![TrapId(0); num_slots];
        for trap in topology.traps() {
            for s in trap.slots() {
                slot_trap[s.index()] = trap.id();
            }
        }
        Placement {
            slot_of: vec![None; num_qubits],
            occupant: vec![None; num_slots],
            slot_trap,
            trap_capacity: topology.traps().iter().map(|t| t.capacity()).collect(),
            trap_occupancy: vec![0; topology.num_traps()],
        }
    }

    /// Number of program qubits this placement covers.
    pub fn num_qubits(&self) -> usize {
        self.slot_of.len()
    }

    /// Number of physical slots on the device.
    pub fn num_slots(&self) -> usize {
        self.occupant.len()
    }

    /// Number of qubits currently placed.
    pub fn num_placed(&self) -> usize {
        self.slot_of.iter().filter(|s| s.is_some()).count()
    }

    /// `true` once every program qubit has a slot.
    pub fn is_complete(&self) -> bool {
        self.slot_of.iter().all(Option::is_some)
    }

    /// The slot currently holding `qubit`, if placed.
    #[inline]
    pub fn slot_of(&self, qubit: Qubit) -> Option<SlotId> {
        self.slot_of.get(qubit.index()).copied().flatten()
    }

    /// The trap currently holding `qubit`, if placed.
    pub fn trap_of(&self, qubit: Qubit) -> Option<TrapId> {
        self.slot_of(qubit).map(|s| self.slot_trap[s.index()])
    }

    /// The qubit occupying `slot`, or `None` for a space node.
    #[inline]
    pub fn occupant(&self, slot: SlotId) -> Option<Qubit> {
        self.occupant.get(slot.index()).copied().flatten()
    }

    /// `true` if `slot` is an empty space node.
    #[inline]
    pub fn is_space(&self, slot: SlotId) -> bool {
        self.occupant(slot).is_none()
    }

    /// Places `qubit` into the empty `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied, the qubit is already placed, or
    /// either id is out of range. Use [`Placement::try_place`] for the
    /// fallible variant.
    pub fn place(&mut self, qubit: Qubit, slot: SlotId) {
        self.try_place(qubit, slot).expect("invalid placement");
    }

    /// Fallible variant of [`Placement::place`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownSlot`] or [`ArchError::SlotOccupied`]
    /// when the target is invalid.
    pub fn try_place(&mut self, qubit: Qubit, slot: SlotId) -> Result<(), ArchError> {
        if slot.index() >= self.occupant.len() {
            return Err(ArchError::UnknownSlot { slot });
        }
        if self.occupant[slot.index()].is_some() {
            return Err(ArchError::SlotOccupied { slot });
        }
        assert!(qubit.index() < self.slot_of.len(), "qubit {qubit} out of range");
        assert!(self.slot_of[qubit.index()].is_none(), "qubit {qubit} is already placed");
        self.occupant[slot.index()] = Some(qubit);
        self.slot_of[qubit.index()] = Some(slot);
        self.trap_occupancy[self.slot_trap[slot.index()].index()] += 1;
        Ok(())
    }

    /// Exchanges the contents of two slots (either may be a space node).
    /// This is the primitive behind every *generic swap*.
    ///
    /// # Panics
    ///
    /// Panics if either slot id is out of range.
    pub fn swap_slots(&mut self, a: SlotId, b: SlotId) {
        assert!(a.index() < self.occupant.len(), "slot {a} out of range");
        assert!(b.index() < self.occupant.len(), "slot {b} out of range");
        if a == b {
            return;
        }
        let qa = self.occupant[a.index()];
        let qb = self.occupant[b.index()];
        self.occupant[a.index()] = qb;
        self.occupant[b.index()] = qa;
        if let Some(q) = qa {
            self.slot_of[q.index()] = Some(b);
        }
        if let Some(q) = qb {
            self.slot_of[q.index()] = Some(a);
        }
        let ta = self.slot_trap[a.index()];
        let tb = self.slot_trap[b.index()];
        if ta != tb {
            // Occupancy only changes when the exchange crosses traps.
            if qa.is_some() {
                self.trap_occupancy[ta.index()] -= 1;
                self.trap_occupancy[tb.index()] += 1;
            }
            if qb.is_some() {
                self.trap_occupancy[tb.index()] -= 1;
                self.trap_occupancy[ta.index()] += 1;
            }
        }
    }

    /// Number of ions currently in `trap`.
    #[inline]
    pub fn trap_occupancy(&self, trap: TrapId) -> usize {
        self.trap_occupancy[trap.index()]
    }

    /// Number of free slots in `trap`.
    #[inline]
    pub fn trap_free_slots(&self, trap: TrapId) -> usize {
        self.trap_capacity[trap.index()] - self.trap_occupancy[trap.index()]
    }

    /// `true` if the trap has no space node left.
    #[inline]
    pub fn trap_is_full(&self, trap: TrapId) -> bool {
        self.trap_free_slots(trap) == 0
    }

    /// The number of traps without any internal space node — the penalty
    /// term `Pen` of Eq. 2.
    pub fn full_trap_count(&self) -> usize {
        self.trap_occupancy.iter().zip(&self.trap_capacity).filter(|(occ, cap)| occ >= cap).count()
    }

    /// Exports the placement's raw column vectors, for codecs that persist
    /// or transmit a placement without access to the topology it was built
    /// from. [`Placement::from_raw`] reconstructs a bit-identical value.
    pub fn to_raw(&self) -> RawPlacement {
        RawPlacement {
            slot_of: self.slot_of.clone(),
            occupant: self.occupant.clone(),
            slot_trap: self.slot_trap.clone(),
            trap_capacity: self.trap_capacity.clone(),
            trap_occupancy: self.trap_occupancy.clone(),
        }
    }

    /// Rebuilds a placement from [`Placement::to_raw`] output. Returns
    /// `None` when the vectors are dimensionally inconsistent (truncated or
    /// corrupted input) or fail the internal consistency check — callers
    /// deserializing untrusted bytes treat that as a decode failure rather
    /// than a panic.
    pub fn from_raw(raw: RawPlacement) -> Option<Placement> {
        if raw.occupant.len() != raw.slot_trap.len()
            || raw.trap_capacity.len() != raw.trap_occupancy.len()
        {
            return None;
        }
        if raw.slot_trap.iter().any(|t| t.index() >= raw.trap_capacity.len()) {
            return None;
        }
        if raw.slot_of.iter().any(|s| s.is_some_and(|slot| slot.index() >= raw.occupant.len())) {
            return None;
        }
        if raw.occupant.iter().any(|q| q.is_some_and(|qubit| qubit.index() >= raw.slot_of.len())) {
            return None;
        }
        let placement = Placement {
            slot_of: raw.slot_of,
            occupant: raw.occupant,
            slot_trap: raw.slot_trap,
            trap_capacity: raw.trap_capacity,
            trap_occupancy: raw.trap_occupancy,
        };
        placement.validate().ok()?;
        Some(placement)
    }

    /// Validates internal consistency (every placed qubit's slot points
    /// back at it and occupancy counters match). Used by property tests.
    pub fn validate(&self) -> Result<(), String> {
        for (qi, slot) in self.slot_of.iter().enumerate() {
            if let Some(s) = slot {
                if self.occupant[s.index()] != Some(Qubit(qi as u32)) {
                    return Err(format!("qubit q{qi} points at slot {s} which does not hold it"));
                }
            }
        }
        for (si, occ) in self.occupant.iter().enumerate() {
            if let Some(q) = occ {
                if self.slot_of[q.index()] != Some(SlotId(si as u32)) {
                    return Err(format!("slot s{si} holds {q} which does not point back"));
                }
            }
        }
        let mut counts = vec![0usize; self.trap_occupancy.len()];
        for (si, occ) in self.occupant.iter().enumerate() {
            if occ.is_some() {
                counts[self.slot_trap[si].index()] += 1;
            }
        }
        if counts != self.trap_occupancy {
            return Err("trap occupancy counters out of sync".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (QccdTopology, Placement) {
        let topo = QccdTopology::linear(2, 3);
        let p = Placement::new(&topo, 4);
        (topo, p)
    }

    #[test]
    fn raw_round_trip_and_corrupt_rejection() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(1));
        p.place(Qubit(1), SlotId(4));
        let rebuilt = Placement::from_raw(p.to_raw()).expect("consistent raw parts");
        assert_eq!(p, rebuilt);

        // Out-of-range slot reference in slot_of.
        let mut bad = p.to_raw();
        bad.slot_of[0] = Some(SlotId(999));
        assert!(Placement::from_raw(bad).is_none());
        // Out-of-range qubit reference in occupant (must not panic).
        let mut bad = p.to_raw();
        bad.occupant[1] = Some(Qubit(999));
        assert!(Placement::from_raw(bad).is_none());
        // Mismatched column lengths.
        let mut bad = p.to_raw();
        bad.slot_trap.pop();
        assert!(Placement::from_raw(bad).is_none());
        // Dimensionally fine but semantically inconsistent (occupancy
        // counter off by one).
        let mut bad = p.to_raw();
        bad.trap_occupancy[0] += 1;
        assert!(Placement::from_raw(bad).is_none());
    }

    #[test]
    fn place_and_lookup() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(1));
        p.place(Qubit(1), SlotId(4));
        assert_eq!(p.slot_of(Qubit(0)), Some(SlotId(1)));
        assert_eq!(p.occupant(SlotId(4)), Some(Qubit(1)));
        assert_eq!(p.trap_of(Qubit(1)), Some(TrapId(1)));
        assert_eq!(p.num_placed(), 2);
        assert!(!p.is_complete());
        assert!(p.is_space(SlotId(0)));
        p.validate().unwrap();
    }

    #[test]
    fn try_place_rejects_occupied_and_unknown_slots() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(1));
        assert_eq!(
            p.try_place(Qubit(1), SlotId(1)).unwrap_err(),
            ArchError::SlotOccupied { slot: SlotId(1) }
        );
        assert_eq!(
            p.try_place(Qubit(1), SlotId(99)).unwrap_err(),
            ArchError::UnknownSlot { slot: SlotId(99) }
        );
    }

    #[test]
    fn swap_within_trap_keeps_occupancy() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(2));
        p.swap_slots(SlotId(0), SlotId(2));
        assert_eq!(p.slot_of(Qubit(0)), Some(SlotId(2)));
        assert_eq!(p.slot_of(Qubit(1)), Some(SlotId(0)));
        assert_eq!(p.trap_occupancy(TrapId(0)), 2);
        p.validate().unwrap();
    }

    #[test]
    fn swap_with_space_across_traps_moves_occupancy() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(2)); // right end of trap 0
        assert_eq!(p.trap_occupancy(TrapId(0)), 1);
        p.swap_slots(SlotId(2), SlotId(3)); // shuttle into trap 1's left end
        assert_eq!(p.trap_occupancy(TrapId(0)), 0);
        assert_eq!(p.trap_occupancy(TrapId(1)), 1);
        assert_eq!(p.trap_of(Qubit(0)), Some(TrapId(1)));
        p.validate().unwrap();
    }

    #[test]
    fn full_trap_count_tracks_space_nodes() {
        let topo = QccdTopology::linear(2, 2);
        let mut p = Placement::new(&topo, 3);
        assert_eq!(p.full_trap_count(), 0);
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(1), SlotId(1));
        assert_eq!(p.full_trap_count(), 1);
        assert!(p.trap_is_full(TrapId(0)));
        p.place(Qubit(2), SlotId(2));
        assert_eq!(p.full_trap_count(), 1);
        assert_eq!(p.trap_free_slots(TrapId(1)), 1);
    }

    #[test]
    fn qubits_and_spaces_in_trap_follow_chain_order() {
        let (topo, mut p) = setup();
        p.place(Qubit(2), SlotId(2));
        p.place(Qubit(1), SlotId(0));
        let chain: Vec<_> =
            topo.trap(TrapId(0)).slots().into_iter().map(|s| p.occupant(s)).collect();
        assert_eq!(chain, vec![Some(Qubit(1)), None, Some(Qubit(2))]);
    }

    #[test]
    fn swap_same_slot_is_noop() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(0));
        p.swap_slots(SlotId(0), SlotId(0));
        assert_eq!(p.slot_of(Qubit(0)), Some(SlotId(0)));
        p.validate().unwrap();
    }

    #[test]
    fn assignments_lists_placed_qubits() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(3), SlotId(5));
        let traps: Vec<_> = (0..4).map(|q| p.trap_of(Qubit(q))).collect();
        assert_eq!(traps, vec![Some(TrapId(0)), None, None, Some(TrapId(1))]);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_panics() {
        let (_, mut p) = setup();
        p.place(Qubit(0), SlotId(0));
        p.place(Qubit(0), SlotId(1));
    }
}
