//! QCCD device topologies: traps connected by shuttle paths and junctions.

use crate::error::ArchError;
use crate::ids::{SlotId, TrapId};
use crate::trap::Trap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The largest per-trap capacity a topology accepts: `u16::MAX`, the
/// widest chain count a compiled op stores.
pub const MAX_TRAP_CAPACITY: usize = u16::MAX as usize;

/// The device family of a topology, following Fig. 7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// L-series: traps in a line (Quantinuum "H2"-like).
    Linear,
    /// G-series: traps on a rows × columns grid ("SOL"/"APOLLO"-like).
    Grid {
        /// Number of grid rows.
        rows: usize,
        /// Number of grid columns.
        cols: usize,
    },
    /// S-series: every pair of traps connected through a central switchyard
    /// junction ("HELIOS"-like racetrack abstraction).
    FullyConnected,
}

/// Which chain end of a trap a shuttle path attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The low-position end of the chain.
    Left,
    /// The high-position end of the chain.
    Right,
}

/// A shuttle connection between two traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct TrapEdge {
    a: TrapId,
    b: TrapId,
    junctions: u32,
}

/// A QCCD device: a set of traps plus the shuttle paths between them.
///
/// Use the named constructors ([`QccdTopology::linear`],
/// [`QccdTopology::grid`], [`QccdTopology::fully_connected`]) or the
/// fallible [`QccdTopology::try_linear`]-style variants when the
/// parameters come from user input.
///
/// ```
/// use ssync_arch::QccdTopology;
/// let l4 = QccdTopology::linear(4, 22);
/// assert_eq!(l4.name(), "L-4");
/// assert_eq!(l4.total_capacity(), 88);
/// let g = QccdTopology::grid(3, 3, 12);
/// assert_eq!(g.num_traps(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QccdTopology {
    name: String,
    kind: TopologyKind,
    traps: Vec<Trap>,
    edges: Vec<TrapEdge>,
}

impl QccdTopology {
    fn build(
        name: String,
        kind: TopologyKind,
        capacities: &[usize],
        edges: Vec<TrapEdge>,
    ) -> Result<Self, ArchError> {
        if capacities.is_empty() {
            return Err(ArchError::EmptyTopology);
        }
        if let Some(&c) = capacities.iter().find(|&&c| c < 2) {
            return Err(ArchError::CapacityTooSmall { requested: c });
        }
        if let Some(&c) = capacities.iter().find(|&&c| c > MAX_TRAP_CAPACITY) {
            return Err(ArchError::CapacityTooLarge { requested: c });
        }
        let mut traps = Vec::with_capacity(capacities.len());
        let mut next_slot = 0u32;
        for (i, &cap) in capacities.iter().enumerate() {
            traps.push(Trap::new(TrapId(i as u32), SlotId(next_slot), cap));
            next_slot += cap as u32;
        }
        Ok(QccdTopology { name, kind, traps, edges })
    }

    /// Builds an L-series device: `num_traps` traps in a line, no junctions
    /// on the shuttle paths.
    ///
    /// # Panics
    ///
    /// Panics if `num_traps == 0` or `capacity` is outside
    /// `2..=MAX_TRAP_CAPACITY`.
    pub fn linear(num_traps: usize, capacity: usize) -> Self {
        Self::try_linear(num_traps, capacity).expect("invalid linear topology parameters")
    }

    /// Fallible variant of [`QccdTopology::linear`].
    ///
    /// # Errors
    ///
    /// Returns an error if `num_traps == 0` or `capacity` is outside
    /// `2..=MAX_TRAP_CAPACITY`.
    pub fn try_linear(num_traps: usize, capacity: usize) -> Result<Self, ArchError> {
        let edges = (0..num_traps.saturating_sub(1))
            .map(|i| TrapEdge { a: TrapId(i as u32), b: TrapId(i as u32 + 1), junctions: 0 })
            .collect();
        Self::build(
            format!("L-{num_traps}"),
            TopologyKind::Linear,
            &vec![capacity; num_traps],
            edges,
        )
    }

    /// Builds a G-series device: traps on a `rows × cols` grid; every grid
    /// link passes through one junction.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols == 0` or `capacity` is outside
    /// `2..=MAX_TRAP_CAPACITY`.
    pub fn grid(rows: usize, cols: usize, capacity: usize) -> Self {
        Self::try_grid(rows, cols, capacity).expect("invalid grid topology parameters")
    }

    /// Fallible variant of [`QccdTopology::grid`].
    ///
    /// # Errors
    ///
    /// Returns an error if the grid is empty or `capacity` is outside
    /// `2..=MAX_TRAP_CAPACITY`.
    pub fn try_grid(rows: usize, cols: usize, capacity: usize) -> Result<Self, ArchError> {
        let id = |r: usize, c: usize| TrapId((r * cols + c) as u32);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push(TrapEdge { a: id(r, c), b: id(r, c + 1), junctions: 1 });
                }
                if r + 1 < rows {
                    edges.push(TrapEdge { a: id(r, c), b: id(r + 1, c), junctions: 1 });
                }
            }
        }
        Self::build(
            format!("G-{rows}x{cols}"),
            TopologyKind::Grid { rows, cols },
            &vec![capacity; rows * cols],
            edges,
        )
    }

    /// Builds an S-series device: `num_traps` traps with a direct shuttle
    /// path between every pair, each path crossing one central junction.
    ///
    /// # Panics
    ///
    /// Panics if `num_traps == 0` or `capacity` is outside
    /// `2..=MAX_TRAP_CAPACITY`.
    pub fn fully_connected(num_traps: usize, capacity: usize) -> Self {
        Self::try_fully_connected(num_traps, capacity)
            .expect("invalid fully-connected topology parameters")
    }

    /// Fallible variant of [`QccdTopology::fully_connected`].
    ///
    /// # Errors
    ///
    /// Returns an error if `num_traps == 0` or `capacity` is outside
    /// `2..=MAX_TRAP_CAPACITY`.
    pub fn try_fully_connected(num_traps: usize, capacity: usize) -> Result<Self, ArchError> {
        let mut edges = Vec::new();
        for a in 0..num_traps {
            for b in (a + 1)..num_traps {
                edges.push(TrapEdge { a: TrapId(a as u32), b: TrapId(b as u32), junctions: 1 });
            }
        }
        Self::build(
            format!("S-{num_traps}"),
            TopologyKind::FullyConnected,
            &vec![capacity; num_traps],
            edges,
        )
    }

    /// Builds one of the named device configurations used throughout the
    /// paper's evaluation (Sec. 4.2): `"S-4"`, `"S-6"`, `"L-2"`, `"L-4"`,
    /// `"L-6"`, `"G-2x2"`, `"G-2x3"`, `"G-3x3"` with their default maximum
    /// trap capacities (22, 17, 22, 22, 17, 22, 17, 12 respectively).
    ///
    /// Returns `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        let t = match name {
            "S-4" => Self::fully_connected(4, 22),
            "S-6" => Self::fully_connected(6, 17),
            "L-2" => Self::linear(2, 22),
            "L-4" => Self::linear(4, 22),
            "L-6" => Self::linear(6, 17),
            "G-2x2" => Self::grid(2, 2, 22),
            "G-2x3" => Self::grid(2, 3, 17),
            "G-3x3" => Self::grid(3, 3, 12),
            _ => return None,
        };
        Some(t)
    }

    /// Rebuilds this topology with a different uniform per-trap capacity
    /// (used by the capacity sweeps of Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is outside `2..=MAX_TRAP_CAPACITY`.
    pub fn with_capacity(&self, capacity: usize) -> Self {
        let capacities = vec![capacity; self.traps.len()];
        Self::build(self.name.clone(), self.kind, &capacities, self.edges.clone())
            .expect("existing topology with new capacity is valid")
    }

    /// The device's display name (e.g. `"G-2x3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device family.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of traps.
    pub fn num_traps(&self) -> usize {
        self.traps.len()
    }

    /// All traps, ordered by id.
    pub fn traps(&self) -> &[Trap] {
        &self.traps
    }

    /// The trap with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if the trap does not exist.
    pub fn trap(&self, id: TrapId) -> &Trap {
        &self.traps[id.index()]
    }

    /// Total number of slots across all traps.
    pub fn total_capacity(&self) -> usize {
        self.traps.iter().map(Trap::capacity).sum()
    }

    /// Total number of slots (alias of [`QccdTopology::total_capacity`]).
    pub fn num_slots(&self) -> usize {
        self.total_capacity()
    }

    /// Neighbouring traps of `trap`, with the junction count of each link.
    pub fn neighbors(&self, trap: TrapId) -> Vec<(TrapId, u32)> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.a == trap {
                out.push((e.b, e.junctions));
            } else if e.b == trap {
                out.push((e.a, e.junctions));
            }
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Junction count of the direct link between `a` and `b`, or `None` if
    /// the traps are not directly connected.
    pub fn link_junctions(&self, a: TrapId, b: TrapId) -> Option<u32> {
        self.edges
            .iter()
            .find(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
            .map(|e| e.junctions)
    }

    /// `true` if traps `a` and `b` are directly connected by a shuttle path.
    pub fn are_adjacent(&self, a: TrapId, b: TrapId) -> bool {
        self.link_junctions(a, b).is_some()
    }

    /// The chain end of `trap` that faces `neighbor`.
    ///
    /// The assignment is deterministic: links to lower-numbered traps leave
    /// from the left end, links to higher-numbered traps from the right end.
    /// For a linear device this reproduces the physical layout exactly; for
    /// grids and fully-connected devices it is a consistent convention.
    pub fn port_side(&self, trap: TrapId, neighbor: TrapId) -> Side {
        if neighbor.0 < trap.0 {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// The slot of `trap` that an ion must occupy to shuttle towards
    /// `neighbor` (the chain end on the facing side).
    pub fn port_slot(&self, trap: TrapId, neighbor: TrapId) -> SlotId {
        let t = self.trap(trap);
        match self.port_side(trap, neighbor) {
            Side::Left => t.left_end(),
            Side::Right => t.right_end(),
        }
    }

    /// All shuttle links as `(a, b, junctions)` triples.
    pub fn links(&self) -> Vec<(TrapId, TrapId, u32)> {
        self.edges.iter().map(|e| (e.a, e.b, e.junctions)).collect()
    }
}

impl fmt::Display for QccdTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} traps, capacity {}, {} links)",
            self.name,
            self.num_traps(),
            self.traps.first().map(Trap::capacity).unwrap_or(0),
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_topology_structure() {
        let t = QccdTopology::linear(4, 22);
        assert_eq!(t.num_traps(), 4);
        assert_eq!(t.total_capacity(), 88);
        assert_eq!(t.neighbors(TrapId(0)), vec![(TrapId(1), 0)]);
        assert_eq!(t.neighbors(TrapId(1)), vec![(TrapId(0), 0), (TrapId(2), 0)]);
        assert!(t.are_adjacent(TrapId(2), TrapId(3)));
        assert!(!t.are_adjacent(TrapId(0), TrapId(3)));
        assert_eq!(t.kind(), TopologyKind::Linear);
    }

    #[test]
    fn grid_topology_structure() {
        let t = QccdTopology::grid(2, 3, 17);
        assert_eq!(t.num_traps(), 6);
        assert_eq!(t.name(), "G-2x3");
        // Corner trap has two neighbours, middle trap of the top row has 3.
        assert_eq!(t.neighbors(TrapId(0)).len(), 2);
        assert_eq!(t.neighbors(TrapId(1)).len(), 3);
        assert_eq!(t.link_junctions(TrapId(0), TrapId(1)), Some(1));
        assert_eq!(t.link_junctions(TrapId(0), TrapId(5)), None);
    }

    #[test]
    fn fully_connected_topology_structure() {
        let t = QccdTopology::fully_connected(4, 22);
        assert_eq!(t.links().len(), 6);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert!(t.are_adjacent(TrapId(a), TrapId(b)));
                }
            }
        }
    }

    #[test]
    fn named_configurations_match_paper_capacities() {
        // Sec. 4.2: S-4, G-2x2, G-2x3, G-3x3 have capacities 22, 22, 17, 12.
        let cases = [("S-4", 4, 22), ("G-2x2", 4, 22), ("G-2x3", 6, 17), ("G-3x3", 9, 12)];
        for (name, traps, cap) in cases {
            let t = QccdTopology::named(name).unwrap();
            assert_eq!(t.num_traps(), traps, "{name}");
            assert_eq!(t.trap(TrapId(0)).capacity(), cap, "{name}");
        }
        assert!(QccdTopology::named("X-9").is_none());
    }

    #[test]
    fn slots_are_globally_contiguous() {
        let t = QccdTopology::linear(3, 4);
        assert_eq!(t.trap(TrapId(0)).slots(), vec![SlotId(0), SlotId(1), SlotId(2), SlotId(3)]);
        assert_eq!(t.trap(TrapId(1)).left_end(), SlotId(4));
        assert!(t.trap(TrapId(1)).contains(SlotId(5)));
    }

    #[test]
    fn port_slots_face_the_neighbor() {
        let t = QccdTopology::linear(3, 4);
        // Trap 1's port towards trap 0 is its left end, towards trap 2 its right end.
        assert_eq!(t.port_slot(TrapId(1), TrapId(0)), t.trap(TrapId(1)).left_end());
        assert_eq!(t.port_slot(TrapId(1), TrapId(2)), t.trap(TrapId(1)).right_end());
        assert_eq!(t.port_side(TrapId(1), TrapId(0)), Side::Left);
        assert_eq!(t.port_side(TrapId(1), TrapId(2)), Side::Right);
    }

    #[test]
    fn with_capacity_rescales_every_trap() {
        let t = QccdTopology::grid(2, 2, 22).with_capacity(10);
        assert_eq!(t.total_capacity(), 40);
        assert_eq!(t.name(), "G-2x2");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert_eq!(QccdTopology::try_linear(0, 5).unwrap_err(), ArchError::EmptyTopology);
        assert_eq!(
            QccdTopology::try_linear(3, 1).unwrap_err(),
            ArchError::CapacityTooSmall { requested: 1 }
        );
        assert!(QccdTopology::try_grid(0, 3, 5).is_err());
    }

    #[test]
    fn capacities_beyond_the_op_count_width_are_rejected() {
        assert_eq!(
            QccdTopology::try_linear(2, 70_000).unwrap_err(),
            ArchError::CapacityTooLarge { requested: 70_000 }
        );
        let too_wide = MAX_TRAP_CAPACITY + 1;
        assert_eq!(
            QccdTopology::try_grid(1, 2, too_wide).unwrap_err(),
            ArchError::CapacityTooLarge { requested: too_wide }
        );
        assert!(QccdTopology::try_fully_connected(2, MAX_TRAP_CAPACITY).is_ok());
    }

    #[test]
    fn display_mentions_name_and_traps() {
        let t = QccdTopology::grid(2, 3, 17);
        let s = t.to_string();
        assert!(s.contains("G-2x3"));
        assert!(s.contains("6 traps"));
    }
}
