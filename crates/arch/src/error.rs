//! Error type for machine-model construction and placement operations.

use crate::ids::{SlotId, TrapId};
use crate::topology::MAX_TRAP_CAPACITY;
use std::error::Error;
use std::fmt;

/// Errors produced by topology construction or placement manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// A topology was requested with no traps.
    EmptyTopology,
    /// A trap capacity below the minimum of 2 slots was requested (a trap
    /// needs at least one qubit slot plus the room to receive an ion).
    CapacityTooSmall {
        /// The requested per-trap capacity.
        requested: usize,
    },
    /// A trap capacity above [`MAX_TRAP_CAPACITY`] was requested. Compiled
    /// ops store chain lengths and ion distances as `u16`, so no chain may
    /// hold more ions than that.
    CapacityTooLarge {
        /// The requested per-trap capacity.
        requested: usize,
    },
    /// The device does not have enough slots for the requested qubits.
    InsufficientCapacity {
        /// Number of program qubits to place.
        qubits: usize,
        /// Total number of slots on the device.
        slots: usize,
    },
    /// A slot id outside the device was referenced.
    UnknownSlot {
        /// The offending slot.
        slot: SlotId,
    },
    /// A trap id outside the device was referenced.
    UnknownTrap {
        /// The offending trap.
        trap: TrapId,
    },
    /// An attempt was made to place a qubit into an occupied slot.
    SlotOccupied {
        /// The occupied slot.
        slot: SlotId,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::EmptyTopology => write!(f, "topology must contain at least one trap"),
            ArchError::CapacityTooSmall { requested } => {
                write!(f, "trap capacity must be at least 2, got {requested}")
            }
            ArchError::CapacityTooLarge { requested } => {
                write!(f, "trap capacity must be at most {MAX_TRAP_CAPACITY}, got {requested}")
            }
            ArchError::InsufficientCapacity { qubits, slots } => {
                write!(f, "cannot place {qubits} qubits into {slots} slots")
            }
            ArchError::UnknownSlot { slot } => write!(f, "slot {slot} does not exist"),
            ArchError::UnknownTrap { trap } => write!(f, "trap {trap} does not exist"),
            ArchError::SlotOccupied { slot } => write!(f, "slot {slot} is already occupied"),
        }
    }
}

impl Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(ArchError::EmptyTopology.to_string().contains("at least one trap"));
        assert!(ArchError::CapacityTooSmall { requested: 1 }.to_string().contains("at least 2"));
        assert!(ArchError::CapacityTooLarge { requested: 70_000 }
            .to_string()
            .contains("at most 65535"));
        assert!(ArchError::InsufficientCapacity { qubits: 10, slots: 4 }
            .to_string()
            .contains("10 qubits"));
        assert!(ArchError::UnknownSlot { slot: SlotId(7) }.to_string().contains("s7"));
        assert!(ArchError::SlotOccupied { slot: SlotId(2) }.to_string().contains("s2"));
        assert!(ArchError::UnknownTrap { trap: TrapId(9) }.to_string().contains("T9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArchError>();
    }
}
