//! # ssync-arch
//!
//! The QCCD (Quantum Charge-Coupled Device) machine model used by the
//! S-SYNC compiler reproduction:
//!
//! * [`Trap`] — a linear ion chain with a bounded capacity and two shuttle
//!   ports (its chain ends),
//! * [`QccdTopology`] — a set of traps connected by shuttle paths, possibly
//!   through junctions; builders for the paper's L-series (linear),
//!   G-series (grid) and S-series (fully-connected) device families
//!   (Fig. 7),
//! * [`SlotGraph`] — the paper's *static* weighted connectivity graph
//!   (Sec. 3.1): every physical slot (a loaded qubit or an empty space) is
//!   a node, intra-trap edges carry a small *inner* weight and inter-trap
//!   edges carry a *shuttle* weight scaled by junction count,
//! * [`Placement`] — the mutable assignment of program qubits to slots,
//! * [`TrapRouter`] — all-pairs shuttle distances / next hops between traps,
//! * [`DistanceMatrix`] — all-pairs slot-to-slot routing distances (the
//!   Eq. 2 `dis` term) precomputed at device-build time for the
//!   scheduler's O(1) inner loop,
//! * [`Device`] — the once-built, immutable bundle of topology + slot
//!   graph + trap router + distance matrix + trap→edge candidate index
//!   that every compile entry point shares (and the compile service
//!   shares across worker threads).
//!
//! ```
//! use ssync_arch::{QccdTopology, SlotGraph, WeightConfig, Placement, TrapId};
//! use ssync_circuit::Qubit;
//!
//! let topo = QccdTopology::grid(2, 3, 17);         // G-2x3, capacity 17
//! assert_eq!(topo.num_traps(), 6);
//! assert_eq!(topo.total_capacity(), 102);
//!
//! let graph = SlotGraph::new(topo.clone(), WeightConfig::default());
//! let mut placement = Placement::new(&topo, 12);
//! let left_end = topo.trap(TrapId(0)).left_end();
//! placement.place(Qubit(0), left_end);
//! assert_eq!(graph.slot_trap(left_end), TrapId(0));
//! assert_eq!(placement.num_placed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod distance;
mod error;
mod graph;
mod ids;
mod placement;
mod routing;
mod topology;
mod trap;

pub use device::Device;
pub use distance::DistanceMatrix;
pub use error::ArchError;
pub use graph::{EdgeKind, SlotEdge, SlotGraph, WeightConfig};
pub use ids::{SlotId, TrapId};
pub use placement::{Placement, RawPlacement};
pub use routing::TrapRouter;
pub use topology::{QccdTopology, Side, TopologyKind, MAX_TRAP_CAPACITY};
pub use trap::Trap;
