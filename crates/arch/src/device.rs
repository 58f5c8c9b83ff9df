//! The shared, immutable device artifact.
//!
//! Every compile over a fixed QCCD machine needs the same derived
//! structures: the static [`SlotGraph`], the trap-level [`TrapRouter`],
//! the all-pairs [`DistanceMatrix`] and the trap→edge candidate index the
//! scheduler enumerates generic swaps from. Rebuilding them per compile is
//! pure waste for any sweep — the paper's whole evaluation (Figs. 8–16)
//! compiles many circuits against a handful of fixed devices. A [`Device`]
//! bundles all four, built exactly once via [`Device::build`], and is
//! immutable afterwards: compilers only ever take `&Device`, so one
//! instance can be shared freely across a compile pool's threads.

use crate::distance::DistanceMatrix;
use crate::graph::{SlotGraph, WeightConfig};
use crate::ids::TrapId;
use crate::routing::TrapRouter;
use crate::topology::QccdTopology;

/// A once-built, immutable bundle of every per-device structure the
/// compilers need: topology, static slot graph, trap router, all-pairs
/// slot distances and the per-trap edge index.
///
/// ```
/// use ssync_arch::{Device, QccdTopology, WeightConfig, TrapId};
///
/// let device = Device::build(QccdTopology::grid(2, 3, 17), WeightConfig::default());
/// assert_eq!(device.num_traps(), 6);
/// assert_eq!(device.num_slots(), 102);
/// assert!(device.is_connected());
/// assert!(!device.trap_edges(TrapId(0)).is_empty());
/// ```
#[derive(Debug)]
pub struct Device {
    graph: SlotGraph,
    router: TrapRouter,
    /// The O(slots²) all-pairs matrix is materialised on first use: the
    /// S-SYNC scheduler always needs it, but the greedy baselines (and
    /// capacity-only validation) never do, so a throw-away device for
    /// those paths skips the quadratic work. `OnceLock` keeps the device
    /// shareable across pool workers — whichever thread asks first
    /// builds it, everyone else reads the same instance.
    dist: std::sync::OnceLock<DistanceMatrix>,
    /// Edge indices of the static graph touching each trap (either
    /// endpoint), ascending within each trap.
    trap_edges: Vec<Vec<u32>>,
}

impl Clone for Device {
    fn clone(&self) -> Self {
        let dist = std::sync::OnceLock::new();
        if let Some(d) = self.dist.get() {
            let _ = dist.set(d.clone());
        }
        Device {
            graph: self.graph.clone(),
            router: self.router.clone(),
            dist,
            trap_edges: self.trap_edges.clone(),
        }
    }
}

impl PartialEq for Device {
    fn eq(&self, other: &Self) -> bool {
        // The graph captures topology + weights, from which every other
        // field is deterministically derived.
        self.graph == other.graph
    }
}

impl Device {
    /// Builds every derived structure for `topology` under the given edge
    /// weights. This is the only constructor; everything else is a cheap
    /// accessor.
    pub fn build(topology: QccdTopology, weights: WeightConfig) -> Self {
        let num_traps = topology.num_traps();
        let graph = SlotGraph::new(topology, weights);
        let router = TrapRouter::new(graph.topology(), weights);
        let mut trap_edges: Vec<Vec<u32>> = vec![Vec::new(); num_traps];
        for (i, e) in graph.edges().iter().enumerate() {
            let ta = graph.slot_trap(e.a);
            let tb = graph.slot_trap(e.b);
            trap_edges[ta.index()].push(i as u32);
            if tb != ta {
                trap_edges[tb.index()].push(i as u32);
            }
        }
        Device { graph, router, dist: std::sync::OnceLock::new(), trap_edges }
    }

    /// Builds the device for one of the paper's named topologies
    /// (`"L-6"`, `"G-2x3"`, `"S-4"`, …), or `None` for an unknown name.
    pub fn named(name: &str, weights: WeightConfig) -> Option<Self> {
        QccdTopology::named(name).map(|topo| Device::build(topo, weights))
    }

    /// The underlying machine topology.
    pub fn topology(&self) -> &QccdTopology {
        self.graph.topology()
    }

    /// The edge weights everything was derived under.
    pub fn weights(&self) -> WeightConfig {
        self.graph.weights()
    }

    /// The static weighted slot graph (Sec. 3.1).
    pub fn graph(&self) -> &SlotGraph {
        &self.graph
    }

    /// All-pairs trap shuttle routes.
    pub fn router(&self) -> &TrapRouter {
        &self.router
    }

    /// All-pairs slot routing distances (the Eq. 2 `dis` term), built on
    /// first access and shared by every subsequent caller (thread-safe).
    pub fn distance_matrix(&self) -> &DistanceMatrix {
        self.dist.get_or_init(|| DistanceMatrix::new(&self.graph, &self.router))
    }

    /// Indices into [`SlotGraph::edges`] of every edge touching `trap`
    /// (either endpoint), ascending.
    pub fn trap_edges(&self, trap: TrapId) -> &[u32] {
        &self.trap_edges[trap.index()]
    }

    /// The full trap→edge candidate index, indexed by trap.
    pub fn trap_edge_index(&self) -> &[Vec<u32>] {
        &self.trap_edges
    }

    /// Number of traps.
    pub fn num_traps(&self) -> usize {
        self.topology().num_traps()
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.graph.num_slots()
    }

    /// `true` if every trap can reach every other trap.
    pub fn is_connected(&self) -> bool {
        self.router.is_connected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotId;

    #[test]
    fn build_bundles_consistent_structures() {
        let device = Device::build(QccdTopology::grid(2, 2, 5), WeightConfig::default());
        assert_eq!(device.num_traps(), 4);
        assert_eq!(device.num_slots(), 20);
        assert_eq!(device.distance_matrix().num_slots(), device.num_slots());
        assert_eq!(device.router().num_traps(), device.num_traps());
        assert!(device.is_connected());
    }

    #[test]
    fn trap_edge_index_covers_every_edge_exactly_per_endpoint_trap() {
        let device = Device::build(QccdTopology::linear(3, 4), WeightConfig::default());
        let mut seen = 0usize;
        for trap in device.topology().traps() {
            let edges = device.trap_edges(trap.id());
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "ascending within a trap");
            for &e in edges {
                let edge = device.graph().edges()[e as usize];
                let ta = device.graph().slot_trap(edge.a);
                let tb = device.graph().slot_trap(edge.b);
                assert!(ta == trap.id() || tb == trap.id());
                seen += 1;
            }
        }
        // Intra-trap edges appear once, inter-trap edges twice.
        let inter =
            device.graph().edges().iter().filter(|e| !device.graph().same_trap(e.a, e.b)).count();
        assert_eq!(seen, device.graph().edges().len() + inter);
    }

    #[test]
    fn named_devices_resolve_like_topologies() {
        let device = Device::named("G-2x3", WeightConfig::default()).unwrap();
        assert_eq!(device.topology().name(), "G-2x3");
        assert!(Device::named("nope", WeightConfig::default()).is_none());
    }

    #[test]
    fn distance_matrix_is_shared_not_recomputed() {
        let device = Device::build(QccdTopology::linear(2, 3), WeightConfig::default());
        // Spot-check the matrix against the doc-tested values.
        assert_eq!(device.distance_matrix().get(SlotId(0), SlotId(2)), 0.002);
        assert!((device.distance_matrix().get(SlotId(2), SlotId(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_matrix_is_built_once_and_shared() {
        let device = Device::build(QccdTopology::linear(2, 3), WeightConfig::default());
        let first: *const DistanceMatrix = device.distance_matrix();
        let second: *const DistanceMatrix = device.distance_matrix();
        assert!(std::ptr::eq(first, second), "lazy matrix must be materialised exactly once");
        // A clone of a device with a computed matrix keeps the values.
        let clone = device.clone();
        assert_eq!(clone.distance_matrix().get(SlotId(0), SlotId(2)), 0.002);
        assert_eq!(device, clone);
    }

    #[test]
    fn device_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
    }
}
