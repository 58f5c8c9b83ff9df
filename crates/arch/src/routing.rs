//! Trap-level routing: all-pairs shuttle distances, hop counts and next
//! hops over the inter-trap connectivity graph.

use crate::graph::WeightConfig;
use crate::ids::TrapId;
use crate::topology::QccdTopology;

/// Precomputed all-pairs shortest shuttle routes between traps.
///
/// Distances are measured in *shuttle weight* units (`shuttle_weight ×
/// (junctions + 1)` per link), matching the edge weights of the static
/// slot graph, so the scheduler can score a candidate generic swap in O(1).
///
/// ```
/// use ssync_arch::{QccdTopology, TrapRouter, WeightConfig, TrapId};
/// let topo = QccdTopology::linear(4, 5);
/// let router = TrapRouter::new(&topo, WeightConfig::default());
/// assert_eq!(router.hops(TrapId(0), TrapId(3)), 3);
/// assert_eq!(router.next_hop(TrapId(0), TrapId(3)), Some(TrapId(1)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrapRouter {
    n: usize,
    dist: Vec<f64>,
    hops: Vec<usize>,
    next: Vec<Option<TrapId>>,
}

impl TrapRouter {
    /// Builds the router for `topology` using the shuttle weights of
    /// `weights` (Floyd–Warshall; the trap count is small).
    pub fn new(topology: &QccdTopology, weights: WeightConfig) -> Self {
        let n = topology.num_traps();
        let idx = |a: usize, b: usize| a * n + b;
        let inf = f64::INFINITY;
        let mut dist = vec![inf; n * n];
        let mut hops = vec![usize::MAX; n * n];
        let mut next: Vec<Option<TrapId>> = vec![None; n * n];
        for i in 0..n {
            dist[idx(i, i)] = 0.0;
            hops[idx(i, i)] = 0;
            next[idx(i, i)] = Some(TrapId(i as u32));
        }
        for (a, b, j) in topology.links() {
            let w = weights.shuttle_weight * f64::from(j + 1);
            for (x, y) in [(a.index(), b.index()), (b.index(), a.index())] {
                if w < dist[idx(x, y)] {
                    dist[idx(x, y)] = w;
                    hops[idx(x, y)] = 1;
                    next[idx(x, y)] = Some(TrapId(y as u32));
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[idx(i, k)] + dist[idx(k, j)];
                    if via < dist[idx(i, j)] {
                        dist[idx(i, j)] = via;
                        hops[idx(i, j)] = hops[idx(i, k)] + hops[idx(k, j)];
                        next[idx(i, j)] = next[idx(i, k)];
                    }
                }
            }
        }
        TrapRouter { n, dist, hops, next }
    }

    #[inline]
    fn idx(&self, a: TrapId, b: TrapId) -> usize {
        a.index() * self.n + b.index()
    }

    /// Number of traps covered by this router.
    pub fn num_traps(&self) -> usize {
        self.n
    }

    /// Shuttle-weight distance between two traps (0 for the same trap,
    /// infinite if unreachable).
    pub fn distance(&self, a: TrapId, b: TrapId) -> f64 {
        self.dist[self.idx(a, b)]
    }

    /// Number of inter-trap links on the shortest route.
    pub fn hops(&self, a: TrapId, b: TrapId) -> usize {
        self.hops[self.idx(a, b)]
    }

    /// The next trap to move towards when travelling from `a` to `b`, or
    /// `None` if `b` is unreachable.
    pub fn next_hop(&self, a: TrapId, b: TrapId) -> Option<TrapId> {
        if a == b {
            return Some(a);
        }
        self.next[self.idx(a, b)]
    }

    /// The full trap sequence from `a` to `b`, inclusive of both ends.
    /// Empty if `b` is unreachable.
    pub fn path(&self, a: TrapId, b: TrapId) -> Vec<TrapId> {
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            match self.next_hop(cur, b) {
                Some(n) if n != cur => {
                    path.push(n);
                    cur = n;
                }
                _ => return Vec::new(),
            }
            if path.len() > self.n + 1 {
                return Vec::new();
            }
        }
        path
    }

    /// `true` if every trap can reach every other trap.
    pub fn is_connected(&self) -> bool {
        self.dist.iter().all(|d| d.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_distances_accumulate() {
        let topo = QccdTopology::linear(4, 5);
        let r = TrapRouter::new(&topo, WeightConfig::default());
        assert_eq!(r.distance(TrapId(0), TrapId(0)), 0.0);
        assert_eq!(r.distance(TrapId(0), TrapId(1)), 1.0);
        assert_eq!(r.distance(TrapId(0), TrapId(3)), 3.0);
        assert_eq!(r.hops(TrapId(0), TrapId(3)), 3);
        assert!(r.is_connected());
    }

    #[test]
    fn grid_distances_account_for_junctions() {
        let topo = QccdTopology::grid(2, 3, 5);
        let r = TrapRouter::new(&topo, WeightConfig::default());
        // Each grid link crosses one junction: weight 2.
        assert_eq!(r.distance(TrapId(0), TrapId(1)), 2.0);
        // Opposite corners of the 2x3 grid: 3 hops.
        assert_eq!(r.hops(TrapId(0), TrapId(5)), 3);
        assert_eq!(r.distance(TrapId(0), TrapId(5)), 6.0);
    }

    #[test]
    fn fully_connected_is_always_one_hop() {
        let topo = QccdTopology::fully_connected(5, 4);
        let r = TrapRouter::new(&topo, WeightConfig::default());
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    assert_eq!(r.hops(TrapId(a), TrapId(b)), 1);
                }
            }
        }
    }

    #[test]
    fn path_reconstruction_follows_next_hops() {
        let topo = QccdTopology::linear(5, 3);
        let r = TrapRouter::new(&topo, WeightConfig::default());
        assert_eq!(r.path(TrapId(0), TrapId(3)), vec![TrapId(0), TrapId(1), TrapId(2), TrapId(3)]);
        assert_eq!(r.path(TrapId(2), TrapId(2)), vec![TrapId(2)]);
        assert_eq!(r.next_hop(TrapId(4), TrapId(0)), Some(TrapId(3)));
    }

    #[test]
    fn shortest_path_prefers_fewer_junction_weight() {
        // On a 3x3 grid the two corner-to-corner routes have equal weight;
        // distances must still be symmetric and consistent with hop counts.
        let topo = QccdTopology::grid(3, 3, 4);
        let r = TrapRouter::new(&topo, WeightConfig::default());
        assert_eq!(r.distance(TrapId(0), TrapId(8)), r.distance(TrapId(8), TrapId(0)));
        assert_eq!(r.hops(TrapId(0), TrapId(8)), 4);
    }
}
