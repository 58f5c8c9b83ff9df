//! First-level initial mapping: assigning program qubits to traps.

use crate::config::{CompilerConfig, InitialMapping};
use ssync_arch::{Device, QccdTopology, TrapRouter};
use ssync_circuit::{Circuit, InteractionGraph, Qubit};

/// Assigns every program qubit of `circuit` to a trap, returning one qubit
/// list per trap (indexed by trap id). The per-trap lists respect trap
/// capacities; when the device has spare room each trap keeps at least one
/// free slot so it can receive shuttled ions. Trap distances needed by the
/// STA strategy are read from the device's shared router.
pub fn assign_traps(
    circuit: &Circuit,
    device: &Device,
    config: &CompilerConfig,
) -> Vec<Vec<Qubit>> {
    let topology = device.topology();
    match config.initial_mapping {
        InitialMapping::EvenDivided => even_divided(circuit, topology),
        InitialMapping::Gathering => gathering(circuit, topology),
        InitialMapping::Sta => sta(circuit, topology, device.router()),
    }
}

/// The capacity each trap offers to the initial mapping: one slot is
/// reserved for incoming ions whenever the device as a whole has room.
fn usable_capacity(topology: &QccdTopology, num_qubits: usize) -> Vec<usize> {
    let total = topology.total_capacity();
    let reserve = total > num_qubits + topology.num_traps() / 2;
    topology
        .traps()
        .iter()
        .map(|t| if reserve { t.capacity().saturating_sub(1) } else { t.capacity() })
        .collect()
}

/// Even-divided mapping: spread the qubits uniformly over every trap
/// (round-robin in program-qubit order), inspired by distributed-NISQ
/// compilers.
fn even_divided(circuit: &Circuit, topology: &QccdTopology) -> Vec<Vec<Qubit>> {
    let n = circuit.num_qubits();
    let caps = usable_capacity(topology, n);
    let num_traps = topology.num_traps();
    let mut groups: Vec<Vec<Qubit>> = vec![Vec::new(); num_traps];
    let mut trap = 0usize;
    for q in (0..n as u32).map(Qubit) {
        // Find the next trap (round-robin) with room.
        let mut attempts = 0;
        while groups[trap].len() >= caps[trap] && attempts < num_traps {
            trap = (trap + 1) % num_traps;
            attempts += 1;
        }
        if groups[trap].len() >= caps[trap] {
            // Every trap hit its soft cap: fall back to hard capacities.
            let fallback = (0..num_traps)
                .find(|&t| groups[t].len() < topology.traps()[t].capacity())
                .expect("device has room for every qubit");
            groups[fallback].push(q);
        } else {
            groups[trap].push(q);
            trap = (trap + 1) % num_traps;
        }
    }
    groups
}

/// Gathering mapping: cluster qubits into as few traps as possible (in
/// first-use order), leaving one reserved space per trap.
fn gathering(circuit: &Circuit, topology: &QccdTopology) -> Vec<Vec<Qubit>> {
    first_use_fill(circuit, topology, &usable_capacity(topology, circuit.num_qubits()))
}

/// The fill loop of gathering and of first-use packing: qubits in
/// [`Circuit::first_use_order`] fill the traps in index order, each up to
/// its entry of `soft_caps` (at most its capacity), and qubits left over
/// once every trap is at its soft cap go to the first trap with a free
/// slot. Returns one qubit list per trap, in fill order.
///
/// # Panics
///
/// Panics if the device has fewer slots than the circuit has qubits.
pub(super) fn first_use_fill(
    circuit: &Circuit,
    topology: &QccdTopology,
    soft_caps: &[usize],
) -> Vec<Vec<Qubit>> {
    let num_traps = topology.num_traps();
    let mut groups: Vec<Vec<Qubit>> = vec![Vec::new(); num_traps];
    let mut trap = 0usize;
    for q in circuit.first_use_order() {
        while trap < num_traps && groups[trap].len() >= soft_caps[trap] {
            trap += 1;
        }
        let t = if trap < num_traps {
            trap
        } else {
            (0..num_traps)
                .find(|&t| groups[t].len() < topology.traps()[t].capacity())
                .expect("device has room for every qubit")
        };
        groups[t].push(q);
    }
    groups
}

/// STA mapping (Ovide et al. 2024): qubits with stronger and earlier
/// interactions are packed into the same or neighbouring traps. Greedy:
/// qubits are visited in first-use order and each is assigned to the trap
/// that maximises its temporally-discounted attachment to already-placed
/// partners, discounted by the trap distance (read from the device's
/// shared `router`).
fn sta(circuit: &Circuit, topology: &QccdTopology, router: &TrapRouter) -> Vec<Vec<Qubit>> {
    let n = circuit.num_qubits();
    let caps = usable_capacity(topology, n);
    let num_traps = topology.num_traps();
    let interactions = InteractionGraph::with_temporal_discount(circuit, 0.01);
    let mut groups: Vec<Vec<Qubit>> = vec![Vec::new(); num_traps];
    let mut trap_of: Vec<Option<usize>> = vec![None; n];

    for q in circuit.first_use_order() {
        let mut best_trap = None;
        let mut best_score = f64::NEG_INFINITY;
        for t in 0..num_traps {
            if groups[t].len() >= caps[t] {
                continue;
            }
            // Attachment to already-placed partners, attenuated by distance.
            let mut score = 0.0;
            for (p, placed_trap) in trap_of.iter().enumerate() {
                if let Some(pt) = placed_trap {
                    let w = interactions.weight(q, Qubit(p as u32));
                    if w > 0.0 {
                        let hops = router.hops(topology.traps()[t].id(), topology.traps()[*pt].id())
                            as f64;
                        score += w / (1.0 + hops);
                    }
                }
            }
            // Light preference for lower-indexed, partially-filled traps so
            // isolated qubits still cluster instead of scattering.
            score += 0.01 * groups[t].len() as f64 - 0.001 * t as f64;
            if score > best_score {
                best_score = score;
                best_trap = Some(t);
            }
        }
        let t = best_trap.unwrap_or_else(|| {
            (0..num_traps)
                .find(|&t| groups[t].len() < topology.traps()[t].capacity())
                .expect("device has room for every qubit")
        });
        groups[t].push(q);
        trap_of[q.index()] = Some(t);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_circuit::generators::{qaoa_nearest_neighbor, qft};

    fn total_assigned(groups: &[Vec<Qubit>]) -> usize {
        groups.iter().map(Vec::len).sum()
    }

    #[test]
    fn even_divided_spreads_across_all_traps() {
        let circuit = qft(16);
        let topo = QccdTopology::linear(4, 8);
        let groups = even_divided(&circuit, &topo);
        assert_eq!(total_assigned(&groups), 16);
        assert!(groups.iter().all(|g| !g.is_empty()));
        let max = groups.iter().map(Vec::len).max().unwrap();
        let min = groups.iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn gathering_fills_traps_in_order() {
        let circuit = qft(16);
        let topo = QccdTopology::linear(4, 10);
        let groups = gathering(&circuit, &topo);
        assert_eq!(total_assigned(&groups), 16);
        assert_eq!(groups[0].len(), 9); // capacity 10 minus one reserved space
        assert_eq!(groups[1].len(), 7);
        assert!(groups[2].is_empty() && groups[3].is_empty());
    }

    #[test]
    fn sta_keeps_interacting_neighbors_together() {
        let circuit = qaoa_nearest_neighbor(12, 2);
        let topo = QccdTopology::linear(3, 6);
        let config = CompilerConfig::default();
        let router = TrapRouter::new(&topo, config.weights);
        let groups = sta(&circuit, &topo, &router);
        assert_eq!(total_assigned(&groups), 12);
        // Nearest-neighbour chains should mostly keep consecutive qubits in
        // the same trap: count cut edges (consecutive qubits in different traps).
        let mut trap_of = [0usize; 12];
        for (t, g) in groups.iter().enumerate() {
            for q in g {
                trap_of[q.index()] = t;
            }
        }
        let cuts = (0..11).filter(|&i| trap_of[i] != trap_of[i + 1]).count();
        assert!(cuts <= 4, "too many cut edges: {cuts}");
    }

    #[test]
    fn capacities_are_never_exceeded() {
        let circuit = qft(30);
        let topo = QccdTopology::grid(2, 2, 8); // 32 slots, tight fit
        let config = CompilerConfig::default();
        let router = TrapRouter::new(&topo, config.weights);
        for groups in [
            even_divided(&circuit, &topo),
            gathering(&circuit, &topo),
            sta(&circuit, &topo, &router),
        ] {
            assert_eq!(total_assigned(&groups), 30);
            for (g, trap) in groups.iter().zip(topo.traps()) {
                assert!(g.len() <= trap.capacity());
            }
        }
    }
}
