//! Initial qubit mapping (Sec. 3.4): a two-level scheme.
//!
//! * **First level** ([`first_level`]) assigns program qubits to traps:
//!   even-divided, gathering, or STA (spatio-temporal-aware).
//! * **Second level** ([`intra`]) orders the qubits inside each trap into a
//!   "mountain" shape driven by the look-ahead score `l(q) = −αE(q) + βI(q)`
//!   (Eq. 3): qubits likely to leave the trap soon sit near the chain ends,
//!   qubits that mostly interact locally sit in the middle. Every qubit's
//!   score comes from one walk over the circuit, after the first level
//!   has fixed each qubit's trap.
//!
//! The other compiler kinds start from [`first_use_packing`] instead.

pub mod first_level;
pub mod intra;

use crate::config::CompilerConfig;
use ssync_arch::{Device, Placement, QccdTopology};
use ssync_circuit::Circuit;

/// Builds the complete initial placement for `circuit` on the shared
/// `device` artifact, using the strategy selected in `config`. Trap
/// routes needed by the STA mapping come from the device's prebuilt
/// [`ssync_arch::TrapRouter`] — nothing is recomputed per placement.
///
/// # Panics
///
/// Panics if the device has fewer slots than the circuit has qubits (the
/// compiler front-end validates this before calling).
pub fn build_placement(circuit: &Circuit, device: &Device, config: &CompilerConfig) -> Placement {
    let topology = device.topology();
    assert!(
        topology.num_slots() >= circuit.num_qubits(),
        "device has {} slots but the circuit needs {}",
        topology.num_slots(),
        circuit.num_qubits()
    );
    let groups = first_level::assign_traps(circuit, device, config);
    let mut trap_of = vec![usize::MAX; circuit.num_qubits()];
    for (trap_idx, qubits) in groups.iter().enumerate() {
        for q in qubits {
            trap_of[q.index()] = trap_idx;
        }
    }
    let scores = intra::location_scores(circuit, &trap_of, config);
    let mut placement = Placement::new(topology, circuit.num_qubits());
    for (trap_idx, qubits) in groups.iter().enumerate() {
        let trap = topology.traps()[trap_idx].id();
        let ordered = intra::mountain_order(qubits, &scores);
        let slots = intra::slot_layout(topology.trap(trap), ordered.len());
        for (qubit, slot) in ordered.into_iter().zip(slots) {
            placement.place(qubit, slot);
        }
    }
    placement
}

/// Sequential first-use packing, the initial placement of the greedy
/// kinds and of perm-route: qubits in [`Circuit::first_use_order`] fill the
/// traps in index order. Each trap takes its capacity minus `reserve`
/// routing slots when the device has room for that many per trap, and
/// its capacity minus one (at least one ion) otherwise. Qubits left over
/// once every trap is at that soft cap go to the first trap with a free
/// slot.
///
/// # Panics
///
/// Panics if the device has fewer slots than the circuit has qubits.
pub fn first_use_packing(circuit: &Circuit, topology: &QccdTopology, reserve: usize) -> Placement {
    let n = circuit.num_qubits();
    let mut placement = Placement::new(topology, n);
    let total: usize = topology.total_capacity();
    let soft_caps: Vec<usize> = topology
        .traps()
        .iter()
        .map(|t| {
            if total >= n + reserve * topology.num_traps() {
                t.capacity().saturating_sub(reserve)
            } else {
                t.capacity().saturating_sub(1).max(1)
            }
        })
        .collect();

    let mut trap = 0usize;
    let mut placed_in_trap = 0usize;
    for q in circuit.first_use_order() {
        while trap < topology.num_traps()
            && (placed_in_trap >= soft_caps[trap]
                || placed_in_trap >= topology.traps()[trap].capacity())
        {
            trap += 1;
            placed_in_trap = 0;
        }
        let t = if trap < topology.num_traps() {
            trap
        } else {
            (0..topology.num_traps())
                .find(|&t| {
                    placement.trap_occupancy(topology.traps()[t].id())
                        < topology.traps()[t].capacity()
                })
                .expect("device has room for every qubit")
        };
        let slot = topology.traps()[t]
            .slots()
            .into_iter()
            .find(|&s| placement.is_space(s))
            .expect("trap below capacity has a free slot");
        placement.place(q, slot);
        if t == trap {
            placed_in_trap += 1;
        }
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialMapping;
    use ssync_arch::{QccdTopology, WeightConfig};
    use ssync_circuit::generators::qft;

    fn device(topo: QccdTopology) -> Device {
        Device::build(topo, WeightConfig::default())
    }

    #[test]
    fn every_strategy_places_every_qubit() {
        let circuit = qft(20);
        let topo = QccdTopology::grid(2, 3, 8);
        for mapping in InitialMapping::ALL {
            let config = CompilerConfig::default().with_initial_mapping(mapping);
            let placement = build_placement(&circuit, &device(topo.clone()), &config);
            assert!(placement.is_complete(), "{mapping:?}");
            placement.validate().unwrap();
        }
    }

    #[test]
    fn gathering_uses_fewer_traps_than_even_divided() {
        let circuit = qft(12);
        let topo = QccdTopology::linear(4, 16);
        let d = device(topo.clone());
        let gathering = build_placement(
            &circuit,
            &d,
            &CompilerConfig::default().with_initial_mapping(InitialMapping::Gathering),
        );
        let even = build_placement(
            &circuit,
            &d,
            &CompilerConfig::default().with_initial_mapping(InitialMapping::EvenDivided),
        );
        let used =
            |p: &Placement| topo.traps().iter().filter(|t| p.trap_occupancy(t.id()) > 0).count();
        assert!(used(&gathering) < used(&even));
    }

    #[test]
    fn no_trap_is_overfilled_and_a_space_remains_where_possible() {
        let circuit = qft(30);
        let topo = QccdTopology::grid(2, 2, 16);
        for mapping in InitialMapping::ALL {
            let config = CompilerConfig::default().with_initial_mapping(mapping);
            let p = build_placement(&circuit, &device(topo.clone()), &config);
            for trap in topo.traps() {
                assert!(p.trap_occupancy(trap.id()) <= trap.capacity());
            }
            // The device has 64 slots for 30 qubits: at least one trap must
            // keep room for incoming ions.
            assert!(p.full_trap_count() < topo.num_traps());
        }
    }

    #[test]
    #[should_panic(expected = "device has")]
    fn too_small_device_panics() {
        let circuit = qft(30);
        let topo = QccdTopology::linear(2, 8);
        build_placement(&circuit, &device(topo), &CompilerConfig::default());
    }
}
