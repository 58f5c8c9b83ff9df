//! Initial qubit mapping (Sec. 3.4): where a compile's qubits start.
//!
//! Every compiler kind names one [`Start`], and the compile driver
//! ([`crate::driver::compile`]) places from it:
//!
//! * [`Start::TwoLevel`], S-SYNC's two-level scheme ([`build_placement`]).
//!   The **first level** ([`first_level`]) assigns program qubits to traps:
//!   even-divided, gathering, or STA (spatio-temporal-aware), as
//!   [`CompilerConfig::initial_mapping`] selects. The **second level**
//!   ([`intra`]) orders the qubits inside each trap into a "mountain"
//!   shape driven by the look-ahead score `l(q) = −αE(q) + βI(q)` (Eq. 3):
//!   qubits likely to leave the trap soon sit near the chain ends, qubits
//!   that mostly interact locally sit in the middle. Every qubit's score
//!   comes from one walk over the circuit, after the first level has
//!   fixed each qubit's trap.
//! * [`Start::FirstUse`], the first-use packing the other kinds start
//!   from: each trap's qubits sit from its left chain end.
//!
//! Gathering and first-use packing fill the traps with one loop and differ
//! only in their soft caps, the room each trap offers before the loop
//! moves on to the next.

pub mod first_level;
pub mod intra;

use crate::config::CompilerConfig;
use ssync_arch::{Device, Placement, QccdTopology};
use ssync_circuit::Circuit;

/// Where a compile's qubits start. Each compiler kind names its start in
/// one place, and [`crate::driver::compile`] places from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Start {
    /// The two-level scheme of Sec. 3.4 ([`build_placement`]): the
    /// first-level mapping [`CompilerConfig::initial_mapping`] selects,
    /// then the Eq. 3 mountain order inside each trap.
    TwoLevel,
    /// First-use packing: qubits in [`Circuit::first_use_order`] fill the
    /// traps in index order, and each trap's qubits sit from its left
    /// chain end. Each trap takes its capacity minus `reserve` routing
    /// slots when the device has room for that many per trap, and its
    /// capacity minus one otherwise. Qubits left over once every trap is
    /// at that soft cap go to the first trap with a free slot.
    FirstUse {
        /// Routing slots each trap keeps free when the device has room.
        reserve: usize,
    },
}

impl Start {
    /// Places every program qubit of `circuit` on `device`. Only
    /// [`Start::TwoLevel`] reads `config`.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer slots than the circuit has qubits
    /// (the compile driver validates this before calling).
    pub(crate) fn place(
        self,
        circuit: &Circuit,
        device: &Device,
        config: &CompilerConfig,
    ) -> Placement {
        match self {
            Start::TwoLevel => build_placement(circuit, device, config),
            Start::FirstUse { reserve } => first_use_packing(circuit, device.topology(), reserve),
        }
    }
}

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

/// [`Start::FirstUse`]: the first-use fill under its soft caps, each
/// trap's qubits placed from the left chain end.
fn first_use_packing(circuit: &Circuit, topology: &QccdTopology, reserve: usize) -> Placement {
    let n = circuit.num_qubits();
    let room = topology.total_capacity() >= n + reserve * topology.num_traps();
    // Every trap holds at least two ions, so `capacity - 1` is positive.
    let soft_caps: Vec<usize> = topology
        .traps()
        .iter()
        .map(|t| if room { t.capacity().saturating_sub(reserve) } else { t.capacity() - 1 })
        .collect();
    let groups = first_level::first_use_fill(circuit, topology, &soft_caps);
    let mut placement = Placement::new(topology, n);
    for (trap, qubits) in topology.traps().iter().zip(groups) {
        for (pos, qubit) in qubits.into_iter().enumerate() {
            placement.place(qubit, trap.slot_at(pos));
        }
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialMapping;
    use ssync_arch::{QccdTopology, WeightConfig};
    use ssync_circuit::generators::{qft, random_two_qubit_circuit};
    use ssync_circuit::Qubit;

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

    /// First-use packing as it was before it shared gathering's fill loop,
    /// kept as the oracle of [`Start::FirstUse`].
    fn oracle_first_use_packing(
        circuit: &Circuit,
        topology: &QccdTopology,
        reserve: usize,
    ) -> Placement {
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

    /// Gathering as it was before it shared the fill loop, kept as its
    /// oracle.
    fn oracle_gathering(circuit: &Circuit, topology: &QccdTopology) -> Vec<Vec<Qubit>> {
        let n = circuit.num_qubits();
        let total = topology.total_capacity();
        let reserve = total > n + topology.num_traps() / 2;
        let caps: Vec<usize> = topology
            .traps()
            .iter()
            .map(|t| if reserve { t.capacity().saturating_sub(1) } else { t.capacity() })
            .collect();
        let num_traps = topology.num_traps();
        let mut groups: Vec<Vec<Qubit>> = vec![Vec::new(); num_traps];
        let mut trap = 0usize;
        for q in circuit.first_use_order() {
            while trap < num_traps && groups[trap].len() >= caps[trap] {
                trap += 1;
            }
            if trap >= num_traps {
                let fallback = (0..num_traps)
                    .find(|&t| groups[t].len() < topology.traps()[t].capacity())
                    .expect("device has room for every qubit");
                groups[fallback].push(q);
            } else {
                groups[trap].push(q);
            }
        }
        groups
    }

    /// Every qubit count up to a full device, on 1–6 traps of capacity
    /// 2–8 (the smallest a topology accepts), with reserves 0–3: the
    /// tightest devices run out of soft caps, so the fallback places
    /// qubits under both rules.
    #[test]
    fn the_shared_fill_loop_matches_both_former_packers() {
        let gathering = CompilerConfig::default().with_initial_mapping(InitialMapping::Gathering);
        let (mut cases, mut gathering_fallbacks, mut first_use_fallbacks) = (0, 0, 0);
        for traps in 1..=6usize {
            for capacity in 2..=8usize {
                let topo = QccdTopology::linear(traps, capacity);
                let d = device(topo.clone());
                let total = traps * capacity;
                for n in 1..=total {
                    let seed = (100 * traps + 10 * capacity + n) as u64;
                    let circuit = if n >= 2 {
                        random_two_qubit_circuit(n, seed as usize % (2 * n) + 1, seed)
                    } else {
                        let mut c = Circuit::new(1);
                        c.h(Qubit(0));
                        c
                    };
                    let what = format!("{n} qubits on {traps} traps of {capacity}");
                    assert_eq!(
                        first_level::assign_traps(&circuit, &d, &gathering),
                        oracle_gathering(&circuit, &topo),
                        "gathering, {what}"
                    );
                    let spare = total > n + traps / 2;
                    gathering_fallbacks += usize::from(n > total - usize::from(spare) * traps);
                    for reserve in 0..=3 {
                        assert_eq!(
                            Start::FirstUse { reserve }.place(&circuit, &d, &gathering),
                            oracle_first_use_packing(&circuit, &topo, reserve),
                            "first use, reserve {reserve}, {what}"
                        );
                        let kept = if total >= n + reserve * traps { reserve } else { 1 };
                        first_use_fallbacks +=
                            usize::from(n > traps * capacity.saturating_sub(kept));
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 21 * 35);
        assert!(gathering_fallbacks > 0 && first_use_fallbacks > 0);
    }
}
