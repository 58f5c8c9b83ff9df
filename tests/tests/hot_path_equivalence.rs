//! Golden equivalence tests for the scheduler hot-path overhaul.
//!
//! The optimized scheduler ([`Scheduler::run`]: precomputed distance
//! matrix, per-trap candidate enumeration, cached gate scores, reusable
//! scratch buffers) must emit **bit-identical** output to the
//! straightforward transcription of Algorithm 1 ([`Scheduler::run_reference`])
//! for every fixed configuration: same op sequence, same final placement,
//! same search statistics. Any divergence means the optimization changed
//! the algorithm, not just its cost.

use proptest::prelude::*;
use ssync_arch::{Device, DistanceMatrix, QccdTopology, SlotGraph, SlotId, TrapRouter};
use ssync_bench::qasm_corpus::{corpus_dir, load_corpus};
use ssync_circuit::generators::{
    bernstein_vazirani, cuccaro_adder, qaoa_nearest_neighbor, qft, random_two_qubit_circuit,
};
use ssync_circuit::Circuit;
use ssync_core::{
    initial, CompilerConfig, HeuristicScorer, InitialMapping, Scheduler, SchedulerStats,
};

fn topologies() -> Vec<QccdTopology> {
    vec![
        QccdTopology::linear(3, 8),
        QccdTopology::grid(2, 2, 6),
        QccdTopology::fully_connected(3, 7),
    ]
}

/// Runs both scheduler entry points from the same initial placement and
/// asserts bit-identical results. Returns the shared stats so callers can
/// check which paths the run took.
fn assert_bit_identical(
    circuit: &Circuit,
    topo: &QccdTopology,
    config: &CompilerConfig,
) -> SchedulerStats {
    let device = Device::build(topo.clone(), config.weights);
    let placement = initial::build_placement(circuit, &device, config);
    let mut scheduler = Scheduler::new(&device, config);

    let (fast_program, fast_placement) =
        scheduler.run(circuit, placement.clone()).expect("optimized scheduler completes");
    let fast_stats = scheduler.stats();

    let (ref_program, ref_placement) =
        scheduler.run_reference(circuit, placement).expect("reference scheduler completes");
    let ref_stats = scheduler.stats();

    assert_eq!(
        fast_program.ops(),
        ref_program.ops(),
        "op sequences diverge on {} for {}",
        topo.name(),
        circuit.name()
    );
    assert_eq!(fast_stats, ref_stats, "stats diverge on {}", topo.name());
    assert_eq!(fast_placement, ref_placement, "final placements diverge on {}", topo.name());
    fast_placement.validate().expect("final placement is consistent");
    fast_stats
}

#[test]
fn qaoa_is_bit_identical_across_topologies() {
    let circuit = qaoa_nearest_neighbor(16, 2);
    for topo in topologies() {
        assert_bit_identical(&circuit, &topo, &CompilerConfig::default());
    }
}

#[test]
fn adder_is_bit_identical_across_topologies() {
    let circuit = cuccaro_adder(8); // 18 qubits
    for topo in topologies() {
        assert_bit_identical(&circuit, &topo, &CompilerConfig::default());
    }
}

#[test]
fn bv_is_bit_identical_across_topologies() {
    let circuit = bernstein_vazirani(16);
    for topo in topologies() {
        assert_bit_identical(&circuit, &topo, &CompilerConfig::default());
    }
}

#[test]
fn qft_is_bit_identical_on_a_larger_grid() {
    let circuit = qft(20);
    let topo = QccdTopology::grid(2, 3, 6);
    assert_bit_identical(&circuit, &topo, &CompilerConfig::default());
}

#[test]
fn equivalence_holds_for_every_initial_mapping() {
    let circuit = qaoa_nearest_neighbor(12, 2);
    let topo = QccdTopology::grid(2, 2, 5);
    for mapping in InitialMapping::ALL {
        let config = CompilerConfig::default().with_initial_mapping(mapping);
        assert_bit_identical(&circuit, &topo, &config);
    }
}

#[test]
fn equivalence_holds_under_non_default_weights_and_decay() {
    let circuit = cuccaro_adder(6);
    let topo = QccdTopology::linear(4, 5);
    let config = CompilerConfig::default().with_weight_ratio(100.0).with_decay(0.01);
    assert_bit_identical(&circuit, &topo, &config);
}

#[test]
fn equivalence_holds_on_random_circuits_and_tight_devices() {
    for seed in 0..8u64 {
        let circuit = random_two_qubit_circuit(12, 70, seed);
        // 16 slots for 12 qubits: shuttle- and fallback-heavy territory.
        let topo = QccdTopology::grid(2, 2, 4);
        assert_bit_identical(&circuit, &topo, &CompilerConfig::default());
    }
}

/// Every checked-in `workloads/` circuit that fits, on a tight grid that
/// forces routing.
#[test]
fn corpus_is_bit_identical_on_a_tight_grid() {
    let topo = QccdTopology::grid(2, 2, 4);
    let mut compared = 0usize;
    for entry in load_corpus(&corpus_dir()).expect("workloads/ corpus checked in") {
        let circuit = &entry.circuit;
        if circuit.num_qubits() + 1 > topo.total_capacity() || circuit.two_qubit_gate_count() == 0 {
            continue;
        }
        assert_bit_identical(circuit, &topo, &CompilerConfig::default());
        compared += 1;
    }
    assert!(compared > 0, "no corpus circuit fits the tight grid");
}

/// `max_stall_iterations = 0` drives the scheduler into the stall-fallback
/// router almost immediately on a tight device, so the fallback's
/// frontier-gate choice (not just the candidate loop) must match the
/// reference.
#[test]
fn stall_fallback_path_is_bit_identical() {
    let config = CompilerConfig { max_stall_iterations: 0, ..CompilerConfig::default() };
    let topo = QccdTopology::grid(2, 2, 4);
    let mut fallback_seen = false;
    for seed in 0..6u64 {
        let circuit = random_two_qubit_circuit(12, 70, seed);
        let stats = assert_bit_identical(&circuit, &topo, &config);
        fallback_seen |= stats.fallback_routed_gates > 0;
    }
    assert!(fallback_seen, "no run engaged the fallback router — the test lost its teeth");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits on random tight grids.
    #[test]
    fn random_circuits_on_random_grids_are_bit_identical(
        traps in 2usize..4,
        capacity in 4usize..6,
        qubits in 6usize..12,
        gates in 10usize..60,
        seed in 0u64..1_000,
    ) {
        let topo = QccdTopology::grid(2, traps, capacity);
        prop_assume!(topo.total_capacity() > qubits + 1);
        let circuit = random_two_qubit_circuit(qubits, gates, seed);
        assert_bit_identical(&circuit, &topo, &CompilerConfig::default());
    }
}

#[test]
fn distance_matrix_matches_on_the_fly_computation() {
    for topo in [
        QccdTopology::linear(4, 6),
        QccdTopology::grid(2, 3, 5),
        QccdTopology::grid(3, 3, 4),
        QccdTopology::fully_connected(5, 4),
    ] {
        let config = CompilerConfig::default();
        let graph = SlotGraph::new(topo.clone(), config.weights);
        let router = TrapRouter::new(&topo, config.weights);
        let matrix = DistanceMatrix::new(&graph, &router);
        // The scorer without a matrix computes distances on the fly.
        let scorer = HeuristicScorer::new(&graph, &router, &config);
        // Pseudo-random slot pairs (deterministic LCG), plus the diagonal.
        let n = graph.num_slots() as u64;
        let mut state = 0x1234_5678_u64;
        for _ in 0..512 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = SlotId((state >> 16) as u32 % n as u32);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = SlotId((state >> 16) as u32 % n as u32);
            let expected = scorer.slot_distance(a, b);
            let got = matrix.get(a, b);
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "distance({a}, {b}) diverges on {}",
                topo.name()
            );
        }
        for s in 0..graph.num_slots() {
            assert_eq!(matrix.get(SlotId(s as u32), SlotId(s as u32)), 0.0);
        }
    }
}

#[test]
fn distance_matrix_agrees_with_scorer_backed_by_it() {
    let topo = QccdTopology::grid(2, 2, 5);
    let config = CompilerConfig::default();
    let graph = SlotGraph::new(topo.clone(), config.weights);
    let router = TrapRouter::new(&topo, config.weights);
    let matrix = DistanceMatrix::new(&graph, &router);
    let plain = HeuristicScorer::new(&graph, &router, &config);
    let backed = HeuristicScorer::with_distance_matrix(&graph, &router, &config, &matrix);
    for a in 0..graph.num_slots() {
        for b in 0..graph.num_slots() {
            let (sa, sb) = (SlotId(a as u32), SlotId(b as u32));
            assert_eq!(
                plain.slot_distance(sa, sb).to_bits(),
                backed.slot_distance(sa, sb).to_bits()
            );
        }
    }
}
