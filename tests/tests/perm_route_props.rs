//! The permutation-routing test battery.
//!
//! Pins the contracts future routing work must keep green:
//!
//! * **schedule validity** — every [`SwapSchedule`] implementation
//!   composes to the identity-check target for random permutations up to
//!   n = 128 (each object lands exactly at its target rank);
//! * **sub-quadratic bound** — `RecursiveSplitTwo`'s comparator count
//!   stays under the O(n^1.6) bound constant, and from n = 32 up it emits
//!   *strictly fewer* swaps than `BubbleSort`;
//! * **oracle exactness** — bubble-sort's selected-swap count equals the
//!   permutation's inversion count, the adjacent-swap optimum;
//! * **cost monotonicity** — the Eq. 2 swap/meeting cost terms grow
//!   strictly with ion distance, chain length, hops and occupancy;
//! * **compiler-level equivalence** — `CompilerKind::PermRoute` under the
//!   bubble oracle and the production schedule agree on everything except
//!   the SWAP-gate stream.

use proptest::prelude::*;
use ssync_arch::{Device, QccdTopology, WeightConfig};
use ssync_baselines::CompilerKind;
use ssync_circuit::generators::random_two_qubit_circuit;
use ssync_core::{
    meeting_cost, swap_cost, BubbleSort, CompilerConfig, RecursiveSplitTwo, SwapSchedule,
    SwapScheduleKind,
};
use ssync_sim::ScheduledOp;

/// Deterministic xorshift shuffle of `0..n` — proptest supplies the seed,
/// the shuffle keeps the case reproducible from it.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        v.swap(i, (state as usize) % (i + 1));
    }
    v
}

fn inversions(perm: &[usize]) -> usize {
    let mut count = 0;
    for i in 0..perm.len() {
        for j in i + 1..perm.len() {
            if perm[i] > perm[j] {
                count += 1;
            }
        }
    }
    count
}

/// Applies the selected swaps of `kind` to labelled objects and asserts
/// the realisation is exact: object `o` (starting at rank `o`) ends at
/// rank `targets[o]`, and the in-place permutation is fully sorted.
fn assert_composes_to_identity(kind: SwapScheduleKind, targets: &[usize]) -> usize {
    let n = targets.len();
    let mut scratch = targets.to_vec();
    let mut objects: Vec<usize> = (0..n).collect();
    let mut selected = 0usize;
    for (fired, i, j) in kind.permutation_to_swap_schedule(&mut scratch) {
        if fired {
            objects.swap(i, j);
            selected += 1;
        }
    }
    assert_eq!(scratch, (0..n).collect::<Vec<_>>(), "{kind:?}: not sorted in place");
    for (rank, &object) in objects.iter().enumerate() {
        assert_eq!(targets[object], rank, "{kind:?}: object {object} ended at rank {rank}");
    }
    selected
}

/// The O(n^1.6) bound constant the battery enforces. Batcher's network is
/// Θ(n·log²n), which sits below `2·n^1.6` for every n ≥ 2 (the worst
/// ratios are just above the power-of-two paddings).
fn sub_quadratic_bound(n: usize) -> usize {
    (2.0 * (n as f64).powf(1.6)).ceil() as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule implementation realises every random permutation
    /// up to n = 128 exactly.
    #[test]
    fn every_schedule_composes_to_the_identity_target(
        n in 1usize..129,
        seed in 0u64..1_000_000,
    ) {
        let targets = permutation(n, seed);
        for kind in SwapScheduleKind::ALL {
            assert_composes_to_identity(kind, &targets);
        }
    }

    /// Bubble-sort is the exact adjacent-swap oracle: its selected-swap
    /// count equals the inversion count of the realised permutation.
    #[test]
    fn bubble_sort_selects_exactly_the_inversion_count(
        n in 1usize..129,
        seed in 0u64..1_000_000,
    ) {
        let targets = permutation(n, seed);
        let selected = assert_composes_to_identity(SwapScheduleKind::BubbleSort, &targets);
        prop_assert_eq!(selected, inversions(&targets));
    }

    /// The production schedule stays under the O(n^1.6) bound constant
    /// and — the acceptance bar — emits strictly fewer swaps than the
    /// bubble oracle for every permutation with n ≥ 32.
    #[test]
    fn recursive_split_two_is_sub_quadratic_and_beats_bubble_from_32_up(
        n in 32usize..129,
        seed in 0u64..1_000_000,
    ) {
        let targets = permutation(n, seed);
        let mut bubble_scratch = targets.clone();
        let mut recursive_scratch = targets.clone();
        let bubble_emitted =
            BubbleSort::permutation_to_swap_schedule(&mut bubble_scratch).len();
        let recursive_emitted =
            RecursiveSplitTwo::permutation_to_swap_schedule(&mut recursive_scratch).len();
        prop_assert_eq!(bubble_scratch, recursive_scratch);
        prop_assert!(
            recursive_emitted <= sub_quadratic_bound(n),
            "n = {}: {} comparators exceed the 2·n^1.6 bound {}",
            n, recursive_emitted, sub_quadratic_bound(n)
        );
        prop_assert!(
            recursive_emitted < bubble_emitted,
            "n = {}: recursive-split-two emitted {} swaps, bubble {}",
            n, recursive_emitted, bubble_emitted
        );
    }

    /// The Eq. 2 cost terms are strictly monotone in every argument the
    /// planner ranks by: ion distance, chain length, hops and occupancy.
    #[test]
    fn cost_terms_are_strictly_monotone(
        chain_len in 2usize..32,
        ion_distance in 1usize..16,
        hops in 0usize..8,
        occupancy in 0usize..20,
    ) {
        let w = WeightConfig::default();
        prop_assert!(
            swap_cost(w, chain_len, ion_distance + 1) > swap_cost(w, chain_len, ion_distance)
        );
        prop_assert!(
            swap_cost(w, chain_len + 1, ion_distance) > swap_cost(w, chain_len, ion_distance)
        );
        let cap = 32;
        let base = meeting_cost(w, hops, hops, occupancy, cap);
        prop_assert!(meeting_cost(w, hops + 1, hops, occupancy, cap) > base);
        prop_assert!(meeting_cost(w, hops, hops + 1, occupancy, cap) > base);
        prop_assert!(meeting_cost(w, hops, hops, occupancy + 1, cap) > base);
        // The full-trap penalty dominates one more unit of congestion.
        prop_assert!(
            meeting_cost(w, hops, hops, cap, cap) - meeting_cost(w, hops, hops, cap - 1, cap)
                > meeting_cost(w, hops, hops, cap - 1, cap)
                    - meeting_cost(w, hops, hops, cap - 2, cap)
        );
    }

    /// Compiler-level equivalence oracle: PermRoute under the bubble
    /// oracle and the production schedule produce the same final
    /// placement, the same shuttle/gate/reorder stream, and differ only
    /// in SWAP gates — on random circuits over random tight grids.
    #[test]
    fn schedule_kinds_agree_on_everything_but_the_swap_stream(
        cols in 2usize..4,
        capacity in 4usize..6,
        qubits in 6usize..12,
        gates in 10usize..50,
        seed in 0u64..1_000,
    ) {
        let topo = QccdTopology::grid(2, cols, capacity);
        prop_assume!(topo.total_capacity() > qubits + 1);
        let circuit = random_two_qubit_circuit(qubits, gates, seed);
        let config = CompilerConfig::default();
        let device = Device::build(topo, config.weights);
        let outcomes: Vec<_> = SwapScheduleKind::ALL
            .iter()
            .map(|&kind| {
                CompilerKind::PermRoute
                    .compile_on(&device, &circuit, &config.with_perm_schedule(kind))
                    .expect("compiles")
            })
            .collect();
        let strip = |ops: &[ScheduledOp]| -> Vec<ScheduledOp> {
            ops.iter().filter(|op| !matches!(op, ScheduledOp::SwapGate { .. })).copied().collect()
        };
        prop_assert_eq!(outcomes[0].final_placement(), outcomes[1].final_placement());
        prop_assert_eq!(
            strip(outcomes[0].program().ops()),
            strip(outcomes[1].program().ops())
        );
        for outcome in &outcomes {
            ssync_integration::check_placement_replay(&circuit, outcome);
        }
    }
}

/// The schedule length is data-independent, so the strictly-fewer bar and
/// the sub-quadratic bound also hold deterministically for every n — not
/// just the sampled ones.
#[test]
fn emitted_schedule_lengths_hold_for_every_n_up_to_160() {
    for n in 2..=160usize {
        let bubble = BubbleSort::swap_sequence(n).len();
        let recursive = RecursiveSplitTwo::swap_sequence(n).len();
        assert_eq!(bubble, n * (n - 1) / 2, "bubble closed form at n = {n}");
        assert!(recursive <= sub_quadratic_bound(n), "bound at n = {n}: {recursive}");
        if n >= 32 {
            assert!(recursive < bubble, "strictly-fewer at n = {n}: {recursive} vs {bubble}");
        }
    }
}
