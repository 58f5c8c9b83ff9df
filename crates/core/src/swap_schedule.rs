//! Data-independent swap schedules that realise arbitrary permutations.
//!
//! A *swap schedule* is a fixed comparator sequence over `n` chain
//! positions. Running a permutation through the sequence as compare-
//! exchanges (swap iff out of order) sorts it; replaying exactly the
//! comparators that fired on the physical ion chain realises the
//! permutation wholesale. Because the comparator sequence depends only on
//! `n` — never on the permutation — the schedule can be generated once,
//! bounded analytically, and audited by property tests.
//!
//! Two implementations are provided:
//!
//! * [`BubbleSort`] — the n(n−1)/2 adjacent-transposition network. Its
//!   selected-swap count equals the permutation's inversion count exactly,
//!   which makes it the *oracle*: no adjacent-swap realisation can do
//!   better, so every other schedule is validated against it.
//! * [`RecursiveSplitTwo`] — Batcher's odd-even merge network, built by
//!   recursively splitting the chain in two, sorting the halves and
//!   merging. Its comparator count is Θ(n·log²n) ⊂ O(n^1.6), strictly
//!   below bubble sort's quadratic schedule from n = 8 up. Comparators may
//!   span non-adjacent positions; on hardware these are long-range
//!   exchanges priced by ion distance (see `crates/sim`).

use serde::{Deserialize, Serialize};

/// A data-independent comparator schedule realising permutations on a
/// linear ion chain.
///
/// Implementors only supply the comparator sequence; the compare-exchange
/// replay is shared. The contract, pinned by the permutation-routing
/// proptest battery (`tests/tests/perm_route_props.rs`):
///
/// * applying the *selected* swaps of
///   [`SwapSchedule::permutation_to_swap_schedule`] to the objects of the
///   input permutation sorts it (every permutation composes to the
///   identity target);
/// * the sequence for a given `n` is deterministic — two calls yield the
///   same comparators in the same order.
pub trait SwapSchedule {
    /// The fixed comparator sequence for `n` chain positions, as `(i, j)`
    /// pairs with `i < j < n`. The sequence must sort any permutation when
    /// run as compare-exchanges.
    fn swap_sequence(n: usize) -> Vec<(usize, usize)>;

    /// Runs `permutation` through the comparator sequence, sorting it in
    /// place. Returns the full schedule annotated with selection: the
    /// entry `(true, i, j)` means the comparator fired (positions `i` and
    /// `j` must physically swap); `(false, i, j)` means it was a no-op.
    ///
    /// `permutation[i]` is the target rank of the object currently at
    /// rank `i`; applying the selected swaps in order moves every object
    /// to its target rank.
    fn permutation_to_swap_schedule(permutation: &mut [usize]) -> Vec<(bool, usize, usize)> {
        Self::swap_sequence(permutation.len())
            .into_iter()
            .map(|(i, j)| {
                if permutation[i] > permutation[j] {
                    permutation.swap(i, j);
                    (true, i, j)
                } else {
                    (false, i, j)
                }
            })
            .collect()
    }
}

/// The adjacent-transposition bubble network: n(n−1)/2 comparators, and
/// the selected-swap count equals the inversion count of the input
/// permutation exactly — the reference oracle for every other schedule.
#[derive(Debug, Clone, Copy)]
pub enum BubbleSort {}

impl SwapSchedule for BubbleSort {
    fn swap_sequence(n: usize) -> Vec<(usize, usize)> {
        let mut seq = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for pass in (1..n).rev() {
            for j in 0..pass {
                seq.push((j, j + 1));
            }
        }
        seq
    }
}

/// Batcher odd-even merge network: recursively split the chain in two,
/// sort both halves, merge with the odd-even comparator pattern.
///
/// For `n` not a power of two the network is built for the next power of
/// two and filtered to comparators with both endpoints `< n` — sound by
/// the 0-1 principle with virtual `+∞` padding (a comparator touching a
/// padded position never fires, so dropping it changes nothing).
///
/// Comparator count for `n = 2^k` is `(k² − k + 4)·2^(k−2) − 1`, i.e.
/// Θ(n·log²n) ⊂ O(n^1.6): 191 vs bubble's 496 at n = 32, 1471 vs 8128 at
/// n = 128.
#[derive(Debug, Clone, Copy)]
pub enum RecursiveSplitTwo {}

impl RecursiveSplitTwo {
    /// Emits the comparators sorting `[lo, lo + n)` for power-of-two `n`.
    fn sort_range(lo: usize, n: usize, out: &mut Vec<(usize, usize)>) {
        if n > 1 {
            let half = n / 2;
            Self::sort_range(lo, half, out);
            Self::sort_range(lo + half, half, out);
            Self::merge_range(lo, n, 1, out);
        }
    }

    /// Odd-even merge of the two sorted halves of `[lo, lo + n)`,
    /// comparing elements `r` apart.
    fn merge_range(lo: usize, n: usize, r: usize, out: &mut Vec<(usize, usize)>) {
        let step = r * 2;
        if step < n {
            Self::merge_range(lo, n, step, out);
            Self::merge_range(lo + r, n, step, out);
            let mut i = lo + r;
            while i + r < lo + n {
                out.push((i, i + r));
                i += step;
            }
        } else {
            out.push((lo, lo + r));
        }
    }
}

impl SwapSchedule for RecursiveSplitTwo {
    fn swap_sequence(n: usize) -> Vec<(usize, usize)> {
        if n < 2 {
            return Vec::new();
        }
        let padded = n.next_power_of_two();
        let mut seq = Vec::new();
        Self::sort_range(0, padded, &mut seq);
        seq.retain(|&(i, j)| i < n && j < n);
        seq
    }
}

/// Value-level selector between the [`SwapSchedule`] implementations, so a
/// compiler configuration can name one (`CompilerConfig::perm_schedule`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SwapScheduleKind {
    /// [`BubbleSort`]: the quadratic adjacent-swap oracle.
    BubbleSort,
    /// [`RecursiveSplitTwo`]: the sub-quadratic production schedule.
    #[default]
    RecursiveSplitTwo,
}

impl SwapScheduleKind {
    /// Every schedule kind, oracle first.
    pub const ALL: [SwapScheduleKind; 2] =
        [SwapScheduleKind::BubbleSort, SwapScheduleKind::RecursiveSplitTwo];

    /// Stable label used in reports and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            SwapScheduleKind::BubbleSort => "bubble-sort",
            SwapScheduleKind::RecursiveSplitTwo => "recursive-split-two",
        }
    }

    /// The comparator sequence of the selected implementation.
    pub fn swap_sequence(self, n: usize) -> Vec<(usize, usize)> {
        match self {
            SwapScheduleKind::BubbleSort => BubbleSort::swap_sequence(n),
            SwapScheduleKind::RecursiveSplitTwo => RecursiveSplitTwo::swap_sequence(n),
        }
    }

    /// Compare-exchange replay of the selected implementation (see
    /// [`SwapSchedule::permutation_to_swap_schedule`]).
    pub fn permutation_to_swap_schedule(
        self,
        permutation: &mut [usize],
    ) -> Vec<(bool, usize, usize)> {
        match self {
            SwapScheduleKind::BubbleSort => BubbleSort::permutation_to_swap_schedule(permutation),
            SwapScheduleKind::RecursiveSplitTwo => {
                RecursiveSplitTwo::permutation_to_swap_schedule(permutation)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test permutation: a fixed-seed multiplicative shuffle.
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.swap(i, (state as usize) % (i + 1));
        }
        v
    }

    fn assert_sorts(kind: SwapScheduleKind, perm: Vec<usize>) {
        let n = perm.len();
        let targets = perm.clone();
        let mut scratch = perm;
        // Replay the selected swaps on labelled objects: object `o` starts
        // at rank `o` and must end at rank `targets[o]`.
        let mut objects: Vec<usize> = (0..n).collect();
        for (selected, i, j) in kind.permutation_to_swap_schedule(&mut scratch) {
            if selected {
                objects.swap(i, j);
            }
        }
        let sorted: Vec<usize> = (0..n).collect();
        assert_eq!(scratch, sorted, "{kind:?} failed to sort in place (n = {n})");
        for (rank, &object) in objects.iter().enumerate() {
            assert_eq!(
                targets[object], rank,
                "{kind:?} left object {object} at rank {rank} (n = {n})"
            );
        }
    }

    #[test]
    fn both_kinds_sort_every_small_permutation() {
        // Exhaustive over n ≤ 6 via factorial-number-system unranking.
        for n in 0..=6usize {
            let total: usize = (1..=n.max(1)).product();
            for code in 0..total {
                let mut pool: Vec<usize> = (0..n).collect();
                let mut perm = Vec::with_capacity(n);
                let mut rem = code;
                for radix in (1..=n).rev() {
                    let idx = rem % radix;
                    rem /= radix;
                    perm.push(pool.remove(idx));
                }
                for kind in SwapScheduleKind::ALL {
                    assert_sorts(kind, perm.clone());
                }
            }
        }
    }

    #[test]
    fn both_kinds_sort_shuffles_at_awkward_sizes() {
        // Straddle the power-of-two boundaries where the filtered Batcher
        // construction is most delicate.
        for n in [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128] {
            for seed in 0..4 {
                for kind in SwapScheduleKind::ALL {
                    assert_sorts(kind, shuffled(n, seed + 1000 * n as u64));
                }
            }
        }
    }

    #[test]
    fn bubble_schedule_is_exactly_quadratic() {
        for n in [0, 1, 2, 5, 16, 33] {
            assert_eq!(BubbleSort::swap_sequence(n).len(), n * n.saturating_sub(1) / 2);
        }
    }

    #[test]
    fn recursive_split_two_matches_the_closed_form_at_powers_of_two() {
        // |network(2^k)| = (k² − k + 4)·2^(k−2) − 1.
        for k in 2..=7u32 {
            let n = 1usize << k;
            let expected = (k * k - k + 4) as usize * (1usize << (k - 2)) - 1;
            assert_eq!(RecursiveSplitTwo::swap_sequence(n).len(), expected, "n = {n}");
        }
    }

    #[test]
    fn recursive_split_two_is_strictly_smaller_from_thirty_two_up() {
        for n in 32..=160usize {
            let bubble = BubbleSort::swap_sequence(n).len();
            let recursive = RecursiveSplitTwo::swap_sequence(n).len();
            assert!(recursive < bubble, "n = {n}: {recursive} vs {bubble}");
        }
    }

    #[test]
    fn comparator_indices_are_ordered_and_in_bounds() {
        for n in [2usize, 3, 5, 9, 17, 33, 100] {
            for kind in SwapScheduleKind::ALL {
                for (i, j) in kind.swap_sequence(n) {
                    assert!(i < j && j < n, "{kind:?} emitted ({i}, {j}) at n = {n}");
                }
            }
        }
    }

    #[test]
    fn kind_labels_and_default() {
        assert_eq!(SwapScheduleKind::ALL.len(), 2);
        assert_eq!(SwapScheduleKind::default(), SwapScheduleKind::RecursiveSplitTwo);
        assert_eq!(SwapScheduleKind::BubbleSort.label(), "bubble-sort");
        assert_eq!(SwapScheduleKind::RecursiveSplitTwo.label(), "recursive-split-two");
    }
}
