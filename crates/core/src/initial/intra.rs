//! Second-level initial mapping: intra-trap "mountain" ordering (Eq. 3).

use crate::config::CompilerConfig;
use ssync_arch::{SlotId, Trap};
use ssync_circuit::{Circuit, Gate, Qubit};

/// Every qubit's location score of Eq. (3), `l(q) = −α·E(q) + β·I(q)`,
/// indexed by qubit. Over the first `k` ASAP layers of two-qubit gates
/// (`k = config.lookahead_layers`), `I(q)` counts gates pairing `q` with a
/// qubit of the *same* trap and `E(q)` counts gates pairing it with a
/// qubit of *another* trap; `trap_of[q]` names each qubit's trap. Lower
/// scores mean the qubit is likely to leave its trap soon and should sit
/// near a chain end.
///
/// One walk over the circuit: a gate's ASAP layer is the deepest layer
/// its operands have reached, so the window test is a per-qubit level
/// compare and every gate inside the window credits both operands at
/// once.
pub fn location_scores(circuit: &Circuit, trap_of: &[usize], config: &CompilerConfig) -> Vec<f64> {
    let n = circuit.num_qubits();
    let mut level = vec![0usize; n];
    let mut internal = vec![0usize; n];
    let mut external = vec![0usize; n];
    for (a, b) in circuit.iter().filter_map(Gate::two_qubit_pair) {
        let layer = level[a.index()].max(level[b.index()]);
        level[a.index()] = layer + 1;
        level[b.index()] = layer + 1;
        if layer >= config.lookahead_layers {
            continue;
        }
        let counts =
            if trap_of[a.index()] == trap_of[b.index()] { &mut internal } else { &mut external };
        counts[a.index()] += 1;
        if b != a {
            counts[b.index()] += 1;
        }
    }
    (0..n).map(|q| -config.alpha * external[q] as f64 + config.beta * internal[q] as f64).collect()
}

/// Orders the qubits of one trap into the "mountain" shape of Sec. 3.4,
/// given every qubit's [`location_scores`] entry: the lowest-scoring
/// qubits (those most likely to shuttle away) go to the chain ends, the
/// highest-scoring ones to the centre.
pub fn mountain_order(members: &[Qubit], scores: &[f64]) -> Vec<Qubit> {
    let mut scored: Vec<(f64, Qubit)> = members.iter().map(|&q| (scores[q.index()], q)).collect();
    // Ascending score: the first elements are the most "outgoing" qubits.
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = scored.len();
    let mut ordered: Vec<Option<Qubit>> = vec![None; n];
    let mut left = 0usize;
    let mut right = n;
    for (i, (_, q)) in scored.into_iter().enumerate() {
        if i % 2 == 0 {
            ordered[left] = Some(q);
            left += 1;
        } else {
            right -= 1;
            ordered[right] = Some(q);
        }
    }
    ordered.into_iter().map(|q| q.expect("every position filled")).collect()
}

/// Chooses which slots of `trap` the ordered qubits occupy: the qubits sit
/// contiguously with the free slots split between the two chain ends, so
/// both ports stay available for incoming ions.
pub fn slot_layout(trap: &Trap, count: usize) -> Vec<SlotId> {
    assert!(count <= trap.capacity(), "trap cannot hold {count} qubits");
    let free = trap.capacity() - count;
    let left_pad = free / 2;
    (0..count).map(|i| trap.slot_at(left_pad + i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssync_arch::{QccdTopology, TrapId};
    use ssync_circuit::Layers;
    use std::collections::HashSet;

    #[test]
    fn location_score_rewards_internal_partners() {
        let mut c = Circuit::new(4);
        c.cx(Qubit(0), Qubit(1)); // internal pair
        c.cx(Qubit(2), Qubit(3)); // q2's partner is external to the trap
        let trap_of = [0, 0, 0, 1];
        let scores = location_scores(&c, &trap_of, &CompilerConfig::default());
        assert!(scores[0] > scores[2]);
        assert_eq!(scores, vec![1.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn location_scores_only_count_the_lookahead_window() {
        let mut c = Circuit::new(3);
        c.cx(Qubit(0), Qubit(1)); // layer 0
        c.h(Qubit(2)); // single-qubit gates neither count nor deepen a layer
        c.cx(Qubit(1), Qubit(2)); // layer 1
        c.cx(Qubit(0), Qubit(2)); // layer 2
        let trap_of = [0, 0, 1];
        let scores = |k| {
            let config = CompilerConfig { lookahead_layers: k, ..CompilerConfig::default() };
            location_scores(&c, &trap_of, &config)
        };
        assert_eq!(scores(0), vec![0.0, 0.0, 0.0]);
        assert_eq!(scores(1), vec![1.0, 1.0, 0.0]);
        assert_eq!(scores(2), vec![1.0, 0.0, -1.0]);
        assert_eq!(scores(3), vec![0.0, 0.0, -2.0]);
    }

    #[test]
    fn mountain_order_puts_low_scores_at_the_edges() {
        let mut c = Circuit::new(6);
        // Qubit 5 interacts with an external qubit -> lowest score.
        c.cx(Qubit(5), Qubit(0));
        // Qubits 2 and 3 interact internally -> highest scores.
        c.cx(Qubit(2), Qubit(3));
        let members = [Qubit(1), Qubit(2), Qubit(3), Qubit(4), Qubit(5)];
        let trap_of = [1, 0, 0, 0, 0, 0];
        let scores = location_scores(&c, &trap_of, &CompilerConfig::default());
        let order = mountain_order(&members, &scores);
        assert_eq!(order.len(), 5);
        // The most external qubit must be at one of the two chain ends.
        assert!(order[0] == Qubit(5) || order[4] == Qubit(5));
        // The internal pair must not be at the extreme ends.
        let centre: Vec<Qubit> = order[1..4].to_vec();
        assert!(centre.contains(&Qubit(2)) || centre.contains(&Qubit(3)));
    }

    #[test]
    fn mountain_order_is_a_permutation() {
        let members: Vec<Qubit> = (0..8u32).map(Qubit).collect();
        let order = mountain_order(&members, &[0.0; 8]);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, members);
    }

    #[test]
    fn slot_layout_centres_qubits_between_free_ends() {
        let topo = QccdTopology::linear(1, 6);
        let trap = topo.trap(TrapId(0));
        let slots = slot_layout(trap, 4);
        assert_eq!(slots.len(), 4);
        // One free slot on the left, one on the right.
        assert_eq!(slots[0], trap.slot_at(1));
        assert_eq!(slots[3], trap.slot_at(4));
        // Full trap uses every slot.
        assert_eq!(slot_layout(trap, 6).len(), 6);
        assert_eq!(slot_layout(trap, 6)[0], trap.slot_at(0));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn slot_layout_rejects_overfill() {
        let topo = QccdTopology::linear(1, 3);
        slot_layout(topo.trap(TrapId(0)), 4);
    }

    /// The per-qubit recount that `location_scores` replaces, kept as its
    /// oracle: rebuild the ASAP layers, take the first `k`, and count the
    /// qubit's partners inside and outside its trap.
    fn location_score_recount(
        circuit: &Circuit,
        trap_members: &HashSet<Qubit>,
        qubit: Qubit,
        config: &CompilerConfig,
    ) -> f64 {
        let layers = Layers::from_circuit(circuit);
        let mut internal = 0usize;
        let mut external = 0usize;
        for gate in layers.first_k(config.lookahead_layers) {
            if let Some((a, b)) = gate.two_qubit_pair() {
                let partner = if a == qubit {
                    Some(b)
                } else if b == qubit {
                    Some(a)
                } else {
                    None
                };
                if let Some(p) = partner {
                    if trap_members.contains(&p) {
                        internal += 1;
                    } else {
                        external += 1;
                    }
                }
            }
        }
        -config.alpha * external as f64 + config.beta * internal as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn one_pass_scores_equal_the_per_qubit_recount(
            qubits in 2usize..14,
            gates in proptest::collection::vec((0usize..64, 0usize..64, 0usize..4), 0..80),
            traps in proptest::collection::vec(0usize..4, 14..15),
            alpha in 0usize..4,
        ) {
            let mut circuit = Circuit::new(qubits);
            for &(a, b, single) in &gates {
                let (a, b) = (a % qubits, b % qubits);
                if single == 0 || a == b {
                    circuit.h(Qubit(a as u32));
                } else {
                    circuit.cx(Qubit(a as u32), Qubit(b as u32));
                }
            }
            let trap_of = &traps[..qubits];
            let depth = Layers::from_circuit(&circuit).len();
            for k in [0, 1, 8, depth + 3] {
                let config = CompilerConfig {
                    lookahead_layers: k,
                    alpha: 0.5 + alpha as f64,
                    ..CompilerConfig::default()
                };
                let scores = location_scores(&circuit, trap_of, &config);
                for q in 0..qubits {
                    let members: HashSet<Qubit> = (0..qubits)
                        .filter(|&p| trap_of[p] == trap_of[q])
                        .map(|p| Qubit(p as u32))
                        .collect();
                    let oracle = location_score_recount(&circuit, &members, Qubit(q as u32), &config);
                    prop_assert_eq!(scores[q].to_bits(), oracle.to_bits(), "qubit {} k {}", q, k);
                }
            }
        }
    }
}
