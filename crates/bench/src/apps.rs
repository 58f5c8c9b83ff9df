//! Application registry: the Table 2 benchmarks plus size-parameterised
//! variants for the application-size sweeps (Figs. 12, 14, 15).

use ssync_arch::QccdTopology;
use ssync_circuit::generators;
use ssync_circuit::Circuit;

/// The benchmark applications used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Cuccaro ripple-carry adder.
    Adder,
    /// Quantum Fourier Transform.
    Qft,
    /// Bernstein–Vazirani with the all-ones secret.
    Bv,
    /// Nearest-neighbour QAOA (10 rounds).
    Qaoa,
    /// Alternating layered ansatz (10 blocks).
    Alt,
    /// Trotterised Heisenberg chain (one step per qubit).
    Heisenberg,
}

impl AppKind {
    /// Every application, in Table 2 order.
    pub const ALL: [AppKind; 6] = [
        AppKind::Adder,
        AppKind::Qaoa,
        AppKind::Alt,
        AppKind::Bv,
        AppKind::Qft,
        AppKind::Heisenberg,
    ];

    /// Short label used in tables (e.g. `"QFT"`).
    pub fn label(self) -> &'static str {
        match self {
            AppKind::Adder => "Adder",
            AppKind::Qft => "QFT",
            AppKind::Bv => "BV",
            AppKind::Qaoa => "QAOA",
            AppKind::Alt => "ALT",
            AppKind::Heisenberg => "Heisenberg",
        }
    }
}

/// Builds a benchmark instance with (approximately) `qubits` program qubits.
/// The exact register width can differ by one or two qubits for apps with
/// structural constraints (the adder needs an even data width plus carries;
/// BV adds an ancilla).
pub fn scaled_app(kind: AppKind, qubits: usize) -> Circuit {
    match kind {
        AppKind::Adder => {
            let bits = ((qubits.saturating_sub(2)) / 2).max(1);
            generators::cuccaro_adder(bits)
        }
        AppKind::Qft => generators::qft(qubits.max(2)),
        AppKind::Bv => generators::bernstein_vazirani(qubits.saturating_sub(1).max(1)),
        AppKind::Qaoa => generators::qaoa_nearest_neighbor(qubits.max(2), 10),
        AppKind::Alt => generators::alt_ansatz(qubits.max(2), 10),
        AppKind::Heisenberg => {
            let n = qubits.max(2);
            generators::heisenberg_chain(n, n)
        }
    }
}

/// Builds the (application, size) sweep cells that fit on `topology`
/// (the device must hold every qubit plus one free slot), in input order.
/// Returns one `(app, actual_qubits)` entry per kept circuit, aligned
/// with the circuit list — the shape every batch-compiling fig binary
/// feeds to `compile_batch` / `run_compiler_batch_with_workers`. This is the single
/// home of the fit predicate, so every figure skips exactly the same
/// cells.
pub fn fitting_cells(
    pairs: impl IntoIterator<Item = (AppKind, usize)>,
    topology: &QccdTopology,
) -> (Vec<(AppKind, usize)>, Vec<Circuit>) {
    let mut cells = Vec::new();
    let mut circuits = Vec::new();
    for (app, size) in pairs {
        let circuit = scaled_app(app, size);
        if circuit.num_qubits() + 1 > topology.total_capacity() {
            continue;
        }
        cells.push((app, circuit.num_qubits()));
        circuits.push(circuit);
    }
    (cells, circuits)
}

/// The paper-scale instance of each application (Table 2 sizes).
pub fn table2_app(kind: AppKind) -> Circuit {
    match kind {
        AppKind::Adder => generators::cuccaro_adder(32),
        AppKind::Qft => generators::qft(64),
        AppKind::Bv => generators::bernstein_vazirani(64),
        AppKind::Qaoa => generators::qaoa_nearest_neighbor(64, 10),
        AppKind::Alt => generators::alt_ansatz(64, 10),
        AppKind::Heisenberg => generators::heisenberg_chain(48, 48),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_apps_hit_requested_sizes_approximately() {
        for kind in AppKind::ALL {
            let c = scaled_app(kind, 48);
            let n = c.num_qubits();
            assert!((44..=50).contains(&n), "{kind:?} produced {n} qubits");
            assert!(c.two_qubit_gate_count() > 0);
        }
    }

    #[test]
    fn table2_sizes_match_the_paper() {
        assert_eq!(table2_app(AppKind::Adder).num_qubits(), 66);
        assert_eq!(table2_app(AppKind::Qft).num_qubits(), 64);
        assert_eq!(table2_app(AppKind::Bv).num_qubits(), 65);
        assert_eq!(table2_app(AppKind::Heisenberg).two_qubit_gate_count(), 13_536);
    }

    #[test]
    fn fitting_cells_keeps_only_circuits_with_a_spare_slot() {
        let topo = QccdTopology::linear(2, 9); // 18 slots
        let (cells, circuits) =
            fitting_cells([(AppKind::Qft, 16), (AppKind::Qft, 18), (AppKind::Qft, 12)], &topo);
        // QFT_18 needs 18 + 1 slots and is dropped; order is preserved.
        assert_eq!(cells, vec![(AppKind::Qft, 16), (AppKind::Qft, 12)]);
        assert_eq!(circuits.len(), 2);
        assert_eq!(circuits[0].num_qubits(), 16);
        assert_eq!(circuits[1].num_qubits(), 12);
    }

    #[test]
    fn labels_are_short() {
        for kind in AppKind::ALL {
            assert!(!kind.label().is_empty() && kind.label().len() <= 10);
        }
    }
}
