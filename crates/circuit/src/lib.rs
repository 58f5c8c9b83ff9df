//! # ssync-circuit
//!
//! Quantum-circuit intermediate representation used throughout the S-SYNC
//! reproduction: gates, circuits, dependency DAGs, interaction graphs, and
//! the benchmark generators from Table 2 of the paper (QFT, Cuccaro adder,
//! Bernstein–Vazirani, QAOA, alternating layered ansatz, Heisenberg
//! Hamiltonian simulation).
//!
//! The IR is deliberately small: the QCCD compiler only cares about *which
//! qubit pairs* must meet in the same trap and in *which order*, plus enough
//! gate metadata (angles, kinds) for the timing / fidelity models in
//! `ssync-sim`.
//!
//! ## Example
//!
//! ```
//! use ssync_circuit::{Circuit, Qubit, generators};
//!
//! // Hand-built circuit.
//! let mut c = Circuit::new(3);
//! c.h(Qubit(0));
//! c.cx(Qubit(0), Qubit(1));
//! c.cx(Qubit(1), Qubit(2));
//! assert_eq!(c.two_qubit_gate_count(), 2);
//!
//! // Generated benchmark (Table 2 of the paper).
//! let qft = generators::qft(24);
//! assert_eq!(qft.num_qubits(), 24);
//! assert_eq!(qft.two_qubit_gate_count(), 552);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod dag;
mod error;
mod gate;
pub mod generators;
mod interaction;
mod layers;
mod stable_hash;

pub use circuit::{Circuit, CircuitStats};
pub use dag::{DependencyDag, LookaheadScratch, NodeId};
pub use error::CircuitError;
pub use gate::{Gate, GateKind, GateQubits, Qubit};
pub use interaction::InteractionGraph;
pub use layers::Layers;
pub use stable_hash::StableHasher;
