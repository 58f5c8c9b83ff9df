//! # ssync-baselines
//!
//! The compilers the paper compares S-SYNC against (Figs. 8–10, 15), and
//! [`CompilerKind`], the one selector over all five compiler kinds.
//!
//! Every kind is a routing policy run by the one compile driver,
//! [`ssync_core::driver::compile`]. The baselines therefore share S-SYNC's
//! validation, drain loop, placement mechanics and tracer: their SWAP
//! gates, reorders and shuttles are counted and evaluated exactly like
//! S-SYNC's, so the comparison isolates the scheduling policy.
//! [`GreedyRouter`] is the greedy policy, with one [`BaselineStyle`] per
//! kind:
//!
//! * [`BaselineStyle::Murali`] — the greedy compiler of Murali et al.,
//!   "Architecting noisy intermediate-scale trapped ion quantum computers"
//!   (ISCA 2020, the QCCDSim toolchain): qubits are packed into traps in
//!   first-use order with **two slots reserved per trap** for routing, and
//!   each blocked gate is resolved by moving its first operand to the other
//!   operand's trap along the shortest trap path.
//! * [`BaselineStyle::Dai`] — an approximation of Dai et al., "Advanced
//!   Shuttle Strategies for Parallel QCCD Architectures" (IEEE TQE 2024):
//!   like the greedy baseline but it reserves a single slot, chooses the
//!   *cheaper* operand to move (fewer hops, closer to a chain end, emptier
//!   destination) and serves the cheapest blocked gate first, which models
//!   the paper's parallel-shuttle planning.
//! * [`BaselineStyle::Greedy`] — the plain greedy ablation, with no
//!   reserved routing slots.
//!
//! These are faithful re-implementations of the published *algorithms*, not
//! of the original source code; absolute counts can differ from the
//! original tools while preserving the qualitative gaps the paper reports.
//!
//! ```
//! use ssync_arch::{Device, QccdTopology};
//! use ssync_baselines::CompilerKind;
//! use ssync_circuit::generators::qft;
//! use ssync_core::CompilerConfig;
//!
//! let config = CompilerConfig::default();
//! let device = Device::build(QccdTopology::linear(2, 8), config.weights);
//! let outcome = CompilerKind::Murali.compile_on(&device, &qft(12), &config).unwrap();
//! assert_eq!(outcome.counts().two_qubit_gates, 132);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod greedy;
mod kind;

pub use greedy::{BaselineStyle, GreedyRouter};
pub use kind::CompilerKind;
