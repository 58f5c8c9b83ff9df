//! # ssync-baselines
//!
//! The compilers the paper compares S-SYNC against (Figs. 8–10, 15), and
//! [`CompilerKind`], the one selector over all five compiler kinds.
//!
//! Every kind is a start and a routing policy run by the one compile
//! driver, [`ssync_core::driver::compile`]. The baselines therefore share
//! S-SYNC's validation, drain loop, placement mechanics and tracer: their
//! SWAP gates, reorders and shuttles are counted and evaluated exactly
//! like S-SYNC's, so the comparison isolates the start and the scheduling
//! policy. Each baseline starts from first-use packing
//! ([`ssync_core::initial::Start::FirstUse`]), with the routing slots it
//! reserves per trap named beside its router in
//! [`CompilerKind::compile_on_with`]. [`GreedyRouter`] is the greedy
//! policy; its [`BaselineStyle`] picks the gate to serve and the operand
//! to move:
//!
//! * [`CompilerKind::Murali`] — the greedy compiler of Murali et al.,
//!   "Architecting noisy intermediate-scale trapped ion quantum computers"
//!   (ISCA 2020, the QCCDSim toolchain): **two slots reserved per trap**
//!   for routing, and each blocked gate, in DAG order, is resolved by
//!   moving its first operand to the other operand's trap along the
//!   shortest trap path ([`BaselineStyle::FirstInOrder`]).
//! * [`CompilerKind::Dai`] — an approximation of Dai et al., "Advanced
//!   Shuttle Strategies for Parallel QCCD Architectures" (IEEE TQE 2024):
//!   a single reserved slot, and it serves the cheapest blocked gate first
//!   and moves the *cheaper* operand (fewer hops, closer to a chain end,
//!   emptier destination), which models the paper's parallel-shuttle
//!   planning ([`BaselineStyle::CostAware`]).
//! * [`CompilerKind::Greedy`] — the plain greedy ablation: Murali's
//!   routing with no reserved routing slots.
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
