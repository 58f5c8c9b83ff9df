//! # ssync-core
//!
//! The S-SYNC compiler: shuttle and SWAP co-optimisation for Quantum
//! Charge-Coupled Device (QCCD) trapped-ion machines, reproducing the
//! ISCA 2025 paper "S-SYNC: Shuttle and Swap Co-Optimization in Quantum
//! Charge-Coupled Devices".
//!
//! The compiler pipeline (Fig. 1 of the paper):
//!
//! 1. **Pre-processing** — the input circuit becomes a dependency DAG and
//!    the QCCD device becomes a *static* weighted slot graph
//!    ([`ssync_arch::SlotGraph`]) in which empty spaces are first-class
//!    nodes.
//! 2. **Initial mapping** — a two-level scheme: first-level trap assignment
//!    ([`InitialMapping::EvenDivided`], [`InitialMapping::Gathering`],
//!    [`InitialMapping::Sta`]) and an intra-trap "mountain" ordering driven
//!    by the look-ahead score of Eq. (3).
//! 3. **Generic-swap scheduling** — Algorithm 1: whenever no frontier gate
//!    is executable, enumerate the valid generic swaps (SWAP gates,
//!    intra-trap reorders, shuttles), score each with the heuristic of
//!    Eqs. (1)–(2) (distance + full-trap penalty, with a decay term that
//!    spreads work across qubits) and apply the cheapest.
//!
//! Every compiler kind runs through one compile driver,
//! [`driver::compile`]. It validates the device, places the qubits from
//! the kind's [`initial::Start`], drains the DAG and evaluates the
//! program; a [`driver::RoutingPolicy`] supplies the step taken while
//! every frontier gate is blocked. S-SYNC (run by [`SSyncCompiler`]) and
//! permutation routing ([`PermRouter`]) are two such policies, and
//! `ssync-baselines` adds the greedy ones.
//!
//! ## Quickstart
//!
//! ```
//! use ssync_circuit::generators::qft;
//! use ssync_arch::QccdTopology;
//! use ssync_core::{CompilerConfig, SSyncCompiler};
//!
//! let circuit = qft(12);
//! let topology = QccdTopology::linear(2, 8);
//! let compiler = SSyncCompiler::new(CompilerConfig::default());
//! let outcome = compiler.compile(&circuit, &topology).unwrap();
//! assert_eq!(outcome.counts().two_qubit_gates, circuit.two_qubit_gate_count());
//! assert!(outcome.report().success_rate > 0.0);
//! ```
//!
//! ## Compiling many circuits over one device
//!
//! Sweeps should build the shared [`ssync_arch::Device`] artifact once and
//! compile every circuit against it with [`SSyncCompiler::compile_on`]:
//!
//! ```
//! use ssync_circuit::generators::qft;
//! use ssync_arch::{Device, QccdTopology};
//! use ssync_core::{CompilerConfig, SSyncCompiler};
//!
//! let config = CompilerConfig::default();
//! let device = Device::build(QccdTopology::linear(2, 8), config.weights);
//! let compiler = SSyncCompiler::new(config);
//! for n in 8..=12 {
//!     assert!(compiler.compile_on(&device, &qft(n)).is_ok());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiler;
mod config;
pub mod driver;
mod error;
mod generic_swap;
mod heuristic;
mod idealized;
pub mod initial;
pub mod mechanics;
mod perm_route;
mod scheduler;
mod swap_schedule;

pub use compiler::{CompileOutcome, CompileScratch, SSyncCompiler};
pub use config::{CompilerConfig, InitialMapping};
pub use driver::RunReport;
pub use error::CompileError;
pub use generic_swap::{GenericSwap, GenericSwapKind};
pub use heuristic::{DecayTracker, HeuristicScorer, ReadinessMemo, ScoreCache, ScoringScratch};
pub use idealized::IdealizationMode;
pub use perm_route::{meeting_cost, swap_cost, PermRouter};
pub use scheduler::{Scheduler, SchedulerScratch, SchedulerStats, ScoringTelemetry};
pub use swap_schedule::{BubbleSort, RecursiveSplitTwo, SwapSchedule, SwapScheduleKind};
