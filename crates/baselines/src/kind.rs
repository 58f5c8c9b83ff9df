//! The unified compiler selector: one enum naming every compiler the
//! workspace can run, with a uniform `compile_on`-style entry point.
//!
//! Every kind is a start and a routing policy run by
//! `ssync_core::driver::compile`.
//! The bench harness and the `ssync-service` worker pool both dispatch
//! through [`CompilerKind`], so heterogeneous work-lists — the full
//! (device × circuit × compiler × config) product of the paper's
//! evaluation — flow through a single code path.

use crate::greedy::{BaselineStyle, GreedyRouter};
use ssync_arch::Device;
use ssync_circuit::Circuit;
use ssync_core::initial::Start;
use ssync_core::{
    driver, CompileError, CompileOutcome, CompileScratch, CompilerConfig, PermRouter, RunReport,
    SSyncCompiler,
};

/// Every compiler the workspace can run against a prepared [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerKind {
    /// Murali et al. (ISCA 2020) greedy baseline.
    Murali,
    /// Dai et al. (TQE 2024) parallel-shuttle baseline.
    Dai,
    /// This work (S-SYNC).
    SSync,
    /// The plain greedy ablation: Murali's [`BaselineStyle::FirstInOrder`]
    /// routing from a start with no reserved routing slots.
    Greedy,
    /// Permutation-level routing (`ssync_core::PermRouter`):
    /// blocked frontier layers are realised wholesale through a
    /// sub-quadratic swap schedule with Eq. 2 cost-weighted swap
    /// selection.
    PermRoute,
}

impl CompilerKind {
    /// Every compiler, baselines first.
    pub const ALL: [CompilerKind; 5] = [
        CompilerKind::Murali,
        CompilerKind::Dai,
        CompilerKind::SSync,
        CompilerKind::Greedy,
        CompilerKind::PermRoute,
    ];

    /// The three compilers evaluated in the paper's Figs. 8–10, in the
    /// order plotted there.
    pub const PAPER: [CompilerKind; 3] =
        [CompilerKind::Murali, CompilerKind::Dai, CompilerKind::SSync];

    /// Legend label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CompilerKind::Murali => "Murali et al.",
            CompilerKind::Dai => "Dai et al.",
            CompilerKind::SSync => "This Work",
            CompilerKind::Greedy => "Greedy",
            CompilerKind::PermRoute => "Perm-Route",
        }
    }

    /// Compiles `circuit` against a prepared, shared `device` with this
    /// compiler under `config`.
    ///
    /// # Errors
    ///
    /// Propagates the compile driver's [`CompileError`].
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than
    /// `config`.
    pub fn compile_on(
        self,
        device: &Device,
        circuit: &Circuit,
        config: &CompilerConfig,
    ) -> Result<CompileOutcome, CompileError> {
        self.compile_on_with(device, circuit, config, &mut CompileScratch::default())
            .map(|(outcome, _)| outcome)
    }

    /// [`CompilerKind::compile_on`] with reusable worker state, returning
    /// the run's [`RunReport`] (scoring counters, and the flight recording
    /// when the scratch's switch is on) beside the outcome: `scratch`
    /// carries the S-SYNC scheduler's working memory across compiles and
    /// the flight-recorder switch every kind reads. The outcome is
    /// bit-identical to `compile_on` for any scratch — it only recycles
    /// allocations and observes.
    ///
    /// # Errors
    ///
    /// Propagates the compile driver's [`CompileError`].
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than
    /// `config`.
    pub fn compile_on_with(
        self,
        device: &Device,
        circuit: &Circuit,
        config: &CompilerConfig,
        scratch: &mut CompileScratch,
    ) -> Result<(CompileOutcome, RunReport), CompileError> {
        let record = scratch.flight_recorder();
        // Each kind's start, next to its router. S-SYNC's is
        // `Start::TwoLevel`, which `SSyncCompiler` passes.
        let first_use = |reserve| Start::FirstUse { reserve };
        let (style, start) = match self {
            CompilerKind::SSync => {
                return SSyncCompiler::new(*config)
                    .compile_on_with_scratch(device, circuit, scratch)
            }
            CompilerKind::PermRoute => {
                let router = PermRouter::new(config);
                return driver::compile(router, first_use(1), device, circuit, config, record);
            }
            CompilerKind::Murali => (BaselineStyle::FirstInOrder, first_use(2)),
            CompilerKind::Dai => (BaselineStyle::CostAware, first_use(1)),
            CompilerKind::Greedy => (BaselineStyle::FirstInOrder, first_use(0)),
        };
        driver::compile(GreedyRouter::new(style), start, device, circuit, config, record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::QccdTopology;
    use ssync_circuit::generators::{qaoa_nearest_neighbor, qft};
    use ssync_telemetry::FlightEvent;

    #[test]
    fn every_kind_compiles_through_the_uniform_entry() {
        let config = CompilerConfig::default();
        for (circuit, topo) in [
            (qft(12), QccdTopology::grid(2, 2, 5)),
            (qft(12), QccdTopology::fully_connected(4, 5)),
            (qaoa_nearest_neighbor(20, 2), QccdTopology::linear(3, 9)),
        ] {
            let device = Device::build(topo.clone(), config.weights);
            for kind in CompilerKind::ALL {
                let what = format!("{kind:?} on {}", topo.name());
                let outcome = kind.compile_on(&device, &circuit, &config).unwrap();
                assert_eq!(
                    outcome.counts().two_qubit_gates,
                    circuit.two_qubit_gate_count(),
                    "{what}"
                );
                assert!(outcome.report().success_rate > 0.0, "{what}");
                outcome.final_placement().validate().unwrap();
                // Every input spans several traps, so every kind shuttles.
                assert!(outcome.counts().shuttles >= 2, "{what}");
            }
        }
    }

    #[test]
    fn every_kind_rejects_a_device_too_small() {
        let config = CompilerConfig::default();
        // Exactly 16 slots for 16 qubits: no free space to route through.
        let device = Device::build(QccdTopology::linear(2, 8), config.weights);
        for kind in CompilerKind::ALL {
            let err = kind.compile_on(&device, &qft(16), &config).unwrap_err();
            assert!(
                matches!(err, CompileError::DeviceTooSmall { qubits: 16, slots: 16 }),
                "{kind:?}: {err:?}"
            );
        }
    }

    #[test]
    fn prepared_entry_matches_plain_entry_bit_for_bit() {
        let circuit = qft(12);
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), config.weights);
        let mut scratch = CompileScratch::default();
        for kind in CompilerKind::ALL {
            let plain = kind.compile_on(&device, &circuit, &config).unwrap();
            let (prepared, _) =
                kind.compile_on_with(&device, &circuit, &config, &mut scratch).unwrap();
            assert_eq!(plain.program().ops(), prepared.program().ops(), "{kind:?}");
            assert_eq!(plain.final_placement(), prepared.final_placement(), "{kind:?}");
            assert_eq!(plain.scheduler_stats(), prepared.scheduler_stats(), "{kind:?}");
        }
    }

    #[test]
    fn every_kind_records_layers_without_changing_output() {
        let circuit = qft(12);
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), config.weights);
        for kind in CompilerKind::ALL {
            let (plain, plain_run) = kind
                .compile_on_with(&device, &circuit, &config, &mut CompileScratch::default())
                .unwrap();
            let (recorded, run) = kind
                .compile_on_with(&device, &circuit, &config, &mut CompileScratch::new(true))
                .unwrap();
            assert!(plain.counts().shuttles > 0, "{kind:?} routes on this device");
            assert_eq!(plain.program().ops(), recorded.program().ops(), "{kind:?}");
            assert_eq!(plain.final_placement(), recorded.final_placement(), "{kind:?}");
            assert_eq!(plain.scheduler_stats(), recorded.scheduler_stats(), "{kind:?}");
            assert!(plain_run.recording.is_none(), "{kind:?} recorded with the switch off");
            let events = &run.recording.expect("switch on records").events;
            let opened = events.iter().filter(|e| matches!(e, FlightEvent::LayerOpened { .. }));
            let drained: u64 = events
                .iter()
                .filter_map(|e| match e {
                    FlightEvent::LayerClosed { executed, .. } => Some(*executed),
                    _ => None,
                })
                .sum();
            assert!(opened.count() > 0, "{kind:?} opened no layer");
            // Every drained gate is counted once, so the ring (which holds
            // this whole compile) accounts for every two-qubit gate.
            assert_eq!(drained as usize, circuit.two_qubit_gate_count(), "{kind:?}");
        }
    }

    #[test]
    fn paper_subset_keeps_the_figure_order_and_labels() {
        assert_eq!(CompilerKind::PAPER.len(), 3);
        assert_eq!(CompilerKind::PAPER[2].label(), "This Work");
        assert_eq!(CompilerKind::ALL.len(), 5);
        assert_eq!(CompilerKind::Greedy.label(), "Greedy");
        assert_eq!(CompilerKind::PermRoute.label(), "Perm-Route");
    }
}
