//! The unified compiler selector: one enum naming every compiler the
//! workspace can run, with a uniform `compile_on`-style entry point.
//!
//! The bench harness, the batch fan-out and the `ssync-service` worker
//! pool all dispatch through [`CompilerKind`], so heterogeneous work-lists
//! — the full (device × circuit × compiler × config) product of the
//! paper's evaluation — flow through a single code path.

use crate::greedy::{BaselineStyle, GreedyRouter};
use ssync_arch::Device;
use ssync_circuit::{Circuit, Qubit};
use ssync_core::{
    CompileError, CompileOutcome, CompileScratch, CompilerConfig, PermRouteCompiler, SSyncCompiler,
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
    /// The plain greedy ablation ([`BaselineStyle::Greedy`]): no reserved
    /// routing slots, first-operand movement, DAG-order gate service.
    Greedy,
    /// Permutation-level routing (`ssync_core::PermRouteCompiler`):
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

    /// `true` for the kinds built on the shared greedy engine, whose
    /// initial placement consumes a first-use qubit order that callers can
    /// precompute once per circuit ([`Circuit::first_use_order`]).
    pub fn uses_first_use_order(self) -> bool {
        !matches!(self, CompilerKind::SSync)
    }

    /// Compiles `circuit` against a prepared, shared `device` with this
    /// compiler under `config`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying compiler's [`CompileError`].
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
        self.compile_on_with(device, circuit, config, None, &mut CompileScratch::default())
    }

    /// [`CompilerKind::compile_on`] with reusable worker state: `scratch`
    /// carries the S-SYNC scheduler's working memory across compiles and
    /// the flight-recorder switch S-SYNC and perm-route read (the greedy
    /// kinds ignore it), and `first_use` optionally supplies the
    /// precomputed first-use qubit order the greedy kinds place ions in
    /// (S-SYNC ignores it; its initial mapping is a different scheme).
    /// Output is bit-identical to `compile_on` for any combination —
    /// both arguments only recycle work or observe it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying compiler's [`CompileError`].
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than
    /// `config`, or if `first_use` is not a permutation of the circuit's
    /// qubits.
    pub fn compile_on_with(
        self,
        device: &Device,
        circuit: &Circuit,
        config: &CompilerConfig,
        first_use: Option<&[Qubit]>,
        scratch: &mut CompileScratch,
    ) -> Result<CompileOutcome, CompileError> {
        match self {
            CompilerKind::Murali => GreedyRouter::new(BaselineStyle::Murali, *config)
                .compile_on_with_order(device, circuit, first_use),
            CompilerKind::Dai => GreedyRouter::new(BaselineStyle::Dai, *config)
                .compile_on_with_order(device, circuit, first_use),
            CompilerKind::Greedy => GreedyRouter::new(BaselineStyle::Greedy, *config)
                .compile_on_with_order(device, circuit, first_use),
            CompilerKind::PermRoute => {
                PermRouteCompiler::new(*config).compile_on_with(device, circuit, first_use, scratch)
            }
            CompilerKind::SSync => {
                SSyncCompiler::new(*config).compile_on_with_scratch(device, circuit, scratch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::QccdTopology;
    use ssync_circuit::generators::qft;

    #[test]
    fn every_kind_compiles_through_the_uniform_entry() {
        let circuit = qft(12);
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), config.weights);
        for kind in CompilerKind::ALL {
            let outcome = kind.compile_on(&device, &circuit, &config).unwrap();
            assert_eq!(outcome.counts().two_qubit_gates, 132, "{kind:?}");
        }
    }

    #[test]
    fn prepared_entry_matches_plain_entry_bit_for_bit() {
        let circuit = qft(12);
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), config.weights);
        let order = circuit.first_use_order();
        let mut scratch = CompileScratch::default();
        for kind in CompilerKind::ALL {
            let plain = kind.compile_on(&device, &circuit, &config).unwrap();
            let first_use = kind.uses_first_use_order().then_some(order.as_slice());
            let prepared =
                kind.compile_on_with(&device, &circuit, &config, first_use, &mut scratch).unwrap();
            assert_eq!(plain.program().ops(), prepared.program().ops(), "{kind:?}");
            assert_eq!(plain.final_placement(), prepared.final_placement(), "{kind:?}");
            assert_eq!(plain.scheduler_stats(), prepared.scheduler_stats(), "{kind:?}");
        }
    }

    #[test]
    fn paper_subset_keeps_the_figure_order_and_labels() {
        assert_eq!(CompilerKind::PAPER.len(), 3);
        assert_eq!(CompilerKind::PAPER[2].label(), "This Work");
        assert_eq!(CompilerKind::ALL.len(), 5);
        assert_eq!(CompilerKind::Greedy.label(), "Greedy");
        assert_eq!(CompilerKind::PermRoute.label(), "Perm-Route");
        assert!(CompilerKind::Murali.uses_first_use_order());
        assert!(CompilerKind::PermRoute.uses_first_use_order());
        assert!(!CompilerKind::SSync.uses_first_use_order());
    }
}
