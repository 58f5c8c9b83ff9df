//! Shared harness plumbing: compiler selection, shared-device batch
//! compilation and benchmark scale.
//!
//! The compiler selector itself is [`ssync_baselines::CompilerKind`] —
//! re-exported here — so the figure binaries, the batch fan-out and the
//! `ssync-service` pool all dispatch through one enum. Figures compare the
//! paper's three compilers ([`CompilerKind::PAPER`]); the service also
//! accepts the plain-greedy ablation ([`CompilerKind::Greedy`]).

pub use ssync_baselines::CompilerKind;

use ssync_arch::{Device, QccdTopology};
use ssync_circuit::Circuit;
use ssync_core::{batch, CompileError, CompileOutcome, CompileScratch, CompilerConfig};
use std::borrow::Borrow;

/// Compiles `circuit` for `topology` with the selected compiler and a
/// shared evaluation configuration, building a throw-away [`Device`].
/// Sweeps should build the device once and use
/// [`CompilerKind::compile_on`] or [`run_compiler_batch_with_workers`]
/// instead.
///
/// # Errors
///
/// Propagates the underlying compiler's [`CompileError`].
pub fn run_compiler(
    kind: CompilerKind,
    circuit: &Circuit,
    topology: &QccdTopology,
    config: &CompilerConfig,
) -> Result<CompileOutcome, CompileError> {
    let device = Device::build(topology.clone(), config.weights);
    kind.compile_on(&device, circuit, config)
}

/// Compiles every circuit against one shared `device` with the selected
/// compiler, fanning out over `workers` threads. Results come back in
/// input order and are bit-identical to calling
/// [`CompilerKind::compile_on`] per circuit, whatever the worker count.
/// The work-list is generic over [`Borrow<Circuit>`], so `&[Circuit]` and
/// `&[Arc<Circuit>]` both work without cloning circuits.
///
/// Pass `1` when the per-circuit `compile_time` is the quantity under
/// study (e.g. Fig. 15): concurrent workers contend for cores and would
/// inflate the wall-clock readings, while the compiled programs
/// themselves are identical either way. Every worker reuses one
/// [`CompileScratch`] across its share of the batch.
pub fn run_compiler_batch_with_workers<C: Borrow<Circuit> + Sync>(
    kind: CompilerKind,
    device: &Device,
    circuits: &[C],
    config: &CompilerConfig,
    workers: usize,
) -> Vec<Result<CompileOutcome, CompileError>> {
    batch::parallel_map_with(workers, circuits, CompileScratch::default, |scratch, _, c| {
        kind.compile_on_with(device, c.borrow(), config, scratch).map(|(outcome, _)| outcome)
    })
}

/// Problem-size scaling of the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Paper-scale configurations (default).
    Paper,
    /// Reduced sizes for smoke testing / CI.
    Small,
}

impl BenchScale {
    /// Reads the scale from the `SSYNC_BENCH_SCALE` environment variable
    /// (`"small"` selects the reduced configuration).
    pub fn from_env() -> Self {
        match std::env::var("SSYNC_BENCH_SCALE").ok().as_deref() {
            Some("small") | Some("SMALL") => BenchScale::Small,
            _ => BenchScale::Paper,
        }
    }

    /// Scales a qubit count: paper scale passes through, small scale caps
    /// the size at 16 qubits.
    pub fn qubits(self, paper: usize) -> usize {
        match self {
            BenchScale::Paper => paper,
            BenchScale::Small => paper.min(16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_circuit::generators::qft;
    use std::sync::Arc;

    #[test]
    fn all_four_compilers_run_through_the_harness() {
        let circuit = qft(12);
        let topo = QccdTopology::grid(2, 2, 5);
        let config = CompilerConfig::default();
        for kind in CompilerKind::ALL {
            let outcome = run_compiler(kind, &circuit, &topo, &config).unwrap();
            assert_eq!(outcome.counts().two_qubit_gates, 132, "{kind:?}");
        }
    }

    #[test]
    fn batch_matches_per_circuit_compiles_for_every_compiler() {
        let circuits: Vec<_> = vec![qft(8), qft(10), qft(12)];
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), config.weights);
        for kind in CompilerKind::ALL {
            let batched = run_compiler_batch_with_workers(kind, &device, &circuits, &config, 2);
            assert_eq!(batched.len(), circuits.len());
            for (circuit, outcome) in circuits.iter().zip(&batched) {
                let single = kind.compile_on(&device, circuit, &config).unwrap();
                let outcome = outcome.as_ref().unwrap();
                assert_eq!(outcome.program().ops(), single.program().ops(), "{kind:?}");
                assert_eq!(outcome.final_placement(), single.final_placement(), "{kind:?}");
            }
        }
    }

    #[test]
    fn arc_work_lists_batch_without_cloning_circuits() {
        let circuits: Vec<Arc<Circuit>> = vec![Arc::new(qft(8)), Arc::new(qft(10))];
        let config = CompilerConfig::default();
        let device = Device::build(QccdTopology::grid(2, 2, 5), config.weights);
        let batched =
            run_compiler_batch_with_workers(CompilerKind::SSync, &device, &circuits, &config, 2);
        for (circuit, outcome) in circuits.iter().zip(&batched) {
            let single = CompilerKind::SSync.compile_on(&device, circuit, &config).unwrap();
            assert_eq!(outcome.as_ref().unwrap().program().ops(), single.program().ops());
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(CompilerKind::SSync.label(), "This Work");
        assert_eq!(CompilerKind::Murali.label(), "Murali et al.");
        assert_eq!(CompilerKind::Dai.label(), "Dai et al.");
        assert_eq!(CompilerKind::Greedy.label(), "Greedy");
    }

    #[test]
    fn small_scale_caps_sizes() {
        assert_eq!(BenchScale::Small.qubits(64), 16);
        assert_eq!(BenchScale::Paper.qubits(64), 64);
        assert_eq!(BenchScale::Small.qubits(12), 12);
    }
}
