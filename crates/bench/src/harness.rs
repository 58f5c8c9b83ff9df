//! Shared harness plumbing: compiler selection and benchmark scale.
//!
//! The compiler selector itself is [`ssync_baselines::CompilerKind`] —
//! re-exported here — so the figure binaries and the `ssync-service` pool
//! dispatch through one enum. Figures compare the paper's three compilers
//! ([`CompilerKind::PAPER`]); the service also accepts the plain-greedy
//! ablation ([`CompilerKind::Greedy`]).

pub use ssync_baselines::CompilerKind;

use ssync_arch::{Device, QccdTopology};
use ssync_circuit::Circuit;
use ssync_core::{CompileError, CompileOutcome, CompilerConfig};

/// Compiles `circuit` for `topology` with the selected compiler and a
/// shared evaluation configuration, building a throw-away [`Device`].
/// Sweeps should build the device once and use
/// [`CompilerKind::compile_on`], or register it with an
/// `ssync_service::CompileService` and submit the sweep as one batch.
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
