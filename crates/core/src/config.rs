//! Compiler configuration: heuristic hyper-parameters and mapping choices.

use crate::swap_schedule::SwapScheduleKind;
use serde::{Deserialize, Serialize};
use ssync_arch::WeightConfig;
use ssync_sim::{GateImplementation, NoiseModel, OperationTimes};

/// The first-level initial-mapping strategy (Sec. 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum InitialMapping {
    /// Spread qubits evenly across every trap.
    EvenDivided,
    /// Cluster qubits into as few traps as possible, reserving one space
    /// per trap for incoming ions (the paper's default for the evaluation).
    #[default]
    Gathering,
    /// Spatio-temporal-aware mapping: qubits with stronger, earlier
    /// interactions are placed closer together (Ovide et al. 2024).
    Sta,
}

impl InitialMapping {
    /// All strategies, in the order used by Fig. 12.
    pub const ALL: [InitialMapping; 3] =
        [InitialMapping::Gathering, InitialMapping::EvenDivided, InitialMapping::Sta];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            InitialMapping::EvenDivided => "even-divided",
            InitialMapping::Gathering => "gathering",
            InitialMapping::Sta => "STA",
        }
    }
}

/// Hyper-parameters of the S-SYNC compiler.
///
/// Defaults follow Sec. 4.2: inner weight 0.001, shuttle weight 1, decay
/// rate δ = 0.001 with a 5-iteration reset, and a heuristic look-ahead of
/// 8 layers for the intra-trap mapping score and the extended heuristic.
/// The paper's path truncation m has no field: the trap-level router
/// scores whole shortest routes, so no compiler would read it.
///
/// Every field can change compiled output or its evaluation, and nothing
/// else lives here: the service's wire codec writes every field and its
/// cache key hashes exactly those bytes. Per-worker concerns that never
/// change output (worker counts, the flight recorder) live elsewhere —
/// see [`crate::CompileScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// Static-graph edge weights.
    pub weights: WeightConfig,
    /// Decay increment δ applied to gates whose qubits moved recently.
    pub decay_delta: f64,
    /// Number of scheduler iterations after which a qubit's decay resets.
    pub decay_reset_interval: usize,
    /// Look-ahead depth (DAG layers) for the intra-trap mapping score and
    /// the extended heuristic.
    pub lookahead_layers: usize,
    /// Weight α of the inter-trap interaction term in Eq. (3).
    pub alpha: f64,
    /// Weight β of the intra-trap interaction term in Eq. (3).
    pub beta: f64,
    /// First-level initial-mapping strategy.
    pub initial_mapping: InitialMapping,
    /// Two-qubit gate implementation used for timing/fidelity evaluation.
    pub gate_impl: GateImplementation,
    /// Transport-primitive times (Table 1).
    pub op_times: OperationTimes,
    /// Fidelity model (Eq. 4).
    pub noise: NoiseModel,
    /// Number of consecutive no-progress scheduler iterations before the
    /// deterministic fallback router takes over. The heuristic reaches it
    /// often. Measured on one block of S-SYNC cells at the benchmark's
    /// base sizes (the six apps at 12–48 qubits on G-3x3 and G-2x3): 392
    /// fallbacks on 48 cells, and 19,208 of 28,903 blocked rounds (66%)
    /// fall inside stall windows that end in a fallback. On the long-chain
    /// cells (20–40 qubits on L-2, S-4 and G-2x2): 94 fallbacks on 54
    /// cells, 4,606 of 9,996 blocked rounds (46%). ROADMAP item 3 plans to
    /// rewind those windows.
    pub max_stall_iterations: usize,
    /// Bonus subtracted from a candidate's heuristic score when applying it
    /// makes a frontier gate immediately executable. This breaks the exact
    /// cancellation between a shuttle's distance gain and its edge weight
    /// in Eq. (1), letting route-completing shuttles win over no-op moves.
    pub executable_bonus: f64,
    /// Swap-schedule implementation used by the permutation-routing
    /// compiler (`CompilerKind::PermRoute`) to realise a blocked frontier
    /// layer's permutation wholesale. The default is the sub-quadratic
    /// production schedule; `BubbleSort` is the exact-oracle reference for
    /// ablations. It changes the SWAP-gate stream, so remote submissions
    /// carry it like every other field.
    pub perm_schedule: SwapScheduleKind,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            weights: WeightConfig::default(),
            decay_delta: 0.001,
            decay_reset_interval: 5,
            lookahead_layers: 8,
            alpha: 1.0,
            beta: 1.0,
            initial_mapping: InitialMapping::default(),
            gate_impl: GateImplementation::Fm,
            op_times: OperationTimes::default(),
            noise: NoiseModel::default(),
            max_stall_iterations: 48,
            executable_bonus: 2.0,
            perm_schedule: SwapScheduleKind::default(),
        }
    }
}

impl CompilerConfig {
    /// Returns a copy with a different initial-mapping strategy.
    pub fn with_initial_mapping(mut self, mapping: InitialMapping) -> Self {
        self.initial_mapping = mapping;
        self
    }

    /// Returns a copy with a different gate implementation.
    pub fn with_gate_impl(mut self, gate_impl: GateImplementation) -> Self {
        self.gate_impl = gate_impl;
        self
    }

    /// Returns a copy with a different decay rate δ.
    pub fn with_decay(mut self, delta: f64) -> Self {
        self.decay_delta = delta;
        self
    }

    /// Returns a copy with a different shuttle-to-inner weight ratio
    /// (Fig. 14 sensitivity sweep).
    pub fn with_weight_ratio(mut self, ratio: f64) -> Self {
        self.weights = WeightConfig::with_ratio(ratio);
        self
    }

    /// Returns a copy with a different permutation-routing swap schedule
    /// (only `CompilerKind::PermRoute` reads it).
    pub fn with_perm_schedule(mut self, schedule: SwapScheduleKind) -> Self {
        self.perm_schedule = schedule;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_hyperparameters() {
        let c = CompilerConfig::default();
        assert_eq!(c.weights.inner_weight, 0.001);
        assert_eq!(c.weights.shuttle_weight, 1.0);
        assert_eq!(c.decay_delta, 0.001);
        assert_eq!(c.decay_reset_interval, 5);
        assert_eq!(c.lookahead_layers, 8);
        assert_eq!(c.initial_mapping, InitialMapping::Gathering);
        assert_eq!(c.gate_impl, GateImplementation::Fm);
    }

    #[test]
    fn builder_style_overrides() {
        let c = CompilerConfig::default()
            .with_initial_mapping(InitialMapping::Sta)
            .with_gate_impl(GateImplementation::Am2)
            .with_decay(0.01)
            .with_weight_ratio(100.0);
        assert_eq!(c.initial_mapping, InitialMapping::Sta);
        assert_eq!(c.gate_impl, GateImplementation::Am2);
        assert_eq!(c.decay_delta, 0.01);
        assert!((c.weights.shuttle_weight / c.weights.inner_weight - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mapping_labels() {
        assert_eq!(InitialMapping::Gathering.label(), "gathering");
        assert_eq!(InitialMapping::EvenDivided.label(), "even-divided");
        assert_eq!(InitialMapping::Sta.label(), "STA");
        assert_eq!(InitialMapping::ALL.len(), 3);
    }
}
