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
/// rate δ = 0.001 with a 5-iteration reset, heuristic look-ahead of 8
/// layers for the intra-trap mapping score, and path truncation m = 2.
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
    /// Maximum number of intermediate hops considered when scoring a path
    /// (the paper's m; the trap-level router generalises beyond it, but the
    /// sensitivity study keeps it configurable).
    pub path_truncation: usize,
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
    /// deterministic fallback router takes over (safety net; the heuristic
    /// almost never reaches it).
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
            path_truncation: 2,
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

/// Capacity bounds for a compile-result cache tier. `None` means
/// "unbounded" on that axis; both axes bounded means an entry is evicted
/// as soon as *either* cap is exceeded.
///
/// This lives in `ssync-core` (rather than the service crate) so every
/// cache tier — the in-process `ssync-service` result cache today, any
/// future standalone tier — shares one configuration vocabulary and the
/// same environment plumbing:
///
/// * `SSYNC_CACHE_MAX_ENTRIES` — maximum number of cached outcomes.
/// * `SSYNC_CACHE_MAX_BYTES` — approximate maximum resident bytes
///   (measured by the cache's weight function, not the allocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBounds {
    /// Maximum number of entries, `None` for unbounded.
    pub max_entries: Option<usize>,
    /// Approximate maximum resident bytes, `None` for unbounded.
    pub max_bytes: Option<usize>,
}

impl CacheBounds {
    /// No bounds on either axis (the historical unbounded-cache behaviour).
    pub const UNBOUNDED: CacheBounds = CacheBounds { max_entries: None, max_bytes: None };

    /// Bounds with an entry cap only.
    pub fn with_max_entries(entries: usize) -> Self {
        CacheBounds { max_entries: Some(entries), max_bytes: None }
    }

    /// Bounds with a byte cap only.
    pub fn with_max_bytes(bytes: usize) -> Self {
        CacheBounds { max_entries: None, max_bytes: Some(bytes) }
    }

    /// Reads the bounds from `SSYNC_CACHE_MAX_ENTRIES` /
    /// `SSYNC_CACHE_MAX_BYTES`. Missing or unparsable variables leave the
    /// axis unbounded; `0` also means unbounded (so a wrapper script can
    /// always set the variable).
    pub fn from_env() -> Self {
        fn axis(var: &str) -> Option<usize> {
            std::env::var(var).ok()?.trim().parse::<usize>().ok().filter(|&n| n > 0)
        }
        CacheBounds {
            max_entries: axis("SSYNC_CACHE_MAX_ENTRIES"),
            max_bytes: axis("SSYNC_CACHE_MAX_BYTES"),
        }
    }

    /// `true` when neither axis is bounded.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bounds_builders_and_unbounded() {
        assert!(CacheBounds::UNBOUNDED.is_unbounded());
        assert!(CacheBounds::default().is_unbounded());
        let entries = CacheBounds::with_max_entries(16);
        assert_eq!(entries.max_entries, Some(16));
        assert!(!entries.is_unbounded());
        let bytes = CacheBounds::with_max_bytes(1 << 20);
        assert_eq!(bytes.max_bytes, Some(1 << 20));
        assert!(!bytes.is_unbounded());
    }

    #[test]
    fn defaults_match_paper_hyperparameters() {
        let c = CompilerConfig::default();
        assert_eq!(c.weights.inner_weight, 0.001);
        assert_eq!(c.weights.shuttle_weight, 1.0);
        assert_eq!(c.decay_delta, 0.001);
        assert_eq!(c.decay_reset_interval, 5);
        assert_eq!(c.lookahead_layers, 8);
        assert_eq!(c.path_truncation, 2);
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
