//! The motional-heating fidelity model of Eq. (4).

use serde::{Deserialize, Serialize};

/// Fidelity model for trapped-ion operations (Sec. 4.1):
///
/// `F = 1 − Γτ − A(2n̄ + 1)`
///
/// where `Γ` is the background heating rate, `τ` the operation time, `n̄`
/// the accumulated motional quanta of the chain and `A ∝ N / ln N` a
/// thermal scaling factor in the chain length `N`. Splitting/merging a
/// chain adds `k₁` quanta and each shuttled segment adds `k₂` quanta
/// (defaults `k₁ = 0.1`, `k₂ = 0.01`, `Γ = 1`, matching Sec. 4.2 and the
/// Murali et al. configuration the paper reuses).
///
/// The proportionality constant of `A` is not given in the paper; it is
/// exposed as [`NoiseModel::thermal_scale`] and calibrated so the reported
/// success-rate ranges are reproduced in order of magnitude (see
/// EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Background heating rate Γ, in quanta per second.
    pub heating_rate_gamma: f64,
    /// Motional quanta added by a split + merge pair (k₁).
    pub k1_split_merge: f64,
    /// Motional quanta added per shuttled segment (k₂).
    pub k2_shuttle_segment: f64,
    /// Proportionality constant of the thermal scaling factor
    /// `A = thermal_scale · N / ln N`.
    pub thermal_scale: f64,
    /// Fidelity of a single-qubit gate (99.9999 % in the paper).
    pub single_qubit_fidelity: f64,
    /// Fraction of a chain's motional quanta removed after each two-qubit
    /// gate by sympathetic re-cooling (0 = no cooling, 1 = perfect reset).
    pub recooling_factor: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            heating_rate_gamma: 1.0,
            k1_split_merge: 0.1,
            k2_shuttle_segment: 0.01,
            thermal_scale: 2.0e-5,
            single_qubit_fidelity: 0.999_999,
            recooling_factor: 0.0,
        }
    }
}

impl NoiseModel {
    /// The thermal scaling factor `A = thermal_scale · N / ln N` for a
    /// chain of `chain_len` ions.
    pub fn thermal_factor_a(&self, chain_len: usize) -> f64 {
        let n = chain_len.max(2) as f64;
        self.thermal_scale * n / n.ln()
    }

    /// Fidelity of a two-qubit gate of duration `tau_us` (µs) executed in a
    /// chain of `chain_len` ions carrying `n_bar` motional quanta, per
    /// Eq. (4). Clamped to `[0, 1]`.
    pub fn two_qubit_fidelity(&self, tau_us: f64, chain_len: usize, n_bar: f64) -> f64 {
        let tau_s = tau_us * 1e-6;
        let f = 1.0
            - self.heating_rate_gamma * tau_s
            - self.thermal_factor_a(chain_len) * (2.0 * n_bar + 1.0);
        f.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, ExecutionTracer, ScheduledOp};
    use ssync_arch::TrapId;
    use ssync_circuit::Qubit;

    #[test]
    fn defaults_match_paper_constants() {
        let m = NoiseModel::default();
        assert_eq!(m.heating_rate_gamma, 1.0);
        assert_eq!(m.k1_split_merge, 0.1);
        assert_eq!(m.k2_shuttle_segment, 0.01);
        assert_eq!(m.single_qubit_fidelity, 0.999_999);
    }

    #[test]
    fn fidelity_decreases_with_time_heat_and_chain_length() {
        let m = NoiseModel::default();
        let base = m.two_qubit_fidelity(100.0, 10, 0.0);
        assert!(base > 0.99 && base < 1.0);
        assert!(m.two_qubit_fidelity(500.0, 10, 0.0) < base);
        assert!(m.two_qubit_fidelity(100.0, 10, 5.0) < base);
        assert!(m.two_qubit_fidelity(100.0, 30, 0.0) < base);
    }

    #[test]
    fn fidelity_is_clamped() {
        let m = NoiseModel { thermal_scale: 10.0, ..NoiseModel::default() };
        assert_eq!(m.two_qubit_fidelity(100.0, 20, 100.0), 0.0);
        let perfect = NoiseModel { heating_rate_gamma: 0.0, thermal_scale: 0.0, ..m };
        assert_eq!(perfect.two_qubit_fidelity(1e9, 20, 100.0), 1.0);
    }

    #[test]
    fn thermal_factor_grows_superlinearly_over_log() {
        let m = NoiseModel::default();
        assert!(m.thermal_factor_a(20) > m.thermal_factor_a(10));
        // N / ln N is increasing for N >= 3.
        assert!(m.thermal_factor_a(50) > m.thermal_factor_a(20));
    }

    #[test]
    fn shuttle_heating_accounts_for_junctions() {
        // The tracer heats the destination chain of a shuttle by half of
        // k₁ (the merge) plus k₂ per segment, counting each junction
        // crossing as an extra segment.
        let heat = |junctions| {
            let mut p = CompiledProgram::new(1, 2);
            p.push(ScheduledOp::Shuttle {
                qubit: Qubit(0),
                from_trap: TrapId(0),
                to_trap: TrapId(1),
                junctions,
                segments: 1,
                source_chain_len: 1,
                dest_chain_len: 1,
            });
            ExecutionTracer::default().evaluate(&p).max_motional_quanta
        };
        assert!((heat(0) - 0.06).abs() < 1e-12);
        assert!((heat(2) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn background_heating_converts_microseconds() {
        // Γτ with τ in microseconds: half a second at Γ = 1 costs half
        // the fidelity.
        let m = NoiseModel { thermal_scale: 0.0, ..NoiseModel::default() };
        assert!((m.two_qubit_fidelity(500_000.0, 2, 0.0) - 0.5).abs() < 1e-12);
    }
}
