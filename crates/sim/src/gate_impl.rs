//! Two-qubit gate duration models (Sec. 4.1 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The laser-pulse modulation technique used to implement two-qubit gates,
/// with the duration models quoted in Sec. 4.1:
///
/// * FM (frequency modulation): `τ = max(13.33 N − 54, 100)` µs, where `N`
///   is the number of ions in the chain,
/// * PM (phase modulation): `τ = 5 d + 160` µs, where `d` is the number of
///   ions *between* the two ions being entangled,
/// * AM1 (amplitude modulation, Wu et al.): `τ = 100 d − 22` µs,
/// * AM2 (amplitude modulation, Trout et al.): `τ = 38 d + 10` µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum GateImplementation {
    /// Frequency-modulated gate; duration scales with total chain length.
    #[default]
    Fm,
    /// Phase-modulated gate; duration scales with ion separation.
    Pm,
    /// Amplitude-modulated gate (variant 1); duration scales with separation.
    Am1,
    /// Amplitude-modulated gate (variant 2); duration scales with separation.
    Am2,
}

impl GateImplementation {
    /// All four implementations, in the order used by Fig. 13.
    pub const ALL: [GateImplementation; 4] = [
        GateImplementation::Fm,
        GateImplementation::Am1,
        GateImplementation::Am2,
        GateImplementation::Pm,
    ];

    /// Duration in microseconds of a two-qubit gate executed in a chain of
    /// `chain_len` ions with `ion_distance` chain positions between the two
    /// ions (so adjacent ions have `ion_distance == 1`, and `d`, the number
    /// of ions strictly between them, is `ion_distance - 1`).
    pub fn two_qubit_duration_us(self, chain_len: usize, ion_distance: usize) -> f64 {
        let n = chain_len.max(2) as f64;
        let d = ion_distance.saturating_sub(1) as f64;
        match self {
            GateImplementation::Fm => (13.33 * n - 54.0).max(100.0),
            GateImplementation::Pm => 5.0 * d + 160.0,
            GateImplementation::Am1 => (100.0 * d - 22.0).max(10.0),
            GateImplementation::Am2 => 38.0 * d + 10.0,
        }
    }

    /// Short label used in reports ("FM", "PM", "AM1", "AM2").
    pub fn label(self) -> &'static str {
        match self {
            GateImplementation::Fm => "FM",
            GateImplementation::Pm => "PM",
            GateImplementation::Am1 => "AM1",
            GateImplementation::Am2 => "AM2",
        }
    }
}

impl fmt::Display for GateImplementation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, ExecutionTracer, ScheduledOp};
    use ssync_arch::TrapId;
    use ssync_circuit::Qubit;

    #[test]
    fn fm_duration_has_floor_and_grows_with_chain() {
        let fm = GateImplementation::Fm;
        assert_eq!(fm.two_qubit_duration_us(2, 1), 100.0);
        assert_eq!(fm.two_qubit_duration_us(12, 1), 13.33 * 12.0 - 54.0);
        assert!(fm.two_qubit_duration_us(20, 1) > fm.two_qubit_duration_us(12, 1));
        // FM does not depend on ion separation.
        assert_eq!(fm.two_qubit_duration_us(15, 1), fm.two_qubit_duration_us(15, 10));
    }

    #[test]
    fn pm_duration_matches_formula() {
        let pm = GateImplementation::Pm;
        assert_eq!(pm.two_qubit_duration_us(10, 1), 160.0); // d = 0
        assert_eq!(pm.two_qubit_duration_us(10, 5), 5.0 * 4.0 + 160.0);
    }

    #[test]
    fn am_durations_match_formulas() {
        assert_eq!(GateImplementation::Am1.two_qubit_duration_us(10, 3), 100.0 * 2.0 - 22.0);
        assert_eq!(GateImplementation::Am2.two_qubit_duration_us(10, 3), 38.0 * 2.0 + 10.0);
        // AM1 at d = 0 is clamped to a small positive duration.
        assert!(GateImplementation::Am1.two_qubit_duration_us(10, 1) > 0.0);
    }

    #[test]
    fn am_gates_beat_fm_for_adjacent_ions_in_long_chains() {
        // The Fig. 13 observation: short-range apps prefer AM2.
        let long_chain = 17;
        let am2 = GateImplementation::Am2.two_qubit_duration_us(long_chain, 1);
        let fm = GateImplementation::Fm.two_qubit_duration_us(long_chain, 1);
        assert!(am2 < fm);
    }

    #[test]
    fn swap_is_three_gates() {
        // The tracer times a SWAP as three gates of the configured kind.
        let g = GateImplementation::Am2;
        let mut p = CompiledProgram::new(2, 1);
        p.push(ScheduledOp::SwapGate {
            a: Qubit(0),
            b: Qubit(1),
            trap: TrapId(0),
            chain_len: 10,
            ion_distance: 3,
        });
        let report = ExecutionTracer::with_gate_impl(g).evaluate(&p);
        assert_eq!(report.gate_time_us, 3.0 * g.two_qubit_duration_us(10, 3));
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(GateImplementation::Fm.to_string(), "FM");
        assert_eq!(GateImplementation::ALL.len(), 4);
        assert_eq!(GateImplementation::default(), GateImplementation::Fm);
    }
}
