//! Execution tracer: walks a compiled program and evaluates the timing and
//! fidelity models to produce the execution time and success rate reported
//! in the paper's figures.

use crate::gate_impl::GateImplementation;
use crate::noise::NoiseModel;
use crate::op_times::OperationTimes;
use crate::ops::{CompiledProgram, OpCounts, ScheduledOp};
use serde::{Deserialize, Serialize};

/// The outcome of tracing a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Estimated makespan in microseconds (per-trap timelines; operations
    /// spanning two traps synchronise both).
    pub total_time_us: f64,
    /// End-to-end success rate: the product of every gate fidelity.
    pub success_rate: f64,
    /// Time spent in entangling gates (µs, summed over traps).
    pub gate_time_us: f64,
    /// Time spent in transport (shuttles and reorders, µs, summed).
    pub transport_time_us: f64,
    /// Operation counts of the traced program.
    pub counts: OpCounts,
    /// The largest motional occupation reached by any chain.
    pub max_motional_quanta: f64,
}

impl ExecutionReport {
    /// `log10` of the success rate (`-inf` if the success rate is zero),
    /// convenient for the log-scale plots of Figs. 10–12.
    pub fn log10_success(&self) -> f64 {
        self.success_rate.log10()
    }
}

/// Walks a [`CompiledProgram`], tracking per-trap chain heat and timelines.
///
/// ```
/// use ssync_sim::{CompiledProgram, ExecutionTracer, ScheduledOp};
/// use ssync_arch::TrapId;
/// use ssync_circuit::Qubit;
///
/// let mut p = CompiledProgram::new(2, 1);
/// p.push(ScheduledOp::TwoQubitGate {
///     a: Qubit(0), b: Qubit(1), trap: TrapId(0), chain_len: 2, ion_distance: 1,
/// });
/// let report = ExecutionTracer::default().evaluate(&p);
/// assert!(report.success_rate > 0.99);
/// assert!(report.total_time_us >= 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecutionTracer {
    /// The two-qubit gate implementation (FM by default).
    pub gate_impl: GateImplementation,
    /// Transport-primitive execution times.
    pub op_times: OperationTimes,
    /// The fidelity model.
    pub noise: NoiseModel,
}

impl ExecutionTracer {
    /// Creates a tracer with an explicit gate implementation and default
    /// operation times / noise model.
    pub fn with_gate_impl(gate_impl: GateImplementation) -> Self {
        ExecutionTracer { gate_impl, ..ExecutionTracer::default() }
    }

    /// Traces `program` and reports execution time and success rate.
    pub fn evaluate(&self, program: &CompiledProgram) -> ExecutionReport {
        let num_traps = program.num_traps().max(1);
        let mut trap_clock = vec![0.0f64; num_traps];
        let mut trap_nbar = vec![0.0f64; num_traps];
        let mut success = 1.0f64;
        let mut gate_time = 0.0f64;
        let mut transport_time = 0.0f64;
        let mut max_nbar = 0.0f64;

        for op in program.ops() {
            match *op {
                ScheduledOp::SingleQubitGate { .. } => {
                    // Single-qubit gates are fast, parallel and near-perfect:
                    // they contribute fidelity but negligible serial time.
                    success *= self.noise.single_qubit_fidelity;
                }
                ScheduledOp::TwoQubitGate { trap, chain_len, ion_distance, .. } => {
                    let (chain_len, ion_distance) = (chain_len.into(), ion_distance.into());
                    let tau = self.gate_impl.two_qubit_duration_us(chain_len, ion_distance);
                    let f = self.noise.two_qubit_fidelity(tau, chain_len, trap_nbar[trap.index()]);
                    success *= f;
                    trap_clock[trap.index()] += tau;
                    gate_time += tau;
                    self.recool(&mut trap_nbar[trap.index()]);
                }
                ScheduledOp::SwapGate { trap, chain_len, ion_distance, .. } => {
                    // A SWAP is three entangling gates.
                    let (chain_len, ion_distance) = (chain_len.into(), ion_distance.into());
                    let tau = self.gate_impl.two_qubit_duration_us(chain_len, ion_distance);
                    for _ in 0..3 {
                        let f =
                            self.noise.two_qubit_fidelity(tau, chain_len, trap_nbar[trap.index()]);
                        success *= f;
                    }
                    trap_clock[trap.index()] += 3.0 * tau;
                    gate_time += 3.0 * tau;
                    self.recool(&mut trap_nbar[trap.index()]);
                }
                ScheduledOp::IonReorder { trap, steps } => {
                    let tau = self.op_times.reorder_us * f64::from(steps);
                    trap_clock[trap.index()] += tau;
                    transport_time += tau;
                }
                ScheduledOp::Shuttle { from_trap, to_trap, junctions, segments, .. } => {
                    // Every junction crossing is costed as a 3-path junction.
                    let junction_paths = std::iter::repeat_n(3, junctions as usize);
                    let tau = self.op_times.shuttle_us(segments.into(), junction_paths);
                    let start = trap_clock[from_trap.index()].max(trap_clock[to_trap.index()]);
                    let end = start + tau;
                    trap_clock[from_trap.index()] = end;
                    trap_clock[to_trap.index()] = end;
                    transport_time += tau;
                    // Splitting heats the source chain; merging plus the
                    // transport itself heat the destination chain.
                    trap_nbar[from_trap.index()] += self.noise.k1_split_merge / 2.0;
                    trap_nbar[to_trap.index()] += self.noise.k1_split_merge / 2.0
                        + self.noise.k2_shuttle_segment * f64::from(junctions + 1);
                }
            }
            for &n in &trap_nbar {
                if n > max_nbar {
                    max_nbar = n;
                }
            }
        }

        let total_time_us = trap_clock.iter().copied().fold(0.0f64, f64::max);
        ExecutionReport {
            total_time_us,
            success_rate: success.clamp(0.0, 1.0),
            gate_time_us: gate_time,
            transport_time_us: transport_time,
            counts: program.counts(),
            max_motional_quanta: max_nbar,
        }
    }

    fn recool(&self, nbar: &mut f64) {
        if self.noise.recooling_factor > 0.0 {
            *nbar *= 1.0 - self.noise.recooling_factor.clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::TrapId;
    use ssync_circuit::Qubit;

    fn gate(trap: u32, chain_len: u16) -> ScheduledOp {
        ScheduledOp::TwoQubitGate {
            a: Qubit(0),
            b: Qubit(1),
            trap: TrapId(trap),
            chain_len,
            ion_distance: 1,
        }
    }

    fn shuttle(from: u32, to: u32, junctions: u32) -> ScheduledOp {
        ScheduledOp::Shuttle {
            qubit: Qubit(0),
            from_trap: TrapId(from),
            to_trap: TrapId(to),
            junctions,
            segments: 1,
            source_chain_len: 3,
            dest_chain_len: 3,
        }
    }

    #[test]
    fn empty_program_is_instant_and_perfect() {
        let r = ExecutionTracer::default().evaluate(&CompiledProgram::new(2, 2));
        assert_eq!(r.total_time_us, 0.0);
        assert_eq!(r.success_rate, 1.0);
    }

    #[test]
    fn two_qubit_gate_time_and_fidelity() {
        let mut p = CompiledProgram::new(2, 1);
        p.push(gate(0, 2));
        let r = ExecutionTracer::default().evaluate(&p);
        assert_eq!(r.total_time_us, 100.0); // FM floor
        assert!(r.success_rate > 0.99 && r.success_rate < 1.0);
        assert_eq!(r.gate_time_us, 100.0);
        assert_eq!(r.transport_time_us, 0.0);
    }

    #[test]
    fn shuttles_heat_chains_and_lower_later_fidelity() {
        let tracer = ExecutionTracer::default();
        let mut clean = CompiledProgram::new(2, 2);
        clean.push(gate(1, 3));
        let clean_sr = tracer.evaluate(&clean).success_rate;

        let mut heated = CompiledProgram::new(2, 2);
        for _ in 0..20 {
            heated.push(shuttle(0, 1, 1));
        }
        heated.push(gate(1, 3));
        let heated_report = tracer.evaluate(&heated);
        assert!(heated_report.success_rate < clean_sr);
        assert!(heated_report.max_motional_quanta > 0.0);
        assert!(heated_report.transport_time_us > 0.0);
    }

    #[test]
    fn swap_costs_three_gates() {
        let tracer = ExecutionTracer::default();
        let mut with_swap = CompiledProgram::new(2, 1);
        with_swap.push(ScheduledOp::SwapGate {
            a: Qubit(0),
            b: Qubit(1),
            trap: TrapId(0),
            chain_len: 2,
            ion_distance: 1,
        });
        let r = tracer.evaluate(&with_swap);
        assert_eq!(r.total_time_us, 300.0);
        let mut single = CompiledProgram::new(2, 1);
        single.push(gate(0, 2));
        assert!(r.success_rate < tracer.evaluate(&single).success_rate);
    }

    #[test]
    fn parallel_traps_overlap_in_time() {
        let tracer = ExecutionTracer::default();
        let mut parallel = CompiledProgram::new(4, 2);
        parallel.push(gate(0, 2));
        parallel.push(gate(1, 2));
        let r = tracer.evaluate(&parallel);
        // Two gates on different traps proceed concurrently.
        assert_eq!(r.total_time_us, 100.0);
        let mut serial = CompiledProgram::new(4, 1);
        serial.push(gate(0, 2));
        serial.push(gate(0, 2));
        assert_eq!(tracer.evaluate(&serial).total_time_us, 200.0);
    }

    #[test]
    fn shuttle_synchronises_both_traps() {
        let tracer = ExecutionTracer::default();
        let mut p = CompiledProgram::new(2, 2);
        p.push(gate(0, 2)); // trap 0 busy until 100
        p.push(shuttle(0, 1, 0)); // starts at 100
        let r = tracer.evaluate(&p);
        let shuttle_time = OperationTimes::default().shuttle_us(1, []);
        assert!((r.total_time_us - (100.0 + shuttle_time)).abs() < 1e-9);
    }

    #[test]
    fn longer_chains_slow_down_fm_gates() {
        let tracer = ExecutionTracer::default();
        let mut short = CompiledProgram::new(2, 1);
        short.push(gate(0, 5));
        let mut long = CompiledProgram::new(2, 1);
        long.push(gate(0, 20));
        assert!(tracer.evaluate(&long).total_time_us > tracer.evaluate(&short).total_time_us);
    }

    #[test]
    fn single_qubit_gates_affect_only_fidelity() {
        let tracer = ExecutionTracer::default();
        let mut p = CompiledProgram::new(1, 1);
        for _ in 0..1000 {
            p.push(ScheduledOp::SingleQubitGate { qubit: Qubit(0) });
        }
        let r = tracer.evaluate(&p);
        assert_eq!(r.total_time_us, 0.0);
        assert!(r.success_rate < 1.0 && r.success_rate > 0.999);
    }

    #[test]
    fn log10_success_matches() {
        let mut p = CompiledProgram::new(2, 1);
        p.push(gate(0, 2));
        let r = ExecutionTracer::default().evaluate(&p);
        assert!((r.log10_success() - r.success_rate.log10()).abs() < 1e-12);
    }

    #[test]
    fn recooling_improves_success() {
        let mut p = CompiledProgram::new(2, 2);
        for _ in 0..10 {
            p.push(shuttle(0, 1, 1));
            p.push(gate(1, 5));
        }
        let hot = ExecutionTracer::default().evaluate(&p).success_rate;
        let mut cooled_tracer = ExecutionTracer::default();
        cooled_tracer.noise.recooling_factor = 0.9;
        let cooled = cooled_tracer.evaluate(&p).success_rate;
        assert!(cooled > hot);
    }
}
