//! The compile driver: the one skeleton every compiler kind runs.
//!
//! Every kind compiles the same way. [`compile`] checks that the circuit
//! fits the device, asks the kind for an initial placement and emits the
//! single-qubit gates up front (they never constrain routing). Then it
//! loops: each round executes every frontier gate whose operands share a
//! trap, and a round in which none does hands the blocked frontier to the
//! kind for one routing step. Once every gate has executed, the driver
//! evaluates the program. A [`RoutingPolicy`] holds only what differs
//! between kinds: the initial placement and that routing step.
//!
//! The driver also records the layer events of the flight recorder for
//! every kind: `LayerClosed` for each round whose drain retired gates, and
//! `LayerOpened` on the first blocked round after such a drain (and on the
//! first blocked round of a compile).
//!
//! A compile returns two values. The [`CompileOutcome`] is the result:
//! apart from its compile time, a pure function of the inputs, which a
//! result cache may keep. The
//! [`RunReport`] says what this one run did: the scoring counters and the
//! flight recording. Nothing in the report affects the outcome.

use crate::compiler::CompileOutcome;
use crate::config::CompilerConfig;
use crate::error::CompileError;
use crate::mechanics::Mechanics;
use crate::scheduler::{SchedulerStats, ScoringTelemetry};
use ssync_arch::{Device, Placement};
use ssync_circuit::{Circuit, DependencyDag};
use ssync_sim::{CompiledProgram, ExecutionTracer, ScheduledOp};
use ssync_telemetry::{FlightEvent, FlightRecorder, FlightRecording};
use std::time::Instant;

/// What one compile did, as opposed to what it produced: run telemetry
/// that never feeds back into the program and is never cached with it.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The S-SYNC scheduler's scoring counters; zeros for the other kinds.
    pub scoring: ScoringTelemetry,
    /// The compile's flight recording, when it ran with the recorder on.
    pub recording: Option<FlightRecording>,
}

/// What one compiler kind decides. [`compile`] does everything else.
pub trait RoutingPolicy {
    /// Rounds the driver allows per two-qubit gate, on top of a fixed
    /// 10,000, before it gives up with [`CompileError::SchedulingStalled`].
    const ROUNDS_PER_GATE: usize;

    /// Places every program qubit of `circuit` on `device`.
    fn place(&self, device: &Device, circuit: &Circuit) -> Placement;

    /// Takes one routing step while no frontier gate can execute. The
    /// step may leave the frontier blocked; the driver then calls again
    /// in the next round.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::SchedulingStalled`] when the policy cannot
    /// make progress.
    fn route_blocked(&mut self, round: BlockedRound<'_>) -> Result<(), CompileError>;

    /// The search statistics and scoring telemetry of a routing that took
    /// `rounds` rounds. Kinds without a search keep the defaults.
    fn stats(&self, _rounds: usize) -> (SchedulerStats, ScoringTelemetry) {
        Default::default()
    }
}

/// What a routing step sees and acts on.
#[derive(Debug)]
pub struct BlockedRound<'r> {
    /// The driver's round counter, starting at 1. Flight events carry it
    /// as their `layer`.
    pub round: usize,
    /// The dependency DAG; no gate of its frontier can execute.
    pub dag: &'r DependencyDag,
    /// Where every qubit sits.
    pub placement: &'r mut Placement,
    /// The program the step appends its SWAPs, reorders and shuttles to.
    pub program: &'r mut CompiledProgram,
    /// Placement mechanics over the device.
    pub mechanics: &'r Mechanics<'r>,
    /// The flight recorder, when the compile records.
    pub recorder: Option<&'r mut FlightRecorder>,
    /// `true` on the first blocked round of a compile and on the first
    /// blocked round after a drain that retired gates.
    pub frontier_changed: bool,
}

/// Compiles `circuit` on `device` with `policy`, then evaluates the
/// program with the tracer built from `config`'s gate implementation,
/// operation times and noise model. [`CompileOutcome::compile_time`]
/// covers placement and routing; it excludes the evaluation. With
/// `flight_recorder` set, the [`RunReport`] carries the compile's flight
/// recording.
///
/// # Errors
///
/// Returns [`CompileError::DeviceTooSmall`] when the device cannot hold
/// every qubit plus one free slot, [`CompileError::DisconnectedTopology`]
/// when some trap is unreachable, and [`CompileError::SchedulingStalled`]
/// when routing exhausts its round budget or the policy gives up.
///
/// # Panics
///
/// Panics if `device` was built with different edge weights than `config`.
pub fn compile<P: RoutingPolicy>(
    mut policy: P,
    device: &Device,
    circuit: &Circuit,
    config: &CompilerConfig,
    flight_recorder: bool,
) -> Result<(CompileOutcome, RunReport), CompileError> {
    assert!(
        device.weights() == config.weights,
        "device was built with different edge weights than the compiler config"
    );
    let slots = device.topology().total_capacity();
    if slots < circuit.num_qubits() + 1 {
        return Err(CompileError::DeviceTooSmall { qubits: circuit.num_qubits(), slots });
    }
    if !device.is_connected() {
        return Err(CompileError::DisconnectedTopology);
    }
    let mut recorder = flight_recorder.then(FlightRecorder::with_default_capacity);
    let start = Instant::now();
    let placement = policy.place(device, circuit);
    let mechanics = Mechanics::new(device.graph(), device.router());
    let mut routed = route(&mut policy, &mechanics, circuit, placement, recorder.as_mut())?;
    let compile_time = start.elapsed();
    // The outcome may live for long in a result cache: keep no slack.
    routed.program.shrink_to_fit();
    let (scheduler_stats, scoring) = policy.stats(routed.rounds);
    let report = tracer(config).evaluate(&routed.program);
    let outcome = CompileOutcome {
        program: routed.program,
        report,
        final_placement: routed.placement,
        scheduler_stats,
        compile_time,
    };
    Ok((outcome, RunReport { scoring, recording: recorder.map(FlightRecorder::into_recording) }))
}

/// The execution tracer for `config`'s gate implementation, operation
/// times and noise model.
pub(crate) fn tracer(config: &CompilerConfig) -> ExecutionTracer {
    ExecutionTracer { gate_impl: config.gate_impl, op_times: config.op_times, noise: config.noise }
}

/// A routed program, its final placement and the rounds it took.
pub(crate) struct Routed {
    pub(crate) program: CompiledProgram,
    pub(crate) placement: Placement,
    pub(crate) rounds: usize,
}

/// Emits the single-qubit gates, then drains and routes from `placement`
/// until every two-qubit gate has executed.
pub(crate) fn route<P: RoutingPolicy>(
    policy: &mut P,
    mechanics: &Mechanics<'_>,
    circuit: &Circuit,
    mut placement: Placement,
    mut recorder: Option<&mut FlightRecorder>,
) -> Result<Routed, CompileError> {
    let graph = mechanics.graph();
    let mut program = CompiledProgram::new(circuit.num_qubits(), graph.topology().num_traps());
    for gate in circuit.iter() {
        if !gate.is_two_qubit() {
            program.push(ScheduledOp::SingleQubitGate { qubit: gate.qubits()[0] });
        }
    }

    let mut dag = DependencyDag::from_circuit(circuit);
    let budget = 10_000 + P::ROUNDS_PER_GATE * dag.len();
    let (mut drain_scratch, mut executed) = (Vec::new(), Vec::new());
    let mut rounds = 0usize;
    let mut frontier_changed = true;
    while !dag.is_complete() {
        rounds += 1;
        if rounds > budget {
            return Err(CompileError::SchedulingStalled { remaining_gates: dag.remaining() });
        }

        // Execute every frontier gate whose operands share a trap.
        let placed = &placement;
        dag.drain_executable_into(
            |gate| {
                let Some((a, b)) = gate.two_qubit_pair() else { return false };
                match (placed.slot_of(a), placed.slot_of(b)) {
                    (Some(sa), Some(sb)) => graph.same_trap(sa, sb),
                    _ => false,
                }
            },
            &mut drain_scratch,
            &mut executed,
        );
        for &id in &executed {
            let (a, b) = dag.gate(id).two_qubit_pair().expect("two-qubit gate");
            mechanics.emit_two_qubit_gate(&placement, &mut program, a, b);
        }
        if !executed.is_empty() {
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(FlightEvent::LayerClosed {
                    layer: rounds as u64,
                    executed: executed.len() as u64,
                });
            }
            frontier_changed = true;
            continue;
        }

        // Every frontier gate is blocked: one routing step.
        if frontier_changed {
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(FlightEvent::LayerOpened {
                    layer: rounds as u64,
                    ready_gates: dag.frontier().len() as u64,
                });
            }
        }
        policy.route_blocked(BlockedRound {
            round: rounds,
            dag: &dag,
            placement: &mut placement,
            program: &mut program,
            mechanics,
            recorder: recorder.as_deref_mut(),
            frontier_changed,
        })?;
        frontier_changed = false;
    }
    Ok(Routed { program, placement, rounds })
}
