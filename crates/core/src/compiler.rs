//! The top-level S-SYNC compiler pipeline (Fig. 1).

use crate::batch;
use crate::config::CompilerConfig;
use crate::error::CompileError;
use crate::idealized::IdealizationMode;
use crate::initial;
use crate::scheduler::{Scheduler, SchedulerScratch, SchedulerStats, ScoringTelemetry};
use ssync_arch::{Device, Placement, QccdTopology, TrapRouter};
use ssync_circuit::Circuit;
use ssync_sim::{CompiledProgram, ExecutionReport, ExecutionTracer, OpCounts};
use ssync_telemetry::FlightRecording;
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reusable per-worker compile state: the scheduler's working memory,
/// carried across compiles so batch and service workers stop paying the
/// per-compile scratch allocation, plus the worker's flight-recorder
/// switch. One instance belongs to one worker at a time (it is `Send` but
/// deliberately not shared), may be reused across circuits *and* devices,
/// and never influences compiled output — the batch golden tests and the
/// `flight_recorder` bench pin that down.
#[derive(Debug, Default)]
pub struct CompileScratch {
    scheduler: SchedulerScratch,
}

impl CompileScratch {
    /// Empty working memory; with `flight_recorder` set, compiles run with
    /// it carry a [`CompileOutcome::flight_recording`].
    pub fn new(flight_recorder: bool) -> Self {
        let mut scratch = Self::default();
        scratch.scheduler.flight_recorder = flight_recorder;
        scratch
    }

    /// Whether compiles run with this scratch carry a flight recording.
    pub fn flight_recorder(&self) -> bool {
        self.scheduler.flight_recorder
    }
}

/// The result of compiling (and evaluating) a circuit for a QCCD device.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    program: CompiledProgram,
    report: ExecutionReport,
    final_placement: Placement,
    scheduler_stats: SchedulerStats,
    scoring_telemetry: ScoringTelemetry,
    flight_recording: Option<Arc<FlightRecording>>,
    compile_time: Duration,
}

impl CompileOutcome {
    /// Assembles an outcome from its parts. Intended for alternative
    /// compiler front-ends (e.g. the baseline compilers) that produce the
    /// same artefacts through a different scheduling algorithm.
    pub fn from_parts(
        program: CompiledProgram,
        report: ExecutionReport,
        final_placement: Placement,
        compile_time: Duration,
    ) -> Self {
        CompileOutcome {
            program,
            report,
            final_placement,
            scheduler_stats: SchedulerStats::default(),
            scoring_telemetry: ScoringTelemetry::default(),
            flight_recording: None,
            compile_time,
        }
    }

    /// Assembles an outcome from *every* field, including the scheduler
    /// statistics [`CompileOutcome::from_parts`] defaults. Intended for
    /// codecs (persistent result caches, wire formats) that must
    /// reconstruct a previously-compiled outcome bit-identically.
    pub fn from_saved_parts(
        program: CompiledProgram,
        report: ExecutionReport,
        final_placement: Placement,
        scheduler_stats: SchedulerStats,
        compile_time: Duration,
    ) -> Self {
        CompileOutcome {
            program,
            report,
            final_placement,
            scheduler_stats,
            // Recordings (like scoring telemetry) describe work performed,
            // not the result, so rebuilt outcomes never carry one.
            flight_recording: None,
            scoring_telemetry: ScoringTelemetry::default(),
            compile_time,
        }
    }

    /// Returns this outcome with a compile flight recording attached
    /// (builder-style; used by compilers whose scheduling loop recorded
    /// decision events).
    pub fn with_flight_recording(mut self, recording: Option<Arc<FlightRecording>>) -> Self {
        self.flight_recording = recording;
        self
    }

    /// The hardware-compatible operation stream.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Operation counts (shuttle / SWAP numbers of Figs. 8–9).
    pub fn counts(&self) -> OpCounts {
        self.program.counts()
    }

    /// Timing and success-rate evaluation (Figs. 10–12 quantities).
    pub fn report(&self) -> ExecutionReport {
        self.report
    }

    /// Where every program qubit ended up after execution.
    pub fn final_placement(&self) -> &Placement {
        &self.final_placement
    }

    /// Search statistics of the generic-swap scheduler.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler_stats
    }

    /// Candidate-scoring telemetry of the scheduler run that produced this
    /// outcome (zeros for baseline compilers, for outcomes rebuilt by a
    /// codec, and for cache hits — the counters describe *work performed*,
    /// not the result, so they are deliberately not persisted).
    pub fn scoring_telemetry(&self) -> ScoringTelemetry {
        self.scoring_telemetry
    }

    /// The compile flight recording, when this compile ran with a
    /// recording [`CompileScratch`]. Like [`CompileOutcome::scoring_telemetry`]
    /// it describes the scheduling run, not the result: cache hits and
    /// codec-rebuilt outcomes return `None`.
    pub fn flight_recording(&self) -> Option<&Arc<FlightRecording>> {
        self.flight_recording.as_ref()
    }

    /// Wall-clock compilation time (the Fig. 15 quantity).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Re-evaluates the same compiled program under an idealisation mode
    /// (Fig. 16) and/or a different tracer, without recompiling.
    pub fn evaluate_with(
        &self,
        tracer: &ExecutionTracer,
        mode: IdealizationMode,
    ) -> ExecutionReport {
        tracer.evaluate(&mode.apply(&self.program))
    }
}

/// The S-SYNC compiler.
///
/// ```
/// use ssync_core::{SSyncCompiler, CompilerConfig};
/// use ssync_circuit::generators::bernstein_vazirani;
/// use ssync_arch::QccdTopology;
///
/// let compiler = SSyncCompiler::new(CompilerConfig::default());
/// let outcome = compiler
///     .compile(&bernstein_vazirani(16), &QccdTopology::grid(2, 2, 6))
///     .unwrap();
/// assert_eq!(outcome.counts().two_qubit_gates, 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SSyncCompiler {
    config: CompilerConfig,
}

impl SSyncCompiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: CompilerConfig) -> Self {
        SSyncCompiler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// The execution tracer matching this configuration's gate
    /// implementation, operation times and noise model.
    pub fn tracer(&self) -> ExecutionTracer {
        ExecutionTracer {
            gate_impl: self.config.gate_impl,
            op_times: self.config.op_times,
            noise: self.config.noise,
        }
    }

    /// Validates that `circuit` can run on `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::DeviceTooSmall`] if the device cannot hold
    /// every qubit plus one free space, and
    /// [`CompileError::DisconnectedTopology`] if some traps are unreachable.
    pub fn validate(&self, circuit: &Circuit, topology: &QccdTopology) -> Result<(), CompileError> {
        let slots = topology.total_capacity();
        if slots < circuit.num_qubits() + 1 {
            return Err(CompileError::DeviceTooSmall { qubits: circuit.num_qubits(), slots });
        }
        let router = TrapRouter::new(topology, self.config.weights);
        if !router.is_connected() {
            return Err(CompileError::DisconnectedTopology);
        }
        Ok(())
    }

    /// Validates that `circuit` can run on the prepared `device`, using the
    /// device's precomputed router (nothing is rebuilt).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SSyncCompiler::validate`].
    pub fn validate_on(&self, device: &Device, circuit: &Circuit) -> Result<(), CompileError> {
        let slots = device.topology().total_capacity();
        if slots < circuit.num_qubits() + 1 {
            return Err(CompileError::DeviceTooSmall { qubits: circuit.num_qubits(), slots });
        }
        if !device.is_connected() {
            return Err(CompileError::DisconnectedTopology);
        }
        Ok(())
    }

    /// Compiles `circuit` for `topology` and evaluates the result with the
    /// configured timing / noise models.
    ///
    /// This is a convenience wrapper that builds a throw-away [`Device`]
    /// and forwards to [`SSyncCompiler::compile_on`]; sweeps compiling many
    /// circuits against one machine should build the device once and call
    /// `compile_on` (or [`SSyncCompiler::compile_batch`]) directly.
    ///
    /// # Errors
    ///
    /// Returns an error when the device is too small, disconnected, or the
    /// scheduler exhausts its iteration budget (an internal failure).
    pub fn compile(
        &self,
        circuit: &Circuit,
        topology: &QccdTopology,
    ) -> Result<CompileOutcome, CompileError> {
        let device = Device::build(topology.clone(), self.config.weights);
        self.compile_on(&device, circuit)
    }

    /// Compiles `circuit` against a prepared, shared `device` artifact and
    /// evaluates the result with the configured timing / noise models. The
    /// slot graph, trap router, all-pairs distance matrix and trap→edge
    /// candidate index all come from `device`; nothing device-derived is
    /// rebuilt, so this is the entry point to amortise over many circuits.
    ///
    /// [`CompileOutcome::compile_time`] covers compilation proper (initial
    /// mapping + scheduling + evaluation) and deliberately excludes the
    /// device build, which is a per-sweep rather than per-circuit cost.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SSyncCompiler::compile`].
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than this
    /// compiler's configuration — distances would silently disagree with
    /// the heuristic otherwise.
    pub fn compile_on(
        &self,
        device: &Device,
        circuit: &Circuit,
    ) -> Result<CompileOutcome, CompileError> {
        self.compile_on_with_scratch(device, circuit, &mut CompileScratch::default())
    }

    /// [`SSyncCompiler::compile_on`] reusing a caller-owned
    /// [`CompileScratch`]: the scheduler's working memory is taken from
    /// `scratch` for the duration of the compile and handed back
    /// afterwards, so a worker compiling many circuits allocates its
    /// buffers once, and the scratch's flight-recorder switch decides
    /// whether the outcome carries a recording. Output is bit-identical to
    /// `compile_on` — the scratch only recycles allocations and observes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SSyncCompiler::compile`].
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than this
    /// compiler's configuration.
    pub fn compile_on_with_scratch(
        &self,
        device: &Device,
        circuit: &Circuit,
        scratch: &mut CompileScratch,
    ) -> Result<CompileOutcome, CompileError> {
        assert!(
            device.weights() == self.config.weights,
            "device was built with different edge weights than the compiler config"
        );
        self.validate_on(device, circuit)?;
        // Force the lazily-built all-pairs matrix before the timer starts:
        // it is a per-device cost, and letting the first compile of a batch
        // absorb it would skew that circuit's reported compile_time.
        device.distance_matrix();
        let start = Instant::now();
        let placement = initial::build_placement(circuit, device, &self.config);
        let mut scheduler =
            Scheduler::with_scratch(device, &self.config, std::mem::take(&mut scratch.scheduler));
        let result = scheduler.run(circuit, placement);
        let scheduler_stats = scheduler.stats();
        let scoring_telemetry = scheduler.scoring_telemetry();
        let flight_recording = scheduler.take_recording().map(Arc::new);
        scratch.scheduler = scheduler.into_scratch();
        let (program, final_placement) = result?;
        let compile_time = start.elapsed();
        let report = self.tracer().evaluate(&program);
        Ok(CompileOutcome {
            program,
            report,
            final_placement,
            scheduler_stats,
            scoring_telemetry,
            flight_recording,
            compile_time,
        })
    }

    /// Compiles every circuit of `circuits` against one shared `device`,
    /// fanning the independent compilations out over scoped worker threads.
    /// The worker count comes from [`batch::resolve_workers`] (the
    /// `SSYNC_BATCH_WORKERS` environment variable, then the machine's
    /// available parallelism). Results are returned **in input order** and
    /// are bit-identical to calling [`SSyncCompiler::compile_on`] per
    /// circuit, whatever the worker count.
    ///
    /// The work-list is generic over [`Borrow<Circuit>`], so both plain
    /// `&[Circuit]` slices and shared `&[Arc<Circuit>]` work-lists (the
    /// service / sweep shape, where one circuit targets many devices
    /// without being cloned) compile through the same entry point.
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than this
    /// compiler's configuration.
    pub fn compile_batch<C: Borrow<Circuit> + Sync>(
        &self,
        device: &Device,
        circuits: &[C],
    ) -> Vec<Result<CompileOutcome, CompileError>> {
        self.compile_batch_with_workers(device, circuits, batch::resolve_workers(0))
    }

    /// [`SSyncCompiler::compile_batch`] with an explicit worker count
    /// (mainly for tests proving worker-count independence). Every worker
    /// carries one [`CompileScratch`] across its share of the batch, so the
    /// scheduler's working memory is allocated `workers` times, not
    /// `circuits.len()` times.
    ///
    /// # Panics
    ///
    /// Panics if `device` was built with different edge weights than this
    /// compiler's configuration.
    pub fn compile_batch_with_workers<C: Borrow<Circuit> + Sync>(
        &self,
        device: &Device,
        circuits: &[C],
        workers: usize,
    ) -> Vec<Result<CompileOutcome, CompileError>> {
        batch::parallel_map_with(workers, circuits, CompileScratch::default, |scratch, _, c| {
            self.compile_on_with_scratch(device, c.borrow(), scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialMapping;
    use ssync_circuit::generators::{bernstein_vazirani, qaoa_nearest_neighbor, qft};
    use ssync_circuit::Qubit;
    use ssync_sim::GateImplementation;

    #[test]
    fn compile_preserves_gate_counts() {
        let circuit = qft(16);
        let topo = QccdTopology::grid(2, 2, 6);
        let outcome = SSyncCompiler::default().compile(&circuit, &topo).unwrap();
        let counts = outcome.counts();
        assert_eq!(counts.two_qubit_gates, circuit.two_qubit_gate_count());
        assert_eq!(counts.single_qubit_gates, circuit.single_qubit_gate_count());
        assert!(outcome.report().success_rate > 0.0);
        assert!(outcome.compile_time() > Duration::ZERO);
    }

    #[test]
    fn device_too_small_is_rejected() {
        let circuit = qft(16);
        let topo = QccdTopology::linear(2, 8); // exactly 16 slots: no spare space
        let err = SSyncCompiler::default().compile(&circuit, &topo).unwrap_err();
        assert!(matches!(err, CompileError::DeviceTooSmall { .. }));
    }

    #[test]
    fn bv_needs_few_shuttles_under_gathering() {
        // BV's 2-qubit gates all target one ancilla; with the gathering
        // mapping most of them are already co-located.
        let circuit = bernstein_vazirani(20);
        let topo = QccdTopology::grid(2, 2, 8);
        let outcome = SSyncCompiler::default().compile(&circuit, &topo).unwrap();
        assert!(outcome.counts().shuttles <= 2 * circuit.two_qubit_gate_count());
        assert!(outcome.report().success_rate > 0.5);
    }

    #[test]
    fn idealized_modes_are_upper_bounds() {
        let circuit = qft(14);
        let topo = QccdTopology::grid(2, 2, 5);
        let compiler = SSyncCompiler::default();
        let outcome = compiler.compile(&circuit, &topo).unwrap();
        let tracer = compiler.tracer();
        let base = outcome.report().success_rate;
        let perfect_swap = outcome.evaluate_with(&tracer, IdealizationMode::PerfectSwap);
        let perfect_shuttle = outcome.evaluate_with(&tracer, IdealizationMode::PerfectShuttle);
        let ideal = outcome.evaluate_with(&tracer, IdealizationMode::Ideal);
        assert!(perfect_swap.success_rate >= base);
        assert!(perfect_shuttle.success_rate >= base);
        assert!(ideal.success_rate >= perfect_swap.success_rate.min(perfect_shuttle.success_rate));
    }

    #[test]
    fn different_gate_impls_change_execution_time() {
        let circuit = qaoa_nearest_neighbor(16, 2);
        let topo = QccdTopology::grid(2, 2, 6);
        let fm = SSyncCompiler::new(CompilerConfig::default()).compile(&circuit, &topo).unwrap();
        let am2 =
            SSyncCompiler::new(CompilerConfig::default().with_gate_impl(GateImplementation::Am2))
                .compile(&circuit, &topo)
                .unwrap();
        assert_ne!(fm.report().total_time_us, am2.report().total_time_us);
    }

    #[test]
    fn initial_mapping_changes_shuttle_profile() {
        let circuit = qft(20);
        let topo = QccdTopology::grid(2, 3, 8);
        let gathering = SSyncCompiler::new(
            CompilerConfig::default().with_initial_mapping(InitialMapping::Gathering),
        )
        .compile(&circuit, &topo)
        .unwrap();
        let even = SSyncCompiler::new(
            CompilerConfig::default().with_initial_mapping(InitialMapping::EvenDivided),
        )
        .compile(&circuit, &topo)
        .unwrap();
        // Gathering co-locates qubits, so it should not need more shuttles
        // than the even-divided start.
        assert!(gathering.counts().shuttles <= even.counts().shuttles);
    }

    #[test]
    fn final_placement_is_consistent() {
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        let topo = QccdTopology::linear(3, 4);
        let outcome = SSyncCompiler::default().compile(&c, &topo).unwrap();
        outcome.final_placement().validate().unwrap();
        assert!(outcome.final_placement().is_complete());
    }
}
