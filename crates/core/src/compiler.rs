//! The top-level S-SYNC compiler pipeline (Fig. 1).

use crate::config::CompilerConfig;
use crate::driver::{self, RunReport};
use crate::error::CompileError;
use crate::idealized::IdealizationMode;
use crate::scheduler::{SSyncRouting, Scheduler, SchedulerScratch, SchedulerStats};
use ssync_arch::{Device, Placement, QccdTopology};
use ssync_circuit::Circuit;
use ssync_sim::{CompiledProgram, ExecutionReport, ExecutionTracer, OpCounts};
use std::time::Duration;

/// Reusable per-worker compile state: the scheduler's working memory,
/// carried across compiles so the compile service's workers stop paying
/// the per-compile scratch allocation, plus the worker's flight-recorder
/// switch. One instance belongs to one worker at a time (it is `Send` but
/// deliberately not shared), may be reused across circuits *and* devices,
/// and never influences compiled output — the `service_equivalence`
/// golden tests and the `flight_recorder` bench pin that down. The recording, like the scoring
/// counters, comes back in the compile's [`RunReport`], never on the
/// [`CompileOutcome`].
#[derive(Debug, Default)]
pub struct CompileScratch {
    scheduler: SchedulerScratch,
    flight_recorder: bool,
}

impl CompileScratch {
    /// Empty working memory; with `flight_recorder` set, compiles run with
    /// it return a [`RunReport::recording`].
    pub fn new(flight_recorder: bool) -> Self {
        CompileScratch { scheduler: SchedulerScratch::default(), flight_recorder }
    }

    /// Whether compiles run with this scratch record a flight recording.
    pub fn flight_recorder(&self) -> bool {
        self.flight_recorder
    }
}

/// The result of compiling (and evaluating) a circuit for a QCCD device.
/// Every field is a function of the compile's inputs except
/// `compile_time`, so a result cache may store and serve it; what a run
/// did beside it is the [`RunReport`] the driver returns with it.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    pub(crate) program: CompiledProgram,
    pub(crate) report: ExecutionReport,
    pub(crate) final_placement: Placement,
    pub(crate) scheduler_stats: SchedulerStats,
    pub(crate) compile_time: Duration,
}

impl CompileOutcome {
    /// Assembles an outcome from its parts, with default scheduler
    /// statistics. Intended for tools that build a program outside the
    /// compile driver, such as checkers fed deliberately altered ops.
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
        CompileOutcome { program, report, final_placement, scheduler_stats, compile_time }
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

    /// Wall-clock compilation time (the Fig. 15 quantity): initial
    /// placement and routing, without the evaluation.
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
        driver::tracer(&self.config)
    }

    /// Compiles `circuit` for `topology` and evaluates the result with the
    /// configured timing / noise models.
    ///
    /// This is a convenience wrapper that builds a throw-away [`Device`]
    /// and forwards to [`SSyncCompiler::compile_on`]; sweeps compiling many
    /// circuits against one machine should build the device once and call
    /// `compile_on` directly.
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
    /// [`CompileOutcome::compile_time`] covers initial placement and
    /// scheduling. It excludes the evaluation, which runs after the clock
    /// stops, and the device build, which is a per-sweep rather than a
    /// per-circuit cost.
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
            .map(|(outcome, _)| outcome)
    }

    /// [`SSyncCompiler::compile_on`] reusing a caller-owned
    /// [`CompileScratch`], returning the run's [`RunReport`] beside the
    /// outcome: the scheduler's working memory is taken from `scratch`
    /// for the duration of the compile and handed back afterwards, so a
    /// worker compiling many circuits allocates its buffers once, and the
    /// scratch's flight-recorder switch decides whether the report
    /// carries a recording. The outcome is bit-identical to `compile_on`
    /// — the scratch only recycles allocations and observes.
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
    ) -> Result<(CompileOutcome, RunReport), CompileError> {
        // The scheduler borrows the lazily-built all-pairs matrix, so
        // building it here, before the driver starts its timer, keeps that
        // per-device cost out of the first compile's compile_time.
        let mut scheduler =
            Scheduler::with_scratch(device, &self.config, std::mem::take(&mut scratch.scheduler));
        let compiled = driver::compile(
            SSyncRouting::new(&mut scheduler, circuit),
            device,
            circuit,
            &self.config,
            scratch.flight_recorder,
        );
        scratch.scheduler = scheduler.into_scratch();
        compiled
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
