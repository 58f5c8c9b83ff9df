//! Regenerates Fig. 13: success rate of the large benchmarks under the
//! four two-qubit gate implementations (FM, AM1, AM2, PM) on a G-2x3
//! device with trap capacity 16.
//!
//! The device is built once; every benchmark compiles against it in one
//! parallel batch, then the schedule is re-evaluated (not recompiled)
//! under each gate implementation.

use ssync_arch::Device;
use ssync_bench::table::fmt_rate;
use ssync_bench::{
    run_compiler_batch_with_workers, scaled_app, AppKind, BenchScale, CompilerKind, Table,
};
use ssync_core::{batch, CompilerConfig, SSyncCompiler};
use ssync_sim::{ExecutionTracer, GateImplementation};

fn main() {
    let scale = BenchScale::from_env();
    let apps: Vec<(AppKind, usize)> = match scale {
        BenchScale::Paper => vec![
            (AppKind::Adder, 66),
            (AppKind::Qft, 64),
            (AppKind::Bv, 65),
            (AppKind::Qaoa, 64),
            (AppKind::Alt, 64),
        ],
        BenchScale::Small => vec![(AppKind::Qft, 16), (AppKind::Qaoa, 16)],
    };
    let config = CompilerConfig::default();
    let device = Device::build(ssync_arch::QccdTopology::grid(2, 3, 16), config.weights);
    let compiler = SSyncCompiler::new(config);

    let circuits: Vec<_> = apps.iter().map(|&(app, qubits)| scaled_app(app, qubits)).collect();
    let labels: Vec<String> = apps
        .iter()
        .zip(&circuits)
        .map(|(&(app, _), c)| format!("{}_{}", app.label(), c.num_qubits()))
        .collect();
    eprintln!("[fig13] compiling {} benchmarks in parallel", circuits.len());
    // The schedule is gate-implementation independent: compile each circuit
    // once (in one shared-device batch) and re-evaluate the timing/fidelity
    // under each implementation.
    let outcomes = run_compiler_batch_with_workers(
        CompilerKind::SSync,
        &device,
        &circuits,
        &config,
        batch::resolve_workers(0),
    );

    let mut table = Table::new(["Application", "FM", "AM1", "AM2", "PM"]);
    for (label, outcome) in labels.into_iter().zip(outcomes) {
        let outcome = outcome.expect("compilation succeeds");
        let rate_for = |gate_impl: GateImplementation| {
            let tracer = ExecutionTracer { gate_impl, ..compiler.tracer() };
            fmt_rate(tracer.evaluate(outcome.program()).success_rate)
        };
        table.push_row([
            label,
            rate_for(GateImplementation::Fm),
            rate_for(GateImplementation::Am1),
            rate_for(GateImplementation::Am2),
            rate_for(GateImplementation::Pm),
        ]);
    }
    println!("Fig. 13 — success rate per gate implementation (G-2x3, capacity 16)\n");
    println!("{table}");
    println!("Expected shape: AM2 wins for short-range apps (QAOA, ALT); FM/PM are");
    println!("better suited to long-range apps (QFT) because their duration depends");
    println!("only weakly on ion separation.");
}
