//! Regenerates Fig. 13: success rate of the large benchmarks under the
//! four two-qubit gate implementations (FM, AM1, AM2, PM) on a G-2x3
//! device with trap capacity 16.
//!
//! The device is registered (and built) once in the compile service;
//! every benchmark compiles against it in one batch submission, then the
//! schedule is re-evaluated (not recompiled) under each gate
//! implementation.

use ssync_arch::QccdTopology;
use ssync_bench::table::fmt_rate;
use ssync_bench::{scaled_app, AppKind, BenchScale, CompilerKind, Table};
use ssync_core::{CompilerConfig, SSyncCompiler};
use ssync_service::{CompileRequest, CompileService};
use ssync_sim::{ExecutionTracer, GateImplementation};
use std::sync::Arc;

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
    let service = CompileService::new();
    let device = service
        .registry()
        .get_or_build("G-2x3@96", config.weights, || QccdTopology::grid(2, 3, 16));
    let compiler = SSyncCompiler::new(config);

    let circuits: Vec<_> =
        apps.iter().map(|&(app, qubits)| Arc::new(scaled_app(app, qubits))).collect();
    let labels: Vec<String> = apps
        .iter()
        .zip(&circuits)
        .map(|(&(app, _), c)| format!("{}_{}", app.label(), c.num_qubits()))
        .collect();
    eprintln!(
        "[fig13] submitting {} benchmarks to the compile service ({} workers)",
        circuits.len(),
        service.workers()
    );
    // The schedule is gate-implementation independent: compile each circuit
    // once (in one shared-device batch) and re-evaluate the timing/fidelity
    // under each implementation.
    let handles = service.submit_batch(circuits.iter().map(|circuit| {
        CompileRequest::new(Arc::clone(&device), Arc::clone(circuit), CompilerKind::SSync, config)
    }));

    let mut table = Table::new(["Application", "FM", "AM1", "AM2", "PM"]);
    for (label, handle) in labels.into_iter().zip(&handles) {
        let outcome = handle.wait().expect("compilation succeeds");
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
