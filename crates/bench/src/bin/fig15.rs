//! Regenerates Fig. 15: compilation time vs application size — S-SYNC
//! against the Murali et al. baseline on QFT (left panel) and across all
//! benchmarks for S-SYNC (right panel), on a G-2x2 device of capacity 20.
//!
//! One device, registered once in the compile service, serves the whole
//! figure. Because the per-circuit `compile_time` IS the quantity this
//! figure reports, the service runs a single worker: concurrent
//! compilations would contend for cores and inflate each other's
//! wall-clock readings. The right panel's QFT rows are the left panel's
//! S-SYNC compiles, served from the service's result cache.

use ssync_arch::QccdTopology;
use ssync_bench::{fitting_cells, AppKind, BenchScale, CompilerKind, Table};
use ssync_circuit::Circuit;
use ssync_core::CompilerConfig;
use ssync_service::{CompileRequest, CompileService};
use std::sync::Arc;

fn main() {
    let scale = BenchScale::from_env();
    let sizes: Vec<usize> = match scale {
        BenchScale::Paper => vec![48, 56, 64, 72],
        BenchScale::Small => vec![12, 16],
    };
    let config = CompilerConfig::default();
    // Single worker: compile_time is the measured quantity (see module doc).
    let service = CompileService::builder().workers(1).build();
    let device = service
        .registry()
        .get_or_build("G-2x2@80", config.weights, || QccdTopology::grid(2, 2, 20));
    let submit = |kind: CompilerKind, circuits: Vec<Circuit>| {
        service.submit_batch(circuits.into_iter().map(|circuit| {
            CompileRequest::new(Arc::clone(&device), Arc::new(circuit), kind, config)
        }))
    };

    // Left panel: QFT, S-SYNC vs Murali.
    let (qft_cells, qft_circuits) =
        fitting_cells(sizes.iter().map(|&size| (AppKind::Qft, size)), device.device().topology());
    eprintln!("[fig15] {} QFT sizes under both compilers (shared device)", qft_circuits.len());
    let murali = submit(CompilerKind::Murali, qft_circuits.clone());
    let ssync = submit(CompilerKind::SSync, qft_circuits);
    let mut left = Table::new([
        "QFT size".to_string(),
        format!("{} (s)", CompilerKind::Murali.label()),
        format!("{} (s)", CompilerKind::SSync.label()),
    ]);
    for ((&(_, qubits), m), s) in qft_cells.iter().zip(&murali).zip(&ssync) {
        let m = m.wait().expect("compilation succeeds");
        let s = s.wait().expect("compilation succeeds");
        left.push_row([
            qubits.to_string(),
            format!("{:.3}", m.compile_time().as_secs_f64()),
            format!("{:.3}", s.compile_time().as_secs_f64()),
        ]);
    }

    // Right panel: every benchmark under S-SYNC.
    let apps = [AppKind::Qft, AppKind::Adder, AppKind::Bv, AppKind::Qaoa, AppKind::Alt];
    let (cells, circuits) = fitting_cells(
        apps.iter().flat_map(|&app| sizes.iter().map(move |&size| (app, size))),
        device.device().topology(),
    );
    eprintln!("[fig15] {} benchmark circuits under S-SYNC (shared device)", circuits.len());
    let outcomes = submit(CompilerKind::SSync, circuits);
    let mut right = Table::new(["Application", "Size", "Compile time (s)"]);
    for (&(app, qubits), handle) in cells.iter().zip(&outcomes) {
        let outcome = handle.wait().expect("compilation succeeds");
        right.push_row([
            app.label().to_string(),
            qubits.to_string(),
            format!("{:.3}", outcome.compile_time().as_secs_f64()),
        ]);
    }

    println!("Fig. 15 (left) — compilation time, QFT, S-SYNC vs Murali et al. (G-2x2, cap 20)\n");
    println!("{left}");
    println!("Fig. 15 (right) — S-SYNC compilation time across benchmarks\n");
    println!("{right}");
    println!("Expected shape: S-SYNC's compilation time does not grow strictly with");
    println!("application size — as devices fill up there are fewer space nodes and");
    println!("therefore fewer candidate paths to score.");
    println!("Note: compile times cover compilation proper over a prepared device;");
    println!("the shared Device artifact (slot graph, router, distance matrix) is a");
    println!("per-sweep cost excluded here (see device_build in BENCH_scheduling.json).");
}
