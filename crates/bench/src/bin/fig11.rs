//! Regenerates Fig. 11: how communication topology and trap capacity affect
//! success rate and execution time, across seven QCCD topologies.
//!
//! Each (topology, capacity) cell registers its own device in the compile
//! service (built exactly once), and the whole (topology × capacity ×
//! application) product goes to the pool as one batch.

use ssync_arch::QccdTopology;
use ssync_bench::table::{fmt_rate, fmt_us};
use ssync_bench::{scaled_app, AppKind, BenchScale, CompilerKind, Table};
use ssync_core::CompilerConfig;
use ssync_service::{CompileRequest, CompileService};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let scale = BenchScale::from_env();
    let apps: Vec<(AppKind, usize)> = match scale {
        BenchScale::Paper => vec![
            (AppKind::Qft, 64),
            (AppKind::Bv, 65),
            (AppKind::Adder, 66),
            (AppKind::Heisenberg, 48),
        ],
        BenchScale::Small => vec![(AppKind::Qft, 16), (AppKind::Bv, 16)],
    };
    let capacities: Vec<usize> = match scale {
        BenchScale::Paper => vec![96, 120, 144, 160],
        BenchScale::Small => vec![24, 36],
    };
    let topologies = ["L-6", "G-2x3", "S-6", "L-4", "G-2x2", "S-4", "G-3x3"];
    let config = CompilerConfig::default();
    let service = CompileService::new();

    let circuits: Vec<_> =
        apps.iter().map(|&(app, qubits)| Arc::new(scaled_app(app, qubits))).collect();
    let labels: Vec<String> = apps
        .iter()
        .zip(&circuits)
        .map(|(&(app, _), c)| format!("{}_{}", app.label(), c.num_qubits()))
        .collect();

    // One device per (topology, capacity) cell: the paper topology with
    // its traps resized so the total capacity is close to the target,
    // named after both. Every fitting application of every cell is
    // submitted at once.
    let sweep_start = Instant::now();
    let mut cells = Vec::new();
    let mut requests = Vec::new();
    for (t, topo_name) in topologies.iter().enumerate() {
        for (c, &cap) in capacities.iter().enumerate() {
            let named = QccdTopology::named(topo_name).expect("a paper topology");
            let topo = named.with_capacity(cap.div_ceil(named.num_traps()));
            let total = topo.total_capacity();
            let fitting: Vec<usize> =
                (0..circuits.len()).filter(|&a| total > circuits[a].num_qubits()).collect();
            if fitting.is_empty() {
                continue;
            }
            let name = format!("{topo_name}@{total}");
            let device = service.registry().get_or_build(&name, config.weights, || topo);
            for a in fitting {
                cells.push((a, t, c, total));
                requests.push(CompileRequest::new(
                    Arc::clone(&device),
                    Arc::clone(&circuits[a]),
                    CompilerKind::SSync,
                    config,
                ));
            }
        }
    }
    eprintln!(
        "[fig11] submitting {} compiles to the compile service ({} workers)",
        requests.len(),
        service.workers()
    );
    let handles = service.submit_batch(requests);
    let outcomes: BTreeMap<_, _> = cells
        .into_iter()
        .zip(&handles)
        .map(|((a, t, c, total), handle)| {
            ((a, t, c), (total, handle.wait().expect("compilation succeeds")))
        })
        .collect();
    let sweep_time = sweep_start.elapsed();

    let mut table = Table::new([
        "Application",
        "Topology",
        "Total capacity",
        "Shuttles",
        "Success rate",
        "Execution time",
    ]);
    for (a, label) in labels.iter().enumerate() {
        for (t, topo_name) in topologies.iter().enumerate() {
            for c in 0..capacities.len() {
                let Some((total, outcome)) = outcomes.get(&(a, t, c)) else { continue };
                table.push_row([
                    label.clone(),
                    topo_name.to_string(),
                    total.to_string(),
                    outcome.counts().shuttles.to_string(),
                    fmt_rate(outcome.report().success_rate),
                    fmt_us(outcome.report().total_time_us),
                ]);
            }
        }
    }
    println!("Fig. 11 — topology and trap-capacity sweep (S-SYNC, FM gates)\n");
    println!("{table}");
    println!(
        "Sweep wall-clock: {:.2}s with {} pool workers.",
        sweep_time.as_secs_f64(),
        service.workers()
    );
    println!("Expected shape: grid topologies (G-2x3, G-3x3) give the best execution");
    println!("time / success rate; peak success occurs around 10-15 ions per trap.");
}
