//! Regenerates Fig. 11: how communication topology and trap capacity affect
//! success rate and execution time, across seven QCCD topologies.
//!
//! Each (topology, capacity) cell builds its shared [`ssync_arch::Device`]
//! exactly once and compiles every application against it in parallel
//! through [`ssync_core::SSyncCompiler::compile_batch`].

use ssync_bench::table::{fmt_rate, fmt_us};
use ssync_bench::{scaled_app, AppKind, BenchScale, Table};
use ssync_core::{batch, CompileOutcome, CompilerConfig, SSyncCompiler};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seven topology families of Fig. 11 with a capacity chosen so the
/// total device capacity is close to the requested target.
fn topology(name: &str, total_capacity: usize) -> Option<ssync_arch::QccdTopology> {
    use ssync_arch::QccdTopology;
    let traps = match name {
        "L-4" | "S-4" | "G-2x2" => 4,
        "L-6" | "G-2x3" | "S-6" => 6,
        "G-3x3" => 9,
        _ => return None,
    };
    let capacity = total_capacity.div_ceil(traps);
    let t = match name {
        "L-4" => QccdTopology::linear(4, capacity),
        "L-6" => QccdTopology::linear(6, capacity),
        "S-4" => QccdTopology::fully_connected(4, capacity),
        "S-6" => QccdTopology::fully_connected(6, capacity),
        "G-2x2" => QccdTopology::grid(2, 2, capacity),
        "G-2x3" => QccdTopology::grid(2, 3, capacity),
        "G-3x3" => QccdTopology::grid(3, 3, capacity),
        _ => return None,
    };
    Some(t)
}

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
    let compiler = SSyncCompiler::new(config);

    let circuits: Vec<_> = apps.iter().map(|&(app, qubits)| scaled_app(app, qubits)).collect();
    let labels: Vec<String> = apps
        .iter()
        .zip(&circuits)
        .map(|(&(app, _), c)| format!("{}_{}", app.label(), c.num_qubits()))
        .collect();

    // One device per (topology, capacity) cell; all fitting applications
    // compile against it in one parallel batch.
    let sweep_start = Instant::now();
    let mut outcomes: BTreeMap<(usize, usize, usize), (usize, CompileOutcome)> = BTreeMap::new();
    for (t, topo_name) in topologies.iter().enumerate() {
        for (c, &cap) in capacities.iter().enumerate() {
            let Some(topo) = topology(topo_name, cap) else { continue };
            let total = topo.total_capacity();
            let fitting: Vec<usize> =
                (0..circuits.len()).filter(|&a| total > circuits[a].num_qubits()).collect();
            if fitting.is_empty() {
                continue;
            }
            let device = ssync_arch::Device::build(topo, config.weights);
            eprintln!(
                "[fig11] {} circuits on {topo_name} (total capacity {total}) in parallel",
                fitting.len()
            );
            let batch_circuits: Vec<_> = fitting.iter().map(|&a| circuits[a].clone()).collect();
            let batch = compiler.compile_batch(&device, &batch_circuits);
            for (&a, outcome) in fitting.iter().zip(batch) {
                let outcome = outcome.expect("compilation succeeds");
                outcomes.insert((a, t, c), (total, outcome));
            }
        }
    }
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
        "Sweep wall-clock: {:.2}s with {} batch workers (SSYNC_BATCH_WORKERS=1 for serial).",
        sweep_time.as_secs_f64(),
        batch::resolve_workers(0)
    );
    println!("Expected shape: grid topologies (G-2x3, G-3x3) give the best execution");
    println!("time / success rate; peak success occurs around 10-15 ions per trap.");
}
