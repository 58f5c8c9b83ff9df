//! Regenerates Fig. 12: the effect of the initial mapping (gathering,
//! even-divided, STA) on shuttles, SWAPs, execution time and success rate,
//! for the Adder and QFT applications on a G-2x3 device across application
//! sizes.
//!
//! The full (mapping × application) product goes through the compile
//! service in one submission: the G-2x3 device is registered (and built)
//! once, every circuit is shared by `Arc` across the three mapping
//! configurations, and the pool drains the product from its one queue,
//! interleaving the three mapping tenants.

use ssync_bench::table::{fmt_rate, fmt_us};
use ssync_bench::{fitting_cells, AppKind, BenchScale, CompilerKind, Table};
use ssync_core::{CompilerConfig, InitialMapping};
use ssync_service::{CompileRequest, CompileService, Priority, TenantId};
use std::sync::Arc;

fn main() {
    let scale = BenchScale::from_env();
    let sizes: Vec<usize> = match scale {
        BenchScale::Paper => vec![50, 58, 66, 74, 82, 90],
        BenchScale::Small => vec![12, 16],
    };
    let base_config = CompilerConfig::default();
    let service = CompileService::new();
    let device = service
        .registry()
        .get_or_build_named("G-2x3", base_config.weights)
        .expect("known topology");
    let apps = [AppKind::Adder, AppKind::Qft];

    // All (app, size) circuits that fit, in output order, shared by Arc
    // across every mapping.
    let (cells, circuits) = fitting_cells(
        apps.iter().flat_map(|&app| sizes.iter().map(move |&size| (app, size))),
        device.device().topology(),
    );
    let circuits: Vec<Arc<_>> = circuits.into_iter().map(Arc::new).collect();

    // One submission covering the whole (mapping × circuit) product.
    eprintln!(
        "[fig12] submitting {} circuits x {} mappings to the compile service ({} workers)",
        circuits.len(),
        InitialMapping::ALL.len(),
        service.workers()
    );
    // Each mapping sweep is its own tenant at Batch priority, so when
    // several figure binaries share one long-lived daemon none of them
    // can starve the others (or an interactive request).
    let per_mapping: Vec<Vec<_>> = InitialMapping::ALL
        .into_iter()
        .map(|mapping| {
            let config = base_config.with_initial_mapping(mapping);
            let tenant = TenantId::from_name(&format!("fig12-{}", mapping.label()));
            service.submit_batch(circuits.iter().map(|circuit| {
                CompileRequest::new(
                    Arc::clone(&device),
                    Arc::clone(circuit),
                    CompilerKind::SSync,
                    config,
                )
                .with_priority(Priority::Batch)
                .with_tenant(tenant)
            }))
        })
        .collect();

    let mut table = Table::new([
        "Application",
        "Size",
        "Mapping",
        "Shuttles",
        "SWAPs",
        "Execution time",
        "Success rate",
    ]);
    for (i, &(app, qubits)) in cells.iter().enumerate() {
        for (m, mapping) in InitialMapping::ALL.into_iter().enumerate() {
            let outcome = per_mapping[m][i].wait().expect("compilation succeeds");
            table.push_row([
                app.label().to_string(),
                qubits.to_string(),
                mapping.label().to_string(),
                outcome.counts().shuttles.to_string(),
                outcome.counts().swap_gates.to_string(),
                fmt_us(outcome.report().total_time_us),
                fmt_rate(outcome.report().success_rate),
            ]);
        }
    }
    let metrics = service.metrics();
    println!("Fig. 12 — initial-mapping comparison on G-2x3 (S-SYNC, FM gates)\n");
    println!("{table}");
    eprintln!(
        "[fig12] fairness: {} batch-priority jobs across {} tenants drained evenly",
        metrics.submitted_at(Priority::Batch),
        InitialMapping::ALL.len()
    );
    println!("Expected shape: gathering needs the fewest shuttles but its longer FM");
    println!("chains raise execution time and can lower the success rate as the");
    println!("application's communication pattern gets more complex.");
}
