//! The shared Figs. 8–10 comparison sweep: benchmark × topology × compiler.
//!
//! The sweep is one big submission to the [`CompileService`]: every
//! topology is registered once in the service's device registry (the slot
//! graph / router / distance matrix is built exactly once), every circuit
//! travels as a shared `Arc` (one allocation per application, however
//! many topologies it targets), and the full (application × topology ×
//! compiler) product is queued at once for the pool's workers to drain.
//! The sweep runs at Normal priority under the anonymous tenant, so it
//! shares that level fairly with any other tenant's work. Row order (and
//! every measured count) is identical to the historical
//! one-compile-at-a-time nesting — the service guarantees
//! worker-count-independent, bit-identical results.

use crate::apps::{scaled_app, AppKind};
use crate::harness::{BenchScale, CompilerKind};
use crate::table::Table;
use ssync_arch::QccdTopology;
use ssync_circuit::Circuit;
use ssync_core::CompilerConfig;
use ssync_service::{CompileRequest, CompileService, RegisteredDevice};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One (application, topology, compiler) measurement.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Application label as used in the paper (e.g. `"QFT_24"`).
    pub app: String,
    /// Topology name (e.g. `"G-2x3"`).
    pub topology: String,
    /// Which compiler produced the row.
    pub compiler: CompilerKind,
    /// Number of shuttles (Fig. 8).
    pub shuttles: usize,
    /// Number of inserted SWAP gates (Fig. 9).
    pub swaps: usize,
    /// End-to-end success rate (Fig. 10).
    pub success_rate: f64,
    /// Estimated execution time in µs.
    pub execution_time_us: f64,
    /// Compilation wall-clock time in seconds.
    pub compile_time_s: f64,
}

/// The application/topology pairs evaluated in Figs. 8–10 of the paper.
/// Each entry is `(app, qubits, topology names)`.
pub fn comparison_targets(scale: BenchScale) -> Vec<(AppKind, usize, Vec<&'static str>)> {
    let paper: Vec<(AppKind, usize, Vec<&'static str>)> = vec![
        (AppKind::Qft, 24, vec!["S-4", "L-6", "G-2x2", "G-2x3", "G-3x3"]),
        (AppKind::Adder, 66, vec!["S-4", "L-4", "G-2x2", "G-2x3", "G-3x3"]),
        (AppKind::Qaoa, 64, vec!["S-4", "L-4", "L-6", "G-2x2", "G-2x3", "G-3x3"]),
        (AppKind::Alt, 64, vec!["S-4", "G-2x2", "G-2x3", "G-3x3"]),
        (AppKind::Qft, 64, vec!["S-4", "G-2x2", "G-3x3"]),
        (AppKind::Bv, 65, vec!["S-4", "L-6", "G-2x3", "G-3x3"]),
    ];
    match scale {
        BenchScale::Paper => paper,
        BenchScale::Small => paper
            .into_iter()
            .map(|(app, q, topos)| (app, scale.qubits(q), topos.into_iter().take(1).collect()))
            .collect(),
    }
}

/// Runs the full comparison sweep and returns one row per
/// (application, topology, compiler) triple, in the same nesting order as
/// the paper's figures (application → topology → compiler). The whole
/// product is submitted to a [`CompileService`] in one batch: each
/// topology's device is registered (and built) exactly once, each
/// application's circuit is shared by `Arc` across every topology cell,
/// and the pool's workers drain the queue. `progress` is
/// called with a submission summary and once per drained topology group.
pub fn comparison_rows(
    scale: BenchScale,
    config: &CompilerConfig,
    mut progress: impl FnMut(&str),
) -> Vec<ComparisonRow> {
    // One entry per (application, topology) cell, in output nesting order.
    struct Cell {
        app_label: String,
        topo_name: &'static str,
        circuit: Arc<Circuit>,
    }
    let service = CompileService::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut devices: BTreeMap<&'static str, Arc<RegisteredDevice>> = BTreeMap::new();
    for (app, qubits, topologies) in comparison_targets(scale) {
        let circuit = Arc::new(scaled_app(app, qubits));
        let app_label = format!("{}_{}", app.label(), qubits);
        for topo_name in topologies {
            let topo = QccdTopology::named(topo_name).expect("known topology name");
            if topo.total_capacity() <= circuit.num_qubits() {
                continue; // no device build for cells nothing targets
            }
            devices.entry(topo_name).or_insert_with(|| {
                service.registry().get_or_build(topo_name, config.weights, || topo)
            });
            cells.push(Cell {
                app_label: app_label.clone(),
                topo_name,
                circuit: Arc::clone(&circuit),
            });
        }
    }

    // Submit the whole (cell × compiler) product in row nesting order.
    let compilers = CompilerKind::PAPER;
    progress(&format!(
        "submitting {} (app, topology) cells x {} compilers to the compile service \
         ({} workers, {} devices)",
        cells.len(),
        compilers.len(),
        service.workers(),
        devices.len()
    ));
    let handles = service.submit_batch(cells.iter().flat_map(|cell| {
        let device = Arc::clone(&devices[cell.topo_name]);
        let circuit = Arc::clone(&cell.circuit);
        compilers.into_iter().map(move |compiler| {
            CompileRequest::new(Arc::clone(&device), Arc::clone(&circuit), compiler, *config)
        })
    }));

    let mut rows = Vec::with_capacity(handles.len());
    let mut last_topo: Option<&'static str> = None;
    for (cell, chunk) in cells.iter().zip(handles.chunks(compilers.len())) {
        if last_topo != Some(cell.topo_name) {
            progress(&format!("draining results for {}", cell.topo_name));
            last_topo = Some(cell.topo_name);
        }
        for (compiler, handle) in compilers.into_iter().zip(chunk) {
            let outcome = handle.wait().expect("paper configurations must compile");
            let counts = outcome.counts();
            rows.push(ComparisonRow {
                app: cell.app_label.clone(),
                topology: cell.topo_name.to_string(),
                compiler,
                shuttles: counts.shuttles,
                swaps: counts.swap_gates,
                success_rate: outcome.report().success_rate,
                execution_time_us: outcome.report().total_time_us,
                compile_time_s: outcome.compile_time().as_secs_f64(),
            });
        }
    }
    rows
}

/// Builds a Figs. 8–10 panel table from a comparison sweep: one row per
/// (application, topology) cell in sweep order, one metric column per
/// compiler in [`CompilerKind::PAPER`] order. Headers come straight from
/// [`CompilerKind::label`], so adding or reordering kinds can never
/// silently misalign a figure column against its header — the binaries
/// only choose the metric.
pub fn comparison_table(
    rows: &[ComparisonRow],
    metric: impl Fn(&ComparisonRow) -> String,
) -> Table {
    let compilers = CompilerKind::PAPER;
    let mut table = Table::new(
        ["Application", "Topology"]
            .into_iter()
            .map(String::from)
            .chain(compilers.iter().map(|kind| kind.label().to_string())),
    );
    let mut seen = std::collections::BTreeSet::new();
    for row in rows {
        let key = (row.app.clone(), row.topology.clone());
        if !seen.insert(key.clone()) {
            continue;
        }
        let mut cells = vec![key.0.clone(), key.1.clone()];
        for kind in compilers {
            cells.push(
                rows.iter()
                    .find(|r| r.compiler == kind && r.app == key.0 && r.topology == key.1)
                    .map(&metric)
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.push_row(cells);
    }
    table
}

/// Geometric-mean ratio of a metric between two compilers over matching
/// (app, topology) pairs — the "3.69× fewer shuttles on average" style of
/// summary quoted in the paper.
pub fn geometric_mean_ratio(
    rows: &[ComparisonRow],
    numerator: CompilerKind,
    denominator: CompilerKind,
    metric: impl Fn(&ComparisonRow) -> f64,
) -> f64 {
    let mut log_sum = 0.0f64;
    let mut count = 0usize;
    for row in rows.iter().filter(|r| r.compiler == numerator) {
        if let Some(other) = rows
            .iter()
            .find(|r| r.compiler == denominator && r.app == row.app && r.topology == row.topology)
        {
            let (a, b) = (metric(row), metric(other));
            if a > 0.0 && b > 0.0 {
                log_sum += (a / b).ln();
                count += 1;
            }
        }
    }
    if count == 0 {
        1.0
    } else {
        (log_sum / count as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_targets_cover_six_panels() {
        let targets = comparison_targets(BenchScale::Paper);
        assert_eq!(targets.len(), 6);
        // Every referenced topology name must be resolvable.
        for (_, _, topos) in &targets {
            for t in topos {
                assert!(QccdTopology::named(t).is_some(), "{t}");
            }
        }
    }

    #[test]
    fn small_scale_produces_rows_quickly() {
        let rows = comparison_rows(BenchScale::Small, &CompilerConfig::default(), |_| {});
        assert!(!rows.is_empty());
        // Three compilers per (app, topology) pair.
        assert_eq!(rows.len() % 3, 0);
        for r in &rows {
            assert!(r.success_rate >= 0.0 && r.success_rate <= 1.0);
        }
    }

    #[test]
    fn comparison_table_derives_columns_from_the_kind_enum() {
        let row = |compiler, shuttles| ComparisonRow {
            app: "QFT_12".into(),
            topology: "G-2x2".into(),
            compiler,
            shuttles,
            swaps: 0,
            success_rate: 1.0,
            execution_time_us: 1.0,
            compile_time_s: 0.1,
        };
        // Murali's row is deliberately missing: its column must render "-",
        // never shift another compiler's number under the wrong header.
        let rows = vec![row(CompilerKind::SSync, 7), row(CompilerKind::Dai, 9)];
        let table = comparison_table(&rows, |r| r.shuttles.to_string());
        let rendered = table.render();
        let header = rendered.lines().next().expect("header line");
        let mut last = 1;
        for kind in CompilerKind::PAPER {
            let at = header.find(kind.label()).expect("every PAPER label is a column");
            assert!(at > last, "columns follow PAPER order: {}", kind.label());
            last = at;
        }
        assert_eq!(table.len(), 1, "one row per (app, topology) cell");
        let data = rendered.lines().nth(2).expect("data line");
        let cells: Vec<&str> = data.split('|').map(str::trim).collect();
        assert_eq!(&cells[1..6], &["QFT_12", "G-2x2", "-", "9", "7"]);
    }

    #[test]
    fn geometric_mean_ratio_is_one_for_identical_sets() {
        let rows = vec![
            ComparisonRow {
                app: "A".into(),
                topology: "T".into(),
                compiler: CompilerKind::SSync,
                shuttles: 10,
                swaps: 5,
                success_rate: 0.5,
                execution_time_us: 1.0,
                compile_time_s: 0.1,
            },
            ComparisonRow {
                app: "A".into(),
                topology: "T".into(),
                compiler: CompilerKind::Murali,
                shuttles: 20,
                swaps: 5,
                success_rate: 0.25,
                execution_time_us: 1.0,
                compile_time_s: 0.1,
            },
        ];
        let ratio = geometric_mean_ratio(&rows, CompilerKind::Murali, CompilerKind::SSync, |r| {
            r.shuttles as f64
        });
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
