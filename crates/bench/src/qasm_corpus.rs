//! Sweeping the `workloads/` QASM corpus through the compile service:
//! the wire-level analogue of the Figs. 8–10 comparison, over circuits
//! that arrived as *text* instead of from the built-in generators.
//!
//! The corpus directory holds OpenQASM 2.0 files (generator exports plus
//! hand-written programs; see `docs/WORKLOADS.md`). [`corpus_rows`]
//! parses every file with `ssync-qasm`, registers each target topology
//! once, submits the full (circuit × topology × compiler) product to a
//! [`CompileService`] in one batch, and returns [`ComparisonRow`]s in
//! deterministic (file name → topology → compiler) order — the same
//! row shape `comparison_rows` produces, so downstream tooling treats
//! generated and ingested circuits identically.

use crate::comparison::ComparisonRow;
use crate::harness::CompilerKind;
use ssync_arch::QccdTopology;
use ssync_circuit::Circuit;
use ssync_core::CompilerConfig;
use ssync_qasm::ParseReport;
use ssync_service::{CompileRequest, CompileService, Priority, RegisteredDevice, TenantId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The topologies every corpus circuit is tried on: a linear machine and
/// a grid from the paper's table, plus a deliberately *small-trap* grid
/// (2×2 traps of capacity 4) on which even the 8–10-qubit corpus
/// circuits cannot sit in one chain — so the sweep exercises real
/// shuttling and swapping, not just in-trap reordering. Cells whose
/// device cannot hold the circuit plus one free slot are skipped, the
/// same fit predicate as the generator sweeps.
pub fn corpus_topologies() -> Vec<(&'static str, QccdTopology)> {
    vec![
        ("L-4", QccdTopology::named("L-4").expect("paper topology")),
        ("G-2x2", QccdTopology::named("G-2x2").expect("paper topology")),
        ("tiny-G-2x2c4", QccdTopology::grid(2, 2, 4)),
    ]
}

/// One parsed corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem the circuit was loaded from (e.g. `"qft_8"`).
    pub name: String,
    /// The lowered circuit.
    pub circuit: Arc<Circuit>,
    /// What the lowering stripped or counted.
    pub report: ParseReport,
}

/// The workloads directory: `SSYNC_WORKLOADS` when set, else the
/// checked-in `workloads/` at the workspace root (resolved relative to
/// this crate, so it works from any working directory).
pub fn corpus_dir() -> PathBuf {
    match std::env::var("SSYNC_WORKLOADS") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads"),
    }
}

/// Loads and parses every `.qasm` file under `dir`, sorted by file name
/// for deterministic output.
///
/// # Errors
///
/// Returns a human-readable message naming the offending file on I/O or
/// parse failures — a corpus that stops parsing should fail loudly, not
/// silently shrink.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let listing =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = listing
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .qasm files under {}", dir.display()));
    }
    let mut entries = Vec::with_capacity(paths.len());
    for path in paths {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("unnamed").to_string();
        let out = ssync_qasm::parse_named(&source, &name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        entries.push(CorpusEntry { name, circuit: Arc::new(out.circuit), report: out.report });
    }
    Ok(entries)
}

/// Compiles the whole corpus across [`corpus_topologies`] and **all
/// four** [`CompilerKind`]s through one service batch, returning rows in
/// (file, topology, compiler) nesting order. `progress` is called with
/// submission/drain summaries, mirroring `comparison_rows`.
pub fn corpus_rows(
    entries: &[CorpusEntry],
    config: &CompilerConfig,
    mut progress: impl FnMut(&str),
) -> Vec<ComparisonRow> {
    struct Cell<'a> {
        entry: &'a CorpusEntry,
        topo_name: &'static str,
    }
    let service = CompileService::new();
    let mut devices: BTreeMap<&'static str, Arc<RegisteredDevice>> = BTreeMap::new();
    let mut cells: Vec<Cell<'_>> = Vec::new();
    let topologies = corpus_topologies();
    for entry in entries {
        for (topo_name, topo) in &topologies {
            if entry.circuit.num_qubits() + 1 > topo.total_capacity() {
                continue;
            }
            devices.entry(topo_name).or_insert_with(|| {
                service.registry().get_or_build(topo_name, config.weights, || topo.clone())
            });
            cells.push(Cell { entry, topo_name });
        }
    }

    let compilers = CompilerKind::ALL;
    progress(&format!(
        "submitting {} (file, topology) cells x {} compilers to the compile service \
         ({} workers, {} devices)",
        cells.len(),
        compilers.len(),
        service.workers(),
        devices.len()
    ));
    let tenant = TenantId::from_name("fig-qasm");
    let handles = service.submit_batch(cells.iter().flat_map(|cell| {
        let device = Arc::clone(&devices[cell.topo_name]);
        let circuit = Arc::clone(&cell.entry.circuit);
        compilers.into_iter().map(move |compiler| {
            CompileRequest::new(Arc::clone(&device), Arc::clone(&circuit), compiler, *config)
                .with_priority(Priority::Batch)
                .with_tenant(tenant)
        })
    }));

    let mut rows = Vec::with_capacity(handles.len());
    let mut last_file: Option<&str> = None;
    for (cell, chunk) in cells.iter().zip(handles.chunks(compilers.len())) {
        if last_file != Some(cell.entry.name.as_str()) {
            progress(&format!("draining results for {}", cell.entry.name));
            last_file = Some(cell.entry.name.as_str());
        }
        for (compiler, handle) in compilers.into_iter().zip(chunk) {
            let outcome = handle.wait().expect("corpus circuits must compile");
            let counts = outcome.counts();
            rows.push(ComparisonRow {
                app: cell.entry.name.clone(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_corpus_loads_and_sweeps() {
        let entries = load_corpus(&corpus_dir()).expect("corpus parses");
        assert!(entries.len() >= 9, "six exports + three hand-written programs");
        // Deterministic order: sorted by file name.
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // The hand-written programs exercise the stripping counters.
        let stdlib = entries.iter().find(|e| e.name == "stdlib").expect("stdlib.qasm");
        assert!(stdlib.report.stripped_anything());
        let barriers = entries.iter().find(|e| e.name == "barriers").expect("barriers.qasm");
        assert!(barriers.report.barriers >= 4);

        // A one-file sweep produces all five compiler rows per topology.
        let one = &entries[..1];
        let rows = corpus_rows(one, &CompilerConfig::default(), |_| {});
        assert!(!rows.is_empty());
        assert_eq!(rows.len() % CompilerKind::ALL.len(), 0);
        for row in &rows {
            assert!(row.success_rate > 0.0 && row.success_rate <= 1.0, "{row:?}");
        }
    }
}
