//! Sweeps the checked-in `workloads/` OpenQASM corpus through the
//! compile service across **all five** compilers and the corpus
//! topology set — the scenario-diversity counterpart of the Figs. 8–10
//! comparison, over circuits ingested as text instead of generated
//! in-process.
//!
//! ```sh
//! cargo run --release -p ssync-bench --bin fig_qasm
//! SSYNC_WORKLOADS=path/to/corpus cargo run --release -p ssync-bench --bin fig_qasm
//! ```

use ssync_bench::qasm_corpus::{corpus_dir, corpus_rows, load_corpus};
use ssync_bench::table::{fmt_rate, fmt_us};
use ssync_bench::Table;
use ssync_core::CompilerConfig;

fn main() {
    let dir = corpus_dir();
    let entries = match load_corpus(&dir) {
        Ok(entries) => entries,
        Err(message) => {
            eprintln!("[fig_qasm] {message}");
            std::process::exit(1);
        }
    };
    eprintln!("[fig_qasm] parsed {} circuits from {}", entries.len(), dir.display());
    for entry in &entries {
        let r = &entry.report;
        if r.stripped_anything() || r.barriers > 0 {
            eprintln!(
                "[fig_qasm]   {}: stripped {} measure / {} reset / {} conditional, \
                 {} barriers, {} gates inlined",
                entry.name,
                r.measurements_stripped,
                r.resets_stripped,
                r.conditionals_stripped,
                r.barriers,
                r.gates_inlined
            );
        }
    }

    let config = CompilerConfig::default();
    let rows = corpus_rows(&entries, &config, |message| eprintln!("[fig_qasm] {message}"));

    let mut table = Table::new([
        "Workload",
        "Qubits",
        "2Q gates",
        "Topology",
        "Compiler",
        "Shuttles",
        "SWAPs",
        "Execution time",
        "Success rate",
    ]);
    for row in &rows {
        let entry = entries.iter().find(|e| e.name == row.app).expect("row from corpus");
        table.push_row([
            row.app.clone(),
            entry.circuit.num_qubits().to_string(),
            entry.circuit.two_qubit_gate_count().to_string(),
            row.topology.clone(),
            row.compiler.label().to_string(),
            row.shuttles.to_string(),
            row.swaps.to_string(),
            fmt_us(row.execution_time_us),
            fmt_rate(row.success_rate),
        ]);
    }
    println!("QASM workload corpus — all compilers across the corpus topology set\n");
    println!("{table}");
    println!("Rows: {} ((file x topology x compiler) cells that fit).", rows.len());
}
