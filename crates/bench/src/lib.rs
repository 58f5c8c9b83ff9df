//! # ssync-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! S-SYNC evaluation (Sec. 5). Each binary under `src/bin/` prints one
//! artifact as a plain-text table:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table01` | Table 1 — transport operation times |
//! | `table02` | Table 2 — benchmark suite |
//! | `fig08` | Fig. 8 — shuttle counts vs. Murali / Dai |
//! | `fig09` | Fig. 9 — SWAP counts vs. Murali / Dai |
//! | `fig10` | Fig. 10 — success rates vs. Murali / Dai |
//! | `fig11` | Fig. 11 — topology & trap-capacity sweep |
//! | `fig12` | Fig. 12 — initial-mapping comparison |
//! | `fig13` | Fig. 13 — gate-implementation comparison |
//! | `fig14` | Fig. 14 — hyper-parameter sensitivity |
//! | `fig15` | Fig. 15 — compilation-time scalability |
//! | `fig16` | Fig. 16 — optimality analysis |
//! | `fig_qasm` | the `workloads/` OpenQASM corpus across all five compilers |
//! | `quality_pins` | rewrites `BENCH_quality.json`, the absolute output pins |
//!
//! Run them with `cargo run --release -p ssync-bench --bin fig08`. Set
//! `SSYNC_BENCH_SCALE=small` to run reduced problem sizes (useful for smoke
//! testing); the default regenerates the paper-scale configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod comparison;
pub mod harness;
pub mod qasm_corpus;
pub mod quality;
pub mod table;

pub use apps::{fitting_cells, scaled_app, AppKind};
pub use comparison::{comparison_rows, comparison_table, comparison_targets, ComparisonRow};
pub use harness::{run_compiler, BenchScale, CompilerKind};
pub use table::Table;
