//! Rewrites `BENCH_quality.json` and `BENCH_paper.json` (see
//! `ssync_bench::quality`) and prints every cell that changed against the
//! file it replaces, with its quality delta. Run it in the diff of any
//! change that is meant to move compiled output:
//!
//! ```sh
//! cargo run --release -p ssync-bench --bin quality_pins
//! ```

use ssync_bench::quality::{
    compare, paper_cells, paper_path, parse, quality_cells, quality_path, render, QualityCell,
};
use std::path::Path;

fn main() {
    pin(&quality_path(), &quality_cells());
    pin(&paper_path(), &paper_cells());
}

/// Writes `fresh` to `path` and reports how it differs from the file it
/// replaces.
fn pin(path: &Path, fresh: &[QualityCell]) {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let previous = std::fs::read_to_string(path).ok().map(|text| parse(&text));
    std::fs::write(path, render(fresh))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    match previous {
        Some(Ok(pinned)) => {
            let diffs = compare(&pinned, fresh);
            for diff in &diffs {
                println!("{diff}");
            }
            println!("{name}: {} cells written, {} changed", fresh.len(), diffs.len());
        }
        Some(Err(e)) => {
            println!("{name}: {} cells written; the old file did not parse: {e}", fresh.len())
        }
        None => println!("{name}: {} cells written to a new file", fresh.len()),
    }
}
