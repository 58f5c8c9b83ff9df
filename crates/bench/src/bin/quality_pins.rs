//! Rewrites `BENCH_quality.json` (see `ssync_bench::quality`) and prints
//! every cell that changed against the file it replaces, with its quality
//! delta. Run it in the diff of any change that is meant to move compiled
//! output:
//!
//! ```sh
//! cargo run --release -p ssync-bench --bin quality_pins
//! ```

use ssync_bench::quality::{compare, parse, quality_cells, quality_path, render};

fn main() {
    let path = quality_path();
    let fresh = quality_cells();
    let previous = std::fs::read_to_string(&path).ok().map(|text| parse(&text));
    std::fs::write(&path, render(&fresh))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    match previous {
        Some(Ok(pinned)) => {
            let diffs = compare(&pinned, &fresh);
            for diff in &diffs {
                println!("{diff}");
            }
            println!("{} cells written, {} changed", fresh.len(), diffs.len());
        }
        Some(Err(e)) => println!("{} cells written; the old file did not parse: {e}", fresh.len()),
        None => println!("{} cells written to a new file", fresh.len()),
    }
}
