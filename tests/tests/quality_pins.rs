//! Absolute output pins: recomputes every cell of `BENCH_quality.json` and
//! of `BENCH_paper.json` and fails on any difference, printing each
//! changed cell's quality delta. A change meant to move compiled output
//! rewrites both files with
//! `cargo run --release -p ssync-bench --bin quality_pins` in the same diff.

use ssync_bench::quality::{
    compare, paper_cells, paper_path, parse, quality_cells, quality_path, QualityCell,
};
use std::path::Path;

/// Fails unless `fresh` equals the cells pinned in `path`.
fn assert_pinned(path: &Path, fresh: &[QualityCell], min_cells: usize) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let pinned = parse(&text).unwrap_or_else(|e| panic!("{} parses: {e}", path.display()));
    assert!(pinned.len() >= min_cells, "only {} pinned cells in {}", pinned.len(), path.display());
    let diffs = compare(&pinned, fresh);
    assert!(
        diffs.is_empty(),
        "{} of {} cells in {} changed (rewrite with the quality_pins bin if intended):\n{}",
        diffs.len(),
        pinned.len(),
        path.display(),
        diffs.join("\n")
    );
}

#[test]
fn every_pinned_cell_compiles_to_the_same_bits() {
    assert_pinned(&quality_path(), &quality_cells(), 301);
}

/// The 27 paper-scale cells under all five kinds: the comparison a change
/// to shared code must show. Run it with `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale cells are slow in the debug profile")]
fn every_paper_cell_compiles_to_the_same_bits() {
    assert_pinned(&paper_path(), &paper_cells(), 27 * 5);
}
