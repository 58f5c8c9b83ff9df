//! Absolute output pins: recomputes every cell of `BENCH_quality.json` and
//! fails on any difference, printing each changed cell's quality delta.
//! A change meant to move compiled output rewrites the file with
//! `cargo run --release -p ssync-bench --bin quality_pins` in the same diff.

use ssync_bench::quality::{compare, parse, quality_cells, quality_path};

#[test]
fn every_pinned_cell_compiles_to_the_same_bits() {
    let path = quality_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let pinned = parse(&text).expect("BENCH_quality.json parses");
    assert!(pinned.len() > 300, "only {} pinned cells", pinned.len());
    let diffs = compare(&pinned, &quality_cells());
    assert!(
        diffs.is_empty(),
        "{} of {} cells changed (rewrite with the quality_pins bin if intended):\n{}",
        diffs.len(),
        pinned.len(),
        diffs.join("\n")
    );
}
