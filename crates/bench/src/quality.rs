//! Absolute output pins: the committed `BENCH_quality.json`.
//!
//! Every other golden in the workspace is differential (`run` against
//! `run_reference`, service against a direct compile, remote against
//! local), so a change to code both sides share — initial placement,
//! `Mechanics`, generic-swap classification, the tracer — could move
//! compiled output without failing any of them. This module pins the
//! absolute result instead. Each [`QualityCell`] is one compile of a small
//! circuit on a tight device and records its shuttle and SWAP counts, the
//! exact bits of its execution time and log10 success, and an FNV digest
//! of the op stream, final placement, report and scheduler stats.
//!
//! [`quality_cells`] computes every cell; the `quality_pins` binary writes
//! them to `BENCH_quality.json` and the `quality_pins` integration test
//! recomputes them and fails on any difference, printing each changed
//! cell's quality delta. A change that moves output therefore rewrites the
//! file in the same diff, and that diff is its quality report.
//!
//! [`paper_cells`] does the same for the 27 paper-scale cells of Figs. 8–10
//! under every kind, pinned in `BENCH_paper.json`. They take seconds in
//! the debug profile, so their test runs in release only.

use crate::apps::{scaled_app, AppKind};
use crate::comparison::comparison_targets;
use crate::harness::{BenchScale, CompilerKind};
use crate::qasm_corpus::{corpus_dir, load_corpus};
use ssync_arch::{Device, QccdTopology};
use ssync_circuit::{Circuit, Qubit, StableHasher};
use ssync_core::{CompileOutcome, CompilerConfig, InitialMapping, SwapScheduleKind};
use ssync_service::telemetry::kind_slug;
use ssync_sim::{GateImplementation, ScheduledOp};
use std::path::PathBuf;

/// One pinned compile: a circuit on a device under one compiler setting.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityCell {
    /// `circuit@device/compiler`, unique within the file.
    pub name: String,
    /// Shuttles in the compiled program.
    pub shuttles: usize,
    /// SWAP gates the compiler inserted.
    pub swaps: usize,
    /// Estimated makespan in microseconds.
    pub total_time_us: f64,
    /// `log10` of the estimated success rate.
    pub log10_success: f64,
    /// FNV digest of the ops, final placement, report and scheduler stats.
    pub digest: u64,
}

/// Where the pins live: `BENCH_quality.json` at the workspace root.
pub fn quality_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_quality.json")
}

/// Where the paper-scale pins live: `BENCH_paper.json` at the workspace
/// root.
pub fn paper_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_paper.json")
}

/// The generator apps pinned on each device, at two small sizes.
const APP_SIZES: [usize; 2] = [6, 10];

/// The compiler settings every (circuit, device) pair runs under: S-SYNC
/// under each initial mapping, the other kinds under the default config,
/// perm-route under the bubble-sort schedule, and every kind under a
/// non-default evaluation model (`-eval`: AM2 gates, twice the move time,
/// twice the heating rate), which pins that each kind's tracer reads the
/// config it was given.
fn settings() -> Vec<Setting> {
    let base = CompilerConfig::default();
    let mut settings: Vec<_> = InitialMapping::ALL
        .into_iter()
        .map(|m| {
            let label = format!("ssync-{}", m.label().to_ascii_lowercase());
            (label, CompilerKind::SSync, base.with_initial_mapping(m))
        })
        .collect();
    for kind in CompilerKind::ALL.into_iter().filter(|&k| k != CompilerKind::SSync) {
        settings.push((kind_slug(kind).to_string(), kind, base));
    }
    let bubble = base.with_perm_schedule(SwapScheduleKind::BubbleSort);
    settings.push(("perm_route-bubble".to_string(), CompilerKind::PermRoute, bubble));
    let mut eval = base.with_gate_impl(GateImplementation::Am2);
    eval.op_times.move_us *= 2.0;
    eval.noise.heating_rate_gamma *= 2.0;
    for kind in CompilerKind::ALL {
        settings.push((format!("{}-eval", kind_slug(kind)), kind, eval));
    }
    settings
}

/// A circuit and the device it is pinned on, each with its cell label.
type Pair = (String, Circuit, &'static str, QccdTopology);

/// A compiler setting: its cell label, kind and config.
type Setting = (String, CompilerKind, CompilerConfig);

/// The (circuit, device) pairs: the `workloads/` corpus on the small-trap
/// grid, then each generator app at [`APP_SIZES`] on three tight devices.
fn pairs() -> Vec<Pair> {
    let corpus = load_corpus(&corpus_dir()).expect("workloads/ corpus parses");
    let mut pairs: Vec<_> = corpus
        .into_iter()
        .map(|entry| {
            let name = format!("corpus/{}", entry.name);
            (name, (*entry.circuit).clone(), "tiny-G-2x2c4", QccdTopology::grid(2, 2, 4))
        })
        .collect();
    let devices = [
        ("G-2x2c5", QccdTopology::grid(2, 2, 5)),
        ("L-3c8", QccdTopology::linear(3, 8)),
        ("G-3x3c4", QccdTopology::grid(3, 3, 4)),
    ];
    for (device, topology) in devices {
        for app in AppKind::ALL {
            for size in APP_SIZES {
                let circuit = scaled_app(app, size);
                let name = format!("{}-{}", app.label(), circuit.num_qubits());
                pairs.push((name, circuit, device, topology.clone()));
            }
        }
    }
    pairs
}

/// Compiles every cell of `BENCH_quality.json`, in file order.
///
/// # Panics
///
/// Panics if the corpus does not parse or a cell fails to compile: every
/// pinned cell is expected to compile.
pub fn quality_cells() -> Vec<QualityCell> {
    compile_cells(&pairs(), &settings())
}

/// Compiles every cell of `BENCH_paper.json`, in file order: each
/// application and named topology of
/// [`comparison_targets`]`(BenchScale::Paper)`, compiled by every kind
/// under the default config.
///
/// # Panics
///
/// Panics if a cell fails to compile.
pub fn paper_cells() -> Vec<QualityCell> {
    let mut pairs: Vec<Pair> = Vec::new();
    for (app, qubits, topologies) in comparison_targets(BenchScale::Paper) {
        let circuit = scaled_app(app, qubits);
        let name = format!("{}-{}", app.label(), circuit.num_qubits());
        for device in topologies {
            let topology = QccdTopology::named(device).expect("known topology name");
            pairs.push((name.clone(), circuit.clone(), device, topology));
        }
    }
    let settings: Vec<Setting> = CompilerKind::ALL
        .into_iter()
        .map(|kind| (kind_slug(kind).to_string(), kind, CompilerConfig::default()))
        .collect();
    compile_cells(&pairs, &settings)
}

/// Compiles every pair under every setting, pair by pair. Pairs are
/// independent, so they are spread over up to two scoped threads; the
/// order of the result does not depend on the thread count.
fn compile_cells(jobs: &[Pair], settings: &[Setting]) -> Vec<QualityCell> {
    let compile_pair = |(name, circuit, device_name, topology): &Pair| {
        let device = Device::build(topology.clone(), CompilerConfig::default().weights);
        settings
            .iter()
            .map(|(label, kind, config)| {
                let cell = format!("{name}@{device_name}/{label}");
                let outcome = kind
                    .compile_on(&device, circuit, config)
                    .unwrap_or_else(|e| panic!("{cell} failed to compile: {e}"));
                measure(cell, &outcome)
            })
            .collect::<Vec<_>>()
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(2);
    let chunk = jobs.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().flat_map(compile_pair).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("quality worker panicked")).collect()
    })
}

fn measure(name: String, outcome: &CompileOutcome) -> QualityCell {
    let counts = outcome.counts();
    let report = outcome.report();
    QualityCell {
        name,
        shuttles: counts.shuttles,
        swaps: counts.swap_gates,
        total_time_us: report.total_time_us,
        log10_success: report.log10_success(),
        digest: digest(outcome),
    }
}

/// FNV digest of everything a compile outputs: each op with every field,
/// the final slot of every qubit, the report's floats (as bits) and the
/// scheduler stats.
fn digest(outcome: &CompileOutcome) -> u64 {
    let mut h = StableHasher::new();
    for op in outcome.program().ops() {
        let words: [u64; 8] = match *op {
            ScheduledOp::SingleQubitGate { qubit } => [0, qubit.0.into(), 0, 0, 0, 0, 0, 0],
            ScheduledOp::TwoQubitGate { a, b, trap, chain_len, ion_distance } => [
                1,
                a.0.into(),
                b.0.into(),
                trap.0.into(),
                chain_len as u64,
                ion_distance as u64,
                0,
                0,
            ],
            ScheduledOp::SwapGate { a, b, trap, chain_len, ion_distance } => [
                2,
                a.0.into(),
                b.0.into(),
                trap.0.into(),
                chain_len as u64,
                ion_distance as u64,
                0,
                0,
            ],
            ScheduledOp::IonReorder { trap, steps } => {
                [3, trap.0.into(), steps as u64, 0, 0, 0, 0, 0]
            }
            ScheduledOp::Shuttle {
                qubit,
                from_trap,
                to_trap,
                junctions,
                segments,
                source_chain_len,
                dest_chain_len,
            } => [
                4,
                qubit.0.into(),
                from_trap.0.into(),
                to_trap.0.into(),
                junctions.into(),
                segments as u64,
                source_chain_len as u64,
                dest_chain_len as u64,
            ],
        };
        words.iter().for_each(|&w| h.write_u64(w));
    }
    let placement = outcome.final_placement();
    for q in 0..placement.num_qubits() {
        h.write_u64(placement.slot_of(Qubit(q as u32)).map_or(u64::MAX, |s| s.0.into()));
    }
    let report = outcome.report();
    for v in [
        report.total_time_us,
        report.success_rate,
        report.gate_time_us,
        report.transport_time_us,
        report.max_motional_quanta,
    ] {
        h.write_f64(v);
    }
    let stats = outcome.scheduler_stats();
    for v in [stats.iterations, stats.heuristic_swaps, stats.fallback_routed_gates] {
        h.write_usize(v);
    }
    h.finish()
}

/// Renders cells as a JSON array, one cell object per line.
pub fn render(cells: &[QualityCell]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"cell\": \"{}\", \"shuttles\": {}, \"swaps\": {}, \"total_time_us\": \
             \"{:#018x}\", \"log10_success\": \"{:#018x}\", \"digest\": \"{:#018x}\"}}{}\n",
            c.name,
            c.shuttles,
            c.swaps,
            c.total_time_us.to_bits(),
            c.log10_success.to_bits(),
            c.digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

/// Parses a file written by [`render`].
///
/// # Errors
///
/// Names the first line that is not a cell object of the rendered shape.
pub fn parse(text: &str) -> Result<Vec<QualityCell>, String> {
    text.lines()
        .map(str::trim)
        .filter(|line| line.starts_with('{'))
        .map(|line| parse_cell(line).ok_or_else(|| format!("malformed quality cell: {line}")))
        .collect()
}

fn parse_cell(line: &str) -> Option<QualityCell> {
    let field = |key: &str| -> Option<&str> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"'))
    };
    let hex = |key: &str| u64::from_str_radix(field(key)?.strip_prefix("0x")?, 16).ok();
    Some(QualityCell {
        name: field("cell")?.to_string(),
        shuttles: field("shuttles")?.parse().ok()?,
        swaps: field("swaps")?.parse().ok()?,
        total_time_us: f64::from_bits(hex("total_time_us")?),
        log10_success: f64::from_bits(hex("log10_success")?),
        digest: hex("digest")?,
    })
}

/// One line per difference between the pinned and the fresh cells: each
/// changed cell with its quality delta, plus cells that appeared or
/// disappeared. Empty when the two lists are identical.
pub fn compare(pinned: &[QualityCell], fresh: &[QualityCell]) -> Vec<String> {
    let mut diffs = Vec::new();
    for new in fresh {
        match pinned.iter().find(|old| old.name == new.name) {
            None => diffs.push(format!("{}: new cell", new.name)),
            Some(old) if old != new => diffs.push(format!("{}: {}", new.name, delta(old, new))),
            Some(_) => {}
        }
    }
    for old in pinned.iter().filter(|old| fresh.iter().all(|new| new.name != old.name)) {
        diffs.push(format!("{}: cell removed", old.name));
    }
    if diffs.is_empty() && pinned.len() != fresh.len() {
        diffs.push(format!("{} pinned cells, {} fresh", pinned.len(), fresh.len()));
    }
    diffs
}

fn delta(old: &QualityCell, new: &QualityCell) -> String {
    let signed = |o: usize, n: usize| n as i64 - o as i64;
    format!(
        "shuttles {} -> {} ({:+}), swaps {} -> {} ({:+}), total_time_us {} -> {} ({:+.3}%), \
         log10_success {} -> {} ({:+.6}), digest {:#018x} -> {:#018x}",
        old.shuttles,
        new.shuttles,
        signed(old.shuttles, new.shuttles),
        old.swaps,
        new.swaps,
        signed(old.swaps, new.swaps),
        old.total_time_us,
        new.total_time_us,
        100.0 * (new.total_time_us / old.total_time_us - 1.0),
        old.log10_success,
        new.log10_success,
        new.log10_success - old.log10_success,
        old.digest,
        new.digest
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, shuttles: usize) -> QualityCell {
        QualityCell {
            name: name.into(),
            shuttles,
            swaps: 3,
            total_time_us: 1234.5,
            log10_success: -0.25,
            digest: 0xdead_beef,
        }
    }

    #[test]
    fn render_and_parse_round_trip_exactly() {
        let cells = vec![cell("a@d/ssync-gathering", 1), cell("b@d/murali", 2)];
        let text = render(&cells);
        assert_eq!(parse(&text).unwrap(), cells);
        assert!(parse("[\n  {\"cell\": \"x\"}\n]\n").is_err());
    }

    #[test]
    fn compare_reports_each_changed_added_and_removed_cell() {
        let pinned = vec![cell("a", 1), cell("b", 2)];
        assert!(compare(&pinned, &pinned).is_empty());
        let fresh = vec![cell("a", 4), cell("c", 2)];
        let diffs = compare(&pinned, &fresh);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs[0].starts_with("a: shuttles 1 -> 4 (+3)"), "{}", diffs[0]);
        assert_eq!(diffs[1], "c: new cell");
        assert_eq!(diffs[2], "b: cell removed");
    }
}
