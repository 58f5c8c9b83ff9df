//! End-to-end benchmark of the S-SYNC compile daemon.
//!
//! ```text
//! ssbench --daemon PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each pass spawns `ssync-serviced` on `127.0.0.1:0` with two workers,
//! registers the workload's devices (and, for `corpus-warm`, compiles its
//! working set once), then sends the seeded request list chunk by chunk,
//! each chunk a timed window driven in a closed loop over two TCP
//! connections. Passes repeat until the windows add up to `S` seconds.
//! Every outcome goes through an independent checker between passes. With
//! `--trace 1` the start of the list is then replayed in-process with a span
//! around each layer call, and the daemon's own stage statistics are
//! reconciled with the client's latency.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). A readable table goes to standard error.

mod check;
mod daemon;
mod e2e;
mod gen;
mod traced;

use daemon::{Daemon, DaemonStats, StatsDelta};
use e2e::{Sample, Wire};
use gen::{RequestList, Workload};
use ssync_arch::{Device, QccdTopology};
use ssync_core::{CompileOutcome, CompilerConfig};
use ssync_service::ServiceClient;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rate, latency and CPU come from the fastest `1 / FAST_SHARE` of the
/// timed windows.
const FAST_SHARE: usize = 2;
/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 15;
/// Fewest timed windows per run, however long they take.
const MIN_WINDOWS: usize = 8;
/// Chunks of the list, from its start, that the traced run replays.
const REPLAY_CHUNKS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let mut take = |key: &str| values.remove(key).ok_or_else(|| format!("missing --{key}"));
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("seed")?.parse().map_err(|_| "--seed expects an integer")?,
        seconds: take("seconds")?.parse().map_err(|_| "--seconds expects a number")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        },
        daemon: take("daemon")?.into(),
        out: take("out")?.into(),
    };
    if let Some(key) = values.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("ssbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One timed window: a chunk of the list sent in a closed loop.
struct Window {
    /// Index of the chunk's first request in the list.
    first: usize,
    samples: Vec<Sample>,
    elapsed: Duration,
    cpu_s: f64,
    service: StatsDelta,
}

/// One daemon's life: set-up, then the whole list, chunk by chunk.
struct Pass {
    setup_s: f64,
    primed: Vec<Sample>,
    windows: Vec<Window>,
    peak_rss_mb: f64,
}

/// A daemon ready for the list: spawned, answering `Hello`, its devices
/// registered and, for a primed list, every cell compiled once. Returns
/// the priming outcomes and the seconds all of that took (`setup_s`).
fn set_up(
    args: &Args,
    list: &RequestList,
    wires: &[Wire],
    port_file: &Path,
) -> Result<(Daemon, ServiceClient, Vec<Sample>, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&args.daemon, port_file)?;
    let mut control = daemon.connect()?;
    e2e::register_devices(&mut control, list)?;
    let primed = if list.primed {
        let all: Vec<usize> = (0..list.cells.len()).collect();
        e2e::closed_loop(&daemon, wires, &all)?.0
    } else {
        Vec::new()
    };
    Ok((daemon, control, primed, started.elapsed().as_secs_f64()))
}

/// A set-up, then each chunk of the list in its own window.
fn pass(args: &Args, list: &RequestList, wires: &[Wire], port_file: &Path) -> Result<Pass, String> {
    let (daemon, mut control, primed, setup_s) = set_up(args, list, wires, port_file)?;
    let mut windows = Vec::new();
    for (i, chunk) in list.order.chunks(list.chunk).enumerate() {
        let before = DaemonStats::fetch(&mut control)?;
        let cpu_before = daemon.cpu_seconds()?;
        let (samples, elapsed) = e2e::closed_loop(&daemon, wires, chunk)?;
        let cpu_s = daemon.cpu_seconds()? - cpu_before;
        let service = StatsDelta::between(&before, &DaemonStats::fetch(&mut control)?);
        windows.push(Window { first: i * list.chunk, samples, elapsed, cpu_s, service });
    }
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.stop(control)?;
    Ok(Pass { setup_s, primed, windows, peak_rss_mb })
}

fn run(args: &Args) -> Result<String, String> {
    // Default settings for the daemon, which inherits this environment, and
    // for the in-process compiles: no cache bound, thread count or recorder
    // setting may leak in from the caller.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SSYNC_") {
            std::env::remove_var(key);
        }
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let port_file = args.out.join(format!("port-{}", std::process::id()));
    let list = gen::generate(args.workload, args.seed);
    // FNV-1a over the rendered list: equal digests mean equal inputs.
    let digest = gen::render(&list)
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3));
    let wires: Vec<Wire> = list.cells.iter().map(Wire::for_cell).collect();
    let topologies: HashMap<&str, QccdTopology> = list
        .devices
        .iter()
        .map(|&d| {
            QccdTopology::named(d).map(|t| (d, t)).ok_or_else(|| format!("unknown device {d}"))
        })
        .collect::<Result<_, _>>()?;
    let check = |cell: usize, outcome: &Result<CompileOutcome, String>| {
        let c = &list.cells[cell];
        outcome
            .as_ref()
            .map_err(|e| e.clone())
            .and_then(|o| check::check(&topologies[c.device], &c.circuit, o))
            .map_err(|e| format!("{}: {e}", c.label))
    };

    // Passes until the windows add up to `--seconds`. The 2-vCPU VM this
    // was sized on runs a fixed loop up to 1.8 times slower from one second
    // to the next, so rate, latency and CPU come from the faster half of the
    // windows; memory is the median over passes and set-up over set-ups.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut measured = Duration::ZERO;
    let mut windows: Vec<Window> = Vec::new();
    let (mut peak_rss_mb, mut setup_s) = (Vec::new(), Vec::new());
    let mut failures: Vec<String> = Vec::new();
    let mut wire_outcomes: HashMap<usize, CompileOutcome> = HashMap::new();
    while windows.len() < MIN_WINDOWS || measured < budget {
        let p = pass(args, &list, &wires, &port_file)?;
        peak_rss_mb.push(p.peak_rss_mb);
        setup_s.push(p.setup_s);
        // Checks run between passes, outside every timed window.
        let served =
            p.primed.iter().enumerate().chain(p.windows.iter().flat_map(|w| {
                w.samples.iter().enumerate().map(|(i, s)| (list.order[w.first + i], s))
            }));
        for (i, (cell, sample)) in served.enumerate() {
            match (check(cell, &sample.outcome), &sample.outcome) {
                (Err(e), _) if i < p.primed.len() => failures.push(format!("priming {e}")),
                (Err(e), _) => failures.push(e),
                (Ok(()), Ok(outcome)) => {
                    wire_outcomes.entry(cell).or_insert_with(|| outcome.clone());
                }
                (Ok(()), Err(_)) => unreachable!("a failed request cannot pass the check"),
            }
        }
        measured += p.windows.iter().map(|w| w.elapsed).sum::<Duration>();
        windows.extend(p.windows);
    }
    // A cold set-up takes a few milliseconds, so it gets more samples.
    while setup_s.len() < MIN_SETUPS {
        let (daemon, control, _, seconds) = set_up(args, &list, &wires, &port_file)?;
        daemon.stop(control)?;
        setup_s.push(seconds);
    }
    let attempted: usize = windows.iter().map(|w| w.samples.len()).sum();
    let rate = |w: &Window| w.samples.len() as f64 / w.elapsed.as_secs_f64();
    windows.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let fast = &windows[..windows.len().div_ceil(FAST_SHARE)];
    let fast_requests: usize = fast.iter().map(|w| w.samples.len()).sum();
    let fast_s: f64 = fast.iter().map(|w| w.elapsed.as_secs_f64()).sum();
    let fast_cpu_s: f64 = fast.iter().map(|w| w.cpu_s).sum();
    let mut latencies_ms: Vec<f64> =
        fast.iter().flat_map(|w| w.samples.iter().map(|s| s.latency.as_secs_f64() * 1e3)).collect();
    latencies_ms.sort_by(f64::total_cmp);
    let mean_latency_us = latencies_ms.iter().sum::<f64>() * 1e3 / fast_requests as f64;
    let mut service = StatsDelta::default();
    for w in fast {
        service.add(&w.service);
    }

    let (mut shuttles, mut swaps, mut gates, mut neglog, mut ln_time, mut cells) =
        (0, 0, 0, 0.0, 0.0, 0.0);
    // In cell order, so that the float sums repeat bit for bit.
    for outcome in (0..list.cells.len()).filter_map(|cell| wire_outcomes.get(&cell)) {
        let counts = outcome.counts();
        shuttles += counts.shuttles;
        swaps += counts.swap_gates;
        gates += counts.two_qubit_gates;
        neglog -= outcome.report().log10_success();
        ln_time += outcome.report().total_time_us.ln();
        cells += 1.0;
    }
    let e2e_metrics = vec![
        metric("req_per_s", fast_requests as f64 / fast_s, "1/s"),
        metric("latency_p50_ms", percentile(&latencies_ms, 0.50), "ms"),
        metric("latency_p99_ms", percentile(&latencies_ms, 0.99), "ms"),
        metric("cpu_ms_per_req", fast_cpu_s * 1e3 / fast_requests as f64, "ms"),
        metric("peak_rss_mb", median(&mut peak_rss_mb), "MiB"),
        metric(
            "ok_rate",
            attempted.saturating_sub(failures.len()) as f64 / attempted as f64,
            "ratio",
        ),
        metric("setup_s", median(&mut setup_s), "s"),
        metric("shuttles_per_kgate", shuttles as f64 * 1e3 / gates as f64, "1/kgate"),
        metric("swaps_per_kgate", swaps as f64 * 1e3 / gates as f64, "1/kgate"),
        metric("neglog10_success_mean", neglog / cells, "-log10"),
        metric("exec_time_geomean_us", (ln_time / cells).exp(), "us"),
    ];
    eprintln!(
        "ssbench: {} seed {} (inputs digest {digest:016x}): {} passes over {} requests in windows of {} over {} connections; {attempted} requests in {:.3} s measured, the faster {} windows ({fast_requests} requests) reported; quality over {cells} cells",
        args.workload.name(),
        args.seed,
        peak_rss_mb.len(),
        list.order.len(),
        list.chunk,
        e2e::CONNECTIONS,
        measured.as_secs_f64(),
        fast.len(),
    );
    print_table("end to end", &e2e_metrics);
    eprintln!("  {:<44} {:>16.4} ratio", "error_rate", failures.len() as f64 / attempted as f64);

    let metrics = if args.trace {
        let per_layer =
            traced_run(args, &list, &service, mean_latency_us, &wire_outcomes, &mut failures)?;
        print_table("per layer", &per_layer);
        per_layer
    } else {
        e2e_metrics
    };
    for failure in failures.iter().take(5) {
        eprintln!("ssbench: check failed: {failure}");
    }
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    ))
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("ssbench: {title}");
    for m in metrics {
        eprintln!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The per-layer metrics: an in-process replay with spans on and off, the
/// daemon's stage statistics over the window, and the check that each wire
/// outcome equals the in-process `compile_on` result.
fn traced_run(
    args: &Args,
    list: &RequestList,
    service: &StatsDelta,
    mean_latency_us: f64,
    wire_outcomes: &HashMap<usize, CompileOutcome>,
    failures: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let requests: Vec<usize> = (0..(REPLAY_CHUNKS * list.chunk).min(list.order.len())).collect();
    // Alternate spans on and off and keep each side's fastest pass, so
    // warm-up falls on neither side of `trace.overhead_pct`.
    let mut on = traced::replay(list, &requests, true)?;
    let mut off_ns = traced::replay(list, &requests, false)?.wall_ns;
    let again = traced::replay(list, &requests, true)?;
    if again.wall_ns < on.wall_ns {
        on = again;
    }
    off_ns = off_ns.min(traced::replay(list, &requests, false)?.wall_ns);
    let spans_path = args.out.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    on.tracer
        .write_jsonl(&mut file, |r| list.cells[list.order[r]].label.clone())
        .map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut file).map_err(|e| e.to_string())?;
    eprintln!("ssbench: {} spans written to {}", on.tracer.spans().len(), spans_path.display());

    let config = CompilerConfig::default();
    let mut devices: HashMap<&str, Device> = HashMap::new();
    let mut cells: Vec<usize> = requests.iter().map(|&r| list.order[r]).collect();
    cells.sort_unstable();
    cells.dedup();
    for cell in cells {
        let Some(wire) = wire_outcomes.get(&cell) else { continue };
        let c = &list.cells[cell];
        let device = devices.entry(c.device).or_insert_with(|| {
            Device::build(QccdTopology::named(c.device).expect("named device"), config.weights)
        });
        let local = c
            .compiler
            .compile_on(device, &c.circuit, &config)
            .map_err(|e| format!("{}: {e}", c.label))?;
        if local.program().ops() != wire.program().ops()
            || local.final_placement() != wire.final_placement()
        {
            failures.push(format!("{}: wire outcome differs from in-process compile_on", c.label));
        }
    }

    let layers = on.tracer.layers();
    let total_ns = |name: &str| layers.get(name).map_or(0, |l| l.1);
    let mean_us = |name: &str| layers.get(name).map_or(0.0, |l| l.1 as f64 / l.0 as f64 / 1e3);
    let counters = &on.counters;
    let scoring = &counters.scoring;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses) = (service.hits as f64, service.misses as f64);
    let end_to_end_us = service.stage_mean_us("end_to_end");
    let mut metrics = vec![
        metric("qasm.parse_us", mean_us("qasm.parse"), "us"),
        metric(
            "qasm.parse_mb_per_s",
            ratio(counters.parsed_bytes as f64 * 1e3, total_ns("qasm.parse") as f64),
            "MB/s",
        ),
        metric("arch.device_build_us", mean_us("arch.device_build"), "us"),
        metric("core.initial.placement_us", mean_us("core.initial"), "us"),
        metric("core.scheduler.run_us", mean_us("core.scheduler"), "us"),
        metric("core.scheduler.candidates_scored", scoring.candidates_scored as f64, "count"),
        metric(
            "core.scheduler.scoring_ns_per_candidate",
            ratio(scoring.scoring_time_ns as f64, scoring.candidates_scored as f64),
            "ns",
        ),
        metric(
            "core.scheduler.scoring_share",
            ratio(scoring.scoring_time_ns as f64, total_ns("core.scheduler") as f64),
            "ratio",
        ),
        metric("core.scheduler.iterations", counters.iterations as f64, "count"),
        metric("core.scheduler.frontier_rebuilds", scoring.frontier_rebuilds as f64, "count"),
        metric("core.scheduler.stall_fallbacks", scoring.stall_fallback_entries as f64, "count"),
        metric("core.perm_route.compile_us", mean_us("core.perm_route"), "us"),
        metric("baselines.compile_us", mean_us("baselines"), "us"),
        metric("sim.evaluate_us", mean_us("sim.evaluate"), "us"),
        metric("service.codec.encode_outcome_us", mean_us("service.codec.encode_outcome"), "us"),
        metric("service.codec.decode_outcome_us", mean_us("service.codec.decode_outcome"), "us"),
        metric(
            "service.codec.outcome_kb",
            ratio(counters.outcome_bytes as f64 / 1024.0, requests.len() as f64),
            "KiB",
        ),
        metric("service.codec.decode_circuit_us", mean_us("service.codec.decode_circuit"), "us"),
        metric("service.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric("service.cache.lookup_us", service.stage_mean_us("cache_lookup"), "us"),
        metric("service.pool.queue_wait_us", service.stage_mean_us("queue_wait"), "us"),
        metric("service.pool.compile_us", service.stage_mean_us("compile"), "us"),
        metric("service.front.parse_us", service.stage_mean_us("parse"), "us"),
        metric("service.end_to_end_us", end_to_end_us, "us"),
        metric("service.jobs_coalesced", service.coalesced as f64, "count"),
        metric("client.latency_mean_us", mean_latency_us, "us"),
        metric("unattributed_us", mean_latency_us - end_to_end_us, "us"),
        metric(
            "trace.overhead_pct",
            (on.wall_ns as f64 - off_ns as f64) * 100.0 / off_ns as f64,
            "%",
        ),
    ];
    for name in traced::LAYERS {
        let self_ns = layers.get(name).map_or(0, |l| l.2);
        metrics.push(metric(
            &format!("self_pct.{name}"),
            self_ns as f64 * 100.0 / on.wall_ns as f64,
            "%",
        ));
    }
    Ok(metrics)
}
