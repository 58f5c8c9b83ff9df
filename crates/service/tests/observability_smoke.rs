//! End-to-end observability smoke test: spawn the real `ssync-serviced`
//! binary with tracing fully enabled, push a mixed-priority workload
//! through it, and require non-zero latency histograms on **both** export
//! surfaces — the wire `GetStats` request and the `--metrics-text` file —
//! plus a parseable slow-request JSONL stream on stderr. This is the
//! ISSUE-8 acceptance path, exercised over real pipes and a real second
//! process.

use ssync_baselines::CompilerKind;
use ssync_circuit::generators::qft;
use ssync_core::CompilerConfig;
use ssync_service::client::ServiceClient;
use ssync_service::wire::RemoteRequest;
use ssync_service::Priority;
use std::io::Read;
use std::process::{Command, Stdio};

mod common;
use common::{Daemon, TempPath, DAEMON};

/// Spawns the daemon in stdio mode with every observability surface on:
/// `--slow-request-ms 0` logs a JSONL trace for every request, and
/// `--metrics-text` keeps a scrape file fresh. Stderr is drained by a
/// thread from the start — the final exposition flush alone can exceed a
/// pipe buffer, and an undrained pipe would deadlock the daemon's exit.
fn spawn_observable_daemon(
    metrics_path: &std::path::Path,
) -> (Daemon, ServiceClient, std::thread::JoinHandle<String>) {
    let mut child = Daemon::spawn(
        Command::new(DAEMON)
            .arg("--stdio")
            .args(["--workers", "2", "--slow-request-ms", "0"])
            .args(["--metrics-text", metrics_path.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped()),
    );
    let writer = child.stdin.take().expect("piped stdin");
    let reader = child.stdout.take().expect("piped stdout");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let drain = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stderr.read_to_string(&mut buf);
        buf
    });
    (child, ServiceClient::over(reader, writer), drain)
}

/// Reads one sample from a text exposition: the value on the line
/// `name{labels} value`.
fn metric(text: &str, name: &str, labels: &str) -> Option<u64> {
    let needle = format!("{name}{{{labels}}} ");
    text.lines().find_map(|line| line.strip_prefix(&needle)).map(|v| {
        v.trim().parse().unwrap_or_else(|_| panic!("unparseable sample for {needle}: {v}"))
    })
}

/// Asserts the exposition carries non-zero count, p50 and p99 for
/// `stage` at every priority — the ISSUE's acceptance bar.
fn assert_stage_populated(text: &str, stage: &str, surface: &str) {
    for priority in ["high", "normal", "batch"] {
        let labels = format!("stage=\"{stage}\",priority=\"{priority}\"");
        let count = metric(text, "ssync_stage_latency_ns_count", &labels)
            .unwrap_or_else(|| panic!("{surface}: no count for {labels}"));
        assert!(count > 0, "{surface}: empty histogram for {labels}");
        for quantile in ["p50", "p99"] {
            let value = metric(text, &format!("ssync_stage_latency_{quantile}_ns"), &labels)
                .unwrap_or_else(|| panic!("{surface}: no {quantile} for {labels}"));
            assert!(value > 0, "{surface}: zero {quantile} for {labels}");
        }
    }
}

/// The histogrammed stages every submission passes through, in pipeline
/// order: the cache-key build and lookup at admission, the queue, the
/// whole request.
const SUBMIT_STAGES: [&str; 4] = ["cache_key", "cache_lookup", "queue_wait", "end_to_end"];

#[test]
fn daemon_reports_latency_histograms_on_both_surfaces() {
    let dir = TempPath::dir("ssync-obs-smoke");
    let metrics_path = dir.join("metrics.prom");
    let (mut child, mut client, stderr_drain) = spawn_observable_daemon(&metrics_path);

    // Mixed workload: every (priority × compiler) pair gets a distinct
    // circuit so nothing is served from cache and every priority's
    // queue-wait histogram fills; one QASM submission covers the parse
    // stage. Trace ids must come back non-zero and pairwise distinct.
    let config = CompilerConfig::default();
    let mut trace_ids = Vec::new();
    let mut jobs = Vec::new();
    for (i, priority) in Priority::ALL.into_iter().enumerate() {
        for (j, kind) in CompilerKind::ALL.into_iter().enumerate() {
            let circuit = qft(5 + (i * CompilerKind::ALL.len() + j));
            let request =
                RemoteRequest::new("G-2x2", circuit, kind, config).with_priority(priority);
            let submitted = client.submit_traced(&request).expect("submit");
            assert!(submitted.trace_id > 0, "the daemon always assigns a trace id");
            trace_ids.push(submitted.trace_id);
            jobs.push(submitted.job);
        }
    }
    let qasm =
        RemoteRequest::new("G-2x2", ssync_qasm::export(&qft(4)), CompilerKind::SSync, config);
    let submitted = client.submit_traced(&qasm).expect("submit qasm");
    assert!(submitted.trace_id > 0);
    trace_ids.push(submitted.trace_id);
    jobs.push(submitted.job);
    let distinct: std::collections::HashSet<u64> = trace_ids.iter().copied().collect();
    assert_eq!(distinct.len(), trace_ids.len(), "trace ids are pairwise distinct");
    for job in jobs {
        client.wait(job).expect("wait").expect("compiles");
    }

    // Surface 1: the wire `GetStats` request on the live daemon.
    let stats = client.stats_text().expect("GetStats");
    for stage in SUBMIT_STAGES {
        assert_stage_populated(&stats, stage, "GetStats");
    }
    assert!(
        metric(&stats, "ssync_stage_latency_ns_count", "stage=\"parse\",priority=\"normal\"")
            .is_some_and(|count| count > 0),
        "the QASM parse stage is recorded"
    );
    // The plain wire metrics carry the tracing counters too.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.traces_recorded, trace_ids.len() as u64);
    assert_eq!(metrics.slow_requests, trace_ids.len() as u64, "threshold 0 flags everything");

    // The periodic flusher has had ample time by now; the scrape file
    // exists and is a well-formed exposition mid-flight.
    std::thread::sleep(std::time::Duration::from_millis(800));
    let live = std::fs::read_to_string(&metrics_path).expect("live --metrics-text file");
    assert!(live.contains("ssync_stage_latency_ns"), "live scrape file renders histograms");

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
    let stderr = stderr_drain.join().expect("stderr drained");

    // Surface 2: the final `--metrics-text` flush after drain.
    let finale = std::fs::read_to_string(&metrics_path).expect("final --metrics-text file");
    for stage in SUBMIT_STAGES {
        assert_stage_populated(&finale, stage, "--metrics-text");
    }
    assert!(
        metric(&finale, "ssync_traces_recorded_total", "")
            .or_else(|| {
                // unlabelled samples render as `name value`
                finale.lines().find_map(|line| {
                    line.strip_prefix("ssync_traces_recorded_total ")
                        .map(|v| v.trim().parse().unwrap())
                })
            })
            .is_some_and(|v| v >= trace_ids.len() as u64),
        "the trace counter survives to the final flush"
    );

    // Surface 3: with `--slow-request-ms 0` every request emits one JSONL
    // trace line on stderr, parseable and carrying the stages plus the
    // exact trace ids the client was told.
    let jsonl: Vec<&str> = stderr.lines().filter(|line| line.starts_with('{')).collect();
    assert!(
        jsonl.len() >= trace_ids.len(),
        "one slow-request line per request, got {} of {}:\n{stderr}",
        jsonl.len(),
        trace_ids.len()
    );
    for line in &jsonl {
        assert!(line.starts_with("{\"trace_id\":\""), "line leads with the trace id: {line}");
        assert!(line.ends_with('}'), "line is a complete object: {line}");
        assert!(line.contains("\"stages\":["), "line carries the stage timeline: {line}");
        for stage in ["cache_key", "cache_lookup", "end_to_end"] {
            assert!(line.contains(&format!("\"{stage}\"")), "line includes {stage}: {line}");
        }
    }
    for trace_id in &trace_ids {
        let hex = format!("{trace_id:016x}");
        assert!(
            jsonl.iter().any(|line| line.contains(&hex)),
            "trace {hex} from the Submitted response appears in the slow log"
        );
    }
}

/// The ISSUE-10 acceptance path: a TCP daemon with the flight recorder
/// on serves `GetTrace` for a compiled request (span JSONL + non-empty
/// recorder event stream), the scrape surfaces carry histogram bucket
/// exemplars whose trace ids resolve back through `GetTrace`, the SLO
/// target/burn-rate gauges are exported, and the slow-request JSONL
/// stream carries the scoring attributes.
#[test]
fn tcp_daemon_serves_flight_recorder_traces_exemplars_and_slo_gauges() {
    let dir = TempPath::dir("ssync-obs-tcp");
    let metrics_path = dir.join("metrics.prom");
    let port_file = dir.join("port");
    let mut child = Daemon::spawn(
        Command::new(DAEMON)
            .args(["--tcp", "127.0.0.1:0"])
            .args(["--port-file", port_file.to_str().unwrap()])
            .args(["--workers", "2", "--slow-request-ms", "0"])
            .args(["--metrics-text", metrics_path.to_str().unwrap()])
            .args(["--flight-recorder", "--trace-journal-cap", "64"])
            .args(["--slo-ms-high", "250", "--slo-ms-normal", "1000", "--slo-ms-batch", "5000"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped()),
    );
    let mut stderr = child.stderr.take().expect("piped stderr");
    let drain = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stderr.read_to_string(&mut buf);
        buf
    });
    // The daemon publishes its OS-assigned port via --port-file.
    let addr = {
        let mut waited = 0u64;
        loop {
            match std::fs::read_to_string(&port_file) {
                Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
                _ => {
                    assert!(waited < 10_000, "daemon never published its port");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    waited += 50;
                }
            }
        }
    };
    let mut client = ServiceClient::connect_tcp(&addr, None).expect("connect");

    // First traffic burst, then a pause long enough for an SLO tick to
    // land a baseline reading, then a second burst — the burn-rate
    // windows need a non-zero count delta between two ticks before the
    // gauges render.
    let config = CompilerConfig::default();
    let mut trace_ids = Vec::new();
    for (i, priority) in Priority::ALL.into_iter().enumerate() {
        let request = RemoteRequest::new("G-2x2", qft(6 + i), CompilerKind::SSync, config)
            .with_priority(priority);
        let submitted = client.submit_traced(&request).expect("submit");
        assert!(submitted.trace_id > 0);
        client.wait(submitted.job).expect("wait").expect("compiles");
        trace_ids.push(submitted.trace_id);
    }
    std::thread::sleep(std::time::Duration::from_millis(700));
    let late = RemoteRequest::new("G-2x2", qft(11), CompilerKind::SSync, config)
        .with_priority(Priority::Normal);
    let late = client.submit_traced(&late).expect("submit");
    client.wait(late.job).expect("wait").expect("compiles");
    trace_ids.push(late.trace_id);
    std::thread::sleep(std::time::Duration::from_millis(700));

    // GetTrace round-trips a recorded trace over TCP: the span JSONL
    // names the trace and carries the scoring attributes, and the
    // flight-recorder stream is non-empty (header + events).
    for &trace_id in &trace_ids {
        let (span_jsonl, recorder_jsonl) = client.get_trace(trace_id).expect("GetTrace");
        assert!(
            span_jsonl.contains(&format!("{trace_id:016x}")),
            "span names its trace: {span_jsonl}"
        );
        assert!(
            span_jsonl.contains("candidates_scored"),
            "span carries the scoring attributes: {span_jsonl}"
        );
        assert!(span_jsonl.contains("\"cache_key\""), "span times the key build: {span_jsonl}");
        assert!(!recorder_jsonl.is_empty(), "recorder stream travels for trace {trace_id}");
        assert!(
            recorder_jsonl.lines().count() > 1,
            "header plus at least one event: {recorder_jsonl}"
        );
    }
    // An unknown id is a clean rejection, not a dead connection.
    assert!(matches!(
        client.get_trace(u64::MAX),
        Err(ssync_service::client::ClientError::Rejected(_))
    ));

    // The SLO gauges are on the wire scrape: the configured targets, and
    // (after two ticks bracketed the traffic) the burn-rate gauges.
    let stats = client.stats_text().expect("GetStats");
    for (priority, target) in [("high", 250), ("normal", 1000), ("batch", 5000)] {
        assert_eq!(
            metric(&stats, "ssync_slo_target_ms", &format!("priority=\"{priority}\"")),
            Some(target),
            "SLO target gauge for {priority}"
        );
    }
    assert!(
        stats.contains("ssync_slo_burn_ppm{priority=\"normal\",window=\"1m\"}"),
        "burn-rate gauge renders once windows have readings:\n{stats}"
    );

    // Histogram exemplars: at least one bucket on the wire scrape names
    // a trace id, and that id resolves back through GetTrace. The scrape
    // file (refreshed every ~500 ms) carries the same exemplars.
    let exemplar_ids = |text: &str| -> Vec<u64> {
        text.match_indices("trace_id=\"")
            .filter_map(|(at, needle)| {
                let hex = &text[at + needle.len()..at + needle.len() + 16];
                u64::from_str_radix(hex, 16).ok()
            })
            .collect()
    };
    let on_wire = exemplar_ids(&stats);
    assert!(!on_wire.is_empty(), "GetStats carries bucket exemplars:\n{stats}");
    let file = std::fs::read_to_string(&metrics_path).expect("live --metrics-text file");
    let on_file = exemplar_ids(&file);
    assert!(!on_file.is_empty(), "the scrape file carries bucket exemplars:\n{file}");
    let resolved = on_file
        .iter()
        .filter(|&&id| {
            client
                .get_trace(id)
                .map(|(span, _)| span.contains(&format!("{id:016x}")))
                .unwrap_or(false)
        })
        .count();
    assert!(resolved > 0, "a scrape-file exemplar resolves via GetTrace: {on_file:?}");
    assert!(
        on_file.iter().any(|id| trace_ids.contains(id)),
        "a scrape-file exemplar names one of this session's traces: {on_file:?} vs {trace_ids:?}"
    );

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
    let stderr = drain.join().expect("stderr drained");

    // The slow-request JSONL stream carries the scoring attributes.
    let jsonl: Vec<&str> = stderr.lines().filter(|line| line.starts_with('{')).collect();
    assert!(jsonl.len() >= trace_ids.len(), "one slow line per request:\n{stderr}");
    assert!(
        jsonl.iter().any(|line| line.contains("\"candidates_scored\":")),
        "slow lines carry the scoring attributes:\n{stderr}"
    );
}
