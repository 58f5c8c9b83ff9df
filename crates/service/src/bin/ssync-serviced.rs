//! `ssync-serviced` — the standalone compile daemon.
//!
//! Wraps a [`ssync_service::CompileService`] in the wire protocol of
//! `ssync_service::wire` over one of three transports:
//!
//! ```text
//! ssync-serviced --stdio                          # frames on stdin/stdout
//! ssync-serviced --socket /tmp/ssync.sock         # Unix domain socket
//! ssync-serviced --tcp 127.0.0.1:7878             # hardened TCP listener
//! ```
//!
//! General options:
//!
//! * `--workers N` — worker threads (default `0`: one per available
//!   core).
//! * `--cache-max-entries N` / `--cache-max-bytes N` — result-cache
//!   bounds, the byte cap on the stored outcome encodings (default and
//!   `0`: unbounded).
//! * `--cache-dir DIR` — enable the persistent cache tier: outcomes are
//!   written through to `DIR` and loaded back on a miss, sharing compiles
//!   across daemon restarts and between processes.
//! * `--cache-dir-max-bytes N` / `--cache-dir-max-age-secs N` — garbage-
//!   collect the persistent directory at startup (oldest-mtime-first)
//!   down to a byte/age budget (default and `0`: unbounded).
//! * `--janitor-interval-secs N` — run the persistent-tier GC
//!   periodically on a background janitor thread, not just at startup
//!   (requires `--cache-dir` and at least one `--cache-dir-max-*`
//!   budget).
//!
//! TCP hardening options (see `ssync_service::front::FrontConfig`):
//!
//! * `--auth-token SECRET` — require the shared token on a `Hello`
//!   handshake before any other request (default: the
//!   `SSYNC_AUTH_TOKEN` environment variable, else open). Prefer the
//!   environment variable: argv is world-readable on most systems.
//! * `--idle-timeout-secs N` — per-read socket timeout; idle/half-open
//!   peers are disconnected (default 300, `0` = never).
//! * `--frame-budget-secs N` — whole-frame time budget, the slow-loris
//!   defence (default 30, `0` = unbounded).
//! * `--max-inflight-per-conn N` / `--max-inflight-per-tenant N` —
//!   admission caps on outstanding jobs (`0` = uncapped, the default).
//! * `--queue-watermark N` — queue-depth ceiling for load shedding;
//!   Batch sheds at half of it, Normal at three quarters, High at the
//!   full mark (`0` = never shed, the default).
//! * `--retry-after-ms N` — the advisory back-off carried in
//!   `Overloaded` rejections (default 50).
//! * `--port-file PATH` — write the bound address to `PATH` after
//!   listening starts; with `--tcp 127.0.0.1:0` this is how peers learn
//!   the OS-assigned port.
//!
//! Observability options (see `docs/OBSERVABILITY.md`):
//!
//! * `--slow-request-ms N` — emit a JSONL trace line on stderr for every
//!   request whose end-to-end time reaches `N` milliseconds (`0` logs
//!   every request; absent = disabled). Each line carries the trace id
//!   the client saw in its `Submitted` response plus per-stage timings.
//! * `--metrics-text PATH` — write the full metrics + latency-histogram
//!   snapshot to `PATH` in Prometheus-style text exposition every
//!   ~500 ms (atomically, via rename), and once more after drain. The
//!   same bytes answer the wire `GetStats` request.
//! * `--flight-recorder` — record every compile's scheduler decision
//!   stream (layer openings, winning candidates, shuttles, SWAP
//!   schedules) into a bounded per-request ring, fetchable over the wire
//!   via `GetTrace` (default off). Recording never changes compiled
//!   output — the bit-identity is bench-asserted — and costs one fixed
//!   buffer per in-flight compile plus one per journaled trace.
//! * `--trace-journal-cap N` — how many recent traces (and their flight
//!   recordings) the journal retains for `GetTrace` (default 256).
//! * `--slo-ms-high N` / `--slo-ms-normal N` / `--slo-ms-batch N` —
//!   per-priority end-to-end latency SLO targets in milliseconds
//!   (defaults 250 / 1000 / 5000). A background ticker samples the
//!   latency histograms every ~500 ms into rolling 1-minute and
//!   10-minute windows; the scrape surfaces export
//!   `ssync_slo_target_ms` and `ssync_slo_burn_ppm` (the fraction of
//!   requests over target, in parts per million) per priority and
//!   window.
//!
//! The daemon exits on a `Shutdown` request, or on EOF in stdio mode. A
//! `Shutdown` on the TCP transport *drains*: the listener stops
//! accepting, in-flight jobs finish and stay collectable until their
//! peers disconnect, and a final metrics snapshot is flushed to stderr
//! (rendered by the same text-exposition writer) before the process
//! ends.

use ssync_service::{
    front, render_text, CacheBounds, CompileService, CompileServiceBuilder, FrontConfig, Priority,
    SLO_TICK_INTERVAL,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    stdio: bool,
    socket: Option<std::path::PathBuf>,
    tcp: Option<String>,
    janitor_interval_secs: Option<u64>,
    auth_token: Option<String>,
    idle_timeout_secs: u64,
    frame_budget_secs: u64,
    max_inflight_per_conn: Option<usize>,
    max_inflight_per_tenant: Option<usize>,
    queue_watermark: Option<usize>,
    retry_after_ms: u64,
    port_file: Option<std::path::PathBuf>,
    slow_request_ms: Option<u64>,
    metrics_text: Option<std::path::PathBuf>,
    slo_ms: [Option<u64>; 3],
}

fn usage() -> &'static str {
    "usage: ssync-serviced (--stdio | --socket PATH | --tcp ADDR) [--workers N] \
     [--cache-max-entries N] [--cache-max-bytes N] [--cache-dir DIR] \
     [--cache-dir-max-bytes N] [--cache-dir-max-age-secs N] \
     [--janitor-interval-secs N] [--auth-token SECRET] [--idle-timeout-secs N] \
     [--frame-budget-secs N] [--max-inflight-per-conn N] \
     [--max-inflight-per-tenant N] [--queue-watermark N] [--retry-after-ms N] \
     [--port-file PATH] [--slow-request-ms N] [--metrics-text PATH] \
     [--flight-recorder] [--trace-journal-cap N] \
     [--slo-ms-high N] [--slo-ms-normal N] [--slo-ms-batch N]"
}

/// Parses argv into the daemon's own options and the compile pool's
/// builder.
fn parse_args() -> Result<(Options, CompileServiceBuilder), String> {
    let mut service = CompileService::builder();
    let mut bounds = CacheBounds::UNBOUNDED;
    let mut options = Options {
        stdio: false,
        socket: None,
        tcp: None,
        janitor_interval_secs: None,
        auth_token: std::env::var("SSYNC_AUTH_TOKEN").ok().filter(|t| !t.is_empty()),
        idle_timeout_secs: 300,
        frame_budget_secs: 30,
        max_inflight_per_conn: None,
        max_inflight_per_tenant: None,
        queue_watermark: None,
        retry_after_ms: 50,
        port_file: None,
        slow_request_ms: None,
        metrics_text: None,
        slo_ms: [None; 3],
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |what: &str| args.next().ok_or_else(|| format!("{what} needs a value\n{}", usage()));
        let parse_u64 = |what: &str, raw: String| -> Result<u64, String> {
            raw.parse().map_err(|_| format!("{what} expects an integer"))
        };
        match arg.as_str() {
            "--stdio" => options.stdio = true,
            "--socket" => options.socket = Some(value("--socket")?.into()),
            "--tcp" => options.tcp = Some(value("--tcp")?),
            "--workers" => {
                service = service.workers(parse_u64("--workers", value("--workers")?)? as usize);
            }
            // `0` means unbounded for every cache budget.
            "--cache-max-entries" => {
                let n = parse_u64("--cache-max-entries", value("--cache-max-entries")?)?;
                bounds.max_entries = (n > 0).then_some(n as usize);
            }
            "--cache-max-bytes" => {
                let n = parse_u64("--cache-max-bytes", value("--cache-max-bytes")?)?;
                bounds.max_bytes = (n > 0).then_some(n as usize);
            }
            "--cache-dir" => service = service.persist_dir(value("--cache-dir")?),
            "--cache-dir-max-bytes" => {
                let n = parse_u64("--cache-dir-max-bytes", value("--cache-dir-max-bytes")?)?;
                if n > 0 {
                    service = service.persist_max_bytes(n);
                }
            }
            "--cache-dir-max-age-secs" => {
                let n = parse_u64("--cache-dir-max-age-secs", value("--cache-dir-max-age-secs")?)?;
                if n > 0 {
                    service = service.persist_max_age(Duration::from_secs(n));
                }
            }
            "--janitor-interval-secs" => {
                let n = parse_u64("--janitor-interval-secs", value("--janitor-interval-secs")?)?;
                options.janitor_interval_secs = (n > 0).then_some(n);
            }
            "--auth-token" => options.auth_token = Some(value("--auth-token")?),
            "--idle-timeout-secs" => {
                options.idle_timeout_secs =
                    parse_u64("--idle-timeout-secs", value("--idle-timeout-secs")?)?;
            }
            "--frame-budget-secs" => {
                options.frame_budget_secs =
                    parse_u64("--frame-budget-secs", value("--frame-budget-secs")?)?;
            }
            "--max-inflight-per-conn" => {
                let n = parse_u64("--max-inflight-per-conn", value("--max-inflight-per-conn")?)?;
                options.max_inflight_per_conn = (n > 0).then_some(n as usize);
            }
            "--max-inflight-per-tenant" => {
                let n =
                    parse_u64("--max-inflight-per-tenant", value("--max-inflight-per-tenant")?)?;
                options.max_inflight_per_tenant = (n > 0).then_some(n as usize);
            }
            "--queue-watermark" => {
                let n = parse_u64("--queue-watermark", value("--queue-watermark")?)?;
                options.queue_watermark = (n > 0).then_some(n as usize);
            }
            "--retry-after-ms" => {
                options.retry_after_ms = parse_u64("--retry-after-ms", value("--retry-after-ms")?)?;
            }
            "--port-file" => options.port_file = Some(value("--port-file")?.into()),
            // `0` is meaningful here (log every request), so the flag's
            // mere presence enables slow-request logging.
            "--slow-request-ms" => {
                options.slow_request_ms =
                    Some(parse_u64("--slow-request-ms", value("--slow-request-ms")?)?);
            }
            "--metrics-text" => options.metrics_text = Some(value("--metrics-text")?.into()),
            "--flight-recorder" => service = service.flight_recorder(true),
            "--trace-journal-cap" => {
                let n = parse_u64("--trace-journal-cap", value("--trace-journal-cap")?)?;
                service = service.trace_journal_cap(n as usize);
            }
            "--slo-ms-high" => {
                options.slo_ms[Priority::High.index()] =
                    Some(parse_u64("--slo-ms-high", value("--slo-ms-high")?)?);
            }
            "--slo-ms-normal" => {
                options.slo_ms[Priority::Normal.index()] =
                    Some(parse_u64("--slo-ms-normal", value("--slo-ms-normal")?)?);
            }
            "--slo-ms-batch" => {
                options.slo_ms[Priority::Batch.index()] =
                    Some(parse_u64("--slo-ms-batch", value("--slo-ms-batch")?)?);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    let transports = usize::from(options.stdio)
        + usize::from(options.socket.is_some())
        + usize::from(options.tcp.is_some());
    if transports != 1 {
        return Err(format!("pick exactly one transport\n{}", usage()));
    }
    Ok((options, service.cache_bounds(bounds)))
}

impl Options {
    fn front_config(&self) -> FrontConfig {
        FrontConfig {
            auth_token: self.auth_token.clone(),
            read_timeout: (self.idle_timeout_secs > 0)
                .then(|| Duration::from_secs(self.idle_timeout_secs)),
            frame_budget: (self.frame_budget_secs > 0)
                .then(|| Duration::from_secs(self.frame_budget_secs)),
            max_inflight_per_conn: self.max_inflight_per_conn,
            max_inflight_per_tenant: self.max_inflight_per_tenant,
            queue_watermark: self.queue_watermark,
            retry_after_ms: self.retry_after_ms,
        }
    }
}

fn main() -> ExitCode {
    let (options, builder) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let service = Arc::new(builder.build());
    service.telemetry().set_slow_threshold(options.slow_request_ms.map(Duration::from_millis));
    for priority in Priority::ALL {
        if let Some(ms) = options.slo_ms[priority.index()] {
            service.telemetry().set_slo_target(priority, Duration::from_millis(ms));
        }
    }
    {
        // The SLO ticker: samples the end-to-end histograms into the
        // rolling burn-rate windows. Detached like the metrics flusher —
        // it dies with the process, and a tick on a drained service is a
        // cheap no-op.
        let service = Arc::clone(&service);
        std::thread::spawn(move || loop {
            std::thread::sleep(SLO_TICK_INTERVAL);
            service.telemetry().slo_tick();
        });
    }
    let _janitor =
        options.janitor_interval_secs.map(|secs| service.spawn_janitor(Duration::from_secs(secs)));
    if let Some(path) = &options.metrics_text {
        // Periodic scrape file: a detached flusher rewrites it every
        // ~500 ms for the daemon's lifetime (it dies with the process),
        // and the drain path below writes the final snapshot.
        let service = Arc::clone(&service);
        let path = path.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(500));
            let _ = write_metrics_text(&service, &path);
        });
    }
    eprintln!(
        "[ssync-serviced] serving with {} workers (cache: {:?}, persist: {:?}, janitor: {:?}, auth: {}, flight recorder: {})",
        service.workers(),
        service.cache().config().bounds,
        service.cache().config().persist_dir,
        options.janitor_interval_secs,
        if options.auth_token.is_some() { "token" } else { "open" },
        if service.flight_recorder_enabled() { "on" } else { "off" },
    );
    let result = if options.stdio {
        front::serve_stdio(&service)
    } else if let Some(addr) = &options.tcp {
        serve_tcp(&service, &options, addr)
    } else {
        let path = options.socket.as_deref().expect("validated by parse_args");
        front::serve_unix(&service, path)
    };
    // Drain is complete: flush a final snapshot so an operator (or a
    // supervisor scraping stderr) sees what the lifetime did — rendered
    // by the same text-exposition writer that answers `GetStats` and
    // fills `--metrics-text`, so every surface agrees.
    eprintln!("[ssync-serviced] final metrics:");
    eprint!("{}", render_text(&service.metrics(), &service.telemetry().snapshot()));
    if let Some(path) = &options.metrics_text {
        if let Err(error) = write_metrics_text(&service, path) {
            eprintln!("[ssync-serviced] final --metrics-text write failed: {error}");
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("[ssync-serviced] transport error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the current metrics + telemetry snapshot and swaps it into
/// `path` via a tmp-file rename, so a scraper never reads a half-written
/// exposition.
fn write_metrics_text(service: &CompileService, path: &std::path::Path) -> std::io::Result<()> {
    let text = render_text(&service.metrics(), &service.telemetry().snapshot());
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Binds the TCP listener, publishes the bound address to `--port-file`
/// (written atomically-enough via rename so a polling parent never reads
/// a half-written line), and runs the hardened accept loop.
fn serve_tcp(service: &Arc<CompileService>, options: &Options, addr: &str) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    eprintln!("[ssync-serviced] listening on tcp://{local}");
    if let Some(path) = &options.port_file {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{local}\n"))?;
        std::fs::rename(&tmp, path)?;
    }
    front::serve_tcp(service, listener, options.front_config())
}
