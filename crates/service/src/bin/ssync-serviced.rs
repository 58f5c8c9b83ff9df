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

/// The daemon's own settings; the pool's go into a
/// [`CompileServiceBuilder`] and the TCP listener's into `front`.
struct Options {
    stdio: bool,
    socket: Option<std::path::PathBuf>,
    tcp: Option<String>,
    janitor_interval_secs: Option<u64>,
    port_file: Option<std::path::PathBuf>,
    slow_request_ms: Option<u64>,
    metrics_text: Option<std::path::PathBuf>,
    slo_ms: [Option<u64>; 3],
    front: FrontConfig,
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

/// Parses the arguments after the program name into the daemon's own
/// options and the compile pool's builder. `env_token` is the
/// `SSYNC_AUTH_TOKEN` value, the auth token unless `--auth-token` is
/// given; an empty one leaves the listener open.
fn parse_args(
    args: impl IntoIterator<Item = String>,
    env_token: Option<String>,
) -> Result<(Options, CompileServiceBuilder), String> {
    let mut service = CompileService::builder();
    let mut bounds = CacheBounds::UNBOUNDED;
    let mut options = Options {
        stdio: false,
        socket: None,
        tcp: None,
        janitor_interval_secs: None,
        port_file: None,
        slow_request_ms: None,
        metrics_text: None,
        slo_ms: [None; 3],
        front: FrontConfig {
            auth_token: env_token.filter(|t| !t.is_empty()),
            read_timeout: Some(Duration::from_secs(300)),
            frame_budget: Some(Duration::from_secs(30)),
            ..FrontConfig::default()
        },
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        let int =
            |raw: String| raw.parse::<u64>().map_err(|_| format!("{flag} expects an integer"));
        // The ten flags where `0` means off: no bound, no timeout, no run.
        let nonzero = |raw: String| int(raw).map(|n| (n > 0).then_some(n));
        let front = &mut options.front;
        match flag.as_str() {
            "--stdio" => options.stdio = true,
            "--socket" => options.socket = Some(value()?.into()),
            "--tcp" => options.tcp = Some(value()?),
            "--workers" => service = service.workers(int(value()?)? as usize),
            "--cache-max-entries" => bounds.max_entries = nonzero(value()?)?.map(|n| n as usize),
            "--cache-max-bytes" => bounds.max_bytes = nonzero(value()?)?.map(|n| n as usize),
            "--cache-dir" => service = service.persist_dir(value()?),
            "--cache-dir-max-bytes" => {
                if let Some(n) = nonzero(value()?)? {
                    service = service.persist_max_bytes(n);
                }
            }
            "--cache-dir-max-age-secs" => {
                if let Some(n) = nonzero(value()?)? {
                    service = service.persist_max_age(Duration::from_secs(n));
                }
            }
            "--janitor-interval-secs" => options.janitor_interval_secs = nonzero(value()?)?,
            "--auth-token" => front.auth_token = Some(value()?),
            "--idle-timeout-secs" => {
                front.read_timeout = nonzero(value()?)?.map(Duration::from_secs)
            }
            "--frame-budget-secs" => {
                front.frame_budget = nonzero(value()?)?.map(Duration::from_secs)
            }
            "--max-inflight-per-conn" => {
                front.max_inflight_per_conn = nonzero(value()?)?.map(|n| n as usize);
            }
            "--max-inflight-per-tenant" => {
                front.max_inflight_per_tenant = nonzero(value()?)?.map(|n| n as usize);
            }
            "--queue-watermark" => front.queue_watermark = nonzero(value()?)?.map(|n| n as usize),
            "--retry-after-ms" => front.retry_after_ms = int(value()?)?,
            "--port-file" => options.port_file = Some(value()?.into()),
            // `0` is meaningful here (log every request), so the flag's
            // mere presence enables slow-request logging.
            "--slow-request-ms" => options.slow_request_ms = Some(int(value()?)?),
            "--metrics-text" => options.metrics_text = Some(value()?.into()),
            "--flight-recorder" => service = service.flight_recorder(true),
            "--trace-journal-cap" => service = service.trace_journal_cap(int(value()?)? as usize),
            "--slo-ms-high" => options.slo_ms[Priority::High.index()] = Some(int(value()?)?),
            "--slo-ms-normal" => options.slo_ms[Priority::Normal.index()] = Some(int(value()?)?),
            "--slo-ms-batch" => options.slo_ms[Priority::Batch.index()] = Some(int(value()?)?),
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

fn main() -> ExitCode {
    let parsed = parse_args(std::env::args().skip(1), std::env::var("SSYNC_AUTH_TOKEN").ok());
    let (options, builder) = match parsed {
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
    if let Some(secs) = options.janitor_interval_secs {
        // The janitor: repeats the persistent-tier GC that building the
        // service ran at startup, once per interval. Detached like the
        // other two loops.
        let service = Arc::clone(&service);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs(secs));
            service.run_persist_gc();
        });
    }
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
        if options.front.auth_token.is_some() { "token" } else { "open" },
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
    front::serve_tcp(service, listener, options.front.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env_token: Option<&str>) -> (Options, CompileServiceBuilder) {
        match parse_args(args.iter().map(|a| a.to_string()), env_token.map(str::to_string)) {
            Ok(parsed) => parsed,
            Err(message) => panic!("{args:?} must parse: {message}"),
        }
    }

    fn error(args: &[&str]) -> String {
        match parse_args(args.iter().map(|a| a.to_string()), None) {
            Ok(_) => panic!("{args:?} must not parse"),
            Err(message) => message,
        }
    }

    /// Builders have no accessors, so two compare by their `Debug` text.
    fn assert_same_builder(got: &CompileServiceBuilder, expected: CompileServiceBuilder) {
        assert_eq!(format!("{got:?}"), format!("{expected:?}"));
    }

    #[test]
    fn the_usage_text_is_pinned() {
        assert_eq!(
            usage(),
            concat!(
                "usage: ssync-serviced (--stdio | --socket PATH | --tcp ADDR) [--workers N] ",
                "[--cache-max-entries N] [--cache-max-bytes N] [--cache-dir DIR] ",
                "[--cache-dir-max-bytes N] [--cache-dir-max-age-secs N] ",
                "[--janitor-interval-secs N] [--auth-token SECRET] [--idle-timeout-secs N] ",
                "[--frame-budget-secs N] [--max-inflight-per-conn N] ",
                "[--max-inflight-per-tenant N] [--queue-watermark N] [--retry-after-ms N] ",
                "[--port-file PATH] [--slow-request-ms N] [--metrics-text PATH] ",
                "[--flight-recorder] [--trace-journal-cap N] ",
                "[--slo-ms-high N] [--slo-ms-normal N] [--slo-ms-batch N]"
            )
        );
    }

    #[test]
    fn every_default() {
        let (options, service) = parse(&["--stdio"], None);
        assert!(options.stdio);
        assert_eq!((options.socket, options.tcp), (None, None));
        assert_eq!(options.janitor_interval_secs, None);
        assert_eq!(options.port_file, None);
        assert_eq!(options.slow_request_ms, None, "slow-request logging is off");
        assert_eq!(options.metrics_text, None);
        assert_eq!(options.slo_ms, [None; 3]);
        let front = options.front;
        assert_eq!(front.auth_token, None, "no token: the listener is open");
        assert_eq!(front.read_timeout, Some(Duration::from_secs(300)));
        assert_eq!(front.frame_budget, Some(Duration::from_secs(30)));
        assert_eq!(front.max_inflight_per_conn, None);
        assert_eq!(front.max_inflight_per_tenant, None);
        assert_eq!(front.queue_watermark, None);
        assert_eq!(front.retry_after_ms, 50);
        // One worker per core, an unbounded memory-only cache, the
        // default journal cap and no flight recorder.
        assert_same_builder(&service, CompileService::builder());
    }

    #[test]
    fn every_flag_sets_its_value() {
        let (options, service) = parse(
            &[
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "3",
                "--cache-max-entries",
                "16",
                "--cache-max-bytes",
                "1048576",
                "--cache-dir",
                "cache",
                "--cache-dir-max-bytes",
                "4096",
                "--cache-dir-max-age-secs",
                "60",
                "--janitor-interval-secs",
                "5",
                "--auth-token",
                "sesame",
                "--idle-timeout-secs",
                "7",
                "--frame-budget-secs",
                "2",
                "--max-inflight-per-conn",
                "4",
                "--max-inflight-per-tenant",
                "6",
                "--queue-watermark",
                "8",
                "--retry-after-ms",
                "25",
                "--port-file",
                "port",
                "--slow-request-ms",
                "100",
                "--metrics-text",
                "metrics.txt",
                "--flight-recorder",
                "--trace-journal-cap",
                "9",
                "--slo-ms-high",
                "11",
                "--slo-ms-normal",
                "12",
                "--slo-ms-batch",
                "13",
            ],
            Some("from-env"),
        );
        assert!(!options.stdio);
        assert_eq!(options.socket, None);
        assert_eq!(options.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(options.janitor_interval_secs, Some(5));
        assert_eq!(options.port_file, Some("port".into()));
        assert_eq!(options.slow_request_ms, Some(100));
        assert_eq!(options.metrics_text, Some("metrics.txt".into()));
        assert_eq!(options.slo_ms, [Some(11), Some(12), Some(13)]);
        let front = options.front;
        assert_eq!(front.auth_token.as_deref(), Some("sesame"), "the flag beats the variable");
        assert_eq!(front.read_timeout, Some(Duration::from_secs(7)));
        assert_eq!(front.frame_budget, Some(Duration::from_secs(2)));
        assert_eq!(front.max_inflight_per_conn, Some(4));
        assert_eq!(front.max_inflight_per_tenant, Some(6));
        assert_eq!(front.queue_watermark, Some(8));
        assert_eq!(front.retry_after_ms, 25);
        assert_same_builder(
            &service,
            CompileService::builder()
                .workers(3)
                .cache_bounds(CacheBounds { max_entries: Some(16), max_bytes: Some(1 << 20) })
                .persist_dir("cache")
                .persist_max_bytes(4096)
                .persist_max_age(Duration::from_secs(60))
                .flight_recorder(true)
                .trace_journal_cap(9),
        );

        let (options, _) = parse(&["--socket", "ssync.sock"], None);
        assert_eq!(options.socket, Some("ssync.sock".into()));
    }

    /// `0` turns off each of the ten flags that bound, time out or
    /// schedule something, the 300 s and 30 s timeouts included; on the
    /// other integer flags it is a value.
    #[test]
    fn zero_means_off_on_the_ten_switchable_flags() {
        let (options, service) = parse(
            &[
                "--stdio",
                "--cache-max-entries",
                "0",
                "--cache-max-bytes",
                "0",
                "--cache-dir-max-bytes",
                "0",
                "--cache-dir-max-age-secs",
                "0",
                "--janitor-interval-secs",
                "0",
                "--idle-timeout-secs",
                "0",
                "--frame-budget-secs",
                "0",
                "--max-inflight-per-conn",
                "0",
                "--max-inflight-per-tenant",
                "0",
                "--queue-watermark",
                "0",
                "--workers",
                "0",
                "--retry-after-ms",
                "0",
                "--slow-request-ms",
                "0",
                "--slo-ms-high",
                "0",
            ],
            None,
        );
        assert_eq!(options.janitor_interval_secs, None);
        let front = &options.front;
        assert_eq!((front.read_timeout, front.frame_budget), (None, None));
        assert_eq!(front.max_inflight_per_conn, None);
        assert_eq!(front.max_inflight_per_tenant, None);
        assert_eq!(front.queue_watermark, None);
        assert_eq!(front.retry_after_ms, 0);
        assert_eq!(options.slow_request_ms, Some(0), "0 logs every request");
        assert_eq!(options.slo_ms[Priority::High.index()], Some(0));
        assert_same_builder(&service, CompileService::builder().workers(0));
    }

    #[test]
    fn the_environment_token_applies_unless_empty() {
        let (options, _) = parse(&["--stdio"], Some("from-env"));
        assert_eq!(options.front.auth_token.as_deref(), Some("from-env"));
        let (options, _) = parse(&["--stdio"], Some(""));
        assert_eq!(options.front.auth_token, None, "an empty variable leaves it open");
    }

    #[test]
    fn bad_arguments_are_errors_that_show_the_usage() {
        let with_usage = |first: &str| format!("{first}\n{}", usage());
        assert_eq!(error(&["--stdio", "--bogus"]), with_usage("unknown argument '--bogus'"));
        assert_eq!(error(&["--stdio", "--workers"]), with_usage("--workers needs a value"));
        assert_eq!(error(&["--stdio", "--workers", "many"]), "--workers expects an integer");
        assert_eq!(
            error(&["--stdio", "--queue-watermark", "-1"]),
            "--queue-watermark expects an integer"
        );
        assert_eq!(error(&[]), with_usage("pick exactly one transport"));
        assert_eq!(
            error(&["--stdio", "--tcp", "127.0.0.1:0"]),
            with_usage("pick exactly one transport")
        );
        assert_eq!(error(&["--help"]), usage());
    }
}
