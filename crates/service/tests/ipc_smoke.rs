//! Smoke tests for the `ssync-serviced` IPC front-end: spawn the real
//! daemon binary, push requests through the real client, and require the
//! results to be bit-identical to direct in-process compilation. These
//! are the tests CI's smoke job runs so the front-end cannot silently
//! rot.

use ssync_arch::{Device, QccdTopology};
use ssync_baselines::CompilerKind;
use ssync_circuit::generators::qft;
use ssync_core::{CompileOutcome, CompilerConfig, SwapScheduleKind};
use ssync_service::client::ServiceClient;
use ssync_service::wire::RemoteRequest;
use ssync_service::{Priority, TenantId};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::{Daemon, DAEMON};

/// Spawns the daemon in stdio mode and wires a client to its pipes.
fn spawn_stdio_daemon(extra_args: &[&str]) -> (Daemon, ServiceClient) {
    let mut child = Daemon::spawn(
        Command::new(DAEMON)
            .arg("--stdio")
            .args(["--workers", "2"])
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    let writer = child.stdin.take().expect("piped stdin");
    let reader = child.stdout.take().expect("piped stdout");
    (child, ServiceClient::over(reader, writer))
}

fn assert_bit_identical(direct: &CompileOutcome, remote: &CompileOutcome, what: &str) {
    assert_eq!(direct.program().ops(), remote.program().ops(), "ops diverge: {what}");
    assert_eq!(direct.final_placement(), remote.final_placement(), "placement diverges: {what}");
    assert_eq!(direct.scheduler_stats(), remote.scheduler_stats(), "stats diverge: {what}");
    assert_eq!(
        direct.report().success_rate.to_bits(),
        remote.report().success_rate.to_bits(),
        "report diverges: {what}"
    );
    assert_eq!(
        direct.report().total_time_us.to_bits(),
        remote.report().total_time_us.to_bits(),
        "timing diverges: {what}"
    );
}

/// One request through the spawned daemon, output bit-identical to
/// `compile_on` — the ISSUE's acceptance path, exercised over real pipes
/// and a real second process.
#[test]
fn stdio_round_trip_is_bit_identical_to_direct_compile() {
    let config = CompilerConfig::default();
    let circuit = qft(10);
    let (mut child, mut client) = spawn_stdio_daemon(&[]);

    let job = client
        .submit(
            &RemoteRequest::new("G-2x2", circuit.clone(), CompilerKind::SSync, config)
                .with_priority(Priority::High)
                .with_tenant(TenantId::from_name("smoke")),
        )
        .expect("submit");
    let remote = client.wait(job).expect("wait").expect("compiles");

    let device = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "stdio round trip");

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.jobs_submitted, 1);
    assert_eq!(metrics.jobs_completed, 1);
    assert_eq!(metrics.submitted_at(Priority::High), 1);

    client.shutdown().expect("shutdown");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exits cleanly after Shutdown");
}

/// Every compiler kind agrees with its direct counterpart through the
/// daemon.
#[test]
fn all_compiler_kinds_agree_over_stdio() {
    let config = CompilerConfig::default();
    let circuit = qft(8);
    let (mut child, mut client) = spawn_stdio_daemon(&[]);
    let device = Device::build(QccdTopology::named("L-4").unwrap(), config.weights);

    for kind in CompilerKind::ALL {
        let job = client
            .submit(&RemoteRequest::new("L-4", circuit.clone(), kind, config))
            .expect("submit");
        let remote = client.wait(job).expect("wait").expect("compiles");
        let direct = kind.compile_on(&device, &circuit, &config).expect("compiles");
        assert_bit_identical(&direct, &remote, &format!("{kind:?}"));
    }

    // The perm-route swap schedule crosses the wire like every other
    // config field: on QFT-24 / G-3x3 the bubble-sort oracle emits a
    // different op stream than the production schedule, and the daemon
    // must compile the one the request asked for.
    let circuit = qft(24);
    let bubble = config.with_perm_schedule(SwapScheduleKind::BubbleSort);
    let device = Device::build(QccdTopology::named("G-3x3").unwrap(), config.weights);
    let production = CompilerKind::PermRoute.compile_on(&device, &circuit, &config).unwrap();
    let direct = CompilerKind::PermRoute.compile_on(&device, &circuit, &bubble).unwrap();
    assert_ne!(production.program().ops(), direct.program().ops(), "schedules must differ here");
    let job = client
        .submit(&RemoteRequest::new("G-3x3", circuit, CompilerKind::PermRoute, bubble))
        .expect("submit");
    let remote = client.wait(job).expect("wait").expect("compiles");
    assert_bit_identical(&direct, &remote, "PermRoute with the bubble-sort schedule");

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
}

/// Raw QASM source submitted over the wire compiles in the
/// daemon bit-identically to parsing the same source locally and calling
/// `compile_on`; a corpus file from
/// `workloads/` rides along; parse failures surface as rejections with
/// the diagnostic; and an expired deadline crosses the wire as
/// `DeadlineExceeded`.
#[test]
fn qasm_submission_is_bit_identical_to_local_parse_and_compile() {
    let config = CompilerConfig::default();
    let (mut child, mut client) = spawn_stdio_daemon(&[]);

    // An exported circuit plus a checked-in corpus file.
    let exported = ssync_qasm::export(&qft(10));
    let corpus = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads/gatedefs.qasm"),
    )
    .expect("corpus file checked in");
    for (what, source) in [("exported qft", &exported), ("workloads/gatedefs.qasm", &corpus)] {
        let submitted = client
            .submit_traced(
                &RemoteRequest::new("G-2x3", source.as_str(), CompilerKind::SSync, config)
                    .with_tenant(TenantId::from_name("qasm-smoke")),
            )
            .expect("submit qasm");
        let report = submitted.report.expect("a QASM submit carries its parse report");
        // The stripping report crosses the wire: the corpus file measures
        // four bits, the exported circuit strips nothing.
        if what == "workloads/gatedefs.qasm" {
            assert_eq!(report.measurements_stripped, 4, "{what}");
            assert!(report.gates_inlined > 0, "{what}");
        } else {
            assert!(!report.stripped_anything(), "{what}");
        }
        let remote = client.wait(submitted.job).expect("wait").expect("compiles");

        let circuit = ssync_qasm::parse(source).expect("parses locally").circuit;
        let device = Device::build(QccdTopology::named("G-2x3").unwrap(), config.weights);
        let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
        assert_bit_identical(&direct, &remote, what);
    }

    // A malformed program is rejected with the parser's diagnostic.
    let rejected = client.submit(&RemoteRequest::new(
        "G-2x3",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n",
        CompilerKind::SSync,
        config,
    ));
    match rejected {
        Err(ssync_service::client::ClientError::Rejected(reason)) => {
            assert!(reason.contains("qasm parse error"), "{reason}");
            assert!(reason.contains("takes 2 qubit arguments"), "{reason}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // A pre-expired deadline crosses the wire as the typed error.
    let job = client
        .submit(
            &RemoteRequest::new("G-2x3", exported, CompilerKind::Dai, config).with_deadline_us(0),
        )
        .expect("submit qasm");
    let result = client.wait(job).expect("wait");
    assert!(
        matches!(result, Err(ssync_core::CompileError::DeadlineExceeded { deadline_us: 0 })),
        "got {result:?}"
    );
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.jobs_deadline_expired, 1);

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
}

/// Compile errors and rejections cross the wire as themselves.
#[test]
fn errors_and_rejections_survive_the_wire() {
    let config = CompilerConfig::default();
    let (mut child, mut client) = spawn_stdio_daemon(&[]);

    // L-2 (2 traps x 22 slots = 44) cannot hold qft(44) + 1 space.
    let job = client
        .submit(&RemoteRequest::new("L-2", qft(44), CompilerKind::SSync, config))
        .expect("submit");
    let result = client.wait(job).expect("wait");
    assert!(
        matches!(result, Err(ssync_core::CompileError::DeviceTooSmall { qubits: 44, slots: 44 })),
        "got {result:?}"
    );

    let rejected =
        client.submit(&RemoteRequest::new("no-such-device", qft(4), CompilerKind::SSync, config));
    assert!(
        matches!(rejected, Err(ssync_service::client::ClientError::Rejected(_))),
        "unknown devices are rejected"
    );

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
}

/// The Unix-domain-socket transport serves the same conversation.
#[cfg(unix)]
#[test]
fn unix_socket_transport_round_trips() {
    let socket =
        std::env::temp_dir().join(format!("ssync-serviced-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut child = Daemon::spawn(
        Command::new(DAEMON)
            .args(["--socket", socket.to_str().unwrap(), "--workers", "1"])
            .stderr(Stdio::null()),
    );

    // The daemon needs a moment to bind.
    let mut client = None;
    for _ in 0..200 {
        match ServiceClient::connect_unix(&socket) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut client = client.expect("daemon bound its socket within 2s");

    let config = CompilerConfig::default();
    let circuit = qft(9);
    let job = client
        .submit(&RemoteRequest::new("G-2x2", circuit.clone(), CompilerKind::SSync, config))
        .expect("submit");
    let remote = client.wait(job).expect("wait").expect("compiles");
    let device = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "unix socket round trip");

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
    let _ = std::fs::remove_file(&socket);
}

/// The persistent cache tier round-trips across two *processes*: a first
/// daemon writes the outcome through to disk, a second daemon (sharing
/// only the directory) serves it from the persistent tier without
/// executing any compile, bit-identically.
#[test]
fn persistent_cache_round_trips_across_two_processes() {
    let dir = std::env::temp_dir().join(format!("ssync-serviced-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let config = CompilerConfig::default();
    let circuit = qft(11);
    let request = RemoteRequest::new("G-2x2", circuit.clone(), CompilerKind::SSync, config);

    // Process 1 compiles and persists.
    let (mut first, mut client) = spawn_stdio_daemon(&["--cache-dir", dir_arg]);
    let job = client.submit(&request).expect("submit");
    let original = client.wait(job).expect("wait").expect("compiles");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.cache.persist_stores, 1, "outcome written through to disk");
    assert_eq!(metrics.jobs_executed(), 1);
    client.shutdown().expect("shutdown");
    assert!(first.wait().expect("daemon exits").success());

    // Process 2 starts cold and must not recompile.
    let (mut second, mut client) = spawn_stdio_daemon(&["--cache-dir", dir_arg]);
    let job = client.submit(&request).expect("submit");
    let replayed = client.wait(job).expect("wait").expect("compiles");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.cache.persist_hits, 1, "served from the persistent tier");
    assert_eq!(metrics.jobs_executed(), 0, "no compile ran in the second process");
    client.shutdown().expect("shutdown");
    assert!(second.wait().expect("daemon exits").success());

    assert_bit_identical(&original, &replayed, "cross-process persistence");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The janitor repeats the persistent-tier GC while the daemon runs:
/// `.outcome` files added after start-up that put the directory over its
/// byte budget are deleted, oldest first, within a few intervals.
#[test]
fn the_janitor_trims_the_cache_directory_while_the_daemon_runs() {
    let dir = std::env::temp_dir().join(format!("ssync-serviced-janitor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (mut child, mut client) = spawn_stdio_daemon(&[
        "--cache-dir",
        dir.to_str().unwrap(),
        "--cache-dir-max-bytes",
        "1000",
        "--janitor-interval-secs",
        "1",
    ]);
    // An answer means start-up, and its GC of the empty directory, is over.
    assert_eq!(client.metrics().expect("metrics").cache.persist_gc_deleted, 0);

    // Three 1,000-byte files, oldest first: the budget keeps the newest.
    let files: Vec<_> = ["a", "b", "c"].map(|name| dir.join(format!("{name}.outcome"))).into();
    for file in &files {
        std::fs::write(file, [0u8; 1000]).expect("write");
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        let metrics = client.metrics().expect("metrics");
        if metrics.janitor_gc_runs >= 1 && !files[0].exists() && !files[1].exists() {
            break metrics;
        }
        assert!(Instant::now() < deadline, "the janitor did not trim the directory");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(files[2].exists(), "the newest file fits the budget");
    assert_eq!(metrics.cache.persist_gc_deleted, 2);

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
