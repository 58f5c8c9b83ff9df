//! Fault-injection and overload tests for the hardened TCP front-end:
//! hostile peers (wrong magic, truncated frames, forged length headers,
//! bad tokens, slow-loris trickles, silent half-open connections), load
//! shedding under a queue watermark, the client's backoff contract, the
//! drain path, two daemons sharing one persistent cache directory, and
//! QASM nested deeply enough to overflow a connection thread's stack or
//! expanding to more gates than memory holds.
//! CI's `overload-smoke` job runs this file.

use ssync_arch::{Device, QccdTopology};
use ssync_baselines::CompilerKind;
use ssync_circuit::generators::qft;
use ssync_core::{CompileOutcome, CompilerConfig};
use ssync_service::client::{BackoffPolicy, ClientError, ServiceClient};
use ssync_service::wire::{encode_request, RemoteRequest, Request, WIRE_MAGIC, WIRE_VERSION};
use ssync_service::{front, CompileService, FrontConfig, Priority, TenantId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{Daemon, TempPath, DAEMON};

/// Starts an in-process hardened TCP front-end on an OS-assigned port.
/// The returned thread runs until an authenticated peer sends `Shutdown`
/// and every connection drains.
fn start_tcp_front(
    service: &Arc<CompileService>,
    config: FrontConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let service = Arc::clone(service);
    let handle = std::thread::spawn(move || front::serve_tcp(&service, listener, config));
    (addr, handle)
}

fn assert_bit_identical(direct: &CompileOutcome, remote: &CompileOutcome, what: &str) {
    assert_eq!(direct.program().ops(), remote.program().ops(), "ops diverge: {what}");
    assert_eq!(direct.final_placement(), remote.final_placement(), "placement diverges: {what}");
    assert_eq!(
        direct.report().success_rate.to_bits(),
        remote.report().success_rate.to_bits(),
        "report diverges: {what}"
    );
}

/// A raw 12-byte frame header: attacker-controlled bytes, no client code.
fn header(magic: u32, version: u32, length: u32) -> [u8; 12] {
    let mut h = [0u8; 12];
    h[0..4].copy_from_slice(&magic.to_le_bytes());
    h[4..8].copy_from_slice(&version.to_le_bytes());
    h[8..12].copy_from_slice(&length.to_le_bytes());
    h
}

/// Reads until EOF/reset with a bounded timeout; panics if the server
/// leaves the connection open past `patience`. Returns the bytes read.
fn read_until_server_closes(stream: &mut TcpStream, patience: Duration) -> Vec<u8> {
    stream.set_read_timeout(Some(patience)).expect("set timeout");
    let mut collected = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return collected, // server closed cleanly
            Ok(n) => collected.extend_from_slice(&buf[..n]),
            // A reset is also a close; a timeout means the server is
            // still holding the connection open — the defect under test.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return collected,
            Err(e) => panic!("server kept a hostile connection open: {e}"),
        }
    }
}

/// Every malformed or hostile byte stream is cut off without taking the
/// daemon down, and the counters attribute each class of abuse. The
/// forged-length case is the regression test for the allocate-after-guard
/// ordering in `read_frame`: a 4 GiB length prefix must be refused from
/// the 12-byte header alone.
#[test]
fn hostile_peers_are_cut_off_and_counted() {
    let service = Arc::new(CompileService::with_workers(1));
    let (addr, server) = start_tcp_front(
        &service,
        FrontConfig {
            auth_token: Some("sesame".into()),
            read_timeout: Some(Duration::from_millis(250)),
            frame_budget: Some(Duration::from_millis(400)),
            ..FrontConfig::default()
        },
    );
    let patience = Duration::from_secs(10);

    // Wrong magic: refused at the first header.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&header(0xDEAD_BEEF, WIRE_VERSION, 4)).expect("write");
    read_until_server_closes(&mut stream, patience);

    // A well-formed `Hello` with the right token, stamped with the
    // previous protocol version: there is one version, so the server
    // closes without a `Welcome`.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = encode_request(&Request::Hello { token: "sesame".into() });
    let mut frame = header(WIRE_MAGIC, WIRE_VERSION - 1, hello.len() as u32).to_vec();
    frame.extend_from_slice(&hello);
    stream.write_all(&frame).expect("write");
    let answer = read_until_server_closes(&mut stream, patience);
    assert!(answer.is_empty(), "an old-version peer must get no answer, got {answer:?}");

    // Forged huge length: u32::MAX (4 GiB) must be rejected before any
    // payload buffer exists — the guard runs on the decoded header, so
    // the connection dies immediately even though we sent no payload.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&header(WIRE_MAGIC, WIRE_VERSION, u32::MAX)).expect("write");
    read_until_server_closes(&mut stream, patience);

    // Truncated frame: a valid header promising 64 bytes, then EOF after
    // 10. (Shutting down our write half delivers the EOF.)
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&header(WIRE_MAGIC, WIRE_VERSION, 64)).expect("write");
    stream.write_all(&[0u8; 10]).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    read_until_server_closes(&mut stream, patience);

    // Bad token: rejected by the handshake, connection closed.
    match ServiceClient::connect_tcp(addr, Some("wrong")) {
        Err(ClientError::Rejected(reason)) => assert!(reason.contains("token"), "{reason}"),
        other => panic!("bad token must be rejected, got {other:?}"),
    }

    // Skipping the handshake entirely: the first real request is refused
    // and the connection closed. (`connect_tcp` always greets, so this
    // peer speaks raw frames.)
    let mut stream = TcpStream::connect(addr).expect("connect");
    let metrics_req = encode_request(&Request::Metrics);
    let mut frame = header(WIRE_MAGIC, WIRE_VERSION, metrics_req.len() as u32).to_vec();
    frame.extend_from_slice(&metrics_req);
    stream.write_all(&frame).expect("write");
    let answer = read_until_server_closes(&mut stream, patience);
    assert!(!answer.is_empty(), "the refusal itself is answered before the close");

    // Slow-loris: one byte of a valid header every 100 ms never finishes
    // a frame inside the 400 ms budget; the server must cut us off
    // rather than pin a handler thread.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let loris = header(WIRE_MAGIC, WIRE_VERSION, 4);
    let mut cut_off = false;
    for byte in loris {
        if stream.write_all(&[byte]).is_err() {
            cut_off = true; // server already closed on us mid-trickle
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if !cut_off {
        read_until_server_closes(&mut stream, patience);
    }

    // Half-open / silent peer: connect and say nothing; the per-read
    // idle timeout must release the handler.
    let mut stream = TcpStream::connect(addr).expect("connect");
    read_until_server_closes(&mut stream, patience);

    // The daemon survived all of it: a well-behaved authed client gets a
    // bit-identical compile, and the counters saw the abuse.
    let mut client = ServiceClient::connect_tcp(addr, Some("sesame")).expect("good token");
    let config = CompilerConfig::default();
    let circuit = qft(10);
    let job = client
        .submit(&RemoteRequest::new("G-2x2", circuit.clone(), CompilerKind::SSync, config))
        .expect("submit");
    let remote = client.wait(job).expect("wait").expect("compiles");
    let device = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "after the abuse");

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.rejected_unauthorized, 2, "bad token + missing handshake");
    assert!(
        metrics.conns_timed_out >= 2,
        "slow-loris and the silent peer both timed out, got {}",
        metrics.conns_timed_out
    );

    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("server thread").expect("serve_tcp exits cleanly");
}

/// Overload shedding degrades by priority — Batch first, High last — and
/// the client's backoff loop turns a shed Batch submit into an eventual
/// success once the backlog drains. Accepted work compiles bit-identically
/// to `compile_on` even while the service is saturated.
#[test]
fn overload_sheds_batch_first_and_backoff_recovers() {
    let service = Arc::new(CompileService::with_workers(1));
    let config = CompilerConfig::default();
    // Saturate the one worker through the in-process API (which bypasses
    // front-end admission): the largest circuit goes first so the worker
    // claims a long-running job and the queue depth stays put while the
    // loopback round trips below happen. 14 submissions, 1 claimed →
    // depth 13.
    let device = service.registry().get_or_build_named("G-2x3", config.weights).unwrap();
    for n in (20..34).rev() {
        service.submit(ssync_service::CompileRequest::new(
            Arc::clone(&device),
            Arc::new(qft(n)),
            CompilerKind::SSync,
            config,
        ));
    }
    // Watermark 16: Batch sheds at depth >= 8, Normal at >= 12, High at
    // >= 16. Depth starts at 13 and decays one completed compile at a
    // time, so Batch/Normal shed and High passes for the whole window.
    let (addr, server) = start_tcp_front(
        &service,
        FrontConfig { queue_watermark: Some(16), retry_after_ms: 25, ..FrontConfig::default() },
    );
    let mut client = ServiceClient::connect_tcp(addr, None).expect("connect");
    let submit_at = |client: &mut ServiceClient, priority: Priority, n: usize| {
        client.submit(
            &RemoteRequest::new("G-2x2", qft(n), CompilerKind::SSync, config)
                .with_priority(priority)
                .with_tenant(TenantId::from_name("overload")),
        )
    };

    match submit_at(&mut client, Priority::Normal, 10) {
        Err(ClientError::Overloaded { retry_after_ms: 25 }) => {}
        other => panic!("Normal must shed under a 13-deep queue, got {other:?}"),
    }
    match submit_at(&mut client, Priority::Batch, 11) {
        Err(ClientError::Overloaded { .. }) => {}
        other => panic!("Batch must shed under a 13-deep queue, got {other:?}"),
    }
    let high = submit_at(&mut client, Priority::High, 12).expect("High degrades last");
    let remote = client.wait(high).expect("wait").expect("compiles");
    let g2x2 = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&g2x2, &qft(12), &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "High-priority work under overload");

    // The backoff contract: the shed Batch request retries (never earlier
    // than the server's 25 ms hint) until the backlog drains below the
    // Batch threshold, then lands.
    let policy = BackoffPolicy::default().with_deadline(Duration::from_secs(120));
    let batch = client
        .submit_with_backoff(
            &RemoteRequest::new("G-2x2", qft(11), CompilerKind::SSync, config)
                .with_priority(Priority::Batch),
            &policy,
        )
        .expect("backoff eventually lands");
    client.wait(batch.job).expect("wait").expect("compiles");

    let metrics = client.metrics().expect("metrics");
    assert!(metrics.rejected_overloaded >= 3, "got {}", metrics.rejected_overloaded);

    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("server thread").expect("serve_tcp exits cleanly");
}

/// The drain path: a `Shutdown` from one connection stops admission
/// everywhere, but jobs already in flight finish and their results stay
/// collectable until each peer disconnects; `serve_tcp` then returns.
#[test]
fn drain_finishes_inflight_work_and_refuses_new_work() {
    let service = Arc::new(CompileService::with_workers(1));
    let config = CompilerConfig::default();
    let (addr, server) = start_tcp_front(&service, FrontConfig::default());

    let mut worker_client = ServiceClient::connect_tcp(addr, None).expect("connect A");
    let job = worker_client
        .submit(&RemoteRequest::new("G-2x3", qft(18), CompilerKind::SSync, config))
        .expect("submit before drain");

    let mut admin = ServiceClient::connect_tcp(addr, None).expect("connect B");
    admin.shutdown().expect("shutdown");
    drop(admin);

    // New work on the surviving connection is refused...
    match worker_client.submit(&RemoteRequest::new("G-2x3", qft(6), CompilerKind::SSync, config)) {
        Err(ClientError::Rejected(reason)) => assert!(reason.contains("draining"), "{reason}"),
        other => panic!("a draining service must reject, got {other:?}"),
    }
    // ...but the in-flight job still delivers its result.
    let remote = worker_client.wait(job).expect("wait").expect("compiles");
    let device = Device::build(QccdTopology::named("G-2x3").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &qft(18), &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "in-flight work across a drain");

    drop(worker_client);
    server.join().expect("server thread").expect("serve_tcp drains cleanly");
}

/// Two live daemons sharing one `--cache-dir` concurrently: every result
/// is bit-identical to direct compilation (no torn files served), and the
/// directory ends with only whole `.outcome` files — the atomic
/// tmp+rename discipline leaves no temporaries behind. A third, cold
/// daemon then serves the whole set from disk without running a single
/// compile, which would be impossible if either writer had corrupted the
/// other's files.
#[test]
fn two_daemons_share_one_cache_dir_without_tearing() {
    let dir = TempPath::dir("ssync-shared-cache");
    let dir_arg = dir.to_str().unwrap().to_string();
    let config = CompilerConfig::default();
    let sizes: Vec<usize> = (8..14).collect();

    let spawn_daemon = |dir_arg: &str| {
        let mut child = Daemon::spawn(
            Command::new(DAEMON)
                .args(["--stdio", "--workers", "2", "--cache-dir", dir_arg])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null()),
        );
        let writer = child.stdin.take().expect("piped stdin");
        let reader = child.stdout.take().expect("piped stdout");
        (child, ServiceClient::over(reader, writer))
    };

    // Both daemons compile the same workload at the same time, racing
    // their write-throughs into the shared directory.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let dir_arg = dir_arg.clone();
            let sizes = sizes.clone();
            std::thread::spawn(move || {
                let (mut child, mut client) = spawn_daemon(&dir_arg);
                let outcomes: Vec<CompileOutcome> = sizes
                    .iter()
                    .map(|&n| {
                        let job = client
                            .submit(&RemoteRequest::new(
                                "G-2x2",
                                qft(n),
                                CompilerKind::SSync,
                                config,
                            ))
                            .expect("submit");
                        client.wait(job).expect("wait").expect("compiles")
                    })
                    .collect();
                client.shutdown().expect("shutdown");
                assert!(child.wait().expect("daemon exits").success());
                outcomes
            })
        })
        .collect();
    // Join both before either failure surfaces, so no daemon still writes
    // into the directory when its guard removes it.
    let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
    let results: Vec<Vec<CompileOutcome>> =
        joined.into_iter().map(|r| r.expect("worker thread")).collect();

    // Bit-identical across daemons and against direct compilation.
    let device = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    for (i, &n) in sizes.iter().enumerate() {
        let direct = CompilerKind::SSync.compile_on(&device, &qft(n), &config).expect("compiles");
        assert_bit_identical(&direct, &results[0][i], &format!("daemon A, qft({n})"));
        assert_bit_identical(&direct, &results[1][i], &format!("daemon B, qft({n})"));
    }

    // No torn or temporary files survive: only `.outcome` files, one per
    // distinct circuit.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8 name"))
        .collect();
    for name in &entries {
        assert!(name.ends_with(".outcome"), "unexpected file in shared cache dir: {name}");
        assert!(!name.starts_with('.'), "leftover temporary in shared cache dir: {name}");
    }
    assert_eq!(entries.len(), sizes.len(), "one whole file per distinct compile: {entries:?}");

    // A cold daemon replays everything from disk — zero compiles — which
    // requires every shared file to be whole and decodable.
    let (mut child, mut client) = spawn_daemon(&dir_arg);
    for &n in &sizes {
        let job = client
            .submit(&RemoteRequest::new("G-2x2", qft(n), CompilerKind::SSync, config))
            .expect("submit");
        let replayed = client.wait(job).expect("wait").expect("compiles");
        let direct = CompilerKind::SSync.compile_on(&device, &qft(n), &config).expect("compiles");
        assert_bit_identical(&direct, &replayed, &format!("cold replay, qft({n})"));
    }
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.jobs_executed(), 0, "cold daemon compiled nothing");
    assert_eq!(metrics.cache.persist_hits as usize, sizes.len());
    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("daemon exits").success());
}

/// The daemon binary's TCP leg end-to-end: `--tcp 127.0.0.1:0` with an
/// auth token and `--port-file` discovery, a compile bit-identical to
/// direct, the janitor ticking in the background, and a clean drain on
/// `Shutdown`.
#[test]
fn daemon_tcp_transport_round_trips_with_auth_and_janitor() {
    let dir = TempPath::dir("ssync-tcp-daemon");
    let port_file = dir.join("port");
    let cache_dir = dir.join("cache");

    let mut child = Daemon::spawn(
        Command::new(DAEMON)
            .args(["--tcp", "127.0.0.1:0", "--workers", "1"])
            .args(["--auth-token", "hunter2"])
            .args(["--port-file", port_file.to_str().unwrap()])
            .args(["--cache-dir", cache_dir.to_str().unwrap()])
            .args(["--cache-dir-max-bytes", "1048576"])
            .args(["--janitor-interval-secs", "1"])
            .stderr(Stdio::null()),
    );

    // Discover the OS-assigned port.
    let mut addr = None;
    for _ in 0..500 {
        if let Ok(contents) = std::fs::read_to_string(&port_file) {
            addr = Some(contents.trim().to_string());
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let addr = addr.expect("daemon published its port within 5s");

    // The wrong token is turned away; the right one compiles.
    assert!(
        ServiceClient::connect_tcp(addr.as_str(), Some("wrong")).is_err(),
        "wrong token must not connect"
    );
    let mut client = ServiceClient::connect_tcp(addr.as_str(), Some("hunter2")).expect("connect");
    let config = CompilerConfig::default();
    let circuit = qft(10);
    let job = client
        .submit(&RemoteRequest::new("G-2x2", circuit.clone(), CompilerKind::SSync, config))
        .expect("submit");
    let remote = client.wait(job).expect("wait").expect("compiles");
    let device = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "daemon tcp round trip");

    // The janitor ticks in the background; its first run comes one
    // interval after start-up.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        let metrics = client.metrics().expect("metrics");
        if metrics.janitor_gc_runs >= 1 {
            break metrics;
        }
        assert!(std::time::Instant::now() < deadline, "the janitor never ran");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(metrics.rejected_unauthorized, 1);

    client.shutdown().expect("shutdown");
    drop(client);
    assert!(child.wait().expect("daemon exits").success(), "clean drain");
}

/// A 6 KB QASM `Submit` nesting 3,000 parentheses would recurse past the
/// 2 MiB stack of the daemon's connection thread; a stack overflow
/// aborts the whole process and breaks every other tenant's connection.
/// Forty gate definitions that each apply the previous one twice would
/// expand to 2^39 gates. The parser's nesting and gate-count caps turn
/// each into a `Rejected` for that connection alone: a tenant connected
/// beforehand is still served, bit-identically.
#[test]
fn deeply_nested_qasm_is_rejected_and_the_daemon_keeps_serving() {
    let dir = TempPath::dir("ssync-nested-qasm");
    let port_file = dir.join("port");
    let mut child = Daemon::spawn(
        Command::new(DAEMON)
            .args(["--tcp", "127.0.0.1:0", "--workers", "1"])
            .args(["--port-file", port_file.to_str().unwrap()])
            .stderr(Stdio::null()),
    );
    let mut addr = None;
    for _ in 0..500 {
        if let Ok(contents) = std::fs::read_to_string(&port_file) {
            addr = Some(contents.trim().to_string());
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let addr = addr.expect("daemon published its port within 5s");

    let config = CompilerConfig::default();
    let mut bystander = ServiceClient::connect_tcp(addr.as_str(), None).expect("connect");
    let mut hostile = ServiceClient::connect_tcp(addr.as_str(), None).expect("connect");
    let nested =
        format!("OPENQASM 2.0;\nqreg q[1];\nrz({}1{}) q[0];\n", "(".repeat(3000), ")".repeat(3000));
    let doubling: String =
        (1..40).map(|i| format!("gate g{i} a {{ g{0} a; g{0} a; }}\n", i - 1)).collect();
    let doubling =
        format!("OPENQASM 2.0;\nqreg q[1];\ngate g0 a {{ id a; }}\n{doubling}g39 q[0];\n");
    for (source, expected) in [
        (nested, "3:132: expression nesting depth exceeds the limit"),
        (doubling, "43:1: gate count exceeds the limit"),
    ] {
        let request = RemoteRequest::new("G-2x2", source, CompilerKind::SSync, config);
        match hostile.submit(&request) {
            Err(ClientError::Rejected(reason)) => assert!(reason.contains(expected), "{reason}"),
            other => panic!("{expected}: the QASM must be rejected, got {other:?}"),
        }
    }

    let circuit = qft(6);
    let source = ssync_qasm::export(&circuit);
    let job = bystander
        .submit(&RemoteRequest::new("G-2x2", source, CompilerKind::SSync, config))
        .expect("the daemon is still up");
    let remote = bystander.wait(job).expect("wait").expect("compiles");
    let device = Device::build(QccdTopology::named("G-2x2").unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
    assert_bit_identical(&direct, &remote, "after the hostile submissions");

    bystander.shutdown().expect("shutdown");
    drop((bystander, hostile));
    assert!(child.wait().expect("daemon exits").success(), "clean drain");
}
