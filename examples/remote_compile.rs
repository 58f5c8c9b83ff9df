//! Compile a circuit through the `ssync-serviced` IPC front-end.
//!
//! Spawns the daemon as a child process in `--stdio` mode, speaks the
//! length-prefixed wire protocol through `ssync_service::client`, and
//! verifies the remote outcome is **bit-identical** to compiling directly
//! in-process with `compile_on` — the whole point of the service layer:
//! it changes where a compile runs, never what it produces. A second leg
//! restarts the daemon as a hardened TCP listener (`--tcp 127.0.0.1:0`
//! with an auth token and `--port-file` discovery) and repeats the proof
//! over a real socket with the retrying `submit_with_backoff` client.
//!
//! QFT-24 does not fit in one of G-2x3's traps, so the outcome is a routed
//! program with shuttles, SWAPs and reorders. The QASM resubmission of the
//! same circuit is a cache hit: the daemon answers with the bytes it
//! stored for the first compile, and they decode to the same outcome.
//!
//! ```sh
//! cargo run --release -p ssync-examples --bin remote_compile
//! ```
//!
//! The daemon binary is located next to this example (cargo puts every
//! workspace binary in the same target directory); set `SSYNC_SERVICED`
//! to point elsewhere.

use ssync_arch::{Device, QccdTopology};
use ssync_baselines::CompilerKind;
use ssync_circuit::generators::qft;
use ssync_core::CompilerConfig;
use ssync_service::client::ServiceClient;
use ssync_service::wire::{RemoteQasmRequest, RemoteRequest};
use ssync_service::{Priority, TenantId};
use std::process::{Command, Stdio};

fn daemon_path() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("SSYNC_SERVICED") {
        return path.into();
    }
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name("ssync-serviced");
    path
}

fn main() {
    let daemon = daemon_path();
    let mut child = Command::new(&daemon)
        .args(["--stdio", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            panic!(
                "failed to spawn {} ({e}); build it first with \
                 `cargo build -p ssync-service` or set SSYNC_SERVICED",
                daemon.display()
            )
        });
    let mut client = ServiceClient::over(
        child.stdout.take().expect("piped stdout"),
        child.stdin.take().expect("piped stdin"),
    );

    let config = CompilerConfig::default();
    let circuit = qft(24);
    let device_name = "G-2x3";
    println!("compiling {} on {device_name} through {}", circuit.name(), daemon.display());

    let job = client
        .submit(
            &RemoteRequest::new(device_name, circuit.clone(), CompilerKind::SSync, config)
                .with_priority(Priority::High)
                .with_tenant(TenantId::from_name("remote-example")),
        )
        .expect("submit over the wire");
    let remote = client.wait(job).expect("wait over the wire").expect("compiles");

    // The ground truth: the same compile, directly in this process.
    let device = Device::build(QccdTopology::named(device_name).unwrap(), config.weights);
    let direct = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");

    assert_eq!(direct.program().ops(), remote.program().ops(), "op streams must match");
    assert_eq!(direct.final_placement(), remote.final_placement(), "placements must match");
    assert_eq!(
        direct.report().success_rate.to_bits(),
        remote.report().success_rate.to_bits(),
        "reports must match bit-for-bit"
    );

    let counts = remote.counts();
    println!(
        "remote outcome: {} shuttles, {} swaps, {} reorders",
        counts.shuttles, counts.swap_gates, counts.reorders
    );
    assert!(
        counts.shuttles > 0 && counts.swap_gates > 0 && counts.reorders > 0,
        "the example must route a program that shuttles, swaps and reorders"
    );
    println!("  success rate {:.4}", remote.report().success_rate);
    println!("  bit-identical to direct compile_on: yes");

    // The QASM path: ship raw OpenQASM 2.0 source text and let
    // the daemon parse + lower + compile it. Proven bit-identical to
    // parsing locally and compiling in-process.
    let source = ssync_qasm::export(&circuit);
    println!("re-submitting {} as {} bytes of OpenQASM 2.0 source", circuit.name(), source.len());
    let (job, report) = client
        .submit_qasm(
            &RemoteQasmRequest::new(device_name, source.clone(), CompilerKind::SSync, config)
                .with_tenant(TenantId::from_name("remote-example")),
        )
        .expect("submit qasm over the wire");
    assert!(!report.stripped_anything(), "an exported circuit strips nothing");
    let from_qasm = client.wait(job).expect("wait over the wire").expect("compiles");
    let local_parse = ssync_qasm::parse(&source).expect("parses locally").circuit;
    let direct_qasm =
        CompilerKind::SSync.compile_on(&device, &local_parse, &config).expect("compiles");
    assert_eq!(
        direct_qasm.program().ops(),
        from_qasm.program().ops(),
        "qasm path must match local parse + compile_on"
    );
    assert_eq!(direct_qasm.final_placement(), from_qasm.final_placement());
    assert_eq!(
        direct_qasm.report().success_rate.to_bits(),
        from_qasm.report().success_rate.to_bits()
    );
    println!("  daemon-parsed QASM bit-identical to local parse + compile_on: yes");

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.cache.hits, 1, "the QASM resubmission is served from the stored bytes");
    println!(
        "  served from the cache: {} stored bytes for {} ops",
        metrics.cache.bytes,
        from_qasm.program().len()
    );
    println!(
        "daemon metrics: {} submitted / {} completed, {} high-priority",
        metrics.jobs_submitted,
        metrics.jobs_completed,
        metrics.submitted_at(Priority::High)
    );

    client.shutdown().expect("shutdown");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exits cleanly");
    println!("daemon shut down cleanly");

    // ---- The TCP leg: same conversation, hardened network transport ----
    let dir = std::env::temp_dir().join(format!("ssync-remote-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let port_file = dir.join("port");
    let mut child = Command::new(&daemon)
        .args(["--tcp", "127.0.0.1:0", "--workers", "2"])
        .args(["--auth-token", "example-secret"])
        .args(["--port-file", port_file.to_str().unwrap()])
        .spawn()
        .expect("spawn tcp daemon");
    let mut addr = None;
    for _ in 0..500 {
        if let Ok(contents) = std::fs::read_to_string(&port_file) {
            addr = Some(contents.trim().to_string());
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let addr = addr.expect("daemon published its port within 5s");
    println!("daemon listening on tcp://{addr} (token-authenticated)");

    let mut client =
        ServiceClient::connect_tcp(addr.as_str(), Some("example-secret")).expect("handshake");
    // submit_with_backoff is the production call: on an `Overloaded`
    // shed or a dropped connection it backs off (honouring the server's
    // retry hint) and transparently reconnects. Against this idle daemon
    // it simply succeeds on the first attempt.
    let job = client
        .submit_with_backoff(
            &RemoteRequest::new(device_name, circuit.clone(), CompilerKind::SSync, config)
                .with_tenant(TenantId::from_name("remote-example")),
            &ssync_service::BackoffPolicy::default(),
        )
        .expect("submit over tcp");
    let over_tcp = client.wait(job).expect("wait over tcp").expect("compiles");
    assert_eq!(direct.program().ops(), over_tcp.program().ops(), "tcp leg must match");
    assert_eq!(direct.final_placement(), over_tcp.final_placement());
    println!("  tcp outcome bit-identical to direct compile_on: yes");

    client.shutdown().expect("shutdown");
    drop(client);
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "tcp daemon drains cleanly");
    let _ = std::fs::remove_dir_all(&dir);
    println!("tcp daemon drained cleanly");
}
