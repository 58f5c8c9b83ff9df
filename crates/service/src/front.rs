//! The `ssync-serviced` server loop: drives a [`CompileService`] from
//! [`wire`](crate::wire) frames.
//!
//! Three transports, same conversation:
//!
//! * **stdio** ([`serve_stdio`]) — one session over the process's
//!   stdin/stdout, for a supervisor that spawns the daemon as a child
//!   (the `examples/remote_compile.rs` pattern). The daemon exits on EOF
//!   or an explicit `Shutdown`.
//! * **Unix domain socket** ([`serve_unix`]) — a listener accepting any
//!   number of concurrent connections, one handler thread each, all
//!   sharing the one service (and therefore its registry, cache and
//!   worker pool). A `Shutdown` from any connection stops the daemon.
//! * **TCP** ([`serve_tcp`]) — the same thread-per-connection loop over a
//!   [`std::net::TcpListener`], hardened for untrusted networks by a
//!   [`FrontConfig`]: a shared-token `Hello` handshake, per-read and
//!   whole-frame timeouts, and **admission control**.
//!
//! ## Admission control and load shedding
//!
//! A hardened front-end must fail *predictably* under overload instead of
//! queueing unboundedly. [`FrontConfig`] draws three lines, each checked
//! at submission time (never mid-flight):
//!
//! * `max_inflight_per_conn` — outstanding (undelivered) jobs one
//!   connection may hold;
//! * `max_inflight_per_tenant` — the same bound per [`TenantId`], summed
//!   across every connection on the listener;
//! * `queue_watermark` — a global queue-depth ceiling, scaled per
//!   priority by [`Priority::admission_threshold`] so `Batch` work sheds
//!   at half the watermark, `Normal` at three quarters and `High` only at
//!   the full mark: bulk traffic degrades first, interactive traffic
//!   last.
//!
//! A shed request is answered with
//! `CompileFailed(CompileError::Overloaded { retry_after_ms })` — the
//! request never entered a queue, and the hint tells a well-behaved
//! client (see `ServiceClient::submit_with_backoff`) when to retry.
//!
//! ## Drain
//!
//! A `Shutdown` request flips the listener into **drain** mode: the
//! accept loop stops taking connections, every later submission on a
//! surviving connection is `Rejected`, in-flight jobs run to completion
//! and their results remain collectable until each peer disconnects.
//! [`serve_tcp`] returns once the last handler exits, so the daemon can
//! flush a final metrics snapshot before the process ends.
//!
//! The front-end is otherwise a thin adapter: every `Submit` (of QASM
//! source parsed here first, or of a circuit) becomes a
//! [`CompileService::submit`] and the returned [`JobHandle`] is parked in
//! a per-connection table keyed by a per-connection job id. `Wait` blocks
//! only the requesting connection's thread — the pool keeps draining
//! other work meanwhile.

use crate::job::{CompileRequest, JobHandle, Priority, TenantId};
use crate::pool::CompileService;
use crate::telemetry::{render_text, Stage};
use crate::wire::{
    decode_request, encode_response, read_frame_deadline, write_frame, Input, RemoteRequest,
    Request, Response, WIRE_VERSION,
};
use ssync_core::CompileError;
use ssync_telemetry::Span;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hardening knobs for a network-facing listener. The default
/// configuration is fully permissive (no auth, no timeouts, no caps) —
/// exactly the historical stdio/Unix-socket behaviour, which serves
/// trusted supervisors on the same machine.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Shared secret a TCP peer must present in a `Hello` frame before
    /// any other request. `None` disables the handshake requirement
    /// (a `Hello` is then still answered with `Welcome`, so clients can
    /// probe the protocol version).
    pub auth_token: Option<String>,
    /// Per-read socket timeout ([`TcpStream::set_read_timeout`]): an
    /// idle or half-open peer releases its handler thread after this
    /// long. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Whole-frame time budget (see
    /// [`read_frame_deadline`]): once a
    /// frame's first byte arrives, the rest must arrive within the
    /// budget. This is the slow-loris defence — a per-read timeout alone
    /// resets on every trickled byte.
    pub frame_budget: Option<Duration>,
    /// Maximum outstanding (submitted, not yet delivered) jobs per
    /// connection.
    pub max_inflight_per_conn: Option<usize>,
    /// Maximum outstanding jobs per tenant, summed across all of the
    /// listener's connections.
    pub max_inflight_per_tenant: Option<usize>,
    /// Queue-depth watermark for load shedding, scaled per priority by
    /// [`Priority::admission_threshold`].
    pub queue_watermark: Option<usize>,
    /// The advisory back-off carried inside
    /// [`CompileError::Overloaded`] rejections, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            auth_token: None,
            read_timeout: None,
            frame_budget: None,
            max_inflight_per_conn: None,
            max_inflight_per_tenant: None,
            queue_watermark: None,
            retry_after_ms: 50,
        }
    }
}

/// Listener-wide admission state shared by every connection: the config,
/// the cross-connection per-tenant in-flight counts, and the drain flag.
struct Gate {
    config: FrontConfig,
    tenant_inflight: Mutex<HashMap<TenantId, usize>>,
    draining: AtomicBool,
}

impl Gate {
    fn new(config: FrontConfig) -> Arc<Self> {
        Arc::new(Gate {
            config,
            tenant_inflight: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
        })
    }

    /// Takes one of `tenant`'s in-flight slots unless it already holds
    /// `cap`; the check and the take share one lock hold, so concurrent
    /// connections of one tenant cannot both pass at `cap - 1`.
    fn try_acquire_tenant(&self, tenant: TenantId, cap: Option<usize>) -> bool {
        let mut tenants = self.tenant_inflight.lock().expect("gate lock");
        let held = tenants.get(&tenant).copied().unwrap_or(0);
        if cap.is_some_and(|cap| held >= cap) {
            return false;
        }
        tenants.insert(tenant, held + 1);
        true
    }

    fn release_tenant(&self, tenant: TenantId) {
        let mut tenants = self.tenant_inflight.lock().expect("gate lock");
        if let Some(count) = tenants.get_mut(&tenant) {
            *count -= 1;
            if *count == 0 {
                tenants.remove(&tenant);
            }
        }
    }
}

/// What the session loop should do after writing a response.
enum Control {
    /// Keep reading frames.
    Continue,
    /// The peer asked the daemon to shut down.
    Shutdown,
    /// Close this connection (auth failure) without stopping the daemon.
    Close,
}

/// Per-connection state: the handles of every job this peer submitted
/// (with the tenant each was attributed to, for gate release, and its
/// trace span, for the delivery event) and whether the peer has
/// authenticated.
struct Session {
    gate: Arc<Gate>,
    jobs: HashMap<u64, (JobHandle, TenantId, Span)>,
    next_id: u64,
    authed: bool,
    /// The span of a job whose terminal result the response being
    /// written delivers; the session loop records the write as a
    /// `delivery` event on it after the frame goes out.
    delivered: Option<Span>,
}

impl Session {
    fn new(gate: Arc<Gate>) -> Self {
        let authed = gate.config.auth_token.is_none();
        Session { gate, jobs: HashMap::new(), next_id: 0, authed, delivered: None }
    }

    /// Queues one request. QASM source is parsed here first, after the
    /// trace starts, so the parse stage lands on the same timeline as
    /// queueing and compiling; a parse failure is `Rejected` with the
    /// `line:col` diagnostic a local `ssync_qasm::parse` would give, and
    /// acceptance carries the lowering's `ParseReport`. Then the
    /// admission gate, the device, and the tenant's in-flight slot,
    /// taken last so that no refusal holds one.
    fn submit(&mut self, service: &CompileService, remote: RemoteRequest) -> Response {
        let RemoteRequest { device, input, compiler, config, priority, tenant, deadline_us } =
            remote;
        let span = service.telemetry().begin_trace();
        let (circuit, report) = match input {
            Input::Circuit(circuit) => (circuit, None),
            Input::Qasm(source) => {
                let parse_started = Instant::now();
                let parsed = match ssync_qasm::parse(&source) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        return Response::Rejected { reason: format!("qasm parse error: {e}") }
                    }
                };
                let parse_time = parse_started.elapsed();
                service.telemetry().stage(&span, Stage::Parse, priority, compiler, parse_time);
                (parsed.circuit, Some(parsed.report))
            }
        };
        if let Some(refusal) = self.admit(service, priority) {
            return refusal;
        }
        let Some(device) = service.registry().get_or_build_named(&device, config.weights) else {
            return Response::Rejected { reason: format!("unknown device '{device}'") };
        };
        if !self.gate.try_acquire_tenant(tenant, self.gate.config.max_inflight_per_tenant) {
            return self.overloaded(service);
        }
        let mut request = CompileRequest::new(device, Arc::new(circuit), compiler, config)
            .with_priority(priority)
            .with_tenant(tenant);
        request.deadline_us = deadline_us;
        let trace_id = span.trace_id();
        let handle = service.submit_with_span(request, span.clone());
        let job = self.next_id;
        self.next_id += 1;
        self.jobs.insert(job, (handle, tenant, span));
        Response::Submitted { job, trace_id, report }
    }

    /// Checks the admission gate's draining flag, per-connection cap and
    /// queue watermark; `Some(response)` means the request is refused
    /// before touching the pool. Draining refusals are permanent
    /// (`Rejected`), capacity refusals are transient (`Overloaded` with a
    /// retry hint). The per-tenant cap is checked as its slot is taken.
    fn admit(&self, service: &CompileService, priority: Priority) -> Option<Response> {
        if self.gate.draining.load(Ordering::SeqCst) {
            return Some(Response::Rejected {
                reason: "service is draining and not accepting new work".into(),
            });
        }
        let config = &self.gate.config;
        let conn_full = config.max_inflight_per_conn.is_some_and(|cap| self.jobs.len() >= cap);
        let queue_full = config
            .queue_watermark
            .is_some_and(|mark| service.queue_depth() >= priority.admission_threshold(mark));
        (conn_full || queue_full).then(|| self.overloaded(service))
    }

    /// A transient capacity refusal, counted in `rejected_overloaded`.
    fn overloaded(&self, service: &CompileService) -> Response {
        service.note_rejected_overloaded();
        Response::CompileFailed(CompileError::Overloaded {
            retry_after_ms: self.gate.config.retry_after_ms,
        })
    }

    /// Consumes `job`: keeps its span for the delivery event, blocks until
    /// the result is settled and only then returns its tenant's in-flight
    /// slot, so a job counts against the tenant cap until it is done. An
    /// outcome goes out as its stored bytes, never decoded or encoded
    /// here.
    fn wait(&mut self, job: u64) -> Response {
        let Some((handle, tenant, span)) = self.jobs.remove(&job) else {
            return Response::Rejected { reason: format!("unknown job id {job}") };
        };
        self.delivered = Some(span);
        let result = handle.wait_encoded();
        self.gate.release_tenant(tenant);
        match result {
            Ok(outcome) => Response::Outcome(outcome),
            Err(error) => Response::CompileFailed(error),
        }
    }

    /// Handles one request; the control value says whether to keep
    /// serving, shut the daemon down, or close just this connection.
    ///
    /// A job id is *consumed* by the `Wait` that delivers its terminal
    /// result: the handle — and the outcome it pins — is dropped
    /// immediately, so a connection submitting millions of jobs holds
    /// memory proportional to its *outstanding* jobs, not its lifetime
    /// total. A later `Wait` on a consumed id is `Rejected`.
    fn handle(&mut self, service: &CompileService, request: Request) -> (Response, Control) {
        if !self.authed && !matches!(request, Request::Hello { .. }) {
            service.note_rejected_unauthorized();
            return (
                Response::Rejected {
                    reason: "authentication required: send Hello with the auth token first".into(),
                },
                Control::Close,
            );
        }
        match request {
            Request::Hello { token } => match &self.gate.config.auth_token {
                Some(expected) if *expected != token => {
                    service.note_rejected_unauthorized();
                    (Response::Rejected { reason: "bad auth token".into() }, Control::Close)
                }
                _ => {
                    self.authed = true;
                    (Response::Welcome { version: WIRE_VERSION }, Control::Continue)
                }
            },
            Request::Submit(remote) => (self.submit(service, *remote), Control::Continue),
            Request::Wait { job } => (self.wait(job), Control::Continue),
            Request::Metrics => (Response::Metrics(Box::new(service.metrics())), Control::Continue),
            Request::GetStats => (
                Response::StatsText {
                    text: render_text(&service.metrics(), &service.telemetry().snapshot()),
                },
                Control::Continue,
            ),
            Request::GetTrace { trace_id } => {
                // The journal is a bounded ring, so "unknown" covers both
                // never-assigned ids and traces old enough to have been
                // evicted — the reason says which bound applies.
                match service.telemetry().trace_detail(trace_id) {
                    Some((record, recording)) => (
                        Response::TraceDetail {
                            trace_id,
                            span_jsonl: record.to_jsonl(),
                            recorder_jsonl: recording
                                .map(|r| r.to_jsonl_lines())
                                .unwrap_or_default(),
                        },
                        Control::Continue,
                    ),
                    None => (
                        Response::Rejected {
                            reason: format!(
                                "trace {trace_id} is not in the journal (never assigned, or \
                                 evicted by the journal cap)"
                            ),
                        },
                        Control::Continue,
                    ),
                }
            }
            Request::Shutdown => {
                // Flip to draining *before* the acknowledgement is
                // written: a peer that has seen `ShuttingDown` must never
                // observe a subsequent submit being admitted.
                self.gate.draining.store(true, Ordering::SeqCst);
                (Response::ShuttingDown, Control::Shutdown)
            }
        }
    }
}

impl Drop for Session {
    /// A connection that vanishes with jobs outstanding must not leak its
    /// tenants' in-flight slots — otherwise a flapping client would
    /// ratchet its tenant towards a permanent `Overloaded`.
    fn drop(&mut self) {
        for (_, (_, tenant, _span)) in self.jobs.drain() {
            self.gate.release_tenant(tenant);
        }
    }
}

/// The session loop every transport funnels into: read a frame, decode,
/// handle, respond — under the gate's frame budget. Returns `Ok(true)` if
/// the peer asked the daemon to shut down.
fn serve_session(
    service: &CompileService,
    gate: &Arc<Gate>,
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> std::io::Result<bool> {
    let mut session = Session::new(Arc::clone(gate));
    while let Some(payload) = read_frame_deadline(reader, gate.config.frame_budget)? {
        let request = decode_request(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let (response, control) = session.handle(service, request);
        let write_started = Instant::now();
        write_frame(writer, &encode_response(&response))?;
        // A terminal result just went out: stamp the serialisation +
        // write as the trace's delivery event. The span is already
        // finished (the end-to-end histogram is unaffected); the journal
        // holds it live, so the event shows up in later trace reads.
        if let Some(span) = session.delivered.take() {
            service.telemetry().span_record(&span, "delivery", write_started.elapsed());
        }
        match control {
            Control::Continue => {}
            Control::Shutdown => return Ok(true),
            Control::Close => return Ok(false),
        }
    }
    Ok(false)
}

/// Runs one session over an arbitrary byte stream pair until EOF, a
/// `Shutdown` request, or an I/O error, with the permissive
/// [`FrontConfig::default`] (no auth, no caps, no timeouts). Returns
/// `true` if the peer asked the daemon to shut down.
///
/// # Errors
///
/// Propagates I/O failures; protocol violations (bad magic, undecodable
/// payloads) surface as `InvalidData`.
pub fn serve_connection(
    service: &CompileService,
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> std::io::Result<bool> {
    serve_session(service, &Gate::new(FrontConfig::default()), reader, writer)
}

/// Serves one session over this process's stdin/stdout (the child-process
/// transport). Returns when the peer disconnects or sends `Shutdown`.
///
/// # Errors
///
/// Propagates I/O and protocol failures from [`serve_connection`].
pub fn serve_stdio(service: &CompileService) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_connection(service, &mut reader, &mut writer)?;
    Ok(())
}

/// Joins every finished handler so a long-lived daemon doesn't retain one
/// `JoinHandle` per connection it ever served. Joining an `is_finished()`
/// thread cannot block.
fn reap(handlers: &mut Vec<std::thread::JoinHandle<()>>) {
    let mut still_running = Vec::new();
    for handler in handlers.drain(..) {
        if handler.is_finished() {
            let _ = handler.join();
        } else {
            still_running.push(handler);
        }
    }
    *handlers = still_running;
}

/// The accept loop both listeners run: one handler thread per
/// connection, all sharing `gate`, with finished handlers reaped as new
/// connections arrive. A handler whose peer sends `Shutdown` turns the
/// gate to draining, raises the stop flag and calls `wake`, whose
/// connection lets the pending `accept` return and see the flag; the loop
/// then joins every handler, so it returns once every peer is done.
fn accept_loop<S>(
    service: &Arc<CompileService>,
    gate: Arc<Gate>,
    mut accept: impl FnMut() -> std::io::Result<S>,
    wake: impl Fn() + Clone + Send + 'static,
) -> std::io::Result<()>
where
    S: Send + 'static,
    for<'a> &'a S: Read + Write,
{
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let stream = accept()?;
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection from a shutting-down handler
        }
        reap(&mut handlers);
        let service = Arc::clone(service);
        let gate = Arc::clone(&gate);
        let shutdown = Arc::clone(&shutdown);
        let wake = wake.clone();
        handlers.push(std::thread::spawn(move || {
            match serve_session(&service, &gate, &mut &stream, &mut &stream) {
                Ok(true) => {
                    // Drain: refuse new work first, then stop accepting.
                    gate.draining.store(true, Ordering::SeqCst);
                    shutdown.store(true, Ordering::SeqCst);
                    wake();
                }
                Ok(false) => {}
                Err(e) if is_timeout(&e) => service.note_conn_timed_out(),
                Err(_) => {} // protocol violation or peer reset: drop the connection
            }
        }));
    }
    for handler in handlers {
        let _ = handler.join();
    }
    Ok(())
}

/// Binds `path` (removing a stale socket file first) and serves
/// connections with the permissive [`FrontConfig::default`] until some
/// peer sends `Shutdown`. Each connection gets a handler thread; all
/// share `service`.
///
/// # Errors
///
/// Propagates bind/accept failures. Per-connection I/O errors terminate
/// only that connection.
#[cfg(unix)]
pub fn serve_unix(service: &Arc<CompileService>, path: &Path) -> std::io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};

    let _ = std::fs::remove_file(path); // stale socket from a dead daemon
    let listener = UnixListener::bind(path)?;
    let wake_path = path.to_path_buf();
    accept_loop(
        service,
        Gate::new(FrontConfig::default()),
        || listener.accept().map(|(stream, _addr)| stream),
        move || drop(UnixStream::connect(&wake_path)),
    )?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Classifies the I/O errors a per-read socket timeout produces (the
/// kind is platform-dependent) plus the frame-budget cutoff.
fn is_timeout(error: &std::io::Error) -> bool {
    matches!(error.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Serves connections from an already-bound [`TcpListener`] until some
/// authenticated peer sends `Shutdown`, applying `config`'s auth,
/// timeout and admission rules to every connection. Thread-per-connection
/// like [`serve_unix`]; all handlers share `service` and one admission
/// gate, so per-tenant caps hold across connections.
///
/// On `Shutdown` the listener **drains**: no new connections are
/// accepted, later submissions on surviving connections are `Rejected`,
/// in-flight jobs finish and stay collectable, and the call returns once
/// every handler (and therefore every peer) is done — the caller then
/// owns the final metrics flush.
///
/// Bind with port `0` to let the OS pick: `listener.local_addr()` (taken
/// before calling, or via the daemon's `--port-file`) is how peers find
/// the port.
///
/// # Errors
///
/// Propagates accept failures. Per-connection I/O errors (including
/// timeouts, which increment the `conns_timed_out` counter) terminate
/// only that connection.
pub fn serve_tcp(
    service: &Arc<CompileService>,
    listener: TcpListener,
    config: FrontConfig,
) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let read_timeout = config.read_timeout;
    accept_loop(
        service,
        Gate::new(config),
        || {
            let (stream, _peer) = listener.accept()?;
            let _ = stream.set_nodelay(true); // request/response protocol
            if read_timeout.is_some() {
                let _ = stream.set_read_timeout(read_timeout);
            }
            Ok(stream)
        },
        move || drop(TcpStream::connect(local)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_response, encode_request};
    use ssync_baselines::CompilerKind;
    use ssync_circuit::generators::qft;
    use ssync_core::CompilerConfig;

    impl Gate {
        fn tenant_inflight(&self, tenant: TenantId) -> usize {
            self.tenant_inflight.lock().expect("gate lock").get(&tenant).copied().unwrap_or(0)
        }
    }

    /// Runs a scripted conversation through `serve_session` with an
    /// explicit gate, using in-memory buffers.
    fn converse(service: &CompileService, gate: &Arc<Gate>, requests: &[Request]) -> Vec<Response> {
        let mut input = Vec::new();
        for request in requests {
            write_frame(&mut input, &encode_request(request)).expect("write");
        }
        let mut output = Vec::new();
        serve_session(service, gate, &mut std::io::Cursor::new(&input), &mut output)
            .expect("session runs");
        let mut cursor = std::io::Cursor::new(&output);
        let mut responses = Vec::new();
        while let Some(payload) = crate::wire::read_frame(&mut cursor).expect("frame") {
            responses.push(decode_response(&payload).expect("decode"));
        }
        responses
    }

    /// Drives a whole conversation through in-memory buffers — the same
    /// code path the daemon runs, without processes or sockets.
    #[test]
    fn a_buffered_session_submits_polls_and_waits() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let mut input = Vec::new();
        for request in [
            Request::Submit(Box::new(RemoteRequest::new(
                "G-2x2",
                qft(10),
                CompilerKind::SSync,
                config,
            ))),
            Request::Wait { job: 0 },
            Request::Wait { job: 0 },
            Request::Wait { job: 99 },
            Request::Metrics,
            Request::Submit(Box::new(RemoteRequest::new(
                "no-such-device",
                qft(4),
                CompilerKind::SSync,
                config,
            ))),
            Request::Shutdown,
        ] {
            write_frame(&mut input, &encode_request(&request)).expect("write");
        }

        let mut output = Vec::new();
        let asked_shutdown =
            serve_connection(&service, &mut std::io::Cursor::new(&input), &mut output)
                .expect("session runs");
        assert!(asked_shutdown);

        let mut cursor = std::io::Cursor::new(&output);
        let mut responses = Vec::new();
        while let Some(payload) = crate::wire::read_frame(&mut cursor).expect("frame") {
            responses.push(decode_response(&payload).expect("decode"));
        }
        assert_eq!(responses.len(), 7);
        assert!(matches!(responses[0], Response::Submitted { job: 0, .. }));
        let Response::Outcome(outcome) = &responses[1] else {
            panic!("wait must return the outcome, got {:?}", responses[1]);
        };
        assert_eq!(outcome.decode().counts().two_qubit_gates, 90);
        // Wait consumed job id 0, so a later wait is rejected (the daemon
        // must not retain delivered outcomes per-connection forever).
        assert!(matches!(&responses[2], Response::Rejected { .. }), "consumed job id");
        assert!(matches!(&responses[3], Response::Rejected { .. }), "unknown job id");
        let Response::Metrics(metrics) = &responses[4] else {
            panic!("metrics response expected");
        };
        assert_eq!(metrics.jobs_submitted, 1);
        assert!(matches!(&responses[5], Response::Rejected { .. }), "unknown device");
        assert!(matches!(&responses[6], Response::ShuttingDown));
    }

    /// The QASM ingestion path through the same buffered session: QASM
    /// source in, a compiled outcome identical to the local parse +
    /// submit path out, and a parse failure surfacing as `Rejected` with
    /// the line:column diagnostic.
    #[test]
    fn a_buffered_session_ingests_qasm_source() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let circuit = qft(10);
        let source = ssync_qasm::export(&circuit);
        let mut input = Vec::new();
        for request in [
            Request::Submit(Box::new(RemoteRequest::new(
                "G-2x2",
                source.clone(),
                CompilerKind::SSync,
                config,
            ))),
            Request::Wait { job: 0 },
            Request::Submit(Box::new(RemoteRequest::new(
                "G-2x2",
                "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n",
                CompilerKind::SSync,
                config,
            ))),
            Request::Shutdown,
        ] {
            write_frame(&mut input, &encode_request(&request)).expect("write");
        }

        let mut output = Vec::new();
        serve_connection(&service, &mut std::io::Cursor::new(&input), &mut output)
            .expect("session runs");
        let mut cursor = std::io::Cursor::new(&output);
        let mut responses = Vec::new();
        while let Some(payload) = crate::wire::read_frame(&mut cursor).expect("frame") {
            responses.push(decode_response(&payload).expect("decode"));
        }
        let Response::Submitted { job: 0, report: Some(report), .. } = &responses[0] else {
            panic!("expected Submitted with a parse report, got {:?}", responses[0]);
        };
        assert!(!report.stripped_anything(), "an exported circuit strips nothing");
        let Response::Outcome(remote) = &responses[1] else {
            panic!("wait must return the outcome, got {:?}", responses[1]);
        };
        let remote = remote.decode();
        // Identical to parsing locally and compiling in-process.
        let direct = service
            .submit(crate::CompileRequest::new(
                service.registry().get_or_build_named("G-2x2", config.weights).unwrap(),
                Arc::new(ssync_qasm::parse(&source).unwrap().circuit),
                CompilerKind::SSync,
                config,
            ))
            .wait()
            .expect("compiles");
        assert_eq!(direct.program().ops(), remote.program().ops());
        assert_eq!(direct.final_placement(), remote.final_placement());
        let Response::Rejected { reason } = &responses[2] else {
            panic!("bad qasm must be rejected, got {:?}", responses[2]);
        };
        assert!(reason.contains("qasm parse error"), "{reason}");
        assert!(reason.contains("3:1"), "diagnostic carries line:col: {reason}");
    }

    /// A circuit submit carries a deadline like a QASM submit: one that
    /// expired at submission answers `Wait` with `DeadlineExceeded`, and
    /// its acceptance carries no parse report.
    #[test]
    fn a_circuit_submit_with_an_expired_deadline_fails_with_deadline_exceeded() {
        let service = CompileService::with_workers(1);
        let responses = converse(
            &service,
            &Gate::new(FrontConfig::default()),
            &[
                Request::Submit(Box::new(
                    RemoteRequest::new(
                        "G-2x2",
                        qft(10),
                        CompilerKind::SSync,
                        CompilerConfig::default(),
                    )
                    .with_deadline_us(0),
                )),
                Request::Wait { job: 0 },
            ],
        );
        assert!(matches!(responses[0], Response::Submitted { job: 0, report: None, .. }));
        assert!(
            matches!(
                responses[1],
                Response::CompileFailed(CompileError::DeadlineExceeded { deadline_us: 0 })
            ),
            "got {:?}",
            responses[1]
        );
        assert_eq!(service.metrics().jobs_deadline_expired, 1);
    }

    /// The auth handshake: a correct token is welcomed and unlocks the
    /// session; a wrong token (or skipping `Hello` entirely) is rejected,
    /// closes the connection, and bumps `rejected_unauthorized`.
    #[test]
    fn auth_gates_the_session() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let authed_gate = || {
            Gate::new(FrontConfig { auth_token: Some("sesame".into()), ..FrontConfig::default() })
        };

        // Wrong token: rejected, and the frames after it are never served.
        let responses = converse(
            &service,
            &authed_gate(),
            &[Request::Hello { token: "guess".into() }, Request::Metrics],
        );
        assert_eq!(responses.len(), 1, "connection closes after a bad token");
        assert!(matches!(&responses[0], Response::Rejected { .. }));

        // No Hello at all: same fate.
        let responses = converse(&service, &authed_gate(), &[Request::Metrics]);
        assert_eq!(responses.len(), 1, "connection closes without a handshake");
        assert!(matches!(&responses[0], Response::Rejected { .. }));
        assert_eq!(service.metrics().rejected_unauthorized, 2);

        // The right token unlocks a normal conversation.
        let responses = converse(
            &service,
            &authed_gate(),
            &[
                Request::Hello { token: "sesame".into() },
                Request::Submit(Box::new(RemoteRequest::new(
                    "G-2x2",
                    qft(8),
                    CompilerKind::SSync,
                    config,
                ))),
                Request::Wait { job: 0 },
            ],
        );
        assert!(matches!(responses[0], Response::Welcome { version: WIRE_VERSION }));
        assert!(matches!(responses[1], Response::Submitted { job: 0, .. }));
        assert!(matches!(&responses[2], Response::Outcome(_)));

        // Without a configured token, Hello still answers Welcome (a
        // version probe) and nothing is gated.
        let responses = converse(
            &service,
            &Gate::new(FrontConfig::default()),
            &[Request::Hello { token: String::new() }, Request::Metrics],
        );
        assert!(matches!(responses[0], Response::Welcome { .. }));
        assert!(matches!(&responses[1], Response::Metrics(_)));
    }

    /// The per-connection in-flight cap: the (cap+1)-th outstanding job
    /// is shed with `Overloaded`, and delivering a result frees the slot.
    #[test]
    fn per_connection_cap_sheds_and_recovers() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let gate = Gate::new(FrontConfig {
            max_inflight_per_conn: Some(2),
            retry_after_ms: 17,
            ..FrontConfig::default()
        });
        let submit = |n: usize| {
            Request::Submit(Box::new(RemoteRequest::new(
                "G-2x2",
                qft(6 + n),
                CompilerKind::SSync,
                config,
            )))
        };
        let responses = converse(
            &service,
            &gate,
            &[
                submit(0),
                submit(1),
                submit(2), // over the cap of 2
                Request::Wait { job: 0 },
                submit(3), // slot freed by the delivery above
            ],
        );
        assert!(matches!(responses[0], Response::Submitted { job: 0, .. }));
        assert!(matches!(responses[1], Response::Submitted { job: 1, .. }));
        let Response::CompileFailed(CompileError::Overloaded { retry_after_ms }) = &responses[2]
        else {
            panic!("over-cap submit must shed, got {:?}", responses[2]);
        };
        assert_eq!(*retry_after_ms, 17, "the configured hint travels");
        assert!(matches!(&responses[3], Response::Outcome(_)));
        assert!(matches!(responses[4], Response::Submitted { job: 2, .. }));
        assert_eq!(service.metrics().rejected_overloaded, 1);
    }

    /// The per-tenant cap: a saturated tenant is shed while a different
    /// tenant passes, and a session ending (delivered or not) releases
    /// its tenants' slots on the shared gate.
    #[test]
    fn per_tenant_cap_sheds_saturated_tenants_only() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let gate =
            Gate::new(FrontConfig { max_inflight_per_tenant: Some(1), ..FrontConfig::default() });
        let sweep = TenantId::from_name("sweep");
        let submit = |n: usize, tenant: TenantId| {
            Request::Submit(Box::new(
                RemoteRequest::new("G-2x2", qft(6 + n), CompilerKind::SSync, config)
                    .with_tenant(tenant),
            ))
        };
        let refused = |device: &str, input: Input| {
            Request::Submit(Box::new(
                RemoteRequest::new(device, input, CompilerKind::SSync, config).with_tenant(sweep),
            ))
        };
        // Refused requests take no slot: sweep's unknown device and bad
        // QASM leave room for its first job. The cap binds within one
        // session: sweep's second undelivered job is shed while a
        // different tenant sails through. (The count is listener-wide
        // state on the gate, so a second concurrent session would see
        // exactly the same refusal.)
        let responses = converse(
            &service,
            &gate,
            &[
                refused("no-such-device", qft(4).into()),
                refused("G-2x2", "qreg q[1];\nfoo q;\n".into()),
                submit(1, sweep),
                submit(2, sweep),
                submit(3, TenantId::from_name("other")),
            ],
        );
        assert!(matches!(&responses[0], Response::Rejected { .. }), "unknown device");
        assert!(matches!(&responses[1], Response::Rejected { .. }), "bad qasm");
        assert!(matches!(responses[2], Response::Submitted { .. }));
        let Response::CompileFailed(CompileError::Overloaded { .. }) = &responses[3] else {
            panic!("saturated tenant must shed, got {:?}", responses[3]);
        };
        assert!(matches!(responses[4], Response::Submitted { .. }), "other tenants unaffected");
        assert_eq!(service.metrics().rejected_overloaded, 1, "the tenant refusal is counted");
        // Both sessions are gone, so every slot is released.
        assert_eq!(gate.tenant_inflight(sweep), 0, "session drop releases slots");
    }

    /// A job holds its tenant's in-flight slot until its result settles,
    /// also while its connection is blocked in `Wait`: with cap 1 and the
    /// tenant's one job queued behind a High blocker, connection A waits
    /// on it, and until A's result arrives connection B's submit for the
    /// same tenant is shed.
    #[test]
    fn a_waited_on_job_keeps_its_tenant_slot_until_it_settles() {
        let service = Arc::new(CompileService::with_workers(1));
        let config = CompilerConfig::default();
        let gate =
            Gate::new(FrontConfig { max_inflight_per_tenant: Some(1), ..FrontConfig::default() });
        let tenant = TenantId::from_name("sweep");
        let submit = |n: usize| {
            Request::Submit(Box::new(
                RemoteRequest::new("G-2x2", qft(n), CompilerKind::SSync, config)
                    .with_tenant(tenant),
            ))
        };
        // A High blocker keeps the one worker busy, as in the pool's
        // `identical_submissions_never_compile_twice`: for about 1.4 s
        // in the debug profile and 90 ms in release.
        let device = service.registry().get_or_build_named("G-3x3", config.weights).unwrap();
        let blocker = service.submit(
            CompileRequest::new(device, Arc::new(qft(56)), CompilerKind::SSync, config)
                .with_priority(Priority::High),
        );
        let a = std::thread::spawn({
            let (service, gate) = (Arc::clone(&service), Arc::clone(&gate));
            let requests = [submit(10), Request::Wait { job: 0 }];
            move || converse(&service, &gate, &requests)
        });
        while service.metrics().jobs_submitted < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Time for A to block in `Wait`; the slot must stay taken anyway.
        std::thread::sleep(Duration::from_millis(5));
        let b = converse(&service, &gate, &[submit(11)]);
        assert!(
            matches!(b[0], Response::CompileFailed(CompileError::Overloaded { .. })),
            "the tenant's waited-on job still holds its slot, got {:?}",
            b[0]
        );
        let a = a.join().expect("connection A");
        assert!(matches!(a[1], Response::Outcome(_)), "got {:?}", a[1]);
        blocker.wait().expect("compiles");
        assert_eq!(service.metrics().rejected_overloaded, 1);
        assert_eq!(gate.tenant_inflight(tenant), 0, "the settled job released its slot");
    }

    /// A tenant's slot is checked and taken in one step: a take at the
    /// cap is refused and leaves the count where it was, and a release
    /// makes room again.
    #[test]
    fn a_take_at_the_tenant_cap_fails_and_leaves_the_count() {
        let gate = Gate::new(FrontConfig::default());
        let tenant = TenantId::from_name("sweep");
        assert!(gate.try_acquire_tenant(tenant, Some(2)));
        assert!(gate.try_acquire_tenant(tenant, Some(2)));
        assert!(!gate.try_acquire_tenant(tenant, Some(2)), "a take at the cap is refused");
        assert_eq!(gate.tenant_inflight(tenant), 2, "the refusal takes no slot");
        assert!(gate.try_acquire_tenant(tenant, None), "no cap, no refusal");
        gate.release_tenant(tenant);
        gate.release_tenant(tenant);
        assert!(gate.try_acquire_tenant(tenant, Some(2)), "a release makes room");
        assert_eq!(gate.tenant_inflight(tenant), 2);
        assert!(!gate.try_acquire_tenant(TenantId::ANON, Some(0)));
        assert_eq!(gate.tenant_inflight(TenantId::ANON), 0, "a refused tenant is not recorded");
    }

    /// Queue-watermark shedding degrades by priority: with the backlog
    /// between the Batch/Normal thresholds and the High one, Batch and
    /// Normal are shed while High is still admitted.
    #[test]
    fn watermark_sheds_batch_first_high_last() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        // Build a stable backlog: 7 slow-ish jobs on one worker leaves a
        // queue depth of 6 or 7 (the worker may have claimed the first).
        // The largest circuit goes first so the claimed job runs for far
        // longer than the buffered conversation below takes.
        let device = service.registry().get_or_build_named("G-2x3", config.weights).unwrap();
        for n in (22..29).rev() {
            service.submit(crate::CompileRequest::new(
                Arc::clone(&device),
                Arc::new(qft(n)),
                CompilerKind::SSync,
                config,
            ));
        }
        let depth = service.queue_depth();
        assert!((6..=7).contains(&depth), "backlog holds while we converse, got {depth}");
        // Watermark 8: Batch sheds at depth >= 4, Normal at >= 6, High
        // only at >= 8 — so at depth 6..7 only High is admitted.
        let gate = Gate::new(FrontConfig { queue_watermark: Some(8), ..FrontConfig::default() });
        let submit = |priority: Priority| {
            Request::Submit(Box::new(
                RemoteRequest::new("G-2x2", qft(10), CompilerKind::SSync, config)
                    .with_priority(priority),
            ))
        };
        let responses = converse(
            &service,
            &gate,
            &[submit(Priority::Batch), submit(Priority::Normal), submit(Priority::High)],
        );
        assert!(
            matches!(&responses[0], Response::CompileFailed(CompileError::Overloaded { .. })),
            "Batch sheds first, got {:?}",
            responses[0]
        );
        assert!(
            matches!(&responses[1], Response::CompileFailed(CompileError::Overloaded { .. })),
            "Normal sheds next, got {:?}",
            responses[1]
        );
        assert!(
            matches!(responses[2], Response::Submitted { .. }),
            "High degrades last, got {:?}",
            responses[2]
        );
        assert_eq!(service.metrics().rejected_overloaded, 2);
    }

    /// The trace fetch: a session submits, waits, then pulls the
    /// request's trace back over the wire. With the flight recorder on,
    /// the detail carries the recorder's event stream; an unknown id is
    /// `Rejected`.
    #[test]
    fn get_trace_returns_span_and_recorder_stream() {
        let service =
            crate::pool::CompileService::builder().workers(1).flight_recorder(true).build();
        let config = CompilerConfig::default();
        let responses = converse(
            &service,
            &Gate::new(FrontConfig::default()),
            &[
                Request::Submit(Box::new(RemoteRequest::new(
                    "G-2x2",
                    qft(10),
                    CompilerKind::SSync,
                    config,
                ))),
                Request::Wait { job: 0 },
            ],
        );
        let Response::Submitted { job: 0, trace_id, .. } = responses[0] else {
            panic!("expected Submitted, got {:?}", responses[0]);
        };
        assert!(trace_id >= 1, "server-assigned trace ids start at 1");
        assert!(matches!(&responses[1], Response::Outcome(_)));

        // Fetch the trace in a second session: the journal is service
        // state, not connection state.
        let responses = converse(
            &service,
            &Gate::new(FrontConfig::default()),
            &[Request::GetTrace { trace_id }, Request::GetTrace { trace_id: 0 }],
        );
        let Response::TraceDetail { trace_id: got, span_jsonl, recorder_jsonl } = &responses[0]
        else {
            panic!("expected TraceDetail, got {:?}", responses[0]);
        };
        assert_eq!(*got, trace_id);
        assert!(
            span_jsonl.contains(&format!("{trace_id:016x}")),
            "span JSONL names the trace: {span_jsonl}"
        );
        assert!(span_jsonl.contains("end_to_end"), "span carries stage timings: {span_jsonl}");
        assert!(
            span_jsonl.contains("candidates_scored"),
            "span carries the scoring attributes: {span_jsonl}"
        );
        assert!(!recorder_jsonl.is_empty(), "the recorder stream travels");
        assert!(
            recorder_jsonl.lines().count() > 1,
            "header plus at least one event: {recorder_jsonl}"
        );
        let Response::Rejected { reason } = &responses[1] else {
            panic!("unknown trace must be rejected, got {:?}", responses[1]);
        };
        assert!(reason.contains("journal"), "{reason}");
    }

    /// A draining gate refuses new work with a permanent `Rejected` (not
    /// the transient `Overloaded`), while results stay collectable.
    #[test]
    fn draining_rejects_new_work_but_delivers_results() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let gate = Gate::new(FrontConfig::default());

        // Submit while healthy, then flip to draining mid-conversation
        // isn't expressible in one scripted buffer — use two sessions.
        let responses = converse(
            &service,
            &gate,
            &[Request::Submit(Box::new(RemoteRequest::new(
                "G-2x2",
                qft(9),
                CompilerKind::SSync,
                config,
            )))],
        );
        assert!(matches!(responses[0], Response::Submitted { .. }));

        gate.draining.store(true, Ordering::SeqCst);
        let responses = converse(
            &service,
            &gate,
            &[
                Request::Submit(Box::new(RemoteRequest::new(
                    "G-2x2",
                    qft(9),
                    CompilerKind::SSync,
                    config,
                ))),
                Request::Metrics,
            ],
        );
        let Response::Rejected { reason } = &responses[0] else {
            panic!("draining must reject, got {:?}", responses[0]);
        };
        assert!(reason.contains("draining"), "{reason}");
        assert!(matches!(&responses[1], Response::Metrics(_)), "reads still served");
    }
}
