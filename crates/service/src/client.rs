//! A minimal client for the `ssync-serviced` IPC front-end.
//!
//! Mirrors the in-process request/handle API over [`wire`](crate::wire)
//! frames: `submit` sends a circuit or QASM source and returns a job id
//! (the remote analogue of a [`JobHandle`](crate::JobHandle)), `wait`
//! resolves it, `metrics` snapshots the remote
//! [`ServiceMetrics`](crate::ServiceMetrics). The
//! client is deliberately synchronous and single-connection — one
//! outstanding request at a time — because the concurrency lives
//! server-side in the pool; spin up more connections for parallel
//! waiting.
//!
//! ## TCP, auth and the backoff contract
//!
//! [`ServiceClient::connect_tcp`] dials a hardened TCP listener (see
//! [`front::serve_tcp`](crate::front::serve_tcp)) and performs the
//! `Hello`/`Welcome` handshake, presenting the shared token if the
//! deployment requires one. A TCP client remembers its endpoint, so
//! transient transport failures can be healed by a **transparent
//! reconnect** during [`ServiceClient::submit_with_backoff`].
//!
//! When the server sheds a submit with
//! [`ssync_core::CompileError::Overloaded`],
//! the client surfaces it as [`ClientError::Overloaded`] carrying the
//! server's `retry_after_ms` hint. [`ServiceClient::submit_with_backoff`]
//! implements, for circuits and QASM source alike, the retry contract a
//! well-behaved client owes the service:
//! bounded exponential backoff (doubling from
//! [`BackoffPolicy::initial_ms`] up to [`BackoffPolicy::max_ms`]) with
//! deterministic jitter, never sleeping less than the server's hint, and
//! giving up — with the last underlying error attached — once the next
//! sleep would cross [`BackoffPolicy::deadline`].
//!
//! ```no_run
//! use ssync_baselines::CompilerKind;
//! use ssync_circuit::generators::qft;
//! use ssync_core::CompilerConfig;
//! use ssync_service::client::ServiceClient;
//! use ssync_service::wire::RemoteRequest;
//!
//! let mut client = ServiceClient::connect_unix("/tmp/ssync-serviced.sock").unwrap();
//! let config = CompilerConfig::default();
//! let job = client
//!     .submit(&RemoteRequest::new("G-2x2", qft(10), CompilerKind::SSync, config))
//!     .unwrap();
//! let outcome = client.wait(job).unwrap().unwrap();
//! println!("{} shuttles", outcome.counts().shuttles);
//!
//! // The same compile from OpenQASM 2.0 source, parsed by the daemon.
//! let source = ssync_qasm::export(&qft(10));
//! let submitted = client
//!     .submit_traced(&RemoteRequest::new("G-2x2", source, CompilerKind::SSync, config))
//!     .unwrap();
//! assert!(!submitted.report.unwrap().stripped_anything());
//! let outcome = client.wait(submitted.job).unwrap().unwrap();
//! ```

use crate::codec::{ByteWriter, CodecError};
use crate::wire::{
    decode_outcome_payload, decode_response, encode_request, encode_submit, read_frame,
    write_frame, RemoteRequest, Request, Response,
};
use ssync_core::{CompileError, CompileOutcome};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// What can go wrong talking to a remote service.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// A response payload did not decode.
    Codec(CodecError),
    /// The server rejected the request (unknown device or job id).
    Rejected(
        /// The server's reason.
        String,
    ),
    /// The server answered with a variant the request doesn't expect.
    UnexpectedResponse(
        /// A description of what arrived.
        &'static str,
    ),
    /// The connection closed before a response arrived.
    Disconnected,
    /// The server shed the submission at admission
    /// ([`CompileError::Overloaded`]); retry after the hinted delay, or
    /// let [`ServiceClient::submit_with_backoff`] do it.
    Overloaded {
        /// The server's advisory back-off, in milliseconds.
        retry_after_ms: u64,
    },
    /// [`ServiceClient::submit_with_backoff`] ran out of deadline while
    /// the failure stayed transient.
    RetriesExhausted {
        /// Submit attempts made before giving up.
        attempts: u32,
        /// The transient error the final attempt observed.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Codec(e) => write!(f, "undecodable response: {e}"),
            ClientError::Rejected(reason) => write!(f, "request rejected: {reason}"),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response variant: {what}")
            }
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded; retry after ~{retry_after_ms} ms")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// Identifier of a job submitted through a [`ServiceClient`] — the remote
/// analogue of a [`JobHandle`](crate::JobHandle), scoped to its
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteJob(pub u64);

/// The daemon's acceptance of a submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// The job to pass to [`ServiceClient::wait`].
    pub job: RemoteJob,
    /// The server-assigned id of the request's end-to-end trace in the
    /// daemon's journal and slow-request log (see
    /// [`ServiceClient::get_trace`]).
    pub trace_id: u64,
    /// For QASM source, what the server-side lowering stripped or counted
    /// — check
    /// [`stripped_anything`](ssync_qasm::ParseReport::stripped_anything)
    /// to warn that the compiled circuit is not the whole program sent;
    /// `None` for a circuit.
    pub report: Option<ssync_qasm::ParseReport>,
}

/// The retry schedule [`ServiceClient::submit_with_backoff`] follows on
/// transient failures (`Overloaded`, transport errors): exponential
/// backoff doubling from [`initial_ms`](BackoffPolicy::initial_ms) and
/// capped at [`max_ms`](BackoffPolicy::max_ms), plus deterministic
/// jitter of up to half the current backoff (seeded xorshift — the
/// workspace vendors no RNG crate, and a seeded sequence keeps tests
/// reproducible). A sleep never undercuts the server's `retry_after_ms`
/// hint, and the whole loop gives up once the next sleep would cross
/// [`deadline`](BackoffPolicy::deadline).
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// First retry delay, in milliseconds.
    pub initial_ms: u64,
    /// Ceiling on the exponential backoff, in milliseconds.
    pub max_ms: u64,
    /// Overall budget across all attempts (measured from the first
    /// attempt; the first attempt itself always runs).
    pub deadline: Duration,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial_ms: 10,
            max_ms: 2_000,
            deadline: Duration::from_secs(30),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl BackoffPolicy {
    /// Returns a copy with a different overall deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One xorshift64 step: fast, seedable, plenty for decorrelating retry
/// storms (this is jitter, not cryptography).
fn xorshift64(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The next sleep, in milliseconds: `backoff_ms` plus jitter of up to
/// half of it, floored at the server's `retry_after_ms` hint so a client
/// never comes back earlier than the service asked.
fn next_wait_ms(backoff_ms: u64, hint_ms: Option<u64>, rng: &mut u64) -> u64 {
    let jitter = xorshift64(rng) % (backoff_ms / 2 + 1);
    (backoff_ms + jitter).max(hint_ms.unwrap_or(0))
}

/// How to re-establish a TCP session: the resolved address and the token
/// to present in the `Hello` handshake.
#[derive(Debug, Clone)]
struct TcpEndpoint {
    addr: std::net::SocketAddr,
    token: Option<String>,
}

/// A synchronous connection to an `ssync-serviced` daemon over any byte
/// stream pair (a Unix socket, a TCP connection, or a child process's
/// stdio).
pub struct ServiceClient {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    /// `Some` for TCP clients: lets transient transport failures heal by
    /// dialling the endpoint again (job ids do not survive a reconnect —
    /// they are per-connection server state).
    endpoint: Option<TcpEndpoint>,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient").finish_non_exhaustive()
    }
}

impl ServiceClient {
    /// A client over an explicit reader/writer pair — e.g. a spawned
    /// daemon's stdout/stdin (see `examples/remote_compile.rs`).
    pub fn over(reader: impl Read + Send + 'static, writer: impl Write + Send + 'static) -> Self {
        ServiceClient { reader: Box::new(reader), writer: Box::new(writer), endpoint: None }
    }

    /// Connects to a daemon listening on a Unix domain socket.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(Self::over(reader, stream))
    }

    /// Connects to a daemon's TCP listener and performs the
    /// `Hello`/`Welcome` handshake, presenting `token` if the deployment
    /// requires one (an empty token is sent otherwise — harmless against
    /// an open listener, and it doubles as a protocol-version probe).
    /// The endpoint is remembered so
    /// [`submit_with_backoff`](ServiceClient::submit_with_backoff) can
    /// transparently reconnect after transport failures.
    ///
    /// # Errors
    ///
    /// Connect/transport failures, [`ClientError::Rejected`] when the
    /// server refuses the token, or
    /// [`ClientError::UnexpectedResponse`] if the peer is not an
    /// `ssync-serviced` TCP front-end.
    pub fn connect_tcp(
        addr: impl std::net::ToSocketAddrs,
        token: Option<&str>,
    ) -> Result<Self, ClientError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        let endpoint = TcpEndpoint { addr, token: token.map(String::from) };
        let mut client = Self::dial(&endpoint)?;
        client.endpoint = Some(endpoint);
        Ok(client)
    }

    /// Opens a fresh TCP session to `endpoint` and runs the handshake.
    fn dial(endpoint: &TcpEndpoint) -> Result<Self, ClientError> {
        let stream = std::net::TcpStream::connect(endpoint.addr)?;
        let _ = stream.set_nodelay(true); // request/response protocol
        let reader = stream.try_clone()?;
        let mut client = Self::over(reader, stream);
        let hello = Request::Hello { token: endpoint.token.clone().unwrap_or_default() };
        match client.round_trip(&hello)? {
            Response::Welcome { .. } => Ok(client),
            _ => Err(ClientError::UnexpectedResponse("hello expected Welcome")),
        }
    }

    /// Replaces a (presumed dead) TCP session with a fresh one to the
    /// remembered endpoint. `false` when this client has no endpoint
    /// (stdio/Unix transports) or the dial itself failed — the caller's
    /// backoff loop treats that as one more transient failure.
    fn reconnect(&mut self) -> bool {
        let Some(endpoint) = self.endpoint.clone() else {
            return false;
        };
        match Self::dial(&endpoint) {
            Ok(fresh) => {
                self.reader = fresh.reader;
                self.writer = fresh.writer;
                true
            }
            Err(_) => false,
        }
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.exchange(&encode_request(request))
    }

    /// Sends one encoded request and reads its response.
    fn exchange(&mut self, request: &[u8]) -> Result<Response, ClientError> {
        let payload = self.send(request)?;
        Self::accepted(decode_response(&payload)?)
    }

    /// Sends one encoded request and returns the response's payload.
    fn send(&mut self, request: &[u8]) -> Result<Vec<u8>, ClientError> {
        write_frame(&mut self.writer, request)?;
        read_frame(&mut self.reader)?.ok_or(ClientError::Disconnected)
    }

    /// Turns a `Rejected` response into the client's error.
    fn accepted(response: Response) -> Result<Response, ClientError> {
        match response {
            Response::Rejected { reason } => Err(ClientError::Rejected(reason)),
            response => Ok(response),
        }
    }

    /// Submits a compile request, of a circuit or of QASM source; the
    /// returned [`RemoteJob`] feeds [`ServiceClient::wait`].
    ///
    /// # Errors
    ///
    /// As [`submit_traced`](ServiceClient::submit_traced).
    pub fn submit(&mut self, request: &RemoteRequest) -> Result<RemoteJob, ClientError> {
        self.submit_traced(request).map(|submitted| submitted.job)
    }

    /// [`submit`](ServiceClient::submit), returning the whole
    /// acceptance: the job, its trace id and, for QASM source, the parse
    /// report. The daemon parses, lowers and compiles source
    /// bit-identically to parsing locally and submitting the circuit.
    ///
    /// # Errors
    ///
    /// Transport/codec failures, [`ClientError::Overloaded`] when the
    /// server sheds the submit, or [`ClientError::Rejected`] carrying the
    /// parse diagnostic (`line:col: ...`) or an unknown device name.
    pub fn submit_traced(&mut self, request: &RemoteRequest) -> Result<Submitted, ClientError> {
        let mut w = ByteWriter::new();
        encode_submit(&mut w, request);
        match self.exchange(&w.into_bytes())? {
            Response::Submitted { job, trace_id, report } => {
                Ok(Submitted { job: RemoteJob(job), trace_id, report })
            }
            Response::CompileFailed(CompileError::Overloaded { retry_after_ms }) => {
                Err(ClientError::Overloaded { retry_after_ms })
            }
            _ => Err(ClientError::UnexpectedResponse("submit expected Submitted")),
        }
    }

    /// [`submit`](ServiceClient::submit) returning the parse report too
    /// (the default report for a circuit).
    ///
    /// # Errors
    ///
    /// As [`submit_traced`](ServiceClient::submit_traced).
    pub fn submit_qasm(
        &mut self,
        request: &RemoteRequest,
    ) -> Result<(RemoteJob, ssync_qasm::ParseReport), ClientError> {
        self.submit_traced(request).map(|s| (s.job, s.report.unwrap_or_default()))
    }

    /// [`submit_traced`](ServiceClient::submit_traced) with the retry
    /// contract: on `Overloaded` or a transport failure, sleep per
    /// `policy` (bounded exponential backoff, deterministic jitter, never
    /// undercutting the server's `retry_after_ms` hint), transparently
    /// reconnect TCP sessions, and try again — until acceptance, a
    /// permanent error, or the policy's deadline.
    ///
    /// A retried submit is **at-least-once**: if the transport died after
    /// the server accepted but before the `Submitted` frame arrived, the
    /// retry compiles the request again — the result cache and in-flight
    /// coalescing make the duplicate cheap, and job ids from before a
    /// reconnect are invalid anyway (they are per-connection state).
    ///
    /// # Errors
    ///
    /// Permanent errors ([`ClientError::Rejected`], codec failures)
    /// propagate immediately; exhausting the deadline returns
    /// [`ClientError::RetriesExhausted`] wrapping the last transient
    /// error.
    pub fn submit_with_backoff(
        &mut self,
        request: &RemoteRequest,
        policy: &BackoffPolicy,
    ) -> Result<Submitted, ClientError> {
        let started = Instant::now();
        let mut backoff_ms = policy.initial_ms.max(1);
        let mut rng = policy.seed | 1; // xorshift must not start at 0
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let error = match self.submit_traced(request) {
                Ok(submitted) => return Ok(submitted),
                Err(e) => e,
            };
            let hint_ms = match &error {
                ClientError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
                ClientError::Io(_) | ClientError::Disconnected => {
                    // A dead connection stays dead for stdio/Unix
                    // clients; only an endpoint-aware client can retry.
                    if self.endpoint.is_none() {
                        return Err(error);
                    }
                    None
                }
                _ => return Err(error),
            };
            let wait = Duration::from_millis(next_wait_ms(backoff_ms, hint_ms, &mut rng));
            if started.elapsed() + wait > policy.deadline {
                return Err(ClientError::RetriesExhausted { attempts, last: Box::new(error) });
            }
            std::thread::sleep(wait);
            if matches!(error, ClientError::Io(_) | ClientError::Disconnected) {
                // Failure here is fine: the next attempt surfaces it and
                // the loop keeps backing off until the deadline.
                self.reconnect();
            }
            backoff_ms = (backoff_ms * 2).min(policy.max_ms);
        }
    }

    /// Blocks until `job` finishes; the inner result is the compile's own
    /// success or failure, exactly as [`crate::JobHandle::wait`] returns
    /// it in-process.
    ///
    /// # Errors
    ///
    /// Transport/codec failures, or [`ClientError::Rejected`] for an
    /// unknown job id.
    pub fn wait(
        &mut self,
        job: RemoteJob,
    ) -> Result<Result<CompileOutcome, CompileError>, ClientError> {
        let payload = self.send(&encode_request(&Request::Wait { job: job.0 }))?;
        // An outcome is decoded straight from the payload, once.
        if let Some(outcome) = decode_outcome_payload(&payload) {
            return Ok(Ok(outcome?));
        }
        match Self::accepted(decode_response(&payload)?)? {
            Response::CompileFailed(error) => Ok(Err(error)),
            _ => Err(ClientError::UnexpectedResponse("wait expected a result")),
        }
    }

    /// Fetches a metrics snapshot from the daemon.
    ///
    /// # Errors
    ///
    /// Transport/codec failures.
    pub fn metrics(&mut self) -> Result<crate::ServiceMetrics, ClientError> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics(metrics) => Ok(*metrics),
            _ => Err(ClientError::UnexpectedResponse("metrics expected Metrics")),
        }
    }

    /// Fetches the daemon's metrics and latency histograms rendered as
    /// Prometheus-style text exposition — the same bytes the daemon's
    /// `--metrics-text` flag writes to disk.
    ///
    /// # Errors
    ///
    /// Transport/codec failures.
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Request::GetStats)? {
            Response::StatsText { text } => Ok(text),
            _ => Err(ClientError::UnexpectedResponse("stats expected StatsText")),
        }
    }

    /// Fetches one trace from the daemon's journal by the id
    /// [`submit_traced`](ServiceClient::submit_traced) returned. The
    /// first string is the trace's span + stages + attributes
    /// in the slow-request-log JSONL schema; the second is the flight-
    /// recorder event stream (header line plus one JSON object per
    /// event), empty when the daemon compiled with the recorder off.
    ///
    /// # Errors
    ///
    /// Transport/codec failures, [`ClientError::Rejected`] when the
    /// journal no longer holds the id.
    pub fn get_trace(&mut self, trace_id: u64) -> Result<(String, String), ClientError> {
        match self.round_trip(&Request::GetTrace { trace_id })? {
            Response::TraceDetail { span_jsonl, recorder_jsonl, .. } => {
                Ok((span_jsonl, recorder_jsonl))
            }
            _ => Err(ClientError::UnexpectedResponse("get_trace expected TraceDetail")),
        }
    }

    /// Asks the daemon to exit (acknowledged before it does).
    ///
    /// # Errors
    ///
    /// Transport/codec failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("shutdown expected ShuttingDown")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_bounded_and_honors_the_hint() {
        let mut a = 42u64 | 1;
        let mut b = 42u64 | 1;
        let schedule_a: Vec<u64> = (0..16).map(|_| next_wait_ms(100, None, &mut a)).collect();
        let schedule_b: Vec<u64> = (0..16).map(|_| next_wait_ms(100, None, &mut b)).collect();
        assert_eq!(schedule_a, schedule_b, "same seed, same schedule");
        for wait in &schedule_a {
            assert!((100..=150).contains(wait), "backoff + at most half jitter, got {wait}");
        }
        assert!(schedule_a.windows(2).any(|w| w[0] != w[1]), "jitter actually varies");
        let mut rng = 7u64;
        assert!(next_wait_ms(10, Some(500), &mut rng) >= 500, "server hint floors the sleep");
    }
}
