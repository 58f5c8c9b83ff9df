//! The IPC wire protocol of `ssync-serviced`: framing and message types.
//!
//! ## Framing
//!
//! Every message travels as one frame over a byte stream (a Unix domain
//! socket or a child process's stdin/stdout):
//!
//! ```text
//! +----------+------------+-----------+------------------+
//! | magic u32| version u32| length u32| payload (length) |
//! +----------+------------+-----------+------------------+
//!      "CYSS"     12         LE bytes    codec-encoded body
//! ```
//!
//! All integers are little-endian. A frame whose magic or version doesn't
//! match, or whose length exceeds [`MAX_FRAME_BYTES`], is a protocol
//! error; a clean EOF *between* frames is a normal disconnect. Payloads
//! are encoded with the [`crate::codec`] primitives (exact-bit floats,
//! tag bytes, length-prefixed sequences) — the vendored `serde` is a
//! marker-trait stand-in, so the wire structs here pair each message with
//! explicit `encode`/`decode` functions instead of derives. An `Outcome`
//! payload is its tag and then the outcome's stored
//! [`EncodedOutcome`] bytes, which the server copies out of its result
//! cache without encoding anything.
//!
//! ## Conversation
//!
//! The client sends [`Request`] frames and reads one [`Response`] frame
//! per request, in order (the protocol is strictly request/response; the
//! concurrency lives server-side in the
//! [`CompileService`](crate::CompileService) pool):
//!
//! | request | response |
//! |---|---|
//! | `Hello { token }` | `Welcome` or `Rejected` (required first on authed TCP) |
//! | `Submit(RemoteRequest)` | `Submitted { job, trace_id, report }` or `Rejected` |
//! | `Wait { job }` | `Outcome`, `CompileFailed` or `Rejected` (blocks) |
//! | `Metrics` | `Metrics(ServiceMetrics)` |
//! | `GetStats` | `StatsText { text }` (Prometheus-style exposition) |
//! | `GetTrace { trace_id }` | `TraceDetail` or `Rejected` |
//! | `Shutdown` | `ShuttingDown`, then the daemon exits |
//!
//! A `Submit` carries either a [`Circuit`] or raw OpenQASM 2.0 source
//! ([`Input`]). The daemon parses source with `ssync-qasm` and compiles
//! the lowered circuit exactly as if the client had parsed locally and
//! submitted the circuit; a parse error comes back as `Rejected` with
//! the `line:col` diagnostic, and `Submitted` carries the lowering's
//! [`ParseReport`](ssync_qasm::ParseReport). `GetTrace`
//! returns the trace's span in the slow-request-log JSONL schema plus —
//! when the daemon runs with the flight recorder on — the request's
//! recorder stream, both as plain strings.
//!
//! ## Versioning
//!
//! There is one protocol version, [`WIRE_VERSION`]: every peer is built
//! from this repository, so [`read_frame`] rejects a frame stamped with
//! any other version instead of decoding older layouts. Any change to a
//! payload layout — including the [`CompilerConfig`] field walk in
//! [`codec::encode_config`] — bumps the version.
//!
//! Job ids are per-connection and **single-delivery**: the `Wait`
//! response that carries a job's terminal result consumes the id, so a
//! long-lived connection doesn't pin every outcome it ever received; a
//! later `Wait` on it is `Rejected`. Devices are named: the server resolves
//! [`RemoteRequest::device`] through its registry's paper-topology table
//! ([`ssync_arch::QccdTopology::named`]), so the (potentially large)
//! device artifact never crosses the wire — only the name does, exactly
//! like the in-process API shares one registered `Arc`.

use crate::codec::{self, ByteReader, ByteWriter, CodecError, EncodedOutcome};
use crate::job::{Priority, TenantId};
use crate::metrics::{ServiceMetrics, WorkerMetrics};
use ssync_baselines::CompilerKind;
use ssync_circuit::Circuit;
use ssync_core::{CompileError, CompileOutcome, CompilerConfig, ScoringTelemetry};
use std::io::{IoSlice, Read, Write};
use std::time::Duration;

/// Frame magic: `b"CYSS"` little-endian ("SSYC" on the wire).
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"SSYC");
/// The protocol version, written on every frame and the only one
/// [`read_frame`] accepts; bumped on any payload layout change.
pub const WIRE_VERSION: u32 = 12;
/// Upper bound on a frame payload (a defence against corrupt length
/// prefixes, not a practical limit — outcomes are kilobytes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// What a [`RemoteRequest`] compiles.
#[derive(Debug, Clone)]
pub enum Input {
    /// A circuit in the binary circuit encoding.
    Circuit(Circuit),
    /// OpenQASM 2.0 source text, which the daemon parses and lowers
    /// first, so a client needs neither the circuit IR nor its encoding.
    Qasm(String),
}

impl From<Circuit> for Input {
    fn from(circuit: Circuit) -> Self {
        Input::Circuit(circuit)
    }
}

impl From<String> for Input {
    fn from(source: String) -> Self {
        Input::Qasm(source)
    }
}

impl From<&str> for Input {
    fn from(source: &str) -> Self {
        Input::Qasm(source.to_owned())
    }
}

/// One compile request as it crosses the wire: the device travels by
/// *name* (resolved server-side through the registry), everything else by
/// value.
#[derive(Debug, Clone)]
pub struct RemoteRequest {
    /// Name of a paper topology (`"G-2x3"`, `"L-6"`, `"S-4"`, …) the
    /// server registers on first use.
    pub device: String,
    /// The circuit or QASM source to compile.
    pub input: Input,
    /// Which compiler to run.
    pub compiler: CompilerKind,
    /// The evaluation configuration (its `weights` pick the device
    /// artifact variant, exactly as in-process).
    pub config: CompilerConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Optional deadline in microseconds from submission (see
    /// [`crate::CompileRequest::deadline_us`]).
    pub deadline_us: Option<u64>,
}

/// A [`RemoteRequest`], under the name some callers give a request that
/// carries QASM source ([`Input::Qasm`]).
pub type RemoteQasmRequest = RemoteRequest;

impl RemoteRequest {
    /// A request for a circuit or QASM source (see [`Input`]'s `From`
    /// impls) at [`Priority::Normal`] for [`TenantId::ANON`] with no
    /// deadline.
    pub fn new(
        device: impl Into<String>,
        input: impl Into<Input>,
        compiler: CompilerKind,
        config: CompilerConfig,
    ) -> Self {
        RemoteRequest {
            device: device.into(),
            input: input.into(),
            compiler,
            config,
            priority: Priority::default(),
            tenant: TenantId::ANON,
            deadline_us: None,
        }
    }

    /// Returns a copy with a different scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns a copy attributed to `tenant`.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Returns a copy expiring `deadline_us` microseconds after the
    /// daemon accepts it.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }
}

/// A client→server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// The connection handshake. On a TCP front-end configured
    /// with a shared auth token this MUST be the first frame and carry
    /// the matching token, or the connection is rejected and closed
    /// (counted in `ServiceMetrics::rejected_unauthorized`). On
    /// un-authed transports a `Hello` is accepted (and answered with
    /// `Welcome`) but never required, so clients can handshake
    /// unconditionally.
    Hello {
        /// The shared secret; compared in full against the server's
        /// configured token. Empty when the client has none.
        token: String,
    },
    /// Queue a compile; answered with `Submitted`, or `Rejected` carrying
    /// the reason (a QASM parse diagnostic among them). Boxed: a request
    /// carries a whole circuit or program + config, dwarfing the other
    /// variants.
    Submit(Box<RemoteRequest>),
    /// Block until the job finishes.
    Wait {
        /// The id from `Submitted`.
        job: u64,
    },
    /// Fetch a metrics snapshot.
    Metrics,
    /// Fetch the daemon's metrics + latency histograms rendered as
    /// Prometheus-style text exposition; answered with `StatsText`.
    GetStats,
    /// Fetch one trace from the daemon's journal by the id `Submitted`
    /// returned; answered with `TraceDetail`,
    /// or `Rejected` when the journal no longer holds the id.
    GetTrace {
        /// The server-assigned trace id to look up.
        trace_id: u64,
    },
    /// Ask the daemon to exit after responding.
    Shutdown,
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// Accepts a `Hello`; carries the server's protocol version so
    /// clients can log what they are talking to.
    Welcome {
        /// The server's [`WIRE_VERSION`].
        version: u32,
    },
    /// The submission was queued under this per-connection job id.
    Submitted {
        /// Identifier to pass to `Wait`.
        job: u64,
        /// Server-assigned trace id for the request's end-to-end trace
        /// (pass it to `GetTrace`).
        trace_id: u64,
        /// For QASM source, what the lowering stripped or counted, exactly
        /// as a local `ssync_qasm::parse` would report it; `None` for a
        /// circuit.
        report: Option<ssync_qasm::ParseReport>,
    },
    /// The job finished successfully: the outcome's stored encoding,
    /// which the server writes as it is, for cache hits and fresh
    /// compiles alike.
    Outcome(EncodedOutcome),
    /// The job finished with a compile error.
    CompileFailed(CompileError),
    /// The request itself was invalid (unknown device name, unknown job
    /// id, …).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// A metrics snapshot, boxed because it is by far the largest
    /// variant.
    Metrics(Box<ServiceMetrics>),
    /// Acknowledges `Shutdown`; the daemon exits after sending it.
    ShuttingDown,
    /// The daemon's metrics + latency histograms rendered as
    /// Prometheus-style text exposition (answers `GetStats`).
    StatsText {
        /// The rendered exposition — the same bytes the daemon's
        /// `--metrics-text` flag writes to disk.
        text: String,
    },
    /// One trace from the daemon's journal (answers `GetTrace`). Both
    /// fields are rendered text so the trace schema can grow without a
    /// wire bump.
    TraceDetail {
        /// The id that was looked up.
        trace_id: u64,
        /// The trace's span + stage timings + attributes in the
        /// slow-request-log JSONL schema (one line).
        span_jsonl: String,
        /// The request's flight-recorder stream — a header line plus one
        /// JSON object per recorded event, newline-separated. Empty when
        /// the daemon compiled the request with the recorder off.
        recorder_jsonl: String,
    },
}

fn priority_tag(p: Priority) -> u8 {
    p.index() as u8
}

fn priority_from_tag(tag: u8) -> Result<Priority, CodecError> {
    Priority::ALL
        .into_iter()
        .find(|p| p.index() as u8 == tag)
        .ok_or(CodecError::BadTag { what: "priority", tag })
}

/// Encodes a [`Request`] payload (no frame header).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match request {
        Request::Submit(remote) => encode_submit(&mut w, remote),
        Request::Wait { job } => {
            w.put_u8(2);
            w.put_u64(*job);
        }
        Request::Metrics => w.put_u8(3),
        Request::Shutdown => w.put_u8(4),
        Request::GetStats => w.put_u8(7),
        Request::GetTrace { trace_id } => {
            w.put_u8(8);
            w.put_u64(*trace_id);
        }
        Request::Hello { token } => {
            w.put_u8(6);
            w.put_str(token);
        }
    }
    w.into_bytes()
}

/// Writes `Some(value)` as `1` and the value, `None` as `0`.
fn put_option<T>(w: &mut ByteWriter, value: Option<T>, put: impl FnOnce(&mut ByteWriter, T)) {
    match value {
        Some(value) => {
            w.put_u8(1);
            put(w, value);
        }
        None => w.put_u8(0),
    }
}

/// Reads what [`put_option`] wrote; `what` names the option in a bad-tag
/// error.
fn get_option<'a, T>(
    r: &mut ByteReader<'a>,
    what: &'static str,
    get: impl FnOnce(&mut ByteReader<'a>) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        tag => Err(CodecError::BadTag { what, tag }),
    }
}

/// Writes a `Submit` request. The client calls it on the caller's
/// borrowed request, so a submit encodes without copying its circuit or
/// source.
pub(crate) fn encode_submit(w: &mut ByteWriter, remote: &RemoteRequest) {
    w.put_u8(0);
    w.put_str(&remote.device);
    match &remote.input {
        Input::Circuit(circuit) => {
            w.put_u8(0);
            codec::encode_circuit(w, circuit);
        }
        Input::Qasm(source) => {
            w.put_u8(1);
            w.put_str(source);
        }
    }
    w.put_u8(codec::compiler_kind_tag(remote.compiler));
    codec::encode_config(w, &remote.config);
    w.put_u8(priority_tag(remote.priority));
    w.put_u64(remote.tenant.0);
    put_option(w, remote.deadline_us, ByteWriter::put_u64);
}

/// Decodes a [`Request`] payload written by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, CodecError> {
    let mut r = ByteReader::new(payload);
    let request = match r.get_u8()? {
        0 => Request::Submit(Box::new(RemoteRequest {
            device: r.get_str()?,
            input: match r.get_u8()? {
                0 => Input::Circuit(codec::decode_circuit(&mut r)?),
                1 => Input::Qasm(r.get_str()?),
                tag => return Err(CodecError::BadTag { what: "input", tag }),
            },
            compiler: codec::compiler_kind_from_tag(r.get_u8()?)?,
            config: codec::decode_config(&mut r)?,
            priority: priority_from_tag(r.get_u8()?)?,
            tenant: TenantId(r.get_u64()?),
            deadline_us: get_option(&mut r, "deadline option", ByteReader::get_u64)?,
        })),
        2 => Request::Wait { job: r.get_u64()? },
        3 => Request::Metrics,
        4 => Request::Shutdown,
        6 => Request::Hello { token: r.get_str()? },
        7 => Request::GetStats,
        8 => Request::GetTrace { trace_id: r.get_u64()? },
        tag => return Err(CodecError::BadTag { what: "request", tag }),
    };
    if !r.is_exhausted() {
        return Err(CodecError::Invalid("trailing request bytes"));
    }
    Ok(request)
}

fn encode_metrics(w: &mut ByteWriter, m: &ServiceMetrics) {
    w.put_u64(m.jobs_submitted);
    w.put_u64(m.jobs_completed);
    w.put_u64(m.jobs_coalesced);
    w.put_u64(m.jobs_near_duplicate);
    w.put_u64(m.jobs_deadline_expired);
    for v in m.submitted_by_priority {
        w.put_u64(v);
    }
    w.put_usize(m.queue_depth);
    w.put_u64(m.rejected_overloaded);
    w.put_u64(m.rejected_unauthorized);
    w.put_u64(m.conns_timed_out);
    w.put_u64(m.janitor_gc_runs);
    w.put_u64(m.cache.hits);
    w.put_u64(m.cache.misses);
    w.put_usize(m.cache.entries);
    w.put_usize(m.cache.bytes);
    w.put_u64(m.cache.evictions);
    w.put_u64(m.cache.persist_hits);
    w.put_u64(m.cache.persist_stores);
    w.put_u64(m.cache.persist_gc_deleted);
    w.put_usize(m.workers.len());
    for worker in &m.workers {
        w.put_u64(worker.executed);
    }
    w.put_u64(m.uptime.as_nanos() as u64);
    w.put_u64(m.scoring.candidates_scored);
    w.put_u64(m.scoring.scoring_passes);
    w.put_u64(m.scoring.readiness_memo_hits);
    w.put_u64(m.scoring.frontier_rebuilds);
    w.put_u64(m.scoring.stall_fallback_entries);
    w.put_u64(m.scoring.scoring_time_ns);
    w.put_u64(m.traces_recorded);
    w.put_u64(m.slow_requests);
}

fn decode_metrics(r: &mut ByteReader<'_>) -> Result<ServiceMetrics, CodecError> {
    Ok(ServiceMetrics {
        jobs_submitted: r.get_u64()?,
        jobs_completed: r.get_u64()?,
        jobs_coalesced: r.get_u64()?,
        jobs_near_duplicate: r.get_u64()?,
        jobs_deadline_expired: r.get_u64()?,
        submitted_by_priority: [r.get_u64()?, r.get_u64()?, r.get_u64()?],
        queue_depth: r.get_usize()?,
        rejected_overloaded: r.get_u64()?,
        rejected_unauthorized: r.get_u64()?,
        conns_timed_out: r.get_u64()?,
        janitor_gc_runs: r.get_u64()?,
        cache: crate::cache::CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            entries: r.get_usize()?,
            bytes: r.get_usize()?,
            evictions: r.get_u64()?,
            persist_hits: r.get_u64()?,
            persist_stores: r.get_u64()?,
            persist_gc_deleted: r.get_u64()?,
        },
        workers: {
            let n = r.get_len(8)?;
            let mut workers = Vec::with_capacity(n);
            for _ in 0..n {
                workers.push(WorkerMetrics { executed: r.get_u64()? });
            }
            workers
        },
        uptime: Duration::from_nanos(r.get_u64()?),
        scoring: ScoringTelemetry {
            candidates_scored: r.get_u64()?,
            scoring_passes: r.get_u64()?,
            readiness_memo_hits: r.get_u64()?,
            frontier_rebuilds: r.get_u64()?,
            stall_fallback_entries: r.get_u64()?,
            scoring_time_ns: r.get_u64()?,
        },
        traces_recorded: r.get_u64()?,
        slow_requests: r.get_u64()?,
    })
}

/// Encodes a [`Response`] payload (no frame header).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match response {
        Response::Submitted { job, trace_id, report } => {
            w.put_u8(0);
            w.put_u64(*job);
            w.put_u64(*trace_id);
            put_option(&mut w, report.as_ref(), |w, report| {
                w.put_usize(report.measurements_stripped);
                w.put_usize(report.resets_stripped);
                w.put_usize(report.conditionals_stripped);
                w.put_usize(report.barriers);
                w.put_usize(report.gates_inlined);
            });
        }
        Response::Outcome(outcome) => {
            w.put_u8(OUTCOME_TAG);
            w.put_bytes(outcome.as_bytes());
        }
        Response::CompileFailed(error) => {
            w.put_u8(3);
            codec::encode_compile_error(&mut w, error);
        }
        Response::Rejected { reason } => {
            w.put_u8(4);
            w.put_str(reason);
        }
        Response::Metrics(metrics) => {
            w.put_u8(5);
            encode_metrics(&mut w, metrics);
        }
        Response::ShuttingDown => w.put_u8(6),
        Response::Welcome { version } => {
            w.put_u8(8);
            w.put_u32(*version);
        }
        Response::StatsText { text } => {
            w.put_u8(9);
            w.put_str(text);
        }
        Response::TraceDetail { trace_id, span_jsonl, recorder_jsonl } => {
            w.put_u8(10);
            w.put_u64(*trace_id);
            w.put_str(span_jsonl);
            w.put_str(recorder_jsonl);
        }
    }
    w.into_bytes()
}

/// The tag of a [`Response::Outcome`] payload.
const OUTCOME_TAG: u8 = 2;

/// The outcome an `Outcome` payload carries, decoded straight from the
/// payload; `None` for every other response. The client reads results
/// through this, so an outcome is decoded once, where
/// [`decode_response`] would decode it to check it and then keep only its
/// bytes.
pub(crate) fn decode_outcome_payload(payload: &[u8]) -> Option<Result<CompileOutcome, CodecError>> {
    match payload.split_first() {
        Some((&OUTCOME_TAG, body)) => Some(codec::decode_outcome_bytes(body)),
        _ => None,
    }
}

/// Decodes a [`Response`] payload written by [`encode_response`]. An
/// `Outcome` body is decoded once to check it, then kept as bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, CodecError> {
    let mut r = ByteReader::new(payload);
    let response = match r.get_u8()? {
        0 => Response::Submitted {
            job: r.get_u64()?,
            trace_id: r.get_u64()?,
            report: get_option(&mut r, "parse report option", |r| {
                Ok(ssync_qasm::ParseReport {
                    measurements_stripped: r.get_usize()?,
                    resets_stripped: r.get_usize()?,
                    conditionals_stripped: r.get_usize()?,
                    barriers: r.get_usize()?,
                    gates_inlined: r.get_usize()?,
                })
            })?,
        },
        OUTCOME_TAG => Response::Outcome(EncodedOutcome::from_bytes(r.rest())?),
        3 => Response::CompileFailed(codec::decode_compile_error(&mut r)?),
        4 => Response::Rejected { reason: r.get_str()? },
        5 => Response::Metrics(Box::new(decode_metrics(&mut r)?)),
        6 => Response::ShuttingDown,
        8 => Response::Welcome { version: r.get_u32()? },
        9 => Response::StatsText { text: r.get_str()? },
        10 => Response::TraceDetail {
            trace_id: r.get_u64()?,
            span_jsonl: r.get_str()?,
            recorder_jsonl: r.get_str()?,
        },
        tag => return Err(CodecError::BadTag { what: "response", tag }),
    };
    if !r.is_exhausted() {
        return Err(CodecError::Invalid("trailing response bytes"));
    }
    Ok(response)
}

/// Writes one frame (header + payload) and flushes.
///
/// The header and the payload go to one [`Write::write_vectored`] call,
/// so a socket never sends the header in a segment of its own and the
/// peer wakes once per frame; the payload is not copied. A partial write resumes where it
/// stopped, and an `Interrupted` write is retried, as in
/// [`Write::write_all`].
///
/// # Errors
///
/// Propagates the underlying I/O failure, and `WriteZero` when the writer
/// accepts no bytes; a payload over [`MAX_FRAME_BYTES`] is rejected up
/// front (`InvalidData`) — writing it would produce a frame the peer must
/// reject, and a payload past `u32::MAX` would truncate the length header
/// and desynchronise the stream.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(protocol_error("payload exceeds MAX_FRAME_BYTES"));
    }
    let mut header = [0u8; 12];
    header[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut unwritten = &mut slices[..];
    while !unwritten.is_empty() {
        match writer.write_vectored(unwritten) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer disconnected).
///
/// # Errors
///
/// I/O failures, a truncated header/payload, a bad magic/version, or a
/// length above [`MAX_FRAME_BYTES`] all surface as `std::io::Error`
/// (`InvalidData` for protocol violations).
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    read_frame_deadline(reader, None)
}

/// [`read_frame`] with an optional **whole-frame budget**: once a frame's
/// first byte arrives, the rest must arrive within `frame_budget` or the
/// read fails with `ErrorKind::TimedOut`.
///
/// Per-read socket timeouts alone cannot bound a *slow-loris* peer that
/// trickles one byte per almost-timeout — every byte resets the OS
/// timer, pinning a handler thread forever. The budget check runs after
/// every partial read, so a trickling frame is cut off no matter how the
/// bytes are paced. Callers supply the per-read timeout on the transport
/// (e.g. `TcpStream::set_read_timeout`, which surfaces as
/// `WouldBlock`/`TimedOut` errors here and covers fully idle peers); the
/// budget bounds the sum.
///
/// # Errors
///
/// Everything [`read_frame`] raises, plus `TimedOut` when the budget is
/// exhausted mid-frame. The [`MAX_FRAME_BYTES`] guard is enforced on the
/// decoded length header **before the payload buffer is allocated** — a
/// forged multi-gigabyte length prefix is rejected without reserving a
/// byte (regression-tested in the fault-injection harness).
pub fn read_frame_deadline(
    reader: &mut impl Read,
    frame_budget: Option<Duration>,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut started: Option<std::time::Instant> = None;
    let check_budget = |started: &Option<std::time::Instant>| -> std::io::Result<()> {
        if let (Some(started), Some(budget)) = (started, frame_budget) {
            if started.elapsed() > budget {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame read exceeded its time budget",
                ));
            }
        }
        Ok(())
    };
    let mut header = [0u8; 12];
    let mut filled = 0usize;
    while filled < header.len() {
        let n = reader.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(protocol_error("truncated frame header"));
        }
        if filled == 0 {
            // The budget clock starts at the frame's first byte, so an
            // idle-but-healthy connection is not penalised for waiting.
            started = Some(std::time::Instant::now());
        }
        filled += n;
        check_budget(&started)?;
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let length = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if magic != WIRE_MAGIC {
        return Err(protocol_error("bad frame magic"));
    }
    if version != WIRE_VERSION {
        return Err(protocol_error("unsupported protocol version"));
    }
    // Guard BEFORE the allocation below: the length header is
    // attacker-controlled, and `vec![0u8; 4 GiB]` must never run.
    if length > MAX_FRAME_BYTES {
        return Err(protocol_error("frame exceeds MAX_FRAME_BYTES"));
    }
    let mut payload = vec![0u8; length];
    let mut filled = 0usize;
    while filled < length {
        let n = reader.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(protocol_error("truncated frame payload"));
        }
        filled += n;
        check_budget(&started)?;
    }
    Ok(Some(payload))
}

fn protocol_error(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_circuit::generators::qft;
    use ssync_core::SwapScheduleKind;

    /// One instance of every [`Request`] variant, with a `Submit` of each
    /// input: a circuit with a deadline and QASM source without one.
    fn every_request() -> Vec<Request> {
        let circuit = RemoteRequest::new(
            "G-2x3",
            qft(8),
            CompilerKind::Dai,
            CompilerConfig::default().with_decay(0.01),
        )
        .with_priority(Priority::Batch)
        .with_tenant(TenantId::from_name("sweep"))
        .with_deadline_us(250_000);
        let qasm = RemoteRequest::new(
            "L-4",
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n",
            CompilerKind::PermRoute,
            CompilerConfig::default().with_perm_schedule(SwapScheduleKind::BubbleSort),
        )
        .with_priority(Priority::High)
        .with_tenant(TenantId::from_name("qasm"));
        vec![
            Request::Submit(Box::new(circuit)),
            Request::Submit(Box::new(qasm)),
            Request::Hello { token: "super-secret".into() },
            Request::Wait { job: 9 },
            Request::Metrics,
            Request::GetStats,
            Request::GetTrace { trace_id: u64::MAX },
            Request::Shutdown,
        ]
    }

    fn sample_metrics() -> ServiceMetrics {
        ServiceMetrics {
            jobs_submitted: 10,
            jobs_completed: 9,
            jobs_coalesced: 2,
            jobs_near_duplicate: 3,
            jobs_deadline_expired: 1,
            submitted_by_priority: [1, 5, 4],
            queue_depth: 1,
            rejected_overloaded: 7,
            rejected_unauthorized: 2,
            conns_timed_out: 3,
            janitor_gc_runs: 11,
            scoring: ScoringTelemetry {
                candidates_scored: 4242,
                scoring_passes: 99,
                readiness_memo_hits: 1717,
                frontier_rebuilds: 31,
                stall_fallback_entries: 3,
                scoring_time_ns: 5_000_000,
            },
            traces_recorded: 88,
            slow_requests: 6,
            cache: crate::cache::CacheStats {
                hits: 4,
                misses: 6,
                entries: 5,
                bytes: 12345,
                evictions: 1,
                persist_hits: 1,
                persist_stores: 5,
                persist_gc_deleted: 2,
            },
            workers: vec![WorkerMetrics { executed: 5 }, WorkerMetrics { executed: 4 }],
            uptime: Duration::from_millis(1234),
        }
    }

    /// The report of a QASM submit: every field differs.
    fn sample_report() -> ssync_qasm::ParseReport {
        ssync_qasm::ParseReport {
            measurements_stripped: 3,
            resets_stripped: 1,
            conditionals_stripped: 2,
            barriers: 4,
            gates_inlined: 7,
        }
    }

    /// One instance of every [`Response`] variant, with `Submitted` both
    /// with and without a parse report; the outcome is a routed program
    /// holding all five op kinds.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Welcome { version: WIRE_VERSION },
            Response::Submitted { job: 5, trace_id: 42, report: None },
            Response::Submitted { job: 11, trace_id: 77, report: Some(sample_report()) },
            Response::Outcome(EncodedOutcome::encode(&codec::routed_outcome())),
            Response::CompileFailed(CompileError::Overloaded { retry_after_ms: 25 }),
            Response::Rejected { reason: "unknown job".into() },
            Response::Metrics(Box::new(sample_metrics())),
            Response::ShuttingDown,
            Response::StatsText { text: "ssync_jobs_submitted 3\n".into() },
            Response::TraceDetail {
                trace_id: 42,
                span_jsonl: "{\"trace_id\":\"000000000000002a\"}".into(),
                recorder_jsonl: "{\"events\":0}\n".into(),
            },
        ]
    }

    /// A request decoded from damaged bytes is still well formed: it
    /// encodes to bytes that decode back to it exactly. Those bytes need
    /// not be the damaged ones, because a gate's unused operand or angle
    /// is dropped on decode.
    fn decodes_to_a_stable_request_or_fails(bytes: &[u8]) {
        if let Ok(request) = decode_request(bytes) {
            let encoded = encode_request(&request);
            let again = decode_request(&encoded).expect("a decoded request decodes again");
            assert_eq!(encode_request(&again), encoded, "{request:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A circuit `Submit` and a QASM `Submit` cut short, or with one
        /// byte's bits flipped, end in a codec error or a request that
        /// survives a second encode and decode unchanged — never a panic.
        #[test]
        fn damaged_submit_frames_fail_cleanly(cut in 0usize..1 << 16, at in 0usize..1 << 16, mask in 1u16..256) {
            for request in &every_request()[..2] {
                let bytes = encode_request(request);
                decodes_to_a_stable_request_or_fails(&bytes[..cut % bytes.len()]);
                let mut flipped = bytes.clone();
                flipped[at % bytes.len()] ^= mask as u8;
                decodes_to_a_stable_request_or_fails(&flipped);
            }
        }
    }

    /// Decoding and re-encoding gives back the exact bytes. The sample
    /// values differ field by field, so a dropped, defaulted or swapped
    /// field changes the bytes.
    #[test]
    fn requests_round_trip() {
        for request in every_request() {
            let bytes = encode_request(&request);
            let decoded = decode_request(&bytes).expect("round-trips");
            assert_eq!(encode_request(&decoded), bytes, "{request:?}");
        }
    }

    /// `requests_round_trip` for every response, the compiled outcome and
    /// compile error included.
    #[test]
    fn responses_round_trip() {
        for response in every_response() {
            let bytes = encode_response(&response);
            let decoded = decode_response(&bytes).expect("round-trips");
            assert_eq!(encode_response(&decoded), bytes, "{response:?}");
        }
    }

    /// A well-framed outcome whose op carries a count wider than `u16`
    /// fails to decode as invalid, exactly like any other bad value, on
    /// both the checking decoder and the client's.
    #[test]
    fn an_outcome_frame_with_an_op_count_beyond_u16_is_invalid() {
        // The payload is the response tag, then the encoded outcome.
        let mut payload = vec![OUTCOME_TAG];
        payload.extend(codec::one_gate_bytes(3, &codec::varint(u64::from(u16::MAX) + 1)));
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).expect("write");
        let read = read_frame(&mut std::io::Cursor::new(&frame)).expect("frame").expect("payload");
        let invalid = CodecError::Invalid("op count");
        assert_eq!(decode_response(&read).err(), Some(invalid.clone()));
        assert_eq!(decode_outcome_payload(&read).and_then(Result::err), Some(invalid));
    }

    /// An `Outcome` payload is the tag and the stored bytes as they are,
    /// and the client's direct decode reads the same outcome the checking
    /// decoder keeps.
    #[test]
    fn an_outcome_payload_is_the_stored_encoding() {
        let stored = EncodedOutcome::encode(&codec::routed_outcome());
        let payload = encode_response(&Response::Outcome(stored.clone()));
        assert_eq!(payload[0], OUTCOME_TAG);
        assert_eq!(&payload[1..], stored.as_bytes());
        let Response::Outcome(kept) = decode_response(&payload).expect("decodes") else {
            panic!("an outcome payload decodes to an outcome");
        };
        assert_eq!(kept, stored);
        let direct = decode_outcome_payload(&payload).expect("an outcome").expect("decodes");
        assert_eq!(EncodedOutcome::encode(&direct), stored);
        let other = encode_response(&Response::ShuttingDown);
        assert!(decode_outcome_payload(&other).is_none());
    }

    /// One protocol version: a frame stamped with any other — zero, the
    /// first, the previous or the next — is a protocol error.
    #[test]
    fn frames_stamped_with_another_version_are_rejected() {
        let payload = encode_request(&Request::Wait { job: 3 });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let read = read_frame(&mut std::io::Cursor::new(&buf)).expect("current version reads");
        assert_eq!(read, Some(payload));
        for bad in [0, 1, WIRE_VERSION - 1, WIRE_VERSION + 1] {
            let mut stamped = buf.clone();
            stamped[4..8].copy_from_slice(&bad.to_le_bytes());
            let err = read_frame(&mut std::io::Cursor::new(&stamped)).expect_err("rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "version {bad}");
        }
    }

    /// `WIRE_VERSION` is the one supported version, and every message
    /// travels under it: each request and response framed by
    /// `write_frame` is stamped with it and reads back intact.
    #[test]
    fn all_supported_versions_are_accepted() {
        let requests = every_request().iter().map(encode_request).collect::<Vec<_>>();
        let responses = every_response().iter().map(encode_response).collect::<Vec<_>>();
        for payload in requests.into_iter().chain(responses) {
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).expect("write");
            assert_eq!(buf[4..8], WIRE_VERSION.to_le_bytes(), "tag {}", payload[0]);
            let read = read_frame(&mut std::io::Cursor::new(&buf)).expect("supported version");
            assert_eq!(read, Some(payload));
        }
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let payload = encode_request(&Request::Wait { job: 3 });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        write_frame(&mut buf, &payload).expect("write");

        let mut cursor = std::io::Cursor::new(&buf);
        assert_eq!(read_frame(&mut cursor).expect("frame 1"), Some(payload.clone()));
        assert_eq!(read_frame(&mut cursor).expect("frame 2"), Some(payload.clone()));
        assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);

        // Bad magic.
        let mut corrupt = buf.clone();
        corrupt[0] ^= 0xFF;
        assert!(read_frame(&mut std::io::Cursor::new(&corrupt)).is_err());
        // Truncated header.
        assert!(read_frame(&mut std::io::Cursor::new(&buf[..6])).is_err());
        // Oversized length prefix.
        let mut oversized = buf.clone();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(&oversized)).is_err());
    }

    /// A writer that takes at most 7 bytes per call and fails the first
    /// call with `Interrupted` still receives the whole frame: the write
    /// resumes mid-header and mid-payload and retries the interruption.
    #[test]
    fn partial_and_interrupted_writes_still_send_the_whole_frame() {
        struct Choppy {
            bytes: Vec<u8>,
            interrupted: bool,
        }
        impl Write for Choppy {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let before = self.bytes.len();
                for buf in bufs {
                    let room = 7 - (self.bytes.len() - before);
                    self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
                }
                Ok(self.bytes.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for request in every_request() {
            let payload = encode_request(&request);
            let mut writer = Choppy { bytes: Vec::new(), interrupted: false };
            write_frame(&mut writer, &payload).expect("write");
            let read = read_frame(&mut std::io::Cursor::new(&writer.bytes)).expect("frame");
            assert_eq!(read, Some(payload), "{request:?}");
        }
    }

    /// Each frame is one `write_vectored` call: header and payload leave
    /// together, never as two writes.
    #[test]
    fn each_frame_is_one_vectored_write() {
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
            vectored_writes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.vectored_writes += 1;
                bufs.iter().for_each(|buf| self.bytes.extend_from_slice(buf));
                Ok(bufs.iter().map(|buf| buf.len()).sum())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = Counting::default();
        let payloads = every_request().iter().map(encode_request).collect::<Vec<_>>();
        for payload in &payloads {
            write_frame(&mut writer, payload).expect("write");
        }
        assert_eq!((writer.writes, writer.vectored_writes), (0, payloads.len()));
        let mut cursor = std::io::Cursor::new(&writer.bytes);
        for payload in payloads {
            assert_eq!(read_frame(&mut cursor).expect("frame"), Some(payload));
        }
        assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);
    }

    /// A writer that accepts nothing fails the frame instead of spinning.
    #[test]
    fn a_writer_that_accepts_nothing_fails_the_frame() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Full, &[1, 2, 3]).expect_err("nothing was written");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn welcome_responses_round_trip() {
        let bytes = encode_response(&Response::Welcome { version: WIRE_VERSION });
        match decode_response(&bytes).expect("round-trips") {
            Response::Welcome { version } => assert_eq!(version, WIRE_VERSION),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// The frame-budget reader cuts off a trickling (slow-loris) peer:
    /// bytes arriving one at a time never finish a frame inside the
    /// budget, and the read fails with `TimedOut` instead of pinning the
    /// caller forever.
    #[test]
    fn frame_budget_cuts_off_a_trickling_reader() {
        struct Trickle {
            bytes: Vec<u8>,
            pos: usize,
            delay: Duration,
        }
        impl std::io::Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.bytes.len() || buf.is_empty() {
                    return Ok(0);
                }
                std::thread::sleep(self.delay);
                buf[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let payload = encode_request(&Request::Wait { job: 1 });
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write");
        let mut trickle =
            Trickle { bytes: framed.clone(), pos: 0, delay: Duration::from_millis(8) };
        let err = read_frame_deadline(&mut trickle, Some(Duration::from_millis(20)))
            .expect_err("a trickling frame must time out");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        // The same bytes read fine when they arrive inside the budget.
        let mut quick = Trickle { bytes: framed, pos: 0, delay: Duration::from_millis(0) };
        let read = read_frame_deadline(&mut quick, Some(Duration::from_secs(5)))
            .expect("fast frames pass");
        assert_eq!(read, Some(payload));
    }

    /// A `Submitted` answering a QASM submit carries the parse report
    /// field for field; one answering a circuit carries none.
    #[test]
    fn qasm_submitted_responses_round_trip() {
        for report in [Some(sample_report()), None] {
            let bytes = encode_response(&Response::Submitted { job: 11, trace_id: 77, report });
            match decode_response(&bytes).expect("round-trips") {
                Response::Submitted { job, trace_id, report: decoded } => {
                    assert_eq!((job, trace_id), (11, 77));
                    assert_eq!(decoded, report);
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn stats_text_round_trips() {
        let text = "# HELP ssync_jobs_submitted …\nssync_jobs_submitted 3\n".to_string();
        let bytes = encode_response(&Response::StatsText { text: text.clone() });
        match decode_response(&bytes).expect("round-trips") {
            Response::StatsText { text: decoded } => assert_eq!(decoded, text),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// `TraceDetail` round-trips, and cutting its payload at ANY interior
    /// length fails cleanly with a codec error: the tag never panics and
    /// never decodes garbage.
    #[test]
    fn trace_detail_round_trips_and_rejects_every_truncation() {
        let span_jsonl = r#"{"trace_id":"000000000000002a","total_us":1234}"#.to_string();
        let recorder_jsonl =
            "{\"events\":2}\n{\"event\":\"layer_opened\",\"layer\":0}\n".to_string();
        let response = Response::TraceDetail {
            trace_id: 42,
            span_jsonl: span_jsonl.clone(),
            recorder_jsonl: recorder_jsonl.clone(),
        };
        let bytes = encode_response(&response);
        match decode_response(&bytes).expect("round-trips") {
            Response::TraceDetail { trace_id, span_jsonl: s, recorder_jsonl: r } => {
                assert_eq!(trace_id, 42);
                assert_eq!(s, span_jsonl);
                assert_eq!(r, recorder_jsonl);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A `TraceDetail` payload has no valid prefix: every cut must be
        // rejected, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_response(&bytes[..cut]).is_err(), "cut {cut} should be rejected");
        }
        // A recorder-off daemon sends the stream empty, not absent.
        let off = encode_response(&Response::TraceDetail {
            trace_id: 7,
            span_jsonl: span_jsonl.clone(),
            recorder_jsonl: String::new(),
        });
        match decode_response(&off).expect("empty stream decodes") {
            Response::TraceDetail { recorder_jsonl, .. } => assert!(recorder_jsonl.is_empty()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn metrics_responses_round_trip() {
        let metrics = sample_metrics();
        let bytes = encode_response(&Response::Metrics(Box::new(metrics.clone())));
        match decode_response(&bytes).expect("round-trips") {
            Response::Metrics(decoded) => assert_eq!(metrics, *decoded),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Truncation fuzz over every message: each payload decodes whole,
    /// while every proper prefix — and the payload plus one trailing
    /// byte — fails cleanly with a codec error, never a panic. No payload
    /// has optional tail fields, so no prefix is a valid message.
    #[test]
    fn every_message_rejects_every_truncation() {
        fn check<T>(bytes: &[u8], decode: fn(&[u8]) -> Result<T, CodecError>) {
            assert!(decode(bytes).is_ok(), "tag {}: whole payload decodes", bytes[0]);
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "tag {}: cut {cut} decoded", bytes[0]);
            }
            let mut padded = bytes.to_vec();
            padded.push(0);
            assert!(decode(&padded).is_err(), "tag {}: trailing byte accepted", bytes[0]);
        }
        for request in every_request() {
            check(&encode_request(&request), decode_request);
        }
        for response in every_response() {
            check(&encode_response(&response), decode_response);
        }
    }
}
