//! The compile service: a worker pool with priority classes and
//! per-tenant fairness over the unified compiler entry point.
//!
//! ## Scheduling structure
//!
//! Hand-rolled on `std::sync` (no external runtime). Every submission —
//! [`submit`], each request of [`submit_batch`] and every daemon request —
//! lands in one queue. It is not one deque but a small set of
//! [`Priority`] levels (High, Normal, Batch), each holding **per-tenant
//! deques** drained with *weighted deficit round-robin*: every queued
//! tenant accumulates deficit at its configured weight (default 1.0,
//! [`set_tenant_weight`]) and pays 1.0 per job served, so one tenant's
//! 10k-job sweep interleaves with — instead of starving — everyone else's
//! work at the same level. Levels are strict: a worker claims any queued
//! High job before any Normal one, and Normal before Batch.
//!
//! The levels, the tenant weights, the queued-job count and the shutdown
//! flag sit under one `Mutex`, and idle workers sleep on one `Condvar`. A
//! push, its count and a worker's decision to sleep happen under the same
//! lock, so a wakeup cannot be lost between "found the queue empty" and
//! "went to sleep".
//!
//! ## Deduplication, and its deliberate limit
//!
//! Identical requests are deduplicated twice over: completed outcomes are
//! served from the [`ResultCache`], and a request identical to a job still
//! *in flight* coalesces onto it — the submission gets a handle to the
//! same pending state instead of queuing a second compile.
//!
//! **Near-duplicates are not coalesced.** Two requests for the same
//! device and circuit under *different* configs (or compilers) run as two
//! independent compiles, even though a planner could conceivably batch
//! them onto one warm worker sharing the device artifact. That planner
//! does not exist yet; to keep the gap measurable the service counts
//! such submissions in
//! [`ServiceMetrics::jobs_near_duplicate`] — compare it against
//! `jobs_coalesced` to see what exact-duplicate coalescing misses.
//!
//! ## Determinism
//!
//! Workers race for *jobs*, never for *results*: each job's outcome is a
//! pure function of its request, and every result lands in its own
//! [`JobHandle`]. Output is therefore bit-identical to a sequential
//! [`CompilerKind::compile_on`] loop at any worker count, any priority
//! mix and any tenant labelling — priorities and fairness reorder *when*
//! a job runs, never *what* it computes. The `service_equivalence`
//! integration tests enforce exactly that.
//!
//! ## Example
//!
//! ```
//! use ssync_baselines::CompilerKind;
//! use ssync_circuit::generators::qft;
//! use ssync_core::CompilerConfig;
//! use ssync_service::{CacheBounds, CompileRequest, CompileService, Priority, TenantId};
//! use std::sync::Arc;
//!
//! let service = CompileService::builder()
//!     .workers(2)
//!     .cache_bounds(CacheBounds::with_max_entries(256))
//!     .build();
//! let config = CompilerConfig::default();
//! let device = service.registry().get_or_build_named("G-2x2", config.weights).unwrap();
//! // A bulk sweep runs at Batch priority under its own tenant ...
//! let sweep = service.submit_batch((8..=10).map(|n| {
//!     CompileRequest::new(Arc::clone(&device), Arc::new(qft(n)), CompilerKind::SSync, config)
//!         .with_priority(Priority::Batch)
//!         .with_tenant(TenantId::from_name("sweep"))
//! }));
//! // ... while an interactive request jumps every Batch job.
//! let urgent = service.submit(
//!     CompileRequest::new(Arc::clone(&device), Arc::new(qft(12)), CompilerKind::SSync, config)
//!         .with_priority(Priority::High),
//! );
//! assert!(urgent.wait().is_ok());
//! assert!(sweep.iter().all(|h| h.wait().is_ok()));
//! assert_eq!(service.metrics().jobs_completed, 4);
//! ```
//!
//! [`submit`]: CompileService::submit
//! [`submit_batch`]: CompileService::submit_batch
//! [`set_tenant_weight`]: CompileService::set_tenant_weight
//! [`CompilerKind::compile_on`]: ssync_baselines::CompilerKind::compile_on

use crate::cache::{CacheBounds, CacheConfig, CacheKey, ResultCache};
use crate::codec::EncodedOutcome;
use crate::hash::config_hash;
use crate::job::{CompileRequest, JobHandle, JobState, Priority, TenantId};
use crate::metrics::{ServiceMetrics, WorkerMetrics};
use crate::registry::DeviceRegistry;
use crate::telemetry::{kind_slug, ServiceTelemetry, Stage, TRACE_JOURNAL_CAPACITY};
use ssync_core::{CompileError, CompileOutcome, CompileScratch, RunReport, ScoringTelemetry};
use ssync_telemetry::Span;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One queued unit of work. `attached` counts the submissions sharing this
/// job's `state` (1 plus any identical requests coalesced onto it while it
/// was in flight). `registered` records whether the job holds a pending
/// (coalescing) entry that must be retired on completion —
/// deadline-carrying jobs never register (their expiry must not leak to a
/// coalesced waiter). `submitted` anchors the deadline clock.
struct Job {
    request: CompileRequest,
    key: CacheKey,
    state: Arc<JobState>,
    attached: Arc<AtomicU64>,
    registered: bool,
    submitted: Instant,
    /// The request's trace span; the worker records queue-wait, compile
    /// and cache-write stages on it and finishes it at fulfilment.
    span: Span,
}

/// A not-yet-completed job identical submissions coalesce onto.
struct PendingEntry {
    state: Arc<JobState>,
    attached: Arc<AtomicU64>,
}

/// In-flight bookkeeping: the coalescing map plus a (device, circuit)
/// pair count that detects near-duplicate submissions (same pair, new
/// key) for the metrics.
#[derive(Default)]
struct PendingState {
    jobs: HashMap<CacheKey, PendingEntry>,
    pairs: HashMap<(u64, u64), u32>,
}

/// Minimum effective tenant weight: bounds how many DRR rotations a pop
/// may need before some deficit reaches 1.0.
const MIN_TENANT_WEIGHT: f64 = 1.0 / 16.0;

/// One tenant's deque plus its deficit counter at one priority level.
struct TenantQueue<T> {
    deficit: f64,
    jobs: VecDeque<T>,
}

/// One priority level: per-tenant queues and the round-robin ring of
/// tenants that currently have work. Invariant: a tenant is in `ring`
/// exactly once iff it is in `tenants`.
struct Level<T> {
    tenants: HashMap<TenantId, TenantQueue<T>>,
    ring: VecDeque<TenantId>,
}

impl<T> Default for Level<T> {
    fn default() -> Self {
        Level { tenants: HashMap::new(), ring: VecDeque::new() }
    }
}

impl<T> Level<T> {
    fn push(&mut self, tenant: TenantId, item: T) {
        match self.tenants.entry(tenant) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                slot.get_mut().jobs.push_back(item);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let mut jobs = VecDeque::new();
                jobs.push_back(item);
                slot.insert(TenantQueue { deficit: 0.0, jobs });
                self.ring.push_back(tenant);
            }
        }
    }

    /// Weighted deficit round-robin: the front-of-ring tenant accumulates
    /// `weight` per visit and pays 1.0 per job; when its deficit drops
    /// below 1.0 (or its queue empties) the ring rotates. Deficit is not
    /// banked across idle periods — a drained tenant re-enters at zero.
    fn pop(&mut self, weights: &HashMap<TenantId, f64>) -> Option<T> {
        while let Some(&tenant) = self.ring.front() {
            let Some(queue) = self.tenants.get_mut(&tenant) else {
                self.ring.pop_front();
                continue;
            };
            if queue.jobs.is_empty() {
                self.tenants.remove(&tenant);
                self.ring.pop_front();
                continue;
            }
            if queue.deficit < 1.0 {
                let weight = weights.get(&tenant).copied().unwrap_or(1.0).max(MIN_TENANT_WEIGHT);
                queue.deficit += weight;
                if queue.deficit < 1.0 {
                    self.ring.rotate_left(1);
                    continue;
                }
            }
            queue.deficit -= 1.0;
            let item = queue.jobs.pop_front().expect("checked non-empty");
            if queue.jobs.is_empty() {
                self.tenants.remove(&tenant);
                self.ring.pop_front();
            } else if queue.deficit < 1.0 {
                self.ring.rotate_left(1);
            }
            return Some(item);
        }
        None
    }
}

/// The job queue: one [`Level`] per [`Priority`], the tenant weight
/// table, the queued-job count and the shutdown flag, all under the one
/// `Shared::queue` lock. Levels are strict; fairness lives inside each
/// level.
struct Queue<T> {
    levels: [Level<T>; 3],
    weights: HashMap<TenantId, f64>,
    /// Jobs pushed and not yet popped.
    len: usize,
    /// Set once by `Drop`; workers drain the queue, then exit.
    shutdown: bool,
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Queue { levels: Default::default(), weights: HashMap::new(), len: 0, shutdown: false }
    }
}

impl<T> Queue<T> {
    fn push(&mut self, priority: Priority, tenant: TenantId, item: T) {
        self.levels[priority.index()].push(tenant, item);
        self.len += 1;
    }

    /// The next job of the most urgent non-empty level, in DRR order.
    fn pop(&mut self) -> Option<T> {
        // Split borrow: a level is mutated, the weight table only read.
        let Queue { levels, weights, len, .. } = self;
        let item = levels.iter_mut().find_map(|level| level.pop(weights))?;
        *len -= 1;
        Some(item)
    }
}

struct Shared {
    queue: Mutex<Queue<Job>>,
    /// Signalled once per push and at shutdown; idle workers wait here.
    wake: Condvar,
    /// Whether executed compiles carry a flight recorder: every worker's
    /// [`CompileScratch`] is built with this switch.
    flight_recorder: bool,
    cache: ResultCache,
    pending: Mutex<PendingState>,
    submitted: AtomicU64,
    submitted_by_priority: [AtomicU64; 3],
    completed: AtomicU64,
    coalesced: AtomicU64,
    near_duplicate: AtomicU64,
    deadline_expired: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_unauthorized: AtomicU64,
    conns_timed_out: AtomicU64,
    janitor_gc_runs: AtomicU64,
    /// The scoring counters of every compile this pool ran, summed.
    scoring: Mutex<ScoringTelemetry>,
    executed: Vec<AtomicU64>,
    telemetry: ServiceTelemetry,
}

impl Shared {
    fn queue(&self) -> std::sync::MutexGuard<'_, Queue<Job>> {
        self.queue.lock().expect("queue lock poisoned")
    }

    /// Blocks until a job is queued and claims it; `None` once the
    /// service is shutting down and the queue is empty.
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.queue();
        loop {
            if let Some(job) = queue.pop() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.wake.wait(queue).expect("queue lock poisoned");
        }
    }
}

/// Configures and starts a [`CompileService`]; obtained from
/// [`CompileService::builder`]. This is the one place a pool is
/// configured: the service reads no environment variable, and each
/// `ssync-serviced` pool flag sets one of these values.
///
/// ```
/// use ssync_service::{CacheBounds, CompileService};
///
/// let service = CompileService::builder()
///     .workers(2)
///     .cache_bounds(CacheBounds::with_max_entries(1024))
///     .build();
/// assert_eq!(service.workers(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CompileServiceBuilder {
    workers: usize,
    cache: CacheConfig,
    trace_journal_cap: usize,
    flight_recorder: bool,
}

impl Default for CompileServiceBuilder {
    fn default() -> Self {
        CompileServiceBuilder {
            workers: 0,
            cache: CacheConfig::default(),
            trace_journal_cap: TRACE_JOURNAL_CAPACITY,
            flight_recorder: false,
        }
    }
}

impl CompileServiceBuilder {
    /// Sets the worker-thread count; `0` (the default) means the machine's
    /// available parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the result cache's entry/byte bounds (default
    /// [`CacheBounds::UNBOUNDED`]).
    pub fn cache_bounds(mut self, bounds: CacheBounds) -> Self {
        self.cache.bounds = bounds;
        self
    }

    /// Enables the write-through persistent cache tier rooted at `dir`.
    pub fn persist_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache.persist_dir = Some(dir.into());
        self
    }

    /// Byte budget for the persistent cache directory, enforced at
    /// startup by deleting `.outcome` files oldest-mtime-first (see
    /// [`CacheConfig`]). Unbounded by default.
    pub fn persist_max_bytes(mut self, bytes: u64) -> Self {
        self.cache.persist_max_bytes = Some(bytes);
        self
    }

    /// Age budget for the persistent cache directory (startup GC).
    /// Unbounded by default.
    pub fn persist_max_age(mut self, age: std::time::Duration) -> Self {
        self.cache.persist_max_age = Some(age);
        self
    }

    /// Sets how many recent traces the in-memory journal retains (default
    /// [`TRACE_JOURNAL_CAPACITY`]); `0` is clamped to 1. The cap bounds
    /// how far back `GetTrace` can reach — and, because a journal slot
    /// holds the only reference to its compile's flight recording, how
    /// much recorder memory a busy daemon retains: evicting a trace frees
    /// its recording.
    pub fn trace_journal_cap(mut self, cap: usize) -> Self {
        self.trace_journal_cap = cap;
        self
    }

    /// Enables (or disables, the default) the compile flight recorder:
    /// every executed compile fills a bounded in-memory event ring that is
    /// retained alongside the trace and served by `GetTrace`. The recorder
    /// is observation-only: compiled output is bit-identical either way,
    /// and the switch lives on each worker's [`CompileScratch`], not in
    /// any request's config or cache key.
    pub fn flight_recorder(mut self, enabled: bool) -> Self {
        self.flight_recorder = enabled;
        self
    }

    /// Starts the service.
    pub fn build(self) -> CompileService {
        let workers = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            flight_recorder: self.flight_recorder,
            cache: ResultCache::with_config(self.cache),
            pending: Mutex::new(PendingState::default()),
            submitted: AtomicU64::new(0),
            submitted_by_priority: Default::default(),
            completed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            near_duplicate: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_unauthorized: AtomicU64::new(0),
            conns_timed_out: AtomicU64::new(0),
            janitor_gc_runs: AtomicU64::new(0),
            scoring: Mutex::default(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            telemetry: ServiceTelemetry::with_journal_cap(self.trace_journal_cap),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ssync-service-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn service worker")
            })
            .collect();
        CompileService {
            shared,
            registry: DeviceRegistry::new(),
            workers: handles,
            started: Instant::now(),
        }
    }
}

/// A long-lived, multi-tenant compile service; see the module docs for the
/// scheduling structure. Owns a [`DeviceRegistry`], a [`ResultCache`] and
/// a fixed pool of worker threads, each carrying one reusable
/// [`CompileScratch`] across every job it executes. Dropping the service
/// finishes all outstanding jobs, then joins the workers.
pub struct CompileService {
    shared: Arc<Shared>,
    registry: DeviceRegistry,
    workers: Vec<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for CompileService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileService").field("workers", &self.workers.len()).finish()
    }
}

impl Default for CompileService {
    fn default() -> Self {
        Self::new()
    }
}

impl CompileService {
    /// Starts a service with the builder's defaults: one worker per
    /// available core, an unbounded memory-only cache, no flight recorder.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// A builder for explicit worker counts, cache bounds, the persistent
    /// cache tier and the trace settings.
    pub fn builder() -> CompileServiceBuilder {
        CompileServiceBuilder::default()
    }

    /// [`CompileService::new`] with `workers` worker threads (`0` = one
    /// per available core).
    pub fn with_workers(workers: usize) -> Self {
        Self::builder().workers(workers).build()
    }

    /// The service's device registry; register machines here and hand the
    /// returned `Arc` to [`CompileRequest`]s.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// The result cache (for stats and tests).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Whether executed compiles carry a flight recorder (see
    /// [`CompileServiceBuilder::flight_recorder`]).
    pub fn flight_recorder_enabled(&self) -> bool {
        self.shared.flight_recorder
    }

    /// Jobs currently queued and not yet claimed by a worker — the
    /// instantaneous backlog the front-end's admission control compares
    /// against its watermark. Cheap enough to call per request (one short
    /// mutex hold).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue().len
    }

    /// Counts one request shed at admission with
    /// [`CompileError::Overloaded`]; called by front-ends enforcing the
    /// queue-depth watermark / in-flight caps so the rejection shows up
    /// in [`ServiceMetrics::rejected_overloaded`].
    pub fn note_rejected_overloaded(&self) {
        self.shared.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection rejected by the shared-token auth check
    /// ([`ServiceMetrics::rejected_unauthorized`]).
    pub fn note_rejected_unauthorized(&self) {
        self.shared.rejected_unauthorized.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection closed on a read timeout — idle, half-open
    /// or slow-loris peers ([`ServiceMetrics::conns_timed_out`]).
    pub fn note_conn_timed_out(&self) {
        self.shared.conns_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs the result cache's persistent-tier garbage collection now
    /// (see [`ResultCache::run_persist_gc`]) and counts the run in
    /// [`ServiceMetrics::janitor_gc_runs`]. The janitor thread calls
    /// this periodically so a long-lived daemon's cache directory stays
    /// within its byte/age budgets instead of only being trimmed at
    /// startup. Returns how many `.outcome` files were deleted.
    pub fn run_persist_gc(&self) -> u64 {
        let deleted = self.shared.cache.run_persist_gc();
        self.shared.janitor_gc_runs.fetch_add(1, Ordering::Relaxed);
        deleted
    }

    /// Spawns the cache **janitor**: a background thread that calls
    /// [`CompileService::run_persist_gc`] every `interval` until the
    /// returned [`Janitor`] is dropped (the drop joins the thread, so it
    /// cannot outlive the `Arc<CompileService>` it holds). One run
    /// happens immediately at spawn, making short-interval tests
    /// deterministic about "at least one run".
    pub fn spawn_janitor(self: &Arc<Self>, interval: std::time::Duration) -> Janitor {
        let service = Arc::clone(self);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ssync-service-janitor".into())
            .spawn(move || {
                service.run_persist_gc();
                let (flag, wake) = &*signal;
                let mut stopped = flag.lock().expect("janitor lock poisoned");
                loop {
                    let (guard, timeout) =
                        wake.wait_timeout(stopped, interval).expect("janitor lock poisoned");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        service.run_persist_gc();
                    }
                }
            })
            .expect("spawn janitor thread");
        Janitor { stop, handle: Some(handle) }
    }

    /// Sets `tenant`'s fair-share weight (default 1.0): a tenant with
    /// weight 2.0 receives twice the share of its priority level while
    /// both are backlogged. Weights below 1/16 are clamped up at drain
    /// time. Affects only scheduling order, never outputs.
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: f64) {
        self.shared.queue().weights.insert(tenant, weight);
    }

    /// Submits one request and returns its handle. The request carries its
    /// [`Priority`] and [`TenantId`] (see [`CompileRequest::with_priority`]
    /// / [`CompileRequest::with_tenant`]). If an identical request (same
    /// device fingerprint, circuit content, output-affecting config and
    /// compiler) completed before, the handle is fulfilled immediately
    /// from the [`ResultCache`] and no job is queued.
    pub fn submit(&self, request: CompileRequest) -> JobHandle {
        self.submit_with_span(request, self.shared.telemetry.begin_trace())
    }

    /// [`CompileService::submit`], additionally returning the request's
    /// trace [`Span`] so the caller can read the server-assigned trace id,
    /// attach its own events (the wire front-end records response
    /// delivery) and inspect the timeline afterwards.
    pub fn submit_traced(&self, request: CompileRequest) -> (JobHandle, Span) {
        let span = self.shared.telemetry.begin_trace();
        let handle = self.submit_with_span(request, span.clone());
        (handle, span)
    }

    /// The telemetry hub: per-stage latency histograms, the recent-trace
    /// journal and the slow-request threshold.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.shared.telemetry
    }

    /// [`CompileService::submit`]s each request in order and returns the
    /// handles in request order. A batch gets no path of its own: its jobs
    /// share their priority level with every other tenant's.
    pub fn submit_batch(
        &self,
        requests: impl IntoIterator<Item = CompileRequest>,
    ) -> Vec<JobHandle> {
        requests.into_iter().map(|request| self.submit(request)).collect()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            jobs_submitted: self.shared.submitted.load(Ordering::Relaxed),
            jobs_completed: self.shared.completed.load(Ordering::Relaxed),
            jobs_coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            jobs_near_duplicate: self.shared.near_duplicate.load(Ordering::Relaxed),
            jobs_deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
            submitted_by_priority: [
                self.shared.submitted_by_priority[0].load(Ordering::Relaxed),
                self.shared.submitted_by_priority[1].load(Ordering::Relaxed),
                self.shared.submitted_by_priority[2].load(Ordering::Relaxed),
            ],
            queue_depth: self.queue_depth(),
            rejected_overloaded: self.shared.rejected_overloaded.load(Ordering::Relaxed),
            rejected_unauthorized: self.shared.rejected_unauthorized.load(Ordering::Relaxed),
            conns_timed_out: self.shared.conns_timed_out.load(Ordering::Relaxed),
            janitor_gc_runs: self.shared.janitor_gc_runs.load(Ordering::Relaxed),
            scoring: *self.shared.scoring.lock().expect("scoring lock poisoned"),
            traces_recorded: self.shared.telemetry.traces_recorded(),
            slow_requests: self.shared.telemetry.slow_requests(),
            cache: self.shared.cache.stats(),
            workers: self
                .shared
                .executed
                .iter()
                .map(|e| WorkerMetrics { executed: e.load(Ordering::Relaxed) })
                .collect(),
            uptime: self.started.elapsed(),
        }
    }

    /// Submission under a caller-created span (the front-end starts the
    /// span *before* parsing QASM so the parse stage lands on the same
    /// trace). Requests resolved at submission — cache hits and coalesced
    /// attachments — finish their trace immediately with an `outcome`
    /// attribute saying so; queued requests hand the span to the worker.
    pub(crate) fn submit_with_span(&self, request: CompileRequest, span: Span) -> JobHandle {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.submitted_by_priority[request.priority.index()].fetch_add(1, Ordering::Relaxed);
        let telemetry = &self.shared.telemetry;
        let priority = request.priority;
        let kind = request.compiler;
        telemetry.span_attr(&span, "priority", priority.label());
        telemetry.span_attr(&span, "compiler", kind_slug(kind));
        let key_started = Instant::now();
        let key = CacheKey {
            device_fingerprint: request.device.fingerprint(),
            circuit_hash: request.circuit.content_hash(),
            config_hash: config_hash(&request.config),
            compiler: request.compiler,
        };
        let key_time = key_started.elapsed();
        telemetry.span_record(&span, "cache_key", key_time);
        telemetry.record(Stage::CacheKey, priority, kind, key_time);
        let lookup_started = Instant::now();
        let cached = self.shared.cache.get(&key);
        let lookup = lookup_started.elapsed();
        telemetry.span_record(&span, "cache_lookup", lookup);
        telemetry.record(Stage::CacheLookup, priority, kind, lookup);
        if let Some(cached) = cached {
            let (handle, state) = JobHandle::new();
            state.fulfil(Ok(cached), None);
            self.shared.completed.fetch_add(1, Ordering::Relaxed);
            telemetry.span_attr(&span, "outcome", "cache_hit");
            telemetry.finish_request(&span, priority, kind);
            return handle;
        }
        // Deadline-carrying requests bypass coalescing in both directions:
        // they never attach to an in-flight twin (whose completion may
        // come after the deadline, which the attached handle could not
        // express) and never register as attachable (their expiry must
        // not surface on a deadline-free waiter). Cache hits above still
        // apply — a finished outcome costs nothing to hand out.
        if request.deadline_us.is_some() {
            let (handle, state) = JobHandle::new();
            let attached = Arc::new(AtomicU64::new(1));
            let job = Job {
                key,
                state,
                attached,
                registered: false,
                submitted: Instant::now(),
                request,
                span,
            };
            self.enqueue(job);
            return handle;
        }
        // Coalesce onto an identical in-flight job, or register a new one.
        // Registration happens under the pending lock so two racing
        // identical submissions cannot both enqueue.
        let pair = (key.device_fingerprint, key.circuit_hash);
        let (handle, state, attached) = {
            let mut pending = self.shared.pending.lock().expect("pending lock poisoned");
            if let Some(entry) = pending.jobs.get(&key) {
                entry.attached.fetch_add(1, Ordering::Relaxed);
                self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                // The attached submission's own trace ends here; the
                // in-flight twin's span keeps the compile timeline.
                telemetry.span_attr(&span, "outcome", "coalesced");
                telemetry.finish_request(&span, priority, kind);
                return JobHandle { state: Arc::clone(&entry.state) };
            }
            // Re-check the cache under the pending lock: a worker retires
            // its pending entry only *after* inserting the outcome, so an
            // identical job that vanished from `pending` between our two
            // lookups is guaranteed to be visible here (lock order is
            // always pending → cache; workers never hold both).
            if let Some(cached) = self.shared.cache.get(&key) {
                let (handle, state) = JobHandle::new();
                state.fulfil(Ok(cached), None);
                self.shared.completed.fetch_add(1, Ordering::Relaxed);
                telemetry.span_attr(&span, "outcome", "cache_hit");
                telemetry.finish_request(&span, priority, kind);
                return handle;
            }
            // Same (device, circuit) already in flight under a different
            // config/compiler: the near-duplicate coalescing deliberately
            // skips — count it so the gap stays measurable.
            if pending.pairs.get(&pair).copied().unwrap_or(0) > 0 {
                self.shared.near_duplicate.fetch_add(1, Ordering::Relaxed);
            }
            let (handle, state) = JobHandle::new();
            let attached = Arc::new(AtomicU64::new(1));
            pending.jobs.insert(
                key,
                PendingEntry { state: Arc::clone(&state), attached: Arc::clone(&attached) },
            );
            *pending.pairs.entry(pair).or_insert(0) += 1;
            (handle, state, attached)
        };
        let job = Job {
            request,
            key,
            state,
            attached,
            registered: true,
            submitted: Instant::now(),
            span,
        };
        self.enqueue(job);
        handle
    }

    /// Pushes a built job onto the queue and wakes one idle worker.
    fn enqueue(&self, job: Job) {
        let (priority, tenant) = (job.request.priority, job.request.tenant);
        self.shared.queue().push(priority, tenant, job);
        self.shared.wake.notify_one();
    }
}

/// Handle to the janitor thread spawned by
/// [`CompileService::spawn_janitor`]; dropping it stops and joins the
/// thread.
pub struct Janitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Janitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Janitor").finish_non_exhaustive()
    }
}

impl Drop for Janitor {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().expect("janitor lock poisoned") = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        // No panic in `drop`: a poisoned lock still takes the flag.
        self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut scratch = CompileScratch::new(shared.flight_recorder);
    while let Some(job) = shared.next_job() {
        execute(shared, me, job, &mut scratch);
    }
}

fn execute(shared: &Shared, me: usize, job: Job, scratch: &mut CompileScratch) {
    let Job { request, key, state, attached, registered, submitted, span } = job;
    let priority = request.priority;
    let kind = request.compiler;
    let queue_wait = submitted.elapsed();
    shared.telemetry.span_record(&span, "queue_wait", queue_wait);
    shared.telemetry.record(Stage::QueueWait, priority, kind, queue_wait);
    // An expired deadline settles the job without a compile: the claim
    // itself is the only worker time spent. `deadline_us == 0` always
    // expires, which the tests use for determinism.
    let expired =
        request.deadline_us.filter(|&d| submitted.elapsed() >= std::time::Duration::from_micros(d));
    let ran_compile = expired.is_none();
    let compiled = match expired {
        Some(deadline_us) => {
            shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
            Err(CompileError::DeadlineExceeded { deadline_us })
        }
        None => {
            let compile_started = Instant::now();
            let compiled = run_compile(&request, scratch).unwrap_or_else(|panic_message| {
                // A panicking compile must not take the worker (and every
                // queued tenant behind it) down; surface it on the one
                // affected handle and replace the possibly-inconsistent
                // scratch, keeping the pool's recorder switch.
                *scratch = CompileScratch::new(shared.flight_recorder);
                Err(CompileError::Internal { message: panic_message })
            });
            let compile_time = compile_started.elapsed();
            shared.telemetry.span_record(&span, "compile", compile_time);
            shared.telemetry.record(Stage::Compile, priority, kind, compile_time);
            compiled
        }
    };
    // The outcome goes to the cache and the waiters; the run report goes
    // to the pool's counters, the span and, with its recording, the trace
    // journal alone.
    let (result, outcome, recording) = match compiled {
        Ok((outcome, report)) => {
            let scoring = report.scoring;
            shared.scoring.lock().expect("scoring lock poisoned").merge(&scoring);
            // Per-request scoring work as span attributes, so the
            // slow-request JSONL and GetTrace show what this compile cost
            // — not just the pool-wide aggregates.
            let t = &shared.telemetry;
            t.span_attr(&span, "candidates_scored", scoring.candidates_scored.to_string());
            t.span_attr(&span, "scoring_passes", scoring.scoring_passes.to_string());
            t.span_attr(&span, "readiness_memo_hits", scoring.readiness_memo_hits.to_string());
            t.span_attr(&span, "frontier_rebuilds", scoring.frontier_rebuilds.to_string());
            t.span_attr(
                &span,
                "stall_fallback_entries",
                scoring.stall_fallback_entries.to_string(),
            );
            // Encode once: the cache keeps these bytes and the front-end
            // writes them as they are. Insert into the cache *before*
            // retiring the pending entry: identical submissions racing
            // this completion find the job in at least one of the two, so
            // nothing recompiles.
            let write_started = Instant::now();
            let encoded = EncodedOutcome::encode(&outcome);
            shared.cache.insert(key, encoded.clone());
            t.span_record(&span, "cache_write", write_started.elapsed());
            (Ok(encoded), Some(Arc::new(outcome)), report.recording.map(Arc::new))
        }
        Err(error) => (Err(error), None, None),
    };
    if registered {
        let mut pending = shared.pending.lock().expect("pending lock poisoned");
        pending.jobs.remove(&key);
        let pair = (key.device_fingerprint, key.circuit_hash);
        if let Some(count) = pending.pairs.get_mut(&pair) {
            *count -= 1;
            if *count == 0 {
                pending.pairs.remove(&pair);
            }
        }
    }
    // No further submissions can attach past this point; settle every
    // request sharing this job. Counters move before the fulfilment wakes
    // any waiter, so a caller that observed `wait()` returning sees its
    // own job in the metrics. Expired jobs never ran a compile, so the
    // per-worker executed counter (the "compiles run" metric) skips them.
    if ran_compile {
        shared.executed[me].fetch_add(1, Ordering::Relaxed);
    }
    let outcome_label = match (&result, ran_compile) {
        (_, false) => "deadline_expired",
        (Ok(_), true) => "compiled",
        (Err(_), true) => "compile_failed",
    };
    shared.telemetry.span_attr(&span, "outcome", outcome_label);
    shared.telemetry.finish_request_with(&span, priority, kind, recording);
    shared.completed.fetch_add(attached.load(Ordering::Relaxed), Ordering::Relaxed);
    state.fulfil(result, outcome);
}

/// Runs one compile under the request's own config — the one its cache
/// key was computed from — catching panics; `Err` carries the panic
/// message.
fn run_compile(
    request: &CompileRequest,
    scratch: &mut CompileScratch,
) -> Result<Result<(CompileOutcome, RunReport), CompileError>, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        request.compiler.compile_on_with(
            request.device.device(),
            &request.circuit,
            &request.config,
            scratch,
        )
    }))
    .map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "compile worker panicked".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_arch::QccdTopology;
    use ssync_baselines::CompilerKind;
    use ssync_circuit::generators::qft;
    use ssync_circuit::Circuit;
    use ssync_core::CompilerConfig;

    fn request(
        service: &CompileService,
        circuit: &Arc<Circuit>,
        kind: CompilerKind,
        config: &CompilerConfig,
    ) -> CompileRequest {
        let device = service.registry().get_or_build_named("G-2x2", config.weights).unwrap();
        CompileRequest::new(device, Arc::clone(circuit), kind, *config)
    }

    /// `a` and `b` are the same compile: equal ops, placement, report bits
    /// and scheduler stats.
    fn assert_same_compile(a: &CompileOutcome, b: &CompileOutcome) {
        assert_eq!(a.program().ops(), b.program().ops());
        assert_eq!(a.final_placement(), b.final_placement());
        assert_eq!(a.scheduler_stats(), b.scheduler_stats());
        assert_eq!(a.report().success_rate.to_bits(), b.report().success_rate.to_bits());
        assert_eq!(a.report().total_time_us.to_bits(), b.report().total_time_us.to_bits());
    }

    /// The stored encoding a settled handle holds.
    fn encoding(handle: &JobHandle) -> EncodedOutcome {
        handle.wait_encoded().expect("compiles")
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let service = CompileService::with_workers(2);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let handle = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        let outcome = handle.wait().expect("compiles");
        assert_eq!(outcome.counts().two_qubit_gates, circuit.two_qubit_gate_count());
        // try_poll after completion sees the same shared outcome.
        let polled = handle.try_poll().expect("done").expect("ok");
        assert!(Arc::ptr_eq(&outcome, &polled));
    }

    /// A hit is decoded from the bytes the first compile stored, so it is
    /// a new `Arc` of the same compile sharing that one encoding.
    #[test]
    fn identical_resubmission_is_served_from_cache() {
        let service = CompileService::with_workers(2);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let first = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        let compiled = first.wait().expect("compiles");
        let second = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        assert_same_compile(&compiled, &second.wait().expect("hits"));
        assert!(EncodedOutcome::ptr_eq(&encoding(&first), &encoding(&second)));
        let metrics = service.metrics();
        assert_eq!(metrics.cache.hits, 1);
        assert_eq!(metrics.jobs_executed(), 1, "second request must not recompile");
        assert_eq!(metrics.jobs_submitted, 2);
        assert_eq!(metrics.jobs_completed, 2);
    }

    /// Every hit on one key hands out the buffer the compile stored: the
    /// pool encodes an outcome once and never copies it afterwards.
    #[test]
    fn hits_on_one_key_share_the_stored_encoding() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let submit = || service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        let compiled = submit();
        compiled.wait().expect("compiles");
        let (first, second) = (submit(), submit());
        assert!(EncodedOutcome::ptr_eq(&encoding(&first), &encoding(&second)));
        assert!(EncodedOutcome::ptr_eq(&encoding(&compiled), &encoding(&first)));
        assert_same_compile(&first.wait().expect("hits"), &second.wait().expect("hits"));
        let metrics = service.metrics();
        assert_eq!((metrics.cache.hits, metrics.jobs_executed()), (2, 1));
        assert_eq!(metrics.cache.bytes, encoding(&compiled).as_bytes().len());
    }

    #[test]
    fn flight_recordings_ride_the_trace_journal() {
        let service = CompileService::builder()
            .workers(1)
            .flight_recorder(true)
            .trace_journal_cap(8)
            .cache_bounds(CacheBounds::with_max_entries(16))
            .build();
        assert!(service.flight_recorder_enabled());
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let (handle, span) =
            service.submit_traced(request(&service, &circuit, CompilerKind::SSync, &config));
        let outcome = handle.wait().expect("compiles");
        let (record, recording) =
            service.telemetry().trace_detail(span.trace_id()).expect("trace journaled");
        assert_eq!(record.trace_id, span.trace_id());
        let recording = recording.expect("recorder on retains the event stream");
        assert!(!recording.events.is_empty());
        // The request's scoring work rides the span as attributes.
        assert!(record.attrs.iter().any(|(k, _)| *k == "candidates_scored"));

        // Recorder off (the default): same compile, no recording anywhere.
        let plain = CompileService::with_workers(1);
        assert!(!plain.flight_recorder_enabled());
        let (handle, span) =
            plain.submit_traced(request(&plain, &circuit, CompilerKind::SSync, &config));
        let bare = handle.wait().expect("compiles");
        assert_eq!(outcome.program().ops(), bare.program().ops(), "recorder never steers");
        let (_, recording) = plain.telemetry().trace_detail(span.trace_id()).expect("journaled");
        assert!(recording.is_none());
    }

    /// A recording lives exactly as long as its trace's journal slot: the
    /// cached outcome does not hold it, so the journal cap bounds recorder
    /// memory however many outcomes the cache keeps.
    #[test]
    fn the_trace_journal_alone_keeps_a_recording_alive() {
        let service = CompileService::builder()
            .workers(1)
            .flight_recorder(true)
            .trace_journal_cap(1)
            .cache_bounds(CacheBounds::UNBOUNDED)
            .build();
        let config = CompilerConfig::default();
        let device = service
            .registry()
            .get_or_build("tight", config.weights, || QccdTopology::grid(2, 2, 8));
        let compile = |n: usize| {
            let request = CompileRequest::new(
                Arc::clone(&device),
                Arc::new(qft(n)),
                CompilerKind::SSync,
                config,
            );
            let (handle, span) = service.submit_traced(request);
            handle.wait().expect("compiles");
            span.trace_id()
        };
        let first = compile(12);
        let (_, recording) = service.telemetry().trace_detail(first).expect("journaled");
        let recording = Arc::downgrade(&recording.expect("recorder on"));
        compile(6);
        compile(7);
        assert!(service.telemetry().trace_detail(first).is_none(), "cap 1 evicted the trace");
        assert_eq!(service.cache().len(), 3, "every outcome is still cached");
        assert!(recording.upgrade().is_none(), "evicting the trace freed its recording");
    }

    #[test]
    fn config_changes_bypass_the_cache() {
        let service = CompileService::with_workers(1);
        let circuit = Arc::new(qft(10));
        let base = CompilerConfig::default();
        service.submit(request(&service, &circuit, CompilerKind::SSync, &base)).wait().unwrap();
        let changed = base.with_decay(0.01);
        service.submit(request(&service, &circuit, CompilerKind::SSync, &changed)).wait().unwrap();
        let metrics = service.metrics();
        assert_eq!(metrics.cache.hits, 0);
        assert_eq!(metrics.jobs_executed(), 2);
        assert_eq!(service.cache().len(), 2);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let service = CompileService::with_workers(2);
        let config = CompilerConfig::default();
        // 8 slots cannot hold 12 qubits + 1 space.
        let device =
            service.registry().get_or_build("tiny", config.weights, || QccdTopology::linear(2, 4));
        let circuit = Arc::new(qft(12));
        let handle = service.submit(CompileRequest::new(
            device,
            Arc::clone(&circuit),
            CompilerKind::SSync,
            config,
        ));
        assert!(matches!(
            handle.wait(),
            Err(CompileError::DeviceTooSmall { qubits: 12, slots: 8 })
        ));
        assert!(service.cache().is_empty(), "errors are not cached");
    }

    /// Handles line up with requests, and a failing request in the middle
    /// of the batch settles its error at its own index.
    #[test]
    fn batch_handles_come_back_in_request_order() {
        let service = CompileService::with_workers(3);
        let config = CompilerConfig::default();
        let circuits: Vec<Arc<Circuit>> = (6..=12).map(|n| Arc::new(qft(n))).collect();
        let mut requests: Vec<_> =
            circuits.iter().map(|c| request(&service, c, CompilerKind::SSync, &config)).collect();
        // 8 slots cannot hold 12 qubits + 1 space.
        let tiny =
            service.registry().get_or_build("tiny", config.weights, || QccdTopology::linear(2, 4));
        let too_big = CompileRequest::new(tiny, Arc::new(qft(12)), CompilerKind::SSync, config);
        requests.insert(3, too_big);
        let mut handles = service.submit_batch(requests);
        assert_eq!(handles.len(), circuits.len() + 1);
        assert!(matches!(
            handles.remove(3).wait(),
            Err(CompileError::DeviceTooSmall { qubits: 12, slots: 8 })
        ));
        for (circuit, handle) in circuits.iter().zip(&handles) {
            let outcome = handle.wait().expect("compiles");
            assert_eq!(outcome.counts().two_qubit_gates, circuit.two_qubit_gate_count());
        }
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_completed, circuits.len() as u64 + 1);
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(metrics.workers.len(), 3);
    }

    #[test]
    fn identical_submissions_never_compile_twice() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(14));
        // A High blocker keeps the one worker busy while ten identical
        // requests arrive, so the first queues and the other nine coalesce
        // onto it, and every handle shares its one outcome. A request that
        // arrived after completion would be a cache hit, which decodes its
        // own `Arc` from the stored bytes
        // (`hits_on_one_key_share_the_stored_encoding`).
        let blocker = service.submit(
            request(&service, &Arc::new(qft(40)), CompilerKind::SSync, &config)
                .with_priority(Priority::High),
        );
        let handles: Vec<_> = (0..10)
            .map(|_| service.submit(request(&service, &circuit, CompilerKind::SSync, &config)))
            .collect();
        let outcomes: Vec<_> = handles.iter().map(|h| h.wait().expect("compiles")).collect();
        for outcome in &outcomes {
            assert!(Arc::ptr_eq(outcome, &outcomes[0]), "all handles share one outcome");
        }
        blocker.wait().expect("compiles");
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_executed(), 2, "one compile serves all ten, beside the blocker");
        assert_eq!(metrics.jobs_submitted, 11);
        assert_eq!(metrics.jobs_completed, 11);
        assert_eq!((metrics.jobs_coalesced, metrics.cache.hits), (9, 0));
    }

    #[test]
    fn a_panicking_job_reports_internal_error_and_spares_the_pool() {
        let service = CompileService::builder().workers(1).flight_recorder(true).build();
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(8));
        // A device registered under different weights than the request's
        // config trips the compile-entry assertion inside the worker.
        let mismatched = service.registry().get_or_build(
            "mismatched",
            ssync_arch::WeightConfig::with_ratio(100.0),
            || QccdTopology::grid(2, 2, 6),
        );
        let bad = service.submit(CompileRequest::new(
            mismatched,
            Arc::clone(&circuit),
            CompilerKind::SSync,
            config,
        ));
        assert!(matches!(bad.wait(), Err(CompileError::Internal { .. })));
        // The (sole) worker survives and keeps serving, and its fresh
        // scratch keeps the pool's recorder switch.
        let (good, span) =
            service.submit_traced(request(&service, &circuit, CompilerKind::SSync, &config));
        good.wait().expect("compiles after the panic");
        let (_, recording) = service.telemetry().trace_detail(span.trace_id()).expect("journaled");
        assert!(recording.is_some(), "the scratch reset kept the recorder on");
    }

    #[test]
    fn drop_drains_outstanding_jobs() {
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(12));
        let handles = {
            let service = CompileService::with_workers(2);
            service.submit_batch(
                (0..6).map(|_| request(&service, &circuit, CompilerKind::SSync, &config)),
            )
            // service dropped here with jobs possibly still queued
        };
        for handle in handles {
            assert!(handle.wait().is_ok(), "drop must finish outstanding work");
        }
    }

    #[test]
    fn priorities_and_tenants_never_change_results() {
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let plain = CompileService::with_workers(2);
        let expected = plain
            .submit(request(&plain, &circuit, CompilerKind::SSync, &config))
            .wait()
            .expect("compiles");
        let service = CompileService::with_workers(2);
        service.set_tenant_weight(TenantId::from_name("sweeper"), 2.0);
        for (priority, tenant) in [
            (Priority::High, TenantId::from_name("interactive")),
            (Priority::Batch, TenantId::from_name("sweeper")),
            (Priority::Normal, TenantId::ANON),
        ] {
            // Later shapes are cache hits — which must themselves be the
            // bit-identical outcome, so the assertions still bite.
            let got = service
                .submit(
                    request(&service, &circuit, CompilerKind::SSync, &config)
                        .with_priority(priority)
                        .with_tenant(tenant),
                )
                .wait()
                .expect("compiles");
            assert_eq!(expected.program().ops(), got.program().ops(), "{priority:?}");
            assert_eq!(expected.final_placement(), got.final_placement(), "{priority:?}");
        }
        let metrics = service.metrics();
        assert_eq!(metrics.submitted_at(Priority::High), 1);
        assert_eq!(metrics.submitted_at(Priority::Normal), 1);
        assert_eq!(metrics.submitted_at(Priority::Batch), 1);
    }

    #[test]
    fn near_duplicates_are_counted_not_coalesced() {
        let service = CompileService::with_workers(1);
        let base = CompilerConfig::default();
        let circuit = Arc::new(qft(16));
        // Same device+circuit under three different configs, submitted
        // back-to-back: with one worker at least the later ones find an
        // earlier one still pending.
        let handles: Vec<_> = [base, base.with_decay(0.01), base.with_decay(0.02)]
            .iter()
            .map(|cfg| service.submit(request(&service, &circuit, CompilerKind::SSync, cfg)))
            .collect();
        for handle in &handles {
            handle.wait().expect("compiles");
        }
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_coalesced, 0, "different configs never coalesce");
        assert_eq!(metrics.jobs_executed(), 3, "all three compiled independently");
        assert!(
            metrics.jobs_near_duplicate >= 1,
            "the measurable gap: near-duplicates were in flight together"
        );
    }

    /// The queue drains priorities strictly and tenants fairly within a
    /// level; tested on the raw structure so the order is fully
    /// deterministic.
    #[test]
    fn injector_is_strict_across_priorities_and_fair_within() {
        let mut queue: Queue<&'static str> = Queue::default();
        let (a, b) = (TenantId::from_name("a"), TenantId::from_name("b"));
        queue.push(Priority::Batch, a, "batch-a1");
        queue.push(Priority::Batch, a, "batch-a2");
        queue.push(Priority::Normal, a, "norm-a1");
        queue.push(Priority::High, b, "high-b1");
        assert_eq!(queue.len, 4);
        // Strict priority: High, then Normal, then Batch.
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(order, ["high-b1", "norm-a1", "batch-a1", "batch-a2"]);
        assert_eq!(queue.len, 0);

        // Fairness: tenant A's long backlog interleaves 1:1 with B's.
        let mut queue: Queue<u32> = Queue::default();
        for i in 0..6 {
            queue.push(Priority::Batch, a, i); // 0..6 from A
        }
        for i in 10..13 {
            queue.push(Priority::Batch, b, i); // 10..13 from B
        }
        let drained: Vec<u32> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(drained, [0, 10, 1, 11, 2, 12, 3, 4, 5]);
    }

    /// A weight-2 tenant receives two slots per round while backlogged.
    #[test]
    fn tenant_weights_shift_the_interleave() {
        let mut queue: Queue<u32> = Queue::default();
        let (heavy, light) = (TenantId::from_name("heavy"), TenantId::from_name("light"));
        queue.weights.insert(heavy, 2.0);
        for i in 0..6 {
            queue.push(Priority::Normal, heavy, i);
        }
        for i in 10..13 {
            queue.push(Priority::Normal, light, i);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(drained, [0, 1, 10, 2, 3, 11, 4, 5, 12]);
    }

    /// A Normal batch shares its level with every other tenant: a lone
    /// request submitted after a six-job sweep runs before the sweep ends.
    #[test]
    fn a_normal_batch_interleaves_with_other_tenants() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let qft_request =
            |n: usize| request(&service, &Arc::new(qft(n)), CompilerKind::SSync, &config);
        // A High blocker keeps the one worker busy while the rest queue.
        let blocker = service.submit(qft_request(40).with_priority(Priority::High));
        let sweep = service.submit_batch(
            (6..12).map(|n| qft_request(n).with_tenant(TenantId::from_name("sweep"))),
        );
        let (lone, span) =
            service.submit_traced(qft_request(5).with_tenant(TenantId::from_name("interactive")));
        for handle in sweep.iter().chain([&blocker, &lone]) {
            handle.wait().expect("compiles");
        }
        let traces = service.telemetry().recent_traces();
        assert_eq!(traces.len(), 8);
        let position = traces.iter().position(|t| t.trace_id == span.trace_id()).unwrap();
        assert!(position < 7, "the lone request finished at {position} of 8, after the sweep");
    }

    #[test]
    fn expired_deadlines_skip_the_compile_and_count() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        // A zero-microsecond deadline has always expired by claim time.
        let handle = service
            .submit(request(&service, &circuit, CompilerKind::SSync, &config).with_deadline_us(0));
        assert!(matches!(handle.wait(), Err(CompileError::DeadlineExceeded { deadline_us: 0 })));
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_deadline_expired, 1);
        assert_eq!(metrics.jobs_executed(), 0, "no worker ran a compile");
        assert_eq!(metrics.jobs_completed, 1, "the job still completed");
        assert!(service.cache().is_empty(), "expired jobs are not cached");
        // The worker survives and serves the next (deadline-free) job.
        let good = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        assert!(good.wait().is_ok());
    }

    #[test]
    fn generous_deadlines_compile_bit_identically() {
        let service = CompileService::with_workers(2);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let plain = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        let plain_outcome = plain.wait().expect("compiles");
        // An hour-long deadline cannot expire; the request is served from
        // the cache (deadlines never bypass completed outcomes).
        let relaxed = service.submit(
            request(&service, &circuit, CompilerKind::SSync, &config)
                .with_deadline_us(3_600_000_000),
        );
        assert_same_compile(&plain_outcome, &relaxed.wait().expect("hits"));
        assert!(
            EncodedOutcome::ptr_eq(&encoding(&plain), &encoding(&relaxed)),
            "cache serves deadline requests"
        );
        let metrics = service.metrics();
        assert_eq!((metrics.cache.hits, metrics.jobs_executed()), (1, 1));
        assert_eq!(metrics.jobs_deadline_expired, 0);

        // And on a cold cache, the deadline path produces the same bits.
        let cold = CompileService::with_workers(2);
        let fresh = cold
            .submit(
                request(&cold, &circuit, CompilerKind::SSync, &config)
                    .with_deadline_us(3_600_000_000),
            )
            .wait()
            .expect("compiles");
        assert_eq!(plain_outcome.program().ops(), fresh.program().ops());
        assert_eq!(plain_outcome.final_placement(), fresh.final_placement());
    }

    #[test]
    fn deadline_requests_do_not_poison_coalescing() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(14));
        // An expired-deadline request submitted first (cold cache, so it
        // cannot be served as a hit) must not leak its DeadlineExceeded
        // to the identical plain requests behind it: deadline jobs never
        // register as coalescable.
        let doomed = service
            .submit(request(&service, &circuit, CompilerKind::SSync, &config).with_deadline_us(0));
        let first = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        let second = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        assert!(matches!(doomed.wait(), Err(CompileError::DeadlineExceeded { .. })));
        assert!(first.wait().is_ok());
        assert!(second.wait().is_ok());
        assert_eq!(service.metrics().jobs_deadline_expired, 1);
    }

    #[test]
    fn scoring_work_is_counted_and_cache_hits_score_nothing() {
        let service = CompileService::with_workers(2);
        let config = CompilerConfig::default();
        // Capacity-8 traps force qft(12) to actually route (the paper
        // topologies' capacity-22 traps would swallow it whole and score
        // nothing).
        let device = service
            .registry()
            .get_or_build("tight", config.weights, || QccdTopology::grid(2, 2, 8));
        let circuit = Arc::new(qft(12));
        service
            .submit(CompileRequest::new(
                Arc::clone(&device),
                Arc::clone(&circuit),
                CompilerKind::SSync,
                config,
            ))
            .wait()
            .expect("compiles");
        let metrics = service.metrics();
        assert!(metrics.scoring.candidates_scored > 0, "the S-SYNC scheduler scored candidates");
        assert!(metrics.scoring.scoring_passes > 0);
        // Every counter but the wall time matches the same compile's run
        // report in process.
        let (_, run) = CompilerKind::SSync
            .compile_on_with(device.device(), &circuit, &config, &mut CompileScratch::default())
            .expect("compiles");
        let untimed =
            |scoring: ScoringTelemetry| ScoringTelemetry { scoring_time_ns: 0, ..scoring };
        assert_eq!(untimed(metrics.scoring), untimed(run.scoring));
        // A cache hit re-serves the outcome without scoring anything.
        service
            .submit(CompileRequest::new(device, circuit, CompilerKind::SSync, config))
            .wait()
            .expect("hits");
        assert_eq!(service.metrics().scoring, metrics.scoring);
    }

    #[test]
    fn builder_configures_workers_and_cache_bounds() {
        let service = CompileService::builder()
            .workers(2)
            .cache_bounds(CacheBounds::with_max_entries(1))
            .build();
        assert_eq!(service.workers(), 2);
        let config = CompilerConfig::default();
        let a = Arc::new(qft(8));
        let b = Arc::new(qft(9));
        service.submit(request(&service, &a, CompilerKind::SSync, &config)).wait().unwrap();
        service.submit(request(&service, &b, CompilerKind::SSync, &config)).wait().unwrap();
        let stats = service.cache().stats();
        assert_eq!(stats.entries, 1, "bounded cache holds one entry");
        assert_eq!(stats.evictions, 1);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(CompileService::with_workers(0).workers(), cores, "0 = one per core");
    }

    /// Pins the `ServiceMetrics::scoring` documentation contract: the
    /// counters count scoring work performed by *this* pool, so a pool
    /// that serves a request from the persistent tier — a cached outcome,
    /// which carries no run report — reports zero even though the
    /// original compile scored thousands of candidates. The request still
    /// finishes a trace (it is a cache hit, observed end to end).
    #[test]
    fn persist_tier_outcomes_report_zero_scoring_counters() {
        let dir = std::env::temp_dir().join(format!("ssync-pool-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CompilerConfig::default();
        // Capacity-8 traps force qft(12) to actually route and score
        // (as in `scoring_work_is_counted_and_cache_hits_score_nothing`).
        let circuit = Arc::new(qft(12));
        let tight = |service: &CompileService| {
            let device = service
                .registry()
                .get_or_build("tight", config.weights, || QccdTopology::grid(2, 2, 8));
            CompileRequest::new(device, Arc::clone(&circuit), CompilerKind::SSync, config)
        };

        let warm = CompileService::builder().workers(1).persist_dir(&dir).build();
        let original = warm.submit(tight(&warm)).wait().expect("compiles");
        assert!(warm.metrics().scoring.candidates_scored > 0, "a real compile scores candidates");

        let cold = CompileService::builder().workers(1).persist_dir(&dir).build();
        let replayed = cold.submit(tight(&cold)).wait().expect("persist-tier hit");
        let metrics = cold.metrics();
        assert_eq!(metrics.cache.persist_hits, 1, "served from the persistent tier");
        assert_eq!(metrics.jobs_executed(), 0, "no compile ran in the cold pool");
        assert_eq!(
            metrics.scoring,
            ScoringTelemetry::default(),
            "scoring not performed here is not counted"
        );
        assert_eq!(metrics.traces_recorded, 1, "the cache hit still traces end to end");
        assert_eq!(original.program().ops(), replayed.program().ops());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
