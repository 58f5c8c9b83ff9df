//! The compile service: a work-stealing worker pool with priority classes
//! and per-tenant fairness over the unified compiler entry point.
//!
//! ## Scheduling structure
//!
//! Hand-rolled on `std::sync` (no external runtime):
//!
//! * **Priority injector** — the shared queue single [`submit`]s land in.
//!   It is not one deque but a small set of [`Priority`] levels (High,
//!   Normal, Batch), each holding **per-tenant deques** drained with
//!   *weighted deficit round-robin*: every queued tenant accumulates
//!   deficit at its configured weight (default 1.0,
//!   [`set_tenant_weight`]) and pays 1.0 per job served, so one tenant's
//!   10k-job sweep interleaves with — instead of starving — everyone
//!   else's work at the same level. Levels are strict: any queued High job
//!   is claimed before any Normal one, and Normal before Batch.
//! * **Per-worker deques** — [`submit_batch`] deals *Normal-priority*
//!   jobs round-robin across the workers' own deques, giving each worker
//!   an affine run of work it pops LIFO-front from its own end. High and
//!   Batch submissions always go through the injector (High so the next
//!   free worker grabs them, Batch so they cannot bypass the fairness
//!   queue).
//! * **Stealing** — a worker whose deque and the injector are both empty
//!   scans the other workers' deques and steals from the *back*, so
//!   skewed batches (one giant circuit next to many small ones) rebalance
//!   without any coordination from the submitter.
//!
//! A worker claims work in the order: High injector jobs → its own deque
//! → Normal then Batch injector jobs → stealing.
//!
//! Sleeping is coordinated through one `Mutex<…>/Condvar` pair guarding a
//! `queued` count: producers increment it under the lock *before* pushing
//! a job (so a claim can never outrun its announcement and underflow the
//! counter), workers decrement it when they claim one and only sleep
//! while it is zero — so a wakeup can never be lost between "scanned
//! empty" and "went to sleep".
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
//! them onto one warm worker sharing the device artifact and circuit
//! prep. That planner does not exist yet; to keep the gap measurable the
//! service counts such submissions in
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
//! use ssync_core::{CacheBounds, CompilerConfig};
//! use ssync_service::{CompileRequest, CompileService, Priority, TenantId};
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

use crate::cache::{CacheConfig, CacheKey, ResultCache};
use crate::hash::config_hash;
use crate::job::{CompileRequest, JobHandle, JobResult, JobState, Priority, TenantId};
use crate::metrics::{ServiceMetrics, WorkerMetrics};
use crate::registry::DeviceRegistry;
use crate::telemetry::{kind_slug, ServiceTelemetry, Stage, TRACE_JOURNAL_CAPACITY};
use ssync_circuit::{Circuit, Qubit};
use ssync_core::{batch, CacheBounds, CompileError, CompileScratch};
use ssync_telemetry::Span;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Per-circuit preparation shared by every job over the same circuit
/// content: the stable hash (computed at submission) and the greedy
/// baselines' first-use qubit order, computed lazily by the first worker
/// that needs it and reused across every topology cell and compiler kind
/// afterwards.
#[derive(Debug)]
struct CircuitPrep {
    hash: u64,
    first_use: OnceLock<Vec<Qubit>>,
}

/// One queued unit of work. `attached` counts the submissions sharing this
/// job's `state` (1 plus any identical requests coalesced onto it while it
/// was in flight). `registered` records whether the job holds a pending
/// (coalescing) entry that must be retired on completion —
/// deadline-carrying jobs never register (their expiry must not leak to a
/// coalesced waiter). `submitted` anchors the deadline clock.
struct Job {
    request: CompileRequest,
    prep: Arc<CircuitPrep>,
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

/// The shared injector: one [`Level`] per [`Priority`], plus the tenant
/// weight table. Levels are strict; fairness lives inside each level.
struct Injector<T> {
    levels: [Level<T>; 3],
    weights: HashMap<TenantId, f64>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector { levels: Default::default(), weights: HashMap::new() }
    }
}

impl<T> Injector<T> {
    fn push(&mut self, priority: Priority, tenant: TenantId, item: T) {
        self.levels[priority.index()].push(tenant, item);
    }

    fn pop(&mut self, priority: Priority) -> Option<T> {
        // Split borrow: the level is mutated, the weight table only read.
        let Injector { levels, weights } = self;
        levels[priority.index()].pop(weights)
    }
}

/// Producer/worker sleep coordination; see the module docs.
#[derive(Debug, Default)]
struct SleepState {
    /// Jobs published to some queue and not yet claimed by a worker.
    queued: usize,
    /// Set once by `Drop`; workers drain every queue, then exit.
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector<Job>>,
    /// Whether executed compiles carry a flight recorder: every worker's
    /// [`CompileScratch`] is built with this switch.
    flight_recorder: bool,
    /// High-priority jobs currently in the injector. Incremented *before*
    /// the push (same never-ahead rule as `SleepState::queued`),
    /// decremented on a successful High pop. Lets workers with affine
    /// deque work skip the shared injector lock entirely while no High
    /// job exists — the common case in a dealt batch.
    high_pending: AtomicUsize,
    deques: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    cache: ResultCache,
    preps: Mutex<HashMap<u64, Arc<CircuitPrep>>>,
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
    candidates_scored: AtomicU64,
    scoring_passes: AtomicU64,
    readiness_memo_hits: AtomicU64,
    executed: Vec<AtomicU64>,
    stolen: Vec<AtomicU64>,
    telemetry: ServiceTelemetry,
}

impl Shared {
    /// Claims the next job for worker `me` in the priority-aware order:
    /// High injector jobs, then the worker's own deque, then Normal and
    /// Batch injector jobs, then the back of every other worker's deque.
    /// Returns the job and whether it was stolen.
    fn find_job(&self, me: usize) -> Option<(Job, bool)> {
        // Fast path: only touch the shared injector for the High check
        // when the counter says a High job may exist. A racing submit
        // that lands after this load is caught by the locked re-check
        // below (when the own deque is empty) or by the next claim.
        if self.high_pending.load(Ordering::Acquire) > 0 {
            if let Some(job) = self.pop_injector(Priority::High) {
                self.claim();
                return Some((job, false));
            }
        }
        if let Some(job) = self.deques[me].lock().expect("deque lock poisoned").pop_front() {
            self.claim();
            return Some((job, false));
        }
        for priority in Priority::ALL {
            if let Some(job) = self.pop_injector(priority) {
                self.claim();
                return Some((job, false));
            }
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(job) = self.deques[victim].lock().expect("deque lock poisoned").pop_back() {
                self.claim();
                return Some((job, true));
            }
        }
        None
    }

    fn pop_injector(&self, priority: Priority) -> Option<Job> {
        let job = self.injector.lock().expect("injector lock poisoned").pop(priority)?;
        if priority == Priority::High {
            self.high_pending.fetch_sub(1, Ordering::Release);
        }
        Some(job)
    }

    fn claim(&self) {
        self.sleep.lock().expect("sleep lock poisoned").queued -= 1;
    }

    /// Raises the published-job count. MUST run *before* the job is pushed
    /// into any queue: `claim()` pairs each decrement with a successful
    /// pop, so as long as every push is preceded by its increment the
    /// counter can never underflow — whereas increment-after-push would
    /// let a racing worker pop and decrement first. A worker that sees
    /// `queued > 0` but finds the queues momentarily empty just rescans.
    fn announce(&self) {
        self.sleep.lock().expect("sleep lock poisoned").queued += 1;
    }
}

/// Configures and starts a [`CompileService`]; obtained from
/// [`CompileService::builder`].
///
/// ```
/// use ssync_core::CacheBounds;
/// use ssync_service::CompileService;
///
/// let service = CompileService::builder()
///     .workers(2)
///     .cache_bounds(CacheBounds::with_max_entries(1024))
///     .build();
/// assert_eq!(service.workers(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompileServiceBuilder {
    workers: usize,
    /// `None` = never configured → fall back to the environment at build
    /// time. An explicit [`CacheBounds::UNBOUNDED`] is honoured as-is.
    bounds: Option<CacheBounds>,
    persist_dir: Option<std::path::PathBuf>,
    persist_max_bytes: Option<u64>,
    persist_max_age: Option<std::time::Duration>,
    /// `None` = never configured → `SSYNC_TRACE_JOURNAL_CAP`, then
    /// [`TRACE_JOURNAL_CAPACITY`].
    trace_journal_cap: Option<usize>,
    /// `None` = never configured → `SSYNC_FLIGHT_RECORDER`, then off.
    flight_recorder: Option<bool>,
}

impl CompileServiceBuilder {
    /// Sets the worker-thread count; `0` (the default) resolves through
    /// [`batch::resolve_workers`] (the `SSYNC_BATCH_WORKERS` environment
    /// variable, then the machine's available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the result cache's entry/byte bounds — including an explicit
    /// [`CacheBounds::UNBOUNDED`], which is honoured verbatim. Only when
    /// this method (and [`CompileServiceBuilder::cache_config`]) was never
    /// called does [`CompileServiceBuilder::build`] fall back to
    /// [`CacheBounds::from_env`], i.e. the `SSYNC_CACHE_MAX_ENTRIES` /
    /// `SSYNC_CACHE_MAX_BYTES` environment variables.
    pub fn cache_bounds(mut self, bounds: CacheBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Enables the write-through persistent cache tier rooted at `dir`.
    pub fn persist_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Byte budget for the persistent cache directory, enforced at
    /// startup by deleting `.outcome` files oldest-mtime-first (see
    /// [`CacheConfig`]). When never set, [`CompileServiceBuilder::build`]
    /// falls back to the `SSYNC_CACHE_DIR_MAX_BYTES` environment
    /// variable.
    pub fn persist_max_bytes(mut self, bytes: u64) -> Self {
        self.persist_max_bytes = Some(bytes);
        self
    }

    /// Age budget for the persistent cache directory (startup GC). The
    /// environment fallback is `SSYNC_CACHE_DIR_MAX_AGE_SECS`.
    pub fn persist_max_age(mut self, age: std::time::Duration) -> Self {
        self.persist_max_age = Some(age);
        self
    }

    /// Sets how many recent traces the in-memory journal retains; `0` is
    /// clamped to 1. When never called, [`CompileServiceBuilder::build`]
    /// falls back to the `SSYNC_TRACE_JOURNAL_CAP` environment variable,
    /// then [`TRACE_JOURNAL_CAPACITY`]. The cap bounds how far back
    /// `GetTrace` can reach — and, because each journal slot keeps its
    /// compile's flight recording alive, how much recorder memory a busy
    /// daemon retains.
    pub fn trace_journal_cap(mut self, cap: usize) -> Self {
        self.trace_journal_cap = Some(cap);
        self
    }

    /// Enables (or explicitly disables) the compile flight recorder:
    /// every executed compile fills a bounded in-memory event ring that is
    /// retained alongside the trace and served by `GetTrace`. When never
    /// called, [`CompileServiceBuilder::build`] falls back to the
    /// `SSYNC_FLIGHT_RECORDER` environment variable (`1`/`true` = on),
    /// then off. The recorder is observation-only: compiled output is
    /// bit-identical either way, and the switch lives on each worker's
    /// [`CompileScratch`], not in any request's config or cache key.
    pub fn flight_recorder(mut self, enabled: bool) -> Self {
        self.flight_recorder = Some(enabled);
        self
    }

    /// Replaces the whole cache configuration (bounds count as explicitly
    /// configured, so the environment fallback is disabled).
    pub fn cache_config(mut self, config: CacheConfig) -> Self {
        self.bounds = Some(config.bounds);
        self.persist_dir = config.persist_dir;
        self.persist_max_bytes = config.persist_max_bytes;
        self.persist_max_age = config.persist_max_age;
        self
    }

    /// Starts the service.
    pub fn build(self) -> CompileService {
        let CompileServiceBuilder {
            workers,
            bounds,
            persist_dir,
            persist_max_bytes,
            persist_max_age,
            trace_journal_cap,
            flight_recorder,
        } = self;
        let cache = CacheConfig {
            bounds: bounds.unwrap_or_else(CacheBounds::from_env),
            persist_dir,
            persist_max_bytes,
            persist_max_age,
        }
        .persist_gc_from_env();
        let journal_cap = trace_journal_cap
            .or_else(|| std::env::var("SSYNC_TRACE_JOURNAL_CAP").ok()?.parse().ok())
            .unwrap_or(TRACE_JOURNAL_CAPACITY);
        let flight_recorder = flight_recorder
            .or_else(|| {
                let v = std::env::var("SSYNC_FLIGHT_RECORDER").ok()?;
                Some(v == "1" || v.eq_ignore_ascii_case("true"))
            })
            .unwrap_or(false);
        CompileService::start(batch::resolve_workers(workers), cache, journal_cap, flight_recorder)
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
    round_robin: AtomicUsize,
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
    /// Starts a service with the resolved default worker count (the
    /// `SSYNC_BATCH_WORKERS` environment variable when set, otherwise the
    /// machine's available parallelism — the same resolution chain batch
    /// compilation uses, [`batch::resolve_workers`]) and cache bounds from
    /// [`CacheBounds::from_env`].
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// A builder for explicit worker counts, cache bounds and the
    /// persistent cache tier.
    pub fn builder() -> CompileServiceBuilder {
        CompileServiceBuilder::default()
    }

    /// Starts a service with exactly `workers` worker threads (clamped to
    /// at least 1), ignoring the environment — the constructor for tests
    /// pinning worker-count independence. The cache is unbounded.
    pub fn with_workers(workers: usize) -> Self {
        Self::start(workers, CacheConfig::default(), TRACE_JOURNAL_CAPACITY, false)
    }

    fn start(
        workers: usize,
        cache: CacheConfig,
        journal_cap: usize,
        flight_recorder: bool,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector::default()),
            flight_recorder,
            high_pending: AtomicUsize::new(0),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(SleepState::default()),
            wake: Condvar::new(),
            cache: ResultCache::with_config(cache),
            preps: Mutex::new(HashMap::new()),
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
            candidates_scored: AtomicU64::new(0),
            scoring_passes: AtomicU64::new(0),
            readiness_memo_hits: AtomicU64::new(0),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            stolen: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            telemetry: ServiceTelemetry::with_journal_cap(journal_cap),
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
            round_robin: AtomicUsize::new(0),
            started: Instant::now(),
        }
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

    /// Jobs currently published to some queue and not yet claimed by a
    /// worker — the instantaneous backlog the front-end's admission
    /// control compares against its watermark. Cheap enough to call per
    /// request (one short mutex hold).
    pub fn queue_depth(&self) -> usize {
        self.shared.sleep.lock().expect("sleep lock poisoned").queued
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
        self.shared.injector.lock().expect("injector lock poisoned").weights.insert(tenant, weight);
    }

    /// Submits one request and returns its handle. The request carries its
    /// [`Priority`] and [`TenantId`] (see [`CompileRequest::with_priority`]
    /// / [`CompileRequest::with_tenant`]). If an identical request (same
    /// device fingerprint, circuit content, output-affecting config and
    /// compiler) completed before, the handle is fulfilled immediately
    /// from the [`ResultCache`] and no job is queued.
    pub fn submit(&self, request: CompileRequest) -> JobHandle {
        self.submit_to(request, None)
    }

    /// [`CompileService::submit`], additionally returning the request's
    /// trace [`Span`] so the caller can read the server-assigned trace id,
    /// attach its own events (the wire front-end records response
    /// delivery) and inspect the timeline afterwards.
    pub fn submit_traced(&self, request: CompileRequest) -> (JobHandle, Span) {
        let span = self.shared.telemetry.begin_trace();
        let handle = self.submit_with_span(request, span.clone(), None);
        (handle, span)
    }

    /// The telemetry hub: per-stage latency histograms, the recent-trace
    /// journal and the slow-request threshold.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.shared.telemetry
    }

    /// Submits a batch. Normal-priority cache-missing jobs are dealt
    /// round-robin across the per-worker deques (stealing rebalances skew
    /// later); High and Batch jobs go through the shared priority
    /// injector. Handles come back in request order; results are
    /// independent of the worker count and of how the deal landed.
    pub fn submit_batch(
        &self,
        requests: impl IntoIterator<Item = CompileRequest>,
    ) -> Vec<JobHandle> {
        let workers = self.workers.len();
        requests
            .into_iter()
            .map(|request| {
                let target = (request.priority == Priority::Normal)
                    .then(|| self.round_robin.fetch_add(1, Ordering::Relaxed) % workers);
                self.submit_to(request, target)
            })
            .collect()
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
            queue_depth: self.shared.sleep.lock().expect("sleep lock poisoned").queued,
            rejected_overloaded: self.shared.rejected_overloaded.load(Ordering::Relaxed),
            rejected_unauthorized: self.shared.rejected_unauthorized.load(Ordering::Relaxed),
            conns_timed_out: self.shared.conns_timed_out.load(Ordering::Relaxed),
            janitor_gc_runs: self.shared.janitor_gc_runs.load(Ordering::Relaxed),
            candidates_scored: self.shared.candidates_scored.load(Ordering::Relaxed),
            scoring_passes: self.shared.scoring_passes.load(Ordering::Relaxed),
            readiness_memo_hits: self.shared.readiness_memo_hits.load(Ordering::Relaxed),
            traces_recorded: self.shared.telemetry.traces_recorded(),
            slow_requests: self.shared.telemetry.slow_requests(),
            cache: self.shared.cache.stats(),
            workers: self
                .shared
                .executed
                .iter()
                .zip(&self.shared.stolen)
                .map(|(e, s)| WorkerMetrics {
                    executed: e.load(Ordering::Relaxed),
                    stolen: s.load(Ordering::Relaxed),
                })
                .collect(),
            uptime: self.started.elapsed(),
        }
    }

    fn submit_to(&self, request: CompileRequest, target: Option<usize>) -> JobHandle {
        let span = self.shared.telemetry.begin_trace();
        self.submit_with_span(request, span, target)
    }

    /// Submission under a caller-created span (the front-end starts the
    /// span *before* parsing QASM so the parse stage lands on the same
    /// trace). Requests resolved at submission — cache hits and coalesced
    /// attachments — finish their trace immediately with an `outcome`
    /// attribute saying so; queued requests hand the span to the worker.
    pub(crate) fn submit_with_span(
        &self,
        request: CompileRequest,
        span: Span,
        target: Option<usize>,
    ) -> JobHandle {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.submitted_by_priority[request.priority.index()].fetch_add(1, Ordering::Relaxed);
        let telemetry = &self.shared.telemetry;
        let priority = request.priority;
        let kind = request.compiler;
        telemetry.span_attr(&span, "priority", priority.label());
        telemetry.span_attr(&span, "compiler", kind_slug(kind));
        let prep = self.prep_for(&request.circuit);
        let key = CacheKey {
            device_fingerprint: request.device.fingerprint(),
            circuit_hash: prep.hash,
            config_hash: config_hash(&request.config),
            compiler: request.compiler,
        };
        let lookup_started = Instant::now();
        let cached = self.shared.cache.get(&key);
        let lookup = lookup_started.elapsed();
        telemetry.span_record(&span, "cache_lookup", lookup);
        telemetry.record(Stage::CacheLookup, priority, kind, lookup);
        if let Some(cached) = cached {
            let (handle, state) = JobHandle::new();
            state.fulfil(Ok(cached));
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
                prep,
                key,
                state,
                attached,
                registered: false,
                submitted: Instant::now(),
                request,
                span,
            };
            self.enqueue(job, target);
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
                state.fulfil(Ok(cached));
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
            prep,
            key,
            state,
            attached,
            registered: true,
            submitted: Instant::now(),
            span,
        };
        self.enqueue(job, target);
        handle
    }

    /// Publishes a built job to a worker deque or the priority injector.
    fn enqueue(&self, job: Job, target: Option<usize>) {
        let priority = job.request.priority;
        let tenant = job.request.tenant;
        // Announce strictly before the push makes the job claimable; see
        // `Shared::announce` for why this ordering is load-bearing. The
        // High counter follows the same increment-before-push rule so a
        // racing pop can never drive it negative.
        self.shared.announce();
        match target {
            Some(worker) => {
                self.shared.deques[worker].lock().expect("deque lock poisoned").push_back(job)
            }
            None => {
                if priority == Priority::High {
                    self.shared.high_pending.fetch_add(1, Ordering::Release);
                }
                self.shared
                    .injector
                    .lock()
                    .expect("injector lock poisoned")
                    .push(priority, tenant, job)
            }
        }
        self.shared.wake.notify_one();
    }

    /// The shared per-circuit preparation, deduplicated by content hash so
    /// one circuit submitted across many devices/compilers shares a single
    /// lazily-computed first-use order.
    fn prep_for(&self, circuit: &Circuit) -> Arc<CircuitPrep> {
        let hash = circuit.content_hash();
        let mut preps = self.shared.preps.lock().expect("prep lock poisoned");
        Arc::clone(
            preps
                .entry(hash)
                .or_insert_with(|| Arc::new(CircuitPrep { hash, first_use: OnceLock::new() })),
        )
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
        {
            let mut sleep = self.shared.sleep.lock().expect("sleep lock poisoned");
            sleep.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut scratch = CompileScratch::new(shared.flight_recorder);
    loop {
        match shared.find_job(me) {
            Some((job, was_stolen)) => {
                if was_stolen {
                    shared.stolen[me].fetch_add(1, Ordering::Relaxed);
                }
                execute(shared, me, job, &mut scratch);
            }
            None => {
                let sleep = shared.sleep.lock().expect("sleep lock poisoned");
                if sleep.queued > 0 {
                    continue; // published between our scan and the lock
                }
                if sleep.shutdown {
                    return;
                }
                // Queue empty, no shutdown: sleep until a publish. The
                // re-scan after waking handles spurious wakeups.
                drop(shared.wake.wait(sleep).expect("sleep lock poisoned"));
            }
        }
    }
}

fn execute(shared: &Shared, me: usize, job: Job, scratch: &mut CompileScratch) {
    let Job { request, prep, key, state, attached, registered, submitted, span } = job;
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
    let result = match expired {
        Some(deadline_us) => {
            shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
            Err(CompileError::DeadlineExceeded { deadline_us })
        }
        None => {
            let compile_started = Instant::now();
            let result = run_compile(&request, &prep, scratch).unwrap_or_else(|panic_message| {
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
            result
        }
    };
    if let Ok(outcome) = &result {
        // Scoring-work telemetry counts compiles actually run here: cache
        // hits and codec-rebuilt outcomes report zeros by design.
        let scoring = outcome.scoring_telemetry();
        shared.candidates_scored.fetch_add(scoring.candidates_scored, Ordering::Relaxed);
        shared.scoring_passes.fetch_add(scoring.scoring_passes, Ordering::Relaxed);
        shared.readiness_memo_hits.fetch_add(scoring.readiness_memo_hits, Ordering::Relaxed);
        shared.telemetry.note_scheduler_phases(&scoring);
        // Per-request scoring work as span attributes, so the slow-request
        // JSONL and GetTrace show what this compile cost — not just the
        // pool-wide aggregates.
        let t = &shared.telemetry;
        t.span_attr(&span, "candidates_scored", scoring.candidates_scored.to_string());
        t.span_attr(&span, "scoring_passes", scoring.scoring_passes.to_string());
        t.span_attr(&span, "readiness_memo_hits", scoring.readiness_memo_hits.to_string());
        t.span_attr(&span, "frontier_rebuilds", scoring.frontier_rebuilds.to_string());
        t.span_attr(&span, "stall_fallback_entries", scoring.stall_fallback_entries.to_string());
        // Insert into the cache *before* retiring the pending entry:
        // identical submissions racing this completion find the job in at
        // least one of the two, so nothing recompiles.
        let write_started = Instant::now();
        shared.cache.insert(key, Arc::clone(outcome));
        shared.telemetry.span_record(&span, "cache_write", write_started.elapsed());
    }
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
    let recording = result.as_ref().ok().and_then(|outcome| outcome.flight_recording().cloned());
    shared.telemetry.finish_request_with(&span, priority, kind, recording);
    shared.completed.fetch_add(attached.load(Ordering::Relaxed), Ordering::Relaxed);
    state.fulfil(result);
}

/// Runs one compile under the request's own config — the one its cache
/// key was computed from — catching panics; `Err` carries the panic
/// message.
fn run_compile(
    request: &CompileRequest,
    prep: &CircuitPrep,
    scratch: &mut CompileScratch,
) -> Result<JobResult, String> {
    let first_use = request
        .compiler
        .uses_first_use_order()
        .then(|| prep.first_use.get_or_init(|| request.circuit.first_use_order()).as_slice());
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        request
            .compiler
            .compile_on_with(
                request.device.device(),
                &request.circuit,
                &request.config,
                first_use,
                scratch,
            )
            .map(Arc::new)
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

    #[test]
    fn identical_resubmission_is_served_from_cache() {
        let service = CompileService::with_workers(2);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(10));
        let first = service
            .submit(request(&service, &circuit, CompilerKind::SSync, &config))
            .wait()
            .expect("compiles");
        let second = service
            .submit(request(&service, &circuit, CompilerKind::SSync, &config))
            .wait()
            .expect("compiles");
        assert!(Arc::ptr_eq(&first, &second), "hit shares the cached outcome");
        let metrics = service.metrics();
        assert_eq!(metrics.cache.hits, 1);
        assert_eq!(metrics.jobs_executed(), 1, "second request must not recompile");
        assert_eq!(metrics.jobs_submitted, 2);
        assert_eq!(metrics.jobs_completed, 2);
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
        assert!(outcome.flight_recording().is_some(), "executed compile carries its recording");
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
        assert!(bare.flight_recording().is_none());
        assert_eq!(outcome.program().ops(), bare.program().ops(), "recorder never steers");
        let (_, recording) = plain.telemetry().trace_detail(span.trace_id()).expect("journaled");
        assert!(recording.is_none());
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

    #[test]
    fn batch_handles_come_back_in_request_order() {
        let service = CompileService::with_workers(3);
        let config = CompilerConfig::default();
        let circuits: Vec<Arc<Circuit>> = (6..=12).map(|n| Arc::new(qft(n))).collect();
        let handles = service.submit_batch(
            circuits.iter().map(|c| request(&service, c, CompilerKind::SSync, &config)),
        );
        assert_eq!(handles.len(), circuits.len());
        for (circuit, handle) in circuits.iter().zip(&handles) {
            let outcome = handle.wait().expect("compiles");
            assert_eq!(outcome.counts().two_qubit_gates, circuit.two_qubit_gate_count());
        }
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_completed, circuits.len() as u64);
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(metrics.workers.len(), 3);
    }

    #[test]
    fn identical_submissions_never_compile_twice() {
        let service = CompileService::with_workers(1);
        let config = CompilerConfig::default();
        let circuit = Arc::new(qft(14));
        // Ten identical requests in rapid succession: whichever way each
        // one resolves (queued, coalesced onto the in-flight job, or a
        // cache hit after completion), exactly one compile runs.
        let handles: Vec<_> = (0..10)
            .map(|_| service.submit(request(&service, &circuit, CompilerKind::SSync, &config)))
            .collect();
        let outcomes: Vec<_> = handles.iter().map(|h| h.wait().expect("compiles")).collect();
        for outcome in &outcomes {
            assert!(Arc::ptr_eq(outcome, &outcomes[0]), "all handles share one outcome");
        }
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_executed(), 1, "one compile serves all ten");
        assert_eq!(metrics.jobs_submitted, 10);
        assert_eq!(metrics.jobs_completed, 10);
        assert_eq!(metrics.cache.hits + metrics.jobs_coalesced, 9);
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
        let good = service.submit(request(&service, &circuit, CompilerKind::SSync, &config));
        let outcome = good.wait().expect("compiles after the panic");
        assert!(outcome.flight_recording().is_some(), "the scratch reset kept the recorder on");
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

    /// The DRR injector drains tenants fairly and priorities strictly;
    /// tested on the raw structure so the order is fully deterministic.
    #[test]
    fn injector_is_strict_across_priorities_and_fair_within() {
        let mut injector: Injector<&'static str> = Injector::default();
        let (a, b) = (TenantId::from_name("a"), TenantId::from_name("b"));
        injector.push(Priority::Batch, a, "batch-a1");
        injector.push(Priority::Batch, a, "batch-a2");
        injector.push(Priority::Normal, a, "norm-a1");
        injector.push(Priority::High, b, "high-b1");
        // Strict priority: High, then Normal, then Batch.
        let mut order = Vec::new();
        for priority in Priority::ALL {
            while let Some(item) = injector.pop(priority) {
                order.push(item);
            }
        }
        assert_eq!(order, ["high-b1", "norm-a1", "batch-a1", "batch-a2"]);

        // Fairness: tenant A's long backlog interleaves 1:1 with B's.
        let mut injector: Injector<u32> = Injector::default();
        for i in 0..6 {
            injector.push(Priority::Batch, a, i); // 0..6 from A
        }
        for i in 10..13 {
            injector.push(Priority::Batch, b, i); // 10..13 from B
        }
        let drained: Vec<u32> = std::iter::from_fn(|| injector.pop(Priority::Batch)).collect();
        assert_eq!(drained, [0, 10, 1, 11, 2, 12, 3, 4, 5]);
    }

    /// A weight-2 tenant receives two slots per round while backlogged.
    #[test]
    fn tenant_weights_shift_the_interleave() {
        let mut injector: Injector<u32> = Injector::default();
        let (heavy, light) = (TenantId::from_name("heavy"), TenantId::from_name("light"));
        injector.weights.insert(heavy, 2.0);
        for i in 0..6 {
            injector.push(Priority::Normal, heavy, i);
        }
        for i in 10..13 {
            injector.push(Priority::Normal, light, i);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| injector.pop(Priority::Normal)).collect();
        assert_eq!(drained, [0, 1, 10, 2, 3, 11, 4, 5, 12]);
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
        let plain = service
            .submit(request(&service, &circuit, CompilerKind::SSync, &config))
            .wait()
            .expect("compiles");
        // An hour-long deadline cannot expire; the request is served from
        // the cache (deadlines never bypass completed outcomes).
        let relaxed = service
            .submit(
                request(&service, &circuit, CompilerKind::SSync, &config)
                    .with_deadline_us(3_600_000_000),
            )
            .wait()
            .expect("compiles");
        assert!(Arc::ptr_eq(&plain, &relaxed), "cache serves deadline requests");
        assert_eq!(service.metrics().jobs_deadline_expired, 0);

        // And on a cold cache, the deadline path produces the same bits.
        let cold = CompileService::with_workers(2);
        let fresh = cold
            .submit(
                request(&cold, &circuit, CompilerKind::SSync, &config)
                    .with_deadline_us(3_600_000_000),
            )
            .wait()
            .expect("compiles");
        assert_eq!(plain.program().ops(), fresh.program().ops());
        assert_eq!(plain.final_placement(), fresh.final_placement());
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
        let outcome = service
            .submit(CompileRequest::new(
                Arc::clone(&device),
                Arc::clone(&circuit),
                CompilerKind::SSync,
                config,
            ))
            .wait()
            .expect("compiles");
        let metrics = service.metrics();
        assert!(metrics.candidates_scored > 0, "the S-SYNC scheduler scored candidates");
        assert!(metrics.scoring_passes > 0);
        assert_eq!(metrics.candidates_scored, outcome.scoring_telemetry().candidates_scored);
        // A cache hit re-serves the outcome without scoring anything.
        service
            .submit(CompileRequest::new(device, circuit, CompilerKind::SSync, config))
            .wait()
            .expect("hits");
        assert_eq!(service.metrics().candidates_scored, metrics.candidates_scored);
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
    }

    /// Pins the `candidates_scored` documentation contract: the counter
    /// counts scoring work performed by *this* pool, so a pool that
    /// serves a request from the persistent tier — whose outcome is
    /// rebuilt by the codec with zeroed scoring telemetry
    /// (`CompileOutcome::from_saved_parts`) — reports zero even though
    /// the original compile scored thousands of candidates. The request
    /// still finishes a trace (it is a cache hit, observed end to end).
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
        assert!(warm.metrics().candidates_scored > 0, "a real compile scores candidates");

        let cold = CompileService::builder().workers(1).persist_dir(&dir).build();
        let replayed = cold.submit(tight(&cold)).wait().expect("persist-tier hit");
        let metrics = cold.metrics();
        assert_eq!(metrics.cache.persist_hits, 1, "served from the persistent tier");
        assert_eq!(metrics.jobs_executed(), 0, "no compile ran in the cold pool");
        assert_eq!(metrics.candidates_scored, 0, "scoring not performed here is not counted");
        assert_eq!(metrics.scoring_passes, 0);
        assert_eq!(metrics.readiness_memo_hits, 0);
        assert_eq!(metrics.traces_recorded, 1, "the cache hit still traces end to end");
        assert_eq!(original.program().ops(), replayed.program().ops());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
