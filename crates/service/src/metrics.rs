//! Service observability: counters a deployment would scrape.

use crate::cache::CacheStats;
use crate::job::Priority;
use std::time::Duration;

/// Per-worker execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerMetrics {
    /// Jobs this worker executed (from any queue).
    pub executed: u64,
    /// Of those, jobs stolen from another worker's deque.
    pub stolen: u64,
}

/// A point-in-time snapshot of the service's health, taken via
/// [`crate::CompileService::metrics`]. Counters are monotonic except
/// `queue_depth`, which is the instantaneous backlog.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceMetrics {
    /// Requests accepted (whether served from cache, coalesced or queued).
    pub jobs_submitted: u64,
    /// Requests resolved (cache hits, coalesced waiters and executed
    /// compiles). Catches up with `jobs_submitted` at quiescence.
    pub jobs_completed: u64,
    /// Requests that attached to an *identical* job already in flight
    /// instead of queuing their own compile. Distinct from `cache.hits`:
    /// a coalesced request found its twin still running, a cache hit found
    /// it already finished.
    pub jobs_coalesced: u64,
    /// Requests that, at submission, had an in-flight job for the **same
    /// device and circuit but a different config or compiler** — the
    /// near-duplicates that in-flight coalescing deliberately does *not*
    /// merge today (see the pool module docs). A large value next to a
    /// small `jobs_coalesced` quantifies what a near-duplicate planner
    /// could save.
    pub jobs_near_duplicate: u64,
    /// Requests whose [`deadline_us`](crate::CompileRequest::deadline_us)
    /// expired before a worker claimed them; each completed with
    /// `CompileError::DeadlineExceeded` without running a compile.
    pub jobs_deadline_expired: u64,
    /// Accepted requests per priority level, indexed by
    /// [`Priority::index`] (High, Normal, Batch).
    pub submitted_by_priority: [u64; 3],
    /// Jobs currently queued and not yet claimed by a worker.
    pub queue_depth: usize,
    /// Requests shed at admission with
    /// [`CompileError::Overloaded`](ssync_core::CompileError::Overloaded)
    /// — the queue-depth watermark or an in-flight cap was breached
    /// (front-end admission control; see the `front` module docs).
    pub rejected_overloaded: u64,
    /// Connections rejected by the front-end's shared-token auth check
    /// (wrong or missing token on the hello frame).
    pub rejected_unauthorized: u64,
    /// Connections the front-end closed because a read timed out — idle
    /// peers, half-open sockets, and slow-loris partial frames.
    pub conns_timed_out: u64,
    /// Periodic persistent-tier garbage collections run by the janitor
    /// thread (each run may delete any number of `.outcome` files; the
    /// deletions themselves land in
    /// [`CacheStats::persist_gc_deleted`](crate::CacheStats)).
    pub janitor_gc_runs: u64,
    /// Generic-swap candidates scored by the intra-compile scheduler
    /// across every compile this pool executed. **Deliberately zero for
    /// work not performed here**: cache hits never ran a scheduler, and
    /// outcomes rebuilt from the persistent tier's codec decode with
    /// zeroed scoring telemetry (`CompileOutcome::from_saved_parts`), so
    /// neither contributes. A pool that served everything from cache
    /// reports 0 regardless of how much scoring the original compiles
    /// did — the `persist_tier_outcomes_report_zero_scoring_counters`
    /// test pins this.
    pub candidates_scored: u64,
    /// Scoring passes run by those schedulers: one per candidate or
    /// stall-fallback pass.
    pub scoring_passes: u64,
    /// Route-readiness memo hits during scoring — the intra-pass
    /// locality the per-pass memo recovers.
    pub readiness_memo_hits: u64,
    /// Request traces finished by the telemetry layer.
    pub traces_recorded: u64,
    /// Traces at or above the daemon's slow-request threshold, each
    /// emitted as a JSONL line on stderr (zero when the threshold is off).
    pub slow_requests: u64,
    /// Result-cache counters (hits, misses, entries, bytes, evictions,
    /// persistent-tier traffic).
    pub cache: CacheStats,
    /// Per-worker executed/stolen counts, indexed by worker.
    pub workers: Vec<WorkerMetrics>,
    /// Wall-clock time since the service started.
    pub uptime: Duration,
}

impl ServiceMetrics {
    /// Jobs executed by workers (excludes cache hits), summed.
    pub fn jobs_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Jobs that moved between workers through stealing, summed.
    pub fn jobs_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Accepted requests at one priority level.
    pub fn submitted_at(&self, priority: Priority) -> u64 {
        self.submitted_by_priority[priority.index()]
    }
}
