//! Service-side observability: per-stage latency histograms, request
//! trace spans, the recent-trace journal, the slow-request log, and the
//! Prometheus-style text exposition.
//!
//! ## What is measured
//!
//! Every request is followed from admission to response delivery by a
//! [`Span`] (see `ssync-telemetry`), and six pipeline stages are
//! additionally aggregated into log2 latency histograms, each keyed twice
//! — once per [`Priority`] and once per [`CompilerKind`]:
//!
//! | stage          | measured where                                       |
//! |----------------|------------------------------------------------------|
//! | `cache_key`    | circuit content hash and config hash inside `submit` |
//! | `cache_lookup` | result-cache probe inside `submit`                   |
//! | `parse`        | OpenQASM parse of a QASM `Submit` in the front-end   |
//! | `queue_wait`   | submission → worker claim                            |
//! | `compile`      | the `compile_on` call itself                         |
//! | `end_to_end`   | span creation → terminal fulfilment                  |
//!
//! The front-end also records a `delivery` span event (response write on
//! the wire) on each job's trace; it is span-only, not histogrammed.
//!
//! ## Determinism
//!
//! Everything here is observation-only. Histograms and spans are written
//! with relaxed atomics and per-span mutexes that no scheduling decision
//! ever reads, so enabling telemetry (on by default; see
//! [`ServiceTelemetry::set_enabled`]) cannot change compiled output — the
//! `service_equivalence` golden suites run with telemetry live, and the
//! `telemetry_overhead` bench asserts on-vs-off bit-identity.
//!
//! The scheduler's scoring counters are not kept here: each compile's
//! [`RunReport`](ssync_core::RunReport) carries them, the pool sums them
//! into [`ServiceMetrics::scoring`], and [`render_text`] reads them from
//! there.

use crate::job::Priority;
use crate::metrics::ServiceMetrics;
use ssync_baselines::CompilerKind;
use ssync_telemetry::{
    BurnWindow, FlightRecording, HistogramSnapshot, LatencyHistogram, Span, TextExposition,
    TraceJournal, TraceRecord,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of compilers ([`CompilerKind::ALL`]).
const KINDS: usize = CompilerKind::ALL.len();

/// Sentinel for "slow-request logging disabled" (the default).
const SLOW_DISABLED: u64 = u64::MAX;

/// How many recent traces the in-memory journal retains by default; the
/// builder's `trace_journal_cap` (daemon flag `--trace-journal-cap`)
/// overrides it per pool.
pub const TRACE_JOURNAL_CAPACITY: usize = 256;

/// How often the SLO ticker samples the end-to-end histograms into the
/// burn-rate windows. The window capacities below assume this cadence.
pub const SLO_TICK_INTERVAL: Duration = Duration::from_millis(500);

/// Burn-window spans exposed on the scrape surfaces, shortest first.
pub const SLO_WINDOWS: [(&str, Duration); 2] =
    [("1m", Duration::from_secs(60)), ("10m", Duration::from_secs(600))];

/// Default SLO latency targets in milliseconds, indexed by
/// [`Priority::index`] (High, Normal, Batch). The daemon's
/// `--slo-ms-high` / `--slo-ms-normal` / `--slo-ms-batch` flags override
/// them.
pub const DEFAULT_SLO_MS: [u64; 3] = [250, 1_000, 5_000];

/// Readings a burn window must hold to span `window` at the tick cadence:
/// one reading per tick plus the baseline reading at the far edge.
fn window_capacity(window: Duration) -> usize {
    (window.as_millis() / SLO_TICK_INTERVAL.as_millis()) as usize + 1
}

/// The six histogrammed pipeline stages (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Cache-key build during submission: the circuit's content hash and
    /// the config hash (the device fingerprint is computed at
    /// registration).
    CacheKey,
    /// Result-cache probe during submission.
    CacheLookup,
    /// OpenQASM source parse (front-end, a `Submit` of QASM source only).
    Parse,
    /// Submission to worker claim.
    QueueWait,
    /// The compile itself.
    Compile,
    /// Span creation to terminal fulfilment.
    EndToEnd,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 6] = [
        Stage::CacheKey,
        Stage::CacheLookup,
        Stage::Parse,
        Stage::QueueWait,
        Stage::Compile,
        Stage::EndToEnd,
    ];

    /// Stable label used in span events and exposition `stage=` labels.
    pub fn label(self) -> &'static str {
        match self {
            Stage::CacheKey => "cache_key",
            Stage::CacheLookup => "cache_lookup",
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::Compile => "compile",
            Stage::EndToEnd => "end_to_end",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Metric-label slug for a compiler kind (the display
/// [`CompilerKind::label`] has spaces and dots).
pub fn kind_slug(kind: CompilerKind) -> &'static str {
    match kind {
        CompilerKind::Murali => "murali",
        CompilerKind::Dai => "dai",
        CompilerKind::SSync => "ssync",
        CompilerKind::Greedy => "greedy",
        CompilerKind::PermRoute => "perm_route",
    }
}

fn kind_index(kind: CompilerKind) -> usize {
    CompilerKind::ALL.iter().position(|&k| k == kind).expect("kind in ALL")
}

/// One stage's histograms, keyed per priority and per compiler kind.
struct StageFamily {
    by_priority: [LatencyHistogram; 3],
    by_kind: [LatencyHistogram; KINDS],
}

impl StageFamily {
    fn new() -> Self {
        Self {
            by_priority: std::array::from_fn(|_| LatencyHistogram::new()),
            by_kind: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    fn record_ns(&self, priority: Priority, kind: CompilerKind, ns: u64) {
        self.by_priority[priority.index()].record_ns(ns);
        self.by_kind[kind_index(kind)].record_ns(ns);
    }

    fn record_ns_with_exemplar(&self, priority: Priority, kind: CompilerKind, ns: u64, trace: u64) {
        self.by_priority[priority.index()].record_ns_with_exemplar(ns, trace);
        self.by_kind[kind_index(kind)].record_ns_with_exemplar(ns, trace);
    }

    fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            by_priority: std::array::from_fn(|i| self.by_priority[i].snapshot()),
            by_kind: std::array::from_fn(|i| self.by_kind[i].snapshot()),
        }
    }
}

/// Plain-data snapshot of one stage's histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Histograms indexed by [`Priority::index`].
    pub by_priority: [HistogramSnapshot; 3],
    /// Histograms indexed by position in [`CompilerKind::ALL`].
    pub by_kind: [HistogramSnapshot; KINDS],
}

impl StageSnapshot {
    /// All priorities merged into one histogram.
    pub fn overall(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for h in &self.by_priority {
            merged.merge(h);
        }
        merged
    }
}

/// Plain-data snapshot of every histogram and the SLO state, taken via
/// [`ServiceTelemetry::snapshot`]. The counters are in [`ServiceMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    stages: [StageSnapshot; Stage::ALL.len()],
    /// Per-priority SLO latency targets, nanoseconds
    /// (indexed by [`Priority::index`]).
    pub slo_target_ns: [u64; 3],
    /// Per-priority burn rates over [`SLO_WINDOWS`]: parts-per-million of
    /// traffic over target, `None` while a window lacks readings.
    pub slo_burn_ppm: [[Option<u64>; 2]; 3],
}

impl TelemetrySnapshot {
    /// One stage's histograms.
    pub fn stage(&self, stage: Stage) -> &StageSnapshot {
        &self.stages[stage.index()]
    }
}

/// The pool-owned telemetry hub: trace-id allocator, per-stage histogram
/// families, the recent-trace journal and the slow-request threshold.
pub struct ServiceTelemetry {
    enabled: AtomicBool,
    next_trace_id: AtomicU64,
    stages: [StageFamily; Stage::ALL.len()],
    journal: TraceJournal,
    slow_threshold_ns: AtomicU64,
    traces_recorded: AtomicU64,
    slow_requests: AtomicU64,
    slo_target_ns: [AtomicU64; 3],
    slo_windows: Mutex<[[BurnWindow; 2]; 3]>,
}

impl std::fmt::Debug for ServiceTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceTelemetry")
            .field("traces_recorded", &self.traces_recorded.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServiceTelemetry {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_journal_cap(TRACE_JOURNAL_CAPACITY)
    }

    pub(crate) fn with_journal_cap(journal_cap: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            next_trace_id: AtomicU64::new(1),
            stages: std::array::from_fn(|_| StageFamily::new()),
            journal: TraceJournal::new(journal_cap.max(1)),
            slow_threshold_ns: AtomicU64::new(SLOW_DISABLED),
            traces_recorded: AtomicU64::new(0),
            slow_requests: AtomicU64::new(0),
            slo_target_ns: std::array::from_fn(|i| {
                AtomicU64::new(DEFAULT_SLO_MS[i].saturating_mul(1_000_000))
            }),
            slo_windows: Mutex::new(std::array::from_fn(|_| {
                std::array::from_fn(|w| BurnWindow::new(window_capacity(SLO_WINDOWS[w].1)))
            })),
        }
    }

    /// Turn recording on or off. Tracing is **on by default**; turning it
    /// off makes every record/finish call a no-op (trace ids are still
    /// assigned so the wire contract holds). Exists for the
    /// `telemetry_overhead` bench, which proves compiled output is
    /// bit-identical either way.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start a new span under a fresh server-assigned trace id (monotonic,
    /// never zero — zero marks an empty histogram exemplar slot).
    pub fn begin_trace(&self) -> Span {
        Span::new(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Record one stage observation into both keyed histograms.
    pub fn record(&self, stage: Stage, priority: Priority, kind: CompilerKind, dur: Duration) {
        self.record_ns(stage, priority, kind, dur.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub(crate) fn record_ns(&self, stage: Stage, priority: Priority, kind: CompilerKind, ns: u64) {
        if !self.is_enabled() {
            return;
        }
        self.stages[stage.index()].record_ns(priority, kind, ns);
    }

    /// Append a stage event to `span` unless recording is disabled.
    pub(crate) fn span_record(&self, span: &Span, stage: &'static str, dur: Duration) {
        if self.is_enabled() {
            span.record(stage, dur);
        }
    }

    /// Records one histogrammed stage: a `span` event named by
    /// [`Stage::label`] and an observation in the stage's histograms.
    pub(crate) fn stage(
        &self,
        span: &Span,
        stage: Stage,
        priority: Priority,
        kind: CompilerKind,
        dur: Duration,
    ) {
        self.span_record(span, stage.label(), dur);
        self.record(stage, priority, kind, dur);
    }

    /// Set a span attribute unless recording is disabled.
    pub(crate) fn span_attr(&self, span: &Span, key: &'static str, value: impl Into<String>) {
        if self.is_enabled() {
            span.set_attr(key, value);
        }
    }

    /// Set the slow-request threshold; `None` disables the log (default).
    /// `Some(Duration::ZERO)` logs every request — the smoke tests use it.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let ns = match threshold {
            None => SLOW_DISABLED,
            Some(d) => d.as_nanos().min((u64::MAX - 1) as u128) as u64,
        };
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Finish a request's span: fixes its total wall time, records the
    /// `end_to_end` histograms, retains the trace in the journal, and
    /// emits a JSONL line on stderr when the request was slow. Idempotent
    /// on the span's total; callers invoke it exactly once per trace.
    pub(crate) fn finish_request(&self, span: &Span, priority: Priority, kind: CompilerKind) {
        self.finish_request_with(span, priority, kind, None);
    }

    /// [`ServiceTelemetry::finish_request`] that additionally retains the
    /// compile's flight recording alongside the trace in the journal, so a
    /// later `GetTrace` can replay the scheduler's decisions. The
    /// end-to-end histograms are stamped with the trace id as a bucket
    /// exemplar either way.
    pub(crate) fn finish_request_with(
        &self,
        span: &Span,
        priority: Priority,
        kind: CompilerKind,
        recording: Option<Arc<FlightRecording>>,
    ) {
        let total_ns = span.finish();
        if !self.is_enabled() {
            return;
        }
        span.record("end_to_end", Duration::from_nanos(total_ns));
        self.stages[Stage::EndToEnd.index()].record_ns_with_exemplar(
            priority,
            kind,
            total_ns,
            span.trace_id(),
        );
        self.journal.push_with_recording(span.clone(), recording);
        self.traces_recorded.fetch_add(1, Ordering::Relaxed);
        if total_ns >= self.slow_threshold_ns.load(Ordering::Relaxed) {
            self.slow_requests.fetch_add(1, Ordering::Relaxed);
            eprintln!("{}", span.to_jsonl());
        }
    }

    /// Finished request traces so far.
    pub fn traces_recorded(&self) -> u64 {
        self.traces_recorded.load(Ordering::Relaxed)
    }

    /// Requests that crossed the slow threshold so far.
    pub fn slow_requests(&self) -> u64 {
        self.slow_requests.load(Ordering::Relaxed)
    }

    /// Recent finished traces, oldest first (bounded ring, default
    /// capacity [`TRACE_JOURNAL_CAPACITY`]).
    pub fn recent_traces(&self) -> Vec<TraceRecord> {
        self.journal.recent()
    }

    /// Look up one journaled trace by id: the span record plus the flight
    /// recording the compile left behind (if the recorder was on and the
    /// trace ran a compile). `None` once the journal ring has evicted it.
    pub fn trace_detail(
        &self,
        trace_id: u64,
    ) -> Option<(TraceRecord, Option<Arc<FlightRecording>>)> {
        self.journal.find(trace_id)
    }

    /// Set one priority's SLO latency target.
    pub fn set_slo_target(&self, priority: Priority, target: Duration) {
        let ns = target.as_nanos().min(u64::MAX as u128) as u64;
        self.slo_target_ns[priority.index()].store(ns, Ordering::Relaxed);
    }

    /// One priority's SLO latency target in nanoseconds.
    pub fn slo_target_ns(&self, priority: Priority) -> u64 {
        self.slo_target_ns[priority.index()].load(Ordering::Relaxed)
    }

    /// Sample the end-to-end histograms into every burn window. The
    /// daemon's SLO ticker calls this each [`SLO_TICK_INTERVAL`]; the
    /// windows then expose "fraction of requests over target" deltas over
    /// [`SLO_WINDOWS`]. Bad counts are bucket-granular
    /// ([`HistogramSnapshot::count_over`]), a deliberate
    /// under-approximation that never cries wolf.
    pub fn slo_tick(&self) {
        let mut windows = self.slo_windows.lock().expect("slo windows poisoned");
        for priority in Priority::ALL {
            let target = self.slo_target_ns[priority.index()].load(Ordering::Relaxed);
            let snap =
                self.stages[Stage::EndToEnd.index()].by_priority[priority.index()].snapshot();
            let total = snap.count();
            let bad = snap.count_over(target);
            for window in &mut windows[priority.index()] {
                window.push(total, bad);
            }
        }
    }

    /// Current burn rates: `[priority][window]` parts-per-million of
    /// traffic over target, `None` until a window holds two readings with
    /// traffic between them.
    pub fn slo_burn_ppm(&self) -> [[Option<u64>; 2]; 3] {
        let windows = self.slo_windows.lock().expect("slo windows poisoned");
        std::array::from_fn(|p| std::array::from_fn(|w| windows[p][w].burn_ppm()))
    }

    /// Snapshot every histogram and the SLO state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            slo_target_ns: std::array::from_fn(|i| self.slo_target_ns[i].load(Ordering::Relaxed)),
            slo_burn_ppm: self.slo_burn_ppm(),
        }
    }
}

/// Render the service's counters and latency histograms as one
/// Prometheus-style text-exposition document. The same renderer backs the
/// wire `GetStats` response, the daemon's `--metrics-text` file and its
/// drain-time stderr summary, so all three always agree.
pub fn render_text(metrics: &ServiceMetrics, telemetry: &TelemetrySnapshot) -> String {
    let mut e = TextExposition::new();

    e.header("ssync_jobs_submitted_total", "counter", "Requests accepted by the pool.");
    e.value("ssync_jobs_submitted_total", &[], metrics.jobs_submitted);
    e.header(
        "ssync_jobs_submitted_by_priority_total",
        "counter",
        "Accepted requests per priority level.",
    );
    for priority in Priority::ALL {
        e.value(
            "ssync_jobs_submitted_by_priority_total",
            &[("priority", priority.label())],
            metrics.submitted_by_priority[priority.index()],
        );
    }
    for (name, help, v) in [
        ("ssync_jobs_completed_total", "Requests resolved.", metrics.jobs_completed),
        (
            "ssync_jobs_coalesced_total",
            "Requests attached to an identical in-flight job.",
            metrics.jobs_coalesced,
        ),
        (
            "ssync_jobs_near_duplicate_total",
            "Submissions with an in-flight near-duplicate (same device+circuit, other config).",
            metrics.jobs_near_duplicate,
        ),
        (
            "ssync_jobs_deadline_expired_total",
            "Requests expired before a worker claimed them.",
            metrics.jobs_deadline_expired,
        ),
        (
            "ssync_rejected_overloaded_total",
            "Requests shed by admission control.",
            metrics.rejected_overloaded,
        ),
        (
            "ssync_rejected_unauthorized_total",
            "Connections rejected by the auth check.",
            metrics.rejected_unauthorized,
        ),
        (
            "ssync_conns_timed_out_total",
            "Connections closed on read timeout.",
            metrics.conns_timed_out,
        ),
        ("ssync_janitor_gc_runs_total", "Persistent-tier GC runs.", metrics.janitor_gc_runs),
        (
            "ssync_candidates_scored_total",
            "Scheduler candidates scored across executed compiles.",
            metrics.scoring.candidates_scored,
        ),
        ("ssync_scoring_passes_total", "Scoring passes run.", metrics.scoring.scoring_passes),
        (
            "ssync_readiness_memo_hits_total",
            "Readiness-memo hits during scoring.",
            metrics.scoring.readiness_memo_hits,
        ),
        ("ssync_cache_hits_total", "Result-cache hits.", metrics.cache.hits),
        ("ssync_cache_misses_total", "Result-cache misses.", metrics.cache.misses),
        ("ssync_cache_evictions_total", "Result-cache evictions.", metrics.cache.evictions),
        (
            "ssync_cache_persist_hits_total",
            "Hits served by rebuilding a persisted outcome.",
            metrics.cache.persist_hits,
        ),
        (
            "ssync_cache_persist_stores_total",
            "Outcomes written through to the persistent tier.",
            metrics.cache.persist_stores,
        ),
        ("ssync_traces_recorded_total", "Finished request traces.", metrics.traces_recorded),
        (
            "ssync_slow_requests_total",
            "Requests at or above the slow-request threshold.",
            metrics.slow_requests,
        ),
        (
            "ssync_sched_frontier_rebuilds_total",
            "Scheduler frontier rebuilds across executed compiles.",
            metrics.scoring.frontier_rebuilds,
        ),
        (
            "ssync_sched_stall_fallback_entries_total",
            "Scheduler stall-fallback entries across executed compiles.",
            metrics.scoring.stall_fallback_entries,
        ),
        (
            "ssync_sched_scoring_time_ns_total",
            "Wall nanoseconds in scheduler scoring passes.",
            metrics.scoring.scoring_time_ns,
        ),
    ] {
        e.header(name, "counter", help);
        e.value(name, &[], v);
    }

    e.header("ssync_queue_depth", "gauge", "Jobs queued and not yet claimed.");
    e.value("ssync_queue_depth", &[], metrics.queue_depth as u64);
    e.header("ssync_cache_entries", "gauge", "In-memory result-cache entries.");
    e.value("ssync_cache_entries", &[], metrics.cache.entries as u64);
    e.header("ssync_cache_bytes", "gauge", "Encoded bytes in the in-memory result cache.");
    e.value("ssync_cache_bytes", &[], metrics.cache.bytes as u64);
    e.header("ssync_uptime_seconds", "gauge", "Wall seconds since service start.");
    e.value("ssync_uptime_seconds", &[], metrics.uptime.as_secs());

    e.header("ssync_slo_target_ms", "gauge", "Per-priority SLO latency target, milliseconds.");
    for priority in Priority::ALL {
        e.value(
            "ssync_slo_target_ms",
            &[("priority", priority.label())],
            telemetry.slo_target_ns[priority.index()] / 1_000_000,
        );
    }
    e.header(
        "ssync_slo_burn_ppm",
        "gauge",
        "Fraction of requests over their SLO target across the window, parts per million.",
    );
    for priority in Priority::ALL {
        for (w, (window_label, _)) in SLO_WINDOWS.iter().enumerate() {
            if let Some(ppm) = telemetry.slo_burn_ppm[priority.index()][w] {
                e.value(
                    "ssync_slo_burn_ppm",
                    &[("priority", priority.label()), ("window", window_label)],
                    ppm,
                );
            }
        }
    }

    e.header("ssync_worker_executed_total", "counter", "Compiles executed per worker.");
    for (i, w) in metrics.workers.iter().enumerate() {
        e.value("ssync_worker_executed_total", &[("worker", &i.to_string())], w.executed);
    }

    e.header(
        "ssync_stage_latency_ns",
        "histogram",
        "Per-stage request latency, log2 buckets, nanoseconds.",
    );
    for stage in Stage::ALL {
        let snap = telemetry.stage(stage);
        for priority in Priority::ALL {
            let labels = [("stage", stage.label()), ("priority", priority.label())];
            let h = &snap.by_priority[priority.index()];
            e.histogram("ssync_stage_latency_ns", &labels, h);
            e.quantile_gauges("ssync_stage_latency", &labels, h);
        }
        for (i, kind) in CompilerKind::ALL.into_iter().enumerate() {
            let labels = [("stage", stage.label()), ("compiler", kind_slug(kind))];
            let h = &snap.by_kind[i];
            e.histogram("ssync_stage_latency_ns", &labels, h);
            e.quantile_gauges("ssync_stage_latency", &labels, h);
        }
    }

    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_core::ScoringTelemetry;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let t = ServiceTelemetry::new();
        let a = t.begin_trace();
        let b = t.begin_trace();
        assert_ne!(a.trace_id(), 0);
        assert_ne!(b.trace_id(), 0);
        assert_ne!(a.trace_id(), b.trace_id());
    }

    #[test]
    fn finish_request_records_journal_and_histograms() {
        let t = ServiceTelemetry::new();
        let span = t.begin_trace();
        t.finish_request(&span, Priority::High, CompilerKind::SSync);
        assert_eq!(t.traces_recorded(), 1);
        assert_eq!(t.slow_requests(), 0, "slow log disabled by default");
        let snap = t.snapshot();
        assert_eq!(snap.stage(Stage::EndToEnd).by_priority[Priority::High.index()].count(), 1);
        assert_eq!(snap.stage(Stage::EndToEnd).overall().count(), 1);
        let traces = t.recent_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].trace_id, span.trace_id());
        assert!(traces[0].total_ns > 0);
    }

    #[test]
    fn journal_cap_is_configurable_and_trace_detail_resolves() {
        let t = ServiceTelemetry::with_journal_cap(2);
        let spans: Vec<Span> = (0..3).map(|_| t.begin_trace()).collect();
        for s in &spans {
            t.finish_request_with(s, Priority::Normal, CompilerKind::SSync, None);
        }
        assert!(t.trace_detail(spans[0].trace_id()).is_none(), "cap 2 evicts the oldest");
        let (record, recording) = t.trace_detail(spans[2].trace_id()).expect("retained");
        assert_eq!(record.trace_id, spans[2].trace_id());
        assert!(recording.is_none(), "no compile ran, so no flight recording");
        // The end-to-end histograms carry the trace id as a bucket exemplar.
        let snap = t.snapshot();
        let hist = &snap.stage(Stage::EndToEnd).by_priority[Priority::Normal.index()];
        assert!(hist.exemplars.iter().any(|&e| e == spans[2].trace_id()));
    }

    #[test]
    fn slo_burn_windows_track_over_target_traffic() {
        let t = ServiceTelemetry::new();
        t.set_slo_target(Priority::High, Duration::from_nanos(1_000));
        assert_eq!(t.slo_burn_ppm()[Priority::High.index()], [None, None], "no readings yet");
        t.slo_tick(); // baseline reading
        for _ in 0..3 {
            t.record_ns(Stage::EndToEnd, Priority::High, CompilerKind::SSync, 10);
        }
        t.record_ns(Stage::EndToEnd, Priority::High, CompilerKind::SSync, 1 << 20);
        t.slo_tick();
        let burn = t.slo_burn_ppm()[Priority::High.index()];
        assert_eq!(burn[0], Some(250_000), "1 of 4 requests burned budget over the short window");
        assert_eq!(burn[1], Some(250_000), "long window saw the same delta");
        // Other priorities saw no traffic: burn stays undefined, not zero.
        assert_eq!(t.slo_burn_ppm()[Priority::Batch.index()], [None, None]);
    }

    #[test]
    fn zero_threshold_marks_everything_slow() {
        let t = ServiceTelemetry::new();
        t.set_slow_threshold(Some(Duration::ZERO));
        let span = t.begin_trace();
        t.finish_request(&span, Priority::Normal, CompilerKind::Greedy);
        assert_eq!(t.slow_requests(), 1);
        t.set_slow_threshold(None);
        let span = t.begin_trace();
        t.finish_request(&span, Priority::Normal, CompilerKind::Greedy);
        assert_eq!(t.slow_requests(), 1, "disabled threshold logs nothing");
    }

    #[test]
    fn exposition_renders_counters_and_quantiles() {
        let t = ServiceTelemetry::new();
        t.record(Stage::QueueWait, Priority::High, CompilerKind::SSync, Duration::from_micros(5));
        let metrics = ServiceMetrics {
            jobs_submitted: 3,
            jobs_completed: 3,
            jobs_coalesced: 0,
            jobs_near_duplicate: 0,
            jobs_deadline_expired: 0,
            submitted_by_priority: [1, 2, 0],
            queue_depth: 0,
            rejected_overloaded: 0,
            rejected_unauthorized: 0,
            conns_timed_out: 0,
            janitor_gc_runs: 0,
            scoring: ScoringTelemetry {
                candidates_scored: 10,
                scoring_passes: 2,
                readiness_memo_hits: 1,
                frontier_rebuilds: 4,
                stall_fallback_entries: 5,
                scoring_time_ns: 6,
            },
            traces_recorded: 3,
            slow_requests: 1,
            cache: Default::default(),
            workers: vec![Default::default()],
            uptime: Duration::from_secs(2),
        };
        let doc = render_text(&metrics, &t.snapshot());
        assert!(doc.contains("ssync_jobs_submitted_total 3\n"));
        assert!(doc.contains("ssync_jobs_submitted_by_priority_total{priority=\"high\"} 1\n"));
        assert!(doc.contains("ssync_traces_recorded_total 3\n"));
        assert!(doc.contains("ssync_slow_requests_total 1\n"));
        assert!(doc.contains("ssync_candidates_scored_total 10\n"));
        assert!(doc.contains("ssync_sched_stall_fallback_entries_total 5\n"));
        assert!(doc.contains("ssync_sched_scoring_time_ns_total 6\n"));
        assert!(doc.contains("ssync_worker_executed_total{worker=\"0\"} 0\n"));
        assert!(doc
            .contains("ssync_stage_latency_p50_ns{stage=\"queue_wait\",priority=\"high\"} 5000\n"));
        assert!(doc
            .contains("ssync_stage_latency_ns_count{stage=\"queue_wait\",compiler=\"ssync\"} 1\n"));
        assert!(doc.contains("ssync_uptime_seconds 2\n"));
        assert!(doc.contains("ssync_slo_target_ms{priority=\"high\"} 250\n"));
        assert!(doc.contains("ssync_slo_target_ms{priority=\"batch\"} 5000\n"));
        assert!(!doc.contains("ssync_slo_burn_ppm{"), "no readings yet, so no burn series");
    }

    #[test]
    fn exposition_renders_burn_gauges_once_windows_have_readings() {
        let t = ServiceTelemetry::new();
        t.set_slo_target(Priority::Normal, Duration::from_nanos(1_000));
        t.slo_tick();
        t.record_ns(Stage::EndToEnd, Priority::Normal, CompilerKind::SSync, 1 << 20);
        t.slo_tick();
        let metrics = ServiceMetrics { workers: vec![], ..Default::default() };
        let doc = render_text(&metrics, &t.snapshot());
        assert!(doc.contains("ssync_slo_burn_ppm{priority=\"normal\",window=\"1m\"} 1000000\n"));
        assert!(doc.contains("ssync_slo_burn_ppm{priority=\"normal\",window=\"10m\"} 1000000\n"));
    }
}
