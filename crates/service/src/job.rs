//! Requests and handles: what tenants submit and what they wait on.

use crate::codec::EncodedOutcome;
use crate::registry::RegisteredDevice;
use ssync_baselines::CompilerKind;
use ssync_circuit::{Circuit, StableHasher};
use ssync_core::{CompileError, CompileOutcome, CompilerConfig};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Scheduling priority of a request. Levels are *strict*: a worker always
/// drains every queued [`Priority::High`] job before touching
/// [`Priority::Normal`], and `Normal` before [`Priority::Batch`]. Within a
/// level, tenants share capacity through weighted deficit round-robin
/// (see the pool module docs) — priority orders *classes* of work,
/// fairness divides capacity *inside* a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Interactive / latency-sensitive requests; always served first.
    High,
    /// The default for ordinary submissions.
    #[default]
    Normal,
    /// Bulk sweeps that should soak up idle capacity without delaying
    /// anyone else.
    Batch,
}

impl Priority {
    /// All levels, most urgent first (the pool's drain order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// The level's index into per-priority tables (0 = most urgent).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Label used in logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// The queue depth at which the front-end sheds requests of this
    /// priority, given the configured overload `watermark`: `Batch` sheds
    /// at half the watermark, `Normal` at three quarters, `High` only at
    /// the full watermark. Making the shed point a pure function of queue
    /// depth is what guarantees "Batch first, High last" degradation — no
    /// races, no per-class bookkeeping.
    pub fn admission_threshold(self, watermark: usize) -> usize {
        match self {
            Priority::High => watermark,
            Priority::Normal => watermark - watermark / 4,
            Priority::Batch => watermark / 2,
        }
    }
}

/// An opaque tenant identity used for fair scheduling. The service never
/// interprets the value beyond equality — derive it however the deployment
/// identifies callers ([`TenantId::from_name`] hashes a string stably).
/// Requests that don't set one share the [`TenantId::ANON`] bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The shared bucket for requests that never set a tenant.
    pub const ANON: TenantId = TenantId(0);

    /// A tenant id derived from a name with the workspace's stable FNV-1a
    /// hash — the same name maps to the same id in every process.
    pub fn from_name(name: &str) -> Self {
        let mut h = StableHasher::new();
        h.write_str(name);
        TenantId(h.finish())
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{:016x}", self.0)
    }
}

/// One unit of service work: compile one circuit against one registered
/// device with one compiler under one configuration. Requests are cheap to
/// build in bulk — the device and circuit travel as `Arc`s, so the full
/// (device × circuit × compiler × config) product of a sweep shares every
/// underlying artifact.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The registered target machine.
    pub device: Arc<RegisteredDevice>,
    /// The shared input circuit.
    pub circuit: Arc<Circuit>,
    /// Which compiler to run.
    pub compiler: CompilerKind,
    /// The evaluation configuration; its `weights` must match the ones the
    /// device was registered under.
    pub config: CompilerConfig,
    /// Scheduling priority ([`Priority::Normal`] unless overridden).
    pub priority: Priority,
    /// The submitting tenant ([`TenantId::ANON`] unless overridden).
    /// Purely a scheduling identity — it never affects compiled output or
    /// cache keys, so tenants share cache entries.
    pub tenant: TenantId,
    /// Optional completion budget in microseconds from submission. When a
    /// worker claims the job *after* this much time has passed, the job
    /// completes with [`CompileError::DeadlineExceeded`] instead of
    /// occupying the worker — queue time already blew the budget, so the
    /// caller has moved on. `None` (the default) never expires. The
    /// deadline affects only *whether* a compile runs, never its output,
    /// and expired jobs are not cached; a deadline-carrying request is
    /// still served from the cache when the outcome already exists.
    pub deadline_us: Option<u64>,
}

impl CompileRequest {
    /// Bundles a request at [`Priority::Normal`] for [`TenantId::ANON`].
    pub fn new(
        device: Arc<RegisteredDevice>,
        circuit: Arc<Circuit>,
        compiler: CompilerKind,
        config: CompilerConfig,
    ) -> Self {
        CompileRequest {
            device,
            circuit,
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

    /// Returns a copy attributed to `tenant` for fair scheduling.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Returns a copy that expires `deadline_us` microseconds after
    /// submission (see [`CompileRequest::deadline_us`]).
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }
}

/// What a job resolves to: a shared outcome (possibly served straight from
/// the result cache) or the compiler's error.
pub type JobResult = Result<Arc<CompileOutcome>, CompileError>;

/// What a job settles to inside the service: the outcome's stored
/// encoding, or the compiler's error.
pub(crate) type Settled = Result<EncodedOutcome, CompileError>;

#[derive(Debug, Default)]
pub(crate) struct JobState {
    slot: Mutex<Option<Settled>>,
    /// The decoded outcome every handle on this job shares: the one a
    /// worker just compiled, or else decoded from the stored encoding by
    /// the first `wait` or `try_poll` that returns it.
    decoded: OnceLock<Arc<CompileOutcome>>,
    done: Condvar,
}

impl JobState {
    /// Settles the job. `compiled` is the outcome a worker just compiled
    /// and encoded, so no handle decodes it again; a cache hit has none.
    pub(crate) fn fulfil(&self, settled: Settled, compiled: Option<Arc<CompileOutcome>>) {
        if let Some(outcome) = compiled {
            let _ = self.decoded.set(outcome);
        }
        let mut slot = self.slot.lock().expect("job lock poisoned");
        debug_assert!(slot.is_none(), "a job is fulfilled exactly once");
        *slot = Some(settled);
        self.done.notify_all();
    }
}

/// A handle to one submitted request. Cloning is cheap; every clone
/// observes the same completion.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
}

impl JobHandle {
    pub(crate) fn new() -> (Self, Arc<JobState>) {
        let state = Arc::new(JobState::default());
        (JobHandle { state: Arc::clone(&state) }, state)
    }

    /// Blocks until the job completes and returns its result. Safe to call
    /// from multiple threads and multiple times — later calls return the
    /// same (shared) result immediately. A job served from the result
    /// cache decodes its outcome here, once for all of its handles.
    pub fn wait(&self) -> JobResult {
        self.decoded(self.wait_encoded())
    }

    /// Returns the result if the job already completed, `None` otherwise.
    /// Never blocks beyond the internal lock and, for a cache hit, the
    /// job's one decode.
    pub fn try_poll(&self) -> Option<JobResult> {
        self.try_poll_encoded().map(|settled| self.decoded(settled))
    }

    /// `true` once the job has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.try_poll_encoded().is_some()
    }

    /// [`JobHandle::wait`] without decoding: the stored encoding, which
    /// the front-end writes to the wire as it is.
    pub(crate) fn wait_encoded(&self) -> Settled {
        let mut slot = self.state.slot.lock().expect("job lock poisoned");
        while slot.is_none() {
            slot = self.state.done.wait(slot).expect("job lock poisoned");
        }
        slot.clone().expect("loop exits only when fulfilled")
    }

    /// [`JobHandle::try_poll`] without decoding.
    pub(crate) fn try_poll_encoded(&self) -> Option<Settled> {
        self.state.slot.lock().expect("job lock poisoned").clone()
    }

    fn decoded(&self, settled: Settled) -> JobResult {
        settled.map(|encoded| {
            Arc::clone(self.state.decoded.get_or_init(|| Arc::new(encoded.decode())))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_observe_fulfilment_from_another_thread() {
        let (handle, state) = JobHandle::new();
        assert!(!handle.is_done());
        assert!(handle.try_poll().is_none());
        let waiter = handle.clone();
        std::thread::scope(|scope| {
            let join = scope.spawn(move || waiter.wait());
            scope.spawn(move || {
                state.fulfil(Err(CompileError::DisconnectedTopology), None);
            });
            let result = join.join().expect("waiter thread");
            assert!(matches!(result, Err(CompileError::DisconnectedTopology)));
        });
        assert!(handle.is_done());
        assert!(matches!(handle.wait(), Err(CompileError::DisconnectedTopology)));
    }

    /// A job settled from the cache alone decodes its outcome once: every
    /// clone of the handle, every `wait` and every `try_poll` shares one
    /// `Arc`, and the stored encoding stays the one buffer.
    #[test]
    fn a_cache_hit_decodes_once_for_every_handle() {
        let (handle, state) = JobHandle::new();
        let encoded = EncodedOutcome::encode(&crate::codec::routed_outcome());
        state.fulfil(Ok(encoded.clone()), None);
        let clone = handle.clone();
        let waited = handle.wait().expect("ok");
        let polled = clone.try_poll().expect("done").expect("ok");
        assert!(Arc::ptr_eq(&waited, &polled));
        assert!(Arc::ptr_eq(&waited, &clone.wait().expect("ok")));
        assert_eq!(EncodedOutcome::encode(&waited), encoded, "decodes bit for bit");
        let settled = clone.wait_encoded().expect("ok");
        assert!(EncodedOutcome::ptr_eq(&settled, &encoded));
    }
}
