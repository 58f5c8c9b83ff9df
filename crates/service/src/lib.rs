//! # ssync-service
//!
//! A long-lived, multi-tenant **compile service** over the S-SYNC compiler
//! and its baselines: the front-end the production-traffic north star
//! needs, turning one-shot CLI compilation into a shared system that
//! accepts heterogeneous requests over the full (device × circuit ×
//! compiler × config) product.
//!
//! Cooperating components (std-only — threads and channels, no async
//! runtime):
//!
//! * [`DeviceRegistry`] — names machines, builds each [`ssync_arch::Device`]
//!   artifact exactly once per `(name, weights)` key, shares it as an
//!   `Arc`, and fingerprints its *content* stably for cache keying.
//! * [`CompileService`] — a worker pool over one priority queue
//!   (hand-rolled on `std::sync`) executing [`CompileRequest`]s through
//!   the unified
//!   [`CompilerKind`](ssync_baselines::CompilerKind) entry point.
//!   Requests carry a [`Priority`] (High / Normal / Batch, strictly
//!   ordered) and an opaque [`TenantId`]; tenants at the same level share
//!   capacity through weighted deficit round-robin, so a bulk sweep can't
//!   starve interactive work. Submissions return [`JobHandle`]s with
//!   blocking `wait()` and non-blocking `try_poll()`.
//! * [`ResultCache`] — memoises outcomes by (device fingerprint, circuit
//!   content hash, config hash, compiler kind) in a **bounded,
//!   segmented-LRU** tier (entry + byte caps, eviction counters) with an
//!   optional **persistent directory tier** whose files are valid across
//!   processes.
//! * [`wire`] / [`front`] / [`client`] — a length-prefixed binary IPC
//!   protocol, the `ssync-serviced` server loop (Unix socket or
//!   stdin/stdout) and the matching in-process client, mapping the
//!   request/handle API onto a remote service.
//!
//! **Determinism guarantee:** compiled output is bit-identical to a
//! sequential `compile_on` loop at any worker count, priority mix and
//! tenant labelling; the `service_equivalence` integration tests enforce
//! it at 1, 2 and 8 workers for all four compiler kinds.
//!
//! ```
//! use ssync_baselines::CompilerKind;
//! use ssync_circuit::generators::qft;
//! use ssync_core::CompilerConfig;
//! use ssync_service::{CompileRequest, CompileService, Priority, TenantId};
//! use std::sync::Arc;
//!
//! let service = CompileService::with_workers(2);
//! let config = CompilerConfig::default();
//! let device = service.registry().get_or_build_named("G-2x2", config.weights).unwrap();
//! let circuit = Arc::new(qft(10));
//! let handle = service.submit(
//!     CompileRequest::new(device, circuit, CompilerKind::SSync, config)
//!         .with_priority(Priority::High)
//!         .with_tenant(TenantId::from_name("docs")),
//! );
//! let outcome = handle.wait().unwrap();
//! assert_eq!(outcome.counts().two_qubit_gates, 90);
//! assert_eq!(service.metrics().jobs_completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod codec;
pub mod front;
pub mod hash;
mod job;
mod metrics;
mod pool;
pub mod registry;
pub mod telemetry;
pub mod wire;

pub use cache::{CacheBounds, CacheConfig, CacheKey, CacheStats, ResultCache};
pub use client::{BackoffPolicy, ServiceClient};
pub use codec::EncodedOutcome;
pub use front::FrontConfig;
pub use job::{CompileRequest, JobHandle, JobResult, Priority, TenantId};
pub use metrics::{ServiceMetrics, WorkerMetrics};
pub use pool::{CompileService, CompileServiceBuilder};
pub use registry::{DeviceRegistry, RegisteredDevice};
pub use telemetry::{
    render_text, ServiceTelemetry, Stage, StageSnapshot, TelemetrySnapshot, SLO_TICK_INTERVAL,
    SLO_WINDOWS,
};
