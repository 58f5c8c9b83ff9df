//! Golden equivalence tests for the `ssync-service` compile service.
//!
//! The contract: a result obtained through the service — whatever the
//! worker count, whichever worker claims the job, whether the job
//! executed, coalesced onto an in-flight twin or was served from the
//! result cache — must be **bit-identical** to calling the compiler's
//! `compile_on` directly on the same (device, circuit, config). Any
//! divergence means the service changed the algorithm, not just where it
//! runs.

use ssync_arch::QccdTopology;
use ssync_baselines::CompilerKind;
use ssync_bench::{comparison_rows, BenchScale};
use ssync_circuit::generators::{
    bernstein_vazirani, cuccaro_adder, qaoa_nearest_neighbor, qft, random_two_qubit_circuit,
};
use ssync_circuit::Circuit;
use ssync_core::{CompileOutcome, CompilerConfig};
use ssync_service::{
    CacheBounds, CompileRequest, CompileService, DeviceRegistry, EncodedOutcome, Priority, TenantId,
};
use std::sync::Arc;

fn suite() -> Vec<Arc<Circuit>> {
    vec![
        Arc::new(qft(12)),
        Arc::new(bernstein_vazirani(14)),
        Arc::new(cuccaro_adder(5)),
        Arc::new(qaoa_nearest_neighbor(12, 2)),
        Arc::new(random_two_qubit_circuit(10, 50, 5)),
    ]
}

fn device_topologies() -> Vec<(&'static str, QccdTopology)> {
    vec![("grid-2x2c6", QccdTopology::grid(2, 2, 6)), ("linear-3x7", QccdTopology::linear(3, 7))]
}

fn assert_same_outcome(a: &CompileOutcome, b: &CompileOutcome, what: &str) {
    assert_eq!(a.program().ops(), b.program().ops(), "op sequences diverge: {what}");
    assert_eq!(a.final_placement(), b.final_placement(), "placements diverge: {what}");
    assert_eq!(a.scheduler_stats(), b.scheduler_stats(), "stats diverge: {what}");
    assert_eq!(
        a.report().success_rate.to_bits(),
        b.report().success_rate.to_bits(),
        "reports diverge: {what}"
    );
}

/// The golden test the tentpole hangs on: the full (device × circuit ×
/// compiler) product through the service, at worker counts 1, 2 and 8,
/// against direct sequential `compile_on` calls — all four compiler kinds.
#[test]
fn service_results_are_bit_identical_to_direct_compile_at_any_worker_count() {
    let config = CompilerConfig::default();
    let circuits = suite();

    // Direct reference results, computed once, sequentially.
    let reference_registry = DeviceRegistry::new();
    let mut reference: Vec<(String, CompileOutcome)> = Vec::new();
    for (name, topo) in device_topologies() {
        let device = reference_registry.get_or_build(name, config.weights, || topo.clone());
        for circuit in &circuits {
            for kind in CompilerKind::ALL {
                let outcome = kind.compile_on(device.device(), circuit, &config).expect("compiles");
                reference.push((format!("{kind:?} on {name} / {}", circuit.name()), outcome));
            }
        }
    }

    for workers in [1usize, 2, 8] {
        let service = CompileService::with_workers(workers);
        let mut handles = Vec::new();
        for (name, topo) in device_topologies() {
            let device = service.registry().get_or_build(name, config.weights, || topo.clone());
            for circuit in &circuits {
                for kind in CompilerKind::ALL {
                    handles.push(service.submit(CompileRequest::new(
                        Arc::clone(&device),
                        Arc::clone(circuit),
                        kind,
                        config,
                    )));
                }
            }
        }
        assert_eq!(handles.len(), reference.len());
        for ((what, expected), handle) in reference.iter().zip(&handles) {
            let got = handle.wait().expect("compiles");
            assert_same_outcome(&got, expected, &format!("{what} with {workers} workers"));
        }
    }
}

/// Batch submission (each request queued in order under its tenant) is
/// just as bit-identical as one-by-one submission.
#[test]
fn batch_submission_matches_direct_compile() {
    let config = CompilerConfig::default();
    let circuits = suite();
    let service = CompileService::with_workers(4);
    let device = service
        .registry()
        .get_or_build("batch-dev", config.weights, || QccdTopology::grid(2, 2, 6));
    let requests: Vec<CompileRequest> = circuits
        .iter()
        .flat_map(|circuit| {
            CompilerKind::ALL.into_iter().map(|kind| {
                CompileRequest::new(Arc::clone(&device), Arc::clone(circuit), kind, config)
            })
        })
        .collect();
    let handles = service.submit_batch(requests);
    let mut i = 0;
    for circuit in &circuits {
        for kind in CompilerKind::ALL {
            let got = handles[i].wait().expect("compiles");
            let direct = kind.compile_on(device.device(), circuit, &config).expect("compiles");
            assert_same_outcome(&got, &direct, &format!("{kind:?} / {}", circuit.name()));
            i += 1;
        }
    }
}

/// A resubmitted request is served from the result cache: the same
/// compile decoded from its stored bytes, no second compile, and a config
/// change still forces a fresh compile.
#[test]
fn cache_serves_identical_resubmissions_and_respects_config_changes() {
    let config = CompilerConfig::default();
    let service = CompileService::with_workers(2);
    let device =
        service.registry().get_or_build_named("G-2x2", config.weights).expect("known topology");
    let circuit = Arc::new(qft(12));
    let submit = |cfg: &CompilerConfig| {
        service
            .submit(CompileRequest::new(
                Arc::clone(&device),
                Arc::clone(&circuit),
                CompilerKind::SSync,
                *cfg,
            ))
            .wait()
            .expect("compiles")
    };

    let first = submit(&config);
    let second = submit(&config);
    assert_eq!(first.program().ops(), second.program().ops());
    assert_eq!(first.final_placement(), second.final_placement());
    assert_eq!(first.scheduler_stats(), second.scheduler_stats());
    assert_eq!(first.report().success_rate.to_bits(), second.report().success_rate.to_bits());
    assert_eq!(first.report().total_time_us.to_bits(), second.report().total_time_us.to_bits());
    let metrics = service.metrics();
    assert_eq!(metrics.cache.hits, 1);
    assert_eq!(metrics.jobs_executed(), 1);
    // The cache holds that one compile's encoding, shared by both.
    let stored = EncodedOutcome::encode(&first);
    assert_eq!(metrics.cache.entries, 1);
    assert_eq!(metrics.cache.bytes, stored.as_bytes().len());
    assert_eq!(stored, EncodedOutcome::encode(&second));

    // A config change must miss and recompile.
    let changed = submit(&config.with_decay(0.01));
    assert!(!Arc::ptr_eq(&first, &changed));
    assert_eq!(service.metrics().jobs_executed(), 2);
}

/// The priority/fairness golden test: tagging the full (device × circuit
/// × compiler) product with a mix of priorities and tenants — including a
/// reweighted tenant — reorders *when* jobs run but never changes a
/// single bit of any output. Scheduling is pure policy.
#[test]
fn priority_and_tenant_scheduling_changes_ordering_never_output() {
    let config = CompilerConfig::default();
    let circuits = suite();

    // Direct reference results, computed once, sequentially.
    let reference_registry = DeviceRegistry::new();
    let mut reference: Vec<(String, CompileOutcome)> = Vec::new();
    for (name, topo) in device_topologies() {
        let device = reference_registry.get_or_build(name, config.weights, || topo.clone());
        for circuit in &circuits {
            for kind in CompilerKind::ALL {
                let outcome = kind.compile_on(device.device(), circuit, &config).expect("compiles");
                reference.push((format!("{kind:?} on {name} / {}", circuit.name()), outcome));
            }
        }
    }

    // The same product through the service, every job tagged: priorities
    // cycle through High/Normal/Batch and each circuit belongs to its own
    // tenant, one of them double-weighted.
    for workers in [1usize, 4] {
        let service = CompileService::with_workers(workers);
        service.set_tenant_weight(TenantId::from_name("tenant-1"), 2.0);
        let mut requests = Vec::new();
        let mut tag = 0usize;
        for (name, topo) in device_topologies() {
            let device = service.registry().get_or_build(name, config.weights, || topo.clone());
            for (c, circuit) in circuits.iter().enumerate() {
                for kind in CompilerKind::ALL {
                    requests.push(
                        CompileRequest::new(Arc::clone(&device), Arc::clone(circuit), kind, config)
                            .with_priority(Priority::ALL[tag % 3])
                            .with_tenant(TenantId::from_name(&format!("tenant-{c}"))),
                    );
                    tag += 1;
                }
            }
        }
        let handles = service.submit_batch(requests);
        assert_eq!(handles.len(), reference.len());
        for ((what, expected), handle) in reference.iter().zip(&handles) {
            let got = handle.wait().expect("compiles");
            assert_same_outcome(&got, expected, &format!("{what}, {workers} workers, tagged"));
        }
        let metrics = service.metrics();
        let by_priority: u64 = metrics.submitted_by_priority.iter().sum();
        assert_eq!(by_priority, reference.len() as u64, "every submission was tagged");
        assert!(metrics.submitted_at(Priority::High) > 0);
        assert!(metrics.submitted_at(Priority::Batch) > 0);
    }
}

/// A bounded cache under eviction pressure still never changes results:
/// evicted entries simply recompile to the identical outcome.
#[test]
fn eviction_pressure_never_changes_results() {
    let config = CompilerConfig::default();
    let circuits = suite();
    let service =
        CompileService::builder().workers(2).cache_bounds(CacheBounds::with_max_entries(2)).build();
    let device = service
        .registry()
        .get_or_build("evict-dev", config.weights, || QccdTopology::grid(2, 2, 6));
    // Two passes over the suite: the second pass mostly misses (capacity 2
    // << suite size) and recompiles.
    for pass in 0..2 {
        for circuit in &circuits {
            let got = service
                .submit(CompileRequest::new(
                    Arc::clone(&device),
                    Arc::clone(circuit),
                    CompilerKind::SSync,
                    config,
                ))
                .wait()
                .expect("compiles");
            let direct = CompilerKind::SSync
                .compile_on(device.device(), circuit, &config)
                .expect("compiles");
            assert_same_outcome(&got, &direct, &format!("pass {pass} / {}", circuit.name()));
        }
    }
    let stats = service.cache().stats();
    assert!(stats.evictions > 0, "the bounded cache actually evicted");
    assert!(stats.entries <= 2, "entry cap holds");
}

/// Registry fingerprints are stable across independent registries and
/// track device content, not names.
#[test]
fn registry_fingerprints_are_stable_and_content_derived() {
    let weights = CompilerConfig::default().weights;
    let a = DeviceRegistry::new().get_or_build_named("G-2x3", weights).expect("known");
    let b = DeviceRegistry::new().get_or_build_named("G-2x3", weights).expect("known");
    assert_eq!(a.fingerprint(), b.fingerprint(), "same machine, same fingerprint");

    let renamed =
        DeviceRegistry::new().get_or_build("custom-name", weights, || QccdTopology::grid(2, 3, 17));
    assert_eq!(a.fingerprint(), renamed.fingerprint(), "names do not affect fingerprints");

    let bigger =
        DeviceRegistry::new().get_or_build("G-2x3-cap18", weights, || QccdTopology::grid(2, 3, 18));
    assert_ne!(a.fingerprint(), bigger.fingerprint(), "capacity changes the fingerprint");
}

/// The rewired comparison sweep (Figs. 8–10) produces exactly the rows the
/// historical nested compile loop produced.
#[test]
fn comparison_rows_match_the_direct_nested_loop() {
    let config = CompilerConfig::default();
    let rows = comparison_rows(BenchScale::Small, &config, |_| {});
    assert!(!rows.is_empty());
    let registry = DeviceRegistry::new();
    for row in &rows {
        let device = registry.get_or_build_named(&row.topology, config.weights).expect("known");
        let app_qubits: usize =
            row.app.rsplit('_').next().expect("app label has a size").parse().expect("numeric");
        let circuit = ssync_bench::scaled_app(
            match row.app.split('_').next().expect("app label") {
                "QFT" => ssync_bench::AppKind::Qft,
                "Adder" => ssync_bench::AppKind::Adder,
                "QAOA" => ssync_bench::AppKind::Qaoa,
                "ALT" => ssync_bench::AppKind::Alt,
                "BV" => ssync_bench::AppKind::Bv,
                other => panic!("unexpected app label {other}"),
            },
            app_qubits,
        );
        let direct = row.compiler.compile_on(device.device(), &circuit, &config).expect("compiles");
        assert_eq!(row.shuttles, direct.counts().shuttles, "{} on {}", row.app, row.topology);
        assert_eq!(row.swaps, direct.counts().swap_gates, "{} on {}", row.app, row.topology);
        assert_eq!(
            row.success_rate.to_bits(),
            direct.report().success_rate.to_bits(),
            "{} on {}",
            row.app,
            row.topology
        );
    }
}
