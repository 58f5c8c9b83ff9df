//! Criterion benchmark behind Fig. 15: compilation time of every compiler
//! kind as the application grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssync_arch::QccdTopology;
use ssync_bench::{run_compiler, scaled_app, AppKind, CompilerKind};
use ssync_core::CompilerConfig;

fn bench_compile_time(c: &mut Criterion) {
    let topo = QccdTopology::grid(2, 2, 10);
    let config = CompilerConfig::default();
    let mut group = c.benchmark_group("compile_time_qft");
    group.sample_size(10);
    for qubits in [12usize, 20, 28] {
        let circuit = scaled_app(AppKind::Qft, qubits);
        for compiler in CompilerKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(compiler.label(), qubits),
                &circuit,
                |b, circuit| {
                    b.iter(|| {
                        run_compiler(compiler, circuit, &topo, &config)
                            .expect("compilation succeeds")
                            .counts()
                            .shuttles
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_compile_apps(c: &mut Criterion) {
    let topo = QccdTopology::grid(2, 2, 10);
    let config = CompilerConfig::default();
    let mut group = c.benchmark_group("compile_time_apps");
    group.sample_size(10);
    for app in [AppKind::Adder, AppKind::Qaoa, AppKind::Alt, AppKind::Bv] {
        let circuit = scaled_app(app, 24);
        group.bench_function(BenchmarkId::new("ssync", app.label()), |b| {
            b.iter(|| {
                run_compiler(CompilerKind::SSync, &circuit, &topo, &config)
                    .expect("compilation succeeds")
                    .counts()
                    .shuttles
            })
        });
    }
    group.finish();
}

/// The hot-path speedup measurement: the optimized scheduler
/// ([`ssync_core::Scheduler::run`]) against the straightforward reference
/// transcription of Algorithm 1 (`run_reference`), scheduler-only (no
/// tracing / report overhead), on the largest circuits of the suite and on
/// QFT-36 on the paper's G-3x3. Its short traps make that cell
/// shuttle-heavy, so candidate scoring is most of its time. Both produce
/// bit-identical programs; only the wall clock differs.
fn bench_scheduler_hot_path(c: &mut Criterion) {
    use ssync_arch::Device;
    use ssync_core::{initial, Scheduler};

    let config = CompilerConfig::default();
    let long_traps = Device::build(QccdTopology::grid(2, 2, 10), config.weights);
    let short_traps = Device::named("G-3x3", config.weights).expect("paper topology");
    let mut group = c.benchmark_group("scheduler_hot_path");
    group.sample_size(10);
    for (label, circuit, device) in [
        ("qft/28", scaled_app(AppKind::Qft, 28), &long_traps),
        ("qaoa/24", scaled_app(AppKind::Qaoa, 24), &long_traps),
        ("adder/24", scaled_app(AppKind::Adder, 24), &long_traps),
        ("qft-36@G-3x3", scaled_app(AppKind::Qft, 36), &short_traps),
    ] {
        let placement = initial::build_placement(&circuit, device, &config);
        group.bench_with_input(BenchmarkId::new("optimized", label), &circuit, |b, circuit| {
            b.iter(|| {
                let mut scheduler = Scheduler::new(device, &config);
                scheduler.run(circuit, placement.clone()).expect("schedules").0.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", label), &circuit, |b, circuit| {
            b.iter(|| {
                let mut scheduler = Scheduler::new(device, &config);
                scheduler.run_reference(circuit, placement.clone()).expect("schedules").0.len()
            })
        });
    }
    group.finish();
}

/// S-SYNC initial placement alone (`initial::build_placement`: the
/// first-level trap assignment plus the Eq. 3 mountain ordering inside
/// each trap) on three paper-device cells, the long-chain ones where
/// placement once rivalled the scheduler in a short compile.
fn bench_initial_placement(c: &mut Criterion) {
    use ssync_arch::Device;
    use ssync_core::initial;

    let config = CompilerConfig::default();
    let mut group = c.benchmark_group("initial_placement");
    group.sample_size(10);
    for (label, app, qubits, device) in [
        ("qft-48@G-3x3", AppKind::Qft, 48, "G-3x3"),
        ("heisenberg-40@L-2", AppKind::Heisenberg, 40, "L-2"),
        ("qaoa-40@G-2x2", AppKind::Qaoa, 40, "G-2x2"),
    ] {
        let circuit = scaled_app(app, qubits);
        let device = Device::named(device, config.weights).expect("paper topology");
        group.bench_with_input(BenchmarkId::new("ssync", label), &circuit, |b, circuit| {
            b.iter(|| initial::build_placement(circuit, &device, &config).num_placed())
        });
    }
    group.finish();
}

/// Cost of building the shared [`ssync_arch::Device`] artifact itself —
/// the fixed price a sweep pays once per (topology, weights) cell instead
/// of once per compile.
fn bench_device_build(c: &mut Criterion) {
    use ssync_arch::Device;

    let config = CompilerConfig::default();
    let mut group = c.benchmark_group("device_build");
    group.sample_size(10);
    for name in ["G-2x3", "G-3x3", "S-6", "L-6"] {
        group.bench_function(name, |b| {
            b.iter(|| {
                // Touch the lazy distance matrix so the full artifact cost
                // (graph + router + all-pairs distances + edge index) is
                // what this benchmark reports.
                Device::named(name, config.weights)
                    .expect("known topology")
                    .distance_matrix()
                    .num_slots()
            })
        });
    }
    group.finish();
}

/// Service throughput over the multi-device product: the same
/// (device × circuit × compiler) job set run three ways — a direct
/// sequential `compile_on` loop ("direct"), a fresh [`CompileService`]
/// per iteration including worker spawn/join ("service"), and resubmission
/// against a persistent, already-primed service where every job is a
/// result-cache hit ("cache_hit"). Job count is part of the benchmark name
/// so the JSON stays self-describing; jobs/sec = jobs ÷ (mean_ns × 1e-9).
fn bench_service_throughput(c: &mut Criterion) {
    use ssync_service::{CompileRequest, CompileService};
    use std::sync::Arc;

    let config = CompilerConfig::default();
    let topologies =
        [("G-2x2", QccdTopology::grid(2, 2, 10)), ("L-3", QccdTopology::linear(3, 10))];
    let circuits: Vec<Arc<_>> =
        [(AppKind::Qft, 16usize), (AppKind::Bv, 16), (AppKind::Adder, 16), (AppKind::Qaoa, 16)]
            .into_iter()
            .map(|(app, n)| Arc::new(scaled_app(app, n)))
            .collect();
    let kinds = CompilerKind::ALL;
    let jobs = topologies.len() * circuits.len() * kinds.len();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("direct", format!("{jobs}jobs")), |b| {
        use ssync_arch::Device;
        let devices: Vec<Device> =
            topologies.iter().map(|(_, t)| Device::build(t.clone(), config.weights)).collect();
        b.iter(|| {
            let mut ok = 0usize;
            for device in &devices {
                for circuit in &circuits {
                    for kind in kinds {
                        ok += usize::from(kind.compile_on(device, circuit, &config).is_ok());
                    }
                }
            }
            ok
        })
    });

    group.bench_function(
        BenchmarkId::new("service", format!("{jobs}jobs/{workers}workers")),
        |b| {
            b.iter(|| {
                // Fresh service per iteration: the measurement includes
                // registry build, worker spawn and join, so it is the
                // honest cold-start cost — no cache carry-over between
                // iterations.
                let service = CompileService::with_workers(workers);
                let devices: Vec<_> = topologies
                    .iter()
                    .map(|(name, t)| {
                        service.registry().get_or_build(name, config.weights, || t.clone())
                    })
                    .collect();
                let handles = service.submit_batch(devices.iter().flat_map(|device| {
                    circuits.iter().flat_map(|circuit| {
                        kinds.map(|kind| {
                            CompileRequest::new(
                                Arc::clone(device),
                                Arc::clone(circuit),
                                kind,
                                config,
                            )
                        })
                    })
                }));
                handles.iter().filter(|h| h.wait().is_ok()).count()
            })
        },
    );

    // Persistent service, primed once: every iteration's jobs are all
    // result-cache hits — the steady-state cost of a repeated sweep.
    let service = CompileService::with_workers(workers);
    let devices: Vec<_> = topologies
        .iter()
        .map(|(name, t)| service.registry().get_or_build(name, config.weights, || t.clone()))
        .collect();
    let submit_all = || {
        service.submit_batch(devices.iter().flat_map(|device| {
            circuits.iter().flat_map(|circuit| {
                kinds.map(|kind| {
                    CompileRequest::new(Arc::clone(device), Arc::clone(circuit), kind, config)
                })
            })
        }))
    };
    for handle in submit_all() {
        handle.wait().expect("priming compiles");
    }
    group.bench_function(BenchmarkId::new("cache_hit", format!("{jobs}jobs")), |b| {
        b.iter(|| submit_all().iter().filter(|h| h.wait().is_ok()).count())
    });
    let stats = service.cache().stats();
    assert!(stats.hits > 0, "cache-hit bench must exercise the hit path");
    group.finish();
}

/// Result-cache behaviour under capacity pressure: one fixed working set
/// of (circuit, config) jobs replayed against caches bounded at 25%, 50%
/// and 100% of the working-set size. The access pattern mixes a hot
/// quarter of the keys (re-touched between every cold key) with a cold
/// sweep, so the segmented-LRU policy has something to protect:
///
/// * `cap100pct` — everything fits; steady state is all hits.
/// * `cap50pct` — the hot keys stay protected, the cold sweep churns.
/// * `cap25pct` — even the hot set barely fits; most accesses recompile.
///
/// The measured steady-state hit rate is embedded in the benchmark name
/// (`…/hitNN`, in percent) so the JSON records rate and wall-clock
/// together; wall-clock per sweep is dominated by the eviction-induced
/// recompiles.
fn bench_cache_eviction(c: &mut Criterion) {
    use ssync_arch::Device;
    use ssync_core::SSyncCompiler;
    use ssync_service::hash::{config_hash, device_fingerprint};
    use ssync_service::{CacheBounds, CacheConfig, CacheKey, EncodedOutcome, ResultCache};

    let base = CompilerConfig::default();
    let device = Device::build(QccdTopology::grid(2, 2, 8), base.weights);
    let fingerprint = device_fingerprint(&device);
    let circuit = scaled_app(AppKind::Qft, 12);
    let circuit_hash = circuit.content_hash();

    // Twelve distinct output-affecting configs = twelve cache keys.
    let configs: Vec<CompilerConfig> =
        (0..12).map(|i| base.with_decay(0.001 + 0.0005 * i as f64)).collect();
    let jobs: Vec<(CacheKey, CompilerConfig)> = configs
        .iter()
        .map(|config| {
            let key = CacheKey {
                device_fingerprint: fingerprint,
                circuit_hash,
                config_hash: config_hash(config),
                compiler: CompilerKind::SSync,
            };
            (key, *config)
        })
        .collect();
    // Hot/cold access pattern: cold keys 3..12 in order, a hot key
    // (0..3, round-robin) re-touched after each.
    let accesses: Vec<usize> = (3..jobs.len()).flat_map(|cold| [cold, cold % 3]).collect();

    let sweep = |cache: &ResultCache| -> usize {
        let mut compiled = 0usize;
        for &i in &accesses {
            let (key, config) = &jobs[i];
            if cache.get(key).is_none() {
                let outcome =
                    SSyncCompiler::new(*config).compile_on(&device, &circuit).expect("compiles");
                cache.insert(*key, EncodedOutcome::encode(&outcome));
                compiled += 1;
            }
        }
        compiled
    };

    let mut group = c.benchmark_group("cache_eviction");
    group.sample_size(10);
    for (label, capacity) in
        [("cap25pct", jobs.len() / 4), ("cap50pct", jobs.len() / 2), ("cap100pct", jobs.len())]
    {
        let cache = ResultCache::with_config(CacheConfig {
            bounds: CacheBounds::with_max_entries(capacity),
            ..CacheConfig::default()
        });
        sweep(&cache); // warm to steady state
        let before = cache.stats();
        sweep(&cache);
        let after = cache.stats();
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        let hit_pct = (100 * (after.hits - before.hits)) / lookups.max(1);
        group.bench_function(BenchmarkId::new(label, format!("hit{hit_pct}")), |b| {
            b.iter(|| sweep(&cache))
        });
    }
    group.finish();
}

/// Cost of request tracing on the compile service. `tracing_on` is the
/// default configuration (spans, stage histograms and the trace journal
/// all live); `tracing_off` flips the service-wide telemetry switch
/// before any submission. Both modes run the identical mixed workload
/// through a fresh two-worker service per iteration, and before anything
/// is timed one run of each mode is compared outcome-by-outcome: tracing
/// must not change a single compiled op, placement, or scheduler stat.
/// The two groups land side by side in `BENCH_scheduling.json`, so the
/// recorded overhead bound is `tracing_on / tracing_off`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use ssync_service::{CompileRequest, CompileService};
    use std::sync::Arc;

    let config = CompilerConfig::default();
    let topology = QccdTopology::grid(2, 2, 8);
    let circuits: Vec<Arc<_>> = [(AppKind::Qft, 12usize), (AppKind::Bv, 12), (AppKind::Adder, 12)]
        .into_iter()
        .map(|(app, n)| Arc::new(scaled_app(app, n)))
        .collect();
    let jobs = circuits.len() * CompilerKind::ALL.len();

    let run = |tracing: bool| {
        let service = CompileService::with_workers(2);
        service.telemetry().set_enabled(tracing);
        let device = service.registry().get_or_build("tight", config.weights, || topology.clone());
        let handles = service.submit_batch(circuits.iter().flat_map(|circuit| {
            CompilerKind::ALL.map(|kind| {
                CompileRequest::new(Arc::clone(&device), Arc::clone(circuit), kind, config)
            })
        }));
        handles.iter().map(|h| h.wait().expect("compiles")).collect::<Vec<_>>()
    };

    // Bit-identical gate, outside the timed region: tracing is pure
    // observation and must never leak into compilation results.
    let on = run(true);
    let off = run(false);
    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(off.iter()) {
        assert_eq!(a.program().ops(), b.program().ops(), "tracing changed compiled ops");
        assert_eq!(a.final_placement(), b.final_placement(), "tracing changed placement");
        assert_eq!(a.scheduler_stats(), b.scheduler_stats(), "tracing changed scheduler stats");
    }
    drop((on, off));

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for (label, tracing) in [("tracing_on", true), ("tracing_off", false)] {
        group.bench_function(BenchmarkId::new(label, format!("{jobs}jobs")), |b| {
            b.iter(|| run(tracing).len())
        });
    }
    group.finish();
}

/// Cost of the compile flight recorder: QFT-24 through every compiler
/// with the `CompileScratch` recorder switch on versus off. Before
/// anything is timed, one run of each mode is compared outcome-by-outcome
/// for **every** [`CompilerKind`]: the recorder observes without steering,
/// so a single differing op, placement entry or scheduler stat is a bug,
/// not a regression. The two groups land side by side in
/// `BENCH_scheduling.json`; the recorded overhead bound is
/// `recorder_on / recorder_off`.
fn bench_flight_recorder(c: &mut Criterion) {
    use ssync_arch::Device;
    use ssync_core::CompileScratch;

    let topo = QccdTopology::grid(2, 2, 10);
    let base = CompilerConfig::default();
    let circuit = scaled_app(AppKind::Qft, 24);
    // Like `run_compiler`, builds a throw-away device per compile.
    let compile = |kind: CompilerKind, recording: bool| {
        let device = Device::build(topo.clone(), base.weights);
        kind.compile_on_with(&device, &circuit, &base, &mut CompileScratch::new(recording))
            .expect("compiles")
    };

    // Bit-identity gate, outside the timed region.
    for kind in CompilerKind::ALL {
        let (plain, plain_run) = compile(kind, false);
        let (recorded, run) = compile(kind, true);
        assert_eq!(
            plain.program().ops(),
            recorded.program().ops(),
            "{kind:?}: recording changed compiled ops"
        );
        assert_eq!(
            plain.final_placement(),
            recorded.final_placement(),
            "{kind:?}: recording changed placement"
        );
        assert_eq!(
            plain.scheduler_stats(),
            recorded.scheduler_stats(),
            "{kind:?}: recording changed scheduler stats"
        );
        assert!(plain_run.recording.is_none(), "{kind:?}: off means off");
        if matches!(kind, CompilerKind::SSync | CompilerKind::PermRoute) {
            let recording = run.recording.expect("instrumented compiler records");
            assert!(!recording.events.is_empty(), "{kind:?}: recording captured events");
        }
    }

    let mut group = c.benchmark_group("flight_recorder");
    group.sample_size(10);
    for (label, recording) in [("recorder_off", false), ("recorder_on", true)] {
        group.bench_function(BenchmarkId::new(label, "qft/24"), |b| {
            b.iter(|| {
                CompilerKind::ALL
                    .into_iter()
                    .map(|kind| compile(kind, recording).0.counts().shuttles)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

/// QASM ingest: `ssync_qasm::parse` over each `workloads/` corpus file and
/// over a Heisenberg-48×48 export (678 KB, the largest file the
/// end-to-end benchmark sends). Each row reports the median µs per parse
/// and the MB/s that implies.
fn bench_qasm_parse(c: &mut Criterion) {
    use ssync_circuit::generators::heisenberg_chain;

    let mut inputs: Vec<(String, String)> =
        std::fs::read_dir(ssync_bench::qasm_corpus::corpus_dir())
            .expect("workloads/ checked in")
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "qasm"))
            .map(|path| {
                let name =
                    path.file_stem().and_then(|s| s.to_str()).unwrap_or("unnamed").to_string();
                (name, std::fs::read_to_string(&path).expect("readable corpus file"))
            })
            .collect();
    inputs.sort();
    inputs.push(("heisenberg_48x48".into(), ssync_qasm::export(&heisenberg_chain(48, 48))));

    let mut group = c.benchmark_group("qasm_parse");
    group.sample_size(30);
    for (name, text) in &inputs {
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::new("parse", name), text, |b, text| {
            b.iter(|| ssync_qasm::parse(text).expect("corpus parses").circuit.len())
        });
    }
    group.finish();
}

/// The request path outside the compile, on three fixed `chain-swap-cold`
/// cells (a long-chain device, a binary submit): the circuit's content
/// hash that keys the result cache, the circuit codec a submit crosses
/// and the outcome codec every result crosses. Outcomes are S-SYNC's.
fn bench_request_path(c: &mut Criterion) {
    use ssync_arch::Device;
    use ssync_service::codec::{
        decode_circuit, decode_outcome, encode_circuit, encode_outcome, ByteReader, ByteWriter,
    };

    let config = CompilerConfig::default();
    let encode = |write: &dyn Fn(&mut ByteWriter)| {
        let mut w = ByteWriter::new();
        write(&mut w);
        w.into_bytes()
    };
    let mut group = c.benchmark_group("request_path");
    group.sample_size(50);
    for (label, app, qubits, device) in [
        ("qft-40@L-2", AppKind::Qft, 40, "L-2"),
        ("heisenberg-20@S-4", AppKind::Heisenberg, 20, "S-4"),
        ("qaoa-30@G-2x2", AppKind::Qaoa, 30, "G-2x2"),
    ] {
        let circuit = scaled_app(app, qubits);
        let device = Device::named(device, config.weights).expect("paper topology");
        let outcome = CompilerKind::SSync.compile_on(&device, &circuit, &config).expect("compiles");
        let circuit_bytes = encode(&|w| encode_circuit(w, &circuit));
        let outcome_bytes = encode(&|w| encode_outcome(w, &outcome));
        group.bench_function(BenchmarkId::new("content_hash", label), |b| {
            b.iter(|| circuit.content_hash())
        });
        group.bench_function(BenchmarkId::new("encode_circuit", label), |b| {
            b.iter(|| encode(&|w| encode_circuit(w, &circuit)).len())
        });
        group.bench_function(BenchmarkId::new("decode_circuit", label), |b| {
            b.iter(|| decode_circuit(&mut ByteReader::new(&circuit_bytes)).expect("decodes").len())
        });
        group.bench_function(BenchmarkId::new("encode_outcome", label), |b| {
            b.iter(|| encode(&|w| encode_outcome(w, &outcome)).len())
        });
        group.bench_function(BenchmarkId::new("decode_outcome", label), |b| {
            b.iter(|| {
                decode_outcome(&mut ByteReader::new(&outcome_bytes))
                    .expect("decodes")
                    .program()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile_time,
    bench_compile_apps,
    bench_scheduler_hot_path,
    bench_initial_placement,
    bench_device_build,
    bench_service_throughput,
    bench_cache_eviction,
    bench_telemetry_overhead,
    bench_flight_recorder,
    bench_qasm_parse,
    bench_request_path
);
criterion_main!(benches);
