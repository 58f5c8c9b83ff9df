//! The traced run: replays requests in-process, calling each layer's
//! public functions under a span. Nothing inside the program is traced;
//! the spans sit around the calls, in this file.

use crate::gen::{Cell, RequestList};
use ssync_arch::Device;
use ssync_baselines::CompilerKind;
use ssync_circuit::Circuit;
use ssync_core::{
    initial, CompileOutcome, CompilerConfig, SSyncCompiler, Scheduler, ScoringTelemetry,
};
use ssync_service::codec::{
    decode_circuit, decode_outcome, encode_circuit, encode_outcome, ByteReader, ByteWriter,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// Every span name the replay records, outermost layers first.
pub const LAYERS: [&str; 12] = [
    "arch.device_build",
    "request",
    "qasm.parse",
    "service.codec.decode_circuit",
    "core.ssync",
    "core.initial",
    "core.scheduler",
    "sim.evaluate",
    "core.perm_route",
    "baselines",
    "service.codec.encode_outcome",
    "service.codec.decode_outcome",
];

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the replay began.
    pub start_ns: u64,
    /// Nanoseconds since the replay began; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to (its index in the list).
    pub request: usize,
}

/// An in-memory span log; a disabled one records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    fn begin(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, request });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: (calls, total ns, self ns), where self time is a span's
    /// duration minus its children's.
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = layers.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        layers
    }

    /// Writes the spans as JSON lines; `label` names the cell on each
    /// request's root span.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        label: impl Fn(usize) -> String,
    ) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"cell\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if s.name == "request" { label(s.request) } else { String::new() }
            )?;
        }
        Ok(())
    }
}

/// Counts the layers report about their own work during a replay.
#[derive(Debug, Default)]
pub struct Counters {
    /// QASM bytes parsed.
    pub parsed_bytes: u64,
    /// Encoded outcome bytes.
    pub outcome_bytes: u64,
    /// Summed scheduler iterations.
    pub iterations: u64,
    /// Summed scheduler scoring telemetry.
    pub scoring: ScoringTelemetry,
}

/// What one replay pass produced.
pub struct Replay {
    /// The span log (empty when tracing was off).
    pub tracer: Tracer,
    /// Layer counters.
    pub counters: Counters,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
}

/// Replays `requests` (indices into `list.order`) in-process, with spans
/// when `on`. A cell compiles on its first request only, as the daemon's
/// cache would have it; every request parses (or decodes) its input and
/// encodes and decodes its outcome.
pub fn replay(list: &RequestList, requests: &[usize], on: bool) -> Result<Replay, String> {
    let config = CompilerConfig::default();
    // What a binary client puts on the wire, encoded before timing starts.
    let binaries: HashMap<usize, Vec<u8>> = requests
        .iter()
        .map(|&r| list.order[r])
        .filter(|&c| list.cells[c].qasm.is_none())
        .map(|c| {
            let mut w = ByteWriter::new();
            encode_circuit(&mut w, &list.cells[c].circuit);
            (c, w.into_bytes())
        })
        .collect();
    let mut tracer = Tracer::new(on);
    let mut counters = Counters::default();
    let mut outcomes: HashMap<usize, CompileOutcome> = HashMap::new();
    let started = Instant::now();

    let mut devices: HashMap<&'static str, Device> = HashMap::new();
    for &name in &list.devices {
        let span = tracer.begin("arch.device_build", 0, None);
        let topology = ssync_arch::QccdTopology::named(name)
            .ok_or_else(|| format!("unknown device {name}"))?;
        let device = Device::build(topology, config.weights);
        device.distance_matrix();
        tracer.end(span);
        devices.insert(name, device);
    }

    for &request in requests {
        let cell_id = list.order[request];
        let cell = &list.cells[cell_id];
        let root = tracer.begin("request", request, None);
        let circuit = match &cell.qasm {
            Some(text) => {
                let span = tracer.begin("qasm.parse", request, root);
                let parsed = ssync_qasm::parse(text).map_err(|e| format!("{}: {e}", cell.label))?;
                tracer.end(span);
                counters.parsed_bytes += text.len() as u64;
                parsed.circuit
            }
            None => {
                let span = tracer.begin("service.codec.decode_circuit", request, root);
                let circuit = decode_circuit(&mut ByteReader::new(&binaries[&cell_id]))
                    .map_err(|e| e.to_string())?;
                tracer.end(span);
                circuit
            }
        };
        let outcome = match outcomes.entry(cell_id) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => {
                let device = &devices[cell.device];
                miss.insert(compile(
                    &mut tracer,
                    &mut counters,
                    device,
                    cell,
                    &circuit,
                    request,
                    root,
                )?)
            }
        };
        let span = tracer.begin("service.codec.encode_outcome", request, root);
        let mut w = ByteWriter::new();
        encode_outcome(&mut w, outcome);
        let bytes = w.into_bytes();
        tracer.end(span);
        counters.outcome_bytes += bytes.len() as u64;
        let span = tracer.begin("service.codec.decode_outcome", request, root);
        let decoded = decode_outcome(&mut ByteReader::new(&bytes)).map_err(|e| e.to_string())?;
        tracer.end(span);
        std::hint::black_box(decoded);
        tracer.end(root);
    }
    Ok(Replay { tracer, counters, wall_ns: started.elapsed().as_nanos() as u64 })
}

/// Compiles one cell under spans: S-SYNC as its three layers (initial
/// placement, scheduler, evaluation), the other kinds as one call each.
fn compile(
    tracer: &mut Tracer,
    counters: &mut Counters,
    device: &Device,
    cell: &Cell,
    circuit: &Circuit,
    request: usize,
    root: Option<usize>,
) -> Result<CompileOutcome, String> {
    let config = CompilerConfig::default();
    if cell.compiler != CompilerKind::SSync {
        let name =
            if cell.compiler == CompilerKind::PermRoute { "core.perm_route" } else { "baselines" };
        let span = tracer.begin(name, request, root);
        let outcome = cell.compiler.compile_on(device, circuit, &config);
        tracer.end(span);
        return outcome.map_err(|e| format!("{}: {e}", cell.label));
    }
    let compile = tracer.begin("core.ssync", request, root);
    let span = tracer.begin("core.initial", request, compile);
    let placement = initial::build_placement(circuit, device, &config);
    tracer.end(span);
    let span = tracer.begin("core.scheduler", request, compile);
    let mut scheduler = Scheduler::new(device, &config);
    let result = scheduler.run(circuit, placement);
    tracer.end(span);
    let stats = scheduler.stats();
    counters.iterations += stats.iterations as u64;
    counters.scoring.merge(&scheduler.scoring_telemetry());
    let (program, placement) = result.map_err(|e| format!("{}: {e}", cell.label))?;
    let span = tracer.begin("sim.evaluate", request, compile);
    let report = SSyncCompiler::new(config).tracer().evaluate(&program);
    tracer.end(span);
    tracer.end(compile);
    Ok(CompileOutcome::from_saved_parts(program, report, placement, stats, Default::default()))
}
