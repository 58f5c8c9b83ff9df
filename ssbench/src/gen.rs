//! Seeded request lists for the three workloads.
//!
//! Every list is a pure function of `(workload, seed)`: the same pair gives
//! a byte-identical list (see [`render`] and the tests below). The daemon
//! only ever sees the generated QASM text or circuits.

use ssync_baselines::CompilerKind;
use ssync_bench::{scaled_app, AppKind};
use ssync_circuit::generators::heisenberg_chain;
use ssync_circuit::{Circuit, Qubit};
use ssync_service::codec::{compiler_kind_tag, encode_circuit, ByteWriter};
use std::sync::Arc;

/// The compilers every workload sends: the paper's three plus
/// permutation-level routing.
pub const COMPILERS: [CompilerKind; 4] =
    [CompilerKind::SSync, CompilerKind::PermRoute, CompilerKind::Murali, CompilerKind::Dai];

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct small-trap grid cells sent as QASM: shuttles and junctions.
    GridShuttleCold,
    /// Distinct long-chain cells sent as binary circuits: in-trap SWAPs.
    ChainSwapCold,
    /// A primed working set resubmitted as QASM: ingest without compiling.
    CorpusWarm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::GridShuttleCold, Workload::ChainSwapCold, Workload::CorpusWarm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridShuttleCold => "grid-shuttle-cold",
            Workload::ChainSwapCold => "chain-swap-cold",
            Workload::CorpusWarm => "corpus-warm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: small, seedable and defined here, so a list depends on
/// nothing but its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One distinct compile: a circuit for one device and compiler.
#[derive(Debug)]
pub struct Cell {
    /// Human-readable name, e.g. `QFT-14@G-3x3/SSync`.
    pub label: String,
    /// Paper topology name the daemon resolves.
    pub device: &'static str,
    /// Compiler to run.
    pub compiler: CompilerKind,
    /// The circuit, as the client knows it (the checker's reference).
    pub circuit: Arc<Circuit>,
    /// The QASM text sent for it; `None` when the circuit goes as binary.
    pub qasm: Option<Arc<str>>,
}

/// A workload's generated input.
#[derive(Debug)]
pub struct RequestList {
    /// The distinct cells.
    pub cells: Vec<Cell>,
    /// Cell index of each request, in submission order.
    pub order: Vec<usize>,
    /// Devices the workload uses; set-up registers each one.
    pub devices: Vec<&'static str>,
    /// Whether set-up compiles every cell once (warms the cache).
    pub primed: bool,
    /// Requests per timed window; a cold list's chunk is one block, which
    /// holds every stratum once.
    pub chunk: usize,
}

/// A cold workload: blocks of distinct cells, each block holding every
/// (app, device, compiler, size rung) stratum once in seeded order, so
/// every seed sends nearly the same mix of work.
struct ColdSpec {
    devices: &'static [&'static str],
    /// Base sizes in qubits; each request adds a seeded `0..=JITTER`.
    rungs: &'static [usize],
    /// Base sizes for Heisenberg, which runs `n` Trotter steps on `n`
    /// qubits, so its gate count grows as `n²`.
    heisenberg_rungs: &'static [usize],
    blocks: usize,
    binary: bool,
}

/// The seeded part of a smallest-rung request's size. Only the smallest
/// rung varies: one qubit more on a large QFT can cost S-SYNC 70% more
/// time, which would make the latency tail depend on the seed.
const JITTER: usize = 1;

/// Small-trap grids (capacity 12 and 17): most of the work is shuttle and
/// junction routing. Sizes stay small so no single cell dominates a run
/// (QFT-64 on G-3x3 alone takes most of a second).
const GRID: ColdSpec = ColdSpec {
    devices: &["G-3x3", "G-2x3"],
    rungs: &[12, 24, 36, 48],
    heisenberg_rungs: &[8, 12, 16, 20],
    blocks: 6,
    binary: false,
};

/// Long chains (capacity 22): in-trap SWAPs, reorders and intra-trap
/// placement do the work. Sent as binary circuits, bypassing the parser.
const CHAIN: ColdSpec = ColdSpec {
    devices: &["L-2", "S-4", "G-2x2"],
    rungs: &[20, 30, 40],
    heisenberg_rungs: &[20, 30, 40],
    blocks: 5,
    binary: true,
};

/// The checked-in QASM corpus (a frozen copy of the repository's
/// `workloads/` directory).
const CORPUS: [(&str, &str); 9] = [
    ("adder_4", include_str!("../corpus/adder_4.qasm")),
    ("alt_8", include_str!("../corpus/alt_8.qasm")),
    ("barriers", include_str!("../corpus/barriers.qasm")),
    ("bv_8", include_str!("../corpus/bv_8.qasm")),
    ("gatedefs", include_str!("../corpus/gatedefs.qasm")),
    ("heisenberg_6", include_str!("../corpus/heisenberg_6.qasm")),
    ("qaoa_8", include_str!("../corpus/qaoa_8.qasm")),
    ("qft_8", include_str!("../corpus/qft_8.qasm")),
    ("stdlib", include_str!("../corpus/stdlib.qasm")),
];

/// Devices the corpus files are compiled for.
const CORPUS_DEVICES: [&str; 2] = ["G-2x3", "L-2"];

/// The large generated files of the warm working set: Heisenberg chains of
/// `n` qubits and `n` Trotter steps (100–700 KB of QASM), for one device.
/// The smallest gets a seeded step count within one of `n`, so the quality
/// figures depend on the seed without moving the latency tail.
const LARGE_DEVICE: &str = CORPUS_DEVICES[0];
const LARGE_CHAINS: [(usize, usize); 3] = [(48, 0), (36, 0), (24, 1)];

/// About how many requests the warm list holds, and how often (one in
/// `LARGE_EVERY`) a request goes to a large file.
const WARM_REQUESTS: usize = 1600;
const LARGE_EVERY: usize = 16;
/// Warm requests per timed window.
const WARM_CHUNK: usize = 200;

/// Generates the request list of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> RequestList {
    match workload {
        Workload::GridShuttleCold => cold(&GRID, seed),
        Workload::ChainSwapCold => cold(&CHAIN, seed),
        Workload::CorpusWarm => warm(seed),
    }
}

/// `base` with a leading `rz(theta)` on qubit 0: the request's bound
/// parameter, as a variational sweep resubmits one ansatz with new angles.
/// It makes every request a distinct cache key while leaving the routing
/// problem unchanged.
fn bind(base: &Circuit, theta: f64) -> Circuit {
    let mut circuit = Circuit::with_name(base.num_qubits(), base.name());
    circuit.rz(Qubit(0), theta);
    circuit.append(base);
    circuit
}

fn cold(spec: &ColdSpec, seed: u64) -> RequestList {
    let mut rng = Rng::new(seed);
    let mut strata = Vec::new();
    for app in AppKind::ALL {
        for &device in spec.devices {
            for compiler in COMPILERS {
                let rungs =
                    if app == AppKind::Heisenberg { spec.heisenberg_rungs } else { spec.rungs };
                for &rung in rungs {
                    strata.push((app, device, compiler, rung));
                }
            }
        }
    }
    let mut cells = Vec::with_capacity(strata.len() * spec.blocks);
    for _ in 0..spec.blocks {
        rng.shuffle(&mut strata);
        for &(app, device, compiler, rung) in &strata {
            let smallest = rung == spec.rungs[0] || rung == spec.heisenberg_rungs[0];
            let size = if smallest { rung + rng.below(JITTER + 1) } else { rung };
            let circuit = bind(&scaled_app(app, size), rng.unit() * std::f64::consts::TAU);
            let qasm = (!spec.binary).then(|| Arc::from(ssync_qasm::export(&circuit)));
            cells.push(Cell {
                label: format!("{}-{}@{device}/{compiler:?}", app.label(), circuit.num_qubits()),
                device,
                compiler,
                circuit: Arc::new(circuit),
                qasm,
            });
        }
    }
    RequestList {
        order: (0..cells.len()).collect(),
        cells,
        devices: spec.devices.to_vec(),
        primed: false,
        chunk: strata.len(),
    }
}

fn qasm_cell(label: &str, device: &'static str, compiler: CompilerKind, text: Arc<str>) -> Cell {
    let parsed = ssync_qasm::parse(&text).expect("benchmark corpus parses");
    Cell {
        label: format!("{label}@{device}/{compiler:?}"),
        device,
        compiler,
        circuit: Arc::new(parsed.circuit),
        qasm: Some(text),
    }
}

fn warm(seed: u64) -> RequestList {
    let mut rng = Rng::new(seed);
    let mut cells = Vec::new();
    for (name, text) in CORPUS {
        let text: Arc<str> = Arc::from(text);
        for device in CORPUS_DEVICES {
            for compiler in COMPILERS {
                cells.push(qasm_cell(name, device, compiler, Arc::clone(&text)));
            }
        }
    }
    let small = cells.len();
    for (n, spread) in LARGE_CHAINS {
        let steps = n - spread + rng.below(2 * spread + 1);
        let text: Arc<str> = Arc::from(ssync_qasm::export(&heisenberg_chain(n, steps)));
        for compiler in COMPILERS {
            let label = format!("Heisenberg-{n}x{steps}");
            cells.push(qasm_cell(&label, LARGE_DEVICE, compiler, Arc::clone(&text)));
        }
    }
    // Zipf(1) popularity over the small cells in list order, as fixed
    // request counts, so every seed sends the same multiset; the seed picks
    // the order. The large cells take every LARGE_EVERY-th slot in a seeded
    // rotation.
    let weights: Vec<f64> = (0..small).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let small_requests = WARM_REQUESTS - WARM_REQUESTS / LARGE_EVERY;
    let mut hot: Vec<usize> = Vec::with_capacity(small_requests);
    for (cell, w) in weights.iter().enumerate() {
        let count = ((small_requests as f64 * w / total).round() as usize).max(1);
        hot.extend(std::iter::repeat_n(cell, count));
    }
    rng.shuffle(&mut hot);
    let mut large: Vec<usize> = (small..cells.len()).collect();
    rng.shuffle(&mut large);
    let mut order = Vec::with_capacity(hot.len() * LARGE_EVERY / (LARGE_EVERY - 1) + 1);
    for (i, &cell) in hot.iter().enumerate() {
        order.push(cell);
        if i % (LARGE_EVERY - 1) == LARGE_EVERY - 2 {
            order.push(large[(i / (LARGE_EVERY - 1)) % large.len()]);
        }
    }
    RequestList { cells, order, devices: CORPUS_DEVICES.to_vec(), primed: true, chunk: WARM_CHUNK }
}

/// The exact bytes a list puts on the wire, request by request: device,
/// compiler tag and payload (QASM text or encoded circuit).
pub fn render(list: &RequestList) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for &cell in &list.order {
        let cell = &list.cells[cell];
        w.put_str(cell.device);
        w.put_u8(compiler_kind_tag(cell.compiler));
        match &cell.qasm {
            Some(text) => w.put_str(text),
            None => encode_circuit(&mut w, &cell.circuit),
        }
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_list() {
        for workload in Workload::ALL {
            let a = render(&generate(workload, 7));
            let b = render(&generate(workload, 7));
            assert!(a == b, "{} differs between two generations", workload.name());
            let c = render(&generate(workload, 8));
            assert!(a != c, "{} ignores its seed", workload.name());
        }
    }

    #[test]
    fn cold_requests_are_distinct_and_fit_their_devices() {
        for workload in [Workload::GridShuttleCold, Workload::ChainSwapCold] {
            let list = generate(workload, 1);
            assert!(list.order.len() >= 1000, "p99 needs ten samples beyond it");
            let mut hashes: Vec<u64> =
                list.cells.iter().map(|c| c.circuit.content_hash()).collect();
            hashes.sort_unstable();
            hashes.dedup();
            // Distinct circuits, hence distinct cache keys.
            assert_eq!(hashes.len(), list.cells.len(), "{}", workload.name());
            for cell in &list.cells {
                let topology = ssync_arch::QccdTopology::named(cell.device).expect("named");
                assert!(cell.circuit.num_qubits() < topology.total_capacity(), "{}", cell.label);
            }
        }
    }

    #[test]
    fn warm_list_revisits_a_small_working_set_with_a_fixed_mix() {
        let list = generate(Workload::CorpusWarm, 3);
        assert!(list.order.len() >= 1000);
        assert!(list.cells.len() < 100);
        let large = list.order.iter().filter(|&&c| list.cells[c].device == LARGE_DEVICE);
        let big =
            large.filter(|&&c| list.cells[c].qasm.as_ref().is_some_and(|q| q.len() > 100_000));
        assert!(big.count() >= list.order.len() / LARGE_EVERY * 2 / 3);
    }
}
