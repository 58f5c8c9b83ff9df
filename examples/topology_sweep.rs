//! Topology exploration: run the same applications across the paper's
//! L-/G-/S-series devices and compare shuttle counts, execution time and
//! success rate (the Fig. 11 style of analysis, at a laptop-friendly size).
//!
//! Each named device is built once as a shared [`Device`] artifact and the
//! whole QFT size sweep compiles against it.
//!
//! ```text
//! cargo run --release -p ssync-examples --bin topology_sweep
//! ```

use ssync_arch::Device;
use ssync_circuit::generators::qft;
use ssync_core::{CompilerConfig, SSyncCompiler};

fn main() {
    let config = CompilerConfig::default();
    let compiler = SSyncCompiler::new(config);
    let circuits: Vec<_> = [16usize, 24, 32].into_iter().map(qft).collect();
    println!(
        "{:<8} {:>6} {:>10} {:>6} {:>8} {:>14} {:>12}",
        "device", "traps", "capacity", "qubits", "shuttles", "exec time (ms)", "success"
    );
    for name in ["L-2", "L-4", "L-6", "G-2x2", "G-2x3", "G-3x3", "S-4", "S-6"] {
        // Slot graph, trap router and distance matrix are built once here;
        // every compilation below shares them.
        let device = Device::named(name, config.weights).expect("known device");
        for circuit in &circuits {
            match compiler.compile_on(&device, circuit) {
                Ok(outcome) => println!(
                    "{:<8} {:>6} {:>10} {:>6} {:>8} {:>14.1} {:>12.4}",
                    name,
                    device.num_traps(),
                    device.topology().total_capacity(),
                    circuit.num_qubits(),
                    outcome.counts().shuttles,
                    outcome.report().total_time_us / 1e3,
                    outcome.report().success_rate
                ),
                Err(err) => {
                    println!("{name:<8} {} qubits skipped: {err}", circuit.num_qubits())
                }
            }
        }
    }
    println!("\nGrid-style devices typically give the best time/fidelity balance,");
    println!("matching the paper's Fig. 11 observation.");
}
