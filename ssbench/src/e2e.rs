//! The closed loop: a fixed number of TCP connections, each sending its
//! next request only after the previous outcome arrived and decoded.

use crate::daemon::Daemon;
use crate::gen::{Cell, RequestList};
use ssync_circuit::{Circuit, Qubit};
use ssync_core::{CompileOutcome, CompilerConfig};
use ssync_service::wire::{RemoteQasmRequest, RemoteRequest};
use ssync_service::ServiceClient;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections the closed loop drives, one per core of the 2-core host
/// the benchmark was sized on.
pub const CONNECTIONS: usize = 2;

/// One request as it goes on the wire.
pub enum Wire {
    /// QASM text, parsed by the daemon.
    Qasm(RemoteQasmRequest),
    /// A binary circuit, decoded by the daemon.
    Circuit(RemoteRequest),
}

impl Wire {
    /// The wire request for `cell` under the default configuration.
    pub fn for_cell(cell: &Cell) -> Wire {
        let config = CompilerConfig::default();
        match &cell.qasm {
            Some(text) => {
                Wire::Qasm(RemoteQasmRequest::new(cell.device, &**text, cell.compiler, config))
            }
            None => Wire::Circuit(RemoteRequest::new(
                cell.device,
                (*cell.circuit).clone(),
                cell.compiler,
                config,
            )),
        }
    }

    /// Submits and waits for the decoded outcome.
    ///
    /// # Errors
    ///
    /// A refused request, a compile failure or a transport failure.
    pub fn send(&self, client: &mut ServiceClient) -> Result<CompileOutcome, String> {
        let job = match self {
            Wire::Qasm(request) => client.submit_qasm(request).map(|(job, _)| job),
            Wire::Circuit(request) => client.submit(request),
        };
        match client.wait(job.map_err(|e| e.to_string())?) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(error)) => Err(error.to_string()),
            Err(error) => Err(error.to_string()),
        }
    }
}

/// The result of one request.
pub struct Sample {
    /// Submit to decoded outcome.
    pub latency: Duration,
    /// The outcome, or why there is none.
    pub outcome: Result<CompileOutcome, String>,
}

/// Sends `order` (indices into `wires`) in a closed loop over
/// [`CONNECTIONS`] connections and returns one sample per request, in list
/// order, and the time the loop took. Connections open before and close
/// after the timing.
///
/// # Errors
///
/// When a connection cannot be opened.
pub fn closed_loop(
    daemon: &Daemon,
    wires: &[Wire],
    order: &[usize],
) -> Result<(Vec<Sample>, Duration), String> {
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        clients.push(daemon.connect()?);
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_connection: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cell) = order.get(i) else { return done };
                        let sent = Instant::now();
                        let outcome = wires[cell].send(client);
                        done.push((i, Sample { latency: sent.elapsed(), outcome }));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut samples: Vec<(usize, Sample)> = per_connection.into_iter().flatten().collect();
    samples.sort_unstable_by_key(|&(i, _)| i);
    Ok((samples.into_iter().map(|(_, s)| s).collect(), elapsed))
}

/// Builds every device of `list` in the daemon (its registry builds a
/// device on first use) with one two-qubit compile per device.
///
/// # Errors
///
/// When a registration compile fails.
pub fn register_devices(client: &mut ServiceClient, list: &RequestList) -> Result<(), String> {
    let mut pair = Circuit::with_name(2, "register");
    pair.cx(Qubit(0), Qubit(1));
    for device in &list.devices {
        let request = RemoteRequest::new(
            *device,
            pair.clone(),
            ssync_baselines::CompilerKind::Dai,
            CompilerConfig::default(),
        );
        Wire::Circuit(request).send(client).map_err(|e| format!("register {device}: {e}"))?;
    }
    Ok(())
}
