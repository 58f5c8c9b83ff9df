//! The spawned `ssync-serviced` under test, and what the benchmark reads
//! about it from `/proc` and over the wire.

use ssync_service::{ServiceClient, ServiceMetrics};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 per second on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running daemon listening on a loopback port the OS picked.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `exe` on `127.0.0.1:0` with two workers and otherwise default
    /// flags, and waits until it has published its port. The caller clears
    /// `SSYNC_*` from the environment the daemon inherits.
    ///
    /// # Errors
    ///
    /// Spawn failures, an early exit, or no port within 30 s.
    pub fn spawn(exe: &Path, port_file: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(port_file);
        let mut command = Command::new(exe);
        command
            .args(["--tcp", "127.0.0.1:0", "--workers", "2", "--port-file"])
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = command.spawn().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut daemon = Daemon { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // The daemon writes the file by rename, so a read sees all of it.
            if let Ok(text) = std::fs::read_to_string(port_file) {
                daemon.addr =
                    text.trim().parse().map_err(|e| format!("port file {text:?}: {e}"))?;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon published no port within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Opens one connection (TCP plus the `Hello` handshake).
    ///
    /// # Errors
    ///
    /// The connection or handshake failure.
    pub fn connect(&self) -> Result<ServiceClient, String> {
        ServiceClient::connect_tcp(self.addr, None).map_err(|e| format!("connect: {e}"))
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// User plus system CPU seconds the daemon has used so far.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/stat` is unreadable or malformed.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name start at field 3.
        let fields: Vec<&str> =
            stat.rsplit_once(')').ok_or("malformed stat")?.1.split_whitespace().collect();
        let ticks =
            |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).ok_or("malformed stat");
        Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_SECOND)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` is unreadable or lacks `VmHWM`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM")?;
        let kb: f64 =
            line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("bad VmHWM")?;
        Ok(kb / 1024.0)
    }

    /// Asks the daemon to drain and exit through `client` (the caller has
    /// dropped every other connection) and waits for it; kills it if it is
    /// still running after 10 s.
    ///
    /// # Errors
    ///
    /// When the daemon had to be killed or exited with a failure.
    pub fn stop(mut self, mut client: ServiceClient) -> Result<(), String> {
        let asked = client.shutdown().map_err(|e| format!("shutdown: {e}"));
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("daemon did not exit after Shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the daemon reports about itself at one instant.
pub struct DaemonStats {
    /// The `Metrics` snapshot.
    pub metrics: ServiceMetrics,
    /// Per stage label: summed nanoseconds and sample count, over every
    /// priority, parsed from the `GetStats` text exposition.
    pub stages: BTreeMap<String, (u64, u64)>,
}

impl DaemonStats {
    /// Fetches `metrics()` and `stats_text()` over `client`.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn fetch(client: &mut ServiceClient) -> Result<DaemonStats, String> {
        let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let text = client.stats_text().map_err(|e| format!("stats: {e}"))?;
        let mut stages: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for line in text.lines() {
            let (is_sum, rest) =
                if let Some(rest) = line.strip_prefix("ssync_stage_latency_ns_sum{") {
                    (true, rest)
                } else if let Some(rest) = line.strip_prefix("ssync_stage_latency_ns_count{") {
                    (false, rest)
                } else {
                    continue;
                };
            // Per-priority rows only; the per-compiler rows repeat them.
            let Some((labels, value)) = rest.split_once("} ") else { continue };
            if !labels.contains("priority=") {
                continue;
            }
            let Some(stage) = labels.split('"').nth(1) else { continue };
            let value: u64 =
                value.trim().parse().map_err(|_| format!("bad stats line {line:?}"))?;
            let entry = stages.entry(stage.to_string()).or_default();
            if is_sum {
                entry.0 += value;
            } else {
                entry.1 += value;
            }
        }
        Ok(DaemonStats { metrics, stages })
    }
}

/// What the daemon did between snapshots, summed over windows.
#[derive(Debug, Default)]
pub struct StatsDelta {
    /// Per stage label: nanoseconds and samples.
    pub stages: BTreeMap<String, (u64, u64)>,
    /// Result-cache hits.
    pub hits: u64,
    /// Result-cache misses.
    pub misses: u64,
    /// Requests coalesced onto an identical in-flight job.
    pub coalesced: u64,
}

impl StatsDelta {
    /// What happened between `before` and `after`.
    pub fn between(before: &DaemonStats, after: &DaemonStats) -> StatsDelta {
        let stages = after
            .stages
            .iter()
            .map(|(stage, &(sum, count))| {
                let (sum0, count0) = before.stages.get(stage).copied().unwrap_or_default();
                (stage.clone(), (sum - sum0, count - count0))
            })
            .collect();
        StatsDelta {
            stages,
            hits: after.metrics.cache.hits - before.metrics.cache.hits,
            misses: after.metrics.cache.misses - before.metrics.cache.misses,
            coalesced: after.metrics.jobs_coalesced - before.metrics.jobs_coalesced,
        }
    }

    /// Adds another window's totals.
    pub fn add(&mut self, other: &StatsDelta) {
        for (stage, &(sum, count)) in &other.stages {
            let entry = self.stages.entry(stage.clone()).or_default();
            entry.0 += sum;
            entry.1 += count;
        }
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
    }

    /// Mean microseconds per sample of `stage`; 0 when it saw none.
    pub fn stage_mean_us(&self, stage: &str) -> f64 {
        match self.stages.get(stage) {
            Some(&(sum, count)) if count > 0 => sum as f64 / count as f64 / 1e3,
            _ => 0.0,
        }
    }
}
