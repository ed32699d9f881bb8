//! Child processes the benchmark starts: pre-started `usnae-worker`
//! listeners and the `usnae serve` daemon. Every child is stopped and
//! waited for before the benchmark exits, on error paths too.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use usnae_core::serve::{Client, ServiceStats};
use usnae_workers::socket::LISTEN_PREFIX;

use crate::procfs::{self, Reaped};
use crate::relay::{TcpRelay, Traffic};

/// How long a child may take to exit after it was asked to.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// One pre-started `usnae-worker --listen 127.0.0.1:0` per shard, so the
/// benchmark knows each worker's pid. With `relay`, the driver reaches
/// each worker through a byte-counting [`TcpRelay`].
pub struct WorkerSet {
    workers: Vec<(Child, Option<TcpRelay>)>,
    addrs: Vec<SocketAddr>,
    sampler: Option<PeakSampler>,
}

/// Polls live children's `VmHWM` until stopped. The high-water mark only
/// grows, so the last reading before a child exits is its peak up to
/// that moment.
struct PeakSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<f64>,
}

/// Interval between two readings of a child's status.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

impl PeakSampler {
    fn start(pids: Vec<u32>) -> PeakSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            while !flag.load(Ordering::SeqCst) {
                for &pid in &pids {
                    if let Ok(m) = procfs::memory(Some(pid)) {
                        peak = peak.max(m.peak_mb);
                    }
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            peak
        });
        PeakSampler { stop, thread }
    }

    /// The largest peak seen (MiB), or an error when no reading succeeded.
    fn finish(self) -> Result<f64, String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(peak) if peak > 0.0 => Ok(peak),
            Ok(_) => Err("worker peak RSS unavailable: no status reading succeeded".into()),
            Err(_) => Err("peak sampler panicked".into()),
        }
    }
}

/// What a finished [`WorkerSet`] reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Largest peak RSS of any worker (MiB).
    pub peak_mb: f64,
    /// Worker CPU, summed (s).
    pub cpu_s: f64,
    /// Bytes relayed both ways, summed (0 without relays).
    pub wire_bytes: u64,
}

impl WorkerSet {
    pub fn spawn(bin: &Path, shards: usize, relay: bool) -> Result<WorkerSet, String> {
        let mut set = WorkerSet {
            workers: Vec::new(),
            addrs: Vec::new(),
            sampler: None,
        };
        for _ in 0..shards {
            let mut child = Command::new(bin)
                .args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
            let mut line = String::new();
            let stdout = child.stdout.take().expect("stdout is piped");
            let read = BufReader::new(stdout).read_line(&mut line);
            let addr = read
                .ok()
                .and_then(|_| line.trim().strip_prefix(LISTEN_PREFIX)?.parse().ok());
            let Some(addr) = addr else {
                set.workers.push((child, None));
                return Err(format!("worker did not announce its address: {line:?}"));
            };
            let relay = if relay {
                let r = TcpRelay::start(addr).map_err(|e| format!("tcp relay: {e}"));
                match r {
                    Ok(r) => Some(r),
                    Err(e) => {
                        set.workers.push((child, None));
                        return Err(e);
                    }
                }
            } else {
                None
            };
            set.addrs.push(relay.as_ref().map_or(addr, |r| r.addr));
            set.workers.push((child, relay));
        }
        set.sampler = Some(PeakSampler::start(
            set.workers.iter().map(|(c, _)| c.id()).collect(),
        ));
        Ok(set)
    }

    /// The comma-separated address list the socket transport dials.
    pub fn addrs(&self) -> String {
        self.addrs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Waits for every worker to exit (they exit once the driver shuts
    /// the pool down or hangs up) and reaps them. Call it after the pool
    /// is gone: the peak readings stop here.
    pub fn finish(mut self) -> Result<WorkerReport, String> {
        let mut report = WorkerReport::default();
        let mut first_error = None;
        // Stop sampling before reaping, so no reading can hit a reused pid.
        if let Some(sampler) = self.sampler.take() {
            match sampler.finish() {
                Ok(peak) => report.peak_mb = peak,
                Err(e) => first_error = Some(e),
            }
        }
        for (mut child, relay) in std::mem::take(&mut self.workers) {
            match procfs::reap(&mut child, EXIT_TIMEOUT) {
                Ok(Reaped { cpu_s, exit_ok }) => {
                    report.cpu_s += cpu_s;
                    if !exit_ok {
                        first_error
                            .get_or_insert_with(|| "a worker exited unsuccessfully".to_string());
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
            if let Some(relay) = relay {
                match relay.finish() {
                    Ok(t) => report.wire_bytes += t.up + t.down,
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        match first_error {
            None => Ok(report),
            Some(e) => Err(e),
        }
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.finish();
        }
        for (mut child, relay) in std::mem::take(&mut self.workers) {
            let _ = child.kill();
            let _ = procfs::reap(&mut child, EXIT_TIMEOUT);
            if let Some(relay) = relay {
                let _ = relay.finish();
            }
        }
    }
}

/// A `usnae serve` daemon child on a Unix socket.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits until it answers a handshake.
    pub fn start(
        bin: &Path,
        socket: &Path,
        cache: &Path,
        budget: Option<u64>,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(b) = budget {
            cmd.arg("--budget").arg(b.to_string());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if Client::connect(socket).is_ok() {
                return Ok(daemon);
            }
            let exited = daemon
                .child
                .as_mut()
                .map(|c| !matches!(c.try_wait(), Ok(None)))
                .unwrap_or(true);
            if exited || Instant::now() >= deadline {
                return Err("the serve daemon did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn stats(&self) -> Result<ServiceStats, String> {
        Client::connect(&self.socket)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("daemon stats: {e}"))
    }

    /// Peak RSS of the daemon (MiB) since it started or its peak was last
    /// reset, from its own status file.
    pub fn peak_mb(&self) -> Result<f64, String> {
        Ok(procfs::memory(Some(self.pid()))?.peak_mb)
    }

    /// CPU time so far (s), in 10 ms ticks.
    pub fn cpu_s(&self) -> Result<f64, String> {
        procfs::process_cpu_s(self.pid())
    }

    /// Asks the daemon to stop, waits for it to exit, and returns the CPU
    /// time it used over its whole life (s).
    pub fn stop(mut self) -> Result<f64, String> {
        let asked = Client::connect(&self.socket)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("daemon shutdown: {e}"));
        let mut child = self.child.take().expect("a live daemon");
        let reaped = procfs::reap(&mut child, EXIT_TIMEOUT)?;
        asked?;
        if !reaped.exit_ok {
            return Err("serve daemon did not exit cleanly".into());
        }
        Ok(reaped.cpu_s)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = procfs::reap(&mut child, EXIT_TIMEOUT);
        }
    }
}

/// Daemon counters over a measured interval.
pub struct ServeDelta {
    pub before: ServiceStats,
    pub after: ServiceStats,
    pub cpu_s: f64,
    pub traffic: Traffic,
}

impl ServeDelta {
    /// Fills the `serve.*` metrics and the daemon-side `cache.*` counters
    /// for `requests` requests, all through the relay, and `cold_builds`
    /// cold builds.
    pub fn record(&self, values: &mut crate::Values, requests: u64, cold_builds: u64) {
        let (b, a) = (&self.before, &self.after);
        let req = requests.max(1) as f64;
        let hits = a.cache_hits.saturating_sub(b.cache_hits) as f64;
        let misses = a.cache_misses.saturating_sub(b.cache_misses) as f64;
        values.set("serve.requests", requests as f64);
        values.set("serve.daemon_cpu_ms_per_request", self.cpu_s * 1000.0 / req);
        values.set("serve.request_bytes", self.traffic.up as f64 / req);
        values.set("serve.response_bytes", self.traffic.down as f64 / req);
        values.set(
            "serve.cache_hit_ratio",
            crate::report::ratio(hits, hits + misses),
        );
        values.set("serve.engines_open", a.engines_open as f64);
        values.set(
            "serve.engine_reuses",
            a.engine_reuses.saturating_sub(b.engine_reuses) as f64,
        );
        values.set(
            "serve.jobs_rejected",
            a.jobs_rejected.saturating_sub(b.jobs_rejected) as f64,
        );
        values.set("serve.bytes_resident", a.bytes_resident as f64);
        values.set(
            "cache.evictions",
            a.cache_evictions.saturating_sub(b.cache_evictions) as f64,
        );
        values.set(
            "cache.misses_per_cold_build",
            misses / cold_builds.max(1) as f64,
        );
    }
}
