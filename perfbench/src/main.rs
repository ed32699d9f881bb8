//! `usnae-perfbench`: the repository benchmark.
//!
//! One invocation runs one named workload for a fixed time, checks every
//! output, and prints one JSON object as the last line of stdout: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). See `perfbench/README.md` for the workloads, the
//! metrics, and which layer metric should move which end-to-end metric.
//!
//! ```text
//! usnae-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Any failed operation makes the command exit nonzero after printing
//! its result; a set-up failure exits nonzero without a result.

mod builds;
mod children;
mod inputs;
mod probes;
mod procfs;
mod relay;
mod report;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Metrics, Ops};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Where runs keep their inputs, caches, sockets and traces (relative to
/// the checkout root, next to the build outputs).
const WORK_ROOT: &str = ".bench_build/perfbench";

pub const WORKLOADS: [&str; 5] = [
    "build-sparse",
    "build-dense",
    "build-workers",
    "serve-warm",
    "serve-churn",
];

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("build_p90_ms", "ms"),
    ("output_edges", "count"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_pairs_per_s", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("graph.load_s", "s"),
    ("graph.fingerprint_s", "s"),
    ("graph.self_s", "s"),
    ("build.s", "s"),
    ("build.phases_s", "s"),
    ("build.unattributed_s", "s"),
    ("build.explorations", "count"),
    ("build.peak_rss_mb", "MB"),
    ("build.edges", "count"),
    ("build.self_s", "s"),
    ("explore.balls_s", "s"),
    ("explore.ball_entries", "count"),
    ("explore.ruling_set_s", "s"),
    ("explore.explorations_s", "s"),
    ("explore.explorations_peak_mb", "MB"),
    ("explore.self_s", "s"),
    ("workers.spawn_s", "s"),
    ("workers.rounds", "count"),
    ("workers.messages", "count"),
    ("workers.bytes_computed", "B"),
    ("workers.bytes_wire", "B"),
    ("workers.wire_ratio", "ratio"),
    ("workers.child_cpu_s", "s"),
    ("workers.driver_cpu_s", "s"),
    ("workers.overhead_s", "s"),
    ("workers.peak_rss_mb", "MB"),
    ("workers.self_s", "s"),
    ("cache.encode_s", "s"),
    ("cache.snapshot_bytes", "B"),
    ("cache.store_s", "s"),
    ("cache.open_mapped_s", "s"),
    ("cache.verify_s", "s"),
    ("cache.evictions", "count"),
    ("cache.misses_per_cold_build", "ratio"),
    ("cache.self_s", "s"),
    ("oracle.engine_open_s", "s"),
    ("oracle.batch_s", "s"),
    ("oracle.tree_builds_per_batch", "count"),
    ("oracle.sssp_s", "s"),
    ("oracle.lru_hit_ratio", "ratio"),
    ("oracle.self_s", "s"),
    ("serve.daemon_cpu_ms_per_request", "ms"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.engines_open", "count"),
    ("serve.engine_reuses", "count"),
    ("serve.jobs_rejected", "count"),
    ("serve.bytes_resident", "B"),
    ("serve.self_s", "s"),
    ("serve.requests", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
];

/// The executables the benchmark drives.
pub struct Bins {
    pub usnae: Result<PathBuf, String>,
    pub worker: Result<PathBuf, String>,
}

impl Bins {
    /// `usnae-worker` from `USNAE_WORKER_BIN` or next to this executable;
    /// `usnae` next to this executable. A missing binary is not fatal
    /// here: the operations that need it fail loudly.
    fn locate() -> Bins {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf));
        let beside = |name: &str| -> Result<PathBuf, String> {
            let path = dir
                .as_ref()
                .map(|d| d.join(name))
                .ok_or_else(|| format!("cannot locate {name}: no executable directory"))?;
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!("{name} not found at {}", path.display()))
            }
        };
        let worker = match std::env::var_os(usnae_workers::process::WORKER_BIN_ENV) {
            Some(p) if Path::new(&p).is_file() => Ok(PathBuf::from(p)),
            Some(p) => Err(format!(
                "{} names {}, which is not a file",
                usnae_workers::process::WORKER_BIN_ENV,
                Path::new(&p).display()
            )),
            None => beside("usnae-worker"),
        };
        Bins {
            usnae: beside("usnae"),
            worker,
        }
    }
}

/// Everything a workload needs.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub work: PathBuf,
    pub bins: Bins,
}

/// Metric values by name; a workload fills what it measures and the
/// probes fill the rest.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The listed metrics, in list order; every one must be present.
    pub fn metrics(&self, list: &[(&'static str, &'static str)]) -> Result<Metrics, String> {
        let mut m = Metrics::default();
        for &(name, unit) in list {
            let v = self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            m.put(name, *v, unit);
        }
        Ok(m)
    }
}

/// Runs the set-up `f` [`SETUP_REPEATS`] times, tearing each result but
/// the last down (untimed) before the next, and returns the median wall
/// clock of the set-ups and the last result.
pub fn repeated_setup<T>(
    mut f: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let t0 = Instant::now();
        let out = f()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((report::median(&times), last.expect("at least one set-up")))
}

/// Adds the trace-derived metrics and writes the spans out.
pub fn finish_trace(ctx: &Ctx, tracer: &Tracer, values: &mut Values) -> Result<(), String> {
    for (layer, t) in tracer.self_times() {
        let name: &'static str = match layer {
            "graph" => "graph.self_s",
            "build" => "build.self_s",
            "explore" => "explore.self_s",
            "workers" => "workers.self_s",
            "cache" => "cache.self_s",
            "oracle" => "oracle.self_s",
            "serve" => "serve.self_s",
            _ => continue,
        };
        values.set(name, t);
    }
    values.set("trace.spans", tracer.span_count() as f64);
    let dir = Path::new(WORK_ROOT).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", ctx.workload, ctx.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// Records the traced run's overhead: its traced passes against its
/// untraced ones.
pub fn set_overhead(values: &mut Values, untraced_pass_s: f64, traced_pass_s: f64) {
    values.set("trace.untraced_pass_s", untraced_pass_s);
    values.set("trace.traced_pass_s", traced_pass_s);
    values.set(
        "trace.overhead_pct",
        (traced_pass_s - untraced_pass_s) / untraced_pass_s * 100.0,
    );
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match map.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        traced,
    })
}

fn run(ctx: &Ctx) -> Result<(Ops, Metrics), String> {
    let (ops, values) = match ctx.workload {
        "build-sparse" => builds::run(ctx, &builds::SPARSE)?,
        "build-dense" => builds::run(ctx, &builds::DENSE)?,
        "build-workers" => builds::run(ctx, &builds::WORKERS)?,
        "serve-warm" => serve::run_warm(ctx)?,
        "serve-churn" => serve::run_churn(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let list: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    Ok((ops, values.metrics(list)?))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: usnae-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = procfs::fix_mmap_threshold() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let work = Path::new(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work,
        bins: Bins::locate(),
    };
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result.and_then(|(ops, m)| Ok((m.result_line(&ops)?, ops.failed))) {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let names = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n));
        let mut count = 0;
        for name in names {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
            count += 1;
        }
        assert_eq!(json.matches("\"name\": ").count(), count);
    }

    #[test]
    fn metric_lists_have_unique_well_formed_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
