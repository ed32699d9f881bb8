//! Layer probes of the traced run.
//!
//! After a traced workload loop, the benchmark calls each layer's public
//! functions directly on the workload's first graph, so every per-layer
//! metric is measured on every workload. A metric the workload loop
//! already measured (for instance `workers.*` on `build-workers` or
//! `serve.*` on the `serve-*` workloads) is kept, and its probe skipped.

use std::path::Path;
use std::time::Instant;

use usnae_core::api::{BuildConfig, MappedBackend};
use usnae_core::cache::{CacheKey, EvictingCache, Snapshot};
use usnae_core::engine::Engine;
use usnae_core::serve::{Client, JobCache, JobSpec};
use usnae_core::{BuildOutput, QueryEngine};
use usnae_graph::partition::{PartitionPolicy, ShardedCsr};
use usnae_graph::rng::Rng;
use usnae_graph::{metrics, par, Dist, Graph, VertexId};
use usnae_workers::socket::WORKERS_ADDR_ENV;
use usnae_workers::{ShardInit, TransportKind, WorkerPool};

use crate::builds::SHARDS;
use crate::children::{Daemon, ServeDelta, WorkerSet};
use crate::inputs::{self, Pairs};
use crate::relay::UnixRelay;
use crate::report::{median, ratio, Ops};
use crate::trace::Tracer;
use crate::{procfs, Ctx, Values};

/// Source-by-vertex entries the dense exploration probe may materialise
/// (each entry is 32 bytes of `dist` and `parent`): 256 MiB.
const EXPLORATION_ENTRIES: usize = 1 << 23;

/// Sources of the worker probe's ball round.
const WORKER_PROBE_SOURCES: usize = 1024;

/// Query batches of the oracle probe.
const ORACLE_BATCHES: usize = 20;

/// Seeded source order of the probes.
fn sources(n: usize, gseed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n).collect();
    Rng::seed_from_u64(inputs::derive(gseed, 7)).shuffle(&mut perm);
    perm
}

/// Phase-0 ball depth of the default configuration.
fn ball_depth() -> Result<Dist, String> {
    Ok(BuildConfig::default()
        .centralized_params()
        .map_err(|e| e.to_string())?
        .delta(0))
}

/// Runs every other probe the workload left unmeasured.
pub fn fill(
    ctx: &Ctx,
    tracer: &Tracer,
    path: &Path,
    n: usize,
    gseed: u64,
    values: &mut Values,
    ops: &mut Ops,
) -> Result<(), String> {
    let (g, load_s) = tracer.timed("graph", "load", || inputs::load_graph(path));
    let g = g?;
    if !values.has("graph.load_s") {
        values.set("graph.load_s", load_s);
    }
    let (_, fingerprint_s) = tracer.timed("graph", "fingerprint", || metrics::fingerprint(&g));
    values.set("graph.fingerprint_s", fingerprint_s);
    let cfg = BuildConfig::default();
    let d0 = ball_depth()?;
    let perm = sources(n, gseed);
    if !values.has("workers.spawn_s") {
        let sources = &perm[..WORKER_PROBE_SOURCES.min(n)];
        workers(ctx, tracer, &g, sources, d0, values, ops)?;
    }
    let centralized =
        usnae_baselines::registry::find("centralized").ok_or("centralized is not registered")?;
    let (out, _) = tracer.timed("build", "probe-centralized", || centralized.build(&g, &cfg));
    let out = out.map_err(|e| format!("probe build: {e}"))?;
    let snapshot = cache(ctx, tracer, &g, &out, values, ops)?;
    oracle(tracer, &snapshot, &out, n, gseed, values, ops)?;
    if !values.has("serve.requests") {
        serve(ctx, tracer, path, &out, n, gseed, values, ops)?;
    }
    Ok(())
}

/// The exploration probe: `Engine::balls` over every vertex,
/// `Engine::ruling_set` over every vertex, and dense
/// `Engine::explorations` over a sample, at the phase-0 depths of the
/// default configuration. It runs before the workload loop, while the
/// process heap is fresh, so its peak reading is the explorations' own.
pub fn explore_first(
    tracer: &Tracer,
    path: &Path,
    n: usize,
    gseed: u64,
    values: &mut Values,
) -> Result<(), String> {
    let g = tracer
        .timed("graph", "load", || inputs::load_graph(path))
        .0?;
    let perm = sources(n, gseed);
    let d0 = ball_depth()?;
    let depth = BuildConfig::default()
        .spanner_params()
        .map_err(|e| e.to_string())?
        .delta(0);
    let engine = Engine::inproc(&g, 1);
    let all: Vec<VertexId> = (0..n).collect();
    let (entries, balls_s) = tracer.timed("explore", "balls", || {
        all.chunks(4096)
            .map(|c| engine.balls(c, d0).iter().map(Vec::len).sum::<usize>())
            .sum::<usize>()
    });
    let (rulers, ruling_s) = tracer.timed("explore", "ruling_set", || engine.ruling_set(&all, d0));
    if rulers.is_empty() {
        return Err("ruling set of every vertex is empty".into());
    }
    let sources = &perm[..n.min((EXPLORATION_ENTRIES / n).max(1))];
    procfs::trim_heap();
    procfs::reset_peak(None)?;
    let before = procfs::memory(None)?;
    let (explorations, explorations_s) = tracer.timed("explore", "explorations", || {
        engine.explorations(sources, depth)
    });
    let after = procfs::memory(None)?;
    if explorations.len() != sources.len() {
        return Err("explorations lost a source".into());
    }
    drop(explorations);
    engine.finish().map_err(|e| e.to_string())?;
    values.set("explore.balls_s", balls_s);
    values.set("explore.ball_entries", entries as f64);
    values.set("explore.ruling_set_s", ruling_s);
    values.set("explore.explorations_s", explorations_s);
    values.set(
        "explore.explorations_peak_mb",
        after.peak_mb - before.rss_mb,
    );
    Ok(())
}

/// The worker layer's per-shard payloads: each shard's owned range and
/// its local CSR.
fn shard_inits(g: &Graph) -> Vec<ShardInit> {
    let sharded = ShardedCsr::build(g, PartitionPolicy::Range, SHARDS);
    let shards = sharded.shards();
    shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let range = shard.range();
            let mut offsets = vec![0];
            let mut adjacency = Vec::new();
            for v in range.clone() {
                adjacency.extend_from_slice(shard.neighbors(v));
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: i,
                num_shards: shards.len(),
                num_vertices: g.num_vertices(),
                start: range.start,
                end: range.end,
                offsets,
                adjacency,
            }
        })
        .collect()
}

/// One ball round on a 2-shard socket pool, against the same round
/// in-process.
fn workers(
    ctx: &Ctx,
    tracer: &Tracer,
    g: &Graph,
    sources: &[VertexId],
    d0: Dist,
    values: &mut Values,
    ops: &mut Ops,
) -> Result<(), String> {
    let bin = ctx.bins.worker.as_ref().map_err(Clone::clone)?;
    let inits = shard_inits(g);
    let t0 = Instant::now();
    let set = tracer
        .timed("workers", "spawn", || {
            WorkerSet::spawn(bin, SHARDS, tracer.is_on())
        })
        .0?;
    std::env::set_var(WORKERS_ADDR_ENV, set.addrs());
    let (pool, _) = tracer.timed("workers", "pool_new", || {
        WorkerPool::new(TransportKind::Socket, inits)
    });
    std::env::remove_var(WORKERS_ADDR_ENV);
    let spawn_s = t0.elapsed().as_secs_f64();
    let mut pool = pool.map_err(|e| format!("worker pool: {e}"))?;
    let cpu0 = procfs::thread_cpu_s()?;
    let (balls, socket_s) = tracer.timed("workers", "balls", || pool.balls(sources, d0));
    let driver_cpu_s = procfs::thread_cpu_s()? - cpu0;
    let stats = tracer.timed("workers", "shutdown", || pool.shutdown()).0;
    let report = tracer.timed("workers", "reap", || set.finish()).0?;
    let stats = stats.map_err(|e| format!("worker shutdown: {e}"))?;
    let balls = balls.map_err(|e| format!("worker balls: {e}"))?;
    let (reference, inproc_s) = tracer.timed("explore", "balls", || par::balls(g, sources, d0, 1));
    ops.record(if balls == reference {
        Ok(())
    } else {
        Err("socket workers' balls differ from the in-process balls".into())
    });
    values.set("workers.spawn_s", spawn_s);
    values.set("workers.rounds", stats.rounds as f64);
    values.set("workers.messages", stats.messages as f64);
    values.set("workers.bytes_computed", stats.bytes as f64);
    values.set("workers.bytes_wire", report.wire_bytes as f64);
    values.set(
        "workers.wire_ratio",
        ratio(report.wire_bytes as f64, stats.bytes as f64),
    );
    values.set("workers.child_cpu_s", report.cpu_s);
    values.set("workers.driver_cpu_s", driver_cpu_s);
    values.set("workers.overhead_s", socket_s - inproc_s);
    values.set("workers.peak_rss_mb", report.peak_mb);
    Ok(())
}

/// Encode, store, map and verify one snapshot in a budgeted cache.
/// Returns the stored snapshot's path.
fn cache(
    ctx: &Ctx,
    tracer: &Tracer,
    g: &Graph,
    out: &BuildOutput,
    values: &mut Values,
    ops: &mut Ops,
) -> Result<std::path::PathBuf, String> {
    let key = CacheKey::new(g, out.algorithm, &BuildConfig::default());
    let snapshot = Snapshot::from_output(key.clone(), out);
    let (bytes, encode_s) = tracer.timed("cache", "encode", || snapshot.encode());
    let cache = EvictingCache::open(ctx.work.join("probe-cache"), Some(4 * bytes.len() as u64))
        .map_err(|e| format!("probe cache: {e}"))?;
    let (absent, _) = tracer.timed("cache", "open_mapped", || cache.open_mapped(&key));
    let (stored, store_s) = tracer.timed("cache", "store", || cache.store(&snapshot));
    let stored = stored.map_err(|e| format!("cache store: {e}"))?;
    let (mapped, open_s) = tracer.timed("cache", "open_mapped", || cache.open_mapped(&key));
    let mapped = mapped
        .map_err(|e| format!("cache open: {e}"))?
        .ok_or("a stored snapshot is missing from the cache")?;
    let (verified, verify_s) = tracer.timed("cache", "verify", || mapped.verify());
    ops.record(match (absent, verified) {
        (Ok(Some(_)), _) => Err("an empty cache reported a hit".into()),
        (_, Err(e)) => Err(format!("stored snapshot fails verification: {e}")),
        _ if mapped.stream_fingerprint() != out.stream_fingerprint() => {
            Err("mapped snapshot fingerprint differs from the build".into())
        }
        _ => Ok(()),
    });
    values.set("cache.encode_s", encode_s);
    values.set("cache.snapshot_bytes", bytes.len() as f64);
    values.set("cache.store_s", store_s);
    values.set("cache.open_mapped_s", open_s);
    values.set("cache.verify_s", verify_s);
    Ok(stored)
}

/// A `QueryEngine` opened zero-copy over the stored snapshot, answering
/// mixed 20-pair batches (half hot sources, half uniform).
fn oracle(
    tracer: &Tracer,
    snapshot: &Path,
    out: &BuildOutput,
    n: usize,
    gseed: u64,
    values: &mut Values,
    ops: &mut Ops,
) -> Result<(), String> {
    let (engine, open_s) = tracer.timed("oracle", "open", || {
        MappedBackend::open(snapshot).and_then(|b| QueryEngine::open(&b))
    });
    let engine = engine.map_err(|e| format!("mapped engine: {e}"))?;
    let heap = QueryEngine::from_output(out);
    let mut pairs = Pairs::new(n, gseed, 99);
    let mut times = Vec::new();
    for i in 0..ORACLE_BATCHES {
        let batch = pairs.batch();
        let (answers, dt) = tracer.timed("oracle", "batch", || engine.distances(&batch));
        times.push(dt);
        if i == 0 {
            let local: Vec<_> = heap.distances(&batch).iter().map(|c| c.value).collect();
            let served: Vec<_> = answers.iter().map(|c| c.value).collect();
            ops.record(if local == served {
                Ok(())
            } else {
                Err("mapped engine answers differ from the heap engine".into())
            });
        }
    }
    let stats = engine.stats();
    let sssp: Vec<f64> = pairs
        .hottest(5)
        .iter()
        .map(|&s| {
            tracer
                .timed("oracle", "sssp", || engine.store().distances_from(s))
                .1
        })
        .collect();
    values.set("oracle.engine_open_s", open_s);
    values.set("oracle.batch_s", median(&times));
    values.set(
        "oracle.tree_builds_per_batch",
        stats.tree_builds as f64 / ORACLE_BATCHES as f64,
    );
    values.set("oracle.sssp_s", median(&sssp));
    values.set(
        "oracle.lru_hit_ratio",
        ratio(stats.cache_hits as f64, stats.queries as f64),
    );
    Ok(())
}

/// A daemon child: one cold and one warm `Build`, then three queries.
#[allow(clippy::too_many_arguments)]
fn serve(
    ctx: &Ctx,
    tracer: &Tracer,
    path: &Path,
    out: &BuildOutput,
    n: usize,
    gseed: u64,
    values: &mut Values,
    ops: &mut Ops,
) -> Result<(), String> {
    let bin = ctx.bins.usnae.as_ref().map_err(Clone::clone)?;
    let socket = ctx.work.join("probe.sock");
    let daemon = tracer
        .timed("serve", "start", || {
            Daemon::start(bin, &socket, &ctx.work.join("probe-serve"), None)
        })
        .0?;
    let relay = UnixRelay::start(&ctx.work.join("probe-relay.sock"), &socket)
        .map_err(|e| format!("unix relay: {e}"))?;
    let before = daemon.stats()?;
    let cpu0 = daemon.cpu_s()?;
    let graph = path.to_str().ok_or("graph path is not UTF-8")?;
    let job = JobSpec::new(graph, out.algorithm, &BuildConfig::default());
    let heap = QueryEngine::from_output(out);
    let mut pairs = Pairs::new(n, gseed, 98);
    let mut client = Client::connect(&relay.path).map_err(|e| format!("connect: {e}"))?;
    for (i, expect) in [JobCache::Cold, JobCache::Warm].into_iter().enumerate() {
        let (meta, _) = tracer.timed("serve", "build", || client.build(&job, |_, _, _| {}));
        ops.record(match meta {
            Ok(m) if m.cache == expect && m.stream_fingerprint == out.stream_fingerprint() => {
                Ok(())
            }
            Ok(m) => Err(format!("probe build {i} replied {:?}", m.cache)),
            Err(e) => Err(format!("probe build: {e}")),
        });
    }
    for _ in 0..3 {
        let batch = pairs.batch();
        let wire: Vec<(u64, u64)> = batch.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
        let (answers, _) = tracer.timed("serve", "query", || client.query(&job, &wire, 0));
        let local: Vec<Option<u64>> = heap.distances(&batch).iter().map(|c| c.value).collect();
        ops.record(match answers {
            Ok(a) if a.distances == local => Ok(()),
            Ok(_) => Err("probe query answers differ from the local engine".into()),
            Err(e) => Err(format!("probe query: {e}")),
        });
    }
    drop(client);
    let after = daemon.stats()?;
    let traffic = relay.finish();
    let cpu_s = daemon.stop()? - cpu0;
    ServeDelta {
        before,
        after,
        cpu_s,
        traffic,
    }
    .record(values, 5, 1);
    Ok(())
}
