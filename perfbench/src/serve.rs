//! The `serve-*` workloads: a `usnae serve` daemon child driven by
//! closed-loop clients over its Unix socket.
//!
//! * `serve-warm`: one snapshot built during set-up; one connection
//!   alternates a warm `Build` and a 20-pair `Query`.
//! * `serve-churn`: a byte budget that holds about two snapshots; one
//!   connection rotates over 6 jobs, each a `Build` that must miss and a
//!   20-pair `Query`.
//!
//! Queries repeat a fixed cycle of batches per job, so every request is
//! repeated identically and timed at its fastest repeat. Every reply is
//! checked against a local build and a local `QueryEngine` of the same
//! job.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use usnae_core::api::BuildConfig;
use usnae_core::cache::{CacheKey, Snapshot};
use usnae_core::serve::{Client, JobCache, JobSpec};
use usnae_core::QueryEngine;
use usnae_graph::{bfs, Dist, VertexId};

use crate::children::{Daemon, ServeDelta};
use crate::inputs::{self, Pairs, BATCH_PAIRS};
use crate::relay::UnixRelay;
use crate::report::{median, quantile, Ops};
use crate::trace::Tracer;
use crate::{probes, procfs, Ctx, Values};

const WARM_N: usize = 65_536;
/// Query batches in each job's cycle. With mixed pairs, a cycle's uniform
/// sources (10 per batch) outnumber a query engine's 64 cached trees, so
/// they miss on every repeat, while the hot sources keep hitting.
const CYCLE: usize = 8;
const CHURN_N: usize = 4_096;
const CHURN_GRAPHS: usize = 2;
const CHURN_ALGOS: [&str; 3] = ["centralized", "en17a", "ep01"];

/// Sources whose answers are also checked against exact BFS on `G`.
const EXACT_SOURCES: usize = 4;

/// Alternating untraced and traced segments of a traced run.
const TRACE_SEGMENTS: usize = 4;

/// Untimed traffic before the measured loop, so the daemon has opened its
/// engines and filled its tree caches.
const WARM_UP_S: f64 = 2.0;

/// What a client expects of one job's replies (shared by client threads).
struct Expected {
    spec: JobSpec,
    fingerprint: u64,
    n: usize,
    gseed: u64,
    stream: u64,
}

/// A job's local build: what every daemon reply must agree with.
struct Reference {
    algo: String,
    edges: u64,
    engine: QueryEngine,
    /// Exact BFS distances from the job's hottest query sources.
    exact: Vec<(VertexId, Vec<Option<Dist>>)>,
    snapshot_bytes: usize,
}

/// Build-layer figures of the local reference builds.
#[derive(Default)]
struct ReferenceBuilds {
    construct_s: f64,
    phases_s: f64,
    unattributed_s: f64,
    explorations: f64,
    edges: f64,
    peak_mb: f64,
    load_s: Vec<f64>,
}

impl ReferenceBuilds {
    fn record(&self, values: &mut Values) {
        values.set("graph.load_s", median(&self.load_s));
        values.set("build.s", self.construct_s);
        values.set("build.phases_s", self.phases_s);
        values.set("build.unattributed_s", self.unattributed_s);
        values.set("build.explorations", self.explorations);
        values.set("build.peak_rss_mb", self.peak_mb);
        values.set("build.edges", self.edges);
    }
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{} is not UTF-8", p.display()))
}

fn prepare(
    tracer: &Tracer,
    path: &Path,
    algo: &str,
    gseed: u64,
    stream: u64,
    builds: &mut ReferenceBuilds,
) -> Result<(Expected, Reference), String> {
    let cfg = BuildConfig::default();
    let construction =
        usnae_baselines::registry::find(algo).ok_or_else(|| format!("{algo} is not registered"))?;
    let (g, load_s) = tracer.timed("graph", "load", || inputs::load_graph(path));
    let g = g?;
    procfs::trim_heap();
    procfs::reset_peak(None)?;
    let (out, construct_s) = tracer.timed("build", algo, || construction.build(&g, &cfg));
    let out = out.map_err(|e| format!("local {algo} build: {e}"))?;
    let phases_s: f64 = out
        .stats
        .phases
        .iter()
        .map(|p| p.duration.as_secs_f64())
        .sum();
    builds.construct_s += construct_s;
    builds.phases_s += phases_s;
    builds.unattributed_s += out.stats.total.as_secs_f64() - phases_s;
    builds.explorations += out.stats.explorations() as f64;
    builds.edges += out.num_edges() as f64;
    builds.peak_mb = builds.peak_mb.max(procfs::memory(None)?.peak_mb);
    builds.load_s.push(load_s);
    let snapshot_bytes = Snapshot::from_output(CacheKey::new(&g, algo, &cfg), &out)
        .encode()
        .len();
    let pairs = Pairs::new(g.num_vertices(), gseed, stream);
    let exact = pairs
        .hottest(EXACT_SOURCES)
        .iter()
        .map(|&s| (s, bfs::bfs(&g, s)))
        .collect();
    let expected = Expected {
        spec: JobSpec::new(path_str(path)?, algo, &cfg),
        fingerprint: out.stream_fingerprint(),
        n: g.num_vertices(),
        gseed,
        stream,
    };
    Ok((
        expected,
        Reference {
            algo: algo.to_string(),
            edges: out.num_edges() as u64,
            engine: out.into_query_engine().with_cache_capacity(1024),
            exact,
            snapshot_bytes,
        },
    ))
}

/// One answered batch, checked after the loop.
struct Answered {
    job: usize,
    pairs: Vec<(VertexId, VertexId)>,
    distances: Vec<Option<u64>>,
    guarantee: (f64, f64),
}

/// Checks answers against the local engines and, for the hottest
/// sources, against exact BFS on `G`. Each job's pairs go to its local
/// engine as one batch, so each distinct source costs one tree.
fn check_answers(references: &[Reference], answered: &[Answered], ops: &mut Ops) {
    let mut local: Vec<std::vec::IntoIter<_>> = references
        .iter()
        .enumerate()
        .map(|(job, r)| {
            let pairs: Vec<(VertexId, VertexId)> = answered
                .iter()
                .filter(|a| a.job == job)
                .flat_map(|a| a.pairs.iter().copied())
                .collect();
            r.engine.distances(&pairs).into_iter()
        })
        .collect();
    for a in answered {
        let r = &references[a.job];
        let local: Vec<_> = local[a.job].by_ref().take(a.pairs.len()).collect();
        let mut result = Ok(());
        if a.guarantee != r.engine.guarantee() {
            result = Err(format!(
                "daemon certified {:?}, local build {:?}",
                a.guarantee,
                r.engine.guarantee()
            ));
        }
        for ((&(u, v), &d), l) in a.pairs.iter().zip(&a.distances).zip(&local) {
            if result.is_err() {
                break;
            }
            if d != l.value {
                result = Err(format!(
                    "pair ({u}, {v}): daemon {d:?}, local {:?}",
                    l.value
                ));
            } else if let Some((_, exact)) = r.exact.iter().find(|(s, _)| *s == u) {
                if !l.holds_against(exact[v]) {
                    result = Err(format!(
                        "pair ({u}, {v}): {d:?} breaks d_G = {:?} under {:?}",
                        exact[v],
                        r.engine.guarantee()
                    ));
                }
            }
        }
        if let Err(e) = result {
            ops.fail(format!("{}: {e}", r.algo));
        }
    }
}

/// What the closed-loop connection measured. Round trips are keyed by
/// their visit's position in the cycle (see [`client_loop`]).
#[derive(Default)]
struct ClientOut {
    build_ms: Vec<(usize, f64)>,
    query_ms: Vec<(usize, f64)>,
    answered: Vec<Answered>,
    cold_builds: u64,
    requests: u64,
    ops: Ops,
}

/// The plan's closed loop on one connection for at least `seconds`: for
/// each job in rotation, a `Build` whose reply must say `plan.expect`,
/// then one 20-pair `Query` from the job's fixed cycle of [`CYCLE`]
/// batches. The loop runs whole cycles ([`CYCLE`] rotations over the
/// jobs), so every cycle starts with the daemon in the same state, tree
/// LRUs included, and repeats the same work.
fn drive(target: &Path, jobs: &[Expected], plan: &Plan, seconds: f64, tracer: &Tracer) -> ClientOut {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let expect = plan.expect;
    let mut out = ClientOut::default();
    let mut client = match Client::connect(target) {
        Ok(c) => c,
        Err(e) => {
            out.ops.record(Err(format!("connect: {e}")));
            return out;
        }
    };
    let batches: Vec<Vec<Vec<(VertexId, VertexId)>>> = jobs
        .iter()
        .map(|r| {
            let mut pairs = if plan.hot_only {
                Pairs::hot(r.n, r.gseed, r.stream)
            } else {
                Pairs::new(r.n, r.gseed, r.stream)
            };
            (0..CYCLE).map(|_| pairs.batch()).collect()
        })
        .collect();
    let visits = jobs.len() * CYCLE;
    let mut i = 0usize;
    while !i.is_multiple_of(visits) || Instant::now() < deadline {
        let pos = i % visits;
        let job = pos % jobs.len();
        let r = &jobs[job];
        tracer.request(&r.spec.algorithm, || {
            let (built, dt) =
                tracer.timed("serve", "build", || client.build(&r.spec, |_, _, _| {}));
            out.requests += 1;
            let checked = match built {
                Ok(meta) if meta.cache != expect => Err(format!(
                    "{}: build replied {:?}, expected {expect:?}",
                    r.spec.algorithm, meta.cache
                )),
                Ok(meta) if meta.stream_fingerprint != r.fingerprint => Err(format!(
                    "{}: daemon fingerprint {:016x}, local {:016x}",
                    r.spec.algorithm, meta.stream_fingerprint, r.fingerprint
                )),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("{} build: {e}", r.spec.algorithm)),
            };
            if checked.is_ok() {
                out.build_ms.push((pos, dt * 1000.0));
                out.cold_builds += u64::from(expect == JobCache::Cold);
            }
            out.ops.record(checked);

            let batch = batches[job][pos / jobs.len()].clone();
            let wire: Vec<(u64, u64)> = batch.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
            let (answers, dt) = tracer.timed("serve", "query", || client.query(&r.spec, &wire, 0));
            out.requests += 1;
            let checked = match answers {
                Ok(a) if a.distances.len() != BATCH_PAIRS => Err(format!(
                    "{}: {} answers",
                    r.spec.algorithm,
                    a.distances.len()
                )),
                Ok(a) if a.cache != JobCache::Warm => Err(format!(
                    "{}: a query right after its build replied {:?}",
                    r.spec.algorithm, a.cache
                )),
                Ok(a) => {
                    out.query_ms.push((pos, dt * 1000.0));
                    out.answered.push(Answered {
                        job,
                        pairs: batch,
                        distances: a.distances,
                        guarantee: (a.alpha, a.beta),
                    });
                    Ok(())
                }
                Err(e) => Err(format!("{} query: {e}", r.spec.algorithm)),
            };
            out.ops.record(checked);
        });
        i += 1;
    }
    out
}

impl ClientOut {
    /// The fastest round trip at each key `0..keys`, where `key` maps a
    /// cycle position to the operation it repeats.
    fn fastest(samples: &[(usize, f64)], keys: usize, key: impl Fn(usize) -> usize) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; keys];
        for &(pos, ms) in samples {
            let k = key(pos);
            best[k] = best[k].min(ms);
        }
        best.retain(|ms| ms.is_finite());
        best
    }

    fn merge(&mut self, o: ClientOut) {
        self.build_ms.extend(o.build_ms);
        self.query_ms.extend(o.query_ms);
        self.answered.extend(o.answered);
        self.cold_builds += o.cold_builds;
        self.requests += o.requests;
        self.ops.merge(o.ops);
    }
}

/// How a serve workload sets up and what its loop expects.
struct Plan {
    n: usize,
    graphs: usize,
    algos: &'static [&'static str],
    expect: JobCache,
    /// Queries draw only hot sources ([`Pairs::hot`]), or mixed ones.
    hot_only: bool,
    /// Budget in snapshots (of the largest job); `None` = unbounded.
    budget_snapshots: Option<u64>,
    /// Build the first job during set-up.
    setup_build: bool,
}

const WARM: Plan = Plan {
    n: WARM_N,
    graphs: 1,
    algos: &["centralized"],
    expect: JobCache::Warm,
    hot_only: true,
    budget_snapshots: None,
    setup_build: true,
};

const CHURN: Plan = Plan {
    n: CHURN_N,
    graphs: CHURN_GRAPHS,
    algos: &CHURN_ALGOS,
    expect: JobCache::Cold,
    hot_only: false,
    budget_snapshots: Some(2),
    setup_build: false,
};

pub fn run_warm(ctx: &Ctx) -> Result<(Ops, Values), String> {
    run(ctx, &WARM)
}

pub fn run_churn(ctx: &Ctx) -> Result<(Ops, Values), String> {
    run(ctx, &CHURN)
}

fn run(ctx: &Ctx, plan: &Plan) -> Result<(Ops, Values), String> {
    let usnae = ctx.bins.usnae.as_ref().map_err(Clone::clone)?;
    let tracer = Tracer::new(ctx.traced, Instant::now());
    let graphs: Vec<(PathBuf, u64)> = (0..plan.graphs)
        .map(|i| {
            (
                ctx.work.join(format!("g{i}.txt")),
                inputs::derive(ctx.seed, i as u64),
            )
        })
        .collect();
    let write_graphs = || -> Result<(), String> {
        for (path, gseed) in &graphs {
            tracer
                .timed("graph", "write_graph", || {
                    inputs::write_graph(path, plan.n, *gseed)
                })
                .0?;
        }
        Ok(())
    };

    // Local references first: they fix the expected replies and the budget.
    write_graphs()?;
    let mut builds = ReferenceBuilds::default();
    let mut expected = Vec::new();
    let mut references = Vec::new();
    for (path, gseed) in &graphs {
        for &algo in plan.algos {
            let stream = 1 + references.len() as u64;
            let (e, r) = prepare(&tracer, path, algo, *gseed, stream, &mut builds)?;
            expected.push(e);
            references.push(r);
        }
    }
    let budget = plan.budget_snapshots.map(|k| {
        k * references
            .iter()
            .map(|r| r.snapshot_bytes as u64)
            .max()
            .unwrap_or(0)
    });

    let socket = ctx.work.join("d.sock");
    let cache = ctx.work.join("cache");
    let mut ops = Ops::default();
    let (setup_s, daemon) = crate::repeated_setup(
        || {
            let _ = std::fs::remove_dir_all(&cache);
            write_graphs()?;
            let daemon = tracer
                .timed("serve", "start", || {
                    Daemon::start(usnae, &socket, &cache, budget)
                })
                .0?;
            if plan.setup_build {
                let r = &expected[0];
                let meta = tracer
                    .timed("serve", "build", || {
                        Client::connect(&socket).and_then(|mut c| c.build(&r.spec, |_, _, _| {}))
                    })
                    .0
                    .map_err(|e| format!("set-up build: {e}"))?;
                if meta.cache != JobCache::Cold || meta.stream_fingerprint != r.fingerprint {
                    return Err(format!(
                        "set-up build replied {:?} with fingerprint {:016x}, local {:016x}",
                        meta.cache, meta.stream_fingerprint, r.fingerprint
                    ));
                }
            }
            Ok(daemon)
        },
        |d| d.stop().map(drop),
    )?;
    tracer.set_on(false);
    let warm_up = drive(&daemon.socket, &expected, plan, WARM_UP_S, &tracer);
    tracer.set_on(ctx.traced);
    ops.merge(warm_up.ops);
    check_answers(&references, &warm_up.answered, &mut ops);
    // The daemon's high-water mark so far is its set-up's and warm-up's
    // (on serve-warm, the cold set-up build); the reported peak is the
    // measured loop's.
    procfs::reset_peak(Some(daemon.pid()))?;

    let mut values = Values::default();
    if !ctx.traced {
        let out = drive(&daemon.socket, &expected, plan, ctx.seconds, &tracer);
        let peak = daemon.peak_mb()?;
        daemon.stop()?;
        ops.merge(out.ops);
        check_answers(&references, &out.answered, &mut ops);
        // Each job's Build and each query of the cycle at its fastest
        // repeat, as on build-*.
        let jobs = expected.len();
        let visits = jobs * CYCLE;
        let builds = ClientOut::fastest(&out.build_ms, jobs, |pos| pos % jobs);
        let queries = ClientOut::fastest(&out.query_ms, visits, |pos| pos);
        values.set("setup_s", setup_s);
        values.set("build_s", builds.iter().sum::<f64>() / 1000.0);
        values.set("build_p90_ms", quantile(&builds, 0.9));
        values.set(
            "output_edges",
            references.iter().map(|r| r.edges as f64).sum::<f64>(),
        );
        values.set("peak_rss_mb", peak);
        values.set("query_p50_ms", quantile(&queries, 0.5));
        values.set("query_p90_ms", quantile(&queries, 0.9));
        values.set(
            "query_pairs_per_s",
            (queries.len() * BATCH_PAIRS) as f64 / (queries.iter().sum::<f64>() / 1000.0),
        );
        return Ok((ops, values));
    }

    // Traced run: segments alternate untraced and traced, to price
    // tracing; both go through the byte-counting relay, so they differ
    // only in span recording.
    probes::explore_first(&tracer, &graphs[0].0, plan.n, graphs[0].1, &mut values)?;
    let relay = UnixRelay::start(&ctx.work.join("r.sock"), &daemon.socket)
        .map_err(|e| format!("unix relay: {e}"))?;
    let before = daemon.stats()?;
    let cpu0 = daemon.cpu_s()?;
    let (mut base, mut out) = (ClientOut::default(), ClientOut::default());
    for segment in 0..TRACE_SEGMENTS {
        let traced = segment % 2 == 1;
        tracer.set_on(traced);
        let seconds = ctx.seconds / TRACE_SEGMENTS as f64;
        let o = drive(&relay.path, &expected, plan, seconds, &tracer);
        if traced {
            out.merge(o)
        } else {
            base.merge(o)
        }
    }
    tracer.set_on(true);
    let after = daemon.stats()?;
    let traffic = relay.finish();
    let cpu_s = daemon.stop()? - cpu0;
    let job_s = |o: &ClientOut| {
        let jobs: Vec<f64> = o
            .build_ms
            .iter()
            .zip(&o.query_ms)
            .map(|((_, b), (_, q))| (b + q) / 1000.0)
            .collect();
        median(&jobs)
    };
    crate::set_overhead(&mut values, job_s(&base), job_s(&out));
    ServeDelta {
        before,
        after,
        cpu_s,
        traffic,
    }
    .record(
        &mut values,
        base.requests + out.requests,
        base.cold_builds + out.cold_builds,
    );
    for o in [base, out] {
        ops.merge(o.ops);
        check_answers(&references, &o.answered, &mut ops);
    }
    builds.record(&mut values);
    let (path, gseed) = &graphs[0];
    probes::fill(ctx, &tracer, path, plan.n, *gseed, &mut values, &mut ops)?;
    crate::finish_trace(ctx, &tracer, &mut values)?;
    Ok((ops, values))
}
