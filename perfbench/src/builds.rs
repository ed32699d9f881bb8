//! The `build-*` workloads: in-process builds from an edge-list file,
//! each followed by a few 20-pair query batches over what was built.
//!
//! A pass runs every job of the workload once. Passes repeat until the
//! run's time is used, and only whole passes are reported.

use std::path::Path;
use std::time::Instant;

use usnae_core::api::{BuildConfig, Construction, TransportKind};
use usnae_core::oracle::Certified;
use usnae_graph::{bfs, Dist, Graph, VertexId};
use usnae_workers::socket::WORKERS_ADDR_ENV;

use crate::children::WorkerSet;
use crate::inputs::{self, Pairs, BATCH_PAIRS};
use crate::report::{median, quantile, Ops};
use crate::trace::Tracer;
use crate::{probes, procfs, Ctx, Values};

/// One `build-*` workload.
pub struct Spec {
    pub n: usize,
    pub algos: &'static [&'static str],
    /// Run the builds on 2 shards over the socket transport.
    pub socket: bool,
}

pub const SPARSE: Spec = Spec {
    n: 16_384,
    algos: &["centralized", "fast-centralized", "en17a", "ep01"],
    socket: false,
};

pub const DENSE: Spec = Spec {
    n: 8_192,
    algos: &["spanner", "em19"],
    socket: false,
};

pub const WORKERS: Spec = Spec {
    n: 4_096,
    algos: &["centralized", "fast-centralized"],
    socket: true,
};

/// Shards of a socket build.
pub const SHARDS: usize = 2;

/// Query batches answered after each build, on one engine.
const BATCHES_PER_BUILD: usize = 8;

struct Job {
    algo: &'static str,
    construction: Box<dyn Construction>,
    /// [`BATCHES_PER_BUILD`] query batches, one after another.
    pairs: Vec<Vec<(VertexId, VertexId)>>,
    /// Stream fingerprint every build of this job must reproduce.
    fingerprint: Option<u64>,
    /// Answers every query of this job must reproduce.
    answers: Option<Vec<Option<Dist>>>,
}

/// Worker-side figures of one socket build.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerRun {
    spawn_s: f64,
    rounds: f64,
    messages: f64,
    bytes_computed: f64,
    bytes_wire: f64,
    child_cpu_s: f64,
    driver_cpu_s: f64,
    peak_mb: f64,
}

/// One successful job.
#[derive(Debug, Clone, Copy, Default)]
struct JobRecord {
    /// Edge-list file to `BuildOutput` (worker start-up included).
    build_s: f64,
    load_s: f64,
    /// The construction call alone.
    construct_s: f64,
    phases_s: f64,
    unattributed_s: f64,
    explorations: f64,
    edges: f64,
    peak_mb: f64,
    query_s: [f64; BATCHES_PER_BUILD],
    workers: Option<WorkerRun>,
}

impl JobRecord {
    fn peak_all_mb(&self) -> f64 {
        self.workers
            .map_or(self.peak_mb, |w| w.peak_mb.max(self.peak_mb))
    }
}

struct Loop {
    passes: Vec<Vec<JobRecord>>,
    /// Which passes were traced.
    traced: Vec<bool>,
}

impl Loop {
    /// The traced (or untraced) passes alone.
    fn only(&self, traced: bool) -> Loop {
        let passes = self
            .passes
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(p, _)| p.clone())
            .collect::<Vec<_>>();
        Loop {
            traced: vec![traced; passes.len()],
            passes,
        }
    }

    /// The `q`-quantile over passes of each pass's sum of `f`.
    fn pass_quantile(&self, q: f64, f: impl Fn(&JobRecord) -> f64) -> f64 {
        let sums: Vec<f64> = self.passes.iter().map(|p| p.iter().map(&f).sum()).collect();
        quantile(&sums, q)
    }

    fn jobs(&self) -> usize {
        self.passes.first().map_or(0, Vec::len)
    }

    /// The fastest of job `j`'s repeats of `f` over the passes. Every pass
    /// repeats the same build and the same batches, so the fastest repeat
    /// is the operation's cost with the host's interference removed.
    fn best(&self, j: usize, f: impl Fn(&JobRecord) -> f64) -> f64 {
        self.passes
            .iter()
            .map(|p| f(&p[j]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Each job's build, at its fastest repeat.
    fn best_builds(&self) -> Vec<f64> {
        (0..self.jobs()).map(|j| self.best(j, |r| r.build_s)).collect()
    }

    /// Job `j`'s query batches, each at its fastest repeat.
    fn best_batches(&self, j: usize) -> Vec<f64> {
        (0..BATCHES_PER_BUILD)
            .map(|b| self.best(j, |r| r.query_s[b]))
            .collect()
    }

    /// The `q`-quantile of the fastest-repeat batch times, taken per job
    /// (jobs are different algorithms, whose batch costs differ) and
    /// averaged over jobs.
    fn query_quantile(&self, q: f64) -> f64 {
        let jobs = self.jobs();
        let per_job: f64 = (0..jobs).map(|j| quantile(&self.best_batches(j), q)).sum();
        per_job / jobs as f64
    }

    fn per_pass(&self, f: impl Fn(&JobRecord) -> f64) -> f64 {
        self.pass_quantile(0.5, f)
    }

    fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.passes.iter().flatten()
    }

    fn max(&self, f: impl Fn(&JobRecord) -> f64) -> f64 {
        self.records().map(f).fold(0.0, f64::max)
    }
}

pub fn run(ctx: &Ctx, spec: &Spec) -> Result<(Ops, Values), String> {
    let tracer = Tracer::new(ctx.traced, Instant::now());
    let path = ctx.work.join("g0.txt");
    let gseed = inputs::derive(ctx.seed, 0);
    let (setup_s, ()) = crate::repeated_setup(
        || {
            tracer
                .timed("graph", "write_graph", || {
                    inputs::write_graph(&path, spec.n, gseed)
                })
                .0
        },
        |()| Ok(()),
    )?;

    let mut values = Values::default();
    let mut ops = Ops::default();
    let mut jobs = spec
        .algos
        .iter()
        .enumerate()
        .map(|(i, &algo)| {
            Ok(Job {
                algo,
                construction: usnae_baselines::registry::find(algo)
                    .ok_or_else(|| format!("algorithm {algo} is not registered"))?,
                pairs: {
                    let mut pairs = Pairs::uniform(spec.n, gseed, 1 + i as u64);
                    (0..BATCHES_PER_BUILD).map(|_| pairs.batch()).collect()
                },
                fingerprint: None,
                answers: None,
            })
        })
        .collect::<Result<Vec<Job>, String>>()?;

    // A socket build must reproduce the in-process build of the same job.
    let mut inproc_pass_s = 0.0;
    if spec.socket {
        let g = inputs::load_graph(&path)?;
        for job in &mut jobs {
            let (out, dt) = tracer.timed("build", job.algo, || {
                job.construction.build(&g, &BuildConfig::default())
            });
            match out {
                Ok(out) => job.fingerprint = Some(out.stream_fingerprint()),
                Err(e) => return Err(format!("in-process reference {}: {e}", job.algo)),
            }
            inproc_pass_s += dt;
        }
    }

    if !ctx.traced {
        let l = run_loop(
            ctx,
            spec,
            &mut jobs,
            &tracer,
            ctx.seconds,
            &path,
            &mut ops,
            false,
        )?;
        // Builds and batches are timed at their fastest repeat over the
        // passes: on a shared host, slow spells last seconds, and central
        // and tail statistics over passes measure them, not the program.
        let builds = l.best_builds();
        let batches = jobs.len() * BATCHES_PER_BUILD;
        values.set("setup_s", setup_s);
        values.set("build_s", builds.iter().sum());
        values.set("build_p90_ms", quantile(&builds, 0.9) * 1000.0);
        values.set("output_edges", l.per_pass(|r| r.edges));
        values.set("peak_rss_mb", l.max(JobRecord::peak_all_mb));
        values.set("query_p50_ms", l.query_quantile(0.5) * 1000.0);
        values.set("query_p90_ms", l.query_quantile(0.9) * 1000.0);
        // Per second of query time, not of loop time: builds take seconds
        // of a pass and its queries milliseconds.
        let query_s: f64 = (0..jobs.len()).flat_map(|j| l.best_batches(j)).sum();
        values.set(
            "query_pairs_per_s",
            (batches * BATCH_PAIRS) as f64 / query_s,
        );
        return Ok((ops, values));
    }

    // Traced run: passes alternate untraced and traced, to price tracing.
    probes::explore_first(&tracer, &path, spec.n, gseed, &mut values)?;
    let all = run_loop(
        ctx,
        spec,
        &mut jobs,
        &tracer,
        ctx.seconds,
        &path,
        &mut ops,
        true,
    )?;
    let l = all.only(true);
    crate::set_overhead(
        &mut values,
        all.only(false).per_pass(|r| r.build_s),
        l.per_pass(|r| r.build_s),
    );
    values.set(
        "graph.load_s",
        median(&l.records().map(|r| r.load_s).collect::<Vec<_>>()),
    );
    values.set("build.s", l.per_pass(|r| r.construct_s));
    values.set("build.phases_s", l.per_pass(|r| r.phases_s));
    values.set("build.unattributed_s", l.per_pass(|r| r.unattributed_s));
    values.set("build.explorations", l.per_pass(|r| r.explorations));
    values.set("build.peak_rss_mb", l.max(|r| r.peak_mb));
    values.set("build.edges", l.per_pass(|r| r.edges));
    if spec.socket {
        let w = |f: fn(&WorkerRun) -> f64| l.per_pass(|r| r.workers.as_ref().map_or(0.0, f));
        let (computed, wire) = (w(|x| x.bytes_computed), w(|x| x.bytes_wire));
        values.set("workers.spawn_s", w(|x| x.spawn_s));
        values.set("workers.rounds", w(|x| x.rounds));
        values.set("workers.messages", w(|x| x.messages));
        values.set("workers.bytes_computed", computed);
        values.set("workers.bytes_wire", wire);
        values.set("workers.wire_ratio", wire / computed);
        values.set("workers.child_cpu_s", w(|x| x.child_cpu_s));
        values.set("workers.driver_cpu_s", w(|x| x.driver_cpu_s));
        values.set(
            "workers.overhead_s",
            l.per_pass(|r| r.construct_s) - inproc_pass_s,
        );
        values.set(
            "workers.peak_rss_mb",
            l.max(|r| r.workers.map_or(0.0, |x| x.peak_mb)),
        );
    }
    probes::fill(ctx, &tracer, &path, spec.n, gseed, &mut values, &mut ops)?;
    crate::finish_trace(ctx, &tracer, &mut values)?;
    Ok((ops, values))
}

/// Runs whole passes until `budget_s` is used: a discarded warm-up pass,
/// then at least one measured pass. With `alternate`, measured passes
/// alternate untraced and traced, at least one of each.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    ctx: &Ctx,
    spec: &Spec,
    jobs: &mut [Job],
    tracer: &Tracer,
    budget_s: f64,
    path: &Path,
    ops: &mut Ops,
    alternate: bool,
) -> Result<Loop, String> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut round: i64 = -1;
    loop {
        let on = alternate && round % 2 == 1;
        let warm_up = round < 0;
        tracer.set_on(on);
        round += 1;
        let mut pass = Vec::new();
        for job in jobs.iter_mut() {
            if let Some(r) = run_job(ctx, spec, job, tracer, path, ops) {
                pass.push(r);
            }
        }
        if warm_up {
            continue;
        }
        if pass.len() == jobs.len() {
            passes.push(pass);
            traced.push(on);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let enough = traced.contains(&false) && (!alternate || traced.contains(&true));
        if elapsed >= budget_s && (enough || elapsed >= 3.0 * budget_s) {
            break;
        }
    }
    tracer.set_on(ctx.traced);
    if passes.is_empty() {
        return Err("no pass completed without a failure".into());
    }
    Ok(Loop { passes, traced })
}

/// One build and its query batch; `None` when either failed (counted).
fn run_job(
    ctx: &Ctx,
    spec: &Spec,
    job: &mut Job,
    tracer: &Tracer,
    path: &Path,
    ops: &mut Ops,
) -> Option<JobRecord> {
    let (record, _) = tracer.request(job.algo, || {
        let built = build(ctx, spec, job, tracer, path);
        ops.record(built.as_ref().map(|_| ()).map_err(Clone::clone));
        let (mut record, out, g) = built.ok()?;

        let engine = out.into_query_engine();
        let mut answers = Vec::new();
        for (batch, query_s) in job.pairs.iter().zip(&mut record.query_s) {
            let (a, dt) = tracer.timed("oracle", "batch", || engine.distances(batch));
            *query_s = dt;
            answers.extend(a);
        }
        ops.record(check_answers(job, &g, answers));
        Some(record)
    });
    record
}

/// Loads the graph and builds the job, with every check on the build.
fn build(
    ctx: &Ctx,
    spec: &Spec,
    job: &mut Job,
    tracer: &Tracer,
    path: &Path,
) -> Result<(JobRecord, usnae_core::BuildOutput, Graph), String> {
    let mut cfg = BuildConfig::default();
    procfs::trim_heap();
    procfs::reset_peak(None)?;
    let t0 = Instant::now();
    let mut workers = None;
    if spec.socket {
        cfg.shards = SHARDS;
        cfg.transport = TransportKind::Socket;
        let bin = ctx.bins.worker.as_ref().map_err(Clone::clone)?;
        // Every pass of a traced run goes through the relays, so its
        // traced and untraced passes differ only in span recording.
        let (set, spawn_s) = tracer.timed("workers", "spawn", || {
            WorkerSet::spawn(bin, SHARDS, ctx.traced)
        });
        let set = set?;
        std::env::set_var(WORKERS_ADDR_ENV, set.addrs());
        workers = Some((set, spawn_s));
    }
    let (g, load_s) = tracer.timed("graph", "load", || inputs::load_graph(path));
    let g = g?;
    let cpu0 = procfs::thread_cpu_s()?;
    let (out, construct_s) = tracer.timed("build", job.algo, || job.construction.build(&g, &cfg));
    let driver_cpu_s = procfs::thread_cpu_s()? - cpu0;
    let build_s = t0.elapsed().as_secs_f64();
    let memory = procfs::memory(None)?;
    let mut worker_run = None;
    if let Some((set, spawn_s)) = workers {
        std::env::remove_var(WORKERS_ADDR_ENV);
        let report = tracer.timed("workers", "reap", || set.finish()).0?;
        worker_run = Some(WorkerRun {
            spawn_s,
            driver_cpu_s,
            child_cpu_s: report.cpu_s,
            bytes_wire: report.wire_bytes as f64,
            peak_mb: report.peak_mb,
            ..WorkerRun::default()
        });
    }
    let out = out.map_err(|e| format!("{} build failed: {e}", job.algo))?;

    if let (Some(w), true) = (worker_run.as_mut(), spec.socket) {
        let measured = out.stats.messages.as_ref();
        match (out.stats.transport, measured) {
            (TransportKind::Socket, Some(m)) => {
                w.rounds = m.rounds as f64;
                w.messages = m.messages as f64;
                w.bytes_computed = m.bytes as f64;
            }
            (kind, _) => {
                return Err(format!(
                    "{} was asked for a socket build but ran on {kind}",
                    job.algo
                ))
            }
        }
    }
    let fingerprint = out.stream_fingerprint();
    match job.fingerprint {
        Some(expected) if expected != fingerprint => {
            return Err(format!(
                "{}: stream fingerprint {fingerprint:016x} differs from {expected:016x}",
                job.algo
            ))
        }
        Some(_) => {}
        None => job.fingerprint = Some(fingerprint),
    }
    let phases_s: f64 = out
        .stats
        .phases
        .iter()
        .map(|p| p.duration.as_secs_f64())
        .sum();
    let record = JobRecord {
        build_s,
        load_s,
        construct_s,
        phases_s,
        unattributed_s: out.stats.total.as_secs_f64() - phases_s,
        explorations: out.stats.explorations() as f64,
        edges: out.num_edges() as f64,
        peak_mb: memory.peak_mb,
        query_s: [0.0; BATCHES_PER_BUILD],
        workers: worker_run,
    };
    Ok((record, out, g))
}

/// The first answers of a job must satisfy `d_G ≤ d̂ ≤ α·d_G + β` against
/// exact BFS on `G`; every later batch must repeat them exactly.
fn check_answers(
    job: &mut Job,
    g: &Graph,
    answers: Vec<Certified<Option<Dist>>>,
) -> Result<(), String> {
    let values: Vec<Option<Dist>> = answers.iter().map(|a| a.value).collect();
    match &job.answers {
        Some(expected) if *expected != values => Err(format!(
            "{}: query answers changed between builds",
            job.algo
        )),
        Some(_) => Ok(()),
        None => {
            check_stretch(g, &job.pairs.concat(), &answers)
                .map_err(|e| format!("{}: {e}", job.algo))?;
            job.answers = Some(values);
            Ok(())
        }
    }
}

/// `d_G ≤ d̂ ≤ α·d_G + β` for every pair, against exact BFS on `G`.
pub fn check_stretch(
    g: &Graph,
    pairs: &[(VertexId, VertexId)],
    answers: &[Certified<Option<Dist>>],
) -> Result<(), String> {
    let mut exact: std::collections::BTreeMap<VertexId, Vec<Option<Dist>>> = Default::default();
    for (&(u, v), a) in pairs.iter().zip(answers) {
        let d = exact.entry(u).or_insert_with(|| bfs::bfs(g, u))[v];
        if !a.holds_against(d) {
            return Err(format!(
                "pair ({u}, {v}): answer {:?} breaks d_G = {d:?} under (α, β) = ({}, {})",
                a.value, a.alpha, a.beta
            ));
        }
    }
    Ok(())
}
