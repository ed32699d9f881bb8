//! The exploration engine: one object that decides *where* a
//! construction's sharded exploration phases run.
//!
//! Every sharded construction (centralized / fast-centralized / spanner
//! and the EP01/EN17a/EM19 baselines) funnels its bulk graph work through
//! three primitives — sorted distance balls, sparse BFS explorations with
//! parents ([`Exploration`]), and ruling-set carving. [`Engine`] owns the
//! dispatch:
//!
//! * **Inproc** (the default): the primitives run against the build's
//!   [`GraphView`] — the shared adjacency array or local CSR shards —
//!   through the `usnae_graph::par` fan-out, on per-thread scratch the
//!   engine keeps for the whole build.
//! * **Channel / Process / Socket** ([`TransportKind`]): the engine spawns
//!   a [`WorkerPool`] over the partitioned layout and ships each shard's
//!   work to its owning worker, exchanging cut-edge frontiers as typed
//!   messages. The pool's rank protocol reproduces the sequential FIFO
//!   BFS exactly, so the primitives return **byte-identical** results —
//!   the pool only changes where the work runs and adds **measured**
//!   [`MessageStats`] to the build's report.
//!
//! Task 1 of a phase runs one search per center whose popularity is not
//! already known, in bounded chunks ([`Engine::for_each_ball`],
//! [`Engine::for_each_exploration`]): the caller keeps what it needs of
//! each result and drops the rest, so a phase holds about 16 MiB of
//! search results at a time instead of one ball per center. Outside the
//! last phase a center needs no search when its component is saturated
//! (every ball in it is the whole component, by a bound the engine
//! learns once per build from one BFS per component) and holds more
//! than `cap` centers, and in every phase none when it is the only
//! center of its component: [`sai::classify_centers`] applies both
//! rules.
//!
//! Worker failures never corrupt a build: on the first transport error the
//! engine stashes the typed [`WorkerError`], drops the pool, finishes the
//! build in-process (keeping the inner phase loops infallible), and
//! surfaces the error from [`Engine::finish`] so callers fail loudly
//! instead of silently reporting a worker build that did not happen.

use std::cell::{OnceCell, RefCell};
use std::time::Instant;

use crate::api::{BuildConfig, BuildError};
use crate::exec::{BuildStats, PhaseTiming};
use crate::sai;
use usnae_graph::par::{Exploration, ScratchPool};
use usnae_graph::partition::{GraphView, ShardView, ShardedCsr};
use usnae_graph::{AdjStorage, Dist, GraphCore, HeapAdj, VertexId};
use usnae_workers::{MessageStats, ShardInit, TransportKind, WorkerError, WorkerPool};

/// What [`Engine::finish`] hands back to the build driver: the transport
/// that actually ran, its measured message statistics (worker transports
/// only), and the per-shard layout timings.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The transport the exploration phases ran on.
    pub transport: TransportKind,
    /// Measured exchange statistics (`Some` iff a worker pool ran).
    pub messages: Option<MessageStats>,
    /// Per-shard layout records (empty for shared-array builds).
    pub shards: Vec<usnae_graph::partition::ShardTiming>,
}

impl EngineReport {
    /// The build's [`BuildStats`]: `cfg`'s thread count, the wall clock
    /// since `t0`, the construction's `phases` (empty when it does not
    /// time them), and this report's shards, transport and messages.
    pub fn into_stats(
        self,
        cfg: &BuildConfig,
        t0: Instant,
        phases: Vec<PhaseTiming>,
    ) -> BuildStats {
        BuildStats {
            threads: cfg.threads,
            total: t0.elapsed(),
            phases,
            shards: self.shards,
            transport: self.transport,
            messages: self.messages,
            ..BuildStats::default()
        }
    }
}

/// Bytes of search results (settled entries over all sources of a chunk)
/// one chunk of [`Engine::for_each_ball`] /
/// [`Engine::for_each_exploration`] aims to hold in flight: 2^20 ball
/// entries or 2^19 exploration entries. On a worker pool every chunk is
/// its own task with its own BFS rounds, so the budget also sets how
/// many whole-graph balls share one set of rounds (256 at n = 4,096).
const CHUNK_BYTES: usize = 16 << 20;

/// Dispatches a construction's exploration primitives to the in-process
/// fan-out or a [`WorkerPool`], per [`BuildConfig::transport`].
///
/// Interior mutability (`RefCell`) keeps the primitive methods `&self`, so
/// the exec functions thread one shared `&Engine` through their phase
/// loops exactly like they used to thread `(threads, &GraphView)`.
pub struct Engine<'g, S: AdjStorage = HeapAdj> {
    view: GraphView<'g, S>,
    threads: usize,
    kind: TransportKind,
    pool: RefCell<Option<WorkerPool>>,
    error: RefCell<Option<WorkerError>>,
    /// In-process search scratch, kept across every call of the build.
    scratch: RefCell<ScratchPool>,
    /// Maximum degree of the view, computed on first use.
    max_degree: OnceCell<usize>,
    /// Connected components of the view, computed on first use.
    components: OnceCell<Components>,
}

/// The connected components of an engine's view, each with the depth
/// from which a search inside it settles the whole component.
///
/// Components are numbered in order of their min-id vertex `r`. For any
/// vertex `c` of a component, `ecc(c) ≤ d(c, r) + ecc(r) ≤ 2·ecc(r)`, so
/// a search from `c` to any depth `≥ 2·ecc(r)` reaches every vertex of
/// the component.
#[derive(Debug)]
pub(crate) struct Components {
    /// Component index of each vertex.
    pub(crate) of: Vec<usize>,
    /// `2·ecc(r)` of each component: a search to at least this depth from
    /// any of its vertices settles the whole component.
    pub(crate) saturation: Vec<Dist>,
}

impl<'g, S: AdjStorage> Engine<'g, S> {
    /// Builds the engine for one construction run: partitions the graph
    /// per `cfg` and, for a worker transport on a partitioned layout,
    /// spawns the pool. A pool that cannot be spawned (e.g. the worker
    /// binary is missing) stashes its error and the build runs in-process;
    /// [`finish`](Self::finish) surfaces the failure.
    pub fn new(g: &'g GraphCore<S>, cfg: &BuildConfig) -> Engine<'g, S> {
        let mut engine = Engine::over(cfg.graph_view(g), cfg.threads);
        if cfg.transport != TransportKind::Inproc {
            if let Some(sharded) = engine.view.as_sharded() {
                let inits = shard_inits(sharded, g.num_vertices());
                match WorkerPool::new(cfg.transport, inits) {
                    Ok(pool) => {
                        engine.kind = cfg.transport;
                        engine.pool = RefCell::new(Some(pool));
                    }
                    Err(e) => engine.error = RefCell::new(Some(e)),
                }
            }
        }
        engine
    }

    /// A plain in-process engine over the shared adjacency array — the
    /// sequential wrappers' entry point.
    pub fn inproc(g: &'g GraphCore<S>, threads: usize) -> Engine<'g, S> {
        Engine::over(GraphView::shared(g), threads)
    }

    fn over(view: GraphView<'g, S>, threads: usize) -> Engine<'g, S> {
        let n = view.num_vertices();
        Engine {
            view,
            threads,
            kind: TransportKind::Inproc,
            pool: RefCell::new(None),
            error: RefCell::new(None),
            scratch: RefCell::new(ScratchPool::new(n, threads)),
            max_degree: OnceCell::new(),
            components: OnceCell::new(),
        }
    }

    /// Worker threads of the in-process fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` against the pool if one is live; on a worker error the
    /// pool is dropped and the error stashed for [`finish`](Self::finish),
    /// returning `None` so the caller falls back in-process.
    fn with_pool<T>(&self, f: impl FnOnce(&mut WorkerPool) -> Result<T, WorkerError>) -> Option<T> {
        let mut slot = self.pool.borrow_mut();
        let pool = slot.as_mut()?;
        match f(pool) {
            Ok(out) => Some(out),
            Err(e) => {
                *slot = None; // the transport is unusable after an error
                *self.error.borrow_mut() = Some(e);
                None
            }
        }
    }

    /// Sorted distance balls of every source (the
    /// [`usnae_graph::par::balls`] contract): per source, every
    /// `(v, dist)` with `dist <= depth`, ascending by vertex id, the source
    /// included at distance 0.
    pub fn balls(&self, sources: &[VertexId], depth: Dist) -> Vec<Vec<(VertexId, Dist)>> {
        if let Some(out) = self.with_pool(|pool| pool.balls(sources, depth)) {
            return out;
        }
        self.scratch.borrow_mut().balls(&self.view, sources, depth)
    }

    /// Sparse bounded explorations of every source, one per source in
    /// order: distances plus FIFO-exact BFS-tree parents, computed
    /// wherever this engine runs them.
    pub fn explorations(&self, sources: &[VertexId], depth: Dist) -> Vec<Exploration> {
        if let Some(out) = self.with_pool(|pool| pool.explorations(sources, depth)) {
            return out;
        }
        self.scratch
            .borrow_mut()
            .explorations(&self.view, sources, depth)
    }

    /// [`balls`](Self::balls) in bounded chunks: hands each source and its
    /// ball to `consume`, in source order, and holds about `CHUNK_BYTES`
    /// of balls at a time.
    pub fn for_each_ball(
        &self,
        sources: &[VertexId],
        depth: Dist,
        consume: impl FnMut(VertexId, Vec<(VertexId, Dist)>),
    ) {
        let entries = CHUNK_BYTES / std::mem::size_of::<(VertexId, Dist)>();
        let search = |c: &[VertexId]| self.balls(c, depth);
        self.chunked(sources, depth, entries, search, Vec::len, consume);
    }

    /// [`explorations`](Self::explorations) in bounded chunks, like
    /// [`for_each_ball`](Self::for_each_ball).
    pub fn for_each_exploration(
        &self,
        sources: &[VertexId],
        depth: Dist,
        consume: impl FnMut(VertexId, Exploration),
    ) {
        let entries = CHUNK_BYTES / std::mem::size_of::<(VertexId, Dist, Option<VertexId>)>();
        let search = |c: &[VertexId]| self.explorations(c, depth);
        let size = |e: &Exploration| e.settled.len();
        self.chunked(sources, depth, entries, search, size, consume);
    }

    /// The chunk loop behind [`for_each_ball`](Self::for_each_ball) and
    /// [`for_each_exploration`](Self::for_each_exploration), holding about
    /// `entries` settled entries in flight. The first chunk divides
    /// `entries` by an upper bound on the ball size; each later chunk by
    /// the mean ball the previous chunk settled. A chunk never drops below
    /// the thread count.
    fn chunked<T>(
        &self,
        sources: &[VertexId],
        depth: Dist,
        entries: usize,
        mut search: impl FnMut(&[VertexId]) -> Vec<T>,
        size: impl Fn(&T) -> usize,
        mut consume: impl FnMut(VertexId, T),
    ) {
        let mut chunk = (entries / self.ball_bound(depth)).max(self.threads);
        let mut rest = sources;
        while !rest.is_empty() {
            let (now, later) = rest.split_at(chunk.min(rest.len()));
            let results = search(now);
            let settled: usize = results.iter().map(&size).sum();
            let mean = settled.div_ceil(now.len()).max(1);
            chunk = (entries / mean).max(self.threads);
            for (&source, result) in now.iter().zip(results) {
                consume(source, result);
            }
            rest = later;
        }
    }

    /// An upper bound on the ball of radius `depth` around any vertex: the
    /// Moore bound `1 + Δ·Σ_{k<depth} (Δ−1)^k` for maximum degree `Δ`,
    /// capped at `n`.
    fn ball_bound(&self, depth: Dist) -> usize {
        let n = self.view.num_vertices().max(1);
        let delta = *self.max_degree.get_or_init(|| {
            (0..self.view.num_vertices())
                .map(|v| self.view.degree(v))
                .max()
                .unwrap_or(0)
        });
        let (mut bound, mut level, mut k) = (1usize, delta, 0);
        while bound < n && level > 0 && k < depth {
            bound = bound.saturating_add(level);
            level = level.saturating_mul(delta - 1);
            k += 1;
        }
        bound.min(n)
    }

    /// The view's connected components and their saturation depths,
    /// computed on first use by one unbounded BFS per component from its
    /// min-id vertex. The pass runs here, on this engine's own scratch,
    /// even when a worker pool runs the other searches: it is one search
    /// per component, once per build, over the view the driver already
    /// holds.
    pub(crate) fn components(&self) -> &Components {
        self.components.get_or_init(|| {
            let n = self.view.num_vertices();
            let mut scratch = self.scratch.borrow_mut();
            let mut of = vec![usize::MAX; n];
            let mut saturation = Vec::new();
            for r in 0..n {
                if of[r] != usize::MAX {
                    continue; // an earlier, smaller root reached it
                }
                let ball = scratch.balls(&self.view, &[r], Dist::MAX);
                let mut ecc = 0;
                for &(v, d) in ball.iter().flatten() {
                    of[v] = saturation.len();
                    ecc = ecc.max(d);
                }
                saturation.push(ecc.saturating_mul(2));
            }
            Components { of, saturation }
        })
    }

    /// Deterministic greedy ruling-set carving (the
    /// [`sai::ruling_set_par`] contract), with the candidate balls
    /// computed wherever this engine runs them.
    pub fn ruling_set(&self, w: &[VertexId], delta: Dist) -> Vec<VertexId> {
        sai::ruling_set_impl(
            self.view.num_vertices(),
            w,
            delta,
            self.threads,
            |batch, depth| self.balls(batch, depth),
        )
    }

    /// Tears the engine down: shuts the pool down (collecting the final
    /// [`MessageStats`]) and reports transport + shard timings.
    ///
    /// # Errors
    ///
    /// [`BuildError::Worker`] when the pool could not be spawned, a
    /// transport exchange failed mid-build, or shutdown was unclean — the
    /// in-process fallback keeps the phases running, but the requested
    /// worker build did not happen, so the build must not succeed
    /// silently.
    pub fn finish(self) -> Result<EngineReport, BuildError> {
        let shards = self.view.shard_timings();
        if let Some(e) = self.error.into_inner() {
            return Err(BuildError::Worker(e));
        }
        let messages = match self.pool.into_inner() {
            Some(pool) => Some(pool.shutdown().map_err(BuildError::Worker)?),
            None => None,
        };
        Ok(EngineReport {
            transport: self.kind,
            messages,
            shards,
        })
    }
}

/// Per-shard init payloads from the partitioned layout: each worker gets
/// its owned vertex range plus the shard's local CSR (which stores owned
/// neighbor lists verbatim, preserving the global adjacency order the
/// rank protocol depends on).
fn shard_inits(sharded: &ShardedCsr, num_vertices: usize) -> Vec<ShardInit> {
    let shards = sharded.shards();
    shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let range = shard.range();
            let mut offsets = Vec::with_capacity(range.len() + 1);
            let mut adjacency = Vec::new();
            offsets.push(0);
            for v in range.clone() {
                adjacency.extend_from_slice(shard.neighbors(v));
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: i,
                num_shards: shards.len(),
                num_vertices,
                start: range.start,
                end: range.end,
                offsets,
                adjacency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::partition::PartitionPolicy;
    use usnae_graph::{generators, par};

    fn config(kind: TransportKind, shards: usize) -> BuildConfig {
        BuildConfig {
            transport: kind,
            shards,
            threads: 2,
            ..BuildConfig::default()
        }
    }

    #[test]
    fn inproc_engine_matches_the_direct_primitives() {
        let g = generators::gnp_connected(80, 0.06, 9).unwrap();
        let engine = Engine::inproc(&g, 2);
        let sources = [0, 7, 33];
        assert_eq!(engine.balls(&sources, 3), par::balls(&g, &sources, 3, 2));
        assert_eq!(
            engine.explorations(&sources, 4),
            ScratchPool::new(80, 1).explorations(&g, &sources, 4)
        );
        let w: Vec<VertexId> = (0..80).step_by(3).collect();
        assert_eq!(engine.ruling_set(&w, 2), sai::ruling_set(&g, &w, 2));
        let report = engine.finish().unwrap();
        assert_eq!(report.transport, TransportKind::Inproc);
        assert!(report.messages.is_none());
    }

    #[test]
    fn channel_engine_is_byte_identical_and_measures_messages() {
        let g = generators::gnp_connected(90, 0.05, 21).unwrap();
        let cfg = BuildConfig {
            partition: PartitionPolicy::DegreeBalanced,
            ..config(TransportKind::Channel, 3)
        };
        let engine = Engine::new(&g, &cfg);
        let sources = [1, 40, 77];
        assert_eq!(engine.balls(&sources, 4), par::balls(&g, &sources, 4, 2));
        assert_eq!(
            engine.explorations(&sources, 5),
            ScratchPool::new(90, 1).explorations(&g, &sources, 5)
        );
        let w: Vec<VertexId> = (0..90).step_by(2).collect();
        assert_eq!(engine.ruling_set(&w, 2), sai::ruling_set(&g, &w, 2));
        let report = engine.finish().unwrap();
        assert_eq!(report.transport, TransportKind::Channel);
        let stats = report.messages.expect("worker build measures messages");
        assert!(stats.rounds > 0 && stats.messages > 0 && stats.bytes > 0);
        assert_eq!(report.shards.len(), 3);
    }

    #[test]
    fn chunked_task_one_matches_the_whole_batch() {
        // Whole-graph searches over 2,100 vertices: a chunk holds at most
        // CHUNK_BYTES / (16 B × 2,100) < 600 sources, so the loop crosses
        // at least one chunk boundary inside the source list.
        let g = generators::gnp_connected(2100, 0.003, 5).unwrap();
        let sources: Vec<VertexId> = (0..2100).step_by(3).take(600).collect();
        assert!(CHUNK_BYTES / (16 * 2100) < sources.len());
        for threads in [1usize, 4] {
            let engine = Engine::inproc(&g, threads);
            let mut seen = Vec::new();
            let whole = engine.explorations(&sources, Dist::MAX);
            let mut i = 0;
            engine.for_each_exploration(&sources, Dist::MAX, |s, e| {
                assert_eq!(e, whole[i], "threads={threads} source={s}");
                seen.push(s);
                i += 1;
            });
            assert_eq!(seen, sources);
            let balls = engine.balls(&sources, 2);
            let mut i = 0;
            engine.for_each_ball(&sources, 2, |_, ball| {
                assert_eq!(ball, balls[i]);
                i += 1;
            });
            assert_eq!(i, sources.len());
        }
    }

    #[test]
    fn ball_bound_is_the_capped_moore_bound() {
        let g = generators::grid2d(10, 10).unwrap(); // max degree 4
        let engine = Engine::inproc(&g, 1);
        assert_eq!(engine.ball_bound(0), 1);
        assert_eq!(engine.ball_bound(1), 5);
        assert_eq!(engine.ball_bound(2), 17);
        assert_eq!(engine.ball_bound(3), 53);
        assert_eq!(engine.ball_bound(Dist::MAX), 100);
    }

    #[test]
    fn components_carry_twice_their_roots_eccentricity() {
        // A path 0–1–2–3, the isolated vertex 4, and a 6-cycle on 5..11.
        let mut b = usnae_graph::GraphBuilder::new(11);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        for i in 0..6 {
            b.add_edge(5 + i, 5 + (i + 1) % 6).unwrap();
        }
        let g = b.build();
        let cfg = BuildConfig {
            shards: 3,
            ..BuildConfig::default()
        };
        for engine in [Engine::inproc(&g, 2), Engine::new(&g, &cfg)] {
            let components = engine.components();
            assert_eq!(components.of, [0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2]);
            assert_eq!(components.saturation, [6, 0, 6]);
        }
    }

    #[test]
    fn unsharded_worker_request_stays_inproc() {
        // `validate()` rejects this config, but the engine itself must not
        // spawn a pool without a partitioned layout.
        let g = generators::path(12).unwrap();
        let cfg = config(TransportKind::Channel, 0);
        let engine = Engine::new(&g, &cfg);
        assert_eq!(engine.balls(&[0], 2), par::balls(&g, &[0], 2, 2));
        let report = engine.finish().unwrap();
        assert_eq!(report.transport, TransportKind::Inproc);
        assert!(report.messages.is_none());
    }

    #[test]
    fn missing_worker_binary_surfaces_at_finish() {
        // The only test in this binary touching the worker-bin env var, so
        // no cross-test race.
        let g = generators::path(16).unwrap();
        let cfg = config(TransportKind::Process, 2);
        let previous = std::env::var_os(usnae_workers::process::WORKER_BIN_ENV);
        std::env::set_var(
            usnae_workers::process::WORKER_BIN_ENV,
            "/nonexistent/usnae-worker",
        );
        let engine = Engine::new(&g, &cfg);
        match previous {
            Some(v) => std::env::set_var(usnae_workers::process::WORKER_BIN_ENV, v),
            None => std::env::remove_var(usnae_workers::process::WORKER_BIN_ENV),
        }
        // The build still completes in-process...
        assert_eq!(engine.balls(&[0, 9], 3), par::balls(&g, &[0, 9], 3, 2));
        // ...but finish refuses to pretend the worker build happened.
        match engine.finish() {
            Err(BuildError::Worker(WorkerError::Io(_))) => {}
            other => panic!("expected a worker spawn error, got {other:?}"),
        }
    }
}
