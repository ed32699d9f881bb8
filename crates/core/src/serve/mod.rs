//! Always-on build-and-query daemon over a shared evicting cache.
//!
//! `usnae serve` keeps one long-running process warm so repeated builds
//! and query batches stop paying process start-up, graph re-parse, and
//! cold construction costs. The daemon listens on a local Unix socket
//! and speaks the framed [`proto`] vocabulary (the same
//! magic/version/checksum framing discipline as the worker transport,
//! under its own `USNAESRV` magic):
//!
//! ```text
//!            clients (usnae run/query --connect, tests, bench)
//!                 │ framed requests over a Unix socket
//!                 ▼
//!  ┌─────────────────────────────── Server ───────────────────────────┐
//!  │ accept loop → one handler thread per connection                  │
//!  │                                                                  │
//!  │  Build/Query ──► key: graph memo (one stat; re-read on a new     │
//!  │      │                identity) ─► fingerprint ─► CacheKey       │
//!  │      ├─► warm? EvictingCache.lookup: one stat against the entry  │
//!  │      │         identity a full mapped open verified ─hit─► reply │
//!  │      └─miss─► bounded job queue ──► build worker pool            │
//!  │               (cap → typed Busy)    └─► build_cached ─► publish  │
//!  │                                          (atomic tempfile+rename)│
//!  │  Query answers: one shared QueryEngine per mapped snapshot,      │
//!  │                  reused across connections (engine_reuses stat)  │
//!  │  Stats: queue depth, cache counters, bytes resident, job records │
//!  └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Three design rules:
//!
//! * **Warm hits never queue, and cost O(1) in the graph.** A job whose
//!   snapshot is resident is answered directly from the connection
//!   thread: two `stat`s (graph file and entry file) against identities
//!   recorded when each file was last read in full (`EvictingCache`'s
//!   warm lookup for the entry). A file whose identity is new, changed
//!   or racy is read again — the graph re-read (parsed and fingerprinted
//!   when its bytes changed), the entry fully opened (checksum plus
//!   structure) — before it answers warm. Admission control only gates
//!   *construction* work.
//! * **Admission is typed.** The build queue is bounded
//!   ([`ServeConfig::queue_cap`]); a full queue answers
//!   [`ServeResponse::Busy`], never blocks the socket.
//! * **The daemon is algorithm-agnostic.** Constructions are looked up
//!   through an injected [`Resolver`], so the binary that embeds the
//!   daemon decides the catalogue (the CLI injects the full 9-algorithm
//!   registry; [`paper_resolver`] covers the in-crate constructions).
//!
//! Determinism carries through: a daemon-built snapshot is the same
//! bytes as a CLI-built one (same [`CacheKey`](crate::cache::CacheKey),
//! same codec), so stream
//! fingerprints reported by [`BuiltMeta`] are byte-identity proofs
//! against any local build. Operator guidance (budget sizing, reading
//! `stats`) lives in `docs/SERVING.md`; the wire grammar in
//! `docs/PROTOCOL.md`.

pub mod proto;

pub use proto::{
    BuiltMeta, ErrorCode, JobCache, JobRecord, JobSpec, ServeError, ServeRequest, ServeResponse,
    ServiceStats, MAGIC, VERSION,
};

use std::sync::Arc;

use crate::api::{Algorithm, Construction};

/// How an embedding binary tells the daemon which constructions exist:
/// registry-name → construction, or `None` for an unknown name.
pub type Resolver = Arc<dyn Fn(&str) -> Option<Box<dyn Construction>> + Send + Sync>;

/// The in-crate resolver: exactly the paper's constructions
/// ([`Algorithm`] names). The CLI injects the full baseline registry
/// instead; this is the default for embedders that only need the
/// paper's algorithms.
pub fn paper_resolver() -> Resolver {
    Arc::new(|name| Algorithm::parse(name).map(|a| a.construction()))
}

#[cfg(unix)]
pub use daemon::{Client, QueryAnswers, ServeConfig, Server};

#[cfg(unix)]
mod daemon {
    use std::collections::{HashMap, VecDeque};
    use std::io::{BufReader, Read};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Instant;

    use usnae_graph::metrics::Fnv64;
    use usnae_graph::{io as gio, Graph};

    use super::proto::{
        read_request, read_response, write_request, write_response, BuiltMeta, ErrorCode, JobCache,
        JobRecord, JobSpec, ServeError, ServeRequest, ServeResponse, ServiceStats, VERSION,
    };
    use super::Resolver;
    use crate::api::{BuildConfig, Construction, MappedBackend};
    use crate::cache::{CacheKey, EntryMeta, EvictingCache, FileId};
    use crate::exec::CacheStatus;
    use crate::oracle::QueryEngine;

    /// Daemon tuning knobs.
    #[derive(Debug, Clone)]
    pub struct ServeConfig {
        /// Unix socket path the daemon listens on (created at bind,
        /// unlinked at exit; a stale file from a dead daemon is
        /// replaced).
        pub socket: PathBuf,
        /// Directory of the shared snapshot cache.
        pub cache_dir: PathBuf,
        /// Cache byte budget (`None` = unbounded; see
        /// [`EvictingCache`]).
        pub budget: Option<u64>,
        /// Build worker threads draining the job queue.
        pub workers: usize,
        /// Bounded job-queue capacity; a cold build arriving when
        /// `queue_cap` jobs are already waiting is refused with a typed
        /// `Busy`. Warm hits bypass the queue and are never refused.
        pub queue_cap: usize,
        /// How many completed jobs the `stats` response remembers.
        pub recent_cap: usize,
    }

    impl ServeConfig {
        /// A config with the default pool shape (2 workers, queue cap 8,
        /// 16 remembered jobs, unbounded cache).
        pub fn new(socket: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> Self {
            ServeConfig {
                socket: socket.into(),
                cache_dir: cache_dir.into(),
                budget: None,
                workers: 2,
                queue_cap: 8,
                recent_cap: 16,
            }
        }
    }

    type JobResult = Result<(BuiltMeta, Vec<(u64, u64, u64)>), (ErrorCode, String)>;

    /// A validated job's (memoized) graph and the cache key it hashes
    /// to.
    type PreparedJob = (Arc<Graph>, CacheKey);

    /// A parsed graph file.
    #[derive(Clone)]
    struct GraphMemo {
        /// The identity that vouches for the file's bytes; `None` when it
        /// cannot (racy, or changed while read), so the next request
        /// reads the bytes again.
        id: Option<FileId>,
        /// FNV-64 digest of the bytes the graph was parsed from.
        digest: u64,
        graph: Arc<Graph>,
        fingerprint: u64,
    }

    /// A reader that digests every byte it passes through.
    struct Digesting<R> {
        inner: R,
        hash: Fnv64,
    }

    impl<R: Read> Read for Digesting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.hash.write_bytes(&buf[..n]);
            Ok(n)
        }
    }

    /// What `ensure_built` hands the request handler: the job's cache
    /// key, the built metadata and streamed phase triples, or the typed
    /// response (`Busy` / `Error`) to send in place of an answer.
    type BuildOutcome = Result<(CacheKey, BuiltMeta, Vec<(u64, u64, u64)>), ServeResponse>;

    /// Completion slot a connection thread waits on after enqueueing.
    struct Ticket {
        slot: Mutex<Option<JobResult>>,
        done: Condvar,
    }

    impl Ticket {
        fn new() -> Arc<Ticket> {
            Arc::new(Ticket {
                slot: Mutex::new(None),
                done: Condvar::new(),
            })
        }

        fn fill(&self, result: JobResult) {
            *self.slot.lock().expect("ticket lock") = Some(result);
            self.done.notify_all();
        }

        fn wait(&self) -> JobResult {
            let mut slot = self.slot.lock().expect("ticket lock");
            loop {
                if let Some(result) = slot.take() {
                    return result;
                }
                slot = self.done.wait(slot).expect("ticket lock");
            }
        }
    }

    /// A cold job on its way to a build worker, prepared once by the
    /// connection thread that admitted it.
    struct QueuedJob {
        spec: JobSpec,
        prepared: PreparedJob,
        ticket: Arc<Ticket>,
    }

    /// State shared by the accept loop, connection threads, and workers.
    struct Shared {
        cfg: ServeConfig,
        resolver: Resolver,
        cache: EvictingCache,
        queue: Mutex<VecDeque<QueuedJob>>,
        work_ready: Condvar,
        /// Graph path → its memo.
        graphs: Mutex<HashMap<String, GraphMemo>>,
        /// Daemon-wide query engines, one per `(snapshot, landmarks)`
        /// pair: every connection querying the same built snapshot locks
        /// the same engine instead of mapping a duplicate per
        /// connection. `QueryEngine` is `Send` but not `Sync`, so each
        /// shared engine sits behind its own `Mutex`.
        #[allow(clippy::type_complexity)]
        engines: Mutex<HashMap<(String, u64), Arc<Mutex<QueryEngine>>>>,
        engine_reuses: AtomicU64,
        jobs_done: AtomicU64,
        jobs_rejected: AtomicU64,
        recent: Mutex<VecDeque<JobRecord>>,
        stop: AtomicBool,
    }

    impl Shared {
        /// Loads (or reuses) the graph behind a job's graph reference,
        /// with its fingerprint. One `stat` per request: the memo answers
        /// while the file keeps the identity it was read under. A
        /// rewritten, replaced or racy file is read again; bytes with the
        /// memo's digest keep its graph (git's check of a racily clean
        /// file compares content the same way), other bytes are parsed
        /// and fingerprinted. A deleted file is `GraphUnavailable`.
        fn graph(&self, path: &str) -> Result<(Arc<Graph>, u64), (ErrorCode, String)> {
            let unavailable = |what: &str, e: &dyn std::fmt::Display| {
                (
                    ErrorCode::GraphUnavailable,
                    format!("cannot {what} graph '{path}': {e}"),
                )
            };
            let file = Path::new(path);
            let id = FileId::of(file).ok();
            let memo = self
                .graphs
                .lock()
                .expect("graph memo lock")
                .get(path)
                .cloned();
            if let Some(m) = memo.as_ref().filter(|m| m.id.is_some() && m.id == id) {
                return Ok((Arc::clone(&m.graph), m.fingerprint));
            }
            let open = || -> Result<_, (ErrorCode, String)> {
                let f = std::fs::File::open(file).map_err(|e| unavailable("open", &e))?;
                Ok(Digesting {
                    inner: f,
                    hash: Fnv64::new(),
                })
            };
            let (read, id) = FileId::read_through(file, || {
                if let Some(m) = memo {
                    let mut bytes = open()?;
                    std::io::copy(&mut bytes, &mut std::io::sink())
                        .map_err(|e| unavailable("read", &e))?;
                    if bytes.hash.finish() == m.digest {
                        return Ok(m);
                    }
                }
                let mut bytes = BufReader::new(open()?);
                let g = gio::read_edge_list(&mut bytes, 0).map_err(|e| unavailable("parse", &e))?;
                Ok(GraphMemo {
                    id: None,
                    digest: bytes.into_inner().hash.finish(),
                    fingerprint: usnae_graph::metrics::fingerprint(&g),
                    graph: Arc::new(g),
                })
            });
            let mut memos = self.graphs.lock().expect("graph memo lock");
            match read {
                Ok(m) => {
                    let found = (Arc::clone(&m.graph), m.fingerprint);
                    memos.insert(path.to_string(), GraphMemo { id, ..m });
                    Ok(found)
                }
                Err(e) => {
                    memos.remove(path);
                    Err(e)
                }
            }
        }

        /// Validates a job's config and resolves its construction.
        fn resolve(
            &self,
            spec: &JobSpec,
        ) -> Result<(Box<dyn Construction>, BuildConfig), (ErrorCode, String)> {
            let cfg = spec.to_config();
            cfg.validate()
                .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;
            let construction = (self.resolver)(&spec.algorithm).ok_or_else(|| {
                (
                    ErrorCode::BadRequest,
                    format!("unknown algorithm '{}'", spec.algorithm),
                )
            })?;
            Ok((construction, cfg))
        }

        /// Validates a job and computes its cache key.
        fn prepare(&self, spec: &JobSpec) -> Result<PreparedJob, (ErrorCode, String)> {
            let (construction, cfg) = self.resolve(spec)?;
            let (g, fingerprint) = self.graph(&spec.graph)?;
            let key = CacheKey::from_fingerprint(fingerprint, construction.name(), &cfg);
            Ok((g, key))
        }

        /// Records a completed job for the `stats` window.
        fn record(&self, record: JobRecord) {
            self.jobs_done.fetch_add(1, Ordering::Relaxed);
            let mut recent = self.recent.lock().expect("recent lock");
            while recent.len() >= self.cfg.recent_cap.max(1) {
                recent.pop_front();
            }
            recent.push_back(record);
        }

        fn warm_meta(key: &CacheKey, entry: EntryMeta, t0: Instant) -> BuiltMeta {
            BuiltMeta {
                algorithm: key.algorithm.clone(),
                stream_fingerprint: entry.stream_fingerprint,
                num_vertices: entry.num_vertices as u64,
                num_edges: entry.num_edges as u64,
                cache: JobCache::Warm,
                total_micros: t0.elapsed().as_micros() as u64,
            }
        }

        /// The worker-side body of a job the connection thread prepared:
        /// re-checks warmth (another worker may have published the
        /// snapshot while this job queued), then builds read-through and
        /// publishes.
        fn run_job(&self, spec: &JobSpec, (g, key): PreparedJob) -> JobResult {
            let t0 = Instant::now();
            if let Ok(Some(entry)) = self.cache.lookup(&key) {
                return Ok((Self::warm_meta(&key, entry, t0), Vec::new()));
            }
            // `Box<dyn Construction>` is not `Send`: resolve it here.
            let (construction, cfg) = self.resolve(spec)?;
            let out = self
                .cache
                .build_cached(construction.as_ref(), g.as_ref(), &cfg)
                .map_err(|e| (ErrorCode::BuildFailed, e.to_string()))?;
            let cache = if out.stats.cache == CacheStatus::Hit {
                JobCache::Warm
            } else {
                JobCache::Cold
            };
            let meta = BuiltMeta {
                algorithm: spec.algorithm.clone(),
                stream_fingerprint: out.stream_fingerprint(),
                num_vertices: out.emulator.num_vertices() as u64,
                num_edges: out.num_edges() as u64,
                cache,
                total_micros: t0.elapsed().as_micros() as u64,
            };
            Ok((meta, JobRecord::wire_phases(&out.stats.phases)))
        }

        /// Admission control: queue the job or refuse with `Busy`.
        #[allow(clippy::result_large_err)] // refusal path, written at most once per job
        fn enqueue(
            &self,
            spec: JobSpec,
            prepared: PreparedJob,
        ) -> Result<Arc<Ticket>, ServeResponse> {
            let mut queue = self.queue.lock().expect("job queue lock");
            if queue.len() >= self.cfg.queue_cap {
                drop(queue);
                self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeResponse::Busy {
                    queue_cap: self.cfg.queue_cap as u64,
                });
            }
            let ticket = Ticket::new();
            queue.push_back(QueuedJob {
                spec,
                prepared,
                ticket: Arc::clone(&ticket),
            });
            self.work_ready.notify_one();
            Ok(ticket)
        }

        /// The full build path shared by `Build` and `Query`: warm fast
        /// path on the connection thread, else queue + wait. `accepted`
        /// is called with the queue depth right after admission (the
        /// `Build` handler streams it; `Query` ignores it). The job is
        /// prepared once; `Query` answers from the returned key's engine.
        fn ensure_built(
            &self,
            spec: &JobSpec,
            mut accepted: impl FnMut(u64) -> Result<(), ServeError>,
        ) -> Result<BuildOutcome, ServeError> {
            let t0 = Instant::now();
            let prepared = match self.prepare(spec) {
                Ok(p) => p,
                Err((code, message)) => {
                    return Ok(Err(ServeResponse::Error { code, message }));
                }
            };
            let key = prepared.1.clone();
            if let Ok(Some(entry)) = self.cache.lookup(&key) {
                let meta = Self::warm_meta(&key, entry, t0);
                self.record(JobRecord {
                    algorithm: meta.algorithm.clone(),
                    stream_fingerprint: meta.stream_fingerprint,
                    cache: JobCache::Warm,
                    total_micros: meta.total_micros,
                    phases: Vec::new(),
                });
                return Ok(Ok((key, meta, Vec::new())));
            }
            let ticket = match self.enqueue(spec.clone(), prepared) {
                Ok(t) => t,
                Err(busy) => return Ok(Err(busy)),
            };
            accepted(self.queue.lock().expect("job queue lock").len() as u64)?;
            match ticket.wait() {
                Ok((meta, phases)) => {
                    self.record(JobRecord {
                        algorithm: meta.algorithm.clone(),
                        stream_fingerprint: meta.stream_fingerprint,
                        cache: meta.cache,
                        total_micros: meta.total_micros,
                        phases: phases.clone(),
                    });
                    Ok(Ok((key, meta, phases)))
                }
                Err((code, message)) => Ok(Err(ServeResponse::Error { code, message })),
            }
        }

        /// Opens (or reuses) the shared query engine over one built
        /// snapshot at a landmark count. The slow part — mapping the
        /// snapshot and building the engine's indexes — runs outside the
        /// map lock so other connections' lookups never stall behind it;
        /// a racing open keeps the first inserted engine and counts the
        /// loser as a reuse (snapshots are byte-identical by the
        /// determinism contract, so the two engines are interchangeable).
        fn engine(
            &self,
            key: &CacheKey,
            landmarks: u64,
        ) -> Result<Arc<Mutex<QueryEngine>>, (ErrorCode, String)> {
            let engine_key = (key.file_name(), landmarks);
            if let Some(engine) = self
                .engines
                .lock()
                .expect("engine map lock")
                .get(&engine_key)
            {
                self.engine_reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(engine));
            }
            let backend = MappedBackend::open(self.cache.entry_path(key)).map_err(|e| {
                (
                    ErrorCode::Internal,
                    format!("cannot map built snapshot: {e}"),
                )
            })?;
            let engine = QueryEngine::open(&backend)
                .map_err(|e| {
                    (
                        ErrorCode::Internal,
                        format!("cannot open query engine: {e}"),
                    )
                })?
                .with_landmarks(landmarks as usize);
            let engine = Arc::new(Mutex::new(engine));
            let mut map = self.engines.lock().expect("engine map lock");
            if let Some(existing) = map.get(&engine_key) {
                self.engine_reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(existing));
            }
            map.insert(engine_key, Arc::clone(&engine));
            Ok(engine)
        }

        fn stats(&self) -> ServiceStats {
            let usage = self.cache.usage();
            ServiceStats {
                queue_depth: self.queue.lock().expect("job queue lock").len() as u64,
                queue_cap: self.cfg.queue_cap as u64,
                workers: self.cfg.workers as u64,
                jobs_done: self.jobs_done.load(Ordering::Relaxed),
                jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
                cache_hits: usage.hits,
                cache_misses: usage.misses,
                cache_stores: usage.stores,
                cache_evictions: usage.evictions,
                cache_entries: usage.entries as u64,
                bytes_resident: usage.bytes_resident,
                budget: usage.budget.unwrap_or(0),
                engines_open: self.engines.lock().expect("engine map lock").len() as u64,
                engine_reuses: self.engine_reuses.load(Ordering::Relaxed),
                recent: self
                    .recent
                    .lock()
                    .expect("recent lock")
                    .iter()
                    .cloned()
                    .collect(),
            }
        }
    }

    /// Build worker: drains the queue until told to stop (finishing any
    /// jobs admitted before the stop — their clients are waiting).
    fn worker_loop(shared: &Shared) {
        loop {
            let job = {
                let mut queue = shared.queue.lock().expect("job queue lock");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if shared.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = shared.work_ready.wait(queue).expect("job queue lock");
                }
            };
            let Some(job) = job else { return };
            job.ticket.fill(shared.run_job(&job.spec, job.prepared));
        }
    }

    /// One connection: handshake, then a request/response loop. Query
    /// engines are daemon-wide ([`Shared::engine`]): a connection locks
    /// the shared engine for its batch instead of mapping its own copy,
    /// so N concurrent clients querying one snapshot cost one engine,
    /// not N.
    fn handle_conn(shared: &Shared, stream: UnixStream) -> Result<(), ServeError> {
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;

        match read_request(&mut reader)? {
            Some(ServeRequest::Hello { .. }) => {
                // Frame-level version checking already rejected skew.
                write_response(&mut writer, &ServeResponse::HelloOk { version: VERSION })?;
            }
            Some(_) => {
                write_response(
                    &mut writer,
                    &ServeResponse::Error {
                        code: ErrorCode::BadRequest,
                        message: "expected Hello as the first request".into(),
                    },
                )?;
                return Ok(());
            }
            None => return Ok(()),
        }

        while let Some(req) = read_request(&mut reader)? {
            match req {
                ServeRequest::Hello { .. } => {
                    write_response(&mut writer, &ServeResponse::HelloOk { version: VERSION })?;
                }
                ServeRequest::Build { job } => {
                    let outcome = shared.ensure_built(&job, |depth| {
                        write_response(&mut writer, &ServeResponse::Accepted { queue_depth: depth })
                    })?;
                    match outcome {
                        Ok((_, meta, phases)) => {
                            if meta.cache == JobCache::Cold {
                                for &(phase, micros, explorations) in &phases {
                                    write_response(
                                        &mut writer,
                                        &ServeResponse::Phase {
                                            phase,
                                            micros,
                                            explorations,
                                        },
                                    )?;
                                }
                            }
                            write_response(&mut writer, &ServeResponse::Built(meta))?;
                        }
                        Err(resp) => write_response(&mut writer, &resp)?,
                    }
                }
                ServeRequest::Query {
                    job,
                    pairs,
                    landmarks,
                } => {
                    let outcome = shared.ensure_built(&job, |_| Ok(()))?;
                    let (key, meta, _) = match outcome {
                        Ok(done) => done,
                        Err(resp) => {
                            write_response(&mut writer, &resp)?;
                            continue;
                        }
                    };
                    if let Some(&(u, v)) = pairs
                        .iter()
                        .find(|(u, v)| *u >= meta.num_vertices || *v >= meta.num_vertices)
                    {
                        write_response(
                            &mut writer,
                            &ServeResponse::Error {
                                code: ErrorCode::QueryOutOfRange,
                                message: format!(
                                    "pair ({u}, {v}) is outside the {}-vertex graph",
                                    meta.num_vertices
                                ),
                            },
                        )?;
                        continue;
                    }
                    let engine = match shared.engine(&key, landmarks) {
                        Ok(e) => e,
                        Err((code, message)) => {
                            write_response(&mut writer, &ServeResponse::Error { code, message })?;
                            continue;
                        }
                    };
                    let engine = engine.lock().expect("shared query engine lock");
                    let native: Vec<(usize, usize)> = pairs
                        .iter()
                        .map(|&(u, v)| (u as usize, v as usize))
                        .collect();
                    let (alpha, beta, distances) = if landmarks > 0 {
                        let (alpha, beta) = engine.landmark_guarantee();
                        let answers: Vec<u64> = native
                            .iter()
                            .map(|&(u, v)| engine.approx_distance(u, v).value.unwrap_or(u64::MAX))
                            .collect();
                        (alpha, beta, answers)
                    } else {
                        let (alpha, beta) = engine.guarantee();
                        let answers: Vec<u64> = engine
                            .distances(&native)
                            .into_iter()
                            .map(|c| c.value.unwrap_or(u64::MAX))
                            .collect();
                        (alpha, beta, answers)
                    };
                    write_response(
                        &mut writer,
                        &ServeResponse::Answers {
                            alpha,
                            beta,
                            cache: meta.cache,
                            distances,
                        },
                    )?;
                }
                ServeRequest::Stats => {
                    write_response(&mut writer, &ServeResponse::Stats(shared.stats()))?;
                }
                ServeRequest::Shutdown => {
                    write_response(&mut writer, &ServeResponse::Stopping)?;
                    shared.stop.store(true, Ordering::SeqCst);
                    shared.work_ready.notify_all();
                    // Unblock the accept loop so it observes the flag.
                    let _ = UnixStream::connect(&shared.cfg.socket);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// The daemon: a bound socket plus the shared cache/queue state.
    pub struct Server {
        listener: UnixListener,
        shared: Arc<Shared>,
    }

    impl Server {
        /// Binds the socket (replacing a stale file), opens the shared
        /// evicting cache, and prepares the worker pool.
        ///
        /// # Errors
        ///
        /// [`ServeError::Io`] when the socket cannot be bound, or a
        /// cache-directory failure.
        pub fn bind(cfg: ServeConfig, resolver: Resolver) -> Result<Server, ServeError> {
            if cfg.socket.exists() {
                std::fs::remove_file(&cfg.socket)?;
            }
            if let Some(parent) = cfg.socket.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let cache = EvictingCache::open(&cfg.cache_dir, cfg.budget).map_err(|e| {
                ServeError::Corrupt {
                    reason: format!("cannot open cache directory: {e}"),
                }
            })?;
            let listener = UnixListener::bind(&cfg.socket)?;
            Ok(Server {
                listener,
                shared: Arc::new(Shared {
                    cfg,
                    resolver,
                    cache,
                    queue: Mutex::new(VecDeque::new()),
                    work_ready: Condvar::new(),
                    graphs: Mutex::new(HashMap::new()),
                    engines: Mutex::new(HashMap::new()),
                    engine_reuses: AtomicU64::new(0),
                    jobs_done: AtomicU64::new(0),
                    jobs_rejected: AtomicU64::new(0),
                    recent: Mutex::new(VecDeque::new()),
                    stop: AtomicBool::new(false),
                }),
            })
        }

        /// The socket path this daemon listens on.
        pub fn socket(&self) -> &Path {
            &self.shared.cfg.socket
        }

        /// Runs the accept loop until a client sends `Shutdown`. Spawns
        /// the build worker pool, handles each connection on its own
        /// thread, drains admitted jobs before returning, and unlinks
        /// the socket file.
        ///
        /// # Errors
        ///
        /// [`ServeError::Io`] from the accept loop itself; per-connection
        /// errors are contained to their connection thread, which writes
        /// one stderr line naming the connection's sequence number.
        pub fn run(self) -> Result<(), ServeError> {
            let workers: Vec<_> = (0..self.shared.cfg.workers.max(1))
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("usnae-serve-worker-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn serve worker")
                })
                .collect();
            for (conn, stream) in (1u64..).zip(self.listener.incoming()) {
                if self.shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = stream?;
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name("usnae-serve-conn".into())
                    .spawn(move || {
                        // A failed connection (a client that hung up
                        // mid-frame, a malformed frame) is logged and
                        // contained: it must not take the daemon down.
                        if let Err(e) = handle_conn(&shared, stream) {
                            eprintln!("usnae serve: connection {conn}: {e}");
                        }
                    })
                    .expect("spawn serve connection");
            }
            self.shared.work_ready.notify_all();
            for worker in workers {
                let _ = worker.join();
            }
            let _ = std::fs::remove_file(&self.shared.cfg.socket);
            Ok(())
        }
    }

    /// One answered query batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryAnswers {
        /// Certified multiplicative stretch of every answer.
        pub alpha: f64,
        /// Certified additive stretch of every answer.
        pub beta: f64,
        /// Whether the serving structure was a warm hit.
        pub cache: JobCache,
        /// One distance per requested pair; `None` = unreachable.
        pub distances: Vec<Option<u64>>,
    }

    /// A connected serve client (the thin side of `--connect`).
    pub struct Client {
        reader: BufReader<UnixStream>,
        writer: UnixStream,
    }

    impl Client {
        /// Connects and completes the `Hello`/`HelloOk` version
        /// handshake.
        ///
        /// # Errors
        ///
        /// [`ServeError::Io`] when the socket is unreachable;
        /// [`ServeError::UnsupportedVersion`] on protocol skew.
        pub fn connect(socket: impl AsRef<Path>) -> Result<Client, ServeError> {
            let stream = UnixStream::connect(socket.as_ref())?;
            let mut client = Client {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
            };
            write_request(
                &mut client.writer,
                &ServeRequest::Hello { version: VERSION },
            )?;
            match read_response(&mut client.reader)? {
                ServeResponse::HelloOk { .. } => Ok(client),
                other => Err(ServeError::Protocol {
                    reason: format!("expected HelloOk, got {other:?}"),
                }),
            }
        }

        /// Submits a build job; `on_phase(phase, micros, explorations)`
        /// observes each streamed phase frame of a cold build.
        ///
        /// # Errors
        ///
        /// [`ServeError::Busy`] when admission was refused,
        /// [`ServeError::Rejected`] for a typed daemon failure, plus any
        /// transport error.
        pub fn build(
            &mut self,
            job: &JobSpec,
            mut on_phase: impl FnMut(u64, u64, u64),
        ) -> Result<BuiltMeta, ServeError> {
            write_request(&mut self.writer, &ServeRequest::Build { job: job.clone() })?;
            loop {
                match read_response(&mut self.reader)? {
                    ServeResponse::Accepted { .. } => {}
                    ServeResponse::Phase {
                        phase,
                        micros,
                        explorations,
                    } => on_phase(phase, micros, explorations),
                    ServeResponse::Built(meta) => return Ok(meta),
                    ServeResponse::Busy { queue_cap } => {
                        return Err(ServeError::Busy {
                            queue_cap: queue_cap as usize,
                        })
                    }
                    ServeResponse::Error { code, message } => {
                        return Err(ServeError::Rejected { code, message })
                    }
                    other => {
                        return Err(ServeError::Protocol {
                            reason: format!("unexpected build response {other:?}"),
                        })
                    }
                }
            }
        }

        /// Answers a batch of distance queries over `job`'s output,
        /// building it read-through first when needed.
        ///
        /// # Errors
        ///
        /// Same taxonomy as [`Client::build`], plus
        /// [`ErrorCode::QueryOutOfRange`] inside
        /// [`ServeError::Rejected`].
        pub fn query(
            &mut self,
            job: &JobSpec,
            pairs: &[(u64, u64)],
            landmarks: u64,
        ) -> Result<QueryAnswers, ServeError> {
            write_request(
                &mut self.writer,
                &ServeRequest::Query {
                    job: job.clone(),
                    pairs: pairs.to_vec(),
                    landmarks,
                },
            )?;
            match read_response(&mut self.reader)? {
                ServeResponse::Answers {
                    alpha,
                    beta,
                    cache,
                    distances,
                } => Ok(QueryAnswers {
                    alpha,
                    beta,
                    cache,
                    distances: distances
                        .into_iter()
                        .map(|d| (d != u64::MAX).then_some(d))
                        .collect(),
                }),
                ServeResponse::Busy { queue_cap } => Err(ServeError::Busy {
                    queue_cap: queue_cap as usize,
                }),
                ServeResponse::Error { code, message } => {
                    Err(ServeError::Rejected { code, message })
                }
                other => Err(ServeError::Protocol {
                    reason: format!("unexpected query response {other:?}"),
                }),
            }
        }

        /// Fetches the daemon's observability counters.
        ///
        /// # Errors
        ///
        /// Transport errors, or [`ServeError::Protocol`] on an
        /// out-of-protocol reply.
        pub fn stats(&mut self) -> Result<ServiceStats, ServeError> {
            write_request(&mut self.writer, &ServeRequest::Stats)?;
            match read_response(&mut self.reader)? {
                ServeResponse::Stats(stats) => Ok(stats),
                other => Err(ServeError::Protocol {
                    reason: format!("unexpected stats response {other:?}"),
                }),
            }
        }

        /// Asks the daemon to stop; returns once it acknowledged.
        ///
        /// # Errors
        ///
        /// Transport errors, or [`ServeError::Protocol`] on an
        /// out-of-protocol reply.
        pub fn shutdown(&mut self) -> Result<(), ServeError> {
            write_request(&mut self.writer, &ServeRequest::Shutdown)?;
            match read_response(&mut self.reader)? {
                ServeResponse::Stopping => Ok(()),
                other => Err(ServeError::Protocol {
                    reason: format!("unexpected shutdown response {other:?}"),
                }),
            }
        }
    }
}
