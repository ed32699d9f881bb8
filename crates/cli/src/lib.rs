//! Library half of the `usnae` command-line tool: argument parsing and the
//! build pipeline, separated from `main` so they are unit-testable.
//!
//! ```text
//! usnae run --algo <name> --input graph.txt [--output emulator.txt]
//!       [--eps 0.5] [--kappa 4] [--rho 0.5] [--seed 0] [--threads 1]
//!       [--shards 0] [--partition range|degree-balanced]
//!       [--transport inproc|channel|process|socket]
//!       [--workers-addr host:port,host:port,...]
//!       [--order by-id|by-id-desc|by-degree-desc|by-degree-asc]
//!       [--raw-eps] [--report] [--cache DIR]
//! usnae query --algo <name> --input graph.txt --pairs pairs.txt
//!       [--landmarks K] [--cache DIR] [--report] [build flags...]
//! usnae query --mapped snapshot.usnae --pairs pairs.txt [--landmarks K]
//! usnae list
//! usnae cache ls|clear|verify DIR
//! usnae build ...            # legacy alias: --mode centralized|fast|spanner
//! ```
//!
//! `run` dispatches through the unified algorithm registry
//! ([`usnae_baselines::registry`]), so every paper construction *and* every
//! baseline is reachable by name; `list` prints the catalogue. The older
//! `build` subcommand with its three-valued `--mode` remains as an alias
//! for the three original algorithms.
//!
//! `--shards N` splits the input graph into `N` per-worker CSR shards
//! (`--partition` picks the range or degree-balanced cut) and the
//! sharding-capable constructions read their explorations from the local
//! shards; the built structure is byte-identical to the unsharded run and
//! `--report` adds a per-shard layout line.
//!
//! `--transport channel|process|socket` (requires `--shards`) moves the
//! sharded explorations to one worker per shard — OS threads with bounded
//! channels, child `usnae-worker` processes speaking a checksummed binary
//! protocol, or the same framed protocol over TCP (loopback children by
//! default; `--workers-addr host:port,...` dials pre-started remote
//! `usnae-worker --listen` processes, one address per shard) — still
//! byte-identical to the in-process run; `--report` then adds a
//! `transport:` line with the measured round/message/byte totals.
//!
//! `--graph-file <csr>` is the out-of-core build path: with `--input`
//! the edge list is first **streamed** into the CSR file (two passes over
//! the text, never materializing the graph), without it the file must
//! already exist; either way the graph is then memory-mapped and the
//! construction runs over it through `build_mapped` — byte-identical to
//! the heap run, with peak memory bounded by the output structure rather
//! than the input graph. The `streamed:` line gives the streaming time;
//! on the heap path `--report` gives the edge list's load time as a
//! `load:` line.
//!
//! `usnae query --mapped <snapshot>` is the zero-copy serving path: the
//! codec-v4 snapshot file is mapped, its section directory is used to
//! serve the stored emulator CSR directly, and certified answers are
//! produced **without building anything and without decoding the record
//! stream** — no `--input`, no `--algo`, no construction run.
//!
//! `--cache DIR` makes the build read-through a fingerprint-keyed
//! construction cache (see `usnae_core::cache`): a warm, verified entry is
//! loaded instead of rebuilt, and the run line reports `cache: hit`.
//! `usnae cache ls` lists a cache directory, `clear` empties it, and
//! `verify` recomputes every stored stream fingerprint — the same
//! integrity check CI runs.
//!
//! `query` is the serving verb: it obtains the structure (through the
//! same cache — a warm hit answers **without rebuilding**, visible as
//! `cache: hit`), wraps it in a `QueryEngine`
//! (`usnae_core::oracle`), and answers a file of `u v` pairs in one
//! batch, one `u v distance` line per pair, each certified by the
//! construction's `(α, β)`. `--landmarks K` routes answers through a
//! precomputed K-landmark index instead (certified at `(α, β + 2R)`);
//! `--report` appends the guarantee and the engine's tree/cache
//! counters.
//!
//! Input is a whitespace edge list (`u v` per line, `#` comments); output is
//! a weighted edge list (`u v w`) — the emulator `H` — plus an optional
//! stretch/size report.

use std::fmt;
use std::io::BufReader;
use std::time::Instant;

use usnae_baselines::registry;
use usnae_core::api::{
    BuildConfig, BuildOutput, CacheStatus, MappedBackend, OutputBackend, PartitionPolicy,
    ProcessingOrder, QueryEngine, TransportKind,
};
use usnae_core::cache::{build_cached, CacheConfig, CacheKey, ConstructionCache};
use usnae_core::serve::JobSpec;
use usnae_graph::io::StreamOptions;
use usnae_graph::{io as gio, Graph, MappedGraph};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Registry name of the construction to run.
    pub algo: String,
    /// Input edge-list path.
    pub input: String,
    /// Out-of-core path (`--graph-file <csr>`): build over a mapped CSR
    /// graph file instead of a heap graph. With `--input` the edge list
    /// is first streamed into this file (two passes, bounded memory);
    /// without it the file must already exist.
    pub graph_file: Option<String>,
    /// Output weighted-edge-list path.
    pub output: Option<String>,
    /// The unified construction configuration.
    pub config: BuildConfig,
    /// Print the size/stretch report.
    pub report: bool,
    /// Construction-cache directory (`--cache DIR`), if any.
    pub cache_dir: Option<String>,
    /// Thin-client mode (`--connect SOCKET`): ship the job to a running
    /// `usnae serve` daemon instead of building locally. The daemon
    /// resolves `--input` on *its* filesystem and serves warm hits from
    /// its shared cache.
    pub connect: Option<String>,
    /// Pre-started remote workers for `--transport socket`
    /// (`--workers-addr host:port,host:port,...`, one address per shard
    /// in shard order). Exported as `USNAE_WORKERS_ADDR` before the
    /// build; without it the socket transport spawns loopback
    /// `usnae-worker --listen` children. Kept off [`BuildConfig`] so the
    /// cache digest is deployment-independent.
    pub workers_addr: Option<String>,
}

/// Parsed `usnae query` command line: the build half (reused verbatim —
/// same flags, same cache) plus the serving knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// How to obtain the structure to serve (algorithm, input, cache...).
    pub build: Options,
    /// Path of the query-pairs file (`u v` per line, `#` comments).
    pub pairs: String,
    /// Landmarks to precompute (0 = answer along exact emulator paths).
    pub landmarks: usize,
    /// Serve a stored codec-v4 snapshot file zero-copy (`--mapped
    /// <snapshot>`): no graph is read and no construction runs — the
    /// engine answers straight from the mapped emulator CSR section.
    pub mapped: Option<String>,
}

/// Maintenance actions on a cache directory (`usnae cache <action> DIR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// List every entry with its key and fingerprint.
    Ls,
    /// Delete every entry.
    Clear,
    /// Recompute every stored fingerprint; report stale/corrupt entries.
    Verify,
}

impl CacheAction {
    fn parse(s: &str) -> Option<CacheAction> {
        match s {
            "ls" => Some(CacheAction::Ls),
            "clear" => Some(CacheAction::Clear),
            "verify" => Some(CacheAction::Verify),
            _ => None,
        }
    }
}

/// Parsed `usnae serve` command line.
///
/// Three mutually exclusive modes share the verb: run the daemon
/// (`--cache` required), print a running daemon's counters (`--stats`),
/// or stop it (`--stop`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Unix socket path the daemon listens on / the client dials.
    pub socket: String,
    /// Shared snapshot-cache directory (daemon mode).
    pub cache_dir: Option<String>,
    /// Cache byte budget (`--budget BYTES`; absent = unbounded).
    pub budget: Option<u64>,
    /// Build worker threads (`--workers N`).
    pub workers: usize,
    /// Bounded job-queue capacity (`--queue-cap N`); a cold build
    /// arriving on a full queue is refused with a typed busy error.
    pub queue_cap: usize,
    /// Client mode: print the daemon's `stats` report and exit.
    pub stats: bool,
    /// Client mode: ask the daemon to shut down and exit.
    pub stop: bool,
}

/// The commands the binary understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Build one structure (the `run` and legacy `build` subcommands).
    Run(Options),
    /// Answer distance queries over a built structure.
    Query(QueryOptions),
    /// Print the algorithm catalogue.
    List,
    /// Maintain a construction-cache directory.
    Cache(CacheAction, String),
    /// Run (or talk to) the always-on build-and-query daemon.
    Serve(ServeOptions),
}

/// A user-facing CLI error with a message and the usage string.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The usage banner.
pub const USAGE: &str = "usage: usnae run --algo <name> --input <edge-list> [--output <path>] \
[--graph-file <csr-file>] \
[--eps <0..1>] [--kappa <k>=4] [--rho <r>=0.5] [--seed <s>=0] [--threads <t>=1] \
[--shards <k>=0] [--partition range|degree-balanced] [--transport inproc|channel|process|socket] \
[--workers-addr <host:port,...>] \
[--order by-id|by-id-desc|by-degree-desc|by-degree-asc] [--raw-eps] [--report] [--cache <dir>]\n\
       usnae query --algo <name> --input <edge-list> --pairs <pairs-file> \
[--landmarks <k>=0] [--cache <dir>] [--report] [build flags]\n\
       usnae query --mapped <snapshot> --pairs <pairs-file> [--landmarks <k>=0] [--report]\n\
       usnae run|query ... --connect <socket>   # ship the job to a running daemon\n\
       usnae serve --socket <path> --cache <dir> [--budget <bytes>] [--workers <n>=2] \
[--queue-cap <n>=8]\n\
       usnae serve --socket <path> --stats|--stop\n\
       usnae list\n\
       usnae cache ls|clear|verify <dir>\n\
       usnae build --input <edge-list> [--mode centralized|fast|spanner] [...]\n\
run `usnae list` for the algorithm catalogue";

fn parse_order(s: &str) -> Option<ProcessingOrder> {
    match s {
        "by-id" => Some(ProcessingOrder::ById),
        "by-id-desc" => Some(ProcessingOrder::ByIdDesc),
        "by-degree-desc" => Some(ProcessingOrder::ByDegreeDesc),
        "by-degree-asc" => Some(ProcessingOrder::ByDegreeAsc),
        _ => None,
    }
}

/// Parses argv (excluding the program name).
///
/// # Errors
///
/// [`CliError`] with a human-readable message on any malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    #[derive(PartialEq)]
    enum Mode {
        Run,
        LegacyBuild,
        Query,
    }
    let mut it = args.iter();
    let mode = match it.next().map(String::as_str) {
        Some("run") => Mode::Run,
        Some("build") => Mode::LegacyBuild,
        Some("query") => Mode::Query,
        Some("list") => {
            if let Some(extra) = it.next() {
                return Err(CliError(format!(
                    "list takes no arguments (got {extra:?})\n{USAGE}"
                )));
            }
            return Ok(Command::List);
        }
        Some("cache") => {
            let action_name = it.next().cloned().ok_or_else(|| {
                CliError(format!("cache needs an action: ls|clear|verify\n{USAGE}"))
            })?;
            let action = CacheAction::parse(&action_name).ok_or_else(|| {
                CliError(format!("unknown cache action {action_name:?}\n{USAGE}"))
            })?;
            let dir = it.next().cloned().ok_or_else(|| {
                CliError(format!("cache {action_name} needs a directory\n{USAGE}"))
            })?;
            if let Some(extra) = it.next() {
                return Err(CliError(format!(
                    "cache takes one directory (got extra {extra:?})\n{USAGE}"
                )));
            }
            return Ok(Command::Cache(action, dir));
        }
        Some("serve") => {
            let mut sopts = ServeOptions {
                socket: String::new(),
                cache_dir: None,
                budget: None,
                workers: 2,
                queue_cap: 8,
                stats: false,
                stop: false,
            };
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError(format!("{name} needs a value\n{USAGE}")))
                };
                match flag.as_str() {
                    "--socket" => sopts.socket = value("--socket")?,
                    "--cache" => sopts.cache_dir = Some(value("--cache")?),
                    "--budget" => {
                        sopts.budget = Some(
                            value("--budget")?
                                .parse()
                                .map_err(|_| CliError("--budget must be a byte count".into()))?,
                        );
                    }
                    "--workers" => {
                        sopts.workers = value("--workers")?
                            .parse()
                            .map_err(|_| CliError("--workers must be a positive integer".into()))?;
                        if sopts.workers == 0 {
                            return Err(CliError(format!("--workers must be at least 1\n{USAGE}")));
                        }
                    }
                    "--queue-cap" => {
                        sopts.queue_cap = value("--queue-cap")?
                            .parse()
                            .map_err(|_| CliError("--queue-cap must be an integer".into()))?;
                    }
                    "--stats" => sopts.stats = true,
                    "--stop" => sopts.stop = true,
                    other => return Err(CliError(format!("unknown flag {other:?}\n{USAGE}"))),
                }
            }
            if sopts.socket.is_empty() {
                return Err(CliError(format!("serve requires --socket\n{USAGE}")));
            }
            if sopts.stats && sopts.stop {
                return Err(CliError(format!(
                    "--stats and --stop are mutually exclusive\n{USAGE}"
                )));
            }
            if sopts.stats || sopts.stop {
                if sopts.cache_dir.is_some() || sopts.budget.is_some() {
                    return Err(CliError(format!(
                        "--stats/--stop talk to a running daemon; daemon flags don't apply\n{USAGE}"
                    )));
                }
            } else if sopts.cache_dir.is_none() {
                return Err(CliError(format!(
                    "serve (daemon mode) requires --cache <dir>\n{USAGE}"
                )));
            }
            return Ok(Command::Serve(sopts));
        }
        Some(other) => return Err(CliError(format!("unknown subcommand {other:?}\n{USAGE}"))),
        None => return Err(CliError(USAGE.to_string())),
    };
    let mut opts = Options {
        algo: "centralized".to_string(),
        input: String::new(),
        graph_file: None,
        output: None,
        config: BuildConfig::default(),
        report: false,
        cache_dir: None,
        connect: None,
        workers_addr: None,
    };
    let mut pairs = String::new();
    let mut landmarks = 0usize;
    let mut mapped: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value\n{USAGE}")))
        };
        match flag.as_str() {
            "--pairs" if mode == Mode::Query => pairs = value("--pairs")?,
            "--mapped" if mode == Mode::Query => mapped = Some(value("--mapped")?),
            "--graph-file" if mode != Mode::Query => {
                opts.graph_file = Some(value("--graph-file")?);
            }
            "--landmarks" if mode == Mode::Query => {
                landmarks = value("--landmarks")?
                    .parse()
                    .map_err(|_| CliError("--landmarks must be an integer".into()))?;
            }
            "--algo" if mode != Mode::LegacyBuild => {
                let v = value("--algo")?;
                if registry::find(&v).is_none() {
                    return Err(CliError(format!(
                        "unknown algorithm {v:?}; known: {}\n{USAGE}",
                        registry::names().join(", ")
                    )));
                }
                opts.algo = v;
            }
            "--mode" if mode == Mode::LegacyBuild => {
                let v = value("--mode")?;
                opts.algo = match v.as_str() {
                    "centralized" => "centralized".to_string(),
                    "fast" => "fast-centralized".to_string(),
                    "spanner" => "spanner".to_string(),
                    _ => return Err(CliError(format!("unknown mode {v:?}\n{USAGE}"))),
                };
            }
            "--input" => opts.input = value("--input")?,
            "--output" => opts.output = Some(value("--output")?),
            "--eps" => {
                opts.config.epsilon = value("--eps")?
                    .parse()
                    .map_err(|_| CliError("--eps must be a float".into()))?;
            }
            "--kappa" => {
                opts.config.kappa = value("--kappa")?
                    .parse()
                    .map_err(|_| CliError("--kappa must be an integer".into()))?;
            }
            "--rho" => {
                opts.config.rho = value("--rho")?
                    .parse()
                    .map_err(|_| CliError("--rho must be a float".into()))?;
            }
            "--seed" => {
                opts.config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| CliError("--seed must be an integer".into()))?;
            }
            "--threads" => {
                opts.config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| CliError("--threads must be a positive integer".into()))?;
                if opts.config.threads == 0 {
                    return Err(CliError(format!(
                        "--threads must be at least 1 (1 = sequential)\n{USAGE}"
                    )));
                }
            }
            "--shards" => {
                opts.config.shards = value("--shards")?.parse().map_err(|_| {
                    CliError("--shards must be an integer (0 = shared array)".into())
                })?;
            }
            "--partition" => {
                let v = value("--partition")?;
                opts.config.partition = PartitionPolicy::parse(&v)
                    .ok_or_else(|| CliError(format!("unknown partition policy {v:?}\n{USAGE}")))?;
            }
            "--transport" => {
                let v = value("--transport")?;
                opts.config.transport = TransportKind::parse(&v)
                    .ok_or_else(|| CliError(format!("unknown transport {v:?}\n{USAGE}")))?;
            }
            "--workers-addr" => {
                opts.workers_addr = Some(value("--workers-addr")?);
            }
            "--order" => {
                let v = value("--order")?;
                opts.config.order = parse_order(&v)
                    .ok_or_else(|| CliError(format!("unknown order {v:?}\n{USAGE}")))?;
            }
            "--raw-eps" => opts.config.raw_epsilon = true,
            "--report" => opts.report = true,
            "--cache" => opts.cache_dir = Some(value("--cache")?),
            "--connect" if mode != Mode::LegacyBuild => {
                opts.connect = Some(value("--connect")?);
            }
            other => return Err(CliError(format!("unknown flag {other:?}\n{USAGE}"))),
        }
    }
    if opts.input.is_empty() && opts.graph_file.is_none() && mapped.is_none() {
        return Err(CliError(format!("--input is required\n{USAGE}")));
    }
    if opts.workers_addr.is_some() && opts.config.transport != TransportKind::Socket {
        return Err(CliError(format!(
            "--workers-addr names remote socket workers; it requires --transport socket\n{USAGE}"
        )));
    }
    if opts.graph_file.is_some() && opts.cache_dir.is_some() {
        // The cache key fingerprints a heap graph; keying it would
        // materialize exactly what --graph-file avoids.
        return Err(CliError(format!(
            "--graph-file runs out-of-core and cannot use --cache\n{USAGE}"
        )));
    }
    if opts.connect.is_some() {
        // The daemon owns the cache, the graph file resolution, and the
        // execution layout; the thin client only ships the job.
        if opts.input.is_empty() {
            return Err(CliError(format!(
                "--connect ships a job by graph path; --input is required\n{USAGE}"
            )));
        }
        if opts.graph_file.is_some() || opts.cache_dir.is_some() || opts.output.is_some() {
            return Err(CliError(format!(
                "--connect defers building to the daemon; \
                 --graph-file/--cache/--output don't apply\n{USAGE}"
            )));
        }
    }
    if mode == Mode::Query {
        if pairs.is_empty() {
            return Err(CliError(format!("query requires --pairs\n{USAGE}")));
        }
        if opts.output.is_some() {
            return Err(CliError(format!(
                "query answers pairs; --output belongs to run\n{USAGE}"
            )));
        }
        if mapped.is_some() && !opts.input.is_empty() {
            return Err(CliError(format!(
                "--mapped serves a stored snapshot; it takes no --input\n{USAGE}"
            )));
        }
        if mapped.is_some() && opts.cache_dir.is_some() {
            return Err(CliError(format!(
                "--mapped serves one snapshot file; it takes no --cache\n{USAGE}"
            )));
        }
        if mapped.is_some() && opts.connect.is_some() {
            return Err(CliError(format!(
                "--mapped serves a local snapshot; --connect queries a daemon\n{USAGE}"
            )));
        }
        return Ok(Command::Query(QueryOptions {
            build: opts,
            pairs,
            landmarks,
            mapped,
        }));
    }
    Ok(Command::Run(opts))
}

/// Reads a query-pairs file: one `u v` pair per whitespace-separated line,
/// `#` starts a comment, vertex ids must be `< n`.
///
/// # Errors
///
/// [`CliError`] on unreadable files, malformed lines, or out-of-range ids.
pub fn read_pairs(path: &str, n: usize) -> Result<Vec<(usize, usize)>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot open {path}: {e}")))?;
    let mut pairs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let mut id = |name: &str| -> Result<usize, CliError> {
            let tok = tokens
                .next()
                .ok_or_else(|| CliError(format!("{path}:{}: expected `u v`", lineno + 1)))?;
            let v: usize = tok.parse().map_err(|_| {
                CliError(format!(
                    "{path}:{}: {name} {tok:?} is not a vertex id",
                    lineno + 1
                ))
            })?;
            if v >= n {
                return Err(CliError(format!(
                    "{path}:{}: vertex {v} out of range (graph has {n} vertices)",
                    lineno + 1
                )));
            }
            Ok(v)
        };
        let pair = (id("u")?, id("v")?);
        if let Some(extra) = tokens.next() {
            return Err(CliError(format!(
                "{path}:{}: expected `u v`, got extra {extra:?}",
                lineno + 1
            )));
        }
        pairs.push(pair);
    }
    if pairs.is_empty() {
        return Err(CliError(format!("{path}: no query pairs")));
    }
    Ok(pairs)
}

/// The `usnae query` pipeline: obtain the structure (through the
/// construction cache when `--cache` was given — a warm hit never
/// re-runs the construction), answer every pair in one batch, and return
/// the printed lines: a header, the `cache:` line when caching, one
/// `u v distance` line per pair, and (with `--report`) the certified
/// guarantee plus the engine's counters.
///
/// # Errors
///
/// [`CliError`] on any I/O, parse, parameter, or out-of-range failure.
pub fn execute_query(qopts: &QueryOptions) -> Result<Vec<String>, CliError> {
    let opts = &qopts.build;
    if let Some(socket) = &opts.connect {
        return execute_query_connect(qopts, socket);
    }
    let (engine, pairs, header) = if let Some(snap_path) = &qopts.mapped {
        // Zero-copy serving: the engine answers straight from the mapped
        // snapshot's emulator CSR section — no graph read, no build, no
        // heap copy of the structure.
        let backend = MappedBackend::open(snap_path)
            .map_err(|e| CliError(format!("cannot map snapshot {snap_path}: {e}")))?;
        let pairs = read_pairs(&qopts.pairs, backend.num_vertices())?;
        let engine = QueryEngine::open(&backend)
            .map_err(|e| CliError(format!("cannot serve {snap_path}: {e}")))?
            .with_landmarks(qopts.landmarks);
        let header = format!(
            "mapped: {snap_path}; serving {} ({} vertices, {} edges), {} pair(s)",
            engine.algorithm(),
            engine.num_vertices(),
            engine.num_edges(),
            pairs.len()
        );
        (engine, pairs, header)
    } else {
        let file = std::fs::File::open(&opts.input)
            .map_err(|e| CliError(format!("cannot open {}: {e}", opts.input)))?;
        let g = gio::read_edge_list(BufReader::new(file), 0)
            .map_err(|e| CliError(format!("cannot parse {}: {e}", opts.input)))?;
        let pairs = read_pairs(&qopts.pairs, g.num_vertices())?;
        // Warm-hit fast path: when the cached entry is a codec-v4
        // snapshot, serve its emulator CSR section zero-copy instead of
        // decoding the record stream into a heap build. Anything that
        // doesn't map cleanly (legacy v2/v3 entry, cold cache, key
        // drift) falls back to the ordinary cached build.
        let mapped_engine = opts.cache_dir.as_ref().and_then(|dir| {
            let construction = registry::find(&opts.algo)?;
            let key = CacheKey::new(&g, construction.name(), &opts.config);
            let backend = MappedBackend::open(ConstructionCache::new(dir).entry_path(&key)).ok()?;
            if backend.snapshot().key() != &key {
                return None;
            }
            QueryEngine::open(&backend).ok()
        });
        let (engine, cache_status) = match mapped_engine {
            Some(engine) => (engine, CacheStatus::Hit),
            None => {
                let out = run_build(&g, opts)?;
                let status = out.stats.cache;
                (out.into_query_engine(), status)
            }
        };
        let engine = engine.with_landmarks(qopts.landmarks);
        let mut header = format!(
            "input: {} vertices, {} edges; serving {} ({} edges), {} pair(s)",
            g.num_vertices(),
            g.num_edges(),
            engine.algorithm(),
            engine.num_edges(),
            pairs.len()
        );
        if opts.cache_dir.is_some() {
            header.push_str(&format!("\ncache: {cache_status}"));
        }
        (engine, pairs, header)
    };

    let mut lines: Vec<String> = header.lines().map(String::from).collect();
    let answers: Vec<_> = if qopts.landmarks > 0 {
        pairs
            .iter()
            .map(|&(u, v)| engine.approx_distance(u, v))
            .collect()
    } else {
        engine.distances(&pairs)
    };
    for (&(u, v), a) in pairs.iter().zip(&answers) {
        match a.value {
            Some(d) => lines.push(format!("{u} {v} {d}")),
            None => lines.push(format!("{u} {v} unreachable")),
        }
    }
    if opts.report {
        let (alpha, beta) = if qopts.landmarks > 0 {
            engine.landmark_guarantee()
        } else {
            engine.guarantee()
        };
        if beta.is_finite() {
            lines.push(format!(
                "certified stretch: d_hat <= {alpha:.4} * d_G + {beta:.1}"
            ));
        } else {
            lines.push("certified stretch: lower bound only (uncertified construction)".into());
        }
        let stats = engine.stats();
        lines.push(format!(
            "engine: {} quer(y/ies), {} tree build(s), {} cache hit(s), {} eviction(s), {} landmark quer(y/ies)",
            stats.queries, stats.tree_builds, stats.cache_hits, stats.evictions, stats.landmark_queries
        ));
        if let Some(index) = engine.landmark_index() {
            match index.radius() {
                Some(r) => lines.push(format!(
                    "landmarks: {} (covering radius {r})",
                    index.landmarks().len()
                )),
                None => lines.push(format!(
                    "landmarks: {} (some vertex uncovered — no additive bound)",
                    index.landmarks().len()
                )),
            }
        }
    }
    Ok(lines)
}

/// The `run --connect` thin client: ship the job to a running daemon,
/// stream its phase progress, and report the built structure — same
/// `cache:` and `stream fingerprint:` line formats as a local run, so
/// scripts (and CI) grep both paths identically.
#[cfg(unix)]
fn execute_run_connect(opts: &Options, socket: &str) -> Result<Vec<String>, CliError> {
    use usnae_core::serve::Client;
    let job = JobSpec::new(&opts.input, &opts.algo, &opts.config);
    let mut client = Client::connect(socket)
        .map_err(|e| CliError(format!("cannot reach daemon at {socket}: {e}")))?;
    let mut phase_lines = Vec::new();
    let meta = client
        .build(&job, |phase, micros, explorations| {
            phase_lines.push(format!(
                "phase {phase}: {micros} us ({explorations} explorations)"
            ));
        })
        .map_err(|e| CliError(e.to_string()))?;
    let mut lines = vec![format!(
        "daemon: {socket}; built {} ({} vertices): {} edges",
        meta.algorithm, meta.num_vertices, meta.num_edges
    )];
    lines.push(format!("cache: {}", meta.cache));
    if opts.report {
        lines.push(format!(
            "stream fingerprint: {:016x}",
            meta.stream_fingerprint
        ));
        lines.extend(phase_lines);
        lines.push(format!("daemon build: {} us", meta.total_micros));
    }
    Ok(lines)
}

#[cfg(not(unix))]
fn execute_run_connect(_opts: &Options, _socket: &str) -> Result<Vec<String>, CliError> {
    Err(CliError(
        "--connect requires Unix domain sockets (unavailable on this platform)".into(),
    ))
}

/// The `query --connect` thin client: the daemon ensures the structure
/// is built (read-through its shared cache) and answers the batch;
/// pair range checking happens daemon-side against the actual graph.
#[cfg(unix)]
fn execute_query_connect(qopts: &QueryOptions, socket: &str) -> Result<Vec<String>, CliError> {
    use usnae_core::serve::Client;
    let opts = &qopts.build;
    let pairs = read_pairs(&qopts.pairs, usize::MAX)?;
    let wire_pairs: Vec<(u64, u64)> = pairs.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
    let job = JobSpec::new(&opts.input, &opts.algo, &opts.config);
    let mut client = Client::connect(socket)
        .map_err(|e| CliError(format!("cannot reach daemon at {socket}: {e}")))?;
    let answers = client
        .query(&job, &wire_pairs, qopts.landmarks as u64)
        .map_err(|e| CliError(e.to_string()))?;
    let mut lines = vec![format!(
        "daemon: {socket}; serving {}, {} pair(s)",
        opts.algo,
        pairs.len()
    )];
    lines.push(format!("cache: {}", answers.cache));
    for (&(u, v), d) in pairs.iter().zip(&answers.distances) {
        match d {
            Some(d) => lines.push(format!("{u} {v} {d}")),
            None => lines.push(format!("{u} {v} unreachable")),
        }
    }
    if opts.report {
        if answers.beta.is_finite() {
            lines.push(format!(
                "certified stretch: d_hat <= {:.4} * d_G + {:.1}",
                answers.alpha, answers.beta
            ));
        } else {
            lines.push("certified stretch: lower bound only (uncertified construction)".into());
        }
    }
    Ok(lines)
}

#[cfg(not(unix))]
fn execute_query_connect(_qopts: &QueryOptions, _socket: &str) -> Result<Vec<String>, CliError> {
    Err(CliError(
        "--connect requires Unix domain sockets (unavailable on this platform)".into(),
    ))
}

/// The `usnae serve` pipeline: run the daemon (blocking until a client
/// sends `--stop`), or talk to a running one (`--stats` / `--stop`).
/// Returns the lines printed after the verb completes.
///
/// # Errors
///
/// [`CliError`] on bind/connect failures or daemon-reported errors.
#[cfg(unix)]
pub fn execute_serve(sopts: &ServeOptions) -> Result<Vec<String>, CliError> {
    use usnae_core::serve::{Client, Resolver, ServeConfig, Server};
    if sopts.stop {
        let mut client = Client::connect(&sopts.socket)
            .map_err(|e| CliError(format!("cannot reach daemon at {}: {e}", sopts.socket)))?;
        client.shutdown().map_err(|e| CliError(e.to_string()))?;
        return Ok(vec![format!("daemon at {} stopping", sopts.socket)]);
    }
    if sopts.stats {
        let mut client = Client::connect(&sopts.socket)
            .map_err(|e| CliError(format!("cannot reach daemon at {}: {e}", sopts.socket)))?;
        let stats = client.stats().map_err(|e| CliError(e.to_string()))?;
        let mut lines = vec![
            format!(
                "queue: {} queued / cap {}; {} worker(s)",
                stats.queue_depth, stats.queue_cap, stats.workers
            ),
            format!(
                "jobs: {} done, {} rejected",
                stats.jobs_done, stats.jobs_rejected
            ),
            format!(
                "cache: {} hit(s), {} miss(es), {} store(s), {} eviction(s)",
                stats.cache_hits, stats.cache_misses, stats.cache_stores, stats.cache_evictions
            ),
            format!(
                "resident: {} entr(y/ies), {} byte(s){}",
                stats.cache_entries,
                stats.bytes_resident,
                match stats.budget {
                    0 => "; budget: unbounded".to_string(),
                    b => format!("; budget: {b} byte(s)"),
                }
            ),
            format!(
                "engines: {} open, {} reuse(s)",
                stats.engines_open, stats.engine_reuses
            ),
        ];
        for job in &stats.recent {
            lines.push(format!(
                "job: {} {:016x} cache={} {} us, {} phase(s)",
                job.algorithm,
                job.stream_fingerprint,
                job.cache,
                job.total_micros,
                job.phases.len()
            ));
        }
        return Ok(lines);
    }
    let cache_dir = sopts
        .cache_dir
        .as_ref()
        .expect("parse_args enforces --cache in daemon mode");
    let mut cfg = ServeConfig::new(&sopts.socket, cache_dir);
    cfg.budget = sopts.budget;
    cfg.workers = sopts.workers;
    cfg.queue_cap = sopts.queue_cap;
    let resolver: Resolver = std::sync::Arc::new(|name: &str| registry::find(name));
    let server = Server::bind(cfg, resolver)
        .map_err(|e| CliError(format!("cannot start daemon on {}: {e}", sopts.socket)))?;
    server.run().map_err(|e| CliError(e.to_string()))?;
    Ok(vec![format!("daemon at {} stopped", sopts.socket)])
}

#[cfg(not(unix))]
pub fn execute_serve(_sopts: &ServeOptions) -> Result<Vec<String>, CliError> {
    Err(CliError(
        "usnae serve requires Unix domain sockets (unavailable on this platform)".into(),
    ))
}

/// Exports `--workers-addr` as `USNAE_WORKERS_ADDR` so the socket
/// transport dials the named pre-started workers instead of spawning
/// loopback children. The address list rides the environment, not
/// [`BuildConfig`], so the cache digest stays deployment-independent.
fn export_workers_addr(opts: &Options) {
    if let Some(addr) = &opts.workers_addr {
        std::env::set_var(usnae_core::api::WORKERS_ADDR_ENV, addr);
    }
}

/// Builds the requested structure through the registry.
///
/// # Errors
///
/// [`CliError`] wrapping parameter or construction problems.
pub fn run_build(g: &Graph, opts: &Options) -> Result<BuildOutput, CliError> {
    let construction = registry::find(&opts.algo)
        .ok_or_else(|| CliError(format!("unknown algorithm {:?}", opts.algo)))?;
    export_workers_addr(opts);
    match &opts.cache_dir {
        Some(dir) => build_cached(
            construction.as_ref(),
            g,
            &opts.config,
            &CacheConfig::new(dir),
        ),
        None => construction.build(g, &opts.config),
    }
    .map_err(|e| CliError(e.to_string()))
}

/// The `--graph-file` pipeline: obtain the mapped CSR graph file (streamed
/// from `--input` when one was given — two passes, never materializing the
/// edge list — otherwise the file must already exist), open it, and run
/// the construction out-of-core through `build_mapped`. Returns the build,
/// the mapped graph's `(num_vertices, num_edges)`, and an optional
/// streaming report line.
///
/// # Errors
///
/// [`CliError`] on any I/O, codec, or construction failure.
pub fn run_build_mapped(
    opts: &Options,
) -> Result<(BuildOutput, usize, usize, Option<String>), CliError> {
    let path = opts
        .graph_file
        .as_ref()
        .expect("run_build_mapped requires --graph-file");
    let mut stream_line = None;
    if !opts.input.is_empty() {
        let t0 = Instant::now();
        let stats = gio::stream_edge_list_to_csr_file(
            std::path::Path::new(&opts.input),
            std::path::Path::new(path),
            &StreamOptions {
                policy: opts.config.partition,
                ..StreamOptions::default()
            },
        )
        .map_err(|e| CliError(format!("cannot stream {} into {path}: {e}", opts.input)))?;
        stream_line = Some(format!(
            "streamed: {} line(s) -> {path} ({} duplicate(s) collapsed) in {:.3?}",
            stats.lines,
            stats.duplicate_edges,
            t0.elapsed()
        ));
    }
    let g = MappedGraph::open(std::path::Path::new(path))
        .map_err(|e| CliError(format!("cannot map graph file {path}: {e}")))?;
    let construction = registry::find(&opts.algo)
        .ok_or_else(|| CliError(format!("unknown algorithm {:?}", opts.algo)))?;
    export_workers_addr(opts);
    let out = construction
        .build_mapped(&g, &opts.config)
        .map_err(|e| CliError(e.to_string()))?;
    Ok((out, g.num_vertices(), g.num_edges(), stream_line))
}

/// The `usnae list` output: one line per registry entry.
pub fn list_lines() -> Vec<String> {
    registry::all()
        .iter()
        .map(|c| {
            let s = c.supports();
            let mut tags = Vec::new();
            if s.subgraph {
                tags.push("spanner");
            } else {
                tags.push("emulator");
            }
            if s.congest {
                tags.push("congest");
            }
            if s.uses_seed {
                tags.push("randomized");
            }
            if s.certified {
                tags.push("certified");
            }
            format!("{:<20} [{}] {}", c.name(), tags.join(", "), c.description())
        })
        .collect()
}

/// Full pipeline: read, build, optionally write and report. Returns the
/// report lines printed.
///
/// # Errors
///
/// [`CliError`] on any I/O, parse, or parameter failure.
pub fn execute(opts: &Options) -> Result<Vec<String>, CliError> {
    if let Some(socket) = &opts.connect {
        return execute_run_connect(opts, socket);
    }
    let mut load_time = None;
    let (out, n, m, stream_line) = if opts.graph_file.is_some() {
        run_build_mapped(opts)?
    } else {
        let t0 = Instant::now();
        let file = std::fs::File::open(&opts.input)
            .map_err(|e| CliError(format!("cannot open {}: {e}", opts.input)))?;
        let g = gio::read_edge_list(BufReader::new(file), 0)
            .map_err(|e| CliError(format!("cannot parse {}: {e}", opts.input)))?;
        load_time = Some(t0.elapsed());
        let (n, m) = (g.num_vertices(), g.num_edges());
        (run_build(&g, opts)?, n, m, None)
    };
    if let Some(path) = &opts.output {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError(format!("cannot create {path}: {e}")))?;
        gio::write_weighted_edge_list(out.emulator.graph(), std::io::BufWriter::new(file))
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    let mut lines = Vec::new();
    lines.extend(stream_line);
    lines.push(format!(
        "input: {n} vertices, {m} edges; output ({}): {} edges",
        out.algorithm,
        out.num_edges()
    ));
    if opts.cache_dir.is_some() {
        lines.push(format!("cache: {}", out.stats.cache));
    }
    if opts.report {
        lines.push(format!(
            "stream fingerprint: {:016x}",
            out.stream_fingerprint()
        ));
        if let Some(bound) = out.size_bound {
            lines.push(format!(
                "size bound = {bound:.1}; ratio = {:.4}",
                out.num_edges() as f64 / bound
            ));
        }
        match out.certified {
            Some((alpha, beta)) => lines.push(format!(
                "certified stretch: d_H <= {alpha:.4} * d_G + {beta:.1}"
            )),
            None => lines.push("certified stretch: none (baseline construction)".to_string()),
        }
        if let Some(stats) = &out.congest {
            lines.push(format!(
                "congest: {} rounds, {} messages, knowledge violations {}",
                stats.metrics.rounds, stats.metrics.messages, stats.knowledge_violations
            ));
        }
        if !out.stats.shards.is_empty() {
            let cut: usize = out.stats.shards.iter().map(|s| s.cut_edges).sum();
            lines.push(format!(
                "partition: {} x{} shard(s), {} cut edge(s)",
                opts.config.partition,
                out.stats.shards.len(),
                cut / 2
            ));
        }
        match &out.stats.messages {
            Some(m) => lines.push(format!(
                "transport: {} — {} round(s), {} message(s), {} byte(s)",
                out.stats.transport, m.rounds, m.messages, m.bytes
            )),
            None => lines.push(format!("transport: {}", out.stats.transport)),
        }
        if let Some(t) = load_time {
            lines.push(format!("load: {t:.3?}"));
        }
        let mut timing = format!(
            "build: {:.3?} on {} thread(s)",
            out.stats.total, out.stats.threads
        );
        for p in &out.stats.phases {
            timing.push_str(&format!(
                "; phase {}: {:.3?} ({} explorations)",
                p.phase, p.duration, p.explorations
            ));
        }
        lines.push(timing);
    }
    Ok(lines)
}

/// The `usnae cache <action> <dir>` pipeline. Returns the lines printed.
///
/// `verify` is the shared integrity check: it re-decodes every entry,
/// recomputes its stream fingerprint, and **errors** (nonzero exit) when
/// any entry is stale or corrupt — so CI and users run the same gate.
///
/// # Errors
///
/// [`CliError`] on unreadable directories or (for `verify`) broken entries.
pub fn execute_cache(action: CacheAction, dir: &str) -> Result<Vec<String>, CliError> {
    let cache = ConstructionCache::new(dir);
    let describe = |e: &usnae_core::cache::CacheEntry| {
        let name = e
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        match &e.detail {
            Ok(d) => format!(
                "{name:<60} {:>9} B  n={:<8} records={:<8} stream={:016x}",
                e.bytes, d.num_vertices, d.records, d.stream_fingerprint
            ),
            Err(err) => format!("{name:<60} BROKEN: {err}"),
        }
    };
    match action {
        CacheAction::Ls => {
            let entries = cache
                .ls()
                .map_err(|e| CliError(format!("cannot list {dir}: {e}")))?;
            let mut lines: Vec<String> = entries.iter().map(describe).collect();
            lines.push(format!("{} entr(y/ies) in {dir}", entries.len()));
            Ok(lines)
        }
        CacheAction::Clear => {
            let n = cache
                .clear()
                .map_err(|e| CliError(format!("cannot clear {dir}: {e}")))?;
            Ok(vec![format!("removed {n} entr(y/ies) from {dir}")])
        }
        CacheAction::Verify => {
            let entries = cache
                .ls()
                .map_err(|e| CliError(format!("cannot verify {dir}: {e}")))?;
            let broken: Vec<&usnae_core::cache::CacheEntry> =
                entries.iter().filter(|e| e.detail.is_err()).collect();
            if broken.is_empty() {
                Ok(vec![format!(
                    "verified {} entr(y/ies) in {dir}: all fingerprints match",
                    entries.len()
                )])
            } else {
                let mut msg = format!(
                    "{} of {} entr(y/ies) in {dir} failed verification:\n",
                    broken.len(),
                    entries.len()
                );
                for e in broken {
                    msg.push_str(&describe(e));
                    msg.push('\n');
                }
                Err(CliError(msg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_core::api::CacheStatus;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_opts(cmd: Command) -> Options {
        match cmd {
            Command::Run(o) => o,
            other => panic!("expected run command, got {other:?}"),
        }
    }

    #[test]
    fn parses_full_run_command() {
        let o = run_opts(
            parse_args(&args(
                "run --algo spanner --input g.txt --output h.txt --eps 0.25 --kappa 8 \
                 --rho 0.4 --seed 9 --threads 4 --order by-degree-desc --raw-eps --report",
            ))
            .unwrap(),
        );
        assert_eq!(o.algo, "spanner");
        assert_eq!(o.config.kappa, 8);
        assert_eq!(o.config.epsilon, 0.25);
        assert_eq!(o.config.rho, 0.4);
        assert_eq!(o.config.seed, 9);
        assert_eq!(o.config.threads, 4);
        assert_eq!(o.config.order, ProcessingOrder::ByDegreeDesc);
        assert!(o.config.raw_epsilon && o.report);
        assert_eq!(o.output.as_deref(), Some("h.txt"));
    }

    #[test]
    fn threads_flag_validated_at_parse_time() {
        assert!(parse_args(&args("run --input g.txt --threads 0")).is_err());
        assert!(parse_args(&args("run --input g.txt --threads banana")).is_err());
        let o = run_opts(parse_args(&args("run --input g.txt --threads 8")).unwrap());
        assert_eq!(o.config.threads, 8);
    }

    #[test]
    fn threads_produce_identical_structures_through_the_cli_path() {
        let g = usnae_graph::generators::gnp_connected(100, 0.06, 17).unwrap();
        for name in registry::names() {
            let mk = |threads: usize| Options {
                algo: name.to_string(),
                input: String::new(),
                graph_file: None,
                output: None,
                config: BuildConfig {
                    threads,
                    ..BuildConfig::default()
                },
                report: false,
                cache_dir: None,
                connect: None,
                workers_addr: None,
            };
            let canonical = |out: &BuildOutput| {
                let mut edges: Vec<(usize, usize, u64)> = out
                    .emulator
                    .graph()
                    .edges()
                    .map(|e| (e.u, e.v, e.weight))
                    .collect();
                edges.sort_unstable();
                edges
            };
            let seq = run_build(&g, &mk(1)).unwrap();
            let par = run_build(&g, &mk(4)).unwrap();
            assert_eq!(
                canonical(&seq),
                canonical(&par),
                "{name}: CLI build diverged at 4 threads"
            );
        }
    }

    #[test]
    fn shards_and_partition_flags_parse_and_validate() {
        let o = run_opts(
            parse_args(&args(
                "run --input g.txt --shards 4 --partition degree-balanced",
            ))
            .unwrap(),
        );
        assert_eq!(o.config.shards, 4);
        assert_eq!(o.config.partition, PartitionPolicy::DegreeBalanced);
        let default = run_opts(parse_args(&args("run --input g.txt")).unwrap());
        assert_eq!(default.config.shards, 0, "shared array by default");
        assert!(parse_args(&args("run --input g.txt --shards nope")).is_err());
        assert!(parse_args(&args("run --input g.txt --partition mesh")).is_err());
    }

    #[test]
    fn sharded_builds_are_identical_through_the_cli_path() {
        let g = usnae_graph::generators::gnp_connected(90, 0.07, 31).unwrap();
        for name in registry::names() {
            let mk = |shards: usize, partition: PartitionPolicy| Options {
                algo: name.to_string(),
                input: String::new(),
                graph_file: None,
                output: None,
                config: BuildConfig {
                    shards,
                    partition,
                    ..BuildConfig::default()
                },
                report: false,
                cache_dir: None,
                connect: None,
                workers_addr: None,
            };
            let shared = run_build(&g, &mk(0, PartitionPolicy::Range)).unwrap();
            for policy in PartitionPolicy::all() {
                let sharded = run_build(&g, &mk(4, policy)).unwrap();
                assert_eq!(
                    shared.emulator.provenance(),
                    sharded.emulator.provenance(),
                    "{name} diverged under {policy} shards"
                );
            }
        }
    }

    #[test]
    fn transport_flag_parses_and_validates() {
        let o = run_opts(
            parse_args(&args("run --input g.txt --shards 2 --transport channel")).unwrap(),
        );
        assert_eq!(o.config.transport, TransportKind::Channel);
        let o = run_opts(
            parse_args(&args("run --input g.txt --shards 2 --transport process")).unwrap(),
        );
        assert_eq!(o.config.transport, TransportKind::Process);
        let default = run_opts(parse_args(&args("run --input g.txt")).unwrap());
        assert_eq!(default.config.transport, TransportKind::Inproc);
        assert!(parse_args(&args("run --input g.txt --transport carrier-pigeon")).is_err());
        // A worker transport without shards parses but fails validation
        // at build time.
        let g = usnae_graph::generators::path(6).unwrap();
        let o = run_opts(parse_args(&args("run --input g.txt --transport channel")).unwrap());
        assert!(run_build(&g, &o).is_err());
    }

    #[test]
    fn workers_addr_parses_with_socket_and_is_refused_otherwise() {
        let o = run_opts(
            parse_args(&args(
                "run --input g.txt --shards 2 --transport socket \
                 --workers-addr 10.0.0.1:9001,10.0.0.2:9001",
            ))
            .unwrap(),
        );
        assert_eq!(o.config.transport, TransportKind::Socket);
        assert_eq!(
            o.workers_addr.as_deref(),
            Some("10.0.0.1:9001,10.0.0.2:9001")
        );
        // The address list requires the socket transport: every other
        // transport has no remote end to dial.
        for transport in ["inproc", "channel", "process"] {
            let err = parse_args(&args(&format!(
                "run --input g.txt --shards 2 --transport {transport} --workers-addr h:1"
            )))
            .unwrap_err();
            assert!(err.0.contains("--transport socket"), "{transport}: {err}");
        }
        let err = parse_args(&args("run --input g.txt --workers-addr h:1")).unwrap_err();
        assert!(err.0.contains("--transport socket"), "{err}");
    }

    #[test]
    fn worker_build_reports_transport_and_measured_messages() {
        let input = std::env::temp_dir().join(format!("usnae-cli-wk-{}.txt", std::process::id()));
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 40));
            text.push_str(&format!("{} {}\n", i, (i + 5) % 40));
        }
        std::fs::write(&input, text).unwrap();
        let mk = |transport| Options {
            algo: "centralized".to_string(),
            input: input.display().to_string(),
            graph_file: None,
            output: None,
            config: BuildConfig {
                shards: 2,
                transport,
                ..BuildConfig::default()
            },
            report: true,
            cache_dir: None,
            connect: None,
            workers_addr: None,
        };
        let inproc = execute(&mk(TransportKind::Inproc)).unwrap();
        assert!(
            inproc.iter().any(|l| l == "transport: inproc"),
            "{inproc:?}"
        );
        let channel = execute(&mk(TransportKind::Channel)).unwrap();
        let line = channel
            .iter()
            .find(|l| l.starts_with("transport: channel"))
            .expect("worker run reports its transport");
        assert!(
            line.contains("round(s)") && line.contains("message(s)"),
            "{line}"
        );
        // Byte-identical across transports, visible in the fingerprints.
        let fp = |lines: &[String]| {
            lines
                .iter()
                .find(|l| l.starts_with("stream fingerprint: "))
                .cloned()
                .unwrap()
        };
        assert_eq!(fp(&inproc), fp(&channel));
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn report_times_every_recorded_phase() {
        let input = std::env::temp_dir().join(format!("usnae-cli-ph-{}.txt", std::process::id()));
        let g = usnae_graph::generators::gnp_connected(120, 0.05, 3).unwrap();
        let text: String = g.edges().map(|(u, v)| format!("{u} {v}\n")).collect();
        std::fs::write(&input, text).unwrap();
        let opts = Options {
            algo: "spanner".to_string(),
            input: input.display().to_string(),
            graph_file: None,
            output: None,
            config: BuildConfig::default(),
            report: true,
            cache_dir: None,
            connect: None,
            workers_addr: None,
        };
        let lines = execute(&opts).unwrap();
        let _ = std::fs::remove_file(&input);
        let phases = run_build(&g, &opts).unwrap().stats.phases;
        assert!(phases.len() > 1, "spanner records every phase");
        let at = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix));
        let load = at("load: ").expect("--report prints the load line");
        assert!(lines[load].ends_with('s'), "a duration: {}", lines[load]);
        let line = &lines[at("build: ").expect("--report prints the build line")];
        assert!(load < at("build: ").unwrap(), "load before build");
        assert!(line.contains(" thread(s); phase 0: "), "{line}");
        let entries: Vec<&str> = line.split("; ").skip(1).collect();
        assert_eq!(entries.len(), phases.len(), "{line}");
        for (entry, p) in entries.iter().zip(&phases) {
            let head = format!("phase {}: ", p.phase);
            let tail = format!(" ({} explorations)", p.explorations);
            assert!(entry.starts_with(&head) && entry.ends_with(&tail), "{line}");
        }
    }

    #[test]
    fn legacy_build_modes_map_to_registry_names() {
        for (mode, algo) in [
            ("centralized", "centralized"),
            ("fast", "fast-centralized"),
            ("spanner", "spanner"),
        ] {
            let o =
                run_opts(parse_args(&args(&format!("build --input g.txt --mode {mode}"))).unwrap());
            assert_eq!(o.algo, algo);
        }
    }

    #[test]
    fn defaults_applied() {
        let o = run_opts(parse_args(&args("run --input g.txt")).unwrap());
        assert_eq!(o.algo, "centralized");
        assert_eq!(o.config, BuildConfig::default());
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&args("")).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("run")).is_err()); // missing --input
        assert!(parse_args(&args("run --input g.txt --algo nope")).is_err());
        assert!(parse_args(&args("build --input g.txt --mode nope")).is_err());
        assert!(parse_args(&args("run --input g.txt --kappa banana")).is_err());
        assert!(parse_args(&args("run --input g.txt --order sideways")).is_err());
        assert!(parse_args(&args("run --input")).is_err()); // dangling value
        assert!(parse_args(&args("build --input g.txt --algo tz06")).is_err()); // legacy has no --algo
    }

    #[test]
    fn list_command_and_catalogue() {
        assert_eq!(parse_args(&args("list")).unwrap(), Command::List);
        assert!(parse_args(&args("list --algo tz06")).is_err());
        let lines = list_lines();
        assert_eq!(lines.len(), 9);
        assert!(lines.iter().any(|l| l.starts_with("centralized")));
        assert!(lines.iter().any(|l| l.starts_with("em19")));
    }

    #[test]
    fn end_to_end_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("usnae-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("g.txt");
        let output = dir.join("h.txt");
        // A small cycle graph.
        let mut text = String::from("# cycle\n");
        for i in 0..12 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 12));
        }
        std::fs::write(&input, text).unwrap();
        let opts = run_opts(
            parse_args(&args(&format!(
                "run --input {} --output {} --report",
                input.display(),
                output.display()
            )))
            .unwrap(),
        );
        let lines = execute(&opts).unwrap();
        assert!(lines[0].contains("12 vertices"));
        assert!(lines.iter().any(|l| l.contains("certified stretch")));
        // Output parses back as a weighted graph.
        let file = std::fs::File::open(&output).unwrap();
        let h =
            usnae_graph::io::read_weighted_edge_list(std::io::BufReader::new(file), 12).unwrap();
        assert!(h.num_edges() > 0);
    }

    #[test]
    fn graph_file_flag_parses_and_validates() {
        let o = run_opts(parse_args(&args("run --input g.txt --graph-file g.csr")).unwrap());
        assert_eq!(o.graph_file.as_deref(), Some("g.csr"));
        // A pre-built CSR file needs no edge list.
        let o = run_opts(parse_args(&args("run --graph-file g.csr")).unwrap());
        assert!(o.input.is_empty());
        // Out-of-core runs cannot key the heap-graph cache.
        assert!(parse_args(&args("run --graph-file g.csr --cache /tmp/c")).is_err());
        // The flag belongs to run, not query.
        assert!(parse_args(&args("query --graph-file g.csr --pairs p.txt")).is_err());
    }

    #[test]
    fn mapped_query_flag_parses_and_validates() {
        let cmd = parse_args(&args("query --mapped snap.usnae --pairs p.txt")).unwrap();
        match cmd {
            Command::Query(q) => {
                assert_eq!(q.mapped.as_deref(), Some("snap.usnae"));
                assert!(q.build.input.is_empty());
            }
            other => panic!("expected query, got {other:?}"),
        }
        // Mapped serving reads one snapshot: no graph input, no cache.
        assert!(parse_args(&args("query --mapped s.usnae --input g.txt --pairs p.txt")).is_err());
        assert!(parse_args(&args("query --mapped s.usnae --cache /tmp/c --pairs p.txt")).is_err());
        // Run mode does not know the flag.
        assert!(parse_args(&args("run --input g.txt --mapped s.usnae")).is_err());
    }

    #[test]
    fn graph_file_run_matches_the_heap_run_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("usnae-cli-oc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("g.txt");
        let csr = dir.join("g.csr");
        let mut text = String::new();
        for i in 0..50usize {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 50));
            text.push_str(&format!("{} {}\n", i, (i + 7) % 50));
        }
        std::fs::write(&input, text).unwrap();
        let heap = execute(&run_opts(
            parse_args(&args(&format!("run --input {} --report", input.display()))).unwrap(),
        ))
        .unwrap();
        let mapped = execute(&run_opts(
            parse_args(&args(&format!(
                "run --input {} --graph-file {} --report",
                input.display(),
                csr.display()
            )))
            .unwrap(),
        ))
        .unwrap();
        assert!(mapped[0].starts_with("streamed:"), "{:?}", mapped[0]);
        assert!(mapped[0].contains(" collapsed) in "), "{:?}", mapped[0]);
        assert!(
            !mapped.iter().any(|l| l.starts_with("load: ")),
            "streamed, not loaded"
        );
        let fp = |lines: &[String]| {
            lines
                .iter()
                .find(|l| l.starts_with("stream fingerprint"))
                .unwrap()
                .clone()
        };
        assert_eq!(fp(&heap), fp(&mapped), "out-of-core build diverged");
        // Second run: the CSR file already exists, no --input needed.
        let reopened = execute(&run_opts(
            parse_args(&args(&format!(
                "run --graph-file {} --report",
                csr.display()
            )))
            .unwrap(),
        ))
        .unwrap();
        assert_eq!(fp(&heap), fp(&reopened));
        assert!(!reopened[0].starts_with("streamed:"), "no stream pass");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_query_answers_match_the_build_path() {
        use usnae_core::cache::{CacheKey, Snapshot};
        let dir = std::env::temp_dir().join(format!("usnae-cli-mq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("g.txt");
        let pairs = dir.join("p.txt");
        let snap_path = dir.join("entry.usnae");
        let mut text = String::new();
        for i in 0..30usize {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 30));
        }
        std::fs::write(&input, text).unwrap();
        std::fs::write(&pairs, "0 15\n3 4\n7 22\n").unwrap();

        // Reference: build-and-serve through the normal query path.
        let build_q = QueryOptions {
            build: run_opts(
                parse_args(&args(&format!("run --input {}", input.display()))).unwrap(),
            ),
            pairs: pairs.display().to_string(),
            landmarks: 0,
            mapped: None,
        };
        let reference = execute_query(&build_q).unwrap();

        // Store the same build as a v4 snapshot, serve it with --mapped.
        let g = {
            let file = std::fs::File::open(&input).unwrap();
            gio::read_edge_list(std::io::BufReader::new(file), 0).unwrap()
        };
        let out = run_build(&g, &build_q.build).unwrap();
        let key = CacheKey::new(&g, "centralized", &build_q.build.config);
        std::fs::write(&snap_path, Snapshot::from_output(key, &out).encode()).unwrap();
        let mapped_q = match parse_args(&args(&format!(
            "query --mapped {} --pairs {} --report",
            snap_path.display(),
            pairs.display()
        )))
        .unwrap()
        {
            Command::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        };
        let served = execute_query(&mapped_q).unwrap();
        assert!(served[0].starts_with("mapped:"), "{:?}", served[0]);
        // Identical answer lines, certified identically.
        let answers = |lines: &[String]| -> Vec<String> {
            lines
                .iter()
                .filter(|l| {
                    l.split_whitespace().count() == 3
                        && l.split_whitespace()
                            .next()
                            .unwrap()
                            .parse::<usize>()
                            .is_ok()
                })
                .cloned()
                .collect()
        };
        assert_eq!(answers(&reference), answers(&served));
        assert!(!answers(&reference).is_empty());
        assert!(served.iter().any(|l| l.contains("certified stretch")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_registry_algorithm_runs_through_the_cli_path() {
        let g = usnae_graph::generators::gnp_connected(60, 0.1, 3).unwrap();
        for name in registry::names() {
            let opts = Options {
                algo: name.to_string(),
                input: String::new(),
                graph_file: None,
                output: None,
                config: BuildConfig::default(),
                report: false,
                cache_dir: None,
                connect: None,
                workers_addr: None,
            };
            let out = run_build(&g, &opts).unwrap();
            assert!(out.num_edges() > 0, "{name}");
            assert_eq!(out.algorithm, name);
        }
    }

    #[test]
    fn cache_subcommand_parses() {
        assert_eq!(
            parse_args(&args("cache ls /tmp/c")).unwrap(),
            Command::Cache(CacheAction::Ls, "/tmp/c".into())
        );
        assert_eq!(
            parse_args(&args("cache clear /tmp/c")).unwrap(),
            Command::Cache(CacheAction::Clear, "/tmp/c".into())
        );
        assert_eq!(
            parse_args(&args("cache verify /tmp/c")).unwrap(),
            Command::Cache(CacheAction::Verify, "/tmp/c".into())
        );
        assert!(parse_args(&args("cache")).is_err());
        assert!(parse_args(&args("cache frob /tmp/c")).is_err());
        assert!(parse_args(&args("cache ls")).is_err());
        assert!(parse_args(&args("cache ls /tmp/c extra")).is_err());
        let o = run_opts(parse_args(&args("run --input g.txt --cache /tmp/c")).unwrap());
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/c"));
    }

    #[test]
    fn cold_then_warm_run_through_the_cli_path() {
        let dir = std::env::temp_dir().join(format!("usnae-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = usnae_graph::generators::gnp_connected(60, 0.1, 13).unwrap();
        let opts = Options {
            algo: "spanner".to_string(),
            input: String::new(),
            graph_file: None,
            output: None,
            config: BuildConfig::default(),
            report: false,
            cache_dir: Some(dir.display().to_string()),
            connect: None,
            workers_addr: None,
        };
        let cold = run_build(&g, &opts).unwrap();
        assert_eq!(cold.stats.cache, CacheStatus::Miss);
        let warm = run_build(&g, &opts).unwrap();
        assert_eq!(warm.stats.cache, CacheStatus::Hit);
        assert_eq!(warm.stream_fingerprint(), cold.stream_fingerprint());

        // The maintenance pipeline sees, verifies, and clears the entry.
        let dir_s = dir.display().to_string();
        let ls = execute_cache(CacheAction::Ls, &dir_s).unwrap();
        assert!(ls.last().unwrap().starts_with("1 entr"));
        let verify = execute_cache(CacheAction::Verify, &dir_s).unwrap();
        assert!(verify[0].contains("all fingerprints match"));
        // Rot the entry: verify must fail with a nonzero-exit error.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&entry, &bytes).unwrap();
        assert!(execute_cache(CacheAction::Verify, &dir_s).is_err());
        let cleared = execute_cache(CacheAction::Clear, &dir_s).unwrap();
        assert!(cleared[0].starts_with("removed 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_line_reported_when_cache_in_use() {
        let dir = std::env::temp_dir().join(format!("usnae-cli-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let input = std::env::temp_dir().join(format!("usnae-cli-rg-{}.txt", std::process::id()));
        let mut text = String::new();
        for i in 0..16 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 16));
        }
        std::fs::write(&input, text).unwrap();
        let opts = Options {
            algo: "centralized".to_string(),
            input: input.display().to_string(),
            graph_file: None,
            output: None,
            config: BuildConfig::default(),
            report: true,
            cache_dir: Some(dir.display().to_string()),
            connect: None,
            workers_addr: None,
        };
        let cold = execute(&opts).unwrap();
        assert!(cold.iter().any(|l| l == "cache: miss"), "{cold:?}");
        let warm = execute(&opts).unwrap();
        assert!(warm.iter().any(|l| l == "cache: hit"), "{warm:?}");
        let fp = |lines: &[String]| {
            lines
                .iter()
                .find(|l| l.starts_with("stream fingerprint: "))
                .cloned()
                .expect("report prints the fingerprint")
        };
        assert_eq!(fp(&cold), fp(&warm), "hit is fingerprint-identical");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn query_command_parses_and_validates() {
        let q = match parse_args(&args(
            "query --algo spanner --input g.txt --pairs p.txt --landmarks 4 --kappa 3 --report",
        ))
        .unwrap()
        {
            Command::Query(q) => q,
            other => panic!("expected query command, got {other:?}"),
        };
        assert_eq!(q.build.algo, "spanner");
        assert_eq!(q.build.config.kappa, 3);
        assert_eq!(q.pairs, "p.txt");
        assert_eq!(q.landmarks, 4);
        assert!(q.build.report);
        assert!(parse_args(&args("query --input g.txt")).is_err()); // missing --pairs
        assert!(parse_args(&args("query --pairs p.txt")).is_err()); // missing --input
        assert!(parse_args(&args("query --input g.txt --pairs p.txt --output h.txt")).is_err());
        assert!(parse_args(&args("query --input g.txt --pairs p.txt --landmarks no")).is_err());
        // Query-only flags stay query-only.
        assert!(parse_args(&args("run --input g.txt --pairs p.txt")).is_err());
        assert!(parse_args(&args("run --input g.txt --landmarks 4")).is_err());
    }

    #[test]
    fn read_pairs_parses_comments_and_rejects_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("usnae-cli-pairs-{}.txt", std::process::id()));
        std::fs::write(&path, "# queries\n0 5\n3 2 # inline comment\n\n1 1\n").unwrap();
        let p = path.display().to_string();
        assert_eq!(read_pairs(&p, 6).unwrap(), vec![(0, 5), (3, 2), (1, 1)]);
        assert!(read_pairs(&p, 5).is_err(), "vertex 5 out of range");
        std::fs::write(&path, "0 1 2\n").unwrap();
        assert!(read_pairs(&p, 6).is_err(), "three tokens");
        std::fs::write(&path, "0\n").unwrap();
        assert!(read_pairs(&p, 6).is_err(), "one token");
        std::fs::write(&path, "# nothing\n").unwrap();
        assert!(read_pairs(&p, 6).is_err(), "no pairs");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn query_answers_pairs_and_warm_cache_hits_without_rebuild() {
        let tmp = std::env::temp_dir();
        let pid = std::process::id();
        let input = tmp.join(format!("usnae-cli-qg-{pid}.txt"));
        let pairs = tmp.join(format!("usnae-cli-qp-{pid}.txt"));
        let cache = tmp.join(format!("usnae-cli-qc-{pid}"));
        let _ = std::fs::remove_dir_all(&cache);
        let mut text = String::new();
        for i in 0..24 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 24));
        }
        std::fs::write(&input, text).unwrap();
        std::fs::write(&pairs, "0 12\n5 5\n3 20\n").unwrap();
        let qopts = QueryOptions {
            build: Options {
                algo: "centralized".to_string(),
                input: input.display().to_string(),
                graph_file: None,
                output: None,
                config: BuildConfig::default(),
                report: true,
                cache_dir: Some(cache.display().to_string()),
                connect: None,
                workers_addr: None,
            },
            pairs: pairs.display().to_string(),
            landmarks: 0,
            mapped: None,
        };
        let cold = execute_query(&qopts).unwrap();
        assert!(cold.iter().any(|l| l == "cache: miss"), "{cold:?}");
        let warm = execute_query(&qopts).unwrap();
        assert!(warm.iter().any(|l| l == "cache: hit"), "{warm:?}");
        // Answer lines are identical cold vs warm, and certified: the ring
        // distance 0..12 is 12, identity is 0.
        let answer_lines = |lines: &[String]| {
            lines
                .iter()
                .filter(|l| {
                    let mut t = l.split_whitespace();
                    t.next().is_some_and(|w| w.parse::<usize>().is_ok())
                })
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(answer_lines(&cold), answer_lines(&warm));
        assert_eq!(answer_lines(&cold).len(), 3);
        assert!(cold.iter().any(|l| l == "5 5 0"), "{cold:?}");
        assert!(cold.iter().any(|l| l.starts_with("certified stretch:")));
        assert!(cold.iter().any(|l| l.starts_with("engine:")));

        // Landmark serving over the same warm cache: still a hit, still
        // certified (weaker pair), still answers every pair.
        let with_landmarks = QueryOptions {
            landmarks: 3,
            ..qopts.clone()
        };
        let lm = execute_query(&with_landmarks).unwrap();
        assert!(lm.iter().any(|l| l == "cache: hit"), "{lm:?}");
        assert_eq!(answer_lines(&lm).len(), 3);
        assert!(lm.iter().any(|l| l.starts_with("landmarks: 3")), "{lm:?}");
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&pairs);
    }

    #[test]
    fn query_rejects_out_of_range_pairs() {
        let tmp = std::env::temp_dir();
        let pid = std::process::id();
        let input = tmp.join(format!("usnae-cli-qr-{pid}.txt"));
        let pairs = tmp.join(format!("usnae-cli-qrp-{pid}.txt"));
        std::fs::write(&input, "0 1\n1 2\n").unwrap();
        std::fs::write(&pairs, "0 9\n").unwrap();
        let qopts = QueryOptions {
            build: Options {
                algo: "centralized".to_string(),
                input: input.display().to_string(),
                graph_file: None,
                output: None,
                config: BuildConfig::default(),
                report: false,
                cache_dir: None,
                connect: None,
                workers_addr: None,
            },
            pairs: pairs.display().to_string(),
            landmarks: 0,
            mapped: None,
        };
        assert!(execute_query(&qopts).is_err());
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&pairs);
    }

    #[test]
    fn serve_command_parses_and_validates() {
        let s = match parse_args(&args(
            "serve --socket /tmp/u.sock --cache /tmp/c --budget 4096 --workers 3 --queue-cap 2",
        ))
        .unwrap()
        {
            Command::Serve(s) => s,
            other => panic!("expected serve, got {other:?}"),
        };
        assert_eq!(s.socket, "/tmp/u.sock");
        assert_eq!(s.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(s.budget, Some(4096));
        assert_eq!(s.workers, 3);
        assert_eq!(s.queue_cap, 2);
        assert!(!s.stats && !s.stop);
        // Client modes take just the socket.
        let s = match parse_args(&args("serve --socket /tmp/u.sock --stats")).unwrap() {
            Command::Serve(s) => s,
            other => panic!("expected serve, got {other:?}"),
        };
        assert!(s.stats && s.cache_dir.is_none());
        assert!(matches!(
            parse_args(&args("serve --socket /tmp/u.sock --stop")).unwrap(),
            Command::Serve(ServeOptions { stop: true, .. })
        ));
        // Rejections: no socket, daemon mode without cache, mixed modes,
        // daemon flags on a client mode, bad numbers.
        assert!(parse_args(&args("serve --cache /tmp/c")).is_err());
        assert!(parse_args(&args("serve --socket /tmp/u.sock")).is_err());
        assert!(parse_args(&args("serve --socket s --stats --stop")).is_err());
        assert!(parse_args(&args("serve --socket s --stats --cache /tmp/c")).is_err());
        assert!(parse_args(&args("serve --socket s --cache c --workers 0")).is_err());
        assert!(parse_args(&args("serve --socket s --cache c --budget big")).is_err());
    }

    #[test]
    fn connect_flag_parses_and_validates() {
        let o = run_opts(parse_args(&args("run --input g.txt --connect /tmp/u.sock")).unwrap());
        assert_eq!(o.connect.as_deref(), Some("/tmp/u.sock"));
        match parse_args(&args(
            "query --input g.txt --pairs p.txt --connect /tmp/u.sock",
        ))
        .unwrap()
        {
            Command::Query(q) => assert_eq!(q.build.connect.as_deref(), Some("/tmp/u.sock")),
            other => panic!("expected query, got {other:?}"),
        }
        // The daemon resolves the graph path and owns cache/output/layout.
        assert!(parse_args(&args("run --connect /tmp/u.sock")).is_err());
        assert!(parse_args(&args("run --input g.txt --connect s --cache /tmp/c")).is_err());
        assert!(parse_args(&args("run --input g.txt --connect s --output h.txt")).is_err());
        assert!(parse_args(&args("run --input g.txt --connect s --graph-file g.csr")).is_err());
        assert!(parse_args(&args("query --mapped s.usnae --pairs p --connect s")).is_err());
        assert!(parse_args(&args("build --input g.txt --connect s")).is_err());
    }

    #[test]
    fn invalid_params_surface_as_cli_errors() {
        let g = usnae_graph::generators::path(5).unwrap();
        let opts = Options {
            algo: "centralized".to_string(),
            input: String::new(),
            graph_file: None,
            output: None,
            config: BuildConfig {
                epsilon: 2.0, // invalid
                ..BuildConfig::default()
            },
            report: false,
            cache_dir: None,
            connect: None,
            workers_addr: None,
        };
        assert!(run_build(&g, &opts).is_err());
    }
}
