//! Fingerprint-keyed construction cache with a versioned on-disk snapshot
//! codec.
//!
//! For the oracle/query workloads the paper's structures serve, the build
//! is the dominant cost and should be paid **once per
//! `(graph, algorithm, config)`**. The determinism guarantee (see
//! [`crate::api`]) makes that safe: every registry construction is a pure
//! function of `(graph, BuildConfig)`, so a stored output is not a
//! heuristic approximation of a rebuild — it *is* the rebuild, and the
//! stored [`stream fingerprint`](crate::emulator::stream_fingerprint) lets
//! a load prove it.
//!
//! Four layers:
//!
//! * [`Snapshot`] + the zero-dependency binary codec
//!   ([`Snapshot::encode`] / [`Snapshot::decode`]): magic, version, key
//!   fingerprints, the exact insertion stream with provenance, certified
//!   stretch, size bound, CONGEST stats, build stats, and a whole-file
//!   checksum. Corrupt, truncated, or version-mismatched files decode to a
//!   typed [`SnapshotError`], never a panic.
//! * [`ConstructionCache`]: a directory of snapshots keyed by
//!   `(graph fingerprint, algorithm, config digest)` with `store` / `load`
//!   / [`ls`](ConstructionCache::ls) / [`clear`](ConstructionCache::clear)
//!   / [`verify`](ConstructionCache::verify) — the same integrity check the
//!   CLI (`usnae cache verify`) and CI run.
//! * [`build_cached`]: the read-through wrapper every consumer uses
//!   (builder `.cache_dir(..)`, CLI `--cache`, eval/bench sweeps). A hit is
//!   accepted only after the decoded stream's recomputed fingerprint
//!   matches the stored one; anything less rebuilds.
//! * [`EvictingCache`]: the byte-budgeted, LRU-evicting, concurrency-safe
//!   view the always-on `usnae serve` daemon shares across jobs —
//!   deterministic eviction order, atomic publication (temp file +
//!   rename), lock-free concurrent readers, and hit/miss/eviction
//!   counters for the service `stats` endpoint. One-shot consumers keep
//!   the unbounded directory cache; a long-running server bounds it.
//!
//! Traced builds (`BuildConfig::traced`) bypass the cache: snapshots
//! deliberately store the insertion stream, not the in-memory [`Trace`](crate::api::Trace)
//! families, so a hit could not honor the trace request. Everything a
//! query workload consumes — emulator, certification, congest stats — is
//! preserved exactly.

use crate::api::{BuildConfig, BuildError, BuildOutput, CongestStats, Construction};
use crate::emulator::{stream_fingerprint, EdgeKind, EdgeProvenance, Emulator};
use crate::exec::{
    BuildStats, CacheStatus, MessageStats, PairStats, PhaseTiming, ShardTiming, TransportKind,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};
use usnae_congest::Metrics;
use usnae_graph::dijkstra::{self, CsrWords};
use usnae_graph::metrics::Fnv64;
use usnae_graph::{ByteMap, Dist, Graph, StorageError, VertexId, WeightedEdge, WeightedGraph};

/// Snapshot file magic: identifies the format before any parsing.
pub const MAGIC: &[u8; 8] = b"USNAESNP";

/// Current codec version. Bump on any layout change; old files then fail
/// with [`SnapshotError::UnsupportedVersion`] instead of misparsing.
/// (v2 added the per-shard timing section of partitioned builds; v3 added
/// the transport byte and the measured [`MessageStats`] of worker-pool
/// builds; v4 restructured the file into a **section directory** — five
/// 8-aligned sections located by an offset/length table right after the
/// header — and added the [`SECTION_EMU_CSR`] weighted-CSR image of the
/// emulator, so a snapshot can be indexed and served ([`MappedSnapshot`],
/// [`MappedEmulator`]) without decoding the record stream. v2/v3 files
/// remain readable: v2's transport decodes as `inproc` with no message
/// stats.)
pub const VERSION: u32 = 4;

/// Oldest codec version [`Snapshot::decode`] still reads.
pub const MIN_VERSION: u32 = 2;

/// v4 section id: cache key (graph fingerprint, config digest, algorithm).
pub const SECTION_KEY: u64 = 1;
/// v4 section id: stream fingerprint, vertex count, certification,
/// size bound, CONGEST stats.
pub const SECTION_META: u64 = 2;
/// v4 section id: the exact insertion stream with provenance.
pub const SECTION_RECORDS: u64 = 3;
/// v4 section id: build stats (threads, timings, shards, transport,
/// messages).
pub const SECTION_STATS: u64 = 4;
/// v4 section id: the emulator's weighted adjacency as an all-`u64` CSR
/// (the words [`MappedEmulator`] runs the SSSP kernel over).
pub const SECTION_EMU_CSR: u64 = 5;

/// The five v4 sections, directory order.
const SECTION_IDS: [u64; 5] = [
    SECTION_KEY,
    SECTION_META,
    SECTION_RECORDS,
    SECTION_STATS,
    SECTION_EMU_CSR,
];
/// Bytes per section-directory entry: id, absolute offset, length.
const DIR_ENTRY: usize = 24;
/// Bytes before the v4 section directory: magic, version, section count.
const V4_HEADER: usize = 16;

/// Extension of snapshot files inside a cache directory.
pub const EXTENSION: &str = "usnae";

/// Typed failures of the snapshot codec and cache directory operations.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's codec version is not readable by this binary.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this binary writes and reads.
        supported: u32,
    },
    /// The file ended before the declared content (truncation).
    Truncated {
        /// Byte offset at which the reader ran dry.
        offset: usize,
    },
    /// The whole-file checksum did not match — bit rot or tampering.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// Structurally invalid content (bad edge-kind byte, endpoint out of
    /// range, non-finite stored float, oversized declared length).
    Corrupt {
        /// Human-readable reason.
        reason: String,
    },
    /// The decoded stream does not reproduce the stored stream
    /// fingerprint — the entry is internally inconsistent.
    FingerprintMismatch {
        /// Fingerprint stored in the header.
        stored: u64,
        /// Fingerprint recomputed from the decoded records.
        recomputed: u64,
    },
    /// The entry decodes cleanly but belongs to a different
    /// `(graph, algorithm, config)` key than the caller asked for — a
    /// stale or misfiled entry.
    KeyMismatch {
        /// What the entry claims to be.
        entry: String,
        /// What the caller asked for.
        requested: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failure: {e}"),
            SnapshotError::BadMagic => write!(f, "not a usnae snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} not supported (this binary reads version {supported})"
            ),
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
            SnapshotError::Corrupt { reason } => write!(f, "snapshot corrupt: {reason}"),
            SnapshotError::FingerprintMismatch { stored, recomputed } => write!(
                f,
                "stream fingerprint mismatch (stored {stored:016x}, recomputed {recomputed:016x})"
            ),
            SnapshotError::KeyMismatch { entry, requested } => write!(
                f,
                "snapshot key mismatch (entry is {entry}, requested {requested})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The cache key: what [`build_cached`] hashes a build request down to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical input-graph fingerprint
    /// ([`usnae_graph::metrics::fingerprint`]).
    pub graph_fingerprint: u64,
    /// Registry name of the construction.
    pub algorithm: String,
    /// Output-relevant config digest ([`BuildConfig::stable_digest`]).
    pub config_digest: u64,
}

impl CacheKey {
    /// Derives the key for one build request. Storage-generic: a
    /// file-backed graph keys identically to its heap materialization.
    pub fn new<S: usnae_graph::AdjStorage>(
        g: &usnae_graph::GraphCore<S>,
        algorithm: &str,
        cfg: &BuildConfig,
    ) -> Self {
        Self::from_fingerprint(usnae_graph::metrics::fingerprint(g), algorithm, cfg)
    }

    /// The key for a graph whose fingerprint is already known (the serve
    /// daemon memoizes it per graph file).
    pub fn from_fingerprint(graph_fingerprint: u64, algorithm: &str, cfg: &BuildConfig) -> Self {
        CacheKey {
            graph_fingerprint,
            algorithm: algorithm.to_string(),
            config_digest: cfg.stable_digest(),
        }
    }

    /// The entry's file name inside a cache directory.
    pub fn file_name(&self) -> String {
        format!(
            "{}-g{:016x}-c{:016x}.{EXTENSION}",
            self.algorithm, self.graph_fingerprint, self.config_digest
        )
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} g={:016x} c={:016x}",
            self.algorithm, self.graph_fingerprint, self.config_digest
        )
    }
}

/// A serializable image of one [`BuildOutput`] — everything except the
/// in-memory [`Trace`](crate::api::Trace) families and wall-clock noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The key this entry answers.
    pub key: CacheKey,
    /// Fingerprint of the stored insertion stream (the proof obligation on
    /// load).
    pub stream_fingerprint: u64,
    /// Vertex count of the emulator.
    pub num_vertices: usize,
    /// The exact insertion stream with provenance, in insertion order.
    pub records: Vec<(WeightedEdge, EdgeProvenance)>,
    /// Certified `(α, β)`, when the construction certifies one.
    pub certified: Option<(f64, f64)>,
    /// Proven size bound, when known.
    pub size_bound: Option<f64>,
    /// CONGEST stats for simulator-backed builds.
    pub congest: Option<CongestStats>,
    /// Stats of the build that produced the entry (threads, wall clock,
    /// per-phase timings — `cache` is always recorded as `Miss`, the status
    /// of the producing build).
    pub stats: BuildStats,
}

/// Little-endian byte writer with the running whole-file checksum.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn finish(mut self) -> Vec<u8> {
        let mut h = Fnv64::new();
        h.write_bytes(&self.buf);
        let checksum = h.finish();
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Bounds-checked little-endian reader; every read can fail with
/// [`SnapshotError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `usize` that must also be a plausible in-file count: the codec
    /// never stores more logical records than bytes, so any declared length
    /// beyond the remaining buffer is corruption, not an allocation order.
    fn count(&mut self) -> Result<usize, SnapshotError> {
        let x = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if x > remaining {
            return Err(SnapshotError::Corrupt {
                reason: format!("declared count {x} exceeds remaining {remaining} bytes"),
            });
        }
        Ok(x as usize)
    }
}

fn opt_f64(w: &mut Writer, x: Option<f64>) {
    match x {
        Some(v) => {
            w.u8(1);
            w.u64(v.to_bits());
        }
        None => w.u8(0),
    }
}

fn read_opt_f64(r: &mut Reader) -> Result<Option<f64>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        b => Err(SnapshotError::Corrupt {
            reason: format!("invalid option tag {b}"),
        }),
    }
}

fn write_records(w: &mut Writer, records: &[(WeightedEdge, EdgeProvenance)]) {
    w.u64(records.len() as u64);
    for (e, p) in records {
        w.u64(e.u as u64);
        w.u64(e.v as u64);
        w.u64(e.weight);
        w.u64(p.phase as u64);
        w.u8(p.kind.code());
        w.u64(p.charged_to as u64);
    }
}

fn read_records(
    r: &mut Reader,
    num_vertices: usize,
) -> Result<Vec<(WeightedEdge, EdgeProvenance)>, SnapshotError> {
    let record_count = r.count()?;
    let mut records = Vec::with_capacity(record_count);
    for i in 0..record_count {
        let u = r.u64()? as usize;
        let v = r.u64()? as usize;
        let weight = r.u64()?;
        let phase = r.u64()? as usize;
        let kind_byte = r.u8()?;
        let charged_to = r.u64()? as usize;
        let kind = EdgeKind::from_code(kind_byte).ok_or_else(|| SnapshotError::Corrupt {
            reason: format!("record {i}: invalid edge-kind byte {kind_byte}"),
        })?;
        if u >= num_vertices || v >= num_vertices || u == v || charged_to >= num_vertices {
            return Err(SnapshotError::Corrupt {
                reason: format!(
                    "record {i}: endpoints ({u}, {v}) out of range for n={num_vertices}"
                ),
            });
        }
        records.push((
            WeightedEdge::new(u, v, weight),
            EdgeProvenance {
                phase,
                kind,
                charged_to,
            },
        ));
    }
    Ok(records)
}

fn write_certified(w: &mut Writer, certified: Option<(f64, f64)>) {
    match certified {
        Some((a, b)) => {
            w.u8(1);
            w.u64(a.to_bits());
            w.u64(b.to_bits());
        }
        None => w.u8(0),
    }
}

fn read_certified(r: &mut Reader) -> Result<Option<(f64, f64)>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let a = r.f64()?;
            let b = r.f64()?;
            if a.is_nan() || b.is_nan() {
                return Err(SnapshotError::Corrupt {
                    reason: "certified stretch is NaN".into(),
                });
            }
            Ok(Some((a, b)))
        }
        b => Err(SnapshotError::Corrupt {
            reason: format!("invalid certified tag {b}"),
        }),
    }
}

fn write_congest(w: &mut Writer, congest: &Option<CongestStats>) {
    match congest {
        Some(c) => {
            w.u8(1);
            w.u64(c.metrics.rounds);
            w.u64(c.metrics.charged_rounds);
            w.u64(c.metrics.messages);
            w.u64(c.metrics.words);
            w.u64(c.metrics.peak_in_flight);
            w.u64(c.knowledge_checked as u64);
            w.u64(c.knowledge_violations as u64);
        }
        None => w.u8(0),
    }
}

fn read_congest(r: &mut Reader) -> Result<Option<CongestStats>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(CongestStats {
            metrics: Metrics {
                rounds: r.u64()?,
                charged_rounds: r.u64()?,
                messages: r.u64()?,
                words: r.u64()?,
                peak_in_flight: r.u64()?,
            },
            knowledge_checked: r.u64()? as usize,
            knowledge_violations: r.u64()? as usize,
        })),
        b => Err(SnapshotError::Corrupt {
            reason: format!("invalid congest tag {b}"),
        }),
    }
}

/// Threads, wall clock, per-phase and per-shard timings — the stats head
/// every codec version shares.
fn write_core_stats(w: &mut Writer, stats: &BuildStats) {
    w.u64(stats.threads as u64);
    w.u64(stats.total.as_nanos().min(u128::from(u64::MAX)) as u64);
    w.u64(stats.phases.len() as u64);
    for p in &stats.phases {
        w.u64(p.phase as u64);
        w.u64(p.duration.as_nanos().min(u128::from(u64::MAX)) as u64);
        w.u64(p.explorations as u64);
    }
    w.u64(stats.shards.len() as u64);
    for sh in &stats.shards {
        w.u64(sh.shard as u64);
        w.u64(sh.vertices as u64);
        w.u64(sh.local_edges as u64);
        w.u64(sh.cut_edges as u64);
        w.u64(sh.duration.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

#[allow(clippy::type_complexity)]
fn read_core_stats(
    r: &mut Reader,
) -> Result<(usize, Duration, Vec<PhaseTiming>, Vec<ShardTiming>), SnapshotError> {
    let threads = r.u64()? as usize;
    let total = Duration::from_nanos(r.u64()?);
    let phase_count = r.count()?;
    let mut phases = Vec::with_capacity(phase_count);
    for _ in 0..phase_count {
        phases.push(PhaseTiming {
            phase: r.u64()? as usize,
            duration: Duration::from_nanos(r.u64()?),
            explorations: r.u64()? as usize,
        });
    }
    let shard_count = r.count()?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        shards.push(ShardTiming {
            shard: r.u64()? as usize,
            vertices: r.u64()? as usize,
            local_edges: r.u64()? as usize,
            cut_edges: r.u64()? as usize,
            duration: Duration::from_nanos(r.u64()?),
        });
    }
    Ok((threads, total, phases, shards))
}

/// The transport byte plus measured message stats (v3 and later).
fn write_transport_stats(w: &mut Writer, stats: &BuildStats) {
    w.u8(stats.transport.code());
    match &stats.messages {
        Some(m) => {
            w.u8(1);
            w.u64(m.rounds);
            w.u64(m.messages);
            w.u64(m.bytes);
            w.u64(m.pairs.len() as u64);
            for p in &m.pairs {
                w.u64(p.src as u64);
                w.u64(p.dst as u64);
                w.u64(p.messages);
                w.u64(p.bytes);
            }
        }
        None => w.u8(0),
    }
}

fn read_transport_stats(
    r: &mut Reader,
) -> Result<(TransportKind, Option<MessageStats>), SnapshotError> {
    let code = r.u8()?;
    let transport = TransportKind::from_code(code).ok_or_else(|| SnapshotError::Corrupt {
        reason: format!("invalid transport byte {code}"),
    })?;
    let messages = match r.u8()? {
        0 => None,
        1 => {
            let rounds = r.u64()?;
            let total_messages = r.u64()?;
            let bytes = r.u64()?;
            let pair_count = r.count()?;
            let mut pairs = Vec::with_capacity(pair_count);
            for _ in 0..pair_count {
                pairs.push(PairStats {
                    src: r.u64()? as usize,
                    dst: r.u64()? as usize,
                    messages: r.u64()?,
                    bytes: r.u64()?,
                });
            }
            Some(MessageStats {
                rounds,
                messages: total_messages,
                bytes,
                pairs,
            })
        }
        b => {
            return Err(SnapshotError::Corrupt {
                reason: format!("invalid message-stats tag {b}"),
            })
        }
    };
    Ok((transport, messages))
}

/// Serializes the emulator adjacency implied by `records` as an all-`u64`
/// weighted CSR: `n`, `m` (distinct undirected edges), `adj_len = 2m`, the
/// `(n+1)`-entry offset array, then `(neighbor, weight)` pairs with every
/// vertex's neighbors ascending. The words are the replayed emulator's
/// own [`WeightedGraph::csr`] — the builder the heap query store reads —
/// so a pair keeps its lightest weight over the stream and the section is
/// a pure function of the records: decode byte-compares it against a
/// recomputation, and [`MappedEmulator`] runs the SSSP kernel
/// ([`dijkstra::sssp`], which reads this layout as [`CsrWords`]) over it
/// without ever touching the record stream.
fn emu_csr_section(n: usize, records: &[(WeightedEdge, EdgeProvenance)]) -> Vec<u8> {
    let mut h = WeightedGraph::new(n);
    for (e, _) in records {
        h.add_edge(e.u, e.v, e.weight);
    }
    let csr = h.csr();
    let mut w = Writer::new();
    w.u64(n as u64);
    w.u64(h.num_edges() as u64);
    w.u64(csr.pairs.len() as u64 / 2);
    for &word in csr.offsets.iter().chain(csr.pairs) {
        w.u64(word);
    }
    w.buf
}

/// Byte ranges of the five v4 sections inside the checksummed content.
struct SectionTable {
    key: std::ops::Range<usize>,
    meta: std::ops::Range<usize>,
    records: std::ops::Range<usize>,
    stats: std::ops::Range<usize>,
    emu: std::ops::Range<usize>,
}

/// Parses and validates the v4 section directory over the checksummed
/// content (magic and version already checked): exactly the five known
/// ids in order, every section 8-aligned, in-bounds, and non-overlapping.
fn parse_directory(content: &[u8]) -> Result<SectionTable, SnapshotError> {
    let mut r = Reader::new(content);
    r.take(MAGIC.len() + 4)?;
    let count = r.u32()? as usize;
    if count != SECTION_IDS.len() {
        return Err(SnapshotError::Corrupt {
            reason: format!(
                "section directory declares {count} sections, expected {}",
                SECTION_IDS.len()
            ),
        });
    }
    let mut ranges = Vec::with_capacity(count);
    let mut prev_end = V4_HEADER + count * DIR_ENTRY;
    if prev_end > content.len() {
        return Err(SnapshotError::Truncated {
            offset: content.len(),
        });
    }
    for (i, &expected_id) in SECTION_IDS.iter().enumerate() {
        let id = r.u64()?;
        let off = r.u64()?;
        let len = r.u64()?;
        if id != expected_id {
            return Err(SnapshotError::Corrupt {
                reason: format!("directory entry {i} has id {id}, expected {expected_id}"),
            });
        }
        let off = usize::try_from(off).map_err(|_| SnapshotError::Corrupt {
            reason: format!("section {id} offset {off} overflows"),
        })?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt {
            reason: format!("section {id} length {len} overflows"),
        })?;
        if off % 8 != 0 {
            return Err(SnapshotError::Corrupt {
                reason: format!("section {id} offset {off} is not 8-aligned"),
            });
        }
        if off < prev_end {
            return Err(SnapshotError::Corrupt {
                reason: format!("section {id} at {off} overlaps the previous section"),
            });
        }
        let end = off
            .checked_add(len)
            .filter(|&e| e <= content.len())
            .ok_or_else(|| SnapshotError::Corrupt {
                reason: format!("section {id} ({off}+{len}) extends past the file"),
            })?;
        ranges.push(off..end);
        prev_end = end;
    }
    let mut it = ranges.into_iter();
    Ok(SectionTable {
        key: it.next().unwrap(),
        meta: it.next().unwrap(),
        records: it.next().unwrap(),
        stats: it.next().unwrap(),
        emu: it.next().unwrap(),
    })
}

/// A section reader must consume its slice exactly.
fn section_end(r: &Reader, name: &str) -> Result<(), SnapshotError> {
    if r.pos != r.buf.len() {
        return Err(SnapshotError::Corrupt {
            reason: format!(
                "{} trailing bytes after the {name} section content",
                r.buf.len() - r.pos
            ),
        });
    }
    Ok(())
}

impl Snapshot {
    /// Captures a build output under its key. The stream fingerprint is
    /// computed here, from the same records that are stored, so encode →
    /// decode → verify is closed.
    pub fn from_output(key: CacheKey, out: &BuildOutput) -> Self {
        Snapshot {
            key,
            stream_fingerprint: out.stream_fingerprint(),
            num_vertices: out.emulator.num_vertices(),
            records: out.emulator.provenance().to_vec(),
            certified: out.certified,
            size_bound: out.size_bound,
            congest: out.congest.clone(),
            stats: BuildStats {
                cache: CacheStatus::Miss,
                ..out.stats.clone()
            },
        }
    }

    /// Serializes to the version-4 wire format: section directory, five
    /// 8-aligned sections, trailing FNV-64 checksum over everything before
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if a record is a self-loop or has an endpoint
    /// `≥ num_vertices`: no emulator holds one, and no decodable snapshot.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_version(VERSION)
    }

    /// [`encode`](Self::encode) pinned to an older readable version —
    /// kept so the forward-compat suite can produce genuine old files.
    /// Versions below [`MIN_VERSION`] are not encodable.
    pub fn encode_version(&self, version: u32) -> Vec<u8> {
        assert!(
            (MIN_VERSION..=VERSION).contains(&version),
            "cannot encode codec version {version}"
        );
        if version >= 4 {
            return self.encode_v4();
        }
        // v2/v3: one sequential stream, no directory.
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(version);
        w.u64(self.key.graph_fingerprint);
        w.u64(self.key.config_digest);
        w.u32(self.key.algorithm.len() as u32);
        w.bytes(self.key.algorithm.as_bytes());
        w.u64(self.stream_fingerprint);
        w.u64(self.num_vertices as u64);
        write_records(&mut w, &self.records);
        write_certified(&mut w, self.certified);
        opt_f64(&mut w, self.size_bound);
        write_congest(&mut w, &self.congest);
        write_core_stats(&mut w, &self.stats);
        if version >= 3 {
            // v3: the transport the build ran on plus its measured message
            // statistics (worker-pool builds only).
            write_transport_stats(&mut w, &self.stats);
        }
        w.finish()
    }

    /// The v4 layout: `MAGIC | version | section count | directory
    /// (id, offset, length per section) | sections | checksum`, every
    /// section starting on an 8-byte boundary so the all-`u64`
    /// [`SECTION_EMU_CSR`] payload is alignment-safe under mmap.
    fn encode_v4(&self) -> Vec<u8> {
        let mut key = Writer::new();
        key.u64(self.key.graph_fingerprint);
        key.u64(self.key.config_digest);
        key.u32(self.key.algorithm.len() as u32);
        key.bytes(self.key.algorithm.as_bytes());

        let mut meta = Writer::new();
        meta.u64(self.stream_fingerprint);
        meta.u64(self.num_vertices as u64);
        write_certified(&mut meta, self.certified);
        opt_f64(&mut meta, self.size_bound);
        write_congest(&mut meta, &self.congest);

        let mut records = Writer::new();
        write_records(&mut records, &self.records);

        let mut stats = Writer::new();
        write_core_stats(&mut stats, &self.stats);
        write_transport_stats(&mut stats, &self.stats);

        let emu = emu_csr_section(self.num_vertices, &self.records);

        let bodies = [key.buf, meta.buf, records.buf, stats.buf, emu];
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(4);
        w.u32(SECTION_IDS.len() as u32);
        let mut starts = [0usize; 5];
        let mut offset = V4_HEADER + SECTION_IDS.len() * DIR_ENTRY;
        for (i, body) in bodies.iter().enumerate() {
            let start = (offset + 7) & !7;
            starts[i] = start;
            w.u64(SECTION_IDS[i]);
            w.u64(start as u64);
            w.u64(body.len() as u64);
            offset = start + body.len();
        }
        for (i, body) in bodies.iter().enumerate() {
            while w.buf.len() < starts[i] {
                w.u8(0);
            }
            w.bytes(body);
        }
        w.finish()
    }

    /// Decodes and integrity-checks a snapshot.
    ///
    /// Checks, in order: magic, version, checksum over the whole content,
    /// structural validity of every record (edge-kind byte, endpoints in
    /// range), and that the decoded stream reproduces the stored
    /// fingerprint. Any failure is a typed [`SnapshotError`].
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; no variant panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        // Checksum first: it covers everything, so all later parsing runs
        // on bytes already known to be the writer's.
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        let stored_checksum = u64::from_le_bytes(trailer.try_into().unwrap());
        let mut h = Fnv64::new();
        h.write_bytes(content);
        let computed = h.finish();
        if computed != stored_checksum {
            return Err(SnapshotError::ChecksumMismatch {
                stored: stored_checksum,
                computed,
            });
        }
        let snap = if version >= 4 {
            Self::decode_v4(content)?
        } else {
            Self::decode_legacy(content, version)?
        };
        let recomputed = stream_fingerprint(&snap.records);
        if recomputed != snap.stream_fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                stored: snap.stream_fingerprint,
                recomputed,
            });
        }
        Ok(snap)
    }

    /// v2/v3: one sequential stream past magic+version.
    fn decode_legacy(content: &[u8], version: u32) -> Result<Snapshot, SnapshotError> {
        let mut r = Reader::new(content);
        r.take(MAGIC.len() + 4)?;
        let graph_fingerprint = r.u64()?;
        let config_digest = r.u64()?;
        let name_len = r.u32()? as usize;
        let algorithm =
            String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| SnapshotError::Corrupt {
                reason: "algorithm name is not UTF-8".into(),
            })?;
        let stream_fp = r.u64()?;
        let num_vertices = r.u64()? as usize;
        let records = read_records(&mut r, num_vertices)?;
        let certified = read_certified(&mut r)?;
        let size_bound = read_opt_f64(&mut r)?;
        let congest = read_congest(&mut r)?;
        let (threads, total, phases, shards) = read_core_stats(&mut r)?;
        // v3 tail; v2 files predate worker transports, so they ran inproc
        // with no message exchange.
        let (transport, messages) = if version >= 3 {
            read_transport_stats(&mut r)?
        } else {
            (TransportKind::Inproc, None)
        };
        section_end(&r, "declared")?;
        Ok(Snapshot {
            key: CacheKey {
                graph_fingerprint,
                algorithm,
                config_digest,
            },
            stream_fingerprint: stream_fp,
            num_vertices,
            records,
            certified,
            size_bound,
            congest,
            stats: BuildStats {
                threads,
                total,
                phases,
                shards,
                transport,
                messages,
                cache: CacheStatus::Miss,
            },
        })
    }

    /// v4: locate every section through the directory, decode each, and
    /// byte-compare the stored [`SECTION_EMU_CSR`] against a recomputation
    /// from the records — a served section that drifted from the stream it
    /// claims to index is corruption, not a quirk.
    fn decode_v4(content: &[u8]) -> Result<Snapshot, SnapshotError> {
        let table = parse_directory(content)?;

        let mut r = Reader::new(&content[table.key.clone()]);
        let graph_fingerprint = r.u64()?;
        let config_digest = r.u64()?;
        let name_len = r.u32()? as usize;
        let algorithm =
            String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| SnapshotError::Corrupt {
                reason: "algorithm name is not UTF-8".into(),
            })?;
        section_end(&r, "key")?;

        let mut r = Reader::new(&content[table.meta.clone()]);
        let stream_fp = r.u64()?;
        let num_vertices = r.u64()? as usize;
        let certified = read_certified(&mut r)?;
        let size_bound = read_opt_f64(&mut r)?;
        let congest = read_congest(&mut r)?;
        section_end(&r, "meta")?;

        let mut r = Reader::new(&content[table.records.clone()]);
        let records = read_records(&mut r, num_vertices)?;
        section_end(&r, "records")?;

        let mut r = Reader::new(&content[table.stats.clone()]);
        let (threads, total, phases, shards) = read_core_stats(&mut r)?;
        let (transport, messages) = read_transport_stats(&mut r)?;
        section_end(&r, "stats")?;

        if content[table.emu.clone()] != emu_csr_section(num_vertices, &records)[..] {
            return Err(SnapshotError::Corrupt {
                reason: "emulator CSR section does not match the record stream".into(),
            });
        }

        Ok(Snapshot {
            key: CacheKey {
                graph_fingerprint,
                algorithm,
                config_digest,
            },
            stream_fingerprint: stream_fp,
            num_vertices,
            records,
            certified,
            size_bound,
            congest,
            stats: BuildStats {
                threads,
                total,
                phases,
                shards,
                transport,
                messages,
                cache: CacheStatus::Miss,
            },
        })
    }

    /// Replays the stored stream into a live emulator (see
    /// [`Emulator::from_provenance`]).
    pub fn rebuild_emulator(&self) -> Emulator {
        Emulator::from_provenance(self.num_vertices, self.records.iter().cloned())
    }

    /// Converts a verified snapshot into a [`BuildOutput`] for the given
    /// construction. `load_time` becomes `stats.total`; the phase list is
    /// empty and `stats.cache` is [`CacheStatus::Hit`] — a warm hit
    /// visibly skipped all phase work.
    pub fn into_output(
        self,
        algorithm: &'static str,
        threads: usize,
        load_time: Duration,
    ) -> BuildOutput {
        BuildOutput {
            emulator: self.rebuild_emulator(),
            certified: self.certified,
            size_bound: self.size_bound,
            trace: None,
            congest: self.congest,
            stats: BuildStats {
                threads,
                total: load_time,
                phases: Vec::new(),
                shards: Vec::new(),
                // The stored transport/messages describe the producing
                // build — kept on a hit so reports still show what ran.
                transport: self.stats.transport,
                messages: self.stats.messages.clone(),
                cache: CacheStatus::Hit,
            },
            algorithm,
        }
    }
}

fn storage_to_snapshot_error(e: StorageError) -> SnapshotError {
    match e {
        StorageError::Io(e) => SnapshotError::Io(e),
        other => SnapshotError::Corrupt {
            reason: other.to_string(),
        },
    }
}

/// A v4 snapshot file held open through the section directory — the
/// serving side of the codec. The file is mapped ([`ByteMap`]: mmap where
/// available, a paged read elsewhere) and **indexed, not decoded**: open
/// verifies the whole-file checksum, parses the small KEY/META sections,
/// and structurally validates the [`SECTION_EMU_CSR`] index (monotone
/// offsets, in-range neighbors) so later reads can never go out of
/// bounds — but the record stream is never materialized. v2/v3 files are
/// refused with [`SnapshotError::UnsupportedVersion`]; decode them with
/// [`Snapshot::decode`] instead.
#[derive(Debug)]
pub struct MappedSnapshot {
    map: ByteMap,
    path: PathBuf,
    key: CacheKey,
    stream_fingerprint: u64,
    num_vertices: usize,
    num_edges: usize,
    num_records: usize,
    certified: Option<(f64, f64)>,
    size_bound: Option<f64>,
    /// Absolute byte offset of the EMU_CSR `(n+1)`-entry offset array.
    emu_offsets_at: usize,
    /// Absolute byte offset of the EMU_CSR `(neighbor, weight)` pairs.
    emu_adj_at: usize,
}

impl MappedSnapshot {
    /// Opens and indexes a v4 snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for pre-v4 files (they carry
    /// no section directory), otherwise any integrity failure of the
    /// header, checksum, directory, or the served sections.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let path = path.into();
        let map = ByteMap::open(&path).map_err(storage_to_snapshot_error)?;
        let bytes = map.bytes();
        if bytes.len() < V4_HEADER + 8 {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        let stored_checksum = u64::from_le_bytes(trailer.try_into().unwrap());
        let mut h = Fnv64::new();
        h.write_bytes(content);
        let computed = h.finish();
        if computed != stored_checksum {
            return Err(SnapshotError::ChecksumMismatch {
                stored: stored_checksum,
                computed,
            });
        }
        let table = parse_directory(content)?;

        let mut r = Reader::new(&content[table.key.clone()]);
        let graph_fingerprint = r.u64()?;
        let config_digest = r.u64()?;
        let name_len = r.u32()? as usize;
        let algorithm =
            String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| SnapshotError::Corrupt {
                reason: "algorithm name is not UTF-8".into(),
            })?;
        section_end(&r, "key")?;

        let mut r = Reader::new(&content[table.meta.clone()]);
        let stream_fingerprint = r.u64()?;
        let num_vertices = r.u64()? as usize;
        let certified = read_certified(&mut r)?;
        let size_bound = read_opt_f64(&mut r)?;
        read_congest(&mut r)?;
        section_end(&r, "meta")?;

        // Record count without decoding the stream: the section's leading
        // u64.
        let mut r = Reader::new(&content[table.records.clone()]);
        let num_records = r.count()?;

        // Structural validation of the served index, so the kernel over it
        // can never read out of bounds: declared lengths consistent,
        // offsets monotone and ending at the adjacency length, every
        // neighbor id in range.
        let emu = table.emu.clone();
        let mut r = Reader::new(&content[emu.clone()]);
        let n = r.u64()? as usize;
        let m = r.u64()? as usize;
        let adj_len = r.u64()? as usize;
        if n != num_vertices {
            return Err(SnapshotError::Corrupt {
                reason: format!("emulator CSR has {n} vertices, meta declares {num_vertices}"),
            });
        }
        if Some(adj_len) != m.checked_mul(2) {
            return Err(SnapshotError::Corrupt {
                reason: format!("emulator CSR adjacency length {adj_len} is not 2·{m}"),
            });
        }
        let expected_len = 24 + 8 * (n + 1) + 16 * adj_len;
        if emu.len() != expected_len {
            return Err(SnapshotError::Corrupt {
                reason: format!(
                    "emulator CSR section is {} bytes, layout requires {expected_len}",
                    emu.len()
                ),
            });
        }
        let emu_offsets_at = emu.start + 24;
        let emu_adj_at = emu_offsets_at + 8 * (n + 1);
        let mut prev = 0u64;
        for i in 0..=n {
            let o = map.u64_at(emu_offsets_at + 8 * i);
            if o < prev || o > adj_len as u64 {
                return Err(SnapshotError::Corrupt {
                    reason: format!("emulator CSR offset {i} is not monotone"),
                });
            }
            prev = o;
        }
        if prev != adj_len as u64 {
            return Err(SnapshotError::Corrupt {
                reason: format!(
                    "emulator CSR offsets end at {prev}, adjacency length is {adj_len}"
                ),
            });
        }
        for i in 0..adj_len {
            let nb = map.u64_at(emu_adj_at + 16 * i);
            if nb >= n as u64 {
                return Err(SnapshotError::Corrupt {
                    reason: format!("emulator CSR neighbor {nb} out of range for n={n}"),
                });
            }
        }

        Ok(MappedSnapshot {
            map,
            path,
            key: CacheKey {
                graph_fingerprint,
                algorithm,
                config_digest,
            },
            stream_fingerprint,
            num_vertices,
            num_edges: m,
            num_records,
            certified,
            size_bound,
            emu_offsets_at,
            emu_adj_at,
        })
    }

    /// The file this snapshot is served from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The entry's key, straight from the KEY section.
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// Stored stream fingerprint (the identity of the output).
    pub fn stream_fingerprint(&self) -> u64 {
        self.stream_fingerprint
    }

    /// Emulator vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Distinct-edge count, from the EMU_CSR header — no record decode.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Insertion-record count, from the RECORDS section header.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Certified `(α, β)`, when the producing construction certified one.
    pub fn certified(&self) -> Option<(f64, f64)> {
        self.certified
    }

    /// Proven size bound, when known.
    pub fn size_bound(&self) -> Option<f64> {
        self.size_bound
    }

    /// Whether the file is OS-mapped (`false`: the paged fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Full verification — the same decode the cache integrity pass runs,
    /// including the record-stream fingerprint and the byte-compare of the
    /// served EMU_CSR section against the records.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] the full decode reports.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        Snapshot::decode(self.map.bytes()).map(|_| ())
    }

    /// Converts this handle into its kernel-ready [`MappedEmulator`].
    pub fn into_emulator(self) -> MappedEmulator {
        MappedEmulator {
            map: self.map,
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            offsets_at: self.emu_offsets_at,
            adj_at: self.emu_adj_at,
        }
    }

    /// Opens an independent [`MappedEmulator`] over the same file,
    /// re-validating it (a file swapped out under this handle is caught,
    /// never trusted).
    ///
    /// # Errors
    ///
    /// Any open-time failure, plus [`SnapshotError::FingerprintMismatch`]
    /// when the file no longer holds the stream this handle indexed.
    pub fn emulator(&self) -> Result<MappedEmulator, SnapshotError> {
        let reopened = MappedSnapshot::open(&self.path)?;
        if reopened.stream_fingerprint != self.stream_fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                stored: self.stream_fingerprint,
                recomputed: reopened.stream_fingerprint,
            });
        }
        Ok(reopened.into_emulator())
    }
}

/// An emulator served straight from a v4 snapshot's [`SECTION_EMU_CSR`]
/// bytes: the SSSP kernel ([`dijkstra::sssp`]) reads the mapped
/// offset/pair words in place, so answering queries holds `O(n)` distance
/// state but never the `O(m)` structure on the heap. Distances are
/// shortest-path distances over exactly the edge set the heap
/// [`Emulator`] holds, and shortest distances are unique — answers are
/// byte-identical to the heap path (the out-of-core conformance suite
/// locks this registry-wide).
#[derive(Debug)]
pub struct MappedEmulator {
    map: ByteMap,
    num_vertices: usize,
    num_edges: usize,
    offsets_at: usize,
    adj_at: usize,
}

impl MappedEmulator {
    /// Opens a v4 snapshot file directly as a served emulator.
    ///
    /// # Errors
    ///
    /// Any [`MappedSnapshot::open`] failure.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        Ok(MappedSnapshot::open(path)?.into_emulator())
    }

    fn off(&self, v: VertexId) -> usize {
        self.map.u64_at(self.offsets_at + 8 * v) as usize
    }

    /// Emulator vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Distinct-edge count.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v` in the emulator (distinct neighbors — the same count
    /// the heap emulator's CSR reports).
    pub fn degree(&self, v: VertexId) -> usize {
        self.off(v + 1) - self.off(v)
    }

    /// Whether the underlying file is OS-mapped.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Runs `f` over the section's words, borrowed from the file where
    /// its little-endian layout is native (decoded for the call
    /// elsewhere). Open validated them: offsets monotone, neighbors in
    /// range.
    pub(crate) fn with_csr<R>(&self, f: impl FnOnce(CsrWords<'_>) -> R) -> R {
        let offsets = self
            .map
            .u64_words(self.offsets_at..self.offsets_at + 8 * (self.num_vertices + 1));
        let pairs = self
            .map
            .u64_words(self.adj_at..self.adj_at + 32 * self.num_edges);
        f(CsrWords {
            offsets: &offsets,
            pairs: &pairs,
        })
    }

    /// Single-source distances in `H` — the SSSP kernel over the mapped
    /// words. Identical output to [`Emulator::distances_from`]: shortest
    /// distances are unique, so the storage layout cannot change them.
    pub fn distances_from(&self, source: VertexId) -> Vec<Option<Dist>> {
        self.with_csr(|csr| dijkstra::sssp(csr, source))
    }

    /// Distance between `u` and `v` in `H` (`None` when disconnected).
    pub fn distance(&self, u: VertexId, v: VertexId) -> Option<Dist> {
        self.distances_from(u)[v]
    }
}

/// Where and how [`build_cached`] consults the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache directory (created on first store).
    pub dir: PathBuf,
    /// Consult existing entries (warm hits).
    pub read: bool,
    /// Store fresh builds.
    pub write: bool,
}

impl CacheConfig {
    /// Read-write cache rooted at `dir` — the default mode everywhere.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            read: true,
            write: true,
        }
    }
}

/// One entry as reported by [`ConstructionCache::ls`] /
/// [`ConstructionCache::verify`].
#[derive(Debug)]
pub struct CacheEntry {
    /// Path of the snapshot file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Decoded header + integrity verdict.
    pub detail: Result<CacheEntryDetail, SnapshotError>,
}

/// The healthy half of a [`CacheEntry`].
#[derive(Debug, Clone)]
pub struct CacheEntryDetail {
    /// The entry's key.
    pub key: CacheKey,
    /// Stored (and re-verified) stream fingerprint.
    pub stream_fingerprint: u64,
    /// Emulator vertex count.
    pub num_vertices: usize,
    /// Insertion-record count.
    pub records: usize,
}

/// A directory of construction snapshots.
#[derive(Debug, Clone)]
pub struct ConstructionCache {
    dir: PathBuf,
}

impl ConstructionCache {
    /// A cache rooted at `dir` (not created until the first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ConstructionCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of the entry for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads and fully verifies the entry for `key`. `Ok(None)` is a clean
    /// miss (no file); a present-but-invalid file is an `Err` so callers
    /// can distinguish "cold" from "rotten".
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`], including [`SnapshotError::KeyMismatch`] when
    /// the file decodes to a different key than its name promised.
    pub fn load(&self, key: &CacheKey) -> Result<Option<Snapshot>, SnapshotError> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let snap = Snapshot::decode(&bytes)?;
        if snap.key != *key {
            return Err(SnapshotError::KeyMismatch {
                entry: snap.key.to_string(),
                requested: key.to_string(),
            });
        }
        Ok(Some(snap))
    }

    /// Atomically stores `snapshot` (write to a temp file, then rename), so
    /// a concurrent reader never observes a half-written entry.
    ///
    /// Safe under concurrent writers: the temp name carries the pid *and* a
    /// process-wide sequence number, so two threads storing the same key
    /// never interleave writes into one temp file — each publishes a
    /// complete image and the later rename wins (both images are
    /// byte-identical for a deterministic construction anyway).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn store(&self, snapshot: &Snapshot) -> Result<PathBuf, SnapshotError> {
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(&snapshot.key);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("{EXTENSION}.tmp-{}-{seq}", std::process::id()));
        std::fs::write(&tmp, snapshot.encode())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Paths of all snapshot files in the directory, name order (an absent
    /// directory is an empty cache).
    fn entry_paths(&self) -> Result<Vec<PathBuf>, SnapshotError> {
        let mut paths = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(paths),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(paths)
    }

    /// Inspects every entry: decode + checksum + fingerprint + name/key
    /// consistency. This is the one integrity pass `ls` and `verify` share
    /// with CI.
    ///
    /// Entries are returned sorted by **(algorithm, stream fingerprint,
    /// path)** — decoded content, not directory order — so `usnae cache
    /// ls` output is stable across filesystems and CI log diffs are
    /// byte-comparable. Broken entries sort last, by path.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the directory itself is unreadable;
    /// per-entry problems are reported in the entries, not as an `Err`.
    pub fn ls(&self) -> Result<Vec<CacheEntry>, SnapshotError> {
        let mut out = Vec::new();
        for path in self.entry_paths()? {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    out.push(CacheEntry {
                        path,
                        bytes: 0,
                        detail: Err(e.into()),
                    });
                    continue;
                }
            };
            let len = bytes.len() as u64;
            let detail = Snapshot::decode(&bytes).and_then(|snap| {
                let named = snap.key.file_name();
                let actual = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if named != actual {
                    return Err(SnapshotError::KeyMismatch {
                        entry: named,
                        requested: actual.to_string(),
                    });
                }
                Ok(CacheEntryDetail {
                    stream_fingerprint: snap.stream_fingerprint,
                    num_vertices: snap.num_vertices,
                    records: snap.records.len(),
                    key: snap.key,
                })
            });
            out.push(CacheEntry {
                path,
                bytes: len,
                detail,
            });
        }
        // Filesystem read order (and even the path sort above) is not the
        // contract: sort by decoded (algo, stream fingerprint) so two
        // caches holding the same entries always list identically.
        out.sort_by_cached_key(|e| match &e.detail {
            Ok(d) => (
                0u8,
                d.key.algorithm.clone(),
                d.stream_fingerprint,
                e.path.clone(),
            ),
            Err(_) => (1u8, String::new(), 0, e.path.clone()),
        });
        Ok(out)
    }

    /// [`ls`](Self::ls), keeping only the broken entries — what
    /// `usnae cache verify` prints and CI asserts empty.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the directory is unreadable.
    pub fn verify(&self) -> Result<Vec<CacheEntry>, SnapshotError> {
        Ok(self
            .ls()?
            .into_iter()
            .filter(|e| e.detail.is_err())
            .collect())
    }

    /// Deletes every snapshot file — plus any `*.usnae.tmp-*` leftovers
    /// from stores interrupted mid-write, which `ls`/`verify` deliberately
    /// never surface as entries. Returns how many *entries* were removed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn clear(&self) -> Result<usize, SnapshotError> {
        let paths = self.entry_paths()?;
        let n = paths.len();
        for path in paths {
            std::fs::remove_file(path)?;
        }
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(n),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            let is_stale_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(&format!(".{EXTENSION}.tmp-")));
            if is_stale_tmp {
                std::fs::remove_file(path)?;
            }
        }
        Ok(n)
    }
}

/// Point-in-time usage and counter snapshot of an [`EvictingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheUsage {
    /// Entries currently resident (tracked by this handle).
    pub entries: usize,
    /// Bytes currently resident across those entries.
    pub bytes_resident: u64,
    /// Configured byte budget (`None` = unbounded).
    pub budget: Option<u64>,
    /// Warm lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Snapshots published through this handle.
    pub stores: u64,
    /// Entries unlinked to get back under the budget.
    pub evictions: u64,
}

/// How long after a file's mtime its identity still cannot vouch for its
/// content: a rewrite inside one timestamp tick keeps inode, length and
/// mtime (git's racy-index rule; one second covers filesystems that
/// store whole-second mtimes).
const RACY_WINDOW: Duration = Duration::from_secs(1);

/// A file's identity as one `stat` reports it: device, inode, length and
/// modification time. The two memos of the serve path (parsed graphs and
/// verified cache entries) trust what they read from a file for as long
/// as its path keeps the identity [`FileId::read_through`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime: SystemTime,
}

impl FileId {
    /// The identity of the file at `path` (one `stat`, following links).
    pub(crate) fn of(path: &Path) -> std::io::Result<FileId> {
        let meta = std::fs::metadata(path)?;
        #[cfg(unix)]
        let (dev, ino) = {
            use std::os::unix::fs::MetadataExt;
            (meta.dev(), meta.ino())
        };
        #[cfg(not(unix))]
        let (dev, ino) = (0, 0);
        Ok(FileId {
            dev,
            ino,
            len: meta.len(),
            mtime: meta.modified()?,
        })
    }

    /// Runs `read` over the file at `path` and returns its result with
    /// the identity that may vouch for it later: the file's identity if
    /// it was the same before and after `read` and its mtime lay at least
    /// [`RACY_WINDOW`] in the past when `read` began. `None` means the
    /// next request must read the file again.
    pub(crate) fn read_through<T>(path: &Path, read: impl FnOnce() -> T) -> (T, Option<FileId>) {
        let began = SystemTime::now();
        let before = FileId::of(path).ok();
        let out = read();
        let after = FileId::of(path).ok();
        let settled = |id: &FileId| {
            began
                .duration_since(id.mtime)
                .is_ok_and(|age| age >= RACY_WINDOW)
        };
        let id = before.filter(|id| Some(*id) == after && settled(id));
        (out, id)
    }
}

/// What a warm [`EvictingCache::lookup`] answers about an entry: the
/// header fields of a fully opened [`MappedSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryMeta {
    /// Stored stream fingerprint (the identity of the output).
    pub(crate) stream_fingerprint: u64,
    /// Emulator vertex count.
    pub(crate) num_vertices: usize,
    /// Distinct-edge count.
    pub(crate) num_edges: usize,
}

/// One entry of the [`EvictingCache`] index.
#[derive(Debug)]
struct Resident {
    /// File size in bytes (what the budget counts).
    bytes: u64,
    /// The file identity a full [`MappedSnapshot::open`] verified, and
    /// what that open read.
    verified: Option<(FileId, EntryMeta)>,
}

impl Resident {
    fn new(bytes: u64) -> Self {
        Resident {
            bytes,
            verified: None,
        }
    }
}

/// Recency index + counters behind the [`EvictingCache`] mutex.
#[derive(Debug, Default)]
struct EvictState {
    /// Entry file name → its record, for every resident entry.
    entries: BTreeMap<String, Resident>,
    /// Entry file names, least-recently-used first.
    recency: std::collections::VecDeque<String>,
    hits: u64,
    misses: u64,
    stores: u64,
    evictions: u64,
}

impl EvictState {
    /// Moves `name` to the most-recently-used position (inserting it if
    /// unseen).
    fn touch(&mut self, name: &str) {
        if let Some(i) = self.recency.iter().position(|n| n == name) {
            self.recency.remove(i);
        }
        self.recency.push_back(name.to_string());
    }

    /// Counts a hit on `name`, indexing it first when another handle or
    /// process published it.
    fn hit(&mut self, name: &str, path: &Path) {
        if !self.entries.contains_key(name) {
            if let Ok(meta) = std::fs::metadata(path) {
                self.entries
                    .insert(name.to_string(), Resident::new(meta.len()));
            }
        }
        self.touch(name);
        self.hits += 1;
    }

    fn bytes_resident(&self) -> u64 {
        self.entries.values().map(|r| r.bytes).sum()
    }
}

/// A byte-budgeted, LRU-evicting view of a [`ConstructionCache`] — the
/// shared cache the `usnae serve` daemon keeps warm across jobs.
///
/// Three properties the serving layer needs that the plain directory
/// cache deliberately does not provide:
///
/// * **Eviction**: entries are ranked least-recently-used (every `load`,
///   mapped open, or `store` refreshes recency under one mutex, so the
///   order is a deterministic function of the access sequence) and the
///   LRU entry is unlinked whenever resident bytes exceed the budget.
///   The most recently touched entry is never evicted, even when it
///   alone exceeds the budget — a cache that evicted what it just
///   stored could never serve a warm hit.
/// * **Lock-free readers**: the mutex guards only the in-memory index.
///   Readers open published snapshot files directly; eviction unlinks a
///   file, which on POSIX leaves already-open handles (including mmaps)
///   valid. A reader that races an unlink sees a clean miss and
///   rebuilds — read-through, never an error.
/// * **Concurrent-writer safety**: publication is atomic
///   (unique-named temp file + rename, see
///   [`ConstructionCache::store`]), so no reader ever observes a torn
///   snapshot, and same-key writers each publish a complete image.
///
/// Counters (hits/misses/stores/evictions) feed the daemon's `stats`
/// response. The index tracks entries this handle has seen; entries
/// published by other processes join it when first loaded. Each record
/// also holds the file identity a full open verified, so the serve
/// daemon's warm lookup costs one `stat` while the entry file is
/// unchanged; eviction drops the record with the entry.
#[derive(Debug)]
pub struct EvictingCache {
    inner: ConstructionCache,
    budget: Option<u64>,
    state: std::sync::Mutex<EvictState>,
}

impl EvictingCache {
    /// Opens a budgeted cache over `dir`, seeding the recency index from
    /// the entries already on disk (file-name order — deterministic on
    /// every filesystem) and evicting down to `budget` immediately.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the directory exists but is unreadable.
    pub fn open(dir: impl Into<PathBuf>, budget: Option<u64>) -> Result<Self, SnapshotError> {
        let inner = ConstructionCache::new(dir);
        let mut state = EvictState::default();
        for path in inner.entry_paths()? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let bytes = std::fs::metadata(&path)?.len();
            state.entries.insert(name.to_string(), Resident::new(bytes));
            state.recency.push_back(name.to_string());
        }
        let cache = EvictingCache {
            inner,
            budget,
            state: std::sync::Mutex::new(state),
        };
        {
            let mut state = cache.state.lock().expect("cache state lock");
            cache.evict_to_budget(&mut state);
        }
        Ok(cache)
    }

    /// The underlying directory cache.
    pub fn inner(&self) -> &ConstructionCache {
        &self.inner
    }

    /// Absolute path of the entry for `key` (whether or not resident).
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.inner.entry_path(key)
    }

    /// Unlinks LRU entries until resident bytes fit the budget, always
    /// sparing the most-recently-used entry. Caller holds the lock.
    fn evict_to_budget(&self, state: &mut EvictState) {
        let Some(budget) = self.budget else { return };
        while state.bytes_resident() > budget && state.recency.len() > 1 {
            let Some(name) = state.recency.pop_front() else {
                break;
            };
            state.entries.remove(&name);
            state.evictions += 1;
            // A missing file just means a concurrent clear got there
            // first; the index entry is gone either way.
            let _ = std::fs::remove_file(self.inner.dir().join(&name));
        }
    }

    /// Loads and fully verifies the entry for `key`, refreshing its
    /// recency on a hit. `Ok(None)` is a clean miss.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] for a present-but-invalid entry.
    pub fn load(&self, key: &CacheKey) -> Result<Option<Snapshot>, SnapshotError> {
        let loaded = self.inner.load(key);
        let mut state = self.state.lock().expect("cache state lock");
        match &loaded {
            Ok(Some(_)) => state.hit(&key.file_name(), &self.inner.entry_path(key)),
            _ => state.misses += 1,
        }
        loaded
    }

    /// Opens the entry for `key` as a zero-copy [`MappedSnapshot`]
    /// (structural validation only — no record decode), refreshing its
    /// recency. `Ok(None)` is a clean miss; a present-but-unmappable
    /// entry (legacy v2/v3 codec, corruption) also counts as a miss so
    /// the caller rebuilds read-through.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KeyMismatch`] when the file maps cleanly but
    /// belongs to a different key than its name promised.
    pub fn open_mapped(&self, key: &CacheKey) -> Result<Option<MappedSnapshot>, SnapshotError> {
        let path = self.inner.entry_path(key);
        let mapped = match MappedSnapshot::open(&path) {
            Ok(m) => m,
            Err(_) => {
                self.state.lock().expect("cache state lock").misses += 1;
                return Ok(None);
            }
        };
        if mapped.key() != key {
            return Err(SnapshotError::KeyMismatch {
                entry: mapped.key().to_string(),
                requested: key.to_string(),
            });
        }
        self.state
            .lock()
            .expect("cache state lock")
            .hit(&key.file_name(), &path);
        Ok(Some(mapped))
    }

    /// The serve daemon's warm lookup: the entry for `key`, answered
    /// from its index record with one `stat` when the entry file still
    /// has the identity a full open verified. Any other file — first
    /// sight, a file renamed over the entry, a deleted file, a racy
    /// timestamp — goes through [`open_mapped`](Self::open_mapped)
    /// (checksum plus structure), and the identity is recorded only when
    /// it was the same before and after that open and not racy. Hits,
    /// misses and recency count as in `open_mapped`.
    ///
    /// # Errors
    ///
    /// As [`open_mapped`](Self::open_mapped).
    pub(crate) fn lookup(&self, key: &CacheKey) -> Result<Option<EntryMeta>, SnapshotError> {
        let name = key.file_name();
        let path = self.inner.entry_path(key);
        if let Ok(id) = FileId::of(&path) {
            let mut state = self.state.lock().expect("cache state lock");
            let recorded = state.entries.get(&name).and_then(|r| r.verified);
            if let Some((_, meta)) = recorded.filter(|(verified, _)| *verified == id) {
                state.touch(&name);
                state.hits += 1;
                return Ok(Some(meta));
            }
        }
        let (opened, id) = FileId::read_through(&path, || self.open_mapped(key));
        let Some(mapped) = opened? else {
            return Ok(None);
        };
        let meta = EntryMeta {
            stream_fingerprint: mapped.stream_fingerprint(),
            num_vertices: mapped.num_vertices(),
            num_edges: mapped.num_edges(),
        };
        if let Some(id) = id {
            let mut state = self.state.lock().expect("cache state lock");
            if let Some(resident) = state.entries.get_mut(&name) {
                resident.verified = Some((id, meta));
            }
        }
        Ok(Some(meta))
    }

    /// Atomically publishes `snapshot`, indexes it as most recently used,
    /// and evicts LRU entries until the budget holds again.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn store(&self, snapshot: &Snapshot) -> Result<PathBuf, SnapshotError> {
        let path = self.inner.store(snapshot)?;
        // A concurrent store of another key can evict this entry between
        // our rename and this stat; index the encoded size then — the
        // entry just becomes an ordinary read-through miss later.
        let bytes = std::fs::metadata(&path)
            .map(|m| m.len())
            .unwrap_or_else(|_| snapshot.encode().len() as u64);
        let name = snapshot.key.file_name();
        let mut state = self.state.lock().expect("cache state lock");
        state.entries.insert(name.clone(), Resident::new(bytes));
        state.touch(&name);
        state.stores += 1;
        self.evict_to_budget(&mut state);
        Ok(path)
    }

    /// The current usage/counter snapshot (what the daemon's `stats`
    /// response reports).
    pub fn usage(&self) -> CacheUsage {
        let state = self.state.lock().expect("cache state lock");
        CacheUsage {
            entries: state.entries.len(),
            bytes_resident: state.bytes_resident(),
            budget: self.budget,
            hits: state.hits,
            misses: state.misses,
            stores: state.stores,
            evictions: state.evictions,
        }
    }

    /// Read-through cached build honoring the budget: a verified warm
    /// entry is loaded (refreshing recency), anything else — cold,
    /// evicted, or rotten — rebuilds and republishes, evicting as
    /// needed. Semantics otherwise match [`build_cached`]; traced
    /// configs bypass the cache entirely.
    ///
    /// # Errors
    ///
    /// [`BuildError`] from the underlying construction, or
    /// [`BuildError::Cache`] when the fresh snapshot cannot be stored.
    pub fn build_cached(
        &self,
        construction: &dyn Construction,
        g: &Graph,
        cfg: &BuildConfig,
    ) -> Result<BuildOutput, BuildError> {
        cfg.validate().map_err(BuildError::Param)?;
        if cfg.traced {
            return construction.build(g, cfg);
        }
        let t0 = Instant::now();
        let key = CacheKey::new(g, construction.name(), cfg);
        if let Ok(Some(snap)) = self.load(&key) {
            return Ok(snap.into_output(construction.name(), cfg.threads, t0.elapsed()));
        }
        let mut out = construction.build(g, cfg)?;
        out.stats.cache = CacheStatus::Miss;
        self.store(&Snapshot::from_output(key, &out))
            .map_err(BuildError::Cache)?;
        Ok(out)
    }
}

/// Read-through cached build: the one entry point every consumer
/// (builder, CLI, eval, bench) shares.
///
/// * Traced configs bypass the cache entirely (snapshots store no
///   [`Trace`](crate::api::Trace)); `stats.cache` stays [`CacheStatus::Uncached`].
/// * A warm hit is accepted only after full verification (checksum, key,
///   recomputed stream fingerprint); the returned output has
///   `stats.cache == Hit` and an empty phase list — no phase work ran.
/// * A cold or *rotten* entry falls back to a real build; with `write`
///   enabled the fresh snapshot replaces the entry and `stats.cache` is
///   [`CacheStatus::Miss`].
///
/// # Errors
///
/// [`BuildError`] from the underlying construction, or
/// [`BuildError::Cache`] when a fresh snapshot cannot be stored (a cache
/// the user asked for that silently drops writes would defeat the warm
/// runs they're setting up).
pub fn build_cached(
    construction: &dyn Construction,
    g: &Graph,
    cfg: &BuildConfig,
    cache_cfg: &CacheConfig,
) -> Result<BuildOutput, BuildError> {
    cfg.validate().map_err(BuildError::Param)?;
    if cfg.traced {
        return construction.build(g, cfg);
    }
    let t0 = Instant::now();
    let key = CacheKey::new(g, construction.name(), cfg);
    let cache = ConstructionCache::new(&cache_cfg.dir);
    if cache_cfg.read {
        // A decode/verify failure is deliberately not fatal: the entry is
        // stale bytes, the rebuild below overwrites it.
        if let Ok(Some(snap)) = cache.load(&key) {
            return Ok(snap.into_output(construction.name(), cfg.threads, t0.elapsed()));
        }
    }
    let mut out = construction.build(g, cfg)?;
    out.stats.cache = CacheStatus::Miss;
    if cache_cfg.write {
        cache
            .store(&Snapshot::from_output(key, &out))
            .map_err(BuildError::Cache)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Algorithm;
    use crate::oracle::{EmStore, QueryEngine};
    use usnae_graph::generators;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("usnae-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_output() -> (Graph, BuildOutput, CacheKey) {
        let g = generators::gnp_connected(60, 0.1, 3).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();
        let key = CacheKey::new(&g, c.name(), &cfg);
        (g, out, key)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let (_, out, key) = sample_output();
        let snap = Snapshot::from_output(key, &out);
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(snap, decoded);
        assert_eq!(
            decoded.rebuild_emulator().provenance(),
            out.emulator.provenance()
        );
    }

    #[test]
    fn partitioned_build_stats_survive_the_codec() {
        let g = generators::gnp_connected(60, 0.1, 3).unwrap();
        let cfg = BuildConfig {
            shards: 4,
            partition: usnae_graph::partition::PartitionPolicy::DegreeBalanced,
            ..BuildConfig::default()
        };
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();
        assert_eq!(
            out.stats.shards.len(),
            4,
            "partitioned build records shards"
        );
        let key = CacheKey::new(&g, c.name(), &cfg);
        let snap = Snapshot::from_output(key, &out);
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.stats.shards, out.stats.shards);
        assert_eq!(decoded, snap);
    }

    fn worker_output() -> (Graph, BuildOutput, CacheKey) {
        let g = generators::gnp_connected(60, 0.1, 3).unwrap();
        let cfg = BuildConfig {
            shards: 3,
            threads: 2,
            transport: TransportKind::Channel,
            ..BuildConfig::default()
        };
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();
        let key = CacheKey::new(&g, c.name(), &cfg);
        (g, out, key)
    }

    #[test]
    fn worker_build_stats_survive_the_codec() {
        let (_, out, key) = worker_output();
        assert_eq!(out.stats.transport, TransportKind::Channel);
        let measured = out.stats.messages.clone().expect("worker build measures");
        assert!(measured.rounds > 0 && measured.messages > 0);
        let snap = Snapshot::from_output(key, &out);
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.stats.transport, TransportKind::Channel);
        assert_eq!(decoded.stats.messages, Some(measured));
        assert_eq!(decoded, snap);
    }

    #[test]
    fn v2_snapshots_remain_readable_without_worker_stats() {
        // A genuine version-2 file (pre-transport codec): everything
        // round-trips except the v3 tail, which decodes to its v2
        // defaults — transport `inproc`, no message stats.
        let (_, out, key) = worker_output();
        let snap = Snapshot::from_output(key, &out);
        let v2 = snap.encode_version(2);
        assert_eq!(v2[8], 2, "version byte is little-endian 2");
        let decoded = Snapshot::decode(&v2).unwrap();
        assert_eq!(decoded.stats.transport, TransportKind::Inproc);
        assert_eq!(decoded.stats.messages, None);
        assert_eq!(decoded.records, snap.records);
        assert_eq!(decoded.stream_fingerprint, snap.stream_fingerprint);
        assert_eq!(decoded.stats.shards, snap.stats.shards);
        assert_eq!(
            decoded.rebuild_emulator().provenance(),
            out.emulator.provenance()
        );
    }

    #[test]
    fn encoding_below_min_version_is_refused() {
        let (_, out, key) = sample_output();
        let snap = Snapshot::from_output(key, &out);
        let err = std::panic::catch_unwind(|| snap.encode_version(MIN_VERSION - 1));
        assert!(err.is_err(), "v1 is not encodable");
    }

    #[test]
    fn decode_rejects_garbage_with_typed_errors() {
        let (_, out, key) = sample_output();
        let good = Snapshot::from_output(key, &out).encode();

        assert!(matches!(
            Snapshot::decode(b"not a snapshot at all....."),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::decode(&good[..5]),
            Err(SnapshotError::Truncated { .. })
        ));
        // Version bump.
        let mut versioned = good.clone();
        versioned[8] = 0xFF;
        assert!(matches!(
            Snapshot::decode(&versioned),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found != VERSION && supported == VERSION
        ));
        // Flip one payload byte: checksum catches it.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::decode(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncate mid-records.
        assert!(matches!(
            Snapshot::decode(&good[..good.len() / 2]),
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// Recomputes the trailing whole-file checksum after a tamper, so the
    /// corruption reaches the section parsers instead of the checksum gate.
    fn repatch_checksum(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let mut h = Fnv64::new();
        h.write_bytes(&bytes[..body]);
        let sum = h.finish().to_le_bytes();
        bytes[body..].copy_from_slice(&sum);
    }

    #[test]
    fn v3_snapshots_round_trip_fully() {
        // v3 (pre-directory) carries everything v4 does except the
        // emulator CSR section; the decoded value is identical.
        let (_, out, key) = worker_output();
        let snap = Snapshot::from_output(key, &out);
        let v3 = snap.encode_version(3);
        assert_eq!(v3[8], 3, "version byte is little-endian 3");
        let decoded = Snapshot::decode(&v3).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn v4_layout_has_a_well_formed_directory() {
        let (_, out, key) = sample_output();
        let good = Snapshot::from_output(key, &out).encode();
        assert_eq!(good[8], 4, "default encoding is v4");
        let count = u32::from_le_bytes(good[12..16].try_into().unwrap());
        assert_eq!(count, 5);
        let mut prev_end = (V4_HEADER + 5 * DIR_ENTRY) as u64;
        for (i, &id) in SECTION_IDS.iter().enumerate() {
            let at = V4_HEADER + i * DIR_ENTRY;
            let entry_id = u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
            let off = u64::from_le_bytes(good[at + 8..at + 16].try_into().unwrap());
            let len = u64::from_le_bytes(good[at + 16..at + 24].try_into().unwrap());
            assert_eq!(entry_id, id);
            assert_eq!(off % 8, 0, "section {id} is 8-aligned");
            assert!(off >= prev_end, "section {id} does not overlap");
            prev_end = off + len;
        }
        assert_eq!(
            prev_end as usize + 8,
            good.len(),
            "last section runs to the checksum trailer"
        );
    }

    #[test]
    fn v4_section_directory_corruption_is_typed() {
        let (_, out, key) = sample_output();
        let good = Snapshot::from_output(key, &out).encode();

        // Each tamper is re-checksummed so the directory parser, not the
        // checksum gate, must catch it.
        let corrupt = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            repatch_checksum(&mut bytes);
            Snapshot::decode(&bytes)
        };
        type Tamper = Box<dyn Fn(&mut Vec<u8>)>;
        let cases: Vec<(&str, Tamper)> = vec![
            ("wrong section count", Box::new(|b: &mut Vec<u8>| b[12] = 7)),
            (
                "wrong section id",
                Box::new(|b: &mut Vec<u8>| b[V4_HEADER] = 0x99),
            ),
            (
                "misaligned offset",
                Box::new(|b: &mut Vec<u8>| b[V4_HEADER + 8] ^= 0x01),
            ),
            (
                "overlapping sections",
                Box::new(|b: &mut Vec<u8>| {
                    // Pull the META section's offset back onto KEY's range.
                    let at = V4_HEADER + DIR_ENTRY + 8;
                    let off = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                    b[at..at + 8].copy_from_slice(&(off - 8).to_le_bytes());
                }),
            ),
            (
                "length past end of file",
                Box::new(|b: &mut Vec<u8>| {
                    let at = V4_HEADER + 4 * DIR_ENTRY + 16;
                    let len = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                    b[at..at + 8].copy_from_slice(&(len + 8).to_le_bytes());
                }),
            ),
            (
                "emulator CSR drifted from the records",
                Box::new(|b: &mut Vec<u8>| {
                    let at = V4_HEADER + 4 * DIR_ENTRY + 8;
                    let emu_off = u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
                    // Flip a neighbor byte inside the CSR body.
                    b[emu_off + 24] ^= 0x01;
                }),
            ),
        ];
        for (what, mutate) in &cases {
            assert!(
                matches!(corrupt(mutate.as_ref()), Err(SnapshotError::Corrupt { .. })),
                "{what} must decode to a typed Corrupt error"
            );
        }
        // Control: the repatch helper itself keeps a good file good.
        let mut untouched = good.clone();
        repatch_checksum(&mut untouched);
        assert!(Snapshot::decode(&untouched).is_ok());
    }

    #[test]
    fn mapped_snapshot_round_trips_and_serves_identical_distances() {
        let dir = temp_dir("mapped-snap");
        std::fs::create_dir_all(&dir).unwrap();
        let (_, out, key) = sample_output();
        let snap = Snapshot::from_output(key, &out);
        let path = dir.join("entry.usnae");
        std::fs::write(&path, snap.encode()).unwrap();

        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.key(), &snap.key);
        assert_eq!(mapped.stream_fingerprint(), snap.stream_fingerprint);
        assert_eq!(mapped.num_vertices(), snap.num_vertices);
        assert_eq!(mapped.num_records(), snap.records.len());
        assert_eq!(mapped.certified(), snap.certified);
        assert_eq!(mapped.size_bound(), snap.size_bound);
        mapped.verify().unwrap();

        let heap = out.emulator;
        let em = mapped.emulator().unwrap();
        assert_eq!(em.num_vertices(), heap.num_vertices());
        assert_eq!(em.num_edges(), heap.num_edges());
        for v in 0..heap.num_vertices() {
            assert_eq!(em.degree(v), heap.graph().degree(v), "degree({v})");
            assert_eq!(em.distances_from(v), heap.distances_from(v), "sssp({v})");
        }
        // The heap store reads exactly the mapped words.
        EmStore::heap(heap).with_csr(|built| em.with_csr(|served| assert_eq!(built, served)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_stores_read_an_overflowing_path_as_unreachable() {
        let dir = temp_dir("mapped-overflow");
        std::fs::create_dir_all(&dir).unwrap();
        // 0 –(1)– 1 –(u64::MAX)– 2: the path to 2 overflows `u64`.
        let (_, mut out, key) = sample_output();
        let prov = EdgeProvenance {
            phase: 0,
            kind: EdgeKind::Interconnection,
            charged_to: 0,
        };
        out.emulator = Emulator::new(3);
        out.emulator.add_edge(0, 1, 1, prov);
        out.emulator.add_edge(1, 2, Dist::MAX, prov);
        let path = dir.join("overflow.usnae");
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        let expect = vec![Some(0), Some(1), None];
        assert_eq!(out.emulator.distances_from(0), expect, "the reference");
        let heap = QueryEngine::new(out.emulator, "centralized", None);
        let mapped = MappedEmulator::open(&path).unwrap();
        let mapped = QueryEngine::from_store(EmStore::mapped(mapped), "centralized", None);
        for engine in [&heap, &mapped] {
            assert_eq!(engine.store().distances_from(0), expect);
            assert_eq!(engine.distance(0, 2).value, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_snapshot_refuses_pre_v4_and_tampered_files() {
        let dir = temp_dir("mapped-refuse");
        std::fs::create_dir_all(&dir).unwrap();
        let (_, out, key) = sample_output();
        let snap = Snapshot::from_output(key, &out);

        // Pre-v4 files have no directory to serve from.
        let v3_path = dir.join("v3.usnae");
        std::fs::write(&v3_path, snap.encode_version(3)).unwrap();
        assert!(matches!(
            MappedSnapshot::open(&v3_path),
            Err(SnapshotError::UnsupportedVersion { found: 3, .. })
        ));

        // Bit rot anywhere fails the open-time checksum.
        let mut bytes = snap.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let rot_path = dir.join("rot.usnae");
        std::fs::write(&rot_path, &bytes).unwrap();
        assert!(matches!(
            MappedSnapshot::open(&rot_path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // A drifted CSR body that survives re-checksumming is still caught
        // by the open-time structural scan or the serve-time byte compare.
        let mut drifted = snap.encode();
        let at = V4_HEADER + 4 * DIR_ENTRY + 8;
        let emu_off = u64::from_le_bytes(drifted[at..at + 8].try_into().unwrap()) as usize;
        drifted[emu_off] ^= 0x01; // corrupt the stored vertex count
        repatch_checksum(&mut drifted);
        let drift_path = dir.join("drift.usnae");
        std::fs::write(&drift_path, &drifted).unwrap();
        assert!(matches!(
            MappedSnapshot::open(&drift_path),
            Err(SnapshotError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_load_hits_and_misses() {
        let dir = temp_dir("store-load");
        let cache = ConstructionCache::new(&dir);
        let (_, out, key) = sample_output();
        assert!(cache.load(&key).unwrap().is_none(), "cold cache misses");
        cache
            .store(&Snapshot::from_output(key.clone(), &out))
            .unwrap();
        let snap = cache.load(&key).unwrap().expect("warm cache hits");
        assert_eq!(snap.stream_fingerprint, out.stream_fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_corrupt_entries_and_clear_removes() {
        let dir = temp_dir("verify");
        let cache = ConstructionCache::new(&dir);
        let (_, out, key) = sample_output();
        let path = cache
            .store(&Snapshot::from_output(key.clone(), &out))
            .unwrap();
        assert!(cache.verify().unwrap().is_empty(), "fresh entry verifies");
        assert_eq!(cache.ls().unwrap().len(), 1);
        // Corrupt the file in place.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let broken = cache.verify().unwrap();
        assert_eq!(broken.len(), 1);
        assert!(matches!(
            broken[0].detail,
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert_eq!(cache.clear().unwrap(), 1);
        assert!(cache.ls().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_sweeps_interrupted_store_leftovers() {
        let dir = temp_dir("tmp-sweep");
        let cache = ConstructionCache::new(&dir);
        let (_, out, key) = sample_output();
        cache.store(&Snapshot::from_output(key, &out)).unwrap();
        // Simulate a store killed between write and rename.
        let stale = dir.join(format!("orphan.{EXTENSION}.tmp-99999"));
        std::fs::write(&stale, b"half-written").unwrap();
        // ls/verify never surface the tmp file as an entry...
        assert_eq!(cache.ls().unwrap().len(), 1);
        assert!(cache.verify().unwrap().is_empty());
        // ...but clear removes it along with the entries.
        assert_eq!(cache.clear().unwrap(), 1);
        assert!(!stale.exists(), "stale tmp file must be swept");
        assert!(cache.ls().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ls_orders_entries_by_algo_then_fingerprint() {
        let dir = temp_dir("ls-order");
        let cache = ConstructionCache::new(&dir);
        // Multiple algorithms x multiple graphs, stored in scrambled order.
        for seed in [9u64, 2, 5] {
            let g = generators::gnp_connected(40, 0.15, seed).unwrap();
            let cfg = BuildConfig::default();
            for algo in [Algorithm::Spanner, Algorithm::Centralized] {
                let c = algo.construction();
                let out = c.build(&g, &cfg).unwrap();
                cache
                    .store(&Snapshot::from_output(
                        CacheKey::new(&g, c.name(), &cfg),
                        &out,
                    ))
                    .unwrap();
            }
        }
        let entries = cache.ls().unwrap();
        assert_eq!(entries.len(), 6);
        let keys: Vec<(String, u64)> = entries
            .iter()
            .map(|e| {
                let d = e.detail.as_ref().unwrap();
                (d.key.algorithm.clone(), d.stream_fingerprint)
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "ls must sort by (algo, fingerprint)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_cached_cold_then_warm() {
        let dir = temp_dir("cold-warm");
        let cache_cfg = CacheConfig::new(&dir);
        let g = generators::gnp_connected(60, 0.1, 7).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::FastCentralized.construction();

        let cold = build_cached(c.as_ref(), &g, &cfg, &cache_cfg).unwrap();
        assert_eq!(cold.stats.cache, CacheStatus::Miss);
        assert!(!cold.stats.phases.is_empty(), "cold build ran its phases");

        let warm = build_cached(c.as_ref(), &g, &cfg, &cache_cfg).unwrap();
        assert_eq!(warm.stats.cache, CacheStatus::Hit);
        assert!(warm.stats.phases.is_empty(), "warm hit skipped phase work");
        assert_eq!(warm.stream_fingerprint(), cold.stream_fingerprint());
        assert_eq!(
            warm.emulator.provenance(),
            cold.emulator.provenance(),
            "hit is byte-identical to the cold build"
        );
        assert_eq!(warm.certified, cold.certified);
        assert_eq!(warm.size_bound, cold.size_bound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_configs_bypass_the_cache() {
        let dir = temp_dir("traced");
        let cache_cfg = CacheConfig::new(&dir);
        let g = generators::grid2d(6, 6).unwrap();
        let cfg = BuildConfig {
            traced: true,
            ..BuildConfig::default()
        };
        let c = Algorithm::Centralized.construction();
        let out = build_cached(c.as_ref(), &g, &cfg, &cache_cfg).unwrap();
        assert_eq!(out.stats.cache, CacheStatus::Uncached);
        assert!(out.trace.is_some(), "trace request honored");
        assert!(
            ConstructionCache::new(&dir).ls().unwrap().is_empty(),
            "nothing stored for traced builds"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotten_entry_falls_back_to_rebuild_and_heals() {
        let dir = temp_dir("rotten");
        let cache_cfg = CacheConfig::new(&dir);
        let g = generators::gnp_connected(50, 0.12, 9).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let cold = build_cached(c.as_ref(), &g, &cfg, &cache_cfg).unwrap();
        // Rot the entry.
        let key = CacheKey::new(&g, c.name(), &cfg);
        let path = ConstructionCache::new(&dir).entry_path(&key);
        std::fs::write(&path, b"rotten").unwrap();
        let rebuilt = build_cached(c.as_ref(), &g, &cfg, &cache_cfg).unwrap();
        assert_eq!(rebuilt.stats.cache, CacheStatus::Miss, "rot is a miss");
        assert_eq!(rebuilt.stream_fingerprint(), cold.stream_fingerprint());
        // And the store healed the entry.
        let warm = build_cached(c.as_ref(), &g, &cfg, &cache_cfg).unwrap();
        assert_eq!(warm.stats.cache, CacheStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_and_write_only_modes() {
        let dir = temp_dir("modes");
        let g = generators::gnp_connected(50, 0.12, 2).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let read_only = CacheConfig {
            write: false,
            ..CacheConfig::new(&dir)
        };
        let out = build_cached(c.as_ref(), &g, &cfg, &read_only).unwrap();
        assert_eq!(out.stats.cache, CacheStatus::Miss);
        assert!(
            ConstructionCache::new(&dir).ls().unwrap().is_empty(),
            "read-only stores nothing"
        );
        let write_only = CacheConfig {
            read: false,
            ..CacheConfig::new(&dir)
        };
        build_cached(c.as_ref(), &g, &cfg, &write_only).unwrap();
        let again = build_cached(c.as_ref(), &g, &cfg, &write_only).unwrap();
        assert_eq!(
            again.stats.cache,
            CacheStatus::Miss,
            "write-only never reads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn set_mtime(path: &Path, mtime: SystemTime) {
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
    }

    /// Overwrites `path` in place with `bytes` (same length) and restores
    /// `mtime`: device, inode, length and mtime all stay the same.
    fn rewrite_in_place(path: &Path, bytes: &[u8], mtime: SystemTime) {
        use std::io::Write;
        let mut f = std::fs::File::options().write(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
        f.set_modified(mtime).unwrap();
    }

    /// The sample entry, stored in a fresh cache over `dir`, with its file
    /// backdated past the racy window so that a full open records its
    /// identity. Returns the cache, key, entry path and the backdated
    /// mtime.
    fn aged_entry(
        dir: &Path,
        budget: Option<u64>,
    ) -> (EvictingCache, CacheKey, PathBuf, SystemTime) {
        let (_, out, key) = sample_output();
        let cache = EvictingCache::open(dir, budget).unwrap();
        let path = cache
            .store(&Snapshot::from_output(key.clone(), &out))
            .unwrap();
        let aged = SystemTime::now() - Duration::from_secs(60);
        set_mtime(&path, aged);
        (cache, key, path, aged)
    }

    /// The entry's bytes with one byte of the checksummed content flipped.
    fn corrupted(path: &Path) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[V4_HEADER] ^= 0xff;
        bytes
    }

    #[test]
    fn file_identity_vouches_only_for_settled_unchanged_reads() {
        let dir = temp_dir("file-id");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        std::fs::write(&path, b"one").unwrap();
        set_mtime(&path, SystemTime::now() - Duration::from_secs(60));
        let (read, id) = FileId::read_through(&path, || std::fs::read(&path).unwrap());
        assert_eq!(read, b"one");
        assert_eq!(id, Some(FileId::of(&path).unwrap()));
        // Rewritten while it was read: nothing vouches for what was read.
        let (_, id) = FileId::read_through(&path, || std::fs::write(&path, b"two!").unwrap());
        assert_eq!(id, None);
        // An mtime not yet a racy window in the past (here ahead of the
        // clock, so no scheduling delay can age it) vouches for nothing.
        set_mtime(&path, SystemTime::now() + Duration::from_secs(3600));
        assert_eq!(FileId::read_through(&path, || ()).1, None);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(FileId::read_through(&path, || ()).1, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_lookup_of_an_unchanged_entry_does_not_reread_it() {
        let dir = temp_dir("lookup-warm");
        let (cache, key, path, aged) = aged_entry(&dir, None);
        let first = cache.lookup(&key).unwrap().expect("stored entry");
        assert_eq!(
            first.stream_fingerprint,
            sample_output().1.stream_fingerprint()
        );
        // Corrupt the content under an unchanged identity: only a lookup
        // that re-read the file could tell.
        rewrite_in_place(&path, &corrupted(&path), aged);
        assert!(MappedSnapshot::open(&path).is_err(), "the file is corrupt");
        assert_eq!(cache.lookup(&key).unwrap(), Some(first));
        let usage = cache.usage();
        assert_eq!((usage.hits, usage.misses), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racy_entries_are_reopened_by_every_lookup() {
        let dir = temp_dir("lookup-racy");
        let (cache, key, path, _) = aged_entry(&dir, None);
        // An mtime inside the racy window: a same-length rewrite within
        // the same timestamp tick would keep it.
        let racy = SystemTime::now() + Duration::from_secs(3600);
        set_mtime(&path, racy);
        assert!(cache.lookup(&key).unwrap().is_some());
        rewrite_in_place(&path, &corrupted(&path), racy);
        assert_eq!(cache.lookup(&key).unwrap(), None, "re-verified: a miss");
        assert_eq!(cache.usage().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_renamed_over_a_verified_entry_reads_as_a_miss() {
        let dir = temp_dir("lookup-renamed");
        let (cache, key, path, aged) = aged_entry(&dir, None);
        assert!(cache.lookup(&key).unwrap().is_some());
        // Same length and mtime as the verified file; only the inode
        // differs.
        let tmp = dir.join("corrupt.tmp");
        std::fs::write(&tmp, corrupted(&path)).unwrap();
        set_mtime(&tmp, aged);
        std::fs::rename(&tmp, &path).unwrap();
        assert_eq!(cache.lookup(&key).unwrap(), None);
        assert_eq!(cache.usage().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_deleted_by_another_handle_reads_as_a_miss() {
        let dir = temp_dir("lookup-deleted");
        let (cache, key, _, _) = aged_entry(&dir, None);
        assert!(cache.lookup(&key).unwrap().is_some());
        assert!(cache.lookup(&key).unwrap().is_some());
        assert_eq!(ConstructionCache::new(&dir).clear().unwrap(), 1);
        assert_eq!(cache.lookup(&key).unwrap(), None);
        let usage = cache.usage();
        assert_eq!((usage.hits, usage.misses), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_drops_the_verified_record() {
        let dir = temp_dir("lookup-evict");
        let (g, out, key) = sample_output();
        let size = Snapshot::from_output(key.clone(), &out).encode().len() as u64;
        let (cache, _, _, _) = aged_entry(&dir, Some(size * 3 / 2));
        assert!(cache.lookup(&key).unwrap().is_some());
        let verified = |cache: &EvictingCache| {
            let state = cache.state.lock().unwrap();
            state
                .entries
                .get(&key.file_name())
                .map(|r| r.verified.is_some())
        };
        assert_eq!(verified(&cache), Some(true));
        // Another key under a one-entry budget evicts the verified one.
        let cfg = BuildConfig {
            seed: 1,
            ..BuildConfig::default()
        };
        let other = CacheKey::new(&g, key.algorithm.as_str(), &cfg);
        cache.store(&Snapshot::from_output(other, &out)).unwrap();
        assert_eq!(cache.usage().evictions, 1);
        assert_eq!(verified(&cache), None, "the record left with its entry");
        assert_eq!(cache.lookup(&key).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
