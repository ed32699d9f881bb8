//! Plain-text edge-list I/O.
//!
//! A downstream user's graphs arrive as files; this module reads/writes the
//! ubiquitous whitespace-separated edge-list format (`u v` per line, `#`
//! comments, 0-based ids) and a weighted variant for emulators (`u v w`).
//!
//! Two loading paths share one line grammar (see [`read_edge_list`]):
//!
//! * [`read_edge_list`] — buffers the edges and builds a heap [`Graph`];
//!   a thin wrapper over the shared parser.
//! * [`stream_edge_list_to_csr_file`] / [`stream_edge_list_to_shards`] —
//!   the out-of-core path: two passes over the input file produce a
//!   mappable CSR file (or per-shard CSR files + manifest) directly,
//!   never materializing the whole graph; peak memory is `O(n)` for the
//!   degree/offset arrays plus one shard's edges, independent of `m`.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, VertexId};
use crate::partition::PartitionPolicy;
use crate::storage::{self, CsrShardFile, ShardManifest, StorageError};
use crate::weighted::WeightedGraph;
use crate::Dist;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Errors from edge-list parsing and streaming CSR conversion.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line did not parse as `u v` (or `u v w`).
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A vertex id was numeric but exceeds the platform `usize`.
    Overflow {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A duplicate undirected edge, rejected under strict mode.
    DuplicateEdge {
        /// Canonical smaller endpoint.
        u: VertexId,
        /// Canonical larger endpoint.
        v: VertexId,
    },
    /// The parsed edge violated graph constraints.
    Graph(GraphError),
    /// Writing or reopening a CSR storage file failed.
    Storage(StorageError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "line {line} is not a valid edge: {content:?}")
            }
            IoError::Overflow { line, token } => {
                write!(f, "line {line}: vertex id {token:?} overflows usize")
            }
            IoError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge ({u}, {v}) rejected in strict mode")
            }
            IoError::Graph(e) => write!(f, "invalid edge: {e}"),
            IoError::Storage(e) => write!(f, "csr conversion failed: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

impl From<StorageError> for IoError {
    fn from(e: StorageError) -> Self {
        IoError::Storage(e)
    }
}

/// Parses one edge-list line under the grammar of [`read_edge_list`]:
/// `Ok(None)` for blank/comment lines, `Ok(Some((u, v)))` for an edge.
fn parse_edge_line(line_no: usize, line: &str) -> Result<Option<(usize, usize)>, IoError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
        return Err(IoError::Parse {
            line: line_no,
            content: line.to_string(),
        });
    };
    let u = parse_vertex(line_no, line, a)?;
    let v = parse_vertex(line_no, line, b)?;
    Ok(Some((u, v)))
}

fn parse_vertex(line_no: usize, line: &str, token: &str) -> Result<usize, IoError> {
    match token.parse::<usize>() {
        Ok(v) => Ok(v),
        // Distinguish "numeric but too large" from "not a number": an
        // all-digit token that fails to parse can only have overflowed.
        Err(_) if !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit()) => {
            Err(IoError::Overflow {
                line: line_no,
                token: token.to_string(),
            })
        }
        Err(_) => Err(IoError::Parse {
            line: line_no,
            content: line.to_string(),
        }),
    }
}

/// Reads an unweighted edge list; the vertex count is
/// `max(max endpoint + 1, min_vertices)`.
///
/// # Grammar
///
/// The accepted line grammar (shared with the streaming loader):
///
/// * lines are split on ASCII/Unicode whitespace after trimming
///   (CRLF-safe);
/// * blank lines and lines whose first non-whitespace character is `#`
///   are skipped;
/// * an edge line is `u v` — two base-10, 0-based vertex ids; any
///   further whitespace-separated tokens on the line are ignored
///   (so `u v w`-style annotated lists load too);
/// * duplicate edges (in either direction) are collapsed; self-loops
///   are rejected.
///
/// # Errors
///
/// * [`IoError::Io`] — read failure;
/// * [`IoError::Parse`] — a non-comment line with fewer than two tokens
///   or a non-numeric vertex id (1-based line number + content);
/// * [`IoError::Overflow`] — a numeric vertex id exceeding `usize`;
/// * [`IoError::Graph`] — a self-loop `(v, v)`.
///
/// # Example
///
/// ```
/// use usnae_graph::io::read_edge_list;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "# a triangle\n0 1\n1 2\n2 0\n";
/// let g = read_edge_list(text.as_bytes(), 0)?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: BufRead>(reader: R, min_vertices: usize) -> Result<Graph, IoError> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_vertex = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let Some((u, v)) = parse_edge_line(idx + 1, &line)? else {
            continue;
        };
        max_vertex = max_vertex.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        min_vertices
    } else {
        (max_vertex + 1).max(min_vertices)
    };
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        b.add_edge(u, v)?;
    }
    Ok(b.build())
}

/// Options for the streaming edge-list → CSR-file loaders.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Pad the vertex count to at least this many vertices.
    pub min_vertices: usize,
    /// Partitioner for shard/bucket boundaries. Bucket boundaries are
    /// computed from the *raw* (pre-dedup) degree counts of pass 1, so
    /// on duplicate-free inputs `DegreeBalanced` shard files are
    /// byte-identical to `ShardedCsr::build(...).write_dir(...)`;
    /// `Range` boundaries are degree-independent and always match.
    pub policy: PartitionPolicy,
    /// Fail with [`IoError::DuplicateEdge`] instead of collapsing
    /// duplicates.
    pub reject_duplicates: bool,
    /// Spill-bucket count for [`stream_edge_list_to_csr_file`] (bounds
    /// the assembly working set to one bucket's edges); `0` picks a
    /// deterministic default from the vertex count.
    pub buckets: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            min_vertices: 0,
            policy: PartitionPolicy::Range,
            reject_duplicates: false,
            buckets: 0,
        }
    }
}

/// What a streaming load saw and produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Vertices in the output CSR (`max endpoint + 1`, padded).
    pub num_vertices: usize,
    /// Undirected edges after dedup.
    pub num_edges: usize,
    /// Duplicate undirected edges collapsed (0 under strict mode).
    pub duplicate_edges: usize,
    /// Input lines scanned (including comments/blanks).
    pub lines: usize,
}

/// Pass 1: line-validate the input and accumulate raw degree counts.
fn scan_degrees(input: &Path) -> Result<(Vec<u64>, usize), IoError> {
    let mut deg: Vec<u64> = Vec::new();
    let mut lines = 0usize;
    let reader = BufReader::new(File::open(input)?);
    for (idx, line) in reader.lines().enumerate() {
        lines = idx + 1;
        let line = line?;
        let Some((u, v)) = parse_edge_line(idx + 1, &line)? else {
            continue;
        };
        if u == v {
            return Err(IoError::Graph(GraphError::SelfLoop { vertex: u }));
        }
        let need = u.max(v) + 1;
        if deg.len() < need {
            deg.resize(need, 0);
        }
        deg[u] += 1;
        deg[v] += 1;
    }
    Ok((deg, lines))
}

/// Pass 2: spill each directed edge entry to its owner's bucket file.
/// Entry `(u, v)` goes to `owner(u)`; the reverse goes to `owner(v)` —
/// so every bucket holds exactly the CSR rows of its vertex range.
fn spill_buckets(input: &Path, bucket_paths: &[PathBuf], bounds: &[usize]) -> Result<(), IoError> {
    let owner = |v: usize| bounds.partition_point(|&b| b <= v) - 1;
    let mut writers = Vec::with_capacity(bucket_paths.len());
    for p in bucket_paths {
        writers.push(BufWriter::new(File::create(p)?));
    }
    let reader = BufReader::new(File::open(input)?);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let Some((u, v)) = parse_edge_line(idx + 1, &line)? else {
            continue;
        };
        let w = &mut writers[owner(u)];
        w.write_all(&(u as u64).to_le_bytes())?;
        w.write_all(&(v as u64).to_le_bytes())?;
        let w = &mut writers[owner(v)];
        w.write_all(&(v as u64).to_le_bytes())?;
        w.write_all(&(u as u64).to_le_bytes())?;
    }
    for w in writers {
        w.into_inner()
            .map_err(|e| IoError::Io(e.into_error()))?
            .flush()?;
    }
    Ok(())
}

/// One bucket's directed entries, sorted and deduped into CSR rows.
/// Returns `(local offsets, adjacency, frontier, local_edges,
/// directed duplicates removed)` for the range `start..end`.
#[allow(clippy::type_complexity)]
fn assemble_bucket(
    path: &Path,
    start: usize,
    end: usize,
    reject_duplicates: bool,
) -> Result<
    (
        Vec<usize>,
        Vec<VertexId>,
        Vec<(VertexId, VertexId)>,
        usize,
        usize,
    ),
    IoError,
> {
    let bytes = std::fs::read(path)?;
    let mut entries: Vec<(u64, u64)> = bytes
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect();
    drop(bytes);
    entries.sort_unstable();
    let before = entries.len();
    entries.dedup();
    let removed = before - entries.len();
    if reject_duplicates && removed > 0 {
        // Rescan for the first adjacent duplicate to report it.
        let mut prev: Option<(u64, u64)> = None;
        let bytes = std::fs::read(path)?;
        let mut again: Vec<(u64, u64)> = bytes
            .chunks_exact(16)
            .map(|c| {
                (
                    u64::from_le_bytes(c[..8].try_into().unwrap()),
                    u64::from_le_bytes(c[8..].try_into().unwrap()),
                )
            })
            .collect();
        again.sort_unstable();
        for e in again {
            if prev == Some(e) {
                let (a, b) = (e.0 as usize, e.1 as usize);
                return Err(IoError::DuplicateEdge {
                    u: a.min(b),
                    v: a.max(b),
                });
            }
            prev = Some(e);
        }
    }
    let mut offsets = Vec::with_capacity(end - start + 1);
    offsets.push(0usize);
    let mut adjacency: Vec<VertexId> = Vec::with_capacity(entries.len());
    let mut frontier = Vec::new();
    let mut local_edges = 0usize;
    let mut cursor = 0usize;
    for v in start..end {
        while cursor < entries.len() && entries[cursor].0 == v as u64 {
            let w = entries[cursor].1 as usize;
            adjacency.push(w);
            if !(start..end).contains(&w) {
                frontier.push((v, w));
            } else if v < w {
                local_edges += 1;
            }
            cursor += 1;
        }
        offsets.push(adjacency.len());
    }
    debug_assert_eq!(cursor, entries.len(), "bucket held out-of-range rows");
    Ok((offsets, adjacency, frontier, local_edges, removed))
}

/// Deterministic default bucket count: one bucket per ~256k vertices,
/// clamped to `[1, 64]`.
fn default_buckets(n: usize) -> usize {
    (n / 262_144).clamp(1, 64)
}

/// Streams a plain-text edge list (grammar of [`read_edge_list`]) into
/// a whole-graph CSR file openable by `MappedGraph::open`, without ever
/// materializing the graph: pass 1 counts degrees, pass 2 spills
/// directed entries into per-bucket files, then each bucket is sorted,
/// deduped, and appended to the output in row order. Peak memory is the
/// `O(n)` degree/offset arrays plus one bucket's entries.
///
/// The output is byte-identical to
/// `read_edge_list(...)?.write_csr_file(...)` for any valid input.
pub fn stream_edge_list_to_csr_file(
    input: &Path,
    output: &Path,
    opts: &StreamOptions,
) -> Result<StreamStats, IoError> {
    let (deg, lines) = scan_degrees(input)?;
    let n = deg.len().max(opts.min_vertices);
    let buckets = if opts.buckets == 0 {
        default_buckets(n)
    } else {
        opts.buckets
    };
    let bounds = crate::partition::weighted_boundaries(
        n,
        |v| deg.get(v).copied().unwrap_or(0) as usize,
        opts.policy,
        buckets,
    );
    drop(deg);
    let bucket_paths: Vec<PathBuf> = (0..bounds.len() - 1)
        .map(|i| output.with_extension(format!("bucket-{i}")))
        .collect();
    let payload_path = output.with_extension("payload");
    let result = (|| -> Result<StreamStats, IoError> {
        spill_buckets(input, &bucket_paths, &bounds)?;
        // Assemble buckets in vertex order: true offsets accumulate in
        // memory (O(n)), adjacency streams to a payload file.
        let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut payload = BufWriter::new(File::create(&payload_path)?);
        let mut directed = 0u64;
        let mut dup_directed = 0usize;
        for (i, bp) in bucket_paths.iter().enumerate() {
            let (local_offsets, adjacency, _frontier, _local, removed) =
                assemble_bucket(bp, bounds[i], bounds[i + 1], opts.reject_duplicates)?;
            for win in local_offsets.windows(2) {
                directed += (win[1] - win[0]) as u64;
                offsets.push(directed);
            }
            for &v in &adjacency {
                payload.write_all(&(v as u64).to_le_bytes())?;
            }
            dup_directed += removed;
            let _ = std::fs::remove_file(bp);
        }
        payload.flush()?;
        drop(payload);
        let m = (directed / 2) as usize;
        // Final file: header + offsets, then the payload appended in
        // bounded chunks, then the checksum patched into the header.
        let mut out = BufWriter::new(
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(output)?,
        );
        out.write_all(&storage::CSR_MAGIC)?;
        out.write_all(&(n as u64).to_le_bytes())?;
        out.write_all(&(m as u64).to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?;
        for &o in &offsets {
            out.write_all(&o.to_le_bytes())?;
        }
        drop(offsets);
        let mut payload = File::open(&payload_path)?;
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let k = payload.read(&mut buf)?;
            if k == 0 {
                break;
            }
            out.write_all(&buf[..k])?;
        }
        let file = out.into_inner().map_err(|e| IoError::Io(e.into_error()))?;
        storage::patch_checksum(file, storage::CSR_HEADER as u64, 24)?;
        let _ = std::fs::remove_file(&payload_path);
        Ok(StreamStats {
            num_vertices: n,
            num_edges: m,
            duplicate_edges: dup_directed / 2,
            lines,
        })
    })();
    if result.is_err() {
        for bp in &bucket_paths {
            let _ = std::fs::remove_file(bp);
        }
        let _ = std::fs::remove_file(&payload_path);
        let _ = std::fs::remove_file(output);
    }
    result
}

/// Streams a plain-text edge list directly into a sharded-CSR
/// directory (per-shard CSR files + manifest) openable by
/// `ShardedCsr::open_dir`, without materializing the graph. Shard
/// boundaries follow `opts.policy` over the pass-1 degree counts;
/// `shards` is clamped like `ShardedCsr::build`.
pub fn stream_edge_list_to_shards(
    input: &Path,
    out_dir: &Path,
    shards: usize,
    opts: &StreamOptions,
) -> Result<StreamStats, IoError> {
    let (deg, lines) = scan_degrees(input)?;
    let n = deg.len().max(opts.min_vertices);
    let bounds = crate::partition::weighted_boundaries(
        n,
        |v| deg.get(v).copied().unwrap_or(0) as usize,
        opts.policy,
        shards,
    );
    drop(deg);
    std::fs::create_dir_all(out_dir)?;
    let bucket_paths: Vec<PathBuf> = (0..bounds.len() - 1)
        .map(|i| out_dir.join(format!("bucket-{i}.tmp")))
        .collect();
    let result = (|| -> Result<StreamStats, IoError> {
        spill_buckets(input, &bucket_paths, &bounds)?;
        let mut directed = 0u64;
        let mut dup_directed = 0usize;
        for (i, bp) in bucket_paths.iter().enumerate() {
            let (offsets, adjacency, frontier, local_edges, removed) =
                assemble_bucket(bp, bounds[i], bounds[i + 1], opts.reject_duplicates)?;
            directed += adjacency.len() as u64;
            dup_directed += removed;
            CsrShardFile::write(
                &ShardManifest::shard_path(out_dir, i),
                bounds[i],
                bounds[i + 1],
                local_edges,
                &offsets,
                &adjacency,
                &frontier,
            )?;
            let _ = std::fs::remove_file(bp);
        }
        let m = (directed / 2) as usize;
        ShardManifest {
            num_vertices: n,
            num_edges: m,
            policy: opts.policy.name().to_string(),
            boundaries: bounds.clone(),
        }
        .write(out_dir)?;
        Ok(StreamStats {
            num_vertices: n,
            num_edges: m,
            duplicate_edges: dup_directed / 2,
            lines,
        })
    })();
    if result.is_err() {
        for bp in &bucket_paths {
            let _ = std::fs::remove_file(bp);
        }
    }
    result
}

/// Writes `g` as an edge list (one `u v` line per edge, `u < v`).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a weighted graph as `u v w` lines (emulator export).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_weighted_edge_list<W: Write>(h: &WeightedGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# {} vertices, {} weighted edges",
        h.num_vertices(),
        h.num_edges()
    )?;
    let mut edges: Vec<_> = h.edges().collect();
    edges.sort_by_key(|e| (e.u, e.v));
    for e in edges {
        writeln!(writer, "{} {} {}", e.u, e.v, e.weight)?;
    }
    Ok(())
}

/// Reads a weighted edge list (`u v w` per line).
///
/// # Errors
///
/// [`IoError`] on read failures or malformed lines, and
/// [`IoError::Graph`] with [`GraphError::SelfLoop`] on a loop `v v w`.
pub fn read_weighted_edge_list<R: BufRead>(
    reader: R,
    min_vertices: usize,
) -> Result<WeightedGraph, IoError> {
    let mut edges: Vec<(usize, usize, Dist)> = Vec::new();
    let mut max_vertex = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b), Some(c)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(IoError::Parse {
                line: idx + 1,
                content: line.clone(),
            });
        };
        let (Ok(u), Ok(v), Ok(w)) = (a.parse::<usize>(), b.parse::<usize>(), c.parse::<Dist>())
        else {
            return Err(IoError::Parse {
                line: idx + 1,
                content: line.clone(),
            });
        };
        if u == v {
            return Err(IoError::Graph(GraphError::SelfLoop { vertex: u }));
        }
        max_vertex = max_vertex.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = if edges.is_empty() {
        min_vertices
    } else {
        (max_vertex + 1).max(min_vertices)
    };
    let mut h = WeightedGraph::new(n);
    for (u, v, w) in edges {
        h.add_edge(u, v, w);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_unweighted() {
        let g = generators::gnp_connected(60, 0.08, 3).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice(), g.num_vertices()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_weighted() {
        let mut h = WeightedGraph::new(5);
        h.add_edge(0, 3, 7);
        h.add_edge(1, 2, 9);
        let mut buf = Vec::new();
        write_weighted_edge_list(&h, &mut buf).unwrap();
        let back = read_weighted_edge_list(buf.as_slice(), 5).unwrap();
        assert_eq!(back.num_edges(), 2);
        assert_eq!(back.weight(0, 3), Some(7));
        assert_eq!(back.weight(2, 1), Some(9));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n0 1\n  # indented comment\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nnonsense\n";
        match read_edge_list(text.as_bytes(), 0) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_rejected() {
        let text = "3 3\n";
        assert!(matches!(
            read_edge_list(text.as_bytes(), 0),
            Err(IoError::Graph(_))
        ));
    }

    #[test]
    fn weighted_self_loop_rejected() {
        let text = "0 1 2\n3 3 5\n";
        assert!(matches!(
            read_weighted_edge_list(text.as_bytes(), 0),
            Err(IoError::Graph(GraphError::SelfLoop { vertex: 3 }))
        ));
    }

    #[test]
    fn min_vertices_pads_isolated() {
        let g = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
        let empty = read_edge_list("# nothing\n".as_bytes(), 4).unwrap();
        assert_eq!(empty.num_vertices(), 4);
    }

    #[test]
    fn overflowing_vertex_id_is_typed() {
        let text = "0 1\n0 999999999999999999999999999\n";
        match read_edge_list(text.as_bytes(), 0) {
            Err(IoError::Overflow { line, token }) => {
                assert_eq!(line, 2);
                assert_eq!(token, "999999999999999999999999999");
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn single_token_line_is_a_parse_error() {
        match read_edge_list("0 1\n7\n".as_bytes(), 0) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_and_crlf_tolerated() {
        let text = "0 1 17 extra\r\n1 2\t3\r\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    fn stream_fixture(tag: &str, text: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("usnae-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("edges.txt");
        std::fs::write(&input, text).unwrap();
        (dir, input)
    }

    #[test]
    fn streamed_csr_file_is_byte_identical_to_the_heap_path() {
        let g = generators::gnp_connected(180, 0.05, 7).unwrap();
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let (dir, input) = stream_fixture("bytes", std::str::from_utf8(&text).unwrap());
        let heap_path = dir.join("heap.csr");
        g.write_csr_file(&heap_path).unwrap();
        for buckets in [0usize, 1, 3, 7] {
            let streamed_path = dir.join(format!("streamed-{buckets}.csr"));
            let opts = StreamOptions {
                buckets,
                ..StreamOptions::default()
            };
            let stats = stream_edge_list_to_csr_file(&input, &streamed_path, &opts).unwrap();
            assert_eq!(stats.num_vertices, g.num_vertices());
            assert_eq!(stats.num_edges, g.num_edges());
            assert_eq!(stats.duplicate_edges, 0);
            assert_eq!(
                std::fs::read(&heap_path).unwrap(),
                std::fs::read(&streamed_path).unwrap(),
                "buckets={buckets}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_shard_dir_matches_the_heap_sharder() {
        use crate::partition::{PartitionPolicy, ShardView, ShardedCsr};
        let g = generators::gnp_connected(150, 0.06, 11).unwrap();
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let (dir, input) = stream_fixture("shards", std::str::from_utf8(&text).unwrap());
        for policy in PartitionPolicy::all() {
            let heap_dir = dir.join(format!("heap-{policy}"));
            let stream_dir = dir.join(format!("stream-{policy}"));
            ShardedCsr::build(&g, policy, 4)
                .write_dir(&heap_dir, g.num_edges())
                .unwrap();
            let opts = StreamOptions {
                policy,
                ..StreamOptions::default()
            };
            let stats = stream_edge_list_to_shards(&input, &stream_dir, 4, &opts).unwrap();
            assert_eq!(stats.num_edges, g.num_edges());
            // Duplicate-free input: shard files must be byte-identical
            // for both policies (boundaries agree with the heap path).
            for i in 0..4 {
                let a =
                    std::fs::read(crate::storage::ShardManifest::shard_path(&heap_dir, i)).unwrap();
                let b = std::fs::read(crate::storage::ShardManifest::shard_path(&stream_dir, i))
                    .unwrap();
                assert_eq!(a, b, "policy={policy} shard={i}");
            }
            let mapped = ShardedCsr::open_dir(&stream_dir).unwrap();
            for v in g.vertices() {
                assert_eq!(ShardView::neighbors(&mapped, v), g.neighbors(v));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_collapses_or_rejects_duplicates() {
        let (dir, input) = stream_fixture("dups", "0 1\n1 0\n1 2\n0 1\n");
        let out = dir.join("g.csr");
        let stats = stream_edge_list_to_csr_file(&input, &out, &StreamOptions::default()).unwrap();
        assert_eq!(stats.num_edges, 2);
        assert_eq!(stats.duplicate_edges, 2);
        let strict = StreamOptions {
            reject_duplicates: true,
            ..StreamOptions::default()
        };
        match stream_edge_list_to_csr_file(&input, &dir.join("h.csr"), &strict) {
            Err(IoError::DuplicateEdge { u: 0, v: 1 }) => {}
            other => panic!("expected duplicate-edge error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_surfaces_parse_and_loop_errors() {
        let (dir, input) = stream_fixture("errs", "0 1\nbroken line\n");
        let err =
            stream_edge_list_to_csr_file(&input, &dir.join("g.csr"), &StreamOptions::default());
        assert!(
            matches!(err, Err(IoError::Parse { line: 2, .. })),
            "{err:?}"
        );
        std::fs::write(&input, "0 1\n2 2\n").unwrap();
        let err =
            stream_edge_list_to_csr_file(&input, &dir.join("g.csr"), &StreamOptions::default());
        assert!(matches!(err, Err(IoError::Graph(_))), "{err:?}");
        // Failed runs must not leave temp buckets or partial output.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f != "edges.txt")
            .collect();
        assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
