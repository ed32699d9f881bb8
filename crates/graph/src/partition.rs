//! Partitioned CSR graph shards: the distributed-memory layout of the
//! input graph.
//!
//! A [`ShardedCsr`] splits `G` into per-worker shards, each owning a
//! **contiguous vertex range** with its own local CSR arrays (offsets +
//! adjacency) and a **cut-edge frontier list** — the directed edges whose
//! head lives in another shard, i.e. exactly what a distributed
//! implementation would have to communicate. No shard aliases the shared
//! adjacency array of the source [`Graph`](crate::Graph); each is
//! independently addressable (and, by design, could live in another
//! process or on another machine — the ROADMAP's million-vertex
//! direction).
//!
//! Two deterministic partitioners sit behind [`PartitionPolicy`]:
//!
//! * [`PartitionPolicy::Range`] — vertex-count-balanced contiguous ranges
//!   (the same split [`crate::par::shard_ranges`] uses for work fan-out);
//! * [`PartitionPolicy::DegreeBalanced`] — contiguous ranges balanced by
//!   total degree, so a hub-heavy prefix does not overload shard 0.
//!
//! Both are pure functions of `(graph, shards)` — no randomness, no
//! iteration-order dependence — so the layout itself obeys the workspace
//! determinism contract.
//!
//! The [`ShardView`] trait is the read seam: a bounded BFS (or any
//! neighbor scan) written against `ShardView` runs unchanged over the
//! shared array ([`Graph`](crate::Graph) implements it) or over the
//! sharded layout ([`ShardedCsr`] routes each lookup to the owning
//! shard's local CSR).
//! Because every shard stores its owned vertices' neighbor lists verbatim
//! (sorted, global ids), the two views are **pointwise identical** — which
//! is what makes sharded construction builds byte-identical to unsharded
//! ones (enforced registry-wide by `tests/partition_conformance.rs`).
//!
//! [`GraphView`] packages the choice for the constructions: build it once
//! per build from the configured `(policy, shards)` and pass it to every
//! per-center exploration.
//!
//! Shards are generic over the [`AdjStorage`] seam: [`CsrShard`] /
//! [`ShardedCsr`] default to heap arrays (identical to the pre-seam
//! layout), while `ShardedCsr<MappedAdj>` ([`MappedShardedCsr`]) serves
//! the same `ShardView` reads from per-shard CSR files written by
//! [`ShardedCsr::write_dir`] or the streaming loader
//! (`io::stream_edge_list_to_shards`), opened via
//! [`ShardedCsr::open_dir`].

use crate::graph::{GraphCore, VertexId};
use crate::storage::{AdjStorage, CsrShardFile, HeapAdj, MappedAdj, ShardManifest, StorageError};
use std::path::Path;
use std::time::{Duration, Instant};

/// Deterministic strategy for cutting `0..n` into contiguous shard ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionPolicy {
    /// Near-equal vertex counts per shard.
    #[default]
    Range,
    /// Near-equal total degree per shard (ranges stay contiguous).
    DegreeBalanced,
}

impl PartitionPolicy {
    /// Both policies, in a stable order (test matrices iterate this).
    pub fn all() -> [PartitionPolicy; 2] {
        [PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
    }

    /// Stable name (`"range"` / `"degree-balanced"`).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::Range => "range",
            PartitionPolicy::DegreeBalanced => "degree-balanced",
        }
    }

    /// Parses a [`name`](Self::name) back into the policy.
    pub fn parse(s: &str) -> Option<PartitionPolicy> {
        PartitionPolicy::all().into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Uniform read access to a graph, independent of where its adjacency
/// lives: one shared CSR ([`Graph`](crate::Graph)) or per-worker shards
/// ([`ShardedCsr`]).
///
/// Contract: for a view over `G`, `neighbors(v)` returns exactly
/// `G.neighbors(v)` (sorted, global ids) for every `v < num_vertices()`.
/// Everything built on a view — bounded BFS, ball carving, exploration
/// scans — therefore produces identical output over every implementation;
/// the sharded layout changes *where* the bytes are read from, never what
/// they say.
pub trait ShardView: Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Sorted neighbor list of `v` (global vertex ids).
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }
}

impl<S: AdjStorage> ShardView for GraphCore<S> {
    fn num_vertices(&self) -> usize {
        GraphCore::num_vertices(self)
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        GraphCore::neighbors(self, v)
    }

    fn degree(&self, v: VertexId) -> usize {
        GraphCore::degree(self, v)
    }
}

/// Per-shard record of a partitioned layout: structure counts plus the
/// wall clock spent building the shard's local CSR + frontier list. These
/// surface as the per-shard timings in `BuildStats` (usnae-core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTiming {
    /// Shard index.
    pub shard: usize,
    /// Vertices owned by the shard.
    pub vertices: usize,
    /// Undirected edges with both endpoints inside the shard.
    pub local_edges: usize,
    /// Directed cut edges leaving the shard (frontier-list length).
    pub cut_edges: usize,
    /// Wall clock to build this shard's local arrays.
    pub duration: Duration,
}

/// One shard of a [`ShardedCsr`]: a contiguous vertex range with its own
/// CSR arrays (behind the [`AdjStorage`] seam) and cut-edge frontier
/// list. Self-contained — no references into the source graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrShard<S: AdjStorage = HeapAdj> {
    start: VertexId,
    end: VertexId,
    /// Local CSR arrays: `offsets[v - start]..offsets[v - start + 1]`
    /// indexes the concatenated sorted neighbor lists (global ids).
    storage: S,
    /// Cut edges `(owned u, remote v)`, ascending `(u, v)` — what this
    /// shard would exchange with its peers in a distributed run.
    frontier: Vec<(VertexId, VertexId)>,
    /// Undirected intra-shard edge count.
    local_edges: usize,
    /// Wall clock of this shard's construction.
    build_time: Duration,
}

impl CsrShard<HeapAdj> {
    fn build<Src: AdjStorage>(g: &GraphCore<Src>, start: VertexId, end: VertexId) -> CsrShard {
        let t0 = Instant::now();
        let mut offsets = Vec::with_capacity(end - start + 1);
        offsets.push(0);
        let mut adjacency = Vec::new();
        let mut frontier = Vec::new();
        let mut local_edges = 0usize;
        for v in start..end {
            let nbrs = g.neighbors(v);
            adjacency.extend_from_slice(nbrs);
            offsets.push(adjacency.len());
            for &w in nbrs {
                if !(start..end).contains(&w) {
                    frontier.push((v, w));
                } else if v < w {
                    local_edges += 1;
                }
            }
        }
        CsrShard {
            start,
            end,
            storage: HeapAdj::new(offsets, adjacency),
            frontier,
            local_edges,
            build_time: t0.elapsed(),
        }
    }
}

impl<S: AdjStorage> CsrShard<S> {
    /// The contiguous vertex range this shard owns.
    pub fn range(&self) -> std::ops::Range<VertexId> {
        self.start..self.end
    }

    /// Number of owned vertices.
    pub fn num_vertices(&self) -> usize {
        self.end - self.start
    }

    /// Undirected edges fully inside the shard.
    pub fn local_edges(&self) -> usize {
        self.local_edges
    }

    /// The cut-edge frontier list: `(owned u, remote v)`, ascending.
    pub fn frontier(&self) -> &[(VertexId, VertexId)] {
        &self.frontier
    }

    /// Sorted neighbor list of an **owned** vertex (global ids).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside [`range`](Self::range).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        assert!(
            (self.start..self.end).contains(&v),
            "vertex {v} not owned by shard [{}, {})",
            self.start,
            self.end
        );
        let local = v - self.start;
        let offsets = self.storage.offsets();
        &self.storage.adjacency()[offsets[local]..offsets[local + 1]]
    }
}

/// The partitioned layout: per-worker CSR shards over contiguous vertex
/// ranges, generic over where each shard's arrays live. See the
/// [module docs](self) for the determinism and pointwise-identity
/// contracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCsr<S: AdjStorage = HeapAdj> {
    /// `boundaries[s]..boundaries[s + 1]` is shard `s`'s range;
    /// `boundaries[0] == 0`, `boundaries[num_shards()] == n`.
    boundaries: Vec<VertexId>,
    shards: Vec<CsrShard<S>>,
    policy: PartitionPolicy,
}

/// File-backed partitioned layout: every shard served from its own CSR
/// file (see [`ShardedCsr::open_dir`]).
pub type MappedShardedCsr = ShardedCsr<MappedAdj>;

/// Shard-range boundaries for `policy` over `g`: `shards + 1` ascending
/// values from `0` to `n`, every range nonempty. `shards` is clamped to
/// `[1, max(n, 1)]`.
pub fn boundaries<S: AdjStorage>(
    g: &GraphCore<S>,
    policy: PartitionPolicy,
    shards: usize,
) -> Vec<VertexId> {
    weighted_boundaries(g.num_vertices(), |v| g.degree(v), policy, shards)
}

/// [`boundaries`] over an arbitrary per-vertex load function (the degree
/// for input graphs; e.g. emulator degrees for partitioned *output*
/// backends). Pure in `(n, weight, policy, shards)`.
pub fn weighted_boundaries(
    n: usize,
    weight: impl Fn(VertexId) -> usize,
    policy: PartitionPolicy,
    shards: usize,
) -> Vec<VertexId> {
    let shards = shards.clamp(1, n.max(1));
    match policy {
        PartitionPolicy::Range => {
            let base = n / shards;
            let rem = n % shards;
            (0..=shards).map(|s| s * base + s.min(rem)).collect()
        }
        PartitionPolicy::DegreeBalanced => {
            // Weight each vertex by load + 1: the +1 keeps long zero-load
            // runs from collapsing every boundary onto one index, and
            // reduces to the Range split on regular graphs.
            let mut prefix = Vec::with_capacity(n + 1);
            prefix.push(0u64);
            for v in 0..n {
                prefix.push(prefix[v] + weight(v) as u64 + 1);
            }
            let total = prefix[n];
            let mut bounds = vec![0usize];
            for s in 1..shards {
                let target = total * s as u64 / shards as u64;
                let b = prefix.partition_point(|&p| p < target);
                // Nonempty ranges: stay past the previous boundary and
                // leave one vertex for each remaining shard.
                bounds.push(b.clamp(bounds[s - 1] + 1, n - (shards - s)));
            }
            bounds.push(n);
            bounds
        }
    }
}

impl ShardedCsr<HeapAdj> {
    /// Partitions `g` into `shards` per-worker CSR shards under `policy`.
    /// Each shard is built on its own scoped thread; the result is a pure
    /// function of `(g, policy, shards)`. `shards` is clamped to
    /// `[1, max(n, 1)]`. Works over any source storage (heap or mapped);
    /// the shards themselves are heap-owned.
    pub fn build<Src: AdjStorage>(
        g: &GraphCore<Src>,
        policy: PartitionPolicy,
        shards: usize,
    ) -> ShardedCsr {
        let bounds = boundaries(g, policy, shards);
        let count = bounds.len() - 1;
        let shards = crate::par::map_indexed(count, count, |s| {
            CsrShard::build(g, bounds[s], bounds[s + 1])
        });
        ShardedCsr {
            boundaries: bounds,
            shards,
            policy,
        }
    }

    /// Writes this layout as per-shard CSR files + manifest into `dir`
    /// (created if missing), re-openable via [`ShardedCsr::open_dir`].
    /// `num_edges` is the global undirected edge count for the manifest.
    pub fn write_dir(&self, dir: &Path, num_edges: usize) -> Result<(), StorageError> {
        std::fs::create_dir_all(dir)?;
        for (i, sh) in self.shards.iter().enumerate() {
            CsrShardFile::write(
                &ShardManifest::shard_path(dir, i),
                sh.start,
                sh.end,
                sh.local_edges,
                sh.storage.offsets(),
                sh.storage.adjacency(),
                &sh.frontier,
            )?;
        }
        ShardManifest {
            num_vertices: ShardView::num_vertices(self),
            num_edges,
            policy: self.policy.name().to_string(),
            boundaries: self.boundaries.clone(),
        }
        .write(dir)
    }
}

impl ShardedCsr<MappedAdj> {
    /// Opens a sharded-CSR directory (manifest + `shard-<i>.csr` files)
    /// written by [`ShardedCsr::write_dir`] or the streaming loader,
    /// serving every shard from its file without heap materialization.
    pub fn open_dir(dir: &Path) -> Result<MappedShardedCsr, StorageError> {
        let manifest = ShardManifest::read(dir)?;
        let manifest_path = dir.join(crate::storage::MANIFEST_NAME);
        let policy =
            PartitionPolicy::parse(&manifest.policy).ok_or_else(|| StorageError::BadManifest {
                path: manifest_path.clone(),
                detail: format!("unknown policy {:?}", manifest.policy),
            })?;
        let mut shards = Vec::with_capacity(manifest.num_shards());
        for i in 0..manifest.num_shards() {
            let t0 = Instant::now();
            let file = CsrShardFile::open(&ShardManifest::shard_path(dir, i))?;
            if file.start != manifest.boundaries[i] || file.end != manifest.boundaries[i + 1] {
                return Err(StorageError::BadManifest {
                    path: manifest_path.clone(),
                    detail: format!(
                        "shard {i} covers {}..{} but manifest says {}..{}",
                        file.start,
                        file.end,
                        manifest.boundaries[i],
                        manifest.boundaries[i + 1]
                    ),
                });
            }
            shards.push(CsrShard {
                start: file.start,
                end: file.end,
                storage: file.storage,
                frontier: file.frontier,
                local_edges: file.local_edges,
                build_time: t0.elapsed(),
            });
        }
        Ok(ShardedCsr {
            boundaries: manifest.boundaries,
            shards,
            policy,
        })
    }
}

impl<S: AdjStorage> ShardedCsr<S> {
    /// The policy that produced this layout.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, index order.
    pub fn shards(&self) -> &[CsrShard<S>] {
        &self.shards
    }

    /// Index of the shard owning `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn owner(&self, v: VertexId) -> usize {
        assert!(
            v < self.num_vertices(),
            "vertex {v} out of range for n = {}",
            self.num_vertices()
        );
        self.boundaries.partition_point(|&b| b <= v) - 1
    }

    /// Per-shard structure + build-time records, shard order.
    pub fn shard_timings(&self) -> Vec<ShardTiming> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, sh)| ShardTiming {
                shard: s,
                vertices: sh.num_vertices(),
                local_edges: sh.local_edges(),
                cut_edges: sh.frontier().len(),
                duration: sh.build_time,
            })
            .collect()
    }

    /// Total undirected cut edges across the layout (each counted once in
    /// both endpoint shards' frontier lists).
    pub fn cut_edges(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.frontier().len())
            .sum::<usize>()
            / 2
    }
}

impl<S: AdjStorage> ShardView for ShardedCsr<S> {
    fn num_vertices(&self) -> usize {
        *self.boundaries.last().expect("boundaries nonempty")
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.shards[self.owner(v)].neighbors(v)
    }
}

/// The per-build choice between the shared adjacency array and the
/// partitioned layout — what the constructions thread through their
/// per-center exploration phases. Generic over the source graph's
/// storage; the partitioned layout's shards are always heap-owned.
#[derive(Debug)]
pub enum GraphView<'g, S: AdjStorage = HeapAdj> {
    /// Read from the source graph's CSR (the historical path).
    Shared(&'g GraphCore<S>),
    /// Read from per-worker CSR shards.
    Partitioned(ShardedCsr),
}

impl<S: AdjStorage> Clone for GraphView<'_, S> {
    fn clone(&self) -> Self {
        // Manual impl: the Shared arm is a reference copy, so no
        // S: Clone bound is needed (MappedAdj is not Clone).
        match self {
            GraphView::Shared(g) => GraphView::Shared(g),
            GraphView::Partitioned(s) => GraphView::Partitioned(s.clone()),
        }
    }
}

impl<'g, S: AdjStorage> GraphView<'g, S> {
    /// `shards == 0` selects the shared array; `shards >= 1` builds a
    /// [`ShardedCsr`] under `policy` (clamped to at most `n` shards).
    pub fn new(g: &'g GraphCore<S>, policy: PartitionPolicy, shards: usize) -> GraphView<'g, S> {
        if shards == 0 {
            GraphView::Shared(g)
        } else {
            GraphView::Partitioned(ShardedCsr::build(g, policy, shards))
        }
    }

    /// The shared-array view (no partitioning).
    pub fn shared(g: &'g GraphCore<S>) -> GraphView<'g, S> {
        GraphView::Shared(g)
    }

    /// Per-shard records — empty for the shared view, so `BuildStats`
    /// carries them only when a partitioned layout was actually built.
    pub fn shard_timings(&self) -> Vec<ShardTiming> {
        match self {
            GraphView::Shared(_) => Vec::new(),
            GraphView::Partitioned(s) => s.shard_timings(),
        }
    }

    /// The partitioned layout, when one was built.
    pub fn as_sharded(&self) -> Option<&ShardedCsr> {
        match self {
            GraphView::Shared(_) => None,
            GraphView::Partitioned(s) => Some(s),
        }
    }
}

impl<S: AdjStorage> ShardView for GraphView<'_, S> {
    fn num_vertices(&self) -> usize {
        match self {
            GraphView::Shared(g) => GraphCore::num_vertices(g),
            GraphView::Partitioned(s) => ShardView::num_vertices(s),
        }
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self {
            GraphView::Shared(g) => GraphCore::neighbors(g, v),
            GraphView::Partitioned(s) => ShardView::neighbors(s, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    fn views_agree(g: &Graph, policy: PartitionPolicy, shards: usize) {
        let sharded = ShardedCsr::build(g, policy, shards);
        assert_eq!(ShardView::num_vertices(&sharded), g.num_vertices());
        for v in g.vertices() {
            assert_eq!(
                ShardView::neighbors(&sharded, v),
                g.neighbors(v),
                "policy={policy} shards={shards} v={v}"
            );
            assert_eq!(ShardView::degree(&sharded, v), g.degree(v));
        }
    }

    #[test]
    fn sharded_view_is_pointwise_identical_to_the_graph() {
        let graphs = [
            generators::gnp_connected(150, 0.05, 3).unwrap(),
            generators::star(40).unwrap(),
            generators::grid2d(9, 7).unwrap(),
            Graph::empty(5),
        ];
        for g in &graphs {
            for policy in PartitionPolicy::all() {
                for shards in [1usize, 2, 4, 7, 64] {
                    views_agree(g, policy, shards);
                }
            }
        }
    }

    #[test]
    fn boundaries_cover_and_are_nonempty() {
        let g = generators::gnp_connected(101, 0.06, 9).unwrap();
        for policy in PartitionPolicy::all() {
            for shards in [1usize, 2, 3, 7, 50, 101, 500] {
                let b = boundaries(&g, policy, shards);
                assert_eq!(b[0], 0, "{policy} {shards}");
                assert_eq!(*b.last().unwrap(), 101);
                assert!(
                    b.windows(2).all(|w| w[0] < w[1]),
                    "{policy} {shards}: {b:?}"
                );
                assert_eq!(b.len() - 1, shards.min(101), "{policy} {shards}");
            }
        }
    }

    #[test]
    fn range_boundaries_match_the_par_fan_out_split() {
        for n in [1usize, 7, 64, 1000] {
            for shards in [1usize, 2, 5, 13] {
                let g = Graph::empty(n);
                let b = boundaries(&g, PartitionPolicy::Range, shards);
                let ranges = crate::par::shard_ranges(n, shards);
                let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
                assert_eq!(&b[..b.len() - 1], &starts[..], "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn degree_balanced_beats_range_on_a_skewed_graph() {
        // A hub-heavy prefix: vertices 0..10 form a dense clique-ish blob,
        // the rest a long path. Degree balancing must move the boundary
        // past where the naive halving would put it.
        let mut edges = Vec::new();
        for u in 0..10usize {
            for v in (u + 1)..10 {
                edges.push((u, v));
            }
        }
        for v in 10..200usize {
            edges.push((v - 1, v));
        }
        let g = Graph::from_edges(200, &edges).unwrap();
        let spread = |policy: PartitionPolicy| {
            let s = ShardedCsr::build(&g, policy, 2);
            let loads: Vec<usize> = s
                .shards()
                .iter()
                .map(|sh| sh.range().map(|v| g.degree(v)).sum())
                .collect();
            loads.iter().max().unwrap() - loads.iter().min().unwrap()
        };
        assert!(
            spread(PartitionPolicy::DegreeBalanced) < spread(PartitionPolicy::Range),
            "degree balancing should reduce the max-min degree-load spread"
        );
    }

    #[test]
    fn frontier_lists_are_symmetric_and_sorted() {
        let g = generators::gnp_connected(120, 0.06, 5).unwrap();
        for policy in PartitionPolicy::all() {
            for shards in [2usize, 4, 7] {
                let s = ShardedCsr::build(&g, policy, shards);
                let mut directed: Vec<(usize, usize)> = Vec::new();
                for sh in s.shards() {
                    assert!(sh.frontier().windows(2).all(|w| w[0] < w[1]), "sorted");
                    for &(u, v) in sh.frontier() {
                        assert!(sh.range().contains(&u), "u owned");
                        assert!(!sh.range().contains(&v), "v remote");
                        assert_ne!(s.owner(u), s.owner(v));
                        directed.push((u, v));
                    }
                }
                // Every cut edge appears in exactly both endpoint shards.
                let mut reversed: Vec<(usize, usize)> =
                    directed.iter().map(|&(u, v)| (v, u)).collect();
                directed.sort_unstable();
                reversed.sort_unstable();
                assert_eq!(directed, reversed, "{policy} {shards}");
                assert_eq!(s.cut_edges() * 2, directed.len());
            }
        }
    }

    #[test]
    fn local_plus_cut_edges_account_for_every_edge() {
        let g = generators::gnp_connected(90, 0.08, 11).unwrap();
        for policy in PartitionPolicy::all() {
            let s = ShardedCsr::build(&g, policy, 4);
            let local: usize = s.shards().iter().map(|sh| sh.local_edges()).sum();
            assert_eq!(local + s.cut_edges(), g.num_edges(), "{policy}");
            let vertices: usize = s.shards().iter().map(|sh| sh.num_vertices()).sum();
            assert_eq!(vertices, g.num_vertices());
        }
    }

    #[test]
    fn owner_is_consistent_with_ranges() {
        let g = generators::grid2d(10, 10).unwrap();
        let s = ShardedCsr::build(&g, PartitionPolicy::DegreeBalanced, 7);
        for (idx, sh) in s.shards().iter().enumerate() {
            for v in sh.range() {
                assert_eq!(s.owner(v), idx);
            }
        }
    }

    #[test]
    fn layout_is_deterministic_across_rebuilds() {
        let g = generators::gnp_connected(200, 0.04, 21).unwrap();
        for policy in PartitionPolicy::all() {
            let a = ShardedCsr::build(&g, policy, 5);
            let b = ShardedCsr::build(&g, policy, 5);
            // Timings differ run to run; everything structural must not.
            assert_eq!(a.boundaries, b.boundaries);
            for (x, y) in a.shards().iter().zip(b.shards()) {
                assert_eq!(x.storage, y.storage);
                assert_eq!(x.frontier, y.frontier);
            }
        }
    }

    #[test]
    fn graph_view_dispatches_both_layouts() {
        let g = generators::gnp_connected(80, 0.08, 2).unwrap();
        let shared = GraphView::shared(&g);
        assert!(shared.as_sharded().is_none());
        assert!(shared.shard_timings().is_empty());
        let sharded = GraphView::new(&g, PartitionPolicy::DegreeBalanced, 4);
        let timings = sharded.shard_timings();
        assert_eq!(timings.len(), 4);
        assert_eq!(timings.iter().map(|t| t.vertices).sum::<usize>(), 80);
        for v in g.vertices() {
            assert_eq!(shared.neighbors(v), sharded.neighbors(v));
        }
        assert!(GraphView::new(&g, PartitionPolicy::Range, 0)
            .as_sharded()
            .is_none());
    }

    #[test]
    fn sharded_dir_round_trips_and_serves_identical_reads() {
        let dir = std::env::temp_dir().join(format!("usnae-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = generators::gnp_connected(120, 0.06, 5).unwrap();
        for policy in PartitionPolicy::all() {
            let heap = ShardedCsr::build(&g, policy, 4);
            heap.write_dir(&dir, g.num_edges()).unwrap();
            let mapped = ShardedCsr::open_dir(&dir).unwrap();
            assert_eq!(mapped.policy(), policy);
            assert_eq!(mapped.num_shards(), heap.num_shards());
            assert_eq!(ShardView::num_vertices(&mapped), g.num_vertices());
            for (h, m) in heap.shards().iter().zip(mapped.shards()) {
                assert_eq!(h.range(), m.range());
                assert_eq!(h.local_edges(), m.local_edges());
                assert_eq!(h.frontier(), m.frontier());
            }
            for v in g.vertices() {
                assert_eq!(ShardView::neighbors(&mapped, v), g.neighbors(v));
            }
            assert_eq!(mapped.cut_edges(), heap.cut_edges());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in PartitionPolicy::all() {
            assert_eq!(PartitionPolicy::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PartitionPolicy::parse("mesh"), None);
    }

    #[test]
    fn oversized_shard_counts_clamp_to_n() {
        let g = generators::path(3).unwrap();
        let s = ShardedCsr::build(&g, PartitionPolicy::Range, 64);
        assert_eq!(s.num_shards(), 3);
        views_agree(&g, PartitionPolicy::Range, 64);
        // Zero-vertex graphs degenerate to one empty shard.
        let empty = Graph::empty(0);
        let s = ShardedCsr::build(&empty, PartitionPolicy::DegreeBalanced, 4);
        assert_eq!(s.num_shards(), 1);
        assert_eq!(ShardView::num_vertices(&s), 0);
    }
}
