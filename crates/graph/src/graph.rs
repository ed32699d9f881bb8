//! Compact CSR representation of an unweighted undirected simple graph.
//!
//! This is the paper's input object `G = (V, E)`. Vertices are dense ids
//! `0..n`. The representation is immutable after construction; algorithms
//! that need mutation build a new graph through [`GraphBuilder`].
//!
//! The CSR arrays live behind the [`AdjStorage`] seam: [`Graph`] is the
//! heap-owned default (`GraphCore<HeapAdj>`, byte-identical to the
//! pre-seam layout) and [`MappedGraph`] (`GraphCore<MappedAdj>`) serves
//! the same read API straight from a CSR file without materializing the
//! arrays on the heap.

use crate::error::GraphError;
use crate::storage::{AdjStorage, HeapAdj, MappedAdj, StorageError};
use std::path::Path;

/// Dense vertex identifier, `0..n`.
pub type VertexId = usize;

/// An unweighted undirected simple graph in CSR form, generic over
/// where its offset/adjacency arrays live.
///
/// Use the [`Graph`] alias for the heap-owned default and
/// [`MappedGraph`] for the file-backed variant; all read accessors are
/// shared and behave identically.
#[derive(Debug, Clone)]
pub struct GraphCore<S: AdjStorage = HeapAdj> {
    /// Offset + adjacency arrays (see [`AdjStorage`]).
    storage: S,
    /// Number of undirected edges.
    num_edges: usize,
}

/// Heap-owned graph — the workspace-wide default.
///
/// Construction deduplicates parallel edges and rejects self-loops, so the
/// result is always simple, matching the paper's setting.
///
/// # Example
///
/// ```
/// use usnae_graph::Graph;
///
/// # fn main() -> Result<(), usnae_graph::GraphError> {
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (1, 0)])?; // duplicate collapsed
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// # Ok(())
/// # }
/// ```
pub type Graph = GraphCore<HeapAdj>;

/// File-backed graph: same read API as [`Graph`], arrays served from a
/// mapped CSR file (see [`crate::storage`]).
pub type MappedGraph = GraphCore<MappedAdj>;

impl<S: AdjStorage, T: AdjStorage> PartialEq<GraphCore<T>> for GraphCore<S> {
    fn eq(&self, other: &GraphCore<T>) -> bool {
        // Storage-independent equality: two graphs are equal iff their
        // CSR arrays are, regardless of where those arrays live.
        self.storage.offsets() == other.storage.offsets()
            && self.storage.adjacency() == other.storage.adjacency()
    }
}

impl<S: AdjStorage> Eq for GraphCore<S> {}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Parallel edges are collapsed; edge direction is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] on a loop `(v, v)`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self, GraphError> {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds the empty graph on `n` vertices (no edges).
    pub fn empty(n: usize) -> Self {
        GraphCore {
            storage: HeapAdj::new(vec![0; n + 1], Vec::new()),
            num_edges: 0,
        }
    }

    /// Writes this graph as a whole-graph CSR file readable by
    /// [`MappedGraph::open`].
    pub fn write_csr_file(&self, path: &Path) -> Result<(), StorageError> {
        crate::storage::write_csr_file(
            path,
            self.num_edges,
            self.storage.offsets(),
            self.storage.adjacency(),
        )
    }
}

impl MappedGraph {
    /// Opens a whole-graph CSR file (written by [`Graph::write_csr_file`]
    /// or the streaming loader) without materializing its arrays.
    ///
    /// Structure (magic, lengths, monotone offsets) is validated here;
    /// call [`MappedGraph::verify`] for the full payload checksum.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let (storage, _n, m) = MappedAdj::open(path)?;
        Ok(GraphCore {
            storage,
            num_edges: m,
        })
    }

    /// As [`MappedGraph::open`] but forcing the portable paged reader.
    pub fn open_paged(path: &Path) -> Result<Self, StorageError> {
        let (storage, _n, m) = MappedAdj::open_paged(path)?;
        Ok(GraphCore {
            storage,
            num_edges: m,
        })
    }

    /// Full payload checksum verification (touches every page once).
    pub fn verify(&self, path: &Path) -> Result<(), StorageError> {
        self.storage.verify(path)
    }

    /// True when served by a live memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.storage.is_mapped()
    }

    /// Copies the CSR arrays onto the heap, producing a [`Graph`] equal
    /// to this one. Used by callers that need an owned graph (e.g. the
    /// default mapped-build fallback).
    pub fn to_heap(&self) -> Graph {
        GraphCore {
            storage: HeapAdj::new(
                self.storage.offsets().to_vec(),
                self.storage.adjacency().to_vec(),
            ),
            num_edges: self.num_edges,
        }
    }
}

impl<S: AdjStorage> GraphCore<S> {
    /// The underlying storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.storage.offsets().len() - 1
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let offsets = self.storage.offsets();
        &self.storage.adjacency()[offsets[v]..offsets[v + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: VertexId) -> usize {
        let offsets = self.storage.offsets();
        offsets[v + 1] - offsets[v]
    }

    /// Whether the undirected edge `(u, v)` is present (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u < self.num_vertices()
            && v < self.num_vertices()
            && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices()
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices, or 0 for the empty vertex set.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2|E|/n`, or 0.0 when `n == 0`.
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / n as f64
        }
    }

    /// Number of *directed* edges (`2|E|`), the index space of
    /// [`directed_edge_index`](Self::directed_edge_index).
    pub fn num_directed_edges(&self) -> usize {
        self.storage.adjacency().len()
    }

    /// Dense index of the directed edge `u -> v` in `0..2|E|`, or `None` if
    /// the edge is absent. Used by the CONGEST simulator to key per-edge
    /// message queues.
    pub fn directed_edge_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if u >= self.num_vertices() {
            return None;
        }
        let slice = self.neighbors(u);
        slice
            .binary_search(&v)
            .ok()
            .map(|pos| self.storage.offsets()[u] + pos)
    }
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use usnae_graph::GraphBuilder;
///
/// # fn main() -> Result<(), usnae_graph::GraphError> {
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(2, 3)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder over edges already checked and canonical: `u < v < n`
    /// for each `(u, v)`, duplicates allowed. The edge list's loader hands
    /// its vector over instead of adding the edges one by one.
    pub(crate) fn from_canonical(n: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u < v && v < n));
        GraphBuilder { n, edges }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Duplicates are tolerated (collapsed at [`build`](Self::build) time).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self, GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        Ok(self)
    }

    /// Finalizes the CSR arrays in `O(n + |E| + Σ_v d(v) log d(v))`: one
    /// counting pass places both directions of every edge in its row,
    /// then each row is sorted and its repeats dropped in place.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Place with `offsets[v]` as row v's cursor: each ends at the start
        // of row v + 1, so shifting the array right restores the starts.
        let mut adjacency = vec![0 as VertexId; 2 * self.edges.len()];
        for (u, v) in self.edges {
            adjacency[offsets[u]] = v;
            offsets[u] += 1;
            adjacency[offsets[v]] = u;
            offsets[v] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort each row and compact it left over the repeats it dropped:
        // `kept` never passes the read position, and row v's old end is
        // read before `offsets[v + 1]` is rewritten.
        let mut kept = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            adjacency[start..end].sort_unstable();
            offsets[v] = kept;
            for i in start..end {
                let w = adjacency[i];
                if kept == offsets[v] || adjacency[kept - 1] != w {
                    adjacency[kept] = w;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept;
        if kept < adjacency.len() {
            adjacency.truncate(kept);
            adjacency.shrink_to_fit();
        }
        GraphCore {
            storage: HeapAdj::new(offsets, adjacency),
            num_edges: kept / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        for v in g.vertices() {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]).unwrap_err(),
            GraphError::SelfLoop { vertex: 1 }
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 3)]).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 3, n: 3 }
        );
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn edges_iterator_canonical_order() {
        let g = Graph::from_edges(4, &[(3, 2), (1, 0), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (2, 3)]);
    }

    #[test]
    fn max_and_average_degree() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn directed_edge_indices_dense_and_unique() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        assert_eq!(g.num_directed_edges(), 8);
        let mut seen = std::collections::HashSet::new();
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                let idx = g.directed_edge_index(u, v).unwrap();
                assert!(idx < g.num_directed_edges());
                assert!(seen.insert(idx));
            }
        }
        assert_eq!(seen.len(), 8);
        assert_eq!(g.directed_edge_index(0, 2), None);
        assert_eq!(g.directed_edge_index(9, 0), None);
    }

    #[test]
    fn builder_is_reusable_across_adds() {
        let mut b = GraphBuilder::new(10);
        for i in 0..9 {
            b.add_edge(i, i + 1).unwrap();
        }
        assert_eq!(b.num_vertices(), 10);
        let g = b.build();
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
    }

    #[test]
    fn mapped_graph_round_trips_byte_identical() {
        let dir = std::env::temp_dir().join(format!("usnae-graph-map-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csr");
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
            .unwrap();
        g.write_csr_file(&path).unwrap();
        for m in [
            MappedGraph::open(&path).unwrap(),
            MappedGraph::open_paged(&path).unwrap(),
        ] {
            m.verify(&path).unwrap();
            assert_eq!(m, g);
            assert_eq!(m.num_vertices(), g.num_vertices());
            assert_eq!(m.num_edges(), g.num_edges());
            for v in g.vertices() {
                assert_eq!(m.neighbors(v), g.neighbors(v));
            }
            assert_eq!(m.to_heap(), g);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
