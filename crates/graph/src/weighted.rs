//! Weighted undirected graph used for emulators `H`.
//!
//! Emulator edges carry integral weights (`d_G` distances). Unlike
//! [`Graph`](crate::Graph), this structure is mutable (the constructions add
//! edges phase by phase) and keeps parallel edges apart only by weight: when
//! the same pair is inserted twice, the smaller weight wins, matching the
//! semantics of shortest-path structures.
//!
//! The edges live in one table keyed by the canonical pair `(min, max)`,
//! so an insertion is one hash probe. Every adjacency read — [`neighbors`],
//! [`degree`] and the SSSP kernel — goes through one CSR in the
//! [`CsrWords`] layout a snapshot's emulator section stores, built from the
//! table on the first read after an insertion.
//!
//! [`neighbors`]: WeightedGraph::neighbors
//! [`degree`]: WeightedGraph::degree

use crate::dijkstra::CsrWords;
use crate::graph::VertexId;
use crate::Dist;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::OnceLock;

/// A weighted undirected edge of an emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightedEdge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// Integral weight (an exact `G`-distance in the paper's constructions).
    pub weight: Dist,
}

impl WeightedEdge {
    /// Canonicalizes endpoints so `u <= v`.
    pub fn new(u: VertexId, v: VertexId, weight: Dist) -> Self {
        if u <= v {
            WeightedEdge { u, v, weight }
        } else {
            WeightedEdge { u: v, v: u, weight }
        }
    }
}

/// Mutable weighted undirected simple graph: a pair table, read through
/// a CSR built on demand.
///
/// # Example
///
/// ```
/// use usnae_graph::WeightedGraph;
///
/// let mut h = WeightedGraph::new(4);
/// h.add_edge(0, 2, 5);
/// h.add_edge(2, 0, 3); // keeps the lighter parallel edge
/// assert_eq!(h.num_edges(), 1);
/// assert_eq!(h.weight(0, 2), Some(3));
/// assert_eq!(h.neighbors(2).collect::<Vec<_>>(), [(0, 3)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightedGraph {
    num_vertices: usize,
    /// The lightest weight inserted per canonical pair `(u, v)`, `u < v`.
    weights: HashMap<(VertexId, VertexId), Dist>,
    /// The table as a CSR; every insertion clears it.
    csr: OnceLock<Csr>,
}

/// The owned [`CsrWords`]: `n + 1` offsets counted in pairs, then one
/// `[neighbor, weight]` pair per adjacency entry, each row ascending.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u64>,
    pairs: Vec<[u64; 2]>,
}

impl Csr {
    /// The one CSR builder, in `O(n + m log Δ)`: count each row, place
    /// both directions of every table entry, sort each row by neighbor.
    fn build(n: usize, weights: &HashMap<(VertexId, VertexId), Dist>) -> Self {
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in weights.keys() {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&o| o as usize).collect();
        let mut pairs = vec![[0u64; 2]; 2 * weights.len()];
        for (&(u, v), &w) in weights {
            pairs[cursor[u]] = [v as u64, w];
            cursor[u] += 1;
            pairs[cursor[v]] = [u as u64, w];
            cursor[v] += 1;
        }
        for row in offsets.windows(2) {
            pairs[row[0] as usize..row[1] as usize].sort_unstable_by_key(|p| p[0]);
        }
        Csr { offsets, pairs }
    }
}

impl WeightedGraph {
    /// Creates an edgeless weighted graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            num_vertices: n,
            ..WeightedGraph::default()
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.weights.len()
    }

    /// Inserts the undirected edge `(u, v)` with `weight`.
    ///
    /// If the edge already exists, the minimum of the old and new weight is
    /// kept. Returns `true` if a new edge was created.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (emulator constructions never produce loops) or if
    /// an endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, weight: Dist) -> bool {
        assert_ne!(u, v, "emulator edges are never self-loops");
        assert!(
            u < self.num_vertices && v < self.num_vertices,
            "endpoint out of range"
        );
        self.csr.take();
        match self.weights.entry((u.min(v), u.max(v))) {
            Entry::Vacant(slot) => {
                slot.insert(weight);
                true
            }
            Entry::Occupied(mut slot) => {
                let kept = slot.get_mut();
                *kept = (*kept).min(weight);
                false
            }
        }
    }

    /// Weight of edge `(u, v)` if present.
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<Dist> {
        self.weights.get(&(u.min(v), u.max(v))).copied()
    }

    /// Whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.weight(u, v).is_some()
    }

    /// The adjacency in the [`CsrWords`] layout, the words the SSSP
    /// kernel reads; built from the edge table (`O(n + m log Δ)`) on the
    /// first read after an insertion.
    pub fn csr(&self) -> CsrWords<'_> {
        let csr = self
            .csr
            .get_or_init(|| Csr::build(self.num_vertices, &self.weights));
        CsrWords {
            offsets: &csr.offsets,
            pairs: csr.pairs.as_flattened(),
        }
    }

    /// Neighbors of `v` with weights, ascending by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Dist)> + '_ {
        self.csr().row(v)
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        let offsets = self.csr().offsets;
        (offsets[v + 1] - offsets[v]) as usize
    }

    /// All edges in canonical `(u <= v)` form, in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = WeightedEdge> + '_ {
        self.weights
            .iter()
            .map(|(&(u, v), &weight)| WeightedEdge { u, v, weight })
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u128 {
        self.weights.values().map(|&w| w as u128).sum()
    }

    /// Builds a weighted graph that mirrors an unweighted [`Graph`](crate::Graph) with all
    /// weights 1 (used to union `G` into spanner/emulator comparisons).
    pub fn from_unit_graph(g: &crate::Graph) -> Self {
        let mut h = WeightedGraph::new(g.num_vertices());
        for (u, v) in g.edges() {
            h.add_edge(u, v, 1);
        }
        h
    }
}

impl FromIterator<WeightedEdge> for WeightedGraph {
    /// Collects edges; the vertex count is one past the largest endpoint
    /// (either field may hold it: the fields are public, so an edge need
    /// not be canonical).
    fn from_iter<T: IntoIterator<Item = WeightedEdge>>(iter: T) -> Self {
        let edges: Vec<_> = iter.into_iter().collect();
        let n = edges.iter().map(|e| e.u.max(e.v) + 1).max().unwrap_or(0);
        let mut g = WeightedGraph::new(n);
        for e in edges {
            g.add_edge(e.u, e.v, e.weight);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn add_and_query() {
        let mut h = WeightedGraph::new(3);
        assert!(h.add_edge(0, 1, 7));
        assert!(!h.add_edge(1, 0, 9)); // heavier duplicate ignored
        assert_eq!(h.weight(0, 1), Some(7));
        assert_eq!(h.weight(1, 0), Some(7));
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn lighter_duplicate_replaces() {
        let mut h = WeightedGraph::new(3);
        h.add_edge(0, 1, 7);
        h.add_edge(0, 1, 2);
        assert_eq!(h.weight(1, 0), Some(2));
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut h = WeightedGraph::new(3);
        h.add_edge(1, 1, 1);
    }

    #[test]
    fn edges_canonical() {
        let mut h = WeightedGraph::new(4);
        h.add_edge(3, 1, 4);
        h.add_edge(0, 2, 5);
        let mut edges: Vec<_> = h.edges().collect();
        edges.sort_by_key(|e| (e.u, e.v));
        assert_eq!(
            edges,
            vec![WeightedEdge::new(0, 2, 5), WeightedEdge::new(1, 3, 4)]
        );
    }

    #[test]
    fn total_weight_sums() {
        let mut h = WeightedGraph::new(4);
        h.add_edge(0, 1, 10);
        h.add_edge(1, 2, 20);
        assert_eq!(h.total_weight(), 30);
    }

    #[test]
    fn from_unit_graph_mirrors() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let h = WeightedGraph::from_unit_graph(&g);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.weight(1, 2), Some(1));
    }

    #[test]
    fn from_iterator_collects() {
        let h: WeightedGraph = vec![WeightedEdge::new(0, 5, 2), WeightedEdge::new(1, 2, 3)]
            .into_iter()
            .collect();
        assert_eq!(h.num_vertices(), 6);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn from_iterator_sizes_by_either_endpoint() {
        // A non-canonical edge (fields set directly) keeps its larger
        // endpoint in `u`.
        let h: WeightedGraph = [WeightedEdge {
            u: 5,
            v: 0,
            weight: 2,
        }]
        .into_iter()
        .collect();
        assert_eq!(h.num_vertices(), 6);
        assert_eq!(h.weight(0, 5), Some(2));
    }

    #[test]
    fn weighted_edge_canonicalizes() {
        let e = WeightedEdge::new(7, 3, 1);
        assert_eq!((e.u, e.v), (3, 7));
    }
}
