//! The emulator object `H` with per-edge provenance.
//!
//! Beyond the weighted graph itself, every edge remembers which phase added
//! it, whether it was an interconnection / superclustering / buffer-join
//! edge (the three arrows of the paper's Figures 1, 2 and 4), and which
//! vertex it was *charged* to — the raw material of the Lemma 2.4 size
//! argument, re-checked at runtime by [`charging`](crate::charging).
//!
//! The graph is a [`WeightedGraph`]: an insertion is one probe of its pair
//! table, and every adjacency read goes through the CSR it builds on the
//! first read after an insertion — the words the snapshot codec writes
//! and the query engine's SSSP kernel runs over.

use usnae_graph::dijkstra;
use usnae_graph::{Dist, VertexId, WeightedEdge, WeightedGraph};

/// The role an edge played when it entered the emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Added when an *unpopular* center was considered (Fig. 1); charged to
    /// that center.
    Interconnection,
    /// Added when a cluster joined a freshly formed supercluster (Fig. 2);
    /// charged to the joining cluster's center.
    Superclustering,
    /// Added at phase end when a buffered (`N_i`) cluster fell back to the
    /// supercluster that buffered it (Fig. 4); charged to the joiner.
    BufferJoin,
}

impl EdgeKind {
    /// Stable wire code for fingerprints and the snapshot codec (the
    /// discriminant order is a serialization contract, frozen at v1).
    pub fn code(self) -> u8 {
        match self {
            EdgeKind::Interconnection => 0,
            EdgeKind::Superclustering => 1,
            EdgeKind::BufferJoin => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown bytes (a
    /// corrupted snapshot, not a panic).
    pub fn from_code(code: u8) -> Option<EdgeKind> {
        match code {
            0 => Some(EdgeKind::Interconnection),
            1 => Some(EdgeKind::Superclustering),
            2 => Some(EdgeKind::BufferJoin),
            _ => None,
        }
    }
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeKind::Interconnection => write!(f, "interconnection"),
            EdgeKind::Superclustering => write!(f, "superclustering"),
            EdgeKind::BufferJoin => write!(f, "buffer-join"),
        }
    }
}

/// FNV-1a fingerprint of an exact insertion stream — every edge with its
/// weight and full provenance, in insertion order. This is the one
/// fingerprint definition in the workspace:
/// [`BuildOutput::stream_fingerprint`](crate::api::BuildOutput::stream_fingerprint)
/// computes it over a live build and the snapshot codec recomputes it over
/// decoded records, so a warm cache hit can be *proven* byte-identical to
/// the build that produced it.
pub fn stream_fingerprint(records: &[(WeightedEdge, EdgeProvenance)]) -> u64 {
    let mut h = usnae_graph::metrics::Fnv64::new();
    for (e, p) in records {
        h.write_u64(e.u as u64);
        h.write_u64(e.v as u64);
        h.write_u64(e.weight);
        h.write_u64(p.phase as u64);
        h.write_u64(u64::from(p.kind.code()));
        h.write_u64(p.charged_to as u64);
    }
    h.finish()
}

/// Where an emulator edge came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeProvenance {
    /// Phase index `i ∈ [0, ℓ]`.
    pub phase: usize,
    /// Interconnection / superclustering / buffer-join.
    pub kind: EdgeKind,
    /// The vertex this edge is charged to in the size analysis (§2.2.1).
    pub charged_to: VertexId,
}

/// A near-additive emulator under construction or completed.
///
/// # Example
///
/// ```
/// use usnae_core::{EdgeKind, EdgeProvenance, Emulator};
///
/// let mut h = Emulator::new(4);
/// h.add_edge(0, 2, 3, EdgeProvenance {
///     phase: 0,
///     kind: EdgeKind::Interconnection,
///     charged_to: 0,
/// });
/// assert_eq!(h.num_edges(), 1);
/// assert_eq!(h.distance(0, 2), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    graph: WeightedGraph,
    provenance: Vec<(WeightedEdge, EdgeProvenance)>,
}

impl Emulator {
    /// An empty emulator over `n` vertices.
    pub fn new(n: usize) -> Self {
        Emulator {
            graph: WeightedGraph::new(n),
            provenance: Vec::new(),
        }
    }

    /// Replays a recorded insertion stream over `n` vertices — the snapshot
    /// codec's load path. Because [`add_edge`](Self::add_edge) is
    /// deterministic in the stream order, the rebuilt emulator is
    /// byte-identical (graph *and* provenance) to the one that recorded the
    /// stream.
    pub fn from_provenance(
        n: usize,
        records: impl IntoIterator<Item = (WeightedEdge, EdgeProvenance)>,
    ) -> Self {
        let mut h = Emulator::new(n);
        for (e, p) in records {
            h.add_edge(e.u, e.v, e.weight, p);
        }
        h
    }

    /// The emulator `records` replay to, given the graph they replay to:
    /// a full snapshot decode builds that graph to check its `EMU_CSR`
    /// section and hands it over here, so the records are replayed once.
    pub(crate) fn from_replayed(
        graph: WeightedGraph,
        records: Vec<(WeightedEdge, EdgeProvenance)>,
    ) -> Self {
        Emulator {
            graph,
            provenance: records,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of distinct edges `|H|` — the quantity bounded by `n^(1+1/κ)`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Adds edge `(u, v)` with `weight` and provenance. Duplicate pairs keep
    /// the lighter weight; the provenance record is appended either way so
    /// the charge ledger sees every insertion the algorithm performed.
    ///
    /// Returns `true` when a genuinely new edge was created.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Dist,
        provenance: EdgeProvenance,
    ) -> bool {
        let created = self.graph.add_edge(u, v, weight);
        self.provenance
            .push((WeightedEdge::new(u, v, weight), provenance));
        created
    }

    /// The underlying weighted graph.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// Every insertion with its provenance, in insertion order. May contain
    /// more records than [`num_edges`](Self::num_edges) when the same pair
    /// was inserted in several phases.
    pub fn provenance(&self) -> &[(WeightedEdge, EdgeProvenance)] {
        &self.provenance
    }

    /// Distance in `H` alone (no `G` edges): the emulator must certify its
    /// stretch by itself. Runs the reference Dijkstra
    /// ([`dijkstra::distance`]).
    pub fn distance(&self, u: VertexId, v: VertexId) -> Option<Dist> {
        dijkstra::distance(&self.graph, u, v)
    }

    /// Single-source distances in `H`, by the reference Dijkstra
    /// ([`dijkstra::dijkstra`]) that the query engine's kernel is tested
    /// against.
    pub fn distances_from(&self, u: VertexId) -> Vec<Option<Dist>> {
        dijkstra::dijkstra(&self.graph, u)
    }

    /// Edge count per kind, for the anatomy reports (experiments F1/F2).
    pub fn kind_histogram(&self) -> std::collections::HashMap<EdgeKind, usize> {
        let mut hist = std::collections::HashMap::new();
        for (_, p) in &self.provenance {
            *hist.entry(p.kind).or_insert(0) += 1;
        }
        hist
    }

    /// Edge insertions per phase.
    pub fn phase_histogram(&self) -> Vec<usize> {
        let phases = self
            .provenance
            .iter()
            .map(|(_, p)| p.phase)
            .max()
            .map_or(0, |m| m + 1);
        let mut hist = vec![0usize; phases];
        for (_, p) in &self.provenance {
            hist[p.phase] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(phase: usize, kind: EdgeKind, charged_to: VertexId) -> EdgeProvenance {
        EdgeProvenance {
            phase,
            kind,
            charged_to,
        }
    }

    #[test]
    fn add_and_count() {
        let mut h = Emulator::new(5);
        assert!(h.add_edge(0, 1, 2, prov(0, EdgeKind::Interconnection, 0)));
        assert!(h.add_edge(1, 2, 4, prov(1, EdgeKind::Superclustering, 2)));
        assert!(!h.add_edge(0, 1, 9, prov(1, EdgeKind::BufferJoin, 1))); // duplicate pair
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.provenance().len(), 3);
    }

    #[test]
    fn distance_uses_min_weight_of_duplicates() {
        let mut h = Emulator::new(3);
        h.add_edge(0, 1, 9, prov(0, EdgeKind::Interconnection, 0));
        h.add_edge(0, 1, 4, prov(1, EdgeKind::Interconnection, 0));
        assert_eq!(h.distance(0, 1), Some(4));
    }

    #[test]
    fn histograms() {
        let mut h = Emulator::new(4);
        h.add_edge(0, 1, 1, prov(0, EdgeKind::Interconnection, 0));
        h.add_edge(1, 2, 1, prov(0, EdgeKind::Superclustering, 2));
        h.add_edge(2, 3, 1, prov(1, EdgeKind::Superclustering, 3));
        let kinds = h.kind_histogram();
        assert_eq!(kinds[&EdgeKind::Interconnection], 1);
        assert_eq!(kinds[&EdgeKind::Superclustering], 2);
        assert_eq!(h.phase_histogram(), vec![2, 1]);
    }

    #[test]
    fn unreachable_distance_is_none() {
        let h = Emulator::new(3);
        assert_eq!(h.distance(0, 2), None);
    }

    #[test]
    fn kind_display() {
        assert_eq!(EdgeKind::Interconnection.to_string(), "interconnection");
        assert_eq!(EdgeKind::Superclustering.to_string(), "superclustering");
        assert_eq!(EdgeKind::BufferJoin.to_string(), "buffer-join");
    }
}
