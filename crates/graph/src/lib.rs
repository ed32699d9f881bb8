//! Graph substrate for the ultra-sparse near-additive emulator reproduction.
//!
//! This crate provides everything the emulator/spanner constructions of
//! Elkin & Matar (PODC 2021) need from a graph library, built from scratch:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of an
//!   *unweighted undirected* graph, the paper's input object `G = (V, E)`.
//! * [`WeightedGraph`] — the mutable *weighted* graph used for the
//!   emulator `H` (emulator edges carry weights `d_G(r_C, r_C')`): one
//!   pair table, read through a weighted CSR built on demand.
//! * [`generators`] — synthetic workload families (the paper has no datasets,
//!   so experiments run on Erdős–Rényi, random-regular, grids, stars,
//!   Barabási–Albert, Watts–Strogatz, dumbbells, …).
//! * [`bfs`] / [`dijkstra`] — single/multi-source, optionally depth-bounded
//!   searches used both inside the constructions and for verification.
//! * [`distance`] — exact distance ground truth (repeated BFS) and random
//!   pair sampling for stretch audits.
//! * [`connectivity`] / [`union_find`] — components and DSU plumbing.
//! * [`par`] — deterministic scoped-thread fan-out for the per-center
//!   bounded-BFS explorations (zero external deps, byte-identical output
//!   for every thread count).
//! * [`partition`] — partitioned CSR graph shards: contiguous per-worker
//!   vertex ranges with local CSR arrays and cut-edge frontier lists,
//!   behind the [`partition::ShardView`] read seam (sharded reads are
//!   pointwise identical to the shared array, so builds over either
//!   layout are byte-identical).
//! * [`storage`] — the [`storage::AdjStorage`] seam under every CSR
//!   array: heap `Vec`s by default ([`Graph`]), or a mapped CSR file
//!   ([`MappedGraph`], mmap with a portable paged fallback) so
//!   million-vertex graphs are read without heap materialization; the
//!   streaming loader in [`io`] writes those files directly from an
//!   edge list, two-passing the input.
//!
//! # Example
//!
//! ```
//! use usnae_graph::{Graph, bfs};
//!
//! # fn main() -> Result<(), usnae_graph::GraphError> {
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
//! let dist = bfs::bfs(&g, 0);
//! assert_eq!(dist[3], Some(3));
//! # Ok(())
//! # }
//! ```

pub mod bfs;
pub mod connectivity;
pub mod dijkstra;
pub mod distance;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod par;
pub mod partition;
pub mod rng;
pub mod storage;
pub mod union_find;
pub mod weighted;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, GraphCore, MappedGraph, VertexId};
pub use storage::{AdjStorage, ByteMap, HeapAdj, MappedAdj, StorageError};
pub use weighted::{WeightedEdge, WeightedGraph};

/// Distance type used throughout: hop distances in `G` and weighted distances
/// in emulators are both integral because `G` is unweighted and emulator edge
/// weights are exact `G`-distances.
pub type Dist = u64;

/// A conventional "infinite" distance for dense distance arrays.
pub const INF: Dist = Dist::MAX;
