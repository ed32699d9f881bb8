//! Dijkstra's algorithm on weighted graphs.
//!
//! Used to answer distance queries in the emulator `H` — the verification
//! side of the reproduction: `d_H(u, v)` must sit in
//! `[d_G(u, v), (1+ε)·d_G(u, v) + β]`.
//!
//! Two implementations share one semantics (a path whose length reaches
//! `u64::MAX` reads as unreachable) and one adjacency, [`CsrWords`]: the
//! all-`u64` weighted CSR a snapshot's emulator section stores and a
//! [`WeightedGraph`] builds from its edge table
//! ([`WeightedGraph::csr`]).
//!
//! * [`dijkstra`] / [`dijkstra_bounded`] / [`distance`] — binary-heap
//!   Dijkstra, the reference the tests compare against;
//! * [`sssp`] — the serving kernel: a monotone radix-heap Dijkstra.

use crate::graph::VertexId;
use crate::weighted::WeightedGraph;
use crate::{Dist, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A weighted CSR read as `u64` words, in the layout of a snapshot's
/// emulator section: `n + 1` monotone offsets counted in pairs, then one
/// `neighbor, weight` word pair per adjacency entry, each row ascending by
/// neighbor. [`sssp`] reads it; every neighbor must be `< n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrWords<'a> {
    /// Row offsets: row `v` holds pairs `offsets[v]..offsets[v + 1]`.
    pub offsets: &'a [u64],
    /// Pair `i` is `pairs[2i]` (neighbor) and `pairs[2i + 1]` (weight),
    /// row after row.
    pub pairs: &'a [u64],
}

impl<'a> CsrWords<'a> {
    /// Row `v`: its `(neighbor, weight)` pairs, ascending by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row(self, v: VertexId) -> impl Iterator<Item = (VertexId, Dist)> + 'a {
        let entries = 2 * self.offsets[v] as usize..2 * self.offsets[v + 1] as usize;
        self.pairs[entries]
            .chunks_exact(2)
            .map(|pair| (pair[0] as VertexId, pair[1]))
    }
}

/// Monotone priority queue over `u64` keys (a radix heap): every pushed
/// key is at least the last popped one. A key lives in the bucket of the
/// highest bit where it differs from that last key, so bucket 0 holds
/// keys equal to it and 64 buckets cover every other `u64`. Popping from
/// an empty bucket 0 moves the lowest non-empty bucket down around its
/// minimum; each entry moves at most 64 times.
struct RadixHeap {
    last: Dist,
    buckets: [Vec<(Dist, VertexId)>; 65],
}

impl RadixHeap {
    fn new() -> Self {
        RadixHeap {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn bucket(&self, key: Dist) -> usize {
        (Dist::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    fn push(&mut self, key: Dist, v: VertexId) {
        debug_assert!(key >= self.last, "radix heap keys are monotone");
        let b = self.bucket(key);
        self.buckets[b].push((key, v));
    }

    fn pop(&mut self) -> Option<(Dist, VertexId)> {
        if self.buckets[0].is_empty() {
            let b = (1..self.buckets.len()).find(|&b| !self.buckets[b].is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            self.last = moved.iter().map(|&(k, _)| k).min().expect("non-empty");
            for (k, v) in moved.drain(..) {
                let to = self.bucket(k);
                self.buckets[to].push((k, v));
            }
            // Keep the drained bucket's allocation for later pushes.
            self.buckets[b] = moved;
        }
        self.buckets[0].pop()
    }
}

/// Single-source distances over `csr` — the one SSSP kernel every query
/// tree runs, on the heap store and the mapped store alike.
///
/// A monotone radix-heap Dijkstra: correct for every `u64` weight, with
/// the reference's saturating semantics (equal to [`dijkstra`] on the
/// same graph). It writes straight into the returned vector; the only
/// other state is the heap's entries.
///
/// # Panics
///
/// Panics if `source` or a stored neighbor is out of range.
///
/// # Example
///
/// ```
/// use usnae_graph::{WeightedGraph, dijkstra::sssp};
///
/// let mut h = WeightedGraph::new(3);
/// h.add_edge(0, 1, 5);
/// h.add_edge(1, 2, 7);
/// assert_eq!(sssp(h.csr(), 0), vec![Some(0), Some(5), Some(12)]);
/// ```
pub fn sssp(csr: CsrWords<'_>, source: VertexId) -> Vec<Option<Dist>> {
    let n = csr.offsets.len().saturating_sub(1);
    let mut dist: Vec<Option<Dist>> = vec![None; n];
    let mut heap = RadixHeap::new();
    dist[source] = Some(0);
    heap.push(0, source);
    while let Some((d, v)) = heap.pop() {
        // Each (key, vertex) entry is pushed at most once, so an entry
        // whose key is not the vertex's distance is stale.
        if dist[v] != Some(d) {
            continue;
        }
        for (nb, w) in csr.row(v) {
            let nd = d.saturating_add(w);
            if nd < dist[nb].unwrap_or(INF) {
                dist[nb] = Some(nd);
                heap.push(nd, nb);
            }
        }
    }
    dist
}

/// Single-source Dijkstra; `None` marks unreachable vertices.
///
/// # Example
///
/// ```
/// use usnae_graph::{WeightedGraph, dijkstra::dijkstra};
///
/// let mut h = WeightedGraph::new(3);
/// h.add_edge(0, 1, 5);
/// h.add_edge(1, 2, 7);
/// let d = dijkstra(&h, 0);
/// assert_eq!(d[2], Some(12));
/// ```
pub fn dijkstra(g: &WeightedGraph, source: usize) -> Vec<Option<Dist>> {
    dijkstra_bounded(g, source, INF)
}

/// Dijkstra truncated at distance `bound`: vertices farther than `bound`
/// remain `None`. The centralized Algorithm 1 uses this with `bound = δ_i`.
pub fn dijkstra_bounded(g: &WeightedGraph, source: usize, bound: Dist) -> Vec<Option<Dist>> {
    let csr = g.csr();
    let n = g.num_vertices();
    let mut dist: Vec<Dist> = vec![INF; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0;
    heap.push(Reverse((0 as Dist, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if done[u] || d > bound {
            continue;
        }
        done[u] = true;
        for (v, w) in csr.row(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v] && nd <= bound {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist.into_iter()
        .zip(done)
        .map(|(d, fin)| if fin || d != INF { Some(d) } else { None })
        .collect()
}

/// Point-to-point distance in a weighted graph.
pub fn distance(g: &WeightedGraph, source: usize, target: usize) -> Option<Dist> {
    // Early-exit Dijkstra: stop as soon as `target` is settled.
    let csr = g.csr();
    let n = g.num_vertices();
    let mut dist: Vec<Dist> = vec![INF; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0;
    heap.push(Reverse((0 as Dist, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        if u == target {
            return Some(d);
        }
        done[u] = true;
        for (v, w) in csr.row(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_path(weights: &[Dist]) -> WeightedGraph {
        let mut g = WeightedGraph::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(i, i + 1, w);
        }
        g
    }

    #[test]
    fn dijkstra_on_weighted_path() {
        let g = weighted_path(&[2, 3, 4]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![Some(0), Some(2), Some(5), Some(9)]);
        assert_eq!(sssp(g.csr(), 0), d);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 3, 100);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        assert_eq!(dijkstra(&g, 0)[3], Some(3));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1);
        assert_eq!(dijkstra(&g, 0)[2], None);
        assert_eq!(sssp(g.csr(), 0)[2], None);
    }

    #[test]
    fn bounded_dijkstra_truncates() {
        let g = weighted_path(&[2, 3, 4]);
        let d = dijkstra_bounded(&g, 0, 5);
        assert_eq!(d[2], Some(5));
        assert_eq!(d[3], None);
    }

    #[test]
    fn bounded_dijkstra_keeps_exact_boundary() {
        let g = weighted_path(&[5]);
        let d = dijkstra_bounded(&g, 0, 5);
        assert_eq!(d[1], Some(5));
    }

    #[test]
    fn point_to_point_matches_full() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 4, 6);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(3, 4, 1);
        assert_eq!(distance(&g, 0, 4), Some(3));
        assert_eq!(distance(&g, 0, 4), dijkstra(&g, 0)[4]);
    }

    #[test]
    fn point_to_point_unreachable() {
        let g = WeightedGraph::new(2);
        assert_eq!(distance(&g, 0, 1), None);
    }

    #[test]
    fn source_distance_zero() {
        let g = weighted_path(&[1]);
        assert_eq!(distance(&g, 1, 1), Some(0));
    }

    /// The kernel stays correct even if its queue pops out of order (a
    /// vertex settled early is relaxed again), so its order is checked
    /// here: monotone pushes — equal keys, small steps, single high bits
    /// and keys near `u64::MAX` — pop like a binary heap.
    #[test]
    fn radix_heap_pops_keys_in_order() {
        let mut rng = crate::rng::Rng::seed_from_u64(7);
        let mut heap = RadixHeap::new();
        let mut reference = BinaryHeap::new();
        for round in 0..4000 {
            if round % 3 == 2 {
                let expect = reference.pop().map(|Reverse(k)| k);
                assert_eq!(heap.pop().map(|(k, _)| k), expect, "round {round}");
                continue;
            }
            let last = heap.last;
            let key = match rng.gen_range(0, 4) {
                0 => last,
                1 => last.saturating_add(rng.gen_range(1, 8) as Dist),
                2 => last.saturating_add(1 << rng.gen_range(0, 64)),
                _ => Dist::MAX - rng.gen_range(0, 3) as Dist,
            };
            heap.push(key, round);
            reference.push(Reverse(key));
        }
        while let Some(Reverse(k)) = reference.pop() {
            assert_eq!(heap.pop().map(|(k, _)| k), Some(k));
        }
        assert_eq!(heap.pop(), None);
    }
}
