//! Deterministic parallel execution substrate for the per-center
//! exploration phases.
//!
//! The dominant cost of every SAI construction is phase 0: one bounded BFS
//! per cluster center, each a pure function of `G` — embarrassingly
//! parallel. This module provides a work-stealing-free fan-out built only
//! on [`std::thread::scope`] (the repository is dependency-free):
//!
//! * [`shard_ranges`] splits an index range into contiguous, disjoint
//!   shards that cover every index exactly once;
//! * [`map_ranges`] / [`map_indexed`] fan a pure map over those shards and
//!   merge per-shard results **in shard order**, so the merged vector is
//!   identical for every thread count — including 1;
//! * [`ScratchPool`] runs one bounded BFS per source through the fan-out on
//!   per-thread scratch it keeps across calls, returning sorted distance
//!   balls ([`ScratchPool::balls`], or the one-shot [`balls`]) or sparse
//!   [`Exploration`]s with BFS-tree parents
//!   ([`ScratchPool::explorations`]), each sorted by vertex id (the
//!   iteration order the sequential constructions use when scanning a
//!   dense distance array).
//!
//! Determinism contract: for any `threads >= 1`, every function here
//! returns *bit-identical* output to its `threads == 1` run. The parity
//! suite (`tests/parallel_determinism.rs` at the workspace root) holds the
//! constructions built on top of this module to the same standard.

use crate::graph::VertexId;
use crate::partition::ShardView;
use crate::{Dist, INF};
use std::ops::Range;

/// Splits `0..len` into at most `shards` contiguous ranges of near-equal
/// length, covering every index exactly once. The first `len % shards`
/// ranges are one element longer; empty ranges are never returned.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let rem = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Applies `f` to each shard of `0..len` and concatenates the per-shard
/// vectors in shard order.
///
/// With `threads <= 1` (or a single shard) this is exactly `f(0..len)` on
/// the calling thread — no spawn, no overhead. With more, each shard runs
/// on its own scoped thread; because shards are contiguous and results are
/// merged in shard order, the output is independent of the thread count.
///
/// `f` sees the *global* index range of its shard, so workers can address
/// shared read-only slices directly and allocate per-shard scratch once.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn map_ranges<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    map_ranges_with(&mut vec![(); threads.max(1)], len, |_, r| f(r))
}

/// [`map_ranges`] with one piece of caller-owned per-thread state per
/// shard: `0..len` splits into at most `states.len()` shards, and shard
/// `s` runs `f(&mut states[s], range)`. The state outlives the call, so
/// scratch space is paid for once across many calls.
///
/// # Panics
///
/// Panics when `states` is empty; propagates a panic from any worker
/// thread.
fn map_ranges_with<S, T, F>(states: &mut [S], len: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, Range<usize>) -> Vec<T> + Sync,
{
    let shards = shard_ranges(len, states.len());
    if shards.len() <= 1 {
        return f(&mut states[0], 0..len);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .zip(states.iter_mut())
            .map(|(r, state)| scope.spawn(move || f(state, r)))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("parallel shard worker panicked"));
        }
        out
    })
}

/// Index-wise parallel map: `out[i] == f(i)` for all `i in 0..len`,
/// deterministically, for any `threads >= 1`.
pub fn map_indexed<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_ranges(threads, len, |r| r.map(&f).collect())
}

/// One bounded-BFS exploration: every vertex the search reached, with its
/// distance and its FIFO BFS-tree parent, ascending by vertex id — so its
/// memory is the size of the ball, not of the graph. Interconnection
/// paths (§4 adds whole shortest paths to the spanner) are read back with
/// [`path_to`](Self::path_to).
///
/// The in-process fan-out ([`ScratchPool::explorations`]) and the worker
/// pool (`usnae_workers::WorkerPool::explorations`) both return this type,
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// `(v, dist, parent)` ascending by `v`; the source has distance 0 and
    /// no parent.
    pub settled: Vec<(VertexId, Dist, Option<VertexId>)>,
}

impl Exploration {
    /// Shortest path from the source to `v` (both inclusive) along the
    /// BFS tree, or `None` if `v` was not reached.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let mut path = Vec::new();
        let mut cur = Some(v);
        while let Some(u) = cur {
            path.push(u);
            let i = self.settled.binary_search_by_key(&u, |&(w, ..)| w).ok()?;
            cur = self.settled[i].2;
        }
        path.reverse();
        Some(path)
    }

    /// Reached vertices flagged in `is_center`, except the source, with
    /// their distances, ascending by vertex id.
    pub fn centers_found<'a>(
        &'a self,
        is_center: &'a [bool],
    ) -> impl Iterator<Item = (VertexId, Dist)> + 'a {
        self.settled
            .iter()
            .filter(move |&&(v, d, _)| d > 0 && is_center[v])
            .map(|&(v, d, _)| (v, d))
    }
}

/// Reusable bounded-BFS scratch: dense distance and parent arrays, reset
/// sparsely (only the vertices the last search reached), so a shard of
/// many small-ball searches pays the `O(n)` initialization once.
#[derive(Debug, Clone)]
pub struct BallScratch {
    dist: Vec<Dist>,
    parent: Vec<VertexId>,
    /// The FIFO queue of the current search. Nothing is ever popped, so
    /// afterwards it holds exactly the reached vertices — the reset list.
    queue: Vec<VertexId>,
}

impl BallScratch {
    /// Scratch for searches over an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        BallScratch {
            dist: vec![INF; n],
            parent: vec![0; n],
            queue: Vec::new(),
        }
    }

    /// FIFO BFS from `source`, expanding vertices below `depth`; returns
    /// `entry(v, dist, parent)` per reached vertex **ascending by vertex
    /// id**, where `parent` is the first discoverer (`None` for the
    /// source). The output is sized exactly.
    fn search<V: ShardView + ?Sized, T>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
        entry: impl Fn(VertexId, Dist, Option<VertexId>) -> T,
    ) -> Vec<T> {
        self.dist[source] = 0;
        self.queue.push(source);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u];
            if du == depth {
                continue;
            }
            for &v in g.neighbors(u) {
                if self.dist[v] == INF {
                    self.dist[v] = du + 1;
                    self.parent[v] = u;
                    self.queue.push(v);
                }
            }
        }
        self.queue.sort_unstable();
        let reached = self
            .queue
            .iter()
            .map(|&v| entry(v, self.dist[v], (v != source).then(|| self.parent[v])))
            .collect();
        for &v in &self.queue {
            self.dist[v] = INF;
        }
        self.queue.clear();
        reached
    }

    /// Bounded BFS from `source` to depth `depth`, returning the reached
    /// vertices (including `source` at distance 0) **sorted by vertex id**
    /// — the order a scan of a dense distance array visits them, which is
    /// what keeps the constructions' edge-emission order identical to
    /// their historical dense-array loops.
    ///
    /// Generic over [`ShardView`], so the same search runs over the shared
    /// adjacency array or over per-worker CSR shards (identical output —
    /// the views are pointwise identical by contract).
    pub fn ball_sorted<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
    ) -> Vec<(VertexId, Dist)> {
        self.search(g, source, depth, |v, d, _| (v, d))
    }

    /// [`ball_sorted`](Self::ball_sorted) with BFS-tree parents: the
    /// sequential FIFO search, each vertex's parent its first discoverer.
    pub fn explore<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        source: VertexId,
        depth: Dist,
    ) -> Exploration {
        Exploration {
            settled: self.search(g, source, depth, |v, d, p| (v, d, p)),
        }
    }
}

/// Per-thread [`BallScratch`]es for the fan-out, kept across calls: a
/// caller that feeds many small batches (a chunked phase, a ruling-set
/// carving) pays each thread's `O(n)` scratch once, not once per batch.
/// Scratch is allocated on first use, one per shard actually run.
#[derive(Debug)]
pub struct ScratchPool {
    n: usize,
    threads: usize,
    scratch: Vec<BallScratch>,
}

impl ScratchPool {
    /// An empty pool for searches over an `n`-vertex graph, fanned out
    /// over `threads` (at least 1).
    pub fn new(n: usize, threads: usize) -> Self {
        ScratchPool {
            n,
            threads: threads.max(1),
            scratch: Vec::new(),
        }
    }

    /// One [`BallScratch::ball_sorted`] per source; `out[i]` is the ball
    /// of `sources[i]`. Identical output for every thread count and for
    /// every [`ShardView`] layout (shared array or CSR shards).
    pub fn balls<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        sources: &[VertexId],
        depth: Dist,
    ) -> Vec<Vec<(VertexId, Dist)>> {
        self.map(sources, |scratch, s| scratch.ball_sorted(g, s, depth))
    }

    /// One [`BallScratch::explore`] per source; `out[i]` explores from
    /// `sources[i]`. Identical output for every thread count and layout.
    pub fn explorations<V: ShardView + ?Sized>(
        &mut self,
        g: &V,
        sources: &[VertexId],
        depth: Dist,
    ) -> Vec<Exploration> {
        self.map(sources, |scratch, s| scratch.explore(g, s, depth))
    }

    fn map<T: Send>(
        &mut self,
        sources: &[VertexId],
        f: impl Fn(&mut BallScratch, VertexId) -> T + Sync,
    ) -> Vec<T> {
        let shards = shard_ranges(sources.len(), self.threads).len();
        if shards == 0 {
            return Vec::new();
        }
        while self.scratch.len() < shards {
            self.scratch.push(BallScratch::new(self.n));
        }
        map_ranges_with(&mut self.scratch[..shards], sources.len(), |scratch, r| {
            r.map(|i| f(scratch, sources[i])).collect()
        })
    }
}

/// One bounded BFS per source, fanned out over `threads` shards; `out[i]`
/// is the ball of `sources[i]` sorted by vertex id (see
/// [`BallScratch::ball_sorted`]). A one-shot [`ScratchPool::balls`]:
/// callers issuing many batches should keep a pool instead.
pub fn balls<V: ShardView + ?Sized>(
    g: &V,
    sources: &[VertexId],
    depth: Dist,
    threads: usize,
) -> Vec<Vec<(VertexId, Dist)>> {
    ScratchPool::new(g.num_vertices(), threads).balls(g, sources, depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::generators;

    #[test]
    fn shard_ranges_cover_every_index_exactly_once() {
        for len in [0usize, 1, 2, 7, 64, 1000, 1001] {
            for shards in [1usize, 2, 3, 4, 8, 13, 2000] {
                let ranges = shard_ranges(len, shards);
                let mut seen = vec![0usize; len];
                let mut prev_end = 0;
                for r in &ranges {
                    assert!(!r.is_empty(), "len={len} shards={shards}: empty shard");
                    assert_eq!(r.start, prev_end, "shards must be contiguous");
                    prev_end = r.end;
                    for i in r.clone() {
                        seen[i] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "len={len} shards={shards}: index covered != once"
                );
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn map_indexed_merge_order_is_stable_across_thread_counts() {
        let reference: Vec<usize> = (0..997).map(|i| i * i % 101).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let got = map_indexed(threads, 997, |i| i * i % 101);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn map_ranges_sees_global_indices() {
        let data: Vec<u64> = (0..500).map(|i| i as u64 * 3).collect();
        for threads in [1usize, 4, 7] {
            let got = map_ranges(threads, data.len(), |r| {
                r.map(|i| data[i] + 1).collect::<Vec<_>>()
            });
            let want: Vec<u64> = data.iter().map(|&x| x + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn ball_sorted_matches_dense_bounded_bfs() {
        let g = generators::gnp_connected(200, 0.04, 11).unwrap();
        let mut scratch = BallScratch::new(200);
        for source in [0usize, 7, 199] {
            for depth in [0u64, 1, 2, 5, INF] {
                let sparse = scratch.ball_sorted(&g, source, depth);
                let dense: Vec<(VertexId, Dist)> = bfs::bfs_bounded(&g, source, depth)
                    .iter()
                    .enumerate()
                    .filter_map(|(v, d)| d.map(|d| (v, d)))
                    .collect();
                assert_eq!(sparse, dense, "source={source} depth={depth}");
            }
        }
    }

    #[test]
    fn scratch_reuse_leaves_no_residue() {
        let g = generators::grid2d(12, 12).unwrap();
        let mut scratch = BallScratch::new(144);
        let first = scratch.ball_sorted(&g, 0, 4);
        let first_exploration = scratch.explore(&g, 0, 4);
        let _middle = scratch.ball_sorted(&g, 77, 6);
        let _whole = scratch.explore(&g, 143, INF);
        assert_eq!(scratch.ball_sorted(&g, 0, 4), first);
        assert_eq!(scratch.explore(&g, 0, 4), first_exploration);
        assert_eq!(first_exploration, BallScratch::new(144).explore(&g, 0, 4));
    }

    #[test]
    fn balls_fan_out_agrees_with_sequential_loop_on_seeded_graphs() {
        for seed in [1u64, 5, 9] {
            let g = generators::gnp_connected(150, 0.05, seed).unwrap();
            let sources: Vec<VertexId> = (0..g.num_vertices()).collect();
            let sequential = balls(&g, &sources, 3, 1);
            for threads in [2usize, 4, 8] {
                let parallel = balls(&g, &sources, 3, threads);
                assert_eq!(sequential, parallel, "seed={seed} threads={threads}");
            }
            // And the sequential loop itself matches the plain dense BFS.
            for (&s, ball) in sources.iter().zip(&sequential) {
                let dense: Vec<(VertexId, Dist)> = bfs::bfs_bounded(&g, s, 3)
                    .iter()
                    .enumerate()
                    .filter_map(|(v, d)| d.map(|d| (v, d)))
                    .collect();
                assert_eq!(*ball, dense, "seed={seed} source={s}");
            }
        }
    }

    #[test]
    fn balls_over_csr_shards_match_the_shared_array() {
        use crate::partition::{PartitionPolicy, ShardedCsr};
        let g = generators::gnp_connected(160, 0.05, 7).unwrap();
        let sources: Vec<VertexId> = (0..g.num_vertices()).step_by(3).collect();
        let shared = balls(&g, &sources, 4, 2);
        for policy in PartitionPolicy::all() {
            for shards in [1usize, 2, 4, 7] {
                let layout = ShardedCsr::build(&g, policy, shards);
                assert_eq!(
                    balls(&layout, &sources, 4, 2),
                    shared,
                    "policy={policy} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn exploration_distances_match_bounded_bfs() {
        let g = generators::grid2d(6, 6).unwrap();
        let mut scratch = BallScratch::new(36);
        let e = scratch.explore(&g, 0, 4);
        let dense: Vec<(VertexId, Dist)> = bfs::bfs_bounded(&g, 0, 4)
            .iter()
            .enumerate()
            .filter_map(|(v, d)| d.map(|d| (v, d)))
            .collect();
        let ball: Vec<(VertexId, Dist)> = e.settled.iter().map(|&(v, d, _)| (v, d)).collect();
        assert_eq!(ball, dense);
        assert_eq!(ball, scratch.ball_sorted(&g, 0, 4));
    }

    #[test]
    fn path_reconstruction_is_shortest() {
        let g = generators::grid2d(5, 5).unwrap();
        let e = BallScratch::new(25).explore(&g, 0, 10);
        let p = e.path_to(24).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&24));
        assert_eq!(p.len() as u64 - 1, e.settled.last().unwrap().1);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert_eq!(e.path_to(0), Some(vec![0]));
    }

    #[test]
    fn path_to_unreached_is_none() {
        let g = generators::path(10).unwrap();
        let e = BallScratch::new(10).explore(&g, 0, 3);
        assert!(e.path_to(7).is_none());
        assert_eq!(e.path_to(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn centers_found_skips_the_source_and_unflagged_vertices() {
        let g = generators::path(6).unwrap();
        let mut is_center = vec![false; 6];
        is_center[0] = true;
        is_center[2] = true;
        is_center[5] = true;
        let e = BallScratch::new(6).explore(&g, 0, 3);
        // 5 lies beyond the depth; 0 is the source.
        assert_eq!(
            e.centers_found(&is_center).collect::<Vec<_>>(),
            vec![(2, 2)]
        );
    }

    #[test]
    fn pooled_scratch_is_reused_across_batches() {
        let g = generators::gnp_connected(150, 0.05, 3).unwrap();
        let sources: Vec<VertexId> = (0..150).step_by(7).collect();
        let whole = ScratchPool::new(150, 1).explorations(&g, &sources, 3);
        for threads in [1usize, 4] {
            let mut pool = ScratchPool::new(150, threads);
            let mut chunked = Vec::new();
            for chunk in sources.chunks(5) {
                chunked.extend(pool.explorations(&g, chunk, 3));
                assert_eq!(pool.balls(&g, chunk, 3), balls(&g, chunk, 3, 1));
            }
            assert_eq!(chunked, whole, "threads={threads}");
            assert!(pool.scratch.len() <= threads);
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let g = generators::path(4).unwrap();
        assert!(balls(&g, &[], 3, 4).is_empty());
        assert!(ScratchPool::new(4, 2).explorations(&g, &[], 3).is_empty());
        assert!(map_indexed(4, 0, |i| i).is_empty());
        assert!(shard_ranges(0, 4).is_empty());
    }
}
