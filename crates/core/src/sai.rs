//! Shared primitives of the ruling-set-based SAI constructions (§3.3, §4).

use crate::engine::Engine;
use crate::exec::ChunkPolicy;
use usnae_graph::par::{self, Exploration};
use usnae_graph::partition::ShardView;
use usnae_graph::{AdjStorage, Dist, Graph, VertexId};

/// Task 1 of a ruling-set phase, classified as its results arrive:
/// `chunk_loop` runs one of the engine's chunk loops, handing each center
/// and its search result to the callback in center order, and `keep` maps
/// a result to its number of neighboring centers and the value
/// interconnection may need.
///
/// Returns the popular centers (at least `cap` neighboring centers) and,
/// per center, the kept value. Outside the last phase a popular center
/// keeps none: the ruling set dominates it within `2δ_i`, and the ruling
/// forest grows to depth `rul_i + δ_i ≥ 2δ_i` (as `ρ ≤ 1/2`), so it is
/// always superclustered. The last phase grows no forest, so there every
/// center keeps its value.
pub fn classify_centers<R, T>(
    chunk_loop: impl FnOnce(&mut dyn FnMut(VertexId, R)),
    keep: impl Fn(VertexId, R) -> (usize, T),
    cap: usize,
    last: bool,
) -> (Vec<VertexId>, Vec<Option<T>>) {
    let mut popular = Vec::new();
    let mut kept = Vec::new();
    chunk_loop(&mut |rc, result| {
        let (neighbors, value) = keep(rc, result);
        let is_popular = neighbors >= cap;
        if is_popular {
            popular.push(rc);
        }
        kept.push((last || !is_popular).then_some(value));
    });
    (popular, kept)
}

/// [`classify_centers`] for the path-inserting constructions (the §4
/// spanner and the EM19 baseline): each center keeps its exploration to
/// `delta`, from which interconnection reads whole paths.
pub fn explore_centers<S: AdjStorage>(
    engine: &Engine<'_, S>,
    centers: &[VertexId],
    delta: Dist,
    is_center: &[bool],
    cap: usize,
    last: bool,
) -> (Vec<VertexId>, Vec<Option<Exploration>>) {
    classify_centers(
        |consume| engine.for_each_exploration(centers, delta, consume),
        |_, e: Exploration| (e.centers_found(is_center).count(), e),
        cap,
        last,
    )
}

/// Deterministic greedy min-id ball carving (substitution S1): a ruling set
/// for `w` with pairwise separation ≥ `2δ + 1` and domination ≤ `2δ`.
pub fn ruling_set(g: &Graph, w: &[VertexId], delta: Dist) -> Vec<VertexId> {
    ruling_set_par(g, w, delta, 1)
}

/// [`ruling_set`] with the ball carving sharded over `threads` via the
/// `usnae_graph::par` fan-out — **byte-identical** to the sequential run
/// for every thread count.
///
/// The greedy selection itself is order-dependent (a candidate is skipped
/// iff an earlier-chosen ball already dominates it), so only the *balls*
/// parallelize: a chunk of still-undominated candidates is prefetched
/// concurrently, then consumed strictly in ascending-id order, re-checking
/// each candidate's domination status at consumption time. A ball whose
/// candidate got dominated within its own chunk is discarded — wasted work
/// only, never a different ruling set. The chunk size adapts via
/// [`ChunkPolicy`] (pinned to 1 at `threads == 1`: exactly the historical
/// lazy loop). Generic over [`ShardView`]: the carving reads local CSR
/// shards or the shared array with identical output.
pub fn ruling_set_par<V: ShardView + ?Sized>(
    g: &V,
    w: &[VertexId],
    delta: Dist,
    threads: usize,
) -> Vec<VertexId> {
    ruling_set_impl(g.num_vertices(), w, delta, threads, |batch, depth| {
        par::balls(g, batch, depth, threads)
    })
}

/// The carving loop itself, parameterized over the ball provider so the
/// same greedy selection runs against the in-process fan-out
/// ([`ruling_set_par`]) or a worker pool (`Engine::ruling_set`) with
/// byte-identical output — the provider only changes *where* the balls
/// are computed, never their contents.
pub(crate) fn ruling_set_impl(
    n: usize,
    w: &[VertexId],
    delta: Dist,
    threads: usize,
    mut balls_of: impl FnMut(&[VertexId], Dist) -> Vec<Vec<(VertexId, Dist)>>,
) -> Vec<VertexId> {
    let mut sorted = w.to_vec();
    sorted.sort_unstable();
    let two_delta = delta.saturating_mul(2);
    let mut dominated = vec![false; n];
    let mut chosen = Vec::new();
    let mut policy = ChunkPolicy::new(threads);
    let mut next = 0;
    while next < sorted.len() {
        // Prefetch balls for the next chunk of currently-undominated
        // candidates; earlier chunks' carving already pruned most of them.
        let mut batch: Vec<VertexId> = Vec::new();
        while next < sorted.len() && batch.len() < policy.chunk() {
            let cand = sorted[next];
            next += 1;
            if !dominated[cand] {
                batch.push(cand);
            }
        }
        if batch.is_empty() {
            continue;
        }
        // Sparse balls (reused per-shard scratch) keep the in-flight memory
        // proportional to the reached vertices, not chunk × n.
        let balls = balls_of(&batch, two_delta);
        let mut used = 0;
        for (&cand, ball) in batch.iter().zip(&balls) {
            if dominated[cand] {
                continue; // carved away by an earlier ball in this chunk
            }
            used += 1;
            chosen.push(cand);
            for &(v, _) in ball {
                dominated[v] = true;
            }
        }
        policy.record(batch.len(), used);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;

    #[test]
    fn ruling_set_on_cycle() {
        let g = generators::cycle(30).unwrap();
        let w: Vec<usize> = (0..30).collect();
        let delta = 2;
        let rulers = ruling_set(&g, &w, delta);
        // Separation > 2δ = 4 on a cycle of 30 → at most 6 rulers; ≥ 30/5.
        assert!(rulers.len() <= 6 && rulers.len() >= 5, "{rulers:?}");
        assert_eq!(rulers[0], 0); // min id always chosen first
    }

    #[test]
    fn ruling_set_empty_input() {
        let g = generators::path(4).unwrap();
        assert!(ruling_set(&g, &[], 3).is_empty());
        for threads in [1usize, 4] {
            assert!(ruling_set_par(&g, &[], 3, threads).is_empty());
        }
    }

    #[test]
    fn parallel_carving_is_byte_identical_to_sequential() {
        for seed in [1u64, 5, 12] {
            let g = generators::gnp_connected(240, 0.04, seed).unwrap();
            for delta in [1u64, 2, 4] {
                let w: Vec<usize> = (0..240).step_by(2).collect();
                let sequential = ruling_set(&g, &w, delta);
                for threads in [2usize, 4, 8] {
                    assert_eq!(
                        ruling_set_par(&g, &w, delta, threads),
                        sequential,
                        "seed={seed} delta={delta} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_carving_handles_duplicate_candidates() {
        let g = generators::cycle(40).unwrap();
        let mut w: Vec<usize> = (0..40).collect();
        w.extend(0..40); // duplicates must not double-select
        let sequential = ruling_set(&g, &w, 2);
        assert_eq!(ruling_set_par(&g, &w, 2, 4), sequential);
        let unique: std::collections::HashSet<_> = sequential.iter().collect();
        assert_eq!(unique.len(), sequential.len());
    }
}
