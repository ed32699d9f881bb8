//! Shared primitives of the ruling-set-based SAI constructions (§3.3, §4).

use crate::engine::Engine;
use crate::exec::ChunkPolicy;
use usnae_graph::par::{self, Exploration};
use usnae_graph::partition::ShardView;
use usnae_graph::{AdjStorage, Dist, Graph, VertexId};

/// Task 1 of a ruling-set phase: classifies every center as popular (at
/// least `cap` neighboring centers within `delta`) or not, searching only
/// the centers whose class is not already known.
///
/// Two rules settle a center without a search, both read off the
/// engine's components, which a phase with `delta < 2` never asks for:
///
/// * Outside the last phase a center is popular when its component is
///   saturated at `delta` (`delta ≥ 2·ecc(r)` for the component's min-id
///   vertex `r`, so the search would settle the whole component) and
///   holds more than `cap` centers (so the search would find at least
///   `cap` others).
/// * In every phase a center alone in its component is classified as if
///   its search had found no other center, which is all it could find.
///
/// Every other center goes through `search`, which runs one of the
/// engine's chunk loops over the given sources, handing each source and
/// its search result to the callback in source order. `keep` maps a
/// center's result (`None` for a center alone in its component) to its
/// number of neighboring centers and the value interconnection may need.
///
/// Returns the popular centers, per center the kept value, and the number
/// of centers searched. Outside the last phase a popular center keeps
/// none: the ruling set dominates it within `2δ_i`, and the ruling forest
/// grows to depth `rul_i + δ_i ≥ 2δ_i` (as `ρ ≤ 1/2`), so it is always
/// superclustered. That is also why a saturated center loses nothing by
/// its skipped search. The last phase grows no forest, so there every
/// center keeps its value.
pub fn classify_centers<S: AdjStorage, R, T>(
    engine: &Engine<'_, S>,
    centers: &[VertexId],
    delta: Dist,
    cap: usize,
    last: bool,
    search: impl FnOnce(&[VertexId], &mut dyn FnMut(VertexId, R)),
    keep: impl Fn(VertexId, Option<R>) -> (usize, T),
) -> (Vec<VertexId>, Vec<Option<T>>, usize) {
    let known = known_classes(engine, centers, delta, cap, last);
    let sources: Vec<VertexId> = centers
        .iter()
        .zip(&known)
        .filter(|(_, class)| class.is_none())
        .map(|(&c, _)| c)
        .collect();
    let classify = |rc, result| {
        let (neighbors, value) = keep(rc, result);
        let is_popular = neighbors >= cap;
        (is_popular, (last || !is_popular).then_some(value))
    };
    let mut searched = Vec::with_capacity(sources.len());
    search(&sources, &mut |rc, result| {
        searched.push(classify(rc, Some(result)));
    });
    debug_assert_eq!(searched.len(), sources.len(), "one result per source");
    let mut searched = searched.into_iter();
    let mut popular = Vec::new();
    let kept = centers
        .iter()
        .zip(&known)
        .map(|(&rc, class)| {
            let (is_popular, value) = match class {
                None => searched.next().expect("one result per source"),
                Some(Known::Saturated) => (true, None),
                Some(Known::Alone) => classify(rc, None),
            };
            if is_popular {
                popular.push(rc);
            }
            value
        })
        .collect();
    (popular, kept, sources.len())
}

/// A center [`classify_centers`] classifies without a search.
#[derive(Debug, Clone, Copy)]
enum Known {
    /// Popular: its component is saturated and holds more than `cap`
    /// centers (outside the last phase).
    Saturated,
    /// The only center of its component.
    Alone,
}

/// Which of `centers` [`classify_centers`] classifies without a search,
/// and by which rule. With `delta < 2` the phase skips nothing and never
/// asks the engine for its components: there only a one-vertex component
/// is saturated, and a search from a lone center reads one row.
fn known_classes<S: AdjStorage>(
    engine: &Engine<'_, S>,
    centers: &[VertexId],
    delta: Dist,
    cap: usize,
    last: bool,
) -> Vec<Option<Known>> {
    if delta < 2 {
        return vec![None; centers.len()];
    }
    let components = engine.components();
    let mut count = vec![0usize; components.saturation.len()];
    for &c in centers {
        count[components.of[c]] += 1;
    }
    centers
        .iter()
        .map(|&c| {
            let k = components.of[c];
            if count[k] == 1 {
                Some(Known::Alone)
            } else if !last && delta >= components.saturation[k] && count[k] > cap {
                Some(Known::Saturated)
            } else {
                None
            }
        })
        .collect()
}

/// [`classify_centers`] for the path-inserting constructions (the §4
/// spanner and the EM19 baseline): a center that may interconnect keeps
/// its exploration to `delta`, from which interconnection reads whole
/// paths.
pub fn explore_centers<S: AdjStorage>(
    engine: &Engine<'_, S>,
    centers: &[VertexId],
    delta: Dist,
    is_center: &[bool],
    cap: usize,
    last: bool,
) -> (Vec<VertexId>, Vec<Option<Exploration>>, usize) {
    classify_centers(
        engine,
        centers,
        delta,
        cap,
        last,
        |sources, consume| engine.for_each_exploration(sources, delta, consume),
        |rc, e: Option<Exploration>| {
            let e = e.unwrap_or_else(|| Exploration {
                settled: vec![(rc, 0, None)],
            });
            (e.centers_found(is_center).count(), e)
        },
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
    use usnae_graph::{bfs, generators, GraphBuilder};

    /// A 10-vertex path on `0..10` beside a connected G(n, p) on `10..60`
    /// and a 4-vertex path on `60..64`.
    fn paths_and_gnp() -> Graph {
        let gnp = generators::gnp_connected(50, 0.08, 4).unwrap();
        let mut b = GraphBuilder::new(64);
        for v in (1..10).chain(61..64) {
            b.add_edge(v - 1, v).unwrap();
        }
        for (u, v) in gnp.edges() {
            b.add_edge(10 + u, 10 + v).unwrap();
        }
        b.build()
    }

    /// A center's neighboring centers with their distances.
    type Neighbors = Vec<(VertexId, Dist)>;

    /// The rule without a shortcut: search from every center, and keep
    /// each searched center's neighboring centers.
    fn search_every_center(
        engine: &Engine<'_>,
        centers: &[VertexId],
        is_center: &[bool],
        delta: Dist,
        cap: usize,
        last: bool,
    ) -> (Vec<VertexId>, Vec<Option<Neighbors>>) {
        let mut popular = Vec::new();
        let mut kept = Vec::new();
        for (&c, ball) in centers.iter().zip(engine.balls(centers, delta)) {
            let nbrs: Neighbors = ball
                .into_iter()
                .filter(|&(v, _)| v != c && is_center[v])
                .collect();
            let is_popular = nbrs.len() >= cap;
            if is_popular {
                popular.push(c);
            }
            kept.push((last || !is_popular).then_some(nbrs));
        }
        (popular, kept)
    }

    #[test]
    fn classification_matches_searching_every_center() {
        let g = paths_and_gnp();
        let engine = Engine::inproc(&g, 1);
        // Every other vertex of the long path, every third G(n, p) vertex
        // and one vertex of the short path, alone in its component.
        let centers: Vec<VertexId> = (0..10)
            .step_by(2)
            .chain((10..60).step_by(3))
            .chain([61])
            .collect();
        let mut is_center = vec![false; 64];
        for &c in &centers {
            is_center[c] = true;
        }
        // Per component: its centers and twice its min-id vertex's
        // eccentricity.
        let components = [(0..10, 0), (10..60, 10), (60..64, 60)].map(|(range, root)| {
            let ecc = bfs::bfs(&g, root)[range.clone()]
                .iter()
                .map(|d| d.expect("connected component"))
                .max()
                .unwrap();
            let count = centers.iter().filter(|&&c| range.contains(&c)).count();
            (count, 2 * ecc)
        });
        assert_eq!(components[0], (5, 18));
        assert_eq!(components[2], (1, 6));
        let mut deltas = vec![1, 2];
        let mut caps = vec![1];
        for &(count, bound) in &components {
            deltas.extend([bound - 1, bound]);
            caps.extend([count - 1, count, count + 1]);
        }
        for &delta in &deltas {
            for &cap in &caps {
                for last in [false, true] {
                    let (popular, kept, searched) = classify_centers(
                        &engine,
                        &centers,
                        delta,
                        cap,
                        last,
                        |sources, consume| engine.for_each_ball(sources, delta, consume),
                        |rc, ball: Option<Vec<(VertexId, Dist)>>| {
                            let nbrs: Neighbors = ball
                                .into_iter()
                                .flatten()
                                .filter(|&(v, _)| v != rc && is_center[v])
                                .collect();
                            (nbrs.len(), nbrs)
                        },
                    );
                    let ctx = format!("delta={delta} cap={cap} last={last}");
                    let want = search_every_center(&engine, &centers, &is_center, delta, cap, last);
                    assert_eq!((popular, kept), want, "{ctx}");
                    let skipped: usize = components
                        .iter()
                        .filter(|&&(count, bound)| {
                            let alone = delta >= 2 && count == 1;
                            alone || (!last && delta >= bound && count > cap)
                        })
                        .map(|&(count, _)| count)
                        .sum();
                    assert_eq!(searched, centers.len() - skipped, "{ctx}");
                }
            }
        }
        // The edges of the rules. The long path's five centers are skipped
        // at δ = 2·ecc(r) = 18 and searched one below it or in the last
        // phase; the lone center is skipped at every δ ≥ 2, in the last
        // phase too, and searched at δ = 1.
        let searched_in = |range: std::ops::Range<VertexId>, delta, last| {
            let mut seen = 0;
            let search = |sources: &[VertexId], consume: &mut dyn FnMut(VertexId, ())| {
                seen = sources.iter().filter(|c| range.contains(c)).count();
                sources.iter().for_each(|&c| consume(c, ()));
            };
            classify_centers(&engine, &centers, delta, 4, last, search, |_, _| (0, ()));
            seen
        };
        assert_eq!(searched_in(0..10, 18, false), 0);
        assert_eq!(searched_in(0..10, 17, false), 5);
        assert_eq!(searched_in(0..10, 18, true), 5);
        for last in [false, true] {
            assert_eq!(searched_in(60..64, 1, last), 1);
            assert_eq!(searched_in(60..64, 2, last), 0);
        }
    }

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
