//! EM19-style spanner baseline (Elkin–Matar PODC'19).
//!
//! Structurally the same SAI pipeline as the paper's §4 spanner —
//! popularity detection, ruling forests, shortest-path interconnection —
//! but with the §3 degree schedule (`deg_i = n^(2^i/κ)` then `n^ρ`) instead
//! of §4's EN17a sequence. Without the geometric decay that sequence buys,
//! interconnection paths of length up to `δ_i` pile up and the size is
//! `O(β·n^(1+1/κ))` — the factor Corollary 4.4 removes. Experiment E7
//! measures the gap.

use usnae_core::cluster::{Cluster, Partition};
use usnae_core::emulator::{EdgeKind, EdgeProvenance, Emulator};
use usnae_core::engine::Engine;
use usnae_core::exec::{PhaseClock, PhaseTiming};
use usnae_core::params::DistributedParams;
use usnae_core::sai::explore_centers;
use usnae_graph::bfs::multi_source_bfs;
use usnae_graph::{Dist, Graph, VertexId};

/// Builds an EM19-style spanner: a subgraph of `G` with
/// `O(β·n^(1+1/κ))` edges.
#[deprecated(
    since = "0.2.0",
    note = "use the \"em19\" entry of usnae_baselines::registry instead"
)]
pub fn build_em19_spanner(g: &Graph, params: &DistributedParams) -> Emulator {
    build_em19(g, params, 1)
}

/// Crate-internal entry point behind the deprecated free-function shim
/// and the tests. The Task-1 explorations shard over `threads`; output is
/// byte-identical for every thread count.
pub(crate) fn build_em19(g: &Graph, params: &DistributedParams, threads: usize) -> Emulator {
    build_em19_exec(g, params, &Engine::inproc(g, threads)).0
}

/// [`build_em19`] with the Task-1 explorations and ruling-set carving
/// running through `engine` (shared array, partitioned shards, or a
/// worker pool) — byte-identical either way — and per-phase timings.
pub(crate) fn build_em19_exec(
    g: &Graph,
    params: &DistributedParams,
    engine: &Engine<'_>,
) -> (Emulator, Vec<PhaseTiming>) {
    let n = g.num_vertices();
    let mut spanner = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut clock = PhaseClock::new();
    for i in 0..=params.ell() {
        let last = i == params.ell();
        partition = clock.measure(i, || {
            run_phase(g, engine, &mut spanner, &partition, i, params, last)
        });
    }
    (spanner, clock.into_phases())
}

fn add_path(
    spanner: &mut Emulator,
    path: &[VertexId],
    phase: usize,
    kind: EdgeKind,
    charged_to: VertexId,
) {
    for w in path.windows(2) {
        spanner.add_edge(
            w[0],
            w[1],
            1,
            EdgeProvenance {
                phase,
                kind,
                charged_to,
            },
        );
    }
}

fn run_phase(
    g: &Graph,
    engine: &Engine<'_>,
    spanner: &mut Emulator,
    partition: &Partition,
    i: usize,
    params: &DistributedParams,
    last: bool,
) -> (Partition, usize) {
    let n = g.num_vertices();
    let delta = params.delta(i);
    let cap = params.degree_cap(i, n);
    let center_of = partition.center_index();
    let centers = partition.centers();
    let mut is_center = vec![false; n];
    for &c in &centers {
        is_center[c] = true;
    }

    // Task 1: outside the last phase a center of a saturated component
    // with more than `cap` centers is popular without a search, and a
    // center alone in its component is unpopular without one. The other
    // centers' scans are pure per-center BFS — sharded, run in bounded
    // chunks and consumed in center order (deterministic for every thread
    // count and transport); only explorations interconnection may need
    // are kept.
    let (popular, explorations, searched) =
        explore_centers(engine, &centers, delta, &is_center, cap, last);

    let mut superclustered = vec![false; n];
    let mut next_clusters: Vec<Cluster> = Vec::new();
    if !last && !popular.is_empty() {
        let rulers = engine.ruling_set(&popular, delta);
        let forest = multi_source_bfs(g, &rulers, params.forest_depth(i).min(n as Dist));
        let mut members_of: std::collections::HashMap<VertexId, Vec<usize>> =
            rulers.iter().map(|&r| (r, vec![center_of[&r]])).collect();
        for &rc in &centers {
            let Some(root) = forest.root[rc] else {
                continue;
            };
            superclustered[rc] = true;
            if rc == root {
                continue;
            }
            let path = forest
                .path_to_root(rc)
                .expect("rooted vertices have tree paths");
            add_path(spanner, &path, i, EdgeKind::Superclustering, rc);
            members_of
                .get_mut(&root)
                .expect("roots seeded")
                .push(center_of[&rc]);
        }
        for &root in &rulers {
            let mut members = Vec::new();
            for &idx in &members_of[&root] {
                members.extend_from_slice(&partition.cluster(idx).members);
            }
            next_clusters.push(Cluster {
                center: root,
                members,
            });
        }
    }

    for (&rc, expl) in centers.iter().zip(&explorations) {
        if superclustered[rc] {
            continue;
        }
        let expl = expl.as_ref().expect("popular centers are superclustered");
        for (v, _) in expl.centers_found(&is_center) {
            let path = expl
                .path_to(v)
                .expect("neighbor reached by this exploration");
            add_path(spanner, &path, i, EdgeKind::Interconnection, rc);
        }
    }

    (Partition::from_clusters(next_clusters), searched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_core::api::{Algorithm, Emulator};
    use usnae_core::verify::is_subgraph_spanner;
    use usnae_graph::generators;

    #[test]
    fn is_a_subgraph() {
        let g = generators::gnp_connected(150, 0.08, 1).unwrap();
        let p = DistributedParams::new(0.5, 4, 0.5).unwrap();
        let s = build_em19(&g, &p, 1);
        assert!(is_subgraph_spanner(&g, s.graph()));
    }

    #[test]
    fn never_disconnects_what_g_connects() {
        let g = generators::gnp_connected(80, 0.08, 2).unwrap();
        let p = DistributedParams::new(0.5, 4, 0.5).unwrap();
        let s = build_em19(&g, &p, 1);
        let d = s.distances_from(0);
        assert!(d.iter().all(|x| x.is_some()));
    }

    #[test]
    fn paper_spanner_is_at_most_as_large_on_dense_graphs() {
        // E7's direction: §4 (EN17a sequence) ≤ EM19 (§3 sequence) sizes,
        // up to small-instance noise, on dense inputs.
        let g = generators::gnp_connected(300, 0.15, 3).unwrap();
        let em19 = build_em19(&g, &DistributedParams::new(0.5, 8, 0.5).unwrap(), 1);
        let ours = Emulator::builder(&g)
            .algorithm(Algorithm::Spanner)
            .kappa(8)
            .build()
            .unwrap()
            .emulator;
        assert!(
            ours.num_edges() <= em19.num_edges() + 300,
            "ours {} vs em19 {}",
            ours.num_edges(),
            em19.num_edges()
        );
    }

    #[test]
    fn path_input_reproduced() {
        let g = generators::path(20).unwrap();
        let p = DistributedParams::new(0.5, 2, 0.5).unwrap();
        let s = build_em19(&g, &p, 1);
        assert_eq!(s.num_edges(), 19);
    }
}
