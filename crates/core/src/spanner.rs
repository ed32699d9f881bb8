//! Near-additive **spanners** — the §4 construction.
//!
//! Same SAI skeleton as §3, with two changes:
//!
//! * instead of a weighted emulator edge `(u, v, d)`, the construction adds
//!   the *whole shortest `u–v` path of `G`* to the output, so the result is
//!   a subgraph of `G`;
//! * the degree sequence is EN17a's (`γ = max(2, log log κ)` exponential
//!   stage, an `n^(ρ/2)` transition phase, then `n^ρ`), chosen so the
//!   per-phase interconnection contributions `|P_i|·deg_i·δ_i` decay
//!   geometrically and the total is `O(n^(1+1/κ))` (eq. 39) — the paper's
//!   improvement over EM19's `O(β·n^(1+1/κ))`.
//!
//! Superclustering becomes *simpler* than for emulators: the BFS ruling
//! forest `F_i` is itself a subgraph, so its edges go straight into the
//! spanner (≤ `n` per phase, eq. 31) and no hub-vertex splitting is needed —
//! one supercluster per tree.

use crate::cluster::{Cluster, Partition};
use crate::emulator::{EdgeKind, EdgeProvenance, Emulator};
use crate::engine::Engine;
use crate::exec::{PhaseClock, PhaseTiming};
use crate::params::SpannerParams;
use crate::sai::explore_centers;
use usnae_graph::bfs::multi_source_bfs;
use usnae_graph::{AdjStorage, Dist, Graph, GraphCore, VertexId};

/// Per-phase statistics of a spanner build.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerPhaseTrace {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Distance threshold `δ_i`.
    pub delta: Dist,
    /// Real-valued popularity threshold `deg_i`.
    pub degree_threshold: f64,
    /// Popular clusters detected.
    pub num_popular: usize,
    /// Ruling set size.
    pub ruling_set_size: usize,
    /// Superclusters formed.
    pub num_superclusters: usize,
    /// Clusters left unclustered.
    pub num_unclustered: usize,
    /// Spanner edge insertions from forest paths (≤ n by eq. 31).
    pub superclustering_edges: usize,
    /// Spanner edge insertions from interconnection paths.
    pub interconnection_edges: usize,
}

/// Build record of the §4 spanner.
#[derive(Debug, Clone)]
pub struct SpannerTrace {
    /// One entry per phase `0..=ℓ'`.
    pub phases: Vec<SpannerPhaseTrace>,
    /// `partitions[i]` is `P_i`; the final entry is `P_{ℓ'+1}` (empty).
    pub partitions: Vec<Partition>,
}

/// Builds a `(1+ε, β)`-spanner with `O(n^(1+1/κ))` edges (Corollary 4.4).
///
/// The result is a subgraph of `G`: every edge has weight 1 and exists in
/// `G` ([`crate::verify::is_subgraph_spanner`] certifies this).
#[deprecated(
    since = "0.2.0",
    note = "use usnae_core::api::EmulatorBuilder with Algorithm::Spanner instead"
)]
pub fn build_spanner(g: &Graph, params: &SpannerParams) -> Emulator {
    build_spanner_impl(g, params).0
}

/// [`build_spanner`] with a full [`SpannerTrace`].
#[deprecated(
    since = "0.2.0",
    note = "use usnae_core::api::EmulatorBuilder with .traced(true) instead"
)]
pub fn build_spanner_traced(g: &Graph, params: &SpannerParams) -> (Emulator, SpannerTrace) {
    build_spanner_impl(g, params)
}

/// Crate-internal sequential entry point (tests, shims):
/// [`build_spanner_exec`] with one thread, timings dropped.
pub(crate) fn build_spanner_impl(g: &Graph, params: &SpannerParams) -> (Emulator, SpannerTrace) {
    let (spanner, trace, _) = build_spanner_exec(g, params, &Engine::inproc(g, 1));
    (spanner, trace)
}

/// Crate-internal entry point behind [`crate::api::EmulatorBuilder`]: runs
/// the §4 construction end to end, sharding the Task-1 explorations over
/// `engine.threads()` and recording per-phase timings.
pub(crate) fn build_spanner_exec<S: AdjStorage>(
    g: &GraphCore<S>,
    params: &SpannerParams,
    engine: &Engine<'_, S>,
) -> (Emulator, SpannerTrace, Vec<PhaseTiming>) {
    let n = g.num_vertices();
    let mut spanner = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut trace = SpannerTrace {
        phases: Vec::with_capacity(params.ell() + 1),
        partitions: vec![partition.clone()],
    };
    let mut clock = PhaseClock::new();
    for i in 0..=params.ell() {
        let last = i == params.ell();
        let (next, phase_trace) = clock.measure(i, || {
            let (next, phase_trace, explorations) =
                run_phase(g, engine, &mut spanner, &partition, i, params, last);
            ((next, phase_trace), explorations)
        });
        trace.phases.push(phase_trace);
        trace.partitions.push(next.clone());
        partition = next;
    }
    debug_assert!(partition.is_empty(), "P_(ell'+1) must be empty (eq. 37)");
    (spanner, trace, clock.into_phases())
}

/// Adds every edge of `path` to the spanner with unit weight; returns the
/// number of *new* edges created.
fn add_path(
    spanner: &mut Emulator,
    path: &[VertexId],
    phase: usize,
    kind: EdgeKind,
    charged_to: VertexId,
) -> usize {
    let mut created = 0;
    for w in path.windows(2) {
        if spanner.add_edge(
            w[0],
            w[1],
            1,
            EdgeProvenance {
                phase,
                kind,
                charged_to,
            },
        ) {
            created += 1;
        }
    }
    created
}

#[allow(clippy::too_many_arguments)]
fn run_phase<S: AdjStorage>(
    g: &GraphCore<S>,
    engine: &Engine<'_, S>,
    spanner: &mut Emulator,
    partition: &Partition,
    i: usize,
    params: &SpannerParams,
    last: bool,
) -> (Partition, SpannerPhaseTrace, usize) {
    let n = g.num_vertices();
    let delta = params.delta(i);
    let cap = params.degree_cap(i, n);
    let center_of = partition.center_index();
    let centers = partition.centers();
    let mut is_center = vec![false; n];
    for &c in &centers {
        is_center[c] = true;
    }

    let mut phase_trace = SpannerPhaseTrace {
        phase: i,
        num_clusters: partition.len(),
        delta,
        degree_threshold: params.degree_threshold(i, n),
        num_popular: 0,
        ruling_set_size: 0,
        num_superclusters: 0,
        num_unclustered: 0,
        superclustering_edges: 0,
        interconnection_edges: 0,
    };

    // Task 1: popular detection, keeping the explorations interconnection
    // may need for path recovery. Outside the last phase a center of a
    // saturated component with more than `cap` centers is popular without
    // a search, and a center alone in its component is unpopular without
    // one. Every other center's exploration is a pure function of G,
    // so the scan fans out through the engine (thread pool or worker pool)
    // in bounded chunks, consumed in center order — the build stays
    // deterministic.
    let (popular, explorations, num_explorations) =
        explore_centers(engine, &centers, delta, &is_center, cap, last);
    phase_trace.num_popular = popular.len();
    debug_assert!(
        !last || popular.is_empty(),
        "no popular clusters in the last phase (eq. 37)"
    );

    let mut superclustered = vec![false; n];
    let mut next_clusters: Vec<Cluster> = Vec::new();

    if !last && !popular.is_empty() {
        let rulers = engine.ruling_set(&popular, delta);
        phase_trace.ruling_set_size = rulers.len();
        let forest = multi_source_bfs(g, &rulers, params.forest_depth(i));
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
            // The forest is a subgraph of G: add the tree path root←rc.
            let path = forest
                .path_to_root(rc)
                .expect("rooted vertices have tree paths");
            phase_trace.superclustering_edges +=
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
        phase_trace.num_superclusters = next_clusters.len();
    }

    // Interconnection: unclustered centers add shortest paths to *all*
    // neighboring centers (§3.1.3 semantics, subgraph edition).
    for (&rc, expl) in centers.iter().zip(&explorations) {
        if superclustered[rc] {
            continue;
        }
        phase_trace.num_unclustered += 1;
        let expl = expl.as_ref().expect("popular centers are superclustered");
        debug_assert!(
            expl.centers_found(&is_center).count() < cap,
            "U_i clusters are unpopular (Lemma 3.4)"
        );
        for (v, _) in expl.centers_found(&is_center) {
            let path = expl
                .path_to(v)
                .expect("neighbor was reached by this exploration");
            phase_trace.interconnection_edges +=
                add_path(spanner, &path, i, EdgeKind::Interconnection, rc);
        }
    }

    (
        Partition::from_clusters(next_clusters),
        phase_trace,
        num_explorations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{audit_stretch, is_subgraph_spanner};
    use usnae_graph::distance::sample_pairs;
    use usnae_graph::generators;

    fn params(eps: f64, kappa: u32, rho: f64) -> SpannerParams {
        SpannerParams::new(eps, kappa, rho).unwrap()
    }

    #[test]
    fn spanner_is_subgraph_across_families() {
        let graphs: Vec<usnae_graph::Graph> = vec![
            generators::gnp_connected(250, 0.06, 1).unwrap(),
            generators::grid2d(15, 15).unwrap(),
            generators::barabasi_albert(250, 4, 2).unwrap(),
            generators::caveman(25, 10).unwrap(),
        ];
        for g in &graphs {
            let p = params(0.5, 4, 0.5);
            let s = build_spanner_impl(g, &p).0;
            assert!(is_subgraph_spanner(g, s.graph()));
            assert!(s.num_edges() <= g.num_edges());
        }
    }

    #[test]
    fn stretch_certified_on_samples() {
        let g = generators::gnp_connected(250, 0.04, 7).unwrap();
        let p = params(0.5, 4, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let s = build_spanner_impl(&g, &p).0;
        let pairs = sample_pairs(&g, 400, 5);
        let report = audit_stretch(&g, s.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn stretch_certified_on_grid() {
        let g = generators::grid2d(16, 12).unwrap();
        let p = params(0.9, 3, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let s = build_spanner_impl(&g, &p).0;
        let pairs = sample_pairs(&g, 300, 9);
        let report = audit_stretch(&g, s.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn dense_graph_is_sparsified() {
        // On a dense G(n, p) the spanner must drop most edges.
        let g = generators::gnp_connected(300, 0.2, 11).unwrap();
        let p = params(0.5, 8, 0.5);
        let s = build_spanner_impl(&g, &p).0;
        assert!(
            (s.num_edges() as f64) < 0.5 * g.num_edges() as f64,
            "{} of {}",
            s.num_edges(),
            g.num_edges()
        );
    }

    #[test]
    fn forest_edges_bounded_by_n_per_phase() {
        // eq. 31: superclustering contributes ≤ n edges per phase.
        let g = generators::gnp_connected(400, 0.08, 13).unwrap();
        let p = params(0.5, 4, 0.5);
        let (_, trace) = build_spanner_impl(&g, &p);
        for t in &trace.phases {
            assert!(
                t.superclustering_edges <= 400,
                "phase {}: {}",
                t.phase,
                t.superclustering_edges
            );
        }
    }

    #[test]
    fn path_graph_spanner_is_path() {
        let g = generators::path(15).unwrap();
        let p = params(0.5, 2, 0.5);
        let s = build_spanner_impl(&g, &p).0;
        assert_eq!(s.num_edges(), 14); // the path itself
    }

    #[test]
    fn sparser_than_trivial_bound() {
        // Size stays within a small multiple of n^(1+1/κ) (the O(·) of
        // eq. 39 hides a modest constant).
        let g = generators::gnp_connected(400, 0.1, 17).unwrap();
        let p = params(0.5, 4, 0.5);
        let s = build_spanner_impl(&g, &p).0;
        assert!(
            (s.num_edges() as f64) <= 4.0 * p.size_bound(400),
            "{} vs bound {}",
            s.num_edges(),
            p.size_bound(400)
        );
    }

    #[test]
    fn trace_partition_laminarity() {
        let g = generators::gnp_connected(300, 0.07, 19).unwrap();
        let p = params(0.5, 4, 0.5);
        let (_, trace) = build_spanner_impl(&g, &p);
        // Each P_{i+1} cluster is a union of P_i clusters (Lemma 2.9).
        for i in 0..trace.partitions.len() - 1 {
            let prev = trace.partitions[i].vertex_to_cluster(300);
            for sc in trace.partitions[i + 1].clusters() {
                let mut prev_ids: Vec<usize> = sc
                    .members
                    .iter()
                    .map(|&v| prev[v].expect("member clustered"))
                    .collect();
                prev_ids.sort_unstable();
                prev_ids.dedup();
                // Every vertex of each absorbed P_i cluster is in sc.
                for id in prev_ids {
                    for &v in &trace.partitions[i].cluster(id).members {
                        assert!(sc.members.contains(&v));
                    }
                }
            }
        }
    }
}
