//! Fast centralized construction (§3.3): a centralized simulation of the
//! distributed algorithm.
//!
//! Instead of Algorithm 1's sequential center processing, each phase runs
//! the distributed pipeline's *logic* centrally:
//!
//! 1. detect popular clusters (≥ `deg_i` neighboring centers within `δ_i`);
//! 2. compute a ruling set for the popular centers — greedy min-id ball
//!    carving with separation `≥ 2δ_i + 1` and domination `≤ 2δ_i ≤ rul_i`
//!    (substitution S1: strictly better domination than the cited
//!    `(2/ρ)·δ_i`, so all downstream bounds hold);
//! 3. grow a BFS ruling forest to depth `rul_i + δ_i`; every tree becomes
//!    one supercluster (no hub splitting is needed centrally — §3.3);
//! 4. interconnect unclustered centers with *all* neighboring centers
//!    (§3.1.3).
//!
//! The size telescopes exactly as in eq. (18)–(19) because
//! `deg_{i+1} ≤ deg_i²` throughout the §3.1.1 schedule, and every
//! supercluster absorbs ≥ `deg_i + 1` clusters (Lemma 3.5 with one
//! supercluster per tree).

use crate::cluster::{Cluster, Partition};
use crate::emulator::{EdgeKind, EdgeProvenance, Emulator};
use crate::engine::Engine;
use crate::exec::{PhaseClock, PhaseTiming};
use crate::params::DistributedParams;
use crate::sai::classify_centers;
use usnae_graph::bfs::multi_source_bfs;
use usnae_graph::{AdjStorage, Dist, Graph, GraphCore, VertexId};

/// Per-phase statistics of a fast-centralized build.
#[derive(Debug, Clone, PartialEq)]
pub struct FastPhaseTrace {
    /// Phase index `i`.
    pub phase: usize,
    /// `|P_i|` at phase entry.
    pub num_clusters: usize,
    /// Distance threshold `δ_i`.
    pub delta: Dist,
    /// Real-valued popularity threshold `deg_i`.
    pub degree_threshold: f64,
    /// Popular clusters detected (`|W_i|`).
    pub num_popular: usize,
    /// Ruling set size (`|S_i|` of Task 2).
    pub ruling_set_size: usize,
    /// Superclusters formed.
    pub num_superclusters: usize,
    /// Clusters left unclustered (`|U_i|`).
    pub num_unclustered: usize,
    /// Interconnection edge insertions.
    pub interconnection_edges: usize,
    /// Superclustering edge insertions.
    pub superclustering_edges: usize,
}

/// Build record of the fast centralized construction.
#[derive(Debug, Clone)]
pub struct FastBuildTrace {
    /// One entry per phase `0..=ℓ`.
    pub phases: Vec<FastPhaseTrace>,
    /// `partitions[i]` is `P_i`; final entry is `P_{ℓ+1}` (empty).
    pub partitions: Vec<Partition>,
}

/// Builds a `(1+ε, β)`-emulator with ≤ `n^(1+1/κ)` edges in
/// `O(|E|·β·n^ρ)`-style time (Theorem 3.13).
#[deprecated(
    since = "0.2.0",
    note = "use usnae_core::api::EmulatorBuilder with Algorithm::FastCentralized instead"
)]
pub fn build_emulator_fast(g: &Graph, params: &DistributedParams) -> Emulator {
    build_fast(g, params).0
}

/// [`build_emulator_fast`] with a full [`FastBuildTrace`].
#[deprecated(
    since = "0.2.0",
    note = "use usnae_core::api::EmulatorBuilder with .traced(true) instead"
)]
pub fn build_emulator_fast_traced(
    g: &Graph,
    params: &DistributedParams,
) -> (Emulator, FastBuildTrace) {
    build_fast(g, params)
}

/// Crate-internal sequential entry point (tests): [`build_fast_exec`] with
/// one thread, timings dropped.
pub(crate) fn build_fast(g: &Graph, params: &DistributedParams) -> (Emulator, FastBuildTrace) {
    let (emulator, trace, _) = build_fast_exec(g, params, &Engine::inproc(g, 1));
    (emulator, trace)
}

/// Crate-internal entry point behind [`crate::api::EmulatorBuilder`]: runs
/// the §3.3 simulation end to end, sharding the Task-1 per-center scans
/// over `engine.threads()` and recording per-phase timings. The per-center
/// scans and the ruling-set ball carving run through the [`Engine`] — the
/// in-process fan-out or a worker pool, byte-identical either way.
pub(crate) fn build_fast_exec<S: AdjStorage>(
    g: &GraphCore<S>,
    params: &DistributedParams,
    engine: &Engine<'_, S>,
) -> (Emulator, FastBuildTrace, Vec<PhaseTiming>) {
    let n = g.num_vertices();
    let mut emulator = Emulator::new(n);
    let mut partition = Partition::singletons(n);
    let mut trace = FastBuildTrace {
        phases: Vec::with_capacity(params.ell() + 1),
        partitions: vec![partition.clone()],
    };
    let mut clock = PhaseClock::new();
    for i in 0..=params.ell() {
        let last = i == params.ell();
        let (next, phase_trace) = clock.measure(i, || {
            let (next, phase_trace, explorations) =
                run_phase(g, engine, &mut emulator, &partition, i, params, last);
            ((next, phase_trace), explorations)
        });
        trace.phases.push(phase_trace);
        trace.partitions.push(next.clone());
        partition = next;
    }
    debug_assert!(partition.is_empty(), "P_(ell+1) must be empty (eq. 17)");
    (emulator, trace, clock.into_phases())
}

#[allow(clippy::too_many_arguments)]
fn run_phase<S: AdjStorage>(
    g: &GraphCore<S>,
    engine: &Engine<'_, S>,
    emulator: &mut Emulator,
    partition: &Partition,
    i: usize,
    params: &DistributedParams,
    last: bool,
) -> (Partition, FastPhaseTrace, usize) {
    let n = g.num_vertices();
    let delta = params.delta(i);
    let cap = params.degree_cap(i, n);
    let center_of = partition.center_index();
    let centers = partition.centers();
    let mut is_center = vec![false; n];
    for &c in &centers {
        is_center[c] = true;
    }

    let mut phase_trace = FastPhaseTrace {
        phase: i,
        num_clusters: partition.len(),
        delta,
        degree_threshold: params.degree_threshold(i, n),
        num_popular: 0,
        ruling_set_size: 0,
        num_superclusters: 0,
        num_unclustered: 0,
        interconnection_edges: 0,
        superclustering_edges: 0,
    };

    // Task 1: popular-cluster detection. Outside the last phase a center
    // of a saturated component (every ball in it is the whole component)
    // with more than `cap` centers is popular without a search, and in
    // every phase a center alone in its component is unpopular without
    // one; every other center runs one pure bounded BFS, fanned out
    // through the engine (local CSR shards or a worker pool when
    // partitioned) in bounded chunks, consumed in center order. An
    // unpopular center (in the last phase, every center) keeps its
    // neighboring centers, ascending by vertex id.
    let (popular, neighbor_lists, explorations) = classify_centers(
        engine,
        &centers,
        delta,
        cap,
        last,
        |sources, consume| engine.for_each_ball(sources, delta, consume),
        |rc, ball: Option<Vec<(VertexId, Dist)>>| {
            // Collected from a borrowing iterator, so the short list gets
            // a fresh buffer instead of keeping the whole ball's alive. A
            // center alone in its component has no ball and no neighbors.
            let nbrs: Vec<(VertexId, Dist)> = ball
                .iter()
                .flatten()
                .copied()
                .filter(|&(v, _)| v != rc && is_center[v])
                .collect();
            (nbrs.len(), nbrs)
        },
    );
    phase_trace.num_popular = popular.len();
    debug_assert!(
        !last || popular.is_empty(),
        "no popular clusters in phase ell (eq. 17)"
    );

    let mut superclustered = vec![false; n]; // indexed by center vertex
    let mut next_clusters: Vec<Cluster> = Vec::new();

    if !last && !popular.is_empty() {
        // Task 2: ruling set for the popular centers, its ball carving
        // sharded over the same engine (byte-identical to sequential).
        let rulers = engine.ruling_set(&popular, delta);
        phase_trace.ruling_set_size = rulers.len();

        // Task 3: BFS ruling forest; one supercluster per tree (§3.3 — no
        // hub splitting is needed centrally).
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
            emulator.add_edge(
                root,
                rc,
                forest.dist[rc],
                EdgeProvenance {
                    phase: i,
                    kind: EdgeKind::Superclustering,
                    charged_to: rc,
                },
            );
            phase_trace.superclustering_edges += 1;
            members_of
                .get_mut(&root)
                .expect("every root was seeded")
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

    // Interconnection (§3.1.3): every unclustered center connects to all its
    // neighboring centers (in the last phase, that is every center).
    for (&rc, nbrs) in centers.iter().zip(&neighbor_lists) {
        if superclustered[rc] {
            continue;
        }
        phase_trace.num_unclustered += 1;
        let nbrs = nbrs.as_ref().expect("popular centers are superclustered");
        debug_assert!(
            nbrs.len() < cap,
            "U_i clusters are unpopular (Lemma 3.4): {} >= {cap}",
            nbrs.len()
        );
        for &(v, d) in nbrs {
            emulator.add_edge(
                rc,
                v,
                d,
                EdgeProvenance {
                    phase: i,
                    kind: EdgeKind::Interconnection,
                    charged_to: rc,
                },
            );
            phase_trace.interconnection_edges += 1;
        }
    }

    (
        Partition::from_clusters(next_clusters),
        phase_trace,
        explorations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charging::ChargeLedger;
    use crate::verify::audit_stretch;
    use usnae_graph::distance::sample_pairs;
    use usnae_graph::generators;

    fn params(eps: f64, kappa: u32, rho: f64) -> DistributedParams {
        DistributedParams::new(eps, kappa, rho).unwrap()
    }

    #[test]
    fn size_bound_holds_across_families() {
        let graphs: Vec<(&str, usnae_graph::Graph)> = vec![
            ("gnp", generators::gnp_connected(300, 0.05, 1).unwrap()),
            ("grid", generators::grid2d(17, 18).unwrap()),
            ("ba", generators::barabasi_albert(300, 3, 2).unwrap()),
            ("ws", generators::watts_strogatz(300, 6, 0.1, 3).unwrap()),
        ];
        for (name, g) in &graphs {
            for &(kappa, rho) in &[(4u32, 0.5f64), (8, 0.4), (3, 0.5)] {
                let p = params(0.5, kappa, rho);
                let h = build_fast(g, &p).0;
                let bound = p.size_bound(g.num_vertices());
                assert!(
                    h.num_edges() as f64 <= bound + 1e-6,
                    "{name} kappa={kappa} rho={rho}: {} > {bound}",
                    h.num_edges()
                );
            }
        }
    }

    #[test]
    fn stretch_certified_on_samples() {
        let g = generators::gnp_connected(250, 0.03, 7).unwrap();
        let p = params(0.5, 4, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let h = build_fast(&g, &p).0;
        let pairs = sample_pairs(&g, 500, 11);
        let report = audit_stretch(&g, h.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn stretch_certified_on_high_diameter_graph() {
        let g = generators::grid2d(20, 10).unwrap();
        let p = params(0.9, 3, 0.5);
        let (alpha, beta) = p.certified_stretch();
        let h = build_fast(&g, &p).0;
        let pairs = sample_pairs(&g, 400, 13);
        let report = audit_stretch(&g, h.graph(), alpha, beta, &pairs);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn charging_discipline_holds() {
        for seed in 0..4u64 {
            let g = generators::gnp_connected(220, 0.05, seed).unwrap();
            let p = params(0.5, 4, 0.5);
            let h = build_fast(&g, &p).0;
            let ledger = ChargeLedger::from_emulator(&h);
            ledger
                .verify(|phase| p.degree_cap(phase, 220))
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn ruling_set_separation_and_domination() {
        let g = generators::grid2d(15, 15).unwrap();
        let w: Vec<usize> = (0..225).step_by(3).collect();
        let delta = 2;
        let rulers = crate::sai::ruling_set(&g, &w, delta);
        assert!(!rulers.is_empty());
        // Separation: pairwise distance > 2δ.
        for (a, &u) in rulers.iter().enumerate() {
            let dist = usnae_graph::bfs::bfs(&g, u);
            for &v in rulers.iter().skip(a + 1) {
                assert!(dist[v].unwrap() > 2 * delta, "rulers {u},{v} too close");
            }
            // Domination: every w within 2δ of some ruler — checked below.
        }
        for &cand in &w {
            let dist = usnae_graph::bfs::bfs_bounded(&g, cand, 2 * delta);
            assert!(
                rulers.iter().any(|&r| dist[r].is_some()),
                "candidate {cand} undominated"
            );
        }
    }

    #[test]
    fn superclusters_absorb_enough_clusters() {
        // Lemma 3.5 with one supercluster per tree: ≥ deg_i + 1 clusters.
        let g = generators::gnp_connected(400, 0.08, 5).unwrap();
        let p = params(0.5, 4, 0.5);
        let (_, trace) = build_fast(&g, &p);
        for i in 0..trace.partitions.len() - 1 {
            let cap = p.degree_cap(i, 400);
            let prev_map = trace.partitions[i].vertex_to_cluster(400);
            for sc in trace.partitions[i + 1].clusters() {
                let absorbed: std::collections::HashSet<usize> = sc
                    .members
                    .iter()
                    .map(|&v| prev_map[v].expect("clustered"))
                    .collect();
                assert!(
                    absorbed.len() > cap,
                    "phase {i}: {} clusters",
                    absorbed.len()
                );
            }
        }
    }

    #[test]
    fn path_graph_is_reproduced() {
        let g = generators::path(12).unwrap();
        let p = params(0.5, 2, 0.5);
        let h = build_fast(&g, &p).0;
        // No popularity on a path at phase 0 (deg_0 ≈ 3.46 > 2 neighbors);
        // everything is interconnection of adjacent vertices.
        assert_eq!(h.num_edges(), 11);
    }

    #[test]
    fn ultra_sparse_distributed_params() {
        let g = generators::gnp_connected(1024, 0.01, 3).unwrap();
        let p = params(0.5, 100, 0.5);
        let h = build_fast(&g, &p).0;
        assert!(h.num_edges() as f64 <= p.size_bound(1024));
        assert!(h.num_edges() <= 1024 + 73);
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        for seed in [2u64, 6] {
            let g = generators::gnp_connected(260, 0.05, seed).unwrap();
            let p = params(0.5, 4, 0.5);
            let (h1, t1, timings) = build_fast_exec(&g, &p, &Engine::inproc(&g, 1));
            assert_eq!(timings.len(), t1.phases.len());
            for threads in [2usize, 4, 8] {
                let (ht, tt, _) = build_fast_exec(&g, &p, &Engine::inproc(&g, threads));
                assert_eq!(
                    h1.provenance(),
                    ht.provenance(),
                    "seed {seed} threads {threads}: edge stream diverged"
                );
                assert_eq!(t1.phases, tt.phases, "seed {seed} threads {threads}");
            }
            // And the partitioned layout reproduces the same stream.
            for policy in usnae_graph::partition::PartitionPolicy::all() {
                let cfg = crate::api::BuildConfig {
                    partition: policy,
                    shards: 4,
                    threads: 2,
                    ..crate::api::BuildConfig::default()
                };
                let (hp, tp, _) = build_fast_exec(&g, &p, &Engine::new(&g, &cfg));
                assert_eq!(h1.provenance(), hp.provenance(), "seed {seed} {policy}");
                assert_eq!(t1.phases, tp.phases, "seed {seed} {policy}");
            }
        }
    }

    #[test]
    fn trace_is_internally_consistent() {
        let g = generators::gnp_connected(300, 0.06, 9).unwrap();
        let p = params(0.5, 4, 0.5);
        let (h, trace) = build_fast(&g, &p);
        let inserted: usize = trace
            .phases
            .iter()
            .map(|t| t.interconnection_edges + t.superclustering_edges)
            .sum();
        assert!(h.num_edges() <= inserted);
        assert_eq!(h.provenance().len(), inserted);
        for t in &trace.phases {
            assert!(t.num_superclusters <= t.ruling_set_size || t.ruling_set_size == 0);
            assert!(t.num_popular <= t.num_clusters);
        }
    }
}
