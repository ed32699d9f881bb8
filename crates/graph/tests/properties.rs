//! Property-style tests for the graph substrate: the invariants are checked
//! over a deterministic sweep of seeded random instances (the repository is
//! dependency-free, so no proptest — the sweep plays its role).

use std::collections::BTreeMap;
use usnae_graph::bfs::{bfs, bfs_bounded, multi_source_bfs};
use usnae_graph::connectivity::{components, connect_components, is_connected};
use usnae_graph::dijkstra::{dijkstra, distance, sssp};
use usnae_graph::rng::Rng;
use usnae_graph::union_find::UnionFind;
use usnae_graph::{generators, Graph, GraphBuilder, WeightedGraph};

/// A random loop-free graph on `2..60` vertices from the sweep seed.
fn random_graph(seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(2, 60);
    let m = rng.gen_range(0, 200);
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0, n);
        let v = rng.gen_range(0, n);
        if u != v {
            b.add_edge(u, v).expect("in-range");
        }
    }
    b.build()
}

const CASES: u64 = 64;

/// CSR construction: symmetric, sorted, loop-free, deduplicated.
#[test]
fn csr_invariants() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let mut undirected = 0usize;
        for u in g.vertices() {
            let nbrs = g.neighbors(u);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted & deduped");
            for &v in nbrs {
                assert_ne!(u, v, "no loops");
                assert!(g.has_edge(v, u), "symmetry");
                undirected += 1;
            }
        }
        assert_eq!(undirected, 2 * g.num_edges(), "seed {seed}");
        assert_eq!(g.num_directed_edges(), undirected);
    }
}

/// BFS satisfies the triangle property along edges and matches the layered
/// definition of hop distance.
#[test]
fn bfs_is_a_metric_tree() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let d = bfs(&g, 0);
        for (u, v) in g.edges() {
            match (d[u], d[v]) {
                (Some(a), Some(b)) => {
                    assert!(a.abs_diff(b) <= 1, "seed {seed} edge ({u},{v}): {a} vs {b}");
                }
                (None, None) => {}
                _ => panic!("seed {seed}: edge spans reachable/unreachable"),
            }
        }
        // Every reachable non-source vertex has a predecessor one layer up.
        for v in g.vertices() {
            if let Some(dv) = d[v] {
                if dv > 0 {
                    assert!(g.neighbors(v).iter().any(|&u| d[u] == Some(dv - 1)));
                }
            }
        }
    }
}

/// Dijkstra and the SSSP kernel on a unit-weight mirror equal BFS.
#[test]
fn dijkstra_equals_bfs_on_unit_weights() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let h = WeightedGraph::from_unit_graph(&g);
        assert_eq!(bfs(&g, 0), dijkstra(&h, 0), "seed {seed}");
        assert_eq!(bfs(&g, 0), sssp(h.csr(), 0), "seed {seed}");
    }
}

/// A random weighted graph from the sweep seed: several components
/// (edges stay inside blocks of vertices), isolated vertices past the
/// blocks, zero weights, and — on odd seeds — weights within a few units
/// of `u64::MAX` and of `u64::MAX / 2`, whose paths overflow or just fit.
fn random_weighted_graph(seed: u64) -> WeightedGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(2, 60);
    let blocks = rng.gen_range(1, 5);
    let block = n.div_ceil(blocks);
    let mut h = WeightedGraph::new(n + rng.gen_range(0, 4));
    for _ in 0..rng.gen_range(0, 200) {
        let base = rng.gen_range(0, blocks) * block;
        let u = base + rng.gen_range(0, block);
        let v = base + rng.gen_range(0, block);
        if u == v || v >= n || u >= n {
            continue;
        }
        let w = match rng.gen_range(0, 8) {
            0 => 0,
            1 if seed % 2 == 1 => u64::MAX - rng.gen_range(0, 4) as u64,
            2 if seed % 2 == 1 => u64::MAX / 2 + rng.gen_range(0, 4) as u64,
            _ => rng.gen_range(1, 6) as u64,
        };
        h.add_edge(u, v, w);
    }
    h
}

/// The SSSP kernel equals the reference Dijkstra from every source, on
/// zero weights, overflowing weights, isolated vertices and several
/// components.
#[test]
fn sssp_kernel_equals_dijkstra_on_weighted_graphs() {
    for seed in 0..CASES {
        let h = random_weighted_graph(seed);
        for s in 0..h.num_vertices() {
            assert_eq!(sssp(h.csr(), s), dijkstra(&h, s), "seed {seed} source {s}");
        }
    }
}

/// Point-to-point Dijkstra agrees with the full run.
#[test]
fn point_to_point_consistency() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let h = WeightedGraph::from_unit_graph(&g);
        let t = (seed as usize * 7) % g.num_vertices();
        assert_eq!(distance(&h, 0, t), dijkstra(&h, 0)[t], "seed {seed}");
    }
}

/// Bounded BFS is BFS filtered by depth.
#[test]
fn bounded_bfs_is_filtered_bfs() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let full = bfs(&g, 0);
        for depth in 0u64..8 {
            let bounded = bfs_bounded(&g, 0, depth);
            for v in g.vertices() {
                let expect = full[v].filter(|&d| d <= depth);
                assert_eq!(bounded[v], expect, "seed {seed} depth {depth} vertex {v}");
            }
        }
    }
}

/// Multi-source BFS returns the minimum over per-source BFS runs.
#[test]
fn multi_source_is_min_over_sources() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let n = g.num_vertices();
        let sources: Vec<usize> = (0..n).step_by(3).collect();
        let f = multi_source_bfs(&g, &sources, u64::MAX);
        let per: Vec<_> = sources.iter().map(|&s| bfs(&g, s)).collect();
        for v in 0..n {
            let best = per.iter().filter_map(|d| d[v]).min();
            let got = f.root[v].map(|_| f.dist[v]);
            assert_eq!(got, best, "seed {seed} vertex {v}");
        }
    }
}

/// Components agree with BFS reachability and patching connects.
#[test]
fn components_match_reachability() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let comps = components(&g);
        let d = bfs(&g, 0);
        for v in g.vertices() {
            assert_eq!(comps.same(0, v), d[v].is_some(), "seed {seed} vertex {v}");
        }
        let patched = connect_components(&g);
        assert!(is_connected(&patched));
        assert!(patched.num_edges() < g.num_edges() + comps.count);
    }
}

/// Union-find agrees with graph components when fed the same edges.
#[test]
fn union_find_matches_components() {
    for seed in 0..CASES {
        let g = random_graph(seed);
        let mut uf = UnionFind::new(g.num_vertices());
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        let comps = components(&g);
        assert_eq!(uf.num_sets(), comps.count, "seed {seed}");
        for (u, v) in g.edges() {
            assert!(uf.connected(u, v));
        }
    }
}

/// Generator contracts: sizes, degrees, determinism.
#[test]
fn generator_contracts() {
    for seed in 0..32u64 {
        let n = 4 + (seed as usize * 3) % 76;
        let gnp = generators::gnp(n, 0.1, seed).unwrap();
        assert_eq!(gnp, generators::gnp(n, 0.1, seed).unwrap());

        let star = generators::star(n).unwrap();
        assert_eq!(star.degree(0), n - 1);

        let cycle = generators::cycle(n.max(3)).unwrap();
        assert!(cycle.vertices().all(|v| cycle.degree(v) == 2));

        if n.is_multiple_of(2) && n > 4 {
            let rr = generators::random_regular(n, 3, seed).unwrap();
            assert!(rr.vertices().all(|v| rr.degree(v) == 3));
        }
    }
}

/// Weighted graph keeps minimum parallel weight and symmetric access.
#[test]
fn weighted_graph_min_weight() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let mut h = WeightedGraph::new(20);
        let mut best = std::collections::HashMap::new();
        for _ in 0..rng.gen_range(1, 100) {
            let u = rng.gen_range(0, 20);
            let v = rng.gen_range(0, 20);
            let w = rng.gen_range(1, 100) as u64;
            if u == v {
                continue;
            }
            h.add_edge(u, v, w);
            let key = if u < v { (u, v) } else { (v, u) };
            let e = best.entry(key).or_insert(w);
            *e = (*e).min(w);
        }
        assert_eq!(h.num_edges(), best.len(), "seed {seed}");
        for ((u, v), w) in best {
            assert_eq!(h.weight(u, v), Some(w));
            assert_eq!(h.weight(v, u), Some(w));
        }
    }
}

/// Checks every read of `h` against the pair-map model: the edge count,
/// each pair's weight, and each row's neighbors, ascending with their
/// weights, through `neighbors`, `degree` and the CSR words.
fn assert_matches_model(h: &WeightedGraph, model: &BTreeMap<(usize, usize), u64>, ctx: &str) {
    let n = h.num_vertices();
    assert_eq!(h.num_edges(), model.len(), "{ctx}: edges");
    let mut rows: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (&(u, v), &w) in model {
        rows[u].push((v, w));
        rows[v].push((u, w));
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    for (v, row) in rows.iter().enumerate() {
        assert_eq!(h.neighbors(v).collect::<Vec<_>>(), *row, "{ctx}: row {v}");
        assert_eq!(h.degree(v), row.len(), "{ctx}: degree {v}");
        for u in 0..n {
            let want = model.get(&(u.min(v), u.max(v))).copied();
            assert_eq!(h.weight(u, v), want, "{ctx}: weight ({u}, {v})");
        }
    }
    let csr = h.csr();
    let offsets: Vec<u64> = std::iter::once(0)
        .chain(rows.iter().scan(0, |end, row| {
            *end += row.len() as u64;
            Some(*end)
        }))
        .collect();
    let pairs: Vec<u64> = rows
        .iter()
        .flatten()
        .flat_map(|&(u, w)| [u as u64, w])
        .collect();
    assert_eq!(
        (csr.offsets, csr.pairs),
        (&offsets[..], &pairs[..]),
        "{ctx}: CSR words"
    );
}

/// `WeightedGraph` against a `BTreeMap<(u, v), w>` model over seeded
/// insertion streams: pairs repeat with lighter and with heavier weights,
/// in both orientations, and the vertices past `active` stay isolated.
/// Reads run between insertions, so a CSR an insertion left stale fails.
#[test]
fn weighted_graph_matches_a_pair_map_model() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(2, 30);
        let active = rng.gen_range(2, n + 1);
        let mut h = WeightedGraph::new(n);
        let mut model = BTreeMap::new();
        let mut inserted: Vec<(usize, usize)> = Vec::new();
        for step in 0..rng.gen_range(1, 120) {
            let (u, v) = if !inserted.is_empty() && rng.gen_range(0, 3) == 0 {
                let (a, b) = inserted[rng.gen_range(0, inserted.len())];
                if rng.gen_range(0, 2) == 0 {
                    (a, b)
                } else {
                    (b, a)
                }
            } else {
                (rng.gen_range(0, active), rng.gen_range(0, active))
            };
            if u == v {
                continue;
            }
            let w = rng.gen_range(0, 40) as u64;
            let key = (u.min(v), u.max(v));
            let created = !model.contains_key(&key);
            let kept = model.entry(key).or_insert(w);
            *kept = (*kept).min(w);
            let ctx = format!("seed {seed} step {step}: add ({u}, {v}, {w})");
            assert_eq!(h.add_edge(u, v, w), created, "{ctx}");
            inserted.push((u, v));
            if rng.gen_range(0, 3) == 0 {
                assert_matches_model(&h, &model, &ctx);
            }
        }
        assert_matches_model(&h, &model, &format!("seed {seed}: end"));
    }
}
