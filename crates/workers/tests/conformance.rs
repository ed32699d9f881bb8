//! Pool-level conformance: for both transports, every shard count, and
//! adversarial interleavings, [`WorkerPool`] results are identical to the
//! in-process references — `usnae_graph::par::balls` for distance balls,
//! and a sequential FIFO BFS oracle for full explorations. The in-process
//! explorations (`usnae_graph::par::ScratchPool`) are held to the same
//! oracle, so both paths return one `usnae_graph::par::Exploration` value.
//!
//! Living in the workers crate's own integration tests means
//! `CARGO_BIN_EXE_usnae-worker` is available, so the process transport is
//! pinned to the freshly-built worker binary.

use std::collections::VecDeque;
use std::sync::Once;

use usnae_graph::par::ScratchPool;
use usnae_graph::partition::{boundaries, PartitionPolicy, ShardView, ShardedCsr};
use usnae_graph::{generators, par, Dist, Graph, VertexId, INF};
use usnae_workers::proto::ShardInit;
use usnae_workers::{TransportKind, WorkerPool};

/// Pins the process transport to the binary cargo just built.
fn pin_worker_bin() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("USNAE_WORKER_BIN", env!("CARGO_BIN_EXE_usnae-worker"));
    });
}

/// Shard layouts straight from the graph's adjacency (what
/// `usnae_core`'s engine ships from `ShardedCsr`).
fn shard_inits(g: &Graph, bounds: &[VertexId]) -> Vec<ShardInit> {
    let num_shards = bounds.len() - 1;
    (0..num_shards)
        .map(|s| {
            let (start, end) = (bounds[s], bounds[s + 1]);
            let mut offsets = vec![0usize];
            let mut adjacency = Vec::new();
            for v in start..end {
                adjacency.extend_from_slice(g.neighbors(v));
                offsets.push(adjacency.len());
            }
            ShardInit {
                shard: s,
                num_shards,
                num_vertices: g.num_vertices(),
                start,
                end,
                offsets,
                adjacency,
            }
        })
        .collect()
}

fn pool(g: &Graph, kind: TransportKind, shards: usize) -> WorkerPool {
    let bounds = boundaries(g, PartitionPolicy::DegreeBalanced, shards);
    WorkerPool::new(kind, shard_inits(g, &bounds)).expect("pool spawns")
}

/// The sequential oracle for explorations: FIFO BFS with first-discovery
/// parents and the `dist == depth` expansion cutoff, reported as sorted
/// `(v, dist, parent)` triples — the `usnae_graph::par::Exploration`
/// contract.
fn reference_exploration(
    g: &Graph,
    source: VertexId,
    depth: Dist,
) -> Vec<(VertexId, Dist, Option<VertexId>)> {
    let n = g.num_vertices();
    let mut dist: Vec<Option<Dist>> = vec![None; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut queue = VecDeque::new();
    dist[source] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued implies settled");
        if du == depth {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (0..n)
        .filter_map(|v| dist[v].map(|d| (v, d, parent[v])))
        .collect()
}

fn graphs() -> Vec<Graph> {
    vec![
        generators::gnp_connected(60, 0.08, 7).expect("valid gnp"),
        generators::gnp_connected(90, 0.05, 23).expect("valid gnp"),
    ]
}

fn sources(g: &Graph) -> Vec<VertexId> {
    // A spread of sources across all shards, including the extremes.
    let n = g.num_vertices();
    vec![0, n / 3, n / 2, 2 * n / 3, n - 1]
}

fn check_transport(kind: TransportKind) {
    for g in graphs() {
        let srcs = sources(&g);
        for shards in [2usize, 4] {
            for depth in [0u64, 1, 3, u64::MAX / 2] {
                let mut p = pool(&g, kind, shards);
                let got = p.balls(&srcs, depth).expect("balls run");
                let want = par::balls(&g, &srcs, depth, 1);
                assert_eq!(got, want, "{kind} x{shards} depth={depth}: balls diverged");

                let got = p.explorations(&srcs, depth).expect("explorations run");
                for (i, &s) in srcs.iter().enumerate() {
                    assert_eq!(
                        got[i].settled,
                        reference_exploration(&g, s, depth),
                        "{kind} x{shards} depth={depth} source={s}: exploration diverged"
                    );
                }

                let stats = p.shutdown().expect("clean shutdown");
                if depth > 0 && shards > 1 {
                    assert!(stats.rounds > 0, "{kind}: no rounds measured");
                    assert!(stats.messages > 0, "{kind}: no messages measured");
                    assert!(stats.bytes > 0, "{kind}: no bytes measured");
                    assert!(!stats.pairs.is_empty(), "{kind}: no pair traffic");
                }
            }
        }
    }
}

#[test]
fn channel_pool_matches_the_in_process_references() {
    check_transport(TransportKind::Channel);
}

#[test]
fn process_pool_matches_the_in_process_references() {
    pin_worker_bin();
    check_transport(TransportKind::Process);
}

#[test]
fn both_transports_report_identical_message_stats() {
    pin_worker_bin();
    let g = generators::gnp_connected(60, 0.08, 7).expect("valid gnp");
    let srcs = sources(&g);
    let run = |kind| {
        let mut p = pool(&g, kind, 4);
        p.balls(&srcs, 4).expect("balls run");
        p.explorations(&srcs, 4).expect("explorations run");
        p.shutdown().expect("clean shutdown")
    };
    assert_eq!(run(TransportKind::Channel), run(TransportKind::Process));
}

#[test]
fn seeded_worker_delays_never_change_the_output() {
    // Adversarial scheduling: per-worker pseudo-random delays scramble
    // thread interleavings; results and stats must not move.
    let g = generators::gnp_connected(90, 0.05, 23).expect("valid gnp");
    let srcs = sources(&g);
    let baseline = {
        let mut p = pool(&g, TransportKind::Channel, 4);
        let out = (
            p.balls(&srcs, 5).expect("balls run"),
            p.explorations(&srcs, 5).expect("explorations run"),
        );
        (out, p.shutdown().expect("clean shutdown"))
    };
    for seed in [1u64, 99] {
        std::env::set_var("USNAE_WORKER_DELAY_SEED", seed.to_string());
        let mut p = pool(&g, TransportKind::Channel, 4);
        let out = (
            p.balls(&srcs, 5).expect("balls run"),
            p.explorations(&srcs, 5).expect("explorations run"),
        );
        let stats = p.shutdown().expect("clean shutdown");
        std::env::remove_var("USNAE_WORKER_DELAY_SEED");
        assert_eq!((out, stats), baseline, "delay seed {seed} changed output");
    }
}

#[test]
fn single_shard_pools_also_conform() {
    // Degenerate layout: everything owned by one worker, no routing.
    let g = generators::gnp_connected(40, 0.1, 3).expect("valid gnp");
    let srcs = sources(&g);
    let mut p = pool(&g, TransportKind::Channel, 1);
    assert_eq!(
        p.balls(&srcs, 3).expect("balls run"),
        par::balls(&g, &srcs, 3, 1)
    );
    let got = p.explorations(&srcs, 3).expect("explorations run");
    for (i, &s) in srcs.iter().enumerate() {
        assert_eq!(got[i].settled, reference_exploration(&g, s, 3));
    }
    p.shutdown().expect("clean shutdown");
}

#[test]
fn in_process_explorations_match_the_fifo_oracle() {
    for g in graphs() {
        let n = g.num_vertices();
        let srcs: Vec<VertexId> = (0..n).step_by(3).collect();
        let mut layouts: Vec<(String, Box<dyn ShardView>)> =
            vec![("shared".into(), Box::new(g.clone()))];
        for shards in [1usize, 2, 4, 7] {
            let layout = ShardedCsr::build(&g, PartitionPolicy::DegreeBalanced, shards);
            layouts.push((format!("csr x{shards}"), Box::new(layout)));
        }
        for (name, layout) in &layouts {
            for threads in [1usize, 4] {
                // One pool for every depth and chunk: a search that left
                // residue in its scratch would corrupt every later one.
                let mut pool = ScratchPool::new(n, threads);
                for depth in [0u64, 1, 3, INF] {
                    // A chunk boundary inside the source list.
                    let (head, tail) = srcs.split_at(srcs.len() / 3);
                    let mut got = pool.explorations(layout.as_ref(), head, depth);
                    got.extend(pool.explorations(layout.as_ref(), tail, depth));
                    assert_eq!(got.len(), srcs.len());
                    for (e, &s) in got.iter().zip(&srcs) {
                        assert_eq!(
                            e.settled,
                            reference_exploration(&g, s, depth),
                            "{name} threads={threads} depth={depth} source={s}"
                        );
                    }
                }
            }
        }
    }
}
