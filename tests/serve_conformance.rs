//! Registry-wide conformance suite for the `usnae serve` daemon: a
//! daemon-built structure is **the same bytes** as a direct in-process
//! build, warm hits run no phase work, queries agree with a local
//! [`QueryEngine`], and the service's admission control and eviction are
//! observable through `stats`.
//!
//! Each test runs its own daemon on its own socket + cache directory,
//! talks to it through the public [`Client`], and shuts it down
//! explicitly — the full client path CI's serve-smoke job drives through
//! the CLI binary, exercised here in-process for every registry
//! algorithm.
#![cfg(unix)]

use std::path::PathBuf;

use usnae::api::BuildConfig;
use usnae::core::serve::{Client, JobCache, JobSpec, ServeConfig, ServeError, Server};
use usnae::registry;

mod common;
use common::fixture_graphs;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usnae-serveconf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes the ring48 fixture graph as an edge-list file the daemon can
/// resolve, and returns (path, graph).
fn fixture_on_disk(dir: &std::path::Path) -> (String, usnae::graph::Graph) {
    let (_, g) = fixture_graphs().remove(0);
    let path = dir.join("ring48.txt");
    let file = std::fs::File::create(&path).expect("create graph file");
    usnae::graph::io::write_edge_list(&g, std::io::BufWriter::new(file)).expect("write graph");
    (path.display().to_string(), g)
}

/// Starts a daemon on its own thread; returns the socket path and the
/// join handle (joined after a client `shutdown`).
fn spawn_daemon(mut cfg: ServeConfig) -> (PathBuf, std::thread::JoinHandle<()>) {
    cfg.workers = 2;
    let socket = cfg.socket.clone();
    let server = Server::bind(cfg, std::sync::Arc::new(|name: &str| registry::find(name)))
        .expect("bind daemon");
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (socket, handle)
}

#[test]
fn daemon_builds_are_byte_identical_to_direct_builds_for_every_algorithm() {
    let dir = scratch("registry");
    let (graph_path, g) = fixture_on_disk(&dir);
    let cfg = ServeConfig::new(dir.join("d.sock"), dir.join("cache"));
    let (socket, daemon) = spawn_daemon(cfg);
    let mut client = Client::connect(&socket).expect("connect");

    for construction in registry::all() {
        let name = construction.name();
        let job = JobSpec::new(&graph_path, name, &BuildConfig::default());

        // Cold: the daemon runs the construction and streams its phases.
        let mut phases = 0u32;
        let cold = client
            .build(&job, |_, _, _| phases += 1)
            .unwrap_or_else(|e| panic!("{name}: cold daemon build failed: {e}"));
        assert_eq!(cold.cache, JobCache::Cold, "{name}");
        assert_eq!(cold.algorithm, name);

        // Reference: the same job built directly in this process.
        let direct = construction
            .build(&g, &BuildConfig::default())
            .unwrap_or_else(|e| panic!("{name}: direct build failed: {e}"));
        assert_eq!(
            cold.stream_fingerprint,
            direct.stream_fingerprint(),
            "{name}: daemon build diverged from the direct build"
        );
        assert_eq!(cold.num_edges as usize, direct.num_edges(), "{name}");
        assert_eq!(
            cold.num_vertices as usize,
            direct.emulator.num_vertices(),
            "{name}"
        );

        // Warm: resubmitting is a hit — no phases streamed, same bytes.
        let mut warm_phases = 0u32;
        let warm = client
            .build(&job, |_, _, _| warm_phases += 1)
            .unwrap_or_else(|e| panic!("{name}: warm daemon build failed: {e}"));
        assert_eq!(warm.cache, JobCache::Warm, "{name}: expected a warm hit");
        assert_eq!(warm_phases, 0, "{name}: warm hit must run no phase work");
        assert_eq!(warm.stream_fingerprint, cold.stream_fingerprint, "{name}");
    }

    // The stats window saw every job, warm hits included.
    let stats = client.stats().expect("stats");
    let n_algos = registry::all().len() as u64;
    assert_eq!(stats.jobs_done, 2 * n_algos);
    assert!(stats.cache_hits >= n_algos, "one warm hit per algorithm");
    assert_eq!(stats.cache_stores, n_algos, "one publish per algorithm");
    assert_eq!(stats.cache_evictions, 0, "unbounded cache never evicts");
    assert!(stats
        .recent
        .iter()
        .any(|r| r.cache == JobCache::Warm && r.phases.is_empty()));

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_queries_agree_with_a_local_engine_and_range_check() {
    let dir = scratch("query");
    let (graph_path, g) = fixture_on_disk(&dir);
    let cfg = ServeConfig::new(dir.join("d.sock"), dir.join("cache"));
    let (socket, daemon) = spawn_daemon(cfg);
    let mut client = Client::connect(&socket).expect("connect");

    let job = JobSpec::new(&graph_path, "centralized", &BuildConfig::default());
    let pairs: Vec<(u64, u64)> = vec![(0, 24), (3, 3), (7, 40), (1, 47)];

    // First query builds read-through (cold), second serves warm.
    let cold = client.query(&job, &pairs, 0).expect("cold query");
    assert_eq!(cold.cache, JobCache::Cold);
    let warm = client.query(&job, &pairs, 0).expect("warm query");
    assert_eq!(warm.cache, JobCache::Warm);
    assert_eq!(cold.distances, warm.distances);

    // Reference answers from a local engine over the same build.
    let construction = registry::find("centralized").unwrap();
    let engine = construction
        .build(&g, &BuildConfig::default())
        .unwrap()
        .into_query_engine();
    let native: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let local: Vec<Option<u64>> = engine
        .distances(&native)
        .into_iter()
        .map(|c| c.value)
        .collect();
    assert_eq!(cold.distances, local, "daemon answers diverged");
    let (alpha, beta) = engine.guarantee();
    assert_eq!((cold.alpha, cold.beta), (alpha, beta), "certificate drift");

    // Landmark routing answers every pair too (weaker certificate).
    let lm = client.query(&job, &pairs, 3).expect("landmark query");
    assert_eq!(lm.distances.len(), pairs.len());
    assert!(lm.distances.iter().all(Option::is_some));

    // Out-of-range pairs are refused with the typed code, not a crash.
    let err = client.query(&job, &[(0, 480)], 0).unwrap_err();
    match err {
        ServeError::Rejected { code, .. } => {
            assert_eq!(code, usnae::core::serve::ErrorCode::QueryOutOfRange);
        }
        other => panic!("expected a typed range rejection, got {other}"),
    }

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_refuses_admission_with_a_typed_busy() {
    let dir = scratch("busy");
    let (graph_path, _) = fixture_on_disk(&dir);
    let mut cfg = ServeConfig::new(dir.join("d.sock"), dir.join("cache"));
    cfg.queue_cap = 0; // every cold build is refused
    let (socket, daemon) = spawn_daemon(cfg);
    let mut client = Client::connect(&socket).expect("connect");

    let job = JobSpec::new(&graph_path, "centralized", &BuildConfig::default());
    match client.build(&job, |_, _, _| {}) {
        Err(ServeError::Busy { queue_cap: 0 }) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_rejected, 1);
    assert_eq!(stats.jobs_done, 0);
    assert_eq!(stats.queue_cap, 0);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_eviction_is_observable_in_stats_and_jobs_still_serve() {
    let dir = scratch("evict");
    let (graph_path, _) = fixture_on_disk(&dir);
    let mut cfg = ServeConfig::new(dir.join("d.sock"), dir.join("cache"));
    // Budget below any snapshot: every new algorithm evicts the
    // previous one, but the MRU entry always survives to serve warm.
    cfg.budget = Some(1);
    let (socket, daemon) = spawn_daemon(cfg);
    let mut client = Client::connect(&socket).expect("connect");

    let algos = ["centralized", "spanner", "em19"];
    for name in algos {
        let job = JobSpec::new(&graph_path, name, &BuildConfig::default());
        let built = client.build(&job, |_, _, _| {}).expect(name);
        assert_eq!(built.cache, JobCache::Cold, "{name}");
        // Immediate resubmission is warm even under the tiny budget:
        // the most recent entry is never evicted.
        let warm = client.build(&job, |_, _, _| {}).expect(name);
        assert_eq!(warm.cache, JobCache::Warm, "{name}");
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.cache_evictions >= (algos.len() - 1) as u64,
        "expected evictions under the 1-byte budget, saw {}",
        stats.cache_evictions
    );
    assert_eq!(stats.budget, 1);
    assert!(stats.bytes_resident > 0);
    // An evicted job rebuilds transparently: cold again, then warm.
    let first = JobSpec::new(&graph_path, "centralized", &BuildConfig::default());
    let rebuilt = client.build(&first, |_, _, _| {}).expect("rebuild");
    assert_eq!(rebuilt.cache, JobCache::Cold, "evicted entry rebuilds");

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve daemon shares one query engine per mapped snapshot: N
/// connections querying the same `(snapshot, landmarks)` pair must leave
/// exactly one engine open and count every batch after the first as a
/// reuse — the per-connection-duplication bug this counter exists to
/// catch. Answers must be identical no matter which connection asked.
#[test]
fn query_engines_are_shared_across_connections() {
    let dir = scratch("engshare");
    let (graph_path, _) = fixture_on_disk(&dir);
    let cfg = ServeConfig::new(dir.join("d.sock"), dir.join("cache"));
    let (socket, daemon) = spawn_daemon(cfg);
    let job = JobSpec::new(&graph_path, "centralized", &BuildConfig::default());
    let pairs: Vec<(u64, u64)> = vec![(0, 24), (5, 31)];

    // Sequential connections first: each opens fresh, queries, drops.
    let mut answers = Vec::new();
    for _ in 0..3 {
        let mut client = Client::connect(&socket).expect("connect");
        answers.push(client.query(&job, &pairs, 0).expect("query").distances);
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");

    // Concurrent connections share the same engine too.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let socket = socket.clone();
            let job = job.clone();
            let pairs = pairs.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                client.query(&job, &pairs, 0).expect("query");
            });
        }
    });

    // A different landmark count is a different engine key.
    let mut client = Client::connect(&socket).expect("connect");
    client.query(&job, &pairs, 2).expect("landmark query");

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.engines_open, 2,
        "one exact engine + one landmark engine, not one per connection"
    );
    assert_eq!(
        stats.engine_reuses, 6,
        "every exact batch after the first must reuse the shared engine"
    );

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Several clients issuing overlapping builds of the *same* job: exactly
/// one construction should publish, the rest serve warm or rebuild
/// race-free, and every reported fingerprint is identical.
#[test]
fn concurrent_clients_converge_on_one_snapshot() {
    let dir = scratch("mclient");
    let (graph_path, _) = fixture_on_disk(&dir);
    let cfg = ServeConfig::new(dir.join("d.sock"), dir.join("cache"));
    let (socket, daemon) = spawn_daemon(cfg);

    let fingerprints: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let socket = socket.clone();
                let graph_path = graph_path.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&socket).expect("connect");
                    let job = JobSpec::new(&graph_path, "spanner", &BuildConfig::default());
                    client
                        .build(&job, |_, _, _| {})
                        .expect("build")
                        .stream_fingerprint
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "{fingerprints:?}"
    );

    let mut client = Client::connect(&socket).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_done, 4);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 48-vertex ring with a chord from every vertex `i` to `i + offset`,
/// as edge-list text.
fn ring_with_chords(offset: usize) -> String {
    (0..48)
        .map(|i| format!("{i} {}\n{i} {}\n", (i + 1) % 48, (i + offset) % 48))
        .collect()
}

/// A graph file rewritten under a running daemon is read again: the next
/// `Build` is cold with the new graph's fingerprint, and the next `Query`
/// answers over the new graph. Covers both ways a file changes: a new
/// file renamed over it (new inode), and a same-length rewrite in place
/// right after a request (same inode and length; caught by the mtime, or
/// by the racy-timestamp rule when the mtime did not move).
#[test]
fn rewritten_graph_files_are_read_again() {
    let dir = scratch("stale");
    let path = dir.join("g.txt");
    let cfg = BuildConfig::default();
    let job = JobSpec::new(path.display().to_string(), "centralized", &cfg);
    let pairs: Vec<(u64, u64)> = vec![(0, 9), (0, 24), (3, 30), (5, 40), (1, 47)];
    let (socket, daemon) = spawn_daemon(ServeConfig::new(dir.join("d.sock"), dir.join("cache")));
    let mut client = Client::connect(&socket).expect("connect");

    // The daemon must serve exactly what a local build of `text` gives.
    let mut expect_fresh = |text: &str, what: &str| {
        let g = usnae::graph::io::read_edge_list(text.as_bytes(), 0).expect("parse");
        let local = registry::find("centralized")
            .unwrap()
            .build(&g, &cfg)
            .unwrap();
        let built = client.build(&job, |_, _, _| {}).expect(what);
        assert_eq!(
            built.cache,
            JobCache::Cold,
            "{what}: the new graph must build"
        );
        assert_eq!(
            built.stream_fingerprint,
            local.stream_fingerprint(),
            "{what}"
        );
        let native: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        let engine = local.into_query_engine();
        let want: Vec<Option<u64>> = engine.distances(&native).iter().map(|c| c.value).collect();
        let got = client.query(&job, &pairs, 0).expect(what);
        assert_eq!(got.cache, JobCache::Warm, "{what}");
        assert_eq!(got.distances, want, "{what}: answers over a stale graph");
    };

    let first = ring_with_chords(7);
    std::fs::write(&path, &first).expect("write graph");
    expect_fresh(&first, "first graph");

    // Rewrite 1: a new file renamed over the old one.
    let second = ring_with_chords(5);
    let tmp = dir.join("g.txt.tmp");
    std::fs::write(&tmp, &second).expect("write graph");
    std::fs::rename(&tmp, &path).expect("rename graph");
    let renamed_at = std::fs::metadata(&path).unwrap().modified().unwrap();
    expect_fresh(&second, "renamed graph");

    // Rewrite 2, right after those requests: in place, same byte length
    // (edge {0, 5} becomes {0, 9}). On a filesystem with whole-second
    // mtimes a rewrite this soon would keep the mtime; model that by
    // restoring it while still inside that second, so only the
    // racy-timestamp rule can catch the change.
    let third = second.replacen("0 1\n0 5\n", "0 1\n0 9\n", 1);
    assert_eq!((third.len(), third != second), (second.len(), true));
    let mut f = std::fs::File::options().write(true).open(&path).unwrap();
    std::io::Write::write_all(&mut f, third.as_bytes()).expect("rewrite graph");
    if std::time::SystemTime::now() < renamed_at + std::time::Duration::from_secs(1) {
        f.set_modified(renamed_at).expect("restore mtime");
    }
    drop(f);
    expect_fresh(&third, "graph rewritten in place");

    // A deleted graph file is unavailable, not served from the memo.
    std::fs::remove_file(&path).expect("delete graph");
    match client.build(&job, |_, _, _| {}) {
        Err(ServeError::Rejected { code, .. }) => {
            assert_eq!(code, usnae::core::serve::ErrorCode::GraphUnavailable);
        }
        other => panic!("expected GraphUnavailable, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache entry deleted behind the daemon's back is a miss even after
/// the daemon recorded its identity: the next `Build` rebuilds it cold,
/// with the same bytes.
#[test]
fn deleted_entry_rebuilds_cold() {
    let dir = scratch("deleted");
    let (graph_path, _) = fixture_on_disk(&dir);
    let cache = dir.join("cache");
    let (socket, daemon) = spawn_daemon(ServeConfig::new(dir.join("d.sock"), &cache));
    let mut client = Client::connect(&socket).expect("connect");
    let job = JobSpec::new(&graph_path, "centralized", &BuildConfig::default());

    let cold = client.build(&job, |_, _, _| {}).expect("cold build");
    assert_eq!(cold.cache, JobCache::Cold);
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "usnae"))
        .expect("published entry");
    // Past the racy window, so warm lookups answer from the recorded
    // identity instead of re-opening the file.
    std::fs::File::options()
        .write(true)
        .open(&entry)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
        .unwrap();
    for _ in 0..2 {
        let warm = client.build(&job, |_, _, _| {}).expect("warm build");
        assert_eq!(warm.cache, JobCache::Warm);
    }

    std::fs::remove_file(&entry).expect("delete entry");
    let rebuilt = client.build(&job, |_, _, _| {}).expect("rebuild");
    assert_eq!(rebuilt.cache, JobCache::Cold, "a deleted entry is a miss");
    assert_eq!(rebuilt.stream_fingerprint, cold.stream_fingerprint);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that hangs up in the middle of a frame costs only its own
/// connection: the daemon keeps serving.
#[test]
fn a_client_hanging_up_mid_frame_does_not_stop_the_daemon() {
    let dir = scratch("hangup");
    let (socket, daemon) = spawn_daemon(ServeConfig::new(dir.join("d.sock"), dir.join("cache")));
    {
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
        std::io::Write::write_all(&mut raw, &usnae::core::serve::MAGIC[..5]).expect("write");
    }
    let mut client = Client::connect(&socket).expect("the daemon still accepts");
    client.stats().expect("and still answers");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}
