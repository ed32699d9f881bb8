//! Registry-wide worker-conformance suite: a build whose sharded
//! exploration phases run on a **worker pool** — one worker per CSR
//! shard, talking typed frontier messages over the channel (OS threads),
//! process (child `usnae-worker` over pipes), or socket (the same framed
//! protocol over TCP) transport — is **byte-identical** to the build
//! over the shared adjacency array. Every algorithm in the catalogue,
//! all three worker transports, shard counts {2, 4}.
//!
//! This is the enforcement arm of `usnae_workers`: a transport may only
//! change *where* the exploration work executes and *how* frontiers
//! travel, never the built structure. The contract covers the exact
//! weighted edge stream (insertion order and provenance included), the
//! trace, the certified `(α, β)`, and the stream fingerprint — the same
//! no-exceptions standard the thread- and shard-invariance suites hold.
//!
//! Two oracles, mirroring `partition_conformance.rs`:
//!
//! * a fresh unpartitioned in-process build of the same
//!   `(graph, config)`;
//! * the golden reference streams checked into `tests/data/` — fixed
//!   files, so a worker-protocol regression is caught **without
//!   rebuilding the oracle**. The same builds pin their exact worker
//!   traffic (`PINNED_TRAFFIC`).
//!
//! An interleaving-stress leg reruns the channel matrix with seeded
//! random per-worker delays (`USNAE_WORKER_DELAY_SEED`) to scramble the
//! thread schedule: the round barrier must make worker timing
//! output-invisible. The kill-injection stress leg
//! (`USNAE_WORKER_KILL_SEED`) drives the `usnae` CLI, so it lives with the
//! CLI crate's tests (`crates/cli/tests/killed_workers.rs`).
//!
//! The CI `worker-matrix` leg sets `USNAE_TEST_TRANSPORT` to focus one
//! job on one transport; without it the suite sweeps all three. The
//! process and socket transports need the `usnae-worker` binary — a
//! workspace-level `cargo test`/`cargo build` produces it; a targeted
//! `cargo test --test worker_conformance` must be preceded by
//! `cargo build -p usnae-workers` (same profile).

mod common;

use common::{fixture_graphs, golden_config, golden_fingerprint, golden_path};
use usnae::api::{BuildConfig, BuildError, BuildOutput, PartitionPolicy, TransportKind};
use usnae::core::ParamError;
use usnae::graph::{generators, Graph};
use usnae::registry;

/// Worker transports to sweep; `USNAE_TEST_TRANSPORT` (the CI matrix)
/// narrows the sweep to one.
fn transports() -> Vec<TransportKind> {
    match std::env::var("USNAE_TEST_TRANSPORT") {
        Ok(v) => {
            let t = TransportKind::parse(&v).expect("USNAE_TEST_TRANSPORT must be a transport");
            assert_ne!(
                t,
                TransportKind::Inproc,
                "inproc is the baseline, not a worker transport"
            );
            vec![t]
        }
        Err(_) => vec![
            TransportKind::Channel,
            TransportKind::Process,
            TransportKind::Socket,
        ],
    }
}

/// Seeded inputs per construction; CONGEST simulations get smaller
/// instances of the same family (mirrors `partition_conformance.rs`).
fn input(seed: u64, congest: bool) -> Graph {
    let n = if congest { 70 } else { 130 };
    generators::gnp_connected(n, 8.0 / n as f64, seed).expect("valid gnp parameters")
}

fn config(seed: u64, shards: usize, transport: TransportKind) -> BuildConfig {
    BuildConfig {
        seed,
        shards,
        transport,
        partition: PartitionPolicy::DegreeBalanced,
        traced: true,
        ..BuildConfig::default()
    }
}

/// The constructions whose exploration phases actually run on the worker
/// pool (and therefore measure message statistics). The CONGEST
/// simulations and TZ06 accept the knobs but run no sharded exploration
/// phase — their builds must report `inproc` and no stats.
const SHARDED: [&str; 6] = [
    "centralized",
    "fast-centralized",
    "spanner",
    "ep01",
    "en17a",
    "em19",
];

/// Full parity: exact stream + provenance, counts, certification, trace,
/// CONGEST metrics.
fn assert_outputs_identical(ctx: &str, a: &BuildOutput, b: &BuildOutput) {
    assert_eq!(
        a.emulator.provenance(),
        b.emulator.provenance(),
        "{ctx}: weighted edge stream / provenance diverged"
    );
    assert_eq!(
        a.stream_fingerprint(),
        b.stream_fingerprint(),
        "{ctx}: stream fingerprint diverged"
    );
    assert_eq!(a.num_edges(), b.num_edges(), "{ctx}: edge count diverged");
    assert_eq!(a.certified, b.certified, "{ctx}: certified (α, β) diverged");
    assert_eq!(a.size_bound, b.size_bound, "{ctx}: size bound diverged");
    let summaries = |o: &BuildOutput| o.trace.as_ref().map(|t| t.phase_summaries());
    assert_eq!(summaries(a), summaries(b), "{ctx}: phase trace diverged");
    match (&a.congest, &b.congest) {
        (None, None) => {}
        (Some(ca), Some(cb)) => {
            assert_eq!(ca.metrics, cb.metrics, "{ctx}: CONGEST metrics diverged");
        }
        _ => panic!("{ctx}: congest stats presence diverged"),
    }
}

#[test]
fn every_registry_algorithm_is_transport_invariant() {
    for c in registry::all() {
        let congest = c.supports().congest;
        for seed in [1u64, 13] {
            let g = input(seed, congest);
            let baseline = c
                .build(&g, &config(seed, 0, TransportKind::Inproc))
                .unwrap_or_else(|e| panic!("{} seed={seed} inproc: {e}", c.name()));
            assert!(baseline.stats.messages.is_none());
            for transport in transports() {
                for shards in [2usize, 4] {
                    let ctx = format!("{} seed={seed} {transport} x{shards}", c.name());
                    let result = c.build(&g, &config(seed, shards, transport));
                    if SHARDED.contains(&c.name()) {
                        let out = result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_outputs_identical(&ctx, &baseline, &out);
                        assert_eq!(out.stats.transport, transport, "{ctx}");
                    } else {
                        // No sharded exploration phase to hand workers:
                        // the requested worker build cannot happen, and
                        // silently running in-process would misreport it
                        // — the build must refuse with a typed error.
                        match result {
                            Err(BuildError::Param(ParamError::TransportUnsupported {
                                algorithm,
                                ..
                            })) => assert_eq!(algorithm, c.name(), "{ctx}"),
                            other => panic!("{ctx}: expected TransportUnsupported, got {other:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// Exact worker traffic `(rounds, messages, bytes)` of the golden builds
/// on two shards, per fixture graph and construction. The counters are
/// deterministic and transport-invariant, and they cover exploration
/// traffic only: a build ships no output records, so these are exactly
/// the frontier, key and rank messages of its exploration rounds.
const PINNED_TRAFFIC: [(&str, &str, (u64, u64, u64)); 4] = [
    ("ring48", "centralized", (40, 82, 2_952)),
    ("ring48", "fast-centralized", (34, 85, 3_060)),
    ("grid8x8", "centralized", (192, 76, 2_736)),
    ("grid8x8", "fast-centralized", (52, 46, 1_656)),
];

#[test]
fn worker_builds_match_the_golden_reference_streams() {
    // Fixed oracle: the checked-in golden fingerprints. No in-process
    // rebuild happens here — a worker-protocol regression that somehow
    // also moved the live baseline is still caught against the committed
    // files.
    let cfg = golden_config();
    for (tag, g) in fixture_graphs() {
        for c in registry::all() {
            let path = golden_path(tag, c.name());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden stream {} ({e}); see tests/golden_streams.rs",
                    path.display()
                )
            });
            let golden = golden_fingerprint(&text)
                .unwrap_or_else(|| panic!("{}: no fingerprint header", path.display()));
            if !SHARDED.contains(&c.name()) {
                // In-process-only algorithms refuse worker transports
                // (covered by every_registry_algorithm_is_transport_invariant).
                continue;
            }
            for transport in transports() {
                let out = c
                    .build(
                        &g,
                        &BuildConfig {
                            shards: 2,
                            transport,
                            ..cfg.clone()
                        },
                    )
                    .unwrap_or_else(|e| panic!("{} on {tag} ({transport}): {e}", c.name()));
                assert_eq!(
                    out.stream_fingerprint(),
                    golden,
                    "{} on {tag} ({transport} x2): worker build diverged from the \
                     golden reference stream {}",
                    c.name(),
                    path.display()
                );
                let pinned = PINNED_TRAFFIC
                    .iter()
                    .find(|(t, name, _)| *t == tag && *name == c.name());
                if let Some(&(_, _, expected)) = pinned {
                    let stats = out.stats.messages.expect("worker build measures messages");
                    assert_eq!(
                        (stats.rounds, stats.messages, stats.bytes),
                        expected,
                        "{} on {tag} ({transport} x2): worker traffic moved",
                        c.name()
                    );
                }
            }
        }
    }
}

#[test]
fn worker_builds_measure_nonzero_message_complexity() {
    let g = input(3, false);
    for name in SHARDED {
        let c = registry::find(name).unwrap();
        for transport in transports() {
            for shards in [2usize, 4] {
                let out = c.build(&g, &config(3, shards, transport)).unwrap();
                let ctx = format!("{name} {transport} x{shards}");
                let stats = out
                    .stats
                    .messages
                    .as_ref()
                    .unwrap_or_else(|| panic!("{ctx}: worker build must measure messages"));
                assert!(stats.rounds > 0, "{ctx}: no rounds measured");
                assert!(stats.messages > 0, "{ctx}: no messages measured");
                assert!(stats.bytes > 0, "{ctx}: no bytes measured");
                // The per-pair breakdown stays within the totals and names
                // real shards, in ascending order.
                let pair_msgs: u64 = stats.pairs.iter().map(|p| p.messages).sum();
                assert!(
                    pair_msgs <= stats.messages,
                    "{ctx}: pair breakdown exceeds total"
                );
                let mut keys: Vec<(usize, usize)> =
                    stats.pairs.iter().map(|p| (p.src, p.dst)).collect();
                for &(src, dst) in &keys {
                    assert!(
                        src < shards && dst < shards,
                        "{ctx}: pair names a ghost shard"
                    );
                }
                let sorted = {
                    let mut k = keys.clone();
                    k.sort_unstable();
                    k
                };
                assert_eq!(keys, sorted, "{ctx}: pairs must be sorted by (src, dst)");
                keys.dedup();
                assert_eq!(keys.len(), stats.pairs.len(), "{ctx}: duplicate pair rows");
                // The measurement is itself deterministic: same config,
                // same counts.
                let again = c.build(&g, &config(3, shards, transport)).unwrap();
                assert_eq!(
                    again.stats.messages.as_ref(),
                    Some(stats),
                    "{ctx}: message counts must be run-invariant"
                );
            }
        }
    }
}

#[test]
fn channel_workers_survive_scrambled_interleavings() {
    // Seeded random per-response delays scramble the worker thread
    // schedule; the round barrier must keep every interleaving
    // output-identical. The env var only injects *delays* — it can never
    // change any build's output — so leaking it to concurrently running
    // tests in this binary is harmless (they just slow down).
    let g = input(29, false);
    let baselines: Vec<(&str, BuildOutput)> = SHARDED
        .iter()
        .map(|&name| {
            let c = registry::find(name).unwrap();
            (
                name,
                c.build(&g, &config(29, 0, TransportKind::Inproc)).unwrap(),
            )
        })
        .collect();
    for delay_seed in [7u64, 4242] {
        std::env::set_var("USNAE_WORKER_DELAY_SEED", delay_seed.to_string());
        for (name, baseline) in &baselines {
            let c = registry::find(name).unwrap();
            let out = c
                .build(&g, &config(29, 4, TransportKind::Channel))
                .unwrap_or_else(|e| panic!("{name} delay_seed={delay_seed}: {e}"));
            assert_outputs_identical(
                &format!("{name} delay_seed={delay_seed} channel x4"),
                baseline,
                &out,
            );
        }
    }
    std::env::remove_var("USNAE_WORKER_DELAY_SEED");
}

#[test]
fn transport_composes_with_threads_and_cache() {
    // The execution axes are independent: a worker-pool build at any
    // driver thread count reproduces the sequential shared-array stream,
    // and `transport` — like `threads` and `shards` — is not part of the
    // cache key, so one cached entry serves every execution strategy.
    use usnae::api::CacheStatus;
    use usnae::core::cache::{build_cached, CacheConfig};
    let g = input(19, false);
    let c = registry::find("fast-centralized").unwrap();
    let baseline = c.build(&g, &config(19, 0, TransportKind::Inproc)).unwrap();
    for threads in [2usize, 4] {
        let cfg = BuildConfig {
            threads,
            ..config(19, 4, TransportKind::Channel)
        };
        let out = c.build(&g, &cfg).unwrap();
        assert_outputs_identical(&format!("threads={threads} channel x4"), &baseline, &out);
    }

    let dir = std::env::temp_dir().join(format!("usnae-worker-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_cfg = CacheConfig::new(&dir);
    let cold_cfg = BuildConfig {
        traced: false,
        ..config(19, 2, TransportKind::Channel)
    };
    let cold = build_cached(c.as_ref(), &g, &cold_cfg, &cache_cfg).unwrap();
    assert_eq!(cold.stats.cache, CacheStatus::Miss);
    assert!(cold.stats.messages.is_some(), "cold worker build measures");
    let warm_cfg = BuildConfig {
        transport: TransportKind::Inproc,
        shards: 0,
        ..cold_cfg.clone()
    };
    let warm = build_cached(c.as_ref(), &g, &warm_cfg, &cache_cfg).unwrap();
    assert_eq!(
        warm.stats.cache,
        CacheStatus::Hit,
        "an inproc request must hit the worker-built entry"
    );
    assert_eq!(warm.stream_fingerprint(), cold.stream_fingerprint());
    // The hit replays the stored execution stats of the build that paid
    // the work — transport included.
    assert_eq!(warm.stats.transport, TransportKind::Channel);
    assert_eq!(warm.stats.messages, cold.stats.messages);
    let _ = std::fs::remove_dir_all(&dir);
}
