//! Golden-stream fixtures: the exact, fingerprinted insertion streams of
//! all 9 registry algorithms on two small fixed graphs, checked into
//! `tests/data/`.
//!
//! The determinism guarantee (see `usnae_core::api`) says every
//! construction is a pure function of `(graph, config)`; these fixtures
//! pin that function's *value* across commits. Any change that moves an
//! edge stream — a reordered emission loop, a changed tie-break, a codec
//! bug — fails here loudly, pointing at the exact drifted algorithm,
//! instead of surfacing as a mysterious cache invalidation or a
//! shard-merge mismatch three layers up. The partition-conformance suite
//! reuses the same fixtures as its fixed oracle: sharded builds are
//! checked against these files without rebuilding the unsharded baseline.
//!
//! To regenerate after an *intentional* stream change:
//!
//! ```text
//! USNAE_REGEN_GOLDEN=1 cargo test --test golden_streams
//! git add tests/data && git commit
//! ```

mod common;

use common::{fixture_graphs, golden_config, golden_fingerprint, golden_path, stream_text};
use usnae::api::{BuildConfig, TransportKind};
use usnae::graph::{generators, Graph, GraphBuilder};
use usnae::registry;

fn regen_requested() -> bool {
    std::env::var("USNAE_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn every_registry_algorithm_matches_its_golden_stream() {
    let cfg = golden_config();
    for (tag, g) in fixture_graphs() {
        for c in registry::all() {
            let out = c
                .build(&g, &cfg)
                .unwrap_or_else(|e| panic!("{} on {tag}: {e}", c.name()));
            let got = stream_text(tag, c.name(), &out);
            let path = golden_path(tag, c.name());
            if regen_requested() {
                std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/data");
                std::fs::write(&path, &got)
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden stream {} ({e}); regenerate with \
                     `USNAE_REGEN_GOLDEN=1 cargo test --test golden_streams` and commit tests/data",
                    path.display()
                )
            });
            assert_eq!(
                got,
                want,
                "{} on {tag}: construction drifted from its golden reference stream \
                 ({}). If the change is intentional, regenerate with \
                 `USNAE_REGEN_GOLDEN=1 cargo test --test golden_streams` and commit tests/data; \
                 otherwise this is a determinism regression.",
                c.name(),
                path.display()
            );
        }
    }
}

#[test]
fn golden_headers_are_self_consistent() {
    // The recorded fingerprint must match the stream the file itself
    // carries — a hand-edited or truncated fixture fails here, not as a
    // confusing diff in the drift test.
    let cfg = golden_config();
    for (tag, g) in fixture_graphs() {
        for c in registry::all() {
            let path = golden_path(tag, c.name());
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue; // the drift test reports missing files
            };
            let header = golden_fingerprint(&text)
                .unwrap_or_else(|| panic!("{}: no fingerprint header", path.display()));
            let out = c.build(&g, &cfg).unwrap();
            assert_eq!(
                header,
                out.stream_fingerprint(),
                "{}: header fingerprint disagrees with the rebuilt stream",
                path.display()
            );
            let records: usize = text
                .lines()
                .find_map(|l| l.strip_prefix("# records="))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("{}: no records header", path.display()));
            let body = text.lines().filter(|l| !l.starts_with('#')).count();
            assert_eq!(records, body, "{}: record count header", path.display());
        }
    }
}

/// Stream fingerprints of the ruling-set constructions on
/// [`saturation_fixture`] under `raw_epsilon`, recorded when Task 1 still
/// searched from every center.
const SATURATION_FINGERPRINTS: [(&str, u64); 3] = [
    ("fast-centralized", 0xc374_362d_6f94_e597),
    ("spanner", 0xfd1c_ce09_49bc_5faf),
    ("em19", 0x0a47_98e8_c07b_dfdf),
];

/// Two components, one saturated and one not at `raw_epsilon`'s
/// `δ_1 = 22`. Vertices `0..3000` hold a connected G(n, p) of average
/// degree 10, whose every ball at depth 22 is the whole component.
/// Vertices `3000..4600` hold a 40 × 40 torus in which each vertex joins
/// every vertex within wrapped Manhattan distance 3 (degree 24, diameter
/// 14), so its searches stop short of the component.
fn saturation_fixture() -> Graph {
    const SIDE: usize = 40;
    const BASE: usize = 3000;
    let gnp = generators::gnp_connected(BASE, 10.0 / 2999.0, 7).expect("valid G(n, p)");
    let mut b = GraphBuilder::new(BASE + SIDE * SIDE);
    for (u, v) in gnp.edges() {
        b.add_edge(u, v).expect("G(n, p) edge");
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            for dr in -3i64..=3 {
                let reach = 3 - dr.abs();
                for dc in -reach..=reach {
                    if (dr, dc) == (0, 0) {
                        continue;
                    }
                    let wrap = |x: usize, d: i64| (x as i64 + d).rem_euclid(SIDE as i64) as usize;
                    let (r2, c2) = (wrap(r, dr), wrap(c, dc));
                    b.add_edge(BASE + r * SIDE + c, BASE + r2 * SIDE + c2)
                        .expect("torus edge");
                }
            }
        }
    }
    b.build()
}

#[test]
fn saturated_and_unsaturated_components_keep_their_streams() {
    // Phase 1 has 143 clusters: 89 in the G(n, p) component, all popular
    // without a search, and 54 in the torus, each searched. A shortcut
    // that skipped a torus center, or a search that ran for a G(n, p)
    // center, moves the count; one that misclassified moves the stream.
    let g = saturation_fixture();
    let cfg = BuildConfig {
        raw_epsilon: true,
        ..Default::default()
    };
    let worker = BuildConfig {
        shards: 2,
        transport: TransportKind::Channel,
        ..cfg.clone()
    };
    let (fast, fast_fingerprint) = SATURATION_FINGERPRINTS[0];
    let legs = SATURATION_FINGERPRINTS
        .iter()
        .map(|&(algo, fingerprint)| (algo, fingerprint, &cfg))
        .chain([(fast, fast_fingerprint, &worker)]);
    for (algo, fingerprint, config) in legs {
        let ctx = format!("{algo} ({} x{})", config.transport, config.shards);
        let out = registry::find(algo)
            .expect("registered construction")
            .build(&g, config)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(out.stream_fingerprint(), fingerprint, "{ctx}: stream moved");
        assert_eq!(
            out.stats.phases[1].explorations, 54,
            "{ctx}: phase-1 searches"
        );
    }
}
