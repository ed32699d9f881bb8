//! Snapshot codec back-compat: golden v2 and v3 files decode under the
//! v4 codec.
//!
//! The cache's compatibility promise (`MIN_VERSION = 2`) says entries
//! written by older releases keep serving after an upgrade. These tests
//! pin that promise to *actual committed bytes*: genuine version-2 and
//! version-3 files live in `tests/data/`, and every release must keep
//! decoding them to the same semantic snapshot the deterministic rebuild
//! produces today — key, stream, records, certification — with the
//! version-appropriate defaults for fields the old layouts predate
//! (v2 has no transport tail, so it decodes as an inproc build with no
//! message stats).
//!
//! The fixtures are regenerated only after an *intentional* stream or
//! codec change:
//!
//! ```text
//! USNAE_REGEN_GOLDEN=1 cargo test --test snapshot_backcompat
//! git add tests/data && git commit
//! ```
//!
//! (Timings embedded in the STATS section change on regen — that is
//! expected; the tests never compare them.)

mod common;

use common::{fixture_graphs, golden_config};
use std::path::PathBuf;
use usnae::api::{BuildConfig, BuildStats, PartitionPolicy, TransportKind};
use usnae::core::cache::{CacheKey, Snapshot, MIN_VERSION, SECTION_EMU_CSR, VERSION};
use usnae::core::emulator::stream_fingerprint;
use usnae::core::{EdgeKind, EdgeProvenance};
use usnae::graph::metrics::Fnv64;
use usnae::graph::WeightedEdge;
use usnae::registry;

fn regen_requested() -> bool {
    std::env::var("USNAE_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

fn fixture_path(tag: &str, algo: &str, version: u32) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{tag}.{algo}.v{version}.usnae-snap"))
}

/// The legacy fixture matrix: one single-stream v2 file and one v3 file
/// whose transport tail actually carries worker-pool message stats.
fn fixture_cases() -> Vec<(&'static str, &'static str, u32, BuildConfig)> {
    vec![
        ("grid8x8", "centralized", 2, golden_config()),
        (
            "ring48",
            "centralized",
            3,
            BuildConfig {
                shards: 2,
                partition: PartitionPolicy::DegreeBalanced,
                transport: TransportKind::Channel,
                ..golden_config()
            },
        ),
    ]
}

/// Rebuilds the snapshot a fixture was generated from. Constructions are
/// pure functions of `(graph, config)`, so everything except wall-clock
/// stats is reproducible at any commit.
fn rebuild(tag: &str, algo: &str, cfg: &BuildConfig) -> Snapshot {
    let (_, g) = fixture_graphs()
        .into_iter()
        .find(|(t, _)| *t == tag)
        .unwrap_or_else(|| panic!("unknown fixture graph {tag}"));
    let c = registry::find(algo).unwrap_or_else(|| panic!("unknown algorithm {algo}"));
    let out = c
        .build(&g, cfg)
        .unwrap_or_else(|e| panic!("{algo} on {tag}: {e}"));
    Snapshot::from_output(CacheKey::new(&g, algo, cfg), &out)
}

/// Field-wise equality on everything a legacy file is required to
/// preserve — all semantic content; never the embedded timings.
fn assert_semantically_equal(decoded: &Snapshot, want: &Snapshot, what: &str) {
    assert_eq!(decoded.key, want.key, "{what}: cache key");
    assert_eq!(
        decoded.stream_fingerprint, want.stream_fingerprint,
        "{what}: stream fingerprint"
    );
    assert_eq!(decoded.num_vertices, want.num_vertices, "{what}: n");
    assert_eq!(decoded.records, want.records, "{what}: insertion records");
    assert_eq!(decoded.certified, want.certified, "{what}: certified pair");
    assert_eq!(decoded.size_bound, want.size_bound, "{what}: size bound");
    assert_eq!(decoded.congest, want.congest, "{what}: congest stats");
}

#[test]
fn golden_v2_and_v3_snapshots_decode_under_the_v4_codec() {
    for (tag, algo, version, cfg) in fixture_cases() {
        assert!((MIN_VERSION..VERSION).contains(&version));
        let want = rebuild(tag, algo, &cfg);
        let path = fixture_path(tag, algo, version);
        if regen_requested() {
            std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/data");
            std::fs::write(&path, want.encode_version(version))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); regenerate with \
                 `USNAE_REGEN_GOLDEN=1 cargo test --test snapshot_backcompat` \
                 and commit tests/data",
                path.display()
            )
        });
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            version,
            "{}: fixture does not carry the version it claims",
            path.display()
        );
        let decoded = Snapshot::decode(&bytes).unwrap_or_else(|e| {
            panic!(
                "golden v{version} snapshot {} no longer decodes: {e}",
                path.display()
            )
        });
        assert_semantically_equal(&decoded, &want, &format!("{tag}.{algo}.v{version}"));
        match version {
            // v2 predates worker transports: the decoder must default the
            // tail, not invent one.
            2 => {
                assert_eq!(decoded.stats.transport, TransportKind::Inproc);
                assert!(decoded.stats.messages.is_none());
            }
            // v3 carries the transport tail; this fixture was a channel
            // worker-pool build, so its message stats must survive.
            3 => {
                assert_eq!(decoded.stats.transport, TransportKind::Channel);
                assert!(
                    decoded.stats.messages.is_some(),
                    "v3 fixture lost its worker message stats"
                );
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn legacy_snapshots_reencode_to_v4_and_round_trip() {
    // The upgrade path a long-lived cache directory takes: decode an old
    // entry, re-encode at the current version (gaining the section
    // directory and the EMU_CSR serving image), decode again. Nothing
    // semantic may change, and the re-encoded file must pass the v4
    // decoder's stricter checks (directory bounds, EMU recomputation).
    for (tag, algo, version, _cfg) in fixture_cases() {
        let path = fixture_path(tag, algo, version);
        let Ok(bytes) = std::fs::read(&path) else {
            continue; // the decode test reports missing fixtures
        };
        let decoded = Snapshot::decode(&bytes).expect("fixture decodes");
        let reencoded = decoded.encode();
        assert_eq!(
            u32::from_le_bytes(reencoded[8..12].try_into().unwrap()),
            VERSION,
            "re-encode must produce the current version"
        );
        let round = Snapshot::decode(&reencoded)
            .unwrap_or_else(|e| panic!("v{version}->v4 re-encode of {tag}.{algo} broke: {e}"));
        assert_eq!(
            round, decoded,
            "{tag}.{algo}: v{version}->v4 round trip changed the snapshot"
        );
    }
}

#[test]
fn legacy_reencode_at_same_version_is_byte_stable() {
    // decode ∘ encode is the identity on the legacy layouts too: decoding
    // an old file and re-encoding it at its own version reproduces the
    // committed bytes exactly. This pins the legacy writers, so the
    // fixtures cannot silently drift out of reach of `encode_version`.
    for (tag, algo, version, _cfg) in fixture_cases() {
        let path = fixture_path(tag, algo, version);
        let Ok(bytes) = std::fs::read(&path) else {
            continue; // the decode test reports missing fixtures
        };
        let decoded = Snapshot::decode(&bytes).expect("fixture decodes");
        assert_eq!(
            decoded.encode_version(version),
            bytes,
            "{tag}.{algo}: encode_version({version}) no longer reproduces the \
             committed fixture byte-for-byte"
        );
    }
}

/// FNV-64 digests of the v4 `EMU_CSR` section built from each committed
/// golden record stream (`tests/data/*.stream`) and from
/// [`heavier_then_lighter`]. No v4 fixture is committed, and decode
/// checks the section against a recomputation by the very builder that
/// wrote it, so a drift of the layout (row order, the lighter-weight
/// rule, the header words) would pass every round trip: these digests
/// are what pin the bytes.
const EMU_CSR_DIGESTS: [(&str, u64); 19] = [
    ("grid8x8.centralized.stream", 0xf3a64d2646835d35),
    ("grid8x8.distributed-spanner.stream", 0xde9349fdf1a7b8ad),
    ("grid8x8.distributed.stream", 0xa20d37a7c5e2a35c),
    ("grid8x8.em19.stream", 0xde9349fdf1a7b8ad),
    ("grid8x8.en17a.stream", 0x3ef895aacfddaa11),
    ("grid8x8.ep01.stream", 0xf3a64d2646835d35),
    ("grid8x8.fast-centralized.stream", 0xa20d37a7c5e2a35c),
    ("grid8x8.spanner.stream", 0xde9349fdf1a7b8ad),
    ("grid8x8.tz06.stream", 0x8c2a0274774190ea),
    ("ring48.centralized.stream", 0x8ecccafaad076ae2),
    ("ring48.distributed-spanner.stream", 0xeee9365d3db1d0e2),
    ("ring48.distributed.stream", 0x8ecccafaad076ae2),
    ("ring48.em19.stream", 0xe719b56990d738fe),
    ("ring48.en17a.stream", 0x0065bbe7991aac17),
    ("ring48.ep01.stream", 0x06ff9e8da5ef5817),
    ("ring48.fast-centralized.stream", 0x8ecccafaad076ae2),
    ("ring48.spanner.stream", 0xe719b56990d738fe),
    ("ring48.tz06.stream", 0xa6dc2fbc1b0be4bd),
    ("heavier-then-lighter", 0x7a1608dae11c4a6c),
];

/// A synthetic stream no golden stream covers: pairs repeated heavier
/// and lighter, in both orientations, with an isolated vertex (4).
fn heavier_then_lighter() -> (usize, Vec<(WeightedEdge, EdgeProvenance)>) {
    let prov = EdgeProvenance {
        phase: 0,
        kind: EdgeKind::Interconnection,
        charged_to: 0,
    };
    let stream = [
        (1, 0, 9),
        (0, 1, 3),
        (2, 3, 5),
        (3, 2, 7),
        (0, 3, 2),
        (1, 2, 4),
        (2, 1, 1),
    ];
    let records = stream
        .iter()
        .map(|&(u, v, w)| (WeightedEdge::new(u, v, w), prov))
        .collect();
    (5, records)
}

/// Parses a golden stream file: its `n=` header and its
/// `u v w phase kind charged_to` records.
fn parse_stream(text: &str) -> (usize, Vec<(WeightedEdge, EdgeProvenance)>) {
    let n = text
        .lines()
        .find_map(|l| l.strip_prefix("# graph="))
        .and_then(|l| l.split_whitespace().find_map(|f| f.strip_prefix("n=")))
        .and_then(|n| n.parse().ok())
        .expect("stream header carries n=");
    let records = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<u64> = l.split_whitespace().map(|x| x.parse().unwrap()).collect();
            let edge = WeightedEdge::new(f[0] as usize, f[1] as usize, f[2]);
            let kind = EdgeKind::from_code(f[4] as u8).expect("valid kind");
            let prov = EdgeProvenance {
                phase: f[3] as usize,
                kind,
                charged_to: f[5] as usize,
            };
            (edge, prov)
        })
        .collect();
    (n, records)
}

/// FNV-64 of the `EMU_CSR` section of the v4 encoding of `records`,
/// located through the section directory (16-byte header, then one
/// `id, offset, length` entry per section). The encoding must decode.
fn emu_csr_digest(n: usize, records: Vec<(WeightedEdge, EdgeProvenance)>) -> u64 {
    let snap = Snapshot {
        key: CacheKey {
            graph_fingerprint: 0,
            algorithm: "pinned".into(),
            config_digest: 0,
        },
        stream_fingerprint: stream_fingerprint(&records),
        num_vertices: n,
        records,
        certified: None,
        size_bound: None,
        congest: None,
        stats: BuildStats::default(),
    };
    let bytes = snap.encode();
    Snapshot::decode(&bytes).expect("the encoding decodes");
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let entry = (0..5)
        .map(|i| 16 + 24 * i)
        .find(|&at| word(at) == SECTION_EMU_CSR as usize)
        .expect("directory lists EMU_CSR");
    let (offset, len) = (word(entry + 8), word(entry + 16));
    let mut h = Fnv64::new();
    h.write_bytes(&bytes[offset..offset + len]);
    h.finish()
}

#[test]
fn emu_csr_section_bytes_are_pinned() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/data")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".stream"))
        .collect();
    names.sort();
    let mut got: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap();
            let (n, records) = parse_stream(&text);
            (name, emu_csr_digest(n, records))
        })
        .collect();
    let (n, records) = heavier_then_lighter();
    got.push(("heavier-then-lighter".into(), emu_csr_digest(n, records)));
    let want: Vec<(String, u64)> = EMU_CSR_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(got, want, "EMU_CSR section bytes drifted");
}
