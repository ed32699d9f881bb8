//! The multi-backend output seam: where a built structure *lives*.
//!
//! `BuildOutput.emulator` keeps its in-memory type — every existing
//! consumer stays untouched — but the [`OutputBackend`] trait lets an
//! output live somewhere other than this process's heap: the
//! [`HeapBackend`] wraps a live build, the [`SnapshotBackend`] decodes an
//! on-disk snapshot (see [`crate::cache`]), and the [`MappedBackend`]
//! serves a codec-v4 snapshot zero-copy from its mapping, all behind
//! `materialize()`.
//!
//! The contract mirrors the cache's: a backend's `stream_fingerprint`
//! identifies the exact insertion stream, so two backends holding "the
//! same" output can be compared without materializing either.

use crate::cache::{MappedSnapshot, Snapshot, SnapshotError};
use crate::emulator::Emulator;
use crate::oracle::EmStore;
use std::path::{Path, PathBuf};

/// A place a built emulator/spanner can live.
///
/// Cheap metadata (`num_vertices`, `num_edges`, `stream_fingerprint`) must
/// be available without materializing; `materialize` produces the live
/// in-memory [`Emulator`] on demand.
pub trait OutputBackend {
    /// Short backend tag for reports (`"heap"`, `"snapshot"`).
    fn kind(&self) -> &'static str;

    /// Registry name of the construction that produced the output.
    fn algorithm(&self) -> &str;

    /// Vertex count, without materializing.
    fn num_vertices(&self) -> usize;

    /// Distinct-edge count, without materializing.
    fn num_edges(&self) -> usize;

    /// Fingerprint of the exact insertion stream (the identity of the
    /// output; see [`crate::emulator::stream_fingerprint`]).
    fn stream_fingerprint(&self) -> u64;

    /// Certified stretch pair `(α, β)` of the stored output, when the
    /// producing construction certified one — this is what lets a
    /// [`QueryEngine`](crate::oracle::QueryEngine) opened over a backend
    /// serve *certified* answers without re-running the construction.
    fn certified(&self) -> Option<(f64, f64)> {
        None
    }

    /// Produces the live in-memory emulator.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a persistent backend cannot be read back
    /// (the heap backend is infallible).
    fn materialize(&self) -> Result<Emulator, SnapshotError>;

    /// Produces the store a [`QueryEngine`](crate::oracle::QueryEngine)
    /// holds for answering queries. The default materializes onto the heap
    /// — correct for every backend. Out-of-core backends
    /// ([`MappedBackend`]) override this to serve the structure straight
    /// from the mapped snapshot file, so opening an engine never copies the
    /// emulator into process memory; answers are byte-identical either way
    /// (distances are unique functions of the stored structure).
    ///
    /// # Errors
    ///
    /// Same contract as [`OutputBackend::materialize`].
    fn serve(&self) -> Result<EmStore, SnapshotError> {
        Ok(EmStore::Heap(self.materialize()?))
    }
}

/// The default backend: the output already lives on this process's heap.
#[derive(Debug, Clone)]
pub struct HeapBackend {
    emulator: Emulator,
    algorithm: String,
    fingerprint: u64,
    certified: Option<(f64, f64)>,
}

impl HeapBackend {
    /// Wraps a live emulator (fingerprint computed once, up front).
    pub fn new(emulator: Emulator, algorithm: impl Into<String>) -> Self {
        let fingerprint = crate::emulator::stream_fingerprint(emulator.provenance());
        HeapBackend {
            emulator,
            algorithm: algorithm.into(),
            fingerprint,
            certified: None,
        }
    }

    /// Wraps a build result, carrying its certified stretch pair so an
    /// engine opened over this backend serves certified answers.
    pub fn from_output(out: &crate::api::BuildOutput) -> Self {
        HeapBackend::new(out.emulator.clone(), out.algorithm).with_certified(out.certified)
    }

    /// Attaches (or clears) the certified `(α, β)` pair.
    pub fn with_certified(mut self, certified: Option<(f64, f64)>) -> Self {
        self.certified = certified;
        self
    }

    /// The wrapped emulator, by reference (no materialization cost).
    pub fn emulator(&self) -> &Emulator {
        &self.emulator
    }
}

impl OutputBackend for HeapBackend {
    fn kind(&self) -> &'static str {
        "heap"
    }

    fn algorithm(&self) -> &str {
        &self.algorithm
    }

    fn num_vertices(&self) -> usize {
        self.emulator.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.emulator.num_edges()
    }

    fn stream_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn certified(&self) -> Option<(f64, f64)> {
        self.certified
    }

    fn materialize(&self) -> Result<Emulator, SnapshotError> {
        Ok(self.emulator.clone())
    }
}

/// A backend over one on-disk snapshot file: metadata is held from the
/// (verified) decode at open time; `materialize` re-reads and re-verifies
/// the file, so a backend held across processes never trusts stale bytes.
#[derive(Debug, Clone)]
pub struct SnapshotBackend {
    path: PathBuf,
    algorithm: String,
    num_vertices: usize,
    num_edges: usize,
    fingerprint: u64,
    certified: Option<(f64, f64)>,
}

impl SnapshotBackend {
    /// Opens and fully verifies a snapshot file, keeping only its metadata
    /// (the decoded records are dropped — this is the low-memory handle).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from the decode.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let path = path.into();
        let snap = Snapshot::decode(&std::fs::read(&path)?)?;
        // Distinct-edge count without materializing the adjacency
        // structure: the records are already canonicalized (u <= v), so
        // sort + dedup on the pairs is the whole computation.
        let mut pairs: Vec<(usize, usize)> = snap.records.iter().map(|(e, _)| (e.u, e.v)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let num_edges = pairs.len();
        Ok(SnapshotBackend {
            algorithm: snap.key.algorithm.clone(),
            num_vertices: snap.num_vertices,
            num_edges,
            fingerprint: snap.stream_fingerprint,
            certified: snap.certified,
            path,
        })
    }

    /// The snapshot file this backend reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl OutputBackend for SnapshotBackend {
    fn kind(&self) -> &'static str {
        "snapshot"
    }

    fn algorithm(&self) -> &str {
        &self.algorithm
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn stream_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn certified(&self) -> Option<(f64, f64)> {
        self.certified
    }

    fn materialize(&self) -> Result<Emulator, SnapshotError> {
        let snap = Snapshot::decode(&std::fs::read(&self.path)?)?;
        if snap.stream_fingerprint != self.fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                stored: self.fingerprint,
                recomputed: snap.stream_fingerprint,
            });
        }
        Ok(snap.rebuild_emulator())
    }
}

/// The out-of-core backend: a [`MappedSnapshot`] handle over a codec-v4
/// snapshot file. Metadata comes from the section directory at open time
/// (the record stream is never decoded); `serve()` hands a
/// [`QueryEngine`](crate::oracle::QueryEngine) the mapped emulator CSR
/// section directly, so query serving holds no heap copy of the
/// structure. `materialize()` still works — it fully decodes the file —
/// for consumers that genuinely need a live [`Emulator`].
#[derive(Debug)]
pub struct MappedBackend {
    snap: MappedSnapshot,
}

impl MappedBackend {
    /// Maps and structurally validates a codec-v4 snapshot file.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from [`MappedSnapshot::open`] — including
    /// [`SnapshotError::UnsupportedVersion`] for pre-v4 files, which have
    /// no section directory to serve from (decode them and re-encode, or
    /// use [`SnapshotBackend`]).
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        Ok(MappedBackend {
            snap: MappedSnapshot::open(path.into())?,
        })
    }

    /// The underlying mapped snapshot handle.
    pub fn snapshot(&self) -> &MappedSnapshot {
        &self.snap
    }

    /// The snapshot file this backend serves from.
    pub fn path(&self) -> &Path {
        self.snap.path()
    }
}

impl OutputBackend for MappedBackend {
    fn kind(&self) -> &'static str {
        "mapped"
    }

    fn algorithm(&self) -> &str {
        &self.snap.key().algorithm
    }

    fn num_vertices(&self) -> usize {
        self.snap.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.snap.num_edges()
    }

    fn stream_fingerprint(&self) -> u64 {
        self.snap.stream_fingerprint()
    }

    fn certified(&self) -> Option<(f64, f64)> {
        self.snap.certified()
    }

    fn materialize(&self) -> Result<Emulator, SnapshotError> {
        let full = Snapshot::decode(&std::fs::read(self.snap.path())?)?;
        if full.stream_fingerprint != self.snap.stream_fingerprint() {
            return Err(SnapshotError::FingerprintMismatch {
                stored: self.snap.stream_fingerprint(),
                recomputed: full.stream_fingerprint,
            });
        }
        Ok(full.rebuild_emulator())
    }

    fn serve(&self) -> Result<EmStore, SnapshotError> {
        Ok(EmStore::Mapped(self.snap.emulator()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, BuildConfig};
    use crate::cache::CacheKey;
    use usnae_graph::generators;

    #[test]
    fn heap_and_snapshot_backends_agree() {
        let g = generators::gnp_connected(50, 0.12, 4).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("usnae-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.usnae");
        let key = CacheKey::new(&g, c.name(), &cfg);
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        let heap = HeapBackend::from_output(&out);
        let disk = SnapshotBackend::open(&path).unwrap();
        for b in [&heap as &dyn OutputBackend, &disk] {
            assert_eq!(b.algorithm(), "centralized");
            assert_eq!(b.num_vertices(), out.emulator.num_vertices());
            assert_eq!(b.num_edges(), out.num_edges());
            assert_eq!(b.stream_fingerprint(), out.stream_fingerprint());
            assert_eq!(b.certified(), out.certified, "{}", b.kind());
            let live = b.materialize().unwrap();
            assert_eq!(live.provenance(), out.emulator.provenance(), "{}", b.kind());
        }
        assert!(out.certified.is_some(), "centralized certifies a pair");
        assert_eq!(heap.kind(), "heap");
        assert_eq!(disk.kind(), "snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_backend_agrees_with_heap_and_serves_without_materializing() {
        let g = generators::gnp_connected(60, 0.1, 11).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("usnae-backend-map-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.usnae");
        let key = CacheKey::new(&g, c.name(), &cfg);
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        let heap = HeapBackend::from_output(&out);
        let mapped = MappedBackend::open(&path).unwrap();
        assert_eq!(mapped.kind(), "mapped");
        assert_eq!(mapped.algorithm(), heap.algorithm());
        assert_eq!(mapped.num_vertices(), heap.num_vertices());
        assert_eq!(mapped.num_edges(), heap.num_edges());
        assert_eq!(mapped.stream_fingerprint(), heap.stream_fingerprint());
        assert_eq!(mapped.certified(), heap.certified());
        let live = mapped.materialize().unwrap();
        assert_eq!(live.provenance(), out.emulator.provenance());

        // Serving: the engine holds the mapped CSR, not a heap emulator,
        // and answers are byte-identical to the heap-backed engine's.
        let heap_engine = crate::oracle::QueryEngine::open(&heap).unwrap();
        let map_engine = crate::oracle::QueryEngine::open(&mapped).unwrap();
        assert!(heap_engine.emulator().is_some());
        assert!(map_engine.emulator().is_none(), "no heap copy when mapped");
        assert_eq!(map_engine.num_vertices(), heap_engine.num_vertices());
        assert_eq!(map_engine.num_edges(), heap_engine.num_edges());
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 30, 3) {
            assert_eq!(map_engine.distance(u, v), heap_engine.distance(u, v));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_backend_rejects_rot_on_materialize() {
        let g = generators::grid2d(5, 5).unwrap();
        let cfg = BuildConfig::default();
        let c = Algorithm::Centralized.construction();
        let out = c.build(&g, &cfg).unwrap();

        let dir = std::env::temp_dir().join(format!("usnae-backend-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.usnae");
        let key = CacheKey::new(&g, c.name(), &cfg);
        std::fs::write(&path, Snapshot::from_output(key, &out).encode()).unwrap();

        let backend = SnapshotBackend::open(&path).unwrap();
        // Rot the file after open: the handle's metadata is stale now.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(backend.materialize().is_err(), "rot must not materialize");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
