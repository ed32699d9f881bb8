//! Storage seam for CSR adjacency arrays.
//!
//! Every CSR consumer in the workspace reads graphs through two flat
//! arrays: a row-offset table and a concatenated adjacency list. The
//! [`AdjStorage`] trait abstracts *where those arrays live* so the same
//! construction and query code runs over a heap-owned graph
//! ([`HeapAdj`], today's default, byte-identical to the pre-seam
//! layout) or over a file-backed graph ([`MappedAdj`]) whose pages are
//! faulted in on demand and never copied onto the heap.
//!
//! File backing uses [`ByteMap`]: a read-only `mmap(2)` of the file via
//! a thin zero-dependency `extern "C"` binding on 64-bit little-endian
//! Unix targets, with a portable paged-read fallback (bounded
//! fixed-size reads into an 8-byte-aligned buffer) everywhere else or
//! when `USNAE_NO_MMAP` is set.
//!
//! The on-disk format is the fixed-layout CSR file written by
//! [`write_csr_file`] / [`CsrShardFile`]: a little-endian header, the
//! `u64` offset table, then the `u64` adjacency array, all 8-byte
//! aligned, with a trailing-in-header FNV-1a checksum over the payload.

use crate::graph::VertexId;
use crate::metrics::Fnv64;
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Read seam over the two flat CSR arrays.
///
/// Implementations must present the offset table (`num_vertices + 1`
/// entries, monotone, `offsets[0] == 0`) and the adjacency array
/// (`offsets[n]` entries) as plain slices; everything downstream —
/// `GraphCore::neighbors`, shard builds, exploration kernels — slices
/// into these. `Sync` is required because builds fan out across scoped
/// threads sharing one storage reference.
pub trait AdjStorage: Sync {
    /// Row-offset table: `offsets()[v]..offsets()[v + 1]` spans vertex
    /// `v`'s neighbor list in `adjacency()`.
    fn offsets(&self) -> &[usize];
    /// Concatenated, per-row-sorted neighbor lists.
    fn adjacency(&self) -> &[VertexId];
}

/// Heap-owned CSR arrays — the default storage, identical to the
/// pre-seam `Graph` layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeapAdj {
    pub(crate) offsets: Vec<usize>,
    pub(crate) adjacency: Vec<VertexId>,
}

impl HeapAdj {
    pub(crate) fn new(offsets: Vec<usize>, adjacency: Vec<VertexId>) -> Self {
        HeapAdj { offsets, adjacency }
    }
}

impl AdjStorage for HeapAdj {
    fn offsets(&self) -> &[usize] {
        &self.offsets
    }
    fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }
}

/// Typed failures when opening or validating a CSR storage file.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem or syscall failure.
    Io(io::Error),
    /// File too short or magic bytes wrong — not a CSR file.
    NotACsrFile { path: PathBuf },
    /// Header fields disagree with the file length.
    Truncated {
        path: PathBuf,
        expected: u64,
        actual: u64,
    },
    /// Offset table is not monotone or does not cover the adjacency.
    BadOffsets { path: PathBuf, index: usize },
    /// Payload checksum mismatch.
    Checksum {
        path: PathBuf,
        expected: u64,
        actual: u64,
    },
    /// Sharded-CSR manifest is malformed.
    BadManifest { path: PathBuf, detail: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "csr storage i/o error: {e}"),
            StorageError::NotACsrFile { path } => {
                write!(f, "{} is not a usnae CSR file (bad magic)", path.display())
            }
            StorageError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: header declares {expected} bytes but file has {actual}",
                path.display()
            ),
            StorageError::BadOffsets { path, index } => write!(
                f,
                "{}: offset table broken at index {index} (non-monotone or out of range)",
                path.display()
            ),
            StorageError::Checksum {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: payload checksum mismatch (expected {expected:#018x}, got {actual:#018x})",
                path.display()
            ),
            StorageError::BadManifest { path, detail } => {
                write!(f, "{}: bad sharded-CSR manifest: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// ByteMap: read-only, 8-byte-aligned view of a whole file.
// ---------------------------------------------------------------------------

/// True when the zero-copy word view is the native layout: `u64` words
/// read from a little-endian file can be reinterpreted as `usize`.
const ZERO_COPY: bool = cfg!(all(target_endian = "little", target_pointer_width = "64"));

#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

enum Backing {
    /// Read-only private mapping. The pointer is valid for `len` bytes
    /// for the lifetime of the variant; pages fault in on access and
    /// are evictable, so resident set stays bounded by touch pattern.
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    Mapped { ptr: *mut u8, len: usize },
    /// Portable fallback: the file read in bounded fixed-size chunks
    /// into an 8-aligned buffer (`Vec<u64>` guarantees alignment).
    Paged { words: Vec<u64>, len: usize },
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated after
// construction; concurrent reads of immutable memory are safe.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, len } = *self {
            // SAFETY: ptr/len came from a successful mmap and are
            // unmapped exactly once, here.
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

/// Read-only, 8-byte-aligned byte view of a file.
///
/// On 64-bit little-endian Unix this is an `mmap(2)` of the file
/// (zero-copy, demand-paged); elsewhere — or when the `USNAE_NO_MMAP`
/// environment variable is set — the file is read once in bounded
/// chunks into an aligned heap buffer.
pub struct ByteMap {
    backing: Backing,
}

impl fmt::Debug for ByteMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteMap")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl ByteMap {
    /// Map `path` read-only, preferring `mmap` where available.
    pub fn open(path: &Path) -> Result<ByteMap, StorageError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "file exceeds usize",
            ))
        })?;
        if len == 0 {
            return Ok(ByteMap {
                backing: Backing::Paged {
                    words: Vec::new(),
                    len: 0,
                },
            });
        }
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        if std::env::var_os("USNAE_NO_MMAP").is_none() {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is open for reading, len > 0, and the
            // resulting mapping is released in Drop.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != usize::MAX as *mut std::os::raw::c_void && !ptr.is_null() {
                return Ok(ByteMap {
                    backing: Backing::Mapped {
                        ptr: ptr.cast(),
                        len,
                    },
                });
            }
            // mmap refused (unusual filesystem, resource limit):
            // fall through to the paged reader.
        }
        let mut file = file;
        let words = read_paged(&mut file, len)?;
        Ok(ByteMap {
            backing: Backing::Paged { words, len },
        })
    }

    /// Force the portable paged reader (used by tests to cover the
    /// non-mmap arm on every platform).
    pub fn open_paged(path: &Path) -> Result<ByteMap, StorageError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "file exceeds usize",
            ))
        })?;
        let words = read_paged(&mut file, len)?;
        Ok(ByteMap {
            backing: Backing::Paged { words, len },
        })
    }

    /// Number of valid bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            Backing::Mapped { len, .. } => *len,
            Backing::Paged { len, .. } => *len,
        }
    }

    /// True when the file has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when backed by a live memory mapping (vs the paged copy).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            Backing::Mapped { .. } => true,
            Backing::Paged { .. } => false,
        }
    }

    /// The raw file bytes. Always 8-byte aligned at index 0.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            Backing::Mapped { ptr, len } => {
                // SAFETY: mapping is valid for len bytes and read-only.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Paged { words, len } => {
                // SAFETY: words owns at least ceil(len / 8) * 8 bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), *len) }
            }
        }
    }

    /// Little-endian `u64` at byte offset `at` (must be in bounds).
    pub fn u64_at(&self, at: usize) -> u64 {
        let b = &self.bytes()[at..at + 8];
        u64::from_le_bytes(b.try_into().unwrap())
    }

    /// The little-endian `u64` array at byte range `at` (8-aligned, a
    /// multiple of 8 long) as native words: borrowed straight from the
    /// file on little-endian targets, decoded into a copy elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `at` is out of bounds or not 8-aligned.
    pub fn u64_words(&self, at: std::ops::Range<usize>) -> Cow<'_, [u64]> {
        let bytes = &self.bytes()[at];
        assert!(
            bytes.len().is_multiple_of(8) && (bytes.as_ptr() as usize).is_multiple_of(8),
            "u64 word range must be 8-aligned"
        );
        if cfg!(target_endian = "little") {
            // SAFETY: alignment and length checked above; a little-endian
            // u64 is the native layout here.
            Cow::Borrowed(unsafe {
                std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8)
            })
        } else {
            Cow::Owned(
                bytes
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                    .collect(),
            )
        }
    }
}

fn read_paged(file: &mut File, len: usize) -> Result<Vec<u64>, StorageError> {
    // Bounded chunked reads: never issues one giant read, and the
    // Vec<u64> backing guarantees 8-byte alignment for word views.
    const CHUNK: usize = 4 << 20;
    let words = len.div_ceil(8);
    let mut buf = vec![0u64; words];
    // SAFETY: buf owns words * 8 writable bytes.
    let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), words * 8) };
    file.seek(SeekFrom::Start(0))?;
    let mut pos = 0;
    while pos < len {
        let end = (pos + CHUNK).min(len);
        file.read_exact(&mut bytes[pos..end])?;
        pos = end;
    }
    Ok(buf)
}

/// Reinterpret an 8-aligned little-endian byte range as `&[usize]`.
/// Only callable on targets where that is the native layout.
fn cast_words(bytes: &[u8]) -> &[usize] {
    // Runtime (not const) assert: the function must still *compile* on
    // big-endian/32-bit targets, where callers take the decode path.
    #[allow(clippy::assertions_on_constants)]
    {
        debug_assert!(ZERO_COPY);
    }
    debug_assert_eq!(bytes.len() % 8, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    // SAFETY: alignment and length checked above; on little-endian
    // 64-bit targets usize has the same layout as the stored u64 LE.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<usize>(), bytes.len() / 8) }
}

/// Decode a little-endian `u64` section into native `usize`s (the
/// non-zero-copy fallback for big-endian or 32-bit targets).
fn decode_words(bytes: &[u8]) -> Result<Vec<usize>, StorageError> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    for chunk in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        let v = usize::try_from(w).map_err(|_| {
            StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "value exceeds usize",
            ))
        })?;
        out.push(v);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// File-backed CSR storage.
// ---------------------------------------------------------------------------

/// File layout of a whole-graph CSR file (`*.csr`), all fields `u64` LE:
///
/// | bytes    | field                                  |
/// |----------|----------------------------------------|
/// | 0..8     | magic `b"USNAECS1"`                    |
/// | 8..16    | `num_vertices` (n)                     |
/// | 16..24   | `num_edges` (m, undirected)            |
/// | 24..32   | FNV-1a checksum of bytes `32..EOF`     |
/// | 32..     | offsets: `(n + 1) × u64`               |
/// | then     | adjacency: `2m × u64`                  |
pub const CSR_MAGIC: [u8; 8] = *b"USNAECS1";
/// Header length of a whole-graph CSR file.
pub const CSR_HEADER: usize = 32;

/// File-backed CSR storage: offsets and adjacency served straight from
/// a [`ByteMap`] over a [`CSR_MAGIC`] file (zero-copy on 64-bit
/// little-endian targets, decoded once elsewhere).
pub struct MappedAdj {
    map: ByteMap,
    /// Byte range of the offset table inside `map`.
    off: std::ops::Range<usize>,
    /// Byte range of the adjacency array inside `map`.
    adj: std::ops::Range<usize>,
    /// Decoded copies for targets where zero-copy casts are unsound.
    decoded: Option<(Vec<usize>, Vec<VertexId>)>,
}

impl fmt::Debug for MappedAdj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedAdj")
            .field("offsets", &(self.off.len() / 8))
            .field("adjacency", &(self.adj.len() / 8))
            .field("mapped", &self.map.is_mapped())
            .finish()
    }
}

impl AdjStorage for MappedAdj {
    fn offsets(&self) -> &[usize] {
        match &self.decoded {
            Some((o, _)) => o,
            None => cast_words(&self.map.bytes()[self.off.clone()]),
        }
    }
    fn adjacency(&self) -> &[VertexId] {
        match &self.decoded {
            Some((_, a)) => a,
            None => cast_words(&self.map.bytes()[self.adj.clone()]),
        }
    }
}

impl MappedAdj {
    /// Open a whole-graph CSR file and validate its structure: magic,
    /// length arithmetic, and a monotone offset table covering the
    /// adjacency. The payload checksum is *not* verified here (that
    /// would fault in every page); call [`MappedAdj::verify`].
    /// Returns the storage plus `(num_vertices, num_edges)`.
    pub fn open(path: &Path) -> Result<(MappedAdj, usize, usize), StorageError> {
        let map = ByteMap::open(path)?;
        Self::from_map(map, path)
    }

    /// As [`MappedAdj::open`] but forcing the paged (non-mmap) reader.
    pub fn open_paged(path: &Path) -> Result<(MappedAdj, usize, usize), StorageError> {
        let map = ByteMap::open_paged(path)?;
        Self::from_map(map, path)
    }

    fn from_map(map: ByteMap, path: &Path) -> Result<(MappedAdj, usize, usize), StorageError> {
        if map.len() < CSR_HEADER || map.bytes()[..8] != CSR_MAGIC {
            return Err(StorageError::NotACsrFile {
                path: path.to_path_buf(),
            });
        }
        let n = map.u64_at(8) as usize;
        let m = map.u64_at(16) as usize;
        let off_len = (n + 1) * 8;
        let adj_len = 2 * m * 8;
        let expected = (CSR_HEADER + off_len + adj_len) as u64;
        if map.len() as u64 != expected {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected,
                actual: map.len() as u64,
            });
        }
        let off = CSR_HEADER..CSR_HEADER + off_len;
        let adj = off.end..off.end + adj_len;
        let adj_words = adj_len / 8;
        // Structural validation so neighbor slicing can never go out
        // of bounds: one sequential pass over the offset table.
        let mut prev = 0u64;
        for (i, chunk) in map.bytes()[off.clone()].chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(chunk.try_into().unwrap());
            let bad = (i == 0 && w != 0) || w < prev || w > adj_words as u64;
            if bad {
                return Err(StorageError::BadOffsets {
                    path: path.to_path_buf(),
                    index: i,
                });
            }
            prev = w;
        }
        if prev != adj_words as u64 {
            return Err(StorageError::BadOffsets {
                path: path.to_path_buf(),
                index: n,
            });
        }
        let decoded = if ZERO_COPY {
            None
        } else {
            Some((
                decode_words(&map.bytes()[off.clone()])?,
                decode_words(&map.bytes()[adj.clone()])?,
            ))
        };
        Ok((
            MappedAdj {
                map,
                off,
                adj,
                decoded,
            },
            n,
            m,
        ))
    }

    /// Full payload checksum verification (touches every page once).
    pub fn verify(&self, path: &Path) -> Result<(), StorageError> {
        let expected = self.map.u64_at(24);
        let mut h = Fnv64::new();
        h.write_bytes(&self.map.bytes()[CSR_HEADER..]);
        let actual = h.finish();
        if actual != expected {
            return Err(StorageError::Checksum {
                path: path.to_path_buf(),
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// True when served by a live memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }
}

/// Write a whole-graph CSR file for the given arrays.
///
/// Streams the payload through a buffered writer, then re-reads it in
/// bounded chunks to compute the checksum and patches the header —
/// nothing graph-sized is buffered.
pub fn write_csr_file(
    path: &Path,
    num_edges: usize,
    offsets: &[usize],
    adjacency: &[VertexId],
) -> Result<(), StorageError> {
    let n = offsets.len() - 1;
    let mut w = io::BufWriter::new(create_rw(path)?);
    w.write_all(&CSR_MAGIC)?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&(num_edges as u64).to_le_bytes())?;
    w.write_all(&0u64.to_le_bytes())?; // checksum patched below
    for &o in offsets {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &v in adjacency {
        w.write_all(&(v as u64).to_le_bytes())?;
    }
    let file = w
        .into_inner()
        .map_err(|e| StorageError::Io(e.into_error()))?;
    patch_checksum(file, CSR_HEADER as u64, 24)?;
    Ok(())
}

/// Create-or-truncate `path` opened for both writing and reading (the
/// checksum patch pass re-reads the payload through the same handle).
fn create_rw(path: &Path) -> io::Result<File> {
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// Compute the FNV-1a checksum of `file` from byte `payload_start` to
/// EOF in bounded chunks and write it (LE) at byte `checksum_at`.
pub(crate) fn patch_checksum(
    mut file: File,
    payload_start: u64,
    checksum_at: u64,
) -> Result<(), StorageError> {
    file.flush()?;
    file.seek(SeekFrom::Start(payload_start))?;
    let mut h = Fnv64::new();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let k = file.read(&mut buf)?;
        if k == 0 {
            break;
        }
        h.write_bytes(&buf[..k]);
    }
    file.seek(SeekFrom::Start(checksum_at))?;
    file.write_all(&h.finish().to_le_bytes())?;
    file.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-shard CSR files + manifest.
// ---------------------------------------------------------------------------

/// File layout of a per-shard CSR file (`shard-<i>.csr`), 64-byte
/// header, all fields `u64` LE:
///
/// | bytes    | field                                        |
/// |----------|----------------------------------------------|
/// | 0..8     | magic `b"USNAESH1"`                          |
/// | 8..16    | `start` (first owned vertex)                 |
/// | 16..24   | `end` (one past last owned vertex)           |
/// | 24..32   | `adj_len` (directed entries in this shard)   |
/// | 32..40   | `local_edges` (undirected intra-shard edges) |
/// | 40..48   | `frontier_len` (cut-edge pairs)              |
/// | 48..56   | FNV-1a checksum of bytes `64..EOF`           |
/// | 56..64   | reserved (zero)                              |
/// | 64..     | offsets: `(end - start + 1) × u64`           |
/// | then     | adjacency: `adj_len × u64`                   |
/// | then     | frontier: `frontier_len × (owner, other) u64`|
pub const SHARD_MAGIC: [u8; 8] = *b"USNAESH1";
/// Header length of a per-shard CSR file.
pub const SHARD_HEADER: usize = 64;

/// Decoded header + storage of one per-shard CSR file.
pub struct CsrShardFile {
    /// First owned vertex.
    pub start: usize,
    /// One past the last owned vertex.
    pub end: usize,
    /// Undirected intra-shard edge count.
    pub local_edges: usize,
    /// Cut edges `(owned, other)` with `owned` in `start..end`.
    pub frontier: Vec<(VertexId, VertexId)>,
    /// The shard's offset/adjacency arrays, file-backed.
    pub storage: MappedAdj,
}

impl CsrShardFile {
    /// Open and structurally validate one shard file.
    pub fn open(path: &Path) -> Result<CsrShardFile, StorageError> {
        let map = ByteMap::open(path)?;
        Self::from_map(map, path)
    }

    /// As [`CsrShardFile::open`] but forcing the paged reader.
    pub fn open_paged(path: &Path) -> Result<CsrShardFile, StorageError> {
        let map = ByteMap::open_paged(path)?;
        Self::from_map(map, path)
    }

    fn from_map(map: ByteMap, path: &Path) -> Result<CsrShardFile, StorageError> {
        if map.len() < SHARD_HEADER || map.bytes()[..8] != SHARD_MAGIC {
            return Err(StorageError::NotACsrFile {
                path: path.to_path_buf(),
            });
        }
        let start = map.u64_at(8) as usize;
        let end = map.u64_at(16) as usize;
        let adj_words = map.u64_at(24) as usize;
        let local_edges = map.u64_at(32) as usize;
        let frontier_len = map.u64_at(40) as usize;
        if end < start {
            return Err(StorageError::BadManifest {
                path: path.to_path_buf(),
                detail: format!("shard range {start}..{end} is inverted"),
            });
        }
        let rows = end - start;
        let off_len = (rows + 1) * 8;
        let adj_len = adj_words * 8;
        let frontier_bytes = frontier_len * 16;
        let expected = (SHARD_HEADER + off_len + adj_len + frontier_bytes) as u64;
        if map.len() as u64 != expected {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected,
                actual: map.len() as u64,
            });
        }
        let off = SHARD_HEADER..SHARD_HEADER + off_len;
        let adj = off.end..off.end + adj_len;
        let mut prev = 0u64;
        for (i, chunk) in map.bytes()[off.clone()].chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(chunk.try_into().unwrap());
            let bad = (i == 0 && w != 0) || w < prev || w > adj_words as u64;
            if bad {
                return Err(StorageError::BadOffsets {
                    path: path.to_path_buf(),
                    index: i,
                });
            }
            prev = w;
        }
        if prev != adj_words as u64 {
            return Err(StorageError::BadOffsets {
                path: path.to_path_buf(),
                index: rows,
            });
        }
        let mut frontier = Vec::with_capacity(frontier_len);
        let mut at = adj.end;
        for _ in 0..frontier_len {
            let a = map.u64_at(at) as usize;
            let b = map.u64_at(at + 8) as usize;
            frontier.push((a, b));
            at += 16;
        }
        let decoded = if ZERO_COPY {
            None
        } else {
            Some((
                decode_words(&map.bytes()[off.clone()])?,
                decode_words(&map.bytes()[adj.clone()])?,
            ))
        };
        let storage = MappedAdj {
            map,
            off,
            adj,
            decoded,
        };
        Ok(CsrShardFile {
            start,
            end,
            local_edges,
            frontier,
            storage,
        })
    }

    /// Write one per-shard CSR file (checksum patched after streaming).
    pub fn write(
        path: &Path,
        start: usize,
        end: usize,
        local_edges: usize,
        offsets: &[usize],
        adjacency: &[VertexId],
        frontier: &[(VertexId, VertexId)],
    ) -> Result<(), StorageError> {
        debug_assert_eq!(offsets.len(), end - start + 1);
        let mut w = io::BufWriter::new(create_rw(path)?);
        w.write_all(&SHARD_MAGIC)?;
        w.write_all(&(start as u64).to_le_bytes())?;
        w.write_all(&(end as u64).to_le_bytes())?;
        w.write_all(&(adjacency.len() as u64).to_le_bytes())?;
        w.write_all(&(local_edges as u64).to_le_bytes())?;
        w.write_all(&(frontier.len() as u64).to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?; // checksum patched below
        w.write_all(&0u64.to_le_bytes())?; // reserved
        for &o in offsets {
            w.write_all(&(o as u64).to_le_bytes())?;
        }
        for &v in adjacency {
            w.write_all(&(v as u64).to_le_bytes())?;
        }
        for &(a, b) in frontier {
            w.write_all(&(a as u64).to_le_bytes())?;
            w.write_all(&(b as u64).to_le_bytes())?;
        }
        let file = w
            .into_inner()
            .map_err(|e| StorageError::Io(e.into_error()))?;
        patch_checksum(file, SHARD_HEADER as u64, 48)?;
        Ok(())
    }
}

/// Name of the manifest file inside a sharded-CSR directory.
pub const MANIFEST_NAME: &str = "manifest.usnae-csr";

/// Decoded sharded-CSR manifest: the global shape plus the boundary
/// vector; shard `i` lives in `shard-<i>.csr` next to the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Global vertex count.
    pub num_vertices: usize,
    /// Global undirected edge count.
    pub num_edges: usize,
    /// Partition policy name (`range` / `degree-balanced`).
    pub policy: String,
    /// `num_shards + 1` boundaries, `boundaries[0] == 0`, last `== n`.
    pub boundaries: Vec<usize>,
}

impl ShardManifest {
    /// Path of shard `i`'s CSR file inside `dir`.
    pub fn shard_path(dir: &Path, i: usize) -> PathBuf {
        dir.join(format!("shard-{i}.csr"))
    }

    /// Number of shards described.
    pub fn num_shards(&self) -> usize {
        self.boundaries.len().saturating_sub(1)
    }

    /// Write the manifest into `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), StorageError> {
        let mut s = String::new();
        s.push_str("usnae-sharded-csr v1\n");
        s.push_str(&format!("n {}\n", self.num_vertices));
        s.push_str(&format!("m {}\n", self.num_edges));
        s.push_str(&format!("policy {}\n", self.policy));
        let bounds: Vec<String> = self.boundaries.iter().map(|b| b.to_string()).collect();
        s.push_str(&format!("boundaries {}\n", bounds.join(" ")));
        std::fs::write(dir.join(MANIFEST_NAME), s)?;
        Ok(())
    }

    /// Read and validate the manifest from `dir`.
    pub fn read(dir: &Path) -> Result<ShardManifest, StorageError> {
        let path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&path)?;
        let bad = |detail: String| StorageError::BadManifest {
            path: path.clone(),
            detail,
        };
        let mut lines = text.lines();
        match lines.next() {
            Some("usnae-sharded-csr v1") => {}
            other => return Err(bad(format!("unknown header {other:?}"))),
        }
        let mut n = None;
        let mut m = None;
        let mut policy = None;
        let mut boundaries: Option<Vec<usize>> = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("bad line {line:?}")))?;
            match key {
                "n" => n = Some(rest.parse().map_err(|_| bad(format!("bad n {rest:?}")))?),
                "m" => m = Some(rest.parse().map_err(|_| bad(format!("bad m {rest:?}")))?),
                "policy" => policy = Some(rest.to_string()),
                "boundaries" => {
                    let mut v = Vec::new();
                    for tok in rest.split_whitespace() {
                        v.push(
                            tok.parse()
                                .map_err(|_| bad(format!("bad boundary {tok:?}")))?,
                        );
                    }
                    boundaries = Some(v);
                }
                _ => return Err(bad(format!("unknown key {key:?}"))),
            }
        }
        let num_vertices = n.ok_or_else(|| bad("missing n".into()))?;
        let num_edges = m.ok_or_else(|| bad("missing m".into()))?;
        let policy = policy.ok_or_else(|| bad("missing policy".into()))?;
        let boundaries = boundaries.ok_or_else(|| bad("missing boundaries".into()))?;
        if boundaries.len() < 2
            || boundaries[0] != 0
            || *boundaries.last().unwrap() != num_vertices
            || boundaries.windows(2).any(|w| w[0] > w[1])
        {
            return Err(bad(format!("inconsistent boundaries {boundaries:?}")));
        }
        Ok(ShardManifest {
            num_vertices,
            num_edges,
            policy,
            boundaries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("usnae-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn csr_file_round_trips_mapped_and_paged() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("g.csr");
        let offsets = vec![0usize, 2, 3, 4];
        let adjacency = vec![1usize, 2, 0, 0];
        write_csr_file(&path, 2, &offsets, &adjacency).unwrap();
        for open in [MappedAdj::open, MappedAdj::open_paged] {
            let (adj, n, m) = open(&path).unwrap();
            assert_eq!((n, m), (3, 2));
            assert_eq!(adj.offsets(), &offsets[..]);
            assert_eq!(adj.adjacency(), &adjacency[..]);
            adj.verify(&path).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("g.csr");
        let offsets = vec![0usize, 1, 2];
        let adjacency = vec![1usize, 0];
        write_csr_file(&path, 1, &offsets, &adjacency).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MappedAdj::open(&path),
            Err(StorageError::NotACsrFile { .. })
        ));
        bytes[0] ^= 0xff;
        bytes.pop();
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MappedAdj::open(&path),
            Err(StorageError::Truncated { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_offsets_and_checksum_are_typed() {
        let dir = tmp_dir("offsets");
        let path = dir.join("g.csr");
        let offsets = vec![0usize, 1, 2];
        let adjacency = vec![1usize, 0];
        write_csr_file(&path, 1, &offsets, &adjacency).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Non-monotone offset table.
        let mut bytes = good.clone();
        bytes[CSR_HEADER..CSR_HEADER + 8].copy_from_slice(&9u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MappedAdj::open(&path),
            Err(StorageError::BadOffsets { .. })
        ));
        // Flip one adjacency bit within range: structure fine, checksum not.
        let mut bytes = good.clone();
        let last = bytes.len() - 8;
        bytes[last..].copy_from_slice(&1u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (adj, _, _) = MappedAdj::open(&path).unwrap();
        assert!(matches!(
            adj.verify(&path),
            Err(StorageError::Checksum { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_file_round_trips() {
        let dir = tmp_dir("shard");
        let path = dir.join("shard-0.csr");
        let offsets = vec![0usize, 2, 3];
        let adjacency = vec![1usize, 5, 0];
        let frontier = vec![(0usize, 5usize)];
        CsrShardFile::write(&path, 0, 2, 1, &offsets, &adjacency, &frontier).unwrap();
        for open in [CsrShardFile::open, CsrShardFile::open_paged] {
            let sf = open(&path).unwrap();
            assert_eq!((sf.start, sf.end, sf.local_edges), (0, 2, 1));
            assert_eq!(sf.frontier, frontier);
            assert_eq!(sf.storage.offsets(), &offsets[..]);
            assert_eq!(sf.storage.adjacency(), &adjacency[..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let dir = tmp_dir("manifest");
        let m = ShardManifest {
            num_vertices: 10,
            num_edges: 7,
            policy: "range".into(),
            boundaries: vec![0, 5, 10],
        };
        m.write(&dir).unwrap();
        assert_eq!(ShardManifest::read(&dir).unwrap(), m);
        std::fs::write(dir.join(MANIFEST_NAME), "nonsense\n").unwrap();
        assert!(matches!(
            ShardManifest::read(&dir),
            Err(StorageError::BadManifest { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
