//! The typed message vocabulary and the binary wire codec.
//!
//! The process transport frames every message the way the core snapshot
//! codec frames a file — magic, version, a length-prefixed payload, and an
//! FNV-64 checksum over everything before the trailer — so a short read,
//! a stray byte, or a version skew surfaces as the same typed-error
//! taxonomy ([`WorkerError`]) instead of a hang:
//!
//! ```text
//! +----------+---------+------+-------------+-----------+----------+
//! | USNAEWKR | version | kind | payload_len | payload.. | checksum |
//! |  8 bytes |   u32   |  u8  |     u64     |           |   u64    |
//! +----------+---------+------+-------------+-----------+----------+
//! ```
//!
//! All integers are little-endian. The channel transport skips the wire
//! entirely (it moves the typed values), but both transports carry the
//! *same* `Request`/`Response` values, which is what makes their message
//! statistics and results identical.

use std::io::{Read, Write as IoWrite};

use usnae_graph::{Dist, VertexId};

use crate::error::WorkerError;
use crate::frame;

/// Frame magic: fixed 8 bytes, distinct from the snapshot codec's
/// `USNAESNP` so a worker pipe can never be confused with a cache file.
pub const MAGIC: &[u8; 8] = b"USNAEWKR";

/// Wire protocol version.
pub const VERSION: u32 = 1;

/// Frame header length: magic (8) + version (4) + kind (1) + payload len (8).
pub const HEADER_LEN: usize = frame::HEADER_LEN;

/// Wire size of one routed frontier [`Candidate`]: ball (4) + vertex (8) +
/// dist (8) + parent (8) + parent rank (8). Message statistics multiply
/// counts by this constant, so every transport reports identical bytes.
pub const CANDIDATE_WIRE_BYTES: u64 = 36;

/// Wire size of one rank-protocol key `(parent_rank, v)` plus its ball tag.
pub const KEY_WIRE_BYTES: u64 = 20;

/// Wire size of one rank-protocol reply rank.
pub const RANK_WIRE_BYTES: u64 = 8;

/// Everything a worker needs to own one shard: its id, the global vertex
/// range it owns, and its local CSR arrays (global vertex ids in the
/// adjacency, exactly as [`usnae_graph::partition::CsrShard`] stores them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInit {
    /// This worker's shard id.
    pub shard: usize,
    /// Total number of shards in the pool.
    pub num_shards: usize,
    /// Vertex count of the full graph.
    pub num_vertices: usize,
    /// First owned vertex (inclusive).
    pub start: VertexId,
    /// One past the last owned vertex.
    pub end: VertexId,
    /// Local CSR offsets, `end - start + 1` entries.
    pub offsets: Vec<usize>,
    /// Local CSR adjacency (global vertex ids).
    pub adjacency: Vec<VertexId>,
}

/// Which exploration primitive a round sequence computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Sorted distance balls (the `par::balls` contract): per ball, every
    /// `(v, dist)` with `dist <= depth`, sorted by vertex id.
    Balls,
    /// Full BFS explorations (the `par::BallScratch::explore` contract):
    /// balls plus FIFO-exact BFS-tree parents, resolved through the rank
    /// protocol.
    Explorations,
}

impl Task {
    fn code(self) -> u8 {
        match self {
            Task::Balls => 0,
            Task::Explorations => 1,
        }
    }

    fn from_code(b: u8) -> Option<Task> {
        match b {
            0 => Some(Task::Balls),
            1 => Some(Task::Explorations),
            _ => None,
        }
    }
}

/// One frontier entry routed between shards (or buffered locally): vertex
/// `v` of ball `ball` is reachable at distance `dist` from parent
/// `parent`, whose rank in the previous level's FIFO queue is
/// `parent_rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Ball index within the current task (dense, driver-assigned).
    pub ball: u32,
    /// The candidate vertex.
    pub v: VertexId,
    /// Its tentative distance (= current level + 1).
    pub dist: Dist,
    /// The expanding parent vertex.
    pub parent: VertexId,
    /// The parent's FIFO-queue rank within its level (0-based).
    pub parent_rank: u64,
}

/// Driver → worker messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ship the shard layout; the worker replies [`Response::Ready`].
    Init(ShardInit),
    /// Begin a task: seed the given `(ball, source)` pairs (only sources
    /// this worker owns are listed) and expand level 0.
    Start {
        /// Which primitive to compute.
        task: Task,
        /// Exploration depth bound.
        depth: Dist,
        /// Total balls in this task (every worker tracks all of them).
        num_balls: u32,
        /// Owned sources: `(ball, source vertex)`.
        sources: Vec<(u32, VertexId)>,
    },
    /// One frontier round: candidates routed to this worker, grouped by
    /// origin shard in ascending shard id (the deterministic drain order).
    Round {
        /// `(origin shard, candidates)` batches, ascending origin.
        batches: Vec<(usize, Vec<Candidate>)>,
    },
    /// Rank-protocol reply (Explorations only): per ball, the global FIFO
    /// ranks of the keys this worker submitted, in submission order.
    Ranks {
        /// `(ball, ranks)` in the same ball order the worker used in its
        /// [`Response::Settled`].
        ranks: Vec<(u32, Vec<u64>)>,
    },
    /// Return the accumulated results for the current task.
    Collect,
    /// Tear down; the worker replies [`Response::Stopping`] and exits.
    Shutdown,
}

/// Worker → driver messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Init acknowledged.
    Ready,
    /// Round output: candidates for *other* shards plus whether this
    /// worker still has work queued locally for the next level.
    Expanded {
        /// Candidates owned by other shards, ascending `(ball, v)` within
        /// each destination's slice (already deduplicated per `(ball, v)`
        /// keeping the minimum parent rank).
        outgoing: Vec<Candidate>,
        /// True when this worker has a non-empty next-level frontier.
        pending: bool,
    },
    /// Rank-protocol submission (Explorations only): per ball, the keys
    /// `(parent_rank, v)` of vertices settled this round, sorted.
    Settled {
        /// `(ball, sorted keys)` for every ball with settlements.
        keys: Vec<(u32, Vec<(u64, VertexId)>)>,
    },
    /// Collected results: per ball, the owned settled vertices
    /// `(v, dist, parent + 1)` sorted by vertex id (`0` encodes "no
    /// parent", i.e. the source).
    Results {
        /// One vector per ball, ball order.
        balls: Vec<Vec<(VertexId, Dist, u64)>>,
    },
    /// Shutdown acknowledged.
    Stopping,
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Little-endian payload writer (the codec's framing conventions, local
/// copy — the snapshot codec's writer is private to `usnae_core`).
struct Wire {
    buf: Vec<u8>,
}

impl Wire {
    fn new() -> Self {
        Wire { buf: Vec::new() }
    }

    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WorkerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WorkerError::Truncated { offset: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WorkerError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WorkerError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WorkerError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, WorkerError> {
        let x = self.u64()?;
        usize::try_from(x).map_err(|_| WorkerError::Corrupt {
            reason: format!("length {x} does not fit in usize"),
        })
    }

    /// A collection count, sanity-bounded against the remaining payload so
    /// a corrupt length cannot trigger a giant allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WorkerError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if min_elem_bytes > 0 && n > remaining / min_elem_bytes {
            return Err(WorkerError::Corrupt {
                reason: format!("count {n} exceeds remaining payload ({remaining} bytes)"),
            });
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), WorkerError> {
        if self.pos != self.buf.len() {
            return Err(WorkerError::Corrupt {
                reason: format!(
                    "trailing garbage: consumed {} of {} payload bytes",
                    self.pos,
                    self.buf.len()
                ),
            });
        }
        Ok(())
    }
}

fn put_candidates(w: &mut Wire, cs: &[Candidate]) {
    w.usize(cs.len());
    for c in cs {
        w.u32(c.ball);
        w.usize(c.v);
        w.u64(c.dist);
        w.usize(c.parent);
        w.u64(c.parent_rank);
    }
}

fn get_candidates(r: &mut Cursor<'_>) -> Result<Vec<Candidate>, WorkerError> {
    let n = r.count(CANDIDATE_WIRE_BYTES as usize)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Candidate {
            ball: r.u32()?,
            v: r.usize()?,
            dist: r.u64()?,
            parent: r.usize()?,
            parent_rank: r.u64()?,
        });
    }
    Ok(out)
}

impl Request {
    /// The frame kind byte. Kinds 6 and 7 are retired and never reused, so
    /// a v1 driver that still sends them gets an unknown-kind error.
    fn kind(&self) -> u8 {
        match self {
            Request::Init(_) => 0,
            Request::Start { .. } => 1,
            Request::Round { .. } => 2,
            Request::Ranks { .. } => 3,
            Request::Collect => 4,
            Request::Shutdown => 5,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = Wire::new();
        match self {
            Request::Init(init) => {
                w.usize(init.shard);
                w.usize(init.num_shards);
                w.usize(init.num_vertices);
                w.usize(init.start);
                w.usize(init.end);
                w.usize(init.offsets.len());
                for &o in &init.offsets {
                    w.usize(o);
                }
                w.usize(init.adjacency.len());
                for &v in &init.adjacency {
                    w.usize(v);
                }
            }
            Request::Start {
                task,
                depth,
                num_balls,
                sources,
            } => {
                w.u8(task.code());
                w.u64(*depth);
                w.u32(*num_balls);
                w.usize(sources.len());
                for &(ball, src) in sources {
                    w.u32(ball);
                    w.usize(src);
                }
            }
            Request::Round { batches } => {
                w.usize(batches.len());
                for (origin, cs) in batches {
                    w.usize(*origin);
                    put_candidates(&mut w, cs);
                }
            }
            Request::Ranks { ranks } => {
                w.usize(ranks.len());
                for (ball, rs) in ranks {
                    w.u32(*ball);
                    w.usize(rs.len());
                    for &r in rs {
                        w.u64(r);
                    }
                }
            }
            Request::Collect | Request::Shutdown => {}
        }
        w.buf
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Request, WorkerError> {
        let mut r = Cursor::new(payload);
        let req = match kind {
            0 => {
                let shard = r.usize()?;
                let num_shards = r.usize()?;
                let num_vertices = r.usize()?;
                let start = r.usize()?;
                let end = r.usize()?;
                let no = r.count(8)?;
                let mut offsets = Vec::with_capacity(no);
                for _ in 0..no {
                    offsets.push(r.usize()?);
                }
                let na = r.count(8)?;
                let mut adjacency = Vec::with_capacity(na);
                for _ in 0..na {
                    adjacency.push(r.usize()?);
                }
                Request::Init(ShardInit {
                    shard,
                    num_shards,
                    num_vertices,
                    start,
                    end,
                    offsets,
                    adjacency,
                })
            }
            1 => {
                let code = r.u8()?;
                let task = Task::from_code(code).ok_or_else(|| WorkerError::Corrupt {
                    reason: format!("unknown task code {code}"),
                })?;
                let depth = r.u64()?;
                let num_balls = r.u32()?;
                let n = r.count(12)?;
                let mut sources = Vec::with_capacity(n);
                for _ in 0..n {
                    sources.push((r.u32()?, r.usize()?));
                }
                Request::Start {
                    task,
                    depth,
                    num_balls,
                    sources,
                }
            }
            2 => {
                let nb = r.count(16)?;
                let mut batches = Vec::with_capacity(nb);
                for _ in 0..nb {
                    let origin = r.usize()?;
                    batches.push((origin, get_candidates(&mut r)?));
                }
                Request::Round { batches }
            }
            3 => {
                let nb = r.count(12)?;
                let mut ranks = Vec::with_capacity(nb);
                for _ in 0..nb {
                    let ball = r.u32()?;
                    let nr = r.count(8)?;
                    let mut rs = Vec::with_capacity(nr);
                    for _ in 0..nr {
                        rs.push(r.u64()?);
                    }
                    ranks.push((ball, rs));
                }
                Request::Ranks { ranks }
            }
            4 => Request::Collect,
            5 => Request::Shutdown,
            _ => {
                return Err(WorkerError::Corrupt {
                    reason: format!("unknown request kind {kind}"),
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The frame kind byte. Kinds 5 and 6 are retired and never reused, so
    /// a v1 worker that still answers with them gets an unknown-kind error.
    fn kind(&self) -> u8 {
        match self {
            Response::Ready => 0,
            Response::Expanded { .. } => 1,
            Response::Settled { .. } => 2,
            Response::Results { .. } => 3,
            Response::Stopping => 4,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = Wire::new();
        match self {
            Response::Ready | Response::Stopping => {}
            Response::Expanded { outgoing, pending } => {
                w.u8(u8::from(*pending));
                put_candidates(&mut w, outgoing);
            }
            Response::Settled { keys } => {
                w.usize(keys.len());
                for (ball, ks) in keys {
                    w.u32(*ball);
                    w.usize(ks.len());
                    for &(rank, v) in ks {
                        w.u64(rank);
                        w.usize(v);
                    }
                }
            }
            Response::Results { balls } => {
                w.usize(balls.len());
                for ball in balls {
                    w.usize(ball.len());
                    for &(v, dist, parent) in ball {
                        w.usize(v);
                        w.u64(dist);
                        w.u64(parent);
                    }
                }
            }
        }
        w.buf
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Response, WorkerError> {
        let mut r = Cursor::new(payload);
        let resp = match kind {
            0 => Response::Ready,
            1 => {
                let pending = r.u8()? != 0;
                let outgoing = get_candidates(&mut r)?;
                Response::Expanded { outgoing, pending }
            }
            2 => {
                let nb = r.count(12)?;
                let mut keys = Vec::with_capacity(nb);
                for _ in 0..nb {
                    let ball = r.u32()?;
                    let nk = r.count(16)?;
                    let mut ks = Vec::with_capacity(nk);
                    for _ in 0..nk {
                        ks.push((r.u64()?, r.usize()?));
                    }
                    keys.push((ball, ks));
                }
                Response::Settled { keys }
            }
            3 => {
                let nb = r.count(8)?;
                let mut balls = Vec::with_capacity(nb);
                for _ in 0..nb {
                    let n = r.count(24)?;
                    let mut ball = Vec::with_capacity(n);
                    for _ in 0..n {
                        ball.push((r.usize()?, r.u64()?, r.u64()?));
                    }
                    balls.push(ball);
                }
                Response::Results { balls }
            }
            4 => Response::Stopping,
            _ => {
                return Err(WorkerError::Corrupt {
                    reason: format!("unknown response kind {kind}"),
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Frames and writes one message under the worker magic/version via the
/// shared grammar ([`crate::frame`]).
fn write_frame(out: &mut impl IoWrite, kind: u8, payload: &[u8]) -> Result<(), WorkerError> {
    frame::write_frame(out, MAGIC, VERSION, kind, payload).map_err(WorkerError::from)
}

/// Writes one [`Request`] frame.
pub fn write_request(out: &mut impl IoWrite, req: &Request) -> Result<(), WorkerError> {
    write_frame(out, req.kind(), &req.payload())
}

/// Writes one [`Response`] frame.
pub fn write_response(out: &mut impl IoWrite, resp: &Response) -> Result<(), WorkerError> {
    write_frame(out, resp.kind(), &resp.payload())
}

/// Reads and validates one frame via the shared grammar, returning
/// `(kind, payload)`. `Ok(None)` means clean EOF at a frame boundary
/// (the peer closed its pipe between messages). Anything else malformed
/// is a typed error.
fn read_frame(input: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WorkerError> {
    frame::read_frame(input, MAGIC, VERSION).map_err(WorkerError::from)
}

/// Reads one [`Request`] frame; `Ok(None)` on clean EOF.
pub fn read_request(input: &mut impl Read) -> Result<Option<Request>, WorkerError> {
    match read_frame(input)? {
        None => Ok(None),
        Some((kind, payload)) => Request::decode(kind, &payload).map(Some),
    }
}

/// Reads one [`Response`] frame; clean EOF is an error for the driver
/// (a worker must answer every request), reported as a zero-offset
/// truncation so the transport can enrich it with the exit status.
pub fn read_response(input: &mut impl Read) -> Result<Response, WorkerError> {
    match read_frame(input)? {
        None => Err(WorkerError::Truncated { offset: 0 }),
        Some((kind, payload)) => Response::decode(kind, &payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let got = read_request(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, req);
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let got = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(got, resp);
    }

    fn sample_candidate() -> Candidate {
        Candidate {
            ball: 3,
            v: 17,
            dist: 2,
            parent: 9,
            parent_rank: 5,
        }
    }

    #[test]
    fn every_message_kind_round_trips() {
        round_trip_request(Request::Init(ShardInit {
            shard: 1,
            num_shards: 4,
            num_vertices: 10,
            start: 3,
            end: 6,
            offsets: vec![0, 2, 4, 5],
            adjacency: vec![0, 4, 3, 9, 1],
        }));
        round_trip_request(Request::Start {
            task: Task::Explorations,
            depth: 7,
            num_balls: 2,
            sources: vec![(0, 4), (1, 5)],
        });
        round_trip_request(Request::Round {
            batches: vec![(0, vec![sample_candidate()]), (2, vec![])],
        });
        round_trip_request(Request::Ranks {
            ranks: vec![(0, vec![0, 3, 4]), (1, vec![])],
        });
        round_trip_request(Request::Collect);
        round_trip_request(Request::Shutdown);

        round_trip_response(Response::Ready);
        round_trip_response(Response::Expanded {
            outgoing: vec![sample_candidate(), sample_candidate()],
            pending: true,
        });
        round_trip_response(Response::Settled {
            keys: vec![(0, vec![(0, 4), (2, 7)]), (1, vec![])],
        });
        round_trip_response(Response::Results {
            balls: vec![vec![(3, 0, 0), (4, 1, 4)], vec![]],
        });
        round_trip_response(Response::Stopping);
    }

    #[test]
    fn clean_eof_is_none_for_requests_and_truncated_for_responses() {
        let empty: &[u8] = &[];
        assert!(read_request(&mut { empty }).unwrap().is_none());
        match read_response(&mut { empty }) {
            Err(WorkerError::Truncated { offset: 0 }) => {}
            other => panic!("expected zero-offset truncation, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_surface_typed_errors() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Collect).unwrap();

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_request(&mut bad.as_slice()),
            Err(WorkerError::BadMagic)
        ));

        // Unsupported version.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_request(&mut bad.as_slice()),
            Err(WorkerError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            })
        ));

        // Truncated mid-frame.
        let bad = &buf[..buf.len() - 3];
        assert!(matches!(
            read_request(&mut { bad }),
            Err(WorkerError::Truncated { .. })
        ));

        // Flipped payload-adjacent byte → checksum mismatch.
        let mut buf2 = Vec::new();
        write_request(
            &mut buf2,
            &Request::Start {
                task: Task::Balls,
                depth: 1,
                num_balls: 1,
                sources: vec![(0, 0)],
            },
        )
        .unwrap();
        let mid = HEADER_LEN + 2;
        buf2[mid] ^= 0xFF;
        assert!(matches!(
            read_request(&mut buf2.as_slice()),
            Err(WorkerError::ChecksumMismatch { .. })
        ));

        // Unknown kind bytes in well-formed frames, the retired ones
        // included (requests 6/7, responses 5/6): each is a typed Corrupt.
        let frame = |kind: u8| {
            let mut frame = Vec::new();
            write_frame(&mut frame, kind, &[]).unwrap();
            frame
        };
        for kind in [6, 7, 200] {
            assert!(
                matches!(
                    read_request(&mut frame(kind).as_slice()),
                    Err(WorkerError::Corrupt { .. })
                ),
                "request kind {kind}"
            );
        }
        for kind in [5, 6, 200] {
            assert!(
                matches!(
                    read_response(&mut frame(kind).as_slice()),
                    Err(WorkerError::Corrupt { .. })
                ),
                "response kind {kind}"
            );
        }
    }

    #[test]
    fn candidate_wire_size_matches_the_constant() {
        let mut w = Wire::new();
        put_candidates(&mut w, &[sample_candidate()]);
        // 8 bytes of count prefix + one candidate.
        assert_eq!(w.buf.len() as u64, 8 + CANDIDATE_WIRE_BYTES);
    }
}
