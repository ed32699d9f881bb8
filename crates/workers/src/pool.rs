//! The round-planning driver: owns a [`Transport`], routes frontier
//! candidates between shards, runs the rank protocol, merges collected
//! results, and records **measured** [`MessageStats`].
//!
//! Statistics are computed here, from message *counts* times the fixed
//! wire sizes in [`crate::proto`], so the channel, process and socket
//! transports report identical numbers for the same build. They count
//! exploration traffic only (the driver keeps the output it builds):
//!
//! * `rounds` counts exchange barriers that advance a task (Start /
//!   Round / Ranks); Init, Collect, and Shutdown are bookkeeping, and no
//!   other exchange exists.
//! * per-pair traffic covers frontier candidates routed worker → worker;
//! * totals additionally include the rank-protocol keys and replies
//!   (driver-mediated), so totals ≥ the sum over pairs.

use std::collections::HashMap;

use usnae_graph::par::Exploration;
use usnae_graph::{Dist, VertexId};

use crate::channel::ChannelTransport;
use crate::error::WorkerError;
use crate::process::ProcessTransport;
use crate::proto::{
    Candidate, Request, Response, ShardInit, Task, CANDIDATE_WIRE_BYTES, KEY_WIRE_BYTES,
    RANK_WIRE_BYTES,
};
use crate::socket::SocketTransport;
use crate::stats::{MessageStats, PairStats, TransportKind};
use crate::Transport;

/// One ball's settled `(vertex, distance, parent + 1)` triples, ascending
/// by vertex id (`0` encodes "no parent", as on the wire).
type SettledBall = Vec<(VertexId, Dist, u64)>;

/// One shard's rank-protocol submission: the shard id plus, per ball, its
/// `(parent_rank, vertex)` keys in the shard's own submission order.
type ShardKeys = (usize, Vec<(u32, Vec<(u64, VertexId)>)>);

#[derive(Default)]
struct StatsAccum {
    rounds: u64,
    messages: u64,
    bytes: u64,
    pairs: HashMap<(usize, usize), (u64, u64)>,
}

impl StatsAccum {
    fn candidate(&mut self, src: usize, dst: usize) {
        self.messages += 1;
        self.bytes += CANDIDATE_WIRE_BYTES;
        let e = self.pairs.entry((src, dst)).or_insert((0, 0));
        e.0 += 1;
        e.1 += CANDIDATE_WIRE_BYTES;
    }

    fn keys(&mut self, n: u64) {
        self.messages += n;
        self.bytes += n * KEY_WIRE_BYTES;
    }

    fn ranks(&mut self, n: u64) {
        self.messages += n;
        self.bytes += n * RANK_WIRE_BYTES;
    }

    fn snapshot(&self) -> MessageStats {
        let mut pairs: Vec<PairStats> = self
            .pairs
            .iter()
            .map(|(&(src, dst), &(messages, bytes))| PairStats {
                src,
                dst,
                messages,
                bytes,
            })
            .collect();
        pairs.sort_unstable_by_key(|p| (p.src, p.dst));
        MessageStats {
            rounds: self.rounds,
            messages: self.messages,
            bytes: self.bytes,
            pairs,
        }
    }
}

/// Drives per-shard workers through task rounds over a chosen transport.
pub struct WorkerPool {
    transport: Box<dyn Transport>,
    /// `num_shards + 1` ascending vertex boundaries; shard `s` owns
    /// `boundaries[s]..boundaries[s + 1]`.
    boundaries: Vec<VertexId>,
    stats: StatsAccum,
}

impl WorkerPool {
    /// Builds a pool over `kind`, spawning one worker per shard layout.
    ///
    /// # Errors
    ///
    /// [`WorkerError`] when workers cannot be spawned or initialised;
    /// [`TransportKind::Inproc`] is rejected (it has no workers to pool).
    pub fn new(kind: TransportKind, inits: Vec<ShardInit>) -> Result<Self, WorkerError> {
        let mut boundaries: Vec<VertexId> = inits.iter().map(|i| i.start).collect();
        boundaries.push(inits.last().map_or(0, |i| i.end));
        let transport: Box<dyn Transport> = match kind {
            TransportKind::Channel => Box::new(ChannelTransport::new(inits)),
            TransportKind::Process => Box::new(ProcessTransport::new(inits)?),
            TransportKind::Socket => Box::new(SocketTransport::new(inits)?),
            TransportKind::Inproc => {
                return Err(WorkerError::Corrupt {
                    reason: "the inproc transport runs without a worker pool".into(),
                })
            }
        };
        Ok(WorkerPool {
            transport,
            boundaries,
            stats: StatsAccum::default(),
        })
    }

    /// The transport's tag (`"channel"` / `"process"` / `"socket"`).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Shards in this pool.
    pub fn num_shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    fn owner(&self, v: VertexId) -> usize {
        // boundaries is ascending; the owner is the last shard whose
        // start is <= v.
        self.boundaries.partition_point(|&b| b <= v) - 1
    }

    /// Gracefully stops every worker and returns the final statistics.
    ///
    /// # Errors
    ///
    /// [`WorkerError`] when a worker did not acknowledge the shutdown or
    /// (process transport) exited nonzero.
    pub fn shutdown(mut self) -> Result<MessageStats, WorkerError> {
        self.transport.shutdown()?;
        Ok(self.stats.snapshot())
    }

    /// Sorted distance balls of every source (the `par::balls` contract):
    /// per source, every `(v, dist)` with `dist <= depth`, ascending by
    /// vertex id, the source included at distance 0.
    ///
    /// # Errors
    ///
    /// Any [`WorkerError`] from the transport; the pool is unusable after
    /// an error (drop it and fall back).
    pub fn balls(
        &mut self,
        sources: &[VertexId],
        depth: Dist,
    ) -> Result<Vec<Vec<(VertexId, Dist)>>, WorkerError> {
        let results = self.run_task(Task::Balls, sources, depth)?;
        Ok(results
            .into_iter()
            .map(|ball| ball.into_iter().map(|(v, d, _)| (v, d)).collect())
            .collect())
    }

    /// Full explorations of every source (the
    /// `usnae_graph::par::ScratchPool::explorations` contract): distances
    /// plus FIFO-exact BFS-tree parents, in the same sparse
    /// [`Exploration`] the in-process fan-out returns.
    ///
    /// # Errors
    ///
    /// Any [`WorkerError`] from the transport.
    pub fn explorations(
        &mut self,
        sources: &[VertexId],
        depth: Dist,
    ) -> Result<Vec<Exploration>, WorkerError> {
        let results = self.run_task(Task::Explorations, sources, depth)?;
        Ok(results
            .into_iter()
            .map(|ball| Exploration {
                settled: ball
                    .into_iter()
                    .map(|(v, d, p)| (v, d, p.checked_sub(1).map(|p| p as VertexId)))
                    .collect(),
            })
            .collect())
    }

    /// Runs one task to quiescence and returns, per ball, the settled
    /// `(v, dist, parent + 1)` triples ascending by vertex id.
    fn run_task(
        &mut self,
        task: Task,
        sources: &[VertexId],
        depth: Dist,
    ) -> Result<Vec<SettledBall>, WorkerError> {
        let shards = self.num_shards();
        let num_balls = u32::try_from(sources.len()).expect("ball count fits in u32");

        // Start: seed each source at its owner.
        let mut seed_lists: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); shards];
        for (ball, &src) in sources.iter().enumerate() {
            seed_lists[self.owner(src)].push((ball as u32, src));
        }
        let reqs = seed_lists
            .into_iter()
            .map(|sources| Request::Start {
                task,
                depth,
                num_balls,
                sources,
            })
            .collect();
        self.stats.rounds += 1;
        let resps = self.transport.exchange(reqs)?;
        let (mut outgoing, mut any_pending) = self.absorb_expanded(resps)?;

        // Frontier rounds until quiescence.
        while !outgoing.is_empty() || any_pending {
            let reqs = self.route(std::mem::take(&mut outgoing));
            self.stats.rounds += 1;
            let resps = self.transport.exchange(reqs)?;
            match task {
                Task::Balls => {
                    (outgoing, any_pending) = self.absorb_expanded(resps)?;
                }
                Task::Explorations => {
                    let keys = self.absorb_settled(resps)?;
                    if keys
                        .iter()
                        .all(|(_, ks)| ks.iter().all(|(_, k)| k.is_empty()))
                    {
                        // Stale-only round: nothing settled anywhere, so
                        // there is no new frontier to rank or expand.
                        break;
                    }
                    let reqs = self.assign_ranks(keys, num_balls);
                    self.stats.rounds += 1;
                    let resps = self.transport.exchange(reqs)?;
                    (outgoing, any_pending) = self.absorb_expanded(resps)?;
                }
            }
        }

        // Collect: per ball, concatenate the shards' sorted owned ranges
        // in ascending shard id — ranges are contiguous ascending, so the
        // result is globally sorted by vertex id.
        let reqs = vec![Request::Collect; shards];
        let resps = self.transport.exchange(reqs)?;
        let mut merged: Vec<SettledBall> = vec![Vec::new(); num_balls as usize];
        for (shard, resp) in resps.into_iter().enumerate() {
            let Response::Results { balls } = resp else {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("expected Results, got {resp:?}"),
                });
            };
            if balls.len() != num_balls as usize {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("{} result balls for {num_balls} sources", balls.len()),
                });
            }
            for (ball, mut part) in balls.into_iter().enumerate() {
                merged[ball].append(&mut part);
            }
        }
        Ok(merged)
    }

    /// Validates a round of `Expanded` responses, records per-pair
    /// candidate traffic, and returns the pooled outgoing candidates
    /// (tagged with their origin) plus the pending flag.
    #[allow(clippy::type_complexity)]
    fn absorb_expanded(
        &mut self,
        resps: Vec<Response>,
    ) -> Result<(Vec<(usize, Candidate)>, bool), WorkerError> {
        let mut pooled = Vec::new();
        let mut any_pending = false;
        for (shard, resp) in resps.into_iter().enumerate() {
            let Response::Expanded { outgoing, pending } = resp else {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("expected Expanded, got {resp:?}"),
                });
            };
            any_pending |= pending;
            for c in outgoing {
                let dst = self.owner(c.v);
                self.stats.candidate(shard, dst);
                pooled.push((shard, c));
            }
        }
        Ok((pooled, any_pending))
    }

    /// Groups origin-tagged candidates into per-destination `Round`
    /// requests, batches ascending by origin shard within each.
    fn route(&self, pooled: Vec<(usize, Candidate)>) -> Vec<Request> {
        let shards = self.num_shards();
        // pooled is already ordered by origin (responses were drained in
        // ascending shard id), so pushing preserves ascending origins.
        let mut per_dst: Vec<Vec<(usize, Vec<Candidate>)>> = vec![Vec::new(); shards];
        for (origin, c) in pooled {
            let dst = self.owner(c.v);
            match per_dst[dst].last_mut() {
                Some((o, batch)) if *o == origin => batch.push(c),
                _ => per_dst[dst].push((origin, vec![c])),
            }
        }
        per_dst
            .into_iter()
            .map(|batches| Request::Round { batches })
            .collect()
    }

    /// Validates a round of `Settled` responses and records key traffic.
    fn absorb_settled(&mut self, resps: Vec<Response>) -> Result<Vec<ShardKeys>, WorkerError> {
        let mut all = Vec::with_capacity(resps.len());
        for (shard, resp) in resps.into_iter().enumerate() {
            let Response::Settled { keys } = resp else {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("expected Settled, got {resp:?}"),
                });
            };
            let n: u64 = keys.iter().map(|(_, ks)| ks.len() as u64).sum();
            self.stats.keys(n);
            all.push((shard, keys));
        }
        Ok(all)
    }

    /// The rank protocol's driver half: globally sort every ball's
    /// submitted `(parent_rank, v)` keys (unique — each vertex settles on
    /// exactly one shard), assign sequential FIFO ranks, and answer every
    /// shard in its own submission order.
    fn assign_ranks(&mut self, all: Vec<ShardKeys>, num_balls: u32) -> Vec<Request> {
        let mut per_ball: Vec<Vec<(u64, VertexId)>> = vec![Vec::new(); num_balls as usize];
        for (_, keys) in &all {
            for (ball, ks) in keys {
                per_ball[*ball as usize].extend_from_slice(ks);
            }
        }
        let mut rank_of: Vec<HashMap<(u64, VertexId), u64>> = Vec::with_capacity(per_ball.len());
        for mut ks in per_ball {
            ks.sort_unstable();
            rank_of.push(
                ks.into_iter()
                    .enumerate()
                    .map(|(i, k)| (k, i as u64))
                    .collect(),
            );
        }
        let mut reqs = vec![Request::Ranks { ranks: Vec::new() }; self.num_shards()];
        for (shard, keys) in all {
            let mut ranks = Vec::with_capacity(keys.len());
            for (ball, ks) in keys {
                let rs: Vec<u64> = ks.iter().map(|k| rank_of[ball as usize][k]).collect();
                self.stats.ranks(rs.len() as u64);
                ranks.push((ball, rs));
            }
            reqs[shard] = Request::Ranks { ranks };
        }
        reqs
    }
}
