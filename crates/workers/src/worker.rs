//! The per-shard worker state machine.
//!
//! A [`ShardWorker`] owns one contiguous vertex range and its local CSR
//! arrays (shipped once via [`ShardInit`]). It runs level-synchronous
//! bounded BFS for every ball of the current task, settling only vertices
//! it owns; discoveries of foreign vertices leave as outgoing
//! [`Candidate`]s and arrive back (at the destination's worker) in the
//! next round's batches.
//!
//! Two task modes:
//!
//! * [`Task::Balls`] — distances only (the `par::balls` contract). Owned
//!   discoveries settle immediately during expansion; one exchange per
//!   BFS level.
//! * [`Task::Explorations`] — distances *and* FIFO-exact BFS-tree parents
//!   (the `par::BallScratch::explore` contract). Discoveries are buffered
//!   as candidates (a remote parent may have a smaller FIFO rank), settled at
//!   the next round's merge by the minimum-parent-rank rule, and queued in
//!   the exact sequential FIFO order via the driver-assisted rank
//!   protocol; two exchanges per level.
//!
//! Determinism does not depend on *when* this worker runs, only on the
//! per-round inputs: every merge sorts before it settles, outgoing
//! candidates are sorted and deduplicated per `(ball, v)` keeping the
//! minimum parent rank, and collected results never iterate a hash map.

use std::collections::HashMap;

use usnae_graph::{Dist, VertexId};

use crate::error::WorkerError;
use crate::proto::{Candidate, Request, Response, ShardInit, Task};

/// A settled owned vertex: its distance, BFS-tree parent, and FIFO-queue
/// rank within its level (Explorations only; 0 for Balls).
struct Entry {
    dist: Dist,
    parent: Option<VertexId>,
    rank: u64,
}

/// Per-ball worker state.
#[derive(Default)]
struct BallState {
    /// Owned settled vertices.
    entries: HashMap<VertexId, Entry>,
    /// Settlement log (unsorted); sorted by vertex id at collect time.
    order: Vec<VertexId>,
    /// Balls task: owned vertices settled at the current level, expanded
    /// at the next round.
    next: Vec<VertexId>,
    /// Explorations task: locally-discovered candidates buffered for the
    /// next round's merge.
    pending: Vec<Candidate>,
    /// Explorations task: vertices settled this round, awaiting their
    /// driver-assigned ranks (in key-submission order).
    awaiting: Vec<VertexId>,
}

impl BallState {
    fn visited(&self, v: VertexId) -> bool {
        self.entries.contains_key(&v)
    }

    fn settle(&mut self, v: VertexId, dist: Dist, parent: Option<VertexId>, rank: u64) {
        self.entries.insert(v, Entry { dist, parent, rank });
        self.order.push(v);
    }
}

/// State of the task currently running rounds.
struct Active {
    task: Task,
    depth: Dist,
    balls: Vec<BallState>,
}

/// One shard's worker: local CSR arrays and the active task state.
pub struct ShardWorker {
    init: ShardInit,
    active: Option<Active>,
}

impl ShardWorker {
    /// Builds a worker from its shard layout.
    pub fn new(init: ShardInit) -> Self {
        ShardWorker { init, active: None }
    }

    /// This worker's shard id.
    pub fn shard(&self) -> usize {
        self.init.shard
    }

    fn owns(&self, v: VertexId) -> bool {
        (self.init.start..self.init.end).contains(&v)
    }

    fn protocol(&self, reason: impl Into<String>) -> WorkerError {
        WorkerError::Protocol {
            shard: self.init.shard,
            reason: reason.into(),
        }
    }

    /// Handles one request, advancing the task state machine.
    ///
    /// # Errors
    ///
    /// [`WorkerError::Protocol`] on an out-of-sequence request or a
    /// structurally invalid one (unknown ball index, rank-count mismatch).
    pub fn handle(&mut self, req: Request) -> Result<Response, WorkerError> {
        match req {
            Request::Init(_) => Err(self.protocol("Init after initialisation")),
            Request::Start {
                task,
                depth,
                num_balls,
                sources,
            } => self.start(task, depth, num_balls, sources),
            Request::Round { batches } => self.round(batches),
            Request::Ranks { ranks } => self.ranks(ranks),
            Request::Collect => self.collect(),
            Request::Shutdown => Ok(Response::Stopping),
        }
    }

    fn start(
        &mut self,
        task: Task,
        depth: Dist,
        num_balls: u32,
        sources: Vec<(u32, VertexId)>,
    ) -> Result<Response, WorkerError> {
        if self.active.is_some() {
            return Err(self.protocol("Start while a task is active"));
        }
        let mut balls = Vec::with_capacity(num_balls as usize);
        balls.resize_with(num_balls as usize, BallState::default);
        let mut active = Active { task, depth, balls };
        let mut seeds = Vec::with_capacity(sources.len());
        for (ball, src) in sources {
            let b = ball as usize;
            if b >= active.balls.len() {
                return Err(self.protocol(format!("source ball {ball} out of range")));
            }
            if !self.owns(src) {
                return Err(self.protocol(format!("source {src} is not owned by this shard")));
            }
            // Sources settle at distance 0 with FIFO rank 0 (level 0 holds
            // exactly the source, so no driver round is needed for it).
            active.balls[b].settle(src, 0, None, 0);
            seeds.push((b, src));
        }
        let resp = match task {
            Task::Balls => {
                for &(b, src) in &seeds {
                    active.balls[b].next.push(src);
                }
                Self::expand_balls(&self.init, &mut active)
            }
            Task::Explorations => {
                let frontier: Vec<(usize, VertexId)> = seeds;
                Self::expand_explorations(&self.init, &mut active, &frontier)
            }
        };
        self.active = Some(active);
        Ok(resp)
    }

    fn round(&mut self, batches: Vec<(usize, Vec<Candidate>)>) -> Result<Response, WorkerError> {
        let shard = self.init.shard;
        let owned = self.init.start..self.init.end;
        let active = self.active.as_mut().ok_or_else(|| WorkerError::Protocol {
            shard,
            reason: "Round without an active task".into(),
        })?;
        let mut incoming = Vec::new();
        for (_, mut cs) in batches {
            incoming.append(&mut cs);
        }
        for c in &incoming {
            if c.ball as usize >= active.balls.len() {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("candidate ball {} out of range", c.ball),
                });
            }
            if !owned.contains(&c.v) {
                return Err(WorkerError::Protocol {
                    shard,
                    reason: format!("misrouted candidate for vertex {}", c.v),
                });
            }
        }
        match active.task {
            Task::Balls => {
                // Absorb: first-discovery settles (duplicates of already
                // settled vertices are stale — same level, same distance).
                for c in incoming {
                    let ball = &mut active.balls[c.ball as usize];
                    if !ball.visited(c.v) {
                        ball.settle(c.v, c.dist, Some(c.parent), 0);
                        ball.next.push(c.v);
                    }
                }
                Ok(Self::expand_balls(&self.init, active))
            }
            Task::Explorations => {
                // Merge buffered local candidates with the incoming ones,
                // settle each fresh (ball, v) by the minimum-parent-rank
                // rule (the sequential FIFO first-in-queue rule), and
                // submit the keys for global rank assignment.
                let mut merged = incoming;
                for ball in &mut active.balls {
                    merged.append(&mut ball.pending);
                }
                merged.sort_unstable_by_key(|c| (c.ball, c.v, c.parent_rank, c.parent));
                merged.dedup_by_key(|c| (c.ball, c.v));
                let mut keys: Vec<(u32, Vec<(u64, VertexId)>)> = Vec::new();
                for c in merged {
                    let ball = &mut active.balls[c.ball as usize];
                    if ball.visited(c.v) {
                        continue; // stale: settled at an earlier level
                    }
                    ball.settle(c.v, c.dist, Some(c.parent), 0);
                    ball.awaiting.push(c.v);
                    match keys.last_mut() {
                        Some((b, ks)) if *b == c.ball => ks.push((c.parent_rank, c.v)),
                        _ => keys.push((c.ball, vec![(c.parent_rank, c.v)])),
                    }
                }
                Ok(Response::Settled { keys })
            }
        }
    }

    fn ranks(&mut self, ranks: Vec<(u32, Vec<u64>)>) -> Result<Response, WorkerError> {
        let shard = self.init.shard;
        let active = self.active.as_mut().ok_or_else(|| WorkerError::Protocol {
            shard,
            reason: "Ranks without an active task".into(),
        })?;
        if active.task != Task::Explorations {
            return Err(self.protocol("Ranks during a Balls task"));
        }
        let mut frontier = Vec::new();
        for (ball, rs) in ranks {
            let b = ball as usize;
            if b >= active.balls.len() {
                return Err(self.protocol(format!("ranks ball {ball} out of range")));
            }
            let awaiting = std::mem::take(&mut active.balls[b].awaiting);
            if awaiting.len() != rs.len() {
                return Err(self.protocol(format!(
                    "ball {ball}: {} ranks for {} settled vertices",
                    rs.len(),
                    awaiting.len()
                )));
            }
            for (v, r) in awaiting.into_iter().zip(rs) {
                active.balls[b]
                    .entries
                    .get_mut(&v)
                    .expect("awaiting vertex is settled")
                    .rank = r;
                frontier.push((b, v));
            }
        }
        if let Some(b) = active
            .balls
            .iter()
            .position(|ball| !ball.awaiting.is_empty())
        {
            return Err(self.protocol(format!("ball {b} settled vertices but received no ranks")));
        }
        Ok(Self::expand_explorations(&self.init, active, &frontier))
    }

    /// Balls expansion: the current level's owned vertices each scan their
    /// adjacency; owned unvisited neighbors settle immediately (distance
    /// is parent-independent), foreign ones leave as candidates.
    fn expand_balls(init: &ShardInit, active: &mut Active) -> Response {
        let mut outgoing = Vec::new();
        for (b, ball) in active.balls.iter_mut().enumerate() {
            let level = std::mem::take(&mut ball.next);
            for v in level {
                let d = ball.entries[&v].dist;
                if d == active.depth {
                    continue; // at the bound: settled but not expanded
                }
                let local = v - init.start;
                for &u in &init.adjacency[init.offsets[local]..init.offsets[local + 1]] {
                    if (init.start..init.end).contains(&u) {
                        if !ball.visited(u) {
                            ball.settle(u, d + 1, Some(v), 0);
                            ball.next.push(u);
                        }
                    } else {
                        outgoing.push(Candidate {
                            ball: b as u32,
                            v: u,
                            dist: d + 1,
                            parent: v,
                            parent_rank: 0,
                        });
                    }
                }
            }
        }
        outgoing.sort_unstable_by_key(|c| (c.ball, c.v, c.parent_rank, c.parent));
        outgoing.dedup_by_key(|c| (c.ball, c.v));
        let pending = active.balls.iter().any(|ball| !ball.next.is_empty());
        Response::Expanded { outgoing, pending }
    }

    /// Explorations expansion: the just-ranked frontier scans its
    /// adjacency; every discovery becomes a candidate carrying the
    /// parent's rank — owned ones are buffered for the next merge (a
    /// remote parent may still beat them), foreign ones leave the shard.
    fn expand_explorations(
        init: &ShardInit,
        active: &mut Active,
        frontier: &[(usize, VertexId)],
    ) -> Response {
        let mut outgoing = Vec::new();
        for &(b, v) in frontier {
            let (d, r) = {
                let e = &active.balls[b].entries[&v];
                (e.dist, e.rank)
            };
            if d == active.depth {
                continue; // at the bound: settled but not expanded
            }
            let local = v - init.start;
            for &u in &init.adjacency[init.offsets[local]..init.offsets[local + 1]] {
                let cand = Candidate {
                    ball: b as u32,
                    v: u,
                    dist: d + 1,
                    parent: v,
                    parent_rank: r,
                };
                if (init.start..init.end).contains(&u) {
                    if !active.balls[b].visited(u) {
                        active.balls[b].pending.push(cand);
                    }
                } else {
                    outgoing.push(cand);
                }
            }
        }
        outgoing.sort_unstable_by_key(|c| (c.ball, c.v, c.parent_rank, c.parent));
        outgoing.dedup_by_key(|c| (c.ball, c.v));
        let pending = active.balls.iter().any(|ball| !ball.pending.is_empty());
        Response::Expanded { outgoing, pending }
    }

    fn collect(&mut self) -> Result<Response, WorkerError> {
        let active = self
            .active
            .take()
            .ok_or_else(|| self.protocol("Collect without an active task"))?;
        let mut balls = Vec::with_capacity(active.balls.len());
        for mut ball in active.balls {
            ball.order.sort_unstable();
            let mut out = Vec::with_capacity(ball.order.len());
            for v in ball.order {
                let e = &ball.entries[&v];
                let parent = e.parent.map_or(0, |p| p as u64 + 1);
                out.push((v, e.dist, parent));
            }
            balls.push(out);
        }
        Ok(Response::Results { balls })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-path 0-1-2-3-4 owned entirely by one shard: single-worker runs
    /// must reproduce plain sequential BFS with no routing at all.
    fn whole_path_init() -> ShardInit {
        ShardInit {
            shard: 0,
            num_shards: 1,
            num_vertices: 5,
            start: 0,
            end: 5,
            offsets: vec![0, 1, 3, 5, 7, 8],
            adjacency: vec![1, 0, 2, 1, 3, 2, 4, 3],
        }
    }

    #[test]
    fn single_shard_balls_settle_to_the_depth_bound() {
        let mut w = ShardWorker::new(whole_path_init());
        let r = w
            .handle(Request::Start {
                task: Task::Balls,
                depth: 2,
                num_balls: 1,
                sources: vec![(0, 1)],
            })
            .unwrap();
        let Response::Expanded { outgoing, pending } = r else {
            panic!("expected Expanded")
        };
        assert!(outgoing.is_empty());
        assert!(pending);
        // Drive empty rounds until quiescent.
        let mut rounds = 0;
        loop {
            let r = w.handle(Request::Round { batches: vec![] }).unwrap();
            let Response::Expanded { outgoing, pending } = r else {
                panic!("expected Expanded")
            };
            assert!(outgoing.is_empty());
            rounds += 1;
            if !pending {
                break;
            }
            assert!(rounds < 10, "runaway");
        }
        let Response::Results { balls } = w.handle(Request::Collect).unwrap() else {
            panic!("expected Results")
        };
        let got: Vec<(VertexId, Dist)> = balls[0].iter().map(|&(v, d, _)| (v, d)).collect();
        assert_eq!(got, vec![(0, 1), (1, 0), (2, 1), (3, 2)]);
    }

    #[test]
    fn out_of_sequence_requests_are_protocol_errors() {
        let mut w = ShardWorker::new(whole_path_init());
        assert!(matches!(
            w.handle(Request::Round { batches: vec![] }),
            Err(WorkerError::Protocol { .. })
        ));
        assert!(matches!(
            w.handle(Request::Collect),
            Err(WorkerError::Protocol { .. })
        ));
        assert!(matches!(
            w.handle(Request::Init(whole_path_init())),
            Err(WorkerError::Protocol { .. })
        ));
    }
}
