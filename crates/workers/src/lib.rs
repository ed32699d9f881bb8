//! Multi-worker shard runtime with explicit frontier-message exchange.
//!
//! PR 5's [`usnae_graph::partition::ShardedCsr`] gave every build a
//! per-worker CSR shard layout with cut-edge frontier lists, but the
//! exploration work still ran in one process through a shared in-process
//! fan-out, so shard-to-shard communication stayed *simulated*. This crate
//! moves each shard's exploration work to its **owning worker** and
//! exchanges cut-edge frontier data as explicit typed messages, making
//! round and message counts **measured** quantities.
//!
//! Three layers:
//!
//! * [`proto`] — the typed message vocabulary ([`Request`] / [`Response`] /
//!   [`Candidate`]) and the length-prefixed binary wire codec the process
//!   transport speaks (magic, version, per-frame FNV-64 checksum — the same
//!   framing conventions as the `usnae_core::cache` snapshot codec).
//! * [`worker`] — [`ShardWorker`]: the per-shard state machine that runs
//!   level-synchronous bounded BFS over its local CSR arrays, absorbing
//!   incoming frontier candidates and emitting outgoing ones each round.
//! * Three [`Transport`]s behind one trait, driven by the [`WorkerPool`]:
//!   [`channel::ChannelTransport`] (one OS thread per shard, bounded mpsc
//!   channels), [`process::ProcessTransport`] (spawned `usnae-worker`
//!   child processes over stdin/stdout pipes, kill-on-drop), and
//!   [`socket::SocketTransport`] (the same framed protocol over TCP —
//!   loopback-spawned `usnae-worker --listen` children by default,
//!   pre-started remote workers via `USNAE_WORKERS_ADDR`).
//!
//! Workers also hold **output partitions**: at round end the driver ships
//! each worker the output records it owns ([`Request::Retain`]) and
//! streams them back lazily ([`Request::FetchRetained`]), so a build's
//! output can stay sharded across the pool until a consumer merges it.
//!
//! # Determinism contract
//!
//! For every transport, shard count, and worker interleaving, the results
//! returned by [`WorkerPool::balls`] and [`WorkerPool::explorations`] are
//! **byte-identical** to the in-process references
//! ([`usnae_graph::par::balls`] and the FIFO-BFS
//! [`usnae_graph::par::Exploration`], the one type both paths return).
//! The mechanisms:
//!
//! * BFS levels advance in lockstep (one exchange barrier per level), so
//!   distances are interleaving-independent by construction;
//! * BFS-tree parents are resolved by a *rank* protocol: each candidate
//!   carries its parent's position in the FIFO queue order of the previous
//!   level, the owner picks the minimum (first-in-queue wins, exactly the
//!   sequential FIFO rule), and a driver-assisted global sort assigns the
//!   next level's queue ranks;
//! * every merge (frontier batches, rank keys, collected balls) drains in
//!   ascending shard id, and workers never iterate hash maps when
//!   producing output.
//!
//! Message statistics ([`MessageStats`]) are computed by the driver from
//! message *counts* times fixed wire sizes, so the channel and process
//! transports report identical numbers for the same build.

pub mod channel;
pub mod error;
pub mod frame;
pub mod pool;
pub mod process;
pub mod proto;
pub mod socket;
pub mod stats;
pub mod worker;

pub use error::WorkerError;
pub use pool::WorkerPool;
pub use proto::{Candidate, OutputRecord, Request, Response, ShardInit, Task};
pub use stats::{MessageStats, PairStats, TransportKind};
pub use worker::ShardWorker;

/// Star-topology message transport: the driver sends one [`Request`] per
/// shard and collects one [`Response`] per shard, in ascending shard id —
/// the round barrier every exchange shares.
pub trait Transport {
    /// Short transport tag (`"channel"` / `"process"` / `"socket"`).
    fn name(&self) -> &'static str;

    /// One round barrier: deliver `reqs[s]` to worker `s`, return the
    /// responses in ascending shard id.
    ///
    /// # Errors
    ///
    /// A typed [`WorkerError`] when any worker is unreachable, died, or
    /// spoke a corrupt frame; never hangs on a dead peer.
    fn exchange(&mut self, reqs: Vec<Request>) -> Result<Vec<Response>, WorkerError>;

    /// Graceful teardown: ask every worker to stop and reap it.
    ///
    /// # Errors
    ///
    /// [`WorkerError`] when a worker did not acknowledge the shutdown.
    fn shutdown(&mut self) -> Result<(), WorkerError>;
}
