//! Execution policy and timing records shared by every construction.
//!
//! [`BuildConfig::threads`](crate::api::BuildConfig) flows through the
//! constructions as a plain `usize`; this module holds the bookkeeping
//! that rides along: per-phase wall-clock timings (with exploration
//! counts, so benchmarks can report phase-0 parallel speedups) and the
//! chunk-size policy for the prefetching sharded phases.

use std::time::{Duration, Instant};

pub use usnae_graph::partition::ShardTiming;
pub use usnae_workers::socket::WORKERS_ADDR_ENV;
pub use usnae_workers::{MessageStats, PairStats, TransportKind};

/// Wall-clock record of one construction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase index `i`.
    pub phase: usize,
    /// Wall-clock time of the whole phase.
    pub duration: Duration,
    /// Bounded-BFS explorations launched this phase (the sharded work).
    pub explorations: usize,
}

/// How a build's output was obtained relative to the construction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStatus {
    /// No cache was consulted (the default for direct builds).
    #[default]
    Uncached,
    /// The cache was consulted, had no valid entry, and the build ran the
    /// construction (storing the result when the cache is writable).
    Miss,
    /// The output was loaded from a verified snapshot; no phase work ran.
    Hit,
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheStatus::Uncached => "off",
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
        })
    }
}

/// Execution statistics of one build: thread count, total wall clock, and
/// per-phase timings where the construction records them — the sharded
/// centralized/fast/spanner family, the EM19 baseline, *and* the CONGEST
/// simulations (whose `explorations` count the detection sources
/// simulated per phase), so `usnae run --report` is uniform across the
/// registry; the other baseline adapters report the total alone.
///
/// A cache hit is visible here: `cache == CacheStatus::Hit` with `phases`
/// empty (no phase work ran — `total` is just the snapshot load time).
///
/// A partitioned build (`BuildConfig::shards >= 1` on a construction that
/// shards its explorations) additionally records one [`ShardTiming`] per
/// CSR shard: owned vertices, local/cut edge counts, and the wall clock of
/// that shard's layout construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BuildStats {
    /// Thread count the build ran with (`BuildConfig::threads`).
    pub threads: usize,
    /// Total build wall clock.
    pub total: Duration,
    /// Per-phase timings, phase order (empty when not instrumented).
    pub phases: Vec<PhaseTiming>,
    /// Per-shard records of the partitioned graph layout, shard order
    /// (empty for shared-array builds and for constructions that do not
    /// read from shards).
    pub shards: Vec<ShardTiming>,
    /// Which transport ran the sharded exploration phases
    /// ([`TransportKind::Inproc`] for the shared in-process fan-out).
    pub transport: TransportKind,
    /// **Measured** message statistics of a worker-pool build (`Some` only
    /// when `transport` is channel/process/socket on a sharded
    /// construction): exchange rounds driven, frontier messages and bytes
    /// per shard pair. Only exploration traffic counts; the output stream
    /// never crosses the wire.
    pub messages: Option<MessageStats>,
    /// Whether this output came from the construction cache.
    pub cache: CacheStatus,
}

impl BuildStats {
    /// Time spent in phase 0 — the dominant, sharded exploration phase —
    /// when it was recorded.
    pub fn phase0(&self) -> Option<Duration> {
        self.phases.first().map(|p| p.duration)
    }

    /// Total explorations across recorded phases.
    pub fn explorations(&self) -> usize {
        self.phases.iter().map(|p| p.explorations).sum()
    }
}

/// Collects [`PhaseTiming`]s as a build's phase loop runs.
#[derive(Debug, Default)]
pub struct PhaseClock {
    phases: Vec<PhaseTiming>,
}

impl PhaseClock {
    /// A clock with no phases recorded.
    pub fn new() -> Self {
        PhaseClock::default()
    }

    /// Times `f` as phase `phase`; `f` returns `(result, explorations)`.
    pub fn measure<T>(&mut self, phase: usize, f: impl FnOnce() -> (T, usize)) -> T {
        let t0 = Instant::now();
        let (out, explorations) = f();
        self.phases.push(PhaseTiming {
            phase,
            duration: t0.elapsed(),
            explorations,
        });
        out
    }

    /// The recorded timings, phase order.
    pub fn into_phases(self) -> Vec<PhaseTiming> {
        self.phases
    }
}

/// Adaptive prefetch policy for the sharded center-processing phases.
///
/// A phase prefetches explorations for a chunk of centers, then consumes
/// them sequentially; a center that was superclustered or buffered by an
/// earlier center in the chunk wastes its prefetched ball. The chunk size
/// is therefore adaptive: it grows (toward `256·threads`) while prefetched
/// balls are being used, and shrinks (toward `threads`) when most of a
/// chunk went stale — which happens in late phases, where `δ_i` is large
/// and one supercluster absorbs almost everything. With one thread the
/// chunk is pinned to 1: exactly the historical lazy loop.
///
/// The chunk size never affects the built output (consumption re-checks
/// every center's status), only the wasted work, so this policy is free to
/// adapt without breaking the byte-identical determinism contract.
#[derive(Debug, Clone)]
pub struct ChunkPolicy {
    threads: usize,
    chunk: usize,
}

impl ChunkPolicy {
    /// Policy for a phase running on `threads` workers.
    pub fn new(threads: usize) -> Self {
        ChunkPolicy {
            threads,
            chunk: if threads <= 1 { 1 } else { threads * 8 },
        }
    }

    /// Centers to prefetch in the next chunk (≥ 1).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Adapts to the last chunk: `prefetched` balls computed, `used` of
    /// them actually consumed.
    pub fn record(&mut self, prefetched: usize, used: usize) {
        if self.threads <= 1 || prefetched == 0 {
            return;
        }
        if used * 2 < prefetched {
            self.chunk = (self.chunk / 2).max(self.threads);
        } else if used * 4 >= prefetched * 3 {
            self.chunk = (self.chunk * 2).min(self.threads * 256);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_records_phase_order_and_explorations() {
        let mut clock = PhaseClock::new();
        let a: u32 = clock.measure(0, || (1, 10));
        let b: u32 = clock.measure(1, || (2, 0));
        assert_eq!((a, b), (1, 2));
        let phases = clock.into_phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, 0);
        assert_eq!(phases[0].explorations, 10);
        assert_eq!(phases[1].explorations, 0);
    }

    #[test]
    fn stats_accessors() {
        let stats = BuildStats {
            threads: 4,
            total: Duration::from_millis(5),
            cache: CacheStatus::Uncached,
            shards: Vec::new(),
            transport: TransportKind::Inproc,
            messages: None,
            phases: vec![
                PhaseTiming {
                    phase: 0,
                    duration: Duration::from_millis(3),
                    explorations: 100,
                },
                PhaseTiming {
                    phase: 1,
                    duration: Duration::from_millis(1),
                    explorations: 7,
                },
            ],
        };
        assert_eq!(stats.phase0(), Some(Duration::from_millis(3)));
        assert_eq!(stats.explorations(), 107);
        assert_eq!(BuildStats::default().phase0(), None);
    }

    #[test]
    fn sequential_chunk_is_lazy() {
        let mut p = ChunkPolicy::new(1);
        assert_eq!(p.chunk(), 1);
        p.record(1, 0);
        assert_eq!(p.chunk(), 1, "sequential policy never grows");
        assert_eq!(ChunkPolicy::new(0).chunk(), 1);
    }

    #[test]
    fn parallel_chunk_adapts_to_staleness() {
        let mut p = ChunkPolicy::new(4);
        let initial = p.chunk();
        assert!(initial >= 4);
        // Fully-used chunks grow toward the cap.
        for _ in 0..20 {
            let c = p.chunk();
            p.record(c, c);
        }
        assert_eq!(p.chunk(), 4 * 256);
        // Mostly-stale chunks shrink back to the floor.
        for _ in 0..20 {
            let c = p.chunk();
            p.record(c, 0);
        }
        assert_eq!(p.chunk(), 4);
    }
}
