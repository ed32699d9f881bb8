//! The unified build configuration and the paper-construction selector.

use crate::centralized::ProcessingOrder;
use crate::error::ParamError;
use crate::params::{CentralizedParams, DistributedParams, SpannerParams};
use usnae_graph::partition::PartitionPolicy;
use usnae_workers::TransportKind;

/// The paper constructions selectable through
/// [`EmulatorBuilder`](crate::api::EmulatorBuilder).
///
/// Baselines are not variants here — they come in through the
/// [`Construction`](crate::api::Construction) trait (see the adapter in
/// `usnae-baselines`), which keeps this enum closed over what the paper
/// actually proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Algorithm 1 (§2): sequential superclustering with buffer sets.
    #[default]
    Centralized,
    /// The fast centralized simulation of the distributed pipeline (§3.3).
    FastCentralized,
    /// The deterministic CONGEST-model construction (§3).
    Distributed,
    /// The §4 subgraph spanner (centralized).
    Spanner,
    /// The §4 subgraph spanner built in the CONGEST simulator.
    DistributedSpanner,
}

impl Algorithm {
    /// All paper constructions, registry order.
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::Centralized,
            Algorithm::FastCentralized,
            Algorithm::Distributed,
            Algorithm::Spanner,
            Algorithm::DistributedSpanner,
        ]
    }

    /// The registry name of this construction.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Centralized => "centralized",
            Algorithm::FastCentralized => "fast-centralized",
            Algorithm::Distributed => "distributed",
            Algorithm::Spanner => "spanner",
            Algorithm::DistributedSpanner => "distributed-spanner",
        }
    }

    /// Parses a registry name back into the selector.
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::all().into_iter().find(|a| a.name() == s)
    }

    /// Whether this construction runs on the CONGEST simulator (and hence
    /// reports [`CongestStats`](crate::api::CongestStats)).
    pub fn runs_on_congest(&self) -> bool {
        matches!(self, Algorithm::Distributed | Algorithm::DistributedSpanner)
    }

    /// The trait object driving this selector.
    pub fn construction(&self) -> Box<dyn crate::api::Construction> {
        use crate::api::constructions::*;
        match self {
            Algorithm::Centralized => Box::new(Centralized),
            Algorithm::FastCentralized => Box::new(FastCentralized),
            Algorithm::Distributed => Box::new(Distributed),
            Algorithm::Spanner => Box::new(Spanner),
            Algorithm::DistributedSpanner => Box::new(DistributedSpanner),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One validated parameter set shared by every
/// [`Construction`](crate::api::Construction)
/// (paper constructions and baselines alike).
///
/// Replaces the per-construction triple
/// `CentralizedParams`/`DistributedParams`/`SpannerParams` at the API
/// surface; each construction derives its own schedule from the fields it
/// uses and ignores the rest ([`Supports`](crate::api::Supports) documents
/// which is which).
///
/// `BuildConfig` is a full `Eq + Hash` key: the float fields (`ε`, `ρ`)
/// hash by their normalized bit patterns (`-0.0` folds onto `0.0`), and
/// [`validate`](Self::validate) rejects NaN/infinite values up front, so
/// every config a construction accepts is safely usable as a cache-map key.
/// For cross-process keys (the on-disk construction cache) use
/// [`stable_digest`](Self::stable_digest), which promises the same bytes on
/// every platform and toolchain — `std`'s hashers do not.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildConfig {
    /// Stretch parameter `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Sparsity parameter `κ ≥ 2` (size bound `n^(1+1/κ)`).
    pub kappa: u32,
    /// Round exponent `ρ ∈ [1/κ, 1/2]` for the §3/§4 schedules.
    pub rho: f64,
    /// Skip the paper's ε-rescaling (§2.2.4 / §3.2.4): keeps multi-phase
    /// structure alive at simulable sizes.
    pub raw_epsilon: bool,
    /// Center processing order (Algorithm 1; others are order-free).
    pub order: ProcessingOrder,
    /// Retain the per-phase [`Trace`](crate::api::Trace) on the output.
    pub traced: bool,
    /// Seed for randomized constructions (TZ06/EN17a baselines).
    pub seed: u64,
    /// Worker threads for the sharded exploration phases (1 = sequential;
    /// must be ≥ 1). Output is byte-identical for every thread count.
    pub threads: usize,
    /// Partitioned-graph layout: CSR shards the input is split into for
    /// the exploration phases (0 = the shared adjacency array; ≥ 1 builds
    /// that many per-worker shards, clamped to `n`). Output is
    /// byte-identical for every shard count and policy.
    pub shards: usize,
    /// Partitioning strategy used when `shards >= 1`.
    pub partition: PartitionPolicy,
    /// Execution substrate for the sharded exploration phases:
    /// [`TransportKind::Inproc`] (default) runs the in-process fan-out;
    /// `Channel`/`Process`/`Socket` move each shard's work to its owning
    /// worker (requires `shards >= 1`) and record measured
    /// [`MessageStats`](crate::api::MessageStats). Output is
    /// byte-identical for every transport.
    pub transport: TransportKind,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            epsilon: 0.5,
            kappa: 4,
            rho: 0.5,
            raw_epsilon: false,
            order: ProcessingOrder::ById,
            traced: false,
            seed: 0,
            threads: 1,
            shards: 0,
            partition: PartitionPolicy::Range,
            transport: TransportKind::Inproc,
        }
    }
}

/// Normalizes a float for hashing/digesting: `-0.0` and `0.0` compare
/// equal, so they must fold onto one bit pattern (NaN never reaches a
/// digest — `validate` rejects it).
fn float_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

// `PartialEq` is derived; the float fields are the only obstacle to `Eq`,
// and `validate` rejects NaN (the one non-reflexive value), so promoting
// the derived partial equivalence to a total one is sound for every config
// a construction will accept. This is what lets `BuildConfig` key caches.
impl Eq for BuildConfig {}

impl std::hash::Hash for BuildConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with the derived PartialEq: floats hash by normalized
        // bit pattern, everything else by value. Destructured so adding a
        // field to BuildConfig is a compile error here until it is hashed.
        let BuildConfig {
            epsilon,
            kappa,
            rho,
            raw_epsilon,
            order,
            traced,
            seed,
            threads,
            shards,
            partition,
            transport,
        } = self;
        float_bits(*epsilon).hash(state);
        kappa.hash(state);
        float_bits(*rho).hash(state);
        raw_epsilon.hash(state);
        order.hash(state);
        traced.hash(state);
        seed.hash(state);
        threads.hash(state);
        shards.hash(state);
        partition.hash(state);
        transport.hash(state);
    }
}

impl BuildConfig {
    /// Validates the construction-independent fields: `threads >= 1` and
    /// finite `ε`/`ρ`. Every [`Construction`](crate::api::Construction)
    /// calls this before deriving its parameter schedule, so `threads == 0`
    /// surfaces as [`BuildError::Param`](crate::api::BuildError) instead of
    /// a panic inside the sharded phase loop, and a NaN float never becomes
    /// a cache key.
    ///
    /// # Errors
    ///
    /// [`ParamError::ZeroThreads`] when `threads == 0`;
    /// [`ParamError::NonFinite`] when `ε` or `ρ` is NaN or infinite;
    /// [`ParamError::TransportNeedsShards`] when a worker transport is
    /// requested without a partitioned layout (`shards == 0`).
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.threads == 0 {
            return Err(ParamError::ZeroThreads);
        }
        if self.transport != TransportKind::Inproc && self.shards == 0 {
            return Err(ParamError::TransportNeedsShards {
                transport: self.transport.name(),
            });
        }
        if !self.epsilon.is_finite() {
            return Err(ParamError::NonFinite {
                field: "epsilon",
                value: self.epsilon,
            });
        }
        if !self.rho.is_finite() {
            return Err(ParamError::NonFinite {
                field: "rho",
                value: self.rho,
            });
        }
        Ok(())
    }

    /// Cross-process digest of the *output-relevant* key fields — what the
    /// on-disk construction cache keys on, alongside the graph fingerprint
    /// and algorithm name.
    ///
    /// Two deliberate exclusions, both justified by the determinism
    /// guarantee (see [`crate::api`]): `threads` never changes the built
    /// stream, and `traced` only toggles whether the in-memory trace is
    /// retained — so a warm entry built at any thread count serves every
    /// other. Everything else (`ε`, `κ`, `ρ`, `raw_epsilon`, `order`,
    /// `seed`) is folded in via the workspace FNV primitive, which is
    /// stable across platforms and toolchains.
    pub fn stable_digest(&self) -> u64 {
        // Destructured so a future output-relevant field cannot be
        // forgotten here silently (which would serve stale cache hits):
        // adding a field breaks this binding until it is either folded in
        // below or explicitly listed as output-irrelevant.
        let BuildConfig {
            epsilon,
            kappa,
            rho,
            raw_epsilon,
            order,
            seed,
            traced: _,    // retention of the in-memory trace only
            threads: _,   // never changes the built stream (determinism)
            shards: _,    // sharded layout is byte-identical to shared
            partition: _, // ditto — enforced by partition_conformance.rs
            transport: _, // ditto — enforced by worker_conformance.rs
        } = self;
        let mut d = usnae_graph::metrics::Fnv64::new();
        d.write_u64(float_bits(*epsilon));
        d.write_u64(u64::from(*kappa));
        d.write_u64(float_bits(*rho));
        d.write_u64(u64::from(*raw_epsilon));
        d.write_u64(match order {
            ProcessingOrder::ById => 0,
            ProcessingOrder::ByIdDesc => 1,
            ProcessingOrder::ByDegreeDesc => 2,
            ProcessingOrder::ByDegreeAsc => 3,
        });
        d.write_u64(*seed);
        d.finish()
    }

    /// Derives the §2.1.2 parameter schedule, honoring
    /// [`raw_epsilon`](Self::raw_epsilon).
    ///
    /// # Errors
    ///
    /// [`ParamError`] when `ε` or `κ` violates its precondition.
    pub fn centralized_params(&self) -> Result<CentralizedParams, ParamError> {
        if self.raw_epsilon {
            CentralizedParams::with_raw_epsilon(self.epsilon, self.kappa)
        } else {
            CentralizedParams::new(self.epsilon, self.kappa)
        }
    }

    /// Derives the §3.1.1 parameter schedule.
    ///
    /// # Errors
    ///
    /// [`ParamError`] when `ε`, `κ` or `ρ` violates its precondition.
    pub fn distributed_params(&self) -> Result<DistributedParams, ParamError> {
        if self.raw_epsilon {
            DistributedParams::with_raw_epsilon(self.epsilon, self.kappa, self.rho)
        } else {
            DistributedParams::new(self.epsilon, self.kappa, self.rho)
        }
    }

    /// Derives the §4 parameter schedule.
    ///
    /// # Errors
    ///
    /// [`ParamError`] when `ε`, `κ` or `ρ` violates its precondition.
    pub fn spanner_params(&self) -> Result<SpannerParams, ParamError> {
        if self.raw_epsilon {
            SpannerParams::with_raw_epsilon(self.epsilon, self.kappa, self.rho)
        } else {
            SpannerParams::new(self.epsilon, self.kappa, self.rho)
        }
    }

    /// The headline size bound `n^(1+1/κ)` shared by all paper schedules.
    pub fn size_bound(&self, n: usize) -> f64 {
        (n as f64).powf(1.0 + 1.0 / self.kappa as f64)
    }

    /// The graph view this config's exploration phases read from: the
    /// shared adjacency array (`shards == 0`) or a freshly partitioned
    /// [`ShardedCsr`](usnae_graph::partition::ShardedCsr) under
    /// [`partition`](Self::partition).
    pub fn graph_view<'g, S: usnae_graph::AdjStorage>(
        &self,
        g: &'g usnae_graph::GraphCore<S>,
    ) -> usnae_graph::partition::GraphView<'g, S> {
        usnae_graph::partition::GraphView::new(g, self.partition, self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_round_trip() {
        for a in Algorithm::all() {
            assert_eq!(Algorithm::parse(a.name()), Some(a));
            assert_eq!(a.to_string(), a.name());
        }
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn default_config_is_valid_everywhere() {
        let cfg = BuildConfig::default();
        assert!(cfg.validate().is_ok());
        assert!(cfg.centralized_params().is_ok());
        assert!(cfg.distributed_params().is_ok());
        assert!(cfg.spanner_params().is_ok());
    }

    #[test]
    fn zero_threads_rejected_with_param_error() {
        let cfg = BuildConfig {
            threads: 0,
            ..BuildConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ParamError::ZeroThreads));
        for threads in [1usize, 2, 8, 128] {
            let cfg = BuildConfig {
                threads,
                ..BuildConfig::default()
            };
            assert!(cfg.validate().is_ok(), "threads={threads}");
        }
    }

    #[test]
    fn non_finite_floats_rejected_before_they_can_key_a_cache() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let eps = BuildConfig {
                epsilon: bad,
                ..BuildConfig::default()
            };
            assert!(matches!(
                eps.validate(),
                Err(ParamError::NonFinite {
                    field: "epsilon",
                    ..
                })
            ));
            let rho = BuildConfig {
                rho: bad,
                ..BuildConfig::default()
            };
            assert!(matches!(
                rho.validate(),
                Err(ParamError::NonFinite { field: "rho", .. })
            ));
        }
    }

    #[test]
    fn config_is_a_hash_map_key() {
        use std::collections::HashMap;
        let mut m: HashMap<BuildConfig, &str> = HashMap::new();
        m.insert(BuildConfig::default(), "default");
        let again = BuildConfig::default();
        assert_eq!(m.get(&again), Some(&"default"));
        let other = BuildConfig {
            kappa: 8,
            ..BuildConfig::default()
        };
        assert!(!m.contains_key(&other));
    }

    #[test]
    fn hash_respects_zero_normalization() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let pos = BuildConfig {
            rho: 0.0,
            ..BuildConfig::default()
        };
        let neg = BuildConfig {
            rho: -0.0,
            ..BuildConfig::default()
        };
        assert_eq!(pos, neg, "derived PartialEq treats ±0.0 as equal");
        let digest = |c: &BuildConfig| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&pos), digest(&neg), "so Hash must too");
        assert_eq!(pos.stable_digest(), neg.stable_digest());
    }

    #[test]
    fn stable_digest_keys_on_output_relevant_fields_only() {
        let base = BuildConfig::default();
        // threads, traced, and the partitioned layout never change the
        // built stream — same key.
        let threaded = BuildConfig {
            threads: 8,
            traced: true,
            shards: 4,
            partition: PartitionPolicy::DegreeBalanced,
            transport: TransportKind::Channel,
            ..base.clone()
        };
        assert_eq!(base.stable_digest(), threaded.stable_digest());
        // Every output-relevant field must move the digest.
        let variants = [
            BuildConfig {
                epsilon: 0.25,
                ..base.clone()
            },
            BuildConfig {
                kappa: 6,
                ..base.clone()
            },
            BuildConfig {
                rho: 0.4,
                ..base.clone()
            },
            BuildConfig {
                raw_epsilon: true,
                ..base.clone()
            },
            BuildConfig {
                order: ProcessingOrder::ByDegreeDesc,
                ..base.clone()
            },
            BuildConfig {
                seed: 99,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(base.stable_digest(), v.stable_digest(), "{v:?}");
        }
    }

    #[test]
    fn worker_transports_require_a_partitioned_layout() {
        for kind in [TransportKind::Channel, TransportKind::Process] {
            let unsharded = BuildConfig {
                transport: kind,
                ..BuildConfig::default()
            };
            assert_eq!(
                unsharded.validate(),
                Err(ParamError::TransportNeedsShards {
                    transport: kind.name()
                })
            );
            let sharded = BuildConfig {
                transport: kind,
                shards: 2,
                ..BuildConfig::default()
            };
            assert!(sharded.validate().is_ok());
        }
    }

    #[test]
    fn raw_epsilon_flows_through() {
        let cfg = BuildConfig {
            raw_epsilon: true,
            ..BuildConfig::default()
        };
        assert_eq!(
            cfg.centralized_params().unwrap().schedule().eps_internal,
            0.5
        );
        let rescaled = BuildConfig::default().centralized_params().unwrap();
        assert!(rescaled.schedule().eps_internal < 0.1);
    }

    #[test]
    fn size_bound_matches_params() {
        let cfg = BuildConfig::default();
        let p = cfg.centralized_params().unwrap();
        assert!((cfg.size_bound(1000) - p.size_bound(1000)).abs() < 1e-9);
    }
}
