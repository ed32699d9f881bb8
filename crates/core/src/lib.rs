//! The paper's primary contribution: ultra-sparse near-additive emulators
//! and sparse near-additive spanners (Elkin & Matar, PODC 2021).
//!
//! A *(1+ε, β)-emulator* of an unweighted undirected graph `G = (V, E)` is a
//! weighted graph `H` on `V` with
//! `d_G(u,v) ≤ d_H(u,v) ≤ (1+ε)·d_G(u,v) + β` for all `u, v`. The paper
//! shows that `H` can have **at most `n^(1+1/κ)` edges** — leading constant
//! exactly 1 — and in particular `n + o(n)` edges when `κ = ω(log n)`.
//!
//! Four constructions are reproduced:
//!
//! * [`centralized`] — Algorithm 1: the superclustering-and-interconnection
//!   (SAI) construction with the paper's novel *buffer sets* `N_i` and the
//!   global charging argument (§2).
//! * [`distributed`] — the deterministic CONGEST-model algorithm (§3):
//!   capped Bellman-Ford popular-cluster detection, ruling sets, BFS ruling
//!   forests, and hub-vertex splitting, in `O(β·n^ρ)` rounds.
//! * [`fast_centralized`] — the centralized simulation of the distributed
//!   algorithm (§3.3), `O(|E|·β·n^ρ)` time.
//! * [`spanner`] — the §4 variant producing *subgraph* spanners with
//!   `O(n^(1+1/κ))` edges (improving EM19's `O(β·n^(1+1/κ))`).
//!
//! Supporting modules: [`params`] (the paper's parameter algebra, §2.1.2,
//! §3.1.1, §4), [`cluster`] (partial partitions `P_i`), [`emulator`] (the
//! output object with per-edge provenance), [`charging`] (the Lemma 2.4
//! ledger), [`verify`] (size/stretch certification), and [`cache`] (the
//! fingerprint-keyed construction cache with the versioned snapshot
//! codec — see the "Caching" section of [`api`]).
//!
//! All constructions are reached through the unified [`api`]: a fluent
//! [`api::EmulatorBuilder`], one validated [`api::BuildConfig`], and the
//! [`api::registry`] catalogue that algorithm-generic consumers iterate.
//! The old per-construction free functions remain as `#[deprecated]`
//! shims until they are removed; new code should use the builder or the
//! registry.
//!
//! # Quickstart
//!
//! ```
//! use usnae_core::api::{Algorithm, Emulator};
//! use usnae_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_connected(200, 0.05, 7)?;
//! let out = Emulator::builder(&g)
//!     .epsilon(0.5)
//!     .kappa(4)
//!     .algorithm(Algorithm::Centralized)
//!     .build()?;
//! // The headline size bound, leading constant 1:
//! assert!(out.num_edges() as f64 <= out.size_bound.unwrap());
//! // And the certified stretch that comes with it:
//! let (alpha, beta) = out.certified.unwrap();
//! assert!(alpha <= 1.5 && beta.is_finite());
//! # Ok(())
//! # }
//! ```

pub mod api;
pub mod cache;
pub mod centralized;
pub mod charging;
pub mod cluster;
pub mod distributed;
pub mod emulator;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fast_centralized;
pub mod hopset;
pub mod oracle;
pub mod params;
pub mod sai;
pub mod serve;
pub mod spanner;
pub mod verify;

pub use api::{Algorithm, BuildConfig, BuildError, BuildOutput, Construction, EmulatorBuilder};
pub use emulator::{EdgeKind, EdgeProvenance, Emulator};
pub use error::ParamError;
pub use oracle::{Certified, EmStore, QueryEngine};
