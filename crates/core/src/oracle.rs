//! The distance-oracle query engine: the serving half of the product.
//!
//! The paper motivates near-additive emulators through approximate
//! shortest-path computation: answering `d(u, v)` queries from a structure
//! with `n + o(n)` edges instead of the full graph. This module turns a
//! built structure into a query server:
//!
//! * [`QueryEngine`] — wraps any build result (a live
//!   [`BuildOutput`] or an opened
//!   [`OutputBackend`], e.g. a stored snapshot)
//!   and answers distance queries with a **certified** `(α, β)` bound
//!   threaded from the construction's proof object: every answer `d̂`
//!   satisfies `d_G(u,v) ≤ d̂ ≤ α·d_G(u,v) + β`.
//! * Batched queries ([`QueryEngine::distances`]) share SSSP trees across
//!   the batch: pairs are oriented toward their most-frequent endpoint, so
//!   `k` queries from one hub cost one Dijkstra, not `k`.
//! * The per-source tree cache is a **bounded, deterministic LRU**
//!   ([`TreeCache`]): capacity is by entries, eviction is oldest-recently-
//!   used first, and iteration order is defined (LRU → MRU) — a many-source
//!   workload can no longer grow the cache without bound, and two runs of
//!   the same query stream evict identically.
//! * [`LandmarkIndex`] — a deterministic precomputed landmark set
//!   (highest-degree-first, ties broken by ascending id) giving O(#landmarks)
//!   approximate answers with a *certified* `(α, β + 2R)` bound, where `R`
//!   is the measured covering radius of the landmark set on `H`.
//!
//! Answers are a pure function of the underlying emulator: shortest-path
//! distances are unique, so batching, caching, eviction, thread count of
//! the producing build, and the backend the structure was loaded from can
//! never change an answer — `tests/query_conformance.rs` enforces this
//! registry-wide, byte-identical across backends and repeat runs.

use crate::api::backend::OutputBackend;
use crate::api::BuildOutput;
use crate::cache::{MappedEmulator, SnapshotError};
use crate::centralized::{build_centralized, ProcessingOrder};
use crate::emulator::Emulator;
use crate::error::ParamError;
use crate::params::CentralizedParams;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use usnae_graph::{Dist, Graph, VertexId};

/// A query answer carrying the certified stretch bound it was served
/// under: `d_G ≤ value ≤ α·d_G + β` (for connected pairs; `value` is
/// `None` when the pair is disconnected in `H`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certified<T> {
    /// The answer.
    pub value: T,
    /// Certified multiplicative stretch of this answer.
    pub alpha: f64,
    /// Certified additive stretch of this answer (`f64::INFINITY` when the
    /// producing construction certifies none).
    pub beta: f64,
}

impl Certified<Option<Dist>> {
    /// Checks this answer against an exact distance: lower bound
    /// `exact ≤ value`, upper bound `value ≤ α·exact + β`, and agreement on
    /// disconnection. The conformance suite calls this on every golden
    /// query.
    pub fn holds_against(&self, exact: Option<Dist>) -> bool {
        match (exact, self.value) {
            (None, None) => true,
            // `H` must never connect what `G` does not, and a finite exact
            // distance with an unreachable answer violates the upper bound
            // (unless no bound is certified).
            (None, Some(_)) => false,
            (Some(_), None) => !self.beta.is_finite(),
            (Some(d), Some(a)) => (a >= d) && (a as f64 <= self.alpha * d as f64 + self.beta),
        }
    }
}

/// Bounded per-source SSSP tree cache with deterministic LRU eviction.
///
/// The capacity bounds the number of retained trees (each is `O(n)`), so a
/// many-source workload holds at most `capacity · n` distance words —
/// previously the cache was an unbounded `HashMap` that was cleared
/// wholesale on overflow. Recency is tracked in an explicit queue, so
/// eviction order is a pure function of the access sequence (no map
/// iteration order anywhere).
#[derive(Debug)]
pub struct TreeCache {
    trees: HashMap<VertexId, Vec<Option<Dist>>>,
    /// Access order, least-recently-used first.
    order: VecDeque<VertexId>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl TreeCache {
    /// An empty cache retaining at most `capacity` trees (min 1).
    pub fn new(capacity: usize) -> Self {
        TreeCache {
            trees: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of trees currently retained.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether no tree is retained.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Cached sources in deterministic order, least-recently-used first.
    pub fn sources(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.order.iter().copied()
    }

    fn touch(&mut self, source: VertexId) {
        if let Some(pos) = self.order.iter().position(|&s| s == source) {
            self.order.remove(pos);
            self.order.push_back(source);
        }
    }

    /// The tree for `source`, refreshing its recency on a hit.
    pub fn get(&mut self, source: VertexId) -> Option<&Vec<Option<Dist>>> {
        if self.trees.contains_key(&source) {
            self.hits += 1;
            self.touch(source);
            self.trees.get(&source)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Peeks without counting or refreshing (batch planning).
    pub fn peek(&self, source: VertexId) -> Option<&Vec<Option<Dist>>> {
        self.trees.get(&source)
    }

    /// Inserts a freshly computed tree as most-recently-used, evicting the
    /// least-recently-used entries while over capacity.
    pub fn insert(&mut self, source: VertexId, tree: Vec<Option<Dist>>) {
        if self.trees.insert(source, tree).is_some() {
            self.touch(source);
            return;
        }
        self.order.push_back(source);
        while self.trees.len() > self.capacity {
            let victim = self.order.pop_front().expect("order tracks every entry");
            self.trees.remove(&victim);
            self.evictions += 1;
        }
    }
}

/// Where a [`QueryEngine`]'s structure lives: on this process's heap (the
/// default — every live build) or served straight from a mapped v4
/// snapshot file ([`MappedEmulator`]), which is how
/// [`QueryEngine::open`] over a
/// [`MappedBackend`](crate::api::MappedBackend) answers certified queries
/// without ever materializing the structure. Both stores answer every
/// query identically — shortest distances are unique, so the storage
/// layout cannot change an answer.
#[derive(Debug)]
pub enum EmStore {
    /// A live in-memory emulator.
    Heap(Emulator),
    /// A served v4 snapshot (Dijkstra over the mapped CSR section).
    Mapped(MappedEmulator),
}

impl EmStore {
    /// Vertex count of the structure.
    pub fn num_vertices(&self) -> usize {
        match self {
            EmStore::Heap(h) => h.num_vertices(),
            EmStore::Mapped(m) => m.num_vertices(),
        }
    }

    /// Distinct-edge count of the structure.
    pub fn num_edges(&self) -> usize {
        match self {
            EmStore::Heap(h) => h.num_edges(),
            EmStore::Mapped(m) => m.num_edges(),
        }
    }

    /// Degree of `v` (distinct neighbors — identical across stores).
    pub fn degree(&self, v: VertexId) -> usize {
        match self {
            EmStore::Heap(h) => h.graph().degree(v),
            EmStore::Mapped(m) => m.degree(v),
        }
    }

    /// Single-source distances in `H`.
    pub fn distances_from(&self, source: VertexId) -> Vec<Option<Dist>> {
        match self {
            EmStore::Heap(h) => h.distances_from(source),
            EmStore::Mapped(m) => m.distances_from(source),
        }
    }

    /// The live emulator, when this store holds one on the heap.
    pub fn as_heap(&self) -> Option<&Emulator> {
        match self {
            EmStore::Heap(h) => Some(h),
            EmStore::Mapped(_) => None,
        }
    }
}

/// Deterministic landmark index over an emulator: `k` landmarks chosen
/// highest-degree-first (ties broken by ascending vertex id — the seeded,
/// reproducible tie-break), one precomputed SSSP tree each, and the
/// measured covering radius `R = max_v min_L d_H(L, v)`.
///
/// An approximate answer `min_L d_H(u,L) + d_H(L,v)` routes through the
/// best landmark in `O(k)` time; the triangle inequality certifies
/// `d̂ ≤ d_H(u,v) + 2R`, so the index serves answers under the certified
/// pair `(α, β + 2R)` whenever the emulator certifies `(α, β)` and every
/// vertex is covered by some landmark.
#[derive(Debug, Clone)]
pub struct LandmarkIndex {
    landmarks: Vec<VertexId>,
    trees: Vec<Vec<Option<Dist>>>,
    /// `None` when some vertex is unreachable from every landmark (then no
    /// additive bound can be certified for uncovered pairs).
    radius: Option<Dist>,
}

impl LandmarkIndex {
    /// Builds the index over either store: picks `min(k, n)` landmarks by
    /// descending emulator degree (ascending id on ties) and runs one
    /// Dijkstra each. Degrees and distances are identical across stores,
    /// so so is the index.
    pub(crate) fn build_store(store: &EmStore, k: usize) -> Self {
        let n = store.num_vertices();
        let mut by_degree: Vec<VertexId> = (0..n).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(store.degree(v)), v));
        let landmarks: Vec<VertexId> = by_degree.into_iter().take(k).collect();
        let trees: Vec<Vec<Option<Dist>>> =
            landmarks.iter().map(|&l| store.distances_from(l)).collect();
        let mut radius: Option<Dist> = Some(0);
        for v in 0..n {
            let nearest = trees.iter().filter_map(|t| t[v]).min();
            match (nearest, &mut radius) {
                (Some(d), Some(r)) => *r = (*r).max(d),
                _ => radius = None,
            }
            if radius.is_none() {
                break;
            }
        }
        if landmarks.is_empty() {
            radius = None;
        }
        LandmarkIndex {
            landmarks,
            trees,
            radius,
        }
    }

    /// The chosen landmarks, selection order (degree-descending).
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Measured covering radius `R` of the landmark set on `H`, when every
    /// vertex is reachable from some landmark.
    pub fn radius(&self) -> Option<Dist> {
        self.radius
    }

    /// `min_L d_H(u,L) + d_H(L,v)` — `None` when no landmark reaches both.
    pub fn estimate(&self, u: VertexId, v: VertexId) -> Option<Dist> {
        if u == v {
            return Some(0);
        }
        self.trees.iter().filter_map(|t| Some(t[u]? + t[v]?)).min()
    }
}

/// Aggregate counters of one engine's lifetime (diagnostics and the CLI
/// `query --report` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Distance queries answered (batched queries count individually).
    pub queries: u64,
    /// SSSP trees computed (the expensive step).
    pub tree_builds: u64,
    /// Queries answered from a cached tree.
    pub cache_hits: u64,
    /// Trees evicted by the LRU bound.
    pub evictions: u64,
    /// Queries answered through the landmark index.
    pub landmark_queries: u64,
}

/// Default per-source tree retention of a fresh engine.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// The `(α, β)`-certified distance-oracle query engine.
///
/// Construct one from a live build ([`QueryEngine::from_output`], builder
/// [`query_engine`](crate::api::EmulatorBuilder::query_engine)) or from any
/// opened [`OutputBackend`] ([`QueryEngine::open`]) — e.g. a
/// [`SnapshotBackend`](crate::api::SnapshotBackend) over a stored cache
/// entry, so a serving process never re-runs the construction.
///
/// # Example
///
/// ```
/// use usnae_core::api::{Algorithm, Emulator};
/// use usnae_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_connected(200, 0.05, 3)?;
/// let engine = Emulator::builder(&g)
///     .epsilon(0.5)
///     .kappa(4)
///     .algorithm(Algorithm::Centralized)
///     .query_engine()?;
/// let (alpha, beta) = engine.guarantee();
/// let answers = engine.distances(&[(0, 100), (0, 150), (7, 100)]);
/// for a in &answers {
///     let d = a.value.expect("connected");
///     assert!(d >= 1 && alpha >= 1.0 && beta >= 0.0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    store: EmStore,
    algorithm: String,
    alpha: f64,
    beta: f64,
    cache: RefCell<TreeCache>,
    landmarks: Option<LandmarkIndex>,
    queries: Cell<u64>,
    tree_builds: Cell<u64>,
    landmark_queries: Cell<u64>,
}

impl QueryEngine {
    /// An engine over an emulator with its certified stretch pair (`None`
    /// = uncertified: `α = 1`, `β = ∞` — the lower bound still holds, every
    /// emulator here is distance-nondecreasing).
    pub fn new(
        emulator: Emulator,
        algorithm: impl Into<String>,
        certified: Option<(f64, f64)>,
    ) -> Self {
        QueryEngine::from_store(EmStore::Heap(emulator), algorithm, certified)
    }

    /// An engine over either store — how [`open`](Self::open) serves a
    /// mapped snapshot without materializing it.
    pub fn from_store(
        store: EmStore,
        algorithm: impl Into<String>,
        certified: Option<(f64, f64)>,
    ) -> Self {
        let (alpha, beta) = certified.unwrap_or((1.0, f64::INFINITY));
        QueryEngine {
            store,
            algorithm: algorithm.into(),
            alpha,
            beta,
            cache: RefCell::new(TreeCache::new(DEFAULT_CACHE_CAPACITY)),
            landmarks: None,
            queries: Cell::new(0),
            tree_builds: Cell::new(0),
            landmark_queries: Cell::new(0),
        }
    }

    /// Wraps a build result, borrowing its certification (the emulator is
    /// cloned; use [`BuildOutput::into_query_engine`] to avoid the copy).
    pub fn from_output(out: &BuildOutput) -> Self {
        QueryEngine::new(out.emulator.clone(), out.algorithm, out.certified)
    }

    /// Opens an engine over any output backend, threading through the
    /// backend's certified pair. Heap-style backends materialize the
    /// emulator once (for a
    /// [`SnapshotBackend`](crate::api::SnapshotBackend) this decodes and
    /// verifies the stored snapshot; the construction itself never
    /// re-runs); a [`MappedBackend`](crate::api::MappedBackend) is served
    /// straight from its snapshot file — certified answers with **no full
    /// materialization** (see [`OutputBackend::serve`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a persistent backend cannot be read back.
    pub fn open(backend: &dyn OutputBackend) -> Result<Self, SnapshotError> {
        Ok(QueryEngine::from_store(
            backend.serve()?,
            backend.algorithm().to_string(),
            backend.certified(),
        ))
    }

    /// Sets how many SSSP trees the LRU cache retains (min 1).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.cache.borrow_mut().capacity = capacity.max(1);
        {
            // Shrink immediately if the new bound is tighter.
            let mut cache = self.cache.borrow_mut();
            while cache.trees.len() > cache.capacity {
                let victim = cache.order.pop_front().expect("order tracks entries");
                cache.trees.remove(&victim);
                cache.evictions += 1;
            }
        }
        self
    }

    /// Precomputes a [`LandmarkIndex`] of `k` landmarks (0 removes it).
    pub fn with_landmarks(mut self, k: usize) -> Self {
        self.landmarks = (k > 0).then(|| LandmarkIndex::build_store(&self.store, k));
        self
    }

    /// The certified `(α, β)` of every exact-path answer.
    pub fn guarantee(&self) -> (f64, f64) {
        (self.alpha, self.beta)
    }

    /// The certified pair of landmark answers: `(α, β + 2R)` when a
    /// landmark index with a finite covering radius exists, the exact-path
    /// pair otherwise (landmark-less engines answer exactly).
    pub fn landmark_guarantee(&self) -> (f64, f64) {
        match self.landmarks.as_ref().and_then(LandmarkIndex::radius) {
            Some(r) => (self.alpha, self.beta + 2.0 * r as f64),
            None => (self.alpha, self.beta),
        }
    }

    /// Registry name of the construction that produced the structure.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The underlying emulator, when this engine holds one on the heap
    /// (`None` for an engine served from a mapped snapshot — the whole
    /// point is that no live emulator exists).
    pub fn emulator(&self) -> Option<&Emulator> {
        self.store.as_heap()
    }

    /// Where the structure answering queries lives.
    pub fn store(&self) -> &EmStore {
        &self.store
    }

    /// Vertex count of the structure answering queries.
    pub fn num_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    /// Size of the structure answering queries (`|H|`).
    pub fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    /// The landmark index, when one was precomputed.
    pub fn landmark_index(&self) -> Option<&LandmarkIndex> {
        self.landmarks.as_ref()
    }

    /// Number of cached SSSP trees (diagnostics).
    pub fn cached_sources(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Lifetime counters of this engine.
    pub fn stats(&self) -> QueryStats {
        let cache = self.cache.borrow();
        let (hits, _misses, evictions) = cache.counters();
        QueryStats {
            queries: self.queries.get(),
            tree_builds: self.tree_builds.get(),
            cache_hits: hits,
            evictions,
            landmark_queries: self.landmark_queries.get(),
        }
    }

    fn sssp_tree(&self, source: VertexId) -> Vec<Option<Dist>> {
        self.tree_builds.set(self.tree_builds.get() + 1);
        self.store.distances_from(source)
    }

    fn certified(&self, value: Option<Dist>) -> Certified<Option<Dist>> {
        Certified {
            value,
            alpha: self.alpha,
            beta: self.beta,
        }
    }

    /// Approximate distance between `u` and `v` under the certified pair.
    ///
    /// The first query from a source runs one Dijkstra on the emulator and
    /// caches the tree (bounded LRU); later queries from `u` *or toward* a
    /// cached source are lookups.
    pub fn distance(&self, u: VertexId, v: VertexId) -> Certified<Option<Dist>> {
        self.queries.set(self.queries.get() + 1);
        if u == v {
            return self.certified(Some(0));
        }
        {
            let mut cache = self.cache.borrow_mut();
            if let Some(tree) = cache.get(u) {
                let d = tree[v];
                return self.certified(d);
            }
            if let Some(tree) = cache.get(v) {
                let d = tree[u];
                return self.certified(d);
            }
        }
        let tree = self.sssp_tree(u);
        let answer = tree[v];
        self.cache.borrow_mut().insert(u, tree);
        self.certified(answer)
    }

    /// Batched queries: one answer per input pair, in input order, sharing
    /// SSSP trees across the batch.
    ///
    /// Pairs answered by an already-cached endpoint cost a lookup; the
    /// rest are oriented toward their most-frequent endpoint in the batch
    /// (ties toward the smaller id), grouped, and each distinct source
    /// costs exactly one Dijkstra. Answers are identical to issuing the
    /// queries one by one — shortest distances are unique.
    pub fn distances(&self, pairs: &[(VertexId, VertexId)]) -> Vec<Certified<Option<Dist>>> {
        self.queries.set(self.queries.get() + pairs.len() as u64);
        let mut answers: Vec<Option<Certified<Option<Dist>>>> = vec![None; pairs.len()];

        // Batch planning: frequency of each endpoint over the whole batch.
        let mut frequency: BTreeMap<VertexId, usize> = BTreeMap::new();
        for &(u, v) in pairs {
            if u != v {
                *frequency.entry(u).or_insert(0) += 1;
                *frequency.entry(v).or_insert(0) += 1;
            }
        }

        // Pass 1: identities and pairs served by an already-cached tree.
        let mut pending: BTreeMap<VertexId, Vec<(usize, VertexId)>> = BTreeMap::new();
        {
            let mut cache = self.cache.borrow_mut();
            for (idx, &(u, v)) in pairs.iter().enumerate() {
                if u == v {
                    answers[idx] = Some(self.certified(Some(0)));
                    continue;
                }
                if let Some(tree) = cache.get(u) {
                    let d = tree[v];
                    answers[idx] = Some(self.certified(d));
                    continue;
                }
                if let Some(tree) = cache.get(v) {
                    let d = tree[u];
                    answers[idx] = Some(self.certified(d));
                    continue;
                }
                // Orient toward the endpoint more useful to the batch.
                let (fu, fv) = (frequency[&u], frequency[&v]);
                let source = if fu > fv || (fu == fv && u < v) { u } else { v };
                let target = if source == u { v } else { u };
                pending.entry(source).or_default().push((idx, target));
            }
        }

        // Pass 2: one Dijkstra per distinct remaining source, ascending
        // source id (deterministic tree-build and eviction order).
        for (source, targets) in pending {
            let tree = self.sssp_tree(source);
            for (idx, target) in targets {
                answers[idx] = Some(self.certified(tree[target]));
            }
            self.cache.borrow_mut().insert(source, tree);
        }

        answers
            .into_iter()
            .map(|a| a.expect("every pair answered"))
            .collect()
    }

    /// O(#landmarks) approximate distance through the landmark index,
    /// certified at [`landmark_guarantee`](Self::landmark_guarantee).
    /// Falls back to [`distance`](Self::distance) (a stronger bound) when
    /// no landmark index was precomputed.
    pub fn approx_distance(&self, u: VertexId, v: VertexId) -> Certified<Option<Dist>> {
        let Some(index) = &self.landmarks else {
            return self.distance(u, v);
        };
        self.queries.set(self.queries.get() + 1);
        self.landmark_queries.set(self.landmark_queries.get() + 1);
        let (alpha, beta) = self.landmark_guarantee();
        Certified {
            value: index.estimate(u, v),
            alpha,
            beta,
        }
    }
}

impl BuildOutput {
    /// Consumes this build result into a [`QueryEngine`] (no emulator
    /// copy). The builder's
    /// [`query_engine`](crate::api::EmulatorBuilder::query_engine) is the
    /// fluent form.
    pub fn into_query_engine(self) -> QueryEngine {
        QueryEngine::new(self.emulator, self.algorithm, self.certified)
    }
}

/// A `(1+ε, β)`-approximate distance oracle over the centralized
/// construction — the historical convenience wrapper, now a thin shell
/// around [`QueryEngine`] (bounded deterministic LRU included).
///
/// # Example
///
/// ```
/// use usnae_core::oracle::ApproxDistanceOracle;
/// use usnae_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_connected(200, 0.05, 3)?;
/// let oracle = ApproxDistanceOracle::build(&g, 0.5, 4)?;
/// let (alpha, beta) = oracle.guarantee();
/// let d = oracle.query(0, 100).expect("connected");
/// assert!(d as f64 >= 1.0 && alpha >= 1.0 && beta >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ApproxDistanceOracle {
    engine: QueryEngine,
}

impl ApproxDistanceOracle {
    /// Builds the centralized emulator (Algorithm 1) and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamError`] from parameter validation.
    pub fn build(g: &Graph, epsilon: f64, kappa: u32) -> Result<Self, ParamError> {
        let params = CentralizedParams::new(epsilon, kappa)?;
        let (alpha, beta) = params.certified_stretch();
        let (emulator, _) = build_centralized(g, &params, ProcessingOrder::ById);
        Ok(Self::from_emulator(emulator, alpha, beta))
    }

    /// Wraps an existing emulator with its certified stretch pair.
    pub fn from_emulator(emulator: Emulator, alpha: f64, beta: f64) -> Self {
        ApproxDistanceOracle {
            engine: QueryEngine::new(emulator, "centralized", Some((alpha, beta))),
        }
    }

    /// Sets how many SSSP trees the cache retains before evicting.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.engine = self.engine.with_cache_capacity(capacity);
        self
    }

    /// The certified `(α, β)` guarantee of every answer.
    pub fn guarantee(&self) -> (f64, f64) {
        self.engine.guarantee()
    }

    /// The underlying emulator (oracles always build on the heap).
    pub fn emulator(&self) -> &Emulator {
        self.engine
            .emulator()
            .expect("oracle engines are heap-backed")
    }

    /// The engine answering this oracle's queries.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Size of the structure answering queries (`|H|`).
    pub fn num_edges(&self) -> usize {
        self.engine.num_edges()
    }

    /// Approximate distance between `u` and `v` (`None` if disconnected).
    pub fn query(&self, u: VertexId, v: VertexId) -> Option<Dist> {
        self.engine.distance(u, v).value
    }

    /// Number of cached SSSP trees (diagnostics).
    pub fn cached_sources(&self) -> usize {
        self.engine.cached_sources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, BuildConfig, Emulator as ApiEmulator};
    use usnae_graph::distance::Apsp;
    use usnae_graph::generators;

    #[test]
    fn answers_match_emulator_distances() {
        let g = generators::gnp_connected(100, 0.07, 5).unwrap();
        let oracle = ApproxDistanceOracle::build(&g, 0.5, 4).unwrap();
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 40, 3) {
            assert_eq!(oracle.query(u, v), oracle.emulator().distance(u, v));
        }
    }

    #[test]
    fn answers_respect_guarantee() {
        let g = generators::gnp_connected(120, 0.06, 7).unwrap();
        let oracle = ApproxDistanceOracle::build(&g, 0.5, 4).unwrap();
        let (alpha, beta) = oracle.guarantee();
        let apsp = Apsp::new(&g);
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 60, 9) {
            let exact = apsp.distance(u, v).unwrap();
            let approx = oracle.query(u, v).unwrap();
            assert!(approx >= exact);
            assert!(approx as f64 <= alpha * exact as f64 + beta);
        }
    }

    #[test]
    fn identity_and_disconnected_queries() {
        let g = usnae_graph::Graph::from_edges(4, &[(0, 1)]).unwrap();
        let oracle = ApproxDistanceOracle::build(&g, 0.5, 2).unwrap();
        assert_eq!(oracle.query(2, 2), Some(0));
        assert_eq!(oracle.query(0, 3), None);
        assert_eq!(oracle.query(0, 1), Some(1));
    }

    #[test]
    fn caching_symmetric_and_bounded() {
        let g = generators::grid2d(8, 8).unwrap();
        let oracle = ApproxDistanceOracle::build(&g, 0.5, 3)
            .unwrap()
            .with_cache_capacity(2);
        let a = oracle.query(0, 63);
        assert_eq!(oracle.cached_sources(), 1);
        // Reverse direction answered from the cached tree of 0.
        let b = oracle.query(63, 0);
        assert_eq!(a, b);
        assert_eq!(oracle.cached_sources(), 1);
        oracle.query(5, 6);
        oracle.query(7, 8); // exceeds capacity: LRU-evicts the oldest tree
        assert_eq!(oracle.cached_sources(), 2, "bounded, not cleared");
    }

    #[test]
    fn lru_eviction_is_deterministic_and_bounded() {
        let mut cache = TreeCache::new(2);
        cache.insert(1, vec![Some(0)]);
        cache.insert(2, vec![Some(0)]);
        // Touch 1: now 2 is the LRU entry.
        assert!(cache.get(1).is_some());
        cache.insert(3, vec![Some(0)]);
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(2).is_none(), "LRU entry evicted");
        assert_eq!(cache.sources().collect::<Vec<_>>(), vec![1, 3]);
        let (hits, misses, evictions) = cache.counters();
        assert_eq!((hits, evictions), (1, 1));
        assert_eq!(misses, 0);
        // Re-inserting an existing source refreshes, never grows.
        cache.insert(1, vec![Some(0)]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.sources().collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn many_source_workload_stays_bounded() {
        let g = generators::gnp_connected(80, 0.08, 11).unwrap();
        let engine = ApiEmulator::builder(&g)
            .kappa(4)
            .query_engine()
            .unwrap()
            .with_cache_capacity(8);
        // 80 distinct sources — the old unbounded map would hold all 80.
        for u in 0..80 {
            engine.distance(u, (u + 13) % 80);
        }
        assert!(engine.cached_sources() <= 8);
        let stats = engine.stats();
        assert_eq!(stats.queries, 80);
        assert!(stats.evictions > 0, "the bound actually evicted");
    }

    #[test]
    fn batched_answers_equal_individual_answers() {
        let g = generators::gnp_connected(90, 0.07, 13).unwrap();
        let cfg = BuildConfig::default();
        let out = Algorithm::Centralized
            .construction()
            .build(&g, &cfg)
            .unwrap();
        let batch_engine = QueryEngine::from_output(&out);
        let single_engine = QueryEngine::from_output(&out).with_cache_capacity(1);
        let pairs = usnae_graph::distance::sample_pairs(&g, 60, 5);
        let batched = batch_engine.distances(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(batched[i].value, single_engine.distance(u, v).value);
        }
        // The batch shared trees: strictly fewer Dijkstras than queries.
        assert!(batch_engine.stats().tree_builds < pairs.len() as u64);
    }

    #[test]
    fn batch_shares_trees_across_a_hub() {
        let g = generators::grid2d(7, 7).unwrap();
        let engine = ApiEmulator::builder(&g).kappa(3).query_engine().unwrap();
        // 10 queries all touching vertex 0: one tree suffices.
        let pairs: Vec<(usize, usize)> = (1..11).map(|v| (v, 0)).collect();
        let answers = engine.distances(&pairs);
        assert!(answers.iter().all(|a| a.value.is_some()));
        assert_eq!(engine.stats().tree_builds, 1, "hub tree shared");
    }

    #[test]
    fn landmark_index_is_deterministic_and_certified() {
        let g = generators::gnp_connected(100, 0.08, 17).unwrap();
        let out = Algorithm::Centralized
            .construction()
            .build(&g, &BuildConfig::default())
            .unwrap();
        let e1 = QueryEngine::from_output(&out).with_landmarks(8);
        let e2 = QueryEngine::from_output(&out).with_landmarks(8);
        assert_eq!(
            e1.landmark_index().unwrap().landmarks(),
            e2.landmark_index().unwrap().landmarks(),
            "landmark choice is deterministic"
        );
        let (la, lb) = e1.landmark_guarantee();
        let (a, b) = e1.guarantee();
        assert_eq!(la, a);
        assert!(lb >= b, "landmark bound is the exact bound plus 2R");
        let apsp = Apsp::new(&g);
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 50, 23) {
            let exact = apsp.distance(u, v);
            let approx = e1.approx_distance(u, v);
            assert!(
                approx.holds_against(exact),
                "({u},{v}): {approx:?} vs {exact:?}"
            );
            // The landmark answer never undershoots the exact engine path.
            assert!(approx.value.unwrap() >= e1.distance(u, v).value.unwrap());
        }
        assert!(e1.stats().landmark_queries > 0);
    }

    #[test]
    fn landmarkless_approx_falls_back_to_exact() {
        let g = generators::grid2d(5, 5).unwrap();
        let engine = ApiEmulator::builder(&g).kappa(3).query_engine().unwrap();
        assert!(engine.landmark_index().is_none());
        assert_eq!(
            engine.approx_distance(0, 24).value,
            engine.distance(0, 24).value
        );
        assert_eq!(engine.landmark_guarantee(), engine.guarantee());
    }

    #[test]
    fn certified_holds_against_semantics() {
        let c = Certified {
            value: Some(10u64),
            alpha: 1.5,
            beta: 4.0,
        };
        assert!(c.holds_against(Some(10)));
        assert!(c.holds_against(Some(7))); // 1.5*7+4 = 14.5 >= 10 >= 7
        assert!(!c.holds_against(Some(11))); // undershoots the exact distance
        assert!(!c.holds_against(Some(3))); // 1.5*3+4 = 8.5 < 10
        assert!(!c.holds_against(None));
        let unreachable = Certified {
            value: None,
            alpha: 1.5,
            beta: 4.0,
        };
        assert!(unreachable.holds_against(None));
        assert!(!unreachable.holds_against(Some(2)));
        let uncertified = Certified {
            value: None,
            alpha: 1.0,
            beta: f64::INFINITY,
        };
        assert!(
            uncertified.holds_against(Some(2)),
            "no upper bound certified"
        );
    }

    #[test]
    fn engine_over_uncertified_output_still_lower_bounds() {
        let g = generators::gnp_connected(60, 0.1, 7).unwrap();
        let h = Emulator::from_provenance(
            60,
            Algorithm::Centralized
                .construction()
                .build(&g, &BuildConfig::default())
                .unwrap()
                .emulator
                .provenance()
                .to_vec(),
        );
        let engine = QueryEngine::new(h, "anonymous", None);
        let (alpha, beta) = engine.guarantee();
        assert_eq!(alpha, 1.0);
        assert!(beta.is_infinite());
        let apsp = Apsp::new(&g);
        for (u, v) in usnae_graph::distance::sample_pairs(&g, 30, 3) {
            assert!(engine.distance(u, v).holds_against(apsp.distance(u, v)));
        }
    }
}
