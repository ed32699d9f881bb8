//! Seeded inputs: connected G(n, p) graphs written as edge lists, and
//! query pairs with hot and uniform sources.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use usnae_graph::rng::Rng;
use usnae_graph::{generators, io as gio, Graph, VertexId};

/// Average degree of every generated graph.
pub const AVG_DEGREE: f64 = 12.0;

/// Pairs per query batch.
pub const BATCH_PAIRS: usize = 20;

/// Size of the pool hot query sources are drawn from: so far under a
/// query engine's default tree cache (64) that hot sources stay cached
/// while the uniform half of each batch misses, so every batch builds
/// about the same number of trees.
const HOT_SOURCES: usize = 8;

/// Derives an independent stream seed from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the seeded connected G(n, p) with average degree
/// [`AVG_DEGREE`] and writes it to `path` as an edge list.
pub fn write_graph(path: &Path, n: usize, seed: u64) -> Result<(), String> {
    let p = AVG_DEGREE / (n - 1) as f64;
    let g = generators::gnp_connected(n, p, seed).map_err(|e| e.to_string())?;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    gio::write_edge_list(&g, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads an edge-list file.
pub fn load_graph(path: &Path) -> Result<Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    gio::read_edge_list(BufReader::new(file), 0).map_err(|e| format!("{}: {e}", path.display()))
}

/// Query pairs with uniform targets. Mixed pairs alternate: even pairs
/// draw their source from a seeded permutation's first [`HOT_SOURCES`]
/// vertices, odd pairs uniformly, so a bounded tree cache sees about as
/// many hits as misses in every batch, and batches cost about the same.
/// Hot pairs draw every source from the hot pool, so a warm tree cache
/// answers every pair. Uniform pairs draw every source uniformly, so
/// every batch costs about one tree per pair.
pub struct Pairs {
    rng: Rng,
    /// The hot source pool; empty for uniform pairs.
    hot: Vec<VertexId>,
    /// Odd pairs draw uniform sources.
    mixed: bool,
    n: usize,
}

impl Pairs {
    /// Mixed pairs; the hot pool depends on `seed` only.
    pub fn new(n: usize, seed: u64, stream: u64) -> Pairs {
        Pairs {
            mixed: true,
            ..Pairs::hot(n, seed, stream)
        }
    }

    /// Hot pairs, over the same hot pool as [`Pairs::new`].
    pub fn hot(n: usize, seed: u64, stream: u64) -> Pairs {
        let mut perm: Vec<VertexId> = (0..n).collect();
        Rng::seed_from_u64(seed).shuffle(&mut perm);
        perm.truncate(HOT_SOURCES.min(n));
        Pairs {
            hot: perm,
            ..Pairs::uniform(n, seed, stream)
        }
    }

    pub fn uniform(n: usize, seed: u64, stream: u64) -> Pairs {
        Pairs {
            rng: Rng::seed_from_u64(derive(seed, stream)),
            hot: Vec::new(),
            mixed: false,
            n,
        }
    }

    /// The first `k` hot sources.
    pub fn hottest(&self, k: usize) -> &[VertexId] {
        &self.hot[..k.min(self.hot.len())]
    }

    pub fn batch(&mut self) -> Vec<(VertexId, VertexId)> {
        (0..BATCH_PAIRS)
            .map(|i| {
                let u = if self.hot.is_empty() || (self.mixed && i % 2 == 1) {
                    self.rng.gen_index(self.n)
                } else {
                    self.hot[self.rng.gen_index(self.hot.len())]
                };
                (u, self.rng.gen_index(self.n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_repeat_per_seed_and_skew_to_hot_sources() {
        let mut a = Pairs::new(1000, 7, 1);
        let mut b = Pairs::new(1000, 7, 1);
        assert_eq!(a.batch(), b.batch());
        let hot = a.hottest(HOT_SOURCES).to_vec();
        let batch = a.batch();
        for (i, (u, _)) in batch.iter().enumerate().step_by(2) {
            assert!(hot.contains(u), "pair {i} should have a hot source");
        }
        let hits = (0..100)
            .flat_map(|_| a.batch())
            .filter(|(u, _)| hot.contains(u))
            .count();
        assert!(hits < 1100, "odd pairs should be uniform ({hits}/2000)");
        let mut h = Pairs::hot(1000, 7, 1);
        assert!(h.batch().iter().all(|(u, _)| hot.contains(u)));
        let mut u = Pairs::uniform(1000, 7, 1);
        assert_eq!(u.batch().len(), BATCH_PAIRS);
        assert_ne!(derive(1, 2), derive(2, 1));
    }
}
