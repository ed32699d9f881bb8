//! [`Construction`] adapters: the baseline lineages behind the unified API.
//!
//! Each baseline keeps its own build logic; the adapters translate a
//! [`BuildConfig`] into the parameters the lineage consumes and wrap the
//! result in a [`BuildOutput`]. None of the baselines certifies an
//! `(α, β)` pair through this repository's exact recursions —
//! `certified_stretch` returns `None` and [`Supports::certified`] is false,
//! which is itself part of the comparison the paper draws.

use std::time::Instant;
use usnae_core::api::{
    require_inproc, BuildConfig, BuildError, BuildOutput, BuildStats, Construction, Supports,
};
use usnae_core::engine::{finalize_worker_build, Engine, EngineReport};
use usnae_graph::Graph;

use crate::em19::build_em19_exec;
use crate::en17::build_en17_exec;
use crate::ep01::build_ep01_exec;
use crate::tz06::build_tz06;

/// Execution stats for a baseline build timed as one block (only EM19
/// records per-phase timings, which its adapter adds). A partitioned build
/// contributes its per-shard layout records; a worker build its transport
/// and measured message statistics.
fn timed_stats(cfg: &BuildConfig, t0: Instant, report: EngineReport) -> BuildStats {
    BuildStats {
        threads: cfg.threads,
        total: t0.elapsed(),
        phases: Vec::new(),
        shards: report.shards,
        transport: report.transport,
        messages: report.messages,
        ..BuildStats::default()
    }
}

/// Elkin–Peleg STOC'01: SAI without buffer sets, plus the ground partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ep01;

impl Construction for Ep01 {
    fn name(&self) -> &'static str {
        "ep01"
    }

    fn description(&self) -> &'static str {
        "EP01 baseline: SAI without buffer sets + ground partition (pays n − 1 extra edges)"
    }

    fn supports(&self) -> Supports {
        Supports {
            parallel: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, _cfg: &BuildConfig) -> Option<(f64, f64)> {
        None
    }

    fn size_bound(&self, n: usize, cfg: &BuildConfig) -> Option<f64> {
        // O(log κ · n^(1+1/κ)) + (n − 1): one n^(1+1/κ) interconnection
        // budget per phase plus the spanning forest.
        let ell = cfg.centralized_params().ok()?.ell() as f64;
        Some((ell + 1.0) * cfg.size_bound(n) + n as f64)
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        let params = cfg.centralized_params()?;
        let t0 = Instant::now();
        let engine = Engine::new(g, cfg);
        let emulator = build_ep01_exec(g, &params, &engine);
        let (report, held) = engine.finish_retaining(emulator.provenance())?;
        let mut out = BuildOutput {
            emulator,
            certified: None,
            size_bound: self.size_bound(g.num_vertices(), cfg),
            trace: None,
            congest: None,
            stats: timed_stats(cfg, t0, report),
            algorithm: self.name(),
        };
        finalize_worker_build(&mut out, held, cfg)?;
        Ok(out)
    }
}

/// Thorup–Zwick SODA'06: sampled hierarchy + bunches (randomized).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tz06;

impl Construction for Tz06 {
    fn name(&self) -> &'static str {
        "tz06"
    }

    fn description(&self) -> &'static str {
        "TZ06 baseline: sampled hierarchy + bunches, expected size O(κ·n^(1+1/κ))"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_seed: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, _cfg: &BuildConfig) -> Option<(f64, f64)> {
        None
    }

    fn size_bound(&self, _n: usize, _cfg: &BuildConfig) -> Option<f64> {
        None // expected-size bound only; nothing deterministic to assert
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        if cfg.kappa < 2 {
            // TZ06 only consumes kappa, but the BuildConfig contract
            // (kappa >= 2) still applies: kappa < 2 degenerates the
            // sampling probability and yields a clique.
            return Err(usnae_core::ParamError::KappaTooSmall { kappa: cfg.kappa }.into());
        }
        // TZ06 has no exploration fan-out to hand workers, so a worker
        // transport request is refused outright (a requested partition is
        // still harmless: no shard records, same stream either way).
        require_inproc(self.name(), cfg)?;
        let t0 = Instant::now();
        let report = Engine::inproc(g, cfg.threads).finish()?;
        Ok(BuildOutput {
            emulator: build_tz06(g, cfg.kappa, cfg.seed),
            certified: None,
            size_bound: None,
            trace: None,
            congest: None,
            stats: timed_stats(cfg, t0, report),
            algorithm: self.name(),
        })
    }
}

/// Elkin–Neiman SODA'17: randomized superclustering (sampled centers).
#[derive(Debug, Clone, Copy, Default)]
pub struct En17;

impl Construction for En17 {
    fn name(&self) -> &'static str {
        "en17a"
    }

    fn description(&self) -> &'static str {
        "EN17a baseline: randomized superclustering, linear expected size, no ultra-sparse constant"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_seed: true,
            parallel: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, _cfg: &BuildConfig) -> Option<(f64, f64)> {
        None
    }

    fn size_bound(&self, _n: usize, _cfg: &BuildConfig) -> Option<f64> {
        None // expected-size bound only
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        let params = cfg.centralized_params()?;
        let t0 = Instant::now();
        let engine = Engine::new(g, cfg);
        let emulator = build_en17_exec(g, &params, cfg.seed, &engine);
        let (report, held) = engine.finish_retaining(emulator.provenance())?;
        let mut out = BuildOutput {
            emulator,
            certified: None,
            size_bound: None,
            trace: None,
            congest: None,
            stats: timed_stats(cfg, t0, report),
            algorithm: self.name(),
        };
        finalize_worker_build(&mut out, held, cfg)?;
        Ok(out)
    }
}

/// Elkin–Matar PODC'19: §3-schedule spanner paying the O(β) size factor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Em19;

impl Construction for Em19 {
    fn name(&self) -> &'static str {
        "em19"
    }

    fn description(&self) -> &'static str {
        "EM19 baseline spanner: §3 degree schedule with path insertion, size O(β·n^(1+1/κ))"
    }

    fn supports(&self) -> Supports {
        Supports {
            uses_rho: true,
            parallel: true,
            subgraph: true,
            ..Supports::none()
        }
    }

    fn certified_stretch(&self, _cfg: &BuildConfig) -> Option<(f64, f64)> {
        None
    }

    fn size_bound(&self, _n: usize, _cfg: &BuildConfig) -> Option<f64> {
        None // O(β·n^(1+1/κ)) with an uncharacterized constant
    }

    fn build(&self, g: &Graph, cfg: &BuildConfig) -> Result<BuildOutput, BuildError> {
        cfg.validate()?;
        let params = cfg.distributed_params()?;
        let t0 = Instant::now();
        let engine = Engine::new(g, cfg);
        let (emulator, phases) = build_em19_exec(g, &params, &engine);
        let (report, held) = engine.finish_retaining(emulator.provenance())?;
        let mut out = BuildOutput {
            emulator,
            certified: None,
            size_bound: None,
            trace: None,
            congest: None,
            stats: timed_stats(cfg, t0, report),
            algorithm: self.name(),
        };
        out.stats.phases = phases;
        finalize_worker_build(&mut out, held, cfg)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usnae_graph::generators;

    #[test]
    fn adapters_build_and_identify() {
        let g = generators::gnp_connected(80, 0.08, 3).unwrap();
        let cfg = BuildConfig::default();
        let list: Vec<Box<dyn Construction>> = vec![
            Box::new(Ep01),
            Box::new(Tz06),
            Box::new(En17),
            Box::new(Em19),
        ];
        for c in list {
            let out = c.build(&g, &cfg).unwrap();
            assert_eq!(out.algorithm, c.name());
            assert!(out.num_edges() > 0, "{}", c.name());
            assert!(out.certified.is_none(), "baselines certify nothing");
            if let Some(bound) = out.size_bound {
                assert!(out.num_edges() as f64 <= bound, "{}", c.name());
            }
        }
    }

    #[test]
    fn em19_is_subgraph() {
        let g = generators::gnp_connected(100, 0.1, 5).unwrap();
        let out = Em19.build(&g, &BuildConfig::default()).unwrap();
        assert!(usnae_core::verify::is_subgraph_spanner(
            &g,
            out.emulator.graph()
        ));
    }

    #[test]
    fn em19_records_phase_timings() {
        let g = generators::gnp_connected(100, 0.1, 5).unwrap();
        let out = Em19.build(&g, &BuildConfig::default()).unwrap();
        let phases = &out.stats.phases;
        assert!(!phases.is_empty(), "em19 must time its phases");
        assert!(phases.iter().enumerate().all(|(i, p)| p.phase == i));
        // Phase 0 explores from every singleton cluster's center.
        assert_eq!(phases[0].explorations, 100);
        assert!(
            phases
                .iter()
                .map(|p| p.duration)
                .sum::<std::time::Duration>()
                <= out.stats.total
        );
    }

    #[test]
    fn seeded_baselines_are_deterministic_through_the_adapter() {
        let g = generators::gnp_connected(70, 0.08, 9).unwrap();
        let cfg = BuildConfig {
            seed: 42,
            ..BuildConfig::default()
        };
        for c in [&Tz06 as &dyn Construction, &En17] {
            let a = c.build(&g, &cfg).unwrap();
            let b = c.build(&g, &cfg).unwrap();
            assert_eq!(a.num_edges(), b.num_edges(), "{}", c.name());
        }
    }

    #[test]
    fn zero_threads_rejected_by_every_adapter() {
        let g = generators::path(5).unwrap();
        let cfg = BuildConfig {
            threads: 0,
            ..BuildConfig::default()
        };
        for c in crate::registry::baselines() {
            assert!(c.build(&g, &cfg).is_err(), "{}", c.name());
        }
    }

    #[test]
    fn parallel_adapters_match_sequential_output() {
        let g = generators::gnp_connected(120, 0.06, 4).unwrap();
        for threads in [2usize, 4] {
            let seq = BuildConfig {
                seed: 11,
                ..BuildConfig::default()
            };
            let par = BuildConfig {
                threads,
                ..seq.clone()
            };
            for c in crate::registry::baselines() {
                let a = c.build(&g, &seq).unwrap();
                let b = c.build(&g, &par).unwrap();
                assert_eq!(
                    a.emulator.provenance(),
                    b.emulator.provenance(),
                    "{} threads={threads}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn tz06_refuses_worker_transports() {
        let g = generators::gnp_connected(40, 0.15, 1).unwrap();
        for transport in [
            usnae_core::api::TransportKind::Channel,
            usnae_core::api::TransportKind::Process,
            usnae_core::api::TransportKind::Socket,
        ] {
            let cfg = BuildConfig {
                shards: 2,
                transport,
                ..BuildConfig::default()
            };
            match Tz06.build(&g, &cfg) {
                Err(BuildError::Param(usnae_core::ParamError::TransportUnsupported {
                    algorithm,
                    transport: t,
                })) => {
                    assert_eq!(algorithm, "tz06");
                    assert_eq!(t, transport.name());
                }
                other => panic!("tz06 must refuse {}: got {other:?}", transport.name()),
            }
        }
        assert!(Tz06.build(&g, &BuildConfig::default()).is_ok());
    }

    #[test]
    fn invalid_config_rejected() {
        let g = generators::path(5).unwrap();
        let cfg = BuildConfig {
            epsilon: 7.0,
            ..BuildConfig::default()
        };
        assert!(Ep01.build(&g, &cfg).is_err());
        assert!(En17.build(&g, &cfg).is_err());
        assert!(Em19.build(&g, &cfg).is_err());
        // TZ06 ignores epsilon but must still enforce kappa >= 2.
        let degenerate = BuildConfig {
            kappa: 0,
            ..BuildConfig::default()
        };
        assert!(Tz06.build(&g, &degenerate).is_err());
        assert!(Tz06.build(&g, &BuildConfig::default()).is_ok());
    }
}
