//! Unified per-engine work counters.
//!
//! The paper argues GAT wins because it prunes with location and
//! activity *simultaneously*; wall-clock alone cannot show that. Every
//! engine already counts its work (trajectory fetches in the baselines,
//! the full [`atsq_gat::IoStats`] pipeline in GAT); this module puts
//! those counters behind one [`EngineCounters`] snapshot so experiments
//! can report pruning power next to latency.

use crate::{Engine, GatEngine};
use atsq_baselines::{IlEngine, IrtEngine, RtEngine};

/// Work performed by an engine since the last reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    /// Candidate trajectories considered.
    pub candidates: u64,
    /// Full match-distance evaluations (`Dmm` / `Dmom`).
    pub distance_evals: u64,
    /// Candidates discarded by the TAS sketch before touching data
    /// (GAT only; zero elsewhere).
    pub tas_pruned: u64,
    /// TAS passes later refuted by the APL (sketch false positives).
    pub tas_false_positives: u64,
    /// APL posting-list fetches (GAT only).
    pub apl_reads: u64,
    /// Cold HICL accesses — index pages the paper serves from disk
    /// (GAT only).
    pub cold_reads: u64,
}

impl EngineCounters {
    /// Fraction of candidates eliminated before a distance evaluation,
    /// clamped to `[0, 1]`. The raw counters can transiently report
    /// `distance_evals > candidates` when a reset races in-flight
    /// queries (see `IoStats::reset` in `atsq-gat`); a monitoring
    /// ratio must saturate at zero rather than go negative.
    pub fn prune_ratio(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            (1.0 - self.distance_evals as f64 / self.candidates as f64).max(0.0)
        }
    }
}

/// A per-query counter delta from `atsq-obs` maps onto the same
/// vocabulary as the engine-lifetime counters, including the derived
/// TAS-pruned figure.
impl From<atsq_obs::QueryCounters> for EngineCounters {
    fn from(c: atsq_obs::QueryCounters) -> EngineCounters {
        EngineCounters {
            candidates: c.candidates,
            distance_evals: c.distance_evals,
            tas_pruned: c.tas_checks.saturating_sub(c.apl_reads),
            tas_false_positives: c.tas_false_positives,
            apl_reads: c.apl_reads,
            cold_reads: c.cold_reads,
        }
    }
}

/// Engines that expose their work counters.
pub trait Profiled {
    /// Snapshot of the counters since the last reset.
    fn counters(&self) -> EngineCounters;
    /// Zeroes the counters.
    fn reset_counters(&self);
}

/// Totals over the traversal and every verification part: candidates
/// are charged to the part that verifies them, cold HICL reads to the
/// traversal.
impl Profiled for GatEngine {
    fn counters(&self) -> EngineCounters {
        counters_from_io(self.index().stats())
    }
    fn reset_counters(&self) {
        self.index().reset_stats();
    }
}

fn counters_from_io(s: atsq_gat::stats::IoSnapshot) -> EngineCounters {
    EngineCounters {
        candidates: s.candidates_retrieved,
        distance_evals: s.distances_computed,
        // Every candidate that passes the sketch proceeds to the APL,
        // so the TAS discards are checks minus APL reads.
        tas_pruned: s.tas_checks.saturating_sub(s.apl_reads),
        tas_false_positives: s.tas_false_positives,
        apl_reads: s.apl_reads,
        cold_reads: s.hicl_cold_reads,
    }
}

impl EngineCounters {
    /// Component-wise sum — aggregates per-shard counters into one.
    pub fn sum(counters: impl IntoIterator<Item = EngineCounters>) -> EngineCounters {
        counters
            .into_iter()
            .fold(EngineCounters::default(), |a, b| EngineCounters {
                candidates: a.candidates + b.candidates,
                distance_evals: a.distance_evals + b.distance_evals,
                tas_pruned: a.tas_pruned + b.tas_pruned,
                tas_false_positives: a.tas_false_positives + b.tas_false_positives,
                apl_reads: a.apl_reads + b.apl_reads,
                cold_reads: a.cold_reads + b.cold_reads,
            })
    }
}

/// The baselines evaluate the distance of every trajectory they fetch,
/// so `candidates == distance_evals == fetches`.
macro_rules! profiled_baseline {
    ($engine:ty) => {
        impl Profiled for $engine {
            fn counters(&self) -> EngineCounters {
                let fetches = self.fetches();
                EngineCounters {
                    candidates: fetches,
                    distance_evals: fetches,
                    ..EngineCounters::default()
                }
            }
            fn reset_counters(&self) {
                self.reset_fetches();
            }
        }
    };
}

profiled_baseline!(IlEngine);
profiled_baseline!(RtEngine);
profiled_baseline!(IrtEngine);

impl Profiled for Engine {
    fn counters(&self) -> EngineCounters {
        match self {
            Engine::Gat(e) => e.counters(),
            Engine::Il(e) => e.counters(),
            Engine::Rt(e) => e.counters(),
            Engine::Irt(e) => e.counters(),
        }
    }
    fn reset_counters(&self) {
        match self {
            Engine::Gat(e) => e.reset_counters(),
            Engine::Il(e) => e.reset_counters(),
            Engine::Rt(e) => e.reset_counters(),
            Engine::Irt(e) => e.reset_counters(),
        }
    }
}

impl Engine {
    /// The GAT index when it has more than one verification part —
    /// the engines whose per-shard and router figures are reported.
    fn sharded_index(&self) -> Option<&atsq_gat::GatIndex> {
        match self {
            Engine::Gat(e) if e.index().shard_count() > 1 => Some(e.index()),
            _ => None,
        }
    }

    /// Work counters broken out per shard — one entry per part for a
    /// sharded GAT index, a single entry otherwise. Serving stats use
    /// this to expose per-shard candidate counts.
    pub fn per_shard_counters(&self) -> Vec<EngineCounters> {
        match self.sharded_index() {
            Some(index) => index
                .per_shard_stats()
                .into_iter()
                .map(counters_from_io)
                .collect(),
            None => vec![self.counters()],
        }
    }

    /// Accumulated engine busy time per shard in nanoseconds — one
    /// entry per part for a sharded GAT index, empty otherwise (an
    /// unsharded engine has no parts to account).
    pub fn per_shard_busy_ns(&self) -> Vec<u64> {
        self.sharded_index()
            .map_or_else(Vec::new, |index| index.per_shard_busy_ns())
    }

    /// Counters of a sharded index's traversal (cold HICL reads spent
    /// generating candidates); `None` for unsharded engines. The
    /// traversal never records candidates — each candidate is charged
    /// to the owner part that verifies it — so folding this into an
    /// aggregate never perturbs per-shard candidate sums.
    pub fn router_counters(&self) -> Option<EngineCounters> {
        self.sharded_index()
            .map(|index| counters_from_io(index.router_stats()))
    }

    /// Accumulated router busy time of a sharded index in nanoseconds;
    /// `None` for unsharded engines.
    pub fn router_busy_ns(&self) -> Option<u64> {
        self.sharded_index().map(|index| index.router_busy_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryEngine;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

    #[test]
    fn counters_track_work_and_reset() {
        let dataset = generate(&CityConfig::tiny(5)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
        for e in &engines {
            e.reset_counters();
            assert_eq!(e.counters(), EngineCounters::default(), "{}", e.name());
            let mut results = 0;
            for q in &queries {
                results += e.atsq(&dataset, q, 5).len();
            }
            let c = e.counters();
            if results > 0 {
                assert!(c.candidates > 0, "{} saw no candidates", e.name());
                assert!(c.distance_evals > 0, "{}", e.name());
                assert!(c.distance_evals <= c.candidates, "{}", e.name());
            }
            e.reset_counters();
            assert_eq!(e.counters(), EngineCounters::default());
        }
    }

    #[test]
    fn gat_prunes_where_baselines_cannot() {
        let dataset = generate(&CityConfig::tiny(21)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 6);
        let mut by_name = std::collections::HashMap::new();
        for e in &engines {
            e.reset_counters();
            for q in &queries {
                let _ = e.atsq(&dataset, q, 5);
            }
            by_name.insert(e.name(), e.counters());
        }
        let gat = by_name["GAT"];
        let il = by_name["IL"];
        // GAT's pipeline counters only exist for GAT.
        assert!(gat.apl_reads > 0);
        assert_eq!(il.apl_reads, 0);
        assert_eq!(il.prune_ratio(), 0.0);
        // GAT evaluates no more distances than the activity-only
        // baseline, which must refine every activity match.
        assert!(gat.distance_evals <= il.distance_evals);
    }

    #[test]
    fn prune_ratio_bounds() {
        let c = EngineCounters {
            candidates: 10,
            distance_evals: 3,
            ..EngineCounters::default()
        };
        assert!((c.prune_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(EngineCounters::default().prune_ratio(), 0.0);
    }

    /// A reset racing in-flight queries can leave
    /// `distance_evals > candidates`; the ratio must clamp at zero,
    /// not report a negative pruning fraction.
    #[test]
    fn prune_ratio_clamps_at_zero_under_torn_counters() {
        let torn = EngineCounters {
            candidates: 3,
            distance_evals: 10,
            ..EngineCounters::default()
        };
        assert_eq!(torn.prune_ratio(), 0.0);
        // And a fully-unpruned engine reports exactly zero.
        let even = EngineCounters {
            candidates: 5,
            distance_evals: 5,
            ..EngineCounters::default()
        };
        assert_eq!(even.prune_ratio(), 0.0);
    }

    /// The obs-layer per-query delta converts with the same derived
    /// TAS-pruned rule as the engine-lifetime mapping.
    #[test]
    fn query_counters_convert_to_engine_counters() {
        let qc = atsq_obs::QueryCounters {
            candidates: 10,
            distance_evals: 4,
            tas_checks: 9,
            tas_false_positives: 1,
            apl_reads: 6,
            cold_reads: 2,
        };
        let ec = EngineCounters::from(qc);
        assert_eq!(ec.candidates, 10);
        assert_eq!(ec.distance_evals, 4);
        assert_eq!(ec.tas_pruned, 3);
        assert_eq!(ec.tas_false_positives, 1);
        assert_eq!(ec.apl_reads, 6);
        assert_eq!(ec.cold_reads, 2);
    }
}
