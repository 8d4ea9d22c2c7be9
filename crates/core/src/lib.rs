//! `atsq-core` — the public facade of the activity-trajectory search
//! library, reproducing *Towards Efficient Search for Activity
//! Trajectories* (Zheng, Shang, Yuan & Yang, ICDE 2013).
//!
//! # Quickstart
//!
//! ```
//! use atsq_core::prelude::*;
//!
//! // Build a small dataset by hand (normally: atsq-datagen or your
//! // own check-in import).
//! let mut b = DatasetBuilder::new();
//! let coffee = b.observe_activity("coffee");
//! let art = b.observe_activity("art");
//! b.push_trajectory(vec![
//!     TrajectoryPoint::new(Point::new(0.0, 0.0), ActivitySet::from_ids([coffee])),
//!     TrajectoryPoint::new(Point::new(1.0, 0.0), ActivitySet::from_ids([art])),
//! ]);
//! let dataset = b.finish().unwrap();
//!
//! // Index it with GAT and run an ATSQ.
//! let engine = GatEngine::build(&dataset).unwrap();
//! let coffee = dataset.vocabulary().get("coffee").unwrap();
//! let art = dataset.vocabulary().get("art").unwrap();
//! let query = Query::new(vec![
//!     QueryPoint::new(Point::new(0.1, 0.0), ActivitySet::from_ids([coffee])),
//!     QueryPoint::new(Point::new(0.9, 0.0), ActivitySet::from_ids([art])),
//! ]).unwrap();
//! let top = engine.atsq(&dataset, &query, 1);
//! assert_eq!(top.len(), 1);
//! ```
//!
//! # Engines
//!
//! Four interchangeable [`QueryEngine`] implementations exist, matching
//! the paper's evaluation line-up:
//!
//! | Engine | Index | Paper section |
//! |---|---|---|
//! | [`GatEngine`] | hierarchical grid + HICL/ITL/TAS/APL | §IV–§VI |
//! | [`IlEngine`] | per-activity inverted lists | §III-A |
//! | [`RtEngine`] | R-tree over points | §III-B |
//! | [`IrtEngine`] | IR-tree (R-tree + inverted files) | §III-C |
//!
//! All four return *identical* results for the same query; they differ
//! only in how fast they prune. Property tests in `tests/` assert this
//! agreement.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod profile;

pub use atsq_baselines::{IlEngine, IrtEngine, RtEngine};
pub use atsq_gat::{
    snapshot, CacheOutcome, GatConfig, GatIndex, IndexCache, PagedAplConfig, PagedBacking,
    Partition,
};
pub use atsq_matching as matching;
pub use atsq_types as types;
pub use profile::{EngineCounters, Profiled};

use atsq_types::{Dataset, Query, QueryResult, Result};

/// A ready-to-use prelude: the types needed by typical applications.
pub mod prelude {
    pub use crate::{Engine, GatEngine, QueryEngine};
    pub use atsq_baselines::{IlEngine, IrtEngine, RtEngine};
    pub use atsq_gat::{GatConfig, Partition};
    pub use atsq_types::{
        ActivityId, ActivitySet, Dataset, DatasetBuilder, Point, Query, QueryPoint, QueryResult,
        Rect, Trajectory, TrajectoryId, TrajectoryPoint,
    };
}

/// The two query types of the paper behind one interface, plus their
/// threshold (range) variants.
pub trait QueryEngine {
    /// Activity Trajectory Similarity Query: top-`k` by `Dmm`.
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult>;
    /// Order-sensitive ATSQ: top-`k` by `Dmom`.
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult>;
    /// Every trajectory with `Dmm(Q, Tr) ≤ tau`, ascending.
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult>;
    /// Every trajectory with `Dmom(Q, Tr) ≤ tau`, ascending.
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult>;
    /// Short engine label for reports ("GAT", "IL", "RT", "IRT").
    fn name(&self) -> &'static str;
}

/// The paper's proposed engine: a [`GatIndex`] behind [`QueryEngine`],
/// at any shard count.
#[derive(Debug)]
pub struct GatEngine {
    index: GatIndex,
}

impl GatEngine {
    /// Builds the GAT index with default (paper) configuration.
    pub fn build(dataset: &Dataset) -> Result<Self> {
        Ok(GatEngine {
            index: GatIndex::build(dataset)?,
        })
    }

    /// Builds with the default configuration and the verification half
    /// split into `shards` parts (see [`GatIndex::build_sharded`]).
    pub fn build_sharded(dataset: &Dataset, shards: usize, partition: Partition) -> Result<Self> {
        Ok(GatEngine {
            index: GatIndex::build_sharded(dataset, GatConfig::default(), shards, partition)?,
        })
    }

    /// Builds with an explicit configuration.
    pub fn build_with(dataset: &Dataset, config: GatConfig) -> Result<Self> {
        Ok(GatEngine {
            index: GatIndex::build_with(dataset, config)?,
        })
    }

    /// Builds with the APL on real pages behind a buffer pool. Results
    /// are identical to the in-memory backends; the buffer-pool
    /// counters (`engine.index().apl().pool_stats()`) report measured
    /// page traffic.
    pub fn build_paged(
        dataset: &Dataset,
        config: GatConfig,
        apl_config: &PagedAplConfig,
    ) -> Result<Self> {
        Ok(GatEngine {
            index: GatIndex::build_paged(dataset, config, apl_config)?,
        })
    }

    /// Wraps an already built (or snapshot-loaded) index.
    pub fn from_index(index: GatIndex) -> Self {
        GatEngine { index }
    }

    /// The underlying index (stats, memory reports).
    pub fn index(&self) -> &GatIndex {
        &self.index
    }
}

impl QueryEngine for GatEngine {
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        atsq_gat::atsq(&self.index, dataset, query, k)
    }
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        atsq_gat::oatsq(&self.index, dataset, query, k)
    }
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        atsq_gat::atsq_range(&self.index, dataset, query, tau)
    }
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        atsq_gat::oatsq_range(&self.index, dataset, query, tau)
    }
    fn name(&self) -> &'static str {
        "GAT"
    }
}

impl QueryEngine for IlEngine {
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        IlEngine::atsq(self, dataset, query, k)
    }
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        IlEngine::oatsq(self, dataset, query, k)
    }
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        IlEngine::atsq_range(self, dataset, query, tau)
    }
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        IlEngine::oatsq_range(self, dataset, query, tau)
    }
    fn name(&self) -> &'static str {
        "IL"
    }
}

impl QueryEngine for RtEngine {
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        RtEngine::atsq(self, dataset, query, k)
    }
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        RtEngine::oatsq(self, dataset, query, k)
    }
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        RtEngine::atsq_range(self, dataset, query, tau)
    }
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        RtEngine::oatsq_range(self, dataset, query, tau)
    }
    fn name(&self) -> &'static str {
        "RT"
    }
}

impl QueryEngine for IrtEngine {
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        IrtEngine::atsq(self, dataset, query, k)
    }
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        IrtEngine::oatsq(self, dataset, query, k)
    }
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        IrtEngine::atsq_range(self, dataset, query, tau)
    }
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        IrtEngine::oatsq_range(self, dataset, query, tau)
    }
    fn name(&self) -> &'static str {
        "IRT"
    }
}

/// Owned enum over the engines, convenient for benchmark sweeps and
/// for serving one concrete type.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // engines are built once and never moved
pub enum Engine {
    /// The paper's GAT engine.
    Gat(GatEngine),
    /// Inverted-list baseline.
    Il(IlEngine),
    /// R-tree baseline.
    Rt(RtEngine),
    /// IR-tree baseline.
    Irt(IrtEngine),
}

impl Engine {
    /// Builds the serving engine — a [`GatEngine`] whose verification
    /// half is split into `shards` parts — optionally through a
    /// persistent [`IndexCache`]. With a cache, a valid snapshot keyed
    /// by the dataset's content hash is *loaded* (answers are
    /// byte-identical to a fresh build); a missing, stale or corrupt
    /// snapshot triggers a fresh build whose snapshot is saved for the
    /// next start. Returns the engine plus the cache outcome (`None`
    /// when no cache was used). `shards == 0` is
    /// [`atsq_types::Error::InvalidConfig`].
    pub fn build_gat(
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
        cache: Option<&IndexCache>,
    ) -> Result<(Engine, Option<CacheOutcome>)> {
        let config = GatConfig::default();
        let (index, outcome) = match cache {
            None => (
                GatIndex::build_sharded(dataset, config, shards, partition)?,
                None,
            ),
            Some(cache) => {
                let (index, outcome) = cache.load_or_build(dataset, config, shards, partition)?;
                (index, Some(outcome))
            }
        };
        Ok((Engine::Gat(GatEngine::from_index(index)), outcome))
    }

    /// Estimated resident bytes of the engine itself (the serving
    /// dataset is accounted separately): every GAT index component.
    /// The baselines are not served multi-tenant and report zero.
    /// Feeds the tenancy layer's memory-budget accountant.
    pub fn approx_resident_bytes(&self) -> usize {
        match self {
            Engine::Gat(e) => e.index().memory_report().total_bytes(),
            Engine::Il(_) | Engine::Rt(_) | Engine::Irt(_) => 0,
        }
    }

    /// Builds every engine for a dataset, in the paper's order
    /// (IL, RT, IRT, GAT).
    pub fn build_all(dataset: &Dataset) -> Result<Vec<Engine>> {
        Ok(vec![
            Engine::Il(IlEngine::build(dataset)),
            Engine::Rt(RtEngine::build(dataset)),
            Engine::Irt(IrtEngine::build(dataset)),
            Engine::Gat(GatEngine::build(dataset)?),
        ])
    }
}

impl QueryEngine for Engine {
    fn atsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        match self {
            Engine::Gat(e) => e.atsq(dataset, query, k),
            Engine::Il(e) => QueryEngine::atsq(e, dataset, query, k),
            Engine::Rt(e) => QueryEngine::atsq(e, dataset, query, k),
            Engine::Irt(e) => QueryEngine::atsq(e, dataset, query, k),
        }
    }
    fn oatsq(&self, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
        match self {
            Engine::Gat(e) => e.oatsq(dataset, query, k),
            Engine::Il(e) => QueryEngine::oatsq(e, dataset, query, k),
            Engine::Rt(e) => QueryEngine::oatsq(e, dataset, query, k),
            Engine::Irt(e) => QueryEngine::oatsq(e, dataset, query, k),
        }
    }
    fn atsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        match self {
            Engine::Gat(e) => QueryEngine::atsq_range(e, dataset, query, tau),
            Engine::Il(e) => QueryEngine::atsq_range(e, dataset, query, tau),
            Engine::Rt(e) => QueryEngine::atsq_range(e, dataset, query, tau),
            Engine::Irt(e) => QueryEngine::atsq_range(e, dataset, query, tau),
        }
    }
    fn oatsq_range(&self, dataset: &Dataset, query: &Query, tau: f64) -> Vec<QueryResult> {
        match self {
            Engine::Gat(e) => QueryEngine::oatsq_range(e, dataset, query, tau),
            Engine::Il(e) => QueryEngine::oatsq_range(e, dataset, query, tau),
            Engine::Rt(e) => QueryEngine::oatsq_range(e, dataset, query, tau),
            Engine::Irt(e) => QueryEngine::oatsq_range(e, dataset, query, tau),
        }
    }
    fn name(&self) -> &'static str {
        match self {
            Engine::Gat(e) => e.name(),
            Engine::Il(e) => e.name(),
            Engine::Rt(e) => e.name(),
            Engine::Irt(e) => e.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

    #[test]
    fn all_engines_agree_on_generated_data() {
        let dataset = generate(&CityConfig::tiny(17)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let queries = generate_queries(
            &dataset,
            &QueryGenConfig {
                query_points: 2,
                acts_per_point: 2,
                ..Default::default()
            },
            5,
        );
        for q in &queries {
            let reference = engines[0].atsq(&dataset, q, 5);
            for e in &engines[1..] {
                assert_eq!(e.atsq(&dataset, q, 5), reference, "{} diverged", e.name());
            }
            let reference_o = engines[0].oatsq(&dataset, q, 5);
            for e in &engines[1..] {
                assert_eq!(
                    e.oatsq(&dataset, q, 5),
                    reference_o,
                    "{} diverged (ordered)",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn build_gat_through_cache_matches_direct_build() {
        let dataset = generate(&CityConfig::tiny(29)).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
        let dir = std::env::temp_dir().join(format!("atsq-core-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = IndexCache::new(&dir);
        for shards in [1usize, 3] {
            let (direct, outcome) =
                Engine::build_gat(&dataset, shards, Partition::Hash, None).unwrap();
            assert!(outcome.is_none());
            let (cold, outcome) =
                Engine::build_gat(&dataset, shards, Partition::Hash, Some(&cache)).unwrap();
            assert!(!outcome.unwrap().loaded(), "cold cache must build");
            let (warm, outcome) =
                Engine::build_gat(&dataset, shards, Partition::Hash, Some(&cache)).unwrap();
            assert!(outcome.unwrap().loaded(), "warm cache must load");
            for q in &queries {
                let want = direct.atsq(&dataset, q, 5);
                assert_eq!(cold.atsq(&dataset, q, 5), want);
                assert_eq!(warm.atsq(&dataset, q, 5), want);
                let want = direct.oatsq_range(&dataset, q, 40.0);
                assert_eq!(warm.oatsq_range(&dataset, q, 40.0), want);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Zero shards is a typed configuration error, with or without an
    /// index cache — never a silently unsharded engine.
    #[test]
    fn build_gat_rejects_zero_shards() {
        let dataset = generate(&CityConfig::tiny(3)).unwrap();
        let dir = std::env::temp_dir().join(format!("atsq-core-zero-{}", std::process::id()));
        let cache = IndexCache::new(&dir);
        for cache in [None, Some(&cache)] {
            let err = Engine::build_gat(&dataset, 0, Partition::Hash, cache).unwrap_err();
            assert!(matches!(err, atsq_types::Error::InvalidConfig(_)), "{err}");
        }
        assert!(cache.entries().unwrap().is_empty(), "nothing is cached");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `queries` on `threads` scoped threads (query `i` on thread
    /// `i % threads`), each query inside its own counter scope, and
    /// returns the answers in input order with each query's sink.
    fn run_concurrently<E: QueryEngine + Sync>(
        engine: &E,
        dataset: &Dataset,
        queries: &[Query],
        threads: usize,
        run: impl Fn(&E, &Dataset, &Query) -> Vec<QueryResult> + Sync,
    ) -> Vec<(Vec<QueryResult>, std::sync::Arc<atsq_obs::CounterSink>)> {
        let mut out: Vec<_> = queries.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let run = &run;
                    scope.spawn(move || {
                        (t..queries.len())
                            .step_by(threads)
                            .map(|i| {
                                let sink = atsq_obs::CounterSink::new();
                                let _scope = atsq_obs::CounterScope::enter(sink.clone());
                                (i, run(engine, dataset, &queries[i]), sink.clone())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, results, sink) in h.join().unwrap() {
                    out[i] = Some((results, sink));
                }
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    /// Per-query sinks of queries run concurrently on one engine sum
    /// exactly to the engine's counter totals, and the split is real.
    fn assert_sinks_sum_to_engine<E: QueryEngine + Profiled + Sync>(engine: &E, seed: u64) {
        let dataset = generate(&CityConfig::tiny(seed)).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 10);
        engine.reset_counters();
        let out = run_concurrently(engine, &dataset, &queries, 4, |e, d, q| e.atsq(d, q, 5));
        let summed = out
            .iter()
            .fold(atsq_obs::QueryCounters::default(), |acc, (_, s)| {
                acc.add(&s.counters())
            });
        assert_eq!(EngineCounters::from(summed), engine.counters());
        assert!(summed.candidates > 0, "queries must have done engine work");
        let with_work = out.iter().filter(|(_, s)| !s.counters().is_zero()).count();
        assert!(with_work > 1, "work attributed to {with_work} sink(s)");
    }

    #[test]
    fn per_query_sinks_attribute_exactly() {
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        assert_sinks_sum_to_engine(&GatEngine::build(&dataset).unwrap(), 9);
    }

    /// Each sharded query's delta (traversal plus owner-part
    /// verification) lands in its own sink; the deltas sum to the
    /// engine totals, which include the traversal's counters.
    #[test]
    fn sharded_per_query_sinks_attribute_exactly() {
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        let engine = GatEngine::build_sharded(&dataset, 4, Partition::Hash).unwrap();
        assert_sinks_sum_to_engine(&engine, 9);
    }

    /// A sharded query inside a counter scope books busy time for
    /// every part that verified one of its candidates, and the
    /// router's busy time grows.
    #[test]
    fn sharded_query_fills_shard_busy_time() {
        let dataset = generate(&CityConfig::tiny(9)).unwrap();
        let engine = GatEngine::build_sharded(&dataset, 4, Partition::Hash).unwrap();
        let index = engine.index();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 6);
        for q in &queries {
            let before = index.per_shard_stats();
            let router_before = index.router_busy_ns();
            let sink = atsq_obs::CounterSink::new();
            {
                let _scope = atsq_obs::CounterScope::enter(sink.clone());
                QueryEngine::oatsq(&engine, &dataset, q, 5);
            }
            let busy = sink.shard_busy_ns();
            let mut verified = 0;
            for (s, (after, before)) in index.per_shard_stats().iter().zip(&before).enumerate() {
                if after.candidates_retrieved > before.candidates_retrieved {
                    verified += 1;
                    assert!(busy.get(s).is_some_and(|&ns| ns > 0), "shard {s}: {busy:?}");
                }
            }
            assert!(verified > 0, "the query verified no candidate");
            assert!(index.router_busy_ns() > router_before);
        }
    }

    /// Concurrent callers of one single-index engine get exactly the
    /// answers a sequential caller gets, for both query kinds.
    #[test]
    fn concurrent_callers_match_sequential() {
        let dataset = generate(&CityConfig::tiny(5)).unwrap();
        let engine = GatEngine::build(&dataset).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 12);
        for ordered in [false, true] {
            let op = |e: &GatEngine, d: &Dataset, q: &Query| {
                if ordered {
                    e.oatsq(d, q, 5)
                } else {
                    e.atsq(d, q, 5)
                }
            };
            let want: Vec<_> = queries.iter().map(|q| op(&engine, &dataset, q)).collect();
            let got = run_concurrently(&engine, &dataset, &queries, 4, op);
            let got: Vec<_> = got.into_iter().map(|(r, _)| r).collect();
            assert_eq!(got, want, "ordered={ordered}");
        }
    }

    /// Concurrent callers of the sharded engine get exactly the
    /// single-index answers, for both query kinds.
    #[test]
    fn sharded_engine_matches_single_index_under_concurrent_callers() {
        let dataset = generate(&CityConfig::tiny(8)).unwrap();
        let single = GatEngine::build(&dataset).unwrap();
        let sharded = GatEngine::build_sharded(&dataset, 3, Partition::Spatial).unwrap();
        let queries = generate_queries(&dataset, &QueryGenConfig::default(), 8);
        for ordered in [false, true] {
            let op = |e: &dyn QueryEngine, d: &Dataset, q: &Query| {
                if ordered {
                    e.oatsq(d, q, 5)
                } else {
                    e.atsq(d, q, 5)
                }
            };
            let want: Vec<_> = queries.iter().map(|q| op(&single, &dataset, q)).collect();
            let got = run_concurrently(&sharded, &dataset, &queries, 4, |e, d, q| op(e, d, q));
            let got: Vec<_> = got.into_iter().map(|(r, _)| r).collect();
            assert_eq!(got, want, "ordered={ordered}");
        }
    }

    #[test]
    fn engine_names() {
        let dataset = generate(&CityConfig::tiny(1)).unwrap();
        let engines = Engine::build_all(&dataset).unwrap();
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["IL", "RT", "IRT", "GAT"]);
    }
}
