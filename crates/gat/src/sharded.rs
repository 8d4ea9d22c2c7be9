//! A sharded GAT engine.
//!
//! The dataset is split into `S` disjoint shards, each holding its own
//! sub-dataset and [`GatIndex`] — the TAS and APL that verify
//! candidates — plus one traversal-only router index
//! ([`RouterIndex`]: grid, HICL and ITL) over the whole dataset. A
//! query runs the single-index Algorithm-1 loop (`search_loop` or
//! `range_loop` in [`crate::search`]) over the router's candidate
//! stream, with an evaluator that sends each candidate to the shard
//! owning it. The answer is *exactly* the single-index answer
//! (distances, ids and tie-breaks included) because
//!
//! 1. the router retrieves the candidate stream a single index would
//!    (same grid, HICL and ITL over the same data), so the Algorithm-2
//!    lower bound and the termination test are unchanged;
//! 2. the owner shard computes a candidate's distance from its full
//!    trajectory, bit-identical to the single-index math; and
//! 3. the loop's top-k heap holds global ids, so distance ties break
//!    as they do in the single index.
//!
//! A query runs entirely on its calling thread; the serving layer's
//! worker pool is what runs queries in parallel. Busy time is split
//! per query into the router's share (traversal, lower bound and
//! routing) and each owner shard's verification time.

use crate::config::GatConfig;
use crate::index::GatIndex;
use crate::kernel::ScoreScratch;
use crate::router::RouterIndex;
use crate::search::{evaluate_atsq, evaluate_oatsq, range_loop, search_loop};
use crate::stats::IoSnapshot;
use atsq_grid::morton_encode;
use atsq_model::atomic::{AtomicU64, Ordering as AtomicOrdering};
use atsq_types::{Dataset, Error, Query, QueryResult, Result, TrajectoryId};
use std::time::Instant;

/// How trajectories are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Multiplicative hash of the trajectory id — uniform shard sizes,
    /// no locality. The safe default for unknown workloads.
    #[default]
    Hash,
    /// Z-order (Morton) sort of trajectory centroids, chunked into
    /// contiguous runs — spatially local shards, so a query's
    /// candidates tend to concentrate in few shards.
    Spatial,
}

impl std::str::FromStr for Partition {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "hash" => Ok(Partition::Hash),
            "spatial" => Ok(Partition::Spatial),
            other => Err(Error::InvalidConfig(format!(
                "partition must be `hash` or `spatial` (got `{other}`)"
            ))),
        }
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Partition::Hash => "hash",
            Partition::Spatial => "spatial",
        })
    }
}

/// One shard: a sub-dataset with dense local ids and its GAT index.
#[derive(Debug)]
struct Shard {
    dataset: Dataset,
    index: GatIndex,
    /// Accumulated time this shard spent verifying candidates, in
    /// nanoseconds. The *maximum* across shards bounds what a host
    /// with one core per shard could save; the *sum* is the
    /// single-core cost.
    busy_ns: AtomicU64,
}

/// `S` disjoint [`GatIndex`] shards behind the same four query entry
/// points as a single index. Unlike [`GatIndex`], the sharded engine
/// owns (copies of) its shard datasets, because trajectory ids inside
/// each shard are local.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    partition: Partition,
    total: usize,
    /// The engine's *base* configuration: snapshot filenames and
    /// manifests are keyed by it, and the router and each shard derive
    /// their tuned configurations from it (see [`shard_config`]).
    config: GatConfig,
    /// Traversal-only index over the full dataset — the candidate
    /// source every query's Algorithm-1 loop runs over.
    router: RouterIndex,
    /// Global trajectory id → `(shard, local id)`; the deterministic
    /// routing table derived from the partitioner's membership lists.
    owner: Vec<(u32, u32)>,
    /// Accumulated query time outside owner-shard verification
    /// (traversal, lower bound and routing), in nanoseconds — the
    /// serial section sharding cannot parallelize.
    router_busy_ns: AtomicU64,
}

/// Which verification the owner shard runs per candidate: ATSQ's `Dmm`
/// (Algorithm 3 per query point) or OATSQ's `Dmom` (MIB filter plus
/// Algorithm 4 with the `dk` early exit).
#[derive(Clone, Copy)]
enum Verify {
    Atsq,
    Oatsq,
}

/// The tuned configuration a shard over `shard_dataset` builds with:
/// the base config with grid depth matched to the shard's point count
/// ([`GatConfig::tuned_for_points`]). Deterministic, so the snapshot
/// loader recomputes it from the recomputed shard subset.
pub(crate) fn shard_config(base: &GatConfig, shard_dataset: &Dataset) -> GatConfig {
    let points: usize = shard_dataset
        .trajectories()
        .iter()
        .map(|t| t.points.len())
        .sum();
    base.tuned_for_points(points)
}

impl ShardedEngine {
    /// Builds `shards` shards with the default GAT configuration.
    pub fn build(dataset: &Dataset, shards: usize, partition: Partition) -> Result<Self> {
        Self::build_with(dataset, shards, partition, GatConfig::default())
    }

    /// Builds with an explicit base GAT configuration; each shard's
    /// index builds with the grid depth tuned to its own volume.
    pub fn build_with(
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
        config: GatConfig,
    ) -> Result<Self> {
        Self::assemble(dataset, shards, partition, config, |_, shard_dataset| {
            GatIndex::build_with(shard_dataset, shard_config(&config, shard_dataset))
        })
    }

    /// The shard membership the given partitioner would produce — the
    /// deterministic function the snapshot loader re-runs to rebuild
    /// shard datasets without re-building their indexes.
    pub(crate) fn membership(
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
    ) -> Vec<Vec<TrajectoryId>> {
        match partition {
            Partition::Hash => hash_assign(dataset.len(), shards),
            Partition::Spatial => spatial_assign(dataset, shards),
        }
    }

    /// Partitions the dataset and obtains each shard's index through
    /// `index_for` — a fresh build, or a snapshot load in
    /// [`crate::snapshot`].
    pub(crate) fn assemble(
        dataset: &Dataset,
        shards: usize,
        partition: Partition,
        config: GatConfig,
        mut index_for: impl FnMut(usize, &Dataset) -> Result<GatIndex>,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidConfig("shard count must be ≥ 1".into()));
        }
        let membership = Self::membership(dataset, shards, partition);
        let mut owner = vec![(0u32, 0u32); dataset.len()];
        for (s, members) in membership.iter().enumerate() {
            for (local, g) in members.iter().enumerate() {
                owner[g.index()] = (s as u32, local as u32);
            }
        }
        // The router is never persisted: it is a deterministic
        // function of (dataset, base config) and rebuilds in one
        // occurrence pass on snapshot loads too. Its grid depth is
        // tuned to the *full* dataset volume by the same rule shards
        // use — the router traversal is the serial part of every
        // query, so an over-deep grid there costs latency directly.
        let router = RouterIndex::build(dataset, shard_config(&config, dataset))?;
        let shards = membership
            .into_iter()
            .enumerate()
            .map(|(i, members)| {
                let shard_dataset = dataset.subset(&members);
                let index = index_for(i, &shard_dataset)?;
                Ok(Shard {
                    dataset: shard_dataset,
                    index,
                    busy_ns: AtomicU64::new(0),
                })
            })
            .collect::<Result<Vec<Shard>>>()?;
        Ok(ShardedEngine {
            shards,
            partition,
            total: dataset.len(),
            config,
            router,
            owner,
            // ordering: Relaxed everywhere this counter is touched —
            // advisory busy-time tally, no memory published through it.
            router_busy_ns: AtomicU64::new(0),
        })
    }

    /// Per-shard `(dataset, index)` views in shard order — what the
    /// snapshot writer serializes.
    pub(crate) fn shard_parts(&self) -> impl Iterator<Item = (&Dataset, &GatIndex)> {
        self.shards.iter().map(|s| (&s.dataset, &s.index))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The base configuration the engine was built with. Shard indexes
    /// may run shallower tuned grids (see [`GatConfig::
    /// tuned_for_points`]); snapshots are keyed by this base config.
    pub fn base_config(&self) -> &GatConfig {
        &self.config
    }

    /// Per-shard tuned grid depths, in shard order.
    pub fn shard_grid_levels(&self) -> Vec<u8> {
        self.shards
            .iter()
            .map(|s| s.index.config().grid_level)
            .collect()
    }

    /// I/O counters of the router (cold HICL reads of candidate
    /// retrieval). Engine totals are the sum of
    /// [`ShardedEngine::per_shard_stats`] and this snapshot.
    pub fn router_stats(&self) -> IoSnapshot {
        self.router.stats().snapshot()
    }

    /// Accumulated nanoseconds queries spent outside owner-shard
    /// verification — router traversal, lower bound and routing, the
    /// serial section of a sharded query; per-shard verification time
    /// is in [`ShardedEngine::per_shard_busy_ns`].
    pub fn router_busy_ns(&self) -> u64 {
        // ordering: Relaxed — advisory busy-time tally (see field).
        self.router_busy_ns.load(AtomicOrdering::Relaxed)
    }

    /// Estimated resident bytes of the engine: each shard's dataset
    /// subset copy plus all of its index components. Feeds the
    /// multi-tenant memory-budget accountant.
    pub fn approx_resident_bytes(&self) -> usize {
        self.router.memory_bytes()
            + self
                .shards
                .iter()
                .map(|s| s.dataset.approx_bytes() + s.index.memory_report().total_bytes())
                .sum::<usize>()
    }

    /// Trajectories per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.dataset.len()).collect()
    }

    /// Total trajectories across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the engine holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The partitioner this engine was built with.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Per-shard I/O counter snapshots, in shard order — the raw
    /// material for per-shard candidate counts in serving stats.
    pub fn per_shard_stats(&self) -> Vec<IoSnapshot> {
        self.shards
            .iter()
            .map(|s| s.index.stats().snapshot())
            .collect()
    }

    /// Accumulated per-shard verification time in nanoseconds, in
    /// shard order (see [`Shard::busy_ns`]).
    pub fn per_shard_busy_ns(&self) -> Vec<u64> {
        self.shards
            .iter()
            // ordering: Relaxed — advisory busy-time tallies; readers
            // tolerate slightly stale per-shard values.
            .map(|s| s.busy_ns.load(AtomicOrdering::Relaxed))
            .collect()
    }

    /// Zeroes every shard's I/O counters, APL pool statistics and
    /// busy-time accounting — the sharded equivalent of the
    /// single-index full counter reset.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.index.stats().reset();
            s.index.apl().reset_pool_stats();
            // ordering: Relaxed — advisory stat reset; callers quiesce
            // or tolerate increments from in-flight queries.
            s.busy_ns.store(0, AtomicOrdering::Relaxed);
        }
        self.router.stats().reset();
        // ordering: Relaxed — advisory stat reset (see above).
        self.router_busy_ns.store(0, AtomicOrdering::Relaxed);
    }

    /// Top-`k` ATSQ across all shards (exact; see module docs).
    pub fn try_atsq(&self, query: &Query, k: usize) -> Result<Vec<QueryResult>> {
        self.routed(query, Verify::Atsq, |evaluate| {
            search_loop(&self.router, self.total, query, k, evaluate)
        })
    }

    /// Top-`k` OATSQ across all shards (exact; see module docs).
    pub fn try_oatsq(&self, query: &Query, k: usize) -> Result<Vec<QueryResult>> {
        self.routed(query, Verify::Oatsq, |evaluate| {
            search_loop(&self.router, self.total, query, k, evaluate)
        })
    }

    /// Range ATSQ: every trajectory with `Dmm ≤ tau`, across shards.
    pub fn try_atsq_range(&self, query: &Query, tau: f64) -> Result<Vec<QueryResult>> {
        self.routed(query, Verify::Atsq, |evaluate| {
            range_loop(&self.router, self.total, query, tau, evaluate)
        })
    }

    /// Range OATSQ: every trajectory with `Dmom ≤ tau`, across shards.
    pub fn try_oatsq_range(&self, query: &Query, tau: f64) -> Result<Vec<QueryResult>> {
        self.routed(query, Verify::Oatsq, |evaluate| {
            range_loop(&self.router, self.total, query, tau, evaluate)
        })
    }

    /// Panicking convenience forms, mirroring the single-index API.
    pub fn atsq(&self, query: &Query, k: usize) -> Vec<QueryResult> {
        self.try_atsq(query, k).expect("sharded ATSQ failed")
    }

    /// See [`ShardedEngine::atsq`].
    pub fn oatsq(&self, query: &Query, k: usize) -> Vec<QueryResult> {
        self.try_oatsq(query, k).expect("sharded OATSQ failed")
    }

    /// See [`ShardedEngine::atsq`].
    pub fn atsq_range(&self, query: &Query, tau: f64) -> Vec<QueryResult> {
        self.try_atsq_range(query, tau)
            .expect("sharded range ATSQ failed")
    }

    /// See [`ShardedEngine::atsq`].
    pub fn oatsq_range(&self, query: &Query, tau: f64) -> Vec<QueryResult> {
        self.try_oatsq_range(query, tau)
            .expect("sharded range OATSQ failed")
    }

    /// Runs `search` — an Algorithm-1 loop over the router — with an
    /// evaluator that verifies each candidate on its owner shard, then
    /// books the query's busy time: each shard's verification time to
    /// that shard (and to the active per-query counter scope, if any),
    /// the remainder to the router.
    fn routed(
        &self,
        query: &Query,
        kind: Verify,
        search: impl FnOnce(
            &mut dyn FnMut(TrajectoryId, f64) -> Result<Option<f64>>,
        ) -> Result<Vec<QueryResult>>,
    ) -> Result<Vec<QueryResult>> {
        let all_acts = query.all_activities();
        let mut scratch = ScoreScratch::new();
        let mut shard_ns = vec![0u64; self.shards.len()];
        let t0 = Instant::now();
        let results = search(&mut |global, dk| {
            let (s, local) = self.owner[global.index()];
            let shard = &self.shards[s as usize];
            let local = TrajectoryId(local);
            let t = Instant::now();
            let dist = match kind {
                Verify::Atsq => evaluate_atsq(
                    &shard.index,
                    &shard.dataset,
                    query,
                    &all_acts,
                    local,
                    &mut scratch,
                ),
                Verify::Oatsq => {
                    evaluate_oatsq(&shard.index, &shard.dataset, query, &all_acts, local, dk)
                }
            };
            shard_ns[s as usize] += t.elapsed().as_nanos() as u64;
            dist
        });
        let total_ns = t0.elapsed().as_nanos() as u64;
        for (i, (shard, &ns)) in self.shards.iter().zip(&shard_ns).enumerate() {
            if ns > 0 {
                // ordering: Relaxed — advisory busy-time tally.
                shard.busy_ns.fetch_add(ns, AtomicOrdering::Relaxed);
                atsq_obs::record_shard_busy(i, ns);
            }
        }
        let verify_ns: u64 = shard_ns.iter().sum();
        // ordering: Relaxed — advisory busy-time tally.
        self.router_busy_ns
            .fetch_add(total_ns.saturating_sub(verify_ns), AtomicOrdering::Relaxed);
        results
    }
}

/// Assigns ids `0..n` to shards by multiplicative (Fibonacci) hashing.
/// Iterating ids in ascending order keeps every membership list
/// ascending, so local ids follow global id order.
fn hash_assign(n: usize, shards: usize) -> Vec<Vec<TrajectoryId>> {
    let mut out = vec![Vec::new(); shards];
    for id in 0..n as u32 {
        let h = (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33;
        out[(h % shards as u64) as usize].push(TrajectoryId(id));
    }
    out
}

/// Assigns trajectories to shards by sorting centroids along the
/// Z-order curve and cutting the sorted run into `shards` nearly-equal
/// contiguous chunks. Each chunk is then re-sorted by id so local id
/// order matches global id order.
fn spatial_assign(dataset: &Dataset, shards: usize) -> Vec<Vec<TrajectoryId>> {
    let bounds = dataset.bounds();
    let norm = |v: f64, lo: f64, extent: f64| -> u32 {
        if extent <= 0.0 {
            return 0;
        }
        (((v - lo) / extent).clamp(0.0, 1.0) * f64::from(u16::MAX)) as u32
    };
    let mut keyed: Vec<(u64, TrajectoryId)> = dataset
        .trajectories()
        .iter()
        .map(|tr| {
            // Centroid of the trajectory's points (empty: the origin).
            let n = tr.points.len().max(1) as f64;
            let x = tr.points.iter().map(|p| p.loc.x).sum::<f64>() / n;
            let y = tr.points.iter().map(|p| p.loc.y).sum::<f64>() / n;
            let code = morton_encode(
                norm(x, bounds.min.x, bounds.width()),
                norm(y, bounds.min.y, bounds.height()),
            );
            (code, tr.id)
        })
        .collect();
    keyed.sort_unstable_by_key(|&(code, id)| (code, id));
    let n = keyed.len();
    let (base, extra) = (n / shards, n % shards);
    let mut out = Vec::with_capacity(shards);
    let mut cursor = 0usize;
    for s in 0..shards {
        let take = base + usize::from(s < extra);
        let mut members: Vec<TrajectoryId> = keyed[cursor..cursor + take]
            .iter()
            .map(|&(_, id)| id)
            .collect();
        members.sort_unstable();
        out.push(members);
        cursor += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};

    fn dataset(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..8 {
            b.observe_activity(&format!("a{i}"));
        }
        // Deterministic pseudo-random layout with enough structure for
        // both partitioners to produce non-trivial shards.
        let mut x: u64 = 0x5DEECE66D;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..n {
            let len = 1 + (next() % 4) as usize;
            let pts = (0..len)
                .map(|_| {
                    let px = (next() % 1000) as f64 / 10.0;
                    let py = (next() % 1000) as f64 / 10.0;
                    let acts = ActivitySet::from_raw([(next() % 8) as u32, (next() % 8) as u32]);
                    TrajectoryPoint::new(Point::new(px, py), acts)
                })
                .collect();
            b.push_trajectory(pts);
        }
        b.finish().unwrap()
    }

    fn query(x: f64, y: f64) -> Query {
        Query::new(vec![
            QueryPoint::new(Point::new(x, y), ActivitySet::from_raw([0, 1])),
            QueryPoint::new(Point::new(x + 10.0, y), ActivitySet::from_raw([2])),
        ])
        .unwrap()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let d = dataset(50);
        for partition in [Partition::Hash, Partition::Spatial] {
            for s in [1usize, 2, 3, 7] {
                let engine = ShardedEngine::build(&d, s, partition).unwrap();
                assert_eq!(engine.shard_count(), s);
                let sizes = engine.shard_sizes();
                assert_eq!(sizes.iter().sum::<usize>(), d.len());
                // Every global id owns a distinct in-range local slot,
                // and local ids ascend with global ids in each shard.
                let mut seen = std::collections::HashSet::new();
                let mut last_local = vec![None; s];
                for &(shard, local) in &engine.owner {
                    let shard = shard as usize;
                    assert!(seen.insert((shard, local)), "slot assigned twice");
                    assert!((local as usize) < sizes[shard]);
                    assert!(last_local[shard] < Some(local), "local ids must ascend");
                    last_local[shard] = Some(local);
                }
            }
        }
        // Spatial chunks are balanced to within one trajectory.
        let engine = ShardedEngine::build(&d, 3, Partition::Spatial).unwrap();
        let sizes = engine.shard_sizes();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn sharded_matches_single_index_exactly() {
        let d = dataset(60);
        let single = GatIndex::build(&d).unwrap();
        for partition in [Partition::Hash, Partition::Spatial] {
            for s in [1usize, 2, 3, 7] {
                let engine = ShardedEngine::build(&d, s, partition).unwrap();
                for q in [query(10.0, 10.0), query(50.0, 80.0)] {
                    for k in [1usize, 3, 9] {
                        assert_eq!(
                            engine.atsq(&q, k),
                            crate::search::atsq(&single, &d, &q, k),
                            "ATSQ diverged (S={s}, {partition})"
                        );
                        assert_eq!(
                            engine.oatsq(&q, k),
                            crate::search::oatsq(&single, &d, &q, k),
                            "OATSQ diverged (S={s}, {partition})"
                        );
                    }
                    for tau in [5.0f64, 40.0] {
                        assert_eq!(
                            engine.atsq_range(&q, tau),
                            crate::search::atsq_range(&single, &d, &q, tau),
                            "range ATSQ diverged (S={s}, {partition})"
                        );
                        assert_eq!(
                            engine.oatsq_range(&q, tau),
                            crate::search::oatsq_range(&single, &d, &q, tau),
                            "range OATSQ diverged (S={s}, {partition})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_shard_stats_accumulate_and_reset() {
        let d = dataset(40);
        let engine = ShardedEngine::build(&d, 4, Partition::Hash).unwrap();
        let _ = engine.atsq(&query(20.0, 20.0), 5);
        let stats = engine.per_shard_stats();
        assert_eq!(stats.len(), 4);
        assert!(
            stats.iter().map(|s| s.candidates_retrieved).sum::<u64>() > 0,
            "{stats:?}"
        );
        assert!(
            engine.per_shard_busy_ns().iter().sum::<u64>() > 0,
            "searches must accrue busy time"
        );
        engine.reset_stats();
        assert!(engine
            .per_shard_stats()
            .iter()
            .all(|s| s.candidates_retrieved == 0));
        assert!(engine.per_shard_busy_ns().iter().all(|&ns| ns == 0));
    }

    #[test]
    fn zero_shards_is_rejected_and_empty_dataset_works() {
        let d = dataset(10);
        assert!(ShardedEngine::build(&d, 0, Partition::Hash).is_err());
        let empty = DatasetBuilder::new().finish().unwrap();
        let engine = ShardedEngine::build(&empty, 3, Partition::Spatial).unwrap();
        assert!(engine.is_empty());
        let q = Query::new(vec![QueryPoint::new(
            Point::new(0.0, 0.0),
            ActivitySet::from_raw([1]),
        )])
        .unwrap();
        assert!(engine.atsq(&q, 3).is_empty());
        assert!(engine.atsq_range(&q, 10.0).is_empty());
    }

    /// One router traversal generates exactly the single-index
    /// candidate stream, attributed to owner shards: the per-shard
    /// candidate counts sum to the single index's count, and traversal
    /// work lands on the router.
    #[test]
    fn shared_traversal_work_sums_to_single_index() {
        let d = dataset(60);
        // The comparison index runs at the router's tuned depth so
        // both sides traverse the same grid geometry and the
        // candidate streams are comparable one-to-one.
        let single = GatIndex::build_with(&d, shard_config(&GatConfig::default(), &d)).unwrap();
        let engine = ShardedEngine::build(&d, 4, Partition::Hash).unwrap();
        let q = query(20.0, 20.0);
        single.stats().reset();
        let want = crate::search::atsq(&single, &d, &q, 5);
        let single_candidates = single.stats().snapshot().candidates_retrieved;

        engine.reset_stats();
        assert_eq!(engine.atsq(&q, 5), want);
        let sharded_candidates: u64 = engine
            .per_shard_stats()
            .iter()
            .map(|s| s.candidates_retrieved)
            .sum();
        assert_eq!(
            sharded_candidates, single_candidates,
            "sharding must not multiply candidate work"
        );
        assert_eq!(
            engine.router_stats().candidates_retrieved,
            0,
            "candidates are charged to owner shards, never the router"
        );
        assert!(
            engine.router_busy_ns() > 0,
            "the router traversal must accrue busy time"
        );
        engine.reset_stats();
        assert_eq!(engine.router_busy_ns(), 0);
        assert_eq!(engine.router_stats().hicl_cold_reads, 0);
    }

    /// Per-shard grid depth tracks shard volume: shards holding 1/S of
    /// the data build shallower grids than the base configuration. (The
    /// router is tuned by the same rule against the full dataset.)
    #[test]
    fn shard_grids_are_tuned_to_shard_volume() {
        let d = dataset(50);
        let engine = ShardedEngine::build(&d, 4, Partition::Hash).unwrap();
        let base = engine.base_config().grid_level;
        assert_eq!(base, GatConfig::default().grid_level);
        let levels = engine.shard_grid_levels();
        assert_eq!(levels.len(), 4);
        assert!(
            levels.iter().all(|&l| l < base),
            "small shards must tune below the base depth (got {levels:?})"
        );
        // The tuned depth is exactly what `shard_config` derives.
        for (shard_dataset, index) in engine.shard_parts() {
            assert_eq!(
                *index.config(),
                shard_config(engine.base_config(), shard_dataset)
            );
        }
    }
}
