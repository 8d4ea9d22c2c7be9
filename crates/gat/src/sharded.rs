//! Sharding the verification half of a [`GatIndex`].
//!
//! GAT's query work splits in two (§IV–§V): candidate retrieval reads
//! the grid, HICL and ITL, and verification reads each candidate's TAS
//! sketch and APL posting lists. A [`GatIndex`] therefore holds **one**
//! traversal half over every trajectory and `S ≥ 1` verification
//! [`Part`]s, each with the TAS and APL of its members under dense
//! local ids. This module holds the part type, the two partitioners
//! that assign trajectories to parts, the owner table that routes a
//! global id to `(part, local id)`, and the per-query [`BusyClock`]
//! that books verification time to the owner part and the rest of the
//! query to the router.
//!
//! `S = 1` is the plain single index: one part over all trajectories,
//! local id = global id, no owner table and no clock reads. At any `S`
//! the answers are exactly the `S = 1` answers (distances, ids and
//! tie-breaks included) because
//!
//! 1. the one traversal retrieves the candidate stream of the single
//!    index, so the Algorithm-2 lower bound and the termination test
//!    are unchanged;
//! 2. the owner part verifies a candidate against its full trajectory
//!    in the caller's dataset, bit-identical to the `S = 1` math; and
//! 3. the loop's top-k heap holds global ids, so ties break as at
//!    `S = 1`.
//!
//! A query runs entirely on its calling thread; the serving layer's
//! worker pool is what runs queries in parallel.

use crate::apl::{Apl, TrajectoryPostings};
use crate::index::GatIndex;
use crate::paged::{storage_err, AplStorage};
use crate::stats::IoStats;
use crate::tas::Tas;
use atsq_grid::morton_encode;
use atsq_model::atomic::{AtomicU64, Ordering as AtomicOrdering};
use atsq_types::{Dataset, Error, Result, TrajectoryId};
use std::borrow::Cow;
use std::time::Instant;

/// How trajectories are assigned to verification parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Multiplicative hash of the trajectory id — uniform part sizes,
    /// no locality. The safe default for unknown workloads.
    #[default]
    Hash,
    /// Z-order (Morton) sort of trajectory centroids, chunked into
    /// contiguous runs — spatially local parts, so a query's
    /// candidates tend to concentrate in few parts.
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

/// The part membership the partitioner produces: `shards` lists of
/// global ids, each ascending, together covering every trajectory
/// exactly once. Deterministic, so the snapshot loader re-runs it
/// instead of persisting it.
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

/// Global id → `(part, local id)` for a membership. Empty for a single
/// part, where the local id is the global id.
pub(crate) fn owner_table(n: usize, membership: &[Vec<TrajectoryId>]) -> Vec<(u32, u32)> {
    if membership.len() <= 1 {
        return Vec::new();
    }
    let mut owner = vec![(0u32, 0u32); n];
    for (p, members) in membership.iter().enumerate() {
        for (local, g) in members.iter().enumerate() {
            owner[g.index()] = (p as u32, local as u32);
        }
    }
    owner
}

/// One verification part: the TAS sketches and APL posting lists of
/// its members, indexed by local id, with its own counters.
#[derive(Debug)]
pub(crate) struct Part {
    pub(crate) tas: Tas,
    pub(crate) apl: AplStorage,
    /// Candidates, TAS checks, APL reads and distance evaluations of
    /// the candidates this part verified.
    pub(crate) stats: IoStats,
    /// Accumulated verification time in nanoseconds (timed only when
    /// the index has more than one part). The *maximum* across parts
    /// bounds what one core per part could save; the *sum* is the
    /// single-core cost.
    busy_ns: AtomicU64,
}

impl Part {
    /// A part over the given components, with fresh counters.
    pub(crate) fn new(tas: Tas, apl: AplStorage) -> Self {
        Part {
            tas,
            apl,
            stats: IoStats::new(),
            // ordering: Relaxed everywhere this counter is touched —
            // advisory busy-time tally, no memory published through it.
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Builds the TAS and in-memory APL of `members`, in order.
    pub(crate) fn build(dataset: &Dataset, members: &[TrajectoryId], tas_intervals: usize) -> Self {
        let trajectories = || members.iter().map(|&g| dataset.trajectory(g));
        Part::new(
            Tas::build(trajectories().map(|tr| tr.all_activities()), tas_intervals),
            AplStorage::Memory(Apl::build(trajectories())),
        )
    }

    /// Trajectories in the part.
    pub(crate) fn len(&self) -> usize {
        self.tas.len()
    }

    /// Fetches the posting lists of local id `local`, charging one APL
    /// read to this part.
    pub(crate) fn postings(&self, local: usize) -> Result<Cow<'_, TrajectoryPostings>> {
        self.stats.record_apl_read();
        self.apl.postings(local).map_err(storage_err)
    }

    /// Accumulated verification nanoseconds.
    pub(crate) fn busy_ns(&self) -> u64 {
        // ordering: Relaxed — advisory busy-time tally (see field).
        self.busy_ns.load(AtomicOrdering::Relaxed)
    }

    /// Zeroes the counters, APL pool statistics and busy time.
    pub(crate) fn reset(&self) {
        self.stats.reset();
        self.apl.reset_pool_stats();
        // ordering: Relaxed — advisory stat reset; callers quiesce or
        // tolerate increments from in-flight queries.
        self.busy_ns.store(0, AtomicOrdering::Relaxed);
    }
}

/// One query's busy-time clock. With more than one part it books each
/// owner part's verification time to that part (and to the active
/// per-query counter scope, if any) and the remainder of the query —
/// traversal, lower bound and routing — to the router. With one part
/// it reads no clock at all.
pub(crate) struct BusyClock {
    start: Option<Instant>,
    part_ns: Vec<u64>,
}

impl BusyClock {
    /// Starts the clock for one query on `index`.
    pub(crate) fn start(index: &GatIndex) -> Self {
        let parts = index.parts().len();
        let timed = parts > 1;
        BusyClock {
            start: timed.then(Instant::now),
            part_ns: vec![0; if timed { parts } else { 0 }],
        }
    }

    /// Runs `verify(part, local id)` on the part owning `tr`, timing it
    /// when the clock runs.
    pub(crate) fn verify<T>(
        &mut self,
        index: &GatIndex,
        tr: TrajectoryId,
        verify: impl FnOnce(&Part, usize) -> T,
    ) -> T {
        let (p, local) = index.locate(tr);
        let part = &index.parts()[p];
        if self.start.is_none() {
            return verify(part, local);
        }
        let t = Instant::now();
        let out = verify(part, local);
        self.part_ns[p] += t.elapsed().as_nanos() as u64;
        out
    }

    /// Books the query's busy time.
    pub(crate) fn finish(self, index: &GatIndex) {
        let Some(start) = self.start else { return };
        let total_ns = start.elapsed().as_nanos() as u64;
        for (i, (part, &ns)) in index.parts().iter().zip(&self.part_ns).enumerate() {
            if ns > 0 {
                // ordering: Relaxed — advisory busy-time tally.
                part.busy_ns.fetch_add(ns, AtomicOrdering::Relaxed);
                atsq_obs::record_shard_busy(i, ns);
            }
        }
        let verify_ns: u64 = self.part_ns.iter().sum();
        index.add_router_busy(total_ns.saturating_sub(verify_ns));
    }
}

/// Assigns ids `0..n` to parts by multiplicative (Fibonacci) hashing.
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

/// Assigns trajectories to parts by sorting centroids along the
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
    use crate::config::GatConfig;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, Query, QueryPoint, TrajectoryPoint};

    fn dataset(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..8 {
            b.observe_activity(&format!("a{i}"));
        }
        // Deterministic pseudo-random layout with enough structure for
        // both partitioners to produce non-trivial parts.
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

    fn build(d: &Dataset, shards: usize, partition: Partition) -> GatIndex {
        GatIndex::build_sharded(d, GatConfig::default(), shards, partition).unwrap()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let d = dataset(50);
        for partition in [Partition::Hash, Partition::Spatial] {
            for s in [1usize, 2, 3, 7] {
                let index = build(&d, s, partition);
                assert_eq!(index.shard_count(), s);
                let sizes = index.shard_sizes();
                assert_eq!(sizes.iter().sum::<usize>(), d.len());
                // Every global id owns a distinct in-range local slot,
                // and local ids ascend with global ids in each part.
                let mut seen = std::collections::HashSet::new();
                let mut last_local = vec![None; s];
                for tr in d.trajectories() {
                    let (part, local) = index.locate(tr.id);
                    assert!(seen.insert((part, local)), "slot assigned twice");
                    assert!(local < sizes[part]);
                    assert!(last_local[part] < Some(local), "local ids must ascend");
                    last_local[part] = Some(local);
                }
            }
        }
        // Spatial chunks are balanced to within one trajectory.
        let sizes = build(&d, 3, Partition::Spatial).shard_sizes();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn sharded_matches_single_index_exactly() {
        use crate::search::{atsq, atsq_range, oatsq, oatsq_range};
        let d = dataset(60);
        let single = GatIndex::build(&d).unwrap();
        for partition in [Partition::Hash, Partition::Spatial] {
            for s in [1usize, 2, 3, 7] {
                let index = build(&d, s, partition);
                for q in [query(10.0, 10.0), query(50.0, 80.0)] {
                    for k in [1usize, 3, 9] {
                        assert_eq!(
                            atsq(&index, &d, &q, k),
                            atsq(&single, &d, &q, k),
                            "ATSQ diverged (S={s}, {partition})"
                        );
                        assert_eq!(
                            oatsq(&index, &d, &q, k),
                            oatsq(&single, &d, &q, k),
                            "OATSQ diverged (S={s}, {partition})"
                        );
                    }
                    for tau in [5.0f64, 40.0] {
                        assert_eq!(
                            atsq_range(&index, &d, &q, tau),
                            atsq_range(&single, &d, &q, tau),
                            "range ATSQ diverged (S={s}, {partition})"
                        );
                        assert_eq!(
                            oatsq_range(&index, &d, &q, tau),
                            oatsq_range(&single, &d, &q, tau),
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
        let index = build(&d, 4, Partition::Hash);
        let _ = crate::search::atsq(&index, &d, &query(20.0, 20.0), 5);
        let stats = index.per_shard_stats();
        assert_eq!(stats.len(), 4);
        assert!(
            stats.iter().map(|s| s.candidates_retrieved).sum::<u64>() > 0,
            "{stats:?}"
        );
        assert!(
            index.per_shard_busy_ns().iter().sum::<u64>() > 0,
            "searches must accrue busy time"
        );
        index.reset_stats();
        assert!(index
            .per_shard_stats()
            .iter()
            .all(|s| s.candidates_retrieved == 0));
        assert!(index.per_shard_busy_ns().iter().all(|&ns| ns == 0));
        // A single-part index reads no clock: no busy time accrues.
        let single = build(&d, 1, Partition::Hash);
        let _ = crate::search::atsq(&single, &d, &query(20.0, 20.0), 5);
        assert_eq!(single.per_shard_busy_ns(), vec![0]);
        assert_eq!(single.router_busy_ns(), 0);
    }

    #[test]
    fn zero_shards_is_rejected_and_empty_dataset_works() {
        let d = dataset(10);
        let err = GatIndex::build_sharded(&d, GatConfig::default(), 0, Partition::Hash);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");
        let empty = DatasetBuilder::new().finish().unwrap();
        let index = build(&empty, 3, Partition::Spatial);
        assert!(index.is_empty());
        let q = Query::new(vec![QueryPoint::new(
            Point::new(0.0, 0.0),
            ActivitySet::from_raw([1]),
        )])
        .unwrap();
        assert!(crate::search::atsq(&index, &empty, &q, 3).is_empty());
        assert!(crate::search::atsq_range(&index, &empty, &q, 10.0).is_empty());
    }

    /// One traversal generates exactly the single-index candidate
    /// stream, attributed to owner parts: the per-part candidate counts
    /// sum to the single index's count, and traversal work lands on
    /// the router.
    #[test]
    fn shared_traversal_work_sums_to_single_index() {
        let d = dataset(60);
        let single = GatIndex::build(&d).unwrap();
        let index = build(&d, 4, Partition::Hash);
        let q = query(20.0, 20.0);
        let want = crate::search::atsq(&single, &d, &q, 5);
        let single_candidates = single.stats().candidates_retrieved;

        index.reset_stats();
        assert_eq!(crate::search::atsq(&index, &d, &q, 5), want);
        let sharded_candidates: u64 = index
            .per_shard_stats()
            .iter()
            .map(|s| s.candidates_retrieved)
            .sum();
        assert_eq!(
            sharded_candidates, single_candidates,
            "sharding must not multiply candidate work"
        );
        assert_eq!(
            index.router_stats().candidates_retrieved,
            0,
            "candidates are charged to owner parts, never the router"
        );
        assert_eq!(index.stats(), single.stats(), "engine totals match S=1");
        assert!(
            index.router_busy_ns() > 0,
            "the router traversal must accrue busy time"
        );
        index.reset_stats();
        assert_eq!(index.router_busy_ns(), 0);
        assert_eq!(index.router_stats().hicl_cold_reads, 0);
    }
}
