//! Assembling the GAT index from a dataset: one traversal half (grid,
//! HICL, ITL) over every trajectory and `S ≥ 1` verification parts
//! (TAS, APL); see [`crate::sharded`].

use crate::apl::TrajectoryPostings;
use crate::config::GatConfig;
use crate::hicl::Hicl;
use crate::itl::Itl;
use crate::paged::{storage_err, AplStorage, PagedApl, PagedAplConfig, PagedColdHicl};
use crate::sharded::{membership, owner_table, Part, Partition};
use crate::stats::{IoSnapshot, IoStats};
use crate::tas::{Sketch, Tas};
use atsq_grid::{CellId, Grid};
use atsq_model::atomic::{AtomicU64, Ordering as AtomicOrdering};
use atsq_storage::PoolStats;
use atsq_types::{ActivitySet, Dataset, Error, Rect, Result, TrajectoryId};
use std::borrow::Cow;

/// The complete GAT index over one dataset.
///
/// The traversal half — grid, HICL, ITL and the optional paged cold
/// HICL levels — covers every trajectory once. Verification structures
/// (TAS, APL) live in `S ≥ 1` parts (see [`crate::sharded`]); `S = 1`
/// is the paper's single index. Accessors take global trajectory ids
/// at every `S`.
///
/// The index stores no copy of the trajectory data; query functions
/// take the [`Dataset`] alongside the index (trajectory ids are stable
/// indexes into it).
#[derive(Debug)]
pub struct GatIndex {
    config: GatConfig,
    grid: Grid,
    hicl: Hicl,
    itl: Itl,
    /// Cold HICL levels on pages (paged builds only); the in-memory
    /// `hicl` keeps serving the hot levels and dynamic inserts.
    cold_hicl: Option<PagedColdHicl>,
    /// Traversal counters (cold HICL reads). Verification counters
    /// live on the parts.
    stats: IoStats,
    partition: Partition,
    parts: Vec<Part>,
    /// Global id → `(part, local id)`; empty for a single part.
    owner: Vec<(u32, u32)>,
    /// Accumulated query time outside owner-part verification
    /// (traversal, lower bound and routing), in nanoseconds; timed
    /// only with more than one part.
    router_busy_ns: AtomicU64,
}

impl GatIndex {
    /// Builds the index with the paper's default configuration.
    pub fn build(dataset: &Dataset) -> Result<Self> {
        Self::build_with(dataset, GatConfig::default())
    }

    /// Builds the index with an explicit configuration.
    pub fn build_with(dataset: &Dataset, config: GatConfig) -> Result<Self> {
        Self::build_sharded(dataset, config, 1, Partition::Hash)
    }

    /// Builds the index with its verification half split into `shards`
    /// parts by `partition`. Answers are identical for every shard
    /// count; `shards == 0` is [`Error::InvalidConfig`].
    pub fn build_sharded(
        dataset: &Dataset,
        config: GatConfig,
        shards: usize,
        partition: Partition,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidConfig("shard count must be ≥ 1".into()));
        }
        config.validate()?;
        let region = usable_region(dataset.bounds());
        let grid = Grid::new(region, config.grid_level);
        let d = config.grid_level;

        // One pass over all points collects HICL and ITL occurrences.
        let mut hicl_occ = Vec::new();
        let mut itl_occ = Vec::new();
        for tr in dataset.trajectories() {
            for p in &tr.points {
                let cell = grid.leaf_cell_of(&p.loc);
                for a in p.activities.iter() {
                    hicl_occ.push((a, cell));
                    itl_occ.push((cell, a, tr.id));
                }
            }
        }
        let hicl = Hicl::build(d, hicl_occ);
        let itl = Itl::build(d, itl_occ);

        let membership = membership(dataset, shards, partition);
        let owner = owner_table(dataset.len(), &membership);
        let parts = membership
            .iter()
            .map(|members| Part::build(dataset, members, config.tas_intervals))
            .collect();
        Ok(Self::new(config, partition, grid, hicl, itl, parts, owner))
    }

    fn new(
        config: GatConfig,
        partition: Partition,
        grid: Grid,
        hicl: Hicl,
        itl: Itl,
        parts: Vec<Part>,
        owner: Vec<(u32, u32)>,
    ) -> Self {
        GatIndex {
            config,
            grid,
            hicl,
            itl,
            cold_hicl: None,
            stats: IoStats::new(),
            partition,
            parts,
            owner,
            // ordering: Relaxed everywhere this counter is touched —
            // advisory busy-time tally, no memory published through it.
            router_busy_ns: AtomicU64::new(0),
        }
    }

    /// Builds the index with an explicit configuration and the APL on
    /// real pages behind a buffer pool (see [`crate::paged`]). Queries
    /// return exactly what [`GatIndex::build_with`] returns; the
    /// difference is measured page traffic instead of simulated
    /// counters. Paged indexes have one part.
    pub fn build_paged(
        dataset: &Dataset,
        config: GatConfig,
        apl_config: &PagedAplConfig,
    ) -> Result<Self> {
        let paged =
            PagedApl::build(dataset.trajectories().iter(), apl_config).map_err(storage_err)?;
        let mut index =
            Self::build_with(dataset, config)?.with_apl_storage(AplStorage::Paged(paged))?;
        // Page the cold HICL levels too (§IV keeps levels above h on
        // secondary storage alongside the APL).
        index.cold_hicl = PagedColdHicl::build(&index.hicl, config.memory_level, apl_config)
            .map_err(storage_err)?;
        Ok(index)
    }

    /// Replaces the APL storage of a single-part index wholesale. The
    /// storage must cover exactly the indexed trajectories, in order —
    /// used by tests (e.g. fault injection through a custom page store)
    /// and by callers that prebuilt a [`PagedApl`] over their own
    /// [`atsq_storage::PageStore`].
    ///
    /// Fails with [`Error::InvalidConfig`] on an index with more than
    /// one part, or when `apl` covers a different number of
    /// trajectories than the index.
    pub fn with_apl_storage(mut self, apl: AplStorage) -> Result<Self> {
        self.single_part_only("replacing the APL storage")?;
        if apl.len() != self.len() {
            return Err(Error::InvalidConfig(format!(
                "replacement APL covers {} trajectories, the index {}",
                apl.len(),
                self.len()
            )));
        }
        self.parts[0].apl = apl;
        Ok(self)
    }

    fn single_part_only(&self, what: &str) -> Result<()> {
        if self.parts.len() > 1 {
            return Err(Error::InvalidConfig(format!(
                "{what} needs a single-part index (this one has {} parts)",
                self.parts.len()
            )));
        }
        Ok(())
    }

    /// Reassembles an index from deserialized components (the snapshot
    /// loader's constructor). The caller — [`crate::snapshot`] — has
    /// already validated cross-component consistency and recomputed
    /// the membership; the result has in-memory APLs and fresh
    /// counters.
    pub(crate) fn from_parts(
        config: GatConfig,
        partition: Partition,
        grid: Grid,
        hicl: Hicl,
        itl: Itl,
        parts: Vec<(Tas, crate::apl::Apl)>,
        membership: &[Vec<TrajectoryId>],
    ) -> Self {
        let n = membership.iter().map(Vec::len).sum();
        let parts = parts
            .into_iter()
            .map(|(tas, apl)| Part::new(tas, AplStorage::Memory(apl)))
            .collect();
        Self::new(
            config,
            partition,
            grid,
            hicl,
            itl,
            parts,
            owner_table(n, membership),
        )
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &GatConfig {
        &self.config
    }

    /// The hierarchical grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The hierarchical inverted cell list.
    pub fn hicl(&self) -> &Hicl {
        &self.hicl
    }

    /// The inverted trajectory lists.
    pub fn itl(&self) -> &Itl {
        &self.itl
    }

    /// Trajectories indexed.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Part::len).sum()
    }

    /// Whether the index holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The verification parts, in part order.
    pub(crate) fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// The part owning global trajectory `tr`, and its local id there.
    pub(crate) fn locate(&self, tr: TrajectoryId) -> (usize, usize) {
        match self.owner.get(tr.index()) {
            Some(&(part, local)) => (part as usize, local as usize),
            None => (0, tr.index()),
        }
    }

    /// The activity sketch of trajectory `tr`.
    pub fn sketch(&self, tr: TrajectoryId) -> &Sketch {
        let (p, local) = self.locate(tr);
        self.parts[p].tas.sketch(local)
    }

    /// Fetches the posting lists of trajectory `tr`, charging one APL
    /// read to its part. Borrowed from memory or fetched through the
    /// buffer pool depending on the backend; fails only on a
    /// paged-storage error.
    pub fn postings(&self, tr: TrajectoryId) -> Result<Cow<'_, TrajectoryPostings>> {
        let (p, local) = self.locate(tr);
        self.parts[p].postings(local)
    }

    /// Buffer-pool counters of a paged APL; `None` for in-memory APLs.
    pub fn apl_pool_stats(&self) -> Option<PoolStats> {
        self.parts[0].apl.pool_stats()
    }

    /// Number of verification parts (`1` for the single index).
    pub fn shard_count(&self) -> usize {
        self.parts.len()
    }

    /// The partitioner that assigned trajectories to parts.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Trajectories per part, in part order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(Part::len).collect()
    }

    /// Engine totals of the simulated-I/O counters: the traversal's
    /// cold HICL reads plus every part's verification work.
    pub fn stats(&self) -> IoSnapshot {
        self.parts
            .iter()
            .fold(self.stats.snapshot(), |acc, p| acc.add(&p.stats.snapshot()))
    }

    /// Counters of the traversal alone (cold HICL reads of candidate
    /// retrieval; candidates are charged to their owner part).
    pub fn router_stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Per-part counter snapshots, in part order.
    pub fn per_shard_stats(&self) -> Vec<IoSnapshot> {
        self.parts.iter().map(|p| p.stats.snapshot()).collect()
    }

    /// Accumulated per-part verification time in nanoseconds, in part
    /// order; zeros for a single part, whose queries read no clock.
    pub fn per_shard_busy_ns(&self) -> Vec<u64> {
        self.parts.iter().map(Part::busy_ns).collect()
    }

    /// Accumulated nanoseconds queries spent outside owner-part
    /// verification — traversal, lower bound and routing; zero for a
    /// single part.
    pub fn router_busy_ns(&self) -> u64 {
        // ordering: Relaxed — advisory busy-time tally (see field).
        self.router_busy_ns.load(AtomicOrdering::Relaxed)
    }

    pub(crate) fn add_router_busy(&self, ns: u64) {
        // ordering: Relaxed — advisory busy-time tally (see field).
        self.router_busy_ns.fetch_add(ns, AtomicOrdering::Relaxed);
    }

    /// Zeroes every counter, APL buffer-pool statistic and busy time.
    pub fn reset_stats(&self) {
        self.stats.reset();
        for p in &self.parts {
            p.reset();
        }
        // ordering: Relaxed — advisory stat reset (see field).
        self.router_busy_ns.store(0, AtomicOrdering::Relaxed);
    }

    /// The paged cold HICL levels (paged builds with
    /// `memory_level < grid_level` only).
    pub fn cold_hicl(&self) -> Option<&PagedColdHicl> {
        self.cold_hicl.as_ref()
    }

    /// Activities present in a cell, charging a cold read when the
    /// cell lies below the memory-resident HICL levels. With a paged
    /// build the cold read goes through the buffer pool for real and
    /// can therefore fail.
    pub fn cell_activities(&self, cell: CellId) -> Result<Option<Cow<'_, ActivitySet>>> {
        if cell.level > self.config.memory_level {
            self.stats.record_hicl_cold_read();
            if let Some(cold) = &self.cold_hicl {
                return cold
                    .cell_activities(cell)
                    .map(|o| o.map(Cow::Owned))
                    .map_err(storage_err);
            }
        }
        Ok(self.hicl.cell_activities(cell).map(Cow::Borrowed))
    }

    /// Children of `cell` containing any wanted activity, with cold
    /// accounting as in [`GatIndex::cell_activities`].
    pub fn children_with_any(&self, cell: CellId, wanted: &ActivitySet) -> Result<Vec<CellId>> {
        if cell.level + 1 > self.config.memory_level {
            self.stats.record_hicl_cold_read();
            if let Some(cold) = &self.cold_hicl {
                let mut out = Vec::new();
                for child in cell.children() {
                    if let Some(acts) = cold.cell_activities(child).map_err(storage_err)? {
                        if acts.intersects(wanted) {
                            out.push(child);
                        }
                    }
                }
                return Ok(out);
            }
        }
        Ok(self.hicl.children_with_any(cell, wanted))
    }

    /// Dynamically indexes one newly appended trajectory.
    ///
    /// Call after [`atsq_types::Dataset::append_trajectory`]; `tr` must
    /// be the trajectory at index `self.len()` (appends must be indexed
    /// in order, exactly once). Points outside the original grid region
    /// are clamped into the border cells, so the index stays correct —
    /// though heavy out-of-region growth degrades pruning and warrants
    /// a rebuild.
    ///
    /// Fails with [`Error::InvalidConfig`] on an index with more than
    /// one part (its partition is a function of the whole dataset —
    /// rebuild instead) and for indexes built with paged cold HICL
    /// levels (their page records are immutable); fails too when the
    /// paged APL backend cannot append the new posting record. The
    /// in-memory single-part case is infallible.
    pub fn insert_trajectory(&mut self, tr: &atsq_types::Trajectory) -> Result<()> {
        self.single_part_only("dynamic inserts")?;
        if self.cold_hicl.is_some() {
            return Err(Error::InvalidConfig(
                "dynamic inserts are not supported with paged cold HICL levels; \
                 rebuild the index"
                    .into(),
            ));
        }
        assert_eq!(
            tr.id.index(),
            self.len(),
            "trajectories must be indexed in append order"
        );
        // Append the posting record first: if the paged backend fails,
        // no other component has been touched yet.
        let part = &mut self.parts[0];
        part.apl.push(tr).map_err(storage_err)?;
        for p in &tr.points {
            let cell = self.grid.leaf_cell_of(&p.loc);
            for a in p.activities.iter() {
                self.hicl.insert(a, cell);
                self.itl.insert(cell, a, tr.id);
            }
        }
        part.tas
            .push(&tr.all_activities(), self.config.tas_intervals);
        Ok(())
    }

    /// Memory accounting for the Fig. 8 experiment, summed over parts.
    pub fn memory_report(&self) -> MemoryReport {
        let h = self.config.memory_level;
        let hicl_hot = self.hicl.memory_bytes(h);
        let hicl_total = self.hicl.memory_bytes(self.config.grid_level);
        MemoryReport {
            hicl_hot_bytes: hicl_hot,
            hicl_cold_bytes: hicl_total - hicl_hot,
            itl_bytes: self.itl.memory_bytes(),
            tas_bytes: self.parts.iter().map(|p| p.tas.memory_bytes()).sum(),
            apl_disk_bytes: self.parts.iter().map(|p| p.apl.disk_bytes()).sum(),
        }
    }
}

/// Byte-level footprint of the index components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// HICL levels kept in main memory (`1..=h`).
    pub hicl_hot_bytes: usize,
    /// HICL levels the paper stores on disk (`h+1..=d`).
    pub hicl_cold_bytes: usize,
    /// ITL size (main memory).
    pub itl_bytes: usize,
    /// TAS size (main memory).
    pub tas_bytes: usize,
    /// APL size (disk in the paper).
    pub apl_disk_bytes: usize,
}

impl MemoryReport {
    /// Total main-memory footprint: hot HICL + ITL + TAS (the paper's
    /// Fig. 8 "memory cost" curve counts the resident components).
    pub fn main_memory_bytes(&self) -> usize {
        self.hicl_hot_bytes + self.itl_bytes + self.tas_bytes
    }

    /// Every component, including the ones the paper pages to disk
    /// (cold HICL levels, APL). This implementation keeps all of them
    /// resident, so this is what the multi-tenant memory budget charges
    /// per index.
    pub fn total_bytes(&self) -> usize {
        self.hicl_hot_bytes
            + self.hicl_cold_bytes
            + self.itl_bytes
            + self.tas_bytes
            + self.apl_disk_bytes
    }
}

/// Expands degenerate dataset bounds into a usable grid region: empty
/// datasets get a unit square, zero-extent axes get padding so cells
/// have positive area.
fn usable_region(bounds: Rect) -> Rect {
    if bounds.is_empty() {
        return Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
    }
    let pad_x = if bounds.width() > 0.0 { 0.0 } else { 0.5 };
    let pad_y = if bounds.height() > 0.0 { 0.0 } else { 0.5 };
    Rect::from_bounds(
        bounds.min.x - pad_x,
        bounds.min.y - pad_y,
        bounds.max.x + pad_x,
        bounds.max.y + pad_y,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_types::{ActivitySet, DatasetBuilder, Point, TrajectoryId, TrajectoryPoint};

    fn small_dataset() -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a0 = b.observe_activity("coffee");
        let a1 = b.observe_activity("art");
        let a2 = b.observe_activity("hike");
        b.push_trajectory(vec![
            TrajectoryPoint::new(Point::new(1.0, 1.0), ActivitySet::from_ids([a0])),
            TrajectoryPoint::new(Point::new(5.0, 5.0), ActivitySet::from_ids([a1])),
        ]);
        b.push_trajectory(vec![TrajectoryPoint::new(
            Point::new(9.0, 9.0),
            ActivitySet::from_ids([a2, a0]),
        )]);
        b.finish().unwrap()
    }

    #[test]
    fn build_populates_components() {
        let d = small_dataset();
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: 4,
                memory_level: 3,
                ..GatConfig::default()
            },
        )
        .unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.shard_sizes(), vec![2]);
        assert_eq!(idx.hicl().activity_count(), 3);
        assert!(idx.itl().cell_count() >= 2);
        // The cell of (1,1) contains "coffee".
        let cell = idx.grid().leaf_cell_of(&Point::new(1.0, 1.0));
        assert_eq!(
            idx.itl().trajectories(cell, atsq_types::ActivityId(0)),
            &[TrajectoryId(0)]
        );
    }

    #[test]
    fn cold_reads_are_counted() {
        let d = small_dataset();
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: 4,
                memory_level: 2,
                ..GatConfig::default()
            },
        )
        .unwrap();
        let leaf = idx.grid().leaf_cell_of(&Point::new(1.0, 1.0));
        let _ = idx.cell_activities(leaf); // level 4 > 2 -> cold
        let _ = idx.cell_activities(leaf.ancestor_at(1)); // hot
        assert_eq!(idx.stats().hicl_cold_reads, 1);
    }

    #[test]
    fn memory_report_is_consistent() {
        let d = small_dataset();
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: 4,
                memory_level: 2,
                ..GatConfig::default()
            },
        )
        .unwrap();
        let r = idx.memory_report();
        assert!(r.hicl_hot_bytes > 0);
        assert!(r.hicl_cold_bytes > 0);
        assert!(r.itl_bytes > 0);
        assert!(r.tas_bytes > 0);
        assert!(r.apl_disk_bytes > 0);
        assert_eq!(
            r.main_memory_bytes(),
            r.hicl_hot_bytes + r.itl_bytes + r.tas_bytes
        );
    }

    /// Replacing the APL storage needs a single part: a sharded index
    /// refuses with a typed error instead of panicking.
    #[test]
    fn sharded_index_rejects_apl_replacement() {
        let d = small_dataset();
        let index = GatIndex::build_sharded(&d, GatConfig::default(), 2, Partition::Hash).unwrap();
        let apl = AplStorage::Memory(crate::apl::Apl::build(d.trajectories()));
        let err = index.with_apl_storage(apl).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        // A single part takes storage of the right length only.
        let single = GatIndex::build(&d).unwrap();
        let short = AplStorage::Memory(crate::apl::Apl::build(&d.trajectories()[..1]));
        let err = single.with_apl_storage(short).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }

    /// Dynamic inserts need a single part: a sharded index's partition
    /// is a function of the whole dataset.
    #[test]
    fn sharded_index_rejects_dynamic_inserts() {
        let mut d = small_dataset();
        let mut index =
            GatIndex::build_sharded(&d, GatConfig::default(), 2, Partition::Spatial).unwrap();
        let points = d.trajectories()[0].points.clone();
        let id = d.append_trajectory(points).unwrap();
        let err = index.insert_trajectory(d.trajectory(id)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert_eq!(index.len(), 2, "a refused insert changes nothing");
    }

    #[test]
    fn empty_dataset_builds() {
        let d = DatasetBuilder::new().finish().unwrap();
        let idx = GatIndex::build(&d).unwrap();
        assert!(idx.is_empty());
        assert_eq!(idx.hicl().activity_count(), 0);
    }

    #[test]
    fn degenerate_bounds_are_padded() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("x");
        // All points identical: zero-extent bounds.
        b.push_trajectory(vec![TrajectoryPoint::new(
            Point::new(3.0, 3.0),
            ActivitySet::from_ids([a]),
        )]);
        let d = b.finish().unwrap();
        let idx = GatIndex::build(&d).unwrap();
        assert!(idx.grid().region().area() > 0.0);
    }
}
