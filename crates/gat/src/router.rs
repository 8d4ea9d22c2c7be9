//! The sharded engine's candidate router: a traversal-only index.
//!
//! The router holds only the components candidate retrieval needs —
//! grid geometry, HICL and leaf-cell ITL over the **whole** dataset —
//! so one traversal per query generates every candidate exactly as
//! the single-index search would, and each candidate goes to its
//! owning shard for TAS/APL verification. Total traversal work stays
//! that of one index whatever the shard count.
//!
//! The router is deliberately *not* persisted in snapshots: it is a
//! deterministic function of the dataset and the base configuration,
//! and rebuilding it costs one occurrence pass (no TAS sketches, no
//! APL posting lists — the expensive verification structures stay
//! per-shard).

use crate::config::GatConfig;
use crate::hicl::Hicl;
use crate::index::usable_region;
use crate::itl::Itl;
use crate::search::CandidateSource;
use crate::stats::IoStats;
use atsq_grid::{CellId, Grid};
use atsq_types::{ActivityId, ActivitySet, Dataset, Result, TrajectoryId};
use std::borrow::Cow;

/// Grid + HICL + ITL over the full dataset, with its own I/O counters.
///
/// Cold-read accounting mirrors [`crate::index::GatIndex`]: HICL
/// levels deeper than `memory_level` charge a cold fetch per access.
/// Traversal work a query spends here is attributed to the router's
/// [`IoStats`] (and through it to the per-query observability scope),
/// not to any shard.
#[derive(Debug)]
pub(crate) struct RouterIndex {
    config: GatConfig,
    grid: Grid,
    hicl: Hicl,
    itl: Itl,
    stats: IoStats,
}

impl RouterIndex {
    /// Builds the router from the full dataset — the same occurrence
    /// pass as a full index build, minus TAS and APL. The caller
    /// passes the (volume-tuned) traversal configuration; see
    /// [`crate::sharded::ShardedEngine::assemble`].
    pub(crate) fn build(dataset: &Dataset, config: GatConfig) -> Result<Self> {
        config.validate()?;
        let region = usable_region(dataset.bounds());
        let grid = Grid::new(region, config.grid_level);
        let d = config.grid_level;

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

        Ok(RouterIndex {
            config,
            grid,
            hicl: Hicl::build(d, hicl_occ),
            itl: Itl::build(d, itl_occ),
            stats: IoStats::new(),
        })
    }

    /// The router's simulated-I/O counters (cold HICL reads during
    /// candidate retrieval land here).
    pub(crate) fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Resident bytes of the router structures, for the engine's
    /// memory accounting.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.hicl.memory_bytes(self.config.grid_level) + self.itl.memory_bytes()
    }
}

impl CandidateSource for RouterIndex {
    fn config(&self) -> &GatConfig {
        &self.config
    }

    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn itl_trajectories(&self, cell: CellId, act: ActivityId) -> &[TrajectoryId] {
        self.itl.trajectories(cell, act)
    }

    fn cell_activities(&self, cell: CellId) -> Result<Option<Cow<'_, ActivitySet>>> {
        if cell.level > self.config.memory_level {
            self.stats.record_hicl_cold_read();
        }
        Ok(self.hicl.cell_activities(cell).map(Cow::Borrowed))
    }

    fn children_with_any(&self, cell: CellId, wanted: &ActivitySet) -> Result<Vec<CellId>> {
        if cell.level + 1 > self.config.memory_level {
            self.stats.record_hicl_cold_read();
        }
        Ok(self.hicl.children_with_any(cell, wanted))
    }
}
