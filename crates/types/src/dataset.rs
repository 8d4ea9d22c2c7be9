//! The trajectory database `D` and its summary statistics (Table IV).

use crate::activity::{ActivityId, ActivitySet, Vocabulary};
use crate::error::{Error, Result};
use crate::geo::Rect;
use crate::trajectory::{Trajectory, TrajectoryId, TrajectoryPoint};
use std::fmt;

/// An immutable activity-trajectory database, the `D` of the paper.
///
/// Construction goes through [`DatasetBuilder`], which interns activity
/// names, assigns dense trajectory ids, and (by default) re-ranks
/// activity ids by descending frequency as §IV requires for the TAS
/// sketch.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    trajectories: Vec<Trajectory>,
    vocabulary: Vocabulary,
    bounds: Rect,
}

impl Dataset {
    /// All trajectories, indexable by [`TrajectoryId::index`].
    #[inline]
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// The trajectory with the given id.
    #[inline]
    pub fn trajectory(&self, id: TrajectoryId) -> &Trajectory {
        &self.trajectories[id.index()]
    }

    /// Number of trajectories (`|D|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the dataset holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// The activity vocabulary `A`.
    #[inline]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Bounding rectangle of every point in the dataset.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Summary statistics in the shape of the paper's Table IV.
    pub fn stats(&self) -> DatasetStats {
        let mut venues = 0usize;
        let mut activities = 0usize;
        for tr in &self.trajectories {
            venues += tr.len();
            for p in &tr.points {
                activities += p.activities.len();
            }
        }
        DatasetStats {
            trajectories: self.trajectories.len(),
            venues,
            activity_occurrences: activities,
            distinct_activities: self.vocabulary.len(),
        }
    }

    /// Appends one trajectory to an existing dataset, returning its id.
    ///
    /// All activity ids must already exist in the vocabulary (intern
    /// new names through [`Dataset::vocabulary_mut`] first). Activity
    /// ids are *not* re-ranked by frequency — the ranking reflects the
    /// corpus at build time, which keeps existing TAS sketches valid;
    /// rebuild periodically if the activity distribution drifts.
    pub fn append_trajectory(
        &mut self,
        points: Vec<crate::trajectory::TrajectoryPoint>,
    ) -> Result<TrajectoryId> {
        for p in &points {
            for a in p.activities.iter() {
                if a.index() >= self.vocabulary.len() {
                    return Err(Error::InvalidDataset(format!(
                        "appended trajectory references unknown activity {a}"
                    )));
                }
                self.vocabulary.add_count(a, 1);
            }
            self.bounds.extend_point(&p.loc);
        }
        let id = TrajectoryId(self.trajectories.len() as u32);
        self.trajectories.push(Trajectory::new(id, points));
        Ok(id)
    }

    /// Mutable vocabulary access, for interning new activity names
    /// before [`Dataset::append_trajectory`].
    pub fn vocabulary_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocabulary
    }

    /// Restricts the dataset to its first `n` trajectories — the
    /// sampling protocol behind the paper's Fig. 7 scalability sweep.
    /// Vocabulary and bounds are retained; counts are not re-derived
    /// (only structure matters for the sweep).
    pub fn sample_prefix(&self, n: usize) -> Dataset {
        let n = n.min(self.trajectories.len());
        Dataset {
            trajectories: self.trajectories[..n].to_vec(),
            vocabulary: self.vocabulary.clone(),
            bounds: self.bounds,
        }
    }

    /// Rough resident heap size of the dataset in bytes: trajectory
    /// and point storage, activity-set ids, and the interned
    /// vocabulary. This is the dataset half of the tenancy layer's
    /// memory-budget accounting — an estimate (no allocator overhead),
    /// not a measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Dataset>();
        for tr in &self.trajectories {
            bytes += size_of::<Trajectory>() + tr.points.len() * size_of::<TrajectoryPoint>();
            for p in &tr.points {
                bytes += p.activities.len() * size_of::<ActivityId>();
            }
        }
        bytes + self.vocabulary.approx_bytes()
    }

    /// A deterministic 64-bit fingerprint of the dataset's full
    /// content: vocabulary (names, counts, id order), every trajectory
    /// point (exact coordinate bits) and every activity set.
    ///
    /// The hash is FNV-1a over a canonical byte stream, so it is stable
    /// across processes, platforms and re-loads of the same snapshot —
    /// which is what lets persisted index snapshots be keyed by the
    /// dataset they were built from and invalidated when the data
    /// changes. It is a corruption/staleness check, not a cryptographic
    /// commitment.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.vocabulary.len() as u64);
        for i in 0..self.vocabulary.len() as u32 {
            let id = ActivityId(i);
            let name = self.vocabulary.name(id).expect("dense vocabulary ids");
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            h.write_u64(self.vocabulary.count(id));
        }
        h.write_u64(self.trajectories.len() as u64);
        for tr in &self.trajectories {
            h.write_u64(tr.points.len() as u64);
            for p in &tr.points {
                h.write_u64(p.loc.x.to_bits());
                h.write_u64(p.loc.y.to_bits());
                h.write_u64(p.activities.len() as u64);
                for a in p.activities.iter() {
                    h.write_u64(u64::from(a.0));
                }
            }
        }
        h.finish()
    }
}

/// FNV-1a (64-bit): tiny, dependency-free, deterministic. Quality is
/// ample for content-addressed cache keys — [`Dataset::content_hash`]
/// and the index-snapshot subsystem both hash through this one
/// implementation so the constants can never diverge.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorbs one `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Table-IV-style dataset statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    /// `#trajectory` — number of trajectories.
    pub trajectories: usize,
    /// `#venue` — total number of trajectory points.
    pub venues: usize,
    /// `#activity` — total activity occurrences over all points.
    pub activity_occurrences: usize,
    /// `#distinct activity` — vocabulary cardinality.
    pub distinct_activities: usize,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "#trajectory        {:>10}", self.trajectories)?;
        writeln!(f, "#venue             {:>10}", self.venues)?;
        writeln!(f, "#activity          {:>10}", self.activity_occurrences)?;
        write!(f, "#distinct activity {:>10}", self.distinct_activities)
    }
}

/// Incremental builder for [`Dataset`].
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    trajectories: Vec<Trajectory>,
    vocabulary: Vocabulary,
    bounds: Rect,
    rank_by_frequency: bool,
}

impl DatasetBuilder {
    /// A fresh builder that will frequency-rank activity ids on finish.
    pub fn new() -> Self {
        DatasetBuilder {
            trajectories: Vec::new(),
            vocabulary: Vocabulary::new(),
            bounds: Rect::empty(),
            rank_by_frequency: true,
        }
    }

    /// Disables the final frequency re-ranking (ids keep insertion
    /// order). Useful in tests that hand-pick ids.
    pub fn without_frequency_ranking(mut self) -> Self {
        self.rank_by_frequency = false;
        self
    }

    /// Interns an activity name, counting one occurrence.
    pub fn observe_activity(&mut self, name: &str) -> ActivityId {
        self.vocabulary.observe(name)
    }

    /// Access to the vocabulary mid-build (datagen convenience).
    pub fn vocabulary_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocabulary
    }

    /// Appends a trajectory built from `(point, activities)` pairs whose
    /// activity ids were previously obtained from this builder.
    pub fn push_trajectory(
        &mut self,
        points: Vec<crate::trajectory::TrajectoryPoint>,
    ) -> TrajectoryId {
        let id = TrajectoryId(self.trajectories.len() as u32);
        for p in &points {
            self.bounds.extend_point(&p.loc);
        }
        self.trajectories.push(Trajectory::new(id, points));
        id
    }

    /// Number of trajectories added so far.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether no trajectory has been added yet.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Finalises the dataset: validates invariants and (unless disabled)
    /// re-ranks activity ids by descending frequency, rewriting every
    /// stored activity set.
    pub fn finish(mut self) -> Result<Dataset> {
        for tr in &self.trajectories {
            for p in &tr.points {
                for a in p.activities.iter() {
                    if a.index() >= self.vocabulary.len() {
                        return Err(Error::InvalidDataset(format!(
                            "trajectory {} references unknown activity {}",
                            tr.id, a
                        )));
                    }
                }
            }
        }
        if self.rank_by_frequency {
            let remap = self.vocabulary.rank_by_frequency();
            for tr in &mut self.trajectories {
                for p in &mut tr.points {
                    p.activities =
                        ActivitySet::from_ids(p.activities.iter().map(|a| remap[a.index()]));
                }
            }
        }
        Ok(Dataset {
            trajectories: self.trajectories,
            vocabulary: self.vocabulary,
            bounds: self.bounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Point;
    use crate::trajectory::TrajectoryPoint;

    fn tp(x: f64, y: f64, acts: &[ActivityId]) -> TrajectoryPoint {
        TrajectoryPoint::new(
            Point::new(x, y),
            ActivitySet::from_ids(acts.iter().copied()),
        )
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("a");
        let id0 = b.push_trajectory(vec![tp(0.0, 0.0, &[a])]);
        let id1 = b.push_trajectory(vec![tp(1.0, 1.0, &[a])]);
        assert_eq!(id0, TrajectoryId(0));
        assert_eq!(id1, TrajectoryId(1));
        let d = b.finish().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.trajectory(id1).id, id1);
    }

    #[test]
    fn builder_tracks_bounds() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("a");
        b.push_trajectory(vec![tp(-2.0, 3.0, &[a]), tp(5.0, -1.0, &[a])]);
        let d = b.finish().unwrap();
        assert_eq!(d.bounds(), Rect::from_bounds(-2.0, -1.0, 5.0, 3.0));
    }

    #[test]
    fn finish_rejects_unknown_activity() {
        let mut b = DatasetBuilder::new();
        b.push_trajectory(vec![tp(0.0, 0.0, &[ActivityId(5)])]);
        assert!(matches!(b.finish(), Err(Error::InvalidDataset(_))));
    }

    #[test]
    fn frequency_ranking_rewrites_sets() {
        let mut b = DatasetBuilder::new();
        let rare = b.observe_activity("rare");
        let common = b.observe_activity("common");
        b.vocabulary_mut().add_count(common, 100);
        b.push_trajectory(vec![tp(0.0, 0.0, &[rare, common])]);
        let d = b.finish().unwrap();
        // "common" should now be id 0, "rare" id 1.
        assert_eq!(d.vocabulary().get("common"), Some(ActivityId(0)));
        assert_eq!(d.vocabulary().get("rare"), Some(ActivityId(1)));
        assert_eq!(
            d.trajectory(TrajectoryId(0)).points[0].activities,
            ActivitySet::from_raw([0, 1])
        );
    }

    #[test]
    fn stats_match_table_iv_shape() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("a");
        let c = b.observe_activity("c");
        b.push_trajectory(vec![tp(0.0, 0.0, &[a, c]), tp(1.0, 0.0, &[c])]);
        b.push_trajectory(vec![tp(2.0, 2.0, &[a])]);
        let d = b.finish().unwrap();
        let s = d.stats();
        assert_eq!(s.trajectories, 2);
        assert_eq!(s.venues, 3);
        assert_eq!(s.activity_occurrences, 4);
        assert_eq!(s.distinct_activities, 2);
        let rendered = s.to_string();
        assert!(rendered.contains("#venue"));
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let build = |names: &[&str], x0: f64| {
            let mut b = DatasetBuilder::new().without_frequency_ranking();
            let ids: Vec<ActivityId> = names.iter().map(|n| b.observe_activity(n)).collect();
            b.push_trajectory(vec![tp(x0, 0.0, &ids), tp(1.0, 2.0, &ids[..1])]);
            b.push_trajectory(vec![tp(5.0, 5.0, &ids[1..])]);
            b.finish().unwrap()
        };
        let d = build(&["a", "b"], 0.0);
        // Identical construction hashes identically.
        assert_eq!(d.content_hash(), build(&["a", "b"], 0.0).content_hash());
        // Any content change — a coordinate, an activity name — changes it.
        assert_ne!(d.content_hash(), build(&["a", "b"], 0.25).content_hash());
        assert_ne!(d.content_hash(), build(&["a", "c"], 0.0).content_hash());
        // Appending a trajectory changes it.
        let mut grown = d.clone();
        let a = grown.vocabulary().get("a").unwrap();
        grown.append_trajectory(vec![tp(9.0, 9.0, &[a])]).unwrap();
        assert_ne!(d.content_hash(), grown.content_hash());
        // The hash survives a clone (pure function of content).
        assert_eq!(d.content_hash(), d.clone().content_hash());
        // Empty dataset has a well-defined hash distinct from non-empty.
        let empty = DatasetBuilder::new().finish().unwrap();
        assert_eq!(empty.content_hash(), empty.content_hash());
        assert_ne!(empty.content_hash(), d.content_hash());
    }

    #[test]
    fn sample_prefix_truncates() {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        let a = b.observe_activity("a");
        for i in 0..5 {
            b.push_trajectory(vec![tp(i as f64, 0.0, &[a])]);
        }
        let d = b.finish().unwrap();
        assert_eq!(d.sample_prefix(3).len(), 3);
        assert_eq!(d.sample_prefix(100).len(), 5);
        assert_eq!(d.sample_prefix(0).len(), 0);
    }
}
