//! The GAT search algorithm (§V, §VI): Algorithm 1's retrieve /
//! validate / refine loop, the §V-A best-first candidate retrieval, the
//! Algorithm-2 lower bound for unseen trajectories, and the ATSQ /
//! OATSQ entry points.

use crate::apl::TrajectoryPostings;
use crate::config::GatConfig;
use crate::index::GatIndex;
use crate::kernel::ScoreScratch;
use crate::sharded::{BusyClock, Part};
use atsq_grid::CellId;
use atsq_matching::order_match::{min_order_match_distance, order_feasible};
use atsq_matching::point_match::{dmpm_from_sorted, CandidatePoint, QueryMask};
use atsq_types::{
    rank_top_k, ActivitySet, Dataset, Query, QueryResult, Result, TrajectoryId, TrajectoryPoint,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Total-ordering wrapper for f64 priorities (never NaN here).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Priority-queue entry of the §V-A retrieval: `(mdist, cell, qi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PqEntry {
    mdist: OrdF64,
    cell: CellId,
    q_idx: usize,
}

impl PartialOrd for PqEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PqEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for a min-heap on mdist.
        other
            .mdist
            .cmp(&self.mdist)
            .then_with(|| other.cell.cmp(&self.cell))
            .then_with(|| other.q_idx.cmp(&self.q_idx))
    }
}

/// Best-first candidate retrieval with the Algorithm-2 lower bound
/// over the index's traversal half (grid, HICL, ITL).
struct Retrieval<'a> {
    source: &'a GatIndex,
    query: &'a Query,
    pq: BinaryHeap<PqEntry>,
    /// Per query point: ALL unvisited frontier cells (pushed but not
    /// yet popped), sorted ascending by mdist. The paper's `cellsn(qi)`
    /// is the `lb_cells`-prefix of this list; keeping the full list is
    /// what makes the Theorem-1 argument sound — truncating at insert
    /// time can leave the kept prefix *smaller* than cells discarded
    /// earlier once pops shrink it, silently inflating the bound.
    frontier: Vec<Vec<(f64, CellId)>>,
    seen: Vec<bool>,
}

impl<'a> Retrieval<'a> {
    /// Seeds the traversal.
    fn new(source: &'a GatIndex, query: &'a Query) -> Result<Self> {
        let m = query.points.len();
        let mut pq = BinaryHeap::new();
        let mut frontier = vec![Vec::new(); m];

        // Seed: all level-1 cells containing any activity of qi.Φ.
        for (q_idx, q) in query.points.iter().enumerate() {
            let root = CellId::ROOT;
            let mut seeds = source.children_with_any(root, &q.activities)?;
            seeds.sort_unstable();
            for cell in seeds {
                let mdist = source.grid().min_dist(cell, &q.loc);
                pq.push(PqEntry {
                    mdist: OrdF64(mdist),
                    cell,
                    q_idx,
                });
                insert_frontier(&mut frontier[q_idx], mdist, cell);
            }
        }

        Ok(Retrieval {
            source,
            query,
            pq,
            frontier,
            seen: vec![false; source.len()],
        })
    }

    /// Dequeues cells until at least `lambda` fresh candidates are
    /// collected (or the queue empties). Returns the new candidates;
    /// the part that verifies a candidate charges it (see
    /// [`evaluate_atsq`]).
    fn retrieve_batch(&mut self, lambda: usize) -> Result<Vec<TrajectoryId>> {
        let mut out = Vec::new();
        let leaf_level = self.source.config().grid_level;
        while out.len() < lambda {
            let Some(entry) = self.pq.pop() else { break };
            let q = &self.query.points[entry.q_idx];
            remove_frontier(&mut self.frontier[entry.q_idx], entry.mdist.0, entry.cell);
            if entry.cell.level < leaf_level {
                // Descend: children containing any query activity.
                for child in self.source.children_with_any(entry.cell, &q.activities)? {
                    let mdist = self.source.grid().min_dist(child, &q.loc);
                    self.pq.push(PqEntry {
                        mdist: OrdF64(mdist),
                        cell: child,
                        q_idx: entry.q_idx,
                    });
                    insert_frontier(&mut self.frontier[entry.q_idx], mdist, child);
                }
            } else {
                // Leaf: harvest the ITL under each query activity.
                for a in q.activities.iter() {
                    for &tr in self.source.itl().trajectories(entry.cell, a) {
                        if !self.seen[tr.index()] {
                            self.seen[tr.index()] = true;
                            out.push(tr);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn exhausted(&self) -> bool {
        self.pq.is_empty()
    }

    /// The loose §V-B bound: the raw `mdist` of the queue's top entry,
    /// which lower-bounds `Dmpm` of *one* query point of any unseen
    /// trajectory and hence `Dmm` as a whole. Used by the ablation
    /// configuration with `tight_lower_bound = false`.
    fn loose_lower_bound(&self) -> f64 {
        self.pq.peek().map_or(f64::INFINITY, |e| e.mdist.0)
    }

    /// Algorithm 2: lower bound on `Dmm(Q, Tr)` over all unseen
    /// trajectories. Per query point, the nearest frontier cells are
    /// materialised as "virtual points" carrying the *entire* activity
    /// set of their cell at `mdist`; the minimum point match over that
    /// virtual trajectory lower-bounds the true `Dmpm` of anything not
    /// yet retrieved, capped by the distance of the last tracked cell
    /// when the frontier list was truncated.
    fn lower_bound(&self) -> Result<f64> {
        if !self.source.config().tight_lower_bound {
            return Ok(self.loose_lower_bound());
        }
        let m = self.source.config().lb_cells;
        let mut total = 0.0f64;
        for (q_idx, q) in self.query.points.iter().enumerate() {
            let cells = &self.frontier[q_idx];
            if cells.is_empty() {
                // The frontier is exact (every pushed cell stays until
                // popped), so emptiness means no unvisited cell can
                // contain qi's activities: no unseen trajectory
                // matches qi at all.
                return Ok(f64::INFINITY);
            }
            // The paper's cellsn(qi): the m nearest unvisited cells.
            let head = &cells[..m.min(cells.len())];
            let qmask = QueryMask::new(&q.activities);
            let mut virtual_points = Vec::with_capacity(head.len());
            for &(mdist, cell) in head {
                if let Some(acts) = self.source.cell_activities(cell)? {
                    let mask = qmask.cover_mask(&acts);
                    if mask != 0 {
                        virtual_points.push(CandidatePoint { dist: mdist, mask });
                    }
                }
            }
            // head is already ascending by mdist.
            let dmpm = dmpm_from_sorted(&qmask, &virtual_points);
            // Cells beyond the m-th are all at least as far as the
            // m-th: any match hiding entirely among them costs at
            // least that much. Only applies when such cells exist.
            let cap = if cells.len() > m {
                cells[m].0
            } else {
                f64::INFINITY
            };
            let dilb = match dmpm {
                Some(v) => v.min(cap),
                None => cap,
            };
            if dilb.is_infinite() {
                return Ok(f64::INFINITY);
            }
            total += dilb;
        }
        Ok(total)
    }
}

fn insert_frontier(list: &mut Vec<(f64, CellId)>, mdist: f64, cell: CellId) {
    let pos = list.partition_point(|&(d, _)| d <= mdist);
    list.insert(pos, (mdist, cell));
}

/// Removes one frontier entry. The popped entry's exact mdist is known
/// to the caller, so locate its distance run by binary search and scan
/// only within it.
fn remove_frontier(list: &mut Vec<(f64, CellId)>, mdist: f64, cell: CellId) {
    let start = list.partition_point(|&(d, _)| d < mdist);
    for pos in start..list.len() {
        if list[pos].1 == cell {
            list.remove(pos);
            return;
        }
        if list[pos].0 > mdist {
            break;
        }
    }
}

/// Bounded max-heap tracking the current k-th best distance.
///
/// The heap's content is a pure function of the *set* of offered
/// `(dist, id)` pairs — the k smallest under the `(dist, id)` order —
/// so any evaluation order, and any extra offers of pairs worse than
/// the final k-th, produce the same results.
struct TopK {
    k: usize,
    heap: BinaryHeap<(OrdF64, TrajectoryId)>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    fn offer(&mut self, dist: f64, tr: TrajectoryId) {
        self.heap.push((OrdF64(dist), tr));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// Current k-th smallest distance (`∞` until k results exist).
    fn kth(&self) -> f64 {
        if self.heap.len() == self.k {
            self.heap.peek().map_or(f64::INFINITY, |&(d, _)| d.0)
        } else {
            f64::INFINITY
        }
    }

    fn into_results(self) -> Vec<QueryResult> {
        self.heap
            .into_iter()
            .map(|(d, tr)| QueryResult::new(tr, d.0))
            .collect()
    }
}

/// Validates a candidate — local id `local` of `part`, whose points
/// are `points` — and computes `Dmm` through the part's TAS and APL
/// (the §V-C / §V-D pipeline), charging the candidate to the part.
/// Returns `Ok(None)` for invalid candidates; `Err` only on a paged-APL
/// storage failure.
///
/// Candidate-point scoring runs through the SoA batch kernel in
/// `scratch` — bit-identical to the scalar reference (see
/// [`crate::kernel`]) but allocation-free and autovectorizable.
fn evaluate_atsq(
    config: &GatConfig,
    part: &Part,
    local: usize,
    points: &[TrajectoryPoint],
    query: &Query,
    all_acts: &ActivitySet,
    scratch: &mut ScoreScratch,
) -> Result<Option<f64>> {
    let Some(postings) = validate(config, part, local, all_acts)? else {
        return Ok(None);
    };
    part.stats.record_distance();
    let mut total = 0.0;
    for q in &query.points {
        let qmask = QueryMask::new(&q.activities);
        postings.candidate_indexes_into(&q.activities, &mut scratch.indexes);
        let cp = scratch.score(&q.loc, &qmask, points);
        match dmpm_from_sorted(&qmask, cp) {
            Some(d) => total += d,
            None => return Ok(None),
        }
    }
    Ok(Some(total))
}

/// Validates a candidate for OATSQ (TAS → APL → MIB), charging it to
/// its part, and computes `Dmom` with the `Dkmom` early exit.
fn evaluate_oatsq(
    config: &GatConfig,
    part: &Part,
    local: usize,
    points: &[TrajectoryPoint],
    query: &Query,
    all_acts: &ActivitySet,
    dk: f64,
) -> Result<Option<f64>> {
    if validate(config, part, local, all_acts)?.is_none() {
        return Ok(None);
    }
    // MIB filter (§VI-B) before the expensive dynamic program.
    if !order_feasible(query, points) {
        return Ok(None);
    }
    part.stats.record_distance();
    Ok(min_order_match_distance(query, points, dk))
}

/// The shared head of both verifications: charges the candidate, runs
/// the TAS filter, then fetches the APL and confirms every query
/// activity. Returns the postings of a valid candidate.
fn validate<'p>(
    config: &GatConfig,
    part: &'p Part,
    local: usize,
    all_acts: &ActivitySet,
) -> Result<Option<Cow<'p, TrajectoryPostings>>> {
    part.stats.record_candidate();
    if config.use_tas {
        part.stats.record_tas_check();
        if !part.tas.sketch(local).covers(all_acts) {
            return Ok(None);
        }
    }
    let postings = part.postings(local)?;
    if !postings.contains_all(all_acts) {
        if config.use_tas {
            part.stats.record_tas_false_positive();
        }
        return Ok(None);
    }
    Ok(Some(postings))
}

/// Runs Algorithm 1 over the index's candidate stream.
///
/// `verify(part, local, tr, dk)` verifies one retrieved candidate `tr`
/// — local id `local` of its owner `part` — against the current k-th
/// best distance `dk` and returns its distance, or `None` for an
/// invalid candidate. The heap holds global ids and its content is
/// independent of which part verified a candidate (see [`TopK`]), so
/// every part count answers identically.
fn search_loop(
    index: &GatIndex,
    query: &Query,
    k: usize,
    mut verify: impl FnMut(&Part, usize, TrajectoryId, f64) -> Result<Option<f64>>,
) -> Result<Vec<QueryResult>> {
    if k == 0 || index.is_empty() {
        return Ok(Vec::new());
    }
    let mut clock = BusyClock::start(index);
    let result = (|| {
        let mut retrieval = Retrieval::new(index, query)?;
        let mut top = TopK::new(k);
        let lambda = index.config().lambda;
        loop {
            for tr in retrieval.retrieve_batch(lambda)? {
                let dk = top.kth();
                if let Some(dist) = clock.verify(index, tr, |p, l| verify(p, l, tr, dk))? {
                    top.offer(dist, tr);
                }
            }
            if retrieval.exhausted() {
                break;
            }
            // Termination: the k-th best beats anything still unseen.
            if top.kth() < retrieval.lower_bound()? {
                break;
            }
        }
        Ok(rank_top_k(top.into_results(), k))
    })();
    clock.finish(index);
    result
}

/// Range variant of [`search_loop`]: every trajectory within `tau`.
/// `verify` receives `tau` as its pruning distance.
fn range_loop(
    index: &GatIndex,
    query: &Query,
    tau: f64,
    mut verify: impl FnMut(&Part, usize, TrajectoryId, f64) -> Result<Option<f64>>,
) -> Result<Vec<QueryResult>> {
    if index.is_empty() || tau < 0.0 {
        return Ok(Vec::new());
    }
    let mut clock = BusyClock::start(index);
    let result = (|| {
        let mut out = Vec::new();
        let mut retrieval = Retrieval::new(index, query)?;
        let lambda = index.config().lambda;
        loop {
            for tr in retrieval.retrieve_batch(lambda)? {
                if let Some(dist) = clock.verify(index, tr, |p, l| verify(p, l, tr, tau))? {
                    if dist <= tau {
                        out.push(QueryResult::new(tr, dist));
                    }
                }
            }
            if retrieval.exhausted() {
                break;
            }
            // Every unseen trajectory is strictly beyond the radius.
            if retrieval.lower_bound()? > tau {
                break;
            }
        }
        Ok(rank_top_k(out, usize::MAX))
    })();
    clock.finish(index);
    result
}

/// Fallible form of [`atsq_range`]; errs only on paged-APL failures.
pub fn try_atsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Result<Vec<QueryResult>> {
    let all_acts = query.all_activities();
    let mut scratch = ScoreScratch::new();
    range_loop(index, query, tau, |part, local, tr, _| {
        let points = &dataset.trajectory(tr).points;
        evaluate_atsq(
            index.config(),
            part,
            local,
            points,
            query,
            &all_acts,
            &mut scratch,
        )
    })
}

/// Range (threshold) ATSQ: every trajectory with `Dmm(Q, Tr) ≤ tau`,
/// ascending by distance. A natural companion of the paper's top-k
/// query: the same index, candidate retrieval and Algorithm-2 bound
/// apply, with the radius replacing `Dkmm` in the termination test.
///
/// # Panics
/// On a paged-APL storage failure (impossible with the in-memory
/// backend); use [`try_atsq_range`] to handle that case.
pub fn atsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Vec<QueryResult> {
    try_atsq_range(index, dataset, query, tau).expect("APL storage failure during range ATSQ")
}

/// Fallible form of [`oatsq_range`]; errs only on paged-APL failures.
pub fn try_oatsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Result<Vec<QueryResult>> {
    let all_acts = query.all_activities();
    range_loop(index, query, tau, |part, local, tr, tau| {
        // Algorithm 4's early exit doubles as the radius filter.
        let points = &dataset.trajectory(tr).points;
        evaluate_oatsq(index.config(), part, local, points, query, &all_acts, tau)
    })
}

/// Range (threshold) OATSQ: every trajectory with `Dmom(Q, Tr) ≤ tau`.
///
/// # Panics
/// On a paged-APL storage failure; use [`try_oatsq_range`] otherwise.
pub fn oatsq_range(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    tau: f64,
) -> Vec<QueryResult> {
    try_oatsq_range(index, dataset, query, tau).expect("APL storage failure during range OATSQ")
}

/// Fallible form of [`atsq`]; errs only on paged-APL failures.
pub fn try_atsq(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    k: usize,
) -> Result<Vec<QueryResult>> {
    let all_acts = query.all_activities();
    let mut scratch = ScoreScratch::new();
    search_loop(index, query, k, |part, local, tr, _dk| {
        let points = &dataset.trajectory(tr).points;
        evaluate_atsq(
            index.config(),
            part,
            local,
            points,
            query,
            &all_acts,
            &mut scratch,
        )
    })
}

/// Activity Trajectory Similarity Query (ATSQ, §II): the `k`
/// trajectories with the smallest minimum match distance `Dmm(Q, ·)`.
///
/// # Panics
/// On a paged-APL storage failure (impossible with the in-memory
/// backend); use [`try_atsq`] to handle that case.
pub fn atsq(index: &GatIndex, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
    try_atsq(index, dataset, query, k).expect("APL storage failure during ATSQ")
}

/// Fallible form of [`oatsq`]; errs only on paged-APL failures.
pub fn try_oatsq(
    index: &GatIndex,
    dataset: &Dataset,
    query: &Query,
    k: usize,
) -> Result<Vec<QueryResult>> {
    let all_acts = query.all_activities();
    search_loop(index, query, k, |part, local, tr, dk| {
        let points = &dataset.trajectory(tr).points;
        evaluate_oatsq(index.config(), part, local, points, query, &all_acts, dk)
    })
}

/// Order-sensitive ATSQ (OATSQ, §VI): the `k` trajectories with the
/// smallest minimum order-sensitive match distance `Dmom(Q, ·)`.
///
/// Lemma 3 (`Dmm ≤ Dmom`) keeps the Algorithm-2 lower bound valid, so
/// the same retrieval loop applies; only validation and the distance
/// function change.
///
/// # Panics
/// On a paged-APL storage failure; use [`try_oatsq`] otherwise.
pub fn oatsq(index: &GatIndex, dataset: &Dataset, query: &Query, k: usize) -> Vec<QueryResult> {
    try_oatsq(index, dataset, query, k).expect("APL storage failure during OATSQ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatConfig;
    use atsq_matching::{min_match_distance, min_order_match_distance as dmom_exact};
    use atsq_types::{ActivitySet, DatasetBuilder, Point, QueryPoint, TrajectoryPoint};

    fn tp(x: f64, y: f64, acts: &[u32]) -> TrajectoryPoint {
        TrajectoryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    fn qp(x: f64, y: f64, acts: &[u32]) -> QueryPoint {
        QueryPoint::new(
            Point::new(x, y),
            ActivitySet::from_raw(acts.iter().copied()),
        )
    }

    /// A dataset with an exactly-known ranking.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for name in ["a", "b", "c", "d"] {
            b.observe_activity(name);
        }
        // Tr0: perfect match at distance 0.
        b.push_trajectory(vec![tp(0.0, 0.0, &[0]), tp(10.0, 0.0, &[1])]);
        // Tr1: match at distance 2.
        b.push_trajectory(vec![tp(1.0, 0.0, &[0]), tp(11.0, 0.0, &[1])]);
        // Tr2: missing activity 1 entirely.
        b.push_trajectory(vec![tp(0.0, 0.0, &[0]), tp(10.0, 0.0, &[2])]);
        // Tr3: match but far away.
        b.push_trajectory(vec![tp(40.0, 40.0, &[0]), tp(50.0, 40.0, &[1])]);
        // Tr4: wrong order (1 before 0).
        b.push_trajectory(vec![tp(10.0, 0.0, &[1]), tp(0.1, 0.0, &[0])]);
        b.finish().unwrap()
    }

    fn config() -> GatConfig {
        GatConfig {
            grid_level: 5,
            memory_level: 3,
            lambda: 2,
            lb_cells: 4,
            ..GatConfig::default()
        }
    }

    fn query() -> Query {
        Query::new(vec![qp(0.0, 0.0, &[0]), qp(10.0, 0.0, &[1])]).unwrap()
    }

    #[test]
    fn atsq_ranks_by_dmm() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let res = atsq(&idx, &d, &query(), 3);
        let ids: Vec<u32> = res.iter().map(|r| r.trajectory.0).collect();
        // Tr4 has Dmm = 0.1 (activity 0 at x=0.1, activity 1 at x=10).
        assert_eq!(ids, vec![0, 4, 1]);
        assert_eq!(res[0].distance, 0.0);
        assert!((res[1].distance - 0.1).abs() < 1e-12);
        assert!((res[2].distance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oatsq_respects_order() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let res = oatsq(&idx, &d, &query(), 3);
        let ids: Vec<u32> = res.iter().map(|r| r.trajectory.0).collect();
        // Tr4 is invalid for the ordered query (1 appears before 0).
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn results_match_exhaustive_scan() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let q = query();
        for k in 1..=5 {
            let got = atsq(&idx, &d, &q, k);
            let mut want = Vec::new();
            for tr in d.trajectories() {
                if let Some(dist) = min_match_distance(&q, &tr.points) {
                    want.push(QueryResult::new(tr.id, dist));
                }
            }
            let want = rank_top_k(want, k);
            assert_eq!(got, want, "k={k}");

            let got_o = oatsq(&idx, &d, &q, k);
            let mut want_o = Vec::new();
            for tr in d.trajectories() {
                if let Some(dist) = dmom_exact(&q, &tr.points, f64::INFINITY) {
                    want_o.push(QueryResult::new(tr.id, dist));
                }
            }
            let want_o = rank_top_k(want_o, k);
            assert_eq!(got_o, want_o, "ordered k={k}");
        }
    }

    #[test]
    fn k_zero_and_empty_dataset() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        assert!(atsq(&idx, &d, &query(), 0).is_empty());
        let empty = DatasetBuilder::new().finish().unwrap();
        let idx2 = GatIndex::build(&empty).unwrap();
        assert!(atsq(&idx2, &empty, &query(), 3).is_empty());
    }

    #[test]
    fn unmatchable_activity_yields_empty() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let q = Query::new(vec![qp(0.0, 0.0, &[3])]).unwrap(); // "d" never occurs
        assert!(atsq(&idx, &d, &q, 3).is_empty());
        assert!(oatsq(&idx, &d, &q, 3).is_empty());
    }

    #[test]
    fn stats_reflect_pipeline() {
        let d = dataset();
        let idx = GatIndex::build_with(&d, config()).unwrap();
        let _ = atsq(&idx, &d, &query(), 2);
        let s = idx.stats();
        assert!(s.candidates_retrieved > 0);
        assert!(s.tas_checks > 0);
        assert!(s.distances_computed > 0);
    }
}
