//! Simulated I/O accounting.
//!
//! The paper keeps HICL levels above `h` and all APL posting lists on
//! hard disk (§IV). This reproduction is entirely in-memory, but the
//! *pattern* of cold accesses still matters for interpreting the
//! experiments, so every access that the paper would serve from disk
//! increments a counter here. Counters are atomic so a shared index
//! can be queried concurrently.
//!
//! Each `record_*` additionally feeds the per-query counter context
//! of [`atsq_obs::counters`]: when the calling thread is inside a
//! [`atsq_obs::CounterScope`], the same event is attributed to that
//! one query's sink. Without an active scope the extra call is a
//! thread-local flag test, so the lifetime counters stay cheap.
//!
//! # Reset semantics
//!
//! The raw atomics are **monotone** — they are never stored to after
//! construction, only `fetch_add`ed. [`IoStats::reset`] instead
//! captures the current totals as a *baseline* under a mutex, and
//! [`IoStats::snapshot`] reports `raw - baseline` under the same
//! mutex. A reset therefore can never half-apply: every snapshot is
//! relative to exactly one coherent baseline, so cross-counter
//! relationships survive concurrent resets (up to the bounded
//! in-flight slack of queries mid-record). Hot-path recording stays
//! wait-free; only reset and snapshot serialize, and both are cold.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cold-access counters for one GAT index.
#[derive(Debug, Default)]
pub struct IoStats {
    hicl_cold_reads: AtomicU64,
    apl_reads: AtomicU64,
    tas_checks: AtomicU64,
    tas_false_positives: AtomicU64,
    candidates_retrieved: AtomicU64,
    distances_computed: AtomicU64,
    /// Raw totals at the last [`reset`](IoStats::reset). Snapshots
    /// subtract this, so reset never tears the monotone counters.
    baseline: Mutex<IoSnapshot>,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a HICL access below the memory-resident levels.
    pub fn record_hicl_cold_read(&self) {
        // ordering: Relaxed — independent monotone event counter; no
        // other memory is published via these counters.
        self.hicl_cold_reads.fetch_add(1, Ordering::Relaxed);
        atsq_obs::record_cold_read();
    }

    /// Records one APL posting-list fetch.
    pub fn record_apl_read(&self) {
        // ordering: Relaxed — independent monotone event counter.
        self.apl_reads.fetch_add(1, Ordering::Relaxed);
        atsq_obs::record_apl_read();
    }

    /// Records one TAS containment check.
    pub fn record_tas_check(&self) {
        // ordering: Relaxed — independent monotone event counter.
        self.tas_checks.fetch_add(1, Ordering::Relaxed);
        atsq_obs::record_tas_check();
    }

    /// Records a TAS check that passed but was refuted by the APL.
    pub fn record_tas_false_positive(&self) {
        // ordering: Relaxed — independent monotone event counter.
        self.tas_false_positives.fetch_add(1, Ordering::Relaxed);
        atsq_obs::record_tas_false_positive();
    }

    /// Records one candidate trajectory entering the candidate set.
    pub fn record_candidate(&self) {
        // ordering: Relaxed — independent monotone event counter.
        self.candidates_retrieved.fetch_add(1, Ordering::Relaxed);
        atsq_obs::record_candidate();
    }

    /// Records one full match-distance evaluation.
    pub fn record_distance(&self) {
        // ordering: Relaxed — independent monotone event counter.
        self.distances_computed.fetch_add(1, Ordering::Relaxed);
        atsq_obs::record_distance_eval();
    }

    /// Raw monotone totals, never rebased by resets.
    fn raw_totals(&self) -> IoSnapshot {
        // coherence: these six Relaxed loads are not a point-in-time
        // cut — a concurrent query's increments may be partially
        // visible. The counters are independent monotone tallies and
        // every consumer works with per-counter values or clamped
        // ratios, so a skewed cut is harmless; resets are made
        // coherent by the baseline mutex in `snapshot`/`reset`, not
        // here.
        // ordering: Relaxed — see the coherence note above.
        IoSnapshot {
            hicl_cold_reads: self.hicl_cold_reads.load(Ordering::Relaxed),
            apl_reads: self.apl_reads.load(Ordering::Relaxed),
            tas_checks: self.tas_checks.load(Ordering::Relaxed),
            tas_false_positives: self.tas_false_positives.load(Ordering::Relaxed),
            candidates_retrieved: self.candidates_retrieved.load(Ordering::Relaxed),
            distances_computed: self.distances_computed.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of all counters since the last [`reset`](IoStats::reset).
    pub fn snapshot(&self) -> IoSnapshot {
        // Hold the baseline lock across the raw reads so a concurrent
        // reset cannot slide the baseline mid-snapshot: every snapshot
        // pairs one baseline with raw totals read no earlier than it.
        let baseline = self.baseline.lock();
        self.raw_totals().saturating_sub(&baseline)
    }

    /// Resets every counter to zero, coherently.
    ///
    /// The raw counters are monotone and never stored to; reset
    /// captures their current totals as the new baseline under the
    /// same mutex that [`snapshot`](IoStats::snapshot) reads it, so a
    /// reset racing concurrent queries applies atomically with respect
    /// to snapshots — it can no longer tear (half the counters zeroed,
    /// half not). Increments from queries still in flight simply land
    /// in the new epoch.
    pub fn reset(&self) {
        let mut baseline = self.baseline.lock();
        *baseline = self.raw_totals();
    }
}

/// Point-in-time copy of the [`IoStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// HICL accesses that the paper would serve from disk.
    pub hicl_cold_reads: u64,
    /// APL posting-list fetches.
    pub apl_reads: u64,
    /// TAS containment checks performed.
    pub tas_checks: u64,
    /// TAS passes later refuted by the APL (sketch false positives).
    pub tas_false_positives: u64,
    /// Candidate trajectories retrieved.
    pub candidates_retrieved: u64,
    /// Full match-distance evaluations.
    pub distances_computed: u64,
}

impl IoSnapshot {
    /// Component-wise sum — folds per-part counters into engine totals.
    pub fn add(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            hicl_cold_reads: self.hicl_cold_reads + other.hicl_cold_reads,
            apl_reads: self.apl_reads + other.apl_reads,
            tas_checks: self.tas_checks + other.tas_checks,
            tas_false_positives: self.tas_false_positives + other.tas_false_positives,
            candidates_retrieved: self.candidates_retrieved + other.candidates_retrieved,
            distances_computed: self.distances_computed + other.distances_computed,
        }
    }

    /// Component-wise saturating difference (`self - earlier`).
    fn saturating_sub(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            hicl_cold_reads: self.hicl_cold_reads.saturating_sub(earlier.hicl_cold_reads),
            apl_reads: self.apl_reads.saturating_sub(earlier.apl_reads),
            tas_checks: self.tas_checks.saturating_sub(earlier.tas_checks),
            tas_false_positives: self
                .tas_false_positives
                .saturating_sub(earlier.tas_false_positives),
            candidates_retrieved: self
                .candidates_retrieved
                .saturating_sub(earlier.candidates_retrieved),
            distances_computed: self
                .distances_computed
                .saturating_sub(earlier.distances_computed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_apl_read();
        s.record_apl_read();
        s.record_tas_check();
        s.record_tas_false_positive();
        s.record_hicl_cold_read();
        s.record_candidate();
        s.record_distance();
        let snap = s.snapshot();
        assert_eq!(snap.apl_reads, 2);
        assert_eq!(snap.tas_checks, 1);
        assert_eq!(snap.tas_false_positives, 1);
        assert_eq!(snap.hicl_cold_reads, 1);
        assert_eq!(snap.candidates_retrieved, 1);
        assert_eq!(snap.distances_computed, 1);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn counting_resumes_after_reset() {
        let s = IoStats::new();
        s.record_apl_read();
        s.reset();
        s.record_apl_read();
        s.record_apl_read();
        assert_eq!(s.snapshot().apl_reads, 2);
    }

    /// Regression test for the reset tear: with per-counter zeroing
    /// stores, a reset racing a writer could zero
    /// `candidates_retrieved` while leaving `distances_computed` with
    /// its full history, so a snapshot showed far more distances than
    /// candidates. With the monotone-counter + baseline scheme, any
    /// snapshot's skew is bounded by the writers' in-flight slack.
    #[test]
    fn concurrent_reset_cannot_tear_cross_counter_invariants() {
        const WRITERS: usize = 4;
        const ROUNDS: usize = 2_000;
        let s = IoStats::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..ROUNDS {
                            // The engine records a candidate before it
                            // evaluates that candidate's distance.
                            s.record_candidate();
                            s.record_distance();
                        }
                    })
                })
                .collect();
            scope.spawn(|| {
                // ordering: Relaxed — plain test stop flag; no data is
                // published through it.
                while !stop.load(Ordering::Relaxed) {
                    s.reset();
                    let snap = s.snapshot();
                    // Each writer can be at most one increment ahead
                    // (candidate landed, distance not yet). A torn
                    // reset breaks this by unbounded amounts.
                    assert!(
                        snap.distances_computed <= snap.candidates_retrieved + WRITERS as u64,
                        "snapshot tore: {} distances vs {} candidates",
                        snap.distances_computed,
                        snap.candidates_retrieved
                    );
                    std::hint::spin_loop();
                }
            });
            for w in writers {
                w.join().expect("writer thread");
            }
            // ordering: Relaxed — see the load above.
            stop.store(true, Ordering::Relaxed);
        });
    }
}
